//! Steady-state allocation regression test, backed by the `ANT_ALLOC`
//! counting allocator that every `ant-bench` test binary installs.
//!
//! The scratch-arena contract (see `ant_sim::scratch`): after one warm-up
//! pair has grown a worker's [`SimScratch`] buffers, simulating further
//! pairs of the same shapes performs **zero** heap allocations, on every
//! machine. A regression here means a `Vec`/`Box` crept back into the
//! per-pair hot path.
//!
//! This file deliberately holds a single `#[test]`: the allocator counters
//! are process-global, and a sibling test thread allocating concurrently
//! would make the zero-delta assertion meaningless.

use ant_conv::matmul::MatmulShape;
use ant_conv::rcp::{useful_count_path, UsefulCountPath};
use ant_conv::ConvShape;
use ant_sim::accum::AccumulatorBanks;
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, MatmulSim, SimScratch};
use ant_sparse::{sparsify, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

// The test crate must reference ant-bench, or the linker drops the rlib —
// and with it the `#[global_allocator]` registration under test.
use ant_bench as _;

fn conv_pair(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let kernel =
        sparsify::random_with_sparsity(shape.kernel_h(), shape.kernel_w(), sparsity, &mut rng);
    let image =
        sparsify::random_with_sparsity(shape.image_h(), shape.image_w(), sparsity, &mut rng);
    (
        CsrMatrix::from_dense(&kernel),
        CsrMatrix::from_dense(&image),
    )
}

#[test]
fn second_pair_on_a_warm_worker_allocates_nothing() {
    let conv_machines: Vec<Box<dyn ConvSim>> = vec![
        Box::new(AntAccelerator::paper_default()),
        Box::new(
            AntAccelerator::paper_default()
                .with_accumulator_banks(AccumulatorBanks::scnn_provisioned(4)),
        ),
        Box::new(ScnnPlus::paper_default()),
        Box::new(DenseInnerProduct::paper_default()),
        Box::new(TensorDash::paper_default()),
        Box::new(DstAccelerator::paper_default()),
        Box::new(IntersectionAccelerator::training_default()),
    ];
    // A forward-like pair and an update-like pair (a large, denser kernel
    // with a 3x3 output): the useful-product counter takes its row walk on
    // the first and its row masks on the second, so both stay
    // allocation-free on a warm worker.
    let conv_pairs: Vec<_> = [
        (ConvShape::new(3, 3, 16, 16, 1).unwrap(), 0.9),
        (
            ConvShape::with_output(14, 14, 16, 16, 1, 1, 3, 3).unwrap(),
            0.5,
        ),
    ]
    .into_iter()
    .map(|(shape, sparsity)| {
        (
            shape,
            conv_pair(&shape, sparsity, 1),
            conv_pair(&shape, sparsity, 2),
        )
    })
    .collect();
    let paths: Vec<UsefulCountPath> = conv_pairs
        .iter()
        .map(|(shape, (k, i), _)| useful_count_path(k.nnz(), i.nnz(), shape))
        .collect();
    assert_eq!(paths, [UsefulCountPath::RowWalk, UsefulCountPath::RowMasks]);

    let mshape = MatmulShape::new(12, 16, 16, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let m_image1 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(12, 16, 0.9, &mut rng));
    let m_kernel1 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(16, 8, 0.9, &mut rng));
    let m_image2 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(12, 16, 0.9, &mut rng));
    let m_kernel2 = CsrMatrix::from_dense(&sparsify::random_with_sparsity(16, 8, 0.9, &mut rng));
    let matmul_machines: Vec<(&'static str, Box<dyn MatmulSim>)> = vec![
        ("ANT", Box::new(AntAccelerator::paper_default())),
        ("SCNN+", Box::new(ScnnPlus::paper_default())),
        ("dense", Box::new(DenseInnerProduct::paper_default())),
        ("TensorDash", Box::new(TensorDash::paper_default())),
        ("DST", Box::new(DstAccelerator::paper_default())),
        (
            "GoSPA",
            Box::new(IntersectionAccelerator::training_default()),
        ),
    ];

    ant_obs::alloc::enable();
    assert!(
        ant_obs::alloc::counting_active(),
        "counting allocator must be installed in ant-bench test binaries"
    );

    // One worker-owned arena shared by every machine, exactly like a
    // scheduler worker slot.
    let mut scratch = SimScratch::new();
    for (shape, (k1, i1), (k2, i2)) in &conv_pairs {
        for machine in &conv_machines {
            // Warm-up pair grows the buffers to this shape.
            let warm = machine.simulate_conv_pair_scratch(k1, i1, shape, &mut scratch);
            // Steady state: a second, different pair of the same shape.
            let before = ant_obs::alloc::snapshot();
            let steady = machine.simulate_conv_pair_scratch(k2, i2, shape, &mut scratch);
            let delta = ant_obs::alloc::snapshot().delta_from(&before);
            assert_eq!(
                delta.allocs,
                0,
                "{} allocated {} times ({} bytes) on a warm worker, shape {shape}",
                machine.name(),
                delta.allocs,
                delta.allocated_bytes
            );
            // Sanity: both runs did real work.
            assert!(warm.pairs_total > 0 && steady.pairs_total > 0);
        }
    }

    for (label, machine) in &matmul_machines {
        let _ = machine.simulate_matmul_pair_scratch(&m_image1, &m_kernel1, &mshape, &mut scratch);
        let before = ant_obs::alloc::snapshot();
        let _ = machine.simulate_matmul_pair_scratch(&m_image2, &m_kernel2, &mshape, &mut scratch);
        let delta = ant_obs::alloc::snapshot().delta_from(&before);
        assert_eq!(
            delta.allocs, 0,
            "{label} matmul allocated {} times ({} bytes) on a warm worker",
            delta.allocs, delta.allocated_bytes
        );
    }

    ant_obs::alloc::disable();
}
