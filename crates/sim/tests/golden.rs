//! Golden-equivalence proptests for the allocation-free hot path.
//!
//! Random `(shape, sparsity, seed)` triples run through every machine three
//! ways — the plain entry point, a fresh [`SimScratch`], and one scratch
//! reused across all machines and pairs — and every way must produce
//! byte-identical [`ant_sim::SimStats`] (which embeds the full
//! `CycleBreakdown`). The useful-product counts are additionally pinned to a
//! retained brute-force reference implementation, so the optimized
//! row-walk and word-parallel row-mask kernels cannot drift from the
//! semantic definition.

use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, Anticipator};
use ant_sim::analytic;
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, MatmulSim, SimScratch, SimStats};
use ant_sparse::{sparsify, CsrMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The retained reference implementations: the straightforward
/// `O(nnz_kernel * nnz_image)` definitions that predate the fast paths.
/// Slow, obviously correct, and kept here solely as the oracle for the
/// golden tests.
mod reference {
    use super::*;

    /// A conv product is useful iff both operands are non-zero and
    /// `(x, y, s, r)` maps to a valid output index.
    pub fn conv_useful_products(kernel: &CsrMatrix, image: &CsrMatrix, shape: &ConvShape) -> u64 {
        kernel
            .iter()
            .map(|(r, s, _)| {
                image
                    .iter()
                    .filter(|&(y, x, _)| shape.is_valid_product(x, y, s, r))
                    .count() as u64
            })
            .sum()
    }

    /// A matmul product is useful iff the image element's column equals the
    /// kernel element's row (the contracted index).
    pub fn matmul_useful_products(image: &CsrMatrix, kernel: &CsrMatrix) -> u64 {
        image
            .iter()
            .map(|(_, x, _)| kernel.row_range(x).len() as u64)
            .sum()
    }
}

fn conv_machines() -> Vec<Box<dyn ConvSim>> {
    vec![
        Box::new(AntAccelerator::paper_default()),
        Box::new(ScnnPlus::paper_default()),
        Box::new(DenseInnerProduct::paper_default()),
        Box::new(TensorDash::paper_default()),
        Box::new(DstAccelerator::paper_default()),
        Box::new(IntersectionAccelerator::training_default()),
        Box::new(IntersectionAccelerator::inference_default()),
    ]
}

type MatmulMachine = (&'static str, Box<dyn MatmulSim>);

fn matmul_machines() -> Vec<MatmulMachine> {
    vec![
        ("ANT", Box::new(AntAccelerator::paper_default())),
        ("SCNN+", Box::new(ScnnPlus::paper_default())),
        ("dense", Box::new(DenseInnerProduct::paper_default())),
        ("TensorDash", Box::new(TensorDash::paper_default())),
        ("DST", Box::new(DstAccelerator::paper_default())),
        (
            "GoSPA",
            Box::new(IntersectionAccelerator::training_default()),
        ),
    ]
}

/// A random conv problem: shape (kernel, image, stride, dilation) plus
/// operands drawn at the given sparsity.
fn conv_case() -> impl Strategy<Value = (ConvShape, f64, u64)> {
    (
        1usize..=4,
        1usize..=4,
        0usize..8,
        0usize..8,
        1usize..=2,
        1usize..=2,
        0.0f64..0.97,
        any::<u64>(),
    )
        .prop_map(
            |(kh, kw, extra_h, extra_w, stride, dilation, sparsity, seed)| {
                // The image always covers the dilated kernel, so the shape
                // is valid by construction.
                let ih = dilation * (kh - 1) + 1 + extra_h;
                let iw = dilation * (kw - 1) + 1 + extra_w;
                let shape = ConvShape::with_dilation(kh, kw, ih, iw, stride, dilation)
                    .expect("image covers dilated kernel");
                (shape, sparsity, seed)
            },
        )
}

fn conv_operands(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every machine's scratch path is bit-identical to its plain entry
    /// point — with a fresh arena and with one arena reused across all
    /// machines — and the machines that report exact useful counts agree
    /// with the brute-force reference.
    #[test]
    fn conv_scratch_paths_are_bit_identical((shape, sparsity, seed) in conv_case()) {
        let (kernel, image) = conv_operands(&shape, sparsity, seed);
        let useful = reference::conv_useful_products(&kernel, &image, &shape);
        // One arena deliberately shared across machines and invocations:
        // stale contents from any previous run must not leak into results.
        let mut reused = SimScratch::new();
        for machine in conv_machines() {
            let plain = machine.simulate_conv_pair(&kernel, &image, &shape);
            let fresh = machine.simulate_conv_pair_scratch(
                &kernel,
                &image,
                &shape,
                &mut SimScratch::new(),
            );
            let warm = machine.simulate_conv_pair_scratch(&kernel, &image, &shape, &mut reused);
            prop_assert_eq!(&plain, &fresh, "fresh scratch diverged on {}", machine.name());
            prop_assert_eq!(&plain, &warm, "reused scratch diverged on {}", machine.name());
            // Re-running on the now-warm arena must also be stable.
            let again = machine.simulate_conv_pair_scratch(&kernel, &image, &shape, &mut reused);
            prop_assert_eq!(&plain, &again, "second warm run diverged on {}", machine.name());
        }
        // Exact-count machines against the retained reference.
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let dst = DstAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let isect = IntersectionAccelerator::training_default()
            .simulate_conv_pair(&kernel, &image, &shape);
        prop_assert_eq!(ant.useful_mults, useful, "ANT useful");
        prop_assert_eq!(scnn.useful_mults, useful, "SCNN+ useful");
        prop_assert_eq!(dst.useful_mults, useful, "DST useful");
        prop_assert_eq!(isect.useful_mults, useful, "GoSPA useful");
    }

    /// The matmul paths, same contract.
    #[test]
    fn matmul_scratch_paths_are_bit_identical(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..8,
        sparsity in 0.0f64..0.97,
        seed in any::<u64>(),
    ) {
        let shape = MatmulShape::new(m, k, k, n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(m, k, sparsity, &mut rng));
        let kernel =
            CsrMatrix::from_dense(&sparsify::random_with_sparsity(k, n, sparsity, &mut rng));
        let useful = reference::matmul_useful_products(&image, &kernel);
        let mut reused = SimScratch::new();
        let mut exact: Vec<(&'static str, SimStats)> = Vec::new();
        for (label, machine) in matmul_machines() {
            let plain = machine.simulate_matmul_pair(&image, &kernel, &shape);
            let fresh = machine.simulate_matmul_pair_scratch(
                &image,
                &kernel,
                &shape,
                &mut SimScratch::new(),
            );
            let warm = machine.simulate_matmul_pair_scratch(&image, &kernel, &shape, &mut reused);
            prop_assert_eq!(&plain, &fresh, "fresh scratch diverged on {}", label);
            prop_assert_eq!(&plain, &warm, "reused scratch diverged on {}", label);
            if matches!(label, "ANT" | "SCNN+" | "DST" | "GoSPA") {
                exact.push((label, plain));
            }
        }
        for (label, stats) in exact {
            prop_assert_eq!(stats.useful_mults, useful, "{} matmul useful", label);
        }
    }

    /// Tier-2 fast path: any machine advertising `analytic_conv_pair` must
    /// return byte-identical stats to its emulated path (the runner
    /// substitutes the closed form for dispatched pair jobs), and the set of
    /// machines that advertise it is pinned — operand-dependent scans (ANT's
    /// FNIR feedback, the useful-product counters) must keep dispatching.
    #[test]
    fn analytic_conv_fast_path_is_byte_identical((shape, sparsity, seed) in conv_case()) {
        let (kernel, image) = conv_operands(&shape, sparsity, seed);
        let mut advertised = 0usize;
        for machine in conv_machines() {
            if let Some(closed) = machine.analytic_conv_pair(&kernel, &image, &shape) {
                advertised += 1;
                let emulated = machine.simulate_conv_pair(&kernel, &image, &shape);
                prop_assert_eq!(&closed, &emulated, "analytic diverged on {}", machine.name());
            }
        }
        // Exactly the inner-product machines (dense, TensorDash) are
        // closed-form; everyone else must emulate.
        prop_assert_eq!(advertised, 2);
        prop_assert!(DenseInnerProduct::paper_default()
            .analytic_conv_pair(&kernel, &image, &shape)
            .is_some());
        prop_assert!(TensorDash::paper_default()
            .analytic_conv_pair(&kernel, &image, &shape)
            .is_some());
        prop_assert!(AntAccelerator::paper_default()
            .analytic_conv_pair(&kernel, &image, &shape)
            .is_none());
        prop_assert!(ScnnPlus::paper_default()
            .analytic_conv_pair(&kernel, &image, &shape)
            .is_none());
    }

    /// SCNN+'s closed form given the reference useful-product count is
    /// byte-identical to full emulation: `useful` is the *only*
    /// operand-dependent input to the machine.
    #[test]
    fn scnn_closed_form_needs_only_the_useful_count((shape, sparsity, seed) in conv_case()) {
        let (kernel, image) = conv_operands(&shape, sparsity, seed);
        let useful = reference::conv_useful_products(&kernel, &image, &shape);
        let machine = ScnnPlus::paper_default();
        let emulated = machine.simulate_conv_pair(&kernel, &image, &shape);
        let closed = analytic::scnn_products(
            machine.n(),
            kernel.nnz(),
            image.nnz(),
            kernel.rows(),
            useful,
        );
        prop_assert_eq!(&closed, &emulated, "SCNN+ closed form diverged");
    }

    /// ANT's cycle attribution is a closed form over the anticipator's
    /// counters: re-running the `ant-core` pipeline directly and mapping its
    /// counters through `analytic::ant_cycle_terms` reproduces every cycle
    /// field of the accelerator's stats.
    #[test]
    fn ant_attribution_is_closed_form_over_counters((shape, sparsity, seed) in conv_case()) {
        let (kernel, image) = conv_operands(&shape, sparsity, seed);
        // The accelerator returns all-zero stats for empty operands before
        // the counter mapping runs; the closed form only applies to
        // dispatched pairs.
        prop_assume!(kernel.nnz() > 0 && image.nnz() > 0);
        let stats = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let counters = Anticipator::new(AntConfig::paper_default())
            .run_conv(&kernel, &image, &shape)
            .expect("operands match the shape")
            .counters;
        let terms = analytic::ant_cycle_terms(
            counters.scan_cycles,
            counters.mult_cycles,
            counters.groups,
            counters.pairs_total,
            0,
        );
        prop_assert_eq!(terms.pe_cycles, stats.pe_cycles, "pe_cycles");
        prop_assert_eq!(terms.startup, stats.startup_cycles, "startup");
        prop_assert_eq!(terms.compute, stats.cycles.compute, "compute");
        prop_assert_eq!(terms.fnir_scan, stats.cycles.fnir_scan, "fnir_scan");
        prop_assert_eq!(terms.sram_fetch, stats.cycles.sram_fetch, "sram_fetch");
    }
}
