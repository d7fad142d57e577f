//! Cross-crate integration: real backprop traces drive the simulators.

use ant_bench::runner::simulate_trace;
use ant_nn::data::SyntheticDataset;
use ant_nn::model::{SmallCnn, SparseMode};
use ant_nn::sparse_train::{ReSpropSparsifier, SwatSparsifier};
use ant_nn::ConvTrace;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, SimStats};

fn train_and_capture(mode: &mut SparseMode, steps: usize, seed: u64) -> Vec<ConvTrace> {
    let mut ds = SyntheticDataset::new(1, 8, 3, 0.1, seed);
    let mut net = SmallCnn::new(1, 8, 3, seed.wrapping_add(1));
    for _ in 0..steps {
        let batch = ds.sample_batch(8);
        let _ = net.train_step(&batch, 0.05, mode, None);
    }
    let batch = ds.sample_batch(8);
    let mut traces = Vec::new();
    let _ = net.train_step(&batch, 0.05, mode, Some(&mut traces));
    traces
}

fn simulate(machine: &impl ConvSim, traces: &[ConvTrace]) -> SimStats {
    let mut total = SimStats::default();
    for trace in traces {
        total.accumulate(&simulate_trace(machine, trace));
    }
    total
}

/// Real traces flow through both machines; useful work agrees and ANT never
/// multiplies more.
#[test]
fn real_traces_preserve_useful_work() {
    let mut mode = SparseMode::Dense;
    let traces = train_and_capture(&mut mode, 5, 3);
    assert_eq!(traces.len(), 2);
    let s = simulate(&ScnnPlus::paper_default(), &traces);
    let a = simulate(&AntAccelerator::paper_default(), &traces);
    assert_eq!(s.useful_mults, a.useful_mults);
    assert!(a.mults <= s.mults);
    assert!(a.rcps_avoided_fraction() > 0.5);
}

/// ReSprop-style training produces much sparser gradients than dense
/// training, and ANT converts that into fewer executed multiplications.
#[test]
fn resprop_traces_are_sparser_and_cheaper() {
    let mut dense_mode = SparseMode::Dense;
    let dense_traces = train_and_capture(&mut dense_mode, 8, 5);
    let mut rs_mode = SparseMode::ReSprop(ReSpropSparsifier::new(0.9));
    let rs_traces = train_and_capture(&mut rs_mode, 8, 5);

    let dense_g: f64 = dense_traces
        .iter()
        .map(|t| t.gradient_sparsity())
        .sum::<f64>()
        / dense_traces.len() as f64;
    let rs_g: f64 =
        rs_traces.iter().map(|t| t.gradient_sparsity()).sum::<f64>() / rs_traces.len() as f64;
    assert!(
        rs_g > dense_g,
        "ReSprop gradients ({rs_g:.3}) should be sparser than dense ({dense_g:.3})"
    );

    let ant = AntAccelerator::paper_default();
    let dense_cost = simulate(&ant, &dense_traces);
    let rs_cost = simulate(&ant, &rs_traces);
    assert!(rs_cost.mults < dense_cost.mults);
}

/// SWAT-style masks make the weight planes sparse at the target level, and
/// the traces carry that through to the simulators.
#[test]
fn swat_traces_carry_weight_sparsity() {
    let mut mode = SparseMode::Swat(SwatSparsifier::new(0.8));
    let traces = train_and_capture(&mut mode, 3, 7);
    for t in &traces {
        assert!(
            (t.weight_sparsity() - 0.8).abs() < 0.1,
            "{}: weight sparsity {:.3}",
            t.name,
            t.weight_sparsity()
        );
    }
}

/// Trace pairs are functionally faithful: summing the per-channel forward
/// partial outputs reproduces the network's own forward activations.
#[test]
fn trace_pairs_reproduce_forward_computation() {
    let mut mode = SparseMode::Dense;
    let traces = train_and_capture(&mut mode, 2, 11);
    for trace in &traces {
        let pairs = trace.forward_pairs().unwrap();
        let shape = pairs[0].shape;
        // Accumulate channel 0's partials across input channels.
        let mut acc = ant_sparse::DenseMatrix::zeros(shape.out_h(), shape.out_w());
        for p in pairs.iter().take(trace.in_channels()) {
            let partial =
                ant_conv::outer::sparse_conv_outer(&p.kernel, &p.image, &p.shape).unwrap();
            for (r, col, v) in partial.output.iter_nonzero() {
                acc[(r, col)] += v;
            }
        }
        // Compare against a direct dense convolution of the same planes.
        let mut expected = ant_sparse::DenseMatrix::zeros(shape.out_h(), shape.out_w());
        for c in 0..trace.in_channels() {
            let partial = ant_conv::dense::conv2d(
                &trace.weight(0, c).to_dense(),
                &trace.activation(c).to_dense(),
                &shape,
            )
            .unwrap();
            for (r, col, v) in partial.iter_nonzero() {
                expected[(r, col)] += v;
            }
        }
        assert!(acc.approx_eq(&expected, 1e-3), "{}", trace.name);
    }
}
