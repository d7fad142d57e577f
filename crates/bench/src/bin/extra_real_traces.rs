//! Extra experiment (beyond the paper's figures): end-to-end pipeline with
//! *real* training traces.
//!
//! Trains the `ant-nn` CNN on the synthetic dataset under dense, SWAT-style,
//! and ReSprop-style training, captures genuine per-layer W/A/G_A traces
//! from backprop, and runs them through SCNN+ and ANT. This validates that
//! the speedups measured on synthetic sparsity also appear on sparsity
//! produced by a real training algorithm (ReLU-structured activations,
//! delta-sparsified gradients).

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_bench::runner::simulate_trace;
use ant_nn::data::SyntheticDataset;
use ant_nn::model::{SmallCnn, SparseMode};
use ant_nn::sparse_train::{ReSpropSparsifier, SwatSparsifier};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, SimStats};

fn simulate_traces(machine: &impl ConvSim, traces: &[ant_nn::ConvTrace]) -> SimStats {
    let mut total = SimStats::default();
    for trace in traces {
        total.accumulate(&simulate_trace(machine, trace));
    }
    total
}

fn run_mode(label: &str, mut mode: SparseMode, table: &mut Table) {
    let mut ds = SyntheticDataset::new(1, 16, 4, 0.1, 42);
    let mut net = SmallCnn::new(1, 16, 4, 7);
    // Train for a few steps so sparsity patterns stabilize (the paper
    // captures traces after 100 iterations; our net converges much faster).
    let mut last_loss = 0.0;
    for _ in 0..20 {
        let batch = ds.sample_batch(8);
        last_loss = net.train_step(&batch, 0.05, &mut mode, None).loss;
    }
    // Capture traces on the next step.
    let batch = ds.sample_batch(8);
    let mut traces = Vec::new();
    let _ = net.train_step(&batch, 0.05, &mut mode, Some(&mut traces));

    let scnn = simulate_traces(&ScnnPlus::paper_default(), &traces);
    let ant = simulate_traces(&AntAccelerator::paper_default(), &traces);
    let grad_sparsity: f64 =
        traces.iter().map(|t| t.gradient_sparsity()).sum::<f64>() / traces.len() as f64;
    let act_sparsity: f64 =
        traces.iter().map(|t| t.activation_sparsity()).sum::<f64>() / traces.len() as f64;
    table.push_row(vec![
        label.to_string(),
        format!("{last_loss:.3}"),
        percent(act_sparsity),
        percent(grad_sparsity),
        ratio(scnn.total_cycles() as f64 / ant.total_cycles() as f64),
        percent(ant.rcps_avoided_fraction()),
    ]);
}

fn main() {
    let mut exp = Experiment::start("extra_real_traces", "Extra: real backprop traces through SCNN+ and ANT");
    exp.config("train_steps", 20u64).config("batch", 8u64);
    println!();
    let mut table = Table::new(&[
        "training mode",
        "loss@20",
        "A sparsity",
        "G_A sparsity",
        "ANT speedup",
        "RCPs avoided",
    ]);
    let mut progress = exp.progress(3);
    run_mode("dense", SparseMode::Dense, &mut table);
    progress.step("dense");
    run_mode(
        "SWAT-90%",
        SparseMode::Swat(SwatSparsifier::new(0.9)),
        &mut table,
    );
    progress.step("SWAT-90%");
    run_mode(
        "ReSprop-90%",
        SparseMode::ReSprop(ReSpropSparsifier::new(0.9)),
        &mut table,
    );
    progress.step("ReSprop-90%");
    progress.finish();
    print!("{}", table.render());
    exp.finish(&table);
}
