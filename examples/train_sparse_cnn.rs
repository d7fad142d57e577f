//! Train a CNN with sparse training and watch the accelerator win.
//!
//! Trains the `ant-nn` CNN on a synthetic pattern dataset under ReSprop-style
//! sparse training, captures genuine backprop traces every few steps, and
//! compares SCNN+ vs ANT cycle counts on those traces — the end-to-end
//! pipeline the paper's evaluation is built on.
//!
//! Run with: `cargo run -p ant-bench --release --example train_sparse_cnn`

use ant_bench::runner::simulate_trace;
use ant_nn::data::SyntheticDataset;
use ant_nn::model::{SmallCnn, SparseMode};
use ant_nn::sparse_train::ReSpropSparsifier;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, SimStats};

fn simulate(machine: &impl ConvSim, traces: &[ant_nn::ConvTrace]) -> SimStats {
    let mut total = SimStats::default();
    for trace in traces {
        total.accumulate(&simulate_trace(machine, trace));
    }
    total
}

fn main() {
    let mut dataset = SyntheticDataset::new(1, 16, 4, 0.1, 1234);
    let mut net = SmallCnn::new(1, 16, 4, 99);
    let mut mode = SparseMode::ReSprop(ReSpropSparsifier::new(0.9));
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    println!("step  loss   acc    G_A sparsity  SCNN+ cyc  ANT cyc  speedup");
    for step in 0..30 {
        let batch = dataset.sample_batch(8);
        let capture = step % 5 == 4;
        let mut traces = Vec::new();
        let metrics = net.train_step(
            &batch,
            0.05,
            &mut mode,
            if capture { Some(&mut traces) } else { None },
        );
        if capture {
            let s = simulate(&scnn, &traces);
            let a = simulate(&ant, &traces);
            let grad_sparsity: f64 =
                traces.iter().map(|t| t.gradient_sparsity()).sum::<f64>() / traces.len() as f64;
            println!(
                "{step:>4}  {:.3}  {:.2}   {:>10.1}%  {:>9}  {:>7}  {:.2}x",
                metrics.loss,
                metrics.accuracy,
                grad_sparsity * 100.0,
                s.total_cycles(),
                a.total_cycles(),
                s.total_cycles() as f64 / a.total_cycles() as f64
            );
        }
    }
    println!("\nReSprop-style delta gradients stay ~90% sparse while the loss falls;");
    println!("ANT turns that sparsity into cycle savings the outer product alone cannot.");
}
