//! Trace bundles: collect once, replay anywhere.
//!
//! Trains the CNN substrate for a few steps, captures real backprop traces,
//! saves them to a binary bundle, reloads the bundle, and verifies that
//! replaying it through the simulators gives bit-identical counters — the
//! collect-once/replay-many workflow the paper's methodology is built on.
//!
//! Run with: `cargo run -p ant-bench --release --example trace_replay`

use ant_bench::runner::simulate_trace;
use ant_nn::data::SyntheticDataset;
use ant_nn::model::{SmallCnn, SparseMode};
use ant_nn::sparse_train::ReSpropSparsifier;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, SimStats};
use ant_workloads::trace_io;

fn simulate(machine: &impl ConvSim, traces: &[ant_nn::ConvTrace]) -> SimStats {
    let mut total = SimStats::default();
    for trace in traces {
        total.accumulate(&simulate_trace(machine, trace));
    }
    total
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Collect: a short ReSprop-style training run.
    let mut ds = SyntheticDataset::new(1, 16, 4, 0.1, 777);
    let mut net = SmallCnn::new(1, 16, 4, 3);
    let mut mode = SparseMode::ReSprop(ReSpropSparsifier::new(0.9));
    for _ in 0..10 {
        let batch = ds.sample_batch(8);
        let _ = net.train_step(&batch, 0.05, &mut mode, None);
    }
    let batch = ds.sample_batch(8);
    let mut traces = Vec::new();
    let _ = net.train_step(&batch, 0.05, &mut mode, Some(&mut traces));
    println!("collected {} traces from step 10", traces.len());

    // 2. Save the bundle.
    let dir = std::env::temp_dir().join("ant-trace-replay");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("resprop_step10.anttrc");
    trace_io::save_traces(&path, &traces)?;
    let size = std::fs::metadata(&path)?.len();
    println!("saved bundle: {} ({size} bytes)", path.display());

    // 3. Reload and replay.
    let reloaded = trace_io::load_traces(&path)?;
    println!("reloaded {} traces", reloaded.len());

    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    let live = (simulate(&scnn, &traces), simulate(&ant, &traces));
    let replay = (simulate(&scnn, &reloaded), simulate(&ant, &reloaded));
    assert_eq!(live, replay, "replayed counters must be bit-identical");
    println!(
        "replay verified bit-identical: SCNN+ {} cycles, ANT {} cycles ({:.2}x)",
        replay.0.total_cycles(),
        replay.1.total_cycles(),
        replay.0.total_cycles() as f64 / replay.1.total_cycles() as f64
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
