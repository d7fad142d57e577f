//! Section 7.8: ANT on transformer and RNN matrix multiplications at 0%,
//! 50%, and 90% sparsity.
//!
//! Paper reference: ANT anticipates and eliminates over 99% of the matmul
//! RCPs at all three sparsity levels.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_bench::runner::simulate_matmul_layers;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_workloads::models::{rnn_matmuls, transformer_matmuls};

fn main() {
    let ant = AntAccelerator::paper_default();
    let scnn = ScnnPlus::paper_default();
    let exp = Experiment::start(
        "sec78_transformer_rnn",
        "Section 7.8: matmul RCP elimination (transformer + RNN)",
    );
    println!();
    let mut table = Table::new(&[
        "workload",
        "sparsity",
        "RCPs avoided",
        "ANT vs SCNN+ cycles",
    ]);
    for (name, specs) in [
        ("transformer", transformer_matmuls()),
        ("RNN", rnn_matmuls()),
    ] {
        for sparsity in [0.0, 0.5, 0.9] {
            let a = simulate_matmul_layers(&ant, &specs, sparsity, 0x5ec78);
            let s = simulate_matmul_layers(&scnn, &specs, sparsity, 0x5ec78);
            table.push_row(vec![
                name.to_string(),
                format!("{:.0}%", sparsity * 100.0),
                percent(a.rcps_avoided_fraction()),
                ratio(s.total_cycles() as f64 / a.total_cycles() as f64),
            ]);
        }
    }
    print!("{}", table.render());
    println!("\npaper: over 99% of RCPs eliminated at 0%, 50%, and 90% sparsity.");
    exp.finish(&table);
}
