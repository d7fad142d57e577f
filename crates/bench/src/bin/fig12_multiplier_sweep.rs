//! Figure 12: effect of the multiplier array size (4x4, 6x6, 8x8) on ANT's
//! speedup and energy vs SCNN+ with the same array size
//! (ResNet18, SWAT-style 90% sparsity).
//!
//! Paper reference: ANT outperforms SCNN+ at every array size.

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_bench::runner::{energy_ratio, simulate_network_parallel, speedup, ExperimentConfig};
use ant_core::anticipator::AntConfig;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::EnergyModel;
use ant_workloads::models::resnet18_cifar;

fn main() {
    let net = resnet18_cifar();
    let cfg = ExperimentConfig::paper_default();
    let energy = EnergyModel::paper_7nm();

    let exp = Experiment::start(
        "fig12_multiplier_sweep",
        "Figure 12: multiplier array sensitivity (ResNet18, SWAT 90%)",
    );
    println!();
    let mut table = Table::new(&["array", "speedup", "energy ratio"]);
    for n in [4usize, 6, 8] {
        let scnn = ScnnPlus::new(n);
        // Keep the FNIR window at 4x the array dimension (16 for n=4, the
        // paper's default ratio).
        let ant = AntAccelerator::new(AntConfig {
            n,
            k: 4 * n,
            ..AntConfig::paper_default()
        });
        let s = simulate_network_parallel(&scnn, &net, &cfg);
        let a = simulate_network_parallel(&ant, &net, &cfg);
        table.push_row(vec![
            format!("{n}x{n}"),
            ratio(speedup(&s, &a)),
            ratio(energy_ratio(&s, &a, &energy)),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: ANT > SCNN+ at 4x4, 6x6, and 8x8.");
    exp.finish(&table);
}
