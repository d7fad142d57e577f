//! Figure 11: ANT vs SCNN+ at the *same* sparsity across ReSprop-style
//! sparsity levels on ResNet18/CIFAR.
//!
//! Paper reference: ANT is between 1.9x and 2.6x faster and uses between
//! 2.6x and 4.4x less energy at every sparsity level.

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_bench::runner::{energy_ratio, simulate_network_parallel, speedup, ExperimentConfig};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::EnergyModel;
use ant_workloads::models::resnet18_cifar;
use ant_workloads::synth::LayerSparsity;

fn main() {
    let net = resnet18_cifar();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    let exp = Experiment::start(
        "fig11_same_sparsity",
        "Figure 11: ANT vs SCNN+ at the same sparsity (ResNet18/CIFAR)",
    );
    println!();
    let mut table = Table::new(&["G_A/A sparsity", "speedup", "energy ratio"]);
    let sweep = [
        (0.30, 0.60),
        (0.42, 0.85),
        (0.53, 0.88),
        (0.70, 0.90),
        (0.90, 0.93),
    ];
    for (g, a) in sweep {
        let cfg = ExperimentConfig {
            sparsity: LayerSparsity {
                weight: 0.0,
                activation: a,
                gradient: g,
            },
            ..ExperimentConfig::paper_default()
        };
        let s = simulate_network_parallel(&scnn, &net, &cfg);
        let r = simulate_network_parallel(&ant, &net, &cfg);
        table.push_row(vec![
            format!("{:.0}%/{:.0}%", g * 100.0, a * 100.0),
            ratio(speedup(&s, &r)),
            ratio(energy_ratio(&s, &r, &energy)),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: 1.9x-2.6x speedup, 2.6x-4.4x energy at every level.");
    exp.finish(&table);
}
