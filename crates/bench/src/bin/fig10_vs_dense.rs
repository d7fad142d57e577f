//! Figure 10: ANT speedup and energy vs a *dense* (zero-sparsity) SCNN+
//! baseline across ReSprop-style sparsity levels on ResNet18/CIFAR.
//!
//! Paper reference: up to 28.1x speedup and 40x energy savings at 42%/85%
//! (activation-gradient / activation) sparsity. ReSprop leaves the weights
//! dense, so only `A` and `G_A` sparsities vary.

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_bench::runner::{energy_ratio, simulate_network_parallel, speedup, ExperimentConfig};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::EnergyModel;
use ant_workloads::models::resnet18_cifar;
use ant_workloads::synth::LayerSparsity;

fn main() {
    let exp = Experiment::start(
        "fig10_vs_dense",
        "Figure 10: ANT vs dense SCNN+ (ResNet18/CIFAR, ReSprop-style)",
    );
    println!();
    let net = resnet18_cifar();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    // Dense baseline: SCNN+ on fully dense traces.
    let dense_cfg = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.0),
        ..ExperimentConfig::paper_default()
    };
    let dense = simulate_network_parallel(&scnn, &net, &dense_cfg);

    let mut table = Table::new(&["G_A/A sparsity", "speedup vs dense", "energy vs dense"]);
    // The paper's x-axis labels measured gradient/activation sparsity pairs.
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
        let result = simulate_network_parallel(&ant, &net, &cfg);
        table.push_row(vec![
            format!("{:.0}%/{:.0}%", g * 100.0, a * 100.0),
            ratio(speedup(&dense, &result)),
            ratio(energy_ratio(&dense, &result, &energy)),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: up to 28.1x speedup / 40x energy at 42%/85%.");
    exp.finish(&table);
}
