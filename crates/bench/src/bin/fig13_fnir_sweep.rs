//! Figure 13: effect of the FNIR window size `k` (4, 8, 16, 32) on ANT's
//! speedup and energy vs SCNN+ (ResNet18, SWAT-style 90%, 4x4 array).
//!
//! Paper reference: ANT outperforms SCNN+ for k >= 8; at k = 4 the FNIR
//! block has no slack to run ahead of the 4x4 array and becomes the
//! bottleneck.

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_bench::runner::{energy_ratio, simulate_network_parallel, speedup, ExperimentConfig};
use ant_core::anticipator::AntConfig;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::EnergyModel;
use ant_workloads::models::resnet18_cifar;

fn main() {
    let exp = Experiment::start(
        "fig13_fnir_sweep",
        "Figure 13: FNIR window sensitivity (ResNet18, SWAT 90%, 4x4)",
    );
    println!();
    let net = resnet18_cifar();
    let cfg = ExperimentConfig::paper_default();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let s = simulate_network_parallel(&scnn, &net, &cfg);

    let mut table = Table::new(&["sparsity", "k", "speedup", "energy ratio"]);
    for k in [4usize, 8, 16, 32] {
        let ant = AntAccelerator::new(AntConfig {
            k,
            ..AntConfig::paper_default()
        });
        let a = simulate_network_parallel(&ant, &net, &cfg);
        table.push_row(vec![
            "90%".to_string(),
            k.to_string(),
            ratio(speedup(&s, &a)),
            ratio(energy_ratio(&s, &a, &energy)),
        ]);
    }
    // A denser sweep: at 50% sparsity the per-group kernel spans are long,
    // so the window size (and the feedback's ability to run ahead) matters
    // far more — this is where the paper's k=4 bottleneck shows.
    let dense_cfg = ExperimentConfig {
        sparsity: ant_workloads::synth::LayerSparsity::uniform(0.5),
        ..ExperimentConfig::paper_default()
    };
    let s50 = simulate_network_parallel(&scnn, &net, &dense_cfg);
    for k in [4usize, 8, 16, 32] {
        let ant = AntAccelerator::new(AntConfig {
            k,
            ..AntConfig::paper_default()
        });
        let a = simulate_network_parallel(&ant, &net, &dense_cfg);
        table.push_row(vec![
            "50%".to_string(),
            k.to_string(),
            ratio(speedup(&s50, &a)),
            ratio(energy_ratio(&s50, &a, &energy)),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper: k = 4 bottlenecks FNIR; k >= 8 outperforms SCNN+.");
    exp.finish(&table);
}
