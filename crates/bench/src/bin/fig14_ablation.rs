//! Figure 14: ablation of the anticipation conditions — only the `r`
//! condition (Eq. 9), only the `s` condition (Eq. 10), or both
//! (ResNet18, SWAT-style 90%).
//!
//! Paper reference: each condition alone already yields speedup and energy
//! savings over SCNN+; both together are ~1.06x faster than r-only. The
//! eliminated sets overlap, so the combined elimination is not their sum.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_bench::runner::{energy_ratio, simulate_network_parallel, speedup, ExperimentConfig};
use ant_core::anticipator::AntConfig;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::EnergyModel;
use ant_workloads::models::resnet18_cifar;

fn main() {
    let exp = Experiment::start(
        "fig14_ablation",
        "Figure 14: condition ablation (ResNet18, SWAT 90%)",
    );
    println!();
    let net = resnet18_cifar();
    let cfg = ExperimentConfig::paper_default();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let s = simulate_network_parallel(&scnn, &net, &cfg);

    let variants: [(&str, AntConfig); 3] = [
        (
            "r only",
            AntConfig {
                use_s: false,
                ..AntConfig::paper_default()
            },
        ),
        (
            "s only",
            AntConfig {
                use_r: false,
                ..AntConfig::paper_default()
            },
        ),
        ("both", AntConfig::paper_default()),
    ];
    let mut table = Table::new(&["conditions", "speedup", "energy ratio", "RCPs avoided"]);
    let mut r_only_speedup = None;
    let mut both_speedup = None;
    for (label, config) in variants {
        let ant = AntAccelerator::new(config);
        let a = simulate_network_parallel(&ant, &net, &cfg);
        let sp = speedup(&s, &a);
        if label == "r only" {
            r_only_speedup = Some(sp);
        }
        if label == "both" {
            both_speedup = Some(sp);
        }
        table.push_row(vec![
            label.to_string(),
            ratio(sp),
            ratio(energy_ratio(&s, &a, &energy)),
            percent(a.total.rcps_avoided_fraction()),
        ]);
    }
    print!("{}", table.render());
    if let (Some(r), Some(b)) = (r_only_speedup, both_speedup) {
        println!("\nboth / r-only: {} (paper: 1.06x)", ratio(b / r));
    }
    exp.finish(&table);
}
