//! Section 7.6: pipeline start-up overhead on small layers.
//!
//! Paper reference: "In the smaller layers, we noticed that ANT introduces
//! a slowdown of up to 30%. Our hypothesis is that because our dataflow is
//! distributing very little work to each PE (10s-100s of multiplications)
//! due to the sparsity of the matrices, the pipeline start up costs become
//! important. This overhead becomes less important as matrices grow."
//!
//! This binary sweeps the layer's spatial size at fixed 90% sparsity and
//! reports the ANT-vs-SCNN+ update-phase speedup together with the share of
//! ANT's cycles spent in start-up, showing the crossover the paper
//! describes.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_conv::efficiency::TrainingPhase;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, SimStats};
use ant_workloads::models::ConvLayerSpec;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let exp = Experiment::start(
        "sec76_overhead",
        "Section 7.6: start-up overhead vs layer size (update phase, 90%)",
    );
    println!();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    let mut table = Table::new(&[
        "spatial size",
        "mults/pair (ANT)",
        "speedup",
        "startup share of ANT cycles",
    ]);
    for size in [4usize, 8, 16, 32, 64] {
        let spec = ConvLayerSpec::new(format!("{size}x{size}"), 4, 4, 3, size, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(0x5ec76);
        let synth = synthesize_layer(&spec, &LayerSparsity::uniform(0.9), 4, &mut rng);
        let mut s_total = SimStats::default();
        let mut a_total = SimStats::default();
        for (kernel, image, shape) in synth.trace.pairs(TrainingPhase::Update) {
            s_total.accumulate(&scnn.simulate_conv_pair(kernel, image, shape));
            a_total.accumulate(&ant.simulate_conv_pair(kernel, image, shape));
        }
        table.push_row(vec![
            format!("{size}x{size}"),
            format!(
                "{:.0}",
                a_total.mults as f64 / synth.trace.pair_count() as f64
            ),
            ratio(s_total.total_cycles() as f64 / a_total.total_cycles() as f64),
            percent(a_total.startup_cycles as f64 / a_total.total_cycles().max(1) as f64),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\npaper: up to 30% slowdown on the smallest layers where each pair\n\
         carries only 10s-100s of multiplications; the start-up share shrinks\n\
         and the speedup grows as the matrices grow."
    );
    exp.finish(&table);
}
