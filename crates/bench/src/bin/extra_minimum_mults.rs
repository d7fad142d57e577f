//! Extra experiment: how close does each machine get to the *minimum*
//! multiplication count?
//!
//! The sparse direct convolution (`ant-conv::direct`) performs exactly the
//! useful products — the floor no machine can beat. This binary measures
//! each machine's executed multiplications as a multiple of that floor
//! across the three training phases, separating "RCP waste" (SCNN+) from
//! "residual conservatism" (ANT's vector-granularity test) from "zero
//! operands" (dense machines).

use ant_bench::obs::Experiment;
use ant_bench::report::{ratio, Table};
use ant_conv::direct::sparse_conv_direct;
use ant_conv::efficiency::TrainingPhase;
use ant_sim::ant::AntAccelerator;
use ant_sim::inner::DenseInnerProduct;
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
use ant_workloads::models::ConvLayerSpec;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut exp = Experiment::start(
        "extra_minimum_mults",
        "Extra: executed multiplications vs the useful-products floor",
    );
    exp.config("sparsity", 0.9).config("seed", 0x313u64);
    println!();
    let spec = ConvLayerSpec::new("3x3/32x32", 4, 4, 3, 32, 1, 1, 1);
    let mut rng = StdRng::seed_from_u64(0x313);
    let synth = synthesize_layer(&spec, &LayerSparsity::uniform(0.9), 4, &mut rng);
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    let dense = DenseInnerProduct::paper_default();

    let mut table = Table::new(&["phase", "floor (useful)", "ANT", "SCNN+", "dense IP"]);
    for phase in TrainingPhase::ALL {
        let mut floor = 0u64;
        let mut ant_m = 0u64;
        let mut scnn_m = 0u64;
        let mut dense_m = 0u64;
        for (kernel, image, shape) in synth.trace.pairs(phase) {
            floor += sparse_conv_direct(kernel, image, shape)
                .expect("valid pair")
                .multiplications;
            ant_m += ant.simulate_conv_pair(kernel, image, shape).mults;
            scnn_m += scnn.simulate_conv_pair(kernel, image, shape).mults;
            dense_m += dense.simulate_conv_pair(kernel, image, shape).mults;
        }
        let rel = |m: u64| {
            if floor == 0 {
                "-".to_string()
            } else {
                ratio(m as f64 / floor as f64)
            }
        };
        table.push_row(vec![
            phase.paper_name().to_string(),
            floor.to_string(),
            rel(ant_m),
            rel(scnn_m),
            rel(dense_m),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nSCNN+'s update-phase multiple is the RCP waste the paper targets;\n\
         ANT's residue above 1.00x is the conservatism of the vector-granularity\n\
         test (Algorithm 2 vs Algorithm 1); the dense machine pays for zeros."
    );
    exp.finish(&table);
}
