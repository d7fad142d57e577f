//! Figure 1: partial-product breakdown on an SCNN-like accelerator for the
//! three training phases of ResNet18/ImageNet convolutions under 90% sparse
//! training.
//!
//! Paper takeaway: RCPs are a large share of the *non-zero* products, and
//! the `G_A * A` phase pushes them to ~90-96% of useful computation.

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, Table};
use ant_conv::efficiency::TrainingPhase;
use ant_conv::rcp::{breakdown, ProductBreakdown};
use ant_workloads::models::resnet18_imagenet;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let net = resnet18_imagenet();
    let sparsity = LayerSparsity::uniform(0.9);
    let max_channels = 2; // ImageNet-scale planes are large; scale linearly.

    let mut exp = Experiment::start(
        "fig01_breakdown",
        &format!(
            "Figure 1: partial-product breakdown, {} @ 90% sparse training",
            net.name
        ),
    );
    exp.config("network", net.name)
        .config("sparsity", 0.9)
        .config("max_channels", max_channels as u64)
        .config("seed", 0xF16u64);
    println!();
    let mut table = Table::new(&[
        "phase",
        "useful/total",
        "RCP/total",
        "zero-op/total",
        "RCP share of non-zero",
    ]);
    let mut progress = exp.progress(TrainingPhase::ALL.len());
    for phase in TrainingPhase::ALL {
        let mut phase_span = ant_obs::span("phase");
        phase_span.record("phase", phase.paper_name());
        let mut agg = ProductBreakdown::default();
        for (li, layer) in net.layers.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xF16 ^ li as u64);
            let synth = synthesize_layer(layer, &sparsity, max_channels, &mut rng);
            let scale = (synth.channel_scale * layer.count as f64).round() as u64;
            for (kernel, image, shape) in synth.trace.pairs(phase) {
                let b = breakdown(kernel, image, shape).expect("pair shapes are consistent");
                // Scale each sampled pair back to the full layer.
                let scaled = ProductBreakdown {
                    total: b.total * scale,
                    useful: b.useful * scale,
                    nonzero_rcp: b.nonzero_rcp * scale,
                    kernel_zero_only: b.kernel_zero_only * scale,
                    image_zero_only: b.image_zero_only * scale,
                    both_zero: b.both_zero * scale,
                };
                agg.accumulate(&scaled);
            }
        }
        let total = agg.total as f64;
        let zero_ops = (agg.kernel_zero_only + agg.image_zero_only + agg.both_zero) as f64;
        if phase_span.is_recording() {
            phase_span
                .record("total_products", agg.total)
                .record("useful", agg.useful)
                .record("nonzero_rcp", agg.nonzero_rcp);
        }
        table.push_row(vec![
            phase.to_string(),
            percent(agg.useful as f64 / total),
            percent(agg.nonzero_rcp as f64 / total),
            percent(zero_ops / total),
            percent(agg.rcp_fraction_of_nonzero()),
        ]);
        drop(phase_span);
        progress.step(phase.paper_name());
    }
    progress.finish();
    print!("{}", table.render());
    println!(
        "\npaper: RCPs reach up to 96% of useful computation in G_A*A; \
         forward/backward phases are mostly useful."
    );
    exp.finish(&table);
}
