//! Section 7.7: performance relative to inner-product machines at 90%
//! sparsity (ResNet18, WRN, DenseNet, VGG with SWAT-style sparsity, plus
//! ResNet18 ReSprop-style).
//!
//! Paper reference: TensorDash improves ~2.25x over dense; ANT is ~8.9x
//! faster than TensorDash.

use ant_bench::obs::Experiment;
use ant_bench::report::{geomean, ratio, Table};
use ant_bench::runner::{simulate_network_parallel, speedup, ExperimentConfig};
use ant_sim::ant::AntAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::scnn::ScnnPlus;
use ant_workloads::models::figure9_networks;

fn main() {
    let cfg = ExperimentConfig::paper_default();
    let dense = DenseInnerProduct::paper_default();
    let tensordash = TensorDash::paper_default();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    let exp = Experiment::start(
        "sec77_inner_product",
        "Section 7.7: relative performance at 90% sparsity (vs dense IP)",
    );
    println!();
    let mut table = Table::new(&[
        "network",
        "TensorDash vs dense",
        "SCNN+ vs dense",
        "ANT vs dense",
        "ANT vs TensorDash",
    ]);
    let mut td_vs_dense = Vec::new();
    let mut ant_vs_td = Vec::new();
    for net in figure9_networks() {
        let d = simulate_network_parallel(&dense, &net, &cfg);
        let t = simulate_network_parallel(&tensordash, &net, &cfg);
        let s = simulate_network_parallel(&scnn, &net, &cfg);
        let a = simulate_network_parallel(&ant, &net, &cfg);
        td_vs_dense.push(speedup(&d, &t));
        ant_vs_td.push(speedup(&t, &a));
        table.push_row(vec![
            net.name.to_string(),
            ratio(speedup(&d, &t)),
            ratio(speedup(&d, &s)),
            ratio(speedup(&d, &a)),
            ratio(speedup(&t, &a)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\ngeomean: TensorDash vs dense {} (paper ~2.25x); ANT vs TensorDash {} (paper ~8.9x)",
        ratio(geomean(&td_vs_dense)),
        ratio(geomean(&ant_vs_td))
    );
    exp.finish(&table);
}
