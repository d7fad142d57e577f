//! Figure 9: ANT speedup and energy consumption relative to SCNN+ for
//! DenseNet-121, ResNet18, VGG16, WRN-16-8 (CIFAR, SWAT-style 90%) and
//! ResNet-50 (ImageNet, synthetic 90%).
//!
//! Paper reference: geometric mean 3.71x speedup and 4.40x lower energy.

use ant_bench::checkpoint::CheckpointFile;
use ant_bench::obs::Experiment;
use ant_bench::report::{geomean, percent, ratio, Table};
use ant_bench::runner::{
    energy_ratio, speedup, try_simulate_network_parallel,
    try_simulate_network_parallel_checkpointed, ExperimentConfig, NetworkResult, RunOptions,
};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::{AntError, ConvSim, EnergyModel};
use ant_workloads::models::figure9_networks;
use ant_workloads::NetworkModel;

/// Command-line options: `--checkpoint PATH` persists completed layers to a
/// JSONL sidecar; `--resume` additionally loads it first and skips the
/// layers it already holds.
#[derive(Debug, Default)]
struct CliOptions {
    checkpoint: Option<String>,
    resume: bool,
}

fn parse_args() -> Result<CliOptions, AntError> {
    let mut opts = CliOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint" => {
                opts.checkpoint = Some(args.next().ok_or_else(|| {
                    AntError::invalid_config("--checkpoint", "expected a file path")
                })?);
            }
            "--resume" => opts.resume = true,
            other => {
                return Err(AntError::invalid_config(
                    "argument",
                    format!("unknown argument {other:?} (expected --checkpoint PATH, --resume)"),
                ));
            }
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err(AntError::invalid_config(
            "--resume",
            "requires --checkpoint PATH",
        ));
    }
    Ok(opts)
}

fn run<S: ConvSim + Sync>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    checkpoint: Option<&mut CheckpointFile>,
) -> NetworkResult {
    let opts = RunOptions::default();
    let result = match checkpoint {
        Some(file) => {
            let mut scope = file.scope(net.name, pe.name());
            try_simulate_network_parallel_checkpointed(pe, net, cfg, &opts, &mut scope)
        }
        None => try_simulate_network_parallel(pe, net, cfg, &opts),
    };
    let result = result.unwrap_or_else(|e| {
        eprintln!("fig09: {}/{}: {e}", net.name, pe.name());
        std::process::exit(2);
    });
    if result.partial {
        eprintln!(
            "fig09: warning: {}/{} completed with {} quarantined pair failure(s); \
             stats are partial",
            net.name,
            pe.name(),
            result.failures.failures.len()
        );
    }
    result
}

fn main() {
    let cli = parse_args().unwrap_or_else(|e| {
        eprintln!("fig09: {e}");
        std::process::exit(2);
    });
    let cfg = ExperimentConfig::paper_default();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();

    let mut exp = Experiment::start(
        "fig09_speedup_energy",
        "Figure 9: ANT vs SCNN+ at 90% sparse training",
    );
    exp.config("sparsity", 0.9).config_experiment(&cfg);
    let mut checkpoint = cli.checkpoint.as_ref().map(|path| {
        let opened = if cli.resume {
            CheckpointFile::resume(path, &cfg)
        } else {
            CheckpointFile::create(path, &cfg)
        };
        opened.unwrap_or_else(|e| {
            eprintln!("fig09: {e}");
            std::process::exit(2);
        })
    });
    if let Some(file) = &checkpoint {
        if cli.resume {
            let path = cli.checkpoint.as_deref().unwrap_or_default();
            println!(
                "(resuming from {path}: {} layer(s) checkpointed)",
                file.resumable_layers()
            );
            // Surfaced as `resumed_from` in every `ant-status/1` publish
            // and in the manifest's host section.
            ant_obs::progress::set_resumed_from(path);
        }
    }
    println!(
        "(config: n={}, k={}, {} PEs, channel sample {})\n",
        4, 16, cfg.num_pes, cfg.max_channels
    );

    let mut table = Table::new(&[
        "network",
        "SCNN+ cycles",
        "ANT cycles",
        "SCNN+ energy (uJ)",
        "ANT energy (uJ)",
        "speedup",
        "energy ratio",
        "RCPs avoided",
    ]);
    let networks = figure9_networks();
    let mut progress = exp.progress(networks.len());
    let mut speedups = Vec::new();
    let mut energies = Vec::new();
    let mut sim_total = ant_sim::SimStats::default();
    let mut sim_wall_us = 0u64;
    // Per-worker scheduler telemetry across the whole sweep (populated
    // only under ANT_TELEMETRY; see docs/OBSERVABILITY.md).
    let mut worker_table = ant_bench::telemetry::WorkerTable::new();
    // Per-(network, machine) simulation-cache activity across the sweep
    // (populated only under ANT_CACHE; `obsctl cache` reads it back from
    // the manifest host section).
    let mut cache_table = ant_bench::telemetry::CacheTable::new();
    // Per-(layer, phase, machine) RCP attribution for the whole sweep —
    // the `ant-redundancy/1` sidecar `obsctl redundancy` analyzes.
    let mut ledger = ant_bench::redundancy::RedundancyLedger::new();
    for net in networks {
        let s = run(&scnn, &net, &cfg, checkpoint.as_mut());
        let a = run(&ant, &net, &cfg, checkpoint.as_mut());
        ledger.add_network(&s, &net);
        ledger.add_network(&a, &net);
        sim_total.accumulate(&s.total);
        sim_total.accumulate(&a.total);
        sim_wall_us += s.host_wall_us + a.host_wall_us;
        worker_table.add(&s.workers);
        worker_table.add(&a.workers);
        cache_table.add(&s);
        cache_table.add(&a);
        let sp = speedup(&s, &a);
        let er = energy_ratio(&s, &a, &energy);
        speedups.push(sp);
        energies.push(er);
        table.push_row(vec![
            net.name.to_string(),
            s.wall_cycles.to_string(),
            a.wall_cycles.to_string(),
            format!("{:.3}", s.total.energy_pj(&energy) / 1e6),
            format!("{:.3}", a.total.energy_pj(&energy) / 1e6),
            ratio(sp),
            ratio(er),
            percent(a.total.rcps_avoided_fraction()),
        ]);
        progress.step(net.name);
    }
    progress.finish();
    print!("{}", table.render());
    let geo_speedup = geomean(&speedups);
    let geo_energy = geomean(&energies);
    println!(
        "\ngeomean speedup: {}   geomean energy reduction: {}",
        ratio(geo_speedup),
        ratio(geo_energy)
    );
    println!("paper:           3.71x                              4.40x");
    exp.stat("geomean_speedup", geo_speedup)
        .stat("geomean_energy_reduction", geo_energy)
        .stat("networks", speedups.len() as u64);
    // Host performance of the sweep itself: wall time plus simulated work
    // per wall second, for the bench-history ledger and regression reports.
    exp.host_stat("sim_wall_us", sim_wall_us)
        .host_throughput(&sim_total, sim_wall_us as f64 / 1e6);

    // Per-phase detail for one network: where the win comes from.
    let net = ant_workloads::models::resnet18_cifar();
    let s = run(&scnn, &net, &cfg, checkpoint.as_mut());
    let a = run(&ant, &net, &cfg, checkpoint.as_mut());
    worker_table.add(&s.workers);
    worker_table.add(&a.workers);
    cache_table.add(&s);
    cache_table.add(&a);
    for (key, value) in worker_table.host_stats() {
        exp.manifest().host_stat(key, value);
    }
    for (key, value) in cache_table.host_stats() {
        exp.manifest().host_stat(key, value);
    }
    println!("\nper-phase multiplications, {} (SCNN+ vs ANT):", net.name);
    for ((phase, ss), (_, aa)) in s.per_phase.iter().zip(a.per_phase.iter()) {
        println!(
            "  {:>6}: {:>12} vs {:>12}  ({} saved)",
            phase.to_string(),
            ss.mults,
            aa.mults,
            percent(1.0 - aa.mults as f64 / ss.mults.max(1) as f64)
        );
    }
    // Redundancy observatory outputs: the per-(layer, phase, machine)
    // sidecar, the manifest's aggregate RCP counters (CI cross-checks them
    // against `obsctl redundancy --json`), and the live-exporter gauges.
    ledger.record_metrics();
    ledger.record_manifest_stats(exp.manifest());
    match ledger.write(exp.name()) {
        Ok(path) => {
            exp.manifest().output(path.display().to_string());
            println!("redundancy: {}", path.display());
        }
        Err(err) => eprintln!("redundancy sidecar write failed: {err}"),
    }
    exp.finish(&table);
}
