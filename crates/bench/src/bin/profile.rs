//! Cycle-attribution profiler: where every simulated PE-cycle goes.
//!
//! Runs one workload through every simulator machine and prints a
//! bottleneck report — per-cause cycle breakdown (summing *exactly* to
//! `total_cycles`; the binary hard-asserts it), top stall causes per layer,
//! and per-PE utilization from an LPT schedule of the sampled pair jobs —
//! then writes a Chrome Trace Event / Perfetto JSON sidecar with per-PE
//! timelines in simulated time (open it at <https://ui.perfetto.dev>).
//!
//! ```text
//! cargo run --release -p ant-bench --bin profile -- [workload]
//! ```
//!
//! Workloads: `tiny` (synthetic smoke), `resnet18` (default), `densenet121`,
//! `vgg16`, `wrn-16-8`, `resnet50`. Env: `ANT_PROFILE_FILE` overrides the
//! sidecar path (default `target/experiments/profile_<workload>.perfetto.json`);
//! the sidecar is always written — `ANT_PROFILE` gates only library-side use.
//!
//! With `ANT_TELEMETRY=1` *and* `ANT_PROFILE=1` set, the sidecar
//! additionally carries one host-time process per machine with per-worker
//! tracks from the work-stealing scheduler — job spans (`pair`/`steal`)
//! and deque-depth counters in wall microseconds (see
//! `docs/OBSERVABILITY.md`, "Scheduler telemetry").

use ant_bench::obs::Experiment;
use ant_bench::report::{percent, ratio, Table};
use ant_bench::runner::{
    pair_jobs, simulate_network_parallel, ExperimentConfig, NetworkResult, PairJob,
};
use ant_obs::{timeline, Timeline, Value};
use ant_sim::accum::AccumulatorBanks;
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::schedule::{schedule_lpt, Schedule};
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, CycleBreakdown, CycleCause};
use ant_workloads::models;
use ant_workloads::models::NetworkModel;

/// Slice order within one job on a PE track: pipeline-ish (start-up, then
/// operand fetch, then scan/compute overlap, then write-back stalls).
const SLICE_ORDER: [CycleCause; 6] = [
    CycleCause::Startup,
    CycleCause::SramFetch,
    CycleCause::FnirScan,
    CycleCause::Compute,
    CycleCause::AccumConflict,
    CycleCause::Drain,
];

fn tiny_net() -> NetworkModel {
    NetworkModel {
        name: "tiny",
        layers: vec![
            ant_workloads::ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ant_workloads::ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

fn workload(name: &str) -> Option<NetworkModel> {
    match name {
        "tiny" => Some(tiny_net()),
        "resnet18" | "resnet18_cifar" => Some(models::resnet18_cifar()),
        "densenet121" => Some(models::densenet121_cifar()),
        "vgg16" => Some(models::vgg16_cifar()),
        "wrn-16-8" | "wrn16_8" => Some(models::wrn_16_8_cifar()),
        "resnet50" => Some(models::resnet50_imagenet()),
        _ => None,
    }
}

fn machines() -> Vec<(&'static str, Box<dyn ConvSim + Sync>)> {
    vec![
        ("SCNN+", Box::new(ScnnPlus::paper_default())),
        ("ANT", Box::new(AntAccelerator::paper_default())),
        (
            "ANT (banked accum)",
            Box::new(
                AntAccelerator::paper_default()
                    .with_accumulator_banks(AccumulatorBanks::scnn_provisioned(4)),
            ),
        ),
        ("DaDianNao", Box::new(DenseInnerProduct::paper_default())),
        ("TensorDash", Box::new(TensorDash::paper_default())),
        (
            "GoSPA-like",
            Box::new(IntersectionAccelerator::training_default()),
        ),
        ("DST-like", Box::new(DstAccelerator::paper_default())),
    ]
}

fn breakdown_row(machine: &str, phase: &str, total: u64, b: &CycleBreakdown) -> Vec<String> {
    let mut row = vec![machine.to_string(), phase.to_string(), total.to_string()];
    for cause in CycleCause::ALL {
        row.push(b.get(cause).to_string());
    }
    row
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints the top stall causes per layer (layers ranked by cycle count).
fn print_layer_hotspots(result: &NetworkResult) {
    let mut layers: Vec<_> = result.per_layer.iter().collect();
    layers.sort_by_key(|l| std::cmp::Reverse(l.stats.total_cycles()));
    let shown = layers.len().min(6);
    println!("  top layers by cycles (of {}):", layers.len());
    for layer in &layers[..shown] {
        let total = layer.stats.total_cycles().max(1);
        let causes: Vec<String> = layer
            .stats
            .cycles
            .ranked()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .take(2)
            .map(|(cause, c)| format!("{} {}", cause.name(), percent(c as f64 / total as f64)))
            .collect();
        println!(
            "    {:>10} cyc  {:<12} {}",
            layer.stats.total_cycles(),
            layer.name,
            causes.join(", ")
        );
    }
}

/// Builds the per-PE timeline tracks for one machine from its LPT schedule.
fn add_machine_tracks(
    timeline: &mut Timeline,
    pid: u64,
    label: &str,
    jobs: &[PairJob],
    schedule: &Schedule,
) {
    timeline.process_name(pid, label);
    let makespan = schedule.makespan();
    let num_pes = schedule.pe_load.len();
    let mut cursor = vec![0u64; num_pes];
    for pe in 0..num_pes {
        timeline.thread_name(pid, pe as u64, &format!("PE {pe}"));
    }
    for (job, &pe) in jobs.iter().zip(schedule.assignment.iter()) {
        for cause in SLICE_ORDER {
            let dur = job.stats.cycles.get(cause);
            if dur == 0 {
                continue;
            }
            timeline.slice_with_args(
                pid,
                pe as u64,
                cause.name(),
                "cycles",
                cursor[pe],
                dur,
                vec![
                    ("layer".to_string(), Value::Str(job.layer.clone())),
                    (
                        "phase".to_string(),
                        Value::Str(job.phase.paper_name().to_string()),
                    ),
                ],
            );
            cursor[pe] += dur;
        }
    }
    for (pe, &busy) in cursor.iter().enumerate() {
        // Tail idle: this PE waits for the busiest PE to finish.
        timeline.slice(
            pid,
            pe as u64,
            CycleCause::IdleImbalance.name(),
            "cycles",
            busy,
            makespan - busy,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload_name = args.first().map(String::as_str).unwrap_or("resnet18");
    let Some(net) = workload(workload_name) else {
        eprintln!(
            "unknown workload {workload_name:?}; available: tiny, resnet18, \
             densenet121, vgg16, wrn-16-8, resnet50"
        );
        std::process::exit(2);
    };
    let cfg = ExperimentConfig::paper_default();

    let mut exp = Experiment::start("profile", "Cycle-attribution profile");
    exp.config("network", net.name.to_string())
        .config("sparsity", 0.9)
        .config_experiment(&cfg);
    println!("workload: {} ({} layers)\n", net.name, net.layers.len());

    let machines = machines();
    let mut header = vec!["machine", "phase", "total_cycles"];
    header.extend(CycleCause::ALL.iter().map(|c| c.name()));
    let mut table = Table::new(&header);
    let mut timeline = Timeline::new();
    let mut progress = exp.progress(machines.len());

    for (pid, (label, machine)) in machines.iter().enumerate() {
        let result = simulate_network_parallel(machine.as_ref(), &net, &cfg);
        let total = result.total.total_cycles();
        // The acceptance invariant, enforced in release builds too: every
        // cycle the machine billed is attributed to exactly one cause.
        assert_eq!(
            result.total.cycles.total(),
            total,
            "{label}: attribution does not cover total_cycles"
        );

        println!("{label}: {total} PE-cycles");
        let ranked: Vec<String> = result
            .total
            .cycles
            .ranked()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(cause, c)| {
                format!(
                    "{} {} ({})",
                    cause.name(),
                    c,
                    percent(c as f64 / total.max(1) as f64)
                )
            })
            .collect();
        println!("  breakdown: {}", ranked.join(", "));
        print_layer_hotspots(&result);

        // Schedule the sampled pair jobs onto the PE array: utilization and
        // imbalance under LPT (the paper assumes a perfect-balance oracle).
        let jobs = pair_jobs(machine.as_ref(), &net, &cfg);
        let job_cycles: Vec<u64> = jobs.iter().map(|j| j.stats.total_cycles()).collect();
        let schedule = schedule_lpt(&job_cycles, cfg.num_pes);
        let util = schedule.utilization();
        let min_util = util.iter().copied().fold(f64::INFINITY, f64::min);
        let max_util = util.iter().copied().fold(0.0f64, f64::max);
        println!(
            "  schedule (sampled, {} jobs, {} PEs): utilization min {} mean {} max {}, \
             imbalance {}, idle {} cyc",
            jobs.len(),
            cfg.num_pes,
            percent(min_util),
            percent(mean(&util)),
            percent(max_util),
            ratio(schedule.imbalance()),
            schedule.total_idle_cycles(),
        );
        println!();

        for (phase, stats) in &result.per_phase {
            table.push_row(breakdown_row(
                label,
                phase.paper_name(),
                stats.total_cycles(),
                &stats.cycles,
            ));
        }
        table.push_row(breakdown_row(label, "total", total, &result.total.cycles));

        add_machine_tracks(&mut timeline, pid as u64, label, &jobs, &schedule);
        // Host-time worker tracks (populated only under ANT_TELEMETRY with
        // ANT_PROFILE): a separate process per machine because these are
        // wall microseconds, not simulated cycles.
        ant_bench::telemetry::add_worker_tracks(
            &mut timeline,
            1000 + pid as u64,
            &format!("{label} host workers"),
            &result.workers,
        );
        progress.step(label);
    }
    progress.finish();
    print!("{}", table.render());

    // Stem from the CLI name, not net.name — the latter contains '/'.
    let sidecar = timeline::output_path(&format!("profile_{workload_name}"));
    match timeline.write_to(&sidecar) {
        Ok(()) => {
            println!(
                "\nperfetto: {} (open at https://ui.perfetto.dev)",
                sidecar.display()
            );
            exp.manifest().output(sidecar.display().to_string());
        }
        Err(err) => eprintln!("perfetto write failed: {err}"),
    }
    exp.stat("machines", machines.len() as u64)
        .stat("timeline_events", timeline.len() as u64);
    exp.finish(&table);
}
