//! The repository benchmark: end-to-end host time of the Fig. 9
//! regeneration (cold and warm) and of the sweepd job service, with a
//! separate traced run that attributes it to layers.
//!
//! ```text
//! perfbench --workload <fig09-cold|fig09-warm|sweepd-overlap> --seed <n>
//!           --seconds <s> --trace <0|1> --tmp <dir> [--spans <file>]
//!           [--probe <op>]
//! ```
//!
//! `--tmp` is a scratch directory the run owns: sidecars, stores, spools
//! and status files go there. The last line of stdout is the result
//! object; see `README.md` for the metrics. `--probe` runs one fig09 op in
//! a fresh process and prints its peak RSS instead; a fig09 run starts
//! such children to measure `peak_rss_mb`.

mod fig09;
mod layers;
mod measure;
mod replay;
mod sweepd;
mod trace;

use std::path::PathBuf;

use measure::{Metrics, Phase};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every experiment seed, grid and job mix derives
    /// from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory owned by this run.
    pub tmp: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
    /// Run only this fig09 op, as a fresh process, and print its peak RSS.
    pub probe: Option<usize>,
}

/// What a workload measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Duration of every set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// The timed phase (both phases of a traced run).
    pub phase: Phase,
    /// Speedup and energy-ratio error against the paper, %.
    pub model_err: (f64, f64),
    /// Every failed output check.
    pub checks: Vec<String>,
    /// Per-layer metrics of a traced run.
    pub layers: Option<Metrics>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tmp, mut spans, mut probe) =
        (None, None, None, false, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--probe" => probe = Some(value.parse().map_err(|e| format!("--probe {value}: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(
        workload.as_str(),
        "fig09-cold" | "fig09-warm" | "sweepd-overlap"
    ) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tmp: tmp.ok_or("--tmp is required")?,
        spans,
        probe,
    })
}

/// Clears every `ANT_*` switch before any library reads one (each changes
/// what is measured: `ANT_CACHE` makes the cold workload warm, `ANT_CHAOS`
/// and detail tracing turn the cache off, ...), and points every relative
/// artifact path (`CARGO_TARGET_DIR/experiments`) at the run's scratch
/// directory. Process-global state is then set explicitly:
/// `simcache::set_override` and `RunOptions` fields.
fn isolate(tmp: &std::path::Path) {
    let cleared: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ANT_"))
        .collect();
    for key in &cleared {
        std::env::remove_var(key);
    }
    if !cleared.is_empty() {
        eprintln!("perfbench: cleared {}", cleared.join(", "));
    }
    std::env::set_var("CARGO_TARGET_DIR", tmp);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("perfbench: --tmp {}: {e}", args.tmp.display());
        std::process::exit(2);
    }
    isolate(&args.tmp);
    if let Some(op) = args.probe {
        match fig09::probe(&args, op) {
            Ok(peak_mb) => println!("{peak_mb}"),
            Err(e) => {
                eprintln!("perfbench: probe op {op}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} CPUs",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "fig09-cold" => fig09::run(&args, false),
        "fig09-warm" => fig09::run(&args, true),
        _ => sweepd::run(&args),
    };
    for check in &outcome.checks {
        eprintln!("perfbench: check failed: {check}");
    }
    let phase = &outcome.phase;
    let metrics = match outcome.layers {
        Some(layers) => layers,
        None => measure::end_to_end(phase, &outcome.setup_s, outcome.model_err),
    };
    println!("{}: {}", args.workload, measure::summary(phase));
    for (name, (value, unit)) in &metrics.0 {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let correct = outcome.checks.is_empty() && phase.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        phase.attempted.max(1),
        phase.failed,
        metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use ant_obs::json::Json;

    /// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = ant_obs::parse_json(&text).expect("BENCHMARK.json is JSON");
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let per_layer: Vec<(String, String)> = crate::layers::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);

        let phase = crate::measure::Phase {
            op_ms: (1..=100).map(f64::from).collect(),
            attempted: 100,
            failed: 0,
            wall_s: 10.0,
            cpu_s: 5.0,
            peak_rss_mb: 20.0,
        };
        let mut reported: Vec<(String, String)> =
            crate::measure::end_to_end(&phase, &[1.0], (1.0, 1.0))
                .0
                .into_iter()
                .map(|(n, (_, u))| (n, u.to_string()))
                .collect();
        let mut declared = declared("end_to_end");
        reported.sort();
        declared.sort();
        assert_eq!(declared, reported);
    }
}
