//! The `fig09-cold` and `fig09-warm` workloads: one op regenerates the
//! Fig. 9 grid (`figure9_networks()` x {SCNN+, ANT}) and writes its
//! sidecars, either simulated from scratch or replayed from a persistent
//! simulation cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ant_bench::redundancy::RedundancyLedger;
use ant_bench::report::{experiments_dir, percent, ratio, Table};
use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_sim::{EnergyModel, SimStats};
use ant_workloads::models::figure9_networks;
use ant_workloads::NetworkModel;

use crate::layers;
use crate::measure::{self, closed_loop, err_pct, Phase, MIN_OPS};
use crate::replay::{traced_call, Machine};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUP_REPS};

/// Sidecar base name, as the `fig09_speedup_energy` binary writes it.
const NAME: &str = "fig09_speedup_energy";

/// The paper's Fig. 9 geomeans: ANT over SCNN+ speedup and energy ratio.
pub const PAPER: (f64, f64) = (3.71, 4.40);

/// The paper configuration's seed.
pub const PAPER_SEED: u64 = 0xA17;

/// Seeds the warm store holds.
const WARM_SEEDS: usize = 3;

/// Fresh processes, one op each, whose median peak RSS is a run's
/// `peak_rss_mb`.
const RSS_PROBES: usize = 5;

/// Wall cycles and counters of one network on `[SCNN+, ANT]`.
pub type NetTotals = [(u64, SimStats); 2];

/// The Fig. 9 inputs, built once per set-up.
pub struct Fig09 {
    nets: Vec<NetworkModel>,
    machines: [Machine; 2],
    energy: EnergyModel,
}

/// The experiment seed of cold op `i` for workload seed `seed`: op 0 runs
/// at the workload seed itself, and distinct workload seeds below 2^32
/// never share an op seed.
pub fn cold_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64) << 32)
}

/// Run options of the timed ops.
pub fn timed_opts() -> RunOptions {
    RunOptions {
        threads: Some(2),
        telemetry: Some(false),
        progress: Some(false),
        ..RunOptions::default()
    }
}

/// Run options of the inline reference and of traced ops.
pub fn inline_opts(telemetry: bool) -> RunOptions {
    RunOptions {
        threads: Some(1),
        telemetry: Some(telemetry),
        progress: Some(false),
        ..RunOptions::default()
    }
}

impl Fig09 {
    /// Builds the networks and machines.
    pub fn new() -> Fig09 {
        Fig09 {
            nets: figure9_networks(),
            machines: [
                Machine::from_registry("scnn+"),
                Machine::from_registry("ant"),
            ],
            energy: EnergyModel::paper_7nm(),
        }
    }

    fn config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            ..ExperimentConfig::paper_default()
        }
    }

    /// One op: the grid at `seed`, then the table CSV/JSONL and the
    /// redundancy ledger. With a tracer, every runner call is decomposed
    /// and the sidecar writes are timed. `cached` requires every layer to
    /// come from the simulation cache.
    pub fn op(
        &self,
        seed: u64,
        opts: &RunOptions,
        mut tracer: Option<&mut Tracer>,
        cached: bool,
    ) -> Result<Vec<NetTotals>, String> {
        let cfg = Self::config(seed);
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
        let mut ledger = RedundancyLedger::new();
        let mut totals = Vec::with_capacity(self.nets.len());
        for net in &self.nets {
            let mut results = Vec::with_capacity(2);
            for m in &self.machines {
                let result = match tracer.as_deref_mut() {
                    Some(t) => {
                        let traced = traced_call(t, m, net, &cfg, opts, None)
                            .map_err(|e| format!("{}/{}: {e}", net.name, m.key))?;
                        if !traced.replay_matches {
                            return Err(format!(
                                "{}/{}: replay differs from runner",
                                net.name, m.key
                            ));
                        }
                        layers::record_model(t, m.key, &traced.result);
                        traced.result
                    }
                    None => try_simulate_network_parallel(m.pe.as_ref(), net, &cfg, opts)
                        .map_err(|e| format!("{}/{}: {e}", net.name, m.key))?,
                };
                if result.partial {
                    return Err(format!("{}/{}: partial result", net.name, m.key));
                }
                if cached && result.cache_hits != net.layers.len() as u64 {
                    return Err(format!(
                        "{}/{}: {} of {} layers from the cache",
                        net.name,
                        m.key,
                        result.cache_hits,
                        net.layers.len()
                    ));
                }
                ledger.add_network(&result, net);
                results.push(result);
            }
            let (s, a) = (&results[0], &results[1]);
            table.push_row(vec![
                net.name.to_string(),
                s.wall_cycles.to_string(),
                a.wall_cycles.to_string(),
                format!("{:.3}", s.total.energy_pj(&self.energy) / 1e6),
                format!("{:.3}", a.total.energy_pj(&self.energy) / 1e6),
                ratio(s.wall_cycles as f64 / a.wall_cycles as f64),
                ratio(s.total.energy_pj(&self.energy) / a.total.energy_pj(&self.energy)),
                percent(a.total.rcps_avoided_fraction()),
            ]);
            totals.push([(s.wall_cycles, s.total), (a.wall_cycles, a.total)]);
        }
        // A user's fig09 run replaces sidecars written long before. Ops
        // here come milliseconds apart, and truncating the last op's files
        // made ext4 write each copy back at once and the next truncate
        // wait for that IO; the stall split op latency into two modes whose
        // mix moved the warm median by a third between runs. Unlinking
        // first lets every op write new files that no IO has touched.
        let dir = experiments_dir();
        for ext in ["csv", "jsonl", "redundancy.jsonl"] {
            let _ = std::fs::remove_file(dir.join(format!("{NAME}.{ext}")));
        }
        let writes: [&dyn Fn() -> std::io::Result<PathBuf>; 3] = [
            &|| table.write_csv(NAME),
            &|| table.write_jsonl(NAME),
            &|| ledger.write(NAME),
        ];
        for write in writes {
            let path = match tracer.as_deref_mut() {
                Some(t) => {
                    let allocs = ant_obs::alloc::snapshot();
                    let path = t.time("sidecar", write);
                    layers::record_alloc(t, &allocs);
                    if let Ok(p) = &path {
                        t.add("sidecar.writes", 1.0);
                        t.add("sidecar.bytes", file_len(p));
                    }
                    path
                }
                None => write(),
            };
            path.map_err(|e| format!("sidecar write: {e}"))?;
        }
        Ok(totals)
    }

    /// The inline reference for `seed`: threads 1, cache off, no sidecars.
    pub fn reference(&self, seed: u64) -> Result<Vec<NetTotals>, String> {
        let cfg = Self::config(seed);
        let opts = inline_opts(false);
        let mut totals = Vec::with_capacity(self.nets.len());
        for net in &self.nets {
            let mut pair = [(0, SimStats::default()); 2];
            for (slot, m) in pair.iter_mut().zip(&self.machines) {
                let r = try_simulate_network_parallel(m.pe.as_ref(), net, &cfg, &opts)
                    .map_err(|e| format!("{}/{}: {e}", net.name, m.key))?;
                *slot = (r.wall_cycles, r.total);
            }
            totals.push(pair);
        }
        Ok(totals)
    }

    /// References for many seeds, on two threads. The simulation cache
    /// must be off.
    pub fn references(&self, seeds: &[u64]) -> Vec<Result<Vec<NetTotals>, String>> {
        let mut out: Vec<Option<Result<Vec<NetTotals>, String>>> = vec![None; seeds.len()];
        let (even, odd): (Vec<_>, Vec<_>) =
            out.iter_mut().enumerate().partition(|(i, _)| i % 2 == 0);
        std::thread::scope(|scope| {
            for half in [even, odd] {
                scope.spawn(move || {
                    for (i, slot) in half {
                        *slot = Some(self.reference(seeds[i]));
                    }
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("every reference was computed"))
            .collect()
    }

    /// The model figure of a cold run: pooled geomeans over the reference
    /// grids of the first `n` op seeds, looked up among `refs` (computed
    /// for `seeds`). A fixed seed set keeps the figure independent of how
    /// many ops fit in the timed window.
    pub fn cold_model(
        &self,
        seed: u64,
        n: usize,
        seeds: &[u64],
        refs: &[Result<Vec<NetTotals>, String>],
    ) -> Result<(f64, f64), String> {
        let grids = (0..n)
            .map(|i| {
                let s = cold_seed(seed, i);
                match seeds.iter().position(|x| *x == s).map(|j| &refs[j]) {
                    Some(Ok(grid)) => Ok(grid),
                    Some(Err(e)) => Err(format!("reference at seed {s:#x}: {e}")),
                    None => Err(format!("seed {s:#x}: no reference")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(self.geomeans(grids))
    }

    /// Pooled geomean speedup and energy ratio over every network of
    /// every grid.
    pub fn geomeans<'a>(&self, grids: impl IntoIterator<Item = &'a Vec<NetTotals>>) -> (f64, f64) {
        let (mut ln_s, mut ln_e, mut n) = (0.0, 0.0, 0.0);
        for grid in grids {
            for [(sc, ss), (ac, aa)] in grid {
                ln_s += (*sc as f64 / *ac as f64).ln();
                ln_e += (ss.energy_pj(&self.energy) / aa.energy_pj(&self.energy)).ln();
                n += 1.0;
            }
        }
        ((ln_s / n).exp(), (ln_e / n).exp())
    }
}

impl Default for Fig09 {
    fn default() -> Self {
        Self::new()
    }
}

/// One grid an op ran.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The op that ran it.
    pub op: usize,
    /// Its experiment seed.
    pub seed: u64,
    /// Its per-network results.
    pub totals: Vec<NetTotals>,
}

/// Compares every grid with the reference for its seed and describes,
/// by op, each grid that differs (or whose reference failed).
pub fn check_ops(
    ran: &[Grid],
    seeds: &[u64],
    refs: &[Result<Vec<NetTotals>, String>],
) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    for grid in ran {
        let seed = grid.seed;
        let reference = seeds.iter().position(|s| *s == seed).map(|i| &refs[i]);
        let failure = match reference {
            Some(Ok(reference)) if *reference == grid.totals => continue,
            Some(Ok(_)) => format!("seed {seed:#x}: SimStats differ from the inline reference"),
            Some(Err(e)) => format!("reference at seed {seed:#x}: {e}"),
            None => format!("seed {seed:#x}: no reference"),
        };
        failures.push((grid.op, failure));
    }
    failures
}

/// The persistent store the warm set-up `rep` fills.
fn store_dir(args: &Args, rep: usize) -> PathBuf {
    args.tmp.join(format!("simcache-{rep}"))
}

/// One op of the workload in this process, which is fresh: a cold grid at
/// the seed of op `op`, or a warm replay from the store the run's last
/// set-up filled. Returns the process's peak RSS, MB.
pub fn probe(args: &Args, op: usize) -> Result<f64, String> {
    let fig = Fig09::new();
    let warm = args.workload == "fig09-warm";
    let seeds: Vec<u64> = if warm {
        (0..WARM_SEEDS).map(|j| cold_seed(args.seed, j)).collect()
    } else {
        vec![cold_seed(args.seed, op)]
    };
    for seed in seeds {
        simcache::set_override(if warm {
            CacheOverride::On(SimCacheConfig {
                dir: Some(store_dir(args, SETUP_REPS - 1)),
            })
        } else {
            CacheOverride::Off
        });
        fig.op(seed, &timed_opts(), None, warm)?;
    }
    Ok(measure::peak_rss_mb())
}

/// The median peak RSS of [`RSS_PROBES`] fresh processes that each run one
/// op, as a user's fig09 process does. Within the long-lived benchmark
/// process the peak follows what earlier ops left in the heap, and swung
/// by a quarter between runs.
fn fresh_peak_rss_mb(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("peak RSS probe: {e}"))?;
    let mut peaks = Vec::with_capacity(RSS_PROBES);
    for op in 0..RSS_PROBES {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", "1", "--trace", "0", "--probe", &op.to_string()])
            .arg("--tmp")
            .arg(&args.tmp)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("peak RSS probe {op}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(peak) if out.status.success() => peaks.push(peak),
            _ => return Err(format!("peak RSS probe {op} failed ({})", out.status)),
        }
    }
    Ok(measure::median(&peaks))
}

pub(crate) fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Runs `fig09-cold` (`warm = false`) or `fig09-warm`.
pub fn run(args: &Args, warm: bool) -> Outcome {
    // Set-up, repeated: build the inputs and either run one untimed grid
    // (cold) or fill a fresh persistent store (warm).
    let mut setup_s = Vec::new();
    let mut fig = None;
    let mut store = PathBuf::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let built = Fig09::new();
        if warm {
            store = store_dir(args, rep);
            simcache::set_override(CacheOverride::On(SimCacheConfig {
                dir: Some(store.clone()),
            }));
            for j in 0..WARM_SEEDS {
                built
                    .op(cold_seed(args.seed, j), &timed_opts(), None, false)
                    .expect("warm store fill");
            }
        } else {
            simcache::set_override(CacheOverride::Off);
            built
                .op(
                    cold_seed(args.seed, usize::MAX >> 32),
                    &timed_opts(),
                    None,
                    false,
                )
                .expect("cold warm-up grid");
        }
        setup_s.push(started.elapsed().as_secs_f64());        fig = Some(built);
    }
    let fig = fig.expect("at least one set-up");
    // A cold op is one grid at a fresh seed. A warm op replays every seed
    // the store holds, each as a warm fig09 process does: re-open the
    // store, replay the grid, write the sidecars.
    let op_seeds = |i: usize| -> Vec<u64> {
        if warm {
            (0..WARM_SEEDS).map(|j| cold_seed(args.seed, j)).collect()
        } else {
            vec![cold_seed(args.seed, i)]
        }
    };
    let mut ran: Vec<Grid> = Vec::new();
    let mut next = 0usize;
    let mut run_op = |mut tracer: Option<&mut Tracer>, opts: &RunOptions| {
        let span = tracer.as_deref_mut().map(|t| {
            t.op = next as u64;
            t.begin("op")
        });
        let mut ok = true;
        for seed in op_seeds(next) {
            if warm {
                simcache::set_override(CacheOverride::On(SimCacheConfig {
                    dir: Some(store.clone()),
                }));
                if let Some(t) = tracer.as_deref_mut() {
                    layers::open_simcache(t);
                }
            }
            match fig.op(seed, opts, tracer.as_deref_mut(), warm) {
                Ok(totals) => ran.push(Grid {
                    op: next,
                    seed,
                    totals,
                }),
                Err(e) => {
                    eprintln!("perfbench: grid at seed {seed:#x} failed: {e}");
                    ok = false;
                    break;
                }
            }
        }
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }
        next += 1;
        ok
    };

    let (phase, layers_out) = if args.trace {
        // A short untraced phase for the overhead comparison, then the
        // traced phase with inline runner calls.
        let untraced = closed_loop(args.seconds * 0.25, 10, || run_op(None, &timed_opts()));
        let mut tracer = Tracer::new(Instant::now());
        ant_obs::alloc::enable();
        let opts = inline_opts(true);
        let traced = closed_loop(args.seconds * 0.75, 1, || run_op(Some(&mut tracer), &opts));
        ant_obs::alloc::disable();
        if warm {
            tracer.counters.insert(
                "simcache.store_bytes",
                file_len(&store.join("simcache.jsonl")),
            );
        }
        let mut m = layers::per_layer(&tracer, traced.op_ms.len());
        layers::set_overhead(
            &mut m,
            measure::median(&traced.op_ms),
            measure::median(&untraced.op_ms),
        );
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
        let mut phase = traced;
        phase.attempted += untraced.attempted;
        phase.failed += untraced.failed;
        (phase, Some(m))
    } else {
        let mut phase = closed_loop(args.seconds, MIN_OPS, || run_op(None, &timed_opts()));
        match fresh_peak_rss_mb(args) {
            Ok(peak_mb) => phase.peak_rss_mb = peak_mb,
            Err(e) => {
                eprintln!("perfbench: {e}");
                phase.failed += 1;
            }
        }
        (phase, None)
    };

    // Output checks and the model error, outside the timed window.
    simcache::set_override(CacheOverride::Off);
    let mut checks = Vec::new();
    let seeds: Vec<u64> = if warm {
        (0..WARM_SEEDS).map(|j| cold_seed(args.seed, j)).collect()
    } else {
        // Every op's seed, and at least the MIN_OPS seeds the model figure
        // pools over.
        (0..next.max(MIN_OPS))
            .map(|i| cold_seed(args.seed, i))
            .collect()
    };
    let refs = fig.references(&seeds);
    let mismatches = check_ops(&ran, &seeds, &refs);
    let mut failed_ops: Vec<usize> = mismatches.iter().map(|(op, _)| *op).collect();
    failed_ops.dedup();
    checks.extend(mismatches.into_iter().map(|(_, check)| check));
    let model = if warm {
        fig.reference(PAPER_SEED).map(|grid| fig.geomeans([&grid]))
    } else {
        fig.cold_model(args.seed, MIN_OPS, &seeds, &refs)
    };
    let model = model.unwrap_or_else(|e| {
        checks.push(format!("model figure: {e}"));
        (0.0, 0.0)
    });
    eprintln!(
        "perfbench: geomean speedup {:.4}x, energy {:.4}x (paper {:.2}x, {:.2}x)",
        model.0, model.1, PAPER.0, PAPER.1
    );
    let phase = Phase {
        failed: phase.failed + failed_ops.len() as u64,
        ..phase
    };
    Outcome {
        setup_s,
        phase,
        model_err: (err_pct(model.0, PAPER.0), err_pct(model.1, PAPER.1)),
        checks,
        layers: layers_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_seeds_start_at_the_workload_seed_and_never_collide() {
        assert_eq!(cold_seed(PAPER_SEED, 0), PAPER_SEED);
        let a: Vec<u64> = (0..500).map(|i| cold_seed(1, i)).collect();
        let b: Vec<u64> = (0..500).map(|i| cold_seed(2, i)).collect();
        assert_eq!(a, (0..500).map(|i| cold_seed(1, i)).collect::<Vec<_>>());
        assert!(
            a.iter().all(|s| !b.contains(s)),
            "distinct workload seeds share no op seed"
        );
    }

    #[test]
    fn paper_seed_reproduces_the_fig09_binary_geomeans() {
        simcache::set_override(CacheOverride::Off);
        let fig = Fig09::new();
        let grid = fig.reference(cold_seed(PAPER_SEED, 0)).expect("grid");
        let (speedup, energy) = fig.geomeans([&grid]);
        assert_eq!(ratio(speedup), "3.68x");
        assert_eq!(ratio(energy), "4.35x");
        // The timed op at two threads agrees with the inline reference. Its
        // sidecars land in the build's target directory.
        let op = fig.op(PAPER_SEED, &timed_opts(), None, false).expect("op");
        assert_eq!(op, grid);
    }

    #[test]
    fn the_output_check_catches_a_perturbed_simstats() {
        simcache::set_override(CacheOverride::Off);
        let fig = Fig09::new();
        let seeds = [7, 8];
        let refs = fig.references(&seeds);
        let ran: Vec<Grid> = seeds
            .iter()
            .zip(&refs)
            .enumerate()
            .map(|(op, (&seed, r))| Grid {
                op,
                seed,
                totals: r.clone().expect("grid"),
            })
            .collect();
        assert!(check_ops(&ran, &seeds, &refs).is_empty());
        let mut perturbed = ran.clone();
        perturbed[0].totals[0][1].1.mults += 1;
        assert_eq!(check_ops(&perturbed, &seeds, &refs).len(), 1);
        let mut cycles = ran;
        cycles[1].totals[4][0].0 += 1;
        assert_eq!(check_ops(&cycles, &seeds, &refs)[0].0, 1);
    }

    #[test]
    fn the_cold_model_figure_does_not_depend_on_the_ops_run() {
        simcache::set_override(CacheOverride::Off);
        let fig = Fig09::new();
        let seeds: Vec<u64> = (0..3).map(|i| cold_seed(5, i)).collect();
        let refs = fig.references(&seeds);
        let figure = fig
            .cold_model(5, 2, &seeds[..2], &refs[..2])
            .expect("figure");
        assert_eq!(
            fig.cold_model(5, 2, &seeds, &refs),
            Ok(figure),
            "a third op leaves the figure alone"
        );
        let grids: Vec<&Vec<NetTotals>> = refs[..2]
            .iter()
            .map(|r| r.as_ref().expect("grid"))
            .collect();
        assert_eq!(figure, fig.geomeans(grids));
        assert!(
            fig.cold_model(5, 3, &seeds[..2], &refs[..2]).is_err(),
            "a seed of the set without a reference is an error"
        );
    }
}
