//! The `sweepd-overlap` workload: an in-process `ant-sweepd` serving two
//! closed-loop tenants whose jobs overlap in cells, over HTTP.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ant_bench::checkpoint::CheckpointFile;
use ant_bench::runner::{try_simulate_network_parallel, RunOptions};
use ant_bench::serve::{http_post, JobSpec, Sweepd, SweepdConfig, MACHINES, RESULT_SCHEMA};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_obs::export::http_get;
use ant_obs::json::{write_json_string, Json};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::fig09::{self, Fig09, PAPER, PAPER_SEED};
use crate::layers;
use crate::measure::{self, err_pct, Clocks, Phase, MIN_OPS};
use crate::replay::{traced_call, Machine};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUP_REPS};

/// Interval between a client's polls of its job.
pub const POLL: Duration = Duration::from_millis(25);

/// Poll interval of the set-up's warm-up job, fine enough that `setup_s`
/// does not step with the poll grid.
const SETUP_POLL: Duration = Duration::from_millis(1);

/// Closed-loop clients, one tenant each.
const TENANTS: usize = 2;

/// Models the jobs draw from.
const MODELS: [&str; 3] = ["tiny", "resnet18", "vgg16"];

/// Grid sparsities the jobs draw from.
const SPARSITIES: [f64; 3] = [0.7, 0.8, 0.9];

/// Experiment seeds the jobs draw from; a small pool makes later jobs
/// revisit cells earlier jobs simulated.
const SEED_POOL: u64 = 4;

/// Jobs planned per tenant; a client cycles through its plan.
const PLANNED: usize = 1000;

/// `(machines, sparsities)` per job.
const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)];

/// Every this many jobs of a tenant, one is a resubmit.
const RESUBMIT_EVERY: usize = 10;

/// One planned submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// The `POST /jobs` body.
    pub body: String,
    /// Whether this repeats an earlier job of the same tenant exactly.
    pub resubmit: bool,
}

/// Deals items in shuffled rounds, so that over a run each comes up about
/// equally often whatever the seed: job CPU differs a lot between models
/// and machines, and a freely drawn mix moved `cpu_ms_per_op` by a quarter
/// between seeds.
struct Deck<T> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        Deck {
            items,
            left: Vec::new(),
        }
    }

    /// `n` distinct items; a round with fewer than `n` left is dealt anew.
    fn deal(&mut self, n: usize, rng: &mut StdRng) -> Vec<T> {
        if self.left.len() < n {
            self.left = self.items.clone();
            self.left.shuffle(rng);
        }
        self.left.split_off(self.left.len() - n)
    }
}

/// The job list of tenant `tenant` for workload seed `seed`. Every round
/// of eighteen fresh jobs holds each shape with each model once; machines,
/// sparsities and pool seeds are dealt in rounds too; every tenth job is an
/// exact resubmit of an earlier one.
pub fn plan_jobs(seed: u64, tenant: usize, n: usize) -> Vec<JobPlan> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((tenant as u64 + 1) << 56));
    let mut plans: Vec<JobPlan> = Vec::with_capacity(n);
    let mut shapes = Deck::new(
        SHAPES
            .iter()
            .flat_map(|&shape| MODELS.iter().map(move |&model| (shape, model)))
            .collect(),
    );
    let mut machines = Deck::new(MACHINES.to_vec());
    let mut sparsities = Deck::new(SPARSITIES.to_vec());
    let mut pool = Deck::new((1..=SEED_POOL).collect());
    while plans.len() < n {
        if plans.len() % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 {
            let earlier = plans[rng.gen_range(0..plans.len())].body.clone();
            plans.push(JobPlan {
                body: earlier,
                resubmit: true,
            });
            continue;
        }
        let ((n_machines, n_sparsities), model) = shapes.deal(1, &mut rng)[0];
        let pool_seed = seed.wrapping_add(pool.deal(1, &mut rng)[0] << 40);
        let quoted: Vec<String> = machines
            .deal(n_machines, &mut rng)
            .iter()
            .map(|m| format!("\"{m}\""))
            .collect();
        let grid: Vec<String> = sparsities
            .deal(n_sparsities, &mut rng)
            .iter()
            .map(|s| s.to_string())
            .collect();
        plans.push(JobPlan {
            body: format!(
                "{{\"tenant\":\"tenant{tenant}\",\"model\":\"{model}\",\"machines\":[{}],\"sparsities\":[{}],\"seed\":{pool_seed}}}",
                quoted.join(","),
                grid.join(",")
            ),
            resubmit: false,
        });
    }
    plans
}

/// What one client saw of one job.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    latency_ms: f64,
    /// Why the job failed, if it did.
    failure: Option<String>,
    /// `results_jsonl` of a done job.
    results: Option<PathBuf>,
    duration_ms: f64,
    attempts: f64,
    polls: u64,
    post_ms: f64,
    queue_wait_ms: Option<f64>,
    refused: bool,
    http_error: bool,
    finished: Instant,
}

/// Submits `plan` and polls it every `poll` to a terminal state.
fn run_job(base: &str, plan: &JobPlan, poll: Duration, tracer: &mut Option<Tracer>) -> JobRecord {
    let spec = JobSpec::parse(&plan.body).expect("planned specs are valid");
    let started = Instant::now();
    let mut record = JobRecord {
        spec,
        latency_ms: 0.0,
        failure: None,
        results: None,
        duration_ms: 0.0,
        attempts: 0.0,
        polls: 0,
        post_ms: 0.0,
        queue_wait_ms: None,
        refused: false,
        http_error: false,
        finished: started,
    };
    let span = tracer.as_mut().map(|t| t.begin("serve.post"));
    let posted = http_post(&format!("{base}/jobs"), &plan.body);
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.end(span);
    }
    record.post_ms = started.elapsed().as_secs_f64() * 1e3;
    let id = match posted {
        Ok((202, body)) => ant_obs::parse_json(body.trim())
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string)),
        Ok((code, body)) => {
            record.refused = matches!(code, 400 | 429 | 503);
            record.http_error = !record.refused;
            record.failure = Some(format!("POST refused with {code}: {}", body.trim()));
            None
        }
        Err(e) => {
            record.http_error = true;
            record.failure = Some(format!("POST: {e}"));
            None
        }
    };
    if let Some(id) = id {
        loop {
            std::thread::sleep(poll);
            let span = tracer.as_mut().map(|t| t.begin("serve.poll"));
            let polled = http_get(&format!("{base}/jobs/{id}"));
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                t.end(span);
            }
            record.polls += 1;
            let job = match polled {
                Ok((200, body)) => ant_obs::parse_json(body.trim()).ok(),
                _ => None,
            };
            let Some(job) = job else {
                record.http_error = true;
                record.failure = Some(format!("GET /jobs/{id} failed"));
                break;
            };
            let state = job.get("state").and_then(Json::as_str).unwrap_or("");
            if state != "queued" && record.queue_wait_ms.is_none() {
                record.queue_wait_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            }
            if !matches!(state, "done" | "quarantined" | "expired") {
                continue;
            }
            let field = |k: &str| job.get(k).and_then(Json::as_u64).unwrap_or(0);
            record.duration_ms = field("duration_ms") as f64;
            record.attempts = field("attempt_count") as f64 + 1.0;
            if state != "done" {
                record.failure = Some(format!("job {id} ended {state}"));
            } else if field("quarantined_pairs") + field("deadline_skipped") > 0 {
                record.failure = Some(format!("job {id} is partial"));
            }
            record.results = job
                .get("results_jsonl")
                .and_then(Json::as_str)
                .map(PathBuf::from);
            break;
        }
    }
    record.latency_ms = started.elapsed().as_secs_f64() * 1e3;
    record.finished = Instant::now();
    record
}

/// Runs the two clients until `seconds` have passed and `min_ops` jobs
/// completed, each finishing the job it has in flight.
fn serve_phase(
    base: &str,
    plans: &[Vec<JobPlan>],
    next: &mut [usize],
    seconds: f64,
    min_ops: usize,
    trace_epoch: Option<Instant>,
) -> (Phase, Vec<JobRecord>, Option<Tracer>) {
    let clocks = Clocks::start();
    let done = AtomicUsize::new(0);
    let outputs: Vec<(Vec<JobRecord>, Option<Tracer>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(next.iter())
            .enumerate()
            .map(|(tenant, (plan, &start))| {
                let done = &done;
                let clocks = &clocks;
                scope.spawn(move || {
                    let mut tracer = trace_epoch.map(Tracer::new);
                    let mut records = Vec::new();
                    let mut i = start;
                    while clocks.wall_s() < seconds || done.load(Ordering::SeqCst) < min_ops {
                        if let Some(t) = tracer.as_mut() {
                            t.op = ((tenant as u64) << 32) | i as u64;
                        }
                        let record = run_job(base, &plan[i % plan.len()], POLL, &mut tracer);
                        i += 1;
                        if record.failure.is_none() {
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                        records.push(record);
                        if records.len() > PLANNED && done.load(Ordering::SeqCst) == 0 {
                            break; // every job fails: stop rather than spin
                        }
                    }
                    (records, tracer, i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: clocks.wall_s(),
        cpu_s: clocks.cpu_s(),
        peak_rss_mb: measure::peak_rss_mb(),
        ..Phase::default()
    };
    let mut all = Vec::new();
    let mut merged: Option<Tracer> = None;
    for (tenant, (records, tracer, i)) in outputs.into_iter().enumerate() {
        next[tenant] = i;
        for r in &records {
            phase.attempted += 1;
            match r.failure {
                None => phase.op_ms.push(r.latency_ms),
                Some(_) => phase.failed += 1,
            }
        }
        all.extend(records);
        if let Some(t) = tracer {
            match merged.as_mut() {
                Some(m) => m.absorb(t),
                None => merged = Some(t),
            }
        }
    }
    all.sort_by_key(|r| r.finished);
    (phase, all, merged)
}

/// The result row sweepd writes for one cell, computed in process.
fn reference_row(spec: &JobSpec, machine: &Machine, sparsity: f64) -> Result<String, String> {
    let net = spec.build_model();
    let cfg = spec.experiment_config(sparsity);
    let result =
        try_simulate_network_parallel(machine.pe.as_ref(), &net, &cfg, &fig09::inline_opts(false))
            .map_err(|e| e.to_string())?;
    let mut row = format!("{{\"schema\":\"{RESULT_SCHEMA}\",\"network\":");
    write_json_string(net.name, &mut row);
    row.push_str(",\"machine\":");
    write_json_string(machine.pe.name(), &mut row);
    row.push_str(&format!(",\"sparsity\":{sparsity},\"stats\":{{"));
    for (fi, (name, value)) in result.total.fields().iter().enumerate() {
        if fi > 0 {
            row.push(',');
        }
        write_json_string(name, &mut row);
        row.push_str(&format!(":{value}"));
    }
    row.push_str("}}\n");
    Ok(row)
}

/// Reference rows memoized by cell.
struct References {
    machines: Vec<Machine>,
    rows: HashMap<(String, &'static str, u64, u64), Result<String, String>>,
}

impl References {
    fn new() -> References {
        References {
            machines: MACHINES.iter().map(|m| Machine::from_registry(m)).collect(),
            rows: HashMap::new(),
        }
    }

    fn machine(&self, registry: &str) -> &Machine {
        self.machines
            .iter()
            .find(|m| m.registry == registry)
            .expect("specs name registry machines")
    }

    /// The full result JSONL sweepd should write for `spec`.
    fn jsonl(&mut self, spec: &JobSpec) -> Result<String, String> {
        let mut out = String::new();
        for (name, sparsity) in spec.cells() {
            let machine = self.machine(&name);
            let key = (
                spec.model.clone(),
                machine.registry,
                sparsity.to_bits(),
                spec.seed,
            );
            if !self.rows.contains_key(&key) {
                let row = reference_row(spec, machine, sparsity);
                self.rows.insert(key.clone(), row);
            }
            out.push_str(self.rows[&key].as_ref().map_err(Clone::clone)?);
        }
        Ok(out)
    }
}

fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Starts a daemon on a fresh spool and store and runs one warm-up job
/// (a model and seed outside the job pool) through it.
fn start_daemon(args: &Args, rep: usize) -> (Sweepd, PathBuf, PathBuf) {
    let spool = args.tmp.join(format!("spool-{rep}"));
    let store = args.tmp.join(format!("sweepd-cache-{rep}"));
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(store.clone()),
    }));
    let daemon = Sweepd::start(SweepdConfig {
        spool: spool.clone(),
        ..SweepdConfig::default()
    })
    .expect("sweepd starts");
    let warmup = JobPlan {
        body: format!(
            "{{\"tenant\":\"warmup\",\"model\":\"tiny\",\"machines\":[\"ant\"],\"sparsities\":[0.9],\"seed\":{}}}",
            args.seed.wrapping_add((SEED_POOL + 1) << 40)
        ),
        resubmit: false,
    };
    let record = run_job(
        &format!("http://{}", daemon.addr()),
        &warmup,
        SETUP_POLL,
        &mut None,
    );
    if let Some(e) = record.failure {
        panic!("sweepd warm-up job failed: {e}");
    }
    (daemon, spool, store)
}

/// Runs `sweepd-overlap`.
pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut started = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let daemon = start_daemon(args, rep);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((previous, _, _)) = started.replace(daemon) {
            previous.shutdown();
        }
    }
    let (daemon, spool, store) = started.expect("at least one set-up");
    let base = format!("http://{}", daemon.addr());
    let plans: Vec<Vec<JobPlan>> = (0..TENANTS)
        .map(|t| plan_jobs(args.seed, t, PLANNED))
        .collect();
    let mut next = vec![0usize; TENANTS];

    let (phase, records, tracer, untraced_p50, earlier) = if args.trace {
        let (untraced, earlier, _) =
            serve_phase(&base, &plans, &mut next, args.seconds * 0.25, 10, None);
        ant_obs::alloc::enable();
        let before = ant_obs::alloc::snapshot();
        let (mut traced, records, tracer) = serve_phase(
            &base,
            &plans,
            &mut next,
            args.seconds * 0.75,
            1,
            Some(Instant::now()),
        );
        let mut tracer = tracer.expect("traced clients record spans");
        layers::record_alloc(&mut tracer, &before);
        ant_obs::alloc::disable();
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        (
            traced,
            records,
            Some(tracer),
            measure::median(&untraced.op_ms),
            earlier,
        )
    } else {
        let (phase, records, _) =
            serve_phase(&base, &plans, &mut next, args.seconds, MIN_OPS, None);
        (phase, records, None, 0.0, Vec::new())
    };
    daemon.shutdown();

    // Output checks, outside the timed window: every done job's result
    // file against rows computed in process with the cache off.
    let spool_bytes = dir_bytes(&spool);
    let store_bytes = fig09::file_len(&store.join("simcache.jsonl"));
    simcache::set_override(CacheOverride::Off);
    let mut refs = References::new();
    let mut checks = Vec::new();
    let mut mismatched = 0;
    for r in records.iter().filter(|r| r.failure.is_none()) {
        let actual = r
            .results
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .unwrap_or_default();
        match refs.jsonl(&r.spec) {
            Ok(reference) if actual == reference => {}
            Ok(_) => {
                mismatched += 1;
                checks.push(format!(
                    "{}: result rows differ from the reference",
                    r.spec.canonical_json()
                ));
            }
            Err(e) => checks.push(format!("reference for {}: {e}", r.spec.canonical_json())),
        }
    }
    for r in records.iter().filter_map(|r| r.failure.as_ref()) {
        eprintln!("perfbench: {r}");
    }
    let fig = Fig09::new();
    let model = match fig.reference(PAPER_SEED) {
        Ok(grid) => fig.geomeans([&grid]),
        Err(e) => {
            checks.push(format!("paper-seed grid: {e}"));
            (0.0, 0.0)
        }
    };

    let layers_out = tracer.map(|mut tracer| {
        let done: Vec<&JobRecord> = records.iter().filter(|r| r.failure.is_none()).collect();
        let before: Vec<&JobRecord> = earlier.iter().filter(|r| r.failure.is_none()).collect();
        shadow(&mut tracer, args, &before, &done, &refs, &mut checks);
        tracer.counters.insert("simcache.store_bytes", store_bytes);
        let mut m = layers::per_layer(&tracer, done.len());
        let ops = done.len().max(1) as f64;
        let p50 = |v: Vec<f64>| {
            if v.is_empty() {
                0.0
            } else {
                measure::median(&v)
            }
        };
        m.set(
            "serve.post_ms.p50",
            p50(records.iter().map(|r| r.post_ms).collect()),
            "ms",
        );
        m.set(
            "serve.poll_ms.p50",
            p50(tracer.durations_ms("serve.poll")),
            "ms",
        );
        m.set(
            "serve.polls_per_job",
            done.iter().map(|r| r.polls as f64).sum::<f64>() / ops,
            "count",
        );
        m.set(
            "serve.queue_wait_ms.p50",
            p50(done.iter().filter_map(|r| r.queue_wait_ms).collect()),
            "ms",
        );
        m.set(
            "serve.run_ms.p50",
            p50(done.iter().map(|r| r.duration_ms).collect()),
            "ms",
        );
        let cells: usize = done.iter().map(|r| r.spec.cells().len()).sum();
        m.set(
            "serve.run_ms_per_cell",
            done.iter().map(|r| r.duration_ms).sum::<f64>() / cells.max(1) as f64,
            "ms",
        );
        m.set(
            "serve.shed",
            records.iter().filter(|r| r.refused).count() as f64 / ops,
            "count",
        );
        m.set(
            "serve.http_errors",
            records.iter().filter(|r| r.http_error).count() as f64 / ops,
            "count",
        );
        m.set(
            "serve.attempts_per_job",
            done.iter().map(|r| r.attempts).sum::<f64>() / ops,
            "count",
        );
        m.set("serve.spool_kb", spool_bytes / 1e3, "KB");
        layers::set_overhead(&mut m, measure::median(&phase.op_ms), untraced_p50);
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
        m
    });
    Outcome {
        setup_s,
        phase: Phase {
            failed: phase.failed + mismatched,
            ..phase
        },
        model_err: (err_pct(model.0, PAPER.0), err_pct(model.1, PAPER.1)),
        checks,
        layers: layers_out,
    }
}

/// Replays the traced jobs' cells in completion order against a shadow
/// store and spool, with the daemon's run options: checkpoint open,
/// decomposed runner call, cache writes. The jobs completed `before` the
/// traced phase are replayed first, untimed, so the shadow store and spool
/// hold what the daemon's did when the traced phase began.
fn shadow(
    tracer: &mut Tracer,
    args: &Args,
    before: &[&JobRecord],
    done: &[&JobRecord],
    refs: &References,
    checks: &mut Vec<String>,
) {
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(args.tmp.join("shadow-cache")),
    }));
    layers::open_simcache(tracer);
    let spool = args.tmp.join("shadow-spool");
    if let Err(e) = std::fs::create_dir_all(&spool) {
        checks.push(format!("shadow spool: {e}"));
        return;
    }
    // What `execute_attempt` passes the runner (progress on, so the
    // progress thread and its join are still there), plus telemetry, at one
    // worker: the replayed parts run serially, so the runner must too for
    // `runner.self_ms` to be the runner's own time.
    let daemon_opts = RunOptions {
        threads: Some(1),
        progress: Some(SweepdConfig::default().progress),
        telemetry: Some(true),
        ..RunOptions::default()
    };
    let mut untimed = Tracer::new(Instant::now());
    let jobs = before
        .iter()
        .map(|j| (j, false))
        .chain(done.iter().map(|j| (j, true)));
    for (op, (job, timed)) in jobs.enumerate() {
        let (t, opts) = if timed {
            (&mut *tracer, daemon_opts)
        } else {
            (&mut untimed, fig09::inline_opts(false))
        };
        t.op = op as u64;
        let net = job.spec.build_model();
        let hash = job.spec.content_hash();
        for (ci, (name, sparsity)) in job.spec.cells().into_iter().enumerate() {
            let machine = refs.machine(&name);
            let cfg = job.spec.experiment_config(sparsity);
            let path = spool.join(format!("ckpt-{hash:016x}-c{ci}.jsonl"));
            let opened = t.time("checkpoint.open", || CheckpointFile::resume(&path, &cfg));
            let mut file = match opened {
                Ok(file) => file,
                Err(e) => {
                    checks.push(format!("shadow checkpoint {}: {e}", path.display()));
                    continue;
                }
            };
            t.add("checkpoint.opens", 1.0);
            t.add("checkpoint.resumed_layers", file.resumable_layers() as f64);
            let mut scope = file.scope(net.name, machine.pe.name());
            match traced_call(t, machine, &net, &cfg, &opts, Some(&mut scope)) {
                Ok(traced) if traced.replay_matches => {
                    layers::record_model(t, machine.key, &traced.result);
                }
                Ok(_) => checks.push(format!(
                    "shadow {}/{}: replay differs from runner",
                    net.name, machine.key
                )),
                Err(e) => checks.push(format!("shadow {}/{}: {e}", net.name, machine.key)),
            }
        }
    }
    simcache::set_override(CacheOverride::Off);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_plans_are_a_function_of_the_seed() {
        let a = plan_jobs(11, 0, 60);
        assert_eq!(a, plan_jobs(11, 0, 60));
        assert_ne!(a, plan_jobs(12, 0, 60));
        assert_ne!(a, plan_jobs(11, 1, 60));
        let fresh: Vec<&JobPlan> = a.iter().filter(|p| !p.resubmit).collect();
        assert_eq!(a.len() - fresh.len(), 6, "every tenth job is a resubmit");
        // Each round of eighteen fresh jobs holds every shape with every
        // model once.
        for block in fresh.chunks_exact(SHAPES.len() * MODELS.len()) {
            let mut shapes: Vec<(usize, usize, String)> = block
                .iter()
                .map(|p| {
                    let spec = JobSpec::parse(&p.body).expect("valid spec");
                    (spec.machines.len(), spec.sparsities.len(), spec.model)
                })
                .collect();
            let mut all: Vec<(usize, usize, String)> = SHAPES
                .iter()
                .flat_map(|&(m, s)| MODELS.iter().map(move |model| (m, s, model.to_string())))
                .collect();
            shapes.sort_unstable();
            all.sort_unstable();
            assert_eq!(shapes, all);
        }
        for p in a.iter().filter(|p| p.resubmit) {
            assert!(
                fresh.iter().any(|f| f.body == p.body),
                "a resubmit repeats an earlier job"
            );
        }
    }

    #[test]
    fn the_output_check_catches_a_perturbed_result_row() {
        simcache::set_override(CacheOverride::Off);
        let spool = std::env::temp_dir().join(format!("perfbench-sweepd-{}", std::process::id()));
        let daemon = Sweepd::start(SweepdConfig {
            spool: spool.clone(),
            ..SweepdConfig::default()
        })
        .expect("sweepd starts");
        let plan = JobPlan {
            body: r#"{"tenant":"t","model":"tiny","machines":["ant","gospa"],"sparsities":[0.8]}"#
                .to_string(),
            resubmit: false,
        };
        let record = run_job(&format!("http://{}", daemon.addr()), &plan, POLL, &mut None);
        daemon.shutdown();
        assert_eq!(record.failure, None);
        let actual = std::fs::read_to_string(record.results.expect("a done job names its results"))
            .expect("result file");
        let _ = std::fs::remove_dir_all(&spool);
        let reference = References::new().jsonl(&record.spec).expect("reference");
        assert_eq!(reference.lines().count(), 2);
        assert_eq!(
            actual, reference,
            "sweepd writes exactly the reference rows"
        );
        assert_ne!(actual.replacen("\"mults\":", "\"mults\":1", 1), reference);
        assert_ne!(actual[..actual.len() - 1], reference);
    }
}
