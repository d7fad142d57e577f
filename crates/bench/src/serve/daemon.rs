//! The `ant-sweepd` daemon: supervised execution of queued sweep jobs with
//! bounded retry, deadlines, and crash recovery.
//!
//! One scheduler thread drains the [`FairQueue`] one job at a time (each
//! job already fans out across the runner's worker pool). Every attempt
//! runs under `catch_unwind`: a panicking job is retried up to
//! `max_attempts` times with deterministic exponential backoff + jitter
//! (a pure function of `(seed, seq, attempt)`, so tests can pin the exact
//! schedule), then quarantined with its [`AntError`] history in the job
//! record. Deadlines generalize `RunOptions::pair_budget_us` to the job
//! level: the remaining budget is handed to the runner as
//! `RunOptions::deadline_us`, which cancels at the next pair-job boundary
//! and leaves the affected layers out of the checkpoint — an expired job
//! keeps its sidecar, so a re-submission *resumes*.
//!
//! The daemon serves its job routes (`POST /jobs`, `GET /jobs[/{id}]`) on
//! the `ant-obs` listener, which answers `/metrics`, `/status` and
//! `/healthz` itself.
//!
//! Every job persists a record under the spool directory
//! (`job-<seq>.json`, schema [`JOB_SCHEMA`]) and checkpoints per grid cell
//! (`ckpt-<spec-hash>-c<cell>.jsonl`, the PR 5 `ant-checkpoint/1` format,
//! keyed by [`JobSpec::content_hash`]). The spool is the record of finished
//! jobs: memory holds the live jobs plus the last [`RECENT_JOBS`] finished
//! ones, and `GET /jobs/{id}` reads older jobs back from their records. On
//! restart the daemon scans the spool: the recent terminal jobs load for
//! serving, interrupted jobs re-enqueue and resume from their checkpoints —
//! results are byte-identical to an uninterrupted run because completed
//! layers merge from the sidecar and per-layer seeds derive from layer
//! index alone.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ant_obs::export::{Listener, Request, Response};
use ant_obs::json::{write_json_string, Json};
use ant_sim::chaos::{self, ServiceFault};
use ant_sim::AntError;

use crate::checkpoint::CheckpointFile;
use crate::fingerprint::StableHasher;
use crate::layer_log;
use crate::runner::{try_simulate_network_parallel_checkpointed, RunOptions};
use crate::serve::queue::{FairQueue, Shed};
use crate::serve::spec::JobSpec;
use crate::serve::SweepdConfig;

/// Schema tag of one job record (spool file and `GET /jobs/{id}` body).
pub const JOB_SCHEMA: &str = "ant-sweepd-job/1";
/// Schema tag of the `GET /jobs` listing.
pub const JOBS_SCHEMA: &str = "ant-sweepd-jobs/1";
/// Schema tag of typed refusal bodies (400/429/503).
pub const ERROR_SCHEMA: &str = "ant-sweepd-error/1";
/// Schema tag of one result row in a job's `.result.jsonl`.
pub const RESULT_SCHEMA: &str = "ant-sweepd-result/1";

/// Completed-job durations kept for the rolling ETA estimate.
const DURATION_WINDOW: usize = 16;

/// Finished jobs kept in memory once their record is in the spool. Older
/// ones leave memory, so the daemon's footprint follows its live work, not
/// its history; `GET /jobs/{id}` still serves them from the spool.
pub const RECENT_JOBS: usize = 64;

/// How long an injected [`ServiceFault::Stall`] holds an attempt before it
/// runs: long enough that a client can observe the job `running` (and the
/// next one `queued`) before the attempt can finish.
const STALL: Duration = Duration::from_secs(1);

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting in the fair queue.
    Queued,
    /// Currently executing on the runner.
    Running,
    /// Failed an attempt; waiting out its backoff before re-queueing.
    Backoff,
    /// Completed; results are on disk.
    Done,
    /// Exhausted `max_attempts`; the error history is in the record.
    Quarantined,
    /// Missed its deadline; the checkpoint is retained for resume.
    Expired,
}

impl JobState {
    /// Stable wire tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Backoff => "backoff",
            JobState::Done => "done",
            JobState::Quarantined => "quarantined",
            JobState::Expired => "expired",
        }
    }

    fn from_tag(tag: &str) -> Option<JobState> {
        Some(match tag {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "backoff" => JobState::Backoff,
            "done" => JobState::Done,
            "quarantined" => JobState::Quarantined,
            "expired" => JobState::Expired,
            _ => return None,
        })
    }

    /// Whether the job will never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Quarantined | JobState::Expired
        )
    }
}

/// One failed (or retried) attempt in a job's supervision history.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The rendered [`AntError`] that ended the attempt.
    pub error: String,
    /// Backoff scheduled after this attempt; `None` on the final
    /// (quarantining) attempt.
    pub backoff_ms: Option<u64>,
}

/// A job under supervision.
#[derive(Debug, Clone)]
pub struct Job {
    /// Monotonic admission sequence number (scheduling identity).
    pub seq: u64,
    /// External id (`<tenant>-<spec hash>-<seq>`).
    pub id: String,
    /// The validated spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Failed attempts so far, oldest first.
    pub attempts: Vec<AttemptRecord>,
    /// Unix milliseconds at admission.
    pub submitted_ms: u64,
    /// Absolute deadline (unix ms); `None` when the spec had no deadline.
    pub deadline_at_ms: Option<u64>,
    /// Whether this job was recovered from the spool after a restart.
    pub recovered: bool,
    /// Pair-level retries across all run attempts (`FailureReport`).
    pub pair_retries: u64,
    /// Pair-level quarantines across all run attempts.
    pub quarantined_pairs: u64,
    /// Pair jobs skipped by deadline cancellation.
    pub deadline_skipped: u64,
    /// Wall duration of the successful attempt, when done.
    pub duration_ms: Option<u64>,
}

#[derive(Debug)]
struct State {
    queue: FairQueue,
    jobs: BTreeMap<u64, Job>,
    /// `(wake_at_ms, seq)` for jobs waiting out a retry backoff.
    backoff: Vec<(u64, u64)>,
    durations: VecDeque<u64>,
    /// Seqs of the finished jobs whose terminal record is in the spool,
    /// oldest first; at most [`RECENT_JOBS`].
    recent: VecDeque<u64>,
    next_seq: u64,
}

/// Shared daemon state: the route function and the scheduler both hold an
/// `Arc<Inner>`.
#[derive(Debug)]
struct Inner {
    config: SweepdConfig,
    state: Mutex<State>,
    cv: Condvar,
    stop: AtomicBool,
    spool_writes: AtomicU64,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Deterministic exponential backoff with jitter: `base * 2^(attempt-1)`
/// plus a jitter in `[0, base)` that is a pure function of
/// `(seed, seq, attempt)` — two daemons with the same seed replay the
/// identical schedule.
pub fn backoff_ms(seed: u64, seq: u64, attempt: u32, base_ms: u64) -> u64 {
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16));
    let mut h = StableHasher::new();
    h.write_u64(seed);
    h.write_u64(seq);
    h.write_u64(u64::from(attempt));
    exp + h.finish() % base
}

/// A running `ant-sweepd` instance: HTTP front end plus scheduler thread.
///
/// Obtain with [`Sweepd::start`]; stop with [`Sweepd::shutdown`] (tests) or
/// block forever with [`Sweepd::join`] (the `sweepd` binary).
#[derive(Debug)]
pub struct Sweepd {
    inner: Arc<Inner>,
    listener: Listener,
    sched: std::thread::JoinHandle<()>,
}

impl Sweepd {
    /// Creates the spool, recovers interrupted jobs, binds the HTTP
    /// listener, and spawns the scheduler.
    pub fn start(config: SweepdConfig) -> Result<Sweepd, AntError> {
        std::fs::create_dir_all(&config.spool)
            .map_err(|e| AntError::io(format!("create spool {}", config.spool.display()), &e))?;
        let mut state = State {
            queue: FairQueue::new(config.queue_capacity),
            jobs: BTreeMap::new(),
            backoff: Vec::new(),
            durations: VecDeque::new(),
            recent: VecDeque::new(),
            next_seq: 1,
        };
        recover_spool(&config, &mut state)?;
        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(state),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            spool_writes: AtomicU64::new(0),
        });
        publish_queue_depth(&inner.lock());
        let route_inner = inner.clone();
        let listener = ant_obs::export::listen(&inner.config.addr, move |request| {
            route(&route_inner, request)
        })
        .map_err(|e| AntError::io(format!("listen on {}", inner.config.addr), &e))?;
        let sched_inner = inner.clone();
        let sched = std::thread::Builder::new()
            .name("ant-sweepd-sched".to_string())
            .spawn(move || scheduler_loop(&sched_inner))
            .map_err(|e| AntError::io("spawn scheduler", &e))?;
        if let Some(path) = &inner.config.addr_file {
            ant_obs::export::write_addr_file(path, listener.addr());
        }
        Ok(Sweepd {
            inner,
            listener,
            sched,
        })
    }

    /// The bound listen address (useful after requesting port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.listener.addr()
    }

    /// Signals both threads to stop and joins them. A job mid-attempt
    /// finishes first (attempts are not torn down — the checkpoint makes a
    /// `kill -9` safe, but an orderly shutdown is cleaner still).
    pub fn shutdown(self) {
        // Set under the state lock, so the scheduler either sees the flag
        // before it parks or is parked and gets the notify.
        {
            let _st = self.inner.lock();
            self.inner.stop.store(true, Ordering::SeqCst);
        }
        self.inner.cv.notify_all();
        let _ = self.sched.join();
        self.listener.shutdown();
    }

    /// Blocks until the scheduler thread exits (it never does unless
    /// [`Sweepd::shutdown`] is called — the daemon runs until killed).
    pub fn join(self) {
        let _ = self.sched.join();
        self.listener.join();
    }
}

/// Restores jobs from `job-*.json` spool records. The last [`RECENT_JOBS`]
/// terminal jobs load for serving (older ones stay in the spool only);
/// queued/running/backoff jobs were interrupted — they re-enqueue (in seq
/// order, so the recovered schedule is deterministic) and will resume from
/// their checkpoints. New jobs number past every spooled seq.
fn recover_spool(config: &SweepdConfig, state: &mut State) -> Result<(), AntError> {
    let entries = match std::fs::read_dir(&config.spool) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => {
            return Err(AntError::io(
                format!("scan spool {}", config.spool.display()),
                &e,
            ))
        }
    };
    let mut recovered_jobs: Vec<Job> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("job-") || !name.ends_with(".json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        match parse_job(&text) {
            Some(job) => recovered_jobs.push(job),
            None => {
                eprintln!(
                    "ant-sweepd: spool: skipping corrupt job record {}",
                    entry.path().display()
                );
            }
        }
    }
    recovered_jobs.sort_by_key(|j| j.seq);
    let registry = ant_obs::registry();
    let finished = recovered_jobs
        .iter()
        .filter(|j| j.state.is_terminal())
        .count();
    let mut older = finished.saturating_sub(RECENT_JOBS);
    for mut job in recovered_jobs {
        state.next_seq = state.next_seq.max(job.seq + 1);
        if job.state.is_terminal() {
            if older > 0 {
                older -= 1;
                continue;
            }
            state.recent.push_back(job.seq);
        } else {
            // Interrupted mid-flight: back to the queue, resume on pop.
            job.state = JobState::Queued;
            job.recovered = true;
            let _ = state.queue.push(&job.spec.tenant, job.spec.weight, job.seq);
            registry.counter("sweepd.job.recovered").incr();
            eprintln!(
                "ant-sweepd: recovered interrupted job {} (seq {})",
                job.id, job.seq
            );
        }
        state.jobs.insert(job.seq, job);
    }
    Ok(())
}

fn publish_queue_depth(st: &State) {
    ant_obs::registry()
        .gauge("sweepd.queue.depth")
        .set(st.queue.len() as f64);
}

/// Records that job `seq` reached a terminal state. Once its record is in
/// the spool it joins the recent list, and the finished job that falls off
/// the list leaves memory. A job whose terminal record did not reach the
/// spool stays in memory: memory is then its only record. Takes the locked
/// state, so callers that already hold the lock do not lock again.
fn retire(st: &mut State, seq: u64, spooled: bool) {
    if !spooled {
        return;
    }
    st.recent.push_back(seq);
    while st.recent.len() > RECENT_JOBS {
        if let Some(old) = st.recent.pop_front() {
            st.jobs.remove(&old);
        }
    }
}

/// The daemon's routes on the `ant-obs` listener:
///
/// - `POST /jobs` — submit a [`JobSpec`]; `202` with id and queue position,
///   `400` invalid spec, `429` queue full, `503` past deadline (the latter
///   two counted as `sweepd.job.shed`).
/// - `GET /jobs` — the live jobs and the most recently finished ones with
///   state, attempts, queue position, and ETA (schema [`JOBS_SCHEMA`]).
/// - `GET /jobs/{id}` — one job by external id or sequence number, read
///   back from the spool once it has left memory.
fn route(inner: &Inner, request: Request<'_>) -> Option<Response> {
    const JSON: &str = "application/json";
    match (request.method, request.path) {
        ("POST", "/jobs") => {
            let (status, body) = submit(inner, request.body);
            Some((status, JSON, body))
        }
        ("GET", "/jobs") => Some(("200 OK", JSON, jobs_json(inner))),
        ("GET", path) => Some(match job_json(inner, path.strip_prefix("/jobs/")?) {
            Some(body) => ("200 OK", JSON, body),
            None => (
                "404 Not Found",
                JSON,
                "{\"error\":\"unknown job\"}\n".to_string(),
            ),
        }),
        _ => None,
    }
}

/// Handles `POST /jobs`: validate, shed, or admit. Returns the HTTP status
/// line and JSONL body.
fn submit(inner: &Inner, body: &str) -> (&'static str, String) {
    let registry = ant_obs::registry();
    let spec = match JobSpec::parse(body) {
        Ok(spec) => spec,
        Err(e) => {
            return (
                "400 Bad Request",
                error_body(400, "invalid_spec", &e.to_string()),
            )
        }
    };
    if spec.deadline_ms == Some(0) {
        // Admitting work whose deadline has already passed would be
        // accepting a job only to drop it — shed it up front instead.
        registry.counter("sweepd.job.shed").incr();
        return (
            "503 Service Unavailable",
            error_body(503, "past_deadline", "deadline_ms is 0: already expired"),
        );
    }
    let now = now_ms();
    let (seq, id, position) = {
        let mut st = inner.lock();
        let seq = st.next_seq;
        if let Err(Shed::QueueFull) = st.queue.push(&spec.tenant, spec.weight, seq) {
            drop(st);
            registry.counter("sweepd.job.shed").incr();
            return (
                "429 Too Many Requests",
                error_body(
                    429,
                    "queue_full",
                    &format!("queue at capacity {}", inner.config.queue_capacity),
                ),
            );
        }
        st.next_seq += 1;
        let id = format!("{}-{:08x}-{}", spec.tenant, spec.content_hash() as u32, seq);
        let job = Job {
            seq,
            id: id.clone(),
            spec: spec.clone(),
            state: JobState::Queued,
            attempts: Vec::new(),
            submitted_ms: now,
            deadline_at_ms: spec.deadline_ms.map(|ms| now + ms),
            recovered: false,
            pair_retries: 0,
            quarantined_pairs: 0,
            deadline_skipped: 0,
            duration_ms: None,
        };
        let position = st.queue.position_of(seq).unwrap_or(0);
        publish_queue_depth(&st);
        // Spooled before the lock is released: the scheduler cannot pop the
        // job (and write its `running` record) until this one is down, so
        // the two writes never race on the same file.
        write_job_record(inner, &job);
        st.jobs.insert(seq, job);
        (seq, id, position)
    };
    registry.counter("sweepd.queue.submitted").incr();
    inner.cv.notify_all();
    let mut body = String::with_capacity(128);
    body.push_str(&format!("{{\"schema\":\"{JOB_SCHEMA}\",\"id\":"));
    write_json_string(&id, &mut body);
    body.push_str(&format!(
        ",\"seq\":{seq},\"state\":\"queued\",\"position\":{position}}}\n"
    ));
    ("202 Accepted", body)
}

/// Typed refusal body (one JSONL object, schema [`ERROR_SCHEMA`]).
fn error_body(code: u16, kind: &str, detail: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str(&format!(
        "{{\"schema\":\"{ERROR_SCHEMA}\",\"code\":{code},\"kind\":"
    ));
    write_json_string(kind, &mut out);
    out.push_str(",\"error\":");
    write_json_string(detail, &mut out);
    out.push_str("}\n");
    out
}

/// Renders one job as its `ant-sweepd-job/1` object (no trailing newline):
/// the wire body of `GET /jobs[/{id}]` and the spool record alike. Only the
/// wire passes the locked state, for a queued job's position and ETA.
fn job_object(inner: &Inner, job: &Job, st: Option<&State>) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!("{{\"schema\":\"{JOB_SCHEMA}\",\"id\":"));
    write_json_string(&job.id, &mut out);
    out.push_str(&format!(",\"seq\":{},\"tenant\":", job.seq));
    write_json_string(&job.spec.tenant, &mut out);
    out.push_str(&format!(
        ",\"state\":\"{}\",\"weight\":{}",
        job.state.tag(),
        job.spec.weight
    ));
    out.push_str(&format!(",\"submitted_ms\":{}", job.submitted_ms));
    match job.deadline_at_ms {
        Some(ms) => out.push_str(&format!(",\"deadline_at_ms\":{ms}")),
        None => out.push_str(",\"deadline_at_ms\":null"),
    }
    let position = st.and_then(|st| st.queue.position_of(job.seq));
    if let (Some(st), Some(position)) = (st, position) {
        out.push_str(&format!(",\"position\":{position}"));
        let mean = mean_duration(st);
        match mean {
            Some(mean) => out.push_str(&format!(",\"eta_ms\":{}", (position as u64 + 1) * mean)),
            None => out.push_str(",\"eta_ms\":null"),
        }
    }
    out.push_str(&format!(
        ",\"recovered\":{},\"attempt_count\":{},\"pair_retries\":{},\
         \"quarantined_pairs\":{},\"deadline_skipped\":{}",
        job.recovered,
        job.attempts.len(),
        job.pair_retries,
        job.quarantined_pairs,
        job.deadline_skipped
    ));
    match job.duration_ms {
        Some(ms) => out.push_str(&format!(",\"duration_ms\":{ms}")),
        None => out.push_str(",\"duration_ms\":null"),
    }
    out.push_str(",\"attempts\":[");
    for (i, a) in job.attempts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"attempt\":{},\"error\":", a.attempt));
        write_json_string(&a.error, &mut out);
        match a.backoff_ms {
            Some(ms) => out.push_str(&format!(",\"backoff_ms\":{ms}}}")),
            None => out.push_str(",\"backoff_ms\":null}"),
        }
    }
    out.push(']');
    if job.state == JobState::Done {
        let (csv, jsonl) = result_paths(inner, job.seq);
        out.push_str(",\"results_csv\":");
        write_json_string(&csv.display().to_string(), &mut out);
        out.push_str(",\"results_jsonl\":");
        write_json_string(&jsonl.display().to_string(), &mut out);
    }
    out.push_str(",\"spec\":");
    write_json_string(&job.spec.canonical_json(), &mut out);
    out.push('}');
    out
}

fn mean_duration(st: &State) -> Option<u64> {
    if st.durations.is_empty() {
        return None;
    }
    Some(st.durations.iter().sum::<u64>() / st.durations.len() as u64)
}

/// `GET /jobs`: the live jobs plus the recently finished ones, seq order,
/// schema [`JOBS_SCHEMA`].
fn jobs_json(inner: &Inner) -> String {
    let st = inner.lock();
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"schema\":\"{JOBS_SCHEMA}\",\"queue_depth\":{},\"jobs\":[",
        st.queue.len()
    ));
    for (i, job) in st.jobs.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&job_object(inner, job, Some(&st)));
    }
    out.push_str("]}\n");
    out
}

/// `GET /jobs/{id}`: one job by external id (or numeric seq), `None` when
/// unknown. The seq is the id's last field; a job no longer in memory is
/// read back from its spool record, and either way the whole id must match.
fn job_json(inner: &Inner, id: &str) -> Option<String> {
    let (seq, bare) = match id.parse::<u64>() {
        Ok(seq) => (seq, true),
        Err(_) => (id.rsplit('-').next()?.parse::<u64>().ok()?, false),
    };
    let matches = |job: &Job| bare || job.id == id;
    {
        let st = inner.lock();
        if let Some(job) = st.jobs.get(&seq) {
            return matches(job).then(|| job_object(inner, job, Some(&st)) + "\n");
        }
        if seq >= st.next_seq {
            return None;
        }
    }
    let text = std::fs::read_to_string(inner.config.spool.join(format!("job-{seq}.json"))).ok()?;
    let job = parse_job(&text).filter(|j| j.seq == seq && j.state.is_terminal() && matches(j))?;
    Some(job_object(inner, &job, None) + "\n")
}

fn result_paths(inner: &Inner, seq: u64) -> (PathBuf, PathBuf) {
    (
        inner.config.spool.join(format!("job-{seq}.result.csv")),
        inner.config.spool.join(format!("job-{seq}.result.jsonl")),
    )
}

/// Persists a job record atomically (`.tmp` + rename), honouring injected
/// spool faults (`ANT_CHAOS` `spool=`): a faulted write warns and counts —
/// in-memory state stays authoritative, the next transition rewrites.
/// Returns whether the record reached the spool.
fn write_job_record(inner: &Inner, job: &Job) -> bool {
    let index = inner.spool_writes.fetch_add(1, Ordering::Relaxed);
    if chaos::active().is_some_and(|c| c.spool_fault_for(index)) {
        ant_obs::registry().counter("sweepd.spool.io_errors").incr();
        eprintln!(
            "ant-sweepd: spool: injected write fault for job {} (seq {}); \
             record not rewritten",
            job.id, job.seq
        );
        return false;
    }
    let path = inner.config.spool.join(format!("job-{}.json", job.seq));
    let tmp = inner.config.spool.join(format!("job-{}.json.tmp", job.seq));
    let out = job_object(inner, job, None) + "\n";
    let write = std::fs::write(&tmp, &out).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = write {
        ant_obs::registry().counter("sweepd.spool.io_errors").incr();
        eprintln!(
            "ant-sweepd: spool: cannot persist job record {} ({e}); continuing",
            path.display()
        );
        return false;
    }
    true
}

/// Parses a spool job record; `None` when corrupt.
fn parse_job(text: &str) -> Option<Job> {
    let json = ant_obs::parse_json(text.trim()).ok()?;
    if json.get("schema").and_then(Json::as_str) != Some(JOB_SCHEMA) {
        return None;
    }
    let spec = JobSpec::parse(json.get("spec").and_then(Json::as_str)?).ok()?;
    let state = JobState::from_tag(json.get("state").and_then(Json::as_str)?)?;
    let mut attempts = Vec::new();
    if let Some(arr) = json.get("attempts").and_then(Json::as_array) {
        for a in arr {
            attempts.push(AttemptRecord {
                attempt: a.get("attempt").and_then(Json::as_u64)? as u32,
                error: a.get("error").and_then(Json::as_str)?.to_string(),
                backoff_ms: a.get("backoff_ms").and_then(Json::as_u64),
            });
        }
    }
    Some(Job {
        seq: json.get("seq").and_then(Json::as_u64)?,
        id: json.get("id").and_then(Json::as_str)?.to_string(),
        spec,
        state,
        attempts,
        submitted_ms: json.get("submitted_ms").and_then(Json::as_u64)?,
        deadline_at_ms: json.get("deadline_at_ms").and_then(Json::as_u64),
        recovered: matches!(json.get("recovered"), Some(Json::Bool(true))),
        pair_retries: json.get("pair_retries").and_then(Json::as_u64).unwrap_or(0),
        quarantined_pairs: json
            .get("quarantined_pairs")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        deadline_skipped: json
            .get("deadline_skipped")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        duration_ms: json.get("duration_ms").and_then(Json::as_u64),
    })
}

/// The scheduler: wake due backoffs, expire overdue queued jobs, run the
/// next fair-queue pick. With nothing runnable it parks on the condvar
/// until the next backoff or deadline falls due, or until a submission or
/// shutdown notifies it; it checks for work under the same lock it parks
/// with, so no notify is lost in between.
fn scheduler_loop(inner: &Arc<Inner>) {
    loop {
        let seq = {
            let mut st = inner.lock();
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let now = now_ms();
                // Due backoffs re-enter the queue.
                let (ready, pending): (Vec<_>, Vec<_>) =
                    st.backoff.drain(..).partition(|&(wake, _)| wake <= now);
                st.backoff = pending;
                for (_, seq) in ready {
                    if let Some(job) = st.jobs.get_mut(&seq) {
                        job.state = JobState::Queued;
                        let (tenant, weight) = (job.spec.tenant.clone(), job.spec.weight);
                        let _ = st.queue.push(&tenant, weight, seq);
                    }
                }
                // Queued jobs whose deadline passed expire in place.
                let overdue: Vec<u64> = st
                    .jobs
                    .values()
                    .filter(|j| {
                        j.state == JobState::Queued && j.deadline_at_ms.is_some_and(|d| d <= now)
                    })
                    .map(|j| j.seq)
                    .collect();
                for seq in overdue {
                    st.queue.remove(seq);
                    if let Some(job) = st.jobs.get_mut(&seq) {
                        job.state = JobState::Expired;
                        let job = job.clone();
                        let spooled = drop_expired(inner, &job);
                        retire(&mut st, seq, spooled);
                    }
                }
                let next = st.queue.pop();
                publish_queue_depth(&st);
                if let Some(seq) = next {
                    break seq;
                }
                let due = st
                    .backoff
                    .iter()
                    .map(|&(wake, _)| wake)
                    .chain(
                        st.jobs
                            .values()
                            .filter(|j| j.state == JobState::Queued)
                            .filter_map(|j| j.deadline_at_ms),
                    )
                    .min();
                st = match due {
                    Some(due) => {
                        let wait = Duration::from_millis(due.saturating_sub(now).max(1));
                        inner
                            .cv
                            .wait_timeout(st, wait)
                            .map(|(st, _)| st)
                            .unwrap_or_else(|p| p.into_inner().0)
                    }
                    None => inner.cv.wait(st).unwrap_or_else(|p| p.into_inner()),
                };
            }
        };
        run_job(inner, seq);
    }
}

/// Counts and spools a job that expired; returns whether its record
/// reached the spool.
fn drop_expired(inner: &Inner, job: &Job) -> bool {
    ant_obs::registry().counter("sweepd.job.expired").incr();
    eprintln!(
        "ant-sweepd: job {} (seq {}) expired before running; checkpoint retained",
        job.id, job.seq
    );
    write_job_record(inner, job)
}

/// Output of one successful (or deadline-cancelled) attempt.
struct AttemptOutput {
    csv: String,
    jsonl: String,
    pair_retries: u64,
    quarantined_pairs: u64,
    deadline_skipped: u64,
    deadline_exceeded: bool,
}

/// Runs one attempt of job `seq` under `catch_unwind`, then applies the
/// supervision outcome: done / retry-with-backoff / quarantine / expire.
fn run_job(inner: &Arc<Inner>, seq: u64) {
    let registry = ant_obs::registry();
    let (spec, attempt, deadline_at) = {
        let mut st = inner.lock();
        let Some(job) = st.jobs.get_mut(&seq) else {
            return;
        };
        job.state = JobState::Running;
        let out = (
            job.spec.clone(),
            job.attempts.len() as u32 + 1,
            job.deadline_at_ms,
        );
        let job = job.clone();
        drop(st);
        write_job_record(inner, &job);
        out
    };
    let now = now_ms();
    if deadline_at.is_some_and(|d| d <= now) {
        let mut st = inner.lock();
        if let Some(job) = st.jobs.get_mut(&seq) {
            job.state = JobState::Expired;
            let job = job.clone();
            drop(st);
            let spooled = drop_expired(inner, &job);
            retire(&mut inner.lock(), seq, spooled);
        }
        return;
    }

    // Service-level chaos: a pure function of (seed, seq, attempt), so the
    // death/retry/quarantine path a test observes is exactly reproducible.
    let fault = chaos::active().and_then(|c| c.service_fault_for(seq, attempt as usize));
    if matches!(fault, Some(ServiceFault::Stall)) {
        // A stalled job burns wall budget; the deadline still cuts it off
        // at the next pair-job boundary.
        std::thread::sleep(STALL);
    }
    let inject_death = matches!(fault, Some(ServiceFault::JobDeath));

    let started = Instant::now();
    let config = inner.config.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_attempt(&config, &spec, deadline_at, inject_death)
    }))
    .unwrap_or_else(|payload| {
        Err(AntError::from_panic(
            format!("sweepd job seq={seq} attempt={attempt}"),
            payload.as_ref(),
        ))
    });
    let elapsed_ms = started.elapsed().as_millis() as u64;

    match outcome {
        Ok(output) if output.deadline_exceeded => {
            let mut st = inner.lock();
            if let Some(job) = st.jobs.get_mut(&seq) {
                job.state = JobState::Expired;
                job.pair_retries += output.pair_retries;
                job.quarantined_pairs += output.quarantined_pairs;
                job.deadline_skipped += output.deadline_skipped;
                job.attempts.push(AttemptRecord {
                    attempt,
                    error: "deadline exceeded; cancelled at pair-job boundary".to_string(),
                    backoff_ms: None,
                });
                let job = job.clone();
                drop(st);
                let spooled = drop_expired(inner, &job);
                retire(&mut inner.lock(), seq, spooled);
            }
        }
        Ok(output) => {
            let (csv_path, jsonl_path) = result_paths(inner, seq);
            write_atomic(&csv_path, &output.csv);
            write_atomic(&jsonl_path, &output.jsonl);
            registry.counter("sweepd.job.completed").incr();
            let mut st = inner.lock();
            st.durations.push_back(elapsed_ms);
            while st.durations.len() > DURATION_WINDOW {
                st.durations.pop_front();
            }
            if let Some(job) = st.jobs.get_mut(&seq) {
                job.state = JobState::Done;
                job.duration_ms = Some(elapsed_ms);
                job.pair_retries += output.pair_retries;
                job.quarantined_pairs += output.quarantined_pairs;
                let job = job.clone();
                drop(st);
                let spooled = write_job_record(inner, &job);
                retire(&mut inner.lock(), seq, spooled);
            }
        }
        Err(error) => {
            let mut st = inner.lock();
            if let Some(job) = st.jobs.get_mut(&seq) {
                if attempt < inner.config.max_attempts {
                    let wait = backoff_ms(
                        inner.config.seed,
                        seq,
                        attempt,
                        inner.config.backoff_base_ms,
                    );
                    job.attempts.push(AttemptRecord {
                        attempt,
                        error: error.to_string(),
                        backoff_ms: Some(wait),
                    });
                    job.state = JobState::Backoff;
                    let job = job.clone();
                    st.backoff.push((now_ms() + wait, seq));
                    drop(st);
                    registry.counter("sweepd.job.retries").incr();
                    eprintln!(
                        "ant-sweepd: job {} attempt {attempt} failed ({error}); \
                         retrying in {wait}ms",
                        job.id
                    );
                    write_job_record(inner, &job);
                } else {
                    job.attempts.push(AttemptRecord {
                        attempt,
                        error: error.to_string(),
                        backoff_ms: None,
                    });
                    job.state = JobState::Quarantined;
                    let job = job.clone();
                    drop(st);
                    registry.counter("sweepd.job.quarantined").incr();
                    eprintln!(
                        "ant-sweepd: job {} quarantined after {attempt} attempt(s): {error}",
                        job.id
                    );
                    let spooled = write_job_record(inner, &job);
                    retire(&mut inner.lock(), seq, spooled);
                }
            }
        }
    }
}

fn write_atomic(path: &std::path::Path, content: &str) {
    let tmp = path.with_extension("tmp");
    let write = std::fs::write(&tmp, content).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = write {
        eprintln!("ant-sweepd: cannot write {} ({e})", path.display());
    }
}

/// Simulates every grid cell, resuming from per-cell checkpoints. The
/// result bytes are a pure function of the spec and the simulated stats —
/// no clocks, no attempt numbers — which is what makes a recovered run
/// byte-identical to an uninterrupted one.
fn execute_attempt(
    config: &SweepdConfig,
    spec: &JobSpec,
    deadline_at_ms: Option<u64>,
    inject_death: bool,
) -> Result<AttemptOutput, AntError> {
    if inject_death {
        panic!("chaos: injected job-worker death");
    }
    let net = spec.build_model();
    let hash = spec.content_hash();
    let mut csv = String::new();
    let mut jsonl = String::new();
    let mut out = AttemptOutput {
        csv: String::new(),
        jsonl: String::new(),
        pair_retries: 0,
        quarantined_pairs: 0,
        deadline_skipped: 0,
        deadline_exceeded: false,
    };
    for (ci, (machine_name, sparsity)) in spec.cells().into_iter().enumerate() {
        let machine = JobSpec::build_machine(&machine_name).ok_or_else(|| {
            AntError::invalid_config("machines", format!("unknown machine {machine_name:?}"))
        })?;
        let cfg = spec.experiment_config(sparsity);
        let ckpt_path = config.spool.join(format!("ckpt-{hash:016x}-c{ci}.jsonl"));
        let mut ckpt = CheckpointFile::resume(&ckpt_path, &cfg)?;
        let remaining_us = match deadline_at_ms {
            Some(deadline) => {
                let now = now_ms();
                if deadline <= now {
                    out.deadline_exceeded = true;
                    break;
                }
                Some((deadline - now) * 1000)
            }
            None => None,
        };
        let opts = RunOptions {
            threads: config.threads,
            progress: Some(config.progress),
            deadline_us: remaining_us,
            ..RunOptions::default()
        };
        let result = try_simulate_network_parallel_checkpointed(
            machine.as_ref(),
            &net,
            &cfg,
            &opts,
            &mut ckpt.scope(net.name, machine.name()),
        )?;
        out.pair_retries += result.failures.retries;
        out.quarantined_pairs += result.failures.failures.len() as u64;
        out.deadline_skipped += result.failures.deadline_skipped;
        if result.deadline_exceeded {
            out.deadline_exceeded = true;
            break;
        }
        if csv.is_empty() {
            csv.push_str("network,machine,sparsity");
            for (name, _) in result.total.fields() {
                csv.push(',');
                csv.push_str(name);
            }
            csv.push('\n');
        }
        csv.push_str(&format!("{},{},{sparsity}", net.name, machine.name()));
        for (_, value) in result.total.fields() {
            csv.push_str(&format!(",{value}"));
        }
        csv.push('\n');
        jsonl.push_str(&format!("{{\"schema\":\"{RESULT_SCHEMA}\",\"network\":"));
        write_json_string(net.name, &mut jsonl);
        jsonl.push_str(",\"machine\":");
        write_json_string(machine.name(), &mut jsonl);
        jsonl.push_str(&format!(",\"sparsity\":{sparsity},\"stats\":"));
        layer_log::write_counters(&result.total, &mut jsonl);
        jsonl.push_str("}\n");
    }
    out.csv = csv;
    out.jsonl = jsonl;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        let a: Vec<u64> = (1..=4).map(|n| backoff_ms(7, 42, n, 50)).collect();
        let b: Vec<u64> = (1..=4).map(|n| backoff_ms(7, 42, n, 50)).collect();
        assert_eq!(a, b, "same inputs, same schedule");
        for (i, wait) in a.iter().enumerate() {
            let exp = 50u64 << i;
            assert!(
                (exp..exp + 50).contains(wait),
                "attempt {}: {wait} outside [{exp}, {})",
                i + 1,
                exp + 50
            );
        }
        // Different seeds jitter differently (with overwhelming likelihood
        // for these fixed inputs — pinned, not probabilistic).
        assert_ne!(
            (1..=4)
                .map(|n| backoff_ms(8, 42, n, 50))
                .collect::<Vec<_>>(),
            a
        );
    }

    #[test]
    fn job_records_round_trip_through_the_spool_format() {
        let spec = JobSpec::parse(
            r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9],"weight":3,"deadline_ms":5000}"#,
        )
        .expect("spec parses");
        let job = Job {
            seq: 7,
            id: "alice-00c0ffee-7".to_string(),
            spec,
            state: JobState::Backoff,
            attempts: vec![AttemptRecord {
                attempt: 1,
                error: "panic in sweepd job: chaos".to_string(),
                backoff_ms: Some(61),
            }],
            submitted_ms: 1_000,
            deadline_at_ms: Some(6_000),
            recovered: false,
            pair_retries: 2,
            quarantined_pairs: 1,
            deadline_skipped: 0,
            duration_ms: None,
        };
        // write_job_record needs an Inner; emit via the same path a spool
        // file takes by rendering through a throwaway config.
        let dir = std::env::temp_dir().join(format!("ant-sweepd-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let inner = Inner {
            config: SweepdConfig {
                spool: dir.clone(),
                ..SweepdConfig::default()
            },
            state: Mutex::new(State {
                queue: FairQueue::new(4),
                jobs: BTreeMap::new(),
                backoff: Vec::new(),
                durations: VecDeque::new(),
                recent: VecDeque::new(),
                next_seq: 1,
            }),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            spool_writes: AtomicU64::new(0),
        };
        write_job_record(&inner, &job);
        let text = std::fs::read_to_string(dir.join("job-7.json")).expect("record written");
        let parsed = parse_job(&text).expect("record parses");
        assert_eq!(parsed.seq, job.seq);
        assert_eq!(parsed.id, job.id);
        assert_eq!(parsed.spec, job.spec);
        assert_eq!(parsed.state, JobState::Backoff);
        assert_eq!(parsed.attempts, job.attempts);
        assert_eq!(parsed.deadline_at_ms, Some(6_000));
        assert_eq!(parsed.pair_retries, 2);
        assert_eq!(parsed.quarantined_pairs, 1);
        // The record is the wire object without the queue fields, so it
        // renders back byte for byte.
        assert_eq!(job_object(&inner, &parsed, None) + "\n", text);
        assert!(parse_job("not json").is_none());
        assert!(parse_job("{\"schema\":\"other/1\"}").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
