//! End-to-end tests for `ant-sweepd`: typed shedding, weighted-fair
//! multi-tenancy, deterministic retry/backoff under service chaos, crash
//! recovery from the spool, the deadline/checkpoint interplay, and finished
//! jobs served back from the spool once they leave memory.
//!
//! Chaos is process-global, so everything lives in one `#[test]` (its own
//! binary); each phase runs its own daemon on an ephemeral port with its
//! own spool. The `kill -9` byte-identity proof lives in `ci.sh` (it needs
//! a real process to kill); here the same recovery path is driven
//! deterministically by spooling a job record by hand and letting a fresh
//! daemon recover it.

use ant_bench::checkpoint::CheckpointFile;
use ant_bench::runner::{
    simulate_network, try_simulate_network_parallel_checkpointed, ExperimentConfig, RunOptions,
};
use ant_bench::serve::{backoff_ms, http_post, Sweepd, SweepdConfig, RECENT_JOBS};
use ant_obs::export::http_get;
use ant_obs::json::Json;
use ant_sim::ant::AntAccelerator;
use ant_sim::chaos::{self, ChaosConfig, ServiceFault};
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
use ant_workloads::{ConvLayerSpec, NetworkModel};

/// The spec shared by the determinism phases: every daemon that runs it
/// must produce byte-identical result files.
const SPEC_ALICE: &str =
    r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#;
const SPEC_BOB: &str = r#"{"tenant":"bob","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#;

fn counter(name: &str) -> u64 {
    ant_obs::registry().counter(name).get()
}

fn config(spool: &std::path::Path, queue_capacity: usize) -> SweepdConfig {
    SweepdConfig {
        spool: spool.to_path_buf(),
        queue_capacity,
        max_attempts: 3,
        backoff_base_ms: 30,
        threads: Some(2),
        progress: false,
        ..SweepdConfig::default()
    }
}

fn start(config: SweepdConfig) -> (Sweepd, String) {
    let daemon = Sweepd::start(config).expect("daemon starts");
    let base = format!("http://{}", daemon.addr());
    (daemon, base)
}

fn daemon(spool: &std::path::Path, queue_capacity: usize) -> (Sweepd, String) {
    start(config(spool, queue_capacity))
}

fn get(base: &str, path: &str) -> (u16, String) {
    http_get(&format!("{base}{path}")).expect("GET succeeds")
}

fn post_job(base: &str, body: &str) -> (u16, String) {
    http_post(&format!("{base}/jobs"), body).expect("POST succeeds")
}

/// Polls `GET /jobs/{seq}` until the job reaches a terminal state;
/// returns the final job document.
fn wait_terminal(base: &str, seq: u64) -> Json {
    wait_state(base, seq, &["done", "quarantined", "expired"])
}

/// Polls `GET /jobs/{seq}` until the job's state is one of `states`;
/// returns that job document.
fn wait_state(base: &str, seq: u64, states: &[&str]) -> Json {
    let mut doc = None;
    wait_until(&format!("job {seq} to reach {states:?}"), || {
        let (code, body) = get(base, &format!("/jobs/{seq}"));
        if code != 200 {
            return false;
        }
        let parsed = ant_obs::parse_json(body.trim()).expect("job document parses");
        let reached = states.contains(&state_of(&parsed));
        doc = Some(parsed);
        reached
    });
    doc.expect("polled at least once")
}

/// Polls `ready` every 10ms; fails the test after two minutes.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !ready() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// The state a job's spool record holds, if it parses.
fn spooled_state(spool: &std::path::Path, seq: u64) -> Option<String> {
    let text = std::fs::read_to_string(spool.join(format!("job-{seq}.json"))).ok()?;
    let doc = ant_obs::parse_json(text.trim()).ok()?;
    Some(state_of(&doc).to_string())
}

/// The external id from a `202` submission body.
fn submitted_id(body: &str) -> String {
    let doc = ant_obs::parse_json(body.trim()).expect("submission body parses");
    doc.get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_string()
}

fn state_of(doc: &Json) -> &str {
    doc.get("state").and_then(Json::as_str).unwrap_or("?")
}

fn tiny_net(name: &'static str) -> NetworkModel {
    NetworkModel {
        name,
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

/// The CSV bytes the daemon must emit for `SPEC_ALICE`, computed directly
/// from the (serial, reference) runner.
fn expected_alice_csv() -> String {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net("tiny");
    let machine = AntAccelerator::paper_default();
    let result = simulate_network(&machine, &net, &cfg);
    let mut csv = String::from("network,machine,sparsity");
    for (name, _) in result.total.fields() {
        csv.push(',');
        csv.push_str(name);
    }
    csv.push('\n');
    csv.push_str(&format!("tiny,{},0.9", machine.name()));
    for (_, value) in result.total.fields() {
        csv.push_str(&format!(",{value}"));
    }
    csv.push('\n');
    csv
}

#[test]
fn sweepd_supervises_schedules_recovers_and_sheds() {
    let tmp = std::env::temp_dir().join(format!("ant-sweepd-test-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp root");
    let alice_csv = expected_alice_csv();

    // --- Phase A: validation and the read-only surface ---------------------
    {
        let (daemon, base) = daemon(&tmp.join("a"), 8);
        let (code, body) = post_job(&base, r#"{"tenant":"alice"}"#);
        assert_eq!(code, 400, "missing fields must 400: {body}");
        assert!(body.contains("\"schema\":\"ant-sweepd-error/1\""), "{body}");
        assert!(body.contains("\"kind\":\"invalid_spec\""), "{body}");
        let (code, body) = post_job(
            &base,
            r#"{"tenant":"alice","model":"tiny","machines":["warp"],"sparsities":[0.9]}"#,
        );
        assert_eq!(code, 400, "unknown machine must 400: {body}");
        assert!(body.contains("machines"), "error names the field: {body}");
        // 10,000 nested arrays (20 KB): a parser that recursed without a
        // bound would overflow the listener thread's stack and end the
        // daemon. They are a bad spec, and the daemon stays up.
        let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
        let (code, body) = post_job(&base, &deep);
        assert_eq!(code, 400, "deep nesting must 400: {body}");
        assert!(body.contains("\"kind\":\"invalid_spec\""), "{body}");
        let (code, body) = get(&base, "/healthz");
        assert_eq!((code, body.trim()), (200, "ok"));
        let (code, _) = get(&base, "/nope");
        assert_eq!(code, 404);
        let (code, body) = get(&base, "/jobs");
        assert_eq!(code, 200);
        assert!(body.contains("\"schema\":\"ant-sweepd-jobs/1\""), "{body}");
        let (code, body) = get(&base, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("ant_sweepd_queue_depth"), "{body}");
        daemon.shutdown();
    }

    // --- Phase B: past-deadline submissions shed with a typed 503 ----------
    {
        let (daemon, base) = daemon(&tmp.join("b"), 8);
        let shed_before = counter("sweepd.job.shed");
        let (code, body) = post_job(
            &base,
            r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9],"deadline_ms":0}"#,
        );
        assert_eq!(code, 503, "already-expired deadline must 503: {body}");
        assert!(body.contains("\"kind\":\"past_deadline\""), "{body}");
        assert_eq!(counter("sweepd.job.shed") - shed_before, 1);
        daemon.shutdown();
    }

    // --- Phase C: queue-full submissions shed with a typed 429 -------------
    // Capacity 1 and an injected stall on every attempt: the first job
    // occupies the scheduler, so the queue still holds a job when the last
    // submission arrives — it must be refused, not silently dropped.
    {
        chaos::set_override(Some(ChaosConfig {
            stall_prob: 1.0,
            ..ChaosConfig::quiet(21)
        }));
        let (daemon, base) = daemon(&tmp.join("c"), 1);
        let shed_before = counter("sweepd.job.shed");
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        std::thread::sleep(std::time::Duration::from_millis(15));
        let (code_b, _) = post_job(&base, SPEC_BOB);
        let (code_c, body_c) = post_job(&base, SPEC_BOB);
        assert_eq!(code_c, 429, "queue-full must 429: {body_c}");
        assert!(body_c.contains("\"kind\":\"queue_full\""), "{body_c}");
        let refused = u64::from(code_b == 429) + 1;
        assert_eq!(counter("sweepd.job.shed") - shed_before, refused);
        wait_terminal(&base, 1);
        chaos::set_override(None);
        daemon.shutdown();
    }

    // --- Phase D: multi-tenant runs are deterministic ----------------------
    // Same work submitted by two tenants: both complete and their result
    // files are byte-identical (bob's run resumes from the checkpoints
    // alice's run spooled, since the content hash ignores the tenant).
    {
        let spool = tmp.join("d");
        let (daemon, base) = daemon(&spool, 16);
        let (code, body) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202, "{body}");
        assert!(body.contains("\"schema\":\"ant-sweepd-job/1\""), "{body}");
        let (code, _) = post_job(&base, SPEC_BOB);
        assert_eq!(code, 202);
        let alice = wait_terminal(&base, 1);
        let bob = wait_terminal(&base, 2);
        assert_eq!(state_of(&alice), "done");
        assert_eq!(state_of(&bob), "done");
        let read = |seq: u64, ext: &str| {
            std::fs::read_to_string(spool.join(format!("job-{seq}.result.{ext}")))
                .expect("result file exists")
        };
        assert_eq!(
            read(1, "csv"),
            alice_csv,
            "daemon CSV diverged from the runner"
        );
        assert_eq!(
            read(1, "csv"),
            read(2, "csv"),
            "tenants saw different results"
        );
        assert_eq!(read(1, "jsonl"), read(2, "jsonl"));
        // The job board renders through obsctl's jobs view.
        let (_, board) = get(&base, "/jobs");
        let rendered = ant_bench::obsctl::jobs::render(board.trim()).expect("board renders");
        assert!(rendered.contains("alice"), "{rendered}");
        assert!(rendered.contains("bob"), "{rendered}");
        daemon.shutdown();
    }

    // --- Phase E: crash recovery from the spool ----------------------------
    // A job record left in "running" state (exactly what a kill -9 mid-job
    // leaves behind) is recovered on startup, re-enqueued, and runs to the
    // same bytes as a never-interrupted submission.
    {
        let spool = tmp.join("e");
        std::fs::create_dir_all(&spool).expect("create spool");
        let spec_escaped = SPEC_ALICE.replace('"', "\\\"");
        std::fs::write(
            spool.join("job-1.json"),
            format!(
                "{{\"schema\":\"ant-sweepd-job/1\",\"seq\":1,\"id\":\"alice-interrupted-1\",\
                 \"state\":\"running\",\"submitted_ms\":0,\"deadline_at_ms\":null,\
                 \"recovered\":false,\"pair_retries\":0,\"quarantined_pairs\":0,\
                 \"deadline_skipped\":0,\"duration_ms\":null,\"attempts\":[],\
                 \"spec\":\"{spec_escaped}\"}}\n"
            ),
        )
        .expect("spool the interrupted record");
        let recovered_before = counter("sweepd.job.recovered");
        let (daemon, base) = daemon(&spool, 8);
        assert_eq!(counter("sweepd.job.recovered") - recovered_before, 1);
        let doc = wait_terminal(&base, 1);
        assert_eq!(state_of(&doc), "done");
        assert_eq!(doc.get("recovered"), Some(&Json::Bool(true)));
        let csv = std::fs::read_to_string(spool.join("job-1.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "recovered run diverged");
        daemon.shutdown();
    }

    // --- Phase F: deterministic retry/backoff under service chaos ----------
    // Probe the chaos draw for a probability that kills attempt 1 of seq 1
    // but spares attempt 2: the job must die, back off by *exactly* the
    // schedule backoff_ms(seed, 1, 1, base) predicts, retry, and complete
    // with the same bytes as every other run of this spec.
    {
        let mut picked = None;
        'seeds: for chaos_seed in 1..64u64 {
            for p in 1..20 {
                let cfg = ChaosConfig {
                    job_prob: p as f64 / 20.0,
                    ..ChaosConfig::quiet(chaos_seed)
                };
                if cfg.service_fault_for(1, 1) == Some(ServiceFault::JobDeath)
                    && cfg.service_fault_for(1, 2).is_none()
                {
                    picked = Some(cfg);
                    break 'seeds;
                }
            }
        }
        let cfg = picked.expect("some (seed, prob) kills attempt 1 only");
        chaos::set_override(Some(cfg));
        let spool = tmp.join("f");
        let retries_before = counter("sweepd.job.retries");
        let (daemon, base) = daemon(&spool, 8);
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        let doc = wait_terminal(&base, 1);
        chaos::set_override(None);
        assert_eq!(
            state_of(&doc),
            "done",
            "job must survive one injected death"
        );
        assert_eq!(counter("sweepd.job.retries") - retries_before, 1);
        let attempts = doc
            .get("attempts")
            .and_then(Json::as_array)
            .expect("attempts");
        assert_eq!(attempts.len(), 1, "exactly one failed attempt");
        let error = attempts[0]
            .get("error")
            .and_then(Json::as_str)
            .expect("error");
        assert!(error.contains("injected job-worker death"), "{error}");
        // The backoff is a pure function of (daemon seed, seq, attempt).
        let expected = backoff_ms(SweepdConfig::default().seed, 1, 1, 30);
        assert_eq!(
            attempts[0].get("backoff_ms").and_then(Json::as_u64),
            Some(expected),
            "backoff schedule must be deterministic"
        );
        let csv = std::fs::read_to_string(spool.join("job-1.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "retried run diverged");
        daemon.shutdown();
    }

    // --- Phase G: deadlines expire jobs but retain their checkpoints -------
    // Under an injected stall on every attempt, job 1's 100ms deadline
    // passes inside its own attempt (it expires at the first cell), and job
    // 2, submitted once job 1 is running, expires while still queued: the
    // scheduler retires it under the state lock it already holds. Neither
    // publishes results, and an identical re-submission without a deadline
    // completes with the canonical bytes, resuming from whatever checkpoint
    // exists.
    {
        const SPEC_DEADLINE: &str = r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9],"deadline_ms":100}"#;
        chaos::set_override(Some(ChaosConfig {
            stall_prob: 1.0,
            ..ChaosConfig::quiet(21)
        }));
        let spool = tmp.join("g");
        let expired_before = counter("sweepd.job.expired");
        let (daemon, base) = daemon(&spool, 8);
        let (code, _) = post_job(&base, SPEC_DEADLINE);
        assert_eq!(code, 202, "a 100ms deadline is admitted (only 0 is shed)");
        wait_state(&base, 1, &["running"]);
        let (code, _) = post_job(&base, &SPEC_DEADLINE.replace("alice", "bob"));
        assert_eq!(code, 202);
        let ran = wait_terminal(&base, 1);
        let queued = wait_terminal(&base, 2);
        chaos::set_override(None);
        assert_eq!(state_of(&ran), "expired");
        assert_eq!(state_of(&queued), "expired");
        let attempts = |doc: &Json| doc.get("attempt_count").and_then(Json::as_u64);
        assert_eq!(attempts(&ran), Some(1), "job 1 expired inside its attempt");
        assert_eq!(attempts(&queued), Some(0), "job 2 expired before running");
        assert_eq!(counter("sweepd.job.expired") - expired_before, 2);
        for seq in [1, 2] {
            assert!(
                !spool.join(format!("job-{seq}.result.csv")).exists(),
                "an expired job must not publish results"
            );
        }
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        let doc = wait_terminal(&base, 3);
        assert_eq!(state_of(&doc), "done");
        let csv = std::fs::read_to_string(spool.join("job-3.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "post-expiry resubmission diverged");
        daemon.shutdown();
    }

    // --- Phase H: the runner-level deadline/checkpoint interplay -----------
    // (no daemon) A warm checkpoint for layer 0 plus a zero deadline: the
    // run cancels at the pair boundary (only layer 1's pairs are skipped —
    // checkpointed layers never reach the workers), the sidecar retains
    // layer 0, a deadline-free rerun resumes to byte-identical totals, and
    // once fully checkpointed even a zero deadline has nothing to cancel.
    {
        let cfg = ExperimentConfig::paper_default();
        let full = tiny_net("deadline-tiny");
        let prefix = NetworkModel {
            name: "deadline-tiny",
            layers: vec![full.layers[0].clone()],
        };
        let pe = ScnnPlus::paper_default();
        let baseline = simulate_network(&pe, &full, &cfg);
        let opts = RunOptions {
            threads: Some(2),
            ..RunOptions::default()
        };
        let zero_deadline = RunOptions {
            deadline_us: Some(0),
            ..opts
        };
        let path = tmp.join("deadline-ckpt.jsonl");
        // Warm layer 0 via the one-layer prefix.
        let mut ckpt = CheckpointFile::create(&path, &cfg).expect("create checkpoint");
        try_simulate_network_parallel_checkpointed(
            &pe,
            &prefix,
            &cfg,
            &opts,
            &mut ckpt.scope(full.name, "SCNN+"),
        )
        .expect("prefix run");
        drop(ckpt);
        // Zero deadline: cancelled at the boundary, layer 0 untouched.
        let mut ckpt = CheckpointFile::resume(&path, &cfg).expect("resume");
        assert_eq!(ckpt.resumable_layers(), 1, "layer 0 is checkpointed");
        let cancelled = try_simulate_network_parallel_checkpointed(
            &pe,
            &full,
            &cfg,
            &zero_deadline,
            &mut ckpt.scope(full.name, "SCNN+"),
        )
        .expect("cancelled run still returns");
        assert!(cancelled.deadline_exceeded && cancelled.partial);
        assert!(
            cancelled.failures.deadline_skipped > 0,
            "layer 1's pairs are skipped at the boundary"
        );
        drop(ckpt);
        // The checkpoint survives the cancelled run; a deadline-free rerun
        // resumes and lands on the baseline bytes.
        let mut ckpt = CheckpointFile::resume(&path, &cfg).expect("resume again");
        assert_eq!(
            ckpt.resumable_layers(),
            1,
            "cancellation retained the sidecar"
        );
        let resumed = try_simulate_network_parallel_checkpointed(
            &pe,
            &full,
            &cfg,
            &opts,
            &mut ckpt.scope(full.name, "SCNN+"),
        )
        .expect("resumed run");
        assert!(!resumed.deadline_exceeded && !resumed.partial);
        assert_eq!(resumed.total, baseline.total, "resume diverged");
        drop(ckpt);
        // Fully checkpointed: a zero deadline has no pair jobs to cancel.
        let mut ckpt = CheckpointFile::resume(&path, &cfg).expect("resume warm");
        assert_eq!(ckpt.resumable_layers(), 2);
        let warm = try_simulate_network_parallel_checkpointed(
            &pe,
            &full,
            &cfg,
            &zero_deadline,
            &mut ckpt.scope(full.name, "SCNN+"),
        )
        .expect("warm run");
        assert!(
            !warm.deadline_exceeded,
            "resume means restart-free: nothing left to cancel"
        );
        assert_eq!(warm.total, baseline.total);
    }

    // --- Phase I: the default, progress-on daemon --------------------------
    // Every other phase runs with progress off. At the default each cell
    // also publishes its final status, and the job still ends on the
    // canonical bytes.
    {
        assert!(
            SweepdConfig::default().progress,
            "progress is on by default"
        );
        let spool = tmp.join("i");
        let (daemon, base) = start(SweepdConfig {
            progress: SweepdConfig::default().progress,
            ..config(&spool, 8)
        });
        let (code, _) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202);
        let doc = wait_terminal(&base, 1);
        assert_eq!(state_of(&doc), "done");
        let csv = std::fs::read_to_string(spool.join("job-1.result.csv")).expect("result");
        assert_eq!(csv, alice_csv, "progress-on run diverged");
        let (code, body) = get(&base, "/status");
        assert_eq!(code, 200, "{body}");
        let status = ant_obs::parse_json(body.trim()).expect("status parses");
        assert_eq!(state_of(&status), "done");
        assert_eq!(status.get("network").and_then(Json::as_str), Some("tiny"));
        let pairs = |key: &str| status.get(key).and_then(Json::as_u64);
        assert_eq!(pairs("pairs_done"), pairs("pairs_total"));
        daemon.shutdown();
    }

    // --- Phase J: finished jobs live in the spool --------------------------
    // Finish RECENT_JOBS + 2 jobs. Job 1 then leaves memory, and
    // `GET /jobs/{id}` serves it back from the spool as the same document;
    // an id whose tenant or hash disagrees with the record 404s. Job 2's
    // terminal record write is faulted, so memory is its only record and
    // it stays listed. A restart keeps numbering past the spool.
    {
        let total = RECENT_JOBS as u64 + 2;
        // Writes per job: queued, running, terminal. Probe for a spool
        // fault that strikes write 5 (job 2's terminal record) and no other
        // write of this phase.
        let writes = 3 * total + 8;
        let faulted = 5;
        let fault_cfg = (1..100_000u64)
            .flat_map(|seed| {
                [1e-3, 3e-3, 1e-2].map(|p| ChaosConfig {
                    spool_prob: p,
                    ..ChaosConfig::quiet(seed)
                })
            })
            .find(|c| (0..writes).all(|i| c.spool_fault_for(i) == (i == faulted)))
            .expect("some seed faults exactly one write");
        chaos::set_override(Some(fault_cfg));
        let spool = tmp.join("j");
        let (daemon, base) = daemon(&spool, total as usize);
        // Jobs 1 and 2 run one at a time, so their writes take indices 0-5.
        let (code, body) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202, "{body}");
        let id1 = submitted_id(&body);
        wait_until("job 1's terminal record", || {
            spooled_state(&spool, 1).as_deref() == Some("done")
        });
        let (_, before) = get(&base, &format!("/jobs/{id1}"));
        let io_errors = counter("sweepd.spool.io_errors");
        let (code, _) = post_job(&base, SPEC_BOB);
        assert_eq!(code, 202);
        assert_eq!(state_of(&wait_terminal(&base, 2)), "done");
        wait_until("job 2's faulted write", || {
            counter("sweepd.spool.io_errors") > io_errors
        });
        assert_ne!(spooled_state(&spool, 2).as_deref(), Some("done"));
        for i in 3..=total {
            let spec = if i % 2 == 0 { SPEC_BOB } else { SPEC_ALICE };
            assert_eq!(post_job(&base, spec).0, 202);
        }
        for seq in 3..=total {
            assert_eq!(state_of(&wait_terminal(&base, seq)), "done");
        }
        chaos::set_override(None);
        assert_eq!(counter("sweepd.spool.io_errors") - io_errors, 1);

        // The board lists the last RECENT_JOBS finished jobs plus job 2. A
        // job reads `done` just before its record is written and it is
        // retired, so wait for the last retirement to evict job 1.
        let listed = || -> Vec<u64> {
            let (_, board) = get(&base, "/jobs");
            let board = ant_obs::parse_json(board.trim()).expect("board parses");
            board
                .get("jobs")
                .and_then(Json::as_array)
                .expect("jobs")
                .iter()
                .filter_map(|j| j.get("seq").and_then(Json::as_u64))
                .collect()
        };
        wait_until("job 1 to leave memory", || !listed().contains(&1));
        let expected: Vec<u64> = std::iter::once(2).chain(3..=total).collect();
        assert_eq!(listed(), expected);

        // Job 1 left memory; its record serves the same document, by id or
        // by seq, and only under its own tenant and hash.
        assert_eq!(get(&base, &format!("/jobs/{id1}")), (200, before.clone()));
        assert_eq!(get(&base, "/jobs/1"), (200, before.clone()));
        let hash = id1.split('-').nth(1).expect("id carries the spec hash");
        assert_eq!(get(&base, &format!("/jobs/bob-{hash}-1")).0, 404);
        let other_hash = if hash == "00000000" {
            "00000001"
        } else {
            "00000000"
        };
        assert_eq!(get(&base, &format!("/jobs/alice-{other_hash}-1")).0, 404);
        assert_eq!(get(&base, &format!("/jobs/{}", total + 1)).0, 404);
        daemon.shutdown();

        // Restart on the spool: job 1 is still served from its record, and
        // a new submission numbers past every spooled seq.
        let (restarted, base) = start(config(&spool, 8));
        assert_eq!(get(&base, &format!("/jobs/{id1}")), (200, before));
        let (code, body) = post_job(&base, SPEC_ALICE);
        assert_eq!(code, 202, "{body}");
        let next = total + 1;
        assert!(submitted_id(&body).ends_with(&format!("-{next}")), "{body}");
        assert_eq!(state_of(&wait_terminal(&base, next)), "done");
        restarted.shutdown();
    }

    let _ = std::fs::remove_dir_all(&tmp);
}
