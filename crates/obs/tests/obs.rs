//! Integration tests for ant-obs.
//!
//! The trace sink is process-global, so every test that installs one (or
//! asserts tracing is off) serializes through [`SINK_GUARD`]; Rust runs
//! integration tests in threads within one process.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ant_obs::json::Json;
use ant_obs::{metrics, trace, RunManifest, Value};

fn sink_guard() -> &'static Mutex<()> {
    static SINK_GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    SINK_GUARD.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with a fresh in-memory sink installed and returns the parsed
/// records it emitted.
fn with_sink<F: FnOnce()>(detail: bool, f: F) -> Vec<Json> {
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    let (sink, memory) = ant_obs::Sink::in_memory();
    trace::install(Arc::new(sink), detail);
    f();
    trace::uninstall();
    memory.parsed()
}

#[test]
fn spans_nest_and_time_monotonically() {
    let records = with_sink(false, || {
        let mut outer = ant_obs::span("outer");
        outer.record("machine", "ANT");
        {
            let mut inner = ant_obs::span("inner");
            inner.record("layer", 3u64);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
    assert_eq!(records.len(), 2, "two span records expected");
    // Children drop first, so "inner" is written before "outer".
    let inner = &records[0];
    let outer = &records[1];
    assert_eq!(inner.get("name").unwrap().as_str(), Some("inner"));
    assert_eq!(outer.get("name").unwrap().as_str(), Some("outer"));
    assert_eq!(inner.get("kind").unwrap().as_str(), Some("span"));

    // Parent linkage and path.
    let outer_id = outer.get("span").unwrap().as_u64().unwrap();
    assert_eq!(inner.get("parent").unwrap().as_u64(), Some(outer_id));
    assert!(outer.get("parent").is_none());
    assert_eq!(inner.get("path").unwrap().as_str(), Some("outer/inner"));
    assert_eq!(outer.get("path").unwrap().as_str(), Some("outer"));

    // Timing: child starts no earlier than parent, child fits inside
    // parent's duration, both durations reflect the sleeps.
    let outer_ts = outer.get("ts_us").unwrap().as_u64().unwrap();
    let inner_ts = inner.get("ts_us").unwrap().as_u64().unwrap();
    let outer_dur = outer.get("dur_us").unwrap().as_u64().unwrap();
    let inner_dur = inner.get("dur_us").unwrap().as_u64().unwrap();
    assert!(inner_ts >= outer_ts);
    assert!(inner_dur <= outer_dur);
    assert!(inner_dur >= 2_000, "inner slept 2ms, got {inner_dur}us");
    assert!(outer_dur >= 3_000, "outer covers 3ms, got {outer_dur}us");

    // Fields round-trip typed.
    assert_eq!(
        outer
            .get("fields")
            .unwrap()
            .get("machine")
            .unwrap()
            .as_str(),
        Some("ANT")
    );
    assert_eq!(
        inner.get("fields").unwrap().get("layer").unwrap().as_u64(),
        Some(3)
    );
}

#[test]
fn sibling_spans_share_a_parent_and_ts_is_entry_time() {
    let records = with_sink(false, || {
        let _root = ant_obs::span("root");
        for _ in 0..2 {
            let _child = ant_obs::span("child");
        }
    });
    assert_eq!(records.len(), 3);
    let root = &records[2];
    let root_id = root.get("span").unwrap().as_u64().unwrap();
    for child in &records[0..2] {
        assert_eq!(child.get("parent").unwrap().as_u64(), Some(root_id));
        assert_eq!(child.get("path").unwrap().as_str(), Some("root/child"));
    }
    // Span ids are unique.
    let id0 = records[0].get("span").unwrap().as_u64().unwrap();
    let id1 = records[1].get("span").unwrap().as_u64().unwrap();
    assert_ne!(id0, id1);
    // The record order is completion order, but ts_us is entry order:
    // root entered before both children.
    let root_ts = root.get("ts_us").unwrap().as_u64().unwrap();
    assert!(records[0].get("ts_us").unwrap().as_u64().unwrap() >= root_ts);
}

#[test]
fn events_attach_to_the_open_span() {
    let records = with_sink(false, || {
        let _span = ant_obs::span("work");
        ant_obs::event("tick", &[("n", Value::U64(7))]);
    });
    let event = &records[0];
    let span = &records[1];
    assert_eq!(event.get("kind").unwrap().as_str(), Some("event"));
    assert_eq!(event.get("name").unwrap().as_str(), Some("tick"));
    assert_eq!(
        event.get("parent").unwrap().as_u64(),
        span.get("span").unwrap().as_u64()
    );
    assert_eq!(
        event.get("fields").unwrap().get("n").unwrap().as_u64(),
        Some(7)
    );
}

#[test]
fn every_line_round_trips_through_the_parser() {
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    let (sink, memory) = ant_obs::Sink::in_memory();
    trace::install(Arc::new(sink), true);
    {
        let mut span = ant_obs::span("tricky \"name\"\nwith newline");
        span.record("ratio", 0.25f64);
        span.record("neg", -3i64);
        span.record("flag", true);
        span.record("text", "comma, \"quote\", line\nbreak");
        span.record("nan", f64::NAN);
    }
    trace::uninstall();
    let contents = memory.contents();
    assert!(contents.ends_with('\n'));
    for line in contents.lines() {
        let json = ant_obs::parse_json(line).expect("line must be valid JSON");
        assert!(json.get("kind").is_some());
        assert!(json.get("ts_us").is_some());
    }
    let parsed = memory.parsed();
    let fields = parsed[0].get("fields").unwrap();
    assert_eq!(fields.get("ratio").unwrap().as_f64(), Some(0.25));
    assert_eq!(fields.get("neg").unwrap().as_f64(), Some(-3.0));
    assert_eq!(fields.get("flag").unwrap().as_bool(), Some(true));
    assert_eq!(
        fields.get("text").unwrap().as_str(),
        Some("comma, \"quote\", line\nbreak")
    );
    assert_eq!(fields.get("nan"), Some(&Json::Null));
}

#[test]
fn disabled_tracing_is_inert_and_fast() {
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    trace::uninstall();
    assert!(!ant_obs::enabled());
    assert!(!ant_obs::detail_enabled());

    // Spans must be no-ops: no recording, no id, no panic on record.
    let mut span = ant_obs::span("ghost");
    assert!(!span.is_recording());
    assert!(span.id().is_none());
    span.record("k", 1u64);
    drop(span);

    // Fast exit: a million disabled spans must cost microseconds each at
    // most. The bound is deliberately loose (CI machines vary); the real
    // guard is that this loop doesn't take seconds.
    let start = Instant::now();
    for i in 0..1_000_000u64 {
        let mut s = ant_obs::span("hot");
        if s.is_recording() {
            s.record("i", i);
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 1_000,
        "1M disabled spans took {elapsed:?}; the disabled path regressed"
    );
}

#[test]
fn histogram_percentiles_use_nearest_rank() {
    let hist = metrics::Histogram::new();
    assert_eq!(hist.percentile(50.0), None);
    for v in [15.0, 20.0, 35.0, 40.0, 50.0] {
        hist.record(v);
    }
    // Canonical nearest-rank example: p30 of {15,20,35,40,50} is 20.
    assert_eq!(hist.percentile(30.0), Some(20.0));
    assert_eq!(hist.percentile(40.0), Some(20.0));
    assert_eq!(hist.percentile(50.0), Some(35.0));
    assert_eq!(hist.percentile(100.0), Some(50.0));
    assert_eq!(hist.percentile(0.0), Some(15.0));
    assert_eq!(hist.min(), Some(15.0));
    assert_eq!(hist.max(), Some(50.0));
    assert_eq!(hist.mean(), Some(32.0));
    assert_eq!(hist.count(), 5);
    // Out-of-range p clamps; non-finite samples are dropped.
    assert_eq!(hist.percentile(150.0), Some(50.0));
    hist.record(f64::INFINITY);
    assert_eq!(hist.count(), 5);
}

#[test]
fn single_sample_histogram_is_every_percentile() {
    let hist = metrics::Histogram::new();
    hist.record(42.0);
    for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
        assert_eq!(hist.percentile(p), Some(42.0), "p{p}");
    }
}

#[test]
fn all_equal_samples_collapse_every_percentile() {
    let hist = metrics::Histogram::new();
    for _ in 0..7 {
        hist.record(9.0);
    }
    for p in [0.0, 25.0, 50.0, 95.0, 100.0] {
        assert_eq!(hist.percentile(p), Some(9.0), "p{p}");
    }
    assert_eq!(hist.min(), Some(9.0));
    assert_eq!(hist.max(), Some(9.0));
    assert_eq!(hist.mean(), Some(9.0));
    assert_eq!(hist.count(), 7);
}

#[test]
fn registry_snapshot_is_sorted_and_typed() {
    let registry = metrics::Registry::new();
    registry.counter("pairs").add(10);
    registry.counter("pairs").incr();
    registry.gauge("speedup").set(2.5);
    registry.histogram("latency_us").record(5.0);
    registry.histogram("latency_us").record(15.0);

    // Instruments are shared by name.
    assert_eq!(registry.counter("pairs").get(), 11);
    assert_eq!(registry.gauge("speedup").get(), 2.5);

    let snapshot = registry.snapshot();
    let keys: Vec<&str> = snapshot.iter().map(|(k, _)| k.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "snapshot must be sorted");
    let lookup = |k: &str| {
        snapshot
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(lookup("pairs"), Some(Value::U64(11)));
    assert_eq!(lookup("speedup"), Some(Value::F64(2.5)));
    assert_eq!(lookup("latency_us.count"), Some(Value::U64(2)));
    assert_eq!(lookup("latency_us.p50"), Some(Value::F64(5.0)));
    assert_eq!(lookup("latency_us.max"), Some(Value::F64(15.0)));

    registry.clear();
    assert!(registry.snapshot().is_empty());
}

#[test]
fn manifest_is_complete_and_parses() {
    let registry = metrics::Registry::new();
    registry.counter("networks").add(6);

    let mut manifest = RunManifest::new("test_run");
    manifest
        .config("sparsity", 0.9f64)
        .config("num_pes", 64u64)
        .config("machine", "ANT");
    manifest.stat("total_mults", 123_456u64);
    manifest.record_registry(&registry);
    manifest.output("target/experiments/test_run.csv");

    let json = ant_obs::parse_json(&manifest.to_json()).expect("manifest must be valid JSON");
    assert_eq!(json.get("schema").unwrap().as_str(), Some("ant-manifest/1"));
    assert_eq!(json.get("name").unwrap().as_str(), Some("test_run"));
    assert!(json.get("started_at_unix_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(json.get("duration_us").unwrap().as_u64().is_some());
    // git_revision is present (null outside a repo; a 40-hex string inside).
    let rev = json.get("git_revision").expect("git_revision key present");
    if let Some(rev) = rev.as_str() {
        assert!(rev.len() >= 7, "short revision: {rev}");
    }
    assert!(json.get("os").unwrap().as_str().is_some());
    assert!(json.get("arch").unwrap().as_str().is_some());
    assert!(json.get("trace_file").is_some());
    let config = json.get("config").unwrap();
    assert_eq!(config.get("sparsity").unwrap().as_f64(), Some(0.9));
    assert_eq!(config.get("num_pes").unwrap().as_u64(), Some(64));
    assert_eq!(config.get("machine").unwrap().as_str(), Some("ANT"));
    let stats = json.get("stats").unwrap();
    assert_eq!(stats.get("total_mults").unwrap().as_u64(), Some(123_456));
    assert_eq!(stats.get("networks").unwrap().as_u64(), Some(6));
    let outputs = json.get("outputs").unwrap().as_array().unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].as_str(), Some("target/experiments/test_run.csv"));
}

#[test]
fn manifest_host_section_carries_host_stats_and_alloc_flag() {
    let mut manifest = RunManifest::new("host_test");
    manifest.host_stat("sim_wall_us", 1234u64);
    manifest.host_stat("pairs_per_sec", 2.5f64);
    manifest.record_alloc_stats();

    let json = ant_obs::parse_json(&manifest.to_json()).expect("manifest parses");
    let host = json.get("host").expect("host section present");
    assert_eq!(host.get("sim_wall_us").unwrap().as_u64(), Some(1234));
    assert_eq!(host.get("pairs_per_sec").unwrap().as_f64(), Some(2.5));
    // This test binary does not install the counting allocator, so the
    // probe must report counting inactive and omit the counter fields.
    assert_eq!(host.get("alloc_counting").unwrap().as_bool(), Some(false));
    assert!(host.get("alloc_allocs").is_none());
}

#[test]
fn manifest_stats_and_host_sections_are_key_sorted() {
    // Entries recorded in scrambled order (as different thread counts or
    // registry timings would produce) must serialize identically: `stats`
    // and `host` are sorted at write time, `config` keeps insertion order.
    let mut a = RunManifest::new("sorted");
    a.config("zeta", 1u64).config("alpha", 2u64);
    a.stat("worker.01.busy_us", 10u64)
        .stat("runner.pairs", 4u64)
        .stat("worker.00.busy_us", 9u64);
    a.host_stat("sim_wall_us", 100u64)
        .host_stat("alloc_counting", false);

    let json = a.to_json();
    let stats_section = json
        .split("\"stats\":{")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .expect("stats section");
    let keys: Vec<&str> = stats_section
        .split(',')
        .filter_map(|kv| kv.split(':').next())
        .map(|k| k.trim_matches('"'))
        .collect();
    assert_eq!(
        keys,
        ["runner.pairs", "worker.00.busy_us", "worker.01.busy_us"]
    );
    let host_section = json
        .split("\"host\":{")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .expect("host section");
    assert!(
        host_section.find("alloc_counting").unwrap() < host_section.find("sim_wall_us").unwrap()
    );
    // Config order is untouched.
    let config_section = json.split("\"config\":{").nth(1).unwrap();
    assert!(config_section.find("zeta").unwrap() < config_section.find("alpha").unwrap());

    // A second manifest with the same entries recorded in another order
    // serializes the same sections byte-for-byte.
    let mut b = RunManifest::new("sorted");
    b.config("zeta", 1u64).config("alpha", 2u64);
    b.stat("worker.00.busy_us", 9u64)
        .stat("worker.01.busy_us", 10u64)
        .stat("runner.pairs", 4u64);
    b.host_stat("alloc_counting", false)
        .host_stat("sim_wall_us", 100u64);
    let section = |text: &str, name: &str| {
        text.split(&format!("\"{name}\":{{"))
            .nth(1)
            .and_then(|s| s.split('}').next())
            .map(str::to_string)
    };
    let other = b.to_json();
    assert_eq!(section(&json, "stats"), section(&other, "stats"));
    assert_eq!(section(&json, "host"), section(&other, "host"));
}

#[test]
fn span_records_alloc_delta_fields_when_counting_enabled() {
    ant_obs::alloc::enable();
    let records = with_sink(false, || {
        let _span = ant_obs::span("alloc_probe");
    });
    ant_obs::alloc::disable();
    let fields = records[0].get("fields").expect("span has fields");
    // Without the installed allocator the deltas are zero, but the fields
    // must still be attached whenever counting is enabled.
    assert!(fields.get("allocs").unwrap().as_u64().is_some());
    assert!(fields.get("alloc_bytes").unwrap().as_u64().is_some());
    assert!(fields.get("alloc_net_bytes").is_some());
}

#[test]
fn file_sink_creates_nested_parent_directories() {
    // ANT_TRACE_FILE pointing into a directory that does not exist yet must
    // not panic: the sink creates the parents.
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("ant_obs_sink_nested_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("a/b/c/trace.jsonl");
    let sink = ant_obs::Sink::to_path(&path).expect("open sink with missing parents");
    drop(sink);
    assert!(path.parent().unwrap().is_dir());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_writes_a_sidecar_file() {
    let dir = std::env::temp_dir().join(format!("ant_obs_manifest_{}", std::process::id()));
    let mut manifest = RunManifest::new("sidecar");
    manifest.config("k", 1u64);
    let path = manifest.write_to_dir(&dir).expect("write manifest");
    assert!(path.ends_with("sidecar.manifest.json"));
    let body = std::fs::read_to_string(&path).expect("read back");
    ant_obs::parse_json(body.trim()).expect("file contents parse");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_sink_writes_parseable_lines() {
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("ant_obs_sink_{}", std::process::id()));
    let path = dir.join("trace.jsonl");
    let sink = ant_obs::Sink::to_path(&path).expect("open sink");
    trace::install(Arc::new(sink), false);
    {
        let _span = ant_obs::span("file_backed");
    }
    trace::uninstall();
    let body = std::fs::read_to_string(&path).expect("trace file exists");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 1);
    let json = ant_obs::parse_json(lines[0]).expect("parse");
    assert_eq!(json.get("name").unwrap().as_str(), Some("file_backed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detail_flag_gates_detail_events() {
    let records = with_sink(true, || {
        assert!(ant_obs::detail_enabled());
    });
    assert!(records.is_empty());
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    assert!(!ant_obs::detail_enabled(), "uninstall must clear detail");
}

#[test]
fn spans_on_separate_threads_do_not_interfere() {
    let records = with_sink(false, || {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut outer = ant_obs::span("thread");
                    outer.record("i", i as u64);
                    let _inner = ant_obs::span("leaf");
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });
    assert_eq!(records.len(), 8);
    // Each leaf's path is thread/leaf — stacks are per-thread, so no
    // cross-thread nesting ever appears.
    for record in &records {
        let path = record.get("path").unwrap().as_str().unwrap();
        assert!(path == "thread" || path == "thread/leaf", "bad path {path}");
    }
}

#[test]
fn a_worker_that_enters_its_callers_context_nests_under_it() {
    let records = with_sink(false, || {
        let outer = ant_obs::span("caller");
        let context = ant_obs::span_context();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _entered = context.enter();
                let _worker = ant_obs::span("worker");
            });
            scope.spawn(|| {
                let _worker = ant_obs::span("worker");
            });
        });
        // The caller's own stack is untouched by the workers.
        let _leaf = ant_obs::span("leaf");
        drop(outer);
    });
    let caller = records
        .iter()
        .find(|r| r.get("name").unwrap().as_str() == Some("caller"))
        .unwrap();
    let caller_id = caller.get("span").unwrap().as_u64();
    let mut worker_paths: Vec<(&str, Option<u64>)> = records
        .iter()
        .filter(|r| r.get("name").unwrap().as_str() == Some("worker"))
        .map(|r| {
            let parent = r.get("parent").and_then(|p| p.as_u64());
            (r.get("path").unwrap().as_str().unwrap(), parent)
        })
        .collect();
    worker_paths.sort();
    assert_eq!(
        worker_paths,
        [("caller/worker", caller_id), ("worker", None)]
    );
    let leaf = records
        .iter()
        .find(|r| r.get("name").unwrap().as_str() == Some("leaf"))
        .unwrap();
    assert_eq!(leaf.get("path").unwrap().as_str(), Some("caller/leaf"));
    // Entering a context captured with tracing off changes nothing.
    let empty = ant_obs::span_context();
    let _entered = empty.enter();
    assert_eq!(ant_obs::current_span_id(), None);
}

#[test]
fn failing_file_sink_disables_tracing_and_keeps_running() {
    // `/dev/full` accepts the open but fails every write with ENOSPC —
    // exactly the mid-run disk-full case the sink must survive. Skip on
    // platforms without it.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let _guard = sink_guard().lock().unwrap_or_else(|e| e.into_inner());
    let sink = ant_obs::Sink::to_path(std::path::Path::new("/dev/full")).expect("open /dev/full");
    trace::install(Arc::new(sink), false);
    assert!(ant_obs::enabled());
    // First span emission hits the write failure; the sink uninstalls
    // itself after one warning instead of panicking or retrying forever.
    drop(ant_obs::span("doomed"));
    assert!(!ant_obs::enabled(), "failed sink must disable tracing");
    // Later spans are plain no-ops.
    drop(ant_obs::span("after"));
    trace::uninstall();
}
