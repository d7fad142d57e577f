//! End-to-end tests of the bench-history ledger: record a real (tiny)
//! run, append/load round-trips through a file, and the regression gate's
//! acceptance behavior (10% injected cycle regression flagged, self-compare
//! clean).

use std::collections::BTreeMap;
use std::path::PathBuf;

use ant_bench::history::{self, HistoryEntry, WorkloadSet, DEFAULT_THRESHOLD};

fn temp_ledger(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ant-bench-history-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn record_tiny_produces_complete_entry() {
    let entry = history::record(WorkloadSet::Tiny, 2);
    assert_eq!(entry.label, "tiny");
    assert_eq!(entry.repeats, 2);
    for metric in [
        "tiny/scnn_cycles",
        "tiny/ant_cycles",
        "tiny/scnn_energy_uj",
        "tiny/ant_energy_uj",
        "tiny/wall_us",
        "tiny/wall_us_spread",
        "tiny/effectual_macs_per_sec",
    ] {
        assert!(entry.metrics.contains_key(metric), "missing {metric}");
    }
    assert!(entry.metrics["tiny/scnn_cycles"] > 0.0);
    assert!(entry.metrics["tiny/ant_cycles"] > 0.0);
    // The test binary links ant-bench, so the counting allocator is the
    // global allocator and record() enables it: alloc metrics must exist
    // and show real traffic.
    assert!(
        entry
            .metrics
            .get("tiny/alloc_bytes")
            .copied()
            .unwrap_or(0.0)
            > 0.0,
        "counting allocator saw no traffic: {:?}",
        entry.metrics
    );
    assert!(entry.metrics["tiny/allocs"] > 0.0);
}

#[test]
fn record_is_deterministic_in_simulated_metrics() {
    let a = history::record(WorkloadSet::Tiny, 1);
    // Later cold repeats run at their own seeds; the simulated metrics
    // still come from the first repeat alone.
    let b = history::record(WorkloadSet::Tiny, 3);
    for metric in [
        "tiny/scnn_cycles",
        "tiny/ant_cycles",
        "tiny/scnn_energy_uj",
        "tiny/ant_energy_uj",
    ] {
        assert_eq!(a.metrics[metric], b.metrics[metric], "{metric} drifted");
    }
}

#[test]
fn ledger_appends_and_loads_round_trip() {
    let path = temp_ledger("round-trip");
    let first = history::record(WorkloadSet::Tiny, 1);
    history::append(&path, &first).expect("append first");
    let mut second = first.clone();
    second.timestamp_unix_ms += 1;
    history::append(&path, &second).expect("append second");
    let loaded = history::load(&path).expect("load");
    assert_eq!(loaded.len(), 2);
    assert_eq!(loaded[0], first);
    assert_eq!(loaded[1], second);
    std::fs::remove_file(&path).ok();
}

#[test]
fn loading_missing_ledger_is_empty_not_error() {
    let path = temp_ledger("never-written");
    std::fs::remove_file(&path).ok();
    assert_eq!(history::load(&path).expect("missing file ok"), Vec::new());
}

#[test]
fn loading_corrupt_ledger_names_the_line() {
    let path = temp_ledger("corrupt");
    std::fs::write(&path, "{\"schema\":\"ant-bench-history/1\"\nnot json\n").expect("write");
    let err = history::load(&path).expect_err("corrupt ledger");
    assert!(err.to_string().contains(":1:"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn lenient_load_skips_corrupt_lines_and_counts_them() {
    // A killed run can truncate the last line mid-write; the compare path
    // must still see every intact entry rather than refusing the ledger.
    let path = temp_ledger("lenient");
    let good = history::record(WorkloadSet::Tiny, 1);
    history::append(&path, &good).expect("append good");
    let mut text = std::fs::read_to_string(&path).expect("read back");
    text.push_str("not json at all\n");
    text.push_str(&good.to_json_line()[..40]); // truncated mid-write
    text.push('\n');
    std::fs::write(&path, text).expect("corrupt");
    let (entries, skipped) = history::load_lenient(&path).expect("lenient load");
    assert_eq!(entries, vec![good]);
    assert_eq!(skipped, 2);
    std::fs::remove_file(&path).ok();
}

/// Acceptance: a recorded run compared against itself reports zero
/// regressions, and the same run with a 10% injected cycle regression is
/// flagged at the default 5% threshold.
#[test]
fn self_compare_is_clean_and_injected_regression_is_flagged() {
    let entry = history::record(WorkloadSet::Tiny, 1);

    let self_report = history::compare(&entry, &entry, DEFAULT_THRESHOLD);
    assert!(
        !self_report.has_regressions(),
        "self-compare regressed: {:?}",
        self_report.regressions()
    );

    let mut regressed = entry.clone();
    let cycles = regressed.metrics["tiny/ant_cycles"];
    regressed
        .metrics
        .insert("tiny/ant_cycles".to_string(), cycles * 1.10);
    let report = history::compare(&entry, &regressed, DEFAULT_THRESHOLD);
    assert!(report.has_regressions());
    let names: Vec<&str> = report
        .regressions()
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(names, vec!["tiny/ant_cycles"]);
    let markdown = report.to_markdown();
    assert!(markdown.contains("tiny/ant_cycles"));
    assert!(markdown.contains("REGRESSED"));
}

#[test]
fn median_window_gates_like_a_single_baseline() {
    let base = history::record(WorkloadSet::Tiny, 1);
    let mut jitter = base.clone();
    // Wall-time noise across window entries must not leak into the median's
    // deterministic metrics.
    jitter.metrics.insert(
        "tiny/wall_us".to_string(),
        base.metrics["tiny/wall_us"] * 3.0,
    );
    let window = [&base, &jitter, &base];
    let median = history::median_of(&window);
    assert_eq!(
        median.metrics["tiny/ant_cycles"],
        base.metrics["tiny/ant_cycles"]
    );
    let report = history::compare(&median, &base, DEFAULT_THRESHOLD);
    assert!(!report.has_regressions(), "{:?}", report.regressions());
}

#[test]
fn unknown_label_is_rejected_but_known_labels_parse() {
    assert_eq!(WorkloadSet::from_label("fig09"), Some(WorkloadSet::Fig09));
    assert_eq!(WorkloadSet::from_label("tiny"), Some(WorkloadSet::Tiny));
    assert_eq!(
        WorkloadSet::from_label("fig09-warm"),
        Some(WorkloadSet::Fig09Warm)
    );
    assert_eq!(
        WorkloadSet::from_label("tiny-warm"),
        Some(WorkloadSet::TinyWarm)
    );
    assert!(WorkloadSet::Fig09Warm.warm_cache());
    assert!(!WorkloadSet::Fig09.warm_cache());
    assert_eq!(WorkloadSet::Fig09Warm.label(), "fig09-warm");
    assert_eq!(WorkloadSet::TinyWarm.label(), "tiny-warm");
    assert_eq!(WorkloadSet::from_label("bogus"), None);
}

#[test]
fn entries_with_nonfinite_metrics_round_trip_as_absent() {
    // Non-finite rates (e.g. a zero-wall-time throughput division guarded
    // upstream) serialize as null and drop out on parse instead of
    // poisoning comparisons.
    let mut metrics = BTreeMap::new();
    metrics.insert("tiny/ant_cycles".to_string(), 100.0);
    metrics.insert("tiny/broken_per_sec".to_string(), f64::INFINITY);
    let entry = HistoryEntry {
        label: "tiny".to_string(),
        git_revision: None,
        timestamp_unix_ms: 1,
        repeats: 1,
        metrics,
    };
    let parsed = HistoryEntry::parse(&entry.to_json_line()).expect("parse");
    assert_eq!(parsed.metrics.len(), 1);
    assert!(parsed.metrics.contains_key("tiny/ant_cycles"));
}
