//! End-to-end tests of the content-addressed simulation cache and the
//! analytic fast path through the parallel runner.
//!
//! The in-process scenarios share one test body: the cache activation
//! override is process-global (like chaos injection), so they run
//! sequentially. The cold→warm test drives the `fig09_speedup_energy` and
//! `obsctl` binaries in child processes and touches no global state.

use std::path::Path;
use std::process::Command;

use ant_bench::runner::{
    try_simulate_network_parallel, ExperimentConfig, NetworkResult, RunOptions,
};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_obs::json::Json;
use ant_sim::inner::DenseInnerProduct;
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
use ant_workloads::models::NetworkModel;

fn tiny_net() -> NetworkModel {
    NetworkModel {
        name: "tiny",
        layers: vec![
            ant_workloads::ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ant_workloads::ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

fn run<S: ConvSim + Sync>(pe: &S, threads: usize) -> NetworkResult {
    let cfg = ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    };
    let opts = RunOptions {
        threads: Some(threads),
        ..RunOptions::default()
    };
    try_simulate_network_parallel(pe, &tiny_net(), &cfg, &opts).expect("run succeeds")
}

/// Byte-level equality of everything the figures consume.
fn assert_identical(a: &NetworkResult, b: &NetworkResult, what: &str) {
    assert_eq!(a.total, b.total, "{what}: totals diverged");
    assert_eq!(a.wall_cycles, b.wall_cycles, "{what}: wall cycles diverged");
    for pi in 0..3 {
        assert_eq!(a.per_phase[pi].1, b.per_phase[pi].1, "{what}: phase {pi}");
    }
    assert_eq!(a.per_layer.len(), b.per_layer.len(), "{what}: layer count");
    for (la, lb) in a.per_layer.iter().zip(&b.per_layer) {
        assert_eq!(la.stats, lb.stats, "{what}: layer {} stats", la.name);
        assert_eq!(la.phases, lb.phases, "{what}: layer {} phases", la.name);
    }
}

#[test]
fn cache_serves_warm_runs_byte_identically() {
    let scnn = ScnnPlus::paper_default();
    let dense = DenseInnerProduct::paper_default();

    // Reference runs with the cache forced off.
    simcache::set_override(CacheOverride::Off);
    let baseline = run(&scnn, 3);
    let dense_baseline = run(&dense, 3);
    assert_eq!(baseline.cache_hits, 0);
    assert_eq!(baseline.cache_misses, 0);
    assert_eq!(baseline.analytic_pairs, 0);

    // --- In-memory tier ---------------------------------------------------
    simcache::set_override(CacheOverride::On(SimCacheConfig::default()));
    let cold = run(&scnn, 3);
    assert_identical(&cold, &baseline, "cold cache run");
    assert_eq!(cold.cache_hits, 0, "nothing cached yet");
    assert_eq!(cold.cache_misses, 2, "both layers recorded");
    assert_eq!(cold.analytic_pairs, 0, "SCNN+ has no closed form");

    let warm = run(&scnn, 3);
    assert_identical(&warm, &baseline, "warm cache run");
    assert_eq!(warm.cache_hits, 2, "both layers served from cache");
    assert_eq!(warm.cache_misses, 0);

    // Bit-identical for any thread count with the cache on.
    for threads in [1, 2, 5] {
        let again = run(&scnn, threads);
        assert_identical(&again, &baseline, "warm run thread-count sweep");
        assert_eq!(again.cache_hits, 2);
    }

    // Tier 2: the dense machine answers every pair analytically, so a cold
    // cache-enabled run dispatches zero jobs and still matches emulation.
    let dense_cold = run(&dense, 3);
    assert_identical(&dense_cold, &dense_baseline, "dense analytic run");
    assert_eq!(dense_cold.analytic_pairs, 24, "2 layers x 3 phases x 4 pairs");
    assert_eq!(dense_cold.cache_misses, 2);
    let dense_warm = run(&dense, 3);
    assert_identical(&dense_warm, &dense_baseline, "dense warm run");
    assert_eq!(dense_warm.cache_hits, 2);
    assert_eq!(dense_warm.analytic_pairs, 0, "cache hit precedes analytic");

    // --- On-disk tier -----------------------------------------------------
    let dir = std::env::temp_dir().join(format!("ant_bench_simcache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let disk_cold = run(&scnn, 3);
    assert_identical(&disk_cold, &baseline, "disk cold run");
    assert_eq!(disk_cold.cache_misses, 2);
    let store = dir.join("simcache.jsonl");
    let body = std::fs::read_to_string(&store).expect("store written");
    assert_eq!(body.lines().count(), 2, "one line per clean layer");
    assert!(body.starts_with("{\"schema\":\"ant-simcache/1\""));

    // A fresh activation starts from an empty in-memory map and reloads the
    // persisted entries: the warm run is served entirely from disk.
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let disk_warm = run(&scnn, 3);
    assert_identical(&disk_warm, &baseline, "disk warm run");
    assert_eq!(disk_warm.cache_hits, 2);
    let stats = simcache::stats().expect("cache active");
    assert_eq!(stats.loaded, 2);
    assert_eq!(stats.skipped_corrupt + stats.skipped_stale + stats.skipped_poisoned, 0);

    // --- Robustness: corrupt, truncated, stale, poisoned lines ------------
    let good = std::fs::read_to_string(&store).unwrap();
    let mut lines: Vec<&str> = good.lines().collect();
    assert_eq!(lines.len(), 2);
    let keep = lines.remove(0);
    let victim = lines.remove(0);
    let truncated = &victim[..victim.len() / 2];
    let stale = keep.replacen("ant-simcache/1", "ant-simcache/0", 1);
    // Poison the kept line's counters without touching its check hash.
    let needle = "\"pe_cycles\":";
    let at = victim.find(needle).expect("counters serialized") + needle.len();
    let mut poisoned = String::new();
    poisoned.push_str(&victim[..at]);
    poisoned.push('9');
    poisoned.push_str(&victim[at..]);
    let tampered = format!("{keep}\nnot json at all\n{truncated}\n{stale}\n{poisoned}\n");
    std::fs::write(&store, tampered).unwrap();

    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let salvaged = run(&scnn, 3);
    assert_identical(&salvaged, &baseline, "salvaged store run");
    let stats = simcache::stats().expect("cache active");
    assert_eq!(stats.loaded, 1, "only the intact line survives");
    assert_eq!(stats.skipped_corrupt, 2, "garbage + truncated");
    assert_eq!(stats.skipped_stale, 1, "schema-bumped line");
    assert_eq!(stats.skipped_poisoned, 1, "tampered counters fail the check");
    assert_eq!(salvaged.cache_hits, 1, "intact layer served");
    assert_eq!(salvaged.cache_misses, 1, "lost layer resimulated and re-recorded");

    // The resimulated layer was appended back: a final activation serves
    // both layers again.
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(dir.clone()),
    }));
    let healed = run(&scnn, 3);
    assert_identical(&healed, &baseline, "healed store run");
    assert_eq!(healed.cache_hits, 2);

    simcache::set_override(CacheOverride::Env);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `bin` with `args` and no inherited `ANT_*` variable, writing its
/// sidecars under `target`; returns stdout.
fn run_binary(bin: &str, args: &[&Path], target: &Path, cache_dir: &Path) -> String {
    let mut cmd = Command::new(bin);
    for (name, _) in std::env::vars() {
        if name.starts_with("ANT_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd
        .args(args)
        .env("CARGO_TARGET_DIR", target)
        .env("ANT_CACHE_DIR", cache_dir)
        .output()
        .expect("binary starts");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// One Fig. 9 process: its CSV, JSONL and manifest, plus `obsctl cache
/// --json` over that manifest.
fn fig09_process(target: &Path, cache_dir: &Path) -> (Vec<u8>, Vec<u8>, Json, Json) {
    run_binary(
        env!("CARGO_BIN_EXE_fig09_speedup_energy"),
        &[],
        target,
        cache_dir,
    );
    let out = target.join("experiments");
    let read = |ext: &str| std::fs::read(out.join(format!("fig09_speedup_energy.{ext}")));
    let manifest_path = out.join("fig09_speedup_energy.manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let report = run_binary(
        env!("CARGO_BIN_EXE_obsctl"),
        &[Path::new("cache"), &manifest_path, Path::new("--json")],
        target,
        cache_dir,
    );
    (
        read("csv").expect("CSV written"),
        read("jsonl").expect("JSONL written"),
        ant_obs::parse_json(&manifest).expect("manifest parses"),
        ant_obs::parse_json(&report).expect("obsctl cache report parses"),
    )
}

#[test]
fn fig09_warm_process_replays_the_cold_one_from_the_store() {
    let target = std::env::temp_dir().join(format!("ant_bench_fig09_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&target);
    let cache_dir = target.join("store");
    let (cold_csv, cold_jsonl, cold_manifest, cold) = fig09_process(&target, &cache_dir);
    let (warm_csv, warm_jsonl, warm_manifest, warm) = fig09_process(&target, &cache_dir);

    assert!(
        cold_csv == warm_csv,
        "warm fig09 CSV diverged from the cold run"
    );
    assert!(
        cold_jsonl == warm_jsonl,
        "warm fig09 JSONL diverged from the cold run"
    );
    // The manifests also carry wall times and cache counters; the
    // simulated sections must match exactly.
    for section in ["stats", "config"] {
        assert_eq!(
            cold_manifest.get(section),
            warm_manifest.get(section),
            "manifest {section} diverged"
        );
    }
    let total = |report: &Json, key: &str| {
        report
            .get("totals")
            .and_then(|t| t.get(key))
            .and_then(Json::as_u64)
            .expect("cache totals")
    };
    for (which, report) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some("ant-cache-stats/1"),
            "{which}"
        );
        assert_eq!(
            report.get("consistent"),
            Some(&Json::Bool(true)),
            "{which}: obsctl cache totals disagree with the runner registry"
        );
        assert_eq!(
            report.get("keys_skipped").and_then(Json::as_u64),
            Some(0),
            "{which}"
        );
        assert!(
            report
                .get("rows")
                .and_then(Json::as_array)
                .is_some_and(|r| !r.is_empty()),
            "{which} run recorded no per-network cache rows"
        );
    }
    assert!(total(&cold, "misses") > 0, "cold run never missed");
    assert!(total(&warm, "hits") > 0, "warm run never hit");
    assert_eq!(
        total(&warm, "misses"),
        0,
        "warm run missed despite a populated store"
    );
    let _ = std::fs::remove_dir_all(&target);
}
