//! End-to-end test of the `ANT_PROGRESS` live status reporter through the
//! parallel runner.
//!
//! This file intentionally holds a single test: it mutates process-global
//! environment variables (`ANT_PROGRESS_FILE`), which would race against
//! sibling tests running in threads of the same binary.

use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_obs::json::Json;
use ant_sim::scnn::ScnnPlus;
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

#[test]
fn progress_reporter_writes_final_status_file() {
    let dir = std::env::temp_dir().join(format!("ant_bench_progress_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status_path = dir.join("status.json");
    std::env::set_var("ANT_PROGRESS_FILE", &status_path);

    let cfg = ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    };
    let net = tiny_net();
    let opts = RunOptions {
        threads: Some(3),
        progress: Some(true),
        ..RunOptions::default()
    };
    let result =
        try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts).unwrap();
    assert!(!result.partial);

    let body = std::fs::read_to_string(&status_path).expect("status file written");
    let json = ant_obs::parse_json(body.trim()).expect("status file is valid JSON");
    assert_eq!(
        json.get("schema").and_then(Json::as_str),
        Some("ant-status/1")
    );
    assert_eq!(json.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(json.get("network").and_then(Json::as_str), Some("tiny"));
    assert_eq!(json.get("machine").and_then(Json::as_str), Some("SCNN+"));
    assert_eq!(json.get("threads").and_then(Json::as_u64), Some(3));
    // 2 layers x 3 phases x (2x2 sampled pairs) = 24 jobs, all completed.
    assert_eq!(json.get("pairs_total").and_then(Json::as_u64), Some(24));
    assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(24));
    assert_eq!(json.get("layers_total").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("layers_done").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("quarantined").and_then(Json::as_u64), Some(0));
    assert_eq!(json.get("retries").and_then(Json::as_u64), Some(0));
    assert_eq!(json.get("watchdog_slow").and_then(Json::as_u64), Some(0));
    assert!(json.get("elapsed_s").and_then(Json::as_f64).is_some());
    assert!(json.get("pairs_per_sec").and_then(Json::as_f64).is_some());
    assert_eq!(json.get("eta_s").and_then(Json::as_f64), Some(0.0));
    assert!(json
        .get("updated_at_unix_ms")
        .and_then(Json::as_u64)
        .is_some());
    // Build identity: the key is always present (a string in a git
    // checkout, null outside one); resumed_from only appears on resumed
    // runs, and this run started fresh.
    assert!(
        json.get("git_revision").is_some(),
        "git_revision key present"
    );
    assert!(
        json.get("resumed_from").is_none(),
        "fresh run has no resumed_from"
    );
    // Keys after `schema` are sorted, for stable diffs.
    let mut in_text: Vec<(usize, &str)> = json
        .as_object()
        .expect("status file is an object")
        .keys()
        .map(|k| {
            (
                body.find(&format!("\"{k}\":")).expect("key in the text"),
                k.as_str(),
            )
        })
        .collect();
    in_text.sort_unstable();
    let keys: Vec<&str> = in_text.into_iter().map(|(_, k)| k).collect();
    assert_eq!(keys[0], "schema", "{keys:?}");
    assert!(
        keys[1..].is_sorted(),
        "status keys after schema must be sorted: {keys:?}"
    );
    // No torn-write temp file is left behind.
    assert!(!dir.join("status.json.tmp").exists());

    // One worker with progress on runs inline on the calling thread and
    // still ends on exact final counts.
    std::fs::remove_file(&status_path).unwrap();
    let inline = RunOptions {
        threads: Some(1),
        ..opts
    };
    let inline_result =
        try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &inline).unwrap();
    assert_eq!(inline_result.total, result.total, "inline run diverged");
    let body = std::fs::read_to_string(&status_path).expect("inline run writes status");
    let json = ant_obs::parse_json(body.trim()).expect("status file is valid JSON");
    assert_eq!(json.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(json.get("threads").and_then(Json::as_u64), Some(1));
    assert_eq!(json.get("pairs_total").and_then(Json::as_u64), Some(24));
    assert_eq!(json.get("pairs_done").and_then(Json::as_u64), Some(24));
    assert_eq!(json.get("layers_total").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("layers_done").and_then(Json::as_u64), Some(2));
    assert_eq!(json.get("eta_s").and_then(Json::as_f64), Some(0.0));

    // With progress off (explicitly), the file is not rewritten.
    std::fs::remove_file(&status_path).unwrap();
    let opts_off = RunOptions {
        threads: Some(2),
        progress: Some(false),
        ..RunOptions::default()
    };
    let _ =
        try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts_off).unwrap();
    assert!(!status_path.exists(), "progress off must not write status");

    std::env::remove_var("ANT_PROGRESS_FILE");
    let _ = std::fs::remove_dir_all(&dir);
}
