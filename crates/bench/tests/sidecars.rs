//! What experiment binaries leave behind, checked on real child processes:
//! a paper binary's CSV, JSONL and run manifest, and the `profile`
//! binary's Perfetto timeline against the Chrome trace-event schema that
//! Perfetto and `chrome://tracing` load.

use std::path::{Path, PathBuf};
use std::process::Command;

use ant_obs::json::{self, Json};

/// A fresh directory under the system temp dir, unique to this test.
fn temp_target(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ant_bench_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `bin` with `args`, no inherited `ANT_*` variable but those in
/// `envs`, and its sidecars under `target`.
fn run_binary(bin: &str, args: &[&str], envs: &[(&str, &Path)], target: &Path) {
    let mut cmd = Command::new(bin);
    for (name, _) in std::env::vars() {
        if name.starts_with("ANT_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd
        .args(args)
        .envs(envs.iter().copied())
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("binary starts");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sec75_area_writes_csv_jsonl_and_manifest() {
    let target = temp_target("sec75_sidecars");
    run_binary(env!("CARGO_BIN_EXE_sec75_area"), &[], &[], &target);
    let dir = target.join("experiments");
    let read = |ext: &str| {
        let path = dir.join(format!("sec75_area.{ext}"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} missing: {e}", path.display()))
    };
    let csv = read("csv");
    let jsonl = read("jsonl");
    let manifest = json::parse(&read("manifest.json")).expect("manifest parses");
    // One JSONL object per CSV data row.
    assert_eq!(jsonl.lines().count() + 1, csv.lines().count());
    for line in jsonl.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
    }
    let field = |key: &str| manifest.get(key).and_then(Json::as_str);
    assert_eq!(field("schema"), Some("ant-manifest/1"), "{manifest:?}");
    assert_eq!(field("name"), Some("sec75_area"), "{manifest:?}");
    let _ = std::fs::remove_dir_all(&target);
}

/// The event's `key` member as a number.
fn number(event: &Json, key: &str) -> Option<f64> {
    event.get(key).and_then(Json::as_f64)
}

#[test]
fn profile_timeline_follows_the_perfetto_schema() {
    let target = temp_target("perfetto_schema");
    let timeline = target.join("profile.perfetto.json");
    run_binary(
        env!("CARGO_BIN_EXE_profile"),
        &["tiny"],
        &[
            ("ANT_PROFILE", Path::new("1")),
            ("ANT_TELEMETRY", Path::new("1")),
            ("ANT_PROFILE_FILE", &timeline),
        ],
        &target,
    );
    let text = std::fs::read_to_string(&timeline).expect("timeline written");
    let doc = json::parse(&text).expect("timeline parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "empty timeline");
    for event in events {
        let phase = event.get("ph").and_then(Json::as_str);
        assert!(
            matches!(phase, Some("M" | "X" | "C")),
            "unexpected phase in {event:?}"
        );
        for key in ["name", "pid", "tid"] {
            assert!(event.get(key).is_some(), "event missing {key:?}: {event:?}");
        }
        let args = event.get("args");
        match phase {
            Some("X") => {
                assert!(number(event, "ts").is_some(), "{event:?}");
                let dur = number(event, "dur");
                assert!(dur.is_some(), "{event:?}");
                assert_eq!(args.and_then(|a| number(a, "cycles")), dur, "{event:?}");
            }
            Some("C") => {
                assert!(number(event, "ts").is_some(), "{event:?}");
                assert!(args.and_then(|a| a.get("value")).is_some(), "{event:?}");
            }
            _ => {}
        }
    }
    let processes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(
        processes.iter().any(|p| p.contains("host workers")),
        "no worker tracks in {processes:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")),
        "telemetry on but no deque-depth counter events"
    );
    let _ = std::fs::remove_dir_all(&target);
}
