//! Collapsed stacks from a real span trace: the `profile` binary runs the
//! tiny workload under `ANT_TRACE` in a child process, and `obsctl flame
//! fold` turns its trace into flamegraph input.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args`, no inherited `ANT_*` variable but those in
/// `envs`, and its sidecars under `target`; returns stdout.
fn run_binary(bin: &str, args: &[&str], envs: &[(&str, &str)], target: &Path) -> String {
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
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn profile_trace_folds_into_nested_collapsed_stacks() {
    let target = std::env::temp_dir().join(format!("ant_bench_flame_fold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&target);
    run_binary(
        env!("CARGO_BIN_EXE_profile"),
        &["tiny"],
        &[("ANT_TRACE", "1")],
        &target,
    );
    let trace = target.join("experiments").join("trace.jsonl");
    let trace = trace.to_str().expect("UTF-8 temp path");
    let folded = run_binary(
        env!("CARGO_BIN_EXE_obsctl"),
        &["flame", "fold", trace],
        &[],
        &target,
    );

    assert!(!folded.is_empty(), "empty collapsed-stack output");
    for line in folded.lines() {
        let (stack, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no weight in {line:?}"));
        assert!(
            weight.parse::<u64>().is_ok_and(|us| us > 0),
            "self time is not a positive integer in {line:?}"
        );
        assert!(
            stack
                .split(';')
                .all(|frame| !frame.is_empty() && !frame.contains(char::is_whitespace)),
            "bad frame in {line:?}"
        );
    }
    assert!(
        folded.lines().any(|line| line.contains(';')),
        "no nested stacks in:\n{folded}"
    );
    let _ = std::fs::remove_dir_all(&target);
}
