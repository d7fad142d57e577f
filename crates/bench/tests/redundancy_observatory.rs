//! The redundancy observatory end to end, on real child processes: the
//! `ant-redundancy/1` sidecar a Fig. 9 run writes, `obsctl redundancy
//! --json` totals against the rows and the run manifest, and Table 5's
//! per-network avoided fractions against its headline average.

use std::path::{Path, PathBuf};
use std::process::Command;

use ant_obs::json::{self, Json};

/// A fresh directory under the system temp dir, unique to this test.
fn temp_target(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ant_bench_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `bin` with `args`, no inherited `ANT_*` variable, and its sidecars
/// under `target`; returns its stdout.
fn run_binary(bin: &str, args: &[&Path], target: &Path) -> String {
    let mut cmd = Command::new(bin);
    for (name, _) in std::env::vars() {
        if name.starts_with("ANT_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd
        .args(args)
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

fn parse(text: &str) -> Json {
    json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text:?}"))
}

fn u64_at(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} is not a u64 in {doc:?}"))
}

fn str_at<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string in {doc:?}"))
}

/// `obsctl redundancy SIDECAR --json [extra...]`, parsed.
fn obsctl_redundancy(sidecar: &Path, extra: &[&str], target: &Path) -> Json {
    let mut args = vec![Path::new("redundancy"), sidecar, Path::new("--json")];
    args.extend(extra.iter().map(Path::new));
    parse(&run_binary(env!("CARGO_BIN_EXE_obsctl"), &args, target))
}

const RCP_KEYS: [&str; 3] = ["rcps_total", "rcps_executed", "rcps_skipped"];

#[test]
fn obsctl_redundancy_totals_match_the_rows_and_the_manifest() {
    let target = temp_target("redundancy_observatory");
    let dir = target.join("experiments");
    run_binary(env!("CARGO_BIN_EXE_fig09_speedup_energy"), &[], &target);

    // Every sidecar row: schema, sorted keys, the RCP split, the phase and
    // machine sets, complete, and non-negative integer counters.
    let sidecar = dir.join("fig09_speedup_energy.redundancy.jsonl");
    let text = std::fs::read_to_string(&sidecar).expect("fig09 wrote a redundancy sidecar");
    let mut rows = Vec::new();
    for line in text.lines() {
        let row = parse(line);
        assert_eq!(str_at(&row, "schema"), "ant-redundancy/1", "{line}");
        // The parsed object iterates its keys sorted; the line must list
        // them in that order.
        let positions: Vec<usize> = row
            .as_object()
            .expect("row is an object")
            .keys()
            .map(|key| line.find(&format!("\"{key}\":")).expect("key in line"))
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "unsorted keys: {line}"
        );
        assert_eq!(
            u64_at(&row, "rcps_executed") + u64_at(&row, "rcps_skipped"),
            u64_at(&row, "rcps_total"),
            "{line}"
        );
        assert!(
            ["W*A", "W*G_A", "G_A*A"].contains(&str_at(&row, "phase")),
            "{line}"
        );
        assert!(
            ["ANT", "SCNN+"].contains(&str_at(&row, "machine")),
            "{line}"
        );
        assert_eq!(
            row.get("partial").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        for key in [
            "pairs_total",
            "mults",
            "effectual_macs",
            "sram_reads",
            "sram_writes",
        ] {
            u64_at(&row, key);
        }
        rows.push(row);
    }
    assert!(!rows.is_empty(), "empty redundancy sidecar");

    // obsctl's totals are the row sums and the manifest's counters.
    let report = obsctl_redundancy(&sidecar, &[], &target);
    assert_eq!(str_at(&report, "schema"), "ant-redundancy-stats/1");
    assert_eq!(u64_at(&report, "lines_skipped"), 0);
    assert_eq!(u64_at(&report, "rows_matched"), rows.len() as u64);
    let manifest_text = std::fs::read_to_string(dir.join("fig09_speedup_energy.manifest.json"))
        .expect("fig09 wrote a manifest");
    let stats = parse(&manifest_text).get("stats").cloned().expect("stats");
    let totals = report.get("totals").expect("totals");
    for key in RCP_KEYS {
        let summed: u64 = rows.iter().map(|row| u64_at(row, key)).sum();
        assert_eq!(u64_at(totals, key), summed, "{key}: totals vs rows");
        assert_eq!(
            u64_at(totals, key),
            u64_at(&stats, key),
            "{key}: totals vs manifest"
        );
    }
    assert_eq!(u64_at(&stats, "redundancy_rows"), rows.len() as u64);
    let advantage = report
        .get("advantage")
        .and_then(Json::as_array)
        .expect("advantage");
    assert!(!advantage.is_empty(), "no ANT advantage over SCNN+");
    for row in advantage {
        assert_eq!(
            (str_at(row, "machine"), str_at(row, "baseline")),
            ("ANT", "SCNN+")
        );
    }

    // Table 5: the per-network ANT avoided fractions average to the
    // headline stat (float sum order differs, hence the tolerance).
    run_binary(env!("CARGO_BIN_EXE_tab05_rcps_avoided"), &[], &target);
    let tab = obsctl_redundancy(
        &dir.join("tab05_rcps_avoided.redundancy.jsonl"),
        &["--machine", "ANT"],
        &target,
    );
    let tab_manifest_text = std::fs::read_to_string(dir.join("tab05_rcps_avoided.manifest.json"))
        .expect("tab05 wrote a manifest");
    let tab_stats = parse(&tab_manifest_text)
        .get("stats")
        .cloned()
        .expect("stats");
    let networks = tab
        .get("networks")
        .and_then(Json::as_array)
        .expect("networks");
    assert_eq!(networks.len() as u64, u64_at(&tab_stats, "networks"));
    let mean = networks
        .iter()
        .map(|n| {
            n.get("rcps_avoided_fraction")
                .and_then(Json::as_f64)
                .expect("fraction")
        })
        .sum::<f64>()
        / networks.len() as f64;
    let expected = tab_stats
        .get("average_rcps_avoided")
        .and_then(Json::as_f64)
        .expect("average_rcps_avoided");
    assert!((mean - expected).abs() < 1e-9, "mean {mean} vs {expected}");
    let _ = std::fs::remove_dir_all(&target);
}
