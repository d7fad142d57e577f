//! Bench-history ledger: an append-only JSONL record of benchmark runs,
//! plus trend-aware comparison between any two of them.
//!
//! Each [`HistoryEntry`] is one line of `BENCH_history.jsonl` (kept at the
//! repository root), keyed by git revision
//! and timestamp and carrying a flat metric map:
//!
//! ```json
//! {"schema":"ant-bench-history/1","label":"fig09",
//!  "git_revision":"abc123...","timestamp_unix_ms":1700000000000,
//!  "repeats":3,"metrics":{"densenet121/ant_cycles":8123456.0,
//!  "densenet121/wall_us":901234.0,"densenet121/wall_us_spread":0.031}}
//! ```
//!
//! Metric names are `<network>/<measure>`; the measure's suffix decides how
//! [`compare`] treats it (see [`classify`]):
//!
//! * `*_cycles` — deterministic simulator outputs, gated at the threshold.
//! * `*wall_us` / `*alloc*` — host-noise metrics, gated at the largest of
//!   the threshold, the recorded noise floor (`*_spread`, the relative
//!   min-to-max spread over the entry's min-of-K repeats), and a static
//!   floor ([`WALL_NOISE_FLOOR`] / [`ALLOC_NOISE_FLOOR`]).
//! * `kernel/...` — per-kernel microbenchmark timings (the `microbench`
//!   binary), gated like host metrics but with their own static floor
//!   ([`KERNEL_NOISE_FLOOR`]): isolated nanosecond-scale loops are steadier
//!   than whole-run wall time, so the gate can afford to be tighter.
//! * `*_energy_uj` — reported but never gated (energy moves with cycles;
//!   gating both double-counts one change).
//! * `*_spread` / `*_per_sec` — informational only.
//!
//! [`compare_rolling`] picks what `bench_history compare` gates when no
//! entries are named: the newest entry against the rolling median of the
//! same-label entries before it. Its report also carries each metric's
//! values over that window.
//!
//! Recording ([`record`]) reruns the fig09 workloads (or a tiny CI set)
//! in-process with allocation counting on, taking min-of-K wall times so
//! the ledger carries its own noise estimate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ant_obs::json::write_json_string;
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::EnergyModel;
use ant_workloads::models::{figure9_networks, NetworkModel};

use crate::runner::{simulate_network_parallel, ExperimentConfig};
use crate::simcache;

/// Schema tag written into (and required of) every ledger line.
pub const SCHEMA: &str = "ant-bench-history/1";

/// Schema tag of the machine-readable compare report
/// ([`CompareReport::to_json`], `bench_history compare --json`).
pub const COMPARE_SCHEMA: &str = "ant-bench-compare/1";

/// Schema tag of the machine-readable ledger listing
/// ([`list_json`], `bench_history list --json`).
pub const LIST_SCHEMA: &str = "ant-bench-list/1";

/// Default ledger file name, resolved relative to the working directory.
pub const DEFAULT_LEDGER: &str = "BENCH_history.jsonl";

/// Default relative regression threshold for gated metrics.
pub const DEFAULT_THRESHOLD: f64 = 0.05;

/// Extra allowance for allocator metrics, which have no recorded spread but
/// wobble with thread scheduling in the parallel runner.
pub const ALLOC_NOISE_FLOOR: f64 = 0.10;

/// Static allowance for wall-time metrics on top of the recorded spread.
/// Run-to-run wall time on a shared machine routinely moves 30% even when
/// within-run repeats agree; the wall gate exists to catch order-of-
/// magnitude host regressions, not single-digit drift (cycle metrics carry
/// that burden deterministically).
pub const WALL_NOISE_FLOOR: f64 = 0.35;

/// Static allowance for per-kernel microbenchmark metrics (`kernel/...`).
/// Min-of-K nanosecond loops over fixed inputs are far steadier than
/// whole-experiment wall time, but still ride host frequency scaling and
/// cache pressure; 25% catches real kernel regressions (the deliberate
/// slowdowns these gates exist for are 2x and up) without tripping on
/// scheduler noise.
pub const KERNEL_NOISE_FLOOR: f64 = 0.25;

/// One benchmark run in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Workload-set label (`"fig09"`, `"tiny"`, or a synthetic label like
    /// `"median(5)"` for derived baselines).
    pub label: String,
    /// Git revision the run was taken at, when known.
    pub git_revision: Option<String>,
    /// Unix timestamp of the run in milliseconds.
    pub timestamp_unix_ms: u64,
    /// How many repeats the min-of-K wall times were taken over.
    pub repeats: u32,
    /// Flat metric map, names per the module docs.
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryEntry {
    /// Serializes the entry as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128 + self.metrics.len() * 32);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"label\":");
        write_json_string(&self.label, &mut out);
        out.push_str(",\"git_revision\":");
        match &self.git_revision {
            Some(rev) => write_json_string(rev, &mut out),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"timestamp_unix_ms\":{},\"repeats\":{},\"metrics\":{{",
            self.timestamp_unix_ms, self.repeats
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
            out.push(':');
            if value.is_finite() {
                let _ = write!(out, "{value}");
            } else {
                out.push_str("null");
            }
        }
        out.push_str("}}");
        out
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformation (bad JSON,
    /// wrong schema, missing fields).
    pub fn parse(line: &str) -> Result<HistoryEntry, String> {
        let json = ant_obs::parse_json(line).map_err(|e| e.to_string())?;
        let schema = json
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let label = json
            .get("label")
            .and_then(|s| s.as_str())
            .ok_or("missing label")?
            .to_string();
        let git_revision = json
            .get("git_revision")
            .and_then(|s| s.as_str())
            .map(str::to_string);
        let timestamp_unix_ms = json
            .get("timestamp_unix_ms")
            .and_then(|n| n.as_u64())
            .ok_or("missing timestamp_unix_ms")?;
        let repeats = json
            .get("repeats")
            .and_then(|n| n.as_u64())
            .ok_or("missing repeats")?;
        let repeats =
            u32::try_from(repeats).map_err(|_| format!("repeats {repeats} out of range"))?;
        let mut metrics = BTreeMap::new();
        let map = json
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or("missing metrics object")?;
        for (name, value) in map {
            if let Some(v) = value.as_f64() {
                metrics.insert(name.clone(), v);
            }
        }
        Ok(HistoryEntry {
            label,
            git_revision,
            timestamp_unix_ms,
            repeats,
            metrics,
        })
    }

    /// A short human identity: label plus the revision's first ten
    /// characters.
    pub fn describe(&self) -> String {
        match &self.git_revision {
            Some(rev) => {
                let cut = rev.char_indices().nth(10).map_or(rev.len(), |(at, _)| at);
                format!("{} @ {}", self.label, &rev[..cut])
            }
            None => format!("{} @ (no revision)", self.label),
        }
    }
}

/// Appends `entry` as one line to the ledger at `path` (created if absent).
///
/// # Errors
///
/// Propagates open/write failures.
pub fn append(path: &Path, entry: &HistoryEntry) -> io::Result<()> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(entry.to_json_line().as_bytes())?;
    file.write_all(b"\n")
}

/// Loads every entry from the ledger at `path`, oldest first. A missing
/// file is an empty ledger, not an error; a malformed line is an error
/// naming the line number.
///
/// # Errors
///
/// Propagates read failures; malformed lines map to `InvalidData`.
pub fn load(path: &Path) -> io::Result<Vec<HistoryEntry>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(HistoryEntry::parse(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), i + 1),
            )
        })?);
    }
    Ok(out)
}

/// Like [`load`], but a corrupt or truncated line (a killed run can leave
/// a partial last line) is skipped instead of failing the whole ledger.
/// Returns the usable entries plus the number of lines skipped; each skip
/// is warned about on stderr with its line number.
///
/// # Errors
///
/// Propagates read failures only — bad content never errors.
pub fn load_lenient(path: &Path) -> io::Result<(Vec<HistoryEntry>, usize)> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(err) => return Err(err),
    };
    let mut out = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match HistoryEntry::parse(line) {
            Ok(entry) => out.push(entry),
            Err(e) => {
                skipped += 1;
                eprintln!("bench_history: skipping {}:{}: {e}", path.display(), i + 1);
            }
        }
    }
    Ok((out, skipped))
}

/// Serializes a ledger listing under the [`LIST_SCHEMA`] JSON schema
/// (`bench_history list --json`): entry index, identity, and metric count
/// per entry — the machine-readable face of the human `list` lines.
/// `skipped` is the unusable-line count from [`load_lenient`].
pub fn list_json(entries: &[HistoryEntry], skipped: usize) -> String {
    let mut out = String::with_capacity(64 + entries.len() * 128);
    let _ = write!(
        out,
        "{{\"schema\":\"{LIST_SCHEMA}\",\"entries\":{},\"lines_skipped\":{skipped},\"runs\":[",
        entries.len()
    );
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"index\":{i},\"label\":");
        write_json_string(&entry.label, &mut out);
        out.push_str(",\"git_revision\":");
        match &entry.git_revision {
            Some(rev) => write_json_string(rev, &mut out),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"timestamp_unix_ms\":{},\"repeats\":{},\"metric_count\":{}}}",
            entry.timestamp_unix_ms,
            entry.repeats,
            entry.metrics.len()
        );
    }
    out.push_str("]}");
    out
}

/// A synthetic baseline: the metric-wise median over `entries` (a metric
/// contributes wherever present). The rolling-median baseline makes the
/// regression gate robust to one outlier run in the window.
///
/// # Panics
///
/// Panics when `entries` is empty.
pub fn median_of(entries: &[&HistoryEntry]) -> HistoryEntry {
    assert!(!entries.is_empty(), "median of empty history window");
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for entry in entries {
        for (name, value) in &entry.metrics {
            samples.entry(name).or_default().push(*value);
        }
    }
    let metrics = samples
        .into_iter()
        .map(|(name, mut values)| {
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
            // Lower of the two middles for even counts: a slightly
            // conservative (smaller) baseline gates slightly harder.
            (name.to_string(), values[(values.len() - 1) / 2])
        })
        .collect();
    HistoryEntry {
        label: format!("{} median({})", entries[0].label, entries.len()),
        git_revision: None,
        timestamp_unix_ms: entries.last().expect("non-empty").timestamp_unix_ms,
        repeats: entries.iter().map(|e| e.repeats).min().unwrap_or(1),
        metrics,
    }
}

/// How [`compare`] treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Deterministic simulator output — gated at the bare threshold.
    Deterministic,
    /// Host-performance metric — gated at the larger of the threshold and
    /// the recorded noise floor.
    Noisy,
    /// Isolated per-kernel microbenchmark timing — gated like [`Noisy`](Self::Noisy) but
    /// with the tighter [`KERNEL_NOISE_FLOOR`] static floor.
    Kernel,
    /// Reported in the table but never gated.
    NoteOnly,
    /// Informational; omitted from regression accounting entirely.
    InfoOnly,
}

impl MetricClass {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            MetricClass::Deterministic => "cycles",
            MetricClass::Noisy => "host",
            MetricClass::Kernel => "kernel",
            MetricClass::NoteOnly => "note",
            MetricClass::InfoOnly => "info",
        }
    }
}

/// `bench_history compare` with no refs: the newest entry (the newest of
/// `label`, when given) against the metric-wise median of the `window`
/// same-label entries before it. The report's [`CompareReport::series`]
/// holds those entries and the candidate.
///
/// # Errors
///
/// Says why there is nothing to compare: the ledger holds no such entry,
/// or no earlier entry of its label.
pub fn compare_rolling(
    entries: &[HistoryEntry],
    label: Option<&str>,
    window: usize,
    threshold: f64,
) -> Result<CompareReport, String> {
    let newest = match label {
        Some(label) => entries.iter().rposition(|e| e.label == label),
        None => entries.len().checked_sub(1),
    };
    let Some(at) = newest else {
        return Err(match label {
            Some(label) => format!("no {label:?} entry in the ledger"),
            None => "the ledger is empty".to_string(),
        });
    };
    let candidate = &entries[at];
    let mut series: Vec<&HistoryEntry> = entries[..at]
        .iter()
        .filter(|e| e.label == candidate.label)
        .collect();
    if series.is_empty() {
        return Err(format!("only one {} entry", candidate.label));
    }
    series.drain(..series.len().saturating_sub(window));
    let newest_first: Vec<&HistoryEntry> = series.iter().rev().copied().collect();
    let mut report = compare(&median_of(&newest_first), candidate, threshold);
    series.push(candidate);
    report.series = series.into_iter().cloned().collect();
    Ok(report)
}

/// Classifies a metric by name (see the module docs for the rules).
pub fn classify(name: &str) -> MetricClass {
    if name.ends_with("_spread") || name.ends_with("_per_sec") {
        MetricClass::InfoOnly
    } else if name.starts_with("kernel/") {
        MetricClass::Kernel
    } else if name.ends_with("_cycles") {
        MetricClass::Deterministic
    } else if name.ends_with("wall_us") || name.contains("alloc") {
        MetricClass::Noisy
    } else if name.ends_with("_energy_uj") {
        MetricClass::NoteOnly
    } else {
        MetricClass::InfoOnly
    }
}

/// One metric's movement between two entries.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// How the gate treated it.
    pub class: MetricClass,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// `(candidate - baseline) / baseline`; `1.0` when the baseline is zero
    /// and the candidate is not.
    pub rel_change: f64,
    /// The gate this metric was held to (0 for ungated classes).
    pub gate: f64,
    /// Candidate worse than baseline by more than the gate.
    pub regressed: bool,
    /// Candidate better than baseline by more than the gate.
    pub improved: bool,
}

/// The outcome of comparing two entries.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Baseline identity ([`HistoryEntry::describe`]).
    pub baseline: String,
    /// Candidate identity.
    pub candidate: String,
    /// The base threshold the gates were built from.
    pub threshold: f64,
    /// Per-metric movement, sorted by name.
    pub deltas: Vec<MetricDelta>,
    /// Metrics present in exactly one of the entries (never gated — a new
    /// metric is not a regression).
    pub missing: Vec<String>,
    /// The entries a rolling-median baseline was drawn from, then the
    /// candidate, oldest first ([`compare_rolling`]); empty when two
    /// entries were compared directly. A metric's values over it are its
    /// history.
    pub series: Vec<HistoryEntry>,
}

impl CompareReport {
    /// The gated metrics that regressed.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Whether any gated metric regressed.
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }

    /// Renders the report as markdown: header, per-metric table, summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Bench history compare\n");
        let _ = writeln!(out, "- baseline:  `{}`", self.baseline);
        let _ = writeln!(out, "- candidate: `{}`", self.candidate);
        let _ = writeln!(
            out,
            "- threshold: {:.1}% (cycles); host metrics widen to their noise floor\n",
            self.threshold * 100.0
        );
        let history = !self.series.is_empty();
        let (history_head, history_rule) = if history {
            (" history (old → new) |", "---|")
        } else {
            ("", "")
        };
        let _ = writeln!(
            out,
            "| metric | class | baseline | candidate | change | status |{history_head}"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---|{history_rule}");
        for d in &self.deltas {
            let status = if d.regressed {
                "**REGRESSED**"
            } else if d.improved {
                "improved"
            } else if matches!(d.class, MetricClass::NoteOnly | MetricClass::InfoOnly) {
                "-"
            } else {
                "ok"
            };
            let _ = write!(
                out,
                "| {} | {} | {} | {} | {:+.1}% | {} |",
                d.name,
                d.class.name(),
                fmt_value(d.baseline),
                fmt_value(d.candidate),
                d.rel_change * 100.0,
                status
            );
            if history {
                let values: Vec<String> = self
                    .series
                    .iter()
                    .map(|e| {
                        e.metrics
                            .get(&d.name)
                            .map_or("-".to_string(), |v| fmt_value(*v))
                    })
                    .collect();
                let _ = write!(out, " {} |", values.join(" → "));
            }
            out.push('\n');
        }
        let regressed = self.regressions().len();
        let improved = self.deltas.iter().filter(|d| d.improved).count();
        let _ = writeln!(
            out,
            "\n{} regression{}, {} improvement{}, {} metrics compared.",
            regressed,
            if regressed == 1 { "" } else { "s" },
            improved,
            if improved == 1 { "" } else { "s" },
            self.deltas.len()
        );
        if !self.missing.is_empty() {
            let _ = writeln!(
                out,
                "\nOnly in one entry (not gated): {}.",
                self.missing.join(", ")
            );
        }
        out
    }

    /// Serializes the report as machine-readable JSON (schema
    /// [`COMPARE_SCHEMA`]): identities, the base threshold, the overall
    /// verdict, and one object per metric carrying the class, both values,
    /// the relative change, the gate it was held to, and its status —
    /// everything a CI step needs to gate or annotate without re-parsing
    /// the markdown table. With a [`series`](Self::series), each metric
    /// also carries a `history` array of `{revision, timestamp_unix_ms,
    /// value}` over it.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.deltas.len() * 160);
        out.push_str("{\"schema\":\"");
        out.push_str(COMPARE_SCHEMA);
        out.push_str("\",\"baseline\":");
        write_json_string(&self.baseline, &mut out);
        out.push_str(",\"candidate\":");
        write_json_string(&self.candidate, &mut out);
        let _ = write!(
            out,
            ",\"threshold\":{},\"regressed\":{},\"regressions\":{},\"improvements\":{},\"metrics\":[",
            self.threshold,
            self.has_regressions(),
            self.regressions().len(),
            self.deltas.iter().filter(|d| d.improved).count()
        );
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&d.name, &mut out);
            let status = if d.regressed {
                "regressed"
            } else if d.improved {
                "improved"
            } else if matches!(d.class, MetricClass::NoteOnly | MetricClass::InfoOnly) {
                "ungated"
            } else {
                "ok"
            };
            let num = |v: f64| {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            };
            let _ = write!(
                out,
                ",\"class\":\"{}\",\"baseline\":{},\"candidate\":{},\"rel_change\":{},\"gate\":{},\"status\":\"{status}\"",
                d.class.name(),
                num(d.baseline),
                num(d.candidate),
                num(d.rel_change),
                num(d.gate),
            );
            if !self.series.is_empty() {
                out.push_str(",\"history\":[");
                for (j, e) in self.series.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"revision\":");
                    match &e.git_revision {
                        Some(rev) => write_json_string(rev, &mut out),
                        None => out.push_str("null"),
                    }
                    let value = e
                        .metrics
                        .get(&d.name)
                        .map_or("null".to_string(), |v| num(*v));
                    let _ = write!(
                        out,
                        ",\"timestamp_unix_ms\":{},\"value\":{value}}}",
                        e.timestamp_unix_ms
                    );
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("],\"missing\":[");
        for (i, name) in self.missing.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
        }
        out.push_str("]}");
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Compares `candidate` against `baseline` at the given base `threshold`.
///
/// Gates per metric class: deterministic metrics regress when they move up
/// by more than `threshold`; host metrics widen the gate to the largest of
/// `threshold`, both entries' recorded `<metric>_spread` noise floors, and
/// a static floor ([`WALL_NOISE_FLOOR`] for wall times, [`ALLOC_NOISE_FLOOR`]
/// for allocator metrics). All gated metrics are lower-is-better.
pub fn compare(baseline: &HistoryEntry, candidate: &HistoryEntry, threshold: f64) -> CompareReport {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (name, &base) in &baseline.metrics {
        let Some(&cand) = candidate.metrics.get(name) else {
            missing.push(name.clone());
            continue;
        };
        let class = classify(name);
        let rel_change = if base != 0.0 {
            (cand - base) / base
        } else if cand == 0.0 {
            0.0
        } else {
            1.0
        };
        let gate = match class {
            MetricClass::Deterministic => threshold,
            MetricClass::Noisy | MetricClass::Kernel => {
                let spread_key = format!("{name}_spread");
                let floor = baseline
                    .metrics
                    .get(&spread_key)
                    .copied()
                    .unwrap_or(0.0)
                    .max(candidate.metrics.get(&spread_key).copied().unwrap_or(0.0));
                let static_floor = if class == MetricClass::Kernel {
                    KERNEL_NOISE_FLOOR
                } else if name.contains("alloc") {
                    ALLOC_NOISE_FLOOR
                } else {
                    WALL_NOISE_FLOOR
                };
                threshold.max(floor).max(static_floor)
            }
            MetricClass::NoteOnly | MetricClass::InfoOnly => 0.0,
        };
        let gated = matches!(
            class,
            MetricClass::Deterministic | MetricClass::Noisy | MetricClass::Kernel
        );
        deltas.push(MetricDelta {
            name: name.clone(),
            class,
            baseline: base,
            candidate: cand,
            rel_change,
            gate,
            regressed: gated && rel_change > gate,
            improved: gated && rel_change < -gate,
        });
    }
    for name in candidate.metrics.keys() {
        if !baseline.metrics.contains_key(name) {
            missing.push(name.clone());
        }
    }
    missing.sort();
    CompareReport {
        baseline: baseline.describe(),
        candidate: candidate.describe(),
        threshold,
        deltas,
        missing,
        series: Vec::new(),
    }
}

/// Which networks a [`record`] run simulates, and whether the simulation
/// cache serves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSet {
    /// The five Figure-9 networks at paper-default config — the tracked
    /// benchmark.
    Fig09,
    /// The Figure-9 networks served warm from the simulation cache: an
    /// untimed populate pass per network, then every timed repeat hits the
    /// in-memory cache. Tracks the warm-sweep speed the cache exists for,
    /// under its own `fig09-warm` label so warm wall times never blend
    /// into the cold baseline.
    Fig09Warm,
    /// One tiny synthetic network at a reduced channel sample — a
    /// seconds-scale smoke workload for CI.
    Tiny,
    /// The tiny workload served warm from the simulation cache — the
    /// seconds-scale counterpart of [`WorkloadSet::Fig09Warm`].
    TinyWarm,
}

impl WorkloadSet {
    /// Parses a CLI label.
    pub fn from_label(label: &str) -> Option<WorkloadSet> {
        match label {
            "fig09" => Some(WorkloadSet::Fig09),
            "fig09-warm" => Some(WorkloadSet::Fig09Warm),
            "tiny" => Some(WorkloadSet::Tiny),
            "tiny-warm" => Some(WorkloadSet::TinyWarm),
            _ => None,
        }
    }

    /// The ledger label recorded entries carry.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadSet::Fig09 => "fig09",
            WorkloadSet::Fig09Warm => "fig09-warm",
            WorkloadSet::Tiny => "tiny",
            WorkloadSet::TinyWarm => "tiny-warm",
        }
    }

    /// Whether [`record`] runs this set against a pre-warmed simulation
    /// cache.
    pub fn warm_cache(self) -> bool {
        matches!(self, WorkloadSet::Fig09Warm | WorkloadSet::TinyWarm)
    }

    fn networks(self) -> Vec<NetworkModel> {
        match self {
            WorkloadSet::Fig09 | WorkloadSet::Fig09Warm => figure9_networks(),
            WorkloadSet::Tiny | WorkloadSet::TinyWarm => vec![NetworkModel {
                name: "tiny",
                layers: vec![
                    ant_workloads::ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
                    ant_workloads::ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
                ],
            }],
        }
    }

    fn config(self) -> ExperimentConfig {
        match self {
            WorkloadSet::Fig09 | WorkloadSet::Fig09Warm => ExperimentConfig::paper_default(),
            WorkloadSet::Tiny | WorkloadSet::TinyWarm => ExperimentConfig {
                max_channels: 2,
                ..ExperimentConfig::paper_default()
            },
        }
    }
}

/// Runs the workload set `repeats` times (min 1) and builds a ledger entry:
/// deterministic cycle/energy metrics from the first repeat, min-of-K wall
/// time with its relative spread as the noise floor, allocator traffic when
/// the counting allocator is active (it is, in `ant-bench` binaries — this
/// function enables counting), and an informational throughput rate. The
/// first repeat runs at the set's config; each later cold repeat `i` at
/// seed `config seed + (i << 32)`, so every cold repeat synthesizes.
pub fn record(set: WorkloadSet, repeats: u32) -> HistoryEntry {
    let repeats = repeats.max(1);
    ant_obs::alloc::enable();
    let cfg = set.config();
    let energy = EnergyModel::paper_7nm();
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    // Warm sets measure against a freshly-activated in-memory simulation
    // cache (no on-disk store, so the entry never depends on what an
    // earlier process left behind); the override is restored to the
    // environment default before returning.
    if set.warm_cache() {
        simcache::set_override(simcache::CacheOverride::On(
            simcache::SimCacheConfig::default(),
        ));
    }
    let mut metrics = BTreeMap::new();
    for net in set.networks() {
        let mut walls: Vec<f64> = Vec::with_capacity(repeats as usize);
        let mut alloc_bytes: Vec<f64> = Vec::with_capacity(repeats as usize);
        let mut allocs: Vec<f64> = Vec::with_capacity(repeats as usize);
        let mut first = None;
        if set.warm_cache() {
            // Untimed populate pass: every timed repeat below is warm.
            let _ = simulate_network_parallel(&scnn, &net, &cfg);
            let _ = simulate_network_parallel(&ant, &net, &cfg);
        }
        for i in 0..repeats {
            // Cold repeat i runs at its own seed (the benchmark's cold-op
            // rule), so each one synthesizes its operands once, as a fresh
            // fig09 process does, instead of reusing the runner's operand
            // slot from the repeat before. Repeat 0 is the config's seed.
            let cfg = if set.warm_cache() {
                cfg
            } else {
                ExperimentConfig {
                    seed: cfg.seed.wrapping_add(u64::from(i) << 32),
                    ..cfg
                }
            };
            let before = ant_obs::alloc::snapshot();
            let started = Instant::now();
            let s = simulate_network_parallel(&scnn, &net, &cfg);
            let a = simulate_network_parallel(&ant, &net, &cfg);
            walls.push(started.elapsed().as_micros() as f64);
            let delta = ant_obs::alloc::snapshot().delta_from(&before);
            alloc_bytes.push(delta.allocated_bytes as f64);
            allocs.push(delta.allocs as f64);
            if first.is_none() {
                first = Some((s, a));
            }
        }
        let (s, a) = first.expect("at least one repeat");
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let min_wall = min(&walls);
        let max_wall = walls.iter().copied().fold(0.0_f64, f64::max);
        let spread = if min_wall > 0.0 {
            (max_wall - min_wall) / min_wall
        } else {
            0.0
        };
        let key = |measure: &str| format!("{}/{measure}", net.name);
        metrics.insert(key("scnn_cycles"), s.wall_cycles as f64);
        metrics.insert(key("ant_cycles"), a.wall_cycles as f64);
        metrics.insert(key("scnn_energy_uj"), s.total.energy_pj(&energy) / 1e6);
        metrics.insert(key("ant_energy_uj"), a.total.energy_pj(&energy) / 1e6);
        metrics.insert(key("wall_us"), min_wall);
        metrics.insert(key("wall_us_spread"), spread);
        if ant_obs::alloc::counting_active() {
            metrics.insert(key("alloc_bytes"), min(&alloc_bytes));
            metrics.insert(key("allocs"), min(&allocs));
        }
        let combined = s.total.merge(&a.total);
        metrics.insert(
            key("effectual_macs_per_sec"),
            combined.throughput(min_wall / 1e6).effectual_macs_per_sec,
        );
        if set.warm_cache() {
            // Informational (never gated): proves the timed repeats really
            // were served from the cache, per network.
            metrics.insert(key("cache_hits"), (s.cache_hits + a.cache_hits) as f64);
        }
    }
    if set.warm_cache() {
        simcache::set_override(simcache::CacheOverride::Env);
    }
    HistoryEntry {
        label: set.label().to_string(),
        git_revision: ant_obs::git_revision(),
        timestamp_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        repeats,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(metrics: &[(&str, f64)]) -> HistoryEntry {
        HistoryEntry {
            label: "fig09".to_string(),
            git_revision: Some("deadbeef0123".to_string()),
            timestamp_unix_ms: 1_700_000_000_000,
            repeats: 3,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn json_line_round_trips() {
        let e = entry(&[
            ("vgg16/ant_cycles", 123456.0),
            ("vgg16/wall_us", 789.5),
            ("vgg16/wall_us_spread", 0.04),
        ]);
        let parsed = HistoryEntry::parse(&e.to_json_line()).expect("round trip");
        assert_eq!(parsed, e);
    }

    #[test]
    fn list_json_is_schema_tagged_and_indexed() {
        let mut second = entry(&[("vgg16/ant_cycles", 2.0)]);
        second.git_revision = None;
        second.label = "tiny".to_string();
        let listing = list_json(&[entry(&[("vgg16/ant_cycles", 1.0)]), second], 1);
        let json = ant_obs::parse_json(&listing).expect("valid JSON");
        let s = |j: &ant_obs::json::Json, k: &str| {
            j.get(k).and_then(|v| v.as_str().map(str::to_string))
        };
        assert_eq!(s(&json, "schema").as_deref(), Some(LIST_SCHEMA));
        assert_eq!(json.get("entries").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(json.get("lines_skipped").and_then(|v| v.as_u64()), Some(1));
        let runs = json.get("runs").and_then(|v| v.as_array()).expect("runs");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("index").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(s(&runs[0], "git_revision").as_deref(), Some("deadbeef0123"));
        assert_eq!(runs[1].get("index").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(s(&runs[1], "label").as_deref(), Some("tiny"));
        assert!(
            runs[1].get("git_revision").is_some(),
            "null revision key kept"
        );
        assert_eq!(s(&runs[1], "git_revision"), None);
        assert_eq!(
            runs[1].get("metric_count").and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn parse_rejects_repeats_beyond_u32() {
        let line = entry(&[])
            .to_json_line()
            .replace("\"repeats\":3", "\"repeats\":4294967299");
        let err = HistoryEntry::parse(&line).expect_err("2^32 + 3 repeats is no u32");
        assert!(err.contains("repeats"), "{err}");
    }

    #[test]
    fn describe_cuts_the_revision_at_a_character_boundary() {
        let mut e = entry(&[]);
        e.git_revision = Some("abcdefghi\u{e9}x".to_string());
        let line = e.to_json_line();
        let loaded = HistoryEntry::parse(&line).expect("a multi-byte revision parses");
        assert_eq!(loaded.describe(), "fig09 @ abcdefghi\u{e9}");
        assert_eq!(entry(&[]).describe(), "fig09 @ deadbeef01");
    }

    #[test]
    fn mutated_lines_are_rejected_or_re_emit_exactly() {
        let mut unrevised = entry(&[("tiny/wall_us", 291.0), ("tiny/ant_energy_uj", 0.002890005)]);
        unrevised.git_revision = None;
        let committed = include_str!("../../../BENCH_history.jsonl")
            .lines()
            .next()
            .expect("the committed ledger has a line");
        let corpus = [
            entry(&[
                ("vgg16/ant_cycles", 123456.0),
                ("vgg16/wall_us_spread", 0.04),
            ])
            .to_json_line(),
            unrevised.to_json_line(),
            committed.to_string(),
        ];
        let mut accepted = 0;
        for (seed, line) in (0x4157u64..).zip(&corpus) {
            for case in 0..2_000 {
                let mutant = crate::layer_log::tests::mutant(line, seed, case);
                let Ok(parsed) = HistoryEntry::parse(&mutant) else {
                    continue;
                };
                accepted += 1;
                let _ = parsed.describe();
                let emitted = parsed.to_json_line();
                let again = HistoryEntry::parse(&emitted)
                    .unwrap_or_else(|e| panic!("case {case}: {mutant}: re-emitted line: {e}"));
                assert_eq!(again.to_json_line(), emitted, "case {case}: {mutant}");
            }
        }
        // Flips inside digits, names and the revision keep some lines valid.
        assert!(accepted > 0, "no mutant was accepted");
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let line =
            r#"{"schema":"other/9","label":"x","timestamp_unix_ms":0,"repeats":1,"metrics":{}}"#;
        assert!(HistoryEntry::parse(line).unwrap_err().contains("schema"));
    }

    #[test]
    fn classify_follows_suffix_rules() {
        assert_eq!(classify("net/ant_cycles"), MetricClass::Deterministic);
        assert_eq!(classify("net/scnn_cycles"), MetricClass::Deterministic);
        assert_eq!(classify("net/wall_us"), MetricClass::Noisy);
        assert_eq!(classify("net/alloc_bytes"), MetricClass::Noisy);
        assert_eq!(classify("net/allocs"), MetricClass::Noisy);
        assert_eq!(classify("net/ant_energy_uj"), MetricClass::NoteOnly);
        assert_eq!(classify("net/wall_us_spread"), MetricClass::InfoOnly);
        assert_eq!(
            classify("net/effectual_macs_per_sec"),
            MetricClass::InfoOnly
        );
        assert_eq!(
            classify("kernel/bitmask_and_count/s90/ns_per_op"),
            MetricClass::Kernel
        );
        // A kernel metric's own spread stays informational.
        assert_eq!(
            classify("kernel/bitmask_and_count/s90/ns_per_op_spread"),
            MetricClass::InfoOnly
        );
    }

    #[test]
    fn kernel_metrics_gate_at_the_kernel_floor() {
        let name = "kernel/fnir_scan/s90/ns_per_op";
        // +20% sits under the 25% kernel floor.
        let base = entry(&[(name, 100.0)]);
        let within = entry(&[(name, 120.0)]);
        assert!(!compare(&base, &within, DEFAULT_THRESHOLD).has_regressions());
        // +40% regresses, and the delta carries the kernel class.
        let beyond = entry(&[(name, 140.0)]);
        let report = compare(&base, &beyond, DEFAULT_THRESHOLD);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].class, MetricClass::Kernel);
        assert_eq!(regs[0].class.name(), "kernel");
        // A recorded spread wider than the static floor widens the gate.
        let noisy_base = entry(&[
            (name, 100.0),
            ("kernel/fnir_scan/s90/ns_per_op_spread", 0.50),
        ]);
        let noisy_cand = entry(&[
            (name, 140.0),
            ("kernel/fnir_scan/s90/ns_per_op_spread", 0.01),
        ]);
        assert!(!compare(&noisy_base, &noisy_cand, DEFAULT_THRESHOLD).has_regressions());
    }

    #[test]
    fn compare_report_serializes_to_json() {
        let base = entry(&[
            ("vgg16/ant_cycles", 1_000_000.0),
            ("kernel/fnir_scan/s90/ns_per_op", 100.0),
            ("vgg16/ant_energy_uj", 10.0),
        ]);
        let mut cand = base.clone();
        cand.metrics
            .insert("vgg16/ant_cycles".to_string(), 1_100_000.0); // +10%: regressed
        cand.metrics.insert("vgg16/alloc_bytes".to_string(), 5e6); // only in candidate
        let report = compare(&base, &cand, DEFAULT_THRESHOLD);
        let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(
            json.get("schema").and_then(|s| s.as_str()),
            Some(COMPARE_SCHEMA)
        );
        assert_eq!(json.get("regressed").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(json.get("regressions").and_then(|n| n.as_u64()), Some(1));
        let metrics = json
            .get("metrics")
            .and_then(|m| m.as_array())
            .expect("metrics array");
        assert_eq!(metrics.len(), 3);
        let by_name = |name: &str| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(|s| s.as_str()) == Some(name))
                .expect("metric present")
        };
        let cycles = by_name("vgg16/ant_cycles");
        assert_eq!(
            cycles.get("status").and_then(|s| s.as_str()),
            Some("regressed")
        );
        assert_eq!(cycles.get("class").and_then(|s| s.as_str()), Some("cycles"));
        assert_eq!(
            cycles.get("candidate").and_then(|v| v.as_f64()),
            Some(1_100_000.0)
        );
        let kern = by_name("kernel/fnir_scan/s90/ns_per_op");
        assert_eq!(kern.get("class").and_then(|s| s.as_str()), Some("kernel"));
        assert_eq!(kern.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(
            kern.get("gate").and_then(|v| v.as_f64()),
            Some(KERNEL_NOISE_FLOOR)
        );
        let energy = by_name("vgg16/ant_energy_uj");
        assert_eq!(
            energy.get("status").and_then(|s| s.as_str()),
            Some("ungated")
        );
        let missing = json
            .get("missing")
            .and_then(|m| m.as_array())
            .expect("missing array");
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].as_str(), Some("vgg16/alloc_bytes"));
    }

    #[test]
    fn self_compare_reports_zero_regressions() {
        let e = entry(&[
            ("vgg16/ant_cycles", 1e6),
            ("vgg16/wall_us", 5e5),
            ("vgg16/ant_energy_uj", 12.5),
        ]);
        let report = compare(&e, &e, DEFAULT_THRESHOLD);
        assert!(!report.has_regressions());
        assert!(report.regressions().is_empty());
        assert!(report.deltas.iter().all(|d| d.rel_change == 0.0));
    }

    #[test]
    fn injected_cycle_regression_is_flagged() {
        let base = entry(&[("vgg16/ant_cycles", 1_000_000.0)]);
        let mut worse = base.clone();
        worse
            .metrics
            .insert("vgg16/ant_cycles".to_string(), 1_100_000.0); // +10%
        let report = compare(&base, &worse, DEFAULT_THRESHOLD);
        assert!(report.has_regressions());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "vgg16/ant_cycles");
        assert!((regs[0].rel_change - 0.10).abs() < 1e-9);
        assert!(report.to_markdown().contains("REGRESSED"));
    }

    #[test]
    fn cycle_improvement_is_not_a_regression() {
        let base = entry(&[("vgg16/ant_cycles", 1_000_000.0)]);
        let better = entry(&[("vgg16/ant_cycles", 800_000.0)]);
        let report = compare(&base, &better, DEFAULT_THRESHOLD);
        assert!(!report.has_regressions());
        assert!(report.deltas[0].improved);
    }

    #[test]
    fn wall_noise_inside_recorded_spread_is_not_flagged() {
        // 55% wall movement, but the entries carry a 60% noise floor that
        // exceeds the static WALL_NOISE_FLOOR.
        let base = entry(&[("vgg16/wall_us", 100_000.0), ("vgg16/wall_us_spread", 0.60)]);
        let cand = entry(&[("vgg16/wall_us", 155_000.0), ("vgg16/wall_us_spread", 0.02)]);
        let report = compare(&base, &cand, DEFAULT_THRESHOLD);
        assert!(!report.has_regressions(), "{:?}", report.regressions());
        // Without the spread the same movement is flagged.
        let base_ns = entry(&[("vgg16/wall_us", 100_000.0)]);
        let cand_ns = entry(&[("vgg16/wall_us", 155_000.0)]);
        assert!(compare(&base_ns, &cand_ns, DEFAULT_THRESHOLD).has_regressions());
    }

    #[test]
    fn wall_metrics_get_the_static_noise_floor() {
        // Run-to-run wall jitter up to WALL_NOISE_FLOOR passes even when the
        // within-run repeats agreed perfectly (spread 0, e.g. repeats=1).
        let base = entry(&[("vgg16/wall_us", 100_000.0), ("vgg16/wall_us_spread", 0.0)]);
        let jitter = entry(&[("vgg16/wall_us", 130_000.0), ("vgg16/wall_us_spread", 0.0)]);
        assert!(!compare(&base, &jitter, DEFAULT_THRESHOLD).has_regressions());
        let blowup = entry(&[("vgg16/wall_us", 200_000.0), ("vgg16/wall_us_spread", 0.0)]);
        assert!(compare(&base, &blowup, DEFAULT_THRESHOLD).has_regressions());
    }

    #[test]
    fn energy_never_gates() {
        let base = entry(&[("vgg16/ant_energy_uj", 10.0)]);
        let worse = entry(&[("vgg16/ant_energy_uj", 20.0)]);
        assert!(!compare(&base, &worse, DEFAULT_THRESHOLD).has_regressions());
    }

    #[test]
    fn alloc_metrics_get_extra_allowance() {
        let base = entry(&[("vgg16/alloc_bytes", 1_000_000.0)]);
        let within = entry(&[("vgg16/alloc_bytes", 1_080_000.0)]); // +8% < 10%
        assert!(!compare(&base, &within, DEFAULT_THRESHOLD).has_regressions());
        let beyond = entry(&[("vgg16/alloc_bytes", 1_200_000.0)]); // +20%
        assert!(compare(&base, &beyond, DEFAULT_THRESHOLD).has_regressions());
    }

    #[test]
    fn new_metrics_are_missing_not_regressed() {
        let base = entry(&[("vgg16/ant_cycles", 1e6)]);
        let cand = entry(&[("vgg16/ant_cycles", 1e6), ("vgg16/alloc_bytes", 5e6)]);
        let report = compare(&base, &cand, DEFAULT_THRESHOLD);
        assert!(!report.has_regressions());
        assert_eq!(report.missing, vec!["vgg16/alloc_bytes".to_string()]);
    }

    /// A fig09 series with one other label interleaved; the newest fig09
    /// entry regresses its cycles by 19% over the 100.5 median.
    fn ledger() -> Vec<HistoryEntry> {
        [
            ("fig09", "aaa1111", 100.0),
            ("other", "bbb2222", 5.0),
            ("fig09", "ccc3333", 101.0),
            ("fig09", "ddd4444", 120.0),
        ]
        .iter()
        .enumerate()
        .map(|(i, (label, rev, cycles))| HistoryEntry {
            label: label.to_string(),
            git_revision: Some(rev.to_string()),
            timestamp_unix_ms: i as u64,
            ..entry(&[("net/ant_cycles", *cycles)])
        })
        .collect()
    }

    #[test]
    fn rolling_compare_gates_the_newest_entry_against_the_window_median() {
        let entries = ledger();
        let report = compare_rolling(&entries, None, 5, DEFAULT_THRESHOLD).expect("a report");
        let window = [&entries[2], &entries[0]];
        let expected = compare(&median_of(&window), &entries[3], DEFAULT_THRESHOLD);
        assert_eq!(report.baseline, expected.baseline);
        assert_eq!(report.candidate, expected.candidate);
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.deltas[0].rel_change, expected.deltas[0].rel_change);
        assert!(report.has_regressions());
        // The series is the fig09 window plus the candidate, oldest first.
        let revisions: Vec<_> = report.series.iter().map(|e| e.describe()).collect();
        assert_eq!(
            revisions,
            ["fig09 @ aaa1111", "fig09 @ ccc3333", "fig09 @ ddd4444"]
        );
        // A window of one keeps only the newest earlier entry.
        let narrow = compare_rolling(&entries, None, 1, DEFAULT_THRESHOLD).expect("a report");
        assert_eq!(narrow.series.len(), 2);
        assert_eq!(narrow.deltas[0].baseline, 101.0);
    }

    #[test]
    fn rolling_compare_label_picks_that_series() {
        let entries = ledger();
        // The newest fig09 entry need not be the newest entry.
        let mut later = entries.clone();
        later.push(HistoryEntry {
            label: "other".to_string(),
            ..entries[1].clone()
        });
        let report =
            compare_rolling(&later, Some("fig09"), 5, DEFAULT_THRESHOLD).expect("a report");
        assert_eq!(report.candidate, "fig09 @ ddd4444");
        assert_eq!(report.series.len(), 3);
        // Two "other" entries: the later one against the first.
        let other = compare_rolling(&later, None, 5, DEFAULT_THRESHOLD).expect("a report");
        assert_eq!(other.series.len(), 2);
        assert!(!other.has_regressions());
    }

    #[test]
    fn rolling_compare_explains_why_there_is_nothing_to_compare() {
        let entries = ledger();
        let reason = |label, entries: &[HistoryEntry]| {
            compare_rolling(entries, label, 5, DEFAULT_THRESHOLD).expect_err("nothing to compare")
        };
        assert_eq!(reason(None, &[]), "the ledger is empty");
        assert_eq!(reason(Some("other"), &entries), "only one other entry");
        assert_eq!(
            reason(Some("tiny"), &entries),
            "no \"tiny\" entry in the ledger"
        );
    }

    #[test]
    fn rolling_compare_reports_each_metrics_history() {
        let mut entries = ledger();
        entries[0].metrics.clear();
        let report = compare_rolling(&entries, None, 5, DEFAULT_THRESHOLD).expect("a report");
        let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(json.get("regressed").and_then(|b| b.as_bool()), Some(true));
        let metrics = json
            .get("metrics")
            .and_then(|m| m.as_array())
            .expect("metrics");
        assert_eq!(
            metrics[0].get("status").and_then(|s| s.as_str()),
            Some("regressed")
        );
        let history = metrics[0]
            .get("history")
            .and_then(|h| h.as_array())
            .expect("history");
        let values: Vec<_> = history
            .iter()
            .map(|p| p.get("value").and_then(|v| v.as_f64()))
            .collect();
        assert_eq!(values, [None, Some(101.0), Some(120.0)]);
        assert_eq!(
            history[2].get("revision").and_then(|r| r.as_str()),
            Some("ddd4444")
        );
        assert_eq!(
            history[2].get("timestamp_unix_ms").and_then(|t| t.as_u64()),
            Some(3)
        );
        assert!(report.to_markdown().contains("| - → 101 → 120 |"));
        // Two entries compared directly carry no history.
        let direct = compare(&entries[2], &entries[3], DEFAULT_THRESHOLD);
        assert!(!direct.to_json().contains("history"));
        assert!(!direct.to_markdown().contains("old → new"));
    }

    #[test]
    fn median_baseline_rejects_outlier_run() {
        let entries = [
            entry(&[("vgg16/ant_cycles", 100.0)]),
            entry(&[("vgg16/ant_cycles", 101.0)]),
            entry(&[("vgg16/ant_cycles", 500.0)]), // outlier
        ];
        let refs: Vec<&HistoryEntry> = entries.iter().collect();
        let median = median_of(&refs);
        assert_eq!(median.metrics["vgg16/ant_cycles"], 101.0);
        assert!(median.label.contains("median(3)"));
    }
}
