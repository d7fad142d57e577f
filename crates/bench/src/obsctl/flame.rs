//! `obsctl flame`: collapsed-stack flamegraphs of a span trace, and
//! self/total-time deltas between two of them.
//!
//! The folded format is one line per call path, frames joined by `;`, the
//! trailing integer the path's *self* time in microseconds — the input of
//! `inferno-flamegraph` and <https://speedscope.app>:
//!
//! ```text
//! experiment;network;layer;phase 48713
//! experiment;network;layer 1204
//! ```
//!
//! [`fold`] writes it from the per-path totals of an `ANT_TRACE` trace
//! ([`super::trace::analyze`]) and [`FoldedProfile::parse`] reads it back.
//! A path's *total* time is its self time plus the self time of every
//! descendant path (any path it prefixes at a frame boundary). [`diff`]
//! reports both deltas per path over the union of two profiles, sorted by
//! absolute self-time delta, so "where did the time move" is one command
//! instead of two flamegraph renders and eyeballing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ant_obs::json::write_json_string;

use super::trace::TraceReport;

/// Schema tag of the machine-readable report (`--json`).
pub const SCHEMA: &str = "ant-flame-diff/1";

/// Renders a span trace's per-path totals as collapsed stacks: one line
/// per span path with positive self time (its total minus its direct
/// children's totals, clamped at zero), ordered by span path. Frames swap
/// `;` and whitespace for `_`, so the folded grammar (frames `;`-separated,
/// weight after the last space) survives arbitrary span names.
pub fn fold(trace: &TraceReport) -> String {
    let totals: BTreeMap<&str, f64> = trace
        .spans
        .iter()
        .map(|s| (s.path.as_str(), s.total_us))
        .collect();
    let mut child_us: BTreeMap<&str, f64> = BTreeMap::new();
    for (path, total) in &totals {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *child_us.entry(parent).or_default() += total;
        }
    }
    let mut out = String::new();
    for (path, total) in totals {
        let self_us = (total - child_us.get(path).copied().unwrap_or(0.0)).max(0.0) as u64;
        if self_us == 0 {
            continue;
        }
        let frames: Vec<String> = path
            .split('/')
            .map(|frame| frame.replace(|c: char| c == ';' || c.is_whitespace(), "_"))
            .collect();
        let _ = writeln!(out, "{} {self_us}", frames.join(";"));
    }
    out
}

/// A parsed folded file: path → self microseconds. Duplicate paths sum
/// (the folded grammar allows repeats); malformed lines are counted, not
/// fatal.
#[derive(Debug, Clone, Default)]
pub struct FoldedProfile {
    /// Self time per `;`-joined path.
    pub self_us: BTreeMap<String, u64>,
    /// Lines that did not parse as `path self_us`.
    pub lines_skipped: u64,
}

impl FoldedProfile {
    /// Parses folded text.
    pub fn parse(text: &str) -> FoldedProfile {
        let mut profile = FoldedProfile::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = line
                .rsplit_once(' ')
                .and_then(|(path, us)| us.parse::<u64>().ok().map(|us| (path, us)))
                .filter(|(path, _)| !path.is_empty());
            match parsed {
                Some((path, us)) => {
                    let self_us = profile.self_us.entry(path.to_string()).or_insert(0);
                    *self_us = self_us.saturating_add(us);
                }
                None => profile.lines_skipped += 1,
            }
        }
        profile
    }

    /// Total time per path: self plus every strict-descendant's self
    /// (descendants share the path as a `;`-boundary prefix). Sums
    /// saturate at `u64::MAX`, since `parse` accepts any `u64` weight.
    pub fn total_us(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for (path, &self_us) in &self.self_us {
            // Credit this leaf's self time to itself and every ancestor
            // prefix, walking the `;` boundaries.
            let ancestors = path.match_indices(';').map(|(idx, _)| &path[..idx]);
            for prefix in std::iter::once(path.as_str()).chain(ancestors) {
                let total = totals.entry(prefix.to_string()).or_insert(0);
                *total = total.saturating_add(self_us);
            }
        }
        // Keep only paths that exist in the profile (ancestors with no
        // recorded self line still accumulated descendant time; they are
        // real nodes of the span tree, keep them).
        totals
    }
}

/// One path's movement between the two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDelta {
    /// `;`-joined call path.
    pub path: String,
    /// Self microseconds in the first profile.
    pub self_a_us: u64,
    /// Self microseconds in the second profile.
    pub self_b_us: u64,
    /// `self_b - self_a`.
    pub self_delta_us: i64,
    /// Total microseconds in the first profile.
    pub total_a_us: u64,
    /// Total microseconds in the second profile.
    pub total_b_us: u64,
    /// `total_b - total_a`.
    pub total_delta_us: i64,
}

/// The outcome of diffing two folded profiles.
#[derive(Debug, Clone)]
pub struct FlameDiff {
    /// Per-path deltas over the union of paths, sorted by absolute
    /// self-time delta (largest movement first).
    pub deltas: Vec<PathDelta>,
    /// Sum of self time in the first profile.
    pub total_a_us: u64,
    /// Sum of self time in the second profile.
    pub total_b_us: u64,
    /// Unparsable lines skipped across both inputs.
    pub lines_skipped: u64,
}

/// Diffs `b` against `a` (positive deltas mean `b` is slower).
pub fn diff(a: &FoldedProfile, b: &FoldedProfile) -> FlameDiff {
    let totals_a = a.total_us();
    let totals_b = b.total_us();
    let mut paths: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    paths.extend(totals_a.keys().map(String::as_str));
    paths.extend(totals_b.keys().map(String::as_str));
    let mut deltas: Vec<PathDelta> = paths
        .into_iter()
        .map(|path| {
            let self_a_us = a.self_us.get(path).copied().unwrap_or(0);
            let self_b_us = b.self_us.get(path).copied().unwrap_or(0);
            let total_a_us = totals_a.get(path).copied().unwrap_or(0);
            let total_b_us = totals_b.get(path).copied().unwrap_or(0);
            PathDelta {
                path: path.to_string(),
                self_a_us,
                self_b_us,
                self_delta_us: delta(self_a_us, self_b_us),
                total_a_us,
                total_b_us,
                total_delta_us: delta(total_a_us, total_b_us),
            }
        })
        .collect();
    deltas.sort_by(|x, y| {
        y.self_delta_us
            .unsigned_abs()
            .cmp(&x.self_delta_us.unsigned_abs())
            .then_with(|| x.path.cmp(&y.path))
    });
    FlameDiff {
        deltas,
        total_a_us: saturating_sum(a.self_us.values()),
        total_b_us: saturating_sum(b.self_us.values()),
        lines_skipped: a.lines_skipped.saturating_add(b.lines_skipped),
    }
}

/// `b - a`, widened so any two `u64` weights subtract, then clamped into
/// `i64`.
fn delta(a: u64, b: u64) -> i64 {
    let wide = i128::from(b) - i128::from(a);
    wide.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

fn saturating_sum<'a>(weights: impl Iterator<Item = &'a u64>) -> u64 {
    weights.fold(0, |sum, &w| sum.saturating_add(w))
}

/// Renders the diff as a markdown table of the `top` biggest movers.
pub fn to_markdown(report: &FlameDiff, label_a: &str, label_b: &str, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Flamegraph diff\n");
    let _ = writeln!(
        out,
        "- a: `{label_a}` ({} us self total)",
        report.total_a_us
    );
    let _ = writeln!(
        out,
        "- b: `{label_b}` ({} us self total)",
        report.total_b_us
    );
    if report.lines_skipped > 0 {
        let _ = writeln!(out, "- skipped {} unparsable line(s)", report.lines_skipped);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| path | self a | self b | Δself | total a | total b | Δtotal |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|");
    for d in report.deltas.iter().take(top) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:+} | {} | {} | {:+} |",
            d.path,
            d.self_a_us,
            d.self_b_us,
            d.self_delta_us,
            d.total_a_us,
            d.total_b_us,
            d.total_delta_us
        );
    }
    if report.deltas.len() > top {
        let _ = writeln!(
            out,
            "\n({} more path(s) below --top {top})",
            report.deltas.len() - top
        );
    }
    out
}

/// Serializes the diff under the [`SCHEMA`] JSON schema (all paths).
pub fn to_json(report: &FlameDiff, label_a: &str, label_b: &str) -> String {
    let mut out = String::with_capacity(128 + report.deltas.len() * 160);
    out.push_str("{\"schema\":\"");
    out.push_str(SCHEMA);
    out.push_str("\",\"a\":");
    write_json_string(label_a, &mut out);
    out.push_str(",\"b\":");
    write_json_string(label_b, &mut out);
    let _ = write!(
        out,
        ",\"total_a_us\":{},\"total_b_us\":{},\"lines_skipped\":{},\"paths\":[",
        report.total_a_us, report.total_b_us, report.lines_skipped
    );
    for (i, d) in report.deltas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        write_json_string(&d.path, &mut out);
        let _ = write!(
            out,
            ",\"self_a_us\":{},\"self_b_us\":{},\"self_delta_us\":{},\"total_a_us\":{},\"total_b_us\":{},\"total_delta_us\":{}}}",
            d.self_a_us, d.self_b_us, d.self_delta_us, d.total_a_us, d.total_b_us, d.total_delta_us
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer_log::tests::mutant;
    use crate::obsctl::trace::{analyze, TraceFilter};
    use ant_obs::json::Json;

    /// One `ANT_TRACE` span record per `(path, dur_us)`.
    fn trace(spans: &[(&str, u64)]) -> TraceReport {
        let text: String = spans
            .iter()
            .map(|(path, dur_us)| {
                let name = path.rsplit('/').next().unwrap_or(path);
                format!("{{\"kind\":\"span\",\"name\":\"{name}\",\"path\":\"{path}\",\"dur_us\":{dur_us}}}\n")
            })
            .collect();
        analyze(&text, &TraceFilter::default())
    }

    #[test]
    fn fold_subtracts_direct_children_from_self_time() {
        let folded = fold(&trace(&[
            ("root", 100),
            ("root/child", 30),
            ("root/child", 20),
            ("root/child/leaf", 10),
        ]));
        assert_eq!(folded, "root 50\nroot;child 40\nroot;child;leaf 10\n");
        // Parsing the stacks back rolls self time up to the trace totals.
        let totals = FoldedProfile::parse(&folded).total_us();
        assert_eq!(totals["root"], 100);
        assert_eq!(totals["root;child"], 50);
    }

    #[test]
    fn fold_clamps_child_overshoot_to_zero_self() {
        // Child clocks can jitter past the parent's by a microsecond.
        assert_eq!(
            fold(&trace(&[("root", 10), ("root/child", 11)])),
            "root;child 11\n"
        );
    }

    #[test]
    fn fold_omits_zero_self_paths() {
        assert_eq!(
            fold(&trace(&[("root", 10), ("root/child", 10)])),
            "root;child 10\n"
        );
    }

    #[test]
    fn fold_escapes_frames_and_orders_lines_by_span_path() {
        let folded = fold(&trace(&[("exp", 100), ("exp/net work;x", 40), ("exp0", 5)]));
        // `/` sorts before `0`, so the child precedes `exp0`; sorting the
        // `;`-joined stacks would put it last.
        assert_eq!(folded, "exp 60\nexp;net_work_x 40\nexp0 5\n");
    }

    /// Parsed folded text re-renders to text that parses to the same
    /// paths and weights.
    fn assert_re_renders(profile: &FoldedProfile, what: &str) {
        let rendered: String = profile
            .self_us
            .iter()
            .map(|(path, us)| format!("{path} {us}\n"))
            .collect();
        assert_eq!(
            FoldedProfile::parse(&rendered).self_us,
            profile.self_us,
            "{what}"
        );
    }

    #[test]
    fn mutated_folded_text_parses_and_re_renders() {
        let folded = fold(&trace(&[
            ("experiment", 5_000),
            ("experiment/network", 20_000),
            ("experiment/network/layer", 9_000),
            ("experiment/network/layer/phase", 120),
        ]));
        let mut accepted = 0;
        for case in 0..2_000 {
            let mutant = mutant(&folded, 0xF01D, case);
            let profile = FoldedProfile::parse(&mutant);
            accepted += usize::from(!profile.self_us.is_empty());
            assert_re_renders(&profile, &format!("case {case}: {mutant:?}"));
        }
        assert!(accepted > 0, "no mutant was accepted");
    }

    /// A span record as `ANT_TRACE=1 fig09_speedup_energy` writes it.
    const TRACE_LINE: &str = r#"{"kind":"span","name":"layer","ts_us":23398,"dur_us":46,"span":365,"parent":2,"path":"experiment/network/layer","fields":{"layer":"conv0","layer_index":0,"network":"DenseNet-121/CIFAR","machine":"SCNN+","channel_scale":16}}"#;

    #[test]
    fn mutated_trace_lines_fold_and_re_render() {
        let fold_text = |text: &str| fold(&analyze(text, &TraceFilter::default()));
        assert_eq!(fold_text(TRACE_LINE), "experiment;network;layer 46\n");
        let mut accepted = 0;
        for case in 0..2_000 {
            let mutant = mutant(TRACE_LINE, 0x7ACE, case);
            let profile = FoldedProfile::parse(&fold_text(&mutant));
            accepted += usize::from(!profile.self_us.is_empty());
            assert_re_renders(&profile, &format!("case {case}: {mutant}"));
        }
        assert!(accepted > 0, "no mutant was accepted");
    }

    const A: &str = "exp;net;layer;phase 100\nexp;net;layer 50\nexp;gone 10\n";
    const B: &str = "exp;net;layer;phase 300\nexp;net;layer 50\nexp;new 20\nbad line here\n";

    #[test]
    fn parse_sums_duplicates_and_counts_bad_lines() {
        let p = FoldedProfile::parse("a;b 10\na;b 5\nnope\n");
        assert_eq!(p.self_us["a;b"], 15);
        assert_eq!(p.lines_skipped, 1);
    }

    #[test]
    fn totals_roll_up_to_ancestors() {
        let p = FoldedProfile::parse(A);
        let totals = p.total_us();
        assert_eq!(totals["exp;net;layer;phase"], 100);
        assert_eq!(totals["exp;net;layer"], 150);
        assert_eq!(totals["exp;net"], 150);
        assert_eq!(totals["exp"], 160);
    }

    /// `parse` accepts any `u64` weight, so sums and differences of
    /// weights saturate: unchecked, this pair reported `total_a_us` 4 and
    /// a `+2` self delta for `a;b`.
    #[test]
    fn diff_saturates_weights_at_the_u64_range() {
        let a = FoldedProfile::parse("a;b 18446744073709551615\na 5\n");
        let b = FoldedProfile::parse("a;b 1\n");
        assert_eq!(a.total_us()["a"], u64::MAX);
        let d = diff(&a, &b);
        assert_eq!(d.total_a_us, u64::MAX);
        assert_eq!(d.total_b_us, 1);
        let ab = d.deltas.iter().find(|p| p.path == "a;b").unwrap();
        assert_eq!(ab.self_delta_us, i64::MIN);
        assert_eq!(ab.total_delta_us, i64::MIN);
        let root = d.deltas.iter().find(|p| p.path == "a").unwrap();
        assert_eq!((root.self_delta_us, root.total_delta_us), (-5, i64::MIN));
        assert_eq!(delta(0, u64::MAX), i64::MAX);
    }

    #[test]
    fn diff_reports_movement_and_union_paths() {
        let report = diff(&FoldedProfile::parse(A), &FoldedProfile::parse(B));
        assert_eq!(report.total_a_us, 160);
        assert_eq!(report.total_b_us, 370);
        assert_eq!(report.lines_skipped, 1);
        // Largest self mover first.
        assert_eq!(report.deltas[0].path, "exp;net;layer;phase");
        assert_eq!(report.deltas[0].self_delta_us, 200);
        assert_eq!(report.deltas[0].total_delta_us, 200);
        let by_path = |p: &str| {
            report
                .deltas
                .iter()
                .find(|d| d.path == p)
                .unwrap_or_else(|| panic!("path {p} in diff"))
        };
        assert_eq!(by_path("exp;gone").self_delta_us, -10);
        assert_eq!(by_path("exp;new").self_delta_us, 20);
        assert_eq!(by_path("exp;net;layer").self_delta_us, 0);
        assert_eq!(by_path("exp;net;layer").total_delta_us, 200);
        assert_eq!(by_path("exp").total_delta_us, 210);
    }

    #[test]
    fn json_and_markdown_render() {
        let report = diff(&FoldedProfile::parse(A), &FoldedProfile::parse(B));
        let json =
            ant_obs::parse_json(&to_json(&report, "a.folded", "b.folded")).expect("valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(json.get("a").and_then(Json::as_str), Some("a.folded"));
        let paths = json.get("paths").and_then(Json::as_array).expect("paths");
        assert!(!paths.is_empty());
        assert_eq!(
            paths[0].get("self_delta_us").and_then(Json::as_f64),
            Some(200.0)
        );
        let md = to_markdown(&report, "a.folded", "b.folded", 2);
        assert!(md.contains("| exp;net;layer;phase | 100 | 300 | +200 |"));
        assert!(md.contains("more path(s)"));
    }
}
