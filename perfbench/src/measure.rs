//! Timing statistics and process-level readings shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Fewest ops a timed phase completes, so that `op_ms.p90` has
/// [`TAIL_SAMPLES`] samples beyond it (`100 - ceil(0.9 * 100) = 10`).
pub const MIN_OPS: usize = 100;

/// Nearest-rank percentile `q` in `(0, 1]` of an ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// The median of unsorted samples (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// Nearest-rank 90th percentile of unsorted samples; `None` unless at
/// least [`TAIL_SAMPLES`] samples lie beyond it.
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples_beyond(samples.len(), 0.9) < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(nearest_rank(&sorted, 0.9))
}

/// Process user+system CPU seconds from `/proc/self/stat`, all threads.
pub fn cpu_seconds() -> f64 {
    // Linux reports utime and stime in USER_HZ ticks, which is 100.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Resets the peak resident set size to the current one, so that
/// [`peak_rss_mb`] covers only what follows (set-up excluded).
pub fn reset_peak_rss() {
    // "5" resets VmHWM (Linux 4.0+); without it the peak includes set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one timed phase measured, before it is turned into metrics.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall latency of every completed op, ms.
    pub op_ms: Vec<f64>,
    /// Ops attempted (completed or not).
    pub attempted: u64,
    /// Ops that errored, came back partial, or were refused.
    pub failed: u64,
    /// Wall seconds of the phase.
    pub wall_s: f64,
    /// Process CPU seconds spent during the phase.
    pub cpu_s: f64,
    /// The phase's peak resident set size (`VmHWM`), MB.
    pub peak_rss_mb: f64,
}

/// Wall and CPU clocks started together at the beginning of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Clocks {
    wall: Instant,
    cpu_s: f64,
}

impl Clocks {
    /// Starts both clocks now and resets the peak RSS.
    pub fn start() -> Clocks {
        reset_peak_rss();
        Clocks {
            wall: Instant::now(),
            cpu_s: cpu_seconds(),
        }
    }

    /// Wall seconds since start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since start.
    pub fn cpu_s(&self) -> f64 {
        cpu_seconds() - self.cpu_s
    }
}

/// Runs `op` back to back (one client, closed loop) until `seconds` have
/// passed and at least `min_ops` were attempted. `op` returns whether it
/// succeeded; only successful ops contribute a latency.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut() -> bool) -> Phase {
    let clocks = Clocks::start();
    let mut phase = Phase::default();
    while clocks.wall_s() < seconds || (phase.attempted as usize) < min_ops {
        let started = Instant::now();
        let ok = op();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        phase.attempted += 1;
        if ok {
            phase.op_ms.push(ms);
        } else {
            phase.failed += 1;
        }
    }
    phase.wall_s = clocks.wall_s();
    phase.cpu_s = clocks.cpu_s();
    phase.peak_rss_mb = peak_rss_mb();
    phase
}

/// Named metrics with units, in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The metrics as the benchmark's result-object `metrics` member.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The end-to-end metrics of one untraced phase plus its set-up times.
/// These are the metrics regressions are judged on; [`summary`] prints
/// the failure count, the latency sample count and the CPU per op beside
/// them. A run with fewer than [`TAIL_SAMPLES`] samples beyond p90 (only
/// one whose ops failed) reports `op_ms.p90` as 0.
pub fn end_to_end(phase: &Phase, setup_s: &[f64], model_err: (f64, f64)) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", median(setup_s), "s");
    m.set("op_ms.p50", median(&phase.op_ms), "ms");
    m.set("op_ms.p90", p90(&phase.op_ms).unwrap_or(0.0), "ms");
    m.set("ops_per_s", phase.op_ms.len() as f64 / phase.wall_s, "1/s");
    m.set("peak_rss_mb", phase.peak_rss_mb, "MB");
    m.set("speedup_err_pct", model_err.0, "%");
    m.set("energy_err_pct", model_err.1, "%");
    m
}

/// One human-readable line on the phase: failures, the latency sample
/// count behind the percentiles, and `cpu_ms_per_op`, process user+system
/// CPU per completed op. The CPU figure is not a gated metric: across ten
/// back-to-back runs on a shared 2-CPU VM it climbed by half on
/// `sweepd-overlap`, past any bound a gate may have.
pub fn summary(phase: &Phase) -> String {
    let tail = match p90(&phase.op_ms) {
        Some(_) => format!(
            "{} beyond op_ms.p90",
            samples_beyond(phase.op_ms.len(), 0.9)
        ),
        None => format!("op_ms.p90 not valid: fewer than {TAIL_SAMPLES} beyond it"),
    };
    format!(
        "{} ops attempted, {} failed (failed_frac {}), {} latency samples ({tail}), cpu_ms_per_op {:.4} ms",
        phase.attempted,
        phase.failed,
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.op_ms.len(),
        phase.cpu_s * 1e3 / phase.op_ms.len().max(1) as f64,
    )
}

/// `|reproduced - paper| / paper` in percent.
pub fn err_pct(reproduced: f64, paper: f64) -> f64 {
    (reproduced - paper).abs() / paper * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(p90(&samples), None, "9 samples beyond p90 is too few");

        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(p90(&samples), Some(90.0));
        assert_eq!(median(&samples), 50.0);
        assert_eq!(samples_beyond(MIN_OPS, 0.9), TAIL_SAMPLES);
        assert_eq!(p90(&[]), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(nearest_rank(&[1.0], 0.5), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        // Burn a little CPU so the tick counter has moved.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn metrics_render_every_digit() {
        let mut m = Metrics::default();
        m.set("op_ms.p50", 1.203456789, "ms");
        assert_eq!(
            m.to_json(),
            "{\"op_ms.p50\": {\"value\": 1.203456789, \"unit\": \"ms\"}}"
        );
    }
}
