//! Scheduler-telemetry export: per-worker Perfetto tracks and the
//! manifest `host`-section worker table.
//!
//! The work-stealing runner ([`crate::runner`]) collects one
//! [`WorkerTelemetry`] per OS worker when `ANT_TELEMETRY` is on. This
//! module turns those counters into the two sinks observers read:
//!
//! * [`add_worker_tracks`] — host-time tracks in the existing Perfetto
//!   timeline exporter: one span track per worker (slices named `pair`,
//!   or `steal` for jobs taken from another worker's deque) plus a deque-
//!   depth counter track, all in **wall microseconds** since the sweep
//!   started. Host tracks live in their own process (`pid`) so they never
//!   mix with the simulated-cycle PE tracks (1 cycle = 1 µs) — the time
//!   bases are different.
//! * [`WorkerTable`] — a per-worker utilization table accumulated across
//!   every run of a sweep (fig09 runs 2 machines x 5 networks), folded
//!   into the run manifest's `host` section as `worker.NN.*` entries.
//!   Indices are zero-padded so the sorted manifest keys keep numeric
//!   order.
//! * [`CacheTable`] — the simulation-cache counterpart: per-(network,
//!   machine) hit/miss/analytic counters from each [`NetworkResult`],
//!   folded into the manifest `host` section as `cache.*` entries that
//!   `obsctl cache` reads back. Runs with no cache activity (`ANT_CACHE`
//!   off) record nothing, so cache-off manifests keep their key set.

use std::collections::BTreeMap;

use ant_obs::{Timeline, Value};

use crate::runner::{NetworkResult, WorkerTelemetry};

/// Zero-padded worker index (`7` -> `"07"`), width 2 up to 99 workers and
/// growing with the fleet beyond that, so lexicographic key order is
/// numeric order.
fn pad(worker: usize, total: usize) -> String {
    let width = (total.saturating_sub(1).max(10)).to_string().len();
    format!("{worker:0width$}")
}

/// Adds one process of per-worker tracks to `timeline`: for each worker a
/// span track (`worker NN`) carrying one slice per executed job — named
/// `steal` when the job was taken from another worker's deque, `pair`
/// otherwise, with layer/phase/pair indices in the args — and a counter
/// track (`deque wNN`) sampling the worker's own deque depth at each job
/// start. Sub-microsecond jobs are clamped to 1 µs so they stay visible.
///
/// Workers without recorded slices still get named tracks (an idle worker
/// is a finding, not an artifact); with `workers` empty the timeline is
/// left untouched.
pub fn add_worker_tracks(
    timeline: &mut Timeline,
    pid: u64,
    label: &str,
    workers: &[WorkerTelemetry],
) {
    if workers.is_empty() {
        return;
    }
    timeline.process_name(pid, label);
    for w in workers {
        let name = pad(w.worker, workers.len());
        // Even tids carry job spans, odd tids the deque counter, so each
        // worker's pair of tracks stays adjacent and ordered.
        let span_tid = (w.worker as u64) * 2;
        timeline.thread_name(pid, span_tid, &format!("worker {name}"));
        timeline.thread_name(pid, span_tid + 1, &format!("deque w{name}"));
        for s in &w.slices {
            timeline.slice_with_args(
                pid,
                span_tid,
                if s.stolen { "steal" } else { "pair" },
                "host-us",
                s.start_us,
                s.dur_us.max(1),
                vec![
                    ("layer".to_string(), Value::U64(s.layer as u64)),
                    ("phase".to_string(), Value::U64(s.phase as u64)),
                    ("pair".to_string(), Value::U64(s.pair as u64)),
                ],
            );
            timeline.counter(
                pid,
                span_tid + 1,
                &format!("deque w{name}"),
                s.start_us,
                s.deque_len,
            );
        }
    }
}

/// Per-worker totals accumulated over every run of a sweep, for the
/// manifest `host` section.
#[derive(Debug, Clone, Default)]
pub struct WorkerTable {
    rows: Vec<Row>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Row {
    executed: u64,
    stolen: u64,
    busy_ns: u64,
    idle_ns: u64,
}

impl WorkerTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no telemetry was ever added (telemetry off, or every run
    /// reported zero workers).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds one run's worker telemetry into the table (workers are
    /// matched by index; a run with more workers grows the table).
    pub fn add(&mut self, workers: &[WorkerTelemetry]) {
        for w in workers {
            if w.worker >= self.rows.len() {
                self.rows.resize(w.worker + 1, Row::default());
            }
            let row = &mut self.rows[w.worker];
            row.executed += w.executed;
            row.stolen += w.stolen;
            row.busy_ns += w.busy_ns;
            row.idle_ns += w.idle_ns;
        }
    }

    /// The `host`-section entries: for each worker `NN`, `worker.NN.jobs`,
    /// `.stolen`, `.busy_us`, `.idle_us`, and `.utilization`
    /// (busy / (busy + idle) over the whole sweep).
    pub fn host_stats(&self) -> Vec<(String, Value)> {
        let mut out = Vec::with_capacity(self.rows.len() * 5);
        for (worker, row) in self.rows.iter().enumerate() {
            let name = pad(worker, self.rows.len());
            let wall = row.busy_ns + row.idle_ns;
            let util = if wall > 0 {
                row.busy_ns as f64 / wall as f64
            } else {
                0.0
            };
            out.push((format!("worker.{name}.jobs"), Value::U64(row.executed)));
            out.push((format!("worker.{name}.stolen"), Value::U64(row.stolen)));
            out.push((
                format!("worker.{name}.busy_us"),
                Value::U64(row.busy_ns / 1_000),
            ));
            out.push((
                format!("worker.{name}.idle_us"),
                Value::U64(row.idle_ns / 1_000),
            ));
            out.push((format!("worker.{name}.utilization"), Value::F64(util)));
        }
        out
    }
}

/// Per-(network, machine) simulation-cache activity accumulated over every
/// run of a sweep, for the manifest `host` section.
///
/// Keys follow `cache.<network>.<machine>.<field>` with three totals rows
/// (`cache.hits`, `cache.misses`, `cache.analytic`). Machine labels never
/// contain `.`, so `obsctl cache` can split the keys back unambiguously
/// even when a network label does (`ResNet18/CIFAR` is dot-free today, but
/// the parser right-splits to stay safe).
#[derive(Debug, Clone, Default)]
pub struct CacheTable {
    rows: BTreeMap<(String, String), CacheRow>,
}

#[derive(Debug, Clone, Copy, Default)]
struct CacheRow {
    hits: u64,
    misses: u64,
    analytic: u64,
}

impl CacheTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no cache activity was ever recorded (cache off, or every
    /// run reported zero hits, misses, and analytic pairs).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Folds one run's cache counters into the table under the result's
    /// own `(network, machine)` labels. A run with zero activity is
    /// skipped entirely: a cache-off sweep leaves the table empty and the
    /// manifest key set unchanged.
    pub fn add(&mut self, result: &NetworkResult) {
        if result.cache_hits == 0 && result.cache_misses == 0 && result.analytic_pairs == 0 {
            return;
        }
        let row = self
            .rows
            .entry((result.network.to_string(), result.machine.to_string()))
            .or_default();
        row.hits += result.cache_hits;
        row.misses += result.cache_misses;
        row.analytic += result.analytic_pairs;
    }

    /// The `host`-section entries: `cache.<network>.<machine>.hits`,
    /// `.misses`, and `.analytic` per row, plus the sweep-wide totals
    /// `cache.hits` / `cache.misses` / `cache.analytic`. Empty when
    /// [`CacheTable::is_empty`].
    pub fn host_stats(&self) -> Vec<(String, Value)> {
        if self.rows.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.rows.len() * 3 + 3);
        let mut total = CacheRow::default();
        for ((network, machine), row) in &self.rows {
            total.hits += row.hits;
            total.misses += row.misses;
            total.analytic += row.analytic;
            let prefix = format!("cache.{network}.{machine}");
            out.push((format!("{prefix}.hits"), Value::U64(row.hits)));
            out.push((format!("{prefix}.misses"), Value::U64(row.misses)));
            out.push((format!("{prefix}.analytic"), Value::U64(row.analytic)));
        }
        out.push(("cache.hits".to_string(), Value::U64(total.hits)));
        out.push(("cache.misses".to_string(), Value::U64(total.misses)));
        out.push(("cache.analytic".to_string(), Value::U64(total.analytic)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::JobSlice;
    use ant_obs::{parse_json, Json};

    fn worker(index: usize, slices: Vec<JobSlice>) -> WorkerTelemetry {
        WorkerTelemetry {
            worker: index,
            executed: slices.len() as u64,
            slices,
            ..WorkerTelemetry::default()
        }
    }

    fn slice(start_us: u64, dur_us: u64, stolen: bool, deque_len: u64) -> JobSlice {
        JobSlice {
            start_us,
            dur_us,
            layer: 1,
            phase: 2,
            pair: 3,
            stolen,
            deque_len,
        }
    }

    #[test]
    fn worker_tracks_are_named_in_stable_order() {
        let mut t = Timeline::new();
        add_worker_tracks(
            &mut t,
            9,
            "host workers",
            &[
                worker(0, vec![slice(0, 40, false, 5)]),
                worker(1, vec![slice(3, 20, true, 0)]),
                worker(2, vec![]),
            ],
        );
        let json = parse_json(&t.to_json()).expect("valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        let thread_names: Vec<(u64, String)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| {
                (
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        // Two tracks per worker, tids strictly increasing, zero-padded names.
        assert_eq!(
            thread_names,
            vec![
                (0, "worker 00".to_string()),
                (1, "deque w00".to_string()),
                (2, "worker 01".to_string()),
                (3, "deque w01".to_string()),
                (4, "worker 02".to_string()),
                (5, "deque w02".to_string()),
            ]
        );
        // Idle worker 2 still got named tracks but no slices on them.
        assert!(!events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("tid").and_then(Json::as_u64) == Some(4)));
    }

    #[test]
    fn stolen_jobs_are_labelled_and_counters_interleave() {
        let mut t = Timeline::new();
        add_worker_tracks(
            &mut t,
            9,
            "host workers",
            &[worker(
                0,
                vec![slice(0, 40, false, 5), slice(40, 0, true, 0)],
            )],
        );
        let json = parse_json(&t.to_json()).expect("valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        // Per-job pattern after the metadata: span, counter, span, counter.
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["M", "M", "M", "X", "C", "X", "C"]);
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(span_names, ["pair", "steal"]);
        // The zero-duration stolen job was clamped to 1 µs, not dropped.
        let stolen = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("steal"))
            .unwrap();
        assert_eq!(stolen.get("dur").and_then(Json::as_u64), Some(1));
        // Counters sample the deque depth at each job start.
        let counter_values: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .map(|e| {
                (
                    e.get("ts").and_then(Json::as_u64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("value"))
                        .and_then(Json::as_u64)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(counter_values, [(0, 5), (40, 0)]);
    }

    #[test]
    fn zero_workers_leave_the_timeline_untouched_and_valid() {
        let mut t = Timeline::new();
        add_worker_tracks(&mut t, 9, "host workers", &[]);
        assert!(t.is_empty());
        let json = parse_json(&t.to_json()).expect("valid JSON");
        assert!(json
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn worker_table_accumulates_across_runs() {
        let mut table = WorkerTable::new();
        assert!(table.is_empty());
        assert!(table.host_stats().is_empty());
        let mut w0 = WorkerTelemetry {
            worker: 0,
            executed: 10,
            stolen: 2,
            busy_ns: 3_000_000,
            idle_ns: 1_000_000,
            ..WorkerTelemetry::default()
        };
        let w1 = WorkerTelemetry {
            worker: 1,
            executed: 8,
            stolen: 0,
            busy_ns: 2_000_000,
            idle_ns: 2_000_000,
            ..WorkerTelemetry::default()
        };
        table.add(&[w0.clone(), w1]);
        // Second run: only worker 0 (fewer workers is fine).
        w0.executed = 5;
        w0.stolen = 1;
        w0.busy_ns = 1_000_000;
        w0.idle_ns = 0;
        table.add(&[w0]);
        assert!(!table.is_empty());
        let stats = table.host_stats();
        assert_eq!(stats.len(), 10);
        let get = |key: &str| {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        assert_eq!(get("worker.00.jobs"), Value::U64(15));
        assert_eq!(get("worker.00.stolen"), Value::U64(3));
        assert_eq!(get("worker.00.busy_us"), Value::U64(4_000));
        assert_eq!(get("worker.00.idle_us"), Value::U64(1_000));
        assert_eq!(get("worker.01.jobs"), Value::U64(8));
        match get("worker.00.utilization") {
            Value::F64(u) => assert!((u - 0.8).abs() < 1e-9),
            other => panic!("utilization should be F64, got {other:?}"),
        }
        match get("worker.01.utilization") {
            Value::F64(u) => assert!((u - 0.5).abs() < 1e-9),
            other => panic!("utilization should be F64, got {other:?}"),
        }
    }

    fn cache_result(
        network: &'static str,
        machine: &'static str,
        hits: u64,
        misses: u64,
        analytic: u64,
    ) -> crate::runner::NetworkResult {
        use ant_conv::efficiency::TrainingPhase;
        crate::runner::NetworkResult {
            network,
            machine,
            total: ant_sim::SimStats::default(),
            per_phase: [
                (TrainingPhase::Forward, ant_sim::SimStats::default()),
                (TrainingPhase::Backward, ant_sim::SimStats::default()),
                (TrainingPhase::Update, ant_sim::SimStats::default()),
            ],
            per_layer: Vec::new(),
            wall_cycles: 0,
            host_wall_us: 0,
            failures: crate::runner::FailureReport::default(),
            partial: false,
            deadline_exceeded: false,
            workers: Vec::new(),
            cache_hits: hits,
            cache_misses: misses,
            analytic_pairs: analytic,
        }
    }

    #[test]
    fn cache_table_accumulates_and_skips_inactive_runs() {
        let mut table = CacheTable::new();
        assert!(table.is_empty());
        assert!(table.host_stats().is_empty());
        // Cache-off runs (all zeros) leave no trace in the manifest.
        table.add(&cache_result("net-a", "SCNN+", 0, 0, 0));
        assert!(table.is_empty());
        table.add(&cache_result("net-a", "SCNN+", 0, 3, 0));
        table.add(&cache_result("net-a", "SCNN+", 3, 0, 0));
        table.add(&cache_result("net-a", "ANT", 1, 2, 0));
        table.add(&cache_result("net-b", "Dense", 0, 1, 24));
        let stats = table.host_stats();
        let get = |key: &str| {
            stats
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        // Reruns of the same (network, machine) fold into one row.
        assert_eq!(get("cache.net-a.SCNN+.hits"), Value::U64(3));
        assert_eq!(get("cache.net-a.SCNN+.misses"), Value::U64(3));
        assert_eq!(get("cache.net-a.ANT.hits"), Value::U64(1));
        assert_eq!(get("cache.net-b.Dense.analytic"), Value::U64(24));
        assert_eq!(get("cache.hits"), Value::U64(4));
        assert_eq!(get("cache.misses"), Value::U64(6));
        assert_eq!(get("cache.analytic"), Value::U64(24));
        assert_eq!(stats.len(), 3 * 3 + 3);
    }

    #[test]
    fn padding_keeps_sorted_keys_in_numeric_order() {
        assert_eq!(pad(0, 3), "00");
        assert_eq!(pad(7, 12), "07");
        assert_eq!(pad(11, 12), "11");
        assert_eq!(pad(100, 150), "100");
        let mut table = WorkerTable::new();
        let workers: Vec<WorkerTelemetry> = (0..12)
            .map(|i| WorkerTelemetry {
                worker: i,
                executed: 1,
                ..WorkerTelemetry::default()
            })
            .collect();
        table.add(&workers);
        let mut keys: Vec<String> = table.host_stats().into_iter().map(|(k, _)| k).collect();
        let numeric = keys.clone();
        keys.sort();
        // Lexicographic sort must not reorder worker indices (02 < 10).
        let job_keys_sorted: Vec<&String> = keys.iter().filter(|k| k.ends_with(".jobs")).collect();
        let job_keys_numeric: Vec<&String> =
            numeric.iter().filter(|k| k.ends_with(".jobs")).collect();
        assert_eq!(job_keys_sorted, job_keys_numeric);
    }
}
