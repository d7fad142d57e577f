//! `ant-obs`: zero-dependency observability for the ANT simulator stack.
//!
//! The accelerator-simulation experiments in this workspace were opaque
//! while running: a binary printed a banner, went quiet for the whole sweep,
//! then dumped a table. This crate adds the three observability primitives
//! the stack needs, with no external dependencies (the build environment has
//! no crates.io access):
//!
//! * **Spans and events** ([`span()`], [`event`]) — hierarchical timed
//!   regions written as JSONL records to an env-gated sink. Enable with
//!   `ANT_TRACE=1`; choose the destination with `ANT_TRACE_FILE` (default
//!   `target/experiments/trace.jsonl`); add hot per-channel-pair detail with
//!   `ANT_TRACE_PAIRS=1`. Disabled cost is one atomic load per check.
//! * **Metrics** ([`metrics::Registry`], [`metrics::registry`]) — named
//!   counters, gauges, and nearest-rank-percentile histograms, snapshotted
//!   into manifests or the trace.
//! * **Run manifests** ([`RunManifest`]) — a JSON sidecar per experiment
//!   recording config, git revision, platform, wall time, outputs, and final
//!   stats, written next to the CSV it describes.
//! * **Timelines** ([`timeline::Timeline`]) — Chrome Trace Event / Perfetto
//!   JSON export of per-PE phase slices in *simulated* time (1 cycle =
//!   1 µs), gated by `ANT_PROFILE` / `ANT_PROFILE_FILE` and written by the
//!   `profile` bench binary.
//! * **Allocation counting** ([`alloc::CountingAlloc`]) — an opt-in
//!   counting global allocator (`ANT_ALLOC=1`): allocation count, bytes,
//!   live, and peak, with per-span deltas attached to span records. One
//!   relaxed atomic load per allocation when disabled.
//! * **Metrics exporter** ([`export`]) — an embedded std-only HTTP server
//!   (`ANT_METRICS_ADDR=host:port`) serving `GET /metrics` (Prometheus text
//!   exposition of the process registry), `GET /status` (live `ant-status/1`
//!   JSON), and `GET /healthz`. Off by default with zero overhead. Its
//!   listener is the one other servers add routes to.
//!
//! See `docs/OBSERVABILITY.md` for the full event schema and workflows.

#![warn(missing_docs)]
// Unsafe is denied crate-wide; the single exception is `alloc`, whose
// `GlobalAlloc` impl forwards to the system allocator.
#![deny(unsafe_code)]

pub mod alloc;
pub mod export;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod span;
pub mod timeline;
pub mod trace;

pub use alloc::{AllocDelta, AllocStats, CountingAlloc};
pub use export::{render_prometheus, sanitize_metric_name};
pub use json::{parse as parse_json, Json, Value};
pub use manifest::{git_revision, RunManifest};
pub use metrics::{registry, Counter, Gauge, Histogram, InstrumentSnapshot, Registry};
pub use progress::{banner, note, Progress, RunStatus, StatusReporter};
pub use span::{current_span_id, event, span, Span};
pub use timeline::Timeline;
pub use trace::{detail_enabled, enabled, trace_file, MemorySink, Sink};

use std::path::PathBuf;

/// Whether an `ANT_*` switch value means on: anything but `""`, `0`,
/// `false`, `off` and `no`, ignoring surrounding whitespace.
pub fn truthy(value: &str) -> bool {
    !matches!(value.trim(), "" | "0" | "false" | "off" | "no")
}

/// `target/experiments`, under `CARGO_TARGET_DIR` when it is set: the
/// default directory of every run artifact.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("experiments")
}
