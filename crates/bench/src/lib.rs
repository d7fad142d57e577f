//! Experiment harness reproducing the ANT paper's tables and figures.
//!
//! The binaries in `src/bin/` each regenerate one table or figure (the full
//! index lives in DESIGN.md); this library holds the shared machinery:
//!
//! * [`runner`] — drives a network workload (layer specs x training phases
//!   x channel-sampled pairs) through any simulator machine and aggregates
//!   [`ant_sim::SimStats`], with deterministic seeding and linear scaling
//!   back to full layer dimensions.
//! * [`report`] — fixed-width console tables plus CSV/JSONL output under
//!   `target/experiments/`.
//! * [`obs`] — the per-binary experiment harness: banner, root span,
//!   progress reporting, and a run-manifest sidecar for every output
//!   (tracing gated by `ANT_TRACE`; see `docs/OBSERVABILITY.md`).
//! * [`checkpoint`] — the JSONL checkpoint sidecar behind `--resume`:
//!   completed layers persist as they finish and are skipped (with
//!   byte-identical merged results) when a sweep restarts.
//! * [`simcache`] — the process-global simulation cache and its on-disk
//!   store. It shares the saved per-layer record with [`checkpoint`]
//!   through the private `layer_log` module: the per-phase counter writer
//!   and reader, the missing-file-as-empty load, and the one append path
//!   with its IO-fault policy.
//! * [`history`] — the bench-history ledger (`BENCH_history.jsonl`):
//!   append-only benchmark runs keyed by git revision, with trend-aware
//!   regression comparison that also reports each metric's recent values
//!   (`bench_history` binary).
//! * [`kernels`] — the per-kernel microbenchmark harness (`microbench`
//!   binary): hot kernels timed in isolation over the sparsity grid,
//!   recorded as `kernel/...` ledger metrics with their own regression
//!   gates, so a wall-time regression can be attributed to one kernel.
//! * [`telemetry`] — pool-telemetry export: per-worker Perfetto
//!   tracks (host time) and the manifest `host`-section worker
//!   utilization table, fed by the runner's `ANT_TELEMETRY` counters.
//! * [`obsctl`] — the unified offline analysis CLI (`obsctl` binary) over
//!   the observability sidecars: trace JSONL aggregation, collapsed-stack
//!   flamegraphs folded from a trace and diffed, and live status
//!   pretty-printing.
//! * [`serve`] — `ant-sweepd` (`sweepd` binary): a fault-tolerant
//!   multi-tenant sweep service over the runner, with weighted-fair
//!   queueing, supervised retry/backoff, job deadlines, and crash recovery
//!   from spooled checkpoints (see `docs/ROBUSTNESS.md`).
//!
//! Every binary linking this crate gets the counting global allocator
//! compiled in (below). It is **disabled** unless `ANT_ALLOC=1` is set or a
//! tool enables it; disabled cost is one relaxed atomic load per
//! allocation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod fingerprint;
pub mod history;
pub mod kernels;
mod layer_log;
pub mod obs;
pub mod obsctl;
pub mod redundancy;
pub mod report;
pub mod runner;
pub mod serve;
pub mod simcache;
pub mod telemetry;

pub use obs::Experiment;
pub use runner::{ExperimentConfig, NetworkResult};

/// The opt-in counting allocator, installed for every `ant-bench` binary
/// and test (see [`ant_obs::alloc`]).
#[global_allocator]
static GLOBAL_ALLOC: ant_obs::alloc::CountingAlloc = ant_obs::alloc::CountingAlloc::new();
