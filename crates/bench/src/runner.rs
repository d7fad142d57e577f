//! Drives network workloads through simulator machines.
//!
//! The decomposition mirrors the paper's methodology (Section 6): every conv
//! layer contributes its three training-phase convolutions (`W*A`, `W*G_A`,
//! `G_A*A`), each decomposed into per-channel-pair 2-D convolutions. Layers
//! are synthesized at the target sparsities with channel sampling
//! (`max_channels`), and the sampled counters are scaled linearly back to
//! the full layer (and by the layer's multiplicity).

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use ant_conv::efficiency::TrainingPhase;
use ant_conv::rcp::{count_useful_products_with, NzCounterScratch};
use ant_conv::ConvShape;
use ant_nn::trace::PairRef;
use ant_nn::ConvTrace;
use ant_sim::cache::{CacheKey, MODEL_VERSION};
use ant_sim::chaos::{self, ChaosConfig, Fault};
use ant_sim::{validate_conv_pair, AntError, ConvSim, SimScratch, SimStats};
use ant_sparse::CsrMatrix;
use ant_workloads::models::NetworkModel;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use ant_workloads::ConvLayerSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fingerprint::{Fingerprint, KeyBuilder};
use crate::simcache;

/// Configuration of one network-level experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Target sparsities for W / A / G_A.
    pub sparsity: LayerSparsity,
    /// Maximum output/input channels materialized per layer (counters scale
    /// back linearly; see DESIGN.md "Sampling").
    pub max_channels: usize,
    /// PE count for wall-clock division (paper Table 4: 64).
    pub num_pes: usize,
    /// Base RNG seed; per-layer seeds derive deterministically.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's default setting: 90% uniform sparsity, 64 PEs, and a
    /// 4-channel sample per layer side.
    pub fn paper_default() -> Self {
        Self {
            sparsity: LayerSparsity::uniform(0.9),
            max_channels: 4,
            num_pes: 64,
            seed: 0xA17,
        }
    }
}

/// Tuning knobs for the hardened parallel runner. `Default` matches the
/// legacy entry points: worker count from the available CPUs, pair wall
/// budget from the `ANT_PAIR_BUDGET_US` environment variable (unset = no
/// watchdog).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Worker count. `None` (or `Some(0)`) sizes to the available CPUs;
    /// a resolved count of 1 runs inline with no thread spawns. The pair
    /// stage runs no more workers than it has runs of 16 jobs to claim.
    pub threads: Option<usize>,
    /// Wall-clock budget per pair job, in microseconds. When set, a
    /// watchdog thread flags in-flight jobs exceeding it (they are *not*
    /// killed — simulation jobs hold no cancellable resources) and
    /// completed over-budget jobs are reported in
    /// [`FailureReport::slow`]. `None` falls back to `ANT_PAIR_BUDGET_US`.
    pub pair_budget_us: Option<u64>,
    /// Per-worker pool telemetry (job counts and busy/idle timing,
    /// surfaced as `runner.worker.*` metrics and
    /// [`NetworkResult::workers`]). `None` falls back to `ANT_TELEMETRY`.
    /// The flag is resolved **once per run** into a plain bool captured by
    /// the worker closures, so the disabled path costs zero atomic
    /// operations per pair job — telemetry never perturbs the
    /// steady-state-allocation or bit-identity gates.
    pub telemetry: Option<bool>,
    /// Live run-status reporting ([`ant_obs::StatusReporter`]): layers and
    /// pairs completed, throughput, ETA, quarantine/watchdog counts, as
    /// rate-limited stderr lines plus an atomically-rewritten JSON file.
    /// `None` falls back to `ANT_PROGRESS` (file path from
    /// `ANT_PROGRESS_FILE`). Like `telemetry`, resolved once per run;
    /// status snapshots read shared counters that are only ever *written*
    /// when reporting is on.
    pub progress: Option<bool>,
    /// Wall-clock budget for the *whole run*, in microseconds from run
    /// start — the job-level generalization of `pair_budget_us` used by the
    /// sweepd deadline scheduler. Once exceeded, workers cancel at the next
    /// pair-job boundary: remaining jobs are skipped (counted in
    /// [`FailureReport::deadline_skipped`]), the affected layers are left
    /// out of checkpoint and cache (a resumed run re-simulates exactly
    /// them), and the result is flagged
    /// [`NetworkResult::deadline_exceeded`] + partial. `None` (the
    /// default) never cancels.
    pub deadline_us: Option<u64>,
}

/// One quarantined pair job: the job failed its first attempt and its
/// retry, so its counters are missing from the run.
#[derive(Debug, Clone)]
pub struct PairFailure {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Source layer name.
    pub layer: String,
    /// Which training-phase convolution the pair belonged to.
    pub phase: TrainingPhase,
    /// Pair index within the phase.
    pub pair: usize,
    /// Machine that was simulating the pair.
    pub machine: &'static str,
    /// The error from the final (retry) attempt.
    pub error: AntError,
    /// Total attempts made before quarantining (currently always 2: the
    /// first attempt plus one retry).
    pub attempts: u32,
}

/// A pair job whose first attempt failed but whose retry succeeded — the
/// per-pair detail behind the `runner.pair_retries` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRetry {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Phase index (0 = forward, 1 = backward, 2 = update).
    pub phase: usize,
    /// Pair index within the phase.
    pub pair: usize,
    /// Total attempts made (currently always 2).
    pub attempts: u32,
}

/// A pair job that completed but exceeded the configured wall budget.
#[derive(Debug, Clone, Copy)]
pub struct SlowJob {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Phase index (0 = forward, 1 = backward, 2 = update).
    pub phase: usize,
    /// Pair index within the phase.
    pub pair: usize,
    /// Observed wall time, in microseconds.
    pub wall_us: u64,
}

/// Everything that went wrong (or was merely slow) during one network run.
/// Deterministically ordered by `(layer, phase, pair)` regardless of worker
/// count or which worker ran which job.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Quarantined pair jobs (failed twice; counters missing from stats).
    pub failures: Vec<PairFailure>,
    /// Completed jobs that exceeded the watchdog's wall budget.
    pub slow: Vec<SlowJob>,
    /// Pairs whose first attempt failed but whose retry succeeded, in
    /// deterministic `(layer, phase, pair)` order — the per-pair detail the
    /// `runner.pair_retries` counter alone loses.
    pub retried: Vec<PairRetry>,
    /// First-attempt failures that triggered a retry (including those whose
    /// retry then also failed): `retried.len() + failures.len()` as a `u64`.
    pub retries: u64,
    /// Pair jobs skipped because the run exceeded its
    /// [`RunOptions::deadline_us`] budget; their layers are re-simulated on
    /// resume.
    pub deadline_skipped: u64,
}

impl FailureReport {
    /// Whether the run completed with no quarantined jobs.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Per-layer checkpoint storage driven by the parallel runner: completed
/// layers' finalized (scaled) per-phase stats are recorded as the run
/// progresses, and a resumed run skips synthesis and simulation for layers
/// the store already holds. Implemented by
/// [`crate::checkpoint::RunCheckpoint`]; tests use in-memory impls.
pub trait LayerCheckpoint {
    /// The scaled per-phase stats (`[forward, backward, update]`) a previous
    /// run recorded for this layer, or `None` to simulate it afresh.
    fn lookup(&self, layer_index: usize, layer_name: &str) -> Option<[SimStats; 3]>;

    /// Called once per freshly simulated layer, in layer order. `clean` is
    /// false when the layer had quarantined pairs — such layers must not be
    /// replayed into later runs.
    fn record(&mut self, layer_index: usize, layer_name: &str, phases: &[SimStats; 3], clean: bool);
}

/// Per-worker pool telemetry from one parallel run, collected when
/// [`RunOptions::telemetry`] (or `ANT_TELEMETRY`) is on. Everything here is
/// host-side bookkeeping — the simulated counters are untouched, so a run
/// with telemetry on is byte-identical to one with it off.
#[derive(Debug, Clone, Default)]
pub struct WorkerTelemetry {
    /// Worker index (0-based, dense).
    pub worker: usize,
    /// Pair jobs this worker ran.
    pub executed: u64,
    /// Nanoseconds spent executing pair jobs (including retries).
    pub busy_ns: u64,
    /// Nanoseconds alive but not executing jobs: claiming runs from the
    /// cursor, progress publishing, and the tail wait after the pool
    /// drains.
    pub idle_ns: u64,
    /// Total wall nanoseconds from worker start to exit.
    pub wall_ns: u64,
    /// Per-job wall-time slices, recorded only when `ANT_PROFILE` is also
    /// on (they feed the Perfetto host-worker tracks); empty otherwise.
    pub slices: Vec<JobSlice>,
}

impl WorkerTelemetry {
    /// Busy fraction of this worker's wall time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// One executed pair job's host wall-time extent, for the Perfetto
/// host-worker tracks (timestamps are microseconds since the run started).
#[derive(Debug, Clone, Copy)]
pub struct JobSlice {
    /// Job start, µs since run start.
    pub start_us: u64,
    /// Job wall duration in µs.
    pub dur_us: u64,
    /// Index of the source layer in the network spec.
    pub layer: usize,
    /// Phase index (0 = forward, 1 = backward, 2 = update).
    pub phase: usize,
    /// Pair index within the phase.
    pub pair: usize,
}

/// Aggregated result of simulating one network on one machine.
#[derive(Debug, Clone)]
pub struct NetworkResult {
    /// Network label.
    pub network: &'static str,
    /// Machine label.
    pub machine: &'static str,
    /// Accumulated (scaled) counters across all layers and phases.
    pub total: SimStats,
    /// Per-phase accumulated counters.
    pub per_phase: [(TrainingPhase, SimStats); 3],
    /// Per-layer accumulated (scaled) counters, in layer order.
    pub per_layer: Vec<LayerStats>,
    /// Wall-clock cycles after perfect load balancing over `num_pes`.
    pub wall_cycles: u64,
    /// Host wall time spent simulating this network, in microseconds
    /// (simulator speed, not modeled-hardware time).
    pub host_wall_us: u64,
    /// Quarantined/slow-job report (empty on a clean run).
    pub failures: FailureReport,
    /// True when quarantined jobs left the stats incomplete.
    pub partial: bool,
    /// Per-worker scheduler telemetry, populated by the parallel runners
    /// when [`RunOptions::telemetry`] (or `ANT_TELEMETRY`) is on; empty
    /// otherwise (and always empty from the serial runner).
    pub workers: Vec<WorkerTelemetry>,
    /// Layers whose finalized stats came from the simulation cache
    /// (`ANT_CACHE`); zero when the cache is off.
    pub cache_hits: u64,
    /// Layers that were cacheable but had to be simulated afresh (they are
    /// recorded for the next run); zero when the cache is off.
    pub cache_misses: u64,
    /// Pair jobs answered by the tier-2 analytic fast path instead of being
    /// dispatched to the worker pool; zero when the cache is off.
    pub analytic_pairs: u64,
    /// True when the run was cancelled at a pair-job boundary because it
    /// exceeded [`RunOptions::deadline_us`]. The checkpoint (if any) holds
    /// every completed layer, so a resumed run picks up where this one
    /// stopped.
    pub deadline_exceeded: bool,
}

impl NetworkResult {
    fn empty(network: &'static str, machine: &'static str) -> Self {
        NetworkResult {
            network,
            machine,
            total: SimStats::default(),
            per_phase: [
                (TrainingPhase::Forward, SimStats::default()),
                (TrainingPhase::Backward, SimStats::default()),
                (TrainingPhase::Update, SimStats::default()),
            ],
            per_layer: Vec::new(),
            wall_cycles: 0,
            host_wall_us: 0,
            failures: FailureReport::default(),
            partial: false,
            workers: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            analytic_pairs: 0,
            deadline_exceeded: false,
        }
    }

    /// Simulated-work-per-wall-second rates for this network's run
    /// (see [`ant_sim::Throughput`]).
    pub fn throughput(&self) -> ant_sim::Throughput {
        self.total.throughput(self.host_wall_us as f64 / 1e6)
    }
}

/// One layer's accumulated (scaled) counters across all three phases.
#[derive(Debug, Clone)]
pub struct LayerStats {
    /// Index of the layer in the network spec.
    pub index: usize,
    /// Layer name from the spec.
    pub name: String,
    /// Scaled counters summed over the layer's three training phases.
    pub stats: SimStats,
    /// Finalized (scaled) counters of each training phase, in
    /// `[Forward, Backward, Update]` order. `stats` is exactly their sum;
    /// both runners produce them through the shared `finalize_phase`
    /// accounting, so serial and parallel runs stay bit-identical. The
    /// redundancy observatory attributes per-(layer, phase) rows from
    /// these.
    pub phases: [SimStats; 3],
}

/// Simulates a full network (all layers, all three training phases) on one
/// PE model.
///
/// # Panics
///
/// Panics if the network contains a layer whose phase shapes cannot be
/// constructed (malformed spec).
pub fn simulate_network<S: ConvSim + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
) -> NetworkResult {
    let started = Instant::now();
    let mut span = ant_obs::span("network");
    span.record("network", net.name)
        .record("machine", pe.name());
    let mut result = NetworkResult::empty(net.name, pe.name());
    result.per_layer.reserve(net.layers.len());
    for (li, layer) in net.layers.iter().enumerate() {
        accumulate_layer(pe, layer, li, cfg, &mut result);
    }
    finish_network(&mut result, cfg.num_pes, &started);
    if span.is_recording() {
        span.record("layers", net.layers.len());
        span.record("wall_cycles", result.wall_cycles);
        span.record_all(stats_fields(&result.total));
        span.record("host_wall_us", result.host_wall_us);
        span.record_all(throughput_fields(&result.total, result.host_wall_us));
    }
    result
}

/// A SimStats snapshot as typed span fields.
fn stats_fields(stats: &SimStats) -> impl Iterator<Item = (&'static str, ant_obs::Value)> {
    stats
        .fields()
        .into_iter()
        .map(|(name, value)| (name, ant_obs::Value::U64(value)))
}

/// Derived throughput rates (simulated work per wall second) as typed span
/// fields, for a region whose counters are `stats` and whose host wall time
/// was `wall_us`.
fn throughput_fields(
    stats: &SimStats,
    wall_us: u64,
) -> impl Iterator<Item = (&'static str, ant_obs::Value)> {
    stats
        .throughput(wall_us as f64 / 1e6)
        .fields()
        .into_iter()
        .map(|(name, value)| (name, ant_obs::Value::F64(value)))
}

/// Sets a finished run's wall-clock cycles, its accumulated PE cycles
/// divided over `num_pes` under perfect load balancing (paper Section 6.1),
/// and its host wall time since `started`. Both feed the process-wide
/// metrics registry: a wall-time histogram plus last-seen throughput
/// gauges, snapshotted into manifests by the experiment harness.
fn finish_network(result: &mut NetworkResult, num_pes: usize, started: &Instant) {
    result.wall_cycles = result.total.total_cycles().div_ceil(num_pes as u64).max(1);
    result.host_wall_us = started.elapsed().as_micros() as u64;
    let registry = ant_obs::registry();
    registry
        .histogram("runner.network_wall_us")
        .record(result.host_wall_us as f64);
    for (name, value) in result.throughput().fields() {
        registry.gauge(&format!("runner.{name}")).set(value);
    }
}

/// Parallel variant of [`simulate_network`]: pair-granularity jobs run on a
/// worker pool sized to the available CPUs (see
/// [`try_simulate_network_parallel`]; results are bit-identical to the
/// serial runner for any worker count).
///
/// # Panics
///
/// Panics on an invalid configuration (zero PEs, malformed sparsity or
/// layer spec); use [`try_simulate_network_parallel`] for typed errors.
pub fn simulate_network_parallel<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
) -> NetworkResult {
    try_simulate_network_parallel(pe, net, cfg, &RunOptions::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The hardened parallel entry point: validates the configuration up front,
/// isolates every pair job behind `catch_unwind` (failed jobs are retried
/// once, then quarantined into [`NetworkResult::failures`] with the stats
/// marked [`NetworkResult::partial`]), and degrades zero-worker configs to
/// an inline serial run instead of deadlocking.
///
/// # Errors
///
/// Returns [`AntError::InvalidConfig`] for unusable configurations (zero
/// PEs, sparsities outside `[0, 1]`, zero-dimension layer specs),
/// [`AntError::Shape`] when a layer's phase shapes cannot be constructed,
/// and [`AntError::Panic`] if a worker thread dies outside the per-job
/// isolation boundary. Individual pair-job failures do NOT error the run —
/// they are quarantined and reported.
pub fn try_simulate_network_parallel<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    opts: &RunOptions,
) -> Result<NetworkResult, AntError> {
    run_network_parallel(pe, net, cfg, opts, None)
}

/// Like [`try_simulate_network_parallel`], with checkpoint/resume: layers
/// already in `checkpoint` are skipped (their stored stats merge in
/// byte-identically — per-layer synthesis seeds depend only on the layer
/// index), and each freshly completed layer is recorded write-through.
pub fn try_simulate_network_parallel_checkpointed<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    opts: &RunOptions,
    checkpoint: &mut dyn LayerCheckpoint,
) -> Result<NetworkResult, AntError> {
    run_network_parallel(pe, net, cfg, opts, Some(checkpoint))
}

/// Rejects configurations the runners cannot execute, with structured
/// context. An empty network is valid (the run yields an empty result).
fn validate_experiment(net: &NetworkModel, cfg: &ExperimentConfig) -> Result<(), AntError> {
    if cfg.num_pes == 0 {
        return Err(AntError::invalid_config(
            "num_pes",
            "wall-clock division needs at least one PE (got 0)",
        ));
    }
    if cfg.max_channels == 0 {
        return Err(AntError::invalid_config(
            "max_channels",
            "channel sampling needs at least one channel per side (got 0)",
        ));
    }
    for (name, s) in [
        ("sparsity.weight", cfg.sparsity.weight),
        ("sparsity.activation", cfg.sparsity.activation),
        ("sparsity.gradient", cfg.sparsity.gradient),
    ] {
        if !(0.0..=1.0).contains(&s) {
            return Err(AntError::InvalidConfig {
                param: name,
                reason: format!("sparsity {s} outside [0, 1]"),
            });
        }
    }
    for (li, layer) in net.layers.iter().enumerate() {
        for (dim, value) in [
            ("out_channels", layer.out_channels),
            ("in_channels", layer.in_channels),
            ("kernel_h", layer.kernel_h),
            ("kernel_w", layer.kernel_w),
            ("input_h", layer.input_h),
            ("input_w", layer.input_w),
            ("stride", layer.stride),
        ] {
            if value == 0 {
                return Err(AntError::invalid_config(
                    "layer",
                    format!("layer {li} ({:?}): {dim} must be non-zero", layer.name),
                ));
            }
        }
    }
    Ok(())
}

/// The pair wall budget from `ANT_PAIR_BUDGET_US`, resolved once. An
/// unparsable value warns and disables the watchdog.
fn budget_from_env() -> Option<u64> {
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| match std::env::var("ANT_PAIR_BUDGET_US") {
        Ok(raw) if !raw.trim().is_empty() => match raw.trim().parse::<u64>() {
            Ok(us) if us > 0 => Some(us),
            _ => {
                eprintln!("ant-bench: ignoring invalid ANT_PAIR_BUDGET_US={raw:?} (want a positive integer)");
                None
            }
        },
        _ => None,
    })
}

/// Whether `ANT_TELEMETRY` requests per-worker scheduler telemetry,
/// resolved once. Truthiness matches `ANT_TRACE`.
fn telemetry_from_env() -> bool {
    static TELEMETRY: OnceLock<bool> = OnceLock::new();
    *TELEMETRY.get_or_init(|| std::env::var("ANT_TELEMETRY").is_ok_and(|v| ant_obs::truthy(&v)))
}

/// Shared state behind live progress reporting. Workers only touch it when
/// progress is enabled for the run: each completed pair bumps the counters
/// and, at most once per reporter interval, publishes a `running` snapshot
/// (relaxed counts; the main thread publishes the exact final `done` after
/// every worker has joined).
struct ProgressShared {
    pairs_done: AtomicU64,
    layers_done: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
    slow: AtomicU64,
    /// Run-relative microseconds before which no worker publishes. It
    /// starts one interval in, so a run shorter than that writes only its
    /// final status.
    next_publish_us: AtomicU64,
    reporter: Mutex<ant_obs::StatusReporter>,
}

impl ProgressShared {
    fn new(console: bool) -> Self {
        let mut reporter = ant_obs::StatusReporter::new(ant_obs::progress::status_file());
        reporter.set_console(console);
        ProgressShared {
            pairs_done: AtomicU64::new(0),
            layers_done: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            next_publish_us: AtomicU64::new(PROGRESS_INTERVAL_US),
            reporter: Mutex::new(reporter),
        }
    }

    /// Called by a worker after each pair. Costs one clock read and one
    /// relaxed load until a publish is due; then only the worker that
    /// claims the slot builds and writes the snapshot.
    fn pair_done(&self, base: &ant_obs::RunStatus, run_start: &Instant) {
        if self.claim_publish(run_start.elapsed().as_micros() as u64) {
            self.publish(&snapshot_status(self, base, run_start, "running"));
        }
    }

    /// Whether a `running` snapshot is due at `now_us` (run-relative). At
    /// most one caller per interval gets `true`; it moves the next slot a
    /// full interval past `now_us`.
    fn claim_publish(&self, now_us: u64) -> bool {
        let due = self.next_publish_us.load(Ordering::Relaxed);
        now_us >= due
            && self
                .next_publish_us
                .compare_exchange(
                    due,
                    now_us + PROGRESS_INTERVAL_US,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
    }

    fn publish(&self, status: &ant_obs::RunStatus) {
        self.reporter
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .publish(status);
    }
}

/// Spacing of the mid-run `running` snapshots, in microseconds.
const PROGRESS_INTERVAL_US: u64 = 200_000;

/// Builds one status snapshot from the shared counters.
fn snapshot_status(
    shared: &ProgressShared,
    base: &ant_obs::RunStatus,
    run_start: &Instant,
    state: &'static str,
) -> ant_obs::RunStatus {
    let pairs_done = shared.pairs_done.load(Ordering::Relaxed);
    let elapsed_s = run_start.elapsed().as_secs_f64();
    let pairs_per_sec = if elapsed_s > 0.0 {
        pairs_done as f64 / elapsed_s
    } else {
        0.0
    };
    let remaining = base.pairs_total.saturating_sub(pairs_done);
    let eta_s = if state == "done" || remaining == 0 {
        0.0
    } else if pairs_per_sec > 0.0 {
        remaining as f64 / pairs_per_sec
    } else {
        0.0
    };
    ant_obs::RunStatus {
        state,
        layers_done: shared.layers_done.load(Ordering::Relaxed),
        pairs_done,
        elapsed_s,
        pairs_per_sec,
        eta_s,
        quarantined: shared.failures.load(Ordering::Relaxed),
        retries: shared.retries.load(Ordering::Relaxed),
        watchdog_slow: shared.slow.load(Ordering::Relaxed),
        ..base.clone()
    }
}

/// Encodes a [`PairTask`] into one word for the watchdog's atomic slots.
fn encode_task(task: PairTask) -> u64 {
    ((task.layer as u64) << 40) | ((task.phase as u64) << 32) | (task.pair as u64 & 0xFFFF_FFFF)
}

fn decode_task(word: u64) -> (usize, usize, usize) {
    (
        (word >> 40) as usize,
        ((word >> 32) & 0xFF) as usize,
        (word & 0xFFFF_FFFF) as usize,
    )
}

/// Per-worker watchdog slot: which job the worker is on and when it
/// started, published so the watchdog thread can flag stuck jobs.
#[derive(Default)]
struct WatchSlot {
    /// Job start as `elapsed_us + 1` since run start; 0 = idle.
    start_us: AtomicU64,
    /// The in-flight task, [`encode_task`]-encoded.
    task: AtomicU64,
}

/// The error a chaos-truncated CSR plane produces: rebuilds the kernel with
/// its last row pointer dropped and returns the validation failure.
fn truncated_csr_error(kernel: &CsrMatrix) -> AntError {
    let (rows, cols) = kernel.shape();
    let mut row_ptr = kernel.row_ptr().to_vec();
    row_ptr.pop();
    match CsrMatrix::from_raw(
        rows,
        cols,
        row_ptr,
        kernel.col_idx().to_vec(),
        kernel.values().to_vec(),
    ) {
        Err(e) => e.into(),
        Ok(_) => AntError::corrupt("chaos", "truncated row_ptr unexpectedly validated"),
    }
}

/// Simulates pair `task` of `work` behind the isolation boundary, applying
/// an injected chaos fault if one is scheduled for this attempt. The pair's
/// operands are resolved and its useful products counted
/// ([`LayerWork::useful_products`]) inside the boundary too, so a panic in
/// either comes back as a typed error and the pair is retried.
fn run_pair_job<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    work: &LayerWork,
    task: PairTask,
    fault: Option<Fault>,
    scratch: &mut SimScratch,
) -> Result<SimStats, AntError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (kernel, image, shape) = work.pair(task);
        match fault {
            Some(Fault::WorkerPanic) => panic!("chaos: injected worker panic"),
            Some(Fault::TruncatedCsr) => Err(truncated_csr_error(kernel)),
            Some(Fault::CorruptShape) => {
                // A shape that disagrees with the operands: either
                // construction fails (kernel outgrew the image) or the
                // operand check does.
                let shape = ConvShape::new(
                    shape.kernel_h() + 1,
                    shape.kernel_w() + 1,
                    shape.image_h(),
                    shape.image_w(),
                    shape.stride(),
                )?;
                pe.try_simulate_conv_pair(kernel, image, &shape, scratch)
            }
            None => {
                validate_conv_pair(pe.name(), kernel, image, shape)?;
                let useful = if pe.reads_useful_count() {
                    work.useful_products(task, &mut scratch.nz_counter)
                } else {
                    0
                };
                Ok(pe.simulate_counted_conv_pair(kernel, image, shape, useful, scratch))
            }
        }
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(AntError::from_panic("pair job", payload.as_ref())),
    }
}

/// One worker's harvest: per-(layer, phase) partial sums plus everything
/// the failure report needs.
struct WorkerOutput {
    partial: Vec<SimStats>,
    failures: Vec<PairFailure>,
    slow: Vec<SlowJob>,
    retried: Vec<PairRetry>,
    retries: u64,
    /// The layer of each job this worker drained unexecuted after the run
    /// deadline passed.
    skipped: Vec<usize>,
    /// Pool telemetry. The job count is always kept; the timings and slices
    /// only when telemetry is on for the run.
    telemetry: WorkerTelemetry,
}

/// One pair-granularity unit of the pair pool: indices into the synthesized
/// [`LayerWork`] table.
#[derive(Debug, Clone, Copy)]
struct PairTask {
    layer: usize,
    phase: usize,
    pair: usize,
}

/// [`RunOptions`] resolved against the environment, once per run. Workers
/// read these plain values, so the disabled observability paths add no
/// atomic operations per pair job.
#[derive(Clone, Copy)]
struct RunSettings {
    threads: usize,
    budget_us: Option<u64>,
    deadline_us: Option<u64>,
    telemetry: bool,
    /// Publish status snapshots: on request, or whenever the embedded
    /// metrics exporter is up, so `/status` is live on any scrapeable run.
    progress: bool,
    /// Also print the stderr progress line. Tied to the explicit request,
    /// so the exporter alone never changes console output.
    progress_console: bool,
    chaos: Option<ChaosConfig>,
}

impl RunSettings {
    fn resolve(opts: &RunOptions) -> Self {
        let progress_console = opts
            .progress
            .unwrap_or_else(ant_obs::progress::status_enabled);
        RunSettings {
            threads: opts
                .threads
                .filter(|&t| t > 0)
                .or_else(|| std::thread::available_parallelism().map(|n| n.get()).ok())
                .unwrap_or(1),
            budget_us: opts.pair_budget_us.or_else(budget_from_env),
            deadline_us: opts.deadline_us,
            telemetry: opts.telemetry.unwrap_or_else(telemetry_from_env),
            progress: progress_console || ant_obs::export::active(),
            progress_console,
            chaos: chaos::active(),
        }
    }

    /// The machine's cache identity when the two-tier redundancy eliminator
    /// (docs/PERFORMANCE.md) may run, else `None`. Both tiers are strictly
    /// opt-in (`ANT_CACHE` / `ANT_CACHE_DIR` or a test override) and stand
    /// down whenever chaos injection could taint results or detail tracing
    /// needs to observe every pair. A machine that returns no identity
    /// string is uncacheable and also keeps the analytic tier off, so one
    /// value governs both. IO- and service-only chaos specs (torn writes,
    /// ENOSPC, job death) strike around the simulation and cannot taint
    /// counters, so only a result-perturbing spec stands the cache down.
    fn cache_identity<S: ConvSim + ?Sized>(&self, pe: &S) -> Option<String> {
        let chaos_taints = self.chaos.is_some_and(|c| c.perturbs_results());
        if simcache::enabled() && !chaos_taints && !ant_obs::detail_enabled() {
            pe.cache_identity()
        } else {
            None
        }
    }
}

/// How one layer enters the merge, as decided by [`plan`].
enum LayerPlan {
    /// The finalized per-phase stats of an identical earlier run, resumed
    /// from the checkpoint or served by the cache. Nothing is simulated or
    /// recorded for the layer.
    Stored(Box<[SimStats; 3]>),
    /// Synthesized operands, by this run or an earlier call on the same
    /// operand key ([`synthesize_layers`]): its pairs are simulated, and its
    /// result is recorded to the checkpoint and, under `keys` (memo key,
    /// content key), to the cache.
    Fresh {
        work: Arc<LayerWork>,
        keys: Option<(CacheKey, CacheKey)>,
    },
}

/// The plan stage's result: one [`LayerPlan`] per layer, in layer order.
struct Plan {
    layers: Vec<LayerPlan>,
    /// Layers resumed from the checkpoint.
    resumed: usize,
    /// Layers served by the cache, by memo or content key.
    cache_hits: u64,
}

/// The dispatch stage's result.
struct Dispatched {
    /// Per-worker harvests, worker 0 first.
    outputs: Vec<WorkerOutput>,
    /// Per-(layer, phase) sums of the pairs the analytic tier answered;
    /// empty when that tier is off.
    analytic: Vec<SimStats>,
    analytic_pairs: u64,
    /// Pair jobs run on the pool.
    jobs: usize,
    workers: usize,
    /// The live-progress counters and the run's fixed status fields, for
    /// the final publish after the merge.
    progress: Option<(ProgressShared, ant_obs::RunStatus)>,
}

/// Consecutive pair jobs a worker claims from [`Pool::cursor`] at once.
/// Jobs are in serial order, so a run is mostly one layer's like-shaped
/// pairs and the worker's [`SimScratch`] stays warm across it. A run also
/// keeps two workers off each other's cache lines: on 2 vCPUs, claiming
/// single jobs lost 7 of 8 interleaved `fig09-cold` pairs against
/// per-worker deques (`op_ms.p50` median 22.15 vs 19.67 ms), because both
/// workers bumped the cursor's line and stored into each other's
/// [`LayerWork::useful`] lines. Sixteen `u64` counts fill two 64-byte
/// lines; runs of 16 read 21.46 vs 22.71 ms against the deques.
const CLAIM: usize = 16;

/// Everything the pool's workers share, borrowed by each of them.
struct Pool<'a, S: ?Sized> {
    pe: &'a S,
    net: &'a NetworkModel,
    layers: &'a [LayerPlan],
    settings: RunSettings,
    run_start: Instant,
    /// Every pair job of the run, in serial simulation order. Nothing is
    /// added once the workers start.
    jobs: Vec<PairTask>,
    /// Index of the first job no worker has claimed yet; may run past the
    /// end once the pool drains. `jobs` is complete before any worker
    /// starts, so the cursor publishes no data and `Relaxed` suffices.
    cursor: AtomicUsize,
    watch: Vec<WatchSlot>,
    /// Keep per-job Perfetto slices: only worth their memory when both
    /// telemetry and the profiler sidecar are on.
    profile_slices: bool,
    /// The live-progress counters and the run's fixed status fields.
    progress: Option<(ProgressShared, ant_obs::RunStatus)>,
    /// Per-layer outstanding jobs; a layer is done when its last pair
    /// lands. Only touched when progress is on.
    layer_remaining: Vec<AtomicU64>,
}

/// The pooled runner behind every parallel entry point, in three
/// stages, each bit-identical to [`simulate_network`]: [`plan`] decides
/// which layers merge from storage and synthesizes the rest, [`dispatch`]
/// simulates the fresh layers' pairs on the worker pool, and [`merge`]
/// finalizes every layer in serial layer order.
fn run_network_parallel<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    opts: &RunOptions,
    checkpoint: Option<&mut dyn LayerCheckpoint>,
) -> Result<NetworkResult, AntError> {
    validate_experiment(net, cfg)?;
    let started = Instant::now();
    let mut span = ant_obs::span("network");
    let settings = RunSettings::resolve(opts);
    let identity = settings.cache_identity(pe);
    let plan = plan(
        net,
        cfg,
        identity.as_deref(),
        checkpoint.as_deref(),
        settings.threads,
    )?;
    let dispatched = dispatch(pe, net, &plan.layers, settings, identity.is_some(), started)?;
    span.record("network", net.name)
        .record("machine", pe.name())
        .record("threads", dispatched.workers)
        .record("parallel", true)
        .record("jobs", dispatched.jobs)
        .record("resumed_layers", plan.resumed);
    if identity.is_some() {
        span.record("cache_hits", plan.cache_hits)
            .record("analytic_pairs", dispatched.analytic_pairs);
    }
    let mut merged = merge(pe, net, &plan.layers, &dispatched, checkpoint);
    if identity.is_some() {
        merged.cache_hits = plan.cache_hits;
        merged.analytic_pairs = dispatched.analytic_pairs;
        // Registry counters only materialize on cache-enabled runs, so
        // manifests of cache-off runs keep their existing key set.
        let registry = ant_obs::registry();
        registry.counter("runner.cache.hits").add(merged.cache_hits);
        registry
            .counter("runner.cache.misses")
            .add(merged.cache_misses);
        registry
            .counter("runner.cache.analytic_hits")
            .add(merged.analytic_pairs);
    }
    finish_network(&mut merged, cfg.num_pes, &started);
    if settings.telemetry {
        merged.workers = dispatched
            .outputs
            .into_iter()
            .map(|o| o.telemetry)
            .collect();
        record_worker_metrics(&merged.workers);
    }
    if let Some((shared, status_base)) = &dispatched.progress {
        // The final publish happens after every worker joined, so its
        // counts are exact (mid-run snapshots are relaxed approximations).
        let mut status = snapshot_status(shared, status_base, &started, "done");
        status.quarantined = merged.failures.failures.len() as u64;
        status.retries = merged.failures.retries;
        status.watchdog_slow = merged.failures.slow.len() as u64;
        shared.publish(&status);
    }
    if span.is_recording() {
        span.record("layers", net.layers.len());
        span.record("jobs_failed", merged.failures.failures.len());
        span.record("job_retries", merged.failures.retries);
        span.record("partial", merged.partial);
        span.record("wall_cycles", merged.wall_cycles);
        span.record_all(stats_fields(&merged.total));
        span.record("host_wall_us", merged.host_wall_us);
        span.record_all(throughput_fields(&merged.total, merged.host_wall_us));
    }
    Ok(merged)
}

/// Stage 1, plan. A layer the checkpoint holds resumes from it; otherwise
/// a memo-key cache hit serves it without synthesis, hashing or simulation
/// (the warm sweep's fast path). The remaining layers are synthesized and
/// content-addressed: a cache populated by another config that synthesized
/// identical planes still serves them, and the memo association is recorded
/// so the next run resolves before synthesis.
fn plan(
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    identity: Option<&str>,
    checkpoint: Option<&dyn LayerCheckpoint>,
    threads: usize,
) -> Result<Plan, AntError> {
    let mut resumed = 0;
    let mut cache_hits = 0;
    // Per layer: its memo key when cacheable, and its stored stats if any.
    let mut early: Vec<(Option<CacheKey>, Option<[SimStats; 3]>)> =
        Vec::with_capacity(net.layers.len());
    for (li, layer) in net.layers.iter().enumerate() {
        if let Some(phases) = checkpoint.and_then(|c| c.lookup(li, &layer.name)) {
            resumed += 1;
            early.push((None, Some(phases)));
            continue;
        }
        let memo = identity.map(|id| synth_cache_key(id, layer, li, cfg));
        let hit = memo.as_ref().and_then(simcache::lookup_memo);
        cache_hits += u64::from(hit.is_some());
        early.push((memo, hit));
    }
    let pending: Vec<usize> = (0..early.len())
        .filter(|&li| early[li].1.is_none())
        .collect();
    let works = synthesize_layers(net, cfg, &pending, threads)?;
    let mut layers = Vec::with_capacity(early.len());
    for (li, ((memo, stored), work)) in early.into_iter().zip(works).enumerate() {
        let work = match (stored, work) {
            (Some(phases), _) => {
                layers.push(LayerPlan::Stored(Box::new(phases)));
                continue;
            }
            (None, Some(work)) => work,
            (None, None) => {
                return Err(AntError::corrupt(
                    "runner",
                    format!("layer {li} neither synthesized nor stored"),
                ))
            }
        };
        let keys = identity
            .zip(memo)
            .map(|(id, memo)| (memo, content_cache_key(id, &work)));
        if let Some((memo, content)) = keys {
            if let Some(phases) = simcache::lookup(&content) {
                simcache::record(memo, content, &phases);
                cache_hits += 1;
                layers.push(LayerPlan::Stored(Box::new(phases)));
                continue;
            }
        }
        layers.push(LayerPlan::Fresh { work, keys });
    }
    Ok(Plan {
        layers,
        resumed,
        cache_hits,
    })
}

/// Everything a network's [`LayerWork`] depends on: the config's seed,
/// sparsities and channel sample, and the layer specs (each layer's RNG
/// seed derives from its index). Never the machine or the PE count, so
/// every machine run on one (config, network) shares one key.
#[derive(PartialEq)]
struct OperandKey {
    seed: u64,
    /// Weight, activation and gradient sparsity, bit for bit.
    sparsity: [u64; 3],
    max_channels: usize,
    layers: Vec<ConvLayerSpec>,
}

impl OperandKey {
    fn of(net: &NetworkModel, cfg: &ExperimentConfig) -> Self {
        let s = &cfg.sparsity;
        OperandKey {
            seed: cfg.seed,
            sparsity: [s.weight, s.activation, s.gradient].map(f64::to_bits),
            max_channels: cfg.max_channels,
            layers: net.layers.clone(),
        }
    }
}

/// The most recent network's synthesized layers, shared read-only: the
/// operand slot. Callers run several machines back to back on one (config,
/// network), and every call after the first skips synthesis. One slot, so
/// it never holds more than one network.
struct OperandSlot {
    key: OperandKey,
    /// Per layer of the network; `None` for layers no call synthesized
    /// (resumed from a checkpoint or served by the cache).
    layers: Vec<Option<Arc<LayerWork>>>,
}

/// Every update replaces the whole value, so a lock poisoned by a panicking
/// caller still guards a consistent slot and is recovered, not propagated.
static OPERANDS: Mutex<Option<OperandSlot>> = Mutex::new(None);

/// How many layers of `net` at `cfg` the operand slot holds: 0 unless the
/// slot's key is exactly this (config, network). Lets tests check which
/// network the slot serves and that it never holds two.
#[doc(hidden)]
pub fn held_operand_layers(net: &NetworkModel, cfg: &ExperimentConfig) -> usize {
    let key = OperandKey::of(net, cfg);
    let slot = OPERANDS.lock().unwrap_or_else(PoisonError::into_inner);
    match slot.as_ref() {
        Some(held) if held.key == key => held.layers.iter().flatten().count(),
        _ => 0,
    }
}

/// Returns the synthesized operands of every `pending` layer, one slot per
/// layer of `net`. Layers the operand slot holds under this call's key are
/// shared from it; a slot under another key is dropped before anything is
/// synthesized. The rest are synthesized on a pool ([`run_pool`]) of up to
/// `threads` workers that claim one layer at a time from a shared cursor
/// (each layer's RNG seed derives from its index alone, so synthesis order
/// is free) and stored in the slot.
fn synthesize_layers(
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    pending: &[usize],
    threads: usize,
) -> Result<Vec<Option<Arc<LayerWork>>>, AntError> {
    let key = OperandKey::of(net, cfg);
    let mut layers = {
        let mut slot = OPERANDS.lock().unwrap_or_else(PoisonError::into_inner);
        match slot.as_ref() {
            Some(held) if held.key == key => held.layers.clone(),
            _ => {
                *slot = None;
                vec![None; net.layers.len()]
            }
        }
    };
    let missing: Vec<usize> = pending
        .iter()
        .copied()
        .filter(|&li| layers[li].is_none())
        .collect();
    if missing.is_empty() {
        return Ok(layers);
    }
    let slots: Vec<OnceLock<Result<LayerWork, AntError>>> =
        (0..net.layers.len()).map(|_| OnceLock::new()).collect();
    let next_missing = AtomicUsize::new(0);
    run_pool(threads.clamp(1, missing.len()), None, |_| loop {
        let i = next_missing.fetch_add(1, Ordering::Relaxed);
        let Some(&li) = missing.get(i) else { break };
        let stored = slots[li].set(synthesize_layer_work(&net.layers[li], li, cfg));
        debug_assert!(stored.is_ok(), "layer {li} synthesized twice");
    })?;
    for (layer, synthesized) in layers.iter_mut().zip(slots) {
        if let Some(work) = synthesized.into_inner() {
            *layer = Some(Arc::new(work?));
        }
    }
    *OPERANDS.lock().unwrap_or_else(PoisonError::into_inner) = Some(OperandSlot {
        key,
        layers: layers.clone(),
    });
    Ok(layers)
}

/// Stage 2, dispatch. Every (layer, phase, pair) of a fresh layer becomes
/// one job, in serial simulation order; with the analytic tier on, pairs
/// whose machine has a closed form (byte-identical by the golden proptests)
/// are answered here instead. The jobs run on a pool ([`run_pool`]) of
/// workers ([`run_worker`]) that claim them in runs of [`CLAIM`] from one
/// cursor, beside the watchdog when a pair budget is set. No pool has more
/// workers than there are runs to claim.
fn dispatch<S: ConvSim + Sync + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    layers: &[LayerPlan],
    settings: RunSettings,
    analytic_active: bool,
    run_start: Instant,
) -> Result<Dispatched, AntError> {
    let mut analytic: Vec<SimStats> = Vec::new();
    let mut analytic_pairs = 0u64;
    if analytic_active {
        analytic.resize(layers.len() * 3, SimStats::default());
    }
    let mut jobs: Vec<PairTask> = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        let LayerPlan::Fresh { work, .. } = layer else {
            continue;
        };
        for (pi, phase) in TrainingPhase::ALL.into_iter().enumerate() {
            for (pair_index, (kernel, image, shape)) in work.trace.pairs(phase).enumerate() {
                if analytic_active {
                    if let Some(stats) = pe.analytic_conv_pair(kernel, image, shape) {
                        analytic[li * 3 + pi].accumulate(&stats);
                        analytic_pairs += 1;
                        continue;
                    }
                }
                jobs.push(PairTask {
                    layer: li,
                    phase: pi,
                    pair: pair_index,
                });
            }
        }
    }
    let workers = settings.threads.clamp(1, jobs.len().div_ceil(CLAIM).max(1));
    let layer_remaining: Vec<AtomicU64> = (0..layers.len()).map(|_| AtomicU64::new(0)).collect();
    let progress = settings.progress.then(|| {
        for task in &jobs {
            layer_remaining[task.layer].fetch_add(1, Ordering::Relaxed);
        }
        // Layers with no outstanding jobs — resumed, cache-resolved, or
        // fully answered by the analytic tier — count as done up front.
        let shared = ProgressShared::new(settings.progress_console);
        let upfront_done = layer_remaining
            .iter()
            .filter(|r| r.load(Ordering::Relaxed) == 0)
            .count();
        shared
            .layers_done
            .store(upfront_done as u64, Ordering::Relaxed);
        let status_base = ant_obs::RunStatus {
            name: net.name.to_string(),
            network: net.name.to_string(),
            machine: pe.name().to_string(),
            state: "running",
            threads: workers as u64,
            layers_total: net.layers.len() as u64,
            pairs_total: jobs.len() as u64,
            // Build identity: resolved once per process.
            git_revision: ant_obs::manifest::git_revision_cached(),
            resumed_from: ant_obs::progress::resumed_from(),
            ..ant_obs::RunStatus::default()
        };
        (shared, status_base)
    });
    let pool = Pool {
        pe,
        net,
        layers,
        settings,
        run_start,
        jobs,
        cursor: AtomicUsize::new(0),
        watch: (0..workers).map(|_| WatchSlot::default()).collect(),
        profile_slices: settings.telemetry && ant_obs::timeline::enabled(),
        progress,
        layer_remaining,
    };
    let watchdog = settings.budget_us.map(|budget| {
        let tick = Duration::from_micros((budget / 4).clamp(1_000, 50_000));
        let pool = &pool;
        move |stopped| watchdog_loop(stopped, &pool.watch, &pool.run_start, budget, tick)
    });
    let outputs = run_pool(workers, watchdog.as_ref().map(|w| w as _), |me| {
        run_worker(&pool, me)
    })?;
    Ok(Dispatched {
        outputs,
        analytic,
        analytic_pairs,
        jobs: pool.jobs.len(),
        workers,
        progress: pool.progress,
    })
}

/// Runs `work(me)` for workers `me` in `0..workers` and returns their
/// outputs, worker 0's first. The calling thread is worker 0, so one
/// worker with no watchdog spawns nothing (thread spawns dominate
/// sub-millisecond work). Workers 1.. are spawned and enter the caller's
/// open spans, so a span opened in `work` has one path whichever thread
/// runs it. `watchdog`, if any, runs on its own thread beside the workers
/// until its receiver disconnects, once every worker has returned.
///
/// # Errors
///
/// [`AntError::Panic`] when a worker panicked: `work` isolates its own
/// jobs, so this is a panic outside that isolation.
fn run_pool<T: Send>(
    workers: usize,
    watchdog: Option<&(dyn Fn(mpsc::Receiver<()>) + Sync)>,
    work: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, AntError> {
    let context = &ant_obs::span_context();
    let work = &work;
    let joined: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let stop_watchdog = watchdog.map(|watchdog| {
            let (stop, stopped) = mpsc::channel();
            scope.spawn(move || watchdog(stopped));
            stop
        });
        let handles: Vec<_> = (1..workers)
            .map(|me| {
                scope.spawn(move || {
                    let _entered = context.enter();
                    work(me)
                })
            })
            .collect();
        let mut joined = vec![catch_unwind(AssertUnwindSafe(|| work(0)))];
        joined.extend(handles.into_iter().map(|h| h.join()));
        drop(stop_watchdog);
        joined
    });
    joined
        .into_iter()
        .map(|j| j.map_err(|payload| AntError::from_panic("pool worker", payload.as_ref())))
        .collect()
}

impl<S: ?Sized> Pool<'_, S> {
    /// The next run of up to [`CLAIM`] consecutive unclaimed jobs, empty
    /// once the pool is drained for good (no job is added after the start).
    fn next_run(&self) -> &[PairTask] {
        let len = self.jobs.len();
        let start = self.cursor.fetch_add(CLAIM, Ordering::Relaxed).min(len);
        &self.jobs[start..len.min(start + CLAIM)]
    }
}

/// One pool worker. Each job runs behind `catch_unwind`: a failed job is
/// retried once on a fresh scratch arena, then quarantined. Raw pair
/// counters fold into per-(layer, phase) partials; they are `u64` sums, so
/// which worker claims which run cannot change the result.
fn run_worker<S: ConvSim + Sync + ?Sized>(pool: &Pool<'_, S>, me: usize) -> WorkerOutput {
    let worker_started = Instant::now();
    let mut worker_span = ant_obs::span("pair_worker");
    worker_span.record("worker", me);
    let settings = &pool.settings;
    let mut scratch = SimScratch::new();
    let mut out = WorkerOutput {
        partial: vec![SimStats::default(); pool.layers.len() * 3],
        failures: Vec::new(),
        slow: Vec::new(),
        retried: Vec::new(),
        retries: 0,
        skipped: Vec::new(),
        telemetry: WorkerTelemetry {
            worker: me,
            ..WorkerTelemetry::default()
        },
    };
    // Claim runs until the cursor passes the last job.
    let runs = std::iter::from_fn(|| Some(pool.next_run()).filter(|run| !run.is_empty()));
    for &task in runs.flatten() {
        // Job-level deadline: cancellation happens only at this pair-job
        // boundary (a running pair holds no cancellable resources, same
        // contract as the watchdog). Remaining jobs drain unexecuted; their
        // layers are left out of checkpoint and cache so a resumed run
        // re-simulates exactly them.
        let elapsed_us = || pool.run_start.elapsed().as_micros() as u64;
        if settings.deadline_us.is_some_and(|d| elapsed_us() >= d) {
            out.skipped.push(task.layer);
            continue;
        }
        let LayerPlan::Fresh { work, .. } = &pool.layers[task.layer] else {
            continue;
        };
        let phase = TrainingPhase::ALL[task.phase];
        let job_started = settings.budget_us.map(|_| {
            let slot = &pool.watch[me];
            slot.task.store(encode_task(task), Ordering::Relaxed);
            slot.start_us.store(elapsed_us() + 1, Ordering::Release);
            Instant::now()
        });
        // Telemetry timing is separate from the watchdog's so neither flag
        // changes the other's behaviour.
        let telemetry_started = settings
            .telemetry
            .then(|| (pool.run_start.elapsed(), Instant::now()));
        let fault = |attempt| {
            settings
                .chaos
                .and_then(|c| c.fault_for(task.layer, task.phase, task.pair, attempt))
        };
        let mut result = run_pair_job(pool.pe, work, task, fault(0), &mut scratch);
        let mut attempts = 1u32;
        if result.is_err() {
            out.retries += 1;
            if let Some((shared, _)) = &pool.progress {
                shared.retries.fetch_add(1, Ordering::Relaxed);
            }
            // The caught panic may have left the arena mid-mutation; retry
            // on a fresh one (failure path only — the clean path stays
            // allocation-free).
            scratch = SimScratch::new();
            result = run_pair_job(pool.pe, work, task, fault(1), &mut scratch);
            attempts = 2;
            if result.is_ok() {
                out.retried.push(PairRetry {
                    layer_index: task.layer,
                    phase: task.phase,
                    pair: task.pair,
                    attempts,
                });
            }
        }
        if let Some((since_run_start, job_t0)) = telemetry_started {
            let dur = job_t0.elapsed();
            out.telemetry.busy_ns += dur.as_nanos() as u64;
            if pool.profile_slices {
                out.telemetry.slices.push(JobSlice {
                    start_us: since_run_start.as_micros() as u64,
                    dur_us: dur.as_micros() as u64,
                    layer: task.layer,
                    phase: task.phase,
                    pair: task.pair,
                });
            }
        }
        if let Some(job_started) = job_started {
            pool.watch[me].start_us.store(0, Ordering::Release);
            let wall_us = job_started.elapsed().as_micros() as u64;
            if wall_us > settings.budget_us.unwrap_or(u64::MAX) {
                out.slow.push(SlowJob {
                    layer_index: task.layer,
                    phase: task.phase,
                    pair: task.pair,
                    wall_us,
                });
                if let Some((shared, _)) = &pool.progress {
                    shared.slow.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match result {
            Ok(stats) => out.partial[task.layer * 3 + task.phase].accumulate(&stats),
            Err(error) => {
                out.failures.push(PairFailure {
                    layer_index: task.layer,
                    layer: pool.net.layers[task.layer].name.clone(),
                    phase,
                    pair: task.pair,
                    machine: pool.pe.name(),
                    error,
                    attempts,
                });
                if let Some((shared, _)) = &pool.progress {
                    shared.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out.telemetry.executed += 1;
        if let Some((shared, status_base)) = &pool.progress {
            shared.pairs_done.fetch_add(1, Ordering::Relaxed);
            if pool.layer_remaining[task.layer].fetch_sub(1, Ordering::Relaxed) == 1 {
                shared.layers_done.fetch_add(1, Ordering::Relaxed);
            }
            shared.pair_done(status_base, &pool.run_start);
        }
    }
    let t = &mut out.telemetry;
    if settings.telemetry {
        t.wall_ns = worker_started.elapsed().as_nanos() as u64;
        t.idle_ns = t.wall_ns.saturating_sub(t.busy_ns);
    }
    if worker_span.is_recording() {
        worker_span.record("jobs_executed", t.executed);
        worker_span.record("jobs_failed", out.failures.len());
        if settings.telemetry {
            worker_span.record("busy_ns", t.busy_ns);
            worker_span.record("idle_ns", t.idle_ns);
        }
    }
    out
}

/// Stage 3, merge. Failures are sorted into deterministic
/// `(layer, phase, pair)` order and reported. Each fresh layer's partials
/// are summed across workers (and the analytic tier), then clamped and
/// scaled by the same [`finalize_phase`] the serial runner uses, and
/// recorded to the checkpoint and cache. Every layer then accumulates in
/// serial layer order, so every aggregate matches the serial runner.
fn merge<S: ConvSim + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    layers: &[LayerPlan],
    dispatched: &Dispatched,
    mut checkpoint: Option<&mut dyn LayerCheckpoint>,
) -> NetworkResult {
    // Worker attribution depends on which worker claimed which run, but the
    // set of failed jobs does not, so sorting by job coordinates makes the report
    // reproducible for any thread count.
    let mut report = FailureReport::default();
    let mut skipped_layers = BTreeSet::new();
    for out in &dispatched.outputs {
        report.failures.extend(out.failures.iter().cloned());
        report.slow.extend(out.slow.iter().copied());
        report.retried.extend(out.retried.iter().copied());
        report.retries += out.retries;
        report.deadline_skipped += out.skipped.len() as u64;
        skipped_layers.extend(out.skipped.iter().copied());
    }
    report
        .failures
        .sort_by_key(|f| (f.layer_index, f.phase as usize, f.pair));
    report
        .slow
        .sort_by_key(|s| (s.layer_index, s.phase, s.pair));
    report
        .retried
        .sort_by_key(|r| (r.layer_index, r.phase, r.pair));
    let failed_layers: BTreeSet<usize> = report.failures.iter().map(|f| f.layer_index).collect();
    if ant_obs::enabled() {
        for f in &report.failures {
            ant_obs::event(
                "pair_failure",
                &[
                    ("layer", f.layer.as_str().into()),
                    ("layer_index", (f.layer_index as u64).into()),
                    ("phase", f.phase.paper_name().into()),
                    ("pair", (f.pair as u64).into()),
                    ("machine", f.machine.into()),
                    ("kind", f.error.kind().into()),
                    ("error", f.error.to_string().as_str().into()),
                ],
            );
        }
        for r in &report.retried {
            ant_obs::event(
                "pair_retry",
                &[
                    ("layer_index", (r.layer_index as u64).into()),
                    ("phase", (r.phase as u64).into()),
                    ("pair", (r.pair as u64).into()),
                    ("machine", pe.name().into()),
                    ("attempts", r.attempts.into()),
                ],
            );
        }
    }
    ant_obs::registry()
        .counter("runner.pair_failures")
        .add(report.failures.len() as u64);
    ant_obs::registry()
        .counter("runner.pair_retries")
        .add(report.retries);
    if report.deadline_skipped > 0 {
        ant_obs::registry()
            .counter("runner.deadline_skipped")
            .add(report.deadline_skipped);
    }

    let mut merged = NetworkResult::empty(net.name, pe.name());
    merged.per_layer.reserve(net.layers.len());
    for (li, (layer, plan)) in net.layers.iter().zip(layers).enumerate() {
        let phases = match plan {
            LayerPlan::Stored(phases) => **phases,
            LayerPlan::Fresh { work, keys } => {
                let mut layer_span = ant_obs::span("layer");
                layer_span
                    .record("layer", layer.name.as_str())
                    .record("layer_index", li)
                    .record("network", net.name)
                    .record("machine", pe.name())
                    .record("channel_scale", work.channel_scale);
                let mut phases = [SimStats::default(); 3];
                for (pi, phase) in TrainingPhase::ALL.into_iter().enumerate() {
                    let mut phase_stats = SimStats::default();
                    for out in &dispatched.outputs {
                        phase_stats.accumulate(&out.partial[li * 3 + pi]);
                    }
                    // Pairs answered by the analytic tier fold in here;
                    // their stats are byte-identical to the dispatched path
                    // and the counters are u64 sums, so accumulation order
                    // cannot matter.
                    if let Some(partial) = dispatched.analytic.get(li * 3 + pi) {
                        phase_stats.accumulate(partial);
                    }
                    let distinct_images = work.trace.distinct_images(phase) as u64;
                    phases[pi] = finalize_phase(phase_stats, distinct_images, work.scale);
                    // Same phase-delta contract as the serial runner's
                    // spans; the pairs ran interleaved across workers, so no
                    // per-phase host wall time is attributable here.
                    let mut phase_span = ant_obs::span("phase");
                    if phase_span.is_recording() {
                        phase_span
                            .record("phase", phase.paper_name())
                            .record("network", net.name)
                            .record("machine", pe.name())
                            .record("layer", layer.name.as_str())
                            .record("pairs", work.trace.pair_count());
                        phase_span.record_all(stats_fields(&phases[pi]));
                    }
                    debug_assert_eq!(merged.per_phase[pi].0, phase);
                }
                // A layer is clean only when no pair was quarantined *and*
                // none was skipped by deadline cancellation — either way its
                // stats are incomplete and replaying them would poison every
                // later run.
                let clean = !failed_layers.contains(&li) && !skipped_layers.contains(&li);
                if let Some(ckpt) = checkpoint.as_deref_mut() {
                    ckpt.record(li, &layer.name, &phases, clean);
                }
                if let Some((memo, content)) = *keys {
                    merged.cache_misses += 1;
                    if clean {
                        simcache::record(memo, content, &phases);
                    }
                }
                phases
            }
        };
        let mut layer_total = SimStats::default();
        for (pi, scaled) in phases.iter().enumerate() {
            merged.total.accumulate(scaled);
            merged.per_phase[pi].1.accumulate(scaled);
            layer_total.accumulate(scaled);
        }
        merged.per_layer.push(LayerStats {
            index: li,
            name: layer.name.clone(),
            stats: layer_total,
            phases,
        });
    }
    merged.deadline_exceeded = report.deadline_skipped > 0;
    merged.partial = !report.is_clean() || merged.deadline_exceeded;
    merged.failures = report;
    merged
}

/// Feeds one run's per-worker telemetry into the process-wide registry.
/// Instrument names are worker-count-independent (histograms over the
/// worker population plus run-wide counters), so manifests that snapshot
/// the registry stay key-stable across thread counts.
fn record_worker_metrics(workers: &[WorkerTelemetry]) {
    let registry = ant_obs::registry();
    registry
        .gauge("runner.worker.count")
        .set(workers.len() as f64);
    for t in workers {
        registry
            .histogram("runner.worker.executed")
            .record(t.executed as f64);
        registry
            .histogram("runner.worker.busy_us")
            .record(t.busy_ns as f64 / 1e3);
        registry
            .histogram("runner.worker.idle_us")
            .record(t.idle_ns as f64 / 1e3);
        registry
            .histogram("runner.worker.utilization")
            .record(t.utilization());
    }
}

/// The watchdog: samples every worker's in-flight job once per `tick` and
/// warns (once per job) when one exceeds the wall budget. Jobs are flagged,
/// not killed — a stuck job holds no cancellable resources, and the warning
/// is the operator's cue to lower the workload or raise the budget. It
/// returns as soon as `stop`'s sender is dropped, not at the end of a tick.
fn watchdog_loop(
    stop: mpsc::Receiver<()>,
    watch: &[WatchSlot],
    run_start: &Instant,
    budget_us: u64,
    tick: Duration,
) {
    let mut warned: std::collections::HashSet<u64> = std::collections::HashSet::new();
    while stop.recv_timeout(tick) == Err(mpsc::RecvTimeoutError::Timeout) {
        let now_us = run_start.elapsed().as_micros() as u64;
        for (w, slot) in watch.iter().enumerate() {
            let start_plus_one = slot.start_us.load(Ordering::Acquire);
            if start_plus_one == 0 {
                continue;
            }
            let elapsed = now_us.saturating_sub(start_plus_one - 1);
            let task = slot.task.load(Ordering::Relaxed);
            if elapsed > budget_us && warned.insert(task) {
                let (layer, phase, pair) = decode_task(task);
                eprintln!(
                    "ant-bench: watchdog: worker {w} pair job \
                     layer={layer} phase={phase} pair={pair} \
                     in flight {elapsed}us (budget {budget_us}us)"
                );
            }
        }
    }
}

/// One layer's synthesized sample plus the counter scale factor needed to
/// reproduce the serial accounting. Built once per layer (by either runner)
/// and consumed read-only: a pair job is a `(phase, pair)` index that the
/// trace resolves to borrowed planes, and each phase's image-stationary
/// start-up clamp is the trace's `distinct_images`.
#[derive(Debug)]
struct LayerWork {
    /// `channel_scale * layer.count`: factor from sampled to full-layer
    /// counters.
    scale: f64,
    /// Channel-sampling scale alone (for span parity with older traces).
    channel_scale: f64,
    /// The sampled planes, with the backward phase's derived once.
    trace: ConvTrace,
    /// Every pair's exact useful-product count, phase by phase in
    /// [`TrainingPhase::ALL`] order and each phase in [`ConvTrace::pairs`]
    /// order, or [`NOT_COUNTED`] until a pair job counts it
    /// ([`LayerWork::useful_products`]). The first job on a machine that
    /// reads counts does, and every later machine call on the operand slot
    /// reads the stored count, so a pair is counted at most once per op and
    /// never when the analytic tier or the cache answers it. The serial
    /// runner leaves it unread and counts per machine call, through
    /// [`ConvSim::simulate_conv_pair_scratch`], as the independent
    /// reference. The counts live here, not in the [`ConvTrace`], so
    /// decoding a trace bundle never counts.
    useful: Box<[AtomicU64]>,
}

/// [`LayerWork::useful`]'s mark for a pair no job has counted yet. No count
/// reaches it: a pair has at most `nnz(kernel) * nnz(image)` products.
const NOT_COUNTED: u64 = u64::MAX;

impl LayerWork {
    /// The operands of pair `task.pair` of phase `task.phase` (an index
    /// into [`TrainingPhase::ALL`]).
    fn pair(&self, task: PairTask) -> PairRef<'_> {
        let channels = self.trace.in_channels();
        let phase = TrainingPhase::ALL[task.phase];
        self.trace
            .pair(phase, task.pair / channels, task.pair % channels)
    }

    /// The useful-product count of `task`'s pair: the stored one, or, if
    /// no job has counted it yet, counted on `scratch` and stored. Two runs
    /// that share the operand slot may both count a pair; they store the
    /// same number. The count publishes no other data, so `Relaxed`
    /// suffices.
    fn useful_products(&self, task: PairTask, scratch: &mut NzCounterScratch) -> u64 {
        let stored = &self.useful[task.phase * self.trace.pair_count() + task.pair];
        match stored.load(Ordering::Relaxed) {
            NOT_COUNTED => {
                let (kernel, image, shape) = self.pair(task);
                let useful = count_useful_products_with(kernel, image, shape, scratch);
                stored.store(useful, Ordering::Relaxed);
                useful
            }
            useful => useful,
        }
    }
}

/// The pre-synthesis memo key for one layer: hashes everything that
/// *determines* the synthesized operands and their finalized stats by
/// construction — the experiment fingerprint (seed, sampling, sparsities),
/// the layer's dimensions and its index (per-layer RNG seeds derive from
/// the index), the machine identity string, and [`MODEL_VERSION`]. Not the
/// layer's name, which the operands do not depend on: two networks whose
/// layers agree in index and dimensions share those layers' entries. A warm
/// run that resolves this key skips synthesis entirely; the authoritative
/// content key below is what entries are stored under.
fn synth_cache_key(
    machine_identity: &str,
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
) -> CacheKey {
    let mut key = KeyBuilder::default();
    key.write_str("ant-simcache-synth");
    key.write_u64(u64::from(MODEL_VERSION));
    key.write_str(machine_identity);
    Fingerprint::of(cfg).write_to(&mut key);
    key.write_usize(layer_index);
    for dim in [
        layer.out_channels,
        layer.in_channels,
        layer.kernel_h,
        layer.kernel_w,
        layer.input_h,
        layer.input_w,
        layer.stride,
        layer.padding,
        layer.count,
    ] {
        key.write_usize(dim);
    }
    key.finish()
}

/// The content-addressed cache key for one synthesized layer: hashes the
/// actual CSR planes and shapes of every sampled pair in every phase, the
/// scaling constants, the machine identity string, and [`MODEL_VERSION`].
/// Two layers with equal content keys produce byte-identical finalized
/// stats on the same machine, whatever config synthesized them.
fn content_cache_key(machine_identity: &str, work: &LayerWork) -> CacheKey {
    let mut key = KeyBuilder::default();
    key.write_str("ant-simcache-content");
    key.write_u64(u64::from(MODEL_VERSION));
    key.write_str(machine_identity);
    key.write_f64(work.scale);
    for phase in TrainingPhase::ALL {
        key.write_str(phase.paper_name());
        key.write_u64(work.trace.distinct_images(phase) as u64);
        key.write_usize(work.trace.pair_count());
        for (kernel, image, shape) in work.trace.pairs(phase) {
            for dim in [
                shape.kernel_h(),
                shape.kernel_w(),
                shape.image_h(),
                shape.image_w(),
                shape.stride(),
                shape.dilation(),
            ] {
                key.write_usize(dim);
            }
            key.write_csr(kernel);
            key.write_csr(image);
        }
    }
    key.finish()
}

/// Synthesizes one layer's [`LayerWork`] under a `synthesize_layer` span.
/// The RNG seed derives from `cfg.seed` and the layer index alone, so any
/// execution order (serial or pooled) sees identical operands. Panics
/// inside synthesis come back as typed errors tagged with the layer.
fn synthesize_layer_work(
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
) -> Result<LayerWork, AntError> {
    let mut span = ant_obs::span("synthesize_layer");
    if span.is_recording() {
        span.record("layer", layer.name.as_str())
            .record("layer_index", layer_index);
    }
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let synth = catch_unwind(AssertUnwindSafe(|| {
        synthesize_layer(layer, &cfg.sparsity, cfg.max_channels, &mut rng)
    }))
    .map_err(|payload| {
        let inner = AntError::from_panic("layer synthesis", payload.as_ref());
        AntError::corrupt(
            "synthesis",
            format!("layer {layer_index} ({:?}): {inner}", layer.name),
        )
    })?;
    Ok(LayerWork {
        scale: synth.channel_scale * layer.count as f64,
        channel_scale: synth.channel_scale,
        useful: (0..TrainingPhase::ALL.len() * synth.trace.pair_count())
            .map(|_| AtomicU64::new(NOT_COUNTED))
            .collect(),
        trace: synth.trace,
    })
}

/// Applies the per-phase start-up clamp and channel scaling to raw
/// accumulated pair counters. Shared by the serial and pooled runners:
/// this is the single definition of the sampled-to-full-layer accounting.
///
/// Image-stationary reuse (paper Sections 2.3 and 6.1): the resident image
/// plane is held while every kernel matrix streams past, so the five-cycle
/// pipeline start-up is paid once per *image* (`distinct_images`, see
/// [`ConvTrace::distinct_images`]), not once per (k, c) pair. All machines
/// share the dataflow, so the amortization applies equally.
fn finalize_phase(mut phase_stats: SimStats, distinct_images: u64, scale: f64) -> SimStats {
    phase_stats.startup_cycles = phase_stats
        .startup_cycles
        .min(ant_sim::accelerator::STARTUP_CYCLES * distinct_images);
    // Mirror the clamp into the attribution: `cycles.startup` tracked the
    // unclamped per-pair start-up, so snapping it to the clamped value
    // keeps `cycles.total() == total_cycles()` exactly.
    phase_stats.cycles.startup = phase_stats.startup_cycles;
    let scaled = phase_stats.scaled_f64(scale);
    scaled.debug_assert_cycles_attributed("runner phase");
    scaled
}

fn accumulate_layer<S: ConvSim + ?Sized>(
    pe: &S,
    layer: &ant_workloads::ConvLayerSpec,
    layer_index: usize,
    cfg: &ExperimentConfig,
    out: &mut NetworkResult,
) {
    let mut layer_span = ant_obs::span("layer");
    layer_span
        .record("layer", layer.name.as_str())
        .record("layer_index", layer_index)
        .record("network", out.network)
        .record("machine", pe.name());
    let work = synthesize_layer_work(layer, layer_index, cfg).unwrap_or_else(|e| panic!("{e}"));
    layer_span.record("channel_scale", work.channel_scale);
    let mut layer_total = SimStats::default();
    let mut scaled_phases = [
        SimStats::default(),
        SimStats::default(),
        SimStats::default(),
    ];
    for (pi, phase) in TrainingPhase::ALL.into_iter().enumerate() {
        let phase_started = Instant::now();
        let mut phase_span = ant_obs::span("phase");
        phase_span
            .record("phase", phase.paper_name())
            .record("network", out.network)
            .record("machine", pe.name())
            .record("layer", layer.name.as_str())
            .record("pairs", work.trace.pair_count());
        let mut phase_stats = SimStats::default();
        for (kernel, image, shape) in work.trace.pairs(phase) {
            phase_stats.accumulate(&pe.simulate_conv_pair(kernel, image, shape));
        }
        let distinct_images = work.trace.distinct_images(phase) as u64;
        let scaled = finalize_phase(phase_stats, distinct_images, work.scale);
        // The scaled stats are exactly this phase's contribution (delta)
        // to the network totals; attach them to the phase span, with the
        // host wall time this phase took to simulate and the derived
        // simulated-work-per-wall-second rates.
        if phase_span.is_recording() {
            let phase_wall_us = phase_started.elapsed().as_micros() as u64;
            phase_span.record_all(stats_fields(&scaled));
            phase_span.record("host_wall_us", phase_wall_us);
            phase_span.record_all(throughput_fields(&scaled, phase_wall_us));
        }
        out.total.accumulate(&scaled);
        // `per_phase` is built in `[Forward, Backward, Update]` order, the
        // order of `TrainingPhase::ALL`, so direct indexing holds.
        debug_assert_eq!(out.per_phase[pi].0, phase);
        out.per_phase[pi].1.accumulate(&scaled);
        layer_total.accumulate(&scaled);
        scaled_phases[pi] = scaled;
    }
    out.per_layer.push(LayerStats {
        index: layer_index,
        name: layer.name.clone(),
        stats: layer_total,
        phases: scaled_phases,
    });
}

/// One schedulable unit of work for profiling: the unscaled stats of a
/// single (kernel, image) pair, tagged with its provenance. Jobs come out
/// in the exact order [`simulate_network`] simulates them (same per-layer
/// seed derivation), so per-PE schedules built from them reflect the
/// sampled simulation.
#[derive(Debug, Clone)]
pub struct PairJob {
    /// Index of the source layer in the network spec.
    pub layer_index: usize,
    /// Source layer name.
    pub layer: String,
    /// Which training-phase convolution the pair belongs to.
    pub phase: TrainingPhase,
    /// Unscaled per-pair counters (attribution invariant holds).
    pub stats: SimStats,
}

/// Simulates every sampled (kernel, image) pair of `net` individually and
/// returns the per-pair stats, for schedulers and timeline builders that
/// need job granularity rather than network totals.
pub fn pair_jobs<S: ConvSim + ?Sized>(
    pe: &S,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
) -> Vec<PairJob> {
    let mut jobs = Vec::new();
    for (li, layer) in net.layers.iter().enumerate() {
        let work = synthesize_layer_work(layer, li, cfg).unwrap_or_else(|e| panic!("{e}"));
        for phase in TrainingPhase::ALL {
            for (kernel, image, shape) in work.trace.pairs(phase) {
                let stats = pe.simulate_conv_pair(kernel, image, shape);
                stats.debug_assert_cycles_attributed("pair job");
                jobs.push(PairJob {
                    layer_index: li,
                    layer: layer.name.clone(),
                    phase,
                    stats,
                });
            }
        }
    }
    jobs
}

/// Simulates every pair of a trace's three phases on `pe` and returns the
/// raw sum of their stats: how captured and decoded traces (`ant-nn`
/// training runs, trace bundles) are replayed. The pairs borrow the
/// trace's planes; nothing is copied.
pub fn simulate_trace<S: ConvSim + ?Sized>(pe: &S, trace: &ConvTrace) -> SimStats {
    let mut total = SimStats::default();
    for phase in TrainingPhase::ALL {
        for (kernel, image, shape) in trace.pairs(phase) {
            total.accumulate(&pe.simulate_conv_pair(kernel, image, shape));
        }
    }
    total
}

/// Simulates a set of matmul layers (transformer/RNN training phases,
/// paper Sections 5 and 7.8) on one PE model at uniform sparsity.
pub fn simulate_matmul_layers<S: ant_sim::MatmulSim + ?Sized>(
    pe: &S,
    layers: &[ant_workloads::models::MatmulLayerSpec],
    sparsity: f64,
    seed: u64,
) -> SimStats {
    let mut span = ant_obs::span("matmul_layers");
    span.record("layers", layers.len())
        .record("sparsity", sparsity);
    let mut total = SimStats::default();
    for (li, spec) in layers.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shape = spec.shape();
        let (image, kernel) =
            ant_workloads::synth::synthesize_matmul(&shape, sparsity, sparsity, &mut rng);
        let stats = pe.simulate_matmul_pair(&image, &kernel, &shape);
        total.accumulate(&stats.scaled(spec.count as u64));
    }
    if span.is_recording() {
        span.record_all(stats_fields(&total));
    }
    total
}

/// Speedup of `fast` over `slow` in wall-clock cycles.
pub fn speedup(slow: &NetworkResult, fast: &NetworkResult) -> f64 {
    slow.wall_cycles as f64 / fast.wall_cycles as f64
}

/// Energy ratio `slow / fast` under the given model.
pub fn energy_ratio(
    slow: &NetworkResult,
    fast: &NetworkResult,
    model: &ant_sim::EnergyModel,
) -> f64 {
    slow.total.energy_pj(model) / fast.total.energy_pj(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sim::ant::AntAccelerator;
    use ant_sim::inner::DenseInnerProduct;
    use ant_sim::scnn::ScnnPlus;
    use ant_workloads::models;

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
    fn deterministic_across_runs() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let pe = ScnnPlus::paper_default();
        let a = simulate_network(&pe, &net, &cfg);
        let b = simulate_network(&pe, &net, &cfg);
        assert_eq!(a.total, b.total);
        assert_eq!(a.wall_cycles, b.wall_cycles);
    }

    #[test]
    fn phases_sum_to_total() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let result = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let phase_sum: u64 = result.per_phase.iter().map(|(_, s)| s.mults).sum();
        assert_eq!(phase_sum, result.total.mults);
    }

    #[test]
    fn layer_phase_stats_sum_to_layer_and_network() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let result = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        let mut phase_sums = [SimStats::default(); 3];
        for layer in &result.per_layer {
            let mut layer_sum = SimStats::default();
            for (pi, phase) in layer.phases.iter().enumerate() {
                layer_sum.accumulate(phase);
                phase_sums[pi].accumulate(phase);
            }
            assert_eq!(layer_sum, layer.stats, "layer {}", layer.name);
        }
        for (sum, (_, network_phase)) in phase_sums.iter().zip(result.per_phase.iter()) {
            assert_eq!(sum, network_phase);
        }
    }

    #[test]
    fn update_phase_dominates_scnn_multiplications() {
        // The paper's core observation: under sparse training, G_A * A
        // dominates the outer-product work on an SCNN-like machine.
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let result = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let update = result
            .per_phase
            .iter()
            .find(|(p, _)| *p == TrainingPhase::Update)
            .unwrap()
            .1;
        assert!(update.mults > result.total.mults / 2);
    }

    #[test]
    fn ant_beats_scnn_on_cifar_scale_layers() {
        let cfg = ExperimentConfig::paper_default();
        let net = NetworkModel {
            name: "cifar-scale",
            layers: vec![ant_workloads::ConvLayerSpec::new("l", 8, 8, 3, 32, 1, 1, 1)],
        };
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        assert!(
            speedup(&scnn, &ant) > 2.0,
            "speedup {}",
            speedup(&scnn, &ant)
        );
        assert_eq!(ant.total.useful_mults, scnn.total.useful_mults);
        let energy = ant_sim::EnergyModel::paper_7nm();
        assert!(energy_ratio(&scnn, &ant, &energy) > 1.5);
    }

    #[test]
    fn tiny_layers_show_startup_overhead() {
        // Paper Section 7.6: on very small layers the 5-cycle start-up
        // erodes ANT's advantage (up to a 30% slowdown there). Our tiny net
        // should show a muted speedup, not a large one.
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        let s = speedup(&scnn, &ant);
        assert!(s > 0.7 && s < 3.0, "tiny-layer speedup {s}");
    }

    #[test]
    fn multiplicity_scales_counters() {
        let cfg = ExperimentConfig::paper_default();
        let one = NetworkModel {
            name: "x1",
            layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 2, 3, 16, 1, 1, 1)],
        };
        let two = NetworkModel {
            name: "x2",
            layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 2, 3, 16, 1, 1, 2)],
        };
        let r1 = simulate_network(&ScnnPlus::paper_default(), &one, &cfg);
        let r2 = simulate_network(&ScnnPlus::paper_default(), &two, &cfg);
        assert_eq!(r2.total.mults, 2 * r1.total.mults);
    }

    #[test]
    fn parallel_runner_is_bit_identical_to_serial() {
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = models::resnet18_cifar();
        let machines = [
            Box::new(ScnnPlus::paper_default()) as Box<dyn ConvSim + Sync>,
            Box::new(AntAccelerator::paper_default()),
        ];
        for machine in &machines {
            let pe = machine.as_ref();
            let serial = simulate_network(pe, &net, &cfg);
            let assert_matches = |parallel: &NetworkResult, label: &str| {
                assert_eq!(serial.total, parallel.total, "{label}");
                assert_eq!(serial.wall_cycles, parallel.wall_cycles, "{label}");
                for ((_, a), (_, b)) in serial.per_phase.iter().zip(parallel.per_phase.iter()) {
                    assert_eq!(a, b, "{label}");
                }
                assert_eq!(serial.per_layer.len(), parallel.per_layer.len(), "{label}");
                for (a, b) in serial.per_layer.iter().zip(parallel.per_layer.iter()) {
                    assert_eq!(a.index, b.index, "{label}");
                    assert_eq!(a.name, b.name, "{label}");
                    assert_eq!(a.stats, b.stats, "{label} layer {}", a.name);
                    assert_eq!(a.phases, b.phases, "{label} layer {}", a.name);
                }
            };
            // The pool must be bit-identical for one worker, an even count,
            // odd counts, and far more workers than layers (forcing a final
            // partial run and workers that claim nothing).
            for threads in [1, 2, 3, 7, 64] {
                let opts = RunOptions {
                    threads: Some(threads),
                    ..RunOptions::default()
                };
                let parallel = try_simulate_network_parallel(pe, &net, &cfg, &opts).unwrap();
                assert_matches(&parallel, &format!("{} threads={threads}", pe.name()));
            }
            let default_entry = super::simulate_network_parallel(pe, &net, &cfg);
            assert_matches(&default_entry, &format!("{} default", pe.name()));
        }
    }

    #[test]
    fn telemetry_and_progress_do_not_change_results() {
        // Acceptance gate: with scheduler telemetry and live progress both
        // forced on, cycles/energy stay byte-identical to the serial run
        // for any thread count.
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = models::resnet18_cifar();
        let pe = AntAccelerator::paper_default();
        let serial = simulate_network(&pe, &net, &cfg);
        let energy = ant_sim::EnergyModel::paper_7nm();
        for threads in [1, 2, 3, 7, 64] {
            let opts = RunOptions {
                threads: Some(threads),
                telemetry: Some(true),
                progress: Some(true),
                ..RunOptions::default()
            };
            let parallel = try_simulate_network_parallel(&pe, &net, &cfg, &opts).unwrap();
            assert_eq!(serial.total, parallel.total, "threads={threads}");
            assert_eq!(
                serial.wall_cycles, parallel.wall_cycles,
                "threads={threads}"
            );
            assert_eq!(
                serial.total.energy_pj(&energy),
                parallel.total.energy_pj(&energy),
                "threads={threads}"
            );
            for ((_, a), (_, b)) in serial.per_phase.iter().zip(parallel.per_phase.iter()) {
                assert_eq!(a, b, "threads={threads}");
            }
        }
    }

    #[test]
    fn progress_publishes_at_most_once_per_interval() {
        let shared = ProgressShared::new(false);
        // Nothing is due in the first interval, so a shorter run writes
        // only its final status.
        assert!(!shared.claim_publish(0));
        assert!(!shared.claim_publish(PROGRESS_INTERVAL_US - 1));
        assert!(shared.claim_publish(PROGRESS_INTERVAL_US + 7));
        // A claim pushes the next slot a full interval past itself.
        assert!(!shared.claim_publish(PROGRESS_INTERVAL_US + 8));
        assert!(!shared.claim_publish(2 * PROGRESS_INTERVAL_US + 6));
        assert!(shared.claim_publish(2 * PROGRESS_INTERVAL_US + 7));
    }

    #[test]
    fn watchdog_returns_when_its_stop_sender_drops() {
        // An hour's budget and tick, so only the dropped sender can end the
        // watchdog's wait in time: a lost wakeup hangs this test rather
        // than passing it.
        let watch: Vec<WatchSlot> = (0..2).map(|_| WatchSlot::default()).collect();
        let run_start = Instant::now();
        let (stop, stopped) = mpsc::channel();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let watchdog = scope.spawn(|| {
                barrier.wait();
                let hour = Duration::from_secs(3600);
                watchdog_loop(stopped, &watch, &run_start, hour.as_micros() as u64, hour);
            });
            barrier.wait();
            drop(stop);
            watchdog.join().unwrap();
        });
    }

    #[test]
    fn the_pool_returns_outputs_in_worker_order_and_panics_as_errors() {
        // The watchdog blocks until its receiver disconnects, which happens
        // only after every worker has returned.
        let workers_done = AtomicUsize::new(0);
        let watchdog = |stopped: mpsc::Receiver<()>| {
            assert!(stopped.recv().is_err());
            assert_eq!(workers_done.load(Ordering::SeqCst), 3);
        };
        let outputs = run_pool(3, Some(&watchdog), |me| {
            workers_done.fetch_add(1, Ordering::SeqCst);
            me * 10
        })
        .unwrap();
        assert_eq!(outputs, [0, 10, 20]);
        // A panic outside any job's isolation, on the calling thread (one
        // worker) or a spawned one, comes back as a typed error.
        for workers in [1, 3] {
            let error = run_pool(workers, None, |me| {
                assert!(me + 1 < workers, "worker {me} dies");
            })
            .unwrap_err();
            assert!(
                matches!(&error, AntError::Panic { context, .. } if context == "pool worker"),
                "{error}"
            );
        }
    }

    #[test]
    fn worker_telemetry_accounts_for_every_job() {
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = tiny_net();
        // 2 layers x 3 phases x (2x2 sampled pairs) = 24 jobs: one full run
        // of CLAIM and a partial one, so no more than 2 workers.
        let expected_jobs = 24u64;
        for threads in [1usize, 3, 16] {
            let opts = RunOptions {
                threads: Some(threads),
                telemetry: Some(true),
                ..RunOptions::default()
            };
            let result =
                try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts)
                    .unwrap();
            let workers = &result.workers;
            assert_eq!(workers.len(), threads.min(2), "threads={threads}");
            // Worker indices are dense and ordered.
            for (i, t) in workers.iter().enumerate() {
                assert_eq!(t.worker, i);
                assert!(t.wall_ns > 0, "worker {i} wall time");
                assert!(t.busy_ns <= t.wall_ns, "worker {i} busy <= wall");
                assert_eq!(t.idle_ns, t.wall_ns - t.busy_ns, "worker {i} idle");
                assert!(t.utilization() >= 0.0 && t.utilization() <= 1.0);
                // ANT_PROFILE is not on in tests, so no slices are kept.
                assert!(t.slices.is_empty(), "worker {i} slices");
            }
            // Every job is executed exactly once: no run is claimed twice
            // or overlaps another, and the final partial run is not lost.
            assert_eq!(
                workers.iter().map(|t| t.executed).sum::<u64>(),
                expected_jobs,
                "threads={threads}"
            );
        }
        // Telemetry off: no worker records at all.
        let off = try_simulate_network_parallel(
            &ScnnPlus::paper_default(),
            &net,
            &cfg,
            &RunOptions {
                threads: Some(3),
                telemetry: Some(false),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(off.workers.is_empty());
    }

    #[test]
    fn worker_metrics_reach_the_registry() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let opts = RunOptions {
            threads: Some(2),
            telemetry: Some(true),
            ..RunOptions::default()
        };
        let _ =
            try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts).unwrap();
        let registry = ant_obs::registry();
        assert!(registry.histogram("runner.worker.executed").count() >= 2);
        assert!(registry.histogram("runner.worker.busy_us").count() >= 2);
        assert!(registry.histogram("runner.worker.utilization").count() >= 2);
        assert!(registry.gauge("runner.worker.count").get() >= 1.0);
        // Snapshot keys are stable regardless of worker count: worker
        // attribution lives in histogram percentiles, not per-worker keys.
        let snapshot = registry.snapshot();
        assert!(snapshot
            .iter()
            .any(|(k, _)| k == "runner.worker.executed.count"));
        assert!(!snapshot.iter().any(|(k, _)| k.contains("worker.0.")));
    }

    #[test]
    fn attribution_survives_clamping_and_scaling() {
        // The startup clamp and f64 channel scaling must leave every level
        // of aggregation fully attributed: totals, phases, and layers.
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        for machine in [
            Box::new(ScnnPlus::paper_default()) as Box<dyn ConvSim>,
            Box::new(AntAccelerator::paper_default()),
        ] {
            let result = simulate_network(machine.as_ref(), &net, &cfg);
            assert!(result.total.cycles_attributed(), "total");
            for (phase, stats) in &result.per_phase {
                assert!(stats.cycles_attributed(), "phase {phase}");
            }
            assert_eq!(result.per_layer.len(), net.layers.len());
            let mut layer_sum = SimStats::default();
            for layer in &result.per_layer {
                assert!(layer.stats.cycles_attributed(), "layer {}", layer.name);
                layer_sum.accumulate(&layer.stats);
            }
            assert_eq!(layer_sum, result.total);
        }
    }

    #[test]
    fn pair_jobs_cover_the_sampled_network() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let jobs = super::pair_jobs(&ScnnPlus::paper_default(), &net, &cfg);
        assert!(!jobs.is_empty());
        // l1: 2 in x 4 out = 8 forward + 8 backward + 8 update pairs;
        // l2: 4 x 4 = 16 per phase.
        assert_eq!(jobs.len(), 3 * 8 + 3 * 16);
        for job in &jobs {
            assert!(job.stats.cycles_attributed(), "job in {}", job.layer);
            assert!(job.layer_index < net.layers.len());
        }
        // Jobs arrive in layer order.
        let indices: Vec<usize> = jobs.iter().map(|j| j.layer_index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn host_wall_time_and_throughput_are_populated() {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let r = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let t = r.throughput();
        // A fast machine can finish the tiny net in under a microsecond;
        // throughput then reports zero rates instead of dividing by zero.
        if r.host_wall_us > 0 {
            assert!(t.sim_cycles_per_sec > 0.0);
            assert!(t.effectual_macs_per_sec > 0.0);
            assert!(t.pairs_per_sec > 0.0);
        } else {
            assert_eq!(t, ant_sim::Throughput::default());
        }
        // The run fed the host-metrics registry.
        assert!(
            ant_obs::registry()
                .histogram("runner.network_wall_us")
                .count()
                > 0
        );
    }

    /// Pair 0 of the update phase of the tiny net's first layer, as the
    /// runner synthesizes it.
    fn tiny_update_pair() -> (LayerWork, PairTask) {
        let cfg = ExperimentConfig::paper_default();
        let work = synthesize_layer_work(&tiny_net().layers[0], 0, &cfg).unwrap();
        let task = PairTask {
            layer: 0,
            phase: 2,
            pair: 0,
        };
        (work, task)
    }

    #[test]
    fn a_pair_is_counted_once_and_only_for_machines_that_read_counts() {
        let (work, task) = tiny_update_pair();
        let stored = &work.useful[2 * work.trace.pair_count()];
        let mut scratch = SimScratch::new();
        let dense = DenseInnerProduct::paper_default();
        run_pair_job(&dense, &work, task, None, &mut scratch).unwrap();
        assert_eq!(stored.load(Ordering::Relaxed), NOT_COUNTED);

        let scnn = ScnnPlus::paper_default();
        let first = run_pair_job(&scnn, &work, task, None, &mut scratch).unwrap();
        let (kernel, image, shape) = work.pair(task);
        let exact = ant_conv::rcp::count_useful_products(kernel, image, shape);
        assert!(exact > 0, "the pair must have useful products to check");
        assert_eq!(stored.load(Ordering::Relaxed), exact);
        assert_eq!(first, scnn.simulate_conv_pair(kernel, image, shape));
        // A later call reads the stored count instead of recounting.
        stored.store(exact - 1, Ordering::Relaxed);
        let later = run_pair_job(&scnn, &work, task, None, &mut scratch).unwrap();
        assert_eq!(later.useful_mults, exact - 1);
    }

    #[test]
    fn a_panic_while_counting_a_pair_is_a_typed_error() {
        let (mut work, task) = tiny_update_pair();
        // A count table too short for the trace: looking the count up
        // panics inside the pair job.
        work.useful = Box::new([]);
        let mut scratch = SimScratch::new();
        let scnn = ScnnPlus::paper_default();
        let error = run_pair_job(&scnn, &work, task, None, &mut scratch).unwrap_err();
        assert!(
            matches!(&error, AntError::Panic { context, .. } if context == "pair job"),
            "{error}"
        );
        // A machine that reads no count never looks it up.
        let dense = DenseInnerProduct::paper_default();
        run_pair_job(&dense, &work, task, None, &mut scratch).unwrap();
    }

    #[test]
    fn real_model_runs_end_to_end() {
        // Smoke-test a real shape DB (the smallest) through both machines.
        let cfg = ExperimentConfig {
            max_channels: 2,
            ..ExperimentConfig::paper_default()
        };
        let net = models::resnet18_cifar();
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        assert!(scnn.wall_cycles > 0 && ant.wall_cycles > 0);
        assert!(ant.total.rcps_avoided_fraction() > 0.5);
    }
}
