//! Per-kernel microbenchmark harness (`microbench` binary).
//!
//! Whole-run wall time in the bench-history ledger answers "did the build
//! get slower?" but not "*which kernel* got slower?". This module times the
//! simulator's hot kernels in isolation — the same functions the per-pair
//! hot path leans on — over synthesized inputs spanning the sparsity grid,
//! so a ledger regression can be attributed to one kernel instead of
//! bisected by hand:
//!
//! * `bitmask_and_count` / `bitmask_and_assign` — the word-parallel
//!   [`Bitmask`] intersection kernels behind pair pre-screening.
//! * `fnir_scan` — the FNIR kernel-scan walk ([`scan_kernel_into`]) with
//!   bounded ranges, reusing a [`KernelScan`] scratch like the simulator.
//! * `accum_conflict` — banked-accumulator conflict accounting
//!   ([`AccumulatorBanks::conflict_cycles_with`]) with a caller-owned
//!   occupancy buffer.
//! * `csr_compress` — CSR compression of a dense plane
//!   ([`CsrMatrix::from_dense`]), as trained-trace capture does it.
//! * `fingerprint` — once-per-layer content keying for the simulation
//!   cache ([`KeyBuilder::write_csr`] over a ResNet-scale plane).
//! * `useful_count_fwd` / `useful_count_upd` — the exact useful-product
//!   counter the parallel runner's pair jobs run at most once per pair per
//!   op ([`count_useful_products_with`]) on the ResNet-50 stem's forward pair
//!   (the row walk at 90% sparsity) and update pair (the row masks),
//!   reusing one [`NzCounterScratch`] like the runner.
//! * `ant_pair_fwd` / `ant_pair_upd` — ANT's pair on a counted pair
//!   ([`AntAccelerator::simulate_counted_conv_pair`] at the paper
//!   configuration, no accumulator-bank model: the range stage and the
//!   kernel walk) on the same stem operands, reusing one [`SimScratch`]
//!   like a simulator worker.
//! * `synth_layer` — a cold layer's operand synthesis
//!   ([`synthesize_layer`]: the CSR draw of every sampled plane plus the
//!   backward phase's rotated kernels and dilated, padded gradients) for
//!   the ResNet-50 stem and one 56x56 3x3 layer, at the runner's channel
//!   sample.
//!
//! Each bench takes min-of-K batch timings (`std::hint::black_box` on every
//! checksum so nothing folds away) and lands in the ledger as
//! `kernel/<name>/<case>/ns_per_op` plus an informational `_spread`, which
//! `bench_history compare` gates as [`MetricClass::Kernel`] with the
//! [`KERNEL_NOISE_FLOOR`] allowance.
//!
//! [`MetricClass::Kernel`]: crate::history::MetricClass::Kernel
//! [`KERNEL_NOISE_FLOOR`]: crate::history::KERNEL_NOISE_FLOOR

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use ant_conv::efficiency::TrainingPhase;
use ant_conv::rcp::{count_useful_products_with, IndexRange, NzCounterScratch};
use ant_conv::ConvShape;
use ant_core::fnir::Fnir;
use ant_core::range::GroupRanges;
use ant_core::scan::{scan_kernel_into, KernelScan};
use ant_sim::accum::AccumulatorBanks;
use ant_sim::ant::AntAccelerator;
use ant_sim::{ConvSim, SimScratch};
use ant_sparse::{sparsify, Bitmask, CsrMatrix};
use ant_workloads::models::resnet50_imagenet;
use ant_workloads::synth::{synthesize_layer, LayerSparsity};
use ant_workloads::ConvLayerSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fingerprint::KeyBuilder;
use crate::history::HistoryEntry;
use crate::runner::ExperimentConfig;

/// Ledger label every microbench entry carries (the rolling-median baseline
/// in `bench_history compare` only mixes entries with the same label, so
/// kernel timings never blend with fig09 runs).
pub const LABEL: &str = "microbench";

/// Which sparsity points the standard benches synthesize inputs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The tracked grid: 50%, 90%, and 99% sparse inputs.
    Full,
    /// One point (90%) — a seconds-scale smoke grid for CI.
    Tiny,
}

impl Grid {
    /// Parses a CLI label.
    pub fn from_label(label: &str) -> Option<Grid> {
        match label {
            "full" => Some(Grid::Full),
            "tiny" => Some(Grid::Tiny),
            _ => None,
        }
    }

    /// The CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Grid::Full => "full",
            Grid::Tiny => "tiny",
        }
    }

    /// The sparsity points.
    pub fn sparsities(self) -> &'static [f64] {
        match self {
            Grid::Full => &[0.5, 0.9, 0.99],
            Grid::Tiny => &[0.9],
        }
    }
}

/// One isolated kernel benchmark: a name, a case label, and an operation
/// closure returning a checksum (consumed via `black_box` so the work
/// cannot fold away).
pub struct KernelBench {
    kernel: &'static str,
    case: String,
    iters_per_batch: u32,
    runner: Box<dyn FnMut() -> u64>,
}

impl fmt::Debug for KernelBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelBench")
            .field("kernel", &self.kernel)
            .field("case", &self.case)
            .field("iters_per_batch", &self.iters_per_batch)
            .finish_non_exhaustive()
    }
}

/// One bench's timing outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelMeasurement {
    /// Best (minimum over repeats) per-operation time in nanoseconds.
    pub ns_per_op: f64,
    /// Relative min-to-max spread over the repeats — the bench's own noise
    /// estimate, recorded as the `_spread` metric.
    pub spread: f64,
    /// Wrapping sum of every operation's checksum (keeps the optimizer
    /// honest; also a cheap cross-run sanity value for fixed seeds).
    pub checksum: u64,
}

/// One bench's identity plus its measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel name (`bitmask_and_count`, `fnir_scan`, ...).
    pub kernel: &'static str,
    /// Case label (`s90`, ...).
    pub case: String,
    /// The timing.
    pub measurement: KernelMeasurement,
}

impl KernelResult {
    /// The ledger metric name: `kernel/<name>/<case>/ns_per_op`.
    pub fn metric_name(&self) -> String {
        format!("kernel/{}/{}/ns_per_op", self.kernel, self.case)
    }
}

impl KernelBench {
    /// Builds a bench. `iters_per_batch` operations are timed per batch so
    /// sub-microsecond kernels still get a clean clock reading.
    pub fn new(
        kernel: &'static str,
        case: impl Into<String>,
        iters_per_batch: u32,
        runner: Box<dyn FnMut() -> u64>,
    ) -> Self {
        Self {
            kernel,
            case: case.into(),
            iters_per_batch: iters_per_batch.max(1),
            runner,
        }
    }

    /// Kernel name.
    pub fn kernel(&self) -> &'static str {
        self.kernel
    }

    /// Case label.
    pub fn case(&self) -> &str {
        &self.case
    }

    /// Runs one warm-up batch, then `repeats` timed batches, keeping the
    /// minimum per-op time (min-of-K rejects one-sided scheduler noise) and
    /// the min-to-max spread.
    pub fn measure(&mut self, repeats: u32) -> KernelMeasurement {
        let repeats = repeats.max(1);
        let iters = self.iters_per_batch;
        let mut checksum = 0u64;
        let mut batch = |checksum: &mut u64| {
            let started = Instant::now();
            for _ in 0..iters {
                *checksum = checksum.wrapping_add(std::hint::black_box((self.runner)()));
            }
            started.elapsed().as_nanos() as f64 / f64::from(iters)
        };
        // Warm-up: first-touch page faults and cache fills land here.
        let _ = batch(&mut checksum);
        let mut best = f64::INFINITY;
        let mut worst = 0.0f64;
        for _ in 0..repeats {
            let ns = batch(&mut checksum);
            best = best.min(ns);
            worst = worst.max(ns);
        }
        let spread = if best > 0.0 {
            (worst - best) / best
        } else {
            0.0
        };
        KernelMeasurement {
            ns_per_op: best,
            spread,
            checksum,
        }
    }
}

/// Case label for a sparsity point (`0.9` -> `"s90"`).
fn case_label(sparsity: f64) -> String {
    format!("s{:02}", (sparsity * 100.0).round() as u32)
}

/// Deterministic per-(kernel, case) seed so recorded inputs are identical
/// across runs and machines.
fn seed_for(kernel: &str, sparsity: f64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in kernel
        .bytes()
        .chain(((sparsity * 100.0).round() as u32).to_le_bytes())
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The standard bench set: every hot kernel at every grid sparsity.
pub fn standard_benches(grid: Grid) -> Vec<KernelBench> {
    let mut benches = Vec::new();
    for &sparsity in grid.sparsities() {
        let case = case_label(sparsity);

        // Pair pre-screen: AND-popcount of two 128x128 role masks.
        let mut rng = StdRng::seed_from_u64(seed_for("bitmask_and_count", sparsity));
        let a = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        let b = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        benches.push(KernelBench::new(
            "bitmask_and_count",
            case.clone(),
            256,
            Box::new(move || a.and_count_ones(&b) as u64),
        ));

        // In-place mask intersection (idempotent after the warm-up batch,
        // so the steady state times the word loop; the popcount checksum
        // keeps the stores observable).
        let mut rng = StdRng::seed_from_u64(seed_for("bitmask_and_assign", sparsity));
        let mut scratch = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        let other = Bitmask::from_dense(&sparsify::random_with_sparsity(
            128, 128, sparsity, &mut rng,
        ));
        benches.push(KernelBench::new(
            "bitmask_and_assign",
            case.clone(),
            256,
            Box::new(move || {
                scratch.and_assign(&other);
                scratch.count_ones() as u64
            }),
        ));

        // FNIR kernel scan with bounded ranges (middle half of a 64x64
        // kernel), paper-default 4x4 array with a 16-wide window, reusing
        // the KernelScan scratch exactly like the simulator hot path.
        let mut rng = StdRng::seed_from_u64(seed_for("fnir_scan", sparsity));
        let kernel =
            CsrMatrix::from_dense(&sparsify::random_with_sparsity(64, 64, sparsity, &mut rng));
        let ranges = GroupRanges {
            r: IndexRange { min: 16, max: 47 },
            s: IndexRange { min: 16, max: 47 },
            ops: Default::default(),
        };
        let fnir = Fnir::new(4, 16).unwrap_or_else(|_| unreachable!("non-zero parameters"));
        let mut scan = KernelScan::default();
        benches.push(KernelBench::new(
            "fnir_scan",
            case.clone(),
            64,
            Box::new(move || {
                scan_kernel_into(&kernel, &ranges, &fnir, &mut scan);
                scan.value_reads + scan.cycles + scan.colidx_reads
            }),
        ));

        // Accumulator bank conflicts for one multiplier-array cycle: the
        // valid-product count shrinks with sparsity (a 4x4 array emits up
        // to 16 products per cycle when dense).
        let mut rng = StdRng::seed_from_u64(seed_for("accum_conflict", sparsity));
        let banks = AccumulatorBanks::scnn_provisioned(4);
        let products = ((16.0 * (1.0 - sparsity)).round() as usize).max(1);
        let indices: Vec<usize> = (0..products).map(|_| rng.gen_range(0..1024)).collect();
        let mut counts: Vec<u32> = Vec::new();
        benches.push(KernelBench::new(
            "accum_conflict",
            case.clone(),
            512,
            Box::new(move || banks.conflict_cycles_with(&indices, &mut counts)),
        ));

        // CSR compression of a 64x64 dense plane.
        let mut rng = StdRng::seed_from_u64(seed_for("csr_compress", sparsity));
        let dense = sparsify::random_with_sparsity(64, 64, sparsity, &mut rng);
        benches.push(KernelBench::new(
            "csr_compress",
            case.clone(),
            64,
            Box::new(move || CsrMatrix::from_dense(&dense).nnz() as u64),
        ));

        // Content fingerprinting of a ResNet-scale CSR plane (256x256 ~ a
        // flattened mid-network weight plane): the once-per-layer keying
        // cost the simulation cache (`ANT_CACHE`) pays before it can skip a
        // layer, timed over the same [`KeyBuilder`] path the runner uses.
        let mut rng = StdRng::seed_from_u64(seed_for("fingerprint", sparsity));
        let plane = CsrMatrix::from_dense(&sparsify::random_with_sparsity(
            256, 256, sparsity, &mut rng,
        ));
        benches.push(KernelBench::new(
            "fingerprint",
            case.clone(),
            64,
            Box::new(move || {
                let mut key = KeyBuilder::default();
                key.write_str("microbench-fingerprint");
                key.write_csr(&plane);
                let key = key.finish();
                key.hi ^ key.lo
            }),
        ));

        for (kernel_name, shape, iters) in [
            ("useful_count_fwd", stem_forward(), 16),
            ("useful_count_upd", stem_update(), 8),
        ] {
            let (kernel, image) = stem_operands(kernel_name, &shape, sparsity);
            let mut scratch = NzCounterScratch::new();
            benches.push(KernelBench::new(
                kernel_name,
                case.clone(),
                iters,
                Box::new(move || count_useful_products_with(&kernel, &image, &shape, &mut scratch)),
            ));
        }

        for (kernel_name, operands, shape, iters) in [
            ("ant_pair_fwd", "useful_count_fwd", stem_forward(), 16),
            ("ant_pair_upd", "useful_count_upd", stem_update(), 4),
        ] {
            let (kernel, image) = stem_operands(operands, &shape, sparsity);
            let ant = AntAccelerator::paper_default();
            let mut scratch = SimScratch::new();
            let useful =
                count_useful_products_with(&kernel, &image, &shape, &mut scratch.nz_counter);
            benches.push(KernelBench::new(
                kernel_name,
                case.clone(),
                iters,
                Box::new(move || {
                    let stats = ant.simulate_counted_conv_pair(
                        &kernel,
                        &image,
                        &shape,
                        useful,
                        &mut scratch,
                    );
                    stats.mults ^ stats.pe_cycles
                }),
            ));
        }

        // One op synthesizes both layers from a fixed seed, so every op
        // draws the same planes.
        let layers = synth_layers();
        let max_channels = ExperimentConfig::paper_default().max_channels;
        let seed = seed_for("synth_layer", sparsity);
        benches.push(KernelBench::new(
            "synth_layer",
            case.clone(),
            2,
            Box::new(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let sparsity = LayerSparsity::uniform(sparsity);
                layers
                    .iter()
                    .map(|layer| {
                        let trace =
                            synthesize_layer(layer, &sparsity, max_channels, &mut rng).trace;
                        let (kernel, image, _) = trace.pair(TrainingPhase::Backward, 0, 0);
                        (kernel.nnz() + image.nnz() + trace.activation(0).nnz()) as u64
                    })
                    .sum()
            }),
        ));
    }
    benches
}

/// The `synth_layer` bench's layers: ResNet-50's 7x7 stride-2 stem over
/// 224x224, and its first 3x3 layer over 56x56.
fn synth_layers() -> Vec<ConvLayerSpec> {
    let net = resnet50_imagenet();
    let first_56 = net
        .layers
        .iter()
        .find(|l| l.input_h == 56 && l.kernel_h == 3)
        .cloned();
    net.layers
        .first()
        .cloned()
        .into_iter()
        .chain(first_56)
        .collect()
}

/// The ResNet-50 stem's forward pair shape: a 7x7 kernel at stride 2 over
/// the 224x224 input padded to 230x230.
fn stem_forward() -> ConvShape {
    ConvShape::new(7, 7, 230, 230, 2).unwrap_or_else(|_| unreachable!("valid stem shape"))
}

/// The ResNet-50 stem's update pair shape: the 112x112 `G_A` dilated by
/// the forward stride, with the forward kernel's 7x7 extent as output.
fn stem_update() -> ConvShape {
    ConvShape::with_output(112, 112, 230, 230, 1, 2, 7, 7)
        .unwrap_or_else(|_| unreachable!("valid stem shape"))
}

/// Seeded kernel and image operands for a `useful_count_*` bench. Each
/// plane keeps at least one non-zero: at 99% the 7x7 stem kernel rounds
/// to none, and an empty operand times an early return.
fn stem_operands(kernel_name: &str, shape: &ConvShape, sparsity: f64) -> (CsrMatrix, CsrMatrix) {
    let mut rng = StdRng::seed_from_u64(seed_for(kernel_name, sparsity));
    let mut plane = |rows: usize, cols: usize| {
        let nnz = ((1.0 - sparsity) * (rows * cols) as f64).round() as usize;
        sparsify::random_csr_with_nnz(rows, cols, nnz.max(1), &mut rng)
    };
    let kernel = plane(shape.kernel_h(), shape.kernel_w());
    let image = plane(shape.image_h(), shape.image_w());
    (kernel, image)
}

/// Measures every bench (with an optional name filter applied first).
pub fn run_benches(benches: Vec<KernelBench>, repeats: u32) -> Vec<KernelResult> {
    benches
        .into_iter()
        .map(|mut bench| {
            let measurement = bench.measure(repeats);
            KernelResult {
                kernel: bench.kernel,
                case: bench.case,
                measurement,
            }
        })
        .collect()
}

/// Folds measured results into one ledger entry (label [`LABEL`]): a
/// `.../ns_per_op` metric plus its informational `.../ns_per_op_spread`
/// noise floor per bench.
pub fn entry_from(results: &[KernelResult], repeats: u32) -> HistoryEntry {
    let mut metrics = BTreeMap::new();
    for r in results {
        let name = r.metric_name();
        metrics.insert(format!("{name}_spread"), r.measurement.spread);
        metrics.insert(name, r.measurement.ns_per_op);
    }
    HistoryEntry {
        label: LABEL.to_string(),
        git_revision: ant_obs::git_revision(),
        timestamp_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        repeats: repeats.max(1),
        metrics,
    }
}

/// Runs the standard set at `grid` and builds its ledger entry — the
/// `microbench` binary's record path.
pub fn record(grid: Grid, repeats: u32) -> (Vec<KernelResult>, HistoryEntry) {
    let results = run_benches(standard_benches(grid), repeats);
    let entry = entry_from(&results, repeats);
    (results, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{self, compare, MetricClass, DEFAULT_THRESHOLD};
    use ant_conv::rcp::{useful_count_path, UsefulCountPath};

    #[test]
    fn standard_benches_cover_every_kernel_at_every_point() {
        for (grid, points) in [(Grid::Full, 3), (Grid::Tiny, 1)] {
            let benches = standard_benches(grid);
            assert_eq!(benches.len(), 11 * points);
            let names: std::collections::BTreeSet<String> = benches
                .iter()
                .map(|b| format!("{}/{}", b.kernel(), b.case()))
                .collect();
            assert_eq!(names.len(), benches.len(), "bench names must be unique");
            for kernel in [
                "bitmask_and_count",
                "bitmask_and_assign",
                "fnir_scan",
                "accum_conflict",
                "csr_compress",
                "fingerprint",
                "useful_count_fwd",
                "useful_count_upd",
                "ant_pair_fwd",
                "ant_pair_upd",
                "synth_layer",
            ] {
                assert_eq!(
                    benches.iter().filter(|b| b.kernel() == kernel).count(),
                    points,
                    "{kernel} must appear once per grid point"
                );
            }
        }
        // At the tracked 90% point the two counter benches time the two
        // sides of the counter's path rule.
        for (kernel_name, shape, path) in [
            ("useful_count_fwd", stem_forward(), UsefulCountPath::RowWalk),
            ("useful_count_upd", stem_update(), UsefulCountPath::RowMasks),
        ] {
            let (kernel, image) = stem_operands(kernel_name, &shape, 0.9);
            assert_eq!(
                useful_count_path(kernel.nnz(), image.nnz(), &shape),
                path,
                "{kernel_name}"
            );
        }
    }

    #[test]
    fn stem_benches_time_non_empty_operands_at_every_point() {
        for &sparsity in Grid::Full.sparsities() {
            for (bench, operands, shape) in [
                ("useful_count_fwd", "useful_count_fwd", stem_forward()),
                ("useful_count_upd", "useful_count_upd", stem_update()),
                ("ant_pair_fwd", "useful_count_fwd", stem_forward()),
                ("ant_pair_upd", "useful_count_upd", stem_update()),
            ] {
                let (kernel, image) = stem_operands(operands, &shape, sparsity);
                let case = case_label(sparsity);
                assert!(kernel.nnz() > 0, "{bench}/{case} times an empty kernel");
                assert!(image.nnz() > 0, "{bench}/{case} times an empty image");
            }
        }
    }

    #[test]
    fn synth_layer_times_the_stem_and_a_56x56_layer() {
        let layers = synth_layers();
        let dims: Vec<_> = layers
            .iter()
            .map(|l| (l.kernel_h, l.input_h, l.stride))
            .collect();
        assert_eq!(dims, [(7, 224, 2), (3, 56, 1)]);
    }

    #[test]
    fn tiny_grid_measures_and_builds_a_ledger_entry() {
        let (results, entry) = record(Grid::Tiny, 2);
        assert_eq!(results.len(), 11);
        for r in &results {
            assert!(
                r.measurement.ns_per_op > 0.0,
                "{} must take measurable time",
                r.metric_name()
            );
            assert!(r.measurement.spread >= 0.0);
        }
        assert_eq!(entry.label, LABEL);
        assert_eq!(entry.metrics.len(), 22); // ns_per_op + _spread per bench
        for r in &results {
            let name = r.metric_name();
            assert_eq!(entry.metrics[&name], r.measurement.ns_per_op);
            assert_eq!(history::classify(&name), MetricClass::Kernel);
            assert_eq!(
                history::classify(&format!("{name}_spread")),
                MetricClass::InfoOnly
            );
        }
        // The entry survives the ledger line format.
        let parsed = HistoryEntry::parse(&entry.to_json_line()).expect("round trip");
        assert_eq!(parsed, entry);
    }

    #[test]
    fn fixed_seed_inputs_give_identical_checksums() {
        let take = |grid| {
            run_benches(standard_benches(grid), 1)
                .into_iter()
                .map(|r| (r.metric_name(), r.measurement.checksum))
                .collect::<Vec<_>>()
        };
        assert_eq!(take(Grid::Tiny), take(Grid::Tiny));
    }

    /// A `busy_wait/x1` result with a fixed timing. The ledger path under
    /// test sees exactly these numbers however loaded the machine is, so
    /// the verdict cannot flip with the wall clock.
    fn busy_result(ns_per_op: f64) -> KernelResult {
        KernelResult {
            kernel: "busy_wait",
            case: "x1".to_string(),
            measurement: KernelMeasurement {
                ns_per_op,
                spread: 0.02,
                checksum: 0,
            },
        }
    }

    #[test]
    fn slowed_kernel_is_flagged_through_the_real_ledger_path() {
        // Record a fast baseline and a 20x-slowed candidate through the
        // actual append/load/compare pipeline; the regression must surface
        // under the "kernel" class, attributed by metric name.
        let dir = std::env::temp_dir().join(format!("ant_microbench_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ledger = dir.join("ledger.jsonl");

        let base = entry_from(&[busy_result(1_000.0)], 3);
        let slow = entry_from(&[busy_result(20_000.0)], 3);
        history::append(&ledger, &base).expect("append baseline");
        history::append(&ledger, &slow).expect("append candidate");

        let (entries, skipped) = history::load(&ledger).expect("load ledger");
        assert_eq!((entries.len(), skipped), (2, 0));
        let report = compare(&entries[0], &entries[1], DEFAULT_THRESHOLD);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "exactly the slowed kernel regresses");
        assert_eq!(regs[0].name, "kernel/busy_wait/x1/ns_per_op");
        assert_eq!(regs[0].class, MetricClass::Kernel);
        assert_eq!(regs[0].class.name(), "kernel");
        assert!(regs[0].rel_change > history::KERNEL_NOISE_FLOOR);
        // The machine-readable report carries the same verdict.
        let json = ant_obs::parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(json.get("regressed").and_then(|b| b.as_bool()), Some(true));

        // The reverse direction is an improvement, not a regression.
        let reversed = compare(&entries[1], &entries[0], DEFAULT_THRESHOLD);
        assert!(!reversed.has_regressions());
        assert!(reversed.deltas.iter().any(|d| d.improved));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
