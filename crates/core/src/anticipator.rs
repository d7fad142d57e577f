//! High-level anticipator facade: a full convolution or matmul run through
//! the ANT hardware blocks (ranges → kernel scan → multiplier), with
//! complete operation accounting.
//!
//! This is the library entry point for downstream users; the cycle/energy
//! simulator in `ant-sim` composes the same pieces with pipeline and
//! multi-PE modelling on top.
//!
//! Conv and matmul each have two paths over one range stage and one kernel
//! walk. The functional path ([`Anticipator::run_conv_with`],
//! [`Anticipator::run_matmul_with`] and the allocating entry points over
//! them) computes the output, streams every selected kernel element and
//! classifies each executed product. The counters-only path
//! ([`Anticipator::run_conv_counters`], [`Anticipator::run_matmul_counters`])
//! returns exactly the same [`AntCounters`] without the output: it counts
//! selections per group and takes the useful products from an exact
//! counter, since ANT executes every valid product.

use ant_conv::matmul::MatmulShape;
use ant_conv::rcp::IndexRange;
use ant_conv::{ConvError, ConvShape};
use ant_sparse::{CsrMatrix, DenseMatrix};

use crate::fnir::Fnir;
use crate::range::{compute_matmul_r_range, compute_ranges, GroupRanges};
use crate::scan::{
    scan_kernel, scan_kernel_into, scan_kernel_matmul_into, stream_kernel_matmul, walk_kernel,
    KernelScan,
};

/// ANT PE configuration (paper Table 4 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntConfig {
    /// Multiplier array dimension `n` (array is `n x n`).
    pub n: usize,
    /// FNIR window width `k`.
    pub k: usize,
    /// Apply the `r` (row-range) condition — disable for the Fig. 14
    /// ablation.
    pub use_r: bool,
    /// Apply the `s` (column-range / FNIR) condition — disable for the
    /// Fig. 14 ablation.
    pub use_s: bool,
}

impl AntConfig {
    /// Index width in bits of the hardware's index datapath
    /// (paper Table 4: 8-bit indices).
    pub const INDEX_BITS: u32 = 8;

    /// The paper's default configuration: 4x4 multiplier array, k = 16.
    pub fn paper_default() -> Self {
        Self {
            n: 4,
            k: 16,
            use_r: true,
            use_s: true,
        }
    }

    /// Whether a convolution's dimensions fit the 8-bit index datapath —
    /// every row/column coordinate of both operands must be representable
    /// (larger planes must be tiled first; see `ant-sim`'s partitioning and
    /// tiling modules).
    pub fn supports_conv(&self, shape: &ant_conv::ConvShape) -> bool {
        let limit = 1usize << Self::INDEX_BITS;
        shape.kernel_h() <= limit
            && shape.kernel_w() <= limit
            && shape.image_h() <= limit
            && shape.image_w() <= limit
    }
}

impl Default for AntConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Aggregate operation counters for an anticipator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AntCounters {
    /// Image groups processed (each held stationary across a kernel scan).
    pub groups: u64,
    /// Kernel-scan cycles (one FNIR window per cycle).
    pub scan_cycles: u64,
    /// Cycles in which the multiplier array was active.
    pub mult_cycles: u64,
    /// Multiplications executed (`selected kernel elements x group size`).
    pub multiplications: u64,
    /// Executed multiplications that contributed to a valid output.
    pub useful: u64,
    /// Executed multiplications that were RCPs anyway (residual of the
    /// conservative vector test).
    pub rcps_executed: u64,
    /// Non-zero pairs never multiplied thanks to anticipation.
    pub rcps_skipped: u64,
    /// All non-zero kernel/image pairs (`nnz_k * nnz_i`).
    pub pairs_total: u64,
    /// Row-pointer SRAM reads (kernel).
    pub rowptr_reads: u64,
    /// Columns-array SRAM reads (kernel).
    pub colidx_reads: u64,
    /// Values-array SRAM reads (kernel).
    pub value_reads: u64,
    /// Image value + index SRAM reads.
    pub image_reads: u64,
    /// FNIR comparator operations.
    pub fnir_comparator_ops: u64,
    /// Range-computation comparator/adder operations.
    pub range_ops: u64,
    /// Output-index computations (one per executed multiplication).
    pub output_index_ops: u64,
    /// Output accumulator buffer updates (one per useful product).
    pub accumulator_writes: u64,
}

impl AntCounters {
    /// Fraction of RCPs eliminated (paper Table 5 metric). 1.0 when the
    /// cartesian product contained no RCPs.
    pub fn rcps_avoided_fraction(&self) -> f64 {
        let total_rcps = self.rcps_skipped + self.rcps_executed;
        if total_rcps == 0 {
            1.0
        } else {
            self.rcps_skipped as f64 / total_rcps as f64
        }
    }

    /// The anticipation-efficacy view of these counters: how tight the
    /// conservative vector ranges (Alg. 2) came to the ideal per-element
    /// anticipation (Alg. 1), expressed in products admitted to the
    /// multiplier array. See [`AnticipationEfficacy`].
    pub fn efficacy(&self) -> AnticipationEfficacy {
        AnticipationEfficacy {
            conservative_window: self.multiplications,
            ideal_window: self.useful,
            false_negatives: self.rcps_executed,
            anticipated: self.rcps_skipped,
        }
    }

    /// Merges another run's counters into this one.
    pub fn accumulate(&mut self, other: &AntCounters) {
        self.groups += other.groups;
        self.scan_cycles += other.scan_cycles;
        self.mult_cycles += other.mult_cycles;
        self.multiplications += other.multiplications;
        self.useful += other.useful;
        self.rcps_executed += other.rcps_executed;
        self.rcps_skipped += other.rcps_skipped;
        self.pairs_total += other.pairs_total;
        self.rowptr_reads += other.rowptr_reads;
        self.colidx_reads += other.colidx_reads;
        self.value_reads += other.value_reads;
        self.image_reads += other.image_reads;
        self.fnir_comparator_ops += other.fnir_comparator_ops;
        self.range_ops += other.range_ops;
        self.output_index_ops += other.output_index_ops;
        self.accumulator_writes += other.accumulator_writes;
    }
}

/// How close the conservative group ranges (paper Alg. 2) came to ideal
/// per-element anticipation (paper Alg. 1), measured in products admitted
/// to the multiplier array.
///
/// Alg. 1 would admit exactly the useful products; the n-element group
/// ranges are conservative, so the FNIR scan admits a superset — the
/// difference is the RCPs that slip through (`false_negatives` of the
/// anticipation test) and still execute. Every product the workload
/// contains is accounted for exactly once:
/// `conservative_window + anticipated == pairs_total` and
/// `conservative_window == ideal_window + false_negatives`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnticipationEfficacy {
    /// Products the conservative Alg. 2 window admitted (multiplications
    /// executed).
    pub conservative_window: u64,
    /// Products the ideal Alg. 1 window would admit (useful
    /// multiplications).
    pub ideal_window: u64,
    /// RCPs the conservative window failed to anticipate (admitted and
    /// executed anyway).
    pub false_negatives: u64,
    /// Non-zero products anticipated as redundant and never executed.
    pub anticipated: u64,
}

impl AnticipationEfficacy {
    /// Ideal-to-conservative window ratio in `[0, 1]`: 1.0 means the
    /// conservative ranges admitted only useful products (as tight as
    /// Alg. 1); lower values mean more false negatives executed. 1.0 when
    /// nothing was admitted.
    pub fn tightness(&self) -> f64 {
        if self.conservative_window == 0 {
            1.0
        } else {
            self.ideal_window as f64 / self.conservative_window as f64
        }
    }
}

/// Result of an anticipator run: functional output plus counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AntRun {
    /// The accumulated output matrix.
    pub output: DenseMatrix,
    /// Operation accounting.
    pub counters: AntCounters,
}

/// Reusable working memory for the scratch entry points of
/// [`Anticipator`]: [`Anticipator::run_conv_with`],
/// [`Anticipator::run_matmul_with`] and their counters-only twins
/// [`Anticipator::run_conv_counters`] and
/// [`Anticipator::run_matmul_counters`].
///
/// One scratch per worker: after the first pair warms its buffers up to the
/// largest shapes seen, subsequent pairs run without any heap allocation.
/// The scratch may be shared across anticipator configurations, operand
/// shapes and entry points — every run fully re-initializes the state it
/// reads. Results are bit-identical to the allocating entry points.
#[derive(Debug, Clone)]
pub struct AntScratch {
    /// The scanned operand's non-zeros, in group order.
    entries: Vec<(usize, usize, f32)>,
    /// Coordinate view of the current group (range-computation input).
    coords: Vec<(usize, usize)>,
    /// Per-group range table, precomputed once per pair.
    ranges: Vec<GroupRanges>,
    /// Kernel-scan result buffer.
    scan: KernelScan,
    /// Flat output indices of the current multiplier cycle's valid products.
    cycle_outputs: Vec<usize>,
    /// The accumulated output matrix (valid after a functional run).
    output: DenseMatrix,
}

impl AntScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            coords: Vec::new(),
            ranges: Vec::new(),
            scan: KernelScan::default(),
            cycle_outputs: Vec::new(),
            output: DenseMatrix::zeros(1, 1),
        }
    }

    /// The output matrix accumulated by the most recent functional run
    /// (the counters-only entry points leave it untouched).
    pub fn output(&self) -> &DenseMatrix {
        &self.output
    }
}

impl Default for AntScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The ANT anticipator: orchestrates the range computation, kernel scan,
/// and multiplier bookkeeping for convolutions and matrix multiplications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anticipator {
    config: AntConfig,
    fnir: Fnir,
}

impl Anticipator {
    /// Creates an anticipator with the given PE configuration.
    ///
    /// # Panics
    ///
    /// Panics if either FNIR parameter (`config.n`, `config.k`) is zero.
    /// Use [`Anticipator::try_new`] for a fallible constructor.
    pub fn new(config: AntConfig) -> Self {
        Self::try_new(config).expect("valid FNIR parameters")
    }

    /// Creates an anticipator, rejecting unusable FNIR parameters with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AntError::InvalidConfig`] when either FNIR parameter
    /// (`config.n`, `config.k`) is zero.
    pub fn try_new(config: AntConfig) -> Result<Self, crate::AntError> {
        let fnir = Fnir::new(config.n, config.k).map_err(|e| {
            crate::AntError::invalid_config("fnir", format!("n={} k={}: {e}", config.n, config.k))
        })?;
        Ok(Self { config, fnir })
    }

    /// The configuration in use.
    pub fn config(&self) -> AntConfig {
        self.config
    }

    /// Runs a sparse convolution through the ANT pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_conv(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> Result<AntRun, ConvError> {
        self.run_conv_observed(kernel, image, shape, |_| {})
    }

    /// Like [`Anticipator::run_conv`], but invokes `observer` once per
    /// multiplier-array cycle with the flat output indices
    /// (`out_y * W_out + out_x`) of that cycle's *valid* products.
    ///
    /// This is the hook for microarchitectural studies downstream of the
    /// multiplier — e.g. accumulator bank-conflict modelling (the paper's
    /// Section 6.1 assumes the accumulator never stalls; `ant-sim`'s
    /// `AccumulatorBanks` uses this to test that assumption).
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_conv_observed(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        observer: impl FnMut(&[usize]),
    ) -> Result<AntRun, ConvError> {
        let mut scratch = AntScratch::new();
        let counters = self.run_conv_with(kernel, image, shape, &mut scratch, observer)?;
        Ok(AntRun {
            output: scratch.output,
            counters,
        })
    }

    /// Like [`Anticipator::run_conv_observed`], but runs entirely inside a
    /// caller-owned [`AntScratch`] — the steady-state-allocation-free hot
    /// path. The accumulated output stays in the scratch
    /// ([`AntScratch::output`]); counters and output are bit-identical to
    /// [`Anticipator::run_conv_observed`].
    ///
    /// The per-group [`GroupRanges`] table is precomputed once per pair
    /// (with the Fig. 14 ablation overrides already applied) before the
    /// kernel scans start, mirroring how the hardware's range stage runs
    /// ahead of the FNIR scan.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_conv_with(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut AntScratch,
        mut observer: impl FnMut(&[usize]),
    ) -> Result<AntCounters, ConvError> {
        check_conv_shapes(kernel, image, shape)?;
        scratch.output.reset_zeroed(shape.out_h(), shape.out_w());
        let mut counters = self.conv_group_ranges(kernel, image, shape, scratch);
        for (group, ranges) in scratch.entries.chunks(self.config.n).zip(&scratch.ranges) {
            scan_kernel_into(kernel, ranges, &self.fnir, &mut scratch.scan);
            consume_scan(
                &scratch.scan,
                group,
                shape,
                &mut scratch.output,
                &mut counters,
                &mut scratch.cycle_outputs,
                &mut observer,
            );
        }
        counters.rcps_skipped = counters.pairs_total - counters.multiplications;
        Ok(counters)
    }

    /// The counters of [`Anticipator::run_conv_with`], exactly, without the
    /// functional convolution: no output is accumulated (the scratch's
    /// output is left untouched), no selected kernel element is
    /// materialized and no output index is computed.
    ///
    /// The range stage and the kernel walk are the ones
    /// [`Anticipator::run_conv_with`] runs; the walk counts each group's
    /// selections, so `multiplications` (and `output_index_ops`) grow by
    /// selections × group size. ANT executes every valid product (the
    /// group ranges are conservative and the FNIR feedback never skips an
    /// in-range index), so `useful` is the pair's exact useful-product
    /// count, which the caller passes in (what
    /// [`count_useful_products_with`] returns for these operands; a caller
    /// that counted the pair for another machine hands the same count
    /// over): `accumulator_writes` equals it and `rcps_executed` is the
    /// rest of the multiplications.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    ///
    /// [`count_useful_products_with`]: ant_conv::rcp::count_useful_products_with
    pub fn run_conv_counters(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        useful: u64,
        scratch: &mut AntScratch,
    ) -> Result<AntCounters, ConvError> {
        check_conv_shapes(kernel, image, shape)?;
        let mut counters = self.conv_group_ranges(kernel, image, shape, scratch);
        for (group, ranges) in scratch.entries.chunks(self.config.n).zip(&scratch.ranges) {
            walk_kernel(kernel, ranges, &self.fnir, &mut scratch.scan, |_, _| {});
            add_scan(&mut counters, &scratch.scan);
            counters.multiplications += scratch.scan.value_reads * group.len() as u64;
        }
        Ok(finish_counters(counters, useful))
    }

    /// The range stage of a conv pair, shared by both conv paths: splits
    /// the image's non-zeros into `n`-element groups in CSR order
    /// (`scratch.entries`) and precomputes one [`GroupRanges`] per group
    /// (`scratch.ranges`) with the Fig. 14 ablation overrides applied, the
    /// way the hardware's range stage runs ahead of the FNIR scan. Returns
    /// the pair's counters with `pairs_total` and what this stage and the
    /// stationary image account: `groups`, `image_reads` and `range_ops`.
    fn conv_group_ranges(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut AntScratch,
    ) -> AntCounters {
        let mut counters = AntCounters {
            pairs_total: kernel.nnz() as u64 * image.nnz() as u64,
            ..AntCounters::default()
        };
        scratch.entries.clear();
        scratch.entries.extend(image.iter());
        scratch.ranges.clear();
        for group in scratch.entries.chunks(self.config.n) {
            scratch.coords.clear();
            scratch.coords.extend(group.iter().map(|&(y, x, _)| (y, x)));
            let mut ranges = compute_ranges(shape, &scratch.coords);
            counters.groups += 1;
            counters.image_reads += 2 * group.len() as u64; // value + index
            counters.range_ops += ranges.ops.comparisons + ranges.ops.additions;
            if !self.config.use_r {
                ranges.r = IndexRange {
                    min: 0,
                    max: shape.kernel_h() as i64 - 1,
                };
            }
            if !self.config.use_s {
                ranges.s = IndexRange {
                    min: i64::MIN,
                    max: i64::MAX,
                };
            }
            scratch.ranges.push(ranges);
        }
        counters
    }

    /// Runs a sparse convolution in the kernel-stationary dataflow
    /// (paper Section 4.6): `n` kernel elements are held stationary while
    /// the *image* CSR is scanned, with the Image and Kernel buffer roles
    /// swapped and the range computations producing `x`/`y` ranges.
    ///
    /// Functionally identical to [`Anticipator::run_conv`]; the counters
    /// differ because the scanned operand differs.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_conv_kernel_stationary(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> Result<AntRun, ConvError> {
        check_conv_shapes(kernel, image, shape)?;
        let mut output = DenseMatrix::zeros(shape.out_h(), shape.out_w());
        let mut counters = AntCounters {
            pairs_total: kernel.nnz() as u64 * image.nnz() as u64,
            ..AntCounters::default()
        };
        let entries: Vec<(usize, usize, f32)> = kernel.iter().collect();
        for group in entries.chunks(self.config.n) {
            counters.groups += 1;
            counters.image_reads += 2 * group.len() as u64; // stationary side
            let coords: Vec<(usize, usize)> = group.iter().map(|&(r, s, _)| (r, s)).collect();
            let mut ranges = crate::dataflow::compute_image_ranges(shape, &coords);
            counters.range_ops += ranges.ops.comparisons + ranges.ops.additions;
            if !self.config.use_r {
                ranges.r = IndexRange {
                    min: 0,
                    max: shape.image_h() as i64 - 1,
                };
            }
            if !self.config.use_s {
                ranges.s = IndexRange {
                    min: i64::MIN,
                    max: i64::MAX,
                };
            }
            let scan = scan_kernel(image, &ranges, &self.fnir);
            counters.scan_cycles += scan.cycles;
            counters.mult_cycles += scan.mult_cycles;
            counters.rowptr_reads += scan.rowptr_reads;
            counters.colidx_reads += scan.colidx_reads;
            counters.value_reads += scan.value_reads;
            counters.fnir_comparator_ops += scan.fnir_comparator_ops;
            for entry in &scan.selected {
                // entry is an image element (y = entry.r, x = entry.s).
                for &(r, s, kv) in group {
                    counters.multiplications += 1;
                    counters.output_index_ops += 1;
                    if let Some((ox, oy)) = shape.output_index(entry.s, entry.r, s, r) {
                        output[(oy, ox)] += entry.value * kv;
                        counters.useful += 1;
                        counters.accumulator_writes += 1;
                    } else {
                        counters.rcps_executed += 1;
                    }
                }
            }
        }
        counters.rcps_skipped = counters.pairs_total - counters.multiplications;
        Ok(AntRun { output, counters })
    }

    /// Runs a sparse convolution in an output-stationary dataflow — the
    /// variant the paper sketches and defers ("output stationary dataflow
    /// on sparse matrices is challenging since output indices are calculated
    /// on the fly ... beyond the scope of this work", Section 4.6).
    ///
    /// Realization: each output element gathers its contributions by
    /// probing, for every non-zero kernel element, whether the matching
    /// image element exists (a CSR row binary search). No RCPs are ever
    /// *executed* — the gather only touches valid coordinates — but the
    /// probe traffic replaces them: `nnz(kernel) * H_out * W_out` index
    /// probes, most of which miss at high sparsity. The counters make that
    /// trade visible; this is why the paper's choice of input-stationary
    /// anticipation is the better design point.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_conv_output_stationary(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> Result<AntRun, ConvError> {
        check_conv_shapes(kernel, image, shape)?;
        let mut output = DenseMatrix::zeros(shape.out_h(), shape.out_w());
        let mut counters = AntCounters {
            pairs_total: kernel.nnz() as u64 * image.nnz() as u64,
            ..AntCounters::default()
        };
        let (stride, dil) = (shape.stride(), shape.dilation());
        let kernel_entries: Vec<(usize, usize, f32)> = kernel.iter().collect();
        for oy in 0..shape.out_h() {
            for ox in 0..shape.out_w() {
                counters.groups += 1;
                let mut gathered = 0u64;
                let mut acc = 0.0f32;
                for &(r, s, kv) in &kernel_entries {
                    let y = oy * stride + dil * r;
                    let x = ox * stride + dil * s;
                    // CSR probe: one row-pointer read + binary search over
                    // the row's column indices.
                    counters.rowptr_reads += 2;
                    let (cols, vals) = image.row_entries(y);
                    let steps = (cols.len().max(1)).ilog2() as u64 + 1;
                    counters.colidx_reads += steps;
                    counters.range_ops += steps;
                    if let Ok(i) = cols.binary_search(&x) {
                        counters.value_reads += 2; // kernel + image value
                        counters.multiplications += 1;
                        counters.useful += 1;
                        counters.output_index_ops += 1;
                        acc += kv * vals[i];
                        gathered += 1;
                    }
                }
                // The n x n array consumes gathered products n^2 at a time.
                counters.scan_cycles += gathered
                    .div_ceil((self.config.n * self.config.n) as u64)
                    .max(1);
                if gathered > 0 {
                    counters.mult_cycles += 1;
                    counters.accumulator_writes += 1;
                }
                output[(oy, ox)] = acc;
            }
        }
        counters.rcps_skipped = counters.pairs_total - counters.multiplications;
        Ok(AntRun { output, counters })
    }

    /// Runs a sparse matrix multiplication through the ANT pipeline
    /// (paper Section 5): the `r` range becomes `[x_0, x_{n-1}]`
    /// (Eq. 15), the FNIR stage is bypassed, and validity is `r == x`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_matmul(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
    ) -> Result<AntRun, ConvError> {
        let mut scratch = AntScratch::new();
        let counters = self.run_matmul_with(image, kernel, shape, &mut scratch)?;
        Ok(AntRun {
            output: scratch.output,
            counters,
        })
    }

    /// Like [`Anticipator::run_matmul`], but runs entirely inside a
    /// caller-owned [`AntScratch`] (see [`Anticipator::run_conv_with`] for
    /// the reuse contract). Counters and output are bit-identical to
    /// [`Anticipator::run_matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_matmul_with(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut AntScratch,
    ) -> Result<AntCounters, ConvError> {
        check_matmul_shapes(image, kernel, shape)?;
        scratch
            .output
            .reset_zeroed(shape.image_h(), shape.kernel_s());
        let mut counters = self.matmul_group_ranges(kernel, image, scratch);
        for (group, ranges) in scratch.entries.chunks(self.config.n).zip(&scratch.ranges) {
            scan_kernel_matmul_into(kernel, ranges.r, self.config.n, &mut scratch.scan);
            add_scan(&mut counters, &scratch.scan);
            for entry in &scratch.scan.selected {
                for &(y, x, iv) in group {
                    counters.multiplications += 1;
                    counters.output_index_ops += 1;
                    if shape.is_valid_product(x, entry.r) {
                        scratch.output[(y, entry.s)] += iv * entry.value;
                        counters.useful += 1;
                        counters.accumulator_writes += 1;
                    } else {
                        counters.rcps_executed += 1;
                    }
                }
            }
        }
        counters.rcps_skipped = counters.pairs_total - counters.multiplications;
        Ok(counters)
    }

    /// The counters of [`Anticipator::run_matmul_with`], exactly, without
    /// the functional product (see [`Anticipator::run_conv_counters`]).
    /// Each group's stream is closed-form: every element of the kernel rows
    /// inside its `r` range streams, `n` per cycle. `useful` is the valid
    /// products' count, `Σ_r row_len(r) × col_nnz(r)` (`r == x`), taken as
    /// one kernel row length per image non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::OperandShapeMismatch`] when operands disagree
    /// with `shape`.
    pub fn run_matmul_counters(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut AntScratch,
    ) -> Result<AntCounters, ConvError> {
        check_matmul_shapes(image, kernel, shape)?;
        let mut counters = self.matmul_group_ranges(kernel, image, scratch);
        for (group, ranges) in scratch.entries.chunks(self.config.n).zip(&scratch.ranges) {
            stream_kernel_matmul(kernel, ranges.r, self.config.n, &mut scratch.scan);
            add_scan(&mut counters, &scratch.scan);
            counters.multiplications += scratch.scan.value_reads * group.len() as u64;
        }
        let useful = scratch
            .entries
            .iter()
            .map(|&(_, x, _)| kernel.row_range(x).len() as u64)
            .sum();
        Ok(finish_counters(counters, useful))
    }

    /// The range stage of a matmul pair, shared by both matmul paths (see
    /// [`Anticipator::conv_group_ranges`]): groups the image's non-zeros in
    /// column-major order and precomputes each group's Eq. 15 `r` range.
    fn matmul_group_ranges(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        scratch: &mut AntScratch,
    ) -> AntCounters {
        let mut counters = AntCounters {
            pairs_total: kernel.nnz() as u64 * image.nnz() as u64,
            ..AntCounters::default()
        };
        // Matmul mode consumes the image in column-major (CSC) order: the
        // validity condition is `r == x`, so grouping elements that share
        // their column `x` makes the `r` range `[x_0, x_{n-1}]` (Eq. 15)
        // collapse to (nearly) a single kernel row. The paper notes CSC
        // "would work equally well with ANT" (Section 4.1); this ordering is
        // what achieves the >99% RCP elimination of Section 7.8.
        // Coordinates are unique, so the unstable sort is deterministic.
        scratch.entries.clear();
        scratch.entries.extend(image.iter());
        scratch.entries.sort_unstable_by_key(|&(y, x, _)| (x, y));
        scratch.ranges.clear();
        for group in scratch.entries.chunks(self.config.n) {
            scratch.coords.clear();
            scratch.coords.extend(group.iter().map(|&(y, x, _)| (y, x)));
            let ranges: GroupRanges = compute_matmul_r_range(&scratch.coords);
            counters.groups += 1;
            counters.image_reads += 2 * group.len() as u64;
            counters.range_ops += ranges.ops.comparisons + ranges.ops.additions;
            scratch.ranges.push(ranges);
        }
        counters
    }
}

/// Adds one group's kernel-scan counters (cycles and SRAM and comparator
/// traffic) to a pair's counters.
fn add_scan(counters: &mut AntCounters, scan: &KernelScan) {
    counters.scan_cycles += scan.cycles;
    counters.mult_cycles += scan.mult_cycles;
    counters.rowptr_reads += scan.rowptr_reads;
    counters.colidx_reads += scan.colidx_reads;
    counters.value_reads += scan.value_reads;
    counters.fnir_comparator_ops += scan.fnir_comparator_ops;
}

/// Completes a counters-only run from its executed `multiplications` and
/// the pair's `useful` count: every valid product executes, so each useful
/// product is one output index and one accumulator write, and the other
/// executed products are the RCPs the ranges let through.
fn finish_counters(mut counters: AntCounters, useful: u64) -> AntCounters {
    counters.output_index_ops = counters.multiplications;
    counters.useful = useful;
    counters.accumulator_writes = useful;
    counters.rcps_executed = counters.multiplications - useful;
    counters.rcps_skipped = counters.pairs_total - counters.multiplications;
    counters
}

/// Folds one kernel scan into the counters and output, invoking `observer`
/// once per multiplier cycle with that cycle's valid flat output indices.
/// `cycle_outputs` is caller-owned scratch, cleared on entry.
fn consume_scan(
    scan: &KernelScan,
    group: &[(usize, usize, f32)],
    shape: &ConvShape,
    output: &mut DenseMatrix,
    counters: &mut AntCounters,
    cycle_outputs: &mut Vec<usize>,
    observer: &mut impl FnMut(&[usize]),
) {
    add_scan(counters, scan);
    cycle_outputs.clear();
    let mut current_cycle = u64::MAX;
    for entry in &scan.selected {
        if entry.cycle != current_cycle {
            if current_cycle != u64::MAX {
                observer(cycle_outputs);
            }
            cycle_outputs.clear();
            current_cycle = entry.cycle;
        }
        for &(y, x, iv) in group {
            counters.multiplications += 1;
            counters.output_index_ops += 1;
            if let Some((ox, oy)) = shape.output_index(x, y, entry.s, entry.r) {
                output[(oy, ox)] += iv * entry.value;
                counters.useful += 1;
                counters.accumulator_writes += 1;
                cycle_outputs.push(oy * shape.out_w() + ox);
            } else {
                counters.rcps_executed += 1;
            }
        }
    }
    if current_cycle != u64::MAX {
        observer(cycle_outputs);
    }
}

fn check_conv_shapes(
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
) -> Result<(), ConvError> {
    if kernel.shape() != (shape.kernel_h(), shape.kernel_w()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "kernel",
            expected: (shape.kernel_h(), shape.kernel_w()),
            actual: kernel.shape(),
        });
    }
    if image.shape() != (shape.image_h(), shape.image_w()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "image",
            expected: (shape.image_h(), shape.image_w()),
            actual: image.shape(),
        });
    }
    Ok(())
}

fn check_matmul_shapes(
    image: &CsrMatrix,
    kernel: &CsrMatrix,
    shape: &MatmulShape,
) -> Result<(), ConvError> {
    if image.shape() != (shape.image_h(), shape.image_w()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "image",
            expected: (shape.image_h(), shape.image_w()),
            actual: image.shape(),
        });
    }
    if kernel.shape() != (shape.kernel_r(), shape.kernel_s()) {
        return Err(ConvError::OperandShapeMismatch {
            operand: "kernel",
            expected: (shape.kernel_r(), shape.kernel_s()),
            actual: kernel.shape(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_conv::algorithms::{vector_anticipation, ConditionMask};
    use ant_conv::dense::conv2d;
    use ant_sparse::sparsify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_pair(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel =
            sparsify::random_with_sparsity(shape.kernel_h(), shape.kernel_w(), sparsity, &mut rng);
        let image =
            sparsify::random_with_sparsity(shape.image_h(), shape.image_w(), sparsity, &mut rng);
        (
            CsrMatrix::from_dense(&kernel),
            CsrMatrix::from_dense(&image),
        )
    }

    #[test]
    fn conv_output_matches_reference() {
        for (shape, seed) in [
            (ConvShape::new(3, 3, 10, 10, 1).unwrap(), 1),
            (ConvShape::new(6, 6, 8, 8, 1).unwrap(), 2),
            (ConvShape::new(2, 2, 9, 9, 2).unwrap(), 3),
        ] {
            let (kernel, image) = random_pair(&shape, 0.6, seed);
            let ant = Anticipator::new(AntConfig::default());
            let run = ant.run_conv(&kernel, &image, &shape).unwrap();
            let reference = conv2d(&kernel.to_dense(), &image.to_dense(), &shape).unwrap();
            assert!(run.output.approx_eq(&reference, 1e-4), "{shape}");
        }
    }

    #[test]
    fn multiplications_match_algorithm2() {
        // The hardware scan must perform exactly the multiplications that
        // Algorithm 2 (same n, both conditions) performs.
        let shape = ConvShape::new(6, 6, 9, 9, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.7, 4);
        let ant = Anticipator::new(AntConfig::default());
        let run = ant.run_conv(&kernel, &image, &shape).unwrap();
        let alg2 = vector_anticipation(&kernel, &image, &shape, 4, ConditionMask::BOTH).unwrap();
        assert_eq!(
            run.counters.multiplications,
            alg2.counters.products_performed
        );
        assert_eq!(run.counters.useful, alg2.counters.useful);
        assert_eq!(run.counters.rcps_skipped, alg2.counters.rcps_skipped);
    }

    #[test]
    fn counters_are_internally_consistent() {
        let shape = ConvShape::new(5, 5, 10, 10, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 5);
        let ant = Anticipator::new(AntConfig::default());
        let c = ant.run_conv(&kernel, &image, &shape).unwrap().counters;
        assert_eq!(c.pairs_total, c.multiplications + c.rcps_skipped);
        assert_eq!(c.multiplications, c.useful + c.rcps_executed);
        assert_eq!(c.multiplications, c.output_index_ops);
        assert_eq!(c.useful, c.accumulator_writes);
        assert!(c.mult_cycles <= c.scan_cycles);
    }

    #[test]
    fn efficacy_view_partitions_every_product() {
        let shape = ConvShape::new(5, 5, 10, 10, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 5);
        let ant = Anticipator::new(AntConfig::default());
        let c = ant.run_conv(&kernel, &image, &shape).unwrap().counters;
        let e = c.efficacy();
        assert_eq!(e.conservative_window + e.anticipated, c.pairs_total);
        assert_eq!(e.conservative_window, e.ideal_window + e.false_negatives);
        assert!(e.tightness() >= 0.0 && e.tightness() <= 1.0);
        // An Alg. 1-ideal window (no false negatives) has tightness 1.
        assert_eq!(
            AnticipationEfficacy {
                conservative_window: 7,
                ideal_window: 7,
                false_negatives: 0,
                anticipated: 3,
            }
            .tightness(),
            1.0
        );
        // Nothing admitted: tightness is 1 by convention, not NaN.
        assert_eq!(AnticipationEfficacy::default().tightness(), 1.0);
    }

    #[test]
    fn update_phase_geometry_avoids_most_rcps() {
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 6);
        let ant = Anticipator::new(AntConfig::default());
        let run = ant.run_conv(&kernel, &image, &shape).unwrap();
        assert!(
            run.counters.rcps_avoided_fraction() > 0.6,
            "avoided {:.3}",
            run.counters.rcps_avoided_fraction()
        );
    }

    #[test]
    fn sram_reads_are_bounded_by_kernel_size() {
        let shape = ConvShape::new(8, 8, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.5, 7);
        let ant = Anticipator::new(AntConfig::default());
        let c = ant.run_conv(&kernel, &image, &shape).unwrap().counters;
        // Per group the scan fetches at most the whole kernel's values.
        // (Column-index reads may exceed nnz because FNIR feedback re-reads
        // the overlap after a jump, exactly as the hardware re-fetches.)
        assert!(c.value_reads <= c.groups * kernel.nnz() as u64);
        // Value reads never exceed column-index reads (values are fetched
        // only for FNIR-selected indices).
        assert!(c.value_reads <= c.colidx_reads);
    }

    #[test]
    fn ablation_configs_execute_more_but_stay_correct() {
        let shape = ConvShape::new(6, 6, 9, 9, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 8);
        let reference = conv2d(&kernel.to_dense(), &image.to_dense(), &shape).unwrap();
        let both = Anticipator::new(AntConfig::default())
            .run_conv(&kernel, &image, &shape)
            .unwrap();
        for config in [
            AntConfig {
                use_s: false,
                ..AntConfig::default()
            },
            AntConfig {
                use_r: false,
                ..AntConfig::default()
            },
        ] {
            let run = Anticipator::new(config)
                .run_conv(&kernel, &image, &shape)
                .unwrap();
            assert!(run.output.approx_eq(&reference, 1e-4));
            assert!(run.counters.multiplications >= both.counters.multiplications);
            assert_eq!(run.counters.useful, both.counters.useful);
        }
    }

    #[test]
    fn matmul_output_matches_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let image = sparsify::random_with_sparsity(7, 9, 0.5, &mut rng);
        let kernel = sparsify::random_with_sparsity(9, 6, 0.5, &mut rng);
        let shape = MatmulShape::new(7, 9, 9, 6).unwrap();
        let ant = Anticipator::new(AntConfig::default());
        let run = ant
            .run_matmul(
                &CsrMatrix::from_dense(&image),
                &CsrMatrix::from_dense(&kernel),
                &shape,
            )
            .unwrap();
        let reference = image.matmul(&kernel).unwrap();
        assert!(run.output.approx_eq(&reference, 1e-4));
    }

    #[test]
    fn matmul_eliminates_nearly_all_rcps() {
        // Section 7.8: ANT eliminates >99% of matmul RCPs. With row groups
        // whose column spread is modest, the r-range filter is very sharp.
        let mut rng = StdRng::seed_from_u64(10);
        let image = sparsify::random_with_sparsity(64, 128, 0.9, &mut rng);
        let kernel = sparsify::random_with_sparsity(128, 64, 0.9, &mut rng);
        let shape = MatmulShape::new(64, 128, 128, 64).unwrap();
        let ant = Anticipator::new(AntConfig::default());
        let run = ant
            .run_matmul(
                &CsrMatrix::from_dense(&image),
                &CsrMatrix::from_dense(&kernel),
                &shape,
            )
            .unwrap();
        assert!(
            run.counters.rcps_avoided_fraction() > 0.99,
            "avoided {:.4}",
            run.counters.rcps_avoided_fraction()
        );
        // The matmul fast path never touches the FNIR block.
        assert_eq!(run.counters.fnir_comparator_ops, 0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let shape = ConvShape::new(3, 3, 6, 6, 1).unwrap();
        let ant = Anticipator::new(AntConfig::default());
        let bad_kernel = CsrMatrix::empty(2, 2);
        let image = CsrMatrix::empty(6, 6);
        assert!(ant.run_conv(&bad_kernel, &image, &shape).is_err());
        let mshape = MatmulShape::new(4, 5, 5, 3).unwrap();
        assert!(ant
            .run_matmul(&CsrMatrix::empty(4, 4), &CsrMatrix::empty(5, 3), &mshape)
            .is_err());
    }

    #[test]
    fn kernel_stationary_matches_image_stationary_output() {
        for (shape, seed) in [
            (ConvShape::new(5, 5, 10, 10, 1).unwrap(), 21),
            (ConvShape::new(2, 2, 9, 9, 2).unwrap(), 22),
            (ConvShape::new(12, 12, 14, 14, 1).unwrap(), 23),
        ] {
            let (kernel, image) = random_pair(&shape, 0.7, seed);
            let ant = Anticipator::new(AntConfig::paper_default());
            let image_stat = ant.run_conv(&kernel, &image, &shape).unwrap();
            let kernel_stat = ant
                .run_conv_kernel_stationary(&kernel, &image, &shape)
                .unwrap();
            assert!(
                kernel_stat.output.approx_eq(&image_stat.output, 1e-4),
                "{shape}"
            );
            // Same useful work regardless of dataflow.
            assert_eq!(kernel_stat.counters.useful, image_stat.counters.useful);
        }
    }

    #[test]
    fn kernel_stationary_counters_consistent() {
        let shape = ConvShape::new(10, 10, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.85, 24);
        let ant = Anticipator::new(AntConfig::paper_default());
        let c = ant
            .run_conv_kernel_stationary(&kernel, &image, &shape)
            .unwrap()
            .counters;
        assert_eq!(c.pairs_total, c.multiplications + c.rcps_skipped);
        assert_eq!(c.multiplications, c.useful + c.rcps_executed);
        assert!(c.mult_cycles <= c.scan_cycles);
        // The stationary side is now the kernel: groups cover kernel nnz.
        assert_eq!(c.groups, (kernel.nnz() as u64).div_ceil(4));
    }

    #[test]
    fn kernel_stationary_also_avoids_rcps() {
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 25);
        let ant = Anticipator::new(AntConfig::paper_default());
        let run = ant
            .run_conv_kernel_stationary(&kernel, &image, &shape)
            .unwrap();
        assert!(
            run.counters.rcps_avoided_fraction() > 0.4,
            "avoided {:.3}",
            run.counters.rcps_avoided_fraction()
        );
    }

    #[test]
    fn output_stationary_matches_reference() {
        for (shape, seed) in [
            (ConvShape::new(5, 5, 10, 10, 1).unwrap(), 31),
            (ConvShape::new(2, 2, 9, 9, 2).unwrap(), 32),
            (ConvShape::new(12, 12, 14, 14, 1).unwrap(), 33),
        ] {
            let (kernel, image) = random_pair(&shape, 0.7, seed);
            let ant = Anticipator::new(AntConfig::paper_default());
            let os = ant
                .run_conv_output_stationary(&kernel, &image, &shape)
                .unwrap();
            let reference = conv2d(&kernel.to_dense(), &image.to_dense(), &shape).unwrap();
            assert!(os.output.approx_eq(&reference, 1e-4), "{shape}");
            // Gather-based: never executes an RCP.
            assert_eq!(os.counters.rcps_executed, 0);
        }
    }

    #[test]
    fn output_stationary_pays_probe_traffic() {
        // At high sparsity, output-stationary's probe traffic dwarfs the
        // image-stationary scan's SRAM reads — the measurable form of the
        // paper's "challenging ... beyond scope" remark.
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 34);
        let ant = Anticipator::new(AntConfig::paper_default());
        let os = ant
            .run_conv_output_stationary(&kernel, &image, &shape)
            .unwrap();
        let is = ant.run_conv(&kernel, &image, &shape).unwrap();
        assert_eq!(os.counters.useful, is.counters.useful);
        let os_reads = os.counters.rowptr_reads + os.counters.colidx_reads;
        let is_reads = is.counters.rowptr_reads + is.counters.colidx_reads;
        assert!(
            os_reads > is_reads,
            "probe reads {os_reads} should exceed scan reads {is_reads}"
        );
    }

    #[test]
    fn index_width_check_follows_table4() {
        let config = AntConfig::paper_default();
        // Everything the paper evaluates fits 8-bit indices.
        assert!(config.supports_conv(&ConvShape::new(112, 112, 230, 230, 1).unwrap()));
        assert!(config.supports_conv(&ConvShape::new(3, 3, 256, 256, 1).unwrap()));
        // A 512-wide plane exceeds the datapath and must be tiled first.
        assert!(!config.supports_conv(&ConvShape::new(3, 3, 512, 512, 1).unwrap()));
    }

    #[test]
    fn shared_scratch_is_bit_identical_across_pairs_and_modes() {
        // One scratch reused across different shapes, configs, and modes
        // must reproduce the allocating entry points exactly (counters,
        // output, and observer stream).
        let mut scratch = AntScratch::new();
        let ant = Anticipator::new(AntConfig::paper_default());
        for (shape, seed) in [
            (ConvShape::new(6, 6, 9, 9, 1).unwrap(), 41),
            (ConvShape::new(3, 3, 12, 12, 1).unwrap(), 42),
            (ConvShape::new(2, 2, 9, 9, 2).unwrap(), 43),
        ] {
            let (kernel, image) = random_pair(&shape, 0.7, seed);
            let mut observed_ref: Vec<Vec<usize>> = Vec::new();
            let reference = ant
                .run_conv_observed(&kernel, &image, &shape, |o| observed_ref.push(o.to_vec()))
                .unwrap();
            let mut observed_scratch: Vec<Vec<usize>> = Vec::new();
            let counters = ant
                .run_conv_with(&kernel, &image, &shape, &mut scratch, |o| {
                    observed_scratch.push(o.to_vec())
                })
                .unwrap();
            assert_eq!(counters, reference.counters, "{shape}");
            assert_eq!(*scratch.output(), reference.output, "{shape}");
            assert_eq!(observed_scratch, observed_ref, "{shape}");
        }
        // Ablation configs through the same (already warm) scratch.
        let shape = ConvShape::new(6, 6, 9, 9, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 44);
        for config in [
            AntConfig {
                use_s: false,
                ..AntConfig::default()
            },
            AntConfig {
                use_r: false,
                ..AntConfig::default()
            },
        ] {
            let ablated = Anticipator::new(config);
            let reference = ablated.run_conv(&kernel, &image, &shape).unwrap();
            let counters = ablated
                .run_conv_with(&kernel, &image, &shape, &mut scratch, |_| {})
                .unwrap();
            assert_eq!(counters, reference.counters);
            assert_eq!(*scratch.output(), reference.output);
        }
        // Matmul through the same scratch.
        let mut rng = StdRng::seed_from_u64(45);
        let image = sparsify::random_with_sparsity(7, 9, 0.5, &mut rng);
        let kernel = sparsify::random_with_sparsity(9, 6, 0.5, &mut rng);
        let mshape = MatmulShape::new(7, 9, 9, 6).unwrap();
        let (image, kernel) = (
            CsrMatrix::from_dense(&image),
            CsrMatrix::from_dense(&kernel),
        );
        let reference = ant.run_matmul(&image, &kernel, &mshape).unwrap();
        let counters = ant
            .run_matmul_with(&image, &kernel, &mshape, &mut scratch)
            .unwrap();
        assert_eq!(counters, reference.counters);
        assert_eq!(*scratch.output(), reference.output);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = AntCounters::default();
        let b = AntCounters {
            groups: 2,
            multiplications: 10,
            useful: 7,
            ..AntCounters::default()
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.groups, 4);
        assert_eq!(a.multiplications, 20);
        assert_eq!(a.useful, 14);
    }
}
