//! The ANT accelerator PE model: SCNN+ plus the anticipation pipeline
//! (paper Section 4, Fig. 6).
//!
//! Delegates the hardware behaviour — range computation, the FNIR-driven
//! kernel scan with feedback, and the SRAM access skipping — to `ant-core`'s
//! [`Anticipator`], and maps its counters into the common [`SimStats`] with
//! the paper's pipeline assumptions (five-cycle start-up per matrix pair,
//! single-cycle SRAM).
//!
//! A pair takes the anticipator's counters-only path
//! ([`Anticipator::run_conv_counters`], [`Anticipator::run_matmul_counters`]):
//! the simulator reads only counters, so the functional product is never
//! computed. Only a conv pair with an accumulator-bank model attached runs
//! the functional [`Anticipator::run_conv_with`], whose per-cycle output
//! indices the bank model needs.

use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, AntCounters, Anticipator};
use ant_sparse::CsrMatrix;

use crate::accelerator::{ConvSim, MatmulSim};
use crate::accum::AccumulatorBanks;
use crate::breakdown::CycleBreakdown;
use crate::scratch::SimScratch;
use crate::stats::SimStats;

/// The ANT PE model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntAccelerator {
    anticipator: Anticipator,
    /// Optional banked-accumulator model. `None` keeps the paper's
    /// assumption of a stall-free output accumulator (Section 6.1).
    accum_banks: Option<AccumulatorBanks>,
}

impl AntAccelerator {
    /// Creates an ANT PE with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if either FNIR parameter (`config.n`, `config.k`) is zero.
    /// Any `k >= 1` is valid: with `k <= n` the FNIR feedback never fires.
    pub fn new(config: AntConfig) -> Self {
        Self {
            anticipator: Anticipator::new(config),
            accum_banks: None,
        }
    }

    /// The paper's default configuration: n = 4, k = 16 (Table 4).
    pub fn paper_default() -> Self {
        Self::new(AntConfig::paper_default())
    }

    /// Enables banked-accumulator conflict modelling: each multiplier-array
    /// cycle whose valid products collide on an accumulator bank stalls the
    /// pipeline, the extra cycles landing in `pe_cycles` and attributed to
    /// `CycleCause::AccumConflict`. Conv only — the matmul path has no
    /// per-cycle output-index stream, so it keeps the stall-free assumption.
    pub fn with_accumulator_banks(mut self, banks: AccumulatorBanks) -> Self {
        self.accum_banks = Some(banks);
        self
    }

    /// The banked-accumulator model in use, if conflict modelling is on.
    pub fn accumulator_banks(&self) -> Option<AccumulatorBanks> {
        self.accum_banks
    }

    /// The configuration in use.
    pub fn config(&self) -> AntConfig {
        self.anticipator.config()
    }

    fn map_counters(&self, c: &AntCounters, accum_conflicts: u64) -> SimStats {
        // The scan counters need emulation (FNIR feedback); mapping them to
        // the cycle attribution is the closed-form part, shared with the
        // analytic module and pinned by the golden proptests.
        let terms = crate::analytic::ant_cycle_terms(
            c.scan_cycles,
            c.mult_cycles,
            c.groups,
            c.pairs_total,
            accum_conflicts,
        );
        let stats = SimStats {
            pe_cycles: terms.pe_cycles,
            startup_cycles: terms.startup,
            mults: c.multiplications,
            useful_mults: c.useful,
            rcps_executed: c.rcps_executed,
            rcps_skipped: c.rcps_skipped,
            pairs_total: c.pairs_total,
            kernel_value_reads: c.value_reads,
            kernel_index_reads: c.colidx_reads,
            rowptr_reads: c.rowptr_reads,
            image_reads: c.image_reads,
            index_ops: c.output_index_ops + c.fnir_comparator_ops + c.range_ops,
            accumulator_writes: c.accumulator_writes,
            accumulator_adds: c.useful,
            cycles: CycleBreakdown {
                compute: terms.compute,
                fnir_scan: terms.fnir_scan,
                accum_conflict: accum_conflicts,
                sram_fetch: terms.sram_fetch,
                startup: terms.startup,
                ..CycleBreakdown::default()
            },
        };
        stats.debug_assert_cycles_attributed("ANT");
        stats
    }
}

impl ConvSim for AntAccelerator {
    fn name(&self) -> &'static str {
        "ANT"
    }

    fn simulate_conv_pair_scratch(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        if kernel.nnz() == 0 || image.nnz() == 0 {
            return SimStats::default();
        }
        let mut accum_conflicts = 0u64;
        // Disjoint borrows of the arena: the anticipator drives `ant` while
        // the per-cycle observer reuses `bank_counts`.
        let SimScratch {
            ant, bank_counts, ..
        } = scratch;
        let counters = match self.accum_banks {
            // The bank model needs each multiplier cycle's output indices,
            // which only the functional convolution produces.
            Some(banks) => {
                self.anticipator
                    .run_conv_with(kernel, image, shape, ant, |cycle_outputs| {
                        accum_conflicts += banks.conflict_cycles_with(cycle_outputs, bank_counts);
                    })
            }
            None => self
                .anticipator
                .run_conv_counters(kernel, image, shape, ant),
        }
        .expect("operands validated by caller");
        let stats = self.map_counters(&counters, accum_conflicts);
        crate::accelerator::trace_pair(self.name(), "conv", kernel, image, &stats);
        stats
    }

    // No `analytic_conv_pair`: the FNIR scan has feedback, so ANT pairs
    // always dispatch; only the counter->attribution mapping is closed-form.
}

impl MatmulSim for AntAccelerator {
    fn simulate_matmul_pair_scratch(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        if kernel.nnz() == 0 || image.nnz() == 0 {
            return SimStats::default();
        }
        let counters = self
            .anticipator
            .run_matmul_counters(image, kernel, shape, &mut scratch.ant)
            .expect("operands validated by caller");
        let stats = self.map_counters(&counters, 0);
        crate::accelerator::trace_pair(self.name(), "matmul", kernel, image, &stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scnn::ScnnPlus;
    use ant_sparse::sparsify;
    use ant_sparse::DenseMatrix;
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
    fn ant_and_scnn_agree_on_useful_work() {
        let shape = ConvShape::new(8, 8, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 1);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(ant.useful_mults, scnn.useful_mults);
        assert_eq!(ant.pairs_total, scnn.pairs_total);
        assert!(ant.mults <= scnn.mults);
    }

    #[test]
    fn ant_beats_scnn_on_update_phase_geometry() {
        // G_A * A-like pair: RCPs dominate, ANT should win on cycles, SRAM
        // traffic, and executed multiplications.
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 2);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert!(
            ant.mults < scnn.mults / 2,
            "{} vs {}",
            ant.mults,
            scnn.mults
        );
        assert!(ant.sram_reads() < scnn.sram_reads());
        assert!(ant.total_cycles() < scnn.total_cycles());
        assert!(ant.rcps_avoided_fraction() > 0.5);
    }

    #[test]
    fn ant_near_parity_on_forward_geometry() {
        // W * A-like pair (small kernel): few RCPs exist, ANT should not be
        // much worse than SCNN+ (the paper notes up to ~30% slowdown on
        // small layers from start-up costs).
        let shape = ConvShape::new(3, 3, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.5, 3);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(ant.useful_mults, scnn.useful_mults);
        assert!(ant.total_cycles() <= scnn.total_cycles() * 2);
    }

    #[test]
    fn empty_operands_are_free() {
        let shape = ConvShape::new(3, 3, 6, 6, 1).unwrap();
        let kernel = CsrMatrix::empty(3, 3);
        let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(6, 6, |_, _| 1.0));
        let stats = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(stats, SimStats::default());
    }

    #[test]
    fn matmul_mode_eliminates_nearly_all_rcps() {
        let mut rng = StdRng::seed_from_u64(4);
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(32, 64, 0.9, &mut rng));
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(64, 32, 0.9, &mut rng));
        let shape = MatmulShape::new(32, 64, 64, 32).unwrap();
        let ant = AntAccelerator::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        let scnn = ScnnPlus::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        assert_eq!(ant.useful_mults, scnn.useful_mults);
        assert!(ant.rcps_avoided_fraction() > 0.95);
    }

    #[test]
    fn cycles_at_least_one_per_group() {
        let shape = ConvShape::new(3, 3, 8, 8, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.5, 5);
        let stats = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let groups = (image.nnz() as u64).div_ceil(4);
        assert!(stats.pe_cycles >= groups);
    }

    #[test]
    fn attribution_covers_total_cycles_and_splits_scan() {
        let shape = ConvShape::new(8, 8, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 1);
        let stats = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert!(stats.cycles_attributed());
        assert_eq!(stats.cycles.startup, stats.startup_cycles);
        // ANT does real work here, so some scan cycles issue multiplies.
        assert!(stats.cycles.compute > 0);
        // Compute + scan stall together reconstruct the FNIR scan cycles.
        assert_eq!(
            stats.cycles.compute + stats.cycles.fnir_scan + stats.cycles.sram_fetch,
            stats.pe_cycles
        );
        assert_eq!(stats.cycles.accum_conflict, 0);
        assert_eq!(stats.cycles.idle_imbalance, 0);
    }

    #[test]
    fn ant_attributes_fewer_scan_and_compute_cycles_than_scnn() {
        // Golden attribution check on the RCP-dominated G_A * A fixture
        // (same geometry/seed as ant_beats_scnn_on_update_phase_geometry):
        // anticipation must shrink the scan+compute cycle bill, not merely
        // relabel it.
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.9, 2);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert!(scnn.cycles_attributed());
        assert!(ant.cycles_attributed());
        assert!(
            ant.cycles.fnir_scan + ant.cycles.compute < scnn.cycles.fnir_scan + scnn.cycles.compute,
            "ANT {}+{} vs SCNN {}+{}",
            ant.cycles.fnir_scan,
            ant.cycles.compute,
            scnn.cycles.fnir_scan,
            scnn.cycles.compute
        );
    }

    #[test]
    fn scnn_provisioned_banks_report_conflicts_on_same_bank_outputs() {
        // Adversarial pattern: a single-entry kernel at (0, 0) against an
        // image whose only non-zeros fill column 0, on a 32-wide output.
        // Every valid product in a multiplier cycle lands at flat output
        // index out_y * 32 ≡ 0 (mod 32 banks), so SCNN-provisioned banking
        // (2 * 4^2 = 32) serializes each cycle's products on bank 0.
        let shape = ConvShape::new(2, 2, 33, 33, 1).unwrap();
        let kernel = CsrMatrix::from_dense(&DenseMatrix::from_fn(2, 2, |r, c| {
            if r == 0 && c == 0 {
                1.0
            } else {
                0.0
            }
        }));
        let image = CsrMatrix::from_dense(&DenseMatrix::from_fn(33, 33, |_, c| {
            if c == 0 {
                1.0
            } else {
                0.0
            }
        }));
        let plain = AntAccelerator::paper_default();
        let banked = plain.with_accumulator_banks(crate::accum::AccumulatorBanks::scnn_provisioned(4));
        let base = plain.simulate_conv_pair(&kernel, &image, &shape);
        let stats = banked.simulate_conv_pair(&kernel, &image, &shape);
        assert!(
            stats.accum_conflict_cycles() > 0,
            "same-bank outputs must serialize"
        );
        assert_eq!(
            stats.pe_cycles,
            base.pe_cycles + stats.accum_conflict_cycles(),
            "conflicts extend the pipeline, cycle for cycle"
        );
        assert!(stats.cycles_attributed());
        // Conflict-free outputs (distinct banks) report zero: same kernel
        // against one dense image row spreads outputs across banks.
        let spread = CsrMatrix::from_dense(&DenseMatrix::from_fn(33, 33, |r, _| {
            if r == 0 {
                1.0
            } else {
                0.0
            }
        }));
        let ok = banked.simulate_conv_pair(&kernel, &spread, &shape);
        assert_eq!(ok.accum_conflict_cycles(), 0);
    }

    #[test]
    fn ablation_configs_reduce_skipping() {
        let shape = ConvShape::new(10, 10, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.85, 6);
        let both = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        for config in [
            AntConfig {
                use_r: false,
                ..AntConfig::paper_default()
            },
            AntConfig {
                use_s: false,
                ..AntConfig::paper_default()
            },
        ] {
            let ablated = AntAccelerator::new(config).simulate_conv_pair(&kernel, &image, &shape);
            assert!(ablated.rcps_skipped <= both.rcps_skipped);
            assert_eq!(ablated.useful_mults, both.useful_mults);
        }
    }
}
