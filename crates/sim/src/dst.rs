//! A DST-like (Dual-side Sparse Tensor Core) machine
//! (paper Section 2.2, Table 1).
//!
//! DST avoids RCPs entirely by performing an *IM2COL-modified* sparse outer
//! product: every product maps to a valid output, but image values must be
//! duplicated for each patch they appear in (increasing data-movement
//! energy), and the paper speculates that the serial IM2COL conversion and
//! scheduling limit DST to exploiting only ~50–60% of the available
//! sparsity speedup on some layers.
//!
//! The model charges exactly those mechanisms: useful-only multiplications,
//! image reads inflated by the IM2COL duplication factor, and a utilization
//! parameter applied to the multiplier occupancy.

use ant_conv::im2col::duplication_factor;
use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_sparse::CsrMatrix;

use crate::accelerator::{ConvSim, MatmulSim, STARTUP_CYCLES};
use crate::breakdown::CycleBreakdown;
use crate::scratch::SimScratch;
use crate::stats::SimStats;

/// The DST-like PE model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DstAccelerator {
    multipliers: usize,
    /// Fraction of the ideal sparse throughput the serial IM2COL pipeline
    /// sustains (paper speculates 0.5–0.6 on some layers).
    utilization: f64,
}

impl DstAccelerator {
    /// Creates a DST-like PE.
    ///
    /// # Panics
    ///
    /// Panics if `multipliers == 0` or `utilization` is outside `(0, 1]`.
    pub fn new(multipliers: usize, utilization: f64) -> Self {
        assert!(multipliers > 0, "need at least one multiplier");
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        Self {
            multipliers,
            utilization,
        }
    }

    /// The paper-cited configuration: 16 multipliers at 55% sustained
    /// utilization.
    pub fn paper_default() -> Self {
        Self::new(16, 0.55)
    }

    fn simulate(
        &self,
        useful: u64,
        duplication: f64,
        nnz_image: u64,
        nnz_kernel: u64,
        outputs: u64,
    ) -> SimStats {
        if useful == 0 {
            return SimStats::default();
        }
        let ideal_cycles = useful.div_ceil(self.multipliers as u64);
        let cycles = ((ideal_cycles as f64 / self.utilization).ceil() as u64).max(1);
        // IM2COL duplicates each image non-zero across the patches it
        // belongs to.
        let image_reads = ((2 * nnz_image) as f64 * duplication).ceil() as u64;
        // Cycles the useful work strictly needs are compute; the utilization
        // shortfall is the serial IM2COL conversion starving the array.
        let compute = ideal_cycles.min(cycles);
        let stats = SimStats {
            pe_cycles: cycles,
            startup_cycles: STARTUP_CYCLES,
            mults: useful,
            useful_mults: useful,
            rcps_executed: 0,
            rcps_skipped: 0,
            pairs_total: nnz_kernel * nnz_image,
            kernel_value_reads: nnz_kernel,
            kernel_index_reads: nnz_kernel,
            rowptr_reads: 0,
            image_reads,
            // IM2COL address conversion: one index transform per duplicated
            // image element.
            index_ops: image_reads / 2,
            accumulator_writes: outputs.min(useful),
            accumulator_adds: useful,
            cycles: CycleBreakdown {
                compute,
                sram_fetch: cycles - compute,
                startup: STARTUP_CYCLES,
                ..CycleBreakdown::default()
            },
        };
        stats.debug_assert_cycles_attributed("DST");
        stats
    }
}

impl ConvSim for DstAccelerator {
    fn name(&self) -> &'static str {
        "DST-like (im2col outer product)"
    }

    fn simulate_counted_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        useful: u64,
        _scratch: &mut SimScratch,
    ) -> SimStats {
        if kernel.nnz() == 0 || image.nnz() == 0 {
            return SimStats::default();
        }
        self.simulate(
            useful,
            duplication_factor(shape),
            image.nnz() as u64,
            kernel.nnz() as u64,
            shape.out_h() as u64 * shape.out_w() as u64,
        )
    }
}

impl MatmulSim for DstAccelerator {
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
        let image_col_nnz = &mut scratch.col_nnz;
        image_col_nnz.clear();
        image_col_nnz.resize(shape.image_w(), 0);
        for (_, x, _) in image.iter() {
            image_col_nnz[x] += 1;
        }
        let useful: u64 = (0..shape.kernel_r())
            .map(|r| kernel.row_range(r).len() as u64 * image_col_nnz[r])
            .sum();
        // Matmul needs no IM2COL duplication.
        self.simulate(
            useful,
            1.0,
            image.nnz() as u64,
            kernel.nnz() as u64,
            shape.image_h() as u64 * shape.kernel_s() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::AntAccelerator;
    use crate::scnn::ScnnPlus;
    use ant_sim_test_util::random_pair;

    mod ant_sim_test_util {
        use ant_conv::ConvShape;
        use ant_sparse::{sparsify, CsrMatrix};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        pub fn random_pair(shape: &ConvShape, sparsity: f64, seed: u64) -> (CsrMatrix, CsrMatrix) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kernel = sparsify::random_with_sparsity(
                shape.kernel_h(),
                shape.kernel_w(),
                sparsity,
                &mut rng,
            );
            let image = sparsify::random_with_sparsity(
                shape.image_h(),
                shape.image_w(),
                sparsity,
                &mut rng,
            );
            (
                CsrMatrix::from_dense(&kernel),
                CsrMatrix::from_dense(&image),
            )
        }
    }

    #[test]
    fn dst_executes_no_rcps() {
        let shape = ConvShape::new(10, 10, 12, 12, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.8, 1);
        let scnn = ScnnPlus::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let dst = DstAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        assert_eq!(dst.mults, scnn.useful_mults);
        assert_eq!(dst.rcps_executed, 0);
    }

    #[test]
    fn dst_pays_duplicated_image_traffic() {
        // A 3x3 stride-1 kernel duplicates interior image values ~9x.
        let shape = ConvShape::new(3, 3, 20, 20, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.5, 2);
        let dst = DstAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let plain_reads = 2 * image.nnz() as u64;
        assert!(
            dst.image_reads > 7 * plain_reads,
            "{} vs {plain_reads}",
            dst.image_reads
        );
    }

    #[test]
    fn utilization_inflates_cycles() {
        let shape = ConvShape::new(6, 6, 10, 10, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.6, 3);
        let full = DstAccelerator::new(16, 1.0).simulate_conv_pair(&kernel, &image, &shape);
        let half = DstAccelerator::new(16, 0.5).simulate_conv_pair(&kernel, &image, &shape);
        assert!(half.pe_cycles >= 2 * full.pe_cycles - 1);
    }

    #[test]
    fn ant_beats_dst_on_energy_for_small_kernels() {
        // ANT reads each image value once; DST duplicates it per patch.
        let shape = ConvShape::new(3, 3, 20, 20, 1).unwrap();
        let (kernel, image) = random_pair(&shape, 0.5, 4);
        let ant = AntAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let dst = DstAccelerator::paper_default().simulate_conv_pair(&kernel, &image, &shape);
        let model = crate::EnergyModel::paper_7nm();
        assert!(ant.energy_pj(&model) < dst.energy_pj(&model));
    }

    #[test]
    fn matmul_path_runs() {
        let shape = MatmulShape::new(8, 10, 10, 6).unwrap();
        use ant_sparse::{sparsify, CsrMatrix};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(8, 10, 0.5, &mut rng));
        let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(10, 6, 0.5, &mut rng));
        let dst = DstAccelerator::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        let scnn = ScnnPlus::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        assert_eq!(dst.mults, scnn.useful_mults);
    }
}
