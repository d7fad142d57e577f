//! The machine traits every simulated accelerator implements, and the
//! operand checks and per-pair trace hook they share.

use std::fmt::Debug;

use ant_conv::matmul::MatmulShape;
use ant_conv::rcp::count_useful_products_with;
use ant_conv::ConvShape;
use ant_core::AntError;
use ant_sparse::CsrMatrix;

use crate::scratch::{with_thread_scratch, SimScratch};
use crate::stats::SimStats;

/// Pipeline start-up cost charged per matrix pair handed to a PE
/// (paper Section 6.1: "a five-cycle start-up cost whenever a PE is given
/// new image and kernel matrices").
pub const STARTUP_CYCLES: u64 = 5;

/// Emits a detail-gated trace event for one simulated pair. Free when
/// `ANT_TRACE_PAIRS` is off (one atomic load); on the hot simulation path,
/// so every machine routes through this single helper.
pub(crate) fn trace_pair(
    machine: &'static str,
    op: &'static str,
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    stats: &SimStats,
) {
    if !ant_obs::detail_enabled() {
        return;
    }
    let mut fields: Vec<(&str, ant_obs::Value)> = Vec::with_capacity(25);
    fields.push(("machine", machine.into()));
    fields.push(("op", op.into()));
    fields.push(("kernel_nnz", (kernel.nnz() as u64).into()));
    fields.push(("image_nnz", (image.nnz() as u64).into()));
    for (name, value) in stats.fields() {
        fields.push((name, value.into()));
    }
    ant_obs::event("pair", &fields);
}

/// Checks that a convolution pair's operands agree with its shape before a
/// machine touches them. O(1): only the CSR headers are inspected; the CSR
/// invariants themselves (monotone row pointers, in-bounds columns, nnz
/// consistency) are enforced by `CsrMatrix` construction.
pub fn validate_conv_pair(
    machine: &'static str,
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
) -> Result<(), AntError> {
    let want = (shape.kernel_h(), shape.kernel_w());
    if kernel.shape() != want {
        return Err(AntError::invalid_operand(
            machine,
            "kernel",
            format!("is {:?} but shape wants {want:?}", kernel.shape()),
        ));
    }
    let want = (shape.image_h(), shape.image_w());
    if image.shape() != want {
        return Err(AntError::invalid_operand(
            machine,
            "image",
            format!("is {:?} but shape wants {want:?}", image.shape()),
        ));
    }
    Ok(())
}

/// Checks that a matmul pair's operands agree with its shape. O(1); see
/// [`validate_conv_pair`].
pub fn validate_matmul_pair(
    machine: &'static str,
    image: &CsrMatrix,
    kernel: &CsrMatrix,
    shape: &MatmulShape,
) -> Result<(), AntError> {
    let want = (shape.image_h(), shape.image_w());
    if image.shape() != want {
        return Err(AntError::invalid_operand(
            machine,
            "image",
            format!("is {:?} but shape wants {want:?}", image.shape()),
        ));
    }
    let want = (shape.kernel_r(), shape.kernel_s());
    if kernel.shape() != want {
        return Err(AntError::invalid_operand(
            machine,
            "kernel",
            format!("is {:?} but shape wants {want:?}", kernel.shape()),
        ));
    }
    Ok(())
}

/// A machine that can simulate one kernel/image convolution pair.
///
/// A "pair" is one 2-D kernel against one 2-D image plane — the granularity
/// at which SCNN-style PEs receive work; multi-channel layers decompose into
/// many pairs (one per input-channel/output-channel combination).
///
/// The `Debug` output is the machine's cache identity
/// ([`ConvSim::cache_identity`]), so it must show every parameter that
/// influences results.
pub trait ConvSim: Debug {
    /// Short machine name for reports and error attribution.
    fn name(&self) -> &'static str;

    /// Simulates the convolution of one kernel/image pair whose exact
    /// useful-product count is `useful` (what
    /// [`count_useful_products_with`] returns for these operands), returning
    /// per-pair operation and cycle counts. This is the machine's
    /// definition. SCNN+, GoSPA, DST and ANT read the count instead of
    /// recounting, and the inner-product machines ignore it
    /// ([`ConvSim::reads_useful_count`]), so a caller that counts a pair
    /// once can hand that count to every machine (the parallel runner
    /// counts each pair at most once per op, in the first pair job that
    /// reads it). The caller owns the
    /// [`SimScratch`] arena, so once it is warm the steady state allocates
    /// nothing.
    fn simulate_counted_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        useful: u64,
        scratch: &mut SimScratch,
    ) -> SimStats;

    /// Whether [`ConvSim::simulate_counted_conv_pair`] reads its `useful`
    /// argument. The inner-product machines do not, so a caller hands them
    /// 0 and skips counting.
    fn reads_useful_count(&self) -> bool {
        true
    }

    /// [`ConvSim::simulate_counted_conv_pair`] for a pair nobody counted
    /// yet: counts its useful products on the scratch if the machine reads
    /// them ([`ConvSim::reads_useful_count`]), then delegates.
    fn simulate_conv_pair_scratch(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        let useful = if self.reads_useful_count() {
            count_useful_products_with(kernel, image, shape, &mut scratch.nz_counter)
        } else {
            0
        };
        self.simulate_counted_conv_pair(kernel, image, shape, useful, scratch)
    }

    /// [`ConvSim::simulate_conv_pair_scratch`] on this thread's shared
    /// arena ([`with_thread_scratch`]), for callers that keep none.
    fn simulate_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> SimStats {
        with_thread_scratch(|scratch| {
            self.simulate_conv_pair_scratch(kernel, image, shape, scratch)
        })
    }

    /// A stable identity string covering the machine's name and every
    /// hardware parameter that influences its results — the machine's
    /// contribution to a content-addressed cache key. It is the `Debug`
    /// string, which names the type and every field. Two machines with equal
    /// identity strings must produce byte-identical stats for identical
    /// operands. `None` would declare the machine uncacheable: the result
    /// cache must then never store or replay its pairs.
    fn cache_identity(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }

    /// Closed-form fast path: returns `Some(stats)` when this machine's
    /// result for the pair is computable without cycle-accurate emulation
    /// (see [`crate::analytic`]), `None` when emulation is required.
    ///
    /// The contract mirrors [`ConvSim::simulate_counted_conv_pair`]:
    /// `Some` results MUST be byte-identical to the emulated path (pinned
    /// by the golden proptests). Callers that substitute this result for a
    /// dispatched job should only do so while detail tracing is off — the
    /// fast path intentionally skips per-pair trace events.
    fn analytic_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
    ) -> Option<SimStats> {
        let _ = (kernel, image, shape);
        None
    }

    /// Validated entry point: rejects operands that disagree with `shape`
    /// with a typed [`AntError::InvalidOperand`] before simulating, instead
    /// of panicking (or silently mis-simulating) inside the machine.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidOperand`] naming this machine and the
    /// offending operand.
    fn try_simulate_conv_pair(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> Result<SimStats, AntError> {
        validate_conv_pair(self.name(), kernel, image, shape)?;
        Ok(self.simulate_conv_pair_scratch(kernel, image, shape, scratch))
    }
}

/// A machine that can also simulate a matrix-multiplication pair
/// (paper Section 5).
pub trait MatmulSim: ConvSim {
    /// Simulates `image x kernel` with a caller-owned [`SimScratch`] arena,
    /// returning operation and cycle counts (see
    /// [`ConvSim::simulate_conv_pair_scratch`]).
    fn simulate_matmul_pair_scratch(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> SimStats;

    /// [`MatmulSim::simulate_matmul_pair_scratch`] on this thread's shared
    /// arena ([`with_thread_scratch`]), for callers that keep none.
    fn simulate_matmul_pair(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
    ) -> SimStats {
        with_thread_scratch(|scratch| {
            self.simulate_matmul_pair_scratch(image, kernel, shape, scratch)
        })
    }

    /// Validated entry point: rejects operands that disagree with `shape`
    /// with a typed [`AntError::InvalidOperand`] before simulating.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidOperand`] naming this machine and the
    /// offending operand.
    fn try_simulate_matmul_pair(
        &self,
        image: &CsrMatrix,
        kernel: &CsrMatrix,
        shape: &MatmulShape,
        scratch: &mut SimScratch,
    ) -> Result<SimStats, AntError> {
        validate_matmul_pair(self.name(), image, kernel, shape)?;
        Ok(self.simulate_matmul_pair_scratch(image, kernel, shape, scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::AccumulatorBanks;
    use crate::ant::AntAccelerator;
    use crate::dst::DstAccelerator;
    use crate::inner::{DenseInnerProduct, TensorDash};
    use crate::intersection::IntersectionAccelerator;
    use crate::scnn::ScnnPlus;

    /// The result cache keys on `cache_identity`, so a parameter that
    /// changes results must change the identity, and equal configs must
    /// share one.
    #[test]
    fn machine_identity_splits_on_every_result_changing_parameter() {
        let id = |m: &dyn ConvSim| m.cache_identity().expect("every machine is cacheable");
        let pairs: [(Box<dyn ConvSim>, Box<dyn ConvSim>); 6] = [
            (
                Box::new(AntAccelerator::paper_default()),
                Box::new(
                    AntAccelerator::paper_default()
                        .with_accumulator_banks(AccumulatorBanks::new(8)),
                ),
            ),
            (Box::new(ScnnPlus::new(4)), Box::new(ScnnPlus::new(8))),
            (
                Box::new(IntersectionAccelerator::inference_default()),
                Box::new(IntersectionAccelerator::training_default()),
            ),
            (
                Box::new(TensorDash::new(16, 2, 0.75)),
                Box::new(TensorDash::new(16, 3, 0.75)),
            ),
            (
                Box::new(DstAccelerator::new(16, 0.55)),
                Box::new(DstAccelerator::new(16, 0.6)),
            ),
            (
                Box::new(DenseInnerProduct::new(16)),
                Box::new(DenseInnerProduct::new(32)),
            ),
        ];
        for (a, b) in &pairs {
            assert_ne!(
                id(a.as_ref()),
                id(b.as_ref()),
                "{} vs {}",
                a.name(),
                b.name()
            );
        }
        assert_eq!(
            id(&AntAccelerator::paper_default()),
            id(&AntAccelerator::paper_default())
        );
        assert_eq!(id(&ScnnPlus::new(4)), id(&ScnnPlus::paper_default()));
        assert_eq!(
            id(&IntersectionAccelerator::new(16, 64, false)),
            id(&IntersectionAccelerator::training_default())
        );
        assert_eq!(
            id(&TensorDash::new(16, 2, 0.75)),
            id(&TensorDash::paper_default())
        );
        assert_eq!(
            id(&DstAccelerator::new(16, 0.55)),
            id(&DstAccelerator::paper_default())
        );
    }
}
