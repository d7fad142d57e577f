//! Closed-form cycle/energy models — the analytical fast path.
//!
//! Several machines in this workspace never loop over products at all:
//! their entire [`SimStats`] output is a closed-form function of a handful
//! of scalars (MAC counts, nonzero counts, array geometry). This module
//! collects those closed forms in one place so that
//!
//! * the cycle-accurate machine implementations (`inner.rs`, `scnn.rs`,
//!   `ant.rs`) delegate to them — one copy of the math, equal by
//!   construction, pinned by the golden-equivalence proptests in
//!   `tests/golden.rs`; and
//! * the work-stealing runner can consult
//!   [`ConvSim::analytic_conv_pair`](crate::accelerator::ConvSim::analytic_conv_pair)
//!   *before* dispatching a pair job and skip scheduling entirely when the
//!   machine's result is closed-form (dense inner-product, TensorDash).
//!
//! What is sound to compute here and what is not:
//!
//! * **Dense inner-product** — every MAC executes regardless of operand
//!   content; [`dense_macs`] is the whole machine.
//! * **TensorDash** — one-sided sparsity with a bounded window; the only
//!   operand-dependent input is the kernel's nonzero count, so
//!   [`tensordash_macs`] is exact given `rho`.
//! * **SCNN+** — multiplications are `nnz(kernel) * nnz(image)` by
//!   construction, but the *useful* subset requires the range overlap
//!   counter over actual index structure. [`scnn_products`] is exact
//!   **given** `useful`; producing `useful` still costs a pass over the
//!   operands, so SCNN+ pairs are never runner-skippable.
//! * **ANT** — the FNIR scan has feedback (anticipation decisions depend
//!   on what the scan saw), so `scan_cycles`/`mult_cycles` need emulation;
//!   only the mapping from the anticipator's counters to the
//!   compute/fnir_scan/sram_fetch attribution is closed-form
//!   ([`ant_cycle_terms`]).

use crate::accelerator::STARTUP_CYCLES;
use crate::breakdown::CycleBreakdown;
use crate::stats::SimStats;

/// The dense inner-product machine, closed-form: `macs` multiply-accumulates
/// over `multipliers` lanes with IM2COL-style dense fetch (one image word
/// and one weight word per MAC, no index streams). Exactly
/// `DenseInnerProduct::simulate_conv_pair` for
/// `macs = shape.direct_products()` and `outputs = out_h * out_w`.
pub fn dense_macs(multipliers: usize, macs: u64, outputs: u64) -> SimStats {
    if macs == 0 {
        return SimStats::default();
    }
    let pe_cycles = macs.div_ceil(multipliers as u64);
    let stats = SimStats {
        pe_cycles,
        startup_cycles: STARTUP_CYCLES,
        mults: macs,
        useful_mults: macs,
        rcps_executed: 0,
        rcps_skipped: 0,
        pairs_total: macs,
        kernel_value_reads: macs,
        kernel_index_reads: 0,
        rowptr_reads: 0,
        image_reads: macs,
        index_ops: 0,
        accumulator_writes: outputs,
        accumulator_adds: macs,
        // The dense array never stalls: every cycle multiplies, zero
        // operands included.
        cycles: CycleBreakdown {
            compute: pe_cycles,
            startup: STARTUP_CYCLES,
            ..CycleBreakdown::default()
        },
    };
    stats.debug_assert_cycles_attributed("DaDianNao");
    stats
}

/// TensorDash's speedup over dense for one-sided density `rho`: ideal
/// `1/rho` capped by the `(lookahead + 1) * packing_efficiency` window
/// bound, never below 1.
pub fn tensordash_speedup(lookahead: u64, packing_efficiency: f64, rho: f64) -> f64 {
    if rho <= 0.0 {
        return (lookahead + 1) as f64 * packing_efficiency;
    }
    let ideal = 1.0 / rho;
    let window_bound = (lookahead + 1) as f64 * packing_efficiency;
    ideal.min(window_bound).max(1.0)
}

/// The TensorDash machine, closed-form: `dense_macs` MACs compacted by the
/// bounded-lookahead window at one-sided density `rho`. Exactly
/// `TensorDash::simulate_conv_pair` for `rho = nnz(kernel) / extent`.
pub fn tensordash_macs(
    multipliers: usize,
    lookahead: u64,
    packing_efficiency: f64,
    dense_macs: u64,
    rho: f64,
    outputs: u64,
) -> SimStats {
    if dense_macs == 0 {
        return SimStats::default();
    }
    let speedup = tensordash_speedup(lookahead, packing_efficiency, rho);
    let dense_cycles = dense_macs.div_ceil(multipliers as u64);
    let cycles = ((dense_cycles as f64 / speedup).ceil() as u64).max(1);
    // Executed multiplications: at least the non-zero work, padded by
    // whatever the window could not compact.
    let mults =
        ((dense_macs as f64 / speedup).ceil() as u64).max((dense_macs as f64 * rho).ceil() as u64);
    // Cycles the non-zero work strictly needs are compute; the excess is
    // lanes the bounded lookahead window failed to refill (drain).
    let compute = mults.div_ceil(multipliers as u64).min(cycles);
    let stats = SimStats {
        pe_cycles: cycles,
        startup_cycles: STARTUP_CYCLES,
        mults,
        useful_mults: mults,
        rcps_executed: 0,
        rcps_skipped: 0,
        pairs_total: dense_macs,
        kernel_value_reads: mults,
        kernel_index_reads: mults,
        rowptr_reads: 0,
        image_reads: dense_macs,
        index_ops: mults,
        accumulator_writes: outputs,
        accumulator_adds: mults,
        cycles: CycleBreakdown {
            compute,
            drain: cycles - compute,
            startup: STARTUP_CYCLES,
            ..CycleBreakdown::default()
        },
    };
    stats.debug_assert_cycles_attributed("TensorDash");
    stats
}

/// The SCNN+ machine, closed-form **given** the useful-product count: the
/// full `nnz(kernel) x nnz(image)` cartesian product on an `n x n` array,
/// with the whole compressed kernel streaming past each stationary image
/// group. Exactly `ScnnPlus::simulate_conv_pair` when `useful` comes from
/// the range-overlap counter (that counter is the operand-dependent part
/// SCNN+ cannot skip).
pub fn scnn_products(
    n: usize,
    nnz_kernel: usize,
    nnz_image: usize,
    kernel_rows: usize,
    useful: u64,
) -> SimStats {
    if nnz_kernel == 0 || nnz_image == 0 {
        return SimStats::default();
    }
    let n = n as u64;
    let groups = (nnz_image as u64).div_ceil(n);
    let kernel_batches = (nnz_kernel as u64).div_ceil(n);
    let mults = nnz_kernel as u64 * nnz_image as u64;
    let pe_cycles = groups * kernel_batches;
    let stats = SimStats {
        pe_cycles,
        startup_cycles: STARTUP_CYCLES,
        mults,
        useful_mults: useful,
        rcps_executed: mults - useful,
        rcps_skipped: 0,
        pairs_total: mults,
        // The whole compressed kernel streams past each image group.
        kernel_value_reads: groups * nnz_kernel as u64,
        kernel_index_reads: groups * nnz_kernel as u64,
        rowptr_reads: groups * (kernel_rows as u64 + 1),
        image_reads: 2 * nnz_image as u64,
        // One output-index computation per executed product.
        index_ops: mults,
        accumulator_writes: useful,
        accumulator_adds: useful,
        // Every array cycle executes the full cartesian product, RCPs
        // included — the waste *is* compute here; ANT's win shows up as
        // attributing fewer compute cycles, not as a different cause.
        cycles: CycleBreakdown {
            compute: pe_cycles,
            startup: STARTUP_CYCLES,
            ..CycleBreakdown::default()
        },
    };
    stats.debug_assert_cycles_attributed("SCNN+");
    stats
}

/// ANT's cycle attribution, closed-form over the anticipator's emulated
/// scan counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntCycleTerms {
    /// Total PE cycles: the scan floored by one cycle per image group,
    /// plus accumulator-bank conflict stalls.
    pub pe_cycles: u64,
    /// Scan cycles that issued multiplications.
    pub compute: u64,
    /// Scan cycles that only walked FNIR windows.
    pub fnir_scan: u64,
    /// Group-fetch floor beyond the scan (SRAM fetch pressure).
    pub sram_fetch: u64,
    /// Pipeline start-up (five cycles when any pair existed, else zero).
    pub startup: u64,
}

/// Maps ANT's emulated scan counters to its cycle attribution: each FNIR
/// window is one pipeline cycle, a group whose scan touches nothing still
/// costs its image-fetch cycle, and scan cycles that issued
/// multiplications are compute while the remainder is FNIR window-walk
/// stall. The scan counters themselves require emulation (the FNIR scan
/// has feedback); only this mapping is closed-form.
pub fn ant_cycle_terms(
    scan_cycles: u64,
    mult_cycles: u64,
    groups: u64,
    pairs_total: u64,
    accum_conflicts: u64,
) -> AntCycleTerms {
    let scan_floor = scan_cycles.max(groups);
    let compute = mult_cycles.min(scan_cycles);
    AntCycleTerms {
        pe_cycles: scan_floor + accum_conflicts,
        compute,
        fnir_scan: scan_cycles - compute,
        sram_fetch: scan_floor - scan_cycles,
        startup: if pairs_total > 0 { STARTUP_CYCLES } else { 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_is_free() {
        assert_eq!(dense_macs(16, 0, 9), SimStats::default());
        assert_eq!(tensordash_macs(16, 2, 0.75, 0, 0.5, 9), SimStats::default());
        assert_eq!(scnn_products(4, 0, 10, 3, 0), SimStats::default());
        assert_eq!(scnn_products(4, 10, 0, 3, 0), SimStats::default());
    }

    #[test]
    fn ant_terms_cover_pe_cycles() {
        for (scan, mult, groups, conflicts) in
            [(10, 4, 3, 0), (2, 2, 7, 5), (0, 0, 0, 0), (6, 9, 6, 1)]
        {
            let t = ant_cycle_terms(scan, mult, groups, 1, conflicts);
            assert_eq!(
                t.compute + t.fnir_scan + t.sram_fetch + conflicts,
                t.pe_cycles
            );
            assert_eq!(t.compute + t.fnir_scan, scan);
        }
        assert_eq!(ant_cycle_terms(0, 0, 0, 0, 0).startup, 0);
        assert_eq!(ant_cycle_terms(1, 1, 1, 1, 0).startup, STARTUP_CYCLES);
    }

    #[test]
    fn speedup_saturates_and_floors() {
        assert!((tensordash_speedup(2, 0.75, 0.1) - 2.25).abs() < 1e-12);
        assert!((tensordash_speedup(2, 0.75, 0.8) - 1.25).abs() < 1e-12);
        assert!((tensordash_speedup(2, 0.75, 1.0) - 1.0).abs() < 1e-12);
        assert!((tensordash_speedup(2, 0.75, 0.0) - 2.25).abs() < 1e-12);
    }
}
