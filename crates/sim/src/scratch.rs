//! Reusable per-worker scratch arena for the per-pair simulation hot path.
//!
//! Simulating a network runs hundreds of thousands of kernel/image pairs
//! through the machines. Each pair's working set (anticipator buffers,
//! useful-count row masks, per-column counts) is shape-bounded and identical in
//! structure from pair to pair, so one [`SimScratch`] per worker amortizes
//! every allocation: after the first pair warms the buffers up to the
//! largest shapes seen, the steady state performs **zero** heap allocations
//! (asserted by the alloc-regression tests in `ant-bench` via the PR 3
//! counting allocator).
//!
//! # Ownership rules (for machine authors)
//!
//! * The scratch is owned by the *worker* (thread or scheduler slot), never
//!   by a machine: machines receive `&mut SimScratch` per call and must not
//!   stash state in it across calls. Every run must fully re-initialize
//!   whatever scratch state it reads (`clear()` + `extend`, `reset_zeroed`,
//!   `resize(_, 0)` — never assume prior contents).
//! * Results must not depend on the arena's history: the scratch trait
//!   methods are the semantic definition, the scratch-less ones run them on
//!   the thread's shared arena, and the golden proptests in `ant-sim/tests`
//!   compare the two paths exactly.
//! * A machine that needs a new buffer adds a field here (grow-only, reused
//!   via `clear`), so all machines share one arena per worker.
//! * Never call another machine's *non*-scratch entry point from inside a
//!   scratch method — route the scratch through, or the thread-local
//!   fallback will silently hand out a fresh arena.

use std::cell::RefCell;

use ant_conv::rcp::NzCounterScratch;
use ant_core::AntScratch;

/// Per-worker scratch arena threaded through
/// [`ConvSim::simulate_conv_pair_scratch`](crate::ConvSim::simulate_conv_pair_scratch)
/// and
/// [`MatmulSim::simulate_matmul_pair_scratch`](crate::MatmulSim::simulate_matmul_pair_scratch).
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Anticipator working memory (entries, range tables, scan, output).
    /// ANT's pairs take the counters-only path, which leaves the output
    /// untouched; only a banked ANT fills it.
    pub ant: AntScratch,
    /// Row masks for counting an uncounted pair's useful products
    /// ([`ConvSim::simulate_conv_pair_scratch`](crate::ConvSim::simulate_conv_pair_scratch)).
    pub nz_counter: NzCounterScratch,
    /// Per-column non-zero counts for matmul outer products.
    pub col_nnz: Vec<u64>,
    /// Per-bank occupancy counts for accumulator-conflict modelling
    /// (ANT with [`crate::accum::AccumulatorBanks`] enabled).
    pub bank_counts: Vec<u32>,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Runs `f` with this thread's shared [`SimScratch`].
///
/// This is how the scratch-less trait methods get allocation reuse for
/// free: serial callers all run on one thread and therefore share one warm
/// arena. Re-entrant calls (a machine invoked from inside another
/// machine's scratch run) fall back to a fresh scratch rather than
/// panicking on the `RefCell`.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SimScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_scratch_is_reused_within_a_thread() {
        let first = with_thread_scratch(|s| {
            s.col_nnz.resize(16, 7);
            s.col_nnz.as_ptr() as usize
        });
        let second = with_thread_scratch(|s| {
            // Contents persist between calls on the same thread; callers
            // must re-initialize what they read.
            assert_eq!(s.col_nnz.len(), 16);
            s.col_nnz.as_ptr() as usize
        });
        assert_eq!(first, second);
    }

    #[test]
    fn reentrant_use_falls_back_to_fresh_scratch() {
        with_thread_scratch(|outer| {
            outer.col_nnz.clear();
            outer.col_nnz.push(1);
            with_thread_scratch(|inner| {
                assert!(inner.col_nnz.is_empty(), "inner scratch must be fresh");
            });
            assert_eq!(outer.col_nnz, vec![1]);
        });
    }
}
