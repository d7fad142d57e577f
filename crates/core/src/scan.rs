//! The Kernel Indices Buffer walk with FNIR selection and feedback
//! (paper Section 4.2 items 3–5, Section 4.3 / Fig. 7).
//!
//! For each stationary image group, the ANT PE:
//!
//! 1. clamps the `r` range and touches only the Row-pointers entries inside
//!    it (skipping whole rows of SRAM accesses — the Fig. 7 mechanism);
//! 2. walks the (contiguous, thanks to CSR) Columns-array span of those rows
//!    `k` indices per cycle;
//! 3. lets the FNIR block pick up to `n` in-`s`-range indices per cycle for
//!    the value fetch, using the `n+1`-st valid position as feedback to jump
//!    the next window forward past invalid regions;
//! 4. fetches values *only* for selected indices.
//!
//! [`scan_kernel`] executes this walk and reports every SRAM access and
//! every selected element. The anticipator's counters-only pair path runs
//! the same walk but only counts the selections, since the cycle/energy
//! simulator in `ant-sim` needs nothing else.

use std::ops::Range;

use ant_conv::rcp::IndexRange;
use ant_sparse::CsrMatrix;

use crate::fnir::Fnir;
use crate::range::GroupRanges;

/// One kernel element selected for the multiplier array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedEntry {
    /// Kernel row index `r`.
    pub r: usize,
    /// Kernel column index `s`.
    pub s: usize,
    /// Kernel value.
    pub value: f32,
    /// The scan cycle (FNIR window) in which the element was selected.
    pub cycle: u64,
}

/// Result of walking one kernel against one image group's ranges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelScan {
    /// FNIR windows consumed — one per cycle.
    pub cycles: u64,
    /// Cycles in which at least one value was sent to the multiplier array.
    pub mult_cycles: u64,
    /// Selected kernel elements in stream order.
    pub selected: Vec<SelectedEntry>,
    /// Row-pointer SRAM reads.
    pub rowptr_reads: u64,
    /// Columns-array SRAM reads.
    pub colidx_reads: u64,
    /// Values-array SRAM reads (= selected elements).
    pub value_reads: u64,
    /// FNIR comparator operations (2 per examined lane).
    pub fnir_comparator_ops: u64,
}

impl KernelScan {
    /// Columns-array entries the scan *skipped* relative to reading the
    /// whole kernel (the Fig. 7 savings).
    pub fn colidx_skipped(&self, kernel_nnz: usize) -> u64 {
        kernel_nnz as u64 - self.colidx_reads.min(kernel_nnz as u64)
    }

    /// Values-array entries the scan skipped relative to the whole kernel.
    pub fn values_skipped(&self, kernel_nnz: usize) -> u64 {
        kernel_nnz as u64 - self.value_reads.min(kernel_nnz as u64)
    }

    /// Zeroes every counter and clears `selected` while keeping its
    /// capacity, so a `KernelScan` can be reused across groups and pairs
    /// without reallocating.
    pub fn reset(&mut self) {
        self.cycles = 0;
        self.mult_cycles = 0;
        self.selected.clear();
        self.rowptr_reads = 0;
        self.colidx_reads = 0;
        self.value_reads = 0;
        self.fnir_comparator_ops = 0;
    }
}

/// Walks `kernel` (CSR) against the image-group `ranges` using an `n x n`
/// multiplier array and a `k`-wide FNIR window.
///
/// The ablation switches mirror the paper's Fig. 14 study: with
/// `ranges.r`/`ranges.s` unbounded (see
/// [`GroupRanges`] construction), the corresponding condition is disabled.
///
/// # Panics
///
/// Panics if `fnir`'s parameters are inconsistent (cannot happen for a block
/// built with [`Fnir::new`]).
pub fn scan_kernel(kernel: &CsrMatrix, ranges: &GroupRanges, fnir: &Fnir) -> KernelScan {
    let mut scan = KernelScan::default();
    scan_kernel_into(kernel, ranges, fnir, &mut scan);
    scan
}

/// [`scan_kernel`] into a caller-owned [`KernelScan`], reusing its
/// `selected` capacity, so a warm scan allocates nothing:
/// FNIR windows are evaluated word-parallel via [`Fnir::select_cols`]
/// directly on the CSR columns slice (no per-window `Vec` collect), and the
/// row of each selected element is recovered with a forward row-pointer
/// cursor instead of a per-span row table.
pub fn scan_kernel_into(
    kernel: &CsrMatrix,
    ranges: &GroupRanges,
    fnir: &Fnir,
    scan: &mut KernelScan,
) {
    let mut selected = std::mem::take(&mut scan.selected);
    selected.clear();
    let (row_ptr, cols, vals) = (kernel.row_ptr(), kernel.col_idx(), kernel.values());
    // Selected positions are strictly increasing, so one forward walk of the
    // row-pointer table, from the first row in range, recovers each
    // position's kernel row.
    let mut cur_row = first_row(kernel, ranges.r);
    walk_kernel(kernel, ranges, fnir, scan, |idx, cycle| {
        while row_ptr[cur_row + 1] <= idx {
            cur_row += 1;
        }
        selected.push(SelectedEntry {
            r: cur_row,
            s: cols[idx],
            value: vals[idx],
            cycle,
        });
    });
    scan.selected = selected;
}

/// The Kernel Indices Buffer walk behind [`scan_kernel_into`] and the
/// anticipator's counters-only pair path: clamps the `r` range, then moves
/// a `k`-wide FNIR window over the Columns-array span of the rows inside it,
/// jumping to the feedback output when there is one. Every SRAM access and
/// comparator operation lands in `scan`'s counters (its `selected` stream
/// is cleared and left empty); `on_selected(idx, cycle)` sees the position
/// of each selected element in the kernel's CSR arrays, in strictly
/// increasing order, with the scan cycle that selected it.
pub(crate) fn walk_kernel(
    kernel: &CsrMatrix,
    ranges: &GroupRanges,
    fnir: &Fnir,
    scan: &mut KernelScan,
    mut on_selected: impl FnMut(usize, u64),
) {
    scan.reset();
    // Clamp the r range to the kernel's rows; an empty clamp means every
    // product would be an RCP and nothing is read at all.
    let Some((r_lo, r_hi)) = ranges.r.clamp_to(kernel.rows()) else {
        return;
    };
    // Row pointers delimiting rows r_lo ..= r_hi: entries r_lo .. r_hi+1.
    scan.rowptr_reads = (r_hi - r_lo + 2) as u64;
    let row_ptr = kernel.row_ptr();
    let start = row_ptr[r_lo];
    let cols = &kernel.col_idx()[start..row_ptr[r_hi + 1]];
    let k = fnir.k();
    let mut ptr = 0usize;
    while ptr < cols.len() {
        let window = &cols[ptr..(ptr + k).min(cols.len())];
        scan.colidx_reads += window.len() as u64;
        let cycle = scan.cycles;
        let out = fnir.select_cols(ranges.s.min, ranges.s.max, window, |pos| {
            on_selected(start + ptr + pos, cycle)
        });
        scan.fnir_comparator_ops += out.comparator_ops;
        scan.value_reads += u64::from(out.selected);
        if out.selected > 0 {
            scan.mult_cycles += 1;
        }
        scan.cycles += 1;
        // Feedback: jump to the n+1-st valid index, else advance by k. The
        // jump always clears every selected lane, so positions only grow.
        ptr = match out.feedback {
            Some(fb) => ptr + fb,
            None => ptr + k,
        };
    }
}

/// Walks `kernel` in matmul mode (paper Section 5): rows inside the `r`
/// range are streamed `n` per cycle with *no* FNIR filtering (stages 3–4 of
/// the pipeline are bypassed); every streamed element feeds the multiplier.
pub fn scan_kernel_matmul(kernel: &CsrMatrix, r: IndexRange, n: usize) -> KernelScan {
    let mut scan = KernelScan::default();
    scan_kernel_matmul_into(kernel, r, n, &mut scan);
    scan
}

/// [`scan_kernel_matmul`] into a caller-owned [`KernelScan`] (see
/// [`scan_kernel_into`] for the reuse contract).
pub fn scan_kernel_matmul_into(kernel: &CsrMatrix, r: IndexRange, n: usize, scan: &mut KernelScan) {
    assert!(n > 0, "multiplier dimension must be non-zero");
    let span = stream_kernel_matmul(kernel, r, n, scan);
    let (row_ptr, cols, vals) = (kernel.row_ptr(), kernel.col_idx(), kernel.values());
    let mut cur_row = first_row(kernel, r);
    for idx in span.clone() {
        while row_ptr[cur_row + 1] <= idx {
            cur_row += 1;
        }
        scan.selected.push(SelectedEntry {
            r: cur_row,
            s: cols[idx],
            value: vals[idx],
            cycle: ((idx - span.start) / n) as u64,
        });
    }
}

/// The first kernel row inside `r` (0 when none is: nothing is selected).
fn first_row(kernel: &CsrMatrix, r: IndexRange) -> usize {
    r.clamp_to(kernel.rows()).map_or(0, |(r_lo, _)| r_lo)
}

/// The matmul-mode stream in closed form, shared by
/// [`scan_kernel_matmul_into`] and the anticipator's counters-only pair
/// path: every element of the rows inside the clamped `r` range streams,
/// `n` per cycle, each cycle feeding the multiplier. Resets `scan`, fills
/// its counters (its `selected` stream is left empty) and returns the
/// streamed span of positions in the kernel's CSR arrays.
pub(crate) fn stream_kernel_matmul(
    kernel: &CsrMatrix,
    r: IndexRange,
    n: usize,
    scan: &mut KernelScan,
) -> Range<usize> {
    scan.reset();
    let Some((r_lo, r_hi)) = r.clamp_to(kernel.rows()) else {
        return 0..0;
    };
    scan.rowptr_reads = (r_hi - r_lo + 2) as u64;
    let span = kernel.row_ptr()[r_lo]..kernel.row_ptr()[r_hi + 1];
    let len = span.len() as u64;
    scan.colidx_reads = len;
    scan.value_reads = len;
    scan.cycles = len.div_ceil(n as u64);
    scan.mult_cycles = scan.cycles;
    span
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::compute_ranges;
    use ant_conv::ConvShape;
    use ant_sparse::DenseMatrix;

    fn fig7_like_kernel() -> CsrMatrix {
        // 4x4 kernel with 9 non-zeros spread over all rows, echoing the
        // paper's Fig. 7 walkthrough.
        CsrMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 6.0),
                (3, 1, 7.0),
                (3, 2, 8.0),
                (3, 3, 9.0),
            ],
        )
        .unwrap()
    }

    fn unbounded() -> IndexRange {
        IndexRange {
            min: i64::MIN,
            max: i64::MAX,
        }
    }

    #[test]
    fn fig7_example_skips_sram_accesses() {
        // Paper Fig. 7: r in [2, 3], s in [1, 2] -> only positions 3..8 of
        // the Columns array are touched and only 3 values fetched.
        let kernel = fig7_like_kernel();
        let ranges = crate::range::GroupRanges {
            r: IndexRange { min: 2, max: 3 },
            s: IndexRange { min: 1, max: 2 },
            ops: Default::default(),
        };
        let fnir = Fnir::new(4, 16).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        // Rows 2 and 3 hold 6 entries; the window reads all 6 of them.
        assert_eq!(scan.colidx_reads, 6);
        // Values fetched only for s in [1,2]: (2,1), (2,2), (3,1), (3,2).
        assert_eq!(scan.value_reads, 4);
        assert_eq!(scan.selected.len(), 4);
        assert!(scan
            .selected
            .iter()
            .all(|e| (1..=2).contains(&e.s) && (2..=3).contains(&e.r)));
        // Fig. 7 accounting: 3 of 9 Columns reads skipped, 5 of 9 values.
        assert_eq!(scan.colidx_skipped(kernel.nnz()), 3);
        assert_eq!(scan.values_skipped(kernel.nnz()), 5);
    }

    #[test]
    fn empty_r_range_reads_nothing() {
        let kernel = fig7_like_kernel();
        let ranges = crate::range::GroupRanges {
            r: IndexRange { min: -5, max: -1 },
            s: unbounded(),
            ops: Default::default(),
        };
        let fnir = Fnir::new(4, 16).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        assert_eq!(scan.cycles, 0);
        assert_eq!(scan.colidx_reads, 0);
        assert_eq!(scan.rowptr_reads, 0);
        assert!(scan.selected.is_empty());
    }

    #[test]
    fn unbounded_ranges_select_everything() {
        let kernel = fig7_like_kernel();
        let ranges = crate::range::GroupRanges {
            r: unbounded(),
            s: unbounded(),
            ops: Default::default(),
        };
        let fnir = Fnir::new(4, 16).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        assert_eq!(scan.selected.len(), kernel.nnz());
        assert_eq!(scan.value_reads, kernel.nnz() as u64);
    }

    #[test]
    fn feedback_resumes_at_n_plus_first_valid() {
        // With n=1, k=4 and all indices valid, the scan must not skip any
        // valid element: feedback jumps to position of the 2nd valid.
        let dense = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]);
        let kernel = CsrMatrix::from_dense(&dense);
        let ranges = crate::range::GroupRanges {
            r: unbounded(),
            s: unbounded(),
            ops: Default::default(),
        };
        let fnir = Fnir::new(1, 4).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        assert_eq!(scan.selected.len(), 8);
        // One element selected per cycle.
        assert_eq!(scan.cycles, 8);
    }

    #[test]
    fn feedback_skips_invalid_regions_quickly() {
        // Row of 16 entries, only the last in range: without feedback the
        // scan would take ceil(16/4)=4 cycles; it still does (no valid n+1st
        // to jump to), but reads all 16 column indices and fetches 1 value.
        let dense = DenseMatrix::from_fn(1, 16, |_, c| (c + 1) as f32);
        let kernel = CsrMatrix::from_dense(&dense);
        let ranges = crate::range::GroupRanges {
            r: unbounded(),
            s: IndexRange { min: 15, max: 15 },
            ops: Default::default(),
        };
        let fnir = Fnir::new(3, 4).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        assert_eq!(scan.value_reads, 1);
        assert_eq!(scan.selected[0].s, 15);
    }

    #[test]
    fn scan_agrees_with_range_filter() {
        // Everything the scan selects is inside both ranges, and everything
        // inside both ranges is selected exactly once.
        let kernel = fig7_like_kernel();
        let shape = ConvShape::new(4, 4, 8, 8, 1).unwrap();
        let group = [(2usize, 3usize), (3, 1), (3, 6)];
        let ranges = compute_ranges(&shape, &group);
        let fnir = Fnir::new(2, 8).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        let expected: Vec<(usize, usize)> = kernel
            .iter()
            .filter(|&(r, s, _)| ranges.r.contains(r as i64) && ranges.s.contains(s as i64))
            .map(|(r, s, _)| (r, s))
            .collect();
        let got: Vec<(usize, usize)> = scan.selected.iter().map(|e| (e.r, e.s)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn mult_cycles_never_exceed_cycles() {
        let kernel = fig7_like_kernel();
        let ranges = crate::range::GroupRanges {
            r: unbounded(),
            s: IndexRange { min: 2, max: 3 },
            ops: Default::default(),
        };
        let fnir = Fnir::new(2, 4).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        assert!(scan.mult_cycles <= scan.cycles);
        assert_eq!(scan.value_reads, scan.selected.len() as u64);
    }

    #[test]
    fn matmul_scan_streams_rows_in_range() {
        let kernel = fig7_like_kernel();
        let scan = scan_kernel_matmul(&kernel, IndexRange { min: 1, max: 2 }, 4);
        // Rows 1..=2 hold 4 entries.
        assert_eq!(scan.selected.len(), 4);
        assert_eq!(scan.cycles, 1);
        assert_eq!(scan.fnir_comparator_ops, 0);
        let scan_small = scan_kernel_matmul(&kernel, IndexRange { min: 1, max: 2 }, 2);
        assert_eq!(scan_small.cycles, 2);
    }

    #[test]
    fn matmul_scan_empty_range() {
        let kernel = fig7_like_kernel();
        let scan = scan_kernel_matmul(&kernel, IndexRange { min: 9, max: 20 }, 4);
        assert_eq!(scan.cycles, 0);
        assert!(scan.selected.is_empty());
    }

    #[test]
    fn reused_scratch_matches_fresh_scan() {
        // A dirty, previously-used KernelScan must produce the same result
        // as a fresh one for both scan flavors.
        let kernel = fig7_like_kernel();
        let fnir = Fnir::new(2, 4).unwrap();
        let ranges_a = crate::range::GroupRanges {
            r: unbounded(),
            s: IndexRange { min: 1, max: 3 },
            ops: Default::default(),
        };
        let ranges_b = crate::range::GroupRanges {
            r: IndexRange { min: 2, max: 3 },
            s: IndexRange { min: 0, max: 2 },
            ops: Default::default(),
        };
        let mut scratch = KernelScan::default();
        scan_kernel_into(&kernel, &ranges_a, &fnir, &mut scratch);
        scan_kernel_into(&kernel, &ranges_b, &fnir, &mut scratch);
        assert_eq!(scratch, scan_kernel(&kernel, &ranges_b, &fnir));

        scan_kernel_matmul_into(&kernel, IndexRange { min: 0, max: 3 }, 2, &mut scratch);
        scan_kernel_matmul_into(&kernel, IndexRange { min: 1, max: 2 }, 4, &mut scratch);
        assert_eq!(
            scratch,
            scan_kernel_matmul(&kernel, IndexRange { min: 1, max: 2 }, 4)
        );
    }

    #[test]
    fn row_cursor_skips_empty_rows() {
        // Rows 1 and 3 are empty; the cursor walk must still attribute the
        // correct r to every selected entry.
        let kernel = CsrMatrix::from_triplets(
            5,
            4,
            vec![(0, 1, 1.0), (2, 0, 2.0), (2, 3, 3.0), (4, 2, 4.0)],
        )
        .unwrap();
        let ranges = crate::range::GroupRanges {
            r: unbounded(),
            s: unbounded(),
            ops: Default::default(),
        };
        let fnir = Fnir::new(2, 4).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        let got: Vec<(usize, usize)> = scan.selected.iter().map(|e| (e.r, e.s)).collect();
        assert_eq!(got, vec![(0, 1), (2, 0), (2, 3), (4, 2)]);
        let matmul = scan_kernel_matmul(&kernel, unbounded(), 3);
        let got_mm: Vec<(usize, usize)> = matmul.selected.iter().map(|e| (e.r, e.s)).collect();
        assert_eq!(got_mm, vec![(0, 1), (2, 0), (2, 3), (4, 2)]);
    }
}
