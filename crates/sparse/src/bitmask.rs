//! Bitmask (bitmap) sparsity format.
//!
//! Intersection accelerators like GoSPA represent one operand's sparsity
//! pattern as a bitmask — the "Static Sparsity Filter" (paper Section 2.2) —
//! so matching non-zero pairs can be found with bitwise ANDs. The paper's
//! argument against intersection machines for training is precisely that
//! this mask must be rebuilt from CSR every convolution when sparsity is
//! dynamic; [`Bitmask::from_csr`] is that rebuild, and its cost model lives
//! in `ant-sim`'s intersection machine.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// A dense bitmap of a matrix's non-zero positions, packed row-major into
/// 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmask {
    rows: usize,
    cols: usize,
    words: Vec<u64>,
}

impl Bitmask {
    /// An all-zero mask.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        Self {
            rows,
            cols,
            words: vec![0; Self::words_for(rows, cols)],
        }
    }

    /// Number of 64-bit words a `rows x cols` mask occupies — the same
    /// value [`Bitmask::rebuild_words`] reports, but computable without
    /// materializing the mask (cost models that only need the word count
    /// should use this instead of building a throwaway mask).
    pub fn words_for(rows: usize, cols: usize) -> usize {
        (rows * cols).div_ceil(64)
    }

    /// Builds the mask of a CSR matrix's non-zero positions (the dynamic
    /// filter rebuild).
    pub fn from_csr(matrix: &CsrMatrix) -> Self {
        let mut mask = Self::zeros(matrix.rows(), matrix.cols());
        for (r, c, _) in matrix.iter() {
            mask.set(r, c, true);
        }
        mask
    }

    /// Builds the mask of a dense matrix's non-zero positions.
    pub fn from_dense(matrix: &DenseMatrix) -> Self {
        let mut mask = Self::zeros(matrix.rows(), matrix.cols());
        for (r, c, _) in matrix.iter_nonzero() {
            mask.set(r, c, true);
        }
        mask
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn bit(&self, row: usize, col: usize) -> (usize, u64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let idx = row * self.cols + col;
        (idx / 64, 1u64 << (idx % 64))
    }

    /// Whether position `(row, col)` is set.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> bool {
        let (word, bit) = self.bit(row, col);
        self.words[word] & bit != 0
    }

    /// Sets or clears position `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        let (word, bit) = self.bit(row, col);
        if value {
            self.words[word] |= bit;
        } else {
            self.words[word] &= !bit;
        }
    }

    /// Population count (non-zero positions).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND with another mask of the same shape — the intersection
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn and(&self, other: &Bitmask) -> Bitmask {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Bitmask {
            rows: self.rows,
            cols: self.cols,
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Bitwise AND with another mask of the same shape, in place — the
    /// non-allocating intersection primitive for hot loops.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn and_assign(&mut self, other: &Bitmask) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// Population count of the intersection with `other`, without
    /// materializing the AND result: one word-level pass of `AND` +
    /// `popcnt`. Equivalent to `self.and(other).count_ones()`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn and_count_ones(&self, other: &Bitmask) -> usize {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates the set positions in row-major order.
    ///
    /// Walks 64-bit words and peels set bits with `trailing_zeros`, so a
    /// sparse mask costs O(words + popcount) rather than O(rows * cols)
    /// per-bit probes.
    pub fn iter_set(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(wi, &word)| {
                std::iter::successors((word != 0).then_some(word), |&rest| {
                    let rest = rest & (rest - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |w| wi * 64 + w.trailing_zeros() as usize)
            })
            .filter(move |&i| i < self.rows * cols)
            .map(move |i| (i / cols, i % cols))
    }

    /// Storage in bits (the SRAM/area cost of holding the filter).
    pub fn storage_bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of 64-bit words an SRAM port writes to build this mask — the
    /// per-convolution rebuild traffic the paper's dynamic-sparsity argument
    /// rests on.
    pub fn rebuild_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]])
    }

    #[test]
    fn from_dense_sets_nonzero_positions() {
        let mask = Bitmask::from_dense(&sample());
        assert!(mask.get(0, 0));
        assert!(!mask.get(0, 1));
        assert!(mask.get(1, 1));
        assert_eq!(mask.count_ones(), 3);
    }

    #[test]
    fn from_csr_matches_from_dense() {
        let dense = sample();
        let via_csr = Bitmask::from_csr(&CsrMatrix::from_dense(&dense));
        assert_eq!(via_csr, Bitmask::from_dense(&dense));
    }

    #[test]
    fn set_and_clear() {
        let mut mask = Bitmask::zeros(4, 4);
        mask.set(2, 3, true);
        assert!(mask.get(2, 3));
        mask.set(2, 3, false);
        assert!(!mask.get(2, 3));
        assert_eq!(mask.count_ones(), 0);
    }

    #[test]
    fn and_is_intersection() {
        let a = Bitmask::from_dense(&DenseMatrix::from_rows(&[&[1.0, 1.0, 0.0]]));
        let b = Bitmask::from_dense(&DenseMatrix::from_rows(&[&[0.0, 1.0, 1.0]]));
        let c = a.and(&b);
        assert_eq!(c.count_ones(), 1);
        assert!(c.get(0, 1));
    }

    #[test]
    fn iter_set_is_row_major() {
        let mask = Bitmask::from_dense(&sample());
        let set: Vec<_> = mask.iter_set().collect();
        assert_eq!(set, vec![(0, 0), (0, 2), (1, 1)]);
    }

    #[test]
    fn crosses_word_boundaries() {
        // 10x10 = 100 bits spans two words.
        let mut mask = Bitmask::zeros(10, 10);
        mask.set(9, 9, true);
        mask.set(6, 3, true); // bit 63 -> last bit of word 0
        assert!(mask.get(9, 9));
        assert!(mask.get(6, 3));
        assert_eq!(mask.count_ones(), 2);
        assert_eq!(mask.rebuild_words(), 2);
    }

    #[test]
    fn storage_accounting() {
        let mask = Bitmask::zeros(16, 16);
        assert_eq!(mask.storage_bits(), 256);
        assert_eq!(mask.rebuild_words(), 4);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn and_rejects_mismatched_shapes() {
        let a = Bitmask::zeros(2, 2);
        let b = Bitmask::zeros(2, 3);
        let _ = a.and(&b);
    }

    #[test]
    fn and_assign_matches_and() {
        let a = Bitmask::from_dense(&DenseMatrix::from_rows(&[
            &[1.0, 1.0, 0.0],
            &[0.0, 2.0, 3.0],
        ]));
        let b = Bitmask::from_dense(&DenseMatrix::from_rows(&[
            &[0.0, 1.0, 1.0],
            &[4.0, 0.0, 5.0],
        ]));
        let expected = a.and(&b);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c, expected);
    }

    #[test]
    fn and_count_ones_matches_materialized_and() {
        let mut a = Bitmask::zeros(10, 10);
        let mut b = Bitmask::zeros(10, 10);
        for i in 0..10 {
            a.set(i, (i * 3) % 10, true);
            b.set(i, (i * 7) % 10, true);
            b.set(i, (i * 3) % 10, true);
        }
        assert_eq!(a.and_count_ones(&b), a.and(&b).count_ones());
        assert_eq!(a.and_count_ones(&b), 10);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn and_count_ones_rejects_mismatched_shapes() {
        let a = Bitmask::zeros(2, 2);
        let b = Bitmask::zeros(3, 2);
        let _ = a.and_count_ones(&b);
    }

    #[test]
    fn words_for_matches_rebuild_words() {
        for (r, c) in [(1, 1), (2, 3), (6, 11), (10, 10), (16, 16), (13, 64)] {
            assert_eq!(
                Bitmask::words_for(r, c),
                Bitmask::zeros(r, c).rebuild_words()
            );
        }
    }

    #[test]
    fn iter_set_handles_dense_and_boundary_bits() {
        // Every bit set in a mask that does not end on a word boundary.
        let mut mask = Bitmask::zeros(9, 9);
        for r in 0..9 {
            for c in 0..9 {
                mask.set(r, c, true);
            }
        }
        let set: Vec<_> = mask.iter_set().collect();
        assert_eq!(set.len(), 81);
        assert_eq!(set.first(), Some(&(0, 0)));
        assert_eq!(set.last(), Some(&(8, 8)));
        // Row-major and strictly increasing.
        assert!(set.windows(2).all(|w| w[0] < w[1]));
    }
}
