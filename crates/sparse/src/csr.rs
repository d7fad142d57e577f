//! Compressed Sparse Row (CSR) matrices.
//!
//! CSR is the format the ANT processing element consumes (paper Section 4.1):
//! a `Values` array of non-zeros in row-major order, a `Row-pointers` array
//! marking where each row starts inside `Values`, and a `Columns` array with
//! the column index of each non-zero. The indirection of `Row-pointers` is
//! what lets ANT skip whole rows of SRAM accesses (paper Fig. 7); the
//! monotonically increasing row coordinate of sequential entries is what lets
//! the `r` range computation use `y_0`/`y_{n-1}` directly (paper Eq. 12).

use std::fmt;

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// A Compressed Sparse Row matrix of `f32` values.
///
/// Invariants (enforced at construction):
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == values.len()`, non-decreasing.
/// * `col_idx.len() == values.len()`, each index `< cols`, strictly
///   increasing within a row.
/// * Stored values may be zero only if explicitly inserted (conversions from
///   dense never store zeros).
///
/// # Example
///
/// ```
/// use ant_sparse::{CsrMatrix, DenseMatrix};
///
/// let dense = DenseMatrix::from_rows(&[
///     &[0.0, 7.0],
///     &[0.0, 0.0],
///     &[3.0, 0.0],
/// ]);
/// let csr = CsrMatrix::from_dense(&dense);
/// assert_eq!(csr.row_ptr(), &[0, 1, 1, 2]);
/// assert_eq!(csr.col_idx(), &[1, 0]);
/// assert_eq!(csr.values(), &[7.0, 3.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating all format invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`SparseError`] describing the first violated invariant.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if rows == 0 || cols == 0 {
            return Err(SparseError::InvalidDimensions { rows, cols });
        }
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::InvalidRowPointers {
                reason: "row_ptr length must be rows + 1",
            });
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidRowPointers {
                reason: "row_ptr must start at 0",
            });
        }
        if *row_ptr.last().expect("non-empty") != values.len() {
            return Err(SparseError::InvalidRowPointers {
                reason: "row_ptr must end at values.len()",
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidRowPointers {
                reason: "row_ptr must be non-decreasing",
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                values: values.len(),
                indices: col_idx.len(),
            });
        }
        for row in 0..rows {
            let span = &col_idx[row_ptr[row]..row_ptr[row + 1]];
            for (i, &c) in span.iter().enumerate() {
                if c >= cols {
                    return Err(SparseError::InvalidColumnIndex { row, col: c, cols });
                }
                if i > 0 && span[i - 1] >= c {
                    if span[i - 1] == c {
                        return Err(SparseError::DuplicateEntry { row, col: c });
                    }
                    return Err(SparseError::InvalidColumnIndex { row, col: c, cols });
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts a dense matrix to CSR, dropping exact zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..dense.rows() {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Assembles a matrix from arrays its caller built in CSR order
    /// (row pointers from 0 to `values.len()`, columns strictly increasing
    /// within each row), without re-validating them in release builds.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        debug_assert!(
            Self::from_raw(rows, cols, row_ptr.clone(), col_idx.clone(), values.clone()).is_ok(),
            "parts must satisfy the CSR invariants"
        );
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets (any order,
    /// zeros skipped).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DuplicateEntry`] on repeated coordinates and
    /// [`SparseError::InvalidColumnIndex`] on out-of-range coordinates.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Result<Self, SparseError> {
        if rows == 0 || cols == 0 {
            return Err(SparseError::InvalidDimensions { rows, cols });
        }
        let mut entries: Vec<(usize, usize, f32)> =
            triplets.into_iter().filter(|&(_, _, v)| v != 0.0).collect();
        for &(r, c, _) in &entries {
            if r >= rows || c >= cols {
                return Err(SparseError::InvalidColumnIndex {
                    row: r,
                    col: c,
                    cols,
                });
            }
        }
        entries.sort_by_key(|&(r, c, _)| (r, c));
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(SparseError::DuplicateEntry {
                    row: w[0].0,
                    col: w[0].1,
                });
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &entries {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = entries.iter().map(|&(_, c, _)| c).collect();
        let values = entries.iter().map(|&(_, _, v)| v).collect();
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// An empty (all-zero) `rows x cols` CSR matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of elements that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (one entry per non-zero).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The values array (one entry per non-zero).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The half-open range of entry positions belonging to `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        assert!(row < self.rows, "row out of bounds");
        self.row_ptr[row]..self.row_ptr[row + 1]
    }

    /// The `(col_idx, values)` slices of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_entries(&self, row: usize) -> (&[usize], &[f32]) {
        let range = self.row_range(row);
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Looks up element `(row, col)`, returning 0.0 when absent.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (cols, vals) = self.row_entries(row);
        match cols.binary_search(&col) {
            Ok(i) => vals[i],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            matrix: self,
            row: 0,
            pos: 0,
        }
    }

    /// Converts back to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out[(r, c)] = v;
        }
        out
    }

    /// Converts to the dual CSC representation.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_triplets(self.rows, self.cols, self.iter())
            .expect("valid CSR produces valid triplets")
    }

    /// Rotates the matrix by 180 degrees via index remapping only
    /// (paper Algorithm 3): entry `(y, x)` maps to `(H-1-y, W-1-x)`.
    ///
    /// The values array content is preserved (reversed in storage order so
    /// the result is valid CSR); no arithmetic on values occurs, mirroring
    /// the hardware's pure index transformation.
    pub fn rotate180(&self) -> Self {
        let mut row_ptr = vec![0usize; self.rows + 1];
        // Row y has row_ptr[y+1]-row_ptr[y] entries; rotated row H-1-y has the
        // same count.
        for y in 0..self.rows {
            let count = self.row_ptr[y + 1] - self.row_ptr[y];
            row_ptr[self.rows - 1 - y + 1] += count;
        }
        for y in 0..self.rows {
            row_ptr[y + 1] += row_ptr[y];
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor: Vec<usize> = row_ptr[..self.rows].to_vec();
        // Walk original rows from the bottom so each rotated row fills in
        // increasing column order.
        for y in (0..self.rows).rev() {
            let new_row = self.rows - 1 - y;
            let (cols, vals) = self.row_entries(y);
            for (i, (&x, &v)) in cols.iter().zip(vals.iter()).enumerate().rev() {
                let _ = i;
                let pos = cursor[new_row];
                cursor[new_row] += 1;
                col_idx[pos] = self.cols - 1 - x;
                values[pos] = v;
            }
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dilates by `factor` and zero-pads by `pad_h` rows and `pad_w`
    /// columns on each side via index remapping only: entry `(y, x)` maps
    /// to `(pad_h + y * factor, pad_w + x * factor)` in a
    /// `(rows - 1) * factor + 1 + 2 * pad_h` by
    /// `(cols - 1) * factor + 1 + 2 * pad_w` matrix.
    ///
    /// With `factor == 1` this is plain padding (a padded feature map);
    /// with `pad = (R - 1, S - 1)` and the forward stride it is the
    /// backward phase's image (paper Eq. 2: the upstream gradient dilated
    /// by the stride, then padded for the full convolution). Like
    /// [`CsrMatrix::rotate180`], no arithmetic on values occurs and the
    /// map is monotone, so the storage order carries over unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn dilate_pad(&self, factor: usize, pad_h: usize, pad_w: usize) -> Self {
        assert!(factor > 0, "dilation factor must be non-zero");
        let rows = (self.rows - 1) * factor + 1 + 2 * pad_h;
        let cols = (self.cols - 1) * factor + 1 + 2 * pad_w;
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.resize(pad_h + 1, 0);
        for y in 0..self.rows {
            let end = self.row_ptr[y + 1];
            if y > 0 {
                row_ptr.resize(row_ptr.len() + factor - 1, self.row_ptr[y]);
            }
            row_ptr.push(end);
        }
        row_ptr.resize(rows + 1, self.nnz());
        Self {
            rows,
            cols,
            row_ptr,
            col_idx: self.col_idx.iter().map(|&x| pad_w + x * factor).collect(),
            values: self.values.clone(),
        }
    }

    /// Replaces every stored value `v` by `f(v)`, keeping the sparsity
    /// pattern (a value `f` maps to zero stays stored).
    pub fn map_values(mut self, f: impl Fn(f32) -> f32) -> Self {
        for v in &mut self.values {
            *v = f(*v);
        }
        self
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> Self {
        Self::from_triplets(self.cols, self.rows, self.iter().map(|(r, c, v)| (c, r, v)))
            .expect("transposed triplets are valid")
    }

    /// Extracts the submatrix covering rows `[row0, row0+h)` and columns
    /// `[col0, col0+w)` as a new CSR matrix with local indices.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the matrix bounds or is empty.
    pub fn submatrix(&self, row0: usize, col0: usize, h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "submatrix must be non-empty");
        assert!(
            row0 + h <= self.rows && col0 + w <= self.cols,
            "window out of bounds"
        );
        let mut row_ptr = Vec::with_capacity(h + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in row0..row0 + h {
            let (cols, vals) = self.row_entries(r);
            let start = cols.partition_point(|&c| c < col0);
            let end = cols.partition_point(|&c| c < col0 + w);
            for i in start..end {
                col_idx.push(cols[i] - col0);
                values.push(vals[i]);
            }
            row_ptr.push(values.len());
        }
        Self {
            rows: h,
            cols: w,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Memory footprint of the compressed representation in bytes, assuming
    /// the paper's storage format (Table 4 / Sec. 6.3): 16-bit values and
    /// 16-bit indices (8-bit row/col packed), i.e. 32 bits per element plus
    /// 16 bits per row pointer.
    pub fn storage_bytes_paper_format(&self) -> usize {
        4 * self.nnz() + 2 * self.row_ptr.len()
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} nnz={} (sparsity {:.1}%)",
            self.rows,
            self.cols,
            self.nnz(),
            self.sparsity() * 100.0
        )
    }
}

/// Iterator over the `(row, col, value)` entries of a [`CsrMatrix`] in
/// row-major order. Produced by [`CsrMatrix::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    matrix: &'a CsrMatrix,
    row: usize,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = (usize, usize, f32);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.matrix.values.len() {
            return None;
        }
        while self.pos >= self.matrix.row_ptr[self.row + 1] {
            self.row += 1;
        }
        let item = (
            self.row,
            self.matrix.col_idx[self.pos],
            self.matrix.values[self.pos],
        );
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.matrix.values.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig2_image() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.0, 0.0, 2.0], &[3.0, 0.0, 0.0]])
    }

    fn paper_fig7_kernel() -> CsrMatrix {
        // Fig. 7-like small kernel: rows with varying occupancy.
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

    #[test]
    fn dense_round_trip() {
        let dense = paper_fig2_image();
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn row_entries_expose_csr_arrays() {
        let csr = CsrMatrix::from_dense(&paper_fig2_image());
        let (cols, vals) = csr.row_entries(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, -1.0]);
        let (cols, vals) = csr.row_entries(1);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[2.0]);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let csr = CsrMatrix::from_dense(&paper_fig2_image());
        assert_eq!(csr.get(0, 1), 0.0);
        assert_eq!(csr.get(2, 0), 3.0);
    }

    #[test]
    fn from_raw_validates_row_ptr_monotonicity() {
        let err = CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::InvalidRowPointers { .. })));
    }

    #[test]
    fn from_raw_validates_terminal_pointer() {
        let err = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::InvalidRowPointers { .. })));
    }

    #[test]
    fn from_raw_rejects_unsorted_columns() {
        let err = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::InvalidColumnIndex { .. })));
    }

    #[test]
    fn from_raw_rejects_duplicate_columns() {
        let err = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::DuplicateEntry { .. })));
    }

    #[test]
    fn from_triplets_sorts_and_validates() {
        let csr =
            CsrMatrix::from_triplets(2, 2, vec![(1, 1, 4.0), (0, 0, 1.0), (1, 0, 3.0)]).unwrap();
        assert_eq!(csr.row_ptr(), &[0, 1, 3]);
        assert_eq!(csr.col_idx(), &[0, 0, 1]);
        assert_eq!(csr.values(), &[1.0, 3.0, 4.0]);
    }

    #[test]
    fn from_triplets_drops_zeros() {
        let csr = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 0.0), (1, 1, 2.0)]).unwrap();
        assert_eq!(csr.nnz(), 1);
    }

    #[test]
    fn from_triplets_detects_duplicates() {
        let err = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]);
        assert_eq!(err, Err(SparseError::DuplicateEntry { row: 0, col: 0 }));
    }

    #[test]
    fn iter_is_row_major_and_exact_size() {
        let csr = paper_fig7_kernel();
        let items: Vec<_> = csr.iter().collect();
        assert_eq!(items.len(), 9);
        assert_eq!(csr.iter().len(), 9);
        assert!(items
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn rotate180_matches_dense_rotation() {
        let dense = paper_fig2_image();
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.rotate180().to_dense(), dense.rotate180());
    }

    #[test]
    fn rotate180_preserves_value_multiset() {
        let csr = paper_fig7_kernel();
        let mut orig: Vec<_> = csr.values().to_vec();
        let rot = csr.rotate180();
        let mut rotated: Vec<_> = rot.values().to_vec();
        orig.sort_by(f32::total_cmp);
        rotated.sort_by(f32::total_cmp);
        assert_eq!(orig, rotated);
        // Twice is identity.
        assert_eq!(rot.rotate180(), csr);
    }

    /// The dense reference of `dilate_pad`: zeros between elements, then
    /// a zero border.
    fn dilate_pad_dense(m: &DenseMatrix, factor: usize, ph: usize, pw: usize) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(
            (m.rows() - 1) * factor + 1 + 2 * ph,
            (m.cols() - 1) * factor + 1 + 2 * pw,
        );
        for (r, c, v) in m.iter_nonzero() {
            out[(ph + r * factor, pw + c * factor)] = v;
        }
        out
    }

    #[test]
    fn dilate_pad_matches_the_dense_index_map() {
        let kernel = paper_fig7_kernel();
        for (factor, ph, pw) in [(1, 0, 0), (1, 2, 1), (2, 0, 0), (3, 1, 2), (2, 6, 6)] {
            let mapped = kernel.dilate_pad(factor, ph, pw);
            let expected = CsrMatrix::from_dense(&dilate_pad_dense(&kernel.to_dense(), factor, ph, pw));
            assert_eq!(mapped, expected, "factor {factor}, pad ({ph}, {pw})");
        }
        // Empty rows at either end and an all-empty matrix keep valid
        // row pointers.
        let edges = CsrMatrix::from_triplets(4, 3, vec![(1, 2, 5.0), (2, 0, -1.0)]).unwrap();
        assert_eq!(
            edges.dilate_pad(2, 1, 0),
            CsrMatrix::from_dense(&dilate_pad_dense(&edges.to_dense(), 2, 1, 0))
        );
        assert_eq!(CsrMatrix::empty(2, 2).dilate_pad(3, 1, 1), CsrMatrix::empty(6, 6));
        assert_eq!(kernel.dilate_pad(1, 0, 0), kernel);
    }

    #[test]
    fn map_values_keeps_the_pattern() {
        let csr = CsrMatrix::from_dense(&paper_fig2_image()).map_values(f32::abs);
        assert_eq!(csr.to_dense(), paper_fig2_image().map(f32::abs));
    }

    #[test]
    fn transpose_round_trips_through_dense() {
        let csr = paper_fig7_kernel();
        assert_eq!(csr.transpose().to_dense(), csr.to_dense().transpose());
        assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn submatrix_extracts_window() {
        let csr = paper_fig7_kernel();
        let sub = csr.submatrix(2, 1, 2, 3);
        assert_eq!(sub.shape(), (2, 3));
        assert_eq!(sub.get(0, 0), 5.0); // original (2,1)
        assert_eq!(sub.get(1, 2), 9.0); // original (3,3)
        assert_eq!(sub.nnz(), 5);
    }

    #[test]
    fn empty_matrix_has_no_entries() {
        let csr = CsrMatrix::empty(3, 5);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.sparsity(), 1.0);
        assert_eq!(csr.to_dense(), DenseMatrix::zeros(3, 5));
    }

    #[test]
    fn csc_round_trip() {
        let csr = paper_fig7_kernel();
        let csc = csr.to_csc();
        assert_eq!(csc.to_dense(), csr.to_dense());
    }

    #[test]
    fn storage_bytes_match_paper_format() {
        let csr = paper_fig7_kernel(); // 9 nnz, 5 row pointers
        assert_eq!(csr.storage_bytes_paper_format(), 9 * 4 + 5 * 2);
    }
}
