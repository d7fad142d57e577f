//! Sparsification utilities.
//!
//! The paper's evaluation sparsifies tensors three ways (Sec. 6.2): traces
//! from ReSprop training, traces from SWAT training, and *synthetic*
//! sparsification that keeps the top-K magnitudes and zeroes the rest (used
//! for ResNet-50/ImageNet, the transformer, and the RNN). This module
//! provides the synthetic mechanisms; the training-algorithm-shaped
//! sparsifiers live in `ant-nn`.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// Zeroes all but the `keep` largest-magnitude elements (paper's synthetic
/// top-K sparsification).
///
/// Ties at the threshold magnitude are broken by keeping earlier (row-major)
/// elements so the result is deterministic.
///
/// # Example
///
/// ```
/// use ant_sparse::DenseMatrix;
/// use ant_sparse::sparsify::top_k;
///
/// let m = DenseMatrix::from_rows(&[&[0.1, -3.0], &[2.0, 0.5]]);
/// let s = top_k(&m, 2);
/// assert_eq!(s.nnz(), 2);
/// assert_eq!(s.get(0, 1), -3.0);
/// assert_eq!(s.get(1, 0), 2.0);
/// ```
pub fn top_k(matrix: &DenseMatrix, keep: usize) -> DenseMatrix {
    if keep >= matrix.nnz() {
        return matrix.clone();
    }
    let mut order: Vec<usize> = (0..matrix.len()).collect();
    let data = matrix.as_slice();
    order.sort_by(|&a, &b| {
        data[b]
            .abs()
            .partial_cmp(&data[a].abs())
            .expect("finite values")
            .then(a.cmp(&b))
    });
    let mut out = DenseMatrix::zeros(matrix.rows(), matrix.cols());
    for &i in order.iter().take(keep) {
        out.as_mut_slice()[i] = data[i];
    }
    out
}

/// Sparsifies to a target sparsity fraction in `[0, 1]` by magnitude
/// (keeps the `(1 - sparsity) * len` largest magnitudes).
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1]`.
pub fn to_target_sparsity(matrix: &DenseMatrix, sparsity: f64) -> DenseMatrix {
    assert!(
        (0.0..=1.0).contains(&sparsity),
        "sparsity must be in [0, 1]"
    );
    let keep = ((1.0 - sparsity) * matrix.len() as f64).round() as usize;
    top_k(matrix, keep)
}

/// Zeroes every element with `|v| < threshold`.
pub fn threshold(matrix: &DenseMatrix, threshold: f32) -> DenseMatrix {
    let mut out = matrix.clone();
    for v in out.as_mut_slice() {
        if v.abs() < threshold {
            *v = 0.0;
        }
    }
    out
}

/// Draws a random `rows x cols` CSR matrix with exactly `nnz` non-zero
/// entries at uniformly random positions, values drawn uniformly from
/// `[-1, 1] \ {0}`.
///
/// This models the *unstructured dynamic* sparsity patterns encountered in
/// training (Sec. 2.2), where non-zero positions change every iteration.
/// The draw is one full Fisher–Yates pass over all `rows * cols` positions,
/// then one value per kept position in shuffled order; the kept positions
/// are then sorted into CSR order, so no dense plane is built. This is the
/// one owner of the synthetic RNG stream: [`random_with_nnz`] scatters the
/// same draw into a dense matrix.
///
/// # Panics
///
/// Panics if `nnz > rows * cols`, if `rows * cols` exceeds `u32::MAX`, or
/// if a dimension is zero.
pub fn random_csr_with_nnz<R: Rng>(rows: usize, cols: usize, nnz: usize, rng: &mut R) -> CsrMatrix {
    let len = rows * cols;
    assert!(nnz <= len, "nnz exceeds matrix capacity");
    assert!(u32::try_from(len).is_ok(), "plane exceeds u32 positions");
    // The swaps depend only on the slice length, so shuffling `u32`
    // positions draws exactly what shuffling `usize` positions drew.
    let mut positions: Vec<u32> = (0..len as u32).collect();
    positions.shuffle(rng);
    let mut kept: Vec<(u32, f32)> = positions[..nnz]
        .iter()
        .map(|&p| {
            let mut v = 0.0f32;
            while v == 0.0 {
                v = rng.gen_range(-1.0f32..1.0f32);
            }
            (p, v)
        })
        .collect();
    // Free the shuffle buffer (4 bytes per position) before the CSR arrays
    // are built, so a plane's peak is the larger of the two, not the sum.
    drop(positions);
    kept.sort_unstable_by_key(|&(p, _)| p);
    let mut row_ptr = vec![0usize; rows + 1];
    for &(p, _) in &kept {
        row_ptr[p as usize / cols + 1] += 1;
    }
    for r in 0..rows {
        row_ptr[r + 1] += row_ptr[r];
    }
    let col_idx = kept.iter().map(|&(p, _)| p as usize % cols).collect();
    let values = kept.iter().map(|&(_, v)| v).collect();
    CsrMatrix::from_sorted_parts(rows, cols, row_ptr, col_idx, values)
}

/// Generates a random dense matrix with exactly `nnz` non-zero entries at
/// uniformly random positions: the dense scatter of
/// [`random_csr_with_nnz`]'s draw, with the same RNG stream.
///
/// # Panics
///
/// Panics if `nnz > rows * cols`.
pub fn random_with_nnz<R: Rng>(rows: usize, cols: usize, nnz: usize, rng: &mut R) -> DenseMatrix {
    random_csr_with_nnz(rows, cols, nnz, rng).to_dense()
}

/// The exact non-zero count of a `rows x cols` plane at a target sparsity:
/// `round((1 - sparsity) * len)`, how the paper's synthetic traces hit
/// their sparsity targets.
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1]`.
fn nnz_at_sparsity(rows: usize, cols: usize, sparsity: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&sparsity),
        "sparsity must be in [0, 1]"
    );
    ((1.0 - sparsity) * (rows * cols) as f64).round() as usize
}

/// Draws a random CSR matrix at a target sparsity fraction
/// ([`random_csr_with_nnz`] at `round((1 - sparsity) * len)` non-zeros).
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1]`, or as [`random_csr_with_nnz`].
pub fn random_csr_with_sparsity<R: Rng>(
    rows: usize,
    cols: usize,
    sparsity: f64,
    rng: &mut R,
) -> CsrMatrix {
    random_csr_with_nnz(rows, cols, nnz_at_sparsity(rows, cols, sparsity), rng)
}

/// Generates a random dense matrix at a target sparsity fraction.
///
/// The non-zero *count* is exact (`round((1 - sparsity) * len)`), matching
/// how the paper's synthetic traces hit their sparsity targets.
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1]`.
pub fn random_with_sparsity<R: Rng>(
    rows: usize,
    cols: usize,
    sparsity: f64,
    rng: &mut R,
) -> DenseMatrix {
    random_with_nnz(rows, cols, nnz_at_sparsity(rows, cols, sparsity), rng)
}

/// Applies a ReLU-like sparsity pattern: each element is independently zeroed
/// with probability `p_zero`, surviving elements are made positive.
///
/// Models activation sparsity induced by ReLU (Sec. 2.1), which zeroes
/// roughly half the pre-activations and leaves a positives-only tensor.
pub fn relu_like<R: Rng>(rows: usize, cols: usize, p_zero: f64, rng: &mut R) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(p_zero) {
            0.0
        } else {
            rng.gen_range(f32::EPSILON..1.0f32)
        }
    })
}

/// Generates a random matrix at a target sparsity whose non-zeros are
/// spatially *clustered* into square blobs rather than uniformly spread.
///
/// Real activation maps are far from uniform — ReLU zeros entire regions
/// while features concentrate non-zeros — and the paper notes that
/// "sparsity distributions have some effect on the effectiveness of ANT"
/// (Section 7.2). Blob centers are drawn uniformly; non-zeros fill
/// `blob_size x blob_size` squares until the exact non-zero budget
/// (`round((1-sparsity) * len)`) is met.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]` or `blob_size == 0`.
pub fn clustered_with_sparsity<R: Rng>(
    rows: usize,
    cols: usize,
    sparsity: f64,
    blob_size: usize,
    rng: &mut R,
) -> DenseMatrix {
    assert!(
        (0.0..=1.0).contains(&sparsity),
        "sparsity must be in [0, 1]"
    );
    assert!(blob_size > 0, "blob size must be non-zero");
    let budget = ((1.0 - sparsity) * (rows * cols) as f64).round() as usize;
    let mut out = DenseMatrix::zeros(rows, cols);
    let mut placed = 0usize;
    let mut guard = 0usize;
    while placed < budget {
        guard += 1;
        assert!(
            guard < 100 * rows * cols + 100,
            "clustering failed to converge"
        );
        let cy = rng.gen_range(0..rows);
        let cx = rng.gen_range(0..cols);
        'blob: for dy in 0..blob_size {
            for dx in 0..blob_size {
                let (y, x) = (cy + dy, cx + dx);
                if y >= rows || x >= cols {
                    continue;
                }
                if out.get(y, x) == 0.0 {
                    let mut v = 0.0f32;
                    while v == 0.0 {
                        v = rng.gen_range(-1.0f32..1.0f32);
                    }
                    out.set(y, x, v);
                    placed += 1;
                    if placed == budget {
                        break 'blob;
                    }
                }
            }
        }
    }
    out
}

/// Enforces N:M structured sparsity (e.g. 2:4 as in NVIDIA Ampere,
/// paper Sec. 1/2.2): within each contiguous group of `m` elements along a
/// row, only the `n` largest magnitudes survive.
///
/// # Panics
///
/// Panics if `n > m` or `m == 0`.
pub fn structured_n_of_m(matrix: &DenseMatrix, n: usize, m: usize) -> DenseMatrix {
    assert!(m > 0 && n <= m, "require 0 < n <= m");
    let mut out = matrix.clone();
    for r in 0..matrix.rows() {
        let mut c = 0;
        while c < matrix.cols() {
            let end = (c + m).min(matrix.cols());
            let mut idx: Vec<usize> = (c..end).collect();
            idx.sort_by(|&a, &b| {
                matrix
                    .get(r, b)
                    .abs()
                    .partial_cmp(&matrix.get(r, a).abs())
                    .expect("finite values")
            });
            for &kill in idx.iter().skip(n) {
                out.set(r, kill, 0.0);
            }
            c = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let m = DenseMatrix::from_rows(&[&[1.0, -4.0, 2.0], &[0.5, 3.0, -0.1]]);
        let s = top_k(&m, 3);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.get(0, 1), -4.0);
        assert_eq!(s.get(1, 1), 3.0);
        assert_eq!(s.get(0, 2), 2.0);
        assert_eq!(s.get(0, 0), 0.0);
    }

    #[test]
    fn top_k_with_large_keep_is_identity() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(top_k(&m, 10), m);
    }

    #[test]
    fn top_k_zero_keeps_nothing() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(top_k(&m, 0).nnz(), 0);
    }

    #[test]
    fn target_sparsity_hits_exact_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = random_with_nnz(10, 10, 100, &mut rng);
        let s = to_target_sparsity(&m, 0.9);
        assert_eq!(s.nnz(), 10);
        assert!((s.sparsity() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn threshold_zeroes_small_values() {
        let m = DenseMatrix::from_rows(&[&[0.05, -0.5], &[0.2, -0.01]]);
        let s = threshold(&m, 0.1);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 1), -0.5);
        assert_eq!(s.get(1, 0), 0.2);
    }

    #[test]
    fn random_with_nnz_is_exact_and_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let m1 = random_with_nnz(8, 8, 13, &mut a);
        let m2 = random_with_nnz(8, 8, 13, &mut b);
        assert_eq!(m1.nnz(), 13);
        assert_eq!(m1, m2);
    }

    #[test]
    #[should_panic(expected = "nnz exceeds matrix capacity")]
    fn random_with_nnz_rejects_overfull() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = random_with_nnz(2, 2, 5, &mut rng);
    }

    #[test]
    fn random_with_sparsity_rounds_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_with_sparsity(7, 9, 0.5, &mut rng);
        assert_eq!(m.nnz(), 32); // round(0.5 * 63) = 32
    }

    #[test]
    fn relu_like_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = relu_like(20, 20, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&v| v >= 0.0));
        // Sparsity should be near 0.5 for 400 samples.
        assert!((m.sparsity() - 0.5).abs() < 0.15);
    }

    #[test]
    fn clustered_hits_exact_budget() {
        let mut rng = StdRng::seed_from_u64(20);
        let m = clustered_with_sparsity(20, 20, 0.9, 3, &mut rng);
        assert_eq!(m.nnz(), 40);
        assert!((m.sparsity() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn clustered_is_more_clustered_than_uniform() {
        // Measure clustering via the number of non-zero elements that have
        // a non-zero 4-neighbour: higher for blobby patterns.
        let neighbours = |m: &DenseMatrix| -> usize {
            m.iter_nonzero()
                .filter(|&(r, c, _)| {
                    (r > 0 && m.get(r - 1, c) != 0.0)
                        || (r + 1 < m.rows() && m.get(r + 1, c) != 0.0)
                        || (c > 0 && m.get(r, c - 1) != 0.0)
                        || (c + 1 < m.cols() && m.get(r, c + 1) != 0.0)
                })
                .count()
        };
        let mut rng = StdRng::seed_from_u64(21);
        let clustered = clustered_with_sparsity(30, 30, 0.9, 3, &mut rng);
        let uniform = random_with_sparsity(30, 30, 0.9, &mut rng);
        assert_eq!(clustered.nnz(), uniform.nnz());
        assert!(
            neighbours(&clustered) > neighbours(&uniform),
            "clustered {} vs uniform {}",
            neighbours(&clustered),
            neighbours(&uniform)
        );
    }

    #[test]
    fn clustered_dense_limit_fills_matrix() {
        let mut rng = StdRng::seed_from_u64(22);
        let m = clustered_with_sparsity(6, 6, 0.0, 2, &mut rng);
        assert_eq!(m.nnz(), 36);
    }

    #[test]
    fn structured_2_of_4_limits_each_group() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]);
        let s = structured_n_of_m(&m, 2, 4);
        assert_eq!(s.nnz(), 4);
        // Largest two in each group of four survive.
        assert_eq!(s.get(0, 2), 3.0);
        assert_eq!(s.get(0, 3), 4.0);
        assert_eq!(s.get(0, 6), 7.0);
        assert_eq!(s.get(0, 7), 8.0);
    }

    #[test]
    fn structured_handles_ragged_tail() {
        let m = DenseMatrix::from_rows(&[&[5.0, 1.0, 2.0, 3.0, 9.0, 8.0]]);
        let s = structured_n_of_m(&m, 1, 4);
        // Groups: [5,1,2,3] keeps 5; [9,8] keeps 9.
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 0), 5.0);
        assert_eq!(s.get(0, 4), 9.0);
    }
}
