//! Redundant Cartesian Product (RCP) detection, classification, and counting.
//!
//! An RCP is a product of a non-zero kernel element and a non-zero image
//! element that maps to no valid output index (paper Section 3). This module
//! provides:
//!
//! * [`classify`] — which of the paper's Figure-4 cases (kernel shifted too
//!   far up/left/down/right) a given element pair falls into;
//! * [`passes_element_test`] — the paper's per-element anticipation test
//!   (Eqs. 7–8);
//! * [`r_range`] / [`s_range`] — the per-vector conservative index ranges ANT
//!   computes in hardware (Eqs. 9–12), generalized to dilation;
//! * [`ProductBreakdown`] — the Figure-1 partial-product accounting (useful
//!   vs. RCP vs. zero-operand), over an exact useful-product counter that
//!   scales to ImageNet-sized layers. It counts each pair by the cheaper of
//!   two paths ([`useful_count_path`]): a walk over the image rows each
//!   kernel non-zero reaches, or word-parallel row masks that AND each
//!   kernel row against the shifted image rows it meets at every output
//!   position.

use ant_sparse::{CsrMatrix, DenseMatrix};

use crate::error::ConvError;
use crate::shape::ConvShape;

/// Which invalid-kernel-shift cases (paper Fig. 4) a product falls into.
///
/// `misaligned` is a fifth cause that only exists for `stride > 1`: the
/// product's offset is inside the output range but not divisible by the
/// stride, so it belongs to no output element. The paper's four cases cover
/// everything at stride 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RcpCases {
    /// Case a: kernel shifted above the image (`y < dilation*r`).
    pub above: bool,
    /// Case b: kernel shifted left of the image (`x < dilation*s`).
    pub left: bool,
    /// Case c: kernel shifted below the last valid output row.
    pub below: bool,
    /// Case d: kernel shifted right of the last valid output column.
    pub right: bool,
    /// Stride misalignment (`stride > 1` only; not one of the paper's four).
    pub misaligned: bool,
}

impl RcpCases {
    /// Whether any case applies, i.e. the product is an RCP.
    pub fn is_rcp(&self) -> bool {
        self.above || self.left || self.below || self.right || self.misaligned
    }
}

/// Classifies a product of image element `(x, y)` and kernel element
/// `(s, r)` into the Figure-4 RCP cases.
///
/// All-false means the product is valid (contributes to some output).
pub fn classify(shape: &ConvShape, x: usize, y: usize, s: usize, r: usize) -> RcpCases {
    let d = shape.dilation();
    let stride = shape.stride();
    let mut cases = RcpCases::default();
    if y < d * r {
        cases.above = true;
    } else if y - d * r > stride * (shape.out_h() - 1) {
        cases.below = true;
    }
    if x < d * s {
        cases.left = true;
    } else if x - d * s > stride * (shape.out_w() - 1) {
        cases.right = true;
    }
    if !cases.is_rcp() {
        let dy = y - d * r;
        let dx = x - d * s;
        if !dy.is_multiple_of(stride) || !dx.is_multiple_of(stride) {
            cases.misaligned = true;
        }
    }
    cases
}

/// The paper's ideal per-element anticipation test (Eqs. 7–8):
///
/// `(y - stride*H_out) + 1 <= dilation*r <= y` and
/// `(x - stride*W_out) + 1 <= dilation*s <= x`.
///
/// At stride 1 / dilation 1 this is exact (true iff the product is valid).
/// For `stride > 1` the paper's bound is deliberately conservative: it never
/// rejects a valid product but lets stride-misaligned RCPs through.
pub fn passes_element_test(shape: &ConvShape, x: usize, y: usize, s: usize, r: usize) -> bool {
    let d = shape.dilation() as i64;
    let stride = shape.stride() as i64;
    let (x, y, s, r) = (x as i64, y as i64, s as i64, r as i64);
    let r_ok = (y - stride * shape.out_h() as i64) < d * r && d * r <= y;
    let s_ok = (x - stride * shape.out_w() as i64) < d * s && d * s <= x;
    r_ok && s_ok
}

/// An inclusive index range `[min, max]`; empty when `min > max`.
///
/// `min` may be negative before clamping (the hardware clamps when indexing
/// the Kernel Indices Buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    /// Inclusive lower bound (possibly negative).
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
}

impl IndexRange {
    /// Whether the range contains no indices.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Whether `value` lies within the range.
    pub fn contains(&self, value: i64) -> bool {
        self.min <= value && value <= self.max
    }

    /// The range clamped to `[0, limit)` as usize bounds, or `None` if the
    /// clamped range is empty.
    pub fn clamp_to(&self, limit: usize) -> Option<(usize, usize)> {
        let lo = self.min.max(0) as usize;
        let hi = if self.max < 0 {
            return None;
        } else {
            (self.max as usize).min(limit.saturating_sub(1))
        };
        if lo > hi {
            None
        } else {
            Some((lo, hi))
        }
    }

    /// Number of integer indices in the range (0 when empty).
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            (self.max - self.min + 1) as usize
        }
    }
}

/// Computes the acceptable kernel-row range for a vector of image rows
/// (paper Eq. 12 via Eq. 9):
///
/// `r_min = y_min - stride*H_out + 1`, `r_max = y_max` (dilation 1);
/// for dilation `d` the bounds divide through by `d` (conservatively).
///
/// Every valid product's `r` is guaranteed to be inside the returned range;
/// the range may also admit some RCPs (that is what makes Algorithm 2
/// conservative relative to Algorithm 1).
pub fn r_range(shape: &ConvShape, y_min: usize, y_max: usize) -> IndexRange {
    let d = shape.dilation() as i64;
    let stride = shape.stride() as i64;
    let lower = (y_min as i64 - stride * shape.out_h() as i64) + 1;
    IndexRange {
        min: div_ceil(lower, d),
        max: y_max as i64 / d,
    }
}

/// Computes the acceptable kernel-column range for a vector of image columns
/// (paper Eq. 11 via Eq. 10): `s_min = x_min - stride*W_out + 1`,
/// `s_max = x_max` (dilation 1).
pub fn s_range(shape: &ConvShape, x_min: usize, x_max: usize) -> IndexRange {
    let d = shape.dilation() as i64;
    let stride = shape.stride() as i64;
    let lower = (x_min as i64 - stride * shape.out_w() as i64) + 1;
    IndexRange {
        min: div_ceil(lower, d),
        max: x_max as i64 / d,
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    if a >= 0 {
        (a + b - 1) / b
    } else {
        -((-a) / b)
    }
}

/// Partial-product accounting for one kernel/image pair, the quantity behind
/// the paper's Figure 1.
///
/// The five counters partition the full `R*S*H*W` element-pair space:
/// `total = useful + nonzero_rcp + kernel_zero_only + image_zero_only +
/// both_zero`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductBreakdown {
    /// All element pairs: `R*S*H*W`.
    pub total: u64,
    /// Both operands non-zero and the product maps to a valid output.
    pub useful: u64,
    /// Both operands non-zero but the product is an RCP.
    pub nonzero_rcp: u64,
    /// Kernel operand zero, image operand non-zero.
    pub kernel_zero_only: u64,
    /// Image operand zero, kernel operand non-zero.
    pub image_zero_only: u64,
    /// Both operands zero.
    pub both_zero: u64,
}

impl ProductBreakdown {
    /// Fraction of *non-zero* products that are RCPs (the blue share in
    /// paper Fig. 1).
    pub fn rcp_fraction_of_nonzero(&self) -> f64 {
        let nonzero = self.useful + self.nonzero_rcp;
        if nonzero == 0 {
            0.0
        } else {
            self.nonzero_rcp as f64 / nonzero as f64
        }
    }

    /// Fraction of all products that are useful.
    pub fn useful_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.useful as f64 / self.total as f64
        }
    }

    /// Merges counts from another breakdown (e.g. accumulating across
    /// channel pairs or layers).
    pub fn accumulate(&mut self, other: &ProductBreakdown) {
        self.total += other.total;
        self.useful += other.useful;
        self.nonzero_rcp += other.nonzero_rcp;
        self.kernel_zero_only += other.kernel_zero_only;
        self.image_zero_only += other.image_zero_only;
        self.both_zero += other.both_zero;
    }
}

/// Reusable buffers for [`count_useful_products_with`]'s row-mask path
/// ([`UsefulCountPath::RowMasks`]): the kernel's and the image's rows as
/// bit masks. One scratch per worker; it grows to the largest pair seen and
/// is then reused as-is. Pairs counted by the row walk never touch it.
#[derive(Debug, Clone, Default)]
pub struct NzCounterScratch {
    /// Kernel row `r` as `kernel_words` words: bit `s` is set when kernel
    /// `(r, s)` is non-zero.
    kernel: Vec<u64>,
    /// Image row `y` at column phase `p < dilation` as `image_words` words:
    /// bit `j` is set when image `(y, p + dilation*j)` is non-zero.
    image: Vec<u64>,
    /// Per output column `ox`: where its shifted window starts in an image
    /// row's masks, and the shift's bit offset within that word.
    columns: Vec<(usize, u32)>,
}

impl NzCounterScratch {
    /// An empty scratch; the buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// How [`count_useful_products_with`] counts one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsefulCountPath {
    /// Each kernel non-zero's partners are counted from the image's CSR
    /// rows: one binary search per image row it reaches. Costs
    /// `O(nnz_kernel * out_h * log(row nnz))` and builds nothing, so it
    /// wins when the kernel's non-zeros reach few image rows in total, as
    /// in the forward and backward phases (a small, sparse `W`).
    RowWalk,
    /// Word-parallel row masks: each kernel row and each image row (per
    /// column phase modulo the dilation) as a bit mask, then one AND and
    /// popcount per kernel row, output position and 64 kernel columns.
    /// Costs `O(kernel rows * out_h * out_w * ceil(S/64))` plus one pass
    /// over the image, so it wins when the output is small and the kernel
    /// large, as in the update phase, whose `G_A` kernel reaches most of
    /// the image through a 3x3 output.
    RowMasks,
}

/// Words per kernel-row mask and per image-row phase mask for `shape`. An
/// image phase holds `ceil(W / d)` bits; the widest shift, `stride *
/// (out_w - 1) / d` bits, then reads `ceil(S / 64)` words plus one carry
/// word, so the phase is padded to cover both.
fn mask_words(shape: &ConvShape) -> (usize, usize) {
    let kernel_words = shape.kernel_w().div_ceil(64);
    let d = shape.dilation();
    let phase_words = shape.image_w().div_ceil(d).div_ceil(64);
    let max_shift = shape.stride() * (shape.out_w() - 1) / d;
    let image_words = phase_words.max(max_shift / 64 + kernel_words + 1);
    (kernel_words, image_words)
}

/// Picks the counting path for a pair from sizes the caller already has:
/// the operands' non-zero counts and the shape. Both paths return the same
/// count; this only picks the cheaper one, in units of about one row-walk
/// step:
///
/// * the row walk visits `nnz_kernel * out_h` image rows. Each costs two
///   units of overhead plus a binary search over the row, about
///   `log2(row nnz) + 1` steps for the image's average row, and at
///   `stride > 1` also the walk over the row's non-zeros in the window;
/// * the row masks cost one unit per mask word cleared and per non-zero
///   scattered, then one per kernel-mask word (a shifted load, an AND and a
///   popcount) at each output position of each kernel row that can hold a
///   non-zero (`min(R, nnz_kernel)`).
///
/// Measured per pair over the Fig. 9 grid, the rule picks the faster path
/// for all but a few near-ties: the walk for every forward and backward
/// pair and for the update pairs of layers up to 16x16, the masks for the
/// update pairs of the larger layers (a `G_A` kernel of 28x28 and up).
pub fn useful_count_path(
    kernel_nnz: usize,
    image_nnz: usize,
    shape: &ConvShape,
) -> UsefulCountPath {
    let stride = shape.stride();
    let row_nnz = image_nnz / shape.image_h();
    let search = (usize::BITS - row_nnz.leading_zeros()) as usize;
    let window = if stride > 1 { row_nnz } else { 0 };
    let walk = kernel_nnz
        .saturating_mul(shape.out_h())
        .saturating_mul(2 + search + window);
    let (kernel_words, image_words) = mask_words(shape);
    let build = shape.kernel_h() * kernel_words
        + shape.image_h() * shape.dilation() * image_words
        + kernel_nnz
        + image_nnz;
    let masks = shape
        .kernel_h()
        .min(kernel_nnz)
        .saturating_mul(shape.out_h() * shape.out_w() * kernel_words)
        .saturating_add(build);
    if walk <= masks {
        UsefulCountPath::RowWalk
    } else {
        UsefulCountPath::RowMasks
    }
}

/// The row walk ([`UsefulCountPath::RowWalk`]): for each kernel non-zero
/// `(s, r)`, its valid partners are the image non-zeros at rows
/// `d*r + stride*oy` and columns `d*s + stride*ox` (`oy < out_h`,
/// `ox < out_w`). Per reached row, a binary search bounds the columns; at
/// stride 1 the count is the width of that window, otherwise the window's
/// entries are filtered by stride phase. Allocates nothing.
fn count_useful_by_rows(kernel: &CsrMatrix, image: &CsrMatrix, shape: &ConvShape) -> u64 {
    let d = shape.dilation();
    let stride = shape.stride();
    let (h, w) = (shape.image_h(), shape.image_w());
    let row_ptr = image.row_ptr();
    let col_idx = image.col_idx();
    let mut useful = 0u64;
    for (r, s, _) in kernel.iter() {
        let (y0, x0) = (d * r, d * s);
        if y0 >= h || x0 >= w {
            continue;
        }
        let y1 = (y0 + stride * (shape.out_h() - 1)).min(h - 1);
        let x1 = (x0 + stride * (shape.out_w() - 1)).min(w - 1);
        for y in (y0..=y1).step_by(stride) {
            let cols = &col_idx[row_ptr[y]..row_ptr[y + 1]];
            let lo = cols.partition_point(|&x| x < x0);
            let window = &cols[lo..];
            let window = &window[..window.partition_point(|&x| x <= x1)];
            useful += if stride == 1 {
                window.len() as u64
            } else {
                window
                    .iter()
                    .filter(|&&x| (x - x0).is_multiple_of(stride))
                    .count() as u64
            };
        }
    }
    useful
}

/// The row masks ([`UsefulCountPath::RowMasks`]): with `K[r]` kernel row
/// `r` as a bit mask over `s` and `I[y][p]` image row `y`'s columns
/// `p + d*j` as a bit mask over `j`,
///
/// `useful = sum over r, oy, ox of popcount(K[r] & (I[d*r + stride*oy][q mod d] >> q / d))`
///
/// with `q = stride*ox`: bit `s` of the shifted image mask is image column
/// `d*s + q`, the partner of kernel `(r, s)` at output `(oy, ox)`. Every
/// such partner lies inside the image, so no bound is checked. Empty kernel
/// and image rows are skipped. Allocates nothing once the scratch is warm.
fn count_useful_by_masks(
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
    scratch: &mut NzCounterScratch,
) -> u64 {
    let d = shape.dilation();
    let stride = shape.stride();
    let (kernel_words, image_words) = mask_words(shape);
    let row_words = d * image_words;
    let NzCounterScratch {
        kernel: kernel_masks,
        image: image_masks,
        columns,
    } = scratch;
    kernel_masks.clear();
    kernel_masks.resize(shape.kernel_h() * kernel_words, 0);
    for (r, s, _) in kernel.iter() {
        kernel_masks[r * kernel_words + s / 64] |= 1 << (s % 64);
    }
    image_masks.clear();
    image_masks.resize(shape.image_h() * row_words, 0);
    for (y, x, _) in image.iter() {
        let (p, j) = (x % d, x / d);
        image_masks[y * row_words + p * image_words + j / 64] |= 1 << (j % 64);
    }
    columns.clear();
    columns.extend((0..shape.out_w()).map(|ox| {
        let q = stride * ox;
        let shift = q / d;
        ((q % d) * image_words + shift / 64, (shift % 64) as u32)
    }));
    let (kernel_rows, image_rows) = (kernel.row_ptr(), image.row_ptr());
    let mut useful = 0u64;
    for r in 0..shape.kernel_h() {
        if kernel_rows[r] == kernel_rows[r + 1] {
            continue;
        }
        let k_row = &kernel_masks[r * kernel_words..(r + 1) * kernel_words];
        for oy in 0..shape.out_h() {
            let y = d * r + stride * oy;
            if image_rows[y] == image_rows[y + 1] {
                continue;
            }
            let i_row = &image_masks[y * row_words..(y + 1) * row_words];
            for &(start, bits) in columns.iter() {
                for (w, &k) in k_row.iter().enumerate() {
                    let (lo, hi) = (i_row[start + w], i_row[start + w + 1]);
                    useful += and_shifted_count(k, lo, hi, bits);
                }
            }
        }
    }
    useful
}

/// `popcount(k & (hi:lo >> bits))`: the image word `lo` shifted right by
/// `bits < 64`, its top filled from the next word `hi` (the carry), against
/// one kernel-mask word. Shifting the pair as one 128-bit value needs no
/// branch for an aligned (`bits == 0`) shift.
#[inline]
fn and_shifted_count(k: u64, lo: u64, hi: u64, bits: u32) -> u64 {
    let carried = u128::from(hi) << 64 | u128::from(lo);
    u64::from((k & (carried >> (bits & 63)) as u64).count_ones())
}

/// Counts the useful (valid, both-non-zero) products between a sparse kernel
/// and sparse image, exactly. Costs the cheaper of
/// `O(nnz_kernel * out_h * log(row nnz))` (row walk) and
/// `O(R * out_h * out_w * ceil(S/64) + H*W/64)` (row masks); see
/// [`useful_count_path`].
pub fn count_useful_products(kernel: &CsrMatrix, image: &CsrMatrix, shape: &ConvShape) -> u64 {
    count_useful_products_with(kernel, image, shape, &mut NzCounterScratch::new())
}

/// [`count_useful_products`] with a caller-owned [`NzCounterScratch`] — the
/// steady-state-allocation-free form used by the simulator machines. Returns
/// exactly the same count.
///
/// # Panics
///
/// Panics if the operand dimensions disagree with `shape`.
pub fn count_useful_products_with(
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
    scratch: &mut NzCounterScratch,
) -> u64 {
    assert_eq!(
        kernel.shape(),
        (shape.kernel_h(), shape.kernel_w()),
        "kernel shape mismatch"
    );
    assert_eq!(
        image.shape(),
        (shape.image_h(), shape.image_w()),
        "image shape mismatch"
    );
    if kernel.nnz() == 0 || image.nnz() == 0 {
        return 0;
    }
    match useful_count_path(kernel.nnz(), image.nnz(), shape) {
        UsefulCountPath::RowWalk => count_useful_by_rows(kernel, image, shape),
        UsefulCountPath::RowMasks => count_useful_by_masks(kernel, image, shape, scratch),
    }
}

/// Computes the full partial-product breakdown for a kernel/image pair.
///
/// # Errors
///
/// Returns [`ConvError::OperandShapeMismatch`] if the operands disagree with
/// `shape`.
pub fn breakdown(
    kernel: &CsrMatrix,
    image: &CsrMatrix,
    shape: &ConvShape,
) -> Result<ProductBreakdown, ConvError> {
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
    let kernel_elems = shape.kernel_h() as u64 * shape.kernel_w() as u64;
    let image_elems = shape.image_h() as u64 * shape.image_w() as u64;
    let nnz_k = kernel.nnz() as u64;
    let nnz_i = image.nnz() as u64;
    let useful = count_useful_products(kernel, image, shape);
    let nonzero_pairs = nnz_k * nnz_i;
    Ok(ProductBreakdown {
        total: kernel_elems * image_elems,
        useful,
        nonzero_rcp: nonzero_pairs - useful,
        kernel_zero_only: (kernel_elems - nnz_k) * nnz_i,
        image_zero_only: nnz_k * (image_elems - nnz_i),
        both_zero: (kernel_elems - nnz_k) * (image_elems - nnz_i),
    })
}

/// Brute-force breakdown used as a test oracle (`O(R*S*H*W)`).
pub fn breakdown_brute(
    kernel: &DenseMatrix,
    image: &DenseMatrix,
    shape: &ConvShape,
) -> ProductBreakdown {
    let mut b = ProductBreakdown::default();
    for r in 0..shape.kernel_h() {
        for s in 0..shape.kernel_w() {
            let k_nz = kernel.get(r, s) != 0.0;
            for y in 0..shape.image_h() {
                for x in 0..shape.image_w() {
                    let i_nz = image.get(y, x) != 0.0;
                    b.total += 1;
                    match (k_nz, i_nz) {
                        (true, true) => {
                            if shape.is_valid_product(x, y, s, r) {
                                b.useful += 1;
                            } else {
                                b.nonzero_rcp += 1;
                            }
                        }
                        (false, true) => b.kernel_zero_only += 1,
                        (true, false) => b.image_zero_only += 1,
                        (false, false) => b.both_zero += 1,
                    }
                }
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_sparse::sparsify;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shape2233() -> ConvShape {
        ConvShape::new(2, 2, 3, 3, 1).unwrap()
    }

    #[test]
    fn classify_matches_validity_everywhere() {
        for shape in [
            ConvShape::new(2, 2, 3, 3, 1).unwrap(),
            ConvShape::new(3, 3, 8, 8, 1).unwrap(),
            ConvShape::new(2, 2, 7, 7, 2).unwrap(),
            ConvShape::with_dilation(2, 2, 7, 7, 1, 2).unwrap(),
        ] {
            for r in 0..shape.kernel_h() {
                for s in 0..shape.kernel_w() {
                    for y in 0..shape.image_h() {
                        for x in 0..shape.image_w() {
                            let cases = classify(&shape, x, y, s, r);
                            assert_eq!(
                                !cases.is_rcp(),
                                shape.is_valid_product(x, y, s, r),
                                "{shape} x={x} y={y} s={s} r={r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn classify_identifies_directions() {
        let shape = shape2233();
        // Image (0,0) with kernel (1,1): shifted up AND left.
        let c = classify(&shape, 0, 0, 1, 1);
        assert!(c.above && c.left && !c.below && !c.right);
        // Image (2,2) with kernel (0,0): shifted down AND right.
        let c = classify(&shape, 2, 2, 0, 0);
        assert!(c.below && c.right && !c.above && !c.left);
    }

    #[test]
    fn element_test_is_exact_at_stride1() {
        let shape = ConvShape::new(3, 3, 10, 10, 1).unwrap();
        for r in 0..3 {
            for s in 0..3 {
                for y in 0..10 {
                    for x in 0..10 {
                        assert_eq!(
                            passes_element_test(&shape, x, y, s, r),
                            shape.is_valid_product(x, y, s, r)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn element_test_is_conservative_at_stride2() {
        let shape = ConvShape::new(3, 3, 11, 11, 2).unwrap();
        let mut passed_invalid = 0u32;
        for r in 0..3 {
            for s in 0..3 {
                for y in 0..11 {
                    for x in 0..11 {
                        let valid = shape.is_valid_product(x, y, s, r);
                        let passes = passes_element_test(&shape, x, y, s, r);
                        // Never rejects a valid product.
                        assert!(!valid || passes, "valid product rejected");
                        if passes && !valid {
                            passed_invalid += 1;
                        }
                    }
                }
            }
        }
        // Stride misalignment slips through the paper's test.
        assert!(passed_invalid > 0);
    }

    #[test]
    fn ranges_match_paper_equations_at_stride1() {
        let shape = ConvShape::new(5, 5, 20, 20, 1).unwrap();
        // H_out = W_out = 16.
        let rr = r_range(&shape, 3, 17);
        assert_eq!(rr.min, 3 - 16 + 1);
        assert_eq!(rr.max, 17);
        let sr = s_range(&shape, 0, 4);
        assert_eq!(sr.min, 0 - 16 + 1);
        assert_eq!(sr.max, 4);
    }

    #[test]
    fn ranges_are_sound_for_all_shapes() {
        // Every valid product's kernel index falls inside the vector range
        // computed from any y/x window containing the image element.
        for shape in [
            ConvShape::new(4, 4, 9, 9, 1).unwrap(),
            ConvShape::new(3, 3, 11, 11, 2).unwrap(),
            ConvShape::with_dilation(3, 3, 9, 9, 1, 2).unwrap(),
        ] {
            for y in 0..shape.image_h() {
                for x in 0..shape.image_w() {
                    for r in 0..shape.kernel_h() {
                        for s in 0..shape.kernel_w() {
                            if shape.is_valid_product(x, y, s, r) {
                                assert!(r_range(&shape, y, y).contains(r as i64));
                                assert!(s_range(&shape, x, x).contains(s as i64));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn range_clamp_behaviour() {
        let r = IndexRange { min: -3, max: 2 };
        assert_eq!(r.clamp_to(10), Some((0, 2)));
        assert_eq!(r.clamp_to(2), Some((0, 1)));
        let empty = IndexRange { min: 5, max: 2 };
        assert!(empty.is_empty());
        assert_eq!(empty.clamp_to(10), None);
        assert_eq!(empty.len(), 0);
        let negative = IndexRange { min: -5, max: -1 };
        assert_eq!(negative.clamp_to(10), None);
    }

    #[test]
    fn breakdown_matches_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for (shape, sparsity) in [
            (ConvShape::new(3, 3, 8, 8, 1).unwrap(), 0.5),
            (ConvShape::new(4, 4, 9, 9, 1).unwrap(), 0.9),
            (ConvShape::new(3, 3, 11, 11, 2).unwrap(), 0.7),
            (ConvShape::with_dilation(3, 3, 11, 11, 1, 2).unwrap(), 0.6),
        ] {
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
            let fast = breakdown(
                &CsrMatrix::from_dense(&kernel),
                &CsrMatrix::from_dense(&image),
                &shape,
            )
            .unwrap();
            let brute = breakdown_brute(&kernel, &image, &shape);
            assert_eq!(fast, brute, "shape {shape}");
        }
    }

    #[test]
    fn breakdown_partitions_total() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = ConvShape::new(3, 3, 10, 10, 1).unwrap();
        let kernel = sparsify::random_with_sparsity(3, 3, 0.5, &mut rng);
        let image = sparsify::random_with_sparsity(10, 10, 0.8, &mut rng);
        let b = breakdown(
            &CsrMatrix::from_dense(&kernel),
            &CsrMatrix::from_dense(&image),
            &shape,
        )
        .unwrap();
        assert_eq!(
            b.total,
            b.useful + b.nonzero_rcp + b.kernel_zero_only + b.image_zero_only + b.both_zero
        );
    }

    #[test]
    fn dense_breakdown_matches_analytical_efficiency() {
        // With fully dense operands at stride 1, useful / nonzero ==
        // the analytical outer-product efficiency (Eq. 6).
        let shape = ConvShape::new(4, 4, 12, 12, 1).unwrap();
        let kernel = DenseMatrix::from_fn(4, 4, |_, _| 1.0);
        let image = DenseMatrix::from_fn(12, 12, |_, _| 1.0);
        let b = breakdown(
            &CsrMatrix::from_dense(&kernel),
            &CsrMatrix::from_dense(&image),
            &shape,
        )
        .unwrap();
        let measured = b.useful as f64 / (b.useful + b.nonzero_rcp) as f64;
        assert!((measured - shape.outer_product_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn update_phase_is_rcp_dominated() {
        // Table 2's insight: for the G_A * A phase, RCPs dominate even at
        // modest sizes.
        let mut rng = StdRng::seed_from_u64(9);
        let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
        let kernel = sparsify::random_with_sparsity(14, 14, 0.9, &mut rng);
        let image = sparsify::random_with_sparsity(16, 16, 0.9, &mut rng);
        let b = breakdown(
            &CsrMatrix::from_dense(&kernel),
            &CsrMatrix::from_dense(&image),
            &shape,
        )
        .unwrap();
        assert!(
            b.rcp_fraction_of_nonzero() > 0.85,
            "rcp fraction {:.3}",
            b.rcp_fraction_of_nonzero()
        );
    }

    #[test]
    fn reused_counter_scratch_matches_fresh_counts() {
        // One scratch across images of different shapes and strides must
        // reproduce the allocating count exactly.
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = NzCounterScratch::new();
        for (shape, sparsity) in [
            (ConvShape::new(3, 3, 12, 12, 1).unwrap(), 0.6),
            (ConvShape::new(4, 4, 9, 9, 1).unwrap(), 0.9),
            (ConvShape::new(3, 3, 11, 11, 2).unwrap(), 0.7),
            (ConvShape::with_dilation(3, 3, 11, 11, 1, 2).unwrap(), 0.5),
            (ConvShape::new(2, 2, 6, 6, 1).unwrap(), 0.3),
        ] {
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
            let (kernel, image) = (
                CsrMatrix::from_dense(&kernel),
                CsrMatrix::from_dense(&image),
            );
            assert_eq!(
                count_useful_products_with(&kernel, &image, &shape, &mut scratch),
                count_useful_products(&kernel, &image, &shape),
                "shape {shape}"
            );
        }
    }

    /// A random pair for the counter's property test: a shape drawn from
    /// one of four families at stride and dilation 1-3, operands at a
    /// random sparsity (fully empty kernels included), and some image rows
    /// zeroed.
    fn random_counter_case(rng: &mut StdRng) -> (ConvShape, DenseMatrix, DenseMatrix) {
        use rand::Rng;
        let stride = rng.gen_range(1..=3usize);
        let dilation = rng.gen_range(1..=3usize);
        let shape = match rng.gen_range(0..4u32) {
            // A small kernel over a larger image (forward/backward-like),
            // sometimes wider than two mask words.
            0 => {
                let (kh, kw) = (rng.gen_range(1..=4usize), rng.gen_range(1..=4usize));
                let h = dilation * (kh - 1) + 1 + rng.gen_range(0..12usize);
                let extra: usize = if rng.gen_bool(0.25) { 130 } else { 12 };
                let w = dilation * (kw - 1) + 1 + rng.gen_range(0..extra);
                ConvShape::with_dilation(kh, kw, h, w, stride, dilation).unwrap()
            }
            // A kernel larger than its reach: the output is at most 3x3,
            // as in the update phase.
            1 => {
                let (oh, ow) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
                let (kh, kw) = (rng.gen_range(3..=9usize), rng.gen_range(3..=9usize));
                let h = dilation * (kh - 1) + 1 + stride * (oh - 1);
                let w = dilation * (kw - 1) + 1 + stride * (ow - 1);
                ConvShape::with_dilation(kh, kw, h, w, stride, dilation).unwrap()
            }
            // An explicit, trimmed output: a scaled-down update row of a
            // strided layer (G_A over A, the forward kernel's extent as
            // output, trailing image rows and columns left unused).
            2 => {
                let (kh, kw) = (rng.gen_range(2..=8usize), rng.gen_range(2..=8usize));
                let (oh, ow) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
                let h = dilation * (kh - 1) + oh + rng.gen_range(0..=stride);
                let w = dilation * (kw - 1) + ow + rng.gen_range(0..=stride);
                let natural = ConvShape::with_dilation(kh, kw, h, w, stride, dilation).unwrap();
                let (oh, ow) = (oh.min(natural.out_h()), ow.min(natural.out_w()));
                ConvShape::with_output(kh, kw, h, w, stride, dilation, oh, ow).unwrap()
            }
            // A kernel wider than one mask word over an image wider than
            // two: shifts cross word boundaries and read the carry word.
            _ => {
                let (kh, kw) = (rng.gen_range(1..=2usize), rng.gen_range(60..=80usize));
                let (oh, ow) = (rng.gen_range(1..=3usize), rng.gen_range(1..=70usize));
                let h = dilation * (kh - 1) + 1 + stride * (oh - 1);
                let w = dilation * (kw - 1) + 1 + stride * (ow - 1);
                ConvShape::with_dilation(kh, kw, h, w, stride, dilation).unwrap()
            }
        };
        let kernel_sparsity = [0.0, 0.5, 0.9, 1.0][rng.gen_range(0..4usize)];
        let image_sparsity = [0.0, 0.3, 0.7, 0.95][rng.gen_range(0..4usize)];
        let kernel = sparsify::random_with_sparsity(
            shape.kernel_h(),
            shape.kernel_w(),
            kernel_sparsity,
            rng,
        );
        let mut image =
            sparsify::random_with_sparsity(shape.image_h(), shape.image_w(), image_sparsity, rng);
        for y in 0..shape.image_h() {
            if rng.gen_bool(0.2) {
                for x in 0..shape.image_w() {
                    image.set(y, x, 0.0);
                }
            }
        }
        (shape, kernel, image)
    }

    #[test]
    fn useful_count_matches_brute_force_on_both_paths() {
        // Independent of the path rule: every count is checked against the
        // brute-force oracle, and the cases must land on both sides of it.
        let mut rng = StdRng::seed_from_u64(2583);
        let mut scratch = NzCounterScratch::new();
        let mut taken = [0u32; 2];
        for case in 0..3000 {
            let (shape, kernel, image) = random_counter_case(&mut rng);
            let expected = breakdown_brute(&kernel, &image, &shape).useful;
            let (kernel, image) = (
                CsrMatrix::from_dense(&kernel),
                CsrMatrix::from_dense(&image),
            );
            let path = useful_count_path(kernel.nnz(), image.nnz(), &shape);
            taken[usize::from(path == UsefulCountPath::RowMasks)] += 1;
            assert_eq!(
                count_useful_products_with(&kernel, &image, &shape, &mut scratch),
                expected,
                "case {case}: {shape} via {path:?}"
            );
            assert_eq!(count_useful_products(&kernel, &image, &shape), expected);
        }
        assert!(
            taken.iter().all(|&n| n >= 200),
            "both paths must be exercised: {taken:?}"
        );
    }

    #[test]
    fn each_fig09_phase_geometry_takes_its_path() {
        // Shapes and non-zero counts as the Fig. 9 grid synthesizes them at
        // 90% sparsity: the row walk for every forward and backward pair
        // (a sparse 1x1 weight plane has no non-zero at all) and for the
        // update pairs of small layers, the row masks for the update pairs
        // of the larger ones.
        use UsefulCountPath::{RowMasks, RowWalk};
        let cases = [
            // CIFAR 3x3 layer, 32x32 padded to 34x34.
            (
                "cifar 3x3 W*A",
                ConvShape::new(3, 3, 34, 34, 1),
                1,
                102,
                RowWalk,
            ),
            (
                "cifar 3x3 W*G_A",
                ConvShape::new(3, 3, 34, 34, 1),
                1,
                102,
                RowWalk,
            ),
            (
                "cifar 3x3 G_A*A",
                ConvShape::with_output(32, 32, 34, 34, 1, 1, 3, 3),
                102,
                102,
                RowMasks,
            ),
            // CIFAR 1x1 layer.
            (
                "cifar 1x1 W*A",
                ConvShape::new(1, 1, 32, 32, 1),
                0,
                102,
                RowWalk,
            ),
            (
                "cifar 1x1 G_A*A",
                ConvShape::with_output(32, 32, 32, 32, 1, 1, 1, 1),
                102,
                102,
                RowMasks,
            ),
            // A late CIFAR 3x3 layer at 8x8, padded to 10x10: six kernel
            // non-zeros reach too few rows for the masks to pay off.
            (
                "cifar 8x8 G_A*A",
                ConvShape::with_output(8, 8, 10, 10, 1, 1, 3, 3),
                6,
                10,
                RowWalk,
            ),
            // ResNet-50's 7x7 stride-2 stem: 224x224 padded to 230x230; the
            // backward image is G_A dilated by 2 and padded by 6.
            (
                "resnet50 stem W*A",
                ConvShape::new(7, 7, 230, 230, 2),
                5,
                5018,
                RowWalk,
            ),
            (
                "resnet50 stem W*G_A",
                ConvShape::new(7, 7, 235, 235, 1),
                5,
                1254,
                RowWalk,
            ),
            (
                "resnet50 stem G_A*A",
                ConvShape::with_output(112, 112, 230, 230, 1, 2, 7, 7),
                1254,
                5018,
                RowMasks,
            ),
            // ResNet-50 3x3 layer at 56x56, padded to 58x58.
            (
                "resnet50 56x56 W*A",
                ConvShape::new(3, 3, 58, 58, 1),
                1,
                313,
                RowWalk,
            ),
            (
                "resnet50 56x56 G_A*A",
                ConvShape::with_output(56, 56, 58, 58, 1, 1, 3, 3),
                313,
                313,
                RowMasks,
            ),
        ];
        for (name, shape, kernel_nnz, image_nnz, expected) in cases {
            assert_eq!(
                useful_count_path(kernel_nnz, image_nnz, &shape.unwrap()),
                expected,
                "{name}"
            );
        }
    }

    #[test]
    fn counter_counts_zero_outside_reach() {
        // dilation 4 * (3-1) + 1 = 9 fits exactly: a 1x1 output.
        let shape = ConvShape::with_dilation(3, 3, 9, 9, 1, 4).unwrap();
        let image = CsrMatrix::from_triplets(9, 9, vec![(0, 0, 1.0)]).unwrap();
        let kernel_at = |r, s| CsrMatrix::from_triplets(3, 3, vec![(r, s, 1.0)]).unwrap();
        // Kernel element (2,2) starts at image (8,8): cannot reach (0,0).
        assert_eq!(count_useful_products(&kernel_at(2, 2), &image, &shape), 0);
        assert_eq!(count_useful_products(&kernel_at(0, 0), &image, &shape), 1);
    }

    #[test]
    fn explicit_output_shrinks_the_valid_set() {
        // The stride-2 update phase uses an explicit (smaller) output;
        // products reaching the trimmed region must classify as RCPs.
        let natural = ConvShape::with_dilation(4, 4, 9, 9, 1, 2).unwrap();
        assert_eq!((natural.out_h(), natural.out_w()), (3, 3));
        let trimmed = ConvShape::with_output(4, 4, 9, 9, 1, 2, 2, 2).unwrap();
        let mut demoted = 0u32;
        for r in 0..4 {
            for s in 0..4 {
                for y in 0..9 {
                    for x in 0..9 {
                        let nat_valid = natural.is_valid_product(x, y, s, r);
                        let trim_valid = trimmed.is_valid_product(x, y, s, r);
                        // Trimming only removes validity, never adds it.
                        assert!(!trim_valid || nat_valid);
                        if nat_valid && !trim_valid {
                            demoted += 1;
                            // classify() must agree.
                            assert!(classify(&trimmed, x, y, s, r).is_rcp());
                        }
                    }
                }
            }
        }
        assert!(demoted > 0, "trimming the output must demote some products");
    }

    #[test]
    fn element_test_respects_explicit_output() {
        let trimmed = ConvShape::with_output(3, 3, 10, 10, 1, 1, 4, 4).unwrap();
        for r in 0..3 {
            for s in 0..3 {
                for y in 0..10 {
                    for x in 0..10 {
                        // At stride 1 the element test is exact even with an
                        // explicit output.
                        assert_eq!(
                            passes_element_test(&trimmed, x, y, s, r),
                            trimmed.is_valid_product(x, y, s, r),
                            "x={x} y={y} s={s} r={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = ProductBreakdown {
            total: 10,
            useful: 1,
            nonzero_rcp: 2,
            kernel_zero_only: 3,
            image_zero_only: 4,
            both_zero: 0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total, 20);
        assert_eq!(a.useful, 2);
    }
}
