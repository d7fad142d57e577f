//! Trace extraction: turning a trained layer's tensors into the 2-D
//! kernel/image pairs the accelerator simulators consume.
//!
//! A convolution layer step involves three convolutions (paper Section 2.1):
//! `W * A` (forward), `R(W) * G_A` (backward, on the dilated+padded
//! gradient), and `G_A * A` (update). On an SCNN-like machine each
//! decomposes into per-channel-pair 2-D convolutions. [`ConvTrace`] keeps
//! every plane in CSR, the form the machines consume, derives the backward
//! phase's planes once by index maps, and resolves each `(phase, k, c)`
//! pair to borrowed planes, so no pair owns a copy.

use ant_conv::efficiency::TrainingPhase;
use ant_conv::{ConvError, ConvShape};
use ant_core::AntError;
use ant_sparse::CsrMatrix;

use crate::layers::Conv2d;
use crate::tensor::Tensor4;

/// One simulator work unit with owned operands: a sparse kernel, a sparse
/// image, and the convolution shape connecting them. [`ConvTrace::pair`]
/// lends the same three without copying.
#[derive(Debug, Clone)]
pub struct ConvPair {
    /// The convolution kernel (CSR).
    pub kernel: CsrMatrix,
    /// The convolution image (CSR).
    pub image: CsrMatrix,
    /// Dimension bookkeeping for RCP detection.
    pub shape: ConvShape,
}

/// A borrowed pair: `(kernel, image, shape)`.
pub type PairRef<'a> = (&'a CsrMatrix, &'a CsrMatrix, &'a ConvShape);

/// The captured tensors of one convolution layer at one training step, for
/// one sample of the batch, with the backward phase's derived planes.
///
/// Construction validates that the planes admit all three convolutions, so
/// resolving a pair cannot fail.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvTrace {
    /// Layer label (for reports).
    pub name: String,
    stride: usize,
    /// Weight planes `W[k][c]`, each `R x S`, at `k * C + c`.
    weights: Vec<CsrMatrix>,
    /// Padded input activation planes `A[c]`, each `H_pad x W_pad`.
    activations: Vec<CsrMatrix>,
    /// Output activation gradient planes `G_A[k]`, each `H_out x W_out`.
    grad_out: Vec<CsrMatrix>,
    /// Backward kernels `R(W[k][c])`, at `k * C + c`.
    rotated: Vec<CsrMatrix>,
    /// Backward images: `G_A[k]` dilated by the stride and padded by
    /// `R - 1` rows and `S - 1` columns.
    grad_images: Vec<CsrMatrix>,
    /// Forward, backward and update shapes, in [`TrainingPhase::ALL`] order.
    shapes: [ConvShape; 3],
}

impl ConvTrace {
    /// Captures a trace from a conv layer after its forward pass, given the
    /// (possibly sparsified) gradient at its output, for batch element
    /// `sample`.
    ///
    /// # Panics
    ///
    /// Panics if the layer has not run `forward`, `sample` is out of range,
    /// or `grad_out` does not have the layer's output dimensions.
    pub fn from_layer(name: &str, conv: &Conv2d, grad_out: &Tensor4, sample: usize) -> Self {
        let padded = conv.cached_input_padded().ok_or_else(|| {
            AntError::invalid_config("trace_capture", "capture requires a forward pass")
        });
        let trace = padded
            .and_then(|padded| {
                assert!(sample < padded.n(), "sample out of range");
                let weights = (0..conv.out_channels())
                    .map(|k| {
                        (0..conv.in_channels())
                            .map(|c| CsrMatrix::from_dense(&conv.kernel_plane(k, c)))
                            .collect()
                    })
                    .collect();
                let activations = (0..conv.in_channels())
                    .map(|c| CsrMatrix::from_dense(&padded.channel(sample, c)))
                    .collect();
                let grads = (0..conv.out_channels())
                    .map(|k| CsrMatrix::from_dense(&grad_out.channel(sample, k)))
                    .collect();
                Self::try_from_planes(name, conv.stride(), weights, activations, grads)
            })
            .unwrap_or_else(|e| panic!("capture of {name:?}: {e}"));
        if ant_obs::enabled() {
            ant_obs::event(
                "trace_capture",
                &[
                    ("layer", name.into()),
                    ("out_channels", (trace.out_channels() as u64).into()),
                    ("in_channels", (trace.in_channels() as u64).into()),
                    ("weight_sparsity", trace.weight_sparsity().into()),
                    ("activation_sparsity", trace.activation_sparsity().into()),
                    ("gradient_sparsity", trace.gradient_sparsity().into()),
                ],
            );
        }
        trace
    }

    /// Builds a trace from CSR planes (synthetic traces, decoded bundles)
    /// and derives the backward phase's planes: each weight rotated by
    /// 180° and each gradient dilated by the stride and padded by the
    /// kernel extent, all by index maps.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidConfig`] when any plane collection is
    /// empty, when the weight rows don't match the output-gradient channel
    /// count, when a weight row is ragged against the input channels, or
    /// when planes of one role differ in dimensions; and the
    /// [`ConvError`] (as [`AntError`]) when the weight, activation and
    /// gradient dimensions admit no forward convolution at `stride`.
    pub fn try_from_planes(
        name: &str,
        stride: usize,
        weights: Vec<Vec<CsrMatrix>>,
        activations: Vec<CsrMatrix>,
        grad_out: Vec<CsrMatrix>,
    ) -> Result<Self, AntError> {
        let invalid = |reason: String| AntError::invalid_config("trace_planes", reason);
        if weights.is_empty() || activations.is_empty() || grad_out.is_empty() {
            return Err(invalid(format!(
                "trace planes must be non-empty (layer {name:?}: \
                 {} weight rows, {} activations, {} gradients)",
                weights.len(),
                activations.len(),
                grad_out.len()
            )));
        }
        if weights.len() != grad_out.len() {
            return Err(invalid(format!(
                "layer {name:?} needs one weight row per output channel \
                 ({} weight rows, {} gradient planes)",
                weights.len(),
                grad_out.len()
            )));
        }
        if let Some(row) = weights
            .iter()
            .position(|row| row.len() != activations.len())
        {
            return Err(invalid(format!(
                "layer {name:?} weight row {row} has {} planes but there \
                 are {} input channels",
                weights[row].len(),
                activations.len()
            )));
        }
        let weights: Vec<CsrMatrix> = weights.into_iter().flatten().collect();
        for (role, planes) in [
            ("weight", &weights),
            ("activation", &activations),
            ("gradient", &grad_out),
        ] {
            if let Some(i) = planes.iter().position(|p| p.shape() != planes[0].shape()) {
                return Err(invalid(format!(
                    "layer {name:?} {role} plane {i} is {:?}, plane 0 is {:?}",
                    planes[i].shape(),
                    planes[0].shape()
                )));
            }
        }
        let mut span = ant_obs::span("derive_planes");
        if span.is_recording() {
            span.record("layer", name).record("planes", weights.len());
        }
        let (r, s) = weights[0].shape();
        let (h, w) = activations[0].shape();
        let (oh, ow) = grad_out[0].shape();
        let forward = ConvShape::with_output(r, s, h, w, stride, 1, oh, ow)?;
        // The forward shape bounds `(oh - 1) * stride` by `h - r`, so the
        // dilated gradient is no larger than the activation plane.
        let grad_images: Vec<CsrMatrix> = grad_out
            .iter()
            .map(|g| g.dilate_pad(stride, r - 1, s - 1))
            .collect();
        let (bh, bw) = grad_images[0].shape();
        let shapes = [
            forward,
            ConvShape::new(r, s, bh, bw, 1)?,
            ConvShape::with_output(oh, ow, h, w, 1, stride, r, s)?,
        ];
        Ok(Self {
            name: name.to_string(),
            stride,
            rotated: weights.iter().map(CsrMatrix::rotate180).collect(),
            weights,
            activations,
            grad_out,
            grad_images,
            shapes,
        })
    }

    /// Forward stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Output channel count `K`.
    pub fn out_channels(&self) -> usize {
        self.grad_out.len()
    }

    /// Input channel count `C`.
    pub fn in_channels(&self) -> usize {
        self.activations.len()
    }

    /// Weight plane `W[k][c]` (`R x S`).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `c` is out of range.
    pub fn weight(&self, k: usize, c: usize) -> &CsrMatrix {
        assert!(c < self.in_channels(), "input channel out of range");
        &self.weights[k * self.in_channels() + c]
    }

    /// Padded input activation plane `A[c]`.
    pub fn activation(&self, c: usize) -> &CsrMatrix {
        &self.activations[c]
    }

    /// Output activation gradient plane `G_A[k]`.
    pub fn gradient(&self, k: usize) -> &CsrMatrix {
        &self.grad_out[k]
    }

    /// The convolution shape of `phase`'s pairs: `R x S` over the padded
    /// image (forward), the rotated `R x S` kernel over the dilated,
    /// padded gradient (backward), or `G_A` dilated by the stride over the
    /// padded image, producing `R x S` (update).
    pub fn shape(&self, phase: TrainingPhase) -> ConvShape {
        self.shapes[phase as usize]
    }

    /// Pairs per phase: `K * C`.
    pub fn pair_count(&self) -> usize {
        self.weights.len()
    }

    /// Resident image planes per phase: the planes held while every kernel
    /// streams past (image-stationary reuse, paper Sections 2.3 and 6.1),
    /// `C` activations in the forward and update phases and `K` gradients
    /// in the backward phase.
    pub fn distinct_images(&self, phase: TrainingPhase) -> usize {
        match phase {
            TrainingPhase::Backward => self.out_channels(),
            TrainingPhase::Forward | TrainingPhase::Update => self.in_channels(),
        }
    }

    /// The borrowed `(kernel, image, shape)` of pair `(k, c)` of `phase`:
    /// `W[k][c]` on `A[c]` (forward), `R(W[k][c])` on the dilated, padded
    /// `G_A[k]` (backward), `G_A[k]` on `A[c]` (update).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `c` is out of range.
    pub fn pair(&self, phase: TrainingPhase, k: usize, c: usize) -> PairRef<'_> {
        let channels = self.in_channels();
        assert!(c < channels, "input channel out of range");
        let shape = &self.shapes[phase as usize];
        match phase {
            TrainingPhase::Forward => {
                (&self.weights[k * channels + c], &self.activations[c], shape)
            }
            TrainingPhase::Backward => {
                (&self.rotated[k * channels + c], &self.grad_images[k], shape)
            }
            TrainingPhase::Update => (&self.grad_out[k], &self.activations[c], shape),
        }
    }

    /// Every pair of `phase` in `(k, c)` order, `c` fastest: pair `i` is
    /// `(i / C, i % C)`.
    pub fn pairs(&self, phase: TrainingPhase) -> impl Iterator<Item = PairRef<'_>> {
        let channels = self.in_channels();
        (0..self.pair_count()).map(move |i| self.pair(phase, i / channels, i % channels))
    }

    /// The `W * A` forward pairs as owned copies: kernel `W[k][c]`, image
    /// `A[c]`, for every `(k, c)`.
    ///
    /// # Errors
    ///
    /// None: the shapes were validated when the trace was built. The
    /// `Result` keeps callers written against the fallible form compiling.
    pub fn forward_pairs(&self) -> Result<Vec<ConvPair>, ConvError> {
        Ok(self.owned_pairs(TrainingPhase::Forward))
    }

    /// The `G_A * A` update pairs as owned copies: kernel `G_A[k]` (dilated
    /// by the forward stride via the shape), image `A[c]`, for every
    /// `(k, c)`.
    ///
    /// # Errors
    ///
    /// None, as for [`ConvTrace::forward_pairs`].
    pub fn update_pairs(&self) -> Result<Vec<ConvPair>, ConvError> {
        Ok(self.owned_pairs(TrainingPhase::Update))
    }

    /// The `R(W) * G_A` backward pairs as owned copies: kernel = rotated
    /// `W[k][c]`, image = the dilated (by stride) and `R-1`-padded gradient
    /// `G_A[k]`.
    ///
    /// # Errors
    ///
    /// None, as for [`ConvTrace::forward_pairs`].
    pub fn backward_pairs(&self) -> Result<Vec<ConvPair>, ConvError> {
        Ok(self.owned_pairs(TrainingPhase::Backward))
    }

    /// Copies `phase`'s pairs out under a `materialize_pairs` span.
    fn owned_pairs(&self, phase: TrainingPhase) -> Vec<ConvPair> {
        let mut span = ant_obs::span("materialize_pairs");
        if span.is_recording() {
            let name = match phase {
                TrainingPhase::Forward => "forward",
                TrainingPhase::Backward => "backward",
                TrainingPhase::Update => "update",
            };
            span.record("layer", self.name.as_str())
                .record("phase", name);
        }
        let pairs: Vec<ConvPair> = self
            .pairs(phase)
            .map(|(kernel, image, shape)| ConvPair {
                kernel: kernel.clone(),
                image: image.clone(),
                shape: *shape,
            })
            .collect();
        span.record("pairs", pairs.len() as u64);
        pairs
    }

    /// Mean sparsity of the weight planes.
    pub fn weight_sparsity(&self) -> f64 {
        mean_sparsity(&self.weights)
    }

    /// Mean sparsity of the activation planes.
    pub fn activation_sparsity(&self) -> f64 {
        mean_sparsity(&self.activations)
    }

    /// Mean sparsity of the gradient planes.
    pub fn gradient_sparsity(&self) -> f64 {
        mean_sparsity(&self.grad_out)
    }
}

fn mean_sparsity(planes: &[CsrMatrix]) -> f64 {
    let mut zeros = 0usize;
    let mut total = 0usize;
    for p in planes {
        let len = p.rows() * p.cols();
        zeros += len - p.nnz();
        total += len;
    }
    if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layer;
    use ant_sparse::DenseMatrix;

    fn traced_layer() -> (Conv2d, Tensor4, Tensor4) {
        let mut conv = Conv2d::new(2, 3, 3, 3, 1, 1, 11);
        let input = Tensor4::from_fn(1, 3, 6, 6, |_, c, h, w| {
            (((c + 1) * (h * 6 + w)) as f32 * 0.37).sin().max(0.0)
        });
        let out = conv.forward(&input);
        (conv, input, out)
    }

    #[test]
    fn capture_dimensions() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        assert_eq!(trace.out_channels(), 2);
        assert_eq!(trace.in_channels(), 3);
        assert_eq!(trace.activation(0).shape(), (8, 8)); // padded 6+2
        assert_eq!(trace.gradient(0).shape(), (6, 6));
        assert_eq!(trace.weight(1, 2).shape(), (3, 3));
    }

    #[test]
    fn forward_pairs_shape_and_count() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.forward_pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        assert_eq!((pairs[0].shape.out_h(), pairs[0].shape.out_w()), (6, 6));
    }

    #[test]
    fn update_pairs_produce_weight_gradient_shape() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.update_pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        assert_eq!((pairs[0].shape.out_h(), pairs[0].shape.out_w()), (3, 3));
        // The update kernel is the gradient plane.
        assert_eq!(pairs[0].kernel.shape(), (6, 6));
    }

    #[test]
    fn backward_pairs_recover_padded_input_dims() {
        let (conv, input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.backward_pairs().unwrap();
        assert_eq!(pairs.len(), 6);
        // Output of the backward conv covers the padded input.
        assert_eq!(
            (pairs[0].shape.out_h(), pairs[0].shape.out_w()),
            (input.h() + 2, input.w() + 2)
        );
    }

    /// The decomposed per-channel pairs must reproduce the layer's own
    /// forward computation when summed over input channels.
    #[test]
    fn forward_pairs_functionally_correct() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        let pairs = trace.forward_pairs().unwrap();
        let shape = trace.shape(TrainingPhase::Forward);
        for k in 0..trace.out_channels() {
            let mut acc = DenseMatrix::zeros(shape.out_h(), shape.out_w());
            for c in 0..trace.in_channels() {
                let pair = &pairs[k * trace.in_channels() + c];
                let partial =
                    ant_conv::outer::sparse_conv_outer(&pair.kernel, &pair.image, &pair.shape)
                        .unwrap();
                for (r, col, v) in partial.output.iter_nonzero() {
                    acc[(r, col)] += v;
                }
            }
            // Compare against the layer's own output (minus bias, which the
            // pair decomposition does not carry). Bias is zero-initialized.
            let expected = out.channel(0, k);
            assert!(acc.approx_eq(&expected, 1e-3), "channel {k}");
        }
    }

    /// The update pairs must compute the true weight gradient.
    #[test]
    fn update_pairs_functionally_correct() {
        let (mut conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        // Use the forward output as a stand-in gradient; run real backward.
        let _ = conv.backward(&out);
        let pairs = trace.update_pairs().unwrap();
        // Pair (k=0, c=0): reproduce grad_weight[0][0].
        let pair = &pairs[0];
        let result =
            ant_conv::outer::sparse_conv_outer(&pair.kernel, &pair.image, &pair.shape).unwrap();
        // Reference: finite loop from the captured planes.
        let g = &trace.gradient(0).to_dense();
        let a = &trace.activation(0).to_dense();
        let mut expected = DenseMatrix::zeros(3, 3);
        for r in 0..3 {
            for s in 0..3 {
                let mut acc = 0.0;
                for oy in 0..g.rows() {
                    for ox in 0..g.cols() {
                        acc += g.get(oy, ox) * a.get(oy + r, ox + s);
                    }
                }
                expected[(r, s)] = acc;
            }
        }
        assert!(result.output.approx_eq(&expected, 1e-2));
    }

    /// The borrowed pairs are the owned copies, plane for plane, and the
    /// backward planes are the dense rotation and dilate-then-pad.
    #[test]
    fn borrowed_pairs_equal_the_owned_copies() {
        let mut conv = Conv2d::new(2, 3, 3, 3, 2, 1, 5);
        let input = Tensor4::from_fn(1, 3, 7, 7, |_, c, h, w| {
            (((c + 2) * (h * 7 + w)) as f32 * 0.41).cos().max(0.0)
        });
        let out = conv.forward(&input);
        let trace = ConvTrace::from_layer("strided", &conv, &out, 0);
        assert_eq!(trace.stride(), 2);
        for (phase, owned) in [
            (TrainingPhase::Forward, trace.forward_pairs().unwrap()),
            (TrainingPhase::Backward, trace.backward_pairs().unwrap()),
            (TrainingPhase::Update, trace.update_pairs().unwrap()),
        ] {
            assert_eq!(owned.len(), trace.pair_count());
            for (i, (kernel, image, shape)) in trace.pairs(phase).enumerate() {
                assert_eq!(
                    (kernel, image, shape),
                    (&owned[i].kernel, &owned[i].image, &owned[i].shape)
                );
            }
        }
        let (kernel, image, shape) = trace.pair(TrainingPhase::Backward, 1, 2);
        assert_eq!(kernel.to_dense(), trace.weight(1, 2).to_dense().rotate180());
        let dilated = ant_conv::dense::dilate(&trace.gradient(1).to_dense(), 2);
        assert_eq!(image.to_dense(), ant_conv::dense::pad(&dilated, 2, 2));
        assert_eq!((shape.image_h(), shape.stride()), (image.rows(), 1));
    }

    #[test]
    fn inconsistent_planes_are_typed_errors() {
        let plane = |r, c| CsrMatrix::empty(r, c);
        let build = |w: Vec<Vec<CsrMatrix>>, a: Vec<CsrMatrix>, g: Vec<CsrMatrix>| {
            ConvTrace::try_from_planes("t", 1, w, a, g)
        };
        assert!(build(
            vec![vec![plane(3, 3)]],
            vec![plane(6, 6)],
            vec![plane(4, 4)]
        )
        .is_ok());
        let cases = [
            build(vec![], vec![plane(6, 6)], vec![plane(4, 4)]),
            build(
                vec![vec![plane(3, 3)]],
                vec![plane(6, 6)],
                vec![plane(4, 4); 2],
            ),
            build(
                vec![vec![plane(3, 3); 2]],
                vec![plane(6, 6)],
                vec![plane(4, 4)],
            ),
            build(
                vec![vec![plane(3, 3), plane(2, 2)]],
                vec![plane(6, 6); 2],
                vec![plane(4, 4)],
            ),
            // Kernel larger than the image, and an output larger than the
            // convolution produces.
            build(
                vec![vec![plane(7, 7)]],
                vec![plane(6, 6)],
                vec![plane(1, 1)],
            ),
            build(
                vec![vec![plane(3, 3)]],
                vec![plane(6, 6)],
                vec![plane(5, 5)],
            ),
        ];
        for (i, case) in cases.into_iter().enumerate() {
            assert!(case.is_err(), "case {i} accepted");
        }
    }

    #[test]
    fn sparsity_reporting() {
        let (conv, _input, out) = traced_layer();
        let trace = ConvTrace::from_layer("conv", &conv, &out, 0);
        assert!(trace.weight_sparsity() < 0.2); // dense init
        assert!(trace.activation_sparsity() > 0.0); // ReLU'd input has zeros
        let _ = trace.gradient_sparsity();
    }
}
