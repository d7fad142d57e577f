//! Synthetic sparse-trace generation (paper Section 6.2, "synthetically
//! sparsified ... by selecting the top-K values and setting the rest to 0").
//!
//! Given a layer geometry and target sparsities, this module fabricates the
//! per-channel weight / activation / gradient planes with *exact* non-zero
//! counts at uniformly random positions — the same distribution the paper's
//! top-K synthetic sparsification yields for ImageNet-scale models, the
//! transformer, and the RNN. Channel-pair sampling (`max_channels`) keeps
//! ImageNet-scale layers tractable; counters scale back linearly, which is
//! sound because channel pairs at fixed sparsity are statistically
//! interchangeable (DESIGN.md, "Sampling").

use ant_conv::matmul::MatmulShape;
use ant_nn::ConvTrace;
use ant_sparse::{sparsify, CsrMatrix};
use rand::Rng;

use crate::models::ConvLayerSpec;

/// Target sparsities for the three tensor roles of a training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSparsity {
    /// Weight sparsity (`W`).
    pub weight: f64,
    /// Activation sparsity (`A`).
    pub activation: f64,
    /// Activation-gradient sparsity (`G_A`).
    pub gradient: f64,
}

impl LayerSparsity {
    /// Uniform sparsity across all three roles (the paper's "90% sparse
    /// training" setting).
    pub fn uniform(sparsity: f64) -> Self {
        Self {
            weight: sparsity,
            activation: sparsity,
            gradient: sparsity,
        }
    }
}

/// A synthesized layer: the (possibly channel-sampled) trace plus the
/// scale factor that maps sampled counters back to the full layer.
#[derive(Debug, Clone)]
pub struct SynthesizedLayer {
    /// The trace with `k_sampled x c_sampled` channel planes.
    pub trace: ConvTrace,
    /// Multiply sampled counters by this to recover the full layer
    /// (`(K * C) / (k_sampled * c_sampled)`).
    pub channel_scale: f64,
}

/// Synthesizes a layer trace at the target sparsities.
///
/// At most `max_channels` output and input channels are materialized; the
/// returned `channel_scale` restores full-layer counts. Activation planes
/// are generated non-negative (ReLU regime) with the padding border zeroed,
/// exactly as a padded feature map looks in SRAM. Every plane is drawn
/// straight into CSR ([`sparsify::random_csr_with_sparsity`]) and padded
/// by an index map, in the same RNG order as the dense draws it replaces:
/// weights `[k][c]`, then activations `[c]`, then gradients `[k]`.
///
/// # Panics
///
/// Panics if `max_channels == 0`, a sparsity is outside `[0, 1]`, or the
/// spec's kernel does not fit its padded input.
pub fn synthesize_layer<R: Rng>(
    spec: &ConvLayerSpec,
    sparsity: &LayerSparsity,
    max_channels: usize,
    rng: &mut R,
) -> SynthesizedLayer {
    assert!(max_channels > 0, "need at least one channel");
    let k_s = spec.out_channels.min(max_channels);
    let c_s = spec.in_channels.min(max_channels);
    let (oh, ow) = spec.output_dims();
    let pad = spec.padding;

    let weights = (0..k_s)
        .map(|_| {
            (0..c_s)
                .map(|_| {
                    sparsify::random_csr_with_sparsity(
                        spec.kernel_h,
                        spec.kernel_w,
                        sparsity.weight,
                        rng,
                    )
                })
                .collect()
        })
        .collect();
    let activations = (0..c_s)
        .map(|_| {
            // Interior at target sparsity, zero border from padding.
            sparsify::random_csr_with_sparsity(spec.input_h, spec.input_w, sparsity.activation, rng)
                .map_values(f32::abs)
                .dilate_pad(1, pad, pad)
        })
        .collect();
    let grad_out = (0..k_s)
        .map(|_| sparsify::random_csr_with_sparsity(oh, ow, sparsity.gradient, rng))
        .collect();

    let trace = ConvTrace::try_from_planes(&spec.name, spec.stride, weights, activations, grad_out)
        .unwrap_or_else(|e| panic!("layer spec {:?}: {e}", spec.name));
    SynthesizedLayer {
        trace,
        channel_scale: (spec.out_channels * spec.in_channels) as f64 / (k_s * c_s) as f64,
    }
}

/// Synthesizes a sparse matmul operand pair for a [`MatmulShape`].
pub fn synthesize_matmul<R: Rng>(
    shape: &MatmulShape,
    image_sparsity: f64,
    kernel_sparsity: f64,
    rng: &mut R,
) -> (CsrMatrix, CsrMatrix) {
    let image =
        sparsify::random_csr_with_sparsity(shape.image_h(), shape.image_w(), image_sparsity, rng);
    let kernel = sparsify::random_csr_with_sparsity(
        shape.kernel_r(),
        shape.kernel_s(),
        kernel_sparsity,
        rng,
    );
    (image, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec_small() -> ConvLayerSpec {
        ConvLayerSpec::new("test", 8, 4, 3, 16, 1, 1, 1)
    }

    #[test]
    fn synthesized_dims_match_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = synthesize_layer(&spec_small(), &LayerSparsity::uniform(0.9), 16, &mut rng);
        assert_eq!(s.trace.out_channels(), 8);
        assert_eq!(s.trace.in_channels(), 4);
        assert_eq!(s.trace.activation(0).shape(), (18, 18));
        assert_eq!(s.trace.gradient(0).shape(), (16, 16));
        assert_eq!(s.channel_scale, 1.0);
    }

    #[test]
    fn channel_sampling_scales() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = ConvLayerSpec::new("big", 64, 32, 3, 8, 1, 1, 1);
        let s = synthesize_layer(&spec, &LayerSparsity::uniform(0.5), 8, &mut rng);
        assert_eq!(s.trace.out_channels(), 8);
        assert_eq!(s.trace.in_channels(), 8);
        assert_eq!(s.channel_scale, (64.0 * 32.0) / 64.0);
    }

    #[test]
    fn sparsities_hit_targets() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = ConvLayerSpec::new("t", 4, 4, 3, 24, 1, 0, 1);
        let s = synthesize_layer(
            &spec,
            &LayerSparsity {
                weight: 0.5,
                activation: 0.9,
                gradient: 0.8,
            },
            8,
            &mut rng,
        );
        assert!((s.trace.weight_sparsity() - 0.5).abs() < 0.12);
        assert!((s.trace.activation_sparsity() - 0.9).abs() < 0.05);
        assert!((s.trace.gradient_sparsity() - 0.8).abs() < 0.05);
    }

    #[test]
    fn activations_are_nonnegative_with_zero_border() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = synthesize_layer(&spec_small(), &LayerSparsity::uniform(0.3), 4, &mut rng);
        for c in 0..s.trace.in_channels() {
            let plane = s.trace.activation(c);
            assert!(plane.iter().all(|(_, _, v)| v > 0.0));
            // Border is zero (padding).
            for c in 0..plane.cols() {
                assert_eq!(plane.get(0, c), 0.0);
                assert_eq!(plane.get(plane.rows() - 1, c), 0.0);
            }
        }
    }

    #[test]
    fn synthesized_pairs_feed_the_simulator() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = synthesize_layer(&spec_small(), &LayerSparsity::uniform(0.9), 4, &mut rng);
        let pairs = s.trace.update_pairs().unwrap();
        assert_eq!(pairs.len(), 16);
        // Update kernel is the gradient plane (16x16 -> big kernel regime).
        assert_eq!(pairs[0].kernel.shape(), (16, 16));
        assert_eq!((pairs[0].shape.out_h(), pairs[0].shape.out_w()), (3, 3));
    }

    #[test]
    fn matmul_synthesis_matches_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = &models::transformer_matmuls()[0];
        let shape = spec.shape();
        let (image, kernel) = synthesize_matmul(&shape, 0.9, 0.9, &mut rng);
        assert_eq!(image.shape(), (512, 72));
        assert_eq!(kernel.shape(), (72, 512));
        assert!((image.sparsity() - 0.9).abs() < 0.01);
    }

    /// The dense path the CSR synthesis replaced, kept here as its
    /// reference: each plane scattered into a dense matrix, the padding
    /// copied into a larger one, and each phase's planes converted with
    /// `CsrMatrix::from_dense` after a dense rotation, dilation and pad.
    mod dense_reference {
        use ant_conv::dense as cdense;
        use ant_conv::efficiency::TrainingPhase;
        use ant_conv::ConvShape;
        use ant_nn::trace::ConvPair;
        use ant_sparse::{CsrMatrix, DenseMatrix};
        use rand::seq::SliceRandom;
        use rand::Rng;

        use crate::models::ConvLayerSpec;

        fn random_with_nnz<R: Rng>(
            rows: usize,
            cols: usize,
            nnz: usize,
            rng: &mut R,
        ) -> DenseMatrix {
            let mut positions: Vec<usize> = (0..rows * cols).collect();
            positions.shuffle(rng);
            let mut out = DenseMatrix::zeros(rows, cols);
            for &p in positions.iter().take(nnz) {
                let mut v = 0.0f32;
                while v == 0.0 {
                    v = rng.gen_range(-1.0f32..1.0f32);
                }
                out.as_mut_slice()[p] = v;
            }
            out
        }

        fn random_plane<R: Rng>(
            rows: usize,
            cols: usize,
            sparsity: f64,
            rng: &mut R,
        ) -> DenseMatrix {
            let nnz = ((1.0 - sparsity) * (rows * cols) as f64).round() as usize;
            random_with_nnz(rows, cols, nnz, rng)
        }

        fn pad_plane(interior: &DenseMatrix, pad: usize, ph: usize, pw: usize) -> DenseMatrix {
            let mut out = DenseMatrix::zeros(ph, pw);
            for (r, c, v) in interior.iter_nonzero() {
                out[(r + pad, c + pad)] = v;
            }
            out
        }

        /// Every phase's `(kernel, image, shape)` pairs, `(k, c)` order.
        pub(super) fn pairs<R: Rng>(
            spec: &ConvLayerSpec,
            sparsity: f64,
            max_channels: usize,
            rng: &mut R,
        ) -> Vec<(TrainingPhase, Vec<ConvPair>)> {
            let (k_s, c_s) = (
                spec.out_channels.min(max_channels),
                spec.in_channels.min(max_channels),
            );
            let (oh, ow) = spec.output_dims();
            let pad = spec.padding;
            let (ph, pw) = (spec.input_h + 2 * pad, spec.input_w + 2 * pad);
            let weights: Vec<Vec<DenseMatrix>> = (0..k_s)
                .map(|_| {
                    (0..c_s)
                        .map(|_| random_plane(spec.kernel_h, spec.kernel_w, sparsity, rng))
                        .collect()
                })
                .collect();
            let activations: Vec<DenseMatrix> = (0..c_s)
                .map(|_| {
                    let interior =
                        random_plane(spec.input_h, spec.input_w, sparsity, rng).map(f32::abs);
                    pad_plane(&interior, pad, ph, pw)
                })
                .collect();
            let grads: Vec<DenseMatrix> = (0..k_s)
                .map(|_| random_plane(oh, ow, sparsity, rng))
                .collect();
            let (r, s) = (spec.kernel_h, spec.kernel_w);
            let forward = ConvShape::with_output(r, s, ph, pw, spec.stride, 1, oh, ow).unwrap();
            let update = ConvShape::with_output(oh, ow, ph, pw, 1, spec.stride, r, s).unwrap();
            let mut out = vec![
                (TrainingPhase::Forward, Vec::new()),
                (TrainingPhase::Backward, Vec::new()),
                (TrainingPhase::Update, Vec::new()),
            ];
            for k in 0..k_s {
                let dilated = cdense::dilate(&grads[k], spec.stride);
                let padded = cdense::pad(&dilated, r - 1, s - 1);
                let backward = ConvShape::new(r, s, padded.rows(), padded.cols(), 1).unwrap();
                for c in 0..c_s {
                    let pair = |kernel: &DenseMatrix, image: &DenseMatrix, shape| ConvPair {
                        kernel: CsrMatrix::from_dense(kernel),
                        image: CsrMatrix::from_dense(image),
                        shape,
                    };
                    out[0]
                        .1
                        .push(pair(&weights[k][c], &activations[c], forward));
                    out[1]
                        .1
                        .push(pair(&weights[k][c].rotate180(), &padded, backward));
                    out[2].1.push(pair(&grads[k], &activations[c], update));
                }
            }
            out
        }
    }

    /// The CSR synthesis and every phase's borrowed pairs equal
    /// `from_dense` of the dense path, over seeded random geometries:
    /// padding 0-3, stride 1-3, 1x1 to 7x7 kernels, and channel counts
    /// below and above `max_channels`.
    #[test]
    fn csr_synthesis_equals_the_dense_path() {
        let mut specs = StdRng::seed_from_u64(0x5EED);
        for case in 0..160 {
            let kernel = [1usize, 3, 5, 7][case % 4];
            let stride = specs.gen_range(1usize..4);
            let padding = specs.gen_range(0usize..4);
            let input = specs.gen_range(kernel.saturating_sub(2 * padding).max(1)..kernel + 14);
            let out_c = specs.gen_range(1usize..7);
            let in_c = specs.gen_range(1usize..7);
            let max_channels = specs.gen_range(1usize..6);
            let sparsity = [0.0, 0.5, 0.9, 0.99, specs.gen_range(0.0..1.0)][case % 5];
            let spec = ConvLayerSpec::new("case", out_c, in_c, kernel, input, stride, padding, 1);
            let seed = specs.gen_range(0u64..u64::MAX);
            let synth = synthesize_layer(
                &spec,
                &LayerSparsity::uniform(sparsity),
                max_channels,
                &mut StdRng::seed_from_u64(seed),
            );
            let expected = dense_reference::pairs(
                &spec,
                sparsity,
                max_channels,
                &mut StdRng::seed_from_u64(seed),
            );
            for (phase, pairs) in &expected {
                let trace = &synth.trace;
                assert_eq!(trace.pair_count(), pairs.len(), "case {case} {spec:?}");
                for (i, (kernel, image, shape)) in trace.pairs(*phase).enumerate() {
                    let p = &pairs[i];
                    assert!(
                        (kernel, image, shape) == (&p.kernel, &p.image, &p.shape),
                        "case {case} {spec:?} {phase} pair {i} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let s1 = synthesize_layer(&spec_small(), &LayerSparsity::uniform(0.7), 4, &mut a);
        let s2 = synthesize_layer(&spec_small(), &LayerSparsity::uniform(0.7), 4, &mut b);
        assert_eq!(s1.trace, s2.trace);
    }
}
