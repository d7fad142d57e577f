//! Property-based tests for workload synthesis.

use ant_workloads::models::ConvLayerSpec;
use ant_workloads::synth::{synthesize_layer, synthesize_matmul, LayerSparsity};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn layer_spec() -> impl Strategy<Value = ConvLayerSpec> {
    (1usize..6, 1usize..6, 1usize..2, 0usize..2, 1usize..3).prop_flat_map(
        |(out_c, in_c, _pad_sel, padding, stride)| {
            (3usize..5).prop_flat_map(move |kernel| {
                // Input large enough for the kernel at this stride.
                (kernel + stride..kernel + 12).prop_map(move |input| {
                    ConvLayerSpec::new("prop", out_c, in_c, kernel, input, stride, padding, 1)
                })
            })
        },
    )
}

proptest! {
    /// Synthesized traces always have consistent plane dimensions and valid
    /// phase shapes.
    #[test]
    fn synthesized_traces_are_well_formed(
        spec in layer_spec(),
        sparsity in 0.0f64..0.99,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let synth = synthesize_layer(&spec, &LayerSparsity::uniform(sparsity), 3, &mut rng);
        let t = &synth.trace;
        prop_assert_eq!(t.out_channels(), spec.out_channels.min(3));
        prop_assert_eq!(t.in_channels(), spec.in_channels.min(3));
        let (oh, ow) = spec.output_dims();
        prop_assert_eq!(t.gradient(0).shape(), (oh, ow));
        // All three phase pair sets construct.
        prop_assert!(t.forward_pairs().is_ok());
        prop_assert!(t.backward_pairs().is_ok());
        prop_assert!(t.update_pairs().is_ok());
        // The scale factor restores the full channel count.
        let full = (spec.out_channels * spec.in_channels) as f64;
        let sampled = (t.out_channels() * t.in_channels()) as f64;
        prop_assert!((synth.channel_scale - full / sampled).abs() < 1e-12);
    }

    /// Activation planes are ReLU-like: non-negative with a zero padding
    /// border.
    #[test]
    fn activations_are_relu_like(spec in layer_spec(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let synth = synthesize_layer(&spec, &LayerSparsity::uniform(0.5), 2, &mut rng);
        for c in 0..synth.trace.in_channels() {
            let plane = synth.trace.activation(c);
            prop_assert!(plane.iter().all(|(_, _, v)| v > 0.0));
            if spec.padding > 0 {
                for c in 0..plane.cols() {
                    prop_assert_eq!(plane.get(0, c), 0.0);
                }
            }
        }
    }

    /// Synthesized matmul operands hit the requested shape and sparsity.
    #[test]
    fn matmul_synthesis_is_exact(
        h in 2usize..20,
        w in 2usize..20,
        s in 2usize..20,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let shape = ant_conv::matmul::MatmulShape::new(h, w, w, s).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (image, kernel) = synthesize_matmul(&shape, sparsity, sparsity, &mut rng);
        prop_assert_eq!(image.shape(), (h, w));
        prop_assert_eq!(kernel.shape(), (w, s));
        let expect_nnz = ((1.0 - sparsity) * (h * w) as f64).round() as usize;
        prop_assert_eq!(image.nnz(), expect_nnz);
    }

    /// Per-layer MAC accounting is multiplicative in the channel counts.
    #[test]
    fn forward_macs_scale_with_channels(spec in layer_spec()) {
        let mut doubled = spec.clone();
        doubled.out_channels *= 2;
        prop_assert_eq!(doubled.forward_macs(), 2 * spec.forward_macs());
    }
}
