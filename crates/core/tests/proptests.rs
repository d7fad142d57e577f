//! Property-based tests for the ANT anticipator hardware models.

use ant_conv::dense::conv2d;
use ant_conv::matmul::MatmulShape;
use ant_conv::rcp::IndexRange;
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, AntScratch, Anticipator};
use ant_core::range::GroupRanges;
use ant_core::scan::scan_kernel;
use ant_core::Fnir;
use ant_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;

fn sparse_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(prop_oneof![2 => Just(0.0f32), 1 => -4.0f32..4.0f32], len)
}

#[derive(Debug, Clone)]
struct ConvCase {
    shape: ConvShape,
    kernel: DenseMatrix,
    image: DenseMatrix,
}

fn conv_case() -> impl Strategy<Value = ConvCase> {
    (1usize..6, 1usize..6, 1usize..3)
        .prop_flat_map(|(kh, kw, stride)| (Just((kh, kw, stride)), kh..kh + 10, kw..kw + 10))
        .prop_flat_map(|((kh, kw, stride), h, w)| {
            (
                Just(ConvShape::new(kh, kw, h, w, stride).expect("valid")),
                sparse_values(kh * kw),
                sparse_values(h * w),
            )
        })
        .prop_map(|(shape, kvals, ivals)| ConvCase {
            shape,
            kernel: DenseMatrix::from_vec(shape.kernel_h(), shape.kernel_w(), kvals)
                .expect("sized"),
            image: DenseMatrix::from_vec(shape.image_h(), shape.image_w(), ivals).expect("sized"),
        })
}

/// The shapes the simulator's pairs take: stride 1 or 2, dilation 1 or 2
/// (the update phase of a strided layer dilates its `G_A` kernel), and an
/// output up to two rows and columns short of the natural one (the update
/// phase's `with_output`, which stops at the forward kernel's extent).
fn sim_conv_case() -> impl Strategy<Value = ConvCase> {
    (1usize..6, 1usize..6, 1usize..3, 1usize..3)
        .prop_flat_map(|(kh, kw, stride, dilation)| {
            let (eh, ew) = (dilation * (kh - 1) + 1, dilation * (kw - 1) + 1);
            (
                Just((kh, kw, stride, dilation)),
                eh..eh + 10,
                ew..ew + 10,
                0usize..3,
                0usize..3,
            )
        })
        .prop_flat_map(|((kh, kw, stride, dilation), h, w, trim_h, trim_w)| {
            let natural = ConvShape::with_dilation(kh, kw, h, w, stride, dilation).expect("valid");
            let out_h = natural.out_h().saturating_sub(trim_h).max(1);
            let out_w = natural.out_w().saturating_sub(trim_w).max(1);
            (
                Just(
                    ConvShape::with_output(kh, kw, h, w, stride, dilation, out_h, out_w)
                        .expect("valid"),
                ),
                sparse_values(kh * kw),
                sparse_values(h * w),
            )
        })
        .prop_map(|(shape, kvals, ivals)| ConvCase {
            shape,
            kernel: DenseMatrix::from_vec(shape.kernel_h(), shape.kernel_w(), kvals)
                .expect("sized"),
            image: DenseMatrix::from_vec(shape.image_h(), shape.image_w(), ivals).expect("sized"),
        })
}

/// ANT configurations with `k` above `n` (FNIR feedback can fire), at or
/// below `n` (it never fires; Fig. 13 runs k = n = 4) and above 64 (the
/// scalar FNIR lane walk), with either condition switched off.
fn ant_config() -> impl Strategy<Value = AntConfig> {
    (1usize..8, any::<bool>(), any::<bool>()).prop_flat_map(|(n, use_r, use_s)| {
        prop_oneof![n + 1..n + 20, 1..n + 1, 65usize..100].prop_map(move |k| AntConfig {
            n,
            k,
            use_r,
            use_s,
        })
    })
}

proptest! {
    #[test]
    fn anticipator_conv_matches_reference(case in conv_case(), config in ant_config()) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let image = CsrMatrix::from_dense(&case.image);
        let ant = Anticipator::new(config);
        let run = ant.run_conv(&kernel, &image, &case.shape).unwrap();
        let reference = conv2d(&case.kernel, &case.image, &case.shape).unwrap();
        prop_assert!(run.output.approx_eq(&reference, 1e-3));
    }

    #[test]
    fn anticipator_counters_consistent(case in conv_case(), config in ant_config()) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let image = CsrMatrix::from_dense(&case.image);
        let run = Anticipator::new(config)
            .run_conv(&kernel, &image, &case.shape)
            .unwrap();
        let c = run.counters;
        prop_assert_eq!(c.pairs_total, c.multiplications + c.rcps_skipped);
        prop_assert_eq!(c.multiplications, c.useful + c.rcps_executed);
        prop_assert!(c.mult_cycles <= c.scan_cycles);
        prop_assert!(c.value_reads <= c.colidx_reads.max(c.value_reads));
        prop_assert_eq!(c.useful, c.accumulator_writes);
    }

    #[test]
    fn anticipation_useful_equals_plain_outer(case in conv_case(), config in ant_config()) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let image = CsrMatrix::from_dense(&case.image);
        let run = Anticipator::new(config)
            .run_conv(&kernel, &image, &case.shape)
            .unwrap();
        let plain = ant_conv::outer::sparse_conv_outer(&kernel, &image, &case.shape).unwrap();
        // Anticipation must never lose useful work.
        prop_assert_eq!(run.counters.useful, plain.useful);
        prop_assert!(run.counters.multiplications <= plain.products);
    }

    #[test]
    fn fnir_selects_exactly_first_valid(
        window in proptest::collection::vec(0i64..32, 1..16),
        min in 0i64..32,
        span in 0i64..32,
        n in 1usize..6,
    ) {
        let max = min + span;
        let fnir = Fnir::new(n, 16).unwrap();
        let out = fnir.select(min, max, &window);
        let expected: Vec<usize> = window
            .iter()
            .enumerate()
            .filter(|&(_, &s)| min <= s && s <= max)
            .map(|(i, _)| i)
            .take(n + 1)
            .collect();
        let got: Vec<usize> = out.positions().iter().flatten().copied().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn scan_selects_range_filtered_entries_in_order(
        case in conv_case(),
        n in 1usize..6,
        r_lo in -4i64..8,
        r_len in 0i64..8,
        s_lo in -4i64..8,
        s_len in 0i64..8,
    ) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let ranges = GroupRanges {
            r: IndexRange { min: r_lo, max: r_lo + r_len },
            s: IndexRange { min: s_lo, max: s_lo + s_len },
            ops: Default::default(),
        };
        let fnir = Fnir::new(n, n + 8).unwrap();
        let scan = scan_kernel(&kernel, &ranges, &fnir);
        let expected: Vec<(usize, usize)> = kernel
            .iter()
            .filter(|&(r, s, _)| ranges.r.contains(r as i64) && ranges.s.contains(s as i64))
            .map(|(r, s, _)| (r, s))
            .collect();
        let got: Vec<(usize, usize)> = scan.selected.iter().map(|e| (e.r, e.s)).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(scan.value_reads, scan.selected.len() as u64);
    }

    #[test]
    fn kernel_stationary_equals_image_stationary(case in conv_case(), config in ant_config()) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let image = CsrMatrix::from_dense(&case.image);
        let ant = Anticipator::new(config);
        let img_stat = ant.run_conv(&kernel, &image, &case.shape).unwrap();
        let ker_stat = ant
            .run_conv_kernel_stationary(&kernel, &image, &case.shape)
            .unwrap();
        prop_assert!(ker_stat.output.approx_eq(&img_stat.output, 1e-3));
        prop_assert_eq!(ker_stat.counters.useful, img_stat.counters.useful);
        // Both dataflows' counters partition consistently.
        let c = ker_stat.counters;
        prop_assert_eq!(c.pairs_total, c.multiplications + c.rcps_skipped);
        prop_assert_eq!(c.multiplications, c.useful + c.rcps_executed);
    }

    #[test]
    fn observer_sees_exactly_useful_products(case in conv_case()) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let image = CsrMatrix::from_dense(&case.image);
        let ant = Anticipator::new(AntConfig::paper_default());
        let mut seen = 0u64;
        let run = ant
            .run_conv_observed(&kernel, &image, &case.shape, |outputs| {
                seen += outputs.len() as u64;
                // All indices are within the output matrix.
                let limit = case.shape.out_h() * case.shape.out_w();
                assert!(outputs.iter().all(|&i| i < limit));
            })
            .unwrap();
        prop_assert_eq!(seen, run.counters.useful);
    }

    #[test]
    fn matmul_matches_dense_reference(
        h in 1usize..8,
        w in 1usize..8,
        s in 1usize..8,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let image = DenseMatrix::from_fn(h, w, |_, _| {
            if rng.gen_bool(0.5) { rng.gen_range(-2.0..2.0) } else { 0.0 }
        });
        let kernel = DenseMatrix::from_fn(w, s, |_, _| {
            if rng.gen_bool(0.5) { rng.gen_range(-2.0..2.0) } else { 0.0 }
        });
        let shape = MatmulShape::new(h, w, w, s).unwrap();
        let run = Anticipator::new(AntConfig::default())
            .run_matmul(
                &CsrMatrix::from_dense(&image),
                &CsrMatrix::from_dense(&kernel),
                &shape,
            )
            .unwrap();
        let reference = image.matmul(&kernel).unwrap();
        prop_assert!(run.output.approx_eq(&reference, 1e-3));
    }

    #[test]
    fn conv_counters_equal_the_functional_run(
        case in sim_conv_case(),
        config in ant_config(),
    ) {
        let kernel = CsrMatrix::from_dense(&case.kernel);
        let image = CsrMatrix::from_dense(&case.image);
        let ant = Anticipator::new(config);
        // One scratch for both paths, as a simulator worker shares it.
        let mut scratch = AntScratch::new();
        let functional = ant
            .run_conv_with(&kernel, &image, &case.shape, &mut scratch, |_| {})
            .unwrap();
        let counters = ant
            .run_conv_counters(&kernel, &image, &case.shape, &mut scratch)
            .unwrap();
        prop_assert_eq!(counters, functional, "{}", case.shape);
    }

    #[test]
    fn matmul_counters_equal_the_functional_run(
        h in 1usize..12,
        w in 1usize..12,
        s in 1usize..12,
        seed in 0u64..1000,
        config in ant_config(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let density = rng.gen_range(0.05..1.0);
        let mut sparse = |rows, cols| {
            CsrMatrix::from_dense(&DenseMatrix::from_fn(rows, cols, |_, _| {
                if rng.gen_bool(density) { rng.gen_range(-2.0..2.0) } else { 0.0 }
            }))
        };
        let (image, kernel) = (sparse(h, w), sparse(w, s));
        let shape = MatmulShape::new(h, w, w, s).unwrap();
        let ant = Anticipator::new(config);
        let mut scratch = AntScratch::new();
        let functional = ant.run_matmul_with(&image, &kernel, &shape, &mut scratch).unwrap();
        let counters = ant
            .run_matmul_counters(&image, &kernel, &shape, &mut scratch)
            .unwrap();
        prop_assert_eq!(counters, functional);
    }
}
