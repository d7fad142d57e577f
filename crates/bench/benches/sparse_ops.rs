//! Criterion microbenchmarks of the sparse-matrix substrate: CSR
//! conversion, rotation, the exact useful-product counter, and the
//! reference sparse convolution.

use ant_conv::outer::sparse_conv_outer;
use ant_conv::rcp::count_useful_products;
use ant_conv::ConvShape;
use ant_sparse::{sparsify, CsrMatrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_csr_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_from_dense");
    for size in [64usize, 128] {
        let mut rng = StdRng::seed_from_u64(1);
        let dense = sparsify::random_with_sparsity(size, size, 0.9, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(size), &dense, |b, d| {
            b.iter(|| black_box(CsrMatrix::from_dense(d)))
        });
    }
    group.finish();
}

fn bench_rotation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let dense = sparsify::random_with_sparsity(112, 112, 0.9, &mut rng);
    let csr = CsrMatrix::from_dense(&dense);
    c.bench_function("csr_rotate180_112x112", |b| {
        b.iter(|| black_box(csr.rotate180()))
    });
}

fn bench_useful_counter(c: &mut Criterion) {
    // The exact counter that makes ImageNet-scale Figure 1 possible.
    let shape = ConvShape::new(112, 112, 114, 114, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(112, 112, 0.9, &mut rng));
    let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(114, 114, 0.9, &mut rng));
    c.bench_function("count_useful_products_112x112", |b| {
        b.iter(|| black_box(count_useful_products(&kernel, &image, &shape)))
    });
}

fn bench_reference_conv(c: &mut Criterion) {
    let shape = ConvShape::new(14, 14, 16, 16, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let kernel = CsrMatrix::from_dense(&sparsify::random_with_sparsity(14, 14, 0.9, &mut rng));
    let image = CsrMatrix::from_dense(&sparsify::random_with_sparsity(16, 16, 0.9, &mut rng));
    c.bench_function("sparse_conv_outer_update_phase", |b| {
        b.iter(|| black_box(sparse_conv_outer(&kernel, &image, &shape).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_csr_conversion,
    bench_rotation,
    bench_useful_counter,
    bench_reference_conv
);
criterion_main!(benches);
