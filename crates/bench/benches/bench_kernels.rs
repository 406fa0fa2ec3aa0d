//! Criterion micro-benchmarks of the dense-inference kernels behind the
//! cost models: the scalar reference GEMM, the cache-blocked GEMM, the
//! packed-panel GEMM used by `Dense::forward`, and the end-to-end `Mlp`
//! forward paths (allocating vs scratch) at the cost-model architecture
//! (input → 128-64-32-16 → 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use nshard_nn::gemm::{gemm_into, gemm_ref_into, PackedGemm};
use nshard_nn::{Matrix, Mlp, MlpScratch};

/// Deterministic pseudo-random matrix (no RNG dependency in benches).
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            m.set(r, c, v);
        }
    }
    m
}

fn raw(m: &Matrix) -> Vec<f32> {
    (0..m.rows())
        .flat_map(|r| (0..m.cols()).map(move |c| m.get(r, c)))
        .collect()
}

fn bench_gemm(c: &mut Criterion) {
    // Cost-model hot shape: a search batch of rows through the widest layer.
    for (m, k, n) in [(64usize, 8usize, 128usize), (64, 128, 64), (256, 64, 32)] {
        let a = raw(&mat(m, k, 1));
        let b = raw(&mat(k, n, 2));
        let mut out = vec![0.0f32; m * n];
        let packed = PackedGemm::pack(&b, k, n);

        let name = format!("gemm/{m}x{k}x{n}");
        let mut group = c.benchmark_group(name.as_str());
        group.bench_function("reference", |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                gemm_ref_into(black_box(&a), black_box(&b), m, k, n, &mut out);
            });
        });
        group.bench_function("blocked", |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                gemm_into(black_box(&a), black_box(&b), m, k, n, &mut out);
            });
        });
        group.bench_function("packed", |bch| {
            bch.iter(|| {
                out.iter_mut().for_each(|v| *v = 0.0);
                packed.gemm_into(black_box(&a), m, &mut out);
            });
        });
        group.finish();
    }
}

fn bench_mlp_forward(c: &mut Criterion) {
    // The comm-model architecture at a 4-GPU feature width.
    let mlp = Mlp::new(11, &[128, 64, 32, 16], 1, 9);
    let mut scratch = MlpScratch::new();

    let mut group = c.benchmark_group("mlp_forward");
    for rows in [1usize, 16, 64] {
        let x = mat(rows, 11, 3);
        group.bench_with_input(BenchmarkId::new("alloc_f32", rows), &x, |b, x| {
            b.iter(|| mlp.forward(black_box(x)));
        });
        group.bench_with_input(BenchmarkId::new("scratch_f32", rows), &x, |b, x| {
            b.iter(|| {
                let y = mlp.forward_scratch(black_box(x), &mut scratch);
                black_box(y.get(0, 0))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_mlp_forward);
criterion_main!(benches);
