//! Kernel conformance: the one GEMM kernel, `PackedGemm`, reached through a
//! kept pack or through the free `gemm_into` (which packs per call), must be
//! bit-identical to the scalar reference across arbitrary shapes, the
//! degenerate and non-tile-multiple ones included.

use proptest::prelude::*;

use neuroshard::nn::gemm::{gemm_into, PackedGemm};

/// The scalar reference: `out = a · b`, each `out[i][j]` summing
/// `a[i][k] * b[k][j]` over `k` in ascending order from `+0.0`. A copy of
/// the test-only reference in `nn::gemm`, which integration tests cannot
/// see.
fn gemm_ref_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
    out.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            for j in 0..n {
                out[i * n + j] += a[i * k + kk] * b[kk * n + j];
            }
        }
    }
}

fn matrix_entries(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, len..=len)
}

/// Both entry points against the reference, bit for bit, each writing into
/// an output that starts dirty.
fn check_against_reference(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut reference = vec![0.0f32; m * n];
    gemm_ref_into(a, b, m, k, n, &mut reference);

    let mut free_gemm = vec![f32::NAN; m * n];
    gemm_into(a, b, m, k, n, &mut free_gemm);
    prop_assert_eq!(bits(&reference), bits(&free_gemm));

    let mut kept_pack = vec![f32::NAN; m * n];
    PackedGemm::pack(b, k, n).gemm_into(a, m, &mut kept_pack);
    prop_assert_eq!(bits(&reference), bits(&kept_pack));
    Ok(())
}

proptest! {
    /// Any shape, including empty ones, 1x1, tall/skinny and non-multiples
    /// of the 4x16 tile.
    #[test]
    fn gemm_matches_reference_bitwise(
        m in 0usize..17,
        k in 0usize..33,
        n in 0usize..41,
        seed in any::<u64>(),
    ) {
        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        check_against_reference(&a, &b, m, k, n)?;
    }
}

proptest! {
    /// Same bitwise conformance at a layer-sized shape.
    #[test]
    fn gemm_matches_reference_at_layer_shapes(
        a in matrix_entries(64 * 128),
        b in matrix_entries(128 * 64),
    ) {
        check_against_reference(&a, &b, 64, 128, 64)?;
    }
}
