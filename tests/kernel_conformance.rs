//! Kernel conformance: the blocked and packed f32 GEMM kernels must be
//! bit-identical to the scalar reference across arbitrary (including
//! degenerate and non-tile-multiple) shapes.

use proptest::prelude::*;

use neuroshard::nn::gemm::{gemm_into, gemm_ref_into, PackedGemm};

fn matrix_entries(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, len..=len)
}

proptest! {
    /// Blocked GEMM is bitwise identical to the scalar reference for any
    /// shape, including 1x1, tall/skinny and non-multiples of the 4x8 tile.
    #[test]
    fn blocked_gemm_matches_reference_bitwise(
        m in 1usize..17,
        k in 1usize..33,
        n in 1usize..41,
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

        let mut reference = vec![0.0f32; m * n];
        gemm_ref_into(&a, &b, m, k, n, &mut reference);

        let mut blocked = vec![0.0f32; m * n];
        gemm_into(&a, &b, m, k, n, &mut blocked);
        for (r, x) in reference.iter().zip(&blocked) {
            prop_assert_eq!(r.to_bits(), x.to_bits());
        }

        let packed = PackedGemm::pack(&b, k, n);
        let mut via_panels = vec![0.0f32; m * n];
        packed.gemm_into(&a, m, &mut via_panels);
        for (r, x) in reference.iter().zip(&via_panels) {
            prop_assert_eq!(r.to_bits(), x.to_bits());
        }
    }
}

proptest! {
    /// Same bitwise conformance at larger, cache-blocking-relevant shapes.
    #[test]
    fn blocked_gemm_matches_reference_at_layer_shapes(
        a in matrix_entries(64 * 128),
        b in matrix_entries(128 * 64),
    ) {
        let (m, k, n) = (64usize, 128usize, 64usize);
        let mut reference = vec![0.0f32; m * n];
        gemm_ref_into(&a, &b, m, k, n, &mut reference);
        let mut blocked = vec![0.0f32; m * n];
        gemm_into(&a, &b, m, k, n, &mut blocked);
        for (r, x) in reference.iter().zip(&blocked) {
            prop_assert_eq!(r.to_bits(), x.to_bits());
        }
    }
}
