//! Kernel conformance: the one GEMM kernel, `PackedGemm`, reached through a
//! kept pack or through the free `gemm_into` (which packs per call), must be
//! bit-identical to the scalar reference across arbitrary shapes, the
//! degenerate and non-tile-multiple ones included — and so must an MLP
//! forward, whose kernel stores each layer's bias and ReLU with the product,
//! against the scalar GEMM followed by separate bias and ReLU passes.

use proptest::prelude::*;

use neuroshard::nn::gemm::{gemm_into, PackedGemm};
use neuroshard::nn::{Matrix, Mlp, MlpWorkspace};

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

/// `mlp`'s output on the `rows × input_dim` batch `x`, layer by layer: the
/// scalar reference product, then a pass adding the bias to every row, then
/// on every layer but the last a pass taking `max(0.0)`.
fn forward_reference(mlp: &Mlp, x: &[f32], rows: usize) -> Vec<f32> {
    let mut h = x.to_vec();
    let depth = mlp.layers().len();
    for (i, layer) in mlp.layers().iter().enumerate() {
        let (k, n) = (layer.input_dim(), layer.output_dim());
        let mut out = vec![0.0f32; rows * n];
        gemm_ref_into(&h, layer.weights().as_slice(), rows, k, n, &mut out);
        for row in out.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(layer.bias()) {
                *v += b;
            }
        }
        if i + 1 < depth {
            for v in &mut out {
                *v = v.max(0.0);
            }
        }
        h = out;
    }
    h
}

/// Eighths in `-2..2` with signed zeros mixed in: sums of such products are
/// exact, so pre-activations land on exactly zero often, and `-0.0` inputs,
/// weights and biases meet the `+0.0` accumulators.
fn eighths(len: usize) -> impl Strategy<Value = Vec<f32>> {
    // 0 and 1 pick a signed zero, the rest an eighth in -2..2.
    let value = (0u32..34).prop_map(|v| match v {
        0 => 0.0f32,
        1 => -0.0,
        v => (v as f32 - 18.0) / 8.0,
    });
    proptest::collection::vec(value, len..=len)
}

/// A network of the given widths whose weights and biases, layer by layer,
/// are `values` in order (repeated as needed), built through its stored
/// form: the one way to set them from outside the crate.
fn network(widths: &[usize], values: &[f32]) -> Mlp {
    let mut values = values.iter().cycle();
    let mut list = |len: usize| {
        let v: Vec<String> = (0..len)
            .map(|_| format!("{:?}", values.next().unwrap()))
            .collect();
        v.join(",")
    };
    let layers: Vec<String> = widths
        .windows(2)
        .map(|d| {
            let (w, b) = (list(d[0] * d[1]), list(d[1]));
            format!(
                r#"{{"w":{{"rows":{},"cols":{},"data":[{w}]}},"b":[{b}]}}"#,
                d[0], d[1]
            )
        })
        .collect();
    serde_json::from_str(&format!(r#"{{"layers":[{}]}}"#, layers.join(","))).expect("a network")
}

/// `mlp.forward` on a fresh workspace, and `forward_in` on one that a
/// pass of a poison network of the same widths left dirty, against the
/// reference, bit for bit. The poison pass runs `+inf` rows through
/// parameters of `1.0`, then `0.0` in its top layer: every hidden buffer
/// holds `+inf` and the output buffer `NaN` (`inf · 0`).
fn check_forward(mlp: &Mlp, x: &[f32], rows: usize) -> Result<(), TestCaseError> {
    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let want = bits(&forward_reference(mlp, x, rows));
    let batch = Matrix::from_flat(rows, mlp.input_dim(), x.to_vec());
    prop_assert_eq!(&bits(mlp.forward(&batch).as_slice()), &want);

    let widths: Vec<usize> = std::iter::once(mlp.input_dim())
        .chain(mlp.layers().iter().map(|l| l.output_dim()))
        .collect();
    let sizes: Vec<usize> = widths.windows(2).map(|d| d[0] * d[1] + d[1]).collect();
    let (below, top) = sizes.split_at(sizes.len() - 1);
    let values = [vec![1.0; below.iter().sum()], vec![0.0; top[0]]].concat();
    let poison = network(&widths, &values);
    let mut ws = MlpWorkspace::new();
    *ws.input_mut() = Matrix::from_flat(rows, mlp.input_dim(), vec![f32::INFINITY; x.len()]);
    let dirty = poison
        .forward_in(&mut ws)
        .as_slice()
        .iter()
        .all(|v| v.is_nan());
    prop_assert!(dirty, "the poison pass leaves a NaN output");
    *ws.input_mut() = batch;
    prop_assert_eq!(&bits(mlp.forward_in(&mut ws).as_slice()), &want);
    Ok(())
}

proptest! {
    /// One to four layers of widths that are mostly not multiples of the
    /// 16-wide panel, batches of zero to nine rows (odd row tails
    /// included). Zero pre-activations come out `+0.0` — an accumulator
    /// starts there, so `acc + b` is `-0.0` for no finite `acc` — and ReLU
    /// must keep that zero, never the sign of a `-0.0` bias.
    #[test]
    fn mlp_forward_is_the_product_then_bias_then_relu(
        widths in proptest::collection::vec(1usize..40, 2..6),
        rows in 0usize..10,
        values in eighths(512),
        x in eighths(9 * 40),
    ) {
        let mlp = network(&widths, &values);
        check_forward(&mlp, &x[..rows * widths[0]], rows)?;
    }
}

/// Pre-activations of exactly zero from both bias signs — a product that
/// cancels against `±0.0`, a bias that cancels the product, `-0.0` inputs —
/// in a hidden layer (through ReLU) and in the output layer (bare, every
/// one of its pre-activations zero).
#[test]
fn zero_pre_activations_match_the_reference() {
    // Row [1, 1, -0]: hidden column 0 sums 0.5 - 0.5 (+ -0·1) against a
    // -0.0 bias, column 1 sums 0.75 against -0.75, column 2 -0.0 + 0.0 +
    // -0·2. Row [-0, -0, -0]: bare biases, -0.0 and 0.0 among them, and
    // a -0.75 that ReLU must clear before the output layer reads it.
    let w0 = [0.5, 0.5, -0.0, -0.5, 0.25, 0.0, 1.0, 0.5, 2.0];
    let b0 = [-0.0, -0.75, 0.0];
    let w1 = [1.0, -1.0, 0.5, 0.0, 0.5, -0.0];
    let b1 = [-0.0, 0.0];
    let values: Vec<f32> = [&w0[..], &b0, &w1, &b1].concat();
    let mlp = network(&[3, 3, 2], &values);
    let x = [1.0, 1.0, -0.0, -0.0, -0.0, -0.0];
    let pre = forward_reference(&network(&[3, 3], &[&w0[..], &b0].concat()), &x, 2);
    assert_eq!(
        pre,
        [0.0, 0.0, 0.0, 0.0, -0.75, 0.0],
        "hidden pre-activations"
    );
    let out = forward_reference(&mlp, &x, 2);
    assert!(
        out.iter().all(|&v| v == 0.0),
        "output pre-activations: {out:?}"
    );
    check_forward(&mlp, &x, 2).unwrap();
}
