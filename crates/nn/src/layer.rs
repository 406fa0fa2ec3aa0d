//! Dense (fully connected) layer with manual gradients.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::PackedGemm;
use crate::tensor::Matrix;

/// A fully connected layer `y = x · W + b` with `W: in × out`.
///
/// The layer stores only parameters; activations are cached by the caller
/// (see [`crate::mlp::MlpWorkspace`]) so a layer can be shared across several
/// forward passes in flight (the computation cost model applies one shared
/// encoder to many tables).
///
/// Forward passes run through a packed-panel copy of `W`, and input
/// gradients through a packed-panel copy of `Wᵀ` (see
/// [`crate::gemm::PackedGemm`]). Both are packed when the layer is built or
/// decoded and repacked, into their own buffers, by `Dense::update` — the
/// one way its parameters change — so they always hold the weights. They
/// are derived state: serialization writes only `{w, b}`, and the packed
/// kernels are bit-identical to their scalar references.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    packed: PackedGemm,
    packed_t: PackedGemm,
}

// Serialization must stay byte-compatible with the historical
// `#[derive(Serialize, Deserialize)]` on `{ w, b }` — golden checkpoint
// fixtures pin the exact output — so these impls mirror the derive macro's
// expansion and leave the panels out (decoding packs them).
impl serde::Serialize for Dense {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Map(vec![
            (String::from("w"), serde::Serialize::to_value(&self.w)),
            (String::from("b"), serde::Serialize::to_value(&self.b)),
        ])
    }
}

impl serde::Deserialize for Dense {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let map = v.as_map().ok_or_else(|| {
            serde::de::Error::custom(format!(
                "expected object for struct Dense, found {}",
                v.kind()
            ))
        })?;
        let (w, b) = (serde::__field(map, "w")?, serde::__field(map, "b")?);
        Ok(Dense::from_parts(w, b))
    }
}

impl Dense {
    /// He-initialized dense layer, deterministic for a given seed.
    pub fn new(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / input_dim.max(1) as f32).sqrt();
        let data = (0..input_dim * output_dim)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Self::from_parts(
            Matrix::from_flat(input_dim, output_dim, data),
            vec![0.0; output_dim],
        )
    }

    /// A layer over `w` and `b`, its panels packed.
    fn from_parts(w: Matrix, b: Vec<f32>) -> Self {
        let (packed, packed_t) = (PackedGemm::default(), PackedGemm::default());
        let mut layer = Self {
            w,
            b,
            packed,
            packed_t,
        };
        layer.repack();
        layer
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Forward pass `x (batch × in) → out (batch × out)`, ReLU applied
    /// when `relu` is set, into a caller-provided output that is reshaped
    /// (keeping its allocation) but not cleared: the kernel stores every
    /// element once, bias and ReLU included
    /// ([`PackedGemm::gemm_bias_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut Matrix, relu: bool) {
        assert_eq!(x.cols(), self.input_dim(), "matmul shape mismatch");
        out.reshape(x.rows(), self.output_dim());
        self.packed
            .gemm_bias_into(x.as_slice(), x.rows(), &self.b, relu, out.as_mut_slice());
    }

    /// The gradient on the layer input: `dx = dy · Wᵀ` (`batch × in`) into a
    /// caller-provided matrix, reshaped like the forward's output and
    /// written once.
    ///
    /// Each `dx[r][i]` is bitwise the scalar dot
    /// `dy.row(r).zip(W.row(i)).map(|(d, w)| d * w).sum::<f32>()` — one
    /// accumulator per element, `k` ascending, from the `-0.0` that `sum`
    /// folds from — computed sixteen `i` at a time over the packed `Wᵀ`
    /// (`PackedGemm::gemm_sum_into`). The parameter gradients of a layer do
    /// not involve its weights — they are `xᵀ · dy` and the column sums of
    /// `dy` — so [`crate::Mlp::fold_into`] forms them itself.
    ///
    /// # Panics
    ///
    /// Panics if `dy.cols() != output_dim`.
    pub(crate) fn input_grad_into(&self, dy: &Matrix, dx: &mut Matrix) {
        assert_eq!(
            dy.cols(),
            self.output_dim(),
            "input gradient shape mismatch"
        );
        dx.reshape(dy.rows(), self.input_dim());
        self.packed_t
            .gemm_sum_into(dy.as_slice(), dy.rows(), dx.as_mut_slice());
    }

    /// Applies `f` to the parameters (the row-major weights, then the
    /// bias) and repacks both panels into their own buffers: the one way
    /// they change, so the panels always follow the weights and an
    /// optimizer step allocates nothing.
    pub(crate) fn update(&mut self, f: impl FnOnce(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), &mut self.b);
        self.repack();
    }

    /// Packs `W` and `Wᵀ` from the weights.
    fn repack(&mut self) {
        let (w, rows, cols) = (self.w.as_slice(), self.w.rows(), self.w.cols());
        self.packed.repack(w, rows, cols);
        self.packed_t.repack_transposed(w, rows, cols);
    }
}

/// ReLU backward in place: zeroes the upstream gradient `d` wherever the
/// unit was off.
///
/// `post` is the unit's **post**-activation `max(0, pre)`: it is zero
/// exactly where the pre-activation was non-positive, so the forward pass
/// does not have to keep both.
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn relu_backward_inplace(post: &[f32], d: &mut [f32]) {
    assert_eq!(post.len(), d.len(), "relu shape mismatch");
    for (d, &p) in d.iter_mut().zip(post) {
        if p <= 0.0 {
            *d = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `layer`'s output on `x`, without ReLU, into a fresh matrix.
    fn forward(layer: &Dense, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        layer.forward_into(x, &mut y, false);
        y
    }

    #[test]
    fn forward_known_values() {
        let mut layer = Dense::new(2, 2, 0);
        // Overwrite parameters with known values.
        layer.update(|w, b| {
            w.copy_from_slice(&[2.0, 1.0, -1.0, 1.0]);
            b.copy_from_slice(&[1.5, -5.0]);
        });
        let x = Matrix::from_rows([vec![1.0, 3.0]]);
        let want = [1.0 * 2.0 + -3.0 + 1.5, 1.0 + 3.0 - 5.0];
        assert_eq!(forward(&layer, &x).as_slice(), want);
        let mut y = Matrix::default();
        layer.forward_into(&x, &mut y, true);
        assert_eq!(y.as_slice(), [want[0], 0.0]);
    }

    #[test]
    fn initialization_is_seeded() {
        assert_eq!(Dense::new(4, 3, 7), Dense::new(4, 3, 7));
        assert_ne!(Dense::new(4, 3, 7), Dense::new(4, 3, 8));
    }

    #[test]
    fn relu_backward_masks() {
        let mut d = [3.0, 3.0, 3.0];
        relu_backward_inplace(&[0.0, -0.0, 0.5], &mut d);
        assert_eq!(d, [0.0, 0.0, 3.0]);
    }

    #[test]
    fn updated_layers_compute_what_a_fresh_layer_over_their_weights_does() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut layer = Dense::new(3, 20, 4);
        let x = Matrix::from_rows([vec![0.5, -1.0, 2.0], vec![0.0, 1.5, -0.25]]);
        let dy = Matrix::from_flat(2, 20, (0..40).map(|i| i as f32 - 17.5).collect());
        // Outputs start dirty: every element must be written.
        let mut y = Matrix::from_flat(2, 20, vec![f32::NAN; 40]);
        let mut dx = Matrix::from_flat(2, 3, vec![f32::NAN; 6]);
        for step in 0..3 {
            layer.update(|w, b| {
                w[step] += 0.25;
                b[step] -= 1.5;
            });
            let fresh = Dense::from_parts(layer.w.clone(), layer.b.clone());
            for relu in [false, true] {
                let mut want = Matrix::default();
                fresh.forward_into(&x, &mut want, relu);
                layer.forward_into(&x, &mut y, relu);
                assert_eq!(bits(&y), bits(&want), "step {step}, relu {relu}");
            }
            let mut want = Matrix::default();
            fresh.input_grad_into(&dy, &mut want);
            layer.input_grad_into(&dy, &mut dx);
            assert_eq!(bits(&dx), bits(&want), "step {step}");
        }
    }

    /// Finite-difference gradient check on a tiny layer.
    #[test]
    fn gradients_match_finite_differences() {
        let layer = Dense::new(3, 2, 1);
        let x = Matrix::from_rows([vec![0.5, -0.3, 0.8], vec![-0.1, 0.4, 0.2]]);
        // Loss = sum of outputs; dL/dy = ones.
        let dy = Matrix::from_rows([vec![1.0, 1.0], vec![1.0, 1.0]]);
        let (mut dx, mut dw, mut db) = (Matrix::default(), Matrix::zeros(3, 2), [0.0; 2]);
        layer.input_grad_into(&dy, &mut dx);
        let (x_rows, dy_rows) = ((x.as_slice(), 3), (dy.as_slice(), 2));
        crate::gemm::at_b_into(x_rows, dy_rows, 2, 2, 1.0, dw.as_mut_slice());
        crate::gemm::at_b_into((&[1.0], 0), dy_rows, 2, 2, 1.0, &mut db);

        let loss = |layer: &Dense, x: &Matrix| -> f32 { forward(layer, x).as_slice().iter().sum() };
        let eps = 1e-3;

        // Check dW numerically.
        let base = loss(&layer, &x);
        for idx in 0..6 {
            let mut pert = layer.clone();
            pert.update(|w, _| w[idx] += eps);
            let num = (loss(&pert, &x) - base) / eps;
            assert!(
                (num - dw.as_slice()[idx]).abs() < 1e-2,
                "dW[{idx}]: numeric {num} vs analytic {}",
                dw.as_slice()[idx]
            );
        }
        // Check db numerically.
        for (idx, &analytic) in db.iter().enumerate() {
            let mut pert = layer.clone();
            pert.update(|_, b| b[idx] += eps);
            let num = (loss(&pert, &x) - base) / eps;
            assert!((num - analytic).abs() < 1e-2);
        }
        // Check dx numerically.
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, xp.get(r, c) + eps);
                let num = (loss(&layer, &xp) - base) / eps;
                assert!((num - dx.get(r, c)).abs() < 1e-2);
            }
        }
    }

    proptest! {
        #[test]
        fn forward_shape(batch in 1usize..8, input in 1usize..8, output in 1usize..8) {
            let layer = Dense::new(input, output, 3);
            let x = Matrix::zeros(batch, input);
            let y = forward(&layer, &x);
            prop_assert_eq!(y.rows(), batch);
            prop_assert_eq!(y.cols(), output);
        }
    }
}
