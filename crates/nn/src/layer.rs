//! Dense (fully connected) layer with manual gradients.

use std::sync::{Mutex, OnceLock, PoisonError};

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
/// [`crate::gemm::PackedGemm`]); each is built lazily on first use and
/// invalidated whenever the parameters are mutated. The caches are pure
/// derived state: they never affect equality, serialization, or results
/// (the packed kernels are bit-identical to their scalar references).
#[derive(Debug)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    packed: Panels,
    packed_t: Panels,
}

/// A lazily packed copy of the weights that recycles its allocation: a
/// training loop invalidates it once per optimizer step, and the next pack
/// writes into the buffer the last one left behind.
#[derive(Debug, Default)]
struct Panels {
    live: OnceLock<PackedGemm>,
    /// The invalidated generation's buffer, parked for the next pack.
    spare: Mutex<Option<PackedGemm>>,
}

impl Panels {
    /// The live panels, packed by `repack` (into the parked buffer when
    /// there is one) if the weights changed since the last call.
    fn get(&self, repack: impl FnOnce(&mut PackedGemm)) -> &PackedGemm {
        self.live.get_or_init(|| {
            // An `Option` is valid in any state, so a poisoned lock is too.
            let spare = self
                .spare
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let mut panels = spare.unwrap_or_default();
            repack(&mut panels);
            panels
        })
    }

    /// Marks the panels stale, keeping their allocation for the next pack.
    fn invalidate(&mut self) {
        if let Some(stale) = self.live.take() {
            *self.spare.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(stale);
        }
    }
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        Self {
            w: self.w.clone(),
            b: self.b.clone(),
            // Carry the forward panels over so clones stay on the fast
            // path; `Wᵀ` is training-only and re-packs on demand.
            packed: Panels {
                live: self
                    .packed
                    .live
                    .get()
                    .cloned()
                    .map(OnceLock::from)
                    .unwrap_or_default(),
                spare: Mutex::default(),
            },
            packed_t: Panels::default(),
        }
    }
}

impl PartialEq for Dense {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w && self.b == other.b
    }
}

// Serialization must stay byte-compatible with the historical
// `#[derive(Serialize, Deserialize)]` on `{ w, b }` — golden checkpoint
// fixtures pin the exact output — so these impls mirror the derive macro's
// expansion and simply omit the packed cache.
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
        Ok(Dense {
            w: serde::__field(map, "w")?,
            b: serde::__field(map, "b")?,
            packed: Panels::default(),
            packed_t: Panels::default(),
        })
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
        Self {
            w: Matrix::from_flat(input_dim, output_dim, data),
            b: vec![0.0; output_dim],
            packed: Panels::default(),
            packed_t: Panels::default(),
        }
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

    /// The packed-panel copy of `W`, built on first use.
    fn packed(&self) -> &PackedGemm {
        self.packed
            .get(|p| p.repack(self.w.as_slice(), self.w.rows(), self.w.cols()))
    }

    /// The packed-panel copy of `Wᵀ`, built on first use.
    fn packed_t(&self) -> &PackedGemm {
        self.packed_t
            .get(|p| p.repack_transposed(self.w.as_slice(), self.w.rows(), self.w.cols()))
    }

    /// Forward pass `x (batch × in) → out (batch × out)` into a
    /// caller-provided output, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.input_dim(), "matmul shape mismatch");
        out.reset(x.rows(), self.output_dim());
        self.packed()
            .gemm_into(x.as_slice(), x.rows(), out.as_mut_slice());
        out.add_row_bias(&self.b);
    }

    /// The gradient on the layer input: `dx = dy · Wᵀ` (`batch × in`) into a
    /// caller-provided matrix, reusing its allocation.
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
        dx.reset(dy.rows(), self.input_dim());
        self.packed_t()
            .gemm_sum_into(dy.as_slice(), dy.rows(), dx.as_mut_slice());
    }

    /// Direct mutable access to the parameters (weights buffer then bias),
    /// used by the optimizer.
    pub(crate) fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.packed.invalidate();
        self.packed_t.invalidate();
        (self.w.as_mut_slice(), &mut self.b)
    }
}

/// ReLU forward in place: `max(0, x)` element-wise.
pub(crate) fn relu_inplace(x: &mut Matrix) {
    x.map_inplace(|v| v.max(0.0));
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

    /// `layer`'s output on `x`, into a fresh matrix.
    fn forward(layer: &Dense, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        layer.forward_into(x, &mut y);
        y
    }

    #[test]
    fn forward_known_values() {
        let mut layer = Dense::new(2, 1, 0);
        // Overwrite parameters with known values.
        let (w, b) = layer.params_mut();
        w.copy_from_slice(&[2.0, -1.0]);
        b.copy_from_slice(&[0.5]);
        let x = Matrix::from_rows([vec![1.0, 3.0]]);
        let y = forward(&layer, &x);
        assert_eq!(y.get(0, 0), 1.0 * 2.0 + -3.0 + 0.5);
    }

    #[test]
    fn initialization_is_seeded() {
        assert_eq!(Dense::new(4, 3, 7), Dense::new(4, 3, 7));
        assert_ne!(Dense::new(4, 3, 7), Dense::new(4, 3, 8));
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut x = Matrix::from_rows([vec![-1.0, 0.0, 2.0]]);
        relu_inplace(&mut x);
        assert_eq!(x, Matrix::from_rows([vec![0.0, 0.0, 2.0]]));
    }

    #[test]
    fn relu_backward_masks() {
        let mut act = Matrix::from_rows([vec![-1.0, -0.0, 0.5]]);
        relu_inplace(&mut act);
        let mut d = [3.0, 3.0, 3.0];
        relu_backward_inplace(act.as_slice(), &mut d);
        assert_eq!(d, [0.0, 0.0, 3.0]);
    }

    #[test]
    fn panels_follow_the_weights_and_recycle_their_buffer() {
        let mut layer = Dense::new(3, 20, 4);
        let x = Matrix::from_rows([vec![0.5, -1.0, 2.0]]);
        let dy = Matrix::from_rows([(0..20).map(|i| i as f32 - 7.5).collect::<Vec<_>>()]);
        let mut dx = Matrix::default();
        for step in 0..3 {
            layer.params_mut().0[step] += 0.25;
            let mut fresh = Dense::new(3, 20, 4);
            for s in 0..=step {
                fresh.params_mut().0[s] += 0.25;
            }
            assert_eq!(forward(&layer, &x), forward(&fresh, &x));
            layer.input_grad_into(&dy, &mut dx);
            let mut want = Matrix::default();
            fresh.input_grad_into(&dy, &mut want);
            assert_eq!(dx, want);
            // The live panels are the ones parked by the last invalidation.
            assert!(layer.packed.spare.lock().unwrap().is_none());
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
            pert.params_mut().0[idx] += eps;
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
            pert.params_mut().1[idx] += eps;
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
