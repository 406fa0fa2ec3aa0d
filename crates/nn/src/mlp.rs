//! Multi-layer perceptron container.

use serde::{Deserialize, Serialize};

use crate::layer::{relu, relu_backward, relu_inplace, Dense};
use crate::tensor::Matrix;

/// Reusable activation buffers for allocation-free forward passes.
///
/// [`Mlp::forward_scratch`] ping-pongs between two matrices, so a caller
/// that evaluates many batches (the cost models' `predict_batch` hot path)
/// allocates nothing after the first call. The buffers grow to the largest
/// batch seen and are reused thereafter.
#[derive(Debug, Default)]
pub struct MlpScratch {
    ping: Matrix,
    pong: Matrix,
}

impl MlpScratch {
    /// Empty scratch; buffers are sized lazily by the first forward pass.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An MLP: dense layers with ReLU between all but the last.
///
/// # Example
///
/// ```
/// use nshard_nn::{Matrix, Mlp};
///
/// // The paper's communication cost model: input → 128-64-32-16 → 1.
/// let mlp = Mlp::new(10, &[128, 64, 32, 16], 1, 0);
/// let x = Matrix::zeros(4, 10);
/// let y = mlp.forward(&x);
/// assert_eq!(y.rows(), 4);
/// assert_eq!(y.cols(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Cached intermediate activations of one forward pass, needed by
/// [`Mlp::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpCache {
    /// `inputs[i]` is the input to layer `i` (post-activation of `i-1`).
    inputs: Vec<Matrix>,
    /// `pre_acts[i]` is the pre-activation output of layer `i` (only layers
    /// followed by a ReLU are recorded meaningfully).
    pre_acts: Vec<Matrix>,
}

/// Per-layer parameter gradients produced by [`Mlp::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// `(dW, db)` per layer, in layer order.
    pub layers: Vec<(Matrix, Vec<f32>)>,
}

impl Gradients {
    /// Zeroes the gradients of the given layers in place (out-of-range
    /// indices are ignored).
    ///
    /// Used to freeze layers during fine-tuning: Adam's moment estimates
    /// for a layer whose gradients are always zero stay zero, so the
    /// resulting parameter update is exactly `lr·0/(√0+ε) = 0` — the layer
    /// is bitwise untouched, from any fresh optimizer state.
    pub fn zero_layers(&mut self, layers: &[usize]) {
        for &idx in layers {
            if let Some((dw, db)) = self.layers.get_mut(idx) {
                dw.as_mut_slice().fill(0.0);
                db.iter_mut().for_each(|b| *b = 0.0);
            }
        }
    }

    /// Gradients of all zeros shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            layers: mlp
                .layers
                .iter()
                .map(|l| {
                    (
                        Matrix::zeros(l.input_dim(), l.output_dim()),
                        vec![0.0; l.output_dim()],
                    )
                })
                .collect(),
        }
    }

    /// Accumulates `other * scale` into `self`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, other: &Gradients, scale: f32) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "gradient layer mismatch"
        );
        for ((dw, db), (ow, ob)) in self.layers.iter_mut().zip(&other.layers) {
            dw.add_scaled(ow, scale);
            for (b, &o) in db.iter_mut().zip(ob) {
                *b += o * scale;
            }
        }
    }

    /// Sums a list of gradients with a fixed-order pairwise tree reduction:
    /// level by level, element `2k` absorbs element `2k + 1`.
    ///
    /// The reduction order is a pure function of `grads.len()`, never of
    /// which thread produced which entry — the property that lets the
    /// data-parallel trainer produce bit-identical weights at any worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `grads` is empty or the shapes mismatch.
    pub fn tree_reduce(mut grads: Vec<Gradients>) -> Gradients {
        assert!(!grads.is_empty(), "cannot reduce zero gradients");
        while grads.len() > 1 {
            let mut next = Vec::with_capacity(grads.len().div_ceil(2));
            let mut it = grads.into_iter();
            while let Some(mut left) = it.next() {
                if let Some(right) = it.next() {
                    left.accumulate(&right, 1.0);
                }
                next.push(left);
            }
            grads = next;
        }
        grads.pop().expect("one gradient remains")
    }
}

impl Mlp {
    /// Builds an MLP `input_dim → hidden[0] → ... → hidden[n-1] → output_dim`
    /// with ReLU after every hidden layer, deterministically seeded.
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize, seed: u64) -> Self {
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(output_dim);
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], seed.wrapping_add(i as u64 * 0x9E37)))
            .collect();
        Self { layers }
    }

    /// The layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by the optimizer).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::input_dim)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::output_dim)
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.input_dim() * l.output_dim() + l.output_dim())
            .sum()
    }

    /// Inference-only forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(&h);
            h = if i < last { relu(&pre) } else { pre };
        }
        h
    }

    /// Inference forward pass through caller-provided scratch buffers,
    /// returning a borrow of the final activation.
    ///
    /// Bit-identical to [`Mlp::forward`]; the only difference is that all
    /// intermediate (and the final) activations live in `scratch`, so a hot
    /// caller performs no allocations after warm-up.
    pub fn forward_scratch<'s>(&self, x: &Matrix, scratch: &'s mut MlpScratch) -> &'s Matrix {
        let MlpScratch { ping, pong } = scratch;
        if self.layers.is_empty() {
            ping.copy_from(x);
            return ping;
        }
        let last = self.layers.len() - 1;
        self.layers[0].forward_into(x, ping);
        if last > 0 {
            relu_inplace(ping);
        }
        let (mut cur, mut nxt) = (ping, pong);
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            layer.forward_into(cur, nxt);
            if i < last {
                relu_inplace(nxt);
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur
    }

    /// Forward pass that records the cache needed for [`Mlp::backward`].
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut cache = MlpCache {
            inputs: Vec::with_capacity(self.layers.len()),
            pre_acts: Vec::with_capacity(self.layers.len()),
        };
        let mut h = x.clone();
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            cache.inputs.push(h.clone());
            let pre = layer.forward(&h);
            cache.pre_acts.push(pre.clone());
            h = if i < last { relu(&pre) } else { pre };
        }
        (h, cache)
    }

    /// Backward pass: given the cache of a [`Mlp::forward_cached`] call and
    /// the upstream gradient `dy` on the output, returns the gradient on the
    /// input plus per-layer parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not match this network's depth.
    pub fn backward(&self, cache: &MlpCache, dy: &Matrix) -> (Matrix, Gradients) {
        assert_eq!(
            cache.inputs.len(),
            self.layers.len(),
            "cache depth mismatch"
        );
        let mut grads = Vec::with_capacity(self.layers.len());
        let mut d = dy.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            if i < last {
                d = relu_backward(&cache.pre_acts[i], &d);
            }
            let (dx, dw, db) = layer.backward(&cache.inputs[i], &d);
            grads.push((dw, db));
            d = dx;
        }
        grads.reverse();
        (d, Gradients { layers: grads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mlp = Mlp::new(5, &[128, 32], 1, 0);
        let y = mlp.forward(&Matrix::zeros(3, 5));
        assert_eq!((y.rows(), y.cols()), (3, 1));
        assert_eq!(mlp.input_dim(), 5);
        assert_eq!(mlp.output_dim(), 1);
    }

    #[test]
    fn num_params_counts() {
        let mlp = Mlp::new(2, &[3], 1, 0);
        // 2*3 + 3 + 3*1 + 1 = 13
        assert_eq!(mlp.num_params(), 13);
    }

    #[test]
    fn scratch_forward_is_bit_identical() {
        let mlp = Mlp::new(4, &[8, 8], 2, 3);
        let x1 = Matrix::from_rows([vec![0.1, -0.2, 0.3, 0.4], vec![1.0, 2.0, -3.0, 0.5]]);
        let x2 = Matrix::from_rows([vec![-0.7, 0.0, 2.5, 0.9]]);
        let mut scratch = MlpScratch::new();
        // Reusing the same scratch across differently-shaped batches.
        for x in [&x1, &x2, &x1] {
            let want = mlp.forward(x);
            let got = mlp.forward_scratch(x, &mut scratch);
            assert_eq!(&want, got);
            assert_eq!(
                want.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                got.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn cached_forward_matches_plain_forward() {
        let mlp = Mlp::new(4, &[8, 8], 2, 3);
        let x = Matrix::from_rows([vec![0.1, -0.2, 0.3, 0.4], vec![1.0, 2.0, -3.0, 0.5]]);
        let (y, _) = mlp.forward_cached(&x);
        assert_eq!(y, mlp.forward(&x));
    }

    #[test]
    fn gradient_check_full_network() {
        let mlp = Mlp::new(3, &[5], 1, 7);
        let x = Matrix::from_rows([vec![0.2, -0.5, 0.9]]);
        let (_, cache) = mlp.forward_cached(&x);
        let dy = Matrix::from_rows([vec![1.0]]);
        let (dx, grads) = mlp.backward(&cache, &dy);

        let loss = |m: &Mlp, x: &Matrix| m.forward(x).get(0, 0);
        let base = loss(&mlp, &x);
        let eps = 1e-3;

        // Input gradient.
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, xp.get(0, c) + eps);
            let num = (loss(&mlp, &xp) - base) / eps;
            assert!(
                (num - dx.get(0, c)).abs() < 1e-2,
                "dx[{c}]: {num} vs {}",
                dx.get(0, c)
            );
        }
        // First-layer weight gradient, a few entries.
        for idx in 0..5 {
            let mut mp = mlp.clone();
            mp.layers_mut()[0].params_mut().0[idx] += eps;
            let num = (loss(&mp, &x) - base) / eps;
            let analytic = grads.layers[0].0.as_slice()[idx];
            assert!(
                (num - analytic).abs() < 1e-2,
                "dW0[{idx}]: {num} vs {analytic}"
            );
        }
    }

    #[test]
    fn gradients_accumulate() {
        let mlp = Mlp::new(2, &[3], 1, 0);
        let x = Matrix::from_rows([vec![1.0, -1.0]]);
        let (_, cache) = mlp.forward_cached(&x);
        let (_, g) = mlp.backward(&cache, &Matrix::from_rows([vec![1.0]]));
        let mut acc = Gradients::zeros_like(&mlp);
        acc.accumulate(&g, 2.0);
        acc.accumulate(&g, -2.0);
        for (dw, db) in &acc.layers {
            assert!(dw.norm() < 1e-6);
            assert!(db.iter().all(|&v| v.abs() < 1e-6));
        }
    }

    #[test]
    fn tree_reduce_sums_in_fixed_order() {
        let mlp = Mlp::new(2, &[3], 1, 0);
        let x = Matrix::from_rows([vec![1.0, -1.0]]);
        let (_, cache) = mlp.forward_cached(&x);
        let (_, g) = mlp.backward(&cache, &Matrix::from_rows([vec![1.0]]));
        // For three entries the tree order is exactly ((a + b) + c).
        let scaled = |s: f32| {
            let mut out = Gradients::zeros_like(&mlp);
            out.accumulate(&g, s);
            out
        };
        let (a, b, c) = (scaled(1.0), scaled(0.25), scaled(-0.5));
        let mut expected = a.clone();
        expected.accumulate(&b, 1.0);
        expected.accumulate(&c, 1.0);
        let reduced = Gradients::tree_reduce(vec![a.clone(), b.clone(), c.clone()]);
        for ((rw, rb), (sw, sb)) in reduced.layers.iter().zip(&expected.layers) {
            assert_eq!(rw.as_slice(), sw.as_slice());
            assert_eq!(rb, sb);
        }
        // The reduction is a pure function of its inputs.
        let again = Gradients::tree_reduce(vec![a, b, c]);
        assert_eq!(again.layers[0].0.as_slice(), reduced.layers[0].0.as_slice());
        // Single-element reduction is the identity.
        let one = Gradients::tree_reduce(vec![g.clone()]);
        assert_eq!(one.layers[0].0.as_slice(), g.layers[0].0.as_slice());
    }

    #[test]
    #[should_panic(expected = "zero gradients")]
    fn tree_reduce_rejects_empty() {
        let _ = Gradients::tree_reduce(Vec::new());
    }

    #[test]
    fn deterministic_construction() {
        assert_eq!(Mlp::new(4, &[8], 2, 5), Mlp::new(4, &[8], 2, 5));
        assert_ne!(Mlp::new(4, &[8], 2, 5), Mlp::new(4, &[8], 2, 6));
    }
}
