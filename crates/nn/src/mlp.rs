//! Multi-layer perceptron container.

use serde::{Deserialize, Serialize};

use std::ops::Range;

use crate::layer::{relu_backward_inplace, relu_inplace, Dense};
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

/// The buffers of one training forward + backward pass, reused from pass
/// to pass: after the first pass of a given batch shape a step allocates
/// nothing.
///
/// The caller writes the input batch into [`MlpWorkspace::input_mut`],
/// [`Mlp::forward_train`] writes every layer's post-activation output
/// once, and [`Mlp::backward`] ping-pongs the layer gradients through two
/// more matrices. ReLU's backward mask is read off the post-activations,
/// so pre-activations are not kept.
#[derive(Debug, Default)]
pub struct MlpWorkspace {
    x: Matrix,
    /// `acts[i]` is the output of layer `i`, after its ReLU if it has one;
    /// it is the input of layer `i + 1`.
    acts: Vec<Matrix>,
    /// The gradient on the output of the layer the backward pass is at.
    d: Matrix,
    d_next: Matrix,
    /// The layer whose pre-activation gradient `d` holds after a backward
    /// pass.
    d_layer: Option<usize>,
}

impl MlpWorkspace {
    /// Empty workspace; buffers are sized by the first pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input batch of the next [`Mlp::forward_train`] (and of the
    /// backward passes that follow it).
    pub fn input_mut(&mut self) -> &mut Matrix {
        &mut self.x
    }

    /// The output of the last [`Mlp::forward_train`].
    pub fn output(&self) -> &Matrix {
        self.acts.last().unwrap_or(&self.x)
    }
}

/// Per-layer parameter gradients produced by [`Mlp::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// `(dW, db)` per layer, in layer order.
    pub layers: Vec<(Matrix, Vec<f32>)>,
}

impl Gradients {
    /// Zeroes every gradient in place (an accumulator starting its next
    /// mini-batch).
    pub fn zero(&mut self) {
        for (dw, db) in &mut self.layers {
            dw.as_mut_slice().fill(0.0);
            db.fill(0.0);
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
            h = layer.forward(&h);
            if i < last {
                relu_inplace(&mut h);
            }
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

    /// Training forward pass over the batch in [`MlpWorkspace::input_mut`]:
    /// every layer's output is written once into `ws`, where
    /// [`Mlp::backward`] finds it. Bit-identical to [`Mlp::forward`], and
    /// row-independent: a row's activations do not depend on which other
    /// rows share its batch.
    pub fn forward_train<'w>(&self, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        ws.acts.resize_with(self.layers.len(), Matrix::default);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(i);
            layer.forward_into(done.last().unwrap_or(&ws.x), &mut rest[0]);
            if i < last {
                relu_inplace(&mut rest[0]);
            }
        }
        ws.output()
    }

    /// Backward pass of rows `rows` of the last [`Mlp::forward_train`] on
    /// `ws`, given the upstream gradient `dy` on those rows' outputs:
    /// overwrites `grads` with their parameter gradients.
    ///
    /// Only what has a consumer is formed. Layers listed in `frozen` get no
    /// parameter gradient (their entries of `grads` are left as they are),
    /// an input gradient `d · Wᵀ` is formed only for layers above the
    /// lowest unfrozen one, and never for layer 0 — the one caller that
    /// needs it asks [`Mlp::input_gradient`] afterwards.
    ///
    /// A mini-batch may be cut into row ranges freely on the forward side
    /// (rows are independent) but a range's gradient sums over its rows in
    /// ascending order, so *which* ranges are taken is part of a trainer's
    /// numerical contract.
    ///
    /// # Panics
    ///
    /// Panics if `ws` holds no forward pass of this network, or on shape
    /// mismatches between `rows`, `dy` and `grads`.
    pub fn backward(
        &self,
        ws: &mut MlpWorkspace,
        rows: Range<usize>,
        dy: &Matrix,
        frozen: &[usize],
        grads: &mut Gradients,
    ) {
        let depth = self.layers.len();
        assert_eq!(ws.acts.len(), depth, "workspace depth mismatch");
        assert_eq!(grads.layers.len(), depth, "gradient layer mismatch");
        assert_eq!(dy.rows(), rows.len(), "batch mismatch in backward");
        ws.d_layer = None;
        let Some(lowest) = (0..depth).find(|i| !frozen.contains(i)) else {
            return;
        };
        ws.d.copy_from(dy);
        for i in (lowest..depth).rev() {
            if i + 1 < depth {
                relu_backward_inplace(ws.acts[i].row_range(rows.clone()), ws.d.as_mut_slice());
            }
            if !frozen.contains(&i) {
                let input = if i == 0 { &ws.x } else { &ws.acts[i - 1] };
                let (dw, db) = &mut grads.layers[i];
                crate::gemm::at_b_into(
                    input.row_range(rows.clone()),
                    ws.d.as_slice(),
                    rows.len(),
                    input.cols(),
                    ws.d.cols(),
                    dw.as_mut_slice(),
                );
                ws.d.col_sums_into(db);
            }
            if i > lowest {
                self.layers[i].input_grad_into(&ws.d, &mut ws.d_next);
                std::mem::swap(&mut ws.d, &mut ws.d_next);
            }
        }
        ws.d_layer = Some(lowest);
    }

    /// The gradient on the input rows of the last [`Mlp::backward`] on
    /// `ws`.
    ///
    /// # Panics
    ///
    /// Panics unless that pass ran down to layer 0 (no frozen prefix).
    pub fn input_gradient<'w>(&self, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        assert_eq!(ws.d_layer, Some(0), "no backward pass reached layer 0");
        self.layers[0].input_grad_into(&ws.d, &mut ws.d_next);
        &ws.d_next
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

    /// One forward + backward pass over all rows of `x`: the input
    /// gradient and the parameter gradients.
    fn pass(mlp: &Mlp, x: &Matrix, dy: &Matrix) -> (Matrix, Gradients) {
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(mlp);
        ws.input_mut().copy_from(x);
        mlp.forward_train(&mut ws);
        mlp.backward(&mut ws, 0..x.rows(), dy, &[], &mut grads);
        (mlp.input_gradient(&mut ws).clone(), grads)
    }

    #[test]
    fn training_forward_matches_plain_forward() {
        let mlp = Mlp::new(4, &[8, 8], 2, 3);
        let x = Matrix::from_rows([vec![0.1, -0.2, 0.3, 0.4], vec![1.0, 2.0, -3.0, 0.5]]);
        let mut ws = MlpWorkspace::new();
        ws.input_mut().copy_from(&x);
        assert_eq!(mlp.forward_train(&mut ws), &mlp.forward(&x));
        assert_eq!(ws.output(), &mlp.forward(&x));
    }

    #[test]
    #[should_panic(expected = "reached layer 0")]
    fn input_gradient_needs_a_pass_down_to_layer_zero() {
        let mlp = Mlp::new(2, &[3], 1, 0);
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(&mlp);
        *ws.input_mut() = Matrix::from_rows([vec![1.0, -1.0]]);
        mlp.forward_train(&mut ws);
        let dy = Matrix::from_rows([vec![1.0]]);
        mlp.backward(&mut ws, 0..1, &dy, &[0], &mut grads);
        let _ = mlp.input_gradient(&mut ws);
    }

    #[test]
    fn gradient_check_full_network() {
        let mlp = Mlp::new(3, &[5], 1, 7);
        let x = Matrix::from_rows([vec![0.2, -0.5, 0.9]]);
        let (dx, grads) = pass(&mlp, &x, &Matrix::from_rows([vec![1.0]]));

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
        let (_, g) = pass(&mlp, &x, &Matrix::from_rows([vec![1.0]]));
        let mut acc = Gradients::zeros_like(&mlp);
        acc.accumulate(&g, 2.0);
        acc.accumulate(&g, -2.0);
        for (dw, db) in &acc.layers {
            assert!(dw.norm() < 1e-6);
            assert!(db.iter().all(|&v| v.abs() < 1e-6));
        }
        acc.accumulate(&g, 1.0);
        acc.zero();
        assert_eq!(acc, Gradients::zeros_like(&mlp));
    }

    #[test]
    fn deterministic_construction() {
        assert_eq!(Mlp::new(4, &[8], 2, 5), Mlp::new(4, &[8], 2, 5));
        assert_ne!(Mlp::new(4, &[8], 2, 5), Mlp::new(4, &[8], 2, 6));
    }
}
