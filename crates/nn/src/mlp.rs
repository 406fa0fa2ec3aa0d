//! Multi-layer perceptron container.

use serde::{Deserialize, Serialize};

use crate::gemm::at_b_into;
use crate::layer::{relu_backward_inplace, Dense};
use crate::tensor::Matrix;

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
#[serde(try_from = "MlpRepr")]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// An [`Mlp`] as stored; decoding checks every layer — weights that hold a
/// value per input and output (so its widths are as real as its data), a
/// bias per output — and that each layer feeds the next.
#[derive(Deserialize)]
struct MlpRepr {
    layers: Vec<Dense>,
}

impl TryFrom<MlpRepr> for Mlp {
    type Error = String;

    fn try_from(repr: MlpRepr) -> Result<Self, String> {
        let layers = repr.layers;
        for (i, l) in layers.iter().enumerate() {
            let (w, b) = (l.weights(), l.bias().len());
            let (rows, cols) = (w.rows(), w.cols());
            let next = layers.get(i + 1).map_or(cols, Dense::input_dim);
            if w.as_slice().is_empty() || b != cols || next != cols {
                return Err(format!("layer {i}: {rows}×{cols} weights, {b} biases"));
            }
        }
        Ok(Self { layers })
    }
}

/// The buffers of one forward (and backward) pass, reused from pass to
/// pass: after the first pass of a given batch shape a step or a batch of
/// predictions allocates nothing.
///
/// The caller writes the input batch into [`MlpWorkspace::input_mut`],
/// [`Mlp::forward_in`] writes every layer's post-activation output
/// once, and [`Mlp::backward`] writes every layer's pre-activation
/// gradient once, where [`Mlp::fold_into`] finds both. ReLU's
/// backward mask is read off the post-activations, so pre-activations are
/// not kept.
#[derive(Debug, Default)]
pub struct MlpWorkspace {
    x: Matrix,
    /// `acts[i]` is the output of layer `i`, after its ReLU if it has one;
    /// it is the input of layer `i + 1`.
    acts: Vec<Matrix>,
    /// `ds[i]` is the gradient on layer `i`'s pre-activation output, one
    /// row per batch row — except the top layer's, which is `dy` as the
    /// backward pass was given it (one row per batch row, or one per group
    /// standing for every row of it).
    ds: Vec<Matrix>,
    /// An input gradient on its way to `ds`.
    spare: Matrix,
    /// The last backward pass's group ends (see [`Mlp::backward`]).
    ends: Vec<usize>,
    /// The lowest layer whose gradient the last backward pass formed.
    d_layer: Option<usize>,
}

impl MlpWorkspace {
    /// Empty workspace; buffers are sized by the first pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input batch of the next [`Mlp::forward_in`] (and of the
    /// backward passes that follow it).
    pub fn input_mut(&mut self) -> &mut Matrix {
        &mut self.x
    }

    /// The output of the last [`Mlp::forward_in`].
    pub fn output(&self) -> &Matrix {
        self.acts.last().unwrap_or(&self.x)
    }
}

/// Per-layer parameter gradients, folded by [`Mlp::fold_into`].
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
    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
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

    /// Inference-only forward pass: [`Mlp::forward_in`] on a workspace of
    /// its own, for callers that do not keep one.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut ws = MlpWorkspace::new();
        ws.x = x.clone();
        self.forward_in(&mut ws);
        ws.acts.pop().unwrap_or(ws.x)
    }

    /// Forward pass over the batch in [`MlpWorkspace::input_mut`]: every
    /// layer's output is written once into `ws`, where [`Mlp::backward`]
    /// finds it — the GEMM kernel adds the bias, and ReLU below the top
    /// layer, as it stores each element, so no buffer is zeroed or swept
    /// again. Row-independent: a row's activations do not depend on
    /// which other rows share its batch. Every forward runs through it, so
    /// a hot caller that keeps its workspace allocates nothing after
    /// warm-up.
    pub fn forward_in<'w>(&self, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        ws.acts.resize_with(self.layers.len(), Matrix::default);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(i);
            layer.forward_into(done.last().unwrap_or(&ws.x), &mut rest[0], i < last);
        }
        ws.output()
    }

    /// Backward pass of the last [`Mlp::forward_in`] on `ws`, given the
    /// upstream gradient `dy` on its outputs: forms every layer's
    /// pre-activation gradient down to the lowest layer `frozen` does not
    /// name, for [`Mlp::fold_into`] to turn into parameter gradients.
    ///
    /// Each group of batch rows contributes one term to the fold. With
    /// `ends` `None` the whole batch is one group and `dy` has one row per
    /// batch row. With `Some(ends)` group `g` is rows
    /// `ends[g - 1]..ends[g]`, and `dy` has either
    ///
    /// * one row per batch row — [`crate::fit`] folds a mini-batch in
    ///   groups of [`crate::FOLD_GROUP_ROWS`] rows this way — or
    /// * one row per group, standing for every row of it — the computation
    ///   cost model's sum pooling hands each table of a sample the same
    ///   gradient. A standing-in row meets the top layer's `Wᵀ` once per
    ///   group, not once per row.
    ///
    /// A `dy` with as many rows as there are groups is read per group (when
    /// every group is one row, the two readings agree).
    ///
    /// Only what has a consumer is formed: an input gradient `d · Wᵀ` for
    /// layers above the lowest unfrozen one, never for layer 0 — the one
    /// caller that needs it asks [`Mlp::input_gradient`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `ws` holds no forward pass of this network, if `ends`
    /// does not end at the batch's row count, or on a `dy` of the wrong
    /// shape.
    pub fn backward(
        &self,
        ws: &mut MlpWorkspace,
        dy: &Matrix,
        ends: Option<&[usize]>,
        frozen: &[usize],
    ) {
        let (depth, rows) = (self.layers.len(), ws.x.rows());
        ws.ends.clear();
        ws.ends.extend_from_slice(ends.unwrap_or(&[rows]));
        assert_eq!(ws.acts.len(), depth, "workspace depth mismatch");
        let end = ws.ends.last().copied().unwrap_or(0);
        assert_eq!(end, rows, "groups must end at the batch");
        // `dy` has one row per batch row, or one per given group, standing
        // for all the group's rows; when every group (or the batch) is one
        // row, both read the same. `fold_into` reads it off the same shapes.
        let broadcast = dy.rows() == ws.ends.len();
        let per_group = ends.is_some() && broadcast;
        assert!(per_group || dy.rows() == rows, "batch mismatch in backward");
        ws.ds.resize_with(depth, Matrix::default);
        ws.d_layer = None;
        let Some(lowest) = (0..depth).find(|i| !frozen.contains(i)) else {
            return;
        };
        ws.ds[depth - 1].copy_from(dy);
        for i in (lowest + 1..depth).rev() {
            self.layers[i].input_grad_into(&ws.ds[i], &mut ws.spare);
            let d = &mut ws.ds[i - 1];
            if broadcast && i + 1 == depth {
                // One row per group becomes one row per batch row.
                d.reset(rows, ws.spare.cols());
                for (g, rows) in groups(&ws.ends).enumerate() {
                    rows.for_each(|r| d.row_mut(r).copy_from_slice(ws.spare.row(g)));
                }
            } else {
                std::mem::swap(d, &mut ws.spare);
            }
            relu_backward_inplace(ws.acts[i - 1].as_slice(), d.as_mut_slice());
        }
        ws.d_layer = Some(lowest);
    }

    /// The gradient on the input rows of the last [`Mlp::backward`] on
    /// `ws` (one row per row of layer 0's gradient: per group when a
    /// one-layer network was handed one `dy` row per group).
    ///
    /// # Panics
    ///
    /// Panics unless that pass ran down to layer 0 (no frozen prefix).
    pub fn input_gradient<'w>(&self, ws: &'w mut MlpWorkspace) -> &'w Matrix {
        assert_eq!(ws.d_layer, Some(0), "no backward pass reached layer 0");
        self.layers[0].input_grad_into(&ws.ds[0], &mut ws.spare);
        &ws.spare
    }

    /// Folds the parameter gradients that the last [`Mlp::backward`] on
    /// `ws` formed into `acc`, for every layer `frozen` does not name, group
    /// by group in order: every element does `acc += g · scale` once per
    /// group, where `g` is the group's term — its rows summed in ascending
    /// order in registers (`gemm::at_b_into`), zero inputs skipped — folded
    /// as soon as it is formed. No group's term is ever added to another's
    /// first; that chain is the trainers' numerical contract.
    ///
    /// # Panics
    ///
    /// Panics unless that pass formed the gradient of every layer folded,
    /// or if `acc` is not shaped like the network.
    pub fn fold_into(&self, ws: &MlpWorkspace, frozen: &[usize], scale: f32, acc: &mut Gradients) {
        for (l, (dw, db)) in acc.layers.iter_mut().enumerate() {
            if frozen.contains(&l) {
                continue;
            }
            let dw = dw.as_mut_slice();
            let reached = ws.d_layer.is_some_and(|lowest| lowest <= l);
            assert!(reached, "no backward pass reached layer {l}");
            let x = if l == 0 { &ws.x } else { &ws.acts[l - 1] };
            let (d, m, n) = (&ws.ds[l], x.cols(), ws.ds[l].cols());
            assert_eq!((dw.len(), db.len()), (m * n, n), "gradient shape mismatch");
            let broadcast = l + 1 == self.layers.len() && d.rows() == ws.ends.len();
            for (k, rows) in groups(&ws.ends).enumerate() {
                // Group `k`'s upstream rows: its own, or its one standing-in row.
                let (first, stride) = if broadcast { (k, 0) } else { (rows.start, n) };
                let b = (&d.as_slice()[first * n..], stride);
                let a = (&x.as_slice()[rows.start * m..], m);
                at_b_into(a, b, rows.len(), n, scale, dw);
                at_b_into((&[1.0], 0), b, rows.len(), n, scale, db);
            }
        }
    }
}

/// Group `g`'s rows, `ends[g - 1]..ends[g]`, for every group in order.
fn groups(ends: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    std::iter::once(0)
        .chain(ends.iter().copied())
        .zip(ends)
        .map(|(start, &end)| start..end)
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

    /// One forward + backward pass over all rows of `x`: the input
    /// gradient and the parameter gradients.
    fn pass(mlp: &Mlp, x: &Matrix, dy: &Matrix) -> (Matrix, Gradients) {
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(mlp);
        ws.input_mut().copy_from(x);
        mlp.forward_in(&mut ws);
        mlp.backward(&mut ws, dy, None, &[]);
        mlp.fold_into(&ws, &[], 1.0, &mut grads);
        (mlp.input_gradient(&mut ws).clone(), grads)
    }

    /// The layer chain spelled out: each layer's bare `forward_into` a
    /// fresh matrix, then a ReLU pass on every output but the last.
    fn layer_by_layer(mlp: &Mlp, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for (i, layer) in mlp.layers().iter().enumerate() {
            let mut y = Matrix::default();
            layer.forward_into(&h, &mut y, false);
            if i + 1 < mlp.layers().len() {
                y.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
            }
            h = y;
        }
        h
    }

    #[test]
    fn workspace_forward_matches_the_layer_chain() {
        let mlp = Mlp::new(4, &[8, 8], 2, 3);
        let x1 = Matrix::from_rows([vec![0.1, -0.2, 0.3, 0.4], vec![1.0, 2.0, -3.0, 0.5]]);
        let x2 = Matrix::from_rows([vec![-0.7, 0.0, 2.5, 0.9]]);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // One workspace reused across batches of different row counts, as
        // every predict path reuses its own.
        let mut ws = MlpWorkspace::new();
        for x in [&x1, &x2, &x1] {
            let want = layer_by_layer(&mlp, x);
            ws.input_mut().copy_from(x);
            assert_eq!(bits(mlp.forward_in(&mut ws)), bits(&want));
            assert_eq!(bits(&mlp.forward(x)), bits(&want));
        }
    }

    #[test]
    #[should_panic(expected = "reached layer 0")]
    fn input_gradient_needs_a_pass_down_to_layer_zero() {
        let mlp = Mlp::new(2, &[3], 1, 0);
        let mut ws = MlpWorkspace::new();
        *ws.input_mut() = Matrix::from_rows([vec![1.0, -1.0]]);
        mlp.forward_in(&mut ws);
        let dy = Matrix::from_rows([vec![1.0]]);
        mlp.backward(&mut ws, &dy, None, &[0]);
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
            mp.layers_mut()[0].update(|w, _| w[idx] += eps);
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
            assert!(dw.as_slice().iter().all(|&v| v.abs() < 1e-6));
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
