//! The Adam optimizer (Kingma & Ba, 2015) — the paper's optimizer with its
//! default hyperparameters (lr 0.001, β₁ 0.9, β₂ 0.999).

use serde::{Deserialize, Serialize};

use crate::mlp::{Gradients, Mlp};

/// Adam state for one [`Mlp`].
///
/// # Example
///
/// ```
/// use nshard_nn::{Adam, Gradients, Matrix, Mlp, MlpWorkspace};
///
/// let mut mlp = Mlp::new(2, &[4], 1, 0);
/// let mut adam = Adam::new(&mlp, 0.001);
/// let mut ws = MlpWorkspace::new();
/// let mut grads = Gradients::zeros_like(&mlp);
/// *ws.input_mut() = Matrix::from_rows([vec![1.0, 2.0]]);
/// let y = mlp.forward_in(&mut ws).get(0, 0);
/// let dy = Matrix::from_rows([vec![y - 3.0]]); // pull output to 3
/// mlp.backward(&mut ws, &dy, None, &[]);
/// mlp.fold_into(&ws, &[], 1.0, &mut grads);
/// adam.step(&mut mlp, &grads);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First-moment estimates, flattened per layer: (weights, bias).
    m: Vec<(Vec<f32>, Vec<f32>)>,
    /// Second-moment estimates, same layout.
    v: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates Adam state shaped like `mlp` with learning rate `lr` and the
    /// standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(mlp: &Mlp, lr: f32) -> Self {
        let shape = |mlp: &Mlp| {
            mlp.layers()
                .iter()
                .map(|l| {
                    (
                        vec![0.0; l.input_dim() * l.output_dim()],
                        vec![0.0; l.output_dim()],
                    )
                })
                .collect()
        };
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: shape(mlp),
            v: shape(mlp),
        }
    }

    /// Applies one Adam update to `mlp` using `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network's shape.
    pub fn step(&mut self, mlp: &mut Mlp, grads: &Gradients) {
        assert_eq!(
            grads.layers.len(),
            mlp.layers().len(),
            "gradient/network layer count mismatch"
        );
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (layer_idx, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (dw, db) = &grads.layers[layer_idx];
            layer.update(|w, b| {
                Self::update_buffer(
                    w,
                    dw.as_slice(),
                    &mut self.m[layer_idx].0,
                    &mut self.v[layer_idx].0,
                    self.lr,
                    self.beta1,
                    self.beta2,
                    self.eps,
                    bias1,
                    bias2,
                );
                Self::update_buffer(
                    b,
                    db,
                    &mut self.m[layer_idx].1,
                    &mut self.v[layer_idx].1,
                    self.lr,
                    self.beta1,
                    self.beta2,
                    self.eps,
                    bias1,
                    bias2,
                );
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn update_buffer(
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bias1: f32,
        bias2: f32,
    ) {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bias1;
            let v_hat = v[i] / bias2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpWorkspace;
    use crate::tensor::Matrix;

    /// Adam should drive a 1-parameter quadratic to its minimum.
    #[test]
    fn converges_on_quadratic() {
        let mut mlp = Mlp::new(1, &[], 1, 0); // single linear layer y = wx + b
        let mut adam = Adam::new(&mlp, 0.05);
        let x = Matrix::from_rows([vec![1.0]]);
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(&mlp);
        ws.input_mut().copy_from(&x);
        // Target: y = 5. Loss = (y-5)^2, dL/dy = 2(y-5).
        for _ in 0..500 {
            let y = mlp.forward_in(&mut ws).get(0, 0);
            let dy = Matrix::from_rows([vec![2.0 * (y - 5.0)]]);
            mlp.backward(&mut ws, &dy, None, &[]);
            grads.zero();
            mlp.fold_into(&ws, &[], 1.0, &mut grads);
            adam.step(&mut mlp, &grads);
        }
        let y = mlp.forward(&x).get(0, 0);
        assert!((y - 5.0).abs() < 0.05, "converged to {y}");
    }

    #[test]
    fn step_counter_increments() {
        let mut mlp = Mlp::new(1, &[], 1, 0);
        let mut adam = Adam::new(&mlp, 0.01);
        assert_eq!(adam.t, 0);
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(&mlp);
        *ws.input_mut() = Matrix::from_rows([vec![1.0]]);
        mlp.forward_in(&mut ws);
        mlp.backward(&mut ws, &Matrix::from_rows([vec![1.0]]), None, &[]);
        mlp.fold_into(&ws, &[], 1.0, &mut grads);
        adam.step(&mut mlp, &grads);
        assert_eq!(adam.t, 1);
    }

    #[test]
    fn zero_gradients_leave_params_nearly_unchanged() {
        let mut mlp = Mlp::new(2, &[3], 1, 1);
        let before = mlp.clone();
        let mut adam = Adam::new(&mlp, 0.01);
        let zeros = Gradients::zeros_like(&mlp);
        adam.step(&mut mlp, &zeros);
        // With g = 0 the update is exactly 0 (m and v stay 0).
        assert_eq!(mlp, before);
    }
}
