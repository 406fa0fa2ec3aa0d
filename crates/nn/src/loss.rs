//! Mean-squared-error loss, the paper's training objective (Equation 2).

use crate::tensor::Matrix;

/// Mean squared error between predictions and targets, averaged over every
/// element.
///
/// # Panics
///
/// Panics if shapes differ or the matrices are empty.
///
/// ```
/// use nshard_nn::{mse, Matrix};
///
/// let pred = Matrix::from_rows([vec![1.0], vec![3.0]]);
/// let target = Matrix::from_rows([vec![0.0], vec![3.0]]);
/// assert_eq!(mse(&pred, &target), 0.5);
/// ```
pub fn mse(pred: &Matrix, target: &Matrix) -> f32 {
    assert_eq!(pred.rows(), target.rows(), "mse shape mismatch");
    assert_eq!(pred.cols(), target.cols(), "mse shape mismatch");
    let n = pred.rows() * pred.cols();
    assert!(n > 0, "mse of empty matrices");
    pred.as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum::<f32>()
        / n as f32
}

/// Gradient of [`mse`] with respect to `pred`, written into `grad` (reusing
/// its allocation): `2 (pred - target) / n` over the `n` elements.
///
/// # Panics
///
/// Panics if shapes differ.
pub(crate) fn mse_grad_into(pred: &Matrix, target: &Matrix, grad: &mut Matrix) {
    assert_eq!(pred.rows(), target.rows(), "mse shape mismatch");
    assert_eq!(pred.cols(), target.cols(), "mse shape mismatch");
    let n = (pred.rows() * pred.cols()) as f32;
    grad.copy_from(pred);
    for (g, &t) in grad.as_mut_slice().iter_mut().zip(target.as_slice()) {
        *g = 2.0 * (*g - t) / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_for_perfect_prediction() {
        let m = Matrix::from_rows([vec![1.0, 2.0]]);
        assert_eq!(mse(&m, &m), 0.0);
    }

    #[test]
    fn known_value() {
        let pred = Matrix::from_rows([vec![2.0, 0.0]]);
        let target = Matrix::from_rows([vec![0.0, 0.0]]);
        assert_eq!(mse(&pred, &target), 2.0);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let pred = Matrix::from_rows([vec![1.0, -2.0], vec![0.5, 3.0]]);
        let target = Matrix::from_rows([vec![0.0, 1.0], vec![0.5, 2.0]]);
        let mut g = Matrix::default();
        mse_grad_into(&pred, &target, &mut g);
        let eps = 1e-3;
        let base = mse(&pred, &target);
        for r in 0..2 {
            for c in 0..2 {
                let mut p = pred.clone();
                p.set(r, c, p.get(r, c) + eps);
                let num = (mse(&p, &target) - base) / eps;
                assert!((num - g.get(r, c)).abs() < 1e-2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = mse(&Matrix::zeros(1, 2), &Matrix::zeros(2, 1));
    }

    proptest! {
        #[test]
        fn mse_is_nonnegative(
            vals in proptest::collection::vec(-100.0f32..100.0, 8),
            tvals in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let p = Matrix::from_flat(2, 4, vals);
            let t = Matrix::from_flat(2, 4, tvals);
            prop_assert!(mse(&p, &t) >= 0.0);
        }
    }
}
