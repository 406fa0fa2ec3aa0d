//! # nshard-nn — a minimal dense neural-network library
//!
//! The paper's cost models are tiny MLPs (a 128-32 shared table encoder, a
//! 32-64 head, and a 128-64-32-16 communication model) trained with Adam on
//! an MSE loss. There is no mature pure-Rust DL framework in this
//! environment, so this crate implements exactly the pieces those models
//! need, from scratch:
//!
//! * [`tensor::Matrix`] — a row-major `f32` matrix with the handful of ops
//!   backprop needs,
//! * [`gemm`] — the one GEMM kernel, [`gemm::PackedGemm`]: register-tiled
//!   over weights packed into column panels, bit-identical to the scalar
//!   `i, k, j` loop nest its tests keep,
//! * [`layer::Dense`] + ReLU — fully connected layers with manual gradients,
//! * [`mlp::Mlp`] — an MLP container whose one forward pass,
//!   [`Mlp::forward_in`], runs on a reusable [`MlpWorkspace`], with
//!   `backward` over it,
//! * [`adam::Adam`] — the Adam optimizer,
//! * [`loss`] — mean-squared-error and its gradient,
//! * [`train`] — the one training protocol: seeded train/valid/test
//!   partition, mini-batch epochs (a mini-batch is one pass whose gradient
//!   folds its 64-row groups in order), best-on-validation model selection
//!   (the paper trains 1000 epochs and keeps the best validation
//!   checkpoint),
//! * [`serialize`] — the one on-disk artifact format: a versioned envelope
//!   in a checksum frame.
//!
//! Everything is deterministic given explicit seeds.
//!
//! ## Example
//!
//! Fit `y = 2x₀ - x₁`:
//!
//! ```
//! use nshard_nn::{fit, Dataset, Matrix, Mlp, TrainSettings};
//!
//! let xs: Vec<[f32; 2]> = (0..200).map(|i| [i as f32 / 200.0, (i % 7) as f32 / 7.0]).collect();
//! let x = Matrix::from_rows(xs.iter().map(|r| r.to_vec()));
//! let y = Matrix::from_rows(xs.iter().map(|r| vec![2.0 * r[0] - r[1]]));
//! let dataset = Dataset::new(x, y).unwrap();
//!
//! let mut mlp = Mlp::new(2, &[16], 1, 0);
//! let settings = TrainSettings { epochs: 300, batch_size: 32, ..TrainSettings::default() };
//! let report = fit(&mut mlp, dataset.split(42).each_ref(), &[], &settings, 42);
//! assert!(report.test_mse < 0.05, "test MSE {}", report.test_mse);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod gemm;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod serialize;
pub mod tensor;
pub mod train;

pub use adam::Adam;
pub use layer::Dense;
pub use loss::mse;
pub use mlp::{Gradients, Mlp, MlpWorkspace};
pub use serialize::{
    envelope_from_json, envelope_to_json, read_checked, write_checked, CheckpointError, Envelope,
    CHECKPOINT_VERSION,
};
pub use tensor::Matrix;
pub use train::{fit, fit_epochs, partition, Dataset, TrainReport, TrainSettings, FOLD_GROUP_ROWS};

// Last, after every public item: `scripts/count-lines.sh` stops reading a
// file at its first line that starts with `#[cfg(test)]`.
#[cfg(test)]
mod reference;
