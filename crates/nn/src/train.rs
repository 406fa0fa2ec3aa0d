//! Mini-batch training loop with train/valid/test splits.
//!
//! Mirrors the paper's training protocol (Appendix C/F): 80/10/10 split,
//! batch size 512, Adam at lr 0.001, a fixed number of epochs, keeping the
//! checkpoint with the best validation MSE.
//!
//! ## Data-parallel gradients
//!
//! Each mini-batch is decomposed into fixed-width row shards of
//! [`GRAD_SHARD_ROWS`]; workers compute per-shard gradients against the
//! whole batch's element count, a fixed-order pairwise tree reduction sums
//! them, and a single Adam step applies the sum. The shard decomposition
//! and the reduction order are pure functions of the batch — never of the
//! thread count — so trained weights are **bit-identical** at any
//! [`TrainConfig::threads`] setting, including the serial `threads = 1`.
//!
//! Every shard of a mini-batch runs in its own slot of a workspace built
//! once per fit (input rows, activations, layer gradients, the shard's
//! parameter gradients), so after the first mini-batch a step allocates
//! nothing.

use nshard_pool::WorkPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::adam::Adam;
use crate::loss::{mse, mse_grad_scaled_into};
use crate::mlp::{Gradients, Mlp, MlpWorkspace};
use crate::tensor::Matrix;

/// Width (in dataset rows) of one gradient shard. A mini-batch of 512 rows
/// becomes 8 shards. The constant is part of the trainer's numerical
/// contract: changing it re-associates the gradient sum and therefore
/// changes trained weights (deterministically so).
pub const GRAD_SHARD_ROWS: usize = 64;

/// A supervised regression dataset: feature rows `x` and target rows `y`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "DatasetRepr")]
pub struct Dataset {
    x: Matrix,
    y: Matrix,
}

/// Raw serialized form of [`Dataset`]; conversion re-validates the row
/// counts so a hand-edited file cannot produce an inconsistent dataset.
#[derive(Deserialize)]
struct DatasetRepr {
    x: Matrix,
    y: Matrix,
}

impl TryFrom<DatasetRepr> for Dataset {
    type Error = String;

    fn try_from(repr: DatasetRepr) -> Result<Self, Self::Error> {
        Dataset::new(repr.x, repr.y)
            .ok_or_else(|| "dataset features and targets must have equal, non-zero rows".into())
    }
}

impl Dataset {
    /// Creates a dataset; `x` and `y` must have the same number of rows.
    ///
    /// Returns `None` when the row counts differ or the dataset is empty.
    pub fn new(x: Matrix, y: Matrix) -> Option<Self> {
        if x.rows() != y.rows() || x.rows() == 0 {
            return None;
        }
        Some(Self { x, y })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// The features.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The targets.
    pub fn y(&self) -> &Matrix {
        &self.y
    }

    /// Selects a row subset as a new dataset.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: self.y.select_rows(indices),
        }
    }

    /// Shuffled 80/10/10 split, seeded.
    pub fn split(&self, seed: u64) -> Split {
        self.split_with_ratios(0.8, 0.1, seed)
    }

    /// Shuffled split with explicit train/valid ratios (test gets the rest).
    /// Every part receives at least one sample when the dataset is large
    /// enough (≥ 3 samples).
    pub fn split_with_ratios(&self, train: f64, valid: f64, seed: u64) -> Split {
        let n = self.len();
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        let mut n_train = ((n as f64) * train).round() as usize;
        let mut n_valid = ((n as f64) * valid).round() as usize;
        if n >= 3 {
            n_train = n_train.clamp(1, n - 2);
            n_valid = n_valid.clamp(1, n - n_train - 1);
        } else {
            n_train = n_train.min(n);
            n_valid = n_valid.min(n - n_train);
        }
        let train_set = self.select(&idx[..n_train]);
        let valid_set = self.select(&idx[n_train..n_train + n_valid]);
        let test_set = self.select(&idx[n_train + n_valid..]);
        Split {
            train: train_set,
            valid: valid_set,
            test: test_set,
        }
    }
}

/// The three parts of a dataset split.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Training partition.
    pub train: Dataset,
    /// Validation partition (model selection).
    pub valid: Dataset,
    /// Held-out test partition (reported MSE).
    pub test: Dataset,
}

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training partition.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 512).
    pub batch_size: usize,
    /// Adam learning rate (the paper uses 0.001).
    pub learning_rate: f32,
    /// Worker threads for per-shard gradient computation; `0` = auto (the
    /// `NSHARD_THREADS` environment variable, then available parallelism,
    /// via [`nshard_pool::resolve_threads`]). Trained weights are
    /// bit-identical at any setting.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 512,
            learning_rate: 1e-3,
            threads: 0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Final MSE on the training partition (best-validation checkpoint).
    pub train_mse: f32,
    /// Best validation MSE observed.
    pub valid_mse: f32,
    /// MSE of the selected checkpoint on the held-out test partition.
    pub test_mse: f32,
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// Per-epoch validation MSE history.
    pub valid_history: Vec<f32>,
}

/// Mini-batch MSE trainer with best-on-validation checkpointing.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    /// Layer indices whose gradients are never formed, so every optimizer
    /// step sees them as zero (exact freeze; see
    /// [`Trainer::with_frozen_layers`]).
    frozen_layers: Vec<usize>,
    /// The best model found (set by [`Trainer::fit`]).
    best_model: Option<Mlp>,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            frozen_layers: Vec::new(),
            best_model: None,
        }
    }

    /// Freezes the given layer indices for subsequent fits: their gradients
    /// stay zero at every Adam step, which leaves the layer parameters
    /// bitwise unchanged (zero gradients keep Adam's moments at zero, so
    /// the update is exactly `lr·0/(√0+ε) = 0`, from any fresh optimizer
    /// state).
    pub fn with_frozen_layers(mut self, layers: Vec<usize>) -> Self {
        self.frozen_layers = layers;
        self
    }

    /// The frozen layer indices.
    pub fn frozen_layers(&self) -> &[usize] {
        &self.frozen_layers
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The best model from the last [`Trainer::fit`] call, if any.
    pub fn best_model(&self) -> Option<&Mlp> {
        self.best_model.as_ref()
    }

    /// Consumes the trainer and returns the best model.
    pub fn into_best_model(self) -> Option<Mlp> {
        self.best_model
    }

    /// Trains `mlp` on `dataset` (80/10/10 split derived from `seed`) and
    /// returns the report. The best-on-validation checkpoint is kept and
    /// used for the reported train/test MSE.
    pub fn fit(&mut self, mlp: Mlp, dataset: &Dataset, seed: u64) -> TrainReport {
        let split = dataset.split(seed);
        self.fit_split(mlp, &split, seed)
    }

    /// Trains on an explicit split.
    pub fn fit_split(&mut self, mut mlp: Mlp, split: &Split, seed: u64) -> TrainReport {
        let pool = WorkPool::new(self.config.threads);
        let mut adam = Adam::new(&mlp, self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        let n = split.train.len();
        let batch = self.config.batch_size.clamp(1, n);

        let mut best = mlp.clone();
        let mut best_valid = f32::INFINITY;
        let mut valid_history = Vec::with_capacity(self.config.epochs);

        let mut order: Vec<usize> = (0..n).collect();
        let mut slots: Vec<ShardSlot> = (0..batch.div_ceil(GRAD_SHARD_ROWS))
            .map(|_| ShardSlot::new(&mlp))
            .collect();
        for _epoch in 0..self.config.epochs {
            // Shuffle sample order.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(batch) {
                let grads = batch_gradients(
                    &mlp,
                    &split.train,
                    chunk,
                    &self.frozen_layers,
                    &pool,
                    &mut slots,
                );
                adam.step(&mut mlp, grads);
            }
            let valid_mse = mse(&mlp.forward(split.valid.x()), split.valid.y());
            valid_history.push(valid_mse);
            if valid_mse < best_valid {
                best_valid = valid_mse;
                best = mlp.clone();
            }
        }

        let train_mse = mse(&best.forward(split.train.x()), split.train.y());
        let test_mse = if !split.test.is_empty() {
            mse(&best.forward(split.test.x()), split.test.y())
        } else {
            f32::NAN
        };
        self.best_model = Some(best);
        TrainReport {
            train_mse,
            valid_mse: best_valid,
            test_mse,
            epochs_run: self.config.epochs,
            valid_history,
        }
    }
}

/// Everything one gradient shard needs, kept from mini-batch to mini-batch:
/// the network workspace (the shard's input rows live in it), its target
/// rows, the loss gradient, and the shard's parameter gradients.
struct ShardSlot {
    ws: MlpWorkspace,
    target: Matrix,
    dy: Matrix,
    grads: Gradients,
}

impl ShardSlot {
    fn new(mlp: &Mlp) -> Self {
        Self {
            ws: MlpWorkspace::new(),
            target: Matrix::default(),
            dy: Matrix::default(),
            grads: Gradients::zeros_like(mlp),
        }
    }
}

/// Computes the gradient of one mini-batch (`chunk` of row indices into
/// `train`) by fanning fixed-width row shards over `pool`, one per slot,
/// and summing the per-shard gradients with [`tree_reduce`]; the sum is
/// returned out of the first slot.
///
/// Each shard's upstream gradient is scaled by the *whole* batch's element
/// count ([`mse_grad_scaled_into`]), so the reduced sum is the mini-batch
/// MSE gradient. Both the shard boundaries ([`GRAD_SHARD_ROWS`]) and the
/// reduction order depend only on the batch itself, making the result
/// bit-identical at any worker count. Gradients of `frozen` layers are
/// never written: they stay the zeros the slots were built with.
fn batch_gradients<'s>(
    mlp: &Mlp,
    train: &Dataset,
    chunk: &[usize],
    frozen: &[usize],
    pool: &WorkPool,
    slots: &'s mut [ShardSlot],
) -> &'s Gradients {
    let total_elems = chunk.len() * train.y().cols();
    let slots = &mut slots[..chunk.len().div_ceil(GRAD_SHARD_ROWS)];
    pool.for_each_mut(slots, |s, slot| {
        let end = ((s + 1) * GRAD_SHARD_ROWS).min(chunk.len());
        let shard = &chunk[s * GRAD_SHARD_ROWS..end];
        train.x().select_rows_into(shard, slot.ws.input_mut());
        train.y().select_rows_into(shard, &mut slot.target);
        let pred = mlp.forward_train(&mut slot.ws);
        mse_grad_scaled_into(pred, &slot.target, total_elems, &mut slot.dy);
        mlp.backward(
            &mut slot.ws,
            0..shard.len(),
            &slot.dy,
            frozen,
            &mut slot.grads,
        );
    });
    tree_reduce(slots);
    &slots[0].grads
}

/// Sums the slots' gradients into the first slot with a fixed-order
/// pairwise tree reduction: level by level, slot `2k` of the survivors
/// absorbs slot `2k + 1`.
///
/// The reduction order is a pure function of `slots.len()`, never of which
/// thread filled which slot — the property that lets the data-parallel
/// trainer produce bit-identical weights at any worker count.
fn tree_reduce(slots: &mut [ShardSlot]) {
    let mut stride = 1;
    while stride < slots.len() {
        for pair in slots.chunks_mut(2 * stride) {
            let (left, right) = pair.split_at_mut(stride.min(pair.len()));
            if let Some(right) = right.first() {
                left[0].grads.accumulate(&right.grads, 1.0);
            }
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset(n: usize) -> Dataset {
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![(i % 17) as f32 / 17.0, (i % 5) as f32 / 5.0])
            .collect();
        let ys: Vec<Vec<f32>> = xs.iter().map(|r| vec![3.0 * r[0] + r[1] - 0.5]).collect();
        Dataset::new(Matrix::from_rows(xs), Matrix::from_rows(ys)).unwrap()
    }

    #[test]
    fn split_partitions_everything() {
        let d = linear_dataset(100);
        let s = d.split(1);
        assert_eq!(s.train.len() + s.valid.len() + s.test.len(), 100);
        assert_eq!(s.train.len(), 80);
        assert_eq!(s.valid.len(), 10);
    }

    #[test]
    fn split_is_deterministic() {
        let d = linear_dataset(50);
        assert_eq!(d.split(3).train, d.split(3).train);
        assert_ne!(d.split(3).train, d.split(4).train);
    }

    #[test]
    fn trainer_fits_linear_function() {
        let d = linear_dataset(300);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 150,
            batch_size: 32,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        });
        let report = trainer.fit(Mlp::new(2, &[16], 1, 0), &d, 7);
        assert!(report.test_mse < 0.02, "test MSE {}", report.test_mse);
        assert!(trainer.best_model().is_some());
        assert_eq!(report.valid_history.len(), 150);
    }

    #[test]
    fn validation_mse_improves_over_training() {
        let d = linear_dataset(200);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 50,
            batch_size: 32,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        });
        let report = trainer.fit(Mlp::new(2, &[8], 1, 1), &d, 3);
        let first = report.valid_history[0];
        let last = *report.valid_history.last().unwrap();
        assert!(
            last < first,
            "validation MSE did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn mismatched_dataset_is_rejected() {
        assert!(Dataset::new(Matrix::zeros(3, 2), Matrix::zeros(2, 1)).is_none());
        assert!(Dataset::new(Matrix::zeros(0, 2), Matrix::zeros(0, 1)).is_none());
    }

    #[test]
    fn tiny_datasets_split_without_panicking() {
        let d = linear_dataset(3);
        let s = d.split(0);
        assert_eq!(s.train.len() + s.valid.len() + s.test.len(), 3);
        assert!(!s.train.is_empty());
    }

    #[test]
    fn serde_round_trip_and_validation() {
        let d = linear_dataset(10);
        let json = serde_json::to_string(&d).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        // Tampered row counts are rejected at deserialization time.
        let bad =
            r#"{"x":{"rows":2,"cols":1,"data":[1.0,2.0]},"y":{"rows":1,"cols":1,"data":[3.0]}}"#;
        assert!(serde_json::from_str::<Dataset>(bad).is_err());
    }

    #[test]
    fn fit_is_deterministic() {
        let d = linear_dataset(100);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 16,
            learning_rate: 1e-3,
            ..TrainConfig::default()
        };
        let r1 = Trainer::new(cfg).fit(Mlp::new(2, &[8], 1, 2), &d, 5);
        let r2 = Trainer::new(cfg).fit(Mlp::new(2, &[8], 1, 2), &d, 5);
        assert_eq!(r1, r2);
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        // Batch of 256 rows = 4 shards of GRAD_SHARD_ROWS, so the parallel
        // path genuinely fans out and must still match the serial run.
        let d = linear_dataset(320);
        let base = TrainConfig {
            epochs: 8,
            batch_size: 256,
            learning_rate: 1e-3,
            threads: 1,
        };
        let serial = Trainer::new(base).fit(Mlp::new(2, &[16], 1, 9), &d, 11);
        let serial_model = {
            let mut t = Trainer::new(base);
            t.fit(Mlp::new(2, &[16], 1, 9), &d, 11);
            t.into_best_model().unwrap()
        };
        for threads in [2, 3, 8] {
            let mut t = Trainer::new(TrainConfig { threads, ..base });
            let report = t.fit(Mlp::new(2, &[16], 1, 9), &d, 11);
            assert_eq!(report, serial, "report diverged at {threads} threads");
            assert_eq!(
                t.into_best_model().unwrap(),
                serial_model,
                "weights diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn trainer_overfits_tiny_dataset() {
        // Convergence smoke: 32 samples, capacity to memorize them, and
        // enough epochs must drive the training MSE to ~zero.
        let d = linear_dataset(32);
        let split = Split {
            train: d.clone(),
            valid: d.clone(),
            test: d.clone(),
        };
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 800,
            batch_size: 32,
            learning_rate: 5e-3,
            ..TrainConfig::default()
        });
        let report = trainer.fit_split(Mlp::new(2, &[32], 1, 0), &split, 13);
        assert!(
            report.train_mse < 1e-4,
            "failed to overfit 32 samples: train MSE {}",
            report.train_mse
        );
    }

    #[test]
    fn frozen_layers_are_bitwise_untouched() {
        let d = linear_dataset(120);
        let init = Mlp::new(2, &[8, 8], 1, 6);
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 32,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        };
        let mut trainer = Trainer::new(cfg).with_frozen_layers(vec![0]);
        trainer.fit(init.clone(), &d, 9);
        let fitted = trainer.into_best_model().unwrap();
        // Layer 0 never moved; the unfrozen layers did.
        assert_eq!(init.layers()[0], fitted.layers()[0]);
        assert_ne!(init.layers()[1], fitted.layers()[1]);
        // Freezing everything is an exact no-op on all parameters.
        let mut all = Trainer::new(cfg).with_frozen_layers(vec![0, 1, 2]);
        all.fit(init.clone(), &d, 9);
        assert_eq!(init, all.into_best_model().unwrap());
    }

    #[test]
    fn best_checkpoint_is_min_of_validation_history() {
        let d = linear_dataset(200);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 32,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        });
        let report = trainer.fit(Mlp::new(2, &[8], 1, 4), &d, 21);
        let min = report
            .valid_history
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min);
        assert_eq!(
            report.valid_mse, min,
            "best-on-validation checkpoint must track the history minimum"
        );
    }

    proptest::proptest! {
        #[test]
        fn split_with_ratios_partitions_any_dataset(
            n in 1usize..200,
            train in 0.0f64..1.0,
            valid in 0.0f64..1.0,
            seed in 0u64..1000,
        ) {
            let d = linear_dataset(n);
            let s = d.split_with_ratios(train, valid, seed);
            // Exhaustive: every sample lands in exactly one part.
            proptest::prop_assert_eq!(s.train.len() + s.valid.len() + s.test.len(), n);
            // Disjoint: recombining the parts recovers the multiset of rows.
            let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n);
            for part in [&s.train, &s.valid, &s.test] {
                for r in 0..part.len() {
                    let xr = part.x().row(r);
                    let yr = part.y().row(r);
                    rows.push(
                        xr.iter().chain(yr.iter()).map(|v| v.to_bits()).collect(),
                    );
                }
            }
            rows.sort_unstable();
            let mut expected: Vec<Vec<u32>> = (0..n)
                .map(|r| {
                    d.x().row(r)
                        .iter()
                        .chain(d.y().row(r).iter())
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect();
            expected.sort_unstable();
            proptest::prop_assert_eq!(rows, expected);
            // Non-degenerate parts whenever the dataset can afford them.
            if n >= 3 {
                proptest::prop_assert!(!s.train.is_empty());
                proptest::prop_assert!(!s.valid.is_empty());
                proptest::prop_assert!(!s.test.is_empty());
            }
        }
    }
}
