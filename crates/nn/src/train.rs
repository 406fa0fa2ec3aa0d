//! The pre-training protocol, once: seeded 80/10/10 partition, mini-batch
//! Adam on MSE for a fixed number of epochs, keep the best-on-validation
//! checkpoint (the paper's Appendix C/F, for all three cost models).
//!
//! [`fit_epochs`] owns what every model kind shares — the shuffle stream,
//! the chunking, the checkpoint bookkeeping and the rule for which
//! partition ranks checkpoints — and is generic over what a mini-batch step
//! does to the model and how the model scores a partition. [`fit`] is the
//! plain-[`Mlp`] instance.
//!
//! ## One fold per mini-batch
//!
//! [`fit`] runs a mini-batch through the network once — one forward pass,
//! one MSE gradient, one backward pass — and folds its parameter gradient
//! in groups of [`FOLD_GROUP_ROWS`] rows, in order, into one accumulator
//! ([`Mlp::fold_into`]); one Adam step applies it. The group width and the
//! fold's order fix the float order of every trained weight. A fit runs on
//! the calling thread: the three cost models fit side by side instead (see
//! [`TrainSettings::threads`]). Its buffers are built once per fit, so
//! after the first mini-batch a step allocates nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::adam::Adam;
use crate::loss::{mse, mse_grad_into};
use crate::mlp::{Gradients, Mlp, MlpWorkspace};
use crate::tensor::Matrix;

/// Width (in dataset rows) of one group of [`fit`]'s gradient fold: a
/// mini-batch of 512 rows folds 8 terms, each its group's rows summed in
/// order. The constant is part of the trainer's numerical contract:
/// changing it re-associates the gradient sum and therefore changes trained
/// weights (deterministically so).
pub const FOLD_GROUP_ROWS: usize = 64;

/// A supervised regression dataset: feature rows `x` and target rows `y`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Matrix,
    y: Matrix,
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

    /// Shuffled 80/10/10 split, seeded: the rows [`partition`] picks, as
    /// `[train, valid, test]` — the order [`fit`] takes them in.
    pub fn split(&self, seed: u64) -> [Dataset; 3] {
        partition(self.len(), seed).map(|rows| self.select(&rows))
    }

    /// Mean squared error of `mlp`'s predictions over this dataset; `NaN`
    /// when the dataset is empty.
    pub fn mse(&self, mlp: &Mlp) -> f32 {
        if self.is_empty() {
            return f32::NAN;
        }
        mse(&mlp.forward(&self.x), &self.y)
    }
}

/// Fisher–Yates over `order`, drawing from `rng`.
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
}

/// The seeded 80/10/10 partition of `0..n` into train, valid and test
/// indices. Every part receives at least one index when there are enough
/// (`n >= 3`) — rounding alone leaves up to seven samples without a
/// validation or test part.
pub fn partition(n: usize, seed: u64) -> [Vec<usize>; 3] {
    let mut train: Vec<usize> = (0..n).collect();
    shuffle(&mut train, &mut StdRng::seed_from_u64(seed));
    let mut n_train = ((n as f64) * 0.8).round() as usize;
    let mut n_valid = ((n as f64) * 0.1).round() as usize;
    if n >= 3 {
        n_train = n_train.clamp(1, n - 2);
        n_valid = n_valid.clamp(1, n - n_train - 1);
    } else {
        n_train = n_train.min(n);
        n_valid = n_valid.min(n - n_train);
    }
    let test = train.split_off(n_train + n_valid);
    let valid = train.split_off(n_train);
    [train, valid, test]
}

/// Training hyperparameters for all three cost models.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainSettings {
    /// Training epochs (the paper uses 1000; the smooth simulator labels
    /// converge far faster).
    pub epochs: usize,
    /// Mini-batch size (paper: 512).
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f32,
    /// Worker threads of a pre-train or fine-tune: with two or more, the
    /// compute model's fit runs beside the two comm models' (two lanes);
    /// `0` = auto (the `NSHARD_THREADS` environment variable, then
    /// available parallelism). A single fit is serial and never reads this.
    /// Trained models are bit-identical at any setting.
    pub threads: usize,
}

impl Default for TrainSettings {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 128,
            learning_rate: 1e-3,
            threads: 0,
        }
    }
}

impl TrainSettings {
    /// A reduced setting for tests and smoke runs.
    pub fn smoke() -> Self {
        Self {
            epochs: 10,
            batch_size: 64,
            learning_rate: 2e-3,
            threads: 0,
        }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Best per-epoch selection score (see [`fit_epochs`]).
    pub valid_mse: f32,
    /// MSE of the selected checkpoint on the held-out test partition.
    pub test_mse: f32,
    /// Per-epoch selection score, one entry per epoch.
    pub valid_history: Vec<f32>,
}

/// The epoch loop every cost model trains through: `settings.epochs` times,
/// shuffle the training indices (one stream seeded with `shuffle_seed`, so
/// each model kind passes its own salt), hand `step` one mini-batch of them
/// at a time, `score` the model, and keep the best-scoring checkpoint,
/// which `model` holds on return.
///
/// Checkpoints are ranked on `valid` — unless it cannot rank them (`score`
/// of the untrained model is not finite: an empty partition, for which
/// `score` must return `NaN`, or a non-finite label), which would leave the
/// untrained weights selected after every epoch ran; then they are ranked,
/// and `valid_mse` reported, on `train`. With `train_len == 0` nothing
/// runs and the report scores the unchanged model.
pub fn fit_epochs<M: Clone, D>(
    model: &mut M,
    [train, valid, test]: [&D; 3],
    train_len: usize,
    settings: &TrainSettings,
    shuffle_seed: u64,
    score: impl Fn(&M, &D) -> f32,
    mut step: impl FnMut(&mut M, &[usize]),
) -> TrainReport {
    if train_len == 0 {
        return TrainReport {
            valid_mse: score(model, valid),
            test_mse: score(model, test),
            valid_history: Vec::new(),
        };
    }
    let select_on = if score(model, valid).is_finite() {
        valid
    } else {
        train
    };
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    let mut order: Vec<usize> = (0..train_len).collect();
    let mut best = model.clone();
    let mut best_valid = f32::INFINITY;
    let mut valid_history = Vec::with_capacity(settings.epochs);
    let batch = settings.batch_size.clamp(1, train_len);
    for _epoch in 0..settings.epochs {
        shuffle(&mut order, &mut rng);
        for chunk in order.chunks(batch) {
            step(model, chunk);
        }
        let valid_mse = score(model, select_on);
        valid_history.push(valid_mse);
        if valid_mse < best_valid {
            best_valid = valid_mse;
            best = model.clone();
        }
    }
    *model = best;
    TrainReport {
        valid_mse: best_valid,
        test_mse: score(model, test),
        valid_history,
    }
}

/// Trains `mlp` on the `[train, valid, test]` partitions through
/// [`fit_epochs`], leaving the selected checkpoint in it. A mini-batch is
/// one pass and one fold of [`FOLD_GROUP_ROWS`]-row groups (see the module
/// docs).
///
/// Layers listed in `frozen` stay bitwise untouched: their gradients are
/// never formed, so every Adam step sees zeros, which keeps the moments at
/// zero and the update exactly `lr·0/(√0+ε) = 0`.
pub fn fit(
    mlp: &mut Mlp,
    parts: [&Dataset; 3],
    frozen: &[usize],
    settings: &TrainSettings,
    seed: u64,
) -> TrainReport {
    let train = parts[0];
    let mut adam = Adam::new(mlp, settings.learning_rate);
    let mut grads = Gradients::zeros_like(mlp);
    let (mut ws, mut target, mut dy) = (MlpWorkspace::new(), Matrix::default(), Matrix::default());
    let mut ends = Vec::new();
    fit_epochs(
        mlp,
        parts,
        train.len(),
        settings,
        seed ^ 0xA5A5_5A5A,
        |mlp, data| data.mse(mlp),
        |mlp, chunk| {
            train.x().select_rows_into(chunk, ws.input_mut());
            train.y().select_rows_into(chunk, &mut target);
            let pred = mlp.forward_in(&mut ws);
            mse_grad_into(pred, &target, &mut dy);
            // Every `FOLD_GROUP_ROWS` rows is one term of the fold; the
            // last group may be short.
            ends.clear();
            ends.extend((FOLD_GROUP_ROWS..chunk.len()).step_by(FOLD_GROUP_ROWS));
            ends.push(chunk.len());
            mlp.backward(&mut ws, &dy, Some(&ends), frozen);
            grads.zero();
            mlp.fold_into(&ws, frozen, 1.0, &mut grads);
            adam.step(mlp, &grads);
        },
    )
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

    fn settings(epochs: usize, batch_size: usize, learning_rate: f32) -> TrainSettings {
        TrainSettings {
            epochs,
            batch_size,
            learning_rate,
            ..TrainSettings::default()
        }
    }

    /// Splits `d` by `seed` and fits `mlp` on the parts.
    fn fit_on(
        d: &Dataset,
        mut mlp: Mlp,
        frozen: &[usize],
        settings: &TrainSettings,
        seed: u64,
    ) -> (TrainReport, Mlp) {
        let report = fit(&mut mlp, d.split(seed).each_ref(), frozen, settings, seed);
        (report, mlp)
    }

    #[test]
    fn split_partitions_everything() {
        let d = linear_dataset(100);
        let [train, valid, test] = d.split(1);
        assert_eq!(train.len() + valid.len() + test.len(), 100);
        assert_eq!(train.len(), 80);
        assert_eq!(valid.len(), 10);
    }

    #[test]
    fn split_is_deterministic() {
        let d = linear_dataset(50);
        assert_eq!(d.split(3)[0], d.split(3)[0]);
        assert_ne!(d.split(3)[0], d.split(4)[0]);
    }

    #[test]
    fn trainer_fits_linear_function() {
        let d = linear_dataset(300);
        let (report, _) = fit_on(
            &d,
            Mlp::new(2, &[16], 1, 0),
            &[],
            &settings(150, 32, 3e-3),
            7,
        );
        assert!(report.test_mse < 0.02, "test MSE {}", report.test_mse);
        assert_eq!(report.valid_history.len(), 150);
    }

    #[test]
    fn validation_mse_improves_over_training() {
        let d = linear_dataset(200);
        let (report, _) = fit_on(&d, Mlp::new(2, &[8], 1, 1), &[], &settings(50, 32, 3e-3), 3);
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
        let [train, valid, test] = d.split(0);
        assert_eq!(train.len() + valid.len() + test.len(), 3);
        assert!(!train.is_empty());
    }

    #[test]
    fn one_and_two_row_datasets_train_on_what_they_have() {
        // Neither leaves a validation row: checkpoints are ranked on the
        // training rows instead of `mse` meeting an empty matrix.
        for n in [1, 2] {
            let d = linear_dataset(n);
            assert!(d.split(4)[1].is_empty());
            let init = Mlp::new(2, &[8], 1, 5);
            let (report, fitted) = fit_on(&d, init.clone(), &[], &settings(6, 32, 3e-3), 4);
            assert_ne!(fitted, init, "n = {n}: untrained");
            assert_eq!(report.valid_history.len(), 6);
            assert!(report.valid_history.iter().all(|v| v.is_finite()));
            let train_mse = d.split(4)[0].mse(&fitted);
            assert_eq!(report.valid_mse.to_bits(), train_mse.to_bits());
            assert!(report.test_mse.is_nan(), "n = {n}: there is no test row");
            let weights = fitted.layers().iter().flat_map(|l| l.weights().as_slice());
            assert!(weights.into_iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let d = linear_dataset(100);
        let cfg = settings(10, 16, 1e-3);
        let r1 = fit_on(&d, Mlp::new(2, &[8], 1, 2), &[], &cfg, 5);
        let r2 = fit_on(&d, Mlp::new(2, &[8], 1, 2), &[], &cfg, 5);
        assert_eq!(r1, r2);
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        // Batch of 256 rows = 4 fold groups of FOLD_GROUP_ROWS. A fit is serial
        // whatever `threads` says (the pre-train's lanes read it), so every
        // setting must train the same bits.
        let d = linear_dataset(320);
        let base = TrainSettings {
            epochs: 8,
            batch_size: 256,
            learning_rate: 1e-3,
            threads: 1,
        };
        let (serial, serial_model) = fit_on(&d, Mlp::new(2, &[16], 1, 9), &[], &base, 11);
        for threads in [2, 3, 8] {
            let cfg = TrainSettings { threads, ..base };
            let (report, model) = fit_on(&d, Mlp::new(2, &[16], 1, 9), &[], &cfg, 11);
            assert_eq!(report, serial, "report diverged at {threads} threads");
            assert_eq!(model, serial_model, "weights diverged at {threads} threads");
        }
    }

    #[test]
    fn trainer_overfits_tiny_dataset() {
        // Convergence smoke: 32 samples, capacity to memorize them, and
        // enough epochs must drive the training MSE to ~zero.
        let d = linear_dataset(32);
        let mut mlp = Mlp::new(2, &[32], 1, 0);
        fit(&mut mlp, [&d, &d, &d], &[], &settings(800, 32, 5e-3), 13);
        let train_mse = d.mse(&mlp);
        assert!(
            train_mse < 1e-4,
            "failed to overfit 32 samples: train MSE {train_mse}"
        );
    }

    #[test]
    fn frozen_layers_are_bitwise_untouched() {
        let d = linear_dataset(120);
        let init = Mlp::new(2, &[8, 8], 1, 6);
        let cfg = settings(12, 32, 3e-3);
        let (_, fitted) = fit_on(&d, init.clone(), &[0], &cfg, 9);
        // Layer 0 never moved; the unfrozen layers did.
        assert_eq!(init.layers()[0], fitted.layers()[0]);
        assert_ne!(init.layers()[1], fitted.layers()[1]);
        // Freezing everything is an exact no-op on all parameters.
        let (_, all) = fit_on(&d, init.clone(), &[0, 1, 2], &cfg, 9);
        assert_eq!(init, all);
    }

    #[test]
    fn best_checkpoint_is_min_of_validation_history() {
        let d = linear_dataset(200);
        let (report, _) = fit_on(
            &d,
            Mlp::new(2, &[8], 1, 4),
            &[],
            &settings(60, 32, 3e-3),
            21,
        );
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
        fn partition_is_disjoint_covering_and_non_degenerate(n in 0usize..=200, seed: u64) {
            let parts = partition(n, seed);
            // Disjoint and covering: the parts together are `0..n`, each once.
            let mut all: Vec<usize> = parts.concat();
            all.sort_unstable();
            proptest::prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            // Non-degenerate parts whenever there are rows to afford them.
            if n >= 3 {
                proptest::prop_assert!(parts.iter().all(|part| !part.is_empty()));
            }
            // `Dataset::split` is these rows, in this order.
            if n > 0 {
                let d = linear_dataset(n);
                for (part, rows) in d.split(seed).iter().zip(&parts) {
                    proptest::prop_assert_eq!(part, &d.select(rows));
                }
            }
        }
    }
}
