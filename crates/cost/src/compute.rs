//! The computation cost model (Figure 5, left).
//!
//! A DeepSets-style regressor: a **shared** MLP encodes each table's
//! feature vector, the per-table encodings are element-wise summed into a
//! fixed-size representation of the table combination, and a head MLP
//! produces the fused-kernel forward+backward cost. The sum pooling is what
//! makes the model handle any number of tables — the property that lets one
//! pre-trained model serve every sharding task.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use nshard_nn::{
    fit_epochs, Adam, Gradients, Matrix, Mlp, MlpWorkspace, TrainReport, TrainSettings,
};

use crate::cache::add_encoding;
use crate::collect::ComputeDataset;
use crate::features::TABLE_FEATURE_DIM;

/// The paper's encoder architecture: table features → 128 → 32.
const ENCODER_HIDDEN: [usize; 1] = [128];
const ENCODER_OUT: usize = 32;
/// The paper's head architecture: 32 → 64 → 1.
const HEAD_HIDDEN: [usize; 1] = [64];

/// The pre-trained computation cost model.
///
/// # Example
///
/// ```
/// use nshard_cost::{table_features, ComputeCostModel};
/// use nshard_sim::TableProfile;
///
/// let model = ComputeCostModel::new(0);
/// let t = TableProfile::new(64, 1 << 20, 15.0, 0.3, 1.1);
/// let features = vec![table_features(&t, 65_536)];
/// let cost = model.predict_batch(&[features])[0];
/// assert!(cost.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeCostModel {
    encoder: Mlp,
    head: Mlp,
}

/// Reusable per-thread buffers for `predict_batch`: the two
/// networks' passes, the encoder's input being the batch of table rows and
/// the head's the pooled per-set encodings. Thread-local because models
/// are shared `&self` across search worker threads.
#[derive(Debug, Default)]
struct ComputeScratch {
    enc: MlpWorkspace,
    head: MlpWorkspace,
}

thread_local! {
    static COMPUTE_SCRATCH: RefCell<ComputeScratch> = RefCell::new(ComputeScratch::default());
}

impl ComputeCostModel {
    /// A freshly initialized (untrained) model with the paper's
    /// architecture (encoder 128-32, head 64).
    pub fn new(seed: u64) -> Self {
        Self::with_architecture(&ENCODER_HIDDEN, &HEAD_HIDDEN, seed)
    }

    /// A model with custom hidden layers (empty slices give a *linear*
    /// encoder/head — the ablation §4.2 argues cannot capture the
    /// non-linear costs).
    pub(crate) fn with_architecture(
        encoder_hidden: &[usize],
        head_hidden: &[usize],
        seed: u64,
    ) -> Self {
        Self {
            encoder: Mlp::new(TABLE_FEATURE_DIM, encoder_hidden, ENCODER_OUT, seed),
            head: Mlp::new(ENCODER_OUT, head_hidden, 1, seed ^ 0x5EED_CAFE),
        }
    }

    /// A fully linear model (no hidden layers anywhere): prediction is a
    /// linear function of the summed table features.
    pub fn linear(seed: u64) -> Self {
        Self::with_architecture(&[], &[], seed)
    }

    /// Predicts the fused-kernel cost (ms) of many table combinations, each
    /// given as per-table feature vectors, with two forward passes total:
    /// every table row of every set goes through the shared encoder as one
    /// matrix, each set's rows are sum-pooled, and the pooled rows go
    /// through the head as one matrix. One combination is a batch of one.
    ///
    /// Both networks are row-independent and each set pools its own rows in
    /// order, so a set's cost is **bit-identical** whatever other sets
    /// share its batch. An empty combination predicts the head's response
    /// to a zero sum (≈ the kernel launch overhead once trained). All
    /// intermediates live in thread-local scratch — the hot path allocates
    /// only the returned `Vec` after warm-up.
    pub fn predict_batch<S: AsRef<[Vec<f32>]>>(&self, sets: &[S]) -> Vec<f64> {
        if sets.is_empty() {
            return Vec::new();
        }
        COMPUTE_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            self.pool_encodings(sets, s);
            let y = self.head.forward_in(&mut s.head);
            (0..sets.len()).map(|i| f64::from(y.get(i, 0))).collect()
        })
    }

    /// Encodes every table row of every set as one matrix and sum-pools
    /// each set's rows, in order, into row `i` of the head's input.
    fn pool_encodings<S: AsRef<[Vec<f32>]>>(&self, sets: &[S], s: &mut ComputeScratch) {
        let total_rows: usize = sets.iter().map(|s| s.as_ref().len()).sum();
        s.head.input_mut().reset(sets.len(), self.encoding_dim());
        if total_rows == 0 {
            return;
        }
        let x = s.enc.input_mut();
        x.reset(total_rows, self.encoder.input_dim());
        for (r, row) in sets.iter().flat_map(|set| set.as_ref()).enumerate() {
            x.row_mut(r).copy_from_slice(row);
        }
        let encoded = self.encoder.forward_in(&mut s.enc);
        let mut r = 0;
        for (i, set) in sets.iter().enumerate() {
            let pooled = s.head.input_mut().row_mut(i);
            for _ in 0..set.as_ref().len() {
                add_encoding(pooled, encoded.row(r));
                r += 1;
            }
        }
    }

    /// Whether the networks fit the model: the encoder reads table
    /// features, feeds the head, and the head prices.
    pub(crate) fn fits(&self) -> bool {
        let (enc, head) = (&self.encoder, &self.head);
        let widths = [enc.input_dim(), enc.output_dim(), head.output_dim()];
        widths == [TABLE_FEATURE_DIM, head.input_dim(), 1]
    }

    /// Width of one per-table encoding (the pooled-representation
    /// dimension fed to the head).
    pub(crate) fn encoding_dim(&self) -> usize {
        self.head.input_dim()
    }

    /// Runs only the shared encoder over per-table feature rows, returning
    /// one encoding row per input row.
    ///
    /// Encoder rows are independent of batch composition, so each returned
    /// row is bit-identical to the corresponding row of any other forward
    /// containing that table — the property the search's per-table
    /// encoding cache relies on.
    pub(crate) fn encode_tables(&self, features: &[Vec<f32>]) -> Vec<Vec<f32>> {
        if features.is_empty() {
            return Vec::new();
        }
        COMPUTE_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            let x = s.enc.input_mut();
            x.reset(features.len(), self.encoder.input_dim());
            for (i, row) in features.iter().enumerate() {
                x.row_mut(i).copy_from_slice(row);
            }
            let encoded = self.encoder.forward_in(&mut s.enc);
            (0..features.len())
                .map(|i| encoded.row(i).to_vec())
                .collect()
        })
    }

    /// Runs only the head over already sum-pooled encoding rows, returning
    /// one cost per row. Combined with [`ComputeCostModel::encode_tables`]
    /// and a left-to-right fold of the encodings, this reproduces
    /// [`ComputeCostModel::predict_batch`] bit for bit.
    ///
    /// `pooled` is lent to the head's pass, not copied, and handed back
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `pooled`'s width differs from
    /// [`ComputeCostModel::encoding_dim`].
    pub(crate) fn head_costs(&self, pooled: &mut Matrix) -> Vec<f64> {
        assert_eq!(
            pooled.cols(),
            self.encoding_dim(),
            "pooled rows have the wrong encoding width"
        );
        COMPUTE_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            std::mem::swap(s.head.input_mut(), pooled);
            let y = self.head.forward_in(&mut s.head);
            let costs = (0..y.rows()).map(|i| f64::from(y.get(i, 0))).collect();
            std::mem::swap(s.head.input_mut(), pooled);
            costs
        })
    }

    /// Mean squared error over a dataset (batched inference).
    pub fn evaluate_mse(&self, data: &ComputeDataset) -> f32 {
        if data.is_empty() {
            return f32::NAN;
        }
        let sets: Vec<&[Vec<f32>]> = data.samples.iter().map(|s| s.tables.as_slice()).collect();
        let preds = self.predict_batch(&sets);
        let se: f64 = preds
            .iter()
            .zip(&data.samples)
            .map(|(p, s)| {
                let err = p - f64::from(s.cost_ms);
                err * err
            })
            .sum();
        (se / data.len() as f64) as f32
    }

    /// Trains the model on `data` (80/10/10 split from `seed`), keeping the
    /// best-on-validation checkpoint. Mirrors the paper's protocol:
    /// mini-batch Adam on an MSE loss.
    ///
    /// The fit is serial ([`TrainSettings::threads`] sizes the pre-train's
    /// lanes, not a fit): each network runs once over the whole
    /// mini-batch, and every gradient element folds its samples in
    /// mini-batch order.
    pub fn train(
        &mut self,
        data: &ComputeDataset,
        settings: &TrainSettings,
        seed: u64,
    ) -> TrainReport {
        self.fit_partitions(data.split(seed).each_ref(), settings, false, seed)
    }

    /// Fine-tunes the model on explicit train/valid partitions (no internal
    /// split), keeping the best-on-validation checkpoint. The reported
    /// `test_mse` is the selected checkpoint's MSE on `valid`.
    ///
    /// With `freeze_encoder` the shared table encoder is left **bitwise
    /// untouched** — only the head adapts. That preserves the per-table
    /// encoding geometry the search's encoding cache and DeepSets pooling
    /// rely on, while the head re-calibrates to observed costs. A frozen
    /// encoder also costs nothing: every sample's pooled encoding is a
    /// constant of the fit, computed once.
    ///
    /// Returns an unchanged-model report when `train` is empty. Serial,
    /// like [`ComputeCostModel::train`].
    pub fn fine_tune(
        &mut self,
        train: &ComputeDataset,
        valid: &ComputeDataset,
        settings: &TrainSettings,
        freeze_encoder: bool,
        seed: u64,
    ) -> TrainReport {
        self.fit_partitions([train, valid, valid], settings, freeze_encoder, seed)
    }

    fn fit_partitions(
        &mut self,
        parts: [&ComputeDataset; 3],
        settings: &TrainSettings,
        freeze_encoder: bool,
        seed: u64,
    ) -> TrainReport {
        let train = parts[0];
        let mut adam_enc = Adam::new(&self.encoder, settings.learning_rate);
        let mut adam_head = Adam::new(&self.head, settings.learning_rate);

        // With the encoder frozen each sample's pooled row never changes.
        let frozen_pooled = freeze_encoder.then(|| self.pooled_rows(train));
        let mut block = FitBlock::default();
        let mut grad_enc = Gradients::zeros_like(&self.encoder);
        let mut grad_head = Gradients::zeros_like(&self.head);
        let step = |model: &mut Self, chunk: &[usize]| {
            block.run(model, train, chunk, frozen_pooled.as_ref());
            // Then the fold, one layer's `dW` and `db` at a time: a layer
            // walks every sample in mini-batch order, forming the sample's
            // gradient and folding it at once — the chain each element had
            // when whole sample gradients were formed first and then folded.
            let scale = 1.0 / chunk.len() as f32;
            // Exact encoder freeze: equivalent to zeroing the encoder
            // gradients (Adam with perpetually-zero gradients keeps zero
            // moments, so the update is exactly zero) — skipping the step
            // makes the bitwise invariant free.
            let Self { encoder, head } = model;
            if !freeze_encoder {
                grad_enc.zero();
                encoder.fold_into(&block.enc, &[], scale, &mut grad_enc);
                adam_enc.step(encoder, &grad_enc);
            }
            grad_head.zero();
            head.fold_into(&block.head, &[], scale, &mut grad_head);
            adam_head.step(head, &grad_head);
        };
        fit_epochs(
            self,
            parts,
            train.len(),
            settings,
            seed ^ 0x7A57,
            Self::evaluate_mse,
            step,
        )
    }

    /// The sum-pooled encoding of every sample of `data`, one per row.
    fn pooled_rows(&self, data: &ComputeDataset) -> Matrix {
        let sets: Vec<&[Vec<f32>]> = data.samples.iter().map(|s| s.tables.as_slice()).collect();
        COMPUTE_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            self.pool_encodings(&sets, s);
            s.head.input_mut().clone()
        })
    }
}

/// A fit's workspace, built once per fit and reused from mini-batch to
/// mini-batch: the network buffers of a mini-batch's samples, where the
/// fold finds each sample's activations and deltas.
#[derive(Default)]
struct FitBlock {
    /// Encoder pass over every table row of the mini-batch at once; sample
    /// `s` is group `s` of its backward pass.
    enc: MlpWorkspace,
    /// Head pass over every pooled row of the mini-batch at once, one group
    /// per sample.
    head: MlpWorkspace,
    dy: Matrix,
    table_ends: Vec<usize>,
    sample_ends: Vec<usize>,
}

impl FitBlock {
    /// Forward and backward passes of the mini-batch's samples (`batch`
    /// indexes `train.samples`), each network once over all of them. Sum
    /// pooling hands every table of a sample the same gradient, so the
    /// encoder's backward pass takes one `d_pooled` row per sample. With
    /// `frozen_pooled` (row `i` = sample `i`'s pooled encoding) the encoder
    /// is not run at all.
    fn run(
        &mut self,
        model: &ComputeCostModel,
        train: &ComputeDataset,
        batch: &[usize],
        frozen_pooled: Option<&Matrix>,
    ) {
        if frozen_pooled.is_none() {
            let tables = batch.iter().flat_map(|&i| &train.samples[i].tables);
            let x = self.enc.input_mut();
            x.reset(tables.clone().count(), model.encoder.input_dim());
            for (r, row) in tables.enumerate() {
                x.row_mut(r).copy_from_slice(row);
            }
            model.encoder.forward_in(&mut self.enc);
        }
        let pooled = self.head.input_mut();
        pooled.reset(batch.len(), model.encoding_dim());
        self.table_ends.clear();
        let mut end = 0;
        for (s, &i) in batch.iter().enumerate() {
            match frozen_pooled {
                Some(constant) => pooled.row_mut(s).copy_from_slice(constant.row(i)),
                None => {
                    let rows = end..end + train.samples[i].tables.len();
                    end = rows.end;
                    self.table_ends.push(end);
                    for r in rows {
                        add_encoding(pooled.row_mut(s), self.enc.output().row(r));
                    }
                }
            }
        }
        let pred = model.head.forward_in(&mut self.head);
        self.dy.reset(batch.len(), 1);
        for (s, &i) in batch.iter().enumerate() {
            self.dy
                .set(s, 0, 2.0 * (pred.get(s, 0) - train.samples[i].cost_ms));
        }
        self.sample_ends.clear();
        self.sample_ends.extend(1..=batch.len());
        model
            .head
            .backward(&mut self.head, &self.dy, Some(&self.sample_ends), &[]);
        if frozen_pooled.is_none() {
            let d_pooled = model.head.input_gradient(&mut self.head);
            model
                .encoder
                .backward(&mut self.enc, d_pooled, Some(&self.table_ends), &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_compute_data, CollectConfig, ComputeSample};
    use crate::comm_model::CommCostModel;
    use nshard_data::TablePool;
    use nshard_sim::KernelParams;

    /// The cost of one combination: a batch of one.
    fn predict(model: &ComputeCostModel, tables: &[Vec<f32>]) -> f64 {
        model.predict_batch(&[tables])[0]
    }

    fn small_dataset(n: usize) -> ComputeDataset {
        let pool = TablePool::synthetic_dlrm(40, 5);
        let cfg = CollectConfig {
            compute_samples: n,
            ..CollectConfig::smoke()
        };
        collect_compute_data(&pool, &KernelParams::rtx_2080_ti(), &cfg, 1)
    }

    #[test]
    fn untrained_model_predicts_finite() {
        let model = ComputeCostModel::new(0);
        let data = small_dataset(5);
        for s in &data.samples {
            assert!(predict(&model, &s.tables).is_finite());
        }
        assert!(predict(&model, &[]).is_finite());
    }

    #[test]
    fn prediction_is_permutation_invariant() {
        let model = ComputeCostModel::new(3);
        let data = small_dataset(1);
        let mut tables = data.samples[0].tables.clone();
        let a = predict(&model, &tables);
        tables.reverse();
        let b = predict(&model, &tables);
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_single() {
        let model = ComputeCostModel::new(11);
        let data = small_dataset(6);
        let mut sets: Vec<Vec<Vec<f32>>> = data.samples.iter().map(|s| s.tables.clone()).collect();
        sets.push(Vec::new()); // empty combination rides along
        let batch = model.predict_batch(&sets);
        assert_eq!(batch.len(), sets.len());
        for (s, &b) in sets.iter().zip(&batch) {
            let single = predict(&model, s);
            assert_eq!(single.to_bits(), b.to_bits(), "batch diverged on {s:?}");
        }
        assert!(model.predict_batch::<Vec<Vec<f32>>>(&[]).is_empty());
    }

    #[test]
    fn decomposed_encode_fold_head_matches_predict() {
        // encode → left-fold → head must reproduce the fused forward bit
        // for bit (the encoding cache's contract).
        let model = ComputeCostModel::new(5);
        let data = small_dataset(4);
        for s in &data.samples {
            let encoded = model.encode_tables(&s.tables);
            assert_eq!(encoded.len(), s.tables.len());
            let mut pooled = Matrix::zeros(1, model.encoding_dim());
            for row in &encoded {
                for (p, &v) in pooled.row_mut(0).iter_mut().zip(row) {
                    *p += v;
                }
            }
            let via_parts = model.head_costs(&mut pooled)[0];
            let direct = predict(&model, &s.tables);
            assert_eq!(via_parts.to_bits(), direct.to_bits());
        }
        assert!(model.encode_tables(&[]).is_empty());
    }

    #[test]
    fn training_reduces_mse() {
        let data = small_dataset(400);
        let mut model = ComputeCostModel::new(7);
        let before = model.evaluate_mse(&data);
        let report = model.train(
            &data,
            &TrainSettings {
                epochs: 30,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            9,
        );
        let after = model.evaluate_mse(&data);
        assert!(
            after < before / 2.0,
            "MSE did not improve enough: {before} -> {after}"
        );
        assert!(report.test_mse.is_finite());
        assert_eq!(report.valid_history.len(), 30);
    }

    #[test]
    fn trained_model_learns_cost_ordering() {
        // A trained model should rank a heavy combination above a light one.
        let data = small_dataset(600);
        let mut model = ComputeCostModel::new(1);
        model.train(
            &data,
            &TrainSettings {
                epochs: 40,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            2,
        );
        // Pick the lightest and heaviest training samples by label.
        let min = data
            .samples
            .iter()
            .min_by(|a, b| a.cost_ms.partial_cmp(&b.cost_ms).unwrap())
            .unwrap();
        let max = data
            .samples
            .iter()
            .max_by(|a, b| a.cost_ms.partial_cmp(&b.cost_ms).unwrap())
            .unwrap();
        assert!(predict(&model, &max.tables) > predict(&model, &min.tables));
    }

    #[test]
    fn training_is_deterministic() {
        let data = small_dataset(100);
        let mut m1 = ComputeCostModel::new(4);
        let mut m2 = ComputeCostModel::new(4);
        let r1 = m1.train(
            &data,
            &TrainSettings {
                epochs: 5,
                batch_size: 32,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            6,
        );
        let r2 = m2.train(
            &data,
            &TrainSettings {
                epochs: 5,
                batch_size: 32,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            6,
        );
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn linear_model_underfits_the_nonlinear_costs() {
        // The paper's §4.2 claim: a linear model cannot capture the cost
        // non-linearity. Train both on identical data and compare.
        let data = small_dataset(500);
        let mut nn = ComputeCostModel::new(3);
        let mut linear = ComputeCostModel::linear(3);
        let nn_report = nn.train(
            &data,
            &TrainSettings {
                epochs: 30,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            4,
        );
        let lin_report = linear.train(
            &data,
            &TrainSettings {
                epochs: 30,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            4,
        );
        assert!(
            nn_report.test_mse < lin_report.test_mse,
            "nn {} should beat linear {}",
            nn_report.test_mse,
            lin_report.test_mse
        );
    }

    #[test]
    fn fine_tune_with_frozen_encoder_keeps_encoder_bitwise() {
        let data = small_dataset(200);
        let mut model = ComputeCostModel::new(7);
        model.train(
            &data,
            &TrainSettings {
                epochs: 10,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            9,
        );
        let before = model.clone();
        let [train, valid, _] = data.split(13);
        let report = model.fine_tune(
            &train,
            &valid,
            &TrainSettings {
                epochs: 5,
                batch_size: 32,
                learning_rate: 2e-4,
                ..TrainSettings::default()
            },
            true,
            17,
        );
        assert!(report.valid_mse.is_finite());
        assert_eq!(report.valid_history.len(), 5);
        // Frozen encoder is untouched; the head is free to move.
        assert_eq!(before.encoder, model.encoder);
    }

    #[test]
    fn fine_tune_is_deterministic_and_improves_on_shifted_labels() {
        let data = small_dataset(300);
        // Shift the cost regime: the "observed" world is 1.7× the
        // collected labels, as if the hardware drifted.
        let shifted = ComputeDataset {
            samples: data
                .samples
                .iter()
                .map(|s| ComputeSample {
                    tables: s.tables.clone(),
                    cost_ms: s.cost_ms * 1.7,
                })
                .collect(),
        };
        let settings = TrainSettings {
            epochs: 12,
            batch_size: 64,
            learning_rate: 1e-3,
            ..TrainSettings::default()
        };
        let mut base = ComputeCostModel::new(2);
        base.train(&data, &settings, 3);
        let before = base.evaluate_mse(&shifted);
        let [train, valid, _] = shifted.split(5);
        let ft_settings = TrainSettings {
            epochs: 15,
            batch_size: 32,
            learning_rate: 5e-4,
            ..TrainSettings::default()
        };
        let mut a = base.clone();
        let ra = a.fine_tune(&train, &valid, &ft_settings, false, 11);
        let mut b = base.clone();
        let rb = b.fine_tune(&train, &valid, &ft_settings, false, 11);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
        let after = a.evaluate_mse(&shifted);
        assert!(
            after < before / 2.0,
            "fine-tune did not adapt to the shifted regime: {before} -> {after}"
        );
    }

    #[test]
    fn fine_tune_on_empty_train_is_a_no_op() {
        let data = small_dataset(20);
        let mut model = ComputeCostModel::new(4);
        let before = model.clone();
        let empty = ComputeDataset {
            samples: Vec::new(),
        };
        let report = model.fine_tune(&empty, &data, &TrainSettings::smoke(), false, 1);
        assert_eq!(before, model);
        assert!(report.valid_history.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let model = ComputeCostModel::new(2);
        let json = serde_json::to_string(&model).unwrap();
        let back: ComputeCostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn tiny_datasets_train_instead_of_returning_the_initial_weights() {
        // Rounding alone split 3..=7 samples with an empty validation or
        // test part; the fit then compared `NaN < inf` after every epoch and
        // handed back the untrained weights with `valid_mse = inf`.
        let settings = TrainSettings {
            epochs: 5,
            ..TrainSettings::smoke()
        };
        for n in [3, 4, 5] {
            let data = small_dataset(n);
            let [train, valid, test] = data.split(3);
            assert!(!train.is_empty() && !valid.is_empty() && !test.is_empty());
            let mut model = ComputeCostModel::new(1);
            let report = model.train(&data, &settings, 3);
            assert_ne!(model, ComputeCostModel::new(1), "n = {n}: untrained");
            for mse in [
                model.evaluate_mse(&train),
                report.valid_mse,
                report.test_mse,
            ] {
                assert!(mse.is_finite(), "n = {n}: {report:?}");
            }
            assert!(report.valid_history.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn a_validation_set_that_cannot_rank_falls_back_to_the_training_data() {
        use crate::collect::collect_comm_data;
        use nshard_nn::Dataset;
        use nshard_sim::CommParams;

        let settings = TrainSettings {
            epochs: 4,
            ..TrainSettings::smoke()
        };
        // (validation, whether it can rank checkpoints), per model kind.
        let compute_train = small_dataset(40);
        let mut poisoned = compute_train.clone();
        poisoned.samples[0].cost_ms = f32::NAN;
        let compute_cases = [
            (ComputeDataset::default(), false),
            (poisoned, false),
            (small_dataset(12), true),
        ];
        let pool = TablePool::synthetic_dlrm(40, 5);
        let comm = |n: usize, seed: u64| {
            let cfg = CollectConfig {
                comm_samples: n,
                ..CollectConfig::smoke()
            };
            collect_comm_data(&pool, &CommParams::pcie_server(), 2, &cfg, seed).forward
        };
        let comm_train = comm(40, 1);
        let mut labels = comm_train.y().clone();
        labels.set(0, 0, f32::NAN);
        let comm_cases = [
            (comm_train.select(&[]), false),
            (Dataset::new(comm_train.x().clone(), labels).unwrap(), false),
            (comm(12, 2), true),
        ];

        // `fitted_on`: the selected checkpoint's MSE on (validation, train).
        let check = |kind: &str, report: TrainReport, ranks: bool, fitted_on: (f32, f32)| {
            assert_eq!(report.valid_history.len(), 4, "{kind}: {report:?}");
            assert!(report.valid_mse.is_finite(), "{kind}: {report:?}");
            // Selected, and reported, on validation when it can rank and on
            // the training data when it cannot.
            let selected_on = if ranks { fitted_on.0 } else { fitted_on.1 };
            assert_eq!(report.valid_mse.to_bits(), selected_on.to_bits(), "{kind}");
        };
        for (valid, ranks) in compute_cases {
            let mut model = ComputeCostModel::new(6);
            let report = model.fine_tune(&compute_train, &valid, &settings, false, 2);
            assert_ne!(model, ComputeCostModel::new(6));
            let fitted_on = (
                model.evaluate_mse(&valid),
                model.evaluate_mse(&compute_train),
            );
            check("compute", report, ranks, fitted_on);
        }
        for (valid, ranks) in comm_cases {
            let mut model = CommCostModel::new(2, 6);
            let report = model.fine_tune(&comm_train, &valid, &settings, &[], 2);
            assert_ne!(model, CommCostModel::new(2, 6));
            let fitted_on = (model.evaluate_mse(&valid), model.evaluate_mse(&comm_train));
            check("comm", report, ranks, fitted_on);
        }
    }

    /// The fit as it stood before the fold-as-formed step, kept as the
    /// oracle: one forward + backward per sample in fresh buffers, the
    /// pooled gradient copied to every table row and pushed through the
    /// encoder's top layer row by row, a whole `Gradients` pair formed per
    /// sample and only then folded, serially, in sample order. It stands on
    /// `nshard-nn`'s step, which that crate's own oracle holds to the old
    /// scalar step bit for bit.
    fn reference_fit(
        model: &mut ComputeCostModel,
        train: &ComputeDataset,
        valid: &ComputeDataset,
        settings: &TrainSettings,
        freeze_encoder: bool,
        seed: u64,
    ) -> TrainReport {
        use rand::Rng;
        use rand::{rngs::StdRng, SeedableRng};

        let gradient = |mlp: &Mlp, ws: &mut MlpWorkspace, dy: &Matrix| {
            let mut g = Gradients::zeros_like(mlp);
            mlp.backward(ws, dy, None, &[]);
            mlp.fold_into(ws, &[], 1.0, &mut g);
            g
        };
        let sample_gradients = |model: &ComputeCostModel, sample: &ComputeSample| {
            let mut head = MlpWorkspace::new();
            if sample.tables.is_empty() {
                *head.input_mut() = Matrix::zeros(1, ENCODER_OUT);
                let pred = model.head.forward_in(&mut head).get(0, 0);
                let dy = Matrix::from_rows([vec![2.0 * (pred - sample.cost_ms)]]);
                return (None, gradient(&model.head, &mut head, &dy));
            }
            let mut enc = MlpWorkspace::new();
            *enc.input_mut() = Matrix::from_rows(&sample.tables);
            let encoded = model.encoder.forward_in(&mut enc);
            let mut pooled = Matrix::zeros(1, ENCODER_OUT);
            for r in 0..encoded.rows() {
                for (p, &v) in pooled.row_mut(0).iter_mut().zip(encoded.row(r)) {
                    *p += v;
                }
            }
            *head.input_mut() = pooled;
            let pred = model.head.forward_in(&mut head).get(0, 0);
            let dy = Matrix::from_rows([vec![2.0 * (pred - sample.cost_ms)]]);
            let g_head = gradient(&model.head, &mut head, &dy);
            let d_pooled = model.head.input_gradient(&mut head).row(0).to_vec();
            let d_encoded = Matrix::from_rows(vec![d_pooled; sample.tables.len()]);
            (Some(gradient(&model.encoder, &mut enc, &d_encoded)), g_head)
        };

        let mut adam_enc = Adam::new(&model.encoder, settings.learning_rate);
        let mut adam_head = Adam::new(&model.head, settings.learning_rate);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A57);
        let n = train.len();
        let batch_size = settings.batch_size.clamp(1, n);
        let mut best = model.clone();
        let mut best_valid = f32::INFINITY;
        let mut valid_history = Vec::new();
        let mut order: Vec<usize> = (0..n).collect();
        for _epoch in 0..settings.epochs {
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(batch_size) {
                let mut grad_enc = Gradients::zeros_like(&model.encoder);
                let mut grad_head = Gradients::zeros_like(&model.head);
                let scale = 1.0 / chunk.len() as f32;
                for &idx in chunk {
                    let (g_enc, g_head) = sample_gradients(model, &train.samples[idx]);
                    if let Some(g) = g_enc {
                        grad_enc.accumulate(&g, scale);
                    }
                    grad_head.accumulate(&g_head, scale);
                }
                if !freeze_encoder {
                    adam_enc.step(&mut model.encoder, &grad_enc);
                }
                adam_head.step(&mut model.head, &grad_head);
            }
            let valid_mse = model.evaluate_mse(valid);
            valid_history.push(valid_mse);
            if valid_mse < best_valid {
                best_valid = valid_mse;
                best = model.clone();
            }
        }
        *model = best;
        TrainReport {
            valid_mse: best_valid,
            test_mse: model.evaluate_mse(valid),
            valid_history,
        }
    }

    /// Samples with 0, 1, 15 and a few tables, zeros among the features.
    fn random_dataset(rng: &mut rand::rngs::StdRng, n: usize) -> ComputeDataset {
        use rand::Rng;
        let samples = (0..n)
            .map(|_| {
                let tables = match rng.random_range(0..6u32) {
                    0 => 0,
                    1 => 1,
                    2 => 15,
                    _ => rng.random_range(2..9usize),
                };
                ComputeSample {
                    tables: (0..tables)
                        .map(|_| {
                            (0..TABLE_FEATURE_DIM)
                                .map(|_| match rng.random_range(0..5u32) {
                                    0 => 0.0,
                                    _ => rng.random::<f32>() * 2.0 - 0.5,
                                })
                                .collect()
                        })
                        .collect(),
                    cost_ms: rng.random::<f32>() * 20.0,
                }
            })
            .collect();
        ComputeDataset { samples }
    }

    proptest::proptest! {
        /// Whole fits against the old one: weights and reports, frozen and
        /// unfrozen encoder, mini-batches of one to all samples — half the
        /// cases with mini-batches of at least eight samples. Labels equal
        /// to the untrained prediction (every other sample) make the first
        /// step's `d_pooled` rows signed zeros; a NaN label poisons the fit
        /// from its first mini-batch on.
        #[test]
        fn fit_matches_the_reference(
            n in 1usize..40,
            batch_size in 1usize..40,
            wide: bool,
            freeze_encoder: bool,
            label: u8,
            seed in 0u64..1_000_000,
        ) {
            use rand::SeedableRng;
            let (n, batch_size) = if wide { (n + 24, batch_size.max(8)) } else { (n, batch_size) };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut train = random_dataset(&mut rng, n);
            let valid = random_dataset(&mut rng, 5);
            match label % 4 {
                0 => {
                    for s in train.samples.iter_mut().step_by(2) {
                        s.cost_ms = predict(&ComputeCostModel::new(seed), &s.tables) as f32;
                    }
                }
                1 => train.samples[n - 1].cost_ms = f32::NAN,
                _ => {}
            }
            let settings = TrainSettings { epochs: 2, batch_size, learning_rate: 2e-3, threads: 1 };
            let mut want = ComputeCostModel::new(seed);
            let want_report = reference_fit(&mut want, &train, &valid, &settings, freeze_encoder, seed);
            let mut model = ComputeCostModel::new(seed);
            let report = model.fine_tune(&train, &valid, &settings, freeze_encoder, seed);
            let weights = |m: &ComputeCostModel| {
                [&m.encoder, &m.head]
                    .iter()
                    .flat_map(|mlp| mlp.layers())
                    .flat_map(|l| l.weights().as_slice().iter().chain(l.bias()))
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            proptest::prop_assert!(weights(&model) == weights(&want), "weights diverged");
            let bits = |r: &TrainReport| {
                [r.valid_mse, r.test_mse]
                    .iter()
                    .chain(&r.valid_history)
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            proptest::prop_assert_eq!(bits(&report), bits(&want_report));
        }
    }
}
