//! The communication cost models (Figure 5, right).
//!
//! One MLP per direction (forward / backward all-to-all) regresses the max
//! per-GPU collective latency from the per-GPU start timestamps and
//! transferred data sizes. The paper trains separate forward and backward
//! models (§3.2); both share this type.

use std::cell::RefCell;

use nshard_nn::{Dataset, Mlp, MlpWorkspace, TrainReport, TrainSettings};
use serde::{Deserialize, Serialize};

use crate::features::{comm_feature_dim, comm_features_into};

/// The paper's communication model architecture: input → 128-64-32-16 → 1.
const COMM_HIDDEN: [usize; 4] = [128, 64, 32, 16];

/// A pre-trained communication cost model for a fixed device count.
///
/// # Example
///
/// ```
/// use nshard_cost::CommCostModel;
///
/// let model = CommCostModel::new(4, 0);
/// let dims = [320.0, 300.0, 310.0, 290.0];
/// let cost = model.predict_batch(&[(&dims[..], &[0.0; 4][..])], 65_536)[0];
/// assert!(cost.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommCostModel {
    num_devices: usize,
    mlp: Mlp,
}

thread_local! {
    /// Reusable per-thread buffers for `predict_batch`.
    static COMM_SCRATCH: RefCell<MlpWorkspace> = RefCell::new(MlpWorkspace::new());
}

impl CommCostModel {
    /// A freshly initialized (untrained) model for `num_devices` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`.
    pub fn new(num_devices: usize, seed: u64) -> Self {
        assert!(num_devices > 0, "need at least one device");
        Self {
            num_devices,
            mlp: Mlp::new(comm_feature_dim(num_devices), &COMM_HIDDEN, 1, seed),
        }
    }

    /// Whether the network reads the features of the device count and
    /// prices. A decoded layer's widths are bounded by its data, so the
    /// width formula cannot overflow once the count is.
    pub(crate) fn fits(&self) -> bool {
        let (devices, inputs) = (self.num_devices, self.mlp.input_dim());
        let reads = (1..=inputs).contains(&devices) && comm_feature_dim(devices) == inputs;
        reads && self.mlp.output_dim() == 1
    }

    /// The device count this model was built for.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Predicts the max collective latency (ms) of many placements, each
    /// described by per-GPU device dimensions and start timestamps, with a
    /// single multi-row forward pass. One placement is a batch of one.
    /// `Mlp::forward_in` is row-independent, so a placement's latency is
    /// bit-identical whatever other placements share its batch.
    /// Feature rows are written directly into a reusable per-thread batch
    /// matrix, so steady-state prediction does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if any placement does not match the model's device count.
    pub fn predict_batch(&self, placements: &[(&[f64], &[f64])], batch_size: u32) -> Vec<f64> {
        if placements.is_empty() {
            return Vec::new();
        }
        COMM_SCRATCH.with(|scratch| {
            let ws = &mut *scratch.borrow_mut();
            let x = ws.input_mut();
            x.reset(placements.len(), comm_feature_dim(self.num_devices));
            for (i, (dims, starts)) in placements.iter().enumerate() {
                assert_eq!(
                    dims.len(),
                    self.num_devices,
                    "placement has the wrong number of devices for this model"
                );
                comm_features_into(dims, starts, batch_size, x.row_mut(i));
            }
            let y = self.mlp.forward_in(ws);
            (0..placements.len())
                .map(|i| f64::from(y.get(i, 0)))
                .collect()
        })
    }

    /// Trains on a collected dataset (80/10/10 split from `seed`), keeping
    /// the best-on-validation checkpoint, and returns the report.
    ///
    /// Training is [`nshard_nn::fit`], serial on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature width does not match this model.
    pub fn train(&mut self, data: &Dataset, settings: &TrainSettings, seed: u64) -> TrainReport {
        self.check_width(data);
        let [train, valid, test] = data.split(seed);
        nshard_nn::fit(&mut self.mlp, [&train, &valid, &test], &[], settings, seed)
    }

    /// Fine-tunes on explicit train/valid partitions (no internal split),
    /// keeping the best-on-validation checkpoint. `frozen_layers` indices
    /// are left bitwise untouched (see [`nshard_nn::fit`]). The reported
    /// `test_mse` is the selected checkpoint's MSE on `valid`.
    ///
    /// Serial, like [`CommCostModel::train`].
    ///
    /// # Panics
    ///
    /// Panics if either partition's feature width does not match this model.
    pub fn fine_tune(
        &mut self,
        train: &Dataset,
        valid: &Dataset,
        settings: &TrainSettings,
        frozen_layers: &[usize],
        seed: u64,
    ) -> TrainReport {
        self.check_width(train);
        self.check_width(valid);
        let parts = [train, valid, valid];
        nshard_nn::fit(&mut self.mlp, parts, frozen_layers, settings, seed)
    }

    fn check_width(&self, data: &Dataset) {
        assert_eq!(
            data.x().cols(),
            comm_feature_dim(self.num_devices),
            "dataset feature width does not match the model's device count"
        );
    }

    /// MSE over an arbitrary dataset (e.g. a held-out split); `NaN` when
    /// it is empty.
    pub fn evaluate_mse(&self, data: &Dataset) -> f32 {
        data.mse(&self.mlp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_comm_data, CollectConfig};
    use nshard_data::TablePool;
    use nshard_sim::CommParams;

    /// The latency of one placement at batch 65,536: a batch of one.
    fn predict(model: &CommCostModel, dims: &[f64], starts: &[f64]) -> f64 {
        model.predict_batch(&[(dims, starts)], 65_536)[0]
    }

    fn dataset(n: usize, d: usize) -> crate::collect::CommDataset {
        let pool = TablePool::synthetic_dlrm(60, 3);
        let cfg = CollectConfig {
            comm_samples: n,
            ..CollectConfig::smoke()
        };
        collect_comm_data(&pool, &CommParams::pcie_server(), d, &cfg, 1)
    }

    #[test]
    fn training_reduces_mse() {
        let data = dataset(500, 4);
        let mut model = CommCostModel::new(4, 0);
        let before = model.evaluate_mse(&data.forward);
        model.train(
            &data.forward,
            &TrainSettings {
                epochs: 40,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            5,
        );
        let after = model.evaluate_mse(&data.forward);
        assert!(after < before / 2.0, "MSE {before} -> {after}");
    }

    #[test]
    fn trained_model_tracks_imbalance() {
        let data = dataset(800, 4);
        let mut model = CommCostModel::new(4, 1);
        model.train(
            &data.forward,
            &TrainSettings {
                epochs: 60,
                batch_size: 64,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            2,
        );
        let balanced = predict(&model, &[250.0; 4], &[0.0; 4]);
        let skewed = predict(&model, &[700.0, 100.0, 100.0, 100.0], &[0.0; 4]);
        assert!(
            skewed > balanced,
            "skewed {skewed} should exceed balanced {balanced}"
        );
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_single() {
        let model = CommCostModel::new(4, 3);
        let placements: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![250.0; 4], vec![0.0; 4]),
            (vec![700.0, 100.0, 100.0, 100.0], vec![1.0, 0.5, 0.0, 2.0]),
            (vec![10.0, 20.0, 30.0, 40.0], vec![0.0; 4]),
        ];
        let refs: Vec<(&[f64], &[f64])> = placements
            .iter()
            .map(|(d, s)| (d.as_slice(), s.as_slice()))
            .collect();
        let batch = model.predict_batch(&refs, 65_536);
        for ((dims, starts), &b) in placements.iter().zip(&batch) {
            let single = predict(&model, dims, starts);
            assert_eq!(single.to_bits(), b.to_bits());
        }
        assert!(model.predict_batch(&[], 65_536).is_empty());
    }

    #[test]
    fn fine_tune_adapts_and_respects_frozen_layers() {
        let data = dataset(400, 4);
        let settings = TrainSettings {
            epochs: 20,
            batch_size: 64,
            learning_rate: 1e-3,
            ..TrainSettings::default()
        };
        let mut model = CommCostModel::new(4, 5);
        model.train(&data.forward, &settings, 5);
        let before = model.clone();
        let [train, valid, _] = data.forward.split(9);
        let ft = TrainSettings {
            epochs: 8,
            batch_size: 32,
            learning_rate: 2e-4,
            ..TrainSettings::default()
        };
        // Freeze the first two layers: they must stay bitwise identical.
        let report = model.fine_tune(&train, &valid, &ft, &[0, 1], 7);
        assert!(report.valid_mse.is_finite());
        assert_eq!(before.mlp.layers()[0], model.mlp.layers()[0]);
        assert_eq!(before.mlp.layers()[1], model.mlp.layers()[1]);
        // Determinism: a second identical fine-tune matches bitwise.
        let mut again = before.clone();
        again.fine_tune(&train, &valid, &ft, &[0, 1], 7);
        assert_eq!(model, again);
    }

    #[test]
    #[should_panic(expected = "wrong number of devices")]
    fn wrong_device_count_panics() {
        let model = CommCostModel::new(4, 0);
        let _ = predict(&model, &[1.0, 2.0], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn wrong_dataset_width_panics() {
        let data = dataset(20, 4);
        let mut model = CommCostModel::new(8, 0);
        let _ = model.train(
            &data.forward,
            &TrainSettings {
                epochs: 1,
                batch_size: 8,
                learning_rate: 1e-3,
                ..TrainSettings::default()
            },
            0,
        );
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let model = CommCostModel::new(4, 9);
        let json = serde_json::to_string(&model).unwrap();
        let back: CommCostModel = serde_json::from_str(&json).unwrap();
        let dims = [100.0, 200.0, 300.0, 400.0];
        assert_eq!(
            predict(&model, &dims, &[0.0; 4]),
            predict(&back, &dims, &[0.0; 4])
        );
    }
}
