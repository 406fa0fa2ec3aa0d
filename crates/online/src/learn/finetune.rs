//! Drift-triggered fine-tuning of the pre-trained cost models.
//!
//! Fine-tuning is deliberately conservative: a **low learning rate**
//! (an order of magnitude below pre-training) and, by default, a
//! **frozen encoder** for the DeepSets compute model — the shared
//! per-table encoder captures table geometry that drift does not change,
//! while the head re-calibrates absolute cost levels. The comm MLPs
//! freeze their first layers for the same reason. Freezing is *exact*:
//! frozen parameters are bitwise untouched (see
//! `ComputeCostModel::fine_tune` / `CommCostModel::fine_tune`), so a
//! fine-tuned checkpoint provably cannot have corrupted the pre-trained
//! representation it keeps.
//!
//! Every produced bundle is a candidate only — promotion is the
//! learner's shadow evaluation's decision
//! ([`ContinualLearner::propose`](super::ContinualLearner::propose)),
//! never the tuner's.

use serde::{Deserialize, Serialize};

use nshard_cost::{CommCostModel, CostModelBundle, TrainSettings};
use nshard_nn::Dataset;
use nshard_pool::WorkPool;

use super::buffer::LearnDatasets;

/// Comm-MLP layer indices kept bitwise frozen while fine-tuning: the
/// input layer.
const FROZEN_COMM_LAYERS: [usize; 1] = [0];

/// The DeepSets table encoder stays bitwise frozen; only the cost head
/// adapts.
const FREEZE_ENCODER: bool = true;

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FineTuneSettings {
    /// Epochs, mini-batch size and learning rate of each fit, and the
    /// threads of the two fine-tuning lanes (see [`fine_tune`]).
    /// The learning rate is low by design: it defaults to 10× below the
    /// pre-training default so fine-tuning nudges rather than rewrites.
    pub train: TrainSettings,
    /// A model is only fine-tuned when its dataset has at least this
    /// many samples; smaller datasets leave the model untouched.
    pub min_samples: usize,
}

impl Default for FineTuneSettings {
    fn default() -> Self {
        Self {
            train: TrainSettings {
                epochs: 12,
                batch_size: 32,
                learning_rate: 1e-4,
                threads: 0,
            },
            min_samples: 24,
        }
    }
}

impl FineTuneSettings {
    /// A reduced setting for tests and smoke runs.
    pub fn smoke() -> Self {
        Self {
            train: TrainSettings {
                epochs: 6,
                batch_size: 16,
                ..Self::default().train
            },
            min_samples: 8,
        }
    }
}

/// Fine-tunes `incumbent` on buffered ground truth into a candidate
/// bundle: each cost model with enough buffered data is fine-tuned from
/// the incumbent's weights; the rest carry over bitwise unchanged.
/// Returns `None` when **no** model had enough data — there is nothing
/// to propose.
///
/// `valid` is the held-back validation slice; models select their best
/// epoch against it (a fit falls back to its training data when the
/// slice has nothing for that model). The fits run in the pre-train's
/// two lanes ([`CostModelBundle::pretrain_with_spec`]): the compute model
/// beside the forward and then the backward comm model, on a [`WorkPool`]
/// of the settings' threads. Deterministic per `seed` at any thread
/// count.
pub fn fine_tune(
    incumbent: &CostModelBundle,
    train: &LearnDatasets,
    valid: &LearnDatasets,
    settings: &FineTuneSettings,
    seed: u64,
) -> Option<CostModelBundle> {
    let ts = &settings.train;
    let mut compute = incumbent.compute_model().clone();
    let mut comm = [incumbent.comm_fwd_model(), incumbent.comm_bwd_model()].map(Clone::clone);
    let tune_comm = |model: &mut CommCostModel,
                     train_ds: &Option<Dataset>,
                     valid_ds: &Option<Dataset>,
                     salt: u64|
     -> Option<(f32, usize)> {
        let train_ds = train_ds.as_ref()?;
        if train_ds.len() < settings.min_samples {
            return None;
        }
        // Nothing held back for this model: an empty validation part,
        // which the fit answers by ranking on its training rows.
        let no_rows = train_ds.select(&[]);
        let valid_ds = valid_ds.as_ref().unwrap_or(&no_rows);
        let tune = model.fine_tune(train_ds, valid_ds, ts, &FROZEN_COMM_LAYERS, seed ^ salt);
        Some((tune.valid_mse, train_ds.len()))
    };
    let (compute_mse, [fwd, bwd]) = WorkPool::new(ts.threads).join(
        || {
            (train.compute.len() >= settings.min_samples).then(|| {
                let tune =
                    compute.fine_tune(&train.compute, &valid.compute, ts, FREEZE_ENCODER, seed);
                tune.valid_mse
            })
        },
        || {
            let [fwd, bwd] = &mut comm;
            [
                tune_comm(fwd, &train.comm_fwd, &valid.comm_fwd, 0x0f0d),
                tune_comm(bwd, &train.comm_bwd, &valid.comm_bwd, 0x0b0d),
            ]
        },
    );

    let mut report = *incumbent.report();
    if let Some(mse) = compute_mse {
        report.compute_test_mse = mse;
        report.compute_samples = train.compute.len();
    }
    if let Some((mse, _)) = fwd {
        report.fwd_comm_test_mse = mse;
    }
    if let Some((mse, _)) = bwd {
        report.bwd_comm_test_mse = mse;
    }
    let comm_samples: usize = [fwd, bwd].iter().flatten().map(|&(_, n)| n).sum();
    if comm_samples > 0 {
        report.comm_samples = comm_samples;
    }

    let [comm_fwd, comm_bwd] = comm;
    let tuned_any = compute_mse.is_some() || fwd.is_some() || bwd.is_some();
    tuned_any.then(|| {
        CostModelBundle::from_parts(compute, comm_fwd, comm_bwd, incumbent.batch_size(), report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{BufferConfig, ObservationBuffer, ObservationWire};
    use nshard_cost::{table_features, CollectConfig};
    use nshard_data::{TableConfig, TablePool};

    fn smoke_bundle() -> CostModelBundle {
        let pool = TablePool::synthetic_dlrm(64, 11);
        CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &nshard_cost::TrainSettings::smoke(),
            11,
        )
    }

    fn compute_obs(bundle: &CostModelBundle, table: &TableConfig, scale: f64) -> ObservationWire {
        let profile = table.profile(bundle.batch_size());
        let features = vec![table_features(&profile, bundle.batch_size())];
        let predicted = bundle.compute_model().predict_batch(&[&features])[0];
        ObservationWire {
            kind: "compute".into(),
            features,
            predicted_ms: predicted,
            observed_ms: predicted * scale,
        }
    }

    #[test]
    fn too_little_data_yields_no_candidate() {
        let bundle = smoke_bundle();
        let buffer = ObservationBuffer::new(BufferConfig::default());
        let candidate = fine_tune(
            &bundle,
            &buffer.training_data(),
            &buffer.validation_data(),
            &FineTuneSettings::smoke(),
            0,
        );
        assert!(candidate.is_none());
    }

    #[test]
    fn fine_tune_is_deterministic_and_adapts_toward_shifted_truth() {
        let bundle = smoke_bundle();
        let pool = TablePool::synthetic_dlrm(64, 11);
        let mut buffer = ObservationBuffer::new(BufferConfig {
            validation_stride: u64::MAX,
            ..BufferConfig::default()
        });
        // Ground truth runs 1.6× the incumbent's predictions.
        for table in pool.tables() {
            buffer.insert(compute_obs(&bundle, table, 1.6));
        }
        let train = buffer.training_data();
        let settings = FineTuneSettings::smoke();
        let a = fine_tune(&bundle, &train, &buffer.validation_data(), &settings, 9)
            .expect("enough data");
        let b = fine_tune(&bundle, &train, &buffer.validation_data(), &settings, 9)
            .expect("enough data");
        assert_eq!(a, b, "fine-tuning must be bit-deterministic per seed");
        // The candidate predicts closer to the shifted truth than the
        // incumbent does.
        assert!(
            a.compute_model().evaluate_mse(&train.compute)
                <= bundle.compute_model().evaluate_mse(&train.compute)
        );
        // Comm models had no data, so they carry over bitwise.
        assert_eq!(a.comm_fwd_model(), bundle.comm_fwd_model());
        assert_eq!(a.comm_bwd_model(), bundle.comm_bwd_model());
    }
}
