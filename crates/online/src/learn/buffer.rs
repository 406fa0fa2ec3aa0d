//! Ground-truth observation buffering with error-prioritized sampling.
//!
//! Every observation pairs a cost-model input with what the model
//! predicted and what the deployment actually measured. The buffer cannot
//! keep everything — a serving tier produces observations far faster than
//! fine-tuning can consume them — so it keeps a bounded **weighted
//! reservoir** biased toward the samples the current models get most
//! wrong: the keep-probability of a sample scales with its absolute
//! prediction error (the A-Res scheme of Efraimidis & Spirakis, key
//! `u^(1/w)`), so a drifted regime floods the reservoir precisely because
//! the stale models mispredict it.
//!
//! A deterministic slice of the stream (1 in [`BufferConfig::validation_stride`],
//! routed by a seeded hash of the insert index, sampled **uniformly**) is
//! held back from training entirely — the shadow-evaluation set the model
//! lifecycle scores candidates against. Routing by insert index (not by
//! content or error) keeps the validation slice unbiased by the very
//! models it judges.
//!
//! # Determinism
//!
//! Eviction is a pure function of `(seed, insert sequence)`: every random
//! decision derives from a splitmix64 hash of the seed and the
//! observation's insert index, and ties in the eviction scan break on the
//! insert index. No thread count, clock or iteration-order effect can
//! change the retained set — the property the `learn_loop` proptest pins
//! across `NSHARD_THREADS` settings.

use serde::{Deserialize, Serialize};

use nshard_cost::{comm_feature_dim, ComputeDataset, ComputeSample, TABLE_FEATURE_DIM};
use nshard_nn::{Dataset, Matrix};
use nshard_pool::splitmix64;

/// Which cost model an observation feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationKind {
    /// Per-device fused-kernel computation cost (DeepSets model input:
    /// one feature row per table on the device).
    Compute,
    /// Forward all-to-all cost (one flat comm feature row).
    CommForward,
    /// Backward all-to-all cost (one flat comm feature row).
    CommBackward,
}

impl ObservationKind {
    /// The wire label used by `POST /v1/observations`.
    pub fn label(self) -> &'static str {
        match self {
            ObservationKind::Compute => "compute",
            ObservationKind::CommForward => "comm_forward",
            ObservationKind::CommBackward => "comm_backward",
        }
    }

    /// Parses a wire label; `None` for unknown kinds (ignored, so old
    /// daemons interoperate with newer reporters).
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        match label {
            "compute" => Some(ObservationKind::Compute),
            "comm_forward" => Some(ObservationKind::CommForward),
            "comm_backward" => Some(ObservationKind::CommBackward),
            _ => None,
        }
    }
}

/// One ground-truth cost observation reported by a deployment —
/// `(model input features, predicted cost, observed cost)` for exactly
/// one of the three cost models. The serve daemon counts the readable
/// ones it is sent (`POST /v1/observations`) and keeps none, the continual
/// learner ingests them, and the [`ObservationBuffer`] retains them as
/// they arrived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationWire {
    /// Which cost model the sample feeds: an [`ObservationKind`] label,
    /// `"compute"`, `"comm_forward"` or `"comm_backward"`.
    pub kind: String,
    /// Model input rows: per-table feature rows for `"compute"`, a single
    /// wrapped feature row for the comm kinds.
    pub features: Vec<Vec<f32>>,
    /// What the currently-served model predicted, ms.
    pub predicted_ms: f64,
    /// What the deployment actually measured, ms.
    pub observed_ms: f64,
}

impl ObservationWire {
    /// Whether cost models for `devices` devices can train on this
    /// observation: a known kind, finite values, and
    /// [`TABLE_FEATURE_DIM`]-wide table rows for compute or one
    /// [`comm_feature_dim`]-wide row for comm. The continual learner
    /// buffers, and the serve daemon stages, nothing else: any other row
    /// would panic the next fine-tune.
    pub fn is_readable(&self, devices: usize) -> bool {
        let width = match ObservationKind::from_label(&self.kind) {
            Some(ObservationKind::Compute) => TABLE_FEATURE_DIM,
            Some(_) if self.features.len() == 1 => comm_feature_dim(devices),
            _ => return false,
        };
        !self.features.is_empty()
            && self.features.iter().all(|row| row.len() == width)
            && self.features.iter().flatten().all(|v| v.is_finite())
            && self.predicted_ms.is_finite()
            && self.observed_ms.is_finite()
    }

    /// The sampling weight: absolute prediction error, floored so
    /// perfectly-predicted samples still have a nonzero keep chance.
    pub fn weight(&self) -> f64 {
        (self.predicted_ms - self.observed_ms).abs().max(1e-6)
    }
}

/// Buffer sizing and routing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Training-reservoir capacity (error-weighted retention).
    pub capacity: usize,
    /// Held-back validation-reservoir capacity (uniform retention).
    pub validation_capacity: usize,
    /// One in this many observations routes to the validation slice.
    pub validation_stride: u64,
    /// Seed for every sampling decision.
    pub seed: u64,
}

impl Default for BufferConfig {
    fn default() -> Self {
        Self {
            capacity: 2_048,
            validation_capacity: 256,
            validation_stride: 8,
            seed: 0,
        }
    }
}

/// Uniform `[0, 1)` from a hash (53-bit mantissa path).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Salt separating validation routing from reservoir-key derivation.
const VALIDATION_SALT: u64 = 0x5eed_feed_dead_beef;

/// A retained observation with its reservoir key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Entry {
    /// A-Res key `u^(1/w)`; larger keys survive eviction.
    key: f64,
    /// Global insert index — the deterministic tie-breaker and the
    /// dataset-ordering key.
    index: u64,
    observation: ObservationWire,
}

/// The bounded, seeded, error-prioritized observation buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationBuffer {
    config: BufferConfig,
    inserted: u64,
    train: Vec<Entry>,
    validation: Vec<Entry>,
}

/// Per-model training (or validation) datasets drained from the buffer.
/// Comm datasets are `None` when no observation of that kind survived —
/// the fine-tuner then leaves that model untouched.
#[derive(Debug, Clone)]
pub struct LearnDatasets {
    /// Per-device computation samples.
    pub compute: ComputeDataset,
    /// Forward all-to-all regression rows.
    pub comm_fwd: Option<Dataset>,
    /// Backward all-to-all regression rows.
    pub comm_bwd: Option<Dataset>,
}

impl LearnDatasets {
    /// Total samples across all three datasets.
    pub fn len(&self) -> usize {
        let comm = |d: &Option<Dataset>| d.as_ref().map_or(0, Dataset::len);
        self.compute.len() + comm(&self.comm_fwd) + comm(&self.comm_bwd)
    }

    /// `true` when no model has any data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObservationBuffer {
    /// An empty buffer.
    pub fn new(config: BufferConfig) -> Self {
        Self {
            config,
            inserted: 0,
            train: Vec::with_capacity(config.capacity.min(4_096)),
            validation: Vec::with_capacity(config.validation_capacity.min(4_096)),
        }
    }

    /// Observations currently retained for training.
    pub fn len(&self) -> usize {
        self.train.len()
    }

    /// `true` when the training reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty()
    }

    /// Observations retained in the held-back validation slice.
    pub fn validation_len(&self) -> usize {
        self.validation.len()
    }

    /// Total observations ever offered to the buffer.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Offers one observation. Routing (train vs validation) and
    /// retention depend only on `(seed, insert index, weight)`.
    pub fn insert(&mut self, observation: ObservationWire) {
        let index = self.inserted;
        self.inserted += 1;
        let stride = self.config.validation_stride.max(1);
        let to_validation = splitmix64(self.config.seed ^ VALIDATION_SALT ^ splitmix64(index))
            .is_multiple_of(stride);
        if to_validation {
            // Uniform retention: weight 1 for every sample, so the slice
            // estimates the true observation distribution.
            let key = unit(splitmix64(
                self.config.seed ^ splitmix64(index ^ 0x0bad_cafe),
            ));
            Self::reservoir_insert(
                &mut self.validation,
                self.config.validation_capacity,
                Entry {
                    key,
                    index,
                    observation,
                },
            );
        } else {
            // Error-weighted retention: key = u^(1/w) (A-Res), so high
            // |predicted − observed| samples dominate under pressure.
            let u = unit(splitmix64(self.config.seed ^ splitmix64(index)));
            let key = u.powf(1.0 / observation.weight());
            Self::reservoir_insert(
                &mut self.train,
                self.config.capacity,
                Entry {
                    key,
                    index,
                    observation,
                },
            );
        }
    }

    /// Keeps the top-`capacity` entries by `(key, index)`: scan for the
    /// minimum and replace it when the newcomer's key is larger. O(cap)
    /// per insert — capacities here are thousands, and the scan's
    /// determinism (index tie-break) is worth more than a heap.
    fn reservoir_insert(entries: &mut Vec<Entry>, capacity: usize, entry: Entry) {
        if capacity == 0 {
            return;
        }
        if entries.len() < capacity {
            entries.push(entry);
            return;
        }
        let mut min = 0usize;
        for i in 1..entries.len() {
            let a = (entries[i].key, entries[i].index);
            let b = (entries[min].key, entries[min].index);
            if a < b {
                min = i;
            }
        }
        if (entry.key, entry.index) > (entries[min].key, entries[min].index) {
            entries[min] = entry;
        }
    }

    /// The retained training observations in insert order.
    pub fn training_observations(&self) -> Vec<&ObservationWire> {
        Self::ordered(&self.train)
    }

    fn ordered(entries: &[Entry]) -> Vec<&ObservationWire> {
        let mut refs: Vec<&Entry> = entries.iter().collect();
        refs.sort_by_key(|e| e.index);
        refs.into_iter().map(|e| &e.observation).collect()
    }

    /// Builds per-model training datasets from the retained samples.
    pub fn training_data(&self) -> LearnDatasets {
        Self::datasets(&Self::ordered(&self.train))
    }

    /// Builds per-model validation datasets from the held-back slice.
    pub fn validation_data(&self) -> LearnDatasets {
        Self::datasets(&Self::ordered(&self.validation))
    }

    fn datasets(observations: &[&ObservationWire]) -> LearnDatasets {
        let mut compute = ComputeDataset::default();
        let mut fwd_rows: Vec<Vec<f32>> = Vec::new();
        let mut fwd_y: Vec<f32> = Vec::new();
        let mut bwd_rows: Vec<Vec<f32>> = Vec::new();
        let mut bwd_y: Vec<f32> = Vec::new();
        for obs in observations {
            match ObservationKind::from_label(&obs.kind) {
                None => {}
                Some(ObservationKind::Compute) => compute.samples.push(ComputeSample {
                    tables: obs.features.clone(),
                    cost_ms: obs.observed_ms as f32,
                }),
                Some(ObservationKind::CommForward) => {
                    if let Some(row) = obs.features.first() {
                        fwd_rows.push(row.clone());
                        fwd_y.push(obs.observed_ms as f32);
                    }
                }
                Some(ObservationKind::CommBackward) => {
                    if let Some(row) = obs.features.first() {
                        bwd_rows.push(row.clone());
                        bwd_y.push(obs.observed_ms as f32);
                    }
                }
            }
        }
        let to_dataset = |rows: Vec<Vec<f32>>, y: Vec<f32>| {
            if rows.is_empty() {
                return None;
            }
            let x = Matrix::from_rows(rows);
            let y = Matrix::from_rows(y.into_iter().map(|v| vec![v]));
            Dataset::new(x, y)
        };
        LearnDatasets {
            compute,
            comm_fwd: to_dataset(fwd_rows, fwd_y),
            comm_bwd: to_dataset(bwd_rows, bwd_y),
        }
    }

    /// Canonical byte serialization — the artifact the cross-thread-count
    /// byte-identity tests compare.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self).unwrap_or_default().into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(kind: ObservationKind, v: f32, predicted: f64, observed: f64) -> ObservationWire {
        ObservationWire {
            kind: kind.label().into(),
            features: vec![vec![v; 4]],
            predicted_ms: predicted,
            observed_ms: observed,
        }
    }

    #[test]
    fn buffer_is_a_pure_function_of_seed_and_sequence() {
        let config = BufferConfig {
            capacity: 16,
            validation_capacity: 8,
            ..BufferConfig::default()
        };
        let mut a = ObservationBuffer::new(config);
        let mut b = ObservationBuffer::new(config);
        for i in 0..500u32 {
            let o = obs(
                ObservationKind::Compute,
                i as f32,
                f64::from(i),
                f64::from(i) * 1.1,
            );
            a.insert(o.clone());
            b.insert(o);
        }
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.len(), 16);
        assert!(a.validation_len() <= 8);
    }

    #[test]
    fn high_error_samples_dominate_the_reservoir() {
        let mut buffer = ObservationBuffer::new(BufferConfig {
            capacity: 32,
            validation_capacity: 0,
            validation_stride: u64::MAX, // everything trains
            seed: 7,
        });
        // 500 well-predicted samples and 50 badly-mispredicted ones.
        for i in 0..500u32 {
            buffer.insert(obs(ObservationKind::Compute, i as f32, 10.0, 10.001));
        }
        for i in 0..50u32 {
            buffer.insert(obs(ObservationKind::Compute, i as f32, 10.0, 30.0));
        }
        let kept_bad = buffer
            .training_observations()
            .iter()
            .filter(|o| o.observed_ms > 20.0)
            .count();
        assert!(
            kept_bad > buffer.len() * 3 / 4,
            "only {kept_bad}/{} retained samples are high-error",
            buffer.len()
        );
    }

    #[test]
    fn validation_slice_is_disjoint_and_uniform() {
        let mut buffer = ObservationBuffer::new(BufferConfig {
            capacity: 64,
            validation_capacity: 64,
            validation_stride: 4,
            seed: 3,
        });
        for i in 0..400u32 {
            buffer.insert(obs(ObservationKind::Compute, i as f32, 1.0, 2.0));
        }
        // Roughly 1/4 routed to validation (uniform hash routing).
        let routed = buffer.validation_len();
        assert!(
            (40..=64).contains(&routed),
            "validation got {routed} of 400 at stride 4"
        );
        assert_eq!(buffer.len(), 64);
    }

    #[test]
    fn datasets_split_by_kind() {
        let mut buffer = ObservationBuffer::new(BufferConfig {
            validation_stride: u64::MAX,
            ..BufferConfig::default()
        });
        buffer.insert(obs(ObservationKind::Compute, 1.0, 1.0, 2.0));
        buffer.insert(obs(ObservationKind::CommForward, 2.0, 1.0, 2.0));
        buffer.insert(obs(ObservationKind::CommBackward, 3.0, 1.0, 2.0));
        buffer.insert(obs(ObservationKind::CommForward, 4.0, 1.0, 2.0));
        let data = buffer.training_data();
        assert_eq!(data.compute.len(), 1);
        assert_eq!(data.comm_fwd.as_ref().map(Dataset::len), Some(2));
        assert_eq!(data.comm_bwd.as_ref().map(Dataset::len), Some(1));
        assert_eq!(data.len(), 4);
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in [
            ObservationKind::Compute,
            ObservationKind::CommForward,
            ObservationKind::CommBackward,
        ] {
            assert_eq!(ObservationKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ObservationKind::from_label("nope"), None);
    }
}
