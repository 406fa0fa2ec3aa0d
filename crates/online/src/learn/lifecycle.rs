//! Versioned model lifecycle: shadow-evaluate, promote or roll back.
//!
//! A fine-tuned candidate never serves directly. It must first pass a
//! **shadow evaluation** against the incumbent:
//!
//! 1. **Held-back validation** — the candidate's MSE on the buffer's
//!    validation slice (data no fine-tuning step ever saw) must not be
//!    worse than the incumbent's. A candidate that memorized poisoned or
//!    unrepresentative training samples fails here.
//! 2. **Train→search conformance** — the candidate must still *search
//!    well*: a NeuroShard run on a probe task must produce a
//!    memory-feasible plan whose estimated cost agrees with the exact
//!    ground-truth oracle within the workspace's conformance band
//!    (`max(est/exact, exact/est) ≤ band`). Low validation MSE with a
//!    broken cost surface (e.g. a collapsed head) fails here.
//!
//! Promotion is atomic from the caller's perspective: the versioned
//! checkpoint and the `active` checkpoint are written as checksum-framed
//! envelopes ([`write_checked`]) under `<dir>/models/`, and only then is
//! the bundle handed back for installation. A rejected candidate leaves
//! the active checkpoint **byte-identical** — the rollback guarantee —
//! while still being archived under a `rejected` name for post-mortems.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use nshard_core::{evaluate_plan_exact, NeuroShard, NeuroShardConfig};
use nshard_cost::CostModelBundle;
use nshard_data::ShardingTask;
use nshard_nn::serialize::{read_checked, write_checked, CheckpointError};
use nshard_sim::GpuSpec;

use super::buffer::LearnDatasets;

/// Allowed estimated-vs-exact disagreement on the probe search:
/// `max(est/exact, exact/est)` must stay at or below this. Mirrors the
/// train→search conformance band.
const CONFORMANCE_BAND: f64 = 1.5;

/// Slack on the validation-MSE gate: the candidate passes when
/// `candidate_mse ≤ incumbent_mse × MSE_TOLERANCE`.
const MSE_TOLERANCE: f32 = 1.05;

/// The producer tag written into checkpoint headers — the daemon's, so a
/// checkpoint reads the same whichever side wrote it.
const CREATED_BY: &str = "nshard-serve";

/// The recorded outcome of one promotion decision — serialized into the
/// golden fixtures, so field order and content must stay deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromotionRecord {
    /// Proposal ordinal (1-based, counts rejected proposals too).
    pub proposal: u64,
    /// Active model version **after** the decision.
    pub version: u64,
    /// `true` when the candidate was promoted.
    pub promoted: bool,
    /// Stable machine-readable reason label: `"promoted"`,
    /// `"validation_regression"`, `"infeasible"` or `"conformance"`.
    pub reason: String,
    /// Candidate MSE on the held-back validation slice (NaN when the
    /// slice had no compute samples — the gate then passes vacuously).
    pub candidate_valid_mse: f32,
    /// Incumbent MSE on the same slice.
    pub incumbent_valid_mse: f32,
    /// Probe-search agreement `max(est/exact, exact/est)`; NaN when the
    /// probe search itself failed.
    pub conformance_ratio: f64,
    /// `true` when the probe search produced a memory-feasible plan.
    pub feasible: bool,
}

/// The versioned promote-or-rollback state machine over a directory of
/// checkpoints. Both gates use the fixed thresholds above and a
/// smoke-sized probe search.
pub struct ModelLifecycle {
    models: PathBuf,
    version: u64,
    proposals: u64,
    active_path: PathBuf,
}

/// Checkpoint name of the bundle currently serving.
pub(crate) const ACTIVE_NAME: &str = "cost-bundle-active";

impl ModelLifecycle {
    /// Opens the lifecycle over `dir` and persists `incumbent` as the
    /// version-1 active checkpoint, `<dir>/models/<name>.json`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory or a checkpoint cannot be
    /// written.
    pub fn open(
        dir: impl AsRef<Path>,
        incumbent: &CostModelBundle,
    ) -> Result<Self, CheckpointError> {
        let models = dir.as_ref().join("models");
        let lifecycle = Self {
            active_path: models.join(format!("{ACTIVE_NAME}.json")),
            models,
            version: 1,
            proposals: 0,
        };
        lifecycle.save("cost-bundle-v1", incumbent)?;
        lifecycle.save(ACTIVE_NAME, incumbent)?;
        Ok(lifecycle)
    }

    /// Writes `bundle` as the checkpoint `name`.
    fn save(&self, name: &str, bundle: &CostModelBundle) -> Result<(), CheckpointError> {
        let path = self.models.join(format!("{name}.json"));
        write_checked(&path, name, CREATED_BY, bundle)
    }

    /// The active model version (1 = the pre-trained incumbent).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Proposals evaluated so far (promoted or not).
    pub fn proposals(&self) -> u64 {
        self.proposals
    }

    /// Reloads the active checkpoint from disk.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the checkpoint is missing, corrupt or of an
    /// unsupported version.
    pub fn load_active(&self) -> Result<CostModelBundle, CheckpointError> {
        Ok(read_checked(&self.active_path)?.payload)
    }

    /// Shadow-evaluates `candidate` against `incumbent` and either
    /// promotes it (returning the bundle to install) or rolls back
    /// (returning `None`, active checkpoint untouched).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a checkpoint write fails. Evaluation
    /// failures are not errors — they are rejections, recorded in the
    /// [`PromotionRecord`].
    pub fn propose(
        &mut self,
        incumbent: &CostModelBundle,
        candidate: CostModelBundle,
        validation: &LearnDatasets,
        probe: &ShardingTask,
    ) -> Result<(PromotionRecord, Option<CostModelBundle>), CheckpointError> {
        self.proposals += 1;
        let proposal = self.proposals;

        // Gate 1: held-back validation MSE, candidate vs incumbent.
        let (candidate_mse, incumbent_mse) = if validation.compute.is_empty() {
            (f32::NAN, f32::NAN)
        } else {
            (
                candidate.compute_model().evaluate_mse(&validation.compute),
                incumbent.compute_model().evaluate_mse(&validation.compute),
            )
        };
        let mse_ok = candidate_mse.is_nan() || candidate_mse <= incumbent_mse * MSE_TOLERANCE;

        // Gate 2: the candidate must still search well — feasible probe
        // plan, estimate within the conformance band of the exact oracle.
        let (feasible, ratio) = self.probe_conformance(&candidate, probe);
        let conformance_ok = feasible && ratio <= CONFORMANCE_BAND;

        let reason = if !mse_ok {
            "validation_regression"
        } else if !feasible {
            "infeasible"
        } else if !conformance_ok {
            "conformance"
        } else {
            "promoted"
        };
        let promoted = reason == "promoted";

        let installed = if promoted {
            self.version += 1;
            self.save(&format!("cost-bundle-v{}", self.version), &candidate)?;
            self.save(ACTIVE_NAME, &candidate)?;
            Some(candidate)
        } else {
            // Archive for post-mortems; the active checkpoint stays
            // byte-identical.
            self.save(&format!("cost-bundle-rejected-p{proposal}"), &candidate)?;
            None
        };

        let record = PromotionRecord {
            proposal,
            version: self.version,
            promoted,
            reason: reason.to_string(),
            candidate_valid_mse: candidate_mse,
            incumbent_valid_mse: incumbent_mse,
            conformance_ratio: ratio,
            feasible,
        };
        Ok((record, installed))
    }

    /// Runs the probe search under `bundle` and compares its estimate to
    /// the exact oracle. Returns `(feasible, ratio)`; an infeasible or
    /// failed search yields `(false, NaN)`.
    fn probe_conformance(&self, bundle: &CostModelBundle, probe: &ShardingTask) -> (bool, f64) {
        // Smoke-sized: the probe is a conformance check, not a production
        // search.
        let Ok(sharder) = NeuroShard::try_new(bundle.clone(), NeuroShardConfig::smoke()) else {
            return (false, f64::NAN);
        };
        let Ok(outcome) = sharder.shard_with_stats(probe) else {
            return (false, f64::NAN);
        };
        let Ok(exact) = evaluate_plan_exact(probe, &outcome.plan, &GpuSpec::default()) else {
            return (false, f64::NAN);
        };
        let exact_ms = exact.max_total_ms();
        let est_ms = outcome.estimated_cost_ms;
        if exact_ms <= 0.0 || est_ms <= 0.0 || exact_ms.is_nan() || est_ms.is_nan() {
            return (true, f64::NAN);
        }
        (true, (est_ms / exact_ms).max(exact_ms / est_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::TablePool;

    fn setup(tag: &str) -> (CostModelBundle, ShardingTask, TempDir) {
        let pool = TablePool::synthetic_dlrm(64, 5);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            5,
        );
        let task = ShardingTask::sample(&pool, 2, 8..=12, 64, 5);
        (bundle, task, TempDir::new(tag))
    }

    /// Minimal self-removing temp dir (same idiom as the serve store
    /// tests — tag + pid keeps parallel test binaries apart).
    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("nshard_lifecycle_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create temp dir");
            Self(dir)
        }
        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn healthy_incumbent_copy_promotes() {
        let (bundle, task, dir) = setup("promote");
        let mut lifecycle = ModelLifecycle::open(dir.path(), &bundle).unwrap();
        let validation = crate::learn::ObservationBuffer::new(Default::default()).validation_data();
        let (record, installed) = lifecycle
            .propose(&bundle, bundle.clone(), &validation, &task)
            .unwrap();
        assert!(record.promoted, "reason: {}", record.reason);
        assert_eq!(record.version, 2);
        assert!(installed.is_some());
        assert_eq!(lifecycle.load_active().unwrap(), bundle);
    }

    #[test]
    fn checkpoints_are_framed_under_the_daemons_producer_tag() {
        let (bundle, _, dir) = setup("framed");
        let lifecycle = ModelLifecycle::open(dir.path(), &bundle).unwrap();
        let models = dir.path().join("models");
        for name in ["cost-bundle-v1", ACTIVE_NAME] {
            let path = models.join(format!("{name}.json"));
            let env = read_checked::<CostModelBundle>(&path).unwrap();
            assert_eq!(
                (env.name.as_str(), env.created_by.as_str()),
                (name, "nshard-serve")
            );
            assert_eq!(env.payload, bundle);
        }
        assert_eq!(
            lifecycle.active_path,
            models.join("cost-bundle-active.json")
        );
    }

    #[test]
    fn broken_candidate_rolls_back_with_active_bytes_untouched() {
        let (bundle, task, dir) = setup("rollback");
        let mut lifecycle = ModelLifecycle::open(dir.path(), &bundle).unwrap();
        let before = std::fs::read(&lifecycle.active_path).unwrap();
        // A freshly-initialized (untrained) compute model: predicts
        // garbage, so the probe search disagrees with the oracle far
        // beyond the band.
        let broken = CostModelBundle::from_parts(
            nshard_cost::ComputeCostModel::new(99),
            bundle.comm_fwd_model().clone(),
            bundle.comm_bwd_model().clone(),
            bundle.batch_size(),
            *bundle.report(),
        );
        let validation = crate::learn::ObservationBuffer::new(Default::default()).validation_data();
        let (record, installed) = lifecycle
            .propose(&bundle, broken, &validation, &task)
            .unwrap();
        assert!(!record.promoted);
        assert!(installed.is_none());
        assert_eq!(record.version, 1);
        let after = std::fs::read(&lifecycle.active_path).unwrap();
        assert_eq!(
            before, after,
            "rollback must leave the active checkpoint byte-identical"
        );
    }
}
