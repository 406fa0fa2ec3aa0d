//! The closed continual-learning loop: observe → buffer → fine-tune →
//! shadow-evaluate → promote or keep the incumbent.
//!
//! An epoch loop (`repro ext_online` runs one) hands the
//! [`ContinualLearner`] every finished epoch as an [`EpochObservation`]:
//! the learner converts the loop's `(estimated, ground-truth)` pair into
//! per-model observations and, when the epoch drifted (and enough
//! observations accumulated and the cooldown elapsed), fine-tunes the
//! incumbent, shadow-evaluates the candidate ([`ContinualLearner::propose`])
//! and — only on promotion — hands the loop the bundle to plan with.
//!
//! A candidate never serves directly. It must first pass two gates
//! against the incumbent:
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
//! The decision is made in memory and recorded as a [`PromotionRecord`];
//! a rejected candidate is dropped and the incumbent keeps serving. The
//! learner writes no file, and nothing swaps a model into a running serve
//! daemon: a promoted bundle serves by booting a daemon with it.
//!
//! The same learner also ingests observations in their wire form
//! ([`ObservationWire`], the body of the daemon's `POST
//! /v1/observations`), so one loop can learn from both the epoch
//! simulator and recorded reports. Both roads end in one check: a row the
//! incumbent's models cannot read is skipped, never buffered.

use serde::{Deserialize, Serialize};

use nshard_core::{evaluate_plan_exact, NeuroShard, NeuroShardConfig, ShardingPlan};
use nshard_cost::{comm_features, table_features, CostModelBundle, EstimatedCost};
use nshard_data::ShardingTask;
use nshard_pool::splitmix64;
use nshard_sim::{DeviceCost, GpuSpec, PlanCosts};

use super::buffer::{BufferConfig, ObservationBuffer, ObservationKind, ObservationWire};
use super::finetune::{fine_tune, FineTuneSettings};

/// Allowed estimated-vs-exact disagreement on the probe search:
/// `max(est/exact, exact/est)` must stay at or below this. Mirrors the
/// train→search conformance band.
const CONFORMANCE_BAND: f64 = 1.5;

/// Slack on the validation-MSE gate: the candidate passes when
/// `candidate_mse ≤ incumbent_mse × MSE_TOLERANCE`.
const MSE_TOLERANCE: f32 = 1.05;

/// The recorded outcome of one promotion decision — serialized into the
/// golden fixtures, so field order and content must stay deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromotionRecord {
    /// Proposal ordinal (1-based, counts rejected proposals too).
    pub proposal: u64,
    /// Serving model version **after** the decision (1 = the incumbent
    /// the learner was built with).
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

/// Everything one epoch of an online loop observed about the deployed
/// plan, handed to [`ContinualLearner::on_epoch`] once the epoch is over.
///
/// `estimated` and `ground_truth` describe the **same** deployment priced
/// two ways — by the neural cost models and by the cluster-simulator
/// oracle — which is exactly the `(predicted, observed)` pairing the
/// observation buffer accumulates.
#[derive(Debug)]
pub struct EpochObservation<'a> {
    /// The epoch index (0 = initial deployment).
    pub epoch: u64,
    /// The epoch's drifted task.
    pub task: &'a ShardingTask,
    /// The deployed plan, placed onto `task`.
    pub plan: &'a ShardingPlan,
    /// The cost models' estimate of the deployed plan.
    pub estimated: &'a EstimatedCost,
    /// The oracle's per-device cost breakdown, `None` when the plan is
    /// memory-infeasible for the epoch's task.
    pub ground_truth: Option<&'a PlanCosts>,
    /// Whether the loop's drift trigger fired this epoch.
    pub drifted: bool,
}

/// Knobs of the continual-learning loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinualConfig {
    /// Observation-buffer sizing and sampling seed.
    pub buffer: BufferConfig,
    /// Fine-tuning hyperparameters.
    pub settings: FineTuneSettings,
    /// Fine-tuning is only attempted once the training reservoir holds
    /// at least this many observations.
    pub min_observations: usize,
    /// Epochs that must pass between fine-tuning attempts — one drifted
    /// epoch must not trigger a thrashing retrain storm.
    pub cooldown_epochs: u64,
    /// Seed mixed into every fine-tuning run.
    pub seed: u64,
}

impl Default for ContinualConfig {
    fn default() -> Self {
        Self {
            buffer: BufferConfig::default(),
            settings: FineTuneSettings::default(),
            min_observations: 64,
            cooldown_epochs: 5,
            seed: 0,
        }
    }
}

impl ContinualConfig {
    /// A reduced configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Self {
            settings: FineTuneSettings::smoke(),
            min_observations: 16,
            cooldown_epochs: 2,
            ..Self::default()
        }
    }
}

/// The closed-loop learner: buffers ground truth, fine-tunes on drift,
/// and records every promotion decision.
pub struct ContinualLearner {
    config: ContinualConfig,
    buffer: ObservationBuffer,
    incumbent: CostModelBundle,
    last_attempt_epoch: Option<u64>,
    records: Vec<PromotionRecord>,
}

impl ContinualLearner {
    /// Builds the learner around the serving incumbent, model version 1.
    pub fn new(incumbent: CostModelBundle, config: ContinualConfig) -> Self {
        Self {
            buffer: ObservationBuffer::new(config.buffer),
            config,
            incumbent,
            last_attempt_epoch: None,
            records: Vec::new(),
        }
    }

    /// The observation buffer.
    pub fn buffer(&self) -> &ObservationBuffer {
        &self.buffer
    }

    /// The bundle the learner currently considers incumbent.
    pub fn incumbent(&self) -> &CostModelBundle {
        &self.incumbent
    }

    /// Every promotion decision so far, in order.
    pub fn records(&self) -> &[PromotionRecord] {
        &self.records
    }

    /// Ingests observations in their wire form (the rows of a `POST
    /// /v1/observations` body). A row
    /// the incumbent's models cannot read — an unknown kind, no features,
    /// a non-finite value, or rows of the wrong width — is skipped, not
    /// an error.
    pub fn ingest_wire(&mut self, wires: &[ObservationWire]) {
        for wire in wires {
            self.offer(wire.clone());
        }
    }

    /// The one way into the buffer: an observation enters only if the
    /// incumbent can train on it ([`ObservationWire::is_readable`]).
    fn offer(&mut self, observation: ObservationWire) {
        if observation.is_readable(self.incumbent.num_devices()) {
            self.buffer.insert(observation);
        }
    }

    /// Converts one loop epoch into observations: a per-device
    /// compute sample plus one forward and one backward comm sample,
    /// each pairing the models' prediction with the simulated ground
    /// truth. Epochs without ground truth contribute nothing.
    ///
    /// Every sample is in the models' own units, so replaying its features
    /// through the incumbent gives back its prediction: compute times are
    /// divided by the device's compute class (the models price baseline
    /// hardware and `estimate_for_task` multiplies the class in), comm
    /// rows carry the fleet's lowered dimensions.
    fn ingest_epoch(&mut self, observation: &EpochObservation<'_>) {
        let Some(truth) = observation.ground_truth else {
            return;
        };
        let batch = observation.task.batch_size();
        let fleet = observation.task.devices();
        let devices = truth.devices();
        let assignment = observation.plan.device_profiles(batch);
        for (d, tables) in assignment.iter().enumerate() {
            if tables.is_empty() {
                continue;
            }
            let Some(cost) = devices.get(d) else { continue };
            let features: Vec<Vec<f32>> = tables.iter().map(|t| table_features(t, batch)).collect();
            let predicted = observation
                .estimated
                .compute_per_device
                .get(d)
                .copied()
                .unwrap_or_default();
            let class = fleet.compute_scales()[d];
            self.offer(ObservationWire {
                kind: ObservationKind::Compute.label().into(),
                features,
                predicted_ms: predicted / class,
                observed_ms: cost.compute_ms() / class,
            });
        }
        // Comm observations: rebuild exactly the feature rows the
        // simulator fed the comm models (same lowered dims, same start
        // offsets), labeled with the observed max across devices — the
        // quantity the models are trained to predict.
        let dims = fleet.lowered_dims(&assignment);
        let fwd_starts = observation.estimated.fwd_comm_starts();
        let max_fwd = devices
            .iter()
            .map(|c: &DeviceCost| c.comm_fwd_ms)
            .fold(0.0f64, f64::max);
        self.offer(ObservationWire {
            kind: ObservationKind::CommForward.label().into(),
            features: vec![comm_features(&dims, &fwd_starts, batch)],
            predicted_ms: observation.estimated.fwd_comm_ms,
            observed_ms: max_fwd,
        });
        let bwd_starts = vec![0.0; dims.len()];
        let max_bwd = devices
            .iter()
            .map(|c: &DeviceCost| c.comm_bwd_ms)
            .fold(0.0f64, f64::max);
        self.offer(ObservationWire {
            kind: ObservationKind::CommBackward.label().into(),
            features: vec![comm_features(&dims, &bwd_starts, batch)],
            predicted_ms: observation.estimated.bwd_comm_ms,
            observed_ms: max_bwd,
        });
    }

    fn cooldown_elapsed(&self, epoch: u64) -> bool {
        match self.last_attempt_epoch {
            None => true,
            Some(last) => epoch.saturating_sub(last) >= self.config.cooldown_epochs.max(1),
        }
    }

    /// Shadow-evaluates `candidate` against the incumbent on the buffer's
    /// held-back validation slice and a probe search over `probe`, and
    /// records the decision. On promotion the candidate becomes the
    /// incumbent and is returned for installation; a rejected candidate
    /// is dropped and the incumbent keeps serving.
    pub fn propose(
        &mut self,
        candidate: CostModelBundle,
        probe: &ShardingTask,
    ) -> Option<CostModelBundle> {
        let record = self.shadow_evaluate(&candidate, probe);
        let promoted = record.promoted;
        self.records.push(record);
        promoted.then(|| {
            self.incumbent = candidate.clone();
            candidate
        })
    }

    /// Both gates, each with its fixed threshold above: the validation
    /// MSE against the incumbent's, then a smoke-sized probe search whose
    /// plan must be memory-feasible and whose estimate must agree with
    /// the exact oracle inside the conformance band. Evaluation failures
    /// are rejections, not errors.
    fn shadow_evaluate(
        &self,
        candidate: &CostModelBundle,
        probe: &ShardingTask,
    ) -> PromotionRecord {
        let validation = self.buffer.validation_data();
        let (candidate_mse, incumbent_mse) = if validation.compute.is_empty() {
            (f32::NAN, f32::NAN)
        } else {
            (
                candidate.compute_model().evaluate_mse(&validation.compute),
                self.incumbent
                    .compute_model()
                    .evaluate_mse(&validation.compute),
            )
        };
        let mse_ok = candidate_mse.is_nan() || candidate_mse <= incumbent_mse * MSE_TOLERANCE;

        // `(estimated, exact)` ms of the probe plan; `None` when the search
        // or the exact evaluation failed.
        let probed = NeuroShard::new(candidate.clone(), NeuroShardConfig::smoke())
            .shard_with_stats(probe)
            .ok()
            .and_then(|outcome| {
                let exact = evaluate_plan_exact(probe, &outcome.plan, &GpuSpec::default()).ok()?;
                Some((outcome.estimated_cost_ms, exact.max_total_ms()))
            });
        let (feasible, ratio) = match probed {
            None => (false, f64::NAN),
            Some((est, exact)) if exact <= 0.0 || est <= 0.0 || exact.is_nan() || est.is_nan() => {
                (true, f64::NAN)
            }
            Some((est, exact)) => (true, (est / exact).max(exact / est)),
        };

        let reason = if !mse_ok {
            "validation_regression"
        } else if !feasible {
            "infeasible"
        } else if ratio > CONFORMANCE_BAND || ratio.is_nan() {
            "conformance"
        } else {
            "promoted"
        };
        let promoted = reason == "promoted";
        let version = self.records.last().map_or(1, |r| r.version);
        PromotionRecord {
            proposal: self.records.len() as u64 + 1,
            version: version + u64::from(promoted),
            promoted,
            reason: reason.to_string(),
            candidate_valid_mse: candidate_mse,
            incumbent_valid_mse: incumbent_mse,
            conformance_ratio: ratio,
            feasible,
        }
    }

    /// Observes one finished epoch of an online loop; fine-tunes when it
    /// drifted, enough observations accumulated and the cooldown elapsed,
    /// and proposes the candidate with the epoch's task as the probe.
    /// Returns the promoted bundle the loop must plan with from the next
    /// epoch on.
    pub fn on_epoch(&mut self, observation: &EpochObservation<'_>) -> Option<CostModelBundle> {
        self.ingest_epoch(observation);
        let epoch = observation.epoch;
        let should_try = observation.drifted
            && self.buffer.len() >= self.config.min_observations
            && self.cooldown_elapsed(epoch);
        if !should_try {
            return None;
        }
        self.last_attempt_epoch = Some(epoch);
        let candidate = fine_tune(
            &self.incumbent,
            &self.buffer.training_data(),
            &self.buffer.validation_data(),
            &self.config.settings,
            self.config.seed ^ splitmix64(epoch),
        )?;
        self.propose(candidate, observation.task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanningStack, WorkloadDrift};
    use nshard_core::{estimate_for_task, evaluate_plan, IncrementalConfig, NeuroShardConfig};
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::TablePool;
    use nshard_sim::GpuSpec;

    /// Hands `learner` epochs `0..epochs` of `drift`, each planned from
    /// scratch with `bundle` and measured on its task, every one drifted.
    fn drive(
        learner: &mut ContinualLearner,
        bundle: &CostModelBundle,
        drift: &WorkloadDrift,
        epochs: u64,
    ) {
        let stack = PlanningStack::new(
            bundle.clone(),
            NeuroShardConfig::smoke(),
            IncrementalConfig::default(),
        );
        for epoch in 0..epochs {
            let task = drift.task_at(epoch);
            let plan = stack
                .plan(&task, false)
                .expect("the trace is plannable")
                .plan;
            let estimated = estimate_for_task(stack.simulator(), &task, &plan).unwrap();
            let truth = evaluate_plan(&task, &plan, &GpuSpec::default(), epoch).ok();
            learner.on_epoch(&EpochObservation {
                epoch,
                task: &task,
                plan: &plan,
                estimated: &estimated,
                ground_truth: truth.as_ref(),
                drifted: true,
            });
        }
    }

    #[test]
    fn learning_run_buffers_observations_and_stays_deterministic() {
        let pool = TablePool::synthetic_dlrm(64, 21);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            21,
        );
        let base = ShardingTask::sample(&pool, 2, 8..=12, 64, 21);
        let run = || {
            let drift = WorkloadDrift::standard(base.clone(), 3);
            let mut learner = ContinualLearner::new(bundle.clone(), ContinualConfig::smoke());
            drive(&mut learner, &bundle, &drift, 6);
            learner.buffer.to_bytes()
        };
        let bytes_a = run();
        let bytes_b = run();
        assert_eq!(
            bytes_a, bytes_b,
            "the learning run's observation stream must be bit-deterministic"
        );
        assert!(!bytes_a.is_empty());
    }

    /// An observation is a training row for the model that made its
    /// prediction: on a two-tier, mixed-class fleet too, the incumbent
    /// answers a buffered row with the prediction stored beside it — comm
    /// rows bit for bit, compute rows to the last place of an f32 sum.
    #[test]
    fn buffered_rows_replay_to_their_predictions_on_a_two_tier_fleet() {
        use nshard_data::DevicePool;
        use nshard_nn::{Dataset, Matrix};

        let pool = TablePool::synthetic_dlrm(64, 21);
        let bundle = CostModelBundle::pretrain(
            &pool,
            4,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            21,
        );
        let budget = nshard_sim::DEFAULT_MEM_BYTES;
        let fleet = DevicePool::two_tier(3, budget, 1, budget, 1.5, 0.25);
        let base = ShardingTask::sample(&pool, 4, 10..=14, 64, 21).with_devices(fleet);
        let config = ContinualConfig {
            buffer: BufferConfig {
                validation_stride: u64::MAX,
                ..BufferConfig::default()
            },
            // Never fine-tune: every row is the first incumbent's.
            min_observations: usize::MAX,
            ..ContinualConfig::smoke()
        };
        let mut learner = ContinualLearner::new(bundle.clone(), config);
        drive(&mut learner, &bundle, &WorkloadDrift::standard(base, 3), 5);

        let rows = learner.buffer().training_observations();
        assert!(rows.len() >= 5 * 3, "one comm pair and a device per epoch");
        for obs in rows {
            let comm = |model: &nshard_cost::CommCostModel| {
                // The squared f32 error against the stored prediction is
                // zero only if the model answers the row with those bits
                // (a prediction clamped at zero has nothing to compare).
                let x = Matrix::from_rows(obs.features.clone());
                let y = Matrix::from_rows([vec![obs.predicted_ms as f32]]);
                obs.predicted_ms == 0.0 || model.evaluate_mse(&Dataset::new(x, y).unwrap()) == 0.0
            };
            let kind = ObservationKind::from_label(&obs.kind).expect("buffered kinds are known");
            let replayed = match kind {
                // A device's prediction comes out of the simulator's cache,
                // pooled in the order its first asker (the search) placed
                // the tables; the row lists them in table order, so the
                // f32 sum may round differently in its last place.
                ObservationKind::Compute => {
                    let replay = bundle.compute_model().predict_batch(&[&obs.features])[0];
                    (replay - obs.predicted_ms).abs() <= 1e-6 * replay.abs()
                }
                ObservationKind::CommForward => comm(bundle.comm_fwd_model()),
                ObservationKind::CommBackward => comm(bundle.comm_bwd_model()),
            };
            assert!(
                replayed,
                "{kind:?} row does not replay to its prediction {}",
                obs.predicted_ms
            );
        }
    }

    #[test]
    fn wire_ingest_skips_unknown_kinds() {
        let pool = TablePool::synthetic_dlrm(32, 2);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            2,
        );
        let mut learner = ContinualLearner::new(bundle, ContinualConfig::smoke());
        learner.ingest_wire(&[
            ObservationWire {
                kind: "compute".into(),
                features: vec![vec![1.0; 8]],
                predicted_ms: 1.0,
                observed_ms: 2.0,
            },
            ObservationWire {
                kind: "mystery".into(),
                features: vec![vec![1.0; 8]],
                predicted_ms: 1.0,
                observed_ms: 2.0,
            },
            ObservationWire {
                kind: "comm_forward".into(),
                features: vec![],
                predicted_ms: 1.0,
                observed_ms: 2.0,
            },
        ]);
        assert_eq!(learner.buffer().inserted(), 1);
    }

    /// A row the incumbent cannot read is skipped at the door. Buffered,
    /// 64 of them made the next fine-tune panic: a 3-wide or empty
    /// compute row in the DeepSets encoder's row copy, a 3-wide comm row
    /// in the comm trainer's width check.
    #[test]
    fn malformed_wire_rows_are_skipped_before_they_reach_the_fine_tuner() {
        let pool = TablePool::synthetic_dlrm(32, 2);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            2,
        );
        let row = |kind: &str, features: Vec<Vec<f32>>, observed_ms: f64| ObservationWire {
            kind: kind.into(),
            features,
            predicted_ms: 1.0,
            observed_ms,
        };
        // A 2-GPU bundle reads 8-wide compute rows and one 7-wide comm row.
        let cases = [
            row("compute", vec![vec![1.0; 3]], 2.0),
            row("comm_forward", vec![vec![1.0; 3]], 2.0),
            row("compute", vec![vec![]], 2.0),
            row("comm_backward", vec![vec![1.0; 7]; 2], 2.0),
            row("compute", vec![vec![f32::NAN; 8]], 2.0),
            row("comm_forward", vec![vec![1.0; 7]], f64::INFINITY),
        ];
        for (i, case) in cases.into_iter().enumerate() {
            let mut learner = ContinualLearner::new(bundle.clone(), ContinualConfig::smoke());
            learner.ingest_wire(&vec![case; 64]);
            let buffer = learner.buffer();
            let (train, valid) = (buffer.training_data(), buffer.validation_data());
            let settings = FineTuneSettings::smoke();
            assert!(
                fine_tune(&bundle, &train, &valid, &settings, 1).is_none(),
                "case {i}"
            );
            assert_eq!(buffer.inserted(), 0, "case {i} was buffered");
        }
    }

    /// A smoke incumbent and a probe task for the shadow gates.
    fn gate_setup() -> (CostModelBundle, ShardingTask) {
        let pool = TablePool::synthetic_dlrm(64, 5);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            5,
        );
        (bundle, ShardingTask::sample(&pool, 2, 8..=12, 64, 5))
    }

    #[test]
    fn healthy_incumbent_copy_promotes() {
        let (bundle, task) = gate_setup();
        let mut learner = ContinualLearner::new(bundle.clone(), ContinualConfig::smoke());
        let installed = learner.propose(bundle.clone(), &task);
        let record = &learner.records()[0];
        assert!(record.promoted, "reason: {}", record.reason);
        assert_eq!((record.proposal, record.version), (1, 2));
        assert_eq!(installed.as_ref(), Some(&bundle));
        assert_eq!(learner.incumbent(), &bundle);
    }

    #[test]
    fn a_rejected_candidate_leaves_the_incumbent_serving() {
        let (bundle, task) = gate_setup();
        let before = serde_json::to_string(&bundle).unwrap();
        let mut learner = ContinualLearner::new(bundle.clone(), ContinualConfig::smoke());
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
        assert!(learner.propose(broken, &task).is_none());
        let record = &learner.records()[0];
        assert!(!record.promoted);
        assert_eq!(record.version, 1);
        assert!(
            serde_json::to_string(learner.incumbent()).unwrap() == before,
            "a rejected candidate must leave the incumbent serving, bit for bit"
        );
    }
}
