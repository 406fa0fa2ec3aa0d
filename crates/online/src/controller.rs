//! The online re-sharding loop: see [`OnlineController`].

use serde::{Deserialize, Serialize};

use nshard_core::{
    estimate_for_task, evaluate_plan, replan_migration_bytes, IncrementalConfig, NeuroShardConfig,
    PlanProvenance, ShardingPlan,
};
use nshard_cost::{CostModelBundle, EstimatedCost};
use nshard_data::ShardingTask;
use nshard_pool::splitmix64;
use nshard_sim::{GpuSpec, PlanCosts};

use crate::detect::{DriftDetector, DriftReport, DriftThresholds, ReplanTrigger};
use crate::drift::WorkloadDrift;
use crate::learn::ContinualLearner;
use crate::stack::{PlanningStack, ReplanOutcome, ReplanRoute};

/// Relative predicted-cost excess over the last unconstrained
/// (full-chain) deployment's quality above which an incremental replan
/// counts as stalled. A trace that ends stalled — some incremental replan
/// left the predicted cost this far above that reference and no later
/// replan recovered — replans once through the full chain on its final
/// epoch, clearing the drift debt the patches could not; its migration
/// bytes are charged like any other replan's. Drift can make the
/// workload intrinsically costlier, so the reference is a lower bound,
/// not an entitlement: a false stall costs at most the one cleanup replan.
const STALL_IMPROVEMENT: f64 = 0.05;

/// How the controller reacts to a fired trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplanStrategy {
    /// Never replan: ride the incumbent through all drift (the control
    /// arm of the experiment).
    Never,
    /// Replan from scratch with the full NeuroShard search through the
    /// fallback chain. Best cost, pays full migration.
    Full,
    /// Warm-start the migration-aware incremental planner; the fallback
    /// chain is the safety net when the incremental result is unusable,
    /// and a trace that ends stalled replans its final epoch through the
    /// chain (see `STALL_IMPROVEMENT`).
    Incremental,
}

impl ReplanStrategy {
    /// Short display name (`"never"`, `"full"`, `"incremental"`).
    pub fn name(&self) -> &'static str {
        match self {
            ReplanStrategy::Never => "never",
            ReplanStrategy::Full => "full",
            ReplanStrategy::Incremental => "incremental",
        }
    }
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Drift epochs to run (epoch 0 is the initial deployment).
    pub epochs: u64,
    /// Replan strategy.
    pub strategy: ReplanStrategy,
    /// Drift-detector thresholds.
    pub thresholds: DriftThresholds,
    /// Incremental-planner knobs (used by
    /// [`ReplanStrategy::Incremental`]); its `row_wise` follows
    /// `search.use_row_wise`.
    pub incremental: IncrementalConfig,
    /// Full-search knobs (used by [`ReplanStrategy::Full`] and as the
    /// incremental strategy's fallback).
    pub search: NeuroShardConfig,
    /// Base seed for ground-truth evaluation noise (mixed with the epoch
    /// so every epoch re-measures).
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            strategy: ReplanStrategy::Incremental,
            thresholds: DriftThresholds::default(),
            incremental: IncrementalConfig::default(),
            search: NeuroShardConfig::default(),
            seed: 0,
        }
    }
}

/// How an epoch's replan was carried out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplanAction {
    /// The trigger fired but the strategy is [`ReplanStrategy::Never`].
    Suppressed,
    /// A full search through the fallback chain, by request: the
    /// [`ReplanStrategy::Full`] strategy, or a stalled incremental trace's
    /// escape.
    Full {
        /// The chain's full decision record, attributed to the trigger.
        provenance: PlanProvenance,
    },
    /// The stack's migration-aware replan ([`PlanningStack::replan`]).
    Incremental {
        /// Which path produced the plan: the incremental planner's delta,
        /// or the fallback chain and why the delta was abandoned.
        route: ReplanRoute,
        /// The plan's record, attributed to the trigger.
        provenance: PlanProvenance,
    },
}

impl ReplanAction {
    /// The provenance of the adopted plan, if a new plan was adopted.
    pub fn provenance(&self) -> Option<&PlanProvenance> {
        match self {
            ReplanAction::Suppressed => None,
            ReplanAction::Full { provenance } | ReplanAction::Incremental { provenance, .. } => {
                Some(provenance)
            }
        }
    }
}

/// The full record of one drift epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// The epoch index (0 = initial deployment).
    pub epoch: u64,
    /// The detector's observation, `None` for epoch 0 and for epochs
    /// where the incumbent could not be rebased onto the drifted task.
    pub report: Option<DriftReport>,
    /// What the controller did about the trigger, `None` when no trigger
    /// fired.
    pub action: Option<ReplanAction>,
    /// Predicted cost of the deployed plan under this epoch's workload,
    /// ms.
    pub predicted_ms: f64,
    /// Ground-truth max-device cost of the deployed plan on the cluster
    /// simulator, ms; `None` when the plan is infeasible for the epoch's
    /// task (e.g. drift pushed a never-replanned incumbent over budget).
    pub ground_truth_ms: Option<f64>,
    /// Embedding bytes moved by this epoch's replan (0 without one).
    pub migration_bytes: u64,
}

/// The controller's full run: every epoch, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanHistory {
    /// The strategy that produced this history.
    pub strategy: ReplanStrategy,
    /// Per-epoch records, index = epoch.
    pub epochs: Vec<EpochRecord>,
}

impl ReplanHistory {
    /// Total embedding bytes moved across all replans.
    pub fn total_migration_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.migration_bytes).sum()
    }

    /// Number of epochs that adopted a new plan.
    pub fn replans(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| !matches!(e.action, None | Some(ReplanAction::Suppressed)))
            .count()
    }

    /// Mean ground-truth cost over the epochs where the deployed plan was
    /// feasible, ms.
    pub fn mean_ground_truth_ms(&self) -> f64 {
        let costs: Vec<f64> = self
            .epochs
            .iter()
            .filter_map(|e| e.ground_truth_ms)
            .collect();
        if costs.is_empty() {
            f64::NAN
        } else {
            costs.iter().sum::<f64>() / costs.len() as f64
        }
    }

    /// Worst feasible ground-truth cost across epochs, ms (`None` when no
    /// epoch was feasible).
    pub fn worst_ground_truth_ms(&self) -> Option<f64> {
        self.epochs
            .iter()
            .filter_map(|e| e.ground_truth_ms)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.max(c))))
    }
}

/// Everything one epoch of the loop observed about the deployed plan,
/// handed to the [`ContinualLearner`] after the epoch's record is
/// finalized.
///
/// `estimated` and `ground_truth` describe the **same** deployment priced
/// two ways — by the neural cost models and by the cluster-simulator
/// oracle — which is exactly the `(predicted, observed)` pairing the
/// continual-learning observation buffer accumulates.
#[derive(Debug)]
pub(crate) struct EpochObservation<'a> {
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
    /// The drift trigger that fired this epoch, if any.
    pub trigger: Option<&'a ReplanTrigger>,
}

/// The online re-sharding loop: observe → detect → replan → apply →
/// evaluate.
///
/// It drives a deployed sharding plan through a drifting workload, one
/// epoch at a time:
///
/// 1. **Observe** — materialize the epoch's drifted task from the
///    [`WorkloadDrift`] generator and rebase the incumbent plan onto it
///    (the placement is unchanged; every shard now carries the drifted
///    pooling factors and hash sizes).
/// 2. **Detect** — the [`DriftDetector`] prices the rebased incumbent
///    with the pre-trained cost models and fires a typed
///    [`ReplanTrigger`] when the plan's assumptions no longer hold.
/// 3. **Replan** — per the configured [`ReplanStrategy`]: keep the
///    incumbent, run a full search through the [`PlanningStack`]'s
///    fallback chain, or ask the stack for a migration-aware replan (the
///    incremental planner, falling back to the chain when its result is
///    unusable).
/// 4. **Apply** — adopt the new plan, charged the bytes it moves by the
///    one rule every replan path shares,
///    [`replan_migration_bytes`]:
///    the migration from the rebased incumbent, or every byte of the task
///    when the incumbent no longer rebases. A stack replan arrives charged
///    in its [`ReplanOutcome`]; a full replan is charged here.
/// 5. **Evaluate** — ground-truth the deployed plan on the cluster
///    simulator (the paper's "real GPU cost" oracle), which the search
///    itself never sees.
///
/// Every epoch appends an [`EpochRecord`] to the returned
/// [`ReplanHistory`]; every adopted plan carries a [`PlanProvenance`]
/// whose `replan` field attributes it to the trigger kind and epoch that
/// caused it. The whole loop is bit-deterministic per seed at any thread
/// count.
pub struct OnlineController {
    drift: WorkloadDrift,
    stack: PlanningStack,
    detector: DriftDetector,
    config: OnlineConfig,
}

impl OnlineController {
    /// Builds a controller from a pre-trained bundle, a drift generator
    /// and a configuration.
    pub fn new(bundle: CostModelBundle, drift: WorkloadDrift, config: OnlineConfig) -> Self {
        Self {
            drift,
            stack: PlanningStack::new(bundle, config.search, config.incremental),
            detector: DriftDetector::new(config.thresholds),
            config,
        }
    }

    /// Runs the full epoch loop and returns the per-epoch history.
    ///
    /// # Errors
    ///
    /// [`nshard_core::ResilientError`] when even the initial deployment
    /// cannot be planned (every stage of the fallback chain failed).
    ///
    /// # Panics
    ///
    /// Panics when the cost models cannot price a deployment: they were
    /// trained for a different device count than the drift's fleet, or
    /// they predict a non-finite cost.
    pub fn run(&mut self) -> Result<ReplanHistory, nshard_core::ResilientError> {
        self.run_with(None)
    }

    /// [`OnlineController::run`] with a [`ContinualLearner`] observing
    /// every epoch: a bundle it promotes replaces the cost models the
    /// loop plans with from the next epoch on.
    ///
    /// # Errors
    ///
    /// As [`OnlineController::run`].
    ///
    /// # Panics
    ///
    /// As [`OnlineController::run`].
    pub fn run_learning(
        &mut self,
        learner: &mut ContinualLearner,
    ) -> Result<ReplanHistory, nshard_core::ResilientError> {
        self.run_with(Some(learner))
    }

    fn run_with(
        &mut self,
        mut learner: Option<&mut ContinualLearner>,
    ) -> Result<ReplanHistory, nshard_core::ResilientError> {
        let mut epochs = Vec::with_capacity(self.config.epochs as usize);

        // Epoch 0: initial deployment via the full chain.
        let task0 = self.drift.task_at(0);
        let deployed = self.stack.plan(&task0)?;
        let mut incumbent = deployed.plan;
        let mut deployed_task = task0.clone();
        let estimated0 = self.price(&task0, &incumbent);
        let truth0 = self.ground_truth(&task0, &incumbent, 0);
        let mut baseline_ms = estimated0.total_ms();
        epochs.push(EpochRecord {
            epoch: 0,
            report: None,
            action: None,
            predicted_ms: baseline_ms,
            ground_truth_ms: truth0.as_ref().map(PlanCosts::max_total_ms),
            migration_bytes: 0,
        });
        let promoted = learner.as_deref_mut().and_then(|l| {
            l.on_epoch(&EpochObservation {
                epoch: 0,
                task: &task0,
                plan: &incumbent,
                estimated: &estimated0,
                ground_truth: truth0.as_ref(),
                trigger: None,
            })
        });
        if let Some(bundle) = promoted {
            self.stack = PlanningStack::new(bundle, self.config.search, self.config.incremental);
            baseline_ms = self.price(&task0, &incumbent).total_ms();
        }

        // λ-objective stall tracking for the end-of-trace escape hatch:
        // > 0 when some incremental replan under-delivered and no later
        // one recovered. The debt reference is the predicted quality of
        // the last unconstrained (full-chain) deployment — initially the
        // epoch-0 plan.
        let mut stalled_replans = 0u64;
        let mut full_quality_ms = baseline_ms;

        for epoch in 1..self.config.epochs {
            let task = self.drift.task_at(epoch);

            // Observe: the incumbent's shards under the drifted workload.
            // A recorded split that became illegal after drift leaves no
            // report: detection cannot price the incumbent, and the replan
            // below is forced.
            let rebased = incumbent.rebase(&task);
            let report = rebased.as_ref().ok().map(|r| {
                self.detector
                    .observe(
                        self.stack.simulator(),
                        r,
                        &task,
                        &deployed_task,
                        baseline_ms,
                        epoch,
                    )
                    .unwrap_or_else(|e| panic!("the detector cannot price the incumbent: {e}"))
            });

            let trigger = report.as_ref().and_then(|r| r.trigger.clone());
            // The end-of-trace escape hatch: a stalled incremental trace
            // replans through the full chain on its final epoch, trigger
            // or not, clearing the debt the patches could not.
            let escape = self.config.strategy == ReplanStrategy::Incremental
                && epoch + 1 == self.config.epochs
                && stalled_replans > 0;
            let must_replan = trigger.is_some() || rebased.is_err() || escape;
            let trigger_kind = trigger.as_ref().map_or(
                if rebased.is_err() {
                    "rebase_failed"
                } else {
                    "stall_escape"
                },
                |t| t.kind(),
            );

            let mut action = None;
            let mut adopted = None;
            let mut moved = 0u64;
            if must_replan {
                match self.config.strategy {
                    ReplanStrategy::Never => {
                        action = Some(ReplanAction::Suppressed);
                    }
                    ReplanStrategy::Incremental if !escape => {
                        let ReplanOutcome {
                            plan,
                            provenance,
                            migration_bytes,
                            route,
                        } = self.stack.replan(&task, &incumbent)?;
                        moved = migration_bytes;
                        adopted = Some(plan);
                        action = Some(ReplanAction::Incremental {
                            route,
                            provenance: provenance.attributed_to_replan(trigger_kind, epoch),
                        });
                    }
                    // `Full`, or a stalled incremental trace's escape
                    // hatch: plan from scratch, which clears the debt.
                    ReplanStrategy::Full | ReplanStrategy::Incremental => {
                        let outcome = self.stack.plan(&task)?;
                        moved = replan_migration_bytes(&incumbent, &outcome.plan, &task);
                        adopted = Some(outcome.plan);
                        stalled_replans = 0;
                        action = Some(ReplanAction::Full {
                            provenance: outcome
                                .provenance
                                .attributed_to_replan(trigger_kind, epoch),
                        });
                    }
                }
            }

            // The deployed plan for this epoch, priced under its workload.
            // Without a replan the deployment is the rebased incumbent; a
            // failed rebase leaves the stale incumbent (infeasible to
            // evaluate against the drifted task's table list).
            match (adopted, rebased) {
                (Some(plan), _) | (None, Ok(plan)) => incumbent = plan,
                (None, Err(_)) => {}
            }
            let estimated = self.price(&task, &incumbent);
            let truth = self.ground_truth(&task, &incumbent, epoch);
            let predicted_ms = estimated.total_ms();

            // Stall accounting against the λ-objective: a patch that beats
            // the drifted incumbent can still ratchet the deployment away
            // from what an unconstrained search would find, so progress is
            // measured against the last full-chain deployment's predicted
            // quality instead. A fall-back replans unconstrained: it clears
            // the debt by construction and becomes the new reference.
            if let Some(ReplanAction::Incremental { route, .. }) = &action {
                match route {
                    ReplanRoute::FellBack { .. } => {
                        full_quality_ms = predicted_ms;
                        stalled_replans = 0;
                    }
                    ReplanRoute::Incremental { .. } => {
                        let debt = (predicted_ms - full_quality_ms)
                            / full_quality_ms.max(f64::MIN_POSITIVE);
                        if debt > STALL_IMPROVEMENT {
                            stalled_replans += 1;
                        } else {
                            stalled_replans = 0;
                        }
                    }
                }
            }

            epochs.push(EpochRecord {
                epoch,
                report,
                action,
                predicted_ms,
                ground_truth_ms: truth.as_ref().map(PlanCosts::max_total_ms),
                migration_bytes: moved,
            });

            let promoted = learner.as_deref_mut().and_then(|l| {
                l.on_epoch(&EpochObservation {
                    epoch,
                    task: &task,
                    plan: &incumbent,
                    estimated: &estimated,
                    ground_truth: truth.as_ref(),
                    trigger: trigger.as_ref(),
                })
            });

            // Future detection compares against this epoch's deployment.
            deployed_task = task;
            baseline_ms = predicted_ms;
            if let Some(bundle) = promoted {
                self.stack =
                    PlanningStack::new(bundle, self.config.search, self.config.incremental);
                // Re-price the baseline (and the stall reference) with the
                // new models so next epoch's regression ratio is not an
                // artifact of the swap itself.
                let repriced = self.price(&deployed_task, &incumbent).total_ms();
                full_quality_ms *= repriced / baseline_ms.max(f64::MIN_POSITIVE);
                baseline_ms = repriced;
            }
        }

        Ok(ReplanHistory {
            strategy: self.config.strategy,
            epochs,
        })
    }

    /// The cost models' estimate of `plan` on `task`'s fleet — the same
    /// price the search and the detector see.
    fn price(&self, task: &ShardingTask, plan: &ShardingPlan) -> EstimatedCost {
        estimate_for_task(self.stack.simulator(), task, plan)
            .unwrap_or_else(|e| panic!("the controller cannot price its deployment: {e}"))
    }

    /// Ground-truth per-device cost breakdown of `plan` for `task`,
    /// `None` when the cluster simulator rejects the plan (memory
    /// infeasibility).
    fn ground_truth(
        &self,
        task: &ShardingTask,
        plan: &ShardingPlan,
        epoch: u64,
    ) -> Option<PlanCosts> {
        let seed = splitmix64(self.config.seed ^ splitmix64(epoch.wrapping_add(0x9e37_79b9)));
        evaluate_plan(task, plan, &GpuSpec::default(), seed).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::{ShardingTask, TablePool};

    fn bundle(d: usize) -> CostModelBundle {
        let pool = TablePool::synthetic_dlrm(30, 1);
        CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        )
    }

    fn small_config(strategy: ReplanStrategy) -> OnlineConfig {
        OnlineConfig {
            // Long enough to cover the standard trace's spike at epoch 10.
            epochs: 12,
            strategy,
            thresholds: DriftThresholds {
                max_cost_regression: 0.05,
                ..DriftThresholds::default()
            },
            search: NeuroShardConfig {
                n: 2,
                k: 2,
                l: 3,
                m: 3,
                ..NeuroShardConfig::default()
            },
            seed: 11,
            ..OnlineConfig::default()
        }
    }

    fn drift() -> WorkloadDrift {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let base = ShardingTask::sample(&pool, 2, 10..=10, 32, 5);
        WorkloadDrift::standard(base, 42)
    }

    #[test]
    fn never_strategy_records_suppressed_triggers_and_moves_nothing() {
        let mut controller =
            OnlineController::new(bundle(2), drift(), small_config(ReplanStrategy::Never));
        let history = controller.run().unwrap();
        assert_eq!(history.epochs.len(), 12);
        assert_eq!(history.total_migration_bytes(), 0);
        assert_eq!(history.replans(), 0);
        for e in &history.epochs {
            assert!(matches!(e.action, None | Some(ReplanAction::Suppressed)));
        }
    }

    #[test]
    fn incremental_strategy_attributes_replans_to_triggers() {
        let mut controller = OnlineController::new(
            bundle(2),
            drift(),
            small_config(ReplanStrategy::Incremental),
        );
        let history = controller.run().unwrap();
        let replanned: Vec<&EpochRecord> = history
            .epochs
            .iter()
            .filter(|e| e.action.as_ref().is_some_and(|a| a.provenance().is_some()))
            .collect();
        assert!(
            !replanned.is_empty(),
            "the standard drift trace must trigger at least one replan in 12 epochs"
        );
        for e in replanned {
            let prov = e.action.as_ref().unwrap().provenance().unwrap();
            let replan = prov.replan.as_ref().expect("replan must be attributed");
            assert_eq!(replan.epoch, e.epoch);
            assert!(
                [
                    "cost_regression",
                    "imbalance",
                    "memory",
                    "rebase_failed",
                    "stall_escape"
                ]
                .contains(&replan.trigger_kind.as_str()),
                "unexpected trigger kind {}",
                replan.trigger_kind
            );
        }
    }

    #[test]
    fn a_stalled_incremental_trace_ends_in_a_full_replan() {
        let mut controller = OnlineController::new(
            bundle(2),
            drift(),
            small_config(ReplanStrategy::Incremental),
        );
        let history = controller.run().unwrap();
        let last = history.epochs.last().expect("history is nonempty");
        let action = last.action.as_ref().expect("the stall escape must replan");
        assert!(
            matches!(action, ReplanAction::Full { .. }),
            "final epoch must replan through the full chain, got {action:?}"
        );
        let replan = action
            .provenance()
            .and_then(|p| p.replan.as_ref())
            .expect("escape replan must be attributed");
        assert_eq!(replan.epoch, last.epoch);
    }

    #[test]
    fn controller_loop_is_seed_deterministic() {
        let a = OnlineController::new(
            bundle(2),
            drift(),
            small_config(ReplanStrategy::Incremental),
        )
        .run()
        .unwrap();
        let b = OnlineController::new(
            bundle(2),
            drift(),
            small_config(ReplanStrategy::Incremental),
        )
        .run()
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn history_summaries_are_consistent() {
        let mut controller =
            OnlineController::new(bundle(2), drift(), small_config(ReplanStrategy::Full));
        let history = controller.run().unwrap();
        assert_eq!(
            history.total_migration_bytes(),
            history
                .epochs
                .iter()
                .map(|e| e.migration_bytes)
                .sum::<u64>()
        );
        let mean = history.mean_ground_truth_ms();
        assert!(mean.is_finite(), "all epochs should be feasible here");
        assert!(history.worst_ground_truth_ms().unwrap() >= mean);
    }
}
