//! One planning stack per cost-model generation: see [`PlanningStack`].

use serde::{Deserialize, Serialize};

use nshard_baselines::{DimGreedy, SizeGreedy};
use nshard_core::{
    replan_migration_bytes, shard_with_provenance, IncrementalConfig, IncrementalPlanner,
    NeuroShard, NeuroShardConfig, PlanDelta, PlanProvenance, PlanSource, ResilientError,
    ResilientOutcome, ShardingAlgorithm, ShardingPlan,
};
use nshard_cost::{CostModelBundle, CostSimulator};
use nshard_data::ShardingTask;

/// Which path of [`PlanningStack::replan`] produced the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplanRoute {
    /// The incremental planner's result, within every device's budget.
    Incremental {
        /// The replayable delta from the rebased incumbent.
        delta: PlanDelta,
        /// Candidate plans the planner scored.
        evaluated_plans: usize,
    },
    /// The incremental path was abandoned, or skipped under deadline
    /// pressure, and a chain planned from scratch: the full chain, or the
    /// greedy chain for a degraded replan.
    FellBack {
        /// Why the incremental result was not used.
        reason: String,
    },
}

/// The result of one [`PlanningStack::replan`]: the one record of a
/// replan, read as it is by the daemon and by `repro ext_online`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// The plan to adopt.
    pub plan: ShardingPlan,
    /// How it was obtained: the chain's record after a fall-back, a
    /// primary-source `"incremental_planner"` record otherwise.
    pub provenance: PlanProvenance,
    /// Embedding bytes adopting `plan` moves from the incumbent:
    /// [`nshard_core::replan_migration_bytes`], which on the incremental
    /// route is the delta's own count.
    pub migration_bytes: u64,
    /// Which path produced it.
    pub route: ReplanRoute,
}

/// The sharder, the incremental planner and the two fallback chains of one
/// cost-model bundle.
///
/// Everything that plans with a pre-trained bundle — the daemon's engine
/// (`nshard-serve`) and the drift experiment (`repro ext_online`) —
/// builds, replans and falls back through a stack. It owns **one**
/// [`NeuroShard`], hence one [`CostSimulator`] and one pair of
/// prediction/encoding caches: the full search, the incremental planner,
/// the drift triggers and every `predicted_ms` ask the same simulator, so
/// a replan reuses what the search before it already priced and
/// [`NeuroShardConfig::use_cache`] governs all of them alike. Beside the
/// sharder sits the [`IncrementalPlanner`]; [`PlanningStack::plan`] runs
/// one of two chains through [`shard_with_provenance`]: the **full chain**
/// (`NeuroShard → SizeGreedy → size-balanced`) or the **greedy chain**
/// (`SizeGreedy → DimGreedy → size-balanced`, for a request without the
/// time for a beam search).
///
/// A stack is immutable, and its caches live as long as it does. The
/// daemon builds one per request, so no cache outlives the request that
/// filled it; the experiment keeps one per trace and builds a new one when
/// it promotes a bundle, so a promoted model never serves a predecessor's
/// cached predictions.
pub struct PlanningStack {
    neuro: NeuroShard,
    planner: IncrementalPlanner,
}

impl PlanningStack {
    /// Builds the stack for `bundle`. `incremental.row_wise` is taken
    /// from `search.use_row_wise`, so a disabled setting disables row
    /// splits on both paths.
    pub fn new(
        bundle: CostModelBundle,
        search: NeuroShardConfig,
        incremental: IncrementalConfig,
    ) -> Self {
        let planner = IncrementalPlanner::new(IncrementalConfig {
            row_wise: search.use_row_wise,
            ..incremental
        });
        Self {
            neuro: NeuroShard::new(bundle, search),
            planner,
        }
    }

    /// The one simulator every path of this stack prices with.
    pub fn simulator(&self) -> &CostSimulator {
        self.neuro.simulator()
    }

    /// Plans `task` from scratch through the full chain, or through the
    /// greedy chain when `degrade` (deadline pressure) is set.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when every stage of the chain failed.
    pub fn plan(
        &self,
        task: &ShardingTask,
        degrade: bool,
    ) -> Result<ResilientOutcome, ResilientError> {
        let chain: [&dyn ShardingAlgorithm; 2] = if degrade {
            [&SizeGreedy, &DimGreedy]
        } else {
            [&self.neuro, &SizeGreedy]
        };
        shard_with_provenance(&chain, task)
    }

    /// Replans `task` warm-started from `incumbent`. The incremental
    /// planner's result is accepted only when every device ends within its
    /// own budget ([`ShardingTask::budgets`]); when it does not, or the
    /// incumbent no longer rebases onto `task`, the full chain plans from
    /// scratch and the reason is recorded — so a returned plan always
    /// passed the chain's verifier or the budget check here. `degrade`
    /// skips the incremental planner: the greedy chain plans, routed as a
    /// fall-back. Either way the outcome carries the bytes the plan moves
    /// ([`nshard_core::replan_migration_bytes`]).
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when the fall-back chain also failed.
    pub fn replan(
        &self,
        task: &ShardingTask,
        incumbent: &ShardingPlan,
        degrade: bool,
    ) -> Result<ReplanOutcome, ResilientError> {
        let attempt = (!degrade).then(|| self.planner.replan(self.simulator(), task, incumbent));
        let reason = match attempt {
            None => "deadline pressure: the greedy chain planned".to_string(),
            Some(Ok(out)) if out.plan.first_over_budget(task).is_none() => {
                return Ok(ReplanOutcome {
                    plan: out.plan,
                    provenance: PlanProvenance {
                        source: PlanSource::Primary {
                            algorithm: "incremental_planner".into(),
                        },
                        events: Vec::new(),
                    },
                    // Charged against the rebased incumbent, as
                    // `replan_migration_bytes` charges.
                    migration_bytes: out.delta.migration_bytes,
                    route: ReplanRoute::Incremental {
                        delta: out.delta,
                        evaluated_plans: out.evaluated_plans,
                    },
                });
            }
            Some(Ok(_)) => "incremental plan still over budget".to_string(),
            Some(Err(e)) => format!("incremental replan failed: {e}"),
        };
        let outcome = self.plan(task, degrade)?;
        Ok(ReplanOutcome {
            migration_bytes: replan_migration_bytes(incumbent, &outcome.plan, task),
            plan: outcome.plan,
            provenance: outcome.provenance,
            route: ReplanRoute::FellBack { reason },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::{TableConfig, TableId, TablePool};

    fn stack() -> PlanningStack {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        PlanningStack::new(
            bundle,
            NeuroShardConfig::smoke(),
            IncrementalConfig::default(),
        )
    }

    /// Two 64-dim tables on two 64 MiB devices; `rows` sizes the first.
    fn tight_task(rows: u64) -> ShardingTask {
        let tables = vec![
            TableConfig::new(TableId(0), 64, rows, 8.0, 1.05),
            TableConfig::new(TableId(1), 64, 180_000, 8.0, 1.05),
        ];
        ShardingTask::new(tables, 2, 64 << 20, 1024)
    }

    #[test]
    fn an_over_budget_incremental_result_falls_back_with_the_reason_recorded() {
        let stack = stack();
        let incumbent = stack.plan(&tight_task(200_000), false).unwrap().plan;
        // The first table outgrows its device; no single move, swap or
        // split brings both devices back within budget, so the hill-climb
        // ends on a plan that still overflows.
        let grown = tight_task(300_000);
        let planner = IncrementalPlanner::default();
        let local = planner
            .replan(stack.simulator(), &grown, &incumbent)
            .unwrap();
        assert!(local.plan.validate(&grown).is_err());

        let re = stack.replan(&grown, &incumbent, false).unwrap();
        match &re.route {
            ReplanRoute::FellBack { reason } => assert!(reason.contains("over budget"), "{reason}"),
            other => panic!("an over-budget patch must not be accepted: {other:?}"),
        }
        re.plan.validate(&grown).unwrap();
        let full = stack.plan(&grown, false).unwrap();
        assert_eq!(re.plan, full.plan);
        assert_eq!(re.provenance, full.provenance);
        // The incumbent still rebases: the charge is the migration from it.
        let rebased = incumbent.rebase(&grown).unwrap();
        assert_eq!(
            re.migration_bytes,
            nshard_core::migration_bytes(&rebased, &re.plan)
        );
    }

    #[test]
    fn an_incumbent_that_no_longer_rebases_falls_back_and_moves_every_byte() {
        let stack = stack();
        let planned = stack.plan(&tight_task(200_000), false).unwrap().plan;
        let other = ShardingTask::new(
            vec![TableConfig::new(TableId(9), 32, 1 << 14, 8.0, 1.05)],
            2,
            64 << 20,
            1024,
        );
        // Table 0 row-halved, its halves on both devices; then drift cools
        // it below two lookups per sample, so the recorded split no longer
        // applies.
        let task = tight_task(100_000);
        let steps = vec![nshard_core::SplitStep::row(0)];
        let sharded = nshard_core::apply_split_plan(task.tables(), &steps).unwrap();
        let row_split = ShardingPlan::new(steps, sharded, vec![0, 1, 1], 2).unwrap();
        row_split.validate(&task).unwrap();
        let mut tables = task.tables().to_vec();
        tables[0] = tables[0].with_pooling_factor(1.5);
        let cooled = ShardingTask::new(tables, 2, 64 << 20, 1024);

        // Another table list, or an illegal split: nothing of the
        // incumbent is in place on the drifted task.
        for (incumbent, drifted) in [(&planned, &other), (&row_split, &cooled)] {
            assert!(incumbent.rebase(drifted).is_err());
            let re = stack.replan(drifted, incumbent, false).unwrap();
            assert!(
                matches!(&re.route, ReplanRoute::FellBack { reason } if reason.contains("failed")),
                "{:?}",
                re.route
            );
            re.plan.validate(drifted).unwrap();
            let every_byte: u64 = drifted.tables().iter().map(|t| t.memory_bytes()).sum();
            assert_eq!(re.migration_bytes, every_byte);
        }
    }

    #[test]
    fn a_stack_prices_with_the_simulator_its_search_used() {
        let stack = stack();
        let task = tight_task(100_000);
        assert_eq!(stack.simulator().cache().len(), 0);
        let planned = stack.plan(&task, false).unwrap();
        let after_plan = stack.simulator().cache().len();
        assert!(after_plan > 0, "the search fills the stack's one cache");

        // Nothing drifted: the replanner's first question — the price of
        // the incumbent — is one the search already answered.
        let before = stack.simulator().cache().stats();
        let same = stack.replan(&task, &planned.plan, false).unwrap();
        assert!(matches!(same.route, ReplanRoute::Incremental { .. }));
        assert_eq!(
            same.provenance.source,
            PlanSource::Primary {
                algorithm: "incremental_planner".into()
            }
        );
        assert!(stack.simulator().cache().stats().since(&before).hits > 0);

        // A drifted task's new predictions land in that same cache, and a
        // patch is charged its delta's bytes.
        let drifted = tight_task(120_000);
        let patched = stack.replan(&drifted, &planned.plan, false).unwrap();
        assert!(stack.simulator().cache().len() > after_plan);
        let ReplanRoute::Incremental { delta, .. } = &patched.route else {
            panic!("a small drift is patched: {:?}", patched.route);
        };
        assert_eq!(patched.migration_bytes, delta.migration_bytes);
        assert_eq!(
            patched.migration_bytes,
            replan_migration_bytes(&planned.plan, &patched.plan, &drifted)
        );
    }

    #[test]
    fn a_degraded_replan_takes_the_greedy_chain_and_is_charged_alike() {
        let stack = stack();
        let incumbent = stack.plan(&tight_task(100_000), false).unwrap().plan;
        let drifted = tight_task(120_000);
        let re = stack.replan(&drifted, &incumbent, true).unwrap();
        let ReplanRoute::FellBack { reason } = &re.route else {
            panic!("a degraded replan skips the planner: {:?}", re.route);
        };
        assert_eq!(reason, "deadline pressure: the greedy chain planned");
        let greedy = stack.plan(&drifted, true).unwrap();
        assert_eq!(re.plan, greedy.plan);
        assert_eq!(re.provenance, greedy.provenance);
        assert_eq!(
            re.provenance.source,
            PlanSource::Primary {
                algorithm: "size_greedy".into()
            }
        );
        assert_eq!(
            re.migration_bytes,
            replan_migration_bytes(&incumbent, &re.plan, &drifted)
        );
    }

    #[test]
    fn row_wise_follows_the_search_config() {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        let search = NeuroShardConfig {
            use_row_wise: true,
            ..NeuroShardConfig::smoke()
        };
        let stack = PlanningStack::new(bundle, search, IncrementalConfig::default());
        let row_wise = IncrementalConfig {
            row_wise: true,
            ..IncrementalConfig::default()
        };
        assert_eq!(stack.planner, IncrementalPlanner::new(row_wise));
    }
}
