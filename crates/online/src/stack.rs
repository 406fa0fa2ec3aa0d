//! One planning stack per cost-model generation: see [`PlanningStack`].

use std::sync::Arc;

use nshard_baselines::SizeGreedy;
use nshard_core::{
    FallbackChain, IncrementalConfig, IncrementalPlanner, NeuroShard, NeuroShardConfig, PlanDelta,
    PlanProvenance, PlanSource, ResilientError, ResilientOutcome, ShardingPlan,
};
use nshard_cost::{CostModelBundle, CostSimulator};
use nshard_data::ShardingTask;

/// Which path of [`PlanningStack::replan`] produced the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplanRoute {
    /// The incremental planner's result, within every device's budget.
    Incremental {
        /// The replayable delta from the rebased incumbent.
        delta: PlanDelta,
        /// Candidate plans the planner scored.
        evaluated_plans: usize,
    },
    /// The incremental path was abandoned and the full chain planned from
    /// scratch.
    FellBack {
        /// Why the incremental result could not be used.
        reason: String,
    },
}

/// The result of one [`PlanningStack::replan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanOutcome {
    /// The plan to adopt.
    pub plan: ShardingPlan,
    /// How it was obtained: the chain's record after a fall-back, a
    /// primary-source `"incremental_planner"` record otherwise.
    pub provenance: PlanProvenance,
    /// Which path produced it.
    pub route: ReplanRoute,
}

/// The sharder, the full chain around it and the incremental planner for
/// one cost-model bundle.
///
/// Everything that plans with a pre-trained bundle — the daemon's engine
/// (`nshard-serve`) and the [`OnlineController`](crate::OnlineController)
/// — builds, replans and falls back through one stack. It owns **one**
/// [`NeuroShard`], hence one [`CostSimulator`] and one pair of
/// prediction/encoding caches: the full search, the incremental planner,
/// the drift detector and every `predicted_ms` ask the same simulator, so
/// a replan reuses what the search before it already priced and
/// [`NeuroShardConfig::use_cache`] governs all of them alike. Around the
/// sharder sit the **full chain** (`NeuroShard → SizeGreedy →
/// size-balanced`) and the [`IncrementalPlanner`].
///
/// A stack is immutable. Swapping in a new bundle means building a new
/// stack, which is what guarantees a promoted model never serves a
/// predecessor's cached predictions.
pub struct PlanningStack {
    neuro: Arc<NeuroShard>,
    chain: FallbackChain,
    planner: IncrementalPlanner,
}

impl PlanningStack {
    /// Builds the stack for `bundle`. `incremental.row_wise` is taken
    /// from `search.use_row_wise`, so a disabled setting disables row
    /// splits on both paths.
    ///
    /// # Panics
    ///
    /// Panics on a contradictory `search` (see
    /// [`NeuroShardConfig::validate`]).
    pub fn new(
        bundle: CostModelBundle,
        search: NeuroShardConfig,
        incremental: IncrementalConfig,
    ) -> Self {
        let neuro = Arc::new(NeuroShard::new(bundle, search));
        let chain =
            FallbackChain::new(Box::new(Arc::clone(&neuro))).with_fallback(Box::new(SizeGreedy));
        let planner = IncrementalPlanner::new(IncrementalConfig {
            row_wise: search.use_row_wise,
            ..incremental
        });
        Self {
            neuro,
            chain,
            planner,
        }
    }

    /// The one simulator every path of this stack prices with.
    pub fn simulator(&self) -> &CostSimulator {
        self.neuro.simulator()
    }

    /// Plans `task` from scratch through the full chain.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when every stage of the chain failed.
    pub fn plan(&self, task: &ShardingTask) -> Result<ResilientOutcome, ResilientError> {
        self.chain.shard_with_provenance(task)
    }

    /// Replans `task` warm-started from `incumbent`. The incremental
    /// planner's result is accepted only when every device ends within its
    /// own budget ([`ShardingTask::budgets`]); when it does not, or the
    /// incumbent no longer rebases onto `task`, the full chain plans from
    /// scratch and the reason is recorded — so a returned plan always
    /// passed the chain's verifier or the budget check here.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when the full-chain fall-back also failed.
    pub fn replan(
        &self,
        task: &ShardingTask,
        incumbent: &ShardingPlan,
    ) -> Result<ReplanOutcome, ResilientError> {
        let reason = match self.planner.replan(self.simulator(), task, incumbent) {
            Ok(out) if out.plan.first_over_budget(task).is_none() => {
                return Ok(ReplanOutcome {
                    plan: out.plan,
                    provenance: PlanProvenance {
                        source: PlanSource::Primary {
                            algorithm: "incremental_planner".into(),
                        },
                        events: Vec::new(),
                        replan: None,
                        failover: None,
                    },
                    route: ReplanRoute::Incremental {
                        delta: out.delta,
                        evaluated_plans: out.evaluated_plans,
                    },
                })
            }
            Ok(_) => "incremental plan still over budget".to_string(),
            Err(e) => format!("incremental replan failed: {e}"),
        };
        let outcome = self.plan(task)?;
        Ok(ReplanOutcome {
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
        let incumbent = stack.plan(&tight_task(200_000)).unwrap().plan;
        // The first table outgrows its device; no single move, swap or
        // split brings both devices back within budget, so the hill-climb
        // ends on a plan that still overflows.
        let grown = tight_task(300_000);
        let planner = IncrementalPlanner::default();
        let local = planner
            .replan(stack.simulator(), &grown, &incumbent)
            .unwrap();
        assert!(local.plan.validate(&grown).is_err());

        let re = stack.replan(&grown, &incumbent).unwrap();
        match &re.route {
            ReplanRoute::FellBack { reason } => assert!(reason.contains("over budget"), "{reason}"),
            other => panic!("an over-budget patch must not be accepted: {other:?}"),
        }
        re.plan.validate(&grown).unwrap();
        let full = stack.plan(&grown).unwrap();
        assert_eq!(re.plan, full.plan);
        assert_eq!(re.provenance, full.provenance);
    }

    #[test]
    fn an_incumbent_that_no_longer_rebases_falls_back() {
        let stack = stack();
        let incumbent = stack.plan(&tight_task(200_000)).unwrap().plan;
        let other = ShardingTask::new(
            vec![TableConfig::new(TableId(9), 32, 1 << 14, 8.0, 1.05)],
            2,
            64 << 20,
            1024,
        );
        let re = stack.replan(&other, &incumbent).unwrap();
        assert!(
            matches!(&re.route, ReplanRoute::FellBack { reason } if reason.contains("failed")),
            "{:?}",
            re.route
        );
        re.plan.validate(&other).unwrap();
    }

    #[test]
    fn a_stack_prices_with_the_simulator_its_search_used() {
        let stack = stack();
        let task = tight_task(100_000);
        assert_eq!(stack.simulator().cache().len(), 0);
        let planned = stack.plan(&task).unwrap();
        let after_plan = stack.simulator().cache().len();
        assert!(after_plan > 0, "the search fills the stack's one cache");

        // Nothing drifted: the replanner's first question — the price of
        // the incumbent — is one the search already answered.
        let before = stack.simulator().cache().stats();
        let same = stack.replan(&task, &planned.plan).unwrap();
        assert!(matches!(same.route, ReplanRoute::Incremental { .. }));
        assert_eq!(
            same.provenance.source,
            PlanSource::Primary {
                algorithm: "incremental_planner".into()
            }
        );
        assert!(stack.simulator().cache().stats().since(&before).hits > 0);

        // A drifted task's new predictions land in that same cache.
        stack.replan(&tight_task(120_000), &planned.plan).unwrap();
        assert!(stack.simulator().cache().len() > after_plan);
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
        assert!(stack.planner.config().row_wise);
    }
}
