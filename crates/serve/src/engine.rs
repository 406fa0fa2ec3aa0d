//! The planning engine behind the daemon's endpoints.
//!
//! One [`PlanningEngine`] is shared (behind an `Arc`) by every worker
//! thread. Per cost-model generation it owns:
//!
//! * the [`PlanningStack`] — the sharder, the full chain around it and the
//!   incremental planner, all pricing with one simulator; `POST /v1/plan`
//!   is its `plan`, `POST /v1/replan` its `replan`;
//! * the **degraded chain** — greedy primaries only, used when a request's
//!   remaining deadline budget is too small for a beam search, so a
//!   deadline-pressed request degrades to a fast plan instead of erroring.
//!
//! Everything downstream is deterministic (order-preserving work pools,
//! serial batched scoring), so identical requests produce **bit-identical
//! plans at any concurrency** — the serving layer adds no entropy: plan
//! ids are content-addressed hashes of the task + plan JSON, and no
//! timestamps enter response bodies.

use std::sync::{Arc, RwLock};

use nshard_baselines::{DimGreedy, SizeGreedy};
use nshard_core::{
    estimate_for_task, migration_bytes, FallbackChain, NeuroShardConfig, PlanProvenance,
    ResilientError, ShardingPlan,
};
use nshard_cost::{CacheStats, CostModelBundle};
use nshard_data::ShardingTask;
use nshard_online::{IncrementalConfig, PlanningStack, ReplanRoute};

use crate::store::{fnv64, fnv64_extend};

/// One planned (or replanned) task, ready to store and serialize.
#[derive(Debug, Clone)]
pub struct PlanOutput {
    /// Content-addressed plan id (16 hex chars over task + plan JSON).
    pub id: String,
    /// The accepted plan.
    pub plan: ShardingPlan,
    /// How the chain arrived at it.
    pub provenance: PlanProvenance,
    /// Predicted embedding cost under the cost models on the task's
    /// fleet, ms — the number the search minimised.
    pub predicted_ms: f64,
    /// `true` when the serving layer routed this request through the
    /// degraded chain (deadline pressure) or the chain itself downgraded.
    pub degraded: bool,
}

/// A replan: a [`PlanOutput`] plus migration accounting.
#[derive(Debug, Clone)]
pub(crate) struct ReplanOutput {
    /// The plan and its provenance.
    pub output: PlanOutput,
    /// Bytes that must move from the incumbent to adopt the new plan.
    pub migration_bytes: u64,
    /// `true` when the warm-started incremental planner produced the plan;
    /// `false` when it could not (the incumbent no longer rebases onto
    /// the drifted task, or no local move brings every device within its
    /// budget) and a full search ran instead.
    pub incremental: bool,
    /// Candidate plans scored (incremental path only; `0` for full).
    pub evaluated_plans: usize,
}

/// Everything derived from one cost-model bundle: the planning stack, the
/// degraded chain, and the monotonically increasing model version.
/// Swapped atomically as a unit on promotion, which also replaces the
/// stack's simulator — and with it every prediction and encoding cache,
/// so a promoted model can never serve a predecessor's cached predictions.
struct EngineCore {
    stack: PlanningStack,
    degraded: FallbackChain,
    version: u64,
}

/// The planning engine shared by every worker thread: per cost-model
/// generation, the planning stack, the greedy degraded chain and the model
/// version.
pub struct PlanningEngine {
    core: RwLock<Arc<EngineCore>>,
    search: NeuroShardConfig,
    incremental_config: IncrementalConfig,
}

impl PlanningEngine {
    /// Builds the engine from a pre-trained bundle and search knobs.
    ///
    /// `threads = 0` in `search` resolves through the single
    /// [`nshard_pool::THREADS_ENV`] path, so the daemon honors
    /// `NSHARD_THREADS` exactly like the offline binaries. The initial
    /// model version is `1`. `_seed` is read by nothing: the chains verify
    /// on the healthy fleet, where no seed is drawn. It stays until the
    /// benchmark surface, which passes it, is next changed.
    pub fn new(
        bundle: CostModelBundle,
        search: NeuroShardConfig,
        incremental: IncrementalConfig,
        _seed: u64,
    ) -> Self {
        let core = Arc::new(Self::build_core(bundle, search, incremental, 1));
        Self {
            core: RwLock::new(core),
            search,
            incremental_config: incremental,
        }
    }

    fn build_core(
        bundle: CostModelBundle,
        search: NeuroShardConfig,
        incremental: IncrementalConfig,
        version: u64,
    ) -> EngineCore {
        EngineCore {
            stack: PlanningStack::new(bundle, search, incremental),
            degraded: FallbackChain::new(Box::new(SizeGreedy)).with_fallback(Box::new(DimGreedy)),
            version,
        }
    }

    /// The current core; cloned out of the lock so in-flight requests keep
    /// planning against the model generation they started with even if a
    /// promotion lands mid-request.
    fn current(&self) -> Arc<EngineCore> {
        self.core.read().expect("engine core lock poisoned").clone()
    }

    /// Atomically swaps in a new cost-model bundle — a new planning stack
    /// and degraded chain built around it — and returns the new model
    /// version. The fresh simulator starts with empty prediction/encoding
    /// caches, so no stale predictions survive the promotion.
    pub(crate) fn swap_bundle(&self, bundle: CostModelBundle) -> u64 {
        let mut guard = self.core.write().expect("engine core lock poisoned");
        let version = guard.version + 1;
        *guard = Arc::new(Self::build_core(
            bundle,
            self.search,
            self.incremental_config,
            version,
        ));
        version
    }

    /// The active model version (starts at 1, +1 per
    /// [`PlanningEngine::swap_bundle`]).
    pub(crate) fn model_version(&self) -> u64 {
        self.current().version
    }

    /// Whether the active cost models can price a task on `num_devices`
    /// devices ([`CostModelBundle::check_device_count`]).
    ///
    /// # Errors
    ///
    /// A message naming both counts.
    pub(crate) fn check_device_count(&self, num_devices: usize) -> Result<(), String> {
        let core = self.current();
        core.stack
            .simulator()
            .bundle()
            .check_device_count(num_devices)
    }

    /// Cumulative prediction-cache statistics of the **active** model
    /// generation, for `/metrics` (a swap resets them with the caches).
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.current().stack.simulator().cache().stats()
    }

    /// Plans `task` from scratch. `degrade` routes through the greedy
    /// chain (deadline pressure); otherwise the full NeuroShard chain
    /// runs.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when every stage of the chain failed (the task
    /// is infeasible even size-balanced), or the accepted plan cannot be
    /// priced because the cost models were trained for another device
    /// count (cause [`nshard_core::PlanError::Invalid`]); carries full
    /// provenance.
    pub fn plan(&self, task: &ShardingTask, degrade: bool) -> Result<PlanOutput, ResilientError> {
        let core = self.current();
        let outcome = if degrade {
            core.degraded.shard_with_provenance(task)?
        } else {
            core.stack.plan(task)?
        };
        finish(&core, task, outcome.plan, outcome.provenance, degrade)
    }

    /// Replans `task` warm-started from `incumbent` through
    /// [`PlanningStack::replan`]: the incremental result when every device
    /// ends within its budget, else a full search. `degrade` skips the
    /// stack entirely (a deadline-pressed replan takes the greedy chain).
    /// Anything but an incremental result is charged with the migration
    /// from the rebased incumbent, or with every byte when the incumbent
    /// no longer rebases.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when the full-search fallback also failed; see
    /// [`PlanningEngine::plan`].
    pub(crate) fn replan(
        &self,
        task: &ShardingTask,
        incumbent: &ShardingPlan,
        degrade: bool,
    ) -> Result<ReplanOutput, ResilientError> {
        let core = self.current();
        let (plan, provenance, incremental) = if degrade {
            let outcome = core.degraded.shard_with_provenance(task)?;
            (outcome.plan, outcome.provenance, None)
        } else {
            let re = core.stack.replan(task, incumbent)?;
            let incremental = match re.route {
                ReplanRoute::Incremental {
                    delta,
                    evaluated_plans,
                } => Some((delta.migration_bytes, evaluated_plans)),
                ReplanRoute::FellBack { .. } => None,
            };
            (re.plan, re.provenance, incremental)
        };
        let output = finish(&core, task, plan, provenance, degrade)?;
        let (migration_bytes, evaluated_plans) = incremental.unwrap_or_else(|| {
            let moved = incumbent
                .rebase(task)
                .map(|base| migration_bytes(&base, &output.plan))
                .unwrap_or_else(|_| task.tables().iter().map(|t| t.memory_bytes()).sum());
            (moved, 0)
        });
        Ok(ReplanOutput {
            output,
            migration_bytes,
            incremental: incremental.is_some(),
            evaluated_plans,
        })
    }
}

/// Prices, ids, and packages an accepted plan against one core (so the
/// whole request is served by a single model generation).
fn finish(
    core: &EngineCore,
    task: &ShardingTask,
    plan: ShardingPlan,
    provenance: PlanProvenance,
    degrade: bool,
) -> Result<PlanOutput, ResilientError> {
    let predicted_ms = match estimate_for_task(core.stack.simulator(), task, &plan) {
        Ok(estimate) => estimate.total_ms(),
        Err(cause) => {
            return Err(ResilientError {
                cause,
                provenance: Box::new(provenance),
            })
        }
    };
    let id = plan_id(task, &plan);
    let degraded = degrade || provenance.is_degraded();
    Ok(PlanOutput {
        id,
        plan,
        provenance,
        predicted_ms,
        degraded,
    })
}

/// Content-addressed plan id: FNV-1a over the task and plan JSON, 16 hex
/// chars. Identical (task, plan) pairs — the only thing a deterministic
/// engine can produce for identical requests — get identical ids, which
/// makes store adoption idempotent and responses bit-identical.
pub(crate) fn plan_id(task: &ShardingTask, plan: &ShardingPlan) -> String {
    let task = serde_json::to_string(task).unwrap_or_default();
    let plan = serde_json::to_string(plan).unwrap_or_default();
    let hash = fnv64_extend(fnv64(task.as_bytes()), b"|");
    format!("{:016x}", fnv64_extend(hash, plan.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_core::{BeamSearch, PlanError};
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::{TableConfig, TableId, TablePool};

    fn engine() -> PlanningEngine {
        let pool = TablePool::synthetic_dlrm(40, 3);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        PlanningEngine::new(
            bundle,
            NeuroShardConfig::smoke(),
            IncrementalConfig::default(),
            7,
        )
    }

    fn task() -> ShardingTask {
        let tables: Vec<TableConfig> = (0..8)
            .map(|i| TableConfig::new(TableId(i), 16 + 16 * (i % 2), 1 << 14, 8.0, 1.05))
            .collect();
        ShardingTask::new(tables, 2, 1 << 30, 1024)
    }

    #[test]
    fn planning_is_deterministic_and_content_addressed() {
        let eng = engine();
        let a = eng.plan(&task(), false).unwrap();
        let b = eng.plan(&task(), false).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.id, b.id);
        assert!(!a.degraded);
        assert!(a.predicted_ms.is_finite() && a.predicted_ms > 0.0);
    }

    #[test]
    fn degraded_path_is_marked_and_still_valid() {
        let eng = engine();
        let t = task();
        let out = eng.plan(&t, true).unwrap();
        assert!(out.degraded);
        assert!(out.plan.validate(&t).is_ok());
        // Different route may mean a different plan — and a different id.
        let full = eng.plan(&t, false).unwrap();
        if full.plan != out.plan {
            assert_ne!(full.id, out.id);
        }
    }

    #[test]
    fn replan_warm_starts_from_the_incumbent() {
        let eng = engine();
        let t = task();
        let incumbent = eng.plan(&t, false).unwrap();
        // Same task: nothing to move.
        let re = eng.replan(&t, &incumbent.plan, false).unwrap();
        assert!(re.incremental);
        assert_eq!(re.migration_bytes, 0);
        assert!(re.output.plan.validate(&t).is_ok());
    }

    #[test]
    fn replan_falls_back_to_full_search_when_rebase_fails() {
        let eng = engine();
        let t = task();
        let incumbent = eng.plan(&t, false).unwrap();
        // A task with a different table count cannot host the incumbent.
        let tables: Vec<TableConfig> = (0..5)
            .map(|i| TableConfig::new(TableId(100 + i), 32, 1 << 14, 8.0, 1.05))
            .collect();
        let drifted = ShardingTask::new(tables, 2, 1 << 30, 1024);
        let re = eng.replan(&drifted, &incumbent.plan, false).unwrap();
        assert!(!re.incremental);
        assert!(re.migration_bytes > 0);
        assert!(re.output.plan.validate(&drifted).is_ok());
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
    fn replan_never_returns_a_plan_validate_rejects() {
        let eng = engine();
        let incumbent = eng.plan(&tight_task(200_000), false).unwrap();
        // The first table outgrows its 67,108,864-byte device and no
        // single move, swap or split fits both devices again: the
        // hill-climb ends at 76,800,000 bytes on device 0.
        let grown = tight_task(300_000);
        let re = eng.replan(&grown, &incumbent.plan, false).unwrap();
        assert!(!re.incremental, "an over-budget patch is not an answer");
        assert_eq!(re.evaluated_plans, 0);
        re.output.plan.validate(&grown).unwrap();
        let full = eng.plan(&grown, false).unwrap();
        assert_eq!(re.output.plan, full.plan);
        assert_eq!(re.output.id, full.id);
        assert_eq!(re.output.plan.device_bytes(), vec![61_440_000, 61_440_000]);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanningEngine>();
    }

    #[test]
    fn swap_bundle_bumps_version_and_clears_caches() {
        let eng = engine();
        assert_eq!(eng.model_version(), 1);
        let t = task();
        let first = eng.plan(&t, false).unwrap();
        assert!(
            eng.cache_stats().misses > 0,
            "planning must touch the prediction cache"
        );

        // Swap in a differently-seeded (differently-initialized) bundle.
        let pool = TablePool::synthetic_dlrm(40, 3);
        let other = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            99,
        );
        assert_eq!(eng.swap_bundle(other), 2);
        assert_eq!(eng.model_version(), 2);
        let stats = eng.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "a promoted model must start with empty caches"
        );

        // The new generation prices plans with the new models.
        let second = eng.plan(&t, false).unwrap();
        assert!(second.plan.validate(&t).is_ok());
        assert_ne!(
            first.predicted_ms, second.predicted_ms,
            "different bundles should price the workload differently"
        );
    }

    /// The Motivation fleet of ISSUE 17: one baseline device, one at 3x
    /// compute time behind a half-bandwidth link.
    fn two_tier_task() -> ShardingTask {
        task().with_devices(nshard_data::DevicePool::two_tier(
            1,
            1 << 30,
            1,
            1 << 30,
            3.0,
            0.5,
        ))
    }

    #[test]
    fn predicted_ms_is_the_search_estimate_on_a_heterogeneous_fleet() {
        let eng = engine();
        let t = two_tier_task();
        let searched = BeamSearch::new(eng.current().stack.simulator(), &eng.search)
            .search(&t)
            .unwrap();
        let planned = eng.plan(&t, false).unwrap();
        assert_eq!(planned.plan, searched.plan);
        assert_eq!(
            planned.predicted_ms.to_bits(),
            searched.estimated_cost_ms.to_bits(),
            "the engine must price the plan for the task's fleet, as the search did"
        );
        // Nothing drifted: the replanner keeps the search's own plan.
        let re = eng.replan(&t, &planned.plan, false).unwrap();
        assert!(re.incremental);
        assert_eq!(re.output.plan, planned.plan);
        assert_eq!(re.migration_bytes, 0);
        assert_eq!(
            re.output.predicted_ms.to_bits(),
            planned.predicted_ms.to_bits()
        );
    }

    #[test]
    fn a_device_count_the_models_cannot_price_is_a_typed_error() {
        let eng = engine();
        let three = ShardingTask::new(task().tables().to_vec(), 3, 1 << 30, 1024);
        let incumbent = eng.plan(&task(), false).unwrap().plan;
        // `catch_unwind` so a panic fails this test instead of aborting
        // the run.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (
                eng.plan(&three, false).map(|out| out.id),
                eng.plan(&three, true).map(|out| out.id),
                eng.replan(&three, &incumbent, false).map(|re| re.output.id),
            )
        }))
        .expect("a mismatched device count must not panic");
        for result in [outcome.0, outcome.1, outcome.2] {
            let err = result.expect_err("the bundle cannot price 3 devices");
            assert!(matches!(err.cause, PlanError::Invalid { .. }), "{err}");
            let text = err.cause.to_string();
            assert!(
                text.contains("3 devices") && text.contains("for 2"),
                "{text}"
            );
        }
    }

    #[test]
    fn plan_ids_do_not_move() {
        // Stored ids are content addresses: this literal pair hashed to
        // this id before the crate's FNV copies were merged.
        let tables = vec![
            TableConfig::new(TableId(0), 16, 1024, 4.0, 1.0),
            TableConfig::new(TableId(1), 32, 2048, 8.0, 1.05),
        ];
        let task = ShardingTask::new(tables.clone(), 2, 1 << 30, 1024);
        let plan = ShardingPlan::new(vec![], tables, vec![0, 1], 2).unwrap();
        assert_eq!(plan_id(&task, &plan), "2462697166e423e7");
    }
}
