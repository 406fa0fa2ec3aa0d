//! The planning engine behind the daemon's endpoints.
//!
//! One [`PlanningEngine`] is shared by every worker thread. It holds the
//! cost-model bundle the daemon booted with, and the search and
//! incremental configurations — nothing that plans.
//!
//! Each request builds its own [`PlanningStack`] around the serving
//! bundle: `POST /v1/plan` is its `plan`, `POST /v1/replan` its `replan`,
//! both handed the worker's `degrade` decision (a request whose remaining
//! deadline budget is too small for a beam search takes the stack's
//! greedy chain instead of erroring). The search, the fall-back, the
//! incremental replan, the charge of the bytes a replan moves and the
//! pricing of the answer all come from that stack and its one simulator,
//! and its prediction and encoding caches are dropped with the response.
//! No cache outlives the request that filled it, so the daemon's memory
//! does not grow with the tasks it has seen, and a body's answer does not
//! depend on the requests before it or beside it.
//!
//! Everything downstream is deterministic (order-preserving work pools,
//! serial batched scoring), so identical requests produce **bit-identical
//! plans at any concurrency** — the serving layer adds no entropy: plan
//! ids are content-addressed hashes of the task + plan JSON, and no
//! timestamps enter response bodies.

use nshard_core::{
    estimate_for_task, NeuroShardConfig, PlanProvenance, ResilientError, ShardingPlan,
};
use nshard_cost::{CacheStats, CostModelBundle};
use nshard_data::ShardingTask;
use nshard_nn::serialize::{fnv64, fnv64_extend};
use nshard_online::{IncrementalConfig, PlanningStack, ReplanRoute};

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
    /// greedy chain (deadline pressure) or the chain itself downgraded.
    pub degraded: bool,
    /// The request's own prediction-cache hits and misses.
    pub cache: CacheStats,
}

/// The planning engine shared by every worker thread: the serving bundle
/// and the configurations each request's planning stack is built with.
pub struct PlanningEngine {
    bundle: CostModelBundle,
    search: NeuroShardConfig,
    incremental: IncrementalConfig,
}

impl PlanningEngine {
    /// Builds the engine from a pre-trained bundle and search knobs.
    ///
    /// `threads = 0` in `search` resolves through the single
    /// [`nshard_pool::THREADS_ENV`] path, so the daemon honors
    /// `NSHARD_THREADS` exactly like the offline binaries. `_seed` is read
    /// by nothing: the chains verify
    /// a plan on its task's fleet, which draws no seed. It stays until the
    /// benchmark surface, which passes it, is next changed.
    pub fn new(
        bundle: CostModelBundle,
        search: NeuroShardConfig,
        incremental: IncrementalConfig,
        _seed: u64,
    ) -> Self {
        Self {
            bundle,
            search,
            incremental,
        }
    }

    /// The device count the serving cost models were trained for.
    pub(crate) fn num_devices(&self) -> usize {
        self.bundle.num_devices()
    }

    /// Whether the serving cost models can price a task on `num_devices`
    /// devices ([`CostModelBundle::check_device_count`]).
    ///
    /// # Errors
    ///
    /// A message naming both counts.
    pub(crate) fn check_device_count(&self, num_devices: usize) -> Result<(), String> {
        self.bundle.check_device_count(num_devices)
    }

    /// One request's planning stack around the serving bundle.
    fn stack(&self) -> PlanningStack {
        PlanningStack::new(self.bundle.clone(), self.search, self.incremental)
    }

    /// Plans `task` from scratch through [`PlanningStack::plan`]: the full
    /// NeuroShard chain, or the greedy chain when `degrade` (deadline
    /// pressure) is set.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when every stage of the chain failed (the task
    /// is infeasible even size-balanced), or the accepted plan cannot be
    /// priced because the cost models were trained for another device
    /// count (cause [`nshard_core::PlanError::Invalid`]); carries full
    /// provenance.
    pub fn plan(&self, task: &ShardingTask, degrade: bool) -> Result<PlanOutput, ResilientError> {
        let stack = self.stack();
        let out = stack.plan(task, degrade)?;
        finish(&stack, task, out.plan, out.provenance, degrade)
    }

    /// Replans `task` warm-started from `incumbent` through
    /// [`PlanningStack::replan`]: the incremental result when every device
    /// ends within its budget, else a full search; with `degrade`, the
    /// greedy chain. Returns the priced plan, the bytes it moves and the
    /// route that made it.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when the fall-back chain also failed; see
    /// [`PlanningEngine::plan`].
    pub(crate) fn replan(
        &self,
        task: &ShardingTask,
        incumbent: &ShardingPlan,
        degrade: bool,
    ) -> Result<(PlanOutput, u64, ReplanRoute), ResilientError> {
        let stack = self.stack();
        let re = stack.replan(task, incumbent, degrade)?;
        let output = finish(&stack, task, re.plan, re.provenance, degrade)?;
        Ok((output, re.migration_bytes, re.route))
    }
}

/// Prices, ids, and packages an accepted plan with the request's own
/// stack (so the plan is priced by the simulator that searched it).
fn finish(
    stack: &PlanningStack,
    task: &ShardingTask,
    plan: ShardingPlan,
    provenance: PlanProvenance,
    degrade: bool,
) -> Result<PlanOutput, ResilientError> {
    let predicted_ms = match estimate_for_task(stack.simulator(), task, &plan) {
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
        cache: stack.simulator().cache().stats(),
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
    use nshard_core::{NeuroShard, PlanError};
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
        let (out, moved, route) = eng.replan(&t, &incumbent.plan, false).unwrap();
        assert!(matches!(route, ReplanRoute::Incremental { .. }));
        assert_eq!(moved, 0);
        assert!(out.plan.validate(&t).is_ok());
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
        let (out, moved, route) = eng.replan(&drifted, &incumbent.plan, false).unwrap();
        assert!(matches!(route, ReplanRoute::FellBack { .. }));
        // Nothing of the incumbent is in place: every byte moves.
        let every_byte: u64 = drifted.tables().iter().map(|t| t.memory_bytes()).sum();
        assert_eq!(moved, every_byte);
        assert!(out.plan.validate(&drifted).is_ok());
        // A deadline-pressed replan is charged by the same rule.
        let (out, moved, _) = eng.replan(&drifted, &incumbent.plan, true).unwrap();
        assert!(out.degraded);
        assert_eq!(moved, every_byte);
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
        let (out, _, route) = eng.replan(&grown, &incumbent.plan, false).unwrap();
        assert!(
            matches!(route, ReplanRoute::FellBack { .. }),
            "an over-budget patch is not an answer"
        );
        out.plan.validate(&grown).unwrap();
        let full = eng.plan(&grown, false).unwrap();
        assert_eq!(out.plan, full.plan);
        assert_eq!(out.id, full.id);
        assert_eq!(out.plan.device_bytes(), vec![61_440_000, 61_440_000]);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanningEngine>();
    }

    #[test]
    fn each_request_starts_with_empty_caches() {
        let eng = engine();
        let t = task();
        let first = eng.plan(&t, false).unwrap();
        let again = eng.plan(&t, false).unwrap();
        // A shared cache would answer every lookup of the twin from the
        // first request's entries.
        assert!(again.cache.misses > 0, "{:?}", again.cache);
        assert_eq!(first.cache.total(), again.cache.total());
        let (replanned, _, _) = eng.replan(&t, &first.plan, false).unwrap();
        assert!(replanned.cache.misses > 0);
    }

    /// One baseline device, one at 3x compute time behind a
    /// half-bandwidth link.
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
        let searched = NeuroShard::new(eng.bundle.clone(), NeuroShardConfig::smoke())
            .shard_with_stats(&t)
            .unwrap();
        let planned = eng.plan(&t, false).unwrap();
        assert_eq!(planned.plan, searched.plan);
        assert_eq!(
            planned.predicted_ms.to_bits(),
            searched.estimated_cost_ms.to_bits(),
            "the engine must price the plan for the task's fleet, as the search did"
        );
        // Nothing drifted: the replanner keeps the search's own plan.
        let (out, moved, route) = eng.replan(&t, &planned.plan, false).unwrap();
        assert!(matches!(route, ReplanRoute::Incremental { .. }));
        assert_eq!(out.plan, planned.plan);
        assert_eq!(moved, 0);
        assert_eq!(out.predicted_ms.to_bits(), planned.predicted_ms.to_bits());
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
                eng.replan(&three, &incumbent, false).map(|re| re.0.id),
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
