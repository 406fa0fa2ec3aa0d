//! # nshard-core — the NeuroShard online search
//!
//! The "search" half of the paper's *pre-train, and search* paradigm
//! (§3.3): given any sharding task, find the joint column-wise + table-wise
//! sharding plan minimizing the simulated embedding cost
//!
//! ```text
//! argmin_{c ∈ C, t ∈ T}  f(c, t)
//! ```
//!
//! where `f` is estimated entirely by the pre-trained cost models — no GPU
//! (here: no ground-truth simulator) execution during search.
//!
//! * [`plan`] — column-wise and table-wise plan types and their semantics,
//! * [`greedy_grid`] — the inner loop (Algorithm 2): a greedy allocator
//!   balancing predicted computation costs under a max-device-dimension
//!   constraint found by grid search,
//! * [`beam`] — the outer loop (Algorithm 1): beam search over column-wise
//!   sharding steps, candidates drawn from the most costly and the largest
//!   tables,
//! * [`neuroshard`] — the end-to-end [`NeuroShard`] sharder,
//! * [`eval`] — pricing a finished plan for its task's fleet: ground truth
//!   (the paper's "collect real costs from GPUs" step) and its learned
//!   twin, the one place outside the search that lowers a fleet to scales,
//! * [`local`] — local search over plans in one step vocabulary
//!   ([`DeltaStep`], [`PlanDelta`]): [`RepairEngine`] makes an infeasible
//!   plan fit (evict-and-replace onto the least-loaded device that fits)
//!   and [`IncrementalPlanner`] hill-climbs from an incumbent under a
//!   migration-regularized cost,
//! * [`fallback`] — the graceful-degradation chain, verifying on the
//!   task's (faulted) fleet, with full [`PlanProvenance`] attribution.
//!
//! ## Example
//!
//! ```no_run
//! use nshard_core::{NeuroShard, NeuroShardConfig, ShardingAlgorithm};
//! use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
//! use nshard_data::{ShardingTask, TablePool};
//!
//! let pool = TablePool::synthetic_dlrm(856, 2023);
//! let bundle = CostModelBundle::pretrain(
//!     &pool, 4, &CollectConfig::default(), &TrainSettings::default(), 0,
//! );
//! let sharder = NeuroShard::new(bundle, NeuroShardConfig::default());
//! let task = ShardingTask::sample(&pool, 4, 10..=60, 128, 7);
//! let outcome = sharder.shard_with_stats(&task).expect("task is feasible");
//! println!("estimated embedding cost: {:.2} ms", outcome.estimated_cost_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beam;
pub mod eval;
pub mod fallback;
pub mod greedy_grid;
pub mod local;
pub mod neuroshard;
pub mod plan;

pub use beam::{BeamSearch, BeamSearchResult, SearchPhaseStats};
pub use eval::{
    cluster_for, estimate_batch_for_task, estimate_for_task, evaluate_plan, evaluate_plan_exact,
};
pub use fallback::{
    size_balanced_plan, FailoverAttribution, FallbackChain, PlanProvenance, PlanSource,
    ProvenanceEvent, ReplanAttribution, ResilientError, ResilientOutcome,
};
pub use greedy_grid::{GreedyGridSearch, GridSearchResult};
pub use local::{
    DeltaStep, IncrementalConfig, IncrementalOutcome, IncrementalPlanner, PlanDelta, RepairConfig,
    RepairEngine, RepairReport,
};
pub use neuroshard::{ConfigError, NeuroShard, NeuroShardConfig, ShardOutcome};
pub use nshard_pool::{resolve_threads, WorkPool};
pub use plan::{
    apply_column_plan, apply_split_plan, migration_bytes, ColumnPlan, PlanError, ShardingPlan,
    SplitKind, SplitPlan, SplitStep,
};

use nshard_data::ShardingTask;

/// A table-sharding algorithm: anything that can map a [`ShardingTask`] to
/// a [`ShardingPlan`]. Implemented by [`NeuroShard`] and by every baseline
/// in `nshard-baselines`.
pub trait ShardingAlgorithm {
    /// Short display name used in experiment tables (e.g. `"neuroshard"`).
    fn name(&self) -> &str;

    /// Produces a sharding plan for `task`.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when the algorithm cannot produce a memory-feasible
    /// plan — the "-" cells of Table 1.
    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError>;
}

/// A shared algorithm is an algorithm: a [`FallbackChain`] can run the
/// same [`NeuroShard`] — hence the same simulator and caches — that its
/// owner keeps a handle to.
impl<T: ShardingAlgorithm + ?Sized> ShardingAlgorithm for std::sync::Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        (**self).shard(task)
    }
}
