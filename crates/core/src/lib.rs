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
//! * `plan` — split plans, placements and the plan type that joins them
//!   ([`ShardingPlan`], [`SplitPlan`]),
//! * `greedy_grid` — the inner loop (Algorithm 2, [`GreedyGridSearch`]): a
//!   greedy allocator balancing predicted computation costs under a
//!   max-device-dimension constraint found by grid search,
//! * `beam` — the outer loop (Algorithm 1): beam search over column-wise
//!   sharding steps, candidates drawn from the most costly and the largest
//!   tables; [`NeuroShard::shard_with_stats`] is its one entry and
//!   [`ShardOutcome`] its one record,
//! * `neuroshard` — the end-to-end [`NeuroShard`] sharder and its
//!   [`NeuroShardConfig`],
//! * `eval` — pricing a finished plan for its task's fleet: ground truth
//!   (the paper's "collect real costs from GPUs" step) and its learned
//!   twin ([`estimate_for_task`]), the one place outside the search that
//!   lowers a fleet to scales,
//! * `local` — local search over plans in one step vocabulary
//!   ([`DeltaStep`], [`PlanDelta`]): [`repair`] makes an infeasible
//!   plan fit (evict-and-replace onto the least-loaded device that fits)
//!   and [`IncrementalPlanner`] hill-climbs from an incumbent under a
//!   migration-regularized cost, priced by the cost models or, for
//!   [`IncrementalPlanner::climb_truth`], by the ground truth,
//! * `fallback` — the graceful-degradation chain
//!   ([`shard_with_provenance`]): the stages it is given in preference
//!   order, then the size-balanced last resort, each stage's plan checked
//!   by one [`repair`] call against its task, with full
//!   [`PlanProvenance`] attribution.
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

mod beam;
mod eval;
mod fallback;
mod greedy_grid;
mod local;
mod neuroshard;
mod plan;

pub use beam::SearchPhaseStats;
pub use eval::{
    cluster_for, estimate_batch_for_task, estimate_for_task, evaluate_plan, evaluate_plan_exact,
};
pub use fallback::{
    shard_with_provenance, size_balanced_plan, PlanProvenance, PlanSource, ProvenanceEvent,
    ResilientError, ResilientOutcome,
};
pub use greedy_grid::{GreedyGridSearch, GridSearchResult};
pub use local::{
    repair, DeltaStep, IncrementalConfig, IncrementalOutcome, IncrementalPlanner, PlanDelta,
    RepairReport,
};
pub use neuroshard::{NeuroShard, NeuroShardConfig, ShardOutcome};
pub use plan::{
    apply_split_plan, migration_bytes, replan_migration_bytes, PlanError, ShardingPlan, SplitKind,
    SplitPlan, SplitStep,
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
