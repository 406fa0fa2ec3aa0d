//! # NeuroShard — pre-train and search for embedding table sharding
//!
//! A Rust reproduction of *"Pre-train and Search: Efficient Embedding Table
//! Sharding with Pre-trained Neural Cost Models"* (Zha et al., MLSys 2023).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`sim`] — deterministic GPU execution simulator (ground-truth oracle).
//! * [`data`] — synthetic DLRM table pool and sharding-task generation.
//! * [`nn`] — minimal dense neural-network library (MLP + Adam + MSE).
//! * [`cost`] — the pre-trained neural cost models and data collection.
//! * [`core`] — the NeuroShard online search (beam + greedy grid search).
//! * [`baselines`] — every comparator of the paper's Table 1 / Table 4.
//! * [`online`] — workload drift, drift detection and migration-aware
//!   incremental re-sharding (the deployed-plan maintenance loop).
//! * [`serve`] — sharding-as-a-service daemon: HTTP/1.1 JSON API with
//!   admission control, a versioned plan/model store, and `/metrics`.
//! * [`learn`] — continual learning: observation buffering, drift-triggered
//!   fine-tuning and the versioned promote-or-rollback model lifecycle.
//!
//! See the repository README for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use neuroshard::prelude::*;
//!
//! // 1. A synthetic table pool (the paper's DLRM dataset stand-in).
//! let pool = TablePool::synthetic_dlrm(16, 0xD15EA5E);
//!
//! // 2. A tiny sharding task: place 8 tables onto 2 GPUs.
//! let task = ShardingTask::sample(&pool, 2, 8..=8, 64, 0x5EED);
//!
//! // 3. Shard with a heuristic baseline (no pre-training needed here).
//! let plan = nshard_baselines::greedy::DimGreedy.shard(&task).unwrap();
//! assert_eq!(plan.num_devices(), 2);
//! ```

#![forbid(unsafe_code)]

pub use nshard_baselines as baselines;
pub use nshard_core as core;
pub use nshard_cost as cost;
pub use nshard_data as data;
pub use nshard_learn as learn;
pub use nshard_nn as nn;
pub use nshard_online as online;
pub use nshard_serve as serve;
pub use nshard_sim as sim;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use nshard_baselines::ShardingAlgorithm;
    pub use nshard_core::{FallbackChain, NeuroShard, NeuroShardConfig, ShardingPlan};
    pub use nshard_cost::{CostModelBundle, CostSimulator};
    pub use nshard_data::{ShardingTask, TablePool};
    pub use nshard_online::{
        OnlineConfig, OnlineController, PlanDelta, ReplanHistory, ReplanStrategy, WorkloadDrift,
    };
    pub use nshard_serve::{ServeConfig, Server, Service};
    pub use nshard_sim::{Cluster, Fault, FaultPlan, FaultyCluster, GpuSpec, TableProfile};
}

/// Resilience: fault injection, plan repair and graceful degradation.
///
/// Re-exports the fault layer of [`nshard_sim`] and the repair / fallback
/// machinery of [`nshard_core`]. The wired-up NeuroShard chain lives in
/// [`nshard_online::PlanningStack`].
pub mod resilient {
    pub use nshard_core::{
        size_balanced_plan, FallbackChain, PlanProvenance, PlanSource, ProvenanceEvent,
        RepairConfig, RepairEngine, RepairReport, ResilientError, ResilientOutcome,
    };
    pub use nshard_sim::{Fault, FaultPlan, FaultyCluster};
}
