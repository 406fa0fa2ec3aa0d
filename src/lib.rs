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
//! * [`online`] — workload drift, the planning stack with its
//!   migration-aware incremental replan, and continual learning of the
//!   cost models (the closed loop is `repro ext_online`).
//! * [`serve`] — sharding-as-a-service daemon: HTTP/1.1 JSON API with
//!   admission control, a versioned plan store, and `/metrics`; it serves
//!   the cost models it booted with.
//! * [`learn`] — `online`'s continual learning: observation buffering,
//!   drift-triggered fine-tuning and in-memory shadow evaluation of each
//!   candidate (promote, or keep the incumbent).
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
//! let plan = nshard_baselines::DimGreedy.shard(&task).unwrap();
//! assert_eq!(plan.num_devices(), 2);
//! ```

#![forbid(unsafe_code)]

pub use nshard_baselines as baselines;
pub use nshard_core as core;
pub use nshard_cost as cost;
pub use nshard_data as data;
pub use nshard_nn as nn;
pub use nshard_online as online;
pub use nshard_online::learn;
pub use nshard_serve as serve;
pub use nshard_sim as sim;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use nshard_baselines::ShardingAlgorithm;
    pub use nshard_core::{NeuroShard, NeuroShardConfig, ShardingPlan};
    pub use nshard_cost::{CostModelBundle, CostSimulator};
    pub use nshard_data::{ShardingTask, TablePool};
    pub use nshard_online::{PlanDelta, WorkloadDrift};
    pub use nshard_serve::{ServeConfig, Server, Service};
    pub use nshard_sim::{Cluster, GpuSpec, TableProfile};
}

/// Resilience: plan repair and graceful degradation.
///
/// Re-exports the repair / fallback machinery of [`nshard_core`]: a chain
/// is one [`nshard_core::shard_with_provenance`] call over its stages,
/// which checks each stage's plan with one [`nshard_core::repair`] call
/// against its task, whose budgets are its fleet's, so a hostile fleet is
/// a [`nshard_data::DevicePool`] on the task. The full NeuroShard chain
/// and the greedy one are [`nshard_online::PlanningStack::plan`]'s.
pub mod resilient {
    pub use nshard_core::{
        repair, shard_with_provenance, size_balanced_plan, PlanProvenance, PlanSource,
        ProvenanceEvent, RepairReport, ResilientError, ResilientOutcome,
    };
}
