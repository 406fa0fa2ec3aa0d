//! # nshard-online — workload drift, migration-aware re-sharding and continual learning
//!
//! The paper shards a *static* task: table features are measured once and
//! the plan ships. Production recommendation workloads are not static —
//! pool sizes grow, hot items shift, traffic breathes diurnally — and a
//! plan that was optimal at deploy time slowly (or suddenly) is not.
//!
//! This crate holds what keeps a plan fresh under drift:
//!
//! * [`WorkloadDrift`] — a seeded, bit-deterministic **workload drift trace**
//!   evolving a task's pooling factors, hash sizes and skew over discrete
//!   epochs: [`WorkloadDrift::standard`] composes gradual growth, a
//!   rotating hotspot, a diurnal swing and a sudden spike. Synthetic
//!   drift stands in for real traffic traces the same way the cluster
//!   simulator stands in for real GPUs.
//! * [`IncrementalPlanner`] — the **migration-aware incremental planner**
//!   that warm-starts from the incumbent and hill-climbs over local moves
//!   (move / swap / split), minimizing predicted cost plus a
//!   λ·migration-bytes penalty, and emits a replayable [`PlanDelta`]. It
//!   is `nshard_core::local`'s, the local search it shares with plan
//!   repair, re-exported here with its config, outcome and step type.
//! * [`PlanningStack`] — one sharder (one simulator, one
//!   pair of caches), the two fallback chains around it (the full chain,
//!   and the greedy chain a deadline-pressed request degrades to) and the
//!   incremental planner, for one cost-model bundle. Its `replan` is the
//!   one place that decides *incremental, else a chain*.
//! * [`learn`] — continual learning of the cost models: the
//!   [`ContinualLearner`](learn::ContinualLearner), handed every epoch of
//!   an online loop, buffers ground truth, fine-tunes on drift and
//!   shadow-evaluates each candidate in memory, promoting it or keeping
//!   the incumbent. Its [`ObservationWire`](learn::ObservationWire) is one
//!   ground-truth observation as a deployment reports it, which the serve
//!   daemon buffers and the learner ingests.
//!
//! The closed loop itself — detect drift, replan, measure, learn — is an
//! experiment, `repro ext_online` (`nshard-bench`), which compares never,
//! full and incremental replanning, and frozen against continually
//! fine-tuned models. Everything is bit-deterministic per seed at any
//! thread count.
//!
//! ## Example
//!
//! ```no_run
//! use nshard_core::{IncrementalConfig, NeuroShardConfig};
//! use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
//! use nshard_data::{ShardingTask, TablePool};
//! use nshard_online::{PlanningStack, WorkloadDrift};
//!
//! let pool = TablePool::synthetic_dlrm(856, 2023);
//! let bundle = CostModelBundle::pretrain(
//!     &pool, 4, &CollectConfig::default(), &TrainSettings::default(), 0,
//! );
//! let drift = WorkloadDrift::standard(ShardingTask::sample(&pool, 4, 20..=40, 64, 7), 42);
//! let stack = PlanningStack::new(bundle, NeuroShardConfig::default(), IncrementalConfig::default());
//! let deployed = stack.plan(&drift.task_at(0), false).unwrap().plan;
//! let replanned = stack.replan(&drift.task_at(10), &deployed, false).unwrap();
//! println!("bytes moved at the spike: {}", replanned.migration_bytes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drift;
pub mod learn;
mod stack;

pub use drift::WorkloadDrift;
pub use nshard_core::{
    DeltaStep, IncrementalConfig, IncrementalOutcome, IncrementalPlanner, PlanDelta,
};
pub use stack::{PlanningStack, ReplanOutcome, ReplanRoute};
