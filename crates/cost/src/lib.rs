//! # nshard-cost — pre-trained neural cost models
//!
//! The "pre-train" half of the paper's *pre-train, and search* paradigm.
//! This crate turns the simulator (the reproduction's GPU stand-in) into
//! training data and learns three neural cost models (§3.2, Figure 5):
//!
//! * a **computation cost model** — a DeepSets-style network: a shared MLP
//!   (128-32) encodes each table's features, the encodings are element-wise
//!   summed into a fixed-size combination representation, and a head MLP
//!   (32-64) regresses the fused-kernel forward+backward cost;
//! * a **forward communication cost model** and a **backward communication
//!   cost model** — MLPs (128-64-32-16) regressing the max all-to-all
//!   latency from per-GPU start timestamps and transferred data sizes.
//!
//! Once trained, a [`CostSimulator`] estimates the embedding cost of *any*
//! sharding plan for *any* task without touching the ground-truth oracle —
//! exactly how NeuroShard avoids real GPU execution during search. A
//! life-long [`PredictionCache`] memoizes computation-cost queries; the
//! paper reports > 95% hit rates during search (Table 3).
//!
//! ## Example
//!
//! ```no_run
//! use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
//! use nshard_data::TablePool;
//!
//! let pool = TablePool::synthetic_dlrm(856, 2023);
//! let bundle = CostModelBundle::pretrain(
//!     &pool,
//!     4,                        // GPUs
//!     &CollectConfig::default(),
//!     &TrainSettings::default(),
//!     42,
//! );
//! println!("compute test MSE: {}", bundle.report().compute_test_mse);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod collect;
mod comm_model;
mod compute;
mod features;
mod simulator;

pub use cache::{CacheStats, PredictionCache, TableEncodings, TableSetKey};
pub use collect::{
    collect_comm_data, collect_compute_data, CollectConfig, CommDataset, ComputeDataset,
    ComputeSample,
};
pub use comm_model::CommCostModel;
pub use compute::ComputeCostModel;
pub use features::{comm_feature_dim, comm_features, table_features, TABLE_FEATURE_DIM};
pub use nshard_nn::{TrainReport, TrainSettings};
pub use simulator::{BundleReport, CostModelBundle, CostSimulator, DeviceLoads, EstimatedCost};
