//! # nshard-data — synthetic DLRM dataset and sharding-task generation
//!
//! The paper evaluates on Meta's public benchmark sharding dataset
//! (`fbgemm_t856_bs65536.pt`): 856 synthetic embedding tables whose index
//! distributions mirror production DLRM workloads (avg hash size ≈ 4.1 M
//! rows, avg pooling factor ≈ 15 — Table 6). That artifact is a 4 GB
//! Git-LFS download of raw lookup indices; this crate replaces it with a
//! seeded generator that reproduces the dataset's published summary
//! statistics and heavy-tailed (Zipfian) access patterns.
//!
//! On top of the table pool the crate implements the paper's synthetic-input
//! generation pipeline (§3.1 and Appendix B):
//!
//! * [`augment_pool`] — table augmentation over a dimension set (Algorithm 3),
//! * [`CombinationGenerator`] — random table combinations for computation-cost
//!   benchmarking (Algorithm 4),
//! * [`PlacementGenerator`] — random table placements with greedy-with-randomness
//!   balance control and random start timestamps (Algorithm 5),
//! * [`ShardingTask`] and [`TaskGrid`] — the evaluation sharding tasks of Table 5 (number of GPUs ×
//!   max table dimension grid).
//!
//! ## Example
//!
//! ```
//! use nshard_data::{ShardingTask, TablePool};
//!
//! let pool = TablePool::synthetic_dlrm(856, 2023);
//! assert_eq!(pool.len(), 856);
//!
//! // One benchmark task: 10-60 tables onto 4 GPUs, dims up to 128.
//! let task = ShardingTask::sample(&pool, 4, 10..=60, 128, 7);
//! assert!(task.num_tables() >= 10 && task.num_tables() <= 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod combination;
mod indices;
mod placement;
mod pool;
mod table;
mod task;

pub use augment::augment_pool;
pub use combination::{CombinationGenerator, TableCombination};
pub use indices::expected_distinct_fraction;
pub use placement::{Placement, PlacementGenerator};
pub use pool::{PoolStats, TablePool};
pub use table::{TableConfig, TableId, MIN_ROW_SHARD};
pub use task::{ShardingTask, TaskGrid, MAX_WIRE_DEVICES};

// Heterogeneous fleet descriptions live in the simulator crate (they are
// part of the ground-truth cluster model); re-exported here because tasks
// carry them.
pub use nshard_sim::{DevicePool, DeviceProfile};

/// The dimension set used for table augmentation and task sampling
/// throughout the paper: `{4, 8, 16, 32, 64, 128}`.
pub const PAPER_DIMS: [u32; 6] = [4, 8, 16, 32, 64, 128];
