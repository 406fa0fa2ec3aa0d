//! # nshard-baselines — every comparator of the paper's evaluation
//!
//! Implements the baseline sharding algorithms of Table 1 / Table 4
//! (Appendix E):
//!
//! * [`greedy`] — **Random** sharding and the four greedy heuristics
//!   (size-, dim-, lookup- and size-lookup-based). Faithful to the paper,
//!   these balance a heuristic cost *without* memory awareness or
//!   column-wise sharding, so they hit out-of-memory failures as table
//!   dimensions grow — the "-" cells of Table 1.
//! * [`rl`] — REINFORCE policy-gradient sharding agents standing in for
//!   **AutoShard** (balances learned computation costs) and **DreamShard**
//!   (balances computation + communication). These are simulations of the
//!   referenced systems: table-wise-only assignment with a stochastic
//!   policy, which reproduces their qualitative behaviour — competitive at
//!   small dimensions, unable to scale to large tables.
//! * [`imitation`] — **self-imitation learning** (Appendix H): distill a
//!   log of NeuroShard plans into a fast one-pass policy sharder.
//! * [`planner`] — a **TorchRec-like** partition planner: supports
//!   column-wise splitting (so it scales to the largest dimensions) but
//!   costs proposals with a *heuristic* (non-learned) cost function, which
//!   is why it trails NeuroShard everywhere.
//!
//! All algorithms implement [`ShardingAlgorithm`] from `nshard-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod greedy;
pub mod imitation;
pub mod planner;
mod policy;
pub mod rl;

pub use greedy::{DimGreedy, LookupGreedy, RandomSharding, SizeGreedy, SizeLookupGreedy};
pub use imitation::{ImitationSharder, SystemLog};
pub use nshard_core::ShardingAlgorithm;
pub use planner::TorchRecLikePlanner;
pub use rl::{RlSharder, RlVariant};

use nshard_core::{PlanError, ShardingPlan};
use nshard_data::ShardingTask;
use nshard_sim::GpuSpec;

/// Returns every baseline of Tables 1 and 4 (without NeuroShard), boxed,
/// in the paper's row order. The random and RL baselines receive `seed`;
/// the RL stand-ins query rewards on `spec`.
pub fn all_baselines(seed: u64, spec: GpuSpec) -> Vec<Box<dyn ShardingAlgorithm>> {
    vec![
        Box::new(RandomSharding::new(seed)),
        Box::new(SizeGreedy),
        Box::new(DimGreedy),
        Box::new(LookupGreedy),
        Box::new(SizeLookupGreedy),
        Box::new(RlSharder::new(RlVariant::AutoShardLike, seed).with_spec(spec)),
        Box::new(RlSharder::new(RlVariant::DreamShardLike, seed).with_spec(spec)),
        Box::new(TorchRecLikePlanner::default()),
    ]
}

/// Helper shared by the baselines: wrap a device assignment (aligned with
/// `task.tables()` order, no column-wise sharding) into a [`ShardingPlan`].
pub(crate) fn plan_from_assignment(
    task: &ShardingTask,
    device_of: Vec<usize>,
) -> Result<ShardingPlan, PlanError> {
    ShardingPlan::new(
        Vec::new(),
        task.tables().to_vec(),
        device_of,
        task.num_devices(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::TablePool;

    #[test]
    fn all_baselines_returns_the_table1_row_order() {
        let algos = all_baselines(7, GpuSpec::rtx_2080_ti());
        let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "random",
                "size_greedy",
                "dim_greedy",
                "lookup_greedy",
                "size_lookup_greedy",
                "autoshard_like",
                "dreamshard_like",
                "torchrec_like",
            ]
        );
    }

    #[test]
    fn all_baselines_are_usable_as_trait_objects() {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let task = ShardingTask::sample(&pool, 2, 4..=6, 8, 3);
        for algo in all_baselines(1, GpuSpec::rtx_2080_ti()) {
            if algo.name().contains("like") && algo.name() != "torchrec_like" {
                continue; // RL agents are exercised (slowly) in their own tests
            }
            let plan = algo.shard(&task).unwrap();
            assert_eq!(plan.num_devices(), 2, "{}", algo.name());
        }
    }

    /// The two-tier pool of `online_loop::tight_devices_are_held_to_their_own_budget`:
    /// a 16 MiB device beside a 5 MiB one, five 2 MiB tables, one of which
    /// doubles. The baselines that reason about memory hold each device to
    /// its own budget: a plan they return validates, and when nothing fits
    /// they say so — never an `Ok` that `validate` rejects because the
    /// tight device was filled to the roomy one's budget.
    #[test]
    fn memory_aware_baselines_hold_tight_devices_to_their_own_budget() {
        use nshard_data::{DevicePool, TableConfig, TableId};
        const MIB: u64 = 1 << 20;
        let tables: Vec<TableConfig> = (0..5)
            .map(|i| TableConfig::new(TableId(i), 32, 1 << 14, 8.0, 1.05))
            .collect();
        let deployed = ShardingTask::new(tables.clone(), 2, 16 * MIB, 64)
            .with_devices(DevicePool::two_tier(1, 16 * MIB, 1, 5 * MIB, 1.0, 1.0));
        let mut grown = tables.clone();
        grown[1] = grown[1].with_hash_size(grown[1].hash_size() * 2);
        let grown = deployed.clone().with_tables(grown);
        // An 8 MiB table that cannot split fits only the roomy device.
        let mut lumpy = tables;
        lumpy[4] = TableConfig::new(TableId(4), 4, 1 << 19, 8.0, 1.05);
        let lumpy = deployed.clone().with_tables(lumpy);

        let mut log = SystemLog::new();
        log.record(&deployed, &SizeGreedy.shard(&deployed).unwrap());
        let algos: [Box<dyn ShardingAlgorithm>; 3] = [
            Box::new(TorchRecLikePlanner::default()),
            Box::new(ImitationSharder::fit(&log, 5, 0)),
            Box::new(RlSharder::new(RlVariant::DreamShardLike, 0)),
        ];
        for task in [&deployed, &grown, &lumpy] {
            for algo in &algos {
                match algo.shard(task) {
                    Ok(plan) => plan.validate(task).unwrap_or_else(|e| {
                        panic!("{} returned a plan validate rejects: {e}", algo.name())
                    }),
                    Err(PlanError::Infeasible { .. }) => {}
                    Err(other) => panic!("{}: {other}", algo.name()),
                }
            }
        }
    }
}
