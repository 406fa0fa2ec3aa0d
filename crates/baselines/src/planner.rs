//! A TorchRec-like partition planner (Appendix E.3).
//!
//! TorchRec's planner enumerates per-table sharding options (including
//! column-wise splits), costs them with a built-in *heuristic* performance
//! model, and partitions shards across devices subject to memory. That
//! gives it the scalability of column-wise sharding — it is the only
//! baseline that survives every max-dimension column of Table 1 — but its
//! non-learned cost function leaves consistent performance on the table
//! relative to NeuroShard.
//!
//! This reproduction mirrors that structure: several global proposals
//! (different split depths × different balancing heuristics), each
//! partitioned greedily under the memory budget, scored by the heuristic
//! max-device cost, best proposal wins.

use nshard_core::{
    apply_split_plan, PlanError, ShardingAlgorithm, ShardingPlan, SplitPlan, SplitStep,
};
use nshard_data::{ShardingTask, TableConfig};

/// The TorchRec-like planning baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct TorchRecLikePlanner {
    _private: (),
}

/// Balancing heuristics the planner tries per proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heuristic {
    /// dim × pooling factor (embedding-lookup work proxy).
    Lookup,
    /// Storage bytes.
    Storage,
    /// dim only (communication proxy).
    Dim,
}

impl Heuristic {
    fn cost(self, t: &TableConfig) -> f64 {
        match self {
            Heuristic::Lookup => f64::from(t.dim()) * t.pooling_factor(),
            Heuristic::Storage => t.memory_bytes() as f64,
            Heuristic::Dim => f64::from(t.dim()),
        }
    }
}

/// The column-wise split plan that halves the first shard whose byte size
/// exceeds `threshold` until all shards fit (or can no longer split), and
/// the shards it leaves. Bounded by the total dimension budget, so it
/// always terminates.
pub(crate) fn split_until_fits(
    tables: &[TableConfig],
    threshold: u64,
) -> (SplitPlan, Vec<TableConfig>) {
    let mut plan = SplitPlan::new();
    let mut list = tables.to_vec();
    while let Some(idx) = list
        .iter()
        .position(|t| t.memory_bytes() > threshold && t.split_columns().is_some())
    {
        let (a, b) = list[idx].split_columns().expect("checked splittable");
        plan.push(SplitStep::column(idx));
        list[idx] = a;
        list.push(b);
    }
    (plan, list)
}

impl TorchRecLikePlanner {
    /// Memory-aware greedy partition of `shards` over devices of `budgets`
    /// bytes, balancing `heuristic`. Returns `None` when some shard fits on
    /// no device.
    fn partition(
        shards: &[TableConfig],
        budgets: &[u64],
        heuristic: Heuristic,
    ) -> Option<Vec<usize>> {
        let num_devices = budgets.len();
        let costs: Vec<f64> = shards.iter().map(|t| heuristic.cost(t)).collect();
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).expect("finite costs"));

        let mut device_cost = vec![0.0f64; num_devices];
        let mut device_bytes = vec![0u64; num_devices];
        let mut device_of = vec![0usize; shards.len()];
        for &i in &order {
            let bytes = shards[i].memory_bytes();
            let g = (0..num_devices)
                .filter(|&g| device_bytes[g] + bytes <= budgets[g])
                .min_by(|&a, &b| {
                    device_cost[a]
                        .partial_cmp(&device_cost[b])
                        .expect("finite costs")
                })?;
            device_of[i] = g;
            device_cost[g] += costs[i];
            device_bytes[g] += bytes;
        }
        Some(device_of)
    }
}

impl ShardingAlgorithm for TorchRecLikePlanner {
    fn name(&self) -> &str {
        "torchrec_like"
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        let budgets = task.budgets();
        // Proposal grid: split thresholds (as a fraction of the largest
        // device's budget) × balancing heuristics. Smaller thresholds split
        // more aggressively; the partition holds each device to its own.
        let budget = task.devices().max_budget();
        let thresholds = [budget, budget / 2, budget / 4, budget / 8];
        let heuristics = [Heuristic::Lookup, Heuristic::Storage, Heuristic::Dim];

        let mut best: Option<(f64, SplitPlan, Vec<TableConfig>, Vec<usize>)> = None;
        for &threshold in &thresholds {
            let (split_plan, shards) = split_until_fits(task.tables(), threshold);
            for &h in &heuristics {
                let Some(device_of) = Self::partition(&shards, budgets, h) else {
                    continue;
                };
                // Normalize the heuristic score so proposals from different
                // heuristics are comparable: use the lookup heuristic as the
                // planner's global objective (TorchRec's perf estimate).
                let mut per_dev = vec![0.0f64; task.num_devices()];
                for (i, &d) in device_of.iter().enumerate() {
                    per_dev[d] += Heuristic::Lookup.cost(&shards[i]);
                }
                let score = per_dev.iter().cloned().fold(0.0, f64::max);
                if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                    best = Some((score, split_plan.clone(), shards.clone(), device_of));
                }
            }
        }

        let (_, split_plan, shards, device_of) = best.ok_or_else(|| PlanError::Infeasible {
            reason: "no proposal fits the memory budget".into(),
        })?;
        debug_assert_eq!(
            apply_split_plan(task.tables(), &split_plan).as_deref(),
            Ok(&shards[..]),
        );
        ShardingPlan::new(split_plan, shards, device_of, task.num_devices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableId, TablePool};

    fn t(id: u32, dim: u32, rows: u64) -> TableConfig {
        TableConfig::new(TableId(id), dim, rows, 8.0, 1.0)
    }

    #[test]
    fn plans_simple_tasks_without_splits() {
        let pool = TablePool::synthetic_dlrm(50, 3);
        let task = ShardingTask::sample(&pool, 4, 10..=20, 16, 5);
        let plan = TorchRecLikePlanner::default().shard(&task).unwrap();
        assert!(plan.validate(&task).is_ok());
    }

    #[test]
    fn splits_oversized_tables() {
        // 16 GB table, 4 GB budget: needs at least 4-way split.
        let huge = t(0, 128, 32 << 20);
        let task = ShardingTask::new(
            vec![huge, t(1, 16, 1 << 16)],
            8,
            nshard_sim::DEFAULT_MEM_BYTES,
            65_536,
        );
        let plan = TorchRecLikePlanner::default().shard(&task).unwrap();
        assert!(plan.num_column_splits() >= 3);
        assert!(plan.validate(&task).is_ok());
    }

    #[test]
    fn scales_to_max_dimension_128() {
        let pool = TablePool::synthetic_dlrm(100, 9);
        for seed in 0..5 {
            let task = ShardingTask::sample(&pool, 4, 10..=60, 128, seed);
            let plan = TorchRecLikePlanner::default().shard(&task).unwrap();
            assert!(plan.validate(&task).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn reports_infeasible_when_nothing_fits() {
        // Unsplittable (dim 4) table larger than the budget.
        let impossible = t(0, 4, 1 << 30); // 16 GB at dim 4
        let task = ShardingTask::new(vec![impossible], 2, 1 << 20, 65_536);
        assert!(matches!(
            TorchRecLikePlanner::default().shard(&task),
            Err(PlanError::Infeasible { .. })
        ));
    }

    #[test]
    fn split_until_fits_terminates_and_covers() {
        let tables = vec![t(0, 128, 1 << 22)]; // 2 GB
        let (plan, shards) = split_until_fits(&tables, 1 << 28); // 256 MB
        assert!(!plan.is_empty());
        assert!(shards.iter().all(|s| s.memory_bytes() <= 1 << 28));
        // Total memory conserved.
        let total: u64 = shards.iter().map(TableConfig::memory_bytes).sum();
        assert_eq!(total, tables[0].memory_bytes());
        // The recorded plan reproduces the shards.
        assert_eq!(apply_split_plan(&tables, &plan).unwrap(), shards);
        assert!(plan
            .iter()
            .all(|s| s.kind == nshard_core::SplitKind::Column));
    }
}
