//! Random sharding and the greedy heuristic baselines (Appendix E.1).
//!
//! Each greedy baseline (1) scores every table with a heuristic cost
//! function and (2) assigns tables in descending score order to the device
//! with the lowest accumulated score. Faithful to the original systems,
//! none of them check the memory budget or split columns — memory failures
//! surface later, at evaluation time, exactly as in the paper's protocol.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nshard_core::{PlanError, ShardingAlgorithm, ShardingPlan};
use nshard_data::{ShardingTask, TableConfig};

use crate::plan_from_assignment;

/// Uniform random table-wise sharding (the paper's weakest baseline).
#[derive(Debug, Clone, Copy)]
pub struct RandomSharding {
    seed: u64,
}

impl RandomSharding {
    /// Creates a random sharder with an explicit seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl ShardingAlgorithm for RandomSharding {
    fn name(&self) -> &str {
        "random"
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        // Derive the task's own stream from its content so one sharder
        // instance handles many tasks independently.
        let mut hash = self.seed;
        for t in task.tables() {
            hash = hash
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(t.id().0) ^ u64::from(t.dim()));
        }
        let mut rng = StdRng::seed_from_u64(hash);
        let device_of = (0..task.num_tables())
            .map(|_| rng.random_range(0..task.num_devices()))
            .collect();
        plan_from_assignment(task, device_of)
    }
}

/// Greedy allocation balancing `cost_fn` (the shared skeleton of the four
/// heuristic baselines).
fn greedy_by(task: &ShardingTask, cost_fn: impl Fn(&TableConfig) -> f64) -> Vec<usize> {
    let costs: Vec<f64> = task.tables().iter().map(&cost_fn).collect();
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).expect("finite costs"));
    let mut device_cost = vec![0.0f64; task.num_devices()];
    let mut device_of = vec![0usize; costs.len()];
    for &i in &order {
        let g = device_cost
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite costs"))
            .map(|(g, _)| g)
            .expect("at least one device");
        device_of[i] = g;
        device_cost[g] += costs[i];
    }
    device_of
}

macro_rules! greedy_baseline {
    ($(#[$doc:meta])* $name:ident, $label:literal, $cost:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl ShardingAlgorithm for $name {
            fn name(&self) -> &str {
                $label
            }

            fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
                #[allow(clippy::redundant_closure_call)]
                let device_of = greedy_by(task, $cost);
                plan_from_assignment(task, device_of)
            }
        }
    };
}

greedy_baseline!(
    /// Balances table sizes (bytes) — reduces out-of-memory risk and
    /// correlates with dimension.
    SizeGreedy,
    "size_greedy",
    |t: &TableConfig| t.memory_bytes() as f64
);

greedy_baseline!(
    /// Balances table dimensions — the determinant of both computation and
    /// communication workloads.
    DimGreedy,
    "dim_greedy",
    |t: &TableConfig| f64::from(t.dim())
);

greedy_baseline!(
    /// Balances dimension × pooling factor — the embedding-lookup workload.
    LookupGreedy,
    "lookup_greedy",
    |t: &TableConfig| f64::from(t.dim()) * t.pooling_factor()
);

greedy_baseline!(
    /// Balances dimension × pooling factor × size — the most comprehensive
    /// heuristic of the four.
    SizeLookupGreedy,
    "size_lookup_greedy",
    |t: &TableConfig| f64::from(t.dim()) * t.pooling_factor() * (t.memory_bytes() as f64).log2()
);

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableId, TablePool};

    fn task() -> ShardingTask {
        let pool = TablePool::synthetic_dlrm(60, 3);
        ShardingTask::sample(&pool, 4, 10..=20, 64, 5)
    }

    #[test]
    fn all_baselines_produce_full_assignments() {
        let task = task();
        let algos: Vec<Box<dyn ShardingAlgorithm>> = vec![
            Box::new(RandomSharding::new(1)),
            Box::new(SizeGreedy),
            Box::new(DimGreedy),
            Box::new(LookupGreedy),
            Box::new(SizeLookupGreedy),
        ];
        for algo in algos {
            let plan = algo.shard(&task).unwrap();
            assert_eq!(
                plan.sharded_tables().len(),
                task.num_tables(),
                "{}",
                algo.name()
            );
            assert!(plan.num_column_splits() == 0);
            assert!(plan.device_of().iter().all(|&d| d < 4));
        }
    }

    #[test]
    fn random_is_seed_deterministic_per_task() {
        let task = task();
        let a = RandomSharding::new(7).shard(&task).unwrap();
        let b = RandomSharding::new(7).shard(&task).unwrap();
        let c = RandomSharding::new(8).shard(&task).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn dim_greedy_balances_dimensions() {
        let task = task();
        let plan = DimGreedy.shard(&task).unwrap();
        let dims = task
            .devices()
            .lowered_dims(&plan.device_profiles(task.batch_size()));
        let max = dims.iter().cloned().fold(0.0, f64::max);
        let min = dims.iter().cloned().fold(f64::INFINITY, f64::min);
        // Greedy on sorted dims keeps the spread below the largest table.
        let largest = task
            .tables()
            .iter()
            .map(|t| f64::from(t.dim()))
            .fold(0.0, f64::max);
        assert!(
            max - min <= largest,
            "spread {} > largest {largest}",
            max - min
        );
    }

    #[test]
    fn size_greedy_balances_bytes() {
        let task = task();
        let plan = SizeGreedy.shard(&task).unwrap();
        let bytes = plan.device_bytes();
        let largest = task
            .tables()
            .iter()
            .map(TableConfig::memory_bytes)
            .max()
            .unwrap();
        let max = *bytes.iter().max().unwrap();
        let min = *bytes.iter().min().unwrap();
        assert!(max - min <= largest);
    }

    #[test]
    fn greedy_ignores_memory_budget_by_design() {
        // A task that cannot fit: the baselines still return a plan; the
        // OOM surfaces at evaluation time (the paper's "-" protocol).
        let huge = TableConfig::new(TableId(0), 128, 32 << 20, 8.0, 1.0); // 16 GB
        let t = ShardingTask::new(vec![huge], 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let plan = SizeGreedy.shard(&t).unwrap();
        assert!(plan.validate(&t).is_err()); // over budget, as expected
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SizeGreedy.name(), "size_greedy");
        assert_eq!(DimGreedy.name(), "dim_greedy");
        assert_eq!(LookupGreedy.name(), "lookup_greedy");
        assert_eq!(SizeLookupGreedy.name(), "size_lookup_greedy");
        assert_eq!(RandomSharding::new(0).name(), "random");
    }
}
