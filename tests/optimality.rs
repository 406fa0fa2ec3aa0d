//! Oracles for how near the search lands to the truth (ROADMAP item 1).
//!
//! The ground-truth climb is `IncrementalPlanner`'s hill-climb priced by
//! the exact simulator (`IncrementalPlanner::climb_truth`). Over random
//! memory-feasible plans of smoke tasks it never ends above its start's
//! truth, and its delta, replayed step by step, lowers the truth objective
//! `max_total_ms + λ · migration_GB` at every step, each plan on the way
//! fitting its budgets. CI runs this suite again with `NSHARD_THREADS=8`.

use proptest::prelude::*;

use neuroshard::core::{
    evaluate_plan_exact, migration_bytes, IncrementalConfig, IncrementalPlanner, PlanDelta,
    ShardingPlan,
};
use neuroshard::data::{DevicePool, ShardingTask, TablePool};
use neuroshard::resilient::repair;
use neuroshard::sim::GpuSpec;

fn pool() -> &'static TablePool {
    static POOL: std::sync::OnceLock<TablePool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| TablePool::synthetic_dlrm(40, 3))
}

proptest! {
    #[test]
    fn the_truth_climb_only_ever_lowers_the_truth(
        seed in 0u64..1_000_000,
        devices in 2usize..=4,
        tables in 4usize..=10,
        placement in proptest::collection::vec(0usize..4, 10),
        slack in 1.1f64..2.0,
        lambda in 0.0f64..6.0,
    ) {
        // A tight uniform fleet, so the cluster refuses some candidates.
        let sampled = ShardingTask::sample(pool(), devices, tables..=tables, 64, seed);
        let bytes: u64 = sampled.tables().iter().map(|t| t.memory_bytes()).sum();
        let budget = (bytes as f64 * slack / devices as f64) as u64;
        let task = sampled.with_devices(DevicePool::uniform(devices, budget));
        let placed = placement[..tables].iter().map(|&d| d % devices).collect();
        let plan = ShardingPlan::new(vec![], task.tables().to_vec(), placed, devices).unwrap();
        let fitted = repair(&task, &plan);
        prop_assume!(fitted.is_ok());
        let start = fitted.unwrap().plan;

        let spec = GpuSpec::rtx_2080_ti();
        let planner = IncrementalPlanner::new(IncrementalConfig {
            lambda_ms_per_gb: lambda,
            ..IncrementalConfig::default()
        });
        let out = planner.climb_truth(&task, &start, &spec).unwrap();
        let truth = |plan: &ShardingPlan| evaluate_plan_exact(&task, plan, &spec);
        let start_ms = truth(&start).unwrap().max_total_ms();
        prop_assert!(
            out.cost.max_total_ms() <= start_ms,
            "climbed to {} ms from {start_ms} ms",
            out.cost.max_total_ms()
        );
        prop_assert_eq!(&truth(&out.plan).unwrap(), &out.cost);

        let objective = |plan: &ShardingPlan| {
            let moved = migration_bytes(&start, plan) as f64 / 1e9;
            truth(plan).map(|c| c.max_total_ms() + lambda * moved)
        };
        let mut previous = (start.clone(), objective(&start).unwrap());
        for (i, &step) in out.delta.steps.iter().enumerate() {
            let next = PlanDelta { steps: vec![step], migration_bytes: 0 }
                .apply(&previous.0)
                .unwrap();
            let Ok(next_objective) = objective(&next) else {
                return Err(TestCaseError::fail(format!("step {i} ({step:?}) does not fit")));
            };
            prop_assert!(
                next_objective < previous.1,
                "step {i} ({step:?}) moved the truth objective {} -> {next_objective}",
                previous.1
            );
            previous = (next, next_objective);
        }
        prop_assert_eq!(&previous.0, &out.plan);
    }
}

/// A start the fleet cannot hold is refused, not climbed.
#[test]
fn an_over_budget_start_is_infeasible() {
    let sampled = ShardingTask::sample(pool(), 2, 6..=6, 64, 1);
    let bytes: u64 = sampled.tables().iter().map(|t| t.memory_bytes()).sum();
    let task = sampled.with_devices(DevicePool::uniform(2, bytes * 3 / 4));
    let all_on_one = ShardingPlan::new(vec![], task.tables().to_vec(), vec![0; 6], 2).unwrap();
    let err = IncrementalPlanner::default()
        .climb_truth(&task, &all_on_one, &GpuSpec::rtx_2080_ti())
        .unwrap_err();
    assert!(
        matches!(err, neuroshard::core::PlanError::Infeasible { .. }),
        "{err}"
    );
}
