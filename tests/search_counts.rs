//! Count gates for the search's inner loop (ROADMAP item 1) and for the
//! incremental planner's climb: counts repeat exactly, so they are pinned
//! here; timing lives in the repo benchmark.
//!
//! One fixed task is searched at the paper's granularity (`M = 11`, one
//! thread, fresh cache). The numbers the search must **keep** — plans
//! evaluated, distinct questions asked of the cost model (misses), cache
//! entries left behind — are pinned to what the one-pass-per-threshold
//! greedy produced (recorded at the commit before the shared walk landed).
//! The number it must **cut** — prediction-cache lookups — is held to at
//! most half of that commit's. A regression back to `M + 1` greedy passes
//! per candidate fails the lookup bound; a "fast path" that asks the
//! model new questions fails the miss pin. The same search at two threads
//! asks the same questions, so it counts the same misses.
//!
//! A fixed drift script then replays through
//! `IncrementalPlanner::replan`, pinning each replan's plans evaluated,
//! steps, migration bytes and estimated total by bits.

use std::sync::OnceLock;

use neuroshard::core::{size_balanced_plan, IncrementalPlanner, NeuroShard, NeuroShardConfig};
use neuroshard::cost::{CollectConfig, CostModelBundle, CostSimulator, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::online::WorkloadDrift;
use neuroshard::sim::DevicePool;

/// What the one-pass-per-threshold search produced on this task.
const PARENT_EVALUATED_PLANS: usize = 369;
const PARENT_MISSES: u64 = 20_875;
const PARENT_CACHE_ENTRIES: usize = 20_875;
const PARENT_LOOKUPS: u64 = 505_427;

fn pool() -> &'static TablePool {
    static POOL: OnceLock<TablePool> = OnceLock::new();
    POOL.get_or_init(|| TablePool::synthetic_dlrm(80, 11))
}

/// The 4-GPU smoke bundle both gates price with.
fn bundle() -> &'static CostModelBundle {
    static BUNDLE: OnceLock<CostModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        CostModelBundle::pretrain(
            pool(),
            4,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            3,
        )
    })
}

#[test]
fn shared_walk_keeps_the_questions_and_halves_the_lookups() {
    let task = ShardingTask::sample(pool(), 4, 24..=24, 64, 17);
    let search = |threads| {
        let sharder = NeuroShard::new(
            bundle().clone(),
            NeuroShardConfig {
                threads,
                ..NeuroShardConfig::default()
            },
        );
        let outcome = sharder.shard_with_stats(&task).expect("task is feasible");
        let cache = sharder.simulator().cache();
        (outcome, cache.stats(), cache.len())
    };
    let (outcome, stats, entries) = search(1);
    println!(
        "evaluated_plans {} misses {} cache_entries {entries} lookups {} (parent {PARENT_LOOKUPS}, {:.2}x fewer)",
        outcome.evaluated_plans,
        stats.misses,
        stats.total(),
        PARENT_LOOKUPS as f64 / stats.total() as f64
    );
    assert_eq!(outcome.evaluated_plans, PARENT_EVALUATED_PLANS);
    assert_eq!(stats.misses, PARENT_MISSES);
    assert_eq!(entries, PARENT_CACHE_ENTRIES);
    assert!(
        stats.total() * 2 <= PARENT_LOOKUPS,
        "{} lookups, more than half of the parent's {PARENT_LOOKUPS}",
        stats.total()
    );

    // Two threads run a beam level's inner searches side by side on one
    // cache: one miss per entry stored, whoever stores it.
    let (two, two_stats, two_entries) = search(2);
    assert_eq!(two.plan, outcome.plan);
    assert_eq!(two_stats.misses, two_entries as u64);
    assert_eq!(two_stats, stats);
}

/// Per replan of the script: (evaluated plans, delta steps — one per
/// round that accepted a move —, migration bytes, estimated total's bits),
/// recorded before the climb took its price as an argument.
const REPLANS: [(usize, usize, u64, u64); 7] = [
    (1182, 14, 97_804_896, 4_627_250_027_499_094_016),
    (253, 3, 56_016_480, 4_627_336_409_491_963_904),
    (216, 3, 35_138_768, 4_627_479_707_586_134_016),
    (481, 6, 1_147_367_456, 4_628_596_792_877_907_968),
    (413, 4, 90_823_168, 4_628_702_815_487_787_008),
    (397, 4, 3_631_168, 4_628_116_050_343_362_560),
    (266, 3, 1_225_161_504, 4_628_370_387_434_995_712),
];

#[test]
fn incremental_replan_keeps_its_counts() {
    let sim = CostSimulator::new(bundle().clone());
    let planner = IncrementalPlanner::default();
    let base = ShardingTask::sample(pool(), 4, 20..=20, 64, 5);
    let drift = WorkloadDrift::standard(base.clone(), 42);
    let mut incumbent = size_balanced_plan(&base).expect("the base task fits");
    let mut tasks: Vec<ShardingTask> = (1..=6).map(|epoch| drift.task_at(epoch)).collect();
    let mut got = Vec::new();
    for i in 0..REPLANS.len() {
        if i == tasks.len() {
            // The last replan's fleet holds the bytes, but not where the
            // incumbent put them.
            let drifted = drift.task_at(7);
            let bytes = incumbent.rebase(&drifted).unwrap().device_bytes();
            let fair = bytes.iter().sum::<u64>() / 4;
            let budget = (fair + bytes.iter().max().unwrap()) / 2;
            let tight = drifted.with_devices(DevicePool::uniform(4, budget));
            let rebased = incumbent.rebase(&tight).unwrap();
            assert!(rebased.first_over_budget(&tight).is_some());
            tasks.push(tight);
        }
        let out = planner
            .replan(&sim, &tasks[i], &incumbent)
            .expect("the script's incumbents rebase");
        got.push((
            out.evaluated_plans,
            out.delta.steps.len(),
            out.delta.migration_bytes,
            out.cost.total_ms().to_bits(),
        ));
        incumbent = out.plan;
    }
    println!("{got:?}");
    assert_eq!(got, REPLANS);
}
