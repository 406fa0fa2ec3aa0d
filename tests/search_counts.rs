//! Count gate for the search's inner loop (ROADMAP item 1): counts repeat
//! exactly, so they are pinned here; timing lives in the repo benchmark.
//!
//! One fixed task is searched at the paper's granularity (`M = 11`, one
//! thread, fresh cache). The numbers the search must **keep** — plans
//! evaluated, distinct questions asked of the cost model (misses), cache
//! entries left behind — are pinned to what the one-pass-per-threshold
//! greedy produced (recorded at the commit before the shared walk landed).
//! The number it must **cut** — prediction-cache lookups — is held to at
//! most half of that commit's. A regression back to `M + 1` greedy passes
//! per candidate fails the lookup bound; a "fast path" that asks the
//! model new questions fails the miss pin.

use neuroshard::core::{NeuroShard, NeuroShardConfig};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};

/// What the one-pass-per-threshold search produced on this task.
const PARENT_EVALUATED_PLANS: usize = 369;
const PARENT_MISSES: u64 = 20_875;
const PARENT_CACHE_ENTRIES: usize = 20_875;
const PARENT_LOOKUPS: u64 = 505_427;

#[test]
fn shared_walk_keeps_the_questions_and_halves_the_lookups() {
    let pool = TablePool::synthetic_dlrm(80, 11);
    let bundle = CostModelBundle::pretrain(
        &pool,
        4,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        3,
    );
    let task = ShardingTask::sample(&pool, 4, 24..=24, 64, 17);
    let sharder = NeuroShard::new(
        bundle,
        NeuroShardConfig {
            threads: 1,
            ..NeuroShardConfig::default()
        },
    );
    let outcome = sharder.shard_with_stats(&task).expect("task is feasible");
    let cache = sharder.simulator().cache();
    let stats = cache.stats();
    println!(
        "evaluated_plans {} misses {} cache_entries {} lookups {} (parent {PARENT_LOOKUPS}, {:.2}x fewer)",
        outcome.evaluated_plans,
        stats.misses,
        cache.len(),
        stats.total(),
        PARENT_LOOKUPS as f64 / stats.total() as f64
    );
    assert_eq!(outcome.evaluated_plans, PARENT_EVALUATED_PLANS);
    assert_eq!(stats.misses, PARENT_MISSES);
    assert_eq!(cache.len(), PARENT_CACHE_ENTRIES);
    assert!(
        stats.total() * 2 <= PARENT_LOOKUPS,
        "{} lookups, more than half of the parent's {PARENT_LOOKUPS}",
        stats.total()
    );
}
