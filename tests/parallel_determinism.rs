//! Determinism of the parallel search runtime: the selected plan, its
//! estimated cost (bit-for-bit), and the number of evaluated plans must
//! not depend on the worker-thread count.
//!
//! CI runs this suite twice — once unconstrained and once with
//! `NSHARD_THREADS=8` — so the `threads: 0` (auto) path is exercised at a
//! thread count above the container's CPU count.

use neuroshard::core::{NeuroShard, NeuroShardConfig, ShardOutcome};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};

fn quick_bundle(pool: &TablePool, gpus: usize, seed: u64) -> CostModelBundle {
    CostModelBundle::pretrain(
        pool,
        gpus,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        seed,
    )
}

fn search_config() -> NeuroShardConfig {
    // Larger than smoke so the beam runs several levels and the grid has a
    // real threshold sweep, but small enough for CI.
    NeuroShardConfig {
        n: 4,
        k: 2,
        l: 3,
        m: 5,
        ..NeuroShardConfig::default()
    }
}

fn shard_all(
    bundle: &CostModelBundle,
    config: NeuroShardConfig,
    tasks: &[ShardingTask],
) -> Vec<ShardOutcome> {
    let sharder = NeuroShard::new(bundle.clone(), config);
    tasks
        .iter()
        .map(|t| sharder.shard_with_stats(t).expect("task is feasible"))
        .collect()
}

fn assert_identical(reference: &[ShardOutcome], other: &[ShardOutcome], label: &str) {
    assert_eq!(reference.len(), other.len());
    for (i, (a, b)) in reference.iter().zip(other).enumerate() {
        assert_eq!(a.plan, b.plan, "{label}: plan differs on task {i}");
        assert_eq!(
            a.estimated_cost_ms.to_bits(),
            b.estimated_cost_ms.to_bits(),
            "{label}: cost differs on task {i}"
        );
        assert_eq!(
            a.evaluated_plans, b.evaluated_plans,
            "{label}: evaluated_plans differs on task {i}"
        );
    }
}

#[test]
fn plans_are_identical_across_thread_counts_and_seeds() {
    let pool = TablePool::synthetic_dlrm(80, 11);
    for seed in [3u64, 41] {
        let bundle = quick_bundle(&pool, 4, seed);
        let tasks: Vec<ShardingTask> = (0..3)
            .map(|i| ShardingTask::sample(&pool, 4, 12..=24, 64, seed ^ i))
            .collect();
        let serial = shard_all(&bundle, search_config(), &tasks);
        for threads in [2usize, 4, 8] {
            let parallel = shard_all(
                &bundle,
                NeuroShardConfig {
                    threads,
                    ..search_config()
                },
                &tasks,
            );
            assert_identical(
                &serial,
                &parallel,
                &format!("seed {seed}, {threads} threads"),
            );
        }
    }
}

#[test]
fn auto_thread_count_matches_serial() {
    // threads: 0 resolves via NSHARD_THREADS (CI sets 8) or the host's
    // available parallelism — either way the plan must match serial.
    let pool = TablePool::synthetic_dlrm(60, 7);
    let bundle = quick_bundle(&pool, 4, 5);
    let tasks: Vec<ShardingTask> = (0..2)
        .map(|i| ShardingTask::sample(&pool, 4, 10..=20, 64, 19 + i))
        .collect();
    let serial = shard_all(
        &bundle,
        NeuroShardConfig {
            threads: 1,
            ..search_config()
        },
        &tasks,
    );
    let auto = shard_all(
        &bundle,
        NeuroShardConfig {
            threads: 0,
            ..search_config()
        },
        &tasks,
    );
    assert_identical(&serial, &auto, "auto threads");
}
