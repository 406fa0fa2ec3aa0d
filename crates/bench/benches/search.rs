//! Criterion benchmarks of the online search: the greedy grid-search inner
//! loop and the full NeuroShard beam search, at the paper's hyperparameters
//! and at the smoke configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nshard_core::{greedy_grid::GreedyGridSearch, NeuroShard, NeuroShardConfig};
use nshard_cost::{CollectConfig, CostModelBundle, CostSimulator, TrainSettings};
use nshard_data::{ShardingTask, TablePool};

fn quick_bundle(d: usize) -> CostModelBundle {
    let pool = TablePool::synthetic_dlrm(60, 1);
    CostModelBundle::pretrain(
        &pool,
        d,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        7,
    )
}

fn bench_greedy_grid(c: &mut Criterion) {
    let sim = CostSimulator::new(quick_bundle(4));
    let pool = TablePool::synthetic_dlrm(60, 2);
    let task = ShardingTask::sample(&pool, 4, 30..=30, 64, 5);
    let search = GreedyGridSearch::new(&sim, 11);
    let budgets = task.budgets();
    c.bench_function("search/greedy_grid_30tables_4gpu", |b| {
        b.iter(|| {
            search
                .search_with_devices(
                    black_box(task.tables()),
                    4,
                    &budgets,
                    None,
                    task.batch_size(),
                )
                .expect("feasible")
        });
    });
}

fn bench_full_neuroshard(c: &mut Criterion) {
    let pool = TablePool::synthetic_dlrm(60, 2);
    let task = ShardingTask::sample(&pool, 4, 20..=20, 64, 5);
    let smoke = NeuroShard::new(quick_bundle(4), NeuroShardConfig::smoke());
    c.bench_function("search/neuroshard_smoke_20tables", |b| {
        b.iter(|| smoke.shard_with_stats(black_box(&task)).expect("feasible"));
    });
    let full = NeuroShard::new(quick_bundle(4), NeuroShardConfig::default());
    let mut group = c.benchmark_group("search/neuroshard_paper_params");
    group.sample_size(10);
    group.bench_function("20tables_4gpu", |b| {
        b.iter(|| full.shard_with_stats(black_box(&task)).expect("feasible"));
    });
    group.finish();
}

criterion_group!(benches, bench_greedy_grid, bench_full_neuroshard);
criterion_main!(benches);
