//! Criterion benchmarks of the parallel search runtime: the work pool at
//! several thread counts and the sharded prediction cache under contention.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use nshard_core::{NeuroShard, NeuroShardConfig, WorkPool};
use nshard_cost::{CollectConfig, CostModelBundle, PredictionCache, TrainSettings};
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

fn bench_threaded_search(c: &mut Criterion) {
    let bundle = quick_bundle(4);
    let pool = TablePool::synthetic_dlrm(60, 2);
    let task = ShardingTask::sample(&pool, 4, 20..=20, 64, 5);
    let mut group = c.benchmark_group("parallel/neuroshard_smoke");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let config = NeuroShardConfig {
            threads,
            ..NeuroShardConfig::smoke()
        };
        let sharder = NeuroShard::new(bundle.clone(), config);
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| {
                sharder
                    .shard_with_stats(black_box(&task))
                    .expect("feasible")
            });
        });
    }
    group.finish();
}

fn bench_work_pool(c: &mut Criterion) {
    let items: Vec<u64> = (0..4096).collect();
    let mut group = c.benchmark_group("parallel/work_pool_4096_items");
    for threads in [1usize, 2, 4] {
        let pool = WorkPool::new(threads);
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| {
                pool.map(black_box(&items), |&x| {
                    x.wrapping_mul(0x9e37_79b9).count_ones()
                })
            });
        });
    }
    group.finish();
}

fn bench_sharded_cache(c: &mut Criterion) {
    let cache = PredictionCache::new();
    for k in 0u64..4096 {
        cache.insert_if_absent(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k as f64);
    }
    c.bench_function("parallel/cache_4096_reads", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for k in 0u64..4096 {
                if let Some(v) = cache.get_counted(black_box(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                {
                    acc += v;
                }
            }
            acc
        });
    });
}

criterion_group!(
    benches,
    bench_threaded_search,
    bench_work_pool,
    bench_sharded_cache
);
criterion_main!(benches);
