//! Production-scale sharding: place a multi-terabyte DLRM's embedding
//! tables onto a 128-GPU RDMA cluster and measure the end-to-end training
//! throughput — a miniature of the paper's Table 4 deployment.
//!
//! Run with:
//! ```sh
//! cargo run --release --example production_sharding
//! ```

use neuroshard::baselines::{DimGreedy, ShardingAlgorithm};
use neuroshard::core::{cluster_for, evaluate_plan, NeuroShard, NeuroShardConfig};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::sim::{GpuSpec, TraceSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let num_gpus = 128;
    let spec = GpuSpec::datacenter();

    // An ultra-large production model: ~600 tables, terabyte-scale.
    let pool = TablePool::synthetic_production(600, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let dims = [16u32, 32, 64, 64, 128];
    let tables: Vec<_> = pool
        .iter()
        .map(|t| t.with_dim(dims[rng.random_range(0..dims.len())]))
        .collect();
    let task = ShardingTask::new(tables, num_gpus, spec.mem_budget_bytes(), 65_536);
    println!(
        "production model: {} tables, {:.2} TB of embeddings, {num_gpus} GPUs",
        task.num_tables(),
        task.total_bytes() as f64 / 1e12
    );

    println!("\npre-training cost models on the production cluster laws...");
    let bundle = CostModelBundle::pretrain_with_spec(
        &pool,
        num_gpus,
        &spec,
        &CollectConfig {
            compute_samples: 4000,
            comm_samples: 2500,
            placement_tables: Some((300, 700)),
            ..CollectConfig::default()
        },
        &TrainSettings::default(),
        3,
    );

    let neuroshard = NeuroShard::new(bundle, NeuroShardConfig::default());
    println!("searching (beam over column-wise plans, grid over max device dim)...");
    let outcome = neuroshard
        .shard_with_stats(&task)
        .expect("production task is feasible with column-wise sharding");
    println!(
        "NeuroShard: {} column splits, sharding took {:.1}s",
        outcome.plan.num_column_splits(),
        outcome.sharding_time_s
    );

    // Compare against dimension-greedy on embedding cost and throughput.
    let greedy_plan = DimGreedy
        .shard(&task)
        .expect("greedy always returns a plan");
    for (name, plan) in [("neuroshard", &outcome.plan), ("dim_greedy", &greedy_plan)] {
        match evaluate_plan(&task, plan, &spec, 1) {
            Ok(costs) => {
                let trace = TraceSimulator::new(cluster_for(&task, &spec), 30.0)
                    .simulate(&plan.device_profiles(task.batch_size()), 20)
                    .expect("plan fits");
                println!(
                    "{name:12} embedding cost {:7.2} ms | iteration {:7.2} ms | \
                     {:9.0} samples/s | max idle {:6.2} ms",
                    costs.max_total_ms(),
                    trace.iteration_ms,
                    trace.throughput_samples_per_sec,
                    trace.max_idle_ms
                );
            }
            Err(e) => println!("{name:12} failed: {e}"),
        }
    }
}
