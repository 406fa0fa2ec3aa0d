//! Table 4: application to an ultra-large production model — shard ~1000
//! tables (multi-terabyte) onto 128 GPUs on an RDMA cluster, reporting
//! embedding cost and end-to-end training-throughput improvement.
//!
//! Following the paper's protocol, the baselines other than the
//! TorchRec-like planner cannot handle the oversized production tables, so
//! they are run **on top of NeuroShard's column-wise plan** and only
//! re-decide the table-wise assignment.
//!
//! Usage:
//! `table4_production [--tables 1000] [--gpus 128] [--epochs 30]
//!  [--skip-rl] [--seed 9] [--out t4.json]`

use serde::Serialize;

use nshard_baselines::{
    DimGreedy, LookupGreedy, RandomSharding, RlSharder, RlVariant, ShardingAlgorithm, SizeGreedy,
    SizeLookupGreedy, TorchRecLikePlanner,
};
use nshard_bench::{maybe_write_json, print_markdown_table, Args};
use nshard_core::{cluster_for, evaluate_plan, NeuroShard, NeuroShardConfig, ShardingPlan};
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{ShardingTask, TablePool};
use nshard_sim::{GpuSpec, TraceSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Serialize)]
struct Row {
    name: String,
    embedding_cost_ms: Option<f64>,
    throughput_improvement_pct: Option<f64>,
    sharding_time_s: f64,
}

#[derive(Serialize)]
struct Output {
    num_tables: usize,
    num_gpus: usize,
    total_memory_tb: f64,
    rows: Vec<Row>,
}

/// Measures steady-state training throughput of a plan (samples/s).
fn throughput(task: &ShardingTask, plan: &ShardingPlan, spec: &GpuSpec) -> Option<f64> {
    // Dense-network compute sized like a production DLRM iteration.
    let sim = TraceSimulator::new(cluster_for(task, spec), 30.0);
    sim.simulate(&plan.device_profiles(task.batch_size()), 20)
        .ok()
        .map(|s| s.throughput_samples_per_sec)
}

fn main() {
    let args = Args::from_env();
    let n_tables: usize = args.get("tables", 1000);
    let d: usize = args.get("gpus", 128);
    let seed: u64 = args.get("seed", 9);
    let skip_rl = args.has("skip-rl");
    let collect = CollectConfig {
        compute_samples: args.get("compute-samples", 8000),
        comm_samples: args.get("comm-samples", 4000),
        placement_tables: Some(((n_tables / 2).max(2), n_tables + n_tables / 5)),
        combo_tables: (1, 20),
        ..CollectConfig::default()
    };
    let train = TrainSettings {
        epochs: args.get("epochs", 30),
        ..TrainSettings::default()
    };
    // Production-scale search hyperparameters (the full N=10/K=3/L=10/M=11
    // search at 128 GPUs takes ~15 min; these defaults finish in a few).
    let search_config = NeuroShardConfig {
        n: args.get("n", 6),
        k: args.get("k", 2),
        l: args.get("l", 8),
        m: args.get("m", 6),
        ..NeuroShardConfig::default()
    };

    let spec = GpuSpec::datacenter();
    let pool = TablePool::synthetic_production(n_tables, seed);
    // Assign production dimensions: mixed 16..128, biased to 64.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
    let dims = [16u32, 32, 64, 64, 64, 128];
    let tables: Vec<_> = pool
        .iter()
        .map(|t| t.with_dim(dims[rng.random_range(0..dims.len())]))
        .collect();
    let task = ShardingTask::new(tables, d, spec.mem_budget_bytes(), 65_536);
    let total_tb = task.total_bytes() as f64 / 1e12;
    eprintln!(
        "production task: {} tables, {:.2} TB embeddings, {d} GPUs x {} GB",
        task.num_tables(),
        total_tb,
        spec.mem_budget_bytes() / (1 << 30)
    );

    eprintln!("pre-training production cost models...");
    let bundle =
        CostModelBundle::pretrain_with_spec(&pool, d, &spec, &collect, &train, seed ^ 0xBEE);
    let neuroshard = NeuroShard::new(bundle, search_config);

    eprintln!("running NeuroShard...");
    let t0 = std::time::Instant::now();
    let ns_outcome = neuroshard
        .shard_with_stats(&task)
        .expect("production task must be feasible for NeuroShard");
    let ns_time = t0.elapsed().as_secs_f64();
    eprintln!(
        "  NeuroShard: {} column splits, est {:.1} ms, {:.1}s",
        ns_outcome.plan.num_column_splits(),
        ns_outcome.estimated_cost_ms,
        ns_time
    );

    // The baselines re-shard table-wise on top of NeuroShard's column plan.
    let presplit_task = task
        .clone()
        .with_tables(ns_outcome.plan.sharded_tables().to_vec());

    let mut algos: Vec<(Box<dyn ShardingAlgorithm>, bool)> = vec![
        (Box::new(RandomSharding::new(seed)), true),
        (Box::new(SizeGreedy), true),
        (Box::new(DimGreedy), true),
        (Box::new(LookupGreedy), true),
        (Box::new(SizeLookupGreedy), true),
    ];
    if !skip_rl {
        algos.push((
            Box::new(RlSharder::new(RlVariant::AutoShardLike, seed).with_spec(spec)),
            true,
        ));
        algos.push((
            Box::new(RlSharder::new(RlVariant::DreamShardLike, seed).with_spec(spec)),
            true,
        ));
    }
    // TorchRec plans its own column-wise sharding (paper's protocol).
    algos.push((Box::new(TorchRecLikePlanner::default()), false));

    let mut rows: Vec<Row> = Vec::new();
    let mut random_throughput: Option<f64> = None;
    for (algo, use_presplit) in &algos {
        eprintln!("running {}...", algo.name());
        let work_task = if *use_presplit { &presplit_task } else { &task };
        let t0 = std::time::Instant::now();
        let plan = algo.shard(work_task);
        let elapsed = t0.elapsed().as_secs_f64();
        let (cost, tput) = match plan {
            Ok(p) => {
                let cost = evaluate_plan(work_task, &p, &spec, seed)
                    .ok()
                    .map(|c| c.max_total_ms());
                let tput = cost.and_then(|_| throughput(work_task, &p, &spec));
                (cost, tput)
            }
            Err(_) => (None, None),
        };
        if algo.name() == "random" {
            random_throughput = tput;
        }
        let improvement = match (tput, random_throughput) {
            (Some(t), Some(r)) if r > 0.0 => Some((t - r) / r * 100.0),
            _ => None,
        };
        rows.push(Row {
            name: algo.name().to_string(),
            embedding_cost_ms: cost,
            throughput_improvement_pct: improvement,
            sharding_time_s: elapsed,
        });
    }

    // NeuroShard itself (on the original task).
    let ns_cost = evaluate_plan(&task, &ns_outcome.plan, &spec, seed)
        .ok()
        .map(|c| c.max_total_ms());
    let ns_tput = throughput(&task, &ns_outcome.plan, &spec);
    let ns_improvement = match (ns_tput, random_throughput) {
        (Some(t), Some(r)) if r > 0.0 => Some((t - r) / r * 100.0),
        _ => None,
    };
    rows.push(Row {
        name: "neuroshard".to_string(),
        embedding_cost_ms: ns_cost,
        throughput_improvement_pct: ns_improvement,
        sharding_time_s: ns_time,
    });

    println!(
        "\n# Table 4 — production model: {} tables, {:.2} TB, {d} GPUs\n",
        task.num_tables(),
        total_tb
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.embedding_cost_ms
                    .map_or("-".into(), |c| format!("{c:.1}")),
                r.throughput_improvement_pct
                    .map_or("-".into(), |p| format!("{p:+.1}%")),
                format!("{:.1}", r.sharding_time_s),
            ]
        })
        .collect();
    print_markdown_table(
        &[
            "method",
            "embedding cost (ms)",
            "throughput improvement",
            "sharding time (s)",
        ],
        &table,
    );
    println!(
        "\n(Baselines other than torchrec_like reuse NeuroShard's column-wise plan, \
         per the paper's production protocol. Throughput improvements are relative \
         to random sharding.)"
    );

    maybe_write_json(
        &args,
        &Output {
            num_tables: task.num_tables(),
            num_gpus: d,
            total_memory_tb: total_tb,
            rows,
        },
    );
}
