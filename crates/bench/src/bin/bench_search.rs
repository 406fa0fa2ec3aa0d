//! Parallel-search benchmark: runs table1-scale NeuroShard searches at 1,
//! 2, 4 and 8 worker threads, verifying that every thread count returns
//! bit-identical plans, plus one uncached run that isolates the inference
//! cost, and writes the timings to `BENCH_search.json`.
//!
//! Thread scaling is bounded by the host: the JSON records
//! `hardware_threads` so flat curves on small containers are explainable.
//!
//! Usage:
//! `bench_search [--tasks 6] [--tables-min 10] [--tables-max 60]
//!  [--epochs 6] [--seed 3] [--out BENCH_search.json]`

use std::time::Instant;

use serde::Serialize;

use nshard_bench::{print_markdown_table, Args};
use nshard_core::{NeuroShard, NeuroShardConfig, ShardOutcome};
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{ShardingTask, TablePool};

#[derive(Serialize)]
struct ThreadRow {
    threads: usize,
    wall_clock_s: f64,
    evaluated_plans: usize,
    plans_per_s: f64,
    cache_hit_rate: f64,
    speedup_vs_1_thread: f64,
}

#[derive(Serialize)]
struct Output {
    /// Logical CPUs visible to this process — thread scaling is bounded
    /// above by this number.
    hardware_threads: usize,
    tasks: usize,
    num_gpus: usize,
    search: NeuroShardConfig,
    rows: Vec<ThreadRow>,
    /// The 1-thread workload with the prediction cache disabled — every
    /// query reaches the model, isolating the inference cost. *Not*
    /// compared against the cached runs: the cache canonicalizes costs (the
    /// first computed value is reused for every permutation of a table
    /// set), while uncached recomputation sum-pools in per-call order — an
    /// ablation, not a determinism bug.
    nocache_batched: ThreadRow,
    /// True iff every thread count returned the same plan and bit-identical
    /// cost for every task (at the default cached configuration).
    plans_identical: bool,
}

fn run(
    bundle: &CostModelBundle,
    config: NeuroShardConfig,
    tasks: &[ShardingTask],
) -> (f64, Vec<ShardOutcome>) {
    let sharder = NeuroShard::new(bundle.clone(), config);
    let t0 = Instant::now();
    let outcomes: Vec<ShardOutcome> = tasks
        .iter()
        .map(|t| sharder.shard_with_stats(t).expect("task is feasible"))
        .collect();
    (t0.elapsed().as_secs_f64(), outcomes)
}

fn row(threads: usize, wall: f64, outcomes: &[ShardOutcome], base_wall: f64) -> ThreadRow {
    let evaluated: usize = outcomes.iter().map(|o| o.evaluated_plans).sum();
    let hit_rate =
        outcomes.iter().map(|o| o.cache_hit_rate).sum::<f64>() / outcomes.len().max(1) as f64;
    ThreadRow {
        threads,
        wall_clock_s: wall,
        evaluated_plans: evaluated,
        plans_per_s: evaluated as f64 / wall.max(1e-9),
        cache_hit_rate: hit_rate,
        speedup_vs_1_thread: base_wall / wall.max(1e-9),
    }
}

fn same_plans(a: &[ShardOutcome], b: &[ShardOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.plan == y.plan
                && x.estimated_cost_ms.to_bits() == y.estimated_cost_ms.to_bits()
                && x.evaluated_plans == y.evaluated_plans
        })
}

fn main() {
    let args = Args::from_env();
    let tasks_n: usize = args.get("tasks", 6);
    let t_min: usize = args.get("tables-min", 10);
    let t_max: usize = args.get("tables-max", 60);
    let seed: u64 = args.get("seed", 3);
    let collect = CollectConfig {
        compute_samples: args.get("compute-samples", 1200),
        comm_samples: args.get("comm-samples", 900),
        ..CollectConfig::default()
    };
    let train = TrainSettings {
        epochs: args.get("epochs", 6),
        ..TrainSettings::default()
    };
    let out_path = args
        .get_opt("out")
        .unwrap_or_else(|| "BENCH_search.json".to_string());

    let num_gpus = 4usize;
    let pool = TablePool::synthetic_dlrm(856, 2023);
    eprintln!("pre-training cost models for {num_gpus} GPUs...");
    let bundle = CostModelBundle::pretrain(&pool, num_gpus, &collect, &train, seed);
    let tasks: Vec<ShardingTask> = (0..tasks_n)
        .map(|i| ShardingTask::sample(&pool, num_gpus, t_min..=t_max, 128, seed ^ i as u64))
        .collect();

    let search = NeuroShardConfig::default();
    let mut rows = Vec::new();
    let mut base_wall = 0.0;
    let mut base_outcomes: Vec<ShardOutcome> = Vec::new();
    let mut identical = true;

    for threads in [1usize, 2, 4, 8] {
        eprintln!("searching {tasks_n} tasks at {threads} thread(s)...");
        let (wall, outcomes) = run(&bundle, NeuroShardConfig { threads, ..search }, &tasks);
        if threads == 1 {
            base_wall = wall;
            base_outcomes = outcomes.clone();
        } else {
            identical &= same_plans(&base_outcomes, &outcomes);
        }
        rows.push(row(threads, wall, &outcomes, base_wall));
    }

    eprintln!("searching {tasks_n} tasks with the cache disabled...");
    let (nocache_wall, nocache_outcomes) = run(
        &bundle,
        NeuroShardConfig {
            threads: 1,
            use_cache: false,
            ..search
        },
        &tasks,
    );
    let nocache_batched = row(1, nocache_wall, &nocache_outcomes, base_wall);

    let output = Output {
        hardware_threads: std::thread::available_parallelism().map_or(1, usize::from),
        tasks: tasks_n,
        num_gpus,
        search,
        rows,
        nocache_batched,
        plans_identical: identical,
    };

    println!(
        "\n# Parallel search, {} tasks, {} GPUs, {} hardware thread(s)\n",
        tasks_n, num_gpus, output.hardware_threads
    );
    let table: Vec<Vec<String>> = output
        .rows
        .iter()
        .map(|r| (format!("batched, {} thread(s)", r.threads), r))
        .chain([("batched, no cache".to_string(), &output.nocache_batched)])
        .map(|(name, r)| {
            vec![
                name,
                format!("{:.2}", r.wall_clock_s),
                format!("{:.0}", r.plans_per_s),
                format!("{:.1}%", r.cache_hit_rate * 100.0),
                format!("{:.2}x", r.speedup_vs_1_thread),
            ]
        })
        .collect();
    print_markdown_table(
        &["engine", "wall clock (s)", "plans/s", "hit rate", "speedup"],
        &table,
    );
    println!("\nplans identical: {identical}");
    assert!(identical, "plans must not depend on the thread count");

    let json = serde_json::to_string_pretty(&output).expect("results are serializable");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
