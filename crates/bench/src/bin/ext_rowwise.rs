//! Extension experiment (paper §6, future work): **row-wise sharding**.
//!
//! The paper's column-wise mechanism cannot partition "tall-skinny" tables
//! — minimum dimension (4) but an enormous row count. This experiment salts
//! benchmark tasks with such tables and compares NeuroShard with and
//! without the row-wise extension on success rate and embedding cost.
//!
//! Usage: `ext_rowwise [--tasks 10] [--tall-rows 512] [--seed 12]
//!         [--out ext_rowwise.json]`
//! (`--tall-rows` is the tall table's row count in millions.)

use serde::Serialize;

use nshard_bench::{maybe_write_json, print_markdown_table, Args};
use nshard_core::{evaluate_plan, NeuroShard, NeuroShardConfig};
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{ShardingTask, TableConfig, TableId, TablePool};
use nshard_sim::GpuSpec;

#[derive(Serialize)]
struct VariantRow {
    name: String,
    mean_cost_ms: Option<f64>,
    success_rate: f64,
    mean_row_splits: f64,
    mean_col_splits: f64,
}

#[derive(Serialize)]
struct Output {
    rows: Vec<VariantRow>,
}

fn main() {
    let args = Args::from_env();
    let tasks_n: usize = args.get("tasks", 10);
    let tall_rows_m: u64 = args.get("tall-rows", 512);
    let seed: u64 = args.get("seed", 12);
    let collect = CollectConfig {
        compute_samples: args.get("compute-samples", 6000),
        comm_samples: args.get("comm-samples", 4000),
        ..CollectConfig::default()
    };
    let train = TrainSettings {
        epochs: args.get("epochs", 30),
        ..TrainSettings::default()
    };

    let pool = TablePool::synthetic_dlrm(856, 2023);
    let spec = GpuSpec::rtx_2080_ti();
    eprintln!("pre-training for 4 GPUs...");
    let bundle = CostModelBundle::pretrain(&pool, 4, &collect, &train, seed);

    // Tasks salted with a tall-skinny table: dim 4 (cannot column-split),
    // `tall_rows_m` million rows (8 GB at 512 M — twice the 4 GB budget).
    let tasks: Vec<ShardingTask> = (0..tasks_n)
        .map(|i| {
            let base = ShardingTask::sample(&pool, 4, 10..=30, 32, seed ^ 0xE0 ^ i as u64);
            let mut tables = base.tables().to_vec();
            tables.push(TableConfig::new(
                TableId(60_000 + i as u32),
                4,
                tall_rows_m << 20,
                24.0,
                1.1,
            ));
            base.with_tables(tables)
        })
        .collect();

    let mut rows = Vec::new();
    for (name, row_wise) in [
        ("column-wise only (paper)", false),
        ("with row-wise extension", true),
    ] {
        let config = NeuroShardConfig {
            use_row_wise: row_wise,
            ..NeuroShardConfig::default()
        };
        let sharder = NeuroShard::new(bundle.clone(), config);
        let mut costs = Vec::new();
        let mut successes = 0usize;
        let mut row_splits = 0usize;
        let mut col_splits = 0usize;
        for (i, task) in tasks.iter().enumerate() {
            let Ok(outcome) = sharder.shard_with_stats(task) else {
                continue;
            };
            if let Ok(real) = evaluate_plan(task, &outcome.plan, &spec, seed ^ i as u64) {
                successes += 1;
                costs.push(real.max_total_ms());
                row_splits += outcome.plan.num_row_splits();
                col_splits += outcome.plan.num_column_splits();
            }
        }
        rows.push(VariantRow {
            name: name.to_string(),
            mean_cost_ms: if costs.is_empty() {
                None
            } else {
                Some(costs.iter().sum::<f64>() / costs.len() as f64)
            },
            success_rate: successes as f64 / tasks.len() as f64,
            mean_row_splits: row_splits as f64 / tasks.len() as f64,
            mean_col_splits: col_splits as f64 / tasks.len() as f64,
        });
    }

    println!(
        "# Extension — row-wise sharding on tasks with a tall-skinny table \
         (dim 4, {tall_rows_m} M rows = {:.1} GB)\n",
        (tall_rows_m << 20) as f64 * 16.0 / 1e9
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.mean_cost_ms.map_or("-".into(), |c| format!("{c:.2}")),
                format!("{:.0}%", r.success_rate * 100.0),
                format!("{:.1}", r.mean_row_splits),
                format!("{:.1}", r.mean_col_splits),
            ]
        })
        .collect();
    print_markdown_table(
        &[
            "variant",
            "cost (ms)",
            "success",
            "row splits/task",
            "col splits/task",
        ],
        &table,
    );
    println!(
        "\n(The tall table exceeds the per-GPU budget and cannot be split \
         column-wise; only the row-wise extension can place it.)"
    );

    maybe_write_json(&args, &Output { rows });
}
