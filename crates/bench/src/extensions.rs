//! Experiments beyond the paper's tables: its stated future work (row-wise
//! sharding, self-imitation learning) and §4.2's claim that a linear cost
//! model is not enough. All on the shared 4-GPU DLRM setting.

use serde::Serialize;

use nshard_baselines::{ImitationSharder, LookupGreedy, ShardingAlgorithm, SystemLog};
use nshard_core::{NeuroShard, NeuroShardConfig, ShardingPlan};
use nshard_cost::{
    collect_compute_data, BundleReport, CollectConfig, ComputeCostModel, CostModelBundle,
    TrainSettings,
};
use nshard_data::{TableConfig, TableId};

use crate::repro::{Ctx, Report};
use crate::tables::method_table;
use crate::{cost_cell, evaluate, evaluate_with, markdown_table, MethodRow};

/// Row-wise sharding (§6, future work): 10 tasks salted with a tall-skinny
/// table — minimum dimension, so column-unsplittable, and twice the 4 GB
/// budget — with and without the row-wise extension.
pub(crate) fn ext_rowwise(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Variant {
        neuroshard: MethodRow,
        mean_row_splits: f64,
        mean_col_splits: f64,
    }
    #[derive(Serialize)]
    struct Output {
        rows: Vec<Variant>,
    }
    const SEED: u64 = 12;
    /// Rows of the tall table: 512 Mi rows × dim 4 × 4 bytes = 8.6 GB.
    const TALL_ROWS: u64 = 512 << 20;

    let tasks: Vec<_> = ctx
        .dlrm_tasks(4, 32, 10, SEED ^ 0xE0)
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            let mut tables = task.tables().to_vec();
            let id = TableId(60_000 + i as u32);
            tables.push(TableConfig::new(id, 4, TALL_ROWS, 24.0, 1.1));
            task.with_tables(tables)
        })
        .collect();

    let rows = [
        ("column-wise only (paper)", false),
        ("with row-wise extension", true),
    ]
    .map(|(name, use_row_wise)| {
        let config = NeuroShardConfig {
            use_row_wise,
            ..NeuroShardConfig::default()
        };
        let sharder = ctx.neuroshard(4, config);
        let (neuroshard, plans) =
            evaluate_with(name, &tasks, &Ctx::spec(4), SEED, |t| sharder.shard(t));
        let per_task = |count: fn(&ShardingPlan) -> usize| {
            plans.iter().map(count).sum::<usize>() as f64 / tasks.len() as f64
        };
        Variant {
            mean_row_splits: per_task(|p| p.num_row_splits()),
            mean_col_splits: per_task(|p| p.num_column_splits()),
            neuroshard,
        }
    });

    let table = rows.iter().map(|v| {
        format!(
            "{} | {} | {} | {:.1} | {:.1}",
            v.neuroshard.name,
            cost_cell(v.neuroshard.mean_cost_valid_ms),
            v.neuroshard.success_display(),
            v.mean_row_splits,
            v.mean_col_splits
        )
    });
    let md = format!(
        "# Extension — row-wise sharding on tasks with a tall-skinny table \
         (dim 4, {:.1} GB)\n\n{}\n\
         (The tall table exceeds the per-GPU budget and cannot be split \
         column-wise; only the row-wise extension can place it.)\n",
        TALL_ROWS as f64 * 16.0 / 1e9,
        markdown_table(
            &[
                "variant",
                "cost over successes (ms)",
                "success",
                "row splits/task",
                "col splits/task",
            ],
            table,
        )
    );
    Report::new(&Output { rows: rows.into() }, md)
}

/// Self-imitation learning (Appendix H): a one-pass policy distilled from
/// a log of 20 NeuroShard plans, against full NeuroShard and the best
/// heuristic on 10 held-out tasks (max dim 64) — plan quality vs. speed.
pub(crate) fn ext_imitation(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        rows: Vec<MethodRow>,
        speedup_vs_neuroshard: Option<f64>,
    }
    const SEED: u64 = 13;

    let neuroshard = ctx.neuroshard(4, NeuroShardConfig::default());
    let mut log = SystemLog::new();
    for task in ctx.dlrm_tasks(4, 64, 20, SEED ^ 0xAA00) {
        if let Ok(plan) = neuroshard.shard(&task) {
            log.record(&task, &plan);
        }
    }
    let imitation = ImitationSharder::fit(&log, 40, SEED);

    let held_out = ctx.dlrm_tasks(4, 64, 10, SEED ^ 0xBB00);
    let methods: [&dyn ShardingAlgorithm; 3] = [&LookupGreedy, &imitation, &neuroshard];
    let rows = methods.map(|algo| evaluate(algo, &held_out, &Ctx::spec(4), SEED));
    let speedup = (rows[1].mean_time_s > 0.0).then(|| rows[2].mean_time_s / rows[1].mean_time_s);

    let mut md = format!(
        "# Extension — self-imitation learning (Appendix H), 4 GPUs, max dim 64 \
         ({} logged plans)\n\n{}",
        log.len(),
        method_table(&rows)
    );
    if let Some(s) = speedup {
        md.push_str(&format!(
            "\nimitation policy shards {s:.0}x faster than the full search\n"
        ));
    }
    let output = Output {
        rows: rows.into(),
        speedup_vs_neuroshard: speedup,
    };
    Report::new(&output, md)
}

/// §4.2's closing claim — "an even simpler network (i.e., a linear one)
/// may not work due to the non-linearity of the costs": the paper's
/// compute model and a fully linear one trained on identical data, each
/// searched with on 8 tasks (max dim 128). Only the compute model varies;
/// the communication models are the shared bundle's.
pub(crate) fn ext_linear(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Variant {
        compute_test_mse: f32,
        neuroshard: MethodRow,
    }
    #[derive(Serialize)]
    struct Output {
        rows: Vec<Variant>,
    }
    const SEED: u64 = 15;

    let shared = ctx.bundle(4);
    let (collect, train) = (CollectConfig::default(), TrainSettings::default());
    let spec = Ctx::spec(4);
    let data = collect_compute_data(&ctx.dlrm, spec.kernel(), &collect, SEED);
    let tasks = ctx.dlrm_tasks(4, 128, 8, SEED ^ 0xCC00);

    let rows = [
        ("paper MLP (128-32 / 64)", ComputeCostModel::new(SEED)),
        ("linear model", ComputeCostModel::linear(SEED)),
    ]
    .map(|(name, mut compute)| {
        let compute_test_mse = compute.train(&data, &train, SEED ^ 0x1).test_mse;
        let report = BundleReport {
            compute_test_mse,
            ..*shared.report()
        };
        let bundle = CostModelBundle::from_parts(
            compute,
            shared.comm_fwd_model().clone(),
            shared.comm_bwd_model().clone(),
            collect.batch_size,
            report,
        );
        let sharder = NeuroShard::new(bundle, NeuroShardConfig::default());
        let (neuroshard, _) = evaluate_with(name, &tasks, &spec, SEED, |t| sharder.shard(t));
        Variant {
            compute_test_mse,
            neuroshard,
        }
    });

    let table = rows.iter().map(|v| {
        let (cost, success) = (v.neuroshard.cost_display(), v.neuroshard.success_display());
        format!(
            "{} | {:.3} | {cost} | {success}",
            v.neuroshard.name, v.compute_test_mse
        )
    });
    let md = format!(
        "# Model-capacity ablation (§4.2) — max dim 128, 4 GPUs, {} tasks\n\n{}",
        tasks.len(),
        markdown_table(
            &[
                "compute model",
                "test MSE (ms^2)",
                "embedding cost (ms)",
                "success",
            ],
            table,
        )
    );
    Report::new(&Output { rows: rows.into() }, md)
}
