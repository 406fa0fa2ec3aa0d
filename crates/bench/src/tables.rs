//! The experiments that search with pre-trained cost models: Tables 1–4
//! and Figures 8–9. Each asks the [`Ctx`] for its setting's bundle, so a
//! `repro all` run trains every setting once.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use nshard_baselines::{all_baselines, RandomSharding, ShardingAlgorithm};
use nshard_core::{
    cluster_for, estimate_for_task, evaluate_plan, NeuroShard, NeuroShardConfig, ShardingPlan,
};
use nshard_cost::{BundleReport, CollectConfig, CostSimulator};
use nshard_data::{ShardingTask, TaskGrid};
use nshard_sim::{TraceSimulator, DEFAULT_BATCH_SIZE};

use crate::repro::{Ctx, Report, PRODUCTION_GPUS};
use crate::{
    cost_cell, evaluate, evaluate_neuroshard, evaluate_with, markdown_table, pearson, MethodRow,
};

/// The method table of Table 1 and the imitation extension.
pub(crate) fn method_table(rows: &[MethodRow]) -> String {
    markdown_table(
        &["method", "cost (ms)", "success", "time/task"],
        rows.iter().map(|r| {
            let (cost, success) = (r.cost_display(), r.success_display());
            format!("{} | {cost} | {success} | {:.4}s", r.name, r.mean_time_s)
        }),
    )
}

/// Table 1: embedding cost of NeuroShard against every baseline over the
/// 12-cell grid of Table 5, 10 tasks per cell (the paper runs 100).
pub(crate) fn table1(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Cell {
        num_gpus: usize,
        max_dim: u32,
        rows: Vec<MethodRow>,
        improvement_over_best_baseline_pct: Option<f64>,
    }
    #[derive(Serialize)]
    struct Output {
        tasks_per_cell: usize,
        cells: Vec<Cell>,
    }
    const TASKS: usize = 10;
    const SEED: u64 = 3;

    let mut md =
        String::from("# Table 1 — mean embedding cost (ms); \"-\" = failed on >= 1 task\n");
    let mut cells = Vec::new();
    for cell in TaskGrid::paper().cells() {
        let (gpus, max_dim) = (cell.num_devices, cell.max_dim);
        let spec = Ctx::spec(gpus);
        let task_seed = SEED ^ (u64::from(max_dim) << 32) ^ ((gpus as u64) << 24);
        let tasks = ctx.dlrm_tasks(gpus, max_dim, TASKS, task_seed);
        let mut rows: Vec<MethodRow> = all_baselines(SEED, spec)
            .iter()
            .map(|algo| evaluate(algo.as_ref(), &tasks, &spec, SEED))
            .collect();
        let best_baseline = rows
            .iter()
            .filter_map(|r| r.mean_cost_ms)
            .fold(f64::INFINITY, f64::min);
        let neuroshard = ctx.neuroshard(gpus, NeuroShardConfig::default());
        let ours = evaluate(&neuroshard, &tasks, &spec, SEED);
        let improvement = ours
            .mean_cost_ms
            .filter(|_| best_baseline.is_finite())
            .map(|ns| (best_baseline - ns) / best_baseline * 100.0);
        rows.push(ours);

        let _ = write!(
            md,
            "\n## {gpus} GPUs, max dim {max_dim} ({TASKS} tasks)\n\n{}",
            method_table(&rows)
        );
        if let Some(pct) = improvement {
            let _ = writeln!(
                md,
                "\nNeuroShard improvement over strongest baseline: {pct:+.1}%"
            );
        }
        cells.push(Cell {
            num_gpus: gpus,
            max_dim,
            rows,
            improvement_over_best_baseline_pct: improvement,
        });
    }
    let output = Output {
        tasks_per_cell: TASKS,
        cells,
    };
    Report::new(&output, md)
}

/// Table 2: held-out test MSE of the three cost models of every shared
/// bundle — the models the other tables search with.
pub(crate) fn table2(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        settings: Vec<(String, BundleReport)>,
    }

    let settings: Vec<(String, BundleReport)> =
        [("DLRM", 4), ("DLRM", 8), ("Production", PRODUCTION_GPUS)]
            .into_iter()
            .map(|(pool, gpus)| (format!("{pool} ({gpus} GPUs)"), *ctx.bundle(gpus).report()))
            .collect();

    let row = |model: &str, mse: fn(&BundleReport) -> f32| {
        let cells: Vec<String> = settings
            .iter()
            .map(|(_, r)| format!("{:.3}", mse(r)))
            .collect();
        format!("{model} | {}", cells.join(" | "))
    };
    let rows = [
        row("Computation", |r| r.compute_test_mse),
        row("Forward Communication", |r| r.fwd_comm_test_mse),
        row("Backward Communication", |r| r.bwd_comm_test_mse),
    ];
    let mut headers = vec!["model"];
    headers.extend(settings.iter().map(|(name, _)| name.as_str()));
    let md = format!(
        "# Table 2 — testing MSE of the neural cost models (ms^2)\n\n{}\n\
         (Paper values: computation 0.21/0.21/0.26, fwd comm 0.02/0.05/0.05, \
         bwd comm 0.02/0.04/0.15.)\n",
        markdown_table(&headers, rows)
    );
    Report::new(&Output { settings }, md)
}

/// Figure 8 (left): cost estimated by the cost models against the cost
/// measured on the ground-truth cluster, for 100 memory-feasible random
/// plans on 4 GPUs.
pub(crate) fn fig8_left(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        simulated_ms: Vec<f64>,
        real_ms: Vec<f64>,
        correlation: f64,
        mean_abs_err_ms: f64,
    }
    const PLANS: usize = 100;
    const SEED: u64 = 5;

    let sim = CostSimulator::new(ctx.bundle(4));
    let mut simulated = Vec::with_capacity(PLANS);
    let mut real = Vec::with_capacity(PLANS);
    let mut attempt = 0u64;
    while simulated.len() < PLANS {
        let task = &ctx.dlrm_tasks(4, 64, 1, SEED ^ attempt)[0];
        attempt += 1;
        // Random plans can overflow memory; only valid ones are scattered.
        let Ok(plan) = RandomSharding::new(SEED ^ attempt).shard(task) else {
            continue;
        };
        let Ok(costs) = evaluate_plan(task, &plan, &Ctx::spec(4), SEED ^ attempt) else {
            continue;
        };
        let estimate = estimate_for_task(&sim, task, &plan).expect("a 4-GPU plan, a 4-GPU task");
        simulated.push(estimate.total_ms());
        real.push(costs.max_total_ms());
    }
    let r = pearson(&simulated, &real);
    let abs_err = simulated.iter().zip(&real).map(|(s, g)| (s - g).abs());
    let mae = abs_err.sum::<f64>() / PLANS as f64;

    let rows = simulated.iter().zip(&real).take(15);
    let md = format!(
        "# Figure 8 (left) — simulated vs. real cost for {PLANS} random plans\n\n{}\
         (first 15 shown)\n\nPearson r = {r:.4}, mean |error| = {mae:.2} ms\n",
        markdown_table(
            &["simulated (ms)", "real (ms)"],
            rows.map(|(s, g)| format!("{s:.2} | {g:.2}"))
        )
    );
    let output = Output {
        simulated_ms: simulated,
        real_ms: real,
        correlation: r,
        mean_abs_err_ms: mae,
    };
    Report::new(&output, md)
}

/// Figure 8 (middle + right): test MSE and end-to-end sharding cost (max
/// dim 128, 4 GPUs, 8 tasks) against the number of pre-training samples,
/// 10² to 10⁴, a fresh bundle at each point.
pub(crate) fn fig8_samples(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Point {
        samples: usize,
        report: BundleReport,
        neuroshard: MethodRow,
    }
    #[derive(Serialize)]
    struct Output {
        points: Vec<Point>,
    }
    const SEED: u64 = 6;

    let tasks = ctx.dlrm_tasks(4, 128, 8, SEED ^ 0x9000);
    let points: Vec<Point> = [100usize, 1_000, 10_000]
        .into_iter()
        .map(|samples| {
            let collect = CollectConfig {
                compute_samples: samples,
                comm_samples: samples,
                ..CollectConfig::default()
            };
            let bundle = ctx.pretrain(4, collect, SEED);
            let report = *bundle.report();
            let sharder = NeuroShard::new(bundle, NeuroShardConfig::default());
            Point {
                samples,
                report,
                neuroshard: evaluate(&sharder, &tasks, &Ctx::spec(4), SEED),
            }
        })
        .collect();

    let mses = points.iter().map(|p| {
        let r = &p.report;
        format!(
            "{} | {:.3} | {:.3} | {:.3}",
            p.samples, r.compute_test_mse, r.fwd_comm_test_mse, r.bwd_comm_test_mse
        )
    });
    let costs = points.iter().map(|p| {
        let (cost, success) = (p.neuroshard.cost_display(), p.neuroshard.success_display());
        format!("{} | {cost} | {success}", p.samples)
    });
    let md = format!(
        "# Figure 8 (middle) — test MSE vs. training samples\n\n{}\n\
         # Figure 8 (right) — sharding quality vs. training samples (max dim 128, 4 GPUs)\n\n{}",
        markdown_table(
            &["samples", "compute MSE", "fwd comm MSE", "bwd comm MSE"],
            mses
        ),
        markdown_table(&["samples", "embedding cost (ms)", "success"], costs)
    );
    Report::new(&Output { points }, md)
}

/// Table 3 + Table 7: component ablations at max dim 128 on 4 and 8 GPUs,
/// 8 tasks each — cost over the successful tasks, success rate, sharding
/// time and cache hit rates. The searches run on one thread: that is what
/// the paper's time and hit-rate columns describe.
pub(crate) fn table3(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        settings: Vec<(usize, Vec<MethodRow>)>,
    }
    const SEED: u64 = 7;
    type Ablate = fn(&mut NeuroShardConfig);
    // The two search ablations are settings: no column-wise levels, no
    // max-dim thresholds.
    const VARIANTS: [(&str, Ablate); 4] = [
        ("w/o beam search", |c| c.l = 0),
        ("w/o greedy grid search", |c| c.m = 0),
        ("w/o caching", |c| c.use_cache = false),
        ("Full NeuroShard", |_| {}),
    ];

    let mut md = String::new();
    let mut settings = Vec::new();
    for gpus in [4usize, 8] {
        let tasks = ctx.dlrm_tasks(gpus, 128, 8, SEED ^ ((gpus as u64) << 40));
        let rows: Vec<MethodRow> = VARIANTS
            .iter()
            .map(|(name, ablate)| {
                let mut config = NeuroShardConfig {
                    threads: 1,
                    ..NeuroShardConfig::default()
                };
                ablate(&mut config);
                // A fresh sharder per variant: its cache starts empty.
                let sharder = ctx.neuroshard(gpus, config);
                evaluate_neuroshard(name, &sharder, &tasks, &Ctx::spec(gpus), SEED)
            })
            .collect();
        let table = rows.iter().map(|r| {
            let phases = r.phases.expect("evaluate_neuroshard records them");
            let mut all = phases.candidate;
            all.absorb(&phases.inner);
            format!(
                "{} | {} | {} | {:.2} | {:.1}% | {:.1}% | {:.1}%",
                r.name,
                cost_cell(r.mean_cost_valid_ms),
                r.success_display(),
                r.mean_time_s,
                all.hit_rate() * 100.0,
                phases.candidate.hit_rate() * 100.0,
                phases.inner.hit_rate() * 100.0
            )
        });
        let _ = writeln!(
            md,
            "# Table {} — ablation, max dim 128, {gpus} GPUs ({} tasks)\n\n{}",
            if gpus == 4 { "3" } else { "7" },
            tasks.len(),
            markdown_table(
                &[
                    "variant",
                    "cost over successes (ms)",
                    "success",
                    "sharding time (s)",
                    "cache hit rate",
                    "candidate hits",
                    "inner hits",
                ],
                table,
            )
        );
        settings.push((gpus, rows));
    }
    Report::new(&Output { settings }, md)
}

/// Figure 9: embedding cost and sharding time as each search
/// hyperparameter (`N` candidates, `K` beam width, `L` levels, `M` grid
/// granularity) is swept around the defaults, max dim 128, 4 GPUs, 6 tasks.
pub(crate) fn fig9(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Point {
        value: usize,
        neuroshard: MethodRow,
    }
    #[derive(Serialize)]
    struct Output {
        sweeps: Vec<(String, Vec<Point>)>,
    }
    const SEED: u64 = 8;
    type Set = fn(&mut NeuroShardConfig, usize);
    const SWEEPS: [(&str, &[usize], Set); 4] = [
        ("N", &[1, 3, 5, 10, 15], |c, v| c.n = v),
        ("K", &[1, 2, 3, 5], |c, v| c.k = v),
        ("L", &[0, 2, 5, 10, 15], |c, v| c.l = v),
        ("M", &[1, 3, 6, 11, 16], |c, v| c.m = v),
    ];

    let tasks = ctx.dlrm_tasks(4, 128, 6, SEED ^ 0xF19);
    let mut md = String::new();
    let mut sweeps = Vec::new();
    for (name, values, set) in SWEEPS {
        let points: Vec<Point> = values
            .iter()
            .map(|&value| {
                let mut config = NeuroShardConfig::default();
                set(&mut config, value);
                let sharder = ctx.neuroshard(4, config);
                Point {
                    value,
                    neuroshard: evaluate(&sharder, &tasks, &Ctx::spec(4), SEED),
                }
            })
            .collect();
        let rows = points.iter().map(|p| {
            let (cost, success) = (p.neuroshard.cost_display(), p.neuroshard.success_display());
            format!(
                "{} | {cost} | {success} | {:.2}",
                p.value, p.neuroshard.mean_time_s
            )
        });
        let _ = writeln!(
            md,
            "# Figure 9 — sweep of {name} (max dim 128, 4 GPUs, {} tasks)\n\n{}",
            tasks.len(),
            markdown_table(&[name, "cost (ms)", "success", "time (s)"], rows)
        );
        sweeps.push((name.to_string(), points));
    }
    Report::new(&Output { sweeps }, md)
}

/// Table 4: the production pool (multi-terabyte) sharded onto 128
/// datacenter GPUs — embedding cost and end-to-end training throughput
/// relative to random sharding. Following the paper's protocol, the
/// baselines other than the TorchRec-like planner cannot handle the
/// oversized tables, so they run **on top of NeuroShard's column-wise
/// plan** and only re-decide the table-wise assignment.
pub(crate) fn table4(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Row {
        method: MethodRow,
        throughput_samples_per_sec: Option<f64>,
        throughput_improvement_pct: Option<f64>,
    }
    #[derive(Serialize)]
    struct Output {
        num_tables: usize,
        num_gpus: usize,
        total_memory_tb: f64,
        reference_method: &'static str,
        rows: Vec<Row>,
    }
    const SEED: u64 = 9;
    const REFERENCE: &str = "random";
    const DIMS: [u32; 6] = [16, 32, 64, 64, 64, 128];

    let spec = Ctx::spec(PRODUCTION_GPUS);
    // Production dimensions: mixed 16..128, biased to 64.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x77);
    let tables = ctx
        .production
        .iter()
        .map(|t| t.with_dim(DIMS[rng.random_range(0..DIMS.len())]))
        .collect();
    let budget = spec.mem_budget_bytes();
    let task = ShardingTask::new(tables, PRODUCTION_GPUS, budget, DEFAULT_BATCH_SIZE);

    // Every method shards one task; its plan, if feasible, is also timed
    // for steady-state training throughput (samples/s) with the dense
    // network sized like a production DLRM iteration.
    let measure = |algo: &dyn ShardingAlgorithm, task: &ShardingTask| {
        let one = std::slice::from_ref(task);
        let (method, mut plans) = evaluate_with(algo.name(), one, &spec, SEED, |t| algo.shard(t));
        let plan = plans.pop();
        let throughput = plan.as_ref().and_then(|plan: &ShardingPlan| {
            TraceSimulator::new(cluster_for(task, &spec), 30.0)
                .simulate(&plan.device_profiles(task.batch_size()), 20)
                .ok()
                .map(|s| s.throughput_samples_per_sec)
        });
        (method, throughput, plan)
    };
    // The full N=10/K=3/L=10/M=11 search takes minutes at 128 GPUs.
    let search = NeuroShardConfig {
        n: 6,
        k: 2,
        l: 8,
        m: 6,
        ..NeuroShardConfig::default()
    };
    let (ours, our_throughput, column_plan) =
        measure(&ctx.neuroshard(PRODUCTION_GPUS, search), &task);
    let column_plan = column_plan.expect("NeuroShard places the production task");
    let presplit = task
        .clone()
        .with_tables(column_plan.sharded_tables().to_vec());
    let mut measured: Vec<(MethodRow, Option<f64>)> = all_baselines(SEED, spec)
        .iter()
        .map(|algo| {
            // TorchRec plans its own column-wise sharding.
            let own_columns = algo.name() == "torchrec_like";
            let on = if own_columns { &task } else { &presplit };
            let (method, throughput, _) = measure(algo.as_ref(), on);
            (method, throughput)
        })
        .collect();
    measured.push((ours, our_throughput));

    let reference = measured
        .iter()
        .find(|(method, _)| method.name == REFERENCE)
        .and_then(|(_, throughput)| *throughput);
    let rows: Vec<Row> = measured
        .into_iter()
        .map(|(method, throughput)| Row {
            method,
            throughput_samples_per_sec: throughput,
            throughput_improvement_pct: throughput.zip(reference).map(|(t, r)| (t - r) / r * 100.0),
        })
        .collect();

    let total_tb = task.total_bytes() as f64 / 1e12;
    let table = rows.iter().map(|r| {
        let gain = r.throughput_improvement_pct;
        format!(
            "{} | {} | {} | {:.1}",
            r.method.name,
            r.method.cost_display(),
            gain.map_or("-".into(), |p| format!("{p:+.1}%")),
            r.method.mean_time_s
        )
    });
    let mut md = format!(
        "# Table 4 — production model: {} tables, {total_tb:.2} TB, {PRODUCTION_GPUS} GPUs\n\n{}\n\
         (Baselines other than torchrec_like reuse NeuroShard's column-wise plan, per the \
         paper's production protocol. Throughput improvements are relative to {REFERENCE}.)\n",
        task.num_tables(),
        markdown_table(
            &[
                "method",
                "embedding cost (ms)",
                "throughput improvement",
                "sharding time (s)",
            ],
            table,
        )
    );
    if reference.is_none() {
        let _ = writeln!(
            md,
            "\nThe reference method `{REFERENCE}` produced no feasible plan: \
             no throughput improvement can be stated."
        );
    }
    let output = Output {
        num_tables: task.num_tables(),
        num_gpus: PRODUCTION_GPUS,
        total_memory_tb: total_tb,
        reference_method: REFERENCE,
        rows,
    };
    Report::new(&output, md)
}
