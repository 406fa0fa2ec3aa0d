//! Heterogeneous-placement benchmark: the committed Zipf-skew scenario on
//! a two-tier fleet, column-wise-only search vs. the full shard-shape
//! search (row-wise splits + replicated hot tables), compared at the
//! ground-truth simulator.
//!
//! Every run — including `--smoke` in CI — asserts the gates in-binary:
//!
//! 1. every plan is memory-feasible under the *per-device* budgets,
//! 2. on the Zipf-skew heterogeneous scenario the full search's
//!    ground-truth max-device cost is ≤ [`HETERO_GATE`] × the
//!    column-wise-only plan's,
//! 3. plans are bit-identical across worker-thread counts {1, 2, 8}.
//!
//! Usage: `bench_hetero [--smoke] [--seed 9] [--out BENCH_hetero.json]`

use serde::Serialize;

use nshard_bench::{print_markdown_table, Args};
use nshard_core::{evaluate_plan_exact, NeuroShard, NeuroShardConfig, ShardOutcome};
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{DevicePool, ShardingTask, TableConfig, TableId, TablePool};
use nshard_sim::GpuSpec;

/// Gate 2: the full shard-shape search must beat column-wise-only by at
/// least 10% ground-truth max-device cost on the skewed hetero scenario.
const HETERO_GATE: f64 = 0.90;

const DEVICES: usize = 4;
const THREADS: [usize; 3] = [1, 2, 8];

/// The committed Zipf-skew scenario: ten 32 MB tables plus one tall
/// 128 MB table, with lookup traffic concentrated on a dominant hot table
/// (pooling factor 384, Zipf exponent 1.6) and a secondary warm one.
/// Mirrors `tests/hetero_scenarios.rs`.
fn tables() -> Vec<TableConfig> {
    let mut ts: Vec<TableConfig> = (0..10)
        .map(|i| TableConfig::new(TableId(i), 32, 1 << 18, 8.0, 1.0))
        .collect();
    ts.push(TableConfig::new(TableId(10), 8, 1 << 22, 4.0, 0.8));
    ts[0] = ts[0].with_pooling_factor(384.0).with_zipf_alpha(1.6);
    ts[1] = ts[1].with_pooling_factor(48.0).with_zipf_alpha(1.4);
    ts
}

/// Two fast/large devices and two slow/small ones across two nodes, with
/// a 4× intra/inter bandwidth gap.
fn two_tier() -> DevicePool {
    DevicePool::two_tier(2, 192 << 20, 2, 96 << 20, 1.5, 0.25)
}

fn uniform_task() -> ShardingTask {
    ShardingTask::new(tables(), DEVICES, 192 << 20, 4096)
}

fn hetero_task() -> ShardingTask {
    uniform_task().with_devices(two_tier())
}

fn config(full_shapes: bool, threads: usize) -> NeuroShardConfig {
    NeuroShardConfig {
        n: 4,
        k: 2,
        l: 3,
        m: 5,
        use_row_wise: full_shapes,
        use_replication: full_shapes,
        threads,
        ..NeuroShardConfig::default()
    }
}

#[derive(Serialize)]
struct Row {
    fleet: &'static str,
    shapes: &'static str,
    estimated_cost_ms: f64,
    ground_truth_max_ms: f64,
    column_splits: usize,
    row_splits: usize,
    replications: usize,
}

#[derive(Serialize)]
struct Output {
    smoke: bool,
    devices: usize,
    rows: Vec<Row>,
    /// Ground-truth max-device-cost ratio full/column on the
    /// heterogeneous Zipf-skew scenario (gate: ≤ `hetero_gate`).
    hetero_cost_ratio: f64,
    hetero_gate: f64,
    /// True iff the full-shape hetero search is bit-identical at worker
    /// thread counts {1, 2, 8}.
    plans_identical_across_threads: bool,
}

fn shard(bundle: &CostModelBundle, task: &ShardingTask, cfg: NeuroShardConfig) -> ShardOutcome {
    NeuroShard::new(bundle.clone(), cfg)
        .shard_with_stats(task)
        .expect("scenario is feasible")
}

fn row(
    bundle: &CostModelBundle,
    task: &ShardingTask,
    fleet: &'static str,
    full_shapes: bool,
) -> (Row, ShardOutcome) {
    let outcome = shard(bundle, task, config(full_shapes, 1));
    // Gate 1: memory-feasible under per-device budgets.
    outcome
        .plan
        .validate(task)
        .unwrap_or_else(|e| panic!("{fleet} plan is infeasible: {e}"));
    for (d, bytes) in outcome.plan.device_bytes().into_iter().enumerate() {
        assert!(
            bytes <= task.budget_of(d),
            "{fleet}: device {d} holds {bytes} bytes over its budget"
        );
    }
    let gt = evaluate_plan_exact(task, &outcome.plan, &GpuSpec::rtx_2080_ti())
        .expect("feasible plan evaluates");
    let r = Row {
        fleet,
        shapes: if full_shapes {
            "column+row+replicate"
        } else {
            "column-only"
        },
        estimated_cost_ms: outcome.estimated_cost_ms,
        ground_truth_max_ms: gt.max_total_ms(),
        column_splits: outcome.plan.num_column_splits(),
        row_splits: outcome.plan.num_row_splits(),
        replications: outcome.plan.num_replications(),
    };
    (r, outcome)
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let seed: u64 = args.get("seed", 9);
    let out_path = args
        .get_opt("out")
        .unwrap_or_else(|| "BENCH_hetero.json".to_string());

    let pool = TablePool::synthetic_dlrm(80, 0xE7E90);
    eprintln!("pre-training cost models for {DEVICES} GPUs...");
    let (collect, train) = if smoke {
        (CollectConfig::smoke(), TrainSettings::smoke())
    } else {
        (CollectConfig::default(), TrainSettings::default())
    };
    let bundle = CostModelBundle::pretrain(&pool, DEVICES, &collect, &train, seed);

    let uniform = uniform_task();
    let hetero = hetero_task();

    eprintln!("searching the scenario matrix...");
    let (u_col, _) = row(&bundle, &uniform, "uniform", false);
    let (u_full, _) = row(&bundle, &uniform, "uniform", true);
    let (h_col, _) = row(&bundle, &hetero, "two-tier", false);
    let (h_full, h_outcome) = row(&bundle, &hetero, "two-tier", true);

    // Gate 2: the richer shapes pay off on the skewed hetero scenario.
    let ratio = h_full.ground_truth_max_ms / h_col.ground_truth_max_ms;
    assert!(
        ratio <= HETERO_GATE,
        "full-shape search reached only {ratio:.3}× the column-only \
         ground-truth cost (gate {HETERO_GATE})"
    );
    assert!(
        h_full.row_splits + h_full.replications > 0,
        "the winning hetero plan uses neither row splits nor replication"
    );

    // Gate 3: thread-count determinism on the hardest cell.
    eprintln!("checking thread determinism...");
    let mut identical = true;
    for threads in THREADS {
        let o = shard(&bundle, &hetero, config(true, threads));
        identical &= o.plan == h_outcome.plan
            && o.estimated_cost_ms.to_bits() == h_outcome.estimated_cost_ms.to_bits();
    }
    assert!(identical, "plans must not depend on the thread count");

    let rows = vec![u_col, u_full, h_col, h_full];
    print_markdown_table(
        &[
            "fleet",
            "shapes",
            "est (ms)",
            "GT max (ms)",
            "col",
            "row",
            "rep",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.fleet.to_string(),
                    r.shapes.to_string(),
                    format!("{:.4}", r.estimated_cost_ms),
                    format!("{:.4}", r.ground_truth_max_ms),
                    r.column_splits.to_string(),
                    r.row_splits.to_string(),
                    r.replications.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("hetero GT cost ratio (full/column): {ratio:.4} (gate {HETERO_GATE})");

    let output = Output {
        smoke,
        devices: DEVICES,
        rows,
        hetero_cost_ratio: ratio,
        hetero_gate: HETERO_GATE,
        plans_identical_across_threads: identical,
    };
    let json = serde_json::to_string_pretty(&output).expect("results are serializable");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
