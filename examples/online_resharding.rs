//! Online re-sharding under workload drift: the same deployment driven
//! through 20 drift epochs under three maintenance strategies —
//!
//! * **never replan** — ride the deploy-time plan through all drift,
//! * **full replan** — re-run the complete NeuroShard search on every
//!   drift trigger (best cost, most bytes moved),
//! * **incremental replan** — warm-start from the incumbent and apply a
//!   migration-aware local-move delta (near-full-replan cost, a fraction
//!   of the bytes); a trace whose predicted cost stalled above the last
//!   full replan's ends in one full replan.
//!
//! Run with:
//! ```sh
//! cargo run --release --example online_resharding
//! ```

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::online::{
    OnlineConfig, OnlineController, ReplanHistory, ReplanStrategy, WorkloadDrift,
};

fn run(bundle: &CostModelBundle, drift: &WorkloadDrift, strategy: ReplanStrategy) -> ReplanHistory {
    let config = OnlineConfig {
        epochs: 20,
        strategy,
        seed: 7,
        ..OnlineConfig::default()
    };
    OnlineController::new(bundle.clone(), drift.clone(), config)
        .run()
        .expect("the initial deployment is feasible")
}

fn main() {
    // 1. Pre-train the cost models once; they serve detection, the
    //    incremental planner and the full search alike.
    let pool = TablePool::synthetic_dlrm(856, 2023);
    println!("pre-training cost models for a 4-GPU cluster...");
    let bundle = CostModelBundle::pretrain(
        &pool,
        4,
        &CollectConfig {
            compute_samples: 2000,
            comm_samples: 1500,
            ..CollectConfig::default()
        },
        &TrainSettings::default(),
        42,
    );

    // 2. A deployment task and the drift trace it will live through:
    //    gradual growth + rotating hotspots + diurnal breathing + a
    //    sudden 3x traffic spike at epoch 10.
    let base = ShardingTask::sample(&pool, 4, 25..=35, 64, 7);
    println!(
        "deployment: {} tables, {:.2} GB of embeddings, {} GPUs, 20 drift epochs",
        base.num_tables(),
        base.total_bytes() as f64 / 1e9,
        base.num_devices()
    );
    let drift = WorkloadDrift::standard(base, 42);

    // 3. Drive the same deployment through the same drift under each
    //    strategy.
    let never = run(&bundle, &drift, ReplanStrategy::Never);
    let full = run(&bundle, &drift, ReplanStrategy::Full);
    let incremental = run(&bundle, &drift, ReplanStrategy::Incremental);

    // 4. Per-epoch ground-truth max-device cost (the paper's real-GPU
    //    metric; "-" marks a memory-infeasible epoch).
    println!("\nground-truth max-device cost per epoch (ms):");
    println!(
        "{:>5} {:>12} {:>12} {:>12}  trigger",
        "epoch", "never", "full", "incremental"
    );
    for e in 0..never.epochs.len() {
        let cell = |h: &ReplanHistory| {
            h.epochs[e]
                .ground_truth_ms
                .map_or_else(|| "-".to_string(), |c| format!("{c:.2}"))
        };
        let trigger = incremental.epochs[e]
            .report
            .as_ref()
            .and_then(|r| r.trigger.as_ref())
            .map_or("", |t| t.kind());
        println!(
            "{e:>5} {:>12} {:>12} {:>12}  {trigger}",
            cell(&never),
            cell(&full),
            cell(&incremental),
        );
    }

    // 5. The trade-off: cost held vs. bytes moved.
    println!("\nstrategy summary:");
    println!(
        "{:>12} {:>8} {:>14} {:>14} {:>16}",
        "strategy", "replans", "mean cost (ms)", "worst (ms)", "bytes moved"
    );
    for h in [&never, &full, &incremental] {
        println!(
            "{:>12} {:>8} {:>14.2} {:>14.2} {:>16}",
            h.strategy.name(),
            h.replans(),
            h.mean_ground_truth_ms(),
            h.worst_ground_truth_ms().unwrap_or(f64::NAN),
            h.total_migration_bytes(),
        );
    }
    let full_bytes = full.total_migration_bytes().max(1);
    println!(
        "\nincremental moved {:.1}% of the bytes of full replanning",
        incremental.total_migration_bytes() as f64 / full_bytes as f64 * 100.0
    );
}
