//! End-to-end properties of the online re-sharding loop:
//!
//! * a [`PlanDelta`] replayed against the incumbent reproduces the
//!   incremental planner's output exactly (the delta is the full story),
//! * the incremental plan is never worse than the incumbent under the
//!   drifted workload (in predicted cost),
//! * on a two-tier fleet every budget comparison is against the device's
//!   own budget, not the fleet's largest, and the replanner prices plans
//!   for that fleet exactly as the search does — replanning the search's
//!   own plan with nothing drifted keeps it and moves nothing,
//! * a replan whose incumbent no longer rebases is charged every byte of
//!   the task — CI runs this suite again with `NSHARD_THREADS=8`.
//!
//! The closed loop itself — triggers and strategies over a 20-epoch
//! trace — is `repro ext_online`; its replanning gate is the last test
//! here, on the regenerated experiment.

use neuroshard::core::estimate_for_task;
use neuroshard::cost::{CollectConfig, CostModelBundle, CostSimulator, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::online::{IncrementalPlanner, WorkloadDrift};
use neuroshard::prelude::*;
use neuroshard::sim::DevicePool;
use proptest::prelude::*;

fn quick_bundle(pool: &TablePool, gpus: usize, seed: u64) -> CostModelBundle {
    CostModelBundle::pretrain(
        pool,
        gpus,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        seed,
    )
}

fn small_search() -> NeuroShardConfig {
    NeuroShardConfig {
        n: 2,
        k: 2,
        l: 3,
        m: 3,
        ..NeuroShardConfig::default()
    }
}

/// An incumbent plan for the base task, via the full search.
fn deploy(bundle: &CostModelBundle, task: &ShardingTask) -> ShardingPlan {
    NeuroShard::new(bundle.clone(), small_search())
        .shard(task)
        .expect("benchmark tasks are feasible")
}

#[test]
fn delta_replay_reproduces_the_incremental_plan() {
    let pool = TablePool::synthetic_dlrm(40, 1);
    let bundle = quick_bundle(&pool, 2, 7);
    let sim = CostSimulator::new(bundle.clone());
    let base_task = ShardingTask::sample(&pool, 2, 12..=12, 64, 3);
    let incumbent = deploy(&bundle, &base_task);
    let drift = WorkloadDrift::standard(base_task, 42);

    // Replay the delta at several drift epochs, including the spike.
    for epoch in [1u64, 5, 10, 11] {
        let task = drift.task_at(epoch);
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &incumbent)
            .expect("rebase is legal on this trace");
        let rebased = incumbent.rebase(&task).unwrap();
        let replayed = out.delta.apply(&rebased).expect("delta replays");
        assert_eq!(
            replayed, out.plan,
            "delta at epoch {epoch} must reproduce the planner's output"
        );
    }
}

#[test]
fn incremental_plan_is_never_worse_than_the_incumbent() {
    let pool = TablePool::synthetic_dlrm(40, 1);
    let bundle = quick_bundle(&pool, 2, 7);
    let sim = CostSimulator::new(bundle.clone());
    let base_task = ShardingTask::sample(&pool, 2, 12..=12, 64, 3);
    let incumbent = deploy(&bundle, &base_task);
    let drift = WorkloadDrift::standard(base_task, 42);

    for epoch in 1..16u64 {
        let task = drift.task_at(epoch);
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &incumbent)
            .expect("rebase is legal on this trace");
        let rebased = incumbent.rebase(&task).unwrap();
        let incumbent_ms = estimate_for_task(&sim, &task, &rebased).unwrap().total_ms();
        assert!(
            out.cost.total_ms() <= incumbent_ms + 1e-12,
            "epoch {epoch}: incremental {:.4} ms worse than incumbent {incumbent_ms:.4} ms",
            out.cost.total_ms()
        );
    }
}

/// ISSUE 17's recipe: one baseline device and one at 3x compute time
/// behind a half-bandwidth link. When the replanner priced every device as
/// baseline hardware it paid 3 MiB of migration to reach a plan the
/// search's own estimate priced 63% higher.
#[test]
fn undrifted_two_tier_replan_keeps_the_searchs_own_plan() {
    let pool = TablePool::synthetic_dlrm(40, 3);
    let bundle = quick_bundle(&pool, 2, 7);
    let sim = CostSimulator::new(bundle.clone());
    let tables: Vec<TableConfig> = (0..8)
        .map(|i| TableConfig::new(TableId(i), 16 + 16 * (i % 2), 1 << 14, 8.0, 1.05))
        .collect();
    let task = ShardingTask::new(tables, 2, 1 << 30, 1024).with_devices(DevicePool::two_tier(
        1,
        1 << 30,
        1,
        1 << 30,
        3.0,
        0.5,
    ));
    let searched = NeuroShard::new(bundle, NeuroShardConfig::smoke())
        .shard_with_stats(&task)
        .expect("the recipe's task is feasible");
    let incumbent_ms = estimate_for_task(&sim, &task, &searched.plan)
        .unwrap()
        .total_ms();
    assert_eq!(
        incumbent_ms.to_bits(),
        searched.estimated_cost_ms.to_bits(),
        "the task-level estimate is the search's own"
    );

    let out = IncrementalPlanner::default()
        .replan(&sim, &task, &searched.plan)
        .expect("the search's plan rebases onto its own task");
    let replanned_ms = estimate_for_task(&sim, &task, &out.plan)
        .unwrap()
        .total_ms();
    assert!(
        replanned_ms <= incumbent_ms,
        "the undrifted replan moved {} bytes to a plan priced {replanned_ms} ms, above the \
         incumbent's {incumbent_ms} ms",
        out.delta.migration_bytes
    );
    assert_eq!(out.cost.total_ms().to_bits(), replanned_ms.to_bits());
    assert_eq!(out.plan, searched.plan, "nothing drifted, nothing to gain");
    assert_eq!(out.delta.migration_bytes, 0);
}

#[test]
fn drift_generator_is_pure_per_seed() {
    let pool = TablePool::synthetic_dlrm(40, 1);
    let base = ShardingTask::sample(&pool, 2, 12..=12, 64, 3);
    let drift = WorkloadDrift::standard(base.clone(), 42);
    // Querying epochs out of order, repeatedly, never changes an answer.
    let forward: Vec<ShardingTask> = (0..8).map(|e| drift.task_at(e)).collect();
    for e in (0..8u64).rev() {
        assert_eq!(drift.task_at(e), forward[e as usize]);
    }
    // A different seed produces a different trace.
    let other = WorkloadDrift::standard(base, 43);
    assert_ne!(other.task_at(3), forward[3]);
}

/// A roomy device (16 MiB) holds three 2 MiB tables and a tight one
/// (5 MiB) holds two. Drift that leaves the tight device over its own budget —
/// but under the roomy one — puts *that* device over budget (the scan the
/// memory trigger and the replan gate share), and the incremental planner
/// neither leaves it there nor piles more onto it.
#[test]
fn tight_devices_are_held_to_their_own_budget() {
    const MIB: u64 = 1 << 20;
    let pool = TablePool::synthetic_dlrm(40, 1);
    let sim = CostSimulator::new(quick_bundle(&pool, 2, 7));
    let task_of = |tables: Vec<TableConfig>| {
        ShardingTask::new(tables, 2, 16 * MIB, 64).with_devices(DevicePool::two_tier(
            1,
            16 * MIB,
            1,
            5 * MIB,
            1.0,
            1.0,
        ))
    };
    let tables: Vec<TableConfig> = (0..5)
        .map(|i| TableConfig::new(TableId(i), 32, 1 << 14, 8.0, 1.05))
        .collect();
    assert_eq!(tables[0].memory_bytes(), 2 * MIB);
    let deployed = task_of(tables.clone());
    // Even tables on the roomy device 0, odd tables on the tight device 1.
    let incumbent = ShardingPlan::new(vec![], tables.clone(), vec![0, 1, 0, 1, 0], 2).unwrap();
    incumbent.validate(&deployed).expect("6 and 4 MiB fit");

    // Table 1 doubles its rows: the tight device now holds 6 MiB of 5.
    let mut grown = tables.clone();
    grown[1] = grown[1].with_hash_size(grown[1].hash_size() * 2);
    let grown = task_of(grown);
    let rebased = incumbent.rebase(&grown).unwrap();
    assert_eq!(
        rebased.first_over_budget(&grown),
        Some((1, 6 * MIB, 5 * MIB))
    );

    // The roomy device's tables run 8x hot: relief must not come from
    // moving one onto the tight device (4 + 2 MiB > 5).
    let hot: Vec<TableConfig> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i % 2 == 0 {
                t.with_pooling_factor(t.pooling_factor() * 8.0)
            } else {
                *t
            }
        })
        .collect();
    for task in [grown, task_of(hot)] {
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &incumbent)
            .expect("rebase is legal");
        out.plan
            .validate(&task)
            .expect("replanned plans respect per-device budgets");
    }
}

/// A replan whose incumbent no longer rebases is charged every byte of the
/// drifted task. The trace's table 0 does not fit one 64 MiB device, so
/// the row-wise search row-halves it while the epoch-0 hotspot keeps its
/// pooling above 2; at epoch 2 the hotspot has moved on, the pooling drops
/// below 2 and the recorded row split turns illegal.
#[test]
fn a_replan_whose_incumbent_no_longer_rebases_is_charged_as_the_daemon_charges() {
    use neuroshard::serve::http::HttpRequest;
    use neuroshard::serve::server::Routed;
    use neuroshard::serve::{ServeConfig, Service};

    let pool = TablePool::synthetic_dlrm(40, 1);
    let bundle = quick_bundle(&pool, 2, 7);
    let mut tables = vec![TableConfig::new(TableId(0), 8, 3 << 20, 1.0, 1.05)];
    tables.extend((1..10).map(|i| TableConfig::new(TableId(i), 8, 1 << 14, 0.6, 1.05)));
    let drift = WorkloadDrift::standard(ShardingTask::new(tables, 2, 64 << 20, 1024), 0);
    let search = NeuroShardConfig {
        use_row_wise: true,
        ..small_search()
    };
    let task2 = drift.task_at(2);
    let every_byte: u64 = task2.tables().iter().map(|t| t.memory_bytes()).sum();

    // The daemon: adopt the epoch-0 plan, then replan onto epoch 2.
    let service = Service::new(
        bundle.clone(),
        ServeConfig {
            search,
            ..ServeConfig::smoke()
        },
    )
    .expect("service boots");
    let post = |path: &str, task: &ShardingTask| {
        let body = format!("{{\"task\":{}}}", serde_json::to_string(task).unwrap());
        let Routed::Queued(slot) = service.route(&HttpRequest {
            method: "POST".into(),
            path: path.into(),
            body: body.into_bytes(),
        }) else {
            panic!("{path} is queued");
        };
        assert!(service.drain_one());
        let response = slot.wait();
        let text = String::from_utf8(response.body).unwrap();
        assert_eq!(response.status, 200, "{path}: {text}");
        text
    };
    post("/v1/plan", &drift.task_at(0));
    let incumbent = service.plans().latest().expect("adopted").plan;
    assert!(incumbent.num_row_splits() > 0, "{incumbent:?}");
    assert!(incumbent.rebase(&task2).is_err());
    let replanned = post("/v1/replan", &task2);
    let field = "\"migration_bytes\":";
    let at = replanned.find(field).expect("a replan reports its bytes") + field.len();
    let daemon_bytes: u64 = replanned[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .expect("an integer byte count");
    assert_eq!(daemon_bytes, every_byte);
}

/// Shared fixture for the property test: pre-training once, not per case.
fn fixture() -> &'static (CostSimulator, ShardingTask, ShardingPlan) {
    static FIXTURE: std::sync::OnceLock<(CostSimulator, ShardingTask, ShardingPlan)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = quick_bundle(&pool, 2, 7);
        let base_task = ShardingTask::sample(&pool, 2, 8..=8, 32, 3);
        let incumbent = deploy(&bundle, &base_task);
        (CostSimulator::new(bundle), base_task, incumbent)
    })
}

proptest! {
    /// Replaying the delta against the rebased incumbent reproduces the
    /// planner's plan for arbitrary (seed, epoch) drift points.
    #[test]
    fn delta_replay_holds_across_drift_space(seed in 0u64..1000, epoch in 0u64..40) {
        let (sim, base_task, incumbent) = fixture();
        let task = WorkloadDrift::standard(base_task.clone(), seed).task_at(epoch);
        if let Ok(out) = IncrementalPlanner::default().replan(sim, &task, incumbent) {
            let rebased = incumbent.rebase(&task).unwrap();
            prop_assert_eq!(out.delta.apply(&rebased).expect("delta replays"), out.plan);
            prop_assert_eq!(
                out.delta.migration_bytes,
                neuroshard::core::migration_bytes(&rebased, &out.plan)
            );
        }
    }
}

/// The closed loop's replanning gate (DESIGN.md §8, §12): `repro
/// ext_online` regenerates bit for bit against its committed file, and
/// over its 20-epoch trace incremental replanning moves at most a quarter
/// of the bytes full replanning moves and ends within 5% of its final
/// ground-truth max-device cost.
#[test]
fn incremental_moves_at_most_a_quarter_of_full_bytes_at_most_1_05x_final_cost() {
    use serde_json::Value;
    const MAX_BYTES_OVER_FULL: f64 = 0.25;
    const MAX_FINAL_COST_OVER_FULL: f64 = 1.05;

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    nshard_bench::repro::run(&["ext_online".to_string()], true, &results)
        .unwrap_or_else(|e| panic!("{e}"));
    let text = std::fs::read_to_string(results.join("ext_online.json")).unwrap();
    let field = |value: &Value, key: &str| match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).unwrap().1.clone(),
        other => panic!("{key} is not in {other:?}"),
    };
    let gates = field(&serde_json::parse_value(&text).unwrap(), "gates");
    let ratio = |name: &str| match field(&gates, name) {
        Value::Float(ratio) => ratio,
        other => panic!("{name} = {other:?} is not a ratio"),
    };
    let bytes_ratio = ratio("incremental_over_full_bytes");
    let cost_ratio = ratio("incremental_over_full_final_ms");
    println!("incremental/full over 20 epochs: bytes {bytes_ratio}, final cost {cost_ratio}");
    assert!(
        bytes_ratio <= MAX_BYTES_OVER_FULL,
        "incremental replanning moved {bytes_ratio}x the bytes of full replanning \
         (gate {MAX_BYTES_OVER_FULL})"
    );
    assert!(
        cost_ratio <= MAX_FINAL_COST_OVER_FULL,
        "incremental replanning ended at {cost_ratio}x the full replan's ground-truth \
         max-device cost (gate {MAX_FINAL_COST_OVER_FULL})"
    );
}
