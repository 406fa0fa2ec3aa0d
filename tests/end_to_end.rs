//! Cross-crate integration tests: the full pre-train → search → evaluate
//! pipeline, exercised end-to-end at reduced scale.

use neuroshard::baselines::{DimGreedy, ShardingAlgorithm, SizeLookupGreedy, TorchRecLikePlanner};
use neuroshard::core::{evaluate_plan, NeuroShard, NeuroShardConfig};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::sim::GpuSpec;

fn quick_bundle(pool: &TablePool, gpus: usize, seed: u64) -> CostModelBundle {
    CostModelBundle::pretrain(
        pool,
        gpus,
        &CollectConfig {
            compute_samples: 1200,
            comm_samples: 800,
            ..CollectConfig::default()
        },
        &TrainSettings {
            epochs: 15,
            ..TrainSettings::default()
        },
        seed,
    )
}

#[test]
fn neuroshard_beats_heuristics_on_average() {
    let pool = TablePool::synthetic_dlrm(200, 5);
    let spec = GpuSpec::rtx_2080_ti();
    let bundle = quick_bundle(&pool, 4, 1);
    let neuroshard = NeuroShard::new(bundle, NeuroShardConfig::default());

    // Moderate dimensions so every compared method stays memory-feasible
    // (the paper's protocol compares means only where methods scale).
    let tasks: Vec<ShardingTask> = (0..4)
        .map(|i| ShardingTask::sample(&pool, 4, 15..=40, 32, 700 + i))
        .collect();

    let mean = |algo: &dyn ShardingAlgorithm| -> f64 {
        let costs: Vec<f64> = tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                algo.shard(t)
                    .ok()
                    .and_then(|p| evaluate_plan(t, &p, &spec, i as u64).ok())
                    .map(|c| c.max_total_ms())
            })
            .collect();
        assert_eq!(costs.len(), tasks.len(), "{} failed a task", algo.name());
        costs.iter().sum::<f64>() / costs.len() as f64
    };

    let ns = mean(&neuroshard);
    let dim = mean(&DimGreedy);
    let slu = mean(&SizeLookupGreedy);
    // NeuroShard should be at least competitive with (in practice better
    // than) the best heuristic; allow a small tolerance for the reduced
    // pre-training budget of this test.
    let best = dim.min(slu);
    assert!(
        ns <= best * 1.03,
        "neuroshard {ns:.2} ms vs best heuristic {best:.2} ms"
    );
}

#[test]
fn neuroshard_survives_big_table_tasks_where_greedy_oom() {
    let pool = TablePool::synthetic_dlrm(200, 5);
    let spec = GpuSpec::rtx_2080_ti();
    let bundle = quick_bundle(&pool, 4, 2);
    let neuroshard = NeuroShard::new(bundle, NeuroShardConfig::default());

    // Hunt for a max-dim-128 task where at least one greedy baseline
    // overflows memory; NeuroShard must still solve it.
    let mut exercised = 0;
    for seed in 0..40u64 {
        let task = ShardingTask::sample(&pool, 4, 20..=60, 128, 9_000 + seed);
        let greedy_fails = DimGreedy
            .shard(&task)
            .ok()
            .and_then(|p| evaluate_plan(&task, &p, &spec, seed).ok())
            .is_none();
        if !greedy_fails {
            continue;
        }
        exercised += 1;
        let outcome = neuroshard
            .shard_with_stats(&task)
            .expect("NeuroShard must handle big-table tasks via column-wise sharding");
        assert!(outcome.plan.validate(&task).is_ok());
        assert!(evaluate_plan(&task, &outcome.plan, &spec, seed).is_ok());
        if exercised >= 2 {
            break;
        }
    }
    assert!(
        exercised > 0,
        "no greedy-OOM task found in 40 draws; pool calibration changed?"
    );
}

#[test]
fn planner_scales_but_neuroshard_estimates_lower_cost() {
    let pool = TablePool::synthetic_dlrm(200, 5);
    let spec = GpuSpec::rtx_2080_ti();
    let bundle = quick_bundle(&pool, 2, 3);
    let neuroshard = NeuroShard::new(bundle, NeuroShardConfig::default());
    let planner = TorchRecLikePlanner::default();

    let mut ns_total = 0.0;
    let mut planner_total = 0.0;
    for seed in 0..3u64 {
        let task = ShardingTask::sample(&pool, 2, 10..=25, 128, 3_000 + seed);
        let ns_plan = neuroshard.shard(&task).expect("feasible");
        let pl_plan = planner.shard(&task).expect("planner scales to 128");
        ns_total += evaluate_plan(&task, &ns_plan, &spec, seed)
            .expect("valid")
            .max_total_ms();
        planner_total += evaluate_plan(&task, &pl_plan, &spec, seed)
            .expect("valid")
            .max_total_ms();
    }
    assert!(
        ns_total <= planner_total * 1.05,
        "neuroshard {ns_total:.2} vs planner {planner_total:.2}"
    );
}

#[test]
fn sharding_is_deterministic_given_the_same_bundle() {
    let pool = TablePool::synthetic_dlrm(100, 8);
    let bundle = quick_bundle(&pool, 2, 4);
    let task = ShardingTask::sample(&pool, 2, 8..=16, 32, 77);
    let a = NeuroShard::new(bundle.clone(), NeuroShardConfig::smoke())
        .shard(&task)
        .unwrap();
    let b = NeuroShard::new(bundle, NeuroShardConfig::smoke())
        .shard(&task)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn pretraining_is_deterministic() {
    let pool = TablePool::synthetic_dlrm(60, 9);
    let cfg = CollectConfig {
        compute_samples: 300,
        comm_samples: 200,
        ..CollectConfig::default()
    };
    let settings = TrainSettings {
        epochs: 4,
        ..TrainSettings::default()
    };
    let a = CostModelBundle::pretrain(&pool, 2, &cfg, &settings, 11);
    let b = CostModelBundle::pretrain(&pool, 2, &cfg, &settings, 11);
    assert_eq!(a, b);
}

/// Failure injection: a bundle whose models are effectively untrained
/// (random initialization) must still yield *valid* plans — the search's
/// memory constraints are enforced structurally, not learned.
#[test]
fn garbage_cost_models_still_produce_valid_plans() {
    let pool = TablePool::synthetic_dlrm(100, 13);
    let bundle = CostModelBundle::pretrain(
        &pool,
        2,
        &CollectConfig {
            compute_samples: 20,
            comm_samples: 20,
            ..CollectConfig::default()
        },
        &TrainSettings {
            epochs: 0, // no training at all: random-initialized models
            ..TrainSettings::default()
        },
        3,
    );
    let sharder = NeuroShard::new(bundle, NeuroShardConfig::smoke());
    for seed in 0..3u64 {
        let task = ShardingTask::sample(&pool, 2, 8..=16, 64, 5_000 + seed);
        let plan = sharder.shard(&task).expect("feasible task");
        assert!(plan.validate(&task).is_ok(), "seed {seed}");
    }
}

/// `bundle` as a poisoned checkpoint would load: the first entry of the
/// last bias vector serialized before `marker` reads back as `inf` (JSON
/// `1e39` overflows `f32`).
fn poisoned_before(bundle: &CostModelBundle, marker: &str) -> CostModelBundle {
    let json = serde_json::to_string(bundle).unwrap();
    let end = json.find(marker).expect("marker is a field of the bundle");
    let bias = json[..end].rfind("\"b\":[").expect("a bias vector") + "\"b\":[".len();
    let stop = bias + json[bias..].find([',', ']']).unwrap();
    serde_json::from_str(&format!("{}1e39{}", &json[..bias], &json[stop..])).unwrap()
}

/// A cost model that predicts NaN or an infinity must get a typed error
/// out of the search — not a panic inside a sort comparator, not a plan
/// "costing" `inf` — so the fallback chain can ship a greedy plan and say
/// why. Two poisons: an infinite encoder output bias turns every compute
/// prediction into `inf - inf = NaN` (caught on the first single-table
/// costs); an infinite output bias in the forward communication model
/// leaves compute finite and makes every plan estimate `inf` (caught in
/// the inner search's fold).
#[test]
fn non_finite_predictions_reach_the_fallback_chain() {
    use neuroshard::baselines::SizeGreedy;
    use neuroshard::core::PlanError;
    use neuroshard::cost::{CostSimulator, TableSetKey};
    use neuroshard::resilient::{shard_with_provenance, PlanSource, ProvenanceEvent};

    let pool = TablePool::synthetic_dlrm(100, 13);
    let healthy = CostModelBundle::pretrain(
        &pool,
        2,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        3,
    );
    let task = ShardingTask::sample(&pool, 2, 8..=16, 64, 5_000);
    let config = NeuroShardConfig::smoke();

    let nan_compute = poisoned_before(&healthy, "\"head\"");
    let sim = CostSimulator::new(nan_compute.clone());
    let profiles = task.profiles();
    let set = [(TableSetKey::of(&profiles), &profiles[..])];
    assert!(sim.device_compute_cost_batch(&set)[0].is_nan());
    let err = NeuroShard::new(nan_compute.clone(), config)
        .shard_with_stats(&task)
        .expect_err("a NaN cost is not a plan");
    assert!(
        matches!(&err, PlanError::NonFiniteCost { what, value }
            if what == "single-table cost" && value.is_nan()),
        "{err}"
    );

    let inf_comm = poisoned_before(&healthy, "\"comm_bwd\"");
    let comm_err = NeuroShard::new(inf_comm, config)
        .shard_with_stats(&task)
        .expect_err("an infinite estimate is not a plan");
    assert!(
        matches!(&comm_err, PlanError::NonFiniteCost { what, value }
            if what == "plan estimate" && *value == f64::INFINITY),
        "{comm_err}"
    );

    let neuro = NeuroShard::new(nan_compute, config);
    let outcome = shard_with_provenance(&[&neuro, &SizeGreedy], &task).expect("greedy plan ships");
    assert!(outcome.plan.validate(&task).is_ok());
    assert!(matches!(
        &outcome.provenance.source,
        PlanSource::Fallback { algorithm } if algorithm == SizeGreedy.name()
    ));
    let reason = err.to_string();
    assert!(
        outcome.provenance.events.iter().any(|e| matches!(
            e,
            ProvenanceEvent::SearchFailed { algorithm, reason: r }
                if algorithm == "neuroshard" && *r == reason
        )),
        "{:?}",
        outcome.provenance.events
    );
}

/// Outside the search every plan is priced through `estimate_for_task`,
/// and that is where a non-finite estimate stops: the incremental planner
/// and the daemon's engine return the typed error instead of ranking a
/// NaN (every comparison false) or shipping `predicted_ms: NaN`.
#[test]
fn non_finite_estimates_stop_at_the_task_level_guard() {
    use neuroshard::baselines::SizeGreedy;
    use neuroshard::core::PlanError;
    use neuroshard::cost::CostSimulator;
    use neuroshard::online::{IncrementalConfig, IncrementalPlanner};
    use neuroshard::serve::PlanningEngine;

    let pool = TablePool::synthetic_dlrm(100, 13);
    let healthy = CostModelBundle::pretrain(
        &pool,
        2,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        3,
    );
    let task = ShardingTask::sample(&pool, 2, 8..=16, 64, 5_000);
    let incumbent = SizeGreedy.shard(&task).expect("greedy plan fits");

    // NaN compute predictions (which `f64::max` folds away, so the total
    // alone looks finite) and an infinite backward-comm prediction.
    for (marker, what) in [
        ("\"head\"", "device cost"),
        ("\"comm_bwd\"", "plan estimate"),
    ] {
        let poisoned = poisoned_before(&healthy, marker);
        let sim = CostSimulator::new(poisoned.clone());
        let refused = |err: &PlanError| {
            matches!(err, PlanError::NonFiniteCost { what: w, value }
                if w == what && !value.is_finite())
        };

        let err = IncrementalPlanner::new(IncrementalConfig::default())
            .replan(&sim, &task, &incumbent)
            .expect_err("the planner cannot rank against a non-finite incumbent");
        assert!(refused(&err), "{what}: {err}");

        let engine = PlanningEngine::new(
            poisoned,
            NeuroShardConfig::smoke(),
            IncrementalConfig::default(),
            7,
        );
        let err = engine
            .plan(&task, false)
            .expect_err("a plan is not shipped with a non-finite predicted_ms");
        assert!(refused(&err.cause), "{what}: {err}");
    }
}

/// The full pipeline tolerates degenerate tasks: a single table on a
/// single device.
#[test]
fn single_table_single_device() {
    use neuroshard::data::{TableConfig, TableId};
    let pool = TablePool::synthetic_dlrm(30, 14);
    let bundle = quick_bundle(&pool, 1, 5);
    let sharder = NeuroShard::new(bundle, NeuroShardConfig::smoke());
    let table = TableConfig::new(TableId(0), 32, 1 << 18, 8.0, 1.0);
    let task = ShardingTask::new(vec![table], 1, neuroshard::sim::DEFAULT_MEM_BYTES, 65_536);
    let outcome = sharder.shard_with_stats(&task).unwrap();
    assert_eq!(outcome.plan.device_of(), &[0]);
    let costs = evaluate_plan(&task, &outcome.plan, &GpuSpec::rtx_2080_ti(), 0).unwrap();
    assert!(costs.max_total_ms() > 0.0);
}
