//! Continual-learning loop integration tests: the observation buffer is
//! a **pure function of `(seed, insert sequence)`** (proptest), a
//! learner handed a drift trace epoch by epoch produces byte-identical
//! buffers and identical promotion decisions at every worker thread
//! count, and a drift run against a stale incumbent promotes at least one
//! fine-tuned candidate through the shadow evaluation. The quality gate —
//! over a 28-epoch trace the continual run ends at most 0.97× the frozen
//! run's ground-truth max-device cost — is checked on the regenerated
//! `repro ext_online`.
//!
//! The thread-count sweep is the learning loop's entry in the workspace
//! determinism contract: CI runs this file under `NSHARD_THREADS=8` as
//! well, and nothing here may depend on the ambient thread count.

use proptest::prelude::*;

use neuroshard::core::{estimate_for_task, evaluate_plan, IncrementalConfig, NeuroShardConfig};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TablePool};
use neuroshard::learn::{
    BufferConfig, ContinualConfig, ContinualLearner, EpochObservation, FineTuneSettings,
    ObservationBuffer, ObservationKind, ObservationWire,
};
use neuroshard::online::{PlanningStack, WorkloadDrift};
use neuroshard::sim::GpuSpec;

fn observation(kind_tag: u8, feature: f32, error: f64) -> ObservationWire {
    let kind = match kind_tag % 3 {
        0 => ObservationKind::Compute,
        1 => ObservationKind::CommForward,
        _ => ObservationKind::CommBackward,
    };
    ObservationWire {
        kind: kind.label().into(),
        features: vec![vec![feature; 4]],
        predicted_ms: 1.0,
        observed_ms: 1.0 + error,
    }
}

proptest! {
    /// Replaying the same insert sequence into a fresh buffer with the
    /// same seed reproduces the serialized buffer **byte for byte** —
    /// eviction is a pure function of `(seed, insert sequence)`, with no
    /// hidden dependence on time, allocation order or thread count.
    #[test]
    fn buffer_eviction_is_a_pure_function_of_seed_and_sequence(
        seed in any::<u64>(),
        inserts in proptest::collection::vec(
            (0u8..3, -4.0f32..4.0, -8.0f64..8.0),
            1..200,
        ),
    ) {
        let config = BufferConfig {
            capacity: 32,
            validation_capacity: 8,
            validation_stride: 4,
            seed,
        };
        let build = || {
            let mut buffer = ObservationBuffer::new(config);
            for (kind, feature, error) in &inserts {
                buffer.insert(observation(*kind, *feature, *error));
            }
            buffer
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.to_bytes(), b.to_bytes());

        // Bounded reservoirs, full accounting, disjoint slices.
        prop_assert!(a.len() <= config.capacity);
        prop_assert!(a.validation_len() <= config.validation_capacity);
        prop_assert_eq!(a.inserted(), inserts.len() as u64);
        let kept = a.len() + a.validation_len();
        prop_assert!(kept <= inserts.len());
    }

    /// The high-|predicted − observed| half of a stream must dominate a
    /// reservoir that cannot hold everything: active sampling keeps what
    /// the models get wrong.
    #[test]
    fn high_error_samples_dominate_after_eviction(seed in any::<u64>()) {
        let config = BufferConfig {
            capacity: 20,
            validation_capacity: 4,
            validation_stride: u64::MAX,
            seed,
        };
        let mut buffer = ObservationBuffer::new(config);
        for i in 0..200u32 {
            // Even inserts: tiny error; odd inserts: large error.
            let error = if i % 2 == 0 { 1e-3 } else { 5.0 };
            buffer.insert(observation(0, i as f32, error));
        }
        let high = buffer
            .training_observations()
            .iter()
            .filter(|o| o.weight() > 1.0)
            .count();
        prop_assert!(
            high >= buffer.len() * 3 / 4,
            "only {high}/{} retained samples are high-error",
            buffer.len()
        );
    }
}

/// Pre-trains on a stale snapshot of `pool` (pooling factors scaled
/// down), so serving-time features sit outside the pre-training
/// distribution and the fine-tuner has a real gap to close.
fn stale_bundle(
    pool: &TablePool,
    gpus: usize,
    collect: &CollectConfig,
    seed: u64,
) -> CostModelBundle {
    let stale: Vec<TableConfig> = pool
        .tables()
        .iter()
        .map(|t| t.with_pooling_factor((t.pooling_factor() * 0.35).max(1.0)))
        .collect();
    let stale_pool = TablePool::from_tables(stale);
    CostModelBundle::pretrain(&stale_pool, gpus, collect, &TrainSettings::smoke(), seed)
}

fn stale_setup() -> (CostModelBundle, ShardingTask, TablePool) {
    let pool = TablePool::synthetic_dlrm(96, 17);
    let bundle = stale_bundle(&pool, 2, &CollectConfig::smoke(), 17);
    let base = ShardingTask::sample(&pool, 2, 10..=14, 64, 17);
    (bundle, base, pool)
}

/// Hands `learner` epochs `0..epochs` of `drift`, each planned from
/// scratch with the learner's incumbent (a new stack on every promotion)
/// and measured on the ground-truth cluster; every epoch after the first
/// is marked drifted.
fn drive(
    learner: &mut ContinualLearner,
    drift: &WorkloadDrift,
    epochs: u64,
    search: NeuroShardConfig,
) {
    let stack_of = |bundle: &CostModelBundle| {
        PlanningStack::new(bundle.clone(), search, IncrementalConfig::default())
    };
    let mut stack = stack_of(learner.incumbent());
    for epoch in 0..epochs {
        let task = drift.task_at(epoch);
        let plan = stack
            .plan(&task, false)
            .expect("the trace is plannable")
            .plan;
        let estimated = estimate_for_task(stack.simulator(), &task, &plan).unwrap();
        let truth = evaluate_plan(&task, &plan, &GpuSpec::default(), epoch).ok();
        let promoted = learner.on_epoch(&EpochObservation {
            epoch,
            task: &task,
            plan: &plan,
            estimated: &estimated,
            ground_truth: truth.as_ref(),
            drifted: epoch > 0,
        });
        if let Some(bundle) = promoted {
            stack = stack_of(&bundle);
        }
    }
}

fn learning_run(
    bundle: &CostModelBundle,
    base: &ShardingTask,
    threads: usize,
) -> (Vec<u8>, Vec<neuroshard::learn::PromotionRecord>) {
    let drift = WorkloadDrift::standard(base.clone(), 29);
    let search = NeuroShardConfig {
        threads,
        ..NeuroShardConfig::default()
    };
    let learn_config = ContinualConfig {
        settings: FineTuneSettings {
            train: TrainSettings {
                threads,
                ..FineTuneSettings::smoke().train
            },
            ..FineTuneSettings::smoke()
        },
        seed: 29,
        ..ContinualConfig::smoke()
    };
    let mut learner = ContinualLearner::new(bundle.clone(), learn_config);
    drive(&mut learner, &drift, 10, search);
    (learner.buffer().to_bytes(), learner.records().to_vec())
}

/// The whole learning loop — observation stream, reservoir eviction,
/// fine-tuning and every promotion decision — is bit-identical at 1, 2
/// and 8 worker threads.
#[test]
fn hooked_loop_is_bit_identical_across_thread_counts() {
    let (bundle, base, _pool) = stale_setup();
    let (bytes_1, records_1) = learning_run(&bundle, &base, 1);
    let (bytes_2, records_2) = learning_run(&bundle, &base, 2);
    let (bytes_8, records_8) = learning_run(&bundle, &base, 8);
    assert_eq!(
        bytes_1, bytes_2,
        "observation buffers must be byte-identical at 1 vs 2 threads"
    );
    assert_eq!(
        bytes_1, bytes_8,
        "observation buffers must be byte-identical at 1 vs 8 threads"
    );
    assert_eq!(
        records_1, records_2,
        "promotion decisions must not depend on threads"
    );
    assert_eq!(
        records_1, records_8,
        "promotion decisions must not depend on threads"
    );
    assert!(!bytes_1.is_empty());
}

/// End-to-end: a drift trace against a stale incumbent accumulates
/// observations and promotes at least one fine-tuned candidate whose
/// probe plan stayed inside the conformance band — the learner's
/// incumbent is no longer the pre-trained bundle.
#[test]
fn drift_run_promotes_a_finetuned_candidate() {
    let (bundle, base, _pool) = stale_setup();
    let drift = WorkloadDrift::standard(base, 29);
    let learn_config = ContinualConfig {
        // Enough optimization to actually close a stale incumbent's gap
        // — the smoke settings only nudge (see the thread-count test).
        settings: FineTuneSettings {
            train: TrainSettings {
                epochs: 30,
                learning_rate: 1e-3,
                ..FineTuneSettings::default().train
            },
            min_samples: 12,
        },
        ..ContinualConfig::smoke()
    };
    let mut learner = ContinualLearner::new(bundle.clone(), learn_config);
    drive(&mut learner, &drift, 12, NeuroShardConfig::default());
    let promoted: Vec<_> = learner.records().iter().filter(|r| r.promoted).collect();
    assert!(
        !promoted.is_empty(),
        "expected at least one promotion; records: {:?}",
        learner.records()
    );
    for record in &promoted {
        assert!(record.feasible, "promoted probe plans are memory-feasible");
        assert!(
            record.conformance_ratio <= 1.5,
            "promoted candidates stay inside the conformance band: {record:?}"
        );
    }
    assert_ne!(
        learner.incumbent(),
        &bundle,
        "promotion installs the fine-tuned bundle as the new incumbent"
    );
    assert_eq!(
        learner.records().last().map(|r| r.version),
        Some(1 + promoted.len() as u64),
        "every promotion bumps the model version exactly once"
    );
}

/// The quality gate of the continual learner: `repro ext_online`
/// regenerates bit for bit against its committed file, and over its
/// 28-epoch trace the stale bundle fine-tuned from served ground truth
/// ends at most 0.97x the frozen bundle's final ground-truth max-device
/// cost. Closing the loop must actually plan better.
#[test]
fn continual_final_cost_at_most_0_97x_frozen() {
    use serde_json::Value;
    const MAX_FINAL_COST_OVER_FROZEN: f64 = 0.97;

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    nshard_bench::repro::run(&["ext_online".to_string()], true, &results)
        .unwrap_or_else(|e| panic!("{e}"));
    let text = std::fs::read_to_string(results.join("ext_online.json")).unwrap();
    let field = |value: Value, key: &str| match value {
        Value::Map(entries) => entries.into_iter().find(|(k, _)| k == key).unwrap().1,
        other => panic!("{key} is not in {other:?}"),
    };
    let gates = field(serde_json::parse_value(&text).unwrap(), "gates");
    let Value::Float(ratio) = field(gates, "continual_over_frozen_final_ms") else {
        panic!("continual_over_frozen_final_ms is not a ratio");
    };
    println!("continual/frozen final cost over 28 epochs: {ratio}");
    assert!(
        ratio <= MAX_FINAL_COST_OVER_FROZEN,
        "the continual run ended at {ratio}x the frozen run's ground-truth max-device cost \
         (gate {MAX_FINAL_COST_OVER_FROZEN})"
    );
}
