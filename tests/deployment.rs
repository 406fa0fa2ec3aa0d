//! Deployment-lifecycle integration tests: checkpoint round-trips,
//! version control, re-training on distribution shift, and the row-wise
//! extension — the concerns of the paper's §3.2 "Deployment" discussion.

use neuroshard::core::{NeuroShard, NeuroShardConfig, PlanError};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::nn::serialize::{envelope_from_json, envelope_to_json, CheckpointError, Envelope};
use neuroshard::nn::Mlp;

fn quick_bundle(pool: &TablePool, gpus: usize, seed: u64) -> CostModelBundle {
    CostModelBundle::pretrain(
        pool,
        gpus,
        &CollectConfig {
            compute_samples: 800,
            comm_samples: 600,
            ..CollectConfig::default()
        },
        &TrainSettings {
            epochs: 10,
            ..TrainSettings::default()
        },
        seed,
    )
}

/// A serialized bundle, reloaded, must make the *same sharding decisions* —
/// the paper's requirement that a training job resumes with a consistent
/// plan (§3.2, strict version control).
#[test]
fn reloaded_bundle_reproduces_the_same_plan() {
    let pool = TablePool::synthetic_dlrm(80, 3);
    let bundle = quick_bundle(&pool, 2, 1);
    let json = serde_json::to_string(&bundle).expect("bundles serialize");
    let reloaded: CostModelBundle = serde_json::from_str(&json).expect("bundles deserialize");

    let task = ShardingTask::sample(&pool, 2, 8..=16, 64, 9);
    let plan_a = NeuroShard::new(bundle, NeuroShardConfig::smoke())
        .shard_with_stats(&task)
        .unwrap()
        .plan;
    let plan_b = NeuroShard::new(reloaded, NeuroShardConfig::smoke())
        .shard_with_stats(&task)
        .unwrap()
        .plan;
    assert_eq!(plan_a, plan_b);
}

/// Versioned NN checkpoints reject future formats with a typed error
/// instead of silently loading garbage, and still load the supported
/// prior version by migrating it forward.
#[test]
fn checkpoint_version_control() {
    use neuroshard::nn::serialize::CHECKPOINT_VERSION;

    let json = envelope_to_json("compute_cost", "", &Mlp::new(4, &[8], 1, 0));
    assert!(envelope_from_json::<Mlp>(&json).is_ok());

    let tampered = json.replace(
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        "\"version\":7",
    );
    assert!(matches!(
        envelope_from_json::<Mlp>(&tampered),
        Err(CheckpointError::UnsupportedVersion { found: 7, .. })
    ));

    // A version-1 document (predating `created_by`) still loads warm.
    let legacy = json
        .replace(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            "\"version\":1",
        )
        .replace(",\"created_by\":\"\"", "");
    let migrated: Envelope<Mlp> = envelope_from_json(&legacy).expect("prior version migrates");
    assert_eq!(
        migrated.version, 1,
        "reports the version it was written with"
    );
    assert_eq!(migrated.created_by, "", "defaulted by migration");
}

/// Re-training on shifted data (different pooling factors ≈ shifted index
/// distributions) changes the models — the drift the paper's periodic
/// re-training interval exists to absorb.
#[test]
fn retraining_absorbs_distribution_shift() {
    let pool_v1 = TablePool::synthetic_dlrm(60, 10);
    // A "shifted" pool: same seed family, different workload statistics.
    let pool_v2 = TablePool::from_tables(
        pool_v1
            .iter()
            .map(|t| {
                TableConfig::new(
                    t.id(),
                    t.dim(),
                    t.hash_size(),
                    t.pooling_factor() * 3.0,
                    t.zipf_alpha(),
                )
            })
            .collect(),
    );
    let b1 = quick_bundle(&pool_v1, 2, 4);
    let b2 = quick_bundle(&pool_v2, 2, 4);
    assert_ne!(b1, b2, "re-training on shifted data must change the models");
}

/// The row-wise extension rescues tasks the paper's column-only search
/// cannot solve, end to end through the public API.
#[test]
fn row_wise_extension_rescues_tall_tables_end_to_end() {
    let pool = TablePool::synthetic_dlrm(60, 11);
    let bundle = quick_bundle(&pool, 2, 5);

    // dim-4 (column-unsplittable) table of 300 M rows = 5 GB > 4 GB budget.
    let tall = TableConfig::new(TableId(999), 4, 300 << 20, 16.0, 1.0);
    let small = TableConfig::new(TableId(1000), 16, 1 << 18, 8.0, 1.0);
    let task = ShardingTask::new(
        vec![tall, small],
        2,
        neuroshard::sim::DEFAULT_MEM_BYTES,
        65_536,
    );

    let column_only = NeuroShard::new(bundle.clone(), NeuroShardConfig::default());
    assert!(matches!(
        column_only.shard_with_stats(&task),
        Err(PlanError::Infeasible { .. })
    ));

    let extended = NeuroShard::new(
        bundle,
        NeuroShardConfig {
            use_row_wise: true,
            ..NeuroShardConfig::default()
        },
    );
    let outcome = extended.shard_with_stats(&task).expect("row-wise rescues");
    assert!(outcome.plan.num_row_splits() >= 1);
    assert!(outcome.plan.validate(&task).is_ok());
}

/// The prediction cache is shared safely across threads (production
/// sharding services run concurrent queries).
#[test]
fn cost_simulator_is_thread_safe() {
    use neuroshard::cost::{CostSimulator, TableSetKey};
    use neuroshard::sim::TableProfile;
    use std::sync::Arc;

    let pool = TablePool::synthetic_dlrm(40, 12);
    let sim = Arc::new(CostSimulator::new(quick_bundle(&pool, 2, 6)));
    let handles: Vec<_> = (0..4)
        .map(|k| {
            let sim = Arc::clone(&sim);
            std::thread::spawn(move || {
                let t = TableProfile::new(32 << (k % 2), 1 << 20, 10.0, 0.4, 1.0);
                (0..200)
                    .map(|_| sim.device_compute_cost_batch(&[(TableSetKey::of(&[t]), &[t][..])])[0])
                    .fold(0.0f64, f64::max)
            })
        })
        .collect();
    let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(results.iter().all(|c| c.is_finite()));
    // Heavy reuse ⇒ high hit rate even under concurrency.
    assert!(sim.cache().stats().hit_rate() > 0.9);
}
