//! Train→search conformance: a freshly pre-trained checkpoint must steer
//! the search to plans as good as the committed one.
//!
//! The committed fixtures pin one full pre-train run: a cost-model bundle
//! (`tests/fixtures/conformance_bundle.json`, stored in the versioned
//! checkpoint envelope the serving daemon uses) and the ground-truth cost
//! of the plan [`NeuroShard`] finds with it
//! (`tests/fixtures/conformance_band.json`). The suite then retrains the
//! models from scratch — same [`CollectConfig::smoke`] recipe, a
//! *different* seed — searches with the fresh checkpoint, and asserts the
//! resulting plan is memory-feasible and lands within a fixed band of the
//! committed plan's ground-truth cost. A regression anywhere in the
//! collect → train → search pipeline (bad labels, a broken trainer, a
//! model/search interface drift) shows up here as a cost-band violation.
//!
//! To regenerate after an intentional pipeline change:
//!
//! ```text
//! NSHARD_WRITE_FIXTURES=1 cargo test --test train_search_conformance
//! ```

use std::path::PathBuf;

use neuroshard::core::{evaluate_plan_exact, NeuroShard, NeuroShardConfig, ShardingPlan};
use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::nn::{envelope_from_json, envelope_to_json, Envelope};
use neuroshard::sim::GpuSpec;

/// Seed behind the committed fixture bundle.
const COMMITTED_SEED: u64 = 0xC0DE;
/// Seed of the from-scratch retrain — deliberately different, so the test
/// checks pipeline conformance rather than bit-equality.
const FRESH_SEED: u64 = 0xF00D;
/// Allowed ground-truth cost ratio between the fresh-checkpoint plan and
/// the committed-checkpoint plan, in either direction.
const COST_BAND: f64 = 1.5;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn regenerating() -> bool {
    std::env::var("NSHARD_WRITE_FIXTURES").as_deref() == Ok("1")
}

fn pool() -> TablePool {
    TablePool::synthetic_dlrm(80, 0xA11CE)
}

fn task() -> ShardingTask {
    ShardingTask::sample(&pool(), 4, 20..=20, 128, 0x7A5C)
}

fn pretrain(seed: u64) -> CostModelBundle {
    CostModelBundle::pretrain(
        &pool(),
        4,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        seed,
    )
}

/// Searches with a bundle and returns the plan plus its *ground-truth*
/// (noise-free simulator) cost — the committed and fresh runs are compared
/// on the oracle, not on their own models' estimates.
fn search_and_measure(bundle: CostModelBundle, task: &ShardingTask) -> (ShardingPlan, f64) {
    let result = NeuroShard::new(bundle, NeuroShardConfig::default())
        .shard_with_stats(task)
        .expect("smoke task is feasible");
    let truth = evaluate_plan_exact(task, &result.plan, &GpuSpec::rtx_2080_ti())
        .expect("plan fits in memory");
    (result.plan, truth.max_total_ms())
}

#[test]
fn fresh_checkpoint_plans_within_committed_cost_band() {
    let task = task();

    if regenerating() {
        let bundle = pretrain(COMMITTED_SEED);
        let (_, cost) = search_and_measure(bundle.clone(), &task);
        std::fs::write(
            fixture_path("conformance_bundle.json"),
            envelope_to_json("conformance_bundle", "fixture_writer", &bundle),
        )
        .expect("fixture write");
        std::fs::write(
            fixture_path("conformance_band.json"),
            envelope_to_json("conformance_band", "fixture_writer", &cost),
        )
        .expect("fixture write");
        return;
    }

    // The committed checkpoint still loads and still produces a
    // memory-feasible plan at its recorded ground-truth cost.
    let bundle_json = std::fs::read_to_string(fixture_path("conformance_bundle.json"))
        .expect("missing committed conformance bundle fixture");
    let committed: Envelope<CostModelBundle> =
        envelope_from_json(&bundle_json).expect("committed bundle envelope loads");
    let band_json = std::fs::read_to_string(fixture_path("conformance_band.json"))
        .expect("missing committed conformance band fixture");
    let recorded: Envelope<f64> = envelope_from_json(&band_json).expect("band envelope loads");

    let (committed_plan, committed_cost) = search_and_measure(committed.payload, &task);
    committed_plan
        .validate(&task)
        .expect("committed-model plan is memory-feasible");
    assert!(
        (committed_cost - recorded.payload).abs() <= 1e-9 * recorded.payload.abs(),
        "committed-model plan cost drifted: recorded {} ms, got {committed_cost} ms \
         (the search or simulator changed; regenerate with NSHARD_WRITE_FIXTURES=1 \
         if intentional)",
        recorded.payload
    );

    // Retrain from scratch with a different seed and search with the fresh
    // checkpoint: the plan must be feasible and competitive.
    let (fresh_plan, fresh_cost) = search_and_measure(pretrain(FRESH_SEED), &task);
    fresh_plan
        .validate(&task)
        .expect("fresh-model plan is memory-feasible");
    let ratio = fresh_cost / recorded.payload;
    assert!(
        (1.0 / COST_BAND..=COST_BAND).contains(&ratio),
        "fresh checkpoint's plan costs {fresh_cost} ms vs committed {} ms \
         (ratio {ratio:.3}, band {COST_BAND})",
        recorded.payload
    );
}
