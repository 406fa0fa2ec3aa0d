//! Golden fixtures for the continual-learning subsystem: a committed
//! fine-tuned checkpoint and the recorded promotion decision that
//! admitted it, both pinned **byte-exactly** in the current (v2)
//! envelope format. Any change to the fine-tuning pipeline, the shadow
//! evaluation or the serialization layer shows up as a fixture diff
//! instead of a silent behavior change.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! NSHARD_WRITE_FIXTURES=1 cargo test --test learn_fixtures
//! ```
//!
//! then commit the updated files.

use std::path::PathBuf;

use neuroshard::cost::{table_features, CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::learn::{
    fine_tune, ContinualConfig, ContinualLearner, FineTuneSettings, ObservationKind,
    ObservationWire, PromotionRecord,
};
use neuroshard::nn::{envelope_from_json, envelope_to_json, Envelope, CHECKPOINT_VERSION};

/// Seed behind every stochastic choice in the committed fixtures.
const SEED: u64 = 0x1EA2;
/// Ground truth in the fixture scenario runs 1.15× the incumbent's
/// predictions — a calibration drift small enough that the fine-tuned
/// candidate still searches inside the conformance band (so the recorded
/// decision is a promotion, the interesting case).
const TRUTH_SCALE: f64 = 1.15;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read_fixture(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed fixture {}: {e}", path.display()))
}

/// Writes `content` to the fixture when `NSHARD_WRITE_FIXTURES=1` and
/// returns whether the test should skip its assertions (regeneration mode).
fn maybe_write(name: &str, content: &str) -> bool {
    if std::env::var("NSHARD_WRITE_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(fixture_path(name), content).expect("fixture write");
        return true;
    }
    false
}

fn pool() -> TablePool {
    TablePool::synthetic_dlrm(80, 0xA11CE)
}

fn incumbent() -> CostModelBundle {
    CostModelBundle::pretrain(
        &pool(),
        2,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        0xA11CE,
    )
}

/// A learner around `incumbent` that ingested one compute observation per
/// pool table, whose ground truth runs `TRUTH_SCALE`× the incumbent's
/// predictions — the default stride keeps a held-back validation slice,
/// so the recorded decision exercises both shadow-evaluation gates with
/// real numbers.
fn filled_learner(incumbent: &CostModelBundle) -> ContinualLearner {
    let batch = incumbent.batch_size();
    let rows: Vec<ObservationWire> = pool()
        .tables()
        .iter()
        .map(|table| {
            let features = vec![table_features(&table.profile(batch), batch)];
            let predicted = incumbent.compute_model().predict_batch(&[&features])[0];
            ObservationWire {
                kind: ObservationKind::Compute.label().into(),
                features,
                predicted_ms: predicted,
                observed_ms: predicted * TRUTH_SCALE,
            }
        })
        .collect();
    let mut learner = ContinualLearner::new(incumbent.clone(), ContinualConfig::smoke());
    learner.ingest_wire(&rows);
    assert_eq!(
        learner.buffer().inserted(),
        rows.len() as u64,
        "every row is readable"
    );
    assert!(
        learner.buffer().validation_len() > 0,
        "the fixture scenario holds back validation"
    );
    learner
}

fn finetuned(learner: &ContinualLearner) -> CostModelBundle {
    fine_tune(
        learner.incumbent(),
        &learner.buffer().training_data(),
        &learner.buffer().validation_data(),
        &FineTuneSettings::smoke(),
        SEED,
    )
    .expect("the buffer holds enough compute samples")
}

/// The committed fine-tuned checkpoint re-derives byte-exactly from the
/// committed seed, and the committed bytes load back to the identical
/// bundle (current envelope version) with the comm models — which saw no
/// data — carried over bitwise from the incumbent.
#[test]
fn finetuned_checkpoint_fixture_is_byte_exact() {
    let incumbent = incumbent();
    let bundle = finetuned(&filled_learner(&incumbent));
    let json = envelope_to_json("finetuned-cost-bundle", "fixture_writer", &bundle);
    if maybe_write("finetuned_bundle_v2.json", &json) {
        return;
    }
    let committed = read_fixture("finetuned_bundle_v2.json");
    assert_eq!(
        json, committed,
        "fine-tuning output drifted from the committed checkpoint; if the \
         pipeline change is intentional, regenerate with NSHARD_WRITE_FIXTURES=1"
    );
    let envelope: Envelope<CostModelBundle> =
        envelope_from_json(&committed).expect("committed fine-tuned bundle loads");
    assert_eq!(envelope.version, CHECKPOINT_VERSION);
    assert_eq!(envelope.payload, bundle);
    // The frozen comm models carried over bitwise: fine-tuning provably
    // touched only what had data.
    assert_eq!(
        envelope.payload.comm_fwd_model(),
        incumbent.comm_fwd_model()
    );
    assert_eq!(
        envelope.payload.comm_bwd_model(),
        incumbent.comm_bwd_model()
    );
}

/// The committed promotion decision re-derives byte-exactly: same
/// candidate, same held-back validation slice, same probe search — same
/// MSEs, same conformance ratio, same verdict.
#[test]
fn promotion_decision_fixture_is_byte_exact() {
    let mut learner = filled_learner(&incumbent());
    let candidate = finetuned(&learner);
    let probe = ShardingTask::sample(&pool(), 2, 10..=14, 64, SEED);
    let installed = learner.propose(candidate.clone(), &probe);
    let record = learner.records()[0].clone();

    let json = envelope_to_json("promotion-record", "fixture_writer", &record);
    if maybe_write("promotion_record_v2.json", &json) {
        return;
    }
    let committed = read_fixture("promotion_record_v2.json");
    assert_eq!(
        json, committed,
        "the shadow evaluation's decision drifted from the committed record; \
         if the gate change is intentional, regenerate with NSHARD_WRITE_FIXTURES=1"
    );
    let envelope: Envelope<PromotionRecord> =
        envelope_from_json(&committed).expect("committed promotion record loads");
    assert_eq!(envelope.version, CHECKPOINT_VERSION);
    assert_eq!(envelope.payload, record);
    // The committed scenario is a promotion — the interesting decision —
    // and the learner installed exactly the candidate it evaluated.
    assert!(record.promoted, "fixture scenario must promote: {record:?}");
    assert_eq!(installed.as_ref(), Some(&candidate));
    assert_eq!(learner.incumbent(), &candidate);
}
