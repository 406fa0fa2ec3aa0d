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
    BufferConfig, FineTuneSettings, FineTuner, ModelLifecycle, ObservationBuffer, ObservationKind,
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

/// Self-removing scratch directory for the lifecycle's checkpoint store.
struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "nshard_learn_fixtures_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

/// A buffer of compute observations whose ground truth runs
/// `TRUTH_SCALE`× the incumbent's predictions — the default stride keeps
/// a held-back validation slice, so the recorded decision exercises both
/// shadow-evaluation gates with real numbers.
fn filled_buffer(incumbent: &CostModelBundle) -> ObservationBuffer {
    let batch = incumbent.batch_size();
    let mut buffer = ObservationBuffer::new(BufferConfig::default());
    for table in pool().tables() {
        let features = vec![table_features(&table.profile(batch), batch)];
        let predicted = incumbent.compute_model().predict_batch(&[&features])[0];
        buffer.insert(ObservationWire {
            kind: ObservationKind::Compute.label().into(),
            features,
            predicted_ms: predicted,
            observed_ms: predicted * TRUTH_SCALE,
        });
    }
    assert!(
        buffer.validation_len() > 0,
        "the fixture scenario holds back validation"
    );
    buffer
}

fn finetuned(incumbent: &CostModelBundle, buffer: &ObservationBuffer) -> CostModelBundle {
    FineTuner::fine_tune(
        incumbent,
        &buffer.training_data(),
        &buffer.validation_data(),
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
    let bundle = finetuned(&incumbent, &filled_buffer(&incumbent));
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
    let incumbent = incumbent();
    let buffer = filled_buffer(&incumbent);
    let candidate = finetuned(&incumbent, &buffer);
    let probe = ShardingTask::sample(&pool(), 2, 10..=14, 64, SEED);

    let dir = TempDir::new("decision");
    let mut lifecycle = ModelLifecycle::open(dir.path(), &incumbent).expect("store opens");
    let (record, installed) = lifecycle
        .propose(&incumbent, candidate, &buffer.validation_data(), &probe)
        .expect("proposal evaluates");

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
    // and the lifecycle installed exactly what it persisted.
    assert!(record.promoted, "fixture scenario must promote: {record:?}");
    assert!(installed.is_some());
    assert_eq!(
        lifecycle.load_active().expect("active checkpoint loads"),
        installed.expect("promotion installs"),
    );
}
