//! `results/` regenerates, and the checker that says so can fail.
//!
//! The five simulator-only experiments and `ext_online` run through
//! `repro … --check`'s library route against the committed files (the ten
//! that pre-train at the shared scale run in CI: `repro all --check`).
//! `ext_online`'s committed ratios are held to their gates. The rest is a
//! mutation-style
//! self-test of the checker: every kind of drift it must catch is planted
//! and must be reported at its JSON path, and drift in a wall-clock field
//! must not be.

use std::path::{Path, PathBuf};

use nshard_bench::check::{check_file, CheckError, Difference};
use nshard_bench::repro::run;
use serde_json::{parse_value, Value};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn simulator_only_results_regenerate() {
    let names = ["fig1", "fig3_left", "fig3_right", "fig4", "table5"].map(String::from);
    run(&names, true, &results()).unwrap_or_else(|e| panic!("{e}"));
}

/// The closed loop under drift (DESIGN.md §8, §12), regenerated and
/// held to its gates: incremental replanning moves at most a quarter of
/// the bytes full replanning moves and ends within 5% of its final
/// ground-truth cost, and continual fine-tuning ends at most 0.97x the
/// frozen stale bundle's final cost.
#[test]
fn ext_online_regenerates_within_its_gates() {
    const MAX_BYTES_OVER_FULL: f64 = 0.25;
    const MAX_FINAL_COST_OVER_FULL: f64 = 1.05;
    const MAX_FINAL_COST_OVER_FROZEN: f64 = 0.97;

    run(&["ext_online".to_string()], true, &results()).unwrap_or_else(|e| panic!("{e}"));
    let text = std::fs::read_to_string(results().join("ext_online.json")).unwrap();
    let field = |value: &Value, name: &str| match value {
        Value::Map(entries) => entries
            .iter()
            .find(|(key, _)| key == name)
            .unwrap()
            .1
            .clone(),
        other => panic!("{name} is not in {other:?}"),
    };
    let gates = field(&parse_value(&text).unwrap(), "gates");
    for (name, bound) in [
        ("incremental_over_full_bytes", MAX_BYTES_OVER_FULL),
        ("incremental_over_full_final_ms", MAX_FINAL_COST_OVER_FULL),
        ("continual_over_frozen_final_ms", MAX_FINAL_COST_OVER_FROZEN),
    ] {
        let Value::Float(ratio) = field(&gates, name) else {
            panic!("{name} is not a ratio");
        };
        println!("{name}: {ratio} (gate {bound})");
        assert!(ratio <= bound, "{name} = {ratio}, above its gate {bound}");
    }
}

const ROW_A: &str = r#"{"name": "a", "mean_cost_ms": 10.0, "total": 3, "mean_time_s": 0.5}"#;
const ROW_B: &str = r#"{"name": "b", "mean_cost_ms": 20.0, "total": 3, "mean_time_s": 0.25}"#;

fn document(rows: &[&str], speedup: &str) -> String {
    let rows = rows.join(", ");
    format!(r#"{{"rows": [{rows}], "speedup_vs_neuroshard": {speedup}}}"#)
}

/// What the checker says about `regenerated` against the committed
/// document `[ROW_A, ROW_B]`, speed-up 4.0.
fn difference(regenerated: &str) -> Option<Difference> {
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_check_committed.json");
    std::fs::write(&file, document(&[ROW_A, ROW_B], "4.0")).unwrap();
    match check_file(regenerated, &file) {
        Ok(()) => None,
        Err(CheckError::Differs(_, difference)) => Some(difference),
        Err(other) => panic!("{other}"),
    }
}

/// The committed document with `from` (which must occur in [`ROW_B`])
/// replaced by `to`.
fn with_row_b(from: &str, to: &str) -> String {
    assert!(ROW_B.contains(from), "{from:?} is not in the row");
    document(&[ROW_A, &ROW_B.replace(from, to)], "4.0")
}

#[test]
fn checker_reports_every_unmasked_mutation_at_its_path() {
    assert_eq!(difference(&document(&[ROW_A, ROW_B], "4.0")), None);

    // A cost one ulp away fails and is named, with both values.
    let next_up = f64::from_bits(20.0f64.to_bits() + 1);
    let d = difference(&with_row_b("20.0", &next_up.to_string())).expect("one ulp differs");
    assert_eq!(d.path, "$.rows[1].mean_cost_ms");
    assert_eq!(
        (d.committed.as_str(), d.regenerated.as_str()),
        ("20.0", "20.000000000000004")
    );

    // Wall-clock fields may hold anything.
    assert_eq!(difference(&with_row_b("0.25", "7.5")), None);
    assert_eq!(difference(&document(&[ROW_A, ROW_B], "null")), None);

    // A key gone from the regenerated side fails — a masked one too: only
    // its value is masked. So does a key that is new there.
    let d = difference(&with_row_b(r#""total": 3, "#, "")).expect("a missing key differs");
    assert_eq!(
        (d.path.as_str(), d.regenerated.as_str()),
        ("$.rows[1].total", "(no such key)")
    );
    let d = difference(&with_row_b(r#", "mean_time_s": 0.25"#, "")).expect("masks cover values");
    assert_eq!(d.path, "$.rows[1].mean_time_s");
    let d = difference(&with_row_b("}", r#", "extra": 1}"#)).expect("an extra key differs");
    assert_eq!(
        (d.path.as_str(), d.committed.as_str()),
        ("$.rows[1].extra", "(no such key)")
    );

    // Arrays are ordered, and a changed length is reported as such.
    let d = difference(&document(&[ROW_B, ROW_A], "4.0")).expect("order matters");
    assert_eq!(d.path, "$.rows[0].name");
    let d = difference(&document(&[ROW_A], "4.0")).expect("length matters");
    assert_eq!(
        (
            d.path.as_str(),
            d.committed.as_str(),
            d.regenerated.as_str()
        ),
        ("$.rows", "array of 2", "array of 1")
    );

    // Key order within an object does not matter.
    let reordered = with_row_b(
        r#""name": "b", "mean_cost_ms": 20.0"#,
        r#""mean_cost_ms": 20.0, "name": "b""#,
    );
    assert_eq!(difference(&reordered), None);
}

#[test]
fn a_committed_result_fails_on_one_digit_and_a_missing_file_is_a_typed_error() {
    let file = results().join("fig3_left.json");
    let text = std::fs::read_to_string(&file).unwrap();
    check_file(&text, &file).expect("a file matches itself");

    // `dims` opens the document: 128 → 129.
    match check_file(&text.replacen("128", "129", 1), &file) {
        Err(CheckError::Differs(_, d)) => assert_eq!(d.path, "$.dims[0]"),
        other => panic!("expected a difference, got {other:?}"),
    }

    let absent = results().join("no_such_experiment.json");
    match check_file(&text, &absent) {
        Err(CheckError::Unreadable(path, e)) => {
            assert_eq!(path, absent);
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
        }
        other => panic!("expected an unreadable file, got {other:?}"),
    }
}
