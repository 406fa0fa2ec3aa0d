//! Golden-fixture tests for the one artifact format: the versioned
//! envelope and its checksum frame.
//!
//! The documents under `tests/fixtures/` are committed artifacts: they pin
//! the exact bytes the serializer produces (v2, the current format) and
//! the exact bytes a pre-upgrade binary wrote (v1, which predates the
//! `created_by` header field). Loading them must keep working — and keep
//! producing identical results — across refactors of `nshard-nn`'s
//! serialization layer, so any change to the wire format shows up as a
//! fixture diff instead of a silent compatibility break.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! NSHARD_WRITE_FIXTURES=1 cargo test --test checkpoint_fixtures
//! ```
//!
//! then commit the updated files (and bump `CHECKPOINT_VERSION` /
//! migration logic as the change demands).

use std::path::PathBuf;

use neuroshard::cost::{table_features, CostModelBundle, CostSimulator};
use neuroshard::nn::{
    envelope_from_json, envelope_to_json, read_checked, write_checked, CheckpointError, Envelope,
    Matrix, Mlp, CHECKPOINT_VERSION,
};
use neuroshard::sim::TableProfile;
use proptest::prelude::*;
use serde_json::Value;

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

/// The deterministic model every checkpoint fixture wraps.
fn fixture_mlp() -> Mlp {
    Mlp::new(3, &[8, 4], 1, 0xF1C5)
}

/// The current-format MLP checkpoint whose serialization is pinned.
fn v2_checkpoint() -> String {
    envelope_to_json("compute_cost", "fixture_writer", &fixture_mlp())
}

/// `json` re-headed as version 1: version header 1, no `created_by`
/// field — exactly what a pre-upgrade binary wrote to disk.
fn as_v1(json: &str) -> String {
    let json = json
        .replacen(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            "\"version\":1",
            1,
        )
        .replace(",\"created_by\":\"fixture_writer\"", "");
    assert!(!json.contains("created_by"), "fixture must be v1-shaped");
    json
}

const ENVELOPE_PAYLOAD: [f64; 4] = [1.5, -2.25, 0.0, 1e-3];

#[test]
fn v2_checkpoint_fixture_is_byte_exact() {
    let json = v2_checkpoint();
    if maybe_write("mlp_envelope_v2.json", &json) {
        return;
    }
    let committed = read_fixture("mlp_envelope_v2.json");
    assert_eq!(
        json, committed,
        "serializer output drifted from the committed v2 fixture; if the \
         format change is intentional, regenerate with NSHARD_WRITE_FIXTURES=1"
    );
    // And the committed bytes load back to exactly the original network.
    let loaded: Envelope<Mlp> = envelope_from_json(&committed).expect("v2 fixture loads");
    assert_eq!(loaded.version, CHECKPOINT_VERSION);
    assert_eq!(loaded.name, "compute_cost");
    assert_eq!(loaded.created_by, "fixture_writer");
    assert_eq!(loaded.payload, fixture_mlp());
}

#[test]
fn v1_checkpoint_fixture_migrates_forward() {
    // The committed v2 fixture re-headed the way `envelope_v1.json` is.
    let v1 = as_v1(&read_fixture("mlp_envelope_v2.json"));
    let loaded: Envelope<Mlp> = envelope_from_json(&v1).expect("v1 document loads");
    // Migration output, field by field: the version it was written with,
    // defaulted `created_by`, untouched name and weights.
    assert_eq!(loaded.version, 1);
    assert_eq!(loaded.created_by, "");
    assert_eq!(loaded.name, "compute_cost");
    assert_eq!(loaded.payload, fixture_mlp());
    // The migrated model predicts bit-identically to the fixture's source.
    let x = Matrix::from_rows([vec![0.25, -1.0, 3.5]]);
    assert_eq!(loaded.payload.forward(&x), fixture_mlp().forward(&x));
    // Re-serializing the migrated checkpoint is byte-exact too: migration
    // is deterministic, not best-effort.
    assert_eq!(
        envelope_to_json(&loaded.name, &loaded.created_by, &loaded.payload),
        envelope_to_json("compute_cost", "", &fixture_mlp())
    );
}

#[test]
fn v2_envelope_fixture_is_byte_exact() {
    let json = envelope_to_json(
        "bench_payload",
        "fixture_writer",
        &ENVELOPE_PAYLOAD.to_vec(),
    );
    if maybe_write("envelope_v2.json", &json) {
        return;
    }
    let committed = read_fixture("envelope_v2.json");
    assert_eq!(json, committed, "envelope serializer drifted");
    let env: Envelope<Vec<f64>> = envelope_from_json(&committed).expect("v2 envelope loads");
    assert_eq!(env.version, CHECKPOINT_VERSION);
    assert_eq!(env.name, "bench_payload");
    assert_eq!(env.created_by, "fixture_writer");
    assert_eq!(env.payload, ENVELOPE_PAYLOAD.to_vec());
}

#[test]
fn v1_envelope_fixture_migrates_forward() {
    let json = as_v1(&envelope_to_json(
        "bench_payload",
        "fixture_writer",
        &ENVELOPE_PAYLOAD.to_vec(),
    ));
    if maybe_write("envelope_v1.json", &json) {
        return;
    }
    let committed = read_fixture("envelope_v1.json");
    assert_eq!(json, committed, "v1 envelope fixture generator drifted");
    let env: Envelope<Vec<f64>> = envelope_from_json(&committed).expect("v1 envelope loads");
    assert_eq!(env.version, 1, "reports the version it was written with");
    assert_eq!(env.created_by, "", "defaulted by migration");
    assert_eq!(env.payload, ENVELOPE_PAYLOAD.to_vec());
}

/// A scratch path for a framed file, unique per test and process.
fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nshard_checkpoint_fixtures_{tag}_{}.json",
        std::process::id()
    ))
}

/// The framed fixture was written by the checksum writer as it stood in
/// `serve::store` before it moved to `nn::serialize` (commit c0840ce:
/// `write_checked(path, "framed_payload", &vec![1.5, -2.25, 0.0, 1e-3])`,
/// producer tag `nshard-serve`); today's writer must reproduce it byte for
/// byte, and the reader must load it.
#[test]
fn framed_fixture_is_byte_exact() {
    let path = scratch_file("framed");
    write_checked(
        &path,
        "framed_payload",
        "nshard-serve",
        &ENVELOPE_PAYLOAD.to_vec(),
    )
    .expect("framed write");
    let written = std::fs::read_to_string(&path).expect("framed file");
    std::fs::remove_file(&path).ok();
    if maybe_write("framed_envelope_v2.json", &written) {
        return;
    }
    let committed = read_fixture("framed_envelope_v2.json");
    assert!(committed.starts_with("#nshard-checksum: "), "{committed}");
    assert_eq!(written, committed, "frame writer drifted");
    let env: Envelope<Vec<f64>> =
        read_checked(&fixture_path("framed_envelope_v2.json")).expect("framed fixture loads");
    assert_eq!(env.version, CHECKPOINT_VERSION);
    assert_eq!(env.name, "framed_payload");
    assert_eq!(env.created_by, "nshard-serve");
    assert_eq!(env.payload, ENVELOPE_PAYLOAD.to_vec());
}

proptest! {
    /// Hostile bytes at the framed file: the committed fixture with a byte
    /// flipped, the file cut short, or bytes inserted, at every position
    /// for a drawn mask and insertion. `read_checked` answers each with a
    /// typed error or the exact original envelope, never a panic, and a
    /// flip never loads: after the magic it is `Corrupt`.
    #[test]
    fn a_damaged_framed_fixture_errors_or_loads_its_payload(
        mask in 1u8..=255,
        inserted in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let committed = read_fixture("framed_envelope_v2.json").into_bytes();
        let magic = "#nshard-checksum: ".len();
        let path = scratch_file(&format!("damage_{mask}"));
        for at in 0..=committed.len() {
            let mut flipped = committed.clone();
            let mut extended = committed.clone();
            extended.splice(at..at, inserted.iter().copied());
            let mut damaged = vec![("cut", committed[..at].to_vec()), ("insert", extended)];
            if at < committed.len() {
                flipped[at] ^= mask;
                damaged.push(("flip", flipped));
            }
            for (edit, bytes) in damaged {
                std::fs::write(&path, &bytes).unwrap();
                match read_checked::<Vec<f64>>(&path) {
                    Ok(env) => {
                        prop_assert!(edit != "flip", "flip {mask:#04x} at {at} loaded");
                        prop_assert_eq!(
                            (env.name.as_str(), env.created_by.as_str(), &env.payload),
                            ("framed_payload", "nshard-serve", &ENVELOPE_PAYLOAD.to_vec()),
                        );
                    }
                    Err(CheckpointError::Corrupt { .. }) => {}
                    Err(e) => prop_assert!(
                        edit != "flip" || at < magic,
                        "flip {mask:#04x} at {at} after the magic gave {e:?}"
                    ),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The paths (child indices) of every integer and every array under `v` —
/// the shape fields and the arrays a damaged or hand-edited envelope can
/// get wrong. Arrays of numbers are sites but are not descended into.
fn edit_sites(v: &Value, path: &mut Vec<usize>, sites: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match v {
        Value::UInt(_) | Value::Int(_) => return sites.push(path.clone()),
        Value::Map(m) => m.iter().map(|(_, v)| v).collect(),
        Value::Seq(s) => {
            sites.push(path.clone());
            s.iter().filter(|v| v.as_map().is_some()).collect()
        }
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        edit_sites(child, path, sites);
        path.pop();
    }
}

fn at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Map(m) => &mut m[i].1,
        Value::Seq(s) => &mut s[i],
        _ => unreachable!("sites hold maps and arrays only"),
    })
}

/// Edit number `edit` of the site at `path`: an integer becomes one of a
/// few widths (zero, off by one, a neighbouring layer's, the largest); an
/// array loses its last, first or every element, or repeats its first.
fn edited(base: &Value, path: &[usize], edit: usize) -> Value {
    let mut doc = base.clone();
    let site = at(&mut doc, path);
    match site {
        Value::UInt(n) => {
            let widths = [0, 1, 2, 3, 4, 8, 9, 11, 16, 31, 32, 33, 64, 128, u64::MAX];
            *n = match edit % (widths.len() + 2) {
                0 => n.saturating_add(1),
                1 => n.saturating_sub(1),
                k => widths[k - 2],
            };
        }
        Value::Seq(items) => match edit % 4 {
            0 => drop(items.pop()),
            1 if !items.is_empty() => drop(items.remove(0)),
            2 => items.clear(),
            _ => {
                if let Some(first) = items.first().cloned() {
                    items.insert(0, first);
                }
            }
        },
        _ => {}
    }
    doc
}

/// Every edit site of an envelope's payload, as paths from the document.
fn payload_sites(doc: &Value) -> Vec<Vec<usize>> {
    let map = doc.as_map().expect("an envelope is an object");
    let payload = map.iter().position(|(k, _)| k == "payload");
    let payload = payload.expect("an envelope carries a payload");
    let mut sites = Vec::new();
    edit_sites(&map[payload].1, &mut vec![payload], &mut sites);
    sites
}

/// Whatever fails to decode must fail as a typed payload error.
fn assert_invalid(err: CheckpointError, json: &str) {
    let head = &json[..json.len().min(200)];
    assert!(
        matches!(err, CheckpointError::Invalid { .. }),
        "{err} for {head}"
    );
}

#[test]
fn every_edited_checkpoint_errors_or_runs() {
    // Every site of the small fixture, every edit: a decoded network must
    // run forward on a row of its own input width.
    let base = serde_json::parse_value(&read_fixture("mlp_envelope_v2.json")).unwrap();
    let sites = payload_sites(&base);
    assert!(sites.len() > 10, "{} sites", sites.len());
    for path in &sites {
        for edit in 0..17 {
            let json = serde_json::to_string(&edited(&base, path, edit)).unwrap();
            match envelope_from_json::<Mlp>(&json) {
                Ok(env) => {
                    let mlp = env.payload;
                    let y = mlp.forward(&Matrix::zeros(1, mlp.input_dim()));
                    assert_eq!(y.cols(), mlp.output_dim());
                }
                Err(err) => assert_invalid(err, &json),
            }
        }
    }
}

proptest! {
    /// One edit of the committed trained bundle's envelope: it decodes to a
    /// bundle whose three networks predict and whose simulator prices a
    /// plan on its device count — or it is refused with a typed error.
    /// Never a panic.
    #[test]
    fn an_edited_bundle_envelope_errors_or_runs(site in 0usize..1_000, edit in 0usize..1_000) {
        let base = serde_json::parse_value(&read_fixture("conformance_bundle.json")).unwrap();
        let sites = payload_sites(&base);
        let json = serde_json::to_string(&edited(&base, &sites[site % sites.len()], edit)).unwrap();
        match envelope_from_json::<CostModelBundle>(&json) {
            Ok(env) => {
                let bundle = env.payload;
                let d = bundle.num_devices();
                let table = TableProfile::new(64, 1 << 20, 15.0, 0.3, 1.1);
                let features = vec![table_features(&table, 1024)];
                prop_assert!(bundle.compute_model().predict_batch(&[&features])[0].is_finite());
                let (dims, starts) = (vec![300.0; d], vec![0.0; d]);
                for comm in [bundle.comm_fwd_model(), bundle.comm_bwd_model()] {
                    comm.predict_batch(&[(&dims[..], &starts[..])], 1024);
                }
                CostSimulator::new(bundle).estimate_plan(&vec![vec![table]; d]);
            }
            Err(err) => assert_invalid(err, &json),
        }
    }
}
