//! Model checkpoint (de)serialization.
//!
//! The paper's deployment section (§3.2) stresses strict version control of
//! cost-model checkpoints so a training job resumes with the same sharding
//! plan. Checkpoints here are JSON documents with an explicit format version
//! and a human-readable header.
//!
//! Two layers live here:
//!
//! * [`Checkpoint`] — the concrete single-[`Mlp`] checkpoint used by the
//!   training binaries;
//! * the **versioned envelope** ([`envelope_to_json`] /
//!   [`envelope_from_json`]) — a generic wrapper putting the same version
//!   header around *any* serializable payload. The `nshard-serve` daemon
//!   persists whole cost-model bundles and adopted plans through it
//!   (checksum-framed, which is why the file I/O lives there), so every
//!   artifact on disk is self-describing and version-checked at load time.
//!
//! **Version policy.** The current format is [`CHECKPOINT_VERSION`]; every
//! version down to [`MIN_SUPPORTED_CHECKPOINT_VERSION`] still loads and is
//! migrated forward in memory (v1 documents predate the `created_by`
//! field, which migration defaults to the empty string). Anything outside
//! that range surfaces a typed [`CheckpointError::UnsupportedVersion`] —
//! never a bare parse failure — so a daemon refusing to boot can say
//! exactly which version it found and which range it supports.

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::mlp::Mlp;

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Oldest checkpoint format version this build still loads (migrating it
/// forward in memory).
pub const MIN_SUPPORTED_CHECKPOINT_VERSION: u32 = 1;

/// A versioned, self-describing model checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Checkpoint format version; see the module docs for the policy.
    pub version: u32,
    /// Free-form model name (e.g. `"compute_cost"`).
    pub name: String,
    /// Free-form producer tag (e.g. a binary name or a daemon instance);
    /// empty for checkpoints migrated from version 1, which predates the
    /// field.
    pub created_by: String,
    /// The serialized network.
    pub model: Mlp,
}

/// Errors arising from checkpoint handling.
#[derive(Debug)]
pub enum CheckpointError {
    /// The JSON could not be parsed.
    Parse(serde_json::Error),
    /// The checkpoint has a version outside the supported range
    /// `[MIN_SUPPORTED_CHECKPOINT_VERSION, CHECKPOINT_VERSION]`.
    UnsupportedVersion {
        /// Version found in the document.
        found: u32,
        /// Oldest version this build loads.
        min_supported: u32,
        /// Newest version this build loads (the current format).
        supported: u32,
    },
    /// The document parsed but is not a checkpoint envelope (e.g. the
    /// version header is missing or not an integer).
    MalformedHeader {
        /// What was wrong.
        reason: String,
    },
    /// The header is sound but the payload does not decode into its type:
    /// a missing or mistyped field, or a failed shape check — a matrix
    /// whose data does not fill it, a bias of the wrong length, layers that
    /// do not chain, a network whose widths do not fit its model.
    Invalid {
        /// What was wrong, and where.
        reason: String,
    },
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The file path involved.
        path: String,
        /// The rendered I/O error.
        error: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Parse(e) => write!(f, "failed to parse checkpoint: {e}"),
            CheckpointError::UnsupportedVersion {
                found,
                min_supported,
                supported,
            } => write!(
                f,
                "checkpoint version {found} is not supported \
                 (this build supports versions {min_supported} through {supported})"
            ),
            CheckpointError::MalformedHeader { reason } => {
                write!(f, "malformed checkpoint header: {reason}")
            }
            CheckpointError::Invalid { reason } => {
                write!(f, "invalid checkpoint payload: {reason}")
            }
            CheckpointError::Io { path, error } => {
                write!(f, "checkpoint I/O failed for {path}: {error}")
            }
        }
    }
}

impl CheckpointError {
    fn invalid(e: serde::de::Error) -> Self {
        CheckpointError::Invalid {
            reason: e.to_string(),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

/// Validates a version header against the supported range.
///
/// # Errors
///
/// [`CheckpointError::UnsupportedVersion`] when outside
/// `[MIN_SUPPORTED_CHECKPOINT_VERSION, CHECKPOINT_VERSION]`.
pub fn check_version(found: u32) -> Result<(), CheckpointError> {
    if !(MIN_SUPPORTED_CHECKPOINT_VERSION..=CHECKPOINT_VERSION).contains(&found) {
        return Err(CheckpointError::UnsupportedVersion {
            found,
            min_supported: MIN_SUPPORTED_CHECKPOINT_VERSION,
            supported: CHECKPOINT_VERSION,
        });
    }
    Ok(())
}

/// Reads the `version` header out of a parsed envelope.
fn header_version(map: &[(String, Value)]) -> Result<u32, String> {
    let version = match map.iter().find(|(k, _)| k == "version").map(|(_, v)| v) {
        Some(Value::UInt(v)) => *v,
        Some(Value::Int(v)) if *v >= 0 => v.unsigned_abs(),
        Some(other) => {
            return Err(format!(
                "version header is {}, expected an integer",
                other.kind()
            ))
        }
        None => return Err("missing version header".into()),
    };
    u32::try_from(version).map_err(|_| format!("version {version} out of range"))
}

/// Parses `json` as an object — a checkpoint or an envelope (`what`) —
/// and migrates its header, returning the fields and the version written.
fn parse_object(json: &str, what: &str) -> Result<(Vec<(String, Value)>, u32), CheckpointError> {
    let mut map = match serde_json::parse_value(json).map_err(CheckpointError::Parse)? {
        Value::Map(m) => m,
        other => {
            return Err(malformed(format!(
                "{what} is {}, expected an object",
                other.kind()
            )))
        }
    };
    let written = migrate_header(&mut map)?;
    Ok((map, written))
}

fn malformed(reason: String) -> CheckpointError {
    CheckpointError::MalformedHeader { reason }
}

/// Migrates a parsed envelope map to the current version in place:
/// version 1 predates `created_by`, which is defaulted to the empty
/// string. Returns the (already validated) version it migrated from.
fn migrate_header(map: &mut Vec<(String, Value)>) -> Result<u32, CheckpointError> {
    let found = header_version(map).map_err(malformed)?;
    check_version(found)?;
    if found < 2 && !map.iter().any(|(k, _)| k == "created_by") {
        map.push(("created_by".to_string(), Value::Str(String::new())));
    }
    for (k, v) in map.iter_mut() {
        if k == "version" {
            *v = Value::UInt(u64::from(CHECKPOINT_VERSION));
        }
    }
    Ok(found)
}

impl Checkpoint {
    /// Wraps a model into a versioned checkpoint.
    pub fn new(name: impl Into<String>, model: Mlp) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            name: name.into(),
            created_by: String::new(),
            model,
        }
    }

    /// Sets the producer tag (builder-style).
    #[must_use]
    pub fn with_created_by(mut self, created_by: impl Into<String>) -> Self {
        self.created_by = created_by.into();
        self
    }

    /// Serializes to a JSON string.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the checkpoint contains only serializable
    /// plain data.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoints are always serializable")
    }

    /// Parses a checkpoint from JSON, validating the format version and
    /// migrating supported prior versions forward.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] on malformed JSON,
    /// [`CheckpointError::UnsupportedVersion`] on a version outside the
    /// supported range, [`CheckpointError::MalformedHeader`] when the
    /// version header is absent or not an integer, and
    /// [`CheckpointError::Invalid`] when the model does not decode.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let (map, _) = parse_object(json, "checkpoint")?;
        Checkpoint::from_value(&Value::Map(map)).map_err(CheckpointError::invalid)
    }
}

// ---- generic versioned envelope -------------------------------------------

/// Wraps any serializable payload in the versioned checkpoint envelope:
/// `{"version": .., "name": .., "created_by": .., "payload": ..}`.
pub fn envelope_to_json<T: Serialize>(name: &str, created_by: &str, payload: &T) -> String {
    let map = Value::Map(vec![
        (
            "version".to_string(),
            Value::UInt(u64::from(CHECKPOINT_VERSION)),
        ),
        ("name".to_string(), Value::Str(name.to_string())),
        ("created_by".to_string(), Value::Str(created_by.to_string())),
        ("payload".to_string(), payload.to_value()),
    ]);
    serde_json::to_string(&map).expect("envelopes are always serializable")
}

/// A deserialized envelope: header fields plus the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<T> {
    /// The version the document was written with (before migration).
    pub version: u32,
    /// Artifact name.
    pub name: String,
    /// Producer tag; empty for version-1 documents, which predate it.
    pub created_by: String,
    /// The payload.
    pub payload: T,
}

/// Parses and version-checks an envelope produced by [`envelope_to_json`]
/// (or by a prior supported version of it).
///
/// # Errors
///
/// The same typed errors as [`Checkpoint::from_json`].
pub fn envelope_from_json<T: Deserialize>(json: &str) -> Result<Envelope<T>, CheckpointError> {
    let (map, written) = parse_object(json, "envelope")?;
    let field = |key: &str| {
        let value = map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        value.ok_or_else(|| malformed(format!("missing `{key}` field")))
    };
    let text = |key: &str| match field(key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(malformed(format!("`{key}` is not a string"))),
    };
    let (name, created_by) = (text("name")?, text("created_by")?);
    let payload = T::from_value(field("payload")?).map_err(CheckpointError::invalid)?;
    Ok(Envelope {
        version: written,
        name,
        created_by,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;

    #[test]
    fn round_trip_preserves_predictions() {
        let mlp = Mlp::new(3, &[8, 4], 1, 9);
        let ckpt = Checkpoint::new("compute_cost", mlp.clone()).with_created_by("unit_test");
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back.name, "compute_cost");
        assert_eq!(back.created_by, "unit_test");
        assert_eq!(back.version, CHECKPOINT_VERSION);
        let x = Matrix::from_rows([vec![0.1, 0.2, 0.3]]);
        assert_eq!(mlp.forward(&x), back.model.forward(&x));
    }

    #[test]
    fn prior_version_header_round_trips_through_migration() {
        // A version-1 document: no `created_by` field, version header 1 —
        // exactly what a pre-upgrade binary wrote to disk. It must load,
        // migrate forward, and predict identically.
        let mlp = Mlp::new(2, &[4], 1, 3);
        let current = Checkpoint::new("legacy", mlp.clone());
        let v1_json = current
            .to_json()
            .replacen(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":1",
                1,
            )
            .replace(",\"created_by\":\"\"", "");
        assert!(!v1_json.contains("created_by"), "fixture must be v1-shaped");
        let back = Checkpoint::from_json(&v1_json).unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION, "migrated forward");
        assert_eq!(back.created_by, "", "defaulted by migration");
        assert_eq!(back.name, "legacy");
        let x = Matrix::from_rows([vec![0.5, -0.25]]);
        assert_eq!(mlp.forward(&x), back.model.forward(&x));
        // Re-serializing writes the current version.
        let rewritten = back.to_json();
        assert!(rewritten.contains(&format!("\"version\":{CHECKPOINT_VERSION}")));
    }

    #[test]
    fn rejects_unsupported_version_with_typed_error() {
        let mut ckpt = Checkpoint::new("m", Mlp::new(1, &[], 1, 0));
        ckpt.version = 999;
        let json = serde_json::to_string(&ckpt).unwrap();
        match Checkpoint::from_json(&json) {
            Err(CheckpointError::UnsupportedVersion {
                found,
                min_supported,
                supported,
            }) => {
                assert_eq!(found, 999);
                assert_eq!(min_supported, MIN_SUPPORTED_CHECKPOINT_VERSION);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        // Version 0 predates the format entirely.
        let json0 = json.replacen("\"version\":999", "\"version\":0", 1);
        assert!(matches!(
            Checkpoint::from_json(&json0),
            Err(CheckpointError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn rejects_garbage_and_missing_header() {
        assert!(matches!(
            Checkpoint::from_json("not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            Checkpoint::from_json("{\"name\":\"x\"}"),
            Err(CheckpointError::MalformedHeader { .. })
        ));
        assert!(matches!(
            Checkpoint::from_json("[1,2,3]"),
            Err(CheckpointError::MalformedHeader { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let err = CheckpointError::UnsupportedVersion {
            found: 7,
            min_supported: 1,
            supported: 2,
        };
        let msg = err.to_string();
        assert!(msg.contains('7') && msg.contains('1') && msg.contains('2'));
        let io = CheckpointError::Io {
            path: "/tmp/x.json".into(),
            error: "denied".into(),
        };
        assert!(io.to_string().contains("/tmp/x.json"));
    }

    #[test]
    fn envelope_round_trips_arbitrary_payloads() {
        let payload = vec![1.5f64, 2.5, -3.0];
        let json = envelope_to_json("weights", "daemon", &payload);
        let env: Envelope<Vec<f64>> = envelope_from_json(&json).unwrap();
        assert_eq!(env.version, CHECKPOINT_VERSION);
        assert_eq!(env.name, "weights");
        assert_eq!(env.created_by, "daemon");
        assert_eq!(env.payload, payload);
    }

    #[test]
    fn envelope_migrates_prior_version() {
        let json = envelope_to_json("w", "x", &vec![1u32, 2])
            .replacen(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":1",
                1,
            )
            .replace(",\"created_by\":\"x\"", "");
        let env: Envelope<Vec<u32>> = envelope_from_json(&json).unwrap();
        assert_eq!(env.version, 1, "reports the version it was written with");
        assert_eq!(env.created_by, "");
        assert_eq!(env.payload, vec![1, 2]);
    }
}
