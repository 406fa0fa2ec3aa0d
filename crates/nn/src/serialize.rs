//! The one on-disk artifact format: a versioned envelope in a checksum
//! frame.
//!
//! The paper's deployment section (§3.2) stresses strict version control of
//! cost-model checkpoints so a training job resumes with the same sharding
//! plan. Every artifact the workspace persists — a cost-model bundle, an
//! adopted plan, the daemon's `models/active` entry — is written here, in
//! two layers:
//!
//! * the **versioned envelope** ([`envelope_to_json`] /
//!   [`envelope_from_json`]) — a JSON header (`version`, `name`,
//!   `created_by`) around *any* serializable payload, so every artifact is
//!   self-describing and version-checked at load time;
//! * the **checksum frame** ([`write_checked`] / [`read_checked`]) — a
//!   first line `#nshard-checksum: <fnv64 hex>` over the envelope that
//!   follows, written to a temporary file and renamed into place. A torn
//!   write, a half-flushed page or a bit flip loads as
//!   [`CheckpointError::Corrupt`] instead of parsing into garbage; files
//!   without the line (written before the frame existed) load as plain
//!   envelopes.
//!
//! **Version policy.** The current format is [`CHECKPOINT_VERSION`]; every
//! version down to `MIN_SUPPORTED_CHECKPOINT_VERSION` still loads and is
//! migrated forward in memory (v1 documents predate the `created_by`
//! field, which migration defaults to the empty string). Anything outside
//! that range surfaces a typed [`CheckpointError::UnsupportedVersion`] —
//! never a bare parse failure — so a daemon refusing to boot can say
//! exactly which version it found and which range it supports.

use std::path::Path;

use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Oldest checkpoint format version this build still loads (migrating it
/// forward in memory).
pub(crate) const MIN_SUPPORTED_CHECKPOINT_VERSION: u32 = 1;

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
    /// A framed file failed its checksum — a torn, truncated or tampered
    /// write — or is not UTF-8.
    Corrupt {
        /// The file involved.
        path: String,
        /// What the check saw.
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
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "checkpoint {path} is corrupt: {reason}")
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

    fn io(path: &Path, e: std::io::Error) -> Self {
        CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
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
fn check_version(found: u32) -> Result<(), CheckpointError> {
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

/// Parses `json` as an envelope object and migrates its header, returning
/// the fields and the version written.
fn parse_object(json: &str) -> Result<(Vec<(String, Value)>, u32), CheckpointError> {
    let mut map = match serde_json::parse_value(json).map_err(CheckpointError::Parse)? {
        Value::Map(m) => m,
        other => {
            return Err(malformed(format!(
                "envelope is {}, expected an object",
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
/// [`CheckpointError::Parse`] on malformed JSON,
/// [`CheckpointError::UnsupportedVersion`] on a version outside the
/// supported range, [`CheckpointError::MalformedHeader`] when a header
/// field is absent or mistyped, and [`CheckpointError::Invalid`] when the
/// payload does not decode into `T`.
pub fn envelope_from_json<T: Deserialize>(json: &str) -> Result<Envelope<T>, CheckpointError> {
    let (map, written) = parse_object(json)?;
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

/// Magic prefix of the checksum line framing every persisted artifact.
const CHECKSUM_MAGIC: &str = "#nshard-checksum: ";

/// FNV-1a over a byte string — the workspace's one cheap, dependency-free
/// digest: the frame's checksum here, and the daemon's content-addressed
/// plan ids, response-cache keys and KV digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest `h` over more bytes:
/// `fnv64_extend(fnv64(a), b)` is `fnv64` of `a` followed by `b`.
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `payload` to `path` as a checksum-framed envelope: the first
/// line is `#nshard-checksum: <fnv64 hex of the remainder>`, the rest the
/// [`envelope_to_json`] document. Missing parent directories are created.
/// The bytes go to `<path>.tmp` first and are renamed over `path`, so a
/// crash leaves the old file or the new one, never a torn mix.
///
/// # Errors
///
/// [`CheckpointError::Io`] when a directory or the file cannot be written.
pub fn write_checked<T: Serialize>(
    path: &Path,
    name: &str,
    created_by: &str,
    payload: &T,
) -> Result<(), CheckpointError> {
    let body = envelope_to_json(name, created_by, payload);
    let framed = format!("{CHECKSUM_MAGIC}{:016x}\n{body}", fnv64(body.as_bytes()));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| CheckpointError::io(parent, e))?;
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, framed).map_err(|e| CheckpointError::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::io(path, e))
}

/// Reads an envelope written by [`write_checked`]. A file without the
/// checksum line (written before the frame existed) parses as a plain
/// envelope.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the file cannot be read;
/// [`CheckpointError::Corrupt`] on a checksum mismatch, a checksum line
/// without its newline, or bytes that are not UTF-8; otherwise the errors
/// of [`envelope_from_json`].
pub fn read_checked<T: Deserialize>(path: &Path) -> Result<Envelope<T>, CheckpointError> {
    let corrupt = |reason: String| CheckpointError::Corrupt {
        path: path.display().to_string(),
        reason,
    };
    let raw = std::fs::read(path).map_err(|e| CheckpointError::io(path, e))?;
    let raw = String::from_utf8(raw).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
    let body = match raw.strip_prefix(CHECKSUM_MAGIC) {
        None => raw.as_str(),
        Some(rest) => {
            let (stamp, body) = rest.split_once('\n').ok_or_else(|| {
                corrupt("checksum line is not newline-terminated (truncated write)".into())
            })?;
            // Compared as text: any flipped byte of the stamp — a hex
            // digit's case included — is damage too.
            let got = format!("{:016x}", fnv64(body.as_bytes()));
            if stamp.trim() != got {
                return Err(corrupt(format!(
                    "checksum mismatch: stamped {stamp:?}, computed {got}"
                )));
            }
            body
        }
    };
    envelope_from_json(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::tensor::Matrix;

    #[test]
    fn round_trip_preserves_predictions() {
        let mlp = Mlp::new(3, &[8, 4], 1, 9);
        let json = envelope_to_json("compute_cost", "unit_test", &mlp);
        let back: Envelope<Mlp> = envelope_from_json(&json).unwrap();
        assert_eq!(back.name, "compute_cost");
        assert_eq!(back.created_by, "unit_test");
        assert_eq!(back.version, CHECKPOINT_VERSION);
        let x = Matrix::from_rows([vec![0.1, 0.2, 0.3]]);
        assert_eq!(mlp.forward(&x), back.payload.forward(&x));
    }

    #[test]
    fn prior_version_header_round_trips_through_migration() {
        // A version-1 document: no `created_by` field, version header 1 —
        // exactly what a pre-upgrade binary wrote to disk. It must load,
        // migrate forward, and predict identically.
        let mlp = Mlp::new(2, &[4], 1, 3);
        let v1_json = envelope_to_json("legacy", "", &mlp)
            .replacen(
                &format!("\"version\":{CHECKPOINT_VERSION}"),
                "\"version\":1",
                1,
            )
            .replace(",\"created_by\":\"\"", "");
        assert!(!v1_json.contains("created_by"), "fixture must be v1-shaped");
        let back: Envelope<Mlp> = envelope_from_json(&v1_json).unwrap();
        assert_eq!(back.version, 1, "reports the version it was written with");
        assert_eq!(back.created_by, "", "defaulted by migration");
        assert_eq!(back.name, "legacy");
        let x = Matrix::from_rows([vec![0.5, -0.25]]);
        assert_eq!(mlp.forward(&x), back.payload.forward(&x));
        // Re-serializing writes the current version.
        let rewritten = envelope_to_json(&back.name, &back.created_by, &back.payload);
        assert!(rewritten.contains(&format!("\"version\":{CHECKPOINT_VERSION}")));
    }

    #[test]
    fn rejects_unsupported_version_with_typed_error() {
        let json = envelope_to_json("m", "", &Mlp::new(1, &[], 1, 0)).replacen(
            &format!("\"version\":{CHECKPOINT_VERSION}"),
            "\"version\":999",
            1,
        );
        match envelope_from_json::<Mlp>(&json) {
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
            envelope_from_json::<Mlp>(&json0),
            Err(CheckpointError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn rejects_garbage_and_missing_header() {
        assert!(matches!(
            envelope_from_json::<Mlp>("not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            envelope_from_json::<Mlp>("{\"name\":\"x\"}"),
            Err(CheckpointError::MalformedHeader { .. })
        ));
        assert!(matches!(
            envelope_from_json::<Mlp>("[1,2,3]"),
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
        let corrupt = CheckpointError::Corrupt {
            path: "/tmp/y.json".into(),
            reason: "checksum mismatch".into(),
        };
        assert!(corrupt.to_string().contains("/tmp/y.json"));
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

    #[test]
    fn a_framed_file_round_trips_and_a_cut_stamp_line_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("nshard_frame_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("w.json");
        let payload = vec![0.5f64, -1.0];
        write_checked(&path, "w", "unit_test", &payload).unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        let env: Envelope<Vec<f64>> = read_checked(&path).unwrap();
        assert_eq!((env.name.as_str(), env.payload), ("w", payload));
        // A write torn inside the checksum line.
        let raw = std::fs::read(&path).unwrap();
        let newline = raw.iter().position(|&b| b == b'\n').unwrap();
        std::fs::write(&path, &raw[..newline]).unwrap();
        assert!(matches!(
            read_checked::<Vec<f64>>(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            read_checked::<Vec<f64>>(&path),
            Err(CheckpointError::Io { .. })
        ));
    }
}
