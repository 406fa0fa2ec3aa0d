//! `repro --check`: a regenerated result against its committed file.
//!
//! Both sides are compared as parsed JSON trees, so whitespace and key
//! order do not matter and everything else does — a cost that moved by one
//! ulp prints differently and fails. The only tolerated difference is the
//! *value* of a wall-clock-derived field (`mean_time_s`,
//! `speedup_vs_neuroshard`); its presence is still compared.

use std::fmt;
use std::path::{Path, PathBuf};

use serde_json::{parse_value, Value};

/// Object keys whose values derive from wall-clock time and so differ from
/// run to run. Every result type names its timing fields from this list.
const MASKED_FIELDS: [&str; 2] = ["mean_time_s", "speedup_vs_neuroshard"];

/// The first place two JSON trees disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Difference {
    /// JSON path of the disagreement, e.g. `$.cells[3].rows[8].mean_cost_ms`.
    pub path: String,
    /// What the committed file holds there.
    pub committed: String,
    /// What the regenerated result holds there.
    pub regenerated: String,
}

/// Why a regenerated result failed its check.
#[derive(Debug)]
pub enum CheckError {
    /// The committed file could not be read (typically: it is missing).
    Unreadable(PathBuf, std::io::Error),
    /// The committed file is not a JSON document.
    Malformed(PathBuf, serde_json::Error),
    /// The committed file and the regenerated result disagree.
    Differs(PathBuf, Difference),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Unreadable(file, e) => write!(f, "{}: cannot read: {e}", file.display()),
            CheckError::Malformed(file, e) => write!(f, "{}: not JSON: {e}", file.display()),
            CheckError::Differs(file, d) => write!(
                f,
                "{}: differs at {}: committed {}, regenerated {}",
                file.display(),
                d.path,
                d.committed,
                d.regenerated
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks regenerated JSON text against the committed `file`.
///
/// # Errors
///
/// [`CheckError`] naming the file and, when the trees differ, the first
/// differing JSON path with both values.
pub fn check_file(regenerated: &str, file: &Path) -> Result<(), CheckError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| CheckError::Unreadable(file.to_path_buf(), e))?;
    let committed = parse_value(&text).map_err(|e| CheckError::Malformed(file.to_path_buf(), e))?;
    let regenerated = parse_value(regenerated).expect("reports serialize to valid JSON");
    match diff_at("$", &committed, &regenerated) {
        Some(difference) => Err(CheckError::Differs(file.to_path_buf(), difference)),
        None => Ok(()),
    }
}

/// Depth-first, in the committed tree's order: the first path at or below
/// `path` where the trees differ, ignoring the values of [`MASKED_FIELDS`].
fn diff_at(path: &str, committed: &Value, regenerated: &Value) -> Option<Difference> {
    const MISSING: &str = "(no such key)";
    let differs = |path: String, committed: String, regenerated: String| {
        Some(Difference {
            path,
            committed,
            regenerated,
        })
    };
    match (committed, regenerated) {
        (Value::Map(old), Value::Map(new)) => {
            let get =
                |entries: &[(String, Value)], key: &str| entries.iter().position(|(k, _)| k == key);
            for (key, old_value) in old {
                let at = format!("{path}.{key}");
                match get(new, key) {
                    None => return differs(at, render(old_value), MISSING.into()),
                    Some(_) if MASKED_FIELDS.contains(&key.as_str()) => {}
                    Some(i) => {
                        if let Some(d) = diff_at(&at, old_value, &new[i].1) {
                            return Some(d);
                        }
                    }
                }
            }
            let (key, value) = new.iter().find(|(key, _)| get(old, key).is_none())?;
            differs(format!("{path}.{key}"), MISSING.into(), render(value))
        }
        (Value::Seq(old), Value::Seq(new)) if old.len() == new.len() => old
            .iter()
            .zip(new)
            .enumerate()
            .find_map(|(i, (o, n))| diff_at(&format!("{path}[{i}]"), o, n)),
        (Value::Seq(old), Value::Seq(new)) => differs(
            path.to_string(),
            format!("array of {}", old.len()),
            format!("array of {}", new.len()),
        ),
        (old, new) if old == new => None,
        (old, new) => differs(path.to_string(), render(old), render(new)),
    }
}

/// A value as compact JSON, shortened when it is a large subtree.
fn render(value: &Value) -> String {
    let text = serde_json::to_string(value).expect("a parsed tree serializes");
    match text.char_indices().nth(60) {
        Some((cut, _)) => format!("{}...", &text[..cut]),
        None => text,
    }
}
