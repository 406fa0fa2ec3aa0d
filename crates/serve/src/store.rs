//! The versioned plan & model store behind the daemon.
//!
//! Two registries live here, both persisted as versioned-envelope JSON
//! documents (see `nshard_nn::serialize`) so a restarted daemon boots warm
//! and refuses artifacts from unsupported format versions with a typed
//! error instead of undefined behavior:
//!
//! * [`PlanStore`] — every **adopted** [`ShardingPlan`] with its
//!   [`PlanProvenance`], keyed by a deterministic content-addressed id and
//!   stamped with a monotonically increasing adoption `version`. Adoption
//!   is idempotent by id, which keeps concurrent identical requests
//!   bit-deterministic: the first adoption wins and every duplicate maps
//!   to the same stored record.
//! * [`ModelStore`] — named cost-model checkpoints ([`CostModelBundle`]s)
//!   the planning engine loads at startup.
//!
//! On-disk layout under the store directory:
//!
//! ```text
//! store/
//!   plans/<id>.json      (checksummed envelope; payload = StoredPlan)
//!   models/<name>.json   (checksummed envelope; payload = CostModelBundle)
//! ```
//!
//! ## Torn-write hardening
//!
//! Every file this module writes is framed with a leading checksum line
//! (`#nshard-checksum: <fnv64 hex>` over the rest of the file) so a write
//! torn by a crash — truncation, a half-flushed page, a bit flip — is
//! *detected* instead of parsed into garbage. On warm restart,
//! [`PlanStore::open`] **quarantines** corrupt entries (renames them to
//! `*.json.quarantined`) and keeps booting with the surviving plans rather
//! than refusing to start; [`PlanStore::quarantined`] reports how many were
//! set aside (the daemon's `nshard_serve_store_quarantined` gauge). Files
//! written by pre-checksum builds carry no magic line and still load
//! unchanged.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use nshard_core::{PlanProvenance, ShardingPlan};
use nshard_cost::CostModelBundle;
use nshard_data::ShardingTask;
use nshard_nn::serialize::{envelope_from_json, envelope_to_json, CheckpointError, Envelope};

/// The producer tag written into envelope headers.
const CREATED_BY: &str = "nshard-serve";

/// Magic prefix of the checksum line framing every persisted artifact.
const CHECKSUM_MAGIC: &str = "#nshard-checksum: ";

/// FNV-1a over a byte string — the crate's one cheap, dependency-free
/// digest: store checksums, content-addressed plan ids, response-cache
/// keys and metric-registry shards.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest `h` over more bytes:
/// `fnv64_extend(fnv64(a), b)` is `fnv64` of `a` followed by `b`.
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors of the plan/model store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble outside an envelope read/write.
    Io {
        /// The path involved.
        path: String,
        /// Rendered I/O error.
        error: String,
    },
    /// A persisted artifact failed to load or save (parse, version or I/O).
    Checkpoint(CheckpointError),
    /// A persisted artifact failed its checksum — a torn or tampered write.
    Corrupt {
        /// The file involved.
        path: String,
        /// What the detector saw.
        reason: String,
    },
    /// The daemon configuration is internally inconsistent — rejected at
    /// construction with the typed search-config error instead of
    /// panicking on the first request.
    InvalidConfig(nshard_core::ConfigError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, error } => write!(f, "store I/O failed for {path}: {error}"),
            StoreError::Checkpoint(e) => write!(f, "store artifact error: {e}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "store artifact {path} is corrupt: {reason}")
            }
            StoreError::InvalidConfig(e) => write!(f, "invalid serve configuration: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CheckpointError> for StoreError {
    fn from(e: CheckpointError) -> Self {
        StoreError::Checkpoint(e)
    }
}

/// Writes `payload` as a checksum-framed versioned envelope: the first
/// line is `#nshard-checksum: <fnv64 hex of the remainder>`, the rest the
/// envelope JSON.
fn write_checked<T: Serialize>(path: &Path, name: &str, payload: &T) -> Result<(), StoreError> {
    let body = envelope_to_json(name, CREATED_BY, payload);
    let framed = format!("{CHECKSUM_MAGIC}{:016x}\n{body}", fnv64(body.as_bytes()));
    std::fs::write(path, framed).map_err(|e| StoreError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    })
}

/// Reads a checksum-framed envelope written by [`write_checked`]. Files
/// without the magic first line (pre-checksum builds) parse as plain
/// envelopes, so old stores keep loading.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on a checksum mismatch or an unparseable
/// checksum line; [`StoreError::Checkpoint`] / [`StoreError::Io`] as for
/// any envelope load.
fn read_checked<T: Deserialize>(path: &Path) -> Result<Envelope<T>, StoreError> {
    let raw = std::fs::read_to_string(path).map_err(|e| {
        StoreError::Checkpoint(CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })
    })?;
    let body = match raw.strip_prefix(CHECKSUM_MAGIC) {
        None => raw.as_str(),
        Some(rest) => {
            let (stamp, body) = rest.split_once('\n').ok_or_else(|| StoreError::Corrupt {
                path: path.display().to_string(),
                reason: "checksum line is not newline-terminated (truncated write)".into(),
            })?;
            let want = u64::from_str_radix(stamp.trim(), 16).map_err(|_| StoreError::Corrupt {
                path: path.display().to_string(),
                reason: format!("unparseable checksum stamp {stamp:?}"),
            })?;
            let got = fnv64(body.as_bytes());
            if got != want {
                return Err(StoreError::Corrupt {
                    path: path.display().to_string(),
                    reason: format!("checksum mismatch: stamped {want:016x}, computed {got:016x}"),
                });
            }
            body
        }
    };
    Ok(envelope_from_json(body)?)
}

/// Whether a load failure means the *file* is damaged (quarantine it)
/// rather than the build being incompatible or the filesystem failing
/// (surface those).
fn is_damage(err: &StoreError) -> bool {
    matches!(
        err,
        StoreError::Corrupt { .. }
            | StoreError::Checkpoint(CheckpointError::Parse(_))
            | StoreError::Checkpoint(CheckpointError::MalformedHeader { .. })
    )
}

/// One adopted plan: the daemon's unit of persistence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredPlan {
    /// Content-addressed id (hex of the task+plan fingerprint).
    pub id: String,
    /// Adoption sequence number (1-based, monotonic per store).
    pub version: u64,
    /// The task the plan was produced for.
    pub task: ShardingTask,
    /// The adopted plan.
    pub plan: ShardingPlan,
    /// How the plan was obtained.
    pub provenance: PlanProvenance,
    /// Predicted embedding cost under the cost models, ms.
    pub predicted_ms: f64,
    /// Whether the serving layer degraded the search (deadline pressure).
    pub degraded: bool,
}

struct PlanStoreInner {
    plans: HashMap<String, StoredPlan>,
    /// Adoption order (ids), oldest first; parallel to `version` stamps.
    order: Vec<String>,
    next_version: u64,
}

/// The versioned, optionally disk-backed registry of adopted plans.
pub struct PlanStore {
    inner: Mutex<PlanStoreInner>,
    dir: Option<PathBuf>,
    quarantined: usize,
}

impl PlanStore {
    /// A store that lives only in memory.
    pub(crate) fn in_memory() -> Self {
        Self {
            inner: Mutex::new(PlanStoreInner {
                plans: HashMap::new(),
                order: Vec::new(),
                next_version: 1,
            }),
            dir: None,
            quarantined: 0,
        }
    }

    /// Opens (creating if needed) a disk-backed store rooted at `dir`,
    /// loading every persisted plan so the daemon restarts warm. Entries
    /// that fail their checksum or do not parse — torn writes from a crash
    /// mid-persist — are renamed to `*.json.quarantined` and skipped, so
    /// one damaged file never blocks the whole store from booting.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created, a file cannot
    /// be read or renamed, or a persisted plan carries an unsupported
    /// format version (a build problem, not file damage — never
    /// quarantined silently).
    pub(crate) fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = dir.as_ref().join("plans");
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io {
            path: root.display().to_string(),
            error: e.to_string(),
        })?;
        let mut plans: Vec<StoredPlan> = Vec::new();
        let mut quarantined = 0usize;
        let entries = std::fs::read_dir(&root).map_err(|e| StoreError::Io {
            path: root.display().to_string(),
            error: e.to_string(),
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io {
                path: root.display().to_string(),
                error: e.to_string(),
            })?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            match read_checked::<StoredPlan>(&path) {
                Ok(envelope) => plans.push(envelope.payload),
                Err(e) if is_damage(&e) => {
                    let aside = path.with_extension("json.quarantined");
                    std::fs::rename(&path, &aside).map_err(|e| StoreError::Io {
                        path: path.display().to_string(),
                        error: e.to_string(),
                    })?;
                    quarantined += 1;
                }
                Err(e) => return Err(e),
            }
        }
        // Replaying in stamped-version order reconstructs the adoption
        // sequence regardless of directory iteration order.
        plans.sort_by_key(|p| p.version);
        let next_version = plans.iter().map(|p| p.version).max().unwrap_or(0) + 1;
        let order: Vec<String> = plans.iter().map(|p| p.id.clone()).collect();
        Ok(Self {
            inner: Mutex::new(PlanStoreInner {
                plans: plans.into_iter().map(|p| (p.id.clone(), p)).collect(),
                order,
                next_version,
            }),
            dir: Some(dir.as_ref().to_path_buf()),
            quarantined,
        })
    }

    /// How many persisted entries the last [`PlanStore::open`] quarantined
    /// as corrupt (always `0` for in-memory stores).
    pub(crate) fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Adopts a plan: stamps the next version, stores and (when
    /// disk-backed) persists it. Adoption is **idempotent by id** — an id
    /// already in the store returns the existing record unchanged, so
    /// duplicate identical requests never fork versions. The flag reports
    /// whether this call created the record (`true`) or hit the duplicate
    /// path (`false`) — the replication layer only logs the former.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when persisting to disk fails; the in-memory record
    /// is kept consistent either way.
    pub(crate) fn adopt(
        &self,
        id: &str,
        task: ShardingTask,
        plan: ShardingPlan,
        provenance: PlanProvenance,
        predicted_ms: f64,
        degraded: bool,
    ) -> Result<(StoredPlan, bool), StoreError> {
        let record = {
            let mut inner = self.inner.lock().expect("plan store poisoned");
            if let Some(existing) = inner.plans.get(id) {
                return Ok((existing.clone(), false));
            }
            let record = StoredPlan {
                id: id.to_string(),
                version: inner.next_version,
                task,
                plan,
                provenance,
                predicted_ms,
                degraded,
            };
            inner.next_version += 1;
            inner.plans.insert(id.to_string(), record.clone());
            inner.order.push(id.to_string());
            record
        };
        self.persist(&record)?;
        Ok((record, true))
    }

    /// Installs a leader-stamped record as-is — the follower's apply path.
    /// The record keeps the **leader's** version (replicas must agree
    /// byte-for-byte); the local version counter advances past it so a
    /// promoted follower stamps fresh adoptions above everything it
    /// replicated. Idempotent by id, like [`PlanStore::adopt`].
    ///
    /// # Errors
    ///
    /// [`StoreError`] when persisting to disk fails.
    pub(crate) fn insert_replica(&self, record: StoredPlan) -> Result<(), StoreError> {
        {
            let mut inner = self.inner.lock().expect("plan store poisoned");
            if inner.plans.contains_key(&record.id) {
                return Ok(());
            }
            inner.next_version = inner.next_version.max(record.version + 1);
            inner.order.push(record.id.clone());
            inner.plans.insert(record.id.clone(), record.clone());
        }
        self.persist(&record)
    }

    fn persist(&self, record: &StoredPlan) -> Result<(), StoreError> {
        if let Some(dir) = &self.dir {
            let path = dir.join("plans").join(format!("{}.json", record.id));
            write_checked(&path, &record.id, record)?;
        }
        Ok(())
    }

    /// Looks up a plan by id.
    pub fn get(&self, id: &str) -> Option<StoredPlan> {
        self.inner
            .lock()
            .expect("plan store poisoned")
            .plans
            .get(id)
            .cloned()
    }

    /// The most recently adopted plan.
    pub fn latest(&self) -> Option<StoredPlan> {
        let inner = self.inner.lock().expect("plan store poisoned");
        inner
            .order
            .last()
            .and_then(|id| inner.plans.get(id))
            .cloned()
    }

    /// Number of stored plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan store poisoned").plans.len()
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored ids in adoption order.
    pub fn ids(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("plan store poisoned")
            .order
            .clone()
    }
}

/// The named cost-model checkpoint registry.
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// Opens (creating if needed) a model store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = dir.as_ref().join("models");
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io {
            path: root.display().to_string(),
            error: e.to_string(),
        })?;
        Ok(Self { dir: root })
    }

    /// Persists a bundle checkpoint under `name`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the envelope cannot be written.
    pub fn save(&self, name: &str, bundle: &CostModelBundle) -> Result<PathBuf, StoreError> {
        let path = self.dir.join(format!("{name}.json"));
        write_checked(&path, name, bundle)?;
        Ok(path)
    }

    /// Loads and version-checks the bundle checkpoint named `name` — the
    /// daemon's warm-start path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Checkpoint`] with a typed cause: I/O (missing file),
    /// unsupported version, or parse failure — or [`StoreError::Corrupt`]
    /// when the checkpoint fails its checksum.
    pub fn load(&self, name: &str) -> Result<CostModelBundle, StoreError> {
        let path = self.dir.join(format!("{name}.json"));
        Ok(read_checked::<CostModelBundle>(&path)?.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_core::PlanSource;
    use nshard_data::{TableConfig, TableId};

    fn task() -> ShardingTask {
        let tables: Vec<TableConfig> = (0..4)
            .map(|i| TableConfig::new(TableId(i), 32, 4096, 8.0, 1.0))
            .collect();
        ShardingTask::new(tables, 2, 1 << 30, 1024)
    }

    fn plan(task: &ShardingTask) -> ShardingPlan {
        ShardingPlan::new(
            Vec::new(),
            task.tables().to_vec(),
            (0..task.num_tables()).map(|i| i % 2).collect(),
            2,
        )
        .unwrap()
    }

    fn provenance() -> PlanProvenance {
        PlanProvenance {
            source: PlanSource::Primary {
                algorithm: "test".into(),
            },
            events: Vec::new(),
            total_retries: 0,
            total_backoff_ms: 0,
            replan: None,
            failover: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nshard_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn adoption_is_versioned_and_idempotent() {
        let store = PlanStore::in_memory();
        let t = task();
        let p = plan(&t);
        let (a, a_new) = store
            .adopt("aaaa", t.clone(), p.clone(), provenance(), 1.0, false)
            .unwrap();
        let (b, b_new) = store
            .adopt("bbbb", t.clone(), p.clone(), provenance(), 2.0, false)
            .unwrap();
        assert_eq!((a.version, a_new), (1, true));
        assert_eq!((b.version, b_new), (2, true));
        // Re-adopting an existing id returns the original record.
        let a2 = store.adopt("aaaa", t, p, provenance(), 99.0, true).unwrap();
        assert_eq!(a2, (a, false));
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().id, "bbbb");
        assert_eq!(store.ids(), vec!["aaaa".to_string(), "bbbb".to_string()]);
    }

    #[test]
    fn disk_store_restarts_warm() {
        let dir = tmp("warm");
        let t = task();
        let p = plan(&t);
        {
            let store = PlanStore::open(&dir).unwrap();
            store
                .adopt("p1", t.clone(), p.clone(), provenance(), 1.5, false)
                .unwrap();
            store
                .adopt("p2", t.clone(), p.clone(), provenance(), 2.5, true)
                .unwrap();
        }
        // A fresh process opens the same directory and sees everything.
        let reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.latest().unwrap().id, "p2");
        assert_eq!(reopened.get("p1").unwrap().predicted_ms, 1.5);
        // Versions continue from where they left off.
        let (third, _) = reopened
            .adopt("p3", t, p, provenance(), 3.5, false)
            .unwrap();
        assert_eq!(third.version, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_plan_file_is_quarantined_not_fatal() {
        let dir = tmp("torn");
        let t = task();
        let p = plan(&t);
        {
            let store = PlanStore::open(&dir).unwrap();
            store
                .adopt("good", t.clone(), p.clone(), provenance(), 1.0, false)
                .unwrap();
            store
                .adopt("torn", t.clone(), p.clone(), provenance(), 2.0, false)
                .unwrap();
        }
        // Simulate a crash mid-persist: the file stops halfway through.
        let victim = dir.join("plans").join("torn.json");
        let full = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &full[..full.len() / 2]).unwrap();

        let reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1, "the intact plan survives");
        assert!(reopened.get("good").is_some());
        assert!(reopened.get("torn").is_none());
        assert_eq!(reopened.quarantined(), 1);
        assert!(!victim.exists(), "damaged file moved aside");
        assert!(dir.join("plans").join("torn.json.quarantined").exists());
        // A third open sees a clean directory: quarantine is sticky.
        let again = PlanStore::open(&dir).unwrap();
        assert_eq!(again.quarantined(), 0);
        assert_eq!(again.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        let dir = tmp("flip");
        let t = task();
        let p = plan(&t);
        {
            let store = PlanStore::open(&dir).unwrap();
            store.adopt("flip", t, p, provenance(), 1.0, false).unwrap();
        }
        let victim = dir.join("plans").join("flip.json");
        // Corrupt the payload without breaking the JSON shape: the
        // checksum, not the parser, must catch this.
        let full = std::fs::read_to_string(&victim).unwrap();
        let tampered = full.replacen("\"degraded\":false", "\"degraded\":true ", 1);
        assert_ne!(full, tampered, "fixture must contain the degraded flag");
        std::fs::write(&victim, tampered).unwrap();
        let reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.quarantined(), 1);
        assert!(reopened.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_unframed_files_still_load() {
        let dir = tmp("legacy");
        let t = task();
        let p = plan(&t);
        {
            let store = PlanStore::open(&dir).unwrap();
            store.adopt("old", t, p, provenance(), 4.5, false).unwrap();
        }
        // Strip the checksum line, leaving the bare envelope a
        // pre-checksum build would have written.
        let path = dir.join("plans").join("old.json");
        let framed = std::fs::read_to_string(&path).unwrap();
        let bare = framed.split_once('\n').unwrap().1;
        std::fs::write(&path, bare).unwrap();
        let reopened = PlanStore::open(&dir).unwrap();
        assert_eq!(reopened.quarantined(), 0);
        assert_eq!(reopened.get("old").unwrap().predicted_ms, 4.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unframed_plan_with_a_zero_dim_table_is_quarantined() {
        let dir = tmp("zero_dim");
        let t = task();
        let p = plan(&t);
        {
            let store = PlanStore::open(&dir).unwrap();
            store.adopt("bad", t, p, provenance(), 1.0, false).unwrap();
        }
        // Hand-edited and unframed: no checksum stands between the edit
        // and the decoder. The task's tables stay legal; only the plan's
        // copies are hostile.
        let path = dir.join("plans").join("bad.json");
        let framed = std::fs::read_to_string(&path).unwrap();
        let bare = framed.split_once('\n').unwrap().1;
        let (head, plan) = bare.split_once("\"plan\":").unwrap();
        assert!(plan.contains("\"dim\":32"), "{plan}");
        let hostile = format!("{head}\"plan\":{}", plan.replace("\"dim\":32", "\"dim\":0"));
        std::fs::write(&path, hostile).unwrap();
        let reopened = PlanStore::open(&dir).unwrap();
        assert_eq!((reopened.quarantined(), reopened.len()), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_model_is_a_typed_error() {
        let dir = tmp("models");
        let store = ModelStore::open(&dir).unwrap();
        match store.load("nope") {
            Err(StoreError::Checkpoint(CheckpointError::Io { .. })) => {}
            other => panic!("expected typed I/O checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
