//! The plan & model store behind the daemon.
//!
//! * [`PlanStore`] — every **adopted** [`ShardingPlan`] with its
//!   [`PlanProvenance`], keyed by a deterministic content-addressed id. Its
//!   one in-memory record is a [`PlanKv`]: an adoption is a create-only
//!   upsert of `plans/<id>`, so a plan's `version` is the sequence number
//!   of the write that created it, and a duplicate adoption — concurrent
//!   identical requests included — finds its twin instead of forking a
//!   version. The promoted cost-model bundle lives in the same sequence
//!   space under `models/active`. What the store adds is the disk: a
//!   leader's write saves its key's file before the op reaches the log
//!   ([`PlanStore::write`]), a follower persists each op it applies
//!   ([`PlanStore::persist`]), and [`PlanStore::open`] reads the files
//!   back into one [`KvSnapshot`], which the daemon restores — reading,
//!   not rewriting — the way a lagging follower restores its leader's.
//! * [`ModelStore`] — named cost-model checkpoints ([`CostModelBundle`]s)
//!   the planning engine loads at startup.
//!
//! Both persist versioned-envelope JSON documents (see
//! `nshard_nn::serialize`), so unsupported format versions are a typed
//! error instead of undefined behavior. On-disk layout under the store
//! directory — a KV key's file is `<key>.json`:
//!
//! ```text
//! store/
//!   plans/<id>.json      (checksummed envelope; payload = StoredPlan)
//!   models/active.json   (checksummed envelope; payload = its SnapshotEntry)
//!   models/<name>.json   (checksummed envelope; payload = CostModelBundle)
//! ```
//!
//! ## Torn-write hardening
//!
//! Every file this module writes goes through a temporary file and a
//! rename, and is framed with a leading checksum line
//! (`#nshard-checksum: <fnv64 hex>` over the rest of the file) so damage
//! — truncation, a half-flushed page, a bit flip — is *detected* instead
//! of parsed into garbage. At boot, [`PlanStore::open`]
//! **quarantines** damaged entries (renames them to `*.json.quarantined`)
//! — and entries no store could hold: two files claiming one sequence
//! number, or a number outside the sequence space ([`KvSnapshot::faults`])
//! — and keeps booting with the rest rather than refusing to start;
//! [`PlanStore::quarantined`] reports how many were set aside (the
//! daemon's `nshard_serve_store_quarantined` gauge). Files written by
//! pre-checksum builds carry no magic line and still load unchanged.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use nshard_core::{PlanProvenance, ShardingPlan};
use nshard_cost::CostModelBundle;
use nshard_data::ShardingTask;
use nshard_nn::serialize::{envelope_from_json, envelope_to_json, CheckpointError, Envelope};

use crate::kv::{KvError, KvSnapshot, MatchSeq, PlanKv, SnapshotEntry};

/// The producer tag written into envelope headers.
const CREATED_BY: &str = "nshard-serve";

/// Magic prefix of the checksum line framing every persisted artifact.
const CHECKSUM_MAGIC: &str = "#nshard-checksum: ";

/// Ops retained in the replication log before compaction; followers
/// lagging beyond the window catch up by snapshot.
const LOG_KEEP: usize = 1_024;

/// The key prefix of an adopted plan: `plans/<id>`.
const PLAN_PREFIX: &str = "plans/";

/// The key under which the promoted cost-model bundle replicates. A
/// single key — promotion is last-writer-wins by design: the lifecycle
/// serializes promotions, and followers always want the newest bundle.
pub(crate) const MODEL_KEY: &str = "models/active";

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
    /// An adoption found its key holding something that is not its plan
    /// (a replicated value that never decoded).
    Conflict(KvError),
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
            StoreError::Conflict(e) => write!(f, "plan store conflict: {e}"),
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

impl From<KvError> for StoreError {
    fn from(e: KvError) -> Self {
        StoreError::Conflict(e)
    }
}

fn io_error(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

/// Writes `payload` as a checksum-framed versioned envelope: the first
/// line is `#nshard-checksum: <fnv64 hex of the remainder>`, the rest the
/// envelope JSON. The bytes go to `<path>.tmp` first and are renamed over
/// `path`, so a crash leaves the old file or the new one, never a torn
/// mix.
fn write_checked<T: Serialize>(path: &Path, name: &str, payload: &T) -> Result<(), StoreError> {
    let body = envelope_to_json(name, CREATED_BY, payload);
    let framed = format!("{CHECKSUM_MAGIC}{:016x}\n{body}", fnv64(body.as_bytes()));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| io_error(parent, e))?;
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, framed).map_err(|e| io_error(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_error(path, e))
}

/// Reads a checksum-framed envelope written by [`write_checked`]. Files
/// without the magic first line (pre-checksum builds) parse as plain
/// envelopes, so old stores keep loading.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on a checksum mismatch, a checksum line
/// without its newline or bytes that are not UTF-8;
/// [`StoreError::Checkpoint`] as for any envelope load.
fn read_checked<T: Deserialize>(path: &Path) -> Result<Envelope<T>, StoreError> {
    let corrupt = |reason: String| StoreError::Corrupt {
        path: path.display().to_string(),
        reason,
    };
    let raw = std::fs::read(path).map_err(|e| {
        StoreError::Checkpoint(CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })
    })?;
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
            | StoreError::Checkpoint(CheckpointError::Invalid { .. })
    )
}

/// One adopted plan: the daemon's unit of persistence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredPlan {
    /// Content-addressed id (hex of the task+plan fingerprint).
    pub id: String,
    /// The sequence number of the write that adopted it (1-based,
    /// monotonic per store; shared with `models/active` writes).
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

/// The KV key of the plan adopted as `id`.
fn plan_key(id: &str) -> String {
    format!("{PLAN_PREFIX}{id}")
}

/// Whether `id` can name a plan file: ASCII letters, digits, `-` and `_`
/// (content-addressed ids are hex), so no key read off the wire reaches
/// outside `plans/`.
fn is_plan_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// `value` as the plan adopted under `key` by the write numbered `seq`:
/// it must decode, and name that key's id and that sequence as its
/// version. Anything else under `plans/` is held by the KV but is not a
/// plan — never served, persisted or warm-started from.
pub(crate) fn decode_plan(key: &str, seq: u64, value: &str) -> Option<Arc<StoredPlan>> {
    let id = key.strip_prefix(PLAN_PREFIX).filter(|id| is_plan_id(id))?;
    let record: StoredPlan = serde_json::from_str(value).ok()?;
    (record.id == id && record.version == seq).then(|| Arc::new(record))
}

/// The snapshot entry the store file at `path` holds, or `None` when the
/// file is damaged: a torn or flipped write, or a plan whose id is not
/// its file name.
fn read_entry(path: &Path) -> Result<Option<SnapshotEntry>, StoreError> {
    let is_model = path.ends_with(format!("{MODEL_KEY}.json"));
    let entry = if is_model {
        read_checked::<SnapshotEntry>(path).map(|e| Some(e.payload).filter(|e| e.key == MODEL_KEY))
    } else {
        read_checked::<StoredPlan>(path).map(|e| {
            let record = e.payload;
            (path.file_stem() == Some(record.id.as_ref())).then(|| SnapshotEntry {
                key: plan_key(&record.id),
                seq: record.version,
                value: serde_json::to_string(&record).unwrap_or_default(),
            })
        })
    };
    match entry {
        Err(e) if is_damage(&e) => Ok(None),
        other => other,
    }
}

/// The adopted plans: one [`PlanKv`], optionally mirrored to disk — its
/// entries under `plans/` are the plans, each `version` the sequence
/// number of the write that adopted it.
pub struct PlanStore {
    kv: PlanKv,
    dir: Option<PathBuf>,
    quarantined: usize,
}

impl PlanStore {
    /// Opens the store — in memory when `dir` is `None`, else rooted at
    /// `dir` (created if needed) — and returns it with its KV empty, beside
    /// the snapshot its files hold: every intact plan file and
    /// `models/active`, at the sequence each was written with, current
    /// through the highest. Files that fail their checksum or do not parse
    /// — damaged on disk — and files the snapshot check faults are renamed
    /// to `*.json.quarantined` and left out, so one damaged file never
    /// blocks the whole store from booting (`Service::boot` decides where
    /// such a store resumes).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created, a file cannot
    /// be read or renamed, or a persisted plan carries an unsupported
    /// format version (a build problem, not file damage — never
    /// quarantined silently).
    pub(crate) fn open(dir: Option<&Path>) -> Result<(Self, KvSnapshot), StoreError> {
        let mut store = Self {
            kv: PlanKv::new(LOG_KEEP),
            dir: dir.map(Path::to_path_buf),
            quarantined: 0,
        };
        let mut found = Vec::new();
        if let Some(dir) = dir {
            let root = dir.join("plans");
            std::fs::create_dir_all(&root).map_err(|e| io_error(&root, e))?;
            let mut paths = vec![dir.join(format!("{MODEL_KEY}.json"))];
            for entry in std::fs::read_dir(&root).map_err(|e| io_error(&root, e))? {
                paths.push(entry.map_err(|e| io_error(&root, e))?.path());
            }
            paths.retain(|p| p.extension() == Some("json".as_ref()) && p.exists());
            for path in paths {
                match read_entry(&path)? {
                    Some(entry) => found.push((path, entry)),
                    None => store.quarantine(&path)?,
                }
            }
        }
        found.sort_by(|a, b| a.1.key.cmp(&b.1.key));
        let (paths, entries): (Vec<PathBuf>, Vec<SnapshotEntry>) = found.into_iter().unzip();
        let applied_seq = entries
            .iter()
            .map(|e| e.seq)
            .filter(|&s| s < u64::MAX)
            .max();
        let mut snapshot = KvSnapshot {
            applied_seq: applied_seq.unwrap_or(0),
            entries,
        };
        // The check a leader's snapshot passes on the wire: a file whose
        // sequence number another file claims, or that no store could
        // have written, is set aside (every claimant of a shared number).
        for i in snapshot.faults().into_iter().rev() {
            store.quarantine(&paths[i])?;
            snapshot.entries.remove(i);
        }
        Ok((store, snapshot))
    }

    /// Renames a damaged store file to `*.json.quarantined` and counts it.
    fn quarantine(&mut self, path: &Path) -> Result<(), StoreError> {
        let aside = path.with_extension("json.quarantined");
        std::fs::rename(path, aside).map_err(|e| io_error(path, e))?;
        self.quarantined += 1;
        Ok(())
    }

    /// How many persisted entries [`PlanStore::open`] quarantined (always
    /// `0` for in-memory stores).
    pub(crate) fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// The sequenced KV that is this store's record.
    pub(crate) fn kv(&self) -> &PlanKv {
        &self.kv
    }

    /// Adopts a plan: one create-only write of `plans/<id>` whose sequence
    /// number becomes the record's `version`. Adoption is **idempotent by
    /// id** — an id already adopted returns the existing version
    /// unchanged, so duplicate identical requests never fork versions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] when the key holds a value that is not a
    /// plan; [`StoreError`] when its file cannot be saved (nothing is
    /// adopted then).
    pub(crate) fn adopt(
        &self,
        id: &str,
        task: ShardingTask,
        plan: ShardingPlan,
        provenance: PlanProvenance,
        predicted_ms: f64,
        degraded: bool,
    ) -> Result<u64, StoreError> {
        let key = plan_key(id);
        let written = self.write(&key, MatchSeq::Exact(0), |version| {
            let record = StoredPlan {
                id: id.to_string(),
                version,
                task,
                plan,
                provenance,
                predicted_ms,
                degraded,
            };
            let value = serde_json::to_string(&record).unwrap_or_default();
            (value, Some(Arc::new(record)))
        });
        match written {
            Err(StoreError::Conflict(conflict)) => match self.kv.plan(&key) {
                Some(twin) => Ok(twin.version),
                None => Err(StoreError::Conflict(conflict)),
            },
            written => written,
        }
    }

    /// One leader write of `key` (see [`PlanKv::write`]). Its file is
    /// saved before the op reaches the log, so no follower tails a write
    /// that a restart could lose; a failed save writes nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] when `expect` fails; [`StoreError`] when
    /// the file cannot be saved.
    pub(crate) fn write(
        &self,
        key: &str,
        expect: MatchSeq,
        make: impl FnOnce(u64) -> (String, Option<Arc<StoredPlan>>),
    ) -> Result<u64, StoreError> {
        self.kv.write(key, expect, |seq| {
            let (value, plan) = make(seq);
            let entry = SnapshotEntry {
                key: key.to_string(),
                seq,
                value,
            };
            self.save(key, Some(&entry), plan.as_deref())?;
            Ok((entry.value, plan))
        })
    }

    /// Makes `key`'s file agree with its entry — how a follower's applied
    /// ops and snapshot restores reach the disk.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the file cannot be written or removed.
    pub(crate) fn persist(&self, key: &str) -> Result<(), StoreError> {
        self.save(
            key,
            self.kv.entry(key).as_ref(),
            self.kv.plan(key).as_deref(),
        )
    }

    /// Writes `key`'s file: an adopted plan's envelope, the `models/active`
    /// entry, or no file when the key holds neither. Other keys have no
    /// file.
    fn save(
        &self,
        key: &str,
        entry: Option<&SnapshotEntry>,
        plan: Option<&StoredPlan>,
    ) -> Result<(), StoreError> {
        let has_file = key == MODEL_KEY || key.strip_prefix(PLAN_PREFIX).is_some_and(is_plan_id);
        let Some(dir) = self.dir.as_ref().filter(|_| has_file) else {
            return Ok(());
        };
        let path = dir.join(format!("{key}.json"));
        match (plan, entry.filter(|_| key == MODEL_KEY)) {
            (Some(record), _) => write_checked(&path, &record.id, record),
            (None, Some(entry)) => write_checked(&path, key, entry),
            (None, None) => match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_error(&path, e)),
                _ => Ok(()),
            },
        }
    }

    /// Looks up a plan by id.
    pub fn get(&self, id: &str) -> Option<StoredPlan> {
        self.kv.plan(&plan_key(id)).map(|record| (*record).clone())
    }

    /// The most recently adopted plan.
    pub fn latest(&self) -> Option<StoredPlan> {
        self.kv
            .with_plans(|plans| plans.max_by_key(|p| p.version).cloned())
    }

    /// Number of stored plans.
    pub fn len(&self) -> usize {
        self.kv.with_plans(|plans| plans.count())
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored ids in adoption order.
    pub fn ids(&self) -> Vec<String> {
        let mut plans = self
            .kv
            .with_plans(|plans| plans.map(|p| (p.version, p.id.clone())).collect::<Vec<_>>());
        plans.sort_unstable();
        plans.into_iter().map(|(_, id)| id).collect()
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
        std::fs::create_dir_all(&root).map_err(|e| io_error(&root, e))?;
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
            replan: None,
            failover: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nshard_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Opens `dir` and restores what its files hold (the boot path minus
    /// the service).
    fn reopen(dir: &Path) -> PlanStore {
        let (store, boot) = PlanStore::open(Some(dir)).unwrap();
        store.kv().restore(&boot).unwrap();
        store
    }

    #[test]
    fn adoption_is_versioned_and_idempotent() {
        let (store, _) = PlanStore::open(None).unwrap();
        let t = task();
        let p = plan(&t);
        let a = store
            .adopt("aaaa", t.clone(), p.clone(), provenance(), 1.0, false)
            .unwrap();
        let b = store
            .adopt("bbbb", t.clone(), p.clone(), provenance(), 2.0, false)
            .unwrap();
        assert_eq!((a, b), (1, 2));
        // Re-adopting an existing id returns the original record.
        let before = store.get("aaaa").unwrap();
        assert_eq!(
            store.adopt("aaaa", t, p, provenance(), 99.0, true).unwrap(),
            1
        );
        assert_eq!(store.get("aaaa").unwrap(), before);
        assert_eq!(store.kv().applied_seq(), 2, "the duplicate wrote nothing");
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().id, "bbbb");
        assert_eq!(store.ids(), vec!["aaaa".to_string(), "bbbb".to_string()]);
    }

    #[test]
    fn an_adoption_over_a_value_that_is_not_a_plan_is_a_conflict() {
        let (store, _) = PlanStore::open(None).unwrap();
        store.kv().upsert("plans/x", "{}", MatchSeq::Any).unwrap();
        let t = task();
        let p = plan(&t);
        match store.adopt("x", t, p, provenance(), 1.0, false) {
            Err(StoreError::Conflict(KvError::SeqConflict { found: 1, .. })) => {}
            other => panic!("expected a typed conflict, got {other:?}"),
        }
        assert!(store.is_empty());
    }

    #[test]
    fn disk_store_restarts_warm() {
        let dir = tmp("warm");
        let t = task();
        let p = plan(&t);
        {
            let store = reopen(&dir);
            store
                .adopt("p1", t.clone(), p.clone(), provenance(), 1.5, false)
                .unwrap();
            store
                .adopt("p2", t.clone(), p.clone(), provenance(), 2.5, true)
                .unwrap();
        }
        // A fresh process opens the same directory and sees everything.
        let reopened = reopen(&dir);
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.latest().unwrap().id, "p2");
        assert_eq!(reopened.get("p1").unwrap().predicted_ms, 1.5);
        // Versions continue from where they left off.
        let third = reopened
            .adopt("p3", t, p, provenance(), 3.5, false)
            .unwrap();
        assert_eq!(third, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_plan_file_is_quarantined_not_fatal() {
        let dir = tmp("torn");
        let t = task();
        let p = plan(&t);
        {
            let store = reopen(&dir);
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

        let reopened = reopen(&dir);
        assert_eq!(reopened.len(), 1, "the intact plan survives");
        assert!(reopened.get("good").is_some());
        assert!(reopened.get("torn").is_none());
        assert_eq!(reopened.quarantined(), 1);
        assert!(!victim.exists(), "damaged file moved aside");
        assert!(dir.join("plans").join("torn.json.quarantined").exists());
        // A third open sees a clean directory: quarantine is sticky.
        let again = reopen(&dir);
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
            let store = reopen(&dir);
            store.adopt("flip", t, p, provenance(), 1.0, false).unwrap();
        }
        let victim = dir.join("plans").join("flip.json");
        // Corrupt the payload without breaking the JSON shape: the
        // checksum, not the parser, must catch this.
        let full = std::fs::read_to_string(&victim).unwrap();
        let tampered = full.replacen("\"degraded\":false", "\"degraded\":true ", 1);
        assert_ne!(full, tampered, "fixture must contain the degraded flag");
        std::fs::write(&victim, tampered).unwrap();
        let reopened = reopen(&dir);
        assert_eq!(reopened.quarantined(), 1);
        assert!(reopened.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_recased_stamp_and_non_utf8_bytes_are_damage() {
        let dir = tmp("stamp");
        let t = task();
        {
            let store = reopen(&dir);
            for id in ["recased", "binary"] {
                store
                    .adopt(id, t.clone(), plan(&t), provenance(), 1.0, false)
                    .unwrap();
            }
        }
        // 'a'..='f' -> 'A'..='F': the same number, but not the stamp written.
        let recased = dir.join("plans").join("recased.json");
        let mut bytes = std::fs::read(&recased).unwrap();
        let stamp = CHECKSUM_MAGIC.len()..CHECKSUM_MAGIC.len() + 16;
        let letter = bytes[stamp.clone()]
            .iter()
            .position(|b| b.is_ascii_lowercase());
        bytes[stamp.start + letter.expect("the stamp has a hex letter")] ^= 0x20;
        std::fs::write(&recased, bytes).unwrap();
        let binary = dir.join("plans").join("binary.json");
        let mut bytes = std::fs::read(&binary).unwrap();
        *bytes.last_mut().unwrap() ^= 0x80;
        std::fs::write(&binary, bytes).unwrap();
        let reopened = reopen(&dir);
        assert_eq!((reopened.quarantined(), reopened.len()), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_unframed_files_still_load() {
        let dir = tmp("legacy");
        let t = task();
        let p = plan(&t);
        {
            let store = reopen(&dir);
            store.adopt("old", t, p, provenance(), 4.5, false).unwrap();
        }
        // Strip the checksum line, leaving the bare envelope a
        // pre-checksum build would have written.
        let path = dir.join("plans").join("old.json");
        let framed = std::fs::read_to_string(&path).unwrap();
        let bare = framed.split_once('\n').unwrap().1;
        std::fs::write(&path, bare).unwrap();
        let reopened = reopen(&dir);
        assert_eq!(reopened.quarantined(), 0);
        assert_eq!(reopened.get("old").unwrap().predicted_ms, 4.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A provenance as builds that recorded retry backoff wrote it:
    /// `total_retries`, `total_backoff_ms` and a retry's `backoff_ms`.
    const RETRY_TOTALS_PROVENANCE: &str = r#"{"source":{"Primary":{"algorithm":"size_greedy"}},"events":[{"Attempt":{"algorithm":"size_greedy"}},{"TransientRetry":{"algorithm":"size_greedy","attempt":1,"backoff_ms":50,"reason":"transient measurement failure on device 1: injected measurement fault"}}],"total_retries":1,"total_backoff_ms":50,"replan":null,"failover":null}"#;

    #[test]
    fn a_plan_record_with_retry_totals_loads_from_disk_and_from_the_log() {
        use nshard_core::ProvenanceEvent;
        let dir = tmp("totals");
        let t = task();
        {
            let store = reopen(&dir);
            store
                .adopt("old", t.clone(), plan(&t), provenance(), 4.5, false)
                .unwrap();
        }
        let path = dir.join("plans").join("old.json");
        let framed = std::fs::read_to_string(&path).unwrap();
        let current = serde_json::to_string(&provenance()).unwrap();
        let body = framed.split_once('\n').unwrap().1;
        let old = body.replacen(&current, RETRY_TOTALS_PROVENANCE, 1);
        assert_ne!(old, body, "the file holds the provenance verbatim");
        let stamp = format!("{:016x}", fnv64(old.as_bytes()));
        std::fs::write(&path, format!("{CHECKSUM_MAGIC}{stamp}\n{old}")).unwrap();
        let from_disk = reopen(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(from_disk.quarantined(), 0);
        let record = from_disk.get("old").expect("the old record loads");
        assert!(matches!(
            &record.provenance.events[..],
            [
                ProvenanceEvent::Attempt { .. },
                ProvenanceEvent::TransientRetry { attempt: 1, .. }
            ]
        ));

        // A follower receives the same record as a replicated write.
        let (follower, _) = PlanStore::open(None).unwrap();
        let value = serde_json::to_string(&record).unwrap().replacen(
            &serde_json::to_string(&record.provenance).unwrap(),
            RETRY_TOTALS_PROVENANCE,
            1,
        );
        assert!(value.contains("\"total_backoff_ms\":50"));
        let key = plan_key("old");
        follower.kv().apply(crate::kv::LogOp { seq: 1, key, value });
        assert_eq!(follower.get("old"), Some(record));
    }

    #[test]
    fn unframed_plan_with_a_zero_dim_table_is_quarantined() {
        let dir = tmp("zero_dim");
        let t = task();
        let p = plan(&t);
        {
            let store = reopen(&dir);
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
        let reopened = reopen(&dir);
        assert_eq!((reopened.quarantined(), reopened.len()), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_files_that_share_a_version_are_both_quarantined() {
        let dir = tmp("collide");
        let t = task();
        let p = plan(&t);
        {
            let store = reopen(&dir);
            for (id, ms) in [("one", 1.0), ("two", 2.0), ("three", 3.0)] {
                store
                    .adopt(id, t.clone(), p.clone(), provenance(), ms, false)
                    .unwrap();
            }
        }
        // Re-stamp plan three with plan one's version, unframed so only
        // the sequence check stands in the way.
        let path = dir.join("plans").join("three.json");
        let framed = std::fs::read_to_string(&path).unwrap();
        let bare = framed.split_once('\n').unwrap().1;
        std::fs::write(&path, bare.replacen("\"version\":3", "\"version\":1", 1)).unwrap();
        let reopened = reopen(&dir);
        assert_eq!(reopened.quarantined(), 2, "neither claimant of seq 1 loads");
        assert_eq!(reopened.ids(), ["two"]);
        assert_eq!(reopened.kv().applied_seq(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_write_whose_file_cannot_be_saved_is_not_logged() {
        let dir = tmp("unsaved");
        let store = reopen(&dir);
        // A directory where the plan's file belongs: the rename fails.
        std::fs::create_dir_all(dir.join("plans").join("x.json")).unwrap();
        let t = task();
        match store.adopt("x", t.clone(), plan(&t), provenance(), 1.0, false) {
            Err(StoreError::Io { .. }) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert_eq!(
            store.kv().log_since(0),
            crate::kv::LogFetch::Ops(Vec::new())
        );
        assert_eq!((store.kv().applied_seq(), store.len()), (0, 0));
        // The next adoption takes seq 1: no follower ever saw another.
        let y = store.adopt("y", t.clone(), plan(&t), provenance(), 1.0, false);
        assert_eq!(y.unwrap(), 1);
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
