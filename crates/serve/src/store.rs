//! The plan store behind the daemon: the one record of adopted plans, and
//! the replication substrate of the control plane.
//!
//! [`PlanStore`] holds every **adopted** [`ShardingPlan`] with its
//! [`PlanProvenance`], keyed by a deterministic content-addressed id, in a
//! key/value map in which **every mutation carries the next sequence
//! number**. An adopted plan is the entry under `plans/<id>`, its `version`
//! the sequence of the write that created it; the promoted cost-model
//! bundle is the entry under `models/active`, in the same sequence space.
//! An entry whose value decodes as the plan its key names keeps that
//! decoded plan beside the value, so reads never re-parse; anything else
//! (a hostile replicated value included) is held, sequenced and
//! replicated, but is not a plan.
//!
//! A leader has one write path: an adoption checks its key under the
//! store's lock — a duplicate adoption, concurrent identical requests
//! included, finds its twin instead of forking a version — and a write
//! saves its key's file before the op reaches the bounded **op log**
//! ([`LogOp`]) that followers tail. A follower applies only the op
//! numbered `applied_seq + 1` ([`PlanStore::apply`]); its ops come from
//! [`PlanStore::log_since`], a contiguous run after its position, so two
//! replicas fed the same log converge to **byte-identical** stores
//! ([`PlanStore::dump`] / [`PlanStore::digest`] make that checkable). A
//! replica whose position lies outside the leader's retained window —
//! behind it, or ahead of it in the sequence space of a leader that has
//! since restarted — catches up from a full [`KvSnapshot`] instead
//! ([`LogFetch::NeedSnapshot`]). [`PlanStore::open`] reads the files back
//! into one such snapshot, which the daemon restores — reading, not
//! rewriting — the way a lagging follower restores its leader's.
//!
//! The sequence space is `1..u64::MAX`: an op numbered `u64::MAX` is
//! refused, a snapshot must be current through less, and all sequence
//! arithmetic saturates — so no number read off the network can panic
//! the store.
//!
//! Every file is a checksum-framed envelope written and read by
//! `nshard_nn::serialize` ([`write_checked`] / [`read_checked`]), so an
//! unsupported format version is a typed error instead of undefined
//! behavior. On-disk layout under the store directory — a key's file is
//! `<key>.json`:
//!
//! ```text
//! store/
//!   plans/<id>.json      (payload = StoredPlan)
//!   models/active.json   (payload = its SnapshotEntry)
//! ```
//!
//! The daemon reads no other model file: a bundle reaches it through
//! `Service::new` or `Service::promote_model`, and `models/active` is how a
//! promotion replicates.
//!
//! ## Torn-write hardening
//!
//! The frame makes damage — truncation, a half-flushed page, a bit flip —
//! a [`CheckpointError::Corrupt`] instead of a parse into garbage, and
//! every write goes through a temporary file and a rename. At boot,
//! [`PlanStore::open`] **quarantines** damaged entries (renames them to
//! `*.json.quarantined`) — and entries no store could hold: two files
//! claiming one sequence number, or a number outside the sequence space
//! ([`KvSnapshot`]'s check) — and keeps booting with the rest rather than
//! refusing to start; the daemon's `nshard_serve_store_quarantined` gauge
//! reports how many were set aside.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use nshard_core::{PlanProvenance, ShardingPlan};
use nshard_data::ShardingTask;
use nshard_nn::serialize::{fnv64, read_checked, write_checked, CheckpointError};

/// The producer tag written into envelope headers.
const CREATED_BY: &str = "nshard-serve";

/// Ops retained in the replication log before compaction; followers
/// lagging beyond the window catch up by snapshot.
const LOG_KEEP: usize = 1_024;

/// The key prefix of an adopted plan: `plans/<id>`.
const PLAN_PREFIX: &str = "plans/";

/// The key under which the promoted cost-model bundle replicates. A
/// single key — promotion is last-writer-wins by design: the lifecycle
/// serializes promotions, and followers always want the newest bundle.
pub(crate) const MODEL_KEY: &str = "models/active";

/// Errors of the plan store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble outside an envelope read/write.
    Io {
        /// The path involved.
        path: String,
        /// Rendered I/O error.
        error: String,
    },
    /// A persisted artifact failed to load or save (checksum, parse,
    /// version or I/O).
    Checkpoint(CheckpointError),
    /// The store refused an adoption: its key holds something that is not
    /// its plan (a replicated value that never decoded), or the write
    /// would be numbered `u64::MAX`, outside the sequence space.
    Conflict(String),
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

fn io_error(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

/// Whether a load failure means the *file* is damaged (quarantine it)
/// rather than the build being incompatible or the filesystem failing
/// (surface those).
fn is_damage(err: &CheckpointError) -> bool {
    matches!(
        err,
        CheckpointError::Corrupt { .. }
            | CheckpointError::Parse(_)
            | CheckpointError::MalformedHeader { .. }
            | CheckpointError::Invalid { .. }
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

/// One sequenced mutation — the unit of the replication log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogOp {
    /// Global sequence number (1-based, gapless per store).
    pub seq: u64,
    /// The key written.
    pub key: String,
    /// The value written.
    pub value: String,
}

/// One entry of a [`KvSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// The key.
    pub key: String,
    /// Sequence of the mutation that wrote it.
    pub seq: u64,
    /// The value.
    pub value: String,
}

/// A full materialized copy of a store's record — the catch-up path for
/// replicas whose position lies outside the leader's retained log, and the
/// form a store's files take at boot. Decoding refuses what a restore
/// would: a position of `u64::MAX`, keys out of order or repeated, an
/// entry's sequence outside `1..=applied_seq` or shared with another
/// entry.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "SnapshotWire")]
pub struct KvSnapshot {
    /// The sequence the snapshot is current through.
    pub applied_seq: u64,
    /// Every entry, in key order.
    pub entries: Vec<SnapshotEntry>,
}

/// The JSON form of a [`KvSnapshot`] as read.
#[derive(Deserialize)]
struct SnapshotWire {
    applied_seq: u64,
    entries: Vec<SnapshotEntry>,
}

impl TryFrom<SnapshotWire> for KvSnapshot {
    type Error = String;

    fn try_from(wire: SnapshotWire) -> Result<Self, String> {
        let snapshot = Self {
            applied_seq: wire.applied_seq,
            entries: wire.entries,
        };
        snapshot.check().map(|()| snapshot)
    }
}

impl KvSnapshot {
    /// Whether this can be the state of one store: the check every
    /// snapshot passes before it is restored, whether it came off the wire
    /// or out of the store's files.
    ///
    /// # Errors
    ///
    /// The first defect found, rendered.
    pub(crate) fn check(&self) -> Result<(), String> {
        match self.faults().first().map(|&i| &self.entries[i]) {
            None if self.applied_seq < u64::MAX => Ok(()),
            fault => Err(format!(
                "no store current through seq {} holds {fault:?}",
                self.applied_seq
            )),
        }
    }

    /// Indices of the entries that cannot belong to a store current
    /// through `applied_seq`: a sequence outside `1..=applied_seq` or
    /// claimed by another entry too, or a key not strictly after the one
    /// before it.
    pub(crate) fn faults(&self) -> Vec<usize> {
        let mut claims: HashMap<u64, usize> = HashMap::new();
        for e in &self.entries {
            *claims.entry(e.seq).or_default() += 1;
        }
        (0..self.entries.len())
            .filter(|&i| {
                let e = &self.entries[i];
                !(1..=self.applied_seq).contains(&e.seq)
                    || claims[&e.seq] > 1
                    || (i > 0 && self.entries[i - 1].key >= e.key)
            })
            .collect()
    }
}

/// A follower's log-fetch result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogFetch {
    /// Ops strictly after the requested sequence, in order.
    Ops(Vec<LogOp>),
    /// The requested sequence predates the retained log, or lies beyond
    /// anything this store ever sequenced — fetch a [`KvSnapshot`]
    /// instead.
    NeedSnapshot {
        /// Oldest sequence still in the retained log.
        earliest: u64,
    },
}

/// The key of the plan adopted as `id`.
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
/// version. Anything else under `plans/` is held by the store but is not a
/// plan — never served, persisted or warm-started from.
fn decode_plan(key: &str, seq: u64, value: &str) -> Option<Arc<StoredPlan>> {
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
        other => Ok(other?),
    }
}

/// A live entry: the mutation that last wrote its key, and that value
/// decoded as the adopted plan the key names ([`decode_plan`]) — `None`
/// for every other key or value.
struct SeqEntry {
    written: SnapshotEntry,
    plan: Option<Arc<StoredPlan>>,
}

/// The sequenced map and the retained tail of its op log.
struct Record {
    entries: BTreeMap<String, SeqEntry>,
    applied_seq: u64,
    /// Retained tail of the op log, oldest first.
    log: VecDeque<LogOp>,
    /// Sequence of `log.front()`; `applied_seq + 1` when the log is empty.
    log_start: u64,
}

impl Record {
    /// Installs `op` as the newest mutation: its entry, the applied
    /// sequence and the log tail (compacted to [`LOG_KEEP`] ops).
    fn install(&mut self, op: LogOp, plan: Option<Arc<StoredPlan>>) {
        let LogOp { seq, key, value } = op.clone();
        let written = SnapshotEntry { key, seq, value };
        self.entries
            .insert(written.key.clone(), SeqEntry { written, plan });
        self.applied_seq = op.seq;
        if self.log.is_empty() {
            self.log_start = op.seq;
        }
        self.log.push_back(op);
        while self.log.len() > LOG_KEEP {
            self.log.pop_front();
            self.log_start = self.log_start.saturating_add(1);
        }
    }
}

/// The adopted plans: one sequenced record, optionally mirrored to disk.
/// Every mutation carries the next sequence number — an adopted plan's
/// `version`, shared with `models/active` — and enters a bounded op log;
/// a follower applies only the next op ([`PlanStore::apply`]) and catches
/// up from a [`KvSnapshot`] when its position is outside that log.
pub struct PlanStore {
    record: Mutex<Record>,
    dir: Option<PathBuf>,
    quarantined: usize,
}

impl PlanStore {
    /// Opens the store — in memory when `dir` is `None`, else rooted at
    /// `dir` (created if needed) — and returns it with its record empty,
    /// beside the snapshot its files hold: every intact plan file and
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
    pub fn open(dir: Option<&Path>) -> Result<(Self, KvSnapshot), StoreError> {
        let mut store = Self {
            record: Mutex::new(Record {
                entries: BTreeMap::new(),
                applied_seq: 0,
                log: VecDeque::new(),
                log_start: 1,
            }),
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

    /// The record. Invariant: nothing panics while it is held (sequence
    /// arithmetic saturates, decoders and file saves return errors, and
    /// the closures handed to `write`/`with_plans` do not panic), so the
    /// lock is never poisoned.
    fn lock(&self) -> MutexGuard<'_, Record> {
        self.record.lock().expect("plan store poisoned")
    }

    /// Adopts a plan: one write of `plans/<id>` whose sequence number
    /// becomes the record's `version`. Adoption is **idempotent by id** —
    /// an id already adopted returns its twin's version unchanged, so
    /// duplicate identical requests never fork versions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] when the key holds a value that is not a
    /// plan, or the sequence space is exhausted; [`StoreError`] when its
    /// file cannot be saved (nothing is adopted then).
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
        let mut record = self.lock();
        match record.entries.get(&key) {
            Some(SeqEntry {
                plan: Some(twin), ..
            }) => return Ok(twin.version),
            Some(SeqEntry { written, .. }) => {
                return Err(StoreError::Conflict(format!(
                    "{key} holds seq {}, which is not a plan",
                    written.seq
                )))
            }
            None => {}
        }
        self.write(&mut record, &key, |version| {
            let adopted = StoredPlan {
                id: id.to_string(),
                version,
                task,
                plan,
                provenance,
                predicted_ms,
                degraded,
            };
            let value = serde_json::to_string(&adopted).unwrap_or_default();
            (value, Some(Arc::new(adopted)))
        })
    }

    /// Writes a promoted bundle's `value` under `models/active`,
    /// unconditionally.
    ///
    /// # Errors
    ///
    /// As for [`PlanStore::adopt`], bar the twin check.
    pub(crate) fn write_model(&self, value: String) -> Result<u64, StoreError> {
        self.write(&mut self.lock(), MODEL_KEY, |_| (value, None))
    }

    /// The leader's one write path: stamps `key`'s write with the next
    /// sequence number (`make` builds the value for it), saves its file,
    /// then logs it — so no follower tails a write that a restart could
    /// lose, and a failed save writes nothing.
    fn write(
        &self,
        record: &mut Record,
        key: &str,
        make: impl FnOnce(u64) -> (String, Option<Arc<StoredPlan>>),
    ) -> Result<u64, StoreError> {
        let seq = record.applied_seq.saturating_add(1);
        if seq == u64::MAX {
            return Err(StoreError::Conflict(
                "the sequence space is exhausted".into(),
            ));
        }
        let (value, plan) = make(seq);
        let key = key.to_string();
        let entry = SnapshotEntry { key, seq, value };
        self.save(&entry.key, Some(&entry), plan.as_deref())?;
        let SnapshotEntry { key, value, .. } = entry;
        record.install(LogOp { seq, key, value }, plan);
        Ok(seq)
    }

    /// Applies a replicated op — the **follower** write path — if it is
    /// the next one, numbered `applied_seq + 1` (and not `u64::MAX`), and
    /// returns it; any other op is a duplicate or lies past a gap, and
    /// changes nothing. Applied ops re-enter this replica's own log, so a
    /// promoted follower can serve followers of its own.
    pub fn apply(&self, op: LogOp) -> Option<LogOp> {
        let mut record = self.lock();
        if op.seq != record.applied_seq.saturating_add(1) || op.seq == u64::MAX {
            return None;
        }
        let plan = decode_plan(&op.key, op.seq, &op.value);
        record.install(op.clone(), plan);
        Some(op)
    }

    /// The sequence of the last applied mutation (`0` when pristine).
    pub fn applied_seq(&self) -> u64 {
        self.lock().applied_seq
    }

    /// The retained log window: `(oldest retained sequence, length)`.
    pub(crate) fn log_window(&self) -> (u64, usize) {
        let record = self.lock();
        (record.log_start, record.log.len())
    }

    /// `f` over every adopted plan, in key order, under the lock (so `f`
    /// must not panic).
    fn with_plans<R>(&self, f: impl FnOnce(&mut dyn Iterator<Item = &StoredPlan>) -> R) -> R {
        let record = self.lock();
        f(&mut record.entries.values().filter_map(|e| e.plan.as_deref()))
    }

    /// `key`'s entry, if it has one.
    pub(crate) fn entry(&self, key: &str) -> Option<SnapshotEntry> {
        self.lock().entries.get(key).map(|e| e.written.clone())
    }

    /// Ops strictly after `from_seq` for a tailing follower, or the
    /// snapshot redirect when `from_seq` predates the retained log — or
    /// is ahead of this store: that follower tailed a leader whose
    /// sequence space is gone (restarted without its log), and would
    /// otherwise drop this store's next ops as duplicates.
    pub fn log_since(&self, from_seq: u64) -> LogFetch {
        let record = self.lock();
        let compacted =
            from_seq.saturating_add(1) < record.log_start && record.applied_seq > from_seq;
        if compacted || from_seq > record.applied_seq {
            return LogFetch::NeedSnapshot {
                earliest: record.log_start,
            };
        }
        LogFetch::Ops(
            record
                .log
                .iter()
                .filter(|op| op.seq > from_seq)
                .cloned()
                .collect(),
        )
    }

    /// A full copy of the record for cold or lagging replicas.
    pub fn snapshot(&self) -> KvSnapshot {
        let record = self.lock();
        KvSnapshot {
            applied_seq: record.applied_seq,
            entries: record.entries.values().map(|e| e.written.clone()).collect(),
        }
    }

    /// Replaces this replica's contents with `snapshot` (catch-up, and
    /// boot from the store's files).
    ///
    /// Returns the keys whose entry changed — written by another sequence
    /// or value, or dropped — so a caller materializes each write once,
    /// however often the same snapshot arrives.
    ///
    /// # Errors
    ///
    /// Why `snapshot` fails its check; a refused snapshot changes nothing.
    pub(crate) fn restore(&self, snapshot: &KvSnapshot) -> Result<Vec<String>, String> {
        snapshot.check()?;
        let mut record = self.lock();
        let mut dropped = std::mem::take(&mut record.entries);
        let mut changed = Vec::new();
        for e in &snapshot.entries {
            let entry = match dropped.remove(&e.key) {
                Some(kept) if kept.written == *e => kept,
                _ => {
                    changed.push(e.key.clone());
                    let plan = decode_plan(&e.key, e.seq, &e.value);
                    SeqEntry {
                        written: e.clone(),
                        plan,
                    }
                }
            };
            record.entries.insert(e.key.clone(), entry);
        }
        changed.extend(dropped.into_keys());
        record.applied_seq = snapshot.applied_seq;
        record.log.clear();
        record.log_start = snapshot.applied_seq.saturating_add(1);
        Ok(changed)
    }

    /// Canonical dump of the live entries (`key\tseq\tvalue` lines in key
    /// order) — two converged replicas dump **byte-identical** strings.
    pub fn dump(&self) -> String {
        let record = self.lock();
        let mut out = format!("applied_seq={}\n", record.applied_seq);
        for SnapshotEntry { key, seq, value } in record.entries.values().map(|e| &e.written) {
            out.push_str(&format!("{key}\t{seq}\t{value}\n"));
        }
        out
    }

    /// FNV-1a digest of [`PlanStore::dump`] — the cheap convergence check.
    pub fn digest(&self) -> u64 {
        fnv64(self.dump().as_bytes())
    }

    /// Makes `key`'s file agree with its entry — how a follower's applied
    /// ops and snapshot restores reach the disk.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the file cannot be written or removed.
    pub(crate) fn persist(&self, key: &str) -> Result<(), StoreError> {
        let record = self.lock();
        let entry = record.entries.get(key);
        self.save(
            key,
            entry.map(|e| &e.written),
            entry.and_then(|e| e.plan.as_deref()),
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
            (Some(record), _) => Ok(write_checked(&path, &record.id, CREATED_BY, record)?),
            (None, Some(entry)) => Ok(write_checked(&path, key, CREATED_BY, entry)?),
            (None, None) => match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_error(&path, e)),
                _ => Ok(()),
            },
        }
    }

    /// Looks up a plan by id.
    pub fn get(&self, id: &str) -> Option<StoredPlan> {
        let plan = self.lock().entries.get(&plan_key(id))?.plan.clone();
        plan.map(|record| (*record).clone())
    }

    /// The most recently adopted plan.
    pub fn latest(&self) -> Option<StoredPlan> {
        self.with_plans(|plans| plans.max_by_key(|p| p.version).cloned())
    }

    /// Number of stored plans.
    pub fn len(&self) -> usize {
        self.with_plans(|plans| plans.count())
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored ids in adoption order.
    pub fn ids(&self) -> Vec<String> {
        let mut plans =
            self.with_plans(|plans| plans.map(|p| (p.version, p.id.clone())).collect::<Vec<_>>());
        plans.sort_unstable();
        plans.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_core::PlanSource;
    use nshard_data::{TableConfig, TableId};
    use proptest::prelude::*;

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
        store.restore(&boot).unwrap();
        store
    }

    fn op(seq: u64, key: &str, value: &str) -> LogOp {
        LogOp {
            seq,
            key: key.into(),
            value: value.into(),
        }
    }

    /// An in-memory store that applied `writes` as ops `1..`.
    fn replica(writes: &[(&str, &str)]) -> PlanStore {
        let (store, _) = PlanStore::open(None).unwrap();
        for (i, (key, value)) in writes.iter().enumerate() {
            assert!(store.apply(op(i as u64 + 1, key, value)).is_some());
        }
        store
    }

    /// The store's whole retained log.
    fn ops(store: &PlanStore) -> Vec<LogOp> {
        match store.log_since(0) {
            LogFetch::Ops(ops) => ops,
            other => panic!("log retained, got {other:?}"),
        }
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
        assert_eq!(store.applied_seq(), 2, "the duplicate wrote nothing");
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().id, "bbbb");
        assert_eq!(store.ids(), vec!["aaaa".to_string(), "bbbb".to_string()]);
    }

    #[test]
    fn an_adoption_over_a_value_that_is_not_a_plan_is_a_conflict() {
        let store = replica(&[("plans/x", "{}")]);
        let t = task();
        let p = plan(&t);
        match store.adopt("x", t, p, provenance(), 1.0, false) {
            Err(StoreError::Conflict(why)) => assert!(why.contains("plans/x holds seq 1"), "{why}"),
            other => panic!("expected a typed conflict, got {other:?}"),
        }
        assert!(store.is_empty());
        assert_eq!(store.applied_seq(), 1, "a conflict writes nothing");
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
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let stamp = newline - 16..newline;
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
        let magic = framed.split_once(": ").unwrap().0;
        let stamp = format!("{:016x}", nshard_nn::serialize::fnv64(old.as_bytes()));
        std::fs::write(&path, format!("{magic}: {stamp}\n{old}")).unwrap();
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
        follower.apply(op(1, &plan_key("old"), &value));
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
        assert_eq!(reopened.applied_seq(), 2);
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
            Err(StoreError::Checkpoint(CheckpointError::Io { .. })) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert_eq!(store.log_since(0), LogFetch::Ops(Vec::new()));
        assert_eq!((store.applied_seq(), store.len()), (0, 0));
        // The next adoption takes seq 1: no follower ever saw another.
        let y = store.adopt("y", t.clone(), plan(&t), provenance(), 1.0, false);
        assert_eq!(y.unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        /// Adoption is idempotent by id: a repeated id returns its twin's
        /// version and writes nothing, so the sequence advances once per
        /// distinct plan.
        #[test]
        fn adoption_never_double_writes(ids in proptest::collection::vec(0u8..5, 1..30)) {
            let (store, _) = PlanStore::open(None).unwrap();
            let t = task();
            let mut versions = HashMap::new();
            for id in ids {
                let version = store
                    .adopt(&format!("id{id}"), t.clone(), plan(&t), provenance(), 1.0, false)
                    .unwrap();
                prop_assert_eq!(*versions.entry(id).or_insert(version), version);
            }
            prop_assert_eq!(store.len(), versions.len());
            prop_assert_eq!(store.applied_seq(), store.len() as u64);
        }
    }

    #[test]
    fn apply_takes_only_the_next_op() {
        let leader = replica(&[
            ("k1", "v1"),
            ("k2", "v2"),
            ("k3", "v3"),
            ("k4", "v4"),
            ("k5", "v5"),
        ]);
        let ops = ops(&leader);
        let (follower, _) = PlanStore::open(None).unwrap();
        // Out of order with duplicates: only op 1 is ever the next one.
        for seq in [4, 2, 2, 5, 3, 1, 1, 4] {
            follower.apply(ops[seq - 1].clone());
        }
        assert_eq!(follower.applied_seq(), 1, "nothing past the gap is held");
        // One pass over the log from its position converges it.
        let LogFetch::Ops(rest) = leader.log_since(follower.applied_seq()) else {
            panic!("inside the window")
        };
        let applied: Vec<_> = rest
            .into_iter()
            .filter_map(|op| follower.apply(op))
            .collect();
        assert_eq!(applied, ops[1..]);
        assert_eq!(follower.dump(), leader.dump(), "byte-identical convergence");
        assert_eq!(follower.digest(), leader.digest());
    }

    #[test]
    fn compaction_redirects_laggards_to_snapshot() {
        let (leader, _) = PlanStore::open(None).unwrap();
        for i in 0..LOG_KEEP + 6 {
            leader.write_model(format!("v{i}")).unwrap();
        }
        // Seqs 1..=6 are compacted away (the window retains 7..=1030).
        assert_eq!(leader.log_since(2), LogFetch::NeedSnapshot { earliest: 7 });
        // A follower inside the window tails normally.
        let LogFetch::Ops(tail) = leader.log_since(1028) else {
            panic!("inside the window")
        };
        assert_eq!(tail.iter().map(|o| o.seq).collect::<Vec<_>>(), [1029, 1030]);
        // Fully caught up: empty fetch, not a snapshot.
        assert_eq!(leader.log_since(1030), LogFetch::Ops(Vec::new()));

        // Snapshot restore catches the laggard up byte-identically...
        let (lagging, _) = PlanStore::open(None).unwrap();
        lagging.restore(&leader.snapshot()).unwrap();
        assert_eq!(lagging.dump(), leader.dump());
        assert_eq!(lagging.applied_seq(), 1030);
        // ...and it keeps tailing from there.
        leader.write_model("v1030".into()).unwrap();
        let LogFetch::Ops(ops) = leader.log_since(lagging.applied_seq()) else {
            panic!("inside the window")
        };
        for op in ops {
            lagging.apply(op);
        }
        assert_eq!(lagging.dump(), leader.dump());
    }

    #[test]
    fn a_follower_ahead_of_the_leader_is_redirected_to_the_snapshot() {
        // The follower tailed a leader through seq 5; that leader then
        // restarted with an empty log.
        let old: Vec<String> = (0..5).map(|i| format!("plans/k{i}")).collect();
        let follower = replica(&old.iter().map(|k| (k.as_str(), "old")).collect::<Vec<_>>());
        let leader = replica(&[("plans/k0", "new")]);
        assert_eq!(
            leader.log_since(follower.applied_seq()),
            LogFetch::NeedSnapshot { earliest: 1 },
            "seq 5 was never sequenced here: an empty fetch would read as caught up"
        );
        assert_eq!(leader.log_since(1), LogFetch::Ops(Vec::new()));

        follower.restore(&leader.snapshot()).unwrap();
        assert_eq!(follower.dump(), leader.dump());
        // Seven new ops cross the old position without being mistaken for
        // duplicates.
        for i in 0..7 {
            leader.apply(op(i + 2, &format!("plans/k{i}"), "new"));
        }
        let LogFetch::Ops(ops) = leader.log_since(follower.applied_seq()) else {
            panic!("the follower is inside the window")
        };
        for op in ops {
            follower.apply(op);
        }
        assert_eq!(follower.dump(), leader.dump());
    }

    #[test]
    fn positions_at_the_end_of_the_sequence_space_are_refused() {
        let store = replica(&[("a", "1")]);
        assert_eq!(
            store.log_since(u64::MAX),
            LogFetch::NeedSnapshot { earliest: 1 }
        );
        let mut end = store.snapshot();
        end.applied_seq = u64::MAX;
        assert!(store.restore(&end).is_err());
        let json = serde_json::to_string(&end).unwrap();
        assert!(serde_json::from_str::<KvSnapshot>(&json).is_err());
        // A replica one short of the end refuses the op and the writes
        // past it.
        let (edge, _) = PlanStore::open(None).unwrap();
        let eve = KvSnapshot {
            applied_seq: u64::MAX - 1,
            entries: Vec::new(),
        };
        edge.restore(&eve).unwrap();
        assert_eq!(edge.apply(op(u64::MAX, "b", "2")), None);
        assert!(matches!(
            edge.write_model("1".into()),
            Err(StoreError::Conflict(_))
        ));
        let t = task();
        let adopted = edge.adopt("p", t.clone(), plan(&t), provenance(), 1.0, false);
        assert!(matches!(adopted, Err(StoreError::Conflict(_))));
        assert_eq!(edge.dump(), format!("applied_seq={}\n", u64::MAX - 1));
        assert_eq!(store.write_model("2".into()).unwrap(), 2, "still writable");
    }

    #[test]
    fn snapshots_no_store_could_hold_are_refused() {
        let entry = |key: &str, seq| SnapshotEntry {
            key: key.into(),
            seq,
            value: "v".into(),
        };
        let cases = [
            (vec![entry("a", 1), entry("b", 2)], vec![]),
            (vec![entry("a", 1), entry("b", 1)], vec![0, 1]),
            (vec![entry("b", 1), entry("a", 2)], vec![1]),
            (vec![entry("a", 1), entry("a", 2)], vec![1]),
            (vec![entry("a", 0), entry("b", 3)], vec![0, 1]),
        ];
        for (entries, faults) in cases {
            let snapshot = KvSnapshot {
                applied_seq: 2,
                entries,
            };
            assert_eq!(snapshot.faults(), faults, "{snapshot:?}");
            let json = serde_json::to_string(&snapshot).unwrap();
            let decoded = serde_json::from_str::<KvSnapshot>(&json);
            assert_eq!(decoded.is_ok(), faults.is_empty(), "{json}");
            let (replica, _) = PlanStore::open(None).unwrap();
            if replica.restore(&snapshot).is_err() {
                assert_eq!(
                    replica.dump(),
                    "applied_seq=0\n",
                    "a refusal changes nothing"
                );
            }
            assert_eq!(replica.applied_seq() == 2, faults.is_empty());
        }
    }

    #[test]
    fn restore_reports_each_write_once() {
        let leader = replica(&[("a", "1"), ("b", "1")]);
        let (follower, _) = PlanStore::open(None).unwrap();
        assert_eq!(follower.restore(&leader.snapshot()).unwrap(), ["a", "b"]);
        assert!(follower.restore(&leader.snapshot()).unwrap().is_empty());
        leader.apply(op(3, "b", "2"));
        assert_eq!(follower.restore(&leader.snapshot()).unwrap(), ["b"]);
        // Keys the snapshot no longer holds changed too.
        let restarted = replica(&[("c", "1")]);
        let changed = follower.restore(&restarted.snapshot()).unwrap();
        assert_eq!(changed, ["c", "a", "b"]);
        assert_eq!(follower.dump(), restarted.dump());
    }

    #[test]
    fn wire_types_round_trip_as_json() {
        let op = op(3, "plans/x", "{\"id\":\"x\"}");
        let back: LogOp = serde_json::from_str(&serde_json::to_string(&op).unwrap()).unwrap();
        assert_eq!(back, op);
        let fetch = LogFetch::Ops(vec![op]);
        let back: LogFetch = serde_json::from_str(&serde_json::to_string(&fetch).unwrap()).unwrap();
        assert_eq!(back, fetch);
        let redirect = LogFetch::NeedSnapshot { earliest: 9 };
        let back: LogFetch =
            serde_json::from_str(&serde_json::to_string(&redirect).unwrap()).unwrap();
        assert_eq!(back, redirect);
        let snap = replica(&[("a", "1")]).snapshot();
        let back: KvSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}
