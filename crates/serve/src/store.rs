//! The plan store behind the daemon: the one record of adopted plans.
//!
//! [`PlanStore`] holds every **adopted** [`ShardingPlan`] with its
//! [`PlanProvenance`], keyed by a deterministic content-addressed id.
//! Every write takes the next sequence number, and an adopted plan's
//! `version` is the number of the write that adopted it. An adoption
//! checks its id under the store's lock — a duplicate adoption,
//! concurrent identical requests included, finds its twin instead of
//! forking a version — and saves its file before the record changes, so a
//! failed save adopts nothing.
//!
//! The sequence space is `1..u64::MAX`: a write that would be numbered
//! `u64::MAX` is refused, and sequence arithmetic saturates, so no number
//! read off the disk can panic the store.
//!
//! Every file is a checksum-framed envelope written and read by
//! `nshard_nn::serialize` ([`write_checked`] / [`read_checked`]), so an
//! unsupported format version is a typed error instead of undefined
//! behavior. On-disk layout under the store directory:
//!
//! ```text
//! store/
//!   plans/<id>.json      (payload = StoredPlan)
//! ```
//!
//! The files are the store's only outside input: [`PlanStore::open`]
//! reads them straight into the record, so a restarted daemon serves the
//! plans and versions it served before. The store holds no model: the
//! daemon serves the bundle `Service::new` was handed, and a
//! `models/active.json` an older build wrote beside `plans/` is neither
//! read, renamed nor deleted (its number stays a gap in the sequence).
//!
//! ## Torn-write hardening
//!
//! The frame makes damage — truncation, a half-flushed page, a bit flip —
//! a [`CheckpointError::Corrupt`] instead of a parse into garbage, and
//! every write goes through a temporary file and a rename. At boot,
//! [`PlanStore::open`] **quarantines** damaged entries (renames them to
//! `*.json.quarantined`) — and entries no store could hold: two files
//! claiming one sequence number, or a number outside the sequence space —
//! and keeps booting with the rest rather than refusing to start; the
//! daemon's `nshard_serve_store_quarantined` gauge reports how many were
//! set aside.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use nshard_core::{PlanProvenance, ShardingPlan};
use nshard_data::ShardingTask;
use nshard_nn::serialize::{read_checked, write_checked, CheckpointError};

use crate::sync;

/// The producer tag written into envelope headers.
const CREATED_BY: &str = "nshard-serve";

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
    /// The store refused a write: it would be numbered `u64::MAX`, outside
    /// the sequence space.
    Conflict(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, error } => write!(f, "store I/O failed for {path}: {error}"),
            StoreError::Checkpoint(e) => write!(f, "store artifact error: {e}"),
            StoreError::Conflict(e) => write!(f, "plan store conflict: {e}"),
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
    /// monotonic per store).
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

/// The plan the store file at `path` holds, or `None` when the file is
/// damaged: a torn or flipped write, or a plan whose id is not its file
/// name.
fn read_file(path: &Path) -> Result<Option<StoredPlan>, StoreError> {
    let read = read_checked::<StoredPlan>(path).map(|e| {
        let plan = e.payload;
        (path.file_stem() == Some(plan.id.as_ref())).then_some(plan)
    });
    match read {
        Err(e) if is_damage(&e) => Ok(None),
        other => Ok(other?),
    }
}

/// The record: the adopted plans by id, and the sequence number of the
/// last write.
#[derive(Default)]
struct Record {
    plans: BTreeMap<String, StoredPlan>,
    applied_seq: u64,
}

impl Record {
    /// The number the next write takes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] when it would be `u64::MAX`.
    fn next_seq(&self) -> Result<u64, StoreError> {
        match self.applied_seq.saturating_add(1) {
            u64::MAX => Err(StoreError::Conflict(
                "the sequence space is exhausted".into(),
            )),
            seq => Ok(seq),
        }
    }
}

/// The adopted plans: one sequenced record, optionally mirrored to disk.
/// Every write takes the next sequence number — an adopted plan's
/// `version` — and saves its file first.
pub struct PlanStore {
    record: Mutex<Record>,
    dir: Option<PathBuf>,
    quarantined: usize,
}

impl PlanStore {
    /// Opens the store — in memory when `dir` is `None`, else rooted at
    /// `dir` (created if needed) — with every intact file under `plans/`
    /// in its record, current through the highest sequence number the
    /// files hold. Nothing is written back. Files that
    /// fail their checksum or do not parse — damaged on disk — and files
    /// whose sequence number another file claims, or that no store could
    /// have written, are renamed to `*.json.quarantined` and left out, so
    /// one damaged file never blocks the whole store from booting.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created, a file cannot
    /// be read or renamed, or a persisted plan carries an unsupported
    /// format version (a build problem, not file damage — never
    /// quarantined silently).
    pub(crate) fn open(dir: Option<&Path>) -> Result<Self, StoreError> {
        let Some(dir) = dir else {
            return Ok(Self {
                record: Mutex::default(),
                dir: None,
                quarantined: 0,
            });
        };
        let mut quarantined = 0;
        let mut set_aside = |path: &Path| {
            let aside = path.with_extension("json.quarantined");
            quarantined += 1;
            std::fs::rename(path, aside).map_err(|e| io_error(path, e))
        };
        let root = dir.join("plans");
        std::fs::create_dir_all(&root).map_err(|e| io_error(&root, e))?;
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&root).map_err(|e| io_error(&root, e))? {
            let path = entry.map_err(|e| io_error(&root, e))?.path();
            if path.extension() != Some("json".as_ref()) {
                continue;
            }
            match read_file(&path)? {
                Some(plan) => found.push((path, plan)),
                None => set_aside(&path)?,
            }
        }
        let seqs = found.iter().map(|(_, plan)| plan.version);
        let applied_seq = seqs.clone().filter(|&s| s < u64::MAX).max().unwrap_or(0);
        let mut claims: HashMap<u64, usize> = HashMap::new();
        for seq in seqs {
            *claims.entry(seq).or_default() += 1;
        }
        let mut record = Record {
            plans: BTreeMap::new(),
            applied_seq,
        };
        for (path, plan) in found {
            // Every claimant of a shared number is set aside.
            let seq = plan.version;
            if !(1..=applied_seq).contains(&seq) || claims[&seq] > 1 {
                set_aside(&path)?;
                continue;
            }
            record.plans.insert(plan.id.clone(), plan);
        }
        Ok(Self {
            record: Mutex::new(record),
            dir: Some(dir.to_path_buf()),
            quarantined,
        })
    }

    /// How many persisted entries [`PlanStore::open`] quarantined (always
    /// `0` for in-memory stores).
    pub(crate) fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// The record. Nothing panics while it is held (sequence arithmetic
    /// saturates and file saves return errors).
    fn lock(&self) -> MutexGuard<'_, Record> {
        sync::lock(&self.record)
    }

    /// Adopts a plan: one write of `plans/<id>` whose sequence number
    /// becomes the record's `version`. Adoption is **idempotent by id** —
    /// an id already adopted returns its twin's version unchanged, so
    /// duplicate identical requests never fork versions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] when the sequence space is exhausted;
    /// [`StoreError`] when its file cannot be saved (nothing is adopted
    /// then).
    pub(crate) fn adopt(
        &self,
        id: &str,
        task: ShardingTask,
        plan: ShardingPlan,
        provenance: PlanProvenance,
        predicted_ms: f64,
        degraded: bool,
    ) -> Result<u64, StoreError> {
        let mut record = self.lock();
        if let Some(twin) = record.plans.get(id) {
            return Ok(twin.version);
        }
        let version = record.next_seq()?;
        let adopted = StoredPlan {
            id: id.to_string(),
            version,
            task,
            plan,
            provenance,
            predicted_ms,
            degraded,
        };
        if let Some(dir) = &self.dir {
            let path = dir.join("plans").join(format!("{id}.json"));
            write_checked(&path, id, CREATED_BY, &adopted)?;
        }
        record.plans.insert(adopted.id.clone(), adopted);
        record.applied_seq = version;
        Ok(version)
    }

    /// The sequence of the last write (`0` when pristine).
    pub fn applied_seq(&self) -> u64 {
        self.lock().applied_seq
    }

    /// Looks up a plan by id.
    pub fn get(&self, id: &str) -> Option<StoredPlan> {
        self.lock().plans.get(id).cloned()
    }

    /// The most recently adopted plan.
    pub fn latest(&self) -> Option<StoredPlan> {
        let record = self.lock();
        record.plans.values().max_by_key(|p| p.version).cloned()
    }

    /// Number of stored plans.
    pub fn len(&self) -> usize {
        self.lock().plans.len()
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored ids in adoption order.
    pub fn ids(&self) -> Vec<String> {
        let record = self.lock();
        let mut plans: Vec<_> = record.plans.values().map(|p| (p.version, &p.id)).collect();
        plans.sort_unstable();
        plans.into_iter().map(|(_, id)| id.clone()).collect()
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
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nshard_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Opens the store `dir` holds (the boot path minus the service).
    fn reopen(dir: &Path) -> PlanStore {
        PlanStore::open(Some(dir)).unwrap()
    }

    fn memory() -> PlanStore {
        PlanStore::open(None).unwrap()
    }

    #[test]
    fn adoption_is_versioned_and_idempotent() {
        let store = memory();
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

    /// A provenance as older builds wrote it: retry backoff
    /// (`total_retries`, `total_backoff_ms`, a retry's `backoff_ms`), the
    /// online controller's `replan` attribution and a replica's `failover`
    /// attribution, none of which exists any more.
    const OLD_PROVENANCE: &str = r#"{"source":{"Primary":{"algorithm":"size_greedy"}},"events":[{"Attempt":{"algorithm":"size_greedy"}},{"TransientRetry":{"algorithm":"size_greedy","attempt":1,"backoff_ms":50,"reason":"transient measurement failure on device 1: injected measurement fault"}}],"total_retries":1,"total_backoff_ms":50,"replan":null,"failover":{"node":"node-1","at_seq":3,"stale":true}}"#;

    #[test]
    fn a_plan_record_with_retry_totals_loads_from_disk() {
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
        let old = body.replacen(&current, OLD_PROVENANCE, 1);
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
        assert_eq!(record.predicted_ms, 4.5);
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
    fn a_write_whose_file_cannot_be_saved_adopts_nothing() {
        let dir = tmp("unsaved");
        let store = reopen(&dir);
        // A directory where the plan's file belongs: the rename fails.
        std::fs::create_dir_all(dir.join("plans").join("x.json")).unwrap();
        let t = task();
        match store.adopt("x", t.clone(), plan(&t), provenance(), 1.0, false) {
            Err(StoreError::Checkpoint(CheckpointError::Io { .. })) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert_eq!((store.applied_seq(), store.len()), (0, 0));
        // The next adoption takes seq 1.
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
            let store = memory();
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
    fn numbers_at_the_ends_of_the_sequence_space_are_refused() {
        let dir = tmp("edge");
        let t = task();
        {
            let store = reopen(&dir);
            for id in ["zero", "end", "eve"] {
                store
                    .adopt(id, t.clone(), plan(&t), provenance(), 1.0, false)
                    .unwrap();
            }
        }
        // Unframed, so only the sequence check stands in the way.
        for (id, from, to) in [
            ("zero", 1, 0),
            ("end", 2, u64::MAX),
            ("eve", 3, u64::MAX - 1),
        ] {
            let path = dir.join("plans").join(format!("{id}.json"));
            let framed = std::fs::read_to_string(&path).unwrap();
            let bare = framed.split_once('\n').unwrap().1;
            let (head, payload) = bare.split_once("\"payload\":").unwrap();
            let from = format!("\"version\":{from},");
            assert!(payload.contains(&from), "{payload}");
            let payload = payload.replacen(&from, &format!("\"version\":{to},"), 1);
            std::fs::write(&path, format!("{head}\"payload\":{payload}")).unwrap();
        }
        let store = reopen(&dir);
        assert_eq!(store.quarantined(), 2, "seq 0 and seq u64::MAX");
        assert_eq!(store.ids(), ["eve"]);
        assert_eq!(store.applied_seq(), u64::MAX - 1);
        // One short of the end, every write is refused.
        let adopted = store.adopt("p", t.clone(), plan(&t), provenance(), 1.0, false);
        assert!(matches!(adopted, Err(StoreError::Conflict(_))));
        assert_eq!((store.applied_seq(), store.len()), (u64::MAX - 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
