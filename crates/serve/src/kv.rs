//! The sequenced plan KV — the one record of adopted plans, and the
//! replication substrate of the control plane.
//!
//! [`PlanKv`] is a key/value map in which **every mutation carries a
//! monotonic sequence number**. Writers express their expectation with a
//! [`MatchSeq`] condition (the classic conditional-upsert discipline of
//! metadata stores): `Exact(0)` means "create only", `Exact(n)` means
//! "replace exactly revision *n*", `Any` is unconditional. A failed
//! condition is a typed [`KvError::SeqConflict`], never a silent
//! overwrite — which makes *retrying* an upsert idempotent: the retry that
//! lost the race conflicts instead of double-writing.
//!
//! The daemon's plan store is one `PlanKv`: an adopted plan is the entry
//! under `plans/<id>` (its `version` is the sequence of the write that
//! created it), the promoted cost-model bundle the entry under
//! `models/active`. An entry whose value decodes as the plan its key names
//! keeps that decoded plan beside the value, so reads never re-parse;
//! anything else (a hostile replicated value included) is held, sequenced
//! and replicated, but is not a plan.
//!
//! Mutations append to a bounded **op log** ([`LogOp`]) that followers
//! tail. The follower side ([`PlanKv::apply`]) accepts ops in any order,
//! any number of times: ops at or below the applied sequence are
//! duplicates and ignored, the next-expected op applies immediately (plus
//! everything contiguous buffered behind it), and future ops are buffered.
//! Because application is gated on *exact sequence continuity*, two
//! replicas fed the same set of ops — shuffled, duplicated, re-sent —
//! converge to **byte-identical** stores ([`PlanKv::dump`] /
//! [`PlanKv::digest`] make that checkable). A replica whose lag exceeds
//! the leader's retained log window — or whose position is *ahead* of the
//! leader's, i.e. in the sequence space of a leader that has since
//! restarted — catches up from a full [`KvSnapshot`] instead
//! ([`LogFetch::NeedSnapshot`]).
//!
//! The sequence space is `1..u64::MAX`: an op numbered `u64::MAX` is
//! refused, a snapshot must be current through less, and all sequence
//! arithmetic saturates — so no number read off the network can panic
//! the store.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use nshard_nn::serialize::fnv64;

use crate::store::{decode_plan, StoredPlan};

/// The sequence condition of a conditional upsert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchSeq {
    /// Upsert unconditionally.
    Any,
    /// The key must currently be at exactly this sequence (`0` = absent,
    /// so `Exact(0)` is *create-only*).
    Exact(u64),
}

impl MatchSeq {
    /// Whether a key currently at `seq` (`0` when absent) satisfies the
    /// condition.
    fn matches(&self, seq: u64) -> bool {
        match self {
            MatchSeq::Any => true,
            MatchSeq::Exact(want) => seq == *want,
        }
    }
}

impl std::fmt::Display for MatchSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchSeq::Any => write!(f, "any"),
            MatchSeq::Exact(s) => write!(f, "== {s}"),
        }
    }
}

/// Errors of the sequenced KV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The upsert's [`MatchSeq`] condition did not hold.
    SeqConflict {
        /// The contended key.
        key: String,
        /// The condition the writer demanded.
        expected: String,
        /// The sequence actually found (`0` = key absent).
        found: u64,
    },
    /// The next write would be numbered `u64::MAX`, outside the sequence
    /// space (reachable only after replicating a hostile position).
    Exhausted,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::SeqConflict {
                key,
                expected,
                found,
            } => write!(
                f,
                "sequence conflict on {key}: expected seq {expected}, found {found}"
            ),
            KvError::Exhausted => write!(f, "the sequence space is exhausted"),
        }
    }
}

impl std::error::Error for KvError {}

/// A live entry: the mutation that last wrote its key, and that value
/// decoded as the adopted plan the key names ([`decode_plan`]) — `None`
/// for every other key or value.
struct SeqEntry {
    written: SnapshotEntry,
    plan: Option<Arc<StoredPlan>>,
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

/// A full materialized copy of the KV — the catch-up path for replicas
/// whose lag exceeds the leader's retained log, and the form a store's
/// files take at boot. Decoding refuses what a restore would: a
/// position of `u64::MAX`, keys out of order or repeated, an entry's
/// sequence outside `1..=applied_seq` or shared with another entry.
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

struct KvInner {
    entries: BTreeMap<String, SeqEntry>,
    applied_seq: u64,
    /// Retained tail of the op log, oldest first.
    log: VecDeque<LogOp>,
    /// Sequence of `log.front()`; `applied_seq + 1` when the log is empty.
    log_start: u64,
    /// Out-of-order ops waiting for their predecessors, keyed by seq.
    pending: BTreeMap<u64, LogOp>,
}

impl KvInner {
    /// Installs `op` as the newest mutation: its entry, the applied
    /// sequence and the log tail (compacted to `keep` ops).
    fn install(&mut self, op: LogOp, plan: Option<Arc<StoredPlan>>, keep: usize) {
        let LogOp { seq, key, value } = op.clone();
        let written = SnapshotEntry { key, seq, value };
        self.entries
            .insert(written.key.clone(), SeqEntry { written, plan });
        self.applied_seq = op.seq;
        if self.log.is_empty() {
            self.log_start = op.seq;
        }
        self.log.push_back(op);
        while self.log.len() > keep {
            self.log.pop_front();
            self.log_start = self.log_start.saturating_add(1);
        }
    }
}

/// The sequenced, replicable KV. See the [module docs](self).
pub struct PlanKv {
    inner: Mutex<KvInner>,
    log_keep: usize,
}

impl PlanKv {
    /// An empty KV retaining at most `log_keep` ops for followers to
    /// tail (older ops are compacted away; lagging followers then take
    /// the snapshot path).
    pub fn new(log_keep: usize) -> Self {
        Self {
            inner: Mutex::new(KvInner {
                entries: BTreeMap::new(),
                applied_seq: 0,
                log: VecDeque::new(),
                log_start: 1,
                pending: BTreeMap::new(),
            }),
            log_keep: log_keep.max(1),
        }
    }

    /// The KV's state. Invariant: nothing panics while it is held
    /// (sequence arithmetic saturates; decoders, file saves and the
    /// closures handed to `write`/`with_plans` return errors), so the lock
    /// is never poisoned.
    fn lock(&self) -> MutexGuard<'_, KvInner> {
        self.inner.lock().expect("plan kv poisoned")
    }

    /// Conditionally upserts `key` — the **leader** write path. On success
    /// the mutation is stamped with the next global sequence, logged for
    /// followers, and the new sequence returned.
    ///
    /// # Errors
    ///
    /// [`KvError::SeqConflict`] when the key's current sequence does not
    /// satisfy `expect`. Conflicts mutate nothing, which is what makes
    /// retried upserts idempotent. [`KvError::Exhausted`] past the end of
    /// the sequence space.
    pub fn upsert(
        &self,
        key: &str,
        value: impl Into<String>,
        expect: MatchSeq,
    ) -> Result<u64, KvError> {
        let value = value.into();
        self.write(key, expect, |seq| {
            let plan = decode_plan(key, seq, &value);
            Ok::<_, KvError>((value, plan))
        })
    }

    /// [`PlanKv::upsert`] with the value built for the sequence the write
    /// receives — how an adoption stamps its `version` — and handed over
    /// already decoded. `make` runs under the lock, before the op reaches
    /// the log (the store saves the write's file there); its error writes
    /// nothing.
    pub(crate) fn write<E: From<KvError>>(
        &self,
        key: &str,
        expect: MatchSeq,
        make: impl FnOnce(u64) -> Result<(String, Option<Arc<StoredPlan>>), E>,
    ) -> Result<u64, E> {
        let mut inner = self.lock();
        let found = inner.entries.get(key).map_or(0, |e| e.written.seq);
        if !expect.matches(found) {
            return Err(E::from(KvError::SeqConflict {
                key: key.to_string(),
                expected: expect.to_string(),
                found,
            }));
        }
        let seq = inner.applied_seq.saturating_add(1);
        if seq == u64::MAX {
            return Err(E::from(KvError::Exhausted));
        }
        let ((value, plan), key) = (make(seq)?, key.to_string());
        inner.install(LogOp { seq, key, value }, plan, self.log_keep);
        Ok(seq)
    }

    /// Applies a replicated op — the **follower** write path. Returns the
    /// ops actually applied this call, in order (empty when `op` was a
    /// duplicate, numbered `u64::MAX`, or had to be buffered; more than one
    /// when it unblocked buffered successors). Applied ops re-enter this
    /// replica's own log, so a promoted follower can serve followers of its
    /// own.
    pub fn apply(&self, op: LogOp) -> Vec<LogOp> {
        let mut inner = self.lock();
        let want = inner.applied_seq.saturating_add(1);
        if op.seq < want || op.seq == u64::MAX {
            return Vec::new(); // duplicate delivery, or outside the space
        }
        if op.seq > want {
            inner.pending.insert(op.seq, op); // future op: hold it
            return Vec::new();
        }
        let mut applied = Vec::new();
        let mut next = Some(op);
        while let Some(op) = next {
            let plan = decode_plan(&op.key, op.seq, &op.value);
            inner.install(op.clone(), plan, self.log_keep);
            applied.push(op);
            let want = inner.applied_seq.saturating_add(1);
            next = inner.pending.remove(&want);
        }
        applied
    }

    /// The sequence of the last applied mutation (`0` when pristine).
    pub fn applied_seq(&self) -> u64 {
        self.lock().applied_seq
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the KV holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of out-of-order ops buffered awaiting predecessors.
    pub fn pending_len(&self) -> usize {
        self.lock().pending.len()
    }

    /// The retained log window: `(oldest retained sequence, length)`.
    pub(crate) fn log_window(&self) -> (u64, usize) {
        let inner = self.lock();
        (inner.log_start, inner.log.len())
    }

    /// The adopted plan stored under `key`, if its value is one.
    pub(crate) fn plan(&self, key: &str) -> Option<Arc<StoredPlan>> {
        self.lock().entries.get(key).and_then(|e| e.plan.clone())
    }

    /// `f` over every adopted plan, in key order, under the lock (so `f`
    /// must not panic).
    pub(crate) fn with_plans<R>(
        &self,
        f: impl FnOnce(&mut dyn Iterator<Item = &StoredPlan>) -> R,
    ) -> R {
        let inner = self.lock();
        f(&mut inner.entries.values().filter_map(|e| e.plan.as_deref()))
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
        let inner = self.lock();
        let compacted =
            from_seq.saturating_add(1) < inner.log_start && inner.applied_seq > from_seq;
        if compacted || from_seq > inner.applied_seq {
            return LogFetch::NeedSnapshot {
                earliest: inner.log_start,
            };
        }
        LogFetch::Ops(
            inner
                .log
                .iter()
                .filter(|op| op.seq > from_seq)
                .cloned()
                .collect(),
        )
    }

    /// A full copy of the KV for cold/lagging replicas.
    pub fn snapshot(&self) -> KvSnapshot {
        let inner = self.lock();
        KvSnapshot {
            applied_seq: inner.applied_seq,
            entries: inner.entries.values().map(|e| e.written.clone()).collect(),
        }
    }

    /// Replaces this replica's contents with `snapshot` (catch-up, and
    /// boot from the store's files). Buffered future ops beyond the
    /// snapshot are kept and drain as soon as their predecessors stream
    /// in — unless the snapshot is *behind* this replica, which means the
    /// leader restarted its sequence space and everything buffered
    /// belongs to the dead one.
    ///
    /// Returns the keys whose entry changed — written by another sequence
    /// or value, or dropped — so a caller materializes each write once,
    /// however often the same snapshot arrives.
    ///
    /// # Errors
    ///
    /// Why `snapshot` fails [`KvSnapshot::check`]; a refused snapshot
    /// changes nothing.
    pub(crate) fn restore(&self, snapshot: &KvSnapshot) -> Result<Vec<String>, String> {
        snapshot.check()?;
        let mut inner = self.lock();
        inner.pending = if snapshot.applied_seq < inner.applied_seq {
            BTreeMap::new()
        } else {
            inner
                .pending
                .split_off(&snapshot.applied_seq.saturating_add(1))
        };
        let mut dropped = std::mem::take(&mut inner.entries);
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
            inner.entries.insert(e.key.clone(), entry);
        }
        changed.extend(dropped.into_keys());
        inner.applied_seq = snapshot.applied_seq;
        inner.log.clear();
        inner.log_start = snapshot.applied_seq.saturating_add(1);
        Ok(changed)
    }

    /// Canonical dump of the live entries (`key\tseq\tvalue` lines in key
    /// order) — two converged replicas dump **byte-identical** strings.
    pub fn dump(&self) -> String {
        let inner = self.lock();
        let mut out = format!("applied_seq={}\n", inner.applied_seq);
        for SnapshotEntry { key, seq, value } in inner.entries.values().map(|e| &e.written) {
            out.push_str(&format!("{key}\t{seq}\t{value}\n"));
        }
        out
    }

    /// FNV-1a digest of [`PlanKv::dump`] — the cheap convergence check.
    pub fn digest(&self) -> u64 {
        fnv64(self.dump().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_seq_semantics() {
        assert!(MatchSeq::Any.matches(0) && MatchSeq::Any.matches(7));
        assert!(MatchSeq::Exact(0).matches(0) && !MatchSeq::Exact(0).matches(1));
        assert!(MatchSeq::Exact(3).matches(3) && !MatchSeq::Exact(3).matches(4));
        assert_eq!(MatchSeq::Any.to_string(), "any");
        assert_eq!(MatchSeq::Exact(2).to_string(), "== 2");
    }

    #[test]
    fn conditional_upserts_are_sequenced_and_idempotent() {
        let kv = PlanKv::new(64);
        let s1 = kv.upsert("plans/a", "A1", MatchSeq::Exact(0)).unwrap();
        assert_eq!(s1, 1);
        // Create-only on an existing key conflicts — the idempotence story.
        let err = kv.upsert("plans/a", "A1", MatchSeq::Exact(0)).unwrap_err();
        assert!(matches!(err, KvError::SeqConflict { found: 1, .. }));
        assert_eq!(
            kv.dump(),
            "applied_seq=1\nplans/a\t1\tA1\n",
            "conflict mutates nothing"
        );
        // Replace exactly revision 1.
        let s2 = kv.upsert("plans/a", "A2", MatchSeq::Exact(1)).unwrap();
        assert_eq!(s2, 2);
        // A writer still holding revision 1 loses cleanly.
        assert!(kv.upsert("plans/a", "stale", MatchSeq::Exact(1)).is_err());
        // Any accepts whatever revision is current.
        let s3 = kv.upsert("plans/a", "A3", MatchSeq::Any).unwrap();
        assert_eq!(s3, 3);
        assert_eq!(kv.applied_seq(), 3);
    }

    #[test]
    fn apply_tolerates_reorder_and_duplication() {
        let leader = PlanKv::new(64);
        for i in 0..5 {
            leader
                .upsert(&format!("k{i}"), format!("v{i}"), MatchSeq::Any)
                .unwrap();
        }
        let LogFetch::Ops(ops) = leader.log_since(0) else {
            panic!("log retained")
        };
        let follower = PlanKv::new(64);
        // Deliver out of order with duplicates: 3, 1, 1, 4, 2, 0, 0, 3.
        for &i in &[3usize, 1, 1, 4, 2, 0, 0, 3] {
            follower.apply(ops[i].clone());
        }
        assert_eq!(follower.dump(), leader.dump(), "byte-identical convergence");
        assert_eq!(follower.digest(), leader.digest());
        assert_eq!(follower.pending_len(), 0);
        // The op that unblocked the buffer reported the whole drained run.
        let f2 = PlanKv::new(64);
        assert!(f2.apply(ops[2].clone()).is_empty(), "buffered");
        assert!(f2.apply(ops[1].clone()).is_empty(), "still gapped");
        let drained = f2.apply(ops[0].clone());
        assert_eq!(drained.len(), 3, "op 1 drained ops 2 and 3 behind it");
    }

    #[test]
    fn compaction_redirects_laggards_to_snapshot() {
        let kv = PlanKv::new(4);
        for i in 0..10 {
            kv.upsert("hot", format!("v{i}"), MatchSeq::Any).unwrap();
        }
        // Seqs 1..=6 are compacted away (keep = 4 retains 7..=10).
        match kv.log_since(2) {
            LogFetch::NeedSnapshot { earliest } => assert_eq!(earliest, 7),
            other => panic!("expected snapshot redirect, got {other:?}"),
        }
        // A follower inside the window tails normally.
        match kv.log_since(8) {
            LogFetch::Ops(ops) => {
                assert_eq!(ops.iter().map(|o| o.seq).collect::<Vec<_>>(), vec![9, 10]);
            }
            other => panic!("expected ops, got {other:?}"),
        }
        // Fully caught up: empty fetch, not a snapshot.
        assert_eq!(kv.log_since(10), LogFetch::Ops(Vec::new()));

        // Snapshot restore catches the laggard up byte-identically...
        let lagging = PlanKv::new(4);
        lagging.restore(&kv.snapshot()).unwrap();
        assert_eq!(lagging.dump(), kv.dump());
        assert_eq!(lagging.applied_seq(), 10);
        // ...and it keeps tailing from there.
        kv.upsert("hot", "v10", MatchSeq::Any).unwrap();
        if let LogFetch::Ops(ops) = kv.log_since(lagging.applied_seq()) {
            for op in ops {
                lagging.apply(op);
            }
        }
        assert_eq!(lagging.dump(), kv.dump());
    }

    #[test]
    fn a_follower_ahead_of_the_leader_is_redirected_to_the_snapshot() {
        // The follower tailed a leader through seq 5 and buffered a
        // gapped seq 7; that leader then restarted with an empty log.
        let dead = PlanKv::new(64);
        for i in 0..7 {
            dead.upsert(&format!("plans/k{i}"), "old", MatchSeq::Any)
                .unwrap();
        }
        let LogFetch::Ops(old_ops) = dead.log_since(0) else {
            panic!("log retained")
        };
        let follower = PlanKv::new(64);
        for op in old_ops.iter().take(5).chain(&old_ops[6..]) {
            follower.apply(op.clone());
        }
        assert_eq!((follower.applied_seq(), follower.pending_len()), (5, 1));

        let leader = PlanKv::new(64);
        leader.upsert("plans/k0", "new", MatchSeq::Any).unwrap();
        assert_eq!(
            leader.log_since(follower.applied_seq()),
            LogFetch::NeedSnapshot { earliest: 1 },
            "seq 5 was never sequenced here: an empty fetch would read as caught up"
        );
        assert_eq!(leader.log_since(1), LogFetch::Ops(Vec::new()));

        follower.restore(&leader.snapshot()).unwrap();
        assert_eq!(follower.dump(), leader.dump());
        assert_eq!(follower.pending_len(), 0, "seq 7 of the dead space is gone");
        // Seven new ops cross the old position without being mistaken for
        // duplicates, and seq 7 is the leader's, not the buffered one.
        for i in 0..7 {
            leader
                .upsert(&format!("plans/k{i}"), "new", MatchSeq::Any)
                .unwrap();
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
        let kv = PlanKv::new(8);
        kv.upsert("a", "1", MatchSeq::Any).unwrap();
        assert_eq!(
            kv.log_since(u64::MAX),
            LogFetch::NeedSnapshot { earliest: 1 }
        );
        let last = LogOp {
            seq: u64::MAX,
            key: "b".into(),
            value: "2".into(),
        };
        assert!(kv.apply(last).is_empty());
        assert_eq!(kv.pending_len(), 0, "not even buffered");
        let mut end = kv.snapshot();
        end.applied_seq = u64::MAX;
        assert!(kv.restore(&end).is_err());
        let json = serde_json::to_string(&end).unwrap();
        assert!(serde_json::from_str::<KvSnapshot>(&json).is_err());
        // A replica one short of the end refuses the write past it.
        let edge = PlanKv::new(8);
        let eve = KvSnapshot {
            applied_seq: u64::MAX - 1,
            entries: Vec::new(),
        };
        edge.restore(&eve).unwrap();
        assert_eq!(
            edge.upsert("a", "1", MatchSeq::Any),
            Err(KvError::Exhausted)
        );
        assert_eq!(kv.upsert("a", "2", MatchSeq::Any), Ok(2), "still writable");
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
            let replica = PlanKv::new(8);
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
        let leader = PlanKv::new(8);
        leader.upsert("a", "1", MatchSeq::Any).unwrap();
        leader.upsert("b", "1", MatchSeq::Any).unwrap();
        let replica = PlanKv::new(8);
        assert_eq!(replica.restore(&leader.snapshot()).unwrap(), ["a", "b"]);
        assert!(replica.restore(&leader.snapshot()).unwrap().is_empty());
        leader.upsert("b", "2", MatchSeq::Any).unwrap();
        assert_eq!(replica.restore(&leader.snapshot()).unwrap(), ["b"]);
        // Keys the snapshot no longer holds changed too.
        let restarted = PlanKv::new(8);
        restarted.upsert("c", "1", MatchSeq::Any).unwrap();
        let changed = replica.restore(&restarted.snapshot()).unwrap();
        assert_eq!(changed, ["c", "a", "b"]);
        assert_eq!(replica.dump(), restarted.dump());
    }

    #[test]
    fn wire_types_round_trip_as_json() {
        let op = LogOp {
            seq: 3,
            key: "plans/x".into(),
            value: "{\"id\":\"x\"}".into(),
        };
        let back: LogOp = serde_json::from_str(&serde_json::to_string(&op).unwrap()).unwrap();
        assert_eq!(back, op);
        let fetch = LogFetch::Ops(vec![op]);
        let back: LogFetch = serde_json::from_str(&serde_json::to_string(&fetch).unwrap()).unwrap();
        assert_eq!(back, fetch);
        let redirect = LogFetch::NeedSnapshot { earliest: 9 };
        let back: LogFetch =
            serde_json::from_str(&serde_json::to_string(&redirect).unwrap()).unwrap();
        assert_eq!(back, redirect);
        let kv = PlanKv::new(8);
        kv.upsert("a", "1", MatchSeq::Any).unwrap();
        let snap = kv.snapshot();
        let back: KvSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}
