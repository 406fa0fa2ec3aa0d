//! Leader/follower replication of the plan control plane.
//!
//! A serve tier is N daemons sharing one logical plan/model store. One
//! node is the **leader**: it runs searches, adopts plans, and appends
//! every adoption to the sequenced op log of its [`crate::kv::PlanKv`].
//! The others are **followers**: they poll the leader's
//! `/v1/repl/log/{from}` endpoint, apply the ops through the same
//! sequence-gated [`crate::kv::PlanKv::apply`] path, and materialize
//! replicated plans into their local [`crate::store::PlanStore`] — so
//! every replica can answer `GET /v1/plans/{id}` warm at all times. A
//! cold or lagging follower whose position predates the leader's
//! retained log — or lies ahead of it, because the leader restarted its
//! sequence space — catches up from `/v1/repl/snapshot` instead.
//!
//! **Failover.** The [`Replicator`] counts *consecutive* transport
//! failures; at `failure_threshold` it promotes its service to leader
//! ([`Role::Leader`]) — the caught-up store keeps serving reads and starts
//! accepting writes. If the follower had observed leader sequences it
//! never received, the promotion is **stale**: reads still serve (old
//! plans beat no plans, the fallback-chain philosophy applied to
//! replication) but responses are marked — `X-Nshard-Stale: true` on plan
//! fetches and `stale` in `/v1/repl/status` — and new plans carry a
//! failover [`nshard_core::FailoverAttribution`] in their provenance.
//!
//! **Determinism.** Reconnect pacing comes from the shared seeded
//! [`Backoff`] helper and is *recorded, not slept* — the chaos suite
//! drives every schedule with a manual clock and zero sleeps.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use nshard_pool::Backoff;

use crate::http::http_call;
use crate::kv::{KvSnapshot, LogFetch};
use crate::server::Service;

/// Base reconnect backoff, ms (seeded decorrelated jitter on top).
const BACKOFF_BASE_MS: u64 = 50;

/// Reconnect backoff cap, ms.
const BACKOFF_CAP_MS: u64 = 2_000;

/// A node's role in the serve tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Tails the leader's log; rejects writes with `503 not_leader`.
    Follower,
    /// Mid-promotion (failure threshold reached, takeover in progress).
    Candidate,
    /// Accepts writes and serves the op log.
    Leader,
}

impl Role {
    /// Short stable label (`"leader"` / `"follower"` / `"candidate"`).
    pub fn label(&self) -> &'static str {
        match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        }
    }

    /// Numeric gauge encoding: follower 0, candidate 1, leader 2.
    pub fn gauge_value(&self) -> u64 {
        match self {
            Role::Follower => 0,
            Role::Candidate => 1,
            Role::Leader => 2,
        }
    }
}

/// Lock-free cell holding a node's role and failover state.
pub struct RoleCell {
    role: AtomicU8,
    stale: AtomicBool,
    promoted: AtomicBool,
    promoted_at_seq: AtomicU64,
}

impl RoleCell {
    /// A cell starting in `role`.
    pub fn new(role: Role) -> Self {
        Self {
            role: AtomicU8::new(role.gauge_value() as u8),
            stale: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
            promoted_at_seq: AtomicU64::new(0),
        }
    }

    /// The current role.
    pub fn role(&self) -> Role {
        match self.role.load(Ordering::SeqCst) {
            0 => Role::Follower,
            1 => Role::Candidate,
            _ => Role::Leader,
        }
    }

    /// Sets the role.
    pub fn set_role(&self, role: Role) {
        self.role.store(role.gauge_value() as u8, Ordering::SeqCst);
    }

    /// Whether this node currently accepts writes.
    pub fn is_leader(&self) -> bool {
        matches!(self.role(), Role::Leader)
    }

    /// Whether this node is serving in degraded stale-read mode (promoted
    /// while known to be behind the dead leader).
    pub fn stale(&self) -> bool {
        self.stale.load(Ordering::SeqCst)
    }

    /// Records a warm failover: leadership taken over at `applied_seq`,
    /// `stale` when the dead leader was known to be ahead.
    pub fn mark_promoted(&self, applied_seq: u64, stale: bool) {
        self.promoted_at_seq.store(applied_seq, Ordering::SeqCst);
        self.stale.store(stale, Ordering::SeqCst);
        self.promoted.store(true, Ordering::SeqCst);
        self.set_role(Role::Leader);
    }

    /// The sequence this node held when it promoted itself, if it ever
    /// did.
    pub fn promoted_at(&self) -> Option<u64> {
        self.promoted
            .load(Ordering::SeqCst)
            .then(|| self.promoted_at_seq.load(Ordering::SeqCst))
    }
}

/// Why a replication fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// The leader did not answer (connection refused, reset, timed out —
    /// or a chaos-injected partition/crash).
    Unreachable(String),
    /// The leader answered something unparseable or non-200.
    Protocol(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Unreachable(d) => write!(f, "leader unreachable: {d}"),
            ReplError::Protocol(d) => write!(f, "replication protocol error: {d}"),
        }
    }
}

impl std::error::Error for ReplError {}

/// How a follower reaches its leader. The HTTP implementation is
/// [`HttpTransport`]; the chaos suite substitutes in-process transports
/// wired through seeded fault plans.
pub trait ReplTransport: Send {
    /// Fetches ops strictly after `from_seq`, or a snapshot redirect.
    ///
    /// # Errors
    ///
    /// [`ReplError`] when the leader is unreachable or answers garbage.
    fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError>;

    /// Fetches a full snapshot for cold/lagging catch-up.
    ///
    /// # Errors
    ///
    /// [`ReplError`] as for [`ReplTransport::fetch_log`].
    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError>;
}

/// The real-TCP transport: polls the leader's `/v1/repl/*` endpoints.
pub struct HttpTransport {
    addr: String,
}

impl HttpTransport {
    /// A transport polling the leader at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }

    fn get_json(&self, path: &str) -> Result<String, ReplError> {
        match http_call(&self.addr, "GET", path, b"") {
            Err(e) => Err(ReplError::Unreachable(e.to_string())),
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(ReplError::Protocol(format!(
                "GET {path} answered {status}: {body}"
            ))),
        }
    }
}

impl ReplTransport for HttpTransport {
    fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
        let body = self.get_json(&format!("/v1/repl/log/{from_seq}"))?;
        serde_json::from_str(&body).map_err(|e| ReplError::Protocol(e.to_string()))
    }

    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
        let body = self.get_json("/v1/repl/snapshot")?;
        serde_json::from_str(&body).map_err(|e| ReplError::Protocol(e.to_string()))
    }
}

/// What one replication poll did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// Applied this many new ops from the leader's log.
    Applied(usize),
    /// Nothing new — the replica is caught up.
    UpToDate,
    /// This replica's position was outside the leader's retained log
    /// (behind it, or ahead of a restarted leader); restored a full
    /// snapshot.
    SnapshotRestored {
        /// The sequence the replica is now current through.
        applied_seq: u64,
    },
    /// The leader did not answer; retry after the recorded backoff.
    TransportError {
        /// Consecutive failures so far.
        consecutive: u32,
        /// Seeded-deterministic delay before the next poll, ms —
        /// *recorded*, never slept here.
        backoff_ms: u64,
    },
    /// Consecutive failures reached the threshold: this node promoted
    /// itself to leader with its caught-up store.
    Promoted {
        /// The sequence the store was current through at takeover.
        at_seq: u64,
        /// Whether the dead leader was known to be ahead (stale-read
        /// mode).
        stale: bool,
    },
    /// This node already leads; there is nothing to replicate.
    AlreadyLeader,
}

/// The follower-side replication driver: poll, apply, back off, promote.
pub struct Replicator {
    service: Arc<Service>,
    transport: Box<dyn ReplTransport>,
    backoff: Backoff,
    failures: u32,
    failure_threshold: u32,
    /// Highest sequence *observed* in the leader's current sequence space
    /// (log or snapshot headers), even if its ops never arrived — the
    /// staleness watermark. A snapshot restore resets it.
    last_leader_seq: u64,
}

impl Replicator {
    /// A replicator driving `service` from `transport`. Backoff pacing is
    /// seeded from the service's replica config, so two runs with the
    /// same seed record identical schedules.
    pub fn new(service: Arc<Service>, transport: Box<dyn ReplTransport>) -> Self {
        let backoff = Backoff::exponential(BACKOFF_BASE_MS)
            .with_cap(BACKOFF_CAP_MS)
            .with_jitter(service.config().seed ^ 0x5EED_4E91_1CA7_0157);
        let failure_threshold = service.config().replica.failure_threshold.max(1);
        Self {
            service,
            transport,
            backoff,
            failures: 0,
            failure_threshold,
            last_leader_seq: 0,
        }
    }

    /// The highest leader sequence this replicator ever observed.
    pub fn last_leader_seq(&self) -> u64 {
        self.last_leader_seq
    }

    /// One replication step: fetch from the leader, apply, and update the
    /// service's role/lag state. Never sleeps — callers schedule the next
    /// poll using any recorded `backoff_ms`.
    pub fn poll_once(&mut self) -> PollOutcome {
        if self.service.role().is_leader() {
            return PollOutcome::AlreadyLeader;
        }
        let from = self.service.kv().applied_seq();
        match self.transport.fetch_log(from) {
            Ok(LogFetch::Ops(ops)) => {
                self.failures = 0;
                self.service.reaffirm_follower();
                if let Some(max) = ops.iter().map(|o| o.seq).max() {
                    self.last_leader_seq = self.last_leader_seq.max(max);
                }
                let applied = self.service.apply_replicated(ops);
                self.service.note_replication_lag(
                    self.last_leader_seq
                        .saturating_sub(self.service.kv().applied_seq()),
                );
                if applied == 0 {
                    PollOutcome::UpToDate
                } else {
                    PollOutcome::Applied(applied)
                }
            }
            Ok(LogFetch::NeedSnapshot { earliest }) => {
                self.last_leader_seq = self.last_leader_seq.max(earliest.saturating_sub(1));
                match self.transport.fetch_snapshot() {
                    Ok(snapshot) => {
                        self.failures = 0;
                        self.service.reaffirm_follower();
                        // Not `max`: a snapshot behind the watermark means
                        // the leader restarted its sequence space, and the
                        // old space's watermark would misreport lag and
                        // staleness forever.
                        let applied_seq = snapshot.applied_seq;
                        self.last_leader_seq = applied_seq;
                        self.service.restore_snapshot(&snapshot);
                        self.service.note_replication_lag(0);
                        PollOutcome::SnapshotRestored { applied_seq }
                    }
                    Err(e) => self.note_failure(e),
                }
            }
            Err(e) => self.note_failure(e),
        }
    }

    fn note_failure(&mut self, _error: ReplError) -> PollOutcome {
        self.failures += 1;
        if self.failures >= self.failure_threshold {
            let at_seq = self.service.kv().applied_seq();
            let stale = self.last_leader_seq > at_seq;
            self.service.promote(at_seq, stale);
            return PollOutcome::Promoted { at_seq, stale };
        }
        self.service.set_candidate_if_follower();
        PollOutcome::TransportError {
            consecutive: self.failures,
            backoff_ms: self.backoff.delay_ms(self.failures),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_labels_and_gauges_are_stable() {
        assert_eq!(Role::Leader.label(), "leader");
        assert_eq!(Role::Follower.label(), "follower");
        assert_eq!(Role::Candidate.label(), "candidate");
        assert_eq!(Role::Follower.gauge_value(), 0);
        assert_eq!(Role::Candidate.gauge_value(), 1);
        assert_eq!(Role::Leader.gauge_value(), 2);
    }

    #[test]
    fn role_cell_tracks_promotion() {
        let cell = RoleCell::new(Role::Follower);
        assert!(!cell.is_leader());
        assert_eq!(cell.promoted_at(), None);
        cell.mark_promoted(41, true);
        assert!(cell.is_leader());
        assert!(cell.stale());
        assert_eq!(cell.promoted_at(), Some(41));
        // A leader by construction never reports a promotion.
        let born_leader = RoleCell::new(Role::Leader);
        assert!(born_leader.is_leader());
        assert_eq!(born_leader.promoted_at(), None);
        assert!(!born_leader.stale());
    }
}
