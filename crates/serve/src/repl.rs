//! Leader/follower replication of the plan control plane.
//!
//! A serve tier is N daemons sharing one logical plan/model store. Each
//! node's store is one sequenced [`crate::kv::PlanKv`], so every mutation
//! is already an entry of its replication log. One node is the
//! **leader**: it runs searches and adopts plans (each adoption one
//! create-only upsert). The others are **followers**: they poll the
//! leader's `/v1/repl/log/{from}` endpoint and apply the ops through the
//! sequence-gated [`crate::kv::PlanKv::apply`] — so every replica answers
//! `GET /v1/plans/{id}` warm, with the leader's bytes and versions. A cold
//! or lagging follower whose position predates the leader's retained log
//! — or lies ahead of it, because the leader restarted its sequence space
//! — catches up from `/v1/repl/snapshot` instead. A disk-backed node boots
//! the same way, restoring the snapshot its own files hold.
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
//! **The service's side** — the promoted bundle's log entry, the one
//! ingest path that boot, tailing and catch-up share (persist each changed
//! key, install a changed `models/active` once), the role transitions and
//! the `/v1/repl/*` endpoints — is the `impl Service` block at the end of
//! this module.
//!
//! **Determinism.** Reconnect pacing comes from the shared seeded
//! [`Backoff`] helper and is *recorded, not slept* — the chaos suite
//! drives every schedule with a manual clock and zero sleeps.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use nshard_cost::CostModelBundle;
use nshard_nn::serialize::{envelope_from_json, envelope_to_json};
use nshard_pool::Backoff;

use crate::api::{error_response, ReplStatus};
use crate::http::{HttpResponse, KeepAliveClient};
use crate::kv::{KvSnapshot, LogFetch, LogOp, MatchSeq};
use crate::server::Service;
use crate::store::MODEL_KEY;

/// Base reconnect backoff, ms (seeded decorrelated jitter on top).
const BACKOFF_BASE_MS: u64 = 50;

/// Reconnect backoff cap, ms.
const BACKOFF_CAP_MS: u64 = 2_000;

/// A node's role in the serve tier; the discriminant is its gauge value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Role {
    /// Tails the leader's log; rejects writes with `503 not_leader`.
    Follower = 0,
    /// Mid-promotion (failure threshold reached, takeover in progress).
    Candidate = 1,
    /// Accepts writes and serves the op log.
    Leader = 2,
}

impl Role {
    /// Short stable label (`"leader"` / `"follower"` / `"candidate"`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        }
    }

    /// Numeric gauge encoding: follower 0, candidate 1, leader 2.
    pub(crate) fn gauge_value(&self) -> u64 {
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
    pub(crate) fn new(role: Role) -> Self {
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
    fn set_role(&self, role: Role) {
        self.role.store(role.gauge_value() as u8, Ordering::SeqCst);
    }

    /// Whether this node currently accepts writes.
    pub fn is_leader(&self) -> bool {
        matches!(self.role(), Role::Leader)
    }

    /// Whether this node is serving in degraded stale-read mode (promoted
    /// while known to be behind the dead leader).
    pub(crate) fn stale(&self) -> bool {
        self.stale.load(Ordering::SeqCst)
    }

    /// Records a warm failover: leadership taken over at `applied_seq`,
    /// `stale` when the dead leader was known to be ahead.
    fn mark_promoted(&self, applied_seq: u64, stale: bool) {
        self.promoted_at_seq.store(applied_seq, Ordering::SeqCst);
        self.stale.store(stale, Ordering::SeqCst);
        self.promoted.store(true, Ordering::SeqCst);
        self.set_role(Role::Leader);
    }

    /// The sequence this node held when it promoted itself, if it ever
    /// did.
    pub(crate) fn promoted_at(&self) -> Option<u64> {
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

/// The real-TCP transport: polls the leader's `/v1/repl/*` endpoints
/// over one kept-alive connection.
pub struct HttpTransport {
    client: Mutex<KeepAliveClient>,
}

impl HttpTransport {
    /// A transport polling the leader at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            client: Mutex::new(KeepAliveClient::new(addr)),
        }
    }

    fn get_json(&self, path: &str) -> Result<String, ReplError> {
        let mut client = self.client.lock().expect("replication client poisoned");
        match client.call("GET", path, b"") {
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
                self.service.metrics.replication_lag.set(
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
                // A refused snapshot changes nothing.
                let restored = self.transport.fetch_snapshot().and_then(|snapshot| {
                    let changed = self.service.kv().restore(&snapshot);
                    self.service
                        .ingest(changed.map_err(ReplError::Protocol)?, true);
                    Ok(snapshot.applied_seq)
                });
                match restored {
                    Ok(applied_seq) => {
                        self.failures = 0;
                        self.service.reaffirm_follower();
                        // Not `max`: a snapshot behind the watermark means
                        // the leader restarted its sequence space, and the
                        // old space's watermark would misreport lag and
                        // staleness forever.
                        self.last_leader_seq = applied_seq;
                        self.service.metrics.replication_lag.set(0);
                        self.service.metrics.snapshot_catchup.inc();
                        PollOutcome::SnapshotRestored { applied_seq }
                    }
                    Err(e) => self.note_failure(e),
                }
            }
            Err(e) => self.note_failure(e),
        }
    }

    fn note_failure(&mut self, _error: ReplError) -> PollOutcome {
        self.failures = self.failures.saturating_add(1);
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

/// The service's side of replication: what a leader appends to its log,
/// the one way anything else reaches the store, the role transitions the
/// [`Replicator`] drives, and the three `/v1/repl/*` endpoints.
impl Service {
    /// Replicates a promoted bundle to followers under [`MODEL_KEY`].
    pub(crate) fn log_model(&self, bundle: &CostModelBundle) {
        let value = envelope_to_json("cost-bundle", "nshard", bundle);
        let _ = self
            .plans
            .write(MODEL_KEY, MatchSeq::Any, |_| (value, None));
    }

    /// Applies replicated ops through the sequence-gated KV — the
    /// follower's tailing path. Returns how many ops actually applied.
    pub fn apply_replicated(&self, ops: Vec<LogOp>) -> usize {
        let mut applied = 0usize;
        for op in ops {
            let done = self.kv().apply(op);
            applied += done.len();
            self.ingest(done.into_iter().map(|op| op.key), true);
        }
        applied
    }

    /// Boot: restores the snapshot this node's `files` hold, reading them
    /// without writing them back. A store that quarantined a file cannot
    /// vouch for its position, so a leader moves one past it (every
    /// follower that tailed it is sent to a snapshot) and a follower
    /// starts over from its leader.
    pub(crate) fn boot(&self, mut files: KvSnapshot) {
        if self.plans.quarantined() > 0 {
            files.applied_seq = files.applied_seq.saturating_add(1).min(u64::MAX - 1);
            if !self.role.is_leader() {
                files = KvSnapshot::default();
            }
        }
        // Never refused: `PlanStore::open` set aside every file the
        // snapshot check faults.
        if let Ok(changed) = self.kv().restore(&files) {
            self.ingest(changed, false);
        }
    }

    /// Where boot, tailing and catch-up meet: each key whose entry changed
    /// is persisted (unless it was read from the files, at boot) — a failed
    /// file write leaves the in-memory record serving — and a changed
    /// `models/active` is installed into the engine: once per write,
    /// however often it is re-sent.
    fn ingest(&self, changed: impl IntoIterator<Item = String>, persist: bool) {
        for key in changed {
            let _ = persist.then(|| self.plans.persist(&key));
            if key != MODEL_KEY {
                continue;
            }
            // A promoted cost-model bundle: swap it into this node's
            // engine so a failover promotes a node already serving it.
            let entry = self.kv().entry(MODEL_KEY);
            if let Some(Ok(envelope)) =
                entry.map(|e| envelope_from_json::<CostModelBundle>(&e.value))
            {
                let version = self.engine.swap_bundle(envelope.payload);
                self.metrics.model_version.set(version);
            }
        }
    }

    /// Promotes this node to leader after failover detection — the store
    /// it caught up keeps serving, now accepting writes. `stale` marks
    /// degraded-mode reads (the dead leader was known to be ahead).
    fn promote(&self, at_seq: u64, stale: bool) {
        self.role.mark_promoted(at_seq, stale);
        self.metrics.replica_role.set(Role::Leader.gauge_value());
    }

    /// Moves a follower to candidate while failures accumulate (visible
    /// in the role gauge and `/v1/repl/status`).
    fn set_candidate_if_follower(&self) {
        if matches!(self.role.role(), Role::Follower) {
            self.role.set_role(Role::Candidate);
            self.metrics.replica_role.set(Role::Candidate.gauge_value());
        }
    }

    /// Drops a candidate back to follower once the leader answers again
    /// (a blip, not a death).
    fn reaffirm_follower(&self) {
        if matches!(self.role.role(), Role::Candidate) {
            self.role.set_role(Role::Follower);
            self.metrics.replica_role.set(Role::Follower.gauge_value());
        }
    }

    pub(crate) fn repl_status(&self) -> HttpResponse {
        self.metrics.count_request("repl_status", 200);
        let (log_earliest, log_len) = self.kv().log_window();
        let body = ReplStatus {
            node: self.config.replica.node.clone(),
            role: self.role.role().label().to_string(),
            applied_seq: self.kv().applied_seq(),
            stale: self.role.stale(),
            log_earliest,
            log_len: log_len as u64,
            plans: self.plans.len() as u64,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    pub(crate) fn repl_snapshot(&self) -> HttpResponse {
        self.metrics.count_request("repl_snapshot", 200);
        let snapshot = self.kv().snapshot();
        HttpResponse::json(200, serde_json::to_string(&snapshot).unwrap_or_default())
    }

    pub(crate) fn repl_log(&self, from: &str) -> HttpResponse {
        let Ok(from_seq) = from.parse::<u64>() else {
            self.metrics.count_request("repl_log", 400);
            return error_response(
                400,
                "bad_request",
                format!("log position {from:?} is not a sequence number"),
            );
        };
        self.metrics.count_request("repl_log", 200);
        let fetch = self.kv().log_since(from_seq);
        HttpResponse::json(200, serde_json::to_string(&fetch).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ReplicaConfig, ServeConfig, Server};
    use crate::store::StoredPlan;
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::{ShardingTask, TableConfig, TableId, TablePool};

    fn service(follower: bool) -> Arc<Service> {
        let pool = TablePool::synthetic_dlrm(40, 3);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        let config = ServeConfig {
            workers: 1,
            replica: ReplicaConfig {
                follower,
                ..ReplicaConfig::default()
            },
            ..ServeConfig::smoke()
        };
        Arc::new(Service::new(bundle, config).unwrap())
    }

    #[test]
    fn http_transport_tails_over_one_kept_alive_connection() {
        const POLLS: u64 = 6;
        let leader = Server::start(service(false), "127.0.0.1:0").unwrap();
        let transport = HttpTransport::new(leader.addr().to_string());
        let mut replicator = Replicator::new(service(true), Box::new(transport));
        for _ in 0..POLLS {
            assert_eq!(replicator.poll_once(), PollOutcome::UpToDate);
        }
        let metrics = leader.service().render_metrics();
        let reused: u64 = metrics
            .lines()
            .find_map(|line| line.strip_prefix("nshard_net_keepalive_reuse_total "))
            .expect("the reactor exports its reuse counter")
            .parse()
            .unwrap();
        assert!(reused >= POLLS - 1, "{POLLS} polls reused {reused} times");
        leader.shutdown();
    }

    #[test]
    fn a_replicated_plan_with_a_zero_dim_table_is_not_materialized() {
        let tables = vec![TableConfig::new(TableId(0), 32, 4096, 8.0, 1.0)];
        let task = ShardingTask::new(tables.clone(), 1, 1 << 30, 1024);
        let record = StoredPlan {
            id: "bad".into(),
            version: 2,
            plan: nshard_core::ShardingPlan::new(vec![], tables, vec![0], 1).unwrap(),
            task,
            provenance: nshard_core::PlanProvenance {
                source: nshard_core::PlanSource::SizeBalanced,
                events: Vec::new(),
                replan: None,
                failover: None,
            },
            predicted_ms: 1.0,
            degraded: false,
        };
        let value = serde_json::to_string(&record).unwrap();
        let (head, plan) = value.split_once("\"plan\":").unwrap();
        assert!(plan.contains("\"dim\":32"), "{plan}");
        let op = |seq, key: &str, value: String| LogOp {
            seq,
            key: key.into(),
            value,
        };
        let follower = service(true);
        // The task's table stays legal; only the plan's copy is hostile.
        let hostile = format!("{head}\"plan\":{}", plan.replace("\"dim\":32", "\"dim\":0"));
        assert_eq!(
            follower.apply_replicated(vec![op(1, "plans/bad", hostile)]),
            1
        );
        assert_eq!(follower.plans().len(), 0);
        assert_eq!(
            follower.apply_replicated(vec![op(2, "plans/bad", value)]),
            1
        );
        assert_eq!(follower.plans().len(), 1);
    }

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
