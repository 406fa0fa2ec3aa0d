//! Replicated-control-plane integration tests: byte-identical replica
//! convergence under arbitrary delivery order/duplication (proptest),
//! follower tailing through seeded partitions with recorded backoff,
//! snapshot catch-up past log compaction, and the leader-kill-mid-stream
//! chaos scenario ending in a warm follower promotion. Zero sleeps —
//! manual clocks and synchronous queue draining throughout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::serve::http::HttpRequest;
use neuroshard::serve::repl::{PollOutcome, ReplError, ReplTransport, Replicator, Role};
use neuroshard::serve::server::Routed;
use neuroshard::serve::{
    KvSnapshot, LogFetch, LogOp, ManualClock, PlanStore, ReplicaConfig, ServeConfig, Service,
};

fn quick_bundle(seed: u64) -> CostModelBundle {
    let pool = TablePool::synthetic_dlrm(40, 3);
    CostModelBundle::pretrain(
        &pool,
        2,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        seed,
    )
}

/// A planning task; distinct `salt` values (0..=3) yield distinct tasks,
/// hence distinct content-addressed plan ids.
fn task_json(salt: u32) -> String {
    let tables: Vec<TableConfig> = (0..8)
        .map(|i| TableConfig::new(TableId(i), 16 + 16 * ((i + salt) % 4), 1 << 14, 8.0, 1.05))
        .collect();
    let task = ShardingTask::new(tables, 2, 1 << 30, 1024);
    serde_json::to_string(&task).expect("tasks serialize")
}

fn leader_service(seed: u64) -> Arc<Service> {
    let mut config = ServeConfig::smoke();
    config.seed = seed;
    Arc::new(
        Service::with_clock(quick_bundle(seed), config, Arc::new(ManualClock::new()))
            .expect("leader boots"),
    )
}

fn follower_service(seed: u64, threshold: u32) -> Arc<Service> {
    let mut config = ServeConfig::smoke();
    config.seed = seed;
    config.replica = ReplicaConfig {
        node: "node-1".into(),
        follower: true,
        failure_threshold: threshold,
    };
    Arc::new(
        Service::with_clock(quick_bundle(seed), config, Arc::new(ManualClock::new()))
            .expect("follower boots"),
    )
}

/// Posts a planning request and synchronously drains it (zero sleeps).
fn post_drained(service: &Service, path: &str, body: String) -> (u16, String) {
    let routed = service.route(&HttpRequest {
        method: "POST".into(),
        path: path.into(),
        body: body.into_bytes(),
    });
    match routed {
        Routed::Inline(r) => (r.status, String::from_utf8_lossy(&r.body).to_string()),
        Routed::Queued(slot) => {
            assert!(service.drain_one(), "a job was queued");
            let r = slot.wait();
            (r.status, String::from_utf8_lossy(&r.body).to_string())
        }
    }
}

fn get_inline(service: &Service, path: &str) -> (u16, String, Vec<(String, String)>) {
    let Routed::Inline(r) = service.route(&HttpRequest {
        method: "GET".into(),
        path: path.into(),
        body: Vec::new(),
    }) else {
        panic!("GET {path} answers inline")
    };
    (
        r.status,
        String::from_utf8_lossy(&r.body).to_string(),
        r.headers.clone(),
    )
}

/// Control-plane faults between replication nodes: a severed link (both
/// directions) and a crashed node that answers nothing.
#[derive(Default)]
struct ControlFaults {
    partition: Option<(usize, usize)>,
    crashed: Option<usize>,
}

impl ControlFaults {
    fn is_partitioned(&self, a: usize, b: usize) -> bool {
        self.partition == Some((a, b)) || self.partition == Some((b, a))
    }

    fn is_crashed(&self, node: usize) -> bool {
        self.crashed == Some(node)
    }
}

/// An in-process transport wired through [`ControlFaults`]: partitions
/// and crashes gate delivery, and `drop_head` models a stream losing its
/// oldest undelivered op mid-flight (the "leader dies mid-stream" shape —
/// later ops were observed, earlier ones never arrive).
struct ChaosTransport {
    leader: Arc<Service>,
    faults: Arc<Mutex<ControlFaults>>,
    leader_node: usize,
    follower_node: usize,
    drop_head: Arc<AtomicBool>,
}

impl ChaosTransport {
    fn reachable(&self) -> Result<(), ReplError> {
        let faults = self.faults.lock().expect("faults poisoned");
        if faults.is_crashed(self.leader_node) {
            return Err(ReplError::Unreachable("leader crashed".into()));
        }
        if faults.is_partitioned(self.leader_node, self.follower_node) {
            return Err(ReplError::Unreachable("link partitioned".into()));
        }
        Ok(())
    }
}

impl ReplTransport for ChaosTransport {
    fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
        self.reachable()?;
        let mut fetch = self.leader.plans().log_since(from_seq);
        if self.drop_head.load(Ordering::SeqCst) {
            if let LogFetch::Ops(ops) = &mut fetch {
                if !ops.is_empty() {
                    ops.remove(0);
                }
            }
        }
        Ok(fetch)
    }

    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
        self.reachable()?;
        Ok(self.leader.plans().snapshot())
    }
}

proptest! {
    /// Any interleaving + duplication + reordering of the same sequenced
    /// ops leaves two replicas **byte-identical** to the leader — the
    /// determinism headline of the control plane.
    #[test]
    fn replicas_converge_byte_identically_under_any_delivery(
        writes in proptest::collection::vec((0u8..6, 0u16..1000), 1..40),
        order_a in proptest::collection::vec(0usize..4096, 0..120),
        order_b in proptest::collection::vec(0usize..4096, 0..120),
    ) {
        let leader = store_of(writes.iter().map(|(k, v)| (format!("plans/k{k}"), format!("v{v}"))));
        let LogFetch::Ops(ops) = leader.log_since(0) else { panic!("log retained") };

        // Each replica sees the ops in its own order with duplicates,
        // then one final in-order pass (the stream eventually delivers).
        for order in [&order_a, &order_b] {
            let (replica, _) = PlanStore::open(None).unwrap();
            for idx in order {
                replica.apply(ops[idx % ops.len()].clone());
            }
            for op in &ops {
                replica.apply(op.clone());
            }
            prop_assert_eq!(replica.dump(), leader.dump());
            prop_assert_eq!(replica.digest(), leader.digest());
        }
    }
}

/// An in-memory store that applied `writes` as ops `1..`.
fn store_of(writes: impl IntoIterator<Item = (String, String)>) -> PlanStore {
    let (store, _) = PlanStore::open(None).unwrap();
    for (seq, (key, value)) in (1..).zip(writes) {
        assert!(store.apply(LogOp { seq, key, value }).is_some());
    }
    store
}

/// A follower tails the leader through a partition: recorded (never
/// slept) seeded backoff during the outage, converged byte-identical
/// stores after the heal.
#[test]
fn follower_tails_through_partition_and_heals() {
    let leader = leader_service(7);
    let follower = follower_service(7, 10);
    let faults = Arc::new(Mutex::new(ControlFaults::default()));
    let mut repl = Replicator::new(
        Arc::clone(&follower),
        Box::new(ChaosTransport {
            leader: Arc::clone(&leader),
            faults: Arc::clone(&faults),
            leader_node: 0,
            follower_node: 1,
            drop_head: Arc::new(AtomicBool::new(false)),
        }),
    );

    let (status, body) = post_drained(
        &leader,
        "/v1/plan",
        format!("{{\"task\":{}}}", task_json(0)),
    );
    assert_eq!(status, 200, "leader plans: {body}");
    assert_eq!(leader.plans().len(), 1);

    // First poll replicates the adoption.
    assert_eq!(repl.poll_once(), PollOutcome::Applied(1));
    assert_eq!(follower.plans().len(), 1);
    assert_eq!(follower.plans().dump(), leader.plans().dump());
    assert_eq!(repl.poll_once(), PollOutcome::UpToDate);

    // Partition the link: polls fail with recorded, bounded backoff.
    *faults.lock().unwrap() = ControlFaults {
        partition: Some((0, 1)),
        crashed: None,
    };
    for want in 1..=3u32 {
        match repl.poll_once() {
            PollOutcome::TransportError {
                consecutive,
                backoff_ms,
            } => {
                assert_eq!(consecutive, want);
                assert!(
                    (50..=2_000).contains(&backoff_ms),
                    "backoff {backoff_ms} outside the replicator's [50, 2000] ms"
                );
            }
            other => panic!("expected transport error, got {other:?}"),
        }
    }
    assert_eq!(
        follower.role().role(),
        Role::Candidate,
        "failures below threshold leave the node a candidate, not a leader"
    );

    // Meanwhile the leader keeps adopting.
    let (status, _) = post_drained(
        &leader,
        "/v1/plan",
        format!("{{\"task\":{}}}", task_json(1)),
    );
    assert_eq!(status, 200);
    assert_eq!(leader.plans().len(), 2);

    // Heal: the follower catches up and drops back to follower.
    *faults.lock().unwrap() = ControlFaults::default();
    assert_eq!(repl.poll_once(), PollOutcome::Applied(1));
    assert_eq!(follower.role().role(), Role::Follower);
    assert_eq!(follower.plans().dump(), leader.plans().dump());
    assert_eq!(follower.plans().digest(), leader.plans().digest());
    assert_eq!(follower.plans().len(), leader.plans().len());

    // Both replicas answer the same stored-plan bytes.
    for id in leader.plans().ids() {
        let l = leader.plans().get(&id).expect("leader holds its plan");
        let f = follower.plans().get(&id).expect("follower replicated it");
        assert_eq!(
            serde_json::to_string(&l).unwrap(),
            serde_json::to_string(&f).unwrap(),
            "replicated records are byte-identical"
        );
    }
}

/// A replica whose position predates the leader's retained (compacted)
/// log catches up by full snapshot, visible in the catch-up counter, and
/// keeps tailing normally afterwards.
#[test]
fn lagging_replica_catches_up_by_snapshot() {
    // Six ops past the 1,024-op window: a brand-new follower is beyond it.
    let leader = store_of((0..1_030).map(|i| (format!("plans/warm{}", i % 6), "{}".to_string())));
    assert_eq!(
        leader.log_since(0),
        LogFetch::NeedSnapshot { earliest: 7 },
        "seqs 1..=6 were compacted away"
    );

    struct SnapshotOnly(PlanStore);
    impl ReplTransport for SnapshotOnly {
        fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
            Ok(self.0.log_since(from_seq))
        }
        fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
            Ok(self.0.snapshot())
        }
    }

    let follower = follower_service(9, 10);
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(SnapshotOnly(leader)));
    match repl.poll_once() {
        PollOutcome::SnapshotRestored { applied_seq } => assert_eq!(applied_seq, 1_030),
        other => panic!("expected snapshot catch-up, got {other:?}"),
    }
    assert_eq!(follower.plans().applied_seq(), 1_030);
    assert_eq!(repl.poll_once(), PollOutcome::UpToDate);
    let metrics = follower.render_metrics();
    assert!(
        metrics.contains("nshard_serve_snapshot_catchup_total 1"),
        "got:\n{metrics}"
    );
}

/// A follower *ahead* of its leader — the leader restarted without its
/// store, so its sequence space began again at 1 — is sent to the
/// snapshot instead of being told it is up to date, and then tails the
/// new space without mistaking its ops for duplicates of the dead one's.
#[test]
fn follower_ahead_of_a_restarted_leader_resyncs_by_snapshot() {
    struct Restartable(Arc<Mutex<Arc<Service>>>);
    impl ReplTransport for Restartable {
        fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
            Ok(self.0.lock().unwrap().plans().log_since(from_seq))
        }
        fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
            Ok(self.0.lock().unwrap().plans().snapshot())
        }
    }
    let adopt = |leader: &Service, salt: u32| {
        let body = format!("{{\"task\":{}}}", task_json(salt));
        assert_eq!(post_drained(leader, "/v1/plan", body).0, 200);
    };

    let leader = Arc::new(Mutex::new(leader_service(19)));
    let follower = follower_service(19, 10);
    let mut repl = Replicator::new(
        Arc::clone(&follower),
        Box::new(Restartable(Arc::clone(&leader))),
    );
    for salt in 0..3 {
        adopt(&leader.lock().unwrap(), salt);
    }
    assert_eq!(repl.poll_once(), PollOutcome::Applied(3));

    // The leader restarts memory-only and adopts one plan: seq 1 < 3.
    *leader.lock().unwrap() = leader_service(19);
    adopt(&leader.lock().unwrap(), 3);
    assert_eq!(
        repl.poll_once(),
        PollOutcome::SnapshotRestored { applied_seq: 1 },
        "position 3 does not exist in the new leader's log"
    );
    assert_eq!(
        follower.plans().dump(),
        leader.lock().unwrap().plans().dump()
    );
    assert_eq!(
        repl.last_leader_seq(),
        1,
        "the dead space's watermark must not outlive it"
    );
    assert!(
        follower
            .render_metrics()
            .contains("nshard_serve_replication_lag 0"),
        "a restored replica is not lagging"
    );

    // New ops crossing the old position (seqs 2 and 3) are applied, not
    // dropped as duplicates.
    adopt(&leader.lock().unwrap(), 0);
    adopt(&leader.lock().unwrap(), 1);
    assert_eq!(repl.poll_once(), PollOutcome::Applied(2));
    assert_eq!(
        follower.plans().dump(),
        leader.lock().unwrap().plans().dump()
    );
    assert_eq!(repl.poll_once(), PollOutcome::UpToDate);
}

/// The acceptance-criterion chaos scenario: the leader dies mid-stream
/// (an op it sequenced is never delivered), the follower exhausts its
/// failure threshold, promotes itself **warm**, keeps serving the
/// incumbent plans it replicated, flags stale reads, and answers
/// `/v1/replan` as the new leader with failover-attributed provenance.
/// Run twice to prove the whole scenario is bit-deterministic.
#[test]
fn leader_kill_mid_stream_promotes_a_warm_follower() {
    let transcript = run_leader_kill_scenario();
    let again = run_leader_kill_scenario();
    assert_eq!(
        transcript, again,
        "the chaos scenario is bit-deterministic end to end"
    );
}

fn run_leader_kill_scenario() -> Vec<String> {
    let mut transcript = Vec::new();
    let leader = leader_service(11);
    let follower = follower_service(11, 3);
    let faults = Arc::new(Mutex::new(ControlFaults::default()));
    let drop_head = Arc::new(AtomicBool::new(false));
    let mut repl = Replicator::new(
        Arc::clone(&follower),
        Box::new(ChaosTransport {
            leader: Arc::clone(&leader),
            faults: Arc::clone(&faults),
            leader_node: 0,
            follower_node: 1,
            drop_head: Arc::clone(&drop_head),
        }),
    );

    // The leader adopts a plan; the follower replicates it.
    let (status, body) = post_drained(
        &leader,
        "/v1/plan",
        format!("{{\"task\":{}}}", task_json(0)),
    );
    assert_eq!(status, 200, "leader plans: {body}");
    let incumbent_id = leader.plans().ids()[0].clone();
    transcript.push(format!("replicated:{:?}", repl.poll_once()));

    // Mid-stream: the leader adopts two more plans, but the stream loses
    // the older one (seq 2) permanently — the follower *observes* seq 3
    // exists yet can never apply it (only the next op applies).
    for salt in [1, 2] {
        let (status, _) = post_drained(
            &leader,
            "/v1/plan",
            format!("{{\"task\":{}}}", task_json(salt)),
        );
        assert_eq!(status, 200);
    }
    assert_eq!(leader.plans().applied_seq(), 3);
    drop_head.store(true, Ordering::SeqCst);
    transcript.push(format!("gapped:{:?}", repl.poll_once()));
    assert_eq!(
        follower.plans().applied_seq(),
        1,
        "the gapped op cannot apply without its predecessor"
    );
    assert_eq!(
        repl.last_leader_seq(),
        3,
        "the staleness watermark saw seq 3"
    );

    // The leader dies. Three consecutive failures reach the threshold.
    *faults.lock().unwrap() = ControlFaults {
        partition: None,
        crashed: Some(0),
    };
    let mut promoted = None;
    for _ in 0..3 {
        let outcome = repl.poll_once();
        transcript.push(format!("outage:{outcome:?}"));
        if let PollOutcome::Promoted { at_seq, stale } = outcome {
            promoted = Some((at_seq, stale));
        }
    }
    let (at_seq, stale) = promoted.expect("threshold 3 promotes on the third failure");
    assert_eq!(at_seq, 1, "promoted with the one op it had applied");
    assert!(stale, "the dead leader was known to be ahead");
    assert!(follower.role().is_leader());
    assert_eq!(repl.poll_once(), PollOutcome::AlreadyLeader);

    // Warm reads: the incumbent plan it replicated still serves, marked
    // as a degraded-mode (stale) read.
    let (status, body, headers) = get_inline(&follower, &format!("/v1/plans/{incumbent_id}"));
    assert_eq!(status, 200, "incumbent plan survives the failover: {body}");
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "X-Nshard-Stale" && v == "true"),
        "degraded-mode reads are flagged: {headers:?}"
    );
    transcript.push(format!("warm_read:{status}"));

    // Warm writes: the survivor answers /v1/replan as the new leader,
    // attributing the failover in provenance.
    let (status, body) = post_drained(
        &follower,
        "/v1/replan",
        format!(
            "{{\"task\":{},\"incumbent_id\":\"{incumbent_id}\"}}",
            task_json(3)
        ),
    );
    assert_eq!(status, 200, "the survivor replans: {body}");
    assert!(
        body.contains("\"failover\":{\"node\":\"node-1\",\"at_seq\":1,\"stale\":true}"),
        "provenance records who took over and how caught-up it was: {body}"
    );
    transcript.push(format!("warm_replan:{status}"));

    // Observability: role gauge at leader, the observed lag recorded, and
    // the status endpoint reporting stale leadership.
    let metrics = follower.render_metrics();
    assert!(metrics.contains("nshard_serve_replica_role 2"), "{metrics}");
    assert!(
        metrics.contains("nshard_serve_replication_lag 2"),
        "{metrics}"
    );
    let (status, status_body, _) = get_inline(&follower, "/v1/repl/status");
    assert_eq!(status, 200);
    assert!(status_body.contains("\"role\":\"leader\""), "{status_body}");
    assert!(status_body.contains("\"stale\":true"), "{status_body}");
    transcript.push(format!("status:{status_body}"));
    transcript
}

/// Followers refuse planning writes with a typed `not_leader` rejection
/// instead of forking the store.
#[test]
fn followers_reject_writes_with_not_leader() {
    let follower = follower_service(13, 3);
    let (status, body) = post_drained(
        &follower,
        "/v1/plan",
        format!("{{\"task\":{}}}", task_json(0)),
    );
    assert_eq!(status, 503);
    assert!(body.contains("not_leader"), "{body}");
    let metrics = follower.render_metrics();
    assert!(
        metrics.contains("nshard_serve_rejected_total{reason=\"not_leader\"} 1"),
        "got:\n{metrics}"
    );
}

/// The replication metrics contract: every new series is present with its
/// HELP/TYPE header from boot, role gauges disagree across roles, and the
/// health body carries the role label.
#[test]
fn replication_metrics_contract() {
    let leader = leader_service(17);
    let follower = follower_service(17, 3);
    for (service, role_value) in [(&leader, "2"), (&follower, "0")] {
        let text = service.render_metrics();
        for series in [
            "nshard_serve_replica_role",
            "nshard_serve_replication_lag",
            "nshard_serve_snapshot_catchup_total",
            "nshard_serve_seq_conflict_total",
        ] {
            assert!(
                text.contains(&format!("# HELP {series}")),
                "missing {series}"
            );
            assert!(
                text.contains(&format!("# TYPE {series}")),
                "missing {series}"
            );
        }
        assert!(
            text.contains(&format!("nshard_serve_replica_role {role_value}")),
            "role gauge wrong:\n{text}"
        );
    }
    let (status, health, _) = get_inline(&leader, "/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"role\":\"leader\""), "{health}");
    let (_, health, _) = get_inline(&follower, "/health");
    assert!(health.contains("\"role\":\"follower\""), "{health}");
}

/// A log position read off the network cannot poison the store: the
/// largest `u64` is one past any sequence this leader wrote, so it is
/// redirected to the snapshot, and the leader still answers and adopts.
#[test]
fn the_largest_log_position_is_redirected_not_a_panic() {
    let leader = leader_service(23);
    let get = |path: String| {
        let response = leader.handle_blocking(&HttpRequest {
            method: "GET".into(),
            path,
            body: Vec::new(),
        });
        (
            response.status,
            String::from_utf8_lossy(&response.body).to_string(),
        )
    };
    let (status, body) = get(format!("/v1/repl/log/{}", u64::MAX));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        serde_json::from_str::<LogFetch>(&body).unwrap(),
        LogFetch::NeedSnapshot { earliest: 1 }
    );
    assert_eq!(get("/v1/repl/status".into()).0, 200);
    let (status, body) = post_drained(
        &leader,
        "/v1/plan",
        format!("{{\"task\":{}}}", task_json(0)),
    );
    assert_eq!(status, 200, "the store still adopts: {body}");
    assert_eq!(leader.plans().applied_seq(), 1);
}

/// A transport that always redirects to the leader's snapshot.
struct SnapshotsOnly(Arc<Mutex<Arc<Service>>>);

impl ReplTransport for SnapshotsOnly {
    fn fetch_log(&self, _from_seq: u64) -> Result<LogFetch, ReplError> {
        Ok(LogFetch::NeedSnapshot { earliest: 1 })
    }
    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
        Ok(self.0.lock().unwrap().plans().snapshot())
    }
}

/// Snapshot catch-up installs a replicated bundle once per write: the
/// same snapshot restored twice leaves the follower at the leader's model
/// version, and a newer `models/active` write bumps it exactly once.
#[test]
fn repeated_snapshot_restores_install_the_bundle_once() {
    let leader = leader_service(29);
    let promoted = quick_bundle(31);
    assert_eq!(leader.promote_model(&promoted), 2);
    let follower = follower_service(29, 10);
    let transport = SnapshotsOnly(Arc::new(Mutex::new(Arc::clone(&leader))));
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(transport));
    for _ in 0..2 {
        assert_eq!(
            repl.poll_once(),
            PollOutcome::SnapshotRestored { applied_seq: 1 }
        );
        assert_eq!(follower.model_version(), 2, "the leader's version");
    }
    // The same bundle promoted again is a new write.
    assert_eq!(leader.promote_model(&promoted), 3);
    assert_eq!(
        repl.poll_once(),
        PollOutcome::SnapshotRestored { applied_seq: 2 }
    );
    assert_eq!(follower.model_version(), 3);
    assert!(follower
        .render_metrics()
        .contains("nshard_serve_snapshot_catchup_total 3"));
}

/// A disk-backed leader restarted on its own files keeps its sequence
/// space: the same record (promotion included), the same model version
/// and predictions, and a follower that tailed it stays up to date.
#[test]
fn a_restarted_leader_keeps_its_sequence_space() {
    let dir = std::env::temp_dir().join(format!("nshard_repl_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let original = quick_bundle(41);
    let boot = || {
        let mut config = ServeConfig::smoke();
        config.seed = 41;
        config.store_dir = Some(dir.clone());
        let clock = Arc::new(ManualClock::new());
        Arc::new(Service::with_clock(original.clone(), config, clock).expect("leader boots"))
    };
    let plan = |salt| format!("{{\"task\":{}}}", task_json(salt));
    let leader = Arc::new(Mutex::new(boot()));
    let first = leader.lock().unwrap().clone();
    assert_eq!(post_drained(&first, "/v1/plan", plan(0)).0, 200);
    assert_eq!(first.promote_model(&quick_bundle(43)), 2);
    let (status, adopted) = post_drained(&first, "/v1/plan", plan(1));
    assert_eq!(status, 200, "{adopted}");
    let follower = follower_service(41, 10);
    let transport = Restartable(Arc::clone(&leader));
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(transport));
    assert_eq!(repl.poll_once(), PollOutcome::Applied(3));
    let (dump, files) = (first.plans().dump(), store_files(&dir));
    assert_eq!(files.len(), 3, "two plans and models/active");
    drop(first);

    *leader.lock().unwrap() = boot();
    let restarted = leader.lock().unwrap().clone();
    assert_eq!(restarted.plans().dump(), dump);
    assert_eq!(
        store_files(&dir),
        files,
        "boot reads its files, never writes"
    );
    assert_eq!(restarted.model_version(), 2, "models/active was restored");
    let (status, again) = post_drained(&restarted, "/v1/plan", plan(1));
    assert_eq!(status, 200);
    let predicted = |body: &str| {
        let value = serde_json::parse_value(body).unwrap();
        let field = value
            .as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "predicted_ms");
        match field.map(|(_, v)| v) {
            Some(serde_json::Value::Float(ms)) => ms.to_bits(),
            other => panic!("predicted_ms is {other:?}"),
        }
    };
    assert_eq!(predicted(&again), predicted(&adopted));
    assert_eq!(
        again, adopted,
        "the idempotent re-adoption answers the same bytes"
    );
    assert_eq!(repl.poll_once(), PollOutcome::UpToDate);
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon on a manual clock whose store lives in `dir`.
fn disk_service(bundle: &CostModelBundle, dir: &std::path::Path, follower: bool) -> Arc<Service> {
    let mut config = ServeConfig::smoke();
    config.store_dir = Some(dir.to_path_buf());
    config.replica.follower = follower;
    let clock = Arc::new(ManualClock::new());
    Arc::new(Service::with_clock(bundle.clone(), config, clock).expect("the daemon boots"))
}

/// A fresh store directory for one test.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nshard_repl_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Adopts the plan for `task_json(salt)`.
fn adopt(service: &Service, salt: u32) {
    let body = format!("{{\"task\":{}}}", task_json(salt));
    assert_eq!(post_drained(service, "/v1/plan", body).0, 200);
}

/// Damages the file of the plan `service` adopted first (seq 1).
fn tear_first_plan(service: &Service, dir: &std::path::Path) {
    let first = service.plans().ids()[0].clone();
    let path = dir.join("plans").join(format!("{first}.json"));
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
}

/// A leader restarted on files missing a write its follower tailed cannot
/// vouch for its position: it resumes one past its highest file, so the
/// follower is sent to a snapshot instead of being told it is up to date.
#[test]
fn a_leader_that_lost_a_file_sends_its_followers_to_a_snapshot() {
    let dir = store_dir("lost_leader");
    let bundle = quick_bundle(53);
    let leader = Arc::new(Mutex::new(disk_service(&bundle, &dir, false)));
    for salt in 0..3 {
        adopt(&leader.lock().unwrap(), salt);
    }
    let follower = follower_service(53, 10);
    let transport = Restartable(Arc::clone(&leader));
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(transport));
    assert_eq!(repl.poll_once(), PollOutcome::Applied(3));
    tear_first_plan(&leader.lock().unwrap(), &dir);

    *leader.lock().unwrap() = disk_service(&bundle, &dir, false);
    let restarted = leader.lock().unwrap().clone();
    let metrics = restarted.render_metrics();
    assert!(metrics.contains("nshard_serve_store_quarantined 1\n"));
    assert_eq!(
        restarted.plans().applied_seq(),
        4,
        "one past its highest file"
    );
    assert_eq!(
        repl.poll_once(),
        PollOutcome::SnapshotRestored { applied_seq: 4 }
    );
    assert_eq!(follower.plans().dump(), restarted.plans().dump());
    adopt(&restarted, 3);
    assert_eq!(repl.poll_once(), PollOutcome::Applied(1));
    assert_eq!(follower.plans().dump(), restarted.plans().dump());
    std::fs::remove_dir_all(&dir).ok();
}

/// A follower restarted on files it lost one of starts over from its
/// leader rather than tailing on from a position it no longer holds.
#[test]
fn a_follower_that_lost_a_file_starts_over_from_its_leader() {
    let dir = store_dir("lost_follower");
    let leader = leader_service(59);
    for salt in 0..3 {
        adopt(&leader, salt);
    }
    let bundle = quick_bundle(59);
    let follower = disk_service(&bundle, &dir, true);
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(Direct(Arc::clone(&leader))));
    assert_eq!(repl.poll_once(), PollOutcome::Applied(3));
    tear_first_plan(&follower, &dir);
    drop(repl);

    let follower = disk_service(&bundle, &dir, true);
    assert_eq!(follower.plans().dump(), "applied_seq=0\n");
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(Direct(Arc::clone(&leader))));
    assert_eq!(repl.poll_once(), PollOutcome::Applied(3));
    assert_eq!(follower.plans().dump(), leader.plans().dump());
    let plan_files = std::fs::read_dir(dir.join("plans")).unwrap();
    let json =
        plan_files.filter(|f| f.as_ref().unwrap().path().extension() == Some("json".as_ref()));
    assert_eq!(json.count(), 3, "every plan's file is written again");
    std::fs::remove_dir_all(&dir).ok();
}

/// A follower mirrors its leader: when the leader restarts without the
/// plans it had (an in-memory store), a disk-backed follower's snapshot
/// catch-up drops them from memory and from disk, and stops serving them.
#[test]
fn a_follower_drops_what_a_restarted_leader_lost() {
    let dir = store_dir("dropped");
    let leader = Arc::new(Mutex::new(leader_service(61)));
    for salt in 0..2 {
        adopt(&leader.lock().unwrap(), salt);
    }
    let old = leader.lock().unwrap().plans().ids();
    let follower = disk_service(&quick_bundle(61), &dir, true);
    let transport = Restartable(Arc::clone(&leader));
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(transport));
    assert_eq!(repl.poll_once(), PollOutcome::Applied(2));
    assert_eq!(
        get_inline(&follower, &format!("/v1/plans/{}", old[0])).0,
        200
    );

    *leader.lock().unwrap() = leader_service(61);
    adopt(&leader.lock().unwrap(), 2);
    assert_eq!(
        repl.poll_once(),
        PollOutcome::SnapshotRestored { applied_seq: 1 }
    );
    let new = leader.lock().unwrap().plans().ids();
    for id in &old {
        assert_eq!(get_inline(&follower, &format!("/v1/plans/{id}")).0, 404);
    }
    assert_eq!(
        get_inline(&follower, &format!("/v1/plans/{}", new[0])).0,
        200
    );
    let files: Vec<_> = store_files(&dir).into_iter().map(|f| f.0).collect();
    assert_eq!(files, [dir.join("plans").join(format!("{}.json", new[0]))]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Polls one fixed leader in process.
struct Direct(Arc<Service>);

impl ReplTransport for Direct {
    fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
        Ok(self.0.plans().log_since(from_seq))
    }
    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
        Ok(self.0.plans().snapshot())
    }
}

/// Every file of the store rooted at `dir`, sorted: `(path, bytes, last
/// modification)` — a rewrite with the same bytes still moves the time.
fn store_files(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>, std::time::SystemTime)> {
    let mut files: Vec<_> = ["plans", "models"]
        .iter()
        .flat_map(|sub| std::fs::read_dir(dir.join(sub)).into_iter().flatten())
        .map(|entry| entry.unwrap().path())
        .map(|path| {
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            (path.clone(), std::fs::read(path).unwrap(), modified)
        })
        .collect();
    files.sort();
    files
}

/// Polls a leader that can be swapped for a restarted one.
struct Restartable(Arc<Mutex<Arc<Service>>>);

impl ReplTransport for Restartable {
    fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
        Ok(self.0.lock().unwrap().plans().log_since(from_seq))
    }
    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
        Ok(self.0.lock().unwrap().plans().snapshot())
    }
}

/// What a hostile peer writes where a field's value belongs (the table
/// `tests/plan_properties.rs` uses, plus `u64::MAX`).
const HOSTILE_VALUES: [&str; 10] = [
    "0",
    "1",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "1e308",
    "null",
    "\"x\"",
    "[]",
    "{}",
];

/// One smoke bundle shared by the property cases (pre-training per case
/// would dominate them).
fn shared_bundle() -> CostModelBundle {
    static BUNDLE: OnceLock<CostModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| quick_bundle(47)).clone()
}

/// A follower that never promotes itself, on the shared bundle.
fn patient_follower() -> Arc<Service> {
    let mut config = ServeConfig::smoke();
    config.replica.follower = true;
    config.replica.failure_threshold = u32::MAX;
    let clock = Arc::new(ManualClock::new());
    Arc::new(Service::with_clock(shared_bundle(), config, clock).expect("follower boots"))
}

/// A leader's frames as JSON — its log from 0, a snapshot redirect and its
/// snapshot — after two adoptions and a promotion.
fn leader_frames() -> &'static [String; 3] {
    static FRAMES: OnceLock<[String; 3]> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let leader = leader_service(47);
        for salt in [0, 1] {
            let body = format!("{{\"task\":{}}}", task_json(salt));
            assert_eq!(post_drained(&leader, "/v1/plan", body).0, 200);
        }
        leader.promote_model(&shared_bundle());
        [
            serde_json::to_string(&leader.plans().log_since(0)).unwrap(),
            serde_json::to_string(&LogFetch::NeedSnapshot { earliest: 1 }).unwrap(),
            serde_json::to_string(&leader.plans().snapshot()).unwrap(),
        ]
    })
}

/// `json` with its `n`-th object field (depth first, modulo the field
/// count) overwritten by `value`.
fn overwrite_field(json: &str, n: usize, value: &str) -> String {
    fn count(v: &serde_json::Value) -> usize {
        match v {
            serde_json::Value::Map(m) => m.iter().map(|(_, x)| 1 + count(x)).sum(),
            serde_json::Value::Seq(s) => s.iter().map(count).sum(),
            _ => 0,
        }
    }
    fn replace(v: &mut serde_json::Value, k: &mut usize, with: &serde_json::Value) -> bool {
        match v {
            serde_json::Value::Map(m) => m.iter_mut().any(|(_, x)| {
                if *k == 0 {
                    *x = with.clone();
                    return true;
                }
                *k -= 1;
                replace(x, k, with)
            }),
            serde_json::Value::Seq(s) => s.iter_mut().any(|x| replace(x, k, with)),
            _ => false,
        }
    }
    let mut tree = serde_json::parse_value(json).unwrap();
    let mut k = n % count(&tree);
    assert!(replace(
        &mut tree,
        &mut k,
        &serde_json::parse_value(value).unwrap()
    ));
    serde_json::to_string(&tree).unwrap()
}

/// Serves fixed JSON bodies and decodes them the way [`HttpTransport`]
/// does.
///
/// [`HttpTransport`]: neuroshard::serve::HttpTransport
struct Frames {
    log: String,
    snapshot: String,
}

impl ReplTransport for Frames {
    fn fetch_log(&self, _from_seq: u64) -> Result<LogFetch, ReplError> {
        serde_json::from_str(&self.log).map_err(|e| ReplError::Protocol(e.to_string()))
    }
    fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
        serde_json::from_str(&self.snapshot).map_err(|e| ReplError::Protocol(e.to_string()))
    }
}

/// The leader's store files after two adoptions and a promotion:
/// `(path under the store, bytes, sequence number)`.
fn store_fixture() -> &'static Vec<(PathBuf, Vec<u8>, u64)> {
    static FILES: OnceLock<Vec<(PathBuf, Vec<u8>, u64)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("nshard_repl_files_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ServeConfig::smoke();
        config.store_dir = Some(dir.clone());
        let leader = Service::with_clock(shared_bundle(), config, Arc::new(ManualClock::new()))
            .expect("leader boots");
        let body = |salt| format!("{{\"task\":{}}}", task_json(salt));
        assert_eq!(post_drained(&leader, "/v1/plan", body(0)).0, 200);
        leader.promote_model(&shared_bundle());
        assert_eq!(post_drained(&leader, "/v1/plan", body(1)).0, 200);
        let mut files: Vec<_> = leader
            .plans()
            .ids()
            .into_iter()
            .map(|id| {
                let version = leader.plans().get(&id).unwrap().version;
                (PathBuf::from(format!("plans/{id}.json")), version)
            })
            .chain([(PathBuf::from("models/active.json"), 2)])
            .map(|(path, seq)| (path.clone(), std::fs::read(dir.join(&path)).unwrap(), seq))
            .collect();
        files.sort_by_key(|f| f.2);
        assert_eq!(files.iter().map(|f| f.2).collect::<Vec<_>>(), [1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
        files
    })
}

/// `file` (framed, with sequence `seq`) unframed and re-stamped to `to`.
fn restamp(file: &[u8], seq: u64, to: u64) -> Vec<u8> {
    let text = String::from_utf8(file.to_vec()).unwrap();
    let bare = text.split_once('\n').unwrap().1;
    let (head, payload) = bare.split_once("\"payload\":").unwrap();
    let field = if payload.starts_with("{\"key\"") {
        "seq"
    } else {
        "version"
    };
    let stamped = payload.replacen(
        &format!("\"{field}\":{seq},"),
        &format!("\"{field}\":{to},"),
        1,
    );
    assert_ne!(stamped, payload, "the payload carries its sequence");
    format!("{head}\"payload\":{stamped}").into_bytes()
}

proptest! {
    /// Any one field of a leader's log, redirect or snapshot frame
    /// overwritten with a hostile value is a typed decode error, or is
    /// applied or refused without a panic; a refused frame leaves the
    /// follower's store unchanged.
    #[test]
    fn hostile_replication_frames_are_refused_or_applied(
        frame in 0usize..3,
        edits in proptest::collection::vec((0usize..4096, 0usize..10), 1..6),
    ) {
        let [log, redirect, snapshot] = leader_frames();
        let follower = patient_follower();
        for (field, value) in edits {
            let (log, snapshot) = match frame {
                0 => (overwrite_field(log, field, HOSTILE_VALUES[value]), snapshot.clone()),
                1 => (overwrite_field(redirect, field, HOSTILE_VALUES[value]), snapshot.clone()),
                _ => (redirect.clone(), overwrite_field(snapshot, field, HOSTILE_VALUES[value])),
            };
            let before = follower.plans().dump();
            let frames = Frames { log: log.clone(), snapshot: snapshot.clone() };
            let outcome = Replicator::new(Arc::clone(&follower), Box::new(frames)).poll_once();
            if matches!(outcome, PollOutcome::TransportError { .. }) {
                prop_assert!(follower.plans().dump() == before, "refused yet changed: {} / {}", log, snapshot);
            }
        }
        let (status, _, _) = get_inline(&follower, "/v1/repl/status");
        prop_assert_eq!(status, 200);
    }

    /// A truncated, bit-flipped or re-stamped (colliding sequence) plan or
    /// model file is quarantined at boot — a collision takes both
    /// claimants — and the daemon still comes up and answers.
    #[test]
    fn damaged_store_files_are_quarantined_at_boot(
        victim in 0usize..3,
        damage in 0usize..3,
        at in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("nshard_repl_damage_{}_{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let files = store_fixture();
        for (path, bytes, _) in files {
            std::fs::create_dir_all(dir.join(path).parent().unwrap()).unwrap();
            std::fs::write(dir.join(path), bytes).unwrap();
        }
        let (path, bytes, seq) = &files[victim];
        let (damaged, lost) = match damage {
            0 => (bytes[..at % bytes.len()].to_vec(), 1),
            1 => {
                let mut flipped = bytes.clone();
                flipped[at % bytes.len()] ^= 1 << bit;
                (flipped, 1)
            }
            _ => {
                let others: Vec<u64> = files.iter().map(|f| f.2).filter(|s| s != seq).collect();
                (restamp(bytes, *seq, others[at % others.len()]), 2)
            }
        };
        std::fs::write(dir.join(path), damaged).unwrap();
        let mut config = ServeConfig::smoke();
        config.store_dir = Some(dir.clone());
        let booted = Service::with_clock(shared_bundle(), config, Arc::new(ManualClock::new()));
        prop_assert!(booted.is_ok(), "boot failed: {:?}", booted.err());
        let service = booted.unwrap();
        let metrics = service.render_metrics();
        let gauge = format!("nshard_serve_store_quarantined {lost}\n");
        prop_assert!(metrics.contains(&gauge), "{}", metrics);
        prop_assert!(!dir.join(path).exists());
        prop_assert_eq!(get_inline(&service, "/health").0, 200);
        std::fs::remove_dir_all(&dir).ok();
    }
}
