//! Replicated-control-plane integration tests: byte-identical replica
//! convergence under arbitrary delivery order/duplication (proptest),
//! follower tailing through seeded partitions with recorded backoff,
//! snapshot catch-up past log compaction, and the leader-kill-mid-stream
//! chaos scenario ending in a warm follower promotion. Zero sleeps —
//! manual clocks and synchronous queue draining throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::serve::http::HttpRequest;
use neuroshard::serve::kv::{LogFetch, MatchSeq, PlanKv};
use neuroshard::serve::repl::{PollOutcome, ReplError, ReplTransport, Replicator, Role};
use neuroshard::serve::server::Routed;
use neuroshard::serve::{KvSnapshot, ManualClock, ReplicaConfig, ServeConfig, Service};
use neuroshard::sim::{Fault, FaultPlan};

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

/// An in-process transport wired through a seeded [`FaultPlan`]:
/// partitions and crashes gate delivery, and `drop_head` models a stream
/// losing its oldest undelivered op mid-flight (the "leader dies
/// mid-stream" shape — later ops were observed, earlier ones never
/// arrive).
struct ChaosTransport {
    leader: Arc<Service>,
    faults: Arc<Mutex<FaultPlan>>,
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
        let mut fetch = self.leader.kv().log_since(from_seq);
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
        Ok(self.leader.kv().snapshot())
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
        let leader = PlanKv::new(256);
        for (k, v) in &writes {
            leader.upsert(&format!("plans/k{k}"), format!("v{v}"), MatchSeq::Any).unwrap();
        }
        let LogFetch::Ops(ops) = leader.log_since(0) else { panic!("log retained") };

        // Each replica sees the ops in its own order with duplicates,
        // then one final in-order pass (the stream eventually delivers).
        for order in [&order_a, &order_b] {
            let replica = PlanKv::new(256);
            for idx in order {
                replica.apply(ops[idx % ops.len()].clone());
            }
            for op in &ops {
                replica.apply(op.clone());
            }
            prop_assert_eq!(replica.dump(), leader.dump());
            prop_assert_eq!(replica.digest(), leader.digest());
            prop_assert_eq!(replica.pending_len(), 0);
        }
    }

    /// Conditional create-only upserts are idempotent: replaying any
    /// subset of them can never fork the store — duplicates conflict
    /// instead of double-writing.
    #[test]
    fn conditional_upserts_never_double_write(
        keys in proptest::collection::vec(0u8..5, 1..30),
    ) {
        let kv = PlanKv::new(64);
        let mut created = 0u64;
        for k in &keys {
            match kv.upsert(&format!("plans/{k}"), "once", MatchSeq::Exact(0)) {
                Ok(_) => created += 1,
                Err(e) => prop_assert!(e.to_string().contains("sequence conflict")),
            }
        }
        prop_assert_eq!(created as usize, kv.len());
        // Sequence numbers advanced only for the writes that landed.
        prop_assert_eq!(kv.applied_seq(), created);
    }
}

/// A follower tails the leader through a partition: recorded (never
/// slept) seeded backoff during the outage, converged byte-identical
/// stores after the heal.
#[test]
fn follower_tails_through_partition_and_heals() {
    let leader = leader_service(7);
    let follower = follower_service(7, 10);
    let faults = Arc::new(Mutex::new(FaultPlan::new(5)));
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
    assert_eq!(follower.kv().dump(), leader.kv().dump());
    assert_eq!(repl.poll_once(), PollOutcome::UpToDate);

    // Partition the link: polls fail with recorded, bounded backoff.
    *faults.lock().unwrap() = FaultPlan::new(5).with_fault(Fault::Partition { a: 0, b: 1 });
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
    *faults.lock().unwrap() = FaultPlan::new(5);
    assert_eq!(repl.poll_once(), PollOutcome::Applied(1));
    assert_eq!(follower.role().role(), Role::Follower);
    assert_eq!(follower.kv().dump(), leader.kv().dump());
    assert_eq!(follower.kv().digest(), leader.kv().digest());
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
    // Tiny retained window: a brand-new follower is already beyond it.
    let leader_kv = PlanKv::new(2);
    for i in 0..6 {
        leader_kv
            .upsert(&format!("plans/warm{i}"), "{}", MatchSeq::Any)
            .unwrap();
    }
    assert_eq!(
        leader_kv.log_since(0),
        LogFetch::NeedSnapshot { earliest: 5 },
        "seqs 1..=4 were compacted away"
    );

    struct SnapshotOnly(PlanKv);
    impl ReplTransport for SnapshotOnly {
        fn fetch_log(&self, from_seq: u64) -> Result<LogFetch, ReplError> {
            Ok(self.0.log_since(from_seq))
        }
        fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
            Ok(self.0.snapshot())
        }
    }

    let follower = follower_service(9, 10);
    let mut repl = Replicator::new(Arc::clone(&follower), Box::new(SnapshotOnly(leader_kv)));
    match repl.poll_once() {
        PollOutcome::SnapshotRestored { applied_seq } => assert_eq!(applied_seq, 6),
        other => panic!("expected snapshot catch-up, got {other:?}"),
    }
    assert_eq!(follower.kv().applied_seq(), 6);
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
            Ok(self.0.lock().unwrap().kv().log_since(from_seq))
        }
        fn fetch_snapshot(&self) -> Result<KvSnapshot, ReplError> {
            Ok(self.0.lock().unwrap().kv().snapshot())
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
    assert_eq!(follower.kv().dump(), leader.lock().unwrap().kv().dump());
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
    assert_eq!(follower.kv().dump(), leader.lock().unwrap().kv().dump());
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
    let faults = Arc::new(Mutex::new(FaultPlan::new(11)));
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
    // exists yet can never apply it (contiguity gate).
    for salt in [1, 2] {
        let (status, _) = post_drained(
            &leader,
            "/v1/plan",
            format!("{{\"task\":{}}}", task_json(salt)),
        );
        assert_eq!(status, 200);
    }
    assert_eq!(leader.kv().applied_seq(), 3);
    drop_head.store(true, Ordering::SeqCst);
    transcript.push(format!("gapped:{:?}", repl.poll_once()));
    assert_eq!(
        follower.kv().applied_seq(),
        1,
        "the gapped op cannot apply without its predecessor"
    );
    assert_eq!(
        follower.kv().pending_len(),
        1,
        "seq 3 is buffered, seq 2 lost"
    );
    assert_eq!(
        repl.last_leader_seq(),
        3,
        "the staleness watermark saw seq 3"
    );

    // The leader dies. Three consecutive failures reach the threshold.
    *faults.lock().unwrap() = FaultPlan::new(11).with_fault(Fault::NodeCrash { node: 0 });
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
