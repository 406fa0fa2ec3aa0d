//! Replicated-serve demo: a two-node plan control plane over real TCP —
//! a leader and a follower tailing its op log — followed by a live
//! leader kill and warm follower promotion.
//!
//! ```text
//! cargo run --release --example replicated_serve            # full narrated run
//! cargo run --release --example replicated_serve -- --smoke # same flow, CI greps the output
//! ```
//!
//! The flow mirrors the README's multi-node quickstart: boot both nodes,
//! plan on the leader, watch the follower catch up byte-identically,
//! shut the leader down, and watch the follower promote itself and keep
//! answering — reads warm from its replicated store, writes attributed
//! to the failover in provenance.

use std::sync::Arc;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::serve::{
    http_call, HttpTransport, PollOutcome, ReplicaConfig, Replicator, ServeConfig, Server, Service,
};

fn bundle(seed: u64) -> CostModelBundle {
    let pool = TablePool::synthetic_dlrm(60, 7);
    CostModelBundle::pretrain(
        &pool,
        2,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        seed,
    )
}

fn task_body(salt: u32) -> String {
    let tables: Vec<TableConfig> = (0..8)
        .map(|i| TableConfig::new(TableId(i), 16 + 16 * ((i + salt) % 4), 1 << 14, 8.0, 1.05))
        .collect();
    let task = ShardingTask::new(tables, 2, 1 << 30, 1024);
    serde_json::to_string(&task).expect("tasks serialize")
}

fn task_request(salt: u32) -> String {
    format!("{{\"task\":{}}}", task_body(salt))
}

fn main() {
    // --smoke only trims the narration; the flow is identical either way.
    let _smoke = std::env::args().any(|a| a == "--smoke");

    eprintln!("pre-training cost models (smoke settings, ~seconds)...");
    let seed = 7;

    // Node 0: the leader.
    let leader_service =
        Arc::new(Service::new(bundle(seed), ServeConfig::smoke()).expect("leader boots"));
    let leader_server = Server::start(Arc::clone(&leader_service), "127.0.0.1:0").expect("binds");
    let leader_addr = leader_server.addr().to_string();
    println!("leader  node-0 on {leader_addr} -> role leader");

    // Node 1: a follower tailing node-0 over real TCP.
    let mut follower_config = ServeConfig::smoke();
    follower_config.replica = ReplicaConfig {
        node: "node-1".into(),
        follower: true,
        failure_threshold: 3,
    };
    let follower_service =
        Arc::new(Service::new(bundle(seed), follower_config).expect("follower boots"));
    let follower_server =
        Server::start(Arc::clone(&follower_service), "127.0.0.1:0").expect("binds");
    let follower_addr = follower_server.addr().to_string();
    let mut repl = Replicator::new(
        Arc::clone(&follower_service),
        Box::new(HttpTransport::new(leader_addr.clone())),
    );
    println!("follower node-1 on {follower_addr} -> tailing {leader_addr}");

    // Followers refuse planning writes.
    let (status, body) = http_call(
        &follower_addr,
        "POST",
        "/v1/plan",
        task_request(0).as_bytes(),
    )
    .expect("post");
    assert_eq!(status, 503, "follower rejects writes: {body}");
    println!("POST follower /v1/plan -> {status} (not_leader)");

    // Plan twice on the leader.
    let mut plan_ids = Vec::new();
    for salt in [0, 1] {
        let (status, body) = http_call(
            &leader_addr,
            "POST",
            "/v1/plan",
            task_request(salt).as_bytes(),
        )
        .expect("plan");
        assert_eq!(status, 200, "plan: {body}");
        let id = body
            .split("\"id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("plan response carries an id")
            .to_string();
        println!("POST leader /v1/plan -> {status} (plan id {id})");
        plan_ids.push(id);
    }

    // The follower tails the log until it is caught up.
    loop {
        match repl.poll_once() {
            PollOutcome::Applied(n) => println!("replicated {n} op(s) to node-1"),
            PollOutcome::UpToDate => break,
            other => panic!("unexpected replication outcome: {other:?}"),
        }
    }
    assert_eq!(
        follower_service.plans().digest(),
        leader_service.plans().digest(),
        "replica stores must converge byte-identically"
    );
    println!("follower caught up (store digests match)");

    // Both nodes answer the same plan bytes.
    for id in &plan_ids {
        let (ls, lbody) =
            http_call(&leader_addr, "GET", &format!("/v1/plans/{id}"), b"").expect("leader get");
        let (fs, fbody) = http_call(&follower_addr, "GET", &format!("/v1/plans/{id}"), b"")
            .expect("follower get");
        assert_eq!((ls, fs), (200, 200));
        assert_eq!(lbody, fbody, "replicated plan bytes differ");
    }
    println!("GET /v1/plans/{{id}} identical on both nodes");

    // Kill the leader mid-tier.
    leader_server.shutdown();
    println!("leader node-0 killed");

    // The follower's polls now fail; at the threshold it promotes itself.
    loop {
        match repl.poll_once() {
            PollOutcome::TransportError {
                consecutive,
                backoff_ms,
            } => println!("poll failed ({consecutive} consecutive, next in {backoff_ms} ms)"),
            PollOutcome::Promoted { at_seq, stale } => {
                println!("follower promoted to leader at seq {at_seq} (stale: {stale})");
                break;
            }
            other => panic!("unexpected outcome during outage: {other:?}"),
        }
    }
    assert!(follower_service.role().is_leader());

    // Warm reads survive the failover...
    let (status, _) = http_call(
        &follower_addr,
        "GET",
        &format!("/v1/plans/{}", plan_ids[0]),
        b"",
    )
    .expect("warm read");
    assert_eq!(status, 200);
    println!("GET  survivor /v1/plans/{{id}} -> {status} (warm)");

    // ...and the survivor accepts writes, attributing the failover.
    let request = format!(
        "{{\"task\":{},\"incumbent_id\":\"{}\"}}",
        task_body(2),
        plan_ids[0]
    );
    let (status, body) =
        http_call(&follower_addr, "POST", "/v1/replan", request.as_bytes()).expect("replan");
    assert_eq!(status, 200, "survivor replan: {body}");
    assert!(
        body.contains("\"failover\":{\"node\":\"node-1\""),
        "failover attribution missing: {body}"
    );
    println!("POST survivor /v1/replan -> {status} (failover attributed to node-1)");

    follower_server.shutdown();
    println!("replication smoke OK");
}
