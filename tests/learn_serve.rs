//! The serving side of the cost models' life: the daemon serves the
//! bundle it booted with, so ground-truth observations posted to `POST
//! /v1/observations` are counted by readability and change nothing it
//! answers, and a search configuration has nothing to reject at boot: the
//! greedy-only ones boot and plan. (A store an older build left a promoted
//! model in is `tests/serve_loop.rs`'s
//! `a_store_with_an_old_models_active_serves_the_bundle_it_was_handed`.)
//! Zero sleeps — manual clocks and synchronous queue draining.

use std::sync::Arc;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::serve::http::HttpRequest;
use neuroshard::serve::server::Routed;
use neuroshard::serve::{ManualClock, ServeConfig, Service};

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

fn task_json() -> String {
    let tables: Vec<TableConfig> = (0..8)
        .map(|i| TableConfig::new(TableId(i), 16 + 16 * (i % 2), 1 << 14, 8.0, 1.05))
        .collect();
    let task = ShardingTask::new(tables, 2, 1 << 30, 1024);
    serde_json::to_string(&task).expect("tasks serialize")
}

fn plan_body() -> String {
    format!("{{\"task\":{}}}", task_json())
}

fn post(service: &Service, path: &str, body: &str) -> Routed {
    service.route(&HttpRequest {
        method: "POST".into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
    })
}

fn get_inline(service: &Service, path: &str) -> (u16, String) {
    let Routed::Inline(r) = service.route(&HttpRequest {
        method: "GET".into(),
        path: path.into(),
        body: Vec::new(),
    }) else {
        panic!("GET {path} answers inline")
    };
    (r.status, String::from_utf8_lossy(&r.body).to_string())
}

/// A daemon that was never sent an observation.
fn fresh_service() -> Service {
    Service::with_clock(
        quick_bundle(7),
        ServeConfig::smoke(),
        Arc::new(ManualClock::new()),
    )
    .expect("service boots")
}

/// `POST /v1/observations` answers `200` inline, counts into `accepted`
/// and `nshard_serve_observations_total` only the observations the serving
/// models can read, and keeps nothing: after a hundred more posts of the
/// batch, `/health` and the next plan body are the bytes a daemon that
/// never saw an observation answers.
#[test]
fn observations_are_counted_by_readability_and_kept_nowhere() {
    let observation = |kind: &str, rows: usize, width: usize| {
        let row = format!("[{}]", vec!["0.5"; width].join(","));
        format!(
            "{{\"kind\":\"{kind}\",\"features\":[{}],\"predicted_ms\":1.0,\"observed_ms\":2.0}}",
            vec![row; rows].join(",")
        )
    };
    // Readable: a compute row is 8 wide, a comm row on the bundle's two
    // devices 7.
    let readable = [
        observation("compute", 3, 8),
        observation("comm_forward", 1, 7),
        observation("comm_backward", 1, 7),
    ];
    // A one-value compute row, an empty compute observation, comm rows of
    // the wrong width or count, and unknown kinds: the models could read
    // none of them.
    let unreadable = [
        observation("compute", 1, 1),
        observation("compute", 0, 8),
        observation("comm_forward", 1, 3),
        observation("comm_backward", 2, 7),
        observation("mystery", 1, 8),
        r#"{"kind":"mystery","features":[[1.0]],"predicted_ms":0.0,"observed_ms":0.0}"#.into(),
    ];
    let batch: Vec<String> = readable.iter().chain(&unreadable).cloned().collect();
    let body = format!("{{\"observations\":[{}]}}", batch.join(","));

    let service = fresh_service();
    for _ in 0..101 {
        let Routed::Inline(ack) = post(&service, "/v1/observations", &body) else {
            panic!("observation ingest answers inline")
        };
        assert_eq!(ack.status, 200);
        assert_eq!(String::from_utf8_lossy(&ack.body), r#"{"accepted":3}"#);
    }
    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_observations_total 303\n"),
        "got: {metrics}"
    );

    let untouched = fresh_service();
    assert_eq!(
        get_inline(&service, "/health"),
        get_inline(&untouched, "/health")
    );
    let plan = |service: &Service| {
        let Routed::Queued(slot) = post(service, "/v1/plan", &plan_body()) else {
            panic!("plan request must be queued");
        };
        assert!(service.drain_one());
        slot.wait()
    };
    let (after, fresh) = (plan(&service), plan(&untouched));
    assert_eq!(after.status, 200);
    assert_eq!(after.body, fresh.body);
}

/// `use_row_wise` + `l = 0` (no beam) — historically rejected as dead
/// config — now boots: the greedy-only path row-splits via the
/// deterministic presplit pass (ROADMAP item 4, done).
#[test]
fn row_wise_greedy_only_config_boots() {
    let mut config = ServeConfig::smoke();
    config.search.use_row_wise = true;
    config.search.l = 0;
    let service = Service::with_clock(quick_bundle(7), config, Arc::new(ManualClock::new()))
        .expect("row-wise + greedy-only boots");
    assert_eq!(service.config().search.l, 0);
    assert!(service.config().search.use_row_wise);
}

/// `use_replication` with `l = 0` is a config like any other: replicas
/// are only proposed in beam expansion, so with no levels the switch
/// changes nothing — the daemon boots, and its plan body is
/// byte-identical to the one the switch-off daemon answers.
#[test]
fn replication_greedy_only_config_boots_and_plans_as_without_it() {
    let answer = |use_replication: bool| {
        let mut config = ServeConfig::smoke();
        config.search.use_replication = use_replication;
        config.search.l = 0;
        let service = Service::with_clock(quick_bundle(7), config, Arc::new(ManualClock::new()))
            .expect("a greedy-only config boots");
        let Routed::Queued(slot) = post(&service, "/v1/plan", &plan_body()) else {
            panic!("plan request must be queued");
        };
        assert!(service.drain_one());
        let response = slot.wait();
        assert_eq!(response.status, 200);
        response.body
    };
    assert_eq!(answer(true), answer(false));
}
