//! Serving-side integration of the continual-learning subsystem:
//! ground-truth observations flow over `POST /v1/observations` into an
//! [`neuroshard::learn::ContinualLearner`], a model promotion atomically
//! invalidates every serving cache (no response priced by a retired
//! model is ever replayed), and a search configuration has nothing to
//! reject at boot: the greedy-only ones boot and plan.
//! (A promoted bundle surviving a restart is `tests/serve_loop.rs`'s
//! `a_restarted_daemon_keeps_its_sequence_and_model`.)
//! Zero sleeps — manual clocks and synchronous queue draining.

use std::sync::Arc;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::learn::{ContinualConfig, ContinualLearner};
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

/// `POST /v1/observations` stages ground-truth reports inline (unknown
/// kinds skipped at the door), the learning loop drains them with
/// `take_observations`, and a `ContinualLearner` ingests the drained batch.
#[test]
fn observations_flow_from_the_wire_into_the_learner() {
    let service = Service::with_clock(
        quick_bundle(7),
        ServeConfig::smoke(),
        Arc::new(ManualClock::new()),
    )
    .expect("service boots");
    let body = r#"{"observations":[
        {"kind":"compute","features":[[1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0]],"predicted_ms":1.5,"observed_ms":2.0},
        {"kind":"comm_forward","features":[[0.5,0.5,0.5,0.5,0.5,0.5,0.5]],"predicted_ms":0.4,"observed_ms":0.6},
        {"kind":"mystery","features":[[1.0]],"predicted_ms":0.0,"observed_ms":0.0}
    ]}"#;
    let Routed::Inline(ack) = post(&service, "/v1/observations", body) else {
        panic!("observation ingest answers inline")
    };
    assert_eq!(ack.status, 200, "{}", String::from_utf8_lossy(&ack.body));
    let ack_body = String::from_utf8_lossy(&ack.body).to_string();
    assert!(ack_body.contains("\"accepted\":2"), "got: {ack_body}");
    assert_eq!(service.observations_buffered(), 2);

    let mut learner = ContinualLearner::new(quick_bundle(7), ContinualConfig::smoke());
    learner.ingest_wire(&service.take_observations());
    assert_eq!(
        learner.buffer().inserted(),
        2,
        "every staged observation is buffered"
    );
    assert_eq!(
        service.observations_buffered(),
        0,
        "draining empties the stage"
    );

    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_observations_total 2"),
        "got: {metrics}"
    );
}

/// The daemon stages only observations its serving models can read, and
/// however large each readable one is, the stage keeps a bounded number
/// of feature values, evicting the oldest observations first.
#[test]
fn the_stage_holds_only_readable_rows_and_stays_bounded() {
    let service = Service::with_clock(
        quick_bundle(7),
        ServeConfig::smoke(),
        Arc::new(ManualClock::new()),
    )
    .expect("service boots");
    let ack = |observations: &[String]| {
        let body = format!("{{\"observations\":[{}]}}", observations.join(","));
        let Routed::Inline(ack) = post(&service, "/v1/observations", &body) else {
            panic!("observation ingest answers inline")
        };
        assert_eq!(ack.status, 200);
        String::from_utf8_lossy(&ack.body).to_string()
    };
    let observation = |kind: &str, rows: usize, width: usize| {
        let row = format!("[{}]", vec!["0.5"; width].join(","));
        format!(
            "{{\"kind\":\"{kind}\",\"features\":[{}],\"predicted_ms\":1.0,\"observed_ms\":2.0}}",
            vec![row; rows].join(",")
        )
    };

    // A one-value compute row, an empty compute observation, comm rows of
    // the wrong width (the bundle prices two devices: 7 values) or count,
    // and an unknown kind: the learner could read none of them.
    let unreadable = [
        observation("compute", 1, 1),
        observation("compute", 0, 8),
        observation("comm_forward", 1, 3),
        observation("comm_backward", 2, 7),
        observation("mystery", 1, 8),
    ];
    let got = ack(&unreadable);
    assert!(got.contains("\"accepted\":0"), "got: {got}");
    assert_eq!(service.observations_buffered(), 0);

    // Half the stage's 2,097,152 values each: two fit, a third evicts
    // the oldest, and one past the whole cap is refused.
    let half = observation("compute", 1 << 17, 8);
    for buffered in [1, 2, 2] {
        let got = ack(std::slice::from_ref(&half));
        assert!(got.contains("\"accepted\":1"), "got: {got}");
        assert_eq!(service.observations_buffered(), buffered);
    }
    let got = ack(&[observation("compute", (1 << 18) + 1, 8)]);
    assert!(got.contains("\"accepted\":0"), "got: {got}");
    let staged = service.take_observations();
    let values: usize = staged.iter().flat_map(|o| &o.features).map(Vec::len).sum();
    assert_eq!((staged.len(), values), (2, 1 << 21));
}

/// The stale-cache-across-promotion test: a model promotion bumps the
/// version in `/health` and `/metrics`, re-labels the prediction-cache
/// series, and invalidates the identical-request response cache — the
/// twin of a pre-promotion request must be re-planned by the new model,
/// not replayed from the old one's cache.
#[test]
fn promotion_invalidates_caches_and_relabels_metrics() {
    let config = ServeConfig {
        response_cache_entries: 8,
        ..ServeConfig::smoke()
    };
    let service = Service::with_clock(quick_bundle(7), config, Arc::new(ManualClock::new()))
        .expect("service boots");
    let body = plan_body();

    let (status, health) = get_inline(&service, "/health");
    assert_eq!(status, 200);
    assert!(health.contains("\"model_version\":1"), "got: {health}");

    // Warm the response cache: plan once, then hit with the twin.
    let Routed::Queued(slot) = post(&service, "/v1/plan", &body) else {
        panic!("first request must queue")
    };
    assert!(service.drain_one());
    assert_eq!(slot.wait().status, 200);
    let Routed::Inline(hit) = post(&service, "/v1/plan", &body) else {
        panic!("identical request must be served from the cache inline")
    };
    assert_eq!(hit.status, 200);
    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_response_cache_hits_total 1"),
        "got: {metrics}"
    );
    assert!(
        metrics.contains("model_version=\"1\""),
        "prediction-cache series carry the serving model version: {metrics}"
    );

    // Promote a different bundle: version bumps everywhere...
    let version = service.promote_model(&quick_bundle(9));
    assert_eq!(version, 2);
    assert_eq!(service.model_version(), 2);
    let (_, health) = get_inline(&service, "/health");
    assert!(health.contains("\"model_version\":2"), "got: {health}");

    // ...and the twin of the cached request must MISS — it re-queues and
    // is re-planned by the promoted model instead of replaying the
    // retired model's response.
    let Routed::Queued(slot) = post(&service, "/v1/plan", &body) else {
        panic!("post-promotion twin must miss the response cache and queue")
    };
    assert!(service.drain_one());
    assert_eq!(slot.wait().status, 200);

    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_response_cache_hits_total 1"),
        "the post-promotion twin must not be a cache hit: {metrics}"
    );
    assert!(
        metrics.contains("nshard_serve_model_version 2"),
        "got: {metrics}"
    );
    assert!(
        metrics.contains("nshard_serve_model_promotions_total 1"),
        "got: {metrics}"
    );
    assert!(
        metrics.contains("model_version=\"2\""),
        "cache series re-label after promotion: {metrics}"
    );
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
