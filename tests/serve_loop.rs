//! Serving-layer integration tests: bit-identical responses under
//! concurrency, deadline handling through a manual clock (no sleeps),
//! queue-full load shedding, store persistence across restarts (plans and
//! sequence; damaged files quarantined; an older build's model file left
//! alone), and the `/metrics` contract.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::SystemTime;

use proptest::prelude::*;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::nn::serialize::{envelope_to_json, write_checked};
use neuroshard::serve::http::HttpRequest;
use neuroshard::serve::server::Routed;
use neuroshard::serve::{http_call, ManualClock, ServeConfig, Server, Service, StoredPlan};

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

/// The acceptance-criterion test: 8 threads posting the same `/v1/plan`
/// body over real TCP receive **byte-identical** responses, identical to
/// a subsequent single call.
#[test]
fn eight_threads_get_byte_identical_plans() {
    let service =
        Arc::new(Service::new(quick_bundle(7), ServeConfig::smoke()).expect("service boots"));
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    let addr = server.addr().to_string();
    let body = plan_body();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || {
                http_call(&addr, "POST", "/v1/plan", body.as_bytes()).expect("call succeeds")
            })
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (status, _) in &responses {
        assert_eq!(*status, 200);
    }
    let first = &responses[0].1;
    for (_, other) in &responses[1..] {
        assert_eq!(other, first, "concurrent responses must be byte-identical");
    }

    // A later identical request (idempotent adoption) matches too.
    let (status, again) = http_call(&addr, "POST", "/v1/plan", body.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(&again, first);

    // Exactly one plan was adopted for the nine identical requests.
    assert_eq!(service.plans().len(), 1);
    server.shutdown();
}

/// A request whose deadline expired while queued is answered `503`
/// without searching — driven entirely by the manual clock, no sleeps.
#[test]
fn expired_deadline_is_shed_with_503() {
    let clock = Arc::new(ManualClock::new());
    let service = Service::with_clock(
        quick_bundle(7),
        ServeConfig::smoke(),
        Arc::clone(&clock) as Arc<_>,
    )
    .expect("service boots");

    let body = format!("{{\"task\":{},\"deadline_ms\":100}}", task_json());
    let Routed::Queued(slot) = post(&service, "/v1/plan", &body) else {
        panic!("plan request must be queued");
    };
    clock.advance_ms(150); // past the 100 ms deadline while "queued"
    assert!(service.drain_one());
    let response = slot.wait();
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after_s, Some(1));
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("deadline_expired"), "got: {text}");
}

/// A request with *almost* no budget left degrades to the greedy chain
/// (a fast plan) instead of erroring — the fallback chain's discipline
/// applied to deadlines.
#[test]
fn deadline_pressure_degrades_instead_of_failing() {
    let clock = Arc::new(ManualClock::new());
    let service = Service::with_clock(
        quick_bundle(7),
        ServeConfig::smoke(),
        Arc::clone(&clock) as Arc<_>,
    )
    .expect("service boots");

    let body = format!("{{\"task\":{},\"deadline_ms\":1000}}", task_json());
    let Routed::Queued(slot) = post(&service, "/v1/plan", &body) else {
        panic!("plan request must be queued");
    };
    // 800 ms of queueing leaves 200 ms — below the 250 ms degrade floor.
    clock.advance_ms(800);
    assert!(service.drain_one());
    let response = slot.wait();
    assert_eq!(response.status, 200);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("\"degraded\":true"), "got: {text}");
    // A deadline-pressed answer is not cached: its twin queues again.
    let Routed::Queued(slot) = post(&service, "/v1/plan", &body) else {
        panic!("a degraded answer must not be replayed");
    };
    assert!(service.drain_one());
    assert_eq!(slot.wait().status, 200);

    // The same request with full budget is served by the primary search.
    let Routed::Queued(slot) = post(&service, "/v1/plan", &plan_body()) else {
        panic!("plan request must be queued");
    };
    assert!(service.drain_one());
    let response = slot.wait();
    assert_eq!(response.status, 200);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("\"degraded\":false"), "got: {text}");
}

/// `POST /v1/replan` never stores a plan its own task rejects: when the
/// first of two tables outgrows its 64 MiB device and no single move, swap
/// or split fits both devices again, the daemon answers with the full
/// search's plan (`"incremental":false`), not the hill-climb's
/// 76,800,000-byte device.
#[test]
fn replan_adopts_only_plans_that_fit_their_fleet() {
    let service = Service::new(quick_bundle(7), ServeConfig::smoke()).expect("service boots");
    let body_for = |rows: u64| {
        let tables = vec![
            TableConfig::new(TableId(0), 64, rows, 8.0, 1.05),
            TableConfig::new(TableId(1), 64, 180_000, 8.0, 1.05),
        ];
        let task = ShardingTask::new(tables, 2, 64 << 20, 1024);
        format!("{{\"task\":{}}}", serde_json::to_string(&task).unwrap())
    };
    for (path, rows) in [("/v1/plan", 200_000), ("/v1/replan", 300_000)] {
        let Routed::Queued(slot) = post(&service, path, &body_for(rows)) else {
            panic!("{path} must be queued");
        };
        assert!(service.drain_one());
        let response = slot.wait();
        let text = String::from_utf8(response.body).unwrap();
        assert_eq!(response.status, 200, "{path}: {text}");
        if path == "/v1/replan" {
            assert!(text.contains("\"incremental\":false"), "got: {text}");
        }
    }
    assert_eq!(service.plans().len(), 2);
    let stored = service.plans().latest().expect("the replan was adopted");
    stored
        .plan
        .validate(&stored.task)
        .expect("a stored plan fits the fleet it was planned for");
}

/// A full admission queue sheds load with `429` + `Retry-After`; the
/// already-admitted jobs still complete.
#[test]
fn full_queue_sheds_load_with_429() {
    let config = ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::smoke()
    };
    let service = Service::with_clock(
        quick_bundle(7),
        config,
        Arc::new(ManualClock::new()) as Arc<_>,
    )
    .expect("service boots");
    let body = plan_body();

    // No workers are draining: two jobs fill the queue.
    let Routed::Queued(first) = post(&service, "/v1/plan", &body) else {
        panic!("first request must be queued");
    };
    let Routed::Queued(second) = post(&service, "/v1/plan", &body) else {
        panic!("second request must be queued");
    };
    // The third is shed immediately.
    let Routed::Inline(rejected) = post(&service, "/v1/plan", &body) else {
        panic!("third request must be rejected inline");
    };
    assert_eq!(rejected.status, 429);
    assert_eq!(rejected.retry_after_s, Some(1));
    assert!(String::from_utf8(rejected.body)
        .unwrap()
        .contains("queue_full"));

    // Draining answers the admitted jobs; the queue never lost them.
    assert!(service.drain_one());
    assert!(service.drain_one());
    assert!(!service.drain_one());
    assert_eq!(first.wait().status, 200);
    assert_eq!(second.wait().status, 200);

    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_rejected_total{reason=\"queue_full\"} 1"),
        "got: {metrics}"
    );
}

/// With the response cache enabled, an identical request is answered
/// inline at admission — byte-identical to the worker-path original —
/// while distinct bodies still queue.
#[test]
fn response_cache_answers_identical_requests_inline() {
    let config = ServeConfig {
        response_cache_entries: 8,
        ..ServeConfig::smoke()
    };
    let service = Service::with_clock(
        quick_bundle(7),
        config,
        Arc::new(ManualClock::new()) as Arc<_>,
    )
    .expect("service boots");
    let body = plan_body();

    // First request runs the full chain through the queue.
    let Routed::Queued(slot) = post(&service, "/v1/plan", &body) else {
        panic!("first request must queue");
    };
    assert!(service.drain_one());
    let original = slot.wait();
    assert_eq!(original.status, 200);

    // The identical twin is served inline, without queueing.
    let Routed::Inline(cached) = post(&service, "/v1/plan", &body) else {
        panic!("identical request must be served from the cache inline");
    };
    assert_eq!(cached, original, "cache hits are byte-identical");
    assert!(!service.drain_one(), "no job was queued for the hit");

    // A different body misses and queues as usual.
    let other = format!("{{\"task\":{},\"deadline_ms\":9000}}", task_json());
    let Routed::Queued(slot) = post(&service, "/v1/plan", &other) else {
        panic!("distinct request must queue");
    };
    assert!(service.drain_one());
    assert_eq!(slot.wait().status, 200);

    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_response_cache_hits_total 1"),
        "got: {metrics}"
    );
}

/// The response cache is read once, at admission: two identical bodies
/// admitted before either is drained both miss there, so both run the
/// engine, and their answers are byte-equal anyway.
#[test]
fn identical_bodies_admitted_together_both_run_the_engine() {
    let config = ServeConfig {
        response_cache_entries: 8,
        ..ServeConfig::smoke()
    };
    let service = Service::with_clock(
        quick_bundle(7),
        config,
        Arc::new(ManualClock::new()) as Arc<_>,
    )
    .expect("service boots");
    let body = plan_body();
    let slots: Vec<_> = (0..2)
        .map(|_| match post(&service, "/v1/plan", &body) {
            Routed::Queued(slot) => slot,
            Routed::Inline(_) => panic!("nothing is cached before the first drain"),
        })
        .collect();
    assert!(service.drain_one() && service.drain_one());
    let [first, second] = [slots[0].wait(), slots[1].wait()];
    assert_eq!(first.status, 200);
    assert_eq!(first.body, second.body);

    let metrics = service.render_metrics();
    for line in [
        "nshard_serve_response_cache_hits_total 0",
        "nshard_serve_response_cache_misses_total 2",
    ] {
        assert!(metrics.contains(line), "{line} not in: {metrics}");
    }
}

/// A worker stores a response only under a generation a request can
/// still read: an adopting replan moves the store's sequence past the one
/// its key names, so it stores nothing, and a one-entry cache still holds
/// the plan answered before it.
#[test]
fn an_adopting_replan_does_not_evict_a_live_entry() {
    let config = ServeConfig {
        response_cache_entries: 1,
        ..ServeConfig::smoke()
    };
    let service = Service::with_clock(
        quick_bundle(7),
        config,
        Arc::new(ManualClock::new()) as Arc<_>,
    )
    .expect("service boots");
    let body = plan_body();
    let (status, original) = post_drained(&service, "/v1/plan", &body);
    assert_eq!(status, 200, "{original}");

    let tables: Vec<TableConfig> = (0..8)
        .map(|i| TableConfig::new(TableId(i), 16 + 16 * (i % 2), 1 << 15, 8.0, 1.05))
        .collect();
    let drifted = ShardingTask::new(tables, 2, 1 << 30, 1024);
    let replan = format!("{{\"task\":{}}}", serde_json::to_string(&drifted).unwrap());
    let (status, text) = post_drained(&service, "/v1/replan", &replan);
    assert_eq!(status, 200, "{text}");
    assert_eq!(service.plans().len(), 2, "the replan adopted a second plan");

    let Routed::Inline(twin) = post(&service, "/v1/plan", &body) else {
        panic!("the plan's twin must be answered from the cache inline");
    };
    assert_eq!(String::from_utf8(twin.body).unwrap(), original);
}

/// Adopted plans survive a daemon restart (disk-backed store) and are
/// retrievable over `GET /v1/plans/{id}` with full provenance.
#[test]
fn plan_store_survives_restart() {
    let dir = std::env::temp_dir().join(format!("nshard_serve_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::smoke()
    };

    let id = {
        let service =
            Arc::new(Service::new(quick_bundle(7), config.clone()).expect("service boots"));
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
        let (status, body) = http_call(
            &server.addr().to_string(),
            "POST",
            "/v1/plan",
            plan_body().as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
        let id = body
            .split("\"id\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("response carries an id")
            .to_string();
        server.shutdown();
        id
    };

    // A "restarted daemon" (fresh service, same directory) is warm.
    let service = Arc::new(Service::new(quick_bundle(7), config).expect("service reboots"));
    assert_eq!(service.plans().len(), 1);
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    let (status, body) = http_call(
        &server.addr().to_string(),
        "GET",
        &format!("/v1/plans/{id}"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains(&id));
    assert!(body.contains("\"provenance\""));

    // Replanning warm-starts from the restored incumbent.
    let (status, body) = http_call(
        &server.addr().to_string(),
        "POST",
        "/v1/replan",
        plan_body().as_bytes(),
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"incremental\":true"), "got: {body}");
    assert!(body.contains("\"migration_bytes\":0"), "got: {body}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The service-level twin of the store's
/// `truncated_plan_file_is_quarantined_not_fatal`: a plan file torn by a
/// crash is set aside at boot, the daemon comes up without it, and
/// `/metrics` reports how many files were set aside.
#[test]
fn torn_plan_file_is_quarantined_and_counted_on_metrics() {
    let dir = std::env::temp_dir().join(format!("nshard_serve_torn_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::smoke()
    };
    {
        let service =
            Arc::new(Service::new(quick_bundle(7), config.clone()).expect("service boots"));
        assert!(service
            .render_metrics()
            .contains("nshard_serve_store_quarantined 0"));
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
        let (status, _) = http_call(
            &server.addr().to_string(),
            "POST",
            "/v1/plan",
            plan_body().as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
    // Simulate a crash mid-persist: the one plan file stops halfway.
    let victim = std::fs::read_dir(dir.join("plans"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "json"))
        .expect("the adopted plan was persisted");
    let full = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &full[..full.len() / 2]).unwrap();

    let service = Service::new(quick_bundle(7), config).expect("a torn file does not stop boot");
    assert_eq!(service.plans().len(), 0);
    let metrics = service.render_metrics();
    assert!(
        metrics.contains("nshard_serve_store_quarantined 1"),
        "missing the quarantine gauge in:\n{metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `/health` and `/metrics` expose the daemon's core observability
/// contract: liveness facts, request counters, latency quantiles, and
/// prediction-cache statistics.
#[test]
fn health_and_metrics_expose_the_core_counters() {
    let service =
        Arc::new(Service::new(quick_bundle(7), ServeConfig::smoke()).expect("service boots"));
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    let addr = server.addr().to_string();

    let (status, health) = http_call(&addr, "GET", "/health", b"").unwrap();
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""));
    assert!(health.contains("\"queue_capacity\":64"));

    let (status, _) = http_call(&addr, "POST", "/v1/plan", plan_body().as_bytes()).unwrap();
    assert_eq!(status, 200);

    let (status, metrics) = http_call(&addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(status, 200);
    for needle in [
        "nshard_serve_requests_total{endpoint=\"plan\",code=\"200\"} 1",
        "nshard_serve_queue_depth 0",
        "nshard_serve_search_latency_ms{quantile=\"0.99\"}",
        "nshard_serve_search_latency_ms_count 1",
        "nshard_serve_cache_hits_total",
        "nshard_serve_cache_misses_total",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // Unknown routes 404 with a JSON error body.
    let (status, body) = http_call(&addr, "GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("not_found"));
    server.shutdown();
}

/// A task whose JSON the constructors would have refused — or whose device
/// count is not the bundle's — is answered `400` with a JSON error body,
/// and the worker that answered it answers the next request. The server
/// lends **one** worker: a single panic there would leave nothing to plan.
#[test]
fn malformed_tasks_get_400_and_the_worker_survives() {
    use neuroshard::data::DevicePool;

    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::smoke()
    };
    let service = Arc::new(Service::new(quick_bundle(7), config).expect("service boots"));
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
    // A dead worker never fills the slot: wait on a channel, not on it.
    let answer = |path: &'static str, body: String| {
        let (tx, rx) = std::sync::mpsc::channel();
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = tx.send(service.handle_blocking(&HttpRequest {
                method: "POST".into(),
                path: path.into(),
                body: body.into_bytes(),
            }));
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("the only worker died on the previous request")
    };

    let uniform = task_json();
    let pooled: ShardingTask = serde_json::from_str(&uniform).unwrap();
    let pooled = serde_json::to_string(&pooled.with_devices(DevicePool::two_tier(
        1,
        1 << 30,
        1,
        1 << 29,
        1.5,
        0.25,
    )))
    .unwrap();
    let one_device = r#"{"devices":[{"mem_budget_bytes":1073741824,"compute_scale":1.0,"node":0}],"inter_node_bw_scale":1.0}"#;
    let edits: [(&str, &str, String, &str); 8] = [
        (
            &uniform,
            r#""num_devices":2"#,
            r#""num_devices":0"#.into(),
            "bad_request",
        ),
        (
            &uniform,
            r#""num_devices":2"#,
            r#""num_devices":3"#.into(),
            "unsupported_device_count",
        ),
        (
            &uniform,
            r#""num_devices":2"#,
            r#""num_devices":9223372036854775808"#.into(),
            "bad_request",
        ),
        (
            &uniform,
            r#""devices":null"#,
            format!(r#""devices":{one_device}"#),
            "bad_request",
        ),
        (
            &pooled,
            r#""compute_scale":1.5"#,
            r#""compute_scale":0.0"#.into(),
            "bad_request",
        ),
        (&uniform, r#""dim":16"#, r#""dim":0"#.into(), "bad_request"),
        (
            &uniform,
            r#""hash_size":16384"#,
            r#""hash_size":0"#.into(),
            "bad_request",
        ),
        (
            &uniform,
            r#""hash_size":16384"#,
            r#""hash_size":9223372036854775808"#.into(),
            "bad_request",
        ),
    ];
    for path in ["/v1/plan", "/v1/replan"] {
        for (task, from, to, kind) in &edits {
            let edited = task.replacen(from, to, 1);
            assert_ne!(&edited, task, "{from} not found");
            let response = answer(path, format!("{{\"task\":{edited}}}"));
            let text = String::from_utf8(response.body).unwrap();
            assert_eq!(response.status, 400, "{path} {to}: {text}");
            assert!(
                text.starts_with(&format!("{{\"error\":\"{kind}\",\"detail\":\"")),
                "{path} {to}: {text}"
            );
        }
        if path == "/v1/plan" {
            assert_eq!(answer(path, plan_body()).status, 200);
        }
    }
    // The mismatch names both counts.
    let three = uniform.replacen(r#""num_devices":2"#, r#""num_devices":3"#, 1);
    let text = String::from_utf8(answer("/v1/plan", format!("{{\"task\":{three}}}")).body).unwrap();
    assert!(
        text.contains("3 devices") && text.contains("trained for 2"),
        "{text}"
    );
    // After sixteen refusals the same worker replans from the stored plan.
    assert_eq!(answer("/v1/replan", plan_body()).status, 200);
    server.shutdown();
}

/// A body's answer does not depend on the requests before it or beside
/// it: each request plans with its own stack, so no prediction another
/// request stored can reach it. One body (tables drawn from the same small
/// pool as the others, so they share table sets) is answered on a fresh
/// daemon, after 200 unrelated bodies, and while 8 unrelated bodies run on
/// two workers — the same bytes each time.
#[test]
fn a_body_is_answered_alike_whatever_ran_before_or_beside_it() {
    let pool = TablePool::synthetic_dlrm(40, 3);
    let body = |seed: u64| {
        let task = ShardingTask::sample(&pool, 2, 4..=6, 16, seed);
        format!(
            "{{\"task\":{},\"adopt\":false}}",
            serde_json::to_string(&task).unwrap()
        )
    };
    let probe = body(1_000_000);
    let bundle = quick_bundle(7);
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::smoke()
    };
    let boot = || Service::new(bundle.clone(), config.clone()).expect("service boots");

    let (status, alone) = post_drained(&boot(), "/v1/plan", &probe);
    assert_eq!(status, 200, "{alone}");

    let warmed = boot();
    for seed in 0..200 {
        assert_eq!(post_drained(&warmed, "/v1/plan", &body(seed)).0, 200);
    }
    let (_, after) = post_drained(&warmed, "/v1/plan", &probe);
    assert_eq!(after, alone, "200 earlier bodies moved the answer");

    let server = Server::start(Arc::new(boot()), "127.0.0.1:0").expect("server binds");
    let service = server.service();
    let request = |body: String| HttpRequest {
        method: "POST".into(),
        path: "/v1/plan".into(),
        body: body.into_bytes(),
    };
    let beside = std::thread::scope(|s| {
        let others: Vec<_> = (200..208)
            .map(|seed| {
                let other = request(body(seed));
                s.spawn(move || service.handle_blocking(&other).status)
            })
            .collect();
        let answer = service.handle_blocking(&request(probe.clone()));
        for other in others {
            assert_eq!(other.join().unwrap(), 200);
        }
        answer
    });
    server.shutdown();
    assert_eq!(beside.status, 200);
    assert_eq!(
        String::from_utf8(beside.body).unwrap(),
        alone,
        "8 concurrent bodies moved the answer"
    );
}

// ---------------------------------------------------------------------------
// Restart: a store_dir daemon's files are its only outside input
// ---------------------------------------------------------------------------

/// A task whose table dimensions turn with `salt` (0..=3), as JSON:
/// distinct salts are distinct tasks, hence distinct content-addressed
/// plan ids.
fn salted_task(salt: u32) -> String {
    let tables: Vec<TableConfig> = (0..8)
        .map(|i| TableConfig::new(TableId(i), 16 + 16 * ((i + salt) % 4), 1 << 14, 8.0, 1.05))
        .collect();
    serde_json::to_string(&ShardingTask::new(tables, 2, 1 << 30, 1024)).unwrap()
}

/// A plan body for [`salted_task`].
fn salted_plan_body(salt: u32) -> String {
    format!("{{\"task\":{}}}", salted_task(salt))
}

/// Posts a planning request and drains it on this thread (no sleeps).
fn post_drained(service: &Service, path: &str, body: &str) -> (u16, String) {
    let response = match post(service, path, body) {
        Routed::Inline(response) => response,
        Routed::Queued(slot) => {
            assert!(service.drain_one(), "a job was queued");
            slot.wait()
        }
    };
    (response.status, String::from_utf8(response.body).unwrap())
}

/// A GET, answered inline.
fn get_inline(service: &Service, path: &str) -> (u16, String) {
    let Routed::Inline(response) = service.route(&HttpRequest {
        method: "GET".into(),
        path: path.into(),
        body: Vec::new(),
    }) else {
        panic!("GET {path} answers inline")
    };
    (response.status, String::from_utf8(response.body).unwrap())
}

/// Every file of the store rooted at `dir`, sorted: `(path, bytes, last
/// modification)` — a rewrite with the same bytes still moves the time.
fn store_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>, SystemTime)> {
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

/// The exact bits of a response body's `predicted_ms`.
fn predicted_bits(body: &str) -> u64 {
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
}

/// A disk-backed daemon restarted on its own files keeps its sequence
/// space: the same plan bytes, no file rewritten, and an idempotent
/// re-adoption answers the bytes it answered before the restart.
#[test]
fn a_restarted_daemon_keeps_its_sequence() {
    let dir = std::env::temp_dir().join(format!("nshard_serve_sequence_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let boot = || {
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::smoke()
        };
        Service::with_clock(quick_bundle(41), config, Arc::new(ManualClock::new()))
            .expect("the daemon boots")
    };
    let first = boot();
    assert_eq!(
        post_drained(&first, "/v1/plan", &salted_plan_body(0)).0,
        200
    );
    let (status, adopted) = post_drained(&first, "/v1/plan", &salted_plan_body(1));
    assert_eq!(status, 200, "{adopted}");
    let ids = first.plans().ids();
    let fetch = |service: &Service| -> Vec<(u16, String)> {
        let path = |id: &String| format!("/v1/plans/{id}");
        ids.iter()
            .map(|id| get_inline(service, &path(id)))
            .collect()
    };
    let fetched = fetch(&first);
    let files = store_files(&dir);
    assert_eq!(files.len(), 2, "two plans");
    drop(first);

    let restarted = boot();
    assert_eq!(
        fetch(&restarted),
        fetched,
        "GET /v1/plans/{{id}} answers the same bytes"
    );
    assert_eq!(
        store_files(&dir),
        files,
        "boot reads its files, never writes"
    );
    let (status, again) = post_drained(&restarted, "/v1/plan", &salted_plan_body(1));
    assert_eq!(status, 200);
    assert_eq!(predicted_bits(&again), predicted_bits(&adopted));
    assert_eq!(
        again, adopted,
        "the idempotent re-adoption answers the same bytes"
    );
    assert_eq!(restarted.plans().applied_seq(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The plan a store-less daemon booted with `bundle` adopts for `body`.
fn adopted_by(bundle: CostModelBundle, body: &str) -> StoredPlan {
    let service = Service::with_clock(bundle, ServeConfig::smoke(), Arc::new(ManualClock::new()))
        .expect("the daemon boots");
    assert_eq!(post_drained(&service, "/v1/plan", body).0, 200);
    service.plans().latest().expect("the plan was adopted")
}

/// A store an older build wrote holds a promoted model beside its plans:
/// `models/active.json`, a `{key, seq, value}` entry that took sequence
/// number 2 between the adoptions at 1 and 3, holding a different bundle.
/// The daemon serves the bundle it was handed all the same: it boots with
/// both plans (their GET bytes unchanged, nothing quarantined), leaves the
/// model file as it found it, and prices a fresh plan bit for bit as a
/// store-less daemon on the same bundle does.
#[test]
fn a_store_with_an_old_models_active_serves_the_bundle_it_was_handed() {
    let dir = std::env::temp_dir().join(format!("nshard_serve_legacy_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let handed = quick_bundle(41);
    let promoted = quick_bundle(43);
    let before = adopted_by(handed.clone(), &salted_plan_body(0));
    let mut after = adopted_by(promoted.clone(), &salted_plan_body(1));
    after.version = 3;
    for plan in [&before, &after] {
        let path = dir.join("plans").join(format!("{}.json", plan.id));
        write_checked(&path, &plan.id, "nshard-serve", plan).unwrap();
    }
    let value = envelope_to_json("cost-bundle", "nshard", &promoted);
    let entry = format!(
        "{{\"key\":\"models/active\",\"seq\":2,\"value\":{}}}",
        serde_json::to_string(&value).unwrap()
    );
    let model = dir.join("models").join("active.json");
    let entry = serde_json::parse_value(&entry).unwrap();
    write_checked(&model, "models/active", "nshard-serve", &entry).unwrap();
    let model_bytes = std::fs::read(&model).unwrap();

    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::smoke()
    };
    let service = Service::with_clock(handed.clone(), config, Arc::new(ManualClock::new()))
        .expect("the daemon boots");
    for plan in [&before, &after] {
        let got = get_inline(&service, &format!("/v1/plans/{}", plan.id));
        assert_eq!(got, (200, serde_json::to_string(plan).unwrap()));
    }
    assert!(service
        .render_metrics()
        .contains("nshard_serve_store_quarantined 0\n"));
    assert_eq!(service.plans().applied_seq(), 3);
    assert_eq!(std::fs::read(&model).unwrap(), model_bytes);

    let fresh = format!("{{\"task\":{},\"adopt\":false}}", salted_task(2));
    let (status, served) = post_drained(&service, "/v1/plan", &fresh);
    assert_eq!(status, 200, "{served}");
    let storeless =
        Service::with_clock(handed, ServeConfig::smoke(), Arc::new(ManualClock::new())).unwrap();
    let (_, reference) = post_drained(&storeless, "/v1/plan", &fresh);
    assert_eq!(predicted_bits(&served), predicted_bits(&reference));
    assert_eq!(served, reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// One smoke bundle shared by the property cases (pre-training per case
/// would dominate them).
fn shared_bundle() -> CostModelBundle {
    static BUNDLE: OnceLock<CostModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| quick_bundle(47)).clone()
}

/// A daemon's store files after two adoptions: `(path under the store,
/// bytes, sequence number)`.
fn store_fixture() -> &'static Vec<(PathBuf, Vec<u8>, u64)> {
    static FILES: OnceLock<Vec<(PathBuf, Vec<u8>, u64)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("nshard_serve_files_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::smoke()
        };
        let service = Service::with_clock(shared_bundle(), config, Arc::new(ManualClock::new()))
            .expect("the daemon boots");
        for salt in [0, 1] {
            assert_eq!(
                post_drained(&service, "/v1/plan", &salted_plan_body(salt)).0,
                200
            );
        }
        let mut files: Vec<_> = service
            .plans()
            .ids()
            .into_iter()
            .map(|id| {
                let version = service.plans().get(&id).unwrap().version;
                (PathBuf::from(format!("plans/{id}.json")), version)
            })
            .map(|(path, seq)| (path.clone(), std::fs::read(dir.join(&path)).unwrap(), seq))
            .collect();
        files.sort_by_key(|f| f.2);
        assert_eq!(files.iter().map(|f| f.2).collect::<Vec<_>>(), [1, 2]);
        std::fs::remove_dir_all(&dir).ok();
        files
    })
}

/// `file` (framed, with sequence `seq`) unframed and re-stamped to `to`.
fn restamp(file: &[u8], seq: u64, to: u64) -> Vec<u8> {
    let text = String::from_utf8(file.to_vec()).unwrap();
    let bare = text.split_once('\n').unwrap().1;
    let (head, payload) = bare.split_once("\"payload\":").unwrap();
    let stamped = payload.replacen(
        &format!("\"version\":{seq},"),
        &format!("\"version\":{to},"),
        1,
    );
    assert_ne!(stamped, payload, "the payload carries its sequence");
    format!("{head}\"payload\":{stamped}").into_bytes()
}

proptest! {
    /// A truncated, bit-flipped or re-stamped (colliding sequence) plan
    /// file is quarantined at boot — a collision takes both
    /// claimants — and the daemon still comes up and answers.
    #[test]
    fn damaged_store_files_are_quarantined_at_boot(
        victim in 0usize..2,
        damage in 0usize..3,
        at in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir()
            .join(format!("nshard_serve_damage_{}_{case}", std::process::id()));
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
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::smoke()
        };
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
