//! Memory soak of the daemon: 50,000 unique plan requests leave its
//! resident set where the first quarter left it, because no cache outlives
//! the request that filled it.
//!
//! Ignored by default (about two minutes); run it with
//! `cargo test --release --test serve_soak -- --ignored --nocapture`.
//! It reads `VmRSS` from `/proc/self/status`, so it needs Linux.

use std::sync::Arc;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::serve::http::HttpRequest;
use neuroshard::serve::{ServeConfig, Server, Service};

const REQUESTS: u64 = 50_000;
/// How far the 50/75/100% readings may sit from the 25% reading, KiB.
const FLAT_KIB: u64 = 2 * 1024;

/// This process's resident set, KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS in kB")
}

/// Every task draws from one fixed 40-table pool on 2 devices, so the
/// per-thread memo of expected distinct rows stops growing early; every
/// request says `"adopt": false`, so the plan store stays empty.
#[test]
#[ignore = "a two-minute soak; run with --ignored"]
fn fifty_thousand_unique_plans_leave_rss_flat() {
    let pool = TablePool::synthetic_dlrm(40, 3);
    let bundle = CostModelBundle::pretrain(
        &pool,
        2,
        &CollectConfig::smoke(),
        &TrainSettings::smoke(),
        7,
    );
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::smoke()
    };
    let service = Arc::new(Service::new(bundle, config).expect("boots"));
    let server = Server::start(service, "127.0.0.1:0").expect("server binds");
    let mut readings = Vec::new();
    for seed in 0..REQUESTS {
        let task = ShardingTask::sample(&pool, 2, 4..=8, 64, seed);
        let body = format!(
            "{{\"task\":{},\"adopt\":false}}",
            serde_json::to_string(&task).unwrap()
        );
        let response = server.service().handle_blocking(&HttpRequest {
            method: "POST".into(),
            path: "/v1/plan".into(),
            body: body.into_bytes(),
        });
        assert_eq!(response.status, 200, "request {seed}");
        if (seed + 1) % (REQUESTS / 4) == 0 {
            let kib = rss_kib();
            println!("after {:>6} requests: VmRSS {kib} kB", seed + 1);
            readings.push(kib);
        }
    }
    assert_eq!(server.service().plans().len(), 0, "nothing was adopted");
    server.shutdown();
    let first = readings[0];
    for (quarter, &kib) in readings.iter().enumerate().skip(1) {
        assert!(
            kib.abs_diff(first) <= FLAT_KIB,
            "VmRSS at {}% is {kib} kB against {first} kB at 25%",
            25 * (quarter + 1)
        );
    }
}
