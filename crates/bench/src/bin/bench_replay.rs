//! Million-request replay harness for the event-driven serving core.
//!
//! Replays seeded open-loop request streams against a live daemon over
//! the paper's 856-table pool across simulated GPU tiers (8–128) and
//! three arrival processes:
//!
//! * **steady** — a constant in-flight window well under the admission
//!   queue, so nothing is shed;
//! * **burst** — on/off windows far over queue capacity, so admission
//!   control must shed the excess with `429`s;
//! * **diurnal** — a deterministic sinusoidal window sweep between the
//!   two, the paper's recurring-drift serving story.
//!
//! Requests are HTTP/1.1 keep-alive and pipelined (the reactor's whole
//! point); a deterministic mix of `POST /v1/plan` and `POST /v1/replan`
//! bodies is drawn per tier from the 856-table pool. Distinct bodies per
//! cell are planned by the full search once and then served from the
//! identical-request response cache, which is what makes a million
//! requests tractable on one core while still exercising the complete
//! accept→parse→admit→queue→respond path per request.
//!
//! A separate keep-alive phase drives one cache-warm plan body from 64
//! pipelining client connections and records the daemon's throughput
//! and p99 (reported, not gated).
//!
//! Gates (asserted and recorded in the JSON artifact):
//! * replayed requests ≥ 1,000,000 (≥ 10,000 with `--smoke`);
//! * zero transport-level failures;
//! * steady cells shed ≤ 1% with `429` while every burst cell sheds > 0.
//!
//! Usage: `bench_replay [--smoke] [--per-cell 67000] [--keepalive-each 120]
//! [--seed 2023] [--out BENCH_replay.json]`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use nshard_bench::{markdown_table, maybe_write_json, Args};
use nshard_core::NeuroShardConfig;
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{ShardingTask, TablePool};
use nshard_serve::{http_call, ServeConfig, Server, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GPU tiers swept by the replay, 8 → 128 as in the paper's scaling
/// experiments.
const GPU_TIERS: [usize; 5] = [8, 16, 32, 64, 128];

/// Arrival processes replayed per tier.
const PROCESSES: [ArrivalProcess; 3] = [
    ArrivalProcess::Steady,
    ArrivalProcess::Burst,
    ArrivalProcess::Diurnal,
];

/// Client connections per replay cell.
const CELL_CONNS: usize = 8;

/// Client connections in the keep-alive throughput phase.
const KEEPALIVE_CONNS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ArrivalProcess {
    Steady,
    Burst,
    Diurnal,
}

impl ArrivalProcess {
    fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Steady => "steady",
            ArrivalProcess::Burst => "burst",
            ArrivalProcess::Diurnal => "diurnal",
        }
    }

    /// Pipelined-window size for step `i` of a connection's schedule —
    /// the open-loop arrival process, in requests instead of wall time:
    /// each step offers a window of requests back-to-back on the wire
    /// without waiting for responses.
    fn window(self, i: usize) -> usize {
        match self {
            // Constant trickle: total in-flight stays far below queue
            // capacity, nothing should shed.
            ArrivalProcess::Steady => 8,
            // On/off: three quiet steps, then a slam far over queue
            // capacity across the connection fleet.
            ArrivalProcess::Burst => {
                if i % 4 == 3 {
                    64
                } else {
                    4
                }
            }
            // A deterministic "day": window sweeps 4 → 60 → 4 over a
            // 16-step period.
            ArrivalProcess::Diurnal => {
                let phase = (i % 16) as f64 / 16.0 * std::f64::consts::TAU;
                (32.0 - 28.0 * phase.cos()).round() as usize
            }
        }
    }
}

/// One request on the wire, pre-serialized with keep-alive framing.
struct WireRequest {
    raw: Vec<u8>,
}

fn wire_request(path: &str, body: &str) -> WireRequest {
    WireRequest {
        raw: format!(
            "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
    }
}

/// Reads one `Content-Length`-framed HTTP response; returns its status.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-stream",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(|v| v.trim().to_string())
        {
            content_length = v.parse().map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
            })?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(status)
}

/// Replays `schedule`-shaped pipelined windows of `requests` (cycled by
/// global index) over one keep-alive connection; returns per-request
/// `(status, latency_ms)`.
fn replay_connection(
    addr: &str,
    requests: &[WireRequest],
    process: ArrivalProcess,
    quota: &AtomicUsize,
) -> std::io::Result<Vec<(u16, f64)>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    let mut step = 0usize;
    loop {
        let window = process.window(step).max(1);
        step += 1;
        // Claim up to `window` requests from the cell-wide quota.
        let mut claimed = 0usize;
        while claimed < window {
            let prev = quota.fetch_sub(1, Ordering::SeqCst);
            if prev == 0 || prev > usize::MAX / 2 {
                quota.fetch_add(1, Ordering::SeqCst); // underflow guard
                break;
            }
            claimed += 1;
        }
        if claimed == 0 {
            return Ok(out);
        }
        // Open loop: write the whole window back-to-back, then drain the
        // responses.
        let mut batch = Vec::new();
        let mut starts = Vec::with_capacity(claimed);
        for i in 0..claimed {
            batch.extend_from_slice(&requests[(out.len() + i) % requests.len()].raw);
        }
        let written = Instant::now();
        writer.write_all(&batch)?;
        writer.flush()?;
        for _ in 0..claimed {
            starts.push(written);
        }
        for start in starts {
            let status = read_response(&mut reader)?;
            out.push((status, start.elapsed().as_secs_f64() * 1e3));
        }
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One replayed (tier × arrival-process) cell.
#[derive(Serialize)]
struct Cell {
    gpus: usize,
    process: String,
    offered: usize,
    admitted_200: usize,
    shed_429: usize,
    expired_503: usize,
    other: usize,
    transport_errors: usize,
    wall_clock_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    shed_rate: f64,
}

#[derive(Serialize)]
struct KeepAlive {
    connections: usize,
    requests_each: usize,
    rps: f64,
    p99_ms: f64,
}

#[derive(Serialize)]
struct Gates {
    /// Replay volume met the scale floor (1M full / 10k smoke).
    volume: bool,
    volume_floor: usize,
    /// Zero transport-level failures across the replay.
    no_transport_errors: bool,
    /// Every steady cell shed (`429`) ≤ 1% of offered load. `503`s are
    /// not counted: a quarter of each cell is deliberate 1 ms-deadline
    /// churn, most of which expires in the queue by design — the share is
    /// printed beside the gate, not gated.
    steady_cells_shed_under_1pct: bool,
    /// Every burst cell shed at least one request.
    burst_cells_shed: bool,
    pass: bool,
}

#[derive(Serialize)]
struct Output {
    pool_tables: usize,
    seed: u64,
    smoke: bool,
    per_cell_requests: usize,
    total_requests: usize,
    queue_capacity: usize,
    cells: Vec<Cell>,
    keepalive: KeepAlive,
    gates: Gates,
}

/// Deterministic plan/replan body mix for one GPU tier, drawn from the
/// 856-table pool.
fn bodies_for_tier(pool: &TablePool, gpus: usize, seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed ^ (gpus as u64).wrapping_mul(0x9E37_79B9));
    let tables_per_task = (16 + 2 * gpus).min(128);
    // Six distinct tasks per tier: enough body diversity to exercise the
    // cache and the store, few enough that the full-search warmups stay
    // a small prefix of the cell.
    (0..6)
        .map(|i| {
            let tables = pool.sample_tables(tables_per_task, &mut rng);
            let task = ShardingTask::new(tables, gpus, 4 << 30, 4096);
            let task_json = serde_json::to_string(&task).expect("tasks serialize");
            // Mix: two thirds plan, one third replan (warm-started from
            // whatever incumbent the tier has adopted).
            if i % 3 == 2 {
                (
                    "/v1/replan".to_string(),
                    format!("{{\"task\":{task_json}}}"),
                )
            } else {
                ("/v1/plan".to_string(), format!("{{\"task\":{task_json}}}"))
            }
        })
        .collect()
}

/// Deterministic "churn" bodies for one tier: drifted tasks under a
/// 1 ms deadline, the recurring-drift traffic that can never be served
/// from the response cache (`503`s are not cached). Under a burst these
/// are what pile into — and overflow — the admission queue.
fn churn_bodies_for_tier(pool: &TablePool, gpus: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD81F ^ (gpus as u64).rotate_left(17));
    (0..64)
        .map(|_| {
            let task = ShardingTask::new(pool.sample_tables(32, &mut rng), gpus, 4 << 30, 4096);
            format!(
                "{{\"task\":{},\"deadline_ms\":1}}",
                serde_json::to_string(&task).expect("tasks serialize")
            )
        })
        .collect()
}

/// Drives one cell: `CELL_CONNS` keep-alive connections replaying
/// `offered` requests shaped by `process`.
fn run_cell(
    addr: &str,
    requests: Arc<Vec<WireRequest>>,
    gpus: usize,
    process: ArrivalProcess,
    offered: usize,
) -> Cell {
    let quota = Arc::new(AtomicUsize::new(offered));
    let started = Instant::now();
    let handles: Vec<_> = (0..CELL_CONNS)
        .map(|_| {
            let addr = addr.to_string();
            let requests = Arc::clone(&requests);
            let quota = Arc::clone(&quota);
            std::thread::spawn(move || replay_connection(&addr, &requests, process, &quota))
        })
        .collect();
    let mut results: Vec<(u16, f64)> = Vec::with_capacity(offered);
    let mut transport_errors = 0usize;
    for handle in handles {
        match handle.join().expect("replay connection thread") {
            Ok(mut r) => results.append(&mut r),
            Err(e) => {
                eprintln!("  transport error on {gpus}-gpu {}: {e}", process.name());
                transport_errors += 1;
            }
        }
    }
    let wall_clock_s = started.elapsed().as_secs_f64();
    let mut admitted: Vec<f64> = results
        .iter()
        .filter(|(s, _)| *s == 200)
        .map(|(_, ms)| *ms)
        .collect();
    admitted.sort_by(|a, b| a.total_cmp(b));
    let count = |code: u16| results.iter().filter(|(s, _)| *s == code).count();
    let admitted_200 = count(200);
    let shed_429 = count(429);
    let expired_503 = count(503);
    Cell {
        gpus,
        process: process.name().to_string(),
        offered: results.len(),
        admitted_200,
        shed_429,
        expired_503,
        other: results.len() - admitted_200 - shed_429 - expired_503,
        transport_errors,
        wall_clock_s,
        throughput_rps: admitted_200 as f64 / wall_clock_s.max(1e-9),
        p50_ms: percentile(&admitted, 0.50),
        p95_ms: percentile(&admitted, 0.95),
        p99_ms: percentile(&admitted, 0.99),
        shed_rate: if results.is_empty() {
            0.0
        } else {
            shed_429 as f64 / results.len() as f64
        },
    }
}

/// The 64-connection keep-alive throughput row over one cache-warm plan
/// body: pipelined windows of requests per connection, the traffic the
/// reactor exists to serve.
fn run_keepalive(bundle: &CostModelBundle, body: String, requests_each: usize) -> KeepAlive {
    let config = ServeConfig {
        search: NeuroShardConfig::smoke(),
        response_cache_entries: 64,
        queue_capacity: 1024,
        workers: 2,
        seed: 7,
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::new(bundle.clone(), config).expect("service boots"));
    let server = Server::start(service, "127.0.0.1:0").expect("server binds");
    let addr = server.addr().to_string();
    // Warm the response cache so every timed request is an inline hit.
    let (status, _) = http_call(&addr, "POST", "/v1/plan", body.as_bytes()).expect("warmup");
    assert_eq!(status, 200, "keep-alive warmup must plan");
    let requests: Arc<Vec<WireRequest>> = Arc::new(vec![wire_request("/v1/plan", &body)]);
    let quota = Arc::new(AtomicUsize::new(KEEPALIVE_CONNS * requests_each));
    let started = Instant::now();
    let handles: Vec<_> = (0..KEEPALIVE_CONNS)
        .map(|_| {
            let addr = addr.clone();
            let requests = Arc::clone(&requests);
            let quota = Arc::clone(&quota);
            std::thread::spawn(move || {
                replay_connection(&addr, &requests, ArrivalProcess::Steady, &quota)
                    .expect("keep-alive connection")
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for handle in handles {
        for (status, ms) in handle.join().expect("keep-alive client") {
            assert_eq!(status, 200, "keep-alive requests must all be admitted");
            latencies.push(ms);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    KeepAlive {
        connections: KEEPALIVE_CONNS,
        requests_each,
        rps: latencies.len() as f64 / wall.max(1e-9),
        p99_ms: percentile(&latencies, 0.99),
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let seed: u64 = args.get("seed", 2023);
    let per_cell: usize = args.get("per-cell", if smoke { 700 } else { 67_000 });
    let keepalive_each: usize = args.get("keepalive-each", if smoke { 30 } else { 120 });
    let volume_floor = if smoke { 10_000 } else { 1_000_000 };

    let pool = TablePool::synthetic_dlrm(856, seed);
    // Sized against the arrival processes: steady keeps at most ~16
    // churn requests outstanding (under capacity, nothing sheds); burst
    // and diurnal slam up to ~128 (4x capacity, the excess sheds).
    let queue_capacity = 32usize;
    let mut cells = Vec::new();
    let mut total = 0usize;
    let mut tier8_bundle: Option<CostModelBundle> = None;
    for gpus in GPU_TIERS {
        // Cost models are pre-trained per device count (the bundle's
        // simulator asserts plan/device agreement), so each tier gets
        // its own smoke-settings bundle over the same 856-table pool.
        eprintln!("pre-training {gpus}-gpu cost models on the 856-table pool...");
        let t0 = Instant::now();
        let bundle = CostModelBundle::pretrain(
            &pool,
            gpus,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            seed,
        );
        eprintln!("  pre-trained in {:.1}s", t0.elapsed().as_secs_f64());
        if gpus == 8 {
            tier8_bundle = Some(bundle.clone());
        }

        // One daemon serves the tier's replay cells: the response cache
        // makes repeat bodies O(lookup) so a million requests measure
        // the serving core, not the search; the six distinct bodies per
        // cell still run the full chain once each.
        let config = ServeConfig {
            search: NeuroShardConfig::smoke(),
            response_cache_entries: 1024,
            queue_capacity,
            workers: 2,
            seed,
            ..ServeConfig::default()
        };
        let service = Arc::new(Service::new(bundle, config).expect("service boots"));
        let server = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("server binds");
        let addr = server.addr().to_string();
        let bodies = bodies_for_tier(&pool, gpus, seed);
        // Warm sequentially: every distinct body plans through the full
        // chain once (adopting an incumbent for the replans) before the
        // open-loop flood, so cell latencies measure the serving core.
        // Two passes — the replan cache key folds the store generation,
        // which only stabilizes once the first pass has adopted every
        // distinct plan.
        for _ in 0..2 {
            for (path, body) in &bodies {
                let (status, _) =
                    http_call(&addr, "POST", path, body.as_bytes()).expect("warmup call");
                assert_eq!(status, 200, "warmup {path} must succeed at {gpus} GPUs");
            }
        }
        // The cell's wire sequence: three cache-warm repeats, then one
        // churn request, repeating — a 25% stream of novel drifted
        // tasks that must take the worker path. Cache hits answer
        // inline; churn under burst is what fills (and overflows) the
        // admission queue.
        let churn = churn_bodies_for_tier(&pool, gpus, seed);
        let requests: Arc<Vec<WireRequest>> = Arc::new(
            (0..256)
                .map(|j| {
                    if j % 4 == 3 {
                        wire_request("/v1/plan", &churn[(j / 4) % churn.len()])
                    } else {
                        let (path, body) = &bodies[j % bodies.len()];
                        wire_request(path, body)
                    }
                })
                .collect(),
        );
        for process in PROCESSES {
            let cell = run_cell(&addr, Arc::clone(&requests), gpus, process, per_cell);
            eprintln!(
                "  {:>3} gpus {:>7}: {} offered, {:.0} rps, p99 {:.2} ms, shed {:.2}%",
                gpus,
                process.name(),
                cell.offered,
                cell.throughput_rps,
                cell.p99_ms,
                cell.shed_rate * 100.0
            );
            total += cell.offered;
            cells.push(cell);
        }
        server.shutdown();
    }
    let tier8_bundle = tier8_bundle.expect("8-gpu tier ran");

    eprintln!("keep-alive phase: {KEEPALIVE_CONNS} connections...");
    // A small task (8 tables), so the worker path behind the warm-up —
    // and the cached response — is cheap and the row measures
    // per-request serving cost.
    let keepalive_body = {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let task = ShardingTask::new(pool.sample_tables(8, &mut rng), 8, 4 << 30, 4096);
        format!(
            "{{\"task\":{}}}",
            serde_json::to_string(&task).expect("tasks serialize")
        )
    };
    let keepalive = run_keepalive(&tier8_bundle, keepalive_body, keepalive_each);
    eprintln!("  {:.0} rps, p99 {:.2} ms", keepalive.rps, keepalive.p99_ms);

    let transport_errors: usize = cells.iter().map(|c| c.transport_errors).sum();
    let gates = Gates {
        volume: total >= volume_floor,
        volume_floor,
        no_transport_errors: transport_errors == 0,
        steady_cells_shed_under_1pct: cells
            .iter()
            .filter(|c| c.process == "steady")
            .all(|c| c.shed_rate <= 0.01),
        burst_cells_shed: cells
            .iter()
            .filter(|c| c.process == "burst")
            .all(|c| c.shed_429 > 0),
        pass: false,
    };
    let pass = gates.volume
        && gates.no_transport_errors
        && gates.steady_cells_shed_under_1pct
        && gates.burst_cells_shed;
    let gates = Gates { pass, ..gates };

    let table = markdown_table(
        &[
            "gpus", "process", "offered", "200", "429", "503", "rps", "p50 ms", "p99 ms", "shed %",
        ],
        cells.iter().map(|c| {
            [
                c.gpus.to_string(),
                c.process.clone(),
                c.offered.to_string(),
                c.admitted_200.to_string(),
                c.shed_429.to_string(),
                c.expired_503.to_string(),
                format!("{:.0}", c.throughput_rps),
                format!("{:.2}", c.p50_ms),
                format!("{:.2}", c.p99_ms),
                format!("{:.2}", c.shed_rate * 100.0),
            ]
            .join(" | ")
        }),
    );
    print!("{table}");
    println!(
        "\ntotal replayed: {total} (floor {volume_floor}); keep-alive {:.0} rps at {} connections",
        keepalive.rps, keepalive.connections
    );
    let steady_503_shares: Vec<String> = cells
        .iter()
        .filter(|c| c.process == "steady")
        .map(|c| {
            format!(
                "{} gpus {:.1}%",
                c.gpus,
                100.0 * c.expired_503 as f64 / c.offered.max(1) as f64
            )
        })
        .collect();
    println!(
        "gates: volume={} no_transport_errors={} steady_shed_under_1pct={} (503 share, not gated: {}) burst_shed={} pass={}",
        gates.volume,
        gates.no_transport_errors,
        gates.steady_cells_shed_under_1pct,
        steady_503_shares.join(", "),
        gates.burst_cells_shed,
        gates.pass
    );

    let output = Output {
        pool_tables: pool.len(),
        seed,
        smoke,
        per_cell_requests: per_cell,
        total_requests: total,
        queue_capacity,
        cells,
        keepalive,
        gates,
    };
    maybe_write_json(&args, &output);
    assert!(pass, "bench_replay gates failed");
}
