//! Event-driven serving core tests: incremental-parser conformance under
//! arbitrary byte fragmentation (proptest), pipelining and keep-alive
//! over real TCP, malformed-request handling (400/431), slow-loris
//! timeout semantics driven by a manual clock (zero sleeps), and byte
//! identity between the daemon's answers and the socket-free
//! `Service::handle_blocking` route.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::serve::net::{
    ConnState, ParseStep, RequestParser, TimeoutKind, IDLE_TIMEOUT_MS, MAX_HEADER_BYTES,
    READ_TIMEOUT_MS,
};
use neuroshard::serve::{
    http_call, HttpRequest, HttpResponse, KeepAliveClient, ServeConfig, Server, Service,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Parser conformance: fragmentation must not change the parse
// ---------------------------------------------------------------------------

/// Parses a full byte stream in one `feed`, collecting every request.
fn parse_one_shot(raw: &[u8]) -> Vec<HttpRequest> {
    let mut parser = RequestParser::new();
    parser.feed(raw);
    let mut requests = Vec::new();
    while let ParseStep::Request(parsed) = parser.step() {
        requests.push(parsed.request);
    }
    requests
}

/// Parses the same stream fragmented at `splits` (sorted byte offsets).
fn parse_fragmented(raw: &[u8], splits: &[usize]) -> Vec<HttpRequest> {
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut start = 0usize;
    let mut boundaries: Vec<usize> = splits.iter().map(|&s| s % (raw.len() + 1)).collect();
    boundaries.sort_unstable();
    boundaries.push(raw.len());
    for end in boundaries {
        if end <= start {
            continue;
        }
        parser.feed(&raw[start..end]);
        while let ParseStep::Request(parsed) = parser.step() {
            requests.push(parsed.request);
        }
        start = end;
    }
    requests
}

fn request_bytes(method: &str, path: &str, body: &[u8], extra_header: &str) -> Vec<u8> {
    let mut raw = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
    if !extra_header.is_empty() {
        raw.extend_from_slice(format!("{extra_header}\r\n").as_bytes());
    }
    raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    raw.extend_from_slice(body);
    raw
}

proptest! {
    /// Any fragmentation of a request stream — including one byte at a
    /// time — parses to exactly the one-shot result.
    #[test]
    fn fragmented_parse_equals_one_shot(
        body in proptest::collection::vec(any::<u8>(), 0..200),
        path_salt in 0u32..1000,
        splits in proptest::collection::vec(0usize..4096, 0..40),
    ) {
        let raw = request_bytes("POST", &format!("/v1/plan/{path_salt}"), &body, "X-Trace: abc");
        let one_shot = parse_one_shot(&raw);
        prop_assert_eq!(one_shot.len(), 1);
        let fragmented = parse_fragmented(&raw, &splits);
        prop_assert_eq!(one_shot, fragmented);
    }

    /// Pipelined request pairs survive arbitrary fragmentation too — the
    /// boundary between two back-to-back requests is found identically
    /// no matter how the bytes arrive.
    #[test]
    fn pipelined_pairs_parse_identically_under_fragmentation(
        body_a in proptest::collection::vec(any::<u8>(), 0..64),
        body_b in proptest::collection::vec(any::<u8>(), 0..64),
        splits in proptest::collection::vec(0usize..4096, 0..40),
    ) {
        let mut raw = request_bytes("POST", "/v1/plan", &body_a, "");
        raw.extend_from_slice(&request_bytes("GET", "/health", &body_b, "Connection: keep-alive"));
        let one_shot = parse_one_shot(&raw);
        prop_assert_eq!(one_shot.len(), 2);
        prop_assert_eq!(&one_shot[0].body, &body_a);
        prop_assert_eq!(&one_shot[1].body, &body_b);
        let fragmented = parse_fragmented(&raw, &splits);
        prop_assert_eq!(one_shot, fragmented);
    }
}

/// Byte-at-a-time is the worst case the proptest samples around; pin it
/// exhaustively for one canonical request.
#[test]
fn every_single_byte_boundary_parses_identically() {
    let raw = request_bytes(
        "POST",
        "/v1/replan",
        b"{\"deadline_ms\":5}",
        "Host: localhost",
    );
    let one_shot = parse_one_shot(&raw);
    assert_eq!(one_shot.len(), 1);
    for split in 1..raw.len() {
        let fragmented = parse_fragmented(&raw, &[split]);
        assert_eq!(one_shot, fragmented, "split at byte {split}");
    }
    // Fully byte-at-a-time.
    let all: Vec<usize> = (1..raw.len()).collect();
    assert_eq!(one_shot, parse_fragmented(&raw, &all));
}

/// What a request *means* is pinned to literals for the grammar's
/// corners: CRLF, a lower-case method (upper-cased), bare-LF line endings,
/// a binary body containing CR and LF, and an empty-bodied PUT.
#[test]
fn canonical_requests_parse_to_their_literal_meaning() {
    let binary = [0u8, 255, 7, 10, 13];
    let request = |method: &str, path: &str, body: &[u8]| HttpRequest {
        method: method.into(),
        path: path.into(),
        body: body.to_vec(),
    };
    let cases: Vec<(Vec<u8>, HttpRequest)> = vec![
        (
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            request("GET", "/health", b""),
        ),
        (
            b"get /metrics HTTP/1.1\r\n\r\n".to_vec(),
            request("GET", "/metrics", b""),
        ),
        (
            b"POST /v1/plan HTTP/1.1\nContent-Length: 2\n\nok".to_vec(),
            request("POST", "/v1/plan", b"ok"),
        ),
        (
            request_bytes("POST", "/v1/replan", &binary, "X-Bin: yes"),
            request("POST", "/v1/replan", &binary),
        ),
        (
            request_bytes("PUT", "/nope", b"", ""),
            request("PUT", "/nope", b""),
        ),
    ];
    for (raw, expected) in cases {
        assert_eq!(
            parse_one_shot(&raw),
            vec![expected],
            "wrong parse of {:?}",
            String::from_utf8_lossy(&raw)
        );
    }
}

// ---------------------------------------------------------------------------
// Malformed requests over the live event loop
// ---------------------------------------------------------------------------

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

fn start_server() -> (Server, String) {
    let service =
        Arc::new(Service::new(quick_bundle(7), ServeConfig::smoke()).expect("service boots"));
    let server = Server::start(service, "127.0.0.1:0").expect("server binds");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Sends raw bytes and reads the whole response (the server closes on
/// faults).
fn raw_roundtrip(addr: &str, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    stream.flush().unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn malformed_request_line_gets_400_and_close() {
    let (server, addr) = start_server();
    let response = raw_roundtrip(&addr, b"\r\n\r\n");
    assert!(
        response.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "got: {response}"
    );
    assert!(response.contains("Connection: close"));
    assert!(response.contains("bad_request"));
    server.shutdown();
}

#[test]
fn oversized_headers_get_431_and_close() {
    let (server, addr) = start_server();
    let mut raw = b"GET /health HTTP/1.1\r\nX-Fill: ".to_vec();
    raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 64));
    raw.extend_from_slice(b"\r\n\r\n");
    let response = raw_roundtrip(&addr, &raw);
    assert!(
        response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "got: {response}"
    );
    assert!(response.contains("headers_too_large"));
    server.shutdown();
}

#[test]
fn oversized_declared_body_gets_413_and_close() {
    let (server, addr) = start_server();
    let raw = format!(
        "POST /v1/plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        (8 << 20) + 1
    );
    let response = raw_roundtrip(&addr, raw.as_bytes());
    assert!(
        response.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
        "got: {response}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Keep-alive and pipelining over the live event loop
// ---------------------------------------------------------------------------

#[test]
fn keepalive_connection_serves_many_requests_and_counts_reuse() {
    let (server, addr) = start_server();
    let mut client = KeepAliveClient::new(addr.clone());
    for _ in 0..5 {
        let (status, body) = client.call("GET", "/health", b"").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
    }
    let (status, body) = client
        .call("POST", "/v1/plan", plan_body().as_bytes())
        .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"degraded\":false"));
    assert_eq!(client.reconnects(), 0, "one connection served everything");

    let (_, metrics) = client.call("GET", "/metrics", b"").unwrap();
    assert!(
        metrics.contains("nshard_net_keepalive_reuse_total 6"),
        "5 health reuses + 1 plan + this metrics call counted after: {}",
        metrics
            .lines()
            .filter(|l| l.starts_with("nshard_net"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(metrics.contains("nshard_net_open_connections 1"));
    assert!(metrics.contains("nshard_net_accepted_total 1"));
    assert!(metrics.contains("nshard_net_request_lifecycle_ms_count"));
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order_on_one_socket() {
    let (server, addr) = start_server();
    let mut stream = TcpStream::connect(&addr).unwrap();
    // Three pipelined GETs, the last one closing.
    let raw = b"GET /health HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\nConnection: close\r\n\r\n";
    stream.write_all(raw).unwrap();
    stream.flush().unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    let statuses: Vec<usize> = text
        .match_indices("HTTP/1.1 200 OK")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(statuses.len(), 3, "three responses on one socket: {text}");
    let health = text.find("\"status\":\"ok\"").unwrap();
    let metrics = text.find("nshard_serve_requests_total").unwrap();
    assert!(
        health < metrics,
        "responses in request order (health before metrics)"
    );
    // The pipelining counter saw the back-to-back requests.
    assert!(text.contains("nshard_net_pipelined_requests_total"));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Slow-loris and idle timeouts — manual clock, zero sleeps
// ---------------------------------------------------------------------------

/// A partial request that stalls past the read timeout answers `408` and
/// closes; driven entirely at the state-machine level with a manual
/// clock.
#[test]
fn slow_loris_expires_with_408_after_the_read_timeout() {
    let mut conn = ConnState::new(0);

    // One byte of a request arrives, then nothing.
    conn.on_bytes(b"P", 0);
    let (deadline, kind) = conn.deadline();
    assert_eq!(kind, TimeoutKind::Read);
    assert_eq!(deadline, READ_TIMEOUT_MS);

    // Nothing moved the deadline: it is really due.
    let (actual, kind) = conn.deadline();
    assert!(actual <= deadline, "deadline did not move: really due");
    assert_eq!(kind, TimeoutKind::Read);

    // The expiry action: 408 + close.
    conn.timeout_request();
    let text = String::from_utf8_lossy(conn.writable()).to_string();
    assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    assert!(text.contains("request_timeout"));
    let n = conn.writable().len();
    conn.advance_write(n, deadline);
    assert!(conn.should_close());
}

/// A slow-loris that trickles a byte just before each deadline keeps
/// moving the deadline — the reactor reads the moved one on its next
/// turn — until it finally stalls and expires.
#[test]
fn trickling_bytes_push_the_deadline_until_the_stall() {
    let mut conn = ConnState::new(0);

    conn.on_bytes(b"G", 0);
    assert_eq!(conn.deadline(), (READ_TIMEOUT_MS, TimeoutKind::Read));

    // Trickle: one byte at 9s — one second before the 10s read deadline.
    let t1 = READ_TIMEOUT_MS - 1_000;
    conn.on_bytes(b"E", t1);

    // The deadline moved out from the trickle.
    let (deadline, kind) = conn.deadline();
    assert_eq!(kind, TimeoutKind::Read);
    assert_eq!(deadline, t1 + READ_TIMEOUT_MS);
}

/// An idle keep-alive connection (no request in progress) expires on the
/// idle timeout, silently.
#[test]
fn idle_keepalive_connection_expires_on_the_idle_timeout() {
    let mut conn = ConnState::new(100);
    // Serve one full request so the connection is idle, not fresh.
    conn.on_bytes(b"GET /health HTTP/1.1\r\n\r\n", 100);
    conn.complete(0, HttpResponse::text(200, "ok".into()));
    let n = conn.writable().len();
    conn.advance_write(n, 200);

    let (deadline, kind) = conn.deadline();
    assert_eq!(kind, TimeoutKind::Idle);
    assert_eq!(deadline, 200 + IDLE_TIMEOUT_MS);
    assert!(!conn.should_close(), "not closed until the reactor acts");
}

// ---------------------------------------------------------------------------
// Conformance: the daemon over TCP vs the socket-free route
// ---------------------------------------------------------------------------

/// The same requests sent to a daemon over TCP and handed to
/// `Service::handle_blocking` on an identically-seeded in-process service
/// produce byte-identical statuses and bodies — the I/O edge adds and
/// changes nothing.
#[test]
fn daemon_answers_equal_the_socket_free_route() {
    let (server, addr) = start_server();
    // Nothing ever connects to the oracle's socket; its server is there
    // for the worker pool `handle_blocking` waits on.
    let (oracle, _) = start_server();

    let plan = plan_body();
    let replan = format!("{{\"task\":{},\"adopt\":false}}", task_json());
    let calls: Vec<(&str, &str, &[u8])> = vec![
        ("GET", "/health", b""),
        ("POST", "/v1/plan", plan.as_bytes()),
        ("POST", "/v1/replan", replan.as_bytes()),
        ("GET", "/nope", b""),
        ("DELETE", "/health", b""),
        ("GET", "/v1/repl/status", b""),
        ("GET", "/v1/plans/missing", b""),
    ];
    for (method, path, body) in calls {
        let expected = oracle.service().handle_blocking(&HttpRequest {
            method: method.into(),
            path: path.into(),
            body: body.to_vec(),
        });
        let over_tcp = http_call(&addr, method, path, body).unwrap();
        assert_eq!(
            over_tcp,
            (
                expected.status,
                String::from_utf8(expected.body).expect("bodies are UTF-8")
            ),
            "daemon and socket-free route disagree on {method} {path}"
        );
    }
    server.shutdown();
    oracle.shutdown();
}
