//! Event-driven serving core tests: incremental-parser conformance under
//! arbitrary byte fragmentation and hostile bytes (proptests), pipelining,
//! keep-alive and write backpressure over real TCP, malformed-request
//! handling (400/431),
//! slow-loris timeout semantics driven by a manual clock (zero sleeps),
//! byte identity between the daemon's answers and the socket-free
//! `Service::handle_blocking` route, and admission under open-loop
//! steady and burst traffic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use neuroshard::cost::{CollectConfig, CostModelBundle, TrainSettings};
use neuroshard::data::{ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::serve::net::{
    ConnState, ParseFault, ParseStep, RequestParser, TimeoutKind, IDLE_TIMEOUT_MS,
    MAX_HEADER_BYTES, READ_TIMEOUT_MS,
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

/// A body is framed by `Content-Length` alone: a `Transfer-Encoding`
/// header (of any coding) faults, and so do two `Content-Length` headers
/// that disagree, rather than reading a chunked body as a next request or
/// letting the last length win. Two that agree frame the body they state.
#[test]
fn framing_the_parser_cannot_honour_faults_and_agreeing_lengths_parse() {
    let faults: [(&[u8], &str); 3] = [
        (
            b"POST /v1/plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
            "Transfer-Encoding is not supported",
        ),
        (
            b"POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\ntransfer-encoding: identity\r\n\r\nok",
            "Transfer-Encoding is not supported",
        ),
        (
            b"POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nokk",
            "Content-Length headers disagree",
        ),
    ];
    for (raw, reason) in faults {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        assert_eq!(
            parser.step(),
            ParseStep::Fault(ParseFault::Malformed(reason.into())),
            "{:?}",
            String::from_utf8_lossy(raw)
        );
    }
    let agreeing = b"POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok";
    assert_eq!(
        parse_one_shot(agreeing),
        vec![HttpRequest {
            method: "POST".into(),
            path: "/v1/plan".into(),
            body: b"ok".to_vec(),
        }]
    );
}

// ---------------------------------------------------------------------------
// Hostile bytes: the parser answers every input with a typed step
// ---------------------------------------------------------------------------

/// Feeds `raw` in fragments cut at `splits` and steps after each, the way
/// the reactor does; returns every step. A fault must stay put: the same
/// fault on every later step, whatever arrives next.
fn step_hostile(raw: &[u8], splits: &[usize]) -> Result<Vec<ParseStep>, TestCaseError> {
    let mut parser = RequestParser::new();
    let mut steps = Vec::new();
    let mut boundaries: Vec<usize> = splits.iter().map(|&s| s % (raw.len() + 1)).collect();
    boundaries.sort_unstable();
    boundaries.push(raw.len());
    let mut start = 0usize;
    for end in boundaries {
        parser.feed(&raw[start..end]);
        start = end;
        // A request consumes at least its blank line, so the buffer
        // cannot yield more requests than it holds bytes.
        for _ in 0..=raw.len() {
            let step = parser.step();
            let more = matches!(step, ParseStep::Request(_));
            steps.push(step);
            if !more {
                break;
            }
        }
    }
    if let Some(first) = steps.iter().position(|s| matches!(s, ParseStep::Fault(_))) {
        let fault = steps[first].clone();
        prop_assert!(steps[first..].iter().all(|s| *s == fault), "a fault moved");
        parser.feed(b"GET /health HTTP/1.1\r\n\r\n");
        prop_assert_eq!(parser.step(), fault);
    }
    Ok(steps)
}

proptest! {
    /// Arbitrary bytes, whole or in fragments, step to requests,
    /// `Incomplete` or a fault that stays put — never a panic.
    #[test]
    fn arbitrary_bytes_step_to_a_typed_outcome(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
        splits in proptest::collection::vec(0usize..512, 0..8),
    ) {
        step_hostile(&raw, &splits)?;
    }

    /// A canonical request cut at any byte is `Incomplete` — neither a
    /// request nor a fault — and its remaining bytes complete it.
    #[test]
    fn a_cut_request_is_incomplete_until_its_last_byte(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..4096,
    ) {
        let raw = request_bytes("POST", "/v1/plan", &body, "Host: x");
        let cut = cut % raw.len();
        let mut parser = RequestParser::new();
        parser.feed(&raw[..cut]);
        prop_assert_eq!(parser.step(), ParseStep::Incomplete);
        parser.feed(&raw[cut..]);
        let ParseStep::Request(parsed) = parser.step() else {
            return Err(TestCaseError::fail(format!("no request after cut {cut}")));
        };
        prop_assert_eq!(parsed.request.body, body);
        prop_assert_eq!(parser.step(), ParseStep::Incomplete);
    }

    /// An over-long header line faults `HeadersTooLarge` whether or not
    /// its header block ever ends; a valid request followed by garbage
    /// yields that request first, then typed steps only.
    #[test]
    fn an_overlong_header_or_trailing_garbage_faults_typed(
        overflow in 1usize..4096,
        terminated: bool,
        garbage in proptest::collection::vec(any::<u8>(), 1..256),
        splits in proptest::collection::vec(0usize..40_000, 0..8),
    ) {
        let mut raw = b"GET /health HTTP/1.1\r\nX-Fill: ".to_vec();
        raw.resize(MAX_HEADER_BYTES + overflow, b'a');
        if terminated {
            raw.extend_from_slice(b"\r\n\r\n");
        }
        let steps = step_hostile(&raw, &splits)?;
        prop_assert!(
            matches!(steps.last(), Some(ParseStep::Fault(ParseFault::HeadersTooLarge { .. }))),
            "an over-long header ended in {:?}",
            steps.last()
        );
        prop_assert!(!steps.iter().any(|s| matches!(s, ParseStep::Request(_))));

        let mut raw = request_bytes("GET", "/health", b"", "");
        raw.extend_from_slice(&garbage);
        let steps = step_hostile(&raw, &[])?;
        let Some(ParseStep::Request(first)) = steps.first() else {
            return Err(TestCaseError::fail(format!("no request first: {:?}", steps.first())));
        };
        prop_assert_eq!(first.request.path.as_str(), "/health");
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
    start_server_with(ServeConfig::smoke())
}

fn start_server_with(config: ServeConfig) -> (Server, String) {
    let service = Arc::new(Service::new(quick_bundle(7), config).expect("service boots"));
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

/// Write backpressure through the reactor: one connection pipelines
/// about 31 MB of `/metrics` answers, far more than the loopback buffers
/// hold, and reads nothing for a while. The daemon must stop reading once
/// its write buffer fills, wait for the socket to take bytes again, and
/// still answer every request once the client reads.
#[test]
fn a_reader_that_stalls_gets_every_pipelined_answer_once_it_reads() {
    const REQUESTS: usize = 6_000;
    let (server, addr) = start_server();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut write_half = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        write_half.write_all(&b"GET /metrics HTTP/1.1\r\n\r\n".repeat(REQUESTS))
    });
    std::thread::sleep(Duration::from_millis(1_500));
    let mut reader = BufReader::new(stream);
    for i in 0..REQUESTS {
        match read_status(&mut reader) {
            Ok(status) => assert_eq!(status, 200, "response {i}"),
            Err(e) => panic!("response {i}: {:?}", e.kind()),
        }
    }
    writer.join().unwrap().unwrap();
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
        // A retired route: both paths must answer the same 404.
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
        if path.starts_with("/v1/repl/") {
            assert_eq!(expected.status, 404, "{method} {path}");
        }
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

// ---------------------------------------------------------------------------
// Open-loop overload: steady and burst windows over pipelined keep-alive
// ---------------------------------------------------------------------------

/// Pipelining keep-alive connections per cell.
const CELL_CONNS: usize = 8;

/// The daemon's admission queue. A steady window of 8 holds two churn
/// plans and at most two replans, so eight connections keep at most 32
/// requests queued; a burst slams far more.
const OPEN_LOOP_QUEUE: usize = 32;

/// An open-loop arrival process, in requests rather than wall time.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    Steady,
    Burst,
}

impl Arrival {
    /// The windows one connection offers: each is written back to back
    /// before any of its responses is read. A constant trickle, or three
    /// quiet steps and then a slam, twice.
    fn windows(self) -> Vec<usize> {
        match self {
            Arrival::Steady => vec![8; 10],
            Arrival::Burst => [4, 4, 4, 64].repeat(2),
        }
    }
}

/// One request of the wire sequence, framed for pipelining.
struct Offered {
    raw: Vec<u8>,
    churn: bool,
}

/// Reads one `Content-Length`-framed response; returns its status.
fn read_status(reader: &mut BufReader<TcpStream>) -> std::io::Result<u16> {
    let malformed = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed(format!("bad status line {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed(format!("bad header {header:?}")))?;
        }
    }
    reader.read_exact(&mut vec![0u8; content_length])?;
    Ok(status)
}

/// Writes the next `window` requests of the wire sequence back to back,
/// then reads their answers as `(index into requests, status)`.
fn offer_window(
    reader: &mut BufReader<TcpStream>,
    requests: &[Offered],
    window: usize,
    answers: &mut Vec<(usize, u16)>,
) -> std::io::Result<()> {
    let sent = answers.len();
    let indices: Vec<usize> = (sent..sent + window).map(|i| i % requests.len()).collect();
    let batch: Vec<u8> = indices
        .iter()
        .flat_map(|&i| requests[i].raw.iter().copied())
        .collect();
    reader.get_mut().write_all(&batch)?;
    for i in indices {
        answers.push((i, read_status(reader)?));
    }
    Ok(())
}

/// Offers `arrival`'s windows over one keep-alive connection, in step
/// with the cell's other connections; returns every answer.
fn replay_connection(
    addr: &str,
    requests: &[Offered],
    arrival: Arrival,
    barrier: &Barrier,
) -> std::io::Result<Vec<(usize, u16)>> {
    let mut connection = TcpStream::connect(addr).and_then(|stream| {
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    });
    let mut answers = Vec::new();
    for window in arrival.windows() {
        // Every connection writes its window at once; a broken one keeps
        // stepping, so the others never wait on it.
        barrier.wait();
        if let Ok(reader) = &mut connection {
            if let Err(e) = offer_window(reader, requests, window, &mut answers) {
                connection = Err(e);
            }
        }
    }
    connection.map(|_| answers)
}

/// The daemon's deployment shape under open-loop load: six planned bodies
/// (two of them replans) repeat from the response cache, and every fourth
/// request is a fresh plan under a 1 ms deadline ("churn"), which the
/// cache never answers and which mostly expires in the queue. Steady
/// windows stay under the queue and shed (`429`) at most 1%; every burst
/// sheds; no connection breaks; and because each answer is matched to its
/// request, every `503` must be churn — a warm body is never expired.
#[test]
fn open_loop_overload_sheds_bursts_and_expires_only_churn() {
    let (server, addr) = start_server_with(ServeConfig {
        queue_capacity: OPEN_LOOP_QUEUE,
        // One worker: these 2-GPU tasks are cheap enough that two drain
        // a slam almost as fast as the reactor admits it.
        workers: 1,
        response_cache_entries: 1024,
        ..ServeConfig::smoke()
    });
    let pool = TablePool::synthetic_dlrm(40, 3);
    let task_body = |tables: usize, seed: u64| {
        let task = ShardingTask::sample(&pool, 2, tables..=tables, 32, seed);
        serde_json::to_string(&task).expect("tasks serialize")
    };
    let warm: Vec<(&str, String)> = (0..6)
        .map(|i| {
            let path = if i % 3 == 2 { "/v1/replan" } else { "/v1/plan" };
            (path, format!("{{\"task\":{}}}", task_body(20, 2023 + i)))
        })
        .collect();
    // Two passes: a replan's cache key folds the store's applied
    // sequence, which settles only once the first pass has adopted
    // every distinct plan.
    for _ in 0..2 {
        for (path, body) in &warm {
            let (status, answer) = http_call(&addr, "POST", path, body.as_bytes()).unwrap();
            assert_eq!(status, 200, "warm-up {path}: {answer}");
        }
    }
    let requests: Arc<Vec<Offered>> = Arc::new(
        (0..256u64)
            .map(|j| {
                let churn = j % 4 == 3;
                let (path, body) = if churn {
                    let task = task_body(32, 0xD81F + j);
                    ("/v1/plan", format!("{{\"task\":{task},\"deadline_ms\":1}}"))
                } else {
                    let (path, body) = &warm[j as usize % warm.len()];
                    (*path, body.clone())
                };
                let raw = format!(
                    "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                Offered {
                    raw: raw.into_bytes(),
                    churn,
                }
            })
            .collect(),
    );

    for arrival in [Arrival::Steady, Arrival::Burst] {
        let barrier = Arc::new(Barrier::new(CELL_CONNS));
        let connections: Vec<_> = (0..CELL_CONNS)
            .map(|_| {
                let (addr, requests) = (addr.clone(), Arc::clone(&requests));
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || replay_connection(&addr, &requests, arrival, &barrier))
            })
            .collect();
        let answers: Vec<(usize, u16)> = connections
            .into_iter()
            .flat_map(|c| {
                c.join()
                    .unwrap()
                    .unwrap_or_else(|e| panic!("{arrival:?}: transport error {e}"))
            })
            .collect();
        let count = |churn: bool, status: u16| {
            answers
                .iter()
                .filter(|&&(i, s)| requests[i].churn == churn && s == status)
                .count()
        };
        let shed = count(false, 429) + count(true, 429);
        eprintln!(
            "{arrival:?}: {} offered; warm 200/429/503 {}/{}/{}, churn {}/{}/{}",
            answers.len(),
            count(false, 200),
            count(false, 429),
            count(false, 503),
            count(true, 200),
            count(true, 429),
            count(true, 503),
        );
        assert_eq!(count(false, 503), 0, "{arrival:?}: a warm request expired");
        match arrival {
            Arrival::Steady => assert!(
                shed * 100 <= answers.len(),
                "steady traffic shed {shed} of {}",
                answers.len()
            ),
            Arrival::Burst => assert!(shed > 0, "a burst far over the queue shed nothing"),
        }
    }
    server.shutdown();
}
