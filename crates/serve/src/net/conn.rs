//! Per-connection state machine: parsing, pipelined response ordering,
//! write buffering with backpressure, and timeout accounting.
//!
//! The machine is **I/O-free** — the reactor feeds it bytes it read and
//! drains bytes it wants written — so every edge (pipelining, reordering,
//! backpressure, slow-loris expiry) is unit-testable with a manual clock
//! and no sockets.
//!
//! # Pipelining and ordering
//!
//! HTTP/1.1 pipelining means several requests can be parsed before the
//! first response is ready, and the worker pool may finish them **out of
//! order** — but responses must leave the socket in request order. Each
//! parsed request gets a per-connection sequence number; completions
//! park in a `BTreeMap` until the next-in-order response arrives, then
//! everything contiguous serializes at once.
//!
//! # Backpressure
//!
//! A connection stops being read (`want_read() == false`) while it has
//! [`MAX_PIPELINE`] requests in flight or more than [`WRITE_BUF_LIMIT`]
//! unsent response bytes — the client cannot force unbounded daemon
//! memory by pipelining faster than it reads responses. The bytes stay in
//! the kernel socket buffer, which pushes TCP flow control back to the
//! sender.
//!
//! # Timeouts
//!
//! Exactly one deadline is live per connection at a time
//! ([`ConnState::deadline`]): write-stalled connections expire on the
//! write timeout, mid-request connections on the read timeout (answered
//! `408` — the slow-loris defence), idle keep-alive connections on the
//! idle timeout. The deadline is a pure function of the state, so the
//! reactor reads it afresh each turn instead of tracking when it moves.

use std::collections::BTreeMap;

use crate::api::error_response;
use crate::http::{HttpRequest, HttpResponse};

use super::parser::{ParseFault, ParseStep, RequestParser};

/// Close a keep-alive connection idle this long, ms.
pub const IDLE_TIMEOUT_MS: u64 = 60_000;
/// Answer `408` when a started request stalls this long without a byte of
/// progress, ms (slow-loris defence).
pub const READ_TIMEOUT_MS: u64 = 10_000;
/// Close a connection that accepts no response bytes for this long, ms.
const WRITE_TIMEOUT_MS: u64 = 10_000;
/// Requests admitted per connection before parsing pauses (pipelining
/// depth bound).
const MAX_PIPELINE: usize = 32;
/// Unsent response bytes buffered before reading pauses.
const WRITE_BUF_LIMIT: usize = 1 << 20;

/// Which timeout a deadline belongs to — determines the expiry action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// Idle keep-alive connection: close silently.
    Idle,
    /// Mid-request stall: answer `408 Request Timeout`, then close.
    Read,
    /// Write-stalled peer: close (nothing else can be delivered).
    Write,
}

impl TimeoutKind {
    /// Stable label for the timeout counter on `/metrics`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TimeoutKind::Idle => "idle",
            TimeoutKind::Read => "read",
            TimeoutKind::Write => "write",
        }
    }
}

/// What [`ConnState::on_bytes`] extracted from freshly read bytes.
#[derive(Debug, Default)]
pub struct ReadOutcome {
    /// Complete requests, in arrival order, each with its response
    /// sequence number (pass back to [`ConnState::complete`]).
    pub requests: Vec<(u64, HttpRequest)>,
    /// A parse fault; the connection already buffered the error response
    /// and will close once it flushes.
    pub fault: Option<ParseFault>,
    /// How many of `requests` reused a connection that had already
    /// served at least one request (keep-alive reuse metric).
    pub keepalive_reuse: u64,
    /// How many of `requests` arrived while earlier requests from this
    /// connection were still in flight (pipelining metric).
    pub pipelined: u64,
}

/// The per-connection state machine.
#[derive(Debug)]
pub struct ConnState {
    parser: RequestParser,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Sequence number of the next response to serialize.
    next_to_write: u64,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<u64, HttpResponse>,
    /// Parsed-but-unanswered request count (admission + parked).
    inflight: usize,
    /// Requests fully served on this connection.
    served: u64,
    /// Keep-alive decision per in-flight sequence.
    keep_alive: BTreeMap<u64, bool>,
    /// No further requests will be read (Connection: close seen, fault,
    /// or timeout); close once flushed and drained.
    closing: bool,
    /// Peer closed its half (read returned 0); never read again.
    peer_closed: bool,
    last_read_progress_ms: u64,
    last_write_progress_ms: u64,
    last_activity_ms: u64,
}

impl ConnState {
    /// A fresh connection accepted at `now_ms`.
    pub fn new(now_ms: u64) -> Self {
        Self {
            parser: RequestParser::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_to_write: 0,
            parked: BTreeMap::new(),
            inflight: 0,
            served: 0,
            keep_alive: BTreeMap::new(),
            closing: false,
            peer_closed: false,
            last_read_progress_ms: now_ms,
            last_write_progress_ms: now_ms,
            last_activity_ms: now_ms,
        }
    }

    /// Feeds freshly read bytes, extracting complete requests up to the
    /// pipeline bound. A parse fault buffers its error response
    /// immediately and marks the connection closing.
    pub fn on_bytes(&mut self, bytes: &[u8], now_ms: u64) -> ReadOutcome {
        self.touch_read(now_ms);
        self.parser.feed(bytes);
        self.drain_parser()
    }

    /// Pops parsed requests while the pipeline has room — also called
    /// after completions free pipeline slots, since bytes may already be
    /// buffered.
    pub(crate) fn drain_parser(&mut self) -> ReadOutcome {
        let mut outcome = ReadOutcome::default();
        while !self.closing && self.inflight < MAX_PIPELINE {
            match self.parser.step() {
                ParseStep::Incomplete => break,
                ParseStep::Request(parsed) => {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.inflight += 1;
                    if self.served > 0 {
                        outcome.keepalive_reuse += 1;
                    }
                    if self.inflight > 1 {
                        outcome.pipelined += 1;
                    }
                    self.keep_alive.insert(seq, parsed.keep_alive);
                    if !parsed.keep_alive {
                        // Connection: close — nothing after this request
                        // will be answered, so stop parsing.
                        self.closing = true;
                    }
                    outcome.requests.push((seq, parsed.request));
                }
                ParseStep::Fault(fault) => {
                    let response = error_response(fault.status(), fault.kind(), fault.to_string());
                    self.write_buf.extend_from_slice(&response.to_bytes(false));
                    self.closing = true;
                    outcome.fault = Some(fault);
                    break;
                }
            }
        }
        outcome
    }

    /// Records that the peer closed its read half; the connection still
    /// flushes buffered responses, then closes.
    pub(crate) fn on_peer_closed(&mut self) {
        self.peer_closed = true;
        self.closing = true;
        if self.inflight == 0 {
            // Nothing left to answer: drop parked state so should_close
            // fires as soon as the buffer flushes.
            self.parked.clear();
        }
    }

    /// Delivers the response for request `seq`; serializes every
    /// response that is now next-in-order into the write buffer.
    pub fn complete(&mut self, seq: u64, response: HttpResponse) {
        self.parked.insert(seq, response);
        while let Some(response) = self.parked.remove(&self.next_to_write) {
            let keep_alive =
                self.keep_alive.remove(&self.next_to_write).unwrap_or(false) && !self.peer_closed;
            self.write_buf
                .extend_from_slice(&response.to_bytes(keep_alive));
            self.next_to_write += 1;
            self.inflight -= 1;
            self.served += 1;
        }
    }

    /// Buffers a `408 Request Timeout` for a stalled partial request and
    /// marks the connection closing (the read-timeout expiry action).
    pub fn timeout_request(&mut self) {
        let response = error_response(
            408,
            "request_timeout",
            "request not completed within the read timeout".to_string(),
        );
        self.write_buf.extend_from_slice(&response.to_bytes(false));
        self.closing = true;
    }

    /// The unsent portion of the write buffer.
    pub fn writable(&self) -> &[u8] {
        &self.write_buf[self.write_pos..]
    }

    /// Records `n` bytes accepted by the socket; compacts once drained.
    pub fn advance_write(&mut self, n: usize, now_ms: u64) {
        self.write_pos += n;
        if self.write_pos >= self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        self.last_write_progress_ms = now_ms;
        self.last_activity_ms = now_ms;
    }

    /// Whether the reactor should wait for this connection to be readable.
    pub(crate) fn want_read(&self) -> bool {
        !self.closing
            && !self.peer_closed
            && self.inflight < MAX_PIPELINE
            && self.pending_write_bytes() < WRITE_BUF_LIMIT
    }

    /// Whether unsent response bytes are waiting on the socket.
    pub(crate) fn want_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Unsent response bytes currently buffered.
    fn pending_write_bytes(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Requests parsed but not yet answered.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    /// Whether the connection is done: closing, nothing in flight, and
    /// the write buffer flushed.
    pub fn should_close(&self) -> bool {
        (self.closing && self.inflight == 0 && !self.want_write())
            || (self.peer_closed && !self.want_write() && self.inflight == 0)
    }

    /// The single effective deadline and its kind.
    pub fn deadline(&self) -> (u64, TimeoutKind) {
        if self.want_write() {
            (
                self.last_write_progress_ms + WRITE_TIMEOUT_MS,
                TimeoutKind::Write,
            )
        } else if self.parser.mid_request() {
            (
                self.last_read_progress_ms + READ_TIMEOUT_MS,
                TimeoutKind::Read,
            )
        } else {
            (self.last_activity_ms + IDLE_TIMEOUT_MS, TimeoutKind::Idle)
        }
    }

    fn touch_read(&mut self, now_ms: u64) {
        self.last_read_progress_ms = now_ms;
        self.last_activity_ms = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Vec<u8> {
        format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
    }

    #[test]
    fn single_request_round_trip_keeps_alive() {
        let mut conn = ConnState::new(0);
        let out = conn.on_bytes(&get("/health"), 0);
        assert_eq!(out.requests.len(), 1);
        assert_eq!(out.requests[0].0, 0);
        assert_eq!(conn.inflight(), 1);
        conn.complete(0, HttpResponse::text(200, "ok".into()));
        assert!(conn.want_write());
        let text = String::from_utf8_lossy(conn.writable()).to_string();
        assert!(text.contains("Connection: keep-alive"));
        let n = conn.writable().len();
        conn.advance_write(n, 1);
        assert!(!conn.should_close(), "keep-alive stays open");
    }

    #[test]
    fn out_of_order_completions_serialize_in_request_order() {
        let mut conn = ConnState::new(0);
        let mut raw = get("/a");
        raw.extend_from_slice(&get("/b"));
        raw.extend_from_slice(&get("/c"));
        let out = conn.on_bytes(&raw, 0);
        assert_eq!(out.requests.len(), 3);
        assert_eq!(out.pipelined, 2, "second and third arrived pipelined");

        conn.complete(2, HttpResponse::text(200, "C".into()));
        assert!(!conn.want_write(), "seq 0 not done yet; 2 parks");
        conn.complete(0, HttpResponse::text(200, "A".into()));
        conn.complete(1, HttpResponse::text(200, "B".into()));
        let text = String::from_utf8_lossy(conn.writable()).to_string();
        // Bodies are "A"/"B"/"C", each right after its blank line.
        let (a, b, c) = (
            text.find("\r\n\r\nA").unwrap(),
            text.find("\r\n\r\nB").unwrap(),
            text.find("\r\n\r\nC").unwrap(),
        );
        assert!(a < b && b < c, "responses leave in request order");
        assert_eq!(conn.inflight(), 0);
    }

    #[test]
    fn connection_close_request_stops_parsing_and_closes_after_flush() {
        let mut conn = ConnState::new(0);
        let mut raw = b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        raw.extend_from_slice(&get("/never-answered"));
        let out = conn.on_bytes(&raw, 0);
        assert_eq!(out.requests.len(), 1, "nothing after a close request");
        conn.complete(0, HttpResponse::text(200, "bye".into()));
        let text = String::from_utf8_lossy(conn.writable()).to_string();
        assert!(text.contains("Connection: close"));
        let n = conn.writable().len();
        conn.advance_write(n, 1);
        assert!(conn.should_close());
    }

    #[test]
    fn pipeline_bound_pauses_parsing_until_completions_free_slots() {
        let mut conn = ConnState::new(0);
        let raw: Vec<u8> = (0..=MAX_PIPELINE)
            .flat_map(|i| get(&format!("/{i}")))
            .collect();
        let out = conn.on_bytes(&raw, 0);
        assert_eq!(
            out.requests.len(),
            MAX_PIPELINE,
            "parsing pauses at the bound"
        );
        assert!(!conn.want_read(), "backpressure: reads pause");

        conn.complete(0, HttpResponse::text(200, "ok".into()));
        let out = conn.drain_parser();
        assert_eq!(out.requests.len(), 1, "a freed slot resumes parsing");
        assert_eq!(out.requests[0].0, MAX_PIPELINE as u64);
    }

    #[test]
    fn write_buffer_backpressure_pauses_reading() {
        let mut conn = ConnState::new(0);
        conn.on_bytes(&get("/big"), 0);
        conn.complete(0, HttpResponse::text(200, "x".repeat(WRITE_BUF_LIMIT)));
        assert!(conn.pending_write_bytes() > WRITE_BUF_LIMIT);
        assert!(!conn.want_read());
        let n = conn.writable().len();
        conn.advance_write(n, 1);
        assert!(conn.want_read(), "flushing resumes reads");
    }

    #[test]
    fn deadline_tracks_connection_phase() {
        let mut conn = ConnState::new(1_000);
        // Fresh: idle deadline.
        assert_eq!(
            conn.deadline(),
            (1_000 + IDLE_TIMEOUT_MS, TimeoutKind::Idle)
        );
        // Partial request at t=2000: read deadline from last progress.
        conn.on_bytes(b"GET /slow HTT", 2_000);
        assert_eq!(
            conn.deadline(),
            (2_000 + READ_TIMEOUT_MS, TimeoutKind::Read)
        );
        // Complete it; an unflushed response means a write deadline.
        conn.on_bytes(b"P/1.1\r\n\r\n", 3_000);
        conn.complete(0, HttpResponse::text(200, "ok".into()));
        assert_eq!(conn.deadline().1, TimeoutKind::Write);
        // Flushed: idle again, from the flush time.
        let n = conn.writable().len();
        conn.advance_write(n, 4_000);
        assert_eq!(
            conn.deadline(),
            (4_000 + IDLE_TIMEOUT_MS, TimeoutKind::Idle)
        );
    }

    #[test]
    fn read_timeout_answers_408_and_closes() {
        let mut conn = ConnState::new(0);
        conn.on_bytes(b"POST /v1/plan HTTP/1.1\r\nContent-Le", 0);
        conn.timeout_request();
        let text = String::from_utf8_lossy(conn.writable()).to_string();
        assert!(text.starts_with("HTTP/1.1 408 Request Timeout\r\n"));
        assert!(text.contains("Connection: close"));
        let n = conn.writable().len();
        conn.advance_write(n, 1);
        assert!(conn.should_close());
    }

    #[test]
    fn parse_fault_buffers_the_error_response_and_closes() {
        let mut conn = ConnState::new(0);
        let out = conn.on_bytes(b"\r\n", 0);
        assert!(out.fault.is_some());
        let text = String::from_utf8_lossy(conn.writable()).to_string();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        let n = conn.writable().len();
        conn.advance_write(n, 1);
        assert!(conn.should_close());
    }

    #[test]
    fn keepalive_reuse_counts_second_request() {
        let mut conn = ConnState::new(0);
        let out = conn.on_bytes(&get("/a"), 0);
        assert_eq!(out.keepalive_reuse, 0);
        conn.complete(0, HttpResponse::text(200, "ok".into()));
        let n = conn.writable().len();
        conn.advance_write(n, 1);
        let out = conn.on_bytes(&get("/b"), 2);
        assert_eq!(out.keepalive_reuse, 1);
    }
}
