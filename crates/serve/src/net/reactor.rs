//! The reactor: one thread multiplexing the listener, a self-pipe
//! waker, and every connection over `poll(2)` ([`super::sys::Poller`]).
//!
//! # Shape
//!
//! ```text
//!                    ┌───────────────── reactor thread ─────────────────┐
//!   accept ─────────▶│ listener (nonblocking)                           │
//!                    │    │ accept                                      │
//!                    │    ▼                                             │
//!   bytes ──────────▶│ ConnState: parse ─▶ Service::route_async ────────┼──▶ admission
//!                    │    ▲                   │ inline (GET/shed)       │    queue
//!                    │    │ in-order          ▼                         │      │
//!   bytes ◀──────────│ serialize ◀─── completion queue ◀── callback ◀───┼──────┘
//!                    │                        ▲                         │   (workers)
//!                    │ waker (self-pipe) ─────┘                         │
//!                    └──────────────────────────────────────────────────┘
//! ```
//!
//! Workers never touch sockets: a finished job's callback pushes
//! `(conn, seq, response)` onto the completion queue and writes one byte
//! into the self-pipe, waking the poller. The reactor serializes
//! responses in request order per connection ([`super::conn`]) and
//! handles all reads, writes, accepts, and timeouts itself.
//!
//! Connections live in one table keyed by a **token** that counts up and
//! is never reused: it is the event key, the completion key and the
//! timeout key, so a late completion or a stale event for a closed
//! connection finds no entry instead of a recycled one. The table is the
//! only record of what to wait on: each turn starts by reading the wait
//! list off it (the listener while accepting, the waker, and every
//! connection with [`ConnState::want_read`] / [`ConnState::want_write`] as
//! its interest), and ends by reading every live connection's
//! [`ConnState::deadline`] off it ([`scan_deadlines`]): due connections
//! expire, and the earliest pending deadline bounds the next wait.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::http::HttpResponse;
use crate::server::Service;
use crate::sync;

use super::conn::{ConnState, ReadOutcome, TimeoutKind};
use super::sys::{Event, Interest, Poller};
use super::NetMetrics;

const LISTENER_TOKEN: usize = 0;
const WAKER_TOKEN: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// A finished job routed back to the reactor.
struct Completion {
    token: usize,
    seq: u64,
    response: HttpResponse,
}

/// Shared between worker callbacks and the reactor thread.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    /// Write half of the self-pipe; one byte = "check the queue".
    waker_tx: UnixStream,
    stop: AtomicBool,
}

impl Shared {
    fn wake(&self) {
        // A full pipe means a wake-up is already pending — exactly the
        // signal we wanted to send, so WouldBlock is success here.
        let _ = (&self.waker_tx).write(&[1u8]);
    }
}

/// One live connection in the table.
struct ConnEntry {
    stream: TcpStream,
    state: ConnState,
    /// Parse timestamp per in-flight sequence (lifecycle histogram).
    started_ms: HashMap<u64, u64>,
}

/// Handle to the running reactor thread.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Starts the reactor over `listener` (moved to nonblocking mode).
    ///
    /// # Errors
    ///
    /// I/O errors setting up the listener, creating the self-pipe or
    /// spawning the reactor thread.
    pub(crate) fn spawn(service: Arc<Service>, listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            waker_tx,
            stop: AtomicBool::new(false),
        });
        let metrics = NetMetrics::new(&service.metrics.registry);

        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("nshard-serve-reactor".into())
                .spawn(move || {
                    let mut loop_state = EventLoop {
                        service,
                        listener,
                        waker_rx,
                        poller: Poller::default(),
                        shared,
                        metrics,
                        conns: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        epoch: Instant::now(),
                        accepting: true,
                    };
                    loop_state.run();
                })?
        };
        Ok(Self {
            shared,
            thread: Some(thread),
        })
    }

    /// Stops accepting, force-closes idle connections, flushes what can
    /// be flushed, and joins the thread.
    pub(crate) fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

struct EventLoop {
    service: Arc<Service>,
    listener: TcpListener,
    waker_rx: UnixStream,
    poller: Poller,
    shared: Arc<Shared>,
    metrics: NetMetrics,
    /// Live connections by token.
    conns: HashMap<usize, ConnEntry>,
    /// The next connection's token; tokens are never reused.
    next_token: usize,
    epoch: Instant,
    accepting: bool,
}

/// Reads the deadline of every `(token, state)` pair at `now_ms`: the
/// connections due (a deadline equal to `now_ms` is due), each with its
/// timeout kind, and the earliest deadline still pending.
fn scan_deadlines<'a>(
    conns: impl IntoIterator<Item = (usize, &'a ConnState)>,
    now_ms: u64,
) -> (Vec<(usize, TimeoutKind)>, Option<u64>) {
    let mut due = Vec::new();
    let mut pending: Option<u64> = None;
    for (token, state) in conns {
        match state.deadline() {
            (deadline, kind) if deadline <= now_ms => due.push((token, kind)),
            (deadline, _) => pending = Some(pending.map_or(deadline, |p| p.min(deadline))),
        }
    }
    (due, pending)
}

impl EventLoop {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_deadline: Option<u64> = None;
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.begin_shutdown();
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = next_deadline.map_or(1_000, |deadline| {
                deadline.saturating_sub(self.now_ms()).min(1_000)
            });
            self.watch_table();
            if let Err(e) = self.poller.wait(timeout, &mut events) {
                eprintln!("nshard-serve reactor: poll failed: {e}");
                break;
            }
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token => self.conn_ready(token, event),
                }
            }
            self.drain_completions();
            next_deadline = self.fire_timers();
        }
    }

    /// This turn's wait list, read off the table.
    fn watch_table(&mut self) {
        self.poller.clear();
        if self.accepting {
            let fd = self.listener.as_raw_fd();
            self.poller.watch(fd, LISTENER_TOKEN, Interest::READ);
        }
        self.poller
            .watch(self.waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ);
        for (&token, entry) in &self.conns {
            let interest = Interest {
                read: entry.state.want_read(),
                write: entry.state.want_write(),
            };
            self.poller.watch(entry.stream.as_raw_fd(), token, interest);
        }
    }

    /// Stop accepting and force-close every connection with nothing left
    /// to deliver; connections with in-flight jobs or unflushed bytes
    /// drain first (admitted work still gets its response).
    fn begin_shutdown(&mut self) {
        self.accepting = false;
        let done: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, entry)| entry.state.inflight() == 0 && !entry.state.want_write())
            .map(|(&token, _)| token)
            .collect();
        for token in done {
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let entry = ConnEntry {
                        stream,
                        state: ConnState::new(self.now_ms()),
                        started_ms: HashMap::new(),
                    };
                    self.conns.insert(token, entry);
                    self.metrics.accepted_total.inc();
                    self.metrics.open_connections.inc();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        while let Ok(n) = (&self.waker_rx).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }

    /// Every step below finds no entry, and does nothing, for a
    /// connection closed earlier in this batch.
    fn conn_ready(&mut self, token: usize, event: Event) {
        if event.readable {
            self.read_ready(token);
        }
        if event.writable {
            self.write_ready(token);
        }
        self.finish_conn_turn(token);
    }

    /// Reads until `WouldBlock`, feeding the parser and dispatching any
    /// complete requests.
    fn read_ready(&mut self, token: usize) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            if !entry.state.want_read() {
                break;
            }
            match entry.stream.read(&mut buf) {
                Ok(0) => {
                    entry.state.on_peer_closed();
                    break;
                }
                Ok(n) => {
                    let now = self.now_ms();
                    let Some(entry) = self.conns.get_mut(&token) else {
                        return;
                    };
                    let outcome = entry.state.on_bytes(&buf[..n], now);
                    self.dispatch(token, outcome, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Routes every parsed request; inline responses complete
    /// immediately, queued jobs get a completion-queue callback.
    fn dispatch(&mut self, token: usize, outcome: ReadOutcome, now: u64) {
        if let Some(fault) = &outcome.fault {
            self.metrics.count_parse_fault(fault);
        }
        for _ in 0..outcome.keepalive_reuse {
            self.metrics.keepalive_reuse_total.inc();
        }
        for _ in 0..outcome.pipelined {
            self.metrics.pipelined_requests_total.inc();
        }
        for (seq, request) in outcome.requests {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            entry.started_ms.insert(seq, now);
            let shared = Arc::clone(&self.shared);
            let callback = Box::new(move |response: HttpResponse| {
                sync::lock(&shared.completions).push(Completion {
                    token,
                    seq,
                    response,
                });
                shared.wake();
            });
            let inline = self.service.route_async(&request, callback);
            if let Some(response) = inline {
                self.complete_on(token, seq, response);
            }
        }
    }

    /// Delivers one response into its connection's ordered pipeline.
    fn complete_on(&mut self, token: usize, seq: u64, response: HttpResponse) {
        let now = self.now_ms();
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        entry.state.complete(seq, response);
        if let Some(started) = entry.started_ms.remove(&seq) {
            self.metrics
                .request_lifecycle
                .observe(now.saturating_sub(started) as f64);
        }
    }

    /// Writes until `WouldBlock` or the buffer drains.
    fn write_ready(&mut self, token: usize) {
        loop {
            let now = self.now_ms();
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            if !entry.state.want_write() {
                break;
            }
            match entry.stream.write(entry.state.writable()) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    entry.state.advance_write(n, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// After any activity on a connection: resume paused parsing, and
    /// close it if finished.
    fn finish_conn_turn(&mut self, token: usize) {
        // Completions may have freed pipeline slots with bytes already
        // buffered in the parser.
        let pending = {
            let Some(entry) = self.conns.get_mut(&token) else {
                return;
            };
            if entry.state.want_read() {
                let outcome = entry.state.drain_parser();
                (!outcome.requests.is_empty() || outcome.fault.is_some()).then_some(outcome)
            } else {
                None
            }
        };
        if let Some(outcome) = pending {
            let now = self.now_ms();
            self.dispatch(token, outcome, now);
        }

        if self
            .conns
            .get(&token)
            .is_some_and(|entry| entry.state.should_close())
        {
            self.close_conn(token);
        }
    }

    fn drain_completions(&mut self) {
        let completions: Vec<Completion> =
            std::mem::take(&mut *sync::lock(&self.shared.completions));
        let mut touched: Vec<usize> = Vec::new();
        for completion in completions {
            // A connection closed before its job finished has no entry.
            let token = completion.token;
            self.complete_on(token, completion.seq, completion.response);
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        for token in touched {
            self.write_ready(token);
            self.finish_conn_turn(token);
        }
    }

    /// Expires every due connection: `Idle`/`Write` close, `Read` answers
    /// `408`. Returns the earliest deadline still pending.
    fn fire_timers(&mut self) -> Option<u64> {
        let now = self.now_ms();
        let states = self
            .conns
            .iter()
            .map(|(&token, entry)| (token, &entry.state));
        let (due, pending) = scan_deadlines(states, now);
        if due.is_empty() {
            return pending;
        }
        for (token, kind) in due {
            self.metrics.count_timeout(kind);
            if kind != TimeoutKind::Read {
                self.close_conn(token);
                continue;
            }
            if let Some(entry) = self.conns.get_mut(&token) {
                entry.state.timeout_request();
            }
            self.write_ready(token);
            self.finish_conn_turn(token);
        }
        // A `408` the peer does not read can leave a write deadline that
        // is already due: look again without blocking.
        Some(now)
    }

    fn close_conn(&mut self, token: usize) {
        // The entry's stream drops here, closing the socket.
        if self.conns.remove(&token).is_some() {
            self.metrics.open_connections.dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{IDLE_TIMEOUT_MS, READ_TIMEOUT_MS};

    /// A keep-alive connection with nothing in progress since `at`.
    fn idle(at: u64) -> ConnState {
        ConnState::new(at)
    }

    /// A connection whose last request byte arrived at `at`.
    fn mid_request(at: u64) -> ConnState {
        let mut conn = ConnState::new(at);
        conn.on_bytes(b"GET /slow HTT", at);
        conn
    }

    /// A connection accepted at `at` whose answer was never written.
    fn write_stalled(at: u64) -> ConnState {
        let mut conn = ConnState::new(at);
        conn.on_bytes(b"GET /health HTTP/1.1\r\n\r\n", at);
        conn.complete(0, HttpResponse::text(200, "ok".into()));
        conn
    }

    fn scan(
        conns: &[(usize, &ConnState)],
        now_ms: u64,
    ) -> (Vec<(usize, TimeoutKind)>, Option<u64>) {
        scan_deadlines(conns.iter().copied(), now_ms)
    }

    #[test]
    fn only_due_connections_are_returned_each_with_its_kind() {
        let (a, b, c) = (idle(0), mid_request(1_000), write_stalled(2_000));
        let write_deadline = c.deadline().0;
        assert_eq!(c.deadline().1, TimeoutKind::Write);
        let conns = [(2, &a), (3, &b), (4, &c)];

        let (due, pending) = scan(&conns, 1_000 + READ_TIMEOUT_MS);
        assert_eq!(due, vec![(3, TimeoutKind::Read)]);
        assert_eq!(pending, Some(write_deadline));

        let (due, pending) = scan(&conns, write_deadline);
        assert_eq!(due, vec![(3, TimeoutKind::Read), (4, TimeoutKind::Write)]);
        assert_eq!(pending, Some(IDLE_TIMEOUT_MS));

        let (due, pending) = scan(&conns, IDLE_TIMEOUT_MS);
        assert_eq!(due.len(), 3);
        assert_eq!(due[0], (2, TimeoutKind::Idle));
        assert_eq!(pending, None, "nothing left pending");
    }

    #[test]
    fn a_deadline_equal_to_now_is_due() {
        let conn = mid_request(500);
        let deadline = 500 + READ_TIMEOUT_MS;
        assert_eq!(scan(&[(7, &conn)], deadline - 1), (vec![], Some(deadline)));
        assert_eq!(
            scan(&[(7, &conn)], deadline),
            (vec![(7, TimeoutKind::Read)], None)
        );
    }

    #[test]
    fn a_trickled_byte_moves_a_read_deadline_out() {
        let mut conn = mid_request(0);
        let trickle = READ_TIMEOUT_MS - 1;
        conn.on_bytes(b"P", trickle);
        let (due, pending) = scan(&[(2, &conn)], READ_TIMEOUT_MS);
        assert!(due.is_empty(), "the trickle pushed the deadline out");
        assert_eq!(pending, Some(trickle + READ_TIMEOUT_MS));
        // No more progress: due exactly one read timeout after the trickle.
        let (due, _) = scan(&[(2, &conn)], trickle + READ_TIMEOUT_MS);
        assert_eq!(due, vec![(2, TimeoutKind::Read)]);
    }

    #[test]
    fn the_pending_minimum_is_the_earliest_of_the_rest() {
        let (a, b, c, d) = (idle(3_000), mid_request(4_000), idle(0), write_stalled(100));
        let conns = [(2, &a), (3, &b), (4, &c), (5, &d)];
        let (due, pending) = scan(&conns, d.deadline().0);
        assert_eq!(due, vec![(5, TimeoutKind::Write)]);
        assert_eq!(
            pending,
            Some(4_000 + READ_TIMEOUT_MS),
            "earliest of the rest"
        );
        let (due, pending) = scan(&conns, 0);
        assert!(due.is_empty());
        assert_eq!(pending, Some(d.deadline().0));
        assert_eq!(scan(&[], 0), (vec![], None));
    }
}
