//! The reactor: one thread multiplexing the listener, a self-pipe
//! waker, and every connection over the readiness [`super::sys::Poller`].
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
//! Connections are identified two ways: a slab **token** (poller
//! registration, reused after close) and a monotonically increasing
//! **connection id** (completion routing and timer entries, never
//! reused) — a late completion or stale timer for a closed connection
//! resolves to nothing instead of hitting a recycled slot.

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

use super::conn::{ConnState, ReadOutcome, TimeoutKind};
use super::sys::{Event, Interest, Poller};
use super::timer::TimerWheel;
use super::NetMetrics;

const LISTENER_TOKEN: usize = 0;
const WAKER_TOKEN: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// A finished job routed back to the reactor.
struct Completion {
    conn_id: u64,
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

/// One live connection in the slab.
struct ConnEntry {
    id: u64,
    stream: TcpStream,
    state: ConnState,
    /// Parse timestamp per in-flight sequence (lifecycle histogram).
    started_ms: HashMap<u64, u64>,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// `timer_generation` value last armed in the wheel — avoids
    /// flooding the wheel with an entry per state change.
    armed_generation: Option<u64>,
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
    /// I/O errors creating the poller or the self-pipe, or registering
    /// the initial fds.
    pub(crate) fn spawn(service: Arc<Service>, listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;

        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;

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
                        poller,
                        shared,
                        metrics,
                        conns: Vec::new(),
                        by_id: HashMap::new(),
                        free_tokens: Vec::new(),
                        wheel: TimerWheel::new(),
                        next_conn_id: 0,
                        epoch: Instant::now(),
                        accepting: true,
                    };
                    loop_state.run();
                })
                .expect("spawn reactor")
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
    /// Slab: index = token − [`FIRST_CONN_TOKEN`].
    conns: Vec<Option<ConnEntry>>,
    /// Connection id → token, for completion and timer routing.
    by_id: HashMap<u64, usize>,
    free_tokens: Vec<usize>,
    wheel: TimerWheel,
    next_conn_id: u64,
    epoch: Instant,
    accepting: bool,
}

impl EventLoop {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.begin_shutdown();
                if self.by_id.is_empty() {
                    break;
                }
            }
            let timeout = self
                .wheel
                .next_deadline_ms()
                .map(|deadline| deadline.saturating_sub(self.now_ms()).min(1_000))
                .or(Some(1_000));
            if let Err(e) = self.poller.wait(timeout, &mut events) {
                eprintln!("nshard-serve reactor: poll failed: {e}");
                break;
            }
            let batch: Vec<Event> = events.clone();
            for event in batch {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token => self.conn_ready(token, event),
                }
            }
            self.drain_completions();
            self.fire_timers();
        }
    }

    /// Stop accepting and force-close every connection with nothing left
    /// to deliver; connections with in-flight jobs or unflushed bytes
    /// drain first (admitted work still gets its response).
    fn begin_shutdown(&mut self) {
        if self.accepting {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.accepting = false;
        }
        let ids: Vec<u64> = self.by_id.keys().copied().collect();
        for id in ids {
            let Some(&token) = self.by_id.get(&id) else {
                continue;
            };
            let done = {
                let Some(entry) = self.entry_mut(token) else {
                    continue;
                };
                entry.state.inflight() == 0 && !entry.state.want_write()
            };
            if done {
                self.close_conn(token);
            }
        }
    }

    fn entry_mut(&mut self, token: usize) -> Option<&mut ConnEntry> {
        self.conns
            .get_mut(token.checked_sub(FIRST_CONN_TOKEN)?)?
            .as_mut()
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if !self.accepting {
                        continue; // drained and dropped during shutdown
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = self.now_ms();
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let token = match self.free_tokens.pop() {
                        Some(token) => token,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1 + FIRST_CONN_TOKEN
                        }
                    };
                    let entry = ConnEntry {
                        id,
                        stream,
                        state: ConnState::new(now),
                        started_ms: HashMap::new(),
                        registered: Interest::READ,
                        armed_generation: None,
                    };
                    if self
                        .poller
                        .register(entry.stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        self.free_tokens.push(token);
                        continue;
                    }
                    self.conns[token - FIRST_CONN_TOKEN] = Some(entry);
                    self.by_id.insert(id, token);
                    self.metrics.accepted_total.inc();
                    self.metrics.open_connections.inc();
                    self.rearm(token);
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

    fn conn_ready(&mut self, token: usize, event: Event) {
        if self.entry_mut(token).is_none() {
            return; // already closed earlier in this batch
        }
        if event.error && !event.readable && !event.writable {
            self.close_conn(token);
            return;
        }
        if event.readable {
            self.read_ready(token);
        }
        if self.entry_mut(token).is_some() && event.writable {
            self.write_ready(token);
        }
        self.finish_conn_turn(token);
    }

    /// Reads until `WouldBlock`, feeding the parser and dispatching any
    /// complete requests.
    fn read_ready(&mut self, token: usize) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(entry) = self.entry_mut(token) else {
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
                    let Some(entry) = self.entry_mut(token) else {
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
        let Some(entry) = self.entry_mut(token) else {
            return;
        };
        let conn_id = entry.id;
        for (seq, request) in outcome.requests {
            let Some(entry) = self.entry_mut(token) else {
                return;
            };
            entry.started_ms.insert(seq, now);
            let shared = Arc::clone(&self.shared);
            let callback = Box::new(move |response: HttpResponse| {
                shared
                    .completions
                    .lock()
                    .expect("completions poisoned")
                    .push(Completion {
                        conn_id,
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
        let Some(entry) = self.entry_mut(token) else {
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
            let Some(entry) = self.entry_mut(token) else {
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

    /// After any activity on a connection: resume paused parsing, close
    /// if finished, otherwise refresh poller interest and the timer.
    fn finish_conn_turn(&mut self, token: usize) {
        // Completions may have freed pipeline slots with bytes already
        // buffered in the parser.
        let pending = {
            let Some(entry) = self.entry_mut(token) else {
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

        let Some(entry) = self.entry_mut(token) else {
            return;
        };
        if entry.state.should_close() {
            self.close_conn(token);
            return;
        }
        let desired = Interest {
            read: entry.state.want_read(),
            write: entry.state.want_write(),
        };
        if desired != entry.registered {
            let fd = entry.stream.as_raw_fd();
            entry.registered = desired;
            let _ = self.poller.modify(fd, token, desired);
        }
        self.rearm(token);
    }

    /// Arms the connection's current deadline in the wheel (keyed by
    /// connection id, validated by generation on expiry).
    fn rearm(&mut self, token: usize) {
        let Some(entry) = self.entry_mut(token) else {
            return;
        };
        let generation = entry.state.timer_generation;
        if entry.armed_generation == Some(generation) {
            return;
        }
        entry.armed_generation = Some(generation);
        let (deadline, _kind) = entry.state.deadline();
        let id = entry.id;
        self.wheel.arm(id as usize, generation, deadline);
    }

    fn drain_completions(&mut self) {
        let completions: Vec<Completion> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completions poisoned"),
        );
        let mut touched: Vec<usize> = Vec::new();
        for completion in completions {
            let Some(&token) = self.by_id.get(&completion.conn_id) else {
                continue; // connection closed before its job finished
            };
            self.complete_on(token, completion.seq, completion.response);
            if !touched.contains(&token) {
                touched.push(token);
            }
        }
        for token in touched {
            self.write_ready(token);
            if self.entry_mut(token).is_some() {
                self.finish_conn_turn(token);
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = self.now_ms();
        for expiry in self.wheel.pop_due(now) {
            let conn_id = expiry.token as u64;
            let Some(&token) = self.by_id.get(&conn_id) else {
                continue; // connection already closed
            };
            let action = {
                let Some(entry) = self.entry_mut(token) else {
                    continue;
                };
                if entry.state.timer_generation != expiry.generation {
                    continue; // stale entry; the live one is still armed
                }
                let (deadline, kind) = entry.state.deadline();
                if deadline > now {
                    // The deadline moved without a generation-visible
                    // state change; re-arm the real one.
                    entry.armed_generation = None;
                    None
                } else {
                    Some(kind)
                }
            };
            match action {
                None => self.rearm(token),
                Some(kind @ (TimeoutKind::Idle | TimeoutKind::Write)) => {
                    self.metrics.count_timeout(kind);
                    self.close_conn(token);
                }
                Some(TimeoutKind::Read) => {
                    self.metrics.count_timeout(TimeoutKind::Read);
                    if let Some(entry) = self.entry_mut(token) {
                        entry.state.timeout_request();
                    }
                    self.write_ready(token);
                    if self.entry_mut(token).is_some() {
                        self.finish_conn_turn(token);
                    }
                }
            }
        }
    }

    fn close_conn(&mut self, token: usize) {
        let Some(entry) = self
            .conns
            .get_mut(token - FIRST_CONN_TOKEN)
            .and_then(Option::take)
        else {
            return;
        };
        let _ = self.poller.deregister(entry.stream.as_raw_fd());
        self.by_id.remove(&entry.id);
        self.free_tokens.push(token);
        self.metrics.open_connections.dec();
        // entry.stream drops here, closing the socket.
    }
}
