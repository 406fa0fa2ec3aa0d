//! `serve::net` — the event-driven serving core.
//!
//! A single reactor thread multiplexes every connection over a
//! level-triggered readiness poller (`epoll(7)` on Linux, `poll(2)`
//! portable fallback — `sys`), with per-connection state machines
//! (`conn`) doing incremental HTTP/1.1 parsing (`parser`), keep-alive
//! and pipelined request handling over reusable buffers, write
//! backpressure, and idle/read/write timeouts (`timer`).
//!
//! The reactor is the daemon's only **I/O edge**: every byte reaches
//! [`crate::server::Service`] through it, and everything behind it — the
//! bounded admission queue, deadline checks, degradation ladder
//! (429/503/greedy-degrade), and worker pool — is socket-free, so
//! `tests/serve_net.rs` pins the daemon's answers to
//! [`crate::server::Service::handle_blocking`] on an identically-seeded
//! in-process service.
//!
//! Workers never touch sockets: they deliver finished responses into a
//! completion queue and nudge the reactor through a self-pipe waker;
//! the reactor serializes responses in request order per connection.

mod conn;
mod parser;
pub(crate) mod reactor;
pub(crate) mod sys;
mod timer;

pub use conn::{ConnState, ReadOutcome, TimeoutKind, IDLE_TIMEOUT_MS, READ_TIMEOUT_MS};
pub use parser::{ParseFault, ParseStep, ParsedRequest, RequestParser, MAX_HEADER_BYTES};
pub use timer::{Expiry, TimerWheel};

use std::sync::Arc;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Event-loop series registered into the service's shared
/// [`MetricsRegistry`], so `/metrics` exposes the connection plane next
/// to the admission plane.
pub(crate) struct NetMetrics {
    /// Currently open connections.
    pub(crate) open_connections: Arc<Gauge>,
    /// Connections accepted over the daemon's lifetime.
    pub(crate) accepted_total: Arc<Counter>,
    /// Requests served over an already-used keep-alive connection.
    pub(crate) keepalive_reuse_total: Arc<Counter>,
    /// Requests parsed while earlier requests on the same connection
    /// were still in flight (HTTP/1.1 pipelining).
    pub(crate) pipelined_requests_total: Arc<Counter>,
    /// Accept→parse→admit→respond wall-clock per request, ms (measured
    /// from request fully parsed to response serialized).
    pub(crate) request_lifecycle: Arc<Histogram>,
    timeouts: [Arc<Counter>; 3],
    parse_faults: [Arc<Counter>; 3],
}

impl NetMetrics {
    /// Registers (or re-attaches to) the event-loop series in
    /// `registry`.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        let timeout = |kind: TimeoutKind| {
            registry.counter(
                &format!("nshard_net_timeouts_total{{kind=\"{}\"}}", kind.label()),
                "Connections expired by the timeout wheel, by kind",
            )
        };
        let fault = |kind: &str| {
            registry.counter(
                &format!("nshard_net_parse_faults_total{{kind=\"{kind}\"}}"),
                "Connections answered an error and closed for unparseable requests, by kind",
            )
        };
        Self {
            open_connections: registry.gauge(
                "nshard_net_open_connections",
                "Connections currently open on the event loop",
            ),
            accepted_total: registry.counter(
                "nshard_net_accepted_total",
                "Connections accepted by the event loop",
            ),
            keepalive_reuse_total: registry.counter(
                "nshard_net_keepalive_reuse_total",
                "Requests served over an already-used keep-alive connection",
            ),
            pipelined_requests_total: registry.counter(
                "nshard_net_pipelined_requests_total",
                "Requests parsed while earlier requests on the same connection were in flight",
            ),
            request_lifecycle: registry.histogram(
                "nshard_net_request_lifecycle_ms",
                "Accept-to-response-serialized latency per event-loop request, ms",
            ),
            timeouts: [
                timeout(TimeoutKind::Idle),
                timeout(TimeoutKind::Read),
                timeout(TimeoutKind::Write),
            ],
            parse_faults: [
                fault("bad_request"),
                fault("headers_too_large"),
                fault("body_too_large"),
            ],
        }
    }

    /// Counts one connection timeout of `kind` (idle/read/write).
    pub(crate) fn count_timeout(&self, kind: TimeoutKind) {
        let i = match kind {
            TimeoutKind::Idle => 0,
            TimeoutKind::Read => 1,
            TimeoutKind::Write => 2,
        };
        self.timeouts[i].inc();
    }

    /// Counts one connection torn down by a parse fault (400/413/431).
    pub(crate) fn count_parse_fault(&self, fault: &ParseFault) {
        let i = match fault {
            ParseFault::Malformed(_) => 0,
            ParseFault::HeadersTooLarge { .. } => 1,
            ParseFault::BodyTooLarge { .. } => 2,
        };
        self.parse_faults[i].inc();
    }
}
