//! Admission control: the bounded job queue between the router and the
//! worker pool, and the hand-off cell a socket-free caller waits on.
//!
//! The queue is **bounded** — a full queue sheds load with `429` +
//! `Retry-After` instead of letting latency grow without bound — and a
//! closed queue still hands out everything already admitted, so shutdown
//! answers every accepted job.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::api::error_response;
use crate::http::HttpResponse;
use crate::metrics::Gauge;
use crate::sync;

use super::cache::response_cache_key;
use super::Service;

/// Which queued endpoint a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum JobKind {
    Plan,
    Replan,
}

impl JobKind {
    pub(super) fn endpoint(self) -> &'static str {
        match self {
            JobKind::Plan => "plan",
            JobKind::Replan => "replan",
        }
    }
}

/// Where a worker delivers a finished response. The reactor passes a
/// closure that pushes onto its completion queue (its thread never
/// blocks); [`Service::route`] passes one that fills a [`ResponseSlot`].
pub(super) type OnResponse = Box<dyn FnOnce(HttpResponse) + Send>;

/// A queued planning request.
pub(super) struct Job {
    pub(super) kind: JobKind,
    pub(super) body: Vec<u8>,
    pub(super) enqueued_ms: u64,
    pub(super) on_response: OnResponse,
}

/// Hand-off cell between a worker and a caller blocked in
/// [`ResponseSlot::wait`] (the socket-free [`Service::route`] path).
pub struct ResponseSlot {
    cell: Mutex<Option<HttpResponse>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(super) fn new() -> Arc<Self> {
        Arc::new(Self {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    pub(super) fn put(&self, response: HttpResponse) {
        let mut cell = sync::lock(&self.cell);
        *cell = Some(response);
        self.ready.notify_all();
    }

    /// Blocks until a worker fills the slot.
    pub fn wait(&self) -> HttpResponse {
        let mut cell = sync::lock(&self.cell);
        loop {
            if let Some(response) = cell.take() {
                return response;
            }
            cell = sync::wait(&self.ready, cell);
        }
    }
}

/// Result of routing one request.
pub enum Routed {
    /// Answered without queueing.
    Inline(HttpResponse),
    /// Admitted; the slot resolves when a worker finishes the job.
    Queued(Arc<ResponseSlot>),
}

/// Why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rejection {
    /// The bounded queue is full — shed load, retry later.
    QueueFull,
    /// The daemon is draining for shutdown.
    ShuttingDown,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded admission queue.
pub(super) struct AdmissionQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
    capacity: usize,
    depth: Arc<Gauge>,
}

impl AdmissionQueue {
    pub(super) fn new(capacity: usize, depth: Arc<Gauge>) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity,
            depth,
        }
    }

    fn push(&self, job: Job) -> Result<(), Rejection> {
        let mut state = sync::lock(&self.state);
        if state.closed {
            return Err(Rejection::ShuttingDown);
        }
        if state.jobs.len() >= self.capacity {
            return Err(Rejection::QueueFull);
        }
        state.jobs.push_back(job);
        self.depth.set(state.jobs.len() as u64);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed **and** drained, so
    /// shutdown still answers everything already admitted.
    fn pop(&self) -> Option<Job> {
        let mut state = sync::lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.depth.set(state.jobs.len() as u64);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = sync::wait(&self.nonempty, state);
        }
    }

    /// Non-blocking pop (the synchronous test hook).
    fn try_pop(&self) -> Option<Job> {
        let mut state = sync::lock(&self.state);
        let job = state.jobs.pop_front();
        self.depth.set(state.jobs.len() as u64);
        job
    }

    fn close(&self) {
        sync::lock(&self.state).closed = true;
        self.nonempty.notify_all();
    }
}

impl Service {
    /// Admits a planning job (`None`), or returns an inline response: a
    /// shed (`429`/`503`) or an admission-time response-cache hit (`200`).
    pub(super) fn admit(
        &self,
        kind: JobKind,
        body: Vec<u8>,
        on_response: OnResponse,
    ) -> Option<HttpResponse> {
        // The response cache's one read: a hit is answered inline without
        // consuming queue capacity — equivalent to a worker picking the job
        // up instantly. Only full-budget answers are stored, so a body
        // whose deadline forces degradation (or instant expiry) finds no
        // entry and goes to a worker, which decides both.
        if let Some(cache) = &self.response_cache {
            let key = response_cache_key(kind, self.cache_generation(kind), &body);
            if let Some(hit) = sync::lock(cache).get(key) {
                self.metrics.response_cache_hits.inc();
                self.metrics.count_request(kind.endpoint(), hit.status);
                return Some(hit);
            }
            self.metrics.response_cache_misses.inc();
        }
        let job = Job {
            kind,
            body,
            enqueued_ms: self.clock.now_ms(),
            on_response,
        };
        match self.queue.push(job) {
            Ok(()) => None,
            Err(Rejection::QueueFull) => {
                self.metrics.count_rejection("queue_full");
                self.metrics.count_request(kind.endpoint(), 429);
                Some(
                    error_response(
                        429,
                        "queue_full",
                        format!(
                            "admission queue at capacity ({}); retry later",
                            self.config.queue_capacity
                        ),
                    )
                    .with_retry_after(1),
                )
            }
            Err(Rejection::ShuttingDown) => {
                self.metrics.count_rejection("shutdown");
                self.metrics.count_request(kind.endpoint(), 503);
                Some(
                    error_response(503, "shutting_down", "daemon is draining".to_string())
                        .with_retry_after(5),
                )
            }
        }
    }

    /// Worker body: blocks for the next job and processes it. Returns
    /// `false` once the queue is closed and drained.
    pub(super) fn drain_blocking(&self) -> bool {
        match self.queue.pop() {
            Some(job) => {
                self.process(job);
                true
            }
            None => false,
        }
    }

    /// Synchronously processes one queued job if any — the no-sleep test
    /// hook. Returns `false` when the queue was empty.
    pub fn drain_one(&self) -> bool {
        match self.queue.try_pop() {
            Some(job) => {
                self.process(job);
                true
            }
            None => false,
        }
    }

    /// Stops admission and lets workers drain what was already accepted.
    pub(super) fn close(&self) {
        self.queue.close();
    }
}
