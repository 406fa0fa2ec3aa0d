//! The daemon: bounded admission queue, worker pool, endpoint dispatch,
//! and graceful shutdown around the [`crate::net`] reactor.
//!
//! # Request flow
//!
//! ```text
//! reactor thread               bounded queue            worker pool
//! ──────────────────           ─────────────            ───────────────
//! parse HTTP ── GET ──────────────────────────────────▶ answered inline
//!          └─── POST ─▶ admit ─▶ [Job, Job, ...] ─pop─▶ deadline check
//!                        │ full                            │ expired → 503
//!                        ▼                                 │ pressed → degraded chain
//!                       429                                ▼
//!                                                    PlanningEngine
//!                                                          │
//!                          on_response(..) ◀── response ──┘
//! ```
//!
//! Admission control: the queue is **bounded** (`queue_capacity`) — a full
//! queue sheds load with `429` + `Retry-After` instead of letting latency
//! grow without bound. Each job carries its enqueue time; a worker that
//! pops an already-expired job answers `503` without searching, and a job
//! whose remaining budget is below 250 ms is routed through
//! the **degraded** (greedy) chain rather than erroring — the
//! `FallbackChain` discipline applied to deadlines.
//!
//! The worker pool size resolves through the same
//! [`nshard_core::resolve_threads`] path as every other parallel
//! component, so `NSHARD_THREADS` is the single thread-count knob
//! (see [`nshard_pool::THREADS_ENV`]).
//!
//! Determinism: workers add no entropy — identical request bodies produce
//! byte-identical `200` responses at any concurrency, because the engine
//! is deterministic, plan ids are content-addressed, store adoption is
//! idempotent by id, and response bodies contain no timestamps.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use nshard_core::{resolve_threads, NeuroShardConfig};
use nshard_cost::CostModelBundle;
use nshard_data::ShardingTask;
use nshard_online::IncrementalConfig;

use crate::api::{
    source_label, ErrorBody, HealthResponse, ObservationWire, ObservationsAck, ObservationsRequest,
    PlanRequest, PlanResponse, ReplStatus, ReplanRequest, ReplanResponse,
};
use crate::clock::{Clock, WallClock};
use crate::engine::PlanningEngine;
use crate::http::{HttpRequest, HttpResponse};
use crate::kv::{KvSnapshot, LogOp, MatchSeq, PlanKv};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::net::reactor::Reactor;
use crate::repl::{Role, RoleCell};
use crate::store::{fnv64, fnv64_extend, PlanStore, StoreError, StoredPlan};

/// Deadline applied when a request does not carry one, ms.
const DEFAULT_DEADLINE_MS: u64 = 30_000;

/// Remaining-budget threshold below which a request takes the degraded
/// (greedy) chain instead of the full search, ms.
const DEGRADE_BELOW_MS: u64 = 250;

/// Ops retained in the replication log before compaction; followers
/// lagging beyond the window catch up by snapshot.
const LOG_KEEP: usize = 1_024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// NeuroShard search knobs for the full chain.
    pub search: NeuroShardConfig,
    /// Warm-start knobs for `POST /v1/replan`.
    pub incremental: IncrementalConfig,
    /// Seed mixed into chain verifier seeds.
    pub seed: u64,
    /// Bounded admission-queue capacity; a full queue answers `429`.
    pub queue_capacity: usize,
    /// Worker threads draining the queue; `0` = auto via
    /// [`resolve_threads`] (the `NSHARD_THREADS` path).
    pub workers: usize,
    /// Persist adopted plans under this directory; `None` = memory only.
    pub store_dir: Option<PathBuf>,
    /// Replication role and tier knobs; defaults to a standalone leader,
    /// so single-node deployments need no extra configuration.
    pub replica: ReplicaConfig,
    /// Identical-request response cache entries; `0` (default) disables
    /// it. Safe because identical bodies already produce byte-identical
    /// responses (the documented determinism contract) and every entry
    /// keys on the serving model version (replans additionally on the
    /// store generation), so a model promotion or plan adoption
    /// invalidates it. Hits are answered inline at admission without
    /// consuming queue capacity. `bench_replay` turns this on to push
    /// request volume into HTTP-path territory instead of re-running
    /// identical searches.
    pub response_cache_entries: usize,
}

/// Replication knobs of one node in a serve tier.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This node's name, used in failover attribution.
    pub node: String,
    /// Start as a follower (tail a leader's log) instead of as the
    /// leader.
    pub follower: bool,
    /// Consecutive transport failures after which a follower promotes
    /// itself to leader.
    pub failure_threshold: u32,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            node: "node-0".to_string(),
            follower: false,
            failure_threshold: 3,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            search: NeuroShardConfig::default(),
            incremental: IncrementalConfig::default(),
            seed: 0,
            queue_capacity: 64,
            workers: 0,
            store_dir: None,
            replica: ReplicaConfig::default(),
            response_cache_entries: 0,
        }
    }
}

impl ServeConfig {
    /// A fast configuration for tests and demos.
    pub fn smoke() -> Self {
        Self {
            search: NeuroShardConfig::smoke(),
            ..Self::default()
        }
    }
}

/// Which queued endpoint a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Plan,
    Replan,
}

impl JobKind {
    fn endpoint(self) -> &'static str {
        match self {
            JobKind::Plan => "plan",
            JobKind::Replan => "replan",
        }
    }
}

/// Where a worker delivers a finished response. The reactor passes a
/// closure that pushes onto its completion queue (its thread never
/// blocks); [`Service::route`] passes one that fills a [`ResponseSlot`].
type OnResponse = Box<dyn FnOnce(HttpResponse) + Send>;

/// A queued planning request.
struct Job {
    kind: JobKind,
    body: Vec<u8>,
    enqueued_ms: u64,
    on_response: OnResponse,
}

/// Hand-off cell between a worker and a caller blocked in
/// [`ResponseSlot::wait`] (the socket-free [`Service::route`] path).
pub struct ResponseSlot {
    cell: Mutex<Option<HttpResponse>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn put(&self, response: HttpResponse) {
        let mut cell = self.cell.lock().expect("slot poisoned");
        *cell = Some(response);
        self.ready.notify_all();
    }

    /// Blocks until a worker fills the slot.
    pub fn wait(&self) -> HttpResponse {
        let mut cell = self.cell.lock().expect("slot poisoned");
        loop {
            if let Some(response) = cell.take() {
                return response;
            }
            cell = self.ready.wait(cell).expect("slot poisoned");
        }
    }
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
struct AdmissionQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
    capacity: usize,
    depth: Arc<Gauge>,
}

impl AdmissionQueue {
    fn new(capacity: usize, depth: Arc<Gauge>) -> Self {
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
        let mut state = self.state.lock().expect("queue poisoned");
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
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.depth.set(state.jobs.len() as u64);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.nonempty.wait(state).expect("queue poisoned");
        }
    }

    /// Non-blocking pop (the synchronous test hook).
    fn try_pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue poisoned");
        let job = state.jobs.pop_front();
        self.depth.set(state.jobs.len() as u64);
        job
    }

    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.nonempty.notify_all();
    }
}

/// A bounded FIFO cache of `200` responses for byte-identical request
/// bodies. Correctness rests on the daemon's determinism contract —
/// identical bodies already yield byte-identical responses (plan ids are
/// content-addressed, adoption is idempotent) — so a hit only skips
/// redundant search work, never changes an answer. Every entry folds the
/// serving model version into the key (replan entries also the store
/// generation), so a model promotion or plan adoption invalidates it —
/// a response priced by a retired model is never replayed.
struct ResponseCache {
    capacity: usize,
    map: std::collections::HashMap<u64, HttpResponse>,
    order: VecDeque<u64>,
}

impl ResponseCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: std::collections::HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
        }
    }

    fn get(&self, key: u64) -> Option<HttpResponse> {
        self.map.get(&key).cloned()
    }

    fn put(&mut self, key: u64, response: HttpResponse) {
        if self.map.contains_key(&key) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
        self.order.push_back(key);
        self.map.insert(key, response);
    }
}

/// FNV-1a over the facts that determine a cached response.
fn response_cache_key(kind: JobKind, degrade: bool, generation: u64, body: &[u8]) -> u64 {
    let kind = match kind {
        JobKind::Plan => 1,
        JobKind::Replan => 2,
    };
    let hash = fnv64(&[kind, u8::from(degrade)]);
    fnv64_extend(fnv64_extend(hash, &generation.to_le_bytes()), body)
}

/// Per-endpoint metric handles.
struct ServiceMetrics {
    registry: MetricsRegistry,
    queue_depth: Arc<Gauge>,
    search_latency: Arc<Histogram>,
    degraded: Arc<Counter>,
    fallbacks: Arc<Counter>,
    repairs: Arc<Counter>,
    replica_role: Arc<Gauge>,
    replication_lag: Arc<Gauge>,
    snapshot_catchup: Arc<Counter>,
    seq_conflicts: Arc<Counter>,
    response_cache_hits: Arc<Counter>,
    response_cache_misses: Arc<Counter>,
    observations: Arc<Counter>,
    model_promotions: Arc<Counter>,
    model_rollbacks: Arc<Counter>,
    model_version: Arc<Gauge>,
}

impl ServiceMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let queue_depth = registry.gauge(
            "nshard_serve_queue_depth",
            "Planning jobs waiting in the admission queue",
        );
        let search_latency = registry.histogram(
            "nshard_serve_search_latency_ms",
            "Wall-clock latency of admitted planning jobs, ms",
        );
        let degraded = registry.counter(
            "nshard_serve_degraded_total",
            "Requests answered with a degraded (non-primary) plan",
        );
        let fallbacks = registry.counter(
            "nshard_serve_fallback_total",
            "Plans produced by a fallback stage or the size-balanced last resort",
        );
        let repairs = registry.counter(
            "nshard_serve_repair_total",
            "Plans that needed the repair engine",
        );
        let replica_role = registry.gauge(
            "nshard_serve_replica_role",
            "This node's replication role: 0 follower, 1 candidate, 2 leader",
        );
        let replication_lag = registry.gauge(
            "nshard_serve_replication_lag",
            "Sequence delta between the last observed leader op and this replica",
        );
        let snapshot_catchup = registry.counter(
            "nshard_serve_snapshot_catchup_total",
            "Times this replica caught up by full snapshot instead of log tailing",
        );
        let seq_conflicts = registry.counter(
            "nshard_serve_seq_conflict_total",
            "Conditional KV upserts refused by their MatchSeq condition",
        );
        let response_cache_hits = registry.counter(
            "nshard_serve_response_cache_hits_total",
            "Planning jobs answered from the identical-request response cache",
        );
        let response_cache_misses = registry.counter(
            "nshard_serve_response_cache_misses_total",
            "Planning jobs that missed the response cache (cache enabled only)",
        );
        let observations = registry.counter(
            "nshard_serve_observations_total",
            "Ground-truth cost observations accepted via POST /v1/observations",
        );
        let model_promotions = registry.counter(
            "nshard_serve_model_promotions_total",
            "Fine-tuned cost-model bundles promoted into the serving engine",
        );
        let model_rollbacks = registry.counter(
            "nshard_serve_model_rollbacks_total",
            "Candidate cost-model bundles rejected by shadow evaluation (incumbent kept)",
        );
        let model_version = registry.gauge(
            "nshard_serve_model_version",
            "Version of the cost-model bundle currently serving predictions",
        );
        Self {
            registry,
            queue_depth,
            search_latency,
            degraded,
            fallbacks,
            repairs,
            replica_role,
            replication_lag,
            snapshot_catchup,
            seq_conflicts,
            response_cache_hits,
            response_cache_misses,
            observations,
            model_promotions,
            model_rollbacks,
            model_version,
        }
    }

    fn count_request(&self, endpoint: &str, code: u16) {
        self.registry
            .counter(
                &format!("nshard_serve_requests_total{{endpoint=\"{endpoint}\",code=\"{code}\"}}"),
                "Requests by endpoint and status code",
            )
            .inc();
    }

    fn count_rejection(&self, reason: &str) {
        self.registry
            .counter(
                &format!("nshard_serve_rejected_total{{reason=\"{reason}\"}}"),
                "Requests shed by admission control",
            )
            .inc();
    }
}

/// The daemon's service layer: everything minus the TCP accept loop, so
/// tests can drive it synchronously ([`Service::drain_one`]) with a
/// manual clock and zero sleeps.
pub struct Service {
    config: ServeConfig,
    engine: PlanningEngine,
    plans: PlanStore,
    kv: PlanKv,
    role: RoleCell,
    clock: Arc<dyn Clock>,
    queue: AdmissionQueue,
    metrics: ServiceMetrics,
    workers: usize,
    response_cache: Option<Mutex<ResponseCache>>,
    observations: Mutex<VecDeque<ObservationWire>>,
}

/// Most ground-truth observations the daemon buffers before evicting the
/// oldest — bounds memory under a reporting storm. The continual-learning
/// loop ([`Service::take_observations`]) owns prioritized sampling; the
/// daemon keeps only a bounded FIFO staging area.
const OBSERVATION_BUFFER_CAP: usize = 65_536;

impl Service {
    /// Builds the service from a pre-trained bundle.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when `store_dir` exists but cannot be opened or
    /// holds an unloadable plan.
    pub fn new(bundle: CostModelBundle, config: ServeConfig) -> Result<Self, StoreError> {
        Self::with_clock(bundle, config, Arc::new(WallClock::new()))
    }

    /// Same, with an explicit clock (tests inject a
    /// [`crate::clock::ManualClock`]).
    ///
    /// # Errors
    ///
    /// [`StoreError`] as for [`Service::new`].
    pub fn with_clock(
        bundle: CostModelBundle,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, StoreError> {
        // Reject dead configurations before they can panic deep inside
        // the engine: the typed [`nshard_core::ConfigError`] surfaces the
        // same way store corruption does — at construction, not at the
        // first request.
        config
            .search
            .validate()
            .map_err(StoreError::InvalidConfig)?;
        let plans = match &config.store_dir {
            Some(dir) => PlanStore::open(dir)?,
            None => PlanStore::in_memory(),
        };
        let engine = PlanningEngine::new(bundle, config.search, config.incremental, config.seed);
        let metrics = ServiceMetrics::new();
        metrics.model_version.set(engine.model_version());
        metrics
            .registry
            .gauge(
                "nshard_serve_store_quarantined",
                "Unreadable plan files the store set aside when it opened",
            )
            .set(plans.quarantined() as u64);
        let queue = AdmissionQueue::new(config.queue_capacity, Arc::clone(&metrics.queue_depth));
        let workers = resolve_threads(config.workers);
        let role = RoleCell::new(if config.replica.follower {
            Role::Follower
        } else {
            Role::Leader
        });
        metrics.replica_role.set(role.role().gauge_value());
        let kv = PlanKv::new(LOG_KEEP);
        // Replay warm-restarted plans into the KV in adoption order, so a
        // restarted leader immediately serves its log to followers.
        if !config.replica.follower {
            for id in plans.ids() {
                if let Some(record) = plans.get(&id) {
                    let value = serde_json::to_string(&record).unwrap_or_default();
                    let _ = kv.upsert(&plan_key(&id), value, MatchSeq::Any);
                }
            }
        }
        let response_cache = (config.response_cache_entries > 0)
            .then(|| Mutex::new(ResponseCache::new(config.response_cache_entries)));
        Ok(Self {
            config,
            engine,
            plans,
            kv,
            role,
            clock,
            queue,
            metrics,
            workers,
            response_cache,
            observations: Mutex::new(VecDeque::new()),
        })
    }

    /// The plan store (tests and the demo inspect it directly).
    pub fn plans(&self) -> &PlanStore {
        &self.plans
    }

    /// The sequenced KV behind replication.
    pub fn kv(&self) -> &PlanKv {
        &self.kv
    }

    /// This node's replication role cell.
    pub fn role(&self) -> &RoleCell {
        &self.role
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Answers a request end to end, blocking until a worker (or the
    /// caller's own [`Service::drain_one`]) produces the response.
    pub fn handle_blocking(&self, request: &HttpRequest) -> HttpResponse {
        match self.route(request) {
            Routed::Inline(response) => response,
            Routed::Queued(slot) => slot.wait(),
        }
    }

    /// Routes a request without a socket: GETs answered inline, planning
    /// POSTs admitted to the queue (the returned slot resolves when a
    /// worker finishes). Same dispatch as the reactor's `route_async`,
    /// with a slot-filling callback.
    pub fn route(&self, request: &HttpRequest) -> Routed {
        let slot = ResponseSlot::new();
        let filled = Arc::clone(&slot);
        match self.route_async(request, Box::new(move |response| filled.put(response))) {
            Some(response) => Routed::Inline(response),
            None => Routed::Queued(slot),
        }
    }

    /// Routes a request: inline answers return `Some(response)`
    /// immediately; planning POSTs are admitted with `on_response` as the
    /// delivery callback and return `None` (the callback fires from a
    /// worker thread when the job completes). Admission rejections
    /// (429/503) and response-cache hits come back inline, so the
    /// callback fires **only** for admitted jobs.
    pub(crate) fn route_async(
        &self,
        request: &HttpRequest,
        on_response: Box<dyn FnOnce(HttpResponse) + Send>,
    ) -> Option<HttpResponse> {
        let inline = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/health") => self.health(),
            ("GET", "/metrics") => HttpResponse::text(200, self.render_metrics()),
            ("GET", path) if path.starts_with("/v1/plans/") => {
                self.get_plan(&path["/v1/plans/".len()..])
            }
            ("GET", "/v1/repl/status") => self.repl_status(),
            ("GET", "/v1/repl/snapshot") => self.repl_snapshot(),
            ("GET", path) if path.starts_with("/v1/repl/log/") => {
                self.repl_log(&path["/v1/repl/log/".len()..])
            }
            ("POST", "/v1/plan") => {
                return self.admit(JobKind::Plan, request.body.clone(), on_response)
            }
            ("POST", "/v1/replan") => {
                return self.admit(JobKind::Replan, request.body.clone(), on_response)
            }
            ("POST", "/v1/observations") => self.ingest_observations(&request.body),
            ("POST", _) | ("GET", _) => {
                self.metrics.count_request("other", 404);
                error_response(
                    404,
                    "not_found",
                    format!("no route for {} {}", request.method, request.path),
                )
            }
            (method, _) => {
                self.metrics.count_request("other", 405);
                error_response(
                    405,
                    "method_not_allowed",
                    format!("method {method} not supported"),
                )
            }
        };
        Some(inline)
    }

    fn health(&self) -> HttpResponse {
        self.metrics.count_request("health", 200);
        let body = HealthResponse {
            status: "ok".into(),
            plans: self.plans.len() as u64,
            workers: self.workers as u64,
            queue_capacity: self.config.queue_capacity as u64,
            role: self.role.role().label().to_string(),
            model_version: self.engine.model_version(),
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    /// `POST /v1/observations`: buffers ground-truth cost observations
    /// for the continual-learning loop. Answered inline — ingest is a
    /// bounded buffer push, not a search — so observation storms cannot
    /// starve planning jobs of queue capacity.
    fn ingest_observations(&self, body: &[u8]) -> HttpResponse {
        let request =
            match serde_json::from_str::<ObservationsRequest>(&String::from_utf8_lossy(body)) {
                Ok(request) => request,
                Err(e) => {
                    self.metrics.count_request("observations", 400);
                    return error_response(
                        400,
                        "bad_request",
                        format!("invalid observations body: {e}"),
                    );
                }
            };
        let accepted = request.observations.len() as u64;
        let buffered = {
            let mut buffer = self.observations.lock().expect("observations poisoned");
            buffer.extend(request.observations);
            while buffer.len() > OBSERVATION_BUFFER_CAP {
                buffer.pop_front();
            }
            buffer.len() as u64
        };
        self.metrics.observations.add(accepted);
        self.metrics.count_request("observations", 200);
        let ack = ObservationsAck {
            accepted,
            buffered,
            model_version: self.engine.model_version(),
        };
        HttpResponse::json(200, serde_json::to_string(&ack).unwrap_or_default())
    }

    /// Drains every buffered ground-truth observation — the
    /// continual-learning loop's pull path.
    pub fn take_observations(&self) -> Vec<ObservationWire> {
        self.observations
            .lock()
            .expect("observations poisoned")
            .drain(..)
            .collect()
    }

    /// Observations currently staged for the learning loop.
    pub fn observations_buffered(&self) -> usize {
        self.observations
            .lock()
            .expect("observations poisoned")
            .len()
    }

    /// The model version currently serving predictions.
    pub fn model_version(&self) -> u64 {
        self.engine.model_version()
    }

    /// Response-cache generation for `kind`: every cached response was
    /// priced by a specific model version (a promotion must invalidate
    /// it), and replans additionally depend on the plan-store generation
    /// (an adoption changes the incumbent a replan warm-starts from).
    fn cache_generation(&self, kind: JobKind) -> u64 {
        let version = self.engine.model_version() << 32;
        match kind {
            JobKind::Plan => version,
            JobKind::Replan => version | (self.plans.len() as u64 & 0xffff_ffff),
        }
    }

    /// Atomically promotes a fine-tuned cost-model bundle into the
    /// serving engine: the engine core (sharder, chains, incremental
    /// planner, prediction/encoding caches) is rebuilt and swapped under
    /// one write lock, and a leader replicates the bundle to followers
    /// under the `models/active` KV key. Returns the new model version.
    pub fn promote_model(&self, bundle: &CostModelBundle) -> u64 {
        let version = self.engine.swap_bundle(bundle.clone());
        self.metrics.model_promotions.inc();
        self.metrics.model_version.set(version);
        if self.role.is_leader() {
            let value = nshard_nn::serialize::envelope_to_json("cost-bundle", "nshard", bundle);
            let _ = self.kv.upsert(MODEL_KEY, value, MatchSeq::Any);
        }
        version
    }

    /// Records a shadow-evaluation rejection (the incumbent stays) in
    /// `/metrics` — the lifecycle calls this so rollbacks are observable.
    pub fn note_model_rollback(&self) {
        self.metrics.model_rollbacks.inc();
    }

    fn get_plan(&self, id: &str) -> HttpResponse {
        match self.plans.get(id) {
            Some(stored) => {
                self.metrics.count_request("plans_get", 200);
                let response =
                    HttpResponse::json(200, serde_json::to_string(&stored).unwrap_or_default());
                self.mark_stale(response)
            }
            None => {
                self.metrics.count_request("plans_get", 404);
                error_response(404, "not_found", format!("no stored plan with id {id}"))
            }
        }
    }

    /// Flags degraded-mode (stale) reads after a promotion that is known
    /// to be behind the dead leader.
    fn mark_stale(&self, response: HttpResponse) -> HttpResponse {
        if self.role.stale() {
            response.with_header("X-Nshard-Stale", "true")
        } else {
            response
        }
    }

    fn repl_status(&self) -> HttpResponse {
        self.metrics.count_request("repl_status", 200);
        let (log_earliest, log_len) = self.kv.log_window();
        let body = ReplStatus {
            node: self.config.replica.node.clone(),
            role: self.role.role().label().to_string(),
            applied_seq: self.kv.applied_seq(),
            stale: self.role.stale(),
            log_earliest,
            log_len: log_len as u64,
            plans: self.plans.len() as u64,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    fn repl_snapshot(&self) -> HttpResponse {
        self.metrics.count_request("repl_snapshot", 200);
        let snapshot = self.kv.snapshot();
        HttpResponse::json(200, serde_json::to_string(&snapshot).unwrap_or_default())
    }

    fn repl_log(&self, from: &str) -> HttpResponse {
        let Ok(from_seq) = from.parse::<u64>() else {
            self.metrics.count_request("repl_log", 400);
            return error_response(
                400,
                "bad_request",
                format!("log position {from:?} is not a sequence number"),
            );
        };
        self.metrics.count_request("repl_log", 200);
        let fetch = self.kv.log_since(from_seq);
        HttpResponse::json(200, serde_json::to_string(&fetch).unwrap_or_default())
    }

    /// Admits a planning job (`None`), or returns an inline response: a
    /// shed (`429`/`503`) or an admission-time response-cache hit (`200`).
    fn admit(&self, kind: JobKind, body: Vec<u8>, on_response: OnResponse) -> Option<HttpResponse> {
        if !self.role.is_leader() {
            self.metrics.count_rejection("not_leader");
            self.metrics.count_request(kind.endpoint(), 503);
            return Some(
                error_response(
                    503,
                    "not_leader",
                    format!(
                        "node {} is a {}; planning writes go to the leader",
                        self.config.replica.node,
                        self.role.role().label()
                    ),
                )
                .with_retry_after(1),
            );
        }
        // Admission-time cache fast path: a hit is answered inline
        // without consuming queue capacity — equivalent to a worker
        // picking the job up instantly. The lookup keys `degrade =
        // false` (the zero-wait decision); identical bodies carry
        // identical deadlines, so a body whose deadline forces
        // degradation (or instant expiry) can never have an entry under
        // this key and falls through to the worker path, which computes
        // the full deadline/degrade semantics.
        if let Some(cache) = &self.response_cache {
            let key = response_cache_key(kind, false, self.cache_generation(kind), &body);
            if let Some(hit) = cache.lock().expect("cache poisoned").get(key) {
                self.metrics.response_cache_hits.inc();
                self.metrics.count_request(kind.endpoint(), hit.status);
                return Some(hit);
            }
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
    fn drain_blocking(&self) -> bool {
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

    fn process(&self, job: Job) {
        let started_ms = self.clock.now_ms();
        let response = self.respond(&job, started_ms);
        self.metrics.search_latency.observe(
            (self.clock.now_ms() - started_ms) as f64 + (started_ms - job.enqueued_ms) as f64,
        );
        self.metrics
            .count_request(job.kind.endpoint(), response.status);
        (job.on_response)(response);
    }

    /// Produces the response for one job: deadline check, degradation
    /// decision, parse, plan, adopt, serialize.
    fn respond(&self, job: &Job, now_ms: u64) -> HttpResponse {
        let parsed_deadline = match job.kind {
            JobKind::Plan => {
                serde_json::from_str::<PlanRequest>(&String::from_utf8_lossy(&job.body)).map(|r| {
                    let deadline = r.deadline_ms;
                    (Parsed::Plan(r), deadline)
                })
            }
            JobKind::Replan => serde_json::from_str::<ReplanRequest>(&String::from_utf8_lossy(
                &job.body,
            ))
            .map(|r| {
                let deadline = r.deadline_ms;
                (Parsed::Replan(r), deadline)
            }),
        };
        let (parsed, deadline_ms) = match parsed_deadline {
            Ok((parsed, deadline)) => (parsed, deadline.unwrap_or(DEFAULT_DEADLINE_MS)),
            Err(e) => {
                return error_response(400, "bad_request", format!("invalid request body: {e}"))
            }
        };
        // A device count the models cannot price is the client's error:
        // answered here, ahead of deadline, cache and engine (which would
        // return it as a typed `Invalid`).
        if let Err(detail) = self.engine.check_device_count(parsed.task().num_devices()) {
            return error_response(400, "unsupported_device_count", detail);
        }

        let waited_ms = now_ms.saturating_sub(job.enqueued_ms);
        if waited_ms >= deadline_ms {
            self.metrics.count_rejection("deadline");
            return error_response(
                503,
                "deadline_expired",
                format!("request waited {waited_ms} ms against a {deadline_ms} ms deadline"),
            )
            .with_retry_after(1);
        }
        // Deadline-pressed: not enough budget left for a beam search, so
        // degrade to the greedy chain instead of erroring later.
        let degrade = deadline_ms - waited_ms < DEGRADE_BELOW_MS;

        // Cache lookup happens only after the deadline check: an expired
        // request answers 503 whether or not its twin is cached — the
        // shed/degrade semantics are identical with the cache on or off.
        let cache_key = self.response_cache.as_ref().map(|_| {
            response_cache_key(
                job.kind,
                degrade,
                self.cache_generation(job.kind),
                &job.body,
            )
        });
        if let (Some(cache), Some(key)) = (&self.response_cache, cache_key) {
            if let Some(hit) = cache.lock().expect("cache poisoned").get(key) {
                self.metrics.response_cache_hits.inc();
                return hit;
            }
            self.metrics.response_cache_misses.inc();
        }

        let response = match parsed {
            Parsed::Plan(request) => self.respond_plan(request, degrade),
            Parsed::Replan(request) => self.respond_replan(request, degrade),
        };
        if let (Some(cache), Some(key)) = (&self.response_cache, cache_key) {
            if response.status == 200 {
                cache
                    .lock()
                    .expect("cache poisoned")
                    .put(key, response.clone());
            }
        }
        response
    }

    /// Stamps failover attribution onto new plans produced after this
    /// node promoted itself — every plan records *which* node took over,
    /// at what sequence, and whether it was known stale.
    fn attribute_failover(
        &self,
        provenance: nshard_core::PlanProvenance,
    ) -> nshard_core::PlanProvenance {
        match self.role.promoted_at() {
            Some(at_seq) => provenance.attributed_to_failover(
                self.config.replica.node.clone(),
                at_seq,
                self.role.stale(),
            ),
            None => provenance,
        }
    }

    /// Adopts into the plan store and, when the adoption is new, appends
    /// it to the replication log as a create-only (`MatchSeq::Exact(0)`)
    /// conditional upsert. A sequence conflict there means a concurrent
    /// identical adoption already logged it — counted, not an error.
    fn adopt_and_log(
        &self,
        id: &str,
        task: ShardingTask,
        plan: nshard_core::ShardingPlan,
        provenance: nshard_core::PlanProvenance,
        predicted_ms: f64,
        degraded: bool,
    ) -> Result<u64, StoreError> {
        let (stored, newly_adopted) =
            self.plans
                .adopt_new(id, task, plan, provenance, predicted_ms, degraded)?;
        if newly_adopted {
            let value = serde_json::to_string(&stored).unwrap_or_default();
            if self
                .kv
                .upsert(&plan_key(id), value, MatchSeq::Exact(0))
                .is_err()
            {
                self.metrics.seq_conflicts.inc();
            }
        }
        Ok(stored.version)
    }

    fn respond_plan(&self, request: PlanRequest, degrade: bool) -> HttpResponse {
        let output = match self.engine.plan(&request.task, degrade) {
            Ok(output) => output,
            Err(e) => return error_response(422, "infeasible", e.to_string()),
        };
        let provenance = self.attribute_failover(output.provenance);
        self.observe_outcome(&provenance, output.degraded);
        let version = if request.adopt {
            match self.adopt_and_log(
                &output.id,
                request.task,
                output.plan.clone(),
                provenance.clone(),
                output.predicted_ms,
                output.degraded,
            ) {
                Ok(version) => version,
                Err(e) => return error_response(500, "store_failed", e.to_string()),
            }
        } else {
            0
        };
        let body = PlanResponse {
            id: output.id,
            version,
            degraded: output.degraded,
            source: source_label(&provenance.source),
            predicted_ms: output.predicted_ms,
            plan: output.plan,
            provenance,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    fn respond_replan(&self, request: ReplanRequest, degrade: bool) -> HttpResponse {
        let incumbent = match &request.incumbent_id {
            Some(id) => self.plans.get(id),
            None => self.plans.latest(),
        };
        let Some(incumbent) = incumbent else {
            return error_response(
                404,
                "no_incumbent",
                match &request.incumbent_id {
                    Some(id) => format!("no stored plan with id {id}"),
                    None => "the store holds no plan to warm-start from".to_string(),
                },
            );
        };
        let re = match self.engine.replan(&request.task, &incumbent.plan, degrade) {
            Ok(re) => re,
            Err(e) => return error_response(422, "infeasible", e.to_string()),
        };
        let provenance = self.attribute_failover(re.output.provenance.clone());
        self.observe_outcome(&provenance, re.output.degraded);
        let version = if request.adopt {
            match self.adopt_and_log(
                &re.output.id,
                request.task,
                re.output.plan.clone(),
                provenance.clone(),
                re.output.predicted_ms,
                re.output.degraded,
            ) {
                Ok(version) => version,
                Err(e) => return error_response(500, "store_failed", e.to_string()),
            }
        } else {
            0
        };
        let body = ReplanResponse {
            id: re.output.id,
            version,
            degraded: re.output.degraded,
            source: source_label(&provenance.source),
            predicted_ms: re.output.predicted_ms,
            migration_bytes: re.migration_bytes,
            incremental: re.incremental,
            evaluated_plans: re.evaluated_plans as u64,
            plan: re.output.plan,
            provenance,
        };
        HttpResponse::json(200, serde_json::to_string(&body).unwrap_or_default())
    }

    /// Applies replicated ops through the sequence-gated KV and
    /// materializes newly applied plans into the local store — the
    /// follower ingest path. Returns how many ops actually applied.
    pub fn apply_replicated(&self, ops: Vec<LogOp>) -> usize {
        let mut applied = 0usize;
        for op in ops {
            for done in self.kv.apply(op) {
                applied += 1;
                self.materialize(&done.key, &done.value);
            }
        }
        applied
    }

    /// Replaces this replica's KV with a full snapshot and materializes
    /// every plan in it — the cold/lagging catch-up path.
    pub(crate) fn restore_snapshot(&self, snapshot: &KvSnapshot) {
        self.kv.restore(snapshot);
        for entry in &snapshot.entries {
            self.materialize(&entry.key, &entry.value);
        }
        self.metrics.snapshot_catchup.inc();
    }

    /// Materializes one replicated KV value into the typed stores.
    fn materialize(&self, key: &str, value: &str) {
        if key.strip_prefix("plans/").is_some() {
            if let Ok(record) = serde_json::from_str::<StoredPlan>(value) {
                // Persist errors surface via store metrics on the leader;
                // a replica keeps the in-memory copy serving either way.
                let _ = self.plans.insert_replica(record);
            }
        } else if key == MODEL_KEY {
            // A promoted cost-model bundle replicating from the leader:
            // swap it into this replica's engine so a failover promotes a
            // node already serving the fine-tuned models.
            if let Ok(envelope) = nshard_nn::serialize::envelope_from_json::<CostModelBundle>(value)
            {
                let version = self.engine.swap_bundle(envelope.payload);
                self.metrics.model_version.set(version);
            }
        }
    }

    /// Records the observed replication lag (sequence delta to the
    /// leader) in `/metrics`.
    pub(crate) fn note_replication_lag(&self, lag: u64) {
        self.metrics.replication_lag.set(lag);
    }

    /// Promotes this node to leader after failover detection — the store
    /// it caught up keeps serving, now accepting writes. `stale` marks
    /// degraded-mode reads (the dead leader was known to be ahead).
    pub(crate) fn promote(&self, at_seq: u64, stale: bool) {
        self.role.mark_promoted(at_seq, stale);
        self.metrics.replica_role.set(Role::Leader.gauge_value());
    }

    /// Moves a follower to candidate while failures accumulate (visible
    /// in the role gauge and `/v1/repl/status`).
    pub(crate) fn set_candidate_if_follower(&self) {
        if matches!(self.role.role(), Role::Follower) {
            self.role.set_role(Role::Candidate);
            self.metrics.replica_role.set(Role::Candidate.gauge_value());
        }
    }

    /// Drops a candidate back to follower once the leader answers again
    /// (a blip, not a death).
    pub(crate) fn reaffirm_follower(&self) {
        if matches!(self.role.role(), Role::Candidate) {
            self.role.set_role(Role::Follower);
            self.metrics.replica_role.set(Role::Follower.gauge_value());
        }
    }

    fn observe_outcome(&self, provenance: &nshard_core::PlanProvenance, degraded: bool) {
        if degraded {
            self.metrics.degraded.inc();
        }
        match &provenance.source {
            nshard_core::PlanSource::Repaired { .. } => self.metrics.repairs.inc(),
            nshard_core::PlanSource::Fallback { .. } | nshard_core::PlanSource::SizeBalanced => {
                self.metrics.fallbacks.inc()
            }
            nshard_core::PlanSource::Primary { .. } => {}
        }
    }

    /// The shared metrics registry — the event loop ([`crate::net`])
    /// registers its connection-level series here, so `/metrics` is one
    /// exposition for the whole daemon.
    pub(crate) fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// Prometheus exposition: the registry plus prediction-cache gauges
    /// scraped live from the engine. The cache series carry a
    /// `model_version` label so dashboards can attribute hit-rate resets
    /// and cost shifts to a promotion event (a swap rebuilds the caches,
    /// so counts restart from zero under the new label).
    pub fn render_metrics(&self) -> String {
        let mut out = self.metrics.registry.render();
        let stats = self.engine.cache_stats();
        let version = self.engine.model_version();
        out.push_str(
            "# HELP nshard_serve_cache_hits_total Prediction-cache hits across all searches\n\
             # TYPE nshard_serve_cache_hits_total counter\n",
        );
        out.push_str(&format!(
            "nshard_serve_cache_hits_total{{model_version=\"{version}\"}} {}\n",
            stats.hits
        ));
        out.push_str(
            "# HELP nshard_serve_cache_misses_total Prediction-cache misses across all searches\n\
             # TYPE nshard_serve_cache_misses_total counter\n",
        );
        out.push_str(&format!(
            "nshard_serve_cache_misses_total{{model_version=\"{version}\"}} {}\n",
            stats.misses
        ));
        out
    }

    /// Stops admission and lets workers drain what was already accepted.
    pub fn close(&self) {
        self.queue.close();
    }
}

/// Result of routing one request.
pub enum Routed {
    /// Answered without queueing.
    Inline(HttpResponse),
    /// Admitted; the slot resolves when a worker finishes the job.
    Queued(Arc<ResponseSlot>),
}

fn error_response(status: u16, kind: &str, detail: String) -> HttpResponse {
    HttpResponse::json(status, ErrorBody::new(kind, detail).to_json())
}

/// The KV key under which an adopted plan replicates.
fn plan_key(id: &str) -> String {
    format!("plans/{id}")
}

/// The KV key under which the promoted cost-model bundle replicates.
/// A single key — promotion is last-writer-wins by design: the lifecycle
/// serializes promotions, and followers always want the newest bundle.
const MODEL_KEY: &str = "models/active";

/// A running daemon: the [`crate::net`] reactor plus a worker pool around
/// a [`Service`].
pub struct Server {
    service: Arc<Service>,
    addr: std::net::SocketAddr,
    worker_threads: Vec<JoinHandle<()>>,
    reactor: Reactor,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the reactor and worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or creating the reactor's poller
    /// and waker.
    pub fn start(service: Arc<Service>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // The reactor first: its setup is the only fallible step left, and
        // failing after the workers exist would leave them parked on
        // `queue.pop()` forever.
        let reactor = Reactor::spawn(Arc::clone(&service), listener)?;
        let worker_threads = (0..service.workers())
            .map(|i| {
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("nshard-serve-worker-{i}"))
                    .spawn(move || while service.drain_blocking() {})
                    .expect("spawn worker")
            })
            .collect();
        Ok(Self {
            service,
            addr: local,
            worker_threads,
            reactor,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, drain the queue, join all
    /// threads. Everything already admitted still gets its response.
    pub fn shutdown(self) {
        self.service.close();
        self.reactor.shutdown();
        for handle in self.worker_threads {
            let _ = handle.join();
        }
    }
}

/// Parsed request body, by endpoint.
enum Parsed {
    Plan(PlanRequest),
    Replan(ReplanRequest),
}

impl Parsed {
    fn task(&self) -> &ShardingTask {
        match self {
            Parsed::Plan(request) => &request.task,
            Parsed::Replan(request) => &request.task,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_cache_keys_do_not_move() {
        // The value this input hashed to before the crate's FNV copies
        // were merged.
        let key = response_cache_key(
            JobKind::Replan,
            true,
            0x0102_0304_0506_0708,
            b"{\"task\":1}",
        );
        assert_eq!(key, 0x40e9_da07_77fd_0f02);
    }
}
