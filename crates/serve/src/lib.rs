//! # nshard-serve — sharding as a service
//!
//! A long-running, dependency-free HTTP/1.1 JSON daemon around the
//! NeuroShard planner: the deployment story for the paper's "pre-train
//! once, search per task" workflow. Pre-trained cost models load at
//! startup (optionally from a [`store::ModelStore`] checkpoint) and every
//! request is an online search.
//!
//! ## Endpoints
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /v1/plan` | Plan a task from scratch through the full [`nshard_core::FallbackChain`] |
//! | `POST /v1/replan` | Warm-started incremental replan around a stored incumbent |
//! | `POST /v1/observations` | Report ground-truth costs for continual learning |
//! | `GET /v1/plans/{id}` | Fetch a stored plan with provenance |
//! | `GET /health` | Liveness + store/queue facts + replication role |
//! | `GET /metrics` | Prometheus exposition ([`metrics`]) |
//! | `GET /v1/repl/status` | Replication role, applied sequence, staleness |
//! | `GET /v1/repl/log/{from}` | Sequenced op log for tailing followers ([`repl`]) |
//! | `GET /v1/repl/snapshot` | Full KV snapshot for cold/lagging catch-up |
//!
//! ## Replication
//!
//! N daemons form a serve tier sharing one logical plan store: a leader
//! adopts plans through sequence-checked conditional upserts in the
//! [`kv::PlanKv`], followers tail its op log and promote themselves on
//! leader death ([`repl`] has the full story).
//!
//! ## Admission control
//!
//! The reactor ([`net`]) feeds a **bounded** queue drained by a worker
//! pool; a full queue sheds load with `429 Too Many Requests` instead of
//! building unbounded latency. Every job carries a deadline: expired jobs answer
//! `503` without searching, and deadline-pressed jobs degrade to the
//! greedy chain — a fast plan beats no plan, the same philosophy as the
//! fault-driven [`nshard_core::FallbackChain`].
//!
//! ## Determinism
//!
//! Identical request bodies produce **byte-identical** `200` responses at
//! any concurrency: the engine is deterministic at any thread count, plan
//! ids are content-addressed, store adoption is idempotent by id, the
//! vendored serializer has a fixed field order, and response bodies carry
//! no timestamps. The worker-pool size (like every other parallel knob in
//! the workspace) resolves through [`nshard_core::resolve_threads`], so
//! `NSHARD_THREADS` ([`nshard_pool::THREADS_ENV`]) is the single
//! thread-count control.

// `deny` (not `forbid`) so the one syscall-wrapper module can opt back
// in: `net::sys` carries a scoped `#![allow(unsafe_code)]` for its raw
// epoll/poll FFI, with a safety comment on every unsafe block. All other
// modules remain unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod clock;
pub mod engine;
pub mod http;
pub mod kv;
pub mod metrics;
pub mod net;
pub mod repl;
pub mod server;
pub mod store;

pub use api::{
    source_label, ErrorBody, HealthResponse, ObservationWire, ObservationsAck, ObservationsRequest,
    PlanRequest, PlanResponse, ReplStatus, ReplanRequest, ReplanResponse,
};
pub use clock::{Clock, ManualClock, WallClock};
pub use engine::{plan_id, PlanOutput, PlanningEngine, ReplanOutput};
pub use http::{http_call, HttpRequest, HttpResponse, KeepAliveClient};
pub use kv::{KvError, KvSnapshot, LogFetch, LogOp, MatchSeq, PlanKv, SeqEntry, SnapshotEntry};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use net::ConnConfig;
pub use repl::{HttpTransport, PollOutcome, ReplError, ReplTransport, Replicator, Role, RoleCell};
pub use server::{ReplicaConfig, Routed, ServeConfig, Server, Service};
pub use store::{ModelStore, PlanStore, StoreError, StoredPlan};
