//! # nshard-serve — sharding as a service
//!
//! A long-running, dependency-free HTTP/1.1 JSON daemon around the
//! NeuroShard planner: the deployment story for the paper's "pre-train
//! once, search per task" workflow. Pre-trained cost models load at
//! startup (optionally from a [`ModelStore`] checkpoint) and every
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
//! | `GET /metrics` | Prometheus exposition |
//! | `GET /v1/repl/status` | Replication role, applied sequence, staleness |
//! | `GET /v1/repl/log/{from}` | Sequenced op log for tailing followers ([`repl`]) |
//! | `GET /v1/repl/snapshot` | Full KV snapshot for cold/lagging catch-up |
//!
//! ## Module map
//!
//! The public surface is what the crate's callers name: the modules
//! [`http`], [`kv`], [`net`], [`repl`] and [`server`], and the items
//! re-exported below. Everything else is private.
//!
//! | Module | Holds |
//! |---|---|
//! | [`server`] | A facade over `config`, `service`, `routes`, `admission`, `cache`, `respond`, `daemon`: [`ServeConfig`], [`Service`], [`Server`] |
//! | [`net`] | The event-driven I/O edge: reactor, connection state machine, parser, timers, syscall bindings |
//! | [`repl`] | Roles, the [`Replicator`], its transports, and the service's replication hooks and endpoints |
//! | [`kv`] | The sequenced [`PlanKv`] — the one record of adopted plans — and its wire types |
//! | [`http`] | [`HttpRequest`], [`HttpResponse`], and the one client ([`KeepAliveClient`]) |
//! | `api`, `engine`, `store`, `metrics`, `clock` | Wire structs, the [`PlanningEngine`], [`PlanStore`] (one [`PlanKv`] mirrored to disk) / [`ModelStore`], the metrics registry, [`Clock`] |
//!
//! ## Replication
//!
//! N daemons form a serve tier sharing one logical plan store. A node's
//! store *is* its [`kv::PlanKv`]: a leader adopts a plan with one
//! create-only upsert (the plan's `version` is that write's sequence
//! number), followers tail its op log and promote themselves on leader
//! death, and a restarted node restores the snapshot its files hold
//! ([`repl`] has the full story).
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

mod api;
mod clock;
mod engine;
pub mod http;
pub mod kv;
mod metrics;
pub mod net;
pub mod repl;
pub mod server;
mod store;

pub use api::ObservationWire;
pub use clock::{Clock, ManualClock};
pub use engine::{PlanOutput, PlanningEngine};
pub use http::{http_call, HttpRequest, HttpResponse, KeepAliveClient};
pub use kv::{KvError, KvSnapshot, LogFetch, LogOp, MatchSeq, PlanKv, SnapshotEntry};
pub use repl::{HttpTransport, PollOutcome, ReplError, ReplTransport, Replicator, Role, RoleCell};
pub use server::{ReplicaConfig, Routed, ServeConfig, Server, Service};
pub use store::{ModelStore, PlanStore, StoreError, StoredPlan};
