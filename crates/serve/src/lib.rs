//! # nshard-serve — sharding as a service
//!
//! A long-running, dependency-free HTTP/1.1 JSON daemon around the
//! NeuroShard planner: the deployment story for the paper's "pre-train
//! once, search per task" workflow. The caller hands the daemon its
//! pre-trained cost models at startup ([`Service::new`]) and every request
//! is an online search with them: one bundle serves the daemon's whole
//! life, and nothing the daemon stores or is sent replaces it. A
//! fine-tuned bundle (`nshard_online::learn::ContinualLearner`) is served
//! by booting a daemon with it.
//!
//! ## Endpoints
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /v1/plan` | Plan a task from scratch through the full chain of an [`nshard_online::PlanningStack`] |
//! | `POST /v1/replan` | Warm-started incremental replan around a stored incumbent, charged by [`nshard_core::replan_migration_bytes`] |
//! | `POST /v1/observations` | Report ground-truth costs: counts the readable ones, keeps none |
//! | `GET /v1/plans/{id}` | Fetch a stored plan with provenance |
//! | `GET /health` | Liveness + store/queue facts |
//! | `GET /metrics` | Prometheus exposition |
//!
//! ## Module map
//!
//! The public surface is what the crate's callers name: the modules
//! [`http`], [`net`] and [`server`], and the items re-exported below.
//! Everything else is private.
//!
//! | Module | Holds |
//! |---|---|
//! | [`server`] | A facade over `config`, `service`, `routes`, `admission`, `cache`, `respond`, `daemon`: [`ServeConfig`], [`Service`], [`Server`] |
//! | [`net`] | The event-driven I/O edge: reactor, connection state machine, parser, syscall bindings |
//! | [`http`] | [`HttpRequest`], [`HttpResponse`], and the one client ([`KeepAliveClient`]) |
//! | `store` | [`PlanStore`] — the one sequenced record of adopted plans, and its checksummed files |
//! | `api`, `engine`, `metrics`, `clock` | Wire structs, the [`PlanningEngine`], the metrics registry, [`Clock`] |
//! | `sync` | The one lock policy: every lock is taken through it, and a poisoned lock is recovered |
//!
//! ## The plan store
//!
//! One daemon keeps one [`PlanStore`]. It sequences every write: an
//! adoption is one write, and the plan's `version` is its sequence number.
//! With `store_dir` set, each write is saved to a checksummed file first,
//! and a restarted daemon reads those files back: the same plans and
//! versions, warm. The store holds no model.
//!
//! ## Admission control
//!
//! The reactor ([`net`]) feeds a **bounded** queue drained by a worker
//! pool; a full queue sheds load with `429 Too Many Requests` instead of
//! building unbounded latency. A body whose `200` answer is in the response
//! cache is answered inline at admission, the cache's one read. Every job
//! carries a deadline: expired jobs answer `503` without searching, and
//! deadline-pressed jobs degrade to the planning stack's greedy chain — a
//! fast plan beats no plan, the same philosophy as the chain's own
//! downgrades. A degraded answer is never cached.
//!
//! ## Determinism
//!
//! Identical request bodies produce **byte-identical** `200` responses at
//! any concurrency: the engine is deterministic at any thread count, plan
//! ids are content-addressed, store adoption is idempotent by id, the
//! vendored serializer has a fixed field order, and response bodies carry
//! no timestamps. The worker-pool size (like every other parallel knob in
//! the workspace) resolves through [`nshard_pool::resolve_threads`], so
//! `NSHARD_THREADS` ([`nshard_pool::THREADS_ENV`]) is the single
//! thread-count control.

// `deny` (not `forbid`) so the one syscall-wrapper module can opt back
// in: `net::sys` carries a scoped `#![allow(unsafe_code)]` for its one
// unsafe block, the `poll(2)` call, with its safety comment. All other
// modules remain unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod clock;
mod engine;
pub mod http;
mod metrics;
pub mod net;
pub mod server;
mod store;
mod sync;

pub use clock::{Clock, ManualClock};
pub use engine::{PlanOutput, PlanningEngine};
pub use http::{http_call, HttpRequest, HttpResponse, KeepAliveClient};
// The `POST /v1/observations` item, named here by the benchmark's
// `surface.rs`.
pub use nshard_online::learn::ObservationWire;
pub use server::{Routed, ServeConfig, Server, Service};
pub use store::{PlanStore, StoreError, StoredPlan};
