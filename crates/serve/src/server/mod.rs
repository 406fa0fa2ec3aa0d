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
//!                        │ full, or cached                 │ expired → 503
//!                        ▼                                 │ pressed → greedy chain
//!                   429, or 200                            ▼
//!                                                    PlanningEngine
//!                                                          │
//!                          on_response(..) ◀── response ──┘
//! ```
//!
//! One module per step: `config` (what a node is told), `service` (the
//! state every handler shares), `routes` (the route table and the
//! endpoints answered inline), `admission` (the bounded queue, `429` and
//! `503` shedding), `cache` (the identical-request response cache),
//! `respond` (a worker's plan or replan answer, adoption included) and
//! `daemon` (the reactor and worker threads around one service). The
//! metric handles are in `crate::metrics`, the plan store in
//! `crate::store`.
//!
//! Determinism: workers add no entropy — identical request bodies produce
//! byte-identical `200` responses at any concurrency, because the engine
//! is deterministic, plan ids are content-addressed, store adoption is
//! idempotent by id, and response bodies contain no timestamps.

mod admission;
mod cache;
mod config;
mod daemon;
mod respond;
mod routes;
mod service;

pub use admission::{ResponseSlot, Routed};
pub use config::ServeConfig;
pub use daemon::Server;
pub use service::Service;
