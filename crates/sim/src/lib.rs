//! # nshard-sim — deterministic GPU execution simulator
//!
//! This crate is the **ground-truth oracle** of the NeuroShard reproduction.
//! The original paper (Zha et al., MLSys 2023) collected computation and
//! communication costs from real RTX 2080Ti GPUs running FBGEMM fused
//! embedding kernels and NCCL all-to-all collectives. This crate replaces
//! that hardware with an analytic, seeded, noisy cost simulator that is
//! calibrated to exhibit the paper's three load-bearing observations:
//!
//! 1. **Observation 1** — splitting a table column-wise into two halves
//!    produces shards that each cost *more* than half the original table
//!    ([`KernelParams`]: fixed per-row overhead plus a sublinear dimension term).
//! 2. **Observation 2** — the fused multi-table kernel cost is *non-linearly*
//!    below the sum of single-table costs ([`KernelParams`]: occupancy/fusion
//!    amortization improves with the number of tables).
//! 3. **Observation 3** — the max all-to-all communication cost across GPUs
//!    is positively correlated with the max device dimension ([`CommParams`]:
//!    collective barrier plus a bandwidth term proportional to the data the
//!    slowest participant moves). That is the only communication law: a
//!    two-tier [`DevicePool`] enlarges a device's dimension before the
//!    law runs.
//!
//! A [`Cluster`] is evaluated from one input, its fleet: a [`DevicePool`],
//! lowered once, when it is built, to per-device budgets, kernel-time
//! scales and bandwidth scales. A hostile fleet — a squeezed budget, a slow
//! compute class, a slow node behind slow links — is just another pool.
//!
//! The rest of the system treats this crate exactly the way the paper treats
//! a GPU cluster: micro-benchmarks are run against it to produce training
//! labels for the neural cost models, and final sharding plans are evaluated
//! against it to produce the "real" embedding costs reported in every table
//! and figure.
//!
//! All costs are reported in **milliseconds**; all stochastic behaviour is
//! driven by explicit `u64` seeds so experiments reproduce bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use nshard_sim::{Cluster, GpuSpec, TableProfile};
//!
//! // Two tables placed on GPU 0, one on GPU 1.
//! let t = |dim| TableProfile::new(dim, 1 << 20, 15.0, 0.3, 1.1);
//! let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536);
//! let costs = cluster
//!     .evaluate(&[vec![t(64), t(32)], vec![t(128)]], 7)
//!     .expect("plan fits in memory");
//! assert!(costs.max_total_ms() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod comm;
mod device;
mod devices;
mod error;
mod kernel;
mod noise;
mod profile;
mod trace;

pub use cluster::{Cluster, DeviceCost, PlanCosts};
pub use comm::{CommDirection, CommParams};
pub use device::GpuSpec;
pub use devices::{DevicePool, DeviceProfile};
pub use error::SimError;
pub use kernel::KernelParams;
pub use noise::NoiseModel;
pub use profile::{TableProfile, BYTES_PER_ELEM, DIM_LANE};
pub use trace::{IterationTrace, Phase, Span, TraceSimulator, TraceSummary};

/// Default per-GPU memory budget for embedding tables used throughout the
/// paper's DLRM benchmark tasks (4 GB).
pub const DEFAULT_MEM_BYTES: u64 = 4 * 1024 * 1024 * 1024;

/// Default training batch size, matching the `bs65536` benchmark dataset.
pub const DEFAULT_BATCH_SIZE: u32 = 65_536;
