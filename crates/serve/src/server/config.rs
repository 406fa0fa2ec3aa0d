//! Daemon configuration: search knobs, admission bounds and the store
//! location.

use std::path::PathBuf;

use nshard_core::NeuroShardConfig;
use nshard_online::IncrementalConfig;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// NeuroShard search knobs for the full chain.
    pub search: NeuroShardConfig,
    /// Warm-start knobs for `POST /v1/replan`.
    pub incremental: IncrementalConfig,
    /// Unread: planning draws no seed. Kept only because the frozen
    /// benchmark surface passes it to [`crate::PlanningEngine::new`]'s
    /// unused `_seed`; both go together.
    pub seed: u64,
    /// Bounded admission-queue capacity; a full queue answers `429`.
    pub queue_capacity: usize,
    /// Worker threads draining the queue; `0` = auto via
    /// [`nshard_pool::resolve_threads`] (the `NSHARD_THREADS` path).
    pub workers: usize,
    /// Persist adopted plans under this directory, and boot with the
    /// plans it holds; `None` = memory only.
    pub store_dir: Option<PathBuf>,
    /// Identical-request response cache entries; `0` (default) disables
    /// it. Safe because identical bodies already produce byte-identical
    /// responses (the documented determinism contract) and a replan entry
    /// keys on the store generation, so a plan adoption invalidates it.
    /// Hits are answered inline at admission without
    /// consuming queue capacity, so repeated bodies measure the HTTP path
    /// rather than re-run identical searches (the open-loop test in
    /// `tests/serve_net.rs` turns it on).
    pub response_cache_entries: usize,
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
