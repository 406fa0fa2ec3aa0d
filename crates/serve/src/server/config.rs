//! Daemon configuration: search knobs, admission bounds, store location
//! and this node's place in a replicated tier.

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
    /// Seed of the replication reconnect jitter (`repl.rs`); planning
    /// draws no seed.
    pub seed: u64,
    /// Bounded admission-queue capacity; a full queue answers `429`.
    pub queue_capacity: usize,
    /// Worker threads draining the queue; `0` = auto via
    /// [`nshard_core::resolve_threads`] (the `NSHARD_THREADS` path).
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
