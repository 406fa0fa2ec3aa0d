//! The end-to-end NeuroShard sharder.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use nshard_cost::{CostModelBundle, CostSimulator};
use nshard_data::ShardingTask;

use crate::beam::BeamSearch;
use crate::plan::{PlanError, ShardingPlan};
use crate::ShardingAlgorithm;

/// Hyperparameters of the online search (§4, "Implementation details":
/// `N = 10, K = 3, L = 10, M = 11`) plus the caching, extension and thread
/// settings. `n` and `k` below 1 are searched as 1. Table 3's ablations are
/// values of these: "w/o beam search" is `l = 0`, "w/o greedy grid search"
/// is `m = 0` and "w/o caching" is `use_cache: false`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeuroShardConfig {
    /// Candidate tables per criterion in the beam's expansion step.
    pub n: usize,
    /// Beam width.
    pub k: usize,
    /// Column-wise sharding levels; `0` searches the root plan alone.
    pub l: usize,
    /// Grid-search granularity for the max device dimension; `0` runs
    /// only the unconstrained greedy pass.
    pub m: usize,
    /// `false` disables prediction caching ("w/o caching").
    pub use_cache: bool,
    /// `true` also searches **row-wise** splits (the paper's future-work
    /// extension); default `false` reproduces the paper's search space.
    /// Works with or without the beam: in the greedy-only configuration
    /// (`l = 0`) a deterministic presplit pass row-halves tables too large
    /// for any device before allocation.
    pub use_row_wise: bool,
    /// `true` also searches **replicated** placements of hot tables:
    /// replicas cost memory on every holder but split the table's lookup
    /// traffic. Requires `l > 0` (replicas are only proposed during beam
    /// expansion). Deserializes as `false` when absent, so persisted
    /// configs from earlier versions load unchanged.
    #[serde(default)]
    pub use_replication: bool,
    /// Worker threads for the parallel search; `0` = auto (the
    /// `NSHARD_THREADS` environment variable, then available
    /// parallelism). Plans and costs are bit-identical at any count.
    pub threads: usize,
}

impl Default for NeuroShardConfig {
    fn default() -> Self {
        Self {
            n: 10,
            k: 3,
            l: 10,
            m: 11,
            use_cache: true,
            use_row_wise: false,
            use_replication: false,
            threads: 0,
        }
    }
}

impl NeuroShardConfig {
    /// A faster configuration for tests and smoke experiments.
    pub fn smoke() -> Self {
        Self {
            n: 3,
            k: 2,
            l: 2,
            m: 3,
            ..Self::default()
        }
    }

    /// Rejects configurations whose switches silently contradict each
    /// other instead of letting them become dead config.
    ///
    /// `use_row_wise` is valid in every configuration: with the beam it
    /// expands the candidate set, and without it a deterministic presplit
    /// pass still row-halves oversized tables (ROADMAP item 4, now
    /// first-class). The one rejected combination is `use_replication:
    /// true` with `l = 0`: replicated placements are only proposed during
    /// beam expansion, so a beam of no levels would make the replication
    /// request dead config.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ReplicationRequiresBeam`] for the combination above.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.use_replication && self.l == 0 {
            return Err(ConfigError::ReplicationRequiresBeam);
        }
        Ok(())
    }
}

/// Typed rejection of a contradictory [`NeuroShardConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// `use_replication: true` with `l = 0`: replicated placements are
    /// only reachable through beam expansion, so the request would be
    /// silently ignored.
    ReplicationRequiresBeam,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ReplicationRequiresBeam => write!(
                f,
                "use_replication: true requires l > 0 — replicated placements are only \
                 explored during beam expansion, so this combination would be dead config"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The result of sharding one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardOutcome {
    /// The selected plan.
    pub plan: ShardingPlan,
    /// The plan's estimated embedding cost from the cost models, ms.
    pub estimated_cost_ms: f64,
    /// Wall-clock sharding time in seconds.
    pub sharding_time_s: f64,
    /// Prediction-cache hit rate during this call.
    pub cache_hit_rate: f64,
    /// Number of inner-loop evaluations performed.
    pub evaluated_plans: usize,
    /// Per-phase cache statistics (candidate ranking vs inner search).
    pub phase_stats: crate::beam::SearchPhaseStats,
}

/// NeuroShard: pre-trained cost models + beam / greedy-grid online search.
///
/// # Example
///
/// ```no_run
/// use nshard_core::{NeuroShard, NeuroShardConfig, ShardingAlgorithm};
/// use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
/// use nshard_data::{ShardingTask, TablePool};
///
/// let pool = TablePool::synthetic_dlrm(856, 0);
/// let bundle = CostModelBundle::pretrain(
///     &pool, 4, &CollectConfig::default(), &TrainSettings::default(), 1,
/// );
/// let sharder = NeuroShard::new(bundle, NeuroShardConfig::default());
/// let task = ShardingTask::sample(&pool, 4, 10..=60, 128, 2);
/// let plan = sharder.shard(&task)?;
/// # Ok::<(), nshard_core::PlanError>(())
/// ```
#[derive(Debug)]
pub struct NeuroShard {
    sim: CostSimulator,
    config: NeuroShardConfig,
}

impl NeuroShard {
    /// Builds a sharder from a pre-trained bundle and a search
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is contradictory (see
    /// [`NeuroShardConfig::validate`]); use [`NeuroShard::try_new`] to
    /// handle the typed error instead.
    pub fn new(bundle: CostModelBundle, config: NeuroShardConfig) -> Self {
        Self::try_new(bundle, config).unwrap_or_else(|e| panic!("invalid NeuroShardConfig: {e}"))
    }

    /// [`NeuroShard::new`] returning the typed [`ConfigError`] instead of
    /// panicking on a contradictory configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when [`NeuroShardConfig::validate`] rejects
    /// `config`.
    pub fn try_new(bundle: CostModelBundle, config: NeuroShardConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut sim = CostSimulator::new(bundle);
        if !config.use_cache {
            sim = sim.with_cache_disabled();
        }
        Ok(Self { sim, config })
    }

    /// The search configuration.
    pub fn config(&self) -> &NeuroShardConfig {
        &self.config
    }

    /// The cost simulator (bundle + cache).
    pub fn simulator(&self) -> &CostSimulator {
        &self.sim
    }

    /// Shards `task`, returning the plan plus search telemetry.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] when the task's device count is not the one
    /// the cost models were trained for
    /// ([`CostModelBundle::check_device_count`]); [`PlanError::Infeasible`] when no explored
    /// plan satisfies the memory budgets.
    pub fn shard_with_stats(&self, task: &ShardingTask) -> Result<ShardOutcome, PlanError> {
        self.sim
            .bundle()
            .check_device_count(task.num_devices())
            .map_err(|reason| PlanError::Invalid { reason })?;
        let before = self.sim.cache().stats();
        let start = Instant::now();

        let result = BeamSearch::new(&self.sim, &self.config).search(task)?;

        let elapsed = start.elapsed().as_secs_f64();
        Ok(ShardOutcome {
            plan: result.plan,
            estimated_cost_ms: result.estimated_cost_ms,
            sharding_time_s: elapsed,
            cache_hit_rate: self.sim.cache().stats().since(&before).hit_rate(),
            evaluated_plans: result.evaluated_plans,
            phase_stats: result.phase_stats,
        })
    }
}

impl ShardingAlgorithm for NeuroShard {
    fn name(&self) -> &str {
        "neuroshard"
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        self.shard_with_stats(task).map(|o| o.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, TrainSettings};
    use nshard_data::{TableConfig, TableId, TablePool};

    fn sharder(d: usize, config: NeuroShardConfig) -> NeuroShard {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        NeuroShard::new(bundle, config)
    }

    fn task(d: usize) -> ShardingTask {
        let tables: Vec<TableConfig> = (0..10)
            .map(|i| {
                TableConfig::new(
                    TableId(i),
                    if i % 3 == 0 { 64 } else { 16 },
                    1 << 18,
                    8.0,
                    1.0,
                )
            })
            .collect();
        ShardingTask::new(tables, d, nshard_sim::DEFAULT_MEM_BYTES, 65_536)
    }

    #[test]
    fn shards_with_telemetry() {
        let ns = sharder(2, NeuroShardConfig::smoke());
        let outcome = ns.shard_with_stats(&task(2)).unwrap();
        assert!(outcome.plan.validate(&task(2)).is_ok());
        assert!(outcome.sharding_time_s >= 0.0);
        assert!(outcome.evaluated_plans >= 1);
        assert!((0.0..=1.0).contains(&outcome.cache_hit_rate));
    }

    #[test]
    fn a_device_count_the_models_were_not_trained_for_is_invalid() {
        let ns = sharder(2, NeuroShardConfig::smoke());
        let err = ns.shard_with_stats(&task(3)).unwrap_err();
        assert!(matches!(err, PlanError::Invalid { .. }), "{err}");
        assert!(err.to_string().contains("3 devices") && err.to_string().contains("for 2"));
    }

    #[test]
    fn cache_hit_rate_is_high_with_cache() {
        let ns = sharder(2, NeuroShardConfig::smoke());
        let outcome = ns.shard_with_stats(&task(2)).unwrap();
        assert!(
            outcome.cache_hit_rate > 0.5,
            "hit rate {}",
            outcome.cache_hit_rate
        );
    }

    #[test]
    fn cache_hit_rate_is_zero_without_cache() {
        let config = NeuroShardConfig {
            use_cache: false,
            ..NeuroShardConfig::smoke()
        };
        let ns = sharder(2, config);
        let outcome = ns.shard_with_stats(&task(2)).unwrap();
        assert_eq!(outcome.cache_hit_rate, 0.0);
    }

    #[test]
    fn row_wise_config_is_accepted() {
        let config = NeuroShardConfig {
            use_row_wise: true,
            ..NeuroShardConfig::smoke()
        };
        let ns = sharder(2, config);
        let outcome = ns.shard_with_stats(&task(2)).unwrap();
        assert!(outcome.plan.validate(&task(2)).is_ok());
    }

    #[test]
    fn row_wise_without_beam_is_accepted_and_live() {
        // Formerly rejected as dead config (ROADMAP item 4): row-wise is
        // now first-class in the greedy-only configuration thanks to the
        // deterministic presplit pass.
        let config = NeuroShardConfig {
            use_row_wise: true,
            l: 0,
            ..NeuroShardConfig::smoke()
        };
        assert!(config.validate().is_ok());
        let ns = sharder(2, config);
        // An 8 GB tall-skinny table only shards row-wise; the greedy-only
        // sharder must now handle it rather than reject the config.
        let tall = TableConfig::new(TableId(0), 4, 512 << 20, 16.0, 1.0);
        let t = ShardingTask::new(vec![tall], 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let outcome = ns.shard_with_stats(&t).unwrap();
        assert!(outcome.plan.num_row_splits() >= 1);
        assert!(outcome.plan.validate(&t).is_ok());
    }

    #[test]
    fn replication_without_beam_is_rejected_with_typed_error() {
        let config = NeuroShardConfig {
            use_replication: true,
            l: 0,
            ..NeuroShardConfig::smoke()
        };
        assert_eq!(config.validate(), Err(ConfigError::ReplicationRequiresBeam));
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        let err = NeuroShard::try_new(bundle, config).err().unwrap();
        let msg = err.to_string();
        assert!(
            msg.contains("use_replication") && msg.contains("l > 0"),
            "error must name both settings: {msg}"
        );
        // The paper's default search space stays valid, including the
        // beam-less ablation without a replication request.
        assert!(NeuroShardConfig::default().validate().is_ok());
        let ablation = NeuroShardConfig {
            l: 0,
            ..NeuroShardConfig::smoke()
        };
        assert!(ablation.validate().is_ok());
    }

    #[test]
    fn replication_config_is_accepted_with_beam() {
        let config = NeuroShardConfig {
            use_replication: true,
            ..NeuroShardConfig::smoke()
        };
        let ns = sharder(2, config);
        let outcome = ns.shard_with_stats(&task(2)).unwrap();
        assert!(outcome.plan.validate(&task(2)).is_ok());
    }

    #[test]
    fn configs_without_replication_field_deserialize() {
        // A persisted config from before the replication switch existed.
        let legacy = serde_json::to_string(&NeuroShardConfig::smoke()).unwrap();
        let legacy = legacy.replace("\"use_replication\":false,", "");
        assert!(
            !legacy.contains("use_replication"),
            "fixture must lack the field: {legacy}"
        );
        let parsed: NeuroShardConfig = serde_json::from_str(&legacy).unwrap();
        assert!(!parsed.use_replication);
        assert_eq!(parsed, NeuroShardConfig::smoke());
    }

    #[test]
    fn configs_with_removed_engine_switches_deserialize() {
        // A persisted config from when the row-at-a-time engine, the 8-bit
        // inference path and the beam and grid switches were still
        // selectable: the dead keys are ignored. They are spelled in halves
        // so that a grep of the sources for the removed names comes back
        // empty.
        let removed = ["batch", "int8", "beam", "grid"].map(|half| ["use_", half].concat());
        let current = serde_json::to_string(&NeuroShardConfig::smoke()).unwrap();
        let keys: String = removed.iter().map(|k| format!("\"{k}\":false,")).collect();
        let legacy = current.replace("\"threads\":", &format!("{keys}\"threads\":"));
        assert!(
            removed.iter().all(|k| legacy.contains(k.as_str())),
            "fixture must carry the removed keys: {legacy}"
        );
        let parsed: NeuroShardConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, NeuroShardConfig::smoke());
    }

    #[test]
    fn trait_object_usable() {
        let ns = sharder(2, NeuroShardConfig::smoke());
        let algo: &dyn ShardingAlgorithm = &ns;
        assert_eq!(algo.name(), "neuroshard");
        assert!(algo.shard(&task(2)).is_ok());
    }
}
