//! Column-wise sharding with beam search (Algorithm 1, the outer loop).
//!
//! Column-wise sharding removes oversized and overly costly tables so the
//! table-wise allocator can balance, but each split *increases* total
//! computation (Observation 1) — so the search wants a balance-enabling
//! plan with as few steps as possible. The beam explores `L` levels; at
//! each level the candidates for splitting are the top-`N` most costly and
//! the top-`N` largest tables (duplicates removed), and only the `K` best
//! partial plans survive to the next level. `L = 0` evaluates the root plan
//! alone — Table 3's "w/o beam search".

use std::time::Instant;

use serde::{Deserialize, Serialize};

use nshard_cost::CacheStats;
use nshard_data::{ShardingTask, TableConfig};
use nshard_pool::WorkPool;
use nshard_sim::TableProfile;

use crate::greedy_grid::{single_table_costs, GreedyGridSearch};
use crate::neuroshard::{NeuroShard, ShardOutcome};
use crate::plan::{apply_split_plan, PlanError, ShardingPlan, SplitKind, SplitPlan, SplitStep};

/// Score offset for memory-infeasible beam entries: far above any real
/// cost (ms), with the plan's largest shard size (bytes) added so that
/// infeasible plans closer to fitting sort first.
const INFEASIBLE_BASE: f64 = 1e15;

/// Prediction-cache statistics split by search phase (the per-phase hit
/// rates of the Table 3 ablation output).
///
/// Both phases count the same at any thread count: a miss is an entry
/// stored, so inner searches that run concurrently and compute one key
/// count one miss between them, and every other lookup is a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchPhaseStats {
    /// Candidate ranking (single-table cost lookups in the beam expansion).
    pub candidate: CacheStats,
    /// Inner-loop plan evaluation (greedy probes + plan estimates).
    pub inner: CacheStats,
}

/// The beam search over column-wise sharding plans. Every knob is read
/// from the sharder's [`crate::NeuroShardConfig`] (`use_cache` excepted:
/// caching is a property of its simulator); `l = 0` searches the root plan
/// alone and `m = 0` runs each inner search without a grid.
impl NeuroShard {
    /// Shards `task`, returning the plan plus search telemetry: the one
    /// entry to the beam search.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] when the task's device count is not the one
    /// the cost models were trained for
    /// ([`nshard_cost::CostModelBundle::check_device_count`]);
    /// [`PlanError::Infeasible`] when no explored column-wise plan admits a
    /// memory-feasible table-wise plan; [`PlanError::NonFiniteCost`] when a
    /// cost model predicts NaN or an infinity for a candidate table or
    /// anywhere in an inner search — the run stops there instead of
    /// ranking plans by a meaningless number.
    pub fn shard_with_stats(&self, task: &ShardingTask) -> Result<ShardOutcome, PlanError> {
        let (sim, config) = (self.simulator(), self.config());
        sim.bundle()
            .check_device_count(task.num_devices())
            .map_err(|reason| PlanError::Invalid { reason })?;
        let start = Instant::now();
        // The one fan-out level: a beam level's candidate plans spread over
        // the pool in contiguous chunks, each chunk's inner searches walked
        // in lockstep by one thread; the root plan is a one-job batch.
        let pool = WorkPool::new(config.threads);
        let inner = GreedyGridSearch::new(sim, config.m);
        let cache = sim.cache();
        let at_start = cache.stats();
        let mut phase_stats = SearchPhaseStats::default();
        let mut evaluated = 0usize;

        // Fleet context, shared by every inner search of this run.
        let fleet = task.devices();
        let batch_size = task.batch_size();

        // The root plan: empty, except when row-wise sharding is on —
        // then a deterministic presplit pass first row-halves any table
        // too large for every device, so row-wise splits stay reachable
        // even with the beam disabled (`L = 0`, the greedy-only config).
        let root: SplitPlan = if config.use_row_wise {
            presplit_steps(task)
        } else {
            Vec::new()
        };
        let root_tables = apply_split_plan(task.tables(), &root)
            .expect("presplit steps are constructed to be applicable");

        // Line 4's initial beam is the root plan alone; every level then
        // evaluates the jobs the beam before it expands to.
        let mut best: Option<(SplitPlan, f64, Vec<usize>)> = None;
        let mut jobs: Vec<(SplitPlan, Vec<TableConfig>)> = vec![(root, root_tables)];
        let levels = config.l;
        for level in 0..=levels {
            evaluated += jobs.len();
            // Evaluate the level's jobs concurrently: each worker takes one
            // contiguous chunk (siblings stay together) and walks its inner
            // searches in lockstep. Results come back in job order, so the
            // fold below visits them as the serial loop would.
            let before = cache.stats();
            let chunks: Vec<_> = jobs.chunks(jobs.len().div_ceil(pool.threads())).collect();
            let results: Vec<_> = pool
                .map(&chunks, |chunk| {
                    let tables: Vec<&[TableConfig]> = chunk.iter().map(|(_, s)| &s[..]).collect();
                    inner.search_batch(&tables, fleet, batch_size)
                })
                .into_iter()
                .flatten()
                .collect();
            phase_stats.inner.absorb(&cache.stats().since(&before));

            let mut beam: Vec<(SplitPlan, f64)> = Vec::with_capacity(jobs.len());
            for ((new_plan, new_sharded), result) in jobs.into_iter().zip(results) {
                match result {
                    Ok(result) => {
                        let improves = best
                            .as_ref()
                            .is_none_or(|(_, c, _)| result.estimated_cost_ms < *c);
                        if improves {
                            best = Some((
                                new_plan.clone(),
                                result.estimated_cost_ms,
                                result.device_of,
                            ));
                        }
                        beam.push((new_plan, result.estimated_cost_ms));
                    }
                    Err(e @ PlanError::NonFiniteCost { .. }) => return Err(e),
                    Err(_) => {
                        // Memory-infeasible: keep the plan explorable,
                        // ranked behind every feasible plan but ahead of
                        // other infeasible plans with *larger* biggest
                        // shards — this steers the beam monotonically
                        // toward feasibility instead of pruning the
                        // oversized-table branch arbitrarily.
                        let max_bytes = new_sharded
                            .iter()
                            .map(|t| t.memory_bytes())
                            .max()
                            .unwrap_or(0);
                        beam.push((new_plan, INFEASIBLE_BASE + max_bytes as f64));
                    }
                }
            }
            beam.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("inner searches return finite estimates")
            });
            beam.truncate(config.k.max(1));
            if level == levels {
                break;
            }

            // Expand every beam entry's candidates serially, building the
            // next level's jobs in a deterministic order.
            let before = cache.stats();
            jobs = Vec::new();
            for (col_plan, _) in &beam {
                let sharded = apply_split_plan(task.tables(), col_plan)
                    .expect("beam plans are constructed to be applicable");
                for cand in self.candidates(&sharded, batch_size)? {
                    let mut new_plan = col_plan.clone();
                    new_plan.push(cand);
                    match apply_split_plan(task.tables(), &new_plan) {
                        Ok(s) => jobs.push((new_plan, s)),
                        Err(_) => continue, // unsplittable candidate
                    }
                }
            }
            phase_stats.candidate.absorb(&cache.stats().since(&before));
            if jobs.is_empty() {
                break; // nothing splittable left anywhere in the beam
            }
        }

        let (split_plan, cost, device_of) = best.ok_or_else(|| PlanError::Infeasible {
            reason: format!(
                "no split plan within {levels} levels yields a memory-feasible assignment"
            ),
        })?;
        let sharded = apply_split_plan(task.tables(), &split_plan)?;
        let plan = ShardingPlan::new(split_plan, sharded, device_of, task.num_devices())?;
        Ok(ShardOutcome {
            plan,
            estimated_cost_ms: cost,
            sharding_time_s: start.elapsed().as_secs_f64(),
            cache_hit_rate: cache.stats().since(&at_start).hit_rate(),
            evaluated_plans: evaluated,
            phase_stats,
        })
    }

    /// Candidate split steps: top-`N` tables by predicted cost plus top-`N`
    /// by size, duplicates removed, unsplittable tables excluded (line 9).
    /// With row-wise sharding enabled, each candidate table contributes
    /// both a column step and a row step (where legal); with replication
    /// enabled, a replicate step as well.
    ///
    /// # Errors
    ///
    /// [`PlanError::NonFiniteCost`] when a table's predicted cost is NaN
    /// or an infinity.
    fn candidates(
        &self,
        tables: &[TableConfig],
        batch_size: u32,
    ) -> Result<Vec<SplitStep>, PlanError> {
        let config = self.config();
        let (row_wise, replication) = (config.use_row_wise, config.use_replication);
        let n = config.n.max(1);
        let relevant: Vec<usize> = (0..tables.len())
            .filter(|&i| {
                tables[i].split_columns().is_some()
                    || (row_wise && tables[i].split_rows().is_some())
                    || (replication && tables[i].replicate().is_some())
            })
            .collect();
        if relevant.is_empty() {
            return Ok(Vec::new());
        }
        // One batched call scores every relevant table up front (memoized
        // under singleton set keys), so the sort comparator is O(1) —
        // no model call, no cache lookup per comparison.
        let profiles: Vec<TableProfile> = relevant
            .iter()
            .map(|&i| tables[i].profile(batch_size))
            .collect();
        let costs = single_table_costs(self.simulator(), &profiles)?;
        let mut by_cost: Vec<usize> = (0..relevant.len()).collect();
        by_cost.sort_by(|&a, &b| {
            costs[b]
                .partial_cmp(&costs[a])
                .expect("every single-table cost was checked finite")
        });
        let mut by_size: Vec<usize> = (0..relevant.len()).collect();
        by_size.sort_by(|&a, &b| {
            tables[relevant[b]]
                .memory_bytes()
                .cmp(&tables[relevant[a]].memory_bytes())
        });

        let mut seen = vec![false; relevant.len()];
        let mut picked: Vec<usize> = Vec::with_capacity(2 * n);
        for &r in by_cost.iter().take(n).chain(by_size.iter().take(n)) {
            if !seen[r] {
                seen[r] = true;
                picked.push(relevant[r]);
            }
        }
        let mut out = Vec::with_capacity(picked.len() * 2);
        for &i in &picked {
            if tables[i].split_columns().is_some() {
                out.push(SplitStep {
                    index: i,
                    kind: SplitKind::Column,
                });
            }
            if row_wise && tables[i].split_rows().is_some() {
                out.push(SplitStep {
                    index: i,
                    kind: SplitKind::Row,
                });
            }
            if replication && tables[i].replicate().is_some() {
                out.push(SplitStep {
                    index: i,
                    kind: SplitKind::Replicate,
                });
            }
        }
        Ok(out)
    }
}

/// Deterministic feasibility presplit (row-wise mode only): while the
/// largest shard exceeds every device's memory budget, halve it —
/// row-wise when its rows still split, column-wise otherwise. Ties
/// break on the lowest index, so the step sequence is a pure function
/// of the task. Returns an empty plan when every table already fits.
fn presplit_steps(task: &ShardingTask) -> SplitPlan {
    let max_budget = task.devices().max_budget();
    let mut steps: SplitPlan = Vec::new();
    let mut tables = task.tables().to_vec();
    while let Some(worst) = (0..tables.len()).max_by(|&a, &b| {
        tables[a]
            .memory_bytes()
            .cmp(&tables[b].memory_bytes())
            .then(b.cmp(&a)) // prefer the lower index on ties
    }) {
        if tables[worst].memory_bytes() <= max_budget {
            break;
        }
        let halves = tables[worst]
            .split_rows()
            .or_else(|| tables[worst].split_columns());
        let Some((a, b)) = halves else {
            break; // unsplittable: leave infeasibility to the search
        };
        let kind = if tables[worst].split_rows().is_some() {
            SplitKind::Row
        } else {
            SplitKind::Column
        };
        steps.push(SplitStep { index: worst, kind });
        tables[worst] = a;
        tables.push(b);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NeuroShardConfig;
    use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
    use nshard_data::{ShardingTask, TableConfig, TableId, TablePool};

    fn bundle(d: usize) -> CostModelBundle {
        let pool = TablePool::synthetic_dlrm(30, 1);
        CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        )
    }

    /// One search with a fresh sharder over `bundle`.
    fn search(
        bundle: &CostModelBundle,
        config: NeuroShardConfig,
        task: &ShardingTask,
    ) -> Result<ShardOutcome, PlanError> {
        NeuroShard::new(bundle.clone(), config).shard_with_stats(task)
    }

    /// `NeuroShardConfig::smoke()` with the given levels / candidate count.
    fn config(l: usize, n: usize) -> NeuroShardConfig {
        NeuroShardConfig {
            l,
            n,
            ..NeuroShardConfig::smoke()
        }
    }

    fn small_task(d: usize) -> ShardingTask {
        let tables: Vec<TableConfig> = (0..8)
            .map(|i| {
                TableConfig::new(
                    TableId(i),
                    if i % 2 == 0 { 64 } else { 16 },
                    1 << 18,
                    8.0,
                    1.0,
                )
            })
            .collect();
        ShardingTask::new(tables, d, nshard_sim::DEFAULT_MEM_BYTES, 65_536)
    }

    #[test]
    fn finds_a_valid_plan() {
        let bundle = bundle(2);
        let task = small_task(2);
        let result = search(&bundle, NeuroShardConfig::smoke(), &task).unwrap();
        assert!(result.plan.validate(&task).is_ok());
        assert!(result.estimated_cost_ms.is_finite());
        assert!(result.evaluated_plans >= 1);
    }

    #[test]
    fn splits_oversized_tables_to_fit() {
        let bundle = bundle(2);
        // One table too large for any single device: must be split.
        let big = TableConfig::new(TableId(0), 128, 4 << 20, 8.0, 1.0); // 2 GB
        let small = TableConfig::new(TableId(1), 16, 1 << 16, 4.0, 1.0);
        // 1.25 GB budget: the 2 GB table must split, and its 1 GB halves
        // plus the small table then fit comfortably.
        let task = ShardingTask::new(vec![big, small], 2, (1 << 30) + (1 << 28), 65_536);
        let result = search(&bundle, config(3, 2), &task).unwrap();
        assert!(
            !result.plan.split_plan().is_empty(),
            "must column-split the 2 GB table"
        );
        assert!(result.plan.validate(&task).is_ok());
    }

    #[test]
    fn without_beam_fails_on_oversized_tables() {
        let bundle = bundle(2);
        let big = TableConfig::new(TableId(0), 128, 4 << 20, 8.0, 1.0); // 2 GB
        let task = ShardingTask::new(vec![big], 2, 1 << 30, 65_536);
        // Ablation: no column-wise sharding.
        let no_beam = NeuroShardConfig {
            l: 0,
            ..NeuroShardConfig::default()
        };
        assert!(matches!(
            search(&bundle, no_beam, &task),
            Err(PlanError::Infeasible { .. })
        ));
    }

    #[test]
    fn more_levels_never_hurt() {
        let bundle = bundle(2);
        let task = small_task(2);
        let shallow = search(&bundle, config(0, 3), &task).unwrap();
        let deep = search(&bundle, NeuroShardConfig::smoke(), &task).unwrap();
        assert!(deep.estimated_cost_ms <= shallow.estimated_cost_ms + 1e-9);
    }

    #[test]
    fn candidate_count_respects_n() {
        let bundle = bundle(2);
        let task = small_task(2);
        let cands = NeuroShard::new(bundle.clone(), config(10, 2))
            .candidates(task.tables(), task.batch_size());
        let cands = cands.unwrap();
        assert!(cands.len() <= 4); // 2 by cost + 2 by size, deduped
        assert!(!cands.is_empty());
    }

    #[test]
    fn row_wise_rescues_tall_skinny_tables() {
        let bundle = bundle(2);
        // A dim-4 table of 512 M rows = 8 GB: column-wise sharding cannot
        // split it (dim 4 is the lane minimum), so plain NeuroShard fails...
        let tall = TableConfig::new(TableId(0), 4, 512 << 20, 16.0, 1.0);
        let task = ShardingTask::new(vec![tall], 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let plain = config(4, 2);
        assert!(matches!(
            search(&bundle, plain, &task),
            Err(PlanError::Infeasible { .. })
        ));
        // ...while the row-wise extension splits it across devices.
        let extended = NeuroShardConfig {
            use_row_wise: true,
            ..plain
        };
        let result = search(&bundle, extended, &task).unwrap();
        assert!(result.plan.num_row_splits() >= 1);
        assert!(result.plan.validate(&task).is_ok());
    }

    #[test]
    fn row_wise_never_hurts_estimated_cost() {
        let bundle = bundle(2);
        let task = small_task(2);
        let plain = NeuroShardConfig::smoke();
        let base = search(&bundle, plain, &task).unwrap();
        let extended = NeuroShardConfig {
            use_row_wise: true,
            ..plain
        };
        let extended = search(&bundle, extended, &task).unwrap();
        assert!(extended.estimated_cost_ms <= base.estimated_cost_ms + 1e-9);
    }

    #[test]
    fn parallel_beam_is_bit_identical_to_serial() {
        let bundle = bundle(2);
        let task = small_task(2);
        let run = |threads| {
            let config = NeuroShardConfig {
                threads,
                ..NeuroShardConfig::smoke()
            };
            search(&bundle, config, &task).unwrap()
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            assert_eq!(
                parallel.plan, serial.plan,
                "plan diverged at {threads} threads"
            );
            assert_eq!(
                parallel.estimated_cost_ms.to_bits(),
                serial.estimated_cost_ms.to_bits(),
                "cost diverged at {threads} threads"
            );
            assert_eq!(parallel.evaluated_plans, serial.evaluated_plans);
        }
    }

    #[test]
    fn phase_stats_are_populated() {
        let bundle = bundle(2);
        let task = small_task(2);
        let result = search(&bundle, NeuroShardConfig::smoke(), &task).unwrap();
        assert!(result.phase_stats.candidate.total() > 0);
        assert!(result.phase_stats.inner.total() > 0);
        assert!(result.phase_stats.inner.hit_rate() <= 1.0);
    }

    #[test]
    fn row_wise_without_beam_presplits_tall_tables() {
        let bundle = bundle(2);
        // 8 GB tall-skinny table, greedy-only config (L = 0): the
        // deterministic presplit pass must row-halve it until it fits.
        let tall = TableConfig::new(TableId(0), 4, 512 << 20, 16.0, 1.0);
        let task = ShardingTask::new(vec![tall], 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let greedy_only = NeuroShardConfig {
            l: 0,
            use_row_wise: true,
            ..NeuroShardConfig::default()
        };
        let result = search(&bundle, greedy_only, &task).unwrap();
        assert!(result.plan.num_row_splits() >= 1);
        assert!(result.plan.validate(&task).is_ok());
    }

    #[test]
    fn replication_proposes_replicate_candidates() {
        let bundle = bundle(2);
        let replicating = NeuroShardConfig {
            use_replication: true,
            ..config(10, 3)
        };
        let task = small_task(2);
        let cands = NeuroShard::new(bundle.clone(), replicating)
            .candidates(task.tables(), task.batch_size());
        assert!(cands
            .unwrap()
            .iter()
            .any(|s| s.kind == SplitKind::Replicate));
    }

    #[test]
    fn replication_never_hurts_estimated_cost() {
        let bundle = bundle(2);
        let task = small_task(2);
        let plain = NeuroShardConfig::smoke();
        let base = search(&bundle, plain, &task).unwrap();
        let replicating = NeuroShardConfig {
            use_replication: true,
            ..plain
        };
        let replicated = search(&bundle, replicating, &task).unwrap();
        assert!(replicated.estimated_cost_ms <= base.estimated_cost_ms + 1e-9);
        assert!(replicated.plan.validate(&task).is_ok());
    }

    #[test]
    fn heterogeneous_task_plans_respect_per_device_budgets() {
        use nshard_data::{DevicePool, DeviceProfile};
        let bundle = bundle(2);
        let tables: Vec<TableConfig> = (0..6)
            .map(|i| TableConfig::new(TableId(i), 32, 1 << 16, 6.0, 1.0))
            .collect();
        let total: u64 = tables.iter().map(|t| t.memory_bytes()).sum();
        // Device 1 fits a single table; the rest must crowd onto device 0.
        let one_table = tables[0].memory_bytes();
        let pool = DevicePool::new(
            vec![
                DeviceProfile::new(total, 1.0, 0),
                DeviceProfile::new(one_table, 1.0, 0),
            ],
            1.0,
        );
        let task =
            ShardingTask::new(tables, 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536).with_devices(pool);
        let result = search(&bundle, config(1, 2), &task).unwrap();
        assert!(result.plan.validate(&task).is_ok());
        let bytes = result.plan.device_bytes();
        assert!(bytes[1] <= one_table);
    }

    #[test]
    fn hetero_parallel_beam_is_bit_identical_to_serial() {
        use nshard_data::DevicePool;
        let bundle = bundle(2);
        let tables: Vec<TableConfig> = (0..8)
            .map(|i| {
                TableConfig::new(
                    TableId(i),
                    if i % 2 == 0 { 64 } else { 16 },
                    1 << 18,
                    8.0,
                    1.0,
                )
            })
            .collect();
        let pool = DevicePool::two_tier(
            1,
            nshard_sim::DEFAULT_MEM_BYTES,
            1,
            nshard_sim::DEFAULT_MEM_BYTES / 2,
            2.0,
            0.25,
        );
        let task =
            ShardingTask::new(tables, 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536).with_devices(pool);
        let run = |threads| {
            let config = NeuroShardConfig {
                use_row_wise: true,
                use_replication: true,
                threads,
                ..NeuroShardConfig::smoke()
            };
            search(&bundle, config, &task).unwrap()
        };
        let serial = run(1);
        for threads in [2, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.plan, serial.plan, "diverged at {threads} threads");
            assert_eq!(
                parallel.estimated_cost_ms.to_bits(),
                serial.estimated_cost_ms.to_bits()
            );
        }
    }

    #[test]
    fn all_dim4_tables_terminate_immediately() {
        let bundle = bundle(2);
        let tables: Vec<TableConfig> = (0..4)
            .map(|i| TableConfig::new(TableId(i), 4, 1 << 16, 4.0, 1.0))
            .collect();
        let task = ShardingTask::new(tables, 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let result = search(&bundle, config(5, 10), &task).unwrap();
        assert!(result.plan.split_plan().is_empty());
    }
}
