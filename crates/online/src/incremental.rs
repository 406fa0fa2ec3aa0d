//! Migration-aware incremental replanning.
//!
//! A full NeuroShard search treats every replan as a blank slate: it is
//! free to relocate every table, and on a drifting workload that freedom
//! is paid for in moved embedding bytes. The [`IncrementalPlanner`] instead
//! warm-starts from the incumbent plan and hill-climbs over *local moves*
//! — single-table moves, pairwise swaps and in-place splits — scoring each
//! candidate with the same pre-trained [`CostSimulator`] the offline search
//! uses, priced for the task's fleet exactly as the search prices it
//! ([`estimate_for_task`]), under the migration-regularized objective
//!
//! ```text
//! J(p) = est_total_ms(p) + λ · migration_GB(incumbent → p)
//! ```
//!
//! with a lexicographic memory-overflow term in front: a drifted workload
//! can push the incumbent over budget, and an infeasible plan must be
//! repaired before `J` is worth comparing.
//!
//! The search is bit-deterministic at any thread count: candidates are
//! generated serially in a fixed order, the [`WorkPool`] only *constructs*
//! candidate plans (order-preserving map of pure functions), and all
//! scoring happens in a single [`estimate_batch_for_task`] call.

use serde::{Deserialize, Serialize};

use nshard_core::{
    estimate_batch_for_task, estimate_for_task, migration_bytes, NeuroShardConfig, PlanError,
    ShardingPlan, SplitKind, WorkPool,
};
use nshard_cost::{CostSimulator, EstimatedCost};
use nshard_data::ShardingTask;

/// Bytes per gigabyte, for the λ migration term.
const BYTES_PER_GB: f64 = 1e9;

/// Minimum objective improvement to accept a move — guards against
/// floating-point noise keeping the hill-climb alive forever.
const MIN_GAIN_MS: f64 = 1e-9;

/// How many of a donor device's heaviest tables are considered per round.
const CANDIDATES_PER_DEVICE: usize = 8;

/// Maximum hill-climb rounds (one accepted move per round).
const MAX_ROUNDS: usize = 32;

/// One local move of an incremental replan, in application order.
///
/// Indices refer to the *sharded* table list of the plan the step is
/// applied to (which grows as `Split` steps execute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaStep {
    /// Relocate sharded table `table` from device `from` to device `to`.
    Move {
        /// Sharded-table index.
        table: usize,
        /// Device the table currently lives on (validated on apply).
        from: usize,
        /// Destination device.
        to: usize,
    },
    /// Exchange the devices of sharded tables `a` and `b`.
    Swap {
        /// First sharded-table index.
        a: usize,
        /// Second sharded-table index.
        b: usize,
    },
    /// Split sharded table `table`; the first half stays in place and the
    /// second half is appended to the sharded list on `second_device`.
    Split {
        /// Sharded-table index.
        table: usize,
        /// Split direction.
        kind: SplitKind,
        /// Device receiving the appended second half.
        second_device: usize,
    },
}

/// An ordered, replayable re-sharding delta: applying `steps` to the plan
/// it was computed against reproduces the planner's output exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanDelta {
    /// Local moves in application order.
    pub steps: Vec<DeltaStep>,
    /// Embedding bytes that applying the delta moves between devices.
    pub migration_bytes: u64,
}

impl PlanDelta {
    /// The empty delta (keep the incumbent, move nothing).
    pub fn empty() -> Self {
        Self {
            steps: Vec::new(),
            migration_bytes: 0,
        }
    }

    /// Whether the delta leaves the plan untouched.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Replays the delta against `base`, producing the new plan.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] when a step references a missing table or
    /// device or a `Move`'s `from` does not match the table's actual
    /// device; [`PlanError::UnsplittableTable`] when a `Split` is illegal.
    pub fn apply(&self, base: &ShardingPlan) -> Result<ShardingPlan, PlanError> {
        let mut split_plan = base.split_plan().to_vec();
        let mut tables = base.sharded_tables().to_vec();
        let mut device_of = base.device_of().to_vec();
        let num_devices = base.num_devices();
        for (i, step) in self.steps.iter().enumerate() {
            match *step {
                DeltaStep::Move { table, from, to } => {
                    let actual = *device_of.get(table).ok_or_else(|| PlanError::Invalid {
                        reason: format!("delta step {i}: no sharded table {table}"),
                    })?;
                    if actual != from {
                        return Err(PlanError::Invalid {
                            reason: format!(
                                "delta step {i}: table {table} is on device {actual}, not {from}"
                            ),
                        });
                    }
                    if to >= num_devices {
                        return Err(PlanError::Invalid {
                            reason: format!("delta step {i}: no device {to}"),
                        });
                    }
                    device_of[table] = to;
                }
                DeltaStep::Swap { a, b } => {
                    if a >= device_of.len() || b >= device_of.len() {
                        return Err(PlanError::Invalid {
                            reason: format!("delta step {i}: swap ({a}, {b}) out of range"),
                        });
                    }
                    device_of.swap(a, b);
                }
                DeltaStep::Split {
                    table,
                    kind,
                    second_device,
                } => {
                    if table >= tables.len() {
                        return Err(PlanError::Invalid {
                            reason: format!("delta step {i}: no sharded table {table}"),
                        });
                    }
                    if second_device >= num_devices {
                        return Err(PlanError::Invalid {
                            reason: format!("delta step {i}: no device {second_device}"),
                        });
                    }
                    let halves = match kind {
                        SplitKind::Column => tables[table].split_columns(),
                        SplitKind::Row => tables[table].split_rows(),
                        SplitKind::Replicate => tables[table].replicate(),
                    }
                    .ok_or(PlanError::UnsplittableTable {
                        step: i,
                        index: table,
                        dim: tables[table].dim(),
                    })?;
                    tables[table] = halves.0;
                    tables.push(halves.1);
                    device_of.push(second_device);
                    split_plan.push(nshard_core::plan::SplitStep { index: table, kind });
                }
            }
        }
        ShardingPlan::with_split_plan(split_plan, tables, device_of, num_devices)
    }
}

/// Tuning knobs of the incremental planner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Migration penalty λ, in milliseconds of estimated embedding cost
    /// per gigabyte moved. Small values chase cost aggressively; large
    /// values pin tables in place.
    pub lambda_ms_per_gb: f64,
    /// Worker threads for candidate construction (`0` = auto, honoring
    /// `NSHARD_THREADS`). Thread count never changes the result.
    pub threads: usize,
    /// Whether row-wise split candidates are proposed. A
    /// [`PlanningStack`](crate::PlanningStack) overwrites this with its
    /// search's [`nshard_core::NeuroShardConfig::use_row_wise`], so a
    /// disabled setting disables row splits on the incremental path too.
    pub row_wise: bool,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        Self {
            lambda_ms_per_gb: 3.0,
            threads: 0,
            row_wise: NeuroShardConfig::default().use_row_wise,
        }
    }
}

/// The result of one incremental replan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalOutcome {
    /// The improved plan (equals the rebased incumbent if no move helped).
    pub plan: ShardingPlan,
    /// The replayable delta from the rebased incumbent to [`Self::plan`].
    pub delta: PlanDelta,
    /// Predicted cost of [`Self::plan`] under the current workload.
    pub estimated: EstimatedCost,
    /// Hill-climb rounds that accepted a move.
    pub rounds: usize,
    /// Candidate plans scored by the cost simulator.
    pub evaluated_plans: usize,
}

/// Scalarized candidate score: memory overflow first, then the
/// migration-regularized cost objective.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    overflow_bytes: u64,
    objective_ms: f64,
}

impl Score {
    fn better_than(&self, other: &Score) -> bool {
        self.overflow_bytes < other.overflow_bytes
            || (self.overflow_bytes == other.overflow_bytes
                && self.objective_ms < other.objective_ms - MIN_GAIN_MS)
    }
}

/// Warm-started local search around an incumbent plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncrementalPlanner {
    config: IncrementalConfig,
}

impl IncrementalPlanner {
    /// A planner with the given knobs.
    pub fn new(config: IncrementalConfig) -> Self {
        Self { config }
    }

    /// The planner's configuration.
    pub fn config(&self) -> &IncrementalConfig {
        &self.config
    }

    /// Replans around `incumbent` for the (possibly drifted) `task`.
    ///
    /// The incumbent is first rebased onto `task` (see
    /// [`ShardingPlan::rebase`]), then improved by one accepted local move
    /// per round until no candidate beats the current plan or the round
    /// cap is exhausted. Migration bytes are always charged
    /// against the *rebased incumbent*, so a table moved away and back
    /// costs nothing in the final delta.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when the task's device count is not the one `sim`'s
    /// cost models were trained for, a plan prices at a non-finite cost
    /// ([`PlanError::NonFiniteCost`]), or the incumbent cannot be rebased
    /// onto `task` (table-count mismatch, or a recorded split no longer
    /// legal after drift). In the last case the caller should fall back
    /// to a full replan.
    pub fn replan(
        &self,
        sim: &CostSimulator,
        task: &ShardingTask,
        incumbent: &ShardingPlan,
    ) -> Result<IncrementalOutcome, PlanError> {
        let base = incumbent.rebase(task)?;
        let pool = WorkPool::new(self.config.threads);
        let budgets = task.budgets();
        let batch = task.batch_size();

        let mut current = base.clone();
        let mut current_est = estimate_for_task(sim, task, &current)?;
        let mut current_score = self.score(&base, &current, &current_est, &budgets);
        let mut steps: Vec<DeltaStep> = Vec::new();
        let mut evaluated = 1usize;
        let mut rounds = 0usize;

        for _ in 0..MAX_ROUNDS {
            let candidates = self.candidate_steps(&current, &current_est, &budgets, batch);
            if candidates.is_empty() {
                break;
            }
            // Pure, order-preserving construction: thread count cannot
            // change which candidates exist or their order.
            let built: Vec<Option<ShardingPlan>> = pool.map(&candidates, |&step| {
                PlanDelta {
                    steps: vec![step],
                    migration_bytes: 0,
                }
                .apply(&current)
                .ok()
            });
            let viable: Vec<(DeltaStep, ShardingPlan)> = candidates
                .iter()
                .zip(built)
                .filter_map(|(&step, plan)| plan.map(|p| (step, p)))
                .collect();
            if viable.is_empty() {
                break;
            }
            // All scoring in one serial batched call — deterministic.
            let estimates = estimate_batch_for_task(sim, task, viable.iter().map(|(_, p)| p))?;
            evaluated += estimates.len();

            // First strict improvement in candidate order wins ties.
            let mut best: Option<(usize, Score)> = None;
            for (i, ((_, plan), est)) in viable.iter().zip(&estimates).enumerate() {
                let score = self.score(&base, plan, est, &budgets);
                if score.better_than(&best.map_or(current_score, |(_, s)| s)) {
                    best = Some((i, score));
                }
            }
            let Some((i, score)) = best else { break };
            let (step, plan) = viable.into_iter().nth(i).expect("index from enumerate");
            steps.push(step);
            current = plan;
            current_est = estimates.into_iter().nth(i).expect("index from enumerate");
            current_score = score;
            rounds += 1;
        }

        let delta = PlanDelta {
            migration_bytes: migration_bytes(&base, &current),
            steps,
        };
        Ok(IncrementalOutcome {
            plan: current,
            delta,
            estimated: current_est,
            rounds,
            evaluated_plans: evaluated,
        })
    }

    /// Lexicographic (overflow, cost + λ·migration) score of a candidate.
    fn score(
        &self,
        base: &ShardingPlan,
        plan: &ShardingPlan,
        est: &EstimatedCost,
        budgets: &[u64],
    ) -> Score {
        let overflow_bytes = overflow(&plan.device_bytes(), budgets).sum();
        let moved = migration_bytes(base, plan) as f64 / BYTES_PER_GB;
        Score {
            overflow_bytes,
            objective_ms: est.total_ms() + self.config.lambda_ms_per_gb * moved,
        }
    }

    /// Candidate local moves around the current plan, in a fixed
    /// deterministic order.
    ///
    /// Donor devices are the device furthest over its own budget when any
    /// is, otherwise the two predicted-compute hottest (the
    /// second donor matters once the hottest device is already lean:
    /// comm and the runner-up device then dominate the max). From each
    /// donor the top `CANDIDATES_PER_DEVICE` tables by workload proxy
    /// (`batch · pooling · dim`, or bytes when repairing memory) each
    /// propose: a move to every other device, a swap with every other
    /// device's lightest table, and a split whose second half lands on
    /// the coldest device.
    fn candidate_steps(
        &self,
        plan: &ShardingPlan,
        est: &EstimatedCost,
        budgets: &[u64],
        batch: u32,
    ) -> Vec<DeltaStep> {
        let overflow: Vec<u64> = overflow(&plan.device_bytes(), budgets).collect();
        let num_devices = plan.num_devices();
        let over_budget = overflow.iter().any(|&o| o > 0);

        // Donors: most overloaded device, else the two compute-hottest.
        let donors: Vec<usize> = if over_budget {
            vec![argmax_u64(&overflow)]
        } else {
            let mut by_heat: Vec<usize> = (0..num_devices).collect();
            by_heat.sort_by(|&a, &b| {
                est.compute_per_device[b]
                    .partial_cmp(&est.compute_per_device[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            by_heat.truncate(2);
            by_heat
        };
        // Receiver for split second-halves: predicted-compute coldest.
        let coldest = argmin_f64(&est.compute_per_device);

        // Per-table workload proxy; bytes when repairing memory.
        let weight = |i: usize| -> f64 {
            let t = &plan.sharded_tables()[i];
            if over_budget {
                t.memory_bytes() as f64
            } else {
                f64::from(batch) * t.pooling_factor() * f64::from(t.dim())
            }
        };

        // Lightest table on each device, as swap partners.
        let mut lightest: Vec<Option<usize>> = vec![None; num_devices];
        for i in 0..plan.sharded_tables().len() {
            let d = plan.device_of()[i];
            let lighter = match lightest[d] {
                None => true,
                Some(j) => weight(i) < weight(j),
            };
            if lighter {
                lightest[d] = Some(i);
            }
        }

        let mut steps = Vec::new();
        for &donor in &donors {
            let mut donor_tables: Vec<usize> = (0..plan.sharded_tables().len())
                .filter(|&i| plan.device_of()[i] == donor)
                .collect();
            // Heaviest first; index tiebreak keeps the order total.
            donor_tables.sort_by(|&a, &b| {
                weight(b)
                    .partial_cmp(&weight(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            donor_tables.truncate(CANDIDATES_PER_DEVICE);

            for &t in &donor_tables {
                for (to, partner) in lightest.iter().enumerate() {
                    if to == donor {
                        continue;
                    }
                    steps.push(DeltaStep::Move {
                        table: t,
                        from: donor,
                        to,
                    });
                    if let Some(partner) = partner {
                        steps.push(DeltaStep::Swap { a: t, b: *partner });
                    }
                }
                if num_devices > 1 {
                    let second = if coldest == donor {
                        (donor + 1) % num_devices
                    } else {
                        coldest
                    };
                    if plan.sharded_tables()[t].split_columns().is_some() {
                        steps.push(DeltaStep::Split {
                            table: t,
                            kind: SplitKind::Column,
                            second_device: second,
                        });
                    }
                    if self.config.row_wise && plan.sharded_tables()[t].split_rows().is_some() {
                        steps.push(DeltaStep::Split {
                            table: t,
                            kind: SplitKind::Row,
                            second_device: second,
                        });
                    }
                }
            }
        }
        steps
    }
}

impl Default for IncrementalPlanner {
    fn default() -> Self {
        Self::new(IncrementalConfig::default())
    }
}

/// Bytes by which each device exceeds its own budget.
fn overflow<'a>(device_bytes: &'a [u64], budgets: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
    device_bytes
        .iter()
        .zip(budgets)
        .map(|(&bytes, &budget)| bytes.saturating_sub(budget))
}

fn argmin_f64(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

fn argmax_u64(xs: &[u64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
    use nshard_data::{TableConfig, TableId, TablePool};

    fn sim(d: usize) -> CostSimulator {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        CostSimulator::new(bundle)
    }

    fn t(id: u32, dim: u32, pooling: f64) -> TableConfig {
        TableConfig::new(TableId(id), dim, 1 << 16, pooling, 1.0)
    }

    fn skewed_task() -> ShardingTask {
        // All six tables start on device 0; device 1 is empty.
        ShardingTask::new(
            (0..6).map(|i| t(i, 32, 12.0)).collect(),
            2,
            nshard_sim::DEFAULT_MEM_BYTES,
            1024,
        )
    }

    fn all_on_zero(task: &ShardingTask) -> ShardingPlan {
        ShardingPlan::new(
            vec![],
            task.tables().to_vec(),
            vec![0; task.num_tables()],
            2,
        )
        .unwrap()
    }

    #[test]
    fn a_device_count_the_models_were_not_trained_for_is_invalid() {
        let task = skewed_task();
        let err = IncrementalPlanner::default()
            .replan(&sim(4), &task, &all_on_zero(&task))
            .unwrap_err();
        assert!(matches!(err, PlanError::Invalid { .. }), "{err}");
    }

    #[test]
    fn delta_apply_replays_moves_swaps_and_splits() {
        let task = skewed_task();
        let base = all_on_zero(&task);
        let delta = PlanDelta {
            steps: vec![
                DeltaStep::Move {
                    table: 0,
                    from: 0,
                    to: 1,
                },
                DeltaStep::Swap { a: 0, b: 1 },
                DeltaStep::Split {
                    table: 2,
                    kind: SplitKind::Column,
                    second_device: 1,
                },
            ],
            migration_bytes: 0,
        };
        let out = delta.apply(&base).unwrap();
        assert_eq!(out.sharded_tables().len(), 7);
        // Move put table 0 on device 1, then the swap exchanged 0 and 1.
        assert_eq!(out.device_of()[0], 0);
        assert_eq!(out.device_of()[1], 1);
        // Split halved table 2 and appended the second half on device 1.
        assert_eq!(out.sharded_tables()[2].dim(), 16);
        assert_eq!(out.sharded_tables()[6].dim(), 16);
        assert_eq!(out.device_of()[6], 1);
        assert_eq!(out.split_plan().len(), 1);
        // The appended split is replayable: rebasing onto the task works.
        out.rebase(&task).unwrap();
    }

    #[test]
    fn delta_apply_rejects_stale_from_device() {
        let task = skewed_task();
        let base = all_on_zero(&task);
        let delta = PlanDelta {
            steps: vec![DeltaStep::Move {
                table: 0,
                from: 1,
                to: 0,
            }],
            migration_bytes: 0,
        };
        assert!(matches!(delta.apply(&base), Err(PlanError::Invalid { .. })));
    }

    #[test]
    fn replan_improves_a_skewed_incumbent() {
        let sim = sim(2);
        let task = skewed_task();
        let base = all_on_zero(&task);
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &base)
            .unwrap();
        assert!(out.rounds > 0, "a fully skewed plan must be improvable");
        let before = estimate_for_task(&sim, &task, &base).unwrap().total_ms();
        assert!(out.estimated.total_ms() < before);
        assert!(out.delta.migration_bytes > 0);
        // The delta replays to exactly the returned plan.
        assert_eq!(out.delta.apply(&base).unwrap(), out.plan);
    }

    #[test]
    fn replan_never_worse_than_incumbent() {
        let sim = sim(2);
        let task = skewed_task();
        let base = all_on_zero(&task);
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &base)
            .unwrap();
        let before = estimate_for_task(&sim, &task, &base).unwrap().total_ms();
        assert!(out.estimated.total_ms() <= before + 1e-12);
    }

    #[test]
    fn balanced_incumbent_yields_empty_delta() {
        let sim = sim(2);
        let task = ShardingTask::new(
            (0..6).map(|i| t(i, 32, 12.0)).collect(),
            2,
            nshard_sim::DEFAULT_MEM_BYTES,
            1024,
        );
        let plan = ShardingPlan::new(
            vec![],
            task.tables().to_vec(),
            (0..6).map(|i| i % 2).collect(),
            2,
        )
        .unwrap();
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &plan)
            .unwrap();
        // Identical tables alternating over two devices is already
        // balanced; any move pays migration for no cost gain.
        assert!(out.delta.is_empty());
        assert_eq!(out.delta.migration_bytes, 0);
        assert_eq!(out.plan, plan);
    }

    #[test]
    fn high_lambda_pins_tables_in_place() {
        let sim = sim(2);
        let task = skewed_task();
        let base = all_on_zero(&task);
        let free = IncrementalPlanner::new(IncrementalConfig {
            lambda_ms_per_gb: 0.0,
            ..IncrementalConfig::default()
        })
        .replan(&sim, &task, &base)
        .unwrap();
        let pinned = IncrementalPlanner::new(IncrementalConfig {
            lambda_ms_per_gb: 1e12,
            ..IncrementalConfig::default()
        })
        .replan(&sim, &task, &base)
        .unwrap();
        assert!(pinned.delta.migration_bytes <= free.delta.migration_bytes);
        assert!(pinned.delta.is_empty(), "an absurd λ must forbid any move");
    }

    #[test]
    fn replan_repairs_memory_overflow_lexicographically() {
        let sim = sim(2);
        // Budget fits three tables per device; all six on device 0.
        let bytes = t(0, 32, 12.0).memory_bytes();
        let task = ShardingTask::new((0..6).map(|i| t(i, 32, 12.0)).collect(), 2, bytes * 3, 1024);
        let base = all_on_zero(&task);
        let out = IncrementalPlanner::default()
            .replan(&sim, &task, &base)
            .unwrap();
        assert!(
            out.plan.device_bytes().iter().all(|&b| b <= bytes * 3),
            "replan must repair the overflow: {:?}",
            out.plan.device_bytes()
        );
    }

    #[test]
    fn replan_is_thread_count_invariant() {
        let sim = sim(2);
        let task = skewed_task();
        let base = all_on_zero(&task);
        let serial = IncrementalPlanner::new(IncrementalConfig {
            threads: 1,
            ..IncrementalConfig::default()
        })
        .replan(&sim, &task, &base)
        .unwrap();
        let parallel = IncrementalPlanner::new(IncrementalConfig {
            threads: 8,
            ..IncrementalConfig::default()
        })
        .replan(&sim, &task, &base)
        .unwrap();
        assert_eq!(serial.plan, parallel.plan);
        assert_eq!(serial.delta, parallel.delta);
        assert_eq!(serial.estimated, parallel.estimated);
    }

    #[test]
    fn rebase_failure_surfaces_as_error() {
        let sim = sim(2);
        let task = skewed_task();
        let other = ShardingTask::new(
            (0..5).map(|i| t(i, 32, 12.0)).collect(),
            2,
            nshard_sim::DEFAULT_MEM_BYTES,
            1024,
        );
        let base = all_on_zero(&task);
        assert!(IncrementalPlanner::default()
            .replan(&sim, &other, &base)
            .is_err());
    }
}
