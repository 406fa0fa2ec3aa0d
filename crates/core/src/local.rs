//! Local search over sharding plans: repair and incremental replanning.
//!
//! Both walk the plan space one edit at a time from a starting plan, and
//! both speak one vocabulary: a [`DeltaStep`] (move, swap or split),
//! collected into a replayable [`PlanDelta`] whose [`PlanDelta::apply`] is
//! the only code that edits a plan. Both read memory through one rule: the
//! device furthest over its own budget is the one to relieve, and its
//! tables are offered heaviest first.
//!
//! * [`RepairEngine`] salvages a memory-infeasible plan. It evicts tables
//!   from the worst device, heaviest first, onto the device with the
//!   lightest memory load among those the table fits on (ties to the lower
//!   index), and column-splits a table in place when no table of the device
//!   fits anywhere, until every device fits or the plan is provably stuck.
//!   The moves and splits are recorded as the [`PlanDelta`] of its
//!   [`RepairReport`], which the fallback chain in [`crate::fallback`]
//!   counts. Repair is fully deterministic.
//! * [`IncrementalPlanner`] warm-starts from an incumbent plan and
//!   hill-climbs over moves, swaps and in-place splits, scoring each
//!   candidate with the same pre-trained [`CostSimulator`] the offline
//!   search uses, priced for the task's fleet exactly as the search prices
//!   it ([`estimate_for_task`]), under the migration-regularized objective
//!
//!   ```text
//!   J(p) = est_total_ms(p) + λ · migration_GB(incumbent → p)
//!   ```
//!
//!   with a lexicographic memory-overflow term in front: a drifted workload
//!   can push the incumbent over budget, and an infeasible plan must be
//!   repaired before `J` is worth comparing. The search is bit-deterministic
//!   at any thread count: candidates are generated serially in a fixed
//!   order, the [`WorkPool`] only *constructs* candidate plans
//!   (order-preserving map of pure functions), and all scoring happens in a
//!   single [`estimate_batch_for_task`] call.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use nshard_cost::{CostSimulator, EstimatedCost};
use nshard_data::{ShardingTask, TableConfig};

use crate::eval::{estimate_batch_for_task, estimate_for_task};
use crate::neuroshard::NeuroShardConfig;
use crate::plan::{migration_bytes, split_in_place, PlanError, ShardingPlan, SplitKind, SplitStep};
use crate::WorkPool;

/// Maximum number of repair steps (moves + splits) before the engine gives
/// up. Bounds the loop on adversarial inputs.
const MAX_REPAIR_STEPS: usize = 256;

/// Bytes per gigabyte, for the λ migration term.
const BYTES_PER_GB: f64 = 1e9;

/// Minimum objective improvement to accept a move — guards against
/// floating-point noise keeping the hill-climb alive forever.
const MIN_GAIN_MS: f64 = 1e-9;

/// How many of a donor device's heaviest tables are considered per round.
const CANDIDATES_PER_DEVICE: usize = 8;

/// Maximum hill-climb rounds (one accepted move per round).
const MAX_ROUNDS: usize = 32;

/// One edit of a plan, in application order.
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

impl DeltaStep {
    /// `plan` with this one step applied.
    fn applied_to(self, plan: &ShardingPlan) -> Result<ShardingPlan, PlanError> {
        PlanDelta {
            steps: vec![self],
            migration_bytes: 0,
        }
        .apply(plan)
    }
}

/// An ordered, replayable re-sharding delta: applying `steps` to the plan
/// it was computed against reproduces the local search's output exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanDelta {
    /// Edits in application order.
    pub steps: Vec<DeltaStep>,
    /// Embedding bytes that applying the delta moves between devices.
    pub migration_bytes: u64,
}

impl PlanDelta {
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
    /// device; [`PlanError::ColumnIndexOutOfRange`] or
    /// [`PlanError::UnsplittableTable`] when a `Split` is illegal.
    pub fn apply(&self, base: &ShardingPlan) -> Result<ShardingPlan, PlanError> {
        let mut split_plan = base.split_plan().to_vec();
        let mut tables = base.sharded_tables().to_vec();
        let mut device_of = base.device_of().to_vec();
        for (i, &step) in self.steps.iter().enumerate() {
            let invalid = |what: String| PlanError::Invalid {
                reason: format!("delta step {i}: {what}"),
            };
            match step {
                DeltaStep::Move { table, from, to } => match device_of.get_mut(table) {
                    Some(d) if *d == from => *d = to,
                    Some(d) => {
                        return Err(invalid(format!(
                            "table {table} is on device {d}, not {from}"
                        )))
                    }
                    None => return Err(invalid(format!("no sharded table {table}"))),
                },
                DeltaStep::Swap { a, b } if a.max(b) < device_of.len() => device_of.swap(a, b),
                DeltaStep::Swap { a, b } => {
                    return Err(invalid(format!("swap ({a}, {b}) out of range")))
                }
                DeltaStep::Split {
                    table,
                    kind,
                    second_device,
                } => {
                    let split = SplitStep { index: table, kind };
                    split_in_place(&mut tables, i, split)?;
                    device_of.push(second_device);
                    split_plan.push(split);
                }
            }
        }
        // A device the plan does not have is rejected here.
        ShardingPlan::with_split_plan(split_plan, tables, device_of, base.num_devices())
    }
}

/// Total bytes by which the devices exceed their own budgets.
fn overflow_bytes(load: &[u64], budgets: &[u64]) -> u64 {
    load.iter()
        .zip(budgets)
        .map(|(&bytes, &budget)| bytes.saturating_sub(budget))
        .sum()
}

/// The device furthest over its own budget (ties to the lower index), or
/// `None` when everything fits.
fn worst_device(load: &[u64], budgets: &[u64]) -> Option<usize> {
    load.iter()
        .zip(budgets)
        .enumerate()
        .filter(|&(_, (&b, &cap))| b > cap)
        .max_by_key(|&(i, (&b, &cap))| (b - cap, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
}

/// The sharded tables on `device`, heaviest first by `weight`; the index
/// breaks ties, so the order is total.
fn heaviest_first<K: PartialOrd>(
    plan: &ShardingPlan,
    device: usize,
    weight: impl Fn(&TableConfig) -> K,
) -> Vec<usize> {
    let tables = plan.sharded_tables();
    let mut on_device: Vec<usize> = (0..tables.len())
        .filter(|&i| plan.device_of()[i] == device)
        .collect();
    on_device.sort_by(|&a, &b| {
        weight(&tables[b])
            .partial_cmp(&weight(&tables[a]))
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    on_device
}

/// Limits of the repair loop. It has none left to set; the type stays so
/// [`RepairEngine::new`] keeps its signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairConfig {}

/// The outcome of a successful repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// The repaired, memory-feasible plan.
    pub plan: ShardingPlan,
    /// Every move and split taken, in order: applied to the input plan it
    /// reproduces [`Self::plan`].
    pub delta: PlanDelta,
    /// Total bytes above budget across devices before repair.
    pub initial_overflow_bytes: u64,
}

/// Evicts-and-replaces tables of infeasible plans until they fit.
/// See the [module documentation](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairEngine {}

impl RepairEngine {
    /// An engine with the given limits.
    pub fn new(_config: RepairConfig) -> Self {
        Self {}
    }

    /// Repairs `plan` for `task`: after this returns `Ok`, the reported
    /// plan validates against the task (in particular, every device is
    /// within the memory budget).
    ///
    /// # Errors
    ///
    /// [`PlanError::Infeasible`] when no sequence of moves and splits
    /// within the step limit makes the plan fit;
    /// [`PlanError::Invalid`] when the plan was built for another device
    /// count or its tables are not derivable from the task's tables.
    pub fn repair(
        &self,
        task: &ShardingTask,
        plan: &ShardingPlan,
    ) -> Result<RepairReport, PlanError> {
        plan.check_device_count(task)?;
        let num_devices = task.num_devices();
        let budgets = task.budgets();
        let initial_overflow_bytes = overflow_bytes(&plan.device_bytes(), &budgets);

        let total: u64 = plan.sharded_tables().iter().map(|t| t.memory_bytes()).sum();
        let capacity: u64 = budgets.iter().fold(0u64, |acc, &b| acc.saturating_add(b));
        if total > capacity {
            return Err(PlanError::Infeasible {
                reason: format!(
                    "tables need {total} bytes but the cluster holds {capacity} \
                     across {num_devices} devices"
                ),
            });
        }

        let mut current = plan.clone();
        let mut steps = Vec::new();
        loop {
            let load = current.device_bytes();
            let Some(offender) = worst_device(&load, &budgets) else {
                break;
            };
            if steps.len() >= MAX_REPAIR_STEPS {
                return Err(PlanError::Infeasible {
                    reason: format!(
                        "repair did not converge within {MAX_REPAIR_STEPS} steps \
                         (device {offender} still over budget)"
                    ),
                });
            }
            let tables = current.sharded_tables();
            let on_device = heaviest_first(&current, offender, TableConfig::memory_bytes);
            let moved = on_device.iter().find_map(|&table| {
                pick_target(&load, &budgets, offender, tables[table].memory_bytes()).map(|to| {
                    DeltaStep::Move {
                        table,
                        from: offender,
                        to,
                    }
                })
            });
            // Nothing fits anywhere whole: split the heaviest splittable
            // table on the offender so smaller pieces can migrate.
            let step = match moved {
                Some(step) => step,
                None if num_devices == 1 => {
                    return Err(PlanError::Infeasible {
                        reason: format!(
                            "device {offender} is over budget and no table can be \
                             moved (single-device cluster)"
                        ),
                    })
                }
                None => DeltaStep::Split {
                    table: on_device
                        .into_iter()
                        .find(|&i| tables[i].split_columns().is_some())
                        .ok_or_else(|| PlanError::Infeasible {
                            reason: format!(
                                "device {offender} is over budget but none of its \
                                 tables can be moved or split further"
                            ),
                        })?,
                    kind: SplitKind::Column,
                    second_device: offender,
                },
            };
            current = step.applied_to(&current)?;
            steps.push(step);
        }

        current.validate(task)?;
        Ok(RepairReport {
            delta: PlanDelta {
                steps,
                migration_bytes: migration_bytes(plan, &current),
            },
            plan: current,
            initial_overflow_bytes,
        })
    }
}

/// The device to receive `bytes` evicted from device `from`: the lightest
/// memory load among the devices it fits on, or `None` when it fits
/// nowhere.
fn pick_target(load: &[u64], budgets: &[u64], from: usize, bytes: u64) -> Option<usize> {
    (0..load.len())
        .filter(|&d| d != from && load[d].saturating_add(bytes) <= budgets[d])
        .min_by_key(|&d| (load[d], d))
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
    /// Whether row-wise split candidates are proposed. A planning stack
    /// (`nshard_online::PlanningStack`) overwrites this with its search's
    /// [`NeuroShardConfig::use_row_wise`], so a disabled setting disables
    /// row splits on the incremental path too.
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
            let built: Vec<Option<ShardingPlan>> =
                pool.map(&candidates, |&step| step.applied_to(&current).ok());
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
        let moved = migration_bytes(base, plan) as f64 / BYTES_PER_GB;
        Score {
            overflow_bytes: overflow_bytes(&plan.device_bytes(), budgets),
            objective_ms: est.total_ms() + self.config.lambda_ms_per_gb * moved,
        }
    }

    /// Candidate local moves around the current plan, in a fixed
    /// deterministic order.
    ///
    /// When a device is over its budget, the donor is repair's: the
    /// `worst_device`, its tables offered heaviest first by bytes.
    /// Otherwise the donors are the two predicted-compute hottest devices
    /// (the second matters once the hottest is already lean: comm and the
    /// runner-up device then dominate the max), their tables weighted by
    /// the workload proxy `batch · pooling · dim`. From each donor the top
    /// `CANDIDATES_PER_DEVICE` tables each propose: a move to every other
    /// device, a swap with every other device's lightest table, and a
    /// split whose second half lands on the coldest device.
    fn candidate_steps(
        &self,
        plan: &ShardingPlan,
        est: &EstimatedCost,
        budgets: &[u64],
        batch: u32,
    ) -> Vec<DeltaStep> {
        let num_devices = plan.num_devices();
        let worst = worst_device(&plan.device_bytes(), budgets);
        let donors: Vec<usize> = match worst {
            Some(device) => vec![device],
            None => {
                let mut by_heat: Vec<usize> = (0..num_devices).collect();
                by_heat.sort_by(|&a, &b| {
                    est.compute_per_device[b]
                        .partial_cmp(&est.compute_per_device[a])
                        .unwrap_or(Ordering::Equal)
                        .then(a.cmp(&b))
                });
                by_heat.truncate(2);
                by_heat
            }
        };
        // Receiver for split second-halves: predicted-compute coldest.
        let coldest = argmin_f64(&est.compute_per_device);

        let weight = |t: &TableConfig| -> f64 {
            if worst.is_some() {
                t.memory_bytes() as f64
            } else {
                f64::from(batch) * t.pooling_factor() * f64::from(t.dim())
            }
        };

        // Lightest table on each device, as swap partners.
        let tables = plan.sharded_tables();
        let mut lightest: Vec<Option<usize>> = vec![None; num_devices];
        for (i, &d) in plan.device_of().iter().enumerate() {
            if lightest[d].is_none_or(|j| weight(&tables[i]) < weight(&tables[j])) {
                lightest[d] = Some(i);
            }
        }

        let mut steps = Vec::new();
        for &donor in &donors {
            let mut donor_tables = heaviest_first(plan, donor, weight);
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
                    let second_device = if coldest == donor {
                        (donor + 1) % num_devices
                    } else {
                        coldest
                    };
                    let split = |kind| DeltaStep::Split {
                        table: t,
                        kind,
                        second_device,
                    };
                    if tables[t].split_columns().is_some() {
                        steps.push(split(SplitKind::Column));
                    }
                    if self.config.row_wise && tables[t].split_rows().is_some() {
                        steps.push(split(SplitKind::Row));
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

fn argmin_f64(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
    use nshard_data::{DevicePool, DeviceProfile, TableId, TablePool};
    use proptest::prelude::*;

    fn t(id: u32, dim: u32, rows: u64) -> TableConfig {
        TableConfig::new(TableId(id), dim, rows, 8.0, 1.0)
    }

    /// Two devices, budget fits ~2 MB each; all three 1 MB tables start on
    /// device 0 (3 MB: over budget).
    fn overloaded() -> (ShardingTask, ShardingPlan) {
        let tables = vec![t(0, 64, 4096), t(1, 64, 4096), t(2, 64, 4096)];
        let bytes_each = tables[0].memory_bytes();
        let task = ShardingTask::new(tables.clone(), 2, bytes_each * 2, 1024);
        let plan = ShardingPlan::new(vec![], tables, vec![0, 0, 0], 2).unwrap();
        (task, plan)
    }

    #[test]
    fn feasible_plan_is_a_noop() {
        let (task, _) = overloaded();
        let plan = ShardingPlan::new(vec![], task.tables().to_vec(), vec![0, 1, 0], 2).unwrap();
        let report = RepairEngine::default().repair(&task, &plan).unwrap();
        assert!(report.delta.is_empty());
        assert_eq!(report.delta.migration_bytes, 0);
        assert_eq!(report.initial_overflow_bytes, 0);
        assert_eq!(report.plan, plan);
    }

    #[test]
    fn oom_plan_is_repaired_by_moving_tables() {
        let (task, plan) = overloaded();
        assert!(plan.validate(&task).is_err());
        let report = RepairEngine::default().repair(&task, &plan).unwrap();
        assert!(report.plan.validate(&task).is_ok());
        assert!(report.initial_overflow_bytes > 0);
        assert!(matches!(
            report.delta.steps[0],
            DeltaStep::Move { from: 0, to: 1, .. }
        ));
        assert_eq!(report.delta.apply(&plan).unwrap(), report.plan);
        assert_eq!(
            report.delta.migration_bytes,
            task.tables()[0].memory_bytes()
        );
    }

    #[test]
    fn repair_is_deterministic() {
        let (task, plan) = overloaded();
        let a = RepairEngine::default().repair(&task, &plan).unwrap();
        let b = RepairEngine::default().repair(&task, &plan).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_table_is_split_then_balanced() {
        // One table larger than any single device's budget: must split.
        let big = t(0, 128, 8192);
        let task = ShardingTask::new(vec![big], 2, big.memory_bytes() * 3 / 4, 1024);
        let plan = ShardingPlan::new(vec![], vec![big], vec![0], 2).unwrap();
        let report = RepairEngine::default().repair(&task, &plan).unwrap();
        assert!(report.plan.validate(&task).is_ok());
        assert!(report
            .delta
            .steps
            .iter()
            .any(|s| matches!(s, DeltaStep::Split { .. })));
        assert!(report.plan.num_column_splits() >= 1);
        assert_eq!(report.delta.apply(&plan).unwrap(), report.plan);
    }

    #[test]
    fn aggregate_overflow_is_rejected_fast() {
        let tables = vec![t(0, 64, 4096), t(1, 64, 4096)];
        let task = ShardingTask::new(tables.clone(), 2, tables[0].memory_bytes() / 2, 1024);
        let plan = ShardingPlan::new(vec![], tables, vec![0, 1], 2).unwrap();
        let err = RepairEngine::default().repair(&task, &plan).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible { .. }));
    }

    #[test]
    fn repair_honors_per_device_budgets() {
        // Three 1 MB tables, all on the tight device (fits one).
        let tables = vec![t(0, 64, 4096), t(1, 64, 4096), t(2, 64, 4096)];
        let each = tables[0].memory_bytes();
        let pool = DevicePool::new(
            vec![
                DeviceProfile::new(each * 2, 1.0, 0),
                DeviceProfile::new(each, 1.0, 0),
            ],
            1.0,
        );
        let task = ShardingTask::new(tables.clone(), 2, each * 2, 1024).with_devices(pool);
        let plan = ShardingPlan::new(vec![], tables, vec![1, 1, 1], 2).unwrap();
        assert!(plan.validate(&task).is_err());
        let report = RepairEngine::default().repair(&task, &plan).unwrap();
        assert!(report.plan.validate(&task).is_ok());
        let bytes = report.plan.device_bytes();
        assert!(bytes[0] <= each * 2);
        assert!(bytes[1] <= each, "tight device must end within its budget");
    }

    #[test]
    fn single_device_overflow_is_infeasible() {
        let big = t(0, 64, 8192);
        let task = ShardingTask::new(vec![big], 1, big.memory_bytes() / 2, 1024);
        let plan = ShardingPlan::new(vec![], vec![big], vec![0], 1).unwrap();
        assert!(matches!(
            RepairEngine::default().repair(&task, &plan),
            Err(PlanError::Infeasible { .. })
        ));
    }

    /// The repair engine as it stood before it recorded [`DeltaStep`]s:
    /// its own plan edits, eviction order, target rule, device remap and
    /// step count, kept as they were (less the split switch, which was
    /// always on) as the oracle the merged engine is held to. Returns the plan, the number
    /// of steps and the initial overflow.
    fn reference_repair(
        task: &ShardingTask,
        plan: &ShardingPlan,
    ) -> Result<(ShardingPlan, usize, u64), PlanError> {
        fn pick_target(
            bytes_of_device: &[u64],
            budgets: &[u64],
            from: usize,
            bytes: u64,
        ) -> Option<usize> {
            (0..bytes_of_device.len())
                .filter(|&d| d != from && bytes_of_device[d].saturating_add(bytes) <= budgets[d])
                .min_by_key(|&d| (bytes_of_device[d], d))
        }
        fn least_loaded(bytes: &[u64]) -> usize {
            bytes
                .iter()
                .enumerate()
                .min_by_key(|&(i, &b)| (b, i))
                .map(|(i, _)| i)
                .expect("at least one device")
        }
        fn worst_device(bytes: &[u64], budgets: &[u64]) -> Option<usize> {
            bytes
                .iter()
                .zip(budgets)
                .enumerate()
                .filter(|&(_, (&b, &cap))| b > cap)
                .max_by_key(|&(i, (&b, &cap))| (b - cap, std::cmp::Reverse(i)))
                .map(|(i, _)| i)
        }
        let num_devices = task.num_devices();
        let budgets = task.budgets();
        let mut split_plan = plan.split_plan().to_vec();
        let mut tables = plan.sharded_tables().to_vec();
        let mut device_of = plan.device_of().to_vec();
        let mut bytes_of_device = vec![0u64; num_devices];
        for (t, &d) in tables.iter().zip(&device_of) {
            if d < num_devices {
                bytes_of_device[d] += t.memory_bytes();
            }
        }
        for i in 0..tables.len() {
            if device_of[i] >= num_devices {
                let target = least_loaded(&bytes_of_device);
                device_of[i] = target;
                bytes_of_device[target] += tables[i].memory_bytes();
            }
        }
        let initial_overflow_bytes: u64 = bytes_of_device
            .iter()
            .zip(&budgets)
            .map(|(&b, &cap)| b.saturating_sub(cap))
            .sum();
        let total: u64 = tables.iter().map(|t| t.memory_bytes()).sum();
        let capacity: u64 = budgets.iter().fold(0u64, |acc, &b| acc.saturating_add(b));
        if total > capacity {
            return Err(PlanError::Infeasible {
                reason: format!(
                    "tables need {total} bytes but the cluster holds {capacity} \
                     across {num_devices} devices"
                ),
            });
        }
        let mut steps = 0usize;
        while let Some(offender) = worst_device(&bytes_of_device, &budgets) {
            if steps >= MAX_REPAIR_STEPS {
                return Err(PlanError::Infeasible {
                    reason: format!(
                        "repair did not converge within {MAX_REPAIR_STEPS} steps \
                         (device {offender} still over budget)"
                    ),
                });
            }
            let mut on_device: Vec<usize> = (0..tables.len())
                .filter(|&i| device_of[i] == offender)
                .collect();
            on_device.sort_by_key(|&i| (std::cmp::Reverse(tables[i].memory_bytes()), i));
            let moved = on_device.iter().copied().find_map(|i| {
                let bytes = tables[i].memory_bytes();
                pick_target(&bytes_of_device, &budgets, offender, bytes).map(|to| (i, to, bytes))
            });
            if let Some((i, to, bytes)) = moved {
                device_of[i] = to;
                bytes_of_device[offender] -= bytes;
                bytes_of_device[to] += bytes;
                steps += 1;
                continue;
            }
            if num_devices == 1 {
                return Err(PlanError::Infeasible {
                    reason: format!(
                        "device {offender} is over budget and no table can be \
                         moved (single-device cluster)"
                    ),
                });
            }
            match on_device
                .iter()
                .copied()
                .find(|&i| tables[i].split_columns().is_some())
            {
                Some(i) => {
                    let (a, b) = tables[i].split_columns().expect("checked splittable");
                    tables[i] = a;
                    tables.push(b);
                    device_of.push(offender);
                    split_plan.push(SplitStep::column(i));
                    steps += 1;
                }
                None => {
                    return Err(PlanError::Infeasible {
                        reason: format!(
                            "device {offender} is over budget but none of its \
                             tables can be moved or split further"
                        ),
                    });
                }
            }
        }
        let plan = ShardingPlan::with_split_plan(split_plan, tables, device_of, num_devices)?;
        plan.validate(task)?;
        Ok((plan, steps, initial_overflow_bytes))
    }

    proptest! {
        /// The merged engine returns what the engine before the merge did
        /// — the same plan, the same number of steps, the same initial
        /// overflow, or the same error — on arbitrary tables (splittable
        /// or not), 1–6 devices, uniform or per-device budgets from tight
        /// to loose, and assignments piled onto device 0. Its delta
        /// replays onto the input plan.
        #[test]
        fn repair_matches_the_reference(
            specs in proptest::collection::vec(
                (0usize..6, 1u64..40_000, 0usize..6, 0.0f64..1.0),
                1..=10,
            ),
            num_devices in 1usize..=6,
            shares in proptest::collection::vec(0.05f64..1.0, 6),
            per_device: bool,
            slack in 0.8f64..1.8,
            pile in 0.3f64..1.0,
        ) {
            let tables: Vec<TableConfig> = specs
                .iter()
                .enumerate()
                .map(|(i, &(dim, rows, ..))| t(i as u32, 4 << dim, rows))
                .collect();
            let device_of: Vec<usize> = specs
                .iter()
                .map(|&(_, _, d, coin)| if coin < pile { 0 } else { d % num_devices })
                .collect();
            let total = tables.iter().map(|t| t.memory_bytes()).sum::<u64>() as f64 * slack;
            let uniform = (total / num_devices as f64) as u64 + 1;
            let mut task = ShardingTask::new(tables.clone(), num_devices, uniform, 1024);
            if per_device {
                let sum: f64 = shares[..num_devices].iter().sum();
                let profiles = shares[..num_devices]
                    .iter()
                    .map(|s| DeviceProfile::new((total * s / sum) as u64 + 1, 1.0, 0))
                    .collect();
                task = task.with_devices(DevicePool::new(profiles, 1.0));
            }
            let plan = ShardingPlan::new(vec![], tables, device_of, num_devices).unwrap();

            let got = RepairEngine::default().repair(&task, &plan);
            if let Ok(report) = &got {
                prop_assert_eq!(&report.delta.apply(&plan).unwrap(), &report.plan);
            }
            prop_assert_eq!(
                got.map(|r| (r.plan, r.delta.steps.len(), r.initial_overflow_bytes)),
                reference_repair(&task, &plan)
            );
        }
    }

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

    fn pt(id: u32, dim: u32, pooling: f64) -> TableConfig {
        TableConfig::new(TableId(id), dim, 1 << 16, pooling, 1.0)
    }

    fn skewed_task() -> ShardingTask {
        // All six tables start on device 0; device 1 is empty.
        ShardingTask::new(
            (0..6).map(|i| pt(i, 32, 12.0)).collect(),
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
            (0..6).map(|i| pt(i, 32, 12.0)).collect(),
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
        let bytes = pt(0, 32, 12.0).memory_bytes();
        let task = ShardingTask::new(
            (0..6).map(|i| pt(i, 32, 12.0)).collect(),
            2,
            bytes * 3,
            1024,
        );
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
            (0..5).map(|i| pt(i, 32, 12.0)).collect(),
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
