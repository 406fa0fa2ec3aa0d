//! Self-healing of memory-infeasible sharding plans.
//!
//! Search algorithms (and especially the memory-oblivious baselines of
//! Table 1) sometimes emit plans that overflow a device's embedding-memory
//! budget — the simulator rejects these with `SimError::OutOfMemory`, and
//! the paper marks the algorithm with a "-" cell. The [`RepairEngine`]
//! instead tries to *salvage* such plans: it iteratively evicts tables from
//! overflowing devices (largest-first) and re-places them on devices with
//! headroom, column-splitting tables that fit nowhere, until the plan is
//! memory-feasible or provably stuck.
//!
//! An evicted table goes to the device with the lightest memory load
//! among those it fits on (ties to the lower index). Every action is
//! recorded in a typed [`RepairReport`] so callers — most importantly the
//! fallback chain in [`crate::fallback`] — can attribute exactly what was
//! changed.
//!
//! Repair is fully deterministic: identical inputs produce identical
//! reports.

use nshard_data::ShardingTask;

use crate::plan::{PlanError, ShardingPlan, SplitStep};

/// Maximum number of recorded actions (moves + splits) before the engine
/// gives up. Bounds the loop on adversarial inputs.
const MAX_STEPS: usize = 256;

/// Limits of the repair loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Whether tables that fit on no device may be column-split in place.
    pub allow_splits: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self { allow_splits: true }
    }
}

/// One recorded repair action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStep {
    /// Sharded table `table` was evicted from `from` and placed on `to`.
    Moved {
        /// Index into the sharded table list at the time of the move.
        table: usize,
        /// Source device.
        from: usize,
        /// Target device.
        to: usize,
        /// Bytes moved.
        bytes: u64,
    },
    /// Sharded table `table` on `device` was column-split in place (its
    /// second half appended to the table list, on the same device).
    Split {
        /// Index into the sharded table list at the time of the split.
        table: usize,
        /// Device holding the table.
        device: usize,
    },
}

/// The outcome of a successful repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// The repaired, memory-feasible plan.
    pub plan: ShardingPlan,
    /// Every action taken, in order.
    pub steps: Vec<RepairStep>,
    /// Total bytes above budget across devices before repair.
    pub initial_overflow_bytes: u64,
    /// `true` when the input plan referenced devices outside the task's
    /// cluster and its tables were remapped onto valid devices first
    /// (the `SimError::DeviceOutOfRange` failure class).
    pub remapped_devices: bool,
}

impl RepairReport {
    /// `true` when the input plan was already feasible and untouched.
    pub fn was_noop(&self) -> bool {
        self.steps.is_empty() && !self.remapped_devices
    }
}

/// Evicts-and-replaces tables of infeasible plans until they fit.
/// See the [module documentation](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairEngine {
    config: RepairConfig,
}

impl RepairEngine {
    /// An engine with the given limits.
    pub fn new(config: RepairConfig) -> Self {
        Self { config }
    }

    /// Repairs `plan` for `task`: after this returns `Ok`, the reported
    /// plan validates against the task (in particular, every device is
    /// within the memory budget).
    ///
    /// # Errors
    ///
    /// [`PlanError::Infeasible`] when no sequence of moves and splits
    /// within the configured limits makes the plan fit;
    /// [`PlanError::Invalid`] when the input plan's tables are not
    /// derivable from the task's tables.
    pub fn repair(
        &self,
        task: &ShardingTask,
        plan: &ShardingPlan,
    ) -> Result<RepairReport, PlanError> {
        let num_devices = task.num_devices();
        let budgets = task.budgets();

        let mut split_plan = plan.split_plan().to_vec();
        let mut tables = plan.sharded_tables().to_vec();
        let mut device_of = plan.device_of().to_vec();

        // Failure class 1: the plan was built for a different (larger)
        // cluster. Remap every out-of-range table onto the least-loaded
        // valid device, then fall through to memory repair.
        let mut remapped = false;
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
                remapped = true;
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

        let mut steps = Vec::new();
        while let Some(offender) = worst_device(&bytes_of_device, &budgets) {
            if steps.len() >= MAX_STEPS {
                return Err(PlanError::Infeasible {
                    reason: format!(
                        "repair did not converge within {MAX_STEPS} steps \
                         (device {offender} still over budget)"
                    ),
                });
            }

            // Candidate evictions, largest table first.
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
                steps.push(RepairStep::Moved {
                    table: i,
                    from: offender,
                    to,
                    bytes,
                });
                continue;
            }

            // Nothing fits anywhere whole: split the largest splittable
            // table on the offender so smaller pieces can migrate.
            if !self.config.allow_splits || num_devices == 1 {
                return Err(PlanError::Infeasible {
                    reason: format!(
                        "device {offender} is over budget and no table can be \
                         moved{}",
                        if num_devices == 1 {
                            " (single-device cluster)"
                        } else {
                            " (splitting disabled)"
                        }
                    ),
                });
            }
            let split = on_device
                .iter()
                .copied()
                .find(|&i| tables[i].split_columns().is_some());
            match split {
                Some(i) => {
                    let (a, b) = tables[i].split_columns().expect("checked splittable");
                    tables[i] = a;
                    tables.push(b);
                    device_of.push(offender);
                    split_plan.push(SplitStep::column(i));
                    steps.push(RepairStep::Split {
                        table: i,
                        device: offender,
                    });
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
        Ok(RepairReport {
            plan,
            steps,
            initial_overflow_bytes,
            remapped_devices: remapped,
        })
    }
}

/// The device to receive `bytes` evicted from device `from`: the lightest
/// memory load among the devices it fits on, or `None` when it fits
/// nowhere.
fn pick_target(bytes_of_device: &[u64], budgets: &[u64], from: usize, bytes: u64) -> Option<usize> {
    (0..bytes_of_device.len())
        .filter(|&d| d != from && bytes_of_device[d].saturating_add(bytes) <= budgets[d])
        .min_by_key(|&d| (bytes_of_device[d], d))
}

/// Index of the least-loaded device.
fn least_loaded(bytes: &[u64]) -> usize {
    bytes
        .iter()
        .enumerate()
        .min_by_key(|&(i, &b)| (b, i))
        .map(|(i, _)| i)
        .expect("at least one device")
}

/// The most-overloaded device (largest overflow above its own budget), or
/// `None` when everything fits.
fn worst_device(bytes: &[u64], budgets: &[u64]) -> Option<usize> {
    bytes
        .iter()
        .zip(budgets)
        .enumerate()
        .filter(|&(_, (&b, &cap))| b > cap)
        .max_by_key(|&(i, (&b, &cap))| (b - cap, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableConfig, TableId};

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
        assert!(report.was_noop());
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
            report.steps[0],
            RepairStep::Moved { from: 0, to: 1, .. }
        ));
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
            .steps
            .iter()
            .any(|s| matches!(s, RepairStep::Split { .. })));
        assert!(report.plan.num_column_splits() >= 1);
    }

    #[test]
    fn splitting_disabled_fails_on_oversized_table() {
        let big = t(0, 128, 8192);
        let task = ShardingTask::new(vec![big], 2, big.memory_bytes() * 3 / 4, 1024);
        let plan = ShardingPlan::new(vec![], vec![big], vec![0], 2).unwrap();
        let engine = RepairEngine::new(RepairConfig {
            allow_splits: false,
        });
        assert!(matches!(
            engine.repair(&task, &plan),
            Err(PlanError::Infeasible { .. })
        ));
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
    fn out_of_range_devices_are_remapped() {
        // Plan built for 4 devices, task has 2: tables on devices 2 and 3
        // must come home.
        let tables = vec![
            t(0, 16, 1024),
            t(1, 16, 1024),
            t(2, 16, 1024),
            t(3, 16, 1024),
        ];
        let four_dev = ShardingPlan::new(vec![], tables.clone(), vec![0, 1, 2, 3], 4).unwrap();
        let task = ShardingTask::new(tables, 2, 1 << 30, 1024);
        let report = RepairEngine::default().repair(&task, &four_dev).unwrap();
        assert!(report.remapped_devices);
        assert!(report.plan.validate(&task).is_ok());
        assert_eq!(report.plan.num_devices(), 2);
    }

    #[test]
    fn repair_honors_per_device_budgets() {
        use nshard_data::{DevicePool, DeviceProfile};
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
}
