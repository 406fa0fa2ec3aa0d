//! Graceful degradation: a fallback chain from the primary search down to
//! a guaranteed size-balanced placement.
//!
//! Production sharding cannot simply return "-" when a search fails: a
//! plan must ship. [`shard_with_provenance`] runs the stages it is given in
//! preference order, in one loop, and returns the first plan that
//! [`repair`] accepts, downgrading step by step:
//!
//! 1. the **primary** (the first stage, normally NeuroShard),
//! 2. the primary's plan **repaired** when it overflows a device,
//! 3. each **fallback** stage (normally a greedy baseline), repaired
//!    likewise if needed,
//! 4. the built-in **size-balanced** last resort ([`size_balanced_plan`]),
//!    the loop's final stage.
//!
//! A stage's plan gets one check, a [`repair`] call against its task: a
//! plan that fits every device of the task's fleet comes back unchanged,
//! one that overflows comes back moved and split until it fits, and
//! whatever comes back validates against the task
//! ([`ShardingPlan::validate`]), so a plan for another device count, or
//! whose tables do not derive from the task's, fails the stage. The last
//! resort builds its plan through [`repair`], so its plan is not checked a
//! second time. A hostile fleet — a squeezed budget, a slow compute class,
//! a slow node behind slow links — is a [`nshard_data::DevicePool`] on the
//! task.
//!
//! Every decision — attempts, failures, repairs, downgrades — is recorded
//! in a [`PlanProvenance`] attached to the returned plan, so a degraded
//! plan is always attributable.

use nshard_data::ShardingTask;
use serde::{Deserialize, Serialize};

use crate::local::repair;
use crate::plan::{PlanError, ShardingPlan};
use crate::ShardingAlgorithm;

/// Which stage of the chain produced the accepted plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// The primary algorithm's plan, shipped as-is.
    Primary {
        /// Algorithm name.
        algorithm: String,
    },
    /// A stage's plan that the repair engine had to move or split.
    Repaired {
        /// Name of the algorithm whose plan was repaired.
        algorithm: String,
        /// Number of repair actions taken.
        repair_steps: usize,
    },
    /// A fallback algorithm's plan, shipped as-is.
    Fallback {
        /// Algorithm name.
        algorithm: String,
    },
    /// The built-in size-balanced last resort.
    SizeBalanced,
}

impl PlanSource {
    /// `true` when the plan did not come from the primary algorithm
    /// unmodified.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, PlanSource::Primary { .. })
    }
}

/// One recorded decision of the chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProvenanceEvent {
    /// A stage started producing a plan.
    Attempt {
        /// Algorithm name.
        algorithm: String,
    },
    /// The stage's search itself failed.
    SearchFailed {
        /// Algorithm name.
        algorithm: String,
        /// The search error, rendered.
        reason: String,
    },
    /// A transient verification failure triggered a retry. No build
    /// records it any more; plan records from older builds, on disk, must
    /// still decode.
    TransientRetry {
        /// Algorithm name.
        algorithm: String,
        /// 1-based retry number.
        attempt: u32,
        /// The transient error, rendered.
        reason: String,
    },
    /// The stage's plan failed a memory check that came before repair. No
    /// build records it any more; plan records from older builds, on disk,
    /// must still decode.
    VerifyFailed {
        /// Algorithm name.
        algorithm: String,
        /// The verification error, rendered.
        reason: String,
    },
    /// The repair engine salvaged the stage's plan.
    Repaired {
        /// Algorithm name.
        algorithm: String,
        /// Number of repair actions taken.
        steps: usize,
    },
    /// The repair engine could not salvage the stage's plan.
    RepairFailed {
        /// Algorithm name.
        algorithm: String,
        /// The repair error, rendered.
        reason: String,
    },
}

/// The full decision record of one [`shard_with_provenance`] call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanProvenance {
    /// Which stage produced the accepted plan.
    pub source: PlanSource,
    /// Every decision, in order.
    pub events: Vec<ProvenanceEvent>,
}

impl PlanProvenance {
    /// `true` when the accepted plan is a downgrade from the primary.
    pub fn is_degraded(&self) -> bool {
        self.source.is_degraded()
    }
}

/// A plan plus the record of how the chain arrived at it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The accepted plan: it validates against its task.
    pub plan: ShardingPlan,
    /// How it was obtained.
    pub provenance: PlanProvenance,
}

/// Typed failure of the whole chain: even the last resort produced no plan
/// that fits. Carries the full provenance for attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientError {
    /// The error of the final stage.
    pub cause: PlanError,
    /// Every decision the chain made before giving up. `source` is the
    /// last stage attempted. Boxed to keep the error variant small on
    /// the `Result` hot path.
    pub provenance: Box<PlanProvenance>,
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "every stage of the fallback chain failed ({} events recorded): {}",
            self.provenance.events.len(),
            self.cause
        )
    }
}

impl std::error::Error for ResilientError {}

/// The built-in last resort as a stage: [`size_balanced_plan`].
struct SizeBalanced;

impl ShardingAlgorithm for SizeBalanced {
    fn name(&self) -> &str {
        "size_balanced"
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        size_balanced_plan(task)
    }
}

/// Runs the degradation chain: `stages` in preference order — the first
/// is the primary — then [`size_balanced_plan`]. The first stage plan that
/// [`repair`] accepts ships — unchanged when it fits, repaired when it
/// overflows — with the [`PlanProvenance`] of every step that led to it.
///
/// # Errors
///
/// [`ResilientError`] when every stage — including the size-balanced
/// last resort — failed; the error carries the full [`PlanProvenance`].
/// Its cause is the last stage's error, except that a search failure
/// of the last resort never replaces an earlier stage's error.
pub fn shard_with_provenance(
    stages: &[&dyn ShardingAlgorithm],
    task: &ShardingTask,
) -> Result<ResilientOutcome, ResilientError> {
    let last_resort: &dyn ShardingAlgorithm = &SizeBalanced;
    let mut events = Vec::new();
    let mut last_error = None;
    for (rank, algo) in stages.iter().chain([&last_resort]).enumerate() {
        let is_last_resort = rank == stages.len();
        let algorithm = algo.name().to_string();
        events.push(ProvenanceEvent::Attempt {
            algorithm: algorithm.clone(),
        });
        let plan = match algo.shard(task) {
            Ok(plan) => plan,
            Err(e) => {
                events.push(ProvenanceEvent::SearchFailed {
                    algorithm,
                    reason: e.to_string(),
                });
                if !(is_last_resort && last_error.is_some()) {
                    last_error = Some(e);
                }
                continue;
            }
        };
        // The chain's one check: a plan that fits comes back unchanged
        // (an empty delta), and whatever comes back validates. The last
        // resort's plan was repaired, and so validated, as it was built.
        let checked = if is_last_resort {
            Ok((plan, 0))
        } else {
            repair(task, &plan).map(|r| (r.plan, r.delta.steps.len()))
        };
        let (plan, steps) = match checked {
            Ok(checked) => checked,
            Err(e) => {
                events.push(ProvenanceEvent::RepairFailed {
                    algorithm,
                    reason: e.to_string(),
                });
                last_error = Some(e);
                continue;
            }
        };
        if steps > 0 {
            events.push(ProvenanceEvent::Repaired {
                algorithm: algorithm.clone(),
                steps,
            });
        }
        let source = match (rank, steps) {
            _ if is_last_resort => PlanSource::SizeBalanced,
            (0, 0) => PlanSource::Primary { algorithm },
            (_, 0) => PlanSource::Fallback { algorithm },
            (_, steps) => PlanSource::Repaired {
                algorithm,
                repair_steps: steps,
            },
        };
        return Ok(ResilientOutcome {
            plan,
            provenance: PlanProvenance { source, events },
        });
    }
    Err(ResilientError {
        cause: last_error.expect("the last resort ran and failed"),
        provenance: Box::new(PlanProvenance {
            source: PlanSource::SizeBalanced,
            events,
        }),
    })
}

/// The guaranteed last resort: assign tables to the least-loaded device,
/// largest table first, then run the repair engine to split anything that
/// still overflows.
///
/// # Errors
///
/// [`PlanError::Infeasible`] when even with splitting the tables cannot
/// fit the cluster.
pub fn size_balanced_plan(task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
    let tables = task.tables().to_vec();
    let mut order: Vec<usize> = (0..tables.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(tables[i].memory_bytes()), i));

    // Targets are picked by maximum remaining headroom against each
    // device's own budget; on uniform fleets this is exactly the classic
    // least-loaded rule (same selections, same tie-breaks).
    let budgets = task.budgets();
    let mut device_of = vec![0usize; tables.len()];
    let mut load = vec![0u64; task.num_devices()];
    for i in order {
        let target = load
            .iter()
            .zip(budgets)
            .enumerate()
            .max_by_key(|&(d, (&b, &cap))| (cap.saturating_sub(b), std::cmp::Reverse(d)))
            .map(|(d, _)| d)
            .expect("task has at least one device");
        device_of[i] = target;
        load[target] += tables[i].memory_bytes();
    }
    let plan = ShardingPlan::new(Vec::new(), tables, device_of, task.num_devices())?;
    Ok(repair(task, &plan)?.plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableConfig, TableId};

    fn t(id: u32, dim: u32, rows: u64) -> TableConfig {
        TableConfig::new(TableId(id), dim, rows, 8.0, 1.0)
    }

    fn small_task() -> ShardingTask {
        let tables: Vec<TableConfig> = (0..6).map(|i| t(i, 32, 4096)).collect();
        ShardingTask::new(tables, 2, 1 << 30, 1024)
    }

    /// A sharder that always fails its search.
    struct AlwaysFails;

    impl ShardingAlgorithm for AlwaysFails {
        fn name(&self) -> &str {
            "always_fails"
        }

        fn shard(&self, _task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
            Err(PlanError::Infeasible {
                reason: "synthetic failure".into(),
            })
        }
    }

    /// A sharder that dumps every table on device 0.
    struct PileOnDeviceZero;

    impl ShardingAlgorithm for PileOnDeviceZero {
        fn name(&self) -> &str {
            "pile_on_zero"
        }

        fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
            ShardingPlan::new(
                Vec::new(),
                task.tables().to_vec(),
                vec![0; task.num_tables()],
                task.num_devices(),
            )
        }
    }

    /// A sharder that balances perfectly by round-robin.
    struct RoundRobin;

    impl ShardingAlgorithm for RoundRobin {
        fn name(&self) -> &str {
            "round_robin"
        }

        fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
            ShardingPlan::new(
                Vec::new(),
                task.tables().to_vec(),
                (0..task.num_tables())
                    .map(|i| i % task.num_devices())
                    .collect(),
                task.num_devices(),
            )
        }
    }

    #[test]
    fn healthy_primary_is_used_directly() {
        let outcome = shard_with_provenance(&[&RoundRobin], &small_task()).unwrap();
        assert_eq!(
            outcome.provenance.source,
            PlanSource::Primary {
                algorithm: "round_robin".into()
            }
        );
        assert!(!outcome.provenance.is_degraded());
        assert_eq!(
            outcome.provenance.events,
            [ProvenanceEvent::Attempt {
                algorithm: "round_robin".into()
            }]
        );
    }

    #[test]
    fn failing_primary_downgrades_to_fallback() {
        let outcome = shard_with_provenance(&[&AlwaysFails, &RoundRobin], &small_task()).unwrap();
        assert_eq!(
            outcome.provenance.source,
            PlanSource::Fallback {
                algorithm: "round_robin".into()
            }
        );
        assert!(outcome.provenance.is_degraded());
        assert!(outcome
            .provenance
            .events
            .iter()
            .any(|e| matches!(e, ProvenanceEvent::SearchFailed { algorithm, .. } if algorithm == "always_fails")));
    }

    #[test]
    fn oom_plan_is_repaired_in_chain() {
        // Budget fits three of six tables per device: piling on device 0
        // overflows and must be repaired.
        let tables: Vec<TableConfig> = (0..6).map(|i| t(i, 32, 4096)).collect();
        let budget = tables[0].memory_bytes() * 3;
        let task = ShardingTask::new(tables, 2, budget, 1024);
        let outcome = shard_with_provenance(&[&PileOnDeviceZero], &task).unwrap();
        assert!(matches!(
            outcome.provenance.source,
            PlanSource::Repaired { ref algorithm, repair_steps } if algorithm == "pile_on_zero" && repair_steps > 0
        ));
        assert!(outcome.plan.validate(&task).is_ok());
    }

    /// A sharder that plans for a four-device cluster whatever the task.
    struct FourDevices;

    impl ShardingAlgorithm for FourDevices {
        fn name(&self) -> &str {
            "four_devices"
        }

        fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
            ShardingPlan::new(
                Vec::new(),
                task.tables().to_vec(),
                (0..task.num_tables()).map(|i| i % 4).collect(),
                4,
            )
        }
    }

    #[test]
    fn a_plan_for_another_device_count_fails_repair_and_falls_back() {
        let task = small_task();
        let outcome = shard_with_provenance(&[&FourDevices, &RoundRobin], &task).unwrap();
        assert_eq!(
            outcome.provenance.source,
            PlanSource::Fallback {
                algorithm: "round_robin".into()
            }
        );
        assert!(outcome.provenance.events.iter().any(|e| matches!(
            e,
            ProvenanceEvent::RepairFailed { algorithm, reason }
                if algorithm == "four_devices" && reason.contains("plan has 4 devices, task wants 2")
        )));
        assert!(outcome.plan.validate(&task).is_ok());
    }

    /// A sharder that places round-robin tables of its own — narrower
    /// than the task's, so its plan fits every device.
    struct ForeignTables;

    impl ShardingAlgorithm for ForeignTables {
        fn name(&self) -> &str {
            "foreign_tables"
        }

        fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
            let tables: Vec<TableConfig> = (0..task.num_tables())
                .map(|i| t(i as u32, 16, 4096))
                .collect();
            let device_of = (0..tables.len()).map(|i| i % task.num_devices()).collect();
            ShardingPlan::new(Vec::new(), tables, device_of, task.num_devices())
        }
    }

    #[test]
    fn a_plan_that_fits_but_is_not_the_tasks_fails_repair_and_falls_back() {
        let task = small_task();
        let foreign = ForeignTables.shard(&task).unwrap();
        assert_eq!(
            foreign.first_over_budget(&task),
            None,
            "the stub's plan fits"
        );
        let outcome = shard_with_provenance(&[&ForeignTables, &RoundRobin], &task).unwrap();
        assert_eq!(
            outcome.provenance.events,
            [
                ProvenanceEvent::Attempt {
                    algorithm: "foreign_tables".into()
                },
                ProvenanceEvent::RepairFailed {
                    algorithm: "foreign_tables".into(),
                    reason: "invalid plan: sharded tables do not match the split plan \
                             applied to the task"
                        .into()
                },
                ProvenanceEvent::Attempt {
                    algorithm: "round_robin".into()
                },
            ]
        );
        assert_eq!(
            outcome.provenance.source,
            PlanSource::Fallback {
                algorithm: "round_robin".into()
            }
        );
        assert_eq!(outcome.plan, RoundRobin.shard(&task).unwrap());
    }

    #[test]
    fn size_balanced_is_the_last_resort() {
        let outcome = shard_with_provenance(&[&AlwaysFails], &small_task()).unwrap();
        assert_eq!(outcome.provenance.source, PlanSource::SizeBalanced);
        assert!(outcome.plan.validate(&small_task()).is_ok());
    }

    #[test]
    fn infeasible_task_yields_typed_error_with_attribution() {
        // 1 device, tables larger than the budget even fully split.
        let tables = vec![t(0, 64, 1 << 20)];
        let budget = 1024u64;
        let task = ShardingTask::new(tables, 1, budget, 1024);
        let err = shard_with_provenance(&[&RoundRobin], &task).unwrap_err();
        assert!(matches!(
            err.cause,
            PlanError::Infeasible { .. } | PlanError::Invalid { .. }
        ));
        let attempted: Vec<&String> = err
            .provenance
            .events
            .iter()
            .filter_map(|e| match e {
                ProvenanceEvent::Attempt { algorithm } => Some(algorithm),
                _ => None,
            })
            .collect();
        assert!(attempted.iter().any(|a| a.as_str() == "round_robin"));
        assert!(attempted.iter().any(|a| a.as_str() == "size_balanced"));
    }

    #[test]
    fn a_last_resort_search_failure_keeps_the_earlier_cause() {
        // One device, one table past its budget even fully split: the
        // stage fails its search, and so does the size-balanced repair.
        let task = ShardingTask::new(vec![t(0, 64, 1 << 20)], 1, 1024, 1024);
        let err = shard_with_provenance(&[&AlwaysFails], &task).unwrap_err();
        assert_eq!(
            err.cause,
            PlanError::Infeasible {
                reason: "synthetic failure".into()
            }
        );
        assert_eq!(err.provenance.source, PlanSource::SizeBalanced);
        assert!(matches!(
            err.provenance.events.last(),
            Some(ProvenanceEvent::SearchFailed { algorithm, .. }) if algorithm == "size_balanced"
        ));
        // With no earlier stage, the last resort's own error is the cause.
        let alone = shard_with_provenance(&[], &task).unwrap_err();
        assert_eq!(Err(alone.cause), size_balanced_plan(&task));
    }

    #[test]
    fn chain_is_deterministic() {
        let tables: Vec<TableConfig> = (0..6).map(|i| t(i, 32, 4096)).collect();
        let budget = tables[0].memory_bytes() * 3;
        let task = ShardingTask::new(tables, 2, budget, 1024);
        let stages: [&dyn ShardingAlgorithm; 2] = [&PileOnDeviceZero, &RoundRobin];
        let a = shard_with_provenance(&stages, &task).unwrap();
        let b = shard_with_provenance(&stages, &task).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn chain_verifies_against_per_device_budgets() {
        use nshard_data::{DevicePool, DeviceProfile};
        // Round-robin is feasible under the largest budget but overflows
        // the starved device of the heterogeneous pool, so the chain must
        // repair it rather than accept it as-is.
        let tables: Vec<TableConfig> = (0..6).map(|i| t(i, 32, 4096)).collect();
        let each = tables[0].memory_bytes();
        let pool = DevicePool::new(
            vec![
                DeviceProfile::new(each * 6, 1.0, 0),
                DeviceProfile::new(each, 1.0, 0),
            ],
            1.0,
        );
        let task = ShardingTask::new(tables, 2, each * 6, 1024).with_devices(pool);
        let outcome = shard_with_provenance(&[&RoundRobin], &task).unwrap();
        assert!(matches!(
            outcome.provenance.source,
            PlanSource::Repaired { .. }
        ));
        assert!(outcome.plan.validate(&task).is_ok());
        assert!(outcome.plan.device_bytes()[1] <= each);
    }

    #[test]
    fn size_balanced_plan_honors_per_device_budgets() {
        use nshard_data::{DevicePool, DeviceProfile};
        let tables: Vec<TableConfig> = (0..4).map(|i| t(i, 32, 4096)).collect();
        let each = tables[0].memory_bytes();
        let pool = DevicePool::new(
            vec![
                DeviceProfile::new(each * 3, 1.0, 0),
                DeviceProfile::new(each, 1.0, 0),
            ],
            1.0,
        );
        let task = ShardingTask::new(tables, 2, each * 3, 1024).with_devices(pool);
        let plan = size_balanced_plan(&task).unwrap();
        assert!(plan.validate(&task).is_ok());
        assert!(plan.device_bytes()[1] <= each);
    }

    #[test]
    fn size_balanced_plan_splits_oversized_tables() {
        let big = t(0, 128, 8192);
        let task = ShardingTask::new(vec![big], 2, big.memory_bytes() * 3 / 4, 1024);
        let plan = size_balanced_plan(&task).unwrap();
        assert!(plan.validate(&task).is_ok());
        assert!(plan.num_column_splits() >= 1);
    }
}
