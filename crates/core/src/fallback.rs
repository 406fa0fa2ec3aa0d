//! Graceful degradation: a fallback chain from the primary search down to
//! a guaranteed size-balanced placement.
//!
//! Production sharding cannot simply return "-" when a search fails: a
//! plan must ship. The [`FallbackChain`] runs a sequence of sharders in
//! preference order and returns the first plan that verifies, downgrading
//! step by step:
//!
//! 1. the **primary** algorithm (normally NeuroShard),
//! 2. the primary's plan **repaired** by the [`RepairEngine`] when it was
//!    rejected for memory reasons,
//! 3. each registered **fallback** algorithm (normally a greedy baseline),
//!    repaired likewise if needed,
//! 4. a built-in **size-balanced** last resort ([`size_balanced_plan`]).
//!
//! A plan is checked on the task's fleet, faulted or not: each call lowers
//! the chain's [`FaultPlan`] (empty unless [`FallbackChain::with_faults`]
//! set one) onto the task's ground-truth cluster once, and accepts a plan
//! when [`FaultyCluster::verify`] passes — the memory check, then the
//! seeded transient check. A *transient* failure (see
//! [`SimError::is_transient`]) is retried up to five times, each retry on
//! the next attempt's seed.
//!
//! Every decision — attempts, failures, retries, repairs, downgrades — is
//! recorded in a [`PlanProvenance`] attached to the returned plan, so a
//! degraded plan is always attributable.

use nshard_data::ShardingTask;
use nshard_sim::{FaultPlan, FaultyCluster, GpuSpec, SimError};
use serde::{Deserialize, Serialize};

use crate::local::RepairEngine;
use crate::plan::{PlanError, ShardingPlan};
use crate::ShardingAlgorithm;

/// Retries of one verification after a transient failure, on top of the
/// first attempt.
const MAX_RETRIES: u32 = 5;

/// Which stage of the chain produced the accepted plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// The primary algorithm's plan, verified as-is.
    Primary {
        /// Algorithm name.
        algorithm: String,
    },
    /// A plan that needed the repair engine before verifying.
    Repaired {
        /// Name of the algorithm whose plan was repaired.
        algorithm: String,
        /// Number of repair actions taken.
        repair_steps: usize,
    },
    /// A fallback algorithm's plan, verified as-is.
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
    /// A transient verification failure triggered a retry.
    TransientRetry {
        /// Algorithm name.
        algorithm: String,
        /// 1-based retry number.
        attempt: u32,
        /// The transient error, rendered.
        reason: String,
    },
    /// The stage's plan failed verification for a persistent reason.
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

/// Why a *re*-plan was requested — set when a plan replaces an incumbent
/// because the observed workload drifted away from the incumbent's
/// assumptions (the online re-sharding loop), `None` for one-shot plans.
///
/// The `trigger_kind` is the short stable name of the drift trigger (e.g.
/// `"cost_regression"`, `"imbalance"`, `"memory"`), so a degraded or
/// migrated plan is attributable to the drift event that caused it, just
/// like fault-driven fallbacks are attributable through
/// [`ProvenanceEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplanAttribution {
    /// Stable short name of the trigger that fired.
    pub trigger_kind: String,
    /// The drift epoch at which the trigger fired.
    pub epoch: u64,
}

/// Which replica produced a plan *after a control-plane failover* — set by
/// a serving daemon that promoted itself from follower to leader when the
/// incumbent leader died, `None` for plans produced under the original
/// leader (or outside a replicated deployment entirely).
///
/// The attribution makes degraded-mode planning auditable the same way
/// [`ReplanAttribution`] makes drift-triggered replans auditable: any plan
/// minted while the control plane was recovering names the surviving node
/// and the replicated sequence number it had caught up to at promotion, so
/// an operator can tell exactly which writes the plan could (and could
/// not) have seen.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverAttribution {
    /// Identity of the replica that promoted itself and produced the plan.
    pub node: String,
    /// The replicated sequence number the promoted replica had applied at
    /// promotion time — the horizon of writes this plan could observe.
    pub at_seq: u64,
    /// `true` when the promoted replica knew it was still behind the dead
    /// leader's last advertised sequence (stale-read mode): the plan may
    /// have been produced from an incomplete store.
    pub stale: bool,
}

/// The full decision record of one [`FallbackChain::shard_with_provenance`]
/// call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanProvenance {
    /// Which stage produced the accepted plan.
    pub source: PlanSource,
    /// Every decision, in order.
    pub events: Vec<ProvenanceEvent>,
    /// Drift attribution when this plan replaced an incumbent in response
    /// to a workload-drift trigger; `None` for one-shot plans.
    pub replan: Option<ReplanAttribution>,
    /// Failover attribution when this plan was produced by a replica that
    /// promoted itself after the leader died; `None` otherwise.
    pub failover: Option<FailoverAttribution>,
}

impl PlanProvenance {
    /// `true` when the accepted plan is a downgrade from the primary.
    pub fn is_degraded(&self) -> bool {
        self.source.is_degraded()
    }

    /// Attributes this plan to a drift-triggered replan (builder-style) —
    /// used by the online controller so every replacement plan records the
    /// trigger kind and epoch that caused it.
    #[must_use]
    pub fn attributed_to_replan(mut self, trigger_kind: impl Into<String>, epoch: u64) -> Self {
        self.replan = Some(ReplanAttribution {
            trigger_kind: trigger_kind.into(),
            epoch,
        });
        self
    }

    /// Attributes this plan to a post-failover promoted replica
    /// (builder-style) — used by the serving control plane so every plan
    /// minted while a follower-turned-leader was recovering records who
    /// produced it and how caught-up that replica was.
    #[must_use]
    pub fn attributed_to_failover(
        mut self,
        node: impl Into<String>,
        at_seq: u64,
        stale: bool,
    ) -> Self {
        self.failover = Some(FailoverAttribution {
            node: node.into(),
            at_seq,
            stale,
        });
        self
    }
}

/// A plan plus the record of how the chain arrived at it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The accepted, verified plan.
    pub plan: ShardingPlan,
    /// How it was obtained.
    pub provenance: PlanProvenance,
}

/// Typed failure of the whole chain: even the last resort did not verify.
/// Carries the full provenance for attribution.
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

/// The degradation chain. See the [module documentation](self).
///
/// The chain is `Send + Sync` (all stages must be too), so one chain can
/// serve concurrent planning requests behind an `Arc` — the contract the
/// `nshard-serve` worker pool relies on.
pub struct FallbackChain {
    primary: Box<dyn ShardingAlgorithm + Send + Sync>,
    fallbacks: Vec<Box<dyn ShardingAlgorithm + Send + Sync>>,
    faults: FaultPlan,
}

impl FallbackChain {
    /// A chain with only the primary algorithm and the built-in
    /// size-balanced last resort, verifying on the healthy fleet.
    pub fn new(primary: Box<dyn ShardingAlgorithm + Send + Sync>) -> Self {
        Self {
            primary,
            fallbacks: Vec::new(),
            faults: FaultPlan::default(),
        }
    }

    /// Appends a fallback algorithm (builder-style; tried in insertion
    /// order after the primary).
    pub fn with_fallback(mut self, algo: Box<dyn ShardingAlgorithm + Send + Sync>) -> Self {
        self.fallbacks.push(algo);
        self
    }

    /// Verifies every plan on the task's fleet with `faults` lowered onto
    /// it (builder-style); the plan's seed drives its transient failures.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Runs the chain: first verified plan wins.
    ///
    /// # Errors
    ///
    /// [`ResilientError`] when every stage — including the size-balanced
    /// last resort — failed; the error carries the full [`PlanProvenance`].
    pub fn shard_with_provenance(
        &self,
        task: &ShardingTask,
    ) -> Result<ResilientOutcome, ResilientError> {
        let cluster = crate::eval::cluster_for(task, &GpuSpec::rtx_2080_ti());
        let mut run = Run {
            task,
            fleet: FaultyCluster::new(cluster, self.faults.clone()),
            events: Vec::new(),
        };

        let stages = std::iter::once(&self.primary).chain(&self.fallbacks);
        let mut last_error = None;
        for (rank, algo) in stages.enumerate() {
            let name = algo.name().to_string();
            run.events.push(ProvenanceEvent::Attempt {
                algorithm: name.clone(),
            });
            let plan = match algo.shard(task) {
                Ok(plan) => plan,
                Err(e) => {
                    run.events.push(ProvenanceEvent::SearchFailed {
                        algorithm: name.clone(),
                        reason: e.to_string(),
                    });
                    last_error = Some(e);
                    continue;
                }
            };
            match run.verify_and_repair(plan, &name) {
                Ok((plan, repair_steps)) => {
                    let source = match (rank, repair_steps) {
                        (0, None) => PlanSource::Primary { algorithm: name },
                        (_, None) => PlanSource::Fallback { algorithm: name },
                        (_, Some(steps)) => PlanSource::Repaired {
                            algorithm: name,
                            repair_steps: steps,
                        },
                    };
                    return Ok(ResilientOutcome {
                        plan,
                        provenance: run.into_provenance(source),
                    });
                }
                Err(e) => last_error = Some(e),
            }
        }

        // Last resort: size-balanced placement, never search-fails but may
        // still be infeasible (or rejected on a faulted fleet).
        run.events.push(ProvenanceEvent::Attempt {
            algorithm: "size_balanced".into(),
        });
        match size_balanced_plan(task) {
            Ok(plan) => match run.verify_and_repair(plan, "size_balanced") {
                Ok((plan, _)) => Ok(ResilientOutcome {
                    plan,
                    provenance: run.into_provenance(PlanSource::SizeBalanced),
                }),
                Err(e) => Err(ResilientError {
                    cause: e,
                    provenance: Box::new(run.into_provenance(PlanSource::SizeBalanced)),
                }),
            },
            Err(e) => {
                run.events.push(ProvenanceEvent::SearchFailed {
                    algorithm: "size_balanced".into(),
                    reason: e.to_string(),
                });
                let cause = last_error.unwrap_or(e);
                Err(ResilientError {
                    cause,
                    provenance: Box::new(run.into_provenance(PlanSource::SizeBalanced)),
                })
            }
        }
    }
}

/// One [`FallbackChain::shard_with_provenance`] call: the task, its fleet
/// with the chain's faults lowered onto it, and the decisions so far.
struct Run<'a> {
    task: &'a ShardingTask,
    fleet: FaultyCluster,
    events: Vec<ProvenanceEvent>,
}

impl Run<'_> {
    /// Verifies `plan`, retrying transient failures and repairing
    /// persistent memory failures once. Returns the accepted plan and the
    /// repair step count if repair was needed.
    fn verify_and_repair(
        &mut self,
        plan: ShardingPlan,
        name: &str,
    ) -> Result<(ShardingPlan, Option<usize>), PlanError> {
        let err = match self.verify(&plan, name) {
            Ok(()) => return Ok((plan, None)),
            Err(err) => err,
        };
        if !is_repairable(&err) {
            self.events.push(ProvenanceEvent::VerifyFailed {
                algorithm: name.to_string(),
                reason: err.to_string(),
            });
            return Err(PlanError::Invalid {
                reason: err.to_string(),
            });
        }
        let report = match RepairEngine::default().repair(self.task, &plan) {
            Ok(report) => report,
            Err(e) => {
                self.events.push(ProvenanceEvent::RepairFailed {
                    algorithm: name.to_string(),
                    reason: e.to_string(),
                });
                return Err(e);
            }
        };
        let steps = report.delta.steps.len();
        self.events.push(ProvenanceEvent::Repaired {
            algorithm: name.to_string(),
            steps,
        });
        match self.verify(&report.plan, name) {
            Ok(()) => Ok((report.plan, Some(steps))),
            Err(e) => {
                self.events.push(ProvenanceEvent::VerifyFailed {
                    algorithm: name.to_string(),
                    reason: e.to_string(),
                });
                Err(PlanError::Infeasible {
                    reason: format!("repaired plan still rejected: {e}"),
                })
            }
        }
    }

    /// [`FaultyCluster::verify`], retrying transient failures up to
    /// [`MAX_RETRIES`] times.
    fn verify(&mut self, plan: &ShardingPlan, name: &str) -> Result<(), SimError> {
        let profiles = plan.device_profiles(self.task.batch_size());
        let mut attempt = 0u32;
        loop {
            match self.fleet.verify(&profiles, attempt) {
                Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                    attempt += 1;
                    self.events.push(ProvenanceEvent::TransientRetry {
                        algorithm: name.to_string(),
                        attempt,
                        reason: e.to_string(),
                    });
                }
                verdict => return verdict,
            }
        }
    }

    fn into_provenance(self, source: PlanSource) -> PlanProvenance {
        PlanProvenance {
            source,
            events: self.events,
            replan: None,
            failover: None,
        }
    }
}

/// Errors handed to the repair engine: memory overflow it can fix, and
/// device-range or shape failures it rejects with a typed [`PlanError`]
/// (recorded as `RepairFailed`) so the chain moves to the next stage.
fn is_repairable(err: &SimError) -> bool {
    matches!(
        err,
        SimError::OutOfMemory { .. }
            | SimError::DeviceOutOfRange { .. }
            | SimError::InvalidPlan { .. }
    )
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
            .zip(&budgets)
            .enumerate()
            .max_by_key(|&(d, (&b, &cap))| (cap.saturating_sub(b), std::cmp::Reverse(d)))
            .map(|(d, _)| d)
            .expect("task has at least one device");
        device_of[i] = target;
        load[target] += tables[i].memory_bytes();
    }
    let plan = ShardingPlan::new(Vec::new(), tables, device_of, task.num_devices())?;
    Ok(RepairEngine::default().repair(task, &plan)?.plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableConfig, TableId};
    use nshard_sim::Fault;

    /// The `attempt` of every transient retry, in order.
    fn retries(provenance: &PlanProvenance) -> Vec<u32> {
        provenance
            .events
            .iter()
            .filter_map(|e| match e {
                ProvenanceEvent::TransientRetry { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect()
    }

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
        let chain = FallbackChain::new(Box::new(RoundRobin));
        let outcome = chain.shard_with_provenance(&small_task()).unwrap();
        assert_eq!(
            outcome.provenance.source,
            PlanSource::Primary {
                algorithm: "round_robin".into()
            }
        );
        assert!(!outcome.provenance.is_degraded());
        assert!(retries(&outcome.provenance).is_empty());
    }

    #[test]
    fn failing_primary_downgrades_to_fallback() {
        let chain = FallbackChain::new(Box::new(AlwaysFails)).with_fallback(Box::new(RoundRobin));
        let outcome = chain.shard_with_provenance(&small_task()).unwrap();
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
        let chain = FallbackChain::new(Box::new(PileOnDeviceZero));
        let outcome = chain.shard_with_provenance(&task).unwrap();
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
        let chain = FallbackChain::new(Box::new(FourDevices)).with_fallback(Box::new(RoundRobin));
        let outcome = chain.shard_with_provenance(&task).unwrap();
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

    #[test]
    fn size_balanced_is_the_last_resort() {
        let chain = FallbackChain::new(Box::new(AlwaysFails));
        let outcome = chain.shard_with_provenance(&small_task()).unwrap();
        assert_eq!(outcome.provenance.source, PlanSource::SizeBalanced);
        assert!(outcome.plan.validate(&small_task()).is_ok());
    }

    #[test]
    fn transient_failures_are_retried_and_recorded() {
        // At plan seed 25 a 50% failure rate fails attempts 0 and 1 and
        // passes attempt 2.
        let flaky = FaultPlan::new(25).with_fault(Fault::TransientFailures { rate: 0.5 });
        let chain = FallbackChain::new(Box::new(RoundRobin)).with_faults(flaky);
        let outcome = chain.shard_with_provenance(&small_task()).unwrap();
        assert_eq!(retries(&outcome.provenance), vec![1, 2]);
        assert_eq!(
            outcome.provenance.source,
            PlanSource::Primary {
                algorithm: "round_robin".into()
            }
        );
    }

    #[test]
    fn exhausted_retries_downgrade() {
        // At plan seed 0 a 90% failure rate fails all six attempts, for
        // the primary and the last resort alike.
        let storm = FaultPlan::new(0).with_fault(Fault::TransientFailures { rate: 0.9 });
        let chain = FallbackChain::new(Box::new(RoundRobin)).with_faults(storm);
        let err = chain.shard_with_provenance(&small_task()).unwrap_err();
        // Even the last resort cannot verify: typed error with provenance.
        assert_eq!(retries(&err.provenance), [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]);
        assert!(err.to_string().contains("fallback chain"));
    }

    #[test]
    fn infeasible_task_yields_typed_error_with_attribution() {
        // 1 device, tables larger than the budget even fully split.
        let tables = vec![t(0, 64, 1 << 20)];
        let budget = 1024u64;
        let task = ShardingTask::new(tables, 1, budget, 1024);
        let chain = FallbackChain::new(Box::new(RoundRobin));
        let err = chain.shard_with_provenance(&task).unwrap_err();
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
    fn chain_is_deterministic() {
        let make =
            || FallbackChain::new(Box::new(PileOnDeviceZero)).with_fallback(Box::new(RoundRobin));
        let tables: Vec<TableConfig> = (0..6).map(|i| t(i, 32, 4096)).collect();
        let budget = tables[0].memory_bytes() * 3;
        let task = ShardingTask::new(tables, 2, budget, 1024);
        let a = make().shard_with_provenance(&task).unwrap();
        let b = make().shard_with_provenance(&task).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn replan_attribution_is_recordable() {
        let chain = FallbackChain::new(Box::new(RoundRobin));
        let outcome = chain.shard_with_provenance(&small_task()).unwrap();
        assert_eq!(outcome.provenance.replan, None);
        let attributed = outcome
            .provenance
            .clone()
            .attributed_to_replan("cost_regression", 7);
        assert_eq!(
            attributed.replan,
            Some(ReplanAttribution {
                trigger_kind: "cost_regression".into(),
                epoch: 7,
            })
        );
        // Attribution does not change degradation status.
        assert_eq!(attributed.is_degraded(), outcome.provenance.is_degraded());
    }

    #[test]
    fn failover_attribution_is_recordable() {
        let chain = FallbackChain::new(Box::new(RoundRobin));
        let outcome = chain.shard_with_provenance(&small_task()).unwrap();
        assert_eq!(outcome.provenance.failover, None);
        let attributed = outcome
            .provenance
            .clone()
            .attributed_to_failover("node-1", 42, true);
        assert_eq!(
            attributed.failover,
            Some(FailoverAttribution {
                node: "node-1".into(),
                at_seq: 42,
                stale: true,
            })
        );
        assert_eq!(attributed.is_degraded(), outcome.provenance.is_degraded());
    }

    #[test]
    fn chain_is_shareable_across_threads() {
        // The serving daemon shares one chain behind an Arc across its
        // worker pool; a missing auto-trait bound would break that.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FallbackChain>();
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
        let chain = FallbackChain::new(Box::new(RoundRobin));
        let outcome = chain.shard_with_provenance(&task).unwrap();
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
