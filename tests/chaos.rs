//! Chaos harness: the planner under injected faults.
//!
//! Sweeps seeded fault scenarios — stragglers, degraded links, memory
//! pressure, transient measurement failures — against the fallback chain
//! and asserts the resilience contract:
//!
//! * the planner never panics,
//! * it returns either a plan that verifies under the faulted cluster or a
//!   typed [`ResilientError`] with full provenance attribution,
//! * every outcome is bit-for-bit deterministic per scenario seed.

use neuroshard::baselines::{DimGreedy, SizeGreedy};
use neuroshard::data::{ShardingTask, TablePool};
use neuroshard::resilient::{
    FallbackChain, FaultPlan, FaultyCluster, PlanSource, ProvenanceEvent, ResilientError,
    ResilientOutcome,
};
use neuroshard::sim::GpuSpec;

const SCENARIOS: u64 = 24;
const DEVICES: usize = 4;

/// A faulted ground-truth cluster for `task` under `faults`. When the task
/// describes a heterogeneous fleet the cluster inherits its per-device
/// memory, compute and interconnect profiles, so faults compose with
/// heterogeneity.
fn faulty_cluster(task: &ShardingTask, faults: FaultPlan) -> FaultyCluster {
    FaultyCluster::new(
        neuroshard::core::cluster_for(task, &GpuSpec::rtx_2080_ti()),
        faults,
    )
}

/// Builds the chain under test: greedy primary, greedy fallback, plans
/// verified on the task's fleet with `faults` lowered onto it (so memory
/// checks see *effective* budgets and verification can fail transiently).
fn chain_for(faults: FaultPlan) -> FallbackChain {
    FallbackChain::new(Box::new(SizeGreedy))
        .with_fallback(Box::new(DimGreedy))
        .with_faults(faults)
}

/// The baseline task for `seed`: paper-default 4 GB budget.
fn base_task(seed: u64) -> ShardingTask {
    let pool = TablePool::synthetic_dlrm(120, seed);
    ShardingTask::sample(&pool, DEVICES, 12..=30, 64, seed)
}

/// The sweep's task for `seed`. Every third scenario gets a tight budget
/// (15% headroom over perfect balance) so memory-pressure faults actually
/// bite and the degradation machinery fires.
fn task_for(seed: u64) -> ShardingTask {
    let task = base_task(seed);
    if seed % 3 == 2 {
        let tight = task.total_bytes() * 115 / (100 * DEVICES as u64);
        task.with_devices(DevicePool::uniform(DEVICES, tight))
    } else {
        task
    }
}

/// Runs one seeded scenario end to end.
fn run_scenario(seed: u64, conservative: bool) -> Result<ResilientOutcome, ResilientError> {
    let faults = FaultPlan::sampled(seed, DEVICES);
    let task = if conservative {
        // A budget-aware planner starts from the roomy default budget and
        // targets the squeezed (effective) one.
        let task = base_task(seed);
        let min_budget = (0..DEVICES)
            .map(|d| faults.effective_budget_bytes(d, task.budget_of(d)))
            .min()
            .unwrap();
        task.with_devices(DevicePool::uniform(DEVICES, min_budget))
    } else {
        task_for(seed)
    };
    chain_for(faults).shard_with_provenance(&task)
}

#[test]
fn sweep_never_panics_and_outcomes_are_typed() {
    let mut plans = 0usize;
    let mut typed_errors = 0usize;
    for seed in 0..SCENARIOS {
        match run_scenario(seed, false) {
            Ok(outcome) => {
                plans += 1;
                // The accepted plan verifies under the *faulted* cluster.
                let task = task_for(seed);
                let faulty = faulty_cluster(&task, FaultPlan::sampled(seed, DEVICES));
                faulty
                    .check_memory(&outcome.plan.device_profiles(task.batch_size()))
                    .expect("accepted plan must fit the effective budgets");
            }
            Err(err) => {
                typed_errors += 1;
                // Attribution: the error names what was attempted and why
                // each stage failed.
                assert!(
                    !err.provenance.events.is_empty(),
                    "seed {seed}: error without provenance"
                );
                assert!(err
                    .provenance
                    .events
                    .iter()
                    .any(|e| matches!(e, ProvenanceEvent::Attempt { .. })));
            }
        }
    }
    assert_eq!(plans + typed_errors, SCENARIOS as usize);
    // The sweep must actually produce plans in the common case.
    assert!(
        plans >= SCENARIOS as usize / 2,
        "only {plans}/{SCENARIOS} scenarios produced a plan"
    );
}

#[test]
fn sweep_is_bit_for_bit_deterministic() {
    for seed in 0..SCENARIOS {
        let a = run_scenario(seed, false);
        let b = run_scenario(seed, false);
        assert_eq!(a, b, "scenario {seed} is not deterministic");
    }
}

#[test]
fn conservative_planning_mostly_survives_faults() {
    let mut plans = 0usize;
    for seed in 0..SCENARIOS {
        if run_scenario(seed, true).is_ok() {
            plans += 1;
        }
    }
    // Budget-aware planning should survive the large majority of fault
    // scenarios (transient-failure storms may still exhaust retries).
    assert!(
        plans * 4 >= SCENARIOS as usize * 3,
        "only {plans}/{SCENARIOS} conservative scenarios produced a plan"
    );
}

#[test]
fn sweep_exercises_the_degradation_machinery() {
    let mut saw_retry = false;
    let mut saw_degraded = false;
    for seed in 0..SCENARIOS {
        let provenance = match run_scenario(seed, false) {
            Ok(outcome) => outcome.provenance,
            Err(err) => *err.provenance,
        };
        saw_retry |= provenance
            .events
            .iter()
            .any(|e| matches!(e, ProvenanceEvent::TransientRetry { .. }));
        saw_degraded |= provenance.is_degraded()
            || provenance.events.iter().any(|e| {
                matches!(
                    e,
                    ProvenanceEvent::VerifyFailed { .. }
                        | ProvenanceEvent::Repaired { .. }
                        | ProvenanceEvent::RepairFailed { .. }
                        | ProvenanceEvent::SearchFailed { .. }
                )
            });
    }
    assert!(saw_retry, "no scenario exercised transient retries");
    assert!(saw_degraded, "no scenario exercised a downgrade");
}

/// The acceptance-criteria integration test: a plan the simulator rejects
/// with out-of-memory (a "-" cell of Table 1: a memory-oblivious greedy
/// baseline at large dimensions) is converted into a feasible plan by the
/// repair engine inside the chain.
#[test]
fn oom_greedy_plan_is_repaired_into_feasibility() {
    use neuroshard::baselines::ShardingAlgorithm;
    use neuroshard::data::{TableConfig, TableId};
    use neuroshard::resilient::repair;
    use neuroshard::sim::SimError;

    // One 6 GB table (plus small companions) on 4 GB devices: no
    // table-wise placement fits, so every memory-oblivious baseline emits
    // an OOM plan — the "-" cell.
    let mut tables = vec![TableConfig::new(TableId(0), 192, 1 << 23, 20.0, 1.0)];
    for i in 1..6 {
        tables.push(TableConfig::new(TableId(i), 16, 1 << 18, 8.0, 1.0));
    }
    let task = ShardingTask::new(tables, 2, 4 * 1024 * 1024 * 1024, 65_536);

    let oom_plan = DimGreedy.shard(&task).expect("search itself succeeds");
    let cluster = neuroshard::core::cluster_for(&task, &GpuSpec::rtx_2080_ti());
    let err = cluster
        .check_memory(&oom_plan.device_profiles(task.batch_size()))
        .unwrap_err();
    assert!(matches!(err, SimError::OutOfMemory { .. }));

    // Direct repair: the previously-OOM plan becomes feasible.
    let report = repair(&task, &oom_plan).expect("repair must salvage the plan");
    assert!(report.plan.validate(&task).is_ok());
    assert!(report.initial_overflow_bytes > 0);
    cluster
        .check_memory(&report.plan.device_profiles(task.batch_size()))
        .expect("repaired plan fits");

    // And through the chain: the same task yields a verified plan with
    // repair recorded in its provenance.
    let chain = FallbackChain::new(Box::new(DimGreedy));
    let outcome = chain.shard_with_provenance(&task).unwrap();
    assert!(matches!(
        outcome.provenance.source,
        PlanSource::Repaired { .. }
    ));
    assert!(outcome.plan.validate(&task).is_ok());
}

// ---------------------------------------------------------------------------
// Heterogeneity chaos: node-class faults on two-tier fleets.
// ---------------------------------------------------------------------------

use neuroshard::data::DevicePool;
use neuroshard::sim::Fault;

/// A two-node fleet: node 0 holds two fast/large devices, node 1 two
/// slower devices with half the memory, joined by a 2× slower inter-node
/// fabric.
fn two_tier_pool() -> DevicePool {
    DevicePool::two_tier(2, 1 << 30, 2, 512 << 20, 1.5, 0.5)
}

/// A heterogeneous task for `seed`, sized so the small node's budget is a
/// real constraint.
fn hetero_task(seed: u64) -> ShardingTask {
    let pool = TablePool::synthetic_dlrm(120, seed);
    ShardingTask::sample(&pool, DEVICES, 10..=18, 64, seed).with_devices(two_tier_pool())
}

/// A whole node class slowing down and its links degrading hits only the
/// devices of that node: the other node's ground-truth costs are
/// unchanged bit for bit.
#[test]
fn node_faults_bite_only_the_faulted_node() {
    let task = hetero_task(5);
    let plan = neuroshard::resilient::size_balanced_plan(&task).expect("task is feasible");
    let profiles = plan.device_profiles(task.batch_size());

    let clean = faulty_cluster(&task, FaultPlan::new(0))
        .evaluate_exact(&profiles)
        .unwrap();
    let faulted = faulty_cluster(
        &task,
        FaultPlan::new(0)
            .with_fault(Fault::SlowNodeClass {
                node: 1,
                slowdown: 3.0,
            })
            .with_fault(Fault::NodeLinkDegradation {
                node: 1,
                bandwidth_scale: 0.25,
            }),
    )
    .evaluate_exact(&profiles)
    .unwrap();

    for d in 0..DEVICES {
        let clean_d = &clean.devices()[d];
        let fault_d = &faulted.devices()[d];
        if d < 2 {
            // Node 0: compute untouched (asymmetric link cuts still slow
            // its *conversations with* node 1, so only compute is exactly
            // preserved).
            assert_eq!(
                clean_d.compute_ms().to_bits(),
                fault_d.compute_ms().to_bits(),
                "device {d} on the healthy node changed compute cost"
            );
        } else {
            assert!(
                fault_d.compute_ms() > clean_d.compute_ms(),
                "device {d} on the slow node must compute slower"
            );
            assert!(
                fault_d.comm_ms() > clean_d.comm_ms(),
                "device {d} behind the bad links must communicate slower"
            );
        }
    }
}

/// `repair` recovers a node-skewed plan on a heterogeneous fleet to
/// feasibility under the *per-device* memory profiles, not merely the
/// aggregate budget.
#[test]
fn repair_respects_device_profiles_under_node_faults() {
    use neuroshard::resilient::repair;

    use neuroshard::data::{TableConfig, TableId};

    // Six 128 MB tables (768 MB total) on the two-tier fleet: well within
    // the 3 GB aggregate, but an overload for any single small device.
    let tables: Vec<TableConfig> = (0..6)
        .map(|i| TableConfig::new(TableId(i), 64, 1 << 19, 8.0, 1.0))
        .collect();
    let task =
        ShardingTask::new(tables.clone(), DEVICES, 1 << 30, 64).with_devices(two_tier_pool());
    // Adversarial start: everything piled onto device 2 — a *small*
    // device, so the pile violates its profile long before the fleet
    // aggregate.
    let device_of = vec![2usize; tables.len()];
    let plan = neuroshard::core::ShardingPlan::new(vec![], tables, device_of, DEVICES).unwrap();
    assert!(
        plan.validate(&task).is_err(),
        "the pile must start infeasible"
    );

    let report = repair(&task, &plan).expect("repair must salvage the pile");
    report
        .plan
        .validate(&task)
        .expect("repaired plan is feasible");
    for (d, bytes) in report.plan.device_bytes().into_iter().enumerate() {
        assert!(
            bytes <= task.budget_of(d),
            "device {d} holds {bytes} bytes over its profile's {} byte budget",
            task.budget_of(d)
        );
    }
}

/// The full chain under combined heterogeneity faults: for every seeded
/// scenario the planner returns either a plan respecting each device's
/// memory profile under the faulted cluster, or a typed error with
/// provenance — and the outcome is deterministic.
#[test]
fn hetero_fault_sweep_recovers_profile_respecting_plans() {
    let mut plans = 0usize;
    for seed in 0..8u64 {
        let task = hetero_task(seed);
        let faults = FaultPlan::new(seed)
            .with_fault(Fault::SlowNodeClass {
                node: 1,
                slowdown: 2.0 + (seed % 3) as f64,
            })
            .with_fault(Fault::NodeLinkDegradation {
                node: 1,
                bandwidth_scale: 0.2 + 0.1 * (seed % 4) as f64,
            });
        let run = || chain_for(faults.clone()).shard_with_provenance(&task);
        let outcome = run();
        assert_eq!(
            outcome,
            run(),
            "hetero scenario {seed} is not deterministic"
        );
        match outcome {
            Ok(outcome) => {
                plans += 1;
                for (d, bytes) in outcome.plan.device_bytes().into_iter().enumerate() {
                    assert!(
                        bytes <= task.budget_of(d),
                        "seed {seed}: device {d} over its per-device budget"
                    );
                }
            }
            Err(err) => {
                assert!(
                    !err.provenance.events.is_empty(),
                    "seed {seed}: error without provenance"
                );
            }
        }
    }
    assert!(
        plans >= 4,
        "only {plans}/8 heterogeneous scenarios produced a plan"
    );
}
