//! Chaos harness: the planner on hostile fleets.
//!
//! Sweeps seeded fleets — squeezed memory budgets, slow compute classes,
//! a slow node behind slow links — against the fallback chain. Each fleet
//! is a [`DevicePool`] on the task, so a plan is made and checked on the
//! same fleet, and the sweep asserts the resilience contract:
//!
//! * the planner never panics,
//! * it returns either a plan that fits every device of the task's fleet
//!   or a typed [`ResilientError`] with full provenance attribution,
//! * a plan's [`PlanSource`] and an error's cause are the ones its
//!   recorded events imply,
//! * every outcome is bit-for-bit deterministic per scenario seed.

use neuroshard::baselines::{DimGreedy, ShardingAlgorithm, SizeGreedy, TorchRecLikePlanner};
use neuroshard::data::{DevicePool, DeviceProfile, ShardingTask, TablePool};
use neuroshard::resilient::{
    shard_with_provenance, PlanSource, ProvenanceEvent, ResilientError, ResilientOutcome,
};
use neuroshard::sim::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCENARIOS: u64 = 24;
const DEVICES: usize = 4;

/// Runs the chain under test on `task`: greedy primary, greedy fallback,
/// plans verified on the task's fleet.
fn chain(task: &ShardingTask) -> Result<ResilientOutcome, ResilientError> {
    shard_with_provenance(&[&SizeGreedy, &DimGreedy], task)
}

/// The hostile fleet for `task` at `seed`: each device holds 80–140% of
/// its share of a `percent`% even split of the task's bytes and computes
/// 1–3× slower than the baseline, and the devices sit on two nodes joined
/// by links at 0.25–1.0 of full bandwidth.
fn hostile_pool(task: &ShardingTask, seed: u64, percent: u64) -> DevicePool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
    let share = (task.total_bytes() * percent / (100 * DEVICES as u64)) as f64;
    let devices = (0..DEVICES)
        .map(|_| {
            let budget = (share * rng.random_range(0.8..1.4)) as u64;
            DeviceProfile::new(
                budget,
                rng.random_range(1.0..3.0),
                rng.random_range(0..2usize),
            )
        })
        .collect();
    DevicePool::new(devices, rng.random_range(0.25..1.0))
}

/// The sweep's task for `seed`, on its hostile fleet.
fn task_for(seed: u64) -> ShardingTask {
    squeezed_task_for(seed, 115)
}

/// The sweep's task for `seed` on a fleet holding `percent`% of its bytes
/// in an even split; below 71% (1.4 × 71% < 100%) no plan fits at all.
fn squeezed_task_for(seed: u64, percent: u64) -> ShardingTask {
    let pool = TablePool::synthetic_dlrm(120, seed);
    let task = ShardingTask::sample(&pool, DEVICES, 12..=30, 64, seed);
    let fleet = hostile_pool(&task, seed, percent);
    task.with_devices(fleet)
}

/// The name of the chain's first stage.
const PRIMARY: &str = "size_greedy";

/// The name of the built-in last resort.
const LAST_RESORT: &str = "size_balanced";

/// Asserts that `outcome` is attributed as its events say (`first` is
/// the chain's first stage):
///
/// * a plan is `Primary` iff the events are exactly `[Attempt(first)]`,
///   `SizeBalanced` iff the last attempt is the last resort's,
///   `Repaired { a, s }` iff the last event is `Repaired { a, s }`, and
///   `Fallback { a }` otherwise, `a` being the last attempt and not the
///   first stage;
/// * an error's source is `SizeBalanced`, its last attempt the last
///   resort's, and its cause renders the last recorded failure — unless
///   that is the last resort's search failure after an earlier stage's,
///   which keeps the earlier cause.
fn assert_attributed(first: &str, outcome: &Result<ResilientOutcome, ResilientError>) {
    let (source, events) = match outcome {
        Ok(outcome) => (&outcome.provenance.source, &outcome.provenance.events),
        Err(err) => (&err.provenance.source, &err.provenance.events),
    };
    let last_attempt = events
        .iter()
        .rev()
        .find_map(|e| match e {
            ProvenanceEvent::Attempt { algorithm } => Some(algorithm.as_str()),
            _ => None,
        })
        .expect("every outcome records an attempt");
    let Err(err) = outcome else {
        let expected = match events.last() {
            _ if last_attempt == LAST_RESORT => PlanSource::SizeBalanced,
            Some(ProvenanceEvent::Repaired { algorithm, steps }) => PlanSource::Repaired {
                algorithm: algorithm.clone(),
                repair_steps: *steps,
            },
            _ if events.len() == 1 && last_attempt == first => PlanSource::Primary {
                algorithm: first.to_string(),
            },
            _ => {
                assert_ne!(last_attempt, first, "events: {events:?}");
                PlanSource::Fallback {
                    algorithm: last_attempt.to_string(),
                }
            }
        };
        assert_eq!(source, &expected, "events: {events:?}");
        return;
    };
    assert_eq!(source, &PlanSource::SizeBalanced, "events: {events:?}");
    assert_eq!(last_attempt, LAST_RESORT, "events: {events:?}");
    let failures: Vec<(&ProvenanceEvent, &str)> = events
        .iter()
        .filter_map(|e| match e {
            ProvenanceEvent::SearchFailed { reason, .. }
            | ProvenanceEvent::RepairFailed { reason, .. } => Some((e, reason.as_str())),
            _ => None,
        })
        .collect();
    let cause = match failures.as_slice() {
        [.., (_, earlier), (ProvenanceEvent::SearchFailed { algorithm, .. }, _)]
            if algorithm == LAST_RESORT =>
        {
            earlier
        }
        [.., (_, last)] => last,
        [] => panic!("an error without a recorded failure: {events:?}"),
    };
    assert_eq!(err.cause.to_string(), *cause, "events: {events:?}");
}

/// Runs one seeded scenario end to end.
fn run_scenario(seed: u64) -> Result<ResilientOutcome, ResilientError> {
    chain(&task_for(seed))
}

#[test]
fn sweep_never_panics_and_outcomes_are_typed() {
    let mut plans = 0usize;
    let mut typed_errors = 0usize;
    for seed in 0..SCENARIOS {
        match run_scenario(seed) {
            Ok(outcome) => {
                plans += 1;
                // The accepted plan fits the fleet it was planned for.
                let task = task_for(seed);
                neuroshard::core::cluster_for(&task, &GpuSpec::rtx_2080_ti())
                    .check_memory(&outcome.plan.device_profiles(task.batch_size()))
                    .expect("accepted plan must fit every device's budget");
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

/// Every outcome of the sweep — on its hostile fleet, and on the same
/// fleet squeezed until only some stages, then no stage, can fit it —
/// carries the attribution its events imply, for the sweep's chain, a
/// memory-aware planner that fails its search when it finds no fit, and
/// the last resort alone. Prints the outcomes by kind.
#[test]
fn every_outcome_is_attributed_as_its_events_say() {
    let torchrec = TorchRecLikePlanner::default();
    /// A chain's first stage and the stages it runs.
    type Chain<'a> = (&'static str, Vec<&'a dyn ShardingAlgorithm>);
    let chains: [Chain; 3] = [
        (PRIMARY, vec![&SizeGreedy, &DimGreedy]),
        ("torchrec_like", vec![&torchrec]),
        (LAST_RESORT, Vec::new()),
    ];
    let mut counts = std::collections::BTreeMap::new();
    for (first, stages) in chains {
        for percent in [115, 85, 60] {
            for seed in 0..SCENARIOS {
                let task = squeezed_task_for(seed, percent);
                let outcome = shard_with_provenance(&stages, &task);
                assert_attributed(first, &outcome);
                let kind = match &outcome {
                    Ok(outcome) => {
                        neuroshard::core::cluster_for(&task, &GpuSpec::rtx_2080_ti())
                            .check_memory(&outcome.plan.device_profiles(task.batch_size()))
                            .expect("accepted plan must fit every device's budget");
                        match outcome.provenance.source {
                            PlanSource::Primary { .. } => "primary",
                            PlanSource::Repaired { .. } => "repaired",
                            PlanSource::Fallback { .. } => "fallback",
                            PlanSource::SizeBalanced => "size_balanced",
                        }
                    }
                    Err(err) => match err.provenance.events.last() {
                        Some(ProvenanceEvent::SearchFailed { algorithm, .. })
                            if algorithm == LAST_RESORT && first != LAST_RESORT =>
                        {
                            "error after an earlier stage's"
                        }
                        _ => "error",
                    },
                };
                *counts.entry(kind).or_insert(0usize) += 1;
            }
        }
    }
    println!("outcomes by kind: {counts:?}");
    for kind in [
        "primary",
        "repaired",
        "size_balanced",
        "error after an earlier stage's",
    ] {
        assert!(counts.contains_key(kind), "no outcome of kind {kind:?}");
    }
}

#[test]
fn sweep_is_bit_for_bit_deterministic() {
    for seed in 0..SCENARIOS {
        assert_eq!(
            run_scenario(seed),
            run_scenario(seed),
            "scenario {seed} is not deterministic"
        );
    }
}

#[test]
fn sweep_exercises_the_degradation_machinery() {
    let degraded = (0..SCENARIOS)
        .filter(|&seed| {
            let provenance = match run_scenario(seed) {
                Ok(outcome) => outcome.provenance,
                Err(err) => *err.provenance,
            };
            provenance.is_degraded()
                || provenance.events.iter().any(|e| {
                    matches!(
                        e,
                        ProvenanceEvent::Repaired { .. }
                            | ProvenanceEvent::RepairFailed { .. }
                            | ProvenanceEvent::SearchFailed { .. }
                    )
                })
        })
        .count();
    println!("{degraded}/{SCENARIOS} scenarios degraded");
    assert!(degraded > 0, "no scenario exercised a downgrade");
}

/// The acceptance-criteria integration test: a plan the simulator rejects
/// with out-of-memory (a "-" cell of Table 1: a memory-oblivious greedy
/// baseline at large dimensions) is converted into a feasible plan by the
/// repair engine inside the chain.
#[test]
fn oom_greedy_plan_is_repaired_into_feasibility() {
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
    let outcome = shard_with_provenance(&[&DimGreedy], &task).unwrap();
    assert!(matches!(
        outcome.provenance.source,
        PlanSource::Repaired { .. }
    ));
    assert!(outcome.plan.validate(&task).is_ok());
}

// ---------------------------------------------------------------------------
// Heterogeneity chaos: slow nodes on two-tier fleets.
// ---------------------------------------------------------------------------

/// A two-node fleet: node 0 holds two fast/large devices, node 1 two
/// devices with half the memory computing `slow_scale`× slower, joined by
/// an inter-node fabric at `inter` of full bandwidth.
fn two_tier_pool(slow_scale: f64, inter: f64) -> DevicePool {
    DevicePool::two_tier(2, 1 << 30, 2, 512 << 20, slow_scale, inter)
}

/// A heterogeneous task for `seed`, sized so the small node's budget is a
/// real constraint.
fn hetero_task(seed: u64, fleet: DevicePool) -> ShardingTask {
    let pool = TablePool::synthetic_dlrm(120, seed);
    ShardingTask::sample(&pool, DEVICES, 10..=18, 64, seed).with_devices(fleet)
}

/// A slower class and slower links on node 1 bite only the devices of
/// node 1: node 0's ground-truth compute is unchanged bit for bit.
#[test]
fn a_slow_node_slows_only_its_own_devices() {
    let task = hetero_task(5, two_tier_pool(1.5, 0.5));
    let plan = neuroshard::resilient::size_balanced_plan(&task).expect("task is feasible");
    let profiles = plan.device_profiles(task.batch_size());
    let cost_on = |fleet: DevicePool| {
        let task = task.clone().with_devices(fleet);
        neuroshard::core::cluster_for(&task, &GpuSpec::rtx_2080_ti())
            .evaluate_exact(&profiles)
            .unwrap()
    };
    let base = cost_on(two_tier_pool(1.5, 0.5));
    let slow = cost_on(two_tier_pool(4.5, 0.125));

    for (d, (base_d, slow_d)) in base.devices().iter().zip(slow.devices()).enumerate() {
        if d < 2 {
            // Node 0: compute untouched (the slower links still slow its
            // *conversations with* node 1, so only compute is exactly
            // preserved).
            assert_eq!(
                base_d.compute_ms().to_bits(),
                slow_d.compute_ms().to_bits(),
                "device {d} on the fast node changed compute cost"
            );
        } else {
            assert!(
                slow_d.compute_ms() > base_d.compute_ms(),
                "device {d} on the slow node must compute slower"
            );
            assert!(
                slow_d.comm_ms() > base_d.comm_ms(),
                "device {d} behind the slow links must communicate slower"
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
    let task = ShardingTask::new(tables.clone(), DEVICES, 1 << 30, 64)
        .with_devices(two_tier_pool(1.5, 0.5));
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
            bytes <= task.budgets()[d],
            "device {d} holds {bytes} bytes over its profile's {} byte budget",
            task.budgets()[d]
        );
    }
}

/// The full chain on two-tier fleets whose slow node is slower still and
/// whose links are cut further: for every seed the planner returns either
/// a plan respecting each device's memory profile or a typed error with
/// provenance — and the outcome is deterministic.
#[test]
fn hetero_fault_sweep_recovers_profile_respecting_plans() {
    let mut plans = 0usize;
    for seed in 0..8u64 {
        let slow_scale = 1.5 * (2.0 + (seed % 3) as f64);
        let inter = 0.5 * (0.2 + 0.1 * (seed % 4) as f64);
        let task = hetero_task(seed, two_tier_pool(slow_scale, inter));
        let run = || chain(&task);
        let outcome = run();
        assert_eq!(
            outcome,
            run(),
            "hetero scenario {seed} is not deterministic"
        );
        assert_attributed(PRIMARY, &outcome);
        match outcome {
            Ok(outcome) => {
                plans += 1;
                for (d, bytes) in outcome.plan.device_bytes().into_iter().enumerate() {
                    assert!(
                        bytes <= task.budgets()[d],
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
