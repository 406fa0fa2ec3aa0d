//! Faulted evaluation as it stood before a fault plan became a fleet edit,
//! compiled only under `#[cfg(test)]` (see `lib.rs`), and the differential
//! tests that hold [`FaultyCluster`] to it bit for bit.
//!
//! The reference threads the `FaultPlan` through every evaluation: the
//! folds re-scan the fault list per device and per call, the comm spec is
//! degraded per call, and link faults reach the dimensions through a
//! closure. The lowering promises the same floating-point operations in
//! the same order, so every comparison here is by `to_bits`. The seeded
//! transient-failure draw is shared, not copied: it is not a fleet edit
//! and did not change, but its place — after the memory check, before
//! the measurement — is compared.

use proptest::prelude::*;

use crate::cluster::{Cluster, DeviceCost, MEASURE_REPEATS};
use crate::comm::CommParams;
use crate::device::GpuSpec;
use crate::devices::{DevicePool, DeviceProfile};
use crate::error::SimError;
use crate::fault::{Fault, FaultPlan, FaultyCluster};
use crate::kernel::profile_stream;
use crate::noise::NoiseModel;
use crate::profile::TableProfile;

fn compute_slowdown(faults: &FaultPlan, device: usize) -> f64 {
    faults
        .faults()
        .iter()
        .filter_map(|f| match f {
            Fault::Straggler {
                device: d,
                slowdown,
            } if *d == device => Some(*slowdown),
            _ => None,
        })
        .product()
}

fn bandwidth_scale(faults: &FaultPlan) -> f64 {
    faults
        .faults()
        .iter()
        .filter_map(|f| match f {
            Fault::DegradedLinks { bandwidth_scale } => Some(*bandwidth_scale),
            _ => None,
        })
        .product()
}

fn effective_budget_bytes(faults: &FaultPlan, device: usize, budget_bytes: u64) -> u64 {
    let fraction: f64 = faults
        .faults()
        .iter()
        .filter_map(|f| match f {
            Fault::MemoryPressure {
                device: d,
                usable_fraction,
            } if *d == device => Some(*usable_fraction),
            _ => None,
        })
        .product();
    (budget_bytes as f64 * fraction).floor() as u64
}

fn node_slowdown(faults: &FaultPlan, node: usize) -> f64 {
    faults
        .faults()
        .iter()
        .filter_map(|f| match f {
            Fault::SlowNodeClass { node: n, slowdown } if *n == node => Some(*slowdown),
            _ => None,
        })
        .product()
}

fn node_link_scale(faults: &FaultPlan, node: usize) -> f64 {
    faults
        .faults()
        .iter()
        .filter_map(|f| match f {
            Fault::NodeLinkDegradation {
                node: n,
                bandwidth_scale,
            } if *n == node => Some(*bandwidth_scale),
            _ => None,
        })
        .product()
}

fn lowered_dims_under(
    pool: &DevicePool,
    assignment: &[Vec<TableProfile>],
    link_scale: impl Fn(usize) -> f64,
) -> Vec<f64> {
    assignment
        .iter()
        .enumerate()
        .map(|(g, tables)| {
            let dim: f64 = tables.iter().map(TableProfile::comm_dim).sum();
            dim / (pool.bw_scale_of(g) * link_scale(pool.node_of(g)))
        })
        .collect()
}

fn degraded_comm(comm: &CommParams, faults: &FaultPlan) -> CommParams {
    let scale = bandwidth_scale(faults);
    CommParams {
        base_bw_gbps: comm.base_bw_gbps * scale,
        ..*comm
    }
}

fn check_memory_with_faults(
    cluster: &Cluster,
    assignment: &[Vec<TableProfile>],
    faults: &FaultPlan,
) -> Result<(), SimError> {
    if assignment.len() != cluster.num_devices() {
        return Err(SimError::InvalidPlan {
            reason: format!(
                "plan assigns {} devices but cluster has {}",
                assignment.len(),
                cluster.num_devices()
            ),
        });
    }
    for (g, tables) in assignment.iter().enumerate() {
        let required: u64 = tables.iter().map(TableProfile::memory_bytes).sum();
        let budget = effective_budget_bytes(faults, g, cluster.devices().budget_of(g));
        if required > budget {
            return Err(SimError::OutOfMemory {
                device: g,
                required_bytes: required,
                budget_bytes: budget,
            });
        }
    }
    Ok(())
}

/// The old `Cluster::evaluate_with_faults`, its `phase_inputs` inlined;
/// `cluster` is the healthy cluster.
fn evaluate_with_faults(
    cluster: &Cluster,
    assignment: &[Vec<TableProfile>],
    seed: Option<u64>,
    faults: &FaultPlan,
) -> Result<Vec<DeviceCost>, SimError> {
    check_memory_with_faults(cluster, assignment, faults)?;
    if let Some(s) = seed {
        if let Some(device) = faults.transient_failure(s, cluster.num_devices()) {
            return Err(SimError::TransientFailure {
                device,
                reason: "injected measurement fault".into(),
            });
        }
    }
    let comm = degraded_comm(cluster.spec().comm(), faults);
    let noise = match seed {
        Some(s) => NoiseModel::new(s ^ cluster.noise.seed(), cluster.noise.sigma()),
        None => NoiseModel::disabled(),
    };
    let batch = cluster.batch_size();
    let kernel = cluster.spec().kernel();
    let pool = cluster.devices();
    let (mut fwd_ms, mut bwd_ms) = (Vec::new(), Vec::new());
    for (g, tables) in assignment.iter().enumerate() {
        let slowdown = compute_slowdown(faults, g)
            * pool.compute_scale_of(g)
            * node_slowdown(faults, pool.node_of(g));
        fwd_ms.push(kernel.multi_forward_ms(tables, batch) * slowdown);
        bwd_ms.push(kernel.multi_backward_ms(tables, batch) * slowdown);
    }
    let dims = lowered_dims_under(pool, assignment, |node| node_link_scale(faults, node));
    let measure_kernels = |exact: Vec<f64>, stream_bit: u64| -> Vec<f64> {
        exact
            .into_iter()
            .zip(assignment)
            .map(|(base, tables)| {
                let stream = profile_stream(tables) ^ stream_bit;
                noise.median_measurement(base, MEASURE_REPEATS, stream)
            })
            .collect()
    };
    let fwd_compute = measure_kernels(fwd_ms, 0x0);
    let bwd_compute = measure_kernels(bwd_ms, 0x1);
    let measure =
        |starts: &[f64]| comm.measure_costs_ms(&dims, starts, batch, &noise, MEASURE_REPEATS);
    let comm_fwd = measure(&fwd_compute).fwd;
    let comm_bwd = measure(&vec![0.0; dims.len()]).bwd;
    Ok((0..cluster.num_devices())
        .map(|g| DeviceCost {
            compute_fwd_ms: fwd_compute[g],
            compute_bwd_ms: bwd_compute[g],
            comm_fwd_ms: comm_fwd[g],
            comm_bwd_ms: comm_bwd[g],
        })
        .collect())
}

/// Every field of every device, as bits.
fn bits(devices: &[DeviceCost]) -> Vec<u64> {
    devices
        .iter()
        .flat_map(|d| {
            [
                d.compute_fwd_ms,
                d.compute_bwd_ms,
                d.comm_fwd_ms,
                d.comm_bwd_ms,
            ]
        })
        .map(f64::to_bits)
        .collect()
}

/// Runs `evaluate` at `seeds`, `evaluate_exact` and `check_memory` on the
/// lowered cluster and on the reference, and reports the first difference.
fn differ(
    healthy: &Cluster,
    faults: &FaultPlan,
    assignment: &[Vec<TableProfile>],
    seeds: &[u64],
) -> Option<String> {
    let lowered = FaultyCluster::new(healthy.clone(), faults.clone());
    let memory = (
        lowered.check_memory(assignment),
        check_memory_with_faults(healthy, assignment, faults),
    );
    if memory.0 != memory.1 {
        return Some(format!(
            "check_memory: {:?} vs reference {:?}",
            memory.0, memory.1
        ));
    }
    let runs = seeds.iter().map(|&s| Some(s)).chain([None]);
    for seed in runs {
        let got = match seed {
            Some(s) => lowered.evaluate(assignment, s),
            None => lowered.evaluate_exact(assignment),
        };
        let got = got.map(|costs| bits(costs.devices()));
        let want = evaluate_with_faults(healthy, assignment, seed, faults).map(|d| bits(&d));
        if got != want {
            return Some(format!("seed {seed:?}: {got:?} vs reference {want:?}"));
        }
    }
    None
}

/// A fleet of `n` devices: uniform, two-tier or fully heterogeneous, with
/// budgets small enough that some placements overflow.
fn fleets() -> impl Strategy<Value = DevicePool> {
    let profile = (1u64..(1 << 24), 0.5f64..3.0, 0usize..3);
    (
        0u8..3,
        1usize..=3,
        1usize..=3,
        1u64..(1 << 24),
        1.0f64..3.0,
        0.05f64..=1.0,
        proptest::collection::vec(profile, 1..7),
    )
        .prop_map(
            |(kind, fast, slow, budget, class, inter, profiles)| match kind {
                0 => DevicePool::uniform(fast + slow, budget),
                1 => DevicePool::two_tier(fast, budget, slow, budget / 2 + 1, class, inter),
                _ => DevicePool::new(
                    profiles
                        .into_iter()
                        .map(|(budget, scale, node)| DeviceProfile::new(budget, scale, node))
                        .collect(),
                    inter,
                ),
            },
        )
}

/// Tables of at most a few MB each, replicated now and then.
fn tables() -> impl Strategy<Value = Vec<TableProfile>> {
    let table = (2u32..8, 6u32..14, 1.0f64..40.0, 0.6f64..1.6, 0u8..4);
    proptest::collection::vec(table, 0..12).prop_map(|tables| {
        tables
            .into_iter()
            .map(|(dim_pow, rows_pow, pooling, zipf, share)| {
                let t = TableProfile::new(1 << dim_pow, 1 << rows_pow, pooling, 0.3, zipf);
                if share == 0 {
                    t.with_comm_share(0.5)
                } else {
                    t
                }
            })
            .collect()
    })
}

/// `FaultPlan::sampled`, stacked with node-class slowdowns and node link
/// cuts (`sampled` never draws those).
fn faults_for(seed: u64, devices: usize, stacked: &[(usize, f64, f64)]) -> FaultPlan {
    let mut faults = FaultPlan::sampled(seed, devices);
    for &(node, slowdown, scale) in stacked {
        faults = faults
            .with_fault(Fault::SlowNodeClass { node, slowdown })
            .with_fault(Fault::NodeLinkDegradation {
                node,
                bandwidth_scale: scale,
            });
    }
    faults
}

proptest! {
    /// The lowered cluster answers every question exactly as the
    /// fault-threading evaluation does: every `DeviceCost` field by
    /// `to_bits`, every error (the `OutOfMemory` device and bytes, the
    /// `TransientFailure` device) by equality.
    #[test]
    fn the_lowered_cluster_is_the_fault_threading_reference_bit_for_bit(
        pool in fleets(),
        tables in tables(),
        deal in proptest::collection::vec(0usize..8, 1..12),
        fault_seed in 0u64..1_000_000,
        stacked in proptest::collection::vec((0usize..3, 1.0f64..4.0, 0.05f64..=1.0), 0..3),
        eval_seed in 0u64..1_000_000,
        datacenter: bool,
    ) {
        let spec = if datacenter { GpuSpec::datacenter() } else { GpuSpec::rtx_2080_ti() };
        let n = pool.len();
        let healthy = Cluster::new(spec, n, 4096).with_devices(pool);
        let mut assignment = vec![Vec::new(); n];
        for (t, d) in tables.iter().zip(deal.iter().cycle()) {
            assignment[d % n].push(*t);
        }
        let faults = faults_for(fault_seed, n, &stacked);
        let seeds = [eval_seed, eval_seed + 1, eval_seed + 2];
        let diff = differ(&healthy, &faults, &assignment, &seeds);
        prop_assert!(diff.is_none(), "{faults:?} on {assignment:?}: {}", diff.unwrap());
    }
}

/// Memory pressure can floor a budget to zero: a 1-byte device at half its
/// memory keeps `floor(0.5) = 0` bytes. The reference runs every
/// non-empty device out of memory, and so does the lowering — a zero
/// budget is a lowered number, never a `DeviceProfile` (whose constructor
/// panics on 0).
#[test]
fn memory_pressure_that_floors_a_budget_to_zero_matches_the_reference() {
    let pool = DevicePool::new(
        vec![
            DeviceProfile::new(1, 1.0, 0),
            DeviceProfile::new(1 << 30, 1.0, 1),
        ],
        0.5,
    );
    let healthy = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 4096).with_devices(pool);
    let faults = FaultPlan::new(3).with_fault(Fault::MemoryPressure {
        device: 0,
        usable_fraction: 0.5,
    });
    let t = TableProfile::new(8, 16, 4.0, 0.3, 1.0);
    let crowded = vec![vec![t], vec![t]];
    for assignment in [crowded.clone(), vec![vec![], vec![t]]] {
        assert_eq!(differ(&healthy, &faults, &assignment, &[0, 1, 2]), None);
    }
    let lowered = FaultyCluster::new(healthy, faults);
    assert_eq!(
        lowered.check_memory(&crowded),
        Err(SimError::OutOfMemory {
            device: 0,
            required_bytes: t.memory_bytes(),
            budget_bytes: 0,
        })
    );
}
