//! Deterministic fault injection for the ground-truth simulator.
//!
//! Real sharding systems do not run on the pristine clusters that cost
//! models are calibrated against: individual GPUs throttle (stragglers),
//! all-to-all links degrade, memory is shared with other jobs, and cost
//! measurements occasionally fail outright. This module injects those
//! conditions into [`Cluster`] evaluations in a fully seeded, reproducible
//! way so that the planner's degradation behaviour can be tested
//! bit-for-bit.
//!
//! A [`FaultPlan`] is a composable set of [`Fault`]s plus a seed:
//!
//! * [`Fault::Straggler`] — one device's kernels run `slowdown`× slower,
//! * [`Fault::DegradedLinks`] — the all-to-all bandwidth is cut to a
//!   fraction of its calibrated value,
//! * [`Fault::MemoryPressure`] — one device only has a fraction of its
//!   embedding-memory budget available,
//! * [`Fault::TransientFailures`] — measured evaluations fail with some
//!   probability (deterministic in the evaluation seed), modelling flaky
//!   profiling runs,
//! * [`Fault::SlowNodeClass`] / [`Fault::NodeLinkDegradation`] — every
//!   device of one training-cluster node computes slower, or sits behind
//!   slower links.
//!
//! A fault plan lowers onto the cluster once: [`FaultyCluster::new`]
//! multiplies each fault into the per-device inputs the [`Cluster`]
//! already evaluates from (kernel-time scale, bandwidth scale, memory
//! budget) and into the spec's bandwidth, so a faulted fleet is priced by
//! the same one evaluation path as a healthy one. The seeded transient
//! failure is the one fault that is not a fleet edit; it stays a check
//! between the memory check and the measurement.
//!
//! # Example
//!
//! ```
//! use nshard_sim::{Cluster, Fault, FaultPlan, FaultyCluster, GpuSpec, TableProfile};
//!
//! let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536);
//! let faults = FaultPlan::new(7)
//!     .with_fault(Fault::Straggler { device: 0, slowdown: 2.0 })
//!     .with_fault(Fault::DegradedLinks { bandwidth_scale: 0.5 });
//! let faulty = FaultyCluster::new(cluster.clone(), faults);
//!
//! let t = |d| TableProfile::new(d, 1 << 20, 12.0, 0.3, 1.0);
//! let plan = vec![vec![t(64)], vec![t(64)]];
//! let clean = cluster.evaluate_exact(&plan)?;
//! let degraded = faulty.evaluate_exact(&plan)?;
//! assert!(degraded.max_total_ms() > clean.max_total_ms());
//! # Ok::<(), nshard_sim::SimError>(())
//! ```

use crate::cluster::{Cluster, PlanCosts};
use crate::comm::CommParams;
use crate::device::GpuSpec;
use crate::error::SimError;
use crate::noise::splitmix64;
use crate::profile::TableProfile;

/// One injected fault condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Device `device` computes `slowdown`× slower than the spec
    /// (thermal throttling, a co-located job, a failing board).
    Straggler {
        /// Index of the slow device.
        device: usize,
        /// Kernel-time multiplier, `>= 1.0`.
        slowdown: f64,
    },
    /// The all-to-all fabric delivers only `bandwidth_scale` of its
    /// calibrated bandwidth (congestion from another tenant, a downgraded
    /// link).
    DegradedLinks {
        /// Multiplier on the calibrated bandwidth, in `(0, 1]`.
        bandwidth_scale: f64,
    },
    /// Device `device` only has `usable_fraction` of its embedding-memory
    /// budget available (fragmentation, memory shared with other model
    /// parts).
    MemoryPressure {
        /// Index of the constrained device.
        device: usize,
        /// Fraction of the budget still usable, in `(0, 1]`.
        usable_fraction: f64,
    },
    /// Each measured evaluation fails with probability `rate`
    /// (deterministically in the evaluation seed), surfacing as
    /// [`SimError::TransientFailure`].
    TransientFailures {
        /// Per-evaluation failure probability, in `[0, 1)`.
        rate: f64,
    },
    /// Every device in **training-cluster node** `node` computes
    /// `slowdown`× slower (a whole host throttling: shared power cap,
    /// firmware regression, a bad rack). Which devices sit in which node
    /// comes from the cluster's [`crate::DevicePool`]; on the uniform
    /// pool of [`crate::Cluster::new`] every device is node 0.
    SlowNodeClass {
        /// Index of the slow training-cluster node.
        node: usize,
        /// Kernel-time multiplier for every device of the node, `>= 1.0`.
        slowdown: f64,
    },
    /// The links of **training-cluster node** `node` to the rest of the
    /// fabric degrade to `bandwidth_scale` of their calibrated bandwidth —
    /// an *asymmetric* cut: only devices in that node see it, unlike
    /// [`Fault::DegradedLinks`] which slows the whole collective.
    NodeLinkDegradation {
        /// Index of the training-cluster node behind the bad links.
        node: usize,
        /// Multiplier on the node's link bandwidth, in `(0, 1]`.
        bandwidth_scale: f64,
    },
}

/// A seeded, composable set of injected faults.
///
/// The seed only drives *stochastic* faults (transient failures); the
/// deterministic faults (stragglers, link degradation, memory pressure)
/// apply identically to every evaluation. An empty plan behaves exactly
/// like no fault layer at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Creates an empty fault plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the fault's parameters are out of range: straggler
    /// `slowdown < 1.0`, `bandwidth_scale`/`usable_fraction` outside
    /// `(0, 1]`, transient `rate` outside `[0, 1)`, or any parameter
    /// non-finite.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        match &fault {
            Fault::Straggler { slowdown, .. } => {
                assert!(
                    slowdown.is_finite() && *slowdown >= 1.0,
                    "straggler slowdown must be finite and >= 1.0, got {slowdown}"
                );
            }
            Fault::DegradedLinks { bandwidth_scale } => {
                assert!(
                    bandwidth_scale.is_finite()
                        && *bandwidth_scale > 0.0
                        && *bandwidth_scale <= 1.0,
                    "bandwidth scale must be in (0, 1], got {bandwidth_scale}"
                );
            }
            Fault::MemoryPressure {
                usable_fraction, ..
            } => {
                assert!(
                    usable_fraction.is_finite()
                        && *usable_fraction > 0.0
                        && *usable_fraction <= 1.0,
                    "usable memory fraction must be in (0, 1], got {usable_fraction}"
                );
            }
            Fault::TransientFailures { rate } => {
                assert!(
                    rate.is_finite() && (0.0..1.0).contains(rate),
                    "transient failure rate must be in [0, 1), got {rate}"
                );
            }
            Fault::SlowNodeClass { slowdown, .. } => {
                assert!(
                    slowdown.is_finite() && *slowdown >= 1.0,
                    "node-class slowdown must be finite and >= 1.0, got {slowdown}"
                );
            }
            Fault::NodeLinkDegradation {
                bandwidth_scale, ..
            } => {
                assert!(
                    bandwidth_scale.is_finite()
                        && *bandwidth_scale > 0.0
                        && *bandwidth_scale <= 1.0,
                    "node link bandwidth scale must be in (0, 1], got {bandwidth_scale}"
                );
            }
        }
        self.faults.push(fault);
        self
    }

    /// The injected faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` when no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The product of `factor` over the faults it matches, in insertion
    /// order (`1.0` when none does).
    fn product(&self, factor: impl Fn(&Fault) -> Option<f64>) -> f64 {
        self.faults.iter().filter_map(factor).product()
    }

    /// Effective memory budget of `device` given a nominal `budget_bytes`
    /// (product of all matching memory-pressure fractions).
    pub fn effective_budget_bytes(&self, device: usize, budget_bytes: u64) -> u64 {
        let fraction = self.product(|f| match *f {
            Fault::MemoryPressure {
                device: d,
                usable_fraction,
            } if d == device => Some(usable_fraction),
            _ => None,
        });
        if fraction == 1.0 {
            return budget_bytes; // exact past 2^53, where `as f64` rounds
        }
        (budget_bytes as f64 * fraction).floor() as u64
    }

    /// Decides (deterministically in `eval_seed`) whether a measured
    /// evaluation fails transiently, and if so on which device the failure
    /// is attributed. Returns `None` when the evaluation proceeds.
    pub(crate) fn transient_failure(&self, eval_seed: u64, num_devices: usize) -> Option<usize> {
        let survive = self.product(|f| match *f {
            Fault::TransientFailures { rate } => Some(1.0 - rate),
            _ => None,
        });
        let rate = 1.0 - survive;
        if rate <= 0.0 || num_devices == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ eval_seed.rotate_left(17) ^ 0xFA17_FA17_FA17_FA17);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < rate {
            Some((splitmix64(h) % num_devices as u64) as usize)
        } else {
            None
        }
    }

    /// Samples a random fault scenario for chaos testing: up to two
    /// stragglers, an optional link degradation, optional memory pressure
    /// and an optional transient failure rate, all drawn deterministically
    /// from `seed`.
    pub fn sampled(seed: u64, num_devices: usize) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        assert!(
            num_devices > 0,
            "a fault scenario needs at least one device"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let mut plan = Self::new(seed);
        for _ in 0..rng.random_range(0..=2u32) {
            plan = plan.with_fault(Fault::Straggler {
                device: rng.random_range(0..num_devices),
                slowdown: rng.random_range(1.2..4.0),
            });
        }
        if rng.random_bool(0.5) {
            plan = plan.with_fault(Fault::DegradedLinks {
                bandwidth_scale: rng.random_range(0.3..1.0),
            });
        }
        if rng.random_bool(0.5) {
            plan = plan.with_fault(Fault::MemoryPressure {
                device: rng.random_range(0..num_devices),
                usable_fraction: rng.random_range(0.5..1.0),
            });
        }
        if rng.random_bool(0.4) {
            plan = plan.with_fault(Fault::TransientFailures {
                rate: rng.random_range(0.05..0.35),
            });
        }
        plan
    }
}

/// A [`Cluster`] with a [`FaultPlan`] lowered onto it: same API, degraded
/// behaviour. See the [module documentation](self) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyCluster {
    cluster: Cluster,
    faults: FaultPlan,
}

impl FaultyCluster {
    /// Lowers `faults` onto `cluster`: each device's kernel-time scale
    /// becomes `straggler × class × node slowdown`, its bandwidth scale
    /// `fleet scale × node link scale`, its budget
    /// [`FaultPlan::effective_budget_bytes`] of its own, and the spec's
    /// bandwidth `base × link degradation`.
    pub fn new(mut cluster: Cluster, faults: FaultPlan) -> Self {
        for g in 0..cluster.num_devices() {
            let node = cluster.devices().node_of(g);
            let straggler = faults.product(|f| match *f {
                Fault::Straggler { device, slowdown } if device == g => Some(slowdown),
                _ => None,
            });
            let slow_node = faults.product(|f| match *f {
                Fault::SlowNodeClass { node: n, slowdown } if n == node => Some(slowdown),
                _ => None,
            });
            let link = faults.product(|f| match *f {
                Fault::NodeLinkDegradation {
                    node: n,
                    bandwidth_scale,
                } if n == node => Some(bandwidth_scale),
                _ => None,
            });
            // Each product's operand order is part of the ground truth's
            // bits (`sim::reference` holds it); a healthy factor is 1.0.
            cluster.compute_scales[g] = straggler * cluster.compute_scales[g] * slow_node;
            cluster.bw_scales[g] *= link;
            cluster.budgets[g] = faults.effective_budget_bytes(g, cluster.budgets[g]);
        }
        let scale = faults.product(|f| match *f {
            Fault::DegradedLinks { bandwidth_scale } => Some(bandwidth_scale),
            _ => None,
        });
        let (kernel, comm) = (*cluster.spec.kernel(), *cluster.spec.comm());
        let comm = CommParams {
            base_bw_gbps: comm.base_bw_gbps * scale,
            ..comm
        };
        cluster.spec = GpuSpec::new(kernel, comm, cluster.spec.mem_budget_bytes());
        Self { cluster, faults }
    }

    /// Validates `assignment` against the *effective* per-device budgets.
    ///
    /// # Errors
    ///
    /// See [`Cluster::check_memory`]; budgets reflect memory pressure.
    pub fn check_memory(&self, assignment: &[Vec<TableProfile>]) -> Result<(), SimError> {
        self.cluster.check_memory(assignment)
    }

    /// Accepts or rejects `assignment` on verification attempt `attempt`
    /// (0-based) exactly as [`FaultyCluster::evaluate`] would at seed
    /// `plan seed + attempt × 0x9E37_79B9_7F4A_7C15` (wrapping), without
    /// measuring: the memory check, then the seeded transient check.
    ///
    /// # Errors
    ///
    /// See [`FaultyCluster::evaluate`].
    pub fn verify(&self, assignment: &[Vec<TableProfile>], attempt: u32) -> Result<(), SimError> {
        let step = u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.admit(assignment, self.faults.seed.wrapping_add(step))
    }

    /// The two checks [`FaultyCluster::evaluate`] runs before it measures.
    fn admit(&self, assignment: &[Vec<TableProfile>], seed: u64) -> Result<(), SimError> {
        self.cluster.check_memory(assignment)?;
        match self
            .faults
            .transient_failure(seed, self.cluster.num_devices())
        {
            Some(device) => Err(SimError::TransientFailure {
                device,
                reason: "injected measurement fault".into(),
            }),
            None => Ok(()),
        }
    }

    /// Evaluates a plan with measurement noise under the injected faults.
    ///
    /// # Errors
    ///
    /// See [`Cluster::check_memory`], plus [`SimError::TransientFailure`]
    /// when a [`Fault::TransientFailures`] fires for this `seed`.
    pub fn evaluate(
        &self,
        assignment: &[Vec<TableProfile>],
        seed: u64,
    ) -> Result<PlanCosts, SimError> {
        self.admit(assignment, seed)?;
        self.cluster.evaluate(assignment, seed)
    }

    /// Evaluates a plan with the exact analytic law under the injected
    /// faults (transient failures never fire: they model *measurement*
    /// flakiness).
    ///
    /// # Errors
    ///
    /// See [`Cluster::check_memory`].
    pub fn evaluate_exact(&self, assignment: &[Vec<TableProfile>]) -> Result<PlanCosts, SimError> {
        self.cluster.evaluate_exact(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuSpec;

    fn t(dim: u32) -> TableProfile {
        TableProfile::new(dim, 1 << 20, 12.0, 0.3, 1.05)
    }

    fn faulty(faults: FaultPlan) -> FaultyCluster {
        FaultyCluster::new(Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536), faults)
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let plan = vec![vec![t(64)], vec![t(32)]];
        let clean = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536);
        let f = faulty(FaultPlan::new(0));
        assert_eq!(clean.evaluate_exact(&plan), f.evaluate_exact(&plan));
        assert_eq!(
            clean.evaluate(&plan, 3).unwrap(),
            f.evaluate(&plan, 3).unwrap()
        );
    }

    #[test]
    fn straggler_slows_its_device_and_raises_total() {
        let plan = vec![vec![t(64)], vec![t(64)]];
        let clean = faulty(FaultPlan::new(0)).evaluate_exact(&plan).unwrap();
        let slow = faulty(FaultPlan::new(0).with_fault(Fault::Straggler {
            device: 0,
            slowdown: 3.0,
        }))
        .evaluate_exact(&plan)
        .unwrap();
        assert!(slow.devices()[0].compute_fwd_ms > clean.devices()[0].compute_fwd_ms * 2.5);
        // Device 1 keeps its compute but waits longer in the collective.
        assert!(
            (slow.devices()[1].compute_fwd_ms - clean.devices()[1].compute_fwd_ms).abs() < 1e-12
        );
        assert!(slow.devices()[1].comm_fwd_ms > clean.devices()[1].comm_fwd_ms);
        assert!(slow.max_total_ms() > clean.max_total_ms());
    }

    #[test]
    fn degraded_links_raise_comm_costs_only() {
        let plan = vec![vec![t(64)], vec![t(64)]];
        let clean = faulty(FaultPlan::new(0)).evaluate_exact(&plan).unwrap();
        let cut = faulty(FaultPlan::new(0).with_fault(Fault::DegradedLinks {
            bandwidth_scale: 0.25,
        }))
        .evaluate_exact(&plan)
        .unwrap();
        for (c, k) in cut.devices().iter().zip(clean.devices()) {
            assert!((c.compute_fwd_ms - k.compute_fwd_ms).abs() < 1e-12);
            assert!(c.comm_fwd_ms > k.comm_fwd_ms);
            assert!(c.comm_bwd_ms > k.comm_bwd_ms);
        }
    }

    #[test]
    fn memory_pressure_shrinks_one_budget() {
        let f = faulty(FaultPlan::new(0).with_fault(Fault::MemoryPressure {
            device: 1,
            usable_fraction: 0.01,
        }));
        let budgets = &f.cluster.budgets;
        assert_eq!(budgets[0], GpuSpec::rtx_2080_ti().mem_budget_bytes());
        assert!(budgets[1] < budgets[0] / 50);
        // A plan that fits the healthy budget overflows the squeezed device.
        let plan = vec![vec![t(64)], vec![t(64)]];
        assert!(faulty(FaultPlan::new(0)).check_memory(&plan).is_ok());
        match f.check_memory(&plan) {
            Err(SimError::OutOfMemory { device, .. }) => assert_eq!(device, 1),
            other => panic!("expected OutOfMemory on device 1, got {other:?}"),
        }
    }

    #[test]
    fn transient_failures_fire_deterministically_per_seed() {
        let faults = FaultPlan::new(11).with_fault(Fault::TransientFailures { rate: 0.5 });
        let f = faulty(faults.clone());
        let plan = vec![vec![t(64)], vec![t(32)]];
        let outcomes: Vec<bool> = (0..64).map(|s| f.evaluate(&plan, s).is_err()).collect();
        let again: Vec<bool> = (0..64).map(|s| f.evaluate(&plan, s).is_err()).collect();
        assert_eq!(outcomes, again);
        let failures = outcomes.iter().filter(|&&x| x).count();
        assert!(
            (10..55).contains(&failures),
            "rate 0.5 should fail roughly half of 64 evals, failed {failures}"
        );
        // Exact evaluation never fails transiently.
        assert!(f.evaluate_exact(&plan).is_ok());
        // The error is typed with device attribution.
        let seed = (0..64)
            .position(|s| f.evaluate(&plan, s as u64).is_err())
            .unwrap() as u64;
        match f.evaluate(&plan, seed) {
            Err(SimError::TransientFailure { device, .. }) => assert!(device < 2),
            other => panic!("expected TransientFailure, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// `verify` is `evaluate`'s accept/reject decision at the chain's
        /// attempt seed: the same `Ok`/`Err`, the same `OutOfMemory`
        /// device and bytes, the same `TransientFailure` device. A
        /// transient rate of its own on top of `sampled`'s makes the
        /// transient check decide about half the plans that fit.
        #[test]
        fn verify_decides_as_evaluate_does(
            pool in crate::reference::fleets(),
            tables in crate::reference::tables(),
            deal in proptest::collection::vec(0usize..8, 1..12),
            fault_seed in 0u64..1_000_000,
            stacked in proptest::collection::vec((0usize..3, 1.0f64..4.0, 0.05f64..=1.0), 0..3),
            rate in 0.0f64..0.9,
            attempt in 0u32..6,
        ) {
            let n = pool.len();
            let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), n, 4096).with_devices(pool);
            let mut assignment = vec![Vec::new(); n];
            for (t, d) in tables.iter().zip(deal.iter().cycle()) {
                assignment[d % n].push(*t);
            }
            let faults = crate::reference::faults_for(fault_seed, n, &stacked)
                .with_fault(Fault::TransientFailures { rate });
            let faulty = FaultyCluster::new(cluster, faults);
            let step = u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            proptest::prop_assert_eq!(
                faulty.verify(&assignment, attempt),
                faulty.evaluate(&assignment, fault_seed.wrapping_add(step)).map(|_| ())
            );
        }
    }

    #[test]
    fn faults_compose() {
        let faults = FaultPlan::new(5)
            .with_fault(Fault::Straggler {
                device: 0,
                slowdown: 2.0,
            })
            .with_fault(Fault::Straggler {
                device: 0,
                slowdown: 1.5,
            })
            .with_fault(Fault::DegradedLinks {
                bandwidth_scale: 0.5,
            })
            .with_fault(Fault::DegradedLinks {
                bandwidth_scale: 0.5,
            });
        let lowered = faulty(faults).cluster;
        assert_eq!(lowered.compute_scales, vec![3.0, 1.0]);
        let base = GpuSpec::rtx_2080_ti().comm().base_bw_gbps;
        assert_eq!(lowered.spec.comm().base_bw_gbps, base * 0.25);
    }

    #[test]
    fn sampled_scenarios_are_deterministic_and_valid() {
        for seed in 0..50 {
            let a = FaultPlan::sampled(seed, 4);
            let b = FaultPlan::sampled(seed, 4);
            assert_eq!(a, b);
            for fault in a.faults() {
                match fault {
                    Fault::Straggler { device, slowdown } => {
                        assert!(*device < 4 && *slowdown >= 1.0);
                    }
                    Fault::DegradedLinks { bandwidth_scale } => {
                        assert!(*bandwidth_scale > 0.0 && *bandwidth_scale <= 1.0);
                    }
                    Fault::MemoryPressure {
                        device,
                        usable_fraction,
                    } => {
                        assert!(*device < 4 && *usable_fraction > 0.0 && *usable_fraction <= 1.0);
                    }
                    Fault::TransientFailures { rate } => {
                        assert!((0.0..1.0).contains(rate));
                    }
                    Fault::SlowNodeClass { node, .. } => {
                        panic!("sampled() never draws node-class faults, got SlowNodeClass {node}")
                    }
                    Fault::NodeLinkDegradation { node, .. } => panic!(
                        "sampled() never draws node-class faults, got NodeLinkDegradation {node}"
                    ),
                }
            }
        }
    }

    #[test]
    fn slow_node_class_slows_every_device_of_that_node() {
        use crate::devices::DevicePool;
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        // Four otherwise-identical devices split across two nodes on a flat
        // network; the fault hits node 1 (devices 2 and 3) only.
        let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 4, 65_536)
            .with_devices(DevicePool::two_tier(2, budget, 2, budget, 1.0, 1.0));
        let plan = vec![vec![t(64)], vec![t(64)], vec![t(64)], vec![t(64)]];
        let clean = cluster.evaluate_exact(&plan).unwrap();
        let slow = FaultyCluster::new(
            cluster,
            FaultPlan::new(0).with_fault(Fault::SlowNodeClass {
                node: 1,
                slowdown: 2.0,
            }),
        )
        .evaluate_exact(&plan)
        .unwrap();
        for g in 0..2 {
            assert_eq!(
                slow.devices()[g].compute_fwd_ms.to_bits(),
                clean.devices()[g].compute_fwd_ms.to_bits(),
                "node-0 device {g} must keep its kernel time bit-for-bit"
            );
        }
        for g in 2..4 {
            assert!(
                (slow.devices()[g].compute_fwd_ms - 2.0 * clean.devices()[g].compute_fwd_ms).abs()
                    < 1e-12,
                "node-1 device {g} must run exactly 2x slower"
            );
        }
        assert!(slow.max_total_ms() > clean.max_total_ms());
    }

    #[test]
    fn node_link_degradation_is_asymmetric() {
        use crate::devices::DevicePool;
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 4, 65_536)
            .with_devices(DevicePool::two_tier(2, budget, 2, budget, 1.0, 1.0));
        let plan = vec![vec![t(64)], vec![t(64)], vec![t(64)], vec![t(64)]];
        let clean = cluster.evaluate_exact(&plan).unwrap();
        let faults = FaultPlan::new(0).with_fault(Fault::NodeLinkDegradation {
            node: 1,
            bandwidth_scale: 0.25,
        });
        let cut = FaultyCluster::new(cluster, faults);
        assert_eq!(cut.cluster.bw_scales, vec![1.0, 1.0, 0.25, 0.25]);
        let cut = cut.evaluate_exact(&plan).unwrap();
        // Compute untouched everywhere; node-1 devices move their bytes on
        // a 4x slower link, so their own transfers dominate the collective
        // and every participant's comm rises (the straggler gates the
        // all-to-all).
        for (c, k) in cut.devices().iter().zip(clean.devices()) {
            assert!((c.compute_fwd_ms - k.compute_fwd_ms).abs() < 1e-12);
            assert!(c.comm_fwd_ms >= k.comm_fwd_ms);
        }
        assert!(cut.max_total_ms() > clean.max_total_ms());
    }

    #[test]
    fn node_faults_on_poolless_cluster_hit_node_zero() {
        // Without a DevicePool every device sits in node 0, so a node-0
        // link fault degrades the whole collective and a node-1 fault is
        // inert.
        let plan = vec![vec![t(64)], vec![t(32)]];
        let clean = faulty(FaultPlan::new(0)).evaluate_exact(&plan).unwrap();
        let hit = faulty(FaultPlan::new(0).with_fault(Fault::NodeLinkDegradation {
            node: 0,
            bandwidth_scale: 0.5,
        }))
        .evaluate_exact(&plan)
        .unwrap();
        assert!(hit.max_total_ms() > clean.max_total_ms());
        let inert = faulty(FaultPlan::new(0).with_fault(Fault::SlowNodeClass {
            node: 1,
            slowdown: 3.0,
        }))
        .evaluate_exact(&plan)
        .unwrap();
        assert_eq!(inert, clean);
    }

    #[test]
    fn node_faults_compose_multiplicatively() {
        let faults = FaultPlan::new(0)
            .with_fault(Fault::SlowNodeClass {
                node: 0,
                slowdown: 2.0,
            })
            .with_fault(Fault::SlowNodeClass {
                node: 0,
                slowdown: 1.5,
            })
            .with_fault(Fault::NodeLinkDegradation {
                node: 1,
                bandwidth_scale: 0.5,
            })
            .with_fault(Fault::NodeLinkDegradation {
                node: 1,
                bandwidth_scale: 0.5,
            });
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536).with_devices(
            crate::devices::DevicePool::two_tier(1, budget, 1, budget, 1.0, 1.0),
        );
        let lowered = FaultyCluster::new(cluster, faults).cluster;
        assert_eq!(lowered.compute_scales, vec![3.0, 1.0]);
        assert_eq!(lowered.bw_scales, vec![1.0, 0.25]);
    }

    #[test]
    fn an_unpressured_budget_past_2_pow_53_keeps_every_byte() {
        let budget = (1u64 << 53) + 1;
        let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536)
            .with_devices(crate::devices::DevicePool::uniform(2, budget));
        let slow = FaultPlan::new(0).with_fault(Fault::Straggler {
            device: 0,
            slowdown: 2.0,
        });
        assert_eq!(
            FaultyCluster::new(cluster, slow).cluster.budgets,
            vec![budget; 2]
        );
    }

    #[test]
    fn heterogeneous_budgets_survive_memory_pressure() {
        use crate::devices::DevicePool;
        let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536)
            .with_devices(DevicePool::two_tier(1, 4 << 30, 1, 1 << 30, 1.0, 1.0));
        let f = FaultyCluster::new(
            cluster,
            FaultPlan::new(0).with_fault(Fault::MemoryPressure {
                device: 1,
                usable_fraction: 0.5,
            }),
        );
        assert_eq!(f.cluster.budgets, vec![4 << 30, 512 << 20]);
    }

    #[test]
    #[should_panic(expected = "node-class slowdown must be finite and >= 1.0")]
    fn invalid_node_slowdown_rejected() {
        let _ = FaultPlan::new(0).with_fault(Fault::SlowNodeClass {
            node: 0,
            slowdown: 0.9,
        });
    }

    #[test]
    #[should_panic(expected = "node link bandwidth scale must be in (0, 1]")]
    fn invalid_node_link_scale_rejected() {
        let _ = FaultPlan::new(0).with_fault(Fault::NodeLinkDegradation {
            node: 0,
            bandwidth_scale: 1.5,
        });
    }

    #[test]
    #[should_panic(expected = "slowdown must be finite and >= 1.0")]
    fn invalid_straggler_rejected() {
        let _ = FaultPlan::new(0).with_fault(Fault::Straggler {
            device: 0,
            slowdown: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "bandwidth scale must be in (0, 1]")]
    fn invalid_bandwidth_rejected() {
        let _ = FaultPlan::new(0).with_fault(Fault::DegradedLinks {
            bandwidth_scale: 0.0,
        });
    }
}
