//! Multi-GPU cluster: end-to-end evaluation of a sharding plan.
//!
//! Implements the paper's evaluation protocol (§4, "Evaluation protocol"):
//! run the embedding computation and communication for a placement and
//! report the per-device embedding cost — forward computation, forward
//! all-to-all, backward all-to-all and backward computation — taking the
//! **max across devices** as the plan's cost, since the slowest device is
//! the bottleneck of synchronous training.
//!
//! Evaluation never branches on the fleet's shape: every evaluation runs
//! the one kernel law and the one all-to-all law on the per-device memory
//! budgets, kernel-time multipliers and bandwidth scales its [`DevicePool`]
//! was lowered to when it was built (`Cluster::phase_inputs`). Every factor
//! is exactly `1.0` on a uniform fleet.

use serde::{Deserialize, Serialize};

use crate::comm::CommDirection;
use crate::device::GpuSpec;
use crate::devices::DevicePool;
use crate::error::SimError;
use crate::kernel::profile_stream;
use crate::noise::NoiseModel;
use crate::profile::TableProfile;

/// Number of repeated measurements used for the median, mirroring the
/// paper's 100-run protocol (kept smaller here because the median of our
/// noise model converges quickly).
const MEASURE_REPEATS: u32 = 21;

/// The embedding cost breakdown of one GPU for one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeviceCost {
    /// Forward embedding lookup (fused kernel), ms.
    pub compute_fwd_ms: f64,
    /// Backward embedding update (fused kernel), ms.
    pub compute_bwd_ms: f64,
    /// Forward all-to-all, ms (as observed locally, including waits).
    pub comm_fwd_ms: f64,
    /// Backward all-to-all, ms.
    pub comm_bwd_ms: f64,
}

impl DeviceCost {
    /// Total embedding cost of this device, ms.
    pub fn total_ms(&self) -> f64 {
        self.compute_fwd_ms + self.compute_bwd_ms + self.comm_fwd_ms + self.comm_bwd_ms
    }

    /// Total computation (forward + backward kernels), ms.
    pub fn compute_ms(&self) -> f64 {
        self.compute_fwd_ms + self.compute_bwd_ms
    }

    /// Total communication (forward + backward all-to-all), ms.
    pub fn comm_ms(&self) -> f64 {
        self.comm_fwd_ms + self.comm_bwd_ms
    }
}

/// The evaluated cost of a full sharding plan.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlanCosts {
    devices: Vec<DeviceCost>,
}

impl PlanCosts {
    /// Per-device cost breakdowns.
    pub fn devices(&self) -> &[DeviceCost] {
        &self.devices
    }

    /// The plan's embedding cost: max total across devices (the metric of
    /// Table 1 and Table 4).
    pub fn max_total_ms(&self) -> f64 {
        self.devices
            .iter()
            .map(DeviceCost::total_ms)
            .fold(0.0, f64::max)
    }

    /// Balance ratio in `(0, 1]`: min device total / max device total.
    /// 1.0 means perfectly balanced.
    pub fn balance(&self) -> f64 {
        let max = self.max_total_ms();
        if max == 0.0 {
            return 1.0;
        }
        let min = self
            .devices
            .iter()
            .map(DeviceCost::total_ms)
            .fold(f64::INFINITY, f64::min);
        min / max
    }
}

/// A cluster of `D` GPUs evaluating embedding sharding plans.
///
/// This is the reproduction's stand-in for the paper's eight-GPU 2080 Ti
/// server (and, with [`GpuSpec::datacenter`], the 128-GPU production
/// cluster). The fleet — per-device memory budgets, compute classes and
/// the two-tier network — is always a [`DevicePool`]; [`Cluster::new`]
/// builds the uniform one, [`Cluster::with_devices`] swaps in another.
///
/// # Example
///
/// ```
/// use nshard_sim::{Cluster, GpuSpec, TableProfile};
///
/// let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 4, 65_536);
/// let t = |d| TableProfile::new(d, 1 << 20, 12.0, 0.3, 1.0);
/// let plan = vec![vec![t(64)], vec![t(64)], vec![t(32), t(32)], vec![t(128)]];
/// let costs = cluster.evaluate(&plan, 42)?;
/// assert!(costs.max_total_ms() > 0.0);
/// # Ok::<(), nshard_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    spec: GpuSpec,
    batch_size: u32,
    noise: NoiseModel,
    devices: DevicePool,
}

impl Cluster {
    /// Creates a cluster of `num_devices` identical GPUs — each with the
    /// spec's memory budget, baseline compute, one node — with ~2% default
    /// measurement noise.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0` or the spec's memory budget is zero.
    pub fn new(spec: GpuSpec, num_devices: usize, batch_size: u32) -> Self {
        assert!(num_devices > 0, "a cluster needs at least one device");
        Self {
            spec,
            batch_size,
            noise: NoiseModel::default(),
            devices: DevicePool::uniform(num_devices, spec.mem_budget_bytes()),
        }
    }

    /// Replaces the measurement-noise model (builder-style).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the fleet description (builder-style): the pool's
    /// per-device memory budgets stand in for the spec's budget, kernel
    /// times scale by each device's compute multiplier, and the two-tier
    /// network enlarges the dimensions the all-to-all moves.
    ///
    /// # Panics
    ///
    /// Panics when the pool's size differs from the cluster's device count.
    pub fn with_devices(mut self, pool: DevicePool) -> Self {
        assert_eq!(
            pool.len(),
            self.num_devices(),
            "device pool size must match the cluster's device count"
        );
        self.devices = pool;
        self
    }

    /// The fleet description.
    pub fn devices(&self) -> &DevicePool {
        &self.devices
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Number of GPUs.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Training batch size.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Validates that `assignment` fits this cluster's memory budgets.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidPlan`] if the assignment has the wrong number of
    /// devices; [`SimError::OutOfMemory`] for the first device whose tables
    /// exceed the budget.
    pub fn check_memory(&self, assignment: &[Vec<TableProfile>]) -> Result<(), SimError> {
        if assignment.len() != self.num_devices() {
            return Err(SimError::InvalidPlan {
                reason: format!(
                    "plan assigns {} devices but cluster has {}",
                    assignment.len(),
                    self.num_devices()
                ),
            });
        }
        for (g, (tables, &budget)) in assignment.iter().zip(self.devices.budgets()).enumerate() {
            let required: u64 = tables.iter().map(TableProfile::memory_bytes).sum();
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

    /// Evaluates a sharding plan with measurement noise (median of repeated
    /// runs), the way the paper collects "real" costs from GPUs.
    ///
    /// The forward all-to-all of each GPU starts when its forward kernel
    /// finishes, so computation imbalance turns into communication waits —
    /// the accumulation effect of Figure 1.
    ///
    /// # Errors
    ///
    /// See [`Cluster::check_memory`].
    pub fn evaluate(
        &self,
        assignment: &[Vec<TableProfile>],
        seed: u64,
    ) -> Result<PlanCosts, SimError> {
        self.measure(assignment, Some(seed))
    }

    /// Evaluates a plan with the exact analytic law (no measurement noise).
    ///
    /// # Errors
    ///
    /// See [`Cluster::check_memory`].
    pub fn evaluate_exact(&self, assignment: &[Vec<TableProfile>]) -> Result<PlanCosts, SimError> {
        self.measure(assignment, None)
    }

    /// The exact per-device inputs of one iteration's four phases, before
    /// any measurement noise: what the fleet makes of `assignment`.
    /// [`Cluster`] evaluation and the [`crate::TraceSimulator`] both start
    /// here, so a fleet is never priced one way and traced another.
    pub(crate) fn phase_inputs(&self, assignment: &[Vec<TableProfile>]) -> PhaseInputs {
        let kernel = self.spec.kernel();
        let mut fwd_ms = Vec::with_capacity(assignment.len());
        let mut bwd_ms = Vec::with_capacity(assignment.len());
        for (g, tables) in assignment.iter().enumerate() {
            // `x * 1.0` is a bitwise identity, so a healthy uniform
            // device keeps its kernel time.
            let scale = self.devices.compute_scales()[g];
            let (fwd, bwd) = kernel.fused_ms(tables, self.batch_size);
            fwd_ms.push(fwd * scale);
            bwd_ms.push(bwd * scale);
        }
        PhaseInputs {
            fwd_ms,
            bwd_ms,
            dims: self.devices.lowered_dims(assignment),
        }
    }

    /// The one evaluation path: `seed: None` is the exact analytic law.
    fn measure(
        &self,
        assignment: &[Vec<TableProfile>],
        seed: Option<u64>,
    ) -> Result<PlanCosts, SimError> {
        self.check_memory(assignment)?;
        let noise = match seed {
            Some(s) => NoiseModel::new(s ^ self.noise.seed(), self.noise.sigma()),
            None => NoiseModel::disabled(),
        };

        let PhaseInputs {
            fwd_ms,
            bwd_ms,
            dims,
        } = self.phase_inputs(assignment);
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

        // Forward comm starts when each device's forward kernel completes;
        // backward comm starts synchronously (the dense backward between
        // the two collectives is data-parallel and identical across
        // devices).
        let measure = |direction, starts: &[f64]| {
            let (comm, batch) = (self.spec.comm(), self.batch_size);
            comm.measure_costs_ms(direction, &dims, starts, batch, &noise, MEASURE_REPEATS)
        };
        let comm_fwd = measure(CommDirection::Forward, &fwd_compute);
        let comm_bwd = measure(CommDirection::Backward, &vec![0.0; dims.len()]);

        let devices = (0..self.num_devices())
            .map(|g| DeviceCost {
                compute_fwd_ms: fwd_compute[g],
                compute_bwd_ms: bwd_compute[g],
                comm_fwd_ms: comm_fwd[g],
                comm_bwd_ms: comm_bwd[g],
            })
            .collect();
        Ok(PlanCosts { devices })
    }
}

/// One placement's exact per-device phase inputs on one fleet (see
/// [`Cluster::phase_inputs`]).
pub(crate) struct PhaseInputs {
    /// Forward kernel time × the device's lowered compute scale, ms.
    pub fwd_ms: Vec<f64>,
    /// Backward kernel time, scaled the same way, ms.
    pub bwd_ms: Vec<f64>,
    /// Communication dimensions lowered onto the flat all-to-all law
    /// (over the device's lowered bandwidth scale).
    pub dims: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::DeviceProfile;
    use proptest::prelude::*;

    fn t(dim: u32) -> TableProfile {
        TableProfile::new(dim, 1 << 20, 12.0, 0.3, 1.05)
    }

    fn cluster(d: usize) -> Cluster {
        Cluster::new(GpuSpec::rtx_2080_ti(), d, 65_536)
    }

    /// Ground truth draws each collective once, from its own streams: the
    /// forward all-to-all at the forward kernels' measured ends, the
    /// backward one at zero, GPU `g` from stream `g` of the placement with
    /// the backward's top bit flipped — the draws of the one call that once
    /// measured both directions and kept one of each.
    #[test]
    fn each_collective_is_drawn_once_from_its_own_streams() {
        let plan = vec![vec![t(64), t(8)], vec![t(128)], vec![], vec![t(32); 3]];
        let two_tier = DevicePool::two_tier(2, 1 << 34, 2, 1 << 33, 1.5, 0.5);
        for c in [cluster(4), cluster(4).with_devices(two_tier)] {
            let (comm, batch) = (c.spec.comm(), c.batch_size);
            let dims = c.phase_inputs(&plan).dims;
            for seed in 0..3 {
                let costs = c.evaluate(&plan, seed).unwrap();
                let noise = NoiseModel::new(seed ^ c.noise.seed(), c.noise.sigma());
                let drawn = |exact: Vec<f64>, starts: &[f64], salt: u64| -> Vec<u64> {
                    let stream = crate::comm::comm_stream(&dims, starts) ^ salt;
                    let draw = |(g, ms)| noise.median_measurement(ms, MEASURE_REPEATS, stream ^ g);
                    (0..).zip(exact).map(|g| draw(g).to_bits()).collect()
                };
                let ends: Vec<f64> = costs.devices().iter().map(|d| d.compute_fwd_ms).collect();
                let zeros = vec![0.0; ends.len()];
                let fwd = drawn(comm.forward_costs_ms(&dims, &ends, batch), &ends, 0);
                let bwd = drawn(
                    comm.backward_costs_ms(&dims, &zeros, batch),
                    &zeros,
                    1 << 63,
                );
                let got = |phase: fn(&DeviceCost) -> f64| -> Vec<u64> {
                    costs.devices().iter().map(|d| phase(d).to_bits()).collect()
                };
                assert_eq!(got(|d| d.comm_fwd_ms), fwd, "forward, seed {seed}");
                assert_eq!(got(|d| d.comm_bwd_ms), bwd, "backward, seed {seed}");
            }
        }
    }

    #[test]
    fn balanced_plan_beats_skewed_plan() {
        let c = cluster(4);
        let balanced = vec![
            vec![t(64); 3],
            vec![t(64); 3],
            vec![t(64); 3],
            vec![t(64); 3],
        ];
        let skewed = vec![vec![t(64); 9], vec![t(64)], vec![t(64)], vec![t(64)]];
        let b = c.evaluate_exact(&balanced).unwrap();
        let s = c.evaluate_exact(&skewed).unwrap();
        assert!(b.max_total_ms() < s.max_total_ms());
        assert!(b.balance() > s.balance());
    }

    #[test]
    fn memory_overflow_is_reported() {
        let c = cluster(2);
        // One table of 32M rows x 128 dims x 4B = 16 GB >> 4 GB budget.
        let huge = TableProfile::new(128, 32 << 20, 12.0, 0.3, 1.05);
        let err = c.evaluate(&[vec![huge], vec![]], 0).unwrap_err();
        match err {
            SimError::OutOfMemory { device, .. } => assert_eq!(device, 0),
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn exactly_at_budget_is_feasible() {
        // required == budget must pass: the budget is an inclusive bound.
        let table = t(64);
        let c = cluster(2).with_devices(DevicePool::uniform(2, table.memory_bytes()));
        c.check_memory(&[vec![table], vec![table]]).unwrap();
    }

    #[test]
    fn one_byte_over_budget_is_attributed() {
        let table = t(64);
        let c = cluster(2).with_devices(DevicePool::uniform(2, table.memory_bytes() - 1));
        let err = c.check_memory(&[vec![], vec![table]]).unwrap_err();
        match err {
            SimError::OutOfMemory {
                device,
                required_bytes,
                budget_bytes,
            } => {
                assert_eq!(device, 1);
                assert_eq!(required_bytes, table.memory_bytes());
                assert_eq!(budget_bytes, table.memory_bytes() - 1);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn empty_devices_occupy_zero_bytes() {
        // Devices with no tables pass the memory check at the smallest
        // budget, and an all-empty plan evaluates without error.
        let c = cluster(2).with_devices(DevicePool::uniform(2, 1));
        c.check_memory(&[vec![], vec![]]).unwrap();
        let roomy = cluster(2);
        let costs = roomy.evaluate_exact(&[vec![], vec![]]).unwrap();
        assert_eq!(costs.devices().len(), 2);
    }

    #[test]
    fn wrong_device_count_is_rejected() {
        let c = cluster(4);
        assert!(matches!(
            c.evaluate(&[vec![t(8)]], 0),
            Err(SimError::InvalidPlan { .. })
        ));
    }

    #[test]
    fn exact_evaluation_is_deterministic() {
        let c = cluster(4);
        let plan = vec![vec![t(64)], vec![t(32)], vec![t(16)], vec![t(128)]];
        assert_eq!(c.evaluate_exact(&plan), c.evaluate_exact(&plan));
    }

    #[test]
    fn measured_evaluation_is_seed_deterministic() {
        let c = cluster(2);
        let plan = vec![vec![t(64)], vec![t(32)]];
        assert_eq!(c.evaluate(&plan, 9).unwrap(), c.evaluate(&plan, 9).unwrap());
        assert_ne!(
            c.evaluate(&plan, 9).unwrap(),
            c.evaluate(&plan, 10).unwrap()
        );
    }

    #[test]
    fn measured_close_to_exact() {
        let c = cluster(4);
        let plan = vec![
            vec![t(64), t(32)],
            vec![t(32)],
            vec![t(16), t(8)],
            vec![t(128)],
        ];
        let exact = c.evaluate_exact(&plan).unwrap().max_total_ms();
        let meas = c.evaluate(&plan, 5).unwrap().max_total_ms();
        assert!((exact - meas).abs() / exact < 0.1);
    }

    #[test]
    fn flat_fleets_lower_to_plain_dimension_sums() {
        let plan = vec![vec![t(64), t(32)], vec![]];
        assert_eq!(cluster(2).devices().lowered_dims(&plan), vec![96.0, 0.0]);
    }

    #[test]
    fn compute_imbalance_propagates_into_comm_waits() {
        let c = cluster(2).with_noise(NoiseModel::disabled());
        // Device 0 heavy compute, device 1 light: device 1 must wait for 0
        // before the forward all-to-all, so its fwd comm cost is larger.
        let plan = vec![vec![t(64); 8], vec![t(64)]];
        let costs = c.evaluate_exact(&plan).unwrap();
        let d = costs.devices();
        assert!(d[1].comm_fwd_ms > d[0].comm_fwd_ms);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = Cluster::new(GpuSpec::rtx_2080_ti(), 0, 65_536);
    }

    #[test]
    fn plan_costs_accessors_consistent() {
        let c = cluster(4);
        let plan = vec![vec![t(64)], vec![t(64)], vec![t(64)], vec![t(64)]];
        let costs = c.evaluate_exact(&plan).unwrap();
        assert_eq!(costs.devices().len(), 4);
        assert!(costs.balance() > 0.0 && costs.balance() <= 1.0);
        let d0 = costs.devices()[0];
        assert!((d0.total_ms() - (d0.compute_ms() + d0.comm_ms())).abs() < 1e-12);
    }

    #[test]
    fn slow_device_class_scales_its_compute() {
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        // Flat network (inter scale 1.0): only the compute multiplier acts.
        let pool = DevicePool::two_tier(1, budget, 1, budget, 2.0, 1.0);
        let hetero = cluster(2)
            .with_devices(pool)
            .with_noise(NoiseModel::disabled());
        let plain = cluster(2).with_noise(NoiseModel::disabled());
        let plan = vec![vec![t(64)], vec![t(64)]];
        let h = hetero.evaluate_exact(&plan).unwrap();
        let p = plain.evaluate_exact(&plan).unwrap();
        // Device 0 (fast class) keeps its kernel time bit-for-bit.
        assert_eq!(
            h.devices()[0].compute_fwd_ms.to_bits(),
            p.devices()[0].compute_fwd_ms.to_bits()
        );
        // Device 1 (slow class) runs exactly 2x slower kernels.
        assert!(
            (h.devices()[1].compute_fwd_ms - 2.0 * p.devices()[1].compute_fwd_ms).abs() < 1e-12
        );
        assert!(
            (h.devices()[1].compute_bwd_ms - 2.0 * p.devices()[1].compute_bwd_ms).abs() < 1e-12
        );
        assert!(h.max_total_ms() > p.max_total_ms());
    }

    #[test]
    fn two_tier_network_raises_comm_costs() {
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        let flat = cluster(4)
            .with_devices(DevicePool::two_tier(2, budget, 2, budget, 1.0, 1.0))
            .with_noise(NoiseModel::disabled());
        let tiered = cluster(4)
            .with_devices(DevicePool::two_tier(2, budget, 2, budget, 1.0, 0.25))
            .with_noise(NoiseModel::disabled());
        let plan = vec![vec![t(64)], vec![t(64)], vec![t(64)], vec![t(64)]];
        let f = flat.evaluate_exact(&plan).unwrap();
        let s = tiered.evaluate_exact(&plan).unwrap();
        for (a, b) in s.devices().iter().zip(f.devices()) {
            assert!((a.compute_fwd_ms - b.compute_fwd_ms).abs() < 1e-12);
            assert!(a.comm_fwd_ms > b.comm_fwd_ms);
            assert!(a.comm_bwd_ms > b.comm_bwd_ms);
        }
    }

    fn same_bits(a: &PlanCosts, b: &PlanCosts) -> bool {
        let bits = |c: &PlanCosts| -> Vec<u64> {
            c.devices()
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
        };
        bits(a) == bits(b)
    }

    #[test]
    fn every_flat_baseline_fleet_is_the_uniform_fleet_bit_for_bit() {
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        let plan = vec![
            vec![t(64), t(32)],
            vec![t(32)],
            vec![t(16), t(8)],
            vec![t(128)],
        ];
        let uniform = cluster(4);
        // One node behind a slow uplink it never uses, and two nodes joined
        // at full bandwidth: both lower every dimension by exactly 1.0.
        let single_node = DevicePool::two_tier(4, budget, 0, budget, 1.0, 0.25);
        let all_ones = DevicePool::two_tier(2, budget, 2, budget, 1.0, 1.0);
        for pool in [single_node, all_ones] {
            let c = cluster(4).with_devices(pool);
            assert!(same_bits(
                &c.evaluate_exact(&plan).unwrap(),
                &uniform.evaluate_exact(&plan).unwrap()
            ));
            assert!(same_bits(
                &c.evaluate(&plan, 5).unwrap(),
                &uniform.evaluate(&plan, 5).unwrap()
            ));
        }
    }

    /// Three devices on node 0, one alone on node 1 behind links at
    /// `inter`: bandwidth scales `3/(2 + 1/inter)` and `inter`.
    fn three_and_one(inter: f64) -> Cluster {
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        cluster(4).with_devices(DevicePool::two_tier(3, budget, 1, budget, 1.0, inter))
    }

    #[test]
    fn slow_links_raise_everyones_latency() {
        let plan = vec![vec![t(64); 3]; 4];
        let flat = cluster(4).evaluate_exact(&plan).unwrap();
        let tiered = three_and_one(0.25).evaluate_exact(&plan).unwrap();
        // The lone device pays its own slow transfer; the others pay the
        // straggler share of it (backward comm: everyone starts together).
        for (s, f) in tiered.devices().iter().zip(flat.devices()) {
            assert!(s.comm_bwd_ms > f.comm_bwd_ms);
        }
        assert!(tiered.devices()[3].comm_bwd_ms > tiered.devices()[0].comm_bwd_ms);
    }

    #[test]
    fn a_small_shard_on_a_slow_link_can_still_be_the_straggler() {
        // Device 3 moves half the bytes over a tenth of the bandwidth
        // (192 / 0.1 against 384 / 0.25): its transfer gates the collective.
        let plan = vec![
            vec![t(128); 3],
            vec![t(128); 3],
            vec![t(128); 3],
            vec![t(64); 3],
        ];
        let costs = three_and_one(0.1).evaluate_exact(&plan).unwrap();
        let max = costs
            .devices()
            .iter()
            .map(|d| d.comm_bwd_ms)
            .fold(0.0, f64::max);
        assert_eq!(max.to_bits(), costs.devices()[3].comm_bwd_ms.to_bits());
    }

    #[test]
    fn two_tier_measurements_are_a_function_of_assignment_fleet_and_seed() {
        let plan = vec![vec![t(64)], vec![t(32)], vec![t(16)], vec![t(128)]];
        let c = three_and_one(0.5);
        assert_eq!(c.evaluate(&plan, 9).unwrap(), c.evaluate(&plan, 9).unwrap());
        assert_ne!(
            c.evaluate(&plan, 9).unwrap(),
            c.evaluate(&plan, 10).unwrap()
        );
        // Another topology hashes other lowered dimensions: other noise.
        let noise_of = |c: &Cluster| {
            let exact = c.evaluate_exact(&plan).unwrap().devices()[0].comm_bwd_ms;
            c.evaluate(&plan, 9).unwrap().devices()[0].comm_bwd_ms / exact
        };
        assert_ne!(noise_of(&c), noise_of(&three_and_one(0.25)));
    }

    #[test]
    fn per_device_budgets_are_enforced() {
        let table = t(64);
        let pool = DevicePool::new(
            vec![
                DeviceProfile::new(2 * table.memory_bytes(), 1.0, 0),
                DeviceProfile::new(table.memory_bytes() - 1, 1.0, 0),
            ],
            1.0,
        );
        let c = cluster(2).with_devices(pool);
        assert_eq!(c.devices().budgets()[0], 2 * table.memory_bytes());
        // The same load fits the roomy device and overflows the tight one.
        c.check_memory(&[vec![table], vec![]]).unwrap();
        match c.check_memory(&[vec![], vec![table]]) {
            Err(SimError::OutOfMemory { device, .. }) => assert_eq!(device, 1),
            other => panic!("expected OutOfMemory on device 1, got {other:?}"),
        }
    }

    #[test]
    fn replicated_shards_shrink_comm_dims_only() {
        // comm_share weights the dimensions but leaves memory accounting alone.
        let full = t(64);
        let replica = t(64).with_comm_share(0.5);
        let dims = cluster(2)
            .devices()
            .lowered_dims(&[vec![replica], vec![full]]);
        assert_eq!(dims, vec![32.0, 64.0]);
        assert_eq!(replica.memory_bytes(), full.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "pool size must match")]
    fn mismatched_pool_size_panics() {
        let _ = cluster(4).with_devices(DevicePool::uniform(2, 1 << 30));
    }

    proptest! {
        #[test]
        fn max_total_is_max_of_devices(
            dims in proptest::collection::vec(1u32..32, 4..24),
        ) {
            let c = cluster(4).with_noise(NoiseModel::disabled());
            let mut plan = vec![Vec::new(); 4];
            for (i, d) in dims.iter().enumerate() {
                plan[i % 4].push(t(d * 4));
            }
            let costs = c.evaluate_exact(&plan).unwrap();
            let max_by_hand = costs
                .devices()
                .iter()
                .map(DeviceCost::total_ms)
                .fold(0.0, f64::max);
            prop_assert_eq!(costs.max_total_ms(), max_by_hand);
        }
    }
}
