//! Heterogeneous device fleets and the two-tier interconnect.
//!
//! The paper's benchmark clusters are uniform: every GPU has the same
//! memory budget, the same kernel speed and a flat all-to-all network.
//! Production fleets are not — generations mix (a 2080 Ti rack next to an
//! A100 rack), and bandwidth *within* a node (NVLink/PCIe switch) is far
//! higher than *between* nodes (Ethernet/IB). A [`DevicePool`] describes
//! such a fleet: one [`DeviceProfile`] per device (memory budget, relative
//! compute speed, node id) plus a single inter-node bandwidth discount.
//!
//! The two-tier network is lowered to a **per-device bandwidth scale**: in
//! an all-to-all, device `g` exchanges shards with `local` same-node peers
//! at full bandwidth and `remote` other-node peers at
//! `inter_node_bw_scale ×` bandwidth, so its effective collective
//! bandwidth is the harmonic blend
//! `(local + remote) / (local + remote / inter_node_bw_scale)`.
//! When the network is flat (`inter_node_bw_scale = 1.0`, or a single
//! node) the scale is exactly `1.0`, and multiplying or dividing by it
//! changes no bits. [`DevicePool::lowered_dims`] applies the scale: the
//! flat all-to-all law then prices the fleet, and the learned side divides
//! the same dimensions by the same scales.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::profile::TableProfile;

/// One device of a heterogeneous fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Embedding-table memory budget of this device, bytes.
    mem_budget_bytes: u64,
    /// Multiplier on kernel (compute) time: `1.0` = baseline hardware,
    /// `1.5` = 50% slower, `0.5` = twice as fast.
    compute_scale: f64,
    /// Node (host) this device sits in; same-node traffic moves at full
    /// bandwidth, cross-node traffic at the pool's inter-node scale.
    node: usize,
}

impl DeviceProfile {
    /// Creates a device profile.
    ///
    /// # Panics
    ///
    /// Panics when `mem_budget_bytes` is zero or `compute_scale` is not
    /// finite and positive.
    pub fn new(mem_budget_bytes: u64, compute_scale: f64, node: usize) -> Self {
        let profile = Self {
            mem_budget_bytes,
            compute_scale,
            node,
        };
        if let Err(e) = profile.check() {
            panic!("{e}");
        }
        profile
    }

    /// The conditions [`DeviceProfile::new`] asserts, as a typed error —
    /// also run by [`DevicePool::try_new`], because a deserialized profile
    /// never went through `new`.
    fn check(&self) -> Result<(), SimError> {
        if self.mem_budget_bytes == 0 {
            return Err(SimError::InvalidTable {
                reason: "device memory budget must be positive".into(),
            });
        }
        if !(self.compute_scale.is_finite() && self.compute_scale > 0.0) {
            return Err(SimError::InvalidTable {
                reason: format!(
                    "compute scale must be finite and positive, got {}",
                    self.compute_scale
                ),
            });
        }
        Ok(())
    }

    /// Embedding-table memory budget, bytes.
    pub fn mem_budget_bytes(&self) -> u64 {
        self.mem_budget_bytes
    }

    /// Multiplier on kernel time (`1.0` = baseline).
    pub fn compute_scale(&self) -> f64 {
        self.compute_scale
    }

    /// Node (host) index.
    pub fn node(&self) -> usize {
        self.node
    }
}

/// A fleet of (possibly heterogeneous) devices plus a two-tier network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePool {
    devices: Vec<DeviceProfile>,
    /// Bandwidth of an inter-node link relative to an intra-node link, in
    /// `(0, 1]`. `1.0` = flat network.
    inter_node_bw_scale: f64,
}

impl DevicePool {
    /// Creates a pool from explicit per-device profiles.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTable`] when the pool is empty, a profile has a
    /// zero budget or a compute scale that is not finite and positive, or
    /// the inter-node bandwidth scale is outside `(0, 1]`.
    pub fn try_new(
        devices: Vec<DeviceProfile>,
        inter_node_bw_scale: f64,
    ) -> Result<Self, SimError> {
        if devices.is_empty() {
            return Err(SimError::InvalidTable {
                reason: "a device pool needs at least one device".into(),
            });
        }
        devices.iter().try_for_each(DeviceProfile::check)?;
        if !(inter_node_bw_scale.is_finite()
            && inter_node_bw_scale > 0.0
            && inter_node_bw_scale <= 1.0)
        {
            return Err(SimError::InvalidTable {
                reason: format!(
                    "inter-node bandwidth scale must be in (0, 1], got {inter_node_bw_scale}"
                ),
            });
        }
        Ok(Self {
            devices,
            inter_node_bw_scale,
        })
    }

    /// Infallible counterpart of [`DevicePool::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`DevicePool::try_new`] rejects.
    pub fn new(devices: Vec<DeviceProfile>, inter_node_bw_scale: f64) -> Self {
        Self::try_new(devices, inter_node_bw_scale).expect("invalid device pool")
    }

    /// A uniform pool: `n` identical devices with `mem_budget_bytes` each,
    /// baseline compute, one node, flat network — the fleet of the paper's
    /// benchmark clusters.
    pub fn uniform(n: usize, mem_budget_bytes: u64) -> Self {
        Self::new(
            (0..n)
                .map(|_| DeviceProfile::new(mem_budget_bytes, 1.0, 0))
                .collect(),
            1.0,
        )
    }

    /// A two-node fleet mixing a fast roomy class with a slow tight class:
    /// `fast` devices on node 0 and `slow` devices on node 1, the slow
    /// class carrying `slow_scale ×` kernel time and `slow_budget` bytes,
    /// inter-node links at `inter_node_bw_scale` of intra-node bandwidth.
    pub fn two_tier(
        fast: usize,
        fast_budget: u64,
        slow: usize,
        slow_budget: u64,
        slow_scale: f64,
        inter_node_bw_scale: f64,
    ) -> Self {
        let mut devices = Vec::with_capacity(fast + slow);
        devices.extend((0..fast).map(|_| DeviceProfile::new(fast_budget, 1.0, 0)));
        devices.extend((0..slow).map(|_| DeviceProfile::new(slow_budget, slow_scale, 1)));
        Self::new(devices, inter_node_bw_scale)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The per-device profiles, in device order.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// Inter-node bandwidth relative to intra-node bandwidth.
    pub fn inter_node_bw_scale(&self) -> f64 {
        self.inter_node_bw_scale
    }

    /// Memory budget of device `g`, bytes.
    pub fn budget_of(&self, g: usize) -> u64 {
        self.devices[g].mem_budget_bytes
    }

    /// Compute-time multiplier of device `g`.
    pub fn compute_scale_of(&self, g: usize) -> f64 {
        self.devices[g].compute_scale
    }

    /// Node of device `g`.
    pub fn node_of(&self, g: usize) -> usize {
        self.devices[g].node
    }

    /// The largest single-device memory budget in the pool.
    pub fn max_budget(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.mem_budget_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Effective all-to-all bandwidth scale of device `g` (see the module
    /// docs for the harmonic blend). Exactly `1.0` on a flat network.
    pub fn bw_scale_of(&self, g: usize) -> f64 {
        let d = self.devices.len();
        if d <= 1 {
            return 1.0;
        }
        let node = self.devices[g].node;
        let local = self
            .devices
            .iter()
            .enumerate()
            .filter(|&(i, dev)| i != g && dev.node == node)
            .count();
        let remote = d - 1 - local;
        if remote == 0 {
            return 1.0;
        }
        let (local, remote) = (local as f64, remote as f64);
        (local + remote) / (local + remote / self.inter_node_bw_scale)
    }

    /// Lowers a placement on this fleet onto the flat all-to-all law:
    /// device `g`'s communication dimension is its tables'
    /// [`TableProfile::comm_dim`]s summed, over [`DevicePool::bw_scale_of`]
    /// — moving bytes at `b ×` bandwidth is moving `1/b ×` the bytes at
    /// full bandwidth. `x / 1.0` is a bitwise identity, so a flat fleet's
    /// dimensions are the plain sums.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` covers more devices than the pool.
    pub fn lowered_dims(&self, assignment: &[Vec<TableProfile>]) -> Vec<f64> {
        lower_dims(assignment, &self.bw_scales())
    }

    /// Per-device effective bandwidth scales, in device order.
    pub fn bw_scales(&self) -> Vec<f64> {
        (0..self.devices.len())
            .map(|g| self.bw_scale_of(g))
            .collect()
    }

    /// Per-device compute-time multipliers, in device order.
    pub fn compute_scales(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.compute_scale).collect()
    }

    /// Per-device memory budgets, in device order.
    pub fn budgets(&self) -> Vec<u64> {
        self.devices.iter().map(|d| d.mem_budget_bytes).collect()
    }

    /// Whether every device has baseline compute speed.
    pub fn has_uniform_compute(&self) -> bool {
        self.devices.iter().all(|d| d.compute_scale == 1.0)
    }

    /// Whether the network is effectively flat (single node, or full
    /// inter-node bandwidth).
    pub fn has_uniform_bandwidth(&self) -> bool {
        self.inter_node_bw_scale == 1.0
            || self.devices.iter().all(|d| d.node == self.devices[0].node)
    }
}

/// Device `g`'s tables' [`TableProfile::comm_dim`]s summed, over
/// `bw_scales[g]`: the one lowering of a placement onto the flat
/// all-to-all law, for a pool's own scales or the copy a cluster caches.
///
/// # Panics
///
/// Panics if `assignment` covers more devices than `bw_scales`.
pub(crate) fn lower_dims(assignment: &[Vec<TableProfile>], bw_scales: &[f64]) -> Vec<f64> {
    assignment
        .iter()
        .enumerate()
        .map(|(g, tables)| tables.iter().map(TableProfile::comm_dim).sum::<f64>() / bw_scales[g])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pool_is_uniform() {
        let pool = DevicePool::uniform(4, 1 << 30);
        assert!(pool.has_uniform_compute() && pool.has_uniform_bandwidth());
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.budget_of(3), 1 << 30);
        for g in 0..4 {
            assert_eq!(pool.bw_scale_of(g).to_bits(), 1.0f64.to_bits());
            assert_eq!(pool.compute_scale_of(g), 1.0);
        }
    }

    #[test]
    fn two_tier_pool_is_heterogeneous() {
        let pool = DevicePool::two_tier(2, 4 << 30, 2, 1 << 30, 1.5, 0.25);
        assert!(!pool.has_uniform_compute() && !pool.has_uniform_bandwidth());
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.budget_of(0), 4 << 30);
        assert_eq!(pool.budget_of(2), 1 << 30);
        assert_eq!(pool.compute_scale_of(2), 1.5);
        assert_eq!(pool.node_of(0), 0);
        assert_eq!(pool.node_of(3), 1);
        assert_eq!(pool.max_budget(), 4 << 30);
        // 1 local peer at full speed + 2 remote peers at 0.25:
        // (1 + 2) / (1 + 2/0.25) = 3/9.
        let s = pool.bw_scale_of(0);
        assert!((s - 3.0 / 9.0).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn flat_network_bw_scale_is_exactly_one() {
        // Two nodes but full inter-node bandwidth: scale must be the exact
        // 1.0 bits, so applying it changes nothing.
        let pool = DevicePool::two_tier(2, 1 << 30, 2, 1 << 30, 1.0, 1.0);
        for g in 0..4 {
            assert_eq!(pool.bw_scale_of(g).to_bits(), 1.0f64.to_bits());
        }
        assert!(pool.has_uniform_bandwidth());
    }

    #[test]
    fn single_node_pools_have_flat_bandwidth() {
        let devices = (0..3)
            .map(|_| DeviceProfile::new(1 << 20, 2.0, 5))
            .collect();
        let pool = DevicePool::new(devices, 0.1);
        assert!(pool.has_uniform_bandwidth());
        assert!(!pool.has_uniform_compute());
        for g in 0..3 {
            assert_eq!(pool.bw_scale_of(g).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn rejects_empty_and_bad_scales() {
        assert!(DevicePool::try_new(Vec::new(), 1.0).is_err());
        let one = vec![DeviceProfile::new(1, 1.0, 0)];
        assert!(DevicePool::try_new(one.clone(), 0.0).is_err());
        assert!(DevicePool::try_new(one.clone(), 1.5).is_err());
        assert!(DevicePool::try_new(one, f64::NAN).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let pool = DevicePool::two_tier(2, 4 << 30, 6, 1 << 30, 1.25, 0.4);
        let json = serde_json::to_string(&pool).unwrap();
        let back: DevicePool = serde_json::from_str(&json).unwrap();
        assert_eq!(pool, back);
    }
}
