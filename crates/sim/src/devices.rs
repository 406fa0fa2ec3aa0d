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

use std::collections::HashMap;

use serde::value::Value;
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

/// A fleet of (possibly heterogeneous) devices plus a two-tier network,
/// lowered once, when it is built, to what placing and pricing read: one
/// memory budget, one compute class and one effective bandwidth scale per
/// device. Decoding goes through [`DevicePool::try_new`], so a pool read
/// from JSON is validated and lowered like any other.
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(try_from = "PoolWire")]
pub struct DevicePool {
    devices: Vec<DeviceProfile>,
    /// Bandwidth of an inter-node link relative to an intra-node link, in
    /// `(0, 1]`. `1.0` = flat network.
    inter_node_bw_scale: f64,
    budgets: Vec<u64>,
    compute_scales: Vec<f64>,
    bw_scales: Vec<f64>,
}

/// A [`DevicePool`] as stored: the two keys its `Serialize` writes.
#[derive(Deserialize)]
struct PoolWire {
    devices: Vec<DeviceProfile>,
    inter_node_bw_scale: f64,
}

impl TryFrom<PoolWire> for DevicePool {
    type Error = SimError;

    fn try_from(wire: PoolWire) -> Result<Self, SimError> {
        Self::try_new(wire.devices, wire.inter_node_bw_scale)
    }
}

impl Serialize for DevicePool {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("devices".into(), self.devices.to_value()),
            (
                "inter_node_bw_scale".into(),
                self.inter_node_bw_scale.to_value(),
            ),
        ])
    }
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
        let mut per_node: HashMap<usize, usize> = HashMap::new();
        for d in &devices {
            *per_node.entry(d.node).or_default() += 1;
        }
        let peers = devices.len() - 1;
        Ok(Self {
            budgets: devices.iter().map(|d| d.mem_budget_bytes).collect(),
            compute_scales: devices.iter().map(|d| d.compute_scale).collect(),
            bw_scales: devices
                .iter()
                .map(|d| bw_scale(per_node[&d.node] - 1, peers, inter_node_bw_scale))
                .collect(),
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

    /// The largest single-device memory budget in the pool.
    pub fn max_budget(&self) -> u64 {
        self.budgets.iter().copied().max().unwrap_or(0)
    }

    /// Lowers a placement on this fleet onto the flat all-to-all law:
    /// device `g`'s communication dimension is its tables'
    /// [`TableProfile::comm_dim`]s summed, over `bw_scales()[g]` — moving
    /// bytes at `b ×` bandwidth is moving `1/b ×` the bytes at full
    /// bandwidth. `x / 1.0` is a bitwise identity, so a flat fleet's
    /// dimensions are the plain sums. The one lowering of a placement:
    /// ground truth and estimate both run the all-to-all law on these.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` covers more devices than the pool.
    pub fn lowered_dims(&self, assignment: &[Vec<TableProfile>]) -> Vec<f64> {
        assignment
            .iter()
            .enumerate()
            .map(|(g, tables)| {
                tables.iter().map(TableProfile::comm_dim).sum::<f64>() / self.bw_scales[g]
            })
            .collect()
    }

    /// Per-device effective all-to-all bandwidth scales (see the module
    /// docs for the harmonic blend), in device order. Exactly `1.0` on a
    /// flat network.
    pub fn bw_scales(&self) -> &[f64] {
        &self.bw_scales
    }

    /// Per-device compute-time multipliers, in device order.
    pub fn compute_scales(&self) -> &[f64] {
        &self.compute_scales
    }

    /// Per-device memory budgets, in device order.
    pub fn budgets(&self) -> &[u64] {
        &self.budgets
    }
}

/// Effective all-to-all bandwidth scale of a device with `local` of its
/// `peers` on its own node, on links between nodes at
/// `inter_node_bw_scale` (the module docs' harmonic blend). Exactly `1.0`
/// when no peer is on another node.
fn bw_scale(local: usize, peers: usize, inter_node_bw_scale: f64) -> f64 {
    let remote = peers - local;
    if remote == 0 {
        return 1.0;
    }
    let (local, remote) = (local as f64, remote as f64);
    (local + remote) / (local + remote / inter_node_bw_scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(scales: &[f64]) -> Vec<u64> {
        scales.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn uniform_pool_is_uniform() {
        let pool = DevicePool::uniform(4, 1 << 30);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.budgets(), [1 << 30; 4]);
        assert_eq!(bits(pool.compute_scales()), bits(&[1.0; 4]));
        assert_eq!(bits(pool.bw_scales()), bits(&[1.0; 4]));
        assert!(pool.devices().iter().all(|d| d.node() == 0));
    }

    #[test]
    fn two_tier_pool_is_heterogeneous() {
        let pool = DevicePool::two_tier(2, 4 << 30, 2, 1 << 30, 1.5, 0.25);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.budgets(), [4 << 30, 4 << 30, 1 << 30, 1 << 30]);
        assert_eq!(pool.compute_scales(), [1.0, 1.0, 1.5, 1.5]);
        assert_eq!(pool.devices()[0].node(), 0);
        assert_eq!(pool.devices()[3].node(), 1);
        assert_eq!(pool.max_budget(), 4 << 30);
        // 1 local peer at full speed + 2 remote peers at 0.25:
        // (1 + 2) / (1 + 2/0.25) = 3/9, on either node.
        for s in pool.bw_scales() {
            assert!((s - 3.0 / 9.0).abs() < 1e-12, "got {s}");
        }
    }

    #[test]
    fn flat_network_bw_scale_is_exactly_one() {
        // Two nodes but full inter-node bandwidth: scale must be the exact
        // 1.0 bits, so applying it changes nothing.
        let pool = DevicePool::two_tier(2, 1 << 30, 2, 1 << 30, 1.0, 1.0);
        assert_eq!(bits(pool.bw_scales()), bits(&[1.0; 4]));
    }

    #[test]
    fn single_node_pools_have_flat_bandwidth() {
        let devices = (0..3)
            .map(|_| DeviceProfile::new(1 << 20, 2.0, 5))
            .collect();
        let pool = DevicePool::new(devices, 0.1);
        assert_eq!(bits(pool.bw_scales()), bits(&[1.0; 3]));
        assert_eq!(pool.compute_scales(), [2.0; 3]);
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
        assert!(
            json.starts_with(r#"{"devices":[{"mem_budget_bytes":"#),
            "{json}"
        );
        assert!(json.ends_with(r#"],"inter_node_bw_scale":0.4}"#), "{json}");
        let back: DevicePool = serde_json::from_str(&json).unwrap();
        assert_eq!(pool, back);
        assert_eq!(back.budgets(), pool.budgets());
        assert_eq!(bits(back.compute_scales()), bits(pool.compute_scales()));
        assert_eq!(bits(back.bw_scales()), bits(pool.bw_scales()));
    }

    #[test]
    fn a_decoded_pool_is_refused_what_try_new_refuses() {
        let decode = |json: &str| serde_json::from_str::<DevicePool>(json);
        let device = |scale: &str| {
            format!(
                r#"{{"devices":[{{"mem_budget_bytes":1024,"compute_scale":{scale},"node":0}}],"inter_node_bw_scale":1.0}}"#
            )
        };
        assert!(decode(&device("1.0")).is_ok());
        for json in [
            r#"{"devices":[],"inter_node_bw_scale":1.0}"#.to_string(),
            device("0.0"),
        ] {
            let err = decode(&json).expect_err(&json);
            println!("{json}: {err}");
        }
    }
}
