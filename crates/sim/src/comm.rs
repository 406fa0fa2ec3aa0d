//! All-to-all communication cost model.
//!
//! Models the forward (embedding exchange) and backward (gradient exchange)
//! all-to-all collectives of distributed DLRM training (§2.2 of the paper).
//!
//! There is **one** law, [`CommParams`]'s private `costs_ms`, and two
//! properties are built into it:
//!
//! * **Observation 3** — the max communication cost across GPUs grows with
//!   the max *device dimension* (the sum of the embedding dimensions placed
//!   on a device): the collective is gated by the participant that moves the
//!   most bytes, and a GPU's bytes are `batch × device_dim × 4 × (D-1)/D`.
//! * **Straggler skew** (Figure 1, right) — GPUs join the collective at
//!   different timestamps; early joiners pay the wait for the last one, so
//!   the locally measured communication latency differs per GPU even for a
//!   perfectly balanced placement.
//!
//! A two-tier network or a degraded node link is not a second law: the
//! fleet is *lowered* before the law runs ([`crate::DevicePool::lowered_dims`]
//! — a device behind a `b ×` link brings `dim / b`), so the slowest
//! *transfer* gates the collective and a device can move fewer bytes yet
//! be the one everyone waits for.

use serde::{Deserialize, Serialize};

use crate::noise::NoiseModel;

/// Calibration constants of the all-to-all cost law.
///
/// # Example
///
/// ```
/// use nshard_sim::CommParams;
///
/// let params = CommParams::pcie_server();
/// // Balanced placement, simultaneous start, 4 GPUs:
/// let costs = params.forward_costs_ms(&[320.0, 320.0, 320.0, 320.0], &[0.0; 4], 65_536);
/// assert_eq!(costs.len(), 4);
/// // All GPUs see the same latency when balanced and synchronized.
/// assert!((costs[0] - costs[3]).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommParams {
    /// Fixed per-peer latency term in ms (link setup, kernel launch).
    pub alpha_ms: f64,
    /// Point-to-point bandwidth in GB/s before congestion.
    pub base_bw_gbps: f64,
    /// Congestion growth per additional participant: effective bandwidth is
    /// `base / (1 + coeff * (D - 1))`.
    pub congestion_coeff: f64,
    /// Weight of the *collective-wide max* byte count vs. a GPU's own byte
    /// count in its locally observed latency (1.0 = fully gated by the
    /// slowest participant).
    pub straggler_weight: f64,
    /// Backward-pass bandwidth multiplier (gradient all-to-all is slightly
    /// slower: atomics + different message layout).
    pub bwd_bw_scale: f64,
    /// Backward-pass fixed per-peer latency in ms.
    pub bwd_alpha_ms: f64,
}

impl CommParams {
    /// Calibration mimicking the paper's 8-GPU PCIe server (2080 Ti, no
    /// NVLink).
    pub fn pcie_server() -> Self {
        Self {
            alpha_ms: 0.030,
            base_bw_gbps: 16.0,
            congestion_coeff: 0.08,
            straggler_weight: 0.75,
            bwd_bw_scale: 0.92,
            bwd_alpha_ms: 0.035,
        }
    }

    /// Calibration mimicking an RDMA training cluster (Table 4's production
    /// platform).
    pub fn rdma_cluster() -> Self {
        Self {
            alpha_ms: 0.012,
            base_bw_gbps: 90.0,
            congestion_coeff: 0.015,
            straggler_weight: 0.80,
            bwd_bw_scale: 0.95,
            bwd_alpha_ms: 0.015,
        }
    }

    /// Effective per-GPU bandwidth in bytes/ms for a collective of `d`
    /// participants.
    fn effective_bw_bytes_per_ms(&self, d: usize) -> f64 {
        let gbps = self.base_bw_gbps / (1.0 + self.congestion_coeff * (d.saturating_sub(1)) as f64);
        gbps * 1e9 / 1e3
    }

    /// Bytes a GPU with device dimension `device_dim` contributes to one
    /// all-to-all (what it sends to its `D-1` peers).
    fn bytes_for_device(&self, device_dim: f64, batch_size: u32, d: usize) -> f64 {
        if d <= 1 {
            return 0.0;
        }
        let frac_remote = (d as f64 - 1.0) / d as f64;
        f64::from(batch_size) * device_dim * 4.0 * frac_remote
    }

    fn costs_ms(
        &self,
        device_dims: &[f64],
        start_ts_ms: &[f64],
        batch_size: u32,
        alpha_ms: f64,
        bw_scale: f64,
    ) -> Vec<f64> {
        let d = device_dims.len();
        assert_eq!(
            d,
            start_ts_ms.len(),
            "device_dims and start_ts_ms must have the same length"
        );
        if d == 0 {
            return Vec::new();
        }
        if d == 1 {
            // Single GPU: nothing to exchange.
            return vec![0.0];
        }
        let ready = start_ts_ms.iter().cloned().fold(f64::MIN, f64::max);
        let bw = self.effective_bw_bytes_per_ms(d) * bw_scale;
        let bytes: Vec<f64> = device_dims
            .iter()
            .map(|&dim| self.bytes_for_device(dim, batch_size, d))
            .collect();
        let max_bytes = bytes.iter().cloned().fold(0.0, f64::max);
        let setup = alpha_ms * (d as f64 - 1.0);
        device_dims
            .iter()
            .enumerate()
            .map(|(g, _)| {
                let wait = ready - start_ts_ms[g];
                let xfer = (self.straggler_weight * max_bytes
                    + (1.0 - self.straggler_weight) * bytes[g])
                    / bw;
                wait + setup + xfer
            })
            .collect()
    }

    /// Per-GPU forward all-to-all latency in ms, as observed locally by each
    /// GPU (wait-for-stragglers + setup + transfer).
    ///
    /// # Panics
    ///
    /// Panics if `device_dims` and `start_ts_ms` have different lengths.
    pub fn forward_costs_ms(
        &self,
        device_dims: &[f64],
        start_ts_ms: &[f64],
        batch_size: u32,
    ) -> Vec<f64> {
        self.costs_ms(device_dims, start_ts_ms, batch_size, self.alpha_ms, 1.0)
    }

    /// Per-GPU backward all-to-all latency in ms.
    ///
    /// # Panics
    ///
    /// Panics if `device_dims` and `start_ts_ms` have different lengths.
    pub fn backward_costs_ms(
        &self,
        device_dims: &[f64],
        start_ts_ms: &[f64],
        batch_size: u32,
    ) -> Vec<f64> {
        self.costs_ms(
            device_dims,
            start_ts_ms,
            batch_size,
            self.bwd_alpha_ms,
            self.bwd_bw_scale,
        )
    }

    /// Noisy "measured" per-GPU latencies of one `direction` (see
    /// [`CommParams::forward_costs_ms`]), median over `repeats` runs. GPU
    /// `g` draws from stream `g` of the placement; a backward stream is the
    /// forward one with its top bit flipped.
    pub fn measure_costs_ms(
        &self,
        direction: CommDirection,
        dims: &[f64],
        starts_ms: &[f64],
        batch: u32,
        noise: &NoiseModel,
        repeats: u32,
    ) -> Vec<f64> {
        let (exact, salt) = match direction {
            CommDirection::Forward => (self.forward_costs_ms(dims, starts_ms, batch), 0),
            CommDirection::Backward => (self.backward_costs_ms(dims, starts_ms, batch), 1 << 63),
        };
        let stream = comm_stream(dims, starts_ms) ^ salt;
        exact
            .into_iter()
            .enumerate()
            .map(|(g, c)| noise.median_measurement(c, repeats, stream ^ (g as u64)))
            .collect()
    }
}

impl Default for CommParams {
    fn default() -> Self {
        Self::pcie_server()
    }
}

/// One of the two all-to-all collectives of an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommDirection {
    /// The forward embedding exchange.
    Forward,
    /// The backward gradient exchange.
    Backward,
}

pub(crate) fn comm_stream(device_dims: &[f64], starts: &[f64]) -> u64 {
    let mut h: u64 = 0x811c_9dc5;
    for v in device_dims.iter().chain(starts) {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn observation_3_max_cost_grows_with_max_device_dim() {
        let p = CommParams::pcie_server();
        // Keep total dims constant, increase imbalance → max device dim grows.
        let balanced = p.forward_costs_ms(&[300.0, 300.0, 300.0, 300.0], &[0.0; 4], 65_536);
        let skewed = p.forward_costs_ms(&[600.0, 200.0, 200.0, 200.0], &[0.0; 4], 65_536);
        let very_skewed = p.forward_costs_ms(&[900.0, 100.0, 100.0, 100.0], &[0.0; 4], 65_536);
        let max = |v: &Vec<f64>| v.iter().cloned().fold(0.0, f64::max);
        assert!(max(&balanced) < max(&skewed));
        assert!(max(&skewed) < max(&very_skewed));
    }

    #[test]
    fn early_starters_pay_the_wait() {
        let p = CommParams::pcie_server();
        let costs = p.forward_costs_ms(&[300.0; 4], &[0.0, 5.0, 0.0, 0.0], 65_536);
        // GPU 1 started 5 ms late; the others wait 5 ms longer.
        assert!((costs[0] - costs[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn single_gpu_has_zero_comm() {
        let p = CommParams::pcie_server();
        assert_eq!(p.forward_costs_ms(&[500.0], &[0.0], 65_536), vec![0.0]);
    }

    #[test]
    fn empty_cluster_yields_empty_costs() {
        let p = CommParams::pcie_server();
        assert!(p.forward_costs_ms(&[], &[], 65_536).is_empty());
    }

    #[test]
    fn backward_is_slower_than_forward() {
        let p = CommParams::pcie_server();
        let dims = [300.0, 350.0, 280.0, 320.0];
        let fwd = p.forward_costs_ms(&dims, &[0.0; 4], 65_536);
        let bwd = p.backward_costs_ms(&dims, &[0.0; 4], 65_536);
        for g in 0..4 {
            assert!(bwd[g] > fwd[g]);
        }
    }

    #[test]
    fn congestion_slows_larger_collectives() {
        let p = CommParams::pcie_server();
        assert!(p.effective_bw_bytes_per_ms(8) < p.effective_bw_bytes_per_ms(4));
        assert!(p.effective_bw_bytes_per_ms(4) < p.effective_bw_bytes_per_ms(2));
    }

    #[test]
    fn calibration_lands_in_paper_range() {
        // A 4-GPU placement with device dims around 350 should have a
        // forward all-to-all of a few ms.
        let p = CommParams::pcie_server();
        let costs = p.forward_costs_ms(&[350.0; 4], &[0.0; 4], 65_536);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1.0 && max < 20.0, "max fwd comm {max} out of range");
    }

    #[test]
    fn measured_costs_deterministic() {
        let p = CommParams::pcie_server();
        let noise = NoiseModel::new(1, 0.02);
        let dims = [300.0, 400.0];
        for direction in [CommDirection::Forward, CommDirection::Backward] {
            let a = p.measure_costs_ms(direction, &dims, &[0.0, 1.0], 65_536, &noise, 11);
            let b = p.measure_costs_ms(direction, &dims, &[0.0, 1.0], 65_536, &noise, 11);
            assert_eq!(a, b);
            assert_eq!(a.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let p = CommParams::pcie_server();
        let _ = p.forward_costs_ms(&[1.0, 2.0], &[0.0], 65_536);
    }

    #[test]
    fn rdma_is_faster_than_pcie() {
        let pcie = CommParams::pcie_server();
        let rdma = CommParams::rdma_cluster();
        let dims = [300.0; 8];
        let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        assert!(
            max(rdma.forward_costs_ms(&dims, &[0.0; 8], 65_536))
                < max(pcie.forward_costs_ms(&dims, &[0.0; 8], 65_536))
        );
    }

    proptest! {
        #[test]
        fn costs_finite_nonnegative(
            dims in proptest::collection::vec(0.0f64..4096.0, 2..16),
            starts_raw in proptest::collection::vec(0.0f64..20.0, 2..16),
        ) {
            let d = dims.len().min(starts_raw.len());
            let p = CommParams::pcie_server();
            let costs = p.forward_costs_ms(&dims[..d], &starts_raw[..d], 65_536);
            for c in costs {
                prop_assert!(c.is_finite());
                prop_assert!(c >= 0.0);
            }
        }

        #[test]
        fn adding_dim_to_max_device_never_decreases_max_cost(
            base in 1.0f64..1000.0,
            extra in 0.0f64..1000.0,
        ) {
            let p = CommParams::pcie_server();
            let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
            let before = max(p.forward_costs_ms(&[base + 1.0, base, base, base], &[0.0; 4], 65_536));
            let after = max(p.forward_costs_ms(&[base + 1.0 + extra, base, base, base], &[0.0; 4], 65_536));
            prop_assert!(after >= before);
        }
    }
}
