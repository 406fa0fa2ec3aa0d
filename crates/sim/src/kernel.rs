//! Fused multi-table embedding kernel cost law.
//!
//! Models the forward + backward computation cost of an FBGEMM-style fused
//! embedding lookup on one GPU, as analyzed in §2.1 of the paper. The law is
//! built so that the paper's two computation observations hold by
//! construction:
//!
//! * **Observation 1** (column-split penalty): the per-row lookup cost has a
//!   fixed component `c_row` that is independent of the dimension, plus a
//!   *sublinear* dimension term `c_elem * d^gamma` with `gamma < 1`. Halving
//!   `d` therefore keeps the fixed cost and more than half of the byte cost,
//!   so each half-table shard costs more than half of the original table.
//! * **Observation 2** (fusion non-linearity): a single fused kernel over `T`
//!   tables enjoys better SM occupancy than `T` separate launches. The fused
//!   cost is `launch + eff(T) * Σ table_work` with `eff(T) < 1` for `T > 1`,
//!   which is non-linear in the sum of single-table costs.
//!
//! The indices distribution enters through a cache-pressure penalty: a batch
//! that touches many unique rows of a huge table spills the L2 cache and
//! pays closer-to-DRAM latencies (§2.1, factors 2 and 4).

use serde::{Deserialize, Serialize};

use crate::noise::NoiseModel;
use crate::profile::TableProfile;

/// Calibration constants of the fused-kernel cost law.
///
/// The defaults are calibrated so that realistic DLRM workloads (batch size
/// 65 536, pooling factor ≈ 15, dimensions 4–128, 10–60 tables across 4
/// GPUs) land in the paper's reported cost range of roughly 15–60 ms per
/// training iteration.
///
/// # Example
///
/// ```
/// use nshard_sim::{KernelParams, TableProfile};
///
/// let params = KernelParams::rtx_2080_ti();
/// let table = TableProfile::new(64, 1 << 22, 15.0, 0.3, 1.05);
/// let full = params.multi_cost_ms(&[table], 65_536);
/// let (a, b) = table.split_columns().unwrap();
/// let half = params.multi_cost_ms(&[a], 65_536);
/// // Observation 1: a half-dimension shard costs more than half the table.
/// assert!(half > full / 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelParams {
    /// Fixed cost per row lookup, in nanoseconds (pointer chase, offset
    /// arithmetic, pooling accumulation setup).
    pub c_row_ns: f64,
    /// Per-element transfer coefficient, in nanoseconds, applied to
    /// `dim^gamma`.
    pub c_elem_ns: f64,
    /// Sublinearity exponent of the dimension term (`< 1`).
    pub gamma: f64,
    /// Fixed cost of one fused kernel launch (host + device), in ms.
    pub launch_ms: f64,
    /// Backward/forward cost ratio (gradient scatter is more expensive than
    /// the forward gather).
    pub bwd_factor: f64,
    /// Asymptotic fused-kernel efficiency: `eff(T) = floor + (1-floor)/sqrt(T)`.
    pub occupancy_floor: f64,
    /// Effective L2 cache size in bytes, controlling the cache penalty knee.
    pub l2_bytes: f64,
    /// Maximum multiplicative cache-spill penalty.
    pub cache_penalty_max: f64,
    /// Strength of the hash-size (TLB / row activation) penalty.
    pub hash_penalty_coeff: f64,
}

impl KernelParams {
    /// Calibration mimicking an RTX 2080 Ti running FBGEMM fused kernels,
    /// the paper's benchmarking hardware.
    pub fn rtx_2080_ti() -> Self {
        Self {
            c_row_ns: 0.25,
            c_elem_ns: 0.035,
            gamma: 0.80,
            launch_ms: 0.08,
            bwd_factor: 1.45,
            occupancy_floor: 0.60,
            l2_bytes: 5.5 * 1024.0 * 1024.0,
            cache_penalty_max: 0.40,
            hash_penalty_coeff: 0.008,
        }
    }

    /// Calibration mimicking a datacenter accelerator with HBM and larger
    /// caches (used by the "production" 128-GPU experiments, Table 4).
    pub fn datacenter_a100_like() -> Self {
        Self {
            c_row_ns: 0.12,
            c_elem_ns: 0.016,
            gamma: 0.82,
            launch_ms: 0.05,
            bwd_factor: 1.35,
            occupancy_floor: 0.55,
            l2_bytes: 40.0 * 1024.0 * 1024.0,
            cache_penalty_max: 0.40,
            hash_penalty_coeff: 0.010,
        }
    }

    /// Fused-kernel efficiency factor for `t` tables; 1.0 for a single
    /// table, decreasing towards [`KernelParams::occupancy_floor`].
    fn efficiency(&self, t: usize) -> f64 {
        if t <= 1 {
            1.0
        } else {
            self.occupancy_floor + (1.0 - self.occupancy_floor) / (t as f64).sqrt()
        }
    }

    /// Cache/memory-hierarchy penalty for one table: ≥ 1, growing with the
    /// unique working set and the hash size.
    fn cache_penalty(&self, table: &TableProfile, batch_size: u32) -> f64 {
        let lookups = f64::from(batch_size) * table.pooling_factor();
        // Skewed access patterns concentrate on a hot head; the effective
        // working set shrinks as the Zipf exponent grows past uniform.
        let skew_shrink = (-0.5 * (table.zipf_alpha() - 1.0).max(0.0)).exp();
        let unique_rows =
            (table.unique_frac() * lookups * skew_shrink).min(table.hash_size() as f64);
        let ws_bytes = unique_rows * f64::from(table.dim()) * 4.0;
        let spill = 1.0 + self.cache_penalty_max * (1.0 - (-ws_bytes / self.l2_bytes).exp());
        let hash_term = 1.0 + self.hash_penalty_coeff * (table.hash_size() as f64).log2();
        spill * hash_term
    }

    /// Raw (pre-fusion) forward work of one table in milliseconds.
    fn table_work_ms(&self, table: &TableProfile, batch_size: u32) -> f64 {
        let lookups = f64::from(batch_size) * table.pooling_factor();
        let row_ns = self.c_row_ns + self.c_elem_ns * f64::from(table.dim()).powf(self.gamma);
        lookups * row_ns * self.cache_penalty(table, batch_size) * 1e-6
    }

    /// Forward and backward cost of a fused multi-table kernel, in
    /// milliseconds, from one pass over the tables' work.
    ///
    /// An empty table list costs just the launch overhead each way (an
    /// empty device still joins the iteration).
    pub(crate) fn fused_ms(&self, tables: &[TableProfile], batch_size: u32) -> (f64, f64) {
        let raw: f64 = tables
            .iter()
            .map(|t| self.table_work_ms(t, batch_size))
            .sum();
        let eff = self.efficiency(tables.len());
        (
            self.launch_ms + raw * eff,
            self.launch_ms + raw * self.bwd_factor * eff,
        )
    }

    /// Combined forward + backward cost (the quantity the paper's
    /// computation cost model predicts), in milliseconds.
    pub fn multi_cost_ms(&self, tables: &[TableProfile], batch_size: u32) -> f64 {
        let (fwd, bwd) = self.fused_ms(tables, batch_size);
        fwd + bwd
    }

    /// Noisy "measured" combined cost, following the paper's protocol of
    /// taking the median over repeated runs.
    pub fn measure_multi_cost_ms(
        &self,
        tables: &[TableProfile],
        batch_size: u32,
        noise: &NoiseModel,
        repeats: u32,
    ) -> f64 {
        let base = self.multi_cost_ms(tables, batch_size);
        noise.median_measurement(base, repeats, profile_stream(tables))
    }
}

impl Default for KernelParams {
    fn default() -> Self {
        Self::rtx_2080_ti()
    }
}

/// Derives a deterministic noise-stream identifier from a table combination.
pub(crate) fn profile_stream(tables: &[TableProfile]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tables {
        for bits in [
            u64::from(t.dim()),
            t.hash_size(),
            t.pooling_factor().to_bits(),
            t.unique_frac().to_bits(),
            t.zipf_alpha().to_bits(),
        ] {
            h ^= bits;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(dim: u32) -> TableProfile {
        TableProfile::new(dim, 1 << 22, 15.0, 0.3, 1.05)
    }

    #[test]
    fn observation_1_half_costs_more_than_half() {
        let p = KernelParams::rtx_2080_ti();
        for dim in [8u32, 16, 32, 64, 128, 256] {
            let full = p.multi_cost_ms(&[table(dim)], 65_536);
            let (a, _) = table(dim).split_columns().unwrap();
            let half = p.multi_cost_ms(&[a], 65_536);
            assert!(
                half > full / 2.0,
                "dim {dim}: half {half} <= full/2 {}",
                full / 2.0
            );
            // ...but still cheaper than the whole table.
            assert!(half < full, "dim {dim}: half {half} >= full {full}");
        }
    }

    #[test]
    fn observation_2_fused_cheaper_than_sum_of_singles() {
        let p = KernelParams::rtx_2080_ti();
        let tables: Vec<TableProfile> = [4u32, 8, 16, 32, 64, 128, 64, 32, 16, 8]
            .iter()
            .map(|&d| table(d))
            .collect();
        let fused = p.multi_cost_ms(&tables, 65_536);
        let sum: f64 = tables
            .iter()
            .map(|t| p.multi_cost_ms(std::slice::from_ref(t), 65_536))
            .sum();
        assert!(fused < sum, "fused {fused} >= sum {sum}");
        // Non-trivially cheaper: the gap should exceed launch-overhead
        // savings alone.
        let launch_savings = p.launch_ms * 2.0 * (tables.len() - 1) as f64;
        assert!(sum - fused > launch_savings * 2.0);
    }

    #[test]
    fn efficiency_is_monotone_decreasing() {
        let p = KernelParams::rtx_2080_ti();
        let mut prev = p.efficiency(1);
        assert_eq!(prev, 1.0);
        for t in 2..100 {
            let e = p.efficiency(t);
            assert!(e < prev);
            assert!(e >= p.occupancy_floor);
            prev = e;
        }
    }

    #[test]
    fn cost_increases_with_dimension() {
        let p = KernelParams::rtx_2080_ti();
        let mut prev = 0.0;
        for dim in [4u32, 8, 16, 32, 64, 128] {
            let c = p.multi_cost_ms(&[table(dim)], 65_536);
            assert!(c > prev, "dim {dim}");
            prev = c;
        }
    }

    #[test]
    fn cost_increases_with_pooling_factor() {
        let p = KernelParams::rtx_2080_ti();
        let lo = TableProfile::new(64, 1 << 22, 5.0, 0.3, 1.05);
        let hi = TableProfile::new(64, 1 << 22, 50.0, 0.3, 1.05);
        assert!(p.multi_cost_ms(&[hi], 65_536) > p.multi_cost_ms(&[lo], 65_536));
    }

    #[test]
    fn cost_increases_with_hash_size() {
        let p = KernelParams::rtx_2080_ti();
        let small = TableProfile::new(64, 1 << 16, 15.0, 0.3, 1.05);
        let large = TableProfile::new(64, 1 << 26, 15.0, 0.3, 1.05);
        assert!(p.multi_cost_ms(&[large], 65_536) > p.multi_cost_ms(&[small], 65_536));
    }

    #[test]
    fn fewer_unique_indices_cost_less() {
        let p = KernelParams::rtx_2080_ti();
        let hot = TableProfile::new(64, 1 << 24, 15.0, 0.01, 1.05);
        let cold = TableProfile::new(64, 1 << 24, 15.0, 0.9, 1.05);
        assert!(p.multi_cost_ms(&[hot], 65_536) < p.multi_cost_ms(&[cold], 65_536));
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let p = KernelParams::rtx_2080_ti();
        let (fwd, bwd) = p.fused_ms(&[table(64), table(32)], 65_536);
        assert!(bwd > fwd);
    }

    #[test]
    fn calibration_lands_in_paper_range() {
        // ~9 production-like tables on one GPU should cost a few ms to a few
        // tens of ms (Table 1 reports 17-60 ms totals including comm).
        let p = KernelParams::rtx_2080_ti();
        let tables: Vec<TableProfile> = (0..9)
            .map(|i| table(if i % 2 == 0 { 64 } else { 32 }))
            .collect();
        let c = p.multi_cost_ms(&tables, 65_536);
        assert!(c > 2.0 && c < 60.0, "per-GPU compute cost {c} out of range");
    }

    #[test]
    fn measured_cost_is_deterministic_and_near_exact() {
        let p = KernelParams::rtx_2080_ti();
        let ts = vec![table(64)];
        let noise = NoiseModel::new(3, 0.02);
        let a = p.measure_multi_cost_ms(&ts, 65_536, &noise, 11);
        let b = p.measure_multi_cost_ms(&ts, 65_536, &noise, 11);
        assert_eq!(a, b);
        let exact = p.multi_cost_ms(&ts, 65_536);
        assert!((a - exact).abs() / exact < 0.05);
    }

    #[test]
    fn empty_device_costs_only_launch() {
        let p = KernelParams::rtx_2080_ti();
        assert_eq!(p.fused_ms(&[], 65_536).0, p.launch_ms);
    }

    proptest! {
        #[test]
        fn costs_are_finite_positive(
            dims in proptest::collection::vec(1u32..64, 1..20),
            batch in 1u32..200_000,
        ) {
            let p = KernelParams::rtx_2080_ti();
            let tables: Vec<TableProfile> =
                dims.iter().map(|&d| TableProfile::new(d * 4, 1 << 20, 10.0, 0.4, 1.0)).collect();
            let c = p.multi_cost_ms(&tables, batch);
            prop_assert!(c.is_finite() && c > 0.0);
        }

        #[test]
        fn observation_1_holds_generically(
            dim_pow in 3u32..8, // 8..=128, always legally splittable
            rows_pow in 10u32..26,
            pf in 1.0f64..64.0,
            uf in 0.05f64..1.0,
        ) {
            let p = KernelParams::rtx_2080_ti();
            let t = TableProfile::new(1 << dim_pow, 1u64 << rows_pow, pf, uf, 1.0);
            let full = p.multi_cost_ms(&[t], 65_536);
            let (a, _) = t.split_columns().unwrap();
            let half = p.multi_cost_ms(&[a], 65_536);
            prop_assert!(half > full / 2.0);
        }

        #[test]
        fn fused_never_exceeds_sum_of_singles(
            dims in proptest::collection::vec(1u32..32, 2..15),
        ) {
            let p = KernelParams::rtx_2080_ti();
            let tables: Vec<TableProfile> =
                dims.iter().map(|&d| TableProfile::new(d * 4, 1 << 20, 10.0, 0.4, 1.0)).collect();
            let fused = p.multi_cost_ms(&tables, 65_536);
            let sum: f64 = tables
                .iter()
                .map(|t| p.multi_cost_ms(std::slice::from_ref(t), 65_536))
                .sum();
            prop_assert!(fused <= sum);
        }
    }
}
