//! Seeded workload-drift generation.
//!
//! The paper solves a *static* sharding problem: a task's pooling factors,
//! hash sizes and access skews are fixed, a plan is found once, and the
//! story ends. Production traffic is not static — id spaces grow,
//! campaigns move hotspots across tables, and diurnal cycles swing lookup
//! volume — so a plan that was optimal at deploy time slowly becomes a
//! straggler magnet. This module substitutes that missing real traffic
//! with **one seeded drift trace** that evolves a [`ShardingTask`]'s
//! per-table workload over discrete epochs, the same band-2 substitution
//! rationale as the ground-truth simulator itself (see DESIGN.md §1 and
//! §8).
//!
//! The trace composes four effects — gradual growth, a rotating hotspot,
//! a diurnal swing and a sudden spike — each a *pure function* of
//! `(seed, epoch, table index)`: no RNG streams, no mutable state, so
//! `task_at(e)` is bit-deterministic for any call order, any thread count
//! and any subset of epochs queried.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use nshard_data::{ShardingTask, TableConfig};
use nshard_pool::splitmix64;

/// Gradual growth: pooling factors and id spaces compound by these
/// fractions per epoch (new users, new items).
const GROWTH_POOLING: f64 = 0.03;
const GROWTH_ROWS: f64 = 0.015;

/// A hot window of tables sweeps the pool once per `HOTSPOT_PERIOD`
/// epochs (a campaign moving through the catalog): the `HOTSPOT_WIDTH`
/// fraction of tables inside it sees its pooling multiplied by
/// `HOTSPOT_BOOST` and its Zipf exponent shifted by `HOTSPOT_SKEW`.
const HOTSPOT_PERIOD: u64 = 16;
const HOTSPOT_WIDTH: f64 = 0.2;
const HOTSPOT_BOOST: f64 = 2.5;
const HOTSPOT_SKEW: f64 = 0.15;

/// A diurnal swing: pooling moves by up to ±`DIURNAL_AMPLITUDE` over a
/// `DIURNAL_PERIOD`-epoch cycle, at a seeded phase per table (day/night
/// hitting geographic table groups at offset times).
const DIURNAL_AMPLITUDE: f64 = 0.25;
const DIURNAL_PERIOD: f64 = 8.0;

/// A sudden spike (a flash event): during `SPIKE_EPOCHS` a seeded
/// `SPIKE_FRACTION` of tables sees its pooling multiplied by
/// `SPIKE_FACTOR`.
const SPIKE_EPOCHS: Range<u64> = 10..13;
const SPIKE_FACTOR: f64 = 3.0;
const SPIKE_FRACTION: f64 = 0.15;

/// A deterministic uniform in `[0, 1)` from `(seed, tag, index)`.
fn hash01(seed: u64, tag: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(tag) ^ splitmix64(index).rotate_left(17));
    // 53 mantissa bits — exactly representable, bit-deterministic.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded drift trace over a base task: slow compounding growth, a
/// rotating hotspot, a diurnal swing and one mid-trace spike.
///
/// `task_at(0)` is not the base task in general (a diurnal term is not
/// neutral at epoch 0) — the *deployment* workload is whatever
/// `task_at(0)` says.
///
/// # Example
///
/// ```
/// use nshard_data::{ShardingTask, TablePool};
/// use nshard_online::WorkloadDrift;
///
/// let pool = TablePool::synthetic_dlrm(64, 7);
/// let base = ShardingTask::sample(&pool, 4, 16..=16, 64, 7);
/// let drift = WorkloadDrift::standard(base.clone(), 42);
/// let later = drift.task_at(10);
/// assert_eq!(later.num_tables(), base.num_tables());
/// assert!(later.tables()[0].hash_size() > base.tables()[0].hash_size());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDrift {
    base: ShardingTask,
    seed: u64,
}

/// Pooling factors are clamped to this range after drift (a table never
/// goes fully cold, and never exceeds production-plausible fan-out).
const POOLING_CLAMP: (f64, f64) = (0.5, 512.0);

/// Hash sizes are clamped to at least this many rows after drift.
const MIN_ROWS: u64 = 64;

impl WorkloadDrift {
    /// The drift trace over `base`, deterministic per seed.
    pub fn standard(base: ShardingTask, seed: u64) -> Self {
        Self { base, seed }
    }

    /// Table `index`'s adjustment at `epoch`: (pooling multiplier,
    /// hash-size multiplier, Zipf-exponent shift). The pooling multiplier
    /// is growth × hotspot × diurnal × spike, in that order — the
    /// product's rounding is part of the trace.
    fn factors(&self, epoch: u64, index: usize) -> (f64, f64, f64) {
        let growth = (1.0 + GROWTH_POOLING).powi(epoch as i32);
        let rows = (1.0 + GROWTH_ROWS).powi(epoch as i32);

        let n = self.base.num_tables().max(1) as f64;
        // The window center sweeps the pool once per period; the distance
        // to it is circular.
        let center = (epoch as f64 / HOTSPOT_PERIOD as f64).fract() * n;
        let half_width = (HOTSPOT_WIDTH * n) / 2.0;
        let d = (index as f64 - center).abs();
        let (hotspot, skew) = if d.min(n - d) <= half_width {
            (HOTSPOT_BOOST, HOTSPOT_SKEW)
        } else {
            (1.0, 0.0)
        };

        let phase = hash01(self.seed, 0xD1_0B_1A_57, index as u64);
        let angle = std::f64::consts::TAU * (epoch as f64 / DIURNAL_PERIOD + phase);
        let diurnal = 1.0 + DIURNAL_AMPLITUDE * angle.sin();

        let spiked = SPIKE_EPOCHS.contains(&epoch)
            && hash01(self.seed, 0x5B_1C_E5_17, index as u64) < SPIKE_FRACTION;
        let spike = if spiked { SPIKE_FACTOR } else { 1.0 };

        (growth * hotspot * diurnal * spike, rows, skew)
    }

    /// The workload at `epoch`: the base task with every table's pooling
    /// factor, hash size and Zipf skew adjusted by the trace. Table count,
    /// ids, dimensions, batch size and the device fleet never change —
    /// drift evolves traffic, not the fleet. Bit-deterministic per
    /// `(base, seed, epoch)`.
    pub fn task_at(&self, epoch: u64) -> ShardingTask {
        let tables: Vec<TableConfig> = self
            .base
            .tables()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (pooling_mul, rows_mul, alpha_add) = self.factors(epoch, i);
                let pooling =
                    (t.pooling_factor() * pooling_mul).clamp(POOLING_CLAMP.0, POOLING_CLAMP.1);
                let rows = ((t.hash_size() as f64 * rows_mul) as u64).max(MIN_ROWS);
                let alpha = t.zipf_alpha() + alpha_add;
                t.with_pooling_factor(pooling)
                    .with_hash_size(rows)
                    .with_zipf_alpha(alpha)
            })
            .collect();
        self.base.clone().with_tables(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::TablePool;
    use proptest::prelude::*;

    fn base() -> ShardingTask {
        let pool = TablePool::synthetic_dlrm(40, 3);
        ShardingTask::sample(&pool, 2, 12..=12, 64, 3)
    }

    /// `task_at`'s JSON over three pools, five seeds and sixteen epochs
    /// (the spike included), hashed; the digest was recorded when the
    /// trace was a stack of four composable models. Multiplying the spike
    /// before the diurnal swing moves it (to `9f96226c24ee6c4d`).
    #[test]
    fn standard_trace_keeps_the_parent_bits() {
        let mut digest = nshard_nn::serialize::fnv64(&[]);
        for (pool_seed, gpus) in [(3u64, 2usize), (11, 4), (29, 8)] {
            let pool = TablePool::synthetic_dlrm(120, pool_seed);
            let base = ShardingTask::sample(&pool, gpus, 24..=40, 64, pool_seed);
            for seed in 0..5 {
                let drift = WorkloadDrift::standard(base.clone(), seed);
                for epoch in 0..16 {
                    let json = serde_json::to_string(&drift.task_at(epoch)).unwrap();
                    digest = nshard_nn::serialize::fnv64_extend(digest, json.as_bytes());
                }
            }
        }
        assert_eq!(format!("{digest:016x}"), "6ef008e0c8be65cb");
    }

    /// Growth is the only effect on hash sizes, and it compounds; sixteen
    /// epochs apart outside the spike, the hotspot window and the diurnal
    /// phase repeat, so pooling grows by the compounded rate alone.
    #[test]
    fn gradual_growth_compounds() {
        let drift = WorkloadDrift::standard(base(), 1);
        for (i, t) in base().tables().iter().enumerate() {
            assert_eq!(drift.factors(0, i).1, 1.0, "epoch 0 is the base id space");
            assert_eq!(drift.task_at(0).tables()[i].hash_size(), t.hash_size());
            let rows: Vec<u64> = (0..8)
                .map(|e| drift.task_at(e).tables()[i].hash_size())
                .collect();
            assert!(rows.windows(2).all(|w| w[0] <= w[1]), "table {i}: {rows:?}");
            assert!(rows[7] > rows[0]);
            let ratio = drift.factors(17, i).0 / drift.factors(1, i).0;
            let expected = (1.0 + GROWTH_POOLING).powi(16);
            assert!((ratio / expected - 1.0).abs() < 1e-9, "table {i}: {ratio}");
        }
    }

    /// The tables whose Zipf exponent moved at `epoch`: the hotspot is the
    /// only effect on skew, and it shifts it by exactly `HOTSPOT_SKEW`.
    fn hot_tables(drift: &WorkloadDrift, epoch: u64) -> Vec<usize> {
        let task = drift.task_at(epoch);
        let mut hot = Vec::new();
        for (i, (now, then)) in task.tables().iter().zip(base().tables()).enumerate() {
            if now.zipf_alpha() != then.zipf_alpha() {
                assert_eq!(now.zipf_alpha(), then.zipf_alpha() + HOTSPOT_SKEW);
                hot.push(i);
            }
        }
        hot
    }

    /// Eight epochs apart the diurnal phase repeats and the window has
    /// moved half the pool, so a table hot only at the earlier epoch
    /// loses exactly the boost.
    #[test]
    fn hotspot_window_boosts_a_subset() {
        let drift = WorkloadDrift::standard(base(), 1);
        let unboosted = (1.0 + GROWTH_POOLING).powi(8) / HOTSPOT_BOOST;
        for epoch in [0, 1, 9] {
            let hot = hot_tables(&drift, epoch);
            assert!(!hot.is_empty(), "epoch {epoch}: some window must be hot");
            assert!(
                hot.len() < base().num_tables(),
                "the window must not cover all"
            );
            let later = hot_tables(&drift, epoch + 8);
            for &i in &hot {
                assert!(!later.contains(&i));
                let ratio = drift.factors(epoch + 8, i).0 / drift.factors(epoch, i).0;
                assert!((ratio / unboosted - 1.0).abs() < 1e-9, "table {i}: {ratio}");
            }
        }
    }

    #[test]
    fn hotspot_rotates_over_time() {
        let drift = WorkloadDrift::standard(base(), 1);
        assert_ne!(
            hot_tables(&drift, 0),
            hot_tables(&drift, 3),
            "the hot window must move"
        );
        assert_eq!(
            hot_tables(&drift, 3),
            hot_tables(&drift, 19),
            "and sweep once per period"
        );
    }

    /// Sixteen epochs apart, pooling differs by growth alone — unless the
    /// spike is on at the earlier epoch.
    #[test]
    fn spike_is_temporary_and_partial() {
        let drift = WorkloadDrift::standard(base(), 9);
        let growth = (1.0 + GROWTH_POOLING).powi(16);
        let spiked = |epoch: u64| -> Vec<bool> {
            (0..base().num_tables())
                .map(|i| drift.factors(epoch + 16, i).0 / drift.factors(epoch, i).0 < growth / 2.0)
                .collect()
        };
        assert!(spiked(SPIKE_EPOCHS.start - 1).iter().all(|&s| !s));
        assert!(spiked(SPIKE_EPOCHS.end).iter().all(|&s| !s));
        let first = spiked(SPIKE_EPOCHS.start);
        assert!(first.iter().any(|&s| s));
        assert!(!first.iter().all(|&s| s));
        // The same subset spikes on every epoch of the window.
        for epoch in SPIKE_EPOCHS {
            assert_eq!(spiked(epoch), first, "epoch {epoch}");
        }
    }

    #[test]
    fn trace_is_bit_deterministic_and_order_independent() {
        let a = WorkloadDrift::standard(base(), 77);
        let b = WorkloadDrift::standard(base(), 77);
        // Query epochs in different orders; bits must match exactly.
        let fwd: Vec<ShardingTask> = (0..12).map(|e| a.task_at(e)).collect();
        let bwd: Vec<ShardingTask> = (0..12).rev().map(|e| b.task_at(e)).collect();
        for (e, task) in fwd.iter().enumerate() {
            assert_eq!(*task, bwd[11 - e], "epoch {e} diverged");
        }
    }

    #[test]
    fn drifted_tasks_keep_the_device_pool() {
        use nshard_data::DevicePool;
        let pooled = base().with_devices(DevicePool::two_tier(1, 4 << 30, 1, 1 << 30, 2.0, 0.25));
        let drift = WorkloadDrift::standard(pooled.clone(), 3);
        for epoch in [0, 1, 9] {
            let t = drift.task_at(epoch);
            assert_eq!(
                t.devices(),
                pooled.devices(),
                "epoch {epoch} changed the fleet"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = WorkloadDrift::standard(base(), 1).task_at(6);
        let b = WorkloadDrift::standard(base(), 2).task_at(6);
        assert_ne!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let drift = WorkloadDrift::standard(base(), 5);
        let json = serde_json::to_string(&drift).unwrap();
        let back: WorkloadDrift = serde_json::from_str(&json).unwrap();
        assert_eq!(drift, back);
        assert_eq!(drift.task_at(9), back.task_at(9));
    }

    proptest! {
        #[test]
        fn drifted_tasks_are_always_constructible(seed: u64, epoch in 0u64..200) {
            let drift = WorkloadDrift::standard(base(), seed);
            let task = drift.task_at(epoch);
            prop_assert_eq!(task.num_tables(), base().num_tables());
            for t in task.tables() {
                prop_assert!(t.pooling_factor() >= POOLING_CLAMP.0);
                prop_assert!(t.pooling_factor() <= POOLING_CLAMP.1);
                prop_assert!(t.hash_size() >= MIN_ROWS);
            }
        }
    }
}
