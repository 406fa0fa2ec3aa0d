//! Seeded workload-drift generation.
//!
//! The paper solves a *static* sharding problem: a task's pooling factors,
//! hash sizes and access skews are fixed, a plan is found once, and the
//! story ends. Production traffic is not static — id spaces grow,
//! campaigns move hotspots across tables, and diurnal cycles swing lookup
//! volume — so a plan that was optimal at deploy time slowly becomes a
//! straggler magnet. This module substitutes that missing real traffic
//! with **composable, seeded drift models** that evolve a
//! [`ShardingTask`]'s per-table workload over discrete epochs, the same
//! band-2 substitution rationale as the ground-truth simulator itself (see
//! DESIGN.md §1 and §8).
//!
//! Every model is a *pure function* of `(seed, epoch, table index)` — no
//! RNG streams, no mutable state — so `task_at(e)` is bit-deterministic
//! for any call order, any thread count and any subset of epochs queried.

use serde::{Deserialize, Serialize};

use nshard_data::{ShardingTask, TableConfig};
use nshard_pool::splitmix64;

/// Multiplicative / additive adjustments one epoch applies to one table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftFactors {
    /// Multiplier on the mean pooling factor (indices per lookup).
    pub pooling_mul: f64,
    /// Multiplier on the hash size (rows of the id space).
    pub rows_mul: f64,
    /// Additive shift of the Zipf exponent (access-skew sharpening).
    pub alpha_add: f64,
}

impl DriftFactors {
    /// The identity adjustment (no drift).
    pub fn identity() -> Self {
        Self {
            pooling_mul: 1.0,
            rows_mul: 1.0,
            alpha_add: 0.0,
        }
    }

    /// Composes two adjustments (multipliers multiply, shifts add).
    #[must_use]
    pub fn compose(self, other: Self) -> Self {
        Self {
            pooling_mul: self.pooling_mul * other.pooling_mul,
            rows_mul: self.rows_mul * other.rows_mul,
            alpha_add: self.alpha_add + other.alpha_add,
        }
    }
}

/// One composable drift model. A [`WorkloadDrift`] applies a stack of
/// these; their per-table [`DriftFactors`] compose multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DriftModel {
    /// Compounding growth: pooling factors and id spaces grow by a fixed
    /// fraction per epoch (new users, new items).
    GradualGrowth {
        /// Fractional pooling-factor growth per epoch (e.g. `0.03`).
        pooling_rate: f64,
        /// Fractional hash-size growth per epoch (e.g. `0.02`).
        rows_rate: f64,
    },
    /// A hot window of tables that rotates across the pool: tables inside
    /// the window see boosted pooling and sharpened skew (a campaign or
    /// product surface moving through the catalog).
    HotspotShift {
        /// Epochs for the hotspot to sweep the whole pool once.
        period: u64,
        /// Pooling-factor multiplier inside the hot window (e.g. `2.5`).
        boost: f64,
        /// Fraction of the pool inside the window, in `(0, 1]`.
        width: f64,
        /// Zipf-exponent shift inside the window (e.g. `0.2`).
        skew_shift: f64,
    },
    /// A smooth sinusoidal swing of pooling factors with a per-table phase
    /// (day/night cycles hitting geographic table groups at offset times).
    Diurnal {
        /// Peak fractional swing (e.g. `0.3` for ±30%).
        amplitude: f64,
        /// Epochs per full cycle.
        period: f64,
    },
    /// A sudden, temporary spike on a seeded subset of tables (a flash
    /// event): pooling factors jump by `factor` for `duration` epochs.
    SuddenSpike {
        /// First epoch of the spike.
        at_epoch: u64,
        /// Number of epochs the spike lasts.
        duration: u64,
        /// Pooling-factor multiplier during the spike (e.g. `4.0`).
        factor: f64,
        /// Fraction of tables affected, chosen by seeded hash.
        fraction: f64,
    },
}

/// A deterministic uniform in `[0, 1)` from `(seed, tag, index)`.
fn hash01(seed: u64, tag: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(tag) ^ splitmix64(index).rotate_left(17));
    // 53 mantissa bits — exactly representable, bit-deterministic.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl DriftModel {
    /// The adjustment this model applies to table `index` (of `n_tables`)
    /// at `epoch`, under `seed`. Pure: same arguments, same bits.
    pub fn factors_at(&self, seed: u64, epoch: u64, index: usize, n_tables: usize) -> DriftFactors {
        let mut f = DriftFactors::identity();
        match *self {
            DriftModel::GradualGrowth {
                pooling_rate,
                rows_rate,
            } => {
                f.pooling_mul = (1.0 + pooling_rate).powi(epoch as i32);
                f.rows_mul = (1.0 + rows_rate).powi(epoch as i32);
            }
            DriftModel::HotspotShift {
                period,
                boost,
                width,
                skew_shift,
            } => {
                let n = n_tables.max(1) as f64;
                let period = period.max(1) as f64;
                // Window center sweeps the pool once per `period` epochs.
                let center = (epoch as f64 / period).fract() * n;
                let half_width = (width.clamp(0.0, 1.0) * n) / 2.0;
                // Circular distance from the window center.
                let d = (index as f64 - center).abs();
                let d = d.min(n - d);
                if d <= half_width {
                    f.pooling_mul = boost;
                    f.alpha_add = skew_shift;
                }
            }
            DriftModel::Diurnal { amplitude, period } => {
                let phase = hash01(seed, 0xD1_0B_1A_57, index as u64);
                let angle =
                    std::f64::consts::TAU * (epoch as f64 / period.max(f64::EPSILON) + phase);
                f.pooling_mul = 1.0 + amplitude * angle.sin();
            }
            DriftModel::SuddenSpike {
                at_epoch,
                duration,
                factor,
                fraction,
            } => {
                let active = epoch >= at_epoch && epoch < at_epoch.saturating_add(duration);
                if active && hash01(seed, 0x5B_1C_E5_17, index as u64) < fraction {
                    f.pooling_mul = factor;
                }
            }
        }
        f
    }
}

/// A seeded drift trace: a base task plus a stack of drift models.
///
/// `task_at(0)` returns the base task unchanged only if every model is
/// neutral at epoch 0 (gradual growth is; a diurnal term generally is
/// not) — the *deployment* workload is whatever `task_at(0)` says.
///
/// # Example
///
/// ```
/// use nshard_data::{ShardingTask, TablePool};
/// use nshard_online::drift::{DriftModel, WorkloadDrift};
///
/// let pool = TablePool::synthetic_dlrm(64, 7);
/// let base = ShardingTask::sample(&pool, 4, 16..=16, 64, 7);
/// let drift = WorkloadDrift::new(base, 42)
///     .with_model(DriftModel::GradualGrowth { pooling_rate: 0.05, rows_rate: 0.01 });
/// let later = drift.task_at(10);
/// assert_eq!(later.num_tables(), drift.base().num_tables());
/// assert!(later.tables()[0].pooling_factor() > drift.base().tables()[0].pooling_factor());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDrift {
    base: ShardingTask,
    models: Vec<DriftModel>,
    seed: u64,
}

/// Pooling factors are clamped to this range after drift (a table never
/// goes fully cold, and never exceeds production-plausible fan-out).
const POOLING_CLAMP: (f64, f64) = (0.5, 512.0);

/// Hash sizes are clamped to at least this many rows after drift.
const MIN_ROWS: u64 = 64;

impl WorkloadDrift {
    /// A drift trace over `base` with no models (every epoch identical).
    pub fn new(base: ShardingTask, seed: u64) -> Self {
        Self {
            base,
            models: Vec::new(),
            seed,
        }
    }

    /// Appends a drift model (builder-style; factors compose).
    #[must_use]
    pub fn with_model(mut self, model: DriftModel) -> Self {
        self.models.push(model);
        self
    }

    /// The canonical mixed trace used by the example and benchmark: slow
    /// compounding growth, a rotating hotspot, a diurnal swing, and one
    /// mid-trace spike. Deterministic per seed.
    pub fn standard(base: ShardingTask, seed: u64) -> Self {
        Self::new(base, seed)
            .with_model(DriftModel::GradualGrowth {
                pooling_rate: 0.03,
                rows_rate: 0.015,
            })
            .with_model(DriftModel::HotspotShift {
                period: 16,
                boost: 2.5,
                width: 0.2,
                skew_shift: 0.15,
            })
            .with_model(DriftModel::Diurnal {
                amplitude: 0.25,
                period: 8.0,
            })
            .with_model(DriftModel::SuddenSpike {
                at_epoch: 10,
                duration: 3,
                factor: 3.0,
                fraction: 0.15,
            })
    }

    /// The base (epoch-0 reference) task.
    pub fn base(&self) -> &ShardingTask {
        &self.base
    }

    /// The drift models, in composition order.
    pub fn models(&self) -> &[DriftModel] {
        &self.models
    }

    /// The seed behind every stochastic choice.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The composed adjustment for table `index` at `epoch`.
    pub fn factors_at(&self, epoch: u64, index: usize) -> DriftFactors {
        let n = self.base.num_tables();
        self.models
            .iter()
            .fold(DriftFactors::identity(), |acc, model| {
                acc.compose(model.factors_at(self.seed, epoch, index, n))
            })
    }

    /// The workload at `epoch`: the base task with every table's pooling
    /// factor, hash size and Zipf skew adjusted by the composed drift
    /// factors. Table count, ids, dimensions, batch size and the device
    /// fleet never change — drift evolves traffic, not the fleet.
    /// Bit-deterministic per `(base, models, seed, epoch)`.
    pub fn task_at(&self, epoch: u64) -> ShardingTask {
        let tables: Vec<TableConfig> = self
            .base
            .tables()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let f = self.factors_at(epoch, i);
                let pooling =
                    (t.pooling_factor() * f.pooling_mul).clamp(POOLING_CLAMP.0, POOLING_CLAMP.1);
                let rows = ((t.hash_size() as f64 * f.rows_mul) as u64).max(MIN_ROWS);
                let alpha = t.zipf_alpha() + f.alpha_add;
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

    #[test]
    fn no_models_means_no_drift() {
        let drift = WorkloadDrift::new(base(), 1);
        assert_eq!(drift.task_at(0), *drift.base());
        assert_eq!(drift.task_at(17), *drift.base());
    }

    #[test]
    fn gradual_growth_compounds() {
        let drift = WorkloadDrift::new(base(), 1).with_model(DriftModel::GradualGrowth {
            pooling_rate: 0.1,
            rows_rate: 0.05,
        });
        let t0 = drift.task_at(0);
        let t5 = drift.task_at(5);
        for (a, b) in t0.tables().iter().zip(t5.tables()) {
            assert!(b.pooling_factor() > a.pooling_factor());
            assert!(b.hash_size() >= a.hash_size());
            assert_eq!(a.dim(), b.dim());
            assert_eq!(a.id(), b.id());
        }
        // Epoch 0 of gradual growth is the identity.
        assert_eq!(t0, *drift.base());
    }

    #[test]
    fn hotspot_window_boosts_a_subset() {
        let drift = WorkloadDrift::new(base(), 1).with_model(DriftModel::HotspotShift {
            period: 10,
            boost: 3.0,
            width: 0.25,
            skew_shift: 0.2,
        });
        let t = drift.task_at(4);
        let boosted = t
            .tables()
            .iter()
            .zip(drift.base().tables())
            .filter(|(now, then)| now.pooling_factor() > then.pooling_factor())
            .count();
        assert!(boosted > 0, "some window must be hot");
        assert!(boosted < t.num_tables(), "the window must not cover all");
    }

    #[test]
    fn hotspot_rotates_over_time() {
        let drift = WorkloadDrift::new(base(), 1).with_model(DriftModel::HotspotShift {
            period: 8,
            boost: 3.0,
            width: 0.2,
            skew_shift: 0.0,
        });
        let hot = |epoch: u64| -> Vec<usize> {
            drift
                .task_at(epoch)
                .tables()
                .iter()
                .zip(drift.base().tables())
                .enumerate()
                .filter(|(_, (now, then))| now.pooling_factor() > then.pooling_factor())
                .map(|(i, _)| i)
                .collect()
        };
        assert_ne!(hot(0), hot(3), "the hot window must move");
    }

    #[test]
    fn spike_is_temporary_and_partial() {
        let drift = WorkloadDrift::new(base(), 9).with_model(DriftModel::SuddenSpike {
            at_epoch: 5,
            duration: 2,
            factor: 4.0,
            fraction: 0.3,
        });
        assert_eq!(drift.task_at(4), *drift.base());
        assert_eq!(drift.task_at(7), *drift.base());
        let spiked: Vec<bool> = drift
            .task_at(5)
            .tables()
            .iter()
            .zip(drift.base().tables())
            .map(|(now, then)| now.pooling_factor() > then.pooling_factor())
            .collect();
        assert!(spiked.iter().any(|&s| s));
        assert!(!spiked.iter().all(|&s| s));
        // The same subset spikes on both epochs of the window.
        let spiked6: Vec<bool> = drift
            .task_at(6)
            .tables()
            .iter()
            .zip(drift.base().tables())
            .map(|(now, then)| now.pooling_factor() > then.pooling_factor())
            .collect();
        assert_eq!(spiked, spiked6);
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
            prop_assert_eq!(task.num_tables(), drift.base().num_tables());
            for t in task.tables() {
                prop_assert!(t.pooling_factor() >= POOLING_CLAMP.0);
                prop_assert!(t.pooling_factor() <= POOLING_CLAMP.1);
                prop_assert!(t.hash_size() >= MIN_ROWS);
            }
        }
    }
}
