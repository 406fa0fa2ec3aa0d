//! Random table placement generation (Algorithm 5 of the paper).
//!
//! Table placements are the inputs to the **communication** cost
//! micro-benchmark. Coverage matters along two axes (§3.1):
//!
//! 1. **Degree of balance** — a greedy-with-randomness assignment: with
//!    probability `p` (drawn once per placement) each table goes to the
//!    device with the lowest device dimension so far, otherwise to a random
//!    feasible device. `p ≈ 1` yields balanced placements, `p ≈ 0` heavily
//!    imbalanced ones.
//! 2. **Start-time skew** — each GPU joins the collective at a random
//!    timestamp in `[0, max_start_ms]`, simulating the accumulated delays
//!    of Figure 1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::pool::TablePool;
use crate::table::TableConfig;

/// One benchmarked placement: tables assigned to devices plus per-device
/// collective start timestamps.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Placement {
    /// `assignment[g]` holds the tables placed on GPU `g`.
    pub assignment: Vec<Vec<TableConfig>>,
    /// Per-GPU all-to-all start timestamps in ms.
    pub start_ts_ms: Vec<f64>,
    /// The greedy probability `p` this placement was generated with
    /// (recorded for analysis; higher `p` ⇒ more balanced).
    pub greedy_prob: f64,
}

impl Placement {
    /// Device dimension (sum of table dims) per GPU.
    pub fn device_dims(&self) -> Vec<f64> {
        self.assignment
            .iter()
            .map(|tables| tables.iter().map(|t| f64::from(t.dim())).sum())
            .collect()
    }

    /// Max device dimension across GPUs (the quantity of Observation 3).
    pub fn max_device_dim(&self) -> f64 {
        self.device_dims().into_iter().fold(0.0, f64::max)
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.assignment.len()
    }

    /// Total number of placed tables.
    pub fn num_tables(&self) -> usize {
        self.assignment.iter().map(Vec::len).sum()
    }
}

/// Generates random placements per Algorithm 5.
///
/// # Example
///
/// ```
/// use nshard_data::{PlacementGenerator, TablePool};
///
/// let pool = TablePool::synthetic_dlrm(100, 1);
/// let generator = PlacementGenerator::new(pool, 4, 10, 60);
/// let placements = generator.generate(20, 42);
/// assert_eq!(placements.len(), 20);
/// assert!(placements.iter().all(|p| p.num_devices() == 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementGenerator {
    pool: TablePool,
    num_devices: usize,
    t_min: usize,
    t_max: usize,
    mem_budget_bytes: u64,
    max_start_ms: f64,
}

impl PlacementGenerator {
    /// Creates a generator placing `t_min..=t_max` tables onto
    /// `num_devices` GPUs, with the paper's defaults of a 4 GB memory
    /// budget and start timestamps in `[0, 20]` ms.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty, `num_devices == 0`, `t_min == 0`, or
    /// `t_min > t_max`.
    pub fn new(pool: TablePool, num_devices: usize, t_min: usize, t_max: usize) -> Self {
        assert!(
            !pool.is_empty(),
            "placement generator needs a non-empty pool"
        );
        assert!(num_devices > 0, "need at least one device");
        assert!(t_min > 0 && t_min <= t_max, "invalid table-count range");
        Self {
            pool,
            num_devices,
            t_min,
            t_max,
            mem_budget_bytes: nshard_sim::DEFAULT_MEM_BYTES,
            max_start_ms: 20.0,
        }
    }

    /// Replaces the maximum start-timestamp skew (builder-style).
    pub fn with_max_start_ms(mut self, ms: f64) -> Self {
        self.max_start_ms = ms.max(0.0);
        self
    }

    /// Generates `count` placements, seeded.
    pub fn generate(&self, count: usize, seed: u64) -> Vec<Placement> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| self.generate_one(&mut rng)).collect()
    }

    /// Generates one placement with the supplied RNG (Algorithm 5 body).
    pub fn generate_one(&self, rng: &mut StdRng) -> Placement {
        let t = rng.random_range(self.t_min..=self.t_max);
        let mut tables = self.pool.sample_tables(t, rng);
        // Sort descending by dimension (Algorithm 5, line 6).
        tables.sort_by_key(|t| std::cmp::Reverse(t.dim()));
        let p: f64 = rng.random();

        let mut assignment: Vec<Vec<TableConfig>> = vec![Vec::new(); self.num_devices];
        let mut dims = vec![0u64; self.num_devices];
        let mut mem = vec![0u64; self.num_devices];
        for table in tables {
            let bytes = table.memory_bytes();
            let candidates: Vec<usize> = (0..self.num_devices)
                .filter(|&g| mem[g] + bytes <= self.mem_budget_bytes)
                .collect();
            if candidates.is_empty() {
                // No feasible device: drop the table (the micro-benchmark
                // only needs *a* valid placement, not this exact table).
                continue;
            }
            let g = if rng.random::<f64>() < p {
                *candidates
                    .iter()
                    .min_by_key(|&&g| dims[g])
                    .expect("candidates non-empty")
            } else {
                candidates[rng.random_range(0..candidates.len())]
            };
            dims[g] += u64::from(table.dim());
            mem[g] += bytes;
            assignment[g].push(table);
        }

        let start_ts_ms = (0..self.num_devices)
            .map(|_| rng.random::<f64>() * self.max_start_ms)
            .collect();
        Placement {
            assignment,
            start_ts_ms,
            greedy_prob: p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(d: usize) -> PlacementGenerator {
        PlacementGenerator::new(TablePool::synthetic_dlrm(200, 5), d, 10, 60)
    }

    #[test]
    fn generates_requested_count_and_shape() {
        let ps = generator(4).generate(25, 1);
        assert_eq!(ps.len(), 25);
        for p in &ps {
            assert_eq!(p.num_devices(), 4);
            assert_eq!(p.start_ts_ms.len(), 4);
            assert!(p.start_ts_ms.iter().all(|&s| (0.0..=20.0).contains(&s)));
            assert!((0.0..=1.0).contains(&p.greedy_prob));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generator(4);
        assert_eq!(g.generate(5, 3), g.generate(5, 3));
        assert_ne!(g.generate(5, 3), g.generate(5, 4));
    }

    #[test]
    fn memory_budget_is_respected() {
        let budget = 64 * 1024 * 1024; // tiny: 64 MB
        let g = PlacementGenerator {
            mem_budget_bytes: budget,
            ..generator(4)
        };
        for p in g.generate(10, 7) {
            for device in &p.assignment {
                let bytes: u64 = device.iter().map(TableConfig::memory_bytes).sum();
                assert!(bytes <= budget);
            }
        }
    }

    #[test]
    fn high_greedy_prob_balances_better_on_average() {
        // Generate many placements; those with high p should have lower
        // dimension imbalance than those with low p.
        let g = generator(4);
        let ps = g.generate(300, 11);
        let imbalance = |p: &Placement| {
            let dims = p.device_dims();
            let max = dims.iter().cloned().fold(0.0, f64::max);
            let min = dims.iter().cloned().fold(f64::INFINITY, f64::min);
            max - min
        };
        let (hi, lo): (Vec<&Placement>, Vec<&Placement>) =
            ps.iter().partition(|p| p.greedy_prob > 0.8);
        let hi_ps: Vec<&&Placement> = hi.iter().filter(|p| p.greedy_prob > 0.8).collect();
        let lo_ps: Vec<&&Placement> = lo.iter().filter(|p| p.greedy_prob < 0.2).collect();
        assert!(!hi_ps.is_empty() && !lo_ps.is_empty());
        let mean = |v: &[&&Placement]| v.iter().map(|p| imbalance(p)).sum::<f64>() / v.len() as f64;
        assert!(mean(&hi_ps) < mean(&lo_ps));
    }

    #[test]
    fn max_start_can_be_customized() {
        let g = generator(2).with_max_start_ms(0.0);
        for p in g.generate(5, 1) {
            assert!(p.start_ts_ms.iter().all(|&s| s == 0.0));
        }
    }

    #[test]
    fn placement_accessors() {
        let g = generator(4);
        let p = &g.generate(1, 9)[0];
        assert_eq!(p.device_dims().len(), 4);
        assert!(p.max_device_dim() >= p.device_dims()[0]);
        assert!(p.num_tables() <= 60);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_panics() {
        let _ = PlacementGenerator::new(TablePool::synthetic_dlrm(5, 1), 0, 1, 2);
    }
}
