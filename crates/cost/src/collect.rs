//! Micro-benchmark data collection (the reproduction's PARAM benchmarks).
//!
//! Drives the ground-truth simulator with the synthetic inputs of §3.1
//! (Algorithms 3–5) to produce labeled training data for the three cost
//! models, exactly as the paper collects costs from real GPUs.
//!
//! ## Parallel collection
//!
//! Sample `i` of a run seeded with `seed` draws from its own RNG seeded
//! with [`nshard_pool::sample_seed`]`(seed, i)`, and the simulator's noise
//! model is a pure function of its stream id — no sequential RNG state is
//! shared across samples. Collection therefore fans out over a
//! [`WorkPool`] and the resulting dataset is **bit-identical** at any
//! [`CollectConfig::threads`] setting, including the serial `threads = 1`.

use nshard_pool::{sample_seed, WorkPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use nshard_data::{augment_pool, CombinationGenerator, PlacementGenerator, TablePool, PAPER_DIMS};
use nshard_nn::{Dataset, Matrix};
use nshard_sim::{CommDirection, CommParams, KernelParams, NoiseModel};

use crate::features::{comm_features, table_features};

/// Measurement repeats per label (the median is taken).
const REPEATS: u32 = 11;
/// Relative measurement noise.
const NOISE_SIGMA: f64 = 0.02;
/// Min/max tables per combination (Algorithm 4; the paper's 1–15).
const COMBO_TABLES: (usize, usize) = (1, 15);

/// Configuration of the data-collection run. Tables are augmented over
/// [`PAPER_DIMS`] (Algorithm 3), combinations hold 1–15 of them
/// (Algorithm 4) and placements start at random timestamps of up to 20 ms
/// (the [`PlacementGenerator`] default) — the paper's values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectConfig {
    /// Number of computation-cost samples (paper default 100 K; the crate
    /// default is smaller because Figure 8 shows ~10³–10⁴ already saturates
    /// sharding quality).
    pub compute_samples: usize,
    /// Number of communication-cost samples.
    pub comm_samples: usize,
    /// Min/max tables per placement (Algorithm 5; paper: 10–60 for 4 GPUs,
    /// 20–120 for 8 GPUs). When `None`, scaled from the device count.
    pub placement_tables: Option<(usize, usize)>,
    /// Batch size of the simulated workload.
    pub batch_size: u32,
    /// Worker threads for label collection; `0` = auto (the
    /// `NSHARD_THREADS` environment variable, then available parallelism,
    /// via [`nshard_pool::resolve_threads`]). Collected datasets are
    /// bit-identical at any setting. A pre-train collects its compute
    /// labels over these workers and its comm labels on one thread, beside
    /// the compute fit ([`crate::CostModelBundle::pretrain_with_spec`]).
    pub threads: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        Self {
            compute_samples: 8_000,
            comm_samples: 6_000,
            placement_tables: None,
            batch_size: nshard_sim::DEFAULT_BATCH_SIZE,
            threads: 0,
        }
    }
}

impl CollectConfig {
    /// The paper's full-scale configuration (100 K samples per model).
    pub fn paper_scale() -> Self {
        Self {
            compute_samples: 100_000,
            comm_samples: 100_000,
            ..Self::default()
        }
    }

    /// A reduced configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Self {
            compute_samples: 400,
            comm_samples: 400,
            ..Self::default()
        }
    }

    /// Placement table range: explicit override or the paper's scaling
    /// (`10·D/4 .. 60·D/4`, clamped to at least 2).
    pub(crate) fn placement_range(&self, num_devices: usize) -> (usize, usize) {
        self.placement_tables.unwrap_or_else(|| {
            let lo = (10 * num_devices / 4).max(2);
            let hi = (60 * num_devices / 4).max(lo + 1);
            (lo, hi)
        })
    }
}

/// One computation-cost training sample: per-table feature vectors plus the
/// measured fused-kernel cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeSample {
    /// Feature vectors, one per table in the combination.
    pub tables: Vec<Vec<f32>>,
    /// Measured forward+backward cost in ms.
    pub cost_ms: f32,
}

/// A collected computation-cost dataset.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ComputeDataset {
    /// The samples.
    pub samples: Vec<ComputeSample>,
}

impl ComputeDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Shuffled 80/10/10 split, seeded: the samples [`nshard_nn::partition`]
    /// picks, as `[train, valid, test]` — the shape of [`Dataset::split`].
    pub fn split(&self, seed: u64) -> [ComputeDataset; 3] {
        nshard_nn::partition(self.len(), seed).map(|picked| ComputeDataset {
            samples: picked.iter().map(|&i| self.samples[i].clone()).collect(),
        })
    }
}

/// Collects computation-cost data: random table combinations (Algorithm 4)
/// over the augmented pool (Algorithm 3), labeled by the simulated fused
/// multi-table kernel.
///
/// Samples fan out over a [`WorkPool`] sized by [`CollectConfig::threads`];
/// sample `i` is generated from its own RNG seeded with
/// [`sample_seed`]`(seed, i)`, so the dataset does not depend on the worker
/// count or completion order.
pub fn collect_compute_data(
    pool: &TablePool,
    kernel: &KernelParams,
    config: &CollectConfig,
    seed: u64,
) -> ComputeDataset {
    let augmented = augment_pool(pool, &PAPER_DIMS);
    let generator = CombinationGenerator::new(augmented, COMBO_TABLES.0, COMBO_TABLES.1);
    let noise = NoiseModel::new(seed ^ 0xC0FFEE, NOISE_SIGMA);
    let workers = WorkPool::new(config.threads);
    let indices: Vec<u64> = (0..config.compute_samples as u64).collect();
    let samples = workers.map(&indices, |&i| {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
        let combo = generator.generate_one(&mut rng);
        let profiles = combo.profiles(config.batch_size);
        let cost = kernel.measure_multi_cost_ms(&profiles, config.batch_size, &noise, REPEATS);
        ComputeSample {
            tables: profiles
                .iter()
                .map(|p| table_features(p, config.batch_size))
                .collect(),
            cost_ms: cost as f32,
        }
    });
    ComputeDataset { samples }
}

/// A pair of communication datasets (forward, backward), each a fixed-width
/// regression problem on the features of [`comm_features`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommDataset {
    /// Forward all-to-all max-latency regression data.
    pub forward: Dataset,
    /// Backward all-to-all max-latency regression data.
    pub backward: Dataset,
}

/// Collects communication-cost data: random placements (Algorithm 5) with
/// random start timestamps, labeled by the simulated all-to-all collective's
/// **max** per-GPU latency (the quantity the search minimizes).
///
/// Like [`collect_compute_data`], samples fan out over a [`WorkPool`] with
/// per-sample seeding, so the datasets are bit-identical at any
/// [`CollectConfig::threads`] setting.
///
/// # Panics
///
/// Panics if `config.comm_samples == 0` (a dataset must be non-empty).
pub fn collect_comm_data(
    pool: &TablePool,
    comm: &CommParams,
    num_devices: usize,
    config: &CollectConfig,
    seed: u64,
) -> CommDataset {
    assert!(config.comm_samples > 0, "comm_samples must be positive");
    let augmented = augment_pool(pool, &PAPER_DIMS);
    let (t_min, t_max) = config.placement_range(num_devices);
    let generator = PlacementGenerator::new(augmented, num_devices, t_min, t_max);
    let noise = NoiseModel::new(seed ^ 0xBEEF, NOISE_SIGMA);
    let workers = WorkPool::new(config.threads);
    let indices: Vec<u64> = (0..config.comm_samples as u64).collect();
    let rows = workers.map(&indices, |&i| {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
        let p = generator.generate_one(&mut rng);
        let dims = p.device_dims();
        let max_ms = |direction| {
            let (starts, batch) = (&p.start_ts_ms, config.batch_size);
            let costs = comm.measure_costs_ms(direction, &dims, starts, batch, &noise, REPEATS);
            costs.into_iter().fold(0.0, f64::max) as f32
        };
        (
            comm_features(&dims, &p.start_ts_ms, config.batch_size),
            max_ms(CommDirection::Forward),
            max_ms(CommDirection::Backward),
        )
    });

    let mut xs: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
    let mut fwd_y: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
    let mut bwd_y: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
    for (features, fwd, bwd) in rows {
        xs.push(features);
        fwd_y.push(vec![fwd]);
        bwd_y.push(vec![bwd]);
    }
    let x = Matrix::from_rows(&xs);
    CommDataset {
        forward: Dataset::new(x.clone(), Matrix::from_rows(&fwd_y))
            .expect("same row counts by construction"),
        backward: Dataset::new(x, Matrix::from_rows(&bwd_y))
            .expect("same row counts by construction"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> TablePool {
        TablePool::synthetic_dlrm(60, 11)
    }

    #[test]
    fn compute_collection_shapes() {
        let cfg = CollectConfig {
            compute_samples: 50,
            ..CollectConfig::smoke()
        };
        let data = collect_compute_data(&pool(), &KernelParams::rtx_2080_ti(), &cfg, 1);
        assert_eq!(data.len(), 50);
        for s in &data.samples {
            assert!((1..=15).contains(&s.tables.len()));
            assert!(s.cost_ms > 0.0);
            for f in &s.tables {
                assert_eq!(f.len(), crate::features::TABLE_FEATURE_DIM);
            }
        }
    }

    #[test]
    fn compute_collection_is_deterministic() {
        let cfg = CollectConfig {
            compute_samples: 10,
            ..CollectConfig::smoke()
        };
        let k = KernelParams::rtx_2080_ti();
        assert_eq!(
            collect_compute_data(&pool(), &k, &cfg, 5),
            collect_compute_data(&pool(), &k, &cfg, 5)
        );
    }

    #[test]
    fn compute_split_partitions() {
        let cfg = CollectConfig {
            compute_samples: 100,
            ..CollectConfig::smoke()
        };
        let data = collect_compute_data(&pool(), &KernelParams::rtx_2080_ti(), &cfg, 2);
        let [train, valid, test] = data.split(9);
        assert_eq!(train.len() + valid.len() + test.len(), 100);
        assert_eq!(train.len(), 80);
    }

    #[test]
    fn compute_split_leaves_no_part_empty_and_moves_no_split_of_eight_or_more() {
        let dataset = |n: usize| ComputeDataset {
            samples: vec![
                ComputeSample {
                    tables: Vec::new(),
                    cost_ms: 1.0,
                };
                n
            ],
        };
        for n in 3..8 {
            let [train, valid, test] = dataset(n).split(1);
            assert_eq!(train.len() + valid.len() + test.len(), n);
            assert!(!train.is_empty() && !valid.is_empty() && !test.is_empty());
        }
        // From eight samples on, rounding alone already fills every part:
        // the sizes are the ones every fixture was trained on.
        for n in 8..=600 {
            let [train, valid, test] = dataset(n).split(1);
            let n_train = ((n as f64) * 0.8).round() as usize;
            let n_valid = ((n as f64) * 0.1).round() as usize;
            assert_eq!(
                (train.len(), valid.len(), test.len()),
                (n_train, n_valid, n - n_train - n_valid),
                "n = {n}"
            );
        }
    }

    #[test]
    fn compute_and_row_splits_pick_the_same_indices() {
        for (n, seed) in [(1, 0), (2, 7), (3, 1), (7, 2), (100, 9), (257, u64::MAX)] {
            let labels = (0..n).map(|i| i as f32);
            let compute = ComputeDataset {
                samples: labels
                    .clone()
                    .map(|cost_ms| ComputeSample {
                        tables: Vec::new(),
                        cost_ms,
                    })
                    .collect(),
            };
            let rows = Matrix::from_rows(labels.map(|v| vec![v]));
            let rows = Dataset::new(rows.clone(), rows).expect("n > 0");
            for (samples, rows) in compute.split(seed).iter().zip(rows.split(seed)) {
                let picked: Vec<f32> = samples.samples.iter().map(|s| s.cost_ms).collect();
                assert_eq!(picked, rows.y().as_slice(), "n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn comm_collection_shapes() {
        let cfg = CollectConfig {
            comm_samples: 40,
            ..CollectConfig::smoke()
        };
        let data = collect_comm_data(&pool(), &CommParams::pcie_server(), 4, &cfg, 3);
        assert_eq!(data.forward.len(), 40);
        assert_eq!(data.backward.len(), 40);
        assert_eq!(
            data.forward.x().cols(),
            crate::features::comm_feature_dim(4)
        );
    }

    #[test]
    fn comm_labels_are_positive() {
        let cfg = CollectConfig {
            comm_samples: 20,
            ..CollectConfig::smoke()
        };
        let data = collect_comm_data(&pool(), &CommParams::pcie_server(), 4, &cfg, 7);
        for r in 0..data.forward.len() {
            assert!(data.forward.y().get(r, 0) > 0.0);
            assert!(data.backward.y().get(r, 0) > 0.0);
        }
    }

    #[test]
    fn placement_range_scales_with_devices() {
        let cfg = CollectConfig::default();
        assert_eq!(cfg.placement_range(4), (10, 60));
        assert_eq!(cfg.placement_range(8), (20, 120));
        let explicit = CollectConfig {
            placement_tables: Some((3, 7)),
            ..CollectConfig::default()
        };
        assert_eq!(explicit.placement_range(8), (3, 7));
    }
}
