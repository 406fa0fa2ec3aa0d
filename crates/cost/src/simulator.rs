//! The pre-trained cost-model bundle and the sharding cost simulator.
//!
//! [`CostModelBundle`] packages the three pre-trained models (computation,
//! forward communication, backward communication) for one cluster setting.
//! [`CostSimulator`] wraps a bundle with the life-long prediction cache and
//! estimates the embedding cost of any sharding plan by summing the
//! predicted max computation, forward communication and backward
//! communication costs (§3.3) — no ground-truth (GPU) execution involved.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use nshard_data::TablePool;
use nshard_nn::{Matrix, TrainSettings};
use nshard_pool::WorkPool;
use nshard_sim::{DevicePool, GpuSpec, TableProfile, DEFAULT_MEM_BYTES};

use crate::cache::{
    add_encoding, table_key, table_set_key, EncodingCache, PredictionCache, TableEncodings,
    TableSetKey,
};
use crate::collect::{collect_comm_data, collect_compute_data, CollectConfig};
use crate::comm_model::CommCostModel;
use crate::compute::ComputeCostModel;
use crate::features::table_features;

/// Fraction of the combined forward+backward kernel cost attributable to
/// the forward pass (used to estimate all-to-all start skews at search
/// time; matches the simulator's default backward/forward ratio).
/// Observation pipelines read the same starts off
/// [`EstimatedCost::fwd_comm_starts`].
pub(crate) const FWD_FRACTION: f64 = 1.0 / 2.45;

/// Quality report of a pre-training run (the numbers behind Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BundleReport {
    /// Held-out test MSE of the computation cost model (ms²).
    pub compute_test_mse: f32,
    /// Held-out test MSE of the forward communication model (ms²).
    pub fwd_comm_test_mse: f32,
    /// Held-out test MSE of the backward communication model (ms²).
    pub bwd_comm_test_mse: f32,
    /// Number of computation samples collected.
    pub compute_samples: usize,
    /// Number of communication samples collected.
    pub comm_samples: usize,
}

/// The three pre-trained neural cost models for one cluster setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "BundleParts")]
pub struct CostModelBundle {
    compute: ComputeCostModel,
    comm_fwd: CommCostModel,
    comm_bwd: CommCostModel,
    num_devices: usize,
    batch_size: u32,
    report: BundleReport,
}

/// A [`CostModelBundle`] as stored; decoding checks that each network fits
/// its model and both comm models price the bundle's device count.
#[derive(Deserialize)]
struct BundleParts {
    compute: ComputeCostModel,
    comm_fwd: CommCostModel,
    comm_bwd: CommCostModel,
    num_devices: usize,
    batch_size: u32,
    report: BundleReport,
}

impl TryFrom<BundleParts> for CostModelBundle {
    type Error = String;

    fn try_from(p: BundleParts) -> Result<Self, String> {
        let (n, fwd, bwd) = (p.num_devices, &p.comm_fwd, &p.comm_bwd);
        let devices = [fwd.num_devices(), bwd.num_devices()] == [n; 2];
        if !(p.compute.fits() && fwd.fits() && bwd.fits() && devices) {
            return Err(format!("the {n}-device bundle's networks do not fit"));
        }
        Ok(Self::from_parts(
            p.compute,
            p.comm_fwd,
            p.comm_bwd,
            p.batch_size,
            p.report,
        ))
    }
}

impl CostModelBundle {
    /// Pre-trains a bundle against the default RTX 2080 Ti cluster laws.
    ///
    /// This is the reproduction of the paper's middle row of Figure 6:
    /// generate synthetic inputs, micro-benchmark them, train the three
    /// models.
    pub fn pretrain(
        pool: &TablePool,
        num_devices: usize,
        collect: &CollectConfig,
        train: &TrainSettings,
        seed: u64,
    ) -> Self {
        Self::pretrain_with_spec(
            pool,
            num_devices,
            &GpuSpec::rtx_2080_ti(),
            collect,
            train,
            seed,
        )
    }

    /// Pre-trains a bundle against an explicit hardware spec (e.g.
    /// [`GpuSpec::datacenter`] for the production experiments).
    ///
    /// The compute labels are collected over [`CollectConfig::threads`]
    /// workers; then two lanes run side by side on a [`WorkPool`] of
    /// [`TrainSettings::threads`] (one after the other on one thread):
    /// lane 1 fits the compute model, lane 2 collects the comm labels on
    /// its own thread and fits the forward and then the backward comm
    /// model. Each fit is serial and each model has its own data and seed,
    /// so the bundle is bit-identical at any thread count.
    pub fn pretrain_with_spec(
        pool: &TablePool,
        num_devices: usize,
        spec: &GpuSpec,
        collect: &CollectConfig,
        train: &TrainSettings,
        seed: u64,
    ) -> Self {
        let compute_data = collect_compute_data(pool, spec.kernel(), collect, seed);
        let fit_compute = || {
            let mut compute = ComputeCostModel::new(seed);
            let report = compute.train(&compute_data, train, seed ^ 0x1);
            (compute, report)
        };
        let fit_comm = || {
            let serial = CollectConfig {
                threads: 1,
                ..collect.clone()
            };
            let data = collect_comm_data(pool, spec.comm(), num_devices, &serial, seed ^ 0x1234);
            let fit = |data, init, salt| {
                let mut model = CommCostModel::new(num_devices, seed ^ init);
                let report = model.train(data, train, seed ^ salt);
                (model, report)
            };
            (fit(&data.forward, 0x2, 0x3), fit(&data.backward, 0x4, 0x5))
        };
        let ((compute, compute_report), ((comm_fwd, fwd_report), (comm_bwd, bwd_report))) =
            WorkPool::new(train.threads).join(fit_compute, fit_comm);

        Self {
            compute,
            comm_fwd,
            comm_bwd,
            num_devices,
            batch_size: collect.batch_size,
            report: BundleReport {
                compute_test_mse: compute_report.test_mse,
                fwd_comm_test_mse: fwd_report.test_mse,
                bwd_comm_test_mse: bwd_report.test_mse,
                compute_samples: collect.compute_samples,
                comm_samples: collect.comm_samples,
            },
        }
    }

    /// Builds a bundle from already-trained parts (used by tests and custom
    /// pipelines).
    pub fn from_parts(
        compute: ComputeCostModel,
        comm_fwd: CommCostModel,
        comm_bwd: CommCostModel,
        batch_size: u32,
        report: BundleReport,
    ) -> Self {
        let num_devices = comm_fwd.num_devices();
        assert_eq!(
            num_devices,
            comm_bwd.num_devices(),
            "forward/backward comm models disagree on device count"
        );
        Self {
            compute,
            comm_fwd,
            comm_bwd,
            num_devices,
            batch_size,
            report,
        }
    }

    /// The computation cost model.
    pub fn compute_model(&self) -> &ComputeCostModel {
        &self.compute
    }

    /// The forward communication cost model.
    pub fn comm_fwd_model(&self) -> &CommCostModel {
        &self.comm_fwd
    }

    /// The backward communication cost model.
    pub fn comm_bwd_model(&self) -> &CommCostModel {
        &self.comm_bwd
    }

    /// Device count this bundle was trained for.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Whether a task on `num_devices` devices can be priced: the
    /// communication models' input width is the count they were trained
    /// for, so no other count can be.
    ///
    /// # Errors
    ///
    /// A message naming both counts.
    pub fn check_device_count(&self, num_devices: usize) -> Result<(), String> {
        if num_devices == self.num_devices {
            return Ok(());
        }
        Err(format!(
            "task has {num_devices} devices, the cost models were trained for {}",
            self.num_devices
        ))
    }

    /// Batch size of the training workload.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// The pre-training quality report (Table 2 numbers).
    pub fn report(&self) -> &BundleReport {
        &self.report
    }
}

/// One plan's per-device inputs to the communication models — what
/// [`CostSimulator::estimate_from_loads`] turns into an [`EstimatedCost`].
/// Both vectors are **raw** (baseline hardware): heterogeneity scales are
/// applied by the estimate, not by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLoads {
    /// Predicted fused-kernel cost of each device's table set (fwd+bwd, ms).
    pub compute_ms: Vec<f64>,
    /// Each device's communication dimension: its shards'
    /// [`TableProfile::comm_dim`]s summed in table order.
    pub comm_dims: Vec<f64>,
}

/// Estimated cost breakdown of one sharding plan, per §3.3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatedCost {
    /// Predicted fused-kernel cost per device (fwd+bwd), ms.
    pub compute_per_device: Vec<f64>,
    /// Max predicted computation cost, ms.
    pub max_compute_ms: f64,
    /// Predicted max forward all-to-all cost, ms.
    pub fwd_comm_ms: f64,
    /// Predicted max backward all-to-all cost, ms.
    pub bwd_comm_ms: f64,
}

impl EstimatedCost {
    /// The plan's estimated embedding cost: max computation + forward comm
    /// + backward comm (the objective `f(c, t)` of Equation 1).
    pub fn total_ms(&self) -> f64 {
        self.max_compute_ms + self.fwd_comm_ms + self.bwd_comm_ms
    }

    /// Per-device forward all-to-all start timestamps implied by the
    /// compute predictions (`compute ×` the forward share of the kernel)
    /// — exactly the starts [`CostSimulator::estimate_plan`] feeds the
    /// forward comm model, so observation pipelines can rebuild its
    /// feature rows.
    pub fn fwd_comm_starts(&self) -> Vec<f64> {
        self.compute_per_device
            .iter()
            .map(|c| c * FWD_FRACTION)
            .collect()
    }
}

/// A sharding simulator: pre-trained bundle + life-long prediction cache.
///
/// # Example
///
/// ```no_run
/// use nshard_cost::{CollectConfig, CostModelBundle, CostSimulator, TrainSettings};
/// use nshard_data::TablePool;
/// use nshard_sim::TableProfile;
///
/// let pool = TablePool::synthetic_dlrm(856, 0);
/// let bundle = CostModelBundle::pretrain(
///     &pool, 2, &CollectConfig::smoke(), &TrainSettings::smoke(), 0,
/// );
/// let sim = CostSimulator::new(bundle);
/// let t = TableProfile::new(64, 1 << 20, 12.0, 0.3, 1.0);
/// let est = sim.estimate_plan(&[vec![t], vec![t]]);
/// println!("estimated cost {:.2} ms", est.total_ms());
/// ```
#[derive(Debug)]
pub struct CostSimulator {
    bundle: CostModelBundle,
    cache: PredictionCache,
    /// Life-long per-table encoder outputs (see [`EncodingCache`]).
    encodings: EncodingCache,
    cache_enabled: bool,
    /// The bundle's baseline fleet, which [`CostSimulator::estimate_plan`]
    /// prices on. Pricing never reads a budget: any positive one will do.
    baseline: DevicePool,
}

/// Reusable per-thread buffers for the batched cache-resolution path:
/// the pooled encoding rows of the current miss batch and, with caching
/// disabled, the indices of every query. Thread-local because simulators
/// are shared `&self` across search worker threads.
#[derive(Debug, Default)]
struct SimScratch {
    pooled: Matrix,
    all: Vec<usize>,
}

thread_local! {
    static SIM_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::default());
}

impl CostSimulator {
    /// Wraps a bundle with a fresh cache.
    pub fn new(bundle: CostModelBundle) -> Self {
        Self {
            baseline: DevicePool::uniform(bundle.num_devices, DEFAULT_MEM_BYTES),
            bundle,
            cache: PredictionCache::default(),
            encodings: EncodingCache::default(),
            cache_enabled: true,
        }
    }

    /// Disables the prediction cache (the "w/o caching" ablation of
    /// Table 3).
    pub fn with_cache_disabled(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// The underlying bundle.
    pub fn bundle(&self) -> &CostModelBundle {
        &self.bundle
    }

    /// The prediction cache (for hit-rate reporting).
    pub fn cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// Resolves many keyed compute-cost queries against the cache — one
    /// shared lock to probe, one exclusive lock to store the misses —
    /// running the model's head once over all misses. Within one batch the
    /// accounting matches the serial path exactly: the first occurrence of
    /// a missing key is a miss, every later duplicate is a hit.
    ///
    /// `keys[i]` fingerprints query `i`'s table multiset. The caller says
    /// what the missing sets look like to the model: `pool_misses(items,
    /// pooled)` receives the queries that must be computed and an all-zero
    /// `items.len() × encoding_dim` matrix, and adds into row `r` the left
    /// fold of query `items[r]`'s per-table encoder rows, in set order.
    /// That fold is bit for bit the pooled row of the fused forward
    /// ([`ComputeCostModel::predict_batch`]), so every value this returns
    /// — and every value the cache keeps — is the model's own.
    fn cached_compute_batch(
        &self,
        keys: &[u64],
        pool_misses: impl FnOnce(&[usize], &mut Matrix),
    ) -> Vec<f64> {
        let n = keys.len();
        let model = self.bundle.compute_model();
        let score = |items: &[usize], pooled: &mut Matrix| {
            pooled.reset(items.len(), model.encoding_dim());
            pool_misses(items, pooled);
            model.head_costs(pooled)
        };
        SIM_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            if !self.cache_enabled {
                // Every lookup computes; still count them so ablation hit
                // rates read 0%.
                self.cache.count_misses(n);
                s.all.clear();
                s.all.extend(0..n);
                return score(&s.all, &mut s.pooled);
            }
            self.cache
                .resolve(keys, |firsts| score(firsts, &mut s.pooled))
        })
    }

    /// Resolves whole table sets: a missing set is pooled by folding the
    /// encoder rows of all its tables, in set order.
    fn cached_set_costs<'a>(
        &self,
        keys: &[u64],
        set_of: impl Fn(usize) -> &'a [TableProfile],
    ) -> Vec<f64> {
        self.cached_compute_batch(keys, |items, pooled| {
            let encodings = self.table_encodings(items.iter().flat_map(|&i| set_of(i)));
            let mut next = 0;
            for (row, &i) in items.iter().enumerate() {
                for _ in set_of(i) {
                    encodings.add_to(next, pooled.row_mut(row));
                    next += 1;
                }
            }
        })
    }

    /// The encoder rows of `tables`, one per table in iteration order
    /// (duplicates included). Tables never seen before go through the
    /// encoder as one batch and are memoized in the life-long per-table
    /// encoding cache; every other row is read back under one shared lock.
    /// Encoder rows are independent of batch composition, so each row
    /// is bit-identical to that table's row in any other forward. With the
    /// cache disabled nothing is memoized: every table is encoded.
    ///
    /// The greedy walk calls this once per inner search and folds the rows
    /// itself ([`TableEncodings::add_to`]), so its probes
    /// ([`CostSimulator::pooled_probe_costs`]) never touch the encoder or
    /// this cache again.
    pub fn table_encodings<'a>(
        &self,
        tables: impl IntoIterator<Item = &'a TableProfile>,
    ) -> TableEncodings {
        let model = self.bundle.compute_model();
        let width = model.encoding_dim();
        let tables: Vec<&TableProfile> = tables.into_iter().collect();
        let encode = |tables: &[&TableProfile]| {
            let feats: Vec<Vec<f32>> = tables
                .iter()
                .map(|t| table_features(t, self.bundle.batch_size))
                .collect();
            model.encode_tables(&feats)
        };
        if !self.cache_enabled {
            let rows = encode(&tables).concat();
            return TableEncodings::new(Matrix::from_flat(tables.len(), width, rows));
        }
        let keys: Vec<u64> = tables.iter().map(|t| table_key(t)).collect();
        let mut rows = Matrix::zeros(keys.len(), width);
        self.encodings.resolve(
            &keys,
            |i, encoding| rows.row_mut(i).copy_from_slice(encoding),
            |firsts| {
                // Each unknown table is encoded once, however often it
                // occurs.
                let firsts: Vec<&TableProfile> = firsts.iter().map(|&i| tables[i]).collect();
                encode(&firsts)
                    .into_iter()
                    .map(Vec::into_boxed_slice)
                    .collect()
            },
        );
        TableEncodings::new(rows)
    }

    /// Predicted fused-kernel costs (fwd+bwd, ms) of device table sets,
    /// memoized in the life-long cache and resolved with one batched model
    /// forward over the misses. Each `key` must fingerprint its paired
    /// multiset. One set — or one table, keyed
    /// `TableSetKey::empty().with(t)` — is a batch of one.
    pub fn device_compute_cost_batch(&self, sets: &[(TableSetKey, &[TableProfile])]) -> Vec<f64> {
        let keys: Vec<u64> = sets.iter().map(|(k, _)| k.key()).collect();
        self.cached_set_costs(&keys, |i| sets[i].1)
    }

    /// The greedy walk's probe — "what would this device cost with this
    /// table added?" — answered from the state the walk carries instead of
    /// from table lists. Probe `j` is `parts(j) = (pooled, extra)`: the
    /// pooled encoding of a device's set (the left fold of its tables'
    /// encoder rows, in placement order, from all zeros) and the encoder
    /// row of the table being placed; `keys[j]` fingerprints the set with
    /// that table added. One batch may hold the probes of many walks, each
    /// placing its own table.
    ///
    /// A miss is pooled as `pooled + extra` — the last step of the very
    /// fold the whole-set path performs over that set in placement order —
    /// so the result equals [`CostSimulator::device_compute_cost_batch`] of
    /// the set with the table appended bit for bit, and the two paths can
    /// share cache entries. Resolves through the same private batch routine as
    /// every other compute lookup: one head forward over the misses, serial
    /// hit/miss accounting.
    pub fn pooled_probe_costs<'a>(
        &self,
        keys: &[u64],
        parts: impl Fn(usize) -> (&'a [f32], &'a [f32]),
    ) -> Vec<f64> {
        self.cached_compute_batch(keys, |items, pooled| {
            for (row, &j) in items.iter().enumerate() {
                let (set, extra) = parts(j);
                let acc = pooled.row_mut(row);
                acc.copy_from_slice(set);
                add_encoding(acc, extra);
            }
        })
    }

    /// Estimates the full embedding cost of a plan (Equation 1's
    /// `f(c, t)`): predicted per-device computation, plus predicted max
    /// forward/backward communication with start skews derived from the
    /// computation estimates.
    ///
    /// This prices on the bundle's baseline fleet ([`DevicePool::uniform`]):
    /// every device at compute class 1 on a flat network. To price a plan
    /// for a task's fleet use `nshard_core::estimate_for_task`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the bundle's device count.
    pub fn estimate_plan(&self, assignment: &[Vec<TableProfile>]) -> EstimatedCost {
        self.estimate_plan_batch_scaled(std::slice::from_ref(&assignment), &self.baseline)
            .pop()
            .expect("one assignment in, one estimate out")
    }

    /// Estimates many plans at once: one batched (cached) compute call
    /// over every device set of every plan, then one batched forward per
    /// communication model. Each estimate is bit-identical to estimating
    /// that plan alone.
    ///
    /// The plans are priced on `fleet`, and its heterogeneity is priced
    /// **after** inference. The pre-trained models (and their caches)
    /// always see the *baseline* hardware: the feature schema is frozen at
    /// [`crate::TABLE_FEATURE_DIM`] and checkpoints are shared across
    /// fleets. A device of compute class `s` multiplies its predicted
    /// kernel cost by `s`, and a device whose effective all-to-all
    /// bandwidth is `b ×` baseline contributes its communication dimension
    /// as `dim / b` (moving bytes at `b ×` bandwidth looks exactly like
    /// moving `1/b ×` bytes at baseline) — the learned twin of the ground
    /// truth's [`DevicePool::lowered_dims`]. A uniform fleet is a fleet
    /// like any other: its scales are all `1.0`, and `x * 1.0` and
    /// `x / 1.0` are exact, so pricing on it gives the baseline-hardware
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if any assignment's device count differs from the bundle's,
    /// or if `fleet` has a different number of devices.
    pub fn estimate_plan_batch_scaled<A: AsRef<[Vec<TableProfile>]>>(
        &self,
        assignments: &[A],
        fleet: &DevicePool,
    ) -> Vec<EstimatedCost> {
        let d = self.bundle.num_devices;
        for a in assignments {
            assert_eq!(
                a.as_ref().len(),
                d,
                "plan device count does not match the bundle"
            );
        }
        // One batched compute call over all device sets of all plans. The
        // cache stores RAW (baseline-hardware) predictions; heterogeneity
        // is applied on the way out so cached entries stay fleet-agnostic.
        let flat: Vec<&[TableProfile]> = assignments
            .iter()
            .flat_map(|a| a.as_ref().iter().map(Vec::as_slice))
            .collect();
        let keys: Vec<u64> = flat.iter().map(|s| table_set_key(s)).collect();
        let compute_flat = self.cached_set_costs(&keys, |i| flat[i]);
        let loads = assignments
            .iter()
            .enumerate()
            .map(|(pi, a)| DeviceLoads {
                compute_ms: compute_flat[pi * d..(pi + 1) * d].to_vec(),
                comm_dims: a
                    .as_ref()
                    .iter()
                    .map(|tables| tables.iter().map(TableProfile::comm_dim).sum())
                    .collect(),
            })
            .collect();
        self.estimate_from_loads(loads, fleet)
    }

    /// The second half of an estimate: given each plan's raw per-device
    /// compute predictions and communication dimensions, applies `fleet`'s
    /// scales (compute × class, dimension ÷ bandwidth), runs one batched
    /// forward per communication model and assembles the
    /// [`EstimatedCost`]s.
    ///
    /// [`CostSimulator::estimate_plan_batch_scaled`] is "look the compute
    /// costs up, then this"; the greedy walk already holds every device's
    /// cost when a pass finishes and calls this directly.
    ///
    /// # Panics
    ///
    /// Panics if any plan's device count differs from the bundle's, or if
    /// `fleet` has a different number of devices.
    pub fn estimate_from_loads(
        &self,
        mut loads: Vec<DeviceLoads>,
        fleet: &DevicePool,
    ) -> Vec<EstimatedCost> {
        let d = self.bundle.num_devices;
        assert_eq!(
            fleet.len(),
            d,
            "fleet device count does not match the bundle"
        );
        let (compute, bandwidth) = (fleet.compute_scales(), fleet.bw_scales());
        for load in &mut loads {
            assert!(
                load.compute_ms.len() == d && load.comm_dims.len() == d,
                "plan device count does not match the bundle"
            );
            for g in 0..d {
                load.compute_ms[g] *= compute[g];
                load.comm_dims[g] /= bandwidth[g];
            }
        }
        // Forward comm starts when each device's forward kernel ends.
        let fwd_starts_all: Vec<Vec<f64>> = loads
            .iter()
            .map(|load| load.compute_ms.iter().map(|c| c * FWD_FRACTION).collect())
            .collect();
        let bwd_starts = vec![0.0; d];
        let fwd_placements: Vec<(&[f64], &[f64])> = loads
            .iter()
            .zip(&fwd_starts_all)
            .map(|(load, starts)| (load.comm_dims.as_slice(), starts.as_slice()))
            .collect();
        let bwd_placements: Vec<(&[f64], &[f64])> = loads
            .iter()
            .map(|load| (load.comm_dims.as_slice(), bwd_starts.as_slice()))
            .collect();
        let batch_size = self.bundle.batch_size;
        let fwd = self
            .bundle
            .comm_fwd
            .predict_batch(&fwd_placements, batch_size);
        let bwd = self
            .bundle
            .comm_bwd
            .predict_batch(&bwd_placements, batch_size);

        loads
            .into_iter()
            .zip(fwd.into_iter().zip(bwd))
            .map(|(load, (fwd, bwd))| EstimatedCost {
                max_compute_ms: load.compute_ms.iter().cloned().fold(0.0, f64::max),
                compute_per_device: load.compute_ms,
                fwd_comm_ms: fwd.max(0.0),
                bwd_comm_ms: bwd.max(0.0),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use nshard_data::TablePool;
    use nshard_sim::DeviceProfile;

    fn quick_bundle(d: usize) -> CostModelBundle {
        let pool = TablePool::synthetic_dlrm(40, 1);
        CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            3,
        )
    }

    fn t(dim: u32) -> TableProfile {
        TableProfile::new(dim, 1 << 20, 12.0, 0.3, 1.0)
    }

    /// The pooled encoding of `set` as the greedy walk builds it: encoder
    /// rows folded in placement order, from all zeros.
    fn fold(sim: &CostSimulator, set: &[TableProfile]) -> Vec<f32> {
        let rows = sim.table_encodings(set);
        let mut acc = vec![0.0; rows.width()];
        for i in 0..set.len() {
            rows.add_to(i, &mut acc);
        }
        acc
    }

    #[test]
    fn pretrain_on_two_samples_a_model_trains_instead_of_panicking() {
        // Two samples split 2/0/0: no validation row for any of the three
        // models, so each ranks its checkpoints on its training rows.
        let pool = TablePool::synthetic_dlrm(40, 1);
        let collect = CollectConfig {
            compute_samples: 2,
            comm_samples: 2,
            ..CollectConfig::smoke()
        };
        let bundle = CostModelBundle::pretrain(&pool, 2, &collect, &TrainSettings::smoke(), 0);
        let untrained = CommCostModel::new(2, 0x2);
        assert_ne!(bundle.comm_fwd_model(), &untrained);
        // A non-finite weight serializes as `null`.
        let weights = [
            serde_json::to_string(bundle.compute_model()),
            serde_json::to_string(bundle.comm_fwd_model()),
            serde_json::to_string(bundle.comm_bwd_model()),
        ];
        for json in weights {
            assert!(!json.expect("models serialize").contains("null"));
        }
        // Nothing was held out, and the report says so.
        assert!(bundle.report().fwd_comm_test_mse.is_nan());
    }

    #[test]
    fn pretrain_produces_finite_report() {
        let bundle = quick_bundle(2);
        let r = bundle.report();
        assert!(r.compute_test_mse.is_finite());
        assert!(r.fwd_comm_test_mse.is_finite());
        assert!(r.bwd_comm_test_mse.is_finite());
        assert_eq!(bundle.num_devices(), 2);
    }

    #[test]
    fn estimate_plan_shape_and_cache() {
        let sim = CostSimulator::new(quick_bundle(2));
        let plan = vec![vec![t(64), t(32)], vec![t(16)]];
        let est = sim.estimate_plan(&plan);
        assert_eq!(est.compute_per_device.len(), 2);
        assert!(est.total_ms().is_finite());
        assert_eq!(sim.cache().stats().misses, 2);
        // Second estimate hits the cache for both devices.
        let _ = sim.estimate_plan(&plan);
        assert_eq!(sim.cache().stats().hits, 2);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let sim = CostSimulator::new(quick_bundle(2)).with_cache_disabled();
        let plan = vec![vec![t(64)], vec![t(16)]];
        let _ = sim.estimate_plan(&plan);
        let _ = sim.estimate_plan(&plan);
        assert_eq!(sim.cache().stats().hits, 0);
        assert_eq!(sim.cache().stats().hit_rate(), 0.0);
    }

    #[test]
    fn an_empty_batch_prices_nothing_with_the_cache_on_or_off() {
        for sim in [
            CostSimulator::new(quick_bundle(2)),
            CostSimulator::new(quick_bundle(2)).with_cache_disabled(),
        ] {
            assert!(sim.device_compute_cost_batch(&[]).is_empty());
            assert!(sim.pooled_probe_costs(&[], |_| unreachable!()).is_empty());
            assert_eq!(sim.cache().stats(), CacheStats::default());
        }
    }

    #[test]
    fn batch_apis_match_the_model_bit_for_bit() {
        let bundle = quick_bundle(2);
        let sim = CostSimulator::new(bundle.clone());
        // The reference: one single-set forward straight through the model,
        // no cache and no encoding fold in between.
        let direct = |tables: &[TableProfile]| {
            let feats: Vec<Vec<f32>> = tables
                .iter()
                .map(|t| table_features(t, bundle.batch_size()))
                .collect();
            bundle.compute_model().predict_batch(&[feats])[0]
        };

        // device_compute_cost_batch, including an in-batch duplicate and
        // the empty set.
        let sets: Vec<Vec<TableProfile>> = vec![
            vec![t(64), t(32)],
            vec![t(16)],
            vec![t(64), t(32)], // duplicate of set 0
            vec![],
        ];
        let keys: Vec<TableSetKey> = sets.iter().map(|s| TableSetKey::of(s)).collect();
        let keyed: Vec<(TableSetKey, &[TableProfile])> = keys
            .iter()
            .zip(&sets)
            .map(|(k, s)| (*k, s.as_slice()))
            .collect();
        let costs = sim.device_compute_cost_batch(&keyed);
        for (s, &c) in sets.iter().zip(&costs) {
            assert_eq!(direct(s).to_bits(), c.to_bits());
        }

        // pooled probe vs push-predict-pop.
        let extra = t(128);
        let candidates = [3, 0, 1];
        let folds: Vec<Vec<f32>> = candidates.iter().map(|&g| fold(&sim, &sets[g])).collect();
        let probe_keys: Vec<u64> = candidates
            .iter()
            .map(|&g| keys[g].with(&extra).key())
            .collect();
        let extra_row = sim.table_encodings([&extra]);
        let probed = sim.pooled_probe_costs(&probe_keys, |j| (&folds[j], extra_row.row(0)));
        for (&g, &c) in candidates.iter().zip(&probed) {
            let mut appended = sets[g].clone();
            appended.push(extra);
            assert_eq!(direct(&appended).to_bits(), c.to_bits());
        }

        // batched estimate vs estimate_plan vs the model.
        let plans = vec![
            vec![vec![t(64), t(32)], vec![t(16)]],
            vec![vec![t(8)], vec![t(64), t(8)]],
        ];
        let ests = sim.estimate_plan_batch_scaled(&plans, &DevicePool::uniform(2, 1));
        for (plan, est) in plans.iter().zip(&ests) {
            let single = sim.estimate_plan(plan);
            assert_eq!(single.total_ms().to_bits(), est.total_ms().to_bits());
            assert_eq!(single.compute_per_device, est.compute_per_device);
            for (tables, &c) in plan.iter().zip(&est.compute_per_device) {
                assert_eq!(direct(tables).to_bits(), c.to_bits());
            }
        }
    }

    #[test]
    fn single_set_lookup_is_a_one_element_batch() {
        let sim = CostSimulator::new(quick_bundle(2));
        let set = vec![t(64), t(32)];
        let keyed = [(TableSetKey::of(&set), set.as_slice())];
        let first = sim.device_compute_cost_batch(&keyed)[0];
        assert_eq!(sim.cache().stats(), CacheStats { hits: 0, misses: 1 });
        let second = sim.device_compute_cost_batch(&keyed)[0];
        assert_eq!(second.to_bits(), first.to_bits());
        assert_eq!(sim.cache().stats(), CacheStats { hits: 1, misses: 1 });
        // One table is the set holding it alone.
        let one = t(16);
        assert_eq!(TableSetKey::empty().with(&one).key(), table_set_key(&[one]));
    }

    #[test]
    fn unit_scales_are_bit_identical_to_unscaled() {
        let sim = CostSimulator::new(quick_bundle(2));
        let bundle = sim.bundle();
        let plans = vec![
            vec![vec![t(64), t(32)], vec![t(16)]],
            vec![vec![t(8)], vec![t(64), t(8)]],
        ];
        let scaled = sim.estimate_plan_batch_scaled(&plans, &DevicePool::uniform(2, 1));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (plan, est) in plans.iter().zip(&scaled) {
            // The reference never scales: raw compute costs, raw dimensions
            // and `compute × FWD_FRACTION` starts straight into the models.
            let keyed: Vec<(TableSetKey, &[TableProfile])> =
                plan.iter().map(|s| (TableSetKey::of(s), &s[..])).collect();
            let compute = sim.device_compute_cost_batch(&keyed);
            let dims: Vec<f64> = plan
                .iter()
                .map(|s| s.iter().map(TableProfile::comm_dim).sum())
                .collect();
            let starts: Vec<f64> = compute.iter().map(|c| c * FWD_FRACTION).collect();
            let (fwd, bwd) = (bundle.comm_fwd_model(), bundle.comm_bwd_model());
            let fwd = fwd.predict_batch(&[(&dims, &starts)], bundle.batch_size())[0];
            let bwd = bwd.predict_batch(&[(&dims, &[0.0; 2])], bundle.batch_size())[0];
            assert_eq!(bits(&est.compute_per_device), bits(&compute));
            assert_eq!(est.fwd_comm_ms.to_bits(), fwd.max(0.0).to_bits());
            assert_eq!(est.bwd_comm_ms.to_bits(), bwd.max(0.0).to_bits());
            let alone = sim.estimate_plan(plan);
            assert_eq!(alone.total_ms().to_bits(), est.total_ms().to_bits());
        }
    }

    #[test]
    fn compute_scales_multiply_raw_predictions() {
        let sim = CostSimulator::new(quick_bundle(2));
        let plan = vec![vec![t(64), t(32)], vec![t(16)]];
        let plain = sim.estimate_plan(&plan);
        let devices = [1.0, 3.0].map(|class| DeviceProfile::new(1, class, 0));
        let slow = DevicePool::new(devices.to_vec(), 1.0);
        let scaled = sim
            .estimate_plan_batch_scaled(&[&plan[..]], &slow)
            .pop()
            .unwrap();
        assert_eq!(
            scaled.compute_per_device[0].to_bits(),
            plain.compute_per_device[0].to_bits()
        );
        assert!((scaled.compute_per_device[1] - 3.0 * plain.compute_per_device[1]).abs() < 1e-12);
        // The cache kept raw predictions: estimating unscaled again hits
        // the same entries and returns the original values.
        let again = sim.estimate_plan(&plan);
        assert_eq!(again.compute_per_device, plain.compute_per_device);
    }

    #[test]
    fn slow_links_raise_predicted_comm() {
        let sim = CostSimulator::new(quick_bundle(2));
        let plan = vec![vec![t(64), t(32)], vec![t(64)]];
        let plain = sim.estimate_plan(&plan);
        // Two nodes behind quarter-speed links.
        let split = DevicePool::two_tier(1, 1, 1, 1, 1.0, 0.25);
        let scaled = sim
            .estimate_plan_batch_scaled(&[&plan[..]], &split)
            .pop()
            .unwrap();
        assert!(scaled.fwd_comm_ms > plain.fwd_comm_ms);
        assert_eq!(scaled.compute_per_device, plain.compute_per_device);
    }

    #[test]
    fn replicated_shards_lower_predicted_comm() {
        let sim = CostSimulator::new(quick_bundle(2));
        let full = t(64);
        let replica = t(64).with_comm_share(0.5);
        let plan_full = vec![vec![full, t(32)], vec![full]];
        let plan_repl = vec![vec![replica, t(32)], vec![full]];
        let a = sim.estimate_plan(&plan_full);
        let b = sim.estimate_plan(&plan_repl);
        assert!(b.fwd_comm_ms < a.fwd_comm_ms);
    }

    #[test]
    fn batch_accounting_matches_serial_within_a_batch() {
        let sim = CostSimulator::new(quick_bundle(2));
        let a = vec![t(64)];
        let b = vec![t(16)];
        let keyed: Vec<(TableSetKey, &[TableProfile])> = [&a, &b, &a, &a]
            .iter()
            .map(|s| (TableSetKey::of(s), s.as_slice()))
            .collect();
        let _ = sim.device_compute_cost_batch(&keyed);
        // Serial replay: miss(a), miss(b), hit(a), hit(a).
        assert_eq!(sim.cache().stats().misses, 2);
        assert_eq!(sim.cache().stats().hits, 2);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let sim = CostSimulator::new(quick_bundle(2));
        let est = sim.estimate_plan(&[vec![t(64)], vec![t(8)]]);
        let by_hand = est.max_compute_ms + est.fwd_comm_ms + est.bwd_comm_ms;
        assert!((est.total_ms() - by_hand).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not match the bundle")]
    fn wrong_plan_width_panics() {
        let sim = CostSimulator::new(quick_bundle(2));
        let _ = sim.estimate_plan(&[vec![t(8)]]);
    }

    #[test]
    fn bundle_serde_round_trip() {
        let bundle = quick_bundle(2);
        let json = serde_json::to_string(&bundle).unwrap();
        let back: CostModelBundle = serde_json::from_str(&json).unwrap();
        assert_eq!(bundle, back);
    }

    /// One shared smoke bundle for the property below (pre-training per
    /// case would dominate the suite).
    fn shared_bundle() -> &'static CostModelBundle {
        static BUNDLE: std::sync::OnceLock<CostModelBundle> = std::sync::OnceLock::new();
        BUNDLE.get_or_init(|| quick_bundle(4))
    }

    proptest::proptest! {
        /// Oracle for the greedy walk's probe: for device sets grown one
        /// table at a time in placement order, the pooled probe of every
        /// device equals the whole-set prediction of that device's tables
        /// plus the probed one, bit for bit — cache on and off. The
        /// reference simulator is a separate one, so its answer is
        /// computed by the whole-set fold, never read back from an entry
        /// the probe wrote.
        #[test]
        fn pooled_probe_equals_whole_set_prediction(
            // (dim / 4, rows, pooling factor, replicas, device it lands on)
            tables in proptest::collection::vec(
                (1u32..=32, 1u64..(1 << 22), 1.0f64..40.0, 1u32..=4, 0usize..4),
                1..14,
            ),
            use_cache: bool,
        ) {
            let make = || {
                let sim = CostSimulator::new(shared_bundle().clone());
                if use_cache { sim } else { sim.with_cache_disabled() }
            };
            let (walk, reference) = (make(), make());
            let profiles: Vec<TableProfile> = tables
                .iter()
                .map(|&(dim4, rows, pooling, replicas, _)| {
                    TableProfile::new(dim4 * 4, rows, pooling, 0.3, 1.05)
                        .with_comm_share(1.0 / f64::from(replicas))
                })
                .collect();
            let rows = walk.table_encodings(&profiles);
            let width = rows.width();
            let mut sets: Vec<Vec<TableProfile>> = vec![Vec::new(); 4];
            let mut keys = [TableSetKey::empty(); 4];
            let mut pooled = vec![0.0f32; 4 * width];
            for (i, p) in profiles.iter().enumerate() {
                let probe_keys: Vec<u64> = keys.iter().map(|k| k.with(p).key()).collect();
                let probed = walk.pooled_probe_costs(&probe_keys, |g| {
                    (&pooled[g * width..(g + 1) * width], rows.row(i))
                });
                for (g, set) in sets.iter().enumerate() {
                    let mut appended = set.clone();
                    appended.push(*p);
                    let keyed = [(TableSetKey::of(&appended), &appended[..])];
                    let whole = reference.device_compute_cost_batch(&keyed)[0];
                    proptest::prop_assert!(
                        probed[g].to_bits() == whole.to_bits(),
                        "table {i} probed on device {g}: {} vs whole-set {whole}",
                        probed[g]
                    );
                }
                let g = tables[i].4;
                sets[g].push(*p);
                keys[g].add(p);
                rows.add_to(i, &mut pooled[g * width..(g + 1) * width]);
            }
        }
    }
}
