//! Integration tests pinning the paper's three cost observations (§2) at
//! the public-API level — the properties the whole search design rests on.

use proptest::prelude::*;
use serde_json::Value;

use neuroshard::cost::{CostModelBundle, CostSimulator, DeviceLoads, EstimatedCost, TableSetKey};
use neuroshard::data::{
    augment_pool, DevicePool, PlacementGenerator, TableConfig, TableId, TablePool, PAPER_DIMS,
};
use neuroshard::nn::envelope_from_json;
use neuroshard::sim::{Cluster, CommParams, GpuSpec, KernelParams, TableProfile};

const BATCH: u32 = 65_536;

/// Observation 1: partitioning a table column-wise produces halves that
/// each cost more than half the original — for every table in the pool at
/// every splittable dimension.
#[test]
fn observation_1_column_split_penalty_over_the_pool() {
    let pool = TablePool::synthetic_dlrm(64, 3);
    let kernel = KernelParams::rtx_2080_ti();
    for table in &pool {
        for dim in [8u32, 16, 32, 64, 128] {
            let t = table.with_dim(dim).profile(BATCH);
            let full = kernel.multi_cost_ms(&[t], BATCH);
            let (half, _) = t.split_columns().expect("dims >= 8 split");
            let half_cost = kernel.multi_cost_ms(&[half], BATCH);
            assert!(
                half_cost > full / 2.0 && half_cost < full,
                "table {} dim {dim}: half {half_cost} vs full {full}",
                table.id()
            );
        }
    }
}

/// Observation 2: the fused multi-table cost is below the sum of
/// single-table costs, non-linearly (the gap grows with the table count).
#[test]
fn observation_2_fusion_gap_grows_with_table_count() {
    let pool = TablePool::synthetic_dlrm(64, 5);
    let kernel = KernelParams::rtx_2080_ti();
    let profiles: Vec<TableProfile> = pool.iter().map(|t| t.profile(BATCH)).collect();
    let mut prev_ratio = 1.0;
    for t in [2usize, 4, 8, 16, 32] {
        let subset = &profiles[..t];
        let fused = kernel.multi_cost_ms(subset, BATCH);
        let sum: f64 = subset
            .iter()
            .map(|p| kernel.multi_cost_ms(std::slice::from_ref(p), BATCH))
            .sum();
        let ratio = fused / sum;
        assert!(ratio < 1.0, "T={t}: fused {fused} >= sum {sum}");
        assert!(
            ratio < prev_ratio + 0.02,
            "T={t}: fusion benefit should not shrink noticeably ({prev_ratio} -> {ratio})"
        );
        prev_ratio = ratio;
    }
}

/// Observation 3: across random placements, the max communication cost is
/// strongly positively correlated with the max device dimension.
#[test]
fn observation_3_comm_tracks_max_device_dim() {
    let pool = augment_pool(&TablePool::synthetic_dlrm(120, 7), &PAPER_DIMS);
    let comm = CommParams::pcie_server();
    for d in [4usize, 8] {
        let generator =
            PlacementGenerator::new(pool.clone(), d, 10 * d, 10 * d).with_max_start_ms(0.0);
        let placements = generator.generate(40, 11);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for p in &placements {
            let dims = p.device_dims();
            let costs = comm.forward_costs_ms(&dims, &p.start_ts_ms, BATCH);
            xs.push(p.max_device_dim());
            ys.push(costs.iter().cloned().fold(0.0, f64::max));
        }
        // Pearson correlation by hand.
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        let r = cov / (vx * vy).sqrt();
        assert!(r > 0.9, "{d} GPUs: correlation {r} too weak");
    }
}

/// The trace simulator reproduces Figure 1's accumulation effect: with an
/// imbalanced placement, delays build up and all GPUs accrue idle time.
#[test]
fn figure_1_imbalance_accumulates_idle_time() {
    use neuroshard::sim::{Cluster, GpuSpec, NoiseModel, TraceSimulator};
    let t = |d| TableProfile::new(d, 1 << 20, 12.0, 0.3, 1.0);
    let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 3, BATCH).with_noise(NoiseModel::disabled());
    let sim = TraceSimulator::new(cluster, 8.0);

    let balanced = vec![vec![t(64); 2]; 3];
    let skewed = vec![vec![t(64); 6], vec![t(64)], vec![t(64)]];
    let b = sim.simulate(&balanced, 30).unwrap();
    let s = sim.simulate(&skewed, 30).unwrap();
    assert!(s.mean_idle_ms > b.mean_idle_ms * 2.0);
    assert!(s.iteration_ms > b.iteration_ms);
}

/// A random two-tier fleet: 1–3 baseline devices on node 0, 1–3 devices of
/// a slower class on node 1, inter-node links at 5–100% of full bandwidth.
fn two_tier_pools() -> impl Strategy<Value = DevicePool> {
    (1usize..=3, 1usize..=3, 1.0f64..=4.0, 0.05f64..=1.0).prop_map(|(fast, slow, class, inter)| {
        DevicePool::two_tier(fast, 1 << 40, slow, 1 << 40, class, inter)
    })
}

/// Random tables, each left whole, split row-wise or replicated (where the
/// table allows it), lowered to simulator profiles.
fn shards() -> impl Strategy<Value = Vec<TableProfile>> {
    let table = (2u32..8, 12u32..24, 2.0f64..40.0, 0.6f64..1.6, 0u8..3);
    proptest::collection::vec(table, 2..12).prop_map(|tables| {
        let mut out = Vec::new();
        for (i, (dim_pow, rows_pow, pooling, zipf, shape)) in tables.into_iter().enumerate() {
            let t = TableConfig::new(
                TableId(i as u32),
                1 << dim_pow,
                1 << rows_pow,
                pooling,
                zipf,
            );
            let halves = match shape {
                1 => t.split_rows(),
                2 => t.replicate(),
                _ => None,
            };
            match halves {
                Some((a, b)) => out.extend([a.profile(BATCH), b.profile(BATCH)]),
                None => out.push(t.profile(BATCH)),
            }
        }
        out
    })
}

/// `shards` dealt onto `devices` devices by `deal` (cycled).
fn dealt(shards: &[TableProfile], deal: &[usize], devices: usize) -> Vec<Vec<TableProfile>> {
    let mut assignment = vec![Vec::new(); devices];
    for (shard, d) in shards.iter().zip(deal.iter().cycle()) {
        assignment[d % devices].push(*shard);
    }
    assignment
}

fn cluster_on(pool: DevicePool) -> Cluster {
    Cluster::new(GpuSpec::rtx_2080_ti(), pool.len(), BATCH).with_devices(pool)
}

proptest! {
    /// Observation 3 on a two-tier fleet: of two placements of the same
    /// shards, the one with the larger max *lowered* device dimension has
    /// the larger max communication cost (backward all-to-all: everyone
    /// joins together, so nothing but the transfer differs).
    #[test]
    fn observation_3_holds_in_lowered_dimensions_on_two_tier_fleets(
        pool in two_tier_pools(),
        shards in shards(),
        deal_a in proptest::collection::vec(0usize..6, 1..12),
        deal_b in proptest::collection::vec(0usize..6, 1..12),
    ) {
        let cluster = cluster_on(pool);
        let measure = |deal: &[usize]| {
            let assignment = dealt(&shards, deal, cluster.num_devices());
            let max_dim = cluster.devices().lowered_dims(&assignment).into_iter().fold(0.0, f64::max);
            let costs = cluster.evaluate_exact(&assignment).unwrap();
            let max_comm = costs.devices().iter().map(|d| d.comm_bwd_ms).fold(0.0, f64::max);
            (max_dim, max_comm)
        };
        let (a, b) = (measure(&deal_a), measure(&deal_b));
        let (low, high) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        prop_assert!(low.1 <= high.1, "dims {} <= {} but comm {} > {}", low.0, high.0, low.1, high.1);
    }

    /// A class-`s` device runs its kernels in exactly `s ×` the baseline
    /// time, so Observations 1 and 2 hold on it as they do on the baseline:
    /// a column half costs more than half its table and less than all of
    /// it, and a fused set costs less than its tables one by one.
    #[test]
    fn observations_1_and_2_survive_a_compute_class(
        pool in two_tier_pools(),
        shards in shards(),
        deal in proptest::collection::vec(0usize..6, 1..12),
    ) {
        let scaled = cluster_on(pool.clone());
        let baseline = cluster_on(DevicePool::uniform(pool.len(), 1 << 40));
        let assignment = dealt(&shards, &deal, pool.len());
        let at_class = scaled.evaluate_exact(&assignment).unwrap();
        let at_baseline = baseline.evaluate_exact(&assignment).unwrap();
        for (g, (s, b)) in at_class.devices().iter().zip(at_baseline.devices()).enumerate() {
            let class = pool.compute_scales()[g];
            prop_assert_eq!(s.compute_fwd_ms.to_bits(), (b.compute_fwd_ms * class).to_bits());
            prop_assert_eq!(s.compute_bwd_ms.to_bits(), (b.compute_bwd_ms * class).to_bits());
        }

        // The last device is of the slow class; it computes alone.
        let slow = pool.len() - 1;
        let alone = |tables: &[TableProfile]| {
            let mut assignment = vec![Vec::new(); pool.len()];
            assignment[slow] = tables.to_vec();
            scaled.evaluate_exact(&assignment).unwrap().devices()[slow].compute_ms()
        };
        let one_by_one: f64 = shards.iter().map(|t| alone(std::slice::from_ref(t))).sum();
        prop_assert!(alone(&shards) < one_by_one);
        for table in &shards {
            if let Some((half, _)) = table.split_columns() {
                let (half, full) = (alone(&[half]), alone(&[*table]));
                prop_assert!(half > full / 2.0 && half < full, "half {half} vs full {full}");
            }
        }
    }

    /// Ground truth and estimate share one definition of a slow link: an
    /// estimate on a two-tier fleet is, bit for bit, the estimate on the
    /// uniform fleet of the dimensions `Cluster` runs the all-to-all law on
    /// (`DevicePool::lowered_dims`), with each device's compute at its
    /// class. Four devices: the conformance bundle's count.
    #[test]
    fn truth_and_estimate_lower_a_fleet_to_the_same_dimensions(
        fast in 1usize..=3,
        class in 1.0f64..=4.0,
        inter in 0.05f64..=1.0,
        shards in shards(),
        deal in proptest::collection::vec(0usize..4, 1..12),
    ) {
        let pool = DevicePool::two_tier(fast, 1 << 40, 4 - fast, 1 << 40, class, inter);
        let sim = conformance_sim();
        let assignment = dealt(&shards, &deal, 4);
        let keyed: Vec<(TableSetKey, &[TableProfile])> =
            assignment.iter().map(|s| (TableSetKey::of(s), &s[..])).collect();
        let raw = DeviceLoads {
            compute_ms: sim.device_compute_cost_batch(&keyed),
            comm_dims: assignment
                .iter()
                .map(|tables| tables.iter().map(TableProfile::comm_dim).sum())
                .collect(),
        };
        let lowered = DeviceLoads {
            compute_ms: raw.compute_ms.iter().zip(pool.compute_scales()).map(|(c, s)| c * s).collect(),
            comm_dims: pool.lowered_dims(&assignment),
        };
        let on_fleet = sim.estimate_from_loads(vec![raw], &pool);
        let on_uniform = sim.estimate_from_loads(vec![lowered], &DevicePool::uniform(4, 1 << 40));
        let bits = |e: &EstimatedCost| {
            let mut bits: Vec<u64> = e.compute_per_device.iter().map(|c| c.to_bits()).collect();
            bits.extend([e.max_compute_ms, e.fwd_comm_ms, e.bwd_comm_ms].map(f64::to_bits));
            bits
        };
        prop_assert_eq!(bits(&on_fleet[0]), bits(&on_uniform[0]));
    }
}

// ---------------------------------------------------------------------------
// The observations on the learned models: what the search consults.
// ---------------------------------------------------------------------------

/// Random draws the learned-observation oracle checks.
const LEARNED_CASES: u32 = 2048;

/// Violation rates of the committed conformance bundle, recorded: a column
/// split predicted no dearer than its table (Observation 1: 0 of 12,972),
/// a fused set predicted no cheaper than its tables one by one
/// (Observation 2: 0 of 2,048), and the placement with the larger max
/// device dimension predicted cheaper (Observation 3: 14 of 2,734).
const RECORDED_RATES: [f64; 3] = [0.0, 0.0, 14.0 / 2734.0];

/// `(violations, checks)` per observation.
type Tally = [(usize, usize); 3];

/// The committed conformance bundle's JSON envelope (pre-trained on 4
/// devices over the pool of [`learned_pool`]).
fn conformance_json() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/conformance_bundle.json"
    );
    std::fs::read_to_string(path).expect("committed conformance bundle")
}

/// One simulator over the conformance bundle, shared by every case.
fn conformance_sim() -> &'static CostSimulator {
    static SIM: std::sync::OnceLock<CostSimulator> = std::sync::OnceLock::new();
    SIM.get_or_init(|| CostSimulator::new(bundle_from(&conformance_json())))
}

fn bundle_from(json: &str) -> CostModelBundle {
    envelope_from_json::<CostModelBundle>(json)
        .expect("conformance bundle loads")
        .payload
}

/// The tables the conformance bundle was pre-trained on.
fn learned_pool() -> Vec<TableProfile> {
    TablePool::synthetic_dlrm(80, 0xA11CE)
        .iter()
        .map(|t| t.profile(BATCH))
        .collect()
}

/// Tallies the bundle's violations of Observations 1–3 over random sets of
/// pool tables, each dealt two ways onto the bundle's devices.
fn learned_violations(bundle: CostModelBundle) -> Tally {
    let pool = learned_pool();
    let devices = bundle.num_devices();
    let comm = [
        bundle.comm_fwd_model().clone(),
        bundle.comm_bwd_model().clone(),
    ];
    let sim = CostSimulator::new(bundle);
    let cost = |tables: &[TableProfile]| {
        sim.device_compute_cost_batch(&[(TableSetKey::of(tables), tables)])[0]
    };
    let mut tally: Tally = [(0, 0); 3];
    let draw = (
        proptest::collection::vec(0..pool.len(), 2..12),
        proptest::collection::vec(0..devices, 1..12),
        proptest::collection::vec(0..devices, 1..12),
    );
    proptest::run_cases("learned_observations", LEARNED_CASES, |rng| {
        let (picks, deal_a, deal_b) = draw.generate(rng);
        let set: Vec<TableProfile> = picks.iter().map(|&i| pool[i]).collect();
        for table in &set {
            if let Some((a, b)) = table.split_columns() {
                tally[0].0 += usize::from(cost(&[a]) + cost(&[b]) <= cost(&[*table]));
                tally[0].1 += 1;
            }
        }
        let singles: f64 = set.iter().map(|t| cost(std::slice::from_ref(t))).sum();
        tally[1].0 += usize::from(cost(&set) >= singles);
        tally[1].1 += 1;
        let dims = |deal: &[usize]| {
            let mut dims = vec![0.0; devices];
            for (t, &d) in set.iter().zip(deal.iter().cycle()) {
                dims[d] += t.comm_dim();
            }
            dims
        };
        let (a, b) = (dims(&deal_a), dims(&deal_b));
        let max = |dims: &[f64]| dims.iter().cloned().fold(0.0, f64::max);
        let (low, high) = match max(&a).partial_cmp(&max(&b)) {
            Some(std::cmp::Ordering::Less) => (a, b),
            Some(std::cmp::Ordering::Greater) => (b, a),
            _ => return Ok(()),
        };
        let starts = vec![0.0; devices];
        for model in &comm {
            let predicted = |dims: &[f64]| model.predict_batch(&[(dims, &starts[..])], BATCH)[0];
            tally[2].0 += usize::from(predicted(&low) > predicted(&high));
            tally[2].1 += 1;
        }
        Ok(())
    });
    tally
}

fn rates(tally: &Tally) -> [f64; 3] {
    tally.map(|(violations, checks)| violations as f64 / checks.max(1) as f64)
}

/// The learned cost models inherit the paper's three observations — the
/// argument for a neural over a linear model (§4.2). The conformance
/// bundle's violation rates never exceed the recorded ones.
#[test]
fn learned_models_inherit_observations_1_to_3_at_the_recorded_rates() {
    let tally = learned_violations(bundle_from(&conformance_json()));
    let observed = rates(&tally);
    println!("learned observation violations (violated, checked): {tally:?}, rates {observed:?}");
    for (k, (seen, recorded)) in observed.iter().zip(RECORDED_RATES).enumerate() {
        assert!(
            *seen <= recorded,
            "observation {}: violation rate {seen} above the recorded {recorded} ({tally:?})",
            k + 1
        );
    }
}

/// The oracle can fail: with the weights of its compute head's output
/// layer negated, the same bundle breaks Observations 1 and 2 beyond the
/// recorded rates. (Negating every head layer does not: the poisoned model
/// still predicts positive, monotone, subadditive costs.)
#[test]
fn a_poisoned_compute_head_breaks_the_learned_observations() {
    let mut envelope = serde_json::parse_value(&conformance_json()).unwrap();
    let head = ["payload", "compute", "head", "layers"]
        .iter()
        .fold(&mut envelope, |v, key| field(v, key));
    let Value::Seq(layers) = head else {
        panic!("head layers")
    };
    let output = layers.last_mut().expect("the head has an output layer");
    let Value::Seq(weights) = field(field(output, "w"), "data") else {
        panic!("weights")
    };
    for w in weights {
        if let Value::Float(x) = w {
            *x = -*x;
        }
    }
    let poisoned = bundle_from(&serde_json::to_string(&envelope).unwrap());
    let observed = rates(&learned_violations(poisoned));
    println!("poisoned compute head: rates {observed:?}");
    assert!(observed[0] > RECORDED_RATES[0] && observed[1] > RECORDED_RATES[1]);
}

/// The value under `key` of a JSON object.
fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(entries) = v else {
        panic!("`{key}`: not an object")
    };
    let (_, value) = entries.iter_mut().find(|(k, _)| k == key).expect(key);
    value
}
