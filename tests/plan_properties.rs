//! Property-based integration tests over sharding-plan invariants.

use proptest::prelude::*;

use neuroshard::core::{
    apply_split_plan, estimate_batch_for_task, estimate_for_task, evaluate_plan_exact,
    migration_bytes, ShardingPlan, SplitStep,
};
use neuroshard::cost::{
    CollectConfig, CostModelBundle, CostSimulator, EstimatedCost, TrainSettings,
};
use neuroshard::data::{DevicePool, ShardingTask, TableConfig, TableId, TablePool};
use neuroshard::resilient::repair;
use neuroshard::sim::{DeviceCost, GpuSpec};

/// One smoke-trained two-device simulator shared by every pricing case.
fn pricing_sim() -> &'static CostSimulator {
    static SIM: std::sync::OnceLock<CostSimulator> = std::sync::OnceLock::new();
    SIM.get_or_init(|| {
        CostSimulator::new(CostModelBundle::pretrain(
            &TablePool::synthetic_dlrm(40, 3),
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        ))
    })
}

/// Every float of an estimate, as bits.
fn estimate_bits(e: &EstimatedCost) -> Vec<u64> {
    e.compute_per_device
        .iter()
        .chain([&e.max_compute_ms, &e.fwd_comm_ms, &e.bwd_comm_ms])
        .map(|x| x.to_bits())
        .collect()
}

/// Every float of a device's ground-truth cost, as bits.
fn device_cost_bits(cost: &DeviceCost) -> [u64; 4] {
    [
        cost.compute_fwd_ms,
        cost.compute_bwd_ms,
        cost.comm_fwd_ms,
        cost.comm_bwd_ms,
    ]
    .map(f64::to_bits)
}

fn arbitrary_tables() -> impl Strategy<Value = Vec<TableConfig>> {
    proptest::collection::vec(
        (2u32..8, 12u32..24, 1.0f64..40.0, 0.6f64..1.6)
            .prop_map(|(dp, rp, pf, za)| TableConfig::new(TableId(0), 1 << dp, 1u64 << rp, pf, za)),
        1..12,
    )
    .prop_map(|mut ts| {
        for (i, t) in ts.iter_mut().enumerate() {
            *t = TableConfig::new(
                TableId(i as u32),
                t.dim(),
                t.hash_size(),
                t.pooling_factor(),
                t.zipf_alpha(),
            );
        }
        ts
    })
}

/// The byte span of every value in `json` that follows a `"key":` — each
/// field of each object, nested ones included. Task JSON has no string
/// values, so a value is a bracketed span or runs to the next `,` / `}`.
fn field_value_spans(json: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    for (colon, _) in json.match_indices("\":") {
        let start = colon + 2;
        let end = match bytes[start] {
            open @ (b'[' | b'{') => {
                let close = if open == b'[' { b']' } else { b'}' };
                let mut depth = 0usize;
                let mut at = start;
                loop {
                    if bytes[at] == open {
                        depth += 1;
                    } else if bytes[at] == close {
                        depth -= 1;
                        if depth == 0 {
                            break at + 1;
                        }
                    }
                    at += 1;
                }
            }
            _ => start + json[start..].find([',', '}']).expect("objects close"),
        };
        spans.push(start..end);
    }
    spans
}

/// What a hostile client writes where a number, array or object belongs.
const HOSTILE_VALUES: [&str; 9] = [
    "0",
    "1",
    "9223372036854775808",
    "-1",
    "1e308",
    "null",
    "\"x\"",
    "[]",
    "{}",
];

proptest! {
    /// Overwriting any one field of a valid task's JSON with a hostile
    /// value never panics the decoder, and whatever it still accepts is a
    /// task the planners can take: one budget per device, at least one
    /// device and one table, tables that lower to simulator profiles.
    #[test]
    fn task_decoder_survives_any_one_field_overwritten(
        tables in arbitrary_tables(),
        devices in 1usize..5,
        two_tier in any::<bool>(),
    ) {
        let mut task = ShardingTask::new(tables, devices, 1 << 30, 1024);
        if two_tier {
            task = task.with_devices(DevicePool::two_tier(1, 1 << 30, devices - 1, 1 << 28, 1.5, 0.5));
        }
        let json = serde_json::to_string(&task).unwrap();
        prop_assert_eq!(&serde_json::from_str::<ShardingTask>(&json).unwrap(), &task);
        for span in field_value_spans(&json) {
            for value in HOSTILE_VALUES {
                let mut edited = json.clone();
                edited.replace_range(span.clone(), value);
                if let Ok(decoded) = serde_json::from_str::<ShardingTask>(&edited) {
                    prop_assert!(decoded.num_devices() >= 1, "{}", edited);
                    prop_assert_eq!(decoded.budgets().len(), decoded.num_devices());
                    prop_assert!(!decoded.tables().is_empty(), "{}", edited);
                    prop_assert_eq!(decoded.profiles().len(), decoded.tables().len());
                }
            }
        }
    }

    /// The same overwrites on a plan's JSON — what a hand-edited store
    /// file or a replicated log value can hold: whatever still decodes is a
    /// plan the per-device accessors can walk, tables that lower to
    /// simulator profiles included.
    #[test]
    fn plan_decoder_survives_any_one_field_overwritten(
        tables in arbitrary_tables(),
        devices in 1usize..5,
        split_first in any::<bool>(),
    ) {
        let steps = if split_first { vec![SplitStep::column(0)] } else { vec![] };
        let (steps, sharded) = match apply_split_plan(&tables, &steps) {
            Ok(sharded) => (steps, sharded),
            Err(_) => (vec![], tables),
        };
        let device_of = (0..sharded.len()).map(|i| i % devices).collect();
        let plan = ShardingPlan::new(steps, sharded, device_of, devices).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        prop_assert_eq!(&serde_json::from_str::<ShardingPlan>(&json).unwrap(), &plan);
        for span in field_value_spans(&json) {
            for value in HOSTILE_VALUES {
                let mut edited = json.clone();
                edited.replace_range(span.clone(), value);
                if let Ok(decoded) = serde_json::from_str::<ShardingPlan>(&edited) {
                    let profiles = decoded.device_profiles(1024);
                    prop_assert!(profiles.len() == decoded.num_devices(), "{}", edited);
                    prop_assert_eq!(
                        profiles.iter().map(Vec::len).sum::<usize>(),
                        decoded.sharded_tables().len()
                    );
                }
            }
        }
    }

    /// Any legal split plan conserves total memory exactly and grows the
    /// table count by exactly the number of steps.
    #[test]
    fn split_plans_conserve_memory(
        tables in arbitrary_tables(),
        raw_steps in proptest::collection::vec((0usize..20, any::<bool>()), 0..10),
    ) {
        let total_before: u64 = tables.iter().map(TableConfig::memory_bytes).sum();
        // Build a plan that is legal by construction: clamp indices and
        // drop illegal steps.
        let mut list = tables.clone();
        let mut plan = Vec::new();
        for (idx_raw, is_row) in raw_steps {
            let index = idx_raw % list.len();
            let step = if is_row { SplitStep::row(index) } else { SplitStep::column(index) };
            let ok = if is_row {
                list[index].split_rows().is_some()
            } else {
                list[index].split_columns().is_some()
            };
            if !ok {
                continue;
            }
            let halves = if is_row {
                list[index].split_rows().unwrap()
            } else {
                list[index].split_columns().unwrap()
            };
            list[index] = halves.0;
            list.push(halves.1);
            plan.push(step);
        }
        let sharded = apply_split_plan(&tables, &plan).expect("plan built to be legal");
        prop_assert_eq!(sharded.len(), tables.len() + plan.len());
        let total_after: u64 = sharded.iter().map(TableConfig::memory_bytes).sum();
        prop_assert_eq!(total_before, total_after);
        // Shard identities trace back to the originals.
        for t in &sharded {
            prop_assert!(tables.iter().any(|orig| orig.id() == t.id()));
        }
    }

    /// Device grouping is an exact partition of the sharded tables, and the
    /// derived per-device aggregates are consistent.
    #[test]
    fn plans_partition_tables(
        tables in arbitrary_tables(),
        devices in 1usize..6,
        assignment_seed in any::<u64>(),
    ) {
        let device_of: Vec<usize> = (0..tables.len())
            .map(|i| ((assignment_seed >> (i % 60)) as usize) % devices)
            .collect();
        let plan = ShardingPlan::new(vec![], tables.clone(), device_of, devices).unwrap();
        let grouped = plan.device_tables();
        prop_assert_eq!(grouped.iter().map(Vec::len).sum::<usize>(), tables.len());
        let bytes: u64 = plan.device_bytes().iter().sum();
        prop_assert_eq!(bytes, tables.iter().map(TableConfig::memory_bytes).sum::<u64>());
        let task = ShardingTask::new(tables.clone(), devices, 1 << 30, 1024);
        let dims: f64 = task.devices().lowered_dims(&plan.device_profiles(1024)).iter().sum();
        let expect: f64 = tables.iter().map(|t| f64::from(t.dim())).sum();
        prop_assert!((dims - expect).abs() < 1e-9);
    }

    /// Any plan the repair engine returns is memory-feasible, for arbitrary
    /// table pools, device counts, budgets and (possibly badly skewed)
    /// starting assignments. When repair declines, the input plan was
    /// genuinely infeasible — repair never rejects a healthy plan.
    #[test]
    fn repaired_plans_are_memory_feasible(
        tables in arbitrary_tables(),
        devices in 1usize..6,
        assignment_seed in any::<u64>(),
        headroom_pct in 40u64..400,
    ) {
        let total: u64 = tables.iter().map(TableConfig::memory_bytes).sum();
        let budget = (total * headroom_pct / (100 * devices as u64)).max(1);
        let task = ShardingTask::new(tables.clone(), devices, budget, 1024);
        let device_of: Vec<usize> = (0..tables.len())
            .map(|i| ((assignment_seed >> (i % 60)) as usize) % devices)
            .collect();
        let plan = ShardingPlan::new(vec![], tables.clone(), device_of, devices).unwrap();
        match repair(&task, &plan) {
            Ok(report) => {
                prop_assert!(report.plan.validate(&task).is_ok());
                for &bytes in &report.plan.device_bytes() {
                    prop_assert!(bytes <= budget);
                }
            }
            Err(_) => {
                prop_assert!(
                    plan.device_bytes().iter().any(|&b| b > budget),
                    "repair declined a plan that was already feasible"
                );
            }
        }
    }

    /// Row-wise split plans tile every table's rows into contiguous,
    /// non-overlapping ranges that cover `[0, hash_size)` exactly — no
    /// gap, no overlap, for any legal sequence of row splits (including
    /// repeated splits of the same shard).
    #[test]
    fn row_splits_tile_the_table_exactly(
        tables in arbitrary_tables(),
        raw_steps in proptest::collection::vec(0usize..32, 0..10),
    ) {
        let mut list = tables.clone();
        let mut plan = Vec::new();
        for idx_raw in raw_steps {
            let index = idx_raw % list.len();
            let Some(halves) = list[index].split_rows() else { continue };
            list[index] = halves.0;
            list.push(halves.1);
            plan.push(SplitStep::row(index));
        }
        let sharded = apply_split_plan(&tables, &plan).expect("plan built to be legal");
        for orig in &tables {
            let mut ranges: Vec<(u64, u64)> = sharded
                .iter()
                .filter(|s| s.id() == orig.id())
                .map(|s| s.row_range())
                .collect();
            ranges.sort_unstable();
            let mut cursor = 0u64;
            for (start, end) in ranges {
                prop_assert_eq!(start, cursor);
                prop_assert!(end > start, "table {:?}: empty shard", orig.id());
                cursor = end;
            }
            prop_assert_eq!(cursor, orig.hash_size());
        }
    }

    /// Replicated placements charge full table memory on **every** holder:
    /// each replica carries the logical table's full byte mass, so every
    /// replicate step grows the plan's total memory by exactly the
    /// replicated table's bytes.
    #[test]
    fn replicas_are_memory_charged_on_every_holder(
        tables in arbitrary_tables(),
        raw_steps in proptest::collection::vec(0usize..32, 0..6),
        devices in 2usize..6,
        assignment_seed in any::<u64>(),
    ) {
        let total_before: u64 = tables.iter().map(TableConfig::memory_bytes).sum();
        let mut list = tables.clone();
        let mut plan = Vec::new();
        let mut added = 0u64;
        for idx_raw in raw_steps {
            let index = idx_raw % list.len();
            let Some(halves) = list[index].replicate() else { continue };
            added += list[index].memory_bytes();
            list[index] = halves.0;
            list.push(halves.1);
            plan.push(SplitStep::replicate(index));
        }
        let sharded = apply_split_plan(&tables, &plan).expect("plan built to be legal");
        // Every replica is a full copy of its logical table.
        for shard in &sharded {
            let orig = tables.iter().find(|t| t.id() == shard.id()).unwrap();
            prop_assert_eq!(shard.memory_bytes(), orig.memory_bytes());
        }
        let device_of: Vec<usize> = (0..sharded.len())
            .map(|i| ((assignment_seed >> (i % 60)) as usize) % devices)
            .collect();
        let p = ShardingPlan::new(plan, sharded, device_of, devices).unwrap();
        let charged: u64 = p.device_bytes().iter().sum();
        prop_assert_eq!(charged, total_before + added);
    }

    /// Migration accounting and rebase stay correct for mixed plans of
    /// column, row and replicate steps: self-migration is free, moving one
    /// shard costs exactly its bytes, and a pooling-only drift rebases to
    /// a valid plan that moves zero bytes.
    #[test]
    fn migration_and_rebase_hold_for_split_and_replicated_shards(
        tables in arbitrary_tables(),
        raw_steps in proptest::collection::vec((0usize..32, 0u8..3), 0..8),
        devices in 2usize..5,
        assignment_seed in any::<u64>(),
        move_pick in any::<u64>(),
        pooling_scale in 1.0f64..4.0,
    ) {
        let mut list = tables.clone();
        let mut plan = Vec::new();
        for (idx_raw, kind) in raw_steps {
            let index = idx_raw % list.len();
            let (halves, step) = match kind {
                0 => (list[index].split_columns(), SplitStep::column(index)),
                1 => (list[index].split_rows(), SplitStep::row(index)),
                _ => (list[index].replicate(), SplitStep::replicate(index)),
            };
            let Some(halves) = halves else { continue };
            list[index] = halves.0;
            list.push(halves.1);
            plan.push(step);
        }
        let sharded = apply_split_plan(&tables, &plan).expect("plan built to be legal");
        let device_of: Vec<usize> = (0..sharded.len())
            .map(|i| ((assignment_seed >> (i % 60)) as usize) % devices)
            .collect();
        let p = ShardingPlan::new(
            plan.clone(), sharded.clone(), device_of.clone(), devices,
        ).unwrap();
        prop_assert_eq!(migration_bytes(&p, &p), 0);

        // Moving exactly one shard to another device ships its bytes.
        let i = (move_pick as usize) % sharded.len();
        let mut moved = device_of.clone();
        moved[i] = (device_of[i] + 1) % devices;
        let q = ShardingPlan::new(plan.clone(), sharded.clone(), moved, devices).unwrap();
        prop_assert_eq!(migration_bytes(&p, &q), sharded[i].memory_bytes());

        // Pooling-only drift: rebase succeeds (pooling never shrinks, so
        // every recorded split stays legal), validates, keeps the
        // placement and moves zero bytes.
        let drifted_tables: Vec<TableConfig> = tables
            .iter()
            .map(|t| t.with_pooling_factor(t.pooling_factor() * pooling_scale))
            .collect();
        let drifted = ShardingTask::new(drifted_tables, devices, u64::MAX, 1024);
        let r = p.rebase(&drifted).expect("pooling drift keeps splits legal");
        prop_assert!(r.validate(&drifted).is_ok());
        prop_assert_eq!(r.device_of(), p.device_of());
        prop_assert_eq!(migration_bytes(&p, &r), 0);
    }

    /// validate() accepts exactly the plans derived from the task's own
    /// tables and rejects plans with foreign tables.
    #[test]
    fn validate_rejects_foreign_tables(tables in arbitrary_tables()) {
        let task = ShardingTask::new(tables.clone(), 2, u64::MAX, 1024);
        let device_of = vec![0; tables.len()];
        let good = ShardingPlan::new(vec![], tables.clone(), device_of.clone(), 2).unwrap();
        prop_assert!(good.validate(&task).is_ok());

        let mut foreign = tables;
        foreign[0] = TableConfig::new(TableId(9999), foreign[0].dim(), foreign[0].hash_size(), 1.0, 1.0);
        let bad = ShardingPlan::new(vec![], foreign, device_of, 2).unwrap();
        prop_assert!(bad.validate(&task).is_err());
    }

    /// The task-level estimate is the scaled primitive applied to the
    /// task's own fleet, its batched form is its single form, and on a
    /// uniform fleet both are the baseline-hardware `estimate_plan`.
    #[test]
    fn task_level_estimate_is_the_scaled_primitive_on_the_tasks_fleet(
        tables in arbitrary_tables(),
        placement in proptest::collection::vec(0usize..2, 12),
        two_tier in any::<bool>(),
        slow_scale in 1.0f64..=4.0,
        link_slowdown in 1.0f64..=20.0,
    ) {
        let sim = pricing_sim();
        let mut task = ShardingTask::new(tables.clone(), 2, 1 << 40, 1024);
        if two_tier {
            // Link scale in [0.05, 1].
            let pool = DevicePool::two_tier(1, 1 << 40, 1, 1 << 40, slow_scale, 1.0 / link_slowdown);
            task = task.with_devices(pool);
        }
        let device_of: Vec<usize> = placement[..tables.len()].to_vec();
        let mirrored: Vec<usize> = device_of.iter().map(|d| 1 - d).collect();
        let plans = [
            ShardingPlan::new(vec![], tables.clone(), device_of, 2).unwrap(),
            ShardingPlan::new(vec![], tables, mirrored, 2).unwrap(),
        ];

        let batched = estimate_batch_for_task(sim, &task, &plans).unwrap();
        prop_assert_eq!(batched.len(), plans.len());
        let fleet = task.devices();
        let uniform = fleet.compute_scales() == [1.0; 2] && fleet.bw_scales() == [1.0; 2];
        prop_assert_eq!(uniform, !two_tier || (slow_scale == 1.0 && link_slowdown == 1.0));
        for (plan, from_batch) in plans.iter().zip(&batched) {
            let profiles = plan.device_profiles(task.batch_size());
            let single = estimate_for_task(sim, &task, plan).unwrap();
            let primitive = sim
                .estimate_plan_batch_scaled(std::slice::from_ref(&profiles), fleet)
                .pop()
                .unwrap();
            prop_assert_eq!(estimate_bits(&single), estimate_bits(&primitive));
            prop_assert_eq!(estimate_bits(&single), estimate_bits(from_batch));
            if uniform {
                prop_assert_eq!(
                    estimate_bits(&single),
                    estimate_bits(&sim.estimate_plan(&profiles))
                );
            }
        }
    }

    /// The truth half of the relabelling oracle: on a uniform fleet a
    /// device's label carries no meaning, so moving every table of a
    /// sampled table-wise plan from device `d` to `relabel[d]` leaves the
    /// ground truth's plan cost bit-identical and permutes its per-device
    /// costs the same way.
    #[test]
    fn relabelling_devices_permutes_the_ground_truth_exactly(
        devices in 2usize..=8,
        tables in 1usize..=40,
        max_dim_log in 2u32..=7,
        task_seed in any::<u64>(),
        placement in proptest::collection::vec(0usize..8, 40),
        label_keys in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let pool = TablePool::synthetic_dlrm(40, 3);
        // A budget nothing exceeds, so every plan is priced.
        let max_dim = 1 << max_dim_log;
        let task = ShardingTask::sample(&pool, devices, tables..=tables, max_dim, task_seed)
            .with_devices(DevicePool::uniform(devices, u64::MAX / 16));
        let device_of: Vec<usize> = placement[..tables].iter().map(|d| d % devices).collect();
        let mut order: Vec<usize> = (0..devices).collect();
        order.sort_by_key(|&d| (label_keys[d], d));
        let mut relabel = vec![0; devices];
        for (label, &d) in order.iter().enumerate() {
            relabel[d] = label;
        }
        let relabelled: Vec<usize> = device_of.iter().map(|&d| relabel[d]).collect();

        let spec = GpuSpec::rtx_2080_ti();
        let price = |device_of: Vec<usize>| {
            let plan =
                ShardingPlan::new(vec![], task.tables().to_vec(), device_of, devices).unwrap();
            evaluate_plan_exact(&task, &plan, &spec).unwrap()
        };
        let (truth, moved) = (price(device_of), price(relabelled));
        prop_assert_eq!(truth.max_total_ms().to_bits(), moved.max_total_ms().to_bits());
        for (d, cost) in truth.devices().iter().enumerate() {
            let after = &moved.devices()[relabel[d]];
            prop_assert!(
                device_cost_bits(cost) == device_cost_bits(after),
                "device {d} relabelled {}: {cost:?} vs {after:?}",
                relabel[d]
            );
        }
    }
}
