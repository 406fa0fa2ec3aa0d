//! Sharding-task generation (the evaluation grid of Table 5).
//!
//! A *sharding task* is the unit of evaluation in the paper: a set of tables
//! with sampled dimensions, a device count and a per-device memory budget.
//! For every `(num_gpus, max_dim)` pair the paper samples 100 random tasks
//! and reports the mean real embedding cost of each algorithm's plans.

use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::value::Value;
use serde::{Deserialize, Serialize};

use nshard_sim::BYTES_PER_ELEM;
use nshard_sim::{DevicePool, DeviceProfile, TableProfile};

use crate::pool::TablePool;
use crate::table::TableConfig;

/// One embedding-table sharding task: tables, a device fleet, a batch size.
///
/// The fleet is always a [`DevicePool`] — per-device memory budgets,
/// compute classes and the two-tier network. [`ShardingTask::new`] and
/// [`ShardingTask::sample`] build the paper's uniform fleet (`D` identical
/// devices, one budget); [`ShardingTask::with_devices`] swaps in any other.
///
/// This module also owns the task's JSON form (requests to the daemon,
/// `StoredPlan` files, replication values, plan ids). It keeps the five
/// keys tasks have always had — `tables, num_devices, mem_budget_bytes,
/// batch_size, devices` — with `"devices":null` standing for
/// `DevicePool::uniform(num_devices, mem_budget_bytes)`, so uniform tasks
/// serialize to the bytes they always did. Reading validates: a JSON task
/// that the constructors would have refused is a decode error, never a
/// value that panics later.
///
/// # Example
///
/// ```
/// use nshard_data::{ShardingTask, TablePool};
///
/// let pool = TablePool::synthetic_dlrm(856, 2023);
/// let task = ShardingTask::sample(&pool, 4, 10..=60, 128, 0);
/// assert_eq!(task.num_devices(), 4);
/// assert!(task.tables().iter().all(|t| t.dim() <= 128));
/// ```
#[derive(Debug, Clone, PartialEq, Deserialize)]
#[serde(try_from = "TaskWire")]
pub struct ShardingTask {
    tables: Vec<TableConfig>,
    devices: DevicePool,
    batch_size: u32,
}

/// The JSON form of a [`ShardingTask`] as read; [`ShardingTask`]'s
/// `Serialize` writes the same five keys.
#[derive(Deserialize)]
struct TaskWire {
    tables: Vec<TableConfig>,
    num_devices: usize,
    mem_budget_bytes: u64,
    batch_size: u32,
    /// Absent in files from before heterogeneous fleets.
    #[serde(default)]
    devices: Option<DevicePool>,
}

/// Most devices a JSON task (or plan) may name: `"devices":null` expands to
/// one profile per device, so the count must be bounded before it is
/// allocated. The largest fleet any bench drives has 128.
pub const MAX_WIRE_DEVICES: usize = 1 << 16;

impl TryFrom<TaskWire> for ShardingTask {
    type Error = String;

    fn try_from(wire: TaskWire) -> Result<Self, String> {
        if wire.tables.is_empty() {
            return Err("a task needs at least one table".into());
        }
        // `memory_bytes` and `total_bytes` multiply and sum unchecked.
        wire.tables
            .iter()
            .try_fold(0u64, |sum, t| {
                let bytes = t
                    .hash_size()
                    .checked_mul(u64::from(t.dim()) * BYTES_PER_ELEM)?;
                sum.checked_add(bytes)
            })
            .ok_or("the tables' total byte size overflows 64 bits")?;
        if !(1..=MAX_WIRE_DEVICES).contains(&wire.num_devices) {
            return Err(format!(
                "a task needs between 1 and {MAX_WIRE_DEVICES} devices, got {}",
                wire.num_devices
            ));
        }
        let devices = match wire.devices {
            Some(pool) => pool,
            None if wire.mem_budget_bytes == 0 => {
                return Err("device memory budget must be positive".into())
            }
            None => DevicePool::uniform(wire.num_devices, wire.mem_budget_bytes),
        };
        if devices.len() != wire.num_devices {
            return Err(format!(
                "device pool describes {} devices, the task names {}",
                devices.len(),
                wire.num_devices
            ));
        }
        Ok(Self {
            tables: wire.tables,
            devices,
            batch_size: wire.batch_size,
        })
    }
}

impl Serialize for ShardingTask {
    fn to_value(&self) -> Value {
        let budget = self.devices.max_budget();
        let plain = DeviceProfile::new(budget, 1.0, 0);
        let uniform = self.devices.inter_node_bw_scale() == 1.0
            && self.devices.devices().iter().all(|d| *d == plain);
        let pool = if uniform {
            Value::Null
        } else {
            self.devices.to_value()
        };
        Value::Map(vec![
            ("tables".into(), self.tables.to_value()),
            ("num_devices".into(), self.num_devices().to_value()),
            ("mem_budget_bytes".into(), budget.to_value()),
            ("batch_size".into(), self.batch_size.to_value()),
            ("devices".into(), pool),
        ])
    }
}

impl ShardingTask {
    /// Builds a task on `num_devices` identical devices of
    /// `mem_budget_bytes` each ([`DevicePool::uniform`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`, `mem_budget_bytes == 0` or `tables` is
    /// empty.
    pub fn new(
        tables: Vec<TableConfig>,
        num_devices: usize,
        mem_budget_bytes: u64,
        batch_size: u32,
    ) -> Self {
        assert!(num_devices > 0, "a task needs at least one device");
        assert!(!tables.is_empty(), "a task needs at least one table");
        Self {
            tables,
            devices: DevicePool::uniform(num_devices, mem_budget_bytes),
            batch_size,
        }
    }

    /// Samples a task per the paper's protocol: draw the table count `T`
    /// uniformly from `t_range`, draw `T` tables from the pool, and assign
    /// each a dimension uniformly from `{4, 8, ..., max_dim}` (powers of
    /// two). Uses the paper's defaults of a 4 GB budget and batch 65 536.
    ///
    /// # Panics
    ///
    /// Panics if `max_dim < 4` or `max_dim` is not a power of two.
    pub fn sample(
        pool: &TablePool,
        num_devices: usize,
        t_range: RangeInclusive<usize>,
        max_dim: u32,
        seed: u64,
    ) -> Self {
        assert!(
            max_dim >= 4 && max_dim.is_power_of_two(),
            "max_dim must be a power of two >= 4"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let t = rng.random_range(t_range);
        let dims: Vec<u32> = (2..=max_dim.ilog2()).map(|j| 1 << j).collect();
        let tables = pool
            .sample_tables(t, &mut rng)
            .into_iter()
            .map(|table| table.with_dim(dims[rng.random_range(0..dims.len())]))
            .collect();
        Self::new(
            tables,
            num_devices,
            nshard_sim::DEFAULT_MEM_BYTES,
            nshard_sim::DEFAULT_BATCH_SIZE,
        )
    }

    /// The task's tables.
    pub fn tables(&self) -> &[TableConfig] {
        &self.tables
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of GPU devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Training batch size.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Returns a copy with different tables on the same fleet
    /// (builder-style) — how a workload drifts.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty.
    pub fn with_tables(mut self, tables: Vec<TableConfig>) -> Self {
        assert!(!tables.is_empty(), "a task needs at least one table");
        self.tables = tables;
        self
    }

    /// Replaces the device fleet (builder-style).
    ///
    /// # Panics
    ///
    /// Panics when the pool's size differs from the task's device count.
    pub fn with_devices(mut self, pool: DevicePool) -> Self {
        assert_eq!(
            pool.len(),
            self.num_devices(),
            "device pool size must match the task's device count"
        );
        self.devices = pool;
        self
    }

    /// The device fleet.
    pub fn devices(&self) -> &DevicePool {
        &self.devices
    }

    /// Per-device memory budgets, in device order.
    pub fn budgets(&self) -> &[u64] {
        self.devices.budgets()
    }

    /// Lowers all tables to simulator profiles at the task's batch size.
    pub fn profiles(&self) -> Vec<TableProfile> {
        self.tables
            .iter()
            .map(|t| t.profile(self.batch_size))
            .collect()
    }

    /// Total fp32 bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(TableConfig::memory_bytes).sum()
    }
}

/// The paper's evaluation grid (Table 5): `(num_gpus, table-count range,
/// max dimension)` triples, all with a 4 GB per-GPU budget.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskGrid {
    cells: Vec<GridCell>,
}

/// One cell of the evaluation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Number of GPUs for tasks in this cell.
    pub num_devices: usize,
    /// Minimum number of tables per task.
    pub t_min: usize,
    /// Maximum number of tables per task.
    pub t_max: usize,
    /// Maximum table dimension (`2^j`).
    pub max_dim: u32,
}

impl TaskGrid {
    /// The full 12-cell grid of Table 5: 4 GPUs × max dims {4..128} with
    /// 10–60 tables, and 8 GPUs × max dims {4..128} with 20–120 tables.
    pub fn paper() -> Self {
        let mut cells = Vec::new();
        for (d, t_min, t_max) in [(4usize, 10usize, 60usize), (8, 20, 120)] {
            for j in 2..=7u32 {
                cells.push(GridCell {
                    num_devices: d,
                    t_min,
                    t_max,
                    max_dim: 1 << j,
                });
            }
        }
        Self { cells }
    }

    /// The grid cells.
    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pool() -> TablePool {
        TablePool::synthetic_dlrm(120, 99)
    }

    #[test]
    fn sample_respects_ranges() {
        let task = ShardingTask::sample(&pool(), 4, 10..=60, 128, 5);
        assert!((10..=60).contains(&task.num_tables()));
        for t in task.tables() {
            assert!(t.dim() >= 4 && t.dim() <= 128);
            assert!(t.dim().is_power_of_two());
        }
    }

    #[test]
    fn sample_is_deterministic() {
        let a = ShardingTask::sample(&pool(), 4, 10..=60, 64, 5);
        let b = ShardingTask::sample(&pool(), 4, 10..=60, 64, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn max_dim_4_yields_only_dim_4() {
        let task = ShardingTask::sample(&pool(), 4, 10..=20, 4, 1);
        assert!(task.tables().iter().all(|t| t.dim() == 4));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_max_dim_panics() {
        let _ = ShardingTask::sample(&pool(), 4, 1..=2, 100, 0);
    }

    #[test]
    fn paper_grid_matches_table_5() {
        let grid = TaskGrid::paper();
        assert_eq!(grid.cells().len(), 12);
        let four: Vec<_> = grid.cells().iter().filter(|c| c.num_devices == 4).collect();
        let eight: Vec<_> = grid.cells().iter().filter(|c| c.num_devices == 8).collect();
        assert_eq!(four.len(), 6);
        assert_eq!(eight.len(), 6);
        assert!(four.iter().all(|c| c.t_min == 10 && c.t_max == 60));
        assert!(eight.iter().all(|c| c.t_min == 20 && c.t_max == 120));
        let dims: Vec<u32> = four.iter().map(|c| c.max_dim).collect();
        assert_eq!(dims, vec![4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn profiles_and_memory_are_consistent() {
        let task = ShardingTask::sample(&pool(), 4, 10..=20, 64, 2);
        assert_eq!(task.profiles().len(), task.num_tables());
        let by_hand: u64 = task.tables().iter().map(|t| t.memory_bytes()).sum();
        assert_eq!(task.total_bytes(), by_hand);
    }

    #[test]
    fn budgets_come_from_the_pool() {
        let uniform = ShardingTask::new(two_tables(), 4, 1 << 30, 64);
        assert_eq!(uniform.devices(), &DevicePool::uniform(4, 1 << 30));
        assert_eq!(uniform.budgets(), [1 << 30; 4]);
        let task = uniform.with_devices(DevicePool::two_tier(2, 4 << 30, 2, 1 << 30, 1.5, 0.5));
        assert_eq!(task.budgets(), [4 << 30, 4 << 30, 1 << 30, 1 << 30]);
    }

    #[test]
    #[should_panic(expected = "pool size must match")]
    fn mismatched_pool_size_panics() {
        let _ = ShardingTask::sample(&pool(), 4, 10..=20, 64, 3)
            .with_devices(nshard_sim::DevicePool::uniform(2, 1 << 30));
    }

    fn two_tables() -> Vec<TableConfig> {
        use crate::table::TableId;
        vec![
            TableConfig::new(TableId(0), 32, 1 << 14, 8.0, 1.05),
            TableConfig::new(TableId(1), 64, 1 << 12, 2.5, 0.0),
        ]
    }

    // Three task files as the last commit with a scalar budget beside an
    // `Option<DevicePool>` wrote them (`two_tables()` on 2 devices of
    // 16 MiB, batch 64): the `devices` key absent (files from before
    // heterogeneous fleets), `"devices":null`, and a two-tier pool.
    const TABLES_JSON: &str = r#"[{"id":0,"dim":32,"hash_size":16384,"pooling_factor":8.0,"zipf_alpha":1.05,"replicas":1,"row_offset":0},{"id":1,"dim":64,"hash_size":4096,"pooling_factor":2.5,"zipf_alpha":0.0,"replicas":1,"row_offset":0}]"#;

    fn legacy_json() -> String {
        format!(
            r#"{{"tables":{TABLES_JSON},"num_devices":2,"mem_budget_bytes":16777216,"batch_size":64}}"#
        )
    }

    fn null_pool_json() -> String {
        format!(
            r#"{{"tables":{TABLES_JSON},"num_devices":2,"mem_budget_bytes":16777216,"batch_size":64,"devices":null}}"#
        )
    }

    fn two_tier_json() -> String {
        format!(
            r#"{{"tables":{TABLES_JSON},"num_devices":2,"mem_budget_bytes":16777216,"batch_size":64,"devices":{{"devices":[{{"mem_budget_bytes":16777216,"compute_scale":1.0,"node":0}},{{"mem_budget_bytes":5242880,"compute_scale":1.5,"node":1}}],"inter_node_bw_scale":0.25}}}}"#
        )
    }

    #[test]
    fn parent_task_files_load_and_round_trip_to_the_same_bytes() {
        let uniform = ShardingTask::new(two_tables(), 2, 16 << 20, 64);
        let legacy: ShardingTask = serde_json::from_str(&legacy_json()).unwrap();
        assert_eq!(legacy, uniform);

        let null_pool: ShardingTask = serde_json::from_str(&null_pool_json()).unwrap();
        assert_eq!(null_pool, uniform);
        assert_eq!(serde_json::to_string(&null_pool).unwrap(), null_pool_json());

        let two_tier: ShardingTask = serde_json::from_str(&two_tier_json()).unwrap();
        assert_eq!(
            two_tier,
            uniform.with_devices(DevicePool::two_tier(1, 16 << 20, 1, 5 << 20, 1.5, 0.25))
        );
        assert_eq!(serde_json::to_string(&two_tier).unwrap(), two_tier_json());
    }

    #[test]
    fn a_uniform_pool_serializes_as_no_pool() {
        let plain = ShardingTask::new(two_tables(), 2, 16 << 20, 64);
        let pooled = plain.clone().with_devices(DevicePool::uniform(2, 16 << 20));
        assert_eq!(serde_json::to_string(&plain).unwrap(), null_pool_json());
        assert_eq!(serde_json::to_string(&pooled).unwrap(), null_pool_json());
        // Equal budgets on two nodes is not `DevicePool::uniform`: a
        // device's node is part of the fleet, so the pool is written out.
        let two_nodes =
            plain.with_devices(DevicePool::two_tier(1, 16 << 20, 1, 16 << 20, 1.0, 1.0));
        let json = serde_json::to_string(&two_nodes).unwrap();
        assert!(json.contains(r#""node":1"#), "{json}");
        assert_eq!(
            serde_json::from_str::<ShardingTask>(&json).unwrap(),
            two_nodes
        );
    }

    #[test]
    fn the_decoder_refuses_what_the_constructors_refuse() {
        let edits = [
            (r#""num_devices":2"#, r#""num_devices":0"#, "between 1 and"),
            (
                r#""num_devices":2"#,
                r#""num_devices":3"#,
                "the task names 3",
            ),
            (
                r#""num_devices":2"#,
                r#""num_devices":9223372036854775808"#,
                "between 1 and",
            ),
            (
                r#""compute_scale":1.5"#,
                r#""compute_scale":0.0"#,
                "compute scale",
            ),
            (
                r#""mem_budget_bytes":5242880"#,
                r#""mem_budget_bytes":0"#,
                "budget",
            ),
            (
                r#""inter_node_bw_scale":0.25"#,
                r#""inter_node_bw_scale":1.5"#,
                "bandwidth scale",
            ),
            (r#""dim":32"#, r#""dim":0"#, "dimension"),
            (r#""hash_size":16384"#, r#""hash_size":0"#, "hash size"),
            (
                r#""hash_size":16384"#,
                r#""hash_size":9223372036854775808"#,
                "overflows",
            ),
            (
                r#""pooling_factor":8.0"#,
                r#""pooling_factor":0.0"#,
                "pooling factor",
            ),
            (TABLES_JSON, "[]", "at least one table"),
        ];
        for (from, to, expect) in edits {
            let body = two_tier_json().replacen(from, to, 1);
            assert_ne!(body, two_tier_json(), "{from} not found");
            let err = serde_json::from_str::<ShardingTask>(&body).unwrap_err();
            assert!(err.to_string().contains(expect), "{to}: {err}");
        }
        let zero_budget = null_pool_json().replace("16777216", "0");
        assert!(serde_json::from_str::<ShardingTask>(&zero_budget).is_err());
    }

    proptest! {
        #[test]
        fn sampled_tasks_always_valid(seed: u64, j in 2u32..8) {
            let task = ShardingTask::sample(&pool(), 4, 10..=60, 1 << j, seed);
            prop_assert!(task.num_tables() >= 10);
            prop_assert!(task.tables().iter().all(|t| t.dim() <= 1 << j));
        }
    }
}
