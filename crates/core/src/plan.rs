//! Sharding plan types: split plans, table-wise placements and their
//! combined result.

use serde::{Deserialize, Serialize};

use nshard_data::{ShardingTask, TableConfig, MAX_WIRE_DEVICES};
use nshard_sim::TableProfile;

/// How a table is split in two by one sharding step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SplitKind {
    /// Halve the embedding dimension (the paper's primary mechanism).
    Column,
    /// Halve the rows and the pooling workload (the paper's stated
    /// future-work extension for partitioning large tables).
    Row,
    /// Duplicate a hot table: both "halves" keep the full rows and
    /// dimension (memory is paid on every holder) but each answers half
    /// the batch's lookups, splitting the table's compute and all-to-all
    /// traffic across its holders.
    Replicate,
}

impl std::fmt::Display for SplitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SplitKind::Column => "column",
            SplitKind::Row => "row",
            SplitKind::Replicate => "replicate",
        })
    }
}

/// One step of a generalized sharding plan: split the table at `index`
/// (into the current, growing table list) along `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SplitStep {
    /// Index into the current table list.
    pub index: usize,
    /// Split direction.
    pub kind: SplitKind,
}

impl SplitStep {
    /// A column-wise step.
    pub fn column(index: usize) -> Self {
        Self {
            index,
            kind: SplitKind::Column,
        }
    }

    /// A row-wise step.
    pub fn row(index: usize) -> Self {
        Self {
            index,
            kind: SplitKind::Row,
        }
    }

    /// A replication step.
    pub fn replicate(index: usize) -> Self {
        Self {
            index,
            kind: SplitKind::Replicate,
        }
    }
}

/// A sharding plan's split steps, in order. The paper's column-wise plan
/// `c = [c₁, c₂, ..., cₘ]` (§3.3) is the special case whose steps are all
/// [`SplitStep::column`]: at step `i` the table at index `cᵢ` of the
/// *current* table list is split into two halves; the first half replaces
/// position `cᵢ` and the second is appended to the end of the list.
pub type SplitPlan = Vec<SplitStep>;

/// Errors produced while constructing or validating sharding plans.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A split step referenced a table index that does not exist.
    ColumnIndexOutOfRange {
        /// The offending step.
        step: usize,
        /// The split it asked for.
        kind: SplitKind,
        /// The index referenced.
        index: usize,
        /// The table-list length at that step.
        len: usize,
    },
    /// A split step asked for a split the table refuses: a column split
    /// whose halved dimension would violate the kernel lane constraint, a
    /// row split of a table with too few rows or a pooling factor under 2,
    /// or a replication of a table with a pooling factor under 2.
    UnsplittableTable {
        /// The offending step.
        step: usize,
        /// The refused split.
        kind: SplitKind,
        /// The index referenced.
        index: usize,
    },
    /// No memory-feasible table-wise plan exists (the "-" cells of
    /// Table 1).
    Infeasible {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A plan failed validation against its task.
    Invalid {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A cost model answered the search with NaN or an infinity (a bad
    /// checkpoint, a poisoned fine-tune): no comparison of such a value
    /// means anything, so the search stops instead of ranking with it.
    NonFiniteCost {
        /// Which prediction it was.
        what: String,
        /// The value predicted.
        value: f64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ColumnIndexOutOfRange {
                step,
                kind,
                index,
                len,
            } => write!(
                f,
                "{kind} split step {step} references table {index} but only {len} tables exist"
            ),
            PlanError::UnsplittableTable { step, kind, index } => {
                write!(f, "{kind} split step {step} cannot split table {index}")
            }
            PlanError::Infeasible { reason } => write!(f, "no feasible plan: {reason}"),
            PlanError::Invalid { reason } => write!(f, "invalid plan: {reason}"),
            PlanError::NonFiniteCost { what, value } => {
                write!(f, "the cost model predicted a non-finite {what}: {value}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// `value` if it is finite, else the [`PlanError::NonFiniteCost`] naming
/// it — the guard every prediction passes before the search compares it.
pub(crate) fn finite_cost(what: &str, value: f64) -> Result<f64, PlanError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(PlanError::NonFiniteCost {
            what: what.to_string(),
            value,
        })
    }
}

/// Applies a generalized (column- and/or row-wise) split plan to a table
/// list, producing the sharded list of `T + |plan|` tables.
///
/// # Errors
///
/// [`PlanError::ColumnIndexOutOfRange`] or [`PlanError::UnsplittableTable`]
/// when a step is illegal.
///
/// ```
/// use nshard_core::{apply_split_plan, SplitStep};
/// use nshard_data::{TableConfig, TableId};
///
/// let tables = vec![TableConfig::new(TableId(0), 64, 1 << 20, 8.0, 1.0)];
/// let sharded = apply_split_plan(&tables, &[SplitStep::column(0), SplitStep::row(0)])?;
/// assert_eq!(sharded.len(), 3);
/// assert_eq!(sharded[0].dim(), 32);             // column-halved...
/// assert_eq!(sharded[0].hash_size(), 1 << 19);  // ...then row-halved
/// # Ok::<(), nshard_core::PlanError>(())
/// ```
pub fn apply_split_plan(
    tables: &[TableConfig],
    plan: &[SplitStep],
) -> Result<Vec<TableConfig>, PlanError> {
    let mut list = tables.to_vec();
    for (step, &split) in plan.iter().enumerate() {
        split_in_place(&mut list, step, split)?;
    }
    Ok(list)
}

/// Splits `list[index]` along `kind`: the first half replaces it and the
/// second is appended. The one halving rule that split plans and plan
/// deltas ([`crate::PlanDelta::apply`]) both go through; `step` numbers
/// the split in errors.
pub(crate) fn split_in_place(
    list: &mut Vec<TableConfig>,
    step: usize,
    SplitStep { index, kind }: SplitStep,
) -> Result<(), PlanError> {
    let Some(table) = list.get(index) else {
        return Err(PlanError::ColumnIndexOutOfRange {
            step,
            kind,
            index,
            len: list.len(),
        });
    };
    let (a, b) = match kind {
        SplitKind::Column => table.split_columns(),
        SplitKind::Row => table.split_rows(),
        SplitKind::Replicate => table.replicate(),
    }
    .ok_or(PlanError::UnsplittableTable { step, kind, index })?;
    list[index] = a;
    list.push(b);
    Ok(())
}

/// A complete sharding plan: the split plan, the sharded table list it
/// produces and the device assignment of every sharded table.
///
/// # Example
///
/// ```
/// use nshard_core::{apply_split_plan, ShardingPlan, SplitStep};
/// use nshard_data::{TableConfig, TableId};
///
/// let tables = vec![
///     TableConfig::new(TableId(0), 64, 1000, 5.0, 1.0),
///     TableConfig::new(TableId(1), 32, 2000, 3.0, 1.0),
/// ];
/// let plan = ShardingPlan::new(vec![], tables.clone(), vec![0, 1], 2)?;
/// assert_eq!(plan.num_devices(), 2);
/// assert_eq!(plan.device_tables()[0].len(), 1);
///
/// // A column-wise plan is a plan whose steps are all column splits.
/// let steps = vec![SplitStep::column(0)];
/// let sharded = apply_split_plan(&tables, &steps)?;
/// let split = ShardingPlan::new(steps, sharded, vec![0, 1, 1], 2)?;
/// assert_eq!(split.num_column_splits(), 1);
/// # Ok::<(), nshard_core::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "PlanWire")]
pub struct ShardingPlan {
    split_plan: SplitPlan,
    sharded_tables: Vec<TableConfig>,
    device_of: Vec<usize>,
    num_devices: usize,
}

/// The JSON form of a [`ShardingPlan`] as read (a stored plan file): the
/// conversion goes through [`ShardingPlan::new`], so a decoded plan holds
/// what a built one does, and bounds the device count the per-device
/// accessors allocate for.
#[derive(Deserialize)]
struct PlanWire {
    split_plan: SplitPlan,
    sharded_tables: Vec<TableConfig>,
    device_of: Vec<usize>,
    num_devices: usize,
}

impl TryFrom<PlanWire> for ShardingPlan {
    type Error = String;

    fn try_from(wire: PlanWire) -> Result<Self, String> {
        if wire.num_devices > MAX_WIRE_DEVICES {
            return Err(format!(
                "a plan names at most {MAX_WIRE_DEVICES} devices, got {}",
                wire.num_devices
            ));
        }
        Self::new(
            wire.split_plan,
            wire.sharded_tables,
            wire.device_of,
            wire.num_devices,
        )
        .map_err(|e| e.to_string())
    }
}

impl ShardingPlan {
    /// Builds a plan from its split plan, the sharded tables it produced
    /// and their devices.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] when lengths disagree or a device index is out
    /// of range.
    pub fn new(
        split_plan: SplitPlan,
        sharded_tables: Vec<TableConfig>,
        device_of: Vec<usize>,
        num_devices: usize,
    ) -> Result<Self, PlanError> {
        if sharded_tables.len() != device_of.len() {
            return Err(PlanError::Invalid {
                reason: format!(
                    "{} tables but {} device assignments",
                    sharded_tables.len(),
                    device_of.len()
                ),
            });
        }
        if num_devices == 0 {
            return Err(PlanError::Invalid {
                reason: "plan needs at least one device".into(),
            });
        }
        if let Some(&bad) = device_of.iter().find(|&&d| d >= num_devices) {
            return Err(PlanError::Invalid {
                reason: format!("device index {bad} out of range for {num_devices} devices"),
            });
        }
        Ok(Self {
            split_plan,
            sharded_tables,
            device_of,
            num_devices,
        })
    }

    /// The split plan (column- and/or row-wise steps) that produced the
    /// sharded table list.
    pub fn split_plan(&self) -> &[SplitStep] {
        &self.split_plan
    }

    /// The sharded tables, in list order.
    pub fn sharded_tables(&self) -> &[TableConfig] {
        &self.sharded_tables
    }

    /// `device_of[i]` is the device of sharded table `i`.
    pub fn device_of(&self) -> &[usize] {
        &self.device_of
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Number of column-wise sharding steps taken.
    pub fn num_column_splits(&self) -> usize {
        self.split_plan
            .iter()
            .filter(|s| s.kind == SplitKind::Column)
            .count()
    }

    /// Number of row-wise sharding steps taken.
    pub fn num_row_splits(&self) -> usize {
        self.split_plan
            .iter()
            .filter(|s| s.kind == SplitKind::Row)
            .count()
    }

    /// Number of replication steps taken.
    pub fn num_replications(&self) -> usize {
        self.split_plan
            .iter()
            .filter(|s| s.kind == SplitKind::Replicate)
            .count()
    }

    /// Tables grouped by device.
    pub fn device_tables(&self) -> Vec<Vec<TableConfig>> {
        let mut out = vec![Vec::new(); self.num_devices];
        for (table, &d) in self.sharded_tables.iter().zip(&self.device_of) {
            out[d].push(*table);
        }
        out
    }

    /// Simulator profiles grouped by device, at the given batch size.
    pub fn device_profiles(&self, batch_size: u32) -> Vec<Vec<TableProfile>> {
        let mut out = vec![Vec::new(); self.num_devices];
        for (table, &d) in self.sharded_tables.iter().zip(&self.device_of) {
            out[d].push(table.profile(batch_size));
        }
        out
    }

    /// Per-device memory use in bytes.
    pub fn device_bytes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.num_devices];
        for (table, &d) in self.sharded_tables.iter().zip(&self.device_of) {
            out[d] += table.memory_bytes();
        }
        out
    }

    /// Rebases this plan onto a (typically drifted) task: re-applies the
    /// recorded split plan to the task's current tables and keeps the
    /// device assignment. This is how an incumbent plan is priced under a
    /// new workload — the placement is unchanged, but every shard carries
    /// the task's current pooling factors and hash sizes.
    ///
    /// The task must have the same table count as the one the plan was
    /// built for (drift evolves table *parameters*, not the table list).
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] on a table-count mismatch, or a split-plan
    /// error when a recorded split is no longer legal for the drifted
    /// tables (e.g. a row split of a table that shrank below the minimum
    /// shard size).
    pub fn rebase(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        let expected = task.num_tables() + self.split_plan.len();
        if expected != self.sharded_tables.len() {
            return Err(PlanError::Invalid {
                reason: format!(
                    "cannot rebase: task has {} tables but the plan shards {} into {}",
                    task.num_tables(),
                    self.sharded_tables.len() - self.split_plan.len(),
                    self.sharded_tables.len()
                ),
            });
        }
        let sharded = apply_split_plan(task.tables(), &self.split_plan)?;
        Self::new(
            self.split_plan.clone(),
            sharded,
            self.device_of.clone(),
            self.num_devices,
        )
    }

    /// Per-`(TableId, device)` byte masses of this plan — the embedding
    /// bytes of each logical table resident on each device. Column- and
    /// row-wise shards of one table pool into the same entry, so the map is
    /// invariant to *how* a table's bytes are split, only to *where* they
    /// live.
    fn device_mass(&self) -> std::collections::HashMap<(nshard_data::TableId, usize), u64> {
        let mut mass = std::collections::HashMap::new();
        for (table, &d) in self.sharded_tables.iter().zip(&self.device_of) {
            *mass.entry((table.id(), d)).or_insert(0u64) += table.memory_bytes();
        }
        mass
    }

    /// Whether the plan was built for `task`'s device count.
    pub(crate) fn check_device_count(&self, task: &ShardingTask) -> Result<(), PlanError> {
        if self.num_devices == task.num_devices() {
            return Ok(());
        }
        Err(PlanError::Invalid {
            reason: format!(
                "plan has {} devices, task wants {}",
                self.num_devices,
                task.num_devices()
            ),
        })
    }

    /// Validates the plan against a task: same device count, every device
    /// within the memory budget, and the sharded tables derivable from the
    /// task's tables via the recorded split plan.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] describing the first violated constraint.
    pub fn validate(&self, task: &ShardingTask) -> Result<(), PlanError> {
        self.check_device_count(task)?;
        let expected = apply_split_plan(task.tables(), &self.split_plan)?;
        if expected != self.sharded_tables {
            return Err(PlanError::Invalid {
                reason: "sharded tables do not match the split plan applied to the task".into(),
            });
        }
        if let Some((d, bytes, budget)) = self.first_over_budget(task) {
            return Err(PlanError::Invalid {
                reason: format!(
                    "device {d} holds {bytes} bytes, exceeding its {budget} byte budget"
                ),
            });
        }
        Ok(())
    }

    /// The first device holding more bytes than `task` budgets for it, as
    /// `(device, bytes, budget)` — the one memory-fit scan validation,
    /// the replan gate and `repro ext_online`'s memory trigger share.
    pub fn first_over_budget(&self, task: &ShardingTask) -> Option<(usize, u64, u64)> {
        self.device_bytes()
            .into_iter()
            .enumerate()
            .map(|(d, bytes)| (d, bytes, task.budgets()[d]))
            .find(|&(_, bytes, budget)| bytes > budget)
    }
}

/// The embedding bytes that must be *moved between devices* to transform
/// plan `from` into plan `to` — the transport cost of a re-sharding step.
///
/// Both plans should describe the same task (same logical tables and device
/// count); bytes are counted per `(TableId, device)` mass, so a table split
/// differently but left on the same device moves nothing, while a shard
/// relocated to another device moves its full byte size. The count is the
/// sum of positive per-device inflows, i.e. every byte is counted once at
/// its destination.
///
/// ```
/// use nshard_core::{migration_bytes, ShardingPlan};
/// use nshard_data::{TableConfig, TableId};
///
/// let tables = vec![
///     TableConfig::new(TableId(0), 64, 1000, 5.0, 1.0),
///     TableConfig::new(TableId(1), 32, 2000, 3.0, 1.0),
/// ];
/// let a = ShardingPlan::new(vec![], tables.clone(), vec![0, 1], 2)?;
/// let b = ShardingPlan::new(vec![], tables.clone(), vec![1, 1], 2)?;
/// assert_eq!(migration_bytes(&a, &a), 0);
/// assert_eq!(migration_bytes(&a, &b), tables[0].memory_bytes());
/// # Ok::<(), nshard_core::PlanError>(())
/// ```
pub fn migration_bytes(from: &ShardingPlan, to: &ShardingPlan) -> u64 {
    let from_mass = from.device_mass();
    to.device_mass()
        .into_iter()
        .map(|(key, to_bytes)| to_bytes.saturating_sub(from_mass.get(&key).copied().unwrap_or(0)))
        .sum()
}

/// The embedding bytes a replan moves when `plan` replaces `incumbent` on
/// (typically drifted) `task` — the one charge every replan path reports:
/// [`migration_bytes`] from the incumbent rebased onto `task`
/// ([`ShardingPlan::rebase`]), or **every byte of the task** when the
/// incumbent no longer rebases (a recorded split turned illegal after
/// drift, or another table list): its shards no longer describe the
/// task's tables, so none of them can be counted as already in place.
///
/// ```
/// use nshard_core::{replan_migration_bytes, ShardingPlan};
/// use nshard_data::{ShardingTask, TableConfig, TableId};
///
/// let tables = vec![
///     TableConfig::new(TableId(0), 64, 1000, 5.0, 1.0),
///     TableConfig::new(TableId(1), 32, 2000, 3.0, 1.0),
/// ];
/// let task = ShardingTask::new(tables.clone(), 2, 1 << 30, 1024);
/// let a = ShardingPlan::new(vec![], tables.clone(), vec![0, 1], 2)?;
/// let b = ShardingPlan::new(vec![], tables.clone(), vec![1, 1], 2)?;
/// assert_eq!(replan_migration_bytes(&a, &b, &task), tables[0].memory_bytes());
///
/// // A task with another table list: nothing of `a` is in place.
/// let other = ShardingTask::new(vec![tables[1]], 2, 1 << 30, 1024);
/// let c = ShardingPlan::new(vec![], vec![tables[1]], vec![0], 2)?;
/// assert_eq!(replan_migration_bytes(&a, &c, &other), tables[1].memory_bytes());
/// # Ok::<(), nshard_core::PlanError>(())
/// ```
pub fn replan_migration_bytes(
    incumbent: &ShardingPlan,
    plan: &ShardingPlan,
    task: &ShardingTask,
) -> u64 {
    match incumbent.rebase(task) {
        Ok(base) => migration_bytes(&base, plan),
        Err(_) => task.tables().iter().map(TableConfig::memory_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{DevicePool, DeviceProfile, TableId};

    fn t(id: u32, dim: u32) -> TableConfig {
        TableConfig::new(TableId(id), dim, 1000, 5.0, 1.0)
    }

    /// The column-wise plan `c` as split steps.
    fn cols(c: &[usize]) -> SplitPlan {
        c.iter().map(|&i| SplitStep::column(i)).collect()
    }

    #[test]
    fn apply_empty_plan_is_identity() {
        let tables = vec![t(0, 64), t(1, 32)];
        assert_eq!(apply_split_plan(&tables, &cols(&[])).unwrap(), tables);
    }

    #[test]
    fn apply_single_split() {
        let tables = vec![t(0, 64), t(1, 32)];
        let out = apply_split_plan(&tables, &cols(&[0])).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].dim(), 32);
        assert_eq!(out[1].dim(), 32);
        assert_eq!(out[2].dim(), 32);
        assert_eq!(out[2].id(), TableId(0)); // appended half keeps identity
    }

    #[test]
    fn apply_chained_splits_track_growing_list() {
        let tables = vec![t(0, 64)];
        // Split 0 (64→32,32 at [0],[1]); split 1 (the appended half).
        let out = apply_split_plan(&tables, &cols(&[0, 1])).unwrap();
        assert_eq!(
            out.iter().map(|x| x.dim()).collect::<Vec<_>>(),
            vec![32, 16, 16]
        );
    }

    #[test]
    fn out_of_range_step_errors() {
        let err = apply_split_plan(&[t(0, 64)], &cols(&[3])).unwrap_err();
        assert!(matches!(
            err,
            PlanError::ColumnIndexOutOfRange { index: 3, .. }
        ));
    }

    #[test]
    fn unsplittable_table_errors() {
        let err = apply_split_plan(&[t(0, 4)], &cols(&[0])).unwrap_err();
        assert!(matches!(
            err,
            PlanError::UnsplittableTable {
                kind: SplitKind::Column,
                ..
            }
        ));
    }

    #[test]
    fn a_refused_split_names_its_kind() {
        let cold = TableConfig::new(TableId(0), 64, 1 << 20, 1.5, 1.0);
        let err = apply_split_plan(&[cold], &[SplitStep::row(0)]).unwrap_err();
        assert_eq!(err.to_string(), "row split step 0 cannot split table 0");
        let err = apply_split_plan(&[t(0, 4)], &cols(&[0])).unwrap_err();
        assert_eq!(err.to_string(), "column split step 0 cannot split table 0");
        let err = apply_split_plan(&[t(0, 64)], &[SplitStep::row(2)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "row split step 0 references table 2 but only 1 tables exist"
        );
    }

    #[test]
    fn plan_groups_by_device() {
        let tables = vec![t(0, 64), t(1, 32), t(2, 16)];
        let plan = ShardingPlan::new(vec![], tables.clone(), vec![1, 0, 1], 2).unwrap();
        let by_dev = plan.device_tables();
        assert_eq!(by_dev[0].len(), 1);
        assert_eq!(by_dev[1].len(), 2);
        let task = ShardingTask::new(tables.clone(), 2, 1 << 30, 1024);
        let dims = task.devices().lowered_dims(&plan.device_profiles(1024));
        assert_eq!(dims, vec![32.0, 80.0]);
        let bytes = plan.device_bytes();
        assert_eq!(bytes[0], 32 * 1000 * 4);
        assert_eq!(bytes[1], (64 + 16) * 1000 * 4);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(matches!(
            ShardingPlan::new(vec![], vec![t(0, 8)], vec![0, 1], 2),
            Err(PlanError::Invalid { .. })
        ));
    }

    #[test]
    fn device_out_of_range_rejected() {
        assert!(ShardingPlan::new(vec![], vec![t(0, 8)], vec![5], 2).is_err());
    }

    #[test]
    fn validate_against_task() {
        let pool_tables = vec![t(0, 64), t(1, 32)];
        let task = ShardingTask::new(pool_tables.clone(), 2, 1 << 30, 1024);
        let sharded = apply_split_plan(&pool_tables, &cols(&[0])).unwrap();
        let plan = ShardingPlan::new(cols(&[0]), sharded, vec![0, 1, 0], 2).unwrap();
        assert!(plan.validate(&task).is_ok());

        // Wrong device count.
        let bad = ShardingPlan::new(vec![], pool_tables.clone(), vec![0, 0], 1).unwrap();
        assert!(bad.validate(&task).is_err());
    }

    #[test]
    fn validate_catches_memory_overflow() {
        let big = TableConfig::new(TableId(0), 64, 1 << 20, 5.0, 1.0); // 256 MB
        let task = ShardingTask::new(vec![big], 1, 1024, 1024); // 1 KB budget
        let plan = ShardingPlan::new(vec![], vec![big], vec![0], 1).unwrap();
        assert!(matches!(
            plan.validate(&task),
            Err(PlanError::Invalid { .. })
        ));
    }

    #[test]
    fn rebase_carries_drifted_parameters() {
        let tables = vec![t(0, 64), t(1, 32)];
        let sharded = apply_split_plan(&tables, &cols(&[0])).unwrap();
        let plan = ShardingPlan::new(cols(&[0]), sharded, vec![0, 1, 0], 2).unwrap();

        // Drift: table 0's pooling factor doubles, table 1's rows double.
        let drifted_tables = vec![
            tables[0].with_pooling_factor(10.0),
            tables[1].with_hash_size(2000),
        ];
        let drifted = ShardingTask::new(drifted_tables, 2, 1 << 30, 1024);
        let rebased = plan.rebase(&drifted).unwrap();
        assert_eq!(rebased.device_of(), plan.device_of());
        assert_eq!(rebased.split_plan(), plan.split_plan());
        assert_eq!(rebased.sharded_tables()[0].pooling_factor(), 10.0);
        assert_eq!(rebased.sharded_tables()[1].hash_size(), 2000);
        assert!(rebased.validate(&drifted).is_ok());
    }

    #[test]
    fn rebase_rejects_table_count_mismatch() {
        let plan = ShardingPlan::new(vec![], vec![t(0, 64)], vec![0], 1).unwrap();
        let task = ShardingTask::new(vec![t(0, 64), t(1, 32)], 1, 1 << 30, 1024);
        assert!(matches!(plan.rebase(&task), Err(PlanError::Invalid { .. })));
    }

    #[test]
    fn migration_bytes_counts_moved_mass_only() {
        let tables = vec![t(0, 64), t(1, 32), t(2, 16)];
        let a = ShardingPlan::new(vec![], tables.clone(), vec![0, 1, 1], 2).unwrap();
        // Identity moves nothing.
        assert_eq!(migration_bytes(&a, &a), 0);
        // Moving table 2 to device 0 moves exactly its bytes.
        let b = ShardingPlan::new(vec![], tables.clone(), vec![0, 1, 0], 2).unwrap();
        assert_eq!(migration_bytes(&a, &b), tables[2].memory_bytes());
        // A swap moves both tables' bytes.
        let c = ShardingPlan::new(vec![], tables.clone(), vec![1, 0, 1], 2).unwrap();
        assert_eq!(
            migration_bytes(&a, &c),
            tables[0].memory_bytes() + tables[1].memory_bytes()
        );
    }

    #[test]
    fn migration_bytes_ignores_same_device_splits() {
        let tables = vec![t(0, 64)];
        let whole = ShardingPlan::new(vec![], tables.clone(), vec![0], 1).unwrap();
        let sharded = apply_split_plan(&tables, &cols(&[0])).unwrap();
        let split = ShardingPlan::new(cols(&[0]), sharded, vec![0, 0], 1).unwrap();
        // Splitting in place relocates nothing.
        assert_eq!(migration_bytes(&whole, &split), 0);
    }

    #[test]
    fn migration_bytes_charges_relocated_split_halves() {
        let tables = vec![t(0, 64)];
        let whole2 = ShardingPlan::new(vec![], tables.clone(), vec![0], 2).unwrap();
        let sharded = apply_split_plan(&tables, &cols(&[0])).unwrap();
        let half_moved = ShardingPlan::new(cols(&[0]), sharded.clone(), vec![0, 1], 2).unwrap();
        // One half relocated: half the table's bytes move.
        assert_eq!(
            migration_bytes(&whole2, &half_moved),
            sharded[1].memory_bytes()
        );
    }

    #[test]
    fn replicate_step_duplicates_hot_tables() {
        let hot = TableConfig::new(TableId(0), 64, 1000, 8.0, 1.0);
        let out = apply_split_plan(&[hot], &[SplitStep::replicate(0)]).unwrap();
        assert_eq!(out.len(), 2);
        for replica in &out {
            assert_eq!(replica.dim(), 64); // full columns on every holder
            assert_eq!(replica.hash_size(), 1000); // full rows on every holder
            assert_eq!(replica.pooling_factor(), 4.0); // traffic split
            assert_eq!(replica.replicas(), 2);
            assert_eq!(replica.memory_bytes(), hot.memory_bytes());
        }
    }

    #[test]
    fn replicate_step_rejects_cold_tables() {
        let cold = TableConfig::new(TableId(0), 64, 1000, 1.5, 1.0);
        let err = apply_split_plan(&[cold], &[SplitStep::replicate(0)]).unwrap_err();
        assert!(matches!(err, PlanError::UnsplittableTable { index: 0, .. }));
    }

    #[test]
    fn num_replications_counts_only_replicate_steps() {
        let tables = vec![TableConfig::new(TableId(0), 64, 1 << 20, 8.0, 1.0)];
        let steps = vec![
            SplitStep::column(0),
            SplitStep::replicate(0),
            SplitStep::row(1),
        ];
        let sharded = apply_split_plan(&tables, &steps).unwrap();
        let plan = ShardingPlan::new(steps, sharded, vec![0, 1, 2, 3], 4).unwrap();
        assert_eq!(plan.num_column_splits(), 1);
        assert_eq!(plan.num_replications(), 1);
        assert_eq!(plan.num_row_splits(), 1);
    }

    #[test]
    fn device_dims_weight_replicas_by_comm_share() {
        let hot = TableConfig::new(TableId(0), 64, 1000, 8.0, 1.0);
        let steps = vec![SplitStep::replicate(0)];
        let sharded = apply_split_plan(&[hot], &steps).unwrap();
        let plan = ShardingPlan::new(steps, sharded, vec![0, 1], 2).unwrap();
        // Each of the two replicas carries half the table's traffic.
        let task = ShardingTask::new(vec![hot], 2, 1 << 30, 1024);
        let dims = task.devices().lowered_dims(&plan.device_profiles(1024));
        assert_eq!(dims, vec![32.0, 32.0]);
        // But memory is paid in full on both holders.
        assert_eq!(plan.device_bytes(), vec![hot.memory_bytes(); 2]);
    }

    #[test]
    fn validate_respects_per_device_budgets() {
        let small = t(0, 64); // 256 KB
        let big = TableConfig::new(TableId(1), 64, 1 << 20, 5.0, 1.0); // 256 MB
        let pool = DevicePool::new(
            vec![
                DeviceProfile::new(1 << 30, 1.0, 0), // roomy
                DeviceProfile::new(1 << 20, 1.0, 0), // 1 MB: fits `small` only
            ],
            1.0,
        );
        let task = ShardingTask::new(vec![small, big], 2, 1 << 30, 1024).with_devices(pool.clone());

        let good = ShardingPlan::new(vec![], vec![small, big], vec![1, 0], 2).unwrap();
        assert!(good.validate(&task).is_ok());

        // Same plan flipped: the big table lands on the tight device.
        let bad = ShardingPlan::new(vec![], vec![small, big], vec![0, 1], 2).unwrap();
        let err = bad.validate(&task).unwrap_err();
        assert!(err.to_string().contains("device 1"));
    }

    #[test]
    fn migration_bytes_charges_full_replica_mass() {
        let hot = TableConfig::new(TableId(0), 64, 1000, 8.0, 1.0);
        let whole = ShardingPlan::new(vec![], vec![hot], vec![0], 2).unwrap();
        let steps = vec![SplitStep::replicate(0)];
        let sharded = apply_split_plan(&[hot], &steps).unwrap();
        let replicated = ShardingPlan::new(steps, sharded, vec![0, 1], 2).unwrap();
        // Standing up the new replica ships the full table to device 1.
        assert_eq!(migration_bytes(&whole, &replicated), hot.memory_bytes());
        // Tearing it down moves nothing (bytes are counted at destinations).
        assert_eq!(migration_bytes(&replicated, &whole), 0);
    }

    #[test]
    fn replicated_plans_rebase_onto_drifted_tasks() {
        let hot = TableConfig::new(TableId(0), 64, 1000, 8.0, 1.0);
        let steps = vec![SplitStep::replicate(0)];
        let sharded = apply_split_plan(&[hot], &steps).unwrap();
        let plan = ShardingPlan::new(steps, sharded, vec![0, 1], 2).unwrap();

        let drifted_task = ShardingTask::new(vec![hot.with_pooling_factor(16.0)], 2, 1 << 30, 1024);
        let rebased = plan.rebase(&drifted_task).unwrap();
        // The replicate step re-applies: both replicas see the drifted
        // pooling factor halved, and stay flagged as replicas.
        for replica in rebased.sharded_tables() {
            assert_eq!(replica.pooling_factor(), 8.0);
            assert_eq!(replica.replicas(), 2);
        }
        assert!(rebased.validate(&drifted_task).is_ok());
    }

    #[test]
    fn error_display() {
        let e = PlanError::Infeasible {
            reason: "tables too large".into(),
        };
        assert!(e.to_string().contains("tables too large"));
    }
}
