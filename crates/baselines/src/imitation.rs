//! Self-imitation learning from sharding logs (Appendix H of the paper).
//!
//! Production sharding services accumulate logs of (task, plan) pairs.
//! The paper's Appendix H proposes selecting the highly-rewarded plans —
//! e.g. NeuroShard's own outputs — and training a policy with *supervised*
//! losses to reproduce them, yielding a sharder that skips the online
//! search entirely: one greedy rollout of the learned policy instead of
//! `O(L·K·N·M·T·D)` cost-model queries.
//!
//! The trained [`ImitationSharder`] trades a little plan quality for a
//! large speedup (see the `repro ext_imitation` experiment), exactly the
//! trade Appendix H anticipates. Column-wise sharding is handled by a
//! deterministic pre-splitting pass (oversized shards are split until they
//! fit), since the imitation policy itself only makes table-wise choices.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use nshard_core::{apply_split_plan, PlanError, ShardingAlgorithm, ShardingPlan, SplitStep};
use nshard_data::{ShardingTask, TableConfig};
use nshard_nn::{Adam, Gradients, Matrix, Mlp, MlpWorkspace};

use crate::policy::{placement_order, softmax, DeviceState, INPUT_DIM};

/// A log of solved sharding tasks — the training data of Appendix H's
/// self-imitation strategy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemLog {
    entries: Vec<LogEntry>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LogEntry {
    /// The column/row-wise sharded tables the expert placed.
    sharded_tables: Vec<TableConfig>,
    /// The expert's device per sharded table.
    device_of: Vec<usize>,
    num_devices: usize,
    batch_size: u32,
}

impl SystemLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records one solved task (typically a NeuroShard outcome).
    pub fn record(&mut self, task: &ShardingTask, plan: &ShardingPlan) {
        self.entries.push(LogEntry {
            sharded_tables: plan.sharded_tables().to_vec(),
            device_of: plan.device_of().to_vec(),
            num_devices: plan.num_devices(),
            batch_size: task.batch_size(),
        });
    }
}

/// A sharding policy distilled from a [`SystemLog`] by supervised
/// (cross-entropy) imitation.
///
/// # Example
///
/// ```no_run
/// use nshard_baselines::{ImitationSharder, ShardingAlgorithm, SystemLog};
/// # let log = SystemLog::new();
/// # let task: nshard_data::ShardingTask = todo!();
/// let sharder = ImitationSharder::fit(&log, 30, 0);
/// let plan = sharder.shard(&task)?;
/// # Ok::<(), nshard_core::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImitationSharder {
    policy: Mlp,
}

impl ImitationSharder {
    /// Trains a policy to imitate the log's plans for `epochs` passes.
    ///
    /// # Panics
    ///
    /// Panics if the log is empty.
    pub fn fit(log: &SystemLog, epochs: usize, seed: u64) -> Self {
        assert!(!log.is_empty(), "cannot imitate an empty log");
        let mut policy = Mlp::new(INPUT_DIM, &[64, 32], 1, seed);
        let mut adam = Adam::new(&policy, 2e-3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1417);

        let mut order: Vec<usize> = (0..log.entries.len()).collect();
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(&policy);
        let mut scaled = Gradients::zeros_like(&policy);
        for _epoch in 0..epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &e in &order {
                let entry = &log.entries[e];
                grads.zero();
                let steps = replay(entry, |inputs, label| {
                    *ws.input_mut() = Matrix::from_rows(inputs);
                    let scores = policy.forward_in(&mut ws);
                    let probs = softmax(scores.as_slice());
                    // Cross-entropy gradient: p - onehot(label).
                    let mut dy = Matrix::zeros(inputs.len(), 1);
                    for (g, &p) in probs.iter().enumerate() {
                        let indicator = if g == label { 1.0 } else { 0.0 };
                        dy.set(g, 0, (p - indicator) as f32);
                    }
                    policy.backward(&mut ws, &dy, None, &[]);
                    policy.fold_into(&ws, &[], 1.0, &mut grads);
                });
                if steps > 0 {
                    // Average per decision so long tasks don't dominate.
                    scaled.zero();
                    scaled.accumulate(&grads, 1.0 / steps as f32);
                    adam.step(&mut policy, &scaled);
                }
            }
        }
        Self { policy }
    }

    /// The learned policy network.
    pub fn policy(&self) -> &Mlp {
        &self.policy
    }
}

/// Replays an expert trajectory in canonical order (bytes-descending),
/// invoking `visit(per-device inputs, expert device)` per step, and
/// returns the number of steps.
fn replay(entry: &LogEntry, mut visit: impl FnMut(&[Vec<f32>], usize)) -> usize {
    let order = placement_order(&entry.sharded_tables);
    let mut state = DeviceState::new(&entry.sharded_tables, entry.num_devices);
    for &i in &order {
        let table = &entry.sharded_tables[i];
        let inputs = state.inputs(table, entry.batch_size);
        let label = entry.device_of[i];
        visit(&inputs, label);
        state.place(table, label);
    }
    order.len()
}

impl ShardingAlgorithm for ImitationSharder {
    fn name(&self) -> &str {
        "imitation"
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        // Deterministic pre-split: halve any shard that exceeds half the
        // largest device's budget until everything is placeable (the
        // imitation policy is table-wise only; see module docs).
        let threshold = task.devices().max_budget() / 2;
        let mut split_plan: Vec<SplitStep> = Vec::new();
        let mut tables = task.tables().to_vec();
        while let Some(idx) = tables
            .iter()
            .position(|t| t.memory_bytes() > threshold && t.split_columns().is_some())
        {
            let (a, b) = tables[idx].split_columns().expect("checked splittable");
            split_plan.push(SplitStep::column(idx));
            tables[idx] = a;
            tables.push(b);
        }
        debug_assert_eq!(
            apply_split_plan(task.tables(), &split_plan).as_deref(),
            Ok(&tables[..])
        );

        let order = placement_order(&tables);
        let mut state = DeviceState::new(&tables, task.num_devices());
        let mut placed_bytes = vec![0u64; task.num_devices()];
        let mut device_of = vec![0usize; tables.len()];
        for &i in &order {
            let table = &tables[i];
            let inputs = state.inputs(table, task.batch_size());
            let scores = self.policy.forward(&Matrix::from_rows(&inputs));
            // Argmax over memory-feasible devices.
            let chosen = (0..task.num_devices())
                .filter(|&g| placed_bytes[g] + table.memory_bytes() <= task.budget_of(g))
                .max_by(|&a, &b| {
                    scores
                        .get(a, 0)
                        .partial_cmp(&scores.get(b, 0))
                        .expect("finite scores")
                })
                .ok_or_else(|| PlanError::Infeasible {
                    reason: format!(
                        "imitation policy found no feasible device for {}",
                        table.id()
                    ),
                })?;
            state.place(table, chosen);
            placed_bytes[chosen] += table.memory_bytes();
            device_of[i] = chosen;
        }
        ShardingPlan::with_split_plan(split_plan, tables, device_of, task.num_devices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::DimGreedy;
    use nshard_data::{TableId, TablePool};

    fn tasks(n: usize, seed: u64) -> Vec<ShardingTask> {
        let pool = TablePool::synthetic_dlrm(80, 3);
        (0..n as u64)
            .map(|i| ShardingTask::sample(&pool, 2, 8..=16, 32, seed ^ i))
            .collect()
    }

    fn log_from_expert(tasks: &[ShardingTask]) -> SystemLog {
        // Use a deterministic "expert" (dimension-greedy) to build the log.
        let mut log = SystemLog::new();
        for t in tasks {
            let plan = DimGreedy.shard(t).unwrap();
            log.record(t, &plan);
        }
        log
    }

    #[test]
    fn records_and_counts() {
        let ts = tasks(3, 1);
        let log = log_from_expert(&ts);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn fit_and_shard_produce_valid_plans() {
        let ts = tasks(6, 2);
        let sharder = ImitationSharder::fit(&log_from_expert(&ts), 15, 0);
        for t in &ts {
            let plan = sharder.shard(t).unwrap();
            assert!(plan.validate(t).is_ok());
        }
    }

    #[test]
    fn imitation_learns_balance_from_a_balancing_expert() {
        let train_tasks = tasks(12, 3);
        let sharder = ImitationSharder::fit(&log_from_expert(&train_tasks), 40, 1);
        // Held-out task: the policy should produce reasonably balanced
        // device dimensions, like its dim-greedy teacher.
        let held_out = &tasks(3, 999)[0];
        let plan = sharder.shard(held_out).unwrap();
        let dims = plan.device_dims();
        let max = dims.iter().cloned().fold(0.0, f64::max);
        let min = dims.iter().cloned().fold(f64::INFINITY, f64::min);
        let total: f64 = dims.iter().sum();
        assert!(
            (max - min) / total < 0.5,
            "imbalanced: {dims:?} (teacher balances dimensions)"
        );
    }

    #[test]
    fn presplits_oversized_tables() {
        let ts = tasks(4, 5);
        let sharder = ImitationSharder::fit(&log_from_expert(&ts), 10, 2);
        let huge = TableConfig::new(TableId(77), 128, 8 << 20, 10.0, 1.0); // 4 GB
        let small = TableConfig::new(TableId(78), 16, 1 << 16, 4.0, 1.0);
        let task = ShardingTask::new(vec![huge, small], 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let plan = sharder.shard(&task).unwrap();
        assert!(plan.num_column_splits() >= 1);
        assert!(plan.validate(&task).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let ts = tasks(2, 7);
        let sharder = ImitationSharder::fit(&log_from_expert(&ts), 5, 3);
        let json = serde_json::to_string(&sharder).unwrap();
        let back: ImitationSharder = serde_json::from_str(&json).unwrap();
        assert_eq!(sharder, back);
    }

    #[test]
    #[should_panic(expected = "empty log")]
    fn empty_log_panics() {
        let _ = ImitationSharder::fit(&SystemLog::new(), 5, 0);
    }
}
