//! # nshard-bench — the reproduction driver
//!
//! One binary lives in `src/bin/`: `repro <experiment>… | all [--check]
//! [--out-dir DIR]` regenerates the paper's tables and figures
//! ([`repro::run`]). Every experiment is a plain function listed in one
//! table under the stem of its result file; it takes the shared context
//! (table pools, one pre-trained bundle per setting) and returns its
//! result document plus the tables it prints. Without `--check` the
//! driver writes `<out-dir>/<name>.json` and prints the tables; with it,
//! it regenerates in memory and compares against the committed file
//! ([`check`]). The invocation behind each committed file lives in the
//! experiment's code, so there are no per-experiment flags.
//!
//! This file holds the one shard → evaluate → average loop of the paper's
//! protocol and table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod extensions;
mod observations;
mod online;
pub mod repro;
mod tables;

use std::time::Instant;

use serde::Serialize;

use nshard_core::{
    evaluate_plan, NeuroShard, PlanError, SearchPhaseStats, ShardingAlgorithm, ShardingPlan,
};
use nshard_data::ShardingTask;
use nshard_sim::GpuSpec;

/// Outcome of running one sharding method over a task set under the
/// paper's evaluation protocol (§4): per-task plans are evaluated on the
/// ground-truth cluster; the mean max-device cost is reported only when
/// *every* task succeeds, otherwise the method "cannot scale" ("-").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct MethodRow {
    /// Method name.
    pub(crate) name: String,
    /// Mean embedding cost in ms across tasks — `None` when any task
    /// failed (the "-" cells of Table 1).
    pub(crate) mean_cost_ms: Option<f64>,
    /// Mean cost over the tasks that did succeed (reported by the ablation
    /// tables even when the success rate is below 100%).
    pub(crate) mean_cost_valid_ms: Option<f64>,
    /// Number of tasks that produced a valid plan.
    pub(crate) successes: usize,
    /// Number of tasks attempted.
    pub(crate) total: usize,
    /// Mean wall-clock sharding time per task, seconds.
    pub(crate) mean_time_s: f64,
    /// Prediction-cache counters summed over the tasks whose search
    /// returned a plan; `Some` only for [`evaluate_neuroshard`] rows.
    pub(crate) phases: Option<SearchPhaseStats>,
}

impl MethodRow {
    /// The cost for display: `"-"` when the method cannot scale.
    pub(crate) fn cost_display(&self) -> String {
        cost_cell(self.mean_cost_ms)
    }

    /// `successes/total`.
    pub(crate) fn success_display(&self) -> String {
        format!("{}/{}", self.successes, self.total)
    }
}

/// A cost with two decimals, `"-"` when there is none.
pub(crate) fn cost_cell(cost_ms: Option<f64>) -> String {
    cost_ms.map_or("-".to_string(), |c| format!("{c:.2}"))
}

/// The one shard → evaluate → average loop: runs `shard` on every task,
/// evaluates each returned plan on the ground-truth cluster (task `i`
/// under noise seed `eval_seed ^ i`) and aggregates per the paper's
/// protocol. Also returns the plans that evaluated successfully, in task
/// order.
pub(crate) fn evaluate_with(
    name: &str,
    tasks: &[ShardingTask],
    spec: &GpuSpec,
    eval_seed: u64,
    mut shard: impl FnMut(&ShardingTask) -> Result<ShardingPlan, PlanError>,
) -> (MethodRow, Vec<ShardingPlan>) {
    let mut plans = Vec::with_capacity(tasks.len());
    let mut cost_sum = 0.0f64;
    let mut total_time = 0.0f64;
    for (i, task) in tasks.iter().enumerate() {
        let start = Instant::now();
        let plan = shard(task);
        total_time += start.elapsed().as_secs_f64();
        let Ok(plan) = plan else { continue };
        if let Ok(costs) = evaluate_plan(task, &plan, spec, eval_seed ^ (i as u64)) {
            cost_sum += costs.max_total_ms();
            plans.push(plan);
        }
    }
    let mean_valid = (!plans.is_empty()).then(|| cost_sum / plans.len() as f64);
    let row = MethodRow {
        name: name.to_string(),
        mean_cost_ms: mean_valid.filter(|_| plans.len() == tasks.len()),
        mean_cost_valid_ms: mean_valid,
        successes: plans.len(),
        total: tasks.len(),
        mean_time_s: total_time / tasks.len().max(1) as f64,
        phases: None,
    };
    (row, plans)
}

/// [`evaluate_with`] for any sharding algorithm.
pub(crate) fn evaluate(
    algo: &dyn ShardingAlgorithm,
    tasks: &[ShardingTask],
    spec: &GpuSpec,
    eval_seed: u64,
) -> MethodRow {
    evaluate_with(algo.name(), tasks, spec, eval_seed, |task| algo.shard(task)).0
}

/// [`evaluate_with`] for NeuroShard under `name`, also summing each
/// search's per-phase cache counters into [`MethodRow::phases`].
pub(crate) fn evaluate_neuroshard(
    name: &str,
    sharder: &NeuroShard,
    tasks: &[ShardingTask],
    spec: &GpuSpec,
    eval_seed: u64,
) -> MethodRow {
    let mut phases = SearchPhaseStats::default();
    let (mut row, _) = evaluate_with(name, tasks, spec, eval_seed, |task| {
        let outcome = sharder.shard_with_stats(task)?;
        phases.candidate.absorb(&outcome.phase_stats.candidate);
        phases.inner.absorb(&outcome.phase_stats.inner);
        Ok(outcome.plan)
    });
    row.phases = Some(phases);
    row
}

/// Formats a GitHub-flavoured markdown table, one line per row; a row is
/// its cells joined by `" | "`.
pub(crate) fn markdown_table(headers: &[&str], rows: impl IntoIterator<Item = String>) -> String {
    let mut out = format!("| {} |\n", headers.join(" | "));
    out.push_str(&format!("|{}|\n", vec!["---"; headers.len()].join("|")));
    for row in rows {
        out.push_str(&format!("| {row} |\n"));
    }
    out
}

/// Pearson correlation coefficient of two equal-length series.
///
/// # Panics
///
/// Panics if lengths differ or are zero.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal lengths");
    assert!(!xs.is_empty(), "series must be non-empty");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_baselines::DimGreedy;
    use nshard_data::{DevicePool, TablePool};

    #[test]
    fn evaluate_counts_successes() {
        let pool = TablePool::synthetic_dlrm(40, 1);
        let tasks: Vec<ShardingTask> = (0..3)
            .map(|i| ShardingTask::sample(&pool, 2, 4..=8, 16, i))
            .collect();
        let row = evaluate(&DimGreedy, &tasks, &GpuSpec::rtx_2080_ti(), 0);
        assert_eq!(row.total, 3);
        assert_eq!(row.successes, 3);
        assert!(row.mean_cost_ms.is_some());
        assert_eq!(row.success_display(), "3/3");
        assert_eq!(row.phases, None);
    }

    #[test]
    fn failed_tasks_clear_the_mean_and_return_no_plan() {
        let pool = TablePool::synthetic_dlrm(40, 1);
        let mut tasks: Vec<ShardingTask> = (0..2)
            .map(|i| ShardingTask::sample(&pool, 2, 4..=8, 16, i))
            .collect();
        // An impossible task: tiny budget.
        tasks.push(
            ShardingTask::sample(&pool, 2, 4..=8, 16, 9).with_devices(DevicePool::uniform(2, 1)),
        );
        let (row, plans) = evaluate_with("dim", &tasks, &GpuSpec::rtx_2080_ti(), 0, |t| {
            DimGreedy.shard(t)
        });
        assert_eq!(row.successes, 2);
        assert_eq!(plans.len(), 2);
        assert!(row.mean_cost_ms.is_none());
        assert!(row.mean_cost_valid_ms.is_some());
        assert_eq!(row.cost_display(), "-");
    }

    #[test]
    fn markdown_table_has_a_header_a_rule_and_one_line_per_row() {
        let table = markdown_table(&["a", "b"], ["1 | 2".to_string()]);
        assert_eq!(table, "| a | b |\n|---|---|\n| 1 | 2 |\n");
    }

    #[test]
    fn pearson_of_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }
}
