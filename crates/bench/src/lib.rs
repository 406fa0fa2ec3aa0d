//! # nshard-bench — experiment harness for every table and figure
//!
//! One binary per experiment of the paper (see `src/bin/`). This library
//! holds the shared plumbing: evaluating a sharding method over a task set
//! under the paper's protocol, formatting result tables, and a tiny
//! CLI-argument helper.
//!
//! ## Experiment binaries
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3_dimension` | Figure 3 (left) + Figure 10: cost vs. dimension |
//! | `fig3_multitable` | Figure 3 (right): multi-table vs. sum of singles |
//! | `fig4_comm` | Figure 4: max comm cost vs. max device dimension |
//! | `table1_main` | Table 1: the main method comparison grid |
//! | `table2_mse` | Table 2: cost-model test MSEs |
//! | `fig8_scatter` | Figure 8 (left): simulated vs. real plan costs |
//! | `fig8_samples` | Figure 8 (middle/right): sample-efficiency sweeps |
//! | `table3_ablation` | Table 3 + Table 7: component ablations |
//! | `fig9_hyperparams` | Figure 9: N/K/L/M hyperparameter sweeps |
//! | `table4_production` | Table 4: 128-GPU production-scale sharding |
//! | `table5_dataset` | Table 5 + Table 6: task grid and dataset stats |
//!
//! Every binary accepts `--key value` overrides and writes machine-readable
//! JSON when `--out <path>` is given.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use serde::{Deserialize, Serialize};

use nshard_core::{evaluate_plan, ShardingAlgorithm};
use nshard_data::ShardingTask;
use nshard_sim::GpuSpec;

/// Outcome of running one sharding method over a task set under the
/// paper's evaluation protocol (§4): per-task plans are evaluated on the
/// ground-truth cluster; the mean max-device cost is reported only when
/// *every* task succeeds, otherwise the method "cannot scale" ("-").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRow {
    /// Method name.
    pub name: String,
    /// Mean embedding cost in ms across tasks — `None` when any task
    /// failed (the "-" cells of Table 1).
    pub mean_cost_ms: Option<f64>,
    /// Mean cost over the tasks that did succeed (reported by the ablation
    /// tables even when the success rate is below 100%).
    pub mean_cost_valid_ms: Option<f64>,
    /// Number of tasks that produced a valid plan.
    pub successes: usize,
    /// Number of tasks attempted.
    pub total: usize,
    /// Mean wall-clock sharding time per task, seconds.
    pub mean_time_s: f64,
}

impl MethodRow {
    /// Success rate in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.successes as f64 / self.total as f64
        }
    }

    /// Formats the cost for display: `"-"` when the method cannot scale.
    pub fn cost_display(&self) -> String {
        match self.mean_cost_ms {
            Some(c) => format!("{c:.2}"),
            None => "-".to_string(),
        }
    }
}

/// Runs `algo` on every task, evaluating successful plans on the
/// ground-truth cluster, and aggregates per the paper's protocol.
pub fn evaluate_method(
    algo: &dyn ShardingAlgorithm,
    tasks: &[ShardingTask],
    spec: &GpuSpec,
    eval_seed: u64,
) -> MethodRow {
    let mut costs = Vec::with_capacity(tasks.len());
    let mut successes = 0usize;
    let mut total_time = 0.0f64;
    for (i, task) in tasks.iter().enumerate() {
        let start = Instant::now();
        let plan = algo.shard(task);
        total_time += start.elapsed().as_secs_f64();
        let cost = plan
            .ok()
            .and_then(|p| evaluate_plan(task, &p, spec, eval_seed ^ (i as u64)).ok())
            .map(|c| c.max_total_ms());
        if let Some(c) = cost {
            successes += 1;
            costs.push(c);
        }
    }
    let mean_valid = if costs.is_empty() {
        None
    } else {
        Some(costs.iter().sum::<f64>() / costs.len() as f64)
    };
    MethodRow {
        name: algo.name().to_string(),
        mean_cost_ms: if successes == tasks.len() {
            mean_valid
        } else {
            None
        },
        mean_cost_valid_ms: mean_valid,
        successes,
        total: tasks.len(),
        mean_time_s: if tasks.is_empty() {
            0.0
        } else {
            total_time / tasks.len() as f64
        },
    }
}

/// Prints a GitHub-flavoured markdown table.
pub fn print_markdown_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Minimal `--key value` CLI parser shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn from_env() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit vector (for tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Returns the value after `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when the value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        let flag = format!("--{name}");
        for w in self.raw.windows(2) {
            if w[0] == flag {
                return w[1]
                    .parse()
                    .unwrap_or_else(|e| panic!("invalid value for {flag}: {e}"));
            }
        }
        default
    }

    /// Whether a bare `--name` flag is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Optional string value.
    pub fn get_opt(&self, name: &str) -> Option<String> {
        let flag = format!("--{name}");
        self.raw
            .windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].clone())
    }
}

/// Writes a serializable result document to `--out <path>` if requested.
pub fn maybe_write_json<T: Serialize>(args: &Args, value: &T) {
    if let Some(path) = args.get_opt("out") {
        let json = serde_json::to_string_pretty(value).expect("results are serializable");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

/// Pearson correlation coefficient of two equal-length series.
///
/// # Panics
///
/// Panics if lengths differ or are zero.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
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
    fn evaluate_method_counts_successes() {
        let pool = TablePool::synthetic_dlrm(40, 1);
        let tasks: Vec<ShardingTask> = (0..3)
            .map(|i| ShardingTask::sample(&pool, 2, 4..=8, 16, i))
            .collect();
        let row = evaluate_method(&DimGreedy, &tasks, &GpuSpec::rtx_2080_ti(), 0);
        assert_eq!(row.total, 3);
        assert_eq!(row.successes, 3);
        assert!(row.mean_cost_ms.is_some());
        assert_eq!(row.success_rate(), 1.0);
    }

    #[test]
    fn failed_tasks_clear_the_mean() {
        let pool = TablePool::synthetic_dlrm(40, 1);
        let mut tasks: Vec<ShardingTask> = (0..2)
            .map(|i| ShardingTask::sample(&pool, 2, 4..=8, 16, i))
            .collect();
        // An impossible task: tiny budget.
        tasks.push(
            ShardingTask::sample(&pool, 2, 4..=8, 16, 9).with_devices(DevicePool::uniform(2, 1)),
        );
        let row = evaluate_method(&DimGreedy, &tasks, &GpuSpec::rtx_2080_ti(), 0);
        assert_eq!(row.successes, 2);
        assert!(row.mean_cost_ms.is_none());
        assert!(row.mean_cost_valid_ms.is_some());
        assert_eq!(row.cost_display(), "-");
    }

    #[test]
    fn args_parse_values_and_flags() {
        let args = Args::from_vec(vec!["--tasks".into(), "25".into(), "--fast".into()]);
        assert_eq!(args.get("tasks", 10usize), 25);
        assert_eq!(args.get("missing", 7u32), 7);
        assert!(args.has("fast"));
        assert!(!args.has("slow"));
        assert_eq!(args.get_opt("tasks").as_deref(), Some("25"));
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
