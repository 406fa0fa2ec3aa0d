//! Closing the loop under workload drift (DESIGN.md §8, §12): a deployed
//! plan driven through `WorkloadDrift::standard`, epoch by epoch, on one
//! `PlanningStack`. Each epoch rebases the incumbent onto the drifted
//! task, prices it, replans when a trigger fires, and measures the
//! deployment on the ground-truth cluster. Two comparisons, both on the
//! 4-GPU DLRM pool: never / full / incremental replanning over 20 epochs,
//! and a stale bundle kept frozen or fine-tuned by a `ContinualLearner`
//! over 28.

use serde::Serialize;

use nshard_core::{
    estimate_for_task, evaluate_plan, replan_migration_bytes, IncrementalConfig, NeuroShardConfig,
    ShardingPlan,
};
use nshard_cost::{CollectConfig, CostModelBundle, EstimatedCost, TrainSettings};
use nshard_data::{ShardingTask, TablePool};
use nshard_online::learn::{ContinualConfig, ContinualLearner, EpochObservation, FineTuneSettings};
use nshard_online::{PlanningStack, ReplanRoute, WorkloadDrift};
use nshard_pool::splitmix64;
use nshard_sim::GpuSpec;

use crate::markdown_table;
use crate::repro::{Ctx, Report};

/// Replan when the incumbent's predicted cost exceeds the deployed one's
/// by more than this fraction.
const MAX_COST_REGRESSION: f64 = 0.10;
/// Replan when the predicted max/mean device compute exceeds this.
const IMBALANCE_RATIO: f64 = 1.35;
/// An incremental trace whose last replans left the predicted cost more
/// than this fraction above the last full-chain plan's ends with one
/// full-chain replan on its final epoch, charged like any other.
const STALL_IMPROVEMENT: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Strategy {
    /// Ride the incumbent through all drift.
    Never,
    /// Replan from scratch through the full chain.
    Full,
    /// `PlanningStack::replan`, plus the stall escape.
    Incremental,
}

/// One epoch of a trace.
#[derive(Default, Serialize)]
struct Epoch {
    /// Ground-truth max-device cost of the deployment, `None` when it is
    /// memory-infeasible.
    ground_truth_ms: Option<f64>,
    /// Bytes this epoch's replan moved.
    migration_bytes: u64,
    /// What asked for a replan: a trigger, `rebase_failed` or
    /// `stall_escape`.
    trigger: Option<&'static str>,
    /// What was done: `suppressed`, `full`, `incremental` or `fell_back`.
    action: Option<&'static str>,
}

#[derive(Serialize)]
struct Trace {
    name: &'static str,
    replans: usize,
    migration_bytes: u64,
    epochs: Vec<Epoch>,
}

impl Trace {
    fn new(name: &'static str, epochs: Vec<Epoch>) -> Self {
        let replans = epochs
            .iter()
            .filter(|e| e.action.is_some_and(|a| a != "suppressed"))
            .count();
        let migration_bytes = epochs.iter().map(|e| e.migration_bytes).sum();
        Self {
            name,
            replans,
            migration_bytes,
            epochs,
        }
    }

    fn final_ms(&self) -> f64 {
        let last = self.epochs.last().and_then(|e| e.ground_truth_ms);
        last.expect("the last deployment is memory-feasible")
    }
}

/// The highest-priority trigger `rebased`, priced as `est` on `task`,
/// fires against the deployed prediction `baseline_ms`: memory first,
/// then cost regression, then imbalance.
fn trigger(
    rebased: &ShardingPlan,
    task: &ShardingTask,
    est: &EstimatedCost,
    baseline_ms: f64,
) -> Option<&'static str> {
    let devices = est.compute_per_device.len().max(1) as f64;
    let mean_compute = est.compute_per_device.iter().sum::<f64>() / devices;
    if rebased.first_over_budget(task).is_some() {
        Some("memory")
    } else if baseline_ms > 0.0
        && (est.total_ms() - baseline_ms) / baseline_ms > MAX_COST_REGRESSION
    {
        Some("cost_regression")
    } else {
        (mean_compute > 0.0 && est.max_compute_ms / mean_compute > IMBALANCE_RATIO)
            .then_some("imbalance")
    }
}

/// The cost models' price of `plan` on `task`'s fleet.
fn price(stack: &PlanningStack, task: &ShardingTask, plan: &ShardingPlan) -> EstimatedCost {
    estimate_for_task(stack.simulator(), task, plan)
        .unwrap_or_else(|e| panic!("the loop cannot price its deployment: {e}"))
}

/// Drives `bundle`'s deployment of `drift` through `epochs` epochs under
/// `strategy`, handing every epoch to `learner` and planning with each
/// bundle it promotes.
fn run_trace(
    bundle: &CostModelBundle,
    drift: &WorkloadDrift,
    epochs: u64,
    strategy: Strategy,
    seed: u64,
    mut learner: Option<&mut ContinualLearner>,
) -> Vec<Epoch> {
    let stack_of = |bundle: CostModelBundle| {
        PlanningStack::new(
            bundle,
            NeuroShardConfig::default(),
            IncrementalConfig::default(),
        )
    };
    let mut stack = stack_of(bundle.clone());
    let mut incumbent = stack
        .plan(&drift.task_at(0), false)
        .expect("epoch 0 plans")
        .plan;
    let mut records = Vec::new();
    // The predicted cost of the deployment and of the last full-chain
    // plan, and the incremental replans since that stayed stalled.
    let (mut baseline_ms, mut full_quality_ms, mut stalled) = (0.0, 0.0, 0u64);
    for epoch in 0..epochs {
        let task = drift.task_at(epoch);
        let mut record = Epoch::default();
        let rebased = incumbent.rebase(&task);
        let fired = match &rebased {
            Ok(plan) if epoch > 0 => trigger(plan, &task, &price(&stack, &task, plan), baseline_ms),
            _ => None,
        };
        let escape = strategy == Strategy::Incremental && epoch + 1 == epochs && stalled > 0;
        record.trigger = match (fired, &rebased) {
            (Some(kind), _) => Some(kind),
            (None, Err(_)) => Some("rebase_failed"),
            (None, Ok(_)) => escape.then_some("stall_escape"),
        };
        let mut route = None;
        let adopted = match (record.trigger, strategy) {
            (None, _) => rebased.ok(),
            (Some(_), Strategy::Never) => {
                record.action = Some("suppressed");
                rebased.ok()
            }
            (Some(_), Strategy::Incremental) if !escape => {
                let out = stack
                    .replan(&task, &incumbent, false)
                    .expect("the replan plans");
                record.migration_bytes = out.migration_bytes;
                record.action = Some(match out.route {
                    ReplanRoute::Incremental { .. } => "incremental",
                    ReplanRoute::FellBack { .. } => "fell_back",
                });
                route = record.action;
                Some(out.plan)
            }
            (Some(_), _) => {
                let plan = stack.plan(&task, false).expect("the full chain plans").plan;
                record.migration_bytes = replan_migration_bytes(&incumbent, &plan, &task);
                record.action = Some("full");
                stalled = 0;
                Some(plan)
            }
        };
        // A failed rebase without a replan leaves the stale incumbent.
        if let Some(plan) = adopted {
            incumbent = plan;
        }
        let estimated = price(&stack, &task, &incumbent);
        let truth_seed = splitmix64(seed ^ splitmix64(epoch.wrapping_add(0x9e37_79b9)));
        let truth = evaluate_plan(&task, &incumbent, &GpuSpec::default(), truth_seed).ok();
        record.ground_truth_ms = truth.as_ref().map(|t| t.max_total_ms());
        baseline_ms = estimated.total_ms();
        // A fall-back plans unconstrained and becomes the stall reference;
        // an incremental replan stalls while it stays above it.
        match route {
            _ if epoch == 0 => full_quality_ms = baseline_ms,
            Some("fell_back") => (full_quality_ms, stalled) = (baseline_ms, 0),
            Some(_)
                if (baseline_ms - full_quality_ms) / full_quality_ms.max(f64::MIN_POSITIVE)
                    > STALL_IMPROVEMENT =>
            {
                stalled += 1
            }
            Some(_) => stalled = 0,
            None => {}
        }
        records.push(record);
        let promoted = learner.as_deref_mut().and_then(|learner| {
            learner.on_epoch(&EpochObservation {
                epoch,
                task: &task,
                plan: &incumbent,
                estimated: &estimated,
                ground_truth: truth.as_ref(),
                drifted: fired.is_some(),
            })
        });
        if let Some(bundle) = promoted {
            // Re-price under the new models, so the next regression is not
            // an artifact of the swap.
            stack = stack_of(bundle);
            let repriced = price(&stack, &task, &incumbent).total_ms();
            full_quality_ms *= repriced / baseline_ms.max(f64::MIN_POSITIVE);
            baseline_ms = repriced;
        }
    }
    records
}

/// `repro ext_online`: the drift comparisons and their three gate ratios.
pub(crate) fn ext_online(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Gates {
        incremental_over_full_bytes: f64,
        incremental_over_full_final_ms: f64,
        continual_over_frozen_final_ms: f64,
    }
    #[derive(Serialize)]
    struct Output {
        replanning: Vec<Trace>,
        continual: Vec<Trace>,
        gates: Gates,
    }

    // Never, full and incremental replanning of one 4-GPU deployment
    // through 20 epochs, the spike at epoch 10.
    let collect = CollectConfig {
        compute_samples: 2000,
        comm_samples: 1500,
        ..CollectConfig::default()
    };
    let bundle = ctx.pretrain(4, collect, 42);
    let drift = WorkloadDrift::standard(ShardingTask::sample(&ctx.dlrm, 4, 25..=35, 64, 7), 42);
    let replanning = [
        ("never", Strategy::Never),
        ("full", Strategy::Full),
        ("incremental", Strategy::Incremental),
    ]
    .map(|(name, s)| Trace::new(name, run_trace(&bundle, &drift, 20, s, 7, None)));

    // A bundle pre-trained on a stale pool (pooling × 0.35, 400 / 400
    // samples) replanned fully through 28 epochs, frozen or fine-tuned.
    let stale = TablePool::from_tables(
        ctx.dlrm
            .tables()
            .iter()
            .map(|t| t.with_pooling_factor((t.pooling_factor() * 0.35).max(1.0)))
            .collect(),
    );
    let collect = CollectConfig {
        compute_samples: 400,
        comm_samples: 400,
        ..CollectConfig::default()
    };
    let stale = CostModelBundle::pretrain(&stale, 4, &collect, &TrainSettings::smoke(), 42);
    let drift = WorkloadDrift::standard(ShardingTask::sample(&ctx.dlrm, 4, 25..=35, 64, 9), 33);
    let frozen = run_trace(&stale, &drift, 28, Strategy::Full, 9, None);
    let config = ContinualConfig {
        settings: FineTuneSettings {
            train: TrainSettings {
                epochs: 30,
                learning_rate: 1e-3,
                ..FineTuneSettings::default().train
            },
            min_samples: 12,
        },
        min_observations: 24,
        cooldown_epochs: 3,
        seed: 9,
        ..ContinualConfig::default()
    };
    let mut learner = ContinualLearner::new(stale.clone(), config);
    let continual = run_trace(&stale, &drift, 28, Strategy::Full, 9, Some(&mut learner));
    let continual = [
        Trace::new("frozen", frozen),
        Trace::new("continual", continual),
    ];

    let [_, full, incremental] = &replanning;
    let gates = Gates {
        incremental_over_full_bytes: incremental.migration_bytes as f64
            / full.migration_bytes as f64,
        incremental_over_full_final_ms: incremental.final_ms() / full.final_ms(),
        continual_over_frozen_final_ms: continual[1].final_ms() / continual[0].final_ms(),
    };

    let cell = |t: &Trace, e: usize| {
        let ms = t.epochs[e].ground_truth_ms;
        ms.map_or_else(|| "-".to_string(), |c| format!("{c:.2}"))
    };
    let per_epoch = (0..replanning[0].epochs.len()).map(|e| {
        let cells: Vec<String> = replanning.iter().map(|t| cell(t, e)).collect();
        let trigger = incremental.epochs[e].trigger.unwrap_or("");
        format!("{e} | {} | {trigger}", cells.join(" | "))
    });
    let summary = replanning.iter().chain(&continual).map(|t| {
        let (name, replans, bytes) = (t.name, t.replans, t.migration_bytes);
        format!("{name} | {replans} | {:.2} | {bytes}", t.final_ms())
    });
    let md = format!(
        "# Online re-sharding under drift — 4 GPUs, standard trace\n\n\
         Ground-truth max-device cost per epoch (ms; \"-\" = memory-infeasible):\n\n{}\n{}\n\
         incremental / full: bytes {}, final cost {}; continual / frozen final cost {}\n",
        markdown_table(
            &["epoch", "never", "full", "incremental", "trigger"],
            per_epoch
        ),
        markdown_table(&["trace", "replans", "final (ms)", "bytes moved"], summary),
        gates.incremental_over_full_bytes,
        gates.incremental_over_full_final_ms,
        gates.continual_over_frozen_final_ms,
    );
    let output = Output {
        replanning: replanning.into(),
        continual: continual.into(),
        gates,
    };
    Report::new(&output, md)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableConfig, TableId};

    /// A two-device estimate with 1 ms of comm.
    fn estimate(compute: [f64; 2]) -> EstimatedCost {
        EstimatedCost {
            compute_per_device: compute.to_vec(),
            max_compute_ms: compute[0].max(compute[1]),
            fwd_comm_ms: 0.5,
            bwd_comm_ms: 0.5,
        }
    }

    #[test]
    fn triggers_fire_memory_then_cost_regression_then_imbalance() {
        let tables: Vec<TableConfig> = (0..4)
            .map(|i| TableConfig::new(TableId(i), 32, 1 << 16, 10.0, 1.0))
            .collect();
        let budget = 2 * tables[0].memory_bytes();
        let task = ShardingTask::new(tables.clone(), 2, budget, 1024);
        let plan = ShardingPlan::new(vec![], tables, vec![0, 1, 0, 1], 2).unwrap();
        let quiet = estimate([1.2, 1.0]);
        assert_eq!(trigger(&plan, &task, &quiet, quiet.total_ms()), None);
        // 9% above the deployed prediction is quiet, 11% is not.
        assert_eq!(trigger(&plan, &task, &quiet, quiet.total_ms() / 1.09), None);
        let regressed = trigger(&plan, &task, &quiet, quiet.total_ms() / 1.11);
        assert_eq!(regressed, Some("cost_regression"));
        // Max/mean compute 2 / 1.5 = 1.33 is quiet, 2.2 / 1.6 = 1.375 is not.
        let busy = estimate([2.0, 1.0]);
        assert_eq!(trigger(&plan, &task, &busy, busy.total_ms()), None);
        let hot = estimate([2.2, 1.0]);
        assert_eq!(
            trigger(&plan, &task, &hot, hot.total_ms()),
            Some("imbalance")
        );
        let both = trigger(&plan, &task, &hot, hot.total_ms() / 1.11);
        assert_eq!(
            both,
            Some("cost_regression"),
            "a regression outranks an imbalance"
        );
        // Three tables on device 0 overflow its budget of two: memory
        // outranks a regression and an imbalance.
        let piled = ShardingPlan::new(vec![], task.tables().to_vec(), vec![0, 0, 0, 1], 2);
        let piled = piled.unwrap();
        assert_eq!(trigger(&piled, &task, &hot, 1.0), Some("memory"));
    }
}
