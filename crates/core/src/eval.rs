//! Pricing a finished plan *for its task*: ground truth and learned.
//!
//! After the search finishes, the paper runs the chosen plan on real GPUs
//! and reports the max per-device embedding cost ("Evaluation protocol",
//! §4). Here the ground truth is the `nshard-sim` cluster
//! ([`evaluate_plan`], [`evaluate_plan_exact`]); its learned twin
//! ([`estimate_for_task`]) is Equation 1's `f(c, t)` from the pre-trained
//! cost models. Both families read the fleet from the task, so a plan gets
//! the same price from the search that proposed it and from everything
//! that judges it afterwards.

use nshard_cost::{CostSimulator, EstimatedCost};
use nshard_data::ShardingTask;
use nshard_sim::{Cluster, GpuSpec, PlanCosts, SimError};

use crate::plan::{finite_cost, PlanError, ShardingPlan};

/// The ground-truth cluster for `task`: `spec`'s kernel and interconnect
/// laws on the task's device fleet and batch size. The task's per-device
/// budgets stand in for the spec's own memory budget.
pub fn cluster_for(task: &ShardingTask, spec: &GpuSpec) -> Cluster {
    Cluster::new(*spec, task.num_devices(), task.batch_size()).with_devices(task.devices().clone())
}

/// Evaluates `plan` for `task` on the ground-truth cluster with measurement
/// noise (the paper's repeated-measurement protocol), returning the full
/// per-device cost breakdown.
///
/// # Errors
///
/// Propagates [`SimError`] — most importantly out-of-memory failures, which
/// mark an algorithm as unable to scale in Table 1.
pub fn evaluate_plan(
    task: &ShardingTask,
    plan: &ShardingPlan,
    spec: &GpuSpec,
    seed: u64,
) -> Result<PlanCosts, SimError> {
    cluster_for(task, spec).evaluate(&plan.device_profiles(task.batch_size()), seed)
}

/// Like [`evaluate_plan`] but without measurement noise (used by analytical
/// experiments and tests).
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn evaluate_plan_exact(
    task: &ShardingTask,
    plan: &ShardingPlan,
    spec: &GpuSpec,
) -> Result<PlanCosts, SimError> {
    cluster_for(task, spec).evaluate_exact(&plan.device_profiles(task.batch_size()))
}

/// The cost models' estimate of `plan` on `task`'s fleet — the price the
/// search itself minimised: compute predictions scaled by each device's
/// compute class, communication dimensions by its effective bandwidth.
///
/// # Errors
///
/// See [`estimate_batch_for_task`].
pub fn estimate_for_task(
    sim: &CostSimulator,
    task: &ShardingTask,
    plan: &ShardingPlan,
) -> Result<EstimatedCost, PlanError> {
    let mut estimates = estimate_batch_for_task(sim, task, [plan])?;
    Ok(estimates.pop().expect("one plan in, one estimate out"))
}

/// [`estimate_for_task`] for many plans of one task: every plan priced on
/// the task's fleet in one batched call, each estimate bit-identical to
/// pricing that plan alone.
///
/// # Errors
///
/// [`PlanError::Invalid`] when the task's device count is not the one the
/// cost models were trained for
/// ([`nshard_cost::CostModelBundle::check_device_count`]), or a plan was
/// built for a different device count than the task;
/// [`PlanError::NonFiniteCost`] when a device's compute estimate or a
/// plan's total is NaN or an infinity — the one guard every consumer
/// outside the search prices through, so nothing downstream compares a
/// NaN.
pub fn estimate_batch_for_task<'p>(
    sim: &CostSimulator,
    task: &ShardingTask,
    plans: impl IntoIterator<Item = &'p ShardingPlan>,
) -> Result<Vec<EstimatedCost>, PlanError> {
    sim.bundle()
        .check_device_count(task.num_devices())
        .map_err(|reason| PlanError::Invalid { reason })?;
    let plans = plans.into_iter();
    let mut assignments = Vec::with_capacity(plans.size_hint().0);
    for plan in plans {
        plan.check_device_count(task)?;
        assignments.push(plan.device_profiles(task.batch_size()));
    }
    let estimates = sim.estimate_plan_batch_scaled(&assignments, task.devices());
    for estimate in &estimates {
        // `total_ms` folds the devices with `f64::max`, which skips NaN.
        for &ms in &estimate.compute_per_device {
            finite_cost("device cost", ms)?;
        }
        finite_cost("plan estimate", estimate.total_ms())?;
    }
    Ok(estimates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardingPlan;
    use nshard_data::{TableConfig, TableId};

    fn task() -> ShardingTask {
        let tables: Vec<TableConfig> = (0..4)
            .map(|i| TableConfig::new(TableId(i), 32, 1 << 18, 8.0, 1.0))
            .collect();
        ShardingTask::new(tables, 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536)
    }

    fn plan(task: &ShardingTask) -> ShardingPlan {
        ShardingPlan::new(
            vec![],
            task.tables().to_vec(),
            vec![0, 1, 0, 1],
            task.num_devices(),
        )
        .unwrap()
    }

    #[test]
    fn evaluation_reports_per_device_costs() {
        let t = task();
        let p = plan(&t);
        let costs = evaluate_plan(&t, &p, &GpuSpec::rtx_2080_ti(), 3).unwrap();
        assert_eq!(costs.devices().len(), 2);
        assert!(costs.max_total_ms() > 0.0);
    }

    #[test]
    fn exact_evaluation_is_deterministic() {
        let t = task();
        let p = plan(&t);
        let a = evaluate_plan_exact(&t, &p, &GpuSpec::rtx_2080_ti()).unwrap();
        let b = evaluate_plan_exact(&t, &p, &GpuSpec::rtx_2080_ti()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn memory_overflow_surfaces_as_error() {
        let huge = TableConfig::new(TableId(0), 128, 32 << 20, 8.0, 1.0); // 16 GB
        let t = ShardingTask::new(vec![huge], 1, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let p = ShardingPlan::new(vec![], vec![huge], vec![0], 1).unwrap();
        assert!(matches!(
            evaluate_plan(&t, &p, &GpuSpec::rtx_2080_ti(), 0),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn heterogeneous_budgets_reach_the_ground_truth() {
        use nshard_data::{DevicePool, DeviceProfile};
        let t = task();
        let p = plan(&t);
        // Uniform evaluation succeeds; starving device 1's budget makes
        // the same plan overflow at ground truth.
        assert!(evaluate_plan_exact(&t, &p, &GpuSpec::rtx_2080_ti()).is_ok());
        let starved = DevicePool::new(
            vec![
                DeviceProfile::new(nshard_sim::DEFAULT_MEM_BYTES, 1.0, 0),
                DeviceProfile::new(1024, 1.0, 0),
            ],
            1.0,
        );
        let hetero = t.clone().with_devices(starved);
        assert!(matches!(
            evaluate_plan_exact(&hetero, &plan(&hetero), &GpuSpec::rtx_2080_ti()),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn task_memory_budget_overrides_spec() {
        // A plan valid under the default 4 GB budget fails under a tiny one.
        let t = task().with_devices(nshard_data::DevicePool::uniform(2, 1024));
        let p = plan(&t);
        assert!(evaluate_plan(&t, &p, &GpuSpec::rtx_2080_ti(), 0).is_err());
    }

    #[test]
    fn estimates_refuse_what_the_models_cannot_price() {
        use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
        let pool = nshard_data::TablePool::synthetic_dlrm(30, 1);
        let sim = CostSimulator::new(CostModelBundle::pretrain(
            &pool,
            2,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        ));
        let t = task();
        assert!(estimate_for_task(&sim, &t, &plan(&t)).is_ok());

        // A fleet of another size than the models were trained for.
        let three = ShardingTask::new(
            t.tables().to_vec(),
            3,
            nshard_sim::DEFAULT_MEM_BYTES,
            65_536,
        );
        let err = estimate_for_task(&sim, &three, &plan(&t)).unwrap_err();
        assert!(matches!(err, PlanError::Invalid { .. }), "{err}");
        assert!(err.to_string().contains("3 devices") && err.to_string().contains("for 2"));

        // A plan built for another fleet than its task.
        let wide = ShardingPlan::new(vec![], t.tables().to_vec(), vec![0, 1, 2, 3], 4).unwrap();
        let err = estimate_batch_for_task(&sim, &t, [&plan(&t), &wide]).unwrap_err();
        assert!(err.to_string().contains("plan has 4 devices"), "{err}");
    }
}
