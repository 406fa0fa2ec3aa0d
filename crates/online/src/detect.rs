//! Drift detection: when does the incumbent plan need a replan?
//!
//! The detector compares the deployed plan's *assumptions* (the predicted
//! cost profile it was accepted with) against the plan *re-priced under
//! the current epoch's workload* — the incumbent rebased onto the drifted
//! task and priced for that task's fleet by the pre-trained
//! [`CostSimulator`] ([`estimate_for_task`]). No ground-truth
//! execution is involved, mirroring the paper's search-time discipline: the
//! controller only pays for a simulator evaluation after a plan ships.
//!
//! Three typed triggers, in priority order:
//!
//! 1. [`ReplanTrigger::MemoryViolation`] — drifted hash sizes pushed a
//!    device over its budget; the plan is not merely slow, it is invalid.
//! 2. [`ReplanTrigger::CostRegression`] — the predicted max-device cost
//!    regressed by more than a threshold fraction of the deploy-time cost.
//! 3. [`ReplanTrigger::Imbalance`] — the predicted per-device compute
//!    spread (max/mean) crossed a straggler threshold even if the total
//!    has not regressed yet.
//!
//! Per-table feature deltas ([`TableProfile::workload_delta`]) are reported
//! for observability but deliberately do **not** trigger on their own: a
//! feature can drift a lot while the plan stays near-optimal, and replans
//! are paid for in moved bytes.

use serde::{Deserialize, Serialize};

use nshard_core::{estimate_for_task, PlanError, ShardingPlan};
use nshard_cost::CostSimulator;
use nshard_data::ShardingTask;
use nshard_sim::TableProfile;

/// Thresholds that arm the detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftThresholds {
    /// Fire when the predicted plan cost exceeds the deploy-time predicted
    /// cost by this fraction (e.g. `0.1` = +10%).
    pub max_cost_regression: f64,
    /// Fire when predicted max device compute exceeds the mean by this
    /// ratio (e.g. `1.35` = the slowest device is 35% above average).
    pub imbalance_ratio: f64,
}

impl Default for DriftThresholds {
    fn default() -> Self {
        Self {
            max_cost_regression: 0.10,
            imbalance_ratio: 1.35,
        }
    }
}

/// Why the detector requested a replan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplanTrigger {
    /// A device's drifted tables no longer fit its memory budget.
    MemoryViolation {
        /// Epoch at which the violation was observed.
        epoch: u64,
        /// The overloaded device.
        device: usize,
        /// Bytes resident on that device under the drifted workload.
        bytes: u64,
        /// That device's own budget.
        budget: u64,
    },
    /// Predicted cost regressed beyond the threshold.
    CostRegression {
        /// Epoch at which the regression crossed the threshold.
        epoch: u64,
        /// Deploy-time predicted cost of the incumbent, ms.
        baseline_ms: f64,
        /// Predicted cost under the current workload, ms.
        current_ms: f64,
        /// `(current - baseline) / baseline`.
        regression: f64,
    },
    /// Predicted per-device compute spread crossed the threshold.
    Imbalance {
        /// Epoch at which the imbalance crossed the threshold.
        epoch: u64,
        /// Predicted max/mean device-compute ratio.
        ratio: f64,
    },
}

impl ReplanTrigger {
    /// Stable short name for provenance attribution (`trigger_kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            ReplanTrigger::MemoryViolation { .. } => "memory",
            ReplanTrigger::CostRegression { .. } => "cost_regression",
            ReplanTrigger::Imbalance { .. } => "imbalance",
        }
    }

    /// The epoch the trigger fired at.
    pub fn epoch(&self) -> u64 {
        match *self {
            ReplanTrigger::MemoryViolation { epoch, .. }
            | ReplanTrigger::CostRegression { epoch, .. }
            | ReplanTrigger::Imbalance { epoch, .. } => epoch,
        }
    }
}

/// The detector's full observation for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// The observed epoch.
    pub epoch: u64,
    /// Predicted total cost of the incumbent under the current workload, ms.
    pub predicted_cost_ms: f64,
    /// Deploy-time predicted cost the incumbent was accepted with, ms.
    pub baseline_cost_ms: f64,
    /// Predicted max/mean device-compute ratio under the current workload.
    pub imbalance: f64,
    /// Largest per-table workload delta vs. the deploy-time task.
    pub max_feature_delta: f64,
    /// The highest-priority trigger that fired, if any.
    pub trigger: Option<ReplanTrigger>,
}

/// The drift detector. Stateless between calls: the deploy-time reference
/// is passed in, so one detector serves any number of concurrent plans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftDetector {
    thresholds: DriftThresholds,
}

impl DriftDetector {
    /// A detector with the given thresholds.
    pub fn new(thresholds: DriftThresholds) -> Self {
        Self { thresholds }
    }

    /// The armed thresholds.
    pub fn thresholds(&self) -> &DriftThresholds {
        &self.thresholds
    }

    /// Observes one epoch: prices the rebased incumbent under the current
    /// workload and fires the highest-priority trigger whose threshold is
    /// crossed.
    ///
    /// * `rebased` — the incumbent plan rebased onto the current task (see
    ///   [`ShardingPlan::rebase`]).
    /// * `task` — the current epoch's workload.
    /// * `deployed_task` — the workload the incumbent was planned for (the
    ///   feature-delta reference).
    /// * `baseline_cost_ms` — the predicted cost the incumbent was
    ///   accepted with at deploy time.
    ///
    /// # Errors
    ///
    /// Whatever [`estimate_for_task`] refuses: the device counts differ,
    /// or the cost models price `rebased` at NaN or an infinity — a
    /// threshold compared against such a value would mean nothing.
    pub fn observe(
        &self,
        sim: &CostSimulator,
        rebased: &ShardingPlan,
        task: &ShardingTask,
        deployed_task: &ShardingTask,
        baseline_cost_ms: f64,
        epoch: u64,
    ) -> Result<DriftReport, PlanError> {
        // Feature drift: per-table workload deltas vs. deploy time.
        let max_feature_delta = task
            .tables()
            .iter()
            .zip(deployed_task.tables())
            .map(|(now, then)| {
                let now: TableProfile = now.profile(task.batch_size());
                let then: TableProfile = then.profile(deployed_task.batch_size());
                now.workload_delta(&then)
            })
            .fold(0.0, f64::max);

        // Price the incumbent under the current workload.
        let est = estimate_for_task(sim, task, rebased)?;
        let predicted_cost_ms = est.total_ms();
        let mean_compute =
            est.compute_per_device.iter().sum::<f64>() / est.compute_per_device.len().max(1) as f64;
        let imbalance = if mean_compute > 0.0 {
            est.max_compute_ms / mean_compute
        } else {
            1.0
        };

        // Priority 1: memory. An invalid plan always triggers.
        let mut trigger = rebased
            .first_over_budget(task)
            .map(|(device, bytes, budget)| ReplanTrigger::MemoryViolation {
                epoch,
                device,
                bytes,
                budget,
            });

        // Priority 2: cost regression vs. the deploy-time prediction.
        if trigger.is_none() && baseline_cost_ms > 0.0 {
            let regression = (predicted_cost_ms - baseline_cost_ms) / baseline_cost_ms;
            if regression > self.thresholds.max_cost_regression {
                trigger = Some(ReplanTrigger::CostRegression {
                    epoch,
                    baseline_ms: baseline_cost_ms,
                    current_ms: predicted_cost_ms,
                    regression,
                });
            }
        }

        // Priority 3: straggler spread.
        if trigger.is_none() && imbalance > self.thresholds.imbalance_ratio {
            trigger = Some(ReplanTrigger::Imbalance {
                epoch,
                ratio: imbalance,
            });
        }

        Ok(DriftReport {
            epoch,
            predicted_cost_ms,
            baseline_cost_ms,
            imbalance,
            max_feature_delta,
            trigger,
        })
    }
}

impl Default for DriftDetector {
    fn default() -> Self {
        Self::new(DriftThresholds::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
    use nshard_data::{TableConfig, TableId, TablePool};

    fn sim(d: usize) -> CostSimulator {
        let pool = TablePool::synthetic_dlrm(30, 1);
        let bundle = CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        );
        CostSimulator::new(bundle)
    }

    fn t(id: u32, dim: u32) -> TableConfig {
        TableConfig::new(TableId(id), dim, 1 << 16, 10.0, 1.0)
    }

    fn task(tables: Vec<TableConfig>) -> ShardingTask {
        ShardingTask::new(tables, 2, nshard_sim::DEFAULT_MEM_BYTES, 1024)
    }

    fn balanced_plan(task: &ShardingTask) -> ShardingPlan {
        ShardingPlan::new(
            vec![],
            task.tables().to_vec(),
            (0..task.num_tables()).map(|i| i % 2).collect(),
            2,
        )
        .unwrap()
    }

    #[test]
    fn quiet_workload_does_not_trigger() {
        let sim = sim(2);
        let task = task((0..6).map(|i| t(i, 32)).collect());
        let plan = balanced_plan(&task);
        let baseline = estimate_for_task(&sim, &task, &plan).unwrap().total_ms();
        let report = DriftDetector::default()
            .observe(&sim, &plan, &task, &task, baseline, 3)
            .unwrap();
        assert_eq!(report.trigger, None);
        assert_eq!(report.epoch, 3);
        assert!(report.max_feature_delta.abs() < 1e-12);
        assert_eq!(report.baseline_cost_ms, baseline);
    }

    #[test]
    fn cost_regression_fires_with_attribution_fields() {
        let sim = sim(2);
        let deployed = task((0..6).map(|i| t(i, 32)).collect());
        let plan = balanced_plan(&deployed);
        // Current workload: every pooling factor quadrupled.
        let drifted = task(
            deployed
                .tables()
                .iter()
                .map(|c| c.with_pooling_factor(c.pooling_factor() * 4.0))
                .collect(),
        );
        let rebased = plan.rebase(&drifted).unwrap();
        let baseline = estimate_for_task(&sim, &deployed, &plan)
            .unwrap()
            .total_ms();
        let report = DriftDetector::new(DriftThresholds {
            max_cost_regression: 0.05,
            imbalance_ratio: 100.0,
        })
        .observe(&sim, &rebased, &drifted, &deployed, baseline, 9)
        .unwrap();
        match report.trigger {
            Some(ReplanTrigger::CostRegression {
                epoch, regression, ..
            }) => {
                assert_eq!(epoch, 9);
                assert!(regression > 0.05);
            }
            other => panic!("expected cost regression, got {other:?}"),
        }
        assert!(report.max_feature_delta >= 3.0 - 1e-9);
        assert_eq!(report.trigger.as_ref().unwrap().kind(), "cost_regression");
    }

    #[test]
    fn memory_violation_outranks_everything() {
        let sim = sim(2);
        let deployed = task((0..4).map(|i| t(i, 32)).collect());
        let plan = balanced_plan(&deployed);
        // Rows blow up 64x and the budget is tiny.
        let drifted = ShardingTask::new(
            deployed
                .tables()
                .iter()
                .map(|c| c.with_hash_size(c.hash_size() * 64))
                .collect(),
            2,
            deployed.tables()[0].memory_bytes() * 4,
            1024,
        );
        let rebased = plan.rebase(&drifted).unwrap();
        let report = DriftDetector::default()
            .observe(&sim, &rebased, &drifted, &deployed, 1e-6, 2)
            .unwrap();
        assert!(matches!(
            report.trigger,
            Some(ReplanTrigger::MemoryViolation { device: 0, .. })
        ));
        assert_eq!(report.trigger.as_ref().unwrap().kind(), "memory");
        assert_eq!(report.trigger.as_ref().unwrap().epoch(), 2);
    }

    #[test]
    fn imbalance_fires_when_one_device_runs_hot() {
        let sim = sim(2);
        let deployed = task((0..6).map(|i| t(i, 32)).collect());
        let plan = balanced_plan(&deployed);
        // Device 0's tables (even indices) get 8x pooling.
        let drifted = task(
            deployed
                .tables()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.with_pooling_factor(c.pooling_factor() * 8.0)
                    } else {
                        *c
                    }
                })
                .collect(),
        );
        let rebased = plan.rebase(&drifted).unwrap();
        // Disarm cost regression so imbalance must carry the detection.
        let report = DriftDetector::new(DriftThresholds {
            max_cost_regression: f64::INFINITY,
            imbalance_ratio: 1.2,
        })
        .observe(&sim, &rebased, &drifted, &deployed, 1.0, 5)
        .unwrap();
        assert!(matches!(
            report.trigger,
            Some(ReplanTrigger::Imbalance { ratio, .. }) if ratio > 1.2
        ));
    }

    #[test]
    fn detector_is_deterministic() {
        let sim = sim(2);
        let task = task((0..6).map(|i| t(i, 32)).collect());
        let plan = balanced_plan(&task);
        let a = DriftDetector::default()
            .observe(&sim, &plan, &task, &task, 1.0, 1)
            .unwrap();
        let b = DriftDetector::default()
            .observe(&sim, &plan, &task, &task, 1.0, 1)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn detector_prices_the_incumbent_for_the_tasks_fleet() {
        let sim = sim(2);
        // Device 1 runs kernels at 3x the baseline time behind a
        // half-bandwidth link; the plan itself is balanced.
        let task = task((0..6).map(|i| t(i, 32)).collect()).with_devices(
            nshard_data::DevicePool::two_tier(1, 1 << 30, 1, 1 << 30, 3.0, 0.5),
        );
        let plan = balanced_plan(&task);
        let est = estimate_for_task(&sim, &task, &plan).unwrap();
        let hottest = (0..2)
            .max_by(|&a, &b| est.compute_per_device[a].total_cmp(&est.compute_per_device[b]))
            .unwrap();
        assert_eq!(hottest, 1, "the 3x device must be the predicted straggler");

        let report = DriftDetector::default()
            .observe(&sim, &plan, &task, &task, 1.0, 1)
            .unwrap();
        assert_eq!(report.predicted_cost_ms.to_bits(), est.total_ms().to_bits());
        let mean = est.compute_per_device.iter().sum::<f64>() / 2.0;
        assert_eq!(
            report.imbalance.to_bits(),
            (est.max_compute_ms / mean).to_bits()
        );
        assert!(
            report.imbalance > 1.4,
            "a balanced plan on a 1x/3x fleet is 1.5x imbalanced, got {}",
            report.imbalance
        );
    }
}
