//! Synchronous training-iteration trace simulator.
//!
//! Reproduces the timeline analysis of Figure 1 (right) of the paper: in
//! fully synchronous training the embedding backward of iteration `k`
//! staggers the embedding forward of iteration `k+1`, so per-device
//! imbalance *accumulates* into waits at the all-to-all collectives. This
//! module simulates that pipeline over many iterations and reports
//! steady-state iteration time, per-GPU idle time, and training throughput —
//! the quantities behind Table 4's "training throughput improvement" column.

use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, PhaseInputs};
use crate::error::SimError;
use crate::profile::TableProfile;

/// The phases of one training iteration on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Embedding forward lookup (fused kernel).
    EmbeddingForward,
    /// Forward all-to-all (includes waiting for stragglers).
    ForwardComm,
    /// Dense MLP forward + backward (data-parallel, identical per GPU).
    DenseCompute,
    /// Backward all-to-all.
    BackwardComm,
    /// Embedding backward update (fused kernel).
    EmbeddingBackward,
}

/// One timed span in a GPU's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Which phase this span belongs to.
    pub phase: Phase,
    /// Start time in ms from the beginning of the trace.
    pub start_ms: f64,
    /// End time in ms.
    pub end_ms: f64,
}

/// Per-GPU timeline of the final simulated iteration.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationTrace {
    /// `spans[g]` is GPU `g`'s ordered span list for the iteration.
    pub spans: Vec<Vec<Span>>,
}

/// Steady-state summary of a multi-iteration trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Steady-state time of one training iteration, ms.
    pub iteration_ms: f64,
    /// Mean per-GPU idle (wait) time per iteration, ms.
    pub mean_idle_ms: f64,
    /// Max per-GPU idle time per iteration, ms.
    pub max_idle_ms: f64,
    /// Training throughput in samples per second.
    pub throughput_samples_per_sec: f64,
    /// Timeline of the last simulated iteration.
    pub last_iteration: IterationTrace,
}

/// Simulates the synchronous DLRM training pipeline of Figure 1.
///
/// # Example
///
/// ```
/// use nshard_sim::{Cluster, GpuSpec, TableProfile, TraceSimulator};
///
/// let cluster = Cluster::new(GpuSpec::rtx_2080_ti(), 2, 65_536);
/// let sim = TraceSimulator::new(cluster, 8.0);
/// let t = |d| TableProfile::new(d, 1 << 20, 12.0, 0.3, 1.0);
/// let summary = sim.simulate(&[vec![t(64)], vec![t(64)]], 20)?;
/// assert!(summary.iteration_ms > 0.0);
/// assert!(summary.throughput_samples_per_sec > 0.0);
/// # Ok::<(), nshard_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSimulator {
    cluster: Cluster,
    /// Duration of the dense (fully connected) forward+backward per
    /// iteration, identical on every GPU, ms.
    dense_ms: f64,
}

impl TraceSimulator {
    /// Creates a trace simulator for `cluster` with a fixed dense-network
    /// compute time of `dense_ms` per iteration.
    pub fn new(cluster: Cluster, dense_ms: f64) -> Self {
        Self { cluster, dense_ms }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Simulates `iterations` synchronous training iterations of the given
    /// placement and returns the steady-state summary.
    ///
    /// # Errors
    ///
    /// Propagates memory-validation errors from the cluster.
    pub fn simulate(
        &self,
        assignment: &[Vec<TableProfile>],
        iterations: u32,
    ) -> Result<TraceSummary, SimError> {
        self.cluster.check_memory(assignment)?;
        let d = self.cluster.num_devices();
        let comm = self.cluster.spec().comm();
        let batch = self.cluster.batch_size();
        // The same exact per-device inputs `Cluster::evaluate_exact` runs
        // its laws on: kernels at each device's compute class, dimensions
        // lowered for its links.
        let PhaseInputs {
            fwd_ms: fwd,
            bwd_ms: bwd,
            dims,
        } = self.cluster.phase_inputs(assignment);

        let max = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
        // One iteration's phase boundaries on each GPU, in pipeline order:
        // its start, then the end of each of the five phases. The last is
        // when the GPU is free again, so it starts the next iteration.
        let mut at: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0f64; d]);
        for _ in 0..iterations.max(1) {
            let start = std::mem::take(&mut at[5]);
            // 1. Embedding forward (starts as soon as each GPU is free).
            let fwd_end: Vec<f64> = (0..d).map(|g| start[g] + fwd[g]).collect();
            // 2. Forward all-to-all: collective joined at fwd_end[g].
            let fwd_comm = comm.forward_costs_ms(&dims, &fwd_end, batch);
            let fwd_comm_end: Vec<f64> = (0..d).map(|g| fwd_end[g] + fwd_comm[g]).collect();
            // 3. Dense forward + backward (identical everywhere).
            let dense_end: Vec<f64> = fwd_comm_end.iter().map(|&e| e + self.dense_ms).collect();
            // 4. Backward all-to-all.
            let bwd_comm = comm.backward_costs_ms(&dims, &dense_end, batch);
            let bwd_comm_end: Vec<f64> = (0..d).map(|g| dense_end[g] + bwd_comm[g]).collect();
            // 5. Embedding backward; its end staggers the next iteration.
            let end = (0..d).map(|g| bwd_comm_end[g] + bwd[g]).collect();
            at = [start, fwd_end, fwd_comm_end, dense_end, bwd_comm_end, end];
        }

        const PHASES: [Phase; 5] = [
            Phase::EmbeddingForward,
            Phase::ForwardComm,
            Phase::DenseCompute,
            Phase::BackwardComm,
            Phase::EmbeddingBackward,
        ];
        let spans = (0..d)
            .map(|g| {
                PHASES
                    .iter()
                    .enumerate()
                    .map(|(i, &phase)| Span {
                        phase,
                        start_ms: at[i][g],
                        end_ms: at[i + 1][g],
                    })
                    .collect()
            })
            .collect();
        // The last iteration's waits: each GPU for the last one into each
        // collective.
        let (ready, ready_b) = (max(&at[1]), max(&at[3]));
        let idle: Vec<f64> = (0..d)
            .map(|g| (ready - at[1][g]) + (ready_b - at[3][g]))
            .collect();
        let iteration_ms = max(&at[5]) - max(&at[0]);
        let mean_idle = idle.iter().sum::<f64>() / d as f64;
        let max_idle = idle.iter().cloned().fold(0.0, f64::max);
        let throughput = if iteration_ms > 0.0 {
            f64::from(batch) / (iteration_ms / 1e3)
        } else {
            0.0
        };
        Ok(TraceSummary {
            iteration_ms,
            mean_idle_ms: mean_idle,
            max_idle_ms: max_idle,
            throughput_samples_per_sec: throughput,
            last_iteration: IterationTrace { spans },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::GpuSpec;
    use crate::noise::NoiseModel;

    fn t(dim: u32) -> TableProfile {
        TableProfile::new(dim, 1 << 20, 12.0, 0.3, 1.05)
    }

    fn sim(d: usize) -> TraceSimulator {
        let cluster =
            Cluster::new(GpuSpec::rtx_2080_ti(), d, 65_536).with_noise(NoiseModel::disabled());
        TraceSimulator::new(cluster, 8.0)
    }

    #[test]
    fn balanced_plan_has_higher_throughput() {
        let s = sim(4);
        let balanced = vec![vec![t(64); 3]; 4];
        let skewed = vec![vec![t(64); 9], vec![t(64)], vec![t(64)], vec![t(64)]];
        let b = s.simulate(&balanced, 50).unwrap();
        let k = s.simulate(&skewed, 50).unwrap();
        assert!(b.throughput_samples_per_sec > k.throughput_samples_per_sec);
        assert!(b.max_idle_ms < k.max_idle_ms);
    }

    #[test]
    fn imbalance_creates_idle_time() {
        let s = sim(2);
        let skewed = vec![vec![t(64); 6], vec![t(8)]];
        let summary = s.simulate(&skewed, 20).unwrap();
        // The light GPU waits for the heavy one at both collectives.
        assert!(summary.max_idle_ms > 1.0, "idle {}", summary.max_idle_ms);
    }

    #[test]
    fn trace_spans_are_ordered_and_contiguous() {
        let s = sim(2);
        let plan = vec![vec![t(64)], vec![t(32)]];
        let summary = s.simulate(&plan, 5).unwrap();
        for spans in &summary.last_iteration.spans {
            assert_eq!(spans.len(), 5);
            for w in spans.windows(2) {
                assert!(w[0].end_ms <= w[1].start_ms + 1e-9);
            }
            for sp in spans {
                assert!(sp.end_ms >= sp.start_ms);
            }
        }
    }

    #[test]
    fn iteration_time_exceeds_sum_of_own_phases_under_imbalance() {
        let s = sim(2);
        let plan = vec![vec![t(128); 4], vec![t(8)]];
        let summary = s.simulate(&plan, 30).unwrap();
        // GPU 1's own work is tiny, yet the iteration takes as long as the
        // bottleneck GPU's pipeline.
        let own: f64 = summary.last_iteration.spans[1]
            .iter()
            .filter(|sp| {
                matches!(
                    sp.phase,
                    Phase::EmbeddingForward | Phase::DenseCompute | Phase::EmbeddingBackward
                )
            })
            .map(|sp| sp.end_ms - sp.start_ms)
            .sum();
        assert!(summary.iteration_ms > own);
    }

    #[test]
    fn a_two_tier_mixed_class_fleet_is_traced_as_itself() {
        use crate::devices::DevicePool;
        let budget = GpuSpec::rtx_2080_ti().mem_budget_bytes();
        let plan = vec![vec![t(64), t(32)], vec![t(32)], vec![t(16)], vec![t(128)]];
        let flat = sim(4);
        let cluster = flat
            .cluster()
            .clone()
            .with_devices(DevicePool::two_tier(3, budget, 1, budget, 1.5, 0.25));
        let hetero = TraceSimulator::new(cluster.clone(), 8.0);
        let one = hetero.simulate(&plan, 1).unwrap();
        assert!(one.iteration_ms > flat.simulate(&plan, 1).unwrap().iteration_ms);

        // One iteration from a cold start is `evaluate_exact`'s four phases
        // per device (the backward collective also waits for the last
        // device out of the dense layers, which the cluster starts level).
        let exact = cluster.evaluate_exact(&plan).unwrap();
        let spans = &one.last_iteration.spans;
        let span = |g: usize, phase: Phase| {
            let sp = spans[g].iter().find(|sp| sp.phase == phase).unwrap();
            (sp.start_ms, sp.end_ms - sp.start_ms)
        };
        let last_join = (0..4)
            .map(|g| span(g, Phase::BackwardComm).0)
            .fold(f64::MIN, f64::max);
        for (g, cost) in exact.devices().iter().enumerate() {
            let (join, bwd_comm) = span(g, Phase::BackwardComm);
            for (traced, priced) in [
                (span(g, Phase::EmbeddingForward).1, cost.compute_fwd_ms),
                (span(g, Phase::ForwardComm).1, cost.comm_fwd_ms),
                (bwd_comm - (last_join - join), cost.comm_bwd_ms),
                (span(g, Phase::EmbeddingBackward).1, cost.compute_bwd_ms),
            ] {
                assert!(
                    (traced - priced).abs() < 1e-9,
                    "device {g}: {traced} vs {priced}"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let s = sim(4);
        let plan = vec![vec![t(64)], vec![t(32)], vec![t(16)], vec![t(128)]];
        assert_eq!(
            s.simulate(&plan, 10).unwrap(),
            s.simulate(&plan, 10).unwrap()
        );
    }

    #[test]
    fn propagates_memory_errors() {
        let s = sim(2);
        let huge = TableProfile::new(128, 32 << 20, 12.0, 0.3, 1.05);
        assert!(s.simulate(&[vec![huge], vec![]], 5).is_err());
    }

    #[test]
    fn zero_iterations_treated_as_one() {
        let s = sim(2);
        let plan = vec![vec![t(16)], vec![t(16)]];
        let summary = s.simulate(&plan, 0).unwrap();
        assert!(summary.iteration_ms > 0.0);
    }

    #[test]
    fn throughput_matches_iteration_time() {
        let s = sim(2);
        let plan = vec![vec![t(32)], vec![t(32)]];
        let summary = s.simulate(&plan, 20).unwrap();
        let expect = 65_536.0 / (summary.iteration_ms / 1e3);
        assert!((summary.throughput_samples_per_sec - expect).abs() < 1e-6);
    }
}
