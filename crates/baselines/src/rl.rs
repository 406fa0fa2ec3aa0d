//! Reinforcement-learning baselines: AutoShard-like and DreamShard-like
//! REINFORCE agents (Appendix E.2).
//!
//! The original systems train a stochastic policy network per sharding
//! task: AutoShard balances (hardware-measured) computation costs;
//! DreamShard additionally balances communication via an estimated MDP.
//! This module reproduces their decision structure — **table-wise-only**
//! sequential device assignment by a learned softmax policy — with rewards
//! queried from the ground-truth simulator, exactly as AutoShard queries
//! real GPUs during training.
//!
//! Faithful to the paper's analysis, the agents have the weaknesses that
//! motivate NeuroShard (§1): they cannot split columns, so a single
//! oversized table sinks them; their stochastic policies are
//! seed-sensitive; and the AutoShard variant ignores memory entirely while
//! the DreamShard variant only discourages overflow through a reward
//! penalty, so both eventually out-of-memory as dimensions grow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nshard_core::{PlanError, ShardingAlgorithm, ShardingPlan};
use nshard_data::ShardingTask;
use nshard_nn::{Adam, Gradients, Matrix, Mlp, MlpWorkspace};
use nshard_sim::{Cluster, GpuSpec, TableProfile};

use crate::plan_from_assignment;
use crate::policy::{placement_order, softmax, DeviceState, INPUT_DIM};

/// Which published RL system the agent emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RlVariant {
    /// AutoShard (Zha et al., KDD 2022): reward is the computation balance
    /// (min device compute / max device compute). Memory-oblivious.
    AutoShardLike,
    /// DreamShard (Zha et al., NeurIPS 2022): reward is the negative max
    /// total embedding cost (computation + communication), with a penalty
    /// for memory overflow.
    DreamShardLike,
}

/// A REINFORCE sharding agent trained per task.
#[derive(Debug, Clone)]
pub struct RlSharder {
    variant: RlVariant,
    seed: u64,
    episodes: usize,
    batch_episodes: usize,
    learning_rate: f32,
    spec: GpuSpec,
}

impl RlSharder {
    /// Creates an agent of the given variant with its training seed.
    pub fn new(variant: RlVariant, seed: u64) -> Self {
        Self {
            variant,
            seed,
            episodes: 96,
            batch_episodes: 8,
            learning_rate: 3e-3,
            spec: GpuSpec::rtx_2080_ti(),
        }
    }

    /// Sets the number of training episodes (builder-style).
    pub fn with_episodes(mut self, episodes: usize) -> Self {
        self.episodes = episodes.max(1);
        self
    }

    /// Sets the hardware spec used for reward queries.
    pub fn with_spec(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// The emulated variant.
    pub fn variant(&self) -> RlVariant {
        self.variant
    }

    /// Rolls out one episode, placing tables in `order`; `explore`
    /// controls sampling vs. argmax. Returns the assignment and the
    /// per-step (input, action, probs).
    fn rollout(
        policy: &Mlp,
        task: &ShardingTask,
        order: &[usize],
        rng: &mut StdRng,
        explore: bool,
    ) -> (Vec<usize>, Vec<Step>) {
        let mut state = DeviceState::new(task.tables(), task.num_devices());
        let mut device_of = vec![0usize; task.num_tables()];
        let mut steps = Vec::with_capacity(order.len());
        for &i in order {
            let table = &task.tables()[i];
            let rows = state.inputs(table, task.batch_size());
            let probs = softmax(policy.forward(&Matrix::from_rows(&rows)).as_slice());
            let action = if explore {
                sample_categorical(&probs, rng)
            } else {
                argmax(&probs)
            };
            steps.push(Step {
                inputs: rows,
                action,
                probs,
            });
            device_of[i] = action;
            state.place(table, action);
        }
        (device_of, steps)
    }

    /// Reward of an assignment under the variant's objective. Higher is
    /// better.
    fn reward(&self, task: &ShardingTask, profiles: &[TableProfile], device_of: &[usize]) -> f64 {
        let mut assignment: Vec<Vec<TableProfile>> = vec![Vec::new(); task.num_devices()];
        for (i, &d) in device_of.iter().enumerate() {
            assignment[d].push(profiles[i]);
        }
        match self.variant {
            RlVariant::AutoShardLike => {
                // Computation balance: min/max fused-kernel cost.
                let kernel = self.spec.kernel();
                let costs: Vec<f64> = assignment
                    .iter()
                    .map(|t| kernel.multi_cost_ms(t, task.batch_size()))
                    .collect();
                let max = costs.iter().cloned().fold(0.0, f64::max);
                let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
                if max == 0.0 {
                    1.0
                } else {
                    min / max
                }
            }
            RlVariant::DreamShardLike => {
                // Negative max embedding cost, normalized, with a memory
                // penalty so the policy learns to avoid overflow.
                let cluster = Cluster::new(
                    self.spec.with_mem_budget(u64::MAX),
                    task.num_devices(),
                    task.batch_size(),
                );
                let costs = cluster
                    .evaluate_exact(&assignment)
                    .expect("memory disabled for reward query");
                let mut r = -costs.max_total_ms() / 10.0;
                for (g, tables) in assignment.iter().enumerate() {
                    let budget = task.budget_of(g);
                    let bytes: u64 = tables.iter().map(TableProfile::memory_bytes).sum();
                    if bytes > budget {
                        r -= 5.0 * (bytes - budget) as f64 / budget as f64;
                    }
                }
                r
            }
        }
    }
}

struct Step {
    inputs: Vec<Vec<f32>>,
    action: usize,
    probs: Vec<f64>,
}

impl ShardingAlgorithm for RlSharder {
    fn name(&self) -> &str {
        match self.variant {
            RlVariant::AutoShardLike => "autoshard_like",
            RlVariant::DreamShardLike => "dreamshard_like",
        }
    }

    fn shard(&self, task: &ShardingTask) -> Result<ShardingPlan, PlanError> {
        let profiles: Vec<TableProfile> = task.profiles();
        // Assign in descending size order (both systems sort tables first).
        let order = placement_order(task.tables());
        let mut policy = Mlp::new(INPUT_DIM, &[32, 16], 1, self.seed);
        let mut adam = Adam::new(&policy, self.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD0D0);

        let mut baseline = 0.0f64;
        let mut episodes_done = 0usize;
        // Like the original systems, keep the best assignment seen across
        // all sampled episodes; the final answer is the better of this and
        // the trained policy's deterministic rollout.
        let mut best_sampled: Option<(f64, Vec<usize>)> = None;
        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(&policy);
        while episodes_done < self.episodes {
            grads.zero();
            let batch = self.batch_episodes.min(self.episodes - episodes_done);
            for _ in 0..batch {
                let (device_of, steps) = Self::rollout(&policy, task, &order, &mut rng, true);
                let reward = self.reward(task, &profiles, &device_of);
                if best_sampled.as_ref().is_none_or(|(r, _)| reward > *r) {
                    best_sampled = Some((reward, device_of.clone()));
                }
                let advantage = reward - baseline;
                baseline = 0.9 * baseline + 0.1 * reward;
                // REINFORCE: accumulate -(advantage) * ∇ log π(a).
                for step in &steps {
                    *ws.input_mut() = Matrix::from_rows(&step.inputs);
                    policy.forward_in(&mut ws);
                    // d(-logp)/d(score_g) = p_g - 1[g == a]
                    let mut dy = Matrix::zeros(step.inputs.len(), 1);
                    for g in 0..step.inputs.len() {
                        let indicator = if g == step.action { 1.0 } else { 0.0 };
                        dy.set(g, 0, (step.probs[g] as f32 - indicator) * advantage as f32);
                    }
                    policy.backward(&mut ws, &dy, None, &[]);
                    policy.fold_into(&ws, &[], 1.0 / batch as f32, &mut grads);
                }
            }
            adam.step(&mut policy, &grads);
            episodes_done += batch;
        }

        // Final deterministic rollout, compared against the best sampled
        // episode.
        let (greedy_of, _) = Self::rollout(&policy, task, &order, &mut rng, false);
        let greedy_reward = self.reward(task, &profiles, &greedy_of);
        let device_of = match best_sampled {
            Some((r, sampled)) if r > greedy_reward => sampled,
            _ => greedy_of,
        };
        plan_from_assignment(task, device_of)
    }
}

fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

fn argmax(probs: &[f64]) -> usize {
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
        .map(|(i, _)| i)
        .expect("non-empty probs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_data::{TableConfig, TableId, TablePool};

    fn task(d: usize) -> ShardingTask {
        let pool = TablePool::synthetic_dlrm(50, 3);
        ShardingTask::sample(&pool, d, 8..=14, 16, 5)
    }

    #[test]
    fn produces_full_assignments() {
        let t = task(2);
        for variant in [RlVariant::AutoShardLike, RlVariant::DreamShardLike] {
            let agent = RlSharder::new(variant, 1).with_episodes(10);
            let plan = agent.shard(&t).unwrap();
            assert_eq!(plan.sharded_tables().len(), t.num_tables());
            assert_eq!(plan.num_column_splits(), 0); // table-wise only
        }
    }

    #[test]
    fn is_seed_sensitive() {
        // The paper's instability complaint: different seeds, different
        // plans.
        let t = task(2);
        let a = RlSharder::new(RlVariant::AutoShardLike, 1)
            .with_episodes(12)
            .shard(&t)
            .unwrap();
        let b = RlSharder::new(RlVariant::AutoShardLike, 99)
            .with_episodes(12)
            .shard(&t)
            .unwrap();
        // (Equality would be astronomically unlikely across 8+ tables.)
        assert_ne!(a.device_of(), b.device_of());
    }

    #[test]
    fn training_improves_over_random_policy() {
        let t = task(4);
        let untrained = RlSharder::new(RlVariant::AutoShardLike, 3).with_episodes(1);
        let trained = RlSharder::new(RlVariant::AutoShardLike, 3).with_episodes(64);
        let profiles = t.profiles();
        let reward =
            |plan: &ShardingPlan, agent: &RlSharder| agent.reward(&t, &profiles, plan.device_of());
        let r_untrained = reward(&untrained.shard(&t).unwrap(), &untrained);
        let r_trained = reward(&trained.shard(&t).unwrap(), &trained);
        assert!(
            r_trained >= r_untrained - 0.05,
            "training regressed: {r_untrained} -> {r_trained}"
        );
    }

    #[test]
    fn cannot_handle_oversized_tables() {
        // A 16 GB table cannot fit anywhere; RL produces a plan anyway and
        // validation fails — the paper's "-" outcome.
        let huge = TableConfig::new(TableId(0), 128, 32 << 20, 8.0, 1.0);
        let t = ShardingTask::new(vec![huge], 2, nshard_sim::DEFAULT_MEM_BYTES, 65_536);
        let agent = RlSharder::new(RlVariant::DreamShardLike, 0).with_episodes(4);
        let plan = agent.shard(&t).unwrap();
        assert!(plan.validate(&t).is_err());
    }

    #[test]
    fn names_match_variants() {
        assert_eq!(
            RlSharder::new(RlVariant::AutoShardLike, 0).name(),
            "autoshard_like"
        );
        assert_eq!(
            RlSharder::new(RlVariant::DreamShardLike, 0).name(),
            "dreamshard_like"
        );
    }
}
