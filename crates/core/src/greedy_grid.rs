//! Table-wise sharding: greedy allocation with grid search over the max
//! device dimension (Algorithm 2, the inner loop).
//!
//! Two observations drive the design (§2):
//!
//! * multi-table computation costs are non-linear (Observation 2), so the
//!   allocator balances **predicted** device costs from the neural model
//!   instead of additive heuristics;
//! * the max communication cost tracks the max device dimension
//!   (Observation 3), so communication balance is enforced as a
//!   `max_dim` *constraint* whose best value is found by grid search —
//!   from `M_s` (the average device dimension) to `M_e = 1.5 · M_s` in `M`
//!   steps.
//!
//! One deliberate extension over the paper's pseudocode: an unconstrained
//! (`max_dim = ∞`) grid point is always evaluated as a fallback, so the
//! inner loop degrades gracefully to memory-only greedy allocation when
//! every finite threshold is infeasible (e.g. more tables than any device
//! can hold under `1.5 · M_s`). This never changes the optimum — the
//! fallback competes on estimated cost like any other grid point.

use serde::{Deserialize, Serialize};

use nshard_cost::{CostSimulator, DeviceScales, TableSetKey};
use nshard_data::TableConfig;
use nshard_pool::WorkPool;
use nshard_sim::TableProfile;

use crate::plan::PlanError;

/// Result of one inner-loop search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSearchResult {
    /// Estimated embedding cost of the best table-wise plan, ms.
    pub estimated_cost_ms: f64,
    /// Device assignment aligned with the input (sharded) table order.
    pub device_of: Vec<usize>,
    /// The `max_dim` threshold that produced the best plan; `None` when the
    /// unconstrained fallback won.
    pub max_dim_used: Option<f64>,
}

/// The greedy grid-search allocator (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct GreedyGridSearch<'a> {
    sim: &'a CostSimulator,
    /// Grid granularity `M` (the paper uses 11).
    m_steps: usize,
    /// When `false`, only the unconstrained pass runs — the "w/o greedy
    /// grid search" ablation of Table 3.
    use_grid: bool,
    /// Worker threads for the grid sweep; `0` = auto (see
    /// [`nshard_pool::resolve_threads`]).
    threads: usize,
}

impl<'a> GreedyGridSearch<'a> {
    /// Creates an inner-loop searcher over the given cost simulator with
    /// grid granularity `m_steps`.
    pub fn new(sim: &'a CostSimulator, m_steps: usize) -> Self {
        Self {
            sim,
            m_steps: m_steps.max(1),
            use_grid: true,
            threads: 0,
        }
    }

    /// Disables the grid (ablation): a single memory-constrained greedy
    /// pass with no dimension threshold.
    pub fn without_grid(mut self) -> Self {
        self.use_grid = false;
        self
    }

    /// Sets the worker-thread count for the grid sweep (`0` = auto). The
    /// best plan is identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Searches for the best table-wise plan of `tables` (already
    /// column-wise sharded) on `num_devices` devices with per-device memory
    /// `budgets`. `scales`, when given, are per-device compute/bandwidth
    /// multipliers applied to every prediction during allocation and
    /// scoring; `None` prices every device at baseline (unit scales give
    /// the same bits: `x * 1.0` and `x / 1.0` are bitwise identities).
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] when `num_devices` is zero or `budgets` /
    /// `scales` do not cover `num_devices` devices;
    /// [`PlanError::Infeasible`] when even the unconstrained greedy pass
    /// cannot satisfy the per-device memory budgets.
    pub fn search_with_devices(
        &self,
        tables: &[TableConfig],
        num_devices: usize,
        budgets: &[u64],
        scales: Option<&DeviceScales>,
        batch_size: u32,
    ) -> Result<GridSearchResult, PlanError> {
        if num_devices == 0 {
            return Err(PlanError::Invalid {
                reason: "need at least one device".into(),
            });
        }
        if budgets.len() != num_devices {
            return Err(PlanError::Invalid {
                reason: format!(
                    "{} per-device budgets for {num_devices} devices",
                    budgets.len()
                ),
            });
        }
        if let Some(s) = scales {
            if s.len() != num_devices {
                return Err(PlanError::Invalid {
                    reason: format!("{} device scales for {num_devices} devices", s.len()),
                });
            }
        }
        let profiles: Vec<TableProfile> = tables.iter().map(|t| t.profile(batch_size)).collect();

        // Sort once, descending by predicted single-table cost (line 3) —
        // with one robustness tweak: shards larger than half the device
        // budget are placed first (largest bytes first), because they can
        // only go on near-empty devices. Without this, a big-but-cheap
        // shard (e.g. a row-wise half of a tall dim-4 table) sorts last and
        // finds every device already occupied. For paper-style workloads,
        // big tables are also costly, so this rarely changes the order.
        let mut order: Vec<usize> = (0..tables.len()).collect();
        let single_costs: Vec<f64> = self.sim.single_table_cost_batch(&profiles);
        let half_budget = budgets.iter().copied().max().unwrap_or(0) / 2;
        order.sort_by(|&a, &b| {
            let huge_a = profiles[a].memory_bytes() > half_budget;
            let huge_b = profiles[b].memory_bytes() > half_budget;
            match (huge_a, huge_b) {
                (true, true) => profiles[b].memory_bytes().cmp(&profiles[a].memory_bytes()),
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => single_costs[b]
                    .partial_cmp(&single_costs[a])
                    .expect("costs are finite"),
            }
        });

        // Grid of max_dim thresholds: M_s = average *effective* device
        // dimension (replicas count at their traffic share; slow links
        // inflate a device's effective load, so the denominator is total
        // bandwidth rather than the device count), M_e = 1.5 * M_s, plus
        // the unconstrained fallback. On homogeneous fleets this reduces
        // exactly to total_dim / num_devices.
        let total_dim: f64 = profiles.iter().map(TableProfile::comm_dim).sum();
        let total_bw: f64 = match scales {
            Some(s) => (0..num_devices).map(|g| s.bandwidth_scale(g)).sum(),
            None => (0..num_devices).map(|_| 1.0).sum(),
        };
        let m_s = total_dim / total_bw;
        let m_e = 1.5 * m_s;
        let mut thresholds: Vec<Option<f64>> = Vec::with_capacity(self.m_steps + 1);
        if self.use_grid {
            if self.m_steps == 1 {
                thresholds.push(Some(m_s));
            } else {
                let step = (m_e - m_s) / (self.m_steps as f64 - 1.0);
                for i in 0..self.m_steps {
                    thresholds.push(Some(m_s + step * i as f64));
                }
            }
        }
        thresholds.push(None); // unconstrained fallback

        // Phase 1: run the greedy allocator for every grid point, in
        // parallel. Each pass depends only on deterministic cache values,
        // so the assignments are identical at any thread count.
        let pool = WorkPool::new(self.threads);
        let passes: Vec<Option<Vec<usize>>> = pool.map(&thresholds, |&threshold| {
            self.greedy_assign(&profiles, &order, num_devices, budgets, scales, threshold)
        });

        // Phase 2: evaluate every feasible assignment with one batched
        // call into the pre-trained models, then fold in grid order (first
        // strict improvement wins — exactly the serial tie-break).
        let feasible: Vec<(Option<f64>, Vec<usize>)> = thresholds
            .into_iter()
            .zip(passes)
            .filter_map(|(threshold, pass)| pass.map(|device_of| (threshold, device_of)))
            .collect();
        let assignments: Vec<Vec<Vec<TableProfile>>> = feasible
            .iter()
            .map(|(_, device_of)| {
                let mut assignment: Vec<Vec<TableProfile>> = vec![Vec::new(); num_devices];
                for (i, &d) in device_of.iter().enumerate() {
                    assignment[d].push(profiles[i]);
                }
                assignment
            })
            .collect();
        let estimates = self.sim.estimate_plan_batch_scaled(&assignments, scales);

        let mut best: Option<GridSearchResult> = None;
        for ((threshold, device_of), est) in feasible.into_iter().zip(estimates) {
            let cost = est.total_ms();
            let better = best.as_ref().is_none_or(|b| cost < b.estimated_cost_ms);
            if better {
                best = Some(GridSearchResult {
                    estimated_cost_ms: cost,
                    device_of,
                    max_dim_used: threshold,
                });
            }
        }

        best.ok_or_else(|| PlanError::Infeasible {
            reason: format!(
                "no greedy assignment of {} tables to {num_devices} devices fits \
                 the per-device memory budgets (max {} bytes)",
                tables.len(),
                budgets.iter().copied().max().unwrap_or(0)
            ),
        })
    }

    /// One greedy pass: assign tables in `order` to the candidate device
    /// with the lowest predicted cost after the assignment (lines 8-22).
    /// Returns `None` if some table has no feasible device.
    ///
    /// All feasible devices for a table are probed with **one batched**
    /// model call over the cache misses, and each device's set key is
    /// maintained incrementally — no per-probe rehash of the whole set.
    fn greedy_assign(
        &self,
        profiles: &[TableProfile],
        order: &[usize],
        num_devices: usize,
        budgets: &[u64],
        scales: Option<&DeviceScales>,
        max_dim: Option<f64>,
    ) -> Option<Vec<usize>> {
        let mut device_tables: Vec<Vec<TableProfile>> = vec![Vec::new(); num_devices];
        let mut device_keys: Vec<TableSetKey> = vec![TableSetKey::empty(); num_devices];
        let mut device_bytes = vec![0u64; num_devices];
        let mut device_dims = vec![0.0f64; num_devices];
        let mut device_of = vec![usize::MAX; profiles.len()];
        // Reused across all placements of this pass — the probe loop
        // itself allocates nothing.
        let mut feasible: Vec<usize> = Vec::with_capacity(num_devices);
        let mut key_scratch: Vec<u64> = Vec::with_capacity(num_devices);

        // Effective dimension of a table on device `g`: its traffic share,
        // inflated by the device's link slowness. On homogeneous fleets
        // both factors are exact 1.0s, so this is bitwise `dim`.
        let eff_dim = |p: &TableProfile, g: usize| match scales {
            Some(s) => p.comm_dim() / s.bandwidth_scale(g),
            None => p.comm_dim(),
        };

        for &i in order {
            let p = &profiles[i];
            let bytes = p.memory_bytes();
            feasible.clear();
            feasible.extend((0..num_devices).filter(|&g| {
                device_bytes[g] + bytes <= budgets[g]
                    && max_dim.is_none_or(|cap| device_dims[g] + eff_dim(p, g) <= cap)
            }));
            if feasible.is_empty() {
                return None;
            }
            // Predicted device cost with the table added, all feasible
            // devices scored in one batched call straight off the
            // per-device state. Compute scales are applied *after* the
            // (raw, cacheable) prediction, mirroring the simulator.
            let costs = self.sim.appended_compute_cost_indexed(
                &device_tables,
                &device_keys,
                &feasible,
                p,
                &mut key_scratch,
            );
            let mut best_dev: Option<(usize, f64)> = None;
            for (&g, &cost) in feasible.iter().zip(&costs) {
                let cost = match scales {
                    Some(s) => cost * s.compute_scale(g),
                    None => cost,
                };
                if best_dev.is_none_or(|(_, c)| cost < c) {
                    best_dev = Some((g, cost));
                }
            }
            let (g, _) = best_dev?;
            device_tables[g].push(*p);
            device_keys[g].add(p);
            device_bytes[g] += bytes;
            device_dims[g] += eff_dim(p, g);
            device_of[i] = g;
        }
        Some(device_of)
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
        TableConfig::new(TableId(id), dim, 1 << 18, 10.0, 1.0)
    }

    /// `tables` on two baseline devices of `budget` bytes each.
    fn search2(
        search: &GreedyGridSearch<'_>,
        tables: &[TableConfig],
        budget: u64,
        batch_size: u32,
    ) -> Result<GridSearchResult, PlanError> {
        search.search_with_devices(tables, 2, &[budget; 2], None, batch_size)
    }

    #[test]
    fn assigns_every_table() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 5);
        let tables: Vec<TableConfig> = (0..8).map(|i| t(i, 32)).collect();
        let result = search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        assert_eq!(result.device_of.len(), 8);
        assert!(result.device_of.iter().all(|&d| d < 2));
        assert!(result.estimated_cost_ms.is_finite());
    }

    #[test]
    fn respects_memory_budget() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        // Each table is 256 KB; budget fits exactly 2 per device.
        let tables: Vec<TableConfig> = (0..4)
            .map(|i| TableConfig::new(TableId(i), 64, 1024, 5.0, 1.0))
            .collect();
        let budget = 2 * 64 * 1024 * 4;
        let result = search2(&search, &tables, budget, 1024).unwrap();
        let mut per_dev = [0u64; 2];
        for (i, &d) in result.device_of.iter().enumerate() {
            per_dev[d] += tables[i].memory_bytes();
        }
        assert!(per_dev.iter().all(|&b| b <= budget));
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        let tables = vec![t(0, 64)];
        let err = search2(&search, &tables, 16, 1024).unwrap_err();
        assert!(matches!(err, PlanError::Infeasible { .. }));
    }

    #[test]
    fn unconstrained_fallback_rescues_tight_grids() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        // 5 equal tables on 2 devices: avg device dim = 80, and a 32-dim
        // table can never make device dims exactly even; the fallback (or a
        // loose threshold) must still produce a plan.
        let tables: Vec<TableConfig> = (0..5).map(|i| t(i, 32)).collect();
        let result = search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        assert_eq!(result.device_of.len(), 5);
    }

    #[test]
    fn without_grid_still_produces_plans() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 11).without_grid();
        let tables: Vec<TableConfig> = (0..6).map(|i| t(i, 64)).collect();
        let result = search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        assert!(result.max_dim_used.is_none());
    }

    #[test]
    fn grid_beats_or_ties_no_grid() {
        let sim = sim(2);
        let tables: Vec<TableConfig> = (0..10)
            .map(|i| t(i, if i % 3 == 0 { 128 } else { 16 }))
            .collect();
        let grid = GreedyGridSearch::new(&sim, 11);
        let with_grid = search2(&grid, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        let without = search2(
            &grid.without_grid(),
            &tables,
            nshard_sim::DEFAULT_MEM_BYTES,
            65_536,
        )
        .unwrap();
        assert!(with_grid.estimated_cost_ms <= without.estimated_cost_ms + 1e-9);
    }

    #[test]
    fn search_uses_the_cache() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 11);
        let tables: Vec<TableConfig> = (0..12).map(|i| t(i, 32)).collect();
        let _ = search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        assert!(
            sim.cache().hit_rate() > 0.5,
            "hit rate {}",
            sim.cache().hit_rate()
        );
    }

    #[test]
    fn parallel_grid_is_bit_identical_to_serial() {
        let sim = sim(2);
        let tables: Vec<TableConfig> = (0..14)
            .map(|i| t(i, if i % 3 == 0 { 128 } else { 32 }))
            .collect();
        let at = |threads| {
            let search = GreedyGridSearch::new(&sim, 7).with_threads(threads);
            search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap()
        };
        let serial = at(1);
        for threads in [2, 4, 8] {
            let parallel = at(threads);
            assert_eq!(parallel, serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn unit_scales_are_bit_identical_to_no_scales() {
        let sim = sim(2);
        let tables: Vec<TableConfig> = (0..10)
            .map(|i| t(i, if i % 3 == 0 { 128 } else { 32 }))
            .collect();
        let search = GreedyGridSearch::new(&sim, 7);
        let unscaled = search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        let budgets = [nshard_sim::DEFAULT_MEM_BYTES; 2];
        let unit = DeviceScales::new(vec![1.0; 2], vec![1.0; 2]);
        let scaled = search
            .search_with_devices(&tables, 2, &budgets, Some(&unit), 65_536)
            .unwrap();
        assert_eq!(scaled.device_of, unscaled.device_of);
        assert_eq!(
            scaled.estimated_cost_ms.to_bits(),
            unscaled.estimated_cost_ms.to_bits()
        );
        assert_eq!(scaled.max_dim_used, unscaled.max_dim_used);
    }

    #[test]
    fn per_device_budgets_steer_big_tables() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        // Two 256 KB tables; device 1 can hold at most one byte.
        let tables: Vec<TableConfig> = (0..2)
            .map(|i| TableConfig::new(TableId(i), 64, 1024, 5.0, 1.0))
            .collect();
        let budgets = [1 << 30, 1];
        let result = search
            .search_with_devices(&tables, 2, &budgets, None, 1024)
            .unwrap();
        assert_eq!(result.device_of, vec![0, 0]);
    }

    #[test]
    fn compute_scales_repel_load_from_slow_devices() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3).without_grid();
        let tables: Vec<TableConfig> = (0..8).map(|i| t(i, 32)).collect();
        let budgets = [nshard_sim::DEFAULT_MEM_BYTES; 2];
        // Device 1 is 100x slower: the allocator should load device 0
        // strictly more heavily than device 1.
        let slow = DeviceScales::new(vec![1.0, 100.0], vec![1.0, 1.0]);
        let result = search
            .search_with_devices(&tables, 2, &budgets, Some(&slow), 65_536)
            .unwrap();
        let on_fast = result.device_of.iter().filter(|&&d| d == 0).count();
        let on_slow = tables.len() - on_fast;
        assert!(
            on_fast > on_slow,
            "fast device got {on_fast} of {} tables",
            tables.len()
        );
    }

    #[test]
    fn mismatched_budget_count_is_invalid() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        assert!(matches!(
            search.search_with_devices(&[t(0, 8)], 2, &[1 << 30], None, 1024),
            Err(PlanError::Invalid { .. })
        ));
    }

    #[test]
    fn zero_devices_is_invalid() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        assert!(matches!(
            search.search_with_devices(&[t(0, 8)], 0, &[], None, 1024),
            Err(PlanError::Invalid { .. })
        ));
    }
}
