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

use std::ops::Range;

use serde::{Deserialize, Serialize};

use nshard_cost::{CostSimulator, DeviceLoads, DeviceScales, TableEncodings, TableSetKey};
use nshard_data::TableConfig;
use nshard_sim::TableProfile;

use crate::plan::{finite_cost, PlanError};

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
}

/// What the walk knows about one device of one pass.
#[derive(Debug, Clone, Copy)]
struct DeviceState {
    key: TableSetKey,
    bytes: u64,
    /// Effective dimension placed on the device.
    dim: f64,
    /// Raw (baseline-hardware) predicted cost of the device's current set:
    /// the probe answer that placed its last table. `None` while the
    /// device is empty — that set was never asked about.
    cost: Option<f64>,
}

/// One live greedy pass of the walk: the state that every grid threshold
/// in `grid` has built so far, because each of them made exactly these
/// choices.
#[derive(Debug, Clone)]
struct Pass {
    /// Indices into the threshold grid, ascending — the last is the
    /// loosest cap of the group.
    grid: Range<usize>,
    devices: Vec<DeviceState>,
    /// Each device's pooled encoding — the left fold of its tables' encoder
    /// rows in placement order, from all zeros — `width` values per device.
    pooled: Vec<f32>,
    width: usize,
    device_of: Vec<usize>,
}

/// A device the table being placed may go to, as the probe found it.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    device: usize,
    /// The device's effective dimension with the table added.
    dim: f64,
    /// Its raw predicted cost with the table added...
    cost: f64,
    /// ...and the same at the device's compute class, which is what the
    /// allocator compares.
    scaled: f64,
}

impl Pass {
    /// The pass before any placement, shared by the whole grid.
    fn root(grid: Range<usize>, num_devices: usize, width: usize, num_tables: usize) -> Self {
        let empty = DeviceState {
            key: TableSetKey::empty(),
            bytes: 0,
            dim: 0.0,
            cost: None,
        };
        Self {
            grid,
            devices: vec![empty; num_devices],
            pooled: vec![0.0; num_devices * width],
            width,
            device_of: vec![usize::MAX; num_tables],
        }
    }

    fn pooled(&self, g: usize) -> &[f32] {
        &self.pooled[g * self.width..(g + 1) * self.width]
    }

    /// Places table `i` where the thresholds in `grid` chose to.
    fn place(
        &mut self,
        grid: Range<usize>,
        i: usize,
        p: &TableProfile,
        to: &Candidate,
        encodings: &TableEncodings,
    ) {
        let g = to.device;
        self.grid = grid;
        let device = &mut self.devices[g];
        device.key.add(p);
        device.bytes += p.memory_bytes();
        device.dim = to.dim;
        device.cost = Some(to.cost);
        encodings.add_to(i, &mut self.pooled[g * self.width..(g + 1) * self.width]);
        self.device_of[i] = g;
    }
}

/// The allocator's choice under one cap: the first lowest cost among the
/// candidates the cap allows (`None` allows all) — the lowest device index
/// on ties, as candidates ascend by device.
fn first_lowest(candidates: &[Candidate], cap: Option<f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (j, c) in candidates.iter().enumerate() {
        if cap.is_none_or(|cap| c.dim <= cap) && best.is_none_or(|(_, cost)| c.scaled < cost) {
            best = Some((j, c.scaled));
        }
    }
    best.map(|(j, _)| j)
}

impl<'a> GreedyGridSearch<'a> {
    /// Creates an inner-loop searcher over the given cost simulator with
    /// grid granularity `m_steps`.
    pub fn new(sim: &'a CostSimulator, m_steps: usize) -> Self {
        Self {
            sim,
            m_steps: m_steps.max(1),
            use_grid: true,
        }
    }

    /// Disables the grid (ablation): a single memory-constrained greedy
    /// pass with no dimension threshold.
    pub fn without_grid(mut self) -> Self {
        self.use_grid = false;
        self
    }

    /// Does nothing: one walk serves every threshold of the grid, so an
    /// inner search has nothing left to fan out (the beam spreads whole
    /// inner searches over threads). Kept only because the frozen
    /// benchmark surface calls it.
    pub fn with_threads(self, _threads: usize) -> Self {
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
    /// cannot satisfy the per-device memory budgets;
    /// [`PlanError::NonFiniteCost`] when a cost model predicts NaN or an
    /// infinity for anything the search would have to compare.
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
        let order = self.placement_order(&profiles, budgets)?;
        let thresholds = self.thresholds(&profiles, num_devices, scales);

        // Phase 1: one walk over the sorted tables makes every grid
        // point's greedy choices, sharing their common prefix.
        let passes = self.walk(&profiles, &order, budgets, scales, &thresholds)?;

        // Phase 2: price each distinct finished pass — a threshold whose
        // pass equals a tighter one's can never win the strict-`<` fold
        // below — from the per-device costs the walk already holds. A
        // device some pass left empty was never probed; the empty set is
        // priced now, once, and only then.
        let mut empty_cost: Option<f64> = None;
        let loads: Vec<DeviceLoads> = passes
            .iter()
            .map(|pass| DeviceLoads {
                compute_ms: pass
                    .devices
                    .iter()
                    .map(|device| {
                        device.cost.unwrap_or_else(|| {
                            *empty_cost.get_or_insert_with(|| self.sim.device_compute_cost(&[]))
                        })
                    })
                    .collect(),
                comm_dims: (0..num_devices)
                    .map(|g| {
                        // Summed in table order, as a plan estimate would.
                        (0..profiles.len())
                            .filter(|&i| pass.device_of[i] == g)
                            .map(|i| profiles[i].comm_dim())
                            .sum()
                    })
                    .collect(),
            })
            .collect();
        let estimates = self.sim.estimate_from_loads(loads, scales);

        // Fold in grid order: first strict improvement wins.
        let mut best: Option<GridSearchResult> = None;
        for (pass, est) in passes.into_iter().zip(estimates) {
            let cost = finite_cost("plan estimate", est.total_ms())?;
            if best.as_ref().is_none_or(|b| cost < b.estimated_cost_ms) {
                best = Some(GridSearchResult {
                    estimated_cost_ms: cost,
                    device_of: pass.device_of,
                    max_dim_used: thresholds[pass.grid.start],
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

    /// The order tables are placed in: descending by predicted
    /// single-table cost (line 3) — with one robustness tweak: shards
    /// larger than half the device budget are placed first (largest bytes
    /// first), because they can only go on near-empty devices. Without
    /// this, a big-but-cheap shard (e.g. a row-wise half of a tall dim-4
    /// table) sorts last and finds every device already occupied. For
    /// paper-style workloads, big tables are also costly, so this rarely
    /// changes the order.
    fn placement_order(
        &self,
        profiles: &[TableProfile],
        budgets: &[u64],
    ) -> Result<Vec<usize>, PlanError> {
        let single_costs: Vec<f64> = self.sim.single_table_cost_batch(profiles);
        for &cost in &single_costs {
            finite_cost("single-table cost", cost)?;
        }
        let half_budget = budgets.iter().copied().max().unwrap_or(0) / 2;
        let mut order: Vec<usize> = (0..profiles.len()).collect();
        order.sort_by(|&a, &b| {
            let huge_a = profiles[a].memory_bytes() > half_budget;
            let huge_b = profiles[b].memory_bytes() > half_budget;
            match (huge_a, huge_b) {
                (true, true) => profiles[b].memory_bytes().cmp(&profiles[a].memory_bytes()),
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                (false, false) => single_costs[b]
                    .partial_cmp(&single_costs[a])
                    .expect("every single-table cost was checked finite"),
            }
        });
        Ok(order)
    }

    /// The grid of `max_dim` thresholds, ascending: `M_s` = average
    /// *effective* device dimension (replicas count at their traffic
    /// share; slow links inflate a device's effective load, so the
    /// denominator is total bandwidth rather than the device count),
    /// `M_e = 1.5 · M_s`, then the unconstrained fallback (`None`). On
    /// homogeneous fleets `M_s` reduces exactly to `total_dim /
    /// num_devices`.
    fn thresholds(
        &self,
        profiles: &[TableProfile],
        num_devices: usize,
        scales: Option<&DeviceScales>,
    ) -> Vec<Option<f64>> {
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
        thresholds
    }

    /// One walk over the tables in `order` that runs the greedy allocator
    /// (lines 8-22: each table goes to the feasible device with the lowest
    /// predicted cost after the assignment, first device on ties) for
    /// **every** threshold at once. Returns the finished passes, ascending
    /// by threshold; a threshold in none of them has no feasible
    /// assignment.
    ///
    /// Caps are nested — `thresholds` ascends and `None` is loosest — so a
    /// device feasible under one cap is feasible under every looser one,
    /// and a pass under a tight cap makes exactly a looser pass's choices
    /// until the first placement the tight cap forbids. Thresholds
    /// therefore travel as one [`Pass`] while their choices agree: each
    /// (pass, table) is probed **once**, over the devices the group's
    /// loosest cap allows; every threshold then takes its first-lowest
    /// cost over its own feasible subset, and the state is cloned only
    /// where choices differ. The keys probed are exactly the keys the
    /// loosest member's stand-alone greedy pass would probe, so the walk
    /// asks the cost model no question `M + 1` independent passes would
    /// not — it only stops repeating them.
    ///
    /// A probe reads the pass's own state: device `g` with the table
    /// added is `pooled[g] + encoding(table)`, the last step of the fold
    /// the whole-set path performs over that set in placement order
    /// ([`CostSimulator::pooled_probe_costs`]), so cached and computed
    /// values are bit-identical to pricing the set from its table list.
    fn walk(
        &self,
        profiles: &[TableProfile],
        order: &[usize],
        budgets: &[u64],
        scales: Option<&DeviceScales>,
        thresholds: &[Option<f64>],
    ) -> Result<Vec<Pass>, PlanError> {
        let num_devices = budgets.len();
        let encodings = self.sim.table_encodings(profiles);
        // Effective dimension of a table on device `g`: its traffic share,
        // inflated by the device's link slowness. On homogeneous fleets
        // both factors are exact 1.0s, so this is bitwise `dim`.
        let eff_dim = |p: &TableProfile, g: usize| match scales {
            Some(s) => p.comm_dim() / s.bandwidth_scale(g),
            None => p.comm_dim(),
        };

        let mut live = vec![Pass::root(
            0..thresholds.len(),
            num_devices,
            encodings.width(),
            profiles.len(),
        )];
        let mut next: Vec<Pass> = Vec::new();
        // Reused across all placements — apart from the probe's result and
        // a fork's clone, the loop allocates nothing.
        let mut feasible: Vec<(usize, f64)> = Vec::with_capacity(num_devices);
        let mut keys: Vec<u64> = Vec::with_capacity(num_devices);
        let mut candidates: Vec<Candidate> = Vec::with_capacity(num_devices);
        let mut forks: Vec<(Range<usize>, usize)> = Vec::with_capacity(thresholds.len());

        for &i in order {
            let p = &profiles[i];
            let bytes = p.memory_bytes();
            for mut pass in live.drain(..) {
                // Devices the loosest cap allows, each with the effective
                // dimension it would reach.
                let loosest = thresholds[pass.grid.end - 1];
                feasible.clear();
                feasible.extend((0..num_devices).filter_map(|g| {
                    let device = &pass.devices[g];
                    let dim = device.dim + eff_dim(p, g);
                    (device.bytes + bytes <= budgets[g] && loosest.is_none_or(|cap| dim <= cap))
                        .then_some((g, dim))
                }));
                if feasible.is_empty() {
                    continue; // no threshold of this pass can place the table
                }
                // Predicted device cost with the table added, all of them
                // scored in one batched call straight off the pass's
                // state. Compute scales are applied *after* the (raw,
                // cacheable) prediction, mirroring the simulator.
                keys.clear();
                keys.extend(
                    feasible
                        .iter()
                        .map(|&(g, _)| pass.devices[g].key.with(p).key()),
                );
                let costs = self.sim.pooled_probe_costs(
                    &keys,
                    |j| pass.pooled(feasible[j].0),
                    encodings.row(i),
                );
                candidates.clear();
                for (&(device, dim), cost) in feasible.iter().zip(costs) {
                    candidates.push(Candidate {
                        device,
                        dim,
                        cost: finite_cost("device cost", cost)?,
                        scaled: match scales {
                            Some(s) => cost * s.compute_scale(device),
                            None => cost,
                        },
                    });
                }
                // Each threshold chooses over its own feasible subset;
                // consecutive thresholds that agree stay one pass, and one
                // with no feasible device drops out.
                forks.clear();
                for t in pass.grid.clone() {
                    let Some(j) = first_lowest(&candidates, thresholds[t]) else {
                        continue;
                    };
                    match forks.last_mut() {
                        Some((grid, slot)) if *slot == j && grid.end == t => grid.end = t + 1,
                        _ => forks.push((t..t + 1, j)),
                    }
                }
                // The loosest cap allows every candidate, so it chose; its
                // group takes the state over, the others copy it.
                let (last_grid, last) = forks.pop().expect("the loosest threshold chose");
                for (grid, j) in forks.drain(..) {
                    let mut fork = pass.clone();
                    fork.place(grid, i, p, &candidates[j], &encodings);
                    next.push(fork);
                }
                pass.place(last_grid, i, p, &candidates[last], &encodings);
                next.push(pass);
            }
            std::mem::swap(&mut live, &mut next);
        }
        Ok(live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
    use nshard_data::{TableConfig, TableId, TablePool};
    use proptest::prelude::*;

    fn bundle(d: usize) -> CostModelBundle {
        let pool = TablePool::synthetic_dlrm(30, 1);
        CostModelBundle::pretrain(
            &pool,
            d,
            &CollectConfig::smoke(),
            &TrainSettings::smoke(),
            7,
        )
    }

    fn sim(d: usize) -> CostSimulator {
        CostSimulator::new(bundle(d))
    }

    /// The allocator the walk replaced, kept as its oracle: one stand-alone
    /// greedy pass under one `max_dim` cap (`None` = unconstrained), every
    /// probe priced from the device's table list through the whole-set
    /// path. Returns `None` if some table has no feasible device.
    fn greedy_assign(
        sim: &CostSimulator,
        profiles: &[TableProfile],
        order: &[usize],
        budgets: &[u64],
        scales: Option<&DeviceScales>,
        max_dim: Option<f64>,
    ) -> Option<Vec<usize>> {
        let num_devices = budgets.len();
        let mut device_tables: Vec<Vec<TableProfile>> = vec![Vec::new(); num_devices];
        let mut device_bytes = vec![0u64; num_devices];
        let mut device_dims = vec![0.0f64; num_devices];
        let mut device_of = vec![usize::MAX; profiles.len()];
        let eff_dim = |p: &TableProfile, g: usize| match scales {
            Some(s) => p.comm_dim() / s.bandwidth_scale(g),
            None => p.comm_dim(),
        };
        for &i in order {
            let p = &profiles[i];
            let bytes = p.memory_bytes();
            let mut best_dev: Option<(usize, f64)> = None;
            for g in 0..num_devices {
                if device_bytes[g] + bytes > budgets[g]
                    || !max_dim.is_none_or(|cap| device_dims[g] + eff_dim(p, g) <= cap)
                {
                    continue;
                }
                device_tables[g].push(*p);
                let cost = sim.device_compute_cost(&device_tables[g]);
                device_tables[g].pop();
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
            device_bytes[g] += bytes;
            device_dims[g] += eff_dim(p, g);
            device_of[i] = g;
        }
        Some(device_of)
    }

    /// One smoke bundle per device count for the oracle below.
    fn shared_bundle(d: usize) -> CostModelBundle {
        static BUNDLES: std::sync::OnceLock<Vec<CostModelBundle>> = std::sync::OnceLock::new();
        BUNDLES.get_or_init(|| (2..=8).map(bundle).collect())[d - 2].clone()
    }

    proptest! {
        /// The walk against `M + 1` independent passes: for every grid
        /// threshold the same assignment or the same infeasibility. Tables
        /// include replicated shards (comm share < 1) and shards over half
        /// the largest budget (the huge-first branch of the order);
        /// budgets are uneven and tight enough to kill some thresholds;
        /// compute and bandwidth scales are heterogeneous in half the
        /// cases. The reference prices probes on its own simulator, from
        /// table lists, so agreement also pins the pooled probe's values.
        #[test]
        fn walk_matches_one_greedy_pass_per_threshold(
            // (dim / 4, rows, pooling factor, replicas)
            tables in proptest::collection::vec(
                (1u32..=32, 1u64..(1 << 20), 1.0f64..40.0, 1u32..=3),
                1..20,
            ),
            // Per device: (budget as a share of all bytes, compute scale,
            // bandwidth scale).
            devices in proptest::collection::vec((0.15f64..0.9, 0.5f64..3.0, 0.25f64..2.0), 2..=8),
            grid in 0usize..6,
            hetero: bool,
        ) {
            let num_devices = devices.len();
            let profiles: Vec<TableProfile> = tables
                .iter()
                .map(|&(dim4, rows, pooling, replicas)| {
                    TableProfile::new(dim4 * 4, rows, pooling, 0.3, 1.05)
                        .with_comm_share(1.0 / f64::from(replicas))
                })
                .collect();
            let total_bytes: u64 = profiles.iter().map(TableProfile::memory_bytes).sum();
            let budgets: Vec<u64> = devices
                .iter()
                .map(|&(share, _, _)| (share * total_bytes as f64) as u64)
                .collect();
            let scales = hetero.then(|| {
                DeviceScales::new(
                    devices.iter().map(|d| d.1).collect(),
                    devices.iter().map(|d| d.2).collect(),
                )
            });
            let scales = scales.as_ref();

            let sim = CostSimulator::new(shared_bundle(num_devices));
            let search = match grid {
                0 => GreedyGridSearch::new(&sim, 11).without_grid(),
                1 => GreedyGridSearch::new(&sim, 1),
                2 => GreedyGridSearch::new(&sim, 3),
                _ => GreedyGridSearch::new(&sim, 11),
            };
            let order = search.placement_order(&profiles, &budgets).unwrap();
            let thresholds = search.thresholds(&profiles, num_devices, scales);
            let passes = search
                .walk(&profiles, &order, &budgets, scales, &thresholds)
                .unwrap();
            prop_assert!(passes.windows(2).all(|w| w[0].grid.end <= w[1].grid.start));

            let reference = CostSimulator::new(shared_bundle(num_devices));
            for (t, &max_dim) in thresholds.iter().enumerate() {
                let expected =
                    greedy_assign(&reference, &profiles, &order, &budgets, scales, max_dim);
                let walked = passes
                    .iter()
                    .find(|pass| pass.grid.contains(&t))
                    .map(|pass| pass.device_of.clone());
                prop_assert!(
                    walked == expected,
                    "threshold {t} ({max_dim:?}): walk {walked:?}, stand-alone pass {expected:?}"
                );
            }
        }
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
