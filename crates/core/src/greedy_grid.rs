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
//! fallback competes on estimated cost like any other grid point. With
//! `M = 0` it is the only one: Table 3's "w/o greedy grid search".

use std::ops::Range;

use serde::{Deserialize, Serialize};

use nshard_cost::{CostSimulator, DeviceLoads, TableEncodings, TableSetKey};
use nshard_data::TableConfig;
use nshard_sim::{DevicePool, DeviceProfile, TableProfile};

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

/// The greedy grid-search allocator (Algorithm 2): `M` thresholds plus the
/// unconstrained pass, so `M = 0` is the unconstrained pass alone.
#[derive(Debug, Clone, Copy)]
pub struct GreedyGridSearch<'a> {
    sim: &'a CostSimulator,
    /// Grid granularity `M` (the paper uses 11; `0` is no grid).
    m_steps: usize,
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

/// Each table's predicted cost alone on a device (fwd+bwd, ms): one batch
/// of one-table sets, each keyed like any other set. The walk orders its
/// tables by these and the beam ranks its candidates by them.
///
/// # Errors
///
/// [`PlanError::NonFiniteCost`] when a prediction is NaN or an infinity.
pub(crate) fn single_table_costs(
    sim: &CostSimulator,
    profiles: &[TableProfile],
) -> Result<Vec<f64>, PlanError> {
    let sets: Vec<(TableSetKey, &[TableProfile])> = profiles
        .iter()
        .map(|p| (TableSetKey::empty().with(p), std::slice::from_ref(p)))
        .collect();
    let costs = sim.device_compute_cost_batch(&sets);
    for &cost in &costs {
        finite_cost("single-table cost", cost)?;
    }
    Ok(costs)
}

/// One inner search in progress, resumable between placements: its tables,
/// the order they are placed in, its threshold grid and the passes still
/// placing, and the fleet it places them on.
/// [`GreedyGridSearch::walk`] advances many walks in lockstep.
struct Walk<'f> {
    fleet: &'f DevicePool,
    profiles: Vec<TableProfile>,
    order: Vec<usize>,
    thresholds: Vec<Option<f64>>,
    encodings: TableEncodings,
    /// The live passes, ascending by threshold.
    live: Vec<Pass>,
    /// The current step's probes, one per (live pass, device its loosest
    /// cap allows): the pass's index in `live`, the device, and the
    /// effective dimension the device would reach.
    probes: Vec<(usize, usize, f64)>,
}

/// Buffers every step reuses (candidates, forks, the next live passes):
/// apart from the probe answers and a fork's clone, a step allocates
/// nothing.
type StepBuffers = (Vec<Candidate>, Vec<(Range<usize>, usize)>, Vec<Pass>);

impl Walk<'_> {
    /// States step `step`'s probes — per live pass, the devices its
    /// loosest cap allows, with the table added — and appends their keys
    /// to `keys`. Returns whether the walk places a table this step.
    fn state_probes(&mut self, step: usize, keys: &mut Vec<u64>) -> bool {
        self.probes.clear();
        let Some(&i) = self.order.get(step) else {
            return false;
        };
        let p = &self.profiles[i];
        let bytes = p.memory_bytes();
        let (budgets, bandwidth) = (self.fleet.budgets(), self.fleet.bw_scales());
        for (k, pass) in self.live.iter().enumerate() {
            let loosest = self.thresholds[pass.grid.end - 1];
            for (g, device) in pass.devices.iter().enumerate() {
                // The table's traffic share, inflated by the device's link
                // slowness: bitwise `dim` on homogeneous fleets.
                let dim = device.dim + p.comm_dim() / bandwidth[g];
                if device.bytes + bytes <= budgets[g] && loosest.is_none_or(|cap| dim <= cap) {
                    self.probes.push((k, g, dim));
                    keys.push(device.key.with(p).key());
                }
            }
        }
        !self.live.is_empty()
    }

    /// Makes step `step`'s choices from `costs`, the answers to this
    /// walk's own probes: each threshold chooses over its own feasible
    /// subset, consecutive thresholds that agree stay one pass, one with
    /// no feasible device drops out, and a pass is cloned only where its
    /// thresholds' choices differ. Compute scales are applied *after* the
    /// (raw, cacheable) prediction, mirroring the simulator.
    fn advance(
        &mut self,
        step: usize,
        costs: &[f64],
        (candidates, forks, next): &mut StepBuffers,
    ) -> Result<(), PlanError> {
        let Some(&i) = self.order.get(step) else {
            return Ok(());
        };
        let p = self.profiles[i];
        next.clear(); // a walk that failed mid-step may have left passes
        let mut answers = self.probes.iter().zip(costs).peekable();
        for (k, mut pass) in self.live.drain(..).enumerate() {
            candidates.clear();
            while let Some((&(_, device, dim), &cost)) =
                answers.next_if(|((owner, _, _), _)| *owner == k)
            {
                let scaled = cost * self.fleet.compute_scales()[device];
                let cost = finite_cost("device cost", cost)?;
                candidates.push(Candidate {
                    device,
                    dim,
                    cost,
                    scaled,
                });
            }
            if candidates.is_empty() {
                continue; // no threshold of this pass can place the table
            }
            forks.clear();
            for t in pass.grid.clone() {
                let Some(j) = first_lowest(candidates, self.thresholds[t]) else {
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
                fork.place(grid, i, &p, &candidates[j], &self.encodings);
                next.push(fork);
            }
            pass.place(last_grid, i, &p, &candidates[last], &self.encodings);
            next.push(pass);
        }
        std::mem::swap(&mut self.live, next);
        Ok(())
    }
}

impl<'a> GreedyGridSearch<'a> {
    /// Creates an inner-loop searcher over the given cost simulator with
    /// grid granularity `m_steps`; `0` runs the unconstrained pass alone.
    pub fn new(sim: &'a CostSimulator, m_steps: usize) -> Self {
        Self { sim, m_steps }
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
    /// `budgets`: the one-job form of the lockstep batch the beam runs.
    /// `fleet`, when given, is the pool those budgets belong to, whose
    /// compute classes and bandwidth scales price every prediction during
    /// allocation and scoring; `None` is the one-node, class-1 fleet of
    /// `budgets`.
    ///
    /// # Errors
    ///
    /// [`PlanError::Invalid`] when `num_devices` is zero, `budgets` does
    /// not cover `num_devices` devices or holds a zero, or `fleet`'s
    /// budgets are not `budgets`;
    /// [`PlanError::Infeasible`] when even the unconstrained greedy pass
    /// cannot satisfy the per-device memory budgets;
    /// [`PlanError::NonFiniteCost`] when a cost model predicts NaN or an
    /// infinity for anything the search would have to compare.
    pub fn search_with_devices(
        &self,
        tables: &[TableConfig],
        num_devices: usize,
        budgets: &[u64],
        fleet: Option<&DevicePool>,
        batch_size: u32,
    ) -> Result<GridSearchResult, PlanError> {
        let reason = match (num_devices, budgets.len()) {
            (0, _) => Some("need at least one device".to_string()),
            (d, n) if n != d => Some(format!("{n} per-device budgets for {d} devices")),
            _ if budgets.contains(&0) => Some("device memory budgets must be positive".into()),
            _ if fleet.is_some_and(|fleet| fleet.budgets() != budgets) => {
                Some("the fleet's budgets are not the given budgets".into())
            }
            _ => None,
        };
        if let Some(reason) = reason {
            return Err(PlanError::Invalid { reason });
        }
        let flat;
        let fleet = match fleet {
            Some(fleet) => fleet,
            None => {
                let devices = budgets.iter().map(|&b| DeviceProfile::new(b, 1.0, 0));
                flat = DevicePool::new(devices.collect(), 1.0);
                &flat
            }
        };
        self.search_batch(&[tables], fleet, batch_size)
            .pop()
            .expect("one job in, one result out")
    }

    /// Searches every job — a table list for `fleet` — and returns one
    /// result per job, in job order, each bit for bit what
    /// [`GreedyGridSearch::search_with_devices`] returns for that job
    /// alone, errors included. The jobs' walks run in lockstep
    /// (one placement per step across every job), so each step prices the
    /// probes of every job with one cache batch and one head forward.
    pub(crate) fn search_batch<T: AsRef<[TableConfig]>>(
        &self,
        jobs: &[T],
        fleet: &DevicePool,
        batch_size: u32,
    ) -> Vec<Result<GridSearchResult, PlanError>> {
        let mut walks: Vec<_> = jobs
            .iter()
            .map(|tables| {
                let profiles = tables.as_ref().iter().map(|t| t.profile(batch_size));
                self.start(profiles.collect(), fleet)
            })
            .collect();
        self.walk(&mut walks);
        walks.into_iter().map(|walk| self.finish(walk?)).collect()
    }

    /// A job's walk before its first placement: its placement order, its
    /// threshold grid, its tables' encoder rows (fetched once per inner
    /// search) and one root pass that the whole grid shares.
    fn start<'f>(
        &self,
        profiles: Vec<TableProfile>,
        fleet: &'f DevicePool,
    ) -> Result<Walk<'f>, PlanError> {
        let order = self.placement_order(&profiles, fleet.max_budget())?;
        let thresholds = self.thresholds(&profiles, fleet);
        let encodings = self.sim.table_encodings(&profiles);
        Ok(Walk {
            live: vec![Pass::root(
                0..thresholds.len(),
                fleet.len(),
                encodings.width(),
                profiles.len(),
            )],
            fleet,
            profiles,
            order,
            thresholds,
            encodings,
            probes: Vec::new(),
        })
    }

    /// Phase 2 of a finished walk: prices each distinct finished pass — a
    /// threshold whose pass equals a tighter one's can never win the
    /// strict-`<` fold — from the per-device costs the walk already holds,
    /// then folds in grid order, the first strict improvement winning. A
    /// device some pass left empty was never probed; the empty set is
    /// priced now, once, and only then, as a batch of one.
    fn finish(&self, walk: Walk) -> Result<GridSearchResult, PlanError> {
        let passes = walk.live;
        let mut empty_cost: Option<f64> = None;
        let loads: Vec<DeviceLoads> = passes
            .iter()
            .map(|pass| DeviceLoads {
                compute_ms: pass
                    .devices
                    .iter()
                    .map(|device| {
                        device.cost.unwrap_or_else(|| {
                            *empty_cost.get_or_insert_with(|| {
                                let empty = [(TableSetKey::empty(), &[][..])];
                                self.sim.device_compute_cost_batch(&empty)[0]
                            })
                        })
                    })
                    .collect(),
                comm_dims: (0..walk.fleet.len())
                    .map(|g| {
                        // Summed in table order, as a plan estimate would.
                        (0..walk.profiles.len())
                            .filter(|&i| pass.device_of[i] == g)
                            .map(|i| walk.profiles[i].comm_dim())
                            .sum()
                    })
                    .collect(),
            })
            .collect();
        let estimates = self.sim.estimate_from_loads(loads, walk.fleet);

        let mut best: Option<GridSearchResult> = None;
        for (pass, est) in passes.into_iter().zip(estimates) {
            let cost = finite_cost("plan estimate", est.total_ms())?;
            if best.as_ref().is_none_or(|b| cost < b.estimated_cost_ms) {
                best = Some(GridSearchResult {
                    estimated_cost_ms: cost,
                    device_of: pass.device_of,
                    max_dim_used: walk.thresholds[pass.grid.start],
                });
            }
        }
        best.ok_or_else(|| PlanError::Infeasible {
            reason: format!(
                "no greedy assignment of {} tables to {} devices fits \
                 the per-device memory budgets (max {} bytes)",
                walk.profiles.len(),
                walk.fleet.len(),
                walk.fleet.max_budget()
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
        max_budget: u64,
    ) -> Result<Vec<usize>, PlanError> {
        let single_costs = single_table_costs(self.sim, profiles)?;
        let half_budget = max_budget / 2;
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
    /// `M_e = 1.5 · M_s` in `M` steps (`M = 1` is `M_s` alone, `M = 0` no
    /// finite threshold), then the unconstrained fallback (`None`). On
    /// homogeneous fleets `M_s` reduces exactly to `total_dim /
    /// num_devices`.
    fn thresholds(&self, profiles: &[TableProfile], fleet: &DevicePool) -> Vec<Option<f64>> {
        let total_dim: f64 = profiles.iter().map(TableProfile::comm_dim).sum();
        let total_bw: f64 = fleet.bw_scales().iter().sum();
        let m_s = total_dim / total_bw;
        let m_e = 1.5 * m_s;
        let step = (m_e - m_s) / (self.m_steps.max(2) - 1) as f64;
        (0..self.m_steps)
            .map(|i| Some(m_s + step * i as f64))
            .chain([None]) // unconstrained fallback
            .collect()
    }

    /// Runs `walks` in lockstep: step `s` places each walk's `s`-th table
    /// in its sorted order, with the greedy allocator (lines 8-22: each
    /// table goes to the feasible device with the lowest predicted cost
    /// after the assignment, first device on ties) for **every** threshold
    /// of the walk at once. Every live pass of every walk states its probes
    /// ([`Walk::state_probes`]), one
    /// [`CostSimulator::pooled_probe_costs`] call prices them all, and each
    /// walk then chooses and forks on its own slice of the answers
    /// ([`Walk::advance`]) exactly as it would alone. A walk that meets a
    /// non-finite cost becomes that error and stops; the others go on. A
    /// finished walk holds its passes ascending by threshold; a threshold
    /// in none of them has no feasible assignment.
    ///
    /// Caps are nested — thresholds ascend and `None` is loosest — so a
    /// device feasible under one cap is feasible under every looser one,
    /// and a pass under a tight cap makes exactly a looser pass's choices
    /// until the first placement the tight cap forbids. Thresholds
    /// therefore travel as one [`Pass`] while their choices agree: each
    /// (pass, table) is probed **once**, over the devices the group's
    /// loosest cap allows, and the keys probed are exactly the keys the
    /// loosest member's stand-alone greedy pass would probe, so the walk
    /// asks the cost model no question `M + 1` independent passes would
    /// not — it only stops repeating them. Batching changes no count
    /// either: a key two probes of one step share is one miss and one hit,
    /// as it would be asked one after the other, and a key two concurrent
    /// chunks both compute is one miss, for the chunk that stores it.
    ///
    /// A probe reads the pass's own state: device `g` with the table added
    /// is `pooled[g] + encoding(table)`, the last step of the fold the
    /// whole-set path performs over that set in placement order, so cached
    /// and computed values are bit-identical to pricing the set from its
    /// table list.
    fn walk(&self, walks: &mut [Result<Walk, PlanError>]) {
        let mut keys = Vec::new();
        let mut buffers = StepBuffers::default();
        for step in 0.. {
            keys.clear();
            let mut placing = false;
            for walk in walks.iter_mut().flatten() {
                placing |= walk.state_probes(step, &mut keys);
            }
            if !placing {
                return;
            }
            let rows: Vec<(&[f32], &[f32])> = walks
                .iter()
                .flatten()
                .flat_map(|w| w.probes.iter().map(move |&(k, g, _)| (w, k, g)))
                .map(|(w, k, g)| (w.live[k].pooled(g), w.encodings.row(w.order[step])))
                .collect();
            let costs = self.sim.pooled_probe_costs(&keys, |j| rows[j]);
            let mut answers = costs.as_slice();
            for slot in walks.iter_mut() {
                let Ok(walk) = slot else { continue };
                let (own, rest) = answers.split_at(walk.probes.len());
                answers = rest;
                if let Err(e) = walk.advance(step, own, &mut buffers) {
                    *slot = Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{apply_split_plan, SplitKind, SplitStep};
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
    /// path. `fleet: None` never multiplies or divides, so a walk on a
    /// flat class-1 fleet is held to plain arithmetic. Returns the
    /// assignment and each device's effective dimension (as bits), or
    /// `None` if some table has no feasible device.
    fn greedy_assign(
        sim: &CostSimulator,
        profiles: &[TableProfile],
        order: &[usize],
        budgets: &[u64],
        fleet: Option<&DevicePool>,
        max_dim: Option<f64>,
    ) -> Option<(Vec<usize>, Vec<u64>)> {
        let num_devices = budgets.len();
        let mut device_tables: Vec<Vec<TableProfile>> = vec![Vec::new(); num_devices];
        let mut device_bytes = vec![0u64; num_devices];
        let mut device_dims = vec![0.0f64; num_devices];
        let mut device_of = vec![usize::MAX; profiles.len()];
        let eff_dim = |p: &TableProfile, g: usize| match fleet {
            Some(f) => p.comm_dim() / f.bw_scales()[g],
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
                let set = [(TableSetKey::of(&device_tables[g]), &device_tables[g][..])];
                let cost = sim.device_compute_cost_batch(&set)[0];
                device_tables[g].pop();
                let cost = match fleet {
                    Some(f) => cost * f.compute_scales()[g],
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
        Some((device_of, device_dims.iter().map(|d| d.to_bits()).collect()))
    }

    /// One smoke bundle per device count for the oracle below.
    fn shared_bundle(d: usize) -> CostModelBundle {
        static BUNDLES: std::sync::OnceLock<Vec<CostModelBundle>> = std::sync::OnceLock::new();
        BUNDLES.get_or_init(|| (2..=8).map(bundle).collect())[d - 2].clone()
    }

    /// The grid a proptest case draws: `M` = 0 (none), 1, 3 or 11.
    fn searcher(sim: &CostSimulator, grid: usize) -> GreedyGridSearch<'_> {
        GreedyGridSearch::new(sim, [0, 1, 3, 11][grid.min(3)])
    }

    /// A proptest case's fleet: per device a budget (as a share of
    /// `total_bytes`), a compute class and a node, with links between
    /// nodes at `inter` — or, unless `hetero`, the same budgets on one
    /// node at class 1.
    fn drawn_fleet(
        devices: &[(f64, f64, usize)],
        inter: f64,
        total_bytes: u64,
        hetero: bool,
    ) -> DevicePool {
        let budget = |share: f64| ((share * total_bytes as f64) as u64).max(1);
        let profiles = devices.iter().map(|&(share, class, node)| match hetero {
            true => DeviceProfile::new(budget(share), class, node),
            false => DeviceProfile::new(budget(share), 1.0, 0),
        });
        DevicePool::new(profiles.collect(), if hetero { inter } else { 1.0 })
    }

    proptest! {
        /// The walk against `M + 1` independent passes: for every grid
        /// threshold the same assignment and device dimensions, or the same
        /// infeasibility. Tables include replicated shards (comm share < 1)
        /// and shards over half the largest budget (the huge-first branch
        /// of the order); budgets are uneven and tight enough to kill some
        /// thresholds; the fleet mixes compute classes and nodes in half
        /// the cases, and is one class-1 node in the others — where the
        /// reference never scales. The reference prices probes on its own
        /// simulator, from table lists, so agreement also pins the pooled
        /// probe's values.
        #[test]
        fn walk_matches_one_greedy_pass_per_threshold(
            // (dim / 4, rows, pooling factor, replicas)
            tables in proptest::collection::vec(
                (1u32..=32, 1u64..(1 << 20), 1.0f64..40.0, 1u32..=3),
                1..20,
            ),
            // Per device: (budget as a share of all bytes, compute class,
            // node); then the inter-node bandwidth scale.
            devices in proptest::collection::vec((0.15f64..0.9, 0.5f64..3.0, 0usize..3), 2..=8),
            inter in 0.1f64..=1.0,
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
            let fleet = drawn_fleet(&devices, inter, total_bytes, hetero);
            let scaled = hetero.then_some(&fleet);

            let sim = CostSimulator::new(shared_bundle(num_devices));
            let search = searcher(&sim, grid);
            let mut walks = [search.start(profiles.clone(), &fleet)];
            search.walk(&mut walks);
            let walk = walks[0].as_ref().unwrap();
            let (order, thresholds, passes) = (&walk.order, &walk.thresholds, &walk.live);
            prop_assert!(passes.windows(2).all(|w| w[0].grid.end <= w[1].grid.start));

            let reference = CostSimulator::new(shared_bundle(num_devices));
            for (t, &max_dim) in thresholds.iter().enumerate() {
                let expected =
                    greedy_assign(&reference, &profiles, order, fleet.budgets(), scaled, max_dim);
                let walked = passes
                    .iter()
                    .find(|pass| pass.grid.contains(&t))
                    .map(|pass| {
                        let dims = pass.devices.iter().map(|d| d.dim.to_bits()).collect();
                        (pass.device_of.clone(), dims)
                    });
                prop_assert!(
                    walked == expected,
                    "threshold {t} ({max_dim:?}): walk {walked:?}, stand-alone pass {expected:?}"
                );
            }
        }
    }

    /// From now on `sim`'s cache answers NaN for `key`, as a poisoned
    /// checkpoint would for one table set.
    fn poison(sim: &CostSimulator, key: u64) {
        sim.cache().resolve(&[key], |_| vec![f64::NAN]);
    }

    /// Job by job, a batch result against a stand-alone one: the same
    /// assignment, threshold and cost bits, or the same error variant.
    fn same_result(
        batch: &Result<GridSearchResult, PlanError>,
        alone: &Result<GridSearchResult, PlanError>,
    ) -> bool {
        match (batch, alone) {
            (Ok(b), Ok(a)) => {
                b.device_of == a.device_of
                    && b.max_dim_used.map(f64::to_bits) == a.max_dim_used.map(f64::to_bits)
                    && b.estimated_cost_ms.to_bits() == a.estimated_cost_ms.to_bits()
            }
            (Err(b), Err(a)) => std::mem::discriminant(b) == std::mem::discriminant(a),
            _ => false,
        }
    }

    proptest! {
        /// The batch entry point against `search_with_devices` per job on a
        /// fresh simulator. Jobs are beam siblings — prefixes of one table
        /// list, of different lengths, each with one column, row or
        /// replicate split — and one of them carries a table no device can
        /// hold. In half the cases a poisoned cache entry (NaN) makes the
        /// walks that probe it meet a non-finite cost in mid-walk, and in
        /// half the fleet mixes compute classes and nodes.
        #[test]
        fn a_lockstep_batch_equals_one_search_per_job(
            // (dim / 4, rows, pooling factor)
            tables in proptest::collection::vec(
                (1u32..=32, 1u64..(1 << 16), 1.0f64..40.0),
                2..14,
            ),
            // Per job: (prefix length, table to split, split kind).
            jobs in proptest::collection::vec((1usize..14, 0usize..14, 0usize..3), 1..=6),
            // Per device: (budget as a share of all bytes, compute class,
            // node); then the inter-node bandwidth scale.
            devices in proptest::collection::vec((0.2f64..0.9, 0.5f64..3.0, 0usize..3), 2..=6),
            inter in 0.1f64..=1.0,
            infeasible in 0usize..6,
            poisoned_job in 0usize..6,
            poison_one: bool,
            grid in 0usize..4,
            hetero: bool,
        ) {
            const BATCH: u32 = 4_096;
            let base: Vec<TableConfig> = tables
                .iter()
                .enumerate()
                .map(|(i, &(dim4, rows, pooling))| {
                    TableConfig::new(TableId(i as u32), dim4 * 4, rows, pooling, 1.05)
                })
                .collect();
            let total_bytes: u64 = base.iter().map(TableConfig::memory_bytes).sum();
            let mut job_tables: Vec<Vec<TableConfig>> = jobs
                .iter()
                .map(|&(len, index, kind)| {
                    let prefix = &base[..len.min(base.len())];
                    let kind = [SplitKind::Column, SplitKind::Row, SplitKind::Replicate][kind];
                    let step = SplitStep { index: index % prefix.len(), kind };
                    apply_split_plan(prefix, &[step]).unwrap_or_else(|_| prefix.to_vec())
                })
                .collect();
            let too_big = TableConfig::new(TableId(99), 128, total_bytes / 512 + 1, 4.0, 1.0);
            job_tables[infeasible % jobs.len()].push(too_big);
            let num_devices = devices.len();
            let fleet = drawn_fleet(&devices, inter, total_bytes, hetero);
            // The poisoned set: the first two tables a job places.
            let scratch = CostSimulator::new(shared_bundle(num_devices));
            let poisoned = poison_one.then_some(poisoned_job).and_then(|j| {
                let tables = &job_tables[j % jobs.len()];
                let profiles = tables.iter().map(|t| t.profile(BATCH)).collect();
                let walk = searcher(&scratch, grid).start(profiles, &fleet).ok()?;
                let first_two = walk.order.get(..2)?.iter().map(|&i| walk.profiles[i]);
                Some(TableSetKey::of(&first_two.collect::<Vec<_>>()).key())
            });
            let fresh = || {
                let sim = CostSimulator::new(shared_bundle(num_devices));
                if let Some(key) = poisoned {
                    poison(&sim, key);
                }
                sim
            };

            let sim = fresh();
            let batch = searcher(&sim, grid).search_batch(&job_tables, &fleet, BATCH);
            prop_assert_eq!(batch.len(), job_tables.len());
            for (j, (tables, batched)) in job_tables.iter().zip(&batch).enumerate() {
                let sim = fresh();
                let given = hetero.then_some(&fleet);
                let alone = searcher(&sim, grid).search_with_devices(tables, num_devices, fleet.budgets(), given, BATCH);
                prop_assert!(
                    same_result(batched, &alone),
                    "job {j}: batch {batched:?}, alone {alone:?}"
                );
            }
        }
    }

    #[test]
    fn a_walk_that_meets_a_non_finite_cost_stops_alone() {
        let sim = || CostSimulator::new(shared_bundle(2));
        let budgets = [nshard_sim::DEFAULT_MEM_BYTES; 2];
        let poisoned: Vec<TableConfig> = (0..4).map(|i| t(i, 32)).collect();
        let healthy: Vec<TableConfig> = (4..10).map(|i| t(i, 64)).collect();
        // The poisoned job's second placement probes the device holding
        // its first table: two of its (identical) tables.
        let pair = poisoned[0].profile(65_536);
        let key = TableSetKey::of(&[pair, pair]).key();
        let alone = GreedyGridSearch::new(&sim(), 11)
            .search_with_devices(&healthy, 2, &budgets, None, 65_536);
        for jobs in [[&poisoned, &healthy], [&healthy, &poisoned]] {
            let sim = sim();
            poison(&sim, key);
            let fleet = DevicePool::uniform(2, budgets[0]);
            let results = GreedyGridSearch::new(&sim, 11).search_batch(&jobs, &fleet, 65_536);
            for (tables, result) in jobs.iter().zip(&results) {
                if *tables == &poisoned {
                    assert!(
                        matches!(result, Err(PlanError::NonFiniteCost { what, value })
                            if what == "device cost" && value.is_nan()),
                        "{result:?}"
                    );
                } else {
                    assert!(same_result(result, &alone), "{result:?} vs {alone:?}");
                }
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
    fn m_zero_thresholds_are_the_unconstrained_pass_alone() {
        let sim = sim(2);
        let profiles: Vec<TableProfile> = (0..4).map(|i| t(i, 32).profile(65_536)).collect();
        let fleet = DevicePool::uniform(2, 1);
        // Four 32-dim tables on two devices: `M_s` = 64.
        let thresholds = |m| GreedyGridSearch::new(&sim, m).thresholds(&profiles, &fleet);
        assert_eq!(thresholds(0), [None]);
        assert_eq!(thresholds(1), [Some(64.0), None]);
    }

    #[test]
    fn no_grid_still_produces_plans() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 0);
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
            &GreedyGridSearch::new(&sim, 0),
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
            sim.cache().stats().hit_rate() > 0.5,
            "hit rate {}",
            sim.cache().stats().hit_rate()
        );
    }

    #[test]
    fn unit_scales_are_bit_identical_to_no_scales() {
        // `None` is the uniform fleet of the budgets.
        let sim = sim(2);
        let tables: Vec<TableConfig> = (0..10)
            .map(|i| t(i, if i % 3 == 0 { 128 } else { 32 }))
            .collect();
        let search = GreedyGridSearch::new(&sim, 7);
        let unscaled = search2(&search, &tables, nshard_sim::DEFAULT_MEM_BYTES, 65_536).unwrap();
        let budgets = [nshard_sim::DEFAULT_MEM_BYTES; 2];
        let uniform = DevicePool::uniform(2, budgets[0]);
        let scaled = search
            .search_with_devices(&tables, 2, &budgets, Some(&uniform), 65_536)
            .unwrap();
        assert_eq!(scaled.device_of, unscaled.device_of);
        assert_eq!(
            scaled.estimated_cost_ms.to_bits(),
            unscaled.estimated_cost_ms.to_bits()
        );
        assert_eq!(scaled.max_dim_used, unscaled.max_dim_used);
        // Zero devices are no fleet, and are `Invalid`.
        assert!(matches!(
            search.search_with_devices(&tables, 0, &[], None, 65_536),
            Err(PlanError::Invalid { .. })
        ));
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
        let search = GreedyGridSearch::new(&sim, 0);
        let tables: Vec<TableConfig> = (0..8).map(|i| t(i, 32)).collect();
        let budgets = [nshard_sim::DEFAULT_MEM_BYTES; 2];
        // Device 1 is 100x slower: the allocator should load device 0
        // strictly more heavily than device 1.
        let slow = DevicePool::new(
            vec![
                DeviceProfile::new(budgets[0], 1.0, 0),
                DeviceProfile::new(budgets[1], 100.0, 0),
            ],
            1.0,
        );
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
    fn a_fleet_of_other_budgets_or_a_zero_budget_is_invalid() {
        let sim = sim(2);
        let search = GreedyGridSearch::new(&sim, 3);
        let other = DevicePool::uniform(2, 1 << 20);
        for (budgets, fleet) in [([1 << 30; 2], Some(&other)), ([1 << 30, 0], None)] {
            assert!(matches!(
                search.search_with_devices(&[t(0, 8)], 2, &budgets, fleet, 1024),
                Err(PlanError::Invalid { .. })
            ));
        }
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
