//! The benchmark's whole call surface into the repo's crates.
//!
//! No other file of this package names an item from `crates/*`: a change
//! that renames or deletes a public item is repaired here and nowhere else.
//! Configs are built with `..Default::default()` and no ablation knob,
//! blocking-I/O mode, scalar-budget search entry point, `nshard_core::pool`
//! re-export or reference GEMM is named, so the deletions ROADMAP item 2
//! plans do not have to touch this package.
//!
//! Thread counts are always explicit (never `0` = auto, never
//! `NSHARD_THREADS`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use nshard_baselines::{DimGreedy, LookupGreedy, SizeGreedy, SizeLookupGreedy};
use nshard_core::{
    evaluate_plan_exact, GreedyGridSearch, NeuroShard, NeuroShardConfig,
    ShardingAlgorithm, ShardingPlan,
};
use nshard_cost::{
    collect_comm_data, collect_compute_data, table_features, BundleReport, CollectConfig,
    CommCostModel, CommDataset, ComputeCostModel, ComputeDataset, CostModelBundle, CostSimulator,
    TableSetKey, TrainSettings,
};
use nshard_data::{ShardingTask, TablePool};
use nshard_nn::gemm::gemm_into;
use nshard_online::{IncrementalConfig, IncrementalPlanner, WorkloadDrift};
use nshard_serve::net::{ParseStep, RequestParser};
use nshard_serve::{
    HttpRequest, HttpResponse, KeepAliveClient, ObservationWire, PlanningEngine, ServeConfig,
    Server, Service,
};
use nshard_sim::{GpuSpec, TableProfile};
use serde::Deserialize;

/// Tables in the shared synthetic DLRM pool (the paper's pool size).
const POOL_TABLES: usize = 856;

/// The table pool every workload draws from.
pub struct Pool(TablePool);

impl Pool {
    pub fn build(seed: u64) -> Self {
        Self(TablePool::synthetic_dlrm(POOL_TABLES, seed))
    }
}

/// One sharding task.
#[derive(Clone)]
pub struct Task(ShardingTask);

impl Task {
    /// Samples a task with exactly `tables` tables by the paper's protocol
    /// (dimensions uniform over the powers of two up to `max_dim`).
    pub fn sample(pool: &Pool, gpus: usize, tables: usize, max_dim: u32, seed: u64) -> Self {
        Self(ShardingTask::sample(
            &pool.0,
            gpus,
            tables..=tables,
            max_dim,
            seed,
        ))
    }

    /// The same task one epoch into the standard drift trace.
    pub fn drifted(&self, seed: u64) -> Self {
        Self(WorkloadDrift::standard(self.0.clone(), seed).task_at(1))
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.0).expect("tasks serialize")
    }

    /// Bytes of all tables over the bytes all devices hold together.
    pub fn memory_fill(&self) -> f64 {
        self.0.total_bytes() as f64 / self.0.budgets().iter().sum::<u64>() as f64
    }

    fn profiles(&self) -> Vec<TableProfile> {
        self.0.profiles()
    }
}

/// One sharding plan, compared and digested through its JSON.
#[derive(Clone, PartialEq)]
pub struct Plan(ShardingPlan);

impl Plan {
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.0).expect("plans serialize")
    }
}

/// Checks a plan the way every workload must: structurally valid for the
/// task and memory-feasible on the ground-truth cluster. Returns the
/// ground-truth max-device cost in ms.
pub fn ground_truth_ms(task: &Task, plan: &Plan) -> Result<f64, String> {
    plan.0.validate(&task.0).map_err(|e| e.to_string())?;
    evaluate_plan_exact(&task.0, &plan.0, &GpuSpec::rtx_2080_ti())
        .map(|costs| costs.max_total_ms())
        .map_err(|e| e.to_string())
}

/// Ground-truth cost of the best feasible plan among the four greedy
/// baselines; `None` when all four run out of memory.
pub fn best_baseline_ms(task: &Task) -> Option<f64> {
    let baselines: [&dyn ShardingAlgorithm; 4] =
        [&SizeGreedy, &DimGreedy, &LookupGreedy, &SizeLookupGreedy];
    baselines
        .iter()
        .filter_map(|b| b.shard(&task.0).ok())
        .filter_map(|p| ground_truth_ms(task, &Plan(p)).ok())
        .min_by(f64::total_cmp)
}

/// Size of one pre-training run.
#[derive(Debug, Clone, Copy)]
pub struct PretrainSpec {
    pub gpus: usize,
    pub compute_samples: usize,
    pub comm_samples: usize,
    pub epochs: usize,
    pub threads: usize,
}

impl PretrainSpec {
    fn collect(&self) -> CollectConfig {
        CollectConfig {
            compute_samples: self.compute_samples,
            comm_samples: self.comm_samples,
            threads: self.threads,
            ..CollectConfig::default()
        }
    }

    fn train(&self) -> TrainSettings {
        TrainSettings {
            epochs: self.epochs,
            threads: self.threads,
            ..TrainSettings::default()
        }
    }

    /// Rows the trainer sees over all epochs of the three models.
    pub fn train_rows(&self) -> usize {
        (self.compute_samples + 2 * self.comm_samples) * self.epochs
    }
}

/// The three pre-trained cost models.
#[derive(Clone)]
pub struct Bundle(CostModelBundle);

impl Bundle {
    pub fn pretrain(pool: &Pool, spec: &PretrainSpec, seed: u64) -> Self {
        Self(CostModelBundle::pretrain(
            &pool.0,
            spec.gpus,
            &spec.collect(),
            &spec.train(),
            seed,
        ))
    }

    /// Held-out test MSE of the compute model, and the mean of the forward
    /// and backward communication models' (ms²).
    pub fn test_mses(&self) -> (f64, f64) {
        let r = self.0.report();
        (
            f64::from(r.compute_test_mse),
            f64::from(r.fwd_comm_test_mse + r.bwd_comm_test_mse) / 2.0,
        )
    }
}

/// The labelled datasets one pre-training run collects.
pub struct Labels {
    compute: ComputeDataset,
    comm: CommDataset,
}

/// The collection half of `Bundle::pretrain`, callable on its own so the
/// traced run can time it apart from training. Same seeds as the crate.
pub fn collect_labels(pool: &Pool, spec: &PretrainSpec, seed: u64) -> Labels {
    let gpu = GpuSpec::rtx_2080_ti();
    let config = spec.collect();
    Labels {
        compute: collect_compute_data(&pool.0, gpu.kernel(), &config, seed),
        comm: collect_comm_data(&pool.0, gpu.comm(), spec.gpus, &config, seed ^ 0x1234),
    }
}

/// The training half of `Bundle::pretrain`: the three `train` calls.
pub fn fit_models(labels: &Labels, spec: &PretrainSpec, seed: u64) -> Bundle {
    let settings = spec.train();
    let mut compute = ComputeCostModel::new(seed);
    let compute_report = compute.train(&labels.compute, &settings, seed ^ 0x1);
    let mut fwd = CommCostModel::new(spec.gpus, seed ^ 0x2);
    let fwd_report = fwd.train(&labels.comm.forward, &settings, seed ^ 0x3);
    let mut bwd = CommCostModel::new(spec.gpus, seed ^ 0x4);
    let bwd_report = bwd.train(&labels.comm.backward, &settings, seed ^ 0x5);
    let report = BundleReport {
        compute_test_mse: compute_report.test_mse,
        fwd_comm_test_mse: fwd_report.test_mse,
        bwd_comm_test_mse: bwd_report.test_mse,
        compute_samples: spec.compute_samples,
        comm_samples: spec.comm_samples,
    };
    Bundle(CostModelBundle::from_parts(
        compute,
        fwd,
        bwd,
        spec.collect().batch_size,
        report,
    ))
}

/// What one search reports besides its plan. The cache counters are exact
/// at one thread; concurrent misses on one key can shift a few between
/// hits and misses at two.
pub struct Searched {
    pub plan: Plan,
    pub evaluated_plans: usize,
    pub lookups: u64,
    pub misses: u64,
    pub candidate_hit_rate: f64,
    pub inner_hit_rate: f64,
    pub cache_entries: usize,
}

/// The library sharder with a fresh prediction cache.
pub struct Searcher(NeuroShard);

impl Searcher {
    /// `NeuroShard::new` including the bundle clone and panel packing.
    pub fn build(bundle: &Bundle, threads: usize) -> Self {
        Self(NeuroShard::new(
            bundle.0.clone(),
            NeuroShardConfig {
                threads,
                ..NeuroShardConfig::default()
            },
        ))
    }

    pub fn search(&self, task: &Task) -> Result<Searched, String> {
        let before = self.0.simulator().cache().stats();
        let outcome = self
            .0
            .shard_with_stats(&task.0)
            .map_err(|e| e.to_string())?;
        let delta = self.0.simulator().cache().stats().since(&before);
        Ok(Searched {
            plan: Plan(outcome.plan),
            evaluated_plans: outcome.evaluated_plans,
            lookups: delta.total(),
            misses: delta.misses,
            candidate_hit_rate: outcome.phase_stats.candidate.hit_rate(),
            inner_hit_rate: outcome.phase_stats.inner.hit_rate(),
            cache_entries: self.0.simulator().cache().len(),
        })
    }
}

/// A cost simulator with its own prediction cache.
pub struct Scorer(CostSimulator);

impl Scorer {
    pub fn cold(bundle: &Bundle) -> Self {
        Self(CostSimulator::new(bundle.0.clone()))
    }

    /// Scores every set once, `batch` sets per call — the greedy probe asks
    /// for one candidate set per device at a time — and returns the time
    /// spent inside the calls.
    pub fn score_sets(&self, sets: &TableSets, batch: usize) -> Duration {
        let keyed: Vec<(TableSetKey, &[TableProfile])> =
            sets.0.iter().map(|(k, s)| (*k, s.as_slice())).collect();
        let start = Instant::now();
        for chunk in keyed.chunks(batch) {
            std::hint::black_box(self.0.device_compute_cost_batch(chunk));
        }
        start.elapsed()
    }

    /// Whole-plan estimate, the way `online` and `serve` use the layer.
    pub fn estimate_plan_ms(&self, task: &Task, plan: &Plan) -> f64 {
        self.0
            .estimate_plan(&plan.0.device_profiles(task.0.batch_size()))
            .total_ms()
    }

    /// One inner greedy-grid search on the unsplit task, one thread.
    pub fn greedy_grid(&self, task: &Task) -> Result<f64, String> {
        GreedyGridSearch::new(&self.0, NeuroShardConfig::default().m)
            .with_threads(1)
            .search_with_devices(
                task.0.tables(),
                task.0.num_devices(),
                &task.0.budgets(),
                None,
                task.0.batch_size(),
            )
            .map(|r| r.estimated_cost_ms)
            .map_err(|e| e.to_string())
    }
}

/// Keyed table sets for the scoring probes.
pub struct TableSets(Vec<(TableSetKey, Vec<TableProfile>)>);

/// Tables per probe set: about what one device holds mid-search.
const PROBE_SET_TABLES: usize = 8;

impl TableSets {
    /// `count` sets cut from the tables of freshly sampled tasks.
    pub fn sample(pool: &Pool, gpus: usize, count: usize, seed: u64) -> Self {
        let tables: Vec<TableProfile> = (0..count)
            .flat_map(|i| {
                Task::sample(
                    pool,
                    gpus,
                    PROBE_SET_TABLES,
                    128,
                    seed.wrapping_add(i as u64),
                )
                .profiles()
            })
            .collect();
        Self::cut(&tables)
    }

    /// The same tables grouped into different sets: a simulator that scored
    /// `self` has every table's encoding but none of these predictions, as
    /// in a search, where the same tables keep meeting in new combinations.
    /// `shift` in `1..PROBE_SET_TABLES` picks one of the regroupings.
    pub fn regrouped(&self, shift: usize) -> Self {
        let mut tables: Vec<TableProfile> = self.0.iter().flat_map(|(_, s)| s.clone()).collect();
        tables.rotate_left(shift % PROBE_SET_TABLES);
        Self::cut(&tables)
    }

    fn cut(tables: &[TableProfile]) -> Self {
        Self(
            tables
                .chunks_exact(PROBE_SET_TABLES)
                .map(|s| (TableSetKey::of(s), s.to_vec()))
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Times `predict_batch` of the compute model over `sets`; returns the
/// elapsed time and the table rows pushed through the encoder.
pub fn time_forward(bundle: &Bundle, sets: &TableSets) -> (Duration, usize) {
    let batch = bundle.0.batch_size();
    let features: Vec<Vec<Vec<f32>>> = sets
        .0
        .iter()
        .map(|(_, s)| s.iter().map(|t| table_features(t, batch)).collect())
        .collect();
    let rows = features.iter().map(Vec::len).sum();
    let start = Instant::now();
    std::hint::black_box(bundle.0.compute_model().predict_batch(&features));
    (start.elapsed(), rows)
}

/// Times `gemm_into` on the compute model's three layer shapes at a batch
/// of 256 rows; returns the elapsed time and the floating-point operations
/// computed as 2·m·k·n.
pub fn time_gemm(repeats: usize) -> (Duration, f64) {
    const ROWS: usize = 256;
    const SHAPES: [(usize, usize); 3] = [(8, 128), (128, 32), (32, 64)];
    let mut elapsed = Duration::ZERO;
    let mut flops = 0.0;
    for (k, n) in SHAPES {
        let a: Vec<f32> = (0..ROWS * k)
            .map(|i| (i % 17) as f32 * 0.25 - 2.0)
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.125 - 0.75).collect();
        let mut out = vec![0.0f32; ROWS * n];
        let start = Instant::now();
        for _ in 0..repeats {
            gemm_into(std::hint::black_box(&a), &b, ROWS, k, n, &mut out);
            std::hint::black_box(&mut out);
        }
        elapsed += start.elapsed();
        flops += (2 * ROWS * k * n * repeats) as f64;
    }
    (elapsed, flops)
}

/// What one incremental replan reports.
pub struct Replanned {
    pub plan: Plan,
    pub evaluated_plans: usize,
    pub migration_bytes: u64,
}

/// Warm-started replan around `incumbent`, one thread.
pub fn replan(scorer: &Scorer, task: &Task, incumbent: &Plan) -> Result<Replanned, String> {
    IncrementalPlanner::new(IncrementalConfig {
        threads: 1,
        ..IncrementalConfig::default()
    })
    .replan(&scorer.0, &task.0, &incumbent.0)
    .map(|out| Replanned {
        evaluated_plans: out.evaluated_plans,
        migration_bytes: out.delta.migration_bytes,
        plan: Plan(out.plan),
    })
    .map_err(|e| e.to_string())
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        search: NeuroShardConfig {
            threads: 1,
            ..NeuroShardConfig::default()
        },
        incremental: IncrementalConfig {
            threads: 1,
            ..IncrementalConfig::default()
        },
        workers: 2,
        response_cache_entries: 1024,
        ..ServeConfig::default()
    }
}

/// The daemon, in-process on an ephemeral loopback port: default event
/// I/O, two workers, one search thread, memory-only store.
pub struct Daemon(Server);

impl Daemon {
    pub fn start(bundle: &Bundle) -> Result<Self, String> {
        let service = Service::new(bundle.0.clone(), serve_config()).map_err(|e| e.to_string())?;
        Server::start(Arc::new(service), "127.0.0.1:0")
            .map(Self)
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// The same request without the socket: straight into the service's
    /// router, answered by the daemon's own workers.
    pub fn route(&self, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let response = self.0.service().handle_blocking(&HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
            body: body.to_vec(),
        });
        (
            response.status,
            String::from_utf8_lossy(&response.body).into_owned(),
        )
    }

    pub fn metrics_text(&self) -> String {
        self.0.service().render_metrics()
    }

    /// Stops the reactor and joins every worker.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// One keep-alive HTTP connection.
pub struct Client(KeepAliveClient);

impl Client {
    pub fn new(addr: &str) -> Self {
        Self(KeepAliveClient::new(addr))
    }

    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
        self.0.call(method, path, body).map_err(|e| e.to_string())
    }

    pub fn reconnects(&self) -> u64 {
        self.0.reconnects()
    }
}

/// The planning engine without the service around it.
pub struct Engine(PlanningEngine);

impl Engine {
    pub fn build(bundle: &Bundle) -> Self {
        let config = serve_config();
        Self(PlanningEngine::new(
            bundle.0.clone(),
            config.search,
            config.incremental,
            config.seed,
        ))
    }

    pub fn plan(&self, task: &Task) -> Result<Plan, String> {
        self.0
            .plan(&task.0, false)
            .map(|out| Plan(out.plan))
            .map_err(|e| e.to_string())
    }
}

/// The fields of a `POST /v1/plan` response the benchmark checks.
#[derive(Deserialize)]
struct PlanReply {
    id: String,
    degraded: bool,
    plan: ShardingPlan,
}

/// Parses a plan response into `(id, degraded, plan)`.
pub fn parse_plan_reply(body: &str) -> Result<(String, bool, Plan), String> {
    let reply: PlanReply = serde_json::from_str(body).map_err(|e| e.to_string())?;
    Ok((reply.id, reply.degraded, Plan(reply.plan)))
}

#[derive(Deserialize)]
struct ReplanReply {
    evaluated_plans: u64,
    migration_bytes: u64,
    incremental: bool,
    plan: ShardingPlan,
}

/// Parses a replan response; fails unless the incremental planner made it.
pub fn parse_replan_reply(body: &str) -> Result<Replanned, String> {
    let reply: ReplanReply = serde_json::from_str(body).map_err(|e| e.to_string())?;
    if !reply.incremental {
        return Err("replan fell back to a full search".to_string());
    }
    Ok(Replanned {
        plan: Plan(reply.plan),
        evaluated_plans: reply.evaluated_plans as usize,
        migration_bytes: reply.migration_bytes,
    })
}

/// A `POST /v1/observations` body: one compute observation per table of
/// `task`, with made-up costs (the daemon only buffers them).
pub fn observations_body(task: &Task) -> String {
    let batch = task.0.batch_size();
    let observations: Vec<ObservationWire> = task
        .0
        .profiles()
        .iter()
        .enumerate()
        .map(|(i, t)| ObservationWire {
            kind: "compute".to_string(),
            features: vec![table_features(t, batch)],
            predicted_ms: 1.0 + i as f64 * 0.125,
            observed_ms: 1.25 + i as f64 * 0.125,
        })
        .collect();
    format!(
        "{{\"observations\":{}}}",
        serde_json::to_string(&observations).expect("observations serialize")
    )
}

/// Times the incremental HTTP parser on one complete request.
pub fn time_parse(request: &[u8]) -> Result<Duration, String> {
    let mut parser = RequestParser::new();
    let start = Instant::now();
    parser.feed(std::hint::black_box(request));
    let step = parser.step();
    let elapsed = start.elapsed();
    match step {
        ParseStep::Request(_) => Ok(elapsed),
        other => Err(format!("request did not parse: {other:?}")),
    }
}

/// Times serialising a JSON response with `body` to wire bytes.
pub fn time_serialize(body: &str) -> Duration {
    let response = HttpResponse::json(200, body.to_string());
    let start = Instant::now();
    std::hint::black_box(response.to_bytes(true));
    start.elapsed()
}
