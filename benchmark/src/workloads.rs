//! The four workloads: set-up → warm-up → timed phase → verification.
//!
//! Every workload is a seeded op list of fixed length (fixed work, not
//! fixed time): `--seconds` only scales the length through the op rate
//! frozen below, so counts, quality and digests repeat exactly for a seed
//! and only clocks vary. No op list repeats a task, so that a run averages
//! over as many distinct inputs as it has ops and two seeds give workloads
//! of the same difficulty.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::scrape;
use crate::script::{script, splitmix64, Class, ScriptOp, BLOCK};
use crate::stats;
use crate::surface::{
    best_baseline_ms, ground_truth_ms, observations_body, parse_plan_reply, parse_replan_reply,
    Bundle, Client, Daemon, Plan, Pool, PretrainSpec, Searcher, Task,
};
use crate::trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pretrain,
    SearchNarrow,
    SearchWide,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pretrain,
        Workload::SearchNarrow,
        Workload::SearchWide,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pretrain => "pretrain",
            Workload::SearchNarrow => "search_narrow",
            Workload::SearchWide => "search_wide",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed ops per second of `--seconds`, frozen at the commit that
    /// defined the benchmark so that the timed phase lasts about
    /// `--seconds` on the 2-core reference host. A faster program finishes
    /// the same list sooner; the list does not grow.
    fn ops_per_second(self) -> f64 {
        match self {
            Workload::Pretrain => 2.9,
            Workload::SearchNarrow => 12.7,
            Workload::SearchWide => 2.5,
            Workload::ServeMixed => 156.0,
        }
    }

    /// Timed ops for a run of `seconds`; `serve_mixed` rounds to whole
    /// blocks on both connections.
    pub fn timed_ops(self, seconds: f64) -> usize {
        let ops = (self.ops_per_second() * seconds).round().max(1.0) as usize;
        match self {
            Workload::ServeMixed => {
                let per_round = SERVE_CLIENTS * BLOCK.len();
                ops.div_ceil(per_round) * per_round
            }
            _ => ops,
        }
    }
}

/// Connections of `serve_mixed`, each a caller that waits for every reply.
const SERVE_CLIENTS: usize = 2;

/// A failed op counts at this latency: the daemon's default deadline.
pub const LATENCY_CEILING_MS: f64 = 30_000.0;

/// The timed phase stops early past this multiple of `--seconds`, so a
/// host far slower than the reference still ends inside the run cap. The
/// run is then reported as incorrect: its counts are not the fixed ones.
const OVERRUN_FACTOR: f64 = 3.0;

/// The op of the `pretrain` workload. One thread, not the two the set-up
/// bundle uses: the trainer forks and joins once per mini-batch, and on a
/// 2-vCPU host a join has no spare core to absorb a stolen time slice —
/// at two threads this workload's quartiles were up to 33% apart over ten
/// seeds, against 20% for the one-thread search.
pub const PRETRAIN_OP: PretrainSpec = PretrainSpec {
    gpus: 4,
    compute_samples: 1200,
    comm_samples: 900,
    epochs: 6,
    threads: 1,
};

/// The bundle the search and serve workloads pre-train during set-up.
pub fn setup_bundle_spec(gpus: usize) -> PretrainSpec {
    PretrainSpec {
        gpus,
        compute_samples: 2000,
        comm_samples: 1500,
        epochs: 10,
        threads: 2,
    }
}

/// Recorded caps on the `pretrain` test MSEs (ms²): several times what any
/// seed produced when the benchmark was defined, so they catch a trainer
/// that stopped learning, not noise.
pub const COMPUTE_MSE_CAP: f64 = 400.0;
pub const COMM_MSE_CAP: f64 = 1000.0;

/// Shape of a search task list.
#[derive(Debug, Clone, Copy)]
pub struct TaskShape {
    pub gpus: usize,
    pub min_tables: usize,
    pub max_tables: usize,
    pub threads: usize,
    pub warmup_ops: usize,
}

pub const NARROW: TaskShape = TaskShape {
    gpus: 4,
    min_tables: 20,
    max_tables: 40,
    threads: 1,
    warmup_ops: 4,
};

pub const WIDE: TaskShape = TaskShape {
    gpus: 8,
    min_tables: 48,
    max_tables: 64,
    threads: 2,
    warmup_ops: 4,
};

/// Plan-miss tasks of `serve_mixed`.
pub const SERVE_TASKS: TaskShape = TaskShape {
    gpus: 4,
    min_tables: 12,
    max_tables: 16,
    threads: 1,
    warmup_ops: 100,
};

/// Plan quality of the `pretrain` workload: each of the first bundles
/// searches its own held-out narrow tasks. One bundle and eight tasks, as
/// first specified, moved the geometric mean by several percent from seed
/// to seed; a bundle's luck weighs more than a task's, so the searches are
/// spread over many bundles.
const PRETRAIN_QUALITY_BUNDLES: usize = 16;
const PRETRAIN_QUALITY_TASKS: usize = 4;
const PRETRAIN_WARMUP_OPS: usize = 2;

const MAX_DIM: u32 = 128;

/// Largest share of the cluster's memory a generated task's tables may
/// fill. Past a quarter the greedy baselines start to run out of memory
/// (on a fifth of the wide tasks all four did), and the few such tasks a
/// list holds then decide its `cost_vs_baseline`: their ratios scatter five
/// times as widely as the others'.
const MAX_MEMORY_FILL: f64 = 0.25;

/// Seed streams: one generator never reuses another's seeds.
const TASK_STREAM: u64 = 1;
const PRETRAIN_STREAM: u64 = 2;
const SCRIPT_STREAM: u64 = 3;
const DRIFT_STREAM: u64 = 4;
pub const PROBE_STREAM: u64 = 5;

/// The seed of item `index` of generator `stream` under run seed `seed`.
/// Hashed, not xor-ed: neighbouring run seeds share no inputs.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = seed;
    let mut state = splitmix64(&mut state) ^ stream;
    let mut state = splitmix64(&mut state) ^ index;
    splitmix64(&mut state)
}

impl TaskShape {
    /// Task `index` of the list: table counts cycle through the range so
    /// every seed gets the same mix of sizes, and only which tables and
    /// which dimensions depends on the seed.
    ///
    /// A draw whose tables fill more than [`MAX_MEMORY_FILL`] of the
    /// cluster is drawn again (a quarter of the wide draws, few of the
    /// others): the pool holds a few tables so large that a task can
    /// outgrow all devices together, and no workload may contain an op
    /// that has to fail.
    pub fn task(&self, pool: &Pool, seed: u64, index: usize) -> Task {
        let span = self.max_tables - self.min_tables + 1;
        let base = derive(seed, TASK_STREAM, ((self.gpus as u64) << 32) | index as u64);
        (0u64..)
            .map(|redraw| {
                Task::sample(
                    pool,
                    self.gpus,
                    self.min_tables + index % span,
                    MAX_DIM,
                    derive(base, TASK_STREAM, redraw),
                )
            })
            .find(|task| task.memory_fill() <= MAX_MEMORY_FILL)
            .expect("most draws fit")
    }

    pub fn tasks(&self, pool: &Pool, seed: u64, range: std::ops::Range<usize>) -> Vec<Task> {
        range.map(|i| self.task(pool, seed, i)).collect()
    }
}

/// Attempted and failed ops of one request class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCount {
    pub label: &'static str,
    pub attempted: usize,
    pub failed: usize,
}

/// Everything one untraced run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: f64,
    pub timed_s: f64,
    pub clients: usize,
    /// One entry per attempted op; a failed op sits at the ceiling.
    pub latencies_ms: Vec<f64>,
    pub classes: Vec<ClassCount>,
    pub cost_vs_baseline: f64,
    /// Tasks with at least one feasible baseline, of the tasks compared.
    pub compared_tasks: (usize, usize),
    pub plans_digest: u64,
    /// Output checks that failed; empty on a correct run.
    pub errors: Vec<String>,
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn attempted(&self) -> usize {
        self.classes.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.classes.iter().map(|c| c.failed).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted() as f64 / self.timed_s
    }
}

/// FNV-1a over byte strings fed in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The plan checks and the plan-quality numbers of one run.
pub struct Quality {
    digest: Digest,
    /// Ground-truth cost of a plan, and of the best feasible baseline.
    pairs: Vec<(f64, Option<f64>)>,
}

impl Quality {
    pub fn new() -> Self {
        Self {
            digest: Digest::new(),
            pairs: Vec::new(),
        }
    }

    /// Checks `plan` against `task` and adds it to the digest; with
    /// `compare`, also sets its cost against the greedy baselines.
    pub fn record(&mut self, task: &Task, plan: &Plan, compare: bool) -> Result<(), String> {
        let cost = ground_truth_ms(task, plan)?;
        self.digest.eat(plan.to_json().as_bytes());
        if compare {
            self.pairs.push((cost, best_baseline_ms(task)));
        }
        Ok(())
    }

    /// Geometric mean of plan cost over the best feasible baseline, over
    /// the compared tasks that have one, and how many of them do.
    fn cost_vs_baseline(&self) -> (f64, (usize, usize)) {
        let ratios: Vec<f64> = self
            .pairs
            .iter()
            .filter_map(|&(cost, base)| base.map(|b| cost / b))
            .collect();
        let value = if ratios.is_empty() {
            f64::NAN
        } else {
            stats::geo_mean(&ratios)
        };
        (value, (ratios.len(), self.pairs.len()))
    }
}

fn deadline(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * OVERRUN_FACTOR)
}

fn overrun_error(done: usize, planned: usize) -> String {
    format!("timed phase overran {OVERRUN_FACTOR}x --seconds after {done} of {planned} ops")
}

// ---------------------------------------------------------------- pretrain

pub fn run_pretrain(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ops = Workload::Pretrain.timed_ops(seconds);
    let op_seed = |i: usize| derive(seed, PRETRAIN_STREAM, i as u64);
    let setup = Instant::now();
    let pool = Pool::build(seed);
    for i in 0..PRETRAIN_WARMUP_OPS {
        Bundle::pretrain(&pool, &PRETRAIN_OP, op_seed(ops + i));
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut bundles = Vec::with_capacity(ops);
    let mut latencies_ms = Vec::with_capacity(ops);
    let mut errors = Vec::new();
    let start = Instant::now();
    for i in 0..ops {
        let op_start = Instant::now();
        bundles.push(Bundle::pretrain(&pool, &PRETRAIN_OP, op_seed(i)));
        latencies_ms.push(ms(op_start.elapsed()));
        if start.elapsed() > deadline(seconds) {
            errors.push(overrun_error(i + 1, ops));
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let mut failed = 0;
    let (mut worst_compute, mut worst_comm) = (0.0f64, 0.0f64);
    for (i, bundle) in bundles.iter().enumerate() {
        let (compute, comm) = bundle.test_mses();
        worst_compute = worst_compute.max(compute);
        worst_comm = worst_comm.max(comm);
        let finite_and_capped = compute.is_finite()
            && comm.is_finite()
            && compute <= COMPUTE_MSE_CAP
            && comm <= COMM_MSE_CAP;
        if !finite_and_capped {
            failed += 1;
            latencies_ms[i] = LATENCY_CEILING_MS;
            errors.push(format!(
                "op {i}: test MSE compute {compute} / comm {comm} not finite or over the cap"
            ));
        }
    }

    // Quality: held-out tasks searched with the first ops' bundles.
    let mut quality = Quality::new();
    for (b, bundle) in bundles.iter().take(PRETRAIN_QUALITY_BUNDLES).enumerate() {
        let held_out = b * PRETRAIN_QUALITY_TASKS..(b + 1) * PRETRAIN_QUALITY_TASKS;
        for (i, task) in NARROW
            .tasks(&pool, derive(seed, PRETRAIN_STREAM, u64::MAX), held_out)
            .iter()
            .enumerate()
        {
            let searched = Searcher::build(bundle, 1).search(task);
            if let Err(e) = searched.and_then(|s| quality.record(task, &s.plan, true)) {
                errors.push(format!("bundle {b} held-out task {i}: {e}"));
            }
        }
    }
    let (cost_vs_baseline, compared_tasks) = quality.cost_vs_baseline();

    Ok(Outcome {
        setup_s,
        timed_s,
        clients: 1,
        classes: vec![ClassCount {
            label: "pretrain",
            attempted: latencies_ms.len(),
            failed,
        }],
        latencies_ms,
        cost_vs_baseline,
        compared_tasks,
        plans_digest: quality.digest.value(),
        errors,
        facts: vec![
            (
                "worst_compute_test_mse",
                format!("{worst_compute:.4} (cap {COMPUTE_MSE_CAP})"),
            ),
            (
                "worst_comm_test_mse",
                format!("{worst_comm:.4} (cap {COMM_MSE_CAP})"),
            ),
        ],
    })
}

// ------------------------------------------------------------------ search

/// One library search op: build a sharder (fresh cache) and search a task.
pub fn search_op(
    tracer: &mut Tracer,
    op_id: u64,
    bundle: &Bundle,
    threads: usize,
    task: &Task,
) -> Result<crate::surface::Searched, String> {
    tracer.span("op", op_id, |t| {
        let searcher = t.span("core.build", op_id, |_| Searcher::build(bundle, threads));
        t.span("core.search", op_id, |_| searcher.search(task))
    })
}

pub fn run_search(
    shape: &TaskShape,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let ops = workload.timed_ops(seconds);
    let setup = Instant::now();
    let pool = Pool::build(seed);
    let bundle = Bundle::pretrain(&pool, &setup_bundle_spec(shape.gpus), seed);
    let tasks = shape.tasks(&pool, seed, 0..ops);
    let mut off = Tracer::off();
    for task in shape.tasks(&pool, seed, ops..ops + shape.warmup_ops) {
        search_op(&mut off, 0, &bundle, shape.threads, &task)?;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut results = Vec::with_capacity(ops);
    let mut latencies_ms = Vec::with_capacity(ops);
    let mut errors = Vec::new();
    let start = Instant::now();
    for (i, task) in tasks.iter().enumerate() {
        let op_start = Instant::now();
        results.push(search_op(&mut off, i as u64, &bundle, shape.threads, task));
        latencies_ms.push(ms(op_start.elapsed()));
        if start.elapsed() > deadline(seconds) {
            errors.push(overrun_error(i + 1, ops));
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let mut failed = 0;
    let mut quality = Quality::new();
    for (i, (task, result)) in tasks.iter().zip(results).enumerate() {
        if let Err(e) = result.and_then(|s| quality.record(task, &s.plan, true)) {
            failed += 1;
            latencies_ms[i] = LATENCY_CEILING_MS;
            errors.push(format!("op {i}: {e}"));
        }
    }
    let (cost_vs_baseline, compared_tasks) = quality.cost_vs_baseline();

    Ok(Outcome {
        setup_s,
        timed_s,
        clients: 1,
        classes: vec![ClassCount {
            label: "search",
            attempted: latencies_ms.len(),
            failed,
        }],
        latencies_ms,
        cost_vs_baseline,
        compared_tasks,
        plans_digest: quality.digest.value(),
        errors,
        facts: vec![("search_threads", shape.threads.to_string())],
    })
}

// ------------------------------------------------------------- serve_mixed

/// One connection's requests, ready to send except for the plan ids only
/// the daemon's replies reveal.
pub struct Connection {
    ops: Vec<ScriptOp>,
    /// Per plan-miss: the task, its `POST /v1/plan` body, the replan body
    /// up to the incumbent id, and the observations body.
    misses: Vec<MissInputs>,
}

struct MissInputs {
    task: Task,
    drifted: Task,
    plan_body: String,
    replan_prefix: String,
    observe_body: String,
}

/// What came back for one op.
pub struct Reply {
    pub class: Class,
    pub miss_index: usize,
    pub latency_ms: f64,
    pub status: u16,
    pub body: String,
}

impl Connection {
    /// The script of `blocks` blocks for connection `conn` with every body
    /// that does not depend on a reply already serialised.
    pub fn prepare(pool: &Pool, seed: u64, conn: usize, blocks: usize) -> Self {
        let ops = script(blocks, derive(seed, SCRIPT_STREAM, conn as u64));
        let misses = (0..2 * blocks)
            .map(|i| {
                // Odd/even task indices keep the two connections' tasks apart.
                let index = i * SERVE_CLIENTS + conn;
                let task = SERVE_TASKS.task(pool, seed, index);
                let drifted = task.drifted(derive(seed, DRIFT_STREAM, index as u64));
                MissInputs {
                    plan_body: format!("{{\"task\":{}}}", task.to_json()),
                    replan_prefix: format!(
                        "{{\"task\":{},\"adopt\":false,\"incumbent_id\":\"",
                        drifted.to_json()
                    ),
                    observe_body: observations_body(&task),
                    task,
                    drifted,
                }
            })
            .collect();
        Self { ops, misses }
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Sends ops `range` in order, each after the previous reply. Replies
    /// to plan-misses are remembered in `ids` for the ops that need them.
    pub fn replay(
        &self,
        client: &mut Client,
        tracer: &mut Tracer,
        ids: &mut Vec<String>,
        range: std::ops::Range<usize>,
        give_up_after: Duration,
    ) -> Vec<Reply> {
        let start = Instant::now();
        let mut replies = Vec::with_capacity(range.len());
        for index in range {
            let op = self.ops[index];
            let inputs = &self.misses[op.miss_index];
            let known_id = || ids.get(op.miss_index).cloned().unwrap_or_default();
            let (method, path, body) = match op.class {
                Class::PlanMiss | Class::PlanHit => {
                    ("POST", "/v1/plan".to_string(), inputs.plan_body.clone())
                }
                Class::Replan => (
                    "POST",
                    "/v1/replan".to_string(),
                    format!("{}{}\"}}", inputs.replan_prefix, known_id()),
                ),
                Class::Get => ("GET", format!("/v1/plans/{}", known_id()), String::new()),
                Class::Observe => (
                    "POST",
                    "/v1/observations".to_string(),
                    inputs.observe_body.clone(),
                ),
            };
            let op_start = Instant::now();
            let result = tracer.span("op", index as u64, |t| {
                t.span(span_name(op.class), index as u64, |_| {
                    client.call(method, &path, body.as_bytes())
                })
            });
            let latency_ms = ms(op_start.elapsed());
            let (status, body) = result.unwrap_or_else(|e| (0, e));
            if op.class == Class::PlanMiss {
                // A failed miss leaves an empty id; its dependants then fail
                // with 404s of their own and are counted.
                ids.push(plan_id_of(&body).to_string());
            }
            replies.push(Reply {
                class: op.class,
                miss_index: op.miss_index,
                latency_ms,
                status,
                body,
            });
            if start.elapsed() > give_up_after {
                break;
            }
        }
        replies
    }

    /// Checks every reply of this connection's timed phase; returns one
    /// error per failed op (by position in `replies`), digests every plan
    /// and compares the plan-miss ones with the baselines. `warm_up`
    /// supplies the plan-miss bodies hits may refer back to.
    pub fn verify(
        &self,
        warm_up: &[Reply],
        replies: &[Reply],
        quality: &mut Quality,
    ) -> Vec<(usize, String)> {
        let mut miss_bodies: Vec<Option<&str>> = vec![None; self.misses.len()];
        for reply in warm_up.iter().filter(|r| r.class == Class::PlanMiss) {
            miss_bodies[reply.miss_index] = Some(&reply.body);
        }
        let mut failures = Vec::new();
        for (at, reply) in replies.iter().enumerate() {
            let inputs = &self.misses[reply.miss_index];
            let mut check = || -> Result<(), String> {
                if reply.status != 200 {
                    return Err(format!("status {}: {}", reply.status, reply.body));
                }
                match reply.class {
                    Class::PlanMiss => {
                        let (_, degraded, plan) = parse_plan_reply(&reply.body)?;
                        if degraded {
                            return Err("degraded plan".to_string());
                        }
                        quality.record(&inputs.task, &plan, true)
                    }
                    Class::PlanHit => match miss_bodies[reply.miss_index] {
                        Some(miss) if miss == reply.body => Ok(()),
                        Some(_) => Err("hit body differs from the miss that made it".to_string()),
                        None => Err("hit without a completed miss".to_string()),
                    },
                    Class::Replan => {
                        let replanned = parse_replan_reply(&reply.body)?;
                        quality.record(&inputs.drifted, &replanned.plan, false)
                    }
                    Class::Get | Class::Observe => Ok(()),
                }
            };
            match check() {
                Ok(()) if reply.class == Class::PlanMiss => {
                    miss_bodies[reply.miss_index] = Some(&reply.body);
                }
                Ok(()) => {}
                Err(e) => failures.push((at, format!("{} op {at}: {e}", reply.class.label()))),
            }
        }
        failures
    }
}

/// The `id` of a plan response, without parsing the whole body inside the
/// closed loop; empty when the reply is not a plan.
fn plan_id_of(body: &str) -> &str {
    body.strip_prefix("{\"id\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_default()
}

fn span_name(class: Class) -> &'static str {
    match class {
        Class::PlanMiss => "serve.miss",
        Class::Replan => "serve.replan",
        Class::PlanHit => "serve.hit",
        Class::Get => "serve.get",
        Class::Observe => "serve.observe",
    }
}

/// A booted daemon with its connections warmed up and ready for the timed
/// phase.
pub struct ServeRig {
    pub daemon: Daemon,
    pub connections: Vec<Connection>,
    pub clients: Vec<Client>,
    pub ids: Vec<Vec<String>>,
    pub warm_up: Vec<Vec<Reply>>,
}

impl ServeRig {
    /// Pool, set-up pre-train, daemon boot, request bodies, warm-up ops.
    pub fn boot(pool: &Pool, bundle: &Bundle, seed: u64, timed_ops: usize) -> Result<Self, String> {
        let per_round = SERVE_CLIENTS * BLOCK.len();
        let warm_blocks = SERVE_TASKS.warmup_ops.div_ceil(per_round);
        let blocks = warm_blocks + timed_ops.div_ceil(per_round);
        let daemon = Daemon::start(bundle)?;
        let connections: Vec<Connection> = (0..SERVE_CLIENTS)
            .map(|conn| Connection::prepare(pool, seed, conn, blocks))
            .collect();
        let mut clients: Vec<Client> = (0..SERVE_CLIENTS)
            .map(|_| Client::new(&daemon.addr()))
            .collect();
        let mut ids = vec![Vec::new(); SERVE_CLIENTS];
        let mut warm_up = Vec::with_capacity(SERVE_CLIENTS);
        for ((connection, client), ids) in connections.iter().zip(&mut clients).zip(&mut ids) {
            let replies = connection.replay(
                client,
                &mut Tracer::off(),
                ids,
                0..warm_blocks * BLOCK.len(),
                Duration::from_secs(60),
            );
            if let Some(bad) = replies.iter().find(|r| r.status != 200) {
                return Err(format!("warm-up op answered {}: {}", bad.status, bad.body));
            }
            warm_up.push(replies);
        }
        Ok(Self {
            daemon,
            connections,
            clients,
            ids,
            warm_up,
        })
    }

    /// The timed phase: every connection replays its remaining ops from its
    /// own thread, closed-loop, all starting together. Returns the replies
    /// per connection, each thread's spans, and the wall time.
    pub fn replay_all(
        &mut self,
        traced: Option<Instant>,
        give_up_after: Duration,
    ) -> (Vec<Vec<Reply>>, Vec<Tracer>, f64) {
        let barrier = Barrier::new(SERVE_CLIENTS + 1);
        let mut wall = 0.0;
        let mut results = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .connections
                .iter()
                .zip(&self.warm_up)
                .zip(&mut self.clients)
                .zip(&mut self.ids)
                .map(|(((connection, warm_up), client), ids)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut tracer = match traced {
                            Some(origin) => Tracer::new(origin, true),
                            None => Tracer::off(),
                        };
                        barrier.wait();
                        let replies = connection.replay(
                            client,
                            &mut tracer,
                            ids,
                            warm_up.len()..connection.len(),
                            give_up_after,
                        );
                        (replies, tracer)
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            results = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            wall = start.elapsed().as_secs_f64();
        });
        let (replies, tracers) = results.into_iter().unzip();
        (replies, tracers, wall)
    }
}

/// Verifies every connection's timed replies. Returns the attempted and
/// failed counts per class and one error per failed op, placed by the op's
/// position among all replies (connection after connection).
pub fn verify_all(
    connections: &[Connection],
    warm_up: &[Vec<Reply>],
    replies: &[Vec<Reply>],
    quality: &mut Quality,
) -> (Vec<ClassCount>, Vec<(usize, String)>) {
    let mut failures = Vec::new();
    let mut base = 0;
    for ((connection, warm_up), replies) in connections.iter().zip(warm_up).zip(replies) {
        let failed = connection.verify(warm_up, replies, quality);
        failures.extend(failed.into_iter().map(|(at, e)| (base + at, e)));
        base += replies.len();
    }
    let all: Vec<&Reply> = replies.iter().flatten().collect();
    let classes = Class::ALL
        .iter()
        .map(|&class| ClassCount {
            label: class.label(),
            attempted: all.iter().filter(|r| r.class == class).count(),
            failed: failures
                .iter()
                .filter(|(at, _)| all[*at].class == class)
                .count(),
        })
        .collect();
    (classes, failures)
}

pub fn run_serve(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let ops = Workload::ServeMixed.timed_ops(seconds);
    let setup = Instant::now();
    let pool = Pool::build(seed);
    let bundle = Bundle::pretrain(&pool, &setup_bundle_spec(SERVE_TASKS.gpus), seed);
    let mut rig = ServeRig::boot(&pool, &bundle, seed, ops)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let (replies, _, timed_s) = rig.replay_all(None, deadline(seconds));
    let metrics = scrape::parse(&rig.daemon.metrics_text());
    let reconnects: u64 = rig.clients.iter().map(Client::reconnects).sum();
    let ServeRig {
        daemon,
        connections,
        warm_up,
        ..
    } = rig;
    daemon.shutdown();

    let mut errors = Vec::new();
    let attempted: usize = replies.iter().map(Vec::len).sum();
    if attempted != ops {
        errors.push(overrun_error(attempted, ops));
    }
    for name in scrape::ZERO_COUNTERS {
        let total = scrape::total(&metrics, name);
        if total != 0.0 {
            errors.push(format!("/metrics {name} is {total}, expected 0"));
        }
    }
    if reconnects != 0 {
        errors.push(format!(
            "{reconnects} keep-alive connections were re-opened"
        ));
    }

    let mut quality = Quality::new();
    let mut latencies_ms: Vec<f64> = replies.iter().flatten().map(|r| r.latency_ms).collect();
    let (classes, failures) = verify_all(&connections, &warm_up, &replies, &mut quality);
    for (at, error) in failures {
        latencies_ms[at] = LATENCY_CEILING_MS;
        errors.push(error);
    }
    let (cost_vs_baseline, compared_tasks) = quality.cost_vs_baseline();
    let hit_rate = scrape::response_cache_hit_rate(&metrics);
    Ok(Outcome {
        setup_s,
        timed_s,
        clients: SERVE_CLIENTS,
        latencies_ms,
        classes,
        cost_vs_baseline,
        compared_tasks,
        plans_digest: quality.digest.value(),
        errors,
        facts: vec![("response_cache_hit_rate", format!("{hit_rate:.6}"))],
    })
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    match workload {
        Workload::Pretrain => run_pretrain(seed, seconds),
        Workload::SearchNarrow => run_search(&NARROW, workload, seed, seconds),
        Workload::SearchWide => run_search(&WIDE, workload, seed, seconds),
        Workload::ServeMixed => run_serve(seed, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_scale_with_seconds_and_serve_fills_whole_blocks() {
        for w in Workload::ALL {
            assert!(w.timed_ops(25.0) > w.timed_ops(2.0));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for seconds in [0.1, 1.3, 25.0] {
            assert_eq!(Workload::ServeMixed.timed_ops(seconds) % 20, 0);
            assert!(Workload::ServeMixed.timed_ops(seconds) >= 20);
        }
        assert_eq!(Workload::Pretrain.timed_ops(0.01), 1);
    }

    #[test]
    fn digest_depends_on_order_and_boundaries() {
        let digest = |parts: &[&str]| {
            let mut d = Digest::new();
            parts.iter().for_each(|p| d.eat(p.as_bytes()));
            d.value()
        };
        assert_eq!(digest(&["ab", "c"]), digest(&["ab", "c"]));
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
    }

    #[test]
    fn baseline_ratio_skips_tasks_without_a_feasible_baseline() {
        let quality = Quality {
            digest: Digest::new(),
            pairs: vec![(2.0, Some(4.0)), (9.0, None), (8.0, Some(4.0))],
        };
        let (value, counted) = quality.cost_vs_baseline();
        assert!((value - 1.0).abs() < 1e-12);
        assert_eq!(counted, (2, 3));
    }
}
