//! The traced run: per-layer metrics, timed from outside the crates.
//!
//! A traced run exercises every layer on short inputs and the selected
//! workload on longer ones, so every per-layer metric is measured in every
//! traced run. End-to-end numbers are never taken from here.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host;
use crate::scrape;
use crate::script::Class;
use crate::stats::median;
use crate::surface::{
    collect_labels, fit_models, ground_truth_ms, replan, time_forward, time_gemm, time_parse,
    time_serialize, Bundle, Daemon, Engine, Plan, Pool, Scorer, Searched, Searcher,
    TableSets, Task,
};
use crate::trace::{self_time_by_name, self_times_ns, Span, Tracer};
use crate::workloads::{
    derive, ms, search_op, setup_bundle_spec, verify_all, ClassCount, Quality, Reply, ServeRig,
    TaskShape, Workload, NARROW, PRETRAIN_OP, PROBE_STREAM, SERVE_TASKS, WIDE,
};
use crate::RUN_SECONDS;

/// Every per-layer metric: name, unit, and which direction is better.
/// `BENCHMARK.json` lists exactly these (a unit test compares the two).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("host.hardware_threads", "count", "higher"),
    ("host.spin_ms", "ms", "lower"),
    ("host.steal_share", "ratio", "lower"),
    ("host.cpu_ms_per_op", "ms", "lower"),
    ("host.rss_mb", "MB", "lower"),
    ("host.trace_overhead_share", "ratio", "lower"),
    ("data.pool_build_ms", "ms", "lower"),
    ("data.task_sample_us", "us", "lower"),
    ("sim.labels_per_s", "1/s", "higher"),
    ("sim.ground_truth_us", "us", "lower"),
    ("nn.fit_ms", "ms", "lower"),
    ("nn.train_rows_per_s", "1/s", "higher"),
    ("nn.forward_us_per_row", "us", "lower"),
    ("nn.gemm_gflops", "GFLOP/s", "higher"),
    ("cost.collect_ms", "ms", "lower"),
    ("cost.compute_test_mse", "ms2", "lower"),
    ("cost.comm_test_mse", "ms2", "lower"),
    ("cost.lookups_per_op", "count", "lower"),
    ("cost.misses_per_op", "count", "lower"),
    ("cost.hit_rate", "ratio", "higher"),
    ("cost.miss_us", "us", "lower"),
    ("cost.hit_ns", "ns", "lower"),
    ("cost.miss_share", "ratio", "lower"),
    ("cost.hit_share", "ratio", "lower"),
    ("cost.estimate_plan_us", "us", "lower"),
    ("cost.cache_entries_per_op", "count", "lower"),
    ("core.build_ms", "ms", "lower"),
    ("core.search_ms", "ms", "lower"),
    ("core.evaluated_plans_per_op", "count", "lower"),
    ("core.plans_per_s", "1/s", "higher"),
    ("core.candidate_hit_rate", "ratio", "higher"),
    ("core.inner_hit_rate", "ratio", "higher"),
    ("core.greedy_grid_ms", "ms", "lower"),
    ("pool.fanout_ratio", "ratio", "lower"),
    ("pool.cpu_ratio", "ratio", "lower"),
    ("online.replan_ms", "ms", "lower"),
    ("online.evaluated_plans_per_replan", "count", "lower"),
    ("online.migration_mb_per_replan", "MB", "lower"),
    ("serve.hit_ms", "ms", "lower"),
    ("serve.miss_ms", "ms", "lower"),
    ("serve.replan_ms", "ms", "lower"),
    ("serve.get_ms", "ms", "lower"),
    ("serve.observe_ms", "ms", "lower"),
    ("serve.route_hit_us", "us", "lower"),
    ("serve.route_miss_ms", "ms", "lower"),
    ("serve.route_replan_ms", "ms", "lower"),
    ("serve.net_hit_us", "us", "lower"),
    ("serve.engine_plan_ms", "ms", "lower"),
    ("serve.service_overhead_ms", "ms", "lower"),
    ("serve.parse_us", "us", "lower"),
    ("serve.serialize_us", "us", "lower"),
    ("serve.response_cache_hit_rate", "ratio", "higher"),
    ("serve.rejected_total", "count", "lower"),
    ("serve.degraded_total", "count", "lower"),
    ("serve.fallback_total", "count", "lower"),
    ("serve.keepalive_reuse_total", "count", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("op.ops_per_s", "1/s", "higher"),
    ("op.latency_p50_ms", "ms", "lower"),
];

/// Traced op counts at `RUN_SECONDS`: the selected workload runs the long
/// count, every other workload the short one.
const PRETRAIN_OPS: (usize, usize) = (10, 2);
const NARROW_OPS: (usize, usize) = (32, 8);
const WIDE_OPS: (usize, usize) = (12, 4);
const SERVE_OPS: (usize, usize) = (1000, 300);

/// Tasks the greedy-grid, cache-growth, route and engine probes run on, and
/// the daemon-sized tasks of the replan probe.
const PROBE_TASKS: usize = 8;
const REPLAN_PROBES: usize = 16;
/// Plans a new daemon and a new engine answer before the route and engine
/// probes start timing.
const ENGINE_WARM_UP: usize = 2;
/// Table sets of the forward and scoring probes, and how many regroupings
/// of them the scoring probe times (it reports the median round).
const PROBE_SETS: usize = 256;
const SCORING_ROUNDS: usize = 7;

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    pub span: &'static str,
    pub calls: usize,
    pub self_ms: f64,
    pub share: f64,
}

/// What one traced run produced.
#[derive(Debug)]
pub struct TraceReport {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Self time of the selected workload's spans, per span name.
    pub self_times: Vec<SelfTimeRow>,
    pub traced_ops: usize,
    pub traced_p50_ms: f64,
    pub untraced_p50_ms: f64,
    pub classes: Vec<ClassCount>,
    pub errors: Vec<String>,
    pub trace_file: PathBuf,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The long count of `counts` for the selected workload, the short one
/// otherwise, scaled with `--seconds` and never under `floor`.
fn pick(counts: (usize, usize), selected: bool, seconds: f64, floor: usize) -> usize {
    let count = if selected { counts.0 } else { counts.1 };
    ((count as f64 * seconds / RUN_SECONDS).round() as usize).max(floor)
}

/// Durations in ms of the spans named `name` among `spans`.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// One way of running a search op: thread count and whether it is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SearchMode {
    threads: usize,
    traced: bool,
}

/// What one mode measured over a task list; `searched[i]` belongs to task
/// `i`, `None` where that search failed.
struct SearchPass {
    searched: Vec<Option<Searched>>,
    op_ms: Vec<f64>,
    cpu_ms: f64,
}

struct Run<'a> {
    seed: u64,
    seconds: f64,
    selected: Workload,
    pool: &'a Pool,
    tracer: Tracer,
    metrics: BTreeMap<&'static str, f64>,
    errors: Vec<String>,
    classes: Vec<ClassCount>,
    /// First span of the selected workload's traced ops, and one past the
    /// last: the self-time table covers these.
    selected_spans: std::ops::Range<usize>,
    traced_p50_ms: f64,
    untraced_p50_ms: f64,
    trace_overhead_share: f64,
    selected_cpu_ms_per_op: f64,
}

/// Median of `a[i] / b[i]`: a ratio between two ways of running the same
/// inputs, taken pair by pair so that host drift cancels.
fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&ratios)
}

impl Run<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn is(&self, workload: Workload) -> bool {
        self.selected == workload
    }

    fn count(&mut self, label: &'static str, attempted: usize, failed: usize) {
        self.classes.push(ClassCount {
            label,
            attempted,
            failed,
        });
    }

    /// Notes what the selected workload's traced ops measured, and what the
    /// same ops measured untraced: the whole-op timing of this run.
    /// `untraced_wall_ms` is the wall time the untraced ops took together.
    fn selected_ops(
        &mut self,
        spans: std::ops::Range<usize>,
        traced: &[f64],
        untraced: &[f64],
        untraced_wall_ms: f64,
        cpu_ms: f64,
    ) {
        self.selected_spans = spans;
        self.traced_p50_ms = median(traced);
        self.untraced_p50_ms = median(untraced);
        self.put("op.latency_p50_ms", self.untraced_p50_ms);
        self.put(
            "op.ops_per_s",
            untraced.len() as f64 / (untraced_wall_ms / 1e3),
        );
        self.trace_overhead_share = paired_ratio(traced, untraced) - 1.0;
        self.selected_cpu_ms_per_op = cpu_ms / traced.len() as f64;
    }

    // ------------------------------------------------------------ pretrain

    /// Traced `pretrain` ops, split into their two public halves. When the
    /// workload is selected every op also runs untraced as the single call
    /// the workload really makes, alternating which goes first.
    fn pretrain(&mut self) -> Bundle {
        let selected = self.is(Workload::Pretrain);
        let ops = pick(PRETRAIN_OPS, selected, self.seconds, 2);
        let seed = derive(self.seed, PROBE_STREAM, 0);
        let first = self.tracer.spans().len();
        let mut first_bundle = None;
        let (mut traced_ms, mut untraced_ms, mut cpu_ms) = (Vec::new(), Vec::new(), 0.0);
        for i in 0..ops {
            let (pool, op_seed) = (self.pool, derive(seed, PROBE_STREAM, i as u64));
            let untraced = |out: &mut Vec<f64>| {
                out.push(ms(timed(|| Bundle::pretrain(pool, &PRETRAIN_OP, op_seed)).1));
            };
            if selected && i % 2 == 1 {
                untraced(&mut untraced_ms);
            }
            let cpu = host::process_cpu_ms();
            let (bundle, elapsed) = timed(|| {
                self.tracer.span("op", i as u64, |t| {
                    let labels = t.span("cost.collect", i as u64, |_| {
                        collect_labels(pool, &PRETRAIN_OP, op_seed)
                    });
                    t.span("nn.fit", i as u64, |_| {
                        fit_models(&labels, &PRETRAIN_OP, op_seed)
                    })
                })
            });
            cpu_ms += host::process_cpu_ms() - cpu;
            traced_ms.push(ms(elapsed));
            first_bundle.get_or_insert(bundle);
            if selected && i % 2 == 0 {
                untraced(&mut untraced_ms);
            }
        }
        let spans = first..self.tracer.spans().len();
        let collect_ms = median(&span_ms(
            &self.tracer.spans()[spans.clone()],
            "cost.collect",
        ));
        let fit_ms = median(&span_ms(&self.tracer.spans()[spans.clone()], "nn.fit"));
        let labels = (PRETRAIN_OP.compute_samples + PRETRAIN_OP.comm_samples) as f64;
        self.put("cost.collect_ms", collect_ms);
        self.put("sim.labels_per_s", labels / (collect_ms / 1e3));
        self.put("nn.fit_ms", fit_ms);
        self.put(
            "nn.train_rows_per_s",
            PRETRAIN_OP.train_rows() as f64 / (fit_ms / 1e3),
        );
        if selected {
            let wall_ms = untraced_ms.iter().sum();
            self.selected_ops(spans, &traced_ms, &untraced_ms, wall_ms, cpu_ms);
            self.count("pretrain", ops, 0);
        }
        first_bundle.expect("at least two ops")
    }

    // -------------------------------------------------------------- search

    /// Runs every task under every mode, rotating which mode goes first, so
    /// that ratios between modes compare like with like under host drift.
    fn search_passes(
        &mut self,
        tasks: &[Task],
        bundle: &Bundle,
        modes: &[SearchMode],
    ) -> Vec<SearchPass> {
        let mut passes: Vec<SearchPass> = modes
            .iter()
            .map(|_| SearchPass {
                searched: Vec::new(),
                op_ms: Vec::new(),
                cpu_ms: 0.0,
            })
            .collect();
        let mut off = Tracer::off();
        for (i, task) in tasks.iter().enumerate() {
            for turn in 0..modes.len() {
                let m = (i + turn) % modes.len();
                let tracer = if modes[m].traced {
                    &mut self.tracer
                } else {
                    &mut off
                };
                let cpu = host::process_cpu_ms();
                let (result, elapsed) =
                    timed(|| search_op(tracer, i as u64, bundle, modes[m].threads, task));
                passes[m].cpu_ms += host::process_cpu_ms() - cpu;
                passes[m].op_ms.push(ms(elapsed));
                if let Err(e) = &result {
                    self.errors.push(format!("traced search {i}: {e}"));
                }
                passes[m].searched.push(result.ok());
            }
        }
        passes
    }

    /// Narrow and wide search ops. Returns the context for the probes that
    /// follow: the selected search workload's tasks and plans, the narrow
    /// ones otherwise.
    fn search(&mut self, bundle4: &Bundle, bundle8: &Bundle) -> (Vec<Task>, SearchPass) {
        let narrow_selected = self.is(Workload::SearchNarrow);
        let wide_selected = self.is(Workload::SearchWide);
        let seed = derive(self.seed, PROBE_STREAM, 0);
        let narrow_tasks = NARROW.tasks(
            self.pool,
            seed,
            0..pick(NARROW_OPS, narrow_selected, self.seconds, 2),
        );
        let wide_tasks = WIDE.tasks(
            self.pool,
            seed,
            0..pick(WIDE_OPS, wide_selected, self.seconds, 2),
        );
        let traced = |threads| SearchMode {
            threads,
            traced: true,
        };
        let untraced = |threads| SearchMode {
            threads,
            traced: false,
        };

        let first = self.tracer.spans().len();
        let mut narrow_modes = vec![traced(NARROW.threads)];
        if narrow_selected {
            narrow_modes.push(untraced(NARROW.threads));
        }
        let mut narrow = self.search_passes(&narrow_tasks, bundle4, &narrow_modes);
        let narrow_spans = first..self.tracer.spans().len();

        // The wide tasks at two threads and at one: what fan-out buys, and
        // exact cache counters (two threads can count one miss twice).
        let first = self.tracer.spans().len();
        let mut wide_modes = vec![traced(WIDE.threads), untraced(1)];
        if wide_selected {
            wide_modes.push(untraced(WIDE.threads));
        }
        let mut wide = self.search_passes(&wide_tasks, bundle8, &wide_modes);
        let wide_spans = first..self.tracer.spans().len();
        self.put(
            "pool.fanout_ratio",
            paired_ratio(&wide[0].op_ms, &wide[1].op_ms),
        );
        self.put("pool.cpu_ratio", wide[0].cpu_ms / wide[1].cpu_ms);

        if narrow_selected {
            self.selected_ops(
                narrow_spans.clone(),
                &narrow[0].op_ms,
                &narrow[1].op_ms,
                narrow[1].op_ms.iter().sum(),
                narrow[0].cpu_ms,
            );
            let failed = narrow[0].searched.iter().filter(|s| s.is_none()).count();
            self.count("search", narrow_tasks.len(), failed);
        }
        if wide_selected {
            self.selected_ops(
                wide_spans.clone(),
                &wide[0].op_ms,
                &wide[2].op_ms,
                wide[2].op_ms.iter().sum(),
                wide[0].cpu_ms,
            );
            let failed = wide[0].searched.iter().filter(|s| s.is_none()).count();
            self.count("search", wide_tasks.len(), failed);
        }

        // Timing comes from the workload's own mode, counters from one thread.
        let (spans, counters) = if wide_selected {
            (wide_spans, &wide[1])
        } else {
            (narrow_spans, &narrow[0])
        };
        let spans = &self.tracer.spans()[spans];
        let build_ms = median(&span_ms(spans, "core.build"));
        let search_ms = median(&span_ms(spans, "core.search"));
        let searched: Vec<&Searched> = counters.searched.iter().flatten().collect();
        let mean =
            |f: &dyn Fn(&Searched) -> f64| searched.iter().map(|s| f(s)).sum::<f64>() / searched.len().max(1) as f64;
        let lookups = mean(&|s| s.lookups as f64);
        let misses = mean(&|s| s.misses as f64);
        let evaluated = mean(&|s| s.evaluated_plans as f64);
        let candidate_hit_rate = mean(&|s| s.candidate_hit_rate);
        let inner_hit_rate = mean(&|s| s.inner_hit_rate);
        self.put("core.build_ms", build_ms);
        self.put("core.search_ms", search_ms);
        self.put("core.evaluated_plans_per_op", evaluated);
        self.put("core.plans_per_s", evaluated / (search_ms / 1e3));
        self.put("core.candidate_hit_rate", candidate_hit_rate);
        self.put("core.inner_hit_rate", inner_hit_rate);
        self.put("cost.lookups_per_op", lookups);
        self.put("cost.misses_per_op", misses);
        self.put("cost.hit_rate", 1.0 - misses / lookups);

        if wide_selected {
            (wide_tasks, wide.swap_remove(0))
        } else {
            (narrow_tasks, narrow.swap_remove(0))
        }
    }

    // --------------------------------------------------- cost, core, sim, nn

    fn micro_probes(
        &mut self,
        tasks: &[Task],
        context: &SearchPass,
        bundle: &Bundle,
        shape: &TaskShape,
    ) {
        let sets = TableSets::sample(
            self.pool,
            shape.gpus,
            PROBE_SETS,
            derive(self.seed, PROBE_STREAM, 0),
        );

        let (elapsed, rows) = time_forward(bundle, &sets);
        self.put("nn.forward_us_per_row", us(elapsed) / rows as f64);
        let (elapsed, flops) = time_gemm(200);
        self.put("nn.gemm_gflops", flops / elapsed.as_secs_f64() / 1e9);

        // The search's two cache paths, from outside: a simulator that has
        // every table's encoding scores sets it has not seen (all misses),
        // then the same sets again (all hits), one set per device per call.
        let scorer = Scorer::cold(bundle);
        scorer.score_sets(&sets, shape.gpus);
        let (mut miss_rounds, mut hit_rounds) = (Vec::new(), Vec::new());
        for shift in 1..=SCORING_ROUNDS {
            let regrouped = sets.regrouped(shift);
            let per_set = |d: Duration| us(d) / regrouped.len() as f64;
            miss_rounds.push(per_set(scorer.score_sets(&regrouped, shape.gpus)));
            hit_rounds.push(per_set(scorer.score_sets(&regrouped, shape.gpus)) * 1e3);
        }
        let (miss_us, hit_ns) = (median(&miss_rounds), median(&hit_rounds));
        self.put("cost.miss_us", miss_us);
        self.put("cost.hit_ns", hit_ns);
        let search_us = self.metrics["core.search_ms"] * 1e3;
        self.put(
            "cost.miss_share",
            self.metrics["cost.misses_per_op"] * miss_us / search_us,
        );
        self.put(
            "cost.hit_share",
            self.metrics["cost.lookups_per_op"] * hit_ns / 1e3 / search_us,
        );

        // Whole-plan estimates and ground truth on the context's plans.
        let planned: Vec<(&Task, &Plan)> = tasks
            .iter()
            .zip(&context.searched)
            .filter_map(|(t, s)| Some((t, &s.as_ref()?.plan)))
            .collect();
        let scorer = Scorer::cold(bundle);
        let (_, elapsed) = timed(|| {
            for (task, plan) in &planned {
                std::hint::black_box(scorer.estimate_plan_ms(task, plan));
            }
        });
        self.put("cost.estimate_plan_us", us(elapsed) / planned.len() as f64);
        let (checks, elapsed) = timed(|| {
            planned
                .iter()
                .map(|(task, plan)| ground_truth_ms(task, plan))
                .collect::<Vec<_>>()
        });
        self.put("sim.ground_truth_us", us(elapsed) / planned.len() as f64);
        for (i, check) in checks.into_iter().enumerate() {
            if let Err(e) = check {
                self.errors.push(format!("traced plan {i}: {e}"));
            }
        }

        // One inner greedy-grid search per task. The unsplit task may not
        // fit any device (the beam's column splits exist for that), which
        // the search finds out in about the same time.
        let grid_ms: Vec<f64> = tasks
            .iter()
            .take(PROBE_TASKS)
            .map(|task| {
                let scorer = Scorer::cold(bundle);
                ms(timed(|| std::hint::black_box(scorer.greedy_grid(task))).1)
            })
            .collect();
        self.put("core.greedy_grid_ms", median(&grid_ms));

        // Growth of one shared simulator's prediction cache over unique
        // small plans — the daemon's situation.
        let shared = Searcher::build(bundle, 1);
        let small = TaskShape {
            gpus: shape.gpus,
            ..SERVE_TASKS
        }
        .tasks(
            self.pool,
            derive(self.seed, PROBE_STREAM, 0),
            0..PROBE_TASKS,
        );
        let entries = small
            .iter()
            .filter_map(|task| shared.search(task).ok())
            .last()
            .map_or(0, |s| s.cache_entries);
        self.put(
            "cost.cache_entries_per_op",
            entries as f64 / PROBE_TASKS as f64,
        );
    }

    // -------------------------------------------------------------- online

    fn online(&mut self, bundle4: &Bundle) {
        let seed = derive(self.seed, PROBE_STREAM, 0);
        let tasks = SERVE_TASKS.tasks(self.pool, seed, 100..100 + REPLAN_PROBES);
        let planner = Searcher::build(bundle4, 1);
        let scorer = Scorer::cold(bundle4);
        let mut replan_ms = Vec::new();
        let mut evaluated = Vec::new();
        let mut migrated_mb = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            let drifted = task.drifted(derive(seed, PROBE_STREAM, i as u64));
            let outcome = planner.search(task).and_then(|incumbent| {
                self.tracer.span("online.replan", i as u64, |_| {
                    let (out, elapsed) = timed(|| replan(&scorer, &drifted, &incumbent.plan));
                    out.map(|r| (r, elapsed))
                })
            });
            match outcome.and_then(|(r, t)| ground_truth_ms(&drifted, &r.plan).map(|_| (r, t))) {
                Ok((replanned, elapsed)) => {
                    replan_ms.push(ms(elapsed));
                    evaluated.push(replanned.evaluated_plans as f64);
                    migrated_mb.push(replanned.migration_bytes as f64 / (1u64 << 20) as f64);
                }
                Err(e) => self.errors.push(format!("replan probe {i}: {e}")),
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        self.put("online.replan_ms", median(&replan_ms));
        self.put("online.evaluated_plans_per_replan", mean(&evaluated));
        self.put("online.migration_mb_per_replan", mean(&migrated_mb));
    }

    // --------------------------------------------------------------- serve

    fn serve(&mut self, bundle4: &Bundle) -> Result<(), String> {
        let selected = self.is(Workload::ServeMixed);
        let ops = pick(SERVE_OPS, selected, self.seconds, 20).div_ceil(20) * 20;
        let give_up = Duration::from_secs(120);

        // The same ops untraced first, on a daemon of their own: a daemon
        // that has answered them once would answer every plan from cache.
        let (untraced_ms, untraced_wall_s): (Vec<f64>, f64) = if selected {
            let mut rig = ServeRig::boot(self.pool, bundle4, self.seed, ops)?;
            let (replies, _, wall_s) = rig.replay_all(None, give_up);
            rig.daemon.shutdown();
            (
                replies.iter().flatten().map(|r| r.latency_ms).collect(),
                wall_s,
            )
        } else {
            (Vec::new(), 0.0)
        };

        let mut rig = ServeRig::boot(self.pool, bundle4, self.seed, ops)?;
        let first = self.tracer.spans().len();
        let cpu = host::process_cpu_ms();
        let (replies, tracers, _) = rig.replay_all(Some(self.tracer.origin()), give_up);
        let cpu_ms = host::process_cpu_ms() - cpu;
        for tracer in tracers {
            self.tracer.absorb(tracer);
        }
        let samples = scrape::parse(&rig.daemon.metrics_text());

        let all: Vec<&Reply> = replies.iter().flatten().collect();
        let class_ms = |class: Class| -> Vec<f64> {
            all.iter()
                .filter(|r| r.class == class)
                .map(|r| r.latency_ms)
                .collect()
        };
        let hit_ms = median(&class_ms(Class::PlanHit));
        self.put("serve.hit_ms", hit_ms);
        self.put("serve.miss_ms", median(&class_ms(Class::PlanMiss)));
        self.put("serve.replan_ms", median(&class_ms(Class::Replan)));
        self.put("serve.get_ms", median(&class_ms(Class::Get)));
        self.put("serve.observe_ms", median(&class_ms(Class::Observe)));
        if selected {
            // Two daemons cannot be paired op by op: compare the medians.
            let traced_ms: Vec<f64> = all.iter().map(|r| r.latency_ms).collect();
            let spans = first..self.tracer.spans().len();
            self.selected_ops(spans, &traced_ms, &untraced_ms, untraced_wall_s * 1e3, cpu_ms);
            self.trace_overhead_share = self.traced_p50_ms / self.untraced_p50_ms - 1.0;
        }

        let (classes, failures) = verify_all(
            &rig.connections,
            &rig.warm_up,
            &replies,
            &mut Quality::new(),
        );
        self.errors.extend(failures.into_iter().map(|(_, e)| e));
        if selected {
            self.classes = classes;
        }

        self.put(
            "serve.response_cache_hit_rate",
            scrape::response_cache_hit_rate(&samples),
        );
        for (metric, series) in [
            "serve.rejected_total",
            "serve.degraded_total",
            "serve.fallback_total",
        ]
        .into_iter()
        .zip(scrape::ZERO_COUNTERS)
        {
            self.put(metric, scrape::total(&samples, series));
        }
        self.put(
            "serve.keepalive_reuse_total",
            scrape::total(&samples, "nshard_net_keepalive_reuse_total"),
        );
        rig.daemon.shutdown();

        // The same kinds of request without the socket, and each plan also
        // through an engine with no service around it. Daemon and engine
        // are both new and see the same tasks in the same order, so their
        // caches are equally warm and the difference is the service's own
        // work: JSON decoding, admission, the store, serialising.
        let seed = derive(self.seed, PROBE_STREAM, 0);
        let daemon = Daemon::start(bundle4)?;
        let engine = Engine::build(bundle4);
        let fresh = SERVE_TASKS.tasks(self.pool, seed, 200..200 + ENGINE_WARM_UP + PROBE_TASKS);
        let mut route_miss_ms = Vec::new();
        let mut route_replan_ms = Vec::new();
        let mut route_hit_us = Vec::new();
        let mut engine_ms = Vec::new();
        let mut overhead_ms = Vec::new();
        let mut miss_reply = String::new();
        let mut plan_body = String::new();
        for (i, task) in fresh.iter().enumerate() {
            plan_body = format!("{{\"task\":{}}}", task.to_json());
            let ((status, body), routed) =
                timed(|| daemon.route("POST", "/v1/plan", plan_body.as_bytes()));
            let (planned, direct) = timed(|| engine.plan(task));
            let id = crate::surface::parse_plan_reply(&body).map(|(id, _, _)| id);
            let replan_body = format!(
                "{{\"task\":{},\"adopt\":false,\"incumbent_id\":\"{}\"}}",
                task.drifted(derive(seed, PROBE_STREAM, i as u64)).to_json(),
                id.clone().unwrap_or_default()
            );
            let ((replan_status, _), replanned) =
                timed(|| daemon.route("POST", "/v1/replan", replan_body.as_bytes()));
            if status != 200 || replan_status != 200 || id.is_err() || planned.is_err() {
                self.errors.push(format!(
                    "route probe {i}: plan {status}, replan {replan_status}, engine {:?}",
                    planned.err()
                ));
            }
            if i >= ENGINE_WARM_UP {
                route_miss_ms.push(ms(routed));
                engine_ms.push(ms(direct));
                overhead_ms.push(ms(routed) - ms(direct));
                route_replan_ms.push(ms(replanned));
            }
            for _ in 0..4 {
                let ((_, hit), elapsed) =
                    timed(|| daemon.route("POST", "/v1/plan", plan_body.as_bytes()));
                route_hit_us.push(us(elapsed));
                if hit != body {
                    self.errors
                        .push(format!("route probe {i}: hit differs from miss"));
                }
            }
            miss_reply = body;
        }
        daemon.shutdown();
        let route_hit = median(&route_hit_us);
        self.put("serve.route_hit_us", route_hit);
        self.put("serve.route_miss_ms", median(&route_miss_ms));
        self.put("serve.route_replan_ms", median(&route_replan_ms));
        self.put("serve.net_hit_us", hit_ms * 1e3 - route_hit);
        self.put("serve.engine_plan_ms", median(&engine_ms));
        self.put("serve.service_overhead_ms", median(&overhead_ms));

        let request = format!(
            "POST /v1/plan HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{plan_body}",
            plan_body.len()
        );
        let parse_us: Vec<f64> = (0..50)
            .filter_map(|_| time_parse(request.as_bytes()).ok())
            .map(us)
            .collect();
        if parse_us.len() < 50 {
            self.errors
                .push("parse probe: request did not parse".to_string());
        }
        let serialize_us: Vec<f64> = (0..50).map(|_| us(time_serialize(&miss_reply))).collect();
        self.put("serve.parse_us", median(&parse_us));
        self.put("serve.serialize_us", median(&serialize_us));
        Ok(())
    }
}

pub fn run_traced(selected: Workload, seed: u64, seconds: f64) -> Result<TraceReport, String> {
    let origin = Instant::now();
    let steal_before = host::steal_and_total_jiffies();
    let spin_before = host::spin_ms();

    let (pool, pool_build) = timed(|| Pool::build(seed));
    let (_, sampling) = timed(|| NARROW.tasks(&pool, derive(seed, PROBE_STREAM, 0), 0..64));
    let bundle4 = Bundle::pretrain(&pool, &setup_bundle_spec(NARROW.gpus), seed);
    let bundle8 = Bundle::pretrain(&pool, &setup_bundle_spec(WIDE.gpus), seed);

    let mut run = Run {
        seed,
        seconds,
        selected,
        pool: &pool,
        tracer: Tracer::new(origin, true),
        metrics: BTreeMap::new(),
        errors: Vec::new(),
        classes: Vec::new(),
        selected_spans: 0..0,
        traced_p50_ms: 0.0,
        untraced_p50_ms: 0.0,
        trace_overhead_share: 0.0,
        selected_cpu_ms_per_op: 0.0,
    };
    run.put("data.pool_build_ms", ms(pool_build));
    run.put("data.task_sample_us", us(sampling) / 64.0);

    let first_bundle = run.pretrain();
    let (tasks, context) = run.search(&bundle4, &bundle8);
    let (context_bundle, shape) = if selected == Workload::SearchWide {
        (&bundle8, &WIDE)
    } else {
        (&bundle4, &NARROW)
    };
    run.micro_probes(&tasks, &context, context_bundle, shape);
    run.online(&bundle4);
    run.serve(&bundle4)?;

    // The models whose error feeds this workload's plan quality.
    let (compute_mse, comm_mse) = match selected {
        Workload::Pretrain => first_bundle.test_mses(),
        Workload::SearchWide => bundle8.test_mses(),
        _ => bundle4.test_mses(),
    };
    run.put("cost.compute_test_mse", compute_mse);
    run.put("cost.comm_test_mse", comm_mse);

    let spin_after = host::spin_ms();
    run.put("host.hardware_threads", host::hardware_threads() as f64);
    run.put("host.spin_ms", (spin_before + spin_after) / 2.0);
    run.put(
        "host.steal_share",
        host::steal_share(steal_before, host::steal_and_total_jiffies()),
    );
    run.put("host.cpu_ms_per_op", run.selected_cpu_ms_per_op);
    run.put("host.rss_mb", host::peak_rss_mb());
    run.put("host.trace_overhead_share", run.trace_overhead_share);

    // Self times of the selected workload's spans; what its op spans did
    // not hand to a named layer span is unattributed.
    let spans = &run.tracer.spans()[run.selected_spans.clone()];
    let rebased: Vec<Span> = spans
        .iter()
        .map(|s| Span {
            parent: s
                .parent
                .and_then(|p| p.checked_sub(run.selected_spans.start)),
            ..s.clone()
        })
        .collect();
    let total_ns: u64 = self_times_ns(&rebased).iter().sum();
    let by_name = self_time_by_name(&rebased);
    let self_times: Vec<SelfTimeRow> = by_name
        .iter()
        .map(|(&span, &ns)| SelfTimeRow {
            span,
            calls: rebased.iter().filter(|s| s.name == span).count(),
            self_ms: ns as f64 / 1e6,
            share: ns as f64 / total_ns.max(1) as f64,
        })
        .collect();
    let unattributed = by_name.get("op").copied().unwrap_or(0) as f64 / total_ns.max(1) as f64;
    run.put("trace.unattributed_share", unattributed);
    let traced_ops = rebased.iter().filter(|s| s.name == "op").count();

    let trace_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", selected.name()));
    run.tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    Ok(TraceReport {
        metrics: run.metrics,
        self_times,
        traced_ops,
        traced_p50_ms: run.traced_p50_ms,
        untraced_p50_ms: run.untraced_p50_ms,
        classes: run.classes,
        errors: run.errors,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_counts_scale_and_keep_their_floor() {
        assert_eq!(pick(NARROW_OPS, true, RUN_SECONDS, 2), 32);
        assert_eq!(pick(NARROW_OPS, true, RUN_SECONDS / 20.0, 2), 2);
        assert_eq!(pick(PRETRAIN_OPS, true, RUN_SECONDS, 2), 10);
        assert_eq!(pick(PRETRAIN_OPS, false, RUN_SECONDS, 2), 2);
    }

    #[test]
    fn per_layer_names_are_unique_and_match_benchmark_json() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let per_layer = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            per_layer.matches("\"name\"").count(),
            PER_LAYER.len(),
            "BENCHMARK.json lists a per-layer metric the benchmark does not emit"
        );
    }
}
