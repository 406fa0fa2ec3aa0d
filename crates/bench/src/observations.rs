//! The simulator-only experiments: Figures 1, 3 and 4 (the paper's three
//! cost observations) and the dataset tables. No cost model is trained.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use nshard_data::{augment_pool, PlacementGenerator, PoolStats, TablePool, TaskGrid, PAPER_DIMS};
use nshard_sim::{
    Cluster, CommDirection, CommParams, GpuSpec, KernelParams, NoiseModel, Phase, TableProfile,
    TraceSimulator, TraceSummary, DEFAULT_BATCH_SIZE as BATCH,
};

use crate::repro::{Ctx, Report};
use crate::{markdown_table, pearson};

/// Measurement repeats per label (the median is taken).
const REPEATS: u32 = 21;

fn holds(observation: bool) -> &'static str {
    if observation {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}

/// Figure 1 (right): ASCII timelines of one steady-state iteration of
/// synchronous training for a balanced and an imbalanced placement on 3
/// GPUs — the slow GPU's embedding backward delays its next forward, the
/// delay accumulates, and the other GPUs idle at the collectives.
pub(crate) fn fig1(_: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        balanced: TraceSummary,
        imbalanced: TraceSummary,
    }
    const GPUS: usize = 3;

    // A small pool of its own: its first twelve tables cost about the same,
    // so dealing them round-robin balances cost as well as count.
    let profiles: Vec<TableProfile> = TablePool::synthetic_dlrm(120, 14)
        .iter()
        .take(4 * GPUS)
        .map(|t| t.with_dim(64).profile(BATCH))
        .collect();
    // Balanced: round-robin. Imbalanced: GPU 0 hoards half the tables.
    let mut balanced: Vec<Vec<TableProfile>> = vec![Vec::new(); GPUS];
    let mut imbalanced = balanced.clone();
    for (i, p) in profiles.iter().enumerate() {
        balanced[i % GPUS].push(*p);
        let hoarder = if i < profiles.len() / 2 {
            0
        } else {
            1 + i % (GPUS - 1)
        };
        imbalanced[hoarder].push(*p);
    }

    let cluster =
        Cluster::new(GpuSpec::rtx_2080_ti(), GPUS, BATCH).with_noise(NoiseModel::disabled());
    let sim = TraceSimulator::new(cluster, 8.0);
    let balanced = sim.simulate(&balanced, 30).expect("balanced plan fits");
    let imbalanced = sim.simulate(&imbalanced, 30).expect("imbalanced plan fits");

    let mut md = format!("# Figure 1 (right) — synchronous training traces, {GPUS} GPUs\n");
    for (label, summary) in [("Balanced", &balanced), ("Imbalanced", &imbalanced)] {
        let _ = writeln!(
            md,
            "\n## {label} placement (iteration {:.2} ms, max idle {:.2} ms)\n\n{}",
            summary.iteration_ms,
            summary.max_idle_ms,
            gantt(summary)
        );
    }
    let (fast, slow) = (
        balanced.throughput_samples_per_sec,
        imbalanced.throughput_samples_per_sec,
    );
    let _ = writeln!(
        md,
        "legend: F embedding-forward, f forward all-to-all, D dense fwd+bwd, \
         b backward all-to-all, B embedding-backward, . idle/wait\n\n\
         throughput: balanced {fast:.0} samples/s vs imbalanced {slow:.0} samples/s \
         ({:.1}% loss)",
        (1.0 - slow / fast) * 100.0
    );
    let output = Output {
        balanced,
        imbalanced,
    };
    Report::new(&output, md)
}

/// The last iteration's spans as an 80-column ASCII Gantt chart.
fn gantt(summary: &TraceSummary) -> String {
    const WIDTH: usize = 78;
    let spans = &summary.last_iteration.spans;
    let t0 = spans
        .iter()
        .filter_map(|s| s.first())
        .map(|s| s.start_ms)
        .fold(f64::INFINITY, f64::min);
    let t1 = spans
        .iter()
        .filter_map(|s| s.last())
        .map(|s| s.end_ms)
        .fold(0.0f64, f64::max);
    let scale = WIDTH as f64 / (t1 - t0).max(1e-9);
    let mut out = String::new();
    for (g, gpu_spans) in spans.iter().enumerate() {
        let mut line = vec!['.'; WIDTH];
        for span in gpu_spans {
            let c = match span.phase {
                Phase::EmbeddingForward => 'F',
                Phase::ForwardComm => 'f',
                Phase::DenseCompute => 'D',
                Phase::BackwardComm => 'b',
                Phase::EmbeddingBackward => 'B',
            };
            let lo = ((span.start_ms - t0) * scale) as usize;
            let hi = (((span.end_ms - t0) * scale) as usize).min(WIDTH);
            for cell in line.iter_mut().take(hi).skip(lo) {
                *cell = c;
            }
        }
        let _ = writeln!(out, "GPU {g} |{}|", line.into_iter().collect::<String>());
    }
    out
}

/// Figure 3 (left) + Figure 10: fused-kernel cost of four pool tables with
/// the dimension swept over {128, …, 4}. Observation 1: each half-dimension
/// cost exceeds half of the full-dimension cost.
pub(crate) fn fig3_left(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        dims: [u32; 6],
        /// `costs[t][d]` = cost in ms of table `t` at dimension `dims[d]`.
        costs: Vec<Vec<f64>>,
        observation1_holds: bool,
    }
    const DIMS: [u32; 6] = [128, 64, 32, 16, 8, 4];

    let kernel = KernelParams::rtx_2080_ti();
    let noise = NoiseModel::new(0, 0.02);
    let tables: Vec<_> = (0..4).map(|t| ctx.dlrm.tables()[t * 131]).collect();
    let costs: Vec<Vec<f64>> = tables
        .iter()
        .map(|table| {
            let cost = |dim| {
                let profile = table.with_dim(dim).profile(BATCH);
                kernel.measure_multi_cost_ms(&[profile], BATCH, &noise, REPEATS)
            };
            DIMS.map(cost).to_vec()
        })
        .collect();
    let obs1 = costs
        .iter()
        .all(|series| series.windows(2).all(|w| w[1] > w[0] / 2.0));

    let headers: Vec<String> = DIMS.iter().map(|d| format!("dim {d}")).collect();
    let mut headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    headers.insert(0, "table");
    let rows = tables.iter().zip(&costs).map(|(table, series)| {
        let cells: Vec<String> = series.iter().map(|cost| format!("{cost:.3}")).collect();
        format!("table#{} | {}", table.id().0, cells.join(" | "))
    });
    let md = format!(
        "# Figure 3 (left) / Figure 10 — computation cost (ms) vs. dimension\n\n{}\n\
         Observation 1 (half-dim shard costs more than half of the full table): {}\n",
        markdown_table(&headers, rows),
        holds(obs1)
    );
    let output = Output {
        dims: DIMS,
        costs,
        observation1_holds: obs1,
    };
    Report::new(&output, md)
}

/// Figure 3 (right): fused multi-table kernel cost against the sum of the
/// single-table costs, over 50 random subsets of 10 tables (the paper's
/// protocol). Observation 2: the fused cost sits below the sum.
pub(crate) fn fig3_right(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        sum_single_ms: Vec<f64>,
        multi_table_ms: Vec<f64>,
        mean_fused_to_sum_ratio: f64,
        linear_fit_r: f64,
        observation2_holds: bool,
    }
    const SUBSETS: usize = 50;

    let kernel = KernelParams::rtx_2080_ti();
    let noise = NoiseModel::new(1, 0.02);
    let cost =
        |tables: &[TableProfile]| kernel.measure_multi_cost_ms(tables, BATCH, &noise, REPEATS);
    let mut rng = StdRng::seed_from_u64(1);
    let mut sums = Vec::with_capacity(SUBSETS);
    let mut multis = Vec::with_capacity(SUBSETS);
    for _ in 0..SUBSETS {
        let subset = ctx.dlrm.sample_tables(10, &mut rng);
        let tables: Vec<TableProfile> = subset.iter().map(|t| t.profile(BATCH)).collect();
        multis.push(cost(&tables));
        sums.push(
            tables
                .iter()
                .map(|t| cost(std::slice::from_ref(t)))
                .sum::<f64>(),
        );
    }
    let ratio = multis.iter().zip(&sums).map(|(m, s)| m / s).sum::<f64>() / SUBSETS as f64;
    let r = pearson(&sums, &multis);
    let obs2 = multis.iter().zip(&sums).all(|(m, s)| m < s);

    let rows = sums
        .iter()
        .zip(&multis)
        .take(15)
        .map(|(s, m)| format!("{s:.2} | {m:.2} | {:.3}", m / s));
    let md = format!(
        "# Figure 3 (right) — multi-table cost vs. sum of single-table costs\n\n{}\n\
         (first 15 of {SUBSETS} subsets shown)\n\
         mean fused/sum ratio: {ratio:.3} (fusion saves {:.1}%)\n\
         Pearson r of the scatter: {r:.3} (correlated but not the identity line)\n\
         Observation 2 (fused < sum for every subset): {}\n",
        markdown_table(
            &["sum of singles (ms)", "fused multi-table (ms)", "ratio"],
            rows
        ),
        (1.0 - ratio) * 100.0,
        holds(obs2)
    );
    let output = Output {
        sum_single_ms: sums,
        multi_table_ms: multis,
        mean_fused_to_sum_ratio: ratio,
        linear_fit_r: r,
        observation2_holds: obs2,
    };
    Report::new(&output, md)
}

/// Figure 4: max forward/backward all-to-all cost against the max device
/// dimension on 4 and 8 GPUs, over 50 random placements (Algorithm 5) with
/// random per-table dimensions and simultaneous starts (Appendix A.3), so
/// only the placement varies. Observation 3: a strong positive correlation.
pub(crate) fn fig4(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Series {
        num_gpus: usize,
        max_device_dim: Vec<f64>,
        max_fwd_comm_ms: Vec<f64>,
        max_bwd_comm_ms: Vec<f64>,
        fwd_correlation: f64,
        bwd_correlation: f64,
    }
    #[derive(Serialize)]
    struct Output {
        series: Vec<Series>,
        observation3_holds: bool,
    }
    const PLACEMENTS: usize = 50;

    let comm = CommParams::pcie_server();
    let noise = NoiseModel::new(2, 0.02);
    let augmented = augment_pool(&ctx.dlrm, &PAPER_DIMS);
    let mut md = String::new();
    let mut series = Vec::new();
    for gpus in [4usize, 8] {
        let generator = PlacementGenerator::new(augmented.clone(), gpus, 10 * gpus, 10 * gpus)
            .with_max_start_ms(0.0);
        let mut s = Series {
            num_gpus: gpus,
            max_device_dim: Vec::new(),
            max_fwd_comm_ms: Vec::new(),
            max_bwd_comm_ms: Vec::new(),
            fwd_correlation: 0.0,
            bwd_correlation: 0.0,
        };
        for p in generator.generate(PLACEMENTS, 2 ^ gpus as u64) {
            let (dims, starts) = (p.device_dims(), &p.start_ts_ms);
            let max_ms = |direction| {
                let costs = comm.measure_costs_ms(direction, &dims, starts, BATCH, &noise, REPEATS);
                costs.into_iter().fold(0.0, f64::max)
            };
            s.max_device_dim.push(p.max_device_dim());
            s.max_fwd_comm_ms.push(max_ms(CommDirection::Forward));
            s.max_bwd_comm_ms.push(max_ms(CommDirection::Backward));
        }
        s.fwd_correlation = pearson(&s.max_device_dim, &s.max_fwd_comm_ms);
        s.bwd_correlation = pearson(&s.max_device_dim, &s.max_bwd_comm_ms);
        let rows = (0..12).map(|i| {
            format!(
                "{:.0} | {:.2} | {:.2}",
                s.max_device_dim[i], s.max_fwd_comm_ms[i], s.max_bwd_comm_ms[i]
            )
        });
        let _ = writeln!(
            md,
            "# Figure 4 — {gpus} GPUs: max comm cost vs. max device dimension\n\n{}\
             (first 12 of {PLACEMENTS} placements shown)\nPearson r: fwd {:.3}, bwd {:.3}\n",
            markdown_table(
                &["max device dim", "max fwd comm (ms)", "max bwd comm (ms)"],
                rows
            ),
            s.fwd_correlation,
            s.bwd_correlation
        );
        series.push(s);
    }
    // The paper's scatter is roughly linear; anything above 0.6 is a clear
    // positive trend.
    let obs3 = series
        .iter()
        .all(|s| s.fwd_correlation >= 0.6 && s.bwd_correlation >= 0.6);
    let _ = writeln!(
        md,
        "Observation 3 (max comm cost positively correlates with max device dim): {}",
        holds(obs3)
    );
    let output = Output {
        series,
        observation3_holds: obs3,
    };
    Report::new(&output, md)
}

/// Table 5 + Table 6: the 12-cell task grid, and the statistics of the two
/// synthetic pools beside the public datasets' published numbers.
pub(crate) fn table5(ctx: &mut Ctx) -> Report {
    #[derive(Serialize)]
    struct Output {
        grid: TaskGrid,
        dlrm_stats: PoolStats,
        production_stats: PoolStats,
    }

    let grid = TaskGrid::paper();
    let cells = grid.cells().iter().map(|c| {
        let dims: Vec<String> = (2..=c.max_dim.ilog2())
            .map(|j| (1u32 << j).to_string())
            .collect();
        format!(
            "{} | {}-{} | {}",
            c.num_devices,
            c.t_min,
            c.t_max,
            dims.join(", ")
        )
    });
    let dlrm = ctx.dlrm.stats();
    let production = ctx.production.stats();
    let published = [
        "Criteo (public) | 26 | 17,839 | 1",
        "Avazu (public) | 23 | 67,152 | 1",
        "KDD (public) | 10 | 601,908 | 1",
    ];
    let ours = [
        ("synthetic DLRM (this repo)", &dlrm),
        ("synthetic production (this repo)", &production),
    ]
    .map(|(name, s)| {
        format!(
            "{name} | {} | {:.0} | {:.1}",
            s.num_tables, s.avg_hash_size, s.avg_pooling_factor
        )
    });
    let md = format!(
        "# Table 5 — sharding tasks generated in the experiments\n\n{}\n\
         (All cells use a 4 GB per-GPU embedding memory budget.)\n\n\
         # Table 6 — dataset statistics\n\n{}\n\
         Synthetic DLRM pool: max hash size {} rows, total {:.1} GB at native dims.\n\
         Synthetic production pool: total {:.2} TB at native dims (the pool Table 4 shards).\n\n\
         Note: the public dataset rows quote the paper's published statistics; the\n\
         synthetic pool rescales row counts against the 4 GB benchmark budget (see\n\
         DESIGN.md) while keeping the heavy-tailed shape and pooling factors.\n",
        markdown_table(&["GPUs", "tables per task", "table dimensions"], cells),
        markdown_table(
            &["dataset", "# tables", "avg hash size", "avg pooling factor"],
            published.map(String::from).into_iter().chain(ours)
        ),
        dlrm.max_hash_size,
        dlrm.total_bytes as f64 / 1e9,
        production.total_bytes as f64 / 1e12
    );
    let output = Output {
        grid,
        dlrm_stats: dlrm,
        production_stats: production,
    };
    Report::new(&output, md)
}
