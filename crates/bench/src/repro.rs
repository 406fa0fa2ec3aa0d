//! The experiment table, the context every experiment shares, and the
//! driver behind the `repro` binary.

use std::path::Path;
use std::time::Instant;

use serde::Serialize;

use nshard_core::{NeuroShard, NeuroShardConfig};
use nshard_cost::{CollectConfig, CostModelBundle, TrainSettings};
use nshard_data::{ShardingTask, TablePool};
use nshard_sim::GpuSpec;

use crate::check::check_file;
use crate::{extensions, observations, online, tables};

/// An experiment: a plain function over the shared context.
type Experiment = fn(&mut Ctx) -> Report;

/// Every experiment, under the stem of its result file, in the order `all`
/// runs them.
const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("fig1", observations::fig1),
    ("fig3_left", observations::fig3_left),
    ("fig3_right", observations::fig3_right),
    ("fig4", observations::fig4),
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("fig8_left", tables::fig8_left),
    ("fig8_samples", tables::fig8_samples),
    ("table3", tables::table3),
    ("fig9", tables::fig9),
    ("table4", tables::table4),
    ("table5", observations::table5),
    ("ext_rowwise", extensions::ext_rowwise),
    ("ext_imitation", extensions::ext_imitation),
    ("ext_linear", extensions::ext_linear),
    ("ext_online", online::ext_online),
];

/// What an experiment returns.
pub(crate) struct Report {
    /// The result as pretty-printed JSON: `<out-dir>/<name>.json`.
    json: String,
    /// The tables the experiment prints.
    markdown: String,
}

impl Report {
    pub(crate) fn new<T: Serialize>(result: &T, markdown: String) -> Self {
        let mut json = serde_json::to_string_pretty(result).expect("results are serializable");
        json.push('\n');
        Self { json, markdown }
    }
}

/// GPUs of the production setting (Tables 2 and 4).
pub(crate) const PRODUCTION_GPUS: usize = 128;
/// Tables in the production pool: the largest round count at which the
/// reference method of Table 4 (`random`) still yields a plan.
const PRODUCTION_TABLES: usize = 700;
/// Seed of the production pool; its bundle is seeded `^ 0xBEE`.
const PRODUCTION_SEED: u64 = 9;
/// Seed of the two DLRM bundles.
const DLRM_BUNDLE_SEED: u64 = 3;

/// What the experiments share, so that it is built once per process: the
/// two table pools and one lazily pre-trained bundle per setting, all at
/// the one recorded scale ([`CollectConfig::default`] and
/// [`TrainSettings::default`]: 8,000 / 6,000 samples, 30 epochs). A
/// setting is named by its GPU count: 4 or 8 is the DLRM pool on RTX 2080
/// Ti GPUs, [`PRODUCTION_GPUS`] the production pool on datacenter GPUs.
pub(crate) struct Ctx {
    /// The paper's 856-table DLRM pool.
    pub(crate) dlrm: TablePool,
    /// The synthetic production pool.
    pub(crate) production: TablePool,
    bundles: Vec<(usize, CostModelBundle)>,
    pretrains: usize,
}

impl Ctx {
    fn new() -> Self {
        Self {
            dlrm: TablePool::synthetic_dlrm(856, 2023),
            production: TablePool::synthetic_production(PRODUCTION_TABLES, PRODUCTION_SEED),
            bundles: Vec::new(),
            pretrains: 0,
        }
    }

    /// The hardware a setting's ground truth runs on.
    pub(crate) fn spec(gpus: usize) -> GpuSpec {
        if gpus == PRODUCTION_GPUS {
            GpuSpec::datacenter()
        } else {
            GpuSpec::rtx_2080_ti()
        }
    }

    /// Pre-trains a bundle for the `gpus` setting, counting it. Production
    /// placements cover the task's table count on both sides.
    pub(crate) fn pretrain(
        &mut self,
        gpus: usize,
        mut collect: CollectConfig,
        seed: u64,
    ) -> CostModelBundle {
        self.pretrains += 1;
        eprintln!(
            "pre-train #{}: {gpus} GPUs, {} / {} samples",
            self.pretrains, collect.compute_samples, collect.comm_samples
        );
        let pool = if gpus == PRODUCTION_GPUS {
            collect.placement_tables = Some((PRODUCTION_TABLES / 2, PRODUCTION_TABLES * 6 / 5));
            &self.production
        } else {
            &self.dlrm
        };
        let train = TrainSettings::default();
        CostModelBundle::pretrain_with_spec(pool, gpus, &Self::spec(gpus), &collect, &train, seed)
    }

    /// The setting's shared bundle, pre-trained on first use.
    pub(crate) fn bundle(&mut self, gpus: usize) -> CostModelBundle {
        if let Some((_, bundle)) = self.bundles.iter().find(|(g, _)| *g == gpus) {
            return bundle.clone();
        }
        let seed = if gpus == PRODUCTION_GPUS {
            PRODUCTION_SEED ^ 0xBEE
        } else {
            DLRM_BUNDLE_SEED
        };
        let bundle = self.pretrain(gpus, CollectConfig::default(), seed);
        self.bundles.push((gpus, bundle.clone()));
        bundle
    }

    /// NeuroShard over the setting's bundle with a fresh prediction cache.
    pub(crate) fn neuroshard(&mut self, gpus: usize, config: NeuroShardConfig) -> NeuroShard {
        NeuroShard::new(self.bundle(gpus), config)
    }

    /// `count` DLRM tasks on `gpus` GPUs with Table 5's tables per task
    /// (10–60 on 4 GPUs, 20–120 on 8), task `i` sampled under `seed ^ i`.
    pub(crate) fn dlrm_tasks(
        &self,
        gpus: usize,
        max_dim: u32,
        count: usize,
        seed: u64,
    ) -> Vec<ShardingTask> {
        let tables = 10 * gpus / 4..=60 * gpus / 4;
        (0..count as u64)
            .map(|i| ShardingTask::sample(&self.dlrm, gpus, tables.clone(), max_dim, seed ^ i))
            .collect()
    }
}

/// Runs the named experiments (`all` = every one) in order over one
/// context. Without `check` each result is written to
/// `<out_dir>/<name>.json` and its tables are printed; with it nothing is
/// written and each result is compared with the file already there
/// ([`check_file`]), every failure printed as it is found.
///
/// # Errors
///
/// One line: the known names when one is unknown, the file that could not
/// be written, or the experiments whose check failed.
pub fn run(names: &[String], check: bool, out_dir: &Path) -> Result<(), String> {
    let mut selected = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|(known, _)| known == name) {
            Some(experiment) => selected.push(*experiment),
            None if name == "all" => selected.extend(EXPERIMENTS),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                return Err(format!(
                    "unknown experiment {name:?}; known: all {}",
                    known.join(" ")
                ));
            }
        }
    }
    let start = Instant::now();
    let mut ctx = Ctx::new();
    let mut failed = Vec::new();
    for (name, experiment) in &selected {
        let report = experiment(&mut ctx);
        let file = out_dir.join(format!("{name}.json"));
        if !check {
            println!("{}", report.markdown);
            std::fs::create_dir_all(out_dir)
                .and_then(|()| std::fs::write(&file, &report.json))
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            eprintln!("wrote {}", file.display());
        } else if let Err(e) = check_file(&report.json, &file) {
            println!("FAIL  {e}");
            failed.push(*name);
        } else {
            println!("ok    {name}");
        }
    }
    let summary = format!(
        "{} experiments, {} pre-trains, {:.1} s",
        selected.len(),
        ctx.pretrains,
        start.elapsed().as_secs_f64()
    );
    if failed.is_empty() {
        eprintln!("{summary}");
        Ok(())
    } else {
        Err(format!("{summary}; check failed for: {}", failed.join(" ")))
    }
}
