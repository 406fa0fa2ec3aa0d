//! Determinism of the pre-training pipeline: collected datasets, trained
//! weights, and training reports must be bit-identical at any worker-thread
//! count.
//!
//! Collection owes this to per-sample seeding (`sample_seed(seed, i)` gives
//! every sample its own RNG, so results do not depend on which worker ran
//! it). A single fit is serial — its float order is fixed by its 64-row
//! fold groups, folded in order — and the only
//! training fan-out is the pre-train's and the fine-tuner's two lanes (the
//! compute model beside the two comm models), which the two lane sweeps
//! below hold to the three fits made one after another. This suite sweeps
//! explicit thread counts {1, 2, 3, 8}; CI additionally runs it under
//! `NSHARD_THREADS=8` so the `threads: 0` (auto) paths resolve to an
//! oversubscribed worker count.

use neuroshard::cost::{
    collect_comm_data, collect_compute_data, BundleReport, CollectConfig, CommCostModel,
    ComputeCostModel, CostModelBundle, TrainSettings,
};
use neuroshard::data::TablePool;
use neuroshard::learn::{fine_tune, FineTuneSettings, LearnDatasets};
use neuroshard::nn::{fit, Mlp, FOLD_GROUP_ROWS};
use neuroshard::sim::{CommParams, GpuSpec, KernelParams};

const THREAD_SWEEP: [usize; 4] = [1, 2, 3, 8];

fn pool() -> TablePool {
    TablePool::synthetic_dlrm(60, 0xD17E)
}

fn collect_config(threads: usize) -> CollectConfig {
    CollectConfig {
        compute_samples: 200,
        comm_samples: 200,
        threads,
        ..CollectConfig::smoke()
    }
}

#[test]
fn collectors_are_bit_identical_across_thread_counts() {
    let pool = pool();
    let kernel = KernelParams::rtx_2080_ti();
    let comm = CommParams::pcie_server();

    let compute_ref = collect_compute_data(&pool, &kernel, &collect_config(1), 7);
    let comm_ref = collect_comm_data(&pool, &comm, 4, &collect_config(1), 9);
    for threads in THREAD_SWEEP {
        let cfg = collect_config(threads);
        assert_eq!(
            collect_compute_data(&pool, &kernel, &cfg, 7),
            compute_ref,
            "compute dataset diverged at {threads} threads"
        );
        let comm_data = collect_comm_data(&pool, &comm, 4, &cfg, 9);
        assert_eq!(
            comm_data.forward, comm_ref.forward,
            "forward comm dataset diverged at {threads} threads"
        );
        assert_eq!(
            comm_data.backward, comm_ref.backward,
            "backward comm dataset diverged at {threads} threads"
        );
    }
}

#[test]
fn trainer_is_bit_identical_across_thread_counts() {
    // 200 training rows at batch 160 = shards of 64/64/32 per batch. A fit
    // is serial whatever `threads` says; the lane sweeps below cover the
    // training fan-out.
    let xs: Vec<Vec<f32>> = (0..250)
        .map(|i| vec![(i % 23) as f32 / 23.0, (i % 7) as f32 / 7.0])
        .collect();
    let ys: Vec<Vec<f32>> = xs.iter().map(|r| vec![2.0 * r[0] - r[1] + 0.25]).collect();
    let data = neuroshard::nn::Dataset::new(
        neuroshard::nn::Matrix::from_rows(&xs),
        neuroshard::nn::Matrix::from_rows(&ys),
    )
    .unwrap();
    assert!(
        data.len() > 2 * FOLD_GROUP_ROWS,
        "batches must fold several groups"
    );

    let config = |threads: usize| TrainSettings {
        epochs: 12,
        batch_size: 160,
        learning_rate: 1e-3,
        threads,
    };
    let mut model_ref = Mlp::new(2, &[16, 8], 1, 3);
    let report_ref = fit(
        &mut model_ref,
        data.split(17).each_ref(),
        &[],
        &config(1),
        17,
    );

    for threads in THREAD_SWEEP {
        let mut model = Mlp::new(2, &[16, 8], 1, 3);
        let report = fit(
            &mut model,
            data.split(17).each_ref(),
            &[],
            &config(threads),
            17,
        );
        assert_eq!(
            report, report_ref,
            "train report diverged at {threads} threads"
        );
        assert_eq!(
            model, model_ref,
            "trained weights diverged at {threads} threads"
        );
    }
}

#[test]
fn cost_model_training_is_bit_identical_across_thread_counts() {
    let pool = pool();
    let compute_data =
        collect_compute_data(&pool, &KernelParams::rtx_2080_ti(), &collect_config(0), 21);
    let comm_data = collect_comm_data(&pool, &CommParams::pcie_server(), 4, &collect_config(0), 23);

    let settings = |threads: usize| TrainSettings {
        epochs: 4,
        batch_size: 128,
        learning_rate: 1e-3,
        threads,
    };
    let mut compute_ref = ComputeCostModel::new(5);
    let compute_report_ref = compute_ref.train(&compute_data, &settings(1), 31);
    let mut comm_ref = CommCostModel::new(4, 6);
    let comm_report_ref = comm_ref.train(&comm_data.forward, &settings(1), 33);

    for threads in THREAD_SWEEP {
        let mut compute = ComputeCostModel::new(5);
        let report = compute.train(&compute_data, &settings(threads), 31);
        assert_eq!(
            report, compute_report_ref,
            "compute train report diverged at {threads} threads"
        );
        assert_eq!(
            compute, compute_ref,
            "compute model weights diverged at {threads} threads"
        );

        let mut comm = CommCostModel::new(4, 6);
        let report = comm.train(&comm_data.forward, &settings(threads), 33);
        assert_eq!(
            report, comm_report_ref,
            "comm train report diverged at {threads} threads"
        );
        assert_eq!(
            comm, comm_ref,
            "comm model weights diverged at {threads} threads"
        );
    }
}

/// Every number a bundle serializes (weights, report), as bits, in order; a
/// non-finite value, which JSON writes as `null`, is left out.
fn bundle_bits(bundle: &CostModelBundle) -> Vec<u64> {
    fn walk(value: &serde_json::Value, out: &mut Vec<u64>) {
        match value {
            serde_json::Value::Float(f) => out.push(f.to_bits()),
            serde_json::Value::Int(i) => out.push(*i as u64),
            serde_json::Value::UInt(u) => out.push(*u),
            serde_json::Value::Seq(items) => items.iter().for_each(|v| walk(v, out)),
            serde_json::Value::Map(entries) => entries.iter().for_each(|(_, v)| walk(v, out)),
            _ => {}
        }
    }
    let json = serde_json::to_string(bundle).unwrap();
    let mut out = Vec::new();
    walk(&serde_json::parse_value(&json).unwrap(), &mut out);
    out
}

#[test]
fn pretrained_bundle_is_bit_identical_across_thread_counts() {
    // End to end: collect + train all three models through the public
    // pre-training entry point, sweeping the thread knob on both stages,
    // against the three fits made one after another on one thread.
    let pool = pool();
    let (seed, settings) = (41, |threads| TrainSettings {
        epochs: 3,
        threads,
        ..TrainSettings::smoke()
    });
    let bundle = |threads: usize| {
        CostModelBundle::pretrain(&pool, 2, &collect_config(threads), &settings(threads), seed)
    };
    let spec = GpuSpec::rtx_2080_ti();
    let cfg = collect_config(1);
    let compute_data = collect_compute_data(&pool, spec.kernel(), &cfg, seed);
    let comm_data = collect_comm_data(&pool, spec.comm(), 2, &cfg, seed ^ 0x1234);
    let mut compute = ComputeCostModel::new(seed);
    let compute_report = compute.train(&compute_data, &settings(1), seed ^ 0x1);
    let mut comm_fwd = CommCostModel::new(2, seed ^ 0x2);
    let fwd_report = comm_fwd.train(&comm_data.forward, &settings(1), seed ^ 0x3);
    let mut comm_bwd = CommCostModel::new(2, seed ^ 0x4);
    let bwd_report = comm_bwd.train(&comm_data.backward, &settings(1), seed ^ 0x5);
    let report = BundleReport {
        compute_test_mse: compute_report.test_mse,
        fwd_comm_test_mse: fwd_report.test_mse,
        bwd_comm_test_mse: bwd_report.test_mse,
        compute_samples: cfg.compute_samples,
        comm_samples: cfg.comm_samples,
    };
    let serial = CostModelBundle::from_parts(compute, comm_fwd, comm_bwd, cfg.batch_size, report);
    for threads in THREAD_SWEEP {
        assert!(
            bundle_bits(&bundle(threads)) == bundle_bits(&serial),
            "pre-trained bundle diverged from the serial fits at {threads} threads"
        );
    }
}

#[test]
fn fine_tuned_bundle_is_bit_identical_across_thread_counts() {
    // All three models have enough rows, so both lanes fit; the reference
    // fine-tunes them one after another, frozen as the tuner freezes them
    // (the compute encoder, the comm input layer).
    let pool = pool();
    let incumbent = CostModelBundle::pretrain(
        &pool,
        2,
        &collect_config(1),
        &TrainSettings {
            epochs: 2,
            threads: 1,
            ..TrainSettings::smoke()
        },
        43,
    );
    let learn = |seed: u64| {
        let cfg = CollectConfig {
            compute_samples: 60,
            comm_samples: 60,
            threads: 1,
            ..CollectConfig::smoke()
        };
        let comm = collect_comm_data(&pool, &CommParams::pcie_server(), 2, &cfg, seed);
        LearnDatasets {
            compute: collect_compute_data(&pool, &KernelParams::rtx_2080_ti(), &cfg, seed),
            comm_fwd: Some(comm.forward),
            comm_bwd: Some(comm.backward),
        }
    };
    let (train, valid, seed) = (learn(51), learn(52), 53);
    let settings = |threads| {
        let mut settings = FineTuneSettings::smoke();
        settings.train.threads = threads;
        settings
    };
    let tuned = |threads| fine_tune(&incumbent, &train, &valid, &settings(threads), seed);
    let ts = settings(1).train;
    let mut report = *incumbent.report();
    let mut compute = incumbent.compute_model().clone();
    let tune = compute.fine_tune(&train.compute, &valid.compute, &ts, true, seed);
    (report.compute_test_mse, report.compute_samples) = (tune.valid_mse, train.compute.len());
    let comm = |model: &CommCostModel, train: &Option<_>, valid: &Option<_>, salt| {
        let mut model = model.clone();
        let (train, valid) = (train.as_ref().unwrap(), valid.as_ref().unwrap());
        let tune = model.fine_tune(train, valid, &ts, &[0], seed ^ salt);
        (model, tune.valid_mse)
    };
    let (comm_fwd, fwd_mse) = comm(
        incumbent.comm_fwd_model(),
        &train.comm_fwd,
        &valid.comm_fwd,
        0x0f0d,
    );
    let (comm_bwd, bwd_mse) = comm(
        incumbent.comm_bwd_model(),
        &train.comm_bwd,
        &valid.comm_bwd,
        0x0b0d,
    );
    (report.fwd_comm_test_mse, report.bwd_comm_test_mse) = (fwd_mse, bwd_mse);
    report.comm_samples = 2 * train.comm_fwd.as_ref().unwrap().len();
    let batch_size = incumbent.batch_size();
    let serial = CostModelBundle::from_parts(compute, comm_fwd, comm_bwd, batch_size, report);
    for threads in THREAD_SWEEP {
        let bundle = tuned(threads).expect("every model has enough rows");
        assert!(
            bundle_bits(&bundle) == bundle_bits(&serial),
            "fine-tuned bundle diverged from the serial fits at {threads} threads"
        );
    }
}

/// FNV-1a 64 over the serialized weights of the three models, in bundle
/// order.
fn weight_digest(bundle: &CostModelBundle) -> String {
    let json = [
        serde_json::to_string(bundle.compute_model()).unwrap(),
        serde_json::to_string(bundle.comm_fwd_model()).unwrap(),
        serde_json::to_string(bundle.comm_bwd_model()).unwrap(),
    ]
    .concat();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn pretrained_weights_match_the_digests_recorded_before_the_step_rewrite() {
    // Recorded at the parent of the PR that rewrote the training step
    // (vectorised input gradients, per-fit workspaces, batched encoder
    // forward): the rewrite performs the same floating-point operations in
    // the same order, so every trained bit is the one the old step produced.
    // The three specs are the repo benchmark's: its `pretrain` op and its
    // 4- and 8-GPU set-up bundles.
    let spec = |gpus: usize, compute: usize, comm: usize, epochs: usize, threads: usize, seed| {
        let bundle = CostModelBundle::pretrain(
            &TablePool::synthetic_dlrm(856, seed),
            gpus,
            &CollectConfig {
                compute_samples: compute,
                comm_samples: comm,
                threads,
                ..CollectConfig::default()
            },
            &TrainSettings {
                epochs,
                threads,
                ..TrainSettings::default()
            },
            seed,
        );
        weight_digest(&bundle)
    };
    assert_eq!(spec(4, 1200, 900, 6, 1, 100), "8e7828ad6e16244d");
    assert_eq!(spec(4, 2000, 1500, 10, 1, 200), "c5ca14628ba77cbf");
    assert_eq!(spec(4, 2000, 1500, 10, 2, 200), "c5ca14628ba77cbf");
    assert_eq!(spec(8, 2000, 1500, 10, 2, 300), "126463c5b431733d");
}
