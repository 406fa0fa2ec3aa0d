//! The training step as it stood before the workspace rewrite, compiled only
//! under `#[cfg(test)]` (see `lib.rs`), and the oracle tests that hold the
//! new step to it bit for bit.
//!
//! The reference is the old code kept verbatim in shape: the scalar
//! `.sum()` dot for `dy · Wᵀ`, an input gradient for every layer, three
//! clones per activation, a fresh forward pass and `Gradients` per 64-row
//! shard, and frozen layers computed and then zeroed. One change is
//! deliberate: the shards' gradients are summed left to right (the chain
//! [`Mlp::fold_into`] folds), where the old code summed them in a pairwise
//! tree; up to three shards both add the same terms in the same order. The
//! rewrite promises the same floating-point operations in the same order,
//! so every comparison here is by `to_bits`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adam::Adam;
use crate::layer::Dense;
use crate::loss::mse;
use crate::mlp::{Gradients, Mlp, MlpWorkspace};
use crate::tensor::Matrix;
use crate::train::{fit, Dataset, TrainReport, TrainSettings, FOLD_GROUP_ROWS};

/// `a · bᵀ`, one scalar `.sum()` dot per element.
fn matmul_t(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_t shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let dot: f32 = a.row(i).iter().zip(b.row(j)).map(|(&a, &b)| a * b).sum();
            out.set(i, j, dot);
        }
    }
    out
}

/// `aᵀ · b`, rows ascending, zero entries of `a` skipped.
fn t_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "t_matmul shape mismatch");
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for r in 0..a.rows() {
        for (i, &av) in a.row(r).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(r)) {
                *o += av * bv;
            }
        }
    }
    out
}

fn dense_backward(layer: &Dense, x: &Matrix, dy: &Matrix) -> (Matrix, Matrix, Vec<f32>) {
    (matmul_t(dy, layer.weights()), t_matmul(x, dy), col_sums(dy))
}

fn col_sums(m: &Matrix) -> Vec<f32> {
    let mut sums = vec![0.0; m.cols()];
    for r in 0..m.rows() {
        for (s, &v) in sums.iter_mut().zip(m.row(r)) {
            *s += v;
        }
    }
    sums
}

fn relu(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    y.as_mut_slice().iter_mut().for_each(|v| *v = v.max(0.0));
    y
}

fn relu_backward(pre_activation: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = dy.clone();
    for (d, &p) in dx.as_mut_slice().iter_mut().zip(pre_activation.as_slice()) {
        if p <= 0.0 {
            *d = 0.0;
        }
    }
    dx
}

struct Cache {
    inputs: Vec<Matrix>,
    pre_acts: Vec<Matrix>,
}

fn forward_cached(mlp: &Mlp, x: &Matrix) -> (Matrix, Cache) {
    let mut cache = Cache {
        inputs: Vec::new(),
        pre_acts: Vec::new(),
    };
    let mut h = x.clone();
    let last = mlp.layers().len().saturating_sub(1);
    for (i, layer) in mlp.layers().iter().enumerate() {
        cache.inputs.push(h.clone());
        let mut pre = Matrix::default();
        layer.forward_into(&h, &mut pre, false);
        cache.pre_acts.push(pre.clone());
        h = if i < last { relu(&pre) } else { pre };
    }
    (h, cache)
}

fn backward(mlp: &Mlp, cache: &Cache, dy: &Matrix) -> (Matrix, Gradients) {
    let mut grads = Vec::new();
    let mut d = dy.clone();
    let last = mlp.layers().len() - 1;
    for (i, layer) in mlp.layers().iter().enumerate().rev() {
        if i < last {
            d = relu_backward(&cache.pre_acts[i], &d);
        }
        let (dx, dw, db) = dense_backward(layer, &cache.inputs[i], &d);
        grads.push((dw, db));
        d = dx;
    }
    grads.reverse();
    (d, Gradients { layers: grads })
}

/// The shards' gradients summed left to right: `((g₀ + g₁) + g₂) + …`.
fn chain(grads: impl Iterator<Item = Gradients>) -> Gradients {
    grads
        .reduce(|mut sum, g| {
            sum.accumulate(&g, 1.0);
            sum
        })
        .expect("a batch has a shard")
}

fn batch_gradients(mlp: &Mlp, train: &Dataset, chunk: &[usize]) -> Gradients {
    let total_elems = chunk.len() * train.y().cols();
    let per_shard = chunk.chunks(FOLD_GROUP_ROWS).map(|shard| {
        let xb = train.x().select_rows(shard);
        let yb = train.y().select_rows(shard);
        let (pred, cache) = forward_cached(mlp, &xb);
        let mut dy = pred;
        for (g, &t) in dy.as_mut_slice().iter_mut().zip(yb.as_slice()) {
            *g = 2.0 * (*g - t) / total_elems as f32;
        }
        backward(mlp, &cache, &dy).1
    });
    chain(per_shard)
}

fn zero_layers(grads: &mut Gradients, layers: &[usize]) {
    for &idx in layers {
        if let Some((dw, db)) = grads.layers.get_mut(idx) {
            dw.as_mut_slice().fill(0.0);
            db.fill(0.0);
        }
    }
}

fn fit_split(
    config: &TrainSettings,
    frozen: &[usize],
    mut mlp: Mlp,
    [train, valid, test]: &[Dataset; 3],
    seed: u64,
) -> (TrainReport, Mlp) {
    let mut adam = Adam::new(&mlp, config.learning_rate);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let n = train.len();
    let batch = config.batch_size.clamp(1, n);
    let mut best = mlp.clone();
    let mut best_valid = f32::INFINITY;
    let mut valid_history = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    for _epoch in 0..config.epochs {
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(batch) {
            let mut grads = batch_gradients(&mlp, train, chunk);
            zero_layers(&mut grads, frozen);
            adam.step(&mut mlp, &grads);
        }
        let valid_mse = mse(&mlp.forward(valid.x()), valid.y());
        valid_history.push(valid_mse);
        if valid_mse < best_valid {
            best_valid = valid_mse;
            best = mlp.clone();
        }
    }
    let report = TrainReport {
        valid_mse: best_valid,
        test_mse: mse(&best.forward(test.x()), test.y()),
        valid_history,
    };
    (report, best)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn grad_bits(grads: &Gradients) -> Vec<Vec<u32>> {
    grads
        .layers
        .iter()
        .flat_map(|(dw, db)| [bits(dw.as_slice()), bits(db)])
        .collect()
}

fn weight_bits(mlp: &Mlp) -> Vec<Vec<u32>> {
    mlp.layers()
        .iter()
        .flat_map(|l| [bits(l.weights().as_slice()), bits(l.bias())])
        .collect()
}

/// Values with exact zeros, negative zeros and both signs mixed in, so the
/// zero skip of `aᵀ·b` and ReLU's mask both fire.
fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| match rng.random_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.random::<f32>() * 4.0 - 2.0,
        })
        .collect();
    Matrix::from_flat(rows, cols, data)
}

/// Two to five layer widths (zero to three hidden layers) that are mostly
/// not multiples of the 16-wide panel, down to one column.
fn dims(rng: &mut StdRng) -> Vec<usize> {
    (0..rng.random_range(2..=5usize))
        .map(|_| match rng.random_range(0..6u32) {
            0 => 1,
            1 => 16,
            2 => 17,
            3 => 33,
            _ => rng.random_range(2..40usize),
        })
        .collect()
}

fn mlp_of(dims: &[usize], seed: u64) -> Mlp {
    Mlp::new(
        dims[0],
        &dims[1..dims.len() - 1],
        dims[dims.len() - 1],
        seed,
    )
}

proptest! {
    /// The packed `Wᵀ` kernel against the scalar `.sum()` dot, any shape.
    #[test]
    fn input_gradient_kernel_is_the_scalar_dot(
        rows in 1usize..9,
        input in 1usize..40,
        output in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let layer = Dense::new(input, output, seed);
        let dy = matrix(&mut StdRng::seed_from_u64(seed), rows, output);
        let mut dx = Matrix::default();
        layer.input_grad_into(&dy, &mut dx);
        let want = matmul_t(&dy, layer.weights());
        prop_assert_eq!(bits(dx.as_slice()), bits(want.as_slice()));
    }

    /// One forward + backward pass against the old step — predictions,
    /// parameter gradients, input gradient — and both grouped forms (one
    /// `dy` row per group, or per batch row) against whole passes over each
    /// group's rows, folded in turn at a scale.
    #[test]
    fn step_matches_the_reference(rows in 1usize..7, cut in 0usize..7, seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = dims(&mut rng);
        let mlp = mlp_of(&dims, seed);
        let x = matrix(&mut rng, rows, dims[0]);
        let dy = matrix(&mut rng, rows, dims[dims.len() - 1]);

        let mut ws = MlpWorkspace::new();
        let mut grads = Gradients::zeros_like(&mlp);
        ws.input_mut().copy_from(&x);
        let pred = mlp.forward_in(&mut ws).clone();
        let (want_pred, cache) = forward_cached(&mlp, &x);
        prop_assert_eq!(bits(pred.as_slice()), bits(want_pred.as_slice()));

        mlp.backward(&mut ws, &dy, None, &[]);
        mlp.fold_into(&ws, &[], 1.0, &mut grads);
        let (want_dx, want) = backward(&mlp, &cache, &dy);
        prop_assert_eq!(grad_bits(&grads), grad_bits(&want));
        let dx = mlp.input_gradient(&mut ws);
        prop_assert_eq!(bits(dx.as_slice()), bits(want_dx.as_slice()));

        // One `dy` row per group, standing for every row of it.
        let cut = cut.min(rows);
        let per_group = matrix(&mut rng, 2, dims[dims.len() - 1]);
        mlp.backward(&mut ws, &per_group, Some(&[cut, rows]), &[]);
        let mut got = Gradients::zeros_like(&mlp);
        mlp.fold_into(&ws, &[], 0.37, &mut got);
        let mut want = Gradients::zeros_like(&mlp);
        for (g, range) in [0..cut, cut..rows].into_iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let picked: Vec<usize> = range.collect();
            let dy = Matrix::from_rows(vec![per_group.row(g); picked.len()]);
            let (_, cache) = forward_cached(&mlp, &x.select_rows(&picked));
            want.accumulate(&backward(&mlp, &cache, &dy).1, 0.37);
        }
        prop_assert_eq!(grad_bits(&got), grad_bits(&want));

        // One `dy` row per batch row, the groups still marking the fold's
        // terms (both groups hold rows: a `dy` with a row per group is read
        // per group).
        if 0 < cut && cut < rows {
            mlp.backward(&mut ws, &dy, Some(&[cut, rows]), &[]);
            let mut got = Gradients::zeros_like(&mlp);
            mlp.fold_into(&ws, &[], 0.37, &mut got);
            let mut want = Gradients::zeros_like(&mlp);
            for range in [0..cut, cut..rows] {
                let picked: Vec<usize> = range.collect();
                let (_, cache) = forward_cached(&mlp, &x.select_rows(&picked));
                let dy = dy.select_rows(&picked);
                want.accumulate(&backward(&mlp, &cache, &dy).1, 0.37);
            }
            prop_assert_eq!(grad_bits(&got), grad_bits(&want));
        }
    }

    /// The register-tiled `aᵀ·b` against the old loop by bits: odd shapes,
    /// signed zeros in `a`, infinities and NaNs in `b` on rows where `a` is
    /// all zero, any tile of rows `i0..` of the product, a `b` row standing
    /// for every row, and a scaled fold onto a live accumulator.
    #[test]
    fn tiled_at_b_is_the_reference_loop(
        rows in 0usize..9,
        m in 1usize..40,
        n in 1usize..40,
        broadcast: bool,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = matrix(&mut rng, rows, m);
        let mut b = matrix(&mut rng, if broadcast { 1 } else { rows }, n);
        for r in 0..rows {
            if rng.random_range(0..3u32) == 0 {
                a.row_mut(r).iter_mut().for_each(|v| *v = [0.0, -0.0][r % 2]);
                if !broadcast {
                    let odd = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
                    b.row_mut(r).iter_mut().for_each(|v| *v = odd[rng.random_range(0..3usize)]);
                }
            }
        }
        let full_b = if broadcast { b.row(0).repeat(rows) } else { b.as_slice().to_vec() };
        let product = t_matmul(&a, &Matrix::from_flat(rows, n, full_b));
        let i0 = rng.random_range(0..m);
        let tile = i0 * n..rng.random_range(i0 + 1..=m) * n;
        // Accumulators never hold `-0.0` (they start at `+0.0`).
        let start: Vec<f32> = (0..tile.len()).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect();
        let scale = [1.0f32, 0.37, -2.0, 1.0 / 3.0][rng.random_range(0..4usize)];
        let mut got = start.clone();
        let a_rows = (a.as_slice().get(i0..).unwrap_or(&[]), m);
        let b_rows = (b.as_slice(), if broadcast { 0 } else { n });
        crate::gemm::at_b_into(a_rows, b_rows, rows, n, scale, &mut got);
        let want: Vec<f32> = start
            .iter()
            .zip(&product.as_slice()[tile])
            .map(|(s, p)| s + p * scale)
            .collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Whole fits against the old trainer: weights and reports, frozen and
    /// unfrozen layers, mini-batches shorter and longer than a shard.
    #[test]
    fn fit_matches_the_reference(
        n in 5usize..200,
        batch in 1usize..200,
        frozen in proptest::collection::vec(0usize..5, 0..3),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = dims(&mut rng);
        let data = Dataset::new(
            matrix(&mut rng, n, dims[0]),
            matrix(&mut rng, n, dims[dims.len() - 1]),
        )
        .expect("non-empty dataset");
        let split = data.split(seed);
        let init = mlp_of(&dims, seed ^ 0x51);
        let settings = TrainSettings { epochs: 3, batch_size: batch, learning_rate: 2e-3, threads: 1 };
        let (want_report, want_model) = fit_split(&settings, &frozen, init.clone(), &split, seed);
        let mut model = init;
        let report = fit(&mut model, split.each_ref(), &frozen, &settings, seed);
        prop_assert!(weight_bits(&model) == weight_bits(&want_model), "weights diverged");
        prop_assert_eq!(bits(&report.valid_history), bits(&want_report.valid_history));
        prop_assert_eq!(
            bits(&[report.valid_mse, report.test_mse]),
            bits(&[want_report.valid_mse, want_report.test_mse])
        );
    }
}

/// All-zero upstream rows against negative weights: every product is
/// `-0.0`, so the sum keeps the sign only if its accumulator started at the
/// `-0.0` that `Iterator::sum::<f32>` folds from. Gradients and weights
/// cannot catch a `+0.0` start (the next product absorbs a zero's sign);
/// this is the one place it shows.
#[test]
fn input_gradient_kernel_folds_from_negative_zero() {
    assert_eq!(
        std::iter::empty::<f32>().sum::<f32>().to_bits(),
        0x8000_0000
    );
    for (input, output) in [(1, 1), (5, 3), (16, 16), (33, 20)] {
        let mut layer = Dense::new(input, output, 7);
        layer.update(|w, _| w.iter_mut().for_each(|w| *w = -w.abs() - 0.5));
        let dy = Matrix::zeros(3, output);
        let mut dx = Matrix::default();
        layer.input_grad_into(&dy, &mut dx);
        let want = matmul_t(&dy, layer.weights());
        assert!(want.as_slice().iter().all(|v| v.to_bits() == 0x8000_0000));
        assert_eq!(bits(dx.as_slice()), bits(want.as_slice()));
    }
}

/// The fold's contract: a mini-batch's gradient is its 64-row groups'
/// terms summed left to right. One whole-batch fit per group count 1..=9
/// (the last group short), where a pairwise tree re-associates from four
/// groups on and a single whole-batch term from two.
#[test]
fn the_fold_is_the_reference_chain() {
    for groups in 1..=9usize {
        let n = groups * FOLD_GROUP_ROWS - 5;
        let mut rng = StdRng::seed_from_u64(groups as u64);
        let data = Dataset::new(matrix(&mut rng, n, 3), matrix(&mut rng, n, 1))
            .expect("non-empty dataset");
        let parts = [data.clone(), data.clone(), data];
        let init = Mlp::new(3, &[5], 1, 2);
        let config = TrainSettings {
            epochs: 1,
            batch_size: n,
            learning_rate: 1e-2,
            threads: 1,
        };
        let (_, want) = fit_split(&config, &[], init.clone(), &parts, 3);
        let mut model = init;
        fit(&mut model, parts.each_ref(), &[], &config, 3);
        assert_eq!(weight_bits(&model), weight_bits(&want), "{groups} groups");
    }
}
