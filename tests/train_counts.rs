//! Heap allocations of the two training loops, counted: after its first
//! mini-batch a training step allocates nothing.
//!
//! Both loops run in workspaces built once per fit (`nn::train`'s shard
//! pass and gradient slots, `ComputeCostModel`'s one `FitBlock`), and each
//! optimizer step repacks a layer's panels into their own buffers. A clone
//! creeping back into the step would cost wall-clock nobody can bound on a
//! shared VM; here it costs a count.
//!
//! The count is taken as a difference: the same fit at 2 and at 6 epochs
//! differs by four epochs of steady state, whatever the set-up and the
//! first mini-batch allocate. What an epoch may still allocate is its end:
//! the validation pass and, when validation improved, the checkpoint clone
//! — a few dozen allocations, independent of how many samples or steps the
//! epoch had. Each fit below runs 50 mini-batches an epoch, so a single
//! allocation per step (let alone per sample) lands above the cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use neuroshard::cost::{ComputeCostModel, ComputeDataset, ComputeSample, TrainSettings};
use neuroshard::nn::{fit, Dataset, Matrix, Mlp};

thread_local! {
    /// Allocations made by this thread (each test fits on its own thread at
    /// `threads: 1`, so tests running side by side do not see each other).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the only addition is a bump of a
// const-initialized thread-local `Cell` without a destructor, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: same block, layout and size, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same block and layout, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_of(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

/// Steady-state allocations per epoch: `fit(epochs)` at 6 epochs minus at 2,
/// over the four epochs between.
fn per_epoch(fit: impl Fn(usize)) -> u64 {
    let short = allocations_of(|| fit(2));
    let long = allocations_of(|| fit(6));
    println!("allocations: {short} over 2 epochs, {long} over 6");
    long.saturating_sub(short).div_ceil(4)
}

/// What one epoch's end may allocate: a validation forward (one matrix per
/// layer and the batch) and a checkpoint clone (weights, bias and packed
/// panels per layer) of a network of at most five layers.
const PER_EPOCH_CAP: u64 = 40;
const STEPS_PER_EPOCH: usize = 50;

#[test]
fn comm_trainer_steps_allocate_nothing() {
    // 1000 rows = 800 training rows = 50 mini-batches of 16 an epoch, on the
    // communication model's 128-64-32-16 network.
    let xs: Vec<Vec<f32>> = (0..1000)
        .map(|i| {
            (0..9)
                .map(|c| ((i * 7 + c * 13) % 31) as f32 / 31.0)
                .collect()
        })
        .collect();
    let ys: Vec<Vec<f32>> = xs.iter().map(|r| vec![r[0] * 3.0 - r[4] + r[8]]).collect();
    let data = Dataset::new(Matrix::from_rows(&xs), Matrix::from_rows(&ys)).unwrap();
    let per_epoch = per_epoch(|epochs| {
        let settings = TrainSettings {
            epochs,
            batch_size: 16,
            learning_rate: 1e-3,
            threads: 1,
        };
        let mut mlp = Mlp::new(9, &[128, 64, 32, 16], 1, 3);
        fit(&mut mlp, data.split(5).each_ref(), &[], &settings, 5);
    });
    assert_eq!(data.split(5)[0].len(), 16 * STEPS_PER_EPOCH);
    assert!(
        per_epoch <= PER_EPOCH_CAP,
        "{per_epoch} allocations an epoch of {STEPS_PER_EPOCH} steps: the step allocates"
    );
}

#[test]
fn compute_model_steps_allocate_nothing() {
    // 500 samples = 400 training samples = 50 mini-batches of 8 an epoch,
    // with 0 to 15 tables a sample.
    let samples = (0..500)
        .map(|i| ComputeSample {
            tables: (0..i % 16)
                .map(|t| {
                    (0..8)
                        .map(|c| ((i + t * 5 + c * 3) % 17) as f32 / 17.0)
                        .collect()
                })
                .collect(),
            cost_ms: (i % 23) as f32 * 0.5,
        })
        .collect();
    let data = ComputeDataset { samples };
    let [train, valid, _] = data.split(9);
    assert_eq!(train.len(), 8 * STEPS_PER_EPOCH);
    let settings = |epochs: usize| TrainSettings {
        epochs,
        batch_size: 8,
        learning_rate: 1e-3,
        threads: 1,
    };
    let pretrain = per_epoch(|epochs| {
        ComputeCostModel::new(4).train(&data, &settings(epochs), 9);
    });
    // The continual learner's default: encoder frozen, head on pooled rows.
    let fine_tune = per_epoch(|epochs| {
        ComputeCostModel::new(4).fine_tune(&train, &valid, &settings(epochs), true, 9);
    });
    for (name, per_epoch) in [("train", pretrain), ("frozen fine_tune", fine_tune)] {
        assert!(
            per_epoch <= PER_EPOCH_CAP,
            "{name}: {per_epoch} allocations an epoch of {STEPS_PER_EPOCH} steps: the step allocates"
        );
    }
}
