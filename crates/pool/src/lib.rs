//! # nshard-pool — the workspace's scoped-thread work pool
//!
//! All external dependencies are vendored offline stand-ins, so there is no
//! rayon here — just [`std::thread::scope`] and a shared work queue.
//! The pool's one operation, [`WorkPool::map`], evaluates a function over a
//! slice and returns the results **in input order**, regardless of which
//! worker ran which item or in what order they finished. Callers build
//! their work list serially, map over it, and fold the results in input
//! order — which is what makes every parallel pipeline in the workspace
//! (the search, the micro-benchmark collectors, the trainer) bit-for-bit
//! identical to its serial counterpart at any thread count.
//!
//! This crate sits at the bottom of the dependency graph so both halves of
//! the paper's *pre-train, and search* pipeline share one pool: `nshard-nn`
//! and `nshard-cost` parallelize training and label collection with it,
//! `nshard-core` parallelizes the plan search, and `nshard-serve` sizes
//! its request worker pool through [`resolve_threads`].
//!
//! [`splitmix64`] / [`sample_seed`] live here too: deterministic fan-out
//! needs per-item seeds that are a pure function of `(seed, index)`, so a
//! dataset or gradient computed by worker 7 is the same one the serial
//! loop would have produced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, PoisonError};

/// SplitMix64: a tiny, high-quality 64-bit mixer (public-domain constants).
///
/// Used wherever the workspace needs an independent RNG stream per work
/// item: mixing `(seed, index)` through SplitMix64 gives every item its own
/// seed with no sequential RNG state shared across items, so results do not
/// depend on which worker processes which item.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for work item `index` of a run seeded with `seed`:
/// `splitmix64(splitmix64(seed) ^ index)`. The double mix keeps related
/// run seeds (e.g. `seed` and `seed + 1`) from producing overlapping
/// per-item streams.
pub fn sample_seed(seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ index)
}

/// Environment variable overriding the worker count (`0` or unparsable
/// values fall back to the available parallelism).
///
/// This is the **single** thread-count knob of the workspace: every
/// component that spawns workers — the parallel search, the repair engine,
/// the online controller, and the `nshard-serve` daemon's request worker
/// pool — resolves its count through [`resolve_threads`], so one
/// environment variable governs them all and no crate re-reads the
/// variable on its own.
pub const THREADS_ENV: &str = "NSHARD_THREADS";

/// Resolves a requested worker count: an explicit nonzero request wins,
/// then a nonzero [`THREADS_ENV`], then the machine's available
/// parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Deterministic retry backoff: the `nshard-serve` replication reconnects
/// derive their delays here instead of keeping ad-hoc constants.
///
/// Two schedules are supported:
///
/// * **exponential** (the default): `base · 2^(attempt−1)`, shift-clamped
///   and saturating;
/// * **decorrelated jitter** ([`Backoff::with_jitter`]): attempt `n` draws
///   uniformly from `[base, min(cap, base · 3^(n−1))]`, with the draw a
///   *pure function* of `(seed, attempt)` via [`splitmix64`] — so jittered
///   delays de-synchronize a fleet of reconnecting followers yet stay
///   bit-reproducible and instant under a manual clock (delays are
///   recorded or stepped, never slept, in tests).
///
/// # Example
///
/// ```
/// use nshard_pool::Backoff;
///
/// let plain = Backoff::exponential(50);
/// assert_eq!(plain.delay_ms(1), 50);
/// assert_eq!(plain.delay_ms(2), 100);
/// assert_eq!(plain.delay_ms(3), 200);
///
/// let jittered = Backoff::exponential(50).with_cap(10_000).with_jitter(7);
/// let d = jittered.delay_ms(4);
/// assert!((50..=1350).contains(&d)); // [base, base·3^3]
/// assert_eq!(d, jittered.delay_ms(4), "pure in (seed, attempt)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    jitter_seed: Option<u64>,
}

impl Backoff {
    /// A plain exponential schedule starting at `base_ms` (no cap, no
    /// jitter).
    pub fn exponential(base_ms: u64) -> Self {
        Self {
            base_ms,
            cap_ms: u64::MAX,
            jitter_seed: None,
        }
    }

    /// Caps every delay at `cap_ms` (builder-style).
    #[must_use]
    pub fn with_cap(mut self, cap_ms: u64) -> Self {
        self.cap_ms = cap_ms;
        self
    }

    /// Switches to seeded decorrelated jitter (builder-style): attempt `n`
    /// draws uniformly from `[base, min(cap, base · 3^(n−1))]`,
    /// deterministically in `(seed, attempt)`.
    #[must_use]
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The base delay, ms.
    pub fn base_ms(&self) -> u64 {
        self.base_ms
    }

    /// The recorded delay before retry `attempt` (1-based), in ms.
    /// `attempt = 0` is treated as the first retry.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let n = attempt.max(1);
        match self.jitter_seed {
            None => {
                // base · 2^(n−1), shift clamped so huge attempt counts
                // saturate instead of overflowing.
                self.base_ms
                    .saturating_mul(1u64 << (n - 1).min(16))
                    .min(self.cap_ms)
            }
            Some(seed) => {
                // Upper bound base · 3^(n−1), capped; then a seeded
                // uniform draw over [base, hi].
                let mut hi = self.base_ms;
                for _ in 1..n.min(24) {
                    hi = hi.saturating_mul(3);
                    if hi >= self.cap_ms {
                        hi = self.cap_ms;
                        break;
                    }
                }
                hi = hi.min(self.cap_ms).max(self.base_ms);
                let span = hi - self.base_ms;
                if span == 0 {
                    return self.base_ms;
                }
                let draw = splitmix64(splitmix64(seed) ^ u64::from(n));
                self.base_ms + draw % (span + 1)
            }
        }
    }
}

/// An order-preserving scoped-thread work pool.
///
/// # Example
///
/// ```
/// use nshard_pool::WorkPool;
///
/// let pool = WorkPool::new(4);
/// let squares = pool.map(&[1, 2, 3, 4, 5], |&x: &i32| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// A pool with the given worker count; `0` means auto (environment
    /// override, then available parallelism) via [`resolve_threads`].
    pub fn new(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
        }
    }

    /// A single-worker pool that never spawns threads — used for nested
    /// work (e.g. the inner grid search inside an already-parallel beam
    /// level) to avoid oversubscription.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// [`WorkPool::for_each_mut`] over the items paired with their output
    /// slots: the calling thread works alongside `threads - 1` spawned
    /// workers, and each result lands in its item's slot, whichever thread
    /// ran it. With one worker (or one item) no thread is spawned. A panic
    /// in `f` propagates to the caller.
    pub fn map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(&T) -> O + Sync,
    {
        if self.threads.min(items.len()) <= 1 {
            return items.iter().map(f).collect();
        }
        let mut out: Vec<Option<O>> = items.iter().map(|_| None).collect();
        self.for_each_mut(out.iter_mut().zip(items), |_, (slot, item)| {
            *slot = Some(f(item));
        });
        out.into_iter()
            .map(|o| o.expect("every item ran"))
            .collect()
    }

    /// Runs `f(index, item)` once for every item of `items`, each on exactly
    /// one thread.
    ///
    /// The in-place twin of [`WorkPool::map`]: the items are typically
    /// disjoint `&mut` borrows (a slice's elements, the tiles of a gradient),
    /// so a caller that keeps its buffers across calls (the trainers'
    /// per-fit workspaces) fans out without allocating an output per item.
    /// Items are claimed one at a time from a shared queue; the calling
    /// thread works alongside `threads - 1` spawned workers (fewer when the
    /// iterator bounds its length lower). With one worker (or one item) no
    /// thread is spawned. A panic in `f` propagates to the caller.
    pub fn for_each_mut<I, F>(&self, items: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: Send,
        I::Item: Send,
        F: Fn(usize, I::Item) + Sync,
    {
        let items = items.into_iter();
        let workers = self.threads.min(items.size_hint().1.unwrap_or(usize::MAX));
        if workers <= 1 {
            items.enumerate().for_each(|(i, item)| f(i, item));
            return;
        }
        let queue = Mutex::new(items.enumerate());
        let work = || loop {
            // The guard is dropped before `f` runs, so a panicking `f` never
            // poisons the queue; an iterator is valid in any state anyway.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else { break };
            f(i, item);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
    }
}

impl Default for WorkPool {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkPool::new(threads);
            assert_eq!(pool.map(&items, |&x: &usize| x * 3), expected);
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_with_its_index() {
        for threads in [1, 2, 3, 8, 64] {
            let mut items = vec![0usize; 100];
            WorkPool::new(threads).for_each_mut(&mut items, |i, item| *item += i + 1);
            let expected: Vec<usize> = (1..=100).collect();
            assert_eq!(items, expected, "at {threads} threads");
        }
        WorkPool::new(4).for_each_mut(&mut [] as &mut [usize], |_, _| unreachable!());
    }

    #[test]
    fn map_works_on_the_calling_thread_and_propagates_panics() {
        let caller = std::thread::current().id();
        let ran_here = std::sync::atomic::AtomicBool::new(false);
        let items: Vec<usize> = (0..64).collect();
        let out = WorkPool::new(2).map(&items, |&x| {
            if std::thread::current().id() == caller {
                ran_here.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            // Long enough that the caller claims an item before the worker
            // has drained the queue.
            std::thread::sleep(std::time::Duration::from_millis(1));
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        assert!(ran_here.into_inner(), "the caller only joined");
        let panicked = std::panic::catch_unwind(|| {
            WorkPool::new(3).map(&items, |&x| assert_ne!(x, 40, "item 40"))
        });
        assert!(panicked.is_err());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = WorkPool::new(8);
        assert_eq!(
            pool.map::<usize, usize, _>(&[], |&x| x),
            Vec::<usize>::new()
        );
        assert_eq!(pool.map(&[7], |&x: &usize| x + 1), vec![8]);
    }

    #[test]
    fn serial_pool_has_one_thread() {
        assert_eq!(WorkPool::serial().threads(), 1);
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(WorkPool::new(5).threads(), 5);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn auto_resolution_is_nonzero() {
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn skewed_work_still_lands_in_order() {
        // Early items sleep longest, so out-of-order completion is likely.
        let items: Vec<u64> = (0..16).collect();
        let pool = WorkPool::new(8);
        let out = pool.map(&items, |&x: &u64| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn sample_seeds_are_distinct_and_deterministic() {
        assert_eq!(sample_seed(1, 2), sample_seed(1, 2));
        let mut seen: Vec<u64> = (0..1000).map(|i| sample_seed(42, i)).collect();
        // Adjacent run seeds must not collide with each other's streams.
        seen.extend((0..1000).map(|i| sample_seed(43, i)));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 2000, "per-item seeds collided");
    }

    #[test]
    fn exponential_backoff_doubles_from_its_base_and_saturates() {
        let b = Backoff::exponential(50);
        assert_eq!(b.delay_ms(0), 50, "attempt 0 is treated as the first");
        assert_eq!(b.delay_ms(1), 50);
        assert_eq!(b.delay_ms(2), 100);
        assert_eq!(b.delay_ms(5), 800);
        // Shift-clamped and saturating far out.
        assert_eq!(b.delay_ms(17), 50 * (1 << 16));
        assert_eq!(b.delay_ms(400), 50 * (1 << 16));
        assert_eq!(Backoff::exponential(u64::MAX).delay_ms(9), u64::MAX);
        // Cap applies.
        assert_eq!(Backoff::exponential(50).with_cap(120).delay_ms(3), 120);
    }

    #[test]
    fn jittered_backoff_is_pure_bounded_and_spread() {
        let b = Backoff::exponential(100).with_cap(5_000).with_jitter(42);
        for attempt in 1..10 {
            let d = b.delay_ms(attempt);
            assert_eq!(d, b.delay_ms(attempt), "pure in (seed, attempt)");
            assert!((100..=5_000).contains(&d), "attempt {attempt} gave {d}");
        }
        // First retry has no room to jitter: span is [base, base].
        assert_eq!(b.delay_ms(1), 100);
        // Different seeds de-synchronize.
        let other = Backoff::exponential(100).with_cap(5_000).with_jitter(43);
        assert!(
            (2..12).any(|a| b.delay_ms(a) != other.delay_ms(a)),
            "two seeds should not produce identical schedules"
        );
        // Degenerate zero-base schedule stays sane.
        assert_eq!(Backoff::exponential(0).with_jitter(1).delay_ms(1), 0);
    }

    #[test]
    fn splitmix_matches_reference_values() {
        // Reference values from the public-domain splitmix64 test vector
        // property: mixing 0 twice gives two distinct well-mixed words.
        let a = splitmix64(0);
        let b = splitmix64(a);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
