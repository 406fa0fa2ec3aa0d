//! # nshard-pool — the workspace's scoped-thread work pool
//!
//! All external dependencies are vendored offline stand-ins, so there is no
//! rayon here — just [`std::thread::scope`] and a shared work queue.
//! The pool's main operation, [`WorkPool::map`], evaluates a function over a
//! slice and returns the results **in input order**, regardless of which
//! worker ran which item or in what order they finished. Callers build
//! their work list serially, map over it, and fold the results in input
//! order — which is what makes every parallel pipeline in the workspace
//! (the search, the micro-benchmark collectors) bit-for-bit identical to
//! its serial counterpart at any thread count. [`WorkPool::join`] runs two
//! independent closures side by side.
//!
//! This crate sits at the bottom of the dependency graph so both halves of
//! the paper's *pre-train, and search* pipeline share one pool: `nshard-cost`
//! parallelizes label collection with `map` and fits its three cost models
//! in two `join` lanes (a single fit is serial), `nshard-online`'s learner
//! fine-tunes in the same two lanes, `nshard-core` parallelizes the plan
//! search, and `nshard-serve` sizes its request worker pool through
//! [`resolve_threads`].
//!
//! [`splitmix64`] / [`sample_seed`] live here too: deterministic fan-out
//! needs per-item seeds that are a pure function of `(seed, index)`, so a
//! sample computed by worker 7 is the one the serial loop would have
//! produced.

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
/// component that spawns workers — the parallel search, the incremental
/// planner, and the `nshard-serve` daemon's request worker pool — resolves its count through [`resolve_threads`], so one
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

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// Items are claimed one at a time from a shared queue; the calling
    /// thread works alongside `threads - 1` spawned workers (fewer when
    /// there are fewer items), and each result lands in its item's slot,
    /// whichever thread ran it. With one worker (or one item) no thread is
    /// spawned. A panic in `f` propagates to the caller.
    pub fn map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(&T) -> O + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let mut out: Vec<Option<O>> = items.iter().map(|_| None).collect();
        let queue = Mutex::new(out.iter_mut().zip(items));
        let work = || loop {
            // The guard is dropped before `f` runs, so a panicking `f` never
            // poisons the queue; an iterator is valid in any state anyway.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((slot, item)) = next else { break };
            *slot = Some(f(item));
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        out.into_iter()
            .map(|o| o.expect("every item ran"))
            .collect()
    }

    /// Runs `a` and `b` side by side and returns both results: `a` on one
    /// spawned worker while the calling thread runs `b`. With one worker
    /// no thread is spawned: `a` runs, then `b`. A panic in either
    /// propagates to the caller (after the other has finished).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB,
        RA: Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        std::thread::scope(|scope| {
            let a = scope.spawn(a);
            let rb = b();
            let ra = a.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (ra, rb)
        })
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
    fn join_returns_both_results_and_propagates_panics() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 8] {
            let pool = WorkPool::new(threads);
            let (a, b) = pool.join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!(b, caller, "b runs on the caller");
            assert_eq!(
                a == caller,
                threads == 1,
                "a is spawned from two workers up"
            );
            let mut order = Vec::new();
            let (x, y) = pool.join(|| 6 * 7, || order.push("b"));
            assert_eq!((x, y, order), (42, (), vec!["b"]));
            let panicked = std::panic::catch_unwind(|| pool.join(|| panic!("lane a"), || 1));
            assert!(panicked.is_err(), "at {threads} threads");
            let panicked = std::panic::catch_unwind(|| pool.join(|| 1, || panic!("lane b")));
            assert!(panicked.is_err(), "at {threads} threads");
        }
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
    fn splitmix_matches_reference_values() {
        // Reference values from the public-domain splitmix64 test vector
        // property: mixing 0 twice gives two distinct well-mixed words.
        let a = splitmix64(0);
        let b = splitmix64(a);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
