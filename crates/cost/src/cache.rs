//! Life-long prediction cache for computation costs.
//!
//! The search's hot loop asks the computation cost model for the cost of a
//! *device's current table set* over and over; small changes to the
//! column-wise plan or the `max_dim` constraint barely change those sets,
//! so the paper memoizes predictions in a "life-long hash map" and reports
//! > 95% hit rates (Table 3). This cache is keyed by an order-insensitive
//! > fingerprint of the table set and tracks hit statistics.
//!
//! Two properties matter for the parallel search runtime:
//!
//! * the cache is resolved **a batch at a time**: one map behind one
//!   reader-writer lock, read under one shared lock per batch and written
//!   under one exclusive lock per batch's misses, with the hit/miss
//!   counters in atomics — a search thread takes two locks per batch of a
//!   few hundred probes, not one per probe;
//! * the set fingerprint is built by **commutative addition** of per-table
//!   hashes, which makes it incrementally updatable: [`TableSetKey`] adds
//!   or removes one table in O(1), so the greedy allocator never rehashes
//!   a device's whole table set per probe.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use nshard_nn::Matrix;
use nshard_sim::TableProfile;

/// A pass-through [`Hasher`] for keys that are already avalanche-mixed
/// 64-bit fingerprints (every key in this crate goes through the private
/// `avalanche` finalizer). Re-hashing such keys with SipHash is pure overhead on
/// the search hot path, so maps keyed by them use the key bits directly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PreMixedHasher(u64);

impl Hasher for PreMixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (never hit for u64 keys): FNV-1a fold.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// [`BuildHasher`] for [`PreMixedHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BuildPreMixed;

impl BuildHasher for BuildPreMixed {
    type Hasher = PreMixedHasher;

    fn build_hasher(&self) -> PreMixedHasher {
        PreMixedHasher::default()
    }
}

/// A hash map keyed by pre-mixed `u64` fingerprints (no re-hashing).
pub(crate) type PreMixedMap<V> = HashMap<u64, V, BuildPreMixed>;

/// Accumulator seed of the empty set.
const KEY_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// FNV-style hash of one table profile (the per-table term of the set key).
/// Folds every cost-relevant field, including the communication share, so a
/// replica of a table never aliases the unreplicated shard in the cache.
fn table_hash(t: &TableProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bits in [
        u64::from(t.dim()),
        t.hash_size(),
        t.pooling_factor().to_bits(),
        t.unique_frac().to_bits(),
        t.zipf_alpha().to_bits(),
        t.comm_share().to_bits(),
    ] {
        h ^= bits;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Avalanche-mixed fingerprint of a single table profile — the key of the
/// per-table [`EncodingCache`]. Distinct from [`table_set_key`] of the
/// singleton set (which goes through the commutative accumulator).
pub(crate) fn table_key(t: &TableProfile) -> u64 {
    avalanche(table_hash(t))
}

/// Final avalanche mix applied on top of the commutative accumulator.
fn avalanche(acc: u64) -> u64 {
    let mut z = acc;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-insensitive fingerprint of a set of table profiles.
///
/// Built by hashing each table independently and combining with addition
/// (commutative), then mixing; two permutations of the same multiset always
/// collide on purpose, and distinct sets collide with probability ≈ 2⁻⁶⁴.
pub(crate) fn table_set_key(tables: &[TableProfile]) -> u64 {
    TableSetKey::of(tables).key()
}

/// An incrementally maintainable table-set fingerprint.
///
/// Holds the pre-avalanche commutative accumulator, so adding or removing
/// one table is O(1) (`wrapping_add` / `wrapping_sub` of that table's
/// hash) instead of rehashing the whole set. [`TableSetKey::key`] applies
/// the final avalanche and equals the key [`TableSetKey::of`] builds for
/// the same multiset in any order.
///
/// # Example
///
/// ```
/// use nshard_cost::TableSetKey;
/// use nshard_sim::TableProfile;
///
/// let a = TableProfile::new(16, 1 << 18, 10.0, 0.5, 1.0);
/// let b = TableProfile::new(64, 1 << 20, 12.0, 0.3, 1.1);
/// let mut key = TableSetKey::empty();
/// key.add(&a);
/// key.add(&b);
/// assert_eq!(key.key(), TableSetKey::of(&[b, a]).key());
/// key.remove(&a);
/// assert_eq!(key, TableSetKey::empty().with(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableSetKey {
    acc: u64,
}

impl TableSetKey {
    /// The key of the empty set.
    pub fn empty() -> Self {
        Self { acc: KEY_SEED }
    }

    /// The key of a full multiset (O(n), the from-scratch construction).
    pub fn of(tables: &[TableProfile]) -> Self {
        let mut k = Self::empty();
        for t in tables {
            k.add(t);
        }
        k
    }

    /// Adds one table to the multiset, in place. O(1).
    pub fn add(&mut self, t: &TableProfile) {
        self.acc = self.acc.wrapping_add(table_hash(t));
    }

    /// Removes one table from the multiset, in place. O(1). The caller is
    /// responsible for only removing tables previously added.
    pub fn remove(&mut self, t: &TableProfile) {
        self.acc = self.acc.wrapping_sub(table_hash(t));
    }

    /// The key with `t` added, by value — the greedy allocator's probe
    /// pattern ("what if this table joined this device?").
    #[must_use]
    pub fn with(mut self, t: &TableProfile) -> Self {
        self.add(t);
        self
    }

    /// The final cache key (avalanche-mixed accumulator).
    pub fn key(self) -> u64 {
        avalanche(self.acc)
    }
}

impl Default for TableSetKey {
    fn default() -> Self {
        Self::empty()
    }
}

/// A hit/miss counter snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a model forward.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// The counter delta since an earlier snapshot (saturating).
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }

    /// Accumulates another delta into this one.
    pub fn absorb(&mut self, delta: &CacheStats) {
        self.hits += delta.hits;
        self.misses += delta.misses;
    }
}

/// A thread-safe memoization cache with hit-rate accounting: one map
/// behind one reader-writer lock, resolved a batch at a time
/// ([`PredictionCache::resolve`]). The counters are atomics; they are
/// statistics that publish no other data, hence `Relaxed`.
///
/// Every probed key is one lookup, and a miss is an entry stored: the
/// first position of a batch to ask for an absent key is its miss unless
/// another thread stored that key while this batch computed it, and every
/// other lookup is a hit. So the misses equal [`PredictionCache::len`] at
/// any thread count, as the serial path counts them.
///
/// # Example
///
/// ```
/// use nshard_cost::PredictionCache;
///
/// let cache = PredictionCache::default();
/// let out = cache.resolve(&[42, 7, 42], |firsts| {
///     assert_eq!(firsts, [0, 1]); // 42 and 7 must be computed...
///     vec![3.5, 1.0]
/// });
/// assert_eq!(out, [3.5, 1.0, 3.5]); // ...and the second 42 is a hit
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
/// ```
#[derive(Debug, Default)]
pub struct PredictionCache {
    map: BatchMap<f64>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The positions of one batch whose keys a map did not hold: the first
/// position asking for each absent key, in batch order, and every position
/// asking for one with the index of its key in `firsts`. Reused per
/// thread; each batch starts afresh.
#[derive(Debug, Default)]
struct BatchMisses {
    /// Absent key → its index in `firsts`.
    pending: PreMixedMap<usize>,
    firsts: Vec<usize>,
    slots: Vec<(usize, usize)>,
}

thread_local! {
    static BATCH_MISSES: Cell<BatchMisses> = Cell::default();
}

/// A life-long map from pre-mixed keys, resolved a batch at a time: the
/// store behind both caches.
#[derive(Debug, Default)]
pub(crate) struct BatchMap<V>(RwLock<PreMixedMap<V>>);

/// Life-long cache of per-table *encoder outputs*.
///
/// The computation cost model is a DeepSets regressor: a shared encoder
/// maps each table to a fixed-width row, the rows of a device's table set
/// are summed, and a small head maps the sum to a cost. Encoder rows are
/// pure functions of one table — bit-identical whether computed alone or
/// inside any batch — so the search caches them life-long and rebuilds a
/// set's pooled representation by folding cached rows, skipping the
/// encoder (the bulk of the inference FLOPs) for every table it has seen
/// before. Keyed by [`table_key`]; the first encoding stored for a table
/// wins, and every computed encoding of it is bit-identical anyway.
pub(crate) type EncodingCache = BatchMap<Box<[f32]>>;

impl<V: Clone> BatchMap<V> {
    /// Resolves one batch of keys. Looks every key up under one shared
    /// lock, handing each value found to `hit(position, value)`. Unless all
    /// were found, `compute` then gets the first position asking for each
    /// absent key, in batch order, and returns their values in that order;
    /// they are stored under one exclusive lock and, once it is released,
    /// handed to `hit` for every position asking for them. No lock is held
    /// while `compute` or `hit` on a computed value runs, and a value
    /// another thread stored first wins, keeping reads stable. Returns how
    /// many entries this call stored: the computed keys whose slot was
    /// still vacant when it stored them.
    ///
    /// # Panics
    ///
    /// Panics if `compute` does not return one value per position it got.
    pub(crate) fn resolve(
        &self,
        keys: &[u64],
        mut hit: impl FnMut(usize, &V),
        compute: impl FnOnce(&[usize]) -> Vec<V>,
    ) -> usize {
        let mut misses = BATCH_MISSES.take();
        misses.pending.clear();
        misses.firsts.clear();
        misses.slots.clear();
        let found = self.0.read();
        for (i, key) in keys.iter().enumerate() {
            if let Some(value) = found.get(key) {
                hit(i, value);
                continue;
            }
            let first = *misses.pending.entry(*key).or_insert(misses.firsts.len());
            if first == misses.firsts.len() {
                misses.firsts.push(i);
            }
            misses.slots.push((i, first));
        }
        drop(found);
        let mut inserted = 0;
        if !misses.firsts.is_empty() {
            let values = compute(&misses.firsts);
            assert_eq!(values.len(), misses.firsts.len(), "one value per miss");
            let mut stored = self.0.write();
            let before = stored.len();
            let served: Vec<V> = (misses.firsts.iter().zip(values))
                .map(|(&i, value)| stored.entry(keys[i]).or_insert(value).clone())
                .collect();
            inserted = stored.len() - before;
            drop(stored);
            for &(i, first) in &misses.slots {
                hit(i, &served[first]);
            }
        }
        BATCH_MISSES.set(misses);
        inserted
    }

    /// Number of distinct entries stored.
    pub(crate) fn len(&self) -> usize {
        self.0.read().len()
    }
}

impl PredictionCache {
    /// Resolves one batch of keys and returns the value the cache holds
    /// for each, in key order: one shared lock to look them up, then —
    /// unless all were found — `compute` for the first position asking for
    /// each absent key, in batch order, and one exclusive lock to store
    /// what it returns in that order. No lock is held while `compute`
    /// runs, and a value another thread stored first wins, keeping reads
    /// stable; the key counts as a hit here, as the other thread's miss.
    ///
    /// # Panics
    ///
    /// Panics if `compute` does not return one value per position it got.
    pub fn resolve(&self, keys: &[u64], compute: impl FnOnce(&[usize]) -> Vec<f64>) -> Vec<f64> {
        let mut out = vec![f64::NAN; keys.len()];
        let stored = self.map.resolve(keys, |i, &v| out[i] = v, compute);
        self.hits
            .fetch_add((keys.len() - stored) as u64, Ordering::Relaxed);
        self.misses.fetch_add(stored as u64, Ordering::Relaxed);
        out
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct entries stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records `n` misses without storing an entry — used when caching is
    /// disabled (the "w/o caching" ablation) so hit rates report as 0%.
    pub(crate) fn count_misses(&self, n: usize) {
        self.misses.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// The encoder rows of one table list, fetched once (see
/// `CostSimulator::table_encodings`) and read without any lock afterwards:
/// row `i` is the encoding of the list's `i`-th table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEncodings {
    rows: Matrix,
}

impl TableEncodings {
    /// Wraps one encoder row per table.
    pub(crate) fn new(rows: Matrix) -> Self {
        Self { rows }
    }

    /// Width of one encoding (the cost model's pooled-representation
    /// dimension).
    pub fn width(&self) -> usize {
        self.rows.cols()
    }

    /// The encoding of table `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        self.rows.row(i)
    }

    /// One step of the sum-pooling left fold: element-wise adds table
    /// `i`'s encoding into `acc`. Folding a set's tables this way from an
    /// all-zero `acc`, in set order, is bit for bit the pooled row the
    /// fused forward builds.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is not [`TableEncodings::width`] wide.
    pub fn add_to(&self, i: usize, acc: &mut [f32]) {
        add_encoding(acc, self.row(i));
    }
}

/// `acc += encoding`, element-wise — the one fold step every pooled
/// representation is built from.
pub(crate) fn add_encoding(acc: &mut [f32], encoding: &[f32]) {
    assert_eq!(encoding.len(), acc.len(), "encoding width mismatch");
    for (a, &e) in acc.iter_mut().zip(encoding) {
        *a += e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(dim: u32, rows: u64) -> TableProfile {
        TableProfile::new(dim, rows, 10.0, 0.5, 1.0)
    }

    /// One batch with every miss computed as `compute(key)`.
    fn resolve(cache: &PredictionCache, keys: &[u64], compute: impl Fn(u64) -> f64) -> Vec<f64> {
        cache.resolve(keys, |firsts| {
            firsts.iter().map(|&i| compute(keys[i])).collect()
        })
    }

    /// A one-key batch.
    fn lookup(cache: &PredictionCache, key: u64, computed: f64) -> f64 {
        resolve(cache, &[key], |_| computed)[0]
    }

    #[test]
    fn key_is_order_insensitive() {
        let a = [t(4, 100), t(8, 200), t(16, 300)];
        let b = [t(16, 300), t(4, 100), t(8, 200)];
        assert_eq!(table_set_key(&a), table_set_key(&b));
    }

    #[test]
    fn key_distinguishes_different_sets() {
        assert_ne!(table_set_key(&[t(4, 100)]), table_set_key(&[t(8, 100)]));
        assert_ne!(
            table_set_key(&[t(4, 100)]),
            table_set_key(&[t(4, 100), t(4, 100)])
        );
        assert_ne!(table_set_key(&[]), table_set_key(&[t(4, 100)]));
    }

    #[test]
    fn incremental_add_remove_matches_from_scratch() {
        let a = t(4, 100);
        let b = t(8, 200);
        let c = t(16, 300);
        let mut key = TableSetKey::empty();
        key.add(&a);
        key.add(&b);
        key.add(&c);
        assert_eq!(key.key(), table_set_key(&[a, b, c]));
        key.remove(&b);
        assert_eq!(key.key(), table_set_key(&[a, c]));
        assert_eq!(key.with(&b).key(), table_set_key(&[a, b, c]));
        key.remove(&a);
        key.remove(&c);
        assert_eq!(key, TableSetKey::empty());
        assert_eq!(key.key(), table_set_key(&[]));
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let cache = PredictionCache::default();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        lookup(&cache, 1, 1.0);
        lookup(&cache, 1, 2.0);
        lookup(&cache, 2, 3.0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
        assert!((cache.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_value_wins() {
        let cache = PredictionCache::default();
        lookup(&cache, 9, 5.0);
        assert_eq!(lookup(&cache, 9, 99.0), 5.0);
    }

    #[test]
    fn batch_primitives_account_consistently() {
        let cache = PredictionCache::default();
        let out = cache.resolve(&[7, 8, 7, 7], |firsts| {
            assert_eq!(firsts, [0, 1]);
            // A racing batch stores key 7 while this one computes (no lock
            // is held): it wins, and this batch's repeats read its value too.
            assert_eq!(lookup(&cache, 7, 9.9), 9.9);
            vec![1.5, 2.5]
        });
        assert_eq!(out, [9.9, 2.5, 9.9, 9.9]);
        // Key 7 is the racer's miss and 8 this batch's; the rest are hits.
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 2 });
        assert_eq!(cache.len(), 2);
        // A batch that finds every key counts only hits and computes nothing.
        cache.resolve(&[7, 8, 7, 7], |_| unreachable!("every key is cached"));
        assert_eq!(cache.stats(), CacheStats { hits: 7, misses: 2 });
    }

    #[test]
    fn racing_batches_count_one_miss_per_entry() {
        // Both threads find key 42 absent and compute it; the barrier
        // holds each inside `compute` until the other has looked too. One
        // stores the entry, and the other reads it back as a hit.
        let cache = PredictionCache::default();
        let both_looked = std::sync::Barrier::new(2);
        let values: Vec<f64> = std::thread::scope(|scope| {
            let racers: Vec<_> = [1.0, 2.0]
                .into_iter()
                .map(|value| {
                    let (cache, both_looked) = (&cache, &both_looked);
                    scope.spawn(move || {
                        cache.resolve(&[42], |_| {
                            both_looked.wait();
                            vec![value]
                        })[0]
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(
            values[0].to_bits(),
            values[1].to_bits(),
            "first stored wins"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn stats_since_delta() {
        let a = CacheStats {
            hits: 10,
            misses: 5,
        };
        let b = CacheStats {
            hits: 14,
            misses: 6,
        };
        let d = b.since(&a);
        assert_eq!(d, CacheStats { hits: 4, misses: 1 });
        let mut acc = CacheStats::default();
        acc.absorb(&d);
        acc.absorb(&d);
        assert_eq!(acc.total(), 10);
    }

    #[test]
    fn cache_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PredictionCache>();
        assert_send_sync::<TableSetKey>();
        assert_send_sync::<EncodingCache>();
        assert_send_sync::<TableEncodings>();
    }

    #[test]
    fn table_key_distinguishes_tables() {
        assert_eq!(table_key(&t(4, 100)), table_key(&t(4, 100)));
        assert_ne!(table_key(&t(4, 100)), table_key(&t(8, 100)));
        assert_ne!(table_key(&t(4, 100)), table_key(&t(4, 200)));
    }

    #[test]
    fn encoding_cache_reads_rows_and_first_value_wins() {
        let cache = EncodingCache::default();
        assert_eq!(cache.len(), 0);
        let boxed = |v: [f32; 2]| Box::<[f32]>::from(v);
        let mut rows = Matrix::from_flat(3, 2, vec![7.0; 6]);
        cache.resolve(
            &[5, 6, 5],
            |i, encoding| rows.row_mut(i).copy_from_slice(encoding),
            |firsts| {
                assert_eq!(firsts, [0, 1]);
                // A racing batch stores table 5 while this one encodes:
                // it wins, and this batch's repeat of 5 reads it too.
                cache.resolve(&[5], |_, _| {}, |_| vec![boxed([0.5, 0.25])]);
                vec![boxed([9.0, 9.0]), boxed([1.0, 2.0])]
            },
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(rows.as_slice(), [0.5, 0.25, 1.0, 2.0, 0.5, 0.25]);
        // Known tables are read back without encoding anything.
        let mut rows = Matrix::from_flat(2, 2, vec![7.0; 4]);
        cache.resolve(
            &[6, 5],
            |i, encoding| rows.row_mut(i).copy_from_slice(encoding),
            |_| unreachable!("every table is known"),
        );
        assert_eq!(rows.as_slice(), [1.0, 2.0, 0.5, 0.25]);

        let encodings = TableEncodings::new(rows);
        assert_eq!(encodings.width(), 2);
        assert_eq!(encodings.row(1), [0.5, 0.25]);
        let mut acc = vec![1.0f32, 2.0];
        encodings.add_to(1, &mut acc);
        encodings.add_to(1, &mut acc);
        assert_eq!(acc, [2.0, 2.5]);
    }

    #[test]
    fn concurrent_hammer_keeps_stats_consistent() {
        // Many threads released together onto the same 64 keys, each
        // resolving batches of 16 probes with repeats, and each computing
        // its own value for a miss: every probe is counted exactly once, so
        // hits + misses equals the keys probed regardless of interleaving;
        // the first value stored for a key is the one every thread reads;
        // and the cache keeps one entry per distinct key.
        const THREADS: u64 = 8;
        const BATCHES: u64 = 250;
        const BATCH: u64 = 16;
        let cache = PredictionCache::default();
        let start = std::sync::Barrier::new(THREADS as usize);
        let seen: Vec<Vec<(u64, f64)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, start) = (&cache, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut seen = Vec::new();
                        for b in 0..BATCHES {
                            let keys: Vec<u64> = (0..BATCH)
                                .map(|i| avalanche((b * 7 + i * i) % 64))
                                .collect();
                            let out = resolve(cache, &keys, |key| (key % 1000) as f64 + t as f64);
                            seen.extend(keys.into_iter().zip(out));
                        }
                        seen
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let stats = cache.stats();
        assert_eq!(stats.total(), THREADS * BATCHES * BATCH);
        assert_eq!(cache.len(), 64);
        assert_eq!(stats.misses, 64, "one miss per entry stored");
        assert!(stats.hits > stats.misses, "repeated keys should mostly hit");
        let mut stored = PreMixedMap::default();
        for &(key, value) in seen.iter().flatten() {
            let first = *stored.entry(key).or_insert(value);
            assert_eq!(
                first.to_bits(),
                value.to_bits(),
                "key {key} read two values"
            );
        }
        let keys: Vec<u64> = stored.keys().copied().collect();
        let now = resolve(&cache, &keys, |_| f64::NAN);
        for (key, value) in keys.iter().zip(now) {
            assert_eq!(value.to_bits(), stored[key].to_bits());
        }
    }

    proptest! {
        #[test]
        fn key_deterministic(dims in proptest::collection::vec(1u32..64, 0..8)) {
            let tables: Vec<TableProfile> = dims.iter().map(|&d| t(d * 4, 1000)).collect();
            prop_assert_eq!(table_set_key(&tables), table_set_key(&tables));
        }

        #[test]
        fn incremental_key_equals_from_scratch(
            dims in proptest::collection::vec(1u32..64, 0..10),
            remove_mask in 0u32..1024,
        ) {
            let tables: Vec<TableProfile> = dims
                .iter()
                .enumerate()
                .map(|(i, &d)| t(d * 4, 500 + i as u64 * 37))
                .collect();
            // Build incrementally, compare against the from-scratch key.
            let mut key = TableSetKey::empty();
            for tab in &tables {
                key.add(tab);
            }
            prop_assert_eq!(key.key(), table_set_key(&tables));
            // Remove a subset; the incremental key must equal the
            // from-scratch key of the remaining multiset.
            let mut remaining: Vec<TableProfile> = Vec::new();
            for (i, tab) in tables.iter().enumerate() {
                if remove_mask & (1 << i) != 0 {
                    key.remove(tab);
                } else {
                    remaining.push(*tab);
                }
            }
            prop_assert_eq!(key.key(), table_set_key(&remaining));
        }
    }
}
