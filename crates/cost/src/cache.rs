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
//! * the cache is **sharded** into a power-of-two number of mutex-guarded
//!   segments selected by key bits, so concurrent search threads rarely
//!   contend on the same lock; hit/miss statistics are kept per shard and
//!   summed on read, so global accounting survives sharding;
//! * the set fingerprint is built by **commutative addition** of per-table
//!   hashes, which makes it incrementally updatable: [`TableSetKey`] adds
//!   or removes one table in O(1), so the greedy allocator never rehashes
//!   a device's whole table set per probe.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use nshard_nn::Matrix;
use nshard_sim::TableProfile;

/// A pass-through [`Hasher`] for keys that are already avalanche-mixed
/// 64-bit fingerprints (every key in this crate goes through the private
/// `avalanche` finalizer). Re-hashing such keys with SipHash is pure overhead on
/// the search hot path, so maps keyed by them use the key bits directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreMixedHasher(u64);

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
pub struct BuildPreMixed;

impl BuildHasher for BuildPreMixed {
    type Hasher = PreMixedHasher;

    fn build_hasher(&self) -> PreMixedHasher {
        PreMixedHasher::default()
    }
}

/// A hash map keyed by pre-mixed `u64` fingerprints (no re-hashing).
pub type PreMixedMap<V> = HashMap<u64, V, BuildPreMixed>;

/// Accumulator seed of the empty set.
const KEY_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Number of mutex-guarded cache segments. Must be a power of two; 16 is
/// plenty for the ≤ 64 search threads we expect while keeping the stats
/// sweep (one lock per shard) cheap.
const NUM_SHARDS: usize = 16;

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
pub fn table_key(t: &TableProfile) -> u64 {
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
pub fn table_set_key(tables: &[TableProfile]) -> u64 {
    TableSetKey::of(tables).key()
}

/// An incrementally maintainable table-set fingerprint.
///
/// Holds the pre-avalanche commutative accumulator, so adding or removing
/// one table is O(1) (`wrapping_add` / `wrapping_sub` of that table's
/// hash) instead of rehashing the whole set. [`TableSetKey::key`] applies
/// the final avalanche and equals [`table_set_key`] of the same multiset.
///
/// # Example
///
/// ```
/// use nshard_cost::cache::{table_set_key, TableSetKey};
/// use nshard_sim::TableProfile;
///
/// let a = TableProfile::new(16, 1 << 18, 10.0, 0.5, 1.0);
/// let b = TableProfile::new(64, 1 << 20, 12.0, 0.3, 1.1);
/// let mut key = TableSetKey::empty();
/// key.add(&a);
/// key.add(&b);
/// assert_eq!(key.key(), table_set_key(&[a, b]));
/// key.remove(&a);
/// assert_eq!(key.key(), table_set_key(&[b]));
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

/// A hit/miss counter snapshot, summed across cache shards.
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

/// A thread-safe memoization cache with hit-rate accounting, sharded into
/// 16 independently locked segments selected by key bits.
///
/// # Example
///
/// ```
/// use nshard_cost::PredictionCache;
///
/// let cache = PredictionCache::new();
/// assert_eq!(cache.get_counted(42), None);
/// assert_eq!(cache.insert_miss(42, 3.5), 3.5);
/// assert_eq!(cache.get_counted(42), Some(3.5));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug)]
pub struct PredictionCache {
    shards: Vec<Mutex<Shard>>,
}

#[derive(Debug, Default)]
struct Shard {
    map: PreMixedMap<f64>,
    hits: u64,
    misses: u64,
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PredictionCache {
    /// Creates an empty cache with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(NUM_SHARDS)
    }

    /// Creates an empty cache with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    pub fn with_shards(shards: usize) -> Self {
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a nonzero power of two, got {shards}"
        );
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // Keys are avalanche-mixed, so the low bits are uniform.
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    /// Returns the cached value for `key`, counting a hit if present. A
    /// miss is *not* counted — batch callers pair this with
    /// [`PredictionCache::insert_miss`] once they have computed the value.
    pub fn get_counted(&self, key: u64) -> Option<f64> {
        let mut shard = self.shard(key).lock();
        match shard.map.get(&key) {
            Some(&v) => {
                shard.hits += 1;
                Some(v)
            }
            None => None,
        }
    }

    /// Counts one hit against `key`'s shard without touching the map —
    /// used for in-batch duplicate keys, which the serial path would have
    /// answered from the cache.
    pub fn record_hit(&self, key: u64) {
        self.shard(key).lock().hits += 1;
    }

    /// Counts one miss against `key` and stores its computed `value`, under
    /// one lock. Returns the value the cache now holds: `value`, unless
    /// another thread stored one first (the first value wins, keeping reads
    /// stable).
    pub fn insert_miss(&self, key: u64, value: f64) -> f64 {
        let mut shard = self.shard(key).lock();
        shard.misses += 1;
        *shard.map.entry(key).or_insert(value)
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits).sum()
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().misses).sum()
    }

    /// One coherent snapshot of the summed hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.shards {
            let s = s.lock();
            out.hits += s.hits;
            out.misses += s.misses;
        }
        out
    }

    /// Hit rate in `[0, 1]`; 0 when the cache has not been queried.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// Number of distinct entries stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Clears entries and statistics.
    pub fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock();
            s.map.clear();
            s.hits = 0;
            s.misses = 0;
        }
    }

    /// Records a miss without storing an entry — used when caching is
    /// disabled (the "w/o caching" ablation) so hit rates report as 0%.
    pub fn count_miss(&self) {
        self.shards[0].lock().misses += 1;
    }

    /// Resets only the hit/miss statistics, keeping the entries (used
    /// between experiment phases so hit rates are attributable).
    pub fn reset_stats(&self) {
        for s in &self.shards {
            let mut s = s.lock();
            s.hits = 0;
            s.misses = 0;
        }
    }
}

/// Life-long cache of per-table *encoder outputs*.
///
/// The computation cost model is a DeepSets regressor: a shared encoder
/// maps each table to a fixed-width row, the rows of a device's table set
/// are summed, and a small head maps the sum to a cost. Encoder rows are
/// pure functions of one table — bit-identical whether computed alone or
/// inside any batch — so the search caches them life-long and rebuilds a
/// set's pooled representation by folding cached rows, skipping the
/// encoder (the bulk of the inference FLOPs) for every table it has seen
/// before. Keyed by [`table_key`]. A batch of reads takes the shared lock
/// once ([`EncodingCache::read_rows`]); inserting a newly seen table takes
/// the write lock.
#[derive(Debug, Default)]
pub struct EncodingCache {
    map: RwLock<PreMixedMap<Box<[f32]>>>,
}

impl EncodingCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an encoding unless one is already present (the first value
    /// wins; every computed encoding for a key is bit-identical anyway).
    pub fn insert_if_absent(&self, key: u64, encoding: Box<[f32]>) {
        self.map.write().entry(key).or_insert(encoding);
    }

    /// Copies the cached encoding of `keys[i]` into row `i` of `rows`, all
    /// under one shared lock. Returns the positions whose key has no
    /// encoding yet; their rows are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not have one row per key or a cached
    /// encoding's width differs from the rows'.
    pub fn read_rows(&self, keys: &[u64], rows: &mut Matrix) -> Vec<usize> {
        assert_eq!(rows.rows(), keys.len(), "one row per key");
        let map = self.map.read();
        let mut missing = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match map.get(key) {
                Some(enc) => rows.row_mut(i).copy_from_slice(enc),
                None => missing.push(i),
            }
        }
        missing
    }

    /// Number of distinct table encodings stored.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache holds no encodings.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
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

    /// One lookup the way `CostSimulator` resolves it: a counted probe,
    /// then on a miss the computed value is stored and the miss counted.
    fn lookup(cache: &PredictionCache, key: u64, computed: f64) -> f64 {
        cache
            .get_counted(key)
            .unwrap_or_else(|| cache.insert_miss(key, computed))
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
        let cache = PredictionCache::new();
        assert_eq!(cache.hit_rate(), 0.0);
        lookup(&cache, 1, 1.0);
        lookup(&cache, 1, 2.0);
        lookup(&cache, 2, 3.0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_value_wins() {
        let cache = PredictionCache::new();
        lookup(&cache, 9, 5.0);
        assert_eq!(lookup(&cache, 9, 99.0), 5.0);
    }

    #[test]
    fn batch_primitives_account_consistently() {
        let cache = PredictionCache::new();
        assert_eq!(cache.get_counted(7), None);
        assert_eq!(cache.insert_miss(7, 1.5), 1.5);
        // A racing thread's miss on the same key: counted, first value wins.
        assert_eq!(cache.insert_miss(7, 9.9), 1.5);
        assert_eq!(cache.get_counted(7), Some(1.5));
        cache.record_hit(7);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_and_reset_stats() {
        let cache = PredictionCache::new();
        lookup(&cache, 1, 1.0);
        lookup(&cache, 1, 1.0);
        cache.reset_stats();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_sum_over_all_shards() {
        let cache = PredictionCache::with_shards(4);
        // Keys 0..16 cover every shard index at least once.
        for k in 0..16u64 {
            lookup(&cache, k, k as f64);
            assert_eq!(cache.get_counted(k), Some(k as f64));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.total(), 32);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 16);
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
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panics() {
        let _ = PredictionCache::with_shards(3);
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
        let cache = EncodingCache::new();
        assert!(cache.is_empty());
        let mut rows = Matrix::from_flat(2, 2, vec![7.0; 4]);
        assert_eq!(cache.read_rows(&[5, 6], &mut rows), [0, 1]);
        assert_eq!(rows.as_slice(), [7.0; 4]);

        cache.insert_if_absent(5, vec![0.5, 0.25].into_boxed_slice());
        cache.insert_if_absent(5, vec![9.0, 9.0].into_boxed_slice());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.read_rows(&[6, 5], &mut rows), [0]);
        assert_eq!(rows.as_slice(), [7.0, 7.0, 0.5, 0.25]);

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
        // running the simulator's probe / record / insert sequence: every
        // lookup must be counted exactly once, so hits + misses equals the
        // number of calls regardless of interleaving, and every read sees
        // the one value its key can hold.
        const THREADS: usize = 8;
        const OPS: u64 = 2_000;
        let cache = PredictionCache::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for i in 0..OPS {
                        let key = avalanche(i % 64);
                        if i % 3 == 0 {
                            // An in-batch duplicate: answered without a probe.
                            cache.record_hit(key);
                        } else {
                            assert_eq!(lookup(&cache, key, key as f64), key as f64);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.total(), THREADS as u64 * OPS);
        assert_eq!(cache.len(), 64);
        assert!(stats.hits > stats.misses, "repeated keys should mostly hit");
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
