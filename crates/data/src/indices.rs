//! The indices distribution, analytically.
//!
//! The paper identifies the **indices distribution** as one of the four
//! cost-relevant table factors (§2.1): skewed access patterns cache well,
//! and the number of unique embeddings touched per batch drives memory
//! pressure. [`expected_distinct_fraction`] estimates the expected fraction
//! of unique indices in a batch, which lowers a table to a
//! [`nshard_sim::TableProfile`] without materializing millions of indices;
//! the unit tests hold it to a generated Zipf lookup stream.

/// Analytic estimate of the expected fraction of **distinct** indices among
/// `lookups` draws from `Zipf(alpha)` over `hash_size` rows.
///
/// Uses `E[distinct] = Σ_r (1 - (1 - p_r)^L)` evaluated with logarithmic
/// rank bucketing, so it is O(buckets) instead of O(hash_size).
///
/// ```
/// use nshard_data::expected_distinct_fraction;
///
/// // Uniform access over a huge table: almost every lookup is distinct.
/// let u = expected_distinct_fraction(1 << 30, 0.0, 10_000.0);
/// assert!(u > 0.95);
/// // Heavily skewed access: far fewer distinct indices.
/// let z = expected_distinct_fraction(1 << 30, 1.5, 10_000.0);
/// assert!(z < u / 2.0);
/// ```
pub fn expected_distinct_fraction(hash_size: u64, alpha: f64, lookups: f64) -> f64 {
    // The estimator is pure but libm-heavy (~300 transcendental calls), and
    // the search re-profiles the same tables constantly — memoize per
    // thread. Bit-identical: the cache stores exactly the computed value.
    let key = (hash_size, alpha.to_bits(), lookups.to_bits());
    MEMO.with_borrow_mut(|memo| {
        if memo.len() >= MEMO_ENTRIES && !memo.contains_key(&key) {
            memo.clear();
        }
        *memo
            .entry(key)
            .or_insert_with(|| expected_distinct_fraction_uncached(hash_size, alpha, lookups))
    })
}

/// Entries a thread's memo holds before it starts over, so a worker fed
/// ever-new tables stays bounded. A search touches far fewer tables.
const MEMO_ENTRIES: usize = 1 << 16;

type Memo = std::collections::HashMap<(u64, u64, u64), f64>;

thread_local! {
    static MEMO: std::cell::RefCell<Memo> = std::cell::RefCell::new(Memo::new());
}

fn expected_distinct_fraction_uncached(hash_size: u64, alpha: f64, lookups: f64) -> f64 {
    let n = hash_size.max(1) as f64;
    let lookups = lookups.max(1.0);
    if alpha < 1e-9 {
        // Uniform: E[distinct] = n(1 - (1-1/n)^L)
        let frac = n * (1.0 - (lookups * (1.0 - 1.0 / n).ln()).exp()) / lookups;
        return frac.clamp(1.0 / lookups, 1.0);
    }
    const BUCKETS: usize = 96;
    // Normalization constant: integral approximation of sum r^-a.
    let mut norm = 0.0;
    let mut distinct = 0.0;
    let log_n = n.ln();
    let mut edges = Vec::with_capacity(BUCKETS + 1);
    for b in 0..=BUCKETS {
        edges.push((log_n * b as f64 / BUCKETS as f64).exp());
    }
    // First pass: normalization.
    let mut weights = Vec::with_capacity(BUCKETS);
    for b in 0..BUCKETS {
        let lo = edges[b];
        let hi = edges[b + 1].min(n);
        let count = (hi - lo).max(0.0);
        if count <= 0.0 && b > 0 {
            weights.push((0.0, 0.0, 0.0));
            continue;
        }
        let mid = ((lo + hi) / 2.0).max(1.0);
        let w = mid.powf(-alpha);
        let c = count.max(1.0_f64.min(n));
        norm += w * c;
        weights.push((w, c, mid));
    }
    if norm <= 0.0 {
        return 1.0;
    }
    // Second pass: expected distinct.
    for &(w, c, _) in &weights {
        if c <= 0.0 {
            continue;
        }
        let p = w / norm;
        // 1 - (1-p)^L, numerically stable via ln1p.
        let hit = 1.0 - (lookups * (-p).ln_1p()).exp();
        distinct += c * hit;
    }
    (distinct / lookups).clamp(1.0 / lookups, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn the_memo_starts_over_past_its_bound() {
        // Uniform tables take the cheap closed form, so going past the
        // bound costs little.
        let fresh = |rows: u64| expected_distinct_fraction_uncached(rows, 0.0, 64.0);
        for rows in 1..=(MEMO_ENTRIES as u64 + 10) {
            assert_eq!(
                expected_distinct_fraction(rows, 0.0, 64.0).to_bits(),
                fresh(rows).to_bits()
            );
            assert!(MEMO.with(|m| m.borrow().len()) <= MEMO_ENTRIES);
        }
        assert_eq!(MEMO.with(|m| m.borrow().len()), 10);
        assert_eq!(
            expected_distinct_fraction(1, 0.0, 64.0).to_bits(),
            fresh(1).to_bits()
        );
    }

    /// The estimator's oracle: the measured fraction of distinct indices
    /// among `lookups` draws from `Zipf(alpha)` over `hash_size` rows, like
    /// the benchmark dataset's lookup streams (`alpha = 0` is uniform).
    /// Ranks come from inverse-CDF on the continuous approximation (bounded
    /// Pareto) and are scattered across the index space, as real tables do
    /// not store hot rows contiguously.
    fn empirical_distinct_fraction(hash_size: u64, alpha: f64, lookups: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = hash_size as f64;
        let mut indices: Vec<u64> = (0..lookups)
            .map(|_| {
                let rank = if alpha < 1e-9 {
                    rng.random_range(0..hash_size)
                } else {
                    let u: f64 = rng.random::<f64>().max(1e-15);
                    let rank = if (alpha - 1.0).abs() < 1e-9 {
                        // CDF(x) ∝ ln(x); invert: x = exp(u * ln(n))
                        (u * n.ln()).exp()
                    } else {
                        // CDF(x) ∝ x^(1-a) - 1; invert.
                        let one_minus = 1.0 - alpha;
                        ((u * (n.powf(one_minus) - 1.0)) + 1.0).powf(1.0 / one_minus)
                    };
                    (rank.floor() as u64).min(hash_size - 1)
                };
                // Fibonacci hashing within the table.
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % hash_size
            })
            .collect();
        indices.sort_unstable();
        indices.dedup();
        indices.len() as f64 / lookups as f64
    }

    #[test]
    fn skew_reduces_the_measured_unique_fraction() {
        let n = 1 << 20;
        let uniform = empirical_distinct_fraction(n, 0.0, 8192, 1);
        let skewed = empirical_distinct_fraction(n, 1.5, 8192, 1);
        assert!(skewed < uniform);
    }

    #[test]
    fn analytic_distinct_matches_empirical_uniform() {
        let n: u64 = 1 << 14;
        let analytic = expected_distinct_fraction(n, 0.0, 8192.0);
        let empirical = empirical_distinct_fraction(n, 0.0, 8192, 42);
        assert!(
            (analytic - empirical).abs() < 0.05,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn analytic_distinct_matches_empirical_zipf() {
        let n: u64 = 1 << 20;
        let alpha = 1.1;
        let analytic = expected_distinct_fraction(n, alpha, 16384.0);
        let empirical = empirical_distinct_fraction(n, alpha, 16384, 11);
        assert!(
            (analytic - empirical).abs() < 0.12,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn distinct_fraction_decreases_with_lookups() {
        let n = 1 << 16;
        let mut prev = 1.1;
        for lookups in [100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0] {
            let f = expected_distinct_fraction(n, 1.0, lookups);
            assert!(f < prev, "lookups {lookups}: {f} >= {prev}");
            prev = f;
        }
    }

    #[test]
    fn distinct_fraction_increases_with_hash_size() {
        let lookups = 50_000.0;
        let small = expected_distinct_fraction(1 << 12, 1.0, lookups);
        let large = expected_distinct_fraction(1 << 26, 1.0, lookups);
        assert!(large > small);
    }

    proptest! {
        #[test]
        fn analytic_fraction_in_unit_range(
            n_pow in 4u32..30,
            alpha in 0.0f64..3.0,
            lookups in 1.0f64..1e7,
        ) {
            let f = expected_distinct_fraction(1u64 << n_pow, alpha, lookups);
            prop_assert!(f.is_finite());
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }
}
