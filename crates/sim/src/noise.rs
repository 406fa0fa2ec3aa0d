//! Deterministic measurement-noise model.
//!
//! Real micro-benchmarks never return the same latency twice; the paper runs
//! each measurement 100 times and takes the median (§A.2). To make the
//! reproduction faithful, every "measured" cost from the simulator carries a
//! small multiplicative jitter. The jitter is a pure function of an explicit
//! seed and a measurement counter, so experiments are bit-for-bit
//! reproducible and yet medians-over-repeats behave like real benchmarking.

use serde::{Deserialize, Serialize};

/// Multiplicative log-normal-ish measurement noise.
///
/// A [`NoiseModel`] is a stateless sampler: calling [`NoiseModel::factor`]
/// with the same `(stream, counter)` pair always returns the same factor.
///
/// # Example
///
/// ```
/// use nshard_sim::NoiseModel;
///
/// let noise = NoiseModel::new(42, 0.02);
/// let f1 = noise.factor(1, 0);
/// let f2 = noise.factor(1, 0);
/// assert_eq!(f1, f2); // deterministic
/// assert!((f1 - 1.0).abs() < 0.2); // small jitter
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    seed: u64,
    /// Relative standard deviation of the jitter (e.g. `0.02` for ~2%).
    sigma: f64,
}

impl NoiseModel {
    /// Creates a noise model with the given seed and relative standard
    /// deviation `sigma` (clamped to `[0, 0.5]`).
    pub fn new(seed: u64, sigma: f64) -> Self {
        Self {
            seed,
            sigma: sigma.clamp(0.0, 0.5),
        }
    }

    /// A noise model that returns exactly `1.0` for every query. Useful for
    /// testing analytic laws without jitter.
    pub fn disabled() -> Self {
        Self::new(0, 0.0)
    }

    /// The seed this model was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The relative standard deviation of the jitter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Returns a multiplicative factor close to 1.0 for the given noise
    /// `stream` (e.g. a hash of the measured configuration) and measurement
    /// `counter` (the repeat index).
    pub fn factor(&self, stream: u64, counter: u64) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        // Two independent uniform draws via splitmix64, Box-Muller to a
        // standard normal, then exp() for multiplicative log-normal noise.
        let u1 = to_unit(splitmix64(
            self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ counter,
        ));
        let u2 = to_unit(splitmix64(
            self.seed
                .wrapping_add(0xD1B5_4A32_D192_ED03)
                .wrapping_mul(stream | 1)
                ^ counter.wrapping_mul(0xA24B_AED4_963E_E407),
        ));
        let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.sigma * z).exp()
    }

    /// Simulates the paper's measurement protocol: `repeats` noisy
    /// measurements of `base_ms`, returning the median.
    ///
    /// ```
    /// use nshard_sim::NoiseModel;
    /// let noise = NoiseModel::new(7, 0.05);
    /// let m = noise.median_measurement(10.0, 101, 0xBEEF);
    /// assert!((m - 10.0).abs() / 10.0 < 0.05);
    /// ```
    pub fn median_measurement(&self, base_ms: f64, repeats: u32, stream: u64) -> f64 {
        if self.sigma == 0.0 || repeats == 0 {
            return base_ms;
        }
        let mut samples: Vec<f64> = (0..u64::from(repeats))
            .map(|i| base_ms * self.factor(stream, i))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("noise factors are finite"));
        samples[samples.len() / 2]
    }
}

impl Default for NoiseModel {
    /// The default measurement noise used across the reproduction: ~2%
    /// relative jitter, seed 0.
    fn default() -> Self {
        Self::new(0, 0.02)
    }
}

/// SplitMix64: tiny, high-quality 64-bit mixer. `nshard-sim` has no
/// workspace dependency, so this is its one copy of
/// `nshard_pool::splitmix64`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a u64 to the open unit interval (0, 1).
fn to_unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_per_stream_and_counter() {
        let n = NoiseModel::new(9, 0.02);
        assert_eq!(n.factor(3, 5), n.factor(3, 5));
        assert_ne!(n.factor(3, 5), n.factor(3, 6));
        assert_ne!(n.factor(3, 5), n.factor(4, 5));
    }

    #[test]
    fn disabled_noise_is_identity() {
        let n = NoiseModel::disabled();
        assert_eq!(n.factor(1, 1), 1.0);
        assert_eq!(n.median_measurement(12.5, 100, 7), 12.5);
    }

    #[test]
    fn sigma_is_clamped() {
        assert_eq!(NoiseModel::new(0, 9.0).sigma(), 0.5);
        assert_eq!(NoiseModel::new(0, -1.0).sigma(), 0.0);
    }

    #[test]
    fn factors_average_near_one() {
        let n = NoiseModel::new(123, 0.02);
        let mean: f64 = (0..10_000).map(|i| n.factor(77, i)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean factor was {mean}");
    }

    #[test]
    fn median_is_close_to_base() {
        let n = NoiseModel::new(5, 0.1);
        let m = n.median_measurement(100.0, 101, 42);
        assert!((m - 100.0).abs() < 10.0, "median was {m}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = NoiseModel::new(1, 0.02);
        let b = NoiseModel::new(2, 0.02);
        assert_ne!(a.factor(10, 0), b.factor(10, 0));
    }

    proptest! {
        #[test]
        fn factors_are_finite_and_positive(seed: u64, stream: u64, counter: u64) {
            let n = NoiseModel::new(seed, 0.05);
            let f = n.factor(stream, counter);
            prop_assert!(f.is_finite());
            prop_assert!(f > 0.0);
        }

        #[test]
        fn median_measurement_is_finite(base in 0.001f64..1e6, repeats in 1u32..64) {
            let n = NoiseModel::new(1, 0.02);
            let m = n.median_measurement(base, repeats, 3);
            prop_assert!(m.is_finite());
            prop_assert!(m > 0.0);
        }
    }
}
