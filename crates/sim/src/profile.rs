//! Numeric description of an embedding table shard as seen by the simulator.

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Embedding-table dimensions must be divisible by this lane width, matching
/// the FBGEMM constraint cited in the paper ("the dimension must be dividable
/// by 4").
pub const DIM_LANE: u32 = 4;

/// Bytes per embedding element (fp32).
pub const BYTES_PER_ELEM: u64 = 4;

/// The simulator-facing description of one embedding table (or column-wise
/// shard of a table).
///
/// This deliberately contains only the quantities the paper identifies as
/// cost-relevant (§2.1): the **dimension** (columns), the **hash size**
/// (rows), the **mean pooling factor** (indices per lookup), and two summary
/// statistics of the **indices distribution** — the fraction of unique
/// indices accessed in a batch and the Zipf skew of the access pattern.
///
/// Higher-level crates carry richer table metadata; they lower it to a
/// `TableProfile` before asking the simulator for a cost.
///
/// # Example
///
/// ```
/// use nshard_sim::TableProfile;
///
/// let table = TableProfile::new(64, 1 << 22, 20.0, 0.25, 1.05);
/// assert_eq!(table.dim(), 64);
/// // fp32 storage: rows * cols * 4 bytes
/// assert_eq!(table.memory_bytes(), (1u64 << 22) * 64 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableProfile {
    dim: u32,
    hash_size: u64,
    pooling_factor: f64,
    unique_frac: f64,
    zipf_alpha: f64,
    /// Fraction of the batch's all-to-all traffic this shard contributes
    /// relative to an unreplicated shard of the same dimension. `1.0` for
    /// ordinary shards; `1/R` for one of `R` replicas of a hot table, whose
    /// holders each answer only their share of the batch's lookups.
    #[serde(default = "default_comm_share")]
    comm_share: f64,
}

fn default_comm_share() -> f64 {
    1.0
}

impl TableProfile {
    /// Creates a new table profile.
    ///
    /// * `dim` — number of columns (embedding dimension).
    /// * `hash_size` — number of rows.
    /// * `pooling_factor` — mean number of indices per lookup in a batch.
    /// * `unique_frac` — fraction of the batch's indices that are unique,
    ///   clamped to `(0, 1]`. Fewer unique indices cache better.
    /// * `zipf_alpha` — skew of the index access distribution (1.0 ≈
    ///   production-like heavy tail). Clamped to be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `hash_size == 0`. Use [`TableProfile::try_new`]
    /// for fallible construction.
    pub fn new(
        dim: u32,
        hash_size: u64,
        pooling_factor: f64,
        unique_frac: f64,
        zipf_alpha: f64,
    ) -> Self {
        Self::try_new(dim, hash_size, pooling_factor, unique_frac, zipf_alpha)
            .expect("invalid table profile")
    }

    /// Fallible counterpart of [`TableProfile::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTable`] if `dim` is zero, `hash_size` is
    /// zero, or `pooling_factor` is not finite and positive.
    pub fn try_new(
        dim: u32,
        hash_size: u64,
        pooling_factor: f64,
        unique_frac: f64,
        zipf_alpha: f64,
    ) -> Result<Self, SimError> {
        if dim == 0 {
            return Err(SimError::InvalidTable {
                reason: "dimension must be positive".into(),
            });
        }
        if hash_size == 0 {
            return Err(SimError::InvalidTable {
                reason: "hash size must be positive".into(),
            });
        }
        if !(pooling_factor.is_finite() && pooling_factor > 0.0) {
            return Err(SimError::InvalidTable {
                reason: format!("pooling factor must be finite and positive, got {pooling_factor}"),
            });
        }
        Ok(Self {
            dim,
            hash_size,
            pooling_factor,
            unique_frac: unique_frac.clamp(f64::MIN_POSITIVE, 1.0),
            zipf_alpha: zipf_alpha.max(0.0),
            comm_share: 1.0,
        })
    }

    /// Returns a copy with the given communication share (builder-style),
    /// clamped to `(0, 1]`. Replicated placements use `1/R` for `R`
    /// replicas: each holder stores the full table but moves only its share
    /// of the batch's lookup results through the all-to-all.
    #[must_use]
    pub fn with_comm_share(mut self, share: f64) -> Self {
        self.comm_share = share.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Fraction of an unreplicated shard's all-to-all traffic this shard
    /// contributes (`1.0` unless replicated).
    pub fn comm_share(&self) -> f64 {
        self.comm_share
    }

    /// The shard's **communication-effective** dimension: the embedding
    /// dimension weighted by [`TableProfile::comm_share`]. This is the
    /// quantity device-dimension sums must use so replicated shards are
    /// priced for the traffic they actually move. Exactly `dim` for
    /// unreplicated shards (`x * 1.0` is a bitwise identity).
    pub fn comm_dim(&self) -> f64 {
        f64::from(self.dim) * self.comm_share
    }

    /// Embedding dimension (number of columns).
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of rows in the table.
    pub fn hash_size(&self) -> u64 {
        self.hash_size
    }

    /// Mean pooling factor (indices per lookup).
    pub fn pooling_factor(&self) -> f64 {
        self.pooling_factor
    }

    /// Fraction of unique indices accessed per batch, in `(0, 1]`.
    pub fn unique_frac(&self) -> f64 {
        self.unique_frac
    }

    /// Zipf skew of the index access distribution.
    pub fn zipf_alpha(&self) -> f64 {
        self.zipf_alpha
    }

    /// Bytes of fp32 storage this table occupies on a device.
    pub fn memory_bytes(&self) -> u64 {
        self.hash_size * u64::from(self.dim) * BYTES_PER_ELEM
    }

    /// Returns the two column-wise halves of this table, mirroring the
    /// paper's column-wise sharding step: each half keeps the rows, pooling
    /// factor and indices distribution, with half the columns.
    ///
    /// Returns `None` when the table can no longer be split legally (halving
    /// would violate the [`DIM_LANE`] divisibility constraint).
    ///
    /// ```
    /// use nshard_sim::TableProfile;
    /// let t = TableProfile::new(64, 1024, 10.0, 0.5, 1.0);
    /// let (a, b) = t.split_columns().unwrap();
    /// assert_eq!(a.dim(), 32);
    /// assert_eq!(b.dim(), 32);
    /// assert_eq!(a.hash_size(), 1024);
    /// ```
    pub fn split_columns(&self) -> Option<(TableProfile, TableProfile)> {
        let half = self.dim / 2;
        if half == 0 || !half.is_multiple_of(DIM_LANE) {
            return None;
        }
        let mut a = *self;
        a.dim = half;
        let b = a;
        Some((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn memory_accounts_fp32() {
        let t = TableProfile::new(8, 100, 1.0, 1.0, 0.0);
        assert_eq!(t.memory_bytes(), 100 * 8 * 4);
    }

    #[test]
    fn rejects_zero_dim() {
        assert!(TableProfile::try_new(0, 10, 1.0, 0.5, 1.0).is_err());
    }

    #[test]
    fn rejects_zero_hash_size() {
        assert!(TableProfile::try_new(8, 0, 1.0, 0.5, 1.0).is_err());
    }

    #[test]
    fn rejects_bad_pooling() {
        assert!(TableProfile::try_new(8, 10, 0.0, 0.5, 1.0).is_err());
        assert!(TableProfile::try_new(8, 10, f64::NAN, 0.5, 1.0).is_err());
        assert!(TableProfile::try_new(8, 10, f64::INFINITY, 0.5, 1.0).is_err());
    }

    #[test]
    fn unique_frac_is_clamped() {
        let t = TableProfile::new(8, 10, 1.0, 7.0, 1.0);
        assert_eq!(t.unique_frac(), 1.0);
        let t = TableProfile::new(8, 10, 1.0, -1.0, 1.0);
        assert!(t.unique_frac() > 0.0);
    }

    #[test]
    fn split_halves_dim_only() {
        let t = TableProfile::new(128, 4096, 12.0, 0.3, 1.1);
        let (a, b) = t.split_columns().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.dim(), 64);
        assert_eq!(a.hash_size(), t.hash_size());
        assert_eq!(a.pooling_factor(), t.pooling_factor());
        assert_eq!(a.memory_bytes() * 2, t.memory_bytes());
    }

    #[test]
    fn split_respects_lane_constraint() {
        // dim 4 halves to 2, which violates the lane constraint.
        assert!(TableProfile::new(4, 10, 1.0, 0.5, 1.0)
            .split_columns()
            .is_none());
        // dim 8 halves to 4, which is fine.
        assert!(TableProfile::new(8, 10, 1.0, 0.5, 1.0)
            .split_columns()
            .is_some());
        // dim 12 halves to 6: not divisible by 4.
        assert!(TableProfile::new(12, 10, 1.0, 0.5, 1.0)
            .split_columns()
            .is_none());
    }

    #[test]
    fn serde_round_trip() {
        let t = TableProfile::new(64, 1 << 20, 15.0, 0.25, 1.05).with_comm_share(0.5);
        let json = serde_json::to_string(&t).unwrap();
        let back: TableProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn legacy_profiles_deserialize_with_full_comm_share() {
        // Profiles serialized before replication existed carry no
        // `comm_share`; they must load as ordinary (share 1.0) shards.
        let json = r#"{"dim":64,"hash_size":1024,"pooling_factor":8.0,
                       "unique_frac":0.5,"zipf_alpha":1.0}"#;
        let t: TableProfile = serde_json::from_str(json).unwrap();
        assert_eq!(t.comm_share(), 1.0);
        assert_eq!(t.comm_dim().to_bits(), 64.0f64.to_bits());
    }

    #[test]
    fn comm_dim_weights_the_dimension() {
        let t = TableProfile::new(64, 1024, 8.0, 0.5, 1.0);
        assert_eq!(t.comm_dim().to_bits(), 64.0f64.to_bits());
        let replica = t.with_comm_share(0.5);
        assert_eq!(replica.comm_dim(), 32.0);
        assert_eq!(replica.memory_bytes(), t.memory_bytes());
        // Shares are clamped into (0, 1].
        assert_eq!(t.with_comm_share(7.0).comm_share(), 1.0);
        assert!(t.with_comm_share(-1.0).comm_share() > 0.0);
    }

    proptest! {
        #[test]
        fn split_memory_is_conserved(dim in 1u32..512, rows in 1u64..1_000_000) {
            let dim = dim * 8; // always splittable
            let t = TableProfile::new(dim, rows, 5.0, 0.5, 1.0);
            let (a, b) = t.split_columns().unwrap();
            prop_assert_eq!(a.memory_bytes() + b.memory_bytes(), t.memory_bytes());
        }

        #[test]
        fn construction_never_panics_on_valid_input(
            dim in 1u32..10_000,
            rows in 1u64..u64::MAX / 40_000,
            pf in 0.001f64..10_000.0,
            uf in -2.0f64..2.0,
            za in -2.0f64..5.0,
        ) {
            let t = TableProfile::new(dim, rows, pf, uf, za);
            prop_assert!(t.unique_frac() > 0.0 && t.unique_frac() <= 1.0);
            prop_assert!(t.zipf_alpha() >= 0.0);
        }
    }
}
