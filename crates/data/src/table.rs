//! Embedding table configuration: the dataset-level table description.

use serde::{Deserialize, Serialize};

use nshard_sim::TableProfile;
use nshard_sim::BYTES_PER_ELEM;

use crate::indices::expected_distinct_fraction;

/// Identifier of a table within a pool or a sharding task.
///
/// Column-wise shards of the same logical table share the `TableId` of the
/// original table, so plans remain traceable back to the dataset.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TableId(pub u32);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

/// Full configuration of one embedding table in a sharding task.
///
/// Unlike the simulator's [`TableProfile`] (pure numbers), a `TableConfig`
/// carries the dataset identity and the generative description of its index
/// distribution.
///
/// # Example
///
/// ```
/// use nshard_data::{TableConfig, TableId};
///
/// let table = TableConfig::new(TableId(3), 64, 1 << 22, 18.0, 1.1);
/// assert_eq!(table.dim(), 64);
/// let profile = table.profile(65_536);
/// assert_eq!(profile.dim(), 64);
/// assert!(profile.unique_frac() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "TableWire")]
pub struct TableConfig {
    id: TableId,
    dim: u32,
    hash_size: u64,
    pooling_factor: f64,
    zipf_alpha: f64,
    /// Replication count of this shard: `1` for ordinary shards, `R` when
    /// the (hot) table is replicated onto `R` holders. Each replica stores
    /// the **full** rows but answers only `1/R` of the batch's lookups, so
    /// replicas carry full memory and a `1/R` communication share.
    replicas: u32,
    /// First logical row this shard covers, for row-wise splits: a shard
    /// holds rows `[row_offset, row_offset + hash_size)` of the original
    /// table's id space. `0` for unsplit tables.
    row_offset: u64,
}

/// The JSON form of a [`TableConfig`] as read. Wherever a table is decoded
/// — a task, the tables of a stored or replicated plan — the conversion
/// runs the checks [`TableConfig::new`] asserts, so a table that would
/// panic [`TableConfig::profile`] is a decode error instead.
#[derive(Deserialize)]
struct TableWire {
    id: TableId,
    dim: u32,
    hash_size: u64,
    pooling_factor: f64,
    zipf_alpha: f64,
    /// Absent in files from before replication.
    #[serde(default = "default_replicas")]
    replicas: u32,
    /// Absent in files from before row-wise splits.
    #[serde(default)]
    row_offset: u64,
}

fn default_replicas() -> u32 {
    1
}

impl TryFrom<TableWire> for TableConfig {
    type Error = String;

    fn try_from(wire: TableWire) -> Result<Self, String> {
        let table = Self {
            id: wire.id,
            dim: wire.dim,
            hash_size: wire.hash_size,
            pooling_factor: wire.pooling_factor,
            zipf_alpha: wire.zipf_alpha,
            replicas: wire.replicas,
            row_offset: wire.row_offset,
        };
        table.check()?;
        Ok(table)
    }
}

impl TableConfig {
    /// Creates a table configuration.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `hash_size == 0` or `pooling_factor <= 0`.
    pub fn new(
        id: TableId,
        dim: u32,
        hash_size: u64,
        pooling_factor: f64,
        zipf_alpha: f64,
    ) -> Self {
        let table = Self {
            id,
            dim,
            hash_size,
            pooling_factor,
            zipf_alpha: zipf_alpha.max(0.0),
            replicas: 1,
            row_offset: 0,
        };
        if let Err(reason) = table.check() {
            panic!("{reason}");
        }
        table
    }

    /// The conditions [`TableConfig::new`] asserts, as an error — also run
    /// on every decoded table, which never went through `new`.
    fn check(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dimension must be positive".into());
        }
        if self.hash_size == 0 {
            return Err("hash size must be positive".into());
        }
        if !(self.pooling_factor.is_finite() && self.pooling_factor > 0.0) {
            return Err("pooling factor must be positive".into());
        }
        Ok(())
    }

    /// The table's identity within its pool.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Embedding dimension (columns).
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of rows.
    pub fn hash_size(&self) -> u64 {
        self.hash_size
    }

    /// Mean pooling factor.
    pub fn pooling_factor(&self) -> f64 {
        self.pooling_factor
    }

    /// Zipf exponent of the index access distribution.
    pub fn zipf_alpha(&self) -> f64 {
        self.zipf_alpha
    }

    /// Replication count: `1` for ordinary shards, `R` for one of `R`
    /// replicas of a hot table.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// First logical row covered by this (possibly row-wise) shard.
    pub fn row_offset(&self) -> u64 {
        self.row_offset
    }

    /// The half-open logical row range `[start, end)` this shard covers in
    /// the original table's id space.
    pub fn row_range(&self) -> (u64, u64) {
        (self.row_offset, self.row_offset + self.hash_size)
    }

    /// Returns a copy with a different dimension (used by table augmentation
    /// and dimension sampling; Algorithm 3).
    pub fn with_dim(mut self, dim: u32) -> Self {
        assert!(dim > 0, "dimension must be positive");
        self.dim = dim;
        self
    }

    /// Returns a copy with a different hash size (workload-drift hook: a
    /// growing id space).
    pub fn with_hash_size(mut self, hash_size: u64) -> Self {
        assert!(hash_size > 0, "hash size must be positive");
        self.hash_size = hash_size;
        self
    }

    /// Returns a copy with a different pooling factor (workload-drift hook:
    /// indices-per-lookup shifting with traffic).
    pub fn with_pooling_factor(mut self, pooling_factor: f64) -> Self {
        assert!(
            pooling_factor.is_finite() && pooling_factor > 0.0,
            "pooling factor must be positive"
        );
        self.pooling_factor = pooling_factor;
        self
    }

    /// Returns a copy with a different Zipf exponent (workload-drift hook:
    /// hotspots sharpening or flattening the access distribution).
    pub fn with_zipf_alpha(mut self, zipf_alpha: f64) -> Self {
        self.zipf_alpha = zipf_alpha.max(0.0);
        self
    }

    /// Bytes of fp32 storage at the current dimension.
    pub fn memory_bytes(&self) -> u64 {
        self.hash_size * u64::from(self.dim) * BYTES_PER_ELEM
    }

    /// Lowers this table to the simulator profile for a given batch size.
    ///
    /// The batch-dependent unique-index fraction is derived analytically
    /// from the Zipf law, matching what one would measure from the raw
    /// benchmark indices.
    pub fn profile(&self, batch_size: u32) -> TableProfile {
        let lookups = f64::from(batch_size) * self.pooling_factor;
        let unique = expected_distinct_fraction(self.hash_size, self.zipf_alpha, lookups);
        let profile = TableProfile::new(
            self.dim,
            self.hash_size,
            self.pooling_factor,
            unique,
            self.zipf_alpha,
        );
        if self.replicas > 1 {
            profile.with_comm_share(1.0 / f64::from(self.replicas))
        } else {
            profile
        }
    }

    /// Returns the two column-wise halves of this table (both keep the
    /// original [`TableId`]); `None` if the halved dimension would violate
    /// the kernel lane constraint.
    pub fn split_columns(&self) -> Option<(TableConfig, TableConfig)> {
        // Delegate legality to the simulator's profile rules.
        let half = self.dim / 2;
        if half == 0 || !half.is_multiple_of(nshard_sim::DIM_LANE) {
            return None;
        }
        let a = self.with_dim(half);
        Some((a, a))
    }

    /// Returns the two row-wise halves of this table (the paper's stated
    /// future-work extension): each half keeps the full dimension but holds
    /// half the rows, and — because lookups hash across rows — receives
    /// roughly half the pooling workload.
    ///
    /// Returns `None` when the table is too small to split (fewer than
    /// [`MIN_ROW_SHARD`] rows per half, or a pooling factor that would drop
    /// below one index per lookup).
    pub fn split_rows(&self) -> Option<(TableConfig, TableConfig)> {
        let half_rows = self.hash_size / 2;
        if half_rows < MIN_ROW_SHARD || self.pooling_factor < 2.0 {
            return None;
        }
        let mut a = *self;
        a.hash_size = half_rows;
        a.pooling_factor = self.pooling_factor / 2.0;
        let mut b = a;
        b.hash_size = self.hash_size - half_rows;
        b.row_offset = self.row_offset + half_rows;
        Some((a, b))
    }

    /// Returns two replicas of this (hot) table: each keeps the **full**
    /// rows and dimension — so replication *costs* memory on every holder —
    /// but answers half the batch's lookups (half the pooling workload and
    /// half the all-to-all traffic). Placing the replicas on different
    /// devices splits a hot table's lookup traffic the way row-wise
    /// sharding cannot when the heat concentrates in few rows.
    ///
    /// Returns `None` when the per-replica pooling workload would drop
    /// below one index per lookup — replicating a cold table is pure
    /// memory waste.
    pub fn replicate(&self) -> Option<(TableConfig, TableConfig)> {
        if self.pooling_factor < 2.0 {
            return None;
        }
        let mut a = *self;
        a.pooling_factor = self.pooling_factor / 2.0;
        a.replicas = self.replicas * 2;
        Some((a, a))
    }
}

/// Minimum rows per row-wise shard: splitting below this is pointless (the
/// shard caches entirely) and would distort the cost model's feature range.
pub const MIN_ROW_SHARD: u64 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> TableConfig {
        TableConfig::new(TableId(7), 64, 1 << 22, 15.0, 1.1)
    }

    #[test]
    fn accessors_round_trip() {
        let t = table();
        assert_eq!(t.id(), TableId(7));
        assert_eq!(t.dim(), 64);
        assert_eq!(t.hash_size(), 1 << 22);
        assert_eq!(t.pooling_factor(), 15.0);
        assert_eq!(t.zipf_alpha(), 1.1);
    }

    #[test]
    fn with_dim_changes_only_dim() {
        let t = table().with_dim(8);
        assert_eq!(t.dim(), 8);
        assert_eq!(t.id(), TableId(7));
        assert_eq!(t.hash_size(), 1 << 22);
    }

    #[test]
    fn drift_builders_change_one_field_each() {
        let t = table()
            .with_hash_size(4096)
            .with_pooling_factor(30.0)
            .with_zipf_alpha(-0.5);
        assert_eq!(t.hash_size(), 4096);
        assert_eq!(t.pooling_factor(), 30.0);
        assert_eq!(t.zipf_alpha(), 0.0); // clamped non-negative
        assert_eq!(t.id(), TableId(7));
        assert_eq!(t.dim(), 64);
    }

    #[test]
    #[should_panic(expected = "pooling factor must be positive")]
    fn zero_pooling_factor_panics() {
        let _ = table().with_pooling_factor(0.0);
    }

    #[test]
    fn profile_unique_frac_reflects_skew() {
        let flat = TableConfig::new(TableId(0), 64, 1 << 24, 15.0, 0.0);
        let skew = TableConfig::new(TableId(0), 64, 1 << 24, 15.0, 1.5);
        assert!(skew.profile(65_536).unique_frac() < flat.profile(65_536).unique_frac());
    }

    #[test]
    fn split_keeps_id_and_memory() {
        let t = table();
        let (a, b) = t.split_columns().unwrap();
        assert_eq!(a.id(), t.id());
        assert_eq!(b.id(), t.id());
        assert_eq!(a.memory_bytes() + b.memory_bytes(), t.memory_bytes());
    }

    #[test]
    fn split_respects_lane_constraint() {
        assert!(table().with_dim(4).split_columns().is_none());
        assert!(table().with_dim(8).split_columns().is_some());
    }

    #[test]
    fn row_split_halves_rows_and_pooling() {
        let t = table();
        let (a, b) = t.split_rows().unwrap();
        assert_eq!(a.hash_size() + b.hash_size(), t.hash_size());
        assert_eq!(a.dim(), t.dim());
        assert!((a.pooling_factor() - t.pooling_factor() / 2.0).abs() < 1e-12);
        assert_eq!(a.memory_bytes() + b.memory_bytes(), t.memory_bytes());
    }

    #[test]
    fn row_split_rejects_tiny_tables() {
        let tiny = TableConfig::new(TableId(0), 4, 1500, 8.0, 1.0);
        assert!(tiny.split_rows().is_none()); // halves below MIN_ROW_SHARD
        let low_pf = TableConfig::new(TableId(0), 4, 1 << 20, 1.5, 1.0);
        assert!(low_pf.split_rows().is_none());
    }

    #[test]
    fn row_split_handles_unsplittable_dims() {
        // The motivating case: dim-4 (column-unsplittable) but huge rows.
        let tall = TableConfig::new(TableId(0), 4, 1 << 28, 8.0, 1.0);
        assert!(tall.split_columns().is_none());
        assert!(tall.split_rows().is_some());
    }

    #[test]
    fn row_split_partitions_the_row_space() {
        let t = table();
        let (a, b) = t.split_rows().unwrap();
        // The halves tile [0, hash_size) exactly: contiguous, no overlap.
        assert_eq!(a.row_range().0, 0);
        assert_eq!(a.row_range().1, b.row_range().0);
        assert_eq!(b.row_range().1, t.hash_size());
        // Splitting again keeps tiling the ORIGINAL id space.
        let (b0, b1) = b.split_rows().unwrap();
        assert_eq!(b0.row_range().0, b.row_range().0);
        assert_eq!(b0.row_range().1, b1.row_range().0);
        assert_eq!(b1.row_range().1, t.hash_size());
    }

    #[test]
    fn replicate_keeps_memory_and_halves_traffic() {
        let t = table();
        let (a, b) = t.replicate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.replicas(), 2);
        // Every holder pays the table's full memory...
        assert_eq!(a.memory_bytes(), t.memory_bytes());
        assert_eq!(a.hash_size(), t.hash_size());
        // ...but serves half the lookups and moves half the traffic.
        assert!((a.pooling_factor() - t.pooling_factor() / 2.0).abs() < 1e-12);
        let p = a.profile(65_536);
        assert!((p.comm_share() - 0.5).abs() < 1e-12);
        assert!((p.comm_dim() - f64::from(t.dim()) / 2.0).abs() < 1e-12);
        // Replicating again compounds: 4 replicas, quarter share.
        let (aa, _) = a.replicate().unwrap();
        assert_eq!(aa.replicas(), 4);
        assert!((aa.profile(65_536).comm_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn replicate_rejects_cold_tables() {
        let cold = TableConfig::new(TableId(0), 64, 1 << 20, 1.5, 1.0);
        assert!(cold.replicate().is_none());
    }

    #[test]
    fn unreplicated_profile_has_exact_unit_comm_share() {
        let p = table().profile(65_536);
        assert_eq!(p.comm_share().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn legacy_tables_deserialize_without_new_fields() {
        // Configs serialized before replication / row offsets existed must
        // load as ordinary shards.
        let json = r#"{"id":3,"dim":64,"hash_size":1024,
                       "pooling_factor":8.0,"zipf_alpha":1.0}"#;
        let t: TableConfig = serde_json::from_str(json).unwrap();
        assert_eq!(t.replicas(), 1);
        assert_eq!(t.row_offset(), 0);
    }

    #[test]
    fn decoding_refuses_what_new_refuses() {
        let json = serde_json::to_string(&table()).unwrap();
        assert_eq!(serde_json::from_str::<TableConfig>(&json).unwrap(), table());
        for (field, hostile, reason) in [
            ("\"dim\":64", "\"dim\":0", "dimension must be positive"),
            (
                "\"hash_size\":4194304",
                "\"hash_size\":0",
                "hash size must be positive",
            ),
            (
                "\"pooling_factor\":15.0",
                "\"pooling_factor\":1e999",
                "pooling factor must be positive",
            ),
            (
                "\"pooling_factor\":15.0",
                "\"pooling_factor\":-1.0",
                "pooling factor must be positive",
            ),
        ] {
            assert!(json.contains(field), "{json}");
            let err = serde_json::from_str::<TableConfig>(&json.replace(field, hostile))
                .expect_err(hostile);
            assert!(err.to_string().contains(reason), "{hostile}: {err}");
        }
    }

    #[test]
    fn display_of_table_id() {
        assert_eq!(TableId(12).to_string(), "table#12");
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = TableConfig::new(TableId(0), 0, 10, 1.0, 1.0);
    }

    proptest! {
        #[test]
        fn profile_is_always_valid(
            dim_pow in 2u32..8,
            rows_pow in 8u32..28,
            pf in 0.5f64..128.0,
            alpha in 0.0f64..2.5,
        ) {
            let t = TableConfig::new(TableId(1), 1 << dim_pow, 1u64 << rows_pow, pf, alpha);
            let p = t.profile(65_536);
            prop_assert!(p.unique_frac() > 0.0 && p.unique_frac() <= 1.0);
            prop_assert_eq!(p.dim(), t.dim());
        }
    }
}
