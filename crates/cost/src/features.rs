//! Feature extraction for the neural cost models.
//!
//! The paper represents each table by its cost-relevant factors (§2.1):
//! dimension, hash size, pooling factor and indices-distribution statistics.
//! The communication models see per-GPU start timestamps and transferred
//! data sizes (§3.2). All features are normalized to roughly unit scale so
//! the tiny MLPs train well with default Adam settings.

use nshard_sim::TableProfile;

/// Number of features per table fed to the computation cost model.
pub const TABLE_FEATURE_DIM: usize = 8;

/// Extracts the computation-model feature vector of one table.
///
/// Features (all ~unit scale):
/// 1. dimension / 128
/// 2. log2(hash size) / 32
/// 3. pooling factor / 64
/// 4. unique-index fraction
/// 5. Zipf exponent / 2
/// 6. dimension × pooling factor / 8192 (lookup-bytes interaction)
/// 7. log2(table bytes) / 40 (memory footprint)
/// 8. pooling factor × log2(hash) / 2048 (cache-pressure interaction)
///
/// ```
/// use nshard_cost::{table_features, TABLE_FEATURE_DIM};
/// use nshard_sim::TableProfile;
///
/// let f = table_features(&TableProfile::new(64, 1 << 20, 15.0, 0.3, 1.1), 65_536);
/// assert_eq!(f.len(), TABLE_FEATURE_DIM);
/// assert!((f[0] - 0.5).abs() < 1e-6); // 64 / 128
/// ```
pub fn table_features(table: &TableProfile, batch_size: u32) -> Vec<f32> {
    let dim = f64::from(table.dim());
    let hash_log = (table.hash_size() as f64).log2();
    let pf = table.pooling_factor();
    let bytes_log = (table.memory_bytes() as f64).log2();
    // Batch size only rescales lookups uniformly; include it via the
    // interaction term so one model covers multiple batch sizes.
    let lookups = f64::from(batch_size) * pf;
    vec![
        (dim / 128.0) as f32,
        (hash_log / 32.0) as f32,
        (pf / 64.0) as f32,
        table.unique_frac() as f32,
        (table.zipf_alpha() / 2.0) as f32,
        ((dim * pf) / 8192.0) as f32,
        (bytes_log / 40.0) as f32,
        ((lookups.log2() * hash_log) / 2048.0) as f32,
    ]
}

/// Input dimension of the communication cost model for a cluster of
/// `num_devices` GPUs: per-GPU `(data size, start timestamp)` pairs plus
/// three summary features.
pub fn comm_feature_dim(num_devices: usize) -> usize {
    2 * num_devices + 3
}

/// Extracts the communication-model feature vector of one placement.
///
/// Per-GPU features are sorted by descending device dimension so the model
/// is invariant to GPU relabeling; three summaries (max and mean normalized
/// device dimension, start-timestamp spread) are appended.
///
/// # Panics
///
/// Panics if `device_dims` and `start_ts_ms` have different lengths.
///
/// ```
/// use nshard_cost::comm_features;
///
/// let f = comm_features(&[320.0, 128.0, 256.0, 64.0], &[0.0, 5.0, 2.0, 1.0], 65_536);
/// assert_eq!(f.len(), 2 * 4 + 3); // a (size, start) pair per GPU, three summaries
/// ```
pub fn comm_features(device_dims: &[f64], start_ts_ms: &[f64], batch_size: u32) -> Vec<f32> {
    let mut features = vec![0.0f32; comm_feature_dim(device_dims.len())];
    comm_features_into(device_dims, start_ts_ms, batch_size, &mut features);
    features
}

/// [`comm_features`] into a caller-provided slice (e.g. a batch-matrix row),
/// writing the exact same values without allocating the output.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with
/// [`comm_feature_dim`]`(device_dims.len())`.
pub(crate) fn comm_features_into(
    device_dims: &[f64],
    start_ts_ms: &[f64],
    batch_size: u32,
    out: &mut [f32],
) {
    assert_eq!(
        device_dims.len(),
        start_ts_ms.len(),
        "device_dims and start_ts_ms must have the same length"
    );
    let d = device_dims.len();
    assert_eq!(
        out.len(),
        comm_feature_dim(d),
        "output slice has the wrong feature width"
    );
    let mut pairs: Vec<(f64, f64)> = device_dims
        .iter()
        .copied()
        .zip(start_ts_ms.iter().copied())
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite dims"));

    // Normalize data sizes by a nominal 1024-dim device at this batch size.
    let dim_scale = 1024.0;
    let batch_scale = f64::from(batch_size) / 65_536.0;
    for (slot, &(dim, start)) in out.chunks_exact_mut(2).zip(&pairs) {
        slot[0] = (dim * batch_scale / dim_scale) as f32;
        slot[1] = (start / 20.0) as f32;
    }
    let max_dim = pairs.first().map_or(0.0, |p| p.0);
    let mean_dim = device_dims.iter().sum::<f64>() / d.max(1) as f64;
    let start_spread = start_ts_ms.iter().cloned().fold(f64::MIN, f64::max)
        - start_ts_ms.iter().cloned().fold(f64::MAX, f64::min);
    out[2 * d] = (max_dim * batch_scale / dim_scale) as f32;
    out[2 * d + 1] = (mean_dim * batch_scale / dim_scale) as f32;
    out[2 * d + 2] = (start_spread.max(0.0) / 20.0) as f32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_features_have_fixed_dim() {
        let t = TableProfile::new(4, 1000, 1.0, 1.0, 0.0);
        assert_eq!(table_features(&t, 65_536).len(), TABLE_FEATURE_DIM);
    }

    #[test]
    fn table_features_distinguish_dims() {
        let a = table_features(&TableProfile::new(4, 1 << 20, 15.0, 0.3, 1.0), 65_536);
        let b = table_features(&TableProfile::new(128, 1 << 20, 15.0, 0.3, 1.0), 65_536);
        assert!(b[0] > a[0]);
        assert!(b[5] > a[5]);
    }

    #[test]
    fn comm_features_are_permutation_invariant() {
        let a = comm_features(&[100.0, 300.0, 200.0], &[1.0, 2.0, 3.0], 65_536);
        let b = comm_features(&[300.0, 200.0, 100.0], &[2.0, 3.0, 1.0], 65_536);
        assert_eq!(a, b);
    }

    #[test]
    fn comm_features_track_imbalance() {
        let balanced = comm_features(&[200.0, 200.0], &[0.0, 0.0], 65_536);
        let skewed = comm_features(&[390.0, 10.0], &[0.0, 0.0], 65_536);
        // Max-dim summary is the third-from-last entry.
        let max_idx = balanced.len() - 3;
        assert!(skewed[max_idx] > balanced[max_idx]);
    }

    #[test]
    fn comm_feature_dim_formula() {
        assert_eq!(comm_feature_dim(4), 11);
        assert_eq!(comm_feature_dim(8), 19);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let _ = comm_features(&[1.0], &[0.0, 0.0], 65_536);
    }

    proptest! {
        #[test]
        fn table_features_are_finite(
            dim_pow in 2u32..9,
            rows_pow in 8u32..30,
            pf in 0.5f64..200.0,
            uf in 0.001f64..1.0,
            za in 0.0f64..2.0,
        ) {
            let t = TableProfile::new(1 << dim_pow, 1u64 << rows_pow, pf, uf, za);
            for f in table_features(&t, 65_536) {
                prop_assert!(f.is_finite());
            }
        }

        #[test]
        fn comm_features_are_finite(
            dims in proptest::collection::vec(0.0f64..4096.0, 2..16),
        ) {
            let starts = vec![0.0; dims.len()];
            for f in comm_features(&dims, &starts, 65_536) {
                prop_assert!(f.is_finite());
            }
        }
    }
}
