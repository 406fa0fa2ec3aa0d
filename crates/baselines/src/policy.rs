//! The policy input both learned baselines ([`crate::rl`],
//! [`crate::imitation`]) build: tables are placed bytes-descending, and
//! each candidate device is scored on the table's features followed by
//! that device's relative load so far.

use nshard_cost::table_features;
use nshard_data::TableConfig;

/// Width of one policy input row: the table features and three
/// device-state features (relative bytes, dimension and lookup load).
pub(crate) const INPUT_DIM: usize = nshard_cost::TABLE_FEATURE_DIM + 3;

/// Table indices in placement order: largest first, ties by index.
pub(crate) fn placement_order(tables: &[TableConfig]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tables.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tables[i].memory_bytes()));
    order
}

/// Per-device load of the tables placed so far, each relative to its
/// per-device mean over all the tables.
pub(crate) struct DeviceState {
    bytes: Vec<f64>,
    dims: Vec<f64>,
    lookups: Vec<f64>,
    per_dev_bytes: f64,
    per_dev_dim: f64,
    per_dev_lookup: f64,
}

impl DeviceState {
    /// No table placed yet on any of `num_devices` devices.
    pub(crate) fn new(tables: &[TableConfig], num_devices: usize) -> Self {
        let d = num_devices as f64;
        let total_bytes: f64 = tables.iter().map(|t| t.memory_bytes() as f64).sum();
        let total_dim: f64 = tables.iter().map(|t| f64::from(t.dim())).sum();
        let total_lookup: f64 = tables
            .iter()
            .map(|t| f64::from(t.dim()) * t.pooling_factor())
            .sum();
        Self {
            bytes: vec![0.0; num_devices],
            dims: vec![0.0; num_devices],
            lookups: vec![0.0; num_devices],
            per_dev_bytes: (total_bytes / d).max(1.0),
            per_dev_dim: (total_dim / d).max(1.0),
            per_dev_lookup: (total_lookup / d).max(1.0),
        }
    }

    /// One input row per device for placing `table` next.
    pub(crate) fn inputs(&self, table: &TableConfig, batch_size: u32) -> Vec<Vec<f32>> {
        let tf = table_features(&table.profile(batch_size), batch_size);
        (0..self.bytes.len())
            .map(|g| {
                let mut x = tf.clone();
                x.push((self.bytes[g] / self.per_dev_bytes) as f32);
                x.push((self.dims[g] / self.per_dev_dim) as f32);
                x.push((self.lookups[g] / self.per_dev_lookup) as f32);
                x
            })
            .collect()
    }

    /// Records `table` on `device`.
    pub(crate) fn place(&mut self, table: &TableConfig, device: usize) {
        self.bytes[device] += table.memory_bytes() as f64;
        self.dims[device] += f64::from(table.dim());
        self.lookups[device] += f64::from(table.dim()) * table.pooling_factor();
    }
}

/// Softmax of the policy's per-device scores, in f64.
pub(crate) fn softmax(scores: &[f32]) -> Vec<f64> {
    let max = scores.iter().cloned().fold(f32::MIN, f32::max);
    let exps: Vec<f64> = scores.iter().map(|&s| f64::from(s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}
