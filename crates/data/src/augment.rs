//! Table augmentation (Algorithm 3 of the paper).
//!
//! For each table in the pool, generate one augmented table per dimension in
//! a dimension set. The augmented pool lets the pre-trained cost models
//! cover every dimension that feature selection or column-wise sharding can
//! produce, which is why NeuroShard never needs re-training when table
//! dimensions change (§3.2, "Deployment").

use crate::pool::TablePool;

/// Expands `pool` across `dims`: the result contains, for every table in
/// the pool and every dimension in `dims`, a copy of the table with that
/// dimension (Algorithm 3). Augmented copies keep the original [`crate::TableId`].
///
/// Dimensions of zero are skipped (they cannot form a valid table).
///
/// # Example
///
/// ```
/// use nshard_data::{augment_pool, TablePool, PAPER_DIMS};
///
/// let pool = TablePool::synthetic_dlrm(10, 1);
/// let augmented = augment_pool(&pool, &PAPER_DIMS);
/// assert_eq!(augmented.len(), 10 * PAPER_DIMS.len());
/// ```
pub fn augment_pool(pool: &TablePool, dims: &[u32]) -> TablePool {
    let mut tables = Vec::with_capacity(pool.len() * dims.len());
    for table in pool {
        for &dim in dims {
            if dim == 0 {
                continue;
            }
            tables.push(table.with_dim(dim));
        }
    }
    TablePool::from_tables(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_DIMS;
    use proptest::prelude::*;

    #[test]
    fn augments_every_table_with_every_dim() {
        let pool = TablePool::synthetic_dlrm(5, 3);
        let aug = augment_pool(&pool, &PAPER_DIMS);
        assert_eq!(aug.len(), 5 * 6);
        assert!(PAPER_DIMS.iter().all(|&d| aug.iter().any(|t| t.dim() == d)));
        // Each source table contributes exactly PAPER_DIMS.len() copies.
        for src in &pool {
            let copies = aug.iter().filter(|t| t.id() == src.id()).count();
            assert_eq!(copies, PAPER_DIMS.len());
        }
    }

    #[test]
    fn augmented_copies_preserve_everything_but_dim() {
        let pool = TablePool::synthetic_dlrm(3, 5);
        let aug = augment_pool(&pool, &[8]);
        for (src, out) in pool.iter().zip(aug.iter()) {
            assert_eq!(out.dim(), 8);
            assert_eq!(out.hash_size(), src.hash_size());
            assert_eq!(out.pooling_factor(), src.pooling_factor());
            assert_eq!(out.zipf_alpha(), src.zipf_alpha());
        }
    }

    #[test]
    fn zero_dims_are_skipped() {
        let pool = TablePool::synthetic_dlrm(4, 1);
        let aug = augment_pool(&pool, &[0, 16]);
        assert_eq!(aug.len(), 4);
    }

    #[test]
    fn empty_inputs_yield_empty_pools() {
        assert!(augment_pool(&TablePool::default(), &PAPER_DIMS).is_empty());
        let pool = TablePool::synthetic_dlrm(4, 1);
        assert!(augment_pool(&pool, &[]).is_empty());
    }

    proptest! {
        #[test]
        fn output_size_is_product(n in 0usize..20, k in 0usize..8) {
            let pool = TablePool::synthetic_dlrm(n, 1);
            let dims: Vec<u32> = (0..k).map(|i| 4 << i).collect();
            let aug = augment_pool(&pool, &dims);
            prop_assert_eq!(aug.len(), n * k);
        }
    }
}
