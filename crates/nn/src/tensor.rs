//! A row-major `f32` matrix with the operations backpropagation needs.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
///
/// This is deliberately minimal: just what dense-layer forward/backward
/// passes require (matmul with optional transposes, element-wise maps,
/// column sums). No broadcasting, no views, no BLAS.
///
/// # Example
///
/// ```
/// use nshard_nn::Matrix;
///
/// let a = Matrix::from_rows([vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer has the wrong length");
        Self { rows, cols, data }
    }

    /// Builds a matrix from an iterator of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f32]>,
    {
        let mut data = Vec::new();
        let mut n_rows = 0;
        let mut n_cols = None;
        for row in rows {
            let row = row.as_ref();
            match n_cols {
                None => n_cols = Some(row.len()),
                Some(c) => assert_eq!(c, row.len(), "rows must have equal lengths"),
            }
            data.extend_from_slice(row);
            n_rows += 1;
        }
        Self {
            rows: n_rows,
            cols: n_cols.unwrap_or(0),
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of the contiguous rows `rows` as one flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub(crate) fn row_range(&self, rows: std::ops::Range<usize>) -> &[f32] {
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "rows out of bounds"
        );
        &self.data[rows.start * self.cols..rows.end * self.cols]
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other`, via the cache-blocked kernel in [`crate::gemm`].
    ///
    /// Bit-identical to [`crate::gemm::gemm_ref_into`] (the kernels accumulate each
    /// output element over `k` in the same ascending order).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other` into a caller-provided output matrix, reusing its
    /// allocation. The output is reshaped to `self.rows × other.cols`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset(self.rows, other.cols);
        crate::gemm::gemm_into(
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
            &mut out.data,
        );
    }

    /// Reshapes to `rows × cols` and zero-fills, reusing the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Adds `bias` to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column sums (a layer's bias gradient) into a caller-provided buffer:
    /// each sum starts at `+0.0` and adds its column top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if `sums.len() != self.cols`.
    pub(crate) fn col_sums_into(&self, sums: &mut [f32]) {
        assert_eq!(sums.len(), self.cols, "column sum length mismatch");
        sums.fill(0.0);
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self += other * scale`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.rows, other.rows, "add_scaled shape mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// Selects the given rows into a new matrix (used for splits).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Selects the given rows into `out`, reusing its allocation (used for
    /// mini-batching).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub(crate) fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reset(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows([vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows([vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows([vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn bias_and_col_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_bias(&[1.0, -2.0]);
        let mut sums = [9.0; 2];
        m.col_sums_into(&mut sums);
        assert_eq!(sums, [3.0, -6.0]);
    }

    #[test]
    fn select_rows_extracts() {
        let m = Matrix::from_rows([vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s, Matrix::from_rows([vec![3.0], vec![1.0]]));
    }

    #[test]
    fn map_inplace_applies() {
        let mut m = Matrix::from_rows([vec![-1.0, 2.0]]);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m, Matrix::from_rows([vec![0.0, 2.0]]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows([vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows([vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows([vec![1.5, -2.5]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    proptest! {
        #[test]
        fn add_scaled_then_subtract_is_identity(
            vals in proptest::collection::vec(-10.0f32..10.0, 8),
        ) {
            let m0 = Matrix::from_flat(2, 4, vals.clone());
            let mut m = m0.clone();
            let delta = Matrix::from_flat(2, 4, vals);
            m.add_scaled(&delta, 0.5);
            m.add_scaled(&delta, -0.5);
            for (a, b) in m.as_slice().iter().zip(m0.as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
