//! A row-major `f32` matrix with the operations backpropagation needs.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
///
/// This is deliberately minimal: the buffers dense-layer forward/backward
/// passes fill (the products themselves are [`crate::gemm`]'s), with
/// row access and row selection. No broadcasting, no views, no BLAS.
///
/// # Example
///
/// ```
/// use nshard_nn::Matrix;
///
/// let a = Matrix::from_rows([vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!((a.rows(), a.cols(), a.get(1, 0)), (2, 2, 3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "MatrixRepr")]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A [`Matrix`] as stored; decoding checks that its data fills its shape.
#[derive(Deserialize)]
struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl TryFrom<MatrixRepr> for Matrix {
    type Error = String;

    fn try_from(m: MatrixRepr) -> Result<Self, String> {
        let (rows, cols, len) = (m.rows, m.cols, m.data.len());
        if rows.checked_mul(cols) != Some(len) {
            return Err(format!("a {rows}×{cols} matrix holds {len} values"));
        }
        Ok(Self::from_flat(rows, cols, m.data))
    }
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
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
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

    /// Reshapes to `rows × cols` and zero-fills, reusing the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.reshape(rows, cols);
    }

    /// Reshapes to `rows × cols`, reusing the allocation and keeping the
    /// values it holds (new elements are zero): for a caller that then
    /// writes every element.
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an exact copy of `other`, reusing the allocation.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `self += other * scale`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn add_scaled(&mut self, other: &Matrix, scale: f32) {
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
    pub(crate) fn select_rows(&self, indices: &[usize]) -> Matrix {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `a · b` through the free `gemm_into`.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        crate::gemm::gemm_into(a.as_slice(), b.as_slice(), m, k, n, out.as_mut_slice());
        out
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows([vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows([vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows([vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn col_sums() {
        let m = Matrix::from_flat(3, 2, [1.0, -2.0].repeat(3));
        // A layer's bias gradient: `1ᵀ · m`, one stride-0 row of ones.
        let mut sums = [0.0; 2];
        crate::gemm::at_b_into((&[1.0], 0), (m.as_slice(), 2), 3, 2, 1.0, &mut sums);
        assert_eq!(sums, [3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows([vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let mut eye = Matrix::zeros(3, 3);
        (0..3).for_each(|i| eye.set(i, i, 1.0));
        assert_eq!(matmul(&a, &eye), a);
    }

    #[test]
    fn select_rows_extracts() {
        let m = Matrix::from_rows([vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s, Matrix::from_rows([vec![3.0], vec![1.0]]));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows([vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn serde_round_trip() {
        let m = Matrix::from_rows([vec![1.5, -2.5]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        // Data that does not fill the shape is refused, not decoded.
        let short = r#"{"rows":2,"cols":3,"data":[1.0]}"#;
        assert!(serde_json::from_str::<Matrix>(short).is_err());
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
