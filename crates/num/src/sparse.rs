//! Sparse matrices in compressed-sparse-row (CSR) form.
//!
//! Built for the 3D Poisson discretization in `gnr-poisson`: assembled once
//! from (row, col, value) triplets, then used for repeated matrix–vector
//! products inside Krylov solvers.

use crate::error::{NumError, NumResult};

/// Accumulating builder that collects `(row, col, value)` triplets and
/// compresses them into a [`CsrMatrix`]. Duplicate coordinates are summed,
/// which makes finite-volume stencil assembly natural.
///
/// # Example
///
/// ```
/// use gnr_num::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.push(0, 0, 2.0);
/// b.push(0, 0, 1.0); // accumulates: entry becomes 3.0
/// b.push(1, 1, 5.0);
/// let m = b.build();
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 5.0]);
/// ```
#[derive(Clone, Debug)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "triplet out of bounds");
        self.entries.push((row, col, value));
    }

    /// Number of raw (pre-compression) triplets collected so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no triplets were pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compresses the triplets into CSR form, summing duplicates.
    ///
    /// Entries whose duplicates cancel to exactly `0.0` are *kept* as
    /// explicit structural zeros: the resulting sparsity pattern depends
    /// only on the coordinates pushed, never on the values. Two assemblies
    /// of the same stencil therefore always agree in `row_ptr`/`col_idx`,
    /// which is the invariant the symbolic-reuse sparse LU
    /// ([`crate::sparse_lu`]) relies on.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        let mut it = self.entries.into_iter().peekable();
        while let Some((r, c, mut v)) = it.next() {
            while let Some(&(r2, c2, v2)) = it.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    it.next();
                } else {
                    break;
                }
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// An immutable sparse matrix in CSR format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)`, zero if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// The stored entries of one row as `(col, value)` pairs.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer (hot path of the
    /// Krylov solvers; avoids re-allocating every iteration).
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the matrix shape.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "x length must equal cols");
        assert_eq!(y.len(), self.rows, "y length must equal rows");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// Extracts the diagonal; absent entries are zero.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] for non-square matrices.
    pub fn diagonal(&self) -> NumResult<Vec<f64>> {
        if self.rows != self.cols {
            return Err(NumError::dims("diagonal requires a square matrix"));
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).collect())
    }

    /// Densifies the matrix (for the direct-LU fallback on small systems;
    /// O(rows·cols) memory, so keep it off large grids).
    pub fn to_dense(&self) -> crate::dense::Matrix {
        let mut m = crate::dense::Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m.set(r, c, v);
            }
        }
        m
    }

    /// Symmetry defect `max |A_ij - A_ji|` over stored entries; useful to
    /// validate finite-volume assembly before handing the matrix to CG.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] for non-square matrices
    /// (symmetry is undefined there, and transposed lookups would index
    /// out of bounds).
    pub fn symmetry_defect(&self) -> NumResult<f64> {
        if self.rows != self.cols {
            return Err(NumError::dims(format!(
                "symmetry_defect requires a square matrix, got {}x{}",
                self.rows, self.cols
            )));
        }
        let mut worst = 0.0f64;
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                worst = worst.max((v - self.get(c, r)).abs());
            }
        }
        Ok(worst)
    }

    /// Builds a matrix directly from CSR parts (the inverse of
    /// [`row_ptr`](Self::row_ptr), [`col_idx`](Self::col_idx) and
    /// [`values`](Self::values)); used by fixed-pattern assemblers that
    /// overwrite `values` in place between factorizations.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] when the parts are inconsistent
    /// (pointer length, monotonicity, column bounds, value count, or
    /// unsorted/duplicate columns within a row).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> NumResult<Self> {
        if row_ptr.len() != rows + 1 || row_ptr[0] != 0 || row_ptr[rows] != col_idx.len() {
            return Err(NumError::invalid("csr row_ptr is inconsistent"));
        }
        if values.len() != col_idx.len() {
            return Err(NumError::invalid("csr values length != col_idx length"));
        }
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if lo > hi || hi > col_idx.len() {
                return Err(NumError::invalid("csr row_ptr is not monotone"));
            }
            for k in lo..hi {
                if col_idx[k] >= cols {
                    return Err(NumError::invalid("csr column index out of bounds"));
                }
                if k > lo && col_idx[k] <= col_idx[k - 1] {
                    return Err(NumError::invalid("csr columns must be strictly increasing"));
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Row pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices of the stored entries, row-major.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values, aligned with [`CsrMatrix::col_idx`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values. The sparsity pattern itself is
    /// immutable; this is the fixed-pattern restamping hook used by the
    /// MNA assembler between Newton iterations.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// `true` when `other` has the identical sparsity pattern (shape,
    /// `row_ptr`, and `col_idx`); values are ignored.
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        let mut b = TripletBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 4.0);
        }
        for i in 0..2 {
            b.push(i, i + 1, -1.0);
            b.push(i + 1, i, -1.0);
        }
        b.build()
    }

    #[test]
    fn build_and_lookup() {
        let m = sample();
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn duplicates_accumulate_and_cancellation_keeps_structure() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 0, 5.0);
        b.push(1, 0, -5.0); // cancels to zero -> kept as a structural zero
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.nnz(), 2, "cancelled entry stays in the pattern");
    }

    /// Two assemblies of one stencil with different values must yield the
    /// identical sparsity pattern, even when one value-set cancels some
    /// entries to exactly zero — the invariant symbolic-pattern reuse
    /// depends on.
    #[test]
    fn pattern_is_value_independent() {
        let assemble = |vals: [f64; 4]| {
            let mut b = TripletBuilder::new(3, 3);
            b.push(0, 0, vals[0]);
            b.push(0, 0, vals[1]); // duplicate that may cancel
            b.push(1, 1, vals[2]);
            b.push(2, 0, vals[3]);
            b.push(2, 2, 1.0);
            b.build()
        };
        let a = assemble([2.0, 1.0, 5.0, -3.0]);
        let b = assemble([4.0, -4.0, 0.0, 0.0]); // cancels (0,0); zeros elsewhere
        assert_eq!(
            a.row_ptr(),
            b.row_ptr(),
            "row_ptr must not depend on values"
        );
        assert_eq!(
            a.col_idx(),
            b.col_idx(),
            "col_idx must not depend on values"
        );
        assert_eq!(a.nnz(), b.nnz());
        assert!(a.same_pattern(&b));
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x), vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn row_iteration_in_column_order() {
        let m = sample();
        let row1: Vec<_> = m.row(1).collect();
        assert_eq!(row1, vec![(0, -1.0), (1, 4.0), (2, -1.0)]);
    }

    #[test]
    fn diagonal_and_symmetry() {
        let m = sample();
        assert_eq!(m.diagonal().unwrap(), vec![4.0, 4.0, 4.0]);
        assert_eq!(m.symmetry_defect().unwrap(), 0.0);
    }

    #[test]
    fn asymmetry_detected() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 2.0);
        b.push(1, 0, -2.0);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        let m = b.build();
        assert_eq!(m.symmetry_defect().unwrap(), 4.0);
    }

    /// Regression: `symmetry_defect` on a wide matrix used to index
    /// `row_ptr[c + 1]` with a column index and panic; it must instead
    /// report a dimension error like `diagonal()` does.
    #[test]
    fn symmetry_defect_rejects_non_square() {
        let mut b = TripletBuilder::new(2, 4);
        b.push(0, 3, 1.0); // col 3 > rows 2: the old code panicked here
        b.push(1, 1, 2.0);
        let m = b.build();
        assert!(matches!(
            m.symmetry_defect(),
            Err(NumError::DimensionMismatch { .. })
        ));
        let mut tall = TripletBuilder::new(4, 2);
        tall.push(3, 0, 1.0);
        assert!(tall.build().symmetry_defect().is_err());
    }

    #[test]
    fn from_parts_validates() {
        let m = sample();
        let rebuilt = CsrMatrix::from_parts(
            3,
            3,
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 1], vec![2], vec![1.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_builder() {
        let b = TripletBuilder::new(3, 3);
        assert!(b.is_empty());
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![0.0; 3]);
    }
}
