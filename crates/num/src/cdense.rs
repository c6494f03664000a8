//! Dense complex matrices: the workhorse of the NEGF kernels.
//!
//! Provides LU factorization with partial pivoting (solve/inverse), products,
//! adjoints, traces, and a Hermitian eigenvalue solver implemented by
//! embedding the `n×n` Hermitian matrix into a `2n×2n` real symmetric one.

use crate::complex::{c64, Complex64};
use crate::dense::Matrix;
use crate::error::{NumError, NumResult};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use gnr_num::{c64, CMatrix};
///
/// let h = CMatrix::from_rows(&[
///     vec![c64(0.0, 0.0), c64(1.0, 0.0)],
///     vec![c64(1.0, 0.0), c64(0.0, 0.0)],
/// ]);
/// let (evals, _) = h.herm_eigen().expect("Hermitian input");
/// assert!((evals[0] + 1.0).abs() < 1e-10 && (evals[1] - 1.0).abs() < 1e-10);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex64::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        CMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Lifts a real matrix into the complex plane.
    pub fn from_real(m: &Matrix) -> Self {
        CMatrix::from_fn(m.rows(), m.cols(), |i, j| c64(m.get(i, j), 0.0))
    }

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

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Complex64) {
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to the entry at `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: Complex64) {
        self.data[i * self.cols + j] += v;
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i).conj())
    }

    /// Plain transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                let row = k * rhs.cols;
                let orow = i * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[orow + j] += a * rhs.data[row + j];
                }
            }
        }
        out
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![Complex64::ZERO; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, &xj) in x.iter().enumerate() {
                acc += self.get(i, j) * xj;
            }
            *yi = acc;
        }
        y
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert_eq!(self.rows, self.cols, "trace requires square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, z| m.max(z.norm()))
    }

    /// `self - rhs` Frobenius distance; convergence measure for iterative
    /// surface Green's function schemes.
    pub fn distance(&self, rhs: &CMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| *z * k).collect(),
        }
    }

    /// In-place LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] if a pivot vanishes and
    /// [`NumError::DimensionMismatch`] for non-square input.
    pub fn lu(&self) -> NumResult<CLuFactors> {
        if self.rows != self.cols {
            return Err(NumError::dims(format!(
                "lu requires square matrix, got {}x{}",
                self.rows, self.cols
            )));
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut best = lu[k * n + k].norm_sqr();
            for i in (k + 1)..n {
                let v = lu[i * n + k].norm_sqr();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(NumError::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                perm.swap(k, p);
            }
            let pivot_inv = lu[k * n + k].recip();
            for i in (k + 1)..n {
                let factor = lu[i * n + k] * pivot_inv;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    let t = lu[k * n + j];
                    lu[i * n + j] -= factor * t;
                }
            }
        }
        Ok(CLuFactors { n, lu, perm })
    }

    /// Solves `self * x = b`.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures; see [`CMatrix::lu`].
    pub fn solve(&self, b: &[Complex64]) -> NumResult<Vec<Complex64>> {
        if b.len() != self.rows {
            return Err(NumError::dims(format!(
                "rhs length {} does not match {} rows",
                b.len(),
                self.rows
            )));
        }
        Ok(self.lu()?.solve(b))
    }

    /// Matrix inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] for singular input.
    pub fn inverse(&self) -> NumResult<CMatrix> {
        let f = self.lu()?;
        let n = self.rows;
        let mut out = CMatrix::zeros(n, n);
        let mut e = vec![Complex64::ZERO; n];
        let mut col = vec![Complex64::ZERO; n];
        for j in 0..n {
            e.fill(Complex64::ZERO);
            e[j] = Complex64::ONE;
            f.solve_into(&e, &mut col);
            for (i, &v) in col.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// Solves `self * X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] for singular `self` and
    /// [`NumError::DimensionMismatch`] if `B` has the wrong row count.
    pub fn solve_matrix(&self, b: &CMatrix) -> NumResult<CMatrix> {
        if b.rows != self.rows {
            return Err(NumError::dims(format!(
                "rhs has {} rows, expected {}",
                b.rows, self.rows
            )));
        }
        let f = self.lu()?;
        let n = self.rows;
        let mut out = CMatrix::zeros(n, b.cols);
        let mut col = vec![Complex64::ZERO; n];
        let mut x = vec![Complex64::ZERO; n];
        for j in 0..b.cols {
            for (i, ci) in col.iter_mut().enumerate() {
                *ci = b.get(i, j);
            }
            f.solve_into(&col, &mut x);
            for (i, &v) in x.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// Hermiticity defect `max |A - A†|`; zero for Hermitian matrices.
    pub fn hermiticity_defect(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in i..self.cols {
                let d = (self.get(i, j) - self.get(j, i).conj()).norm();
                worst = worst.max(d);
            }
        }
        worst
    }

    /// Eigen-decomposition of a *Hermitian* matrix.
    ///
    /// The `n×n` Hermitian problem is embedded into the `2n×2n` real
    /// symmetric matrix `[[Re A, -Im A], [Im A, Re A]]`, whose spectrum is
    /// that of `A` with each eigenvalue doubled. Returns `(eigenvalues,
    /// eigenvectors)` sorted ascending, eigenvectors as columns.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] if the matrix is not Hermitian
    /// within tolerance, or propagates the real solver's failures.
    pub fn herm_eigen(&self) -> NumResult<(Vec<f64>, CMatrix)> {
        let big = self.real_embedding()?;
        let n = self.rows;
        let (evals, evecs) = big.sym_eigen()?;
        // Each eigenvalue appears twice; take every other one and rebuild the
        // complex eigenvector from the paired real/imag blocks.
        let mut out_vals = Vec::with_capacity(n);
        let mut out_vecs = CMatrix::zeros(n, n);
        let mut k = 0;
        let mut col = 0;
        while col < n {
            out_vals.push(evals[k]);
            for i in 0..n {
                out_vecs.set(i, col, c64(evecs.get(i, k), evecs.get(n + i, k)));
            }
            // Skip the degenerate partner produced by the embedding.
            k += 2;
            col += 1;
        }
        Ok((out_vals, out_vecs))
    }

    /// Eigenvalues of a *Hermitian* matrix, ascending, without
    /// eigenvectors: [`Matrix::sym_eigenvalues`] on the same real embedding
    /// that [`CMatrix::herm_eigen`] diagonalizes, keeping one value of each
    /// degenerate pair.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] if the matrix is not Hermitian
    /// within tolerance, or propagates the real solver's failures.
    pub fn herm_eigenvalues(&self) -> NumResult<Vec<f64>> {
        let evals = self.real_embedding()?.into_sym_eigenvalues()?;
        Ok(evals.into_iter().step_by(2).collect())
    }

    /// The `2n × 2n` real symmetric embedding `[[Re A, -Im A], [Im A,
    /// Re A]]` of a Hermitian `A`, after checking that `A` is square and
    /// Hermitian within tolerance.
    fn real_embedding(&self) -> NumResult<Matrix> {
        if self.rows != self.cols {
            return Err(NumError::dims("herm_eigen requires a square matrix"));
        }
        let tol = 1e-9 * (1.0 + self.max_abs());
        if self.hermiticity_defect() > tol {
            return Err(NumError::invalid("matrix is not Hermitian"));
        }
        let n = self.rows;
        Ok(Matrix::from_fn(2 * n, 2 * n, |i, j| {
            let (bi, ii) = (i / n, i % n);
            let (bj, jj) = (j / n, j % n);
            let z = self.get(ii, jj);
            match (bi, bj) {
                (0, 0) | (1, 1) => z.re,
                (0, 1) => -z.im,
                (1, 0) => z.im,
                _ => unreachable!(),
            }
        }))
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl AddAssign<&CMatrix> for CMatrix {
    /// Elementwise `self += rhs` — the same operations (and bit patterns)
    /// as `&self + rhs`, without allocating the result.
    fn add_assign(&mut self, rhs: &CMatrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&CMatrix> for CMatrix {
    /// Elementwise `self -= rhs` — the same operations (and bit patterns)
    /// as `&self - rhs`, without allocating the result.
    fn sub_assign(&mut self, rhs: &CMatrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

/// LU factors of a complex matrix, reusable for multiple right-hand sides.
#[derive(Clone, Debug)]
pub struct CLuFactors {
    n: usize,
    lu: Vec<Complex64>,
    perm: Vec<usize>,
}

impl CLuFactors {
    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve(&self, b: &[Complex64]) -> Vec<Complex64> {
        let mut x = vec![Complex64::ZERO; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// [`Self::solve`] into a caller-provided buffer — identical
    /// substitution arithmetic, no allocation. The hot RGF and decimation
    /// loops invert many small blocks; reusing one scratch vector keeps
    /// those column solves off the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not match the factored
    /// dimension.
    pub fn solve_into(&self, b: &[Complex64], x: &mut [Complex64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let n = self.n;
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= self.lu[i * n + j] * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                acc -= self.lu[i * n + j] * xj;
            }
            x[i] = acc / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_roundtrip() {
        let a = CMatrix::from_rows(&[
            vec![c64(2.0, 1.0), c64(0.5, -0.5), c64(0.0, 0.0)],
            vec![c64(1.0, 0.0), c64(3.0, 0.0), c64(0.0, 1.0)],
            vec![c64(0.0, -1.0), c64(1.0, 1.0), c64(2.5, 0.0)],
        ]);
        let inv = a.inverse().unwrap();
        let id = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert!((id.get(i, j) - expect).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_matvec() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 1.0), c64(2.0, 0.0)],
            vec![c64(0.0, -1.0), c64(1.0, 0.5)],
        ]);
        let x_true = vec![c64(0.3, -0.2), c64(1.5, 0.7)];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((*xs - *xt).norm() < 1e-12);
        }
    }

    #[test]
    fn adjoint_properties() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 2.0), c64(3.0, -1.0)],
            vec![c64(0.0, 1.0), c64(2.0, 2.0)],
        ]);
        let adj = a.adjoint();
        assert_eq!(adj.get(0, 1), c64(0.0, -1.0));
        assert_eq!(adj.get(1, 0), c64(3.0, 1.0));
        // (AB)† = B†A†
        let b = CMatrix::identity(2).scale(c64(0.0, 1.0));
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!(lhs.distance(&rhs) < 1e-14);
    }

    #[test]
    fn trace_is_sum_of_diagonal() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 1.0), c64(9.0, 9.0)],
            vec![c64(9.0, 9.0), c64(2.0, -3.0)],
        ]);
        assert_eq!(a.trace(), c64(3.0, -2.0));
    }

    #[test]
    fn hermitian_eigen_pauli_y() {
        // sigma_y = [[0, -i], [i, 0]] has eigenvalues -1, +1.
        let sy = CMatrix::from_rows(&[
            vec![Complex64::ZERO, c64(0.0, -1.0)],
            vec![c64(0.0, 1.0), Complex64::ZERO],
        ]);
        let (evals, evecs) = sy.herm_eigen().unwrap();
        assert!((evals[0] + 1.0).abs() < 1e-10);
        assert!((evals[1] - 1.0).abs() < 1e-10);
        for (k, &ev) in evals.iter().enumerate() {
            let v: Vec<Complex64> = (0..2).map(|i| evecs.get(i, k)).collect();
            let av = sy.matvec(&v);
            let norm_v: f64 = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            assert!(norm_v > 1e-8, "eigenvector must be nonzero");
            for i in 0..2 {
                assert!((av[i] - v[i].scale(ev)).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn hermitian_eigen_rejects_non_hermitian() {
        let a = CMatrix::from_rows(&[
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
            vec![c64(2.0, 0.0), c64(0.0, 0.0)],
        ]);
        assert!(a.herm_eigen().is_err());
    }

    #[test]
    fn singular_reports_error() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(2.0, 0.0)],
            vec![c64(2.0, 0.0), c64(4.0, 0.0)],
        ]);
        assert!(matches!(a.lu(), Err(NumError::SingularMatrix { .. })));
    }

    #[test]
    fn solve_matrix_inverse_consistency() {
        let a = CMatrix::from_rows(&[
            vec![c64(4.0, 0.5), c64(1.0, -1.0)],
            vec![c64(1.0, 1.0), c64(3.0, 0.0)],
        ]);
        let x = a.solve_matrix(&CMatrix::identity(2)).unwrap();
        let inv = a.inverse().unwrap();
        assert!(x.distance(&inv) < 1e-12);
    }

    #[test]
    fn herm_eigen_larger_hamiltonian() {
        // 6-site complex ring with flux: H[i][i+1] = e^{i phi}. Hermitian.
        let n = 6;
        let phi = 0.37f64;
        let t = c64(phi.cos(), phi.sin());
        let mut h = CMatrix::zeros(n, n);
        for i in 0..n {
            let j = (i + 1) % n;
            h.set(i, j, t);
            h.set(j, i, t.conj());
        }
        let (evals, _) = h.herm_eigen().unwrap();
        // Analytic: 2 cos(2 pi k / n + phi)
        let mut expect: Vec<f64> = (0..n)
            .map(|k| 2.0 * (2.0 * std::f64::consts::PI * k as f64 / n as f64 + phi).cos())
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, w) in evals.iter().zip(&expect) {
            assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }
}
