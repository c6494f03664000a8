//! Dense real matrices with LU factorization, a cyclic-Jacobi symmetric
//! eigensolver, and an eigenvalues-only Householder + QL solver.
//!
//! Sized for the workspace's needs: band-structure Hamiltonians embedded as
//! real symmetric matrices (≤ ~100×100) and small MNA Jacobians in the
//! circuit simulator. Row-major storage.

use crate::error::{NumError, NumResult};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use gnr_num::Matrix;
///
/// let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
/// let b = vec![1.0, 2.0];
/// let x = a.solve(&b).expect("well-conditioned system");
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
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
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to the entry at `(i, j)` (stamping, as used by MNA assembly).
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] += v;
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.get(k, j);
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
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += self.get(i, j) * xj;
            }
            *yi = acc;
        }
        y
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Resets every entry to zero in place, keeping the allocation (the
    /// per-iteration Jacobian reset of the circuit Newton loops).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// LU factorization with partial pivoting.
    ///
    /// Allocates a fresh [`LuFactors`]; loops that factor many same-sized
    /// matrices should keep one workspace and call [`LuFactors::factor`].
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] if a pivot underflows, and
    /// [`NumError::DimensionMismatch`] for non-square input.
    pub fn lu(&self) -> NumResult<LuFactors> {
        let mut f = LuFactors::default();
        f.factor(self)?;
        Ok(f)
    }

    /// Solves `self * x = b` via LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures; see [`Matrix::lu`].
    pub fn solve(&self, b: &[f64]) -> NumResult<Vec<f64>> {
        let mut x = vec![0.0; self.rows];
        self.solve_into(&mut LuFactors::default(), b, &mut x)?;
        Ok(x)
    }

    /// [`Matrix::solve`] through caller-owned buffers: factors into the
    /// workspace `lu` and writes the solution into `x`, allocating nothing
    /// once the buffers have grown to size. Results are bit-identical to
    /// [`Matrix::solve`], which delegates here.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `b` or `x` does not match
    /// the row count, and propagates factorization failures.
    pub fn solve_into(&self, lu: &mut LuFactors, b: &[f64], x: &mut [f64]) -> NumResult<()> {
        if b.len() != self.rows {
            return Err(NumError::dims(format!(
                "rhs length {} does not match {} rows",
                b.len(),
                self.rows
            )));
        }
        if x.len() != self.rows {
            return Err(NumError::dims(format!(
                "solution length {} does not match {} rows",
                x.len(),
                self.rows
            )));
        }
        lu.factor(self)?;
        lu.solve_into(b, x);
        Ok(())
    }

    /// Matrix inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] for singular input.
    pub fn inverse(&self) -> NumResult<Matrix> {
        let f = self.lu()?;
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e.fill(0.0);
            e[j] = 1.0;
            f.solve_into(&e, &mut col);
            for (i, &v) in col.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// Determinant via LU factorization; zero if the matrix is singular.
    pub fn det(&self) -> f64 {
        match self.lu() {
            Ok(f) => {
                let n = f.n;
                let mut d = f.sign;
                for k in 0..n {
                    d *= f.lu[k * n + k];
                }
                d
            }
            Err(_) => 0.0,
        }
    }

    /// Eigen-decomposition of a *symmetric* matrix by the cyclic Jacobi
    /// method. Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted
    /// ascending and eigenvectors as matrix columns.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] for non-square input and
    /// [`NumError::NoConvergence`] if the off-diagonal norm fails to vanish
    /// (does not occur for genuinely symmetric input).
    pub fn sym_eigen(&self) -> NumResult<(Vec<f64>, Matrix)> {
        if self.rows != self.cols {
            return Err(NumError::dims("sym_eigen requires a square matrix"));
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut v = Matrix::identity(n);
        let max_sweeps = 64;
        for sweep in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a.get(i, j).powi(2);
                }
            }
            if off.sqrt() < 1e-13 * (1.0 + self.max_abs()) {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&i, &j| a.get(i, i).partial_cmp(&a.get(j, j)).unwrap());
                let evals: Vec<f64> = order.iter().map(|&i| a.get(i, i)).collect();
                let evecs = Matrix::from_fn(n, n, |r, c| v.get(r, order[c]));
                return Ok((evals, evecs));
            }
            let _ = sweep;
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = 0.5 * (aqq - app) / apq;
                    // Numerically stable tangent of the rotation angle.
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        Err(NumError::NoConvergence {
            iterations: max_sweeps,
            residual: f64::NAN,
        })
    }

    /// Eigenvalues of a *symmetric* matrix, ascending, without
    /// eigenvectors: Householder reduction to tridiagonal form, then
    /// implicit QL with Wilkinson shifts. Only the lower triangle is read.
    ///
    /// Agrees with [`Matrix::sym_eigen`] to a few ulps of `‖A‖` per sorted
    /// index, at a fraction of the cost (no rotations are accumulated).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] for non-square input,
    /// [`NumError::NonFinite`] if an entry or a result is NaN or infinite,
    /// and [`NumError::NoConvergence`] if one eigenvalue needs more than 30
    /// QL sweeps.
    pub fn sym_eigenvalues(&self) -> NumResult<Vec<f64>> {
        self.clone().into_sym_eigenvalues()
    }

    /// [`Matrix::sym_eigenvalues`] that reduces `self` in place, so a
    /// caller that built the matrix only to diagonalize it pays no copy.
    pub(crate) fn into_sym_eigenvalues(mut self) -> NumResult<Vec<f64>> {
        if self.rows != self.cols {
            return Err(NumError::dims("sym_eigenvalues requires a square matrix"));
        }
        if !self.data.iter().all(|v| v.is_finite()) {
            return Err(NumError::non_finite("sym_eigenvalues input"));
        }
        let n = self.rows;
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut self.data, n, &mut d, &mut e);
        tridiagonal_ql(&mut d, &mut e)?;
        if !d.iter().all(|v| v.is_finite()) {
            return Err(NumError::non_finite("sym_eigenvalues result"));
        }
        d.sort_by(f64::total_cmp);
        Ok(d)
    }
}

/// QL sweeps allowed per eigenvalue in [`Matrix::sym_eigenvalues`]; with
/// Wilkinson shifts an eigenvalue converges cubically, in 2-3 sweeps.
const MAX_QL_ITERATIONS: usize = 30;

/// Householder reduction of the symmetric row-major `n × n` matrix `a`
/// (lower triangle) to tridiagonal form: diagonal `d`, sub-diagonal
/// `e[1..]` (`e[0] = 0`). Destroys `a`; accumulates no transformations.
fn tridiagonalize(a: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        if l == 0 {
            e[i] = a[i * n];
            continue;
        }
        // Scale the row to avoid under/overflow in the reflector norm.
        let scale: f64 = a[i * n..=i * n + l].iter().map(|v| v.abs()).sum();
        if scale == 0.0 {
            e[i] = a[i * n + l];
            continue;
        }
        let mut h = 0.0;
        for v in &mut a[i * n..=i * n + l] {
            *v /= scale;
            h += *v * *v;
        }
        let f = a[i * n + l];
        let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
        e[i] = scale * g;
        h -= f * g;
        a[i * n + l] = f - g;
        // p = A u / h, stored in e[0..=l]; f accumulates uᵀp.
        let mut f = 0.0;
        for j in 0..=l {
            let mut g = 0.0;
            for k in 0..=j {
                g += a[j * n + k] * a[i * n + k];
            }
            for k in (j + 1)..=l {
                g += a[k * n + j] * a[i * n + k];
            }
            e[j] = g / h;
            f += e[j] * a[i * n + j];
        }
        // A ← A − q uᵀ − u qᵀ with q = p − (uᵀp / 2h) u.
        let hh = f / (h + h);
        for j in 0..=l {
            let f = a[i * n + j];
            let g = e[j] - hh * f;
            e[j] = g;
            for k in 0..=j {
                a[j * n + k] -= f * e[k] + g * a[i * n + k];
            }
        }
    }
    for (i, di) in d.iter_mut().enumerate() {
        *di = a[i * n + i];
    }
    if let Some(e0) = e.first_mut() {
        *e0 = 0.0;
    }
}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
/// sub-diagonal `e[1..]` by implicit QL with Wilkinson shifts; the values
/// overwrite `d` (unsorted) and `e` is destroyed.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64]) -> NumResult<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    e.rotate_left(1);
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iterations = 0;
        loop {
            // Find the first negligible sub-diagonal element at or below l.
            let mut m = l;
            while m + 1 < n && e[m].abs() > f64::EPSILON * (d[m].abs() + d[m + 1].abs()) {
                m += 1;
            }
            if m == l {
                break;
            }
            iterations += 1;
            if iterations > MAX_QL_ITERATIONS {
                return Err(NumError::NoConvergence {
                    iterations: MAX_QL_ITERATIONS,
                    residual: e[l].abs(),
                });
            }
            // Wilkinson shift from the leading 2 × 2 block.
            let g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let r = g.hypot(1.0);
            let mut g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                let r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow: the block split at i; restart on it.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if deflated {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * k).collect(),
        }
    }
}

/// The result of an LU factorization with partial pivoting, reusable for
/// multiple right-hand sides — and, through [`LuFactors::factor`], a
/// reusable workspace for factoring many matrices of the same size.
#[derive(Clone, Debug, Default)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    sign: f64,
}

impl LuFactors {
    /// Factors `a` into this workspace, reusing its buffers: the one dense
    /// elimination kernel ([`Matrix::lu`] and [`Matrix::solve`] delegate
    /// here). On error the workspace holds a partial factorization and
    /// must be re-factored before [`solve`](Self::solve) is used.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] if a pivot underflows, and
    /// [`NumError::DimensionMismatch`] for non-square input.
    pub fn factor(&mut self, a: &Matrix) -> NumResult<()> {
        if a.rows != a.cols {
            return Err(NumError::dims(format!(
                "lu requires square matrix, got {}x{}",
                a.rows, a.cols
            )));
        }
        let n = a.rows;
        self.n = n;
        self.lu.clear();
        self.lu.extend_from_slice(&a.data);
        self.perm.clear();
        self.perm.extend(0..n);
        self.sign = 1.0;
        let lu = &mut self.lu;
        for k in 0..n {
            // Partial pivot: find the largest |entry| in column k at/below k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < f64::MIN_POSITIVE * 16.0 {
                return Err(NumError::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                self.perm.swap(k, p);
                self.sign = -self.sign;
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// [`Self::solve`] into a caller-provided buffer — identical
    /// substitution arithmetic, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not match the factored
    /// dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        let n = self.n;
        // Forward substitution on the permuted rhs.
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
        // Back substitution.
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
    fn identity_solve_roundtrip() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expect.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![3.0, 6.0, -4.0],
            vec![2.0, 1.0, 8.0],
        ]);
        let inv = a.inverse().unwrap();
        let id = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((id.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(NumError::SingularMatrix { .. })));
        assert_eq!(a.det(), 0.0);
    }

    #[test]
    fn determinant_of_triangular() {
        let a = Matrix::from_rows(&[
            vec![2.0, 5.0, 7.0],
            vec![0.0, 3.0, -1.0],
            vec![0.0, 0.0, 4.0],
        ]);
        assert!((a.det() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        // Swapping two rows of the identity gives det = -1.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((a.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sym_eigen_two_by_two() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (evals, evecs) = a.sym_eigen().unwrap();
        assert!((evals[0] - 1.0).abs() < 1e-10);
        assert!((evals[1] - 3.0).abs() < 1e-10);
        // A v = lambda v for each column.
        for (k, &ev) in evals.iter().enumerate() {
            let v: Vec<f64> = (0..2).map(|i| evecs.get(i, k)).collect();
            let av = a.matvec(&v);
            for i in 0..2 {
                assert!((av[i] - ev * v[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn sym_eigen_tridiagonal_chain() {
        // Eigenvalues of the n-site 1D tight-binding chain:
        // lambda_k = 2 cos(k pi / (n+1)), a classic analytic check.
        let n = 8;
        let a = Matrix::from_fn(n, n, |i, j| if i.abs_diff(j) == 1 { 1.0 } else { 0.0 });
        let (evals, _) = a.sym_eigen().unwrap();
        let mut expect: Vec<f64> = (1..=n)
            .map(|k| 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (got, want) in evals.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]));
        assert_eq!(
            a.transpose(),
            Matrix::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]])
        );
    }

    #[test]
    fn operators() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, -1.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[vec![4.0, 1.0]]));
        assert_eq!(&a - &b, Matrix::from_rows(&[vec![-2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[vec![2.0, 4.0]]));
    }

    #[test]
    fn lu_reuse_for_multiple_rhs() {
        let a = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let f = a.lu().unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -3.0]] {
            let x = f.solve(&b);
            let r = a.matvec(&x);
            assert!((r[0] - b[0]).abs() < 1e-12 && (r[1] - b[1]).abs() < 1e-12);
        }
    }
}
