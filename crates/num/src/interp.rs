//! Interpolation on uniform grids.
//!
//! The circuit simulator evaluates device current and charge from tabulated
//! `(V_G, V_D)` data thousands of times per Newton iteration, so these tables
//! are built for fast repeated lookup: uniform grids with O(1) cell location,
//! bilinear value interpolation, and centred finite-difference partial
//! derivatives (needed for conductances and capacitances).

use crate::error::{NumError, NumResult};

/// A uniform 1D grid `x_i = start + i * step`, `i = 0..n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid1 {
    start: f64,
    step: f64,
    n: usize,
}

impl Grid1 {
    /// Creates a grid of `n ≥ 2` points spanning `[start, stop]` inclusive.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] if `n < 2` or `stop <= start`.
    pub fn new(start: f64, stop: f64, n: usize) -> NumResult<Self> {
        if n < 2 {
            return Err(NumError::invalid("grid needs at least 2 points"));
        }
        if stop.is_nan() || start.is_nan() || stop <= start {
            return Err(NumError::invalid("grid stop must exceed start"));
        }
        Ok(Grid1 {
            start,
            step: (stop - start) / (n - 1) as f64,
            n,
        })
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `false`: a valid grid always has ≥ 2 points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First grid point.
    #[inline]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Last grid point.
    #[inline]
    pub fn stop(&self) -> f64 {
        self.start + self.step * (self.n - 1) as f64
    }

    /// Grid spacing.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Coordinate of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn point(&self, i: usize) -> f64 {
        assert!(i < self.n);
        self.start + self.step * i as f64
    }

    /// All grid points as a vector.
    pub fn points(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.point(i)).collect()
    }

    /// Locates `x`: returns `(cell_index, fractional_offset)` with the cell
    /// clamped into range so out-of-range queries extrapolate linearly from
    /// the boundary cell.
    #[inline]
    pub fn locate(&self, x: f64) -> (usize, f64) {
        let t = (x - self.start) / self.step;
        let max_cell = self.n - 2;
        // `floor(max(t, 0))` by truncation: the float-to-int cast rounds
        // towards zero (and saturates, NaN → 0), which equals the floor on
        // the non-negative range, without a libm `floor` call per lookup.
        let cell = (t.max(0.0) as usize).min(max_cell);
        (cell, t - cell as f64)
    }
}

/// Piecewise-linear interpolant over a [`Grid1`].
///
/// # Example
///
/// ```
/// use gnr_num::{Grid1, LinearTable};
///
/// # fn main() -> Result<(), gnr_num::NumError> {
/// let grid = Grid1::new(0.0, 1.0, 11)?;
/// let table = LinearTable::from_fn(grid, |x| x * x);
/// // Piecewise-linear: exact at nodes, close between them.
/// assert!((table.eval(0.5) - 0.25).abs() < 1e-12);
/// assert!((table.eval(0.55) - 0.3025).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinearTable {
    grid: Grid1,
    values: Vec<f64>,
}

impl LinearTable {
    /// Builds a table from precomputed node values.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `values.len() != grid.len()`.
    pub fn new(grid: Grid1, values: Vec<f64>) -> NumResult<Self> {
        if values.len() != grid.len() {
            return Err(NumError::dims(format!(
                "table has {} values for {} grid points",
                values.len(),
                grid.len()
            )));
        }
        Ok(LinearTable { grid, values })
    }

    /// Builds a table by sampling `f` at every node.
    pub fn from_fn(grid: Grid1, mut f: impl FnMut(f64) -> f64) -> Self {
        let values = (0..grid.len()).map(|i| f(grid.point(i))).collect();
        LinearTable { grid, values }
    }

    /// The underlying grid.
    pub fn grid(&self) -> Grid1 {
        self.grid
    }

    /// Node values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Interpolated value at `x` (linear extrapolation outside the grid).
    pub fn eval(&self, x: f64) -> f64 {
        let (i, t) = self.grid.locate(x);
        self.values[i] * (1.0 - t) + self.values[i + 1] * t
    }

    /// Derivative of the interpolant at `x` (slope of the containing cell).
    pub fn deriv(&self, x: f64) -> f64 {
        let (i, _) = self.grid.locate(x);
        (self.values[i + 1] - self.values[i]) / self.grid.step()
    }
}

/// A uniform 2D grid: outer (row) axis × inner (column) axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid2 {
    /// Row axis (first index).
    pub x: Grid1,
    /// Column axis (second index).
    pub y: Grid1,
}

impl Grid2 {
    /// Creates a 2D grid from two 1D axes.
    pub fn new(x: Grid1, y: Grid1) -> Self {
        Grid2 { x, y }
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.x.len() * self.y.len()
    }

    /// `false`: component grids are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Bilinear interpolant over a [`Grid2`]; row-major node storage.
///
/// Used for the `I_D(V_G, V_D)` and `Q(V_G, V_D)` device lookup tables that
/// the paper's circuit simulator is built on.
#[derive(Clone, Debug, PartialEq)]
pub struct BilinearTable {
    grid: Grid2,
    values: Vec<f64>,
}

impl BilinearTable {
    /// Builds a table from row-major node values.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] on a size mismatch.
    pub fn new(grid: Grid2, values: Vec<f64>) -> NumResult<Self> {
        if values.len() != grid.len() {
            return Err(NumError::dims(format!(
                "table has {} values for {} grid nodes",
                values.len(),
                grid.len()
            )));
        }
        Ok(BilinearTable { grid, values })
    }

    /// Builds a table by sampling `f(x, y)` at every node.
    pub fn from_fn(grid: Grid2, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        let mut values = Vec::with_capacity(grid.len());
        for i in 0..grid.x.len() {
            for j in 0..grid.y.len() {
                values.push(f(grid.x.point(i), grid.y.point(j)));
            }
        }
        BilinearTable { grid, values }
    }

    /// The underlying grid.
    pub fn grid(&self) -> Grid2 {
        self.grid
    }

    /// Node value at integer indices `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn node(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.grid.x.len() && j < self.grid.y.len());
        self.values[i * self.grid.y.len() + j]
    }

    /// Locates the cell containing `(x, y)` (the boundary cell outside the
    /// grid) and loads its four corner values — the one cell search every
    /// lookup below shares. Forced inline: called out of line it hands the
    /// cell back through memory, which made single lookups slower than the
    /// separate formulas it replaces.
    #[inline(always)]
    fn cell(&self, x: f64, y: f64) -> Cell {
        let (i, s) = self.grid.x.locate(x);
        let (j, t) = self.grid.y.locate(y);
        let ny = self.grid.y.len();
        Cell {
            s,
            t,
            v00: self.values[i * ny + j],
            v01: self.values[i * ny + j + 1],
            v10: self.values[(i + 1) * ny + j],
            v11: self.values[(i + 1) * ny + j + 1],
        }
    }

    /// Interpolated value at `(x, y)`; bilinear inside the grid, linear
    /// extrapolation from the boundary cell outside it.
    #[inline]
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.cell(x, y).value()
    }

    /// Partial derivative `∂f/∂x` of the bilinear surface at `(x, y)`.
    #[inline]
    pub fn deriv_x(&self, x: f64, y: f64) -> f64 {
        self.cell(x, y).deriv_x(self.grid.x.step())
    }

    /// Partial derivative `∂f/∂y` of the bilinear surface at `(x, y)`.
    #[inline]
    pub fn deriv_y(&self, x: f64, y: f64) -> f64 {
        self.cell(x, y).deriv_y(self.grid.y.step())
    }

    /// `(value, ∂f/∂x, ∂f/∂y)` at `(x, y)` from a single cell search —
    /// bit-identical to [`eval`](Self::eval), [`deriv_x`](Self::deriv_x)
    /// and [`deriv_y`](Self::deriv_y), which share the same formulas. The
    /// circuit Newton loop needs all three per device per iteration.
    #[inline]
    pub fn eval_with_derivs(&self, x: f64, y: f64) -> (f64, f64, f64) {
        let c = self.cell(x, y);
        (
            c.value(),
            c.deriv_x(self.grid.x.step()),
            c.deriv_y(self.grid.y.step()),
        )
    }

    /// Applies `f` to every stored node value, returning a new table
    /// (used e.g. to scale a single-ribbon table to a 4-ribbon array).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> BilinearTable {
        BilinearTable {
            grid: self.grid,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Pointwise combination of two tables defined on the same grid.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if the grids differ.
    pub fn zip_with(
        &self,
        other: &BilinearTable,
        f: impl Fn(f64, f64) -> f64,
    ) -> NumResult<BilinearTable> {
        if self.grid != other.grid {
            return Err(NumError::dims("tables defined on different grids"));
        }
        Ok(BilinearTable {
            grid: self.grid,
            values: self
                .values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// One located grid cell: fractional offsets `(s, t)` along the two axes
/// and the corner values `v_ij` at `(x_i, y_j)` relative to the cell origin.
#[derive(Clone, Copy)]
struct Cell {
    s: f64,
    t: f64,
    v00: f64,
    v01: f64,
    v10: f64,
    v11: f64,
}

impl Cell {
    #[inline]
    fn value(&self) -> f64 {
        let (s, t) = (self.s, self.t);
        self.v00 * (1.0 - s) * (1.0 - t)
            + self.v10 * s * (1.0 - t)
            + self.v01 * (1.0 - s) * t
            + self.v11 * s * t
    }

    #[inline]
    fn deriv_x(&self, step: f64) -> f64 {
        let d0 = self.v10 - self.v00;
        let d1 = self.v11 - self.v01;
        (d0 * (1.0 - self.t) + d1 * self.t) / step
    }

    #[inline]
    fn deriv_y(&self, step: f64) -> f64 {
        let d0 = self.v01 - self.v00;
        let d1 = self.v11 - self.v10;
        (d0 * (1.0 - self.s) + d1 * self.s) / step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_construction_and_points() {
        let g = Grid1::new(0.0, 1.0, 5).unwrap();
        assert_eq!(g.step(), 0.25);
        assert_eq!(g.points(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(g.stop(), 1.0);
    }

    #[test]
    fn grid_rejects_degenerate() {
        assert!(Grid1::new(0.0, 1.0, 1).is_err());
        assert!(Grid1::new(1.0, 1.0, 5).is_err());
        assert!(Grid1::new(2.0, 1.0, 5).is_err());
    }

    #[test]
    fn locate_clamps_out_of_range() {
        let g = Grid1::new(0.0, 1.0, 5).unwrap();
        let (cell, t) = g.locate(-0.5);
        assert_eq!(cell, 0);
        assert!(t < 0.0);
        let (cell, t) = g.locate(2.0);
        assert_eq!(cell, 3);
        assert!(t > 1.0);
        // The truncating cell index equals the clamped floor everywhere,
        // including just below the grid, on nodes, and for NaN.
        let floor_cell = |x: f64| {
            let t = (x - g.start()) / g.step();
            ((t.floor().max(0.0) as usize).min(g.len() - 2), t)
        };
        for x in [
            -1e300,
            -0.3,
            -0.2,
            -0.0,
            0.0,
            0.1,
            0.25,
            0.5,
            0.74,
            0.75,
            1.0,
            1.3,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let (cell, t) = g.locate(x);
            let (want_cell, want_t) = floor_cell(x);
            assert_eq!(cell, want_cell, "cell at {x}");
            assert_eq!(
                t.to_bits(),
                (want_t - want_cell as f64).to_bits(),
                "offset at {x}"
            );
        }
    }

    #[test]
    fn linear_table_exact_on_linear_function() {
        let g = Grid1::new(-1.0, 1.0, 9).unwrap();
        let t = LinearTable::from_fn(g, |x| 3.0 * x - 0.5);
        for &x in &[-1.0, -0.333, 0.0, 0.77, 1.0, 1.5, -2.0] {
            assert!((t.eval(x) - (3.0 * x - 0.5)).abs() < 1e-12, "x={x}");
            assert!((t.deriv(x) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_table_reproduces_nodes() {
        let g = Grid1::new(0.0, 2.0, 6).unwrap();
        let t = LinearTable::from_fn(g, |x| (x * 2.3).sin());
        for i in 0..g.len() {
            assert!((t.eval(g.point(i)) - (g.point(i) * 2.3).sin()).abs() < 1e-14);
        }
    }

    #[test]
    fn bilinear_exact_on_bilinear_function() {
        let gx = Grid1::new(0.0, 1.0, 4).unwrap();
        let gy = Grid1::new(-1.0, 1.0, 5).unwrap();
        let f = |x: f64, y: f64| 2.0 + 3.0 * x - y + 0.5 * x * y;
        let t = BilinearTable::from_fn(Grid2::new(gx, gy), f);
        for &(x, y) in &[(0.1, 0.2), (0.77, -0.9), (0.5, 0.0), (1.2, 1.5)] {
            assert!((t.eval(x, y) - f(x, y)).abs() < 1e-12, "({x},{y})");
        }
    }

    #[test]
    fn bilinear_partial_derivatives() {
        let gx = Grid1::new(0.0, 1.0, 11).unwrap();
        let gy = Grid1::new(0.0, 1.0, 11).unwrap();
        let f = |x: f64, y: f64| 4.0 * x - 2.0 * y + x * y;
        let t = BilinearTable::from_fn(Grid2::new(gx, gy), f);
        // df/dx = 4 + y, df/dy = -2 + x: exact for bilinear functions.
        assert!((t.deriv_x(0.35, 0.6) - 4.6).abs() < 1e-12);
        assert!((t.deriv_y(0.35, 0.6) + 1.65).abs() < 1e-12);
    }

    /// The three lookups as independent formulas, one cell search each:
    /// the oracle the shared-cell lookups must match bit for bit.
    fn separate_lookups(t: &BilinearTable, x: f64, y: f64) -> (f64, f64, f64) {
        let ny = t.grid.y.len();
        let v = |i: usize, j: usize| t.values[i * ny + j];
        let value = {
            let (i, s) = t.grid.x.locate(x);
            let (j, u) = t.grid.y.locate(y);
            v(i, j) * (1.0 - s) * (1.0 - u)
                + v(i + 1, j) * s * (1.0 - u)
                + v(i, j + 1) * (1.0 - s) * u
                + v(i + 1, j + 1) * s * u
        };
        let dx = {
            let (i, _) = t.grid.x.locate(x);
            let (j, u) = t.grid.y.locate(y);
            let d0 = v(i + 1, j) - v(i, j);
            let d1 = v(i + 1, j + 1) - v(i, j + 1);
            (d0 * (1.0 - u) + d1 * u) / t.grid.x.step()
        };
        let dy = {
            let (i, s) = t.grid.x.locate(x);
            let (j, _) = t.grid.y.locate(y);
            let d0 = v(i, j + 1) - v(i, j);
            let d1 = v(i + 1, j + 1) - v(i + 1, j);
            (d0 * (1.0 - s) + d1 * s) / t.grid.y.step()
        };
        (value, dx, dy)
    }

    #[test]
    fn fused_lookup_is_bit_identical_to_separate_calls() {
        let gx = Grid1::new(-0.35, 1.0, 21).unwrap();
        let gy = Grid1::new(0.0, 0.85, 17).unwrap();
        let t = BilinearTable::from_fn(Grid2::new(gx, gy), |x, y| {
            1e-6 * (3.0 * x).exp() * (4.0 * y).tanh() + 1e-9 * x * y
        });
        let mut rng = crate::rng::Rng::seed_from_u64(0x1b11_2e4a);
        for k in 0..4000 {
            // A third inside the grid, a third on a range reaching 0.5
            // beyond every edge (boundary-cell extrapolation), a third on
            // exact grid nodes.
            let (x, y) = match k % 3 {
                0 => (rng.uniform_in(-0.35, 1.0), rng.uniform_in(0.0, 0.85)),
                1 => (rng.uniform_in(-0.85, 1.5), rng.uniform_in(-0.5, 1.35)),
                _ => (gx.point(rng.below(21)), gy.point(rng.below(17))),
            };
            let (value, dx, dy) = t.eval_with_derivs(x, y);
            let want = separate_lookups(&t, x, y);
            let bits = |a: (f64, f64, f64)| (a.0.to_bits(), a.1.to_bits(), a.2.to_bits());
            assert_eq!(bits((value, dx, dy)), bits(want), "({x}, {y})");
            assert_eq!(
                bits((t.eval(x, y), t.deriv_x(x, y), t.deriv_y(x, y))),
                bits(want),
                "separate calls at ({x}, {y})"
            );
        }
    }

    #[test]
    fn map_and_zip() {
        let g = Grid2::new(
            Grid1::new(0.0, 1.0, 3).unwrap(),
            Grid1::new(0.0, 1.0, 3).unwrap(),
        );
        let a = BilinearTable::from_fn(g, |x, y| x + y);
        let b = a.map(|v| 4.0 * v);
        assert!((b.eval(0.5, 0.5) - 4.0).abs() < 1e-12);
        let c = a.zip_with(&b, |p, q| q - p).unwrap();
        assert!((c.eval(0.25, 0.25) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zip_rejects_mismatched_grids() {
        let g1 = Grid2::new(
            Grid1::new(0.0, 1.0, 3).unwrap(),
            Grid1::new(0.0, 1.0, 3).unwrap(),
        );
        let g2 = Grid2::new(
            Grid1::new(0.0, 1.0, 4).unwrap(),
            Grid1::new(0.0, 1.0, 3).unwrap(),
        );
        let a = BilinearTable::from_fn(g1, |x, _| x);
        let b = BilinearTable::from_fn(g2, |x, _| x);
        assert!(a.zip_with(&b, |p, _| p).is_err());
    }
}
