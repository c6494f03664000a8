//! Poisson problem definition and finite-volume assembly.

use crate::error::PoissonError;
use crate::grid::{Grid3, Region};
use crate::solution::PoissonSolution;
use gnr_num::budget::ExecLimits;
use gnr_num::consts::{EPS_0, Q_E};
use gnr_num::recover::solve_linear_robust;
use gnr_num::solver::IterControl;
use gnr_num::telemetry;
use gnr_num::TripletBuilder;

/// Vacuum permittivity in F/nm (the solver works in nm).
const EPS0_PER_NM: f64 = EPS_0 * 1e-9;

/// The material/boundary role of one grid cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellKind {
    /// A dielectric cell with relative permittivity `eps_r`; its potential
    /// is an unknown.
    Dielectric {
        /// Relative permittivity.
        eps_r: f64,
    },
    /// A metal electrode held at a fixed potential (Dirichlet).
    Electrode {
        /// Electrode potential \[V\].
        potential_v: f64,
    },
}

/// A 3D Poisson problem `∇·(ε∇φ) = −ρ` on a [`Grid3`], with zero-normal-flux
/// (Neumann) outer boundaries except where electrodes impose Dirichlet
/// values.
///
/// Charge is tracked in units of the elementary charge per cell; positive
/// values raise the local potential.
#[derive(Clone, Debug)]
pub struct PoissonProblem {
    grid: Grid3,
    cells: Vec<CellKind>,
    /// Charge per cell in elementary charges.
    charge_q: Vec<f64>,
}

impl PoissonProblem {
    /// Creates a problem with every cell a vacuum dielectric and no charge.
    pub fn new(grid: Grid3) -> Self {
        PoissonProblem {
            grid,
            cells: vec![CellKind::Dielectric { eps_r: 1.0 }; grid.len()],
            charge_q: vec![0.0; grid.len()],
        }
    }

    /// The grid.
    pub fn grid(&self) -> Grid3 {
        self.grid
    }

    /// Sets the relative permittivity of every cell in `region`.
    pub fn set_dielectric(&mut self, region: Region, eps_r: f64) {
        for (i, j, k) in region.cells(&self.grid) {
            self.cells[self.grid.index(i, j, k)] = CellKind::Dielectric { eps_r };
        }
    }

    /// Declares every cell in `region` an electrode at `potential_v`.
    pub fn set_electrode(&mut self, region: Region, potential_v: f64) {
        for (i, j, k) in region.cells(&self.grid) {
            self.cells[self.grid.index(i, j, k)] = CellKind::Electrode { potential_v };
        }
    }

    /// The kind of cell `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn cell(&self, i: usize, j: usize, k: usize) -> CellKind {
        self.cells[self.grid.index(i, j, k)]
    }

    /// Sets the charge (elementary charges) stored in cell `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn set_charge(&mut self, i: usize, j: usize, k: usize, q: f64) {
        let idx = self.grid.index(i, j, k);
        self.charge_q[idx] = q;
    }

    /// Clears all stored charge.
    pub fn clear_charge(&mut self) {
        self.charge_q.fill(0.0);
    }

    /// Deposits a point charge of `q` elementary charges at position
    /// `(x, y, z)` nm using cloud-in-cell (trilinear) weighting, which keeps
    /// the deposited monopole moment exact and avoids grid-alignment
    /// artifacts for the paper's oxide charge impurities.
    pub fn add_point_charge(&mut self, x: f64, y: f64, z: f64, q: f64) {
        let h = self.grid.spacing();
        // Work in cell-centre coordinates: cell (i,j,k) centre at (i+1/2)h.
        let fx = (x / h - 0.5).clamp(0.0, (self.grid.nx() - 1) as f64);
        let fy = (y / h - 0.5).clamp(0.0, (self.grid.ny() - 1) as f64);
        let fz = (z / h - 0.5).clamp(0.0, (self.grid.nz() - 1) as f64);
        let (i0, j0, k0) = (
            fx.floor() as usize,
            fy.floor() as usize,
            fz.floor() as usize,
        );
        let (tx, ty, tz) = (fx - i0 as f64, fy - j0 as f64, fz - k0 as f64);
        for (di, wx) in [(0usize, 1.0 - tx), (1, tx)] {
            for (dj, wy) in [(0usize, 1.0 - ty), (1, ty)] {
                for (dk, wz) in [(0usize, 1.0 - tz), (1, tz)] {
                    let (i, j, k) = (
                        (i0 + di).min(self.grid.nx() - 1),
                        (j0 + dj).min(self.grid.ny() - 1),
                        (k0 + dk).min(self.grid.nz() - 1),
                    );
                    let idx = self.grid.index(i, j, k);
                    self.charge_q[idx] += q * wx * wy * wz;
                }
            }
        }
    }

    /// Total deposited charge in elementary charges.
    pub fn total_charge(&self) -> f64 {
        self.charge_q.iter().sum()
    }

    /// Solves the discretized problem by preconditioned conjugate gradients.
    /// `warm_start` (a previous full-grid potential) accelerates repeated
    /// solves inside self-consistent loops.
    ///
    /// The budget is probed once before assembly and threaded into the
    /// laddered linear solve, so a cancelled or expired run stops between CG
    /// rungs instead of burning the rescue chain. Pass [`ExecLimits::none`]
    /// (or `ctx.limits()` from an unlimited context) for the plain
    /// unbudgeted call.
    ///
    /// # Errors
    ///
    /// Returns [`PoissonError::NoUnknowns`] if every cell is an electrode,
    /// propagates CG failures, and surfaces
    /// [`gnr_num::NumError::BudgetExhausted`] / `Cancelled` (via
    /// [`PoissonError::Solve`]) when `limits` trips.
    pub fn solve(
        &self,
        warm_start: Option<&[f64]>,
        limits: &ExecLimits,
    ) -> Result<PoissonSolution, PoissonError> {
        limits.check("poisson.solve")?;
        let n = self.grid.len();
        // Map interior cells to unknown indices.
        let mut unknown_of = vec![usize::MAX; n];
        let mut interior = Vec::new();
        for (idx, cell) in self.cells.iter().enumerate() {
            if matches!(cell, CellKind::Dielectric { .. }) {
                unknown_of[idx] = interior.len();
                interior.push(idx);
            }
        }
        if interior.is_empty() {
            return Err(PoissonError::NoUnknowns);
        }
        let m = interior.len();
        let mut builder = TripletBuilder::new(m, m);
        let mut rhs = vec![0.0; m];
        let h = self.grid.spacing();
        // Face area / distance = h for an isotropic grid; the coefficient of
        // a face between cells a and b is the harmonic-mean permittivity
        // times h (units: eps_r * nm).
        for (row, &idx) in interior.iter().enumerate() {
            let (i, j, k) = self.grid.coords(idx);
            let eps_c = match self.cells[idx] {
                CellKind::Dielectric { eps_r } => eps_r,
                CellKind::Electrode { .. } => unreachable!(),
            };
            // Charge source: q_cell * q_e / eps0  (V * nm).
            rhs[row] += self.charge_q[idx] * Q_E / EPS0_PER_NM;
            let neighbors = [
                (i > 0).then(|| self.grid.index(i - 1, j, k)),
                (i + 1 < self.grid.nx()).then(|| self.grid.index(i + 1, j, k)),
                (j > 0).then(|| self.grid.index(i, j - 1, k)),
                (j + 1 < self.grid.ny()).then(|| self.grid.index(i, j + 1, k)),
                (k > 0).then(|| self.grid.index(i, j, k - 1)),
                (k + 1 < self.grid.nz()).then(|| self.grid.index(i, j, k + 1)),
            ];
            for nb in neighbors.into_iter().flatten() {
                let coeff = match self.cells[nb] {
                    CellKind::Dielectric { eps_r } => 2.0 * eps_c * eps_r / (eps_c + eps_r) * h,
                    // Electrode face: the Dirichlet value sits half a cell
                    // away; use the interior permittivity over half spacing.
                    CellKind::Electrode { .. } => 2.0 * eps_c * h,
                };
                builder.push(row, row, coeff);
                match self.cells[nb] {
                    CellKind::Dielectric { .. } => {
                        builder.push(row, unknown_of[nb], -coeff);
                    }
                    CellKind::Electrode { potential_v } => {
                        rhs[row] += coeff * potential_v;
                    }
                }
            }
        }
        let a = builder.build();
        let x0: Vec<f64> = match warm_start {
            Some(prev) if prev.len() == n => interior.iter().map(|&idx| prev[idx]).collect(),
            _ => vec![0.0; m],
        };
        let ctrl = IterControl {
            rel_tol: 1e-10,
            abs_tol: 1e-12,
            max_iter: 20 * m + 100,
        };
        // Laddered solve: the first rung is the plain CG call (bit-identical
        // on the fault-free path); BiCGSTAB and, for small grids, dense LU
        // only run if CG errors out.
        let (solved, _report) = solve_linear_robust(&a, &rhs, &x0, ctrl, true, limits);
        let (x, stats) = solved?;
        telemetry::counter_inc("poisson.solves");
        telemetry::counter_add("poisson.iterations", stats.iterations as u64);
        // Scatter back to the full grid, electrodes keeping their values.
        let mut potential = vec![0.0; n];
        for (idx, cell) in self.cells.iter().enumerate() {
            potential[idx] = match *cell {
                CellKind::Electrode { potential_v } => potential_v,
                CellKind::Dielectric { .. } => x[unknown_of[idx]],
            };
        }
        Ok(PoissonSolution::new(self.grid, potential, stats.iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitor_linear_profile() {
        let grid = Grid3::new(21, 4, 4, 0.25).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::slab_x(0, 0), 0.0);
        p.set_electrode(Region::slab_x(20, 20), 2.0);
        let sol = p.solve(None, &ExecLimits::none()).unwrap();
        // Linear in x, uniform in y/z. The Dirichlet surfaces sit on the
        // electrode cell faces (x = h and x = 20h), so the profile through
        // the 19 interior cell centres is phi(i) = 2 (i - 1/2) / 19.
        for i in 1..20 {
            let expect = 2.0 * (i as f64 - 0.5) / 19.0;
            for j in 0..4 {
                for k in 0..4 {
                    assert!(
                        (sol.potential_index(i, j, k) - expect).abs() < 1e-7,
                        "phi({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn dielectric_interface_divides_voltage() {
        // Two dielectric slabs in series: eps1 = 1 (left half), eps2 = 3.9
        // (right half). Field ratio E1/E2 = eps2/eps1; voltage divides
        // accordingly.
        let grid = Grid3::new(22, 3, 3, 0.25).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::slab_x(0, 0), 0.0);
        p.set_electrode(Region::slab_x(21, 21), 1.0);
        p.set_dielectric(Region::new((11, 20), (0, 2), (0, 2)), 3.9);
        let sol = p.solve(None, &ExecLimits::none()).unwrap();
        // Drop across left slab: eps2/(eps1+eps2) of total.
        let v_mid = sol.potential_index(11, 1, 1);
        let expect = 3.9 / (1.0 + 3.9);
        assert!((v_mid - expect).abs() < 0.03, "v_mid {v_mid} vs {expect}");
    }

    #[test]
    fn point_charge_raises_local_potential() {
        let grid = Grid3::new(15, 15, 15, 0.4).unwrap();
        let mut p = PoissonProblem::new(grid);
        // Grounded box walls.
        p.set_electrode(Region::slab_x(0, 0), 0.0);
        p.set_electrode(Region::slab_x(14, 14), 0.0);
        p.set_electrode(Region::slab_z(0, 0), 0.0);
        p.set_electrode(Region::slab_z(14, 14), 0.0);
        p.add_point_charge(3.0, 3.0, 3.0, 1.0);
        assert!((p.total_charge() - 1.0).abs() < 1e-12);
        let sol = p.solve(None, &ExecLimits::none()).unwrap();
        let near = sol.potential_at(3.0, 3.0, 3.0);
        let far = sol.potential_at(5.5, 5.5, 5.5);
        assert!(near > far && far > 0.0, "near {near} far {far}");
        // Magnitude: the discrete self-potential of a unit charge on the
        // 7-point Laplacian is q/(eps0 h) * G(0) with Watson's lattice
        // Green's function G(0) ~ 0.2527 -> ~11.4 V at h = 0.4 nm; grounded
        // walls pull it down slightly.
        assert!(near > 5.0 && near < 15.0, "near {near}");
    }

    #[test]
    fn negative_charge_lowers_potential() {
        let grid = Grid3::new(11, 11, 11, 0.5).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::slab_z(0, 0), 0.0);
        p.set_electrode(Region::slab_z(10, 10), 0.0);
        p.add_point_charge(2.75, 2.75, 2.75, -1.0);
        let sol = p.solve(None, &ExecLimits::none()).unwrap();
        assert!(sol.potential_at(2.75, 2.75, 2.75) < -0.05);
    }

    #[test]
    fn cloud_in_cell_splits_between_cells() {
        let grid = Grid3::new(4, 4, 4, 1.0).unwrap();
        let mut p = PoissonProblem::new(grid);
        // Exactly between cells 1 and 2 in x (centres at 1.5 and 2.5).
        p.add_point_charge(2.0, 1.5, 1.5, 1.0);
        let idx_a = grid.index(1, 1, 1);
        let idx_b = grid.index(2, 1, 1);
        assert!((p.charge_q[idx_a] - 0.5).abs() < 1e-12);
        assert!((p.charge_q[idx_b] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_electrode_problem_rejected() {
        let grid = Grid3::new(3, 3, 3, 1.0).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::new((0, 2), (0, 2), (0, 2)), 1.0);
        assert!(matches!(
            p.solve(None, &ExecLimits::none()),
            Err(PoissonError::NoUnknowns)
        ));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let grid = Grid3::new(16, 8, 8, 0.5).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::slab_x(0, 0), 0.0);
        p.set_electrode(Region::slab_x(15, 15), 1.0);
        let cold = p.solve(None, &ExecLimits::none()).unwrap();
        let warm = p.solve(Some(cold.raw()), &ExecLimits::none()).unwrap();
        assert!(
            warm.iterations() <= 1,
            "warm start iters {}",
            warm.iterations()
        );
    }

    #[test]
    fn solve_stops_on_exhausted_budget() {
        use gnr_num::budget::Budget;
        use gnr_num::NumError;
        let grid = Grid3::new(11, 3, 3, 0.5).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::slab_x(0, 0), 0.0);
        p.set_electrode(Region::slab_x(10, 10), 1.0);
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(0));
        match p.solve(None, &limits) {
            Err(PoissonError::Solve(NumError::BudgetExhausted { site })) => {
                assert_eq!(site, "poisson.solve");
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn neumann_walls_leave_uniform_field_untouched() {
        // With Neumann side walls, a 1D capacitor stays exactly 1D even in a
        // narrow channel (no spurious edge effects).
        let grid = Grid3::new(9, 2, 2, 0.5).unwrap();
        let mut p = PoissonProblem::new(grid);
        p.set_electrode(Region::slab_x(0, 0), -0.3);
        p.set_electrode(Region::slab_x(8, 8), 0.7);
        let sol = p.solve(None, &ExecLimits::none()).unwrap();
        for i in 0..9 {
            let a = sol.potential_index(i, 0, 0);
            let b = sol.potential_index(i, 1, 1);
            assert!((a - b).abs() < 1e-9);
        }
    }
}
