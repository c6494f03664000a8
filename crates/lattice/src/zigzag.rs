//! Zigzag graphene nanoribbons (Z-GNRs).
//!
//! The paper's device work uses armchair ribbons exclusively (sub-10 nm
//! A-GNRs are always semiconducting), but its ref. \[12\] — Nakada et al.,
//! PRB 54, 17954 — establishes the edge-shape dependence this module
//! validates the framework against: zigzag ribbons are metallic with
//! partially flat bands at the Fermi level (`E ≈ 0` for `k ≳ 2π/3`),
//! carried by edge-localized states. Supporting both edge families
//! demonstrates that the tight-binding machinery is not hard-wired to one
//! orientation.
//!
//! Geometry (canonical zigzag coordinates, transport along x with period
//! `a = √3·a_cc`): chain `j ∈ 0..N` contributes an A atom at
//! `(x₀ + (j mod 2)·a/2, 1.5j·a_cc)` and a B atom half a period along x
//! and `a_cc/2` up; vertical bonds stitch consecutive chains. Every edge
//! atom is two-coordinated — the clean zigzag termination.

use crate::error::LatticeError;
use gnr_num::consts::{A_CC, NM, T_HOPPING};
use gnr_num::{c64, CMatrix};

/// A zigzag graphene nanoribbon with `N` zigzag chains across the width.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct ZGnr {
    n: usize,
}

impl ZGnr {
    /// Creates a ribbon descriptor for `n ≥ 2` zigzag chains.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::IndexTooSmall`] for `n < 2`.
    pub fn new(n: usize) -> Result<Self, LatticeError> {
        if n < 2 {
            return Err(LatticeError::IndexTooSmall { n });
        }
        Ok(ZGnr { n })
    }

    /// Number of zigzag chains `N`.
    pub fn index(&self) -> usize {
        self.n
    }

    /// Atoms per translational cell (`2N`).
    pub fn atoms_per_cell(&self) -> usize {
        2 * self.n
    }

    /// Translational period along transport, `√3·a_cc` \[m\].
    pub fn period_m(&self) -> f64 {
        3f64.sqrt() * A_CC
    }

    /// Ribbon width `(1.5·N − 1)·a_cc` \[m\].
    pub fn width_m(&self) -> f64 {
        (1.5 * self.n as f64 - 1.0) * A_CC
    }

    /// Ribbon width in nanometres.
    pub fn width_nm(&self) -> f64 {
        self.width_m() / NM
    }

    /// Atom coordinates of one cell, `(x, y)` in units of metres with
    /// `x ∈ [0, a)`: A then B for each chain, chain-major.
    fn cell_sites(&self) -> Vec<(f64, f64)> {
        let a = self.period_m();
        let mut sites = Vec::with_capacity(self.atoms_per_cell());
        for j in 0..self.n {
            let x_a = (j % 2) as f64 * a / 2.0;
            let y_a = 1.5 * j as f64 * A_CC;
            // B sits half a period along x (wrapped into the cell) and
            // a_cc/2 above.
            let x_b = (x_a + a / 2.0) % a;
            let y_b = y_a + 0.5 * A_CC;
            sites.push((x_a, y_a));
            sites.push((x_b, y_b));
        }
        sites
    }

    /// Bloch blocks `(H00, H01)`: intra-cell Hamiltonian and coupling to
    /// the next cell along transport, in eV (pz on-site at zero, plain
    /// hopping `t = 2.7 eV`; the Son–Cohen–Louie edge relaxation is
    /// specific to armchair edge dimers and does not apply here).
    pub fn unit_cell_hamiltonian(&self) -> (CMatrix, CMatrix) {
        let a = self.period_m();
        let sites = self.cell_sites();
        let m = sites.len();
        let mut h00 = CMatrix::zeros(m, m);
        let mut h01 = CMatrix::zeros(m, m);
        let t = c64(-T_HOPPING, 0.0);
        let tol = 0.05 * A_CC;
        for (i, &(xi, yi)) in sites.iter().enumerate() {
            for (j, &(xj, yj)) in sites.iter().enumerate() {
                // Same cell.
                if j > i {
                    let d = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
                    if (d - A_CC).abs() < tol {
                        h00.set(i, j, t);
                        h00.set(j, i, t);
                    }
                }
                // Neighbour cell: j displaced by +a along x.
                let d = ((xi - (xj + a)).powi(2) + (yi - yj).powi(2)).sqrt();
                if (d - A_CC).abs() < tol {
                    h01.set(i, j, t);
                }
            }
        }
        (h00, h01)
    }

    /// Band structure on `k_points` samples of `k ∈ [0, π]` (units of the
    /// inverse period): returns `bands[b][ik]` in eV, sorted per k.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::BandSolve`] on eigensolver failure.
    pub fn band_structure(&self, k_points: usize) -> Result<Vec<Vec<f64>>, LatticeError> {
        let k_points = k_points.max(2);
        let (h00, h01) = self.unit_cell_hamiltonian();
        let h10 = h01.adjoint();
        let m = self.atoms_per_cell();
        let mut bands = vec![Vec::with_capacity(k_points); m];
        for ik in 0..k_points {
            let kk = std::f64::consts::PI * ik as f64 / (k_points - 1) as f64;
            let phase = c64(kk.cos(), kk.sin());
            let hk = &(&h00 + &h01.scale(phase)) + &h10.scale(phase.conj());
            let (evals, _) = hk.herm_eigen()?;
            for (b, e) in evals.into_iter().enumerate() {
                bands[b].push(e);
            }
        }
        Ok(bands)
    }

    /// Band gap in eV (≈ 0 for all zigzag ribbons: the Nakada result).
    ///
    /// # Errors
    ///
    /// Propagates band-solve failures.
    pub fn gap(&self, k_points: usize) -> Result<f64, LatticeError> {
        let bands = self.band_structure(k_points)?;
        let ec = bands
            .iter()
            .flatten()
            .copied()
            .filter(|&e| e > 0.0)
            .fold(f64::INFINITY, f64::min);
        let ev = bands
            .iter()
            .flatten()
            .copied()
            .filter(|&e| e <= 0.0)
            .fold(f64::NEG_INFINITY, f64::max);
        // A numerically exact zero eigenvalue counts as both edges closing.
        let near_zero = bands.iter().flatten().any(|&e| e.abs() < 1e-9);
        if near_zero {
            Ok(0.0)
        } else {
            Ok(ec - ev)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_validation() {
        assert!(ZGnr::new(1).is_err());
        assert!(ZGnr::new(2).is_ok());
        assert_eq!(ZGnr::new(8).unwrap().atoms_per_cell(), 16);
    }

    #[test]
    fn hamiltonian_blocks_well_formed() {
        let z = ZGnr::new(6).unwrap();
        let (h00, h01) = z.unit_cell_hamiltonian();
        assert!(h00.hermiticity_defect() < 1e-14);
        assert!(h01.norm_fro() > 0.0, "cells must couple");
        // Every atom has 2 (edge) or 3 (bulk) bonds in total.
        let m = z.atoms_per_cell();
        let mut two_coordinated = 0;
        for i in 0..m {
            let mut bonds = 0.0;
            for j in 0..m {
                bonds += h00.get(i, j).norm() + h01.get(i, j).norm() + h01.get(j, i).norm();
            }
            let nb = bonds / T_HOPPING;
            assert!(
                (nb - 2.0).abs() < 1e-9 || (nb - 3.0).abs() < 1e-9,
                "atom {i}: {nb} bonds"
            );
            if (nb - 2.0).abs() < 1e-9 {
                two_coordinated += 1;
            }
        }
        // Exactly one two-coordinated atom per edge per cell.
        assert_eq!(two_coordinated, 2, "clean zigzag edges");
    }

    /// Nakada et al. (the paper's ref. [12]): zigzag ribbons are metallic
    /// — the gap closes for every width, in sharp contrast to the
    /// armchair family.
    #[test]
    fn zigzag_ribbons_are_metallic() {
        for n in [2usize, 4, 6, 8, 11] {
            let gap = ZGnr::new(n).unwrap().gap(64).unwrap();
            assert!(gap < 0.05, "N={n}: gap {gap} eV should vanish");
        }
        // Armchair contrast: N=12 A-GNR is semiconducting.
        let a_gap = crate::AGnr::new(12)
            .unwrap()
            .band_structure(64)
            .unwrap()
            .gap();
        assert!(a_gap > 0.4);
    }

    /// The hallmark zigzag feature: partially flat bands pinned to E = 0
    /// near the zone boundary (edge states).
    #[test]
    fn flat_edge_bands_at_zone_boundary() {
        let z = ZGnr::new(8).unwrap();
        let bands = z.band_structure(96).unwrap();
        let m = z.atoms_per_cell();
        // The two bands adjacent to E=0 (indices m/2-1 and m/2).
        let lower = &bands[m / 2 - 1];
        let upper = &bands[m / 2];
        // At the zone boundary (k = pi) both must sit at E ~ 0.
        assert!(
            lower.last().unwrap().abs() < 0.02,
            "{}",
            lower.last().unwrap()
        );
        assert!(upper.last().unwrap().abs() < 0.02);
        // Flatness over the last quarter of the zone: |E| stays tiny
        // (the edge-state region k in (2pi/3, pi)).
        let quarter = lower.len() * 3 / 4;
        for (l, u) in lower[quarter..].iter().zip(&upper[quarter..]) {
            assert!(l.abs() < 0.2 && u.abs() < 0.2, "flat band: {l} {u}");
        }
        // But the same bands are dispersive at the zone centre.
        let lower_width = lower.iter().fold(0.0f64, |mx, &e| mx.max(e.abs()));
        assert!(
            lower_width > 0.5,
            "band disperses away from k=pi: {lower_width}"
        );
    }

    /// Flat-band bandwidth shrinks as the ribbon widens (edge states on
    /// opposite edges decouple).
    #[test]
    fn edge_band_flattens_with_width() {
        let flatness = |n: usize| -> f64 {
            let z = ZGnr::new(n).unwrap();
            let bands = z.band_structure(96).unwrap();
            let m = z.atoms_per_cell();
            let band = &bands[m / 2];
            // Max |E| over the edge-state region k in (3pi/4, pi).
            let start = band.len() * 3 / 4;
            band[start..].iter().fold(0.0f64, |mx, &e| mx.max(e.abs()))
        };
        let narrow = flatness(4);
        let wide = flatness(12);
        assert!(
            wide < narrow,
            "wider ribbon has flatter edge band: {wide} vs {narrow}"
        );
    }

    #[test]
    fn geometry_scales() {
        let z4 = ZGnr::new(4).unwrap();
        let z8 = ZGnr::new(8).unwrap();
        assert!(z8.width_nm() > 2.0 * z4.width_nm() * 0.9);
        assert!((z4.period_m() - 3f64.sqrt() * A_CC).abs() < 1e-20);
    }
}
