//! `gnr-lattice` — atomistic geometry and tight-binding Hamiltonians for
//! armchair graphene nanoribbons (A-GNRs).
//!
//! The paper (§2) simulates 15 nm-long armchair-edge GNR channels with index
//! N = 9…18 in a pz-orbital basis with hopping `t = 2.7 eV` and
//! Son–Cohen–Louie edge-bond relaxation. This crate provides:
//!
//! * [`AGnr`] — ribbon descriptor (index, width, band-structure queries);
//! * [`RibbonLattice`] — explicit atom coordinates and the neighbour graph
//!   for a finite ribbon segment;
//! * [`unit_cell_hamiltonian`] — the Bloch blocks `(H00, H01)` of the
//!   infinite ribbon;
//! * [`DeviceHamiltonian`] — the layer-partitioned Hamiltonian of a finite
//!   channel with an arbitrary on-site potential, ready for the recursive
//!   Green's-function solver in `gnr-negf`;
//! * [`BandStructure`] — E(k) subbands, band gap, and band-edge effective
//!   masses;
//! * [`ZGnr`] — zigzag ribbons (metallic, flat edge-state bands), the
//!   edge-family contrast of the paper's ref. \[12\].
//!
//! # Example
//!
//! ```
//! use gnr_lattice::AGnr;
//!
//! # fn main() -> Result<(), gnr_lattice::LatticeError> {
//! let gnr = AGnr::new(12)?;
//! let bands = gnr.band_structure(64)?;
//! // N = 12 belongs to the 3p family: semiconducting with Eg ~ 0.6 eV.
//! assert!(bands.gap() > 0.3 && bands.gap() < 1.0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bands;
pub mod error;
pub mod geometry;
pub mod hamiltonian;
pub mod zigzag;

pub use bands::BandStructure;
pub use error::LatticeError;
pub use geometry::{Atom, RibbonLattice};
pub use hamiltonian::{unit_cell_hamiltonian, DeviceHamiltonian};
pub use zigzag::ZGnr;

use gnr_num::consts::{A_CC, NM};

/// Families of armchair GNRs classified by `N mod 3`; the paper uses the
/// `3p` family (N = 9, 12, 15, 18) plus notes that `3p+1` is also
/// semiconducting while `3p+2` has a small gap.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum AGnrFamily {
    /// `N = 3p`: moderate gap, used throughout the paper.
    ThreeP,
    /// `N = 3p + 1`: largest gap of the three families.
    ThreePPlus1,
    /// `N = 3p + 2`: nearly metallic (tiny gap from edge relaxation).
    ThreePPlus2,
}

/// An armchair graphene nanoribbon identified by its index `N`
/// (the number of dimer lines across the width).
///
/// The paper restricts itself to semiconducting ribbons with
/// `N ∈ {9, 12, 15, 18}`; this type accepts any `N ≥ 3`.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct AGnr {
    n: usize,
}

impl AGnr {
    /// Creates a ribbon descriptor for index `n`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::IndexTooSmall`] for `n < 3` (narrower ribbons
    /// are not meaningful honeycomb strips).
    pub fn new(n: usize) -> Result<Self, LatticeError> {
        if n < 3 {
            return Err(LatticeError::IndexTooSmall { n });
        }
        Ok(AGnr { n })
    }

    /// The GNR index `N` (number of dimer lines).
    #[inline]
    pub fn index(&self) -> usize {
        self.n
    }

    /// Ribbon width `(N − 1)·√3/2·a_cc` in metres.
    ///
    /// For N = 9 this is ≈ 1.0 nm, matching the paper's "1.1 nm" quote
    /// (which includes the edge C–H termination allowance).
    pub fn width_m(&self) -> f64 {
        (self.n as f64 - 1.0) * 3f64.sqrt() / 2.0 * A_CC
    }

    /// Ribbon width in nanometres.
    pub fn width_nm(&self) -> f64 {
        self.width_m() / NM
    }

    /// Translational period along the transport axis, `3·a_cc` \[m\].
    pub fn period_m(&self) -> f64 {
        3.0 * A_CC
    }

    /// Family classification by `N mod 3`.
    pub fn family(&self) -> AGnrFamily {
        match self.n % 3 {
            0 => AGnrFamily::ThreeP,
            1 => AGnrFamily::ThreePPlus1,
            _ => AGnrFamily::ThreePPlus2,
        }
    }

    /// Number of atoms in one translational unit cell (`2N`).
    pub fn atoms_per_cell(&self) -> usize {
        2 * self.n
    }

    /// Computes the ribbon band structure on `k_points` samples of the
    /// Brillouin zone.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::BandSolve`] if the Hermitian eigensolver
    /// fails (does not occur for physical inputs).
    pub fn band_structure(&self, k_points: usize) -> Result<BandStructure, LatticeError> {
        bands::compute(*self, k_points)
    }

    /// Builds the lattice of a finite segment with `cells` unit cells.
    pub fn lattice(&self, cells: usize) -> RibbonLattice {
        RibbonLattice::new(*self, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_validation() {
        assert!(AGnr::new(2).is_err());
        assert!(AGnr::new(3).is_ok());
        assert_eq!(AGnr::new(12).unwrap().index(), 12);
    }

    #[test]
    fn width_matches_paper() {
        // Paper: N=9 has width 1.1 nm; our bare-lattice width is ~0.98 nm
        // and each index step of 3 adds ~3.7 Angstrom.
        let w9 = AGnr::new(9).unwrap().width_nm();
        assert!((w9 - 0.98).abs() < 0.05, "w9 = {w9}");
        let w12 = AGnr::new(12).unwrap().width_nm();
        assert!(((w12 - w9) - 0.37).abs() < 0.02);
    }

    #[test]
    fn families() {
        assert_eq!(AGnr::new(9).unwrap().family(), AGnrFamily::ThreeP);
        assert_eq!(AGnr::new(10).unwrap().family(), AGnrFamily::ThreePPlus1);
        assert_eq!(AGnr::new(11).unwrap().family(), AGnrFamily::ThreePPlus2);
    }

    #[test]
    fn atoms_per_cell_is_2n() {
        assert_eq!(AGnr::new(7).unwrap().atoms_per_cell(), 14);
    }
}
