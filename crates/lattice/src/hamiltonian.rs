//! Tight-binding Hamiltonian assembly.
//!
//! Two views of the same physics:
//!
//! * [`unit_cell_hamiltonian`] — Bloch blocks `(H00, H01)` of the infinite
//!   ribbon, used for band structure and for semi-infinite contact leads;
//! * [`DeviceHamiltonian`] — the block-tridiagonal Hamiltonian of a finite
//!   channel with an on-site potential, partitioned into one layer per unit
//!   cell for the recursive Green's-function solver.

use crate::error::LatticeError;
use crate::AGnr;
use gnr_num::consts::T_HOPPING;
use gnr_num::{c64, CMatrix, Complex64};

/// Returns the Bloch blocks `(H00, H01)` of an infinite A-GNR: `H00` is the
/// intra-cell Hamiltonian of one `2N`-atom unit cell and `H01` the coupling
/// to the next cell, both in eV with the pz on-site energy at zero.
///
/// The Bloch Hamiltonian at wave number `k` (in units of 1/period) is
/// `H(k) = H00 + H01·e^{ik} + H01†·e^{-ik}`.
pub fn unit_cell_hamiltonian(gnr: AGnr) -> (CMatrix, CMatrix) {
    // Build a 3-cell segment and read the couplings of the middle cell so
    // every intra/inter-cell bond pattern is represented.
    let lat = gnr.lattice(3);
    let m = gnr.atoms_per_cell();
    let mut h00 = CMatrix::zeros(m, m);
    let mut h01 = CMatrix::zeros(m, m);
    for b in lat.bonds() {
        let (ca, cb) = (lat.atoms()[b.a].cell, lat.atoms()[b.b].cell);
        let t = c64(-T_HOPPING * b.scale, 0.0);
        let (ia, ib) = (b.a % m, b.b % m);
        if ca == 1 && cb == 1 {
            h00.set(ia, ib, t);
            h00.set(ib, ia, t);
        } else if ca == 1 && cb == 2 {
            h01.set(ia, ib, t);
        } else if ca == 0 && cb == 1 {
            // Equivalent to an H01 bond from cell 1 to cell 2 by periodicity.
            h01.set(ia, ib, t);
        }
    }
    (h00, h01)
}

/// The layer-partitioned Hamiltonian of a finite GNR channel.
///
/// Layer `l` is unit cell `l`; `diag[l]` contains the intra-layer
/// Hamiltonian plus the on-site potential of that layer, and `coupling`
/// the (layer-independent) forward coupling `H_{l,l+1}`.
///
/// # Example
///
/// ```
/// use gnr_lattice::{AGnr, DeviceHamiltonian};
///
/// # fn main() -> Result<(), gnr_lattice::LatticeError> {
/// let gnr = AGnr::new(9)?;
/// let flat = vec![0.0; gnr.atoms_per_cell() * 10];
/// let h = DeviceHamiltonian::new(gnr, 10, &flat)?;
/// assert_eq!(h.layers(), 10);
/// assert_eq!(h.layer_dim(), 18);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DeviceHamiltonian {
    gnr: AGnr,
    diag: Vec<CMatrix>,
    coupling: CMatrix,
}

impl DeviceHamiltonian {
    /// Builds the device Hamiltonian for `cells` unit cells with per-atom
    /// on-site potential `potential_ev` (ordered like
    /// [`RibbonLattice::atoms`](crate::RibbonLattice::atoms), i.e. cell-major).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::EmptySegment`] when `cells == 0` and
    /// [`LatticeError::PotentialLength`] when the potential length does not
    /// equal the atom count.
    pub fn new(gnr: AGnr, cells: usize, potential_ev: &[f64]) -> Result<Self, LatticeError> {
        if cells == 0 {
            return Err(LatticeError::EmptySegment);
        }
        let m = gnr.atoms_per_cell();
        if potential_ev.len() != m * cells {
            return Err(LatticeError::PotentialLength {
                got: potential_ev.len(),
                expected: m * cells,
            });
        }
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        let mut diag = Vec::with_capacity(cells);
        for l in 0..cells {
            let mut block = h00.clone();
            for i in 0..m {
                block.add_to(i, i, c64(potential_ev[l * m + i], 0.0));
            }
            diag.push(block);
        }
        Ok(DeviceHamiltonian {
            gnr,
            diag,
            coupling: h01,
        })
    }

    /// Convenience constructor with zero potential everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::EmptySegment`] when `cells == 0`.
    pub fn flat_band(gnr: AGnr, cells: usize) -> Result<Self, LatticeError> {
        let m = gnr.atoms_per_cell();
        Self::new(gnr, cells, &vec![0.0; m * cells])
    }

    /// The ribbon descriptor.
    pub fn gnr(&self) -> AGnr {
        self.gnr
    }

    /// Number of layers (unit cells).
    pub fn layers(&self) -> usize {
        self.diag.len()
    }

    /// Dimension of one layer block (`2N`).
    pub fn layer_dim(&self) -> usize {
        self.coupling.rows()
    }

    /// The intra-layer Hamiltonian block of layer `l` (potential included).
    ///
    /// # Panics
    ///
    /// Panics if `l >= layers()`.
    pub fn diag_block(&self, l: usize) -> &CMatrix {
        &self.diag[l]
    }

    /// The forward coupling block `H_{l,l+1}` (identical for all layers).
    pub fn coupling_block(&self) -> &CMatrix {
        &self.coupling
    }

    /// Mean on-site potential of layer `l` in eV — the "conduction band
    /// profile" diagnostic plotted in the paper's Fig. 5(a) is derived from
    /// this plus half the band gap.
    ///
    /// # Panics
    ///
    /// Panics if `l >= layers()`.
    pub fn layer_potential_ev(&self, l: usize) -> f64 {
        let m = self.layer_dim();
        let (h00, _) = unit_cell_hamiltonian(self.gnr);
        let mut acc = 0.0;
        for i in 0..m {
            acc += (self.diag[l].get(i, i) - h00.get(i, i)).re;
        }
        acc / m as f64
    }

    /// Adds `energy_ev` to the on-site energy of one atom (cell-major
    /// index, as in [`crate::RibbonLattice::atoms`]). A very large value
    /// effectively removes the site — the standard trick for modelling
    /// lattice vacancies and edge roughness without changing the layered
    /// block structure the RGF solver relies on.
    ///
    /// # Panics
    ///
    /// Panics if `atom` is out of range.
    pub fn add_site_energy(&mut self, atom: usize, energy_ev: f64) {
        let m = self.layer_dim();
        let layer = atom / m;
        let i = atom % m;
        assert!(layer < self.layers(), "atom index out of range");
        self.diag[layer].add_to(i, i, c64(energy_ev, 0.0));
    }

    /// Assembles the full dense Hamiltonian (for validation on small
    /// segments; the RGF path never materializes this).
    pub fn to_dense(&self) -> CMatrix {
        let m = self.layer_dim();
        let n = m * self.layers();
        let mut h = CMatrix::zeros(n, n);
        for l in 0..self.layers() {
            for i in 0..m {
                for j in 0..m {
                    let v = self.diag[l].get(i, j);
                    if v != Complex64::ZERO {
                        h.set(l * m + i, l * m + j, v);
                    }
                }
            }
            if l + 1 < self.layers() {
                for i in 0..m {
                    for j in 0..m {
                        let v = self.coupling.get(i, j);
                        if v != Complex64::ZERO {
                            h.set(l * m + i, (l + 1) * m + j, v);
                            h.set((l + 1) * m + j, l * m + i, v.conj());
                        }
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_num::consts::EDGE_BOND_FACTOR;

    #[test]
    fn h00_is_hermitian_h01_couples_forward() {
        let gnr = AGnr::new(9).unwrap();
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        assert!(h00.hermiticity_defect() < 1e-14);
        assert_eq!(h00.rows(), 18);
        // H01 must be nonzero (cells couple) but not Hermitian in general.
        assert!(h01.norm_fro() > 0.0);
    }

    #[test]
    fn total_hopping_count_matches_three_neighbors() {
        // Each atom has exactly 3 neighbours in the infinite ribbon interior;
        // row sums of |H00| + |H01| + |H01^T| must equal 3t (edges: 2 bonds,
        // one strengthened).
        let gnr = AGnr::new(12).unwrap();
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        let m = gnr.atoms_per_cell();
        for i in 0..m {
            let mut bonds = 0.0;
            for j in 0..m {
                bonds += h00.get(i, j).norm() + h01.get(i, j).norm() + h01.get(j, i).norm();
            }
            let row = (i / 2) % gnr.index().max(1);
            let _ = row;
            let t = T_HOPPING;
            // Either 3 plain bonds, or 1 edge bond + 1 plain bond, or
            // 2 plain bonds + 1 edge bond... enumerate admissible sums.
            let admissible = [
                3.0 * t,
                2.0 * t + EDGE_BOND_FACTOR * t,
                t + EDGE_BOND_FACTOR * t,
                2.0 * t,
            ];
            assert!(
                admissible.iter().any(|&s| (bonds - s).abs() < 1e-9),
                "atom {i}: bond sum {bonds}"
            );
        }
    }

    #[test]
    fn device_hamiltonian_validation() {
        let gnr = AGnr::new(9).unwrap();
        assert!(matches!(
            DeviceHamiltonian::new(gnr, 0, &[]),
            Err(LatticeError::EmptySegment)
        ));
        assert!(matches!(
            DeviceHamiltonian::new(gnr, 2, &[0.0; 5]),
            Err(LatticeError::PotentialLength { .. })
        ));
    }

    #[test]
    fn dense_assembly_is_hermitian() {
        let gnr = AGnr::new(6).unwrap();
        let m = gnr.atoms_per_cell();
        let pot: Vec<f64> = (0..m * 4).map(|i| 0.01 * i as f64).collect();
        let h = DeviceHamiltonian::new(gnr, 4, &pot).unwrap();
        let dense = h.to_dense();
        assert!(dense.hermiticity_defect() < 1e-14);
        assert_eq!(dense.rows(), m * 4);
    }

    #[test]
    fn potential_shifts_diagonal() {
        let gnr = AGnr::new(6).unwrap();
        let m = gnr.atoms_per_cell();
        let mut pot = vec![0.0; m * 3];
        for v in pot[m..2 * m].iter_mut() {
            *v = 0.25;
        }
        let h = DeviceHamiltonian::new(gnr, 3, &pot).unwrap();
        assert!((h.layer_potential_ev(0) - 0.0).abs() < 1e-14);
        assert!((h.layer_potential_ev(1) - 0.25).abs() < 1e-14);
        assert!((h.layer_potential_ev(2) - 0.0).abs() < 1e-14);
    }

    #[test]
    fn flat_band_matches_explicit_zero_potential() {
        let gnr = AGnr::new(9).unwrap();
        let a = DeviceHamiltonian::flat_band(gnr, 3).unwrap();
        let b = DeviceHamiltonian::new(gnr, 3, &vec![0.0; 18 * 3]).unwrap();
        assert!(a.to_dense().distance(&b.to_dense()) < 1e-15);
    }
}
