//! Bloch band structure of the infinite A-GNR.
//!
//! Diagonalizes `H(k) = H00 + H01·e^{ik} + H01†·e^{-ik}` on a uniform
//! k-grid over half the Brillouin zone (the spectrum is symmetric in ±k)
//! and extracts the band gap, subband edges, and band-edge effective masses
//! consumed by the semi-analytic device model.

use crate::error::LatticeError;
use crate::hamiltonian::unit_cell_hamiltonian;
use crate::AGnr;
use gnr_num::consts::{HBAR_EV, M_E, Q_E};
use gnr_num::{c64, CMatrix};

/// Band structure of an A-GNR sampled on a uniform k-grid.
#[derive(Clone, Debug)]
pub struct BandStructure {
    gnr: AGnr,
    /// k samples in units of 1/period, spanning `[0, π]`.
    k: Vec<f64>,
    /// `bands[b][ik]`: energy of band `b` at `k[ik]`, in eV, sorted by band.
    bands: Vec<Vec<f64>>,
}

/// Computes the band structure of `gnr` on `k_points ≥ 2` samples of
/// `k ∈ [0, π]` (in units of the inverse period).
///
/// # Errors
///
/// Returns [`LatticeError::BandSolve`] if the eigensolver fails.
pub fn compute(gnr: AGnr, k_points: usize) -> Result<BandStructure, LatticeError> {
    let bloch = Bloch::new(gnr, k_points);
    let mut k = Vec::with_capacity(bloch.k_points);
    let mut bands = vec![Vec::with_capacity(bloch.k_points); gnr.atoms_per_cell()];
    for ik in 0..bloch.k_points {
        let (evals, _) = bloch.hamiltonian(ik).herm_eigen()?;
        for (b, e) in evals.into_iter().enumerate() {
            bands[b].push(e);
        }
        k.push(bloch.k(ik));
    }
    Ok(BandStructure { gnr, k, bands })
}

/// Screen margin δ of [`screened_subband_edges`] (eV). It must be at
/// least twice the largest gap ε between the QL and Jacobi eigenvalues of
/// one sorted index; ε ≤ 3.1e-13 eV was measured over N = 3…30 at 128 k
/// (DESIGN.md §2.3), so this leaves more than 1000× headroom.
const SCREEN_MARGIN_EV: f64 = 1e-9;

/// The first `count` conduction subband minima of `gnr`, ascending (eV),
/// bit-identical to the per-band minima of [`compute`]`(gnr, k_points)`
/// that are above 0 eV, sorted and truncated to `count`.
///
/// Screens every k with the eigenvalues-only QL solver, then runs the
/// Jacobi solver of [`compute`] only at the k where some candidate band
/// may attain its minimum (DESIGN.md §2.3). Also returns the number of
/// Jacobi solves.
pub(crate) fn screened_subband_edges(
    gnr: AGnr,
    k_points: usize,
    count: usize,
) -> Result<(Vec<f64>, usize), LatticeError> {
    if count == 0 {
        return Ok((Vec::new(), 0));
    }
    let bloch = Bloch::new(gnr, k_points);
    let (nk, m) = (bloch.k_points, gnr.atoms_per_cell());
    // Screen: approx[ik * m + b] is band b at k_ik, to within ε.
    let mut approx = Vec::with_capacity(nk * m);
    for ik in 0..nk {
        approx.extend(bloch.hamiltonian(ik).herm_eigenvalues()?);
    }
    let approx_min: Vec<f64> = (0..m)
        .map(|b| (0..nk).fold(f64::INFINITY, |lo, ik| lo.min(approx[ik * m + b])))
        .collect();
    // Each approximate minimum is within ε of the exact one. Bands above δ
    // are surely positive; the count-th of those bounds the answer.
    let mut sure: Vec<f64> = approx_min
        .iter()
        .copied()
        .filter(|&e| e > SCREEN_MARGIN_EV)
        .collect();
    sure.sort_by(f64::total_cmp);
    let cutoff = sure
        .get(count - 1)
        .map_or(f64::INFINITY, |&e| e + SCREEN_MARGIN_EV);
    let candidates: Vec<usize> = (0..m)
        .filter(|&b| approx_min[b] > -SCREEN_MARGIN_EV && approx_min[b] <= cutoff)
        .collect();
    // Polish: every k where a candidate band may attain its minimum.
    let mut polish = vec![false; nk];
    for &b in &candidates {
        for (ik, flag) in polish.iter_mut().enumerate() {
            *flag |= approx[ik * m + b] <= approx_min[b] + SCREEN_MARGIN_EV;
        }
    }
    let mut exact = vec![f64::INFINITY; candidates.len()];
    let mut solves = 0;
    for ik in (0..nk).filter(|&ik| polish[ik]) {
        let (evals, _) = bloch.hamiltonian(ik).herm_eigen()?;
        solves += 1;
        for (lo, &b) in exact.iter_mut().zip(&candidates) {
            *lo = lo.min(evals[b]);
        }
    }
    let mut mins: Vec<f64> = exact.into_iter().filter(|&lo| lo > 0.0).collect();
    mins.sort_by(f64::total_cmp);
    mins.truncate(count);
    Ok((mins, solves))
}

/// The Bloch Hamiltonian `H(k) = H00 + H01·e^{ik} + H01†·e^{-ik}` on the
/// uniform grid of `k_points ≥ 2` samples of `[0, π]`.
struct Bloch {
    h00: CMatrix,
    h01: CMatrix,
    h10: CMatrix,
    k_points: usize,
}

impl Bloch {
    fn new(gnr: AGnr, k_points: usize) -> Self {
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        let h10 = h01.adjoint();
        Bloch {
            h00,
            h01,
            h10,
            k_points: k_points.max(2),
        }
    }

    fn k(&self, ik: usize) -> f64 {
        std::f64::consts::PI * ik as f64 / (self.k_points - 1) as f64
    }

    fn hamiltonian(&self, ik: usize) -> CMatrix {
        let kk = self.k(ik);
        let phase = c64(kk.cos(), kk.sin());
        &(&self.h00 + &self.h01.scale(phase)) + &self.h10.scale(phase.conj())
    }
}

impl BandStructure {
    /// The ribbon this band structure belongs to.
    pub fn gnr(&self) -> AGnr {
        self.gnr
    }

    /// k samples (units: 1/period, spanning `[0, π]`).
    pub fn k_samples(&self) -> &[f64] {
        &self.k
    }

    /// All subbands: `bands()[b][ik]` in eV.
    pub fn bands(&self) -> &[Vec<f64>] {
        &self.bands
    }

    /// Lowest conduction-band energy (eV): minimum over k of the lowest
    /// band above the charge-neutrality point (0 eV).
    pub fn conduction_edge(&self) -> f64 {
        self.bands
            .iter()
            .flat_map(|band| band.iter().copied())
            .filter(|&e| e > 0.0)
            .fold(f64::INFINITY, f64::min)
    }

    /// Highest valence-band energy (eV).
    pub fn valence_edge(&self) -> f64 {
        self.bands
            .iter()
            .flat_map(|band| band.iter().copied())
            .filter(|&e| e <= 0.0)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Band gap `E_c − E_v` in eV.
    pub fn gap(&self) -> f64 {
        self.conduction_edge() - self.valence_edge()
    }

    /// Effective mass of the lowest conduction band at its minimum, in units
    /// of the free-electron mass, from a parabolic fit of the three samples
    /// around the minimum.
    pub fn conduction_effective_mass(&self) -> f64 {
        // Identify the band and k-index of the conduction minimum.
        let mut best = (0usize, 0usize, f64::INFINITY);
        for (b, band) in self.bands.iter().enumerate() {
            for (ik, &e) in band.iter().enumerate() {
                if e > 0.0 && e < best.2 {
                    best = (b, ik, e);
                }
            }
        }
        let (b, ik, _) = best;
        let band = &self.bands[b];
        let i = ik.clamp(1, band.len() - 2);
        let dk = (self.k[1] - self.k[0]) / self.gnr.period_m(); // 1/m
                                                                // Second derivative via central difference (eV·m²).
        let d2 = (band[i + 1] - 2.0 * band[i] + band[i - 1]) / (dk * dk);
        if d2 <= 0.0 {
            return f64::INFINITY;
        }
        // m* = ħ² / (d²E/dk²); convert eV to J.
        let hbar_j = HBAR_EV * Q_E; // J·s
        hbar_j * HBAR_EV / d2 / M_E
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap_of(n: usize) -> f64 {
        AGnr::new(n).unwrap().band_structure(96).unwrap().gap()
    }

    #[test]
    fn spectrum_is_particle_hole_symmetric_without_edge_relaxation() {
        // With edge relaxation the symmetry is only mildly broken; check the
        // edges are within ~0.2 eV of symmetric.
        let bs = AGnr::new(12).unwrap().band_structure(64).unwrap();
        let ec = bs.conduction_edge();
        let ev = bs.valence_edge();
        assert!((ec + ev).abs() < 0.2, "ec={ec} ev={ev}");
    }

    #[test]
    fn gap_decreases_with_width_in_3p_family() {
        let g9 = gap_of(9);
        let g12 = gap_of(12);
        let g15 = gap_of(15);
        let g18 = gap_of(18);
        assert!(g9 > g12 && g12 > g15 && g15 > g18, "{g9} {g12} {g15} {g18}");
        // Approximate inverse proportionality to width.
        assert!(g9 / g18 > 1.6);
    }

    #[test]
    fn n12_gap_matches_literature() {
        // pz TB with 12% edge relaxation: N=12 gap ~ 0.6 eV (Son et al.).
        let g = gap_of(12);
        assert!(g > 0.45 && g < 0.75, "g = {g}");
    }

    #[test]
    fn family_3p_plus_2_has_small_gap() {
        let g11 = gap_of(11);
        let g12 = gap_of(12);
        assert!(
            g11 < 0.35 * g12,
            "3p+2 family should be nearly metallic: {g11} vs {g12}"
        );
    }

    #[test]
    fn family_3p_plus_1_has_larger_gap_than_3p() {
        let g10 = gap_of(10);
        let g12 = gap_of(12);
        assert!(g10 > g12, "{g10} vs {g12}");
    }

    #[test]
    fn band_count_is_2n() {
        let bs = AGnr::new(9).unwrap().band_structure(16).unwrap();
        assert_eq!(bs.bands().len(), 18);
        assert_eq!(bs.k_samples().len(), 16);
    }

    #[test]
    fn subband_edges_sorted_and_positive() {
        let gnr = AGnr::new(12).unwrap();
        let edges = gnr.conduction_subband_edges(64, 3).unwrap();
        assert_eq!(edges.len(), 3);
        assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        let ec = gnr.band_structure(64).unwrap().conduction_edge();
        assert_eq!(edges[0].to_bits(), ec.to_bits());
    }

    #[test]
    fn screen_polishes_one_k_for_wide_ribbons_and_more_for_flat_bands() {
        let solves = |n| {
            screened_subband_edges(AGnr::new(n).unwrap(), 128, 3)
                .unwrap()
                .1
        };
        assert_eq!(solves(9), 1);
        assert_eq!(solves(12), 1);
        assert!(solves(4) >= 2, "N=4 polishes {}", solves(4));
        assert!(solves(3) > 2, "N=3 polishes {}", solves(3));
    }

    #[test]
    fn effective_mass_reasonable() {
        // Literature: m* of N=12 A-GNR ~ 0.05-0.2 m0.
        let bs = AGnr::new(12).unwrap().band_structure(192).unwrap();
        let m = bs.conduction_effective_mass();
        assert!(m > 0.01 && m < 0.5, "m* = {m} m0");
    }
}
