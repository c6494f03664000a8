//! Contact self-energies.
//!
//! Two lead models cover the paper's device:
//!
//! * **Semi-infinite GNR lead** — the exact surface Green's function of a
//!   periodic half-ribbon obtained with the Sancho–Rubio decimation
//!   iteration; used for ideal ribbon extensions and validation.
//! * **Wide-band metal lead** — an energy-independent `Σ = −i·γ/2·I` on the
//!   contact layer. Together with mid-gap Fermi-level pinning in the device
//!   potential this is the standard Schottky-barrier FET contact (paper §2:
//!   `Φ_Bn = Φ_Bp = E_g/2`).

use crate::error::NegfError;
use gnr_num::budget::ExecLimits;
use gnr_num::telemetry;
use gnr_num::{c64, CMatrix, Complex64};

/// Numerical broadening `η` added to the energy in surface-GF iterations.
pub const DEFAULT_ETA: f64 = 1e-5;

/// Iteration budget used for lead surface-GF solves (each iteration doubles
/// the decimated length, so 200 is far beyond any physical requirement).
pub const SURFACE_GF_MAX_ITER: usize = 200;

/// Default wide-band coupling strength for metal Schottky contacts (eV).
///
/// γ of a few hundred meV gives contact broadening comparable to the GNR
/// bandwidth fraction used in published SBFET simulations.
pub const DEFAULT_METAL_GAMMA: f64 = 0.5;

/// A contact (lead) model attached to one end of the device.
#[derive(Clone, Debug, PartialEq)]
pub enum Lead {
    /// Semi-infinite continuation of the ribbon itself, at the given
    /// electrostatic potential shift (eV) relative to the device zero.
    GnrContact {
        /// Rigid potential shift of the lead bands (eV).
        potential_ev: f64,
    },
    /// Wide-band-limit metal: `Σ = −i·γ/2` on every contact-layer orbital.
    WideBandMetal {
        /// Coupling strength γ (eV).
        gamma_ev: f64,
    },
}

impl Lead {
    /// A semi-infinite GNR contact at zero potential shift.
    pub fn gnr_contact() -> Self {
        Lead::GnrContact { potential_ev: 0.0 }
    }

    /// A semi-infinite GNR contact with a rigid band shift (eV).
    pub fn gnr_contact_at(potential_ev: f64) -> Self {
        Lead::GnrContact { potential_ev }
    }

    /// A wide-band metal contact with the default coupling.
    pub fn metal() -> Self {
        Lead::WideBandMetal {
            gamma_ev: DEFAULT_METAL_GAMMA,
        }
    }

    /// A wide-band metal contact with coupling `gamma_ev`.
    pub fn metal_with_gamma(gamma_ev: f64) -> Self {
        Lead::WideBandMetal { gamma_ev }
    }

    /// Retarded contact self-energy at energy `e` (eV) for a lead attached
    /// through coupling `tau` (the hopping block from the boundary device
    /// layer *into* the first lead cell); `h00`/`h01` describe the periodic
    /// lead itself.
    ///
    /// For the wide-band metal the result is diagonal and `tau` is unused.
    ///
    /// The Sancho–Rubio decimation probes `limits` each doubling (site
    /// `"negf.surface_gf"`); pass [`ExecLimits::none`] (or `ctx.limits()`
    /// from an unlimited context) for the plain unbudgeted call.
    ///
    /// # Errors
    ///
    /// Propagates surface-GF convergence failures and budget stops.
    pub fn self_energy(
        &self,
        e: f64,
        h00: &CMatrix,
        h01: &CMatrix,
        tau: &CMatrix,
        limits: &ExecLimits,
    ) -> Result<CMatrix, NegfError> {
        match *self {
            Lead::GnrContact { potential_ev } => {
                let m = h00.rows();
                let mut h00_shifted = h00.clone();
                for i in 0..m {
                    h00_shifted.add_to(i, i, c64(potential_ev, 0.0));
                }
                let gs = surface_gf(
                    e,
                    &h00_shifted,
                    h01,
                    DEFAULT_ETA,
                    SURFACE_GF_MAX_ITER,
                    limits,
                )?;
                // Σ = τ g_s τ†
                let t1 = tau.matmul(&gs);
                Ok(t1.matmul(&tau.adjoint()))
            }
            Lead::WideBandMetal { gamma_ev } => {
                let m = h00.rows();
                let mut sigma = CMatrix::zeros(m, m);
                let v = c64(0.0, -0.5 * gamma_ev);
                for i in 0..m {
                    sigma.set(i, i, v);
                }
                Ok(sigma)
            }
        }
    }
}

/// Surface Green's function of a semi-infinite periodic lead growing in the
/// `+x` direction away from the device, computed by the Sancho–Rubio
/// decimation iteration (J. Phys. F 15, 851 (1985)).
///
/// `h00` is the intra-cell block, `h01` the coupling from one cell to the
/// next *deeper* cell. Convergence is quadratic: each iteration doubles the
/// effective decimated length.
///
/// The budget is probed at the top of every decimation doubling (site
/// `"negf.surface_gf"`), so a wedged lead solve cannot hold a pool worker
/// past its deadline. Pass [`ExecLimits::none`] (or `ctx.limits()` from an
/// unlimited context) for the plain unbudgeted call, bit for bit.
///
/// # Errors
///
/// Returns [`NegfError::SurfaceGf`] if the coupling norm fails to fall below
/// tolerance within `max_iter` doublings, propagates linear failures, and
/// surfaces budget stops via [`NegfError::Linear`].
pub fn surface_gf(
    e: f64,
    h00: &CMatrix,
    h01: &CMatrix,
    eta: f64,
    max_iter: usize,
    limits: &ExecLimits,
) -> Result<CMatrix, NegfError> {
    let m = h00.rows();
    let ez = c64(e, eta);
    let mut eye_e = CMatrix::zeros(m, m);
    for i in 0..m {
        eye_e.set(i, i, ez);
    }
    // eps_s: surface block; eps: bulk block; alpha/beta: decimated couplings.
    let mut eps_s = h00.clone();
    let mut eps = h00.clone();
    let mut alpha = h01.clone();
    let mut beta = h01.adjoint();
    let tol = 1e-12;
    for it in 0..max_iter {
        limits.check("negf.surface_gf")?;
        let a_norm = alpha.norm_fro();
        if a_norm < tol {
            telemetry::counter_inc("negf.sancho_rubio.calls");
            telemetry::counter_add("negf.sancho_rubio.iterations", it as u64);
            let ges = &eye_e - &eps_s;
            return Ok(ges.inverse()?);
        }
        let g = (&eye_e - &eps).inverse()?;
        // αg and βg each feed two products; computing them once halves the
        // per-iteration matmul count without changing a single FP op.
        let ag = alpha.matmul(&g);
        let bg = beta.matmul(&g);
        let agb = ag.matmul(&beta);
        let bga = bg.matmul(&alpha);
        eps_s += &agb;
        eps += &agb;
        eps += &bga;
        let new_alpha = ag.matmul(&alpha);
        let new_beta = bg.matmul(&beta);
        alpha = new_alpha;
        beta = new_beta;
    }
    Err(NegfError::SurfaceGf {
        iterations: max_iter,
        residual: alpha.norm_fro(),
    })
}

/// Broadening matrix `Γ = i(Σ − Σ†)` of a contact self-energy.
pub fn broadening(sigma: &CMatrix) -> CMatrix {
    let d = sigma - &sigma.adjoint();
    d.scale(Complex64::I)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1×1 "lead": a 1D tight-binding chain with hopping t. The surface GF
    /// has the closed form g = (E - i sqrt(4t^2 - E^2)) / (2 t^2) inside the
    /// band |E| < 2|t| (retarded branch).
    fn chain_blocks(t: f64) -> (CMatrix, CMatrix) {
        let h00 = CMatrix::zeros(1, 1);
        let mut h01 = CMatrix::zeros(1, 1);
        h01.set(0, 0, c64(-t, 0.0));
        (h00, h01)
    }

    #[test]
    fn chain_surface_gf_matches_analytic_in_band() {
        let t = 1.0;
        let (h00, h01) = chain_blocks(t);
        for &e in &[0.0, 0.5, -1.2, 1.7] {
            // eta must be large enough to regularize the band-centre pole of
            // the decimation iteration; 1e-6 keeps the analytic error ~1e-5.
            let g = surface_gf(e, &h00, &h01, 1e-6, 400, &ExecLimits::none())
                .unwrap()
                .get(0, 0);
            let expect_re = e / (2.0 * t * t);
            let expect_im = -(4.0 * t * t - e * e).sqrt() / (2.0 * t * t);
            assert!(
                (g.re - expect_re).abs() < 1e-4,
                "E={e}: re {} vs {expect_re}",
                g.re
            );
            assert!(
                (g.im - expect_im).abs() < 1e-4,
                "E={e}: im {} vs {expect_im}",
                g.im
            );
        }
    }

    #[test]
    fn chain_surface_gf_real_outside_band() {
        let (h00, h01) = chain_blocks(1.0);
        let g = surface_gf(3.0, &h00, &h01, 1e-7, 400, &ExecLimits::none())
            .unwrap()
            .get(0, 0);
        assert!(g.im.abs() < 1e-3, "outside the band the DOS vanishes: {g}");
    }

    #[test]
    fn surface_gf_stops_on_exhausted_budget() {
        use gnr_num::budget::Budget;
        let (h00, h01) = chain_blocks(1.0);
        // Two decimation doublings are nowhere near convergence at E = 0;
        // the third check trips and surfaces a typed budget error.
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(2));
        let err = surface_gf(0.0, &h00, &h01, 1e-6, 400, &limits).unwrap_err();
        assert!(
            err.to_string().contains("budget"),
            "expected budget stop, got: {err}"
        );
    }

    #[test]
    fn gnr_lead_self_energy_is_retarded() {
        use gnr_lattice::{unit_cell_hamiltonian, AGnr};
        let gnr = AGnr::new(9).unwrap();
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        let lead = Lead::gnr_contact();
        // tau from the device boundary layer into the lead = h01.
        let sigma = lead
            .self_energy(0.8, &h00, &h01, &h01, &ExecLimits::none())
            .unwrap();
        // Retarded: Gamma = i(Sigma - Sigma^+) is positive semidefinite; a
        // cheap proxy is that its trace (total broadening) is >= 0.
        let gamma = broadening(&sigma);
        assert!(gamma.trace().re >= -1e-9);
        assert!(gamma.trace().im.abs() < 1e-9);
    }

    #[test]
    fn gnr_lead_gapped_inside_gap() {
        use gnr_lattice::{unit_cell_hamiltonian, AGnr};
        let gnr = AGnr::new(12).unwrap();
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        let lead = Lead::gnr_contact();
        // In the band gap — but away from E=0, where the cut armchair face
        // hosts physical end-localized states — the lead injects no
        // propagating states: Gamma ~ 0.
        let sigma = lead
            .self_energy(0.2, &h00, &h01, &h01, &ExecLimits::none())
            .unwrap();
        let g_gap = broadening(&sigma).trace().re;
        // Inside the band it injects orders of magnitude more.
        let sigma = lead
            .self_energy(1.0, &h00, &h01, &h01, &ExecLimits::none())
            .unwrap();
        let g_band = broadening(&sigma).trace().re;
        assert!(g_band > 0.1, "band broadening {g_band}");
        assert!(
            g_gap < 0.05 * g_band,
            "gap {g_gap} should be far below band {g_band}"
        );
    }

    #[test]
    fn lead_potential_shift_moves_band_edge() {
        use gnr_lattice::{unit_cell_hamiltonian, AGnr};
        let gnr = AGnr::new(12).unwrap();
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        let bands = gnr.band_structure(64).unwrap();
        let ec = bands.conduction_edge();
        let probe = ec + 0.05;
        // Unshifted lead: probe is inside the conduction band -> broadening.
        let g0 = broadening(
            &Lead::gnr_contact()
                .self_energy(probe, &h00, &h01, &h01, &ExecLimits::none())
                .unwrap(),
        )
        .trace()
        .re;
        // Lead raised by +0.45 eV: probe now sits in the (shifted) gap at
        // ~-0.12 eV relative to the lead, away from the end-state energy.
        let g1 = broadening(
            &Lead::gnr_contact_at(0.45)
                .self_energy(probe, &h00, &h01, &h01, &ExecLimits::none())
                .unwrap(),
        )
        .trace()
        .re;
        assert!(g0 > 0.1 && g1 < 0.05 * g0, "g0={g0} g1={g1}");
    }

    #[test]
    fn metal_lead_diagonal() {
        let h00 = CMatrix::zeros(4, 4);
        let h01 = CMatrix::zeros(4, 4);
        let sigma = Lead::metal_with_gamma(0.4)
            .self_energy(0.1, &h00, &h01, &h01, &ExecLimits::none())
            .unwrap();
        for i in 0..4 {
            assert_eq!(sigma.get(i, i), c64(0.0, -0.2));
            for j in 0..4 {
                if i != j {
                    assert_eq!(sigma.get(i, j), Complex64::ZERO);
                }
            }
        }
    }

    #[test]
    fn broadening_of_metal_lead() {
        let h00 = CMatrix::zeros(2, 2);
        let sigma = Lead::metal_with_gamma(0.6)
            .self_energy(0.0, &h00, &h00, &h00, &ExecLimits::none())
            .unwrap();
        let gamma = broadening(&sigma);
        assert!((gamma.get(0, 0).re - 0.6).abs() < 1e-14);
    }
}
