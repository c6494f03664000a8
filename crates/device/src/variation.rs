//! Device non-idealities: GNR width variation and oxide charge impurities.
//!
//! The paper (§4) identifies two dominant mechanisms:
//!
//! * **Width variation** — the band gap is inversely proportional to the
//!   ribbon width, so a ±1-index slip (3.7 Å per step of 3 in N) changes
//!   I_on/I_off by orders of magnitude. Modelled exactly: a
//!   [`GnrVariant`] simply selects a different index N for the affected
//!   ribbon(s).
//! * **Charge impurities** — a fixed ±q/±2q charge in the gate oxide,
//!   0.4 nm above the ribbon and near the source contact where it distorts
//!   the Schottky barrier most. Modelled as a real screened-Coulomb
//!   profile: a 3D Poisson solve with all electrodes grounded.

use crate::config::DeviceConfig;
use crate::error::DeviceError;

/// A variant ribbon width for one or more GNRs in a FET channel array.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct GnrVariant {
    /// The GNR index of the affected ribbon(s).
    pub n: usize,
}

impl GnrVariant {
    /// The paper's study set: N ∈ {9, 12, 15, 18} (all-semiconducting `3p`
    /// family, 1.1 nm upward in steps of 3.7 Å).
    pub const PAPER_SET: [GnrVariant; 4] = [
        GnrVariant { n: 9 },
        GnrVariant { n: 12 },
        GnrVariant { n: 15 },
        GnrVariant { n: 18 },
    ];
}

/// A fixed charge impurity in the gate oxide.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChargeImpurity {
    /// Charge in units of q (the paper studies −2, −1, +1, +2).
    pub charge_q: f64,
    /// Distance from the source face along the channel \[nm\]. The paper
    /// places impurities near the source to maximize the Schottky-barrier
    /// distortion.
    pub x_from_source_nm: f64,
    /// Height above the GNR plane \[nm\] (paper: 0.4).
    pub height_nm: f64,
}

impl ChargeImpurity {
    /// The paper's standard placement: `charge_q` charges, 2 nm into the
    /// channel from the source (just past the Schottky-barrier transition,
    /// where Fig. 5(a) shows the distorted band peak), 0.4 nm above the
    /// ribbon.
    pub fn near_source(charge_q: f64) -> Self {
        ChargeImpurity {
            charge_q,
            x_from_source_nm: 2.0,
            height_nm: 0.4,
        }
    }

    /// Computes the impurity's potential footprint on the ribbon: one value
    /// per channel grid column \[V\], from a 3D Poisson solve with every
    /// electrode grounded. By linearity this profile superposes onto any
    /// bias condition.
    ///
    /// # Errors
    ///
    /// Propagates Poisson failures.
    pub fn ribbon_profile(&self, cfg: &DeviceConfig) -> Result<Vec<f64>, DeviceError> {
        let mut problem = cfg.build_poisson(0.0, 0.0, 0.0)?;
        let h = cfg.grid_h_nm;
        let (_, ny, _) = cfg.grid_dims();
        let (ch0, _) = cfg.channel_x_range();
        let x = (ch0 as f64) * h + self.x_from_source_nm;
        let y = ny as f64 * h / 2.0;
        let z = (cfg.gnr_plane_k() as f64 + 0.5) * h + self.height_nm;
        problem.add_point_charge(x, y, z, self.charge_q);
        let sol = problem.solve(None, &gnr_num::budget::ExecLimits::none())?;
        Ok(cfg.sample_along_channel(&sol))
    }
}

/// Edge roughness of the ribbon: each edge atom is independently removed
/// (converted to a vacancy) with the given probability.
///
/// The paper points to edge roughness (its ref. \[17\], Yoon & Guo, APL 91,
/// 073103) as the next defect mechanism "readily explored by extending the
/// bottom-up simulation framework" — this type is that extension. Vacancies
/// are modelled by a large on-site energy that decouples the site while
/// preserving the layered structure the RGF solver needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRoughness {
    /// Per-edge-atom vacancy probability (the paper's cited study sweeps
    /// this in the few-percent range).
    pub probability: f64,
    /// RNG seed for reproducible disorder realizations.
    pub seed: u64,
}

/// On-site energy used to decouple vacancy sites (eV); far outside the
/// pz band so the site carries no spectral weight in the transport window.
pub const VACANCY_ENERGY_EV: f64 = 1.0e3;

impl EdgeRoughness {
    /// Creates a roughness descriptor.
    pub fn new(probability: f64, seed: u64) -> Self {
        EdgeRoughness { probability, seed }
    }

    /// The edge-atom indices (cell-major) turned into vacancies for this
    /// realization on a `cells`-long ribbon of index `gnr`.
    pub fn vacancy_sites(&self, gnr: gnr_lattice::AGnr, cells: usize) -> Vec<usize> {
        let lattice = gnr.lattice(cells);
        let max_row = gnr.index() - 1;
        // xorshift64*: tiny deterministic generator, no extra dependency.
        let mut state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        lattice
            .atoms()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.row == 0 || a.row == max_row)
            .filter(|_| (next() >> 11) as f64 / ((1u64 << 53) as f64) < self.probability)
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies this disorder realization to a device Hamiltonian.
    pub fn apply(&self, h: &mut gnr_lattice::DeviceHamiltonian, cells: usize) {
        for site in self.vacancy_sites(h.gnr(), cells) {
            h.add_site_energy(site, VACANCY_ENERGY_EV);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_is_3p_family() {
        for v in GnrVariant::PAPER_SET {
            assert_eq!(v.n % 3, 0);
        }
    }

    #[test]
    fn positive_impurity_raises_ribbon_potential_locally() {
        let cfg = DeviceConfig::test_small(12).unwrap();
        let imp = ChargeImpurity::near_source(2.0);
        let prof = imp.ribbon_profile(&cfg).unwrap();
        // Peak near the source end, decaying into the channel.
        let peak_idx = prof
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak_idx < prof.len() / 3, "peak at {peak_idx}");
        assert!(prof[peak_idx] > 0.05, "peak {}", prof[peak_idx]);
        // Gate screening kills it within a few nm (pitch > oxide thickness
        // argument from the paper §4).
        let far = prof[prof.len() - 1].abs();
        assert!(far < 0.1 * prof[peak_idx], "far {far}");
    }

    #[test]
    fn impurity_profile_scales_linearly_with_charge() {
        let cfg = DeviceConfig::test_small(9).unwrap();
        let p1 = ChargeImpurity::near_source(1.0)
            .ribbon_profile(&cfg)
            .unwrap();
        let p2 = ChargeImpurity::near_source(-2.0)
            .ribbon_profile(&cfg)
            .unwrap();
        for (a, b) in p1.iter().zip(&p2) {
            assert!((b + 2.0 * a).abs() < 1e-6 + 1e-6 * a.abs(), "{a} vs {b}");
        }
    }

    #[test]
    fn negative_impurity_raises_electron_barrier() {
        use crate::sbfet::SbfetModel;
        let cfg = DeviceConfig::test_small(12).unwrap();
        let ideal = SbfetModel::new(&cfg).unwrap();
        let neg = SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(-2.0)]).unwrap();
        // Paper Fig. 5: a -2q impurity raises the source barrier and cuts
        // the electron on-current severely (factor ~6 in the paper).
        let i_ideal = ideal.drain_current(0.5, 0.5).unwrap();
        let i_neg = neg.drain_current(0.5, 0.5).unwrap();
        assert!(
            i_neg < 0.65 * i_ideal,
            "on-current {i_ideal:.3e} -> {i_neg:.3e} should drop"
        );
    }

    #[test]
    fn edge_roughness_is_reproducible_and_scales() {
        let gnr = gnr_lattice::AGnr::new(9).unwrap();
        let a = EdgeRoughness::new(0.1, 42).vacancy_sites(gnr, 10);
        let b = EdgeRoughness::new(0.1, 42).vacancy_sites(gnr, 10);
        assert_eq!(a, b, "same seed, same realization");
        let c = EdgeRoughness::new(0.1, 43).vacancy_sites(gnr, 10);
        assert_ne!(a, c, "different seed, different realization");
        // Expected count: 4 edge atoms/cell x 10 cells x 10% = ~4.
        assert!(!a.is_empty() && a.len() < 15, "{} vacancies", a.len());
        let dense = EdgeRoughness::new(0.5, 42).vacancy_sites(gnr, 10);
        assert!(dense.len() > 2 * a.len());
        // None at zero probability.
        assert!(EdgeRoughness::new(0.0, 42)
            .vacancy_sites(gnr, 10)
            .is_empty());
    }

    #[test]
    fn edge_roughness_suppresses_transmission() {
        use gnr_lattice::DeviceHamiltonian;
        use gnr_negf::{Lead, RgfSolver};
        // Paper ref [17]: edge roughness localizes carriers and degrades
        // conduction; transmission through a rough ribbon must fall well
        // below the ideal ribbon's, and fall further with more roughness.
        let gnr = gnr_lattice::AGnr::new(9).unwrap();
        let cells = 12;
        let bands = gnr.band_structure(96).unwrap();
        let e_probe = bands.conduction_edge() + 0.15;
        let t_of = |p: f64| {
            let mut h = DeviceHamiltonian::flat_band(gnr, cells).unwrap();
            EdgeRoughness::new(p, 7).apply(&mut h, cells);
            RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact())
                .transmission(e_probe)
                .unwrap()
        };
        let t0 = t_of(0.0);
        let t5 = t_of(0.05);
        let t20 = t_of(0.20);
        assert!((t0 - 1.0).abs() < 0.05, "ideal T = {t0}");
        assert!(t5 < 0.9 * t0, "5% roughness: {t5} vs ideal {t0}");
        assert!(t20 < t5, "20% roughness {t20} must be below 5% {t5}");
    }

    #[test]
    fn positive_impurity_smaller_effect_on_ntype() {
        use crate::sbfet::SbfetModel;
        // Paper Fig. 5(b): the +2q device deviates less from ideal than the
        // -2q device in the n-type branch.
        let cfg = DeviceConfig::test_small(12).unwrap();
        let ideal = SbfetModel::new(&cfg).unwrap();
        let pos = SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(2.0)]).unwrap();
        let neg = SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(-2.0)]).unwrap();
        let i0 = ideal.drain_current(0.6, 0.5).unwrap();
        let ip = pos.drain_current(0.6, 0.5).unwrap();
        let in_ = neg.drain_current(0.6, 0.5).unwrap();
        let dev_pos = (ip / i0).ln().abs();
        let dev_neg = (in_ / i0).ln().abs();
        assert!(
            dev_neg > dev_pos,
            "asymmetry: -2q dev {dev_neg:.3} vs +2q dev {dev_pos:.3}"
        );
    }
}
