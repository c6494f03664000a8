//! Semi-analytic ballistic Schottky-barrier GNRFET model.
//!
//! The fast device path (DESIGN.md §2, substitution 1): the same geometry,
//! bands, and contact physics as the full NEGF⇄Poisson solver, evaluated
//! with three approximations that together cost microseconds per bias point:
//!
//! 1. **Electrostatics** — the exact 3D *Laplace* response of the gate
//!    stack (three unit-voltage solves from `gnr-poisson`, superposed by
//!    linearity), plus a local quantum-capacitance correction for the
//!    channel charge instead of a full Poisson⇄NEGF iteration.
//! 2. **Transport** — WKB tunneling through the resulting Schottky-barrier
//!    profile using the GNR 2-band complex dispersion
//!    `κ(E) = √(E_n² − (E−U)²)/ħv_F` per subband, with Landauer
//!    integration over the bias window. Above-barrier transmission is 1 per
//!    open subband, reproducing the ballistic limit.
//! 3. **Charge** — 1D subband DOS filled with the average source/drain
//!    occupancy, the standard ballistic approximation.
//!
//! The model reproduces every qualitative device feature the paper's
//! evaluation relies on: ambipolar I-V with the leakage minimum at
//! `V_G ≈ V_D/2`, exponential V_D dependence of the minimum leakage,
//! band-gap (width) controlled I_on/I_off, and the asymmetric response to
//! oxide charge impurities (which enter as real screened-Coulomb profiles
//! solved on the same 3D grid).

use crate::config::{DeviceConfig, ResponseProfiles};
use crate::error::DeviceError;
use crate::variation::ChargeImpurity;
use gnr_num::consts::{EPS_0, EPS_R_SIO2, G_QUANTUM, Q_E, T_HOPPING};
use gnr_num::fermi::fermi;

/// `ħ·v_F` of graphene in eV·nm (`3 t a_cc / 2`).
pub const HBAR_VFERMI_EV_NM: f64 = 1.5 * T_HOPPING * 0.142;

/// Number of conduction subbands included in transport and charge.
const SUBBANDS: usize = 3;

/// k samples over `[0, π]` on which the subband minima are taken.
const BAND_K_POINTS: usize = 128;

/// Energy step of the Landauer integration \[eV\].
const ENERGY_STEP: f64 = 0.004;

/// Fermi-window padding in units of kT.
const WINDOW_KT: f64 = 12.0;

/// Quantum-capacitance fixed-point iterations.
const QC_ITERATIONS: usize = 12;

/// Thin-barrier WKB calibration. Plain WKB (`T = e^{-2S}`) systematically
/// over-attenuates barriers only a few decay lengths thick — exactly the
/// ~1 nm Schottky barriers of this geometry — relative to exact NEGF.
/// Each contiguous forbidden segment of length `L` has its action rescaled
/// by `alpha(L) = 1 − A·e^{−L/L0}`: thin contact barriers are softened
/// while long mid-channel (off-state) barriers keep the exact WKB decay.
/// Calibrated once against the full NEGF⇄Poisson width trend (DESIGN.md).
const WKB_THIN_AMPLITUDE: f64 = 0.60;
/// Length scale of the thin-barrier correction \[nm\].
const WKB_THIN_LENGTH_NM: f64 = 2.5;

fn segment_alpha(length_nm: f64) -> f64 {
    1.0 - WKB_THIN_AMPLITUDE * (-length_nm / WKB_THIN_LENGTH_NM).exp()
}

/// The drain-bias half of a bias point: `V_DS` and the local net-density
/// table of its contact Fermi levels. Nothing in it depends on `V_GS`, so a
/// table build makes one column per `V_DS` node and a leakage search one per
/// search, and every gate voltage evaluates against it
/// ([`SbfetModel::evaluate_with`]). Valid only for the model that built it.
pub(crate) struct DrainColumn {
    v_d: f64,
    density: gnr_num::LinearTable,
}

fn check_bias(v: f64) -> Result<(), DeviceError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(DeviceError::config("bias voltages must be finite"))
    }
}

/// Semi-analytic ballistic SBFET model bound to one device configuration.
///
/// See the [module documentation](self) for the physics; [`new`](Self::new)
/// performs the three 3D Laplace solves and finds the subband edges.
/// Nothing caches them here: callers that need several impurity variants of
/// one width derive them with
/// [`with_added_impurities`](Self::with_added_impurities), which reuses the
/// responses and bands (the device library in `gnrfet-explore` memoizes the
/// impurity-free model per width and derives the charged ones from it).
#[derive(Clone, Debug)]
pub struct SbfetModel {
    cfg: DeviceConfig,
    responses: ResponseProfiles,
    /// Conduction subband edges (eV); valence edges mirror them.
    subbands: Vec<f64>,
    /// Additional ribbon potential from oxide charge impurities \[V\].
    impurity_profile: Vec<f64>,
    /// Insulator capacitance per channel length \[F/nm\].
    c_ins_per_nm: f64,
}

impl SbfetModel {
    /// Builds the model for an ideal (impurity-free) device.
    ///
    /// # Errors
    ///
    /// Propagates Poisson and band-structure failures.
    pub fn new(cfg: &DeviceConfig) -> Result<Self, DeviceError> {
        let responses = cfg.electrode_responses()?;
        let subbands = cfg.gnr.conduction_subband_edges(BAND_K_POINTS, SUBBANDS)?;
        if subbands.is_empty() {
            return Err(DeviceError::config(
                "ribbon has no conduction subbands (metallic index?)",
            ));
        }
        // Double-gate parallel-plate capacitance with a fringe-widened
        // effective width: field lines from the wide gate planes wrap around
        // the narrow ribbon, so the electrostatic width substantially
        // exceeds the metallurgical one (~2 t_ox of fringe per side for a
        // ribbon much narrower than the gate).
        let w_eff = cfg.gnr.width_nm() + 2.0 * cfg.t_ox_nm + 1.0;
        let c_ins_per_nm = 2.0 * EPS_R_SIO2 * (EPS_0 * 1e-9) * w_eff / cfg.t_ox_nm;
        Ok(SbfetModel {
            cfg: cfg.clone(),
            // The responses carry two extra pinned boundary samples.
            impurity_profile: vec![0.0; responses.len()],
            responses,
            subbands,
            c_ins_per_nm,
        })
    }

    /// Builds the model with oxide charge impurities:
    /// `Self::new(cfg)?.with_added_impurities(impurities)`.
    ///
    /// # Errors
    ///
    /// Propagates Poisson and band-structure failures.
    pub fn with_impurities(
        cfg: &DeviceConfig,
        impurities: &[ChargeImpurity],
    ) -> Result<Self, DeviceError> {
        Self::new(cfg)?.with_added_impurities(impurities)
    }

    /// A copy of this model with further oxide charge impurities; each
    /// impurity's screened-Coulomb footprint on the ribbon is obtained from
    /// one 3D Poisson solve with all electrodes grounded (linear
    /// superposition). The Laplace responses and bands are reused, so a
    /// charged variant costs one solve per impurity instead of three more
    /// Laplace solves; footprints add onto the existing profile in list
    /// order, so the result is bit-identical to listing every impurity in
    /// one [`with_impurities`](Self::with_impurities) call.
    ///
    /// # Errors
    ///
    /// Propagates Poisson failures.
    pub fn with_added_impurities(
        &self,
        impurities: &[ChargeImpurity],
    ) -> Result<Self, DeviceError> {
        let mut model = self.clone();
        // Impurity footprints vanish at the metal faces (perfect
        // screening): the pinned first/last samples stay untouched.
        for imp in impurities {
            let profile = imp.ribbon_profile(&self.cfg)?;
            for (acc, v) in model.impurity_profile[1..].iter_mut().zip(&profile) {
                *acc += v;
            }
        }
        Ok(model)
    }

    /// The device configuration the model was built from.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Conduction subband edges (eV) of the channel ribbon.
    pub fn subband_edges(&self) -> &[f64] {
        &self.subbands
    }

    /// Band gap of the channel (eV).
    pub fn band_gap(&self) -> f64 {
        2.0 * self.subbands[0]
    }

    /// Local mid-gap potential energy profile `U(x)` in eV (electron
    /// convention, source Fermi level at 0), including the
    /// quantum-capacitance charge correction.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for non-finite bias input.
    pub fn potential_profile(&self, v_g: f64, v_d: f64) -> Result<Vec<f64>, DeviceError> {
        self.profile_with(v_g, &self.drain_column(v_d)?)
    }

    /// [`potential_profile`](Self::potential_profile) at gate voltage `v_g`
    /// against a prebuilt drain-bias column.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for a non-finite `v_g`.
    pub(crate) fn profile_with(
        &self,
        v_g: f64,
        col: &DrainColumn,
    ) -> Result<Vec<f64>, DeviceError> {
        check_bias(v_g)?;
        let v_g_eff = v_g + self.cfg.gate_offset_v;
        let phi = self.responses.superpose(0.0, col.v_d, v_g_eff);
        // Laplace potential -> electron midgap energy, plus impurities.
        let mut u: Vec<f64> = phi
            .iter()
            .zip(&self.impurity_profile)
            .map(|(p, imp)| -(p + imp))
            .collect();
        let u_laplace = u.clone();
        // Local quantum-capacitance correction: the net mobile charge
        // counter-acts the Laplace potential with strength q^2 n / C_ins.
        for _ in 0..QC_ITERATIONS {
            let mut worst = 0.0f64;
            // Skip the pinned metal-face samples (first/last): the contact
            // metal's unlimited DOS clamps the potential there.
            for i in 1..u.len().saturating_sub(1) {
                let n_net = col.density.eval(u[i]);
                // Positive net charge (holes) raises phi, lowers U.
                let du = -Q_E * n_net / self.c_ins_per_nm;
                let target = u_laplace[i] + du;
                let new_u = 0.5 * u[i] + 0.5 * target;
                worst = worst.max((new_u - u[i]).abs());
                u[i] = new_u;
            }
            if worst < 1e-5 {
                break;
            }
        }
        Ok(u)
    }

    /// The drain-bias column at `v_d`: the local net density tabulated as a
    /// function of the midgap energy for the contact Fermi levels of `v_d`,
    /// so the quantum-capacitance iteration and the charge sum do table
    /// lookups instead of re-integrating the DOS at every site.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for a non-finite `v_d`.
    pub(crate) fn drain_column(&self, v_d: f64) -> Result<DrainColumn, DeviceError> {
        check_bias(v_d)?;
        let mu_s = 0.0f64;
        let mu_d = -v_d;
        let kt = self.cfg.temperature_k;
        let lo = -1.8 - v_d.abs();
        let hi = 1.8 + v_d.abs();
        let grid = gnr_num::Grid1::new(lo, hi, 181)?;
        Ok(DrainColumn {
            v_d,
            density: gnr_num::LinearTable::from_fn(grid, |u| {
                self.local_net_density(u, mu_s, mu_d, kt)
            }),
        })
    }

    /// Net local carrier density `p − n` per nm (units of q) at local
    /// midgap `u`, with ballistic average occupancy.
    fn local_net_density(&self, u: f64, mu_s: f64, mu_d: f64, t_k: f64) -> f64 {
        let mut n = 0.0;
        let mut p = 0.0;
        let de = 0.02;
        for &en in &self.subbands {
            // Integrate the 1D DOS up to where the Fermi factors die.
            let e_top = en + 1.0;
            let mut eps = en + 0.5 * de;
            while eps < e_top {
                let dos = 2.0 / (std::f64::consts::PI * HBAR_VFERMI_EV_NM) * eps
                    / (eps * eps - en * en).sqrt();
                let fe = 0.5 * (fermi(u + eps, mu_s, t_k) + fermi(u + eps, mu_d, t_k));
                let fh =
                    0.5 * ((1.0 - fermi(u - eps, mu_s, t_k)) + (1.0 - fermi(u - eps, mu_d, t_k)));
                n += dos * fe * de;
                p += dos * fh * de;
                eps += de;
            }
        }
        p - n
    }

    /// Transmission of one subband at energy `e` through profile `u`:
    /// WKB tunneling through classically forbidden segments
    /// (`|E−U| < E_n`, complex band `κ = √(E_n²−(E−U)²)/ħv_F`) combined
    /// incoherently with wave-vector-mismatch reflection between adjacent
    /// propagating segments (`T_step = 4k₁k₂/(k₁+k₂)²`). The mismatch term
    /// captures quantum reflection off sharp potential *wells* (e.g. a +q
    /// impurity footprint), which plain WKB would pass with T = 1.
    fn wkb_transmission(&self, e: f64, u: &[f64], en: f64) -> f64 {
        let dx = self.responses.x_step_nm;
        let hv = HBAR_VFERMI_EV_NM;
        let mut action = 0.0;
        let mut seg_action = 0.0;
        let mut seg_len = 0.0;
        let mut mismatch = 1.0;
        let mut prev_k: Option<f64> = None;
        for &ui in u {
            let d = e - ui;
            let k2 = d * d - en * en;
            if k2 < 0.0 {
                // Forbidden segment: accumulate tunneling action.
                seg_action += (-k2).sqrt() / hv * dx;
                seg_len += dx;
                prev_k = None;
            } else {
                if seg_len > 0.0 {
                    action += segment_alpha(seg_len) * seg_action;
                    seg_action = 0.0;
                    seg_len = 0.0;
                }
                let k = k2.sqrt() / hv;
                if let Some(kp) = prev_k {
                    let denom = (kp + k) * (kp + k);
                    if denom > 0.0 {
                        mismatch *= 4.0 * kp * k / denom;
                    }
                }
                prev_k = Some(k);
            }
        }
        if seg_len > 0.0 {
            action += segment_alpha(seg_len) * seg_action;
        }
        mismatch * (-2.0 * action).exp()
    }

    /// Drain current \[A\] at gate voltage `v_g` and drain voltage `v_d`
    /// (source grounded). Positive current flows into the drain.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for non-finite bias input.
    pub fn drain_current(&self, v_g: f64, v_d: f64) -> Result<f64, DeviceError> {
        self.current_with(v_g, &self.drain_column(v_d)?)
    }

    fn current_with(&self, v_g: f64, col: &DrainColumn) -> Result<f64, DeviceError> {
        let u = self.profile_with(v_g, col)?;
        Ok(self.current_from_profile(&u, col.v_d))
    }

    fn current_from_profile(&self, u: &[f64], v_d: f64) -> f64 {
        let mu_s = 0.0f64;
        let mu_d = -v_d;
        let kt = self.cfg.temperature_k;
        let pad = WINDOW_KT * gnr_num::consts::K_B_EV * kt;
        let (lo, hi) = (mu_s.min(mu_d) - pad, mu_s.max(mu_d) + pad);
        let steps = ((hi - lo) / ENERGY_STEP).ceil() as usize + 1;
        let de = (hi - lo) / (steps - 1).max(1) as f64;
        let mut integral = 0.0;
        for s in 0..steps {
            let e = lo + s as f64 * de;
            let window = fermi(e, mu_s, kt) - fermi(e, mu_d, kt);
            if window.abs() < 1e-12 {
                continue;
            }
            let mut t_total = 0.0;
            for &en in &self.subbands {
                t_total += self.wkb_transmission(e, u, en);
            }
            let weight = if s == 0 || s == steps - 1 { 0.5 } else { 1.0 };
            integral += weight * t_total * window * de;
        }
        G_QUANTUM * integral
    }

    /// Net mobile channel charge \[C\] (positive for hole accumulation).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for non-finite bias input.
    pub fn channel_charge(&self, v_g: f64, v_d: f64) -> Result<f64, DeviceError> {
        let col = self.drain_column(v_d)?;
        let u = self.profile_with(v_g, &col)?;
        Ok(self.charge_from_profile(&u, &col))
    }

    fn charge_from_profile(&self, u: &[f64], col: &DrainColumn) -> f64 {
        let dx = self.responses.x_step_nm;
        let total_q: f64 = u.iter().map(|&ui| col.density.eval(ui) * dx).sum();
        total_q * Q_E
    }

    /// Evaluates drain current \[A\] and channel charge \[C\] together,
    /// sharing the (dominant-cost) self-consistent potential profile —
    /// the fast path for lookup-table construction.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for non-finite bias input.
    pub fn evaluate(&self, v_g: f64, v_d: f64) -> Result<(f64, f64), DeviceError> {
        self.evaluate_with(v_g, &self.drain_column(v_d)?)
    }

    /// [`evaluate`](Self::evaluate) at gate voltage `v_g` against a
    /// prebuilt drain-bias column: bit-identical to
    /// `evaluate(v_g, v_d)` for the column's `v_d`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for a non-finite `v_g`.
    pub(crate) fn evaluate_with(
        &self,
        v_g: f64,
        col: &DrainColumn,
    ) -> Result<(f64, f64), DeviceError> {
        let u = self.profile_with(v_g, col)?;
        Ok((
            self.current_from_profile(&u, col.v_d),
            self.charge_from_profile(&u, col),
        ))
    }

    /// Conduction-band-edge profile `E_C(x)` in eV along the channel
    /// (the paper's Fig. 5(a) diagnostic): `U(x) + E_g/2`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for non-finite bias input.
    pub fn conduction_band_profile(
        &self,
        v_g: f64,
        v_d: f64,
    ) -> Result<Vec<(f64, f64)>, DeviceError> {
        let u = self.potential_profile(v_g, v_d)?;
        let half_gap = self.subbands[0];
        let dx = self.responses.x_step_nm;
        Ok(u.iter()
            .enumerate()
            .map(|(i, &ui)| ((i as f64 + 0.5) * dx, ui + half_gap))
            .collect())
    }

    /// The gate voltage of minimum leakage at drain bias `v_d` — the
    /// paper's §2 observation that the ambipolar minimum sits near
    /// `V_G ≈ V_D/2`; located by golden-section search.
    ///
    /// # Errors
    ///
    /// Propagates current-evaluation failures.
    pub fn minimum_leakage_vg(&self, v_d: f64) -> Result<f64, DeviceError> {
        // Every probe shares the drain bias: one column per search.
        let col = self.drain_column(v_d)?;
        let current = |v_g: f64| self.current_with(v_g, &col);
        let mut a = -0.2;
        let mut b = v_d + 0.2;
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let mut x1 = b - phi * (b - a);
        let mut x2 = a + phi * (b - a);
        let mut f1 = current(x1)?;
        let mut f2 = current(x2)?;
        for _ in 0..40 {
            if f1 < f2 {
                b = x2;
                x2 = x1;
                f2 = f1;
                x1 = b - phi * (b - a);
                f1 = current(x1)?;
            } else {
                a = x1;
                x1 = x2;
                f1 = f2;
                x2 = a + phi * (b - a);
                f2 = current(x2)?;
            }
            if (b - a).abs() < 1e-3 {
                break;
            }
        }
        Ok(0.5 * (a + b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize) -> SbfetModel {
        SbfetModel::new(&DeviceConfig::test_small(n).unwrap()).unwrap()
    }

    #[test]
    fn subbands_and_gap() {
        let m = model(12);
        assert_eq!(m.subband_edges().len(), SUBBANDS);
        assert!(m.band_gap() > 0.4 && m.band_gap() < 0.8);
    }

    #[test]
    fn ambipolar_minimum_near_half_vd() {
        let m = model(12);
        let vmin = m.minimum_leakage_vg(0.5).unwrap();
        assert!(
            (vmin - 0.25).abs() < 0.12,
            "ambipolar minimum at {vmin}, expected ~0.25"
        );
    }

    #[test]
    fn on_current_magnitude_reasonable() {
        // Paper: N=12 at VG = VD = 0.5 V carries ~6-9 uA per ribbon
        // (6300 uA/um x ~1.35 nm). Accept a generous band around that.
        let m = model(12);
        let i_on = m.drain_current(0.5, 0.5).unwrap();
        assert!(
            i_on > 1e-6 && i_on < 4e-5,
            "I_on = {i_on:.3e} A out of expected range"
        );
    }

    #[test]
    fn min_leakage_increases_exponentially_with_vd() {
        // Paper Fig. 2(a): drain voltage exponentially increases the
        // minimum leakage current.
        let m = model(12);
        let i1 = m
            .drain_current(m.minimum_leakage_vg(0.25).unwrap(), 0.25)
            .unwrap();
        let i2 = m
            .drain_current(m.minimum_leakage_vg(0.5).unwrap(), 0.5)
            .unwrap();
        let i3 = m
            .drain_current(m.minimum_leakage_vg(0.75).unwrap(), 0.75)
            .unwrap();
        assert!(i2 > 2.0 * i1, "{i1:.3e} {i2:.3e}");
        assert!(i3 > 2.0 * i2, "{i2:.3e} {i3:.3e}");
    }

    #[test]
    fn narrower_ribbon_better_onoff() {
        // Paper Fig. 4: N=9 has I_on/I_off ~ 1000x; N=18's gap is too small.
        let on_off = |n: usize| {
            let m = model(n);
            let vd = 0.5;
            let i_on = m.drain_current(0.75, vd).unwrap();
            let i_off = m
                .drain_current(m.minimum_leakage_vg(vd).unwrap(), vd)
                .unwrap();
            i_on / i_off
        };
        let r9 = on_off(9);
        let r18 = on_off(18);
        assert!(r9 > 20.0 * r18, "on/off N9 {r9:.1} vs N18 {r18:.1}");
        assert!(r9 > 100.0, "N=9 on/off {r9:.1}");
    }

    #[test]
    fn current_increases_with_vg_in_ntype_branch() {
        let m = model(12);
        let vd = 0.5;
        let i1 = m.drain_current(0.45, vd).unwrap();
        let i2 = m.drain_current(0.6, vd).unwrap();
        let i3 = m.drain_current(0.75, vd).unwrap();
        assert!(i3 > i2 && i2 > i1);
    }

    #[test]
    fn hole_branch_rises_at_low_vg() {
        let m = model(12);
        let vd = 0.5;
        let i_min = m
            .drain_current(m.minimum_leakage_vg(vd).unwrap(), vd)
            .unwrap();
        let i_low = m.drain_current(-0.2, vd).unwrap();
        assert!(
            i_low > 3.0 * i_min,
            "hole branch {i_low:.3e} vs min {i_min:.3e}"
        );
    }

    #[test]
    fn charge_sign_tracks_gate() {
        let m = model(12);
        // Strong n-branch: electron accumulation -> negative net charge.
        let q_n = m.channel_charge(0.75, 0.1).unwrap();
        // Strong p-branch: hole accumulation -> positive net charge.
        let q_p = m.channel_charge(-0.5, 0.1).unwrap();
        assert!(q_n < 0.0, "q_n = {q_n:.3e}");
        assert!(q_p > 0.0, "q_p = {q_p:.3e}");
    }

    #[test]
    fn gate_offset_shifts_iv_curve() {
        // Paper Fig. 2(b): a work-function offset translates the I-V curve
        // along V_G.
        let cfg = DeviceConfig::test_small(12).unwrap();
        let base = SbfetModel::new(&cfg).unwrap();
        let mut cfg2 = cfg.clone();
        cfg2.gate_offset_v = 0.2;
        let shifted = SbfetModel::new(&cfg2).unwrap();
        for vg in [0.1, 0.3, 0.5] {
            let a = base.drain_current(vg + 0.2, 0.5).unwrap();
            let b = shifted.drain_current(vg, 0.5).unwrap();
            assert!(
                (a - b).abs() / a.max(b) < 0.02,
                "offset equivalence at vg={vg}: {a:.3e} vs {b:.3e}"
            );
        }
    }

    #[test]
    fn band_profile_has_schottky_barriers() {
        let m = model(12);
        let prof = m.conduction_band_profile(0.5, 0.5).unwrap();
        let half_gap = m.band_gap() / 2.0;
        // At the source face the conduction band is pinned at Eg/2 exactly;
        // mid-channel the gate pulls it far below.
        let first = prof.first().unwrap().1;
        let mid = prof[prof.len() / 2].1;
        assert!(
            (first - half_gap).abs() < 1e-9,
            "pinned barrier {first} vs {half_gap}"
        );
        assert!(mid < 0.0, "mid-channel band edge {mid}");
        assert!(first > mid + 0.15, "barrier must dominate mid-channel");
    }

    #[test]
    fn rejects_non_finite_bias() {
        let m = model(9);
        assert!(m.drain_current(f64::NAN, 0.5).is_err());
        assert!(m.channel_charge(0.1, f64::INFINITY).is_err());
        assert!(m.evaluate(0.1, f64::NAN).is_err());
        assert!(m.drain_column(f64::NEG_INFINITY).is_err());
        // Finite, but the column's energy span overflows.
        assert!(m.drain_column(f64::MAX).is_err());
        let col = m.drain_column(0.5).unwrap();
        assert!(m.evaluate_with(f64::INFINITY, &col).is_err());
        assert!(m.minimum_leakage_vg(f64::NAN).is_err());
    }

    #[test]
    fn profiles_reject_non_finite_bias() {
        let m = model(9);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (v_g, v_d) in [(bad, 0.5), (0.3, bad)] {
                let at = format!("({v_g}, {v_d})");
                assert!(
                    matches!(
                        m.potential_profile(v_g, v_d),
                        Err(DeviceError::Config { .. })
                    ),
                    "potential_profile{at}"
                );
                assert!(
                    matches!(
                        m.conduction_band_profile(v_g, v_d),
                        Err(DeviceError::Config { .. })
                    ),
                    "conduction_band_profile{at}"
                );
            }
        }
    }

    /// A prebuilt drain-bias column reproduces `evaluate` bit for bit, on
    /// and off the library's bias nodes, with and without an impurity
    /// footprint; `drain_current` and `channel_charge` return the same
    /// bits as the fused call.
    #[test]
    fn column_evaluation_is_bit_identical_to_evaluate() {
        let plain = model(12);
        let charged = plain
            .with_added_impurities(&[ChargeImpurity::near_source(1.0)])
            .unwrap();
        // The Fast library grid: V_GS −0.35…1.0 V, V_DS 0…0.85 V, 21 nodes.
        let node = |lo: f64, hi: f64, k: usize| lo + (hi - lo) * k as f64 / 20.0;
        let mut rng = gnr_num::Rng::seed_from_u64(0xc01_0b1a5);
        let mut points = 0;
        for m in [&plain, &charged] {
            for c in 0..40 {
                // Even columns sit on a V_DS node, odd ones anywhere.
                let vd = if c % 2 == 0 {
                    node(0.0, 0.85, rng.below(21))
                } else {
                    rng.uniform_in(-0.2, 1.0)
                };
                let col = m.drain_column(vd).unwrap();
                for k in 0..25 {
                    let vg = if k % 2 == 0 {
                        node(-0.35, 1.0, rng.below(21))
                    } else {
                        rng.uniform_in(-0.6, 1.2)
                    };
                    let (i, q) = m.evaluate(vg, vd).unwrap();
                    let (ic, qc) = m.evaluate_with(vg, &col).unwrap();
                    assert_eq!(i.to_bits(), ic.to_bits(), "current at ({vg}, {vd})");
                    assert_eq!(q.to_bits(), qc.to_bits(), "charge at ({vg}, {vd})");
                    if k == 0 {
                        assert_eq!(m.drain_current(vg, vd).unwrap().to_bits(), i.to_bits());
                        assert_eq!(m.channel_charge(vg, vd).unwrap().to_bits(), q.to_bits());
                    }
                    points += 1;
                }
            }
        }
        assert_eq!(points, 2000);
    }

    /// Impurities added to a built model land exactly where building with
    /// them from scratch puts them.
    #[test]
    fn added_impurities_match_a_fresh_build() {
        let cfg = DeviceConfig::test_small(9).unwrap();
        let imps = [
            ChargeImpurity::near_source(-1.0),
            ChargeImpurity::near_source(2.0),
        ];
        let fresh = SbfetModel::with_impurities(&cfg, &imps).unwrap();
        let staged = SbfetModel::new(&cfg)
            .unwrap()
            .with_added_impurities(&imps[..1])
            .unwrap()
            .with_added_impurities(&imps[1..])
            .unwrap();
        assert_eq!(format!("{fresh:?}"), format!("{staged:?}"));
    }
}
