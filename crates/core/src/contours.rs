//! Design-space exploration over `(V_DD, V_T)` — the paper's Fig. 3(b).
//!
//! For every grid point the nominal device tables are re-targeted to the
//! requested threshold voltage via gate-offset engineering (§2), the FO4
//! inverter is measured, and the 15-stage ring-oscillator frequency and EDP
//! are derived. The resulting maps support the paper's operating-point
//! methodology: point A (minimum EDP at a target frequency), point B
//! (minimum EDP at a target frequency *and* SNM), and point C (an
//! equal-EDP/SNM point at higher V_T whose frequency is inferior —
//! illustrating that raising V_T does not buy robustness in GNRFET
//! circuits).

use crate::devices::{DeviceLibrary, DeviceVariant};
use crate::error::ExploreError;
use gnr_device::extract_vt;
use gnr_num::par::ExecCtx;
use gnr_spice::builders::{ExtrinsicParasitics, InverterCell};
use gnr_spice::measure::{
    butterfly_snm, estimate_oscillator_from_inverter, fo4_metrics_for_cell, inverter_vtc,
};

/// One evaluated design point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignPoint {
    /// Supply voltage \[V\].
    pub vdd: f64,
    /// Threshold voltage \[V\].
    pub vt: f64,
    /// 15-stage FO4 ring-oscillator frequency \[Hz\].
    pub frequency_hz: f64,
    /// Energy-delay product per stage \[J·s\].
    pub edp_js: f64,
    /// Inverter butterfly SNM \[V\].
    pub snm_v: f64,
    /// Inverter static power \[W\].
    pub static_w: f64,
    /// Oscillator dynamic power \[W\].
    pub dynamic_w: f64,
}

/// The full exploration map.
#[derive(Clone, Debug)]
pub struct DesignSpaceMap {
    /// V_DD axis values \[V\].
    pub vdd_axis: Vec<f64>,
    /// V_T axis values \[V\].
    pub vt_axis: Vec<f64>,
    /// Points, row-major (`vdd` outer, `vt` inner); `None` where the
    /// operating point is infeasible (e.g. V_T ≥ V_DD).
    pub points: Vec<Option<DesignPoint>>,
    /// The raw (unshifted) table's extracted threshold voltage \[V\].
    pub vt_raw: f64,
}

impl DesignSpaceMap {
    /// Point lookup.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn at(&self, i_vdd: usize, i_vt: usize) -> Option<&DesignPoint> {
        self.points[i_vdd * self.vt_axis.len() + i_vt].as_ref()
    }

    /// All feasible points.
    pub fn feasible(&self) -> impl Iterator<Item = &DesignPoint> {
        self.points.iter().flatten()
    }

    /// Minimum-EDP point subject to a frequency floor (point A of the
    /// paper when only performance is constrained).
    pub fn point_min_edp(&self, min_freq_hz: f64) -> Option<DesignPoint> {
        self.feasible()
            .filter(|p| p.frequency_hz >= min_freq_hz)
            .min_by(|a, b| a.edp_js.total_cmp(&b.edp_js))
            .copied()
    }

    /// Minimum-EDP point subject to frequency and SNM floors (point B).
    pub fn point_min_edp_with_snm(&self, min_freq_hz: f64, min_snm_v: f64) -> Option<DesignPoint> {
        self.feasible()
            .filter(|p| p.frequency_hz >= min_freq_hz && p.snm_v >= min_snm_v)
            .min_by(|a, b| a.edp_js.total_cmp(&b.edp_js))
            .copied()
    }

    /// An alternative point with EDP and SNM within `tol_frac` of a
    /// reference point but strictly higher V_T — the paper's point C,
    /// demonstrating that trading V_T for robustness costs frequency.
    pub fn point_same_edp_higher_vt(
        &self,
        reference: &DesignPoint,
        tol_frac: f64,
    ) -> Option<DesignPoint> {
        self.feasible()
            .filter(|p| {
                p.vt > reference.vt + 1e-9
                    && p.frequency_hz < reference.frequency_hz
                    && (p.edp_js - reference.edp_js).abs() <= tol_frac * reference.edp_js
                    && (p.snm_v - reference.snm_v).abs() <= tol_frac * reference.snm_v.max(1e-6)
            })
            .max_by(|a, b| a.vt.total_cmp(&b.vt))
            .copied()
    }

    /// Renders one quantity as an ASCII grid (rows = V_DD descending,
    /// columns = V_T ascending), for the regeneration binaries.
    pub fn render(&self, quantity: impl Fn(&DesignPoint) -> f64, label: &str) -> String {
        let mut out = format!("{label}  (rows: V_DD desc, cols: V_T asc)\n        ");
        for vt in &self.vt_axis {
            out.push_str(&format!("{vt:>9.3}"));
        }
        out.push('\n');
        for (i, vdd) in self.vdd_axis.iter().enumerate().rev() {
            out.push_str(&format!("{vdd:>7.3} "));
            for j in 0..self.vt_axis.len() {
                match self.at(i, j) {
                    Some(p) => out.push_str(&format!("{:>9.3}", quantity(p))),
                    None => out.push_str(&format!("{:>9}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Helper combining the two per-point measurements so either failure mode
/// can mark the point infeasible.
fn fo4_and_vtc(
    cell: &InverterCell,
    vdd: f64,
) -> Result<(gnr_spice::measure::InverterMetrics, Vec<(f64, f64)>), gnr_spice::SpiceError> {
    let inv = fo4_metrics_for_cell(cell, vdd)?;
    let vtc = inverter_vtc(cell, vdd, 33)?;
    Ok((inv, vtc))
}

/// Computes the design-space map for the nominal device over the given
/// axes, using `stages`-stage ring-oscillator estimates derived from FO4
/// inverter transients.
///
/// The grid points fan out over `ctx`'s pool, and each probes `ctx`'s
/// execution limits before it simulates.
///
/// # Errors
///
/// Propagates device and circuit failures, and budget/cancellation stops.
pub fn design_space_map(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    vdd_axis: &[f64],
    vt_axis: &[f64],
    stages: usize,
) -> Result<DesignSpaceMap, ExploreError> {
    let raw_n = lib.ntype_table(ctx, DeviceVariant::nominal())?;
    // Extract the raw threshold voltage at low drain bias (paper Fig. 2b).
    let iv: Vec<(f64, f64)> = (0..60)
        .map(|i| {
            let vg = i as f64 * 0.015;
            (vg, raw_n.current(vg, 0.05))
        })
        .collect();
    let vt_raw = extract_vt(&iv)?;
    let parasitics = ExtrinsicParasitics::nominal();
    // Grid points are independent: fan them over the pool row-major and
    // merge in index order, so the map is bit-identical at any pool size
    // and a fatal error is the one the serial loop would hit first.
    let points = ctx.try_par_map_indexed(vdd_axis.len() * vt_axis.len(), |i| {
        ctx.check_budget("contour.point")?;
        let (vdd, vt) = (vdd_axis[i / vt_axis.len()], vt_axis[i % vt_axis.len()]);
        if vt >= 0.75 * vdd || vdd <= 0.05 {
            return Ok(None);
        }
        let shift = vt - vt_raw;
        let n = raw_n.with_vg_shift(shift);
        let p = n.mirrored();
        let cell = InverterCell::new(&n, &p, &parasitics)?;
        match fo4_and_vtc(&cell, vdd) {
            Ok((inv, vtc)) => {
                let snm = butterfly_snm(&vtc, &vtc, vdd).snm();
                let ro = estimate_oscillator_from_inverter(&inv, stages);
                Ok(Some(DesignPoint {
                    vdd,
                    vt,
                    frequency_hz: ro.frequency_hz,
                    edp_js: ro.edp_js,
                    snm_v: snm,
                    static_w: inv.static_power_w,
                    dynamic_w: ro.dynamic_power_w,
                }))
            }
            // Corners where the inverter cannot switch, or where the
            // over-shifted tables defeat Newton, are infeasible rather
            // than fatal.
            Err(gnr_spice::SpiceError::Measurement { .. })
            | Err(gnr_spice::SpiceError::NewtonDiverged { .. })
            | Err(gnr_spice::SpiceError::RescueChainFailed { .. }) => Ok(None),
            Err(e) => Err(ExploreError::from(e)),
        }
    })?;
    Ok(DesignSpaceMap {
        vdd_axis: vdd_axis.to_vec(),
        vt_axis: vt_axis.to_vec(),
        points,
        vt_raw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Fidelity;

    fn tiny_map() -> DesignSpaceMap {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        design_space_map(
            &ExecCtx::serial(),
            &mut lib,
            &[0.3, 0.45],
            &[0.08, 0.16],
            15,
        )
        .unwrap()
    }

    #[test]
    fn map_has_feasible_points() {
        let map = tiny_map();
        assert!(map.feasible().count() >= 3, "{:?}", map.points.len());
        assert!(
            map.vt_raw > 0.1 && map.vt_raw < 0.6,
            "vt_raw {}",
            map.vt_raw
        );
    }

    #[test]
    fn higher_vdd_is_faster() {
        let map = tiny_map();
        let slow = map.at(0, 0).unwrap();
        let fast = map.at(1, 0).unwrap();
        assert!(
            fast.frequency_hz > slow.frequency_hz,
            "{:.3e} vs {:.3e}",
            fast.frequency_hz,
            slow.frequency_hz
        );
    }

    #[test]
    fn higher_vt_cuts_static_power() {
        let map = tiny_map();
        let low_vt = map.at(1, 0).unwrap();
        let high_vt = map.at(1, 1).unwrap();
        assert!(
            high_vt.static_w < low_vt.static_w,
            "{:.3e} vs {:.3e}",
            high_vt.static_w,
            low_vt.static_w
        );
    }

    #[test]
    fn point_selection_respects_constraints() {
        let map = tiny_map();
        let all_freqs: Vec<f64> = map.feasible().map(|p| p.frequency_hz).collect();
        let fmax = all_freqs.iter().copied().fold(0.0, f64::max);
        let a = map.point_min_edp(fmax * 0.5).unwrap();
        assert!(a.frequency_hz >= fmax * 0.5);
        // Unsatisfiable constraint -> None.
        assert!(map.point_min_edp(fmax * 10.0).is_none());
        assert!(map.point_min_edp_with_snm(0.0, 10.0).is_none());
    }

    #[test]
    fn render_contains_axes() {
        let map = tiny_map();
        let s = map.render(|p| p.frequency_hz / 1e9, "freq (GHz)");
        assert!(s.contains("freq"));
        assert!(s.contains("0.450") || s.contains("0.45"));
    }
}
