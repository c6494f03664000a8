//! Inverter sensitivity studies — the machinery behind Tables 2, 3, and 4.
//!
//! Each study cell pairs a p-device variant with an n-device variant,
//! builds the FO4 inverter at the paper's operating point
//! (V_DD = 0.4 V, V_T = 0.13 V via gate-offset engineering), and measures
//! delay, static power, dynamic power, and butterfly SNM. Results carry
//! both array scenarios (one-of-four and all-four ribbons affected), and
//! render as the paper's "x,y %" cells.

use crate::devices::{ArrayScenario, DeviceLibrary, DeviceVariant};
use crate::error::ExploreError;
use gnr_device::DeviceTable;
use gnr_num::par::ExecCtx;
use gnr_spice::builders::{ExtrinsicParasitics, InverterCell};
use gnr_spice::measure::{butterfly_snm, fo4_metrics_for_cell, inverter_vtc};
use std::fmt;

/// Full figure-of-merit set of one inverter configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InverterFigures {
    /// FO4 propagation delay \[s\].
    pub delay_s: f64,
    /// Static (leakage) power \[W\].
    pub static_w: f64,
    /// Dynamic power at the study's reference frequency \[W\].
    pub dynamic_w: f64,
    /// Switching energy per cycle \[J\].
    pub energy_j: f64,
    /// Butterfly static noise margin of the inverter against itself \[V\].
    pub snm_v: f64,
}

/// Measures one inverter configuration: `n_variant`/`p_variant` device
/// tables, shifted by `vg_shift` (the V_T-engineering offset, applied
/// identically to both polarities), at supply `vdd`.
///
/// The dynamic power is referenced to `f_ref` (pass the nominal
/// ring-oscillator frequency so variants are compared at equal activity,
/// as the paper does); pass `None` to use the raw measurement frequency.
///
/// # Errors
///
/// Propagates table construction and circuit analysis failures.
pub fn inverter_figures(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    vdd: f64,
    vg_shift: f64,
    f_ref: Option<f64>,
) -> Result<InverterFigures, ExploreError> {
    let n = lib.ntype_table(ctx, n_variant)?.with_vg_shift(vg_shift);
    let p = lib.ptype_table(ctx, p_variant)?.with_vg_shift(vg_shift);
    inverter_figures_from_tables(&n, &p, vdd, f_ref)
}

/// Measures one inverter built from already-shifted device tables — the
/// table-free tail of [`inverter_figures`]. Because it borrows only
/// immutable tables, callers holding pre-warmed `Arc<DeviceTable>`s (the
/// Monte Carlo universe characterization) can fan cells out across a
/// thread pool without contending on the [`DeviceLibrary`].
///
/// # Errors
///
/// Propagates circuit analysis failures.
pub fn inverter_figures_from_tables(
    n: &DeviceTable,
    p: &DeviceTable,
    vdd: f64,
    f_ref: Option<f64>,
) -> Result<InverterFigures, ExploreError> {
    let parasitics = ExtrinsicParasitics::nominal();
    let cell = InverterCell::new(n, p, &parasitics)?;
    // Extreme-skew corners can defeat the DC solver outright (the ratioed
    // fight between a leaky wide pull-up and a weak narrow pull-down has
    // near-zero gain margins); record those as non-functional cells.
    let vtc = match inverter_vtc(&cell, vdd, 41) {
        Ok(v) => v,
        Err(gnr_spice::SpiceError::NewtonDiverged { .. })
        | Err(gnr_spice::SpiceError::RescueChainFailed { .. }) => {
            // The rail operating points (vin at 0 and vdd) are far from the
            // high-gain transition that defeated the sweep, so leakage is
            // usually still measurable; if even that diverges, follow the
            // dead-cell convention (leakage unknown contributes none) — a
            // NaN here would poison the Monte Carlo static-power mean
            // through the stalled-ring leakage sum.
            let static_w = gnr_spice::measure::inverter_static_power(&cell, vdd).unwrap_or(0.0);
            return Ok(InverterFigures {
                delay_s: f64::NAN,
                static_w,
                dynamic_w: f64::NAN,
                energy_j: f64::NAN,
                snm_v: 0.0,
            });
        }
        Err(e) => return Err(e.into()),
    };
    let snm = butterfly_snm(&vtc, &vtc, vdd).snm();
    // Worst-case variation corners can break the ratioed logic levels
    // outright (the SBFET potential-divider effect): the output never
    // crosses mid-rail, so timing is undefined. Record those cells as
    // non-functional (NaN delay/energy) instead of failing the study —
    // the SNM (≈ 0) and leakage remain meaningful.
    let v_oh = vtc.first().map_or(0.0, |p| p.1);
    let v_ol = vtc.last().map_or(vdd, |p| p.1);
    if v_oh < 0.6 * vdd || v_ol > 0.4 * vdd {
        let static_w =
            gnr_spice::measure::inverter_static_power(&cell, vdd).map_err(ExploreError::from)?;
        return Ok(InverterFigures {
            delay_s: f64::NAN,
            static_w,
            dynamic_w: f64::NAN,
            energy_j: f64::NAN,
            snm_v: snm,
        });
    }
    let m = fo4_metrics_for_cell(&cell, vdd)?;
    let dynamic_w = match f_ref {
        Some(f) => m.energy_per_cycle_j * f,
        None => m.dynamic_power_w,
    };
    Ok(InverterFigures {
        delay_s: m.delay_s,
        static_w: m.static_power_w,
        dynamic_w,
        energy_j: m.energy_per_cycle_j,
        snm_v: snm,
    })
}

/// One table cell: both array scenarios of the same variant pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioPair {
    /// One of the four ribbons affected.
    pub one: InverterFigures,
    /// All four ribbons affected.
    pub all: InverterFigures,
}

/// A full sensitivity table (paper Tables 2–4): p-variants on rows,
/// n-variants on columns.
#[derive(Clone, Debug)]
pub struct VariabilityTable {
    /// Measured nominal reference.
    pub nominal: InverterFigures,
    /// Row (p-device) labels.
    pub row_labels: Vec<String>,
    /// Column (n-device) labels.
    pub col_labels: Vec<String>,
    /// Cells, row-major.
    pub cells: Vec<ScenarioPair>,
    /// Supply voltage of the study \[V\].
    pub vdd: f64,
}

/// The metric rendered by [`VariabilityTable::render`].
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Metric {
    /// Propagation delay.
    Delay,
    /// Static power.
    StaticPower,
    /// Dynamic power.
    DynamicPower,
    /// Static noise margin.
    Snm,
}

impl VariabilityTable {
    /// Cell lookup.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn cell(&self, row: usize, col: usize) -> &ScenarioPair {
        &self.cells[row * self.col_labels.len() + col]
    }

    /// Percentage change of `metric` vs nominal for a scenario pair,
    /// returned as `(one_of_four_pct, all_four_pct)`.
    pub fn delta_pct(&self, row: usize, col: usize, metric: Metric) -> (f64, f64) {
        let pick = |m: &InverterFigures| match metric {
            Metric::Delay => m.delay_s,
            Metric::StaticPower => m.static_w,
            Metric::DynamicPower => m.dynamic_w,
            Metric::Snm => m.snm_v,
        };
        let base = pick(&self.nominal);
        let cell = self.cell(row, col);
        (
            100.0 * (pick(&cell.one) - base) / base,
            100.0 * (pick(&cell.all) - base) / base,
        )
    }

    /// Renders the table for one metric in the paper's "one,all" percent
    /// format.
    pub fn render(&self, metric: Metric) -> String {
        let mut out = String::new();
        let title = match metric {
            Metric::Delay => "Delay (%)",
            Metric::StaticPower => "Static power (%)",
            Metric::DynamicPower => "Dynamic power (%)",
            Metric::Snm => "SNM (%)",
        };
        out.push_str(&format!("{title}  [cell = one-of-4, all-4]\n"));
        out.push_str(&format!("{:>12} |", "p \\ n"));
        for c in &self.col_labels {
            out.push_str(&format!(" {c:>13} |"));
        }
        out.push('\n');
        for (r, rl) in self.row_labels.iter().enumerate() {
            out.push_str(&format!("{rl:>12} |"));
            for c in 0..self.col_labels.len() {
                let (one, all) = self.delta_pct(r, c, metric);
                let fmt = |v: f64| {
                    if v.is_finite() {
                        format!("{v:>6.0}")
                    } else {
                        // Non-functional cell: the inverter's logic levels
                        // collapsed under this variation combination.
                        format!("{:>6}", "dead")
                    }
                };
                out.push_str(&format!(" {},{} |", fmt(one), fmt(all)));
            }
            out.push('\n');
        }
        out
    }

    /// Extreme values of `(one, all)` percentage deltas across all cells —
    /// the paper's "x–y %" summary ranges.
    pub fn delta_range(&self, metric: Metric) -> ((f64, f64), (f64, f64)) {
        let mut one = (f64::INFINITY, f64::NEG_INFINITY);
        let mut all = (f64::INFINITY, f64::NEG_INFINITY);
        for r in 0..self.row_labels.len() {
            for c in 0..self.col_labels.len() {
                let (o, a) = self.delta_pct(r, c, metric);
                // Non-functional cells (NaN) are excluded from the ranges.
                if o.is_finite() {
                    one = (one.0.min(o), one.1.max(o));
                }
                if a.is_finite() {
                    all = (all.0.min(a), all.1.max(a));
                }
            }
        }
        (one, all)
    }
}

impl fmt::Display for VariabilityTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in [
            Metric::Delay,
            Metric::StaticPower,
            Metric::DynamicPower,
            Metric::Snm,
        ] {
            writeln!(f, "{}", self.render(m))?;
        }
        Ok(())
    }
}

/// Builds a sensitivity table over explicit variant axes. Axis entries are
/// `(label, n_index, charge_q)`; the scenario dimension is added
/// internally.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn variability_table(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    p_axis: &[(String, usize, f64)],
    n_axis: &[(String, usize, f64)],
    vdd: f64,
) -> Result<VariabilityTable, ExploreError> {
    let shift = lib.min_leakage_shift(vdd)?;
    let nominal = inverter_figures(
        ctx,
        lib,
        DeviceVariant::nominal(),
        DeviceVariant::nominal(),
        vdd,
        shift,
        None,
    )?;
    // Reference frequency: nominal 15-stage RO estimate.
    let f_ref = 1.0 / (2.0 * 15.0 * nominal.delay_s);
    // Re-measure nominal dynamic power at f_ref for consistent baselines.
    let nominal = InverterFigures {
        dynamic_w: nominal.energy_j * f_ref,
        ..nominal
    };
    let mut cells = Vec::with_capacity(p_axis.len() * n_axis.len());
    for (_, pn, pq) in p_axis {
        for (_, nn, nq) in n_axis {
            let mut pair = [InverterFigures {
                delay_s: 0.0,
                static_w: 0.0,
                dynamic_w: 0.0,
                energy_j: 0.0,
                snm_v: 0.0,
            }; 2];
            for (k, scenario) in ArrayScenario::BOTH.into_iter().enumerate() {
                let nv = DeviceVariant {
                    n: *nn,
                    charge_q: *nq,
                    scenario,
                };
                let pv = DeviceVariant {
                    n: *pn,
                    charge_q: *pq,
                    scenario,
                };
                pair[k] = inverter_figures(ctx, lib, nv, pv, vdd, shift, Some(f_ref))?;
            }
            cells.push(ScenarioPair {
                one: pair[0],
                all: pair[1],
            });
        }
    }
    Ok(VariabilityTable {
        nominal,
        row_labels: p_axis.iter().map(|(l, _, _)| l.clone()).collect(),
        col_labels: n_axis.iter().map(|(l, _, _)| l.clone()).collect(),
        cells,
        vdd,
    })
}

/// Paper Table 2: independent width variations N ∈ {9, 12, 15, 18} on both
/// devices.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn width_variation_table(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    vdd: f64,
) -> Result<VariabilityTable, ExploreError> {
    let axis: Vec<(String, usize, f64)> = [9, 12, 15, 18]
        .into_iter()
        .map(|n| (format!("N={n}"), n, 0.0))
        .collect();
    variability_table(ctx, lib, &axis, &axis, vdd)
}

/// Paper Table 3: independent charge impurities ∈ {−2q, −q, 0, +q, +2q}.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn charge_impurity_table(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    vdd: f64,
) -> Result<VariabilityTable, ExploreError> {
    let axis: Vec<(String, usize, f64)> = [-2.0, -1.0, 0.0, 1.0, 2.0]
        .into_iter()
        .map(|q| (format!("{q:+.0}q"), 12, q))
        .collect();
    // Paper's row order is +2q ... -2q for the p-device; keep ascending and
    // let the renderer label rows explicitly.
    variability_table(ctx, lib, &axis, &axis, vdd)
}

/// Paper Table 4: simultaneous worst-case width and impurity combinations
/// (N, q) ∈ {9, 18} × {−q, +q}.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn combined_table(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    vdd: f64,
) -> Result<VariabilityTable, ExploreError> {
    let mut axis = Vec::new();
    for n in [9usize, 18] {
        for q in [-1.0, 1.0] {
            axis.push((format!("N={n},{q:+.0}q"), n, q));
        }
    }
    variability_table(ctx, lib, &axis, &axis, vdd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Fidelity;

    #[test]
    fn render_formats_cells() {
        let m = InverterFigures {
            delay_s: 1e-11,
            static_w: 1e-7,
            dynamic_w: 5e-7,
            energy_j: 1e-16,
            snm_v: 0.1,
        };
        let t = VariabilityTable {
            nominal: m,
            row_labels: vec!["a".into()],
            col_labels: vec!["b".into()],
            cells: vec![ScenarioPair {
                one: InverterFigures {
                    delay_s: 1.1e-11,
                    ..m
                },
                all: InverterFigures {
                    delay_s: 1.5e-11,
                    ..m
                },
            }],
            vdd: 0.4,
        };
        let (one, all) = t.delta_pct(0, 0, Metric::Delay);
        assert!((one - 10.0).abs() < 1e-9 && (all - 50.0).abs() < 1e-9);
        let rendered = t.render(Metric::Delay);
        assert!(rendered.contains("10"), "{rendered}");
        let ((lo, hi), _) = t.delta_range(Metric::Delay);
        assert!((lo - 10.0).abs() < 1e-9 && (hi - 10.0).abs() < 1e-9);
    }

    /// The core physics claim of Table 2's worst case: a narrow/narrow
    /// (N=9) inverter is slower, a wide/wide (N=18) one leaks far more.
    #[test]
    fn width_extremes_behave_like_paper() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let shift = lib.min_leakage_shift(0.4).unwrap();
        let ctx = ExecCtx::serial();
        let nominal = inverter_figures(
            &ctx,
            &mut lib,
            DeviceVariant::nominal(),
            DeviceVariant::nominal(),
            0.4,
            shift,
            None,
        )
        .unwrap();
        let narrow = inverter_figures(
            &ctx,
            &mut lib,
            DeviceVariant::width(9, ArrayScenario::AllFour),
            DeviceVariant::width(9, ArrayScenario::AllFour),
            0.4,
            shift,
            None,
        )
        .unwrap();
        let wide = inverter_figures(
            &ctx,
            &mut lib,
            DeviceVariant::width(18, ArrayScenario::AllFour),
            DeviceVariant::width(18, ArrayScenario::AllFour),
            0.4,
            shift,
            None,
        )
        .unwrap();
        assert!(
            narrow.delay_s > nominal.delay_s,
            "N=9 slower: {:.2e} vs {:.2e}",
            narrow.delay_s,
            nominal.delay_s
        );
        assert!(
            wide.delay_s < nominal.delay_s,
            "N=18 faster: {:.2e} vs {:.2e}",
            wide.delay_s,
            nominal.delay_s
        );
        assert!(
            wide.static_w > 2.0 * nominal.static_w,
            "N=18 leaks: {:.2e} vs {:.2e}",
            wide.static_w,
            nominal.static_w
        );
        assert!(
            narrow.static_w < nominal.static_w,
            "N=9 leaks less: {:.2e} vs {:.2e}",
            narrow.static_w,
            nominal.static_w
        );
    }
}
