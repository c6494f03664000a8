//! GNRFET vs scaled CMOS — the paper's Table 1.
//!
//! Runs the same 15-stage FO4 ring-oscillator benchmark on GNRFET devices
//! at the selected operating points (A, B, C from the design-space map) and
//! on the CMOS baseline at the 22/32/45 nm nodes for
//! V_DD ∈ {0.8, 0.6, 0.4} V, reporting frequency, EDP, and inverter SNM.

use crate::contours::DesignPoint;
use crate::devices::{DeviceLibrary, DeviceVariant};
use crate::error::ExploreError;
use gnr_cmos::{CmosNode, CmosTransistor};
use gnr_device::{Polarity, TableStore};
use gnr_num::par::ExecCtx;
use gnr_spice::builders::{ExtrinsicParasitics, InverterCell, RingOscillator};
use gnr_spice::measure::{
    butterfly_snm, fo4_metrics_for_cell, inverter_vtc, ring_oscillator_metrics,
};
use std::fmt;

/// One benchmark row of Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Row label ("GNRFET B", "CMOS 22nm @0.8V", ...).
    pub label: String,
    /// Oscillator frequency \[Hz\].
    pub frequency_hz: f64,
    /// Per-stage energy-delay product \[J·s\].
    pub edp_js: f64,
    /// Inverter SNM \[V\].
    pub snm_v: f64,
}

impl fmt::Display for BenchRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:>8.2} GHz {:>12.1} aJ-ps {:>8.3} V",
            self.label,
            self.frequency_hz / 1e9,
            self.edp_js * 1e30,
            self.snm_v
        )
    }
}

/// The assembled comparison.
#[derive(Clone, Debug)]
pub struct ComparisonTable {
    /// GNRFET rows (one per operating point).
    pub gnrfet: Vec<BenchRow>,
    /// CMOS rows (node × supply).
    pub cmos: Vec<BenchRow>,
}

impl ComparisonTable {
    /// The paper's headline: the ratio between the best (lowest) CMOS EDP
    /// and the best GNRFET EDP. The paper reports 40–168×.
    pub fn edp_advantage(&self) -> Option<f64> {
        let g = self
            .gnrfet
            .iter()
            .map(|r| r.edp_js)
            .fold(f64::INFINITY, f64::min);
        let c = self
            .cmos
            .iter()
            .map(|r| r.edp_js)
            .fold(f64::INFINITY, f64::min);
        if g.is_finite() && c.is_finite() && g > 0.0 {
            Some(c / g)
        } else {
            None
        }
    }
}

impl fmt::Display for ComparisonTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>12} {:>18} {:>10}",
            "design", "freq", "EDP", "SNM"
        )?;
        for r in self.gnrfet.iter().chain(self.cmos.iter()) {
            writeln!(f, "{r}")?;
        }
        if let Some(adv) = self.edp_advantage() {
            writeln!(f, "best-CMOS / best-GNRFET EDP = {adv:.1}x")?;
        }
        Ok(())
    }
}

/// Measures a GNRFET ring oscillator at an operating point via the full
/// transient (not the FO4 estimate).
///
/// # Errors
///
/// Propagates construction and measurement failures.
pub fn gnrfet_row(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    label: &str,
    point: &DesignPoint,
    stages: usize,
) -> Result<BenchRow, ExploreError> {
    let raw_n = lib.ntype_table(ctx, DeviceVariant::nominal())?;
    // Re-derive the shift from the map's raw-VT convention: the design
    // point's vt is what extract_vt would report after shifting.
    let iv: Vec<(f64, f64)> = (0..60)
        .map(|i| {
            let vg = i as f64 * 0.015;
            (vg, raw_n.current(vg, 0.05))
        })
        .collect();
    let vt_raw = gnr_device::extract_vt(&iv)?;
    let n = raw_n.with_vg_shift(point.vt - vt_raw);
    let p = n.mirrored();
    let parasitics = ExtrinsicParasitics::nominal();
    let cell = InverterCell::new(&n, &p, &parasitics)?;
    let inv = fo4_metrics_for_cell(&cell, point.vdd)?;
    let ro = RingOscillator::uniform(&cell, stages, point.vdd)?;
    let metrics = ring_oscillator_metrics(&ro, inv.delay_s, inv.static_power_w)?;
    let vtc = inverter_vtc(&cell, point.vdd, 33)?;
    let snm = butterfly_snm(&vtc, &vtc, point.vdd).snm();
    Ok(BenchRow {
        label: label.to_string(),
        frequency_hz: metrics.frequency_hz,
        edp_js: metrics.edp_js,
        snm_v: snm,
    })
}

/// Builds the inverter cell for one CMOS node at a supply voltage; the
/// p-device uses a weaker drive (hole mobility) but the same card family.
///
/// # Errors
///
/// Propagates table-construction failures.
pub fn cmos_cell(node: CmosNode, vdd: f64) -> Result<InverterCell, ExploreError> {
    cmos_cell_with_store(&TableStore::in_memory(), node, vdd)
}

/// [`cmos_cell`] through a shared content-addressed [`TableStore`]: the
/// node/supply tables are cached, so the Table 1 sweep (every node at
/// several supplies) samples each model card once per store lifetime.
///
/// # Errors
///
/// Propagates table-construction failures.
pub fn cmos_cell_with_store(
    store: &TableStore,
    node: CmosNode,
    vdd: f64,
) -> Result<InverterCell, ExploreError> {
    let nmos = CmosTransistor::nominal(node);
    // PMOS: ~2x weaker drive at ~1.8x width in real libraries; net ~0.9x
    // drive with ~1.8x capacitance.
    let pmos = CmosTransistor {
        k: nmos.k * 0.9,
        c_gate: nmos.c_gate * 1.8,
        ..nmos
    };
    let n_table = nmos.to_table_cached(store, Polarity::NType, vdd.max(0.85))?;
    let p_table = pmos.to_table_cached(store, Polarity::PType, vdd.max(0.85))?;
    // Contact resistance is already part of the compact model's effective
    // drive; no extrinsic parasitics are added.
    Ok(InverterCell::new(
        &n_table,
        &p_table,
        &ExtrinsicParasitics::none(),
    )?)
}

/// Measures one CMOS ring-oscillator row.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn cmos_row(node: CmosNode, vdd: f64, stages: usize) -> Result<BenchRow, ExploreError> {
    cmos_row_with_store(&TableStore::in_memory(), node, vdd, stages)
}

/// [`cmos_row`] through a shared [`TableStore`] (see
/// [`cmos_cell_with_store`]).
///
/// # Errors
///
/// Propagates measurement failures.
pub fn cmos_row_with_store(
    store: &TableStore,
    node: CmosNode,
    vdd: f64,
    stages: usize,
) -> Result<BenchRow, ExploreError> {
    let cell = cmos_cell_with_store(store, node, vdd)?;
    let inv = fo4_metrics_for_cell(&cell, vdd)?;
    let ro = RingOscillator::uniform(&cell, stages, vdd)?;
    let metrics = ring_oscillator_metrics(&ro, inv.delay_s, inv.static_power_w)?;
    let vtc = inverter_vtc(&cell, vdd, 33)?;
    let snm = butterfly_snm(&vtc, &vtc, vdd).snm();
    Ok(BenchRow {
        label: format!("CMOS {} @{vdd:.1}V", node.label()),
        frequency_hz: metrics.frequency_hz,
        edp_js: metrics.edp_js,
        snm_v: snm,
    })
}

/// Assembles the full Table 1: GNRFET operating points vs all CMOS
/// node/supply combinations.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn comparison_table(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    gnrfet_points: &[(String, DesignPoint)],
    stages: usize,
) -> Result<ComparisonTable, ExploreError> {
    let mut gnrfet = Vec::new();
    for (label, point) in gnrfet_points {
        gnrfet.push(gnrfet_row(ctx, lib, label, point, stages)?);
    }
    let mut cmos = Vec::new();
    for node in CmosNode::ALL {
        for vdd in [0.8, 0.6, 0.4] {
            cmos.push(cmos_row_with_store(lib.store(), node, vdd, stages)?);
        }
    }
    Ok(ComparisonTable { gnrfet, cmos })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmos_rows_have_sane_magnitudes() {
        let row = cmos_row(CmosNode::N22, 0.8, 15).unwrap();
        // Paper: 22nm @0.8V runs at ~5.8 GHz; accept a generous band.
        assert!(
            row.frequency_hz > 1e9 && row.frequency_hz < 4e10,
            "f = {:.3e}",
            row.frequency_hz
        );
        assert!(row.snm_v > 0.15, "CMOS SNM {}", row.snm_v);
        assert!(row.edp_js > 0.0);
    }

    #[test]
    fn cmos_slows_down_at_low_vdd() {
        let fast = cmos_row(CmosNode::N22, 0.8, 15).unwrap();
        let slow = cmos_row(CmosNode::N22, 0.4, 15).unwrap();
        assert!(fast.frequency_hz > 1.5 * slow.frequency_hz);
    }

    #[test]
    fn newer_nodes_are_faster() {
        let n22 = cmos_row(CmosNode::N22, 0.8, 15).unwrap();
        let n45 = cmos_row(CmosNode::N45, 0.8, 15).unwrap();
        assert!(n22.frequency_hz > n45.frequency_hz);
    }

    #[test]
    fn edp_advantage_computation() {
        let t = ComparisonTable {
            gnrfet: vec![BenchRow {
                label: "g".into(),
                frequency_hz: 3e9,
                edp_js: 1e-26,
                snm_v: 0.1,
            }],
            cmos: vec![BenchRow {
                label: "c".into(),
                frequency_hz: 3e9,
                edp_js: 8e-25,
                snm_v: 0.2,
            }],
        };
        assert!((t.edp_advantage().unwrap() - 80.0).abs() < 1e-9);
    }
}
