//! Benchmarks of the circuit-level kernels: DC operating points, transfer
//! curves, FO4 transients, ring-oscillator transients, and the butterfly
//! SNM extraction.

use crate::harness::Harness;
use gnr_device::table::TableGrid;
use gnr_device::{DeviceConfig, DeviceTable, Polarity, SbfetModel};
use gnr_spice::builders::{ExtrinsicParasitics, InverterCell, RingOscillator};
use gnr_spice::measure::{
    butterfly_snm, fo4_metrics_for_cell, inverter_static_power, inverter_vtc,
    ring_oscillator_metrics,
};
use std::hint::black_box;

const SUITE: &str = "circuit";

/// The nominal Fast-fidelity (21-point table) inverter at its 0.4 V
/// minimum-leakage offset, shared with the `ablations/fo4_transient` bench.
pub(crate) fn nominal_cell() -> (InverterCell, f64) {
    let cfg = DeviceConfig::test_small(12).expect("valid");
    let model = SbfetModel::new(&cfg).expect("builds");
    let vmin = model.minimum_leakage_vg(0.4).expect("minimum");
    let grid = TableGrid {
        vgs: (-0.35, 1.0),
        vds: (0.0, 0.85),
        points: 21,
    };
    let n = DeviceTable::from_model(
        &gnr_num::par::ExecCtx::serial(),
        &model,
        Polarity::NType,
        grid,
        4,
    )
    .expect("table")
    .with_vg_shift(-vmin);
    let p = n.mirrored();
    (
        InverterCell::new(&n, &p, &ExtrinsicParasitics::nominal()).expect("cell"),
        0.4,
    )
}

pub fn register(h: &mut Harness) {
    let (cell, vdd) = nominal_cell();

    h.bench(SUITE, "inverter_static_power_dc", || {
        black_box(inverter_static_power(&cell, vdd).expect("solves"))
    });
    h.bench(SUITE, "inverter_vtc_33pts", || {
        black_box(inverter_vtc(&cell, vdd, 33).expect("sweeps"))
    });

    let vtc = inverter_vtc(&cell, vdd, 41).expect("sweeps");
    h.bench(SUITE, "butterfly_snm_maxsquare_dp", || {
        black_box(butterfly_snm(&vtc, &vtc, vdd))
    });

    h.bench(SUITE, "fo4_inverter_transient", || {
        black_box(fo4_metrics_for_cell(&cell, vdd).expect("measures"))
    });
    let inv = fo4_metrics_for_cell(&cell, vdd).expect("measures");
    let ro = RingOscillator::uniform(&cell, 15, vdd).expect("builds");
    h.bench(SUITE, "ring_oscillator_15stage_transient", || {
        black_box(
            ring_oscillator_metrics(&ro, inv.delay_s, inv.static_power_w).expect("oscillates"),
        )
    });

    h.bench(SUITE, "table_lookup_current_gm_gds", || {
        let t = &cell.nfet;
        black_box((
            t.current(black_box(0.31), black_box(0.22)),
            t.gm(0.31, 0.22),
            t.gds(0.31, 0.22),
        ))
    });
    // The fused forms the transient step uses: one table-cell search for
    // all three I-V values, one for both capacitances.
    h.bench(SUITE, "table_lookup_iv_eval", || {
        black_box(cell.nfet.iv_eval(black_box(0.31), black_box(0.22)))
    });
    h.bench(SUITE, "table_lookup_caps_intrinsic", || {
        black_box(cell.nfet.caps_intrinsic(black_box(0.31), black_box(0.22)))
    });
}
