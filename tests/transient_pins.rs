//! Golden pins for the fixed-dt transient engine on real GNRFET tables.
//!
//! Every value is pinned as its `f64::to_bits` pattern, so any change to
//! the transient step's arithmetic — companion-model stamping, the
//! trapezoidal branch history, the dense LU, or the device-table lookups —
//! fails here instead of drifting silently. The pins cover the three
//! shapes of work the design-space flow runs through that step:
//!
//! * `fo4_metrics_for_cell` at two `(V_DD, V_T)` corners (backward Euler,
//!   the measurement layer's integrator);
//! * a trapezoidal FO4 transient waveform (the only pinned trapezoidal
//!   run with FETs, whose per-branch history the engine carries);
//! * a 3×3 `design_space_map` (FO4 transient + VTC per point).
//!
//! All use the Fast-fidelity nominal device library. The suite runs under
//! `GNR_THREADS=1` and `=4` in `scripts/verify.sh`; the tables and the
//! circuit results are thread-count invariant, so the same pins hold on
//! both.

use gnrlab::device::extract_vt;
use gnrlab::explore::contours::design_space_map;
use gnrlab::explore::devices::{DeviceLibrary, DeviceVariant, Fidelity};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::KeyHasher;
use gnrlab::spice::builders::{ExtrinsicParasitics, InverterCell, InverterChain};
use gnrlab::spice::dc::set_source_wave;
use gnrlab::spice::measure::fo4_metrics_for_cell;
use gnrlab::spice::{transient, TransientOptions, Waveform};

fn assert_pin(actual: f64, expected: u64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        expected,
        "{what}: {actual:?} = {:#018x}, pinned {expected:#018x}",
        actual.to_bits()
    );
}

fn assert_digest(actual: u64, expected: u64, what: &str) {
    assert_eq!(
        actual, expected,
        "{what}: digest {actual:#018x}, pinned {expected:#018x}"
    );
}

/// The nominal Fast-fidelity inverter re-targeted to threshold `vt`, the
/// same construction `design_space_map` uses per grid point.
fn nominal_cell(vt: f64) -> InverterCell {
    let ctx = ExecCtx::from_env();
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let raw_n = lib
        .ntype_table(&ctx, DeviceVariant::nominal())
        .expect("nominal n table");
    let iv: Vec<(f64, f64)> = (0..60)
        .map(|i| {
            let vg = i as f64 * 0.015;
            (vg, raw_n.current(vg, 0.05))
        })
        .collect();
    let vt_raw = extract_vt(&iv).expect("raw threshold");
    let n = raw_n.with_vg_shift(vt - vt_raw);
    let p = n.mirrored();
    InverterCell::new(&n, &p, &ExtrinsicParasitics::nominal()).expect("inverter cell")
}

/// FO4 figures of merit at two corners of the Fig. 3(b) plane.
#[test]
fn fo4_metrics_pinned_at_two_corners() {
    // (V_DD, V_T, [delay, fall, rise, static, dynamic, energy, period]).
    let corners: [(f64, f64, [u64; 7]); 2] = [
        (
            0.4,
            0.12,
            [
                0x3d918ef6675b04a0,
                0x3d918e9852b75b40,
                0x3d918f547bfeae00,
                0x3e6de677fc54cf45,
                0x3e7a3578b663fe0f,
                0x3c83206c0cda3266,
                0x3df75a5690bedb67,
            ],
        ),
        (
            0.7,
            0.25,
            [
                0x3d877e3f49df7240,
                0x3d877dc04e13b700,
                0x3d877ebe45ab2d80,
                0x3ec49e6ba6928c5c,
                0x3e713b925689856f,
                0x3c73d2371db647f9,
                0x3df2673e337fb40f,
            ],
        ),
    ];
    for (vdd, vt, pins) in corners {
        let m = fo4_metrics_for_cell(&nominal_cell(vt), vdd).expect("fo4 metrics");
        let fields = [
            ("delay_s", m.delay_s),
            ("delay_fall_s", m.delay_fall_s),
            ("delay_rise_s", m.delay_rise_s),
            ("static_power_w", m.static_power_w),
            ("dynamic_power_w", m.dynamic_power_w),
            ("energy_per_cycle_j", m.energy_per_cycle_j),
            ("measure_period_s", m.measure_period_s),
        ];
        for ((name, value), pin) in fields.into_iter().zip(pins) {
            assert_pin(value, pin, &format!("fo4 ({vdd} V, {vt} V) {name}"));
        }
    }
}

/// A trapezoidal FO4 transient: time axis, every node voltage and both
/// source currents, digested bit for bit, plus explicit end points.
#[test]
fn trapezoidal_fo4_waveform_pinned() {
    let vdd = 0.5;
    let cell = nominal_cell(0.15);
    let mut chain = InverterChain::fo4(&cell, vdd).expect("fo4 chain");
    set_source_wave(
        &mut chain.circuit,
        chain.input_source,
        Waveform::Pulse {
            low: 0.0,
            high: vdd,
            delay: 2e-12,
            rise: 1e-12,
            fall: 1e-12,
            width: 2e-11,
            period: 4.4e-11,
        },
    )
    .expect("set pulse");
    let opts = TransientOptions::new(8.8e-11, 4e-14).trapezoidal();
    let (result, _) = transient(&ExecCtx::serial(), &chain.circuit, &opts).expect("transient");
    let circuit = &chain.circuit;
    assert_eq!(result.len(), 2201, "time points");
    let mut h = KeyHasher::new();
    for &t in result.times() {
        h.write_f64(t);
    }
    for i in 1..circuit.node_count() {
        for v in result.voltage(circuit, gnrlab::spice::NodeId(i)) {
            h.write_f64(v);
        }
    }
    for k in 0..circuit.source_count() {
        for i in result.source_current(circuit, k) {
            h.write_f64(i);
        }
    }
    assert_digest(h.finish(), 0xdff6f6e8a2d85e06, "trapezoidal fo4 waveform");
    let out = result.voltage(circuit, chain.output);
    let (lo, hi) = out
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    assert!(
        lo < 0.1 * vdd && hi > 0.9 * vdd,
        "output must swing rail to rail: [{lo}, {hi}]"
    );
    assert_pin(out[1100], 0x3fde9b8d8013d030, "v(out) at t = 44 ps");
    assert_pin(
        *out.last().expect("points"),
        0x3fde9b8d769f9cd4,
        "final v(out)",
    );
    let i_vdd = result.source_current(circuit, chain.vdd_source);
    assert_pin(i_vdd[550], 0xbedd20b2e2efdab0, "i(vdd) at t = 22 ps");
}

/// A 3×3 (V_DD, V_T) design-space map: raw threshold, feasibility mask,
/// and every field of every feasible point.
#[test]
fn design_space_map_3x3_pinned() {
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let map = design_space_map(
        &ExecCtx::from_env(),
        &mut lib,
        &[0.3, 0.45, 0.6],
        &[0.08, 0.16, 0.24],
        15,
    )
    .expect("design space map");
    assert_pin(map.vt_raw, 0x3fd63918a9caa1ca, "vt_raw");
    let mask: Vec<bool> = map.points.iter().map(Option::is_some).collect();
    assert_eq!(
        mask,
        [true, true, false, true, true, true, true, true, true],
        "feasibility mask (row-major, V_DD outer; V_T >= 0.75 V_DD is infeasible)"
    );
    let mut h = KeyHasher::new();
    for p in map.feasible() {
        for v in [
            p.vdd,
            p.vt,
            p.frequency_hz,
            p.edp_js,
            p.snm_v,
            p.static_w,
            p.dynamic_w,
        ] {
            h.write_f64(v);
        }
    }
    assert_digest(
        h.finish(),
        0xb7ba04bd2ae7a21f,
        "3x3 design-space map points",
    );
    let corner = map.at(2, 0).expect("(0.6 V, 0.08 V) is feasible");
    assert_pin(corner.edp_js, 0x3a0416f99eb3d96b, "edp at (0.6 V, 0.08 V)");
    assert_pin(
        corner.frequency_hz,
        0x4206e1a24ae038b0,
        "frequency at (0.6 V, 0.08 V)",
    );
}
