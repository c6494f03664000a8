//! Dynamic latch behaviour: the cross-coupled pair must actually hold
//! state (bistability) when simulated in time — the property the paper's
//! static butterfly analysis is a proxy for.

use gnrlab::device::table::TableGrid;
use gnrlab::device::{DeviceConfig, DeviceTable, Polarity, SbfetModel};
use gnrlab::num::par::ExecCtx;
use gnrlab::spice::builders::{ExtrinsicParasitics, InverterCell};
use gnrlab::spice::circuit::{Circuit, Element, NodeId, Waveform};
use gnrlab::spice::transient::{transient, TransientOptions};
use std::sync::OnceLock;

fn cell() -> &'static InverterCell {
    static CELL: OnceLock<InverterCell> = OnceLock::new();
    CELL.get_or_init(|| {
        let cfg = DeviceConfig::test_small(12).expect("valid");
        let model = SbfetModel::new(&cfg).expect("builds");
        let vmin = model.minimum_leakage_vg(0.4).expect("minimum");
        let grid = TableGrid {
            vgs: (-0.35, 1.0),
            vds: (0.0, 0.85),
            points: 21,
        };
        let n = DeviceTable::from_model(&ExecCtx::serial(), &model, Polarity::NType, grid, 4)
            .expect("table")
            .with_vg_shift(-vmin);
        let p = n.mirrored();
        InverterCell::new(&n, &p, &ExtrinsicParasitics::nominal()).expect("cell")
    })
}

/// Builds the cross-coupled latch circuit; returns `(circuit, left, right)`.
fn latch_circuit(vdd: f64) -> (Circuit, NodeId, NodeId) {
    let cell = cell();
    let mut c = Circuit::new();
    let left = c.node("l");
    let right = c.node("r");
    let vdd_node = c.node("vdd");
    c.add(Element::VSource {
        p: vdd_node,
        n: NodeId::GROUND,
        wave: Waveform::Dc(vdd),
    });
    cell.instantiate(&mut c, left, right, vdd_node);
    cell.instantiate(&mut c, right, left, vdd_node);
    // Small explicit node capacitances so the state nodes have dynamics
    // even where the device capacitances are tiny.
    for node in [left, right] {
        c.add(Element::Capacitor {
            a: node,
            b: NodeId::GROUND,
            farads: 5e-18,
        });
    }
    (c, left, right)
}

#[test]
fn latch_holds_both_states() {
    let vdd = 0.4;
    let (c, left, right) = latch_circuit(vdd);
    for (l0, r0) in [(vdd, 0.0), (0.0, vdd)] {
        let mut opts = TransientOptions::new(200e-12, 0.2e-12);
        opts.skip_dc = true;
        opts.initial_voltages = vec![(left, l0), (right, r0)];
        let (result, _) = transient(&ExecCtx::serial(), &c, &opts).expect("simulates");
        let vl = *result.voltage(&c, left).last().unwrap();
        let vr = *result.voltage(&c, right).last().unwrap();
        if l0 > r0 {
            assert!(
                vl > 0.8 * vdd && vr < 0.2 * vdd,
                "state lost: l={vl:.3} r={vr:.3}"
            );
        } else {
            assert!(
                vr > 0.8 * vdd && vl < 0.2 * vdd,
                "state lost: l={vl:.3} r={vr:.3}"
            );
        }
    }
}

#[test]
fn latch_regenerates_from_perturbed_state() {
    // Start near (but not at) the metastable point, biased towards one
    // side: the positive feedback must regenerate full logic levels.
    let vdd = 0.4;
    let (c, left, right) = latch_circuit(vdd);
    let mut opts = TransientOptions::new(400e-12, 0.2e-12);
    opts.skip_dc = true;
    opts.initial_voltages = vec![(left, 0.55 * vdd), (right, 0.45 * vdd)];
    let (result, _) = transient(&ExecCtx::serial(), &c, &opts).expect("simulates");
    let vl = *result.voltage(&c, left).last().unwrap();
    let vr = *result.voltage(&c, right).last().unwrap();
    assert!(
        vl > 0.8 * vdd && vr < 0.2 * vdd,
        "did not regenerate: l={vl:.3} r={vr:.3}"
    );
    // The separation must be monotone-ish: the final split exceeds the
    // initial 10% split by a large factor.
    assert!((vl - vr) > 3.0 * (0.1 * vdd));
}
