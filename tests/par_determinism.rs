//! Cross-pool determinism contract: every `ExecCtx` entry point must
//! produce bit-identical results regardless of thread count. The pool
//! only changes *who* computes each fixed chunk — the ordered merge and
//! the serial pre-draw of RNG/fault streams pin the arithmetic itself.

use gnrlab::device::table::TableGrid;
use gnrlab::device::{DeviceConfig, DeviceTable, Polarity, SbfetModel};
use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};
use gnrlab::num::par::ExecCtx;

fn pools() -> [ExecCtx; 3] {
    [
        ExecCtx::with_threads(1),
        ExecCtx::with_threads(2),
        ExecCtx::with_threads(4),
    ]
}

/// The pinned §4 Monte Carlo result (seed 20080608, Fast fidelity,
/// 2000 samples) is bit-identical whether the bias grid, the stage
/// universe, and the sample loop run serially or on 2- or 4-thread
/// pools — and the aggregate counts still match the recorded baseline.
#[test]
fn monte_carlo_pinned_result_is_pool_invariant() {
    let mut runs = Vec::new();
    for ctx in pools() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let universe =
            characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).expect("characterizes");
        let mc = monte_carlo_from_universe(&ctx, &universe, 2000, 20080608);
        runs.push(mc);
    }
    let baseline = &runs[0];
    assert_eq!(
        baseline.frequency_hz.len(),
        1470,
        "functional yield changed"
    );
    assert_eq!(
        baseline.stalled_samples, 530,
        "stalled-sample count changed"
    );
    assert!((baseline.functional_yield() - 0.735).abs() < 1e-12);

    for (threads, mc) in [(2usize, &runs[1]), (4, &runs[2])] {
        assert_eq!(
            mc.frequency_hz.len(),
            baseline.frequency_hz.len(),
            "{threads}-thread pool changed the kept-sample count"
        );
        assert_eq!(mc.stalled_samples, baseline.stalled_samples);
        for (a, b) in baseline.frequency_hz.iter().zip(&mc.frequency_hz) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "frequency drifted at {threads} threads"
            );
        }
        for (a, b) in baseline.dynamic_w.iter().zip(&mc.dynamic_w) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "dynamic power drifted at {threads} threads"
            );
        }
        for (a, b) in baseline.static_w.iter().zip(&mc.static_w) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "static power drifted at {threads} threads"
            );
        }
    }
}

/// A bias-grid table build — the hottest parallel loop — serialises to
/// byte-identical JSON under pool sizes 1, 2, and 4.
#[test]
fn device_table_json_is_pool_invariant() {
    let cfg = DeviceConfig::test_small(9).expect("valid");
    let model = SbfetModel::new(&cfg).expect("builds");
    let grid = TableGrid {
        vgs: (-0.3, 0.9),
        vds: (0.0, 0.8),
        points: 9,
    };
    let mut jsons = Vec::new();
    for ctx in pools() {
        let table = DeviceTable::from_model(&ctx, &model, Polarity::NType, grid, 4).expect("table");
        jsons.push(table.to_json().expect("serialises"));
    }
    assert_eq!(jsons[0], jsons[1], "2-thread table differs from serial");
    assert_eq!(jsons[0], jsons[2], "4-thread table differs from serial");
}
