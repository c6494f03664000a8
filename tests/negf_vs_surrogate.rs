//! Cross-validation of the two device paths: the rigorous NEGF⇄Poisson
//! self-consistent solver against the semi-analytic SBFET surrogate, on
//! the same (reduced) geometry. The surrogate feeds every circuit-level
//! experiment, so its qualitative agreement with the full solver is the
//! load-bearing assumption of the reproduction (DESIGN.md §2).
//!
//! Every NEGF-side comparison is parameterized over the energy-grid
//! variant — the legacy dense uniform grid and the adaptive
//! coarse-plus-refinement grid (DESIGN.md §11) — instead of a hard-coded
//! point count, so the surrogate agreement is pinned for whichever grid a
//! caller picks.

use gnrlab::device::table::TableGrid;
use gnrlab::device::{
    ballistic_negf_table, DeviceConfig, NegfTableOptions, Polarity, SbfetModel, ScfOptions,
    ScfSolver,
};
use gnrlab::num::par::ExecCtx;

fn small_device() -> DeviceConfig {
    let mut cfg = DeviceConfig::test_small(9).expect("valid index");
    cfg.channel_cells = 14;
    cfg
}

/// The energy-grid variants every NEGF comparison runs under.
fn grid_variants() -> [(&'static str, ScfOptions); 2] {
    [
        ("uniform", ScfOptions::fast()),
        ("adaptive", ScfOptions::fast_adaptive()),
    ]
}

fn scf_solvers(cfg: &DeviceConfig) -> [(&'static str, ScfSolver); 2] {
    grid_variants().map(|(label, opts)| (label, ScfSolver::new(cfg, opts)))
}

#[test]
fn gate_modulation_direction_agrees() {
    let cfg = small_device();
    let surrogate = SbfetModel::new(&cfg).unwrap();
    let vd = 0.3;
    let sur_off = surrogate.drain_current(vd / 2.0, vd).unwrap();
    let sur_on = surrogate.drain_current(0.55, vd).unwrap();
    assert!(sur_on > sur_off, "surrogate gate control");
    for (grid, scf) in scf_solvers(&cfg) {
        let negf_off = scf.solve(&ExecCtx::serial(), vd / 2.0, vd).unwrap().0;
        let negf_on = scf.solve(&ExecCtx::serial(), 0.55, vd).unwrap().0;
        assert!(
            negf_on.current_a > negf_off.current_a,
            "negf gate control broke on the {grid} grid"
        );
    }
}

#[test]
fn on_current_magnitudes_within_order() {
    let cfg = small_device();
    let surrogate = SbfetModel::new(&cfg).unwrap();
    let (vg, vd) = (0.55, 0.3);
    let sur = surrogate.drain_current(vg, vd).unwrap();
    for (grid, scf) in scf_solvers(&cfg) {
        let negf = scf.solve(&ExecCtx::serial(), vg, vd).unwrap().0.current_a;
        let ratio = sur / negf;
        assert!(
            (0.1..10.0).contains(&ratio),
            "on-current surrogate/negf = {ratio:.2} on the {grid} grid \
             (negf {negf:.3e}, surrogate {sur:.3e})"
        );
    }
}

#[test]
fn barrier_profiles_agree_qualitatively() {
    // Both paths must show the SBFET shape: high pinned barriers at the
    // contacts, gate-depressed channel in between.
    let cfg = small_device();
    let surrogate = SbfetModel::new(&cfg).unwrap();
    let (vg, vd) = (0.5, 0.2);
    let sur_profile = surrogate.potential_profile(vg, vd).unwrap();
    let mid_sur = sur_profile[sur_profile.len() / 2];
    let edge_sur = sur_profile[0].max(*sur_profile.last().unwrap());
    assert!(
        edge_sur > mid_sur + 0.1,
        "surrogate barriers: edge {edge_sur:.3} vs mid {mid_sur:.3}"
    );
    for (grid, scf) in scf_solvers(&cfg) {
        let negf = scf.solve(&ExecCtx::serial(), vg, vd).unwrap().0;
        let negf_profile = &negf.layer_potential_ev;
        let mid_negf = negf_profile[negf_profile.len() / 2];
        let edge_negf = negf_profile[0].max(*negf_profile.last().unwrap());
        assert!(
            edge_negf > mid_negf + 0.1,
            "negf barriers on the {grid} grid: edge {edge_negf:.3} vs mid {mid_negf:.3}"
        );
        // Mid-channel potentials agree within 0.15 eV (same electrostatics).
        assert!(
            (mid_negf - mid_sur).abs() < 0.15,
            "mid-channel on the {grid} grid: negf {mid_negf:.3} vs surrogate {mid_sur:.3}"
        );
    }
}

/// The third solver path: a ballistic table built through the reduced
/// mode-space transform must conform to the real-space build within the
/// 1e-6 A acceptance bound at every bias node, with both tables carrying
/// their provenance (DESIGN.md §15).
#[test]
fn mode_space_table_conforms_to_real_space_within_1e6_a() {
    let mut cfg = DeviceConfig::test_small(9).expect("valid index");
    cfg.channel_cells = 6;
    let model = SbfetModel::new(&cfg).unwrap();
    let grid = TableGrid {
        vgs: (0.0, 0.6),
        vds: (0.05, 0.35),
        points: 3,
    };
    let ctx = ExecCtx::serial();
    let real = ballistic_negf_table(
        &ctx,
        &model,
        Polarity::NType,
        grid,
        1,
        &NegfTableOptions::accelerated(),
    )
    .unwrap();
    let mode = ballistic_negf_table(
        &ctx,
        &model,
        Polarity::NType,
        grid,
        1,
        &NegfTableOptions::mode_space(),
    )
    .unwrap();
    assert_eq!(real.solver_path(), "negf-real-space");
    assert_eq!(mode.solver_path(), "negf-mode-space");
    let (vgs, vds): (Vec<f64>, Vec<f64>) = {
        let (a, b) = real.bias_nodes();
        (a.collect(), b.collect())
    };
    for &vg in &vgs {
        for &vd in &vds {
            let (ir, im) = (real.current(vg, vd), mode.current(vg, vd));
            assert!(
                (ir - im).abs() < 1e-6,
                "I({vg}, {vd}): real-space {ir:.6e} vs mode-space {im:.6e}"
            );
        }
    }
}

#[test]
fn charge_sign_agrees_in_accumulation() {
    let cfg = small_device();
    let surrogate = SbfetModel::new(&cfg).unwrap();
    // Strong n-accumulation: both paths report net negative channel charge.
    let sur = surrogate.channel_charge(0.6, 0.1).unwrap();
    assert!(sur < 0.0, "surrogate charge {sur:.3e}");
    for (grid, scf) in scf_solvers(&cfg) {
        let negf = scf.solve(&ExecCtx::serial(), 0.6, 0.1).unwrap().0;
        assert!(
            negf.charge_c < 0.0,
            "negf charge on the {grid} grid: {:.3e}",
            negf.charge_c
        );
    }
}
