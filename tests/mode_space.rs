//! Acceptance suite for the mode-space NEGF path (DESIGN.md §15): the
//! transform's algebraic contracts (orthonormal basis, flat-band spectrum
//! preservation), the separability-monitor/fault fallback contract
//! (bit-identical to the uncached real-space solve), and build
//! determinism (table JSON byte-identical at any pool size).
//!
//! The fault injector is process-global, so every test serializes
//! through [`suite_lock`].

use gnrlab::device::table::TableGrid;
use gnrlab::device::{ballistic_negf_table, DeviceConfig, NegfTableOptions, Polarity, SbfetModel};
use gnrlab::lattice::{unit_cell_hamiltonian, AGnr, DeviceHamiltonian};
use gnrlab::negf::mode_space::FALLBACK_SITE;
use gnrlab::negf::transport::SpectralSolver;
use gnrlab::negf::{Lead, ModeBasis, ModeSpaceOptions, ModeSpaceSolver, RgfSolver};
use gnrlab::num::budget::ExecLimits;
use gnrlab::num::fault::{self, FaultPlan};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::TelemetryShard;
use std::sync::{Mutex, MutexGuard, OnceLock};

const N: usize = 9;
const CELLS: usize = 5;
const WINDOW: (f64, f64) = (-0.8, 0.8);

fn suite_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn basis() -> ModeBasis {
    let (h00, h01) = unit_cell_hamiltonian(AGnr::new(N).unwrap());
    ModeBasis::build(&h00, &h01, WINDOW.0, WINDOW.1, &ModeSpaceOptions::default()).unwrap()
}

fn assert_slices_bit_identical(
    a: &gnrlab::negf::rgf::SpectralSlice,
    b: &gnrlab::negf::rgf::SpectralSlice,
    what: &str,
) {
    assert_eq!(
        a.transmission.to_bits(),
        b.transmission.to_bits(),
        "{what}: transmission"
    );
    assert_eq!(a.a1_diag.len(), b.a1_diag.len(), "{what}: atom count");
    for (i, (x, y)) in a.a1_diag.iter().zip(&b.a1_diag).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: a1[{i}]");
    }
    for (i, (x, y)) in a.a2_diag.iter().zip(&b.a2_diag).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: a2[{i}]");
    }
}

/// The basis columns are orthonormal (`VᵀV = I`) and the window actually
/// truncates: `1 ≤ k < m`, with the dropped count visible through `dim`.
#[test]
fn mode_basis_is_orthonormal_and_truncates() {
    let _g = suite_lock();
    fault::disarm();
    let b = basis();
    let (k, m) = (b.modes(), b.dim());
    assert!(k >= 1 && k < m, "window must truncate: k = {k}, m = {m}");
    let gram = b.basis().adjoint().matmul(b.basis());
    for i in 0..k {
        for j in 0..k {
            let want = if i == j { 1.0 } else { 0.0 };
            let g = gram.get(i, j);
            assert!(
                (g.re - want).abs() < 1e-10 && g.im.abs() < 1e-12,
                "VᵀV[{i}][{j}] = {g}"
            );
        }
    }
}

/// At the flat band the device blocks equal the bare lead cell, mode
/// decoupling is exact, and the reduced solve must reproduce the
/// real-space transmission throughout the selection window — the
/// spectrum-preservation contract of the transform.
#[test]
fn flat_band_reduced_solve_matches_real_space_spectrum() {
    let _g = suite_lock();
    fault::disarm();
    let gnr = AGnr::new(N).unwrap();
    let ham = DeviceHamiltonian::flat_band(gnr, CELLS).unwrap();
    let full = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
    let solver = ModeSpaceSolver::new(
        &ham,
        Lead::gnr_contact(),
        Lead::gnr_contact(),
        &basis(),
        &ModeSpaceOptions::default(),
    )
    .unwrap();
    assert!(!solver.degraded(), "flat band must not trip the monitor");
    assert!(
        solver.separability_defect_ev() < 1e-12,
        "flat-band defect = {}",
        solver.separability_defect_ev()
    );
    let limits = ExecLimits::none();
    for e in [-0.7, -0.45, -0.2, 0.25, 0.5, 0.75] {
        let t_full = full.spectral_slice(e, &limits).unwrap().transmission;
        let t_mode = solver
            .slice(e, None, &mut TelemetryShard::inactive(), &limits)
            .unwrap()
            .transmission;
        assert!(
            (t_full - t_mode).abs() < 1e-8 * (1.0 + t_full.abs()),
            "T({e}): real-space {t_full:.12} vs mode-space {t_mode:.12}"
        );
    }
    // Mid-gap transport is evanescent: the dropped modes carry part of the
    // decaying tail, so equality there is only up to the (negligible)
    // tunneling floor — well below the 1e-6 A current conformance.
    let t_gap = solver
        .slice(0.0, None, &mut TelemetryShard::inactive(), &limits)
        .unwrap()
        .transmission;
    assert!(
        t_gap.abs() < 1e-5,
        "mid-gap T = {t_gap:.3e} must be negligible"
    );
}

/// Forced fallback (fault site armed at p = 1.0) must reproduce the
/// uncached real-space solve bit for bit — the fallback is a fresh full
/// solve, never a cache entry or a re-expanded reduced solve.
#[test]
fn forced_fallback_is_bit_identical_to_real_space() {
    let _g = suite_lock();
    let gnr = AGnr::new(N).unwrap();
    let ham = DeviceHamiltonian::flat_band(gnr, CELLS).unwrap();
    let full = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
    let solver = ModeSpaceSolver::new(
        &ham,
        Lead::gnr_contact(),
        Lead::gnr_contact(),
        &basis(),
        &ModeSpaceOptions::default(),
    )
    .unwrap();
    let limits = ExecLimits::none();
    fault::arm(FaultPlan::seeded(0x5eed).with_site(FALLBACK_SITE, 1.0));
    let outcome = std::panic::catch_unwind(|| {
        for e in [-0.5, 0.1, 0.6] {
            let reference = full.spectral_slice(e, &limits).unwrap();
            let fallback = solver
                .slice(e, None, &mut TelemetryShard::inactive(), &limits)
                .unwrap();
            assert_slices_bit_identical(&reference, &fallback, &format!("E = {e}"));
        }
        fault::injection_count(FALLBACK_SITE)
    });
    fault::disarm();
    let injected = outcome.expect("forced fallback must not panic");
    assert_eq!(injected, 3, "every energy point probes the site once");
}

/// A potential that varies *within* a layer couples kept modes to dropped
/// modes; with a zero tolerance the separability monitor must degrade the
/// solver, and every energy point then takes the real-space path without
/// any fault armed — again bit for bit.
#[test]
fn separability_monitor_degrades_on_intra_layer_potential() {
    let _g = suite_lock();
    fault::disarm();
    let gnr = AGnr::new(N).unwrap();
    let m = gnr.atoms_per_cell();
    // Per-atom sawtooth: layer-uniform shifts project to zero defect, so
    // the variation must live inside the cell to trip the monitor.
    let pot: Vec<f64> = (0..CELLS * m).map(|i| 0.004 * (i % m) as f64).collect();
    let ham = DeviceHamiltonian::new(gnr, CELLS, &pot).unwrap();
    let full = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
    let strict = ModeSpaceOptions::default().with_coupling_tol_ev(0.0);
    let solver = ModeSpaceSolver::new(
        &ham,
        Lead::gnr_contact(),
        Lead::gnr_contact(),
        &basis(),
        &strict,
    )
    .unwrap();
    assert!(solver.degraded(), "zero tolerance must degrade");
    assert!(solver.separability_defect_ev() > 0.0);
    let limits = ExecLimits::none();
    for e in [-0.4, 0.3] {
        let reference = full.spectral_slice(e, &limits).unwrap();
        let degraded = solver
            .slice(e, None, &mut TelemetryShard::inactive(), &limits)
            .unwrap();
        assert_slices_bit_identical(&reference, &degraded, &format!("degraded E = {e}"));
    }
    // The default tolerance accepts the same device (the defect is small),
    // so the monitor is a real threshold, not a constant verdict.
    let relaxed = ModeSpaceSolver::new(
        &ham,
        Lead::gnr_contact(),
        Lead::gnr_contact(),
        &basis(),
        &ModeSpaceOptions::default(),
    )
    .unwrap();
    assert!(
        !relaxed.degraded(),
        "defect {} must pass the default tolerance",
        relaxed.separability_defect_ev()
    );
}

/// The mode-space table build is bit-deterministic across pool sizes:
/// identical canonical JSON from 1-, 2-, and 4-thread contexts.
#[test]
fn mode_space_table_json_is_byte_identical_across_pool_sizes() {
    let _g = suite_lock();
    fault::disarm();
    let mut cfg = DeviceConfig::test_small(N).unwrap();
    cfg.channel_cells = 6;
    let model = SbfetModel::new(&cfg).unwrap();
    let grid = TableGrid {
        vgs: (0.0, 0.5),
        vds: (0.05, 0.35),
        points: 3,
    };
    let build = |threads: usize| {
        let ctx = ExecCtx::with_threads(threads);
        ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            grid,
            1,
            &NegfTableOptions::mode_space(),
        )
        .unwrap()
        .to_json()
        .unwrap()
    };
    let serial = build(1);
    assert!(serial.contains("negf-mode-space"), "provenance recorded");
    for threads in [2usize, 4] {
        assert_eq!(
            serial,
            build(threads),
            "{threads}-thread build diverged from serial"
        );
    }
}
