//! Property-style transport invariants on seeded random devices, checked
//! against EVERY solver path — the legacy fresh-Sancho–Rubio route, the
//! cached/adaptive acceleration layer (DESIGN.md §11), and the reduced
//! mode-space transform (DESIGN.md §15) — so no fast path can drift from
//! the physics the slow path pins:
//!
//! * `0 ≤ T(E) ≤` number of propagating lead modes at `E`;
//! * zero bias window (`μ₁ = μ₂`) carries exactly zero current;
//! * swapping the contact Fermi levels reverses the current;
//! * mirroring the device along transport leaves `T(E)` unchanged.

use gnrlab::lattice::{unit_cell_hamiltonian, AGnr, DeviceHamiltonian};
use gnrlab::negf::transport::{EnergyGrid, RefineOptions, SpectralSolver, TransportOptions};
use gnrlab::negf::{
    integrate_transport, Lead, ModeBasis, ModeSpaceOptions, ModeSpaceSolver, RgfSolver,
    SurfaceGfCache,
};
use gnrlab::num::budget::ExecLimits;
use gnrlab::num::par::ExecCtx;
use gnrlab::num::{Rng, Telemetry, TelemetryShard};
use std::sync::Arc;

const SEED: u64 = 20080608;
const N: usize = 7;
const CELLS: usize = 5;

/// A random disordered channel potential, constant within each layer so the
/// device can be exactly mirrored by reversing the array.
fn random_layer_potential(rng: &mut Rng) -> Vec<f64> {
    let m = AGnr::new(N).unwrap().atoms_per_cell();
    let mut pot = Vec::with_capacity(CELLS * m);
    for _ in 0..CELLS {
        let u = rng.uniform_in(-0.15, 0.35);
        pot.extend(std::iter::repeat_n(u, m));
    }
    pot
}

fn solver_for(pot: &[f64]) -> (DeviceHamiltonian, AGnr) {
    let gnr = AGnr::new(N).unwrap();
    (DeviceHamiltonian::new(gnr, CELLS, pot).unwrap(), gnr)
}

/// The mode-space counterpart of a real-space solver, sharing the same
/// device. The window is the transport grid widened enough to absorb the
/// random potential shifts, so every propagating mode stays in the basis.
fn mode_solver_for(ham: &DeviceHamiltonian) -> ModeSpaceSolver {
    let (h00, h01) = unit_cell_hamiltonian(ham.gnr());
    let opts = ModeSpaceOptions::default().with_window_margin_ev(0.7);
    let basis = ModeBasis::build(&h00, &h01, -0.8, 0.8, &opts).unwrap();
    ModeSpaceSolver::new(ham, Lead::gnr_contact(), Lead::gnr_contact(), &basis, &opts).unwrap()
}

/// Number of lead modes propagating at energy `e`: bands whose Bloch
/// dispersion spans `e`.
fn open_modes(gnr: AGnr, e: f64) -> usize {
    let bs = gnr.band_structure(128).unwrap();
    bs.bands()
        .iter()
        .filter(|band| {
            let lo = band.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = band.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            lo <= e && e <= hi
        })
        .count()
}

#[test]
fn transmission_bounded_by_open_modes_on_both_paths() {
    let mut rng = Rng::seed_from_u64(SEED);
    let cache = SurfaceGfCache::new();
    let sink = Telemetry::isolated();
    let mut shard = TelemetryShard::for_sink(&sink);
    for _ in 0..4 {
        let pot = random_layer_potential(&mut rng);
        let (ham, gnr) = solver_for(&pot);
        let solver = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
        for _ in 0..6 {
            let e = rng.uniform_in(-1.0, 1.0);
            let bound = open_modes(gnr, e) as f64;
            let t_legacy = solver.transmission(e).expect("legacy solves");
            let t_cached = solver
                .slice(e, Some(&cache), &mut shard, &ExecLimits::none())
                .expect("cached solves")
                .transmission;
            for (label, t) in [("legacy", t_legacy), ("cached", t_cached)] {
                assert!(
                    (-1e-9..=bound + 1e-6).contains(&t),
                    "{label} T({e:.4}) = {t:.6} outside [0, {bound}]"
                );
            }
            // The cached path evaluates at the snapped energy (one key
            // quantum away at most); T may move by the local slope only.
            assert!(
                (t_legacy - t_cached).abs() < 5e-3,
                "paths disagree at E = {e:.4}: {t_legacy:.6} vs {t_cached:.6}"
            );
        }
    }
}

#[test]
fn zero_bias_window_carries_no_current() {
    let mut rng = Rng::seed_from_u64(SEED + 1);
    let pot = random_layer_potential(&mut rng);
    let (ham, _) = solver_for(&pot);
    let solver = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
    let ctx = ExecCtx::serial();
    let grid: Vec<f64> = EnergyGrid::new(-0.8, 0.8, 41).unwrap().energies().collect();
    let mu = 0.12;
    let legacy = integrate_transport(
        &ctx,
        &solver,
        &grid,
        &TransportOptions::default(),
        mu,
        mu,
        300.0,
        &pot,
    )
    .unwrap();
    let opts = TransportOptions::default()
        .with_cache(Arc::new(SurfaceGfCache::new()))
        .with_refine(RefineOptions::default());
    let accel = integrate_transport(&ctx, &solver, &grid, &opts, mu, mu, 300.0, &pot).unwrap();
    // The integrand carries (f1 - f2) per energy point: identically zero.
    assert_eq!(legacy.current_a, 0.0, "legacy leaks at zero bias");
    assert_eq!(accel.current_a, 0.0, "accelerated path leaks at zero bias");
    // Charge does not vanish: the window still fills states.
    assert!(legacy.charge.total().abs() > 0.0);
}

#[test]
fn bias_reversal_flips_the_current() {
    let mut rng = Rng::seed_from_u64(SEED + 2);
    let pot = random_layer_potential(&mut rng);
    let (ham, _) = solver_for(&pot);
    let solver = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
    let ctx = ExecCtx::serial();
    let grid: Vec<f64> = EnergyGrid::new(-0.8, 0.8, 41).unwrap().energies().collect();
    let (mu1, mu2) = (0.15, -0.15);
    for opts in [
        TransportOptions::default(),
        TransportOptions::default()
            .with_cache(Arc::new(SurfaceGfCache::new()))
            .with_refine(RefineOptions::default()),
    ] {
        let fwd = integrate_transport(&ctx, &solver, &grid, &opts, mu1, mu2, 300.0, &pot).unwrap();
        let rev = integrate_transport(&ctx, &solver, &grid, &opts, mu2, mu1, 300.0, &pot).unwrap();
        let (i1, i2) = (fwd.current_a, rev.current_a);
        assert!(
            (i1 + i2).abs() <= 1e-9 * i1.abs().max(i2.abs()),
            "bias reversal not antisymmetric: {i1:.6e} vs {i2:.6e}"
        );
        assert!(i1 != 0.0, "finite bias should drive current");
    }
}

#[test]
fn transmission_invariant_under_device_mirror() {
    let mut rng = Rng::seed_from_u64(SEED + 3);
    let cache = SurfaceGfCache::new();
    let sink = Telemetry::isolated();
    let mut shard = TelemetryShard::for_sink(&sink);
    for _ in 0..3 {
        let pot = random_layer_potential(&mut rng);
        let mirrored: Vec<f64> = pot.iter().rev().copied().collect();
        let (ham_f, _) = solver_for(&pot);
        let (ham_m, _) = solver_for(&mirrored);
        let fwd = RgfSolver::new(&ham_f, Lead::gnr_contact(), Lead::gnr_contact());
        let rev = RgfSolver::new(&ham_m, Lead::gnr_contact(), Lead::gnr_contact());
        for e in [-0.6, -0.25, 0.3, 0.55, 0.8] {
            // Reversing the layer potentials mirrors the device only up to
            // the within-cell atom ordering (the unit cell is not exactly
            // reflection-symmetric), so this is a physics-level check, not
            // a bit pin.
            let tf = fwd.transmission(e).expect("solves");
            let tr = rev.transmission(e).expect("solves");
            assert!(
                (tf - tr).abs() <= 5e-3 * (1.0 + tf.abs()),
                "mirror symmetry broke at E = {e}: {tf:.9} vs {tr:.9}"
            );
            let tfc = fwd
                .slice(e, Some(&cache), &mut shard, &ExecLimits::none())
                .expect("solves")
                .transmission;
            let trc = rev
                .slice(e, Some(&cache), &mut shard, &ExecLimits::none())
                .expect("solves")
                .transmission;
            assert!(
                (tfc - trc).abs() <= 5e-3 * (1.0 + tfc.abs()),
                "cached mirror symmetry broke at E = {e}: {tfc:.9} vs {trc:.9}"
            );
        }
    }
}

#[test]
fn mode_space_transmission_bounded_and_tracks_real_space() {
    let mut rng = Rng::seed_from_u64(SEED + 4);
    let limits = ExecLimits::none();
    let mut shard = TelemetryShard::inactive();
    for _ in 0..3 {
        let pot = random_layer_potential(&mut rng);
        let (ham, gnr) = solver_for(&pot);
        let real = RgfSolver::new(&ham, Lead::gnr_contact(), Lead::gnr_contact());
        let mode = mode_solver_for(&ham);
        // Layer-uniform potentials project to zero kept↔dropped coupling,
        // so the monitor must keep these devices on the reduced path.
        assert!(!mode.degraded(), "rigid shifts must not degrade");
        for _ in 0..5 {
            let e = rng.uniform_in(-0.75, 0.75);
            let bound = open_modes(gnr, e) as f64;
            let t_real = real.spectral_slice(e, &limits).expect("real").transmission;
            let t_mode = mode
                .slice(e, None, &mut shard, &limits)
                .expect("mode")
                .transmission;
            assert!(
                (-1e-9..=bound + 1e-6).contains(&t_mode),
                "mode-space T({e:.4}) = {t_mode:.6} outside [0, {bound}]"
            );
            assert!(
                (t_real - t_mode).abs() <= 5e-3 * (1.0 + t_real.abs()),
                "paths disagree at E = {e:.4}: real {t_real:.9} vs mode {t_mode:.9}"
            );
        }
    }
}

#[test]
fn mode_space_path_keeps_the_current_invariants() {
    let mut rng = Rng::seed_from_u64(SEED + 5);
    let pot = random_layer_potential(&mut rng);
    let (ham, _) = solver_for(&pot);
    let solver = mode_solver_for(&ham);
    let ctx = ExecCtx::serial();
    let grid: Vec<f64> = EnergyGrid::new(-0.8, 0.8, 41).unwrap().energies().collect();
    let opts = TransportOptions::default()
        .with_cache(Arc::new(SurfaceGfCache::new()))
        .with_refine(RefineOptions::default());
    // Zero bias window: exactly zero current, finite filled charge.
    let mu = 0.1;
    let zero = integrate_transport(&ctx, &solver, &grid, &opts, mu, mu, 300.0, &pot).unwrap();
    assert_eq!(zero.current_a, 0.0, "mode-space path leaks at zero bias");
    assert!(zero.charge.total().abs() > 0.0);
    // Bias reversal: antisymmetric, and finite bias drives current.
    let (mu1, mu2) = (0.15, -0.15);
    let fwd = integrate_transport(&ctx, &solver, &grid, &opts, mu1, mu2, 300.0, &pot).unwrap();
    let rev = integrate_transport(&ctx, &solver, &grid, &opts, mu2, mu1, 300.0, &pot).unwrap();
    let (i1, i2) = (fwd.current_a, rev.current_a);
    assert!(
        (i1 + i2).abs() <= 1e-9 * i1.abs().max(i2.abs()),
        "mode-space bias reversal not antisymmetric: {i1:.6e} vs {i2:.6e}"
    );
    assert!(i1 != 0.0, "finite bias should drive current");
}
