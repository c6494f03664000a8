//! The rigorous device path: atomistic NEGF ⇄ 3D-Poisson, end to end.
//!
//! Demonstrates the quantum-transport machinery of the paper's §2 on a
//! reduced-size device: ribbon band structure, ballistic transmission
//! staircase, and a self-consistent Schottky-barrier FET bias point with
//! its conduction-band profile (paper Fig. 5a's machinery).
//!
//! Run with: `cargo run --release --example negf_transport`

use gnrlab::device::{DeviceConfig, ScfOptions, ScfSolver};
use gnrlab::lattice::{AGnr, DeviceHamiltonian};
use gnrlab::negf::{Lead, RgfSolver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- band structure ---
    let gnr = AGnr::new(12)?;
    let bands = gnr.band_structure(96)?;
    println!(
        "N=12 A-GNR: Eg = {:.3} eV, first subband edges: {:?}",
        bands.gap(),
        gnr.conduction_subband_edges(96, 3)?
            .iter()
            .map(|e| format!("{e:.3}"))
            .collect::<Vec<_>>()
    );
    println!(
        "conduction-band effective mass: {:.3} m0",
        bands.conduction_effective_mass()
    );

    // --- ballistic transmission staircase (ideal ribbon leads) ---
    let h = DeviceHamiltonian::flat_band(gnr, 6)?;
    let solver = RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact());
    println!("\ntransmission through the ideal ribbon (integer mode counts):");
    for i in 0..=10 {
        let e = i as f64 * 0.12;
        let t = solver.transmission(e)?;
        println!("  E = {e:>5.2} eV   T = {t:>6.3}");
    }

    // --- self-consistent SBFET bias point ---
    let mut cfg = DeviceConfig::test_small(9)?;
    cfg.channel_cells = 14;
    let scf = ScfSolver::new(&cfg, ScfOptions::fast());
    println!("\nself-consistent NEGF/Poisson at V_G = 0.45 V, V_D = 0.3 V ...");
    let (result, _report) = scf.solve(&gnrlab::num::par::ExecCtx::from_env(), 0.45, 0.3)?;
    println!(
        "converged in {} iterations (residual {:.1} mV): I_D = {:.3e} A, Q = {:.3e} C",
        result.iterations,
        result.residual_v * 1e3,
        result.current_a,
        result.charge_c
    );
    let half_gap = AGnr::new(9)?.band_structure(96)?.gap() / 2.0;
    println!("conduction band profile E_C(x) along the channel:");
    for (l, u) in result.layer_potential_ev.iter().enumerate() {
        let ec = u + half_gap;
        let bar: String = "=".repeat(((ec + 0.6) * 40.0).max(0.0) as usize);
        println!("  layer {l:>2}: {ec:>7.3} eV  {bar}");
    }
    println!("\nSchottky barriers at both contacts, gate-controlled channel in");
    println!("between: the device the paper simulates, solved from the atoms up.");
    Ok(())
}
