//! Extension experiment (beyond the paper's tables): edge-roughness
//! disorder, the defect mechanism the paper defers to its ref. \[17\] and
//! says "can be explored by readily extending the bottom-up simulation
//! framework presented here". This binary is that extension: ballistic
//! transmission statistics of rough ribbons versus roughness probability
//! and channel length, using the atomistic NEGF path.

use gnr_device::variation::EdgeRoughness;
use gnr_lattice::{AGnr, DeviceHamiltonian};
use gnr_negf::{Lead, RgfSolver};
use gnr_num::stats::summarize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== gnrlab :: roughness — edge-disorder transmission statistics ==");
    let gnr = AGnr::new(9)?;
    let bands = gnr.band_structure(96)?;
    let e_probe = bands.conduction_edge() + 0.15;
    println!("N=9 A-GNR, probing the first subband at E = {e_probe:.3} eV\n");
    let realizations = 12u64;

    println!("transmission vs roughness probability (12 cells ~ 5 nm):");
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "p (%)", "mean T", "min T", "max T"
    );
    for p in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let mut ts = Vec::new();
        for seed in 0..realizations {
            let mut h = DeviceHamiltonian::flat_band(gnr, 12)?;
            EdgeRoughness::new(p, seed).apply(&mut h, 12);
            let t = RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact())
                .transmission(e_probe)?;
            ts.push(t);
        }
        let s = summarize(&ts)?;
        println!(
            "{:>6.0} {:>10.4} {:>10.4} {:>10.4}",
            p * 100.0,
            s.mean,
            s.min,
            s.max
        );
    }

    println!("\ntransmission vs channel length at p = 5% (localization):");
    println!("{:>8} {:>10}", "cells", "mean T");
    for cells in [6usize, 12, 18, 24] {
        let mut ts = Vec::new();
        for seed in 0..realizations {
            let mut h = DeviceHamiltonian::flat_band(gnr, cells)?;
            EdgeRoughness::new(0.05, seed).apply(&mut h, cells);
            let t = RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact())
                .transmission(e_probe)?;
            ts.push(t);
        }
        let s = summarize(&ts)?;
        println!("{:>8} {:>10.4}", cells, s.mean);
    }
    println!("\nexpected physics (Yoon & Guo, APL 91, 073103): transmission");
    println!("degrades with roughness and decays with length (edge-disorder");
    println!("localization) — a third variability mechanism for the paper's");
    println!("framework beyond width variation and charge impurities.");
    Ok(())
}
