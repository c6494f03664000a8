//! Regenerates paper Fig. 5: (a) conduction-band profile of the N=12
//! device with oxide charge impurities of −2q…+2q near the source, and
//! (b) the corresponding I-V curves — negative charges raise/thicken the
//! Schottky barrier, positive charges lower/thin it, asymmetrically.

use gnr_device::{ChargeImpurity, DeviceConfig, SbfetModel};
use gnrfet_explore::devices::Fidelity;
use gnrfet_explore::report;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = Fidelity::from_env();
    println!("== gnrlab :: fig5 — charge-impurity effects on the N=12 GNRFET ==");
    println!("fidelity: {fidelity:?}");
    let cfg = match fidelity {
        Fidelity::Paper => DeviceConfig::paper_nominal(12)?,
        Fidelity::Fast => DeviceConfig::test_small(12)?,
    };
    let charges = [-2.0, -1.0, 0.0, 1.0, 2.0];
    let mut models = Vec::new();
    for q in charges {
        let model = if q == 0.0 {
            SbfetModel::new(&cfg)?
        } else {
            SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(q)])?
        };
        models.push((q, model));
    }

    // --- Fig 5(a): conduction band profiles at V_D = 0.5 V, V_G = 0.25 V ---
    println!("\nfig5a: conduction-band profile E_C(x), V_G = 0.25 V, V_D = 0.5 V");
    println!("(impurity at 2 nm from the source face, 0.4 nm above the ribbon)");
    for (q, model) in &models {
        let prof = model.conduction_band_profile(0.25, 0.5)?;
        let peak = prof
            .iter()
            .skip(1)
            .take(prof.len() / 2)
            .cloned()
            .fold((0.0, f64::MIN), |acc, p| if p.1 > acc.1 { p } else { acc });
        println!(
            "  q = {q:+.0}: source-half barrier peak {:.3} eV at x = {:.2} nm",
            peak.1, peak.0
        );
        let data: Vec<(f64, f64)> = prof.iter().step_by(2).copied().collect();
        println!(
            "{}",
            report::series(
                &format!("E_C(x) for impurity {q:+.0}q"),
                "x (nm)",
                "E_C (eV)",
                &data,
            )
        );
    }

    // --- Fig 5(b): I-V curves ---
    println!("fig5b: I_D vs V_G at V_D = 0.5 V");
    for (q, model) in &models {
        if *q != -2.0 && *q != 0.0 && *q != 2.0 {
            continue; // the paper plots -2q / ideal / +2q
        }
        let mut data = Vec::new();
        for i in 0..=32 {
            let vg = i as f64 * 0.025;
            data.push((vg, model.drain_current(vg, 0.5)?));
        }
        println!(
            "{}",
            report::series(
                &format!("I-V with impurity {q:+.0}q"),
                "V_G (V)",
                "I_D (A)",
                &data,
            )
        );
    }
    let ideal_on = models[2].1.drain_current(0.5, 0.5)?;
    let neg_on = models[0].1.drain_current(0.5, 0.5)?;
    let pos_on = models[4].1.drain_current(0.5, 0.5)?;
    println!("on-current (V_G = V_D = 0.5 V):");
    println!("  ideal: {}", report::eng(ideal_on, "A"));
    println!(
        "  -2q:   {} ({:.1}x smaller; paper: factor of ~6 smaller)",
        report::eng(neg_on, "A"),
        ideal_on / neg_on
    );
    println!(
        "  +2q:   {} ({:.2}x of ideal; paper: smaller deviation than -2q)",
        report::eng(pos_on, "A"),
        pos_on / ideal_on
    );
    Ok(())
}
