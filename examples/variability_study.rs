//! Variability and defects: the paper's §4/§5 study in miniature.
//!
//! Measures how GNR-width variation and oxide charge impurities shift the
//! FO4 inverter figures of merit, runs a small ring-oscillator Monte Carlo,
//! and shows the latch butterfly collapse.
//!
//! Run with: `cargo run --release --example variability_study`

use gnrlab::explore::devices::{ArrayScenario, DeviceLibrary, DeviceVariant, Fidelity};
use gnrlab::explore::latch::latch_study;
use gnrlab::explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};
use gnrlab::explore::variability::{inverter_figures, Metric, VariabilityTable};
use gnrlab::num::par::ExecCtx;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let vdd = 0.4;
    let shift = lib.min_leakage_shift(vdd)?;

    // --- single-variant deltas (a slice of Tables 2 and 3) ---
    let ctx = ExecCtx::from_env();
    let nominal = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::nominal(),
        DeviceVariant::nominal(),
        vdd,
        shift,
        None,
    )?;
    println!(
        "nominal inverter: delay {:.2} ps, static {:.4} uW, SNM {:.3} V",
        nominal.delay_s * 1e12,
        nominal.static_w * 1e6,
        nominal.snm_v
    );
    let cases = [
        (
            "both devices N=9 (narrow)",
            DeviceVariant::width(9, ArrayScenario::AllFour),
        ),
        (
            "both devices N=18 (wide)",
            DeviceVariant::width(18, ArrayScenario::AllFour),
        ),
        (
            "-2q impurity (all ribbons)",
            DeviceVariant::charge(-2.0, ArrayScenario::AllFour),
        ),
        (
            "-2q impurity (1 of 4)",
            DeviceVariant::charge(-2.0, ArrayScenario::OneOfFour),
        ),
    ];
    for (label, v) in cases {
        let m = inverter_figures(&ctx, &mut lib, v, v, vdd, shift, None)?;
        println!(
            "{label:>28}: delay {:+6.1}%  static {:+7.1}%  SNM {:+6.1}%",
            100.0 * (m.delay_s / nominal.delay_s - 1.0),
            100.0 * (m.static_w / nominal.static_w - 1.0),
            100.0 * (m.snm_v / nominal.snm_v - 1.0)
        );
    }

    // --- a 2x2 corner of Table 4 ---
    let axis: Vec<(String, usize, f64)> =
        vec![("N=9,+q".into(), 9, 1.0), ("N=18,-q".into(), 18, -1.0)];
    let table: VariabilityTable =
        gnrlab::explore::variability::variability_table(&ctx, &mut lib, &axis, &axis, vdd)?;
    println!("\ncombined width+impurity corner (Table 4 style):");
    println!("{}", table.render(Metric::Delay));
    println!("{}", table.render(Metric::Snm));

    // --- Monte Carlo ring oscillator (Fig. 6 in miniature) ---
    println!("Monte Carlo (1000 samples, 15-stage ring oscillator) ...");
    let universe = characterize_stage_universe(&ctx, &mut lib, vdd, 15, None)?;
    let mc = monte_carlo_from_universe(&ctx, &universe, 1000, 42);
    if mc.stalled_samples > 0 {
        println!(
            "  {} of 1000 rings stalled (non-functional stage drawn)",
            mc.stalled_samples
        );
    }
    let f = mc.frequency_summary()?;
    let s = mc.static_summary()?;
    println!(
        "frequency: nominal {:.2} GHz -> mean {:.2} GHz ({:+.1}%)",
        mc.nominal_frequency_hz / 1e9,
        f.mean / 1e9,
        100.0 * (f.mean / mc.nominal_frequency_hz - 1.0)
    );
    println!(
        "static power: nominal {:.3} uW -> mean {:.3} uW ({:+.1}%)",
        mc.nominal_static_w * 1e6,
        s.mean * 1e6,
        100.0 * (s.mean / mc.nominal_static_w - 1.0)
    );

    // --- latch butterfly (Fig. 7 in miniature) ---
    let study = latch_study(&ctx, &mut lib, vdd)?;
    println!("\nlatch noise margins:");
    for case in &study.cases {
        println!(
            "  {:<22} SNM = {:.4} V, static = {:.3e} W",
            case.label,
            case.margins.snm(),
            case.static_w
        );
    }
    Ok(())
}
