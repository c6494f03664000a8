//! Integration of the variability machinery: the signs and orderings of
//! the paper's Tables 2-4 claims, measured end-to-end at reduced fidelity.

use gnrlab::explore::devices::{ArrayScenario, DeviceLibrary, DeviceVariant, Fidelity};
use gnrlab::explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};
use gnrlab::explore::variability::{inverter_figures, variability_table, Metric};
use gnrlab::num::par::ExecCtx;
use std::sync::{Mutex, OnceLock};

/// Shared library so the expensive device tables build once.
fn lib() -> &'static Mutex<DeviceLibrary> {
    static LIB: OnceLock<Mutex<DeviceLibrary>> = OnceLock::new();
    LIB.get_or_init(|| Mutex::new(DeviceLibrary::new(Fidelity::Fast)))
}

#[test]
fn width_table_signs_match_paper() {
    let mut lib = lib().lock().unwrap();
    let axis: Vec<(String, usize, f64)> = [9usize, 18]
        .into_iter()
        .map(|n| (format!("N={n}"), n, 0.0))
        .collect();
    let table = variability_table(&ExecCtx::serial(), &mut lib, &axis, &axis, 0.4).unwrap();
    // N=9/N=9 cell: slower (paper: +6..77% delay).
    let (one, all) = table.delta_pct(0, 0, Metric::Delay);
    assert!(
        one > 0.0 && all > one,
        "N9 delay deltas one {one:.0}% all {all:.0}%"
    );
    // N=18/N=18 cell: faster but dramatically leakier (paper: -12..-30%
    // delay, +313..643% static in its worst case).
    let (one18, all18) = table.delta_pct(1, 1, Metric::Delay);
    assert!(all18 < 0.0, "N18 all-four delay {all18:.0}%");
    let _ = one18;
    let (_, static18) = table.delta_pct(1, 1, Metric::StaticPower);
    assert!(static18 > 300.0, "N18 static {static18:.0}%");
    // Width mismatch degrades SNM (paper: up to -80%).
    let (_, snm_mismatch) = table.delta_pct(0, 1, Metric::Snm);
    assert!(snm_mismatch < -20.0, "mismatch SNM {snm_mismatch:.0}%");
    // One-of-four effects are bounded by all-four effects for leakage.
    let (one_s, all_s) = table.delta_pct(1, 1, Metric::StaticPower);
    assert!(one_s < all_s, "one {one_s:.0}% < all {all_s:.0}%");
}

#[test]
fn impurity_asymmetry_matches_paper() {
    let mut lib = lib().lock().unwrap();
    let shift = lib.min_leakage_shift(0.4).unwrap();
    let ctx = ExecCtx::serial();
    let nominal = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::nominal(),
        DeviceVariant::nominal(),
        0.4,
        shift,
        None,
    )
    .unwrap();
    // Adverse impurities (-2q on n, +2q on p) slow the inverter
    // (paper Table 3: up to +92% delay).
    let adverse = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::charge(-2.0, ArrayScenario::AllFour),
        DeviceVariant::charge(2.0, ArrayScenario::AllFour),
        0.4,
        shift,
        None,
    )
    .unwrap();
    assert!(
        adverse.delay_s > 1.2 * nominal.delay_s,
        "adverse delay {:.2e} vs nominal {:.2e}",
        adverse.delay_s,
        nominal.delay_s
    );
    // Favourable impurities help far less than adverse ones hurt
    // (paper: max improvement 1-9% vs degradation up to 92%).
    let favourable = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::charge(2.0, ArrayScenario::AllFour),
        DeviceVariant::charge(-2.0, ArrayScenario::AllFour),
        0.4,
        shift,
        None,
    )
    .unwrap();
    let gain = (nominal.delay_s / favourable.delay_s).max(1.0) - 1.0;
    let loss = adverse.delay_s / nominal.delay_s - 1.0;
    assert!(
        loss > gain,
        "asymmetry: loss {:.0}% vs gain {:.0}%",
        loss * 100.0,
        gain * 100.0
    );
}

#[test]
fn single_gnr_effects_are_weaker_than_all_gnr() {
    let mut lib = lib().lock().unwrap();
    let shift = lib.min_leakage_shift(0.4).unwrap();
    let ctx = ExecCtx::serial();
    let nominal = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::nominal(),
        DeviceVariant::nominal(),
        0.4,
        shift,
        None,
    )
    .unwrap();
    let one = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::charge(-2.0, ArrayScenario::OneOfFour),
        DeviceVariant::charge(2.0, ArrayScenario::OneOfFour),
        0.4,
        shift,
        None,
    )
    .unwrap();
    let all = inverter_figures(
        &ctx,
        &mut lib,
        DeviceVariant::charge(-2.0, ArrayScenario::AllFour),
        DeviceVariant::charge(2.0, ArrayScenario::AllFour),
        0.4,
        shift,
        None,
    )
    .unwrap();
    let d_one = one.delay_s / nominal.delay_s;
    let d_all = all.delay_s / nominal.delay_s;
    assert!(
        d_one < d_all,
        "one-of-four ({d_one:.2}x) must bound all-four ({d_all:.2}x)"
    );
}

#[test]
fn monte_carlo_reproduces_fig6_directions() {
    let mut lib = lib().lock().unwrap();
    let ctx = ExecCtx::serial();
    let universe = characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).unwrap();
    let mc = monte_carlo_from_universe(&ctx, &universe, 400, 7);
    // Paper Fig. 6: mean frequency drops, mean static power rises —
    // variations degrade more than they improve.
    let f = mc.frequency_summary().unwrap();
    let s = mc.static_summary().unwrap();
    assert!(
        f.mean < mc.nominal_frequency_hz,
        "mean f {:.3e} vs nominal {:.3e}",
        f.mean,
        mc.nominal_frequency_hz
    );
    assert!(
        s.mean > mc.nominal_static_w,
        "mean static {:.3e} vs nominal {:.3e}",
        s.mean,
        mc.nominal_static_w
    );
    // Distributions have real spread.
    assert!(f.std_dev > 0.0 && s.std_dev > 0.0);
}
