//! Regression tests pinning the Monte Carlo variability study (§4 of the
//! paper) to the in-house RNG: bit-reproducibility for a fixed seed and a
//! stable frequency/power distribution against the recorded baseline.

use gnr_num::par::ExecCtx;
use gnrfet_explore::devices::{DeviceLibrary, Fidelity};
use gnrfet_explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};

/// Two consecutive runs with the same seed produce bit-identical sample
/// vectors — the acceptance criterion for deterministic Monte Carlo.
#[test]
fn fixed_seed_is_bit_reproducible() {
    let ctx = ExecCtx::serial();
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let universe =
        characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).expect("characterizes");
    let a = monte_carlo_from_universe(&ctx, &universe, 2000, 20080608);
    let b = monte_carlo_from_universe(&ctx, &universe, 2000, 20080608);
    assert_eq!(a.frequency_hz.len(), b.frequency_hz.len());
    for (x, y) in a.frequency_hz.iter().zip(&b.frequency_hz) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.dynamic_w.iter().zip(&b.dynamic_w) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.static_w.iter().zip(&b.static_w) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.stalled_samples, b.stalled_samples);

    // A different seed draws a different ring population.
    let c = monte_carlo_from_universe(&ctx, &universe, 2000, 1);
    assert!(
        a.frequency_hz
            .iter()
            .zip(&c.frequency_hz)
            .any(|(x, y)| x.to_bits() != y.to_bits()),
        "seed must steer the sample stream"
    );
}

/// The §4 width/charge-variation statistics for the pinned seed: the
/// distribution shape is a physics regression (spread around nominal,
/// every sampled ring slower than none-faster-than bound, finite powers).
#[test]
fn width_variation_statistics_pinned() {
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let ctx = ExecCtx::serial();
    let universe = characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).expect("runs");
    let mc = monte_carlo_from_universe(&ctx, &universe, 2000, 20080608);
    let kept = mc.frequency_hz.len();
    assert!(mc.stalled_samples + kept == 2000);
    // The functional yield for this seed is exactly 1470/2000 — the draw
    // sequence is pinned by the RNG contract, so any change to the sampler
    // or the generator moves this count and must be reviewed.
    assert_eq!(kept, 1470, "functional yield changed");
    assert_eq!(mc.stalled_samples, 530, "stalled-sample count changed");
    assert!((mc.functional_yield() - 0.735).abs() < 1e-12);

    // Pinned distribution shape for seed 20080608 at Fast fidelity
    // (loose ±bands so a deliberate surrogate retune doesn't thrash the
    // test, while an RNG or sampling regression fails loudly). Measured:
    // nominal 7.74 GHz, mean 1.58 GHz, std 2.05 GHz, max 7.52 GHz — the
    // variation tail is dominated by slow N=9/charged stages, hence the
    // strongly left-shifted mean (paper Fig. 6 shows the same skew
    // direction at full fidelity).
    let f = mc.frequency_summary().expect("summary");
    let rel = f.mean / mc.nominal_frequency_hz;
    assert!((0.1..0.4).contains(&rel), "mean/nominal {rel}");
    let cv = f.std_dev / f.mean;
    assert!((0.8..2.0).contains(&cv), "cv {cv}");
    assert!(f.min > 0.0 && f.min < 0.05 * mc.nominal_frequency_hz);
    // Fastest sampled ring sits just below nominal (7.52 vs 7.74 GHz):
    // a 15-stage ring rarely draws fast devices at every stage.
    assert!(f.max < 1.05 * mc.nominal_frequency_hz, "f.max {}", f.max);

    // Static power: mean dominated by the leaky +1σ (N = 15) tail, so the
    // mean must exceed the nominal composition.
    let s = mc.static_summary().expect("summary");
    assert!(
        s.mean > mc.nominal_static_w,
        "{} vs {}",
        s.mean,
        mc.nominal_static_w
    );
    // Dynamic power positive and finite.
    let d = mc.dynamic_summary().expect("summary");
    assert!(d.min > 0.0 && d.max.is_finite());
}
