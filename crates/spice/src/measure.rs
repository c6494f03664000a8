//! Circuit measurements: delay, power, frequency, EDP, and static noise
//! margins.
//!
//! These implement the paper's figures of merit (§3): FO4 inverter
//! propagation delay, static and dynamic power, ring-oscillator frequency,
//! the energy-delay product used for technology exploration, and the
//! butterfly-curve static noise margin used as the reliability metric.

use crate::builders::{InverterCell, InverterChain, Latch, RingOscillator};
use crate::circuit::{Element, NodeId, Waveform};
use crate::dc::{dc_operating_point, set_source_value, set_source_wave, transfer_curve, DcOptions};
use crate::error::SpiceError;
use crate::transient::{transient_nominal, TransientOptions};
use gnr_num::budget::ExecLimits;

/// Measured figures of merit of a FO4 inverter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InverterMetrics {
    /// Average propagation delay `(t_pHL + t_pLH)/2` \[s\].
    pub delay_s: f64,
    /// High-to-low output propagation delay \[s\].
    pub delay_fall_s: f64,
    /// Low-to-high output propagation delay \[s\].
    pub delay_rise_s: f64,
    /// Static power `V_DD · (I_leak(0) + I_leak(V_DD))/2` \[W\].
    pub static_power_w: f64,
    /// Dynamic power at the measurement frequency \[W\].
    pub dynamic_power_w: f64,
    /// Total supply energy per switching cycle \[J\].
    pub energy_per_cycle_j: f64,
    /// The input period used for the dynamic measurement \[s\].
    pub measure_period_s: f64,
}

/// Measured figures of merit of a ring oscillator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OscillatorMetrics {
    /// Oscillation frequency \[Hz\].
    pub frequency_hz: f64,
    /// Oscillation period \[s\].
    pub period_s: f64,
    /// Total supply power while oscillating \[W\].
    pub power_w: f64,
    /// Static (leakage) component of the power \[W\].
    pub static_power_w: f64,
    /// Dynamic component of the power \[W\].
    pub dynamic_power_w: f64,
    /// Per-stage propagation delay `T/(2N)` \[s\].
    pub stage_delay_s: f64,
    /// Dynamic energy per stage transition \[J\].
    pub energy_per_transition_j: f64,
    /// Energy-delay product per stage \[J·s\].
    pub edp_js: f64,
}

/// Static noise margins extracted from a butterfly plot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseMargins {
    /// Side of the maximal square in the upper-left lobe \[V\].
    pub upper_v: f64,
    /// Side of the maximal square in the lower-right lobe \[V\].
    pub lower_v: f64,
}

impl NoiseMargins {
    /// The static noise margin: the smaller lobe.
    pub fn snm(&self) -> f64 {
        self.upper_v.min(self.lower_v)
    }
}

/// Interpolated 50 %-crossing times of a waveform.
///
/// Returns each time the waveform crosses `level` in the given direction.
pub fn crossing_times(times: &[f64], wave: &[f64], level: f64, rising: bool) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 1..wave.len() {
        let (a, b) = (wave[i - 1], wave[i]);
        let hit = if rising {
            a < level && b >= level
        } else {
            a > level && b <= level
        };
        if hit {
            let frac = (level - a) / (b - a);
            out.push(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
    }
    out
}

/// Static power of one inverter cell at `vdd`: the average of the two
/// stable-state leakage currents times the supply voltage.
///
/// # Errors
///
/// Propagates DC failures.
pub fn inverter_static_power(cell: &InverterCell, vdd: f64) -> Result<f64, SpiceError> {
    let chain = single_inverter(cell, vdd)?;
    let mut circuit = chain.circuit;
    let mut leak = 0.0;
    for vin in [0.0, vdd] {
        set_source_value(&mut circuit, chain.input_source, vin)?;
        let x = dc_operating_point(&circuit, None, DcOptions::default(), &ExecLimits::none())?;
        leak += circuit.source_current(&x, chain.vdd_source).abs();
    }
    Ok(vdd * leak / 2.0)
}

/// Builds a single unloaded inverter test bench (public handle for deck
/// conformance: the netlist suite emits this circuit as a golden deck and
/// pins the reparsed VTC bit-identically).
///
/// # Errors
///
/// Propagates construction failures.
pub fn single_inverter_circuit(cell: &InverterCell, vdd: f64) -> Result<InverterChain, SpiceError> {
    single_inverter(cell, vdd)
}

/// Builds a single unloaded inverter test bench.
fn single_inverter(cell: &InverterCell, vdd: f64) -> Result<InverterChain, SpiceError> {
    let mut circuit = crate::circuit::Circuit::new();
    let input = circuit.node("in");
    let output = circuit.node("out");
    let vdd_node = circuit.node("vdd");
    circuit.add(Element::VSource {
        p: input,
        n: NodeId::GROUND,
        wave: Waveform::Dc(0.0),
    });
    circuit.add(Element::VSource {
        p: vdd_node,
        n: NodeId::GROUND,
        wave: Waveform::Dc(vdd),
    });
    cell.instantiate(&mut circuit, input, output, vdd_node);
    Ok(InverterChain {
        circuit,
        input,
        output,
        vdd_node,
        input_source: 0,
        vdd_source: 1,
    })
}

/// Measures delay, power, and energy of a FO4 inverter built from `cell`
/// at supply `vdd`.
///
/// # Errors
///
/// Propagates construction/analysis failures; returns
/// [`SpiceError::Measurement`] if the output never switches.
pub fn fo4_metrics_for_cell(cell: &InverterCell, vdd: f64) -> Result<InverterMetrics, SpiceError> {
    let chain = InverterChain::fo4(cell, vdd)?;
    // Static power (per driver inverter) does not depend on the window.
    let static_power_w = inverter_static_power(cell, vdd)?;
    // The transient window is sized from an RC estimate; retry with longer
    // windows for slow corners (e.g. heavily mismatched variation studies)
    // whose weaker edge falls outside the first guess.
    let mut scale = 1.0;
    for attempt in 0..3 {
        match fo4_metrics_attempt(cell, &chain, vdd, static_power_w, scale) {
            Err(SpiceError::Measurement { .. }) if attempt < 2 => scale *= 6.0,
            other => return other,
        }
    }
    unreachable!("loop always returns on the final attempt")
}

fn fo4_metrics_attempt(
    cell: &InverterCell,
    chain: &InverterChain,
    vdd: f64,
    static_power_w: f64,
    window_scale: f64,
) -> Result<InverterMetrics, SpiceError> {
    let mut circuit = chain.circuit.clone();

    // --- delay estimate to size the transient window: the weaker of the
    // pull-down and pull-up edges dominates ---
    let mid = vdd / 2.0;
    let i_n = cell.nfet.current(vdd, mid).abs();
    let i_p = cell.pfet.current(-vdd, -mid).abs();
    let i_drive = i_n.min(i_p).max(1e-12);
    let c_load = 4.0
        * (cell.nfet.cg_intrinsic(mid, mid)
            + cell.pfet.cg_intrinsic(-mid, -mid)
            + cell.parasitics.c_gs_e
            + cell.parasitics.c_gd_e)
        + 1e-18;
    let t_est = (c_load * vdd / i_drive).max(1e-13);
    let period = 80.0 * t_est * window_scale;
    let edge = period / 100.0;
    let wave = Waveform::Pulse {
        low: 0.0,
        high: vdd,
        delay: period / 10.0,
        rise: edge,
        fall: edge,
        width: period / 2.0 - edge,
        period,
    };
    set_source_wave(&mut circuit, chain.input_source, wave)?;
    let opts = TransientOptions::new(2.0 * period, period / 3000.0);
    let result = transient_nominal(&circuit, &opts, &ExecLimits::none())?;
    let times = result.times();
    let vin = result.voltage(&circuit, chain.input);
    let vout = result.voltage(&circuit, chain.output);

    // Propagation delays from the second (steady) cycle where available.
    let in_rise = crossing_times(times, &vin, mid, true);
    let in_fall = crossing_times(times, &vin, mid, false);
    let out_fall = crossing_times(times, &vout, mid, false);
    let out_rise = crossing_times(times, &vout, mid, true);
    let delay_fall_s = pair_delay(&in_rise, &out_fall)
        .ok_or_else(|| SpiceError::measurement("output never fell; is the inverter wired?"))?;
    let delay_rise_s = pair_delay(&in_fall, &out_rise)
        .ok_or_else(|| SpiceError::measurement("output never rose"))?;

    // Energy: supply energy over the second input period.
    let i_vdd = result.source_current(&circuit, chain.vdd_source);
    let (t0, t1) = (period / 10.0 + period, period / 10.0 + 2.0 * period);
    let t_last = times.last().copied().unwrap_or(0.0);
    let mut energy = 0.0;
    for i in 1..times.len() {
        let t = times[i];
        if t <= t0 || t > t1.min(t_last) {
            continue;
        }
        let dt = times[i] - times[i - 1];
        energy += vdd * (-i_vdd[i]) * dt;
    }
    // The bench contains 5 inverters' static draw; subtract it over the
    // period to isolate the switching energy of the driver + its load.
    // Floor the result at the electrostatic minimum C·V² of the load so
    // long-window leakage-subtraction noise can never produce a degenerate
    // zero-energy (hence zero-EDP) measurement.
    let static_bench = 5.0 * static_power_w;
    let energy_floor = c_load * vdd * vdd;
    let energy_dyn = (energy - static_bench * period).max(energy_floor);
    let dynamic_power_w = energy_dyn / period;
    Ok(InverterMetrics {
        delay_s: 0.5 * (delay_fall_s + delay_rise_s),
        delay_fall_s,
        delay_rise_s,
        static_power_w,
        dynamic_power_w,
        energy_per_cycle_j: energy_dyn,
        measure_period_s: period,
    })
}

fn pair_delay(input_edges: &[f64], output_edges: &[f64]) -> Option<f64> {
    // Use the last input edge that has a following output edge.
    for &tin in input_edges.iter().rev() {
        if let Some(&tout) = output_edges.iter().find(|&&t| t > tin) {
            return Some(tout - tin);
        }
    }
    None
}

/// Simulates a ring oscillator to steady oscillation and extracts its
/// metrics. `stage_delay_hint` sizes the simulation window (use the FO4
/// inverter delay; it only needs to be within ~10× of the truth).
///
/// # Errors
///
/// Returns [`SpiceError::Measurement`] if no stable oscillation appears.
pub fn ring_oscillator_metrics(
    ro: &RingOscillator,
    stage_delay_hint: f64,
    static_power_per_inverter: f64,
) -> Result<OscillatorMetrics, SpiceError> {
    let stages = ro.stage_outputs.len();
    let period_est = 2.0 * stages as f64 * stage_delay_hint;
    let mut opts = TransientOptions::new(6.0 * period_est, period_est / (stages as f64 * 60.0));
    // Kick the ring out of its metastable DC point.
    opts.initial_voltages = vec![(ro.stage_outputs[0], ro.vdd)];
    let result = transient_nominal(&ro.circuit, &opts, &ExecLimits::none())?;
    let times = result.times();
    let probe = result.voltage(&ro.circuit, ro.stage_outputs[stages / 2]);
    let rising = crossing_times(times, &probe, ro.vdd / 2.0, true);
    if rising.len() < 3 {
        return Err(SpiceError::measurement(format!(
            "ring oscillator produced only {} rising crossings",
            rising.len()
        )));
    }
    // Period: median of the last few cycles.
    let mut periods: Vec<f64> = rising.windows(2).map(|w| w[1] - w[0]).collect();
    let tail = periods.len().min(3);
    let start = periods.len() - tail;
    periods = periods[start..].to_vec();
    periods.sort_by(f64::total_cmp);
    let period_s = periods[periods.len() / 2];

    // Power over the last measured period.
    let i_vdd = result.source_current(&ro.circuit, ro.vdd_source);
    // A ring with ≥ 3 rising crossings necessarily has time points.
    let t_end = times.last().copied().unwrap_or(0.0);
    let t_begin = t_end - period_s;
    let mut energy = 0.0;
    for i in 1..times.len() {
        if times[i] <= t_begin {
            continue;
        }
        energy += ro.vdd * (-i_vdd[i]) * (times[i] - times[i - 1]);
    }
    let power_w = energy / period_s;
    // 4 inverters per stage (driver + 3 dummies). The static estimate is a
    // DC figure; during oscillation the true leakage is somewhat different,
    // so floor the dynamic component at a few percent of the total rather
    // than letting the subtraction collapse to zero.
    let static_power_w = static_power_per_inverter * 4.0 * stages as f64;
    let dynamic_power_w = (power_w - static_power_w).max(0.05 * power_w.abs());
    let stage_delay_s = period_s / (2.0 * stages as f64);
    let energy_per_transition_j = dynamic_power_w * period_s / (2.0 * stages as f64);
    Ok(OscillatorMetrics {
        frequency_hz: 1.0 / period_s,
        period_s,
        power_w,
        static_power_w,
        dynamic_power_w,
        stage_delay_s,
        energy_per_transition_j,
        edp_js: energy_per_transition_j * stage_delay_s,
    })
}

/// Estimates ring-oscillator metrics from FO4 inverter measurements — the
/// fast path used for the dense (V_DD, V_T) exploration grids. Validated
/// against the full transient in the integration tests.
pub fn estimate_oscillator_from_inverter(
    inv: &InverterMetrics,
    stages: usize,
) -> OscillatorMetrics {
    let period_s = 2.0 * stages as f64 * inv.delay_s;
    // Each stage dissipates the measured FO4 switching energy once per
    // oscillator period per edge pair.
    let energy_per_transition_j = inv.energy_per_cycle_j / 2.0;
    let dynamic_power_w = stages as f64 * inv.energy_per_cycle_j / period_s;
    let static_power_w = inv.static_power_w * 4.0 * stages as f64;
    OscillatorMetrics {
        frequency_hz: 1.0 / period_s,
        period_s,
        power_w: dynamic_power_w + static_power_w,
        static_power_w,
        dynamic_power_w,
        stage_delay_s: inv.delay_s,
        energy_per_transition_j,
        edp_js: energy_per_transition_j * inv.delay_s,
    }
}

/// Computes the DC voltage transfer curve of an inverter cell.
///
/// # Errors
///
/// Propagates DC sweep failures.
pub fn inverter_vtc(
    cell: &InverterCell,
    vdd: f64,
    points: usize,
) -> Result<Vec<(f64, f64)>, SpiceError> {
    let chain = single_inverter(cell, vdd)?;
    let values: Vec<f64> = (0..points.max(2))
        .map(|i| vdd * i as f64 / (points.max(2) - 1) as f64)
        .collect();
    transfer_curve(
        &chain.circuit,
        chain.input_source,
        &values,
        chain.output,
        DcOptions::default(),
    )
}

/// Extracts butterfly-curve noise margins from two inverter VTCs
/// (`vtc2` is mirrored across the diagonal), via a maximal-inscribed-square
/// search on a dense membership grid.
pub fn butterfly_snm(vtc1: &[(f64, f64)], vtc2: &[(f64, f64)], vdd: f64) -> NoiseMargins {
    let n = 220usize;
    let h = vdd / (n - 1) as f64;
    let f1 = |x: f64| interp_curve(vtc1, x);
    let f2 = |x: f64| interp_curve(vtc2, x);
    // Membership masks for the two lobes.
    let mut upper = vec![false; n * n];
    let mut lower = vec![false; n * n];
    for j in 0..n {
        let y = j as f64 * h;
        for i in 0..n {
            let x = i as f64 * h;
            // Upper-left eye: below curve-1, right of mirrored curve-2.
            upper[j * n + i] = y <= f1(x) && x >= f2(y);
            // Lower-right eye: above curve-1, left of mirrored curve-2.
            lower[j * n + i] = y >= f1(x) && x <= f2(y);
        }
    }
    NoiseMargins {
        upper_v: max_square(&upper, n) as f64 * h,
        lower_v: max_square(&lower, n) as f64 * h,
    }
}

/// Noise margins of a latch: butterfly of its two (possibly mismatched)
/// inverters, as in the paper's Fig. 7.
///
/// # Errors
///
/// Propagates VTC computation failures.
pub fn latch_noise_margins(latch: &Latch, points: usize) -> Result<NoiseMargins, SpiceError> {
    let vtc1 = inverter_vtc(&latch.inv_a, latch.vdd, points)?;
    let vtc2 = inverter_vtc(&latch.inv_b, latch.vdd, points)?;
    Ok(butterfly_snm(&vtc1, &vtc2, latch.vdd))
}

/// Static power of a latch holding a state: leakage of both inverters at
/// the stable operating point.
///
/// # Errors
///
/// Propagates DC failures.
pub fn latch_static_power(latch: &Latch) -> Result<f64, SpiceError> {
    Ok(inverter_static_power(&latch.inv_a, latch.vdd)?
        + inverter_static_power(&latch.inv_b, latch.vdd)?)
}

/// Butterfly-curve static noise margin of a bistable cell (e.g. the 6T
/// SRAM cell from the deck zoo) given its two storage nodes.
///
/// The loop is broken twice: a sweep source forces `q` while `V(qb)` is
/// recorded, then forces `qb` while `V(q)` is recorded; the two half
/// curves feed [`butterfly_snm`]. The input circuit is not modified — the
/// forcing source is appended to a clone. Works on any circuit, including
/// deck-elaborated ones (access transistors, word/bit lines and all).
///
/// # Errors
///
/// Propagates DC sweep failures.
pub fn sram_butterfly_snm(
    circuit: &crate::circuit::Circuit,
    q: NodeId,
    qb: NodeId,
    vdd: f64,
    points: usize,
) -> Result<NoiseMargins, SpiceError> {
    let points = points.max(2);
    let values: Vec<f64> = (0..points)
        .map(|i| vdd * i as f64 / (points - 1) as f64)
        .collect();
    let half_curve = |forced: NodeId, observed: NodeId| -> Result<Vec<(f64, f64)>, SpiceError> {
        let mut c = circuit.clone();
        let sweep_index = c.source_count();
        c.add(Element::VSource {
            p: forced,
            n: NodeId::GROUND,
            wave: Waveform::Dc(0.0),
        });
        transfer_curve(&c, sweep_index, &values, observed, DcOptions::default())
    };
    let vtc1 = half_curve(q, qb)?;
    let vtc2 = half_curve(qb, q)?;
    Ok(butterfly_snm(&vtc1, &vtc2, vdd))
}

/// Propagation delay between an input and an output waveform: the 50 %
/// crossing of the last input edge (of the given direction) to the first
/// later output crossing (of its direction). `None` if either waveform
/// never crosses `level` the right way.
pub fn propagation_delay(
    times: &[f64],
    vin: &[f64],
    vout: &[f64],
    level: f64,
    rising_in: bool,
    rising_out: bool,
) -> Option<f64> {
    let in_edges = crossing_times(times, vin, level, rising_in);
    let out_edges = crossing_times(times, vout, level, rising_out);
    pair_delay(&in_edges, &out_edges)
}

fn interp_curve(curve: &[(f64, f64)], x: f64) -> f64 {
    if curve.is_empty() {
        return 0.0;
    }
    if x <= curve[0].0 {
        return curve[0].1;
    }
    for w in curve.windows(2) {
        if x <= w[1].0 {
            let t = (x - w[0].0) / (w[1].0 - w[0].0).max(1e-300);
            return w[0].1 + t * (w[1].1 - w[0].1);
        }
    }
    curve.last().map_or(0.0, |p| p.1)
}

/// Classic maximal-square dynamic program over a boolean mask.
fn max_square(mask: &[bool], n: usize) -> usize {
    let mut dp = vec![0u32; n * n];
    let mut best = 0u32;
    for j in 0..n {
        for i in 0..n {
            if !mask[j * n + i] {
                continue;
            }
            let v = if i == 0 || j == 0 {
                1
            } else {
                1 + dp[(j - 1) * n + i]
                    .min(dp[j * n + i - 1])
                    .min(dp[(j - 1) * n + i - 1])
            };
            dp[j * n + i] = v;
            best = best.max(v);
        }
    }
    best as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_detection() {
        let times: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let wave = vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0];
        let rises = crossing_times(&times, &wave, 0.5, true);
        assert_eq!(rises.len(), 2);
        assert!((rises[0] - 1.5).abs() < 1e-12);
        let falls = crossing_times(&times, &wave, 0.5, false);
        assert_eq!(falls.len(), 2);
    }

    #[test]
    fn ideal_step_inverters_snm_is_half_vdd() {
        // Two ideal inverters switching at VDD/2: each butterfly lobe is a
        // VDD/2 x VDD/2 square.
        let vdd = 1.0;
        let vtc: Vec<(f64, f64)> = (0..=400)
            .map(|i| {
                let x = i as f64 / 400.0;
                (x, if x < 0.5 { 1.0 } else { 0.0 })
            })
            .collect();
        let nm = butterfly_snm(&vtc, &vtc, vdd);
        assert!((nm.upper_v - 0.5).abs() < 0.02, "upper {}", nm.upper_v);
        assert!((nm.lower_v - 0.5).abs() < 0.02);
        assert!((nm.snm() - 0.5).abs() < 0.02);
    }

    #[test]
    fn skewed_inverters_collapse_one_eye() {
        // Inverter 1 switches at 0.2, inverter 2 at 0.8: the butterfly is
        // asymmetric and the smaller eye shrinks towards zero.
        let vdd = 1.0;
        let mk = |vth: f64| -> Vec<(f64, f64)> {
            (0..=400)
                .map(|i| {
                    let x = i as f64 / 400.0;
                    (x, if x < vth { 1.0 } else { 0.0 })
                })
                .collect()
        };
        let nm = butterfly_snm(&mk(0.2), &mk(0.2), vdd);
        // Mirror of a 0.2-threshold inverter: upper eye [0, 0.2] x [0.2, 1].
        // Max square = 0.2; lower eye = [0.2, 1] x [0, 0.2] -> 0.2 as well.
        assert!((nm.snm() - 0.2).abs() < 0.02, "snm {}", nm.snm());
        // A mismatched pair gives different lobes.
        let nm = butterfly_snm(&mk(0.8), &mk(0.2), vdd);
        assert!(nm.upper_v > nm.lower_v, "{nm:?}");
    }

    #[test]
    fn linear_vtc_has_zero_snm() {
        // A "wire" (unity-gain line) has no regenerative lobes.
        let vtc: Vec<(f64, f64)> = (0..=100)
            .map(|i| {
                let x = i as f64 / 100.0;
                (x, 1.0 - x)
            })
            .collect();
        let nm = butterfly_snm(&vtc, &vtc, 1.0);
        // Lobe squares degenerate to grid resolution.
        assert!(nm.snm() < 0.02, "snm {}", nm.snm());
    }

    #[test]
    fn estimate_matches_definition() {
        let inv = InverterMetrics {
            delay_s: 10e-12,
            delay_fall_s: 9e-12,
            delay_rise_s: 11e-12,
            static_power_w: 1e-7,
            dynamic_power_w: 5e-7,
            energy_per_cycle_j: 2e-16,
            measure_period_s: 4e-10,
        };
        let ro = estimate_oscillator_from_inverter(&inv, 15);
        assert!((ro.period_s - 3e-10).abs() < 1e-20);
        assert!((ro.frequency_hz - 1.0 / 3e-10).abs() < 1.0);
        assert!((ro.stage_delay_s - 10e-12).abs() < 1e-20);
        assert!((ro.edp_js - 1e-16 * 10e-12).abs() < 1e-40);
    }
}
