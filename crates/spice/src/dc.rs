//! DC analyses: Newton operating point, sweeps, and voltage transfer
//! curves.

use crate::circuit::{Circuit, NodeId};
use crate::error::SpiceError;
use crate::mna::{MnaSolverKind, MnaSystem, ResidualOnly};
use gnr_num::budget::ExecLimits;
use gnr_num::telemetry;

/// True when `e` wraps a budget-stop numeric error ([`gnr_num::NumError`]
/// `BudgetExhausted` / `Cancelled`): these must propagate unchanged instead
/// of triggering further rescue stages.
pub(crate) fn is_budget_stop(e: &SpiceError) -> bool {
    matches!(e, SpiceError::Linear(inner) if inner.is_budget_stop())
}

/// Newton iteration controls for DC solves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcOptions {
    /// Maximum Newton iterations per gmin step.
    pub max_iterations: usize,
    /// KCL residual convergence target \[A\].
    pub tolerance_a: f64,
    /// Per-iteration voltage update clamp \[V\] (Newton damping).
    pub step_clamp_v: f64,
    /// gmin homotopy ladder (descending); the last entry is used for the
    /// final solve and should be small enough not to load the circuit.
    pub gmin_ladder: &'static [f64],
    /// Linear-system backend: legacy dense, KLU-style sparse, or size-based
    /// auto selection (the default).
    pub solver: MnaSolverKind,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            max_iterations: 400,
            tolerance_a: 1e-12,
            step_clamp_v: 0.1,
            gmin_ladder: &[1e-3, 1e-6, 1e-9, 1e-12],
            solver: MnaSolverKind::Auto,
        }
    }
}

impl DcOptions {
    /// Sets the maximum Newton iterations per gmin step.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the KCL residual convergence target \[A\].
    pub fn with_tolerance_a(mut self, tol: f64) -> Self {
        self.tolerance_a = tol;
        self
    }

    /// Sets the per-iteration voltage update clamp \[V\].
    pub fn with_step_clamp_v(mut self, clamp: f64) -> Self {
        self.step_clamp_v = clamp;
        self
    }

    /// Sets the gmin homotopy ladder (descending conductances).
    pub fn with_gmin_ladder(mut self, ladder: &'static [f64]) -> Self {
        self.gmin_ladder = ladder;
        self
    }

    /// Selects the linear-system backend.
    pub fn with_solver(mut self, solver: MnaSolverKind) -> Self {
        self.solver = solver;
        self
    }
}

/// Solves the DC operating point at time `t = 0`, starting from `x0`
/// (zeros if `None`), with gmin stepping for robustness. When the gmin
/// ladder fails from every seed, source stepping (ramping all sources up
/// from a fraction of their value with warm starts) is tried as a last
/// resort.
///
/// The budget is probed at every gmin stage and ramp step, and a budget
/// stop aborts the rescue chain (mid-rail seeds, source stepping) instead
/// of burning it. Pass [`ExecLimits::none`] (or `ctx.limits()` from an
/// unlimited context) for the plain unbudgeted call.
///
/// # Errors
///
/// Returns [`SpiceError::NewtonDiverged`] if the final gmin stage fails,
/// propagates netlist/linear errors, and surfaces
/// [`gnr_num::NumError::BudgetExhausted`] / `Cancelled` (via
/// [`SpiceError::Linear`]) when `limits` trips.
pub fn dc_operating_point(
    circuit: &Circuit,
    x0: Option<&[f64]>,
    opts: DcOptions,
    limits: &ExecLimits,
) -> Result<Vec<f64>, SpiceError> {
    circuit.validate()?;
    let n = circuit.unknowns();
    // One linear system per circuit: the sparse backend's symbolic
    // analysis is paid here once and reused by every gmin stage and seed.
    let mut sys = MnaSystem::for_circuit(circuit, opts.solver);
    let mut run_ladder = |start: Vec<f64>| -> Result<Vec<f64>, SpiceError> {
        let mut x = start;
        for (stage, &gmin) in opts.gmin_ladder.iter().enumerate() {
            limits.check("dc.gmin_stage")?;
            let is_last = stage == opts.gmin_ladder.len() - 1;
            match newton(circuit, &mut x, 0.0, gmin, opts, &mut sys) {
                Ok(()) => {}
                Err(e) if is_last || is_budget_stop(&e) => return Err(e),
                Err(_) => { /* keep the best-effort x and tighten gmin anyway */ }
            }
        }
        Ok(x)
    };
    let primary = match x0 {
        Some(v) if v.len() == n => v.to_vec(),
        _ => vec![0.0; n],
    };
    // Fault injection (disarmed in production): pretend the gmin ladder and
    // mid-rail seeds diverged, forcing the source-stepping fallback.
    let forced_fail = gnr_num::fault::should_fail("newton-dc");
    let primary_result = if forced_fail {
        Err(SpiceError::NewtonDiverged {
            analysis: "dc",
            iterations: 0,
            residual: f64::INFINITY,
        })
    } else {
        run_ladder(primary)
    };
    match primary_result {
        Ok(x) => Ok(x),
        Err(first_err) if is_budget_stop(&first_err) => Err(first_err),
        Err(first_err) => {
            // Cold-start fallback: seed every node at half the largest
            // source magnitude (mid-rail), which sits inside the high-gain
            // transition region where the zero seed can strand Newton.
            let vmax = circuit
                .elements()
                .iter()
                .filter_map(|e| match e {
                    crate::circuit::Element::VSource { wave, .. } => Some(wave.value(0.0).abs()),
                    _ => None,
                })
                .fold(0.0f64, f64::max);
            if vmax == 0.0 {
                return Err(first_err);
            }
            if !forced_fail {
                let n_nodes = circuit.node_count() - 1;
                for frac in [0.5, 1.0, 0.25] {
                    let mut seed = vec![0.0; n];
                    for v in seed.iter_mut().take(n_nodes) {
                        *v = vmax * frac;
                    }
                    match run_ladder(seed) {
                        Ok(x) => return Ok(x),
                        Err(e) if is_budget_stop(&e) => return Err(e),
                        Err(_) => {}
                    }
                }
            }
            // Source stepping: ramp every source from a quarter of its
            // value to full drive, warm-starting each step from the last.
            match source_stepping(circuit, opts, limits) {
                Err(e) if is_budget_stop(&e) => Err(e),
                Ok(x) => {
                    telemetry::counter_inc("spice.dc.source_stepping_rescues");
                    Ok(x)
                }
                Err(stepping_err) => {
                    telemetry::counter_inc("spice.dc.source_stepping_failures");
                    Err(SpiceError::RescueChainFailed {
                        analysis: "dc",
                        attempted: &["gmin-ladder", "mid-rail-seeds", "source-stepping"],
                        primary: Box::new(first_err),
                        last: Box::new(stepping_err),
                    })
                }
            }
        }
    }
}

/// Solves the operating point by ramping every voltage source up from a
/// fraction of its `t = 0` value, warm-starting each ramp step with the
/// previous solution. This is the classic homotopy for circuits whose
/// full-drive Newton problem has no reachable solution from any cold seed.
pub(crate) fn source_stepping(
    circuit: &Circuit,
    opts: DcOptions,
    limits: &ExecLimits,
) -> Result<Vec<f64>, SpiceError> {
    use crate::circuit::{Element, Waveform};
    // Fault injection (disarmed in production): pretend the ramp diverged,
    // driving the caller into the RescueChainFailed double-failure path.
    if gnr_num::fault::should_fail("dc.source_stepping") {
        return Err(SpiceError::NewtonDiverged {
            analysis: "dc-source-stepping",
            iterations: 0,
            residual: f64::INFINITY,
        });
    }
    let originals: Vec<f64> = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::VSource { wave, .. } => Some(wave.value(0.0)),
            _ => None,
        })
        .collect();
    let mut scaled = circuit.clone();
    let mut x = vec![0.0; circuit.unknowns()];
    // Source scaling changes values, never the pattern: one system (and
    // one symbolic analysis) serves the whole ramp.
    let mut sys = MnaSystem::for_circuit(circuit, opts.solver);
    for frac in [0.25, 0.5, 0.75, 1.0] {
        limits.check("dc.source_step")?;
        let mut k = 0;
        for e in circuit_elements_mut(&mut scaled) {
            if let Element::VSource { wave, .. } = e {
                // At t = 0 the scaled DC wave stamps identically to the
                // original waveform scaled by `frac`.
                *wave = Waveform::Dc(originals[k] * frac);
                k += 1;
            }
        }
        let full_drive = frac == 1.0;
        for (stage, &gmin) in opts.gmin_ladder.iter().enumerate() {
            let is_last = stage == opts.gmin_ladder.len() - 1;
            match newton(&scaled, &mut x, 0.0, gmin, opts, &mut sys) {
                Ok(()) => {}
                Err(e) if (is_last && full_drive) || is_budget_stop(&e) => return Err(e),
                Err(_) => { /* intermediate ramp steps may stay loose */ }
            }
        }
    }
    Ok(x)
}

/// One Newton solve at fixed time and gmin; `x` is updated in place. The
/// caller owns the linear system so its (sparse) symbolic analysis is
/// shared across stages and warm starts.
pub(crate) fn newton(
    circuit: &Circuit,
    x: &mut [f64],
    t: f64,
    gmin: f64,
    opts: DcOptions,
    sys: &mut MnaSystem,
) -> Result<(), SpiceError> {
    let n = circuit.unknowns();
    let mut res = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut trial_res = vec![0.0; n];
    let worst_of = |r: &[f64]| r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    // Iterations are accumulated locally and recorded once per call so the
    // disarmed path costs a single relaxed atomic load, not one per step.
    let mut iters: u64 = 0;
    let record = |iters: u64| {
        telemetry::counter_inc("spice.newton.calls");
        telemetry::counter_add("spice.newton.iterations", iters);
    };
    // `worst_of`'s `max` silently drops NaN, so divergence to non-finite
    // values must be probed explicitly or Newton spins to max-iteration on
    // garbage.
    let non_finite = |r: &[f64]| r.iter().any(|v| !v.is_finite());
    for _ in 0..opts.max_iterations {
        circuit.stamp(x, t, gmin, None, sys.sink(), &mut res);
        if non_finite(&res) {
            record(iters);
            return Err(gnr_num::NumError::non_finite(format!(
                "newton residual at t = {t}, gmin = {gmin}"
            ))
            .into());
        }
        let worst = worst_of(&res);
        if worst < opts.tolerance_a {
            record(iters);
            return Ok(());
        }
        iters += 1;
        let dx = sys.solve(&res)?;
        // Residual line search: bilinear lookup tables have kinked
        // derivatives that make full Newton steps limit-cycle between grid
        // cells; backtracking on the residual norm restores global
        // convergence. Steps are also clamped per unknown for robustness
        // far from the solution. Trial points only need the residual, so
        // the backtracks skip the Jacobian assembly entirely.
        let mut accepted = false;
        let mut scale = 1.0;
        for _ in 0..7 {
            for i in 0..n {
                let step = (scale * dx[i]).clamp(-opts.step_clamp_v, opts.step_clamp_v);
                trial[i] = x[i] - step;
            }
            circuit.stamp(&trial, t, gmin, None, &mut ResidualOnly, &mut trial_res);
            if worst_of(&trial_res) < worst {
                x.copy_from_slice(&trial);
                accepted = true;
                break;
            }
            scale *= 0.5;
        }
        if !accepted {
            // Residual local minimum at a table kink: take the smallest
            // step anyway to hop cells and keep iterating.
            x.copy_from_slice(&trial);
        }
    }
    // Final residual check after the last update (residual-only). Accept a
    // relaxed band: stacks of off devices leave near-floating internal
    // nodes whose Jacobian is so flat that Newton stalls at a physically
    // negligible residual (tens of nA against uA-scale signal currents);
    // genuine non-convergence shows residuals orders of magnitude above
    // this.
    circuit.stamp(x, t, gmin, None, &mut ResidualOnly, &mut res);
    record(iters);
    if non_finite(&res) {
        return Err(gnr_num::NumError::non_finite(format!(
            "newton residual at t = {t}, gmin = {gmin}"
        ))
        .into());
    }
    let worst = worst_of(&res);
    if worst < opts.tolerance_a * 1e5 {
        return Ok(());
    }
    telemetry::counter_inc("spice.newton.failures");
    Err(SpiceError::NewtonDiverged {
        analysis: "dc",
        iterations: opts.max_iterations,
        residual: worst,
    })
}

/// Computes a voltage transfer curve: sweeps the waveform value of source
/// `swept_source` (by index) across `values`, recording the voltage of
/// `out`. Uses continuation (warm starts) along the sweep.
///
/// # Errors
///
/// Propagates DC solve failures.
pub fn transfer_curve(
    circuit: &Circuit,
    swept_source: usize,
    values: &[f64],
    out: NodeId,
    opts: DcOptions,
) -> Result<Vec<(f64, f64)>, SpiceError> {
    let mut modified = circuit.clone();
    let mut curve = Vec::with_capacity(values.len());
    let mut x: Option<Vec<f64>> = None;
    let mut prev_v: Option<f64> = None;
    for &v in values {
        let sol = solve_with_continuation(
            &mut modified,
            swept_source,
            prev_v,
            v,
            x.as_deref(),
            opts,
            0,
        )?;
        curve.push((v, modified.voltage(&sol, out)));
        x = Some(sol);
        prev_v = Some(v);
    }
    Ok(curve)
}

/// Solves at sweep value `v`, bisecting the step from `prev_v` when the
/// high-gain transition region makes the direct jump diverge.
fn solve_with_continuation(
    circuit: &mut Circuit,
    swept_source: usize,
    prev_v: Option<f64>,
    v: f64,
    x0: Option<&[f64]>,
    opts: DcOptions,
    depth: usize,
) -> Result<Vec<f64>, SpiceError> {
    set_source_value(circuit, swept_source, v)?;
    match dc_operating_point(circuit, x0, opts, &ExecLimits::none()) {
        Ok(sol) => Ok(sol),
        Err(e) => {
            let Some(pv) = prev_v else { return Err(e) };
            if depth >= 8 {
                return Err(e);
            }
            let mid = 0.5 * (pv + v);
            let half =
                solve_with_continuation(circuit, swept_source, Some(pv), mid, x0, opts, depth + 1)?;
            solve_with_continuation(
                circuit,
                swept_source,
                Some(mid),
                v,
                Some(&half),
                opts,
                depth + 1,
            )
        }
    }
}

/// Overwrites the DC value of the `k`-th voltage source.
///
/// # Errors
///
/// Returns [`SpiceError::Config`] if the index is out of range.
pub fn set_source_value(circuit: &mut Circuit, k: usize, volts: f64) -> Result<(), SpiceError> {
    use crate::circuit::{Element, Waveform};
    let mut idx = 0;
    // Elements are private to the crate through this helper only.
    for e in circuit_elements_mut(circuit) {
        if let Element::VSource { wave, .. } = e {
            if idx == k {
                *wave = Waveform::Dc(volts);
                return Ok(());
            }
            idx += 1;
        }
    }
    Err(SpiceError::config(format!("no voltage source #{k}")))
}

/// Replaces the full waveform of the `k`-th voltage source (e.g. swapping
/// a DC bias for a pulse before a transient run).
///
/// # Errors
///
/// Returns [`SpiceError::Config`] if the index is out of range.
pub fn set_source_wave(
    circuit: &mut Circuit,
    k: usize,
    wave: crate::circuit::Waveform,
) -> Result<(), SpiceError> {
    use crate::circuit::Element;
    let mut idx = 0;
    for e in circuit_elements_mut(circuit) {
        if let Element::VSource { wave: w, .. } = e {
            if idx == k {
                *w = wave;
                return Ok(());
            }
            idx += 1;
        }
    }
    Err(SpiceError::config(format!("no voltage source #{k}")))
}

/// Crate-internal mutable access to the element list.
pub(crate) fn circuit_elements_mut(c: &mut Circuit) -> &mut [crate::circuit::Element] {
    // Circuit stores elements privately; expose them within the crate.
    c.elements_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Element, Waveform};

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(3.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: mid,
            ohms: 2e3,
        });
        c.add(Element::Resistor {
            a: mid,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let x = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).unwrap();
        assert!((c.voltage(&x, mid) - 1.0).abs() < 1e-9);
        // Source current: 3 V across 3 kOhm = 1 mA flowing out of the
        // source's positive terminal into the circuit -> branch current is
        // -1 mA with the MNA sign convention (current into the + terminal).
        assert!((c.source_current(&x, 0).abs() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn wheatstone_bridge() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let l = c.node("l");
        let r = c.node("r");
        c.add(Element::VSource {
            p: top,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        for (a, b, ohms) in [
            (top, l, 1e3),
            (top, r, 1e3),
            (l, NodeId::GROUND, 1e3),
            (r, NodeId::GROUND, 1e3),
            (l, r, 5e2),
        ] {
            c.add(Element::Resistor { a, b, ohms });
        }
        let x = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).unwrap();
        // Balanced bridge: no current through the middle resistor.
        assert!((c.voltage(&x, l) - c.voltage(&x, r)).abs() < 1e-9);
        assert!((c.voltage(&x, l) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacitors_are_open_in_dc() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Element::VSource {
            p: a,
            n: NodeId::GROUND,
            wave: Waveform::Dc(2.0),
        });
        c.add(Element::Resistor { a, b, ohms: 1e3 });
        c.add(Element::Capacitor {
            a: b,
            b: NodeId::GROUND,
            farads: 1e-15,
        });
        let x = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).unwrap();
        // No DC path through the cap: b floats up to a's voltage (gmin
        // leaks it negligibly towards ground).
        assert!((c.voltage(&x, b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn source_stepping_solves_linear_circuit() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(3.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: mid,
            ohms: 2e3,
        });
        c.add(Element::Resistor {
            a: mid,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let x = source_stepping(&c, DcOptions::default(), &ExecLimits::none()).unwrap();
        assert!((c.voltage(&x, mid) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_residual_fails_fast_with_typed_error() {
        use gnr_num::NumError;
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(f64::NAN),
        });
        c.add(Element::Resistor {
            a: vin,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let err =
            dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).unwrap_err();
        match err {
            SpiceError::Linear(NumError::NonFinite { detail }) => {
                assert!(detail.contains("newton residual"), "detail: {detail}");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn dc_stops_on_exhausted_budget() {
        use gnr_num::budget::Budget;
        use gnr_num::NumError;
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(0));
        let err = dc_operating_point(&c, None, DcOptions::default(), &limits).unwrap_err();
        assert!(
            matches!(err, SpiceError::Linear(NumError::BudgetExhausted { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn set_source_value_rejects_bad_index() {
        let mut c = Circuit::new();
        assert!(set_source_value(&mut c, 0, 1.0).is_err());
    }

    #[test]
    fn sweep_linear_circuit() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(0.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: mid,
            ohms: 1e3,
        });
        c.add(Element::Resistor {
            a: mid,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let values: Vec<f64> = (0..5).map(|i| i as f64 * 0.5).collect();
        let curve = transfer_curve(&c, 0, &values, mid, DcOptions::default()).unwrap();
        for (vin, vout) in curve {
            assert!((vout - vin / 2.0).abs() < 1e-9);
        }
    }
}
