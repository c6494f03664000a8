//! Transient analysis: backward-Euler or trapezoidal integration with
//! per-step Newton.
//!
//! Capacitors (linear and bias-dependent FET C_GS/C_GD from the lookup
//! tables) are replaced by their companion models each step; the FET
//! capacitances are evaluated at the previous step's bias, which keeps
//! each step's Newton problem smooth — the same
//! capacitance-from-lookup-table treatment the paper's simulator uses.
//! Backward Euler (default) is L-stable and damps the kinks the bilinear
//! tables introduce; trapezoidal integration offers second-order accuracy
//! for smooth waveforms.

use crate::circuit::{Circuit, Element, NodeId};
use crate::dc::{dc_operating_point, DcOptions};
use crate::error::SpiceError;
use crate::mna::{MnaSink, MnaSystem, ResidualOnly};
use gnr_num::budget::ExecLimits;
use gnr_num::par::ExecCtx;
use gnr_num::recover::{AttemptReport, EscalationLadder, SolveReport};
use gnr_num::telemetry;

/// Time-integration method for the transient engine.
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub enum Integrator {
    /// First-order, L-stable backward Euler (default; robust against the
    /// derivative kinks of bilinear device tables).
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule (more accurate for smooth circuits;
    /// can ring on discontinuities).
    Trapezoidal,
}

/// Most time steps one transient integration may take. Every caller in
/// the repository stays far below it: the FO4 measurement takes 6000
/// steps, a ring-oscillator measurement 360 per stage, the decks a few
/// hundred, and the default ladder's deepest `dt/8` rung eight times its
/// nominal count.
pub const MAX_TRANSIENT_STEPS: usize = 1_000_000;

/// Transient analysis controls.
#[derive(Clone, Debug, PartialEq)]
pub struct TransientOptions {
    /// Simulation stop time \[s\].
    pub t_stop: f64,
    /// Fixed time step \[s\].
    pub dt: f64,
    /// Newton controls per step.
    pub newton: DcOptions,
    /// Initial node voltages to impose instead of the DC operating point
    /// (used e.g. to kick a ring oscillator); nodes not listed start from
    /// the DC solution.
    pub initial_voltages: Vec<(NodeId, f64)>,
    /// Skip the initial DC solve and start from all-zeros (+ overrides).
    pub skip_dc: bool,
    /// Time-integration method.
    pub integrator: Integrator,
    /// Retry ladder run after a failed nominal integration.
    pub recovery: TransientRecovery,
}

impl TransientOptions {
    /// A standard configuration integrating to `t_stop` with step `dt`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientOptions {
            t_stop,
            dt,
            newton: DcOptions {
                tolerance_a: 1e-11,
                gmin_ladder: &[1e-9],
                ..DcOptions::default()
            },
            initial_voltages: Vec::new(),
            skip_dc: false,
            integrator: Integrator::default(),
            recovery: TransientRecovery::default(),
        }
    }

    /// Switches to trapezoidal integration.
    pub fn trapezoidal(mut self) -> Self {
        self.integrator = Integrator::Trapezoidal;
        self
    }

    /// Sets the initial node-voltage overrides.
    pub fn with_initial_voltages(mut self, overrides: Vec<(NodeId, f64)>) -> Self {
        self.initial_voltages = overrides;
        self
    }
}

impl Default for TransientOptions {
    /// A 1 ns window at a 1 ps step — set the `t_stop` and `dt` fields
    /// (or call [`TransientOptions::new`]) for another window.
    fn default() -> Self {
        TransientOptions::new(1e-9, 1e-12)
    }
}

/// Values per storage block of [`TransientResult`] (16 KiB): well below
/// glibc's default large-allocation threshold (128 KiB, served by `mmap`).
/// One run-sized buffer crosses it, and freeing such a buffer raises the
/// threshold, after which the process keeps more freed memory resident:
/// with one flat buffer, `flowbench` `circuit_decks` peak RSS went from a
/// median of 9.2 MiB to 11.3 MiB.
const RESULT_BLOCK_VALUES: usize = 2048;

/// Result of a transient run: the full solution vector at every accepted
/// time point, stored back to back in fixed-size blocks of whole vectors
/// (one allocation per block, not per time point).
#[derive(Clone, Debug)]
pub struct TransientResult {
    times: Vec<f64>,
    /// Solution vectors in time order, `points_per_block()` per block.
    blocks: Vec<Vec<f64>>,
    /// Length of one solution vector (the circuit's unknown count).
    width: usize,
    node_count: usize,
}

impl TransientResult {
    fn new(width: usize, node_count: usize) -> Self {
        TransientResult {
            times: Vec::new(),
            blocks: Vec::new(),
            width,
            node_count,
        }
    }

    fn points_per_block(&self) -> usize {
        (RESULT_BLOCK_VALUES / self.width.max(1)).max(1)
    }

    /// The solution vector at time point `k`.
    fn solution(&self, k: usize) -> &[f64] {
        let per_block = self.points_per_block();
        let offset = (k % per_block) * self.width;
        &self.blocks[k / per_block][offset..offset + self.width]
    }

    /// The time points \[s\].
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The solution vector at each time point, in time order.
    fn solution_vectors(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.times.len()).map(move |k| self.solution(k))
    }

    /// Voltage waveform of `node` \[V\].
    pub fn voltage(&self, circuit: &Circuit, node: NodeId) -> Vec<f64> {
        self.solution_vectors()
            .map(|x| circuit.voltage(x, node))
            .collect()
    }

    /// Branch-current waveform of the `k`-th voltage source \[A\].
    pub fn source_current(&self, circuit: &Circuit, k: usize) -> Vec<f64> {
        self.solution_vectors()
            .map(|x| circuit.source_current(x, k))
            .collect()
    }

    /// Number of accepted time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if the run produced no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The final solution vector.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty.
    pub fn final_solution(&self) -> &[f64] {
        let last = self.len().checked_sub(1).expect("empty transient result");
        self.solution(last)
    }

    fn push(&mut self, t: f64, x: &[f64]) {
        debug_assert_eq!(x.len(), self.width);
        let per_block = self.points_per_block();
        if self.times.len().is_multiple_of(per_block) {
            self.blocks.push(Vec::with_capacity(per_block * self.width));
        }
        self.times.push(t);
        self.blocks
            .last_mut()
            .expect("a block with room was just ensured")
            .extend_from_slice(x);
    }

    /// Internal: node count snapshot for sanity checks.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

/// Runs a transient analysis on an [`EscalationLadder`]: the nominal
/// integration first (the plain single attempt when it succeeds), then on
/// failure the `opts.recovery` rungs — timestep halvings down to
/// `dt_floor`, then, when `source_ramp` is set, one attempt seeded from a
/// source-stepped DC solution. The report records each attempt and the
/// winning policy.
///
/// # Errors
///
/// Propagates netlist validation, DC, and per-step Newton failures: the
/// budget stop when `ctx`'s limits trip, otherwise the first attempt's
/// error when every rung fails.
pub fn transient(
    ctx: &ExecCtx,
    circuit: &Circuit,
    opts: &TransientOptions,
) -> Result<(TransientResult, SolveReport), SpiceError> {
    telemetry::counter_inc("transient.solves");
    let limits = ctx.limits();
    let rec = &opts.recovery;
    #[derive(Clone)]
    enum Policy {
        Nominal,
        HalveDt(u32),
        SourceRamp,
    }
    let mut ladder = EscalationLadder::new().rung("nominal", Policy::Nominal);
    for k in 1..=rec.max_dt_halvings as u32 {
        ladder = ladder.rung(format!("dt/{}", 1u64 << k), Policy::HalveDt(k));
    }
    if rec.source_ramp {
        ladder = ladder.rung("source-ramp", Policy::SourceRamp);
    }

    let outcome = ladder.run(SpiceError::is_budget_stop, |_, policy| {
        let attempt_opts = match policy {
            Policy::Nominal => opts.clone(),
            Policy::HalveDt(k) => {
                let dt = opts.dt / f64::from(1u32 << *k);
                if dt < rec.dt_floor {
                    return AttemptReport::skipped(format!(
                        "dt {dt:.3e} s below floor {:.3e} s",
                        rec.dt_floor
                    ));
                }
                TransientOptions { dt, ..opts.clone() }
            }
            Policy::SourceRamp => {
                // Solve the operating point by ramping the sources, then
                // impose it as the starting state instead of the (failing)
                // direct DC solve.
                let x = match crate::dc::source_stepping(circuit, opts.newton, limits) {
                    Ok(x) => x,
                    Err(e) => return AttemptReport::failed(e),
                };
                let initial_voltages: Vec<(NodeId, f64)> = (1..circuit.node_count())
                    .map(|i| (NodeId(i), circuit.voltage(&x, NodeId(i))))
                    .collect();
                TransientOptions {
                    skip_dc: true,
                    initial_voltages,
                    ..opts.clone()
                }
            }
        };
        // Fault injection (disarmed in production): only rungs that would
        // actually run probe the injector, so floor-rejected rungs don't
        // consume a draw.
        if gnr_num::fault::should_fail("newton") {
            return AttemptReport::skipped("injected fault: transient attempt suppressed")
                .with_error(SpiceError::NewtonDiverged {
                    analysis: "transient step",
                    iterations: 0,
                    residual: f64::INFINITY,
                });
        }
        match transient_nominal(circuit, &attempt_opts, limits) {
            Ok(result) => {
                let steps = result.len();
                AttemptReport::converged(result, steps, f64::NAN)
            }
            Err(err) => AttemptReport::failed(err),
        }
    });
    let halvings = outcome
        .report
        .attempts
        .iter()
        .filter(|a| a.policy.starts_with("dt/"))
        .count();
    if halvings > 0 {
        telemetry::counter_add("transient.dt_halvings", halvings as u64);
    }
    if outcome.report.converged() && outcome.report.policy_used.as_deref() == Some("source-ramp") {
        telemetry::counter_inc("transient.source_ramp_rescues");
    }
    match outcome.result {
        Ok(result) => Ok((result, outcome.report)),
        Err(e) => Err(e.into_error(|| SpiceError::config("transient ladder was empty"))),
    }
}

/// The plain single-attempt integration engine behind [`transient`] — also
/// used by the measurement layer, whose pinned figures must never be
/// silently rescued by a ladder rung. Probes `limits` at every time step;
/// pass [`ExecLimits::none`] when unbudgeted.
pub(crate) fn transient_nominal(
    circuit: &Circuit,
    opts: &TransientOptions,
    limits: &ExecLimits,
) -> Result<TransientResult, SpiceError> {
    circuit.validate()?;
    if opts.dt.is_nan() || opts.dt <= 0.0 || opts.t_stop.is_nan() || opts.t_stop <= 0.0 {
        return Err(SpiceError::config("transient needs dt > 0 and t_stop > 0"));
    }
    // Bound the step count before anything is allocated: the result keeps
    // every step, and the cast below saturates instead of failing.
    let steps = (opts.t_stop / opts.dt).ceil();
    if !opts.t_stop.is_finite() || steps > MAX_TRANSIENT_STEPS as f64 {
        return Err(SpiceError::config(format!(
            "transient to t_stop {:e} s at dt {:e} s exceeds {MAX_TRANSIENT_STEPS} steps",
            opts.t_stop, opts.dt
        )));
    }
    let steps = steps as usize;
    let n = circuit.unknowns();
    // Initial state.
    let mut x = if opts.skip_dc {
        vec![0.0; n]
    } else {
        dc_operating_point(circuit, None, opts.newton, limits)?
    };
    for &(node, v) in &opts.initial_voltages {
        if let Some(i) = circuit.mna_index(node) {
            x[i] = v;
        }
    }
    let mut result = TransientResult::new(n, circuit.node_count());
    result.push(0.0, &x);

    let dt = opts.dt;
    // The step loop's working state is allocated here, once per run: the
    // linear system (the sparse backend's symbolic analysis and the dense
    // LU workspace serve every time step's Newton loop), the residual, the
    // previous solution, and the companion-model state, indexed by element
    // position in `circuit.elements()`.
    let mut sys = MnaSystem::for_circuit(circuit, opts.newton.solver);
    let mut res = vec![0.0; n];
    let mut x_prev = vec![0.0; n];
    let elements = circuit.elements().len();
    // FET capacitances frozen at the previous step's bias.
    let mut caps: FrozenCaps = vec![(0.0, 0.0); elements];
    // Per-branch capacitor current history (trapezoidal rule); zero at the
    // DC starting point by definition.
    let mut hist: BranchHistory = vec![[0.0; 2]; elements];
    let mut newton_iters: u64 = 0;

    for step in 1..=steps {
        limits.check("transient.step")?;
        let t = step as f64 * dt;
        x_prev.copy_from_slice(&x);
        // Freeze the FET capacitances at the previous bias for this step.
        freeze_capacitances(circuit, &x_prev, &mut caps);
        let mut newton_ok = false;
        let mut clamp = opts.newton.step_clamp_v;
        let mut prev_worst = f64::INFINITY;
        for _ in 0..opts.newton.max_iterations {
            newton_iters += 1;
            stamp_with_caps(
                circuit,
                &x,
                &x_prev,
                t,
                dt,
                &caps,
                opts.integrator,
                &hist,
                sys.sink(),
                &mut res,
            );
            // `max` silently drops NaN: probe non-finite residuals
            // explicitly so divergence fails fast with a typed error.
            if res.iter().any(|v| !v.is_finite()) {
                telemetry::counter_add("transient.newton_iterations", newton_iters);
                return Err(gnr_num::NumError::non_finite(format!(
                    "transient newton residual at t = {t:.3e} s"
                ))
                .into());
            }
            let worst = res.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if worst < opts.newton.tolerance_a {
                newton_ok = true;
                break;
            }
            // Same kink-safe damping as the DC engine.
            if worst >= prev_worst {
                clamp = (clamp * 0.5).max(1e-5);
            }
            prev_worst = worst;
            let dx = sys.solve(&res)?;
            for (xi, di) in x.iter_mut().zip(dx) {
                *xi -= di.clamp(-clamp, clamp);
            }
        }
        if !newton_ok {
            // Accept with a softened tolerance before failing outright;
            // only the residual is needed here, so skip the Jacobian.
            stamp_with_caps(
                circuit,
                &x,
                &x_prev,
                t,
                dt,
                &caps,
                opts.integrator,
                &hist,
                &mut ResidualOnly,
                &mut res,
            );
            let worst = res.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if worst > opts.newton.tolerance_a * 1e3 {
                return Err(SpiceError::NewtonDiverged {
                    analysis: "transient step",
                    iterations: opts.newton.max_iterations,
                    residual: worst,
                });
            }
        }
        if opts.integrator == Integrator::Trapezoidal {
            update_history(circuit, &x, &x_prev, dt, &caps, &mut hist);
        }
        result.push(t, &x);
    }
    // Aggregated per run, not per inner iteration, so the disarmed cost
    // stays a pair of atomic loads per transient.
    telemetry::counter_add("transient.steps", steps as u64);
    telemetry::counter_add("transient.newton_iterations", newton_iters);
    Ok(result)
}

/// Retry ladder of [`transient`] after a failed nominal integration.
#[derive(Clone, Debug, PartialEq)]
pub struct TransientRecovery {
    /// Maximum number of timestep halvings tried after the nominal run
    /// fails with [`SpiceError::NewtonDiverged`].
    pub max_dt_halvings: usize,
    /// Smallest timestep the halving ladder may use \[s\]; rungs below it
    /// are skipped.
    pub dt_floor: f64,
    /// After the halving ladder, retry once from a source-stepped DC
    /// solution imposed as initial node voltages (source ramping).
    pub source_ramp: bool,
}

impl Default for TransientRecovery {
    fn default() -> Self {
        TransientRecovery {
            max_dt_halvings: 3,
            dt_floor: 0.0,
            source_ramp: true,
        }
    }
}

/// Per-element capacitor current history, indexed by element position:
/// `[0]` is a capacitor's (or a FET's C_GS) branch, `[1]` a FET's C_GD
/// branch. Entries of other elements stay zero.
type BranchHistory = Vec<[f64; 2]>;

/// Trapezoidal branch current at the new solution:
/// `i_{n+1} = (2C/dt)·(v_{n+1} − v_n) − i_n`.
fn update_history(
    circuit: &Circuit,
    x: &[f64],
    x_prev: &[f64],
    dt: f64,
    caps: &FrozenCaps,
    hist: &mut BranchHistory,
) {
    let branch = |i_old: &mut f64, a: NodeId, b: NodeId, c: f64| {
        if c <= 0.0 {
            return;
        }
        let dv = (circuit.voltage(x, a) - circuit.voltage(x, b))
            - (circuit.voltage(x_prev, a) - circuit.voltage(x_prev, b));
        *i_old = 2.0 * c / dt * dv - *i_old;
    };
    for ((e, h), &(cgs, cgd)) in circuit.elements().iter().zip(hist.iter_mut()).zip(caps) {
        match e {
            Element::Capacitor { a, b, farads } => branch(&mut h[0], *a, *b, *farads),
            Element::Fet { d, g, s, .. } => {
                branch(&mut h[0], *g, *s, cgs);
                branch(&mut h[1], *g, *d, cgd);
            }
            _ => {}
        }
    }
}

/// Per-element frozen capacitance pair `(C_GS, C_GD)` for one step,
/// indexed by element position (only FET entries are meaningful).
type FrozenCaps = Vec<(f64, f64)>;

fn freeze_capacitances(circuit: &Circuit, x_prev: &[f64], caps: &mut FrozenCaps) {
    for (e, cap) in circuit.elements().iter().zip(caps.iter_mut()) {
        if let Element::Fet { d, g, s, table } = e {
            let vg = circuit.voltage(x_prev, *g);
            let vd = circuit.voltage(x_prev, *d);
            let vs = circuit.voltage(x_prev, *s);
            *cap = table.caps_intrinsic(vg - vs, vd - vs);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn stamp_with_caps(
    circuit: &Circuit,
    x: &[f64],
    x_prev: &[f64],
    t: f64,
    dt: f64,
    caps: &FrozenCaps,
    integrator: Integrator,
    hist: &BranchHistory,
    jac: &mut dyn MnaSink,
    res: &mut Vec<f64>,
) {
    // Companion models:
    //   backward Euler: i = (C/dt)·(v − v_prev)
    //   trapezoidal:    i = (2C/dt)·(v − v_prev) − i_prev
    let mut cap_stamp =
        |idx: usize, e: &Element, x: &[f64], jac: &mut dyn MnaSink, res: &mut Vec<f64>| {
            let stamp_pair = |i_prev: f64,
                              a: NodeId,
                              b: NodeId,
                              c: f64,
                              jac: &mut dyn MnaSink,
                              res: &mut Vec<f64>| {
                if c <= 0.0 {
                    return;
                }
                let v_now = circuit.voltage(x, a) - circuit.voltage(x, b);
                let v_old = circuit.voltage(x_prev, a) - circuit.voltage(x_prev, b);
                let (geq, i) = match integrator {
                    Integrator::BackwardEuler => {
                        let geq = c / dt;
                        (geq, geq * (v_now - v_old))
                    }
                    Integrator::Trapezoidal => {
                        let geq = 2.0 * c / dt;
                        (geq, geq * (v_now - v_old) - i_prev)
                    }
                };
                if let Some(ia) = circuit.mna_index(a) {
                    res[ia] += i;
                    jac.add(ia, ia, geq);
                    if let Some(ib) = circuit.mna_index(b) {
                        jac.add(ia, ib, -geq);
                    }
                }
                if let Some(ib) = circuit.mna_index(b) {
                    res[ib] -= i;
                    jac.add(ib, ib, geq);
                    if let Some(ia) = circuit.mna_index(a) {
                        jac.add(ib, ia, -geq);
                    }
                }
            };
            let h = hist[idx];
            match e {
                Element::Capacitor { a, b, farads } => {
                    stamp_pair(h[0], *a, *b, *farads, &mut *jac, res);
                }
                Element::Fet { d, g, s, .. } => {
                    let (cgs, cgd) = caps[idx];
                    stamp_pair(h[0], *g, *s, cgs, &mut *jac, res);
                    stamp_pair(h[1], *g, *d, cgd, &mut *jac, res);
                }
                _ => {}
            }
        };
    circuit.stamp(x, t, 1e-9, Some(&mut cap_stamp), jac, res);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Waveform;

    /// RC low-pass step response: v(t) = V (1 - e^{-t/RC}).
    #[test]
    fn rc_step_response() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let r = 1e3;
        let cap = 1e-12;
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-12,
                rise: 1e-13,
                fall: 1e-13,
                width: 1.0,
                period: 2.0,
            },
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: r,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: cap,
        });
        let tau = r * cap; // 1 ns
        let opts = TransientOptions::new(5.0 * tau, tau / 200.0);
        let (result, _) = transient(&ExecCtx::serial(), &c, &opts).unwrap();
        let v = result.voltage(&c, out);
        let times = result.times();
        // Compare against the analytic charging curve at a few points.
        for &frac in &[1.0, 2.0, 3.0] {
            let t_target = 1e-12 + frac * tau;
            let idx = times.iter().position(|&t| t >= t_target).unwrap();
            let expect = 1.0 - (-frac).exp();
            assert!(
                (v[idx] - expect).abs() < 0.02,
                "t={frac}tau: {} vs {expect}",
                v[idx]
            );
        }
        // Fully charged at the end.
        assert!((v.last().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn capacitor_holds_initial_voltage_without_drive() {
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: 1e12,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 1e-12,
        });
        let mut opts = TransientOptions::new(1e-9, 1e-11);
        opts.skip_dc = true;
        opts.initial_voltages = vec![(out, 0.7)];
        let (result, _) = transient(&ExecCtx::serial(), &c, &opts).unwrap();
        let v = result.voltage(&c, out);
        assert!((v[0] - 0.7).abs() < 1e-12);
        // Discharge through 1 TOhm over 1 ns is negligible.
        assert!((v.last().unwrap() - 0.7).abs() < 1e-3);
    }

    /// Trapezoidal integration is second-order on smooth waveforms:
    /// halving dt must cut the error ~4x, versus ~2x for backward Euler.
    /// The input is a resolved linear ramp (no discontinuity), for which
    /// the RC response has the closed form
    /// `v(t) = (t − τ(1 − e^{−t/τ})) / T_r`.
    #[test]
    fn trapezoidal_is_second_order() {
        let tau = 1e-9;
        let t_ramp = 2.0 * tau;
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let out = c.node("out");
            c.add(Element::VSource {
                p: vin,
                n: NodeId::GROUND,
                wave: Waveform::Pulse {
                    low: 0.0,
                    high: 1.0,
                    delay: 0.0,
                    rise: t_ramp,
                    fall: t_ramp,
                    width: 10.0 * tau,
                    period: 100.0 * tau,
                },
            });
            c.add(Element::Resistor {
                a: vin,
                b: out,
                ohms: 1e3,
            });
            c.add(Element::Capacitor {
                a: out,
                b: NodeId::GROUND,
                farads: 1e-12,
            });
            (c, out)
        };
        let error_at = |integrator: Integrator, dt: f64| -> f64 {
            let (c, out) = build();
            let mut opts = TransientOptions::new(t_ramp, dt);
            opts.integrator = integrator;
            opts.skip_dc = true;
            let (r, _) = transient(&ExecCtx::serial(), &c, &opts).expect("simulates");
            let v = r.voltage(&c, out);
            let times = r.times();
            v.iter()
                .zip(times)
                .map(|(vi, &t)| {
                    let exact = (t - tau * (1.0 - (-t / tau).exp())) / t_ramp;
                    (vi - exact).abs()
                })
                .fold(0.0f64, f64::max)
        };
        let be_coarse = error_at(Integrator::BackwardEuler, tau / 20.0);
        let be_fine = error_at(Integrator::BackwardEuler, tau / 40.0);
        let tr_coarse = error_at(Integrator::Trapezoidal, tau / 20.0);
        let tr_fine = error_at(Integrator::Trapezoidal, tau / 40.0);
        let be_ratio = be_coarse / be_fine;
        let tr_ratio = tr_coarse / tr_fine;
        assert!(
            (1.5..3.0).contains(&be_ratio),
            "backward euler order ~1: ratio {be_ratio:.2}"
        );
        assert!(tr_ratio > 3.2, "trapezoidal order ~2: ratio {tr_ratio:.2}");
        // And trapezoidal is more accurate outright at equal step.
        assert!(tr_coarse < be_coarse, "{tr_coarse:.3e} vs {be_coarse:.3e}");
    }

    #[test]
    fn integrators_agree_on_smooth_response() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Pulse {
                low: 0.0,
                high: 0.5,
                delay: 1e-10,
                rise: 2e-10,
                fall: 2e-10,
                width: 5e-10,
                period: 2e-9,
            },
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 2e3,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 0.5e-12,
        });
        let opts_be = TransientOptions::new(2e-9, 2e-12);
        let opts_tr = TransientOptions::new(2e-9, 2e-12).trapezoidal();
        let (r_be, _) = transient(&ExecCtx::serial(), &c, &opts_be).expect("be");
        let (r_tr, _) = transient(&ExecCtx::serial(), &c, &opts_tr).expect("tr");
        let v_be = r_be.voltage(&c, out);
        let v_tr = r_tr.voltage(&c, out);
        for (a, b) in v_be.iter().zip(&v_tr) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn recovery_nominal_run_matches_plain_transient() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 1e3,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 1e-12,
        });
        let opts = TransientOptions::new(2e-9, 2e-11);
        let plain = transient_nominal(&c, &opts, &ExecLimits::none()).unwrap();
        let (laddered, report) = transient(&ExecCtx::serial(), &c, &opts).unwrap();
        assert!(report.nominal());
        assert_eq!(report.policy_used.as_deref(), Some("nominal"));
        assert_eq!(plain.times(), laddered.times());
        assert_eq!(plain.final_solution(), laddered.final_solution());
    }

    #[test]
    fn transient_rejects_bad_options() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Element::Resistor {
            a,
            b: NodeId::GROUND,
            ohms: 1.0,
        });
        c.add(Element::VSource {
            p: a,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        // The ladder cannot rescue a configuration error.
        assert!(transient(&ExecCtx::serial(), &c, &TransientOptions::new(0.0, 1e-12)).is_err());
        assert!(transient(&ExecCtx::serial(), &c, &TransientOptions::new(1e-9, 0.0)).is_err());
    }

    #[test]
    fn transient_stops_on_exhausted_budget() {
        use gnr_num::budget::Budget;
        use gnr_num::NumError;
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 1e-12,
        });
        let mut opts = TransientOptions::new(1e-9, 1e-11);
        opts.skip_dc = true;
        opts.initial_voltages = vec![(out, 1.0)];
        // The ladder must not burn dt-halving rungs on an exhausted
        // budget: the typed stop of the nominal rung, no rescue.
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(2));
        let ctx = ExecCtx::serial().with_limits(limits);
        let err = transient(&ctx, &c, &opts).unwrap_err();
        match err {
            SpiceError::Linear(NumError::BudgetExhausted { site }) => {
                assert_eq!(site, "transient.step");
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_transient_residual_fails_fast() {
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
        let mut opts = TransientOptions::new(1e-10, 1e-11);
        opts.skip_dc = true;
        let err = transient(&ExecCtx::serial(), &c, &opts).unwrap_err();
        assert!(
            matches!(err, SpiceError::Linear(NumError::NonFinite { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn rc_discharge_from_initial_condition() {
        let mut c = Circuit::new();
        let out = c.node("out");
        let r = 1e3;
        let cap = 1e-12;
        c.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: r,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: cap,
        });
        let tau = r * cap;
        let mut opts = TransientOptions::new(3.0 * tau, tau / 100.0);
        opts.skip_dc = true;
        opts.initial_voltages = vec![(out, 1.0)];
        let (result, _) = transient(&ExecCtx::serial(), &c, &opts).unwrap();
        let v = result.voltage(&c, out);
        let times = result.times();
        let idx = times.iter().position(|&t| t >= tau).unwrap();
        assert!(
            (v[idx] - (-1.0f64).exp()).abs() < 0.02,
            "v(tau) = {}",
            v[idx]
        );
    }
}
