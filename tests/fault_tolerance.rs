//! Fault-injection suite for the convergence safety net.
//!
//! Uses the deterministic injector (`gnr_num::fault`) to force each
//! failure mode the recovery subsystem covers — SCF divergence, SPICE
//! Newton divergence (transient and DC), and linear-solver failure — and
//! asserts the escalation ladders recover or degrade with the correct
//! report. Also runs a 200-sample Monte Carlo under injected
//! characterization faults to completion, with every fault logged by
//! sample id and stage, and checks the disarmed paths are bit-identical
//! to the plain entry points.
//!
//! The injector is process-global, so every test that arms it serializes
//! through [`injector_lock`] and disarms before releasing.

use gnrlab::device::scf::ScfOptions;
use gnrlab::device::{DeviceConfig, ScfSolver};
use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};
use gnrlab::num::budget::{Budget, ExecLimits};
use gnrlab::num::fault::{self, FaultPlan};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::recover::solve_linear_robust;
use gnrlab::num::solver::IterControl;
use gnrlab::num::telemetry;
use gnrlab::num::NumError;
use gnrlab::num::TripletBuilder;
use gnrlab::spice::dc::{dc_operating_point, DcOptions};
use gnrlab::spice::transient::{transient, TransientOptions, TransientRecovery};
use gnrlab::spice::{Circuit, Element, NodeId, SpiceError, Waveform};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The fault injector is process-global: tests that arm it must not
/// overlap. Poisoned locks are recovered (a failed test must not cascade).
fn injector_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Disarms on drop so a panicking assertion cannot leak an armed plan
/// into the next test.
struct ArmedPlan;

impl ArmedPlan {
    fn arm(plan: FaultPlan) -> Self {
        fault::arm(plan);
        ArmedPlan
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn scf_solver() -> ScfSolver {
    let mut cfg = DeviceConfig::test_small(9).expect("valid test config");
    cfg.channel_cells = 12;
    ScfSolver::new(&cfg, ScfOptions::fast())
}

fn rc_circuit() -> (Circuit, NodeId) {
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
    (c, out)
}

// ---------------------------------------------------------------- SCF --

#[test]
fn sustained_scf_faults_exhaust_the_ladder_cleanly() {
    let _g = injector_lock();
    // p = 1.0 suppresses every rung: the solve must fail with a divergence
    // error (no panic, no bogus result) after probing all four rungs.
    let _armed = ArmedPlan::arm(FaultPlan::seeded(11).with_site("scf", 1.0));
    let solver = scf_solver();
    let err = solver.solve(&ExecCtx::serial(), 0.0, 0.1).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("did not converge"),
        "expected divergence error, got: {msg}"
    );
    assert_eq!(fault::injection_count("scf"), 4, "all four rungs probed");
}

#[test]
fn intermittent_scf_fault_recovers_with_correct_report() {
    let _g = injector_lock();
    // Seed chosen so the site stream fails the nominal attempt and passes
    // a later one (verified by the probe/injection counters below).
    let seed = (0..u64::MAX)
        .find(|&s| {
            let _armed = ArmedPlan::arm(FaultPlan::seeded(s).with_site("probe", 0.6));
            fault::should_fail("probe") && !fault::should_fail("probe")
        })
        .expect("some seed fails then passes");
    let _armed = ArmedPlan::arm(FaultPlan::seeded(seed).with_site("scf", 0.6));
    let solver = scf_solver();
    let (result, report) = solver
        .solve(&ExecCtx::serial(), 0.0, 0.1)
        .expect("ladder recovers");
    assert!(report.converged());
    assert!(!report.nominal(), "nominal rung was suppressed");
    assert!(report.attempts.len() >= 2);
    assert_eq!(
        report.attempts[0].error.as_deref(),
        Some("injected fault: scf attempt suppressed")
    );
    assert!(result.current_a.is_finite());
    assert!(fault::injection_count("scf") >= 1);
}

#[test]
fn scf_recovery_disarmed_is_bit_identical_to_plain_solve() {
    let _g = injector_lock();
    fault::disarm();
    let solver = scf_solver();
    let (plain, _) = solver
        .solve(&ExecCtx::strict(), 0.5, 0.1)
        .expect("plain solve");
    let (laddered, report) = solver
        .solve(&ExecCtx::serial(), 0.5, 0.1)
        .expect("laddered solve");
    assert!(report.nominal());
    assert_eq!(plain.current_a.to_bits(), laddered.current_a.to_bits());
    assert_eq!(plain.charge_c.to_bits(), laddered.charge_c.to_bits());
    assert_eq!(plain.layer_potential_ev, laddered.layer_potential_ev);
}

// ---------------------------------------------------- SPICE transient --

#[test]
fn injected_newton_fault_triggers_dt_halving() {
    let _g = injector_lock();
    // Kill exactly the first transient attempt: probability 1.0 would kill
    // every rung, so find a seed whose "newton" stream fails once then
    // passes.
    let seed = (0..u64::MAX)
        .find(|&s| {
            let _armed = ArmedPlan::arm(FaultPlan::seeded(s).with_site("newton", 0.6));
            fault::should_fail("newton") && !fault::should_fail("newton")
        })
        .expect("some seed fails then passes");
    let _armed = ArmedPlan::arm(FaultPlan::seeded(seed).with_site("newton", 0.6));
    let (c, out) = rc_circuit();
    let opts = TransientOptions::new(2e-9, 2e-11);
    let (result, report) = transient(&ExecCtx::serial(), &c, &opts).expect("recovers");
    assert!(report.converged());
    assert_eq!(report.policy_used.as_deref(), Some("dt/2"));
    assert_eq!(
        report.attempts[0].error.as_deref(),
        Some("injected fault: transient attempt suppressed")
    );
    // The rescued run is exactly a plain transient at the halved step.
    fault::disarm();
    let (halved, _) = transient(&ExecCtx::strict(), &c, &TransientOptions::new(2e-9, 1e-11))
        .expect("plain halved run");
    let v = result.voltage(&c, out);
    assert_eq!(v.len(), halved.voltage(&c, out).len());
    assert!(
        v.len() > 150,
        "halved dt must roughly double the 101 points"
    );
    assert!((v.last().copied().unwrap() - 1.0).abs() < 0.01);
}

#[test]
fn dt_floor_skips_rungs_and_source_ramp_rescues() {
    let _g = injector_lock();
    // Suppress every transient attempt except the final source-ramp rung:
    // 1 nominal + 3 halvings = 4 failures, then pass.
    let seed = (0..u64::MAX)
        .find(|&s| {
            let _armed = ArmedPlan::arm(FaultPlan::seeded(s).with_site("newton", 0.7));
            let first_four = (0..4).all(|_| fault::should_fail("newton"));
            first_four && !fault::should_fail("newton")
        })
        .expect("some seed fails 4x then passes");
    let _armed = ArmedPlan::arm(FaultPlan::seeded(seed).with_site("newton", 0.7));
    let (c, out) = rc_circuit();
    let mut opts = TransientOptions::new(2e-9, 2e-11);
    opts.recovery = TransientRecovery {
        max_dt_halvings: 3,
        dt_floor: 0.0,
        source_ramp: true,
    };
    let (result, report) = transient(&ExecCtx::serial(), &c, &opts).expect("source ramp rescues");
    assert!(report.converged());
    assert_eq!(report.policy_used.as_deref(), Some("source-ramp"));
    assert_eq!(report.attempts.len(), 5);
    let v = result.voltage(&c, out);
    // The ramped DC start imposes the operating point, so the output is
    // already settled at t = 0.
    assert!((v[0] - 1.0).abs() < 1e-6);
}

#[test]
fn dt_floor_is_respected() {
    let _g = injector_lock();
    let _armed = ArmedPlan::arm(FaultPlan::seeded(3).with_site("newton", 1.0));
    let (c, _) = rc_circuit();
    let mut opts = TransientOptions::new(2e-9, 2e-11);
    opts.recovery = TransientRecovery {
        max_dt_halvings: 3,
        dt_floor: 1.5e-11, // dt/2 = 1e-11 is already below the floor
        source_ramp: false,
    };
    let err = transient(&ExecCtx::serial(), &c, &opts).unwrap_err();
    assert!(
        err.to_string().contains("did not converge"),
        "expected Newton divergence, got: {err}"
    );
    // Only the nominal rung consumed an injection; the floored rungs were
    // rejected before probing the injector.
    assert_eq!(fault::injection_count("newton"), 1);
}

#[test]
fn transient_recovery_disarmed_matches_plain_transient() {
    let _g = injector_lock();
    fault::disarm();
    let (c, out) = rc_circuit();
    let opts = TransientOptions::new(2e-9, 2e-11);
    let (plain, _) = transient(&ExecCtx::strict(), &c, &opts).expect("plain");
    let (laddered, report) = transient(&ExecCtx::serial(), &c, &opts).expect("laddered");
    assert!(report.nominal());
    let vp = plain.voltage(&c, out);
    let vl = laddered.voltage(&c, out);
    assert_eq!(vp.len(), vl.len());
    for (a, b) in vp.iter().zip(&vl) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

// ----------------------------------------------------------- SPICE DC --

#[test]
fn injected_dc_fault_falls_back_to_source_stepping() {
    let _g = injector_lock();
    let _armed = ArmedPlan::arm(FaultPlan::seeded(5).with_site("newton-dc", 1.0));
    let (c, out) = rc_circuit();
    // The primary gmin ladder and mid-rail seeds are suppressed; source
    // stepping must still find the operating point.
    let x = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none())
        .expect("source stepping rescues");
    assert!((c.voltage(&x, out) - 1.0).abs() < 1e-6);
    assert_eq!(fault::injection_count("newton-dc"), 1);
}

#[test]
fn dc_disarmed_is_bit_identical() {
    let _g = injector_lock();
    fault::disarm();
    let (c, _) = rc_circuit();
    let a = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).expect("a");
    let b = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).expect("b");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// Disarms the global telemetry sink on drop so a failed assertion cannot
/// leak an armed sink into the next test.
struct ArmedTelemetry;

impl ArmedTelemetry {
    fn arm() -> Self {
        telemetry::reset();
        telemetry::arm();
        ArmedTelemetry
    }
}

impl Drop for ArmedTelemetry {
    fn drop(&mut self) {
        telemetry::disarm();
    }
}

#[test]
fn double_dc_failure_surfaces_rescue_chain_failed_with_both_errors() {
    let _g = injector_lock();
    // Kill both the primary path ("newton-dc" suppresses the gmin ladder
    // and mid-rail seeds) and the last-resort source stepping: the rescue
    // chain runs dry and must report both failures, hiding neither.
    let _armed = ArmedPlan::arm(
        FaultPlan::seeded(7)
            .with_site("newton-dc", 1.0)
            .with_site("dc.source_stepping", 1.0),
    );
    let _t = ArmedTelemetry::arm();
    let (c, _) = rc_circuit();
    let err = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).unwrap_err();
    let snap = telemetry::snapshot();
    match &err {
        SpiceError::RescueChainFailed {
            analysis,
            attempted,
            primary,
            last,
        } => {
            assert_eq!(*analysis, "dc");
            assert_eq!(
                *attempted,
                &["gmin-ladder", "mid-rail-seeds", "source-stepping"]
            );
            assert!(
                matches!(**primary, SpiceError::NewtonDiverged { analysis: "dc", .. }),
                "primary: {primary:?}"
            );
            assert!(
                matches!(
                    **last,
                    SpiceError::NewtonDiverged {
                        analysis: "dc-source-stepping",
                        ..
                    }
                ),
                "last: {last:?}"
            );
        }
        other => panic!("expected RescueChainFailed, got {other:?}"),
    }
    // The display keeps both embedded failures visible.
    let msg = err.to_string();
    assert!(msg.contains("primary failure"), "msg: {msg}");
    assert!(msg.contains("dc-source-stepping"), "msg: {msg}");
    assert_eq!(fault::injection_count("newton-dc"), 1);
    assert_eq!(fault::injection_count("dc.source_stepping"), 1);
    assert_eq!(
        snap.counter("spice.dc.source_stepping_failures"),
        Some(1),
        "double failure must count a stepping failure"
    );
}

// ------------------------------------------------------ netlist decks --

/// The committed SRAM zoo deck, parsed and elaborated into a circuit.
/// The deck path and the programmatic builders share the same solver
/// stack, so the recovery contracts below must hold identically.
fn sram_deck_circuit() -> Circuit {
    gnrlab::spice::parse_deck(include_str!("../decks/zoo/sram6t.sp"))
        .expect("parse sram deck")
        .elaborate(&gnrlab::spice::ModelBindings::new())
        .expect("elaborate sram deck")
        .circuit
}

#[test]
fn parser_built_sram_stops_cleanly_on_exhausted_budget() {
    let _g = injector_lock();
    fault::disarm();
    let c = sram_deck_circuit();
    // A zero check cap trips on the first budget probe inside the linear
    // solve: the stop must surface as the typed budget error, unwrapped
    // and unrescued (the rescue chain must not retry past a budget stop).
    let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(0));
    let err = dc_operating_point(&c, None, DcOptions::default(), &limits).unwrap_err();
    assert!(
        matches!(err, SpiceError::Linear(NumError::BudgetExhausted { .. })),
        "expected budget stop, got: {err:?}"
    );
    // The same deck with an open budget solves fine — the stop above was
    // the budget, not the circuit.
    dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none())
        .expect("open budget solves the deck");
}

#[test]
fn parser_built_sram_reports_rescue_chain_failure_with_typed_errors() {
    let _g = injector_lock();
    let _t = ArmedTelemetry::arm();
    // Kill the primary DC path and the last-resort source stepping: the
    // deck-elaborated circuit must surface the same structured
    // RescueChainFailed report as a builder circuit would.
    let _armed = ArmedPlan::arm(
        FaultPlan::seeded(13)
            .with_site("newton-dc", 1.0)
            .with_site("dc.source_stepping", 1.0),
    );
    let c = sram_deck_circuit();
    let err = dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none()).unwrap_err();
    match &err {
        SpiceError::RescueChainFailed {
            analysis,
            attempted,
            primary,
            last,
        } => {
            assert_eq!(*analysis, "dc");
            assert_eq!(
                *attempted,
                &["gmin-ladder", "mid-rail-seeds", "source-stepping"]
            );
            assert!(
                matches!(**primary, SpiceError::NewtonDiverged { analysis: "dc", .. }),
                "primary: {primary:?}"
            );
            assert!(
                matches!(
                    **last,
                    SpiceError::NewtonDiverged {
                        analysis: "dc-source-stepping",
                        ..
                    }
                ),
                "last: {last:?}"
            );
        }
        other => panic!("expected RescueChainFailed, got {other:?}"),
    }
    assert_eq!(fault::injection_count("newton-dc"), 1);
    assert_eq!(fault::injection_count("dc.source_stepping"), 1);
    assert_eq!(
        telemetry::snapshot().counter("spice.dc.source_stepping_failures"),
        Some(1)
    );
}

// ------------------------------------------------------ linear solver --

#[test]
fn injected_linear_fault_falls_through_to_dense_lu() {
    let _g = injector_lock();
    // Kill the CG and BiCGSTAB rungs; dense LU (third probe) survives.
    let seed = (0..u64::MAX)
        .find(|&s| {
            let _armed = ArmedPlan::arm(FaultPlan::seeded(s).with_site("linear", 0.7));
            fault::should_fail("linear")
                && fault::should_fail("linear")
                && !fault::should_fail("linear")
        })
        .expect("some seed fails 2x then passes");
    let _armed = ArmedPlan::arm(FaultPlan::seeded(seed).with_site("linear", 0.7));
    let n = 24;
    let mut tb = TripletBuilder::new(n, n);
    for i in 0..n {
        tb.push(i, i, 2.0);
        if i > 0 {
            tb.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            tb.push(i, i + 1, -1.0);
        }
    }
    let a = tb.build();
    let b = vec![1.0; n];
    let (result, report) = solve_linear_robust(
        &a,
        &b,
        &vec![0.0; n],
        IterControl::default(),
        true,
        &ExecLimits::none(),
    );
    let (x, _) = result.expect("sparse LU rescues");
    assert!(report.converged());
    assert_eq!(report.policy_used.as_deref(), Some("sparse-lu"));
    assert_eq!(report.attempts.len(), 3);
    let r = a.matvec(&x);
    for (ri, bi) in r.iter().zip(&b) {
        assert!((ri - bi).abs() < 1e-9);
    }
}

// ------------------------------------------------------- Monte Carlo --

#[test]
fn monte_carlo_200_samples_completes_under_injection_and_logs_every_fault() {
    let _g = injector_lock();
    let _armed = ArmedPlan::arm(FaultPlan::seeded(20080608).with_site("characterize", 0.15));
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let ctx = ExecCtx::serial();
    let universe = characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).expect("completes");
    let mc = monte_carlo_from_universe(&ctx, &universe, 200, 20080608);
    let log = ctx.faults().take();
    let injected = fault::injection_count("characterize");
    assert!(injected > 0, "p = 0.15 over 81 cells must fire");
    // Every injected characterization fault is logged with its cell id and
    // the "characterize" stage.
    let char_events: Vec<_> = log.in_stage("characterize").collect();
    assert_eq!(char_events.len(), injected);
    for e in &char_events {
        assert!(e.sample < 81, "cell id {} out of range", e.sample);
        assert!(e.error.contains("injected fault"));
    }
    // The run completed: every one of the 200 samples is accounted for,
    // and every stalled ring carries a logged fault with its sample id.
    assert_eq!(mc.frequency_hz.len() + mc.stalled_samples, 200);
    let ring_events: Vec<_> = log.in_stage("ring").collect();
    assert_eq!(ring_events.len(), mc.stalled_samples);
    for e in &ring_events {
        assert!(e.sample < 200);
    }
    // Dead cells can only lower the functional yield, never crash the run.
    assert!(mc.functional_yield() <= 1.0);
}

#[test]
fn monte_carlo_disarmed_logged_run_is_bit_identical_to_plain() {
    let _g = injector_lock();
    fault::disarm();
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let plain_ctx = ExecCtx::serial();
    let universe =
        characterize_stage_universe(&plain_ctx, &mut lib, 0.4, 15, None).expect("characterizes");
    let plain = monte_carlo_from_universe(&plain_ctx, &universe, 200, 20080608);
    let logged_ctx = ExecCtx::serial();
    let logged = monte_carlo_from_universe(&logged_ctx, &universe, 200, 20080608);
    let log = logged_ctx.faults().take();
    assert_eq!(plain.frequency_hz.len(), logged.frequency_hz.len());
    for (a, b) in plain.frequency_hz.iter().zip(&logged.frequency_hz) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in plain.dynamic_w.iter().zip(&logged.dynamic_w) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in plain.static_w.iter().zip(&logged.static_w) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(plain.stalled_samples, logged.stalled_samples);
    // The log mirrors the stalled count exactly, one event per stall.
    assert_eq!(log.len(), logged.stalled_samples);
    assert!(log.events().iter().all(|e| e.stage == "ring"));
}
