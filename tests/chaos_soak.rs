//! Chaos soak: every registered fault site, one at a time, armed at
//! p = 0.3 over a composite workload that crosses all the fragile loops —
//! SCF, NEGF transport, DC rescue chain, transient ladder, Monte Carlo
//! checkpoint/resume, and the budget checks themselves.
//!
//! The contract is deliberately loose on *outcomes* (a fault may be
//! rescued, degrade the result, or surface an error) and strict on
//! *failure modes*: no workload may panic, and every failure must be one
//! of the typed error enums — never an abort, a poisoned lock, or a
//! nonsense result. This is the tier-2 safety net for new fault sites:
//! registering a site makes it part of the soak automatically.

use gnrlab::cmos::{CmosNode, CmosTransistor};
use gnrlab::device::scf::ScfOptions;
use gnrlab::device::{DeviceConfig, Polarity, ScfSolver, TableStore};
use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{
    characterize_stage_universe, monte_carlo_from_universe_resumable, StageUniverse,
};
use gnrlab::num::budget::{Budget, ExecLimits};
use gnrlab::num::fault::{self, FaultPlan, REGISTERED_SITES};
use gnrlab::num::par::ExecCtx;
use gnrlab::spice::dc::{dc_operating_point, DcOptions};
use gnrlab::spice::transient::{transient, TransientOptions};
use gnrlab::spice::{Circuit, Element, NodeId, Waveform};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The one-time, fault-free stage universe: characterizing under
/// injection is exercised separately (see [`soak_site`]), so the shared
/// sampling workload reuses a clean universe.
fn universe() -> &'static StageUniverse {
    static UNIVERSE: OnceLock<StageUniverse> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        fault::disarm();
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        characterize_stage_universe(&ExecCtx::serial(), &mut lib, 0.4, 15, None)
            .expect("fault-free universe characterizes")
    })
}

fn scf_solver() -> ScfSolver {
    let mut cfg = DeviceConfig::test_small(9).expect("valid test config");
    cfg.channel_cells = 12;
    ScfSolver::new(&cfg, ScfOptions::fast())
}

fn rc_circuit() -> Circuit {
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
    c
}

fn checkpoint_path(site: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gnr-chaos-soak-{}-{}.json",
        std::process::id(),
        site.replace('.', "-")
    ))
}

/// Runs the composite workload with `site` armed, recording each step's
/// outcome as a human-readable line. Returns the log; panics propagate to
/// the caller's `catch_unwind`.
fn soak_site(site: &'static str) -> Vec<String> {
    let mut log = Vec::new();
    let mut note = |step: &str, outcome: Result<String, String>| match outcome {
        Ok(ok) => log.push(format!("{site}/{step}: ok ({ok})")),
        Err(e) => {
            assert!(!e.is_empty(), "{site}/{step}: empty error display");
            log.push(format!("{site}/{step}: typed error ({e})"));
        }
    };

    // 1. SCF ladder (NEGF transport, Poisson, linear rescue inside).
    let solver = scf_solver();
    note(
        "scf",
        solver
            .solve(&ExecCtx::serial(), 0.0, 0.1)
            .map(|(r, _)| format!("I = {:.3e} A", r.current_a))
            .map_err(|e| e.to_string()),
    );

    // 2. DC operating point (gmin ladder, mid-rail seeds, source stepping).
    let c = rc_circuit();
    note(
        "dc",
        dc_operating_point(&c, None, DcOptions::default(), &ExecLimits::none())
            .map(|x| format!("{} unknowns", x.len()))
            .map_err(|e| e.to_string()),
    );

    // 3. Netlist front end: the SRAM zoo deck parses, elaborates, and
    //    solves its operating point with the site armed. The deck path
    //    shares the DC rescue ladder with the builders, so a fault may
    //    be rescued or surface — but only as a typed error.
    note(
        "sram-deck",
        gnrlab::spice::parse_deck(include_str!("../decks/zoo/sram6t.sp"))
            .map_err(|e| e.to_string())
            .and_then(|deck| {
                deck.elaborate(&gnrlab::spice::ModelBindings::new())
                    .map_err(|e| e.to_string())
            })
            .and_then(|elab| {
                dc_operating_point(
                    &elab.circuit,
                    None,
                    DcOptions::default(),
                    &ExecLimits::none(),
                )
                .map(|x| format!("{} unknowns", x.len()))
                .map_err(|e| e.to_string())
            }),
    );

    // 4. Transient ladder (dt halvings, source ramp) under a budget, so
    //    the budget checks themselves are inside the blast radius.
    let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(100_000));
    let ctx = ExecCtx::serial().with_limits(limits);
    note(
        "transient",
        transient(&ctx, &c, &TransientOptions::new(2e-9, 2e-11))
            .map(|(_, report)| format!("policy = {:?}", report.policy_used))
            .map_err(|e| e.to_string()),
    );

    // 5. Monte Carlo: interrupt after one chunk, checkpoint, resume.
    let path = checkpoint_path(site);
    let _ = std::fs::remove_file(&path);
    let capped = ExecCtx::serial()
        .with_limits(ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(1)));
    note(
        "mc-interrupt",
        monte_carlo_from_universe_resumable(&capped, universe(), 600, 20080608, Some(&path), None)
            .map(|o| format!("{}/{} samples", o.completed_samples, o.requested_samples))
            .map_err(|e| e.to_string()),
    );
    note(
        "mc-resume",
        monte_carlo_from_universe_resumable(
            &ExecCtx::serial(),
            universe(),
            600,
            20080608,
            Some(&path),
            None,
        )
        .map(|o| format!("complete = {}", o.is_complete()))
        .map_err(|e| e.to_string()),
    );
    let _ = std::fs::remove_file(&path);

    // 6. Characterization under injection — the one workload that reaches
    //    the per-cell fault log and the surface-GF cache. Only for the
    //    sites that can fire inside it (it is the expensive step).
    if site == "characterize" || site == "negf.surface_cache" {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        note(
            "characterize",
            characterize_stage_universe(&ExecCtx::serial(), &mut lib, 0.4, 15, None)
                .map(|_| "universe built".to_string())
                .map_err(|e| e.to_string()),
        );
    }

    // 7. Mode-space NEGF table under fallback injection: every armed
    //    probe reroutes that energy point through the fresh real-space
    //    solve, so the build must still land (within the conformance the
    //    gnr-device tests pin) — never panic or corrupt the table.
    if site == gnrlab::negf::mode_space::FALLBACK_SITE {
        use gnrlab::device::table::TableGrid;
        use gnrlab::device::{ballistic_negf_table, NegfTableOptions, SbfetModel};
        let mut cfg = DeviceConfig::test_small(9).expect("valid test config");
        cfg.channel_cells = 6;
        let grid = TableGrid {
            vgs: (0.0, 0.5),
            vds: (0.05, 0.35),
            points: 2,
        };
        note(
            "mode-space-table",
            SbfetModel::new(&cfg)
                .map_err(|e| e.to_string())
                .and_then(|model| {
                    ballistic_negf_table(
                        &ExecCtx::serial(),
                        &model,
                        Polarity::NType,
                        grid,
                        1,
                        &NegfTableOptions::mode_space(),
                    )
                    .map(|t| format!("solver_path = {}", t.solver_path()))
                    .map_err(|e| e.to_string())
                }),
        );
    }

    // 8. Content-addressed table store under disk-read injection: each
    //    re-read probes the corrupt-entry site and must either serve the
    //    clean entry or evict and rebuild — never surface a bad table.
    if site == gnrlab::device::store::FAULT_SITE {
        let dir = std::env::temp_dir().join(format!("gnr-chaos-store-{}", std::process::id()));
        let tx = CmosTransistor::nominal(CmosNode::N22);
        let mut rebuilt = 0usize;
        let mut outcome = Ok(String::new());
        for round in 0..10 {
            // A fresh handle each round forces the disk path (the
            // in-memory tier would otherwise absorb every later read).
            let store = TableStore::on_disk(&dir);
            match tx.to_table_cached(&store, Polarity::NType, 0.8) {
                Ok(t) => {
                    assert!(
                        t.current(0.8, 0.4).is_finite(),
                        "cached table must be well-formed"
                    );
                    rebuilt += 1;
                }
                Err(e) => {
                    outcome = Err(format!("round {round}: {e}"));
                    break;
                }
            }
        }
        if outcome.is_ok() {
            outcome = Ok(format!("{rebuilt}/10 reads served or rebuilt"));
        }
        note("table-store", outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }
    log
}

/// One pass over every registered site. Serialized by being a single test
/// (the injector is process-global); each site's workload runs behind
/// `catch_unwind` so a panic is attributed to its site.
#[test]
fn every_registered_site_soaks_without_panic() {
    // Build the clean universe before any plan is armed.
    universe();
    let mut injected_total = 0usize;
    for &site in REGISTERED_SITES {
        fault::arm(FaultPlan::seeded(0x5eed ^ site.len() as u64).with_site(site, 0.3));
        let outcome = std::panic::catch_unwind(|| soak_site(site));
        injected_total += fault::injection_count(site);
        fault::disarm();
        match outcome {
            Ok(log) => {
                for line in &log {
                    println!("{line}");
                }
            }
            Err(_) => panic!("workload panicked with fault site '{site}' armed"),
        }
    }
    assert!(
        injected_total > 0,
        "the soak never injected a single fault — sites are miswired"
    );
}
