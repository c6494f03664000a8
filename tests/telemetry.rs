//! Telemetry determinism suite.
//!
//! Pins the three contracts of `gnr_num::telemetry`:
//!
//! - counter and histogram values from a seed-20080608 Monte Carlo run
//!   (plus a parallel SCF solve) are bit-identical across pool sizes
//!   (`GNR_THREADS=1` vs `=4` spelled as `ExecCtx::with_threads`);
//! - physics results are bit-identical with telemetry armed vs disarmed
//!   (recording must observe, never perturb);
//! - `TelemetrySnapshot` round-trips through `gnr_num::json`.
//!
//! The global sink is process-wide, so every test that arms it serializes
//! through [`telemetry_lock`] and disarms before releasing.

use gnrlab::device::scf::ScfOptions;
use gnrlab::device::{DeviceConfig, ScfSolver};
use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};
use gnrlab::explore::monte_carlo::{MonteCarloResult, StageUniverse};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::telemetry::{self, MetricValue, TelemetrySnapshot};
use gnrlab::num::Json;
use std::sync::{Mutex, MutexGuard, OnceLock};

const MC_SEED: u64 = 20080608;
const MC_SAMPLES: usize = 500;

/// The global telemetry sink is process-wide: tests that arm it must not
/// overlap. Poisoned locks are recovered.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Disarms and clears on drop so a panicking assertion cannot leak an
/// armed global sink into the next test.
struct Armed;

impl Armed {
    fn arm() -> Self {
        telemetry::reset();
        telemetry::arm();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        telemetry::disarm();
        telemetry::reset();
    }
}

/// The paper's stage universe, characterized once (telemetry disarmed) and
/// shared across tests: characterization is the expensive step, sampling
/// from it is microseconds.
fn universe() -> &'static StageUniverse {
    static UNIVERSE: OnceLock<StageUniverse> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        characterize_stage_universe(&ExecCtx::serial(), &mut lib, 0.4, 15, None)
            .expect("universe characterizes")
    })
}

fn scf_solver() -> ScfSolver {
    let mut cfg = DeviceConfig::test_small(9).expect("valid test config");
    cfg.channel_cells = 12;
    ScfSolver::new(&cfg, ScfOptions::fast())
}

/// Deterministic projection of a snapshot: counters and histogram bins.
/// Timers are wall-clock and excluded from the bit-identity contract.
fn deterministic_metrics(snap: &TelemetrySnapshot) -> Vec<(String, Vec<u64>)> {
    snap.metrics
        .iter()
        .filter_map(|(name, value)| match value {
            MetricValue::Counter(c) => Some((name.clone(), vec![*c])),
            MetricValue::Histogram(h) => {
                let mut v = h.bins.clone();
                v.push(h.count);
                Some((name.clone(), v))
            }
            MetricValue::Gauge(_) | MetricValue::Timer(_) => None,
        })
        .collect()
}

/// One full instrumented workload against the global sink: a parallel SCF
/// solve (NEGF transport fans energy points across the pool, recording
/// through worker shards and the global free functions) plus the pinned
/// seed-20080608 Monte Carlo sampling run.
fn run_workload(threads: usize) -> (MonteCarloResult, Vec<(String, Vec<u64>)>) {
    // Force the shared one-time characterization before arming so its
    // metrics never leak into the workload snapshot.
    universe();
    let ctx = ExecCtx::with_threads(threads);
    let _armed = Armed::arm();
    let solver = scf_solver();
    solver.solve(&ctx, 0.0, 0.1).expect("scf converges");
    let mc = monte_carlo_from_universe(&ctx, universe(), MC_SAMPLES, MC_SEED);
    let metrics = deterministic_metrics(&telemetry::snapshot());
    (mc, metrics)
}

#[test]
fn counters_bit_identical_across_pool_sizes() {
    let _g = telemetry_lock();
    let (mc1, metrics1) = run_workload(1);
    let (mc4, metrics4) = run_workload(4);
    assert!(!metrics1.is_empty(), "workload must record metrics");
    assert_eq!(
        metrics1, metrics4,
        "counters and histograms must be bit-identical for 1 vs 4 threads"
    );
    // The instrumented hot loops all showed up.
    let counter = |name: &str| {
        metrics1
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .1[0]
    };
    assert!(counter("scf.iterations") > 0);
    assert!(counter("negf.rgf.sweeps") > 0);
    assert!(counter("negf.energy_points") > 0);
    assert!(counter("poisson.iterations") > 0);
    assert_eq!(counter("mc.samples"), MC_SAMPLES as u64);
    assert_eq!(counter("mc.stalled_rings"), mc1.stalled_samples as u64);
    // The physics agrees too, of course.
    assert_eq!(mc1.stalled_samples, mc4.stalled_samples);
    for (a, b) in mc1.frequency_hz.iter().zip(&mc4.frequency_hz) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn results_bit_identical_armed_vs_disarmed() {
    let _g = telemetry_lock();
    let ctx = ExecCtx::serial();
    telemetry::disarm();
    telemetry::reset();
    let plain = monte_carlo_from_universe(&ctx, universe(), MC_SAMPLES, MC_SEED);
    assert!(
        telemetry::snapshot().is_empty(),
        "disarmed run records nothing"
    );
    let armed_result = {
        let _armed = Armed::arm();
        let r = monte_carlo_from_universe(&ctx, universe(), MC_SAMPLES, MC_SEED);
        assert!(!telemetry::snapshot().is_empty(), "armed run records");
        r
    };
    assert_eq!(plain.stalled_samples, armed_result.stalled_samples);
    assert_eq!(plain.frequency_hz.len(), armed_result.frequency_hz.len());
    for (a, b) in plain.frequency_hz.iter().zip(&armed_result.frequency_hz) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in plain.dynamic_w.iter().zip(&armed_result.dynamic_w) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in plain.static_w.iter().zip(&armed_result.static_w) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn snapshot_round_trips_through_json() {
    let _g = telemetry_lock();
    let snap = {
        let _armed = Armed::arm();
        let ctx = ExecCtx::with_threads(2);
        let solver = scf_solver();
        solver.solve(&ctx, 0.0, 0.1).expect("scf converges");
        telemetry::snapshot()
    };
    assert!(snap.counter("scf.iterations").unwrap_or(0) > 0);
    let text = snap.to_json().dump();
    let back =
        TelemetrySnapshot::from_json(&Json::parse(&text).expect("dump parses")).expect("schema ok");
    assert_eq!(snap, back, "snapshot must round-trip bit-exactly");
}
