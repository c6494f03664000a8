//! Acceptance suite for budgeted execution and checkpoint/resume.
//!
//! Pins the contract from DESIGN.md §13: a seed-20080608 Monte Carlo run
//! that is cancelled (or runs out of budget) mid-flight checkpoints its
//! completed prefix, and the resumed run produces a summary bit-identical
//! to an uninterrupted run — at any pool size, with the §4 pins (530
//! stalled / 0.735 yield) intact. An exhausted budget surfaces partial
//! statistics plus a typed stop, never a panic; a corrupted checkpoint is
//! detected, discarded, and the run restarts clean.
//!
//! The fault injector and the checkpoint files are process-global /
//! on-disk shared state, so every test serializes through [`suite_lock`].

use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{
    characterize_stage_universe, monte_carlo_from_universe, monte_carlo_from_universe_resumable,
    MonteCarloResult, StageUniverse, MC_CHECKPOINT_CHUNK,
};
use gnrlab::explore::ExploreError;
use gnrlab::num::budget::{Budget, CancelToken, ExecLimits};
use gnrlab::num::fault::{self, FaultPlan};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::{telemetry, NumError};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

const MC_SEED: u64 = 20080608;
const MC_SAMPLES: usize = 2000;

fn suite_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// The one-time Fast-fidelity stage universe shared by every test (the
/// characterization is the expensive step; the sampling runs are cheap).
fn universe() -> &'static StageUniverse {
    static UNIVERSE: OnceLock<StageUniverse> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        characterize_stage_universe(&ExecCtx::serial(), &mut lib, 0.4, 15, None)
            .expect("universe characterizes")
    })
}

fn checkpoint_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gnr-budget-checkpoint-{}-{name}.json",
        std::process::id()
    ))
}

/// A budget that allows exactly `n` budget checks before tripping.
fn check_capped(n: u64) -> ExecLimits {
    ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(n))
}

fn assert_bit_identical(a: &MonteCarloResult, b: &MonteCarloResult, what: &str) {
    assert_eq!(a.frequency_hz.len(), b.frequency_hz.len(), "{what}: count");
    assert_eq!(a.stalled_samples, b.stalled_samples, "{what}: stalls");
    for (x, y) in a.frequency_hz.iter().zip(&b.frequency_hz) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: frequency");
    }
    for (x, y) in a.dynamic_w.iter().zip(&b.dynamic_w) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: dynamic power");
    }
    for (x, y) in a.static_w.iter().zip(&b.static_w) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: static power");
    }
}

/// The headline acceptance test: interrupt the pinned §4 Monte Carlo run
/// mid-flight, checkpoint, resume on 1- and 4-thread pools, and demand the
/// resumed summary is byte-identical to the uninterrupted run — pins and
/// all.
#[test]
fn cancelled_mc_resumes_bit_identically_on_serial_and_parallel_pools() {
    let _g = suite_lock();
    fault::disarm();
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    assert_eq!(baseline.frequency_hz.len(), 1470, "functional pin");
    assert_eq!(baseline.stalled_samples, 530, "stalled pin");
    assert!(
        (baseline.functional_yield() - 0.735).abs() < 1e-12,
        "yield pin"
    );

    for threads in [1usize, 4] {
        let path = checkpoint_path(&format!("resume-{threads}"));
        let _ = std::fs::remove_file(&path);
        // Three budget checks pass, the fourth trips: three chunks (768
        // samples) land in the checkpoint.
        let ctx = ExecCtx::with_threads(threads).with_limits(check_capped(3));
        let partial = monte_carlo_from_universe_resumable(
            &ctx,
            universe(),
            MC_SAMPLES,
            MC_SEED,
            Some(&path),
            None,
        )
        .expect("interrupted run still returns partial statistics");
        assert!(!partial.is_complete());
        assert_eq!(partial.completed_samples, 3 * MC_CHECKPOINT_CHUNK);
        assert!(
            matches!(partial.interrupted, Some(NumError::BudgetExhausted { .. })),
            "got {:?}",
            partial.interrupted
        );
        assert!(path.exists(), "interrupted run must leave a checkpoint");

        // Resume without limits: the run completes, removes the file, and
        // the merged summary matches the uninterrupted baseline bit for
        // bit — including the fault-log pins.
        let ctx = ExecCtx::with_threads(threads);
        let resumed = monte_carlo_from_universe_resumable(
            &ctx,
            universe(),
            MC_SAMPLES,
            MC_SEED,
            Some(&path),
            None,
        )
        .expect("resume completes");
        assert!(resumed.is_complete());
        assert_eq!(resumed.completed_samples, MC_SAMPLES);
        assert!(!path.exists(), "finished run must remove its checkpoint");
        assert_bit_identical(
            &baseline,
            &resumed.result,
            &format!("{threads}-thread resume"),
        );
        assert_eq!(resumed.result.frequency_hz.len(), 1470);
        assert_eq!(resumed.result.stalled_samples, 530);
        assert!((resumed.result.functional_yield() - 0.735).abs() < 1e-12);
    }
}

/// Budget exhaustion without a checkpoint path still degrades gracefully:
/// the partial population is a strict bit-prefix of the full run, and the
/// typed stop is reported rather than thrown.
#[test]
fn exhausted_budget_reports_partial_statistics() {
    let _g = suite_lock();
    fault::disarm();
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    let ctx = ExecCtx::serial().with_limits(check_capped(2));
    let partial =
        monte_carlo_from_universe_resumable(&ctx, universe(), MC_SAMPLES, MC_SEED, None, None)
            .expect("partial statistics");
    assert_eq!(partial.completed_samples, 2 * MC_CHECKPOINT_CHUNK);
    assert_eq!(partial.requested_samples, MC_SAMPLES);
    let err = partial.interrupted.expect("typed stop");
    assert!(
        matches!(err, NumError::BudgetExhausted { ref site } if site == "mc.chunk"),
        "got {err:?}"
    );
    // Every sample that was composed carries the same bits as in the full
    // run: kept-vs-stalled partitioning is per-sample, so the partial
    // population is a prefix of the baseline's.
    let r = &partial.result;
    assert_eq!(
        r.frequency_hz.len() + r.stalled_samples,
        partial.completed_samples
    );
    for (x, y) in r.frequency_hz.iter().zip(&baseline.frequency_hz) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// The plain entry points honor the budget too. Characterization stops
/// with a typed `BudgetExhausted` at a cell-chunk boundary, and its
/// checkpoint resumes to the uninterrupted universe; the sampling wrapper
/// returns the completed sample prefix.
#[test]
fn plain_entry_points_stop_at_chunk_boundaries() {
    let _g = suite_lock();
    fault::disarm();
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    // Count the checks a full characterization spends: the 81 cells take
    // three chunk probes after the nominal-reference solves.
    let counting = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(u64::MAX));
    let full = characterize_stage_universe(
        &ExecCtx::serial().with_limits(counting.clone()),
        &mut lib,
        0.4,
        15,
        None,
    )
    .expect("uncapped characterization completes");
    assert_eq!(format!("{full:?}"), format!("{:?}", universe()));
    let spent = counting.checks_spent();
    assert!(spent >= 3, "three chunk probes at least, got {spent}");

    // Allow every check up to and including the first chunk probe: the
    // second chunk probe trips, leaving one chunk in the checkpoint.
    let path = checkpoint_path("characterize");
    let _ = std::fs::remove_file(&path);
    let ctx = ExecCtx::serial().with_limits(check_capped(spent - 2));
    match characterize_stage_universe(&ctx, &mut lib, 0.4, 15, Some(&path)) {
        Err(ExploreError::Num(NumError::BudgetExhausted { site })) => {
            assert_eq!(site, "characterize.chunk");
        }
        other => panic!("expected a chunk-boundary budget stop, got {other:?}"),
    }
    assert!(path.exists(), "the completed chunk is checkpointed");
    let resumed = characterize_stage_universe(&ExecCtx::serial(), &mut lib, 0.4, 15, Some(&path))
        .expect("resume completes");
    assert!(!path.exists(), "finished run must remove its checkpoint");
    assert_eq!(format!("{resumed:?}"), format!("{:?}", universe()));

    // Two sample chunks pass, the third probe trips: the wrapper returns
    // exactly the first 512 samples, bit for bit.
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    let ctx = ExecCtx::serial().with_limits(check_capped(2));
    let partial = monte_carlo_from_universe(&ctx, universe(), MC_SAMPLES, MC_SEED);
    assert_eq!(
        partial.frequency_hz.len() + partial.stalled_samples,
        2 * MC_CHECKPOINT_CHUNK
    );
    for (x, y) in partial.frequency_hz.iter().zip(&baseline.frequency_hz) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in partial.static_w.iter().zip(&baseline.static_w) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A cancel token trips the very first budget probe: zero samples, typed
/// `Cancelled`, no checkpoint file left behind.
#[test]
fn cancel_token_stops_before_the_first_chunk() {
    let _g = suite_lock();
    fault::disarm();
    let path = checkpoint_path("cancelled");
    let _ = std::fs::remove_file(&path);
    let token = CancelToken::new();
    token.cancel();
    let ctx = ExecCtx::serial().with_limits(ExecLimits::none().with_cancel(token));
    let outcome = monte_carlo_from_universe_resumable(
        &ctx,
        universe(),
        MC_SAMPLES,
        MC_SEED,
        Some(&path),
        None,
    )
    .expect("cancelled run still returns");
    assert_eq!(outcome.completed_samples, 0);
    assert!(
        matches!(outcome.interrupted, Some(NumError::Cancelled { .. })),
        "got {:?}",
        outcome.interrupted
    );
    assert!(!path.exists(), "no chunk completed, no checkpoint written");
}

/// A corrupted checkpoint (injected via the `checkpoint.corrupt` fault
/// site) is detected, discarded — counted — and the run restarts from
/// scratch to the same bit-identical summary.
#[test]
fn corrupt_checkpoint_is_discarded_and_run_restarts_clean() {
    let _g = suite_lock();
    fault::disarm();
    let baseline = monte_carlo_from_universe(&ExecCtx::serial(), universe(), MC_SAMPLES, MC_SEED);
    let path = checkpoint_path("corrupt");
    let _ = std::fs::remove_file(&path);
    // Leave a genuine partial checkpoint on disk...
    let ctx = ExecCtx::serial().with_limits(check_capped(1));
    let partial = monte_carlo_from_universe_resumable(
        &ctx,
        universe(),
        MC_SAMPLES,
        MC_SEED,
        Some(&path),
        None,
    )
    .expect("partial run");
    assert_eq!(partial.completed_samples, MC_CHECKPOINT_CHUNK);
    assert!(path.exists());
    // ...then resume with the corrupt-read fault armed: the load must
    // discard (and delete) the file instead of trusting it.
    fault::arm(FaultPlan::seeded(1).with_site("checkpoint.corrupt", 1.0));
    telemetry::reset();
    telemetry::arm();
    let resumed = monte_carlo_from_universe_resumable(
        &ExecCtx::serial(),
        universe(),
        MC_SAMPLES,
        MC_SEED,
        Some(&path),
        None,
    );
    let snap = telemetry::snapshot();
    let injected = fault::injection_count("checkpoint.corrupt");
    telemetry::disarm();
    fault::disarm();
    let resumed = resumed.expect("clean restart completes");
    assert!(resumed.is_complete());
    assert_eq!(injected, 1, "corrupt-read fault must fire exactly once");
    assert_eq!(
        snap.counter("checkpoint.discarded"),
        Some(1),
        "discard must be counted"
    );
    assert!(
        snap.counter("checkpoint.writes").unwrap_or(0) > 0,
        "restarted run re-checkpoints its chunks"
    );
    assert!(!path.exists(), "completed restart removes its checkpoint");
    assert_bit_identical(&baseline, &resumed.result, "post-discard restart");
}
