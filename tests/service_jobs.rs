//! Acceptance suite for the characterization service (DESIGN.md §14):
//! typed jobs over the exploration engines, streaming Monte Carlo
//! delivery in fixed chunks, interrupt/resume by seed range reproducing
//! the §4 pins bit-identically at any pool size, and FIFO queue
//! semantics under a tripped budget.
//!
//! The telemetry registry is process-global, so every test serializes
//! through [`suite_lock`].

use gnrlab::explore::devices::{DeviceLibrary, Fidelity};
use gnrlab::explore::monte_carlo::{McRunOutcome, MonteCarloResult, MC_CHECKPOINT_CHUNK};
use gnrlab::explore::service::{service_with_limits, CharacterizationService, JobRequest};
use gnrlab::num::budget::{Budget, CancelToken, ExecLimits};
use gnrlab::num::fault;
use gnrlab::num::par::ExecCtx;
use gnrlab::num::telemetry;
use gnrlab::num::NumError;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const MC_SEED: u64 = 20080608;
const MC_SAMPLES: usize = 2000;

fn suite_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn checkpoint_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gnr-service-jobs-{}-{name}.json",
        std::process::id()
    ))
}

fn assert_pins(result: &MonteCarloResult, what: &str) {
    assert_eq!(result.frequency_hz.len(), 1470, "{what}: functional pin");
    assert_eq!(result.stalled_samples, 530, "{what}: stalled pin");
    assert!(
        (result.functional_yield() - 0.735).abs() < 1e-12,
        "{what}: yield pin"
    );
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

/// One recorded streaming run: `(start, len, restored)` per chunk.
type ChunkLog = Arc<Mutex<Vec<(usize, usize, bool)>>>;

fn record(chunks: &ChunkLog) -> impl FnMut(&gnrlab::explore::monte_carlo::McChunk) + '_ {
    let chunks = Arc::clone(chunks);
    move |c| {
        chunks
            .lock()
            .expect("sink lock")
            .push((c.start, c.totals.len(), c.restored));
    }
}

/// The headline acceptance test, per pool size: a streaming sweep job is
/// cancelled from its own sink after three chunks, checkpoints, and the
/// SAME service (fresh limits, warm universe memo) resumes it by seed
/// range — the restored prefix arrives first as one chunk, the computed
/// chunks land on fixed boundaries, and the merged population carries
/// the §4 pins bit-identically to the uninterrupted baseline.
#[test]
fn cancelled_streaming_sweep_resumes_bit_identically_on_serial_and_parallel_pools() {
    let _g = suite_lock();
    fault::disarm();
    // One table store shared by both pool sizes: the device tables are
    // bit-deterministic, so the 4-thread service may replay the tables
    // the 1-thread service built.
    let store = Arc::new(gnrlab::device::TableStore::in_memory());
    let mut baseline: Option<McRunOutcome> = None;
    for threads in [1usize, 4] {
        let lib = DeviceLibrary::with_store(Fidelity::Fast, Arc::clone(&store));
        let mut service =
            CharacterizationService::with_library(ExecCtx::with_threads(threads), lib);

        // Uninterrupted baseline (also warms the universe memo).
        telemetry::reset();
        telemetry::arm();
        let full = service
            .submit(JobRequest::mc_sweep(0.4, 15, MC_SAMPLES, MC_SEED))
            .expect("baseline sweep");
        telemetry::disarm();
        assert!(
            full.telemetry.counter("mc.samples").is_some(),
            "responses embed the job's telemetry"
        );
        let full = full.mc().expect("sweep payload").clone();
        assert!(full.is_complete());
        assert_pins(&full.result, &format!("{threads}-thread baseline"));
        if let Some(first) = &baseline {
            assert_bit_identical(
                &first.result,
                &full.result,
                &format!("{threads}-thread vs 1-thread baseline"),
            );
        } else {
            baseline = Some(full.clone());
        }

        // A streaming Characterize request falls through to submit() and
        // emits nothing; the memoized universe is returned by pointer.
        let chunks = Arc::new(Mutex::new(Vec::new()));
        let a = service
            .submit_streaming(JobRequest::characterize(0.4, 15), &mut record(&chunks))
            .expect("characterize");
        let b = service
            .submit(JobRequest::characterize(0.4, 15))
            .expect("characterize again");
        assert!(chunks.lock().expect("sink lock").is_empty());
        assert!(
            std::ptr::eq(
                a.universe().expect("universe payload"),
                b.universe().expect("universe payload")
            ),
            "repeated characterization must be served from the memo"
        );

        // Interrupt: the sink cancels its own job after three chunks.
        let path = checkpoint_path(&format!("resume-{threads}"));
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::new();
        service.set_limits(ExecLimits::none().with_cancel(token.clone()));
        let request = JobRequest::mc_sweep(0.4, 15, MC_SAMPLES, MC_SEED).with_checkpoint(&path);
        chunks.lock().expect("sink lock").clear();
        let partial = {
            let mut sink = record(&chunks);
            let mut seen = 0usize;
            service
                .submit_streaming(request.clone(), &mut |c| {
                    sink(c);
                    seen += 1;
                    if seen == 3 {
                        token.cancel();
                    }
                })
                .expect("interrupted sweep still returns partial statistics")
        };
        let partial = partial.mc().expect("sweep payload");
        assert!(!partial.is_complete());
        assert_eq!(partial.completed_samples, 3 * MC_CHECKPOINT_CHUNK);
        assert!(
            matches!(partial.interrupted, Some(NumError::Cancelled { .. })),
            "got {:?}",
            partial.interrupted
        );
        assert!(path.exists(), "interrupted sweep must leave a checkpoint");
        assert_eq!(
            *chunks.lock().expect("sink lock"),
            (0..3)
                .map(|i| (i * MC_CHECKPOINT_CHUNK, MC_CHECKPOINT_CHUNK, false))
                .collect::<Vec<_>>(),
            "computed chunks land on fixed boundaries"
        );

        // Resume on the same service: fresh limits, warm memo. The
        // restored prefix must arrive first as a single chunk, then the
        // remaining fixed-size chunks (short tail last).
        service.set_limits(ExecLimits::none().with_budget(Budget::unlimited()));
        chunks.lock().expect("sink lock").clear();
        let resumed = service
            .submit_streaming(request, &mut record(&chunks))
            .expect("resume completes");
        let resumed = resumed.mc().expect("sweep payload");
        assert!(resumed.is_complete());
        assert_eq!(resumed.completed_samples, MC_SAMPLES);
        assert!(!path.exists(), "finished sweep must remove its checkpoint");
        let seen = chunks.lock().expect("sink lock").clone();
        assert_eq!(
            seen[0],
            (0, 3 * MC_CHECKPOINT_CHUNK, true),
            "restored prefix first"
        );
        let mut expected_start = 3 * MC_CHECKPOINT_CHUNK;
        for &(start, len, restored) in &seen[1..] {
            assert!(!restored);
            assert_eq!(start, expected_start, "chunks arrive in sample order");
            assert_eq!(len, MC_CHECKPOINT_CHUNK.min(MC_SAMPLES - start));
            expected_start += len;
        }
        assert_eq!(
            expected_start, MC_SAMPLES,
            "every sample delivered exactly once"
        );
        assert_bit_identical(
            &baseline.as_ref().expect("baseline").result,
            &resumed.result,
            &format!("{threads}-thread resume"),
        );
        assert_pins(&resumed.result, &format!("{threads}-thread resume"));
    }
}

/// NEGF table jobs flow through the content-addressed store: the first
/// submission builds (one store miss), the repeat is served warm with the
/// identical bytes, and the cached table records which solver path built
/// it — the two RGF paths never alias each other's entries.
#[test]
fn negf_table_jobs_record_solver_path_and_hit_the_store() {
    use gnrlab::device::table::TableGrid;
    use gnrlab::device::NegfTableOptions;
    let _g = suite_lock();
    fault::disarm();
    let lib = DeviceLibrary::new(Fidelity::Fast);
    let mut service = CharacterizationService::with_library(ExecCtx::serial(), lib);
    let grid = TableGrid {
        vgs: (0.0, 0.5),
        vds: (0.05, 0.35),
        points: 3,
    };
    let request = || JobRequest::negf_table(7, grid, 1, NegfTableOptions::mode_space());

    // The embedded telemetry accumulates from `arm`, so re-arming between
    // submissions isolates each job's store traffic.
    telemetry::reset();
    telemetry::arm();
    let first = service.submit(request()).expect("cold build");
    telemetry::reset();
    let second = service.submit(request()).expect("warm hit");
    telemetry::reset();
    let real = service
        .submit(JobRequest::negf_table(
            7,
            grid,
            1,
            NegfTableOptions::accelerated(),
        ))
        .expect("real-space build");
    telemetry::disarm();

    let t1 = first.table().expect("table payload");
    let t2 = second.table().expect("table payload");
    assert_eq!(t1.solver_path(), "negf-mode-space", "provenance recorded");
    assert_eq!(
        t1.to_json().expect("serializes"),
        t2.to_json().expect("serializes"),
        "warm hit must serve the cold build's bytes"
    );
    assert_eq!(
        first.telemetry.counter("table_cache.misses"),
        Some(1),
        "cold submission builds exactly once"
    );
    assert!(
        second.telemetry.counter("table_cache.hits") >= Some(1),
        "repeat submission must be served from the store"
    );
    assert_eq!(
        second.telemetry.counter("table_cache.misses").unwrap_or(0),
        0,
        "repeat submission must not rebuild"
    );
    // The mode-space entry must not be served for the real-space request.
    let t3 = real.table().expect("table payload");
    assert_eq!(t3.solver_path(), "negf-real-space");
    assert_eq!(
        real.telemetry.counter("table_cache.misses"),
        Some(1),
        "a different solver path is a different key"
    );
}

/// A tripped budget drains the queue FIFO as typed errors without
/// touching the solvers; fresh limits restore admission.
#[test]
fn tripped_budget_drains_the_queue_as_typed_errors() {
    let _g = suite_lock();
    fault::disarm();
    let mut service = service_with_limits(
        Fidelity::Fast,
        ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(0)),
    );
    service.enqueue(JobRequest::characterize(0.4, 15));
    service.enqueue(JobRequest::mc_sweep(0.4, 15, MC_SAMPLES, MC_SEED));
    service.enqueue(JobRequest::edp_contour(vec![0.4], vec![0.0], 15));
    assert_eq!(service.queued(), 3);
    let results = service.run_queued();
    assert_eq!(results.len(), 3, "one result per admitted job, in order");
    assert_eq!(service.queued(), 0, "the queue drains even on errors");
    for (i, r) in results.iter().enumerate() {
        assert!(
            r.as_ref().is_err_and(|e| e.to_string().contains("budget")),
            "job {i}: expected a typed budget stop, got {r:?}"
        );
    }
}

/// The small contour the memo tests submit: 2 × 2 points at Fast
/// fidelity, at least three of them feasible.
fn small_contour(vdd_hi: f64) -> JobRequest {
    JobRequest::edp_contour(vec![0.3, vdd_hi], vec![0.08, 0.16], 15)
}

fn transient_steps(snapshot: &telemetry::TelemetrySnapshot) -> u64 {
    snapshot.counter("transient.steps").unwrap_or(0)
}

/// A repeated contour is answered from the request memo: the same bytes
/// and no transient step. A request whose axis differs by one ULP is a
/// different key and simulates again.
#[test]
fn repeated_contour_is_served_from_the_memo_and_a_one_ulp_axis_recomputes() {
    let _g = suite_lock();
    fault::disarm();
    let mut service = service_with_limits(Fidelity::Fast, ExecLimits::none());
    telemetry::reset();
    telemetry::arm();
    let first = service.submit(small_contour(0.45)).expect("cold contour");
    let second = service
        .submit(small_contour(0.45))
        .expect("memoized contour");
    let nudged = service
        .submit(small_contour(0.45f64.next_up()))
        .expect("nudged contour");
    telemetry::disarm();

    let map = first.contour().expect("contour payload");
    assert!(map.feasible().count() >= 3, "{map:?}");
    assert!(
        transient_steps(&first.telemetry) > 0,
        "the cold job simulates"
    );
    assert_eq!(
        format!("{map:?}"),
        format!("{:?}", second.contour().expect("contour payload")),
        "a repeat must answer with the cold job's map"
    );
    assert_eq!(
        transient_steps(&second.telemetry),
        transient_steps(&first.telemetry),
        "a repeat must run no transient step"
    );
    assert!(
        transient_steps(&nudged.telemetry) > transient_steps(&second.telemetry),
        "a one-ULP axis change must not alias the memoized map"
    );
    let nudged = nudged.contour().expect("contour payload");
    assert_eq!(nudged.vdd_axis[1], 0.45f64.next_up());
}

/// A sweep after a characterization reads the memoized universe: it
/// characterizes no cell, and a later characterization is served by
/// the same pointer.
#[test]
fn sweep_after_characterize_reuses_the_universe_by_pointer() {
    let _g = suite_lock();
    fault::disarm();
    let mut service = service_with_limits(Fidelity::Fast, ExecLimits::none());
    let cells = |r: &gnrlab::explore::service::JobResponse| {
        r.telemetry.counter("mc.characterize.cells").unwrap_or(0)
    };
    telemetry::reset();
    telemetry::arm();
    let a = service
        .submit(JobRequest::characterize(0.4, 15))
        .expect("characterize");
    let sweep = service
        .submit(JobRequest::mc_sweep(0.4, 15, MC_CHECKPOINT_CHUNK, MC_SEED))
        .expect("sweep");
    let b = service
        .submit(JobRequest::characterize(0.4, 15))
        .expect("characterize again");
    telemetry::disarm();
    assert!(cells(&a) > 0, "the first job characterizes");
    assert_eq!(cells(&sweep), cells(&a), "the sweep characterizes no cell");
    assert!(sweep.mc().expect("sweep payload").is_complete());
    assert!(
        std::ptr::eq(
            a.universe().expect("universe payload"),
            b.universe().expect("universe payload")
        ),
        "the universe must be served from the memo"
    );
}

/// A contour on a cancelled service stops with a typed error before any
/// grid point simulates, and the error is not memoized: with fresh
/// limits the same request answers with the map of a never-cancelled
/// service.
#[test]
fn cancelled_contour_is_a_typed_stop_and_is_not_memoized() {
    let _g = suite_lock();
    fault::disarm();
    // The two services share one store, so the cancelled one finds the
    // device table built and reaches the grid points.
    let store = Arc::new(gnrlab::device::TableStore::in_memory());
    let service = |limits: ExecLimits| {
        CharacterizationService::with_library(
            ExecCtx::from_env().with_limits(limits),
            DeviceLibrary::with_store(Fidelity::Fast, Arc::clone(&store)),
        )
    };
    let reference = service(ExecLimits::none())
        .submit(small_contour(0.45))
        .expect("never-cancelled contour");

    let token = CancelToken::new();
    token.cancel();
    let mut cancelled = service(ExecLimits::none().with_cancel(token));
    telemetry::reset();
    telemetry::arm();
    let stopped = cancelled.submit(small_contour(0.45));
    let steps = transient_steps(&telemetry::snapshot());
    telemetry::disarm();
    match stopped {
        Err(e) => assert!(e.is_budget_stop(), "expected a typed stop, got {e:?}"),
        Ok(r) => panic!("a cancelled service answered {:?}", r.contour()),
    }
    assert_eq!(steps, 0, "a cancelled contour must not simulate");

    cancelled.set_limits(ExecLimits::none());
    let resumed = cancelled
        .submit(small_contour(0.45))
        .expect("fresh limits admit the job");
    assert_eq!(
        format!("{:?}", resumed.contour().expect("contour payload")),
        format!("{:?}", reference.contour().expect("contour payload")),
    );
}
