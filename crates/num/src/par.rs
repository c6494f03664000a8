//! Deterministic scoped thread pool and the unified [`ExecCtx`] execution
//! context.
//!
//! Every embarrassingly parallel loop in the workspace — the NEGF energy
//! integration, the `DeviceTable` bias grid, the Monte Carlo sample sweep —
//! funnels through [`ThreadPool::par_map_indexed`]. The pool is built from
//! `std::thread` scoped threads plus channels only (zero dependencies) and
//! obeys one contract:
//!
//! **Determinism.** Work is split into fixed chunks handed out through a
//! shared atomic counter; each chunk's outputs are sent back tagged with the
//! chunk index and merged in index order. Because every element is computed
//! independently and the merge order is fixed, results are **bit-identical**
//! to the serial loop regardless of thread count or OS scheduling. A pool of
//! size 1 does not spawn at all — it runs the exact serial code path.
//!
//! [`ExecCtx`] bundles the pool with a [`SharedFaultLog`], a telemetry
//! sink and the execution limits, so the solver stack exposes a single
//! entry-point signature (`f(&ctx, …)`) instead of ad-hoc `_logged` /
//! `_budgeted` variants. It carries no recovery policy: every fragile
//! solve runs its rescue chain on an
//! [`EscalationLadder`](crate::recover::EscalationLadder).
//!
//! Thread count resolution: `GNR_THREADS` overrides when set to a positive
//! integer; otherwise [`ExecCtx::from_env`] uses the machine's available
//! parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::budget::ExecLimits;
use crate::error::NumResult;
use crate::recover::SharedFaultLog;
use crate::telemetry::{ScopedTimer, Telemetry};

/// How many chunks each worker should see on average. More chunks than
/// workers keeps the pool load-balanced when per-element cost varies
/// (deterministic: the chunk *boundaries* depend only on `n` and the
/// thread count, never on scheduling).
const CHUNKS_PER_THREAD: usize = 4;

/// A zero-dependency scoped thread pool with deterministic ordered-merge
/// reduction.
///
/// The pool stores only its size; threads are scoped to each call (spawned
/// inside [`std::thread::scope`]), so there is no lifetime erasure, no
/// `'static` bound on closures, and worker panics propagate to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers. Zero is clamped to one; a pool of one
    /// runs everything inline without spawning.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The serial pool: size one, exact serial code path.
    pub fn serial() -> Self {
        ThreadPool::new(1)
    }

    /// Pool sized from the `GNR_THREADS` environment variable when set to a
    /// positive integer, else from the machine's available parallelism.
    pub fn from_env() -> Self {
        let threads =
            parse_threads(std::env::var("GNR_THREADS").ok().as_deref()).unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            });
        ThreadPool::new(threads)
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n` and returns the outputs in index order.
    ///
    /// Bit-identical to `(0..n).map(f).collect()` for any thread count:
    /// each element is computed independently and the merge is ordered by
    /// index. With one worker no thread is spawned and the serial loop runs
    /// verbatim.
    pub fn par_map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let chunk = chunk_size(n, self.threads);
        let n_chunks = n.div_ceil(chunk);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<T>)>();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n_chunks) {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = ((c + 1) * chunk).min(n);
                    let out: Vec<T> = (lo..hi).map(f).collect();
                    if tx.send((c, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut parts: Vec<Option<Vec<T>>> = (0..n_chunks).map(|_| None).collect();
            for (c, out) in rx {
                parts[c] = Some(out);
            }
            let mut merged = Vec::with_capacity(n);
            for part in parts {
                merged.extend(part.expect("scoped worker delivered every chunk"));
            }
            merged
        })
    }

    /// Fallible [`par_map_indexed`](ThreadPool::par_map_indexed): maps `f`
    /// over `0..n`, short-circuiting on the error with the **lowest index**
    /// — the same error the serial loop would return first.
    ///
    /// With more than one worker, `f` may still be invoked for indices past
    /// the first failing one (those results are discarded), so `f` must be
    /// free of rollback-requiring side effects.
    pub fn try_par_map_indexed<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(f(i)?);
            }
            return Ok(out);
        }
        let chunk = chunk_size(n, self.threads);
        let n_chunks = n.div_ceil(chunk);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<T>, E>)>();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n_chunks) {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = ((c + 1) * chunk).min(n);
                    let mut out = Vec::with_capacity(hi - lo);
                    let mut res: Result<Vec<T>, E> = Ok(Vec::new());
                    for i in lo..hi {
                        match f(i) {
                            Ok(v) => out.push(v),
                            Err(e) => {
                                res = Err(e);
                                break;
                            }
                        }
                    }
                    if res.is_ok() {
                        res = Ok(out);
                    }
                    if tx.send((c, res)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut parts: Vec<Option<Result<Vec<T>, E>>> = (0..n_chunks).map(|_| None).collect();
            for (c, out) in rx {
                parts[c] = Some(out);
            }
            // Chunks are contiguous ascending index ranges, so the first
            // errored chunk (and its first error) is the lowest-index error
            // overall — exactly what the serial loop would hit first.
            let mut merged = Vec::with_capacity(n);
            for part in parts {
                merged.extend(part.expect("scoped worker delivered every chunk")?);
            }
            Ok(merged)
        })
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::serial()
    }
}

/// Fixed chunk size for `n` items on `threads` workers: a pure function of
/// the two, independent of scheduling.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * CHUNKS_PER_THREAD).max(1)
}

/// Parses a `GNR_THREADS`-style override; `None` for unset, empty, zero, or
/// unparsable values.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
}

/// The unified execution context: thread pool + shared fault log +
/// telemetry sink + execution limits.
///
/// Every redesigned entry point takes `&ExecCtx` as its first argument.
/// Cloning is cheap and **shares** the fault log, telemetry sink and
/// limits (the pool is copied), so a clone handed to a helper still
/// reports faults and metrics to the same sinks.
///
/// The default telemetry sink is the process-global registry, disarmed
/// unless `GNR_TELEMETRY=1` (see [`crate::telemetry`]); a disarmed
/// recording call costs one relaxed atomic load. Swap in an isolated
/// registry with [`ExecCtx::with_telemetry`].
#[derive(Clone, Debug, Default)]
pub struct ExecCtx {
    pool: ThreadPool,
    faults: SharedFaultLog,
    telemetry: Telemetry,
    limits: ExecLimits,
}

impl ExecCtx {
    /// Context with an explicit pool, a fresh fault log, the global
    /// telemetry sink, and no execution limits.
    pub fn new(pool: ThreadPool) -> Self {
        ExecCtx {
            pool,
            faults: SharedFaultLog::new(),
            telemetry: Telemetry::global(),
            limits: ExecLimits::none(),
        }
    }

    /// Serial context.
    pub fn serial() -> Self {
        ExecCtx::new(ThreadPool::serial())
    }

    /// Context sized from `GNR_THREADS` / available parallelism.
    pub fn from_env() -> Self {
        ExecCtx::new(ThreadPool::from_env())
    }

    /// Context with an `n`-thread pool.
    pub fn with_threads(threads: usize) -> Self {
        ExecCtx::new(ThreadPool::new(threads))
    }

    /// Same context with a different telemetry sink (fault log and limits
    /// shared).
    pub fn with_telemetry(&self, telemetry: Telemetry) -> Self {
        ExecCtx {
            pool: self.pool,
            faults: self.faults.clone(),
            telemetry,
            limits: self.limits.clone(),
        }
    }

    /// Same context with execution limits attached (fault log and
    /// telemetry sink shared). Limits clone *shared* state: every context
    /// derived from this one observes the same cancel flag and budget
    /// counter.
    pub fn with_limits(&self, limits: ExecLimits) -> Self {
        ExecCtx {
            pool: self.pool,
            faults: self.faults.clone(),
            telemetry: self.telemetry.clone(),
            limits,
        }
    }

    /// The thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Worker count of the pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The shared fault log.
    pub fn faults(&self) -> &SharedFaultLog {
        &self.faults
    }

    /// Records one isolated fault into the shared log.
    pub fn record_fault(&self, sample: usize, stage: impl Into<String>, error: impl Into<String>) {
        self.faults.record(sample, stage, error);
    }

    /// The telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The execution limits (unlimited by default).
    pub fn limits(&self) -> &ExecLimits {
        &self.limits
    }

    /// Probes the execution limits at the fragile-loop boundary `site`.
    /// One relaxed atomic load when no limits are attached.
    ///
    /// # Errors
    ///
    /// [`crate::NumError::Cancelled`] / [`crate::NumError::BudgetExhausted`]
    /// when the token has fired or the budget expired.
    pub fn check_budget(&self, site: &str) -> NumResult<()> {
        self.limits.check(site)
    }

    /// Adds `n` to counter `name` on this context's telemetry sink.
    pub fn counter_add(&self, name: &str, n: u64) {
        self.telemetry.counter_add(name, n);
    }

    /// Increments counter `name` on this context's telemetry sink.
    pub fn counter_inc(&self, name: &str) {
        self.telemetry.counter_add(name, 1);
    }

    /// Starts a scoped wall-clock timer on this context's telemetry sink.
    pub fn time_scope(&self, name: &str) -> ScopedTimer {
        self.telemetry.time_scope(name)
    }

    /// [`ThreadPool::par_map_indexed`] on this context's pool.
    pub fn par_map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.pool.par_map_indexed(n, f)
    }

    /// [`ThreadPool::try_par_map_indexed`] on this context's pool.
    pub fn try_par_map_indexed<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        self.pool.try_par_map_indexed(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_clamps_zero_to_one() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert_eq!(ThreadPool::serial().threads(), 1);
    }

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("abc")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
    }

    #[test]
    fn par_map_matches_serial_exactly() {
        // A float-heavy map whose results would differ under any reordering
        // of arithmetic; identical output across pool sizes proves the
        // ordered-merge contract.
        let f = |i: usize| {
            let x = i as f64 * 0.371 + 0.013;
            (x.sin() * x.cos() + x.sqrt()).ln_1p()
        };
        let serial: Vec<f64> = (0..997).map(f).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            let par = pool.par_map_indexed(997, f);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map_indexed(1, |i| i * 2), vec![0]);
        assert_eq!(pool.par_map_indexed(3, |i| i * 2), vec![0, 2, 4]);
        let big: Vec<usize> = pool.par_map_indexed(10_000, |i| i);
        assert_eq!(big, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_returns_lowest_index_error() {
        let f = |i: usize| -> Result<usize, String> {
            if i == 713 || i == 41 {
                Err(format!("bad {i}"))
            } else {
                Ok(i)
            }
        };
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let err = pool.try_par_map_indexed(1000, f).unwrap_err();
            assert_eq!(err, "bad 41", "threads={threads}");
        }
        let ok = ThreadPool::new(4).try_par_map_indexed(100, Ok::<_, String>);
        assert_eq!(ok.unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.par_map_indexed(64, |i| {
                if i == 17 {
                    panic!("worker panic");
                }
                i
            })
        });
        assert!(result.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn ctx_constructors() {
        let serial = ExecCtx::serial();
        assert_eq!(serial.threads(), 1);
        let four = ExecCtx::with_threads(4);
        assert_eq!(four.threads(), 4);
    }

    #[test]
    fn ctx_clone_shares_fault_log() {
        let ctx = ExecCtx::serial();
        let clone = ctx.clone();
        clone.record_fault(3, "scf", "diverged");
        ctx.record_fault(7, "ring", "stalled");
        let log = ctx.faults().snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].sample, 3);
        assert_eq!(log.events()[1].stage, "ring");
    }

    #[test]
    fn ctx_clone_shares_telemetry_sink() {
        let ctx = ExecCtx::serial().with_telemetry(Telemetry::isolated());
        let clone = ctx.clone();
        clone.counter_inc("t.events");
        ctx.counter_add("t.events", 2);
        let _scope = ctx.time_scope("t.span");
        drop(_scope);
        let snap = ctx.telemetry().snapshot();
        assert_eq!(snap.counter("t.events"), Some(3));
        assert!(snap.get("t.span").is_some());
        // The default context routes to the (disarmed) global sink: nothing
        // recorded, one atomic load per call.
        let plain = ExecCtx::serial();
        plain.counter_inc("t.global");
        assert!(!plain.telemetry().active() || !plain.telemetry().snapshot().is_empty());
    }

    #[test]
    fn ctx_limits_default_unlimited_and_shared_on_derive() {
        use crate::budget::{Budget, CancelToken, ExecLimits};
        let ctx = ExecCtx::serial();
        assert!(!ctx.limits().is_limited());
        ctx.check_budget("anywhere").expect("unlimited by default");
        let token = CancelToken::new();
        let limited = ctx.with_limits(
            ExecLimits::none()
                .with_cancel(token.clone())
                .with_budget(Budget::unlimited().with_check_cap(100)),
        );
        // A derived context (sink swap) observes the same cancel flag.
        let derived = limited.with_telemetry(Telemetry::isolated());
        limited.check_budget("scf").expect("not yet cancelled");
        token.cancel();
        assert!(derived.check_budget("scf").is_err());
    }

    #[test]
    fn ctx_fault_log_safe_under_concurrent_recording() {
        let ctx = ExecCtx::with_threads(8);
        let _: Vec<()> = ctx.par_map_indexed(500, |i| {
            if i % 7 == 0 {
                ctx.record_fault(i, "stress", "injected");
            }
        });
        let log = ctx.faults().snapshot();
        assert_eq!(log.len(), 500_usize.div_ceil(7));
        // Deterministic parallel sweeps merge shards in sample order; the
        // raw concurrent log only guarantees completeness, so check the set.
        let mut samples: Vec<usize> = log.events().iter().map(|e| e.sample).collect();
        samples.sort_unstable();
        let expect: Vec<usize> = (0..500).filter(|i| i % 7 == 0).collect();
        assert_eq!(samples, expect);
    }
}
