//! Escalation ladders and degraded-result reporting for fragile solves.
//!
//! The solver stack chains several numerically fragile loops (NEGF⇄Poisson
//! SCF, SPICE Newton, Krylov linear solves). Each of them gets a *ladder*
//! of recovery policies: the nominal attempt first, then progressively more
//! conservative retries. [`EscalationLadder`] runs the rungs in order,
//! returns the first converged result, and otherwise keeps the best
//! *degraded* (best-effort, not-converged) result seen. Every run yields a
//! [`SolveReport`] recording which rung won, every attempt made, and the
//! residual trajectory, so callers can distinguish a clean solve from a
//! rescued one.
//!
//! The nominal rung of every ladder must reproduce the pre-ladder call
//! byte for byte: recovery logic only runs on paths that previously
//! returned an error, so fault-free results stay bit-identical.

use crate::budget::ExecLimits;
use crate::error::{NumError, NumResult};
use crate::solver::{bicgstab_solve, cg_solve, IterControl, SolveStats};
use crate::sparse::CsrMatrix;
use crate::telemetry;

/// How trustworthy a ladder result is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quality {
    /// A rung met its convergence target.
    Converged,
    /// No rung converged; the result is the best residual seen and must be
    /// flagged downstream.
    Degraded,
    /// Every rung failed outright; no usable result.
    Failed,
}

/// One attempt at one rung of a ladder.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Rung label (e.g. `"nominal"`, `"mixing-backoff"`, `"sparse-lu"`).
    pub policy: String,
    /// Iterations the attempt used (0 when unknown).
    pub iterations: usize,
    /// Residual at the end of the attempt (NaN when unknown).
    pub residual: f64,
    /// Error message when the attempt failed outright.
    pub error: Option<String>,
}

/// Record of a laddered solve: what was tried, what won, how good it is.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Overall outcome quality.
    pub quality: Quality,
    /// Label of the rung whose result was kept, if any.
    pub policy_used: Option<String>,
    /// Every attempt, in execution order.
    pub attempts: Vec<Attempt>,
    /// Final residual of each attempt, in execution order (NaN for
    /// attempts that died before producing one).
    pub residual_trajectory: Vec<f64>,
}

impl SolveReport {
    /// Report for a single converged attempt — what a strict (ladder-free)
    /// solve produces.
    pub fn single(policy: impl Into<String>, iterations: usize, residual: f64) -> Self {
        let policy = policy.into();
        SolveReport {
            quality: Quality::Converged,
            policy_used: Some(policy.clone()),
            attempts: vec![Attempt {
                policy,
                iterations,
                residual,
                error: None,
            }],
            residual_trajectory: vec![residual],
        }
    }

    /// `true` when a rung fully converged.
    pub fn converged(&self) -> bool {
        self.quality == Quality::Converged
    }

    /// `true` when the kept result is best-effort only.
    pub fn degraded(&self) -> bool {
        self.quality == Quality::Degraded
    }

    /// `true` when the nominal (first) rung won: the ladder added nothing.
    pub fn nominal(&self) -> bool {
        self.quality == Quality::Converged && self.attempts.len() == 1
    }
}

/// Outcome of a single ladder attempt, as classified by the attempt
/// closure.
#[derive(Debug)]
pub enum AttemptOutcome<T> {
    /// The attempt met its convergence target.
    Converged(T),
    /// The attempt produced a usable best-effort result without meeting
    /// the target.
    Degraded(T),
    /// The attempt produced nothing usable.
    Failed(String),
}

/// One classified attempt: the outcome plus its iteration/residual stats.
#[derive(Debug)]
pub struct AttemptReport<T> {
    /// What the attempt produced.
    pub outcome: AttemptOutcome<T>,
    /// Iterations used (0 when unknown).
    pub iterations: usize,
    /// Final residual (NaN when unknown).
    pub residual: f64,
}

impl<T> AttemptReport<T> {
    /// A converged attempt.
    pub fn converged(value: T, iterations: usize, residual: f64) -> Self {
        AttemptReport {
            outcome: AttemptOutcome::Converged(value),
            iterations,
            residual,
        }
    }

    /// A best-effort, not-converged attempt.
    pub fn degraded(value: T, iterations: usize, residual: f64) -> Self {
        AttemptReport {
            outcome: AttemptOutcome::Degraded(value),
            iterations,
            residual,
        }
    }

    /// A failed attempt.
    pub fn failed(error: impl Into<String>) -> Self {
        AttemptReport {
            outcome: AttemptOutcome::Failed(error.into()),
            iterations: 0,
            residual: f64::NAN,
        }
    }
}

/// An ordered sequence of named retry policies.
///
/// `P` is the per-rung policy payload (e.g. an options struct); the caller
/// supplies a closure that runs one attempt under a given policy.
#[derive(Clone, Debug, Default)]
pub struct EscalationLadder<P> {
    rungs: Vec<(String, P)>,
}

impl<P> EscalationLadder<P> {
    /// An empty ladder.
    pub fn new() -> Self {
        EscalationLadder { rungs: Vec::new() }
    }

    /// Appends a rung. The first rung should be the nominal policy.
    pub fn rung(mut self, label: impl Into<String>, policy: P) -> Self {
        self.rungs.push((label.into(), policy));
        self
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// `true` when the ladder has no rungs.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Runs rungs in order until one converges. Returns the converged
    /// value, or — if none converged — the lowest-residual degraded value,
    /// or `None` if every rung failed outright. The report records every
    /// attempt either way.
    pub fn run<T>(&self, mut attempt: impl FnMut(&str, &P) -> AttemptReport<T>) -> RunOutcome<T> {
        let mut attempts = Vec::with_capacity(self.rungs.len());
        let mut best_degraded: Option<(T, f64, String)> = None;
        for (label, policy) in &self.rungs {
            let rep = attempt(label, policy);
            let mut record = Attempt {
                policy: label.clone(),
                iterations: rep.iterations,
                residual: rep.residual,
                error: None,
            };
            match rep.outcome {
                AttemptOutcome::Converged(value) => {
                    attempts.push(record);
                    let trajectory = attempts.iter().map(|a| a.residual).collect();
                    return RunOutcome {
                        value: Some(value),
                        report: SolveReport {
                            quality: Quality::Converged,
                            policy_used: Some(label.clone()),
                            attempts,
                            residual_trajectory: trajectory,
                        },
                    };
                }
                AttemptOutcome::Degraded(value) => {
                    // Keep the degraded result with the smallest residual
                    // (NaN residuals never replace a finite one).
                    let better = match &best_degraded {
                        None => true,
                        Some((_, r, _)) => rep.residual < *r,
                    };
                    if better {
                        best_degraded = Some((value, rep.residual, label.clone()));
                    }
                }
                AttemptOutcome::Failed(err) => record.error = Some(err),
            }
            attempts.push(record);
        }
        let trajectory: Vec<f64> = attempts.iter().map(|a| a.residual).collect();
        match best_degraded {
            Some((value, _, label)) => RunOutcome {
                value: Some(value),
                report: SolveReport {
                    quality: Quality::Degraded,
                    policy_used: Some(label),
                    attempts,
                    residual_trajectory: trajectory,
                },
            },
            None => RunOutcome {
                value: None,
                report: SolveReport {
                    quality: Quality::Failed,
                    policy_used: None,
                    attempts,
                    residual_trajectory: trajectory,
                },
            },
        }
    }
}

/// Result of [`EscalationLadder::run`]: the kept value (if any) plus the
/// full report.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Converged or best-degraded value; `None` when every rung failed.
    pub value: Option<T>,
    /// Record of every attempt.
    pub report: SolveReport,
}

/// One isolated per-sample fault in a sweep (Monte Carlo, universe
/// characterization, …).
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Sample / cell index within the sweep.
    pub sample: usize,
    /// Pipeline stage that faulted (e.g. `"characterize"`, `"ring"`).
    pub stage: String,
    /// Human-readable error description.
    pub error: String,
}

/// Accumulated fault events of a sweep that isolates per-sample failures
/// instead of aborting.
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Records one fault.
    pub fn record(&mut self, sample: usize, stage: impl Into<String>, error: impl Into<String>) {
        self.events.push(FaultEvent {
            sample,
            stage: stage.into(),
            error: error.into(),
        });
    }

    /// All recorded events, in occurrence order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no fault was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that occurred in the given stage.
    pub fn in_stage<'a>(&'a self, stage: &'a str) -> impl Iterator<Item = &'a FaultEvent> {
        self.events.iter().filter(move |e| e.stage == stage)
    }

    /// Appends every event of `other`, preserving its order.
    pub fn extend(&mut self, other: FaultLog) {
        self.events.extend(other.events);
    }
}

/// A [`FaultLog`] behind `Arc<Mutex<…>>`: cheap to clone, safe to record
/// into from pool workers.
///
/// Raw concurrent recording preserves *completeness* but not order (the
/// interleaving depends on scheduling). Deterministic sweeps therefore
/// collect per-sample faults locally and [`merge`](SharedFaultLog::merge)
/// the shards in sample order during the ordered reduction; direct
/// [`record`](SharedFaultLog::record) is for paths where order is not part
/// of the pinned contract.
#[derive(Clone, Debug, Default)]
pub struct SharedFaultLog {
    inner: std::sync::Arc<std::sync::Mutex<FaultLog>>,
}

impl SharedFaultLog {
    /// An empty shared log.
    pub fn new() -> Self {
        SharedFaultLog::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultLog> {
        // A poisoned mutex only means a worker panicked mid-record; the log
        // itself (a Vec of owned events) is still structurally sound.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one fault.
    pub fn record(&self, sample: usize, stage: impl Into<String>, error: impl Into<String>) {
        self.lock().record(sample, stage, error);
    }

    /// Appends an already-ordered shard of events.
    pub fn merge(&self, shard: FaultLog) {
        self.lock().extend(shard);
    }

    /// A point-in-time copy of the log.
    pub fn snapshot(&self) -> FaultLog {
        self.lock().clone()
    }

    /// Drains the log, returning everything recorded so far.
    pub fn take(&self) -> FaultLog {
        std::mem::take(&mut *self.lock())
    }

    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no fault was recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// Solves `A x = b` with an escalation ladder: preconditioned CG (for
/// `symmetric` operators; skipped otherwise), then BiCGSTAB, then a
/// sparse direct LU ([`crate::sparse_lu`]). The direct rung works at any
/// dimension — it factors the CSR pattern in place of the historical
/// `to_dense()` fallback, which was capped at 768 unknowns because the
/// O(n³) densification dominated beyond that.
///
/// The first rung issues exactly the call sites used before the ladder
/// existed, so fault-free results are bit-identical to plain
/// [`cg_solve`]/[`bicgstab_solve`].
///
/// The budget is probed before every ladder rung (site `"linear.ladder"`),
/// so an expired budget or cancelled token stops the escalation instead of
/// burning the remaining budget on rescue rungs. Pass
/// [`ExecLimits::none`] (or `ctx.limits()` from an unlimited context) for
/// the plain unbudgeted call, bit for bit.
///
/// # Errors
///
/// Returns the first rung's error when every rung fails, alongside the
/// report describing each failed attempt.
pub fn solve_linear_robust(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    ctrl: IterControl,
    symmetric: bool,
    limits: &ExecLimits,
) -> (NumResult<(Vec<f64>, SolveStats)>, SolveReport) {
    #[derive(Clone, Copy)]
    enum Rung {
        Cg,
        Bicgstab,
        SparseLu,
    }
    let mut ladder = EscalationLadder::new();
    if symmetric {
        ladder = ladder.rung("cg", Rung::Cg);
    }
    ladder = ladder.rung("bicgstab", Rung::Bicgstab);
    ladder = ladder.rung("sparse-lu", Rung::SparseLu);

    let mut first_err: Option<NumError> = None;
    let mut stop_err: Option<NumError> = None;
    let outcome = ladder.run(|label, rung| {
        if stop_err.is_some() {
            return AttemptReport::failed("skipped: budget stop");
        }
        if let Err(e) = limits.check("linear.ladder") {
            let msg = e.to_string();
            stop_err = Some(e);
            return AttemptReport::failed(msg);
        }
        if telemetry::is_armed() {
            telemetry::counter_inc(&format!("linear.{label}.calls"));
        }
        let injected = crate::fault::should_fail("linear");
        let result = if injected {
            Err(NumError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            })
        } else {
            match rung {
                Rung::Cg => cg_solve(a, b, x0, ctrl),
                Rung::Bicgstab => bicgstab_solve(a, b, x0, ctrl),
                Rung::SparseLu => sparse_lu_attempt(a, b, ctrl),
            }
        };
        match result {
            Ok((x, stats)) => {
                if telemetry::is_armed() {
                    telemetry::counter_add(
                        &format!("linear.{label}.iterations"),
                        stats.iterations as u64,
                    );
                }
                AttemptReport::converged((x, stats), stats.iterations, stats.residual)
            }
            Err(err) => {
                if telemetry::is_armed() {
                    telemetry::counter_inc(&format!("linear.{label}.failures"));
                }
                if first_err.is_none() {
                    first_err = Some(err.clone());
                }
                AttemptReport::failed(err.to_string())
            }
        }
    });
    if outcome.report.attempts.len() > 1 {
        telemetry::counter_add(
            "linear.ladder.escalations",
            (outcome.report.attempts.len() - 1) as u64,
        );
    }
    match outcome.value {
        Some(solution) => (Ok(solution), outcome.report),
        None => {
            // A budget stop outranks solver errors: the caller must see
            // that the ladder was cut short, not that a rung diverged.
            let err = stop_err
                .or(first_err)
                .unwrap_or_else(|| NumError::invalid("empty ladder"));
            (Err(err), outcome.report)
        }
    }
}

fn sparse_lu_attempt(
    a: &CsrMatrix,
    b: &[f64],
    ctrl: IterControl,
) -> NumResult<(Vec<f64>, SolveStats)> {
    let x = crate::sparse_lu::sparse_solve(a, b)?;
    let mut ax = vec![0.0; b.len()];
    a.matvec_into(&x, &mut ax);
    let residual = b
        .iter()
        .zip(&ax)
        .map(|(bi, axi)| (bi - axi) * (bi - axi))
        .sum::<f64>()
        .sqrt();
    let b_norm = b
        .iter()
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt()
        .max(ctrl.abs_tol);
    let target = (ctrl.rel_tol * b_norm).max(ctrl.abs_tol);
    // A direct factorization should land well under the iterative target;
    // give it a generous margin before calling the result unusable.
    if residual <= target.max(1e-8 * b_norm) {
        Ok((
            x,
            SolveStats {
                iterations: 1,
                residual,
            },
        ))
    } else {
        Err(NumError::NoConvergence {
            iterations: 1,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn ladder_first_converged_wins() {
        let ladder = EscalationLadder::new()
            .rung("a", 1)
            .rung("b", 2)
            .rung("c", 3);
        let outcome = ladder.run(|_, &p| {
            if p >= 2 {
                AttemptReport::converged(p * 10, p, 1e-12)
            } else {
                AttemptReport::failed("diverged")
            }
        });
        assert_eq!(outcome.value, Some(20));
        assert!(outcome.report.converged());
        assert!(!outcome.report.nominal());
        assert_eq!(outcome.report.policy_used.as_deref(), Some("b"));
        assert_eq!(outcome.report.attempts.len(), 2);
        assert_eq!(
            outcome.report.attempts[0].error.as_deref(),
            Some("diverged")
        );
        assert_eq!(outcome.report.residual_trajectory.len(), 2);
    }

    #[test]
    fn ladder_keeps_best_degraded() {
        let ladder = EscalationLadder::new()
            .rung("a", 1e-3)
            .rung("b", 1e-6)
            .rung("c", 1e-4);
        let outcome =
            ladder.run(|label, &residual| AttemptReport::degraded(label.to_string(), 10, residual));
        assert_eq!(outcome.value.as_deref(), Some("b"));
        assert!(outcome.report.degraded());
        assert_eq!(outcome.report.policy_used.as_deref(), Some("b"));
        assert_eq!(outcome.report.attempts.len(), 3);
    }

    #[test]
    fn ladder_all_failed() {
        let ladder = EscalationLadder::new().rung("a", ()).rung("b", ());
        let outcome: RunOutcome<()> = ladder.run(|_, _| AttemptReport::failed("boom"));
        assert!(outcome.value.is_none());
        assert_eq!(outcome.report.quality, Quality::Failed);
        assert!(outcome.report.policy_used.is_none());
        assert_eq!(outcome.report.attempts.len(), 2);
    }

    #[test]
    fn nominal_flag_set_only_for_first_rung_win() {
        let ladder = EscalationLadder::new()
            .rung("nominal", ())
            .rung("retry", ());
        let outcome = ladder.run(|_, _| AttemptReport::converged((), 3, 1e-13));
        assert!(outcome.report.nominal());
    }

    #[test]
    fn fault_log_records_and_filters() {
        let mut log = FaultLog::new();
        assert!(log.is_empty());
        log.record(4, "scf", "diverged");
        log.record(7, "ring", "newton diverged");
        log.record(9, "scf", "diverged");
        assert_eq!(log.len(), 3);
        assert_eq!(log.in_stage("scf").count(), 2);
        assert_eq!(log.events()[1].sample, 7);
    }

    #[test]
    fn robust_solve_matches_plain_cg_bit_identically() {
        let n = 40;
        let a = laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let x0 = vec![0.0; n];
        let ctrl = IterControl::default();
        let (plain, _) = cg_solve(&a, &b, &x0, ctrl).unwrap();
        let (robust, report) = solve_linear_robust(&a, &b, &x0, ctrl, true, &ExecLimits::none());
        let (robust, _) = robust.unwrap();
        assert_eq!(plain, robust, "nominal rung must be bit-identical to cg");
        assert!(report.nominal());
        assert_eq!(report.policy_used.as_deref(), Some("cg"));
    }

    #[test]
    fn robust_solve_falls_back_when_budget_too_small() {
        // A 2-iteration budget kills both Krylov rungs; sparse LU rescues.
        let n = 60;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let ctrl = IterControl {
            max_iter: 2,
            ..IterControl::default()
        };
        let (result, report) =
            solve_linear_robust(&a, &b, &vec![0.0; n], ctrl, true, &ExecLimits::none());
        let (x, _) = result.unwrap();
        assert!(report.converged());
        assert_eq!(report.policy_used.as_deref(), Some("sparse-lu"));
        assert_eq!(report.attempts.len(), 3);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn robust_solve_direct_rung_handles_large_systems() {
        // Above the historical 768-unknown dense cap, the sparse rung
        // still rescues a budget-starved Krylov ladder.
        let n = 1200;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let ctrl = IterControl {
            max_iter: 2,
            ..IterControl::default()
        };
        let (result, report) =
            solve_linear_robust(&a, &b, &vec![0.0; n], ctrl, true, &ExecLimits::none());
        let (x, _) = result.unwrap();
        assert_eq!(report.policy_used.as_deref(), Some("sparse-lu"));
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn robust_solve_stops_on_exhausted_budget() {
        use crate::budget::Budget;
        let n = 40;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        // A zero check cap trips before the first rung runs: no solver
        // work, a typed budget error, and every rung marked skipped.
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(0));
        let (result, report) =
            solve_linear_robust(&a, &b, &vec![0.0; n], IterControl::default(), true, &limits);
        assert!(matches!(result, Err(NumError::BudgetExhausted { .. })));
        assert_eq!(report.quality, Quality::Failed);
        assert!(report.attempts[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("budget")));
    }

    #[test]
    fn robust_solve_reports_first_error_when_everything_fails() {
        // Zero diagonal kills the Jacobi-preconditioned Krylov rungs, and
        // an empty column makes the pattern structurally singular so even
        // the direct rung fails.
        let n = 40;
        let mut tb = TripletBuilder::new(n, n);
        for i in 0..n {
            let j = if i + 1 < n { i + 1 } else { 1 };
            tb.push(i, j, 1.0);
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
        assert!(matches!(result, Err(NumError::InvalidInput { .. })));
        assert_eq!(report.quality, Quality::Failed);
        assert_eq!(report.attempts.len(), 3, "all three rungs attempted");
    }
}
