//! Budgeted execution: cooperative cancellation and per-run deadlines /
//! check-count caps, carried on [`ExecCtx`](crate::par::ExecCtx) and
//! probed at every fragile-loop boundary (Sancho–Rubio decimation, NEGF
//! energy points, SCF iterations, linear-ladder rungs, DC gmin/source
//! stages, transient steps, Monte Carlo samples).
//!
//! # Cost model
//!
//! Mirrors the fault injector ([`fault`]): an *unlimited*
//! [`ExecLimits`] check is a single relaxed atomic load (the injector's
//! disarmed probe) plus two `Option` tests — no clock read, no lock, no
//! allocation — so production hot paths pay nothing for the plumbing.
//! Only when a token or budget is actually attached does a check read the
//! cancel flag, the monotonic clock, and the check counter.
//!
//! # Semantics
//!
//! A tripped check surfaces [`NumError::Cancelled`] or
//! [`NumError::BudgetExhausted`] naming the site. Escalation ladders must
//! treat these as *stop* conditions ([`NumError::is_budget_stop`]) and
//! propagate them instead of burning the remaining budget on rescue
//! rungs; drivers surface whatever partial data is valid alongside the
//! error. Deterministic tests use check-count caps (exact, scheduler
//! independent); wall-clock deadlines are inherently nondeterministic in
//! *where* they trip, which is why checkpointed drivers only promise
//! bit-identical summaries once a resumed run completes.
//!
//! Telemetry: `budget.checks` counts checks made while limits are
//! attached, `budget.expirations` counts tripped checks (including the
//! `budget.spurious_expiry` fault site used for injection testing).

use crate::error::{NumError, NumResult};
use crate::{fault, telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault site probed by every limits check; arming it forces a
/// `BudgetExhausted` expiry regardless of the actual budget state.
pub const FAULT_SITE: &str = "budget.spurious_expiry";

/// Cooperative cancellation flag. Cheap to clone (an `Arc<AtomicBool>`);
/// all clones observe the same flag. Cancellation is one-way: there is no
/// reset, mirroring a job-queue kill signal.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every holder of a clone observes it at its
    /// next fragile-loop boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called. A
    /// single relaxed load.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Declarative budget: an optional wall-clock deadline and an optional cap
/// on the number of fragile-loop checks (each boundary check consumes one
/// unit, so the cap bounds solver work in scheduler-independent units).
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    check_cap: Option<u64>,
}

impl Budget {
    /// A budget with no bounds (checks always pass).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline `d` from now.
    pub fn with_wall_clock(self, d: Duration) -> Self {
        self.with_deadline(Instant::now() + d)
    }

    /// Caps the total number of fragile-loop checks at `cap`; the
    /// `cap + 1`-th check trips. Exact and deterministic at any
    /// `GNR_THREADS`, which makes it the budget of choice for tests.
    pub fn with_check_cap(mut self, cap: u64) -> Self {
        self.check_cap = Some(cap);
        self
    }
}

#[derive(Debug, Default)]
struct BudgetState {
    deadline: Option<Instant>,
    check_cap: Option<u64>,
    checks: AtomicU64,
}

/// The limits handle carried on [`ExecCtx`](crate::par::ExecCtx): an
/// optional [`CancelToken`] plus an optional [`Budget`]. Clones share the
/// underlying state (the check counter is global to the run, not per
/// clone). The default is unlimited.
#[derive(Clone, Debug, Default)]
pub struct ExecLimits {
    cancel: Option<CancelToken>,
    budget: Option<Arc<BudgetState>>,
}

impl ExecLimits {
    /// No limits: every check passes at the cost of one relaxed load.
    pub fn none() -> Self {
        ExecLimits::default()
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a budget (deadline and/or check cap).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(Arc::new(BudgetState {
            deadline: budget.deadline,
            check_cap: budget.check_cap,
            checks: AtomicU64::new(0),
        }));
        self
    }

    /// `true` when a token or budget is attached (checks do real work).
    pub fn is_limited(&self) -> bool {
        self.cancel.is_some() || self.budget.is_some()
    }

    /// Fragile-loop checks consumed so far (0 when no budget attached).
    pub fn checks_spent(&self) -> u64 {
        self.budget
            .as_ref()
            .map_or(0, |b| b.checks.load(Ordering::Relaxed))
    }

    /// Probes the limits at the fragile-loop boundary `site`.
    ///
    /// # Errors
    ///
    /// [`NumError::Cancelled`] when the token has fired,
    /// [`NumError::BudgetExhausted`] when the deadline has passed, the
    /// check cap is consumed, or the `budget.spurious_expiry` fault site
    /// injects an expiry.
    pub fn check(&self, site: &str) -> NumResult<()> {
        if fault::should_fail(FAULT_SITE) {
            telemetry::counter_inc("budget.expirations");
            return Err(NumError::BudgetExhausted {
                site: site.to_string(),
            });
        }
        if !self.is_limited() {
            return Ok(());
        }
        telemetry::counter_inc("budget.checks");
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                telemetry::counter_inc("budget.expirations");
                return Err(NumError::Cancelled {
                    site: site.to_string(),
                });
            }
        }
        if let Some(state) = &self.budget {
            let expired = state
                .check_cap
                .is_some_and(|cap| state.checks.fetch_add(1, Ordering::Relaxed) >= cap)
                || state.deadline.is_some_and(|at| Instant::now() >= at);
            if expired {
                telemetry::counter_inc("budget.expirations");
                return Err(NumError::BudgetExhausted {
                    site: site.to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::{Mutex as TestMutex, OnceLock};

    /// The fault injector is process-global: serialize arming tests.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<TestMutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn unlimited_checks_always_pass() {
        let limits = ExecLimits::none();
        assert!(!limits.is_limited());
        for _ in 0..1000 {
            limits.check("anywhere").expect("unlimited");
        }
        assert_eq!(limits.checks_spent(), 0);
    }

    #[test]
    fn cancel_token_trips_every_clone() {
        let token = CancelToken::new();
        let limits = ExecLimits::none().with_cancel(token.clone());
        let shared = limits.clone();
        limits.check("scf").expect("not yet cancelled");
        token.cancel();
        let err = shared.check("scf").unwrap_err();
        assert_eq!(err, NumError::Cancelled { site: "scf".into() });
        assert!(err.is_budget_stop());
    }

    #[test]
    fn check_cap_trips_exactly_after_cap_checks() {
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(5));
        for i in 0..5 {
            limits
                .check("loop")
                .unwrap_or_else(|e| panic!("check {i}: {e}"));
        }
        let err = limits.check("loop").unwrap_err();
        assert_eq!(
            err,
            NumError::BudgetExhausted {
                site: "loop".into()
            }
        );
        // Clones share the counter: the cap is per run, not per handle.
        assert!(limits.clone().check("loop").is_err());
    }

    #[test]
    fn elapsed_deadline_trips() {
        let limits =
            ExecLimits::none().with_budget(Budget::unlimited().with_wall_clock(Duration::ZERO));
        assert!(matches!(
            limits.check("negf.energy").unwrap_err(),
            NumError::BudgetExhausted { .. }
        ));
    }

    #[test]
    fn spurious_expiry_fault_site_forces_expiry_even_unlimited() {
        let _g = lock();
        fault::arm(FaultPlan::seeded(9).with_site(FAULT_SITE, 1.0));
        let err = ExecLimits::none().check("mc.sample").unwrap_err();
        fault::disarm();
        assert_eq!(
            err,
            NumError::BudgetExhausted {
                site: "mc.sample".into()
            }
        );
    }
}
