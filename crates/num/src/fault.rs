//! Deterministic, seeded fault injection for exercising the recovery
//! subsystem (test/bench-only).
//!
//! The injector is a process-global plan mapping *site* labels (e.g.
//! `"scf"`, `"newton"`, `"linear"`) to failure probabilities. Solvers probe
//! their site with [`should_fail`] at the top of a recovery attempt; when
//! the probe fires, the solver behaves exactly as if that attempt had
//! diverged, which forces its escalation ladder to engage. Disarmed (the
//! default), a probe is a single relaxed atomic load, so the hot path pays
//! nothing in production.
//!
//! Determinism: every site draws from its own [`Rng`]
//! stream, seeded from the plan seed and the site label, so the outcome
//! sequence of one site is independent of how often other sites probe.
//!
//! Arming mutates process-global state: tests that arm a plan must
//! serialize against each other and [`disarm`] when done.

use crate::rng::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Every fault site probed anywhere in the workspace. The chaos-soak CI
/// step enumerates this list and runs the fault-tolerance suite with each
/// site armed; a new `should_fail("...")` call must be registered here so
/// the soak exercises it.
pub const REGISTERED_SITES: &[&str] = &[
    "scf",
    "newton",
    "newton-dc",
    "dc.source_stepping",
    "linear",
    "characterize",
    "negf.surface_cache",
    "negf.mode_space.fallback",
    "checkpoint.corrupt",
    "budget.spurious_expiry",
    "table_cache.corrupt",
];

/// A seeded fault-injection plan: per-site failure probabilities.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    sites: HashMap<String, SiteState>,
}

#[derive(Debug)]
struct SiteState {
    probability: f64,
    rng: Rng,
    probes: usize,
    injected: usize,
}

/// FNV-1a over the site label, used to give every site its own RNG stream.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// Creates an empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: HashMap::new(),
        }
    }

    /// Adds (or replaces) a site with the given failure probability in
    /// `[0, 1]`; values outside the range are clamped.
    pub fn with_site(mut self, site: &str, probability: f64) -> Self {
        let p = if probability.is_nan() {
            0.0
        } else {
            probability.clamp(0.0, 1.0)
        };
        self.sites.insert(
            site.to_string(),
            SiteState {
                probability: p,
                rng: Rng::seed_from_u64(self.seed ^ site_hash(site)),
                probes: 0,
                injected: 0,
            },
        );
        self
    }
}

fn with_plan<T>(f: impl FnOnce(&mut Option<FaultPlan>) -> T) -> T {
    let mut guard = PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    f(&mut guard)
}

/// Arms the injector with `plan`, replacing any previous plan.
pub fn arm(plan: FaultPlan) {
    with_plan(|p| *p = Some(plan));
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the injector and drops the plan.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    with_plan(|p| *p = None);
}

/// `true` while a plan is armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Probes `site`: returns `true` when the armed plan injects a fault here.
/// Always `false` (one atomic load) when disarmed or the site is unlisted.
pub fn should_fail(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    with_plan(|plan| {
        let Some(plan) = plan.as_mut() else {
            return false;
        };
        let Some(state) = plan.sites.get_mut(site) else {
            return false;
        };
        state.probes += 1;
        let fire = state.rng.uniform() < state.probability;
        if fire {
            state.injected += 1;
        }
        fire
    })
}

/// Number of faults injected at `site` since the plan was armed.
pub fn injection_count(site: &str) -> usize {
    with_plan(|plan| {
        plan.as_ref()
            .and_then(|p| p.sites.get(site))
            .map_or(0, |s| s.injected)
    })
}

/// Number of probes seen at `site` since the plan was armed.
pub fn probe_count(site: &str) -> usize {
    with_plan(|plan| {
        plan.as_ref()
            .and_then(|p| p.sites.get(site))
            .map_or(0, |s| s.probes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, OnceLock};

    /// The injector is process-global: serialize the tests that arm it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<TestMutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_probes_never_fire() {
        let _g = lock();
        disarm();
        assert!(!is_armed());
        for _ in 0..100 {
            assert!(!should_fail("anything"));
        }
    }

    #[test]
    fn armed_plan_fires_deterministically() {
        let _g = lock();
        let run = || -> Vec<bool> {
            arm(FaultPlan::seeded(42).with_site("scf", 0.5));
            let fired = (0..64).map(|_| should_fail("scf")).collect();
            disarm();
            fired
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same outcome sequence");
        assert!(a.iter().any(|&f| f), "p = 0.5 fires within 64 probes");
        assert!(a.iter().any(|&f| !f), "p = 0.5 passes within 64 probes");
    }

    #[test]
    fn unlisted_sites_and_extremes() {
        let _g = lock();
        arm(FaultPlan::seeded(1)
            .with_site("always", 1.0)
            .with_site("never", 0.0));
        assert!(!should_fail("unlisted"));
        for _ in 0..10 {
            assert!(should_fail("always"));
            assert!(!should_fail("never"));
        }
        assert_eq!(injection_count("always"), 10);
        assert_eq!(probe_count("never"), 10);
        assert_eq!(injection_count("never"), 0);
        disarm();
        assert_eq!(injection_count("always"), 0, "disarm drops the counters");
    }

    #[test]
    fn site_streams_are_independent() {
        let _g = lock();
        // Interleaving probes of a second site must not disturb the first
        // site's outcome sequence.
        arm(FaultPlan::seeded(7).with_site("a", 0.5).with_site("b", 0.5));
        let solo: Vec<bool> = (0..32).map(|_| should_fail("a")).collect();
        disarm();
        arm(FaultPlan::seeded(7).with_site("a", 0.5).with_site("b", 0.5));
        let interleaved: Vec<bool> = (0..32)
            .map(|_| {
                let _ = should_fail("b");
                should_fail("a")
            })
            .collect();
        disarm();
        assert_eq!(solo, interleaved);
    }
}
