//! Self-consistent NEGF ⇄ 3D-Poisson device solver — the paper's rigorous
//! device path (§2).
//!
//! The loop: the 3D Poisson equation is solved for the electrostatic
//! potential with the current NEGF charge deposited on the grid; the
//! potential sampled at the atom sites shifts the tight-binding on-site
//! energies; NEGF recomputes charge and current; linear (damped) mixing
//! closes the loop. Metal Schottky contacts are wide-band self-energies on
//! the terminal layers, with mid-gap pinning emerging naturally from the
//! contact boundary condition on the potential.

use crate::config::DeviceConfig;
use crate::error::DeviceError;
use gnr_lattice::DeviceHamiltonian;
use gnr_negf::transport::{integrate_transport, EnergyGrid, RefineOptions, TransportOptions};
use gnr_negf::{Lead, RgfSolver};
use gnr_num::par::{ExecCtx, RecoveryPolicy};
use gnr_num::recover::{AttemptReport, EscalationLadder, SolveReport};
use gnr_poisson::PoissonSolution;

/// Convergence and fidelity knobs of the SCF loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScfOptions {
    /// Maximum SCF iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the maximum potential update \[V\].
    pub tolerance_v: f64,
    /// Linear mixing factor in `(0, 1]` (fraction of the new potential).
    pub mixing: f64,
    /// Number of energy grid points for the transport integrals.
    pub energy_points: usize,
    /// Half-width of the energy window beyond the bias window \[eV\]
    /// (must cover the filled valence/conduction tails).
    pub energy_margin_ev: f64,
    /// Adaptive energy-grid refinement for the transport integrals: when
    /// set, `energy_points` describes the *coarse base* grid and intervals
    /// where `T(E)` jumps are bisected per [`RefineOptions`]. `None` keeps
    /// the uniform grid.
    pub refine: Option<RefineOptions>,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            max_iterations: 40,
            tolerance_v: 2e-3,
            mixing: 0.35,
            energy_points: 120,
            energy_margin_ev: 0.9,
            refine: None,
        }
    }
}

impl ScfOptions {
    /// Cheap settings for unit tests (coarse but convergent).
    pub fn fast() -> Self {
        ScfOptions {
            max_iterations: 80,
            tolerance_v: 8e-3,
            mixing: 0.3,
            energy_points: 60,
            energy_margin_ev: 0.7,
            refine: None,
        }
    }

    /// `fast()` on an adaptive grid: a coarser base grid with band-edge
    /// refinement on the first SCF iteration, frozen thereafter (see
    /// `solve_inner`) — same physics, fewer RGF solves. The tighter `tol_t`
    /// and iteration headroom give the frozen grid margin at biases whose
    /// T(E) features move as the potential converges.
    pub fn fast_adaptive() -> Self {
        ScfOptions {
            max_iterations: 120,
            energy_points: 30,
            refine: Some(RefineOptions {
                tol_t: 0.01,
                ..RefineOptions::default()
            }),
            ..ScfOptions::fast()
        }
    }

    /// Sets the maximum number of SCF iterations.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the convergence threshold on the potential update \[V\].
    pub fn with_tolerance_v(mut self, tol: f64) -> Self {
        self.tolerance_v = tol;
        self
    }

    /// Sets the linear mixing factor in `(0, 1]`.
    pub fn with_mixing(mut self, mixing: f64) -> Self {
        self.mixing = mixing;
        self
    }

    /// Sets the number of energy grid points (the coarse base grid when
    /// `refine` is set).
    pub fn with_energy_points(mut self, n: usize) -> Self {
        self.energy_points = n;
        self
    }

    /// Sets the energy-window margin beyond the bias window \[eV\].
    pub fn with_energy_margin_ev(mut self, margin: f64) -> Self {
        self.energy_margin_ev = margin;
        self
    }

    /// Sets (or clears) adaptive energy-grid refinement.
    pub fn with_refine(mut self, refine: Option<RefineOptions>) -> Self {
        self.refine = refine;
        self
    }
}

/// Converged output of one bias point.
#[derive(Clone, Debug)]
pub struct ScfResult {
    /// Drain current \[A\].
    pub current_a: f64,
    /// Net channel charge \[C\].
    pub charge_c: f64,
    /// Mid-gap potential energy per layer \[eV\] (conduction band profile
    /// is this plus `E_g/2`).
    pub layer_potential_ev: Vec<f64>,
    /// SCF iterations used.
    pub iterations: usize,
    /// Final self-consistency residual \[V\].
    pub residual_v: f64,
    /// Converged potential energy at every atom site \[eV\] — the warm-start
    /// seed for neighbouring bias points in a sweep.
    pub atom_potential_ev: Vec<f64>,
}

/// Self-consistent device solver bound to one [`DeviceConfig`].
#[derive(Clone, Debug)]
pub struct ScfSolver {
    cfg: DeviceConfig,
    opts: ScfOptions,
}

impl ScfSolver {
    /// Creates a solver with the given options.
    pub fn new(cfg: &DeviceConfig, opts: ScfOptions) -> Self {
        ScfSolver {
            cfg: cfg.clone(),
            opts,
        }
    }

    /// Runs the SCF loop at bias `(v_g, v_d)` with the source grounded,
    /// under the execution context's policy and thread pool (the inner
    /// energy integration parallelizes over `ctx`).
    ///
    /// With [`RecoveryPolicy::Strict`] only the nominal attempt runs and
    /// any divergence propagates as an error — byte-for-byte the historic
    /// plain `solve`. With [`RecoveryPolicy::Ladder`] the nominal attempt
    /// (still bit-identical when it converges) is followed on divergence by
    /// a mixing backoff continuing from the last potential, a fresh restart
    /// at quarter mixing, and a restart on a twice-finer energy grid; if no
    /// rung converges, the lowest-residual best-effort result is returned
    /// flagged [`Degraded`](gnr_num::recover::Quality::Degraded) in the
    /// report instead of an `Err`.
    ///
    /// # Errors
    ///
    /// Under `Strict`, returns [`DeviceError::ScfDiverged`] when the
    /// potential update fails to fall below tolerance. Under `Ladder`,
    /// returns the first attempt's error only when every rung fails without
    /// producing even a best-effort iterate (e.g. configuration or upstream
    /// solver failures).
    pub fn solve(
        &self,
        ctx: &ExecCtx,
        v_g: f64,
        v_d: f64,
    ) -> Result<(ScfResult, SolveReport), DeviceError> {
        self.solve_seeded(ctx, v_g, v_d, None)
    }

    /// [`Self::solve`] with an explicit warm start: when `seed_u` matches
    /// the atom count, it replaces the Laplace initial guess for the
    /// atom-site potential of the nominal attempt (recovery rungs keep
    /// their own restart semantics). Seeding from a converged neighbouring
    /// bias point typically removes most SCF iterations of a sweep; with
    /// `seed_u = None` this is byte-for-byte `solve`.
    ///
    /// # Errors
    ///
    /// As [`Self::solve`].
    pub fn solve_seeded(
        &self,
        ctx: &ExecCtx,
        v_g: f64,
        v_d: f64,
        seed_u: Option<&[f64]>,
    ) -> Result<(ScfResult, SolveReport), DeviceError> {
        ctx.counter_inc("scf.solves");
        match ctx.recovery() {
            RecoveryPolicy::Strict => {
                let mut best = None;
                let r = self.solve_inner(ctx, v_g, v_d, &self.opts, seed_u, &mut best)?;
                let report = SolveReport::single("nominal", r.iterations, r.residual_v);
                Ok((r, report))
            }
            RecoveryPolicy::Ladder => self.solve_laddered(ctx, v_g, v_d, seed_u),
        }
    }

    /// The escalation-ladder solve behind [`RecoveryPolicy::Ladder`].
    fn solve_laddered(
        &self,
        ctx: &ExecCtx,
        v_g: f64,
        v_d: f64,
        seed_u: Option<&[f64]>,
    ) -> Result<(ScfResult, SolveReport), DeviceError> {
        struct ScfPolicy {
            opts: ScfOptions,
            reuse_potential: bool,
            /// Nominal rung only: start from the caller's warm-start seed.
            use_seed: bool,
        }
        let base = self.opts;
        let ladder = EscalationLadder::new()
            .rung(
                "nominal",
                ScfPolicy {
                    opts: base,
                    reuse_potential: false,
                    use_seed: true,
                },
            )
            .rung(
                "mixing-backoff",
                ScfPolicy {
                    opts: ScfOptions {
                        mixing: base.mixing * 0.5,
                        ..base
                    },
                    reuse_potential: true,
                    use_seed: false,
                },
            )
            .rung(
                "restart-low-mixing",
                ScfPolicy {
                    opts: ScfOptions {
                        mixing: base.mixing * 0.25,
                        ..base
                    },
                    reuse_potential: false,
                    use_seed: false,
                },
            )
            .rung(
                "fine-energy-grid",
                ScfPolicy {
                    opts: ScfOptions {
                        mixing: base.mixing * 0.25,
                        energy_points: base.energy_points * 2,
                        ..base
                    },
                    reuse_potential: false,
                    use_seed: false,
                },
            );

        let mut carry_u: Option<Vec<f64>> = None;
        let mut first_err: Option<DeviceError> = None;
        // A budget stop must not burn further rescue rungs: record it and
        // short-circuit the remaining ladder.
        let mut stop_err: Option<DeviceError> = None;
        let outcome = ladder.run(|_, policy: &ScfPolicy| {
            if stop_err.is_some() {
                return AttemptReport::failed("skipped: budget stop");
            }
            if gnr_num::fault::should_fail("scf") {
                return AttemptReport::failed("injected fault: scf attempt suppressed");
            }
            let init = if policy.reuse_potential {
                carry_u.as_deref()
            } else if policy.use_seed {
                seed_u
            } else {
                None
            };
            let mut best = None;
            match self.solve_inner(ctx, v_g, v_d, &policy.opts, init, &mut best) {
                Ok(r) => {
                    let (it, res) = (r.iterations, r.residual_v);
                    AttemptReport::converged(r, it, res)
                }
                Err(err) => {
                    let msg = err.to_string();
                    let budget_stop = matches!(&err, DeviceError::Num(e) if e.is_budget_stop());
                    if budget_stop {
                        stop_err = Some(err);
                    } else if first_err.is_none() {
                        first_err = Some(err);
                    }
                    match best {
                        Some((result, u_atoms)) => {
                            carry_u = Some(u_atoms);
                            let (it, res) = (result.iterations, result.residual_v);
                            AttemptReport::degraded(result, it, res)
                        }
                        None => AttemptReport::failed(msg),
                    }
                }
            }
        });
        if outcome.report.attempts.len() > 1 {
            ctx.counter_add(
                "scf.ladder.escalations",
                (outcome.report.attempts.len() - 1) as u64,
            );
        }
        if outcome.report.degraded() {
            ctx.counter_inc("scf.degraded");
        }
        match outcome.value {
            Some(result) => Ok((result, outcome.report)),
            None => Err(stop_err.or(first_err).unwrap_or(DeviceError::ScfDiverged {
                iterations: 0,
                residual_v: f64::NAN,
            })),
        }
    }

    /// The SCF loop itself. `opts` overrides the solver's options for this
    /// attempt; `init_u` (when its length matches the atom count) replaces
    /// the Laplace initial guess for the atom-site potential; on
    /// divergence, `best_out` receives the last iterate as a best-effort
    /// [`ScfResult`] plus its atom potential for ladder continuation.
    fn solve_inner(
        &self,
        ctx: &ExecCtx,
        v_g: f64,
        v_d: f64,
        opts: &ScfOptions,
        init_u: Option<&[f64]>,
        best_out: &mut Option<(ScfResult, Vec<f64>)>,
    ) -> Result<ScfResult, DeviceError> {
        let cfg = &self.cfg;
        let gnr = cfg.gnr;
        let cells = cfg.channel_cells;
        let m = gnr.atoms_per_cell();
        let lattice = gnr.lattice(cells);
        let atoms = lattice.atom_count();

        // Atom positions on the Poisson grid (nm): the channel starts at the
        // source face.
        let h = cfg.grid_h_nm;
        let (ch0, _) = cfg.channel_x_range();
        let (_, ny, _) = cfg.grid_dims();
        let x0 = ch0 as f64 * h;
        let y0 = (ny as f64 * h - gnr.width_nm()) / 2.0;
        let z_gnr = (cfg.gnr_plane_k() as f64 + 0.5) * h;
        let positions: Vec<(f64, f64, f64)> = lattice
            .atoms()
            .iter()
            .map(|a| (x0 + a.x * 1e9, y0 + a.y * 1e9, z_gnr))
            .collect();

        let mu_s = 0.0f64;
        let mu_d = -v_d;
        let pad = opts.energy_margin_ev;
        let grid = EnergyGrid::new(
            mu_s.min(mu_d) - pad,
            mu_s.max(mu_d) + pad,
            opts.energy_points,
        )?;
        let mut energies: Vec<f64> = grid.energies().collect();

        // Initial guess: zero charge -> Laplace potential (still solved when
        // a ladder rung hands in a previous iterate, to seed the Poisson
        // warm start).
        let problem = cfg.build_poisson(0.0, v_d, v_g)?;
        let mut poisson_sol: PoissonSolution = problem.solve(None, ctx.limits())?;
        let mut u_atoms: Vec<f64> = match init_u {
            Some(prev) if prev.len() == atoms => prev.to_vec(),
            _ => positions
                .iter()
                .map(|&(x, y, z)| -poisson_sol.potential_at(x, y, z))
                .collect(),
        };

        let mut last = ScfIter {
            current_a: 0.0,
            charge: vec![0.0; atoms],
            residual: f64::INFINITY,
            iterations: 0,
        };
        // Adaptive damping: back off when the update grows (oscillation),
        // recover slowly towards the configured mixing when it shrinks.
        let mut alpha = opts.mixing;
        let mut prev_residual = f64::INFINITY;
        // Adaptive-grid SCF refines on the FIRST iteration only and then
        // freezes that energy set: re-refining each iteration makes the
        // charge a discontinuous function of the potential (the refinement
        // set flips as T(E) features move), which turns the fixed point
        // into a limit cycle.
        let mut refine = opts.refine;

        for it in 0..opts.max_iterations {
            ctx.check_budget("scf.iteration")?;
            // NEGF with the current potential.
            let ham = DeviceHamiltonian::new(gnr, cells, &u_atoms)?;
            let solver = RgfSolver::new(
                &ham,
                Lead::metal_with_gamma(cfg.contact_gamma_ev),
                Lead::metal_with_gamma(cfg.contact_gamma_ev),
            );
            let topts = TransportOptions {
                refine: refine.take(),
                cache: None,
            };
            let transport = integrate_transport(
                ctx,
                &solver,
                &energies,
                &topts,
                mu_s,
                mu_d,
                cfg.temperature_k,
                &u_atoms,
            )?;
            if topts.refine.is_some() {
                energies = transport.transmission.iter().map(|&(e, _)| e).collect();
            }

            // Poisson with the NEGF charge deposited per atom.
            let mut problem = cfg.build_poisson(0.0, v_d, v_g)?;
            for (i, &(x, y, z)) in positions.iter().enumerate() {
                problem.add_point_charge(x, y, z, transport.charge.net[i]);
            }
            let new_sol = problem.solve(Some(poisson_sol.raw()), ctx.limits())?;
            let new_u: Vec<f64> = positions
                .iter()
                .map(|&(x, y, z)| -new_sol.potential_at(x, y, z))
                .collect();
            let residual = new_u
                .iter()
                .zip(&u_atoms)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            // `f64::max` silently drops NaN, so probe the update directly: a
            // non-finite potential means the fixed point is lost for good.
            if !residual.is_finite() || new_u.iter().any(|u| !u.is_finite()) {
                return Err(gnr_num::NumError::non_finite(format!(
                    "scf potential update at iteration {}",
                    it + 1
                ))
                .into());
            }

            // Damped linear mixing of the potential with adaptive step.
            if residual > prev_residual {
                alpha = (alpha * 0.6).max(0.01);
            } else {
                alpha = (alpha * 1.03).min(opts.mixing);
            }
            prev_residual = residual;
            ctx.counter_inc("scf.iterations");
            ctx.telemetry()
                .histogram_record("scf.residual_v", SCF_RESIDUAL_BOUNDS, residual);
            for (u, nu) in u_atoms.iter_mut().zip(&new_u) {
                *u = (1.0 - alpha) * *u + alpha * nu;
            }
            poisson_sol = new_sol;
            last = ScfIter {
                current_a: transport.current_a,
                charge: transport.charge.net.clone(),
                residual,
                iterations: it + 1,
            };
            if residual < opts.tolerance_v {
                let layer_potential_ev = (0..cells)
                    .map(|l| u_atoms[l * m..(l + 1) * m].iter().sum::<f64>() / m as f64)
                    .collect();
                let charge_c = last.charge.iter().sum::<f64>() * gnr_num::consts::Q_E;
                return Ok(ScfResult {
                    current_a: last.current_a,
                    charge_c,
                    layer_potential_ev,
                    iterations: last.iterations,
                    residual_v: residual,
                    atom_potential_ev: u_atoms,
                });
            }
        }
        // Hand the last iterate to the caller as best-effort state (only on
        // the divergence path, so the converged path does no extra work).
        if last.iterations > 0 {
            let layer_potential_ev = (0..cells)
                .map(|l| u_atoms[l * m..(l + 1) * m].iter().sum::<f64>() / m as f64)
                .collect();
            let charge_c = last.charge.iter().sum::<f64>() * gnr_num::consts::Q_E;
            *best_out = Some((
                ScfResult {
                    current_a: last.current_a,
                    charge_c,
                    layer_potential_ev,
                    iterations: last.iterations,
                    residual_v: last.residual,
                    atom_potential_ev: u_atoms.clone(),
                },
                u_atoms,
            ));
        }
        Err(DeviceError::ScfDiverged {
            iterations: last.iterations,
            residual_v: last.residual,
        })
    }
}

/// Bin edges (volts) for the `scf.residual_v` trajectory histogram: log
/// decades spanning tight convergence to outright divergence.
const SCF_RESIDUAL_BOUNDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

struct ScfIter {
    current_a: f64,
    charge: Vec<f64>,
    residual: f64,
    iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DeviceConfig {
        let mut cfg = DeviceConfig::test_small(9).unwrap();
        cfg.channel_cells = 12;
        cfg
    }

    fn strict() -> ExecCtx {
        ExecCtx::strict()
    }

    #[test]
    fn scf_converges_at_off_state() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (r, report) = solver.solve(&strict(), 0.0, 0.1).unwrap();
        assert!(r.residual_v < ScfOptions::fast().tolerance_v);
        assert!(r.iterations >= 1);
        assert!(r.current_a.is_finite());
        assert!(report.nominal(), "strict solve reports one nominal attempt");
    }

    #[test]
    fn infinite_energy_margin_is_a_config_error() {
        // An infinite window would make every grid energy NaN.
        let opts = ScfOptions::fast().with_energy_margin_ev(f64::INFINITY);
        let r = ScfSolver::new(&tiny_cfg(), opts).solve(&strict(), 0.0, 0.1);
        assert!(
            matches!(
                r,
                Err(DeviceError::Negf(gnr_negf::NegfError::Config { .. }))
            ),
            "{r:?}"
        );
    }

    #[test]
    fn scf_gate_modulates_barrier() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (low, _) = solver.solve(&strict(), 0.0, 0.1).unwrap();
        let (high, _) = solver.solve(&strict(), 0.5, 0.1).unwrap();
        // Higher gate voltage pulls the mid-channel potential down.
        let mid = low.layer_potential_ev.len() / 2;
        assert!(
            high.layer_potential_ev[mid] < low.layer_potential_ev[mid] - 0.2,
            "gate control: {} -> {}",
            low.layer_potential_ev[mid],
            high.layer_potential_ev[mid]
        );
    }

    #[test]
    fn scf_on_current_exceeds_off_current() {
        // A slightly longer channel than tiny_cfg: at ~5 nm direct
        // source-drain tunneling erodes the on/off contrast.
        let mut cfg = tiny_cfg();
        cfg.channel_cells = 18;
        let solver = ScfSolver::new(&cfg, ScfOptions::fast());
        let vd = 0.3;
        let (off, _) = solver.solve(&strict(), vd / 2.0, vd).unwrap();
        let (on, _) = solver.solve(&strict(), 0.6, vd).unwrap();
        assert!(
            on.current_a > 2.0 * off.current_a.abs().max(1e-12),
            "on {:.3e} off {:.3e}",
            on.current_a,
            off.current_a
        );
    }

    #[test]
    fn recovery_nominal_path_is_bit_identical() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (plain, _) = solver.solve(&strict(), 0.0, 0.1).unwrap();
        let (laddered, report) = solver.solve(&ExecCtx::serial(), 0.0, 0.1).unwrap();
        assert!(report.nominal(), "fault-free: first rung must win");
        assert_eq!(report.policy_used.as_deref(), Some("nominal"));
        assert_eq!(plain.current_a.to_bits(), laddered.current_a.to_bits());
        assert_eq!(plain.charge_c.to_bits(), laddered.charge_c.to_bits());
        assert_eq!(plain.layer_potential_ev, laddered.layer_potential_ev);
        assert_eq!(plain.iterations, laddered.iterations);
    }

    #[test]
    fn parallel_solve_bit_identical_to_serial() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (serial, _) = solver.solve(&strict(), 0.3, 0.2).unwrap();
        let par_ctx = ExecCtx::with_threads(4).with_recovery(RecoveryPolicy::Strict);
        let (par, _) = solver.solve(&par_ctx, 0.3, 0.2).unwrap();
        assert_eq!(serial.current_a.to_bits(), par.current_a.to_bits());
        assert_eq!(serial.charge_c.to_bits(), par.charge_c.to_bits());
        assert_eq!(serial.layer_potential_ev, par.layer_potential_ev);
        assert_eq!(serial.iterations, par.iterations);
    }

    #[test]
    fn solve_records_telemetry_on_isolated_sink() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let ctx = ExecCtx::serial().with_telemetry(gnr_num::Telemetry::isolated());
        let (r, _) = solver.solve(&ctx, 0.0, 0.1).unwrap();
        let snap = ctx.telemetry().snapshot();
        assert_eq!(snap.counter("scf.solves"), Some(1));
        assert_eq!(snap.counter("scf.iterations"), Some(r.iterations as u64));
        assert_eq!(
            snap.counter("negf.transport.integrations"),
            Some(r.iterations as u64)
        );
        match snap.get("scf.residual_v") {
            Some(gnr_num::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, r.iterations as u64);
            }
            other => panic!("expected residual histogram, got {other:?}"),
        }
    }

    #[test]
    fn ladder_rescues_iteration_starved_solve() {
        // One SCF iteration cannot converge; the nominal rung diverges but
        // later rungs (same budget, lower mixing) cannot either — the
        // ladder must still hand back a flagged best-effort result.
        let opts = ScfOptions {
            max_iterations: 1,
            ..ScfOptions::fast()
        };
        let solver = ScfSolver::new(&tiny_cfg(), opts);
        assert!(solver.solve(&strict(), 0.0, 0.1).is_err());
        let (result, report) = solver.solve(&ExecCtx::serial(), 0.0, 0.1).unwrap();
        assert!(report.degraded());
        assert_eq!(report.attempts.len(), 4, "every rung attempted");
        assert!(result.residual_v.is_finite());
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn warm_start_converges_faster_to_same_point() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (cold, _) = solver.solve(&strict(), 0.3, 0.1).unwrap();
        // Neighbouring bias point, seeded with the converged potential.
        let (warm, _) = solver
            .solve_seeded(&strict(), 0.3, 0.15, Some(&cold.atom_potential_ev))
            .unwrap();
        let (cold2, _) = solver.solve(&strict(), 0.3, 0.15).unwrap();
        assert!(
            warm.iterations <= cold2.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold2.iterations
        );
        // Both converge to the same fixed point within tolerance.
        let tol = 5.0 * ScfOptions::fast().tolerance_v;
        for (a, b) in warm
            .layer_potential_ev
            .iter()
            .zip(&cold2.layer_potential_ev)
        {
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn unseeded_solve_seeded_is_solve() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (a, _) = solver.solve(&strict(), 0.2, 0.1).unwrap();
        let (b, _) = solver.solve_seeded(&strict(), 0.2, 0.1, None).unwrap();
        assert_eq!(a.current_a.to_bits(), b.current_a.to_bits());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.atom_potential_ev, b.atom_potential_ev);
    }

    #[test]
    fn adaptive_energy_grid_matches_uniform_physics() {
        let uniform = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let adaptive = ScfSolver::new(&tiny_cfg(), ScfOptions::fast_adaptive());
        let (u, _) = uniform.solve(&strict(), 0.4, 0.2).unwrap();
        let (a, _) = adaptive.solve(&strict(), 0.4, 0.2).unwrap();
        let scale = u.current_a.abs().max(1e-12);
        assert!(
            (u.current_a - a.current_a).abs() / scale < 0.15,
            "uniform {:.3e} adaptive {:.3e}",
            u.current_a,
            a.current_a
        );
        let mid = u.layer_potential_ev.len() / 2;
        assert!((u.layer_potential_ev[mid] - a.layer_potential_ev[mid]).abs() < 0.05);
    }

    #[test]
    fn scf_accumulates_electrons_at_high_gate() {
        let solver = ScfSolver::new(&tiny_cfg(), ScfOptions::fast());
        let (off, _) = solver.solve(&strict(), 0.05, 0.1).unwrap();
        let (on, _) = solver.solve(&strict(), 0.6, 0.1).unwrap();
        // Electron accumulation makes the net channel charge more negative.
        assert!(
            on.charge_c < off.charge_c,
            "{} vs {}",
            on.charge_c,
            off.charge_c
        );
    }
}
