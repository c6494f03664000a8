//! Landauer current and charge integration over energy.
//!
//! For a ballistic two-terminal device the electron correlation function
//! splits exactly into contact-resolved spectral pieces,
//! `Gⁿ = A₁ f₁ + A₂ f₂`, so the charge at atom *i* and the terminal current
//! are energy integrals over the [`SpectralSlice`](crate::rgf::SpectralSlice)
//! data produced by the RGF sweeps:
//!
//! ```text
//! n_i = ∫ dE/2π [A₁,ii f₁ + A₂,ii f₂]          (E above the local midgap)
//! p_i = ∫ dE/2π [A₁,ii (1−f₁) + A₂,ii (1−f₂)]  (E below the local midgap)
//! I   = (2e/h)·q ∫ dE T(E) [f₁ − f₂]
//! ```

use crate::cache::SurfaceGfCache;
use crate::error::NegfError;
use crate::rgf::{RgfSolver, SpectralSlice};
use gnr_num::budget::ExecLimits;
use gnr_num::consts::LANDAUER_2E_OVER_H;
use gnr_num::fermi::fermi;
use gnr_num::par::ExecCtx;
use gnr_num::TelemetryShard;
use std::sync::Arc;

/// A per-energy spectral-function source [`integrate_transport`] can
/// drive: the dense real-space [`RgfSolver`] and the reduced
/// [`ModeSpaceSolver`](crate::mode_space::ModeSpaceSolver) both implement
/// it, so the Landauer integration, adaptive refinement, and surface-GF
/// cache plumbing are shared verbatim between the solver paths.
///
/// Contract: [`slice`](SpectralSolver::slice) must return diagonals with
/// exactly [`atoms`](SpectralSolver::atoms) entries, and every
/// implementation must be deterministic per energy point — the
/// integrator's ordered merge then keeps results bit-identical for any
/// `GNR_THREADS`.
pub trait SpectralSolver {
    /// Number of atoms (diagonal entries) in the device.
    fn atoms(&self) -> usize;

    /// Serially pre-indexes and solves the not-yet-cached surface-GF
    /// entries for `energies` (see [`RgfSolver::prime_surface_cache`]).
    ///
    /// # Errors
    ///
    /// Propagates surface-GF convergence failures and budget stops.
    fn prime_surface_cache(
        &self,
        ctx: &ExecCtx,
        cache: &SurfaceGfCache,
        energies: &[f64],
    ) -> Result<usize, NegfError>;

    /// Transmission and spectral-function diagonals at energy `e`, with the
    /// lead self-energies served through `cache` when one is given (fresh
    /// Sancho–Rubio solves otherwise). Per-energy counters — RGF calls and
    /// sweeps, cache hits and misses, fallbacks — are recorded on `shard`,
    /// the caller's worker-local view of its telemetry sink.
    ///
    /// # Errors
    ///
    /// Propagates lead and linear-algebra failures and budget stops.
    fn slice(
        &self,
        e: f64,
        cache: Option<&SurfaceGfCache>,
        shard: &mut TelemetryShard,
        limits: &ExecLimits,
    ) -> Result<SpectralSlice, NegfError>;
}

impl SpectralSolver for RgfSolver {
    fn atoms(&self) -> usize {
        self.layers() * self.layer_dim()
    }

    fn prime_surface_cache(
        &self,
        ctx: &ExecCtx,
        cache: &SurfaceGfCache,
        energies: &[f64],
    ) -> Result<usize, NegfError> {
        RgfSolver::prime_surface_cache(self, ctx, cache, energies)
    }

    fn slice(
        &self,
        e: f64,
        cache: Option<&SurfaceGfCache>,
        shard: &mut TelemetryShard,
        limits: &ExecLimits,
    ) -> Result<SpectralSlice, NegfError> {
        let (sigma1, sigma2) = self.self_energies(e, cache, shard, limits)?;
        Ok(self
            .spectral_blocks_with_sigmas(e, &sigma1, &sigma2, shard)?
            .into_slice())
    }
}

/// A uniform energy grid for transport integrals (eV).
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyGrid {
    lo: f64,
    hi: f64,
    points: usize,
}

impl EnergyGrid {
    /// Creates a grid of `points ≥ 2` energies spanning `[lo, hi]` eV.
    ///
    /// # Errors
    ///
    /// Returns [`NegfError::Config`] for a non-finite or degenerate range
    /// or fewer than two points.
    pub fn new(lo: f64, hi: f64, points: usize) -> Result<Self, NegfError> {
        // A finite span also keeps `step()` finite (and so every energy).
        if !(hi - lo).is_finite() || hi <= lo {
            return Err(NegfError::Config {
                detail: format!("energy range [{lo}, {hi}] must be finite and non-empty"),
            });
        }
        if points < 2 {
            return Err(NegfError::Config {
                detail: "energy grid needs at least 2 points".into(),
            });
        }
        Ok(EnergyGrid { lo, hi, points })
    }

    /// Creates the grid spanning `[lo, hi]` whose spacing is closest to
    /// `step_ev` (eV). Useful for bias sweeps that want one energy lattice
    /// shared across windows so cache keys collide maximally.
    ///
    /// # Errors
    ///
    /// Returns [`NegfError::Config`] for a non-finite or degenerate range
    /// or a non-positive step.
    pub fn with_step(lo: f64, hi: f64, step_ev: f64) -> Result<Self, NegfError> {
        if step_ev.is_nan() || step_ev <= 0.0 {
            return Err(NegfError::Config {
                detail: format!("energy step {step_ev} must be positive"),
            });
        }
        // An infinite span saturates the cast; `new` then rejects the range.
        let intervals = (((hi - lo) / step_ev).round() as usize).max(1);
        EnergyGrid::new(lo, hi, intervals.saturating_add(1))
    }

    /// Grid spacing (eV).
    pub fn step(&self) -> f64 {
        (self.hi - self.lo) / (self.points - 1) as f64
    }

    /// The `i`-th grid energy (eV).
    pub fn energy(&self, i: usize) -> f64 {
        self.lo + self.step() * i as f64
    }

    /// Iterator over the grid energies (no allocation).
    pub fn energies(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.points).map(|i| self.energy(i))
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points
    }

    /// `false`: a valid grid has ≥ 2 points.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Net charge per atom (units of the elementary charge `q`; electrons
/// contribute negatively, holes positively).
#[derive(Clone, Debug, PartialEq)]
pub struct ChargeProfile {
    /// Per-atom net charge `p_i − n_i` in units of q.
    pub net: Vec<f64>,
    /// Per-atom electron occupation `n_i`.
    pub electrons: Vec<f64>,
    /// Per-atom hole occupation `p_i`.
    pub holes: Vec<f64>,
}

impl ChargeProfile {
    /// Total net charge of the device in units of q.
    pub fn total(&self) -> f64 {
        self.net.iter().sum()
    }

    /// Charge summed per layer (for coupling back into a coarser Poisson
    /// mesh), given the layer block size.
    ///
    /// # Panics
    ///
    /// Panics if `layer_dim` does not divide the atom count.
    pub fn per_layer(&self, layer_dim: usize) -> Vec<f64> {
        assert_eq!(self.net.len() % layer_dim, 0);
        self.net
            .chunks(layer_dim)
            .map(|chunk| chunk.iter().sum())
            .collect()
    }
}

/// Result of a bias-point transport calculation.
#[derive(Clone, Debug)]
pub struct TransportResult {
    /// Terminal current \[A\] (positive from contact 2 into contact 1 for
    /// `mu1 > mu2`).
    pub current_a: f64,
    /// Transmission sampled on the integration grid.
    pub transmission: Vec<(f64, f64)>,
    /// Self-consistent charge profile.
    pub charge: ChargeProfile,
}

/// One energy point's contribution, computed independently on a pool
/// worker and folded into the running integrals during the ordered merge.
struct EnergySample {
    e: f64,
    transmission: f64,
    kernel: f64,
    /// Summed spectral weight `Σ_i (A₁ + A₂)_ii` — the charge-structure
    /// signal the adaptive refinement watches alongside `T(E)`.
    dos: f64,
    filled: Vec<f64>,
    empty: Vec<f64>,
    /// Worker-local telemetry deltas, applied during the ordered merge so
    /// metric aggregation follows the same index order as the data.
    shard: TelemetryShard,
}

/// Adaptive-refinement controls for the transport energy grid.
///
/// Starting from the caller's (coarse) base energy lattice, every interval
/// whose endpoint transmissions differ by more than `tol_t` is bisected,
/// round after round, until nothing exceeds the tolerance, `max_depth`
/// rounds have run (each round halves flagged intervals once, so no
/// interval shrinks below `base_step / 2^max_depth`), or the sample budget
/// `max_points` is reached. This resolves band-edge steps and resonances
/// without paying a dense uniform grid everywhere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefineOptions {
    /// Bisect an interval when `|T(e_{i+1}) − T(e_i)|` exceeds this.
    pub tol_t: f64,
    /// Bisect when the summed spectral weight (device DOS) changes by more
    /// than this relative fraction across an interval. The transmission
    /// criterion is blind to charge structure carried by states that do not
    /// conduct — quasi-bound well resonances in the off-state most of all —
    /// so the charge integral needs its own trigger. `f64::INFINITY`
    /// disables it. Intervals whose weight is below 1% of the base grid's
    /// peak are exempt (deep-gap evanescent tails refine forever otherwise).
    pub tol_dos_rel: f64,
    /// Maximum bisection rounds (= per-interval halvings).
    pub max_depth: usize,
    /// Hard cap on the total number of energy samples.
    pub max_points: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            tol_t: 0.02,
            tol_dos_rel: 0.25,
            max_depth: 6,
            max_points: 4096,
        }
    }
}

/// Options of [`integrate_transport`]. The default integrates on exactly
/// the caller's energies with fresh Sancho–Rubio lead solves per point.
#[derive(Clone, Debug, Default)]
pub struct TransportOptions {
    /// Adaptive energy-grid refinement; `None` keeps the caller's energies.
    pub refine: Option<RefineOptions>,
    /// Shared surface-GF cache; `None` solves Sancho–Rubio per energy.
    pub cache: Option<Arc<SurfaceGfCache>>,
}

impl TransportOptions {
    /// Sets (or replaces) the refinement controls.
    pub fn with_refine(mut self, refine: RefineOptions) -> Self {
        self.refine = Some(refine);
        self
    }

    /// Sets (or replaces) the shared surface-GF cache.
    pub fn with_cache(mut self, cache: Arc<SurfaceGfCache>) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// Integrates current and charge for the device bound to `solver`, with
/// source/drain Fermi levels `mu1`/`mu2` (eV), temperature `t_kelvin`, and
/// the per-atom local midgap reference `neutral_ev` that splits electron
/// from hole occupation (normally the local electrostatic potential).
///
/// `energies` is a strictly ascending list of at least two finite
/// energies (eV): a uniform [`EnergyGrid`], or the energies of an earlier
/// [`TransportResult::transmission`] (an SCF loop that refined its grid on
/// the first iteration re-integrates on exactly that grid afterwards, which
/// keeps the charge a *continuous* function of the potential —
/// re-refining each iteration flips intervals across the tolerance and
/// turns the fixed point into a limit cycle).
///
/// * Without `opts.refine` the integrals run on exactly `energies`. With it,
///   `energies` is the coarse base lattice and intervals where `T(E)` or
///   the spectral weight jumps are bisected per [`RefineOptions`]; the
///   refinement telemetry lands on `negf.transport.refined_points` /
///   `refine_rounds`.
/// * With `opts.cache` set, Sancho–Rubio lead solves are served from the
///   shared bias-sweep cache, priming any missing entries through the
///   serial pre-indexing path first.
///
/// Current and charge both use trapezoid weights on the final sample run,
/// uniform or not. The energy loop runs on `ctx`'s thread pool: each
/// point's spectral slice is independent, and the per-energy contributions
/// (telemetry shards included) are merged serially in energy order, so
/// results and counters are bit-identical for any thread count.
/// Refinement midpoints are deduplicated by construction (each round
/// bisects disjoint intervals), so the cache hit/miss counters stay
/// thread-count invariant too.
///
/// # Errors
///
/// Propagates RGF failures; returns [`NegfError::Config`] for fewer than
/// two energies, a non-finite or non-ascending energy, or a wrong-length
/// `neutral_ev`.
#[allow(clippy::too_many_arguments)]
pub fn integrate_transport<S: SpectralSolver + Sync>(
    ctx: &ExecCtx,
    solver: &S,
    energies: &[f64],
    opts: &TransportOptions,
    mu1: f64,
    mu2: f64,
    t_kelvin: f64,
    neutral_ev: &[f64],
) -> Result<TransportResult, NegfError> {
    let atoms = solver.atoms();
    if neutral_ev.len() != atoms {
        return Err(NegfError::Config {
            detail: format!(
                "neutral point has {} entries for {} atoms",
                neutral_ev.len(),
                atoms
            ),
        });
    }
    // Finiteness first: an ordering test alone lets NaN through.
    if energies.len() < 2
        || energies.iter().any(|e| !e.is_finite())
        || energies.windows(2).any(|w| w[1] <= w[0])
    {
        return Err(NegfError::Config {
            detail: "transport energies must be >= 2 finite, strictly ascending points".into(),
        });
    }
    ctx.counter_inc("negf.transport.integrations");

    let cache = opts.cache.as_deref();
    if let Some(c) = cache {
        solver.prime_surface_cache(ctx, c, energies)?;
    }
    let mut samples = eval_samples(ctx, solver, energies, cache, mu1, mu2, t_kelvin, atoms)?;

    if let Some(refine) = opts.refine {
        let mut refined_points = 0u64;
        let mut rounds = 0u64;
        // Fixed from the base grid (not per round) so the refinement
        // trajectory is independent of what earlier rounds discovered.
        let dos_floor = 0.01 * samples.iter().map(|s| s.dos).fold(0.0, f64::max);
        // Midpoints of one round are distinct energies (disjoint intervals
        // far wider than the cache quantum), so the serial scan below is
        // the pre-index that fixes cache order and counter totals.
        for _ in 0..refine.max_depth {
            let mut mids = Vec::new();
            for w in samples.windows(2) {
                if samples.len() + mids.len() >= refine.max_points {
                    break;
                }
                let span = w[1].e - w[0].e;
                let t_jump = (w[1].transmission - w[0].transmission).abs() > refine.tol_t;
                let pair = w[0].dos + w[1].dos;
                let dos_jump =
                    pair > dos_floor && (w[1].dos - w[0].dos).abs() > refine.tol_dos_rel * pair;
                if span > 1e-9 && (t_jump || dos_jump) {
                    mids.push(0.5 * (w[0].e + w[1].e));
                }
            }
            if mids.is_empty() {
                break;
            }
            if let Some(c) = cache {
                solver.prime_surface_cache(ctx, c, &mids)?;
            }
            let new = eval_samples(ctx, solver, &mids, cache, mu1, mu2, t_kelvin, atoms)?;
            refined_points += new.len() as u64;
            rounds += 1;
            samples = merge_by_energy(samples, new);
        }
        ctx.counter_add("negf.transport.refined_points", refined_points);
        ctx.counter_add("negf.transport.refine_rounds", rounds);
    }

    Ok(merge_samples(ctx, samples, neutral_ev, atoms))
}

/// Evaluates one batch of energies on the pool (index-ordered), optionally
/// through the surface-GF cache. Shards ride inside the samples and are
/// merged by the caller in batch order.
#[allow(clippy::too_many_arguments)]
fn eval_samples<S: SpectralSolver + Sync>(
    ctx: &ExecCtx,
    solver: &S,
    energies: &[f64],
    cache: Option<&SurfaceGfCache>,
    mu1: f64,
    mu2: f64,
    t_kelvin: f64,
    atoms: usize,
) -> Result<Vec<EnergySample>, NegfError> {
    ctx.try_par_map_indexed(energies.len(), |idx| -> Result<EnergySample, NegfError> {
        ctx.check_budget("negf.energy_point")?;
        let mut shard = TelemetryShard::for_sink(ctx.telemetry());
        let e = energies[idx];
        let slice = solver.slice(e, cache, &mut shard, ctx.limits())?;
        shard.counter_inc("negf.energy_points");
        let f1 = fermi(e, mu1, t_kelvin);
        let f2 = fermi(e, mu2, t_kelvin);
        let mut filled = Vec::with_capacity(atoms);
        let mut empty = Vec::with_capacity(atoms);
        let mut dos = 0.0;
        for i in 0..atoms {
            filled.push(slice.a1_diag[i] * f1 + slice.a2_diag[i] * f2);
            empty.push(slice.a1_diag[i] * (1.0 - f1) + slice.a2_diag[i] * (1.0 - f2));
            dos += slice.a1_diag[i] + slice.a2_diag[i];
        }
        Ok(EnergySample {
            e,
            transmission: slice.transmission,
            kernel: slice.transmission * (f1 - f2),
            dos,
            filled,
            empty,
            shard,
        })
    })
}

/// Merges two energy-ascending sample runs into one (stable two-pointer
/// merge; midpoints interleave between their parent endpoints).
fn merge_by_energy(a: Vec<EnergySample>, b: Vec<EnergySample>) -> Vec<EnergySample> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ib = b.into_iter().peekable();
    for s in a {
        while ib.peek().is_some_and(|m| m.e < s.e) {
            out.push(ib.next().expect("peeked"));
        }
        out.push(s);
    }
    out.extend(ib);
    out
}

/// Ordered serial merge on a (possibly non-uniform) energy-ascending
/// sample run: trapezoid weights for both the current kernel and the
/// charge integrals; each sample's shard lands in energy order.
fn merge_samples(
    ctx: &ExecCtx,
    samples: Vec<EnergySample>,
    neutral_ev: &[f64],
    atoms: usize,
) -> TransportResult {
    let two_pi = 2.0 * std::f64::consts::PI;
    let n = samples.len();
    let mut t_of_e = Vec::with_capacity(n);
    let mut electrons = vec![0.0; atoms];
    let mut holes = vec![0.0; atoms];
    let mut current = 0.0;
    for (j, s) in samples.iter().enumerate() {
        let left = if j > 0 { samples[j - 1].e } else { s.e };
        let right = if j + 1 < n { samples[j + 1].e } else { s.e };
        let w = 0.5 * (right - left);
        t_of_e.push((s.e, s.transmission));
        if j + 1 < n {
            current += 0.5 * (s.kernel + samples[j + 1].kernel) * (samples[j + 1].e - s.e);
        }
        for i in 0..atoms {
            if s.e >= neutral_ev[i] {
                electrons[i] += s.filled[i] / two_pi * w;
            } else {
                holes[i] += s.empty[i] / two_pi * w;
            }
        }
    }
    for s in samples {
        s.shard.merge_into(ctx.telemetry());
    }
    let net: Vec<f64> = holes.iter().zip(&electrons).map(|(p, n)| p - n).collect();
    TransportResult {
        current_a: LANDAUER_2E_OVER_H * current,
        transmission: t_of_e,
        charge: ChargeProfile {
            net,
            electrons,
            holes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lead::Lead;
    use gnr_lattice::{AGnr, DeviceHamiltonian};

    fn ideal(n: usize, cells: usize) -> RgfSolver {
        let gnr = AGnr::new(n).unwrap();
        let h = DeviceHamiltonian::flat_band(gnr, cells).unwrap();
        RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact())
    }

    fn ctx() -> ExecCtx {
        ExecCtx::serial()
    }

    /// [`integrate_transport`] on exactly the uniform `grid`, no cache.
    fn uniform(
        ctx: &ExecCtx,
        solver: &RgfSolver,
        grid: &EnergyGrid,
        mu1: f64,
        mu2: f64,
        t_kelvin: f64,
        neutral_ev: &[f64],
    ) -> Result<TransportResult, NegfError> {
        let energies: Vec<f64> = grid.energies().collect();
        let opts = TransportOptions::default();
        integrate_transport(
            ctx, solver, &energies, &opts, mu1, mu2, t_kelvin, neutral_ev,
        )
    }

    #[test]
    fn energy_grid_iterator_matches_closed_form() {
        let g = EnergyGrid::new(-0.5, 1.0, 16).unwrap();
        let es: Vec<f64> = g.energies().collect();
        assert_eq!(es.len(), g.len());
        for (i, &e) in es.iter().enumerate() {
            assert_eq!(e.to_bits(), g.energy(i).to_bits());
        }
        assert_eq!(es[0], -0.5);
        assert!((es[15] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_transport_bit_identical_to_serial() {
        let solver = ideal(9, 3);
        let grid = EnergyGrid::new(0.4, 1.4, 37).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let zeros = vec![0.0; atoms];
        let serial = uniform(&ctx(), &solver, &grid, 1.0, 0.8, 300.0, &zeros).unwrap();
        for threads in [2, 4] {
            let par = uniform(
                &ExecCtx::with_threads(threads),
                &solver,
                &grid,
                1.0,
                0.8,
                300.0,
                &zeros,
            )
            .unwrap();
            assert_eq!(
                serial.current_a.to_bits(),
                par.current_a.to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.transmission, par.transmission);
            assert_eq!(serial.charge, par.charge);
        }
    }

    #[test]
    fn energy_grid_validation() {
        assert!(EnergyGrid::new(1.0, 0.0, 10).is_err());
        assert!(EnergyGrid::new(0.0, 1.0, 1).is_err());
        let g = EnergyGrid::new(0.0, 1.0, 11).unwrap();
        assert_eq!(g.len(), 11);
        assert!((g.step() - 0.1).abs() < 1e-14);
        // Non-finite bounds would make `step()` infinite and the energies
        // NaN (−∞ + ∞·0); an overflowing span does the same.
        for (lo, hi) in [
            (f64::NEG_INFINITY, 0.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (-f64::MAX, f64::MAX),
        ] {
            assert!(EnergyGrid::new(lo, hi, 10).is_err(), "[{lo}, {hi}]");
        }
        assert!(EnergyGrid::with_step(f64::NEG_INFINITY, 0.0, 0.1).is_err());
        // The integrator rejects non-finite, unsorted, and too-short
        // energy lists before solving anything.
        let solver = ideal(9, 3);
        let zeros = vec![0.0; solver.layers() * solver.layer_dim()];
        let opts = TransportOptions::default();
        for energies in [
            vec![0.1, f64::NAN, 0.3],
            vec![f64::NEG_INFINITY, 0.2],
            vec![0.1, f64::INFINITY],
            vec![0.2, 0.1],
            vec![0.1, 0.1],
            vec![0.1],
        ] {
            let r = integrate_transport(&ctx(), &solver, &energies, &opts, 0.0, 0.0, 300.0, &zeros);
            assert!(
                matches!(r, Err(NegfError::Config { .. })),
                "{energies:?} must be a config error"
            );
        }
    }

    #[test]
    fn zero_bias_zero_current() {
        let solver = ideal(9, 3);
        let grid = EnergyGrid::new(0.5, 1.2, 30).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let r = uniform(&ctx(), &solver, &grid, 0.3, 0.3, 300.0, &vec![0.0; atoms]).unwrap();
        assert!(r.current_a.abs() < 1e-12);
    }

    #[test]
    fn ballistic_conductance_single_mode() {
        // With mu window fully inside the first subband, I = (2e^2/h) V.
        let gnr = AGnr::new(9).unwrap();
        let ec = gnr.band_structure(96).unwrap().conduction_edge();
        let solver = ideal(9, 4);
        let v = 0.05;
        let mu1 = ec + 0.15;
        let mu2 = mu1 - v;
        let grid = EnergyGrid::new(mu2 - 0.25, mu1 + 0.25, 160).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let r = uniform(&ctx(), &solver, &grid, mu1, mu2, 77.0, &vec![0.0; atoms]).unwrap();
        let g0 = gnr_num::consts::G_QUANTUM;
        let g = r.current_a / v;
        assert!((g - g0).abs() / g0 < 0.05, "G = {g} vs G0 = {g0}");
    }

    #[test]
    fn current_reverses_with_bias() {
        let solver = ideal(9, 3);
        let grid = EnergyGrid::new(0.4, 1.4, 60).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let zeros = vec![0.0; atoms];
        let fwd = uniform(&ctx(), &solver, &grid, 1.0, 0.8, 300.0, &zeros).unwrap();
        let rev = uniform(&ctx(), &solver, &grid, 0.8, 1.0, 300.0, &zeros).unwrap();
        assert!(fwd.current_a > 0.0);
        assert!((fwd.current_a + rev.current_a).abs() < 1e-9 * fwd.current_a.abs().max(1e-18));
    }

    #[test]
    fn charge_profile_neutral_device() {
        // Fermi level at midgap: electrons and holes balance.
        let solver = ideal(12, 4);
        let grid = EnergyGrid::new(-1.5, 1.5, 120).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let r = uniform(&ctx(), &solver, &grid, 0.0, 0.0, 300.0, &vec![0.0; atoms]).unwrap();
        // Integration-window truncation leaves a small residual; net charge
        // per atom should be tiny compared to the separate e/h populations.
        let n_tot: f64 = r.charge.electrons.iter().sum();
        let p_tot: f64 = r.charge.holes.iter().sum();
        assert!(
            (n_tot - p_tot).abs() < 0.15 * (n_tot + p_tot).max(1e-6),
            "n {n_tot} p {p_tot}"
        );
    }

    #[test]
    fn raising_fermi_level_accumulates_electrons() {
        let solver = ideal(12, 4);
        let grid = EnergyGrid::new(-1.5, 1.5, 120).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let zeros = vec![0.0; atoms];
        let neutral = uniform(&ctx(), &solver, &grid, 0.0, 0.0, 300.0, &zeros).unwrap();
        let ntype = uniform(&ctx(), &solver, &grid, 0.5, 0.5, 300.0, &zeros).unwrap();
        assert!(ntype.charge.total() < neutral.charge.total() - 0.01);
    }

    #[test]
    fn per_layer_charge_sums_to_total() {
        let solver = ideal(9, 3);
        let grid = EnergyGrid::new(-1.2, 1.2, 60).unwrap();
        let atoms = solver.layers() * solver.layer_dim();
        let r = uniform(&ctx(), &solver, &grid, 0.2, 0.0, 300.0, &vec![0.0; atoms]).unwrap();
        let per_layer = r.charge.per_layer(solver.layer_dim());
        assert_eq!(per_layer.len(), 3);
        let s: f64 = per_layer.iter().sum();
        assert!((s - r.charge.total()).abs() < 1e-12);
    }

    #[test]
    fn neutral_length_validated() {
        let solver = ideal(9, 3);
        let grid = EnergyGrid::new(0.0, 1.0, 10).unwrap();
        assert!(uniform(&ctx(), &solver, &grid, 0.0, 0.0, 300.0, &[0.0; 3]).is_err());
    }

    #[test]
    fn with_step_picks_closest_spacing() {
        let g = EnergyGrid::with_step(-0.5, 0.5, 0.1).unwrap();
        assert_eq!(g.len(), 11);
        assert!((g.step() - 0.1).abs() < 1e-14);
        assert!(EnergyGrid::with_step(0.0, 1.0, 0.0).is_err());
        assert!(EnergyGrid::with_step(0.0, 1.0, -0.1).is_err());
        // A step wider than the range degrades to a single interval.
        assert_eq!(EnergyGrid::with_step(0.0, 0.01, 0.1).unwrap().len(), 2);
    }

    #[test]
    fn cached_uniform_matches_uncached_closely() {
        // Cache-served sigmas differ from fresh ones only through the key
        // snapping (≤ half a quantum ≈ 6e-8 eV), far below eta.
        let solver = ideal(9, 4);
        let grid = EnergyGrid::new(0.4, 1.4, 41).unwrap();
        let energies: Vec<f64> = grid.energies().collect();
        let atoms = solver.layers() * solver.layer_dim();
        let zeros = vec![0.0; atoms];
        let fresh = uniform(&ctx(), &solver, &grid, 1.0, 0.8, 300.0, &zeros).unwrap();
        let opts = TransportOptions::default().with_cache(Arc::new(SurfaceGfCache::new()));
        let cached =
            integrate_transport(&ctx(), &solver, &energies, &opts, 1.0, 0.8, 300.0, &zeros)
                .unwrap();
        let scale = fresh.current_a.abs().max(1e-18);
        assert!(
            (fresh.current_a - cached.current_a).abs() / scale < 1e-6,
            "fresh {} cached {}",
            fresh.current_a,
            cached.current_a
        );
        for (l, c) in fresh.transmission.iter().zip(&cached.transmission) {
            assert_eq!(l.0.to_bits(), c.0.to_bits());
            assert!((l.1 - c.1).abs() < 1e-6);
        }
    }

    #[test]
    fn adaptive_refinement_matches_dense_uniform_current() {
        // Coarse base + refinement must reproduce a dense uniform grid's
        // current through the first subband edge.
        let gnr = AGnr::new(9).unwrap();
        let ec = gnr.band_structure(96).unwrap().conduction_edge();
        let solver = ideal(9, 4);
        let atoms = solver.layers() * solver.layer_dim();
        let zeros = vec![0.0; atoms];
        let (mu1, mu2) = (ec + 0.12, ec - 0.08);
        let dense = EnergyGrid::new(ec - 0.3, ec + 0.3, 241).unwrap();
        let reference = uniform(&ctx(), &solver, &dense, mu1, mu2, 300.0, &zeros).unwrap();
        let coarse: Vec<f64> = EnergyGrid::new(ec - 0.3, ec + 0.3, 16)
            .unwrap()
            .energies()
            .collect();
        let opts = TransportOptions::default().with_refine(RefineOptions {
            tol_t: 0.02,
            max_depth: 7,
            ..RefineOptions::default()
        });
        let adaptive =
            integrate_transport(&ctx(), &solver, &coarse, &opts, mu1, mu2, 300.0, &zeros).unwrap();
        assert!(
            adaptive.transmission.len() > coarse.len(),
            "refinement must add points"
        );
        assert!(
            adaptive.transmission.len() < dense.len(),
            "adaptive should stay cheaper than dense"
        );
        let scale = reference.current_a.abs().max(1e-18);
        assert!(
            (reference.current_a - adaptive.current_a).abs() / scale < 2e-3,
            "dense {} adaptive {}",
            reference.current_a,
            adaptive.current_a
        );
        // Samples stay sorted and unique after the merges.
        for w in adaptive.transmission.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        // Re-integrating on the refined energies without `refine` (the SCF
        // frozen-grid pattern) reproduces the refined result bit for bit.
        let frozen: Vec<f64> = adaptive.transmission.iter().map(|&(e, _)| e).collect();
        let again = integrate_transport(
            &ctx(),
            &solver,
            &frozen,
            &TransportOptions::default(),
            mu1,
            mu2,
            300.0,
            &zeros,
        )
        .unwrap();
        assert_eq!(adaptive.current_a.to_bits(), again.current_a.to_bits());
        assert_eq!(adaptive.transmission, again.transmission);
        assert_eq!(adaptive.charge, again.charge);
    }

    #[test]
    fn accelerated_path_bit_identical_across_thread_counts() {
        let gnr = AGnr::new(9).unwrap();
        let ec = gnr.band_structure(96).unwrap().conduction_edge();
        let solver = ideal(9, 3);
        let atoms = solver.layers() * solver.layer_dim();
        let zeros = vec![0.0; atoms];
        let energies: Vec<f64> = EnergyGrid::new(ec - 0.25, ec + 0.25, 14)
            .unwrap()
            .energies()
            .collect();
        let run = |threads: usize| {
            let opts = TransportOptions::default()
                .with_cache(Arc::new(SurfaceGfCache::new()))
                .with_refine(RefineOptions::default());
            integrate_transport(
                &ExecCtx::with_threads(threads),
                &solver,
                &energies,
                &opts,
                ec + 0.1,
                ec - 0.05,
                300.0,
                &zeros,
            )
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(
                serial.current_a.to_bits(),
                par.current_a.to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.transmission, par.transmission);
            assert_eq!(serial.charge, par.charge);
        }
    }
}
