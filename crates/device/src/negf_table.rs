//! Ballistic NEGF lookup-table builder — the bias-sweep hot path the
//! transport acceleration layer exists for.
//!
//! [`ballistic_negf_table`] runs the full Sancho–Rubio + RGF transport
//! machinery at every `(V_GS, V_DS)` node of a [`TableGrid`]: the channel
//! potential is frozen from the surrogate's self-consistent profile
//! ([`SbfetModel::potential_profile`], whose boundary samples are pinned at
//! the contact potentials `0` and `−V_DS`), the contacts are semi-infinite
//! GNR leads at those potentials, and current/charge come from
//! [`integrate_transport`]. Unlike the wide-band-metal SCF path, every
//! energy point here pays two Sancho–Rubio decimations — exactly the
//! redundant structure the [`SurfaceGfCache`] removes.
//!
//! Sweep design for cache reuse:
//! * one **global energy window** `[−V_DS,max − pad, +pad]` shared by all
//!   bias points, so the source-lead entries (potential 0) are computed
//!   once for the entire sweep;
//! * the energy step is **snapped to divide the `V_DS` grid spacing**, so a
//!   drain lead at `−V_DS` sees relative energies `E + V_DS` that land on
//!   the same quantized lattice — each new drain bias adds only the few
//!   keys at the window edge instead of a full fresh set;
//! * all base-lattice entries are primed **serially up front** (the
//!   pre-indexing that fixes cache order and miss counters), then the bias
//!   points run in fixed row-major order with the energy loop parallel on
//!   `ctx`'s pool — results and telemetry are bit-identical for any
//!   `GNR_THREADS`.

use crate::error::DeviceError;
use crate::sbfet::SbfetModel;
use crate::table::{BiasSweep, DeviceTable, Polarity, Stamp, TableGrid, Tally};
use gnr_lattice::{AGnr, DeviceHamiltonian};
use gnr_negf::mode_space::{ModeBasis, ModeSpaceOptions, ModeSpaceSolver};
use gnr_negf::transport::{
    integrate_transport, EnergyGrid, RefineOptions, SpectralSolver, TransportOptions,
};
use gnr_negf::{Lead, RgfSolver, SurfaceGfCache};
use gnr_num::par::ExecCtx;
use std::sync::Arc;

/// Controls for the ballistic NEGF table sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NegfTableOptions {
    /// Requested energy-grid step (eV); snapped to divide the `V_DS` grid
    /// spacing. With `refine` set this is the *coarse base* step.
    pub energy_step_ev: f64,
    /// Window padding beyond the bias window on each side (eV).
    pub energy_pad_ev: f64,
    /// Adaptive refinement of the energy grid; `None` = uniform.
    pub refine: Option<RefineOptions>,
    /// Serve lead self-energies from a sweep-wide [`SurfaceGfCache`].
    pub use_cache: bool,
    /// Run the sweep through the reduced mode-space solver path
    /// ([`ModeSpaceSolver`]); `None` keeps dense real-space RGF.
    pub mode_space: Option<ModeSpaceOptions>,
}

impl NegfTableOptions {
    /// The accelerated path: 5× coarser base grid with band-edge
    /// refinement, and the shared surface-GF cache. The charge (DOS)
    /// refinement trigger is loosened relative to the SCF default — the
    /// table's gate is the 1e-6 A I–V conformance, and the van Hove
    /// structure of the GNR leads would otherwise drive every band edge to
    /// full depth and eat the speedup.
    pub fn accelerated() -> Self {
        NegfTableOptions {
            energy_step_ev: 0.075,
            energy_pad_ev: 0.25,
            refine: Some(RefineOptions {
                tol_dos_rel: 0.6,
                ..RefineOptions::default()
            }),
            use_cache: true,
            mode_space: None,
        }
    }

    /// The mode-space path: the accelerated sweep run on reduced
    /// transverse-mode blocks, with the separability monitor guarding the
    /// transform (degraded devices transparently fall back to real-space).
    pub fn mode_space() -> Self {
        NegfTableOptions {
            mode_space: Some(ModeSpaceOptions::default()),
            ..NegfTableOptions::accelerated()
        }
    }

    /// The provenance string recorded on tables built with these options
    /// (see [`DeviceTable::solver_path`]).
    pub fn solver_path(&self) -> &'static str {
        if self.mode_space.is_some() {
            "negf-mode-space"
        } else {
            "negf-real-space"
        }
    }
}

impl Default for NegfTableOptions {
    /// The [`accelerated`](NegfTableOptions::accelerated) production path.
    fn default() -> Self {
        NegfTableOptions::accelerated()
    }
}

/// Interpolates the surrogate potential profile (samples at
/// `x = (i − ½)·dx`, pinned faces just outside the channel) onto the atom
/// `x` positions, clamping at the contact faces.
fn profile_at(u: &[f64], dx_nm: f64, x_nm: f64) -> f64 {
    let s = x_nm / dx_nm + 0.5;
    if s <= 0.0 {
        return u[0];
    }
    let i0 = s.floor() as usize;
    if i0 + 1 >= u.len() {
        return u[u.len() - 1];
    }
    let frac = s - i0 as f64;
    u[i0] * (1.0 - frac) + u[i0 + 1] * frac
}

/// The bias-invariant half of a ballistic NEGF sweep: frozen per-node
/// atom potentials, the shared energy lattice and transport options.
struct FrozenSweep<'a> {
    ctx: &'a ExecCtx,
    sweep: BiasSweep,
    gnr: AGnr,
    cells: usize,
    temperature_k: f64,
    /// Row-major per-node atom potentials \[eV\].
    atom_pots: Vec<Vec<f64>>,
    energies: Vec<f64>,
    topts: TransportOptions,
}

impl FrozenSweep<'_> {
    /// Primes the sweep-wide surface-GF cache, then runs one frozen-potential
    /// transport solve per bias node in row-major order on the solver that
    /// `solver(hamiltonian, v_ds)` builds — one loop for every solver path,
    /// and therefore one determinism contract.
    fn run<S: SpectralSolver + Sync>(
        &self,
        stamp: Stamp<'_>,
        solver: impl Fn(&DeviceHamiltonian, f64) -> Result<S, DeviceError>,
    ) -> Result<DeviceTable, DeviceError> {
        // Serial pre-indexing: prime every (slot, snapped-energy) base entry
        // in fixed drain-bias order before the sweep. The lead blocks do
        // not depend on the channel potential, so one representative
        // (flat-band) Hamiltonian serves all gate voltages — and, on the
        // mode-space path, is never degraded, so it primes the *reduced*
        // lead entries.
        if let Some(cache) = &self.topts.cache {
            let zero_pot = vec![0.0; self.cells * self.gnr.atoms_per_cell()];
            let rep_ham = DeviceHamiltonian::new(self.gnr, self.cells, &zero_pot)?;
            for j in 0..self.sweep.points() {
                solver(&rep_ham, self.sweep.vds(j))?.prime_surface_cache(
                    self.ctx,
                    cache,
                    &self.energies,
                )?;
            }
        }
        // Bias points serial (the inner energy loop parallelizes on ctx's
        // pool; nesting pool dispatch is not supported).
        self.sweep.serial(stamp, |n| {
            let atom_pot = &self.atom_pots[n.row * self.sweep.points() + n.col];
            let ham = DeviceHamiltonian::new(self.gnr, self.cells, atom_pot)?;
            let r = integrate_transport(
                self.ctx,
                &solver(&ham, n.vd)?,
                &self.energies,
                &self.topts,
                0.0,
                -n.vd,
                self.temperature_k,
                atom_pot,
            )?;
            Ok((r.current_a, r.charge.total() * gnr_num::consts::Q_E))
        })
    }
}

/// Builds a [`DeviceTable`] by ballistic NEGF transport at every bias node,
/// scaled by `ribbons` identical parallel ribbons.
///
/// The channel potential at each `(v_g, v_d)` is the surrogate's
/// self-consistent profile; source and drain are semi-infinite GNR contacts
/// at potentials `0` and `−v_d` with Fermi levels `μ_s = 0`, `μ_d = −v_d`.
/// Without the cache and refinement (`use_cache: false`, `refine: None`)
/// this is the uniform-grid, fresh-Sancho–Rubio reference; with
/// [`NegfTableOptions::accelerated`] the same sweep reuses cached surface
/// GFs across bias points and refines the energy grid only where `T(E)`
/// has structure.
///
/// # Errors
///
/// Returns [`DeviceError::Config`] for an invalid grid or energy options;
/// propagates lattice, lead, and transport failures.
pub fn ballistic_negf_table(
    ctx: &ExecCtx,
    model: &SbfetModel,
    polarity: Polarity,
    grid: TableGrid,
    ribbons: usize,
    opts: &NegfTableOptions,
) -> Result<DeviceTable, DeviceError> {
    let sweep = BiasSweep::new(&grid)?;
    if opts.energy_step_ev.is_nan() || opts.energy_step_ev <= 0.0 || !opts.energy_pad_ev.is_finite()
    {
        return Err(DeviceError::config("invalid energy grid options"));
    }
    let cfg = model.config();
    let gnr = cfg.gnr;
    let cells = cfg.channel_cells;
    let lattice = gnr.lattice(cells);
    let atom_x_nm: Vec<f64> = lattice.atoms().iter().map(|a| a.x * 1e9).collect();
    debug_assert_eq!(atom_x_nm.len(), cells * gnr.atoms_per_cell());
    let dx_nm = cfg.grid_h_nm;

    // Global energy window covering every bias point's transport integral,
    // with the step snapped so the vds spacing is an integer number of
    // energy steps (drain-lead cache keys then collide across biases).
    let vd_hi = grid.vds.0.abs().max(grid.vds.1.abs());
    let lo = -vd_hi - opts.energy_pad_ev;
    let hi = opts.energy_pad_ev;
    let dvd = (grid.vds.1 - grid.vds.0) / (grid.points - 1) as f64;
    let step = if dvd > opts.energy_step_ev {
        dvd / (dvd / opts.energy_step_ev).round()
    } else if dvd > 0.0 {
        dvd
    } else {
        opts.energy_step_ev
    };
    let energies: Vec<f64> = EnergyGrid::with_step(lo, hi, step)?.energies().collect();

    // Freeze every bias node's channel potential up front (row-major), so
    // the mode-space window pre-pass and the sweep see identical profiles.
    // One drain-bias column per V_DS node serves every gate voltage.
    let columns = (0..sweep.points())
        .map(|j| model.drain_column(sweep.vds(j)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut atom_pots: Vec<Vec<f64>> = Vec::with_capacity(sweep.nodes());
    for i in 0..sweep.points() {
        for col in &columns {
            let u = model.profile_with(sweep.vgs(i), col)?;
            atom_pots.push(
                atom_x_nm
                    .iter()
                    .map(|&x| profile_at(&u, dx_nm, x))
                    .collect(),
            );
        }
    }

    let frozen = FrozenSweep {
        ctx,
        sweep,
        gnr,
        cells,
        temperature_k: cfg.temperature_k,
        atom_pots,
        energies,
        topts: TransportOptions {
            refine: opts.refine,
            cache: opts.use_cache.then(|| Arc::new(SurfaceGfCache::new())),
        },
    };
    let ribbons = ribbons.max(1);
    let stamp = |extra| Stamp {
        polarity,
        ribbons,
        scale: ribbons as f64,
        solver_path: opts.solver_path(),
        tally: Some(Tally {
            ctx,
            builds: "device.negf_table.builds",
            points: "device.negf_table.bias_points",
            extra,
        }),
    };
    let contacts = |vd: f64| (Lead::gnr_contact(), Lead::gnr_contact_at(-vd));
    let Some(ms) = &opts.mode_space else {
        return frozen.run(stamp(None), |ham, vd| {
            let (source, drain) = contacts(vd);
            Ok(RgfSolver::new(ham, source, drain))
        });
    };
    // Mode-selection window: a band at energy B under potential U appears
    // at B + U, so covering E ∈ [lo, hi] for every swept potential
    // U ∈ [u_min, u_max] needs B ∈ [lo − u_max, hi − u_min]. The lead
    // potentials 0 and −vd are folded in explicitly (the surrogate profile
    // pins them at the faces anyway).
    let (mut u_min, mut u_max) = (0.0f64, 0.0f64);
    for &p in frozen.atom_pots.iter().flatten() {
        u_min = u_min.min(p);
        u_max = u_max.max(p);
    }
    for j in 0..sweep.points() {
        u_min = u_min.min(-sweep.vds(j));
        u_max = u_max.max(-sweep.vds(j));
    }
    let (lead_h00, lead_h01) = gnr_lattice::unit_cell_hamiltonian(gnr);
    let basis = ModeBasis::build(&lead_h00, &lead_h01, lo - u_max, hi - u_min, ms)?;
    let modes = ("device.negf_table.mode_space_modes", basis.modes() as u64);
    frozen.run(stamp(Some(modes)), |ham, vd| {
        let (source, drain) = contacts(vd);
        Ok(ModeSpaceSolver::new(ham, source, drain, &basis, ms)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn small_model() -> SbfetModel {
        let mut cfg = DeviceConfig::test_small(7).unwrap();
        cfg.channel_cells = 4;
        SbfetModel::new(&cfg).unwrap()
    }

    /// The uncached, unrefined reference: a dense uniform grid where every
    /// energy point of every bias point pays fresh Sancho–Rubio solves.
    fn uncached_reference() -> NegfTableOptions {
        NegfTableOptions {
            energy_step_ev: 0.015,
            energy_pad_ev: 0.25,
            refine: None,
            use_cache: false,
            mode_space: None,
        }
    }

    fn small_grid() -> TableGrid {
        TableGrid {
            vgs: (0.0, 0.5),
            vds: (0.05, 0.35),
            points: 3,
        }
    }

    #[test]
    fn accelerated_matches_legacy_within_current_tolerance() {
        let model = small_model();
        let ctx = ExecCtx::serial();
        let legacy = ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            small_grid(),
            1,
            &uncached_reference(),
        )
        .unwrap();
        let accel = ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            small_grid(),
            1,
            &NegfTableOptions::accelerated(),
        )
        .unwrap();
        let (vgs, vds): (Vec<f64>, Vec<f64>) = {
            let (a, b) = legacy.bias_nodes();
            (a.collect(), b.collect())
        };
        for &vg in &vgs {
            for &vd in &vds {
                let (il, ia) = (legacy.current(vg, vd), accel.current(vg, vd));
                assert!(
                    (il - ia).abs() < 1e-6,
                    "I({vg}, {vd}): legacy {il:.6e} vs accelerated {ia:.6e}"
                );
            }
        }
    }

    #[test]
    fn mode_space_matches_real_space_within_current_tolerance() {
        let model = small_model();
        let ctx = ExecCtx::serial();
        let real = ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            small_grid(),
            1,
            &NegfTableOptions::accelerated(),
        )
        .unwrap();
        let ms = ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            small_grid(),
            1,
            &NegfTableOptions::mode_space(),
        )
        .unwrap();
        assert_eq!(real.solver_path(), "negf-real-space");
        assert_eq!(ms.solver_path(), "negf-mode-space");
        let (vgs, vds): (Vec<f64>, Vec<f64>) = {
            let (a, b) = real.bias_nodes();
            (a.collect(), b.collect())
        };
        for &vg in &vgs {
            for &vd in &vds {
                let (ir, im) = (real.current(vg, vd), ms.current(vg, vd));
                assert!(
                    (ir - im).abs() < 1e-6,
                    "I({vg}, {vd}): real-space {ir:.6e} vs mode-space {im:.6e}"
                );
            }
        }
    }

    #[test]
    fn currents_increase_with_drive() {
        let model = small_model();
        let ctx = ExecCtx::serial();
        let t = ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            small_grid(),
            1,
            &NegfTableOptions::accelerated(),
        )
        .unwrap();
        let on = t.current(0.5, 0.35);
        let off = t.current(0.0, 0.35);
        assert!(on.is_finite() && off.is_finite());
        assert!(on > off, "on {on:.3e} off {off:.3e}");
    }

    #[test]
    fn ribbons_scale_linearly() {
        let model = small_model();
        let ctx = ExecCtx::serial();
        let opts = NegfTableOptions::accelerated();
        let one =
            ballistic_negf_table(&ctx, &model, Polarity::NType, small_grid(), 1, &opts).unwrap();
        let four =
            ballistic_negf_table(&ctx, &model, Polarity::NType, small_grid(), 4, &opts).unwrap();
        let (i1, i4) = (one.current(0.4, 0.3), four.current(0.4, 0.3));
        assert!((i4 - 4.0 * i1).abs() <= 1e-9 * i4.abs().max(1e-15));
        assert_eq!(four.ribbons(), 4);
    }

    #[test]
    fn rejects_bad_options() {
        let model = small_model();
        let ctx = ExecCtx::serial();
        let mut bad = uncached_reference();
        bad.energy_step_ev = 0.0;
        assert!(
            ballistic_negf_table(&ctx, &model, Polarity::NType, small_grid(), 1, &bad).is_err()
        );
        let mut tiny = small_grid();
        tiny.points = 2;
        assert!(ballistic_negf_table(
            &ctx,
            &model,
            Polarity::NType,
            tiny,
            1,
            &uncached_reference()
        )
        .is_err());
    }
}
