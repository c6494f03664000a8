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
use crate::table::{DeviceTable, Polarity, TableGrid};
use gnr_lattice::DeviceHamiltonian;
use gnr_negf::mode_space::{ModeBasis, ModeSpaceOptions, ModeSpaceSolver};
use gnr_negf::transport::{
    integrate_transport, EnergyGrid, RefineOptions, SpectralSolver, TransportOptions,
};
use gnr_negf::{Lead, RgfSolver, SurfaceGfCache};
use gnr_num::par::ExecCtx;
use gnr_num::Grid1;
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
    /// The legacy A/B reference: dense uniform grid, no cache — every
    /// energy point of every bias point pays fresh Sancho–Rubio solves.
    pub fn legacy() -> Self {
        NegfTableOptions {
            energy_step_ev: 0.015,
            energy_pad_ev: 0.25,
            refine: None,
            use_cache: false,
            mode_space: None,
        }
    }

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

    /// Sets the (coarse base) energy-grid step \[eV\].
    pub fn with_energy_step_ev(mut self, step: f64) -> Self {
        self.energy_step_ev = step;
        self
    }

    /// Sets the window padding beyond the bias window \[eV\].
    pub fn with_energy_pad_ev(mut self, pad: f64) -> Self {
        self.energy_pad_ev = pad;
        self
    }

    /// Sets (or clears) adaptive energy-grid refinement.
    pub fn with_refine(mut self, refine: Option<RefineOptions>) -> Self {
        self.refine = refine;
        self
    }

    /// Enables or disables the sweep-wide surface-GF cache.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Sets (or clears) the mode-space solver path.
    pub fn with_mode_space(mut self, mode_space: Option<ModeSpaceOptions>) -> Self {
        self.mode_space = mode_space;
        self
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

/// Runs the frozen-potential transport sweep over the bias grid with one
/// solver instance per node, in fixed row-major order. Generic over the
/// solver path ([`RgfSolver`] or [`ModeSpaceSolver`]) so both share the
/// exact bias/energy loop structure — and therefore the same determinism
/// contract.
#[allow(clippy::too_many_arguments)]
fn sweep_grid<S, F>(
    ctx: &ExecCtx,
    gy: &Grid1,
    points: usize,
    gnr: gnr_lattice::AGnr,
    cells: usize,
    atom_pots: &[Vec<f64>],
    energies: &[f64],
    topts: &TransportOptions,
    temperature_k: f64,
    scale: f64,
    make_solver: F,
) -> Result<(Vec<f64>, Vec<f64>), DeviceError>
where
    S: SpectralSolver + Sync,
    F: Fn(&DeviceHamiltonian, f64) -> Result<S, DeviceError>,
{
    let mut id_vals = Vec::with_capacity(points * points);
    let mut q_vals = Vec::with_capacity(points * points);
    for i in 0..points {
        for j in 0..points {
            let vd = gy.point(j);
            let atom_pot = &atom_pots[i * points + j];
            let ham = DeviceHamiltonian::new(gnr, cells, atom_pot)?;
            let solver = make_solver(&ham, vd)?;
            let r = integrate_transport(
                ctx,
                &solver,
                energies,
                topts,
                0.0,
                -vd,
                temperature_k,
                atom_pot,
            )?;
            id_vals.push(r.current_a * scale);
            q_vals.push(r.charge.total() * gnr_num::consts::Q_E * scale);
        }
    }
    Ok((id_vals, q_vals))
}

/// Builds a [`DeviceTable`] by ballistic NEGF transport at every bias node,
/// scaled by `ribbons` identical parallel ribbons.
///
/// The channel potential at each `(v_g, v_d)` is the surrogate's
/// self-consistent profile; source and drain are semi-infinite GNR contacts
/// at potentials `0` and `−v_d` with Fermi levels `μ_s = 0`, `μ_d = −v_d`.
/// With [`NegfTableOptions::legacy`] this is the uniform-grid,
/// fresh-Sancho–Rubio reference; with [`NegfTableOptions::accelerated`]
/// the same sweep reuses cached surface GFs across bias points and refines
/// the energy grid only where `T(E)` has structure.
///
/// # Errors
///
/// Returns [`DeviceError::Config`] for a degenerate grid; propagates
/// lattice, lead, and transport failures.
pub fn ballistic_negf_table(
    ctx: &ExecCtx,
    model: &SbfetModel,
    polarity: Polarity,
    grid: TableGrid,
    ribbons: usize,
    opts: &NegfTableOptions,
) -> Result<DeviceTable, DeviceError> {
    if grid.points < 3 {
        return Err(DeviceError::config("table grid needs >= 3 points/axis"));
    }
    if opts.energy_step_ev.is_nan() || opts.energy_step_ev <= 0.0 || !opts.energy_pad_ev.is_finite()
    {
        return Err(DeviceError::config("invalid energy grid options"));
    }
    let cfg = model.config();
    let gnr = cfg.gnr;
    let cells = cfg.channel_cells;
    let m = gnr.atoms_per_cell();
    let lattice = gnr.lattice(cells);
    let atom_x_nm: Vec<f64> = lattice.atoms().iter().map(|a| a.x * 1e9).collect();
    debug_assert_eq!(atom_x_nm.len(), cells * m);
    let dx_nm = cfg.grid_h_nm;

    let gx = Grid1::new(grid.vgs.0, grid.vgs.1, grid.points)?;
    let gy = Grid1::new(grid.vds.0, grid.vds.1, grid.points)?;

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
    let base_energies: Vec<f64> = EnergyGrid::with_step(lo, hi, step)?.energies().collect();

    let cache = opts.use_cache.then(|| Arc::new(SurfaceGfCache::new()));
    let topts = TransportOptions {
        refine: opts.refine,
        cache: cache.clone(),
    };

    // Freeze every bias node's channel potential up front (row-major), so
    // the mode-space window pre-pass and the sweep see identical profiles.
    // One drain-bias column per V_DS node serves every gate voltage.
    let columns = (0..grid.points)
        .map(|j| model.drain_column(gy.point(j)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut atom_pots: Vec<Vec<f64>> = Vec::with_capacity(grid.points * grid.points);
    for i in 0..grid.points {
        let vg = gx.point(i);
        for col in &columns {
            let u = model.profile_with(vg, col);
            atom_pots.push(
                atom_x_nm
                    .iter()
                    .map(|&x| profile_at(&u, dx_nm, x))
                    .collect(),
            );
        }
    }

    // Serial pre-indexing: prime every (slot, snapped-energy) base entry in
    // fixed drain-bias order before the sweep. The lead blocks do not
    // depend on the channel potential, so one representative (flat-band)
    // Hamiltonian serves all gate voltages — and, on the mode-space path,
    // is never degraded, so it primes the *reduced* lead entries.
    let zero_pot = vec![0.0; cells * m];
    let rep_ham = DeviceHamiltonian::new(gnr, cells, &zero_pot)?;

    // The sweep: bias points serial (the inner energy loop parallelizes on
    // ctx's pool; nesting pool dispatch is not supported), row-major order.
    let k = ribbons.max(1) as f64;
    let (id_vals, q_vals) = match &opts.mode_space {
        Some(ms) => {
            // Mode-selection window: a band at energy B under potential U
            // appears at B + U, so covering E ∈ [lo, hi] for every swept
            // potential U ∈ [u_min, u_max] needs B ∈ [lo − u_max, hi − u_min].
            // The lead potentials 0 and −vd are folded in explicitly (the
            // surrogate profile pins them at the faces anyway).
            let (mut u_min, mut u_max) = (0.0f64, 0.0f64);
            for &p in atom_pots.iter().flatten() {
                u_min = u_min.min(p);
                u_max = u_max.max(p);
            }
            for j in 0..grid.points {
                u_min = u_min.min(-gy.point(j));
                u_max = u_max.max(-gy.point(j));
            }
            let (lead_h00, lead_h01) = gnr_lattice::unit_cell_hamiltonian(gnr);
            let basis = ModeBasis::build(&lead_h00, &lead_h01, lo - u_max, hi - u_min, ms)?;
            if let Some(cache) = &cache {
                for j in 0..grid.points {
                    let vd = gy.point(j);
                    let solver = ModeSpaceSolver::new(
                        &rep_ham,
                        Lead::gnr_contact(),
                        Lead::gnr_contact_at(-vd),
                        &basis,
                        ms,
                    )?;
                    solver.prime_surface_cache(ctx, cache, &base_energies)?;
                }
            }
            ctx.counter_add("device.negf_table.mode_space_modes", basis.modes() as u64);
            sweep_grid(
                ctx,
                &gy,
                grid.points,
                gnr,
                cells,
                &atom_pots,
                &base_energies,
                &topts,
                cfg.temperature_k,
                k,
                |ham, vd| {
                    Ok(ModeSpaceSolver::new(
                        ham,
                        Lead::gnr_contact(),
                        Lead::gnr_contact_at(-vd),
                        &basis,
                        ms,
                    )?)
                },
            )?
        }
        None => {
            if let Some(cache) = &cache {
                for j in 0..grid.points {
                    let vd = gy.point(j);
                    let solver =
                        RgfSolver::new(&rep_ham, Lead::gnr_contact(), Lead::gnr_contact_at(-vd));
                    solver.prime_surface_cache(ctx, cache, &base_energies)?;
                }
            }
            sweep_grid(
                ctx,
                &gy,
                grid.points,
                gnr,
                cells,
                &atom_pots,
                &base_energies,
                &topts,
                cfg.temperature_k,
                k,
                |ham, vd| {
                    Ok(RgfSolver::new(
                        ham,
                        Lead::gnr_contact(),
                        Lead::gnr_contact_at(-vd),
                    ))
                },
            )?
        }
    };
    ctx.counter_inc("device.negf_table.builds");
    ctx.counter_add(
        "device.negf_table.bias_points",
        (grid.points * grid.points) as u64,
    );
    let mut table = DeviceTable::from_node_values(grid, polarity, ribbons.max(1), id_vals, q_vals)?;
    table.set_solver_path(opts.solver_path());
    Ok(table)
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
            &NegfTableOptions::legacy(),
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
        let mut bad = NegfTableOptions::legacy();
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
            &NegfTableOptions::legacy()
        )
        .is_err());
    }
}
