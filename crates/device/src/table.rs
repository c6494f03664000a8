//! Device lookup tables — the interface between device and circuit levels.
//!
//! The paper's circuit simulator is "based on table lookup techniques": the
//! drain current `I_D(V_GS, V_DS)` and channel charge `Q(V_GS, V_DS)` of the
//! intrinsic device are tabulated on a uniform bias grid, and the intrinsic
//! capacitances follow by differentiation:
//! `C_GD,i = |∂Q/∂V_DS|`, `C_GS,i = |∂Q/∂V_GS| − |∂Q/∂V_DS|` (§3).
//!
//! A [`DeviceTable`] represents one FET (n- or p-type) built from one or
//! more ribbons. P-type devices mirror the n-type table
//! (`I_p(V_GS,V_DS) = −I_n(−V_GS,−V_DS)`), which the paper justifies by the
//! ambipolar symmetry of the SBFET. Negative `V_DS` on an n-type device is
//! handled by source/drain exchange symmetry.

use crate::error::DeviceError;
use crate::sbfet::SbfetModel;
use crate::scf::ScfSolver;
use gnr_num::par::ExecCtx;
use gnr_num::{BilinearTable, Grid1, Grid2, Json};

/// Carrier-type role of a FET in a logic gate.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum Polarity {
    /// Electron-conducting pull-down device.
    NType,
    /// Hole-conducting pull-up device (mirrored table).
    PType,
}

/// Bias-grid specification for table construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableGrid {
    /// Gate-source range \[V\].
    pub vgs: (f64, f64),
    /// Drain-source range \[V\] (non-negative; negative bias is mapped by
    /// device symmetry).
    pub vds: (f64, f64),
    /// Points per axis.
    pub points: usize,
}

impl TableGrid {
    /// The paper's grid (§3: "discrete voltage steps of V_GS and V_DS
    /// ranging from 0 V to 0.75 V"), widened slightly so transient
    /// excursions stay on-table.
    pub fn paper() -> Self {
        TableGrid {
            vgs: (-0.35, 1.0),
            vds: (0.0, 0.85),
            points: 46,
        }
    }

    /// A coarse grid for fast tests.
    pub fn coarse() -> Self {
        TableGrid {
            vgs: (-0.3, 0.9),
            vds: (0.0, 0.8),
            points: 13,
        }
    }
}

/// Lookup-table model of one extrinsic-ready FET: current, charge, and
/// intrinsic capacitances on a uniform `(V_GS, V_DS)` grid.
#[derive(Clone, Debug)]
pub struct DeviceTable {
    id_a: BilinearTable,
    q_c: BilinearTable,
    polarity: Polarity,
    /// Parallel ribbons represented by the table.
    ribbons: usize,
    /// V_T-engineering shift applied at lookup time \[V\] (positive shift
    /// raises the threshold).
    vg_shift: f64,
    /// Provenance of the builder that produced the node values (e.g.
    /// `"surrogate"`, `"negf-real-space"`, `"negf-mode-space"`, `"negf-scf"`);
    /// recorded in the JSON form so cached tables identify their solver path.
    solver_path: String,
}

impl DeviceTable {
    /// Builds a table by sampling a single-ribbon model and scaling by
    /// `ribbons` identical parallel ribbons (the paper's 4-GNR array).
    ///
    /// Scaling by `k` is not bitwise the sum of `k` ribbons, so this table
    /// may differ in the last bit from
    /// [`from_ribbon_models`](Self::from_ribbon_models) over `k` copies of
    /// the model. The device library builds its arrays through the latter
    /// (summing listed ribbons) to stay bit-identical with the tables it
    /// has already stored; both cost one evaluation per bias point.
    ///
    /// The bias grid is sampled on `ctx`'s thread pool, one gate-voltage
    /// row per work item, with an ordered merge: tables are bit-identical
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation failures.
    pub fn from_model(
        ctx: &ExecCtx,
        model: &SbfetModel,
        polarity: Polarity,
        grid: TableGrid,
        ribbons: usize,
    ) -> Result<Self, DeviceError> {
        let ribbons = ribbons.max(1);
        let mut single = Self::from_ribbon_models(ctx, &[model], polarity, grid)?;
        // Identical parallel ribbons scale linearly: evaluate once.
        let k = ribbons as f64;
        single.id_a = single.id_a.map(|v| v * k);
        single.q_c = single.q_c.map(|v| v * k);
        single.ribbons = ribbons;
        Ok(single)
    }

    /// Builds a table by sampling arbitrary current/charge functions — the
    /// hook that lets non-GNR devices (e.g. the scaled-CMOS baseline in
    /// `gnr-cmos`) flow through the same circuit machinery.
    ///
    /// `id_fn(v_gs, v_ds)` returns amperes, `q_fn` coulombs, both in the
    /// device's *internal n-type* convention (p-type mirroring is applied
    /// at lookup).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for a degenerate grid.
    pub fn from_samples(
        grid: TableGrid,
        polarity: Polarity,
        mut id_fn: impl FnMut(f64, f64) -> f64,
        mut q_fn: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, DeviceError> {
        if grid.points < 3 {
            return Err(DeviceError::config("table grid needs >= 3 points/axis"));
        }
        let gx = Grid1::new(grid.vgs.0, grid.vgs.1, grid.points)?;
        let gy = Grid1::new(grid.vds.0, grid.vds.1, grid.points)?;
        let g2 = Grid2::new(gx, gy);
        let mut id_vals = Vec::with_capacity(g2.len());
        let mut q_vals = Vec::with_capacity(g2.len());
        for i in 0..grid.points {
            let vg = gx.point(i);
            for j in 0..grid.points {
                let vd = gy.point(j);
                id_vals.push(id_fn(vg, vd));
                q_vals.push(q_fn(vg, vd));
            }
        }
        Ok(DeviceTable {
            id_a: BilinearTable::new(g2, id_vals)?,
            q_c: BilinearTable::new(g2, q_vals)?,
            polarity,
            ribbons: 1,
            vg_shift: 0.0,
            solver_path: "surrogate".into(),
        })
    }

    /// Builds a table for a parallel array of per-ribbon models — the
    /// mechanism behind the paper's "one of four GNRs affected" scenarios:
    /// pass three nominal models and one variant.
    ///
    /// Bias-invariant work is done once: the list is deduplicated by
    /// identity (the library passes the same model up to four times), each
    /// distinct model builds one drain-bias column per `V_DS` node, and
    /// evaluates once per bias point. The per-point values are then summed
    /// once per *listed* ribbon in list order — the float-add sequence of
    /// the model-outer nested loop, so four identical ribbons give
    /// `x + x + x + x`, never `4·x`. Columns and grid rows (fixed `V_GS`,
    /// all `V_DS`) run on `ctx`'s pool and merge in grid order, so the
    /// table is bit-identical to the serial nested loop for any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for an empty model list or a
    /// degenerate grid; propagates model failures.
    pub fn from_ribbon_models<M: std::borrow::Borrow<SbfetModel> + Sync>(
        ctx: &ExecCtx,
        models: &[M],
        polarity: Polarity,
        grid: TableGrid,
    ) -> Result<Self, DeviceError> {
        if models.is_empty() {
            return Err(DeviceError::config("need at least one ribbon model"));
        }
        if grid.points < 3 {
            return Err(DeviceError::config("table grid needs >= 3 points/axis"));
        }
        let gx = Grid1::new(grid.vgs.0, grid.vgs.1, grid.points)?;
        let gy = Grid1::new(grid.vds.0, grid.vds.1, grid.points)?;
        let g2 = Grid2::new(gx, gy);
        let points = grid.points;
        let mut distinct: Vec<&SbfetModel> = Vec::new();
        let slots: Vec<usize> = models
            .iter()
            .map(|m| {
                let m = m.borrow();
                distinct
                    .iter()
                    .position(|&d| std::ptr::eq(d, m))
                    .unwrap_or_else(|| {
                        distinct.push(m);
                        distinct.len() - 1
                    })
            })
            .collect();
        // Column `d * points + j`: distinct model `d` at V_DS node `j`.
        let columns = ctx.try_par_map_indexed(distinct.len() * points, |c| {
            distinct[c / points].drain_column(gy.point(c % points))
        })?;
        type Row = (Vec<f64>, Vec<f64>);
        let rows = ctx.try_par_map_indexed(points, |i| -> Result<Row, DeviceError> {
            let vg = gx.point(i);
            let evals = columns
                .iter()
                .enumerate()
                .map(|(c, col)| distinct[c / points].evaluate_with(vg, col))
                .collect::<Result<Vec<_>, _>>()?;
            let mut id_row = vec![0.0; points];
            let mut q_row = vec![0.0; points];
            for &d in &slots {
                let ribbon = &evals[d * points..(d + 1) * points];
                for ((id_cell, q_cell), &(id, q)) in id_row.iter_mut().zip(&mut q_row).zip(ribbon) {
                    *id_cell += id;
                    *q_cell += q;
                }
            }
            Ok((id_row, q_row))
        })?;
        let mut id_vals = Vec::with_capacity(g2.len());
        let mut q_vals = Vec::with_capacity(g2.len());
        for (id_row, q_row) in rows {
            id_vals.extend(id_row);
            q_vals.extend(q_row);
        }
        ctx.counter_inc("device.table.builds");
        ctx.counter_add("device.table.bias_points", g2.len() as u64);
        Ok(DeviceTable {
            id_a: BilinearTable::new(g2, id_vals)?,
            q_c: BilinearTable::new(g2, q_vals)?,
            polarity,
            ribbons: models.len(),
            vg_shift: 0.0,
            solver_path: "surrogate".into(),
        })
    }

    /// Builds a table directly from row-major (`vgs`-major) node values
    /// already scaled to the full device. Crate-internal hook for builders
    /// that compute whole grids up front (e.g. the ballistic NEGF sweep).
    pub(crate) fn from_node_values(
        grid: TableGrid,
        polarity: Polarity,
        ribbons: usize,
        id_vals: Vec<f64>,
        q_vals: Vec<f64>,
    ) -> Result<Self, DeviceError> {
        if grid.points < 3 {
            return Err(DeviceError::config("table grid needs >= 3 points/axis"));
        }
        let gx = Grid1::new(grid.vgs.0, grid.vgs.1, grid.points)?;
        let gy = Grid1::new(grid.vds.0, grid.vds.1, grid.points)?;
        let g2 = Grid2::new(gx, gy);
        if id_vals.len() != g2.len() || q_vals.len() != g2.len() {
            return Err(DeviceError::config(format!(
                "node value count {}/{} does not match grid size {}",
                id_vals.len(),
                q_vals.len(),
                g2.len()
            )));
        }
        Ok(DeviceTable {
            id_a: BilinearTable::new(g2, id_vals)?,
            q_c: BilinearTable::new(g2, q_vals)?,
            polarity,
            ribbons: ribbons.max(1),
            vg_shift: 0.0,
            solver_path: "surrogate".into(),
        })
    }

    /// Builds a table by running the rigorous NEGF⇄Poisson SCF loop at
    /// every bias point, scaled by `ribbons` identical parallel ribbons.
    ///
    /// With `warm_start` set, each bias point's potential is seeded from
    /// its nearest already-solved neighbour on the grid: within a
    /// gate-voltage row the previous (lower `V_DS`) point, and at a row
    /// head the previous row's head. The sweep itself is serial in
    /// row-major order — the chain of seeds is then fixed regardless of
    /// `GNR_THREADS` (the *inner* energy integration still parallelizes
    /// over `ctx`'s pool), preserving the bit-identical determinism
    /// contract. `warm_start = false` reproduces the independent cold
    /// solves exactly.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for a degenerate grid; propagates
    /// SCF failures.
    pub fn from_scf(
        ctx: &ExecCtx,
        solver: &ScfSolver,
        polarity: Polarity,
        grid: TableGrid,
        ribbons: usize,
        warm_start: bool,
    ) -> Result<Self, DeviceError> {
        if grid.points < 3 {
            return Err(DeviceError::config("table grid needs >= 3 points/axis"));
        }
        let ribbons = ribbons.max(1);
        let k = ribbons as f64;
        let gx = Grid1::new(grid.vgs.0, grid.vgs.1, grid.points)?;
        let gy = Grid1::new(grid.vds.0, grid.vds.1, grid.points)?;
        let mut id_vals = Vec::with_capacity(grid.points * grid.points);
        let mut q_vals = Vec::with_capacity(grid.points * grid.points);
        let mut row_head_seed: Option<Vec<f64>> = None;
        let mut seeds = 0u64;
        for i in 0..grid.points {
            let vg = gx.point(i);
            let mut prev: Option<Vec<f64>> = None;
            for j in 0..grid.points {
                let vd = gy.point(j);
                let seed = if !warm_start {
                    None
                } else if j == 0 {
                    row_head_seed.as_deref()
                } else {
                    prev.as_deref()
                };
                if seed.is_some() {
                    seeds += 1;
                }
                let (r, _) = solver.solve_seeded(ctx, vg, vd, seed)?;
                id_vals.push(r.current_a * k);
                q_vals.push(r.charge_c * k);
                if j == 0 {
                    row_head_seed = Some(r.atom_potential_ev.clone());
                }
                prev = Some(r.atom_potential_ev);
            }
        }
        ctx.counter_inc("device.table.scf_builds");
        ctx.counter_add(
            "device.table.scf_points",
            (grid.points * grid.points) as u64,
        );
        ctx.counter_add("device.table.warm_seeds", seeds);
        let mut t = Self::from_node_values(grid, polarity, ribbons, id_vals, q_vals)?;
        t.ribbons = ribbons;
        t.solver_path = "negf-scf".into();
        Ok(t)
    }

    /// The device polarity.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The internal bias-grid node coordinates `(vgs_nodes, vds_nodes)` the
    /// table was sampled on (raw n-type convention, before shift/mirror),
    /// as non-allocating iterators.
    pub fn bias_nodes(
        &self,
    ) -> (
        impl Iterator<Item = f64> + '_,
        impl Iterator<Item = f64> + '_,
    ) {
        let g = self.id_a.grid();
        (
            (0..g.x.len()).map(move |i| g.x.point(i)),
            (0..g.y.len()).map(move |j| g.y.point(j)),
        )
    }

    /// Number of parallel ribbons folded into the table.
    pub fn ribbons(&self) -> usize {
        self.ribbons
    }

    /// Which solver path produced the node values: `"surrogate"` for the
    /// analytic SBFET model, `"negf-real-space"` / `"negf-mode-space"` for
    /// the ballistic NEGF table builder, `"negf-scf"` for the rigorous
    /// NEGF⇄Poisson sweep.
    pub fn solver_path(&self) -> &str {
        &self.solver_path
    }

    /// Stamps the builder provenance (crate-internal; tables default to
    /// `"surrogate"`).
    pub(crate) fn set_solver_path(&mut self, path: &str) {
        self.solver_path = path.into();
    }

    /// The current V_T-engineering shift \[V\].
    pub fn vg_shift(&self) -> f64 {
        self.vg_shift
    }

    /// Returns a copy with an additional gate shift: positive `delta_v`
    /// moves the I-V curve towards higher |V_GS|, raising the threshold —
    /// the paper's work-function V_T engineering (§2/§3.1).
    pub fn with_vg_shift(&self, delta_v: f64) -> DeviceTable {
        let mut t = self.clone();
        t.vg_shift += delta_v;
        t
    }

    /// Mirrors this table to the opposite polarity (n↔p).
    pub fn mirrored(&self) -> DeviceTable {
        let mut t = self.clone();
        t.polarity = match self.polarity {
            Polarity::NType => Polarity::PType,
            Polarity::PType => Polarity::NType,
        };
        t
    }

    /// Maps external `(v_gs, v_ds)` to internal n-type table coordinates,
    /// returning `(vg, vd, sign)` where `sign` flips the looked-up current.
    fn map_bias(&self, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
        let (vg, vd, sign, _) = self.map_bias_swap(v_gs, v_ds);
        (vg, vd, sign)
    }

    /// [`map_bias`](Self::map_bias) plus a flag for whether the
    /// source/drain exchange fired — derivative chain rules differ in the
    /// swapped region.
    fn map_bias_swap(&self, v_gs: f64, v_ds: f64) -> (f64, f64, f64, bool) {
        // Polarity mirror first.
        let (mut vg, mut vd, mut sign) = match self.polarity {
            Polarity::NType => (v_gs, v_ds, 1.0),
            Polarity::PType => (-v_gs, -v_ds, -1.0),
        };
        vg -= self.vg_shift;
        // Source/drain exchange for negative internal drain bias:
        // I(vg, -vd) = -I(vg - vd ... with both terminals swapped the
        // gate-to-new-source voltage is vg - vd.
        let swapped = vd < 0.0;
        if swapped {
            vg -= vd;
            vd = -vd;
            sign = -sign;
        }
        (vg, vd, sign, swapped)
    }

    /// Drain current \[A\] at the external bias `(v_gs, v_ds)`.
    pub fn current(&self, v_gs: f64, v_ds: f64) -> f64 {
        let (vg, vd, sign) = self.map_bias(v_gs, v_ds);
        sign * self.id_a.eval(vg, vd)
    }

    /// `(I_D, g_m, g_ds)` at the external bias `(v_gs, v_ds)` from one
    /// table-cell search — what the circuit Newton loop stamps for every
    /// FET on every iteration. [`current`](Self::current),
    /// [`gm`](Self::gm) and [`gds`](Self::gds) return the same bits.
    pub fn iv_eval(&self, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
        let (vg, vd, sign, swapped) = self.map_bias_swap(v_gs, v_ds);
        let (id, d_vg, d_vd) = self.id_a.eval_with_derivs(vg, vd);
        (
            sign * id,
            self.gm_from(sign, d_vg),
            Self::gds_from(swapped, d_vg, d_vd),
        )
    }

    /// Transconductance from the internal gate-axis slope: dI/dVgs
    /// external = sign * dI/dvg * dvg/dVgs.
    fn gm_from(&self, sign: f64, d_vg: f64) -> f64 {
        let chain = match self.polarity {
            Polarity::NType => 1.0,
            Polarity::PType => -1.0,
        };
        d_vg * (sign * chain)
    }

    /// Output conductance from the internal slopes. Unswapped: both sign
    /// flips (current and axis) cancel, leaving ∂/∂vd. Swapped: the
    /// exchange substitutes vg' = vg - vd, so the external V_DS derivative
    /// picks up the gate-axis term as well — dropping it makes the Newton
    /// Jacobian inconsistent exactly where series-stack internal nodes
    /// land mid-iteration.
    fn gds_from(swapped: bool, d_vg: f64, d_vd: f64) -> f64 {
        if swapped {
            d_vg + d_vd
        } else {
            d_vd
        }
    }

    /// Output conductance `∂I_D/∂V_DS` \[S\].
    pub fn gds(&self, v_gs: f64, v_ds: f64) -> f64 {
        let (vg, vd, _, swapped) = self.map_bias_swap(v_gs, v_ds);
        let (_, d_vg, d_vd) = self.id_a.eval_with_derivs(vg, vd);
        Self::gds_from(swapped, d_vg, d_vd)
    }

    /// Transconductance `∂I_D/∂V_GS` \[S\].
    pub fn gm(&self, v_gs: f64, v_ds: f64) -> f64 {
        let (vg, vd, sign) = self.map_bias(v_gs, v_ds);
        self.gm_from(sign, self.id_a.deriv_x(vg, vd))
    }

    /// Net channel charge \[C\] at the external bias.
    pub fn charge(&self, v_gs: f64, v_ds: f64) -> f64 {
        let (vg, vd, sign) = self.map_bias(v_gs, v_ds);
        sign * self.q_c.eval(vg, vd)
    }

    /// Intrinsic `(C_GS,i, C_GD,i)` \[F\] from one table-cell search (§3):
    /// `C_GD,i = |∂Q/∂V_DS|` and `C_GS,i = |∂Q/∂V_GS| − |∂Q/∂V_DS|`,
    /// clamped at zero. The transient companion models and the AC
    /// capacitance matrix both read the capacitances through here.
    ///
    /// The derivatives are taken in the *internal* coordinates; in the
    /// swapped region (`v_ds < 0` after the polarity mirror) those belong
    /// to the exchanged terminals (a known issue, DESIGN.md §12.1).
    pub fn caps_intrinsic(&self, v_gs: f64, v_ds: f64) -> (f64, f64) {
        let (vg, vd, _) = self.map_bias(v_gs, v_ds);
        let (_, dq_vg, dq_vd) = self.q_c.eval_with_derivs(vg, vd);
        let cgd = dq_vd.abs();
        ((dq_vg.abs() - cgd).max(0.0), cgd)
    }

    /// Intrinsic gate-drain capacitance `C_GD,i = |∂Q/∂V_DS|` \[F\] (see
    /// [`caps_intrinsic`](Self::caps_intrinsic)).
    pub fn cgd_intrinsic(&self, v_gs: f64, v_ds: f64) -> f64 {
        let (vg, vd, _) = self.map_bias(v_gs, v_ds);
        self.q_c.deriv_y(vg, vd).abs()
    }

    /// Intrinsic gate-source capacitance `C_GS,i` \[F\] (see
    /// [`caps_intrinsic`](Self::caps_intrinsic)).
    pub fn cgs_intrinsic(&self, v_gs: f64, v_ds: f64) -> f64 {
        self.caps_intrinsic(v_gs, v_ds).0
    }

    /// Total intrinsic gate capacitance `C_G,i = |∂Q/∂V_GS|` \[F\].
    pub fn cg_intrinsic(&self, v_gs: f64, v_ds: f64) -> f64 {
        let (vg, vd, _) = self.map_bias(v_gs, v_ds);
        self.q_c.deriv_x(vg, vd).abs()
    }

    /// Folds series contact resistances `R_S`/`R_D` (Ω) into the table,
    /// returning a new table expressed in *external* terminal voltages.
    ///
    /// The paper's extrinsic model (Fig. 3a) places `R_S = R_D ∈ [1, 100] kΩ`
    /// in series with the intrinsic device; because the resistors are
    /// static, they fold exactly into the DC I-V relation by solving
    /// `i = I_int(v_gs − i·R_S, v_ds − i·(R_S+R_D))` at every external grid
    /// node. This keeps logic-gate netlists free of internal nodes, which
    /// is what makes the exploration sweeps cheap. (The displacement
    /// current error introduced by also reading the charge at the internal
    /// bias is O(R·C) ≈ 0.02 ps, negligible against gate delays.)
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for negative resistances.
    pub fn fold_series_resistance(&self, r_s: f64, r_d: f64) -> Result<DeviceTable, DeviceError> {
        if r_s < 0.0 || r_d < 0.0 {
            return Err(DeviceError::config("contact resistances must be >= 0"));
        }
        if r_s == 0.0 && r_d == 0.0 {
            return Ok(self.clone());
        }
        let g = self.id_a.grid();
        let (nx, ny) = (g.x.len(), g.y.len());
        let mut id_vals = Vec::with_capacity(nx * ny);
        let mut q_vals = Vec::with_capacity(nx * ny);
        // A current bound for the bisection bracket: the table's largest
        // magnitude plus margin.
        let mut i_max = 0.0f64;
        for i in 0..nx {
            for j in 0..ny {
                i_max = i_max.max(self.id_a.node(i, j).abs());
            }
        }
        let bound = 2.0 * i_max + 1e-9;
        for i in 0..nx {
            let vg_ext = g.x.point(i);
            for j in 0..ny {
                let vd_ext = g.y.point(j);
                // Solve f(i) = i - I_int(vg - i R_S, vd - i (R_S+R_D)) = 0.
                let f = |cur: f64| {
                    cur - self
                        .id_a
                        .eval(vg_ext - cur * r_s, vd_ext - cur * (r_s + r_d))
                };
                let cur = match gnr_num::roots::brent(f, -bound, bound, 1e-18, 200) {
                    Ok(c) => c,
                    // Monotone in practice; fall back to the unloaded value
                    // if the bracket degenerates at an extreme corner.
                    Err(_) => self.id_a.eval(vg_ext, vd_ext),
                };
                id_vals.push(cur);
                q_vals.push(
                    self.q_c
                        .eval(vg_ext - cur * r_s, vd_ext - cur * (r_s + r_d)),
                );
            }
        }
        Ok(DeviceTable {
            id_a: BilinearTable::new(g, id_vals)?,
            q_c: BilinearTable::new(g, q_vals)?,
            polarity: self.polarity,
            ribbons: self.ribbons,
            vg_shift: self.vg_shift,
            solver_path: self.solver_path.clone(),
        })
    }

    /// Serializes to a JSON string (inspection / caching).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] if serialization fails (does not
    /// occur for finite tables).
    pub fn to_json(&self) -> Result<String, DeviceError> {
        let g = self.id_a.grid();
        let axis = |a: &Grid1| {
            Json::Arr(vec![
                Json::Num(a.start()),
                Json::Num(a.stop()),
                Json::from(a.len()),
            ])
        };
        let nodes = |t: &BilinearTable| -> Json {
            Json::Arr(
                (0..g.x.len())
                    .flat_map(|i| (0..g.y.len()).map(move |j| (i, j)))
                    .map(|(i, j)| Json::Num(t.node(i, j)))
                    .collect(),
            )
        };
        let doc = Json::Obj(vec![
            ("vgs".into(), axis(&g.x)),
            ("vds".into(), axis(&g.y)),
            ("id_a".into(), nodes(&self.id_a)),
            ("q_c".into(), nodes(&self.q_c)),
            (
                "polarity".into(),
                Json::from(match self.polarity {
                    Polarity::NType => "NType",
                    Polarity::PType => "PType",
                }),
            ),
            ("ribbons".into(), Json::from(self.ribbons)),
            ("vg_shift".into(), Json::Num(self.vg_shift)),
            ("solver_path".into(), Json::from(self.solver_path.as_str())),
        ]);
        Ok(doc.dump())
    }

    /// Deserializes a table previously produced by [`DeviceTable::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] for malformed input.
    pub fn from_json(json: &str) -> Result<Self, DeviceError> {
        let bad = |msg: &str| DeviceError::config(format!("device table json: {msg}"));
        let doc = Json::parse(json).map_err(|e| DeviceError::config(e.to_string()))?;
        let axis = |key: &str| -> Result<Grid1, DeviceError> {
            let a = doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(&format!("missing axis '{key}'")))?;
            match a {
                [start, stop, len] => Ok(Grid1::new(
                    start.as_f64().ok_or_else(|| bad("axis start"))?,
                    stop.as_f64().ok_or_else(|| bad("axis stop"))?,
                    len.as_usize().ok_or_else(|| bad("axis length"))?,
                )?),
                _ => Err(bad(&format!("axis '{key}' needs [start, stop, len]"))),
            }
        };
        let values = |key: &str| -> Result<Vec<f64>, DeviceError> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(&format!("missing values '{key}'")))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| bad(&format!("non-number in '{key}'")))
                })
                .collect()
        };
        let polarity = match doc.get("polarity").and_then(Json::as_str) {
            Some("NType") => Polarity::NType,
            Some("PType") => Polarity::PType,
            _ => return Err(bad("polarity must be 'NType' or 'PType'")),
        };
        let g2 = Grid2::new(axis("vgs")?, axis("vds")?);
        Ok(DeviceTable {
            id_a: BilinearTable::new(g2, values("id_a")?)?,
            q_c: BilinearTable::new(g2, values("q_c")?)?,
            polarity,
            ribbons: doc
                .get("ribbons")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("missing ribbons"))?,
            vg_shift: doc
                .get("vg_shift")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("missing vg_shift"))?,
            // Lenient for tables serialized before provenance existed.
            solver_path: doc
                .get("solver_path")
                .and_then(Json::as_str)
                .unwrap_or("surrogate")
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use std::sync::OnceLock;

    fn ctx() -> ExecCtx {
        ExecCtx::serial()
    }

    fn shared_table() -> &'static DeviceTable {
        static TABLE: OnceLock<DeviceTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            let cfg = DeviceConfig::test_small(12).unwrap();
            let model = SbfetModel::new(&cfg).unwrap();
            DeviceTable::from_model(&ctx(), &model, Polarity::NType, TableGrid::coarse(), 4)
                .unwrap()
        })
    }

    #[test]
    fn parallel_table_build_bit_identical_to_serial() {
        let cfg = DeviceConfig::test_small(12).unwrap();
        let model = SbfetModel::new(&cfg).unwrap();
        let serial = shared_table().to_json().unwrap();
        for threads in [2, 4] {
            let par = DeviceTable::from_model(
                &ExecCtx::with_threads(threads),
                &model,
                Polarity::NType,
                TableGrid::coarse(),
                4,
            )
            .unwrap()
            .to_json()
            .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn bias_nodes_span_the_grid() {
        let t = shared_table();
        let (vgs, vds): (Vec<f64>, Vec<f64>) = {
            let (gx, gy) = t.bias_nodes();
            (gx.collect(), gy.collect())
        };
        assert_eq!(vgs.len(), 13);
        assert_eq!(vds.len(), 13);
        assert!((vgs[0] - (-0.3)).abs() < 1e-12);
        assert!((vgs[12] - 0.9).abs() < 1e-12);
        assert!((vds[0]).abs() < 1e-12);
        assert!((vds[12] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn four_ribbons_carry_four_times_single_current() {
        let cfg = DeviceConfig::test_small(12).unwrap();
        let model = SbfetModel::new(&cfg).unwrap();
        let one = DeviceTable::from_model(&ctx(), &model, Polarity::NType, TableGrid::coarse(), 1)
            .unwrap();
        let four = shared_table();
        let i1 = one.current(0.5, 0.5);
        let i4 = four.current(0.5, 0.5);
        assert!(
            (i4 - 4.0 * i1).abs() < 1e-3 * i4.abs(),
            "{i1:.3e} vs {i4:.3e}"
        );
        assert_eq!(four.ribbons(), 4);
    }

    #[test]
    fn ptype_mirror_symmetry() {
        let t = shared_table();
        let p = t.mirrored();
        assert_eq!(p.polarity(), Polarity::PType);
        // I_p(-vg, -vd) = -I_n(vg, vd)
        let a = t.current(0.4, 0.3);
        let b = p.current(-0.4, -0.3);
        assert!(
            (a + b).abs() < 1e-12 * a.abs().max(1e-18),
            "{a:.3e} {b:.3e}"
        );
    }

    #[test]
    fn negative_vds_antisymmetry_at_matched_gate() {
        // Swapping source and drain: I(vg, -vd) = -I(vg - vd, vd).
        let t = shared_table();
        let a = t.current(0.2, -0.3);
        let b = -t.current(0.5, 0.3);
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1e-15),
            "{a:.3e} vs {b:.3e}"
        );
    }

    #[test]
    fn zero_vds_zero_current() {
        let t = shared_table();
        for vg in [-0.2, 0.0, 0.3, 0.7] {
            let i = t.current(vg, 0.0);
            assert!(i.abs() < 1e-9, "I({vg}, 0) = {i:.3e}");
        }
    }

    #[test]
    fn vg_shift_translates_curve() {
        let t = shared_table();
        let shifted = t.with_vg_shift(0.15);
        let a = t.current(0.5, 0.4);
        let b = shifted.current(0.65, 0.4);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1e-15));
        assert!((shifted.vg_shift() - 0.15).abs() < 1e-15);
    }

    #[test]
    fn capacitances_positive_and_finite() {
        let t = shared_table();
        for vg in [0.0, 0.3, 0.6] {
            for vd in [0.05, 0.3, 0.6] {
                let cgd = t.cgd_intrinsic(vg, vd);
                let cgs = t.cgs_intrinsic(vg, vd);
                let cg = t.cg_intrinsic(vg, vd);
                assert!(cgd >= 0.0 && cgd.is_finite());
                assert!(cgs >= 0.0 && cgs.is_finite());
                assert!(cg > 0.0 && cg < 1e-15, "C_G = {cg:.3e} F");
            }
        }
    }

    /// `current`, `gm`, `gds`, `cgs_intrinsic` and `cgd_intrinsic` as
    /// independent formulas, one cell search per quantity, swapped-region
    /// `gds` chain rule included: the oracle the fused and the public
    /// separate lookups must match bit for bit.
    fn separate_lookups(t: &DeviceTable, v_gs: f64, v_ds: f64) -> [f64; 5] {
        let (vg, vd, sign, swapped) = t.map_bias_swap(v_gs, v_ds);
        let current = sign * t.id_a.eval(vg, vd);
        let gds = if swapped {
            t.id_a.deriv_x(vg, vd) + t.id_a.deriv_y(vg, vd)
        } else {
            t.id_a.deriv_y(vg, vd)
        };
        let mut gm = t.id_a.deriv_x(vg, vd);
        let chain = match t.polarity {
            Polarity::NType => 1.0,
            Polarity::PType => -1.0,
        };
        gm *= sign * chain;
        let cgs = (t.q_c.deriv_x(vg, vd).abs() - t.q_c.deriv_y(vg, vd).abs()).max(0.0);
        let cgd = t.q_c.deriv_y(vg, vd).abs();
        [current, gm, gds, cgs, cgd]
    }

    #[test]
    fn fused_lookups_are_bit_identical_to_separate_calls() {
        let n = shared_table();
        let tables = [
            n.clone(),
            n.mirrored(),
            n.with_vg_shift(0.137),
            n.with_vg_shift(-0.09).mirrored(),
        ];
        let mut rng = gnr_num::Rng::seed_from_u64(0x10_0c4b);
        let mut swapped = 0;
        for t in &tables {
            let s = match t.polarity() {
                Polarity::NType => 1.0,
                Polarity::PType => -1.0,
            };
            for k in 0..1500 {
                // Internal coordinates span the coarse grid (vgs −0.3…0.9,
                // vds 0…0.8); every third point goes up to 0.6 V past an
                // edge, and v_ds < 0 exercises the source/drain exchange.
                let reach = if k % 3 == 0 { 0.6 } else { 0.0 };
                let v_gs = s * rng.uniform_in(-0.3 - reach, 0.9 + reach);
                let v_ds = s * rng.uniform_in(-0.8 - reach, 0.8 + reach);
                if s * v_ds < 0.0 {
                    swapped += 1;
                }
                let (id, gm, gds) = t.iv_eval(v_gs, v_ds);
                let (cgs, cgd) = t.caps_intrinsic(v_gs, v_ds);
                let fused = [id, gm, gds, cgs, cgd];
                let separate = [
                    t.current(v_gs, v_ds),
                    t.gm(v_gs, v_ds),
                    t.gds(v_gs, v_ds),
                    t.cgs_intrinsic(v_gs, v_ds),
                    t.cgd_intrinsic(v_gs, v_ds),
                ];
                let want = separate_lookups(t, v_gs, v_ds);
                for (what, got) in [("fused", fused), ("separate", separate)] {
                    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{what} output {i} of {:?} table (shift {}) at ({v_gs}, {v_ds})",
                            t.polarity(),
                            t.vg_shift()
                        );
                    }
                }
            }
        }
        assert!(swapped > 2000, "swapped-region coverage: {swapped}");
    }

    #[test]
    fn gm_positive_in_ntype_branch() {
        let t = shared_table();
        assert!(t.gm(0.6, 0.5) > 0.0);
        // p-type mirror: gm of the p-device at its active branch.
        let p = t.mirrored();
        assert!(p.gm(-0.6, -0.5) > 0.0, "gm_p = {}", p.gm(-0.6, -0.5));
    }

    #[test]
    fn json_roundtrip_preserves_lookup() {
        let t = shared_table();
        let json = t.to_json().unwrap();
        let back = DeviceTable::from_json(&json).unwrap();
        for vg in [-0.1, 0.2, 0.55] {
            for vd in [0.0, 0.25, 0.7] {
                assert!((t.current(vg, vd) - back.current(vg, vd)).abs() < 1e-18);
                assert!((t.charge(vg, vd) - back.charge(vg, vd)).abs() < 1e-30);
            }
        }
        assert!(DeviceTable::from_json("not json").is_err());
    }

    /// The model-outer nested loop the table builder replaced: every
    /// listed model evaluated at every node, summed in list order.
    fn nested_loop_oracle(models: &[&SbfetModel], grid: TableGrid) -> (Vec<f64>, Vec<f64>) {
        let n = grid.points;
        let gx = Grid1::new(grid.vgs.0, grid.vgs.1, n).unwrap();
        let gy = Grid1::new(grid.vds.0, grid.vds.1, n).unwrap();
        let (mut id, mut q) = (vec![0.0; n * n], vec![0.0; n * n]);
        for i in 0..n {
            for model in models {
                for j in 0..n {
                    let (a, b) = model.evaluate(gx.point(i), gy.point(j)).unwrap();
                    id[i * n + j] += a;
                    q[i * n + j] += b;
                }
            }
        }
        (id, q)
    }

    #[test]
    fn deduplicated_ribbons_match_the_nested_loop() {
        let a = SbfetModel::new(&DeviceConfig::test_small(12).unwrap()).unwrap();
        let b = a
            .with_added_impurities(&[crate::ChargeImpurity::near_source(1.0)])
            .unwrap();
        let grid = TableGrid::coarse();
        for (what, list) in [
            ("[a, a, a, a]", [&a, &a, &a, &a]),
            ("[a, b, a, b]", [&a, &b, &a, &b]),
        ] {
            let (id, q) = nested_loop_oracle(&list, grid);
            for threads in [1, 3] {
                let t = DeviceTable::from_ribbon_models(
                    &ExecCtx::with_threads(threads),
                    &list,
                    Polarity::NType,
                    grid,
                )
                .unwrap();
                assert_eq!(t.ribbons(), 4);
                for i in 0..grid.points {
                    for j in 0..grid.points {
                        let k = i * grid.points + j;
                        let at = format!("{what} node ({i}, {j}), threads={threads}");
                        assert_eq!(t.id_a.node(i, j).to_bits(), id[k].to_bits(), "id {at}");
                        assert_eq!(t.q_c.node(i, j).to_bits(), q[k].to_bits(), "q {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_grid_is_a_typed_error() {
        let model = SbfetModel::new(&DeviceConfig::test_small(9).unwrap()).unwrap();
        let finite = TableGrid::coarse();
        for grid in [
            TableGrid {
                vds: (0.0, f64::INFINITY),
                ..finite
            },
            TableGrid {
                vgs: (f64::NEG_INFINITY, 0.9),
                ..finite
            },
            TableGrid {
                vgs: (f64::NAN, 0.9),
                ..finite
            },
        ] {
            let r = DeviceTable::from_ribbon_models(&ctx(), &[&model], Polarity::NType, grid);
            assert!(
                matches!(r, Err(DeviceError::Config { .. } | DeviceError::Num(_))),
                "{grid:?}: {r:?}"
            );
        }
    }

    #[test]
    fn rejects_empty_model_list() {
        let models: Vec<SbfetModel> = Vec::new();
        assert!(matches!(
            DeviceTable::from_ribbon_models(&ctx(), &models, Polarity::NType, TableGrid::coarse()),
            Err(DeviceError::Config { .. })
        ));
    }
}
