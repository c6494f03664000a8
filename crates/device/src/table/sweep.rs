//! The one bias-grid sweep behind every [`DeviceTable`] builder
//! (DESIGN.md §2.2).
//!
//! A builder validates its [`TableGrid`] into a [`BiasSweep`], does its
//! bias-invariant prework against the validated axes, and hands the sweep
//! one evaluator, whose type picks the schedule: an `Fn + Sync` row
//! evaluator ([`BiasSweep::par_rows`]) runs the gate-voltage rows on
//! `ctx`'s pool with an ordered merge; an `FnMut` point evaluator
//! ([`BiasSweep::serial`]) runs the nodes one by one in row-major order.
//! Either way the sweep scales every node value by [`Stamp::scale`],
//! stamps the table and records the builder's counters.

use super::{DeviceTable, Polarity, TableGrid};
use crate::error::DeviceError;
use gnr_num::par::ExecCtx;
use gnr_num::{BilinearTable, Grid1, Grid2};

/// One bias node of a serial sweep: row (`V_GS`) and column (`V_DS`)
/// indices and their voltages \[V\].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub row: usize,
    pub col: usize,
    pub vg: f64,
    pub vd: f64,
}

/// Counters recorded on `ctx` once a table is complete: `builds` gains 1,
/// `points` the node count, and `extra` its own value.
pub(crate) struct Tally<'a> {
    pub ctx: &'a ExecCtx,
    pub builds: &'static str,
    pub points: &'static str,
    pub extra: Option<(&'static str, u64)>,
}

/// What a finished sweep stamps on its table.
pub(crate) struct Stamp<'a> {
    pub polarity: Polarity,
    /// Parallel ribbons the table represents.
    pub ribbons: usize,
    /// Factor applied to every node value: the identical-ribbon count for
    /// builders that evaluate one ribbon, `1.0` for those that sum theirs.
    pub scale: f64,
    pub solver_path: &'static str,
    pub tally: Option<Tally<'a>>,
}

/// A validated uniform `(V_GS, V_DS)` grid, ready to sweep.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BiasSweep {
    grid: Grid2,
}

impl BiasSweep {
    /// Validates `grid`: at least three points per axis, a node count that
    /// fits in `usize`, finite bounds and span, and `stop > start` on both
    /// axes.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::Config`] naming the first violated rule.
    pub(crate) fn new(grid: &TableGrid) -> Result<Self, DeviceError> {
        let n = grid.points;
        if n < 3 {
            return Err(DeviceError::config("table grid needs >= 3 points/axis"));
        }
        if n.checked_mul(n).is_none() {
            return Err(DeviceError::config(format!(
                "table grid of {n} points/axis overflows the node count"
            )));
        }
        let axis = |name: &str, (start, stop): (f64, f64)| {
            let why = if !(start.is_finite() && stop.is_finite() && (stop - start).is_finite()) {
                "bounds must be finite"
            } else if stop <= start {
                "stop must exceed start"
            } else {
                return Ok(Grid1::new(start, stop, n)?);
            };
            Err(DeviceError::config(format!(
                "table grid {name} {why}, got ({start}, {stop})"
            )))
        };
        Ok(BiasSweep {
            grid: Grid2::new(axis("V_GS", grid.vgs)?, axis("V_DS", grid.vds)?),
        })
    }

    /// Points per axis.
    pub(crate) fn points(&self) -> usize {
        self.grid.x.len()
    }

    /// Total node count (`points²`).
    pub(crate) fn nodes(&self) -> usize {
        self.grid.len()
    }

    /// `V_GS` of row `i` \[V\].
    pub(crate) fn vgs(&self, i: usize) -> f64 {
        self.grid.x.point(i)
    }

    /// `V_DS` of column `j` \[V\].
    pub(crate) fn vds(&self, j: usize) -> f64 {
        self.grid.y.point(j)
    }

    /// Builds the table from `eval`'s `(I_D, Q)` at every node, called
    /// serially in row-major order; stops at the first error.
    pub(crate) fn serial(
        &self,
        stamp: Stamp<'_>,
        mut eval: impl FnMut(Node) -> Result<(f64, f64), DeviceError>,
    ) -> Result<DeviceTable, DeviceError> {
        let mut nodes = Vec::with_capacity(self.nodes());
        for row in 0..self.points() {
            for col in 0..self.points() {
                let (vg, vd) = (self.vgs(row), self.vds(col));
                nodes.push(eval(Node { row, col, vg, vd })?);
            }
        }
        self.finish(stamp, nodes)
    }

    /// Builds the table from `eval(V_GS)`'s row of `(I_D, Q)` over every
    /// `V_DS` node, one row per work item on `ctx`'s pool, merged in grid
    /// order — bit-identical for any thread count. Returns the error of
    /// the lowest failing row.
    pub(crate) fn par_rows(
        &self,
        ctx: &ExecCtx,
        stamp: Stamp<'_>,
        eval: impl Fn(f64) -> Result<Vec<(f64, f64)>, DeviceError> + Sync,
    ) -> Result<DeviceTable, DeviceError> {
        let rows = ctx.try_par_map_indexed(self.points(), |i| eval(self.vgs(i)))?;
        self.finish(stamp, rows.into_iter().flatten().collect())
    }

    /// The one place a table is built from node values.
    fn finish(&self, stamp: Stamp<'_>, nodes: Vec<(f64, f64)>) -> Result<DeviceTable, DeviceError> {
        let k = stamp.scale;
        let (id_vals, q_vals): (Vec<f64>, Vec<f64>) =
            nodes.into_iter().map(|(id, q)| (id * k, q * k)).unzip();
        let table = DeviceTable {
            id_a: BilinearTable::new(self.grid, id_vals)?,
            q_c: BilinearTable::new(self.grid, q_vals)?,
            polarity: stamp.polarity,
            ribbons: stamp.ribbons,
            vg_shift: 0.0,
            solver_path: stamp.solver_path.into(),
        };
        if let Some(t) = stamp.tally {
            t.ctx.counter_inc(t.builds);
            t.ctx.counter_add(t.points, self.nodes() as u64);
            if let Some((name, value)) = t.extra {
                t.ctx.counter_add(name, value);
            }
        }
        Ok(table)
    }
}
