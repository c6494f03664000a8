//! MNA linear-system backends: dense legacy path and the KLU-style
//! sparse path with per-circuit symbolic reuse.
//!
//! The Newton engines stamp the Jacobian through the `MnaSink`
//! abstraction so one stamping routine serves three backends: the legacy
//! dense [`Matrix`] (bit-for-bit the historical behavior), a fixed-pattern
//! [`CsrMatrix`] feeding [`SparseLu`], and a residual-only sink that
//! skips the matrix entirely (used by the Newton line search, which only
//! needs the trial residual).
//!
//! The sparse pattern is built once per circuit by `mna_pattern` — it
//! enumerates every slot any stamp can touch (including the capacitor
//! companion-model slots, so the same pattern serves DC and transient) —
//! and the symbolic analysis is reused across every Newton iteration,
//! gmin stage, ramp step, and time step on that circuit.

use crate::circuit::{Circuit, Element};
use crate::error::SpiceError;
use gnr_num::dense::LuFactors;
use gnr_num::telemetry;
use gnr_num::{CsrMatrix, Matrix, Refactorization, SparseLu, TripletBuilder};

/// Which linear-system backend the Newton engines use.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub enum MnaSolverKind {
    /// Dense below [`SPARSE_AUTO_MIN_UNKNOWNS`] unknowns, sparse above
    /// (the default): small circuits keep the exact legacy dense path,
    /// large ones get the sparse solver.
    #[default]
    Auto,
    /// Always the legacy dense Jacobian + dense LU.
    Dense,
    /// Always the sparse Jacobian + KLU-style [`SparseLu`] (falls back to
    /// dense only if the pattern is structurally singular).
    Sparse,
}

/// `Auto` switches from the dense to the sparse backend at this unknown
/// count. Every pinned legacy circuit sits below it, so default-path
/// results stay bit-identical; the crossover itself is conservative —
/// the sparse path already wins well before this size.
pub const SPARSE_AUTO_MIN_UNKNOWNS: usize = 64;

/// Destination of the MNA Jacobian stamps. Residual stamping happens
/// unconditionally; matrix entries go through `add`, and a sink may
/// declare (via `wants_matrix`) that it discards them so stampers can
/// skip expensive Jacobian-only work (device `gm`/`gds` table lookups).
pub(crate) trait MnaSink {
    /// Resets all matrix entries to zero (start of a stamp).
    fn clear(&mut self);
    /// Accumulates `v` at `(i, j)`.
    fn add(&mut self, i: usize, j: usize, v: f64);
    /// `false` when the sink ignores `add` — residual-only stamping.
    fn wants_matrix(&self) -> bool {
        true
    }
}

impl MnaSink for Matrix {
    fn clear(&mut self) {
        self.fill_zero();
    }

    fn add(&mut self, i: usize, j: usize, v: f64) {
        self.add_to(i, j, v);
    }
}

impl MnaSink for CsrMatrix {
    fn clear(&mut self) {
        for v in self.values_mut() {
            *v = 0.0;
        }
    }

    fn add(&mut self, i: usize, j: usize, v: f64) {
        let lo = self.row_ptr()[i];
        let hi = self.row_ptr()[i + 1];
        match self.col_idx()[lo..hi].binary_search(&j) {
            Ok(off) => self.values_mut()[lo + off] += v,
            Err(_) => unreachable!("MNA pattern is missing stamped slot ({i},{j})"),
        }
    }
}

/// Sink that discards matrix entries: stampers see `wants_matrix() ==
/// false` and skip Jacobian-only table lookups, leaving the residual
/// bit-identical to a full stamp.
pub(crate) struct ResidualOnly;

impl MnaSink for ResidualOnly {
    fn clear(&mut self) {}

    fn add(&mut self, _i: usize, _j: usize, _v: f64) {}

    fn wants_matrix(&self) -> bool {
        false
    }
}

/// Builds the value-independent MNA sparsity pattern of `circuit`: every
/// slot [`Circuit::stamp`] or the transient capacitor companion models
/// can touch, stored as explicit structural zeros (the
/// [`TripletBuilder::build`] guarantee keeps them in the pattern). One
/// pattern serves DC, transient, and every gmin/ramp stage.
pub(crate) fn mna_pattern(circuit: &Circuit) -> CsrMatrix {
    let n = circuit.unknowns();
    let n_nodes = circuit.node_count() - 1;
    let mut tb = TripletBuilder::new(n, n);
    // gmin to ground on every node row.
    for i in 0..n_nodes {
        tb.push(i, i, 0.0);
    }
    // Two-terminal conductance quad (resistors and capacitor companions).
    let quad = |tb: &mut TripletBuilder, ia: Option<usize>, ib: Option<usize>| {
        if let Some(ia) = ia {
            tb.push(ia, ia, 0.0);
            if let Some(ib) = ib {
                tb.push(ia, ib, 0.0);
            }
        }
        if let Some(ib) = ib {
            tb.push(ib, ib, 0.0);
            if let Some(ia) = ia {
                tb.push(ib, ia, 0.0);
            }
        }
    };
    let mut src_idx = 0usize;
    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                quad(&mut tb, circuit.mna_index(*a), circuit.mna_index(*b));
            }
            Element::VSource { p, n, .. } => {
                let row = n_nodes + src_idx;
                if let Some(ip) = circuit.mna_index(*p) {
                    tb.push(row, ip, 0.0);
                    tb.push(ip, row, 0.0);
                }
                if let Some(in_) = circuit.mna_index(*n) {
                    tb.push(row, in_, 0.0);
                    tb.push(in_, row, 0.0);
                }
                src_idx += 1;
            }
            // Current sources contribute to the residual only.
            Element::ISource { .. } => {}
            Element::Fet { d, g, s, .. } => {
                let (idd, ig, is) = (
                    circuit.mna_index(*d),
                    circuit.mna_index(*g),
                    circuit.mna_index(*s),
                );
                // Channel: drain and source KCL rows vs all three nodes.
                if let Some(idd) = idd {
                    tb.push(idd, idd, 0.0);
                    if let Some(ig) = ig {
                        tb.push(idd, ig, 0.0);
                    }
                    if let Some(is) = is {
                        tb.push(idd, is, 0.0);
                    }
                }
                if let Some(is) = is {
                    tb.push(is, is, 0.0);
                    if let Some(idd) = idd {
                        tb.push(is, idd, 0.0);
                    }
                    if let Some(ig) = ig {
                        tb.push(is, ig, 0.0);
                    }
                }
                // Transient companion models: C_GS and C_GD quads.
                quad(&mut tb, ig, is);
                quad(&mut tb, ig, idd);
            }
        }
    }
    tb.build()
}

/// A per-circuit MNA linear system: the Jacobian storage plus the solver
/// that factors it and the Newton-update buffer it solves into. Built once
/// per circuit (symbolic analysis paid once) and reused across all Newton
/// iterations and stages.
pub(crate) enum MnaSystem {
    /// Legacy dense Jacobian, dense partial-pivoting LU each solve. The LU
    /// workspace and solution buffer persist across solves, so a dense
    /// Newton iteration allocates nothing.
    Dense {
        /// Dense Jacobian storage.
        jac: Matrix,
        /// Reused factorization workspace.
        lu: LuFactors,
        /// Solution of the latest solve.
        dx: Vec<f64>,
    },
    /// Fixed-pattern CSR Jacobian with KLU-style refactor/solve.
    Sparse {
        /// Sparse Jacobian storage (pattern fixed by [`mna_pattern`]).
        jac: CsrMatrix,
        /// The analyzed solver; `refactor` replays the recorded pivots.
        /// Boxed to keep the enum's variants comparably sized.
        lu: Box<SparseLu>,
        /// Solution of the latest solve.
        dx: Vec<f64>,
    },
}

impl MnaSystem {
    /// Chooses the backend for `circuit` per `kind` and (for the sparse
    /// backend) runs the one-time symbolic analysis. A structurally
    /// singular pattern — possible only for degenerate netlists — falls
    /// back to the dense backend rather than failing.
    pub fn for_circuit(circuit: &Circuit, kind: MnaSolverKind) -> MnaSystem {
        let n = circuit.unknowns();
        let want_sparse = match kind {
            MnaSolverKind::Dense => false,
            MnaSolverKind::Sparse => true,
            MnaSolverKind::Auto => n >= SPARSE_AUTO_MIN_UNKNOWNS,
        };
        if want_sparse {
            let pattern = mna_pattern(circuit);
            match SparseLu::analyze(&pattern) {
                Ok(lu) => {
                    telemetry::counter_inc("spice.sparselu.analyze");
                    return MnaSystem::Sparse {
                        jac: pattern,
                        lu: Box::new(lu),
                        dx: Vec::new(),
                    };
                }
                Err(_) => {
                    telemetry::counter_inc("spice.sparselu.analyze_fallbacks");
                }
            }
        }
        MnaSystem::Dense {
            jac: Matrix::zeros(n, n),
            lu: LuFactors::default(),
            dx: vec![0.0; n],
        }
    }

    /// The stamping destination for this system's Jacobian.
    pub fn sink(&mut self) -> &mut dyn MnaSink {
        match self {
            MnaSystem::Dense { jac, .. } => jac,
            MnaSystem::Sparse { jac, .. } => jac,
        }
    }

    /// Factors the currently stamped Jacobian and solves for `res`,
    /// returning the solution (valid until the next solve).
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix and dimension errors as
    /// [`SpiceError::Linear`].
    pub fn solve(&mut self, res: &[f64]) -> Result<&[f64], SpiceError> {
        match self {
            MnaSystem::Dense { jac, lu, dx } => {
                jac.solve_into(lu, res, dx)?;
                Ok(dx)
            }
            MnaSystem::Sparse { jac, lu, dx } => {
                match lu.refactor(jac)? {
                    Refactorization::Fresh => telemetry::counter_inc("spice.sparselu.factor"),
                    Refactorization::Reused => telemetry::counter_inc("spice.sparselu.refactor"),
                    Refactorization::PivotFallback => {
                        telemetry::counter_inc("spice.sparselu.factor_fallback");
                    }
                }
                *dx = lu.solve(res)?;
                Ok(dx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{NodeId, Waveform};
    use std::sync::Arc;

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(3.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: mid,
            ohms: 2e3,
        });
        c.add(Element::Resistor {
            a: mid,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        c
    }

    #[test]
    fn pattern_covers_every_stamped_slot() {
        // Stamp a full circuit (with FETs and caps) into the pattern CSR;
        // the `unreachable!` in `MnaSink::add` fires on any missing slot.
        let table = Arc::new(
            gnr_device::DeviceTable::from_samples(
                gnr_device::table::TableGrid {
                    vgs: (-0.2, 0.8),
                    vds: (0.0, 0.8),
                    points: 5,
                },
                gnr_device::Polarity::NType,
                |vg, vd| 1e-6 * (0.5 * vg + 0.1 * vd),
                |vg, _| 1e-18 * vg,
            )
            .expect("surrogate table"),
        );
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add(Element::VSource {
            p: vdd,
            n: NodeId::GROUND,
            wave: Waveform::Dc(0.6),
        });
        c.add(Element::VSource {
            p: inp,
            n: NodeId::GROUND,
            wave: Waveform::Dc(0.3),
        });
        c.add(Element::Fet {
            d: out,
            g: inp,
            s: NodeId::GROUND,
            table: table.clone(),
        });
        c.add(Element::Resistor {
            a: vdd,
            b: out,
            ohms: 1e5,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 1e-15,
        });
        let mut pat = mna_pattern(&c);
        let n = c.unknowns();
        let x = vec![0.1; n];
        let mut res = vec![0.0; n];
        c.stamp(&x, 0.0, 1e-9, None, &mut pat, &mut res);
        assert!(pat.values().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn pattern_is_square_and_value_independent() {
        let c = divider();
        let p1 = mna_pattern(&c);
        let p2 = mna_pattern(&c);
        assert_eq!(p1.rows(), c.unknowns());
        assert_eq!(p1.cols(), c.unknowns());
        assert!(p1.same_pattern(&p2));
    }

    #[test]
    fn sparse_and_dense_backends_agree() {
        let c = divider();
        let n = c.unknowns();
        let x = vec![0.0; n];
        let mut solutions = Vec::new();
        for kind in [MnaSolverKind::Dense, MnaSolverKind::Sparse] {
            let mut sys = MnaSystem::for_circuit(&c, kind);
            let mut res = vec![0.0; n];
            c.stamp(&x, 0.0, 1e-12, None, sys.sink(), &mut res);
            solutions.push(sys.solve(&res).expect("solves").to_vec());
        }
        for (a, b) in solutions[0].iter().zip(&solutions[1]) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn auto_is_dense_below_threshold() {
        let sys = MnaSystem::for_circuit(&divider(), MnaSolverKind::Auto);
        assert!(matches!(sys, MnaSystem::Dense { .. }));
    }

    #[test]
    fn residual_only_sink_reports_no_matrix() {
        assert!(!ResidualOnly.wants_matrix());
        let mut m = Matrix::zeros(2, 2);
        assert!(MnaSink::wants_matrix(&m));
        MnaSink::add(&mut m, 0, 0, 1.0);
        assert_eq!(m.get(0, 0), 1.0);
        MnaSink::clear(&mut m);
        assert_eq!(m.get(0, 0), 0.0);
    }
}
