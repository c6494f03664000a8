//! Netlist representation and MNA stamping.
//!
//! Nodes are interned by name; node `"0"`/`"gnd"` is ground. Unknowns are
//! the non-ground node voltages plus one branch current per voltage source
//! (modified nodal analysis). [`Circuit::stamp`] assembles the Jacobian and
//! KCL residual at a trial solution, which both the DC and transient
//! engines drive with Newton's method.

use crate::error::SpiceError;
use crate::mna::MnaSink;
use gnr_device::DeviceTable;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a circuit node; ground is `NodeId(0)`.
#[derive(Clone, Copy, Debug, Eq, Hash, Ord, PartialEq, PartialOrd)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);
}

/// Time-dependent source value.
#[derive(Clone, Debug, PartialEq)]
pub enum Waveform {
    /// Constant value \[V\].
    Dc(f64),
    /// Periodic trapezoidal pulse.
    Pulse {
        /// Low level \[V\].
        low: f64,
        /// High level \[V\].
        high: f64,
        /// Delay before the first rising edge \[s\].
        delay: f64,
        /// Rise time \[s\].
        rise: f64,
        /// Fall time \[s\].
        fall: f64,
        /// High-level width \[s\].
        width: f64,
        /// Full period \[s\].
        period: f64,
    },
}

impl Waveform {
    /// Value at time `t` \[V\].
    pub fn value(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(v) => v,
            Waveform::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < delay {
                    return low;
                }
                let tau = (t - delay) % period;
                if tau < rise {
                    low + (high - low) * tau / rise
                } else if tau < rise + width {
                    high
                } else if tau < rise + width + fall {
                    high - (high - low) * (tau - rise - width) / fall
                } else {
                    low
                }
            }
        }
    }
}

/// A circuit element.
#[derive(Clone, Debug)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance \[Ω\].
        ohms: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance \[F\].
        farads: f64,
    },
    /// Independent voltage source from `p` (positive) to `n`.
    VSource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        wave: Waveform,
    },
    /// Independent current source driving a fixed current from `p` to
    /// `n` through itself (SPICE convention: positive current flows
    /// through the source from `p` to `n`, i.e. it leaves node `p`).
    ISource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform (value in amperes).
        wave: Waveform,
    },
    /// A table-lookup FET (drain, gate, source); the gate is capacitive
    /// only, with the bias-dependent intrinsic C_GS/C_GD handled by the
    /// transient engine.
    Fet {
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Lookup-table device model.
        table: Arc<DeviceTable>,
    },
}

/// Callback that stamps a capacitor companion model into the MNA system
/// (element index in [`Circuit::elements`], element, trial solution,
/// Jacobian sink, residual). The index lets the transient engine keep its
/// per-element companion state in flat vectors.
pub(crate) type CapStamp<'a> =
    &'a mut dyn FnMut(usize, &Element, &[f64], &mut dyn MnaSink, &mut Vec<f64>);

/// A flat netlist plus node interning.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    names: HashMap<String, NodeId>,
    node_count: usize,
    elements: Vec<Element>,
}

impl Circuit {
    /// Creates an empty circuit (ground pre-interned).
    pub fn new() -> Self {
        let mut names = HashMap::new();
        names.insert("0".to_string(), NodeId::GROUND);
        names.insert("gnd".to_string(), NodeId::GROUND);
        Circuit {
            names,
            node_count: 1,
            elements: Vec::new(),
        }
    }

    /// Interns (or retrieves) a node by name.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = NodeId(self.node_count);
        self.node_count += 1;
        self.names.insert(name.to_string(), id);
        id
    }

    /// Creates a fresh anonymous node.
    pub fn fresh_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Canonical name of a node, if it has one (`"0"` for ground; nodes
    /// created via [`Circuit::fresh_node`] are anonymous). A node with
    /// several aliases reports the lexicographically smallest, which keeps
    /// the result deterministic regardless of hash-map iteration order.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.names
            .iter()
            .filter(|(_, &id)| id == node)
            .map(|(name, _)| name.as_str())
            .min()
    }

    /// Canonical names for every node in index order (`None` entries are
    /// anonymous nodes from [`Circuit::fresh_node`]).
    pub fn node_names(&self) -> Vec<Option<&str>> {
        let mut out: Vec<Option<&str>> = vec![None; self.node_count];
        for (name, &NodeId(i)) in &self.names {
            match out[i] {
                Some(existing) if existing <= name.as_str() => {}
                _ => out[i] = Some(name.as_str()),
            }
        }
        out
    }

    /// Adds an element.
    pub fn add(&mut self, e: Element) {
        self.elements.push(e);
    }

    /// All elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access to the elements (crate-internal; used by the sweep
    /// engines to retarget source values).
    pub(crate) fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Number of voltage sources (each owns one MNA branch unknown).
    pub fn source_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. }))
            .count()
    }

    /// Size of the MNA unknown vector: non-ground nodes + source branches.
    pub fn unknowns(&self) -> usize {
        (self.node_count - 1) + self.source_count()
    }

    /// Maps a node to its row/column in the MNA system (`None` = ground).
    pub fn mna_index(&self, node: NodeId) -> Option<usize> {
        if node == NodeId::GROUND {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    /// Validates the netlist: every non-ground node must be touched by at
    /// least one element, and element values must be physical.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Config`] describing the first problem found.
    pub fn validate(&self) -> Result<(), SpiceError> {
        let mut touched = vec![false; self.node_count];
        touched[0] = true;
        for e in &self.elements {
            match e {
                Element::Resistor { a, b, ohms } => {
                    if ohms.is_nan() || *ohms <= 0.0 {
                        return Err(SpiceError::config("resistor must have R > 0"));
                    }
                    touched[a.0] = true;
                    touched[b.0] = true;
                }
                Element::Capacitor { a, b, farads } => {
                    if farads.is_nan() || *farads < 0.0 {
                        return Err(SpiceError::config("capacitor must have C >= 0"));
                    }
                    touched[a.0] = true;
                    touched[b.0] = true;
                }
                Element::VSource { p, n, .. } => {
                    touched[p.0] = true;
                    touched[n.0] = true;
                }
                Element::ISource { p, n, wave } => {
                    if let Waveform::Dc(v) = wave {
                        if v.is_nan() {
                            return Err(SpiceError::config("current source value is NaN"));
                        }
                    }
                    touched[p.0] = true;
                    touched[n.0] = true;
                }
                Element::Fet { d, g, s, .. } => {
                    touched[d.0] = true;
                    touched[g.0] = true;
                    touched[s.0] = true;
                }
            }
        }
        if let Some(idx) = touched.iter().position(|&t| !t) {
            return Err(SpiceError::config(format!("node {idx} is floating")));
        }
        Ok(())
    }

    /// Assembles the MNA Jacobian and residual at trial solution `x`
    /// (node voltages then source branch currents) and time `t`.
    ///
    /// The residual convention is `f(x) = 0` with `f[node] = Σ currents
    /// leaving the node`. Capacitors are stamped by the caller-provided
    /// `cap_stamp` (empty in DC, companion model in transient); `gmin` adds
    /// a small conductance to ground at every node for convergence aid.
    ///
    /// The Jacobian goes through the [`MnaSink`] abstraction (dense
    /// matrix, fixed-pattern sparse matrix, or residual-only); residual
    /// values are identical across sinks, and Jacobian-only device
    /// `gm`/`gds` lookups are skipped when the sink discards matrix
    /// entries.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stamp(
        &self,
        x: &[f64],
        t: f64,
        gmin: f64,
        mut cap_stamp: Option<CapStamp<'_>>,
        jac: &mut dyn MnaSink,
        res: &mut Vec<f64>,
    ) {
        let n_nodes = self.node_count - 1;
        debug_assert_eq!(x.len(), self.unknowns());
        let volt = |node: NodeId, x: &[f64]| -> f64 {
            match self.mna_index(node) {
                None => 0.0,
                Some(i) => x[i],
            }
        };
        // Reset.
        for v in res.iter_mut() {
            *v = 0.0;
        }
        jac.clear();
        // gmin to ground on every node.
        for i in 0..n_nodes {
            jac.add(i, i, gmin);
            res[i] += gmin * x[i];
        }
        let mut src_idx = 0usize;
        for (idx, e) in self.elements.iter().enumerate() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let (va, vb) = (volt(*a, x), volt(*b, x));
                    let i_ab = g * (va - vb);
                    if let Some(ia) = self.mna_index(*a) {
                        res[ia] += i_ab;
                        jac.add(ia, ia, g);
                        if let Some(ib) = self.mna_index(*b) {
                            jac.add(ia, ib, -g);
                        }
                    }
                    if let Some(ib) = self.mna_index(*b) {
                        res[ib] -= i_ab;
                        jac.add(ib, ib, g);
                        if let Some(ia) = self.mna_index(*a) {
                            jac.add(ib, ia, -g);
                        }
                    }
                }
                Element::Capacitor { .. } => {
                    if let Some(f) = cap_stamp.as_deref_mut() {
                        f(idx, e, x, &mut *jac, res);
                    }
                }
                Element::VSource { p, n, wave } => {
                    let row = n_nodes + src_idx;
                    let v_target = wave.value(t);
                    // Branch equation: V(p) - V(n) - v_target = 0.
                    res[row] = volt(*p, x) - volt(*n, x) - v_target;
                    if let Some(ip) = self.mna_index(*p) {
                        jac.add(row, ip, 1.0);
                        // Branch current flows out of p into the source.
                        res[ip] += x[row];
                        jac.add(ip, row, 1.0);
                    }
                    if let Some(in_) = self.mna_index(*n) {
                        jac.add(row, in_, -1.0);
                        res[in_] -= x[row];
                        jac.add(in_, row, -1.0);
                    }
                    src_idx += 1;
                }
                Element::ISource { p, n, wave } => {
                    // A known current leaving node p and entering node n;
                    // contributes to the residual only (no Jacobian terms,
                    // no branch unknown).
                    let i = wave.value(t);
                    if let Some(ip) = self.mna_index(*p) {
                        res[ip] += i;
                    }
                    if let Some(in_) = self.mna_index(*n) {
                        res[in_] -= i;
                    }
                }
                Element::Fet { d, g, s, table } => {
                    let (vd, vg, vs) = (volt(*d, x), volt(*g, x), volt(*s, x));
                    let vgs = vg - vs;
                    let vds = vd - vs;
                    // The gm/gds derivatives only feed the Jacobian:
                    // residual-only sinks look up the current alone, full
                    // stamps take all three from one table-cell search.
                    let (id, conductances) = if jac.wants_matrix() {
                        let (id, gm, gds) = table.iv_eval(vgs, vds);
                        (id, Some((gm, gds)))
                    } else {
                        (table.current(vgs, vds), None)
                    };
                    // Current into drain = id; out of source = id.
                    if let Some(idd) = self.mna_index(*d) {
                        res[idd] += id;
                    }
                    if let Some(is) = self.mna_index(*s) {
                        res[is] -= id;
                    }
                    if let Some((gm, gds)) = conductances {
                        if let Some(idd) = self.mna_index(*d) {
                            jac.add(idd, idd, gds);
                            if let Some(ig) = self.mna_index(*g) {
                                jac.add(idd, ig, gm);
                            }
                            if let Some(is) = self.mna_index(*s) {
                                jac.add(idd, is, -(gm + gds));
                            }
                        }
                        if let Some(is) = self.mna_index(*s) {
                            jac.add(is, is, gm + gds);
                            if let Some(idd) = self.mna_index(*d) {
                                jac.add(is, idd, -gds);
                            }
                            if let Some(ig) = self.mna_index(*g) {
                                jac.add(is, ig, -gm);
                            }
                        }
                    }
                    // The FET's capacitive gate current is handled by the
                    // transient companion models, not here.
                    if let Some(f) = cap_stamp.as_deref_mut() {
                        f(idx, e, x, &mut *jac, res);
                    }
                }
            }
        }
    }

    /// Branch current of the `k`-th voltage source in a solved MNA vector.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the source count or `x` is too short.
    pub fn source_current(&self, x: &[f64], k: usize) -> f64 {
        assert!(k < self.source_count(), "source index out of range");
        x[(self.node_count - 1) + k]
    }

    /// Voltage of `node` in a solved MNA vector (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the unknown count.
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.mna_index(node) {
            None => 0.0,
            Some(i) => x[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("out");
        let b = c.node("out");
        assert_eq!(a, b);
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert_eq!(c.node("0"), NodeId::GROUND);
        let f = c.fresh_node();
        assert_ne!(f, a);
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn waveform_pulse_shape() {
        let w = Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 4e-10,
            period: 1e-9,
        };
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(1e-9 + 5e-11) - 0.5).abs() < 1e-9);
        assert_eq!(w.value(1e-9 + 3e-10), 1.0);
        assert!(w.value(1e-9 + 5.5e-10) < 1.0);
        assert_eq!(w.value(1e-9 + 8e-10), 0.0);
        // Periodicity.
        assert!((w.value(1e-9 + 3e-10) - w.value(2e-9 + 3e-10)).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_floating_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _b = c.node("b"); // floating
        c.add(Element::Resistor {
            a,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        assert!(matches!(c.validate(), Err(SpiceError::Config { .. })));
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Element::Resistor {
            a,
            b: NodeId::GROUND,
            ohms: 0.0,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn unknown_count_includes_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Element::VSource {
            p: a,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        c.add(Element::Resistor { a, b, ohms: 1e3 });
        c.add(Element::Resistor {
            a: b,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        assert_eq!(c.unknowns(), 3); // 2 nodes + 1 branch
        assert_eq!(c.source_count(), 1);
    }
}
