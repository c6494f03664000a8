//! AC small-signal analysis.
//!
//! Linearizes the circuit at a DC operating point and solves the complex
//! nodal system `(G + jωC)·v = b` over a frequency sweep. `G` is the DC
//! Newton Jacobian (FET g_m/g_ds included); `C` collects the linear
//! capacitors and the bias-frozen device capacitances. Used to measure
//! inverter small-signal gain and bandwidth — the frequency-domain
//! counterpart of the transient figures of merit.

use crate::circuit::{Circuit, Element, NodeId};
use crate::dc::{dc_operating_point, DcOptions};
use crate::error::SpiceError;
use gnr_num::budget::ExecLimits;
use gnr_num::{c64, CMatrix, Complex64, Matrix};

/// One frequency point of an AC sweep: complex node phasors (per MNA
/// unknown) for a unit excitation.
#[derive(Clone, Debug)]
pub struct AcPoint {
    /// Frequency \[Hz\].
    pub frequency_hz: f64,
    /// Phasor solution (node voltages then source branch currents).
    pub phasors: Vec<Complex64>,
}

impl AcPoint {
    /// The complex voltage of `node` (0 for ground).
    pub fn voltage(&self, circuit: &Circuit, node: NodeId) -> Complex64 {
        match circuit.mna_index(node) {
            None => Complex64::ZERO,
            Some(i) => self.phasors[i],
        }
    }
}

/// Result of an AC sweep.
#[derive(Clone, Debug)]
pub struct AcSweep {
    /// Points, one per requested frequency.
    pub points: Vec<AcPoint>,
    /// The DC operating point the linearization used.
    pub operating_point: Vec<f64>,
}

impl AcSweep {
    /// Magnitude transfer `|V(out)| / |V(in)|` per frequency.
    pub fn gain(&self, circuit: &Circuit, input: NodeId, output: NodeId) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| {
                let vi = p.voltage(circuit, input).norm().max(1e-300);
                let vo = p.voltage(circuit, output).norm();
                (p.frequency_hz, vo / vi)
            })
            .collect()
    }

    /// The −3 dB bandwidth relative to the lowest-frequency gain, if the
    /// sweep crosses it.
    pub fn bandwidth_3db(&self, circuit: &Circuit, input: NodeId, output: NodeId) -> Option<f64> {
        let g = self.gain(circuit, input, output);
        let g0 = g.first()?.1;
        let target = g0 / 2f64.sqrt();
        for w in g.windows(2) {
            if w[0].1 >= target && w[1].1 < target {
                // Log-interpolate the crossing.
                let t = (w[0].1 - target) / (w[0].1 - w[1].1);
                return Some(w[0].0 * (w[1].0 / w[0].0).powf(t));
            }
        }
        None
    }
}

/// Runs an AC sweep: solves the DC operating point, linearizes, and
/// excites the `excited_source`-th voltage source with a unit AC amplitude
/// at each frequency in `freqs_hz`.
///
/// # Errors
///
/// Propagates DC and linear-solve failures; returns [`SpiceError::Config`]
/// for an invalid source index or empty frequency list.
pub fn ac_analysis(
    circuit: &Circuit,
    excited_source: usize,
    freqs_hz: &[f64],
    opts: DcOptions,
) -> Result<AcSweep, SpiceError> {
    if freqs_hz.is_empty() {
        return Err(SpiceError::config("ac sweep needs at least one frequency"));
    }
    if excited_source >= circuit.source_count() {
        return Err(SpiceError::config(format!(
            "no voltage source #{excited_source}"
        )));
    }
    let x0 = dc_operating_point(circuit, None, opts, &ExecLimits::none())?;
    let n = circuit.unknowns();
    // Small-signal conductance matrix: the DC Jacobian at x0.
    let mut g = Matrix::zeros(n, n);
    let mut res = vec![0.0; n];
    circuit.stamp(&x0, 0.0, 1e-12, None, &mut g, &mut res);
    // Capacitance matrix: linear caps + bias-frozen device caps.
    let c = capacitance_matrix(circuit, &x0);
    // Excitation vector: unit amplitude on the chosen source's branch row.
    let n_nodes = circuit.node_count() - 1;
    let mut rhs = vec![Complex64::ZERO; n];
    rhs[n_nodes + excited_source] = c64(1.0, 0.0);

    let mut points = Vec::with_capacity(freqs_hz.len());
    for &f in freqs_hz {
        let omega = 2.0 * std::f64::consts::PI * f;
        let y = CMatrix::from_fn(n, n, |i, j| c64(g.get(i, j), omega * c.get(i, j)));
        let phasors = y.solve(&rhs)?;
        points.push(AcPoint {
            frequency_hz: f,
            phasors,
        });
    }
    Ok(AcSweep {
        points,
        operating_point: x0,
    })
}

/// Assembles the small-signal capacitance matrix at the operating point.
fn capacitance_matrix(circuit: &Circuit, x0: &[f64]) -> Matrix {
    let n = circuit.unknowns();
    let mut c = Matrix::zeros(n, n);
    let mut stamp_pair = |a: NodeId, b: NodeId, cap: f64| {
        if cap <= 0.0 {
            return;
        }
        if let Some(ia) = circuit.mna_index(a) {
            c.add_to(ia, ia, cap);
            if let Some(ib) = circuit.mna_index(b) {
                c.add_to(ia, ib, -cap);
            }
        }
        if let Some(ib) = circuit.mna_index(b) {
            c.add_to(ib, ib, cap);
            if let Some(ia) = circuit.mna_index(a) {
                c.add_to(ib, ia, -cap);
            }
        }
    };
    for e in circuit.elements() {
        match e {
            Element::Capacitor { a, b, farads } => stamp_pair(*a, *b, *farads),
            Element::Fet { d, g, s, table } => {
                let vg = circuit.voltage(x0, *g);
                let vd = circuit.voltage(x0, *d);
                let vs = circuit.voltage(x0, *s);
                let (cgs, cgd) = table.caps_intrinsic(vg - vs, vd - vs);
                stamp_pair(*g, *s, cgs);
                stamp_pair(*g, *d, cgd);
            }
            _ => {}
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Waveform;

    /// RC low-pass: |H(f)| = 1/sqrt(1 + (2 pi f R C)^2).
    #[test]
    fn rc_lowpass_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let (r, cap) = (1e3, 1e-12); // pole at ~159 MHz... 1/(2 pi RC) = 159 MHz * 1e3 -> 159 MHz
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(0.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: r,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: cap,
        });
        let f_pole = 1.0 / (2.0 * std::f64::consts::PI * r * cap);
        let freqs: Vec<f64> = (0..7)
            .map(|k| f_pole * 10f64.powf(k as f64 / 2.0 - 1.5))
            .collect();
        let sweep = ac_analysis(&c, 0, &freqs, DcOptions::default()).unwrap();
        for p in &sweep.points {
            let h = p.voltage(&c, out).norm();
            let expect = 1.0 / (1.0 + (p.frequency_hz / f_pole).powi(2)).sqrt();
            assert!(
                (h - expect).abs() < 1e-9,
                "f={:.3e}: {h} vs {expect}",
                p.frequency_hz
            );
        }
        // Phase at the pole is -45 degrees.
        let at_pole = ac_analysis(&c, 0, &[f_pole], DcOptions::default()).unwrap();
        let phase = at_pole.points[0].voltage(&c, out).arg();
        assert!(
            (phase + std::f64::consts::FRAC_PI_4).abs() < 1e-6,
            "phase {phase}"
        );
        // Bandwidth extraction finds the pole.
        let bw = sweep.bandwidth_3db(&c, vin, out).unwrap();
        assert!(
            (bw / f_pole - 1.0).abs() < 0.2,
            "bw {bw:.3e} vs {f_pole:.3e}"
        );
    }

    /// A resistive divider is frequency-flat.
    #[test]
    fn resistive_divider_flat() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 3e3,
        });
        c.add(Element::Resistor {
            a: out,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        let freqs = [1e3, 1e6, 1e9, 1e12];
        let sweep = ac_analysis(&c, 0, &freqs, DcOptions::default()).unwrap();
        for p in &sweep.points {
            let h = p.voltage(&c, out).norm();
            assert!((h - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Element::VSource {
            p: a,
            n: NodeId::GROUND,
            wave: Waveform::Dc(0.0),
        });
        c.add(Element::Resistor {
            a,
            b: NodeId::GROUND,
            ohms: 1e3,
        });
        assert!(ac_analysis(&c, 0, &[], DcOptions::default()).is_err());
        assert!(ac_analysis(&c, 5, &[1e6], DcOptions::default()).is_err());
    }
}
