//! `circuit_decks`: deck-driven circuit simulation with every device table
//! bound in set-up — spice does almost all the work, on two shapes: large
//! sparse DC systems and long transients.
//!
//! Ops, each one analysis: every committed `decks/zoo` deck's cards plus
//! adder4's 256-vector warm-started DC sweep (one op per point) and the
//! SRAM hold SNM; every `decks/conformance` deck's DC operating point with
//! its `extern` models bound to the Fast nominal GNRFET tables; generated
//! NAND trees up to 1024 inputs (DC); generated surrogate rings of 31, 101
//! and 301 stages (DC, then `.tran`); and the 22 nm CMOS Table 1 row.
//! The seed draws the NAND tree inputs, the stage each ring transient
//! starts from and the adder's vector order; the deck sizes are fixed, so
//! the work is too. Set-up reads the committed decks and writes the
//! generated ones.
//!
//! The 101-stage ring's DC operating point is a known failure (the DC
//! rescue chain runs dry) and its transient inherits it; both count as
//! failed ops rather than being left out.

use crate::decks;
use crate::record::{Digest, Recorder};
use crate::Workload;
use gnr_cmos::CmosNode;
use gnr_device::TableStore;
use gnr_num::budget::ExecLimits;
use gnr_num::par::ExecCtx;
use gnr_num::rng::Rng;
use gnr_spice::builders::{ExtrinsicParasitics, InverterCell};
use gnr_spice::dc::set_source_value;
use gnr_spice::measure::{propagation_delay, sram_butterfly_snm};
use gnr_spice::netlist::AnalysisCard;
use gnr_spice::{
    dc_operating_point, parse_deck, transient, DcOptions, ElaboratedDeck, ModelBindings,
    TransientOptions,
};
use gnrfet_explore::devices::{DeviceLibrary, DeviceVariant, Fidelity};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const VDD: f64 = 0.8;

/// Golden hold SNM of `decks/zoo/sram6t.sp` \[V\].
const SRAM_GOLDEN_SNM_V: f64 = 0.29223744292237447;

/// Generated NAND tree sizes (inputs): from the largest tree of the
/// `circuit_zoo` ablation (32), doubling up to 1024.
const TREE_INPUTS: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// Generated ring sizes (stages). 31 and 301 solve; 101 stands for the
/// rings of 63 to 201 stages, whose DC operating point fails today.
const RINGS: [usize; 3] = [31, 101, 301];

/// Load on every ring stage node \[F\], within the 40–320 aF loads of the
/// committed clock chain decks.
const RING_CAP_F: f64 = 1e-16;

/// Ring transient `(dt, t_stop)`: the `.tran` card of the committed clock
/// chain decks, 400 steps of 5 ps.
const RING_TRAN: (f64, f64) = (5e-12, 2e-9);

/// A deck and where its models come from.
struct DeckInput {
    name: String,
    text: String,
    /// `extern` models bound to the GNRFET tables (conformance decks).
    gnrfet: bool,
    /// Root level a generated NAND tree must settle to.
    tree_root: Option<bool>,
    /// Ring node pulled to ground at the start of a transient.
    kick: Option<String>,
}

/// The workload's inputs: where the committed decks are, and what the
/// seed drew.
pub struct CircuitDecks {
    deck_root: PathBuf,
    /// Input levels of each generated NAND tree.
    tree_bits: Vec<Vec<bool>>,
    /// Stage count of each generated ring and the stage its transient
    /// starts from.
    ring_kicks: Vec<(usize, usize)>,
    adder_vectors: Vec<u32>,
    primed: PathBuf,
}

fn read_decks(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sp"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            std::fs::read_to_string(p)
                .map(|text| (name, text))
                .map_err(|e| format!("reading {}: {e}", p.display()))
        })
        .collect()
}

impl CircuitDecks {
    /// Inputs for `seed`: the committed decks under `deck_root` plus the
    /// generated ones, simulated against tables from the primed store.
    pub fn plan(seed: u64, deck_root: PathBuf, primed: PathBuf) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let tree_bits = TREE_INPUTS
            .iter()
            .map(|&inputs| (0..inputs).map(|_| rng.below(2) == 1).collect())
            .collect();
        let ring_kicks = RINGS.iter().map(|&n| (n, rng.below(n))).collect();
        let mut adder_vectors: Vec<u32> = (0..256).collect();
        rng.shuffle(&mut adder_vectors);
        CircuitDecks {
            deck_root,
            tree_bits,
            ring_kicks,
            adder_vectors,
            primed,
        }
    }

    /// The committed decks, read from disk, and the generated ones.
    fn decks(&self) -> Result<Vec<DeckInput>, String> {
        let mut decks = Vec::new();
        for (dir, gnrfet) in [("zoo", false), ("conformance", true)] {
            for (name, text) in read_decks(&self.deck_root.join(dir))? {
                decks.push(DeckInput {
                    name: format!("{dir}/{name}"),
                    text,
                    gnrfet,
                    tree_root: None,
                    kick: None,
                });
            }
        }
        for bits in &self.tree_bits {
            let (text, root) = decks::nand_tree(bits);
            decks.push(DeckInput {
                name: format!("gen/nand_tree{}", bits.len()),
                text,
                gnrfet: false,
                tree_root: Some(root),
                kick: None,
            });
        }
        for &(stages, kick) in &self.ring_kicks {
            decks.push(DeckInput {
                name: format!("gen/ring{stages}"),
                text: decks::surrogate_ring(stages, RING_CAP_F, Some(RING_TRAN)),
                gnrfet: false,
                tree_root: None,
                kick: Some(format!("n{kick}")),
            });
        }
        Ok(decks)
    }
}

/// Per-pass state: the decks, the pool and the GNRFET model bindings.
pub struct State {
    decks: Vec<DeckInput>,
    ctx: ExecCtx,
    gnrfet: ModelBindings,
}

/// Everything a pass computed, plus the mismatches found on the way.
#[derive(Default)]
pub struct Output {
    values: Vec<(String, Result<Vec<f64>, String>)>,
    mismatches: Vec<String>,
}

impl Output {
    fn push(&mut self, what: String, r: Result<Vec<f64>, String>) {
        self.values.push((what, r));
    }
}

impl Workload for CircuitDecks {
    type State = State;
    type Output = Output;
    const PASS_S: f64 = 5.0;

    fn setup(&self, threads: usize, rec: &mut Recorder<'_>) -> Result<State, String> {
        let decks = self.decks()?;
        let ctx = ExecCtx::with_threads(threads);
        let store = Arc::new(TableStore::on_disk(&self.primed));
        let mut lib = DeviceLibrary::with_store(Fidelity::Fast, store);
        let raw = rec
            .span("device.store.load_s", || {
                lib.ntype_table(&ctx, DeviceVariant::nominal())
            })
            .map_err(|e| format!("loading the nominal table: {e}"))?;
        // Place the minimum-leakage point at V_GS = 0 for V_DD, as the
        // library does, but from the table itself: no model build needed.
        let vg_min = (0..=240)
            .map(|i| -0.2 + i as f64 * 0.005)
            .min_by(|a, b| raw.current(*a, VDD).total_cmp(&raw.current(*b, VDD)))
            .unwrap_or(0.0);
        let n = raw.with_vg_shift(-vg_min);
        let cell = InverterCell::new(&n, &n.mirrored(), &ExtrinsicParasitics::nominal())
            .map_err(|e| format!("binding the GNRFET cell: {e}"))?;
        let gnrfet = ModelBindings::new()
            .bind("mdl0", cell.nfet)
            .bind("mdl1", cell.pfet);
        Ok(State { decks, ctx, gnrfet })
    }

    fn run(&self, state: State, rec: &mut Recorder<'_>) -> Output {
        let State { decks, ctx, gnrfet } = state;
        let surrogate = ModelBindings::new();
        let mut out = Output::default();
        let mut clock_delays = Vec::new();
        for deck in &decks {
            let bindings = if deck.gnrfet { &gnrfet } else { &surrogate };
            let elab = rec.span("spice.netlist.busy_s", || {
                parse_deck(&deck.text).and_then(|d| d.elaborate(bindings))
            });
            let elab = match elab {
                Ok(e) => e,
                Err(e) => {
                    let msg = format!("{}: {e}", deck.name);
                    rec.failed_op(msg.clone());
                    out.push(deck.name.clone(), Err(msg));
                    continue;
                }
            };
            let mut analyses = elab.analyses.clone();
            if analyses.is_empty() {
                analyses.push(AnalysisCard::Op);
            }
            for card in &analyses {
                match card {
                    AnalysisCard::Op => {
                        let x = rec.op("spice.dc.busy_s", || {
                            dc_operating_point(
                                &elab.circuit,
                                None,
                                DcOptions::default(),
                                &ExecLimits::none(),
                            )
                            .map_err(|e| format!("{} op: {e}", deck.name))
                        });
                        if let (Ok(x), Some(root)) = (&x, deck.tree_root) {
                            let v = elab.node("out").map(|n| elab.circuit.voltage(x, n));
                            let ok =
                                v.is_some_and(|v| if root { v > 0.9 * VDD } else { v < 0.1 * VDD });
                            if !ok {
                                out.mismatches
                                    .push(format!("{}: root at {v:?}, want {root}", deck.name));
                            }
                        }
                        out.push(format!("{} op", deck.name), x);
                    }
                    AnalysisCard::Tran { dt, t_stop } => {
                        let kick = deck.kick.as_deref().and_then(|k| elab.node(k));
                        let kick = kick.map(|n| vec![(n, 0.0)]).unwrap_or_default();
                        let opts = TransientOptions::new(*t_stop, *dt).with_initial_voltages(kick);
                        let r = rec.op("spice.transient.busy_s", || {
                            transient(&ctx, &elab.circuit, &opts)
                                .map_err(|e| format!("{} tran: {e}", deck.name))
                        });
                        let probe = elab.node("out").or_else(|| elab.node("n0"));
                        if let (Ok((result, _)), true) = (&r, deck.name.starts_with("zoo/clock")) {
                            let delay = rec.span("spice.measure.busy_s", || {
                                let vin = result.voltage(&elab.circuit, elab.node("in")?);
                                let vout = result.voltage(&elab.circuit, elab.node("out")?);
                                propagation_delay(
                                    result.times(),
                                    &vin,
                                    &vout,
                                    VDD / 2.0,
                                    true,
                                    true,
                                )
                            });
                            clock_delays.push((deck.name.clone(), delay));
                        }
                        let wave = r.map(|(result, _)| {
                            probe.map_or_else(Vec::new, |p| result.voltage(&elab.circuit, p))
                        });
                        out.push(format!("{} tran", deck.name), wave);
                    }
                    other => {
                        let msg = format!("{}: unsupported analysis {other:?}", deck.name);
                        rec.failed_op(msg.clone());
                        out.push(deck.name.clone(), Err(msg));
                    }
                }
            }
            match deck.name.as_str() {
                "zoo/adder4" => self.adder_sweep(&elab, rec, &mut out),
                "zoo/sram6t" => sram_snm(&elab, rec, &mut out),
                _ => {}
            }
        }
        let row = rec.op("cmos.busy_s", || {
            gnrfet_explore::comparison::cmos_row(CmosNode::N22, VDD, 15)
        });
        if let Ok(r) = &row {
            if !(r.frequency_hz.is_finite() && r.frequency_hz > 0.0) {
                out.mismatches
                    .push(format!("cmos row frequency {}", r.frequency_hz));
            }
        }
        out.push(
            "cmos_row N22".into(),
            row.map(|r| vec![r.frequency_hz, r.edp_js, r.snm_v]),
        );
        // Delay grows with the clock chain's fanout taper (f2 < f3 < f4).
        let delays: Vec<Option<f64>> = clock_delays.iter().map(|(_, d)| *d).collect();
        let monotone = delays
            .windows(2)
            .all(|w| matches!(w, [Some(a), Some(b)] if a < b));
        if delays.len() != 3 || !monotone {
            out.mismatches.push(format!(
                "clock chain delays not increasing: {clock_delays:?}"
            ));
        }
        out
    }

    fn verify(&self, out: Output) -> Result<u64, String> {
        if let Some(m) = out.mismatches.first() {
            return Err(m.clone());
        }
        let mut digest = Digest::default();
        for (what, r) in &out.values {
            digest.add(what);
            match r {
                Ok(v) => digest.add_f64s(v),
                Err(e) => digest.add(&format!("error: {e}")),
            }
        }
        Ok(digest.value())
    }
}

impl CircuitDecks {
    /// adder4 over all 256 input vectors in the seeded order, each DC point
    /// warm-started from the previous solution, checked bit by bit.
    fn adder_sweep(&self, elab: &ElaboratedDeck, rec: &mut Recorder<'_>, out: &mut Output) {
        let mut circuit = elab.circuit.clone();
        let source = |bus: &str, i: usize| elab.source_index(&format!("v{bus}{i}"));
        let sources: Option<Vec<(usize, usize)>> = (0..4)
            .map(|i| Some((source("a", i)?, source("b", i)?)))
            .collect();
        let outs: Option<Vec<_>> = ["s0", "s1", "s2", "s3", "cout"]
            .iter()
            .map(|n| elab.node(n))
            .collect();
        let (Some(sources), Some(outs)) = (sources, outs) else {
            out.mismatches
                .push("adder4: missing input sources or outputs".into());
            return;
        };
        let mut warm: Option<Vec<f64>> = None;
        for &vector in &self.adder_vectors {
            let (a, b) = (vector >> 4, vector & 15);
            for (i, &(sa, sb)) in sources.iter().enumerate() {
                let level = |word: u32| if word >> i & 1 == 1 { VDD } else { 0.0 };
                if let Err(e) = set_source_value(&mut circuit, sa, level(a))
                    .and_then(|()| set_source_value(&mut circuit, sb, level(b)))
                {
                    out.mismatches.push(format!("adder4: setting inputs: {e}"));
                    return;
                }
            }
            let x = rec.op("spice.dc.busy_s", || {
                dc_operating_point(
                    &circuit,
                    warm.as_deref(),
                    DcOptions::default(),
                    &ExecLimits::none(),
                )
            });
            if let Ok(x) = &x {
                let sum = a + b;
                for (bit, &node) in outs.iter().enumerate() {
                    let v = circuit.voltage(x, node);
                    let want = sum >> bit & 1 == 1;
                    let solid = if want { v > 0.9 * VDD } else { v < 0.1 * VDD };
                    if !solid {
                        out.mismatches.push(format!(
                            "adder4 a={a} b={b} bit {bit}: {v:.4} V, want {want}"
                        ));
                    }
                }
                warm = Some(x.clone());
            } else {
                out.mismatches
                    .push(format!("adder4 a={a} b={b}: no DC solution"));
            }
            out.push(format!("adder4 a={a} b={b}"), x);
        }
    }
}

/// The 6T cell's hold-state butterfly SNM against its golden value.
fn sram_snm(elab: &ElaboratedDeck, rec: &mut Recorder<'_>, out: &mut Output) {
    let (Some(q), Some(qb)) = (elab.node("q"), elab.node("qb")) else {
        out.mismatches.push("sram6t: missing q/qb".into());
        return;
    };
    let snm = rec.op("spice.measure.busy_s", || {
        sram_butterfly_snm(&elab.circuit, q, qb, VDD, 41).map(|m| m.snm())
    });
    match &snm {
        Ok(v) if (v - SRAM_GOLDEN_SNM_V).abs() < 1e-9 => {}
        other => out.mismatches.push(format!(
            "sram6t hold SNM {other:?}, golden {SRAM_GOLDEN_SNM_V:.17} V"
        )),
    }
    out.push("sram6t snm".into(), snm.map(|v| vec![v]));
}
