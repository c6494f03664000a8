//! Parser robustness suite: seeded-random emit/reparse round-trips, a
//! malformed-deck corpus with typed error and line assertions, and the
//! SPICE scale-suffix goldens. The parser must never panic on bad input —
//! every failure is a `ParseError` with a meaningful position.

use gnrlab::device::table::TableGrid;
use gnrlab::device::{DeviceTable, Polarity};
use gnrlab::num::rng::Rng;
use gnrlab::spice::netlist::emit_deck;
use gnrlab::spice::{parse_deck, Circuit, Element, NodeId, ParseErrorKind, Waveform};
use std::sync::Arc;

/// Seeded-random circuits survive an emit → parse → elaborate round trip
/// with a Debug-identical element list and node table.
#[test]
fn random_circuits_roundtrip_bitwise() {
    let grid = TableGrid {
        vgs: (-0.3, 0.9),
        vds: (0.0, 0.9),
        points: 5,
    };
    let table = Arc::new(
        DeviceTable::from_samples(
            grid,
            Polarity::NType,
            |vg, vd| 1e-5 * (vg - 0.2).max(0.0) * vd.tanh(),
            |vg, _| 1e-16 * vg,
        )
        .expect("table"),
    );
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0xDECC + seed);
        let mut circuit = Circuit::new();
        let n_nodes = 3 + rng.below(5);
        let nodes: Vec<NodeId> = (0..n_nodes)
            .map(|i| circuit.node(&format!("n{i}")))
            .collect();
        let pick = |rng: &mut Rng| {
            if rng.below(5) == 0 {
                NodeId::GROUND
            } else {
                nodes[rng.below(n_nodes)]
            }
        };
        for _ in 0..12 {
            let e = match rng.below(5) {
                0 => Element::Resistor {
                    a: pick(&mut rng),
                    b: pick(&mut rng),
                    ohms: rng.uniform_in(1.0, 1e6),
                },
                1 => Element::Capacitor {
                    a: pick(&mut rng),
                    b: pick(&mut rng),
                    farads: rng.uniform_in(1e-18, 1e-12),
                },
                2 => {
                    let wave = if rng.below(2) == 0 {
                        Waveform::Dc(rng.uniform_in(-1.0, 1.0))
                    } else {
                        Waveform::Pulse {
                            low: rng.uniform_in(-0.2, 0.2),
                            high: rng.uniform_in(0.4, 1.0),
                            delay: rng.uniform_in(0.0, 1e-9),
                            rise: rng.uniform_in(1e-12, 1e-10),
                            fall: rng.uniform_in(1e-12, 1e-10),
                            width: rng.uniform_in(1e-10, 1e-9),
                            period: rng.uniform_in(2e-9, 4e-9),
                        }
                    };
                    Element::VSource {
                        p: pick(&mut rng),
                        n: pick(&mut rng),
                        wave,
                    }
                }
                3 => Element::ISource {
                    p: pick(&mut rng),
                    n: pick(&mut rng),
                    wave: Waveform::Dc(rng.uniform_in(-1e-5, 1e-5)),
                },
                _ => Element::Fet {
                    d: pick(&mut rng),
                    g: pick(&mut rng),
                    s: pick(&mut rng),
                    table: Arc::clone(&table),
                },
            };
            circuit.add(e);
        }
        let emitted =
            emit_deck(&circuit, &format!("random deck seed {seed}")).expect("emit random circuit");
        let deck = parse_deck(&emitted.text).expect("reparse emitted deck");
        let elab = deck
            .elaborate(&emitted.bindings())
            .expect("elaborate emitted deck");
        assert_eq!(
            circuit.node_count(),
            elab.circuit.node_count(),
            "seed {seed}: node count"
        );
        assert_eq!(
            format!("{:?}", circuit.elements()),
            format!("{:?}", elab.circuit.elements()),
            "seed {seed}: element list drifted through the round trip"
        );
    }
}

/// Malformed decks produce the right typed error at the right line —
/// and never panic.
#[test]
fn malformed_corpus_yields_typed_errors() {
    let cases: &[(&str, ParseErrorKind, usize)] = &[
        // Unclosed subcircuit definition.
        (
            "* t\n.subckt inv a b\nr1 a b 1k\n.end\n",
            ParseErrorKind::UnclosedSubckt,
            2,
        ),
        // Duplicate alias target.
        (
            "* t\n.alias vss 0\n.alias vss gnd\nr1 vss 0 1k\n.end\n",
            ParseErrorKind::DuplicateAlias,
            3,
        ),
        // Unknown model on an instance (elaboration-time, pinned to the
        // instance line).
        (
            "* t\nv1 d 0 dc 0.5\nm1 d d 0 mystery\n.end\n",
            ParseErrorKind::UnknownModel,
            3,
        ),
        // Bad scale suffix.
        ("* t\nr1 a 0 3k3\n.end\n", ParseErrorKind::BadNumber, 2),
        // Trailing garbage after a complete element.
        ("* t\nr1 a 0 1k extra\n.end\n", ParseErrorKind::Syntax, 2),
        // Unknown element letter.
        (
            "* t\nq1 a b c 1k\n.end\n",
            ParseErrorKind::UnknownElement,
            2,
        ),
        // Unknown directive.
        (
            "* t\n.noise v(out) 1k\n.end\n",
            ParseErrorKind::UnknownDirective,
            2,
        ),
        // Duplicate subcircuit definition.
        (
            "* t\n.subckt i a\nr1 a 0 1\n.ends\n.subckt i a\nr1 a 0 1\n.ends\n.end\n",
            ParseErrorKind::DuplicateSubckt,
            5,
        ),
        // Instance of an undefined subcircuit.
        (
            "* t\nx1 a b nosuch\n.end\n",
            ParseErrorKind::UnknownSubckt,
            2,
        ),
        // Surrogate model cards whose bias grid has an infinite bound:
        // elaboration rejects the grid instead of building a NaN table
        // (the error pins the model card).
        (
            "* t\n.model sn surrogate vds1=1e999\nv1 d 0 dc 0.5\nm1 d d 0 sn\n.end\n",
            ParseErrorKind::BadModel,
            2,
        ),
        (
            "* t\n.model sn surrogate vgs0=-1e999\nv1 d 0 dc 0.5\nm1 d d 0 sn\n.end\n",
            ParseErrorKind::BadModel,
            2,
        ),
        // Surrogate `points` cards that are not an integer in [3, 201]:
        // rejected instead of truncated or allocated.
        (
            "* t\n.model sn surrogate points=3.9\nv1 d 0 dc 0.5\nm1 d d 0 sn\n.end\n",
            ParseErrorKind::BadModel,
            2,
        ),
        (
            "* t\n.model sn surrogate points=-4\nv1 d 0 dc 0.5\nm1 d d 0 sn\n.end\n",
            ParseErrorKind::BadModel,
            2,
        ),
        (
            "* t\n.model sn surrogate points=100000\nv1 d 0 dc 0.5\nm1 d d 0 sn\n.end\n",
            ParseErrorKind::BadModel,
            2,
        ),
        (
            "* t\n.model sn surrogate points=1e30\nv1 d 0 dc 0.5\nm1 d d 0 sn\n.end\n",
            ParseErrorKind::BadModel,
            2,
        ),
        // `.ac` points/decade that is not an integer >= 1: rejected
        // instead of truncated (2.9 used to sweep 2 points/decade).
        (
            "* t\nv1 a 0 dc 1\nr1 a 0 1k\n.ac dec 2.9 1e3 1e4\n.end\n",
            ParseErrorKind::BadNumber,
            4,
        ),
        (
            "* t\nv1 a 0 dc 1\nr1 a 0 1k\n.ac dec 0 1e3 1e4\n.end\n",
            ParseErrorKind::BadNumber,
            4,
        ),
        // Self-recursive subcircuit: the error pins the instance card
        // inside the definition where expansion bottomed out.
        (
            "* t\n.subckt loop a\nx1 a loop\n.ends\nx0 n1 loop\n.end\n",
            ParseErrorKind::RecursiveSubckt,
            3,
        ),
    ];
    for (text, kind, line) in cases {
        let outcome = std::panic::catch_unwind(|| match parse_deck(text) {
            Ok(deck) => deck
                .elaborate(&gnrlab::spice::ModelBindings::new())
                .map(|_| ()),
            Err(e) => Err(e),
        });
        let result = outcome.unwrap_or_else(|_| panic!("parser panicked on: {text:?}"));
        let err = result.expect_err("malformed deck must not elaborate");
        assert_eq!(err.kind, *kind, "kind for deck {text:?} (got {err})");
        assert_eq!(err.line, *line, "line for deck {text:?} (got {err})");
    }
}

/// Scale suffixes and unit words resolve to the documented multipliers.
#[test]
fn scale_suffix_goldens() {
    let deck = "* suffixes\n\
                r1 a 0 10u\n\
                r2 a 0 47k\n\
                r3 a 0 2meg\n\
                c1 a 0 3n\n\
                c2 a 0 120p\n\
                c3 a 0 2.5fF\n\
                v1 a 0 dc 800mV\n\
                i1 a 0 dc 5uA\n\
                .end\n";
    let parsed = parse_deck(deck).expect("suffix deck");
    let elab = parsed
        .elaborate(&gnrlab::spice::ModelBindings::new())
        .expect("suffix elaborate");
    let close = |got: f64, want: f64, what: &str| {
        assert!(
            (got / want - 1.0).abs() < 1e-15,
            "{what}: got {got:?}, want {want:?}"
        );
    };
    let mut r = Vec::new();
    let mut c = Vec::new();
    let mut vi = Vec::new();
    for e in elab.circuit.elements() {
        match e {
            Element::Resistor { ohms, .. } => r.push(*ohms),
            Element::Capacitor { farads, .. } => c.push(*farads),
            Element::VSource {
                wave: Waveform::Dc(v),
                ..
            } => vi.push(*v),
            Element::ISource {
                wave: Waveform::Dc(v),
                ..
            } => vi.push(*v),
            _ => {}
        }
    }
    close(r[0], 1e-5, "10u");
    close(r[1], 4.7e4, "47k");
    close(r[2], 2e6, "2meg");
    close(c[0], 3e-9, "3n");
    close(c[1], 1.2e-10, "120p");
    close(c[2], 2.5e-15, "2.5fF");
    close(vi[0], 0.8, "800mV");
    close(vi[1], 5e-6, "5uA");
}
