//! Ablation benches for the design choices called out in DESIGN.md §5:
//! RGF versus dense Green's-function inversion, the bilinear-table lookup
//! versus direct model evaluation, resistance folding versus explicit
//! internal nodes, and the SCF mixing-factor cost.

use crate::harness::Harness;
use gnr_device::table::TableGrid;
use gnr_device::{DeviceConfig, DeviceTable, Polarity, SbfetModel, ScfOptions, ScfSolver};
use gnr_lattice::{AGnr, DeviceHamiltonian};
use gnr_negf::{Lead, RgfSolver};
use gnr_num::budget::ExecLimits;
use gnr_num::par::ExecCtx;
use gnr_num::{c64, CMatrix};
use gnr_spice::measure::fo4_metrics_for_cell;
use std::hint::black_box;

const SUITE: &str = "ablations";

/// RGF scales linearly in length; the dense inverse is cubic in the full
/// device dimension. This ablation shows why the paper's "efficient
/// computational algorithms" matter.
fn rgf_vs_dense(h: &mut Harness) {
    let gnr = AGnr::new(9).expect("valid");
    for cells in [4usize, 8] {
        let ham = DeviceHamiltonian::flat_band(gnr, cells).expect("builds");
        let solver = RgfSolver::new(&ham, Lead::metal(), Lead::metal());
        h.bench(SUITE, &format!("rgf_vs_dense/rgf/{cells}"), || {
            black_box(solver.transmission(black_box(0.8)).expect("solves"))
        });
        // Dense comparator: invert (E - H - Sigma) outright.
        let dense_h = ham.to_dense();
        h.bench(
            SUITE,
            &format!("rgf_vs_dense/dense_inverse/{cells}"),
            || {
                let n = dense_h.rows();
                let mut a = CMatrix::from_fn(n, n, |i, j| -dense_h.get(i, j));
                for i in 0..n {
                    a.add_to(i, i, c64(0.8, 1e-6));
                }
                // Wide-band contact broadening on the boundary layers.
                let m = gnr.atoms_per_cell();
                for i in 0..m {
                    a.add_to(i, i, c64(0.0, 0.25));
                    a.add_to(n - 1 - i, n - 1 - i, c64(0.0, 0.25));
                }
                black_box(a.inverse().expect("invertible"))
            },
        );
    }
}

/// Table lookup versus direct semi-analytic evaluation: the factor the
/// paper's "simulator based on table lookup techniques" buys per device
/// evaluation inside the circuit Newton loop.
fn table_vs_model(h: &mut Harness) {
    let model = || SbfetModel::new(&DeviceConfig::test_small(12).expect("valid")).expect("builds");
    let grid = TableGrid {
        vgs: (-0.35, 1.0),
        vds: (0.0, 0.85),
        points: 21,
    };
    let table = || {
        DeviceTable::from_model(&ExecCtx::serial(), &model(), Polarity::NType, grid, 4)
            .expect("table")
    };
    h.bench_with(SUITE, "table_vs_model/bilinear_lookup", table, |table| {
        black_box(table.current(black_box(0.37), black_box(0.29)))
    });
    h.bench_with(SUITE, "table_vs_model/direct_model_eval", model, |model| {
        black_box(
            model
                .drain_current(black_box(0.37), black_box(0.29))
                .expect("evals"),
        )
    });

    // Folding the contact resistances into the table versus paying for
    // them at build time: fold cost amortizes over every lookup.
    h.bench_with(SUITE, "fold_series_resistance_21x21", table, |table| {
        black_box(table.fold_series_resistance(10e3, 10e3).expect("folds"))
    });
}

/// Integrator ablation: backward Euler versus trapezoidal on an RC
/// transient — same step count, different accuracy class.
fn integrator(h: &mut Harness) {
    use gnr_spice::circuit::{Circuit, Element, NodeId, Waveform};
    use gnr_spice::transient::{transient, Integrator, TransientOptions};
    let build = || {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-10,
                rise: 2e-10,
                fall: 2e-10,
                width: 5e-10,
                period: 2e-9,
            },
        });
        c.add(Element::Resistor {
            a: vin,
            b: out,
            ohms: 1e3,
        });
        c.add(Element::Capacitor {
            a: out,
            b: NodeId::GROUND,
            farads: 1e-12,
        });
        c
    };
    for (label, integrator) in [
        ("backward_euler", Integrator::BackwardEuler),
        ("trapezoidal", Integrator::Trapezoidal),
    ] {
        let circuit = build();
        h.bench(SUITE, &format!("integrator/{label}"), move || {
            let mut opts = TransientOptions::new(2e-9, 1e-12);
            opts.integrator = integrator;
            black_box(transient(&ExecCtx::serial(), &circuit, &opts).expect("simulates"))
        });
    }
}

/// SCF damping ablation: convergence cost versus mixing factor on a tiny
/// device (the DESIGN.md "mixing" ablation).
fn scf_mixing(h: &mut Harness) {
    let mut cfg = DeviceConfig::test_small(9).expect("valid");
    cfg.channel_cells = 8;
    for mixing in [0.15, 0.3] {
        let opts = ScfOptions {
            mixing,
            ..ScfOptions::fast()
        };
        h.bench_with(
            SUITE,
            &format!("scf_mixing/{mixing}"),
            || ScfSolver::new(&cfg, opts),
            |solver| {
                black_box(
                    solver
                        .solve(&ExecCtx::serial(), 0.2, 0.2)
                        .expect("converges"),
                )
            },
        );
    }
}

/// Recovery-ladder overhead: the escalation ladder wraps every SCF solve,
/// so its fault-free cost on a nominal bias point must stay negligible
/// (one extra report allocation; the nominal rung is the plain solve).
fn scf_recovery(h: &mut Harness) {
    let mut cfg = DeviceConfig::test_small(9).expect("valid");
    cfg.channel_cells = 8;
    for label in ["direct", "ladder"] {
        h.bench_with(
            SUITE,
            &format!("scf_recovery/{label}"),
            || ScfSolver::new(&cfg, ScfOptions::fast()),
            |solver| {
                black_box(
                    solver
                        .solve(&ExecCtx::serial(), black_box(0.2), black_box(0.2))
                        .expect("converges"),
                )
            },
        );
    }
}

/// Thread-pool scaling ablation: the same 21 x 21 bias-grid table build,
/// serial versus a 4-thread pool. The deterministic ordered merge must
/// still deliver real speedup on a multi-core host (target: >= 2x at
/// 4 threads with >= 4 cores) or the parallel execution API is pure
/// overhead. On a single-core host the two medians should instead
/// coincide — that reading pins the pool's dispatch/merge overhead at
/// effectively zero.
fn par_scaling(h: &mut Harness) {
    let cfg = DeviceConfig::test_small(12).expect("valid");
    let grid = TableGrid {
        vgs: (-0.35, 1.0),
        vds: (0.0, 0.85),
        points: 21,
    };
    for (label, threads) in [("serial", 1usize), ("threads4", 4)] {
        h.bench_with(
            SUITE,
            &format!("par_scaling/from_model/{label}"),
            || {
                (
                    ExecCtx::with_threads(threads),
                    SbfetModel::new(&cfg).expect("builds"),
                )
            },
            |(ctx, model)| {
                black_box(
                    DeviceTable::from_model(ctx, model, Polarity::NType, grid, 4).expect("table"),
                )
            },
        );
    }
}

/// The bias-sweep NEGF table build — the headline ablation for the
/// transport acceleration layer (DESIGN.md §11). `legacy` pays fresh
/// Sancho–Rubio decimations at every energy of a dense uniform grid for
/// every bias point; `accelerated` shares a surface-GF cache across the
/// sweep and refines a 4x-coarser grid only where T(E) has structure.
/// Gate target: accelerated median >= 2x faster, with every table I-V
/// node within 1e-6 A of legacy (pinned by the gnr-device tests).
fn device_table(h: &mut Harness) {
    use gnr_device::{ballistic_negf_table, NegfTableOptions};
    let mut cfg = DeviceConfig::test_small(9).expect("valid");
    cfg.channel_cells = 6;
    let grid = TableGrid {
        vgs: (0.0, 0.6),
        vds: (0.05, 0.35),
        points: 3,
    };
    for (label, opts) in [
        (
            "legacy",
            NegfTableOptions {
                energy_step_ev: 0.015,
                energy_pad_ev: 0.25,
                refine: None,
                use_cache: false,
                mode_space: None,
            },
        ),
        ("accelerated", NegfTableOptions::accelerated()),
    ] {
        h.bench_with(
            SUITE,
            &format!("device_table/{label}"),
            || {
                (
                    ExecCtx::with_threads(4),
                    SbfetModel::new(&cfg).expect("builds"),
                )
            },
            |(ctx, model)| {
                black_box(
                    ballistic_negf_table(ctx, model, Polarity::NType, grid, 4, &opts)
                        .expect("table"),
                )
            },
        );
    }
}

/// Mode-space NEGF (DESIGN.md §15): the same bias-sweep table build as
/// `device_table`, with the accelerated real-space path against the
/// reduced mode-space path. The transform keeps only the transverse modes
/// whose bands can reach the transport window, so every RGF block solve
/// and Sancho–Rubio decimation runs on k x k instead of m x m blocks.
/// Gate target: mode-space median >= 5x faster than the accelerated
/// real-space build, with every I-V node within 1e-6 A (pinned by the
/// gnr-device tests and the negf_vs_surrogate suite). Same N = 9 device
/// as `device_table`, so the two ablations compose into one story:
/// legacy -> cache+refine -> mode-space. Runs on the serial context so
/// the ratio measures the solver algorithms, not pool dispatch: the
/// reduced k x k blocks make each energy point so cheap that per-batch
/// thread spawns would dominate the mode-space side of the comparison
/// (`par_scaling` is the ablation that characterizes pool overhead).
/// The bias grid is denser than `device_table`'s (4x4, the sweep regime
/// both solver paths are built for) so the per-energy-point cost — where
/// the k x k reduction lives — dominates the one-time per-build setup.
fn mode_space(h: &mut Harness) {
    use gnr_device::{ballistic_negf_table, NegfTableOptions};
    let mut cfg = DeviceConfig::test_small(9).expect("valid");
    cfg.channel_cells = 6;
    let grid = TableGrid {
        vgs: (0.0, 0.6),
        vds: (0.05, 0.35),
        points: 4,
    };
    let ctx = ExecCtx::serial();
    for (label, opts) in [
        ("real_space", NegfTableOptions::accelerated()),
        ("mode_space", NegfTableOptions::mode_space()),
    ] {
        h.bench_with(
            SUITE,
            &format!("mode_space/{label}"),
            || SbfetModel::new(&cfg).expect("builds"),
            |model| {
                black_box(
                    ballistic_negf_table(&ctx, model, Polarity::NType, grid, 4, &opts)
                        .expect("table"),
                )
            },
        );
    }
}

/// Content-addressed table cache (DESIGN.md §14): a cold NEGF table
/// build versus a warm store hit serving the same request from its
/// canonical JSON. The warm path is one FNV-1a key, one map probe, and
/// one JSON parse, so the gate target is steep: warm median >= 50x
/// faster than cold, with the hit byte-identical to the cold build
/// (pinned by the `table_cache` test suite).
fn table_cache(h: &mut Harness) {
    use gnr_device::{ballistic_negf_table, DeviceError, NegfTableOptions, TableKey, TableStore};
    let mut cfg = DeviceConfig::test_small(9).expect("valid");
    cfg.channel_cells = 6;
    let model = || SbfetModel::new(&cfg).expect("builds");
    let grid = TableGrid {
        vgs: (0.0, 0.6),
        vds: (0.05, 0.35),
        points: 3,
    };
    let ctx = ExecCtx::with_threads(4);
    let opts = NegfTableOptions::accelerated();
    // The full request key is recomputed per iteration: the warm number
    // is the end-to-end cost of a cache hit, not just the map probe.
    let key = |cfg: &DeviceConfig, opts: &NegfTableOptions| {
        TableKey::new("bench-table-cache")
            .device(cfg)
            .grid(&grid)
            .polarity(Polarity::NType)
            .ribbons(4)
            .negf(opts)
            .finish()
    };
    h.bench_with(SUITE, "table_cache/cold_build", model, |model| {
        black_box(
            ballistic_negf_table(&ctx, model, Polarity::NType, grid, 4, &opts).expect("table"),
        )
    });
    let primed_store = || {
        let store = TableStore::in_memory();
        store
            .get_or_build(key(&cfg, &opts), || {
                ballistic_negf_table(&ctx, &model(), Polarity::NType, grid, 4, &opts)
            })
            .expect("prime the store");
        store
    };
    h.bench_with(SUITE, "table_cache/warm_hit", primed_store, |store| {
        black_box(
            store
                .get_or_build(key(&cfg, &opts), || -> Result<DeviceTable, DeviceError> {
                    unreachable!("the warm run must hit")
                })
                .expect("hit"),
        )
    });
}

/// Sparse versus dense MNA (DESIGN.md §12): the KLU-style solver pays a
/// one-time symbolic analysis per circuit and a cheap pattern-replay
/// refactor per Newton step, versus the legacy dense assembly + O(n³) LU
/// every step. Gate target: sparse median >= 2x faster on the resistor
/// meshes (>= 50 unknowns), with solutions pinned within 1e-12 of dense
/// by the `sparse_mna` test suite.
fn sparse_mna(h: &mut Harness) {
    use gnr_spice::circuit::{Circuit, Element, NodeId, Waveform};
    use gnr_spice::dc::{dc_operating_point, DcOptions};
    use gnr_spice::transient::{transient, TransientOptions};
    use gnr_spice::MnaSolverKind;

    // Large resistor-mesh DC op: a k x k grid bridged corner-to-corner,
    // k^2 + 1 unknowns.
    let mesh = |k: usize| -> Circuit {
        let mut c = Circuit::new();
        let nodes: Vec<Vec<NodeId>> = (0..k)
            .map(|i| (0..k).map(|j| c.node(&format!("n{i}_{j}"))).collect())
            .collect();
        for i in 0..k {
            for j in 0..k {
                if i + 1 < k {
                    c.add(Element::Resistor {
                        a: nodes[i][j],
                        b: nodes[i + 1][j],
                        ohms: 1e3 + (i * k + j) as f64,
                    });
                }
                if j + 1 < k {
                    c.add(Element::Resistor {
                        a: nodes[i][j],
                        b: nodes[i][j + 1],
                        ohms: 1.5e3 + (i + j) as f64,
                    });
                }
            }
        }
        c.add(Element::VSource {
            p: nodes[0][0],
            n: NodeId::GROUND,
            wave: Waveform::Dc(1.0),
        });
        c.add(Element::Resistor {
            a: nodes[k - 1][k - 1],
            b: NodeId::GROUND,
            ohms: 2e3,
        });
        c
    };
    for k in [8usize, 16] {
        let c = mesh(k);
        for (label, solver) in [
            ("dense", MnaSolverKind::Dense),
            ("sparse", MnaSolverKind::Sparse),
        ] {
            let opts = DcOptions {
                solver,
                ..DcOptions::default()
            };
            let circuit = c.clone();
            h.bench(
                SUITE,
                &format!("sparse_mna/mesh_dc/k{k}/{label}"),
                move || {
                    black_box(
                        dc_operating_point(&circuit, None, opts, &ExecLimits::none())
                            .expect("solves"),
                    )
                },
            );
        }
    }

    // 9-stage ring-oscillator transient on surrogate lookup-table FETs:
    // per-step Newton with gm/gds table lookups, where the residual-only
    // line search and the pattern-replay refactor both show up.
    let grid = TableGrid {
        vgs: (-0.3, 0.9),
        vds: (0.0, 0.9),
        points: 9,
    };
    let nfet = DeviceTable::from_samples(
        grid,
        Polarity::NType,
        |vg, vd| {
            let vov = (vg - 0.2).max(0.0);
            4e-5 * vov * vov * (vd / 0.08).tanh() + 1e-9 * vd
        },
        |vg, _| 2e-16 * vg,
    )
    .expect("surrogate nfet");
    let pfet = nfet.mirrored();
    let vdd = 0.8;
    let mut ro = Circuit::new();
    let vdd_node = ro.node("vdd");
    ro.add(Element::VSource {
        p: vdd_node,
        n: NodeId::GROUND,
        wave: Waveform::Dc(vdd),
    });
    let stages = 9usize;
    let outs: Vec<NodeId> = (0..stages).map(|i| ro.node(&format!("s{i}"))).collect();
    let nfet = std::sync::Arc::new(nfet);
    let pfet = std::sync::Arc::new(pfet);
    for i in 0..stages {
        let inp = outs[(i + stages - 1) % stages];
        ro.add(Element::Fet {
            d: outs[i],
            g: inp,
            s: vdd_node,
            table: pfet.clone(),
        });
        ro.add(Element::Fet {
            d: outs[i],
            g: inp,
            s: NodeId::GROUND,
            table: nfet.clone(),
        });
        ro.add(Element::Capacitor {
            a: outs[i],
            b: NodeId::GROUND,
            farads: 5e-16,
        });
    }
    for (label, solver) in [
        ("dense", MnaSolverKind::Dense),
        ("sparse", MnaSolverKind::Sparse),
    ] {
        let circuit = ro.clone();
        let kick = outs[0];
        h.bench(
            SUITE,
            &format!("sparse_mna/ro9_transient/{label}"),
            move || {
                let mut opts = TransientOptions::new(2e-10, 2e-12);
                opts.newton.solver = solver;
                opts.skip_dc = true;
                opts.initial_voltages = vec![(kick, vdd)];
                black_box(transient(&ExecCtx::serial(), &circuit, &opts).expect("simulates"))
            },
        );
    }
}

/// Netlist front end on generated workloads (DESIGN.md §16): deck text →
/// parse → subcircuit flattening at growing NAND-tree widths, then the
/// elaborated circuit's DC operating point dense versus sparse. This is
/// the deck-path counterpart to `sparse_mna`, with the parser and
/// elaborator inside the measured region.
fn circuit_zoo(h: &mut Harness) {
    use gnr_spice::dc::{dc_operating_point, DcOptions};
    use gnr_spice::netlist::AnalysisCard;
    use gnr_spice::transient::{transient, TransientOptions};
    use gnr_spice::{parse_deck, MnaSolverKind, ModelBindings};

    // A balanced tree of nand2 subcircuit instances reducing `width`
    // driven inputs to one output: ~width gates, ~3*width nodes after
    // flattening.
    let nand_tree_deck = |width: usize| -> String {
        let mut d = String::new();
        d.push_str(&format!("* bench: balanced nand tree, {width} inputs\n"));
        d.push_str(".model nmos surrogate polarity=n\n");
        d.push_str(".model pmos surrogate polarity=p\n");
        d.push_str(".subckt nand2 a b out vdd\n");
        d.push_str("mn1 out a mid nmos\nmn2 mid b 0 nmos\n");
        d.push_str("mp1 out a vdd pmos\nmp2 out b vdd pmos\n");
        d.push_str("cl out 0 5e-17\n.ends\n");
        d.push_str("vdd vdd 0 dc 0.8\n");
        for j in 0..width {
            d.push_str(&format!("vi{j} l0_{j} 0 dc 0.8\n"));
        }
        let (mut level, mut w) = (0usize, width);
        while w > 1 {
            for j in 0..w / 2 {
                d.push_str(&format!(
                    "x{level}_{j} l{level}_{a} l{level}_{b} l{next}_{j} vdd nand2\n",
                    a = 2 * j,
                    b = 2 * j + 1,
                    next = level + 1
                ));
            }
            level += 1;
            w /= 2;
        }
        d.push_str(".op\n.end\n");
        d
    };

    for width in [8usize, 32] {
        let text = nand_tree_deck(width);
        h.bench(
            SUITE,
            &format!("circuit_zoo/parse_elaborate/nand_tree_{width}"),
            || {
                black_box(
                    parse_deck(black_box(&text))
                        .expect("parse")
                        .elaborate(&ModelBindings::new())
                        .expect("elaborate"),
                )
            },
        );
        let elab = parse_deck(&text)
            .expect("parse")
            .elaborate(&ModelBindings::new())
            .expect("elaborate");
        for (label, solver) in [
            ("dense", MnaSolverKind::Dense),
            ("sparse", MnaSolverKind::Sparse),
        ] {
            let circuit = elab.circuit.clone();
            let opts = DcOptions {
                solver,
                ..DcOptions::default()
            };
            h.bench(
                SUITE,
                &format!("circuit_zoo/dc/nand_tree_{width}/{label}"),
                move || {
                    black_box(
                        dc_operating_point(&circuit, None, opts, &ExecLimits::none())
                            .expect("solves"),
                    )
                },
            );
        }
    }

    // One committed zoo deck end to end: the 4-stage clock buffer chain's
    // transient off its own `.tran` card, on surrogate models only.
    h.bench_with(
        SUITE,
        "circuit_zoo/tran/clock_f2",
        || {
            let elab = parse_deck(include_str!("../../../decks/zoo/clock_f2.sp"))
                .expect("parse")
                .elaborate(&ModelBindings::new())
                .expect("elaborate");
            let opts = elab
                .analyses
                .iter()
                .find_map(|a| match a {
                    AnalysisCard::Tran { dt, t_stop } => Some(TransientOptions::new(*t_stop, *dt)),
                    _ => None,
                })
                .expect("deck has a .tran card");
            (elab.circuit, opts)
        },
        |(circuit, opts)| {
            black_box(transient(&ExecCtx::serial(), circuit, opts).expect("simulates"))
        },
    );
}

/// One nominal FO4 measurement (static-power DC solves plus a 6000-step
/// backward-Euler transient on the 9-unknown bench): the transient-step
/// layer that dominates the design-space contours and MC characterization.
fn fo4_transient(h: &mut Harness) {
    h.bench_with(
        SUITE,
        "fo4_transient",
        crate::circuit_kernels::nominal_cell,
        |(cell, vdd)| black_box(fo4_metrics_for_cell(cell, black_box(*vdd)).expect("measures")),
    );
}

pub fn register(h: &mut Harness) {
    rgf_vs_dense(h);
    table_vs_model(h);
    integrator(h);
    scf_mixing(h);
    scf_recovery(h);
    par_scaling(h);
    device_table(h);
    mode_space(h);
    table_cache(h);
    sparse_mna(h);
    circuit_zoo(h);
    fo4_transient(h);
}
