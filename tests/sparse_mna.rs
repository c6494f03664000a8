//! Conformance and robustness suite for the KLU-style sparse MNA path
//! (DESIGN.md §12): sparse-vs-dense agreement on DC and transient
//! analyses, seeded-random sparse-vs-dense LU equivalence, structural
//! failure modes returning proper errors, and the structural-zero
//! pattern-stability guarantee that makes symbolic reuse sound.
//!
//! The whole suite is deterministic; `scripts/verify.sh` runs it under
//! `GNR_THREADS=1` and `=4`, pinning that results are thread-count
//! independent.

use gnrlab::num::budget::ExecLimits;
use gnrlab::num::{
    sparse_solve, CsrMatrix, NumError, Refactorization, Rng, SparseLu, TripletBuilder,
};
use gnrlab::spice::circuit::{Circuit, Element, NodeId, Waveform};
use gnrlab::spice::dc::{dc_operating_point, DcOptions};
use gnrlab::spice::transient::{transient, TransientOptions};
use gnrlab::spice::MnaSolverKind;

// ------------------------------------------------ circuit conformance --

/// A k x k resistor mesh driven corner-to-corner: k^2 + 1 unknowns, well
/// above the sparse crossover.
fn mesh(k: usize) -> Circuit {
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
}

fn opts_with(solver: MnaSolverKind) -> DcOptions {
    DcOptions {
        solver,
        ..DcOptions::default()
    }
}

#[test]
fn mesh_dc_sparse_matches_dense_within_1e12() {
    for k in [4usize, 8, 12] {
        let c = mesh(k);
        let xd = dc_operating_point(
            &c,
            None,
            opts_with(MnaSolverKind::Dense),
            &ExecLimits::none(),
        )
        .expect("dense");
        let xs = dc_operating_point(
            &c,
            None,
            opts_with(MnaSolverKind::Sparse),
            &ExecLimits::none(),
        )
        .expect("sparse");
        assert_eq!(xd.len(), xs.len());
        for (i, (a, b)) in xd.iter().zip(&xs).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12,
                "k={k} unknown {i}: dense {a} vs sparse {b}"
            );
        }
    }
}

#[test]
fn auto_solver_is_bit_identical_to_dense_on_small_circuits() {
    // Below the crossover, Auto must take the exact legacy dense path —
    // not merely agree within tolerance.
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
    let auto = dc_operating_point(
        &c,
        None,
        opts_with(MnaSolverKind::Auto),
        &ExecLimits::none(),
    )
    .expect("auto");
    let dense = dc_operating_point(
        &c,
        None,
        opts_with(MnaSolverKind::Dense),
        &ExecLimits::none(),
    )
    .expect("dense");
    assert_eq!(auto, dense, "auto must be bit-identical to dense here");
}

/// RC ladder transient: the same fixed pattern is refactored every Newton
/// iteration of every time step; sparse and dense must agree at every
/// accepted time point.
#[test]
fn transient_rc_ladder_sparse_matches_dense() {
    let build = || {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add(Element::VSource {
            p: vin,
            n: NodeId::GROUND,
            wave: Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-11,
                rise: 1e-11,
                fall: 1e-11,
                width: 4e-10,
                period: 1e-9,
            },
        });
        let mut prev = vin;
        for i in 0..12 {
            let node = c.node(&format!("l{i}"));
            c.add(Element::Resistor {
                a: prev,
                b: node,
                ohms: 500.0 + 10.0 * i as f64,
            });
            c.add(Element::Capacitor {
                a: node,
                b: NodeId::GROUND,
                farads: 2e-14,
            });
            prev = node;
        }
        c
    };
    let ctx = gnrlab::num::par::ExecCtx::serial();
    let mut results = Vec::new();
    for solver in [MnaSolverKind::Dense, MnaSolverKind::Sparse] {
        let c = build();
        let mut opts = TransientOptions::new(1e-9, 1e-11);
        opts.newton.solver = solver;
        let (r, _) = transient(&ctx, &c, &opts).expect("simulates");
        results.push(r);
    }
    assert_eq!(results[0].times(), results[1].times());
    assert_eq!(results[0].len(), results[1].len());
    let last = results[0].len() - 1;
    for step in [1usize, last / 2, last] {
        // Compare full solution vectors at representative points.
        let a = &results[0];
        let b = &results[1];
        let c = build();
        for node in 1..c.node_count() {
            let va = a.voltage(&c, NodeId(node))[step];
            let vb = b.voltage(&c, NodeId(node))[step];
            assert!(
                (va - vb).abs() <= 1e-12,
                "step {step} node {node}: dense {va} vs sparse {vb}"
            );
        }
    }
}

// -------------------------------------------- random LU equivalence --

fn random_system(rng: &mut Rng) -> (CsrMatrix, Vec<f64>) {
    let n = 5 + rng.below(60);
    let mut tb = TripletBuilder::new(n, n);
    for i in 0..n {
        // Diagonally dominant keeps conditioning sane so the 1e-10
        // agreement bound is meaningful rather than luck.
        tb.push(i, i, 5.0 + rng.uniform());
        let fan = 1 + rng.below(5);
        for _ in 0..fan {
            let j = rng.below(n);
            if j != i {
                tb.push(i, j, rng.uniform_in(-0.6, 0.6));
            }
        }
    }
    let b: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
    (tb.build(), b)
}

#[test]
fn seeded_random_sparse_lu_matches_dense_lu() {
    let mut rng = Rng::seed_from_u64(0x5eed_2026);
    for trial in 0..40 {
        let (a, b) = random_system(&mut rng);
        let x = sparse_solve(&a, &b).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        let xd = a.to_dense().solve(&b).expect("dense solves");
        for (i, (xi, di)) in x.iter().zip(&xd).enumerate() {
            assert!(
                (xi - di).abs() < 1e-10,
                "trial {trial} x[{i}]: sparse {xi} vs dense {di}"
            );
        }
    }
}

#[test]
fn structural_singularity_is_an_error_not_a_panic() {
    // Empty column: no transversal can exist.
    let mut tb = TripletBuilder::new(4, 4);
    for i in 0..4 {
        tb.push(i, 0, 1.0);
        tb.push(i, 1, 1.0);
        tb.push(i, 2, 1.0);
    }
    let a = tb.build();
    assert!(matches!(
        SparseLu::analyze(&a),
        Err(NumError::SingularMatrix { .. })
    ));
}

#[test]
fn zero_pivot_is_an_error_not_a_panic() {
    // Structurally sound but numerically rank-one.
    let mut tb = TripletBuilder::new(3, 3);
    for i in 0..3 {
        for j in 0..3 {
            tb.push(i, j, ((i + 1) * (j + 1)) as f64);
        }
    }
    let a = tb.build();
    let mut lu = SparseLu::analyze(&a).expect("structurally fine");
    assert!(matches!(
        lu.factor(&a),
        Err(NumError::SingularMatrix { .. })
    ));
}

#[test]
fn refactor_after_value_change_is_bit_consistent() {
    // Two independent analyze/factor/refactor chains over the same data
    // must produce bit-identical solutions (thread count cannot matter:
    // verify.sh runs this suite under GNR_THREADS=1 and =4).
    let mut rng = Rng::seed_from_u64(77);
    let (a, b) = random_system(&mut rng);
    let mut a2 = a.clone();
    for (k, v) in a2.values_mut().iter_mut().enumerate() {
        *v += 1e-3 * ((k % 11) as f64 - 5.0);
    }
    let run = || {
        let mut lu = SparseLu::analyze(&a).expect("analyzes");
        lu.factor(&a).expect("factors");
        assert_eq!(
            lu.refactor(&a2).expect("refactors"),
            Refactorization::Reused
        );
        lu.solve(&b).expect("solves")
    };
    let x1 = run();
    let x2 = run();
    assert_eq!(x1, x2, "refactor chain must be bit-deterministic");
}

// --------------------------------------------- pattern stability pin --

#[test]
fn structural_zero_cancellation_keeps_pattern_stable() {
    // Two value-sets over one stencil — the second cancels an entry to
    // exactly 0.0. The CSR patterns must be identical (the satellite-1
    // guarantee that makes symbolic reuse sound).
    let assemble = |w: f64| -> CsrMatrix {
        let mut tb = TripletBuilder::new(3, 3);
        for i in 0..3 {
            tb.push(i, i, 2.0);
        }
        tb.push(0, 1, w);
        tb.push(0, 1, -1.0); // cancels when w == 1.0
        tb.push(2, 0, 0.5);
        tb.build()
    };
    let a = assemble(3.0);
    let b = assemble(1.0);
    assert_eq!(a.nnz(), b.nnz(), "cancellation must not shrink the pattern");
    assert!(a.same_pattern(&b));
    assert_eq!(a.row_ptr(), b.row_ptr());
    assert_eq!(a.col_idx(), b.col_idx());
    // And the cancelled assembly still factors with the shared symbolics.
    let mut lu = SparseLu::analyze(&a).expect("analyzes");
    lu.factor(&a).expect("factors");
    assert_eq!(
        lu.refactor(&b).expect("refactors same pattern"),
        Refactorization::Reused
    );
    let x = lu.solve(&[1.0, 2.0, 3.0]).expect("solves");
    let xd = b.to_dense().solve(&[1.0, 2.0, 3.0]).expect("dense");
    for (xi, di) in x.iter().zip(&xd) {
        assert!((xi - di).abs() < 1e-12);
    }
}

#[test]
fn non_square_symmetry_defect_errors_instead_of_panicking() {
    // Regression: wide matrices used to index out of bounds.
    let mut tb = TripletBuilder::new(2, 4);
    tb.push(0, 0, 1.0);
    tb.push(1, 3, 2.0);
    let wide = tb.build();
    assert!(matches!(
        wide.symmetry_defect(),
        Err(NumError::DimensionMismatch { .. })
    ));
}
