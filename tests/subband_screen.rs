//! The eigenvalues-only QL kernel and the screened subband edges
//! (DESIGN.md §2.3).
//!
//! `Matrix::sym_eigenvalues` is checked against the cyclic-Jacobi
//! `Matrix::sym_eigen`, and `AGnr::conduction_subband_edges` bit for bit
//! against per-band minima of the full Jacobi band structure, its
//! conformance oracle. The full N = 3…30 sweep is `#[ignore]`d and runs in
//! the weekly CI job:
//! `cargo test --release --offline --test subband_screen -- --ignored`.

use gnrlab::lattice::{unit_cell_hamiltonian, AGnr, BandStructure};
use gnrlab::num::{c64, CMatrix, Matrix, NumError, Rng};
use std::time::{Duration, Instant};

/// Per-band minimum over k, kept if above 0 eV, sorted, truncated: the
/// subband edges as read off the full Jacobi band structure.
fn oracle_edges(gnr: AGnr, k_points: usize, count: usize) -> Vec<f64> {
    edges_of(&gnr.band_structure(k_points).expect("band solve"), count)
}

fn edges_of(bs: &BandStructure, count: usize) -> Vec<f64> {
    let mut mins: Vec<f64> = bs
        .bands()
        .iter()
        .map(|band| band.iter().copied().fold(f64::INFINITY, f64::min))
        .filter(|&lo| lo > 0.0)
        .collect();
    mins.sort_by(f64::total_cmp);
    mins.truncate(count);
    mins
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches_jacobi(a: &Matrix, what: &str) {
    let (jacobi, _) = a.sym_eigen().expect("Jacobi converges");
    let ql = a.sym_eigenvalues().expect("QL converges");
    assert_eq!(ql.len(), jacobi.len(), "{what}");
    assert!(ql.windows(2).all(|w| w[0] <= w[1]), "{what}: not ascending");
    let tol = 1e-12 * a.max_abs().max(1.0);
    for (i, (q, j)) in ql.iter().zip(&jacobi).enumerate() {
        assert!((q - j).abs() <= tol, "{what}: λ{i} QL {q} vs Jacobi {j}");
    }
}

fn random_symmetric(rng: &mut Rng, n: usize) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.uniform_in(-3.0, 3.0);
            a.set(i, j, v);
            a.set(j, i, v);
        }
    }
    a
}

#[test]
fn ql_matches_jacobi_on_random_symmetric_matrices() {
    let mut rng = Rng::seed_from_u64(0x5eed_e16e);
    for n in [1, 2, 3, 10, 36] {
        for trial in 0..4 {
            let a = random_symmetric(&mut rng, n);
            assert_matches_jacobi(&a, &format!("random n={n} trial {trial}"));
        }
    }
}

#[test]
fn ql_matches_jacobi_on_structured_matrices() {
    let diag = Matrix::from_fn(7, 7, |i, j| {
        if i == j {
            [3.0, -1.0, 0.0, 2.5, -4.0, 2.5, 1e-3][i]
        } else {
            0.0
        }
    });
    assert_matches_jacobi(&diag, "diagonal");
    let tri = Matrix::from_fn(12, 12, |i, j| match i.abs_diff(j) {
        0 => 0.3 * i as f64 - 1.0,
        1 => -2.7,
        _ => 0.0,
    });
    assert_matches_jacobi(&tri, "tridiagonal");
    assert_eq!(Matrix::zeros(0, 0).sym_eigenvalues(), Ok(Vec::new()));
}

#[test]
fn herm_eigenvalues_keep_one_of_each_degenerate_embedding_pair() {
    let mut rng = Rng::seed_from_u64(7);
    let n = 9;
    let mut h = CMatrix::zeros(n, n);
    for i in 0..n {
        h.set(i, i, c64(rng.uniform_in(-2.0, 2.0), 0.0));
        for j in 0..i {
            let z = c64(rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0));
            h.set(i, j, z);
            h.set(j, i, z.conj());
        }
    }
    // The real embedding carries every eigenvalue exactly twice.
    let embedding = Matrix::from_fn(2 * n, 2 * n, |i, j| {
        let z = h.get(i % n, j % n);
        match (i / n, j / n) {
            (0, 1) => -z.im,
            (1, 0) => z.im,
            _ => z.re,
        }
    });
    assert_matches_jacobi(&embedding, "Hermitian embedding");
    let pairs = embedding.sym_eigenvalues().unwrap();
    for p in pairs.chunks(2) {
        assert!((p[0] - p[1]).abs() < 1e-12, "pair {p:?}");
    }
    let (jacobi, _) = h.herm_eigen().unwrap();
    let ql = h.herm_eigenvalues().unwrap();
    assert_eq!(ql.len(), n);
    for (q, j) in ql.iter().zip(&jacobi) {
        assert!((q - j).abs() < 1e-12, "QL {q} vs Jacobi {j}");
    }
}

#[test]
fn ql_rejects_bad_input_with_typed_errors() {
    let rect = Matrix::zeros(3, 4);
    assert!(matches!(
        rect.sym_eigenvalues(),
        Err(NumError::DimensionMismatch { .. })
    ));
    for bad in [f64::NAN, f64::INFINITY] {
        let mut a = Matrix::identity(20);
        a.set(4, 11, bad);
        a.set(11, 4, bad);
        let t0 = Instant::now();
        let err = a.sym_eigenvalues().unwrap_err();
        assert!(matches!(err, NumError::NonFinite { .. }), "{err:?}");
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
    let not_hermitian = CMatrix::from_fn(2, 2, |i, j| c64((i + 2 * j) as f64, 0.0));
    assert!(matches!(
        not_hermitian.herm_eigenvalues(),
        Err(NumError::InvalidInput { .. })
    ));
}

#[test]
fn screened_subband_edges_are_bit_identical_to_the_jacobi_band_structure() {
    for n in [3, 4, 5, 7, 9, 12, 15] {
        let gnr = AGnr::new(n).unwrap();
        let edges = gnr.conduction_subband_edges(128, 3).unwrap();
        assert_eq!(bits(&edges), bits(&oracle_edges(gnr, 128, 3)), "N = {n}");
        assert!(!edges.is_empty(), "N = {n}");
    }
}

#[test]
fn screened_subband_edges_edge_cases() {
    let gnr = AGnr::new(7).unwrap();
    assert_eq!(
        gnr.conduction_subband_edges(128, 0).unwrap(),
        Vec::<f64>::new()
    );
    // More than the ribbon's N positive bands: every one, as the oracle.
    let all = gnr.conduction_subband_edges(16, 100).unwrap();
    assert_eq!(bits(&all), bits(&oracle_edges(gnr, 16, 100)));
    assert!(all.len() < gnr.atoms_per_cell(), "{} edges", all.len());
    // Fewer than two k points clamp to two, as the band structure does.
    for k_points in [0, 1] {
        let clamped = gnr.conduction_subband_edges(k_points, 3).unwrap();
        assert_eq!(bits(&clamped), bits(&oracle_edges(gnr, k_points, 3)));
        assert_eq!(
            bits(&clamped),
            bits(&gnr.conduction_subband_edges(2, 3).unwrap())
        );
    }
}

/// Every supported ribbon index (the netlist bounds `n` to 3…30) at the
/// device model's 128 k and at 3 and 8 subbands; also reports the largest
/// QL–Jacobi gap ε per sorted index, which the screen margin must exceed
/// twice over.
#[test]
#[ignore = "full N = 3..30 sweep, about two minutes in release; weekly CI job"]
fn screened_subband_edges_sweep_every_supported_index() {
    let mut worst: f64 = 0.0;
    for n in 3..=30 {
        let gnr = AGnr::new(n).unwrap();
        let bs = gnr.band_structure(128).unwrap();
        for count in [3, 8] {
            let edges = gnr.conduction_subband_edges(128, count).unwrap();
            assert_eq!(bits(&edges), bits(&edges_of(&bs, count)), "N = {n}");
        }
        let (h00, h01) = unit_cell_hamiltonian(gnr);
        for (ik, &k) in bs.k_samples().iter().enumerate() {
            let phase = c64(k.cos(), k.sin());
            let hk = &(&h00 + &h01.scale(phase)) + &h01.adjoint().scale(phase.conj());
            let ql = hk.herm_eigenvalues().unwrap();
            for (b, band) in bs.bands().iter().enumerate() {
                worst = worst.max((ql[b] - band[ik]).abs());
            }
        }
    }
    eprintln!("worst |QL - Jacobi| over N = 3..30 at 128 k: {worst:.3e} eV");
    assert!(2.0 * worst < 1e-9, "screen margin too small: ε = {worst:e}");
}
