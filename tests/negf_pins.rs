//! Golden pins for the NEGF transport integrator on the small-ribbon
//! device builds (N = 9 armchair ribbon, six channel cells).
//!
//! Every value is pinned as its `f64::to_bits` pattern, so any change to
//! the energy-point evaluation, the adaptive refinement, the surface-GF
//! cache, the mode-space transform or the quadrature fails here instead of
//! drifting silently. The pins cover the solver paths the device tables
//! are built on:
//!
//! * the 4×4 ballistic NEGF tables on the accelerated real-space and the
//!   mode-space paths (refined grid, shared cache) — every node's current
//!   and charge, as persisted in the table JSON;
//! * one `ScfOptions::fast_adaptive()` bias point (grid refined on the
//!   first SCF iteration, frozen thereafter);
//! * the 3×3 warm-started `ScfOptions::fast()` table (uniform grid) and its
//!   total SCF iteration count.
//!
//! A last test checks that the per-energy counters reach a context's own
//! telemetry sink. The suite runs under `GNR_THREADS=1` and `=4` in
//! `scripts/verify.sh`; every pin is thread-count invariant.

use gnrlab::device::{
    ballistic_negf_table, DeviceConfig, DeviceTable, NegfTableOptions, Polarity, SbfetModel,
    ScfOptions, ScfSolver, TableGrid,
};
use gnrlab::negf::ModeSpaceOptions;
use gnrlab::num::par::ExecCtx;
use gnrlab::num::{telemetry, Json, KeyHasher, Telemetry};

fn assert_pin(actual: f64, expected: u64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        expected,
        "{what}: {actual:?} = {:#018x}, pinned {expected:#018x}",
        actual.to_bits()
    );
}

/// The small ribbon of the NEGF and SCF table builds.
fn small_ribbon() -> DeviceConfig {
    let mut cfg = DeviceConfig::test_small(9).expect("valid ribbon");
    cfg.channel_cells = 6;
    cfg
}

const NEGF_GRID: TableGrid = TableGrid {
    vgs: (0.0, 0.6),
    vds: (0.05, 0.35),
    points: 4,
};

const SCF_GRID: TableGrid = TableGrid {
    vgs: (0.0, 0.6),
    vds: (0.05, 0.35),
    points: 3,
};

/// Node values of `key` (`"id_a"` or `"q_c"`) as persisted in the table
/// JSON, row-major with V_GS outer.
fn nodes(table: &DeviceTable, key: &str) -> Vec<f64> {
    let doc = Json::parse(&table.to_json().expect("table json")).expect("valid json");
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("missing {key}"))
        .iter()
        .map(|v| v.as_f64().expect("finite node value"))
        .collect()
}

fn assert_nodes(table: &DeviceTable, key: &str, pins: &[u64], what: &str) {
    let values = nodes(table, key);
    assert_eq!(values.len(), pins.len(), "{what} {key}: node count");
    for (i, (&v, &pin)) in values.iter().zip(pins).enumerate() {
        assert_pin(v, pin, &format!("{what} {key}[{i}]"));
    }
}

fn negf_table(opts: &NegfTableOptions) -> DeviceTable {
    let model = SbfetModel::new(&small_ribbon()).expect("model");
    ballistic_negf_table(
        &ExecCtx::from_env(),
        &model,
        Polarity::NType,
        NEGF_GRID,
        1,
        opts,
    )
    .expect("negf table")
}

#[test]
fn accelerated_negf_table_pinned() {
    let table = negf_table(&NegfTableOptions::accelerated());
    assert_eq!(table.solver_path(), "negf-real-space");
    assert_nodes(
        &table,
        "id_a",
        &[
            0x3d5c3f5d03287f64,
            0x3d575ffeba5bd4cd,
            0x3d41638582180499,
            0x3d8ab72cbe5895b6,
            0x3d5809c39ec8e8cb,
            0x3d5716070d4c5c07,
            0x3d4060436b4e61a1,
            0x3d8941d1bc7a7716,
            0x3d5289cb68a9c62f,
            0x3d5492990075cd31,
            0x3d43857f22aa37e8,
            0x3d8b9a1a6d0f881d,
            0x3d4a7db7f79ee806,
            0x3d50bcc8fb19312c,
            0x3d4da604149f6dd4,
            0x3d9146bdf9f4a4e4,
        ],
        "accelerated",
    );
    assert_nodes(
        &table,
        "q_c",
        &[
            0x3a9a4a50261d152b,
            0x3a9b4ed7fdd608cc,
            0x3aaf59c57c3a6930,
            0x3ab680e0d9cc1c00,
            0xbab3a610e06e4ff1,
            0xbaaa16c55501121c,
            0xba8e4fd490355014,
            0xba89cf15bea869b9,
            0xbabf8f87a1878fd2,
            0xbac123dd2224a383,
            0xbabfa093d9a0a0b3,
            0xbab96157ec0d887e,
            0xbac9c5bbedcd4928,
            0xbac88b35aaa289f4,
            0xbacbf3a738a268ec,
            0xbacaee7a8948c04b,
        ],
        "accelerated",
    );
}

#[test]
fn mode_space_negf_table_pinned() {
    let table = negf_table(&NegfTableOptions::mode_space());
    assert_eq!(table.solver_path(), "negf-mode-space");
    assert_nodes(
        &table,
        "id_a",
        &[
            0x3d5c3f5cf7b12491,
            0x3d575ffe88a7b151,
            0x3d4163e19d8755fe,
            0x3d8ab720c5f8f912,
            0x3d5809c3890c6938,
            0x3d571606ece51f99,
            0x3d4060426411c371,
            0x3d8941cc271fb29a,
            0x3d5289cb1a9463e4,
            0x3d5492ecb140f544,
            0x3d4386156ff0f343,
            0x3d8b9a19f107e579,
            0x3d4a7db6e5921dc4,
            0x3d50bcc876dffe73,
            0x3d4da60509569459,
            0x3d9146c00ef4d95b,
        ],
        "mode-space",
    );
    assert_nodes(
        &table,
        "q_c",
        &[
            0xbb1a057239e52baf,
            0x3b26600a33952383,
            0xbb5b1069bafc8893,
            0x3b23404a231dcdbc,
            0xbb07d8dd8d4de6e2,
            0x3b0375c0285a3bd2,
            0x3b393ca83e0a6d63,
            0xbb54be259acc2672,
            0xbb57f2bc872c27d2,
            0xbb59084d20256193,
            0xbb449bcb066e0266,
            0xbb3bd7f47daeda19,
            0xbb4642f89fca91f8,
            0xbb3457a9faa5ea2d,
            0xbb336ef913db6c86,
            0xbb147ce04c45906f,
        ],
        "mode-space",
    );
}

/// One adaptive-grid SCF bias point: the grid is refined on the first
/// iteration and frozen for the rest, so this pins both the refinement and
/// the re-integration on an explicit energy list.
#[test]
fn fast_adaptive_scf_bias_point_pinned() {
    let solver = ScfSolver::new(&small_ribbon(), ScfOptions::fast_adaptive());
    let (r, _) = solver
        .solve(&ExecCtx::from_env(), 0.4, 0.2)
        .expect("scf converges");
    assert_eq!(r.iterations, 4, "scf iterations");
    assert_pin(r.current_a, 0x3eeac4d49b39ff1f, "current_a");
    assert_pin(r.charge_c, 0xbbd03f57708ab4fc, "charge_c");
    assert_pin(r.residual_v, 0x3f778b9520ee94a0, "residual_v");
    let mut h = KeyHasher::new();
    for &u in &r.atom_potential_ev {
        h.write_f64(u);
    }
    assert_eq!(
        h.finish(),
        0x8ff5b4030aa8f6b6,
        "atom potential digest {:#018x}",
        h.finish()
    );
}

/// The warm-started uniform-grid SCF table — the `from_scf` build of the
/// device flow — with its total iteration count.
#[test]
fn warm_started_fast_scf_table_pinned() {
    let sink = Telemetry::isolated();
    let ctx = ExecCtx::from_env().with_telemetry(sink.clone());
    let solver = ScfSolver::new(&small_ribbon(), ScfOptions::fast());
    let table =
        DeviceTable::from_scf(&ctx, &solver, Polarity::NType, SCF_GRID, 1, true).expect("table");
    assert_eq!(table.solver_path(), "negf-scf");
    assert_eq!(
        sink.snapshot().counter("scf.iterations"),
        Some(80),
        "total scf iterations over the 9 bias points"
    );
    assert_nodes(
        &table,
        "id_a",
        &[
            0x3eccc4fcdb114655,
            0x3eea9877268db62d,
            0x3ef3684ad5b8c8f0,
            0x3eccdc76ba5b93ee,
            0x3eeaa3f92deb18ef,
            0x3ef35390d80f1db4,
            0x3ecd45d58b1127e0,
            0x3eeac02eab63e929,
            0x3ef345fa8566c1f8,
        ],
        "scf",
    );
    assert_nodes(
        &table,
        "q_c",
        &[
            0x3ba56f29662bf356,
            0x3bb51a976b097465,
            0x3bc0db09d0ca539c,
            0xbbcb90fa657bb651,
            0xbbc203b9d1136d19,
            0xbbb669c62d0d4750,
            0xbbdc1ff36786e91e,
            0xbbd9dbad61b3e28e,
            0xbbdc2b5d3a02bef8,
        ],
        "scf",
    );
}

/// The per-energy counters — RGF calls and sweeps on both solver paths,
/// mode-space fallbacks — land on the context's own sink, not on the
/// process-global one.
#[test]
fn per_energy_counters_reach_an_isolated_sink() {
    telemetry::disarm();
    let model = SbfetModel::new(&small_ribbon()).expect("model");
    // A zero separability tolerance degrades every mode-space solver, so
    // each energy point takes the real-space fallback.
    let degraded = NegfTableOptions {
        mode_space: Some(ModeSpaceOptions::default().with_coupling_tol_ev(0.0)),
        ..NegfTableOptions::mode_space()
    };
    for (what, opts) in [
        ("accelerated", NegfTableOptions::accelerated()),
        ("mode-space", NegfTableOptions::mode_space()),
        ("degraded mode-space", degraded),
    ] {
        let sink = Telemetry::isolated();
        let ctx = ExecCtx::from_env().with_telemetry(sink.clone());
        ballistic_negf_table(&ctx, &model, Polarity::NType, SCF_GRID, 1, &opts)
            .expect("negf table");
        let snap = sink.snapshot();
        let points = snap.counter("negf.energy_points").expect("energy points");
        assert!(points > 0, "{what}: energy points");
        assert_eq!(
            snap.counter("negf.rgf.calls"),
            Some(points),
            "{what}: calls"
        );
        assert_eq!(
            snap.counter("negf.rgf.sweeps"),
            Some(2 * points),
            "{what}: sweeps"
        );
        let fallbacks = snap.counter("negf.mode_space.fallbacks");
        if what == "degraded mode-space" {
            assert_eq!(fallbacks, Some(points), "{what}: fallbacks");
        } else {
            assert_eq!(fallbacks, None, "{what}: fallbacks");
        }
    }
}
