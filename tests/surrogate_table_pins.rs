//! Golden pins for the WKB-surrogate table build (DESIGN.md §2.1).
//!
//! Every table is pinned as an FNV digest of the `f64::to_bits` patterns of
//! its node values (every node's current, then every node's charge, as
//! persisted in the table JSON), so any change to the bias-point
//! evaluation, the drain-bias column hoist, the distinct-ribbon dedupe or
//! the per-ribbon accumulation order fails here instead of drifting
//! silently. The pins cover the Fast-fidelity library tables of the Monte
//! Carlo flow (AllFour, OneOfFour and nominal arrays), the scaled
//! single-model table, the golden-section leakage minimum, the library's
//! charged model and the frozen-profile pre-pass of a ballistic NEGF table.
//!
//! A last test counts the Poisson solves a fresh library pays for the nine
//! Monte Carlo variants: three Laplace responses per width, one impurity
//! footprint per charged variant. It arms the process-global telemetry
//! sink, so it holds the write side of [`solver_lock`]; every other test
//! (all of them run Poisson solves) holds the read side.
//!
//! The suite runs under `GNR_THREADS=1` and `=4` in `scripts/verify.sh`;
//! every pin is thread-count invariant.

use gnrlab::device::{
    ballistic_negf_table, ChargeImpurity, DeviceConfig, DeviceTable, NegfTableOptions, Polarity,
    SbfetModel, TableGrid,
};
use gnrlab::explore::devices::{ArrayScenario, DeviceLibrary, DeviceVariant, Fidelity};
use gnrlab::num::par::ExecCtx;
use gnrlab::num::{telemetry, Json, KeyHasher};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The Fast-fidelity library's bias grid.
const FAST_GRID: TableGrid = TableGrid {
    vgs: (-0.35, 1.0),
    vds: (0.0, 0.85),
    points: 21,
};

static SOLVER_LOCK: RwLock<()> = RwLock::new(());

/// Shared access for tests that solve but do not count. Poisoned locks are
/// recovered.
fn solver_lock() -> RwLockReadGuard<'static, ()> {
    SOLVER_LOCK.read().unwrap_or_else(|p| p.into_inner())
}

/// Exclusive access for the test that counts global Poisson solves.
fn counting_lock() -> RwLockWriteGuard<'static, ()> {
    SOLVER_LOCK.write().unwrap_or_else(|p| p.into_inner())
}

/// Digest of every node's current, then every node's charge.
fn table_digest(table: &DeviceTable) -> u64 {
    let doc = Json::parse(&table.to_json().expect("table json")).expect("valid json");
    let mut h = KeyHasher::new();
    for key in ["id_a", "q_c"] {
        for v in doc
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("missing {key}"))
        {
            h.write_f64(v.as_f64().expect("finite node value"));
        }
    }
    h.finish()
}

fn assert_digest(actual: u64, expected: u64, what: &str) {
    assert_eq!(
        actual, expected,
        "{what}: digest {actual:#018x}, pinned {expected:#018x}"
    );
}

fn library_table(variant: DeviceVariant) -> DeviceTable {
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let table = lib
        .ntype_table(&ExecCtx::from_env(), variant)
        .expect("library table");
    assert_eq!(table.solver_path(), "surrogate");
    assert_eq!(table.ribbons(), 4);
    (*table).clone()
}

#[test]
fn all_four_n9_plus_q_table_pinned() {
    let _g = solver_lock();
    let table = library_table(DeviceVariant {
        n: 9,
        charge_q: 1.0,
        scenario: ArrayScenario::AllFour,
    });
    assert_digest(table_digest(&table), 0x22a8051f23305a81, "AllFour N=9 +q");
}

#[test]
fn one_of_four_n15_minus_q_table_pinned() {
    let _g = solver_lock();
    let table = library_table(DeviceVariant {
        n: 15,
        charge_q: -1.0,
        scenario: ArrayScenario::OneOfFour,
    });
    assert_digest(
        table_digest(&table),
        0xf5c0cf46cf5516c2,
        "OneOfFour N=15 -q",
    );
}

#[test]
fn nominal_table_pinned() {
    let _g = solver_lock();
    let table = library_table(DeviceVariant::nominal());
    assert_digest(table_digest(&table), 0xf20b9c07be8ce1ff, "nominal");
}

/// The scaled single-model path: one evaluation per node, times four.
#[test]
fn from_model_four_ribbons_pinned() {
    let _g = solver_lock();
    let model = SbfetModel::new(&DeviceConfig::test_small(12).expect("config")).expect("model");
    let table =
        DeviceTable::from_model(&ExecCtx::from_env(), &model, Polarity::NType, FAST_GRID, 4)
            .expect("table");
    assert_eq!(table.ribbons(), 4);
    assert_digest(table_digest(&table), 0xf20b9c07be8ce1ff, "from_model x4");
}

/// The library's charged model is the one `with_impurities` builds from
/// scratch: same responses, bands and impurity footprint, field for field.
#[test]
fn library_charged_model_matches_with_impurities() {
    let _g = solver_lock();
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    let charged = lib.model(12, -1.0).expect("library model");
    let cfg = DeviceConfig::test_small(12).expect("config");
    let direct = SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(-1.0)])
        .expect("direct model");
    let debug = format!("{charged:?}");
    assert_eq!(debug, format!("{direct:?}"));
    let mut h = KeyHasher::new();
    h.write_str(&debug);
    assert_digest(h.finish(), 0x74ccfb4e83ed4506, "charged model Debug");
}

#[test]
fn minimum_leakage_vg_pinned() {
    let _g = solver_lock();
    let model = SbfetModel::new(&DeviceConfig::test_small(12).expect("config")).expect("model");
    let vg = model.minimum_leakage_vg(0.4).expect("search");
    assert_eq!(
        vg.to_bits(),
        0x3fc9f0f36d68019a,
        "minimum_leakage_vg(0.4) = {vg:?} = {:#018x}",
        vg.to_bits()
    );
}

/// The frozen-profile pre-pass of the ballistic NEGF builder reads the
/// surrogate's self-consistent potential at every node.
#[test]
fn ballistic_negf_table_pinned() {
    let _g = solver_lock();
    let mut cfg = DeviceConfig::test_small(9).expect("config");
    cfg.channel_cells = 6;
    let model = SbfetModel::new(&cfg).expect("model");
    let grid = TableGrid {
        vgs: (0.0, 0.6),
        vds: (0.05, 0.35),
        points: 3,
    };
    let table = ballistic_negf_table(
        &ExecCtx::from_env(),
        &model,
        Polarity::NType,
        grid,
        1,
        &NegfTableOptions::accelerated(),
    )
    .expect("negf table");
    assert_digest(
        table_digest(&table),
        0x6c9e4ef1c32ad563,
        "ballistic NEGF 3x3",
    );
}

/// Disarms and clears the global sink on drop, so a failing assertion
/// cannot leak an armed sink.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        telemetry::disarm();
        telemetry::reset();
    }
}

/// A fresh library building the nine Monte Carlo variants pays three
/// Laplace solves per width (N = 9, 12, 15) and one impurity footprint per
/// charged variant (q = ±1 on each width): 3·3 + 6 Poisson solves.
#[test]
fn mc_variants_pay_three_laplace_solves_per_width() {
    let _g = counting_lock();
    telemetry::reset();
    telemetry::arm();
    let _armed = Armed;
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    for n in [9, 12, 15] {
        for charge_q in [-1.0, 0.0, 1.0] {
            lib.model(n, charge_q).expect("model");
        }
    }
    let solves = telemetry::snapshot().counter("poisson.solves");
    assert_eq!(solves, Some(3 * 3 + 6), "poisson.solves");
}
