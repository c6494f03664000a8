//! One bench per paper table/figure: each target exercises the complete
//! harness that regenerates the corresponding artifact, at reduced size so
//! the suite finishes in minutes. The full-fidelity artifacts are produced
//! by the `gnrfet-explore` binaries (fig2..fig7, table1..table4).

use crate::harness::Harness;
use gnr_cmos::CmosNode;
use gnr_device::{ChargeImpurity, DeviceConfig, SbfetModel};
use gnr_num::par::ExecCtx;
use gnrfet_explore::comparison::cmos_row;
use gnrfet_explore::contours::design_space_map;
use gnrfet_explore::devices::{ArrayScenario, DeviceLibrary, DeviceVariant, Fidelity};
use gnrfet_explore::latch::latch_study;
use gnrfet_explore::monte_carlo::{characterize_stage_universe, monte_carlo_from_universe};
use gnrfet_explore::variability::{inverter_figures, variability_table};
use std::hint::black_box;

const SUITE: &str = "experiments";

/// `lib` once `warm` has built the tables a bench needs. The benches
/// share one library, which starts empty: an unfiltered run builds each
/// table once, and a filtered run builds only its own bench's tables.
fn warmed<T>(
    lib: &mut DeviceLibrary,
    warm: impl FnOnce(&mut DeviceLibrary) -> T,
) -> &mut DeviceLibrary {
    warm(lib);
    lib
}

pub fn register(h: &mut Harness) {
    let cfg = DeviceConfig::test_small(12).expect("valid");
    h.bench_with(
        SUITE,
        "fig2_iv_sweep_31pts_4vd",
        || SbfetModel::new(&cfg).expect("builds"),
        |model| {
            let mut acc = 0.0;
            for vd in [0.05, 0.25, 0.5, 0.75] {
                for i in 0..=30 {
                    acc += model
                        .drain_current(i as f64 * 0.025, vd)
                        .expect("evaluates");
                }
            }
            black_box(acc)
        },
    );

    let ctx = ExecCtx::serial();
    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    h.bench_with(
        SUITE,
        "fig3_design_space_2x2",
        || {
            warmed(&mut lib, |lib| {
                design_space_map(&ctx, lib, &[0.4], &[0.1], 15).expect("warms");
            })
        },
        |lib| design_space_map(&ctx, lib, &[0.35, 0.45], &[0.08, 0.14], 15).expect("maps"),
    );

    h.bench(SUITE, "table1_cmos_row_full_ro", || {
        black_box(cmos_row(CmosNode::N22, 0.8, 15).expect("measures"))
    });

    h.bench_with(
        SUITE,
        "fig4_width_iv_2widths",
        || -> Vec<SbfetModel> {
            [9usize, 12]
                .iter()
                .map(|&n| {
                    SbfetModel::new(&DeviceConfig::test_small(n).expect("valid")).expect("builds")
                })
                .collect()
        },
        |models| {
            let mut acc = 0.0;
            for m in models.iter() {
                for i in 0..=16 {
                    acc += m.drain_current(i as f64 * 0.05, 0.5).expect("evaluates");
                }
            }
            black_box(acc)
        },
    );

    h.bench(SUITE, "fig5_impurity_model_build", || {
        black_box(
            SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(-2.0)])
                .expect("builds"),
        )
    });

    for (name, axis) in [
        ("table2_width_2x2", [("N=9", 9, 0.0), ("N=18", 18, 0.0)]),
        ("table3_impurity_2x2", [("-2q", 12, -2.0), ("+2q", 12, 2.0)]),
        (
            "table4_combined_2x2",
            [("9,+q", 9, 1.0), ("18,-q", 18, -1.0)],
        ),
    ] {
        let axis: Vec<(String, usize, f64)> = axis
            .iter()
            .map(|&(label, n, q)| (label.to_string(), n, q))
            .collect();
        let table = |lib: &mut DeviceLibrary| {
            variability_table(&ctx, lib, &axis, &axis, 0.4).expect("tables")
        };
        h.bench_with(SUITE, name, || warmed(&mut lib, table), |lib| table(lib));
    }

    // Characterize a reduced universe proxy via the full API once, then
    // bench the sampling composition.
    h.bench_with(
        SUITE,
        "fig6_monte_carlo_10k_samples",
        || characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).expect("characterizes"),
        |universe| black_box(monte_carlo_from_universe(&ctx, universe, 10_000, 7)),
    );
    // Also bench one stage characterization (the expensive phase's unit).
    let stage = |(lib, shift): &mut (&mut DeviceLibrary, f64)| {
        inverter_figures(
            &ctx,
            lib,
            DeviceVariant::width(9, ArrayScenario::AllFour),
            DeviceVariant::nominal(),
            0.4,
            *shift,
            Some(5e9),
        )
        .expect("measures")
    };
    h.bench_with(
        SUITE,
        "fig6_stage_characterization_unit",
        || {
            let shift = lib.min_leakage_shift(0.4).expect("shift");
            let mut state = (&mut lib, shift);
            stage(&mut state);
            state
        },
        stage,
    );

    let latch = |lib: &mut DeviceLibrary| latch_study(&ctx, lib, 0.4).expect("studies");
    h.bench_with(
        SUITE,
        "fig7_latch_three_cases",
        || warmed(&mut lib, latch),
        |lib| latch(lib),
    );
}
