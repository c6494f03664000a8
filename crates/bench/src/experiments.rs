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

pub fn register(h: &mut Harness) {
    let cfg = DeviceConfig::test_small(12).expect("valid");
    let model = SbfetModel::new(&cfg).expect("builds");
    h.bench(SUITE, "fig2_iv_sweep_31pts_4vd", || {
        let mut acc = 0.0;
        for vd in [0.05, 0.25, 0.5, 0.75] {
            for i in 0..=30 {
                acc += model
                    .drain_current(i as f64 * 0.025, vd)
                    .expect("evaluates");
            }
        }
        black_box(acc)
    });

    let mut lib = DeviceLibrary::new(Fidelity::Fast);
    // Warm the table cache outside the timed region.
    let ctx = ExecCtx::serial();
    let _ = design_space_map(&ctx, &mut lib, &[0.4], &[0.1], 15).expect("warms");
    h.bench(SUITE, "fig3_design_space_2x2", || {
        black_box(design_space_map(&ctx, &mut lib, &[0.35, 0.45], &[0.08, 0.14], 15).expect("maps"))
    });

    h.bench(SUITE, "table1_cmos_row_full_ro", || {
        black_box(cmos_row(CmosNode::N22, 0.8, 15).expect("measures"))
    });

    let models: Vec<SbfetModel> = [9usize, 12]
        .iter()
        .map(|&n| SbfetModel::new(&DeviceConfig::test_small(n).expect("valid")).expect("builds"))
        .collect();
    h.bench(SUITE, "fig4_width_iv_2widths", || {
        let mut acc = 0.0;
        for m in &models {
            for i in 0..=16 {
                acc += m.drain_current(i as f64 * 0.05, 0.5).expect("evaluates");
            }
        }
        black_box(acc)
    });

    h.bench(SUITE, "fig5_impurity_model_build", || {
        black_box(
            SbfetModel::with_impurities(&cfg, &[ChargeImpurity::near_source(-2.0)])
                .expect("builds"),
        )
    });

    let axis2: Vec<(String, usize, f64)> = vec![("N=9".into(), 9, 0.0), ("N=18".into(), 18, 0.0)];
    let _ = variability_table(&ctx, &mut lib, &axis2, &axis2, 0.4).expect("warms");
    h.bench(SUITE, "table2_width_2x2", || {
        black_box(variability_table(&ctx, &mut lib, &axis2, &axis2, 0.4).expect("tables"))
    });
    let axis3: Vec<(String, usize, f64)> = vec![("-2q".into(), 12, -2.0), ("+2q".into(), 12, 2.0)];
    let _ = variability_table(&ctx, &mut lib, &axis3, &axis3, 0.4).expect("warms");
    h.bench(SUITE, "table3_impurity_2x2", || {
        black_box(variability_table(&ctx, &mut lib, &axis3, &axis3, 0.4).expect("tables"))
    });
    let axis4: Vec<(String, usize, f64)> =
        vec![("9,+q".into(), 9, 1.0), ("18,-q".into(), 18, -1.0)];
    let _ = variability_table(&ctx, &mut lib, &axis4, &axis4, 0.4).expect("warms");
    h.bench(SUITE, "table4_combined_2x2", || {
        black_box(variability_table(&ctx, &mut lib, &axis4, &axis4, 0.4).expect("tables"))
    });

    // Characterize a reduced universe proxy via the full API once, then
    // bench the sampling composition.
    let universe =
        characterize_stage_universe(&ctx, &mut lib, 0.4, 15, None).expect("characterizes");
    h.bench(SUITE, "fig6_monte_carlo_10k_samples", || {
        black_box(monte_carlo_from_universe(&ctx, &universe, 10_000, 7))
    });
    // Also bench one stage characterization (the expensive phase's unit).
    let shift = lib.min_leakage_shift(0.4).expect("shift");
    h.bench(SUITE, "fig6_stage_characterization_unit", || {
        black_box(
            inverter_figures(
                &ctx,
                &mut lib,
                DeviceVariant::width(9, ArrayScenario::AllFour),
                DeviceVariant::nominal(),
                0.4,
                shift,
                Some(5e9),
            )
            .expect("measures"),
        )
    });

    let _ = latch_study(&ctx, &mut lib, 0.4).expect("warms");
    h.bench(SUITE, "fig7_latch_three_cases", || {
        black_box(latch_study(&ctx, &mut lib, 0.4).expect("studies"))
    });
}
