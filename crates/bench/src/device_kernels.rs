//! Benchmarks of the device-level kernels: band structure, contact
//! self-energies, RGF transmission, 3D Poisson solves, and the
//! semi-analytic SBFET evaluation that feeds table construction (one bias
//! point, one library array table, one leakage-minimum search).

use crate::harness::Harness;
use gnr_device::{DeviceConfig, DeviceTable, Polarity, SbfetModel, TableGrid};
use gnr_lattice::{unit_cell_hamiltonian, AGnr, DeviceHamiltonian, ZGnr};
use gnr_negf::lead::surface_gf;
use gnr_negf::{Lead, RgfSolver};
use gnr_num::budget::ExecLimits;
use gnr_num::par::ExecCtx;
use gnr_poisson::{Grid3, PoissonProblem, Region};
use std::hint::black_box;

const SUITE: &str = "device";

pub fn register(h: &mut Harness) {
    let gnr = AGnr::new(12).expect("valid index");
    h.bench(SUITE, "band_structure_n12_64k", || {
        black_box(gnr.band_structure(64).expect("bands solve"))
    });

    let z = ZGnr::new(8).expect("valid index");
    h.bench(SUITE, "zigzag_band_structure_n8_64k", || {
        black_box(z.band_structure(64).expect("solves"))
    });

    let (h00, h01) = unit_cell_hamiltonian(gnr);
    h.bench(SUITE, "sancho_rubio_surface_gf_24x24", || {
        black_box(
            surface_gf(black_box(0.9), &h00, &h01, 1e-5, 200, &ExecLimits::none())
                .expect("converges"),
        )
    });

    let ham = DeviceHamiltonian::flat_band(gnr, 12).expect("builds");
    let solver = RgfSolver::new(&ham, Lead::metal(), Lead::metal());
    h.bench(SUITE, "rgf_transmission_12layers", || {
        black_box(solver.transmission(black_box(0.7)).expect("solves"))
    });
    h.bench(SUITE, "rgf_spectral_slice_12layers", || {
        black_box(
            solver
                .spectral_slice(black_box(0.7), &ExecLimits::none())
                .expect("solves"),
        )
    });

    let grid = Grid3::new(40, 12, 12, 0.5).expect("valid grid");
    let mut p = PoissonProblem::new(grid);
    p.set_electrode(Region::slab_x(0, 0), 0.0);
    p.set_electrode(Region::slab_x(39, 39), 0.5);
    p.set_dielectric(Region::new((1, 38), (0, 11), (0, 11)), 3.9);
    p.add_point_charge(5.0, 3.0, 3.0, 1.0);
    h.bench(SUITE, "poisson_cg_5760_cells_cold", || {
        black_box(p.solve(None, &ExecLimits::none()).expect("solves"))
    });
    let warm = p.solve(None, &ExecLimits::none()).expect("solves");
    h.bench(SUITE, "poisson_cg_5760_cells_warm", || {
        black_box(
            p.solve(Some(warm.raw()), &ExecLimits::none())
                .expect("solves"),
        )
    });

    let cfg = DeviceConfig::test_small(12).expect("valid");
    h.bench(SUITE, "sbfet_model_build", || {
        black_box(SbfetModel::new(&cfg).expect("builds"))
    });
    let model = SbfetModel::new(&cfg).expect("builds");
    h.bench(SUITE, "sbfet_bias_point_eval", || {
        black_box(
            model
                .evaluate(black_box(0.45), black_box(0.4))
                .expect("evaluates"),
        )
    });
    // The device library's AllFour array: four references to one model on
    // the Fast-fidelity 21x21 grid, built serially.
    let fast_grid = TableGrid {
        vgs: (-0.35, 1.0),
        vds: (0.0, 0.85),
        points: 21,
    };
    let serial = ExecCtx::serial();
    h.bench(SUITE, "sbfet_table_allfour_fast", || {
        black_box(
            DeviceTable::from_ribbon_models(&serial, &[&model; 4], Polarity::NType, fast_grid)
                .expect("builds"),
        )
    });
    h.bench(SUITE, "sbfet_min_leakage_vg", || {
        black_box(model.minimum_leakage_vg(black_box(0.4)).expect("searches"))
    });
}
