//! `device_cold`: cold Fast-fidelity device characterization into an empty
//! on-disk table store — the store-write path every host pays once.
//!
//! Ops, each one build call: the nine Monte Carlo device models, their
//! nine n-type array tables, the small N = 9 ribbon's model, its ballistic
//! NEGF table on the mode-space and the accelerated real-space paths, and
//! one warm-started self-consistent (NEGF + Poisson) table. The seed
//! shuffles the order within each group, which leaves the work unchanged.

use crate::record::{Digest, Recorder};
use crate::Workload;
use gnr_device::{
    ballistic_negf_table, DeviceConfig, DeviceTable, NegfTableOptions, Polarity, SbfetModel,
    ScfOptions, ScfSolver, TableGrid, TableKey, TableStore,
};
use gnr_num::par::ExecCtx;
use gnr_num::rng::Rng;
use gnr_num::telemetry::{self, Telemetry};
use gnrfet_explore::devices::{ArrayScenario, DeviceLibrary, DeviceVariant, Fidelity};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

/// The nine Monte Carlo variants: N ∈ {9, 12, 15} × q ∈ {−1, 0, +1}, all
/// four ribbons affected.
pub fn mc_variants() -> Vec<DeviceVariant> {
    [9, 12, 15]
        .iter()
        .flat_map(|&n| {
            [-1.0, 0.0, 1.0].map(|charge_q| DeviceVariant {
                n,
                charge_q,
                scenario: ArrayScenario::AllFour,
            })
        })
        .collect()
}

/// The small ribbon of the NEGF and SCF builds (N = 9, six channel cells).
fn small_ribbon() -> Result<DeviceConfig, String> {
    let mut cfg = DeviceConfig::test_small(9).map_err(|e| e.to_string())?;
    cfg.channel_cells = 6;
    Ok(cfg)
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

/// The workload's inputs.
pub struct DeviceCold {
    model_order: Vec<usize>,
    table_order: Vec<usize>,
    mode_space_first: bool,
    store_root: PathBuf,
    /// Set-ups so far; each one gets a new, empty store directory.
    setups: Cell<usize>,
}

impl DeviceCold {
    /// Inputs for `seed`, building into new directories under `store_root`
    /// (emptied here, before any timing).
    pub fn plan(seed: u64, store_root: PathBuf) -> Result<Self, String> {
        match std::fs::remove_dir_all(&store_root) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("emptying {}: {e}", store_root.display())),
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut model_order: Vec<usize> = (0..9).collect();
        let mut table_order: Vec<usize> = (0..9).collect();
        rng.shuffle(&mut model_order);
        rng.shuffle(&mut table_order);
        Ok(DeviceCold {
            model_order,
            table_order,
            mode_space_first: rng.below(2) == 0,
            store_root,
            setups: Cell::new(0),
        })
    }
}

/// Per-pass state: the pool and a library over an empty on-disk store.
pub struct State {
    ctx: ExecCtx,
    lib: DeviceLibrary,
    store: Arc<TableStore>,
    store_dir: PathBuf,
}

/// What a pass built, by op label.
pub struct Output {
    built: Vec<(String, Result<String, String>)>,
    store_dir: PathBuf,
}

impl Workload for DeviceCold {
    type State = State;
    type Output = Output;
    const PASS_S: f64 = 21.0;

    fn setup(&self, threads: usize, _rec: &mut Recorder<'_>) -> Result<State, String> {
        let n = self.setups.get();
        self.setups.set(n + 1);
        let store_dir = self.store_root.join(n.to_string());
        std::fs::create_dir_all(&store_dir)
            .map_err(|e| format!("creating {}: {e}", store_dir.display()))?;
        let ctx = ExecCtx::with_threads(threads);
        let store = Arc::new(TableStore::on_disk(&store_dir));
        let lib = DeviceLibrary::with_store(Fidelity::Fast, Arc::clone(&store));
        Ok(State {
            ctx,
            lib,
            store,
            store_dir,
        })
    }

    fn run(&self, state: State, rec: &mut Recorder<'_>) -> Output {
        let State {
            ctx,
            mut lib,
            store,
            store_dir,
        } = state;
        let variants = mc_variants();
        let mut built = Vec::new();
        for &i in &self.model_order {
            let v = variants[i];
            let r = rec.op("device.model.busy_s", || lib.model(v.n, v.charge_q));
            built.push((
                format!("model n{} q{:+}", v.n, v.charge_q),
                r.map(|_| String::new()),
            ));
        }
        for &i in &self.table_order {
            let v = variants[i];
            let r = rec.op("device.table.busy_s", || lib.ntype_table(&ctx, v));
            built.push((
                format!("table n{} q{:+}", v.n, v.charge_q),
                r.map(|t| t.solver_path().to_string()),
            ));
        }
        let ribbon = small_ribbon().and_then(|cfg| {
            rec.op("device.model.busy_s", || SbfetModel::new(&cfg))
                .map(|model| (cfg, model))
        });
        let (cfg, model) = match ribbon {
            Ok(pair) => pair,
            Err(e) => {
                built.push(("model n9 ribbon".into(), Err(e)));
                return Output { built, store_dir };
            }
        };
        let mut negf = [
            NegfTableOptions::mode_space(),
            NegfTableOptions::accelerated(),
        ];
        if !self.mode_space_first {
            negf.reverse();
        }
        for opts in &negf {
            let key = TableKey::new("flowbench-negf/v1")
                .device(&cfg)
                .grid(&NEGF_GRID)
                .polarity(Polarity::NType)
                .ribbons(1)
                .negf(opts)
                .finish();
            let r = rec.op("device.negf_table.busy_s", || {
                store.get_or_build(key, || {
                    ballistic_negf_table(&ctx, &model, Polarity::NType, NEGF_GRID, 1, opts)
                })
            });
            built.push((
                format!("negf {}", opts.solver_path()),
                r.map(|t| t.solver_path().to_string()),
            ));
        }
        // A degraded SCF solve only shows as a telemetry count. With
        // tracing off, the op reads it from a private sink instead of
        // arming the global one.
        let sink = if telemetry::is_armed() {
            Telemetry::global()
        } else {
            Telemetry::isolated()
        };
        let degraded = |sink: &Telemetry| sink.snapshot().counter("scf.degraded").unwrap_or(0);
        let before = degraded(&sink);
        let scf_ctx = ctx.with_telemetry(sink.clone());
        let solver = ScfSolver::new(&cfg, ScfOptions::fast());
        let key = TableKey::new("flowbench-scf/v1")
            .device(&cfg)
            .grid(&SCF_GRID)
            .polarity(Polarity::NType)
            .ribbons(1)
            .field_str("scf", "fast, warm start")
            .finish();
        let r = rec.op("device.scf.busy_s", || {
            store.get_or_build(key, || {
                DeviceTable::from_scf(&scf_ctx, &solver, Polarity::NType, SCF_GRID, 1, true)
            })
        });
        if r.is_ok() && degraded(&sink) > before {
            rec.mark_degraded("scf table");
        }
        built.push(("scf".into(), r.map(|t| t.solver_path().to_string())));
        Output { built, store_dir }
    }

    fn verify(&self, out: Output) -> Result<u64, String> {
        let expect_path = |label: &str| match label {
            "negf negf-mode-space" => Some("negf-mode-space"),
            "negf negf-real-space" => Some("negf-real-space"),
            "scf" => Some("negf-scf"),
            _ => None,
        };
        let mut digest = Digest::default();
        let mut built = out.built;
        built.sort_by(|a, b| a.0.cmp(&b.0));
        for (label, result) in &built {
            digest.add(label);
            match result {
                Ok(path) => {
                    if let Some(want) = expect_path(label) {
                        if path != want {
                            return Err(format!("{label}: solver path {path}, want {want}"));
                        }
                    }
                    digest.add(path);
                }
                Err(e) => digest.add(&format!("error: {e}")),
            }
        }
        // The table JSON as persisted: the identity witness across passes,
        // pool sizes and runs.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&out.store_dir)
            .map_err(|e| format!("listing {}: {e}", out.store_dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        files.sort();
        for path in &files {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            digest.add(&path.file_name().unwrap_or_default().to_string_lossy());
            digest.add(&text);
        }
        std::fs::remove_dir_all(&out.store_dir)
            .map_err(|e| format!("removing {}: {e}", out.store_dir.display()))?;
        Ok(digest.value())
    }
}
