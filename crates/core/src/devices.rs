//! Device-table library with caching.
//!
//! Every experiment in the paper draws device tables from the same small
//! universe: GNR indices N ∈ {9, 12, 15, 18}, oxide impurity charges
//! 0/±q/±2q, applied to one or all four ribbons of the FET array. Building
//! a table costs 3D Poisson solves plus dense bias sampling, so the library
//! memoizes models (one set of Laplace responses per width, shared by its
//! charged variants) and tables, in memory and optionally on disk (JSON).

use crate::error::ExploreError;
use gnr_device::table::TableGrid;
use gnr_device::{
    ChargeImpurity, DeviceConfig, DeviceError, DeviceTable, Polarity, SbfetModel, TableKey,
    TableStore,
};
use gnr_num::par::ExecCtx;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Simulation fidelity of the library.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum Fidelity {
    /// Paper-fidelity: 15 nm channel, 0.25 nm grid, 46-point bias tables.
    Paper,
    /// Reduced fidelity for tests: ~10.7 nm channel, 0.5 nm grid,
    /// 21-point tables. Same physics, coarser numbers.
    Fast,
}

impl Fidelity {
    /// Reads `GNRLAB_FAST=1` from the environment to let the regeneration
    /// binaries run in quick mode.
    pub fn from_env() -> Fidelity {
        match std::env::var("GNRLAB_FAST") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Fidelity::Fast,
            _ => Fidelity::Paper,
        }
    }

    fn device_config(&self, n: usize) -> Result<DeviceConfig, ExploreError> {
        Ok(match self {
            Fidelity::Paper => DeviceConfig::paper_nominal(n)?,
            Fidelity::Fast => DeviceConfig::test_small(n)?,
        })
    }

    fn table_grid(&self) -> TableGrid {
        match self {
            Fidelity::Paper => TableGrid::paper(),
            Fidelity::Fast => TableGrid {
                vgs: (-0.35, 1.0),
                vds: (0.0, 0.85),
                points: 21,
            },
        }
    }
}

/// How many ribbons of the 4-GNR array a variation affects — the paper's
/// lower/upper-bound scenarios (§4).
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum ArrayScenario {
    /// One affected ribbon out of four (lower bound).
    OneOfFour,
    /// All four ribbons affected (upper bound).
    AllFour,
}

impl ArrayScenario {
    /// Both scenarios, in the paper's reporting order.
    pub const BOTH: [ArrayScenario; 2] = [ArrayScenario::OneOfFour, ArrayScenario::AllFour];
}

/// A single-device configuration: ribbon index and oxide impurity charge
/// (in units of q) applied to the affected ribbons.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceVariant {
    /// GNR index of the affected ribbons.
    pub n: usize,
    /// Impurity charge on the affected ribbons (0 = none).
    pub charge_q: f64,
    /// How many ribbons are affected (ignored when the variant equals the
    /// nominal device).
    pub scenario: ArrayScenario,
}

impl DeviceVariant {
    /// The nominal device: four ideal N = 12 ribbons.
    pub fn nominal() -> Self {
        DeviceVariant {
            n: 12,
            charge_q: 0.0,
            scenario: ArrayScenario::AllFour,
        }
    }

    /// A width-only variant.
    pub fn width(n: usize, scenario: ArrayScenario) -> Self {
        DeviceVariant {
            n,
            charge_q: 0.0,
            scenario,
        }
    }

    /// An impurity-only variant on the nominal width.
    pub fn charge(charge_q: f64, scenario: ArrayScenario) -> Self {
        DeviceVariant {
            n: 12,
            charge_q,
            scenario,
        }
    }

    /// `true` when this is exactly the nominal device.
    pub fn is_nominal(&self) -> bool {
        self.n == 12 && self.charge_q == 0.0
    }

    #[cfg(test)]
    fn key(&self) -> String {
        let affected = match self.scenario {
            _ if self.is_nominal() => 4,
            ArrayScenario::OneOfFour => 1,
            ArrayScenario::AllFour => 4,
        };
        format!("n{}q{:+.0}x{}", self.n, self.charge_q, affected)
    }
}

/// Builds and memoizes device tables for the experiment universe.
///
/// Tables are keyed by variant; the n-type raw table is stored and p-type
/// devices are derived by mirroring (with the impurity charge sign flipped,
/// since the mirror conjugates all charges).
pub struct DeviceLibrary {
    fidelity: Fidelity,
    /// Models by `(n, charge_q bits)`.
    models: HashMap<(usize, u64), Arc<SbfetModel>>,
    tables: HashMap<u64, Arc<DeviceTable>>,
    store: Arc<TableStore>,
}

impl DeviceLibrary {
    /// Creates an in-memory library.
    pub fn new(fidelity: Fidelity) -> Self {
        Self::with_store(fidelity, Arc::new(TableStore::in_memory()))
    }

    /// Creates a library that also persists tables as JSON under `dir`
    /// (used by the regeneration binaries to amortize builds across runs).
    pub fn with_disk_cache(fidelity: Fidelity, dir: impl Into<PathBuf>) -> Self {
        Self::with_store(fidelity, Arc::new(TableStore::on_disk(dir)))
    }

    /// Creates a library on an existing (possibly shared) table store —
    /// libraries sharing a store share every table they build, even with
    /// the disk layer disabled.
    pub fn with_store(fidelity: Fidelity, store: Arc<TableStore>) -> Self {
        DeviceLibrary {
            fidelity,
            models: HashMap::new(),
            tables: HashMap::new(),
            store,
        }
    }

    /// The library's fidelity.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The content-addressed store backing this library (clone the `Arc`
    /// to share tables with another library or service handle).
    pub fn store(&self) -> &Arc<TableStore> {
        &self.store
    }

    /// The single-ribbon physical model for `(n, charge_q)`.
    ///
    /// A charged model is derived from the memoized impurity-free model of
    /// the same width ([`SbfetModel::with_added_impurities`]), so each
    /// width pays its three Laplace solves once and each charge one
    /// impurity solve; the result equals
    /// [`SbfetModel::with_impurities`] field for field.
    ///
    /// # Errors
    ///
    /// Propagates device-construction failures.
    pub fn model(&mut self, n: usize, charge_q: f64) -> Result<Arc<SbfetModel>, ExploreError> {
        // Exact charge bits (±0.0 folded): a rounded key would alias
        // fractional charges onto their neighbours and onto the uncharged
        // model the charged ones derive from.
        let key = (
            n,
            if charge_q == 0.0 {
                0
            } else {
                charge_q.to_bits()
            },
        );
        if let Some(m) = self.models.get(&key) {
            return Ok(Arc::clone(m));
        }
        let model = if charge_q == 0.0 {
            SbfetModel::new(&self.fidelity.device_config(n)?)?
        } else {
            self.model(n, 0.0)?
                .with_added_impurities(&[ChargeImpurity::near_source(charge_q)])?
        };
        let arc = Arc::new(model);
        self.models.insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    /// The raw (unshifted) n-type table for a variant: `affected` ribbons
    /// of the variant device in parallel with `4 − affected` nominal ones.
    ///
    /// # Errors
    ///
    /// Propagates model and table failures.
    pub fn ntype_table(
        &mut self,
        ctx: &ExecCtx,
        variant: DeviceVariant,
    ) -> Result<Arc<DeviceTable>, ExploreError> {
        let affected = if variant.is_nominal() {
            0
        } else {
            match variant.scenario {
                ArrayScenario::OneOfFour => 1,
                ArrayScenario::AllFour => 4,
            }
        };
        // The kind tag versions the canonical key: bump it when the
        // device model's physics or calibration changes.
        let key = TableKey::new("library-ntype/v3")
            .field_str("fidelity", &format!("{:?}", self.fidelity))
            .device(&self.fidelity.device_config(variant.n)?)
            .device(&self.fidelity.device_config(12)?)
            .grid(&self.fidelity.table_grid())
            .polarity(Polarity::NType)
            .ribbons(4)
            .field_f64("charge_q", variant.charge_q)
            .field_u64("affected", affected as u64)
            .finish();
        if let Some(t) = self.tables.get(&key) {
            return Ok(Arc::clone(t));
        }
        let store = Arc::clone(&self.store);
        let grid = self.fidelity.table_grid();
        let mut build_err: Option<ExploreError> = None;
        let built = store.get_or_build(key, || {
            let models = (|| -> Result<(Arc<SbfetModel>, Arc<SbfetModel>), ExploreError> {
                Ok((
                    self.model(12, 0.0)?,
                    self.model(variant.n, variant.charge_q)?,
                ))
            })();
            let (nominal, variant_model) = match models {
                Ok(pair) => pair,
                Err(e) => {
                    build_err = Some(e);
                    return Err(DeviceError::config("device library: model build failed"));
                }
            };
            let mut ribbons: Vec<Arc<SbfetModel>> = Vec::with_capacity(4);
            for i in 0..4 {
                if i < affected {
                    ribbons.push(Arc::clone(&variant_model));
                } else {
                    ribbons.push(Arc::clone(&nominal));
                }
            }
            let refs: Vec<&SbfetModel> = ribbons.iter().map(|m| m.as_ref()).collect();
            DeviceTable::from_ribbon_models(ctx, &refs, Polarity::NType, grid)
        });
        let table = match built {
            Ok(t) => t,
            Err(e) => {
                return Err(match build_err {
                    Some(outer) => outer,
                    None => e.into(),
                })
            }
        };
        let arc = Arc::new(table);
        self.tables.insert(key, Arc::clone(&arc));
        Ok(arc)
    }

    /// The p-type table for a variant. The p-device is the ambipolar mirror
    /// of the n-device, so a p-FET "with impurity charge q" corresponds to
    /// the mirrored n-table built with charge `−q` (the mirror conjugates
    /// charge; this encodes the paper's "+q on pGNRFET ≡ −q on nGNRFET").
    ///
    /// # Errors
    ///
    /// Propagates model and table failures.
    pub fn ptype_table(
        &mut self,
        ctx: &ExecCtx,
        variant: DeviceVariant,
    ) -> Result<Arc<DeviceTable>, ExploreError> {
        // `0.0 - q`, not `-q`: an uncharged variant must stay at +0.0, or
        // it keys a second copy of the n-type table and its model.
        let mirrored_variant = DeviceVariant {
            charge_q: 0.0 - variant.charge_q,
            ..variant
        };
        let n_table = self.ntype_table(ctx, mirrored_variant)?;
        Ok(Arc::new(n_table.mirrored()))
    }

    /// The gate shift that places the nominal device's minimum-leakage
    /// point at `V_GS = 0` for supply `vdd` — the paper's baseline offset
    /// engineering (§2). Returns the shift in volts (negative).
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn min_leakage_shift(&mut self, vdd: f64) -> Result<f64, ExploreError> {
        let nominal = self.model(12, 0.0)?;
        Ok(-nominal.minimum_leakage_vg(vdd)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecCtx {
        ExecCtx::serial()
    }

    #[test]
    fn variant_keys_distinguish_configs() {
        let a = DeviceVariant::width(9, ArrayScenario::OneOfFour);
        let b = DeviceVariant::width(9, ArrayScenario::AllFour);
        let c = DeviceVariant::charge(-2.0, ArrayScenario::AllFour);
        assert_ne!(a.key(), b.key());
        assert_ne!(b.key(), c.key());
        assert!(DeviceVariant::nominal().is_nominal());
        assert!(!a.is_nominal());
    }

    #[test]
    fn library_memoizes_models() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let a = lib.model(9, 0.0).unwrap();
        let b = lib.model(9, 0.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// A charged model derives from the memoized uncharged one of its
    /// width, and a fractional charge keys its own model rather than
    /// aliasing onto (and overwriting) the uncharged one.
    #[test]
    fn charged_models_derive_from_the_uncharged_width() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let half = lib.model(9, 0.4).unwrap();
        let plain = lib.model(9, 0.0).unwrap();
        assert_eq!(lib.models.len(), 2);
        assert!(!Arc::ptr_eq(&half, &plain));
        assert_eq!(
            format!("{:?}", plain.config()),
            format!("{:?}", half.config())
        );
        assert_ne!(
            half.drain_current(0.3, 0.4).unwrap().to_bits(),
            plain.drain_current(0.3, 0.4).unwrap().to_bits()
        );
        assert!(Arc::ptr_eq(&plain, &lib.model(9, -0.0).unwrap()));
    }

    #[test]
    fn one_of_four_between_nominal_and_all_four() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let nominal = lib.ntype_table(&ctx(), DeviceVariant::nominal()).unwrap();
        let one = lib
            .ntype_table(&ctx(), DeviceVariant::width(9, ArrayScenario::OneOfFour))
            .unwrap();
        let all = lib
            .ntype_table(&ctx(), DeviceVariant::width(9, ArrayScenario::AllFour))
            .unwrap();
        // N=9 ribbons carry less on-current: monotone ordering of tables.
        let bias = (0.7, 0.4);
        let (i_nom, i_one, i_all) = (
            nominal.current(bias.0, bias.1),
            one.current(bias.0, bias.1),
            all.current(bias.0, bias.1),
        );
        assert!(
            i_nom > i_one && i_one > i_all,
            "{i_nom:.3e} {i_one:.3e} {i_all:.3e}"
        );
    }

    #[test]
    fn ptype_mirror_consistency() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let n = lib.ntype_table(&ctx(), DeviceVariant::nominal()).unwrap();
        let p = lib.ptype_table(&ctx(), DeviceVariant::nominal()).unwrap();
        let a = n.current(0.5, 0.3);
        let b = p.current(-0.5, -0.3);
        assert!((a + b).abs() < 1e-12 * a.abs().max(1e-18));
    }

    /// An uncharged p-type request mirrors to charge +0.0, the key its
    /// n-type twin was built under, so it is served from the memo.
    #[test]
    fn uncharged_ptype_reuses_the_ntype_table_and_model() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        for v in [
            DeviceVariant::nominal(),
            DeviceVariant::width(9, ArrayScenario::AllFour),
        ] {
            lib.ntype_table(&ctx(), v).unwrap();
            let (models, tables) = (lib.models.len(), lib.tables.len());
            lib.ptype_table(&ctx(), v).unwrap();
            assert_eq!(lib.models.len(), models, "no new model for {v:?}");
            assert_eq!(lib.tables.len(), tables, "no new table for {v:?}");
        }
    }

    #[test]
    fn disk_cache_roundtrip() {
        let dir = std::env::temp_dir().join("gnrlab-test-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let mut lib = DeviceLibrary::with_disk_cache(Fidelity::Fast, &dir);
        let a = lib.ntype_table(&ctx(), DeviceVariant::nominal()).unwrap();
        // A fresh library must hit the disk cache (same values, no models).
        let mut lib2 = DeviceLibrary::with_disk_cache(Fidelity::Fast, &dir);
        let b = lib2.ntype_table(&ctx(), DeviceVariant::nominal()).unwrap();
        assert!(lib2.models.is_empty(), "cache hit must not build models");
        for (vg, vd) in [(0.3, 0.2), (0.6, 0.5)] {
            assert!((a.current(vg, vd) - b.current(vg, vd)).abs() < 1e-18);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn min_leakage_shift_is_negative_half_vdd_ish() {
        let mut lib = DeviceLibrary::new(Fidelity::Fast);
        let s = lib.min_leakage_shift(0.4).unwrap();
        assert!(s < -0.1 && s > -0.35, "shift {s}");
    }
}
