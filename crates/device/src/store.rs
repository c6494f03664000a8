//! Content-addressed device-table cache: canonical keys and an
//! atomic-write JSON store.
//!
//! # Canonical keys
//!
//! A [`TableKey`] accumulates every input that can change a table —
//! geometry ([`DeviceConfig`] field by field), bias grid, polarity,
//! ribbon count, solver options — into one FNV-64 hash
//! ([`gnr_num::checkpoint::KeyHasher`]). Fields are written in a fixed
//! order with type-tagged, length-prefixed encodings, so the key is a
//! *stability contract*: the same request always maps to the same hash,
//! and perturbing any single field (a grid bound, an energy step, the
//! oxide thickness) maps to a different one. Keys are versioned by the
//! `kind` string passed to [`TableKey::new`]; bump it when the table
//! physics or serialization changes.
//!
//! # The store
//!
//! A [`TableStore`] is a two-level cache of *serialized* tables:
//!
//! * an in-memory map `key → canonical JSON`, shared across every
//!   [`clone`](std::sync::Arc) of the handle — this is what lets one run
//!   reuse a table across stages even with the disk layer disabled;
//! * an optional on-disk layer (`tbl-<key>.json` under the store
//!   directory), written with the same temp-file + sync + rename
//!   discipline as [`gnr_num::checkpoint::save`], so a crash mid-write
//!   never leaves a torn entry.
//!
//! The store caches the *JSON string*, not the in-memory table: a cache
//! hit re-parses the stored document, and because the JSON layer prints
//! shortest-round-trip numbers, a hit is byte-identical to what a cold
//! build would have serialized. Corrupt entries (unreadable,
//! unparseable, or an armed [`FAULT_SITE`] injection) are evicted —
//! deleted and rebuilt from scratch — never served.
//!
//! Telemetry: `table_cache.hits`, `table_cache.misses`,
//! `table_cache.evictions`, `table_cache.writes`.

use crate::config::DeviceConfig;
use crate::error::DeviceError;
use crate::negf_table::NegfTableOptions;
use crate::table::{DeviceTable, Polarity, TableGrid};
use gnr_negf::transport::RefineOptions;
use gnr_num::checkpoint::KeyHasher;
use gnr_num::{fault, telemetry};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Fault site probed on every disk read; arming it makes a present cache
/// entry read as corrupt (evicted, rebuilt clean).
pub const FAULT_SITE: &str = "table_cache.corrupt";

/// Canonical cache-key builder for device tables.
///
/// All `with_*`-style methods consume and return the builder so a key
/// reads as one chained expression ending in [`finish`](TableKey::finish).
#[derive(Clone, Copy, Debug)]
pub struct TableKey {
    h: KeyHasher,
}

impl TableKey {
    /// Starts a key for the given `kind` (a versioned namespace such as
    /// `"library-ntype/v3"`; distinct kinds never collide by
    /// construction).
    pub fn new(kind: &str) -> Self {
        let mut h = KeyHasher::new();
        h.write_str("gnr-table-key/v1");
        h.write_str(kind);
        TableKey { h }
    }

    /// Mixes in the full device geometry, field by field.
    pub fn device(mut self, cfg: &DeviceConfig) -> Self {
        self.h.write_str("device");
        self.h.write_u64(cfg.gnr.index() as u64);
        self.h.write_u64(cfg.channel_cells as u64);
        self.h.write_f64(cfg.t_ox_nm);
        self.h.write_f64(cfg.contact_nm);
        self.h.write_f64(cfg.grid_h_nm);
        self.h.write_f64(cfg.temperature_k);
        self.h.write_f64(cfg.contact_gamma_ev);
        self.h.write_f64(cfg.gate_offset_v);
        self
    }

    /// Mixes in the bias grid.
    pub fn grid(mut self, grid: &TableGrid) -> Self {
        self.h.write_str("grid");
        self.h.write_f64(grid.vgs.0);
        self.h.write_f64(grid.vgs.1);
        self.h.write_f64(grid.vds.0);
        self.h.write_f64(grid.vds.1);
        self.h.write_u64(grid.points as u64);
        self
    }

    /// Mixes in the table polarity.
    pub fn polarity(mut self, p: Polarity) -> Self {
        self.h.write_str("polarity");
        self.h.write_u64(match p {
            Polarity::NType => 0,
            Polarity::PType => 1,
        });
        self
    }

    /// Mixes in the parallel ribbon count.
    pub fn ribbons(mut self, n: usize) -> Self {
        self.h.write_str("ribbons");
        self.h.write_u64(n as u64);
        self
    }

    /// Mixes in the NEGF sweep options (the solver path: energy grid,
    /// refinement, surface-GF cache, mode-space reduction).
    ///
    /// The mode-space fields are appended only when the path is enabled,
    /// so keys minted before mode-space existed are unchanged.
    pub fn negf(mut self, opts: &NegfTableOptions) -> Self {
        self.h.write_str("negf");
        self.h.write_f64(opts.energy_step_ev);
        self.h.write_f64(opts.energy_pad_ev);
        self.h.write_u64(u64::from(opts.use_cache));
        self = self.refine(opts.refine.as_ref());
        if let Some(ms) = &opts.mode_space {
            self.h.write_str("mode-space");
            self.h.write_f64(ms.window_margin_ev);
            self.h.write_f64(ms.coupling_tol_ev);
            self.h.write_u64(ms.theta_samples as u64);
            self.h.write_f64(ms.rank_tol);
        }
        self
    }

    fn refine(mut self, refine: Option<&RefineOptions>) -> Self {
        match refine {
            None => self.h.write_u64(0),
            Some(r) => {
                self.h.write_u64(1);
                self.h.write_f64(r.tol_t);
                self.h.write_f64(r.tol_dos_rel);
                self.h.write_u64(r.max_depth as u64);
                self.h.write_u64(r.max_points as u64);
            }
        }
        self
    }

    /// Mixes in a named string field (extension point for callers with
    /// inputs the typed methods do not cover).
    pub fn field_str(mut self, name: &str, v: &str) -> Self {
        self.h.write_str(name);
        self.h.write_str(v);
        self
    }

    /// Mixes in a named `f64` field (by bit pattern).
    pub fn field_f64(mut self, name: &str, v: f64) -> Self {
        self.h.write_str(name);
        self.h.write_f64(v);
        self
    }

    /// Mixes in a named `u64` field.
    pub fn field_u64(mut self, name: &str, v: u64) -> Self {
        self.h.write_str(name);
        self.h.write_u64(v);
        self
    }

    /// The accumulated 64-bit content address.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }
}

/// Two-level (memory + optional disk) content-addressed store of
/// serialized [`DeviceTable`]s. See the [module docs](self).
#[derive(Debug)]
pub struct TableStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<u64, String>>,
}

impl TableStore {
    /// A memory-only store: intra-run reuse, nothing persisted.
    pub fn in_memory() -> Self {
        TableStore {
            dir: None,
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// A store that also persists entries as JSON under `dir` (created on
    /// first write).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        TableStore {
            dir: Some(dir.into()),
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// The on-disk directory, if the disk layer is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("tbl-{key:016x}.json")))
    }

    /// The cached canonical JSON for `key`, if present in memory or on
    /// disk (the byte-identity witness used by tests; does not count a
    /// hit or probe the fault site).
    pub fn cached_json(&self, key: u64) -> Option<String> {
        if let Some(json) = self.lock_mem().get(&key) {
            return Some(json.clone());
        }
        let path = self.entry_path(key)?;
        std::fs::read_to_string(path).ok()
    }

    fn lock_mem(&self) -> std::sync::MutexGuard<'_, HashMap<u64, String>> {
        self.mem.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Returns the table for `key`, building (and caching) it on a miss.
    ///
    /// Hits re-parse the stored canonical JSON, so a warm table
    /// serializes byte-identically to the cold build that populated the
    /// entry. Corrupt disk entries are evicted and rebuilt.
    ///
    /// The error type is the caller's: `build` returns it directly, and
    /// the store's own failures convert into it.
    ///
    /// # Errors
    ///
    /// Propagates `build` failures and serialization errors.
    pub fn get_or_build<E, F>(&self, key: u64, build: F) -> Result<DeviceTable, E>
    where
        E: From<DeviceError>,
        F: FnOnce() -> Result<DeviceTable, E>,
    {
        if let Some(json) = self.lock_mem().get(&key).cloned() {
            telemetry::counter_inc("table_cache.hits");
            return Ok(DeviceTable::from_json(&json)?);
        }
        if let Some(table) = self.load_disk(key) {
            telemetry::counter_inc("table_cache.hits");
            return Ok(table);
        }
        telemetry::counter_inc("table_cache.misses");
        let table = build()?;
        let json = table.to_json()?;
        self.persist(key, &json);
        self.lock_mem().insert(key, json);
        Ok(table)
    }

    /// Disk lookup: parses the entry, promoting it to the memory layer on
    /// success. Anything unexpected — unreadable file, bad JSON, or an
    /// armed [`FAULT_SITE`] injection — evicts the entry (deletes the
    /// file) and reports a miss, so a corrupt entry is never served.
    fn load_disk(&self, key: u64) -> Option<DeviceTable> {
        let path = self.entry_path(key)?;
        if !path.exists() {
            return None;
        }
        let evict = || {
            let _ = std::fs::remove_file(&path);
            telemetry::counter_inc("table_cache.evictions");
        };
        if fault::should_fail(FAULT_SITE) {
            evict();
            return None;
        }
        let json = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(_) => {
                evict();
                return None;
            }
        };
        match DeviceTable::from_json(&json) {
            Ok(table) => {
                self.lock_mem().insert(key, json);
                Some(table)
            }
            Err(_) => {
                evict();
                None
            }
        }
    }

    /// Atomic disk write (temp + sync + rename); a failure only costs the
    /// persistence of this entry, never the build result.
    fn persist(&self, key: u64, json: &str) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = path.with_extension("tmp");
        let written = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        })();
        if written.is_ok() {
            telemetry::counter_inc("table_cache.writes");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbfet::SbfetModel;
    use gnr_num::par::ExecCtx;

    fn tiny_table() -> DeviceTable {
        let cfg = DeviceConfig::test_small(9).expect("valid config");
        let model = SbfetModel::new(&cfg).expect("builds");
        DeviceTable::from_model(
            &ExecCtx::serial(),
            &model,
            Polarity::NType,
            TableGrid {
                vgs: (0.0, 0.4),
                vds: (0.0, 0.4),
                points: 3,
            },
            1,
        )
        .expect("samples")
    }

    #[test]
    fn keys_separate_every_field() {
        let cfg = DeviceConfig::test_small(9).expect("valid config");
        let grid = TableGrid::coarse();
        let base = TableKey::new("t")
            .device(&cfg)
            .grid(&grid)
            .polarity(Polarity::NType)
            .ribbons(4)
            .finish();
        let mut thick = cfg.clone();
        thick.t_ox_nm += 0.1;
        let mut wide = grid;
        wide.vgs.1 += 0.05;
        let perturbed = [
            TableKey::new("u")
                .device(&cfg)
                .grid(&grid)
                .polarity(Polarity::NType)
                .ribbons(4)
                .finish(),
            TableKey::new("t")
                .device(&thick)
                .grid(&grid)
                .polarity(Polarity::NType)
                .ribbons(4)
                .finish(),
            TableKey::new("t")
                .device(&cfg)
                .grid(&wide)
                .polarity(Polarity::NType)
                .ribbons(4)
                .finish(),
            TableKey::new("t")
                .device(&cfg)
                .grid(&grid)
                .polarity(Polarity::PType)
                .ribbons(4)
                .finish(),
            TableKey::new("t")
                .device(&cfg)
                .grid(&grid)
                .polarity(Polarity::NType)
                .ribbons(1)
                .finish(),
        ];
        for (i, k) in perturbed.iter().enumerate() {
            assert_ne!(base, *k, "perturbation {i} must change the key");
        }
        assert_ne!(
            TableKey::new("t")
                .negf(&NegfTableOptions {
                    energy_step_ev: 0.015,
                    energy_pad_ev: 0.25,
                    refine: None,
                    use_cache: false,
                    mode_space: None,
                })
                .finish(),
            TableKey::new("t")
                .negf(&NegfTableOptions::accelerated())
                .finish(),
            "solver path is part of the address"
        );
        assert_ne!(
            TableKey::new("t")
                .negf(&NegfTableOptions::accelerated())
                .finish(),
            TableKey::new("t")
                .negf(&NegfTableOptions::mode_space())
                .finish(),
            "mode-space reduction is part of the address"
        );
    }

    #[test]
    fn memory_hit_is_byte_identical() {
        let store = TableStore::in_memory();
        let cold = store
            .get_or_build(1, || Ok::<_, DeviceError>(tiny_table()))
            .expect("cold");
        let warm = store
            .get_or_build::<DeviceError, _>(1, || panic!("hit must not rebuild"))
            .expect("warm");
        assert_eq!(
            cold.to_json().expect("cold json"),
            warm.to_json().expect("warm json"),
            "byte-identical round trip"
        );
    }

    #[test]
    fn disk_hit_survives_a_fresh_handle() {
        let dir = std::env::temp_dir().join(format!("gnr-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold_json = {
            let store = TableStore::on_disk(&dir);
            store
                .get_or_build(7, || Ok::<_, DeviceError>(tiny_table()))
                .expect("cold")
                .to_json()
                .expect("json")
        };
        let store = TableStore::on_disk(&dir);
        let warm = store
            .get_or_build::<DeviceError, _>(7, || panic!("disk hit must not rebuild"))
            .expect("warm");
        assert_eq!(cold_json, warm.to_json().expect("json"));
        assert_eq!(store.cached_json(7).as_deref(), Some(cold_json.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_disk_entry_is_evicted_and_rebuilt() {
        let dir = std::env::temp_dir().join(format!("gnr-store-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TableStore::on_disk(&dir);
        let path = store.entry_path(3).expect("disk layer on");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(&path, "{ not json").expect("plant corruption");
        let rebuilt = store.get_or_build(3, || Ok::<_, DeviceError>(tiny_table()));
        assert!(rebuilt.is_ok(), "corrupt entry must rebuild cleanly");
        let reread = std::fs::read_to_string(&path).expect("rewritten");
        assert!(DeviceTable::from_json(&reread).is_ok(), "entry is clean");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
