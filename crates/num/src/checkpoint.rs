//! Crash-consistent checkpoint files for long-running drivers
//! (Monte Carlo sweeps, stage-universe characterization).
//!
//! # Format: `gnr-checkpoint/v1`
//!
//! A checkpoint is a single JSON document (via [`crate::json`]):
//!
//! ```text
//! { "format":  "gnr-checkpoint/v1",
//!   "kind":    "monte-carlo",            // driver-chosen record kind
//!   "key":     "a1b2c3d4e5f60718",       // FNV-64 over inputs + options
//!   "seed":    20080608,                 // RNG seed of the run
//!   "total":   2000,                     // work items in the full run
//!   "records": [["3fe0000000000000", …], …],
//!   "checksum":"0123456789abcdef" }      // FNV-64 over the records
//! ```
//!
//! `records[i]` is the completed result for work item `i`; completion is
//! always a **prefix** (items `0..records.len()`), which is what lets a
//! resumed run skip exactly the finished prefix and replay the pre-draw
//! RNG pattern for the rest. Every `f64` is stored as the hex of its IEEE
//! bit pattern — *not* a JSON number — because the JSON layer serializes
//! non-finite values as `null` and record payloads legitimately contain
//! NaN (dead characterization cells, stalled-ring accumulators), and
//! because bit-pattern round-tripping is what the resume bit-identity
//! contract is stated in.
//!
//! # Crash consistency
//!
//! [`save`] writes to a sibling `*.tmp` file, syncs it, then `rename`s it
//! over the target: a crash mid-write leaves either the previous complete
//! checkpoint or a stray temp file, never a torn target. [`load`] treats
//! *anything* unexpected — unreadable file, bad JSON, wrong schema/kind,
//! key/seed/total mismatch, bad checksum, or an injected
//! `checkpoint.corrupt` fault — as a discard: the file is deleted and the
//! caller restarts from scratch. A missing file is simply a fresh start.
//!
//! Telemetry: `checkpoint.writes`, `checkpoint.resumes`,
//! `checkpoint.discarded`.

use crate::error::{NumError, NumResult};
use crate::json::Json;
use crate::{fault, telemetry};
use std::io::Write;
use std::path::Path;

/// Schema tag embedded in every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "gnr-checkpoint/v1";

/// Fault site probed on every load; arming it makes a present checkpoint
/// read as corrupt (detected, discarded, clean restart).
pub const FAULT_SITE: &str = "checkpoint.corrupt";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over 8-byte words, used both for checkpoint
/// checksums and for the caller-built identity `key` (inputs + options).
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(FNV_OFFSET)
    }
}

impl KeyHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        KeyHasher::default()
    }

    /// Mixes in a `u64`, byte by byte (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes in an `f64` by bit pattern (NaN-safe, `-0.0` ≠ `0.0`).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes in a string (length-prefixed so concatenations differ).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The accumulated 64-bit hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// In-memory checkpoint: identity fields plus the completed-prefix
/// records (row `i` is work item `i`).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Driver-chosen record kind (e.g. `"monte-carlo"`).
    pub kind: String,
    /// FNV-64 identity of the run's inputs and options ([`KeyHasher`]).
    pub key: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Total work items in the full run.
    pub total: usize,
    /// Completed results, one row per finished work item, prefix order.
    pub records: Vec<Vec<f64>>,
}

/// Result of [`load`]: start fresh, resume from a valid prefix, or start
/// fresh after discarding a stale/corrupt file.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadOutcome {
    /// No checkpoint file exists.
    Fresh,
    /// A valid matching checkpoint was found.
    Resume(Checkpoint),
    /// A file existed but was corrupt or belongs to a different run; it
    /// has been deleted. The payload is the human-readable reason.
    Discarded(String),
}

fn records_checksum(records: &[Vec<f64>]) -> u64 {
    let mut h = KeyHasher::new();
    for row in records {
        h.write_u64(row.len() as u64);
        for &v in row {
            h.write_f64(v);
        }
    }
    h.finish()
}

fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex64(s: &str) -> NumResult<u64> {
    u64::from_str_radix(s, 16)
        .map_err(|_| NumError::invalid(format!("checkpoint: bad hex word {s:?}")))
}

impl Checkpoint {
    /// Serializes to the `gnr-checkpoint/v1` JSON document.
    pub fn to_json(&self) -> Json {
        let records = self
            .records
            .iter()
            .map(|row| Json::Arr(row.iter().map(|&v| Json::Str(hex64(v.to_bits()))).collect()))
            .collect();
        Json::Obj(vec![
            ("format".to_string(), Json::from(CHECKPOINT_SCHEMA)),
            ("kind".to_string(), Json::from(self.kind.as_str())),
            ("key".to_string(), Json::Str(hex64(self.key))),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("total".to_string(), Json::Num(self.total as f64)),
            ("records".to_string(), Json::Arr(records)),
            (
                "checksum".to_string(),
                Json::Str(hex64(records_checksum(&self.records))),
            ),
        ])
    }

    /// Parses and validates a `gnr-checkpoint/v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidInput`] on schema, field, or checksum
    /// problems; [`load`] maps these to a discard.
    pub fn from_json(doc: &Json) -> NumResult<Self> {
        let format = doc.get("format").and_then(Json::as_str).unwrap_or("");
        if format != CHECKPOINT_SCHEMA {
            return Err(NumError::invalid(format!(
                "checkpoint: unsupported format {format:?}"
            )));
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| NumError::invalid("checkpoint: missing kind"))?
            .to_string();
        let key = parse_hex64(
            doc.get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| NumError::invalid("checkpoint: missing key"))?,
        )?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .filter(|s| *s >= 0.0 && s.fract() == 0.0)
            .map(|s| s as u64)
            .ok_or_else(|| NumError::invalid("checkpoint: bad seed"))?;
        let total = doc
            .get("total")
            .and_then(Json::as_usize)
            .ok_or_else(|| NumError::invalid("checkpoint: bad total"))?;
        let rows = doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| NumError::invalid("checkpoint: missing records"))?;
        let mut records = Vec::with_capacity(rows.len());
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| NumError::invalid("checkpoint: record row is not an array"))?;
            let mut out = Vec::with_capacity(cells.len());
            for cell in cells {
                let hex = cell
                    .as_str()
                    .ok_or_else(|| NumError::invalid("checkpoint: record cell is not hex"))?;
                out.push(f64::from_bits(parse_hex64(hex)?));
            }
            records.push(out);
        }
        let checksum = parse_hex64(
            doc.get("checksum")
                .and_then(Json::as_str)
                .ok_or_else(|| NumError::invalid("checkpoint: missing checksum"))?,
        )?;
        if checksum != records_checksum(&records) {
            return Err(NumError::invalid("checkpoint: checksum mismatch"));
        }
        if records.len() > total {
            return Err(NumError::invalid("checkpoint: more records than total"));
        }
        Ok(Checkpoint {
            kind,
            key,
            seed,
            total,
            records,
        })
    }
}

/// Atomically writes `cp` to `path`: temp file in the same directory,
/// sync, rename. Counts `checkpoint.writes`.
///
/// # Errors
///
/// Returns [`NumError::InvalidInput`] wrapping the underlying I/O error.
pub fn save(path: &Path, cp: &Checkpoint) -> NumResult<()> {
    let io_err = |what: &str, e: std::io::Error| {
        NumError::invalid(format!("checkpoint {what} {}: {e}", path.display()))
    };
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        f.write_all(cp.to_json().dump().as_bytes())
            .map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("sync", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))?;
    telemetry::counter_inc("checkpoint.writes");
    Ok(())
}

/// Loads the checkpoint at `path` for a run identified by
/// `(kind, key, seed, total)`.
///
/// A missing file is [`LoadOutcome::Fresh`]. An unreadable, corrupt
/// (including an armed `checkpoint.corrupt` fault), or mismatched file is
/// deleted and reported as [`LoadOutcome::Discarded`] — the caller then
/// runs from scratch, so a bad checkpoint can never poison a run.
pub fn load(path: &Path, kind: &str, key: u64, seed: u64, total: usize) -> LoadOutcome {
    if !path.exists() {
        return LoadOutcome::Fresh;
    }
    let discard = |reason: String| {
        let _ = std::fs::remove_file(path);
        telemetry::counter_inc("checkpoint.discarded");
        LoadOutcome::Discarded(reason)
    };
    if fault::should_fail(FAULT_SITE) {
        return discard("injected fault: checkpoint read as corrupt".to_string());
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return discard(format!("unreadable: {e}")),
    };
    let cp = match Json::parse(&text).and_then(|doc| Checkpoint::from_json(&doc)) {
        Ok(cp) => cp,
        Err(e) => return discard(e.to_string()),
    };
    if cp.kind != kind || cp.key != key || cp.seed != seed || cp.total != total {
        return discard(format!(
            "identity mismatch: file is ({}, {}, seed {}, total {}), run is ({kind}, {}, seed {seed}, total {total})",
            cp.kind,
            hex64(cp.key),
            cp.seed,
            cp.total,
            hex64(key),
        ));
    }
    telemetry::counter_inc("checkpoint.resumes");
    LoadOutcome::Resume(cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::sync::{Mutex as TestMutex, OnceLock};

    /// Serializes every test that calls `load`: the fault plan is
    /// process-global, so a `load` running beside the armed
    /// `checkpoint.corrupt` test would be discarded as injected.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<TestMutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "gnr-checkpoint-test-{}-{name}.json",
            std::process::id()
        ));
        p
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            kind: "monte-carlo".to_string(),
            key: 0xdead_beef_cafe_f00d,
            seed: 20080608,
            total: 8,
            records: vec![
                vec![1.0, -0.0, f64::NAN],
                vec![f64::INFINITY, 2.5e-300],
                vec![],
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_exact_including_non_finite() {
        let cp = sample();
        let text = cp.to_json().dump();
        let back = Checkpoint::from_json(&Json::parse(&text).expect("parses")).expect("valid");
        assert_eq!(back.kind, cp.kind);
        assert_eq!(back.key, cp.key);
        assert_eq!(back.seed, cp.seed);
        assert_eq!(back.total, cp.total);
        assert_eq!(back.records.len(), cp.records.len());
        for (a, b) in back.records.iter().zip(&cp.records) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact incl. NaN/-0.0");
            }
        }
    }

    #[test]
    fn save_load_resume_and_fresh() {
        let _g = lock();
        let path = tmp_path("save-load");
        let _ = std::fs::remove_file(&path);
        let cp = sample();
        assert_eq!(
            load(&path, &cp.kind, cp.key, cp.seed, cp.total),
            LoadOutcome::Fresh
        );
        save(&path, &cp).expect("saves");
        match load(&path, &cp.kind, cp.key, cp.seed, cp.total) {
            LoadOutcome::Resume(back) => {
                assert_eq!(back.records.len(), 3);
                assert!(back.records[0][2].is_nan());
            }
            other => panic!("expected resume, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn mismatched_identity_is_discarded_and_deleted() {
        let _g = lock();
        let path = tmp_path("mismatch");
        let cp = sample();
        save(&path, &cp).expect("saves");
        match load(&path, &cp.kind, cp.key ^ 1, cp.seed, cp.total) {
            LoadOutcome::Discarded(reason) => assert!(reason.contains("identity mismatch")),
            other => panic!("expected discard, got {other:?}"),
        }
        assert!(!path.exists(), "discard deletes the file");
        assert_eq!(
            load(&path, &cp.kind, cp.key, cp.seed, cp.total),
            LoadOutcome::Fresh
        );
    }

    #[test]
    fn tampered_payload_fails_the_checksum() {
        let _g = lock();
        let path = tmp_path("tamper");
        let cp = sample();
        save(&path, &cp).expect("saves");
        let text = std::fs::read_to_string(&path).expect("readable");
        // Flip one record bit: 1.0 = 3ff0… → 3ff1…
        let tampered = text.replacen("3ff0000000000000", "3ff1000000000000", 1);
        assert_ne!(text, tampered, "tamper target present");
        std::fs::write(&path, tampered).expect("writable");
        match load(&path, &cp.kind, cp.key, cp.seed, cp.total) {
            LoadOutcome::Discarded(reason) => assert!(reason.contains("checksum")),
            other => panic!("expected discard, got {other:?}"),
        }
        assert!(!path.exists());
    }

    #[test]
    fn injected_corruption_discards_a_valid_file() {
        let _g = lock();
        let path = tmp_path("injected");
        let cp = sample();
        save(&path, &cp).expect("saves");
        fault::arm(FaultPlan::seeded(1).with_site(FAULT_SITE, 1.0));
        let outcome = load(&path, &cp.kind, cp.key, cp.seed, cp.total);
        fault::disarm();
        match outcome {
            LoadOutcome::Discarded(reason) => assert!(reason.contains("injected fault")),
            other => panic!("expected discard, got {other:?}"),
        }
        assert!(!path.exists());
    }

    #[test]
    fn key_hasher_distinguishes_field_order_and_nan() {
        let mut a = KeyHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix separates fields");
        let mut n1 = KeyHasher::new();
        n1.write_f64(f64::NAN);
        let mut n2 = KeyHasher::new();
        n2.write_f64(f64::NAN);
        assert_eq!(n1.finish(), n2.finish(), "NaN hashes by bit pattern");
    }
}
