//! Per-pass recording: op latencies, op outcomes, busy time per layer
//! span, and an FNV-1a digest helper for output identity checks.
//!
//! Every span is taken here, outside the program, around one call into a
//! layer's public API; nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Timings and outcomes of one pass (set-up plus the workload's fixed work).
#[derive(Debug, Default)]
pub struct Pass {
    /// Time to finish the fixed work \[s\], verification excluded.
    pub wall_s: f64,
    /// Latency of every op \[ms\], in op order.
    pub ops_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned a typed error or a degraded result.
    pub failed: u64,
    /// Busy time per layer span \[s\], keyed by metric name.
    pub busy_s: BTreeMap<&'static str, f64>,
    /// Error message of every failed op, in op order.
    pub errors: Vec<String>,
    /// Bytes read and written during set-up and work.
    pub io: IoCounters,
    /// Telemetry counter increments during set-up and work (empty unless
    /// telemetry is armed).
    pub counts: BTreeMap<String, u64>,
    /// Digest of every output the pass produced (failures included).
    pub digest: u64,
}

/// Records the ops and spans of one pass.
#[derive(Default)]
pub struct Recorder<'a> {
    ops_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    busy_s: BTreeMap<&'static str, f64>,
    errors: Vec<String>,
    /// Work to do between ops, if any.
    sampler: Option<Sampler<'a>>,
    /// Time spent in the sampler \[s\].
    sampled_s: f64,
}

/// Work done between ops, at most once per `gap`.
struct Sampler<'a> {
    gap: Duration,
    last: Instant,
    take: &'a mut dyn FnMut(),
}

impl<'a> Recorder<'a> {
    /// A recorder that calls `take` after an op whenever `gap` has passed
    /// since its last call (or since now). The time `take` spends is left
    /// out of the op latencies and reported by [`Recorder::sampled_s`].
    pub fn sampling(gap: Duration, take: &'a mut dyn FnMut()) -> Self {
        Recorder {
            sampler: Some(Sampler {
                gap,
                last: Instant::now(),
                take,
            }),
            ..Recorder::default()
        }
    }

    /// Time spent in the sampler so far \[s\].
    pub fn sampled_s(&self) -> f64 {
        self.sampled_s
    }

    fn between_ops(&mut self) {
        if let Some(s) = &mut self.sampler {
            if s.last.elapsed() >= s.gap {
                let t = Instant::now();
                (s.take)();
                s.last = Instant::now();
                self.sampled_s += (s.last - t).as_secs_f64();
            }
        }
    }

    /// Runs `f` inside the span `layer` without counting it as an op.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.busy_s.entry(layer).or_default() += t.elapsed().as_secs_f64();
        out
    }

    /// Runs one op inside the span `layer`: its latency is recorded, and a
    /// typed error counts it as failed and is returned as its message.
    pub fn op<T, E: Display>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        *self.busy_s.entry(layer).or_default() += s;
        self.ops_ms.push(s * 1e3);
        self.attempted += 1;
        let out = out.map_err(|e| {
            let msg = format!("{layer}: {e}");
            self.failed += 1;
            self.errors.push(msg.clone());
            msg
        });
        self.between_ops();
        out
    }

    /// Counts an op that failed before it could start (a deck that does
    /// not parse): attempted and failed, with no latency.
    pub fn failed_op(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Counts the last op as failed although it returned a value: a
    /// degraded SCF solve or dead characterization cells.
    pub fn mark_degraded(&mut self, why: &str) {
        self.failed += 1;
        self.errors.push(format!("degraded: {why}"));
    }

    /// Closes the pass.
    pub fn finish(self, wall_s: f64) -> Pass {
        Pass {
            wall_s,
            ops_ms: self.ops_ms,
            attempted: self.attempted,
            failed: self.failed,
            busy_s: self.busy_s,
            errors: self.errors,
            ..Pass::default()
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Running digest of a pass's outputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Feeds one output record (length-prefixed, so records never alias).
    pub fn add(&mut self, record: &str) {
        self.0 = fnv1a(self.0, &(record.len() as u64).to_le_bytes());
        self.0 = fnv1a(self.0, record.as_bytes());
    }

    /// Feeds a vector of values bit for bit.
    pub fn add_f64s(&mut self, values: &[f64]) {
        self.0 = fnv1a(self.0, &(values.len() as u64).to_le_bytes());
        for v in values {
            self.0 = fnv1a(self.0, &v.to_bits().to_le_bytes());
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Reads one `key: value` field (first number) from a `/proc/self` file.
fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident memory of this process (`VmHWM`) \[MiB\].
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has read and written through system calls
/// (`rchar`, `wchar` of `/proc/self/io`). The difference of two readings
/// counts exactly the bytes moved in between: the earlier reading's own
/// read of `/proc/self/io` is subtracted.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoCounters {
    /// Bytes read.
    pub read: u64,
    /// Bytes written.
    pub written: u64,
    own_read: u64,
}

impl IoCounters {
    /// Reads the counters now (zero where `/proc/self/io` is missing).
    pub fn now() -> Self {
        let Ok(text) = std::fs::read_to_string("/proc/self/io") else {
            return IoCounters::default();
        };
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        IoCounters {
            read: field("rchar:"),
            written: field("wchar:"),
            own_read: text.len() as u64,
        }
    }

    /// Bytes moved between `earlier` and this reading.
    pub fn since(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            read: self.read.saturating_sub(earlier.read + earlier.own_read),
            written: self.written.saturating_sub(earlier.written),
            own_read: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_separates_records() {
        let mut a = Digest::default();
        a.add("ab");
        a.add("c");
        let mut b = Digest::default();
        b.add("a");
        b.add("bc");
        assert_ne!(a.value(), b.value());
    }
}
