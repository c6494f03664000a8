//! Per-layer metrics of a traced pass: busy time from the benchmark's own
//! spans, counts from the `gnr_num::telemetry` snapshot delta around the
//! pass, store bytes from the process's I/O counters.

use crate::record::Pass;
use crate::Metric;
use gnr_num::telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;

/// Busy-time spans, one per call site kind into a layer's public API.
const BUSY: [&str; 15] = [
    "device.model.busy_s",
    "device.table.busy_s",
    "device.negf_table.busy_s",
    "device.scf.busy_s",
    "device.store.load_s",
    "cmos.busy_s",
    "spice.netlist.busy_s",
    "spice.dc.busy_s",
    "spice.transient.busy_s",
    "spice.measure.busy_s",
    "core.service.characterize.busy_s",
    "core.service.mc_sweep.busy_s",
    "core.service.edp_contour.busy_s",
    "core.service.negf_table.busy_s",
    "core.service.deck_op.busy_s",
];

/// Telemetry counters reported as they are.
const COUNTS: [&str; 18] = [
    "poisson.solves",
    "poisson.iterations",
    "negf.energy_points",
    "negf.rgf.calls",
    "negf.sancho_rubio.iterations",
    "negf.mode_space.fallbacks",
    "scf.iterations",
    "scf.degraded",
    "device.table.bias_points",
    "spice.newton.iterations",
    "spice.newton.failures",
    "spice.dc.source_stepping_failures",
    "spice.sparselu.factor_fallback",
    "transient.steps",
    "transient.dt_halvings",
    "mc.samples",
    "mc.characterize.cells",
    "mc.characterize.dead_cells",
];

/// Ratios `name = num / (num + other)` of two telemetry counters.
const SHARES: [(&str, &str, &str); 4] = [
    (
        "negf.surface_cache.hit_ratio",
        "negf.surface_cache.hit",
        "negf.surface_cache.miss",
    ),
    (
        "negf.mode_space.kept_ratio",
        "negf.mode_space.modes_kept",
        "negf.mode_space.modes_dropped",
    ),
    (
        "table_cache.hit_ratio",
        "table_cache.hits",
        "table_cache.misses",
    ),
    (
        "spice.sparselu.refactor_ratio",
        "spice.sparselu.refactor",
        "spice.sparselu.factor",
    ),
];

/// Counter increments between two snapshots (zero deltas dropped).
pub fn counter_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
) -> BTreeMap<String, u64> {
    after
        .counters()
        .map(|(name, v)| {
            (
                name.to_string(),
                v.saturating_sub(before.counter(name).unwrap_or(0)),
            )
        })
        .filter(|(_, d)| *d > 0)
        .collect()
}

/// The first counter whose delta differs between `a` and `b`.
pub fn first_difference(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> String {
    a.keys()
        .chain(b.keys())
        .find(|k| a.get(*k) != b.get(*k))
        .map_or_else(String::new, |k| {
            format!("{k}: {:?} vs {:?}", a.get(k), b.get(k))
        })
}

/// `num / den` with its base; 0 when the base is 0.
fn ratio(num: u64, den: u64) -> (f64, String) {
    let v = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    (v, format!("{num} / {den}"))
}

/// Every per-layer metric of the traced `pass`.
pub fn metrics(pass: &Pass, overhead: f64) -> Vec<Metric> {
    let count = |name: &str| pass.counts.get(name).copied().unwrap_or(0);
    let io = pass.io;
    let mut out = Vec::new();
    for name in BUSY {
        let v = pass.busy_s.get(name).copied().unwrap_or(0.0);
        out.push(Metric::new(name, v, "s", "span"));
    }
    for name in COUNTS {
        out.push(Metric::new(name, count(name) as f64, "count", "telemetry"));
    }
    for (name, num, other) in SHARES {
        let (v, base) = ratio(count(num), count(num) + count(other));
        out.push(Metric::new(name, v, "1", base));
    }
    let (v, base) = ratio(
        count("transient.newton_iterations"),
        count("transient.steps"),
    );
    out.push(Metric::new("transient.newton_per_step", v, "1", base));
    out.push(Metric::new(
        "device.store.bytes_written",
        io.written as f64,
        "B",
        "/proc/self/io",
    ));
    out.push(Metric::new(
        "device.store.bytes_read",
        io.read as f64,
        "B",
        "/proc/self/io",
    ));
    let (v, base) = ratio(pass.failed, pass.attempted);
    out.push(Metric::new("fail_ratio", v, "1", base));
    out.push(Metric::new(
        "trace.overhead_ratio",
        overhead,
        "1",
        "traced wall_s / untraced - 1",
    ));
    out
}
