//! In-house benchmark harness.
//!
//! Replaces `criterion` so the workspace builds with zero external crates.
//! Each benchmark runs a warmup phase, then `samples` timed batches; the
//! per-iteration wall time of each batch forms the sample distribution
//! from which median/p10/p90 are reported. Results can be emitted as a
//! machine-readable `gnr-bench/v1` JSON document (the input of
//! `gnr-bench compare`) or as a human-readable table.

use gnr_num::{telemetry, Json, TelemetrySnapshot};
use std::time::{Duration, Instant};

/// Timing controls for one harness run.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Warmup budget before any timing is recorded.
    pub warmup: Duration,
    /// Total measurement budget per benchmark.
    pub measure: Duration,
    /// Number of timed batches (each contributes one per-iteration sample).
    pub samples: usize,
}

impl BenchOptions {
    /// The default profile: comparable to the old criterion configuration
    /// (300 ms warmup, 2 s measurement).
    pub fn standard() -> Self {
        BenchOptions {
            warmup: Duration::from_millis(300),
            measure: Duration::from_secs(2),
            samples: 20,
        }
    }

    /// A fast smoke profile for CI and `--quick` runs.
    pub fn quick() -> Self {
        BenchOptions {
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(200),
            samples: 10,
        }
    }
}

/// Statistics of one completed benchmark.
#[derive(Clone, Debug)]
pub struct Record {
    /// Suite the benchmark belongs to (`device`, `circuit`, ...).
    pub suite: String,
    /// Benchmark name (stable across runs; used as the JSON key).
    pub name: String,
    /// Total iterations executed during measurement.
    pub iters: u64,
    /// Median per-iteration time \[ns\].
    pub median_ns: f64,
    /// 10th-percentile per-iteration time \[ns\].
    pub p10_ns: f64,
    /// 90th-percentile per-iteration time \[ns\].
    pub p90_ns: f64,
    /// Mean per-iteration time \[ns\].
    pub mean_ns: f64,
    /// Fastest batch \[ns/iter\].
    pub min_ns: f64,
    /// Slowest batch \[ns/iter\].
    pub max_ns: f64,
    /// Telemetry counters recorded over the `iters` measured iterations
    /// (warmup and set-up excluded), when telemetry is armed.
    pub counters: Vec<(String, u64)>,
}

impl Record {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite".into(), Json::from(self.suite.as_str())),
            ("name".into(), Json::from(self.name.as_str())),
            ("iters".into(), Json::Num(self.iters as f64)),
            ("median_ns".into(), Json::Num(self.median_ns)),
            ("p10_ns".into(), Json::Num(self.p10_ns)),
            ("p90_ns".into(), Json::Num(self.p90_ns)),
            ("mean_ns".into(), Json::Num(self.mean_ns)),
            ("min_ns".into(), Json::Num(self.min_ns)),
            ("max_ns".into(), Json::Num(self.max_ns)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Collects benchmark registrations and runs the ones matching the filter.
pub struct Harness {
    opts: BenchOptions,
    filter: Option<String>,
    list_only: bool,
    quiet: bool,
    records: Vec<Record>,
    listed: Vec<String>,
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl Harness {
    /// Creates a harness; `filter` keeps only benchmarks whose
    /// `suite/name` path contains the substring.
    pub fn new(opts: BenchOptions, filter: Option<String>, list_only: bool, quiet: bool) -> Self {
        Harness {
            opts,
            filter,
            list_only,
            quiet,
            records: Vec::new(),
            listed: Vec::new(),
        }
    }

    fn selected(&self, suite: &str, name: &str) -> bool {
        match &self.filter {
            Some(f) => format!("{suite}/{name}").contains(f.as_str()),
            None => true,
        }
    }

    /// Registers and (unless listing/filtered out) runs one benchmark.
    /// The closure's return value is passed through `black_box` so the
    /// optimizer cannot elide the measured work.
    pub fn bench<R, F: FnMut() -> R>(&mut self, suite: &str, name: &str, mut f: F) {
        self.bench_with(suite, name, || (), |_| f());
    }

    /// [`Harness::bench`] for a benchmark that needs state: `setup` runs
    /// only when the benchmark is selected and not listed, so a filtered
    /// run (one benchmark per process in `scripts/bench_gate.sh`) and
    /// `--list` pay for no other benchmark's set-up.
    pub fn bench_with<S, R>(
        &mut self,
        suite: &str,
        name: &str,
        setup: impl FnOnce() -> S,
        mut f: impl FnMut(&mut S) -> R,
    ) {
        if !self.selected(suite, name) {
            return;
        }
        if self.list_only {
            self.listed.push(format!("{suite}/{name}"));
            return;
        }
        let mut state = setup();
        let mut f = || f(&mut state);
        if !self.quiet {
            eprint!("{suite}/{name} ... ");
        }

        // Warmup: run until the budget elapses, tracking the iteration count
        // to estimate per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.opts.warmup || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        // Batch size: spread the measurement budget over `samples` batches.
        let batch_budget_ns = self.opts.measure.as_nanos() as f64 / self.opts.samples.max(1) as f64;
        let iters_per_batch = ((batch_budget_ns / est_ns).floor() as u64).max(1);

        let before = telemetry::is_armed().then(telemetry::snapshot);
        let mut per_iter_ns = Vec::with_capacity(self.opts.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.opts.samples.max(2) {
            let t0 = Instant::now();
            for _ in 0..iters_per_batch {
                std::hint::black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters_per_batch as f64);
            total_iters += iters_per_batch;
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        let record = Record {
            suite: suite.to_string(),
            name: name.to_string(),
            iters: total_iters,
            median_ns: percentile(&per_iter_ns, 50.0),
            p10_ns: percentile(&per_iter_ns, 10.0),
            p90_ns: percentile(&per_iter_ns, 90.0),
            mean_ns: mean,
            min_ns: per_iter_ns[0],
            max_ns: *per_iter_ns.last().expect("samples >= 2"),
            counters: before
                .map(|b| counter_delta(&b, &telemetry::snapshot()))
                .unwrap_or_default(),
        };
        if !self.quiet {
            eprintln!(
                "median {}  (p10 {}, p90 {}, {} iters)",
                fmt_ns(record.median_ns),
                fmt_ns(record.p10_ns),
                fmt_ns(record.p90_ns),
                record.iters
            );
        }
        self.records.push(record);
    }

    /// Completed records, in registration order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Names collected in `--list` mode.
    pub fn listed(&self) -> &[String] {
        &self.listed
    }

    /// Renders all records as the machine-readable JSON document.
    pub fn to_json(&self, quick: bool) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::from("gnr-bench/v1")),
            ("quick".into(), Json::Bool(quick)),
            (
                "benches".into(),
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            ),
        ])
    }

    /// Renders all records as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .records
            .iter()
            .map(|r| r.suite.len() + r.name.len() + 1)
            .max()
            .unwrap_or(8)
            .max(9);
        out.push_str(&format!(
            "{:width$}  {:>12}  {:>12}  {:>12}\n",
            "benchmark", "median", "p10", "p90"
        ));
        for r in &self.records {
            out.push_str(&format!(
                "{:width$}  {:>12}  {:>12}  {:>12}\n",
                format!("{}/{}", r.suite, r.name),
                fmt_ns(r.median_ns),
                fmt_ns(r.p10_ns),
                fmt_ns(r.p90_ns),
            ));
        }
        out
    }
}

/// Counters that grew between two snapshots of the global sink, with
/// their growth.
fn counter_delta(before: &TelemetrySnapshot, after: &TelemetrySnapshot) -> Vec<(String, u64)> {
    after
        .counters()
        .filter_map(|(name, v)| {
            let grown = v.saturating_sub(before.counter(name).unwrap_or(0));
            (grown > 0).then(|| (name.to_string(), grown))
        })
        .collect()
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 25.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bench_records_and_json_shape() {
        let mut h = Harness::new(BenchOptions::quick(), None, false, true);
        h.bench("unit", "spin", || std::hint::black_box(3u64.pow(7)));
        assert_eq!(h.records().len(), 1);
        let r = &h.records()[0];
        assert!(r.median_ns > 0.0 && r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns);
        let text = h.to_json(true).dump();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("schema").unwrap().as_str(), Some("gnr-bench/v1"));
        assert_eq!(back.get("benches").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness::new(BenchOptions::quick(), Some("nope".into()), false, true);
        h.bench("unit", "spin", || 1 + 1);
        assert!(h.records().is_empty());
    }

    #[test]
    fn list_mode_collects_names_without_running() {
        let mut h = Harness::new(BenchOptions::quick(), None, true, true);
        h.bench("unit", "spin", || panic!("must not run"));
        h.bench_with(
            "unit",
            "setup",
            || panic!("must not set up"),
            |_: &mut ()| 0,
        );
        assert_eq!(h.listed(), ["unit/spin", "unit/setup"]);
    }

    #[test]
    fn setup_runs_only_for_a_selected_bench() {
        let mut h = Harness::new(BenchOptions::quick(), Some("unit/b".into()), false, true);
        h.bench_with("unit", "a", || panic!("filtered out"), |_: &mut ()| 0);
        h.bench_with("unit", "b", || 2u64, |s| s.pow(3));
        assert_eq!(h.records().len(), 1);
        assert_eq!(h.records()[0].name, "b");
    }
}
