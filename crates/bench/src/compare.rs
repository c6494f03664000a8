//! `gnr-bench compare`: the paired same-host perf gate.
//!
//! `scripts/bench_gate.sh` builds `gnr-bench` at a base revision (the
//! parent) and at the change, runs every gated benchmark in rounds that
//! alternate which side goes first, and writes one `--json --filter`
//! document per run into a `parent/` and a `change/` directory. This
//! module reads both directories and applies the policy:
//!
//! - **Fail** when a benchmark's best time over the change's rounds
//!   exceeds its best time over the parent's rounds by more than
//!   [`MAX_RATIO`]. The minimum is the statistic because scheduler noise
//!   and hypervisor steal only ever add time, and more rounds can only
//!   lower it: a real regression stays flagged however many rounds run.
//! - **Fail** when a change-side document holds anything but exactly one
//!   record: each run is filtered to one benchmark, so a second record
//!   means the filter matched two benchmarks.
//! - **Warn only** on per-iteration counter drift (solver behaviour
//!   moved — worth a look, often intentional) and on a benchmark that
//!   exists on one side only (added or removed).

use crate::harness::fmt_ns;
use gnr_num::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Largest allowed ratio of the change's best time to the parent's.
pub const MAX_RATIO: f64 = 1.25;

/// One filtered run's record of one benchmark.
struct Run {
    min_ns: f64,
    iters: f64,
    counters: Vec<(String, f64)>,
}

impl Run {
    fn parse(record: &Json) -> Option<(String, Run)> {
        let suite = record.get("suite")?.as_str()?;
        let name = record.get("name")?.as_str()?;
        let counters = match record.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        let run = Run {
            min_ns: record.get("min_ns")?.as_f64()?,
            iters: record.get("iters")?.as_f64()?,
            counters,
        };
        Some((format!("{suite}/{name}"), run))
    }

    /// Counters per measured iteration; empty when telemetry was off.
    fn rates(&self) -> Vec<(&str, f64)> {
        self.counters
            .iter()
            .map(|(k, v)| (k.as_str(), v / self.iters))
            .collect()
    }
}

/// The runs of one side, grouped by benchmark.
fn runs_by_bench(docs: &[(String, Json)]) -> BTreeMap<String, Vec<Run>> {
    let mut by_bench: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for (_, doc) in docs {
        for (key, run) in records(doc).iter().filter_map(Run::parse) {
            by_bench.entry(key).or_default().push(run);
        }
    }
    by_bench
}

fn records(doc: &Json) -> &[Json] {
    doc.get("benches").and_then(Json::as_array).unwrap_or(&[])
}

fn best(runs: &[Run]) -> f64 {
    runs.iter().map(|r| r.min_ns).fold(f64::INFINITY, f64::min)
}

/// One benchmark measured on both sides.
#[derive(Clone, Debug)]
pub struct Row {
    /// `suite/name`.
    pub bench: String,
    /// Best `min_ns` over the parent's rounds.
    pub parent_ns: f64,
    /// Best `min_ns` over the change's rounds.
    pub change_ns: f64,
}

impl Row {
    /// Change over parent best time.
    pub fn ratio(&self) -> f64 {
        self.change_ns / self.parent_ns
    }
}

/// Outcome of one paired comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Benchmarks measured on both sides, in name order.
    pub rows: Vec<Row>,
    /// Hard failures: timing regressions and malformed change-side runs.
    pub failures: Vec<String>,
    /// Warn-only findings: counter drift, one-sided benchmarks.
    pub warnings: Vec<String>,
}

impl CompareReport {
    /// `true` when the gate passes.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable report: one row per benchmark, then the findings.
    /// A timing failure reads `FAIL: <suite/name>: …`, which
    /// `scripts/bench_gate.sh` parses to re-run the flagged benchmarks.
    pub fn render(&self) -> String {
        let width = self.rows.iter().map(|r| r.bench.len()).max().unwrap_or(9);
        let mut out = format!(
            "{:width$}  {:>12}  {:>12}  {:>6}\n",
            "benchmark", "parent min", "change min", "ratio"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:width$}  {:>12}  {:>12}  {:>6.3}\n",
                r.bench,
                fmt_ns(r.parent_ns),
                fmt_ns(r.change_ns),
                r.ratio()
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("FAIL: {f}\n"));
        }
        let largest = self
            .rows
            .iter()
            .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
            .map_or(String::new(), |r| {
                format!(", largest ratio {:.3} ({})", r.ratio(), r.bench)
            });
        out.push_str(&format!(
            "bench-compare: {} benchmark(s) compared{largest}, {} failure(s), {} warning(s)\n",
            self.rows.len(),
            self.failures.len(),
            self.warnings.len()
        ));
        out
    }
}

/// Compares the parent's and the change's `gnr-bench/v1` documents, each
/// given with the name it is reported under.
pub fn compare(parent: &[(String, Json)], change: &[(String, Json)]) -> CompareReport {
    let mut report = CompareReport::default();
    for (name, doc) in change {
        let n = records(doc).len();
        if n != 1 {
            report.failures.push(format!(
                "{name}: a filtered run must yield exactly one record, got {n}"
            ));
        }
    }
    let parent = runs_by_bench(parent);
    let change = runs_by_bench(change);
    for key in parent.keys().filter(|k| !change.contains_key(*k)) {
        report
            .warnings
            .push(format!("{key}: no change-side runs (removed?)"));
    }
    for (key, change_runs) in &change {
        let Some(parent_runs) = parent.get(key) else {
            report
                .warnings
                .push(format!("{key}: no parent-side runs (new?)"));
            continue;
        };
        let row = Row {
            bench: key.clone(),
            parent_ns: best(parent_runs),
            change_ns: best(change_runs),
        };
        if row.ratio() > MAX_RATIO {
            report.failures.push(format!(
                "{key}: min {} -> {} (x{:.3} > x{MAX_RATIO})",
                fmt_ns(row.parent_ns),
                fmt_ns(row.change_ns),
                row.ratio()
            ));
        }
        report.rows.push(row);
        // Counters are deterministic per iteration, so any change in a
        // rate means solver behaviour changed: worth a look, not a red
        // build. A side without counters (telemetry off) is not compared.
        let (p, c) = (parent_runs[0].rates(), change_runs[0].rates());
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let names: BTreeSet<&str> = p.iter().chain(&c).map(|(k, _)| *k).collect();
        for counter in names {
            let rate = |side: &[(&str, f64)]| {
                side.iter()
                    .find(|(k, _)| *k == counter)
                    .map_or(0.0, |(_, v)| *v)
            };
            let (from, to) = (rate(&p), rate(&c));
            if from != to {
                report.warnings.push(format!(
                    "{key}: counter {counter} per iteration drifted: {from} -> {to}"
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One filtered run's document: `records` of (name, min_ns,
    /// median_ns), each over 10 iterations with `scf.iterations` at `scf`
    /// per iteration.
    fn doc(records: &[(&str, f64, f64)], scf: u64) -> Json {
        let benches = records
            .iter()
            .map(|(name, min, median)| {
                Json::Obj(vec![
                    ("suite".into(), Json::from("device")),
                    ("name".into(), Json::from(*name)),
                    ("iters".into(), Json::Num(10.0)),
                    ("median_ns".into(), Json::Num(*median)),
                    ("min_ns".into(), Json::Num(*min)),
                    (
                        "counters".into(),
                        Json::Obj(vec![(
                            "scf.iterations".into(),
                            Json::Num((10 * scf) as f64),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::from("gnr-bench/v1")),
            ("benches".into(), Json::Arr(benches)),
        ])
    }

    /// Rounds of the one bench `device/rgf`, one document per round of
    /// (min_ns, median_ns).
    fn rounds_with_median(runs: &[(f64, f64)]) -> Vec<(String, Json)> {
        runs.iter()
            .enumerate()
            .map(|(i, &(min, median))| (format!("r{i}"), doc(&[("rgf", min, median)], 5)))
            .collect()
    }

    /// Rounds of `device/rgf` whose median is twice the minimum.
    fn rounds(mins: &[f64]) -> Vec<(String, Json)> {
        let runs: Vec<(f64, f64)> = mins.iter().map(|&m| (m, 2.0 * m)).collect();
        rounds_with_median(&runs)
    }

    #[test]
    fn equal_sides_pass() {
        let r = compare(&rounds(&[100.0, 104.0, 101.0]), &rounds(&[100.0, 99.0]));
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.rows.len(), 1);
        assert!(r.warnings.is_empty());
        assert!(r.render().contains("largest ratio 0.990 (device/rgf)"));
    }

    #[test]
    fn regression_beyond_the_bound_fails_and_names_the_bench() {
        let r = compare(&rounds(&[100.0, 110.0]), &rounds(&[130.0, 135.0]));
        assert!(!r.passed());
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].starts_with("device/rgf: "));
        assert!(r.render().contains("FAIL: device/rgf: "));
    }

    /// Slower by less than the bound, or by exactly the bound, passes.
    #[test]
    fn regression_within_the_bound_passes() {
        for change in [120.0, 125.0] {
            let r = compare(&rounds(&[100.0, 103.0]), &rounds(&[change, change + 4.0]));
            assert!(r.passed(), "{}", r.render());
        }
    }

    /// The gate reads `min_ns`, not the median that host noise inflates.
    #[test]
    fn noisy_median_with_stable_min_passes() {
        let r = compare(
            &rounds_with_median(&[(100.0, 110.0), (101.0, 112.0)]),
            &rounds_with_median(&[(101.0, 300.0), (100.0, 280.0)]),
        );
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn min_regression_fails_even_with_flat_median() {
        let r = compare(
            &rounds_with_median(&[(100.0, 200.0), (102.0, 200.0)]),
            &rounds_with_median(&[(140.0, 200.0), (141.0, 199.0)]),
        );
        assert!(!r.passed(), "{}", r.render());
        assert!(r.failures[0].starts_with("device/rgf: "));
    }

    /// A slow host phase inflates one round on each side; the minimum
    /// over rounds ignores it.
    #[test]
    fn one_slow_round_per_side_does_not_fail() {
        let r = compare(
            &rounds(&[100.0, 400.0, 102.0]),
            &rounds(&[101.0, 98.0, 300.0]),
        );
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn one_sided_bench_and_counter_drift_only_warn() {
        let parent = vec![("p".into(), doc(&[("rgf", 100.0, 200.0)], 5))];
        let change = vec![
            ("c0".into(), doc(&[("rgf", 100.0, 200.0)], 6)),
            ("c1".into(), doc(&[("new", 50.0, 100.0)], 6)),
        ];
        let r = compare(&parent, &change);
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.warnings.len(), 2, "{:?}", r.warnings);
        assert!(r.warnings.iter().any(|w| w.contains("scf.iterations")));
        assert!(r.warnings.iter().any(|w| w.starts_with("device/new")));
    }

    #[test]
    fn change_run_with_two_records_fails() {
        let parent = vec![("p".into(), doc(&[("rgf", 100.0, 200.0)], 5))];
        let change = vec![(
            "c".into(),
            doc(&[("rgf", 100.0, 200.0), ("rgf2", 9.0, 18.0)], 5),
        )];
        let r = compare(&parent, &change);
        assert!(!r.passed());
        assert!(r.failures[0].contains("exactly one record, got 2"));
    }
}
