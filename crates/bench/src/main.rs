//! `gnr-bench` — the workspace's in-house benchmark runner.
//!
//! Replaces the former criterion benches with a zero-dependency harness.
//! Suites:
//!
//! - `device`      — band structure, surface GF, RGF, Poisson, SBFET eval
//! - `circuit`     — DC, VTC, SNM, FO4/ring transients, table lookups
//! - `ablations`   — RGF vs dense, table vs model, integrator, SCF mixing
//! - `experiments` — reduced-size versions of every paper table/figure
//!
//! `device` and `circuit` run by default; pass `--suite all` for
//! everything. `--json` prints the `gnr-bench/v1` document that
//! `gnr-bench compare` reads; `scripts/bench_gate.sh` runs the
//! `ablations` and `experiments` benchmarks that way at a parent and a
//! changed revision and compares the two (see `compare.rs`).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod ablations;
mod circuit_kernels;
mod compare;
mod device_kernels;
mod experiments;
mod harness;

use harness::{BenchOptions, Harness};

const USAGE: &str = "\
gnr-bench — zero-dependency benchmark harness for the gnrlab workspace

USAGE:
    gnr-bench [OPTIONS]
    gnr-bench compare --parent <DIR> --change <DIR>

OPTIONS:
    --json             emit the gnr-bench/v1 JSON document on stdout
    --suite <NAME>     run a suite: device | circuit | ablations |
                       experiments | all  (repeatable; default: device,circuit)
    --filter <SUBSTR>  only run benchmarks whose suite/name contains SUBSTR
    --quick            smoke profile: short warmup and measurement windows
    --list             print the selected benchmark names without running
    -h, --help         show this help

COMPARE MODE (the CI perf gate, driven by scripts/bench_gate.sh):
    Reads every --json document in the parent and change directories,
    one filtered run of one benchmark each. Fails (exit 1) when a
    benchmark's best min_ns over the change's runs exceeds the best over
    the parent's by more than x1.25, or when a change-side run holds
    anything but one record; warns on per-iteration counter drift and on
    benchmarks found on one side only. Set GNR_TELEMETRY=1 to record
    each benchmark's solver counters in --json output.
";

struct Cli {
    json: bool,
    quick: bool,
    list: bool,
    filter: Option<String>,
    suites: Vec<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        json: false,
        quick: false,
        list: false,
        filter: None,
        suites: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--quick" => cli.quick = true,
            "--list" => cli.list = true,
            "--filter" => {
                cli.filter = Some(args.next().ok_or("--filter needs a value")?);
            }
            "--suite" => {
                let s = args.next().ok_or("--suite needs a value")?;
                match s.as_str() {
                    "device" | "circuit" | "ablations" | "experiments" | "all" => {
                        cli.suites.push(s);
                    }
                    other => return Err(format!("unknown suite '{other}'")),
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            // Tolerate `cargo bench`-style trailing args like `--bench`.
            "--bench" => {}
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if cli.suites.is_empty() {
        cli.suites = vec!["device".into(), "circuit".into()];
    }
    if cli.suites.iter().any(|s| s == "all") {
        cli.suites = vec![
            "device".into(),
            "circuit".into(),
            "ablations".into(),
            "experiments".into(),
        ];
    }
    Ok(cli)
}

/// Reads every `*.json` document in `dir`, in file-name order, each
/// with its path.
fn load_dir(dir: &str) -> Result<Vec<(String, gnr_num::Json)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.display().to_string();
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("cannot read {name}: {e}"))?;
            let doc =
                gnr_num::Json::parse(&text).map_err(|e| format!("cannot parse {name}: {e}"))?;
            Ok((name, doc))
        })
        .collect()
}

/// Parses and runs `gnr-bench compare ...`; returns the process exit code.
fn run_compare(args: &[String]) -> i32 {
    let mut parent: Option<String> = None;
    let mut change: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--parent" => parent = it.next().cloned(),
            "--change" => change = it.next().cloned(),
            "-h" | "--help" => {
                print!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("error: unknown compare option '{other}'\n\n{USAGE}");
                return 2;
            }
        }
    }
    let (Some(parent), Some(change)) = (parent, change) else {
        eprintln!("error: compare needs --parent and --change\n\n{USAGE}");
        return 2;
    };
    let (parent_docs, change_docs) = match (load_dir(&parent), load_dir(&change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let report = compare::compare(&parent_docs, &change_docs);
    print!("{}", report.render());
    i32::from(!report.passed())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        std::process::exit(run_compare(&raw[1..]));
    }
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let telemetry_armed = gnr_num::telemetry::arm_from_env();
    let opts = if cli.quick {
        BenchOptions::quick()
    } else {
        BenchOptions::standard()
    };
    let mut h = Harness::new(opts, cli.filter.clone(), cli.list, cli.json);
    for suite in &cli.suites {
        match suite.as_str() {
            "device" => device_kernels::register(&mut h),
            "circuit" => circuit_kernels::register(&mut h),
            "ablations" => ablations::register(&mut h),
            "experiments" => experiments::register(&mut h),
            _ => unreachable!("validated in parse_args"),
        }
    }
    if cli.list {
        for name in h.listed() {
            println!("{name}");
        }
        return;
    }
    if cli.json {
        println!("{}", h.to_json(cli.quick).dump());
    } else {
        print!("{}", h.to_table());
        if let Some(snap) = telemetry_armed.then(gnr_num::telemetry::snapshot) {
            if !snap.is_empty() {
                println!("\ntelemetry ({} metrics):", snap.len());
                print!("{}", snap.render());
            }
        }
        eprintln!("{} benchmarks complete", h.records().len());
    }
}
