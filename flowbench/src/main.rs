//! `flowbench` — end-to-end benchmark of the gnrlab device-to-circuit flow.
//!
//! ```text
//! flowbench --workload <device_cold|circuit_decks|explore_service>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `decks/` and keeps its state in
//! `.flowbench/`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! Exits 1 on a correctness mismatch and 2 on a usage or set-up error. See
//! `flowbench/README.md`.

mod circuit_decks;
mod decks;
mod device_cold;
mod explore_service;
mod layers;
mod record;

use record::{median, quantile, IoCounters, Pass, Recorder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One workload: set-up, the fixed work of a pass, and the check of its
/// outputs. The work is timed in passes and set-up in child processes
/// (see [`SetupProbe`]); the check is not timed.
pub trait Workload {
    /// What set-up hands to the work.
    type State;
    /// What the work hands to the check.
    type Output;
    /// Everything before the first op: decks, pool, store, tables,
    /// bindings.
    fn setup(&self, threads: usize, rec: &mut Recorder<'_>) -> Result<Self::State, String>;
    /// The fixed work; op latencies and outcomes go to `rec`.
    fn run(&self, state: Self::State, rec: &mut Recorder<'_>) -> Self::Output;
    /// Checks the outputs; returns their digest, or the first mismatch.
    fn verify(&self, out: Self::Output) -> Result<u64, String>;
    /// Nominal time of one pass \[s\] (on its pool, x86-64): turns
    /// `--seconds` into a fixed pass count, so that a run's structure, and
    /// with it its peak memory, never depends on how fast the machine was.
    const PASS_S: f64;
    /// Pool size of the untraced run, where the workload fixes one; the
    /// full pool otherwise. Traced runs always use the full pool and one
    /// thread.
    const THREADS: Option<usize> = None;
}

/// Where the benchmark keeps its state, relative to the repository root.
const STATE_DIR: &str = ".flowbench";

/// The committed decks, relative to the repository root.
const DECK_ROOT: &str = "decks";

/// Where `--setup-child` processes of `device_cold` make their stores,
/// under [`STATE_DIR`].
const SETUP_CHILD_DIR: &str = "setup-child";

/// Set-ups measured per run at least.
const MIN_SETUPS: usize = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: flowbench --workload <device_cold|circuit_decks|explore_service> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("want a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("want a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The pool size: at most two threads, never more than the machine has.
fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// FNV-1a of this executable: names the state that only this build may
/// reuse (the primed store, reference digests).
fn exe_fingerprint() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(record::fnv1a(record::FNV_OFFSET, &bytes))
}

/// The on-disk store every table of `circuit_decks` and `explore_service`
/// is served from, built once per executable by a child process (so its
/// memory never counts in a measured run) and published by rename.
fn ensure_primed(state: &Path, fingerprint: u64) -> Result<PathBuf, String> {
    let primed = state.join(format!("primed-{fingerprint:016x}"));
    if primed.is_dir() {
        return Ok(primed);
    }
    let tmp = state.join(format!("priming-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    eprintln!("flowbench: priming the table store (once per build)");
    let status = std::process::Command::new(exe)
        .arg("--prime")
        .arg(&tmp)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the priming process: {e}"))?;
    if !status.success() {
        return Err(format!("priming the table store failed ({status})"));
    }
    std::fs::rename(&tmp, &primed).map_err(|e| format!("publishing {}: {e}", primed.display()))?;
    Ok(primed)
}

/// Builds every table the primed store must hold into `dir`.
fn prime(dir: &Path) -> Result<(), String> {
    explore_service::prime(dir, pool_threads(), Path::new(DECK_ROOT))
}

/// One pass, recorded into `rec`: set-up, timed work, then the untimed
/// check. The pass carries the bytes and telemetry counts of its set-up and
/// work (not of the check); the verdict is the check's. Time `rec` spends
/// sampling between ops is not part of the pass's wall time.
fn run_pass<W: Workload>(
    w: &W,
    threads: usize,
    mut rec: Recorder<'_>,
) -> Result<(Pass, Result<(), String>), String> {
    use gnr_num::telemetry;
    let snap0 = telemetry::snapshot();
    let io0 = IoCounters::now();
    let state = w.setup(threads, &mut rec)?;
    let t = Instant::now();
    let out = w.run(state, &mut rec);
    let wall_s = t.elapsed().as_secs_f64() - rec.sampled_s();
    let io = IoCounters::now().since(&io0);
    let counts = layers::counter_delta(&snap0, &telemetry::snapshot());
    let mut pass = rec.finish(wall_s);
    pass.io = io;
    pass.counts = counts;
    let verdict = w.verify(out).map(|digest| pass.digest = digest);
    Ok((pass, verdict))
}

/// A named metric value with its unit, and how it was obtained.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// The outcome of a run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    passes: usize,
    /// Pool size(s) the passes ran on.
    pool: String,
    metrics: Vec<Metric>,
    /// Failed ops of one pass (every pass fails the same ops).
    errors: Vec<String>,
}

impl Report {
    fn mismatch(passes: &[Pass], why: &str) -> Report {
        eprintln!("flowbench: correctness mismatch: {why}");
        Report {
            correct: false,
            attempted: passes.iter().map(|p| p.attempted).sum(),
            failed: passes.iter().map(|p| p.failed).sum(),
            passes: passes.len(),
            pool: String::new(),
            metrics: Vec::new(),
            errors: passes.last().map(|p| p.errors.clone()).unwrap_or_default(),
        }
    }
}

/// Checks `digest` against the reference recorded by an earlier run under
/// `path`, recording it there when this is the first run.
fn check_reference(path: &Path, record: &str) -> Result<Result<(), String>, String> {
    match std::fs::read_to_string(path) {
        Ok(earlier) if earlier == record => Ok(Ok(())),
        Ok(earlier) => Ok(Err(format!(
            "differs from an earlier run ({}):\n  earlier: {}\n  now:     {}",
            path.display(),
            earlier.lines().next().unwrap_or_default(),
            record.lines().next().unwrap_or_default()
        ))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => std::fs::write(path, record)
            .map(Ok)
            .map_err(|e| format!("writing {}: {e}", path.display())),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// Times set-up from process start: starts this executable with
/// `--setup-child`, which plans and sets up the workload, and stops the
/// clock when the child reports that its first op could start.
struct SetupProbe {
    exe: PathBuf,
    args: Vec<String>,
}

impl SetupProbe {
    fn new(args: &Args, threads: usize, primed: Option<&Path>) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let primed = primed.map_or(String::new(), |p| p.display().to_string());
        let args = vec![
            "--setup-child".to_string(),
            args.workload.clone(),
            args.seed.to_string(),
            threads.to_string(),
            primed,
        ];
        Ok(SetupProbe { exe, args })
    }

    /// One set-up \[s\], from starting the child to its ready byte.
    fn time(&self) -> Result<f64, String> {
        use std::io::Read;
        let t = Instant::now();
        let mut child = std::process::Command::new(&self.exe)
            .args(&self.args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting a set-up child: {e}"))?;
        let mut byte = [0u8; 1];
        let ready = child.stdout.take().map(|mut out| out.read_exact(&mut byte));
        let s = t.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a set-up child: {e}"))?;
        match ready {
            Some(Ok(())) if status.success() => Ok(s),
            _ => Err(format!("a set-up child failed ({status})")),
        }
    }
}

/// The `--setup-child` process: plans and sets up one workload, writes one
/// byte when done, and exits. `device_cold` ignores the primed store and
/// sets up an empty store of its own.
fn setup_child(args: &[String]) -> Result<(), String> {
    let [workload, seed, threads, primed] = args else {
        return Err("--setup-child <workload> <seed> <threads> <primed store>".into());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let threads: usize = threads
        .parse()
        .map_err(|_| format!("bad thread count '{threads}'"))?;
    let primed = PathBuf::from(primed);
    match workload.as_str() {
        "device_cold" => {
            let root = Path::new(STATE_DIR)
                .join(SETUP_CHILD_DIR)
                .join(std::process::id().to_string());
            ready(&device_cold::DeviceCold::plan(seed, root)?, threads)
        }
        "circuit_decks" => ready(
            &circuit_decks::CircuitDecks::plan(seed, PathBuf::from(DECK_ROOT), primed),
            threads,
        ),
        "explore_service" => ready(
            &explore_service::ExploreService::plan(seed, Path::new(DECK_ROOT), primed)?,
            threads,
        ),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn ready<W: Workload>(w: &W, threads: usize) -> Result<(), String> {
    use std::io::Write;
    let state = w.setup(threads, &mut Recorder::default())?;
    let mut out = std::io::stdout();
    out.write_all(b"\n")
        .and_then(|()| out.flush())
        .map_err(|e| format!("reporting ready: {e}"))?;
    drop(state);
    Ok(())
}

/// Untraced run: as many passes as `seconds` holds at [`Workload::PASS_S`]
/// (at least one). Set-up is timed by `probe` between ops, about every
/// `seconds / MIN_SETUPS`, so that its samples spread over the whole run
/// rather than one stretch of it, and topped up to [`MIN_SETUPS`] samples
/// at the end.
fn measure<W: Workload>(
    w: &W,
    args: &Args,
    threads: usize,
    probe: &SetupProbe,
    reference: &Path,
) -> Result<Report, String> {
    let count = (args.seconds / W::PASS_S).round().max(1.0) as usize;
    let gap = Duration::from_secs_f64(args.seconds / MIN_SETUPS as f64);
    let mut passes: Vec<Pass> = Vec::with_capacity(count);
    let mut setups: Vec<Result<f64, String>> = Vec::new();
    for _ in 0..count {
        let mut sample = || setups.push(probe.time());
        let (pass, verdict) = run_pass(w, threads, Recorder::sampling(gap, &mut sample))?;
        passes.push(pass);
        if let Err(why) = verdict {
            return Ok(Report::mismatch(&passes, &why));
        }
    }
    if let Some(p) = passes.iter().find(|p| p.digest != passes[0].digest) {
        let why = format!(
            "pass outputs differ: {:016x} vs {:016x}",
            passes[0].digest, p.digest
        );
        return Ok(Report::mismatch(&passes, &why));
    }
    if let Err(why) = check_reference(reference, &format!("{:016x}\n", passes[0].digest))? {
        return Ok(Report::mismatch(&passes, &format!("outputs {why}")));
    }
    while setups.len() < MIN_SETUPS {
        setups.push(probe.time());
    }
    let setups = setups.into_iter().collect::<Result<Vec<f64>, String>>()?;
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let p90 = quantile(&ops, 0.9);
    let beyond = ops.iter().filter(|&&v| v > p90).count();
    let metrics = vec![
        Metric::new(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        Metric::new(
            "wall_s",
            median(&walls),
            "s",
            format!("median of {} passes", walls.len()),
        ),
        Metric::new(
            "op_p50_ms",
            median(&ops),
            "ms",
            format!("{} ops", ops.len()),
        ),
        Metric::new(
            "op_p90_ms",
            p90,
            "ms",
            format!("{} ops, {beyond} beyond", ops.len()),
        ),
        Metric::new("peak_rss_mb", record::peak_rss_mb(), "MiB", "VmHWM"),
    ];
    Ok(Report {
        correct: true,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        passes: passes.len(),
        pool: String::new(),
        metrics,
        errors: passes[0].errors.clone(),
    })
}

/// Traced run: one untraced pass (the overhead baseline), then traced
/// passes on the full pool and on one thread, whose telemetry counts must
/// agree with each other and with an earlier traced run of the same seed.
fn measure_traced<W: Workload>(w: &W, threads: usize, reference: &Path) -> Result<Report, String> {
    use gnr_num::telemetry;
    let (base, verdict) = run_pass(w, threads, Recorder::default())?;
    if let Err(why) = verdict {
        return Ok(Report::mismatch(&[base], &why));
    }
    telemetry::arm();
    let traced = run_pass(w, threads, Recorder::default());
    let serial = run_pass(w, 1, Recorder::default());
    telemetry::disarm();
    let (pass, verdict) = traced?;
    let (serial, serial_verdict) = serial?;
    let passes = [base, pass, serial];
    if let Err(why) = verdict.and(serial_verdict) {
        return Ok(Report::mismatch(&passes, &why));
    }
    let [base, pass, serial] = &passes;
    if pass.digest != base.digest || serial.digest != base.digest {
        return Ok(Report::mismatch(
            &passes,
            "traced or one-thread outputs differ",
        ));
    }
    let counts = &pass.counts;
    if *counts != serial.counts {
        let why = layers::first_difference(counts, &serial.counts);
        return Ok(Report::mismatch(
            &passes,
            &format!("counts differ between {threads} threads and 1: {why}"),
        ));
    }
    let record: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Err(why) = check_reference(reference, &record)? {
        return Ok(Report::mismatch(&passes, &format!("counts {why}")));
    }
    let overhead = pass.wall_s / base.wall_s - 1.0;
    Ok(Report {
        correct: true,
        attempted: pass.attempted,
        failed: pass.failed,
        passes: passes.len(),
        pool: String::new(),
        metrics: layers::metrics(pass, overhead),
        errors: pass.errors.clone(),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let state = PathBuf::from(STATE_DIR);
    std::fs::create_dir_all(&state).map_err(|e| format!("creating {STATE_DIR}: {e}"))?;
    let fingerprint = exe_fingerprint()?;
    let threads = pool_threads();
    // Reference outputs (untraced) and counts (traced) of earlier runs of
    // this build, by workload and, where the inputs depend on it, seed.
    let reference = |seed_free: bool| {
        let seed = if seed_free {
            String::new()
        } else {
            format!("-seed{}", args.seed)
        };
        let kind = if args.trace { "counts" } else { "digest" };
        state.join(format!("{}{seed}-{fingerprint:016x}.{kind}", args.workload))
    };
    match args.workload.as_str() {
        "device_cold" => {
            let w = device_cold::DeviceCold::plan(args.seed, state.join("cold"))?;
            // The seed only orders the builds, so the table JSON must not
            // depend on it.
            let report = dispatch(&w, args, threads, None, &reference(!args.trace));
            let _ = std::fs::remove_dir_all(state.join(SETUP_CHILD_DIR));
            report
        }
        "circuit_decks" => {
            let primed = ensure_primed(&state, fingerprint)?;
            let w = circuit_decks::CircuitDecks::plan(
                args.seed,
                PathBuf::from(DECK_ROOT),
                primed.clone(),
            );
            dispatch(&w, args, threads, Some(&primed), &reference(false))
        }
        "explore_service" => {
            let primed = ensure_primed(&state, fingerprint)?;
            let w = explore_service::ExploreService::plan(
                args.seed,
                Path::new(DECK_ROOT),
                primed.clone(),
            )?;
            dispatch(&w, args, threads, Some(&primed), &reference(false))
        }
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    }
}

fn dispatch<W: Workload>(
    w: &W,
    args: &Args,
    threads: usize,
    primed: Option<&Path>,
    reference: &Path,
) -> Result<Report, String> {
    let (report, pool) = if args.trace {
        (
            measure_traced(w, threads, reference)?,
            format!("{threads},1"),
        )
    } else {
        let threads = W::THREADS.unwrap_or(threads);
        let probe = SetupProbe::new(args, threads, primed)?;
        (
            measure(w, args, threads, &probe, reference)?,
            threads.to_string(),
        )
    };
    Ok(Report { pool, ..report })
}

fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn print_report(args: &Args, report: &Report) -> Result<(), String> {
    println!(
        "flowbench workload={} seed={} threads={} trace={} passes={}",
        args.workload,
        args.seed,
        report.pool,
        u8::from(args.trace),
        report.passes
    );
    println!(
        "  ops failed {} of {} attempted (fail_ratio base)",
        report.failed, report.attempted
    );
    for e in &report.errors {
        println!("  failed op: {:.200}", e);
    }
    let mut json = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value)?,
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        json.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--setup-child") {
        return match setup_child(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("flowbench --setup-child: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let [flag, dir] = argv.as_slice() {
        if flag == "--prime" {
            return match prime(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("flowbench --prime: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|report| print_report(&args, &report).map(|()| report.correct)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::from(2)
        }
    }
}
