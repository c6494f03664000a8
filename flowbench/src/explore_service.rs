//! `explore_service`: one client in a closed loop calling
//! `CharacterizationService::submit` and waiting for each reply, at Fast
//! fidelity over an on-disk table store primed before timing.
//!
//! The jobs are the ones the repository's own callers submit, verbatim
//! (see [`catalogue`]). A pass submits each of them [`ROUNDS`] times, so
//! most jobs repeat an earlier request of the same pass. The
//! seed only orders the jobs; the work does not depend on it. An op is one
//! job.

use crate::device_cold::mc_variants;
use crate::record::{self, Digest, Recorder};
use crate::Workload;
use gnr_device::{NegfTableOptions, TableGrid, TableStore};
use gnr_num::par::ExecCtx;
use gnr_num::rng::Rng;
use gnrfet_explore::devices::{DeviceLibrary, Fidelity};
use gnrfet_explore::monte_carlo::monte_carlo_from_universe;
use gnrfet_explore::service::{CharacterizationService, JobOutput, JobRequest, JobResponse};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Times a pass submits every job of the catalogue: two of every three
/// jobs repeat an earlier one.
const ROUNDS: usize = 3;

/// `n` points from `start` in steps of `step`: the axis form of the
/// design-space callers.
fn axis(n: usize, start: f64, step: f64) -> Vec<f64> {
    (0..n).map(|i| start + i as f64 * step).collect()
}

/// Every job a caller in the repository submits to the service, with the
/// caller's own arguments, `Characterize` first:
///
/// - `tests/service_jobs`: `Characterize` at 0.4 V, the 2000-sample sweep
///   of seed 20080608, the one-point contour, and the N = 7 NEGF table on
///   the mode-space and accelerated paths;
/// - `fig3`: the 10 × 9 (V_DD, V_T) contour;
/// - `table1`: the 8 × 7 contour;
/// - `examples/design_space`: the 6 × 5 contour;
/// - `fig6`: the 10 000-sample sweep at V_DD = 0.4 V, seed `0x5eed`, and
///   the same with `GNRLAB_MC_SAMPLES=200`;
/// - `tests/circuit_zoo`: the operating point of `decks/zoo/sram6t.sp`.
///
/// fig6 streams its sweep into a checkpoint file; here it is submitted
/// without one, so the job writes nothing.
pub fn catalogue(sram_deck: &str) -> Vec<JobRequest> {
    let negf_grid = TableGrid {
        vgs: (0.0, 0.5),
        vds: (0.05, 0.35),
        points: 3,
    };
    vec![
        JobRequest::characterize(0.4, 15),
        JobRequest::edp_contour(axis(10, 0.15, 0.06), axis(9, 0.02, 0.035), 15),
        JobRequest::edp_contour(axis(8, 0.18, 0.07), axis(7, 0.02, 0.04), 15),
        JobRequest::edp_contour(axis(6, 0.2, 0.08), axis(5, 0.03, 0.05), 15),
        JobRequest::mc_sweep(0.4, 15, 10_000, 0x5eed),
        JobRequest::mc_sweep(0.4, 15, 200, 0x5eed),
        JobRequest::mc_sweep(0.4, 15, 2000, 20080608),
        JobRequest::edp_contour(vec![0.4], vec![0.0], 15),
        JobRequest::negf_table(7, negf_grid, 1, NegfTableOptions::mode_space()),
        JobRequest::negf_table(7, negf_grid, 1, NegfTableOptions::accelerated()),
        JobRequest::deck_op(sram_deck),
    ]
}

/// Reads the SRAM deck the circuit-zoo test submits.
pub fn read_sram_deck(deck_root: &Path) -> Result<String, String> {
    let path = deck_root.join("zoo").join("sram6t.sp");
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The workload's inputs: the job list one pass submits, in order.
pub struct ExploreService {
    jobs: Vec<JobRequest>,
    primed: PathBuf,
}

impl ExploreService {
    /// Jobs for `seed`, served from the primed store at `primed`. A pass
    /// opens with `Characterize`, as `tests/service_jobs` does, so the one
    /// cold characterization of a pass always falls on the same job; the
    /// other jobs follow in a seeded order.
    pub fn plan(seed: u64, deck_root: &Path, primed: PathBuf) -> Result<Self, String> {
        let catalogue = catalogue(&read_sram_deck(deck_root)?);
        let mut jobs: Vec<JobRequest> = (0..ROUNDS).flat_map(|_| catalogue.clone()).collect();
        let mut rest = jobs.split_off(1);
        Rng::seed_from_u64(seed).shuffle(&mut rest);
        jobs.extend(rest);
        Ok(ExploreService { jobs, primed })
    }
}

/// Opens a library over the store at `dir` and loads the n-type tables of
/// the nine Monte Carlo variants from it: the table-loading part of
/// set-up. Every other table a job needs is read from the store when the
/// job first asks for it.
fn load_library(
    ctx: &ExecCtx,
    dir: &Path,
    rec: &mut Recorder<'_>,
) -> Result<DeviceLibrary, String> {
    let mut lib = DeviceLibrary::with_store(Fidelity::Fast, Arc::new(TableStore::on_disk(dir)));
    for v in mc_variants() {
        rec.span("device.store.load_s", || lib.ntype_table(ctx, v))
            .map_err(|e| format!("loading table n{} q{:+}: {e}", v.n, v.charge_q))?;
    }
    Ok(lib)
}

/// Fills the store at `dir` by submitting every job of the catalogue once
/// through a service over it, so the store holds whatever tables the
/// program writes on first use.
pub fn prime(dir: &Path, threads: usize, deck_root: &Path) -> Result<(), String> {
    let lib = DeviceLibrary::with_store(Fidelity::Fast, Arc::new(TableStore::on_disk(dir)));
    let mut service = CharacterizationService::with_library(ExecCtx::with_threads(threads), lib);
    for job in catalogue(&read_sram_deck(deck_root)?) {
        service
            .submit(job)
            .map_err(|e| format!("priming the store: {e}"))?;
    }
    Ok(())
}

fn layer(job: &JobRequest) -> &'static str {
    match job {
        JobRequest::Characterize { .. } => "core.service.characterize.busy_s",
        JobRequest::McSweep { .. } => "core.service.mc_sweep.busy_s",
        JobRequest::EdpContour { .. } => "core.service.edp_contour.busy_s",
        JobRequest::NegfTable { .. } => "core.service.negf_table.busy_s",
        JobRequest::DeckOp { .. } => "core.service.deck_op.busy_s",
    }
}

/// The answer of a job as bytes: identical bytes mean an identical answer.
fn answer(r: &Result<JobResponse, String>) -> String {
    match r {
        Ok(resp) => match &resp.output {
            JobOutput::Universe(u) => format!("{u:?}"),
            JobOutput::McSweep(o) => format!("{o:?}"),
            JobOutput::EdpContour(m) => format!("{m:?}"),
            JobOutput::Table(t) => t
                .to_json()
                .unwrap_or_else(|e| format!("unserializable: {e}")),
            JobOutput::DeckRaw(j) => j.dump(),
        },
        Err(e) => format!("error: {e}"),
    }
}

/// The service after the pass and every job's reply, in order.
pub struct Output {
    service: CharacterizationService,
    replies: Vec<Result<JobResponse, String>>,
}

impl Workload for ExploreService {
    type State = CharacterizationService;
    type Output = Output;
    const PASS_S: f64 = 15.0;
    /// One thread. On a shared two-vCPU x86-64 host, the threads each
    /// `par_map` spawns made the median 10 000-sample sweep take 4.4, 5.9
    /// and 11.2 ms in three processes in a row, and 3.5, 3.3 and 3.0 ms on
    /// one thread. Traced runs still check the counts at two threads
    /// against one.
    const THREADS: Option<usize> = Some(1);

    fn setup(
        &self,
        threads: usize,
        rec: &mut Recorder<'_>,
    ) -> Result<CharacterizationService, String> {
        let ctx = ExecCtx::with_threads(threads);
        let lib = load_library(&ctx, &self.primed, rec)?;
        Ok(CharacterizationService::with_library(ctx, lib))
    }

    fn run(&self, mut service: CharacterizationService, rec: &mut Recorder<'_>) -> Output {
        let mut replies = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            let reply = rec.op(layer(job), || service.submit(job.clone()));
            // Draining the fault log keeps this check O(new events); a
            // reply built over dead characterization cells is degraded.
            let faults = service.ctx().faults().take();
            if reply.is_ok() && faults.in_stage("characterize").next().is_some() {
                rec.mark_degraded("dead characterization cells");
            }
            replies.push(reply);
        }
        Output { service, replies }
    }

    fn verify(&self, out: Output) -> Result<u64, String> {
        let Output {
            mut service,
            replies,
        } = out;
        let mut digest = Digest::default();
        // First answer of every distinct job, as an FNV-1a digest of its
        // bytes (keeping the bytes would inflate the run's peak memory).
        let mut first: HashMap<String, u64> = HashMap::new();
        for (job, reply) in self.jobs.iter().zip(&replies) {
            let key = format!("{job:?}");
            let bytes = record::fnv1a(record::FNV_OFFSET, answer(reply).as_bytes());
            if let Some(earlier) = first.get(&key) {
                if *earlier != bytes {
                    return Err(format!("repeated job answered differently: {key:.120}"));
                }
                continue;
            }
            digest.add(&key);
            digest.add(&format!("{bytes:016x}"));
            first.insert(key, bytes);
            // A sweep equals the direct Monte Carlo call on the same
            // universe and seed.
            let (
                JobRequest::McSweep {
                    vdd,
                    stages,
                    samples,
                    seed,
                    ..
                },
                Ok(resp),
            ) = (job, reply)
            else {
                continue;
            };
            let sweep = resp.mc().ok_or("a sweep job returned no sweep")?;
            let universe = service
                .submit(JobRequest::characterize(*vdd, *stages))
                .map_err(|e| format!("re-characterizing for the sweep check: {e}"))?;
            let universe = universe
                .universe()
                .ok_or("no universe in a characterize reply")?;
            let direct = monte_carlo_from_universe(service.ctx(), universe, *samples, *seed);
            if format!("{direct:?}") != format!("{:?}", sweep.result) {
                return Err(format!(
                    "McSweep differs from monte_carlo_from_universe (vdd {vdd}, {samples} samples, seed {seed})"
                ));
            }
        }
        Ok(digest.value())
    }
}
