//! Monte Carlo study of the 15-stage ring oscillator — the paper's Fig. 6.
//!
//! Per the paper: "Monte Carlo simulations with independent variations in
//! width (N = 9/12/15) and charge impurities (−q/0/+q) of all inverters
//! were run on the 15-stage ring oscillator. The width and charge
//! impurities for the GNRFETs were drawn from a normal distribution, with
//! mean width N = 12 and mean charge equal to zero", discretized at ±1σ.
//!
//! The study pre-characterizes the 9 × 9 stage-configuration universe once
//! (FO4 delay/energy/leakage per n/p device pair, driving a nominal load)
//! and then composes ring periods as the sum of per-stage delays — exact
//! for ring oscillators up to loading cross-terms, and what makes 10⁴
//! samples tractable.

use crate::devices::{ArrayScenario, DeviceLibrary, DeviceVariant};
use crate::error::ExploreError;
use crate::variability::{inverter_figures, inverter_figures_from_tables, InverterFigures};
use gnr_device::DeviceTable;
use gnr_num::checkpoint::{self, Checkpoint, KeyHasher, LoadOutcome};
use gnr_num::par::ExecCtx;
use gnr_num::rng::Rng;
use gnr_num::stats::{summarize, Histogram, Summary};
use gnr_num::NumError;
use std::path::Path;
use std::sync::Arc;

/// Samples per checkpointable Monte Carlo chunk. Fixed (never derived from
/// the pool size) so chunk boundaries — and therefore the completed-prefix
/// records a checkpoint may hold — are identical at any `GNR_THREADS`.
pub const MC_CHECKPOINT_CHUNK: usize = 256;

/// Universe cells per checkpointable characterization chunk.
const CHARACTERIZE_CHECKPOINT_CHUNK: usize = 27;

const MC_CHECKPOINT_KIND: &str = "monte-carlo";
const CHARACTERIZE_CHECKPOINT_KIND: &str = "characterize";

/// Discrete ±1σ device-parameter distribution of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscreteNormal {
    /// Probability mass at −1σ (N = 9 / charge −q).
    pub p_low: f64,
    /// Probability mass at +1σ (N = 15 / charge +q).
    pub p_high: f64,
}

impl Default for DiscreteNormal {
    fn default() -> Self {
        // Tails of a unit normal beyond +-1 sigma: 15.87% each.
        DiscreteNormal {
            p_low: 0.1587,
            p_high: 0.1587,
        }
    }
}

impl DiscreteNormal {
    fn draw<T: Copy>(&self, rng: &mut Rng, low: T, mid: T, high: T) -> T {
        let u = rng.uniform();
        if u < self.p_low {
            low
        } else if u < self.p_low + self.p_high {
            high
        } else {
            mid
        }
    }
}

/// Result of the Monte Carlo study.
#[derive(Clone, Debug)]
pub struct MonteCarloResult {
    /// Oscillator frequency per sample \[Hz\].
    pub frequency_hz: Vec<f64>,
    /// Dynamic power per sample \[W\].
    pub dynamic_w: Vec<f64>,
    /// Static power per sample \[W\].
    pub static_w: Vec<f64>,
    /// Nominal (no-variation) reference metrics.
    pub nominal_frequency_hz: f64,
    /// Nominal dynamic power \[W\].
    pub nominal_dynamic_w: f64,
    /// Nominal static power \[W\].
    pub nominal_static_w: f64,
    /// Samples whose ring contained a non-functional stage (logic levels
    /// collapsed under the drawn variations): the ring stalls, so no
    /// frequency/power is recorded for them.
    pub stalled_samples: usize,
}

impl MonteCarloResult {
    /// Summary statistics of the frequency distribution.
    ///
    /// # Errors
    ///
    /// Propagates empty-sample errors (cannot occur for `samples > 0`).
    pub fn frequency_summary(&self) -> Result<Summary, ExploreError> {
        summarize(&self.frequency_hz).map_err(|e| ExploreError::config(e.to_string()))
    }

    /// Summary statistics of the static power distribution.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloResult::frequency_summary`].
    pub fn static_summary(&self) -> Result<Summary, ExploreError> {
        summarize(&self.static_w).map_err(|e| ExploreError::config(e.to_string()))
    }

    /// Summary statistics of the dynamic power distribution.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloResult::frequency_summary`].
    pub fn dynamic_summary(&self) -> Result<Summary, ExploreError> {
        summarize(&self.dynamic_w).map_err(|e| ExploreError::config(e.to_string()))
    }

    /// Fraction of samples that produced a working oscillator:
    /// `functional / (functional + stalled)`. `1.0` for an empty run.
    pub fn functional_yield(&self) -> f64 {
        let total = self.frequency_hz.len() + self.stalled_samples;
        if total == 0 {
            1.0
        } else {
            self.frequency_hz.len() as f64 / total as f64
        }
    }

    /// Builds a histogram of one sample vector spanning its min–max range.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for empty samples.
    pub fn histogram(values: &[f64], bins: usize) -> Result<Histogram, ExploreError> {
        let s = summarize(values).map_err(|e| ExploreError::config(e.to_string()))?;
        let pad = (s.max - s.min).max(1e-30) * 0.05;
        let mut h = Histogram::new(s.min - pad, s.max + pad, bins)
            .map_err(|e| ExploreError::config(e.to_string()))?;
        h.record_all(values.iter().copied());
        Ok(h)
    }
}

/// The pre-characterized 9 × 9 stage-configuration universe: inverter
/// figures for every (n-device, p-device) pairing of widths {9, 12, 15}
/// and charges {−q, 0, +q}.
#[derive(Clone, Debug)]
pub struct StageUniverse {
    figures: Vec<InverterFigures>,
    stages: usize,
}

impl StageUniverse {
    /// The ring-oscillator stage count the universe was characterized for.
    pub fn stages(&self) -> usize {
        self.stages
    }
}

/// A characterization-failed universe cell: the stage is treated like one
/// with collapsed logic levels (NaN delay/energy stalls any ring drawing
/// it); its leakage is unknown, so it contributes none.
const DEAD_CELL: InverterFigures = InverterFigures {
    delay_s: f64::NAN,
    static_w: 0.0,
    dynamic_w: f64::NAN,
    energy_j: f64::NAN,
    snm_v: f64::NAN,
};

/// Characterizes the stage universe once; sampling via
/// [`monte_carlo_from_universe`] is then microseconds per ring.
///
/// The 81 cell characterizations fan out across `ctx`'s thread pool in
/// chunks of `CHARACTERIZE_CHECKPOINT_CHUNK` cells. Because the nine
/// n-type and nine p-type shifted tables are pre-warmed serially (the
/// [`DeviceLibrary`] memoizes under `&mut self`) and fault probes are
/// pre-drawn in cell order, the resulting universe — and every recorded
/// fault — is bit-identical for any pool size.
///
/// Per-cell failures are isolated into dead cells (NaN figures, so rings
/// drawing them stall and count against yield) and recorded in
/// `ctx.faults()` with their cell index under stage `"characterize"`.
/// Only the nominal reference cell stays fatal, since every other figure
/// is normalized against it.
///
/// The context's budget and cancel token are probed before every chunk
/// (a no-op on an unlimited context). When `checkpoint_path` is set, the
/// completed-cell prefix is persisted (write-temp-then-rename) after every
/// chunk, keyed on fidelity, `vdd`, and `stages`; a later call with the
/// same arguments resumes from the prefix and produces a bit-identical
/// universe. A stale or corrupt file is discarded (and deleted) for a
/// clean from-scratch restart. The checkpoint is removed on completion.
/// Restored dead cells are not re-recorded in `ctx.faults()` — their fault
/// events belong to the run that computed them.
///
/// # Errors
///
/// Propagates nominal-reference characterization failures;
/// [`NumError::BudgetExhausted`] / `Cancelled` (via [`ExploreError::Num`])
/// when the context's budget trips between chunks — the checkpoint then
/// holds every completed cell — and configuration errors for unwritable
/// checkpoint paths.
pub fn characterize_stage_universe(
    ctx: &ExecCtx,
    lib: &mut DeviceLibrary,
    vdd: f64,
    stages: usize,
    checkpoint_path: Option<&Path>,
) -> Result<StageUniverse, ExploreError> {
    let _stage_timer = ctx.time_scope("mc.characterize.time");
    let shift = lib.min_leakage_shift(vdd)?;
    let nominal_freq_guess = {
        let nominal = inverter_figures(
            ctx,
            lib,
            DeviceVariant::nominal(),
            DeviceVariant::nominal(),
            vdd,
            shift,
            None,
        )?;
        1.0 / (2.0 * stages as f64 * nominal.delay_s)
    };
    // Pre-warm the 9 + 9 shifted tables serially: the library's memoization
    // needs `&mut self`, and sharing `Arc`s lets all 81 cells proceed
    // without cloning tables. A failing build poisons only the cells that
    // draw it (matching the per-cell isolation of the serial flow), not the
    // whole run; the error string is what the cell would have recorded.
    let config = |i: usize| DeviceVariant {
        n: MC_WIDTHS[i / 3],
        charge_q: MC_CHARGES[i % 3],
        scenario: ArrayScenario::AllFour,
    };
    let mut n_tables: Vec<Result<Arc<DeviceTable>, String>> = Vec::with_capacity(9);
    let mut p_tables: Vec<Result<Arc<DeviceTable>, String>> = Vec::with_capacity(9);
    for i in 0..9 {
        n_tables.push(
            lib.ntype_table(ctx, config(i))
                .map(|t| Arc::new(t.with_vg_shift(shift)))
                .map_err(|e| e.to_string()),
        );
        p_tables.push(
            lib.ptype_table(ctx, config(i))
                .map(|t| Arc::new(t.with_vg_shift(shift)))
                .map_err(|e| e.to_string()),
        );
    }
    // Pre-draw the injector probes in cell order so the per-site RNG stream
    // advances exactly as in a serial run, whatever the pool size (and
    // whether or not a checkpoint skips the leading cells).
    let injected: Vec<bool> = (0..81)
        .map(|_| gnr_num::fault::should_fail("characterize"))
        .collect();
    let key = {
        let mut h = KeyHasher::new();
        h.write_str(CHARACTERIZE_CHECKPOINT_KIND);
        h.write_str(&format!("{:?}", lib.fidelity()));
        h.write_f64(vdd);
        h.write_u64(stages as u64);
        h.finish()
    };
    let mut figures: Vec<InverterFigures> = Vec::with_capacity(81);
    if let Some(path) = checkpoint_path {
        if let LoadOutcome::Resume(cp) =
            checkpoint::load(path, CHARACTERIZE_CHECKPOINT_KIND, key, 0, 81)
        {
            if cp.records.iter().all(|r| r.len() == 5) {
                figures.extend(cp.records.iter().map(|r| InverterFigures {
                    delay_s: r[0],
                    static_w: r[1],
                    dynamic_w: r[2],
                    energy_j: r[3],
                    snm_v: r[4],
                }));
            }
        }
    }
    while figures.len() < 81 {
        ctx.check_budget("characterize.chunk")?;
        let lo = figures.len();
        let hi = (lo + CHARACTERIZE_CHECKPOINT_CHUNK).min(81);
        let cells: Vec<Result<InverterFigures, String>> = ctx.par_map_indexed(hi - lo, |i| {
            let cell = lo + i;
            if injected[cell] {
                return Err(ExploreError::config(
                    "injected fault: cell characterization suppressed",
                )
                .to_string());
            }
            let n = n_tables[cell / 9].as_ref().map_err(String::clone)?;
            let p = p_tables[cell % 9].as_ref().map_err(String::clone)?;
            inverter_figures_from_tables(n, p, vdd, Some(nominal_freq_guess))
                .map_err(|e| e.to_string())
        });
        ctx.counter_add("mc.characterize.cells", (hi - lo) as u64);
        for (offset, cell_result) in cells.into_iter().enumerate() {
            match cell_result {
                Ok(figs) => figures.push(figs),
                Err(e) => {
                    ctx.record_fault(lo + offset, "characterize", e);
                    ctx.counter_inc("mc.characterize.dead_cells");
                    figures.push(DEAD_CELL);
                }
            }
        }
        if let Some(path) = checkpoint_path {
            let cp = Checkpoint {
                kind: CHARACTERIZE_CHECKPOINT_KIND.to_string(),
                key,
                seed: 0,
                total: 81,
                records: figures
                    .iter()
                    .map(|f| vec![f.delay_s, f.static_w, f.dynamic_w, f.energy_j, f.snm_v])
                    .collect(),
            };
            checkpoint::save(path, &cp)
                .map_err(|e| ExploreError::config(format!("checkpoint write failed: {e}")))?;
        }
    }
    if let Some(path) = checkpoint_path {
        // Completed: the checkpoint has served its purpose.
        let _ = std::fs::remove_file(path);
    }
    Ok(StageUniverse { figures, stages })
}

const MC_WIDTHS: [usize; 3] = [9, 12, 15];
const MC_CHARGES: [f64; 3] = [-1.0, 0.0, 1.0];

fn cfg_index(w: usize, q: f64) -> usize {
    let wi = MC_WIDTHS
        .iter()
        .position(|&x| x == w)
        .expect("width in set");
    let qi = MC_CHARGES
        .iter()
        .position(|&x| x == q)
        .expect("charge in set");
    wi * 3 + qi
}

/// Samples `samples` rings from a pre-characterized universe — the
/// checkpoint-free, sink-free call of [`monte_carlo_from_universe_resumable`].
/// All RNG draws happen serially up front (in the exact per-sample,
/// per-stage `nw, nq, pw, pq` order of the historic serial loop), so
/// results are bit-identical for any pool size. Stalled rings are recorded
/// in `ctx.faults()` (sample id, stage `"ring"`), in sample order.
///
/// The context's budget is probed before every [`MC_CHECKPOINT_CHUNK`]
/// samples. When it trips, the result holds the completed sample prefix
/// (bit-identical to the same samples of a full run) and the stop itself
/// is dropped; call [`monte_carlo_from_universe_resumable`] to see it. On
/// an unlimited context every sample is composed.
pub fn monte_carlo_from_universe(
    ctx: &ExecCtx,
    universe: &StageUniverse,
    samples: usize,
    seed: u64,
) -> MonteCarloResult {
    monte_carlo_from_universe_resumable(ctx, universe, samples, seed, None, None)
        .expect("only checkpoint IO can fail, and there is no checkpoint")
        .result
}

/// Outcome of a budget-aware, checkpointable Monte Carlo run
/// ([`monte_carlo_from_universe_resumable`]).
#[derive(Clone, Debug)]
pub struct McRunOutcome {
    /// Statistics over the completed sample prefix (all samples when the
    /// run finished; a partial population when it was interrupted).
    pub result: MonteCarloResult,
    /// Samples actually composed (or restored from a checkpoint).
    pub completed_samples: usize,
    /// Samples the caller asked for.
    pub requested_samples: usize,
    /// `Some(BudgetExhausted | Cancelled)` when the run stopped at a chunk
    /// boundary before completing; `None` for a finished run.
    pub interrupted: Option<NumError>,
}

impl McRunOutcome {
    /// True when every requested sample was composed.
    pub fn is_complete(&self) -> bool {
        self.interrupted.is_none() && self.completed_samples == self.requested_samples
    }
}

/// One streamed chunk of a Monte Carlo run: the per-sample
/// `(period, energy, leakage)` totals for samples
/// `start .. start + totals.len()`, emitted as soon as the chunk lands.
#[derive(Clone, Debug, PartialEq)]
pub struct McChunk {
    /// Index of the first sample in this chunk.
    pub start: usize,
    /// Per-sample `(period \[s\], energy \[J\], leakage \[W\])` totals.
    pub totals: Vec<(f64, f64, f64)>,
    /// `true` when the chunk was restored from a checkpoint (resumed seed
    /// range) instead of being computed by this run.
    pub restored: bool,
}

/// The Monte Carlo sampling core: composes `samples` rings from a
/// pre-characterized universe under the context's execution budget, with
/// crash-consistent checkpoint/resume and optional streaming delivery.
///
/// Every RNG draw of every sample is made serially up front, then the
/// samples are composed in chunks of [`MC_CHECKPOINT_CHUNK`] across
/// `ctx`'s pool with an index-ordered merge. The budget and cancel token
/// (see [`ExecCtx::check_budget`]) are probed at every chunk boundary.
/// When `checkpoint_path` is set, the completed per-sample records are
/// persisted (write-temp-then-rename) after each chunk, keyed on the
/// universe content, sample count, and RNG seed.
///
/// A resumed run replays the *entire* serial pre-draw and then skips the
/// restored prefix, so the final summary is bit-identical to an
/// uninterrupted run at any `GNR_THREADS`. A stale or corrupt checkpoint
/// is discarded (and deleted) for a clean from-scratch restart; the file
/// is removed on completion. Stall fault events for restored samples are
/// re-recorded during the final merge, in sample order.
///
/// When `sink` is set it receives every chunk as soon as it lands, in
/// sample order (last one possibly short). On a resumed run the restored
/// prefix arrives first as a single chunk with [`McChunk::restored`] set,
/// so a consumer sees the full contiguous sample range exactly once.
///
/// # Errors
///
/// Returns a configuration error when the checkpoint path is unwritable.
/// Budget exhaustion is NOT an error: it is reported via
/// [`McRunOutcome::interrupted`] alongside the partial statistics.
pub fn monte_carlo_from_universe_resumable(
    ctx: &ExecCtx,
    universe: &StageUniverse,
    samples: usize,
    seed: u64,
    checkpoint_path: Option<&Path>,
    mut sink: Option<&mut dyn FnMut(&McChunk)>,
) -> Result<McRunOutcome, ExploreError> {
    let _stage_timer = ctx.time_scope("mc.sample.time");
    let stages = universe.stages;
    let pair =
        |ncfg: usize, pcfg: usize| -> &InverterFigures { &universe.figures[ncfg * 9 + pcfg] };

    // The full serial pre-draw runs unconditionally — also on resumed runs
    // — so the RNG consumption pattern (per-sample, per-stage nw, nq, pw,
    // pq) never depends on where a previous run stopped.
    let dist = DiscreteNormal::default();
    let mut rng = Rng::seed_from_u64(seed);
    let mut draws: Vec<(usize, usize)> = Vec::with_capacity(samples * stages);
    for _ in 0..samples {
        for _ in 0..stages {
            let nw = dist.draw(&mut rng, 9usize, 12, 15);
            let nq = dist.draw(&mut rng, -1.0f64, 0.0, 1.0);
            let pw = dist.draw(&mut rng, 9usize, 12, 15);
            let pq = dist.draw(&mut rng, -1.0f64, 0.0, 1.0);
            draws.push((cfg_index(nw, nq), cfg_index(pw, pq)));
        }
    }

    let key = mc_universe_key(universe, samples);
    let mut totals: Vec<(f64, f64, f64)> = Vec::with_capacity(samples);
    // Chunks are handed to the sink by reference and then moved into
    // `totals`, so streaming costs no copy and the sink-free path none
    // either.
    let mut deliver = |chunk: McChunk, totals: &mut Vec<(f64, f64, f64)>| {
        if let Some(sink) = sink.as_mut() {
            sink(&chunk);
        }
        totals.extend(chunk.totals);
    };
    if let Some(path) = checkpoint_path {
        if let LoadOutcome::Resume(cp) =
            checkpoint::load(path, MC_CHECKPOINT_KIND, key, seed, samples)
        {
            if !cp.records.is_empty() && cp.records.iter().all(|r| r.len() == 3) {
                let restored = McChunk {
                    start: 0,
                    totals: cp.records.iter().map(|r| (r[0], r[1], r[2])).collect(),
                    restored: true,
                };
                deliver(restored, &mut totals);
            }
        }
    }

    let mut interrupted: Option<NumError> = None;
    while totals.len() < samples {
        if let Err(e) = ctx.check_budget("mc.chunk") {
            interrupted = Some(e);
            break;
        }
        let lo = totals.len();
        let hi = (lo + MC_CHECKPOINT_CHUNK).min(samples);
        // Per-sample accumulation preserves the serial loop's operation
        // order exactly (stage order within a sample); samples are
        // independent, so chunking cannot change their bits.
        let chunk: Vec<(f64, f64, f64)> = ctx.par_map_indexed(hi - lo, |i| {
            let sample = lo + i;
            let mut period = 0.0;
            let mut energy = 0.0;
            let mut leak = 0.0;
            for &(ncfg, pcfg) in &draws[sample * stages..(sample + 1) * stages] {
                let figs = pair(ncfg, pcfg);
                period += 2.0 * figs.delay_s;
                energy += figs.energy_j;
                // Dummies (3 per stage) share the driving stage's config.
                leak += 4.0 * figs.static_w;
            }
            (period, energy, leak)
        });
        deliver(
            McChunk {
                start: lo,
                totals: chunk,
                restored: false,
            },
            &mut totals,
        );
        ctx.counter_add("mc.samples", (hi - lo) as u64);
        if let Some(path) = checkpoint_path {
            let cp = Checkpoint {
                kind: MC_CHECKPOINT_KIND.to_string(),
                key,
                seed,
                total: samples,
                records: totals.iter().map(|&(p, e, l)| vec![p, e, l]).collect(),
            };
            checkpoint::save(path, &cp)
                .map_err(|e| ExploreError::config(format!("checkpoint write failed: {e}")))?;
        }
    }
    if interrupted.is_none() {
        if let Some(path) = checkpoint_path {
            // Completed: the checkpoint has served its purpose.
            let _ = std::fs::remove_file(path);
        }
    }
    // The pre-draw is the run's largest buffer (16 B per sample-stage):
    // free it before the merge allocates the result vectors, so the two
    // never coexist and peak memory stays at the population's size.
    drop(draws);
    Ok(McRunOutcome {
        result: result_from_totals(ctx, universe, &totals),
        completed_samples: totals.len(),
        requested_samples: samples,
        interrupted,
    })
}

/// FNV identity of a sampling run: universe content, stage count, and
/// sample count (the seed is carried separately in the checkpoint header).
fn mc_universe_key(universe: &StageUniverse, samples: usize) -> u64 {
    let mut h = KeyHasher::new();
    h.write_str(MC_CHECKPOINT_KIND);
    h.write_u64(universe.stages as u64);
    h.write_u64(samples as u64);
    for f in &universe.figures {
        h.write_f64(f.delay_s);
        h.write_f64(f.static_w);
        h.write_f64(f.dynamic_w);
        h.write_f64(f.energy_j);
        h.write_f64(f.snm_v);
    }
    h.finish()
}

/// Merges per-sample totals into a [`MonteCarloResult`], walking samples in
/// index order so stall records land in sample order for any pool size.
fn result_from_totals(
    ctx: &ExecCtx,
    universe: &StageUniverse,
    totals: &[(f64, f64, f64)],
) -> MonteCarloResult {
    let stages = universe.stages;
    let pair =
        |ncfg: usize, pcfg: usize| -> &InverterFigures { &universe.figures[ncfg * 9 + pcfg] };
    let nominal = pair(cfg_index(12, 0.0), cfg_index(12, 0.0));
    let nominal_period = 2.0 * stages as f64 * nominal.delay_s;
    let nominal_frequency_hz = 1.0 / nominal_period;
    let nominal_dynamic_w = stages as f64 * nominal.energy_j / nominal_period;
    let nominal_static_w = 4.0 * stages as f64 * nominal.static_w;

    let mut frequency_hz = Vec::with_capacity(totals.len());
    let mut dynamic_w = Vec::with_capacity(totals.len());
    let mut static_w = Vec::with_capacity(totals.len());
    let mut stalled_samples = 0usize;
    for (sample, &(period, energy, leak)) in totals.iter().enumerate() {
        // A drawn stage with collapsed logic levels (NaN delay) stalls the
        // ring: count it as a functional-yield loss, keep its leakage.
        if !period.is_finite() || !energy.is_finite() {
            stalled_samples += 1;
            ctx.record_fault(
                sample,
                "ring",
                "ring stalled: non-finite period/energy from a dead or collapsed stage",
            );
            static_w.push(leak);
            continue;
        }
        frequency_hz.push(1.0 / period);
        dynamic_w.push(energy / period);
        static_w.push(leak);
    }
    // Recorded once after the ordered merge: commutative totals, so any
    // pool size reports identical counters.
    ctx.counter_add("mc.stalled_rings", stalled_samples as u64);
    MonteCarloResult {
        frequency_hz,
        dynamic_w,
        static_w,
        nominal_frequency_hz,
        nominal_dynamic_w,
        nominal_static_w,
        stalled_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_normal_masses() {
        let d = DiscreteNormal::default();
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            match d.draw(&mut rng, 0usize, 1, 2) {
                0 => counts[0] += 1,
                1 => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        let f = |c: usize| c as f64 / 30_000.0;
        assert!((f(counts[0]) - 0.1587).abs() < 0.01);
        assert!((f(counts[2]) - 0.1587).abs() < 0.01);
        assert!((f(counts[1]) - 0.6826).abs() < 0.015);
    }

    /// Universe sampling is bit-identical across pool sizes: the RNG is
    /// consumed serially up front and the merge preserves sample order.
    #[test]
    fn universe_sampling_bit_identical_across_pools() {
        // A synthetic universe with one dead cell exercises the stall path.
        let mut figures = vec![
            InverterFigures {
                delay_s: 1e-11,
                static_w: 1e-7,
                dynamic_w: 5e-7,
                energy_j: 1e-16,
                snm_v: 0.1,
            };
            81
        ];
        for (i, f) in figures.iter_mut().enumerate() {
            f.delay_s *= 1.0 + 0.01 * i as f64;
            f.static_w *= 1.0 + 0.02 * i as f64;
        }
        figures[7] = DEAD_CELL;
        let universe = StageUniverse {
            figures,
            stages: 15,
        };
        let serial_ctx = ExecCtx::serial();
        let serial = monte_carlo_from_universe(&serial_ctx, &universe, 500, 20080608);
        for threads in [2, 4] {
            let ctx = ExecCtx::with_threads(threads);
            let par = monte_carlo_from_universe(&ctx, &universe, 500, 20080608);
            assert_eq!(serial.stalled_samples, par.stalled_samples);
            assert_eq!(serial.frequency_hz.len(), par.frequency_hz.len());
            for (a, b) in serial.frequency_hz.iter().zip(&par.frequency_hz) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in serial.dynamic_w.iter().zip(&par.dynamic_w) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in serial.static_w.iter().zip(&par.static_w) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Stall faults land in the shared log in sample order.
            let faults = ctx.faults().take();
            assert_eq!(faults.len(), par.stalled_samples);
            let samples: Vec<usize> = faults.events().iter().map(|e| e.sample).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            assert_eq!(samples, sorted);
        }
    }

    fn synthetic_universe() -> StageUniverse {
        let mut figures = vec![
            InverterFigures {
                delay_s: 1e-11,
                static_w: 1e-7,
                dynamic_w: 5e-7,
                energy_j: 1e-16,
                snm_v: 0.1,
            };
            81
        ];
        for (i, f) in figures.iter_mut().enumerate() {
            f.delay_s *= 1.0 + 0.01 * i as f64;
            f.static_w *= 1.0 + 0.02 * i as f64;
        }
        figures[7] = DEAD_CELL;
        StageUniverse {
            figures,
            stages: 15,
        }
    }

    fn temp_checkpoint(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gnr-mc-test-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn streamed_chunks_match_the_sink_free_run() {
        let universe = synthetic_universe();
        let ctx = ExecCtx::with_threads(2);
        let plain = monte_carlo_from_universe(&ctx, &universe, 700, 20080608);
        let mut streamed: Vec<(f64, f64, f64)> = Vec::new();
        let out = monte_carlo_from_universe_resumable(
            &ctx,
            &universe,
            700,
            20080608,
            None,
            Some(&mut |c: &McChunk| {
                assert_eq!(c.start, streamed.len(), "chunks arrive in sample order");
                assert!(!c.restored);
                streamed.extend_from_slice(&c.totals);
            }),
        )
        .expect("no checkpoint IO");
        assert!(out.is_complete());
        assert_eq!(streamed.len(), 700);
        let functional: Vec<f64> = streamed
            .iter()
            .filter(|t| t.0.is_finite() && t.1.is_finite())
            .map(|t| 1.0 / t.0)
            .collect();
        assert_eq!(functional.len(), plain.frequency_hz.len());
        for (a, b) in functional.iter().zip(&plain.frequency_hz) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (t, b) in streamed.iter().zip(&plain.static_w) {
            assert_eq!(t.2.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn interrupted_run_checkpoints_and_resumes_bit_identically() {
        use gnr_num::budget::{Budget, ExecLimits};
        let universe = synthetic_universe();
        let path = temp_checkpoint("resume");
        let _ = std::fs::remove_file(&path);

        let plain_ctx = ExecCtx::serial();
        let uninterrupted = monte_carlo_from_universe(&plain_ctx, &universe, 700, 20080608);

        // Budget for exactly one chunk: 700 samples need three chunks, so
        // the run stops early with a checkpoint holding 256 samples.
        let limits = ExecLimits::none().with_budget(Budget::unlimited().with_check_cap(1));
        let ctx = ExecCtx::serial().with_limits(limits);
        let partial =
            monte_carlo_from_universe_resumable(&ctx, &universe, 700, 20080608, Some(&path), None)
                .expect("checkpoint writes");
        assert!(partial.interrupted.is_some(), "budget should have tripped");
        assert_eq!(partial.completed_samples, MC_CHECKPOINT_CHUNK);
        assert!(path.exists(), "checkpoint file persisted");
        // The partial population is a strict prefix of the full run.
        assert!(partial.result.frequency_hz.len() < uninterrupted.frequency_hz.len());
        for (a, b) in partial
            .result
            .frequency_hz
            .iter()
            .zip(&uninterrupted.frequency_hz)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Resume on a differently-sized pool: bit-identical final summary.
        let ctx = ExecCtx::with_threads(4);
        let resumed =
            monte_carlo_from_universe_resumable(&ctx, &universe, 700, 20080608, Some(&path), None)
                .expect("resumes");
        assert!(resumed.is_complete());
        assert!(!path.exists(), "checkpoint removed on completion");
        assert_eq!(
            resumed.result.stalled_samples,
            uninterrupted.stalled_samples
        );
        assert_eq!(
            resumed.result.frequency_hz.len(),
            uninterrupted.frequency_hz.len()
        );
        for (a, b) in resumed
            .result
            .frequency_hz
            .iter()
            .zip(&uninterrupted.frequency_hz)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in resumed
            .result
            .dynamic_w
            .iter()
            .zip(&uninterrupted.dynamic_w)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in resumed.result.static_w.iter().zip(&uninterrupted.static_w) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mismatched_checkpoint_is_discarded_and_run_restarts_clean() {
        let universe = synthetic_universe();
        let path = temp_checkpoint("mismatch");
        let _ = std::fs::remove_file(&path);
        // Checkpoint a run with a different seed...
        let ctx = ExecCtx::serial();
        let limits = gnr_num::budget::ExecLimits::none()
            .with_budget(gnr_num::budget::Budget::unlimited().with_check_cap(1));
        let bctx = ctx.with_limits(limits);
        let partial =
            monte_carlo_from_universe_resumable(&bctx, &universe, 700, 1, Some(&path), None)
                .expect("checkpoint writes");
        assert!(partial.interrupted.is_some());
        // ...then ask for seed 20080608: the stale file must be discarded
        // and the result must equal a from-scratch run.
        let resumed =
            monte_carlo_from_universe_resumable(&ctx, &universe, 700, 20080608, Some(&path), None)
                .expect("restarts");
        assert!(resumed.is_complete());
        let fresh = monte_carlo_from_universe(&ctx, &universe, 700, 20080608);
        assert_eq!(resumed.result.stalled_samples, fresh.stalled_samples);
        for (a, b) in resumed.result.frequency_hz.iter().zip(&fresh.frequency_hz) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn histogram_covers_samples() {
        let values = vec![1.0, 2.0, 3.0, 2.5, 2.0];
        let h = MonteCarloResult::histogram(&values, 5).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.outliers(), (0, 0));
    }
}
