//! Characterization service: typed jobs over the exploration engines.
//!
//! The paper's methodology — device characterization feeding
//! circuit-level exploration — is exposed here as a small serving layer
//! instead of one-shot figure scripts. A [`CharacterizationService`] owns
//! an [`ExecCtx`] (thread pool, fault log, telemetry, execution limits) and a
//! [`DeviceLibrary`] riding a content-addressed
//! [`TableStore`], and processes typed
//! [`JobRequest`]s:
//!
//! * [`JobRequest::Characterize`] — build the 81-cell stage universe for
//!   one `(V_DD, stages)` operating point;
//! * [`JobRequest::McSweep`] — Monte Carlo over a universe, with
//!   checkpoint/resume by seed range and (via
//!   [`submit_streaming`](CharacterizationService::submit_streaming))
//!   per-chunk incremental delivery;
//! * [`JobRequest::EdpContour`] — the `(V_DD, V_T)` design-space map;
//! * [`JobRequest::DeckOp`] — DC operating point of a SPICE deck
//!   (`gnr_spice::netlist`), returned as a `gnr-rawfile/v1` document.
//!
//! Jobs are admitted through a FIFO queue
//! ([`enqueue`](CharacterizationService::enqueue) /
//! [`run_queued`](CharacterizationService::run_queued)) and executed one
//! at a time — each job fans its inner work (table bias grids, universe
//! cells, sample chunks) across the context's pool, so serial admission
//! costs no parallelism and keeps every run bit-identical to the
//! single-shot call. The context's [`ExecLimits`] are honored at every
//! chunk boundary: a tripped budget or cancellation surfaces as a typed
//! error (or as [`McRunOutcome::interrupted`] with the partial
//! population, for sweeps). Every [`JobResponse`] embeds a
//! [`TelemetrySnapshot`] taken after the job, so an admission controller
//! can watch cache hit rates, sample counts, and solver effort per job.
//!
//! Repeated jobs are the common case in design-space exploration, and
//! they are served from caches at two levels: device tables from the
//! content-addressed store (shared by every library and service handle
//! cloned from it), and characterized universes from an in-service memo
//! keyed by `(fidelity, V_DD, stages)`.

use crate::contours::{design_space_map, DesignSpaceMap};
use crate::devices::{DeviceLibrary, Fidelity};
use crate::error::ExploreError;
use crate::monte_carlo::{
    characterize_stage_universe, monte_carlo_from_universe_resumable, McChunk, McRunOutcome,
    StageUniverse,
};
use gnr_device::table::TableGrid;
use gnr_device::{
    ballistic_negf_table, DeviceTable, NegfTableOptions, Polarity, TableKey, TableStore,
};
use gnr_num::budget::ExecLimits;
use gnr_num::checkpoint::KeyHasher;
use gnr_num::json::Json;
use gnr_num::par::ExecCtx;
use gnr_num::telemetry::TelemetrySnapshot;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

/// A typed characterization job in canonical form: every field that can
/// change the answer is explicit, which is what lets requests map 1:1
/// onto cache keys and solver options without field-by-field surgery.
#[derive(Clone, Debug, PartialEq)]
pub enum JobRequest {
    /// Characterize the 81-cell stage universe at one operating point.
    Characterize {
        /// Supply voltage \[V\].
        vdd: f64,
        /// Ring-oscillator stage count the universe is normalized for.
        stages: usize,
    },
    /// Monte Carlo sweep over the universe at `(vdd, stages)`.
    McSweep {
        /// Supply voltage \[V\].
        vdd: f64,
        /// Ring-oscillator stage count.
        stages: usize,
        /// Oscillator samples to draw.
        samples: usize,
        /// RNG seed (the resume identity together with the sample range).
        seed: u64,
        /// Optional checkpoint file for interrupt/resume by seed range.
        checkpoint: Option<PathBuf>,
    },
    /// The `(V_DD, V_T)` design-space map (frequency, EDP, SNM, power).
    EdpContour {
        /// Supply-voltage axis \[V\].
        vdd_axis: Vec<f64>,
        /// Threshold-shift axis \[V\].
        vt_axis: Vec<f64>,
        /// Ring-oscillator stage count.
        stages: usize,
    },
    /// A ballistic NEGF device table at the library's fidelity, served
    /// through the content-addressed store. The options select the solver
    /// path (real-space vs mode-space RGF, grid, cache), and the cached
    /// table records which path built it
    /// ([`DeviceTable::solver_path`]).
    NegfTable {
        /// GNR index of the ribbon.
        n: usize,
        /// Bias grid to tabulate.
        grid: TableGrid,
        /// Identical parallel ribbons folded into the table.
        ribbons: usize,
        /// NEGF sweep options (energy grid, cache, mode-space reduction).
        opts: NegfTableOptions,
    },
    /// DC operating point of a SPICE deck. The deck text is the whole
    /// request (canonical form): surrogate `.model` cards auto-build
    /// their tables during elaboration, and `extern` cards are rejected —
    /// a deck job carries no out-of-band table bindings.
    DeckOp {
        /// Full netlist text (title line first, `.end` last).
        deck: String,
    },
}

impl JobRequest {
    /// A characterization job at `(vdd, stages)`.
    pub fn characterize(vdd: f64, stages: usize) -> Self {
        JobRequest::Characterize { vdd, stages }
    }

    /// A Monte Carlo sweep job with no checkpoint.
    pub fn mc_sweep(vdd: f64, stages: usize, samples: usize, seed: u64) -> Self {
        JobRequest::McSweep {
            vdd,
            stages,
            samples,
            seed,
            checkpoint: None,
        }
    }

    /// A design-space contour job.
    pub fn edp_contour(vdd_axis: Vec<f64>, vt_axis: Vec<f64>, stages: usize) -> Self {
        JobRequest::EdpContour {
            vdd_axis,
            vt_axis,
            stages,
        }
    }

    /// A ballistic NEGF table job.
    pub fn negf_table(n: usize, grid: TableGrid, ribbons: usize, opts: NegfTableOptions) -> Self {
        JobRequest::NegfTable {
            n,
            grid,
            ribbons,
            opts,
        }
    }

    /// A deck DC-operating-point job.
    pub fn deck_op(deck: impl Into<String>) -> Self {
        JobRequest::DeckOp { deck: deck.into() }
    }

    /// Attaches a checkpoint path (meaningful for [`JobRequest::McSweep`];
    /// a no-op for other job kinds).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        if let JobRequest::McSweep { checkpoint, .. } = &mut self {
            *checkpoint = Some(path.into());
        }
        self
    }
}

/// The typed payload of a completed job.
#[derive(Clone, Debug)]
pub enum JobOutput {
    /// The characterized stage universe.
    Universe(Arc<StageUniverse>),
    /// The Monte Carlo outcome (complete or interrupted-with-prefix).
    McSweep(McRunOutcome),
    /// The design-space map.
    EdpContour(DesignSpaceMap),
    /// The ballistic NEGF device table.
    Table(Arc<DeviceTable>),
    /// A deck DC solution as a `gnr-rawfile/v1` document.
    DeckRaw(Json),
}

/// A completed job: its output plus the telemetry snapshot taken when it
/// finished (counters accumulate across the service's lifetime, so the
/// *delta* between two responses is the cost of the jobs between them).
#[derive(Clone, Debug)]
pub struct JobResponse {
    /// The job's typed result.
    pub output: JobOutput,
    /// Telemetry at completion — cache hits/misses, sample counts, solver
    /// effort — for admission-control visibility.
    pub telemetry: TelemetrySnapshot,
}

impl JobResponse {
    /// The universe payload, if this response carries one.
    pub fn universe(&self) -> Option<&StageUniverse> {
        match &self.output {
            JobOutput::Universe(u) => Some(u),
            _ => None,
        }
    }

    /// The Monte Carlo payload, if this response carries one.
    pub fn mc(&self) -> Option<&McRunOutcome> {
        match &self.output {
            JobOutput::McSweep(o) => Some(o),
            _ => None,
        }
    }

    /// The contour payload, if this response carries one.
    pub fn contour(&self) -> Option<&DesignSpaceMap> {
        match &self.output {
            JobOutput::EdpContour(m) => Some(m),
            _ => None,
        }
    }

    /// The NEGF table payload, if this response carries one.
    pub fn table(&self) -> Option<&DeviceTable> {
        match &self.output {
            JobOutput::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The deck rawfile payload, if this response carries one.
    pub fn deck_raw(&self) -> Option<&Json> {
        match &self.output {
            JobOutput::DeckRaw(j) => Some(j),
            _ => None,
        }
    }
}

/// The serving layer: an execution context, a cached device library, a
/// universe memo, and a FIFO admission queue. See the [module docs](self).
pub struct CharacterizationService {
    ctx: ExecCtx,
    lib: DeviceLibrary,
    universes: HashMap<u64, Arc<StageUniverse>>,
    queue: VecDeque<JobRequest>,
}

impl CharacterizationService {
    /// A service at `fidelity` on `ctx`, with a fresh in-memory table
    /// store.
    pub fn new(ctx: ExecCtx, fidelity: Fidelity) -> Self {
        Self::with_library(ctx, DeviceLibrary::new(fidelity))
    }

    /// A service over an existing library — the way to share a table
    /// store (and its already-built tables) with other consumers.
    pub fn with_library(ctx: ExecCtx, lib: DeviceLibrary) -> Self {
        CharacterizationService {
            ctx,
            lib,
            universes: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// The execution context jobs run on.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }

    /// The content-addressed table store backing the service's library.
    pub fn store(&self) -> &Arc<TableStore> {
        self.lib.store()
    }

    /// Mutable access to the device library (e.g. to pre-warm tables).
    pub fn library(&mut self) -> &mut DeviceLibrary {
        &mut self.lib
    }

    /// Replaces the context's execution limits (a fresh budget window or
    /// cancel token) while keeping the pool, the table store, and the
    /// universe memo — how a long-lived service accepts new jobs after a
    /// tripped budget or a cancelled sweep.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.ctx = self.ctx.clone().with_limits(limits);
    }

    /// Appends a job to the admission queue without running it.
    pub fn enqueue(&mut self, request: JobRequest) {
        self.queue.push_back(request);
    }

    /// Jobs currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue FIFO, returning one result per job in admission
    /// order. A failed job does not abort the queue — later jobs still
    /// run — except for budget/cancellation stops, which would fail every
    /// subsequent job against the same tripped limits and therefore drain
    /// the remaining queue as errors without touching the solvers.
    pub fn run_queued(&mut self) -> Vec<Result<JobResponse, ExploreError>> {
        let mut responses = Vec::with_capacity(self.queue.len());
        while let Some(request) = self.queue.pop_front() {
            match self.ctx.check_budget("service.admit") {
                Err(e) => responses.push(Err(e.into())),
                Ok(()) => responses.push(self.submit(request)),
            }
        }
        responses
    }

    /// Runs one job to completion on the service's context.
    ///
    /// # Errors
    ///
    /// Propagates engine failures, and budget/cancellation stops (via
    /// [`ExploreError::Num`]) for characterization and contour jobs; an
    /// interrupted sweep is NOT an error (see [`McRunOutcome`]).
    pub fn submit(&mut self, request: JobRequest) -> Result<JobResponse, ExploreError> {
        self.dispatch(request, None)
    }

    /// Runs one job like [`submit`](CharacterizationService::submit), with
    /// streaming delivery for [`JobRequest::McSweep`]: `sink` receives every
    /// completed chunk (restored prefix first on a resume) as soon as it
    /// lands. Other job kinds emit nothing.
    ///
    /// # Errors
    ///
    /// As [`submit`](CharacterizationService::submit).
    pub fn submit_streaming(
        &mut self,
        request: JobRequest,
        sink: &mut dyn FnMut(&McChunk),
    ) -> Result<JobResponse, ExploreError> {
        self.dispatch(request, Some(sink))
    }

    /// The one job dispatch behind [`submit`](CharacterizationService::submit)
    /// and [`submit_streaming`](CharacterizationService::submit_streaming).
    fn dispatch(
        &mut self,
        request: JobRequest,
        sink: Option<&mut dyn FnMut(&McChunk)>,
    ) -> Result<JobResponse, ExploreError> {
        let output = match request {
            JobRequest::Characterize { vdd, stages } => {
                JobOutput::Universe(self.universe(vdd, stages)?)
            }
            JobRequest::McSweep {
                vdd,
                stages,
                samples,
                seed,
                checkpoint,
            } => {
                let universe = self.universe(vdd, stages)?;
                JobOutput::McSweep(monte_carlo_from_universe_resumable(
                    &self.ctx,
                    &universe,
                    samples,
                    seed,
                    checkpoint.as_deref(),
                    sink,
                )?)
            }
            JobRequest::EdpContour {
                vdd_axis,
                vt_axis,
                stages,
            } => JobOutput::EdpContour(design_space_map(
                &self.ctx,
                &mut self.lib,
                &vdd_axis,
                &vt_axis,
                stages,
            )?),
            JobRequest::NegfTable {
                n,
                grid,
                ribbons,
                opts,
            } => JobOutput::Table(Arc::new(self.negf_table(n, grid, ribbons, &opts)?)),
            JobRequest::DeckOp { deck } => JobOutput::DeckRaw(self.deck_op(&deck)?),
        };
        Ok(self.respond(output))
    }

    /// Parses, elaborates, and DC-solves one deck under the service's
    /// execution limits, honoring the context's rescue policy exactly as
    /// the builder-based flows do.
    fn deck_op(&self, deck: &str) -> Result<Json, ExploreError> {
        let parsed = gnr_spice::parse_deck(deck)
            .map_err(|e| ExploreError::config(format!("deck parse: {e}")))?;
        let elab = parsed
            .elaborate(&gnr_spice::ModelBindings::new())
            .map_err(|e| ExploreError::config(format!("deck elaboration: {e}")))?;
        let x = gnr_spice::dc_operating_point(
            &elab.circuit,
            None,
            gnr_spice::DcOptions::default(),
            self.ctx.limits(),
        )?;
        Ok(gnr_spice::rawfile::dc_rawfile(&elab, &x))
    }

    /// Builds (or serves from the store) the NEGF table for one request.
    /// The canonical key covers the device geometry and every solver
    /// option, mode-space fields included, so the two RGF paths never
    /// alias each other's entries.
    fn negf_table(
        &mut self,
        n: usize,
        grid: TableGrid,
        ribbons: usize,
        opts: &NegfTableOptions,
    ) -> Result<DeviceTable, ExploreError> {
        let model = self.lib.model(n, 0.0)?;
        let key = TableKey::new("service-negf/v1")
            .field_str("fidelity", &format!("{:?}", self.lib.fidelity()))
            .device(model.config())
            .grid(&grid)
            .polarity(Polarity::NType)
            .ribbons(ribbons.max(1))
            .negf(opts)
            .finish();
        let store = Arc::clone(self.lib.store());
        let ctx = &self.ctx;
        Ok(store.get_or_build(key, || {
            ballistic_negf_table(ctx, &model, Polarity::NType, grid, ribbons, opts)
        })?)
    }

    /// The memoized universe for `(vdd, stages)`, characterizing on miss.
    fn universe(&mut self, vdd: f64, stages: usize) -> Result<Arc<StageUniverse>, ExploreError> {
        let key = {
            let mut h = KeyHasher::new();
            h.write_str("service-universe");
            h.write_str(&format!("{:?}", self.lib.fidelity()));
            h.write_f64(vdd);
            h.write_u64(stages as u64);
            h.finish()
        };
        if let Some(u) = self.universes.get(&key) {
            return Ok(Arc::clone(u));
        }
        let universe = Arc::new(characterize_stage_universe(
            &self.ctx,
            &mut self.lib,
            vdd,
            stages,
            None,
        )?);
        self.universes.insert(key, Arc::clone(&universe));
        Ok(universe)
    }

    fn respond(&self, output: JobOutput) -> JobResponse {
        JobResponse {
            output,
            telemetry: self.ctx.telemetry().snapshot(),
        }
    }
}

/// Convenience: a service whose context honors the given limits (a fresh
/// [`ExecCtx::from_env`] pool with `limits` attached).
pub fn service_with_limits(fidelity: Fidelity, limits: ExecLimits) -> CharacterizationService {
    CharacterizationService::new(ExecCtx::from_env().with_limits(limits), fidelity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_are_canonical() {
        let a = JobRequest::mc_sweep(0.4, 15, 100, 7).with_checkpoint("/tmp/x.json");
        match a {
            JobRequest::McSweep {
                checkpoint: Some(p),
                samples: 100,
                ..
            } => assert_eq!(p, PathBuf::from("/tmp/x.json")),
            other => panic!("unexpected request {other:?}"),
        }
        // with_checkpoint on a non-sweep is an explicit no-op.
        let b = JobRequest::characterize(0.4, 15).with_checkpoint("/tmp/y.json");
        assert_eq!(
            b,
            JobRequest::Characterize {
                vdd: 0.4,
                stages: 15
            }
        );
    }
}
