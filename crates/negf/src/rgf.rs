//! Recursive Green's function (RGF) solver for block-tridiagonal devices.
//!
//! Works layer-by-layer so the cost scales linearly with device length and
//! cubically only in the layer width — the "efficient computational
//! algorithms \[that\] make routine device simulation possible on a personal
//! computer" the paper refers to.
//!
//! Conventions: layers `0..L`, contact 1 (source) attached to layer 0,
//! contact 2 (drain) to layer `L−1`. `A(E) = (E + iη)I − H − Σ` is the
//! inverse Green's function; its blocks are
//! `D_l = (E + iη)I − H_l − δ_{l,0}Σ₁ − δ_{l,L−1}Σ₂`, `U = −H01`, `L = −H10`.

use crate::cache::{LeadSlot, Lookup, SurfaceGfCache};
use crate::error::NegfError;
use crate::lead::{broadening, surface_gf, Lead, DEFAULT_ETA, SURFACE_GF_MAX_ITER};
use crate::transport::SpectralSolver;
use gnr_lattice::DeviceHamiltonian;
use gnr_num::budget::ExecLimits;
use gnr_num::par::ExecCtx;
use gnr_num::telemetry;
use gnr_num::{c64, CMatrix, Telemetry, TelemetryShard};
use std::collections::HashSet;
use std::sync::Arc;

/// Small imaginary part added to the energy for retarded boundary behaviour.
pub const RGF_ETA: f64 = 1e-6;

/// Per-energy transport quantities resolved by the RGF sweeps.
#[derive(Clone, Debug)]
pub struct SpectralSlice {
    /// Energy (eV).
    pub energy: f64,
    /// Transmission `T(E) = Tr[Γ₂ G_{L−1,0} Γ₁ G_{L−1,0}†]`.
    pub transmission: f64,
    /// Diagonal of the source-injected spectral function `A₁ = GΓ₁G†`,
    /// one entry per atom (units 1/eV after the 2π normalization applied
    /// by the charge integrator).
    pub a1_diag: Vec<f64>,
    /// Diagonal of the drain-injected spectral function `A₂`.
    pub a2_diag: Vec<f64>,
}

impl SpectralSlice {
    /// Local density of states per atom, `(A₁ + A₂)/2π` (states/eV).
    pub fn ldos(&self) -> Vec<f64> {
        self.a1_diag
            .iter()
            .zip(&self.a2_diag)
            .map(|(a, b)| (a + b) / (2.0 * std::f64::consts::PI))
            .collect()
    }
}

/// Full per-layer spectral blocks resolved by the RGF sweeps — the matrix
/// form of [`SpectralSlice`], needed when the solve runs in a transformed
/// basis and the diagonals only become physical after rotating back.
#[derive(Clone, Debug)]
pub(crate) struct SpectralBlocks {
    pub(crate) energy: f64,
    pub(crate) transmission: f64,
    /// Per-layer source-injected spectral blocks `A₁(l) = G_{l,0}Γ₁G_{l,0}†`.
    pub(crate) a1: Vec<CMatrix>,
    /// Per-layer drain-injected spectral blocks `A₂(l)`.
    pub(crate) a2: Vec<CMatrix>,
}

impl SpectralBlocks {
    /// Collapses the blocks to their clamped real diagonals — the same
    /// arithmetic (and bit pattern) as the direct diagonal assembly.
    pub(crate) fn into_slice(self) -> SpectralSlice {
        let m = self.a1.first().map_or(0, CMatrix::rows);
        let mut a1_diag = Vec::with_capacity(self.a1.len() * m);
        let mut a2_diag = Vec::with_capacity(self.a2.len() * m);
        for (a1, a2) in self.a1.iter().zip(&self.a2) {
            for i in 0..m {
                a1_diag.push(a1.get(i, i).re.max(0.0));
                a2_diag.push(a2.get(i, i).re.max(0.0));
            }
        }
        SpectralSlice {
            energy: self.energy,
            transmission: self.transmission,
            a1_diag,
            a2_diag,
        }
    }
}

/// Recursive Green's-function solver bound to one device Hamiltonian and a
/// pair of contact models.
#[derive(Clone, Debug)]
pub struct RgfSolver {
    diag: Vec<CMatrix>,
    h01: CMatrix,
    h10: CMatrix,
    lead1: Lead,
    lead2: Lead,
    /// Bare lead blocks for self-energy evaluation (unshifted ribbon cell).
    lead_h00: CMatrix,
    lead_h01: CMatrix,
}

impl RgfSolver {
    /// Binds a solver to `h` with source lead `lead1` (layer 0 side) and
    /// drain lead `lead2` (last layer side).
    pub fn new(h: &DeviceHamiltonian, lead1: Lead, lead2: Lead) -> Self {
        let (lead_h00, lead_h01) = gnr_lattice::unit_cell_hamiltonian(h.gnr());
        RgfSolver {
            diag: (0..h.layers()).map(|l| h.diag_block(l).clone()).collect(),
            h01: h.coupling_block().clone(),
            h10: h.coupling_block().adjoint(),
            lead1,
            lead2,
            lead_h00,
            lead_h01,
        }
    }

    /// Binds a solver to explicit blocks — the hook the mode-space path
    /// uses to run the identical RGF/Sancho–Rubio machinery on reduced
    /// (basis-transformed) blocks. `diag` holds one square block per
    /// layer, `h01` the inter-layer coupling, and `lead_h00`/`lead_h01`
    /// the periodic lead cell in the same basis.
    pub(crate) fn from_blocks(
        diag: Vec<CMatrix>,
        h01: CMatrix,
        lead1: Lead,
        lead2: Lead,
        lead_h00: CMatrix,
        lead_h01: CMatrix,
    ) -> Self {
        RgfSolver {
            h10: h01.adjoint(),
            diag,
            h01,
            lead1,
            lead2,
            lead_h00,
            lead_h01,
        }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.diag.len()
    }

    /// Layer block dimension.
    pub fn layer_dim(&self) -> usize {
        self.h01.rows()
    }

    pub(crate) fn contact_self_energies(
        &self,
        e: f64,
        limits: &ExecLimits,
    ) -> Result<(CMatrix, CMatrix), NegfError> {
        // Source lead grows towards -x: its inter-cell coupling (away from
        // the device) is H10, and the device couples into it through H10 as
        // well; mirror for the drain.
        let sigma1 = self
            .lead1
            .self_energy(e, &self.lead_h00, &self.h10, &self.h10, limits)?;
        let sigma2 =
            self.lead2
                .self_energy(e, &self.lead_h00, &self.lead_h01, &self.h01, limits)?;
        Ok((sigma1, sigma2))
    }

    /// The lead model, lead-internal coupling (towards the deeper cell,
    /// fixing the decimation direction), and device→lead hopping for one
    /// contact slot. The directions mirror [`Self::contact_self_energies`].
    fn lead_parts(&self, slot: LeadSlot) -> (&Lead, &CMatrix, &CMatrix) {
        match slot {
            LeadSlot::Source => (&self.lead1, &self.h10, &self.h10),
            LeadSlot::Drain => (&self.lead2, &self.lead_h01, &self.h01),
        }
    }

    /// Contact self-energy for `slot` at energy `e`, served through
    /// `cache`. GNR contacts are looked up at the quantized relative energy
    /// `E − potential` and the surface GF is evaluated at the *snapped*
    /// energy, so entries are exactly potential-independent; wide-band
    /// metal leads bypass the cache (their Σ is energy-independent and
    /// trivial). Hit/miss/fallback counters go through `shard` so the
    /// worker-shard merge keeps them deterministic.
    fn cached_self_energy(
        &self,
        cache: &SurfaceGfCache,
        slot: LeadSlot,
        e: f64,
        shard: &mut TelemetryShard,
        limits: &ExecLimits,
    ) -> Result<CMatrix, NegfError> {
        let (lead, h01_dir, tau) = self.lead_parts(slot);
        let Lead::GnrContact { potential_ev } = *lead else {
            return lead.self_energy(e, &self.lead_h00, h01_dir, tau, limits);
        };
        let key = cache.key(e - potential_ev);
        let gs = match cache.lookup(slot, key) {
            Lookup::Hit(g) => {
                shard.counter_inc("negf.surface_cache.hit");
                g
            }
            Lookup::Evicted => {
                // Poisoned/evicted entry: fall back to a fresh Sancho–Rubio
                // solve at the same snapped energy (bit-identical value)
                // and heal the store.
                shard.counter_inc("negf.surface_cache.fallback");
                let g = Arc::new(surface_gf(
                    cache.snapped(key),
                    &self.lead_h00,
                    h01_dir,
                    DEFAULT_ETA,
                    SURFACE_GF_MAX_ITER,
                    limits,
                )?);
                cache.insert(slot, key, Arc::clone(&g));
                g
            }
            Lookup::Miss => {
                shard.counter_inc("negf.surface_cache.miss");
                let g = Arc::new(surface_gf(
                    cache.snapped(key),
                    &self.lead_h00,
                    h01_dir,
                    DEFAULT_ETA,
                    SURFACE_GF_MAX_ITER,
                    limits,
                )?);
                cache.insert_or_get(slot, key, g)
            }
        };
        let t1 = tau.matmul(&gs);
        Ok(t1.matmul(&tau.adjoint()))
    }

    /// Both contact self-energies at `e`: served through `cache` when one
    /// is given (hit/miss/fallback counters on `shard`), fresh
    /// Sancho–Rubio solves otherwise. The limits are threaded into any
    /// fresh solve.
    ///
    /// # Errors
    ///
    /// Propagates surface-GF convergence failures and budget stops.
    pub(crate) fn self_energies(
        &self,
        e: f64,
        cache: Option<&SurfaceGfCache>,
        shard: &mut TelemetryShard,
        limits: &ExecLimits,
    ) -> Result<(CMatrix, CMatrix), NegfError> {
        let Some(cache) = cache else {
            return self.contact_self_energies(e, limits);
        };
        let sigma1 = self.cached_self_energy(cache, LeadSlot::Source, e, shard, limits)?;
        let sigma2 = self.cached_self_energy(cache, LeadSlot::Drain, e, shard, limits)?;
        Ok((sigma1, sigma2))
    }

    /// Serial pre-indexing pass for the determinism contract: collects the
    /// not-yet-cached `(slot, key)` pairs for `energies` in a fixed
    /// slot-major, energy-ascending order, solves them on `ctx`'s pool
    /// (index-ordered merge), and inserts them in that same order. The
    /// miss count is reported once, serially, to
    /// `negf.surface_cache.miss` — so the counter is bit-identical for any
    /// `GNR_THREADS` as long as primes and integrations sharing the cache
    /// are issued serially (the device-sweep pattern).
    ///
    /// Returns the number of fresh Sancho–Rubio solves performed. Metal
    /// leads have nothing to prime.
    ///
    /// # Errors
    ///
    /// Propagates surface-GF convergence failures.
    pub fn prime_surface_cache(
        &self,
        ctx: &ExecCtx,
        cache: &SurfaceGfCache,
        energies: &[f64],
    ) -> Result<usize, NegfError> {
        let mut pending: Vec<(LeadSlot, i64)> = Vec::new();
        let mut seen: HashSet<(LeadSlot, i64)> = HashSet::new();
        for slot in [LeadSlot::Source, LeadSlot::Drain] {
            let (lead, _, _) = self.lead_parts(slot);
            let Lead::GnrContact { potential_ev } = *lead else {
                continue;
            };
            for &e in energies {
                let key = cache.key(e - potential_ev);
                if seen.insert((slot, key)) && !cache.contains(slot, key) {
                    pending.push((slot, key));
                }
            }
        }
        if pending.is_empty() {
            return Ok(0);
        }
        ctx.counter_add("negf.surface_cache.miss", pending.len() as u64);
        let solved = ctx.try_par_map_indexed(pending.len(), |i| {
            let (slot, key) = pending[i];
            let (_, h01_dir, _) = self.lead_parts(slot);
            surface_gf(
                cache.snapped(key),
                &self.lead_h00,
                h01_dir,
                DEFAULT_ETA,
                SURFACE_GF_MAX_ITER,
                ctx.limits(),
            )
        })?;
        for (&(slot, key), gs) in pending.iter().zip(solved) {
            cache.insert(slot, key, Arc::new(gs));
        }
        Ok(pending.len())
    }

    /// Computes transmission and contact-resolved spectral functions at
    /// energy `e` (eV) with one forward and one backward RGF sweep and
    /// fresh lead self-energies, counting on the global telemetry sink —
    /// the single-energy form of [`SpectralSolver::slice`]. The limits are
    /// threaded into the lead surface-GF solves; pass
    /// [`ExecLimits::none`] (or `ctx.limits()`) when unbudgeted.
    ///
    /// # Errors
    ///
    /// Propagates lead and linear-algebra failures and budget stops.
    pub fn spectral_slice(&self, e: f64, limits: &ExecLimits) -> Result<SpectralSlice, NegfError> {
        let sink = Telemetry::global();
        let mut shard = TelemetryShard::for_sink(&sink);
        let slice = SpectralSolver::slice(self, e, None, &mut shard, limits);
        shard.merge_into(&sink);
        slice
    }

    /// The full-block core of the RGF solve: the per-layer spectral
    /// matrices, which [`SpectralBlocks::into_slice`] collapses to
    /// diagonals. Counts the call and its two sweeps on `shard`.
    pub(crate) fn spectral_blocks_with_sigmas(
        &self,
        e: f64,
        sigma1: &CMatrix,
        sigma2: &CMatrix,
        shard: &mut TelemetryShard,
    ) -> Result<SpectralBlocks, NegfError> {
        shard.counter_inc("negf.rgf.calls");
        shard.counter_add("negf.rgf.sweeps", 2);
        let m = self.layer_dim();
        let nl = self.layers();
        let ez = c64(e, RGF_ETA);
        let gamma1 = broadening(sigma1);
        let gamma2 = broadening(sigma2);

        // D_l blocks, built once per energy and shared by both sweeps (the
        // sweeps subtract their connection corrections into a copy).
        let d_block = |l: usize| -> CMatrix {
            let mut d = CMatrix::from_fn(m, m, |i, j| -self.diag[l].get(i, j));
            for i in 0..m {
                d.add_to(i, i, ez);
            }
            if l == 0 {
                for i in 0..m {
                    for j in 0..m {
                        d.add_to(i, j, -sigma1.get(i, j));
                    }
                }
            }
            if l == nl - 1 {
                for i in 0..m {
                    for j in 0..m {
                        d.add_to(i, j, -sigma2.get(i, j));
                    }
                }
            }
            d
        };
        let d_blocks: Vec<CMatrix> = (0..nl).map(d_block).collect();

        // Left-connected sweep: gl[l] includes everything to the left.
        let mut gl: Vec<CMatrix> = Vec::with_capacity(nl);
        for (l, d_l) in d_blocks.iter().enumerate() {
            let mut d = d_l.clone();
            if l > 0 {
                // D_l - H10 gl[l-1] H01
                let corr = self.h10.matmul(&gl[l - 1]).matmul(&self.h01);
                d -= &corr;
            }
            gl.push(d.inverse()?);
        }
        // Right-connected sweep.
        let mut gr: Vec<CMatrix> = vec![CMatrix::zeros(0, 0); nl];
        for l in (0..nl).rev() {
            let mut d = d_blocks[l].clone();
            if l + 1 < nl {
                let corr = self.h01.matmul(&gr[l + 1]).matmul(&self.h10);
                d -= &corr;
            }
            gr[l] = d.inverse()?;
        }

        // First column of G: G_{0,0} = gr-corrected... G_{0,0} equals the
        // fully-connected inverse at layer 0, which is gr[0] with the left
        // boundary already in D_0 — i.e. gr[0] itself. Then
        // G_{l,0} = gr[l]·H10·G_{l-1,0}.
        let mut g_col1: Vec<CMatrix> = Vec::with_capacity(nl);
        g_col1.push(gr[0].clone());
        for l in 1..nl {
            let prev = &g_col1[l - 1];
            g_col1.push(gr[l].matmul(&self.h10).matmul(prev));
        }
        // Last column of G: G_{L-1,L-1} = gl[L-1]; G_{l,L-1} = gl[l]·H01·G_{l+1,L-1}.
        let mut g_coln: Vec<CMatrix> = vec![CMatrix::zeros(0, 0); nl];
        g_coln[nl - 1] = gl[nl - 1].clone();
        for l in (0..nl - 1).rev() {
            let next = g_coln[l + 1].clone();
            g_coln[l] = gl[l].matmul(&self.h01).matmul(&next);
        }

        // Transmission from the (L-1, 0) block.
        let g_n0 = &g_col1[nl - 1];
        let t_matrix = gamma2.matmul(g_n0).matmul(&gamma1).matmul(&g_n0.adjoint());
        let transmission = t_matrix.trace().re.max(0.0);

        // Spectral function blocks: A1(l) = G_{l,0} Γ1 G_{l,0}†,
        // A2(l) = G_{l,L-1} Γ2 G_{l,L-1}†.
        let mut a1 = Vec::with_capacity(nl);
        let mut a2 = Vec::with_capacity(nl);
        for l in 0..nl {
            a1.push(g_col1[l].matmul(&gamma1).matmul(&g_col1[l].adjoint()));
            a2.push(g_coln[l].matmul(&gamma2).matmul(&g_coln[l].adjoint()));
        }
        Ok(SpectralBlocks {
            energy: e,
            transmission,
            a1,
            a2,
        })
    }

    /// Transmission only (skips the spectral-function assembly work when
    /// just `T(E)` is needed).
    ///
    /// # Errors
    ///
    /// Propagates lead and linear-algebra failures.
    pub fn transmission(&self, e: f64) -> Result<f64, NegfError> {
        let (sigma1, sigma2) = self.contact_self_energies(e, &ExecLimits::none())?;
        telemetry::counter_inc("negf.rgf.calls");
        telemetry::counter_add("negf.rgf.sweeps", 1);
        let m = self.layer_dim();
        let nl = self.layers();
        let ez = c64(e, RGF_ETA);
        let gamma1 = broadening(&sigma1);
        let gamma2 = broadening(&sigma2);

        // Left-connected sweep storing only the running surface block, plus
        // the accumulated product needed for G_{L-1,0}.
        let mut gl_prev: Option<CMatrix> = None;
        let mut gl_all: Vec<CMatrix> = Vec::with_capacity(nl);
        for l in 0..nl {
            let mut d = CMatrix::from_fn(m, m, |i, j| -self.diag[l].get(i, j));
            for i in 0..m {
                d.add_to(i, i, ez);
            }
            if l == 0 {
                d = &d - &sigma1;
            }
            if l == nl - 1 {
                d = &d - &sigma2;
            }
            if let Some(prev) = &gl_prev {
                let corr = self.h10.matmul(prev).matmul(&self.h01);
                d = &d - &corr;
            }
            let g = d.inverse()?;
            gl_all.push(g.clone());
            gl_prev = Some(g);
        }
        // G_{L-1,0} = gl[L-1] · Π_{l=L-2..0} (H10 · gl[l]).
        // Derivation: G_{i,0} = g_i H10 G_{i-1,0} with right-connected g_i;
        // equivalently build from the left-connected functions mirrored —
        // here we use the left-connected gl and the identity
        // G_{L-1,0} = gl[L-1] H10 gl[L-2] H10 ... gl[0] which holds because
        // layer L-1 already contains the full right boundary.
        let mut g_n0 = gl_all[nl - 1].clone();
        for l in (0..nl - 1).rev() {
            g_n0 = g_n0.matmul(&self.h10).matmul(&gl_all[l]);
        }
        let t_matrix = gamma2.matmul(&g_n0).matmul(&gamma1).matmul(&g_n0.adjoint());
        Ok(t_matrix.trace().re.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_lattice::{AGnr, DeviceHamiltonian};

    fn ideal_solver(n: usize, cells: usize) -> RgfSolver {
        let gnr = AGnr::new(n).unwrap();
        let h = DeviceHamiltonian::flat_band(gnr, cells).unwrap();
        RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact())
    }

    #[test]
    fn ideal_ribbon_transmission_is_integer_mode_count() {
        let gnr = AGnr::new(9).unwrap();
        let bands = gnr.band_structure(96).unwrap();
        let edges = bands.conduction_subband_edges(2);
        let solver = ideal_solver(9, 5);
        // Just above the first subband edge: exactly one open mode.
        let t1 = solver.transmission(edges[0] + 0.03).unwrap();
        assert!((t1 - 1.0).abs() < 0.05, "T = {t1}");
        // In the gap: no modes.
        let t0 = solver.transmission(0.0).unwrap();
        assert!(t0 < 1e-3, "gap T = {t0}");
        // Above the second edge: two modes.
        let t2 = solver.transmission(edges[1] + 0.03).unwrap();
        assert!((t2 - 2.0).abs() < 0.1, "T = {t2}");
    }

    #[test]
    fn transmission_independent_of_ideal_device_length() {
        let e = {
            let bands = AGnr::new(9).unwrap().band_structure(96).unwrap();
            bands.conduction_edge() + 0.08
        };
        let t4 = ideal_solver(9, 4).transmission(e).unwrap();
        let t10 = ideal_solver(9, 10).transmission(e).unwrap();
        assert!((t4 - t10).abs() < 0.02, "{t4} vs {t10}");
    }

    #[test]
    fn spectral_slice_matches_dedicated_transmission() {
        let solver = ideal_solver(9, 4);
        let e = 0.9;
        let slice = solver.spectral_slice(e, &ExecLimits::none()).unwrap();
        let t = solver.transmission(e).unwrap();
        assert!((slice.transmission - t).abs() < 1e-8);
    }

    #[test]
    fn barrier_suppresses_transmission() {
        let gnr = AGnr::new(9).unwrap();
        let m = gnr.atoms_per_cell();
        let cells = 8;
        let e_probe = gnr.band_structure(96).unwrap().conduction_edge() + 0.05;
        // Potential barrier of 0.4 eV over the middle 4 cells pushes the
        // local band edge above the probe energy -> tunneling only.
        let mut pot = vec![0.0; m * cells];
        for l in 2..6 {
            for i in 0..m {
                pot[l * m + i] = 0.4;
            }
        }
        let h = DeviceHamiltonian::new(gnr, cells, &pot).unwrap();
        let solver = RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact());
        let t_barrier = solver.transmission(e_probe).unwrap();
        let t_ideal = ideal_solver(9, 8).transmission(e_probe).unwrap();
        assert!(
            t_barrier < 0.2 * t_ideal,
            "barrier {t_barrier} vs ideal {t_ideal}"
        );
        assert!(t_barrier > 0.0, "tunneling is finite");
    }

    #[test]
    fn ldos_vanishes_in_gap_inside_device() {
        let solver = ideal_solver(12, 6);
        let slice = solver.spectral_slice(0.0, &ExecLimits::none()).unwrap();
        let ldos = slice.ldos();
        // Middle-layer atoms see only evanescent contact states.
        let m = 24;
        let mid = &ldos[3 * m..4 * m];
        assert!(mid.iter().all(|&v| v < 1e-2), "midgap LDOS {:?}", &mid[..4]);
    }

    #[test]
    fn spectral_functions_nonnegative() {
        let solver = ideal_solver(9, 4);
        let slice = solver.spectral_slice(1.1, &ExecLimits::none()).unwrap();
        assert!(slice.a1_diag.iter().all(|&v| v >= 0.0));
        assert!(slice.a2_diag.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn metal_leads_midgap_tunneling_decays_with_length() {
        // Metal-induced gap states tunnel across the gapped channel; the
        // midgap transmission must decay exponentially with channel length
        // while the in-band transmission stays order-one. This is exactly
        // the Schottky-barrier physics the paper's device relies on.
        let gnr = AGnr::new(12).unwrap();
        let t_of = |cells: usize, e: f64| {
            let h = DeviceHamiltonian::flat_band(gnr, cells).unwrap();
            RgfSolver::new(&h, Lead::metal(), Lead::metal())
                .transmission(e)
                .unwrap()
        };
        // Probe at E = 0.2 eV (inside the gap, away from the E ~ 0 end-state
        // resonance of the cut ribbon, whose peak transmission stays O(1)
        // while its linewidth shrinks with length).
        let t5 = t_of(5, 0.2);
        let t12 = t_of(12, 0.2);
        assert!(t12 < 0.2 * t5, "tunneling must decay: {t5} -> {t12}");
        let t_band = t_of(12, 1.0);
        assert!(t_band > 5.0 * t12, "band T {t_band} vs gap T {t12}");
    }

    #[test]
    fn sum_rule_a1_plus_a2_traces_total_dos() {
        // For a ballistic 2-terminal device A = A1 + A2; both spectral
        // pieces must therefore be bounded by the total LDOS and positive
        // where T is positive.
        let solver = ideal_solver(9, 4);
        let slice = solver.spectral_slice(0.95, &ExecLimits::none()).unwrap();
        let total_a1: f64 = slice.a1_diag.iter().sum();
        let total_a2: f64 = slice.a2_diag.iter().sum();
        assert!(total_a1 > 0.0 && total_a2 > 0.0);
        // Left/right symmetry of the ideal device.
        assert!(
            (total_a1 - total_a2).abs() / (total_a1 + total_a2) < 0.05,
            "a1 {total_a1} a2 {total_a2}"
        );
    }

    #[test]
    fn cached_slice_matches_legacy_within_snapping() {
        use gnr_num::Telemetry;
        let solver = ideal_solver(9, 4);
        let cache = SurfaceGfCache::new();
        let sink = Telemetry::isolated();
        let mut shard = TelemetryShard::for_sink(&sink);
        for &e in &[0.65, 0.9, 1.1] {
            let legacy = solver.spectral_slice(e, &ExecLimits::none()).unwrap();
            let cached = solver
                .slice(e, Some(&cache), &mut shard, &ExecLimits::none())
                .unwrap();
            assert!(
                (legacy.transmission - cached.transmission).abs() < 1e-6,
                "E={e}: {} vs {}",
                legacy.transmission,
                cached.transmission
            );
            for (a, b) in legacy.a1_diag.iter().zip(&cached.a1_diag) {
                assert!((a - b).abs() < 1e-4);
            }
            let t_legacy = solver.transmission(e).unwrap();
            let t_cached = solver
                .slice(e, Some(&cache), &mut shard, &ExecLimits::none())
                .unwrap()
                .transmission;
            assert!((t_legacy - t_cached).abs() < 1e-6);
        }
        shard.merge_into(&sink);
        let snap = sink.snapshot();
        // 3 energies × 2 leads × 2 calls: first call misses, second hits.
        assert_eq!(snap.counter("negf.surface_cache.miss"), Some(6));
        assert_eq!(snap.counter("negf.surface_cache.hit"), Some(6));
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn priming_makes_all_lookups_hits() {
        use gnr_num::Telemetry;
        let solver = ideal_solver(9, 3);
        let cache = SurfaceGfCache::new();
        let energies: Vec<f64> = (0..8).map(|i| 0.6 + 0.05 * i as f64).collect();
        let sink = Telemetry::isolated();
        let ctx = ExecCtx::serial().with_telemetry(sink);
        let primed = solver.prime_surface_cache(&ctx, &cache, &energies).unwrap();
        assert_eq!(primed, 2 * energies.len());
        // Re-priming the same lattice is free.
        assert_eq!(
            solver.prime_surface_cache(&ctx, &cache, &energies).unwrap(),
            0
        );
        let mut shard = TelemetryShard::for_sink(ctx.telemetry());
        for &e in &energies {
            solver
                .slice(e, Some(&cache), &mut shard, &ExecLimits::none())
                .unwrap();
        }
        shard.merge_into(ctx.telemetry());
        let snap = ctx.telemetry().snapshot();
        assert_eq!(
            snap.counter("negf.surface_cache.miss"),
            Some(2 * energies.len() as u64)
        );
        assert_eq!(
            snap.counter("negf.surface_cache.hit"),
            Some(2 * energies.len() as u64)
        );
    }

    #[test]
    fn lead_potential_shift_reuses_cache_entries() {
        // The same relative energy reached from two bias points must map to
        // one entry per lead slot — the property that makes bias sweeps
        // cheap.
        let gnr = AGnr::new(9).unwrap();
        let h = DeviceHamiltonian::flat_band(gnr, 3).unwrap();
        let cache = SurfaceGfCache::new();
        let ctx = ExecCtx::serial();
        let vds = [0.0, 0.1, 0.2];
        let base: Vec<f64> = (0..10).map(|i| -0.5 + 0.1 * i as f64).collect();
        for &vd in &vds {
            let solver = RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact_at(-vd));
            // Drain energies relative to the lead: e + vd, stepping on the
            // same 0.1 eV lattice -> all but one entry per new bias shared.
            let energies: Vec<f64> = base.iter().map(|e| e - vd).collect();
            solver.prime_surface_cache(&ctx, &cache, &energies).unwrap();
        }
        // Source slot: 10 + 1 + 1 new snapped energies (each bias shifts
        // the window by one step); drain slot: relative energies identical
        // across biases -> 10 entries total.
        assert_eq!(cache.len(), 12 + 10);
    }

    #[test]
    fn metal_leads_bypass_cache() {
        use gnr_num::Telemetry;
        let gnr = AGnr::new(9).unwrap();
        let h = DeviceHamiltonian::flat_band(gnr, 3).unwrap();
        let solver = RgfSolver::new(&h, Lead::metal(), Lead::metal());
        let cache = SurfaceGfCache::new();
        let ctx = ExecCtx::serial();
        assert_eq!(
            solver
                .prime_surface_cache(&ctx, &cache, &[0.1, 0.2])
                .unwrap(),
            0
        );
        let sink = Telemetry::isolated();
        let mut shard = TelemetryShard::for_sink(&sink);
        let legacy = solver.spectral_slice(0.3, &ExecLimits::none()).unwrap();
        let cached = solver
            .slice(0.3, Some(&cache), &mut shard, &ExecLimits::none())
            .unwrap();
        assert_eq!(
            legacy.transmission.to_bits(),
            cached.transmission.to_bits(),
            "metal sigmas are exact -> bitwise equal"
        );
        assert!(cache.is_empty());
        shard.merge_into(&sink);
        assert!(sink.snapshot().counter("negf.surface_cache.hit").is_none());
    }
}
