//! Mode-space NEGF — the third solver path alongside dense real-space RGF
//! and the circuit surrogate.
//!
//! Following the mode-space approach of Zhao & Guo (arXiv:0902.4621), the
//! transverse problem of the flat-band ribbon is diagonalized once per
//! device: the lead Bloch Hamiltonian `H(θ) = H00 + e^{iθ}H01 + e^{−iθ}H01†`
//! is sampled across the Brillouin zone, the eigenvectors whose band
//! energies can reach the transport window are accumulated into a real
//! projector, and its significant range becomes an orthonormal basis `V`
//! (`m × k`, `k ≪ m`). All device blocks — `H_l`, `H01`, and the periodic
//! lead cell — are transformed as `X' = VᵀXV`, and the *identical*
//! RGF/Sancho–Rubio machinery then runs on the reduced `k × k` blocks. The
//! surface-GF cache works unchanged because a rigid lead shift survives the
//! orthonormal projection exactly: `Vᵀ(H00 + pI)V = H00' + pI_k`.
//!
//! The approximation is controlled by a **separability monitor**: the
//! self-consistent potential enters the transverse problem as a per-atom
//! diagonal, and its component that couples kept modes to dropped modes —
//! `(I − VVᵀ)·diag(U_l)·V`, maximized over layers — measures how badly the
//! potential breaks mode decoupling. When the defect exceeds
//! [`ModeSpaceOptions::coupling_tol_ev`], the solver is *degraded*: every
//! energy point falls back to the full real-space solve. The same fallback
//! triggers per energy point under the [`FALLBACK_SITE`] fault injection,
//! mirroring the surface-cache fallback pattern — the fallback result is a
//! fresh real-space slice, never a cache entry, so forced fallback is
//! bit-identical to the uncached real-space path.

use crate::cache::SurfaceGfCache;
use crate::error::NegfError;
use crate::lead::Lead;
use crate::rgf::{RgfSolver, SpectralSlice};
use crate::transport::SpectralSolver;
use gnr_lattice::DeviceHamiltonian;
use gnr_num::budget::ExecLimits;
use gnr_num::checkpoint::KeyHasher;
use gnr_num::par::ExecCtx;
use gnr_num::{c64, fault, telemetry, CMatrix, Matrix, TelemetryShard};
use std::collections::HashMap;
use std::sync::Mutex;

/// Fault site probed once per energy point; an injection forces that point
/// through the real-space fallback (see [`gnr_num::fault::REGISTERED_SITES`]).
pub const FALLBACK_SITE: &str = "negf.mode_space.fallback";

/// Controls for the mode-space transform and its separability guard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModeSpaceOptions {
    /// Extra margin (eV) beyond the requested energy window when deciding
    /// which transverse modes can reach the transport integral. Doubled
    /// automatically (up to a few times) if the window selects no modes.
    pub window_margin_ev: f64,
    /// Degrade to full real-space solves when the potential-induced
    /// kept↔dropped mode coupling exceeds this (eV).
    pub coupling_tol_ev: f64,
    /// Bloch-phase samples in `[0, π]` used to accumulate the mode
    /// projector (band extrema between samples are covered by the margin).
    pub theta_samples: usize,
    /// Relative projector-eigenvalue threshold below which a direction is
    /// dropped from the basis.
    pub rank_tol: f64,
}

impl Default for ModeSpaceOptions {
    fn default() -> Self {
        ModeSpaceOptions {
            window_margin_ev: 0.3,
            coupling_tol_ev: 0.15,
            theta_samples: 17,
            rank_tol: 1e-9,
        }
    }
}

impl ModeSpaceOptions {
    /// Sets the mode-selection window margin \[eV\].
    pub fn with_window_margin_ev(mut self, margin: f64) -> Self {
        self.window_margin_ev = margin;
        self
    }

    /// Sets the separability (kept↔dropped coupling) tolerance \[eV\].
    pub fn with_coupling_tol_ev(mut self, tol: f64) -> Self {
        self.coupling_tol_ev = tol;
        self
    }

    /// Sets the number of Bloch-phase samples.
    pub fn with_theta_samples(mut self, samples: usize) -> Self {
        self.theta_samples = samples;
        self
    }
}

/// An orthonormal transverse mode basis for one ribbon, built from the
/// flat-band lead cell. Holds the real `m × k` basis matrix `V` whose
/// columns span every Bloch eigenvector with band energy inside the
/// (margin-inflated) window.
#[derive(Clone, Debug)]
pub struct ModeBasis {
    v: CMatrix,
    dim: usize,
    modes: usize,
    margin_ev: f64,
}

impl ModeBasis {
    /// Builds the basis from the periodic lead blocks `h00`/`h01` for band
    /// energies reachable inside `[window_lo, window_hi]` (eV). The caller
    /// absorbs potential shifts into the window (a band at energy `B`
    /// shifted by potential `U` appears at `B + U`); `opts.window_margin_ev`
    /// is added on both sides and doubled until at least one mode is kept.
    ///
    /// Emits `negf.mode_space.modes_kept` / `modes_dropped` telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`NegfError::Config`] for invalid options or an empty
    /// window, and propagates eigensolver failures.
    pub fn build(
        h00: &CMatrix,
        h01: &CMatrix,
        window_lo: f64,
        window_hi: f64,
        opts: &ModeSpaceOptions,
    ) -> Result<Self, NegfError> {
        // "Once per ribbon": the basis is a pure function of the lead
        // blocks, the window, and the options, and the Bloch sweep costs
        // tens of milliseconds — a process-wide memo makes repeated table
        // builds (bias sweeps, benches, cache rebuilds) pay it once.
        static MEMO: Mutex<Option<HashMap<u64, ModeBasis>>> = Mutex::new(None);
        let key = {
            let mut h = KeyHasher::new();
            h.write_str("mode-basis/v1");
            for a in [h00, h01] {
                h.write_u64(a.rows() as u64);
                for i in 0..a.rows() {
                    for j in 0..a.cols() {
                        let v = a.get(i, j);
                        h.write_f64(v.re);
                        h.write_f64(v.im);
                    }
                }
            }
            h.write_f64(window_lo);
            h.write_f64(window_hi);
            h.write_f64(opts.window_margin_ev);
            h.write_u64(opts.theta_samples as u64);
            h.write_f64(opts.rank_tol);
            h.finish()
        };
        let cached = {
            let guard = MEMO.lock().unwrap_or_else(|p| p.into_inner());
            guard.as_ref().and_then(|m| m.get(&key).cloned())
        };
        if let Some(basis) = cached {
            telemetry::counter_add("negf.mode_space.modes_kept", basis.modes() as u64);
            telemetry::counter_add(
                "negf.mode_space.modes_dropped",
                (basis.dim() - basis.modes()) as u64,
            );
            return Ok(basis);
        }
        let basis = Self::build_uncached(h00, h01, window_lo, window_hi, opts)?;
        let mut guard = MEMO.lock().unwrap_or_else(|p| p.into_inner());
        guard
            .get_or_insert_with(HashMap::new)
            .insert(key, basis.clone());
        Ok(basis)
    }

    fn build_uncached(
        h00: &CMatrix,
        h01: &CMatrix,
        window_lo: f64,
        window_hi: f64,
        opts: &ModeSpaceOptions,
    ) -> Result<Self, NegfError> {
        let m = h00.rows();
        if h00.cols() != m || h01.rows() != m || h01.cols() != m {
            return Err(NegfError::Config {
                detail: "mode basis needs square lead blocks of equal size".into(),
            });
        }
        if !(window_lo.is_finite() && window_hi.is_finite()) || window_hi <= window_lo {
            return Err(NegfError::Config {
                detail: format!("mode window [{window_lo}, {window_hi}] is empty"),
            });
        }
        if opts.theta_samples < 2 || !opts.window_margin_ev.is_finite() {
            return Err(NegfError::Config {
                detail: "mode-space options need >= 2 theta samples and a finite margin".into(),
            });
        }
        let s = opts.theta_samples;
        let mut margin = opts.window_margin_ev.max(0.0);
        for _attempt in 0..8 {
            // Real projector onto the union of in-window Bloch eigenvectors;
            // Re(ψψ†) folds in the conjugate partner at −θ, so sampling
            // θ ∈ [0, π] covers the full zone.
            let mut p = Matrix::from_fn(m, m, |_, _| 0.0);
            for si in 0..s {
                let theta = std::f64::consts::PI * si as f64 / (s - 1) as f64;
                let phase = c64(theta.cos(), theta.sin());
                let h_theta = CMatrix::from_fn(m, m, |i, j| {
                    h00.get(i, j) + phase * h01.get(i, j) + phase.conj() * h01.get(j, i).conj()
                });
                let (evals, evecs) = h_theta.herm_eigen()?;
                for (c, &ev) in evals.iter().enumerate() {
                    if ev >= window_lo - margin && ev <= window_hi + margin {
                        for i in 0..m {
                            for j in 0..m {
                                let w = (evecs.get(i, c) * evecs.get(j, c).conj()).re;
                                p.set(i, j, p.get(i, j) + w);
                            }
                        }
                    }
                }
            }
            let (pvals, pvecs) = p.sym_eigen()?;
            let lam_max = pvals.last().copied().unwrap_or(0.0);
            let cut = (opts.rank_tol * lam_max).max(1e-12);
            // Descending projector weight: the most-occupied directions
            // lead the basis.
            let kept: Vec<usize> = (0..m).rev().filter(|&c| pvals[c] > cut).collect();
            if kept.is_empty() {
                margin = (2.0 * margin).max(0.05);
                continue;
            }
            let k = kept.len();
            let v = CMatrix::from_fn(m, k, |i, a| c64(pvecs.get(i, kept[a]), 0.0));
            telemetry::counter_add("negf.mode_space.modes_kept", k as u64);
            telemetry::counter_add("negf.mode_space.modes_dropped", (m - k) as u64);
            return Ok(ModeBasis {
                v,
                dim: m,
                modes: k,
                margin_ev: margin,
            });
        }
        Err(NegfError::Config {
            detail: "mode window selects no transverse modes".into(),
        })
    }

    /// Transverse dimension `m` of the full problem.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of kept modes `k`.
    pub fn modes(&self) -> usize {
        self.modes
    }

    /// The margin actually used (after any automatic widening) \[eV\].
    pub fn margin_ev(&self) -> f64 {
        self.margin_ev
    }

    /// The orthonormal basis matrix `V` (`m × k`, real entries).
    pub fn basis(&self) -> &CMatrix {
        &self.v
    }

    /// Projects an `m × m` block into mode space: `VᵀAV` (`k × k`).
    pub fn project(&self, a: &CMatrix) -> CMatrix {
        self.v.adjoint().matmul(a).matmul(&self.v)
    }
}

/// Mode-space NEGF solver: the reduced RGF solver plus the real-space
/// fallback it degrades to, sharing one device Hamiltonian.
#[derive(Clone, Debug)]
pub struct ModeSpaceSolver {
    reduced: RgfSolver,
    full: RgfSolver,
    basis: ModeBasis,
    /// `Vᵀ` (`k × m`), hoisted out of the per-energy expansion.
    vt: CMatrix,
    degraded: bool,
    defect_ev: f64,
}

impl ModeSpaceSolver {
    /// Binds a solver to `h` in the basis `basis`, with the same lead
    /// models on both the reduced and the fallback path.
    ///
    /// The separability defect is measured here, once, from the device's
    /// potential profile (the diagonal of `H_l` relative to the bare lead
    /// cell) — the verdict is therefore fixed per solver and deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`NegfError::Config`] if `basis` does not match the layer
    /// dimension of `h`.
    pub fn new(
        h: &DeviceHamiltonian,
        lead1: Lead,
        lead2: Lead,
        basis: &ModeBasis,
        opts: &ModeSpaceOptions,
    ) -> Result<Self, NegfError> {
        let m = h.coupling_block().rows();
        if basis.dim() != m {
            return Err(NegfError::Config {
                detail: format!(
                    "mode basis dimension {} does not match layer dimension {m}",
                    basis.dim()
                ),
            });
        }
        let (lead_h00, lead_h01) = gnr_lattice::unit_cell_hamiltonian(h.gnr());
        let diag: Vec<CMatrix> = (0..h.layers())
            .map(|l| basis.project(h.diag_block(l)))
            .collect();
        let reduced = RgfSolver::from_blocks(
            diag,
            basis.project(h.coupling_block()),
            lead1.clone(),
            lead2.clone(),
            basis.project(&lead_h00),
            basis.project(&lead_h01),
        );
        let full = RgfSolver::new(h, lead1, lead2);

        // Separability monitor: per-layer potential relative to the bare
        // lead cell, applied to the kept modes; its out-of-span residual
        // `(I − VVᵀ)·diag(U_l)·V` is the kept↔dropped coupling the reduced
        // solve cannot see. A layer-uniform (rigid) shift projects to zero
        // automatically.
        let v = basis.basis();
        let mut defect_ev = 0.0f64;
        for l in 0..h.layers() {
            let block = h.diag_block(l);
            let w = CMatrix::from_fn(m, basis.modes(), |i, a| {
                c64((block.get(i, i) - lead_h00.get(i, i)).re, 0.0) * v.get(i, a)
            });
            let in_span = v.matmul(&v.adjoint().matmul(&w));
            let residual = &w - &in_span;
            defect_ev = defect_ev.max(residual.max_abs());
        }
        let degraded = defect_ev > opts.coupling_tol_ev;
        Ok(ModeSpaceSolver {
            reduced,
            full,
            basis: basis.clone(),
            vt: v.adjoint(),
            degraded,
            defect_ev,
        })
    }

    /// Number of kept modes `k`.
    pub fn modes(&self) -> usize {
        self.basis.modes()
    }

    /// `true` when the separability monitor routed every energy point to
    /// the real-space fallback.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The measured kept↔dropped coupling defect \[eV\].
    pub fn separability_defect_ev(&self) -> f64 {
        self.defect_ev
    }

    /// Expands reduced spectral blocks back to atom-space diagonals:
    /// `A_atom = diag(V·A'·Vᵀ)`, clamped non-negative like the real-space
    /// assembly.
    fn expand(&self, e: f64, transmission: f64, a1: &[CMatrix], a2: &[CMatrix]) -> SpectralSlice {
        let v = self.basis.basis();
        let m = self.basis.dim();
        let k = self.basis.modes();
        let mut a1_diag = Vec::with_capacity(a1.len() * m);
        let mut a2_diag = Vec::with_capacity(a2.len() * m);
        // Only the diagonal of V·A'·Vᵀ is needed: with W = A'·Vᵀ (k × m),
        // diag_i = Σ_a V_ia W_ai — O(mk²) instead of O(m²k) per block.
        for (b1, b2) in a1.iter().zip(a2) {
            let w1 = b1.matmul(&self.vt);
            let w2 = b2.matmul(&self.vt);
            for i in 0..m {
                let mut d1 = c64(0.0, 0.0);
                let mut d2 = c64(0.0, 0.0);
                for a in 0..k {
                    d1 += v.get(i, a) * w1.get(a, i);
                    d2 += v.get(i, a) * w2.get(a, i);
                }
                a1_diag.push(d1.re.max(0.0));
                a2_diag.push(d2.re.max(0.0));
            }
        }
        SpectralSlice {
            energy: e,
            transmission,
            a1_diag,
            a2_diag,
        }
    }
}

impl SpectralSolver for ModeSpaceSolver {
    fn atoms(&self) -> usize {
        self.full.layers() * self.full.layer_dim()
    }

    fn prime_surface_cache(
        &self,
        ctx: &ExecCtx,
        cache: &SurfaceGfCache,
        energies: &[f64],
    ) -> Result<usize, NegfError> {
        if self.degraded {
            // Every energy point will take the (uncached) fallback.
            return Ok(0);
        }
        self.reduced.prime_surface_cache(ctx, cache, energies)
    }

    fn slice(
        &self,
        e: f64,
        cache: Option<&SurfaceGfCache>,
        shard: &mut TelemetryShard,
        limits: &ExecLimits,
    ) -> Result<SpectralSlice, NegfError> {
        if self.degraded || fault::should_fail(FALLBACK_SITE) {
            shard.counter_inc("negf.mode_space.fallbacks");
            // Always a *fresh* real-space solve: the shared cache holds
            // reduced-basis entries and must never serve the full problem,
            // so forced fallback reproduces the uncached real-space path
            // bit for bit.
            return self.full.slice(e, None, shard, limits);
        }
        let (sigma1, sigma2) = self.reduced.self_energies(e, cache, shard, limits)?;
        let b = self
            .reduced
            .spectral_blocks_with_sigmas(e, &sigma1, &sigma2, shard)?;
        Ok(self.expand(b.energy, b.transmission, &b.a1, &b.a2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_lattice::{unit_cell_hamiltonian, AGnr};

    fn lead_blocks(n: usize) -> (CMatrix, CMatrix) {
        unit_cell_hamiltonian(AGnr::new(n).unwrap())
    }

    #[test]
    fn basis_is_orthonormal_and_truncated() {
        let (h00, h01) = lead_blocks(9);
        let basis = ModeBasis::build(&h00, &h01, -0.6, 0.6, &ModeSpaceOptions::default()).unwrap();
        let k = basis.modes();
        assert!(k >= 1, "window must keep at least one mode");
        assert!(k < basis.dim(), "window must drop modes: k = {k}");
        let gram = basis.basis().adjoint().matmul(basis.basis());
        for i in 0..k {
            for j in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                let g = gram.get(i, j);
                assert!(
                    (g.re - want).abs() < 1e-9 && g.im.abs() < 1e-12,
                    "gram[{i}][{j}] = {g}"
                );
            }
        }
    }

    #[test]
    fn full_window_projection_preserves_spectrum() {
        // With a window spanning the whole bandwidth every mode is kept and
        // the projected lead cell is a unitary rotation of the original:
        // identical eigenvalues.
        let (h00, h01) = lead_blocks(7);
        let opts = ModeSpaceOptions::default().with_window_margin_ev(50.0);
        let basis = ModeBasis::build(&h00, &h01, -1.0, 1.0, &opts).unwrap();
        assert_eq!(basis.modes(), basis.dim());
        let (full, _) = h00.herm_eigen().unwrap();
        let (red, _) = basis.project(&h00).herm_eigen().unwrap();
        for (a, b) in full.iter().zip(&red) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_window_widens_margin_until_modes_appear() {
        let (h00, h01) = lead_blocks(12);
        // A midgap sliver with zero margin catches no bands initially.
        let opts = ModeSpaceOptions::default().with_window_margin_ev(0.0);
        let basis = ModeBasis::build(&h00, &h01, -0.01, 0.01, &opts).unwrap();
        assert!(basis.modes() >= 1);
        assert!(basis.margin_ev() > 0.0, "margin was widened");
    }

    #[test]
    fn rejects_bad_inputs() {
        let (h00, h01) = lead_blocks(7);
        let opts = ModeSpaceOptions::default();
        assert!(ModeBasis::build(&h00, &h01, 1.0, -1.0, &opts).is_err());
        assert!(ModeBasis::build(&h00, &h01, -1.0, 1.0, &opts.with_theta_samples(1)).is_err());
    }
}
