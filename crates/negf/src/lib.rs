//! `gnr-negf` — non-equilibrium Green's function quantum transport.
//!
//! Implements the NEGF machinery of the paper's §2 (its Eq. 1):
//!
//! ```text
//! Gʳ(E) = [(E + i0⁺)I − H − U − Σ₁ − Σ₂]⁻¹
//! ```
//!
//! for block-tridiagonal device Hamiltonians produced by
//! [`gnr_lattice::DeviceHamiltonian`]:
//!
//! * [`lead`] — contact self-energies: the Sancho–Rubio iterative surface
//!   Green's function for semi-infinite periodic (GNR) leads and the
//!   wide-band-limit metal lead used for Schottky contacts;
//! * [`rgf`] — the recursive Green's function algorithm: transmission
//!   `T(E)`, contact-resolved spectral functions, and local density of
//!   states without ever materializing the full `Gʳ`;
//! * [`transport`] — Landauer current and bias-resolved electron/hole
//!   charge integrals over an energy list, in one integrator
//!   ([`integrate_transport`]) shared by every [`SpectralSolver`], with an
//!   optional adaptive (bisecting) refinement and surface-GF cache behind
//!   [`TransportOptions`];
//! * [`cache`] — bias-sweep memoization of Sancho–Rubio surface Green's
//!   functions keyed on the quantized energy relative to the lead
//!   potential, so `(Vg, Vd)` table builds reuse shifted entries.
//!
//! # Example: ideal-ribbon transmission is the mode count
//!
//! ```
//! use gnr_lattice::{AGnr, DeviceHamiltonian};
//! use gnr_negf::{lead::Lead, rgf::RgfSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gnr = AGnr::new(9)?;
//! let h = DeviceHamiltonian::flat_band(gnr, 6)?;
//! let solver = RgfSolver::new(&h, Lead::gnr_contact(), Lead::gnr_contact());
//! let bands = gnr.band_structure(64)?;
//! let e = bands.conduction_edge() + 0.05; // just inside the first subband
//! let t = solver.transmission(e)?;
//! assert!((t - 1.0).abs() < 0.05, "one open mode: T = {t}");
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod error;
pub mod lead;
pub mod mode_space;
pub mod rgf;
pub mod transport;

pub use cache::{LeadSlot, SurfaceGfCache};
pub use error::NegfError;
pub use lead::Lead;
pub use mode_space::{ModeBasis, ModeSpaceOptions, ModeSpaceSolver};
pub use rgf::RgfSolver;
pub use transport::{
    integrate_transport, ChargeProfile, EnergyGrid, RefineOptions, SpectralSolver,
    TransportOptions, TransportResult,
};
