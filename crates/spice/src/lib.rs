//! `gnr-spice` — a table-lookup circuit simulator for GNRFET circuits.
//!
//! Implements the circuit level of the paper (§3): "a simulator based on
//! table lookup techniques was implemented to simulate circuits built with
//! GNRFETs". Devices are [`gnr_device::DeviceTable`]s — tabulated
//! `I_D(V_GS, V_DS)` and `Q(V_GS, V_DS)` — wrapped with the extrinsic
//! parasitics of Fig. 3(a): contact resistances `R_S = R_D ∈ [1, 100] kΩ`
//! (nominal 10 kΩ) and junction capacitances
//! `C_GS,e = C_GD,e = 0.01–0.1 aF/nm × 40 nm` for the 4-GNR array.
//!
//! * [`circuit`] — netlist and modified nodal analysis (MNA) stamps;
//! * [`dc`] — Newton operating point, DC sweeps, voltage transfer curves;
//! * [`ac`] — small-signal frequency sweeps at a DC operating point
//!   (complex MNA, `(G + jωC)·v = b`);
//! * [`transient`](mod@transient) — backward-Euler transient with per-step Newton and
//!   bias-dependent device capacitances;
//! * [`builders`] — the paper's benchmark circuits: FO4 inverter, N-stage
//!   ring oscillator, cross-coupled latch;
//! * [`measure`] — propagation delay, oscillation frequency, static and
//!   dynamic power, energy-delay product, and butterfly-curve static noise
//!   margins.
//!
//! # Example
//!
//! ```no_run
//! use gnr_device::{DeviceConfig, DeviceTable, Polarity, SbfetModel};
//! use gnr_device::table::TableGrid;
//! use gnr_spice::builders::{ExtrinsicParasitics, InverterCell};
//! use gnr_spice::measure::fo4_metrics_for_cell;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = gnr_num::par::ExecCtx::from_env();
//! let cfg = DeviceConfig::paper_nominal(12)?;
//! let model = SbfetModel::new(&cfg)?;
//! let n = DeviceTable::from_model(&ctx, &model, Polarity::NType, TableGrid::paper(), 4)?;
//! let p = n.mirrored();
//! let cell = InverterCell::new(&n, &p, &ExtrinsicParasitics::nominal())?;
//! let metrics = fo4_metrics_for_cell(&cell, 0.4)?;
//! println!("delay {} ps", metrics.delay_s * 1e12);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod ac;
pub mod builders;
pub mod circuit;
pub mod dc;
pub mod error;
pub mod measure;
pub mod mna;
pub mod netlist;
pub mod rawfile;
pub mod transient;

pub use circuit::{Circuit, Element, NodeId, Waveform};
pub use dc::{dc_operating_point, DcOptions};
pub use error::SpiceError;
pub use mna::MnaSolverKind;
pub use netlist::{parse_deck, Deck, ElaboratedDeck, ModelBindings, ParseError, ParseErrorKind};
pub use transient::{transient, Integrator, TransientOptions, TransientRecovery};
