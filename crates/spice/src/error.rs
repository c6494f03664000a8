//! Error type for the circuit simulator.

use gnr_num::NumError;
use std::error::Error;
use std::fmt;

/// Errors produced by netlist construction and analyses.
#[derive(Debug)]
pub enum SpiceError {
    /// Linear algebra failure inside a Newton step.
    Linear(NumError),
    /// Newton iteration failed to converge.
    NewtonDiverged {
        /// The analysis that failed ("dc", "transient step", ...).
        analysis: &'static str,
        /// Iterations performed.
        iterations: usize,
        /// Worst KCL residual \[A\].
        residual: f64,
    },
    /// Every rescue homotopy for an analysis was exhausted; records both
    /// the primary failure and the last rescue's failure so neither is
    /// hidden.
    RescueChainFailed {
        /// The analysis whose rescue chain ran dry ("dc", ...).
        analysis: &'static str,
        /// The rescue strategies tried, in order.
        attempted: &'static [&'static str],
        /// The original (pre-rescue) failure.
        primary: Box<SpiceError>,
        /// The failure of the final rescue attempt.
        last: Box<SpiceError>,
    },
    /// Invalid netlist or analysis configuration.
    Config {
        /// Human-readable description.
        detail: String,
    },
    /// A measurement could not be extracted from a waveform (e.g. the ring
    /// oscillator never oscillated).
    Measurement {
        /// Human-readable description.
        detail: String,
    },
    /// A SPICE deck failed to parse or elaborate.
    Parse(crate::netlist::ParseError),
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Linear(e) => write!(f, "linear solve: {e}"),
            SpiceError::NewtonDiverged {
                analysis,
                iterations,
                residual,
            } => write!(
                f,
                "{analysis} newton iteration did not converge after {iterations} iterations (residual {residual:.3e} A)"
            ),
            SpiceError::RescueChainFailed {
                analysis,
                attempted,
                primary,
                last,
            } => write!(
                f,
                "{analysis} rescue chain exhausted ({}): primary failure: {primary}; last rescue failure: {last}",
                attempted.join(", ")
            ),
            SpiceError::Config { detail } => write!(f, "invalid circuit: {detail}"),
            SpiceError::Measurement { detail } => write!(f, "measurement failed: {detail}"),
            SpiceError::Parse(e) => write!(f, "deck parse: {e}"),
        }
    }
}

impl Error for SpiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpiceError::Linear(e) => Some(e),
            SpiceError::RescueChainFailed { primary, .. } => Some(&**primary),
            SpiceError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumError> for SpiceError {
    fn from(e: NumError) -> Self {
        SpiceError::Linear(e)
    }
}

impl From<crate::netlist::ParseError> for SpiceError {
    fn from(e: crate::netlist::ParseError) -> Self {
        SpiceError::Parse(e)
    }
}

impl SpiceError {
    /// Builds a [`SpiceError::Config`].
    pub fn config(detail: impl Into<String>) -> Self {
        SpiceError::Config {
            detail: detail.into(),
        }
    }

    /// Builds a [`SpiceError::Measurement`].
    pub fn measurement(detail: impl Into<String>) -> Self {
        SpiceError::Measurement {
            detail: detail.into(),
        }
    }

    /// True when this error wraps a budget stop
    /// ([`NumError::BudgetExhausted`] / [`NumError::Cancelled`]): budget
    /// stops must propagate unchanged instead of triggering rescue ladders.
    pub fn is_budget_stop(&self) -> bool {
        matches!(self, SpiceError::Linear(e) if e.is_budget_stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SpiceError::config("floating node")
            .to_string()
            .contains("floating"));
        assert!(SpiceError::measurement("no oscillation")
            .to_string()
            .contains("oscillation"));
        let e = SpiceError::NewtonDiverged {
            analysis: "dc",
            iterations: 50,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("dc"));
    }
}
