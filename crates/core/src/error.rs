//! Error type for the exploration flows.

use gnr_device::DeviceError;
use gnr_num::NumError;
use gnr_spice::SpiceError;
use std::error::Error;
use std::fmt;

/// Errors produced by the technology-exploration flows.
#[derive(Debug)]
pub enum ExploreError {
    /// Device-level failure.
    Device(DeviceError),
    /// Circuit-level failure.
    Spice(SpiceError),
    /// Numerics failure surfaced directly by a study driver (budget stops,
    /// checkpoint corruption).
    Num(NumError),
    /// Invalid study configuration.
    Config {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Device(e) => write!(f, "device: {e}"),
            ExploreError::Spice(e) => write!(f, "circuit: {e}"),
            ExploreError::Num(e) => write!(f, "numerics: {e}"),
            ExploreError::Config { detail } => write!(f, "invalid study: {detail}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Device(e) => Some(e),
            ExploreError::Spice(e) => Some(e),
            ExploreError::Num(e) => Some(e),
            ExploreError::Config { .. } => None,
        }
    }
}

impl From<DeviceError> for ExploreError {
    fn from(e: DeviceError) -> Self {
        ExploreError::Device(e)
    }
}

impl From<SpiceError> for ExploreError {
    fn from(e: SpiceError) -> Self {
        ExploreError::Spice(e)
    }
}

impl From<NumError> for ExploreError {
    fn from(e: NumError) -> Self {
        ExploreError::Num(e)
    }
}

impl ExploreError {
    /// Builds a configuration error.
    pub fn config(detail: impl Into<String>) -> Self {
        ExploreError::Config {
            detail: detail.into(),
        }
    }

    /// True when this error is a budget stop ([`NumError::BudgetExhausted`]
    /// or [`NumError::Cancelled`]) at any nesting level.
    pub fn is_budget_stop(&self) -> bool {
        match self {
            ExploreError::Num(e) => e.is_budget_stop(),
            ExploreError::Device(e) => e.is_budget_stop(),
            ExploreError::Spice(e) => e.is_budget_stop(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = ExploreError::config("bad grid");
        assert!(e.to_string().contains("bad grid"));
        let e: ExploreError = DeviceError::config("x").into();
        assert!(matches!(e, ExploreError::Device(_)));
    }
}
