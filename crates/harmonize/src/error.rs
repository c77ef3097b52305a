//! Error type for the harmonization crate.

use std::fmt;

/// Errors produced by harmonization operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HarmonizeError {
    /// A time series was structurally invalid (unsorted times, ragged
    /// observation tuples, empty where data is required).
    InvalidSeries {
        /// Human-readable description.
        reason: String,
    },
    /// A transformation was configured inconsistently with its inputs.
    InvalidTransform {
        /// Human-readable description.
        reason: String,
    },
    /// A gridfield operation referenced missing cells or mismatched grids.
    InvalidGrid {
        /// Human-readable description.
        reason: String,
    },
    /// An error from the numeric substrate.
    Numeric(mde_numeric::NumericError),
}

impl HarmonizeError {
    /// Shorthand constructor for [`HarmonizeError::InvalidSeries`].
    pub(crate) fn series(reason: impl Into<String>) -> Self {
        HarmonizeError::InvalidSeries {
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`HarmonizeError::InvalidTransform`].
    pub(crate) fn transform(reason: impl Into<String>) -> Self {
        HarmonizeError::InvalidTransform {
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`HarmonizeError::InvalidGrid`].
    pub(crate) fn grid(reason: impl Into<String>) -> Self {
        HarmonizeError::InvalidGrid {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for HarmonizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarmonizeError::InvalidSeries { reason } => write!(f, "invalid time series: {reason}"),
            HarmonizeError::InvalidTransform { reason } => {
                write!(f, "invalid transformation: {reason}")
            }
            HarmonizeError::InvalidGrid { reason } => write!(f, "invalid gridfield: {reason}"),
            HarmonizeError::Numeric(e) => write!(f, "numeric error: {e}"),
        }
    }
}

impl mde_numeric::ErrorClass for HarmonizeError {
    /// Series problems are data-dependent — a stochastic model can emit a
    /// degenerate series on one unlucky draw, so a fresh stream may
    /// succeed. Transform and grid configuration errors are structural and
    /// fail identically on every attempt; numeric errors delegate to
    /// their own classification.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            HarmonizeError::InvalidSeries { .. } => mde_numeric::Severity::Retryable,
            HarmonizeError::Numeric(e) => e.severity(),
            HarmonizeError::InvalidTransform { .. } | HarmonizeError::InvalidGrid { .. } => {
                mde_numeric::Severity::Fatal
            }
        }
    }
}

impl std::error::Error for HarmonizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarmonizeError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_numeric::NumericError> for HarmonizeError {
    fn from(e: mde_numeric::NumericError) -> Self {
        HarmonizeError::Numeric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(HarmonizeError::series("x")
            .to_string()
            .contains("time series"));
        assert!(HarmonizeError::transform("x")
            .to_string()
            .contains("transformation"));
        assert!(HarmonizeError::grid("x").to_string().contains("gridfield"));
        let e: HarmonizeError = mde_numeric::NumericError::EmptyInput { context: "q" }.into();
        assert!(e.to_string().contains("numeric"));
    }
}
