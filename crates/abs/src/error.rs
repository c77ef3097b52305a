//! Error type for the agent-based-simulation crate.

use std::fmt;

/// Errors produced by the simulation models and their configuration
/// validation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AbsError {
    /// A model configuration was rejected before any agent was built.
    InvalidConfig {
        /// Which model rejected its configuration.
        context: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An error from the numeric substrate.
    Numeric(mde_numeric::NumericError),
}

impl AbsError {
    /// Shorthand for [`AbsError::InvalidConfig`].
    #[cfg(test)]
    fn config(context: &'static str, reason: impl Into<String>) -> Self {
        AbsError::InvalidConfig {
            context,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsError::InvalidConfig { context, reason } => {
                write!(f, "invalid configuration for {context}: {reason}")
            }
            AbsError::Numeric(e) => write!(f, "numeric error: {e}"),
        }
    }
}

impl std::error::Error for AbsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AbsError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_numeric::NumericError> for AbsError {
    fn from(e: mde_numeric::NumericError) -> Self {
        AbsError::Numeric(e)
    }
}

impl mde_numeric::ErrorClass for AbsError {
    /// A rejected configuration is a caller error — retrying with the
    /// same inputs cannot succeed — so it is fatal; numeric errors
    /// delegate to their own classification.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            AbsError::InvalidConfig { .. } => mde_numeric::Severity::Fatal,
            AbsError::Numeric(e) => e.severity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::{ErrorClass as _, Severity};

    #[test]
    fn display_and_severity() {
        let e = AbsError::config("traffic model", "density must be in (0,1), got 1.5");
        assert!(e.to_string().contains("traffic model"));
        assert!(e.to_string().contains("density"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e: AbsError = mde_numeric::NumericError::SingularMatrix { context: "c" }.into();
        assert_eq!(e.severity(), Severity::Retryable);
    }
}
