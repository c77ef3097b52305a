//! Error type for the run-optimization crate.

use std::fmt;

/// Errors produced by budget planning and result-caching execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimoptError {
    /// A budget computation was configured with invalid inputs (a
    /// replication fraction outside `(0, 1]`, non-positive component
    /// costs, or a non-finite budget).
    InvalidBudget {
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
}

impl SimoptError {
    /// Shorthand for [`SimoptError::InvalidBudget`].
    pub(crate) fn budget(reason: impl Into<String>) -> Self {
        SimoptError::InvalidBudget {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SimoptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimoptError::InvalidBudget { reason } => {
                write!(f, "invalid budget configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for SimoptError {}

impl mde_numeric::ErrorClass for SimoptError {
    /// Budget misconfiguration is a caller error that would fail
    /// identically on every attempt.
    fn severity(&self) -> mde_numeric::Severity {
        mde_numeric::Severity::Fatal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::{ErrorClass as _, Severity};

    #[test]
    fn display_and_severity() {
        let e = SimoptError::budget("alpha must be in (0, 1], got 2");
        assert!(e.to_string().contains("alpha"));
        assert_eq!(e.severity(), Severity::Fatal);
    }
}
