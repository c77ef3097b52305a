//! Error type for the metamodeling crate.

use std::fmt;

/// Errors produced by the screening and metamodel-fitting surfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum MetamodelError {
    /// A screening or design configuration was rejected before any
    /// simulation run executed.
    InvalidConfig {
        /// Which surface rejected its configuration.
        context: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A supervised bifurcation round failed — a panic caught by the
    /// supervisor, an injected fault, or a non-finite probe — and the run
    /// policy had no recovery left.
    RoundFailed {
        /// Zero-based bisection-round index.
        round: u64,
        /// Zero-based attempt on which the terminal failure occurred.
        attempt: u32,
        /// Human-readable cause.
        message: String,
    },
    /// A best-effort screening run dropped so many rounds that it fell
    /// below the policy's minimum success fraction.
    TooManyFailures {
        /// Rounds that resolved their factor group.
        succeeded: usize,
        /// Rounds attempted.
        attempted: usize,
        /// Minimum successes the policy required.
        required: usize,
    },
    /// An error from the numeric substrate.
    Numeric(mde_numeric::NumericError),
    /// Durable-campaign checkpoint persistence or validation failed.
    Checkpoint(mde_numeric::CheckpointError),
}

impl fmt::Display for MetamodelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetamodelError::InvalidConfig { context, reason } => {
                write!(f, "invalid configuration for {context}: {reason}")
            }
            MetamodelError::RoundFailed {
                round,
                attempt,
                message,
            } => write!(
                f,
                "bifurcation round {round} failed on attempt {attempt}: {message}"
            ),
            MetamodelError::TooManyFailures {
                succeeded,
                attempted,
                required,
            } => write!(
                f,
                "best-effort screening degraded below its floor: {succeeded}/{attempted} \
                 rounds succeeded, policy required {required}"
            ),
            MetamodelError::Numeric(e) => write!(f, "numeric error: {e}"),
            MetamodelError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MetamodelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MetamodelError::Numeric(e) => Some(e),
            MetamodelError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_numeric::NumericError> for MetamodelError {
    fn from(e: mde_numeric::NumericError) -> Self {
        MetamodelError::Numeric(e)
    }
}

impl From<mde_numeric::CheckpointError> for MetamodelError {
    fn from(e: mde_numeric::CheckpointError) -> Self {
        MetamodelError::Checkpoint(e)
    }
}

impl mde_numeric::ErrorClass for MetamodelError {
    /// Round failures are draw-dependent and retryable; bad configuration
    /// and an exhausted best-effort floor are fatal; numeric and
    /// checkpoint errors delegate to their own classification.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            MetamodelError::RoundFailed { .. } => mde_numeric::Severity::Retryable,
            MetamodelError::Numeric(e) => e.severity(),
            MetamodelError::Checkpoint(e) => e.severity(),
            MetamodelError::InvalidConfig { .. } | MetamodelError::TooManyFailures { .. } => {
                mde_numeric::Severity::Fatal
            }
        }
    }
}

impl mde_numeric::BoundaryError for MetamodelError {
    fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self {
        MetamodelError::TooManyFailures {
            succeeded,
            attempted,
            required,
        }
    }

    fn boundary_failed(round: u64, attempt: u32, message: String) -> Self {
        MetamodelError::RoundFailed {
            round,
            attempt,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::{ErrorClass as _, Severity};

    #[test]
    fn display_and_severity() {
        let e = MetamodelError::InvalidConfig {
            context: "sequential bifurcation",
            reason: "zero factors".into(),
        };
        assert!(e.to_string().contains("zero factors"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e = MetamodelError::RoundFailed {
            round: 2,
            attempt: 0,
            message: "injected".into(),
        };
        assert!(e.to_string().contains("round 2"));
        assert_eq!(e.severity(), Severity::Retryable);

        let e = MetamodelError::TooManyFailures {
            succeeded: 2,
            attempted: 6,
            required: 5,
        };
        assert!(e.to_string().contains("2/6"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e: MetamodelError = mde_numeric::NumericError::SingularMatrix { context: "c" }.into();
        assert_eq!(e.severity(), Severity::Retryable);

        let e: MetamodelError = mde_numeric::CheckpointError::Corrupt {
            reason: "truncated".into(),
        }
        .into();
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("truncated"));
    }
}
