//! Error type for the calibration crate.

use std::fmt;

/// Errors produced by the calibration optimizers and their durable
/// campaign wrappers.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrateError {
    /// A box-constraint range was unusable: `lo > hi` or a non-finite
    /// endpoint.
    InvalidBounds {
        /// Zero-based dimension index of the offending range.
        index: usize,
        /// Lower endpoint as given.
        lo: f64,
        /// Upper endpoint as given.
        hi: f64,
    },
    /// An optimizer configuration was rejected before any evaluation ran.
    InvalidConfig {
        /// Which optimizer or structure rejected its configuration.
        context: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A supervised optimizer boundary (one GA generation or one random
    /// search evaluation) failed — a panic caught by the supervisor, an
    /// injected fault, or a non-finite result — and the run policy had no
    /// recovery left.
    GenerationFailed {
        /// Zero-based boundary index (generation or evaluation).
        generation: u64,
        /// Zero-based attempt on which the terminal failure occurred.
        attempt: u32,
        /// Human-readable cause.
        message: String,
    },
    /// A best-effort optimizer run dropped so many boundaries that it
    /// fell below the policy's minimum success fraction.
    TooManyFailures {
        /// Boundaries that completed.
        succeeded: usize,
        /// Boundaries attempted.
        attempted: usize,
        /// Minimum successes the policy required.
        required: usize,
    },
    /// An error from the numeric substrate.
    Numeric(mde_numeric::NumericError),
    /// Durable-campaign checkpoint persistence or validation failed.
    Checkpoint(mde_numeric::CheckpointError),
}

impl fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrateError::InvalidBounds { index, lo, hi } => {
                write!(f, "invalid range [{lo}, {hi}] in dimension {index}")
            }
            CalibrateError::InvalidConfig { context, reason } => {
                write!(f, "invalid configuration for {context}: {reason}")
            }
            CalibrateError::GenerationFailed {
                generation,
                attempt,
                message,
            } => write!(
                f,
                "optimizer boundary {generation} failed on attempt {attempt}: {message}"
            ),
            CalibrateError::TooManyFailures {
                succeeded,
                attempted,
                required,
            } => write!(
                f,
                "best-effort optimizer degraded below its floor: {succeeded}/{attempted} \
                 boundaries succeeded, policy required {required}"
            ),
            CalibrateError::Numeric(e) => write!(f, "numeric error: {e}"),
            CalibrateError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CalibrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibrateError::Numeric(e) => Some(e),
            CalibrateError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_numeric::NumericError> for CalibrateError {
    fn from(e: mde_numeric::NumericError) -> Self {
        CalibrateError::Numeric(e)
    }
}

impl From<mde_numeric::CheckpointError> for CalibrateError {
    fn from(e: mde_numeric::CheckpointError) -> Self {
        CalibrateError::Checkpoint(e)
    }
}

impl mde_numeric::ErrorClass for CalibrateError {
    /// Boundary failures are draw-dependent and retryable; bad bounds,
    /// bad configuration, and an exhausted best-effort floor are caller
    /// errors and fatal; numeric and checkpoint errors delegate to their
    /// own classification.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            CalibrateError::GenerationFailed { .. } => mde_numeric::Severity::Retryable,
            CalibrateError::Numeric(e) => e.severity(),
            CalibrateError::Checkpoint(e) => e.severity(),
            CalibrateError::InvalidBounds { .. }
            | CalibrateError::InvalidConfig { .. }
            | CalibrateError::TooManyFailures { .. } => mde_numeric::Severity::Fatal,
        }
    }
}

impl mde_numeric::BoundaryError for CalibrateError {
    fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self {
        CalibrateError::TooManyFailures {
            succeeded,
            attempted,
            required,
        }
    }

    fn boundary_failed(generation: u64, attempt: u32, message: String) -> Self {
        CalibrateError::GenerationFailed {
            generation,
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
        let e = CalibrateError::InvalidBounds {
            index: 1,
            lo: 2.0,
            hi: 1.0,
        };
        assert!(e.to_string().contains("invalid range [2, 1]"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e = CalibrateError::InvalidConfig {
            context: "genetic algorithm",
            reason: "population too small".into(),
        };
        assert!(e.to_string().contains("population too small"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e = CalibrateError::GenerationFailed {
            generation: 3,
            attempt: 1,
            message: "injected".into(),
        };
        assert!(e.to_string().contains("boundary 3"));
        assert_eq!(e.severity(), Severity::Retryable);

        let e = CalibrateError::TooManyFailures {
            succeeded: 1,
            attempted: 4,
            required: 3,
        };
        assert!(e.to_string().contains("1/4"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e: CalibrateError = mde_numeric::NumericError::SingularMatrix { context: "c" }.into();
        assert_eq!(e.severity(), Severity::Retryable);

        let e: CalibrateError = mde_numeric::CheckpointError::Corrupt {
            reason: "truncated".into(),
        }
        .into();
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("truncated"));
    }
}
