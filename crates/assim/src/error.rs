//! Error type for the data-assimilation crate.

use std::fmt;

/// Errors produced by importance sampling, resampling, and the particle
/// filter.
#[derive(Debug, Clone, PartialEq)]
pub enum AssimError {
    /// A weight vector was unusable (empty, negative entries, or all
    /// zero where a positive total is required).
    InvalidWeights {
        /// Description of the operation.
        context: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A supervised filtering step failed (panic caught by the worker,
    /// weight collapse, or a non-finite evidence increment) and the run
    /// policy had no recovery left.
    StepFailed {
        /// Zero-based observation-step index.
        step: u64,
        /// Zero-based attempt on which the terminal failure occurred.
        attempt: u32,
        /// Human-readable cause.
        message: String,
    },
    /// A best-effort filter run dropped so many steps that it fell below
    /// the policy's minimum success fraction.
    TooManyFailures {
        /// Steps that produced a filtered posterior.
        succeeded: usize,
        /// Steps attempted.
        attempted: usize,
        /// Minimum successes the policy required.
        required: usize,
    },
    /// An error from the numeric substrate.
    Numeric(mde_numeric::NumericError),
    /// Durable-campaign checkpoint persistence or validation failed.
    Checkpoint(mde_numeric::CheckpointError),
}

impl AssimError {
    /// Shorthand for [`AssimError::InvalidWeights`].
    pub fn weights(context: &'static str, reason: impl Into<String>) -> Self {
        AssimError::InvalidWeights {
            context,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AssimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssimError::InvalidWeights { context, reason } => {
                write!(f, "invalid weights in {context}: {reason}")
            }
            AssimError::StepFailed {
                step,
                attempt,
                message,
            } => write!(
                f,
                "filter step {step} failed on attempt {attempt}: {message}"
            ),
            AssimError::TooManyFailures {
                succeeded,
                attempted,
                required,
            } => write!(
                f,
                "best-effort filter degraded below its floor: {succeeded}/{attempted} steps \
                 succeeded, policy required {required}"
            ),
            AssimError::Numeric(e) => write!(f, "numeric error: {e}"),
            AssimError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AssimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AssimError::Numeric(e) => Some(e),
            AssimError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_numeric::NumericError> for AssimError {
    fn from(e: mde_numeric::NumericError) -> Self {
        AssimError::Numeric(e)
    }
}

impl From<mde_numeric::CheckpointError> for AssimError {
    fn from(e: mde_numeric::CheckpointError) -> Self {
        AssimError::Checkpoint(e)
    }
}

impl mde_numeric::ErrorClass for AssimError {
    /// Step failures are draw-dependent and retryable; weight problems
    /// handed in by the caller and an exhausted best-effort floor are
    /// fatal; numeric errors delegate to their own classification.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            AssimError::StepFailed { .. } => mde_numeric::Severity::Retryable,
            AssimError::Numeric(e) => e.severity(),
            AssimError::Checkpoint(e) => e.severity(),
            AssimError::InvalidWeights { .. } | AssimError::TooManyFailures { .. } => {
                mde_numeric::Severity::Fatal
            }
        }
    }
}

impl mde_numeric::BoundaryError for AssimError {
    fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self {
        AssimError::TooManyFailures {
            succeeded,
            attempted,
            required,
        }
    }

    fn boundary_failed(step: u64, attempt: u32, message: String) -> Self {
        AssimError::StepFailed {
            step,
            attempt,
            message,
        }
    }

    fn injected_fault(_: u64, _: u32) -> Self {
        mde_numeric::NumericError::NoConvergence {
            context: "injected fault",
            iterations: 0,
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::{ErrorClass as _, Severity};

    #[test]
    fn display_and_severity() {
        let e = AssimError::weights("resample", "all weights zero");
        assert!(e.to_string().contains("resample"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e = AssimError::StepFailed {
            step: 4,
            attempt: 1,
            message: "weight collapse".into(),
        };
        assert!(e.to_string().contains("step 4"));
        assert_eq!(e.severity(), Severity::Retryable);

        let e = AssimError::TooManyFailures {
            succeeded: 1,
            attempted: 5,
            required: 4,
        };
        assert!(e.to_string().contains("1/5"));
        assert_eq!(e.severity(), Severity::Fatal);

        let e: AssimError = mde_numeric::NumericError::SingularMatrix { context: "c" }.into();
        assert_eq!(e.severity(), Severity::Retryable);

        let e: AssimError = mde_numeric::CheckpointError::Corrupt {
            reason: "truncated".into(),
        }
        .into();
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("truncated"));
    }
}
