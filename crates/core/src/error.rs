//! Error type for the ecosystem platform.

use std::fmt;

/// Errors produced by the composite-modeling platform.
#[derive(Debug)]
pub enum CoreError {
    /// A registry lookup failed.
    NotRegistered {
        /// What kind of artifact (model/dataset).
        kind: &'static str,
        /// The missing name.
        name: String,
    },
    /// A composite model is structurally invalid (cycles, dangling ports,
    /// arity problems).
    InvalidComposite {
        /// Human-readable description.
        reason: String,
    },
    /// Data mismatches were detected and could not be auto-resolved.
    UnresolvedMismatch {
        /// Human-readable descriptions of each unresolved mismatch.
        mismatches: Vec<String>,
    },
    /// An error bubbled up from the harmonization layer.
    Harmonize(mde_harmonize::HarmonizeError),
    /// An error bubbled up from the database engine.
    Mcdb(mde_mcdb::McdbError),
    /// An error bubbled up from the numeric substrate.
    Numeric(mde_numeric::NumericError),
    /// A supervised Monte Carlo repetition failed (panic caught by the
    /// worker, or a non-finite scalarized sample) and the run policy had
    /// no recovery left.
    ReplicateFailed {
        /// Zero-based repetition index.
        replicate: u64,
        /// Zero-based attempt on which the terminal failure occurred.
        attempt: u32,
        /// Human-readable cause.
        message: String,
    },
    /// A best-effort run dropped so many repetitions that the estimate
    /// fell below the policy's minimum success fraction.
    TooManyFailures {
        /// Repetitions that produced a sample.
        succeeded: usize,
        /// Repetitions attempted.
        attempted: usize,
        /// Minimum successes the policy required.
        required: usize,
    },
}

impl CoreError {
    /// Shorthand for [`CoreError::InvalidComposite`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        CoreError::InvalidComposite {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotRegistered { kind, name } => {
                write!(f, "{kind} `{name}` is not registered")
            }
            CoreError::InvalidComposite { reason } => {
                write!(f, "invalid composite model: {reason}")
            }
            CoreError::UnresolvedMismatch { mismatches } => {
                write!(f, "unresolved data mismatches: {}", mismatches.join("; "))
            }
            CoreError::Harmonize(e) => write!(f, "harmonization error: {e}"),
            CoreError::Mcdb(e) => write!(f, "database error: {e}"),
            CoreError::Numeric(e) => write!(f, "numeric error: {e}"),
            CoreError::ReplicateFailed {
                replicate,
                attempt,
                message,
            } => write!(
                f,
                "repetition {replicate} failed on attempt {attempt}: {message}"
            ),
            CoreError::TooManyFailures {
                succeeded,
                attempted,
                required,
            } => write!(
                f,
                "best-effort run degraded below its floor: {succeeded}/{attempted} repetitions \
                 succeeded, policy required {required}"
            ),
        }
    }
}

impl mde_numeric::ErrorClass for CoreError {
    /// Wrapped lower-layer errors delegate to their own classification;
    /// replicate-level failures are retryable; structural errors
    /// (registry lookups, invalid composites, unresolved mismatches, an
    /// exhausted best-effort floor) would fail
    /// identically on every attempt and are fatal.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            CoreError::ReplicateFailed { .. } => mde_numeric::Severity::Retryable,
            CoreError::Harmonize(e) => e.severity(),
            CoreError::Mcdb(e) => e.severity(),
            CoreError::Numeric(e) => e.severity(),
            _ => mde_numeric::Severity::Fatal,
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Harmonize(e) => Some(e),
            CoreError::Mcdb(e) => Some(e),
            CoreError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_harmonize::HarmonizeError> for CoreError {
    fn from(e: mde_harmonize::HarmonizeError) -> Self {
        CoreError::Harmonize(e)
    }
}

impl From<mde_mcdb::McdbError> for CoreError {
    fn from(e: mde_mcdb::McdbError) -> Self {
        CoreError::Mcdb(e)
    }
}

impl From<mde_numeric::NumericError> for CoreError {
    fn from(e: mde_numeric::NumericError) -> Self {
        CoreError::Numeric(e)
    }
}

impl From<mde_numeric::CheckpointError> for CoreError {
    /// Checkpoint failures reach the platform through the database layer's
    /// durable campaigns, so they are reported as its error.
    fn from(e: mde_numeric::CheckpointError) -> Self {
        CoreError::Mcdb(e.into())
    }
}

impl mde_numeric::BoundaryError for CoreError {
    fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self {
        CoreError::TooManyFailures {
            succeeded,
            attempted,
            required,
        }
    }

    fn boundary_failed(replicate: u64, attempt: u32, message: String) -> Self {
        CoreError::ReplicateFailed {
            replicate,
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

    #[test]
    fn display_variants() {
        let e = CoreError::NotRegistered {
            kind: "model",
            name: "demand".into(),
        };
        assert!(e.to_string().contains("demand"));
        let e = CoreError::invalid("cycle detected");
        assert!(e.to_string().contains("cycle"));
        let e = CoreError::UnresolvedMismatch {
            mismatches: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("a; b"));
    }
}
