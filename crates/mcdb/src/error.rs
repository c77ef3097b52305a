//! Error type for the Monte Carlo database engine.

use std::fmt;

/// Errors produced by the Monte Carlo database engine.
#[derive(Debug, Clone, PartialEq)]
pub enum McdbError {
    /// A referenced table does not exist in the catalog.
    UnknownTable {
        /// Name of the missing table.
        name: String,
    },
    /// A referenced column does not exist in a schema.
    UnknownColumn {
        /// Name of the missing column.
        column: String,
        /// The columns that were available.
        available: Vec<String>,
    },
    /// A value had the wrong type for an operation.
    TypeMismatch {
        /// Description of the operation.
        context: String,
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// A row had the wrong arity for its schema.
    ArityMismatch {
        /// Description of the operation.
        context: String,
        /// Expected number of values.
        expected: usize,
        /// Found number of values.
        found: usize,
    },
    /// A query or spec was structurally invalid.
    InvalidPlan {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A row index (e.g. in a selection vector) pointed past the end of
    /// the batch it selects from.
    RowOutOfBounds {
        /// The operation that consumed the index.
        context: String,
        /// The offending row index.
        index: u64,
        /// Number of rows actually available.
        rows: usize,
    },
    /// An error from the numeric substrate (VG functions, estimators).
    Numeric(mde_numeric::NumericError),
    /// A Monte Carlo estimation query produced a non-scalar result.
    NonScalarResult {
        /// Number of rows produced.
        rows: usize,
        /// Number of columns produced.
        cols: usize,
    },
    /// A supervised replicate failed (panic caught by the worker, or a
    /// non-finite sample) and the run policy had no recovery left.
    ReplicateFailed {
        /// Zero-based replicate index.
        replicate: u64,
        /// Zero-based attempt on which the terminal failure occurred.
        attempt: u32,
        /// Human-readable cause (panic payload or offending value).
        message: String,
    },
    /// A best-effort run dropped so many replicates that the estimate fell
    /// below the policy's minimum success fraction.
    TooManyFailures {
        /// Replicates that produced a sample.
        succeeded: usize,
        /// Replicates attempted.
        attempted: usize,
        /// Minimum successes the policy required.
        required: usize,
    },
    /// Durable-campaign checkpoint persistence or validation failed
    /// (unwritable path, corrupt file, or a checkpoint that belongs to a
    /// different campaign).
    Checkpoint(mde_numeric::CheckpointError),
    /// A page in a paged table file (or spill partition) could not be
    /// decoded: bad magic, truncation, an unknown encoding/type tag, or a
    /// structurally impossible field. Data loss surfaces as this typed
    /// error — never as a silently wrong query result.
    PageCorrupt {
        /// File the page was read from.
        path: String,
        /// Zero-based page index within the file (or `u64::MAX` when the
        /// file header itself is corrupt).
        page: u64,
        /// What the decoder tripped over.
        reason: String,
    },
    /// A page's content (or the file header) does not hash to its stored
    /// checksum — it was altered or torn after it was written.
    PageChecksumMismatch {
        /// File the page was read from.
        path: String,
        /// Zero-based page index within the file.
        page: u64,
        /// Checksum stored in the page header.
        expected: u64,
        /// Checksum of the frame as found.
        found: u64,
    },
    /// The buffer pool could not make room: every resident frame is
    /// pinned by an in-flight reader. Retryable — pins are transient, so
    /// a later attempt (or a larger frame budget) can succeed.
    PoolExhausted {
        /// Frame budget of the pool.
        budget: usize,
        /// Frames that were pinned when eviction gave up.
        pinned: usize,
    },
    /// Exact integer arithmetic left the `i64` range (e.g. a `SUM` over an
    /// `Int` column): surfaced instead of wrapping or silently changing
    /// the result type.
    IntegerOverflow {
        /// The operation that overflowed.
        context: String,
    },
}

impl McdbError {
    /// Shorthand for [`McdbError::InvalidPlan`].
    pub fn invalid_plan(reason: impl Into<String>) -> Self {
        McdbError::InvalidPlan {
            reason: reason.into(),
        }
    }

    /// Shorthand for [`McdbError::TypeMismatch`].
    pub fn type_mismatch(
        context: impl Into<String>,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> Self {
        McdbError::TypeMismatch {
            context: context.into(),
            expected: expected.into(),
            found: found.into(),
        }
    }
}

impl fmt::Display for McdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McdbError::UnknownTable { name } => write!(f, "unknown table `{name}`"),
            McdbError::UnknownColumn { column, available } => {
                write!(
                    f,
                    "unknown column `{column}` (available: {})",
                    available.join(", ")
                )
            }
            McdbError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            McdbError::ArityMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch in {context}: expected {expected} values, found {found}"
            ),
            McdbError::InvalidPlan { reason } => write!(f, "invalid plan: {reason}"),
            McdbError::RowOutOfBounds {
                context,
                index,
                rows,
            } => write!(
                f,
                "row index {index} out of bounds in {context}: batch has {rows} rows"
            ),
            McdbError::Numeric(e) => write!(f, "numeric error: {e}"),
            McdbError::NonScalarResult { rows, cols } => write!(
                f,
                "Monte Carlo estimation requires a scalar (1x1) query result, got {rows}x{cols}"
            ),
            McdbError::ReplicateFailed {
                replicate,
                attempt,
                message,
            } => write!(
                f,
                "replicate {replicate} failed on attempt {attempt}: {message}"
            ),
            McdbError::TooManyFailures {
                succeeded,
                attempted,
                required,
            } => write!(
                f,
                "best-effort run degraded below its floor: {succeeded}/{attempted} replicates \
                 succeeded, policy required {required}"
            ),
            McdbError::Checkpoint(e) => write!(f, "{e}"),
            McdbError::PageCorrupt { path, page, reason } => {
                if *page == u64::MAX {
                    write!(f, "corrupt table file `{path}`: {reason}")
                } else {
                    write!(f, "corrupt page {page} in `{path}`: {reason}")
                }
            }
            McdbError::PageChecksumMismatch {
                path,
                page,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch on page {page} in `{path}`: stored {expected:#018x}, \
                 found {found:#018x}"
            ),
            McdbError::PoolExhausted { budget, pinned } => write!(
                f,
                "buffer pool exhausted: all {pinned} of {budget} frames pinned"
            ),
            McdbError::IntegerOverflow { context } => {
                write!(
                    f,
                    "integer overflow in {context}: result exceeds the i64 range"
                )
            }
        }
    }
}

impl mde_numeric::ErrorClass for McdbError {
    /// Replicate-level failures are retryable (they came from one
    /// replicate's draws); numeric errors delegate to their own
    /// classification; everything else — unknown tables/columns, type and
    /// arity mismatches, invalid plans, non-scalar results, an exhausted
    /// best-effort floor — is a configuration or structural error that
    /// would fail identically on every attempt.
    fn severity(&self) -> mde_numeric::Severity {
        match self {
            McdbError::ReplicateFailed { .. } => mde_numeric::Severity::Retryable,
            // Pool pins are transient (readers release them), so a retry
            // can find an evictable frame. Corruption is not: re-reading a
            // damaged page fails identically every time.
            McdbError::PoolExhausted { .. } => mde_numeric::Severity::Retryable,
            McdbError::Numeric(e) => e.severity(),
            McdbError::Checkpoint(e) => e.severity(),
            _ => mde_numeric::Severity::Fatal,
        }
    }
}

impl std::error::Error for McdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McdbError::Numeric(e) => Some(e),
            McdbError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mde_numeric::NumericError> for McdbError {
    fn from(e: mde_numeric::NumericError) -> Self {
        McdbError::Numeric(e)
    }
}

impl From<mde_numeric::CheckpointError> for McdbError {
    fn from(e: mde_numeric::CheckpointError) -> Self {
        McdbError::Checkpoint(e)
    }
}

impl mde_numeric::BoundaryError for McdbError {
    fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self {
        McdbError::TooManyFailures {
            succeeded,
            attempted,
            required,
        }
    }

    fn boundary_failed(replicate: u64, attempt: u32, message: String) -> Self {
        McdbError::ReplicateFailed {
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
    fn display_messages() {
        let e = McdbError::UnknownTable { name: "T".into() };
        assert!(e.to_string().contains("T"));

        let e = McdbError::UnknownColumn {
            column: "x".into(),
            available: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("x"));
        assert!(e.to_string().contains("a, b"));

        let e = McdbError::type_mismatch("filter", "Bool", "Int");
        assert!(e.to_string().contains("Bool"));

        let e = McdbError::NonScalarResult { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2x3"));
    }

    #[test]
    fn numeric_error_wraps_with_source() {
        use std::error::Error as _;
        let e: McdbError = mde_numeric::NumericError::EmptyInput { context: "q" }.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn severity_classification() {
        use mde_numeric::{ErrorClass as _, Severity};
        let e = McdbError::ReplicateFailed {
            replicate: 3,
            attempt: 1,
            message: "worker panicked".into(),
        };
        assert_eq!(e.severity(), Severity::Retryable);
        assert!(e.to_string().contains("replicate 3"));

        let e = McdbError::TooManyFailures {
            succeeded: 2,
            attempted: 10,
            required: 9,
        };
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("2/10"));

        assert_eq!(
            McdbError::UnknownTable { name: "T".into() }.severity(),
            Severity::Fatal
        );
        // Numeric errors delegate to their own classification.
        let e: McdbError = mde_numeric::NumericError::SingularMatrix { context: "chol" }.into();
        assert_eq!(e.severity(), Severity::Retryable);
        let e: McdbError = mde_numeric::NumericError::invalid("sigma", "negative").into();
        assert_eq!(e.severity(), Severity::Fatal);
        // Checkpoint failures are always fatal: re-reading a corrupt or
        // foreign checkpoint fails identically every time.
        let e: McdbError = mde_numeric::CheckpointError::Corrupt {
            reason: "bad magic".into(),
        }
        .into();
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("bad magic"));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
