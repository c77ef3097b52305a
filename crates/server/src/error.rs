//! The typed wire-error taxonomy: every way a request can fail maps to
//! one [`WireCode`], carried in an `ERR` frame together with a
//! retryability bit and, for overload rejections, a deterministic
//! retry-after hint.
//!
//! The taxonomy is the contract the chaos harness asserts: protocol
//! violations, overload, deadline expiry, panics, and shutdown each have
//! a distinct code, so a client can always tell "my request was wrong"
//! from "the system is busy" from "the session is gone" — and never
//! receives a wrong answer dressed up as a right one.

use mde_numeric::{Backoff, BackoffConfig, Fingerprint, Overloaded};
use std::fmt;

/// Machine-readable failure class, encoded on the wire as an upper-case
/// snake token (`code=QUEUE_FULL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireCode {
    /// The frame itself was malformed: torn mid-stream, oversized,
    /// zero-length, or not UTF-8. The connection is closed after this
    /// error — framing can no longer be trusted.
    BadFrame,
    /// The request line was unparseable (unknown command, missing or
    /// malformed argument).
    BadRequest,
    /// A wire-supplied deadline failed parse-time validation (zero,
    /// non-numeric, or past the protocol ceiling).
    BadDeadline,
    /// A wire-supplied replicate/cost budget failed parse-time
    /// validation (zero, non-numeric, or past the protocol ceiling).
    BadBudget,
    /// SQL text failed to parse or plan.
    Parse,
    /// The tenant's admission queue is full.
    QueueFull,
    /// The scheduler's in-flight cost budget is exhausted.
    CostBudget,
    /// The target resource's circuit breaker is open.
    BreakerOpen,
    /// Admitted work was shed under pressure before completing.
    Shed,
    /// A storage pressure probe vetoed admission.
    PoolPressure,
    /// The request's deadline expired before or during execution.
    DeadlineExpired,
    /// Query or campaign execution failed with a typed engine error.
    Exec,
    /// The request panicked inside its supervised worker; the session is
    /// closed, the server keeps serving everyone else.
    Panic,
    /// The in-flight request was cancelled (client disconnect or
    /// explicit abort).
    Cancelled,
    /// The server is at its session limit; try again shortly.
    SessionLimit,
    /// The server is draining: no new sessions or requests; in-flight
    /// campaigns are checkpointed.
    ShuttingDown,
}

impl WireCode {
    /// The wire token for this code.
    pub(crate) fn token(&self) -> &'static str {
        match self {
            WireCode::BadFrame => "BAD_FRAME",
            WireCode::BadRequest => "BAD_REQUEST",
            WireCode::BadDeadline => "BAD_DEADLINE",
            WireCode::BadBudget => "BAD_BUDGET",
            WireCode::Parse => "PARSE",
            WireCode::QueueFull => "QUEUE_FULL",
            WireCode::CostBudget => "COST_BUDGET",
            WireCode::BreakerOpen => "BREAKER_OPEN",
            WireCode::Shed => "SHED",
            WireCode::PoolPressure => "POOL_PRESSURE",
            WireCode::DeadlineExpired => "DEADLINE_EXPIRED",
            WireCode::Exec => "EXEC",
            WireCode::Panic => "PANIC",
            WireCode::Cancelled => "CANCELLED",
            WireCode::SessionLimit => "SESSION_LIMIT",
            WireCode::ShuttingDown => "SHUTTING_DOWN",
        }
    }

    /// Parse a wire token back into a code (client side).
    fn from_token(s: &str) -> Option<WireCode> {
        Some(match s {
            "BAD_FRAME" => WireCode::BadFrame,
            "BAD_REQUEST" => WireCode::BadRequest,
            "BAD_DEADLINE" => WireCode::BadDeadline,
            "BAD_BUDGET" => WireCode::BadBudget,
            "PARSE" => WireCode::Parse,
            "QUEUE_FULL" => WireCode::QueueFull,
            "COST_BUDGET" => WireCode::CostBudget,
            "BREAKER_OPEN" => WireCode::BreakerOpen,
            "SHED" => WireCode::Shed,
            "POOL_PRESSURE" => WireCode::PoolPressure,
            "DEADLINE_EXPIRED" => WireCode::DeadlineExpired,
            "EXEC" => WireCode::Exec,
            "PANIC" => WireCode::Panic,
            "CANCELLED" => WireCode::Cancelled,
            "SESSION_LIMIT" => WireCode::SessionLimit,
            "SHUTTING_DOWN" => WireCode::ShuttingDown,
            _ => return None,
        })
    }
}

impl fmt::Display for WireCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One typed wire error: code, retryability, optional deterministic
/// retry-after hint, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub code: WireCode,
    /// Whether the same request can succeed later (overload, shutdown)
    /// as opposed to failing identically every time (parse errors).
    pub retryable: bool,
    /// Deterministic backoff hint, milliseconds; only on overload-class
    /// rejections.
    pub retry_after_ms: Option<u64>,
    /// Human-readable detail (single line; newlines are stripped).
    pub message: String,
}

impl WireError {
    /// A non-retryable error with no hint.
    pub(crate) fn fatal(code: WireCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            retryable: false,
            retry_after_ms: None,
            message: sanitize(message.into()),
        }
    }

    /// A retryable error with no hint.
    pub(crate) fn retryable(code: WireCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            retryable: true,
            retry_after_ms: None,
            message: sanitize(message.into()),
        }
    }

    /// Attach a retry-after hint.
    pub(crate) fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Encode as the `ERR` wire line.
    pub(crate) fn encode(&self) -> String {
        let mut line = format!(
            "ERR code={} retryable={}",
            self.code,
            u8::from(self.retryable)
        );
        if let Some(ms) = self.retry_after_ms {
            line.push_str(&format!(" retry_after_ms={ms}"));
        }
        line.push_str(" msg=");
        line.push_str(&self.message);
        line
    }

    /// Decode an `ERR` wire line (client side). Returns `None` when the
    /// line is not a well-formed error frame.
    pub(crate) fn decode(line: &str) -> Option<WireError> {
        let rest = line.strip_prefix("ERR ")?;
        let mut code = None;
        let mut retryable = false;
        let mut retry_after_ms = None;
        let mut cursor = rest;
        loop {
            let (tok, tail) = match cursor.split_once(' ') {
                Some((t, rest)) => (t, rest),
                None => (cursor, ""),
            };
            if let Some(v) = tok.strip_prefix("code=") {
                code = WireCode::from_token(v);
            } else if let Some(v) = tok.strip_prefix("retryable=") {
                retryable = v == "1";
            } else if let Some(v) = tok.strip_prefix("retry_after_ms=") {
                retry_after_ms = v.parse().ok();
            } else if let Some(msg) = tok.strip_prefix("msg=") {
                // msg= swallows the rest of the line.
                let message = if tail.is_empty() {
                    msg.to_string()
                } else {
                    format!("{msg} {tail}")
                };
                return Some(WireError {
                    code: code?,
                    retryable,
                    retry_after_ms,
                    message,
                });
            }
            if tail.is_empty() {
                break;
            }
            cursor = tail;
        }
        Some(WireError {
            code: code?,
            retryable,
            retry_after_ms,
            message: String::new(),
        })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

fn sanitize(mut s: String) -> String {
    if s.contains('\n') || s.contains('\r') {
        s = s.replace(['\n', '\r'], " ");
    }
    s
}

/// Deterministic retry-after hints for overload rejections: a seeded
/// [`Backoff`] ladder keyed by the session fingerprint, stepped by the
/// session's consecutive-rejection streak. Two clients hammering an
/// overloaded server get de-synchronized, monotonically growing hints —
/// the same schedule every run, so the chaos harness can assert it.
#[derive(Debug, Clone)]
pub struct RetryHints {
    ladder: Backoff,
}

impl RetryHints {
    /// A hint ladder for one session.
    pub(crate) fn new(cfg: BackoffConfig, session: u64) -> Self {
        let fingerprint = Fingerprint::new("serve.retry_hint")
            .push_u64(session)
            .finish();
        RetryHints {
            ladder: Backoff::new(cfg, fingerprint),
        }
    }

    /// The hint for the `streak`-th consecutive rejection (first
    /// rejection is streak 1).
    fn after_ms(&self, streak: u32) -> u64 {
        self.ladder.delay(streak.max(1)).as_millis() as u64
    }
}

/// Map a typed scheduler rejection onto the wire taxonomy. Every
/// [`Overloaded`] variant is retryable by construction; all but
/// [`Overloaded::DeadlineExpired`] carry the session's deterministic
/// retry-after hint (re-trying an already-expired deadline without a new
/// budget is pointless, so no hint is offered).
pub fn overloaded_to_wire(err: &Overloaded, hints: &RetryHints, streak: u32) -> WireError {
    let code = match err {
        Overloaded::QueueFull { .. } => WireCode::QueueFull,
        Overloaded::CostBudget { .. } => WireCode::CostBudget,
        Overloaded::BreakerOpen { .. } => WireCode::BreakerOpen,
        Overloaded::Shed { .. } => WireCode::Shed,
        Overloaded::DeadlineExpired { .. } => WireCode::DeadlineExpired,
        Overloaded::PoolPressure { .. } => WireCode::PoolPressure,
    };
    let wire = WireError::retryable(code, err.to_string());
    if matches!(err, Overloaded::DeadlineExpired { .. }) {
        wire
    } else {
        wire.with_retry_after(hints.after_ms(streak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn err_line_round_trips() {
        let e = WireError::retryable(WireCode::QueueFull, "tenant `acme` queue full (8/8)")
            .with_retry_after(12);
        let line = e.encode();
        assert!(line.starts_with("ERR code=QUEUE_FULL retryable=1 retry_after_ms=12 msg="));
        assert_eq!(WireError::decode(&line), Some(e));

        let f = WireError::fatal(WireCode::Parse, "unexpected token");
        assert_eq!(WireError::decode(&f.encode()), Some(f));
    }

    #[test]
    fn messages_are_single_line() {
        let e = WireError::fatal(WireCode::BadRequest, "line one\nline two");
        assert!(!e.message.contains('\n'));
    }

    #[test]
    fn overloaded_mapping_covers_taxonomy_with_deterministic_hints() {
        let hints = RetryHints::new(BackoffConfig::default(), 3);
        let cases: Vec<(Overloaded, WireCode)> = vec![
            (
                Overloaded::QueueFull {
                    tenant: "t".into(),
                    depth: 8,
                    capacity: 8,
                },
                WireCode::QueueFull,
            ),
            (
                Overloaded::CostBudget {
                    cost: 4,
                    in_flight: 9,
                    budget: 10,
                },
                WireCode::CostBudget,
            ),
            (
                Overloaded::BreakerOpen {
                    resource: "mc".into(),
                },
                WireCode::BreakerOpen,
            ),
            (
                Overloaded::Shed {
                    tenant: "t".into(),
                    campaign: "c".into(),
                },
                WireCode::Shed,
            ),
            (
                Overloaded::PoolPressure {
                    pressure_pct: 91,
                    limit_pct: 75,
                },
                WireCode::PoolPressure,
            ),
        ];
        for (err, code) in cases {
            let w = overloaded_to_wire(&err, &hints, 1);
            assert_eq!(w.code, code);
            assert!(w.retryable);
            let again = overloaded_to_wire(&err, &hints, 1);
            assert_eq!(
                w.retry_after_ms, again.retry_after_ms,
                "hints must be deterministic"
            );
        }
        // Deadline expiry is retryable but carries no hint.
        let w = overloaded_to_wire(
            &Overloaded::DeadlineExpired {
                campaign: "c".into(),
            },
            &hints,
            1,
        );
        assert_eq!(w.code, WireCode::DeadlineExpired);
        assert_eq!(w.retry_after_ms, None);
        // Hints grow with the rejection streak.
        let h1 = hints.after_ms(1);
        let h4 = hints.after_ms(4);
        assert!(h4 >= h1, "ladder must not shrink: {h1} -> {h4}");
    }
}
