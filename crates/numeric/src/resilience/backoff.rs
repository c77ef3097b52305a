//! Deterministic retry backoff: exponential delay with seeded jitter.
//!
//! A retry ladder must be reproducible for the same reason retry *seeds*
//! are ([`super::retry_seed`]): the scheduler promises sequential ≡
//! parallel at any thread count, and a retry schedule that depended on
//! wall-clock or thread timing would leak nondeterminism into dispatch
//! order and the obs ledger. So the delay for attempt `a` of a campaign is a
//! pure function of the campaign's
//! [`Fingerprint`](crate::checkpoint::Fingerprint) value and `a`: exponential growth capped at `cap`, then jittered
//! *downward* within `[(1 - jitter) · raw, raw]` by a SplitMix64 draw.
//! Jittering down (decorrelated from other campaigns by the fingerprint)
//! preserves the monotone cap — the jittered delay never exceeds the
//! deterministic envelope — while still spreading synchronized retries.

use crate::rng::splitmix64;
use std::time::Duration;

/// Salt separating backoff draws from the retry-seed and stream-seed
/// families derived from the same fingerprint.
const BACKOFF_SALT: u64 = 0xBAC0_FF5A_17D3_7A1E;

/// Shape of an exponential-backoff ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the first retry (attempt 1). Attempt 0 is the initial
    /// dispatch and never waits.
    pub base: Duration,
    /// Upper envelope: raw delays grow as `base · 2^(attempt-1)` and
    /// saturate here.
    pub cap: Duration,
    /// Fraction of the raw delay subject to jitter, in `[0, 1]`: the
    /// jittered delay lies in `[(1 - jitter) · raw, raw]`. Zero disables
    /// jitter.
    pub jitter: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(5),
            jitter: 0.5,
        }
    }
}

impl BackoffConfig {
    /// The deterministic (unjittered) envelope for `attempt` (1-based:
    /// attempt 0 is the initial dispatch and waits zero). Saturating in
    /// both the shift and the cap.
    pub fn raw_delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = (attempt - 1).min(63);
        let factor = 1u128 << exp;
        let nanos = (self.base.as_nanos().saturating_mul(factor)).min(self.cap.as_nanos());
        nanos_to_duration(nanos)
    }

    /// The jittered delay for `attempt` of the campaign identified by
    /// `fingerprint` — a pure function of `(fingerprint, attempt)`, so the
    /// schedule is bit-identical no matter which worker thread computes
    /// it, and distinct campaigns desynchronize.
    pub fn delay(&self, fingerprint: u64, attempt: u32) -> Duration {
        let raw = self.raw_delay(attempt);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if attempt == 0 || jitter == 0.0 || raw.is_zero() {
            return raw;
        }
        let draw = splitmix64(splitmix64(fingerprint ^ BACKOFF_SALT).wrapping_add(attempt as u64));
        // 53-bit uniform fraction in [0, 1).
        let u = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let scale = 1.0 - jitter * u;
        nanos_to_duration((raw.as_nanos() as f64 * scale) as u128)
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    let secs = (nanos / 1_000_000_000) as u64;
    let sub = (nanos % 1_000_000_000) as u32;
    Duration::new(secs, sub)
}

/// A campaign-bound backoff ladder: [`BackoffConfig`] plus the campaign's
/// fingerprint value, handed to the dispatch loop so it only ever asks
/// "how long before attempt `a`?".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    cfg: BackoffConfig,
    fingerprint: u64,
}

impl Backoff {
    /// Bind `cfg` to the campaign identified by `fingerprint`.
    pub fn new(cfg: BackoffConfig, fingerprint: u64) -> Self {
        Backoff { cfg, fingerprint }
    }

    /// The delay before `attempt` (0 for the initial dispatch).
    pub fn delay(&self, attempt: u32) -> Duration {
        self.cfg.delay(self.fingerprint, attempt)
    }

    /// The full schedule for attempts `0..n` — what the chaos harness
    /// compares bit-for-bit across worker-thread counts.
    pub fn schedule(&self, n: u32) -> Vec<Duration> {
        (0..n).map(|a| self.delay(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_never_waits() {
        let cfg = BackoffConfig::default();
        assert_eq!(cfg.raw_delay(0), Duration::ZERO);
        assert_eq!(cfg.delay(99, 0), Duration::ZERO);
    }

    #[test]
    fn raw_delays_double_then_saturate() {
        let cfg = BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(75),
            jitter: 0.0,
        };
        assert_eq!(cfg.raw_delay(1), Duration::from_millis(10));
        assert_eq!(cfg.raw_delay(2), Duration::from_millis(20));
        assert_eq!(cfg.raw_delay(3), Duration::from_millis(40));
        assert_eq!(cfg.raw_delay(4), Duration::from_millis(75));
        assert_eq!(cfg.raw_delay(64), Duration::from_millis(75));
        // Huge attempt numbers saturate instead of overflowing the shift.
        assert_eq!(cfg.raw_delay(u32::MAX), Duration::from_millis(75));
    }

    #[test]
    fn jitter_stays_inside_the_band() {
        let cfg = BackoffConfig {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(10),
            jitter: 0.5,
        };
        for fp in [1u64, 99, 0xDEAD_BEEF] {
            for a in 1..12u32 {
                let raw = cfg.raw_delay(a);
                let d = cfg.delay(fp, a);
                assert!(d <= raw, "jittered delay exceeds the envelope");
                let floor = Duration::from_secs_f64(raw.as_secs_f64() * 0.5 * 0.999);
                assert!(
                    d >= floor,
                    "jittered delay {d:?} below band for raw {raw:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_per_fingerprint() {
        let cfg = BackoffConfig::default();
        let a = Backoff::new(cfg, 42).schedule(8);
        let b = Backoff::new(cfg, 42).schedule(8);
        assert_eq!(a, b);
        let c = Backoff::new(cfg, 43).schedule(8);
        assert_ne!(a, c, "distinct campaigns desynchronize");
    }

    #[test]
    fn zero_jitter_reproduces_the_raw_ladder() {
        let cfg = BackoffConfig {
            jitter: 0.0,
            ..BackoffConfig::default()
        };
        for a in 0..10 {
            assert_eq!(cfg.delay(7, a), cfg.raw_delay(a));
        }
    }
}
