//! Property tests for the scheduler's resilience primitives: the backoff
//! ladder, the circuit-breaker state machine, saturating deadlines, and
//! cancellation reasons. These are the invariants the scheduler's
//! determinism contract (`run(1 thread)` ≡ `run(N threads)` on the
//! deterministic half of the ledger) silently relies on.

use mde_numeric::resilience::backoff::{Backoff, BackoffConfig};
use mde_numeric::resilience::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use mde_numeric::resilience::{CancelReason, CancelToken, Deadline};
use mde_numeric::rng::for_cases;
use std::time::Duration;

fn cfg(base_ms: u64, cap_ms: u64, jitter: f64) -> BackoffConfig {
    BackoffConfig {
        base: Duration::from_millis(base_ms),
        cap: Duration::from_millis(cap_ms),
        jitter,
    }
}

// ---------- backoff ladder ----------

/// The ladder is a pure function of (fingerprint, attempt): two
/// independently constructed ladders agree bit-for-bit, so any worker
/// thread recomputing a retry delay gets the same answer.
#[test]
fn backoff_is_deterministic_per_fingerprint() {
    for_cases(128, |rng| {
        let fp = rng.gen::<u64>();
        let base = rng.gen_range(1u64..100);
        let jitter = rng.gen_range(0.0f64..1.0);
        let attempt = rng.gen_range(0u32..40);
        let c = cfg(base, base * 64, jitter);
        let a = Backoff::new(c, fp).delay(attempt);
        let b = Backoff::new(c, fp).delay(attempt);
        assert_eq!(a, b);
    });
}

/// Attempt 0 (the initial dispatch) never waits, regardless of tuning.
#[test]
fn backoff_attempt_zero_is_free() {
    for_cases(128, |rng| {
        let fp = rng.gen::<u64>();
        let base = rng.gen_range(1u64..1000);
        let jitter = rng.gen_range(0.0f64..1.0);
        assert_eq!(
            Backoff::new(cfg(base, base * 8, jitter), fp).delay(0),
            Duration::ZERO
        );
    });
}

/// Every jittered delay stays inside [(1 - jitter) · raw, raw]: jitter
/// spreads synchronized retries but never pushes past the
/// deterministic envelope.
#[test]
fn backoff_jitter_stays_in_band() {
    for_cases(128, |rng| {
        let fp = rng.gen::<u64>();
        let base = rng.gen_range(1u64..100);
        let jitter = rng.gen_range(0.0f64..1.0);
        let attempt = rng.gen_range(1u32..40);
        let c = cfg(base, base * 64, jitter);
        let raw = c.raw_delay(attempt);
        let d = Backoff::new(c, fp).delay(attempt);
        let floor = raw.mul_f64(1.0 - jitter);
        assert!(d <= raw, "{d:?} above envelope {raw:?}");
        // One nanosecond of slack for the f64 round-trip in the scaler.
        assert!(
            d + Duration::from_nanos(1) >= floor,
            "{d:?} below jitter floor {floor:?}"
        );
    });
}

/// The unjittered envelope is monotone non-decreasing in the attempt
/// index and saturates at the cap — no overflow wraparound at large
/// attempts.
#[test]
fn backoff_envelope_is_monotone_and_capped() {
    for_cases(128, |rng| {
        let base = rng.gen_range(1u64..50);
        let cap_mult = rng.gen_range(1u64..128);
        let attempt = rng.gen_range(1u32..200);
        let c = cfg(base, base * cap_mult, 0.0);
        let here = c.raw_delay(attempt);
        let next = c.raw_delay(attempt + 1);
        assert!(next >= here, "envelope decreased: {here:?} -> {next:?}");
        assert!(here <= c.cap, "{here:?} above cap {:?}", c.cap);
        assert!(
            c.raw_delay(150) == c.cap,
            "deep attempts saturate at the cap"
        );
    });
}

/// Distinct fingerprints desynchronize: with meaningful jitter, at
/// least one attempt in a ladder pair differs (the whole point of
/// seeding jitter off the campaign identity).
#[test]
fn backoff_decorrelates_distinct_campaigns() {
    for_cases(128, |rng| {
        let fp = rng.gen::<u64>();
        let base = rng.gen_range(10u64..100);
        let c = cfg(base, base * 1024, 0.9);
        let a = Backoff::new(c, fp).schedule(12);
        let b = Backoff::new(c, fp ^ 0x9E37_79B9_7F4A_7C15).schedule(12);
        assert_ne!(a, b);
    });
}

// ---------- circuit breaker ----------

/// A streak of exactly `trip_after` retryable failures trips the
/// breaker; one fewer leaves it closed.
#[test]
fn breaker_trips_on_exact_streak() {
    for_cases(128, |rng| {
        let trip_after = rng.gen_range(1u32..20);
        let cooldown = rng.gen_range(1u32..10);
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after,
            cooldown,
        });
        for i in 0..trip_after - 1 {
            assert!(!b.on_failure(), "tripped early at failure {i}");
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.on_failure(), "streak of {trip_after} must trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    });
}

/// A success anywhere in the streak resets it: interleaved successes
/// keep the breaker closed forever.
#[test]
fn breaker_success_resets_streak() {
    for_cases(128, |rng| {
        let trip_after = rng.gen_range(2u32..20);
        let rounds = rng.gen_range(1u32..50);
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after,
            cooldown: 1,
        });
        for _ in 0..rounds {
            for _ in 0..trip_after - 1 {
                b.on_failure();
            }
            b.on_success();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    });
}

/// The open breaker serves exactly `cooldown` rejections, then
/// half-opens and admits a single probe whose outcome decides the next
/// state — close on success, immediate re-trip on failure.
#[test]
fn breaker_cooldown_and_probe_cycle() {
    for_cases(128, |rng| {
        let trip_after = rng.gen_range(1u32..10);
        let cooldown = rng.gen_range(1u32..10);
        let probe_succeeds = rng.gen::<bool>();
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after,
            cooldown,
        });
        for _ in 0..trip_after {
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Exactly `cooldown` rejected acquisitions are served while open.
        for i in 0..cooldown {
            assert!(!b.try_acquire(), "rejection {i} while serving cooldown");
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.try_acquire(), "half-open admits the probe");
        if probe_succeeds {
            b.on_success();
            assert_eq!(b.state(), BreakerState::Closed);
            assert_eq!(b.trips(), 1);
        } else {
            assert!(b.on_failure(), "failed probe re-trips");
            assert_eq!(b.state(), BreakerState::Open);
            assert_eq!(b.trips(), 2);
        }
    });
}

// ---------- saturating deadlines ----------

/// Deadline arithmetic saturates instead of panicking: any budget,
/// including extremes, yields a usable deadline whose expiry check is
/// consistent with the budget's sign.
#[test]
fn deadline_saturates_at_extremes() {
    for_cases(128, |rng| {
        let idx = rng.gen_range(0usize..5);
        let secs = [0u64, 1, 60, u64::MAX / 4, u64::MAX][idx];
        let d = Deadline::after(Duration::from_secs(secs));
        if secs == 0 {
            assert!(d.expired(), "zero budget expires immediately");
        } else {
            assert!(!d.expired(), "a {secs}s budget is not already spent");
        }
        match d.expires_at() {
            // Representable budget: remaining never exceeds it (no wrap).
            Some(_) => assert!(d.remaining() <= Duration::from_secs(secs)),
            // Overflowed budget: saturates to a never-expiring deadline.
            None => {
                assert!(!d.expired());
                assert_eq!(d.remaining(), Duration::MAX);
            }
        }
    });
}

// ---------- cancellation reasons (plain tests: no randomness needed) ----------

#[test]
fn cancel_reason_first_wins() {
    let t = CancelToken::new();
    assert_eq!(t.cancel_reason(), None);
    t.cancel_for(CancelReason::Shed);
    t.cancel_for(CancelReason::User);
    assert!(t.is_cancelled());
    assert_eq!(
        t.cancel_reason(),
        Some(CancelReason::Shed),
        "first reason sticks"
    );
}

#[test]
fn plain_cancel_reads_as_user_cancel() {
    let t = CancelToken::new();
    t.cancel();
    assert_eq!(t.cancel_reason(), Some(CancelReason::User));
}
