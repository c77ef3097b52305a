//! Numeric substrate for the model-data ecosystems toolkit.
//!
//! Every other crate in the workspace builds on this one. It provides the
//! mathematical machinery that Haas's PODS 2014 survey leans on implicitly:
//!
//! * [`rng`] — reproducible, splittable random-number streams so that
//!   parallel Monte Carlo work (MCDB replicates, DSGD strata, particle
//!   filters) is deterministic given a seed.
//! * [`dist`] — univariate probability distributions with sampling and,
//!   where closed forms exist, pdf/cdf/quantile functions. These back the
//!   VG-function library of the Monte Carlo database, the sensor model of
//!   the wildfire assimilator, and the calibration test beds.
//! * [`stats`] — streaming summary statistics (Welford), covariance,
//!   empirical quantiles, confidence intervals, and the small time-series
//!   toolkit used by the Figure 1 extrapolation experiment.
//! * [`linalg`] — dense matrices with the Cholesky factorization, a Thomas
//!   tridiagonal solver (the cubic-spline system of §2.2), and ordinary
//!   least squares (polynomial metamodels of §4.1).
//! * [`kde`] — kernel density estimation with the kernels discussed in
//!   §3.2 (Gaussian, Laplacian `e^{-|x|}`, Epanechnikov) and standard
//!   bandwidth rules, used by the sensor-aware particle-filter proposal.
//! * [`resilience`] — the failure vocabulary of the supervised execution
//!   runtime: error-severity classification, run policies (fail-fast /
//!   retry / best-effort), deterministic retry-seed derivation, run
//!   reports, and the fault injector used by the workspace test suites.
//!   It lives here, at the bottom of the dependency graph, so every
//!   execution layer (Monte Carlo queries, composite plans, particle
//!   filters) can speak it; `mde-core` re-exports it as the public API.
//! * [`obs`] — the observability substrate: span-style structured
//!   tracing with pluggable sinks, lock-free counters/gauges, mergeable
//!   log-linear histograms, and the per-run [`RunMetrics`]
//!   ledger attached to every [`RunReport`] — deterministic metric values
//!   (bit-identical across thread counts and checkpoint/resume) with
//!   wall-clock measurements carried out-of-band.
//! * [`checkpoint`] — durable-campaign persistence: the serializable
//!   [`CampaignState`] with its crash-consistent on-disk codec and the
//!   seed/spec [`Fingerprint`] that guards resumption, shared by every
//!   surface that supports checkpoint/resume, deadlines, and
//!   cancellation.
//! * [`codec`] — the one byte codec under every file the workspace
//!   writes (checkpoints, cache images, `mde-mcdb`'s paged tables): the
//!   little-endian writers, a bounds-checked [`Cursor`](codec::Cursor)
//!   that fails with its caller's error, and the `fnv1a` / `checksum64`
//!   checksums.
//! * [`cache`] — the content-addressed cross-campaign result cache
//!   (§2.3 result caching): completed runs keyed by spec fingerprint,
//!   parameter point, replicate count, and seed, persisted in the
//!   `MDECACHE2` format (one sealed segment appended per persist, the
//!   crash window the last segment, compacted when dead bytes exceed live
//!   ones; `MDECACHE1` files are read, never written) with LRU bounds and
//!   per-entry provenance, so revisited parameter points cost a lookup
//!   instead of a Monte Carlo campaign.
//!
//! The crate depends on no other crate: the paper's systems are
//! reproduced from scratch, so the numeric layer is too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod codec;
pub mod dist;
pub mod error;
pub mod kde;
pub mod linalg;
pub mod obs;
pub mod optim;
pub mod resilience;
pub mod rng;
pub mod stats;

pub use cache::{
    CacheEntry, CacheError, CacheHandle, CacheKey, CacheStats, ObjectiveScope, Provenance,
    ResultCache,
};
pub use checkpoint::{write_atomic, CampaignState, CheckpointError, Fingerprint, SaveStats};
pub use error::NumericError;
pub use obs::{Counter, Gauge, Histogram, RunMetrics, Span, TraceSink, Tracer};
pub use resilience::backoff::{Backoff, BackoffConfig};
pub use resilience::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use resilience::sched::{
    Campaign, CampaignCtl, CampaignError, CampaignOutput, CampaignStep, Overloaded, Priority,
};
pub use resilience::{
    BoundaryError, CancelReason, CancelToken, CheckpointSpec, Deadline, ErrorClass, RunPolicy,
    RunReport, Severity, StopCause,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumericError>;
