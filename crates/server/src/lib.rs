//! # mde-server — fault-isolated service front-end
//!
//! A multi-session network front-end over the toolkit's SQL + Monte
//! Carlo surface, built so that *clients* — however broken, slow, or
//! hostile to their own connections — can only ever hurt themselves:
//!
//! * **Framing** ([`proto`]): length-prefixed UTF-8 frames with typed
//!   violations (torn, oversized, empty, non-UTF-8) and a read deadline
//!   that bounds slow-loris clients.
//! * **Sessions** ([`session`]): one supervised worker per connection.
//!   A panicking request — organic or chaos-injected — becomes a typed
//!   `ERR PANIC` reply and kills that session only; the accept loop and
//!   every other session keep running.
//! * **Deadline propagation**: wire-supplied deadlines are validated at
//!   parse time (zero/overflow are typed protocol errors) and map onto
//!   [`Deadline`](mde_numeric::Deadline) /
//!   [`CancelToken`](mde_numeric::CancelToken); a client disconnect
//!   cancels its in-flight request cooperatively at the next replicate
//!   boundary, persisting any configured checkpoint.
//! * **Shared state** ([`cache`], [`session::Engine`]): catalog
//!   snapshots behind `Arc` swaps (readers never block on DDL) and a
//!   prepared-plan cache keyed by catalog schema fingerprint.
//! * **Admission** ([`campaigns`]): campaigns from every session fund a
//!   single scheduler; typed [`Overloaded`](mde_numeric::Overloaded)
//!   rejections surface as retryable wire errors with deterministic
//!   backoff hints.
//! * **Graceful drain** ([`server`]): stop accepting, cancel in-flight
//!   work at boundaries, checkpoint, flush orphaned campaigns, exit
//!   with an accounting [`DrainReport`].
//! * **Chaos** ([`chaos`]): wire-level fault injection — slow-loris,
//!   torn frames, mid-frame disconnects, session panics — driven by the
//!   chaos harness to assert every fault lands as a typed error or
//!   clean degradation, never a wrong answer or a hung accept loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod campaigns;
pub mod chaos;
pub mod client;
pub mod error;
pub mod proto;
pub mod server;
pub mod session;

pub use cache::{CacheStats, PlanCache};
pub use campaigns::CampaignHub;
pub use chaos::WireFaultPlan;
pub use client::{Client, Reply};
pub use error::{overloaded_to_wire, RetryHints, WireCode, WireError};
pub use proto::{FrameError, ReadFrame, Request, MAX_DEADLINE_MS, MAX_FRAME_LEN, MAX_REPLICATES};
pub use server::{DrainReport, Server, ServerConfig};
