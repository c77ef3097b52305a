//! Agent-based simulation substrate.
//!
//! The PODS 2014 survey grounds its model-data-ecosystem argument in
//! agent-based simulation (ABS) again and again; this crate implements
//! every ABS the paper leans on:
//!
//! * [`engine`] — a small synchronous-stepping core.
//! * [`traffic`] — Bonabeau's motivating example (§1): drivers that "slow
//!   down at certain rates when someone appears in front", "accelerate to
//!   a driver-dependent 'comfortable' speed when the road is clear", and
//!   "may switch lanes if they are open" — the Nagel–Schreckenberg model
//!   with lane changing, which "can accurately imitate traffic jams
//!   observed in the real world".
//! * [`schelling`] — Schelling's dynamic models of segregation \[48\], the
//!   historical root of ABS the paper cites.
//! * [`epidemic`] — an Indemics-style (§2.4) network epidemic engine:
//!   individuals as nodes with health/behavior/demographics, contact
//!   edges with duration/type, transition functions, and observation
//!   exports into `mde-mcdb` tables so that interventions are expressed
//!   as queries (the paper's Algorithm 1).
//! * [`market`] — the consumer-market ABS of §3.1 (Bonabeau's WSC 2013
//!   keynote): synthetic personas integrating disparate marketing
//!   datasets; doubles as the calibration target for `mde-calibrate`.
//! * [`rangequery`] — PDES-MAS-style (§2.4) shared state variables with a
//!   k-d tree answering instantaneous range queries ("all agents within
//!   one mile who are over 25").
//!
//! # Example: jams emerge from three driving rules
//!
//! ```
//! use mde_abs::engine::run_model;
//! use mde_abs::traffic::{TrafficConfig, TrafficModel};
//!
//! let mut road = TrafficModel::new(
//!     TrafficConfig { density: 0.5, ..TrafficConfig::default() }, 1);
//! let obs = run_model(&mut road, 200, 2);
//! let last = obs.last().unwrap();
//! // At this density the road is congested: standing queues exist even
//! // though no accident or bottleneck was modeled.
//! assert!(last.stopped_fraction > 0.2);
//! assert!(last.largest_jam >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod epidemic;
pub mod error;
pub mod market;
pub mod rangequery;
pub mod schelling;
pub mod traffic;
