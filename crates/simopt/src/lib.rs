//! Optimizing simulation runs — §2.3 of Haas, *Model-Data Ecosystems*
//! (PODS 2014), which presents the result-caching (RC) technique of Haas
//! (2014, "Improving the efficiency of stochastic composite simulation
//! models via result caching").
//!
//! The setting (the paper's Figure 2): a composite model `M = M₂ ∘ M₁`
//! where `M₁` writes a random output `Y₁` to disk and `M₂` consumes it,
//! producing `Y₂ ~ F₂(· | Y₁)`. The goal is to estimate `θ = E[Y₂]` with
//! maximal *asymptotic efficiency* `1/g(α)` under a compute budget, where
//! `α` is the **replication fraction**: for `n` runs of `M₂`, only
//! `m_n = ⌈αn⌉` runs of `M₁` execute and their cached outputs are reused
//! by **deterministic cycling** (a stratified reuse pattern that minimizes
//! estimator variance).
//!
//! | module | paper concept |
//! |---|---|
//! | [`component`] | stochastic component models and the two-model series composite |
//! | [`rc`] | the RC execution strategy with deterministic cycling |
//! | [`efficiency`] | `g(α)`, `g̃(α)`, the closed-form `α*`, asymptotic efficiency |
//! | [`pilot`] | pilot-run estimation of 𝒮 = (c₁, c₂, V₁, V₂) and the metadata store |
//! | [`budget`] | budget-constrained execution `N(c) = sup{n : C_n ≤ c}` |
//! | [`chain`] | nested caching for 3-stage chains (the paper's open question) |
//!
//! # Example: pick α* and run under a budget
//!
//! ```
//! use mde_simopt::{optimal_alpha, Statistics};
//! use mde_simopt::budget::n_max;
//!
//! // Pilot-estimated statistics: M1 is 10x as expensive, half the output
//! // variance comes through the shared input.
//! let stats = Statistics { c1: 10.0, c2: 1.0, v1: 2.0, v2: 1.0 };
//! let alpha = optimal_alpha(&stats, 10_000);
//! assert!((alpha - 0.3162).abs() < 1e-3);
//! // Under a budget of 1000 cost units, caching affords 2.4x the
//! // downstream replications of the naive strategy.
//! assert_eq!(n_max(1000.0, alpha, 10.0, 1.0).unwrap(), 240);
//! assert_eq!(n_max(1000.0, 1.0, 10.0, 1.0).unwrap(), 90);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod chain;
pub mod component;
pub mod efficiency;
pub mod error;
pub mod pilot;
pub mod rc;

pub use component::{FnModel, SeriesComposite, StochModel};
pub use efficiency::{asymptotic_efficiency, g_exact, g_tilde, optimal_alpha, Statistics};
pub use error::SimoptError;
pub use pilot::{MetadataStore, PilotConfig};
pub use rc::{RcConfig, RcEstimate};
