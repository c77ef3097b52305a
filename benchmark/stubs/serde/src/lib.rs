//! Offline stand-in for `serde`: marker traits plus derives that emit
//! nothing, enough for `use serde::{Deserialize, Serialize}` and
//! `#[derive(Serialize, Deserialize)]` to compile.

pub use serde_derive::{Deserialize, Serialize};

/// Marker; the stand-in derives implement nothing.
pub trait Serialize {}

/// Marker; the stand-in derives implement nothing.
pub trait Deserialize<'de> {}
