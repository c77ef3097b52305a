//! Facade crate for the model-data-ecosystems workspace.
//!
//! Re-exports every member crate under one roof so workspace-level
//! integration tests and examples can use a single dependency. Library users
//! should depend on the individual `mde-*` crates instead.

#![forbid(unsafe_code)]

pub use mde_abs as abs;
pub use mde_assim as assim;
pub use mde_calibrate as calibrate;
pub use mde_core as core;
pub use mde_harmonize as harmonize;
pub use mde_mcdb as mcdb;
pub use mde_metamodel as metamodel;
pub use mde_numeric as numeric;
pub use mde_server as server;
pub use mde_simopt as simopt;
