//! Dense and structured linear algebra.
//!
//! The paper's mathematics needs exactly three solvers, all provided here
//! from scratch:
//!
//! * a **tridiagonal (Thomas) solver** for the natural-cubic-spline system
//!   of §2.2 — the exact baseline that DSGD is compared against;
//! * **Cholesky** factorization for kriging covariance matrices (§4.1) and
//!   MSM weight matrices (§3.1);
//! * **ordinary least squares** for polynomial metamodels (§4.1) and the
//!   Figure 1 trend fit.

mod cholesky;
pub mod kernels;
mod matrix;
mod ols;
mod tridiagonal;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use ols::{ols, OlsFit};
pub use tridiagonal::Tridiagonal;
