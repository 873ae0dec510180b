//! Dense and sparse linear algebra with generic-field solvers.
//!
//! This crate is the numeric substrate of the `trusted-ml` workspace. It
//! provides exactly the kernels a probabilistic model checker needs:
//!
//! * [`Field`] — an abstraction over the scalars that linear solvers operate
//!   on. It is implemented for `f64` here and for symbolic rational
//!   functions in the `tml-parametric` crate, which is how the same
//!   Gaussian-elimination routine doubles as a *parametric* model-checking
//!   engine (state elimination in matrix form).
//! * [`DenseMatrix`] — a small row-major dense matrix over any [`Field`].
//! * [`CsrMatrix`] — compressed sparse row matrix over `f64` for large
//!   transition systems.
//! * [`solve`] — direct solvers (Gaussian elimination with partial
//!   pivoting) over any [`Field`].
//! * [`iterative`] — Gauss–Seidel and power-iteration style solvers for
//!   fixed-point equations `x = A x + b`, the workhorse of value iteration.
//! * [`scc`] — Tarjan condensation of the transition graph and
//!   block-decomposed solves: components are processed in dependency
//!   order, trivial components by closed-form back-substitution.
//! * [`interval`] — two-sided (interval) iteration that brackets the
//!   fixed point with sound lower/upper bounds.
//! * [`stats`] — Wilson/Hoeffding confidence intervals shared by the
//!   conformance simulator and the interval-model learner.
//!
//! # Example
//!
//! Solve a 2×2 linear system:
//!
//! ```
//! use tml_numerics::{DenseMatrix, solve::solve_dense};
//!
//! # fn main() -> Result<(), tml_numerics::NumericsError> {
//! let a = DenseMatrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]])?;
//! let x = solve_dense(&a, &[3.0, 5.0])?;
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod dense;
mod error;
mod field;
pub mod interval;
pub mod iterative;
pub mod scc;
pub mod solve;
mod sparse;
pub mod stats;
pub mod vector;

pub use budget::{Budget, CancelToken, Diagnostics, Exhaustion};
pub use dense::DenseMatrix;
pub use error::NumericsError;
pub use field::Field;
pub use sparse::{CsrMatrix, Triplet};
