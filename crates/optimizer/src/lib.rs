//! Non-linear constrained optimization for repair problems.
//!
//! Model Repair and Data Repair reduce to small non-convex programs of the
//! form
//!
//! ```text
//! minimize    g(v)                     (perturbation cost, e.g. ‖v‖²)
//! subject to  fᵢ(v) ⋈ bᵢ               (the property's value at v, and
//!                                       probability validity rows)
//!             lo ≤ v ≤ hi              (parameter box)
//! ```
//!
//! The paper hands these to AMPL; this crate is the self-contained
//! replacement: a **quadratic-penalty method** with a projected-gradient
//! inner loop and deterministic multi-start. Objective and constraints are
//! plain value closures: the property constraint is an oracle that solves
//! (or model-checks) the candidate chain, so there is no closed form to
//! differentiate, and every merit gradient is taken by central differences
//! with Armijo backtracking. Infeasibility is reported when even the best
//! start cannot drive the violation below tolerance under the largest
//! penalty weight — which is exactly how the paper's "Model Repair gives
//! infeasible solution" outcome (X = 19) is detected.
//!
//! # Example
//!
//! Minimize `x² + y²` subject to `x + y ≥ 1`:
//!
//! ```
//! use tml_optimizer::{Nlp, ConstraintSense, PenaltySolver};
//!
//! # fn main() -> Result<(), tml_optimizer::OptimizerError> {
//! let mut nlp = Nlp::new(2, vec![(-2.0, 2.0), (-2.0, 2.0)])?;
//! nlp.objective(|x| x[0] * x[0] + x[1] * x[1]);
//! nlp.constraint("sum", ConstraintSense::Ge, 1.0, |x| x[0] + x[1]);
//! let sol = PenaltySolver::new().solve(&nlp)?;
//! assert!(sol.feasible);
//! assert!((sol.x[0] - 0.5).abs() < 1e-3);
//! assert!((sol.x[1] - 0.5).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod problem;
pub mod restart;
mod solver;

pub use error::OptimizerError;
pub use problem::{Constraint, ConstraintSense, Nlp, ViolationStats};
pub use solver::{PenaltyOptions, PenaltySolver, Solution};
// Budgets are part of the solver API surface.
pub use tml_numerics::{Budget, CancelToken, Diagnostics, Exhaustion};
