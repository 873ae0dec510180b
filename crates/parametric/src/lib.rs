//! Parametric probabilistic model checking.
//!
//! This crate implements the machinery behind Propositions 2 and 3 of the
//! paper: reducing a PCTL constraint on a *parametric* Markov chain to a
//! closed-form **rational function** `f(v)` of the parameters. Model Repair
//! and Data Repair bound it over parameter regions (parameter lifting,
//! [`RegionSolver`]); their optimizer takes its constraint values from a
//! compiled oracle instead, since `f64` elimination leaves high-degree
//! closed forms numerically fragile at a point.
//!
//! The pipeline:
//!
//! 1. Represent perturbed transition probabilities as [`RationalFunction`]s
//!    over the repair parameters (built from sparse multivariate
//!    [`Polynomial`]s).
//! 2. Build a [`ParametricDtmc`] whose rows sum to one *identically* in the
//!    parameters.
//! 3. Run [`ParametricDtmc::reachability`] or
//!    [`ParametricDtmc::expected_reward`]: symbolic Gaussian elimination
//!    over the field of rational functions — the matrix formulation of the
//!    classic state-elimination algorithm (Daws; PARAM; PRISM's parametric
//!    engine).
//!
//! The qualitative (`Prob0`/`Prob1`) classification depends only on the
//! support graph, so it is computed once and is valid for every parameter
//! instantiation that preserves the support — the same *well-defined
//! region* assumption PARAM makes.
//!
//! # Example
//!
//! A two-state chain that succeeds with probability `0.9 + v`:
//!
//! ```
//! use tml_parametric::{ParametricDtmc, Polynomial, RationalFunction};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = vec!["v".to_string()];
//! let v = RationalFunction::var(1, 0);
//! let c = |x: f64| RationalFunction::constant(1, x);
//!
//! let mut b = ParametricDtmc::builder(2, params);
//! b.transition(0, 1, c(0.9).add(&v))?;          // succeed
//! b.transition(0, 0, c(0.1).sub(&v))?;          // retry
//! b.transition(1, 1, c(1.0))?;
//! b.label(1, "done")?;
//! let pdtmc = b.build()?;
//!
//! let target = pdtmc.labeling().mask("done");
//! let reach = pdtmc.reachability(&target)?;
//! // From state 0 the chain reaches "done" with probability 1 for every
//! // parameter value in the well-defined region.
//! let f = &reach[0];
//! assert!((f.eval(&[0.05])? - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod error;
pub mod lifting;
mod pdtmc;
mod poly;
mod ratfn;

pub use compiled::{CompiledConstraintSet, CompiledPoly, CompiledRatFn, EntryValues};
pub use error::ParametricError;
pub use lifting::{
    BoundSense, ClassifiedBox, Interval, LiftingOptions, LiftingOutcome, OptimalityCertificate,
    RegionProblem, RegionRow, RegionSolver, RegionVerdict,
};
pub use pdtmc::{ParametricDtmc, ParametricDtmcBuilder};
pub use poly::Polynomial;
pub use ratfn::RationalFunction;
