//! # trusted-ml
//!
//! Trusted Machine Learning for Markov Decision Processes: **model repair**,
//! **data repair** and **reward repair** under logical (PCTL / trajectory)
//! constraints — a from-scratch Rust reproduction of the DSN 2018 paper
//! *"Model, Data and Reward Repair: Trusted Machine Learning for Markov
//! Decision Processes"* (Ghosh, Jha, Tiwari, Lincoln, Zhu).
//!
//! This façade crate re-exports the workspace crates under stable module
//! names so downstream users can depend on a single crate:
//!
//! | module | contents |
//! |---|---|
//! | [`numerics`] | dense/sparse linear algebra, generic-field solvers |
//! | [`models`] | DTMCs, MDPs, policies, simulation, maximum-likelihood learning |
//! | [`logic`] | PCTL and finite-trace rule logics (syntax + parser) |
//! | [`checker`] | PCTL model checking for DTMCs and MDPs |
//! | [`parametric`] | rational functions + parametric model checking |
//! | [`optimizer`] | non-linear constrained optimization |
//! | [`irl`] | maximum-entropy inverse reinforcement learning |
//! | [`repair`] | the paper's contribution: Model / Data / Reward repair + TML pipeline |
//! | [`runtime`] | crash-consistent batch repair: isolation, retries, journaled resume (see DESIGN.md §11) |
//! | [`telemetry`] | structured tracing, metrics and profiling hooks (see DESIGN.md §9) |
//! | `conformance` | seeded simulation, model generators, differential oracle (feature `test-support`; see DESIGN.md §10) |
//! | [`wsn`] | wireless-sensor-network query-routing case study |
//! | [`car`] | autonomous-car obstacle-avoidance case study |
//!
//! # Quickstart
//!
//! Verify a PCTL property on a tiny Markov chain and repair it when it fails:
//!
//! ```
//! use trusted_ml::models::DtmcBuilder;
//! use trusted_ml::logic::parse_formula;
//! use trusted_ml::checker::Checker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-state chain: from `try` we succeed with probability 0.8.
//! let mut b = DtmcBuilder::new(2);
//! b.transition(0, 0, 0.2)?;
//! b.transition(0, 1, 0.8)?;
//! b.transition(1, 1, 1.0)?;
//! b.label(1, "done")?;
//! let dtmc = b.build()?;
//!
//! let phi = parse_formula("P>=0.99 [ F \"done\" ]")?;
//! let result = Checker::new().check(&dtmc, &phi)?;
//! assert!(result.holds_in(0)); // eventually done almost surely
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use tml_car as car;
pub use tml_checker as checker;
#[cfg(feature = "test-support")]
pub use tml_conformance as conformance;
pub use tml_core as repair;
pub use tml_irl as irl;
pub use tml_logic as logic;
pub use tml_models as models;
pub use tml_numerics as numerics;
pub use tml_optimizer as optimizer;
pub use tml_parametric as parametric;
pub use tml_runtime as runtime;
pub use tml_telemetry as telemetry;
pub use tml_wsn as wsn;
