//! Markov chains and Markov decision processes for trusted machine learning.
//!
//! This crate provides the modelling layer of the `trusted-ml` workspace:
//!
//! * [`Dtmc`] / [`DtmcBuilder`] — discrete-time Markov chains with state
//!   labels and named reward structures.
//! * [`Mdp`] / [`MdpBuilder`] — Markov decision processes whose states offer
//!   named action choices.
//! * [`DeterministicPolicy`] / [`StochasticPolicy`] — schedulers, and the
//!   DTMC induced by running an MDP under a policy.
//! * [`graph`] — qualitative precomputations (`Prob0`/`Prob1` for DTMCs and
//!   their four MDP variants) that exact PCTL model checking requires.
//! * [`Path`] and simulation — sampling trajectories from models.
//! * [`learn`] — maximum-likelihood estimation of transition probabilities
//!   from trace datasets, the `ML(D)` procedure of the TML pipeline.
//! * [`interval`] — interval DTMCs/MDPs whose transitions carry `[lo, hi]`
//!   probability bounds, calibrated from trace counts for robust checking.
//!
//! # Example
//!
//! Build a "try until success" chain:
//!
//! ```
//! use tml_models::DtmcBuilder;
//!
//! # fn main() -> Result<(), tml_models::ModelError> {
//! let mut b = DtmcBuilder::new(2);
//! b.transition(0, 0, 0.1)?;
//! b.transition(0, 1, 0.9)?;
//! b.transition(1, 1, 1.0)?;
//! b.label(1, "done")?;
//! b.state_reward("attempts", 0, 1.0)?;
//! let chain = b.build()?;
//! assert_eq!(chain.num_states(), 2);
//! assert!(chain.labeling().has(1, "done"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
mod dtmc;
mod error;
pub mod graph;
pub mod interval;
mod label;
pub mod learn;
mod mdp;
mod path;
mod policy;
mod reward;

pub use dtmc::{Dtmc, DtmcBuilder};
pub use error::ModelError;
pub use interval::{
    IntervalChoice, IntervalDtmc, IntervalDtmcBuilder, IntervalMdp, IntervalMdpBuilder,
};
pub use label::Labeling;
pub use learn::{TraceCounts, TraceDataset, WeightedTrace};
pub use mdp::{Choice, Mdp, MdpBuilder};
pub use path::Path;
pub use policy::{DeterministicPolicy, StochasticPolicy};
pub use reward::RewardStructure;

/// Tolerance used when validating that outgoing probabilities sum to one.
pub const STOCHASTIC_TOLERANCE: f64 = 1e-9;
