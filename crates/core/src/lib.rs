//! Trusted Machine Learning for Markov decision processes: **Model
//! Repair**, **Data Repair** and **Reward Repair** under logical
//! constraints.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*"Model, Data and Reward Repair: Trusted Machine Learning for Markov
//! Decision Processes"*, DSN 2018). Given a model `M = ML(D)` learned from
//! data and a property `φ` (PCTL over states, or LTL rules over finite
//! trajectories), it makes the model satisfy `φ` by the cheapest admissible
//! change:
//!
//! | repair | what changes | feasible set | machinery |
//! |---|---|---|---|
//! | [`ModelRepair`] | transition probabilities `P` | same-support perturbations `P + Z` (Def. 1) | parametric model checking → rational constraint → NLP |
//! | [`DataRepair`] | the dataset `D` | per-class keep-weights (Def. 3, machine teaching) | ML estimate as rational function of weights → NLP |
//! | [`RewardRepair`] | the reward `R` | trajectory-distribution projection / Q-constraints (Def. 2) | posterior regularization (Prop. 4) or direct NLP over `θ` |
//!
//! The [`pipeline::TmlPipeline`] chains them in the order the paper
//! prescribes (§II): *learn → verify → Model Repair → Data Repair →
//! report*.
//!
//! # Example: repairing a faulty chain
//!
//! ```
//! use tml_models::DtmcBuilder;
//! use tml_logic::parse_formula;
//! use tml_core::{ModelRepair, PerturbationTemplate, RepairStatus};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A channel that succeeds with probability 0.8 — but the spec wants
//! // eventual success with probability ≥ 0.9 before the deadline state.
//! let mut b = DtmcBuilder::new(3);
//! b.transition(0, 1, 0.8)?; // success
//! b.transition(0, 2, 0.2)?; // deadline missed
//! b.transition(1, 1, 1.0)?;
//! b.transition(2, 2, 1.0)?;
//! b.label(1, "ok")?;
//! let chain = b.build()?;
//! let phi = parse_formula("P>=0.9 [ F \"ok\" ]")?;
//!
//! // Allow shifting mass between the two outgoing edges of state 0.
//! let mut template = PerturbationTemplate::new();
//! let v = template.parameter("v", -0.15, 0.15);
//! template.nudge(0, 1, v, 1.0)?;  // p(0→1) += v
//! template.nudge(0, 2, v, -1.0)?; // p(0→2) -= v
//!
//! let outcome = ModelRepair::new().repair_dtmc(&chain, &phi, &template)?;
//! assert_eq!(outcome.status, RepairStatus::Repaired);
//! let repaired = outcome.model.unwrap();
//! assert!(repaired.probability(0, 1) >= 0.9 - 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisimulation;
mod constraint;
mod data_repair;
mod driver;
mod error;
mod model_repair;
mod oracle;
pub mod pipeline;
mod reward_repair;
mod template;

pub use bisimulation::{perturbation_epsilon, reachability_deviation};
pub use constraint::propositional_mask;
pub use data_repair::{DataRepair, DataRepairOutcome, ModelSpec};
pub use error::RepairError;
pub use model_repair::{MdpPerturbationTemplate, ModelRepair, ModelRepairOutcome, RepairStatus};
pub use oracle::CompiledOracle;
pub use reward_repair::{
    enumerate_trajectories, project_distribution, sample_trajectories, trajectory_log_weight,
    MdpTraceView, QConstraint, QConstraintOutcome, RewardRepair, RewardRepairOutcome, WeightedRule,
};
pub use template::{LinearExpr, PerturbationTemplate};
// Budgets bound every repair; re-exported so callers need not depend on
// tml-numerics directly.
pub use tml_numerics::{Budget, CancelToken, Diagnostics, Exhaustion};
// Parameter-lifting vocabulary used by `RepairOptions` and the outcome
// certificates; re-exported so callers need not depend on tml-parametric.
pub use tml_parametric::{LiftingOptions, OptimalityCertificate};

/// Which search drives the repair optimization over the perturbation box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairStrategy {
    /// The paper's local search: deterministic multi-start quadratic
    /// penalty over the whole box.
    #[default]
    Penalty,
    /// Parameter lifting (Model Repair Revamped): branch-and-refine region
    /// verification soundly prunes all-violating parameter regions, then
    /// warm-starts the penalty solver on the surviving near-optimal boxes
    /// and emits an [`OptimalityCertificate`]. Requires the symbolic
    /// constraint path; degrades to pure penalty otherwise (recorded as a
    /// diagnostics fallback) or on budget exhaustion mid-refinement.
    Lifting,
    /// [`RepairStrategy::Lifting`] when the property compiles symbolically,
    /// [`RepairStrategy::Penalty`] otherwise — without recording the
    /// degradation as a fallback.
    Auto,
}

/// Confidence-calibrated robustness for Model and Data Repair: instead of
/// making the point-estimate model satisfy `φ`, the repair must make **every
/// model in the Wilson uncertainty ball** around the candidate satisfy it
/// (the pessimistic robust value passes the bound).
///
/// `confidence` is the per-transition coverage level of the Wilson score
/// intervals (e.g. `0.95`); `sample_size` is the effective number of
/// observations behind each transition estimate — Model Repair has no
/// dataset to read it from, so the caller states how much evidence the
/// learned probabilities carry (Data Repair derives counts from the actual
/// re-weighted dataset and ignores this field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustSpec {
    /// Wilson interval confidence level, in `(0, 1)`.
    pub confidence: f64,
    /// Effective sample size behind each transition estimate (> 0).
    pub sample_size: f64,
}

impl RobustSpec {
    /// A spec at `confidence` with the default effective sample size (100).
    pub fn new(confidence: f64) -> Self {
        RobustSpec { confidence, sample_size: 100.0 }
    }

    pub(crate) fn validate(&self) -> Result<(), RepairError> {
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(RepairError::InvalidInput {
                detail: format!("robust confidence {} outside (0, 1)", self.confidence),
            });
        }
        if !(self.sample_size > 0.0 && self.sample_size.is_finite()) {
            return Err(RepairError::InvalidInput {
                detail: format!("robust sample size {} must be positive", self.sample_size),
            });
        }
        Ok(())
    }
}

impl Default for RobustSpec {
    fn default() -> Self {
        RobustSpec::new(0.95)
    }
}

/// Options shared by the repair algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairOptions {
    /// Margin used to approximate strict inequalities (`P > b` is enforced
    /// as `P ≥ b + margin`).
    pub strict_margin: f64,
    /// Margin kept between perturbed probabilities and the ends of `[0,1]`
    /// so the transition support never changes (Def. 1's feasibility class).
    pub support_margin: f64,
    /// Checker options used for verification of repaired models.
    pub check: tml_checker::CheckOptions,
    /// Optimizer options.
    pub solver: tml_optimizer::PenaltyOptions,
    /// Which search strategy to run (default: pure penalty).
    pub strategy: RepairStrategy,
    /// Region-solver options used by [`RepairStrategy::Lifting`] /
    /// [`RepairStrategy::Auto`].
    pub lifting: LiftingOptions,
    /// When set, repairs are *robust*: the property must hold for every
    /// member of the confidence-calibrated uncertainty ball around the
    /// candidate model, verified by robust value iteration. The property
    /// oracle then checks the candidate's ball; region lifting (whose
    /// rational function gives nominal, not worst-case, values) is skipped,
    /// so [`RepairStrategy::Lifting`] degrades to penalty search with a
    /// recorded fallback.
    pub robust: Option<RobustSpec>,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            strict_margin: 1e-6,
            support_margin: 1e-6,
            check: tml_checker::CheckOptions::default(),
            solver: tml_optimizer::PenaltyOptions::default(),
            strategy: RepairStrategy::default(),
            lifting: LiftingOptions::default(),
            robust: None,
        }
    }
}
