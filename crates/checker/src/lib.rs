//! Exact PCTL model checking for discrete-time Markov chains and Markov
//! decision processes, and robust checking of their interval models.
//!
//! The checking pipeline mirrors PRISM's explicit engine:
//!
//! 1. **Qualitative precomputation** — classify states whose probability is
//!    exactly 0 or 1 using the graph algorithms of `tml_models::graph`.
//! 2. **Quantitative solution** — solve a linear system (DTMC, via direct
//!    Gaussian elimination or Gauss–Seidel) or run value iteration over
//!    schedulers (MDP) on the remaining "maybe" states.
//!
//! One front end serves all four model kinds ([`Checkable`]: `Dtmc`,
//! `Mdp`, `IntervalDtmc`, `IntervalMdp`): boolean *verification* through
//! [`Checker::check`] and numeric *queries* (`P=?`, `Rmax=?`, …) through
//! [`Checker::query`]. Nominal kinds answer with one value per state,
//! interval kinds with a [`RobustBracket`].
//!
//! # Example
//!
//! ```
//! use tml_models::DtmcBuilder;
//! use tml_logic::parse_formula;
//! use tml_checker::Checker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A gambler doubles or loses: from `bet`, win 0.3 / lose 0.7.
//! let mut b = DtmcBuilder::new(3);
//! b.transition(0, 1, 0.3)?;
//! b.transition(0, 2, 0.7)?;
//! b.transition(1, 1, 1.0)?;
//! b.transition(2, 2, 1.0)?;
//! b.label(1, "rich")?;
//! let chain = b.build()?;
//!
//! let phi = parse_formula("P>=0.25 [ F \"rich\" ]")?;
//! let result = Checker::new().check(&chain, &phi)?;
//! assert!(result.holds_in(0));
//!
//! let query = tml_logic::parse_query("P=? [ F \"rich\" ]")?;
//! let (values, _diagnostics) = Checker::new().query(&chain, &query)?;
//! assert!((values[0] - 0.3).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtmc;
mod error;
mod formula;
pub mod mdp;
mod options;
pub mod reach;
pub mod region;
mod result;
pub mod robust;
mod run;

pub use error::CheckError;
pub use formula::Checkable;
pub use options::{CheckOptions, LinearSolver};
pub use result::CheckResult;
pub use robust::RobustBracket;
// Budgets and diagnostics are part of the checking API surface.
pub use tml_numerics::{Budget, CancelToken, Diagnostics, Exhaustion};

use run::CheckRun;
use tml_logic::{Query, StateFormula};
use tml_models::{Dtmc, IntervalDtmc, RewardStructure};
use tml_telemetry::span;

/// The model-checking façade: construct once (optionally with custom
/// [`CheckOptions`] and a [`Budget`]) and call [`check`](Checker::check)
/// or [`query`](Checker::query).
///
/// The checker is stateless between calls and cheap to clone. When a budget
/// is attached, every call polls it and returns best-effort results with
/// [`CheckResult::diagnostics`] describing what was spent instead of
/// hanging or erroring on exhaustion.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    opts: CheckOptions,
    budget: Budget,
}

impl Checker {
    /// A checker with default numeric options and no budget.
    pub fn new() -> Self {
        Checker::default()
    }

    /// A checker with explicit numeric options.
    pub fn with_options(opts: CheckOptions) -> Self {
        Checker { opts, budget: Budget::unlimited() }
    }

    /// Attaches an effort budget shared by every subsequent call.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The numeric options in effect.
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// The budget in effect (unlimited by default).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Checks a PCTL state formula on any [`Checkable`] model kind,
    /// returning the satisfying state set and, for a top-level `P`/`R`
    /// operator, its values: one number per state for a [`Dtmc`] or
    /// [`Mdp`](tml_models::Mdp), a [`RobustBracket`] for an
    /// [`IntervalDtmc`] or [`IntervalMdp`](tml_models::IntervalMdp).
    ///
    /// On an MDP, a `P⋈b[·]` operator without an explicit `min`/`max`
    /// follows the PRISM convention: lower bounds (`>`, `>=`) quantify over
    /// *all* schedulers (worst case = `Pmin`), upper bounds over the best
    /// case (`Pmax`); symmetrically `R<=c` checks `Rmax <= c`.
    ///
    /// On an interval model the result holds only if it holds for *every*
    /// member of the uncertainty set: lower bounds are tested against the
    /// pessimistic value, upper bounds against the optimistic one. See
    /// [`robust`] for the supported fragment.
    ///
    /// # Errors
    ///
    /// A [`CheckError`] for unknown reward structures or numeric failures;
    /// on interval models also [`CheckError::InvalidInterval`] for a
    /// malformed uncertainty set and [`CheckError::Unsupported`] for nested
    /// `P`/`R` operators (and reach rewards on an interval MDP).
    pub fn check<M: Checkable>(
        &self,
        model: &M,
        formula: &StateFormula,
    ) -> Result<CheckResult<M::Values>, CheckError> {
        let _span = span!("checker.check", model = M::KIND, states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let result = formula::check(model, formula, &run)?;
        Ok(result.with_diagnostics(run.finish()))
    }

    /// Evaluates a numeric query (`P=?`, `Rmax=?`, …) on any [`Checkable`]
    /// model kind: one value per state (a robust `[pessimistic,
    /// optimistic]` bracket per state on an interval model), with the
    /// [`Diagnostics`] of the solve. A `min`/`max` annotation is vacuous on
    /// a DTMC and on interval models, which bracket over every scheduler.
    ///
    /// # Errors
    ///
    /// [`CheckError::MissingOpt`] for an MDP query without `min` or `max`,
    /// plus the conditions of [`check`](Self::check). Budget exhaustion is
    /// reported in the diagnostics, never as an error.
    pub fn query<M: Checkable>(
        &self,
        model: &M,
        query: &Query,
    ) -> Result<(M::Values, Diagnostics), CheckError> {
        let _span = span!("checker.query", model = M::KIND, states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let values = formula::query(model, query, &run)?;
        Ok((values, run.finish()))
    }

    /// [`check`](Self::check) on a DTMC.
    ///
    /// # Errors
    ///
    /// Same conditions as [`check`](Self::check).
    pub fn check_dtmc(
        &self,
        model: &Dtmc,
        formula: &StateFormula,
    ) -> Result<CheckResult, CheckError> {
        self.check(model, formula)
    }

    /// The value of `query` in the DTMC's initial state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query`](Self::query).
    pub fn value_dtmc(&self, model: &Dtmc, query: &Query) -> Result<f64, CheckError> {
        Ok(self.query(model, query)?.0[model.initial_state()])
    }

    /// The robust bracket of `query` on an interval DTMC.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query`](Self::query).
    pub fn query_interval_dtmc(
        &self,
        model: &IntervalDtmc,
        query: &Query,
    ) -> Result<RobustBracket, CheckError> {
        Ok(self.query(model, query)?.0)
    }
}

/// The `checker.backend.<backend>.ok` and `.fail` counter names of a solver
/// backend, static so that recording an attempt allocates no name (`None`
/// for a name that is not a backend).
pub(crate) fn backend_counters(backend: &str) -> Option<(&'static str, &'static str)> {
    const COUNTERS: [(&str, &str, &str); 5] = [
        ("scc", "checker.backend.scc.ok", "checker.backend.scc.fail"),
        ("gauss-seidel", "checker.backend.gauss-seidel.ok", "checker.backend.gauss-seidel.fail"),
        ("direct", "checker.backend.direct.ok", "checker.backend.direct.fail"),
        ("interval", "checker.backend.interval.ok", "checker.backend.interval.fail"),
        ("robust", "checker.backend.robust.ok", "checker.backend.robust.fail"),
    ];
    COUNTERS.iter().find(|(b, ..)| *b == backend).map(|&(_, ok, fail)| (ok, fail))
}

/// The named reward structure, or the model's default one for `None`.
pub(crate) fn lookup_rewards<'a>(
    name: Option<&str>,
    by_name: impl Fn(&str) -> Option<&'a RewardStructure>,
    default: Option<&'a RewardStructure>,
) -> Result<&'a RewardStructure, CheckError> {
    let found = match name {
        Some(n) => by_name(n),
        None => default,
    };
    found.ok_or_else(|| {
        CheckError::Model(tml_models::ModelError::NotFound {
            kind: "reward structure",
            name: name.unwrap_or("<default>").into(),
        })
    })
}
