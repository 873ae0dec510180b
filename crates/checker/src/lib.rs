//! Exact PCTL model checking for discrete-time Markov chains and Markov
//! decision processes.
//!
//! The checking pipeline mirrors PRISM's explicit engine:
//!
//! 1. **Qualitative precomputation** — classify states whose probability is
//!    exactly 0 or 1 using the graph algorithms of `tml_models::graph`.
//! 2. **Quantitative solution** — solve a linear system (DTMC, via direct
//!    Gaussian elimination or Gauss–Seidel) or run value iteration over
//!    schedulers (MDP) on the remaining "maybe" states.
//!
//! Besides boolean *verification* ([`Checker::check_dtmc`] /
//! [`Checker::check_mdp`]) the crate answers numeric *queries*
//! (`P=?`, `Rmax=?`, …) via [`Checker::query_dtmc`] / [`Checker::query_mdp`].
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
//! let result = Checker::new().check_dtmc(&chain, &phi)?;
//! assert!(result.holds_in(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dtmc;
mod error;
pub mod mdp;
mod options;
pub mod reach;
pub mod region;
mod result;
pub mod robust;
mod run;

pub use error::CheckError;
pub use options::{CheckOptions, LinearSolver};
pub use result::CheckResult;
pub use robust::{RobustBracket, RobustCheckResult};
// Budgets and diagnostics are part of the checking API surface.
pub use tml_numerics::{Budget, CancelToken, Diagnostics, Exhaustion};

use run::CheckRun;
use tml_logic::{Opt, Query, StateFormula};
use tml_models::{Dtmc, IntervalDtmc, IntervalMdp, Mdp, RewardStructure};
use tml_telemetry::span;

/// The model-checking façade: construct once (optionally with custom
/// [`CheckOptions`] and a [`Budget`]) and call the `check_*` / `query_*`
/// methods.
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

    /// Checks a PCTL state formula on a DTMC, returning the satisfying
    /// state set (and, for a top-level `P`/`R` operator, the numeric values).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] for unknown reward structures or numeric
    /// failures.
    pub fn check_dtmc(
        &self,
        model: &Dtmc,
        formula: &StateFormula,
    ) -> Result<CheckResult, CheckError> {
        let _span = span!("checker.check", model = "dtmc", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let result = dtmc::check_run(model, formula, &run)?;
        Ok(result.with_diagnostics(run.finish()))
    }

    /// Checks a PCTL state formula on an MDP.
    ///
    /// For `P⋈b[·]` operators without an explicit `min`/`max`, the scheduler
    /// quantification follows the PRISM convention: lower bounds (`>`, `>=`)
    /// quantify over *all* schedulers (worst case = `Pmin`), upper bounds
    /// over the best case (`Pmax`); symmetrically `R<=c` checks `Rmax <= c`.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] for unknown reward structures or numeric
    /// failures.
    pub fn check_mdp(
        &self,
        model: &Mdp,
        formula: &StateFormula,
    ) -> Result<CheckResult, CheckError> {
        let _span = span!("checker.check", model = "mdp", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let result = mdp::check_run(model, formula, &run)?;
        Ok(result.with_diagnostics(run.finish()))
    }

    /// Evaluates a numeric query (`P=?`, `R=?`, …) on a DTMC, returning one
    /// value per state. Any `min`/`max` annotation is ignored (a DTMC has a
    /// single resolution).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] for unknown reward structures or numeric
    /// failures.
    pub fn query_dtmc(&self, model: &Dtmc, query: &Query) -> Result<Vec<f64>, CheckError> {
        Ok(self.query_dtmc_diag(model, query)?.0)
    }

    /// Like [`query_dtmc`](Self::query_dtmc), also reporting the
    /// [`Diagnostics`] of the solve (budget spend, fallbacks, residuals).
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_dtmc`](Self::query_dtmc); budget
    /// exhaustion is reported in the diagnostics, never as an error.
    pub fn query_dtmc_diag(
        &self,
        model: &Dtmc,
        query: &Query,
    ) -> Result<(Vec<f64>, Diagnostics), CheckError> {
        let _span = span!("checker.query", model = "dtmc", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let values = dtmc::query_run(model, query, &run)?;
        Ok((values, run.finish()))
    }

    /// Evaluates a numeric query on an MDP, returning one value per state.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::MissingOpt`] if the query does not specify
    /// `min` or `max` (an MDP query is ambiguous without it), plus the usual
    /// conditions.
    pub fn query_mdp(&self, model: &Mdp, query: &Query) -> Result<Vec<f64>, CheckError> {
        Ok(self.query_mdp_diag(model, query)?.0)
    }

    /// Like [`query_mdp`](Self::query_mdp), also reporting the
    /// [`Diagnostics`] of the solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_mdp`](Self::query_mdp); budget exhaustion
    /// is reported in the diagnostics, never as an error.
    pub fn query_mdp_diag(
        &self,
        model: &Mdp,
        query: &Query,
    ) -> Result<(Vec<f64>, Diagnostics), CheckError> {
        let _span = span!("checker.query", model = "mdp", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let values = mdp::query_run(model, query, &run)?;
        Ok((values, run.finish()))
    }

    /// Convenience: the value of `query` in the model's initial state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_dtmc`](Self::query_dtmc).
    pub fn value_dtmc(&self, model: &Dtmc, query: &Query) -> Result<f64, CheckError> {
        Ok(self.query_dtmc(model, query)?[model.initial_state()])
    }

    /// Convenience: the value of `query` in the MDP's initial state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_mdp`](Self::query_mdp).
    pub fn value_mdp(&self, model: &Mdp, query: &Query) -> Result<f64, CheckError> {
        Ok(self.query_mdp(model, query)?[model.initial_state()])
    }

    /// Robustly checks a formula on an interval DTMC: the result holds only
    /// if it holds for *every* member of the uncertainty set (lower bounds
    /// are tested against the pessimistic value, upper bounds against the
    /// optimistic one). See [`robust`] for the supported fragment.
    ///
    /// # Errors
    ///
    /// [`CheckError::InvalidInterval`] for malformed uncertainty sets and
    /// [`CheckError::Unsupported`] for nested `P`/`R` operators.
    pub fn check_interval_dtmc(
        &self,
        model: &IntervalDtmc,
        formula: &StateFormula,
    ) -> Result<RobustCheckResult, CheckError> {
        let _span = span!("checker.check", model = "idtmc", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let result = robust::check_dtmc_run(model, formula, &run)?;
        Ok(result.with_diagnostics(run.finish()))
    }

    /// Robustly checks a formula on an interval MDP, bracketing over
    /// schedulers *and* uncertainty-set members.
    ///
    /// # Errors
    ///
    /// Same conditions as [`check_interval_dtmc`](Self::check_interval_dtmc),
    /// plus [`CheckError::Unsupported`] for reach rewards (see [`robust`]).
    pub fn check_interval_mdp(
        &self,
        model: &IntervalMdp,
        formula: &StateFormula,
    ) -> Result<RobustCheckResult, CheckError> {
        let _span = span!("checker.check", model = "imdp", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let result = robust::check_mdp_run(model, formula, &run)?;
        Ok(result.with_diagnostics(run.finish()))
    }

    /// The robust `[pessimistic, optimistic]` bracket of a numeric query on
    /// an interval DTMC, one pair per state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`check_interval_dtmc`](Self::check_interval_dtmc).
    pub fn query_interval_dtmc(
        &self,
        model: &IntervalDtmc,
        query: &Query,
    ) -> Result<RobustBracket, CheckError> {
        Ok(self.query_interval_dtmc_diag(model, query)?.0)
    }

    /// Like [`query_interval_dtmc`](Self::query_interval_dtmc), also
    /// reporting the [`Diagnostics`] of the robust solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`query_interval_dtmc`](Self::query_interval_dtmc).
    pub fn query_interval_dtmc_diag(
        &self,
        model: &IntervalDtmc,
        query: &Query,
    ) -> Result<(RobustBracket, Diagnostics), CheckError> {
        let _span = span!("checker.query", model = "idtmc", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let bracket = robust::query_dtmc_run(model, query, &run)?;
        Ok((bracket, run.finish()))
    }

    /// The robust bracket of a numeric query on an interval MDP, with the
    /// [`Diagnostics`] of the robust solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`check_interval_mdp`](Self::check_interval_mdp).
    pub fn query_interval_mdp(
        &self,
        model: &IntervalMdp,
        query: &Query,
    ) -> Result<(RobustBracket, Diagnostics), CheckError> {
        let _span = span!("checker.query", model = "imdp", states = model.num_states());
        let run = CheckRun::new(&self.opts, &self.budget);
        let bracket = robust::query_mdp_run(model, query, &run)?;
        Ok((bracket, run.finish()))
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

/// The verdict of a `P`/`R` operator in every state: its solved values
/// tested against its bound (empty for any other formula).
pub(crate) fn operator_mask(
    formula: &StateFormula,
    values: &[f64],
    opts: &CheckOptions,
) -> Vec<bool> {
    let (StateFormula::Prob { op, bound, .. } | StateFormula::Reward { op, bound, .. }) = formula
    else {
        return Vec::new();
    };
    values.iter().map(|&v| opts.test_bound(*op, v, *bound)).collect()
}

pub(crate) fn resolve_opt(explicit: Option<Opt>, op: tml_logic::CmpOp) -> Opt {
    if let Some(o) = explicit {
        return o;
    }
    // PRISM convention: a lower bound must hold under every scheduler, so we
    // check the minimum; an upper bound must hold even for the maximizing
    // scheduler. The same reading applies to reward bounds.
    if op.is_lower_bound() {
        Opt::Min
    } else {
        Opt::Max
    }
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
