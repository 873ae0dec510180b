//! The one state-formula layer behind [`Checker::check`](crate::Checker::check)
//! and [`Checker::query`](crate::Checker::query), shared by all four model
//! kinds.
//!
//! Propositional formulas are evaluated here against the labeling. A
//! `P`/`R` operator is solved by the kind ([`Checkable`]) once: a check at
//! the top level takes its mask from the values it reports, a nested
//! operator maps its bound over them. Interval kinds refuse nested
//! operators, since robust satisfaction is a for-all-members claim and does
//! not commute with negation.

use tml_logic::{CmpOp, Opt, PathFormula, Query, RewardKind, StateFormula};
use tml_models::{Dtmc, IntervalDtmc, IntervalMdp, Labeling, Mdp};

use crate::run::CheckRun;
use crate::{CheckError, CheckOptions, CheckResult};

mod sealed {
    pub trait Sealed {}
}

impl sealed::Sealed for Dtmc {}
impl sealed::Sealed for Mdp {}
impl sealed::Sealed for IntervalDtmc {}
impl sealed::Sealed for IntervalMdp {}

/// A model kind the [`Checker`](crate::Checker) checks: [`Dtmc`], [`Mdp`],
/// [`IntervalDtmc`] and [`IntervalMdp`]. A nominal model is the one-member
/// case of an uncertainty set; the kinds differ only in what an operator
/// solves to and how its bound is tested.
///
/// The trait is sealed; its methods are the checker's internal interface.
pub trait Checkable: sealed::Sealed {
    /// The per-state values of a `P`/`R` operator: `Vec<f64>` for the
    /// nominal kinds, a [`RobustBracket`](crate::RobustBracket) for the
    /// interval kinds.
    type Values;

    /// The `model` field of the `checker.check`/`checker.query` spans.
    #[doc(hidden)]
    const KIND: &'static str;

    /// Whether a `P`/`R` operator may sit inside another formula.
    #[doc(hidden)]
    const NESTED_OPERATORS: bool = true;

    /// Whether a query must name `min` or `max`.
    #[doc(hidden)]
    const QUERY_NEEDS_OPT: bool = false;

    /// The number of states.
    #[doc(hidden)]
    fn num_states(&self) -> usize;

    /// The initial state.
    #[doc(hidden)]
    fn initial_state(&self) -> usize;

    /// The state labels.
    #[doc(hidden)]
    fn labeling(&self) -> &Labeling;

    /// Refuses a malformed model before any formula is evaluated.
    #[doc(hidden)]
    fn validate(&self, _run: &CheckRun<'_>) -> Result<(), CheckError> {
        Ok(())
    }

    /// Solves `P[path]` under the scheduler quantification `opt` (vacuous
    /// where the kind has no scheduler to resolve).
    #[doc(hidden)]
    fn path_values(
        &self,
        path: &PathFormula,
        opt: Opt,
        run: &CheckRun<'_>,
    ) -> Result<Self::Values, CheckError>;

    /// Solves `R{structure}[kind]` under `opt`.
    #[doc(hidden)]
    fn reward_values(
        &self,
        structure: Option<&str>,
        kind: &RewardKind,
        opt: Opt,
        run: &CheckRun<'_>,
    ) -> Result<Self::Values, CheckError>;

    /// The verdict of `⋈ bound` in every state.
    #[doc(hidden)]
    fn verdict(values: &Self::Values, op: CmpOp, bound: f64, opts: &CheckOptions) -> Vec<bool>;
}

/// Checks a state formula: a top-level `P`/`R` operator is solved once and
/// its mask comes from the values the result reports.
pub(crate) fn check<M: Checkable>(
    model: &M,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<CheckResult<M::Values>, CheckError> {
    model.validate(run)?;
    let (sat, values) = match operator(model, formula, run)? {
        Some((values, sat)) => (sat, Some(values)),
        None => (mask(model, formula, run)?, None),
    };
    Ok(CheckResult::new(sat, values, model.initial_state()))
}

/// Evaluates a numeric query, one value (or bracket) per state.
pub(crate) fn query<M: Checkable>(
    model: &M,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<M::Values, CheckError> {
    model.validate(run)?;
    let (Query::Prob { opt, .. } | Query::Reward { opt, .. }) = query;
    let opt = match opt {
        Some(opt) => *opt,
        None if M::QUERY_NEEDS_OPT => {
            return Err(CheckError::MissingOpt { query: query.to_string() })
        }
        // Vacuous: a chain has no scheduler, and an interval MDP brackets
        // over every one.
        None => Opt::Max,
    };
    match query {
        Query::Prob { path, .. } => model.path_values(path, opt, run),
        Query::Reward { structure, kind, .. } => {
            model.reward_values(structure.as_deref(), kind, opt, run)
        }
    }
}

/// A solved operator: its values and their verdict in every state.
type Solved<V> = (V, Vec<bool>);

/// The values of a `P`/`R` operator and their verdict, `None` for any
/// other formula. This is the only place an operator is solved.
fn operator<M: Checkable>(
    model: &M,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<Option<Solved<M::Values>>, CheckError> {
    let (values, op, bound) = match formula {
        StateFormula::Prob { opt, op, bound, path } => {
            (model.path_values(path, resolve_opt(*opt, *op), run)?, *op, *bound)
        }
        StateFormula::Reward { structure, opt, op, bound, kind } => {
            let opt = resolve_opt(*opt, *op);
            (model.reward_values(structure.as_deref(), kind, opt, run)?, *op, *bound)
        }
        _ => return Ok(None),
    };
    let sat = M::verdict(&values, op, bound, run.opts);
    Ok(Some((values, sat)))
}

/// The satisfaction mask of a state formula.
pub(crate) fn mask<M: Checkable>(
    model: &M,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<Vec<bool>, CheckError> {
    let both = |a: &StateFormula, b: &StateFormula, f: fn(bool, bool) -> bool| {
        let (a, b) = (mask(model, a, run)?, mask(model, b, run)?);
        Ok::<Vec<bool>, CheckError>(a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect())
    };
    let n = model.num_states();
    Ok(match formula {
        StateFormula::True => vec![true; n],
        StateFormula::False => vec![false; n],
        StateFormula::Atom(a) => model.labeling().mask(a),
        StateFormula::Not(f) => mask(model, f, run)?.into_iter().map(|b| !b).collect(),
        StateFormula::And(a, b) => both(a, b, |x, y| x && y)?,
        StateFormula::Or(a, b) => both(a, b, |x, y| x || y)?,
        StateFormula::Implies(a, b) => both(a, b, |x, y| !x || y)?,
        StateFormula::Prob { .. } | StateFormula::Reward { .. } if M::NESTED_OPERATORS => {
            operator(model, formula, run)?.map(|(_, sat)| sat).unwrap_or_default()
        }
        StateFormula::Prob { .. } | StateFormula::Reward { .. } => {
            return Err(CheckError::Unsupported {
                detail: "robust checking supports P/R only at the top level \
                         with propositional operands"
                    .into(),
            })
        }
    })
}

/// The verdict of a nominal operator: its values tested against the bound.
pub(crate) fn point_verdict(
    values: &[f64],
    op: CmpOp,
    bound: f64,
    opts: &CheckOptions,
) -> Vec<bool> {
    values.iter().map(|&v| opts.test_bound(op, v, bound)).collect()
}

fn resolve_opt(explicit: Option<Opt>, op: CmpOp) -> Opt {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use tml_logic::{parse_formula, parse_query};
    use tml_models::{DtmcBuilder, MdpBuilder};

    /// One chain taken as all four kinds: from 0, "rich" (1) with 0.3 and
    /// "broke" (2) with 0.7, both absorbing.
    fn kinds() -> (Dtmc, Mdp, IntervalDtmc, IntervalMdp) {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.3).unwrap();
        b.transition(0, 2, 0.7).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.label(1, "rich").unwrap();
        b.label(2, "broke").unwrap();
        let d = b.build().unwrap();
        let mut b = MdpBuilder::new(3);
        b.choice(0, "bet", &[(1, 0.3), (2, 0.7)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.label(1, "rich").unwrap();
        b.label(2, "broke").unwrap();
        let m = b.build().unwrap();
        let (id, im) = (IntervalDtmc::degenerate(&d), IntervalMdp::degenerate(&m));
        (d, m, id, im)
    }

    #[test]
    fn propositional_masks_agree_on_every_kind() {
        let (d, m, id, im) = kinds();
        let checker = Checker::new();
        for text in [
            "true",
            "false",
            "\"rich\"",
            "!\"rich\"",
            "\"rich\" | \"broke\"",
            "!\"rich\" & !\"broke\"",
            "\"rich\" => \"broke\"",
            "\"no_such_label\"",
        ] {
            let phi = parse_formula(text).unwrap();
            let want = checker.check(&d, &phi).unwrap().sat_mask().to_vec();
            assert_eq!(want.len(), 3, "{text}");
            assert_eq!(checker.check(&m, &phi).unwrap().sat_mask(), want, "mdp: {text}");
            assert_eq!(checker.check(&id, &phi).unwrap().sat_mask(), want, "idtmc: {text}");
            assert_eq!(checker.check(&im, &phi).unwrap().sat_mask(), want, "imdp: {text}");
        }
    }

    #[test]
    fn nested_operators_are_solved_nominally_and_refused_robustly() {
        let (d, m, id, im) = kinds();
        let checker = Checker::new();
        for text in ["P>=0.2 [ F P>=0.9 [ X \"rich\" ] ]", "!P>=0.5 [ F \"rich\" ]"] {
            let phi = parse_formula(text).unwrap();
            let nominal = checker.check(&d, &phi).unwrap().sat_mask().to_vec();
            assert_eq!(checker.check(&m, &phi).unwrap().sat_mask(), nominal, "{text}");
            for err in
                [checker.check(&id, &phi).unwrap_err(), checker.check(&im, &phi).unwrap_err()]
            {
                assert_eq!(
                    err.to_string(),
                    "unsupported: robust checking supports P/R only at the top level \
                     with propositional operands",
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn only_an_mdp_query_needs_min_or_max() {
        let (d, m, id, im) = kinds();
        let checker = Checker::new();
        let q = parse_query("P=? [ F \"rich\" ]").unwrap();
        let err = checker.query(&m, &q).unwrap_err();
        assert!(matches!(err, CheckError::MissingOpt { .. }), "{err}");
        let (values, _) = checker.query(&d, &q).unwrap();
        let (bracket, _) = checker.query(&id, &q).unwrap();
        assert_eq!(bracket.at(0), (values[0], values[0]));
        let (imdp, _) = checker.query(&im, &q).unwrap();
        assert_eq!(imdp.at(0), bracket.at(0));
        let qmax = parse_query("Pmax=? [ F \"rich\" ]").unwrap();
        assert_eq!(checker.query(&m, &qmax).unwrap().0, values);
    }

    #[test]
    fn out_of_range_states_satisfy_nothing() {
        let (d, _, id, _) = kinds();
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let nominal = Checker::new().check(&d, &phi).unwrap();
        let robust = Checker::new().check(&id, &phi).unwrap();
        assert!(nominal.holds_in(0) && robust.holds_in(0));
        assert!(!nominal.holds_in(3) && !robust.holds_in(3));
        assert!(!nominal.holds_in(usize::MAX) && !robust.holds_in(usize::MAX));
    }
}
