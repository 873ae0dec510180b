//! PCTL model checking for discrete-time Markov chains.
//!
//! The quantitative primitives ([`until_probabilities`], [`reach_rewards`],
//! …) are public because Model Repair and the parametric engine's tests
//! reuse them directly.

use tml_logic::{PathFormula, Query, RewardKind, StateFormula};
use tml_models::{graph, Dtmc, RewardStructure};
use tml_numerics::interval::interval_iteration_budgeted;
use tml_numerics::iterative::IterOptions;
use tml_numerics::solve::solve_dense;
use tml_numerics::{Budget, CsrMatrix, DenseMatrix, Diagnostics, NumericsError};

use crate::reach::{bounded_until_sweeps, ReachSystem};
use crate::run::CheckRun;
use crate::{lookup_rewards, CheckError, CheckOptions, CheckResult};

/// Checks a state formula: a top-level `P`/`R` operator is solved once, and
/// its verdict mask comes from the values the result reports.
pub(crate) fn check_run(
    model: &Dtmc,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<CheckResult, CheckError> {
    let values = operator_values(model, formula, run)?;
    let sat = match &values {
        Some(values) => crate::operator_mask(formula, values, run.opts),
        None => evaluate_run(model, formula, run)?,
    };
    Ok(CheckResult::new(sat, values, model.initial_state()))
}

/// The per-state values of a `P`/`R` operator, `None` for any other
/// formula. This is the only place an operator is solved: a check takes its
/// verdict from these values, and nested operators map their bound over
/// them.
pub(crate) fn operator_values(
    model: &Dtmc,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<Option<Vec<f64>>, CheckError> {
    // A DTMC has no schedulers: min/max annotations are vacuous.
    match formula {
        StateFormula::Prob { path, .. } => Ok(Some(path_probabilities_run(model, path, run)?)),
        StateFormula::Reward { structure, kind, .. } => {
            Ok(Some(reward_values(model, structure.as_deref(), kind, run)?))
        }
        _ => Ok(None),
    }
}

pub(crate) fn evaluate_run(
    model: &Dtmc,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<Vec<bool>, CheckError> {
    let n = model.num_states();
    Ok(match formula {
        StateFormula::True => vec![true; n],
        StateFormula::False => vec![false; n],
        StateFormula::Atom(a) => model.labeling().mask(a),
        StateFormula::Not(f) => evaluate_run(model, f, run)?.iter().map(|b| !b).collect(),
        StateFormula::And(a, b) => {
            zip_masks(evaluate_run(model, a, run)?, evaluate_run(model, b, run)?, |x, y| x && y)
        }
        StateFormula::Or(a, b) => {
            zip_masks(evaluate_run(model, a, run)?, evaluate_run(model, b, run)?, |x, y| x || y)
        }
        StateFormula::Implies(a, b) => {
            zip_masks(evaluate_run(model, a, run)?, evaluate_run(model, b, run)?, |x, y| !x || y)
        }
        StateFormula::Prob { .. } | StateFormula::Reward { .. } => {
            let values = operator_values(model, formula, run)?.unwrap_or_default();
            crate::operator_mask(formula, &values, run.opts)
        }
    })
}

/// Evaluates a numeric query, returning one value per state.
///
/// # Errors
///
/// Returns a [`CheckError`] for unknown reward structures or numeric
/// failures.
pub fn query(model: &Dtmc, q: &Query, opts: &CheckOptions) -> Result<Vec<f64>, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    query_run(model, q, &run)
}

pub(crate) fn query_run(
    model: &Dtmc,
    q: &Query,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    match q {
        Query::Prob { path, .. } => path_probabilities_run(model, path, run),
        Query::Reward { structure, kind, .. } => {
            reward_values(model, structure.as_deref(), kind, run)
        }
    }
}

fn reward_values(
    model: &Dtmc,
    structure: Option<&str>,
    kind: &RewardKind,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    let rewards = lookup_rewards(
        structure,
        |n| model.reward_structure(n).ok(),
        model.default_reward_structure(),
    )?;
    match kind {
        RewardKind::Reach(target) => {
            let target_mask = evaluate_run(model, target, run)?;
            reach_rewards_run(model, rewards, &target_mask, run)
        }
        RewardKind::Cumulative(k) => Ok(cumulative_rewards(model, rewards, *k)),
    }
}

/// Per-state probability of a path formula.
///
/// # Errors
///
/// Returns a [`CheckError`] on numeric failures.
pub fn path_probabilities(
    model: &Dtmc,
    path: &PathFormula,
    opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    path_probabilities_run(model, path, &run)
}

pub(crate) fn path_probabilities_run(
    model: &Dtmc,
    path: &PathFormula,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    let n = model.num_states();
    match path {
        PathFormula::Next(f) => {
            let target = evaluate_run(model, f, run)?;
            Ok(next_probabilities(model, &target))
        }
        PathFormula::Until { lhs, rhs, bound } => {
            let phi = evaluate_run(model, lhs, run)?;
            let target = evaluate_run(model, rhs, run)?;
            match bound {
                Some(k) => Ok(bounded_until_probabilities(model, &phi, &target, *k)),
                None => until_probabilities_run(model, &phi, &target, run),
            }
        }
        PathFormula::Eventually { sub, bound } => {
            let target = evaluate_run(model, sub, run)?;
            let phi = vec![true; n];
            match bound {
                Some(k) => Ok(bounded_until_probabilities(model, &phi, &target, *k)),
                None => until_probabilities_run(model, &phi, &target, run),
            }
        }
        PathFormula::Globally { sub, bound } => {
            // P(G φ) = 1 − P(F ¬φ), valid for both bounded and unbounded
            // horizons on Markov chains.
            let inv: Vec<bool> = evaluate_run(model, sub, run)?.iter().map(|b| !b).collect();
            let phi = vec![true; n];
            let f_not = match bound {
                Some(k) => bounded_until_probabilities(model, &phi, &inv, *k),
                None => until_probabilities_run(model, &phi, &inv, run)?,
            };
            Ok(f_not.iter().map(|p| 1.0 - p).collect())
        }
    }
}

/// `P(X target)` per state: one matrix–vector product.
pub fn next_probabilities(model: &Dtmc, target: &[bool]) -> Vec<f64> {
    (0..model.num_states())
        .map(|s| model.successors(s).filter(|&(t, _)| target[t]).map(|(_, p)| p).sum())
        .collect()
}

/// `P(φ U≤k ψ)` per state, by `k`-fold backward unrolling.
pub fn bounded_until_probabilities(
    model: &Dtmc,
    phi: &[bool],
    target: &[bool],
    k: u64,
) -> Vec<f64> {
    let (mut x, mut next) = (Vec::new(), Vec::new());
    bounded_until_sweeps(|s| model.successors(s), phi, target, k, &mut x, &mut next);
    x
}

/// `P(φ U ψ)` per state: qualitative precomputation plus a linear solve on
/// the maybe-states.
///
/// # Errors
///
/// Returns a [`CheckError`] if the linear solver fails.
pub fn until_probabilities(
    model: &Dtmc,
    phi: &[bool],
    target: &[bool],
    opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    Ok(until_probabilities_diag(model, phi, target, opts, &Budget::unlimited())?.0)
}

/// Budget-aware [`until_probabilities`]: stops at the budget (returning the
/// best iterate found) and reports the [`Diagnostics`] of the solve —
/// including any solver fallbacks taken under [`LinearSolver::Auto`](crate::LinearSolver::Auto).
///
/// # Errors
///
/// Same conditions as [`until_probabilities`]; budget exhaustion is *not*
/// an error (it is reported via [`Diagnostics::exhausted`]).
pub fn until_probabilities_diag(
    model: &Dtmc,
    phi: &[bool],
    target: &[bool],
    opts: &CheckOptions,
    budget: &Budget,
) -> Result<(Vec<f64>, Diagnostics), CheckError> {
    let run = CheckRun::new(opts, budget);
    let x = until_probabilities_run(model, phi, target, &run)?;
    Ok((x, run.finish()))
}

pub(crate) fn until_probabilities_run(
    model: &Dtmc,
    phi: &[bool],
    target: &[bool],
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    ReachSystem::until(model, phi, target).solve(run)
}

/// `P(φ U ψ)` per state with **sound two-sided bounds**: the true
/// probability of every state lies in `[lo[s], hi[s]]` (up to floating-point
/// rounding of individual sweeps), regardless of how tight the iteration
/// managed to get within its budget.
///
/// The maybe-state system is solved by interval iteration from the bracket
/// `[0, 1]`; prob0/prob1 states carry the exact bounds `[0, 0]` / `[1, 1]`.
/// When the budget stops the run early the bracket is simply wider — it
/// never becomes unsound — and the cause lands in
/// [`Diagnostics::exhausted`].
///
/// # Errors
///
/// Returns a [`CheckError`] on dimension errors from the numeric layer;
/// non-convergence is not an error (the bracket reports itself).
pub fn until_probabilities_bounds(
    model: &Dtmc,
    phi: &[bool],
    target: &[bool],
    opts: &CheckOptions,
    budget: &Budget,
) -> Result<(Vec<f64>, Vec<f64>, Diagnostics), CheckError> {
    let run = CheckRun::new(opts, budget);
    let ReachSystem { x, maybe, class, b, triplets, .. } = ReachSystem::until(model, phi, target);
    drop(class);
    let mut lo = x.clone();
    let mut hi = x;
    if maybe.is_empty() {
        return Ok((lo, hi, run.finish()));
    }
    let m = maybe.len();
    let a = CsrMatrix::from_triplets(m, m, &triplets)?;
    let iter_opts = IterOptions { tolerance: opts.tolerance, max_iterations: opts.max_iterations };
    let iv = interval_iteration_budgeted(
        &a,
        &b,
        &vec![0.0; m],
        &vec![1.0; m],
        iter_opts,
        &run.remaining_budget(),
    )?;
    run.spend(iv.iterations as u64);
    if iv.converged {
        run.record_backend("interval", true);
    } else if let Some(cause) = iv.stopped {
        // The caller's budget, not a backend fault; the surviving width is
        // the honest residual of the wider bracket.
        run.mark_exhausted(cause);
        run.record_residual(iv.width);
    } else {
        run.record_backend("interval", false);
        run.record_residual(iv.width);
    }
    for (i, &s) in maybe.iter().enumerate() {
        lo[s] = iv.lo[i].clamp(0.0, 1.0);
        hi[s] = iv.hi[i].clamp(0.0, 1.0);
    }
    Ok((lo, hi, run.finish()))
}

/// Expected reward accumulated until first reaching `target`
/// (`R[F target]`) per state; infinite for states that do not reach the
/// target almost surely.
///
/// # Errors
///
/// Returns a [`CheckError`] if the linear solver fails.
pub fn reach_rewards(
    model: &Dtmc,
    rewards: &RewardStructure,
    target: &[bool],
    opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    reach_rewards_run(model, rewards, target, &run)
}

pub(crate) fn reach_rewards_run(
    model: &Dtmc,
    rewards: &RewardStructure,
    target: &[bool],
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    ReachSystem::reward(model, rewards, target).solve(run)
}

/// Expected reward accumulated over the first `k` steps (`R[C<=k]`).
pub fn cumulative_rewards(model: &Dtmc, rewards: &RewardStructure, k: u64) -> Vec<f64> {
    let n = model.num_states();
    let mut x = vec![0.0; n];
    for _ in 0..k {
        let mut next = vec![0.0; n];
        for (s, nx) in next.iter_mut().enumerate() {
            *nx = rewards.state_reward(s) + model.successors(s).map(|(t, p)| p * x[t]).sum::<f64>();
        }
        x = next;
    }
    x
}

fn zip_masks(a: Vec<bool>, b: Vec<bool>, f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_logic::parse_formula;
    use tml_models::DtmcBuilder;

    fn check(d: &Dtmc, f: &StateFormula, opts: &CheckOptions) -> Result<CheckResult, CheckError> {
        crate::Checker::with_options(*opts).check_dtmc(d, f)
    }

    fn evaluate(d: &Dtmc, f: &StateFormula, opts: &CheckOptions) -> Result<Vec<bool>, CheckError> {
        Ok(check(d, f, opts)?.sat_mask().to_vec())
    }

    /// Symmetric gambler's ruin on {0..4}: absorbing at 0 (broke) and 4
    /// (rich); from 1..3 move ±1 with probability 1/2.
    fn gambler() -> Dtmc {
        let mut b = DtmcBuilder::new(5);
        b.transition(0, 0, 1.0).unwrap();
        b.transition(4, 4, 1.0).unwrap();
        for s in 1..4 {
            b.transition(s, s - 1, 0.5).unwrap();
            b.transition(s, s + 1, 0.5).unwrap();
        }
        b.label(4, "rich").unwrap();
        b.label(0, "broke").unwrap();
        for s in 1..4 {
            b.state_reward("steps", s, 1.0).unwrap();
        }
        b.initial_state(2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn gambler_hit_probabilities_are_linear() {
        let d = gambler();
        let opts = CheckOptions::default();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let p = until_probabilities(&d, &phi, &target, &opts).unwrap();
        for (s, expected) in [(0, 0.0), (1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)] {
            assert!((p[s] - expected).abs() < 1e-9, "state {s}: {} vs {expected}", p[s]);
        }
    }

    #[test]
    fn gambler_gauss_seidel_matches_direct() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let direct = until_probabilities(
            &d,
            &phi,
            &target,
            &CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() },
        )
        .unwrap();
        let gs = until_probabilities(
            &d,
            &phi,
            &target,
            &CheckOptions { solver: crate::LinearSolver::GaussSeidel, ..Default::default() },
        )
        .unwrap();
        for (a, b) in direct.iter().zip(&gs) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn gambler_expected_absorption_time() {
        // E[steps to absorption] from state s is s*(4-s): 0, 3, 4, 3, 0.
        let d = gambler();
        let opts = CheckOptions::default();
        let target: Vec<bool> = (0..5).map(|s| s == 0 || s == 4).collect();
        let r = reach_rewards(&d, d.reward_structure("steps").unwrap(), &target, &opts).unwrap();
        for (s, expected) in [(0, 0.0), (1, 3.0), (2, 4.0), (3, 3.0), (4, 0.0)] {
            assert!((r[s] - expected).abs() < 1e-9, "state {s}: {} vs {expected}", r[s]);
        }
    }

    #[test]
    fn infinite_reward_when_target_unreachable() {
        // 0 -> 0 forever, target = state 1 unreachable.
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 0, 1.0).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.label(1, "goal").unwrap();
        b.state_reward("r", 0, 1.0).unwrap();
        let d = b.build().unwrap();
        let r = reach_rewards(
            &d,
            d.reward_structure("r").unwrap(),
            &d.labeling().mask("goal"),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(r[0].is_infinite());
        assert_eq!(r[1], 0.0);
    }

    #[test]
    fn bounded_until_converges_to_unbounded() {
        let d = gambler();
        let opts = CheckOptions::default();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let unbounded = until_probabilities(&d, &phi, &target, &opts).unwrap();
        let b100 = bounded_until_probabilities(&d, &phi, &target, 200);
        for (a, b) in unbounded.iter().zip(&b100) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        // Monotonicity in the bound.
        let b1 = bounded_until_probabilities(&d, &phi, &target, 1);
        let b2 = bounded_until_probabilities(&d, &phi, &target, 2);
        for (x, y) in b1.iter().zip(&b2) {
            assert!(x <= y);
        }
    }

    #[test]
    fn next_probability() {
        let d = gambler();
        let target = d.labeling().mask("rich");
        let p = next_probabilities(&d, &target);
        assert_eq!(p, vec![0.0, 0.0, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn globally_is_complement_of_eventually() {
        let d = gambler();
        let opts = CheckOptions::default();
        // P(G !rich) = 1 - P(F rich)
        let g = path_probabilities(
            &d,
            &tml_logic::PathFormula::Globally {
                sub: Box::new(StateFormula::Not(Box::new(StateFormula::Atom("rich".into())))),
                bound: None,
            },
            &opts,
        )
        .unwrap();
        assert!((g[2] - 0.5).abs() < 1e-9);
        assert!((g[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_formula_checking() {
        let d = gambler();
        let c =
            check(&d, &parse_formula("P>=0.5 [ F \"rich\" ]").unwrap(), &CheckOptions::default())
                .unwrap();
        assert!(c.holds()); // initial state 2 has probability exactly 0.5
        assert_eq!(c.sat_states(), vec![2, 3, 4]);
        assert!((c.value_at_initial().unwrap() - 0.5).abs() < 1e-9);

        let c2 = check(
            &d,
            &parse_formula("R{\"steps\"}<=3.5 [ F (\"rich\" | \"broke\") ]").unwrap(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert_eq!(c2.sat_states(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn cumulative_rewards_accumulate() {
        let d = gambler();
        let r = d.reward_structure("steps").unwrap();
        let c1 = cumulative_rewards(&d, r, 1);
        assert_eq!(c1, vec![0.0, 1.0, 1.0, 1.0, 0.0]);
        let c2 = cumulative_rewards(&d, r, 2);
        // from state 2: 1 + 0.5*1 + 0.5*1 = 2
        assert!((c2[2] - 2.0).abs() < 1e-12);
        let c0 = cumulative_rewards(&d, r, 0);
        assert_eq!(c0, vec![0.0; 5]);
    }

    #[test]
    fn boolean_connectives_and_atoms() {
        let d = gambler();
        let opts = CheckOptions::default();
        let f = parse_formula("!\"rich\" & !\"broke\"").unwrap();
        let sat = evaluate(&d, &f, &opts).unwrap();
        assert_eq!(sat, vec![false, true, true, true, false]);
        let imp = parse_formula("\"rich\" => \"rich\"").unwrap();
        assert_eq!(evaluate(&d, &imp, &opts).unwrap(), vec![true; 5]);
        let unknown = parse_formula("\"no_such_label\"").unwrap();
        assert_eq!(evaluate(&d, &unknown, &opts).unwrap(), vec![false; 5]);
    }

    #[test]
    fn query_interface() {
        let d = gambler();
        let q = tml_logic::parse_query("P=? [ F \"rich\" ]").unwrap();
        let v = query(&d, &q, &CheckOptions::default()).unwrap();
        assert!((v[2] - 0.5).abs() < 1e-9);
        let rq = tml_logic::parse_query("R{\"steps\"}=? [ F (\"rich\" | \"broke\") ]").unwrap();
        let rv = query(&d, &rq, &CheckOptions::default()).unwrap();
        assert!((rv[2] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn missing_reward_structure_errors() {
        let d = gambler();
        let f = parse_formula("R{\"nope\"}<=1 [ F \"rich\" ]").unwrap();
        assert!(check(&d, &f, &CheckOptions::default()).is_err());
    }

    /// A gambler's ruin on `n` states, each bet won with probability 0.6:
    /// its `n − 2` transient states form one SCC, too large for the SCC
    /// solver's dense blocks, so that block is solved by Gauss–Seidel.
    fn biased_gambler(n: usize) -> Dtmc {
        let mut b = DtmcBuilder::new(n);
        b.transition(0, 0, 1.0).unwrap();
        b.transition(n - 1, n - 1, 1.0).unwrap();
        for s in 1..n - 1 {
            b.transition(s, s + 1, 0.6).unwrap();
            b.transition(s, s - 1, 0.4).unwrap();
        }
        b.label(n - 1, "rich").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fallback_chain_recovers_stalled_gauss_seidel() {
        // Starve the SCC solve's Gauss–Seidel block of iterations so it
        // stalls; under Auto the dense direct solve must still produce the
        // exact answer, with the one fallback recorded.
        let d = biased_gambler(200);
        let phi = vec![true; 200];
        let target = d.labeling().mask("rich");
        let starved = CheckOptions {
            solver: crate::LinearSolver::Auto,
            direct_solver_limit: 0, // force the iterative path
            max_iterations: 2,
            tolerance: 1e-12,
            ..Default::default()
        };
        let (p, diag) =
            until_probabilities_diag(&d, &phi, &target, &starved, &Budget::unlimited()).unwrap();
        let exact = until_probabilities(
            &d,
            &phi,
            &target,
            &CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() },
        )
        .unwrap();
        assert_eq!(p, exact, "the fallback is the direct solve");
        assert_eq!(diag.fallbacks.len(), 1, "one fallback: {:?}", diag.fallbacks);
        assert!(diag.fallbacks[0].contains("direct"));
        assert_eq!(diag.telemetry.counter("checker.backend.scc.fail"), 1);
        assert_eq!(diag.telemetry.counter("checker.backend.direct.ok"), 1);
        assert!(diag.degraded());
        assert!(diag.exhausted.is_none(), "no budget was exhausted");

        // An explicit SCC solve keeps the strict error contract.
        let strict = CheckOptions { solver: crate::LinearSolver::Scc, ..starved };
        assert!(until_probabilities(&d, &phi, &target, &strict).is_err());
    }

    #[test]
    fn scc_solver_matches_direct() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let scc = CheckOptions { solver: crate::LinearSolver::Scc, ..Default::default() };
        let direct = CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() };
        let (p, diag) =
            until_probabilities_diag(&d, &phi, &target, &scc, &Budget::unlimited()).unwrap();
        let exact = until_probabilities(&d, &phi, &target, &direct).unwrap();
        for (a, b) in p.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!(!diag.degraded());
        assert_eq!(
            diag.telemetry.counter("checker.backend.scc.ok"),
            1,
            "scc backend success must be counted"
        );
    }

    #[test]
    fn auto_routes_large_systems_through_scc() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let opts = CheckOptions {
            direct_solver_limit: 0, // everything is "large"
            ..Default::default()
        };
        let (p, diag) =
            until_probabilities_diag(&d, &phi, &target, &opts, &Budget::unlimited()).unwrap();
        assert!((p[2] - 0.5).abs() < 1e-9);
        assert_eq!(diag.telemetry.counter("checker.backend.scc.ok"), 1);
        assert!(diag.fallbacks.is_empty(), "scc handled it: {:?}", diag.fallbacks);
    }

    #[test]
    fn interval_solver_matches_direct_and_counts() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let iv = CheckOptions { solver: crate::LinearSolver::Interval, ..Default::default() };
        let direct = CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() };
        let (p, diag) =
            until_probabilities_diag(&d, &phi, &target, &iv, &Budget::unlimited()).unwrap();
        let exact = until_probabilities(&d, &phi, &target, &direct).unwrap();
        for (a, b) in p.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert_eq!(diag.telemetry.counter("checker.backend.interval.ok"), 1);
    }

    #[test]
    fn interval_solver_handles_rewards() {
        let d = gambler();
        let target =
            zip_masks(d.labeling().mask("rich"), d.labeling().mask("broke"), |a, b| a || b);
        let rewards = d.reward_structure("steps").unwrap();
        let iv = CheckOptions { solver: crate::LinearSolver::Interval, ..Default::default() };
        let r = reach_rewards(&d, rewards, &target, &iv).unwrap();
        // Symmetric gambler: expected steps from the middle state is 4.
        assert!((r[2] - 4.0).abs() < 1e-7, "got {}", r[2]);
    }

    #[test]
    fn bounds_bracket_the_direct_solution() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let opts = CheckOptions::default();
        let (lo, hi, diag) =
            until_probabilities_bounds(&d, &phi, &target, &opts, &Budget::unlimited()).unwrap();
        let exact = until_probabilities(
            &d,
            &phi,
            &target,
            &CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() },
        )
        .unwrap();
        for s in 0..5 {
            assert!(lo[s] <= exact[s] + 1e-9, "state {s}: lo {} vs exact {}", lo[s], exact[s]);
            assert!(exact[s] <= hi[s] + 1e-9, "state {s}: exact {} vs hi {}", exact[s], hi[s]);
            assert!(hi[s] - lo[s] <= opts.tolerance + 1e-12);
        }
        assert!(!diag.degraded());
    }

    #[test]
    fn starved_bounds_stay_sound_just_wider() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let opts = CheckOptions::default();
        let budget = Budget::unlimited().with_max_evaluations(1);
        let (lo, hi, diag) = until_probabilities_bounds(&d, &phi, &target, &opts, &budget).unwrap();
        assert_eq!(diag.exhausted, Some(tml_numerics::Exhaustion::Evaluations));
        let exact = until_probabilities(
            &d,
            &phi,
            &target,
            &CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() },
        )
        .unwrap();
        for s in 0..5 {
            assert!(lo[s] <= exact[s] + 1e-9 && exact[s] <= hi[s] + 1e-9, "state {s}");
        }
    }

    #[test]
    fn explicit_gauss_seidel_keeps_strict_error() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let starved = CheckOptions {
            solver: crate::LinearSolver::GaussSeidel,
            max_iterations: 2,
            tolerance: 1e-12,
            ..Default::default()
        };
        let err = until_probabilities(&d, &phi, &target, &starved).unwrap_err();
        match err {
            CheckError::Numerics(NumericsError::NoConvergence { residual, .. }) => {
                assert!(!residual.is_nan(), "real residual must be reported");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_returns_best_effort() {
        let d = gambler();
        let phi = vec![true; 5];
        let target = d.labeling().mask("rich");
        let opts = CheckOptions {
            solver: crate::LinearSolver::GaussSeidel,
            tolerance: 1e-12,
            ..Default::default()
        };
        let budget = Budget::unlimited().with_max_evaluations(1);
        let (p, diag) = until_probabilities_diag(&d, &phi, &target, &opts, &budget).unwrap();
        assert_eq!(diag.exhausted, Some(tml_numerics::Exhaustion::Evaluations));
        assert!(diag.evaluations <= 1);
        assert!(diag.degraded());
        // Probabilities remain well-formed even when degraded.
        for v in &p {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn nested_prob_operator() {
        let d = gambler();
        // States from which we will (p >= 0.75) reach a state that itself
        // reaches "rich" with p >= 0.75: inner sat = {3, 4}.
        let f = parse_formula("P>=0.75 [ F P>=0.75 [ F \"rich\" ] ]").unwrap();
        let sat = evaluate(&d, &f, &CheckOptions::default()).unwrap();
        // P(F {3,4}) from 2 = 0.75? Hitting {3,4} from 2: p = 2/3... compute:
        // from 2: h2 = 0.5 + 0.5*h1; h1 = 0.5*h2 + 0.5*0 => h2 = 2/3.
        assert!(!sat[2]);
        assert!(sat[3] && sat[4]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tml_models::DtmcBuilder;

    fn random_chain(seed: &[f64], n: usize) -> Dtmc {
        let mut b = DtmcBuilder::new(n);
        let mut k = 0;
        for s in 0..n {
            let t1 = ((seed[k] * n as f64) as usize).min(n - 1);
            let t2 = ((seed[k + 1] * n as f64) as usize).min(n - 1);
            let p = 0.05 + 0.9 * seed[k + 2];
            k += 3;
            if t1 == t2 {
                b.transition(s, t1, 1.0).unwrap();
            } else {
                b.transition(s, t1, p).unwrap();
                b.transition(s, t2, 1.0 - p).unwrap();
            }
        }
        b.label(n - 1, "goal").unwrap();
        b.build().unwrap()
    }

    proptest! {
        /// Until probabilities are in [0,1], 1 on prob1 states, 0 on prob0
        /// states, and bounded-until approaches unbounded from below.
        #[test]
        fn until_probability_invariants(seed in proptest::collection::vec(0.0_f64..1.0, 24)) {
            let n = 8;
            let d = random_chain(&seed, n);
            let opts = CheckOptions::default();
            let phi = vec![true; n];
            let target = d.labeling().mask("goal");
            let p = until_probabilities(&d, &phi, &target, &opts).unwrap();
            let p0 = tml_models::graph::prob0(&d, &phi, &target);
            let p1 = tml_models::graph::prob1(&d, &phi, &target);
            for s in 0..n {
                prop_assert!((0.0..=1.0).contains(&p[s]));
                if p0[s] { prop_assert!(p[s] == 0.0); }
                if p1[s] { prop_assert!((p[s] - 1.0).abs() < 1e-9); }
            }
            let bounded = bounded_until_probabilities(&d, &phi, &target, 64);
            for s in 0..n {
                prop_assert!(bounded[s] <= p[s] + 1e-9);
            }
        }

        /// P(F goal) computed by the direct solver matches Gauss–Seidel,
        /// and both satisfy the fixed-point equation x = P·x on maybe
        /// states (residual check).
        #[test]
        fn solvers_agree_and_satisfy_fixed_point(seed in proptest::collection::vec(0.0_f64..1.0, 24)) {
            let n = 8;
            let d = random_chain(&seed, n);
            let phi = vec![true; n];
            let target = d.labeling().mask("goal");
            let direct = until_probabilities(&d, &phi, &target,
                &CheckOptions { solver: crate::LinearSolver::Direct, ..Default::default() }).unwrap();
            let gs = until_probabilities(&d, &phi, &target,
                &CheckOptions { solver: crate::LinearSolver::GaussSeidel, tolerance: 1e-13, ..Default::default() }).unwrap();
            for s in 0..n {
                prop_assert!((direct[s] - gs[s]).abs() < 1e-6,
                    "state {}: direct {} vs gauss-seidel {}", s, direct[s], gs[s]);
            }
            // Fixed point: for non-target states with 0 < p < 1 the value
            // equals the expected successor value.
            for s in 0..n {
                if !target[s] && direct[s] > 1e-9 && direct[s] < 1.0 - 1e-9 {
                    let expect: f64 = d.successors(s).map(|(t, p)| p * direct[t]).sum();
                    prop_assert!((direct[s] - expect).abs() < 1e-8,
                        "fixed point violated at {}: {} vs {}", s, direct[s], expect);
                }
            }
        }
    }
}

/// The transient state distribution after exactly `k` steps, starting from
/// the chain's initial state.
pub fn transient_distribution(model: &Dtmc, k: u64) -> Vec<f64> {
    let n = model.num_states();
    let mut dist = vec![0.0; n];
    dist[model.initial_state()] = 1.0;
    for _ in 0..k {
        let mut next = vec![0.0; n];
        for (s, &d) in dist.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            for (t, p) in model.successors(s) {
                next[t] += d * p;
            }
        }
        dist = next;
    }
    dist
}

/// The steady-state distribution of an (assumed ergodic) chain by power
/// iteration from the uniform distribution.
///
/// # Errors
///
/// Returns a wrapped [`NumericsError::NoConvergence`]
/// if the iterates do not settle — e.g. for periodic or reducible chains
/// whose limit distribution depends on the start.
pub fn steady_state(model: &Dtmc, opts: &CheckOptions) -> Result<Vec<f64>, CheckError> {
    let n = model.num_states();
    let mut dist = vec![1.0 / n as f64; n];
    let mut last_delta = f64::INFINITY;
    for _ in 0..opts.max_iterations {
        let mut next = vec![0.0; n];
        for (s, &d) in dist.iter().enumerate() {
            for (t, p) in model.successors(s) {
                next[t] += d * p;
            }
        }
        last_delta = dist.iter().zip(&next).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        dist = next;
        if last_delta <= opts.tolerance {
            return Ok(dist);
        }
    }
    Err(NumericsError::NoConvergence { iterations: opts.max_iterations, residual: last_delta }
        .into())
}

#[cfg(test)]
mod distribution_tests {
    use super::*;
    use tml_models::DtmcBuilder;

    #[test]
    fn transient_distribution_steps() {
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 0, 1.0).unwrap();
        let d = b.build().unwrap();
        assert_eq!(transient_distribution(&d, 0), vec![1.0, 0.0]);
        assert_eq!(transient_distribution(&d, 1), vec![0.0, 1.0]);
        assert_eq!(transient_distribution(&d, 2), vec![1.0, 0.0]);
    }

    #[test]
    fn steady_state_of_two_state_chain() {
        // p(0->1)=0.2, p(1->0)=0.4: stationary = (2/3, 1/3).
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 0, 0.8).unwrap();
        b.transition(0, 1, 0.2).unwrap();
        b.transition(1, 0, 0.4).unwrap();
        b.transition(1, 1, 0.6).unwrap();
        let d = b.build().unwrap();
        let pi = steady_state(&d, &CheckOptions::default()).unwrap();
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-8, "pi = {pi:?}");
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-8);
        // It is a fixed point of the transition operator.
        let stepped: f64 =
            d.successors(0).map(|(t, p)| if t == 0 { p * pi[0] } else { 0.0 }).sum::<f64>()
                + d.successors(1).map(|(t, p)| if t == 0 { p * pi[1] } else { 0.0 }).sum::<f64>();
        assert!((stepped - pi[0]).abs() < 1e-8);
    }

    #[test]
    fn steady_state_periodic_chain_fails() {
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 0, 1.0).unwrap();
        let d = b.build().unwrap();
        // The period-2 chain oscillates from most starts, but power
        // iteration from uniform is exactly at the fixed point (0.5, 0.5).
        let pi = steady_state(&d, &CheckOptions::default()).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
        // From a non-uniform start the oscillation is visible via
        // transient distributions instead.
        assert_ne!(transient_distribution(&d, 1), transient_distribution(&d, 2));
    }
}

/// Extracts a *witness path*: the most probable path from `from` to a
/// `target` state, by Dijkstra over `−ln p` edge weights. Returns `None`
/// when no target is reachable.
///
/// Useful as a diagnostic when a lower-bounded property fails — the
/// returned path shows one concrete high-probability way the chain behaves.
pub fn most_probable_path(model: &Dtmc, from: usize, target: &[bool]) -> Option<(Vec<usize>, f64)> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry {
        cost: f64,
        state: usize,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on cost.
            other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = model.num_states();
    assert_eq!(target.len(), n, "target mask length");
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[from] = 0.0;
    heap.push(Entry { cost: 0.0, state: from });
    while let Some(Entry { cost, state }) = heap.pop() {
        if cost > dist[state] {
            continue;
        }
        if target[state] {
            let mut path = vec![state];
            let mut cur = state;
            while prev[cur] != usize::MAX {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some((path, (-cost).exp()));
        }
        for (t, p) in model.successors(state) {
            if p <= 0.0 {
                continue;
            }
            let next_cost = cost - p.ln();
            if next_cost < dist[t] {
                dist[t] = next_cost;
                prev[t] = state;
                heap.push(Entry { cost: next_cost, state: t });
            }
        }
    }
    None
}

/// Expected number of visits to each state before absorption in `target`,
/// starting from the initial state (the fundamental-matrix row). States
/// from which `target` is unreachable report infinity.
///
/// Always solved directly (the occupancy system is transposed, which the
/// iterative kernels do not cover); `_opts` is accepted for signature
/// symmetry with the other solvers.
///
/// # Errors
///
/// Returns a [`CheckError`] if the linear solver fails.
pub fn expected_visits(
    model: &Dtmc,
    target: &[bool],
    _opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    let n = model.num_states();
    assert_eq!(target.len(), n, "target mask length");
    let phi = vec![true; n];
    let one = graph::prob1(model, &phi, target);
    if !one[model.initial_state()] {
        return Ok(vec![f64::INFINITY; n]);
    }
    // Transient states reachable before absorption.
    let transient: Vec<usize> = (0..n).filter(|&s| one[s] && !target[s]).collect();
    let index = {
        let mut idx = vec![None; n];
        for (i, &s) in transient.iter().enumerate() {
            idx[s] = Some(i);
        }
        idx
    };
    let m = transient.len();
    let mut visits = vec![0.0; n];
    if m == 0 {
        return Ok(visits);
    }
    // Solve x = xᵀQ + e_init  ⇔  (I − Qᵀ) x = e_init.
    let mut a = DenseMatrix::<f64>::identity(m);
    for (j, &s) in transient.iter().enumerate() {
        for (t, p) in model.successors(s) {
            if let Some(i) = index[t] {
                let cur = *a.get(i, j);
                a.set(i, j, cur - p);
            }
        }
    }
    let mut b = vec![0.0; m];
    if let Some(i0) = index[model.initial_state()] {
        b[i0] = 1.0;
    }
    let sol = solve_dense(&a, &b)?;
    for (i, &s) in transient.iter().enumerate() {
        visits[s] = sol[i].max(0.0);
    }
    Ok(visits)
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use tml_models::DtmcBuilder;

    fn fork() -> Dtmc {
        // 0 -> 1 (0.7) -> 3; 0 -> 2 (0.3) -> 3; 3 absorbing target.
        let mut b = DtmcBuilder::new(4);
        b.transition(0, 1, 0.7).unwrap();
        b.transition(0, 2, 0.3).unwrap();
        b.transition(1, 3, 1.0).unwrap();
        b.transition(2, 3, 1.0).unwrap();
        b.transition(3, 3, 1.0).unwrap();
        b.label(3, "goal").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn witness_takes_likelier_branch() {
        let d = fork();
        let (path, prob) = most_probable_path(&d, 0, &d.labeling().mask("goal")).unwrap();
        assert_eq!(path, vec![0, 1, 3]);
        assert!((prob - 0.7).abs() < 1e-12);
    }

    #[test]
    fn witness_none_when_unreachable() {
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 0, 1.0).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.label(1, "goal").unwrap();
        let d = b.build().unwrap();
        assert!(most_probable_path(&d, 0, &d.labeling().mask("goal")).is_none());
    }

    #[test]
    fn witness_from_target_state_is_trivial() {
        let d = fork();
        let (path, prob) = most_probable_path(&d, 3, &d.labeling().mask("goal")).unwrap();
        assert_eq!(path, vec![3]);
        assert_eq!(prob, 1.0);
    }

    #[test]
    fn expected_visits_fundamental_matrix() {
        // Retry chain: 0 stays with 0.5, moves to 1 (target) with 0.5.
        // E[visits to 0] = 2 (geometric), E[visits to 1 pre-absorption] = 0.
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 0, 0.5).unwrap();
        b.transition(0, 1, 0.5).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.label(1, "goal").unwrap();
        let d = b.build().unwrap();
        let v = expected_visits(&d, &d.labeling().mask("goal"), &CheckOptions::default()).unwrap();
        assert!((v[0] - 2.0).abs() < 1e-9, "v = {v:?}");
        assert_eq!(v[1], 0.0);
    }

    #[test]
    fn expected_visits_match_reward_decomposition() {
        // E[total reward] = Σ_s visits(s) · r(s): cross-check the two
        // independent solvers on the fork chain with unit rewards.
        let mut b = DtmcBuilder::new(4);
        b.transition(0, 1, 0.7).unwrap();
        b.transition(0, 2, 0.3).unwrap();
        b.transition(1, 0, 0.5).unwrap();
        b.transition(1, 3, 0.5).unwrap();
        b.transition(2, 3, 1.0).unwrap();
        b.transition(3, 3, 1.0).unwrap();
        b.label(3, "goal").unwrap();
        for s in 0..3 {
            b.state_reward("steps", s, 1.0).unwrap();
        }
        let d = b.build().unwrap();
        let opts = CheckOptions::default();
        let target = d.labeling().mask("goal");
        let visits = expected_visits(&d, &target, &opts).unwrap();
        let reward =
            reach_rewards(&d, d.reward_structure("steps").unwrap(), &target, &opts).unwrap();
        let via_visits: f64 = visits.iter().take(3).sum();
        assert!(
            (via_visits - reward[0]).abs() < 1e-9,
            "visits {via_visits} vs reward {}",
            reward[0]
        );
    }

    #[test]
    fn expected_visits_infinite_when_absorption_uncertain() {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.5).unwrap();
        b.transition(0, 2, 0.5).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.label(1, "goal").unwrap();
        let d = b.build().unwrap();
        let v = expected_visits(&d, &d.labeling().mask("goal"), &CheckOptions::default()).unwrap();
        assert!(v[0].is_infinite());
    }
}
