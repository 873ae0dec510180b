//! PCTL model checking for Markov decision processes.
//!
//! Probabilities and expected rewards are optimized over memoryless
//! deterministic schedulers (sufficient for PCTL) by value iteration, after
//! the qualitative sets have been fixed by the graph precomputations.
//!
//! # Reward caveat
//!
//! Minimum expected reachability rewards (`Rmin[F target]`) are computed by
//! value iteration from below, which is exact whenever every end component
//! that avoids the target accumulates positive reward (true for all models
//! in this workspace, where each step costs at least one "attempt"). Models
//! with zero-reward cycles outside the target can make the least fixpoint
//! undershoot; this matches the standard explicit-engine behaviour.

use tml_logic::{CmpOp, Opt, PathFormula, RewardKind};
use tml_models::{graph, Labeling, Mdp, RewardStructure};
use tml_numerics::{Budget, Diagnostics, NumericsError};

use crate::formula::{mask, point_verdict};
use crate::run::CheckRun;
use crate::{lookup_rewards, CheckError, CheckOptions, Checkable};

impl Checkable for Mdp {
    type Values = Vec<f64>;
    const KIND: &'static str = "mdp";
    const QUERY_NEEDS_OPT: bool = true;

    fn num_states(&self) -> usize {
        Mdp::num_states(self)
    }

    fn initial_state(&self) -> usize {
        Mdp::initial_state(self)
    }

    fn labeling(&self) -> &Labeling {
        Mdp::labeling(self)
    }

    fn path_values(
        &self,
        path: &PathFormula,
        opt: Opt,
        run: &CheckRun<'_>,
    ) -> Result<Vec<f64>, CheckError> {
        path_probabilities_run(self, path, opt, run)
    }

    fn reward_values(
        &self,
        structure: Option<&str>,
        kind: &RewardKind,
        opt: Opt,
        run: &CheckRun<'_>,
    ) -> Result<Vec<f64>, CheckError> {
        let rewards = lookup_rewards(
            structure,
            |n| self.reward_structure(n).ok(),
            self.default_reward_structure(),
        )?;
        match kind {
            RewardKind::Reach(target) => {
                reach_rewards_run(self, rewards, &mask(self, target, run)?, opt, run)
            }
            RewardKind::Cumulative(k) => Ok(cumulative_rewards(self, rewards, *k, opt)),
        }
    }

    fn verdict(values: &Vec<f64>, op: CmpOp, bound: f64, opts: &CheckOptions) -> Vec<bool> {
        point_verdict(values, op, bound, opts)
    }
}

/// Optimal (min or max over schedulers) probability of a path formula.
///
/// # Errors
///
/// Returns a [`CheckError`] on numeric failures.
pub fn path_probabilities(
    model: &Mdp,
    path: &PathFormula,
    opt: Opt,
    opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    path_probabilities_run(model, path, opt, &run)
}

pub(crate) fn path_probabilities_run(
    model: &Mdp,
    path: &PathFormula,
    opt: Opt,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    let n = model.num_states();
    match path {
        PathFormula::Next(f) => {
            let target = mask(model, f, run)?;
            Ok(next_probabilities(model, &target, opt))
        }
        PathFormula::Until { lhs, rhs, bound } => {
            let phi = mask(model, lhs, run)?;
            let target = mask(model, rhs, run)?;
            match bound {
                Some(k) => Ok(bounded_until_probabilities(model, &phi, &target, *k, opt)),
                None => until_probabilities_run(model, &phi, &target, opt, run),
            }
        }
        PathFormula::Eventually { sub, bound } => {
            let target = mask(model, sub, run)?;
            let phi = vec![true; n];
            match bound {
                Some(k) => Ok(bounded_until_probabilities(model, &phi, &target, *k, opt)),
                None => until_probabilities_run(model, &phi, &target, opt, run),
            }
        }
        PathFormula::Globally { sub, bound } => {
            // Optimal G-probabilities dualize: max P(G φ) = 1 − min P(F ¬φ).
            let inv: Vec<bool> = mask(model, sub, run)?.iter().map(|b| !b).collect();
            let phi = vec![true; n];
            let dual = match opt {
                Opt::Max => Opt::Min,
                Opt::Min => Opt::Max,
            };
            let f_not = match bound {
                Some(k) => bounded_until_probabilities(model, &phi, &inv, *k, dual),
                None => until_probabilities_run(model, &phi, &inv, dual, run)?,
            };
            Ok(f_not.iter().map(|p| 1.0 - p).collect())
        }
    }
}

/// Optimal `P(X target)` per state.
pub fn next_probabilities(model: &Mdp, target: &[bool], opt: Opt) -> Vec<f64> {
    (0..model.num_states())
        .map(|s| {
            let per_choice = model.choices(s).iter().map(|c| {
                c.transitions.iter().filter(|&&(t, _)| target[t]).map(|&(_, p)| p).sum::<f64>()
            });
            opt_fold(per_choice, opt)
        })
        .collect()
}

/// Optimal `P(φ U≤k ψ)` per state.
pub fn bounded_until_probabilities(
    model: &Mdp,
    phi: &[bool],
    target: &[bool],
    k: u64,
    opt: Opt,
) -> Vec<f64> {
    let n = model.num_states();
    let mut x: Vec<f64> = target.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
    for _ in 0..k {
        let mut next = vec![0.0; n];
        for s in 0..n {
            next[s] = if target[s] {
                1.0
            } else if phi[s] {
                let per_choice = model
                    .choices(s)
                    .iter()
                    .map(|c| c.transitions.iter().map(|&(t, p)| p * x[t]).sum::<f64>());
                opt_fold(per_choice, opt)
            } else {
                0.0
            };
        }
        x = next;
    }
    x
}

/// Optimal `P(φ U ψ)` per state: qualitative precomputation plus value
/// iteration on the maybe-states.
///
/// # Errors
///
/// Returns a wrapped [`NumericsError::NoConvergence`] if value iteration
/// exhausts its budget.
pub fn until_probabilities(
    model: &Mdp,
    phi: &[bool],
    target: &[bool],
    opt: Opt,
    opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    Ok(until_probabilities_diag(model, phi, target, opt, opts, &Budget::unlimited())?.0)
}

/// Budget-aware [`until_probabilities`]: value iteration stops at the
/// budget, returning the best iterate so far with [`Diagnostics`]
/// describing the exhaustion and the residual accepted.
///
/// # Errors
///
/// Same conditions as [`until_probabilities`]; budget exhaustion is *not*
/// an error.
pub fn until_probabilities_diag(
    model: &Mdp,
    phi: &[bool],
    target: &[bool],
    opt: Opt,
    opts: &CheckOptions,
    budget: &Budget,
) -> Result<(Vec<f64>, Diagnostics), CheckError> {
    let run = CheckRun::new(opts, budget);
    let x = until_probabilities_run(model, phi, target, opt, &run)?;
    Ok((x, run.finish()))
}

pub(crate) fn until_probabilities_run(
    model: &Mdp,
    phi: &[bool],
    target: &[bool],
    opt: Opt,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    let opts = run.opts;
    let n = model.num_states();
    let _span = tml_telemetry::span!("checker.value_iteration", states = n);
    let (zero, one) = match opt {
        Opt::Max => (graph::prob0a(model, phi, target), graph::prob1e(model, phi, target)),
        Opt::Min => (graph::prob0e(model, phi, target), graph::prob1a(model, phi, target)),
    };
    let mut x: Vec<f64> = (0..n).map(|s| if one[s] { 1.0 } else { 0.0 }).collect();
    let maybe: Vec<usize> = (0..n).filter(|&s| !zero[s] && !one[s]).collect();
    if maybe.is_empty() {
        return Ok(x);
    }
    let mut last_delta = f64::INFINITY;
    for _ in 0..opts.max_iterations {
        if let Some(cause) = run.exhausted() {
            // Out of budget: the current iterate is a sound lower (Max) /
            // upper-progress approximation — return it, marked degraded.
            run.mark_exhausted(cause);
            run.record_residual(last_delta);
            return Ok(x);
        }
        run.spend(1);
        let mut delta: f64 = 0.0;
        for &s in &maybe {
            let per_choice = model
                .choices(s)
                .iter()
                .map(|c| c.transitions.iter().map(|&(t, p)| p * x[t]).sum::<f64>());
            let v = opt_fold(per_choice, opt);
            delta = delta.max((v - x[s]).abs());
            x[s] = v;
        }
        last_delta = delta;
        if delta <= opts.tolerance {
            return Ok(x);
        }
    }
    Err(NumericsError::NoConvergence { iterations: opts.max_iterations, residual: last_delta }
        .into())
}

/// Optimal expected reward until reaching `target` (`R[F target]`).
///
/// `Rmax` is infinite exactly on states where some scheduler avoids the
/// target with positive probability (`¬Prob1A`); `Rmin` is infinite where
/// no scheduler reaches it almost surely (`¬Prob1E`).
///
/// # Errors
///
/// Returns a wrapped [`NumericsError::NoConvergence`] if value iteration
/// exhausts its budget.
pub fn reach_rewards(
    model: &Mdp,
    rewards: &RewardStructure,
    target: &[bool],
    opt: Opt,
    opts: &CheckOptions,
) -> Result<Vec<f64>, CheckError> {
    let budget = Budget::unlimited();
    let run = CheckRun::new(opts, &budget);
    reach_rewards_run(model, rewards, target, opt, &run)
}

pub(crate) fn reach_rewards_run(
    model: &Mdp,
    rewards: &RewardStructure,
    target: &[bool],
    opt: Opt,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    let opts = run.opts;
    let n = model.num_states();
    let phi = vec![true; n];
    let _span = tml_telemetry::span!("checker.value_iteration", states = n);
    let finite = match opt {
        Opt::Max => graph::prob1a(model, &phi, target),
        Opt::Min => graph::prob1e(model, &phi, target),
    };
    let mut x: Vec<f64> =
        (0..n).map(|s| if target[s] || finite[s] { 0.0 } else { f64::INFINITY }).collect();
    let maybe: Vec<usize> = (0..n).filter(|&s| finite[s] && !target[s]).collect();
    if maybe.is_empty() {
        return Ok(x);
    }
    let mut last_delta = f64::INFINITY;
    for _ in 0..opts.max_iterations {
        if let Some(cause) = run.exhausted() {
            run.mark_exhausted(cause);
            run.record_residual(last_delta);
            return Ok(x);
        }
        run.spend(1);
        let mut delta: f64 = 0.0;
        for &s in &maybe {
            let per_choice = model.choices(s).iter().enumerate().map(|(ci, c)| {
                let cont: f64 = c
                    .transitions
                    .iter()
                    .map(|&(t, p)| if x[t].is_infinite() { f64::INFINITY } else { p * x[t] })
                    .sum();
                rewards.step_reward(s, ci) + cont
            });
            let v = opt_fold(per_choice, opt);
            let d = if v.is_infinite() && x[s].is_infinite() { 0.0 } else { (v - x[s]).abs() };
            delta = delta.max(d);
            x[s] = v;
        }
        last_delta = delta;
        if delta <= opts.tolerance {
            return Ok(x);
        }
    }
    Err(NumericsError::NoConvergence { iterations: opts.max_iterations, residual: last_delta }
        .into())
}

/// Optimal expected reward over the first `k` steps (`R[C<=k]`).
pub fn cumulative_rewards(model: &Mdp, rewards: &RewardStructure, k: u64, opt: Opt) -> Vec<f64> {
    let n = model.num_states();
    let mut x = vec![0.0; n];
    for _ in 0..k {
        let mut next = vec![0.0; n];
        for (s, nx) in next.iter_mut().enumerate() {
            let per_choice = model.choices(s).iter().enumerate().map(|(ci, c)| {
                rewards.step_reward(s, ci)
                    + c.transitions.iter().map(|&(t, p)| p * x[t]).sum::<f64>()
            });
            *nx = opt_fold(per_choice, opt);
        }
        x = next;
    }
    x
}

fn opt_fold(it: impl Iterator<Item = f64>, opt: Opt) -> f64 {
    match opt {
        Opt::Max => it.fold(f64::NEG_INFINITY, f64::max),
        Opt::Min => it.fold(f64::INFINITY, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckResult, Checker};
    use tml_logic::{parse_formula, parse_query, StateFormula};
    use tml_models::MdpBuilder;

    fn check(m: &Mdp, f: &StateFormula, opts: &CheckOptions) -> Result<CheckResult, CheckError> {
        Checker::with_options(*opts).check(m, f)
    }

    /// State 0 offers a safe route (0 → 1 → goal, deterministic) and a
    /// risky shortcut (0 → goal w.p. 0.6, 0 → trap w.p. 0.4).
    fn routes() -> Mdp {
        let mut b = MdpBuilder::new(4);
        b.choice(0, "safe", &[(1, 1.0)]).unwrap();
        b.choice(0, "risky", &[(2, 0.6), (3, 0.4)]).unwrap();
        b.choice(1, "go", &[(2, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.choice(3, "stay", &[(3, 1.0)]).unwrap();
        b.label(2, "goal").unwrap();
        b.state_reward("cost", 0, 1.0).unwrap();
        b.state_reward("cost", 1, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn max_and_min_reachability() {
        let m = routes();
        let opts = CheckOptions::default();
        let phi = vec![true; 4];
        let target = m.labeling().mask("goal");
        let pmax = until_probabilities(&m, &phi, &target, Opt::Max, &opts).unwrap();
        let pmin = until_probabilities(&m, &phi, &target, Opt::Min, &opts).unwrap();
        assert!((pmax[0] - 1.0).abs() < 1e-9); // safe route is certain
        assert!((pmin[0] - 0.6).abs() < 1e-9); // worst scheduler gambles
        assert_eq!(pmax[3], 0.0);
        assert_eq!(pmin[2], 1.0);
    }

    #[test]
    fn formula_checking_uses_prism_convention() {
        let m = routes();
        let opts = CheckOptions::default();
        // Lower bound → all schedulers: fails because risky gives 0.6.
        let f = parse_formula("P>=0.9 [ F \"goal\" ]").unwrap();
        assert!(!check(&m, &f, &opts).unwrap().holds());
        // Explicit max: holds.
        let f2 = parse_formula("Pmax>=0.9 [ F \"goal\" ]").unwrap();
        assert!(check(&m, &f2, &opts).unwrap().holds());
        // Upper bound → best scheduler must stay below: fails (max is 1).
        let f3 = parse_formula("P<=0.8 [ F \"goal\" ]").unwrap();
        assert!(!check(&m, &f3, &opts).unwrap().holds());
        // Explicit min below bound: holds (0.6 <= 0.8).
        let f4 = parse_formula("Pmin<=0.8 [ F \"goal\" ]").unwrap();
        assert!(check(&m, &f4, &opts).unwrap().holds());
    }

    #[test]
    fn reward_reachability_min_and_max() {
        let m = routes();
        let opts = CheckOptions::default();
        let target = m.labeling().mask("goal");
        let r = m.reward_structure("cost").unwrap();
        // Rmin: risky reaches goal w.p. 0.6 only — not a.s., so the only
        // a.s.-reaching scheduler is safe: cost 2. But wait: is risky's
        // failure absorbing? yes (trap). prob1e(0) holds via safe.
        let rmin = reach_rewards(&m, r, &target, Opt::Min, &opts).unwrap();
        assert!((rmin[0] - 2.0).abs() < 1e-9, "got {}", rmin[0]);
        // Rmax: the risky scheduler fails to reach a.s. → infinite.
        let rmax = reach_rewards(&m, r, &target, Opt::Max, &opts).unwrap();
        assert!(rmax[0].is_infinite());
        assert_eq!(rmax[2], 0.0);
    }

    #[test]
    fn reward_query_and_formula() {
        let m = routes();
        let opts = CheckOptions::default();
        let q = parse_query("R{\"cost\"}min=? [ F \"goal\" ]").unwrap();
        let (v, _) = Checker::with_options(opts).query(&m, &q).unwrap();
        assert!((v[0] - 2.0).abs() < 1e-9);
        // R<=2.5 resolves to Rmax<=2.5 which is false (Rmax = ∞ at 0).
        let f = parse_formula("R{\"cost\"}<=2.5 [ F \"goal\" ]").unwrap();
        assert!(!check(&m, &f, &opts).unwrap().holds());
        // Rmin<=2.5 holds.
        let f2 = parse_formula("R{\"cost\"}min<=2.5 [ F \"goal\" ]").unwrap();
        assert!(check(&m, &f2, &opts).unwrap().holds());
    }

    #[test]
    fn query_requires_opt() {
        let m = routes();
        let q = parse_query("P=? [ F \"goal\" ]").unwrap();
        assert!(matches!(Checker::new().query(&m, &q), Err(CheckError::MissingOpt { .. })));
    }

    #[test]
    fn bounded_until_and_next() {
        let m = routes();
        let target = m.labeling().mask("goal");
        let phi = vec![true; 4];
        // One step: risky gives 0.6, safe gives 0 → max 0.6.
        let b1 = bounded_until_probabilities(&m, &phi, &target, 1, Opt::Max);
        assert!((b1[0] - 0.6).abs() < 1e-9);
        // Two steps: safe now reaches via state 1 → max 1.0.
        let b2 = bounded_until_probabilities(&m, &phi, &target, 2, Opt::Max);
        assert!((b2[0] - 1.0).abs() < 1e-9);
        let nx = next_probabilities(&m, &target, Opt::Max);
        assert!((nx[0] - 0.6).abs() < 1e-9);
        let nn = next_probabilities(&m, &target, Opt::Min);
        assert!((nn[0] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn globally_duality() {
        let m = routes();
        let opts = CheckOptions::default();
        // Pmax(G !goal): the risky trap branch avoids the goal forever with
        // probability 0.4; looping at 3 keeps !goal. Best scheduler: risky →
        // 0.4. But a scheduler could also... safe route always hits goal.
        let f = parse_formula("Pmax>=0.4 [ G !\"goal\" ]").unwrap();
        let res = check(&m, &f, &opts).unwrap();
        assert!(res.holds());
        assert!((res.value_at_initial().unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn cumulative_rewards_opt() {
        let m = routes();
        let r = m.reward_structure("cost").unwrap();
        let cmax = cumulative_rewards(&m, r, 3, Opt::Max);
        // Max over schedulers: safe path pays 1 + 1 then 0 = 2.
        assert!((cmax[0] - 2.0).abs() < 1e-9);
        let cmin = cumulative_rewards(&m, r, 3, Opt::Min);
        // Min: risky pays only the first step's cost 1.
        assert!((cmin[0] - 1.0).abs() < 1e-9);
    }

    /// A genuinely quantitative maybe-state: state 0 spins on itself with
    /// probability 0.9 and splits the rest between goal and trap, so value
    /// iteration contracts slowly (rate 0.9) towards Pmax = 0.5.
    fn slow() -> Mdp {
        let mut b = MdpBuilder::new(3);
        b.choice(0, "spin", &[(0, 0.9), (1, 0.05), (2, 0.05)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn value_iteration_budget_exhaustion_is_best_effort() {
        let m = slow();
        let phi = vec![true; 3];
        let target = m.labeling().mask("goal");
        let opts = CheckOptions { tolerance: 1e-12, ..Default::default() };
        let budget = Budget::unlimited().with_max_evaluations(1);
        let (p, diag) =
            until_probabilities_diag(&m, &phi, &target, Opt::Max, &opts, &budget).unwrap();
        assert_eq!(diag.exhausted, Some(tml_numerics::Exhaustion::Evaluations));
        assert!(diag.degraded());
        for v in &p {
            assert!((0.0..=1.0).contains(v), "degraded VI stays well-formed: {v}");
        }
        // Unlimited budget on the same options converges fully.
        let (full, diag2) =
            until_probabilities_diag(&m, &phi, &target, Opt::Max, &opts, &Budget::unlimited())
                .unwrap();
        assert!(diag2.exhausted.is_none());
        assert!((full[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn value_iteration_exhaustion_reports_real_residual() {
        let m = slow();
        let phi = vec![true; 3];
        let target = m.labeling().mask("goal");
        // One sweep is not enough at this tolerance: iteration exhaustion
        // must carry the genuine last residual, not NaN.
        let opts = CheckOptions { tolerance: 1e-15, max_iterations: 1, ..Default::default() };
        match until_probabilities(&m, &phi, &target, Opt::Max, &opts) {
            Err(CheckError::Numerics(NumericsError::NoConvergence { residual, .. })) => {
                assert!(!residual.is_nan(), "residual must be the last delta, got NaN");
                assert!(residual.is_finite());
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn induced_dtmc_matches_mdp_under_policy() {
        let m = routes();
        let opts = CheckOptions::default();
        let chain = m.induce(&[0, 0, 0, 0]).unwrap();
        let phi = vec![true; 4];
        let target = m.labeling().mask("goal");
        let via_dtmc = crate::dtmc::until_probabilities(&chain, &phi, &target, &opts).unwrap();
        let pmax = until_probabilities(&m, &phi, &target, Opt::Max, &opts).unwrap();
        // The safe policy is optimal, so the induced chain attains Pmax.
        for (a, b) in via_dtmc.iter().zip(&pmax) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
