//! Reward Repair (Definition 2): fix a learned reward whose optimal policy
//! violates the safety rules.
//!
//! Two mechanisms from the paper:
//!
//! 1. **Posterior-regularization projection** (Proposition 4): the max-ent
//!    trajectory distribution `P(U|θ)` is projected onto the rule-consistent
//!    subspace as `Q(U) ∝ P(U)·exp(−Σ_l λ_l·[1 − φ_l(U)])`, and a repaired
//!    `θ'` is re-estimated from `Q` by feature matching
//!    ([`RewardRepair::project_and_fit`]).
//! 2. **Q-constraint repair** (the car case study, §V-B): solve
//!    `min ‖θ − θ₀‖² s.t. Q_θ(s, a⁺) > Q_θ(s, a⁻)` directly
//!    ([`RewardRepair::q_constraint_repair`]).

use tml_irl::{q_values, value_iteration, FeatureMap, ViOptions};
use tml_logic::{TraceContext, TraceFormula};
use tml_models::{Mdp, Path};
use tml_numerics::{Budget, Diagnostics};
use tml_optimizer::{ConstraintSense, Nlp, PenaltySolver};
use tml_telemetry::span;

use crate::driver::{absorb_solution, infeasible_status};
use crate::model_repair::RepairStatus;
use crate::{RepairError, RepairOptions};

/// A rule with its importance weight `λ` (paper Eq. 17–18; `λ → ∞` drives
/// violating trajectories to probability zero).
#[derive(Debug, Clone)]
pub struct WeightedRule {
    /// The finite-trace rule.
    pub rule: TraceFormula,
    /// The importance weight `λ ≥ 0`.
    pub lambda: f64,
}

impl WeightedRule {
    /// A rule with a large default weight (`λ = 50`), effectively hard.
    pub fn hard(rule: TraceFormula) -> Self {
        WeightedRule { rule, lambda: 50.0 }
    }

    /// A rule with an explicit weight.
    pub fn soft(rule: TraceFormula, lambda: f64) -> Self {
        WeightedRule { rule, lambda }
    }
}

/// Adapter exposing an MDP [`Path`] as a [`TraceContext`] so trace rules
/// can be evaluated on it (labels come from the MDP's labeling).
#[derive(Debug, Clone, Copy)]
pub struct MdpTraceView<'a> {
    mdp: &'a Mdp,
    path: &'a Path,
}

impl<'a> MdpTraceView<'a> {
    /// Wraps a path for rule evaluation against `mdp`'s labeling.
    pub fn new(mdp: &'a Mdp, path: &'a Path) -> Self {
        MdpTraceView { mdp, path }
    }
}

impl TraceContext for MdpTraceView<'_> {
    fn len(&self) -> usize {
        self.path.num_positions()
    }

    fn holds(&self, position: usize, atom: &str) -> bool {
        self.path.state(position).is_some_and(|s| self.mdp.labeling().has(s, atom))
    }

    fn action(&self, position: usize) -> Option<usize> {
        self.path.action(position)
    }
}

/// Enumerates every trajectory of exactly `horizon` transitions from
/// `from`, resolving both the action choice and the probabilistic branch at
/// every step.
///
/// The number of trajectories is exponential in `horizon`; intended for the
/// small controller MDPs the paper studies (the car model has ≤ 3 actions
/// and deterministic transitions, giving `3^h` trajectories).
pub fn enumerate_trajectories(mdp: &Mdp, from: usize, horizon: usize) -> Vec<Path> {
    let mut out = Vec::new();
    let mut states = vec![from];
    let mut actions = Vec::new();
    fn rec(
        mdp: &Mdp,
        horizon: usize,
        states: &mut Vec<usize>,
        actions: &mut Vec<usize>,
        out: &mut Vec<Path>,
    ) {
        if actions.len() == horizon {
            out.push(Path { states: states.clone(), actions: actions.clone() });
            return;
        }
        let s = *states.last().expect("non-empty");
        for choice in mdp.choices(s) {
            for &(t, p) in &choice.transitions {
                if p == 0.0 {
                    continue;
                }
                actions.push(choice.action);
                states.push(t);
                rec(mdp, horizon, states, actions, out);
                states.pop();
                actions.pop();
            }
        }
    }
    rec(mdp, horizon, &mut states, &mut actions, &mut out);
    out
}

/// The unnormalized max-ent log-weight of a trajectory (paper Eq. 16):
/// `Σ_i θᵀ f(s_i) + Σ_i ln P(s_{i+1} | s_i, a_i)`.
///
/// # Panics
///
/// Panics if the path's actions are unavailable in the MDP.
pub fn trajectory_log_weight(mdp: &Mdp, features: &FeatureMap, theta: &[f64], path: &Path) -> f64 {
    let mut lw = 0.0;
    for &s in &path.states {
        lw += features.reward(s, theta);
    }
    for i in 0..path.len() {
        let (s, a, t) = (path.states[i], path.actions[i], path.states[i + 1]);
        let c = mdp.choice_for_action(s, a).expect("action available in state");
        let p = mdp.choices(s)[c]
            .transitions
            .iter()
            .find(|&&(x, _)| x == t)
            .map(|&(_, p)| p)
            .unwrap_or(0.0);
        lw += p.ln();
    }
    lw
}

/// Proposition 4: projects trajectory probabilities onto the rule-consistent
/// subspace, `Q(U) ∝ P(U)·exp(−Σ_l λ_l [1 − φ_l(U)])`, and normalizes.
///
/// `base_probs` need not be normalized; the result always is (when the
/// total mass is positive).
pub fn project_distribution(
    mdp: &Mdp,
    paths: &[Path],
    base_probs: &[f64],
    rules: &[WeightedRule],
) -> Vec<f64> {
    assert_eq!(paths.len(), base_probs.len(), "one probability per path");
    let mut q: Vec<f64> = paths
        .iter()
        .zip(base_probs)
        .map(|(path, &p)| {
            let view = MdpTraceView::new(mdp, path);
            let penalty: f64 =
                rules.iter().map(|r| if r.rule.eval(&view, 0) { 0.0 } else { r.lambda }).sum();
            p * (-penalty).exp()
        })
        .collect();
    let total: f64 = q.iter().sum();
    if total > 0.0 {
        for v in q.iter_mut() {
            *v /= total;
        }
    }
    q
}

/// Outcome of the projection-based reward repair.
#[derive(Debug, Clone)]
pub struct RewardRepairOutcome {
    /// The repaired weight vector `θ'`.
    pub theta: Vec<f64>,
    /// The original weights `θ₀`.
    pub base_theta: Vec<f64>,
    /// Probability mass on rule-violating trajectories under `P(·|θ₀)`.
    pub violation_mass_before: f64,
    /// The same mass under the repaired distribution `P(·|θ')`.
    pub violation_mass_after: f64,
    /// `KL(Q ‖ P)` of the projection step (how far the rules pushed the
    /// distribution).
    pub kl_divergence: f64,
    /// Number of trajectories the distributions were computed over.
    pub num_trajectories: usize,
    /// What the repair spent and whether the feature-matching fit was
    /// truncated by the budget.
    pub diagnostics: Diagnostics,
}

/// Outcome of the Q-constraint reward repair.
#[derive(Debug, Clone)]
pub struct QConstraintOutcome {
    /// How the attempt concluded.
    pub status: RepairStatus,
    /// The repaired weights.
    pub theta: Vec<f64>,
    /// `‖θ − θ₀‖²`.
    pub cost: f64,
    /// Whether all constraints hold at the returned `θ` (re-checked by
    /// value iteration).
    pub verified: bool,
    /// Optimizer evaluations spent.
    pub evaluations: usize,
    /// What the repair spent and which degradation paths were taken.
    pub diagnostics: Diagnostics,
}

/// One Q-value ordering constraint: in `state`, the Q-value of choice
/// `better` must exceed that of `worse` by at least `margin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QConstraint {
    /// The state the constraint speaks about.
    pub state: usize,
    /// Choice index that must win.
    pub better: usize,
    /// Choice index that must lose.
    pub worse: usize,
    /// Required Q-value gap (≥ 0).
    pub margin: f64,
}

/// The Reward Repair algorithm.
#[derive(Debug, Clone, Default)]
pub struct RewardRepair {
    opts: RepairOptions,
    budget: Budget,
}

impl RewardRepair {
    /// A repairer with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A repairer with explicit options.
    pub fn with_options(opts: RepairOptions) -> Self {
        RewardRepair { opts, budget: Budget::unlimited() }
    }

    /// Bounds the repair by an execution budget. When it runs out, the
    /// repair returns the best `θ` found so far (with
    /// [`RepairStatus::BudgetExhausted`] on the Q-constraint path) instead
    /// of erroring or hanging.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Projection-based repair (Proposition 4): enumerate trajectories,
    /// project their distribution onto the rules, and re-fit `θ` by
    /// feature matching against the projected distribution.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::InvalidInput`] for an empty rule set, a
    /// zero horizon, or mismatched feature dimensions.
    pub fn project_and_fit(
        &self,
        mdp: &Mdp,
        features: &FeatureMap,
        theta0: &[f64],
        rules: &[WeightedRule],
        horizon: usize,
    ) -> Result<RewardRepairOutcome, RepairError> {
        if rules.is_empty() {
            return Err(RepairError::InvalidInput { detail: "no rules given".into() });
        }
        if horizon == 0 {
            return Err(RepairError::InvalidInput { detail: "horizon must be positive".into() });
        }
        let _span = span!("reward_repair.project_and_fit", rules = rules.len(), horizon = horizon);
        if features.dim() != theta0.len() {
            return Err(RepairError::InvalidInput {
                detail: format!(
                    "theta has {} entries, features have dim {}",
                    theta0.len(),
                    features.dim()
                ),
            });
        }
        let paths = enumerate_trajectories(mdp, mdp.initial_state(), horizon);
        let p = normalized_weights(mdp, features, theta0, &paths);
        let q = project_distribution(mdp, &paths, &p, rules);

        // KL(Q ‖ P).
        let kl: f64 = q
            .iter()
            .zip(&p)
            .filter(|(&qi, &pi)| qi > 0.0 && pi > 0.0)
            .map(|(&qi, &pi)| qi * (qi / pi).ln())
            .sum();

        // Re-fit θ to Q by feature matching: maximize Σ_U Q(U) log P_θ(U).
        let mut diag = Diagnostics::new();
        let theta = fit_theta(mdp, features, theta0, &paths, &q, &self.budget, &mut diag);

        let p_after = normalized_weights(mdp, features, &theta, &paths);
        let violation = |dist: &[f64]| -> f64 {
            paths
                .iter()
                .zip(dist)
                .filter(|(path, _)| {
                    let view = MdpTraceView::new(mdp, path);
                    rules.iter().any(|r| !r.rule.eval(&view, 0))
                })
                .map(|(_, &pr)| pr)
                .sum()
        };
        Ok(RewardRepairOutcome {
            theta,
            base_theta: theta0.to_vec(),
            violation_mass_before: violation(&p),
            violation_mass_after: violation(&p_after),
            kl_divergence: kl,
            num_trajectories: paths.len(),
            diagnostics: diag,
        })
    }

    /// Direct Q-constraint repair: `min ‖θ − θ₀‖²` subject to
    /// `Q_θ(s, better) ≥ Q_θ(s, worse) + margin` for every constraint,
    /// where `Q_θ` comes from value iteration under the linear reward
    /// `θᵀ f(s)` with discount `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::InvalidInput`] for bad shapes/indices, plus
    /// optimizer errors.
    pub fn q_constraint_repair(
        &self,
        mdp: &Mdp,
        features: &FeatureMap,
        theta0: &[f64],
        constraints: &[QConstraint],
        gamma: f64,
        radius: f64,
    ) -> Result<QConstraintOutcome, RepairError> {
        if features.dim() != theta0.len() {
            return Err(RepairError::InvalidInput {
                detail: format!(
                    "theta has {} entries, features have dim {}",
                    theta0.len(),
                    features.dim()
                ),
            });
        }
        for c in constraints {
            if c.state >= mdp.num_states()
                || c.better >= mdp.num_choices(c.state)
                || c.worse >= mdp.num_choices(c.state)
            {
                return Err(RepairError::InvalidInput {
                    detail: format!("constraint addresses invalid state/choice: {c:?}"),
                });
            }
        }
        let _span = span!(
            "reward_repair.q_constraint",
            constraints = constraints.len(),
            dim = theta0.len()
        );
        // Short-circuit when θ₀ already satisfies everything.
        if q_constraints_hold(mdp, features, theta0, constraints, gamma) {
            return Ok(QConstraintOutcome {
                status: RepairStatus::AlreadySatisfied,
                theta: theta0.to_vec(),
                cost: 0.0,
                verified: true,
                evaluations: 0,
                diagnostics: Diagnostics::new(),
            });
        }

        let d = theta0.len();
        let bounds: Vec<(f64, f64)> = theta0.iter().map(|&t| (t - radius, t + radius)).collect();
        let mut nlp = Nlp::new(d, bounds)?;
        {
            let t0 = theta0.to_vec();
            let t0_grad = t0.clone();
            nlp.objective_with_grad(
                move |t| t.iter().zip(&t0).map(|(a, b)| (a - b).powi(2)).sum(),
                move |t, grad| {
                    for ((g, &ti), &bi) in grad.iter_mut().zip(t).zip(&t0_grad) {
                        *g = 2.0 * (ti - bi);
                    }
                },
            );
        }
        for (i, c) in constraints.iter().enumerate() {
            let m = mdp.clone();
            let fm = features.clone();
            let qc = *c;
            nlp.constraint(&format!("q{i}"), ConstraintSense::Ge, qc.margin, move |theta| {
                q_gap(&m, &fm, theta, &qc, gamma)
            });
        }
        let mut solver =
            PenaltySolver::with_options(self.opts.solver).with_budget(self.budget.clone());
        solver.start_from(theta0.to_vec());
        let sol = solver.solve(&nlp)?;
        let mut diag = Diagnostics::new();
        absorb_solution(&mut diag, &sol);
        let cost: f64 = sol.x.iter().zip(theta0).map(|(a, b)| (a - b).powi(2)).sum();
        if !sol.feasible {
            return Ok(QConstraintOutcome {
                status: infeasible_status(&sol),
                theta: sol.x,
                cost,
                verified: false,
                evaluations: sol.evaluations,
                diagnostics: diag,
            });
        }
        let verified = q_constraints_hold(mdp, features, &sol.x, constraints, gamma);
        Ok(QConstraintOutcome {
            status: RepairStatus::Repaired,
            theta: sol.x,
            cost,
            verified,
            evaluations: sol.evaluations,
            diagnostics: diag,
        })
    }
}

/// Samples `count` trajectories of `horizon` transitions from the max-ent
/// soft policy under `theta` — the sampling approximation the paper
/// prescribes when the trajectory space is too large to enumerate ("this
/// can be approximated by samples of trajectories drawn from the MDP").
///
/// # Errors
///
/// Propagates soft-policy failures (mismatched feature dimensions).
pub fn sample_trajectories<R: rand::Rng + ?Sized>(
    mdp: &Mdp,
    features: &FeatureMap,
    theta: &[f64],
    count: usize,
    horizon: usize,
    rng: &mut R,
) -> Result<Vec<Path>, RepairError> {
    let rewards = features.rewards(theta);
    let policy = tml_irl::soft_policy(mdp, &rewards, horizon).map_err(RepairError::Irl)?;
    Ok((0..count)
        .map(|_| mdp.sample_path(rng, horizon, |r, s| policy.sample(r, s), |_| false))
        .collect())
}

impl RewardRepair {
    /// Sampling variant of [`RewardRepair::project_and_fit`]: instead of
    /// enumerating every trajectory, draw `num_samples` trajectories from
    /// the max-ent policy under `theta0` (so the empirical distribution
    /// approximates `P(·|θ₀)`), project the *empirical* distribution onto
    /// the rules, and re-fit `θ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RewardRepair::project_and_fit`].
    #[allow(clippy::too_many_arguments)]
    pub fn project_and_fit_sampled<R: rand::Rng + ?Sized>(
        &self,
        mdp: &Mdp,
        features: &FeatureMap,
        theta0: &[f64],
        rules: &[WeightedRule],
        horizon: usize,
        num_samples: usize,
        rng: &mut R,
    ) -> Result<RewardRepairOutcome, RepairError> {
        if rules.is_empty() {
            return Err(RepairError::InvalidInput { detail: "no rules given".into() });
        }
        if horizon == 0 || num_samples == 0 {
            return Err(RepairError::InvalidInput {
                detail: "horizon and sample count must be positive".into(),
            });
        }
        if features.dim() != theta0.len() {
            return Err(RepairError::InvalidInput {
                detail: format!(
                    "theta has {} entries, features have dim {}",
                    theta0.len(),
                    features.dim()
                ),
            });
        }
        let _span = span!(
            "reward_repair.project_and_fit_sampled",
            rules = rules.len(),
            samples = num_samples
        );
        let paths = sample_trajectories(mdp, features, theta0, num_samples, horizon, rng)?;
        // Empirical draws from (approximately) P(·|θ₀): uniform weights.
        let p = vec![1.0 / paths.len() as f64; paths.len()];
        let q = project_distribution(mdp, &paths, &p, rules);
        let kl: f64 = q
            .iter()
            .zip(&p)
            .filter(|(&qi, &pi)| qi > 0.0 && pi > 0.0)
            .map(|(&qi, &pi)| qi * (qi / pi).ln())
            .sum();
        let mut diag = Diagnostics::new();
        let theta = fit_theta(mdp, features, theta0, &paths, &q, &self.budget, &mut diag);
        let p_after = normalized_weights(mdp, features, &theta, &paths);
        let violation = |dist: &[f64]| -> f64 {
            paths
                .iter()
                .zip(dist)
                .filter(|(path, _)| {
                    let view = MdpTraceView::new(mdp, path);
                    rules.iter().any(|r| !r.rule.eval(&view, 0))
                })
                .map(|(_, &pr)| pr)
                .sum()
        };
        Ok(RewardRepairOutcome {
            theta,
            base_theta: theta0.to_vec(),
            violation_mass_before: violation(&p),
            violation_mass_after: violation(&p_after),
            kl_divergence: kl,
            num_trajectories: paths.len(),
            diagnostics: diag,
        })
    }
}

fn q_gap(mdp: &Mdp, features: &FeatureMap, theta: &[f64], c: &QConstraint, gamma: f64) -> f64 {
    let rewards = features.rewards(theta);
    match value_iteration(mdp, &rewards, ViOptions { gamma, ..Default::default() }) {
        Ok(vi) => {
            let q = q_values(mdp, &rewards, &vi.values, gamma);
            q[c.state][c.better] - q[c.state][c.worse]
        }
        Err(_) => f64::NAN,
    }
}

fn q_constraints_hold(
    mdp: &Mdp,
    features: &FeatureMap,
    theta: &[f64],
    constraints: &[QConstraint],
    gamma: f64,
) -> bool {
    constraints.iter().all(|c| {
        let gap = q_gap(mdp, features, theta, c, gamma);
        gap.is_finite() && gap >= c.margin
    })
}

fn normalized_weights(mdp: &Mdp, features: &FeatureMap, theta: &[f64], paths: &[Path]) -> Vec<f64> {
    let logw: Vec<f64> =
        paths.iter().map(|u| trajectory_log_weight(mdp, features, theta, u)).collect();
    let z = tml_numerics::vector::log_sum_exp(&logw);
    logw.iter().map(|lw| (lw - z).exp()).collect()
}

/// Feature matching: gradient ascent on `Σ_U Q(U) log P_θ(U)` over the
/// enumerated trajectory set. Budget-aware: stops at the current iterate
/// when the budget runs out, recording the cause and the last gradient
/// norm in `diag`.
fn fit_theta(
    mdp: &Mdp,
    features: &FeatureMap,
    theta0: &[f64],
    paths: &[Path],
    q: &[f64],
    budget: &Budget,
    diag: &mut Diagnostics,
) -> Vec<f64> {
    let d = features.dim();
    // Per-path summed features F(U).
    let path_features: Vec<Vec<f64>> = paths
        .iter()
        .map(|u| {
            let mut f = vec![0.0; d];
            for &s in &u.states {
                for (acc, &x) in f.iter_mut().zip(features.state_features(s)) {
                    *acc += x;
                }
            }
            f
        })
        .collect();
    // Target: E_Q[F].
    let mut target = vec![0.0; d];
    for (f, &qi) in path_features.iter().zip(q) {
        for (t, &x) in target.iter_mut().zip(f) {
            *t += qi * x;
        }
    }
    let mut theta = theta0.to_vec();
    let lr = 0.05;
    let mut last_norm = f64::INFINITY;
    for it in 0..600u64 {
        if let Some(cause) = budget.check(it) {
            diag.mark_exhausted(cause);
            diag.record_residual(last_norm);
            break;
        }
        diag.evaluations += 1;
        let p = normalized_weights(mdp, features, &theta, paths);
        let mut expect = vec![0.0; d];
        for (f, &pi) in path_features.iter().zip(&p) {
            for (e, &x) in expect.iter_mut().zip(f) {
                *e += pi * x;
            }
        }
        let mut norm = 0.0;
        for i in 0..d {
            let g = target[i] - expect[i];
            theta[i] += lr * g;
            norm += g * g;
        }
        last_norm = norm.sqrt();
        if last_norm < 1e-8 {
            break;
        }
    }
    theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_models::MdpBuilder;

    /// Tiny hazard world: 0 can go "safe" (to 1) or "risky" (to 2, the
    /// unsafe state). Both 1 and 2 are absorbing; 1 is the goal.
    fn hazard() -> Mdp {
        let mut b = MdpBuilder::new(3);
        b.choice(0, "safe", &[(1, 1.0)]).unwrap();
        b.choice(0, "risky", &[(2, 1.0)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        b.label(2, "unsafe").unwrap();
        b.build().unwrap()
    }

    fn hazard_features() -> FeatureMap {
        // f1 = 1 at the unsafe state, f2 = 1 at the goal state.
        FeatureMap::new(vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap()
    }

    #[test]
    fn enumerate_counts_branching() {
        let m = hazard();
        let paths = enumerate_trajectories(&m, 0, 1);
        assert_eq!(paths.len(), 2);
        let paths2 = enumerate_trajectories(&m, 0, 2);
        assert_eq!(paths2.len(), 2); // absorbing states have one choice
        for p in &paths2 {
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn projection_zeroes_violating_mass() {
        let m = hazard();
        let paths = enumerate_trajectories(&m, 0, 2);
        let base = vec![0.5, 0.5];
        let rules = vec![WeightedRule::hard(TraceFormula::never("unsafe"))];
        let q = project_distribution(&m, &paths, &base, &rules);
        // The risky path's mass collapses to ~0; the safe one to ~1.
        let safe_idx = paths.iter().position(|p| p.states.contains(&1)).expect("safe path present");
        assert!(q[safe_idx] > 0.999, "q = {q:?}");
        let total: f64 = q.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn soft_lambda_interpolates() {
        let m = hazard();
        let paths = enumerate_trajectories(&m, 0, 1);
        let base = vec![0.5, 0.5];
        let rules = vec![WeightedRule::soft(TraceFormula::never("unsafe"), 1.0)];
        let q = project_distribution(&m, &paths, &base, &rules);
        let unsafe_idx = paths.iter().position(|p| p.states.contains(&2)).unwrap();
        // exp(-1)/(1 + exp(-1)) ≈ 0.2689
        assert!((q[unsafe_idx] - (-1.0_f64).exp() / (1.0 + (-1.0_f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn project_and_fit_moves_mass_off_unsafe() {
        let m = hazard();
        let fm = hazard_features();
        // θ₀ rewards the unsafe feature: the learned reward is "bad".
        let theta0 = vec![1.0, 0.0];
        let rules = vec![WeightedRule::hard(TraceFormula::never("unsafe"))];
        let out = RewardRepair::new().project_and_fit(&m, &fm, &theta0, &rules, 3).unwrap();
        assert!(out.violation_mass_before > 0.5, "before {}", out.violation_mass_before);
        assert!(
            out.violation_mass_after < 0.2,
            "after {} (theta {:?})",
            out.violation_mass_after,
            out.theta
        );
        assert!(out.kl_divergence > 0.0);
        assert_eq!(out.num_trajectories, 2);
        // The repaired reward must rank the goal feature above the unsafe one.
        assert!(out.theta[1] > out.theta[0], "theta = {:?}", out.theta);
    }

    #[test]
    fn q_constraint_repair_flips_preference() {
        let m = hazard();
        let fm = hazard_features();
        let theta0 = vec![1.0, 0.0]; // prefers risky
        let constraints = vec![QConstraint { state: 0, better: 0, worse: 1, margin: 0.05 }];
        let out = RewardRepair::new()
            .q_constraint_repair(&m, &fm, &theta0, &constraints, 0.9, 3.0)
            .unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        assert!(out.cost > 0.0);
        // Check the greedy policy now takes "safe".
        let rewards = fm.rewards(&out.theta);
        let vi =
            value_iteration(&m, &rewards, ViOptions { gamma: 0.9, ..Default::default() }).unwrap();
        assert_eq!(vi.policy[0], 0);
    }

    #[test]
    fn q_constraint_already_satisfied() {
        let m = hazard();
        let fm = hazard_features();
        let theta0 = vec![0.0, 1.0]; // already prefers safe
        let constraints = vec![QConstraint { state: 0, better: 0, worse: 1, margin: 0.01 }];
        let out = RewardRepair::new()
            .q_constraint_repair(&m, &fm, &theta0, &constraints, 0.9, 2.0)
            .unwrap();
        assert_eq!(out.status, RepairStatus::AlreadySatisfied);
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn q_constraint_infeasible_within_radius() {
        let m = hazard();
        let fm = hazard_features();
        let theta0 = vec![5.0, 0.0];
        // Tiny radius cannot flip a 5-point preference.
        let constraints = vec![QConstraint { state: 0, better: 0, worse: 1, margin: 0.1 }];
        let out = RewardRepair::new()
            .q_constraint_repair(&m, &fm, &theta0, &constraints, 0.9, 0.5)
            .unwrap();
        assert_eq!(out.status, RepairStatus::Infeasible);
    }

    #[test]
    fn exhausted_budget_truncates_the_fit_to_theta0() {
        let m = hazard();
        let fm = hazard_features();
        let theta0 = vec![1.0, 0.0];
        let rules = vec![WeightedRule::hard(TraceFormula::never("unsafe"))];
        let out = RewardRepair::new()
            .with_budget(Budget::unlimited().with_max_evaluations(0))
            .project_and_fit(&m, &fm, &theta0, &rules, 3)
            .unwrap();
        // No fit iterations ran: best effort is the original θ.
        assert_eq!(out.theta, theta0);
        assert!(out.diagnostics.exhausted.is_some());
        assert!(out.diagnostics.degraded());
    }

    #[test]
    fn q_constraint_budget_exhaustion_is_reported() {
        let m = hazard();
        let fm = hazard_features();
        let theta0 = vec![1.0, 0.0];
        let constraints = vec![QConstraint { state: 0, better: 0, worse: 1, margin: 0.05 }];
        let out = RewardRepair::new()
            .with_budget(Budget::unlimited().with_max_evaluations(0))
            .q_constraint_repair(&m, &fm, &theta0, &constraints, 0.9, 3.0)
            .unwrap();
        assert_eq!(out.status, RepairStatus::BudgetExhausted);
        assert!(out.diagnostics.exhausted.is_some());
    }

    #[test]
    fn input_validation() {
        let m = hazard();
        let fm = hazard_features();
        let rr = RewardRepair::new();
        assert!(rr.project_and_fit(&m, &fm, &[0.0, 0.0], &[], 3).is_err());
        assert!(rr
            .project_and_fit(&m, &fm, &[0.0], &[WeightedRule::hard(TraceFormula::True)], 3)
            .is_err());
        assert!(rr
            .project_and_fit(&m, &fm, &[0.0, 0.0], &[WeightedRule::hard(TraceFormula::True)], 0)
            .is_err());
        let bad = vec![QConstraint { state: 9, better: 0, worse: 0, margin: 0.0 }];
        assert!(rr.q_constraint_repair(&m, &fm, &[0.0, 0.0], &bad, 0.9, 1.0).is_err());
    }

    #[test]
    fn trace_view_exposes_labels_and_actions() {
        let m = hazard();
        let p = Path::with_actions(vec![0, 2, 2], vec![1, 0]).unwrap();
        let view = MdpTraceView::new(&m, &p);
        assert_eq!(view.len(), 3);
        assert!(view.holds(1, "unsafe"));
        assert!(!view.holds(0, "unsafe"));
        assert_eq!(view.action(0), Some(1));
        assert_eq!(view.action(2), None);
    }

    #[test]
    fn log_weight_combines_rewards_and_transitions() {
        let m = hazard();
        let fm = hazard_features();
        let p = Path::with_actions(vec![0, 1], vec![0]).unwrap();
        // reward: f(0)=(0,0), f(1)=(0,1); θ=(0,2) → Σ θf = 2; ln P = ln 1 = 0.
        let lw = trajectory_log_weight(&m, &fm, &[0.0, 2.0], &p);
        assert!((lw - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tml_models::MdpBuilder;

    fn hazard() -> Mdp {
        let mut b = MdpBuilder::new(3);
        b.choice(0, "safe", &[(1, 1.0)]).unwrap();
        b.choice(0, "risky", &[(2, 1.0)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        b.label(2, "unsafe").unwrap();
        b.build().unwrap()
    }

    fn fm() -> FeatureMap {
        FeatureMap::new(vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap()
    }

    #[test]
    fn sampled_trajectories_are_well_formed() {
        let m = hazard();
        let mut rng = StdRng::seed_from_u64(5);
        let paths = sample_trajectories(&m, &fm(), &[0.0, 0.0], 50, 4, &mut rng).unwrap();
        assert_eq!(paths.len(), 50);
        for p in &paths {
            assert_eq!(p.len(), 4);
            assert_eq!(p.states[0], m.initial_state());
        }
        // Under zero rewards both first actions appear in the sample.
        let safe = paths.iter().filter(|p| p.states[1] == 1).count();
        assert!(safe > 10 && safe < 40, "safe count {safe}");
    }

    #[test]
    fn sampled_projection_mirrors_exact_one() {
        let m = hazard();
        let features = fm();
        let theta0 = vec![1.0, 0.0]; // prefers the unsafe state
        let rules = vec![WeightedRule::hard(tml_logic::TraceFormula::never("unsafe"))];
        let mut rng = StdRng::seed_from_u64(9);
        let sampled = RewardRepair::new()
            .project_and_fit_sampled(&m, &features, &theta0, &rules, 3, 400, &mut rng)
            .unwrap();
        let exact = RewardRepair::new().project_and_fit(&m, &features, &theta0, &rules, 3).unwrap();
        assert!(sampled.violation_mass_after < sampled.violation_mass_before);
        // Both repairs point the reward the same way: goal beats unsafe.
        assert!(sampled.theta[1] > sampled.theta[0], "sampled theta {:?}", sampled.theta);
        assert!(exact.theta[1] > exact.theta[0]);
    }

    #[test]
    fn sampled_validation() {
        let m = hazard();
        let features = fm();
        let mut rng = StdRng::seed_from_u64(1);
        let rules = vec![WeightedRule::hard(tml_logic::TraceFormula::True)];
        let rr = RewardRepair::new();
        assert!(rr
            .project_and_fit_sampled(&m, &features, &[0.0, 0.0], &[], 3, 10, &mut rng)
            .is_err());
        assert!(rr
            .project_and_fit_sampled(&m, &features, &[0.0, 0.0], &rules, 0, 10, &mut rng)
            .is_err());
        assert!(rr
            .project_and_fit_sampled(&m, &features, &[0.0, 0.0], &rules, 3, 0, &mut rng)
            .is_err());
        assert!(rr
            .project_and_fit_sampled(&m, &features, &[0.0], &rules, 3, 10, &mut rng)
            .is_err());
    }
}
