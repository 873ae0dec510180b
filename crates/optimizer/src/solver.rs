use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_numerics::{Budget, Exhaustion};
use tml_telemetry::{counter, span};

use crate::{Nlp, OptimizerError};

/// Options for the [`PenaltySolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyOptions {
    /// Number of random restarts (in addition to the box center and any
    /// user-provided starts).
    pub restarts: usize,
    /// Initial quadratic penalty weight.
    pub penalty_init: f64,
    /// Multiplicative growth of the penalty weight per round.
    pub penalty_growth: f64,
    /// Number of penalty-escalation rounds.
    pub penalty_rounds: usize,
    /// Projected-gradient iterations per round.
    pub inner_iterations: usize,
    /// Central-difference step for numeric gradients.
    pub gradient_step: f64,
    /// Initial line-search step size.
    pub step_init: f64,
    /// Stop an inner loop when the iterate moves less than this.
    pub step_tolerance: f64,
    /// A point is declared feasible when its max violation is below this.
    pub feasibility_tolerance: f64,
    /// RNG seed for the restarts (the solver is deterministic given a seed).
    pub seed: u64,
    /// Run the restarts on parallel threads. Restarts are independent and
    /// merged in start order, so without an evaluation cap the parallel
    /// solve returns **exactly** the serial solution. A budget with an
    /// evaluation cap runs the restarts serially, in start order, so a
    /// capped solve repeats too; a deadline's stopping point depends on
    /// timing either way.
    pub parallel: bool,
}

impl Default for PenaltyOptions {
    fn default() -> Self {
        PenaltyOptions {
            restarts: 8,
            penalty_init: 10.0,
            penalty_growth: 10.0,
            // The quadratic penalty leaves a bias of roughly
            // ‖∇objective‖ / (2·μ_max) on the infeasible side, so μ_max must
            // comfortably exceed objective-gradient / feasibility_tolerance.
            penalty_rounds: 9,
            inner_iterations: 250,
            gradient_step: 1e-6,
            step_init: 0.25,
            step_tolerance: 1e-12,
            feasibility_tolerance: 1e-6,
            seed: 0x7319,
            parallel: true,
        }
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Largest constraint violation at `x`.
    pub max_violation: f64,
    /// Whether `x` satisfies every constraint within tolerance. When
    /// `false`, the problem is reported **infeasible** under the explored
    /// starts — the repair analogue of AMPL's "infeasible problem".
    pub feasible: bool,
    /// Total objective/constraint evaluations spent.
    pub evaluations: usize,
    /// Why the solve stopped early, if a [`Budget`] ran out. The solution
    /// is still the best point found up to that moment.
    pub stopped: Option<Exhaustion>,
    /// Restarts that never ran because the shared budget was already spent
    /// when their turn came. A nonzero value means the multi-start search
    /// was silently narrower than [`PenaltyOptions::restarts`] suggests.
    pub restarts_pruned: usize,
    /// Restarts that ran but were cut short mid-descent by the budget.
    pub restarts_exhausted: usize,
}

/// Quadratic-penalty solver with a projected-gradient inner loop and
/// deterministic multi-start.
///
/// See the crate docs for the problem class. The solver is derivative-free
/// from the caller's perspective: gradients are taken by central
/// differences, so objectives/constraints may be arbitrary closures —
/// including ones that run a full PCTL model check per evaluation.
#[derive(Debug, Clone, Default)]
pub struct PenaltySolver {
    opts: PenaltyOptions,
    extra_starts: Vec<Vec<f64>>,
    budget: Budget,
}

impl PenaltySolver {
    /// A solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver with explicit options.
    pub fn with_options(opts: PenaltyOptions) -> Self {
        PenaltySolver { opts, extra_starts: Vec::new(), budget: Budget::unlimited() }
    }

    /// Attaches an effort budget. The evaluation unit is merit/objective
    /// evaluations (the same count reported in [`Solution::evaluations`]).
    /// On exhaustion the solver returns the best point found so far with
    /// [`Solution::stopped`] set — never an error.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The options in effect.
    pub fn options(&self) -> &PenaltyOptions {
        &self.opts
    }

    /// The budget in effect (unlimited by default).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Adds a user-provided starting point (tried before random restarts).
    pub fn start_from(&mut self, x: Vec<f64>) -> &mut Self {
        self.extra_starts.push(x);
        self
    }

    /// Minimizes the problem.
    ///
    /// # Errors
    ///
    /// * [`OptimizerError::MissingObjective`] if no objective was set.
    /// * [`OptimizerError::DimensionMismatch`] if a provided start has the
    ///   wrong dimension.
    pub fn solve(&self, nlp: &Nlp) -> Result<Solution, OptimizerError> {
        if !nlp.has_objective() {
            return Err(OptimizerError::MissingObjective);
        }
        for s in &self.extra_starts {
            if s.len() != nlp.num_vars() {
                return Err(OptimizerError::DimensionMismatch {
                    expected: nlp.num_vars(),
                    got: s.len(),
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(self.opts.seed);

        let mut starts: Vec<Vec<f64>> = Vec::new();
        starts.push(nlp.center());
        starts.extend(self.extra_starts.iter().cloned().map(|mut s| {
            nlp.project(&mut s);
            s
        }));
        for _ in 0..self.opts.restarts {
            starts.push(
                nlp.bounds()
                    .iter()
                    .map(|&(lo, hi)| if lo == hi { lo } else { rng.random_range(lo..hi) })
                    .collect(),
            );
        }

        // Under an evaluation cap, which start spends the evaluations would
        // depend on thread timing, so capped solves run their starts
        // serially, in start order.
        let parallel = self.opts.parallel && self.budget.max_evaluations().is_none();
        let _span = span!(
            "solver.solve",
            starts = starts.len(),
            vars = nlp.num_vars(),
            parallel = parallel
        );

        // Fork the caller's budget: every solve gets the full evaluation
        // cap, while all restarts *within* this solve charge one shared
        // atomic counter (see the thread-safety contract in
        // tml_numerics::budget).
        let run_budget = self.budget.fork();
        let indexed: Vec<(usize, Vec<f64>)> = starts.into_iter().enumerate().collect();
        let outcomes: Vec<StartOutcome> = if parallel && indexed.len() > 1 {
            use rayon::prelude::*;
            indexed.into_par_iter().map(|(i, s)| self.run_start(nlp, i, s, &run_budget)).collect()
        } else {
            indexed.into_iter().map(|(i, s)| self.run_start(nlp, i, s, &run_budget)).collect()
        };

        // Merge strictly in start order: with an unlimited budget this
        // makes the parallel solve bitwise-identical to the serial one.
        let mut evaluations = 0usize;
        let mut best: Option<Solution> = None;
        let mut stopped: Option<Exhaustion> = None;
        let mut restarts_pruned = 0usize;
        let mut restarts_exhausted = 0usize;
        for outcome in outcomes {
            match outcome {
                StartOutcome::Skipped(cause) => {
                    restarts_pruned += 1;
                    stopped.get_or_insert(cause);
                }
                StartOutcome::Ran(cand, local_evals) => {
                    evaluations += local_evals;
                    if let Some(cause) = cand.stopped {
                        restarts_exhausted += 1;
                        stopped.get_or_insert(cause);
                    }
                    best = Some(match best {
                        None => cand,
                        Some(b) => pick_better(b, cand, self.opts.feasibility_tolerance),
                    });
                }
            }
        }
        let mut sol = match best {
            Some(b) => b,
            None => {
                // The budget was spent before any start ran: fall back to
                // the evaluated box center so callers still get a point.
                let x = nlp.center();
                let objective = nlp.objective_value(&x);
                let max_violation = nlp.max_violation(&x);
                evaluations += 2;
                Solution {
                    x,
                    objective,
                    max_violation,
                    feasible: false,
                    evaluations: 0,
                    stopped,
                    restarts_pruned: 0,
                    restarts_exhausted: 0,
                }
            }
        };
        sol.evaluations = evaluations;
        sol.feasible = sol.max_violation <= self.opts.feasibility_tolerance;
        sol.stopped = stopped;
        sol.restarts_pruned = restarts_pruned;
        sol.restarts_exhausted = restarts_exhausted;
        counter!("solver.penalty.evaluations", sol.evaluations);
        Ok(sol)
    }

    /// Runs one restart, charging the run's shared budget. Returns
    /// [`StartOutcome::Skipped`] when the budget is already exhausted.
    ///
    /// Note on traces: in a parallel solve this span runs on a worker
    /// thread, so its `parent` link is the worker's innermost span (usually
    /// none) rather than `solver.solve` — correlate via the `restart` field.
    fn run_start(&self, nlp: &Nlp, index: usize, start: Vec<f64>, budget: &Budget) -> StartOutcome {
        let _span = span!("solver.restart", restart = index);
        let mut gauge = EvalGauge { budget, local: 0, charged: 0 };
        if let Some(cause) = gauge.poll() {
            counter!("solver.penalty.restarts_skipped", 1);
            return StartOutcome::Skipped(cause);
        }
        counter!("solver.penalty.restarts", 1);
        let sol = self.solve_from(nlp, start, &mut gauge);
        StartOutcome::Ran(sol, gauge.local)
    }

    fn solve_from(&self, nlp: &Nlp, mut x: Vec<f64>, gauge: &mut EvalGauge<'_>) -> Solution {
        nlp.project(&mut x);
        let mut mu = self.opts.penalty_init;
        let mut stopped = None;
        for _ in 0..self.opts.penalty_rounds {
            if let Some(cause) = gauge.poll() {
                stopped = Some(cause);
                break;
            }
            if let Some(cause) = self.projected_gradient(nlp, &mut x, mu, gauge) {
                stopped = Some(cause);
                break;
            }
            if nlp.max_violation(&x) <= self.opts.feasibility_tolerance * 0.1 {
                // Already comfortably feasible: further escalation only
                // fights the objective.
                break;
            }
            mu *= self.opts.penalty_growth;
        }
        let objective = nlp.objective_value(&x);
        let max_violation = nlp.max_violation(&x);
        gauge.add(2);
        Solution {
            x,
            objective,
            max_violation,
            feasible: false,
            evaluations: 0,
            stopped,
            restarts_pruned: 0,
            restarts_exhausted: 0,
        }
    }

    /// Minimizes the penalized merit function with projected gradient
    /// descent and backtracking line search. Returns the exhaustion cause
    /// if the budget ran out mid-descent (leaving `x` at the best accepted
    /// iterate). The merit gradient is taken by central differences (`2n`
    /// merit evaluations per step).
    fn projected_gradient(
        &self,
        nlp: &Nlp,
        x: &mut Vec<f64>,
        mu: f64,
        gauge: &mut EvalGauge<'_>,
    ) -> Option<Exhaustion> {
        let n = nlp.num_vars();
        let rows = nlp.constraints().len();
        let merit = |pt: &[f64], gauge: &mut EvalGauge<'_>| -> f64 {
            gauge.add(1 + rows);
            // One pass over all constraints: max violation and the penalty
            // term together.
            let stats = nlp.violation_stats(pt);
            if stats.max.is_infinite() {
                return f64::INFINITY;
            }
            let m = nlp.objective_value(pt) + mu * stats.sum_sq;
            // A NaN merit (e.g. ∞ − ∞ from a pathological oracle) would
            // poison every comparison below; treat it as worst-possible.
            if m.is_nan() {
                f64::INFINITY
            } else {
                m
            }
        };

        let mut fx = merit(x, gauge);
        let mut step = self.opts.step_init;
        let mut grad = vec![0.0; n];
        for _ in 0..self.opts.inner_iterations {
            if let Some(cause) = gauge.poll() {
                return Some(cause);
            }
            // Central-difference gradient, clamped to the box.
            grad.fill(0.0);
            for i in 0..n {
                if let Some(cause) = gauge.poll() {
                    return Some(cause);
                }
                let h = self.opts.gradient_step * (1.0 + x[i].abs());
                let (lo, hi) = nlp.bounds()[i];
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp[i] = (x[i] + h).min(hi);
                xm[i] = (x[i] - h).max(lo);
                let denom = xp[i] - xm[i];
                if denom == 0.0 {
                    continue;
                }
                let fp = merit(&xp, gauge);
                let fm = merit(&xm, gauge);
                grad[i] = if fp.is_finite() && fm.is_finite() { (fp - fm) / denom } else { 0.0 };
            }
            let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            if gnorm < 1e-14 || !gnorm.is_finite() {
                break;
            }

            // Backtracking along the projected direction.
            let mut accepted = false;
            let mut t = step;
            for _ in 0..40 {
                if let Some(cause) = gauge.poll() {
                    return Some(cause);
                }
                let mut cand: Vec<f64> =
                    x.iter().zip(&grad).map(|(xi, gi)| xi - t * gi / gnorm).collect();
                nlp.project(&mut cand);
                let fc = merit(&cand, gauge);
                if fc < fx - 1e-12 {
                    *x = cand;
                    fx = fc;
                    accepted = true;
                    // Mild step growth after success.
                    step = (t * 1.5).min(self.opts.step_init * 4.0);
                    break;
                }
                t *= 0.5;
                if t < self.opts.step_tolerance {
                    break;
                }
            }
            if !accepted {
                break;
            }
        }
        None
    }
}

/// Per-restart outcome, merged in start order by [`PenaltySolver::solve`].
enum StartOutcome {
    /// The shared budget was exhausted before this start could run.
    Skipped(Exhaustion),
    /// The restart ran; carries its local evaluation count.
    Ran(Solution, usize),
}

/// Couples a restart's **local** evaluation counter with the run's shared
/// atomic budget: `add` records work, `poll` charges the delta since the
/// last poll and reports exhaustion against the cumulative total of all
/// restarts.
struct EvalGauge<'a> {
    budget: &'a Budget,
    local: usize,
    charged: usize,
}

impl EvalGauge<'_> {
    fn add(&mut self, n: usize) {
        self.local += n;
    }

    fn poll(&mut self) -> Option<Exhaustion> {
        let delta = (self.local - self.charged) as u64;
        self.charged = self.local;
        self.budget.charge(delta)
    }
}

fn pick_better(a: Solution, b: Solution, tol: f64) -> Solution {
    let fa = a.max_violation <= tol;
    let fb = b.max_violation <= tol;
    match (fa, fb) {
        (true, true) => {
            if b.objective < a.objective {
                b
            } else {
                a
            }
        }
        (true, false) => a,
        (false, true) => b,
        (false, false) => {
            if b.max_violation < a.max_violation {
                b
            } else {
                a
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintSense;

    #[test]
    fn unconstrained_quadratic() {
        let mut nlp = Nlp::new(2, vec![(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        nlp.objective(|x| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2));
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!(sol.feasible);
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "x0 = {}", sol.x[0]);
        assert!((sol.x[1] + 2.0).abs() < 1e-4, "x1 = {}", sol.x[1]);
        assert!(sol.evaluations > 0);
    }

    #[test]
    fn active_constraint_projection() {
        // min ‖x‖² s.t. x0 + x1 ≥ 1 → (0.5, 0.5).
        let mut nlp = Nlp::new(2, vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap();
        nlp.minimize_norm2();
        nlp.constraint("plane", ConstraintSense::Ge, 1.0, |x| x[0] + x[1]);
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!(sol.feasible, "violation {}", sol.max_violation);
        assert!((sol.x[0] - 0.5).abs() < 2e-3, "x = {:?}", sol.x);
        assert!((sol.x[1] - 0.5).abs() < 2e-3);
        assert!((sol.objective - 0.5).abs() < 1e-2);
    }

    #[test]
    fn box_active_at_optimum() {
        let mut nlp = Nlp::new(1, vec![(1.0, 3.0)]).unwrap();
        nlp.objective(|x| x[0] * x[0]);
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_problem_detected() {
        // x ≤ -1 and x ≥ 1 cannot both hold.
        let mut nlp = Nlp::new(1, vec![(-2.0, 2.0)]).unwrap();
        nlp.minimize_norm2();
        nlp.constraint("lo", ConstraintSense::Le, -1.0, |x| x[0]);
        nlp.constraint("hi", ConstraintSense::Ge, 1.0, |x| x[0]);
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!(!sol.feasible);
        assert!(sol.max_violation > 0.5);
    }

    #[test]
    fn multistart_escapes_poor_basin() {
        // W-shaped objective with the good basin away from the center:
        // f(x) = min((x+1)², (x−1)² − 0.5): global min at x = 1.
        let mut nlp = Nlp::new(1, vec![(-2.0, 2.0)]).unwrap();
        nlp.objective(|x| ((x[0] + 1.0).powi(2)).min((x[0] - 1.0).powi(2) - 0.5));
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-2, "x = {:?}", sol.x);
        assert!((sol.objective + 0.5).abs() < 1e-3);
    }

    #[test]
    fn user_start_is_respected() {
        let mut nlp = Nlp::new(1, vec![(-100.0, 100.0)]).unwrap();
        nlp.objective(|x| (x[0] - 42.0).powi(2));
        let mut solver =
            PenaltySolver::with_options(PenaltyOptions { restarts: 0, ..Default::default() });
        solver.start_from(vec![41.0]);
        let sol = solver.solve(&nlp).unwrap();
        assert!((sol.x[0] - 42.0).abs() < 1e-3, "x = {:?}", sol.x);
    }

    #[test]
    fn validation_errors() {
        let nlp = Nlp::new(1, vec![(0.0, 1.0)]).unwrap();
        assert!(matches!(PenaltySolver::new().solve(&nlp), Err(OptimizerError::MissingObjective)));
        let mut nlp2 = Nlp::new(2, vec![(0.0, 1.0), (0.0, 1.0)]).unwrap();
        nlp2.minimize_norm2();
        let mut solver = PenaltySolver::new();
        solver.start_from(vec![0.5]);
        assert!(matches!(solver.solve(&nlp2), Err(OptimizerError::DimensionMismatch { .. })));
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut nlp = Nlp::new(2, vec![(-1.0, 1.0), (-1.0, 1.0)]).unwrap();
            nlp.minimize_norm2();
            nlp.constraint("c", ConstraintSense::Ge, 0.5, |x| x[0] * x[1] + x[0]);
            nlp
        };
        let s1 = PenaltySolver::new().solve(&build()).unwrap();
        let s2 = PenaltySolver::new().solve(&build()).unwrap();
        assert_eq!(s1.x, s2.x);
    }

    #[test]
    fn parallel_solve_matches_serial_for_fixed_seed() {
        // Satellite: same seed ⇒ identical Solution whether the restarts
        // run serially or on parallel threads (unlimited budget).
        let build = || {
            let mut nlp = Nlp::new(3, vec![(-1.0, 1.0), (-1.0, 1.0), (0.0, 2.0)]).unwrap();
            nlp.minimize_norm2();
            nlp.constraint("c1", ConstraintSense::Ge, 0.5, |x| x[0] * x[1] + x[2]);
            nlp.constraint("c2", ConstraintSense::Le, 1.5, |x| x[0] + x[1] + x[2]);
            nlp
        };
        let serial =
            PenaltySolver::with_options(PenaltyOptions { parallel: false, ..Default::default() })
                .solve(&build())
                .unwrap();
        let parallel =
            PenaltySolver::with_options(PenaltyOptions { parallel: true, ..Default::default() })
                .solve(&build())
                .unwrap();
        assert_eq!(serial.x, parallel.x);
        assert_eq!(serial.objective, parallel.objective);
        assert_eq!(serial.max_violation, parallel.max_violation);
        assert_eq!(serial.feasible, parallel.feasible);
        assert_eq!(serial.evaluations, parallel.evaluations);
        assert_eq!(serial.stopped, parallel.stopped);
    }

    #[test]
    fn capped_parallel_solve_repeats_the_serial_one() {
        // Under an evaluation cap the starts run in start order whatever
        // `parallel` says, so the cap stops the same start at the same
        // evaluation every time.
        let build = || {
            let mut nlp = Nlp::new(3, vec![(-1.0, 1.0), (-1.0, 1.0), (0.0, 2.0)]).unwrap();
            nlp.minimize_norm2();
            nlp.constraint("c1", ConstraintSense::Ge, 0.5, |x| x[0] * x[1] + x[2]);
            nlp
        };
        let solve = |parallel: bool| {
            PenaltySolver::with_options(PenaltyOptions { parallel, ..Default::default() })
                .with_budget(Budget::unlimited().with_max_evaluations(40))
                .solve(&build())
                .unwrap()
        };
        let serial = solve(false);
        assert!(serial.stopped.is_some(), "the cap must bite");
        for _ in 0..8 {
            let parallel = solve(true);
            assert_eq!(serial.x, parallel.x);
            assert_eq!(serial.objective.to_bits(), parallel.objective.to_bits());
            assert_eq!(serial.evaluations, parallel.evaluations);
            assert_eq!(serial.stopped, parallel.stopped);
        }
    }

    #[test]
    fn evaluation_budget_yields_best_effort_solution() {
        let mut nlp = Nlp::new(2, vec![(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        nlp.objective(|x| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2));
        let solver = PenaltySolver::new().with_budget(Budget::unlimited().with_max_evaluations(25));
        let sol = solver.solve(&nlp).unwrap();
        assert_eq!(sol.stopped, Some(Exhaustion::Evaluations));
        assert!(sol.evaluations <= 50, "polling granularity keeps overshoot small");
        assert!(sol.objective.is_finite());
        assert_eq!(sol.x.len(), 2);
    }

    #[test]
    fn restart_diagnostics_account_for_every_start() {
        let mut nlp = Nlp::new(2, vec![(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        nlp.objective(|x| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2));
        // Unlimited budget: nothing pruned, nothing exhausted.
        let full =
            PenaltySolver::with_options(PenaltyOptions { parallel: false, ..Default::default() })
                .solve(&nlp)
                .unwrap();
        assert_eq!(full.restarts_pruned, 0);
        assert_eq!(full.restarts_exhausted, 0);
        // A tiny budget lets the first start run (truncated) and prunes the
        // rest; the serial path makes the split deterministic.
        let tight =
            PenaltySolver::with_options(PenaltyOptions { parallel: false, ..Default::default() })
                .with_budget(Budget::unlimited().with_max_evaluations(5))
                .solve(&nlp)
                .unwrap();
        assert_eq!(tight.stopped, Some(Exhaustion::Evaluations));
        assert!(tight.restarts_exhausted >= 1, "the running start was cut short");
        assert!(tight.restarts_pruned >= 1, "later starts never ran");
        // 1 center + 8 restarts: every start is accounted for exactly once.
        assert_eq!(tight.restarts_pruned + tight.restarts_exhausted, 9);
    }

    #[test]
    fn zero_budget_still_returns_a_point() {
        let mut nlp = Nlp::new(1, vec![(0.0, 2.0)]).unwrap();
        nlp.objective(|x| x[0]);
        let solver = PenaltySolver::new().with_budget(Budget::unlimited().with_max_evaluations(0));
        let sol = solver.solve(&nlp).unwrap();
        assert_eq!(sol.stopped, Some(Exhaustion::Evaluations));
        // Falls back to the evaluated box center.
        assert_eq!(sol.x, vec![1.0]);
        assert!((sol.objective - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cancellation_stops_the_solver() {
        let token = tml_numerics::CancelToken::new();
        token.cancel();
        let mut nlp = Nlp::new(1, vec![(-1.0, 1.0)]).unwrap();
        nlp.minimize_norm2();
        let solver = PenaltySolver::new().with_budget(Budget::unlimited().with_cancel_token(token));
        let sol = solver.solve(&nlp).unwrap();
        assert_eq!(sol.stopped, Some(Exhaustion::Cancelled));
    }

    #[test]
    fn nan_objective_does_not_poison_the_solve() {
        // The oracle returns NaN on half the domain; the solver must keep
        // working with the finite half and still find the minimum there.
        let mut nlp = Nlp::new(1, vec![(-2.0, 2.0)]).unwrap();
        nlp.objective(|x| if x[0] < 0.0 { f64::NAN } else { (x[0] - 1.0).powi(2) });
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!(sol.stopped.is_none());
        assert!(sol.objective.is_finite(), "solution must land in the finite region");
        assert!((sol.x[0] - 1.0).abs() < 1e-3, "x = {:?}", sol.x);
    }

    #[test]
    fn nonconvex_rational_constraint() {
        // Mimic a repair constraint: f(v) = 0.4 / (0.4 + 0.6 v) ≥ 0.8 with
        // cost (1-v)². Solution: v ≤ 1/6, cost minimal at v = 1/6.
        let mut nlp = Nlp::new(1, vec![(0.0, 1.0)]).unwrap();
        nlp.objective(|x| (1.0 - x[0]).powi(2));
        nlp.constraint("ratio", ConstraintSense::Ge, 0.8, |x| 0.4 / (0.4 + 0.6 * x[0]));
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        assert!(sol.feasible);
        assert!((sol.x[0] - 1.0 / 6.0).abs() < 1e-3, "x = {:?}", sol.x);
    }
}
