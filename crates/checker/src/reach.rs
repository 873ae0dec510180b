//! Reachability operators compiled once per support.
//!
//! A [`ReachSystem`] holds everything about `P[φ U ψ]`, `P[F ψ]` or
//! `R[F ψ]` on a DTMC that depends only on which transitions exist, not on
//! their probabilities: the prob0/prob1 (or reward-infinity) classification
//! and the maybe states with their index, that is, for every state whether
//! a transition into it feeds the matrix `A` of `x = A·x + b`, the
//! right-hand side `b`, or nothing. The checker builds one per unbounded
//! `P`/`R` operator and solves it once.
//!
//! A repair compiles its property once ([`CompiledReach::compile`]) and
//! evaluates it at every candidate point with
//! [`CompiledReach::value_at_initial`]: an unbounded operator refills its
//! [`ReachSystem`], a step-bounded `P[φ U≤k ψ]` or `P[F≤k ψ]` runs the
//! checker's own `k` backward sweeps ([`BoundedUntil`]) over the
//! candidate's rows. As long as the support does not change, the value is
//! bitwise the checker's on the candidate chain.

use tml_logic::{PathFormula, RewardKind, StateFormula};
use tml_models::{graph, Dtmc, RewardStructure};
use tml_numerics::interval::{certified_upper_bound, interval_iteration_budgeted};
use tml_numerics::iterative::{gauss_seidel_budgeted, IterOptions};
use tml_numerics::scc::solve_scc_budgeted;
use tml_numerics::solve::solve_dense_in_place;
use tml_numerics::{Budget, CsrMatrix, NumericsError, Triplet};

use crate::run::CheckRun;
use crate::{lookup_rewards, CheckError, CheckOptions, LinearSolver};

/// Which kind of fixed-point system is being solved; interval iteration
/// needs to know how to seed a sound upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SystemKind {
    /// Reachability probabilities: values live in `[0, 1]`.
    Probability,
    /// Expected rewards: unbounded above, the upper bound must be grown
    /// and certified.
    Reward,
}

impl SystemKind {
    /// The per-state value a solved maybe-state entry reports.
    fn finish(self, v: f64) -> f64 {
        match self {
            SystemKind::Probability => v.clamp(0.0, 1.0),
            SystemKind::Reward => v.max(0.0),
        }
    }
}

/// What a transition into a state contributes to `x = A·x + b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// An entry of `A` in the column of this maybe-state index.
    Maybe(usize),
    /// Its probability, added into `b` (a prob1 state).
    Rhs,
    /// Nothing (a prob0 or target state).
    Skip,
}

/// The maybe-state system `x = A·x + b` of an unbounded reachability
/// operator on a fixed support. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ReachSystem {
    kind: SystemKind,
    /// Per-state values with the prob0/prob1 (or 0/∞ reward) states final;
    /// the maybe entries are filled by a solve.
    pub(crate) x: Vec<f64>,
    /// The maybe states, in ascending state order.
    pub(crate) maybe: Vec<usize>,
    /// Per state, what a transition into it contributes.
    pub(crate) class: Vec<Class>,
    initial: usize,
    /// `A` filled from the chain the system was built from.
    pub(crate) triplets: Vec<Triplet>,
    /// `b` filled from the same chain.
    pub(crate) b: Vec<f64>,
}

/// Caller-owned buffers for [`CompiledReach::value_at_initial`], reused
/// from one candidate to the next so an evaluation allocates nothing once
/// they have grown to the property's size.
#[derive(Debug, Clone, Default)]
pub struct ReachScratch {
    /// Row-major `I − A` of the dense branch.
    dense: Vec<f64>,
    b: Vec<f64>,
    /// The solution of the dense branch; the current sweep of a bounded
    /// until.
    x: Vec<f64>,
    /// The other sweep buffer of a bounded until.
    next: Vec<f64>,
    triplets: Vec<Triplet>,
}

/// A reachability operator compiled against a fixed support. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub enum CompiledReach {
    /// `P[φ U ψ]`, `P[F ψ]` or `R[F ψ]`: the maybe-state system.
    Unbounded(ReachSystem),
    /// `P[φ U≤k ψ]` or `P[F≤k ψ]`: the operand masks and the step bound.
    Bounded(BoundedUntil),
}

/// The step-bounded `P[φ U≤k ψ]` of a [`CompiledReach`]: its operand masks
/// and bound, which do not depend on the chain's probabilities.
#[derive(Debug, Clone)]
pub struct BoundedUntil {
    phi: Vec<bool>,
    target: Vec<bool>,
    steps: u64,
    initial: usize,
}

impl CompiledReach {
    /// Compiles `formula` on `model`'s support: `P⋈b[φ U ψ]` and
    /// `P⋈b[F ψ]`, with or without a step bound, and `R{r}⋈b[F ψ]`, all
    /// with propositional `φ` and `ψ`. `None` for any other formula
    /// (nested, `X`, `G`, cumulative rewards, no operator at all).
    ///
    /// # Errors
    ///
    /// Returns [`CheckError`] for an unknown reward structure.
    pub fn compile(model: &Dtmc, formula: &StateFormula) -> Result<Option<Self>, CheckError> {
        let opts = CheckOptions::default();
        let budget = Budget::unlimited();
        let run = CheckRun::new(&opts, &budget);
        let mask = |f: &StateFormula| crate::formula::mask(model, f, &run);
        let until = |phi: Vec<bool>, target: Vec<bool>, bound: Option<u64>| match bound {
            None => CompiledReach::Unbounded(ReachSystem::until(model, &phi, &target)),
            Some(steps) => CompiledReach::Bounded(BoundedUntil {
                phi,
                target,
                steps,
                initial: model.initial_state(),
            }),
        };
        Ok(match formula {
            StateFormula::Prob { path, .. } => match path {
                PathFormula::Until { lhs, rhs, bound }
                    if propositional(lhs) && propositional(rhs) =>
                {
                    Some(until(mask(lhs)?, mask(rhs)?, *bound))
                }
                PathFormula::Eventually { sub, bound } if propositional(sub) => {
                    Some(until(vec![true; model.num_states()], mask(sub)?, *bound))
                }
                _ => None,
            },
            StateFormula::Reward { structure, kind: RewardKind::Reach(target), .. }
                if propositional(target) =>
            {
                let rewards = lookup_rewards(
                    structure.as_deref(),
                    |n| model.reward_structure(n).ok(),
                    model.default_reward_structure(),
                )?;
                Some(CompiledReach::Unbounded(ReachSystem::reward(model, rewards, &mask(target)?)))
            }
            _ => None,
        })
    }

    /// The operator's value at the initial state of the chain with this
    /// support whose transitions out of state `s` are `successors(s)`,
    /// listed as [`Dtmc::successors`] lists them.
    ///
    /// It is bitwise `Checker::check(..).value_at_initial()` on that
    /// chain under `opts` and `budget`, provided the chain has exactly this
    /// support. A bounded until runs its sweeps in `scratch`; an unbounded
    /// operator refills and solves its [`ReachSystem`].
    ///
    /// # Errors
    ///
    /// The errors of an unbounded solve (e.g. a singular system), as the
    /// checker would report them.
    pub fn value_at_initial<I: IntoIterator<Item = (usize, f64)>>(
        &self,
        successors: impl Fn(usize) -> I,
        scratch: &mut ReachScratch,
        opts: &CheckOptions,
        budget: &Budget,
    ) -> Result<f64, CheckError> {
        match self {
            CompiledReach::Unbounded(system) => {
                system.value_at_initial(successors, scratch, opts, budget)
            }
            CompiledReach::Bounded(b) => {
                let ReachScratch { x, next, .. } = scratch;
                bounded_until_sweeps(successors, &b.phi, &b.target, b.steps, x, next);
                Ok(x[b.initial])
            }
        }
    }
}

impl ReachSystem {
    /// The system of `P(φ U ψ)`: prob0/prob1 states resolved, `b` the
    /// one-step probability into prob1 states, `A` the restriction to the
    /// maybe states.
    pub(crate) fn until(model: &Dtmc, phi: &[bool], target: &[bool]) -> Self {
        let (zero, one) = graph::prob01(model, phi, target);
        let maybe = |s: usize| !zero[s] && !one[s];
        let x = |s: usize| if one[s] { 1.0 } else { 0.0 };
        Self::build(model, SystemKind::Probability, x, maybe, |t| one[t], |_| 0.0)
    }

    /// The system of `R[F ψ]`: infinite outside prob1, `b` the state
    /// rewards, `A` the restriction to the non-target prob1 states.
    pub(crate) fn reward(model: &Dtmc, rewards: &RewardStructure, target: &[bool]) -> Self {
        let n = model.num_states();
        let one = graph::prob1(model, &vec![true; n], target);
        let x = |s: usize| if target[s] || one[s] { 0.0 } else { f64::INFINITY };
        // Successors in `target` contribute 0; successors outside `one`
        // are unreachable from a prob1 state.
        Self::build(
            model,
            SystemKind::Reward,
            x,
            |s| one[s] && !target[s],
            |_| false,
            |s| rewards.state_reward(s),
        )
    }

    /// Classifies every state and fills `A` and `b` from `model`.
    fn build(
        model: &Dtmc,
        kind: SystemKind,
        resolved: impl Fn(usize) -> f64,
        is_maybe: impl Fn(usize) -> bool,
        into_rhs: impl Fn(usize) -> bool,
        rhs_seed: impl Fn(usize) -> f64,
    ) -> Self {
        let n = model.num_states();
        let maybe: Vec<usize> = (0..n).filter(|&s| is_maybe(s)).collect();
        let x: Vec<f64> = (0..n).map(resolved).collect();
        let mut class: Vec<Class> =
            (0..n).map(|s| if into_rhs(s) { Class::Rhs } else { Class::Skip }).collect();
        for (i, &s) in maybe.iter().enumerate() {
            class[s] = Class::Maybe(i);
        }
        let mut b: Vec<f64> = maybe.iter().map(|&s| rhs_seed(s)).collect();
        let mut triplets = Vec::with_capacity(model.num_transitions().min(4 * maybe.len()));
        fill(&maybe, &class, |s| model.successors(s), &mut b, &mut triplets);
        ReachSystem { kind, x, maybe, class, initial: model.initial_state(), triplets, b }
    }

    /// Solves the system as built, returning the value of every state.
    pub(crate) fn solve(self, run: &CheckRun<'_>) -> Result<Vec<f64>, CheckError> {
        let ReachSystem { kind, mut x, maybe, class, triplets, b, .. } = self;
        // Not needed by the solve: free it before the solve's allocations.
        drop(class);
        if maybe.is_empty() {
            return Ok(x);
        }
        let sol = solve_restricted(&triplets, &b, maybe.len(), run, kind)?;
        for (i, &s) in maybe.iter().enumerate() {
            x[s] = kind.finish(sol[i]);
        }
        Ok(x)
    }

    /// [`CompiledReach::value_at_initial`] of an unbounded operator. A
    /// system that fits the direct solver is refilled into `scratch` and
    /// eliminated there, without allocating, opening spans or counting; a
    /// larger one goes through the checker's solver ladder.
    fn value_at_initial<I: IntoIterator<Item = (usize, f64)>>(
        &self,
        successors: impl Fn(usize) -> I,
        scratch: &mut ReachScratch,
        opts: &CheckOptions,
        budget: &Budget,
    ) -> Result<f64, CheckError> {
        let m = self.maybe.len();
        if m == 0 {
            return Ok(self.x[self.initial]);
        }
        // Reward systems add nothing into `b`: it is the rewards.
        match self.kind {
            SystemKind::Probability => {
                scratch.b.clear();
                scratch.b.resize(m, 0.0);
            }
            SystemKind::Reward => scratch.b.clone_from(&self.b),
        }
        scratch.triplets.clear();
        fill(&self.maybe, &self.class, successors, &mut scratch.b, &mut scratch.triplets);
        if opts.use_direct(m) {
            identity_minus(&mut scratch.dense, &scratch.triplets, m);
            scratch.x.resize(m, 0.0);
            solve_dense_in_place(&mut scratch.dense, &mut scratch.b, &mut scratch.x)?;
        } else {
            let run = CheckRun::new(opts, budget);
            scratch.x = solve_restricted(&scratch.triplets, &scratch.b, m, &run, self.kind)?;
        }
        Ok(match self.class[self.initial] {
            Class::Maybe(i) => self.kind.finish(scratch.x[i]),
            _ => self.x[self.initial],
        })
    }
}

/// Adds every maybe state's transitions into `b` or onto `triplets`
/// according to the class of their target, state by state, successors in
/// the order `successors` lists them.
fn fill<I: IntoIterator<Item = (usize, f64)>>(
    maybe: &[usize],
    class: &[Class],
    successors: impl Fn(usize) -> I,
    b: &mut [f64],
    triplets: &mut Vec<Triplet>,
) {
    for (i, &s) in maybe.iter().enumerate() {
        for (t, p) in successors(s) {
            match class[t] {
                Class::Maybe(j) => triplets.push(Triplet::new(i, j, p)),
                Class::Rhs => b[i] += p,
                Class::Skip => {}
            }
        }
    }
}

/// `P(φ U≤k ψ)` of every state into `x`, by `k` backward sweeps over the
/// rows `successors(s)`; `next` is the buffer each sweep writes before the
/// two swap. The checker's bounded until and [`BoundedUntil`] both run
/// this one routine, so their values agree bitwise.
pub(crate) fn bounded_until_sweeps<I: IntoIterator<Item = (usize, f64)>>(
    successors: impl Fn(usize) -> I,
    phi: &[bool],
    target: &[bool],
    k: u64,
    x: &mut Vec<f64>,
    next: &mut Vec<f64>,
) {
    let n = target.len();
    x.clear();
    x.extend(target.iter().map(|&t| if t { 1.0 } else { 0.0 }));
    next.clear();
    next.resize(n, 0.0);
    for _ in 0..k {
        for s in 0..n {
            next[s] = if target[s] {
                1.0
            } else if phi[s] {
                successors(s).into_iter().map(|(t, p)| p * x[t]).sum()
            } else {
                0.0
            };
        }
        std::mem::swap(x, next);
    }
}

/// Whether a state formula is free of `P`/`R` operators, so its mask
/// depends on the labeling alone.
fn propositional(f: &StateFormula) -> bool {
    match f {
        StateFormula::True | StateFormula::False | StateFormula::Atom(_) => true,
        StateFormula::Not(a) => propositional(a),
        StateFormula::And(a, b) | StateFormula::Or(a, b) | StateFormula::Implies(a, b) => {
            propositional(a) && propositional(b)
        }
        StateFormula::Prob { .. } | StateFormula::Reward { .. } => false,
    }
}

/// Overwrites `a` with the row-major `m × m` matrix `I − A`, `A` given by
/// its triplets.
fn identity_minus(a: &mut Vec<f64>, triplets: &[Triplet], m: usize) {
    a.clear();
    a.resize(m * m, 0.0);
    for i in 0..m {
        a[i * m + i] = 1.0;
    }
    for t in triplets {
        a[t.row * m + t.col] -= t.value;
    }
}

/// Under [`LinearSolver::Auto`], a system whose SCC solve stalls is solved
/// by dense elimination if it has at most this many states.
const LAST_RESORT_DIRECT_LIMIT: usize = 2048;

/// Solves `x = A·x + b` on the maybe-state fragment, picking the solver per
/// the options. This is the one place that decides what happens when a
/// linear solve fails.
///
/// Under [`LinearSolver::Auto`], systems up to `direct_solver_limit` states
/// are solved densely and larger ones SCC-first. If the SCC solve stalls,
/// systems up to [`LAST_RESORT_DIRECT_LIMIT`] states are solved by dense
/// Gaussian elimination; larger ones return the best iterate, with its
/// residual and the fallback recorded in the run's diagnostics. Explicitly
/// requested solvers ([`LinearSolver::GaussSeidel`], [`LinearSolver::Scc`],
/// [`LinearSolver::Interval`]) keep the strict `NoConvergence` error
/// contract. Budget exhaustion always yields the iterate (never an error),
/// marked in the diagnostics.
pub(crate) fn solve_restricted(
    triplets: &[Triplet],
    b: &[f64],
    m: usize,
    run: &CheckRun<'_>,
    kind: SystemKind,
) -> Result<Vec<f64>, CheckError> {
    let opts = run.opts;
    let _span = tml_telemetry::span!("checker.linear_solve", states = m);
    if opts.use_direct(m) {
        tml_telemetry::counter!("checker.solve.direct_solves", 1);
        return solve_direct_dense(triplets, b, m, run);
    }
    let a = CsrMatrix::from_triplets(m, m, triplets)?;
    let iter_opts = IterOptions { tolerance: opts.tolerance, max_iterations: opts.max_iterations };
    let (it, backend) = match opts.solver {
        LinearSolver::Interval => return solve_interval_strict(&a, b, run, iter_opts, kind),
        LinearSolver::GaussSeidel => {
            let zero = vec![0.0; m];
            (
                gauss_seidel_budgeted(&a, b, &zero, iter_opts, &run.remaining_budget())?,
                "gauss-seidel",
            )
        }
        // `Scc` and `Auto` (`Direct` never gets here): on layered state
        // spaces the SCC solve replaces O(depth) monolithic sweeps with one
        // back-substitution pass.
        _ => (solve_scc_budgeted(&a, b, iter_opts, &run.remaining_budget())?.run, "scc"),
    };
    run.spend(it.iterations as u64);
    if it.converged {
        run.record_backend(backend, true);
        return Ok(it.x);
    }
    if let Some(cause) = it.stopped {
        // Budget exhaustion is the caller's cap, not a backend fault.
        run.mark_exhausted(cause);
        run.record_residual(it.delta);
        return Ok(it.x);
    }
    run.record_backend(backend, false);
    if opts.solver != LinearSolver::Auto {
        return Err(
            NumericsError::NoConvergence { iterations: it.iterations, residual: it.delta }.into()
        );
    }
    if m <= LAST_RESORT_DIRECT_LIMIT {
        run.record_fallback(format!(
            "scc solve stalled (residual {:.3e}); solving directly (dense gaussian elimination)",
            it.delta
        ));
        return solve_direct_dense(triplets, b, m, run);
    }
    run.record_fallback(format!(
        "scc solve stalled on {m}-state system; accepting best iterate (residual {:.3e})",
        it.delta
    ));
    run.record_residual(it.delta);
    Ok(it.x)
}

/// Explicit [`LinearSolver::Interval`]: two-sided iteration whose midpoint
/// is returned once the bracket is narrower than the tolerance.
///
/// Probability systems start from the bracket `[0, 1]`. Reward systems have
/// no a-priori upper bound: a budgeted Gauss–Seidel approximation seeds a
/// guess-and-verify certificate ([`certified_upper_bound`]) — if no
/// certificate exists the backend fails strictly rather than reporting
/// unsound bounds. A budget stop returns the midpoint of the (still sound,
/// just wider) bracket.
fn solve_interval_strict(
    a: &CsrMatrix,
    b: &[f64],
    run: &CheckRun<'_>,
    iter_opts: IterOptions,
    kind: SystemKind,
) -> Result<Vec<f64>, CheckError> {
    let m = a.rows();
    let hi0 = match kind {
        SystemKind::Probability => vec![1.0; m],
        SystemKind::Reward => {
            let approx =
                gauss_seidel_budgeted(a, b, &vec![0.0; m], iter_opts, &run.remaining_budget())?;
            run.spend(approx.iterations as u64);
            match certified_upper_bound(a, b, &approx.x) {
                Some(hi) => hi,
                None => {
                    run.record_backend("interval", false);
                    return Err(NumericsError::NoConvergence {
                        iterations: approx.iterations,
                        residual: approx.delta,
                    }
                    .into());
                }
            }
        }
    };
    let iv =
        interval_iteration_budgeted(a, b, &vec![0.0; m], &hi0, iter_opts, &run.remaining_budget())?;
    run.spend(iv.iterations as u64);
    if iv.converged {
        run.record_backend("interval", true);
        return Ok(iv.midpoint());
    }
    if let Some(cause) = iv.stopped {
        run.mark_exhausted(cause);
        run.record_residual(iv.width);
        return Ok(iv.midpoint());
    }
    run.record_backend("interval", false);
    Err(NumericsError::NoConvergence { iterations: iv.iterations, residual: iv.width }.into())
}

/// Solves `(I − A) x = b` densely and records the `direct` attempt.
fn solve_direct_dense(
    triplets: &[Triplet],
    b: &[f64],
    m: usize,
    run: &CheckRun<'_>,
) -> Result<Vec<f64>, CheckError> {
    let mut a = Vec::new();
    identity_minus(&mut a, triplets, m);
    let mut rhs = b.to_vec();
    let mut x = vec![0.0; m];
    let sol = solve_dense_in_place(&mut a, &mut rhs, &mut x);
    run.record_backend("direct", sol.is_ok());
    sol?;
    Ok(x)
}
