//! Robust (min-max) value iteration for interval DTMCs and MDPs.
//!
//! An interval model describes an *uncertainty set* of concrete models;
//! robust checking brackets the value of a property over every member:
//!
//! * the **pessimistic** value is the minimum over all members (nature
//!   adversarially re-picks a feasible row distribution at every step —
//!   the standard rectangular relaxation);
//! * the **optimistic** value is the maximum.
//!
//! A bounded property holds *robustly* when its worst-case side satisfies
//! the bound: lower bounds (`P>=b`, `R>=c`) test the pessimistic value,
//! upper bounds the optimistic one. For the degenerate set `lo == hi` both
//! sides collapse onto the scalar checker's value.
//!
//! The inner adversary problem per state — extremize `Σ p_t · x_t` over
//! the row polytope `{p : lo ≤ p ≤ hi, Σ p = 1}` — is solved exactly in
//! `O(k log k)` for a row of `k` transitions: start every transition at
//! its lower bound and distribute the remaining mass `1 − Σ lo` greedily
//! in value order (ascending to minimize, descending to maximize), capping
//! each transition at `hi`. Short rows do this without allocating.
//!
//! **Solve order.** Unbounded operators are solved SCC-first: the
//! *support graph* (an edge wherever some member can step, `hi > 0`) is
//! condensed once per query, and in-place Gauss–Seidel min-max sweeps run
//! one component at a time in dependency order, successors first. The
//! support graph over-approximates the graph of every member, and
//! Gauss–Seidel from below on a monotone operator reaches the same least
//! fixed point as a synchronous (Jacobi) sweep, so the brackets converge
//! to the values of whole-model iteration at a fraction of the backups.
//! A fixed block order and in-block order keep them bitwise repeatable.
//! Iteration from below only approaches 1, so an unbounded until first
//! fixes each side's qualitative Prob1 states at exactly 1 (see `prob1`).
//! Step-bounded operators (`U<=k`, `C<=k`) keep synchronous sweeps, which
//! their exact k-step semantics needs.
//!
//! **Supported fragment.** Top-level `P ⋈ b [·]` / `R ⋈ c [·]` whose
//! operands are propositional (labels and boolean connectives), plus purely
//! propositional formulas (which need no uncertainty reasoning). Nested
//! probabilistic operators are rejected with [`CheckError::Unsupported`]:
//! negating a robustly-evaluated set would silently flip a for-all-members
//! claim into an exists-member claim. Reach rewards on interval MDPs are
//! likewise unsupported (the scheduler/nature finiteness interaction needs
//! qualitative machinery this checker does not carry); cumulative rewards
//! work on both model kinds.
//!
//! Every solve is budget-aware (it charges the shared
//! [`Budget`](tml_numerics::Budget) in sweep-equivalents: backups divided
//! by the state count, rounded up) and telemetry-instrumented:
//! `checker.robust.solves` / `.sweeps` / `.blocks` counters plus the
//! `checker.backend.robust.{ok,fail}` pair.
//! An interval model is always checked over its whole uncertainty set:
//! there is no fallback to the nominal (midpoint) chain.

use tml_logic::{PathFormula, Query, RewardKind, StateFormula};
use tml_models::interval::{IntervalChoice, IntervalDtmc, IntervalMdp, IntervalTransition};
use tml_models::{Labeling, RewardStructure};
use tml_numerics::scc::{condensation_from, Condensation};
use tml_numerics::Diagnostics;

use crate::run::CheckRun;
use crate::{lookup_rewards, CheckError, CheckOptions};

/// Reach probabilities this close to one count as "almost surely" when
/// classifying which states have finite robust reach rewards. Documented in
/// DESIGN.md §16: reach probabilities within this margin of one may
/// misclassify a reward as infinite (never the reverse direction into
/// unsound finite values below the true one, since value iteration
/// converges from below).
const AS_REACH_EPS: f64 = 1e-6;

/// A two-sided robust value bracket: per-state pessimistic (minimum over
/// the uncertainty set) and optimistic (maximum) values.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustBracket {
    /// Minimum value over every member of the uncertainty set.
    pub pessimistic: Vec<f64>,
    /// Maximum value over every member.
    pub optimistic: Vec<f64>,
}

impl RobustBracket {
    /// The `[pessimistic, optimistic]` pair at one state.
    pub fn at(&self, state: usize) -> (f64, f64) {
        (self.pessimistic[state], self.optimistic[state])
    }

    /// Whether per-state `values` lie inside the bracket everywhere, up to
    /// `tol` (the nominal model's values must — that is the
    /// `robust-contains-nominal` conformance oracle).
    pub fn contains(&self, values: &[f64], tol: f64) -> bool {
        values.len() == self.pessimistic.len()
            && values
                .iter()
                .enumerate()
                .all(|(s, &v)| v >= self.pessimistic[s] - tol && v <= self.optimistic[s] + tol)
    }

    /// The widest per-state gap `optimistic − pessimistic`.
    pub fn width(&self) -> f64 {
        self.pessimistic.iter().zip(&self.optimistic).map(|(&lo, &hi)| hi - lo).fold(0.0, f64::max)
    }
}

/// Result of robustly checking a formula on an interval model.
#[derive(Debug, Clone)]
pub struct RobustCheckResult {
    sat: Vec<bool>,
    values: Option<RobustBracket>,
    initial: usize,
    diagnostics: Diagnostics,
}

impl RobustCheckResult {
    fn new(sat: Vec<bool>, values: Option<RobustBracket>, initial: usize) -> Self {
        RobustCheckResult { sat, values, initial, diagnostics: Diagnostics::new() }
    }

    pub(crate) fn with_diagnostics(mut self, diagnostics: Diagnostics) -> Self {
        self.diagnostics = diagnostics;
        self
    }

    /// Whether the formula holds robustly (for every member) in `state`.
    pub fn holds_in(&self, state: usize) -> bool {
        self.sat[state]
    }

    /// Whether the formula holds robustly in the initial state.
    pub fn holds(&self) -> bool {
        self.sat[self.initial]
    }

    /// The per-state robust satisfaction mask.
    pub fn sat_mask(&self) -> &[bool] {
        &self.sat
    }

    /// The value bracket of a top-level `P`/`R` operator (`None` for purely
    /// propositional formulas).
    pub fn bracket(&self) -> Option<&RobustBracket> {
        self.values.as_ref()
    }

    /// The `[pessimistic, optimistic]` values in the initial state, when a
    /// bracket was computed.
    pub fn bracket_at_initial(&self) -> Option<(f64, f64)> {
        self.values.as_ref().map(|b| b.at(self.initial))
    }

    /// Diagnostics of the robust solve (sweeps, fallbacks, exhaustion).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }
}

/// Validates an interval DTMC's uncertainty set: finite endpoints inside
/// `[0, 1]`, `lo ≤ hi`, and a non-empty row polytope per state.
///
/// # Errors
///
/// Returns [`CheckError::InvalidInterval`] naming the first offending state.
pub fn validate_interval_dtmc(model: &IntervalDtmc) -> Result<(), CheckError> {
    for s in 0..model.num_states() {
        validate_row(model.row(s), s)?;
    }
    Ok(())
}

/// Validates an interval MDP (every choice of every state).
///
/// # Errors
///
/// Returns [`CheckError::InvalidInterval`] naming the first offending state.
pub fn validate_interval_mdp(model: &IntervalMdp) -> Result<(), CheckError> {
    for s in 0..model.num_states() {
        if model.choices(s).is_empty() {
            return Err(CheckError::InvalidInterval {
                state: s,
                detail: "state offers no choice".into(),
            });
        }
        for c in model.choices(s) {
            validate_row(&c.transitions, s)?;
        }
    }
    Ok(())
}

fn validate_row(row: &[IntervalTransition], state: usize) -> Result<(), CheckError> {
    let tol = tml_models::STOCHASTIC_TOLERANCE;
    if row.is_empty() {
        return Err(CheckError::InvalidInterval {
            state,
            detail: "state has no outgoing intervals".into(),
        });
    }
    let (mut lo_sum, mut hi_sum) = (0.0, 0.0);
    for &(t, lo, hi) in row {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(CheckError::InvalidInterval {
                state,
                detail: format!("non-finite endpoint [{lo}, {hi}] on transition to {t}"),
            });
        }
        if lo < -tol || hi > 1.0 + tol {
            return Err(CheckError::InvalidInterval {
                state,
                detail: format!("endpoint outside [0, 1]: [{lo}, {hi}] on transition to {t}"),
            });
        }
        if lo > hi + tol {
            return Err(CheckError::InvalidInterval {
                state,
                detail: format!("inverted interval [{lo}, {hi}] on transition to {t}"),
            });
        }
        lo_sum += lo;
        hi_sum += hi;
    }
    if lo_sum > 1.0 + tol {
        return Err(CheckError::InvalidInterval {
            state,
            detail: format!("empty polytope: lower bounds sum to {lo_sum} > 1"),
        });
    }
    if hi_sum < 1.0 - tol {
        return Err(CheckError::InvalidInterval {
            state,
            detail: format!("empty polytope: upper bounds sum to {hi_sum} < 1"),
        });
    }
    Ok(())
}

/// Rows up to this many transitions order their adversary in a stack
/// buffer with an insertion sort (at two or three transitions the library
/// sort costs more than the rest of the backup); longer rows take one heap
/// allocation and the library sort per backup.
const INLINE_ROW: usize = 16;

/// Extremizes `Σ p_t · x_t` over the row polytope in `O(k log k)`: lower
/// bounds everywhere, then the remaining mass in value order. Both sums
/// run in a canonical order — the base sum by target, the greedy by value
/// with ties broken on the target — so the result is bitwise independent
/// of the input ordering. Rows that are already strictly ascending by
/// target (as every builder emits them) skip the target sort, and rows of
/// up to [`INLINE_ROW`] transitions allocate nothing.
fn inner_expectation(row: &[IntervalTransition], values: &[f64], maximize: bool) -> f64 {
    let mut inline = [0usize; INLINE_ROW];
    let mut heap = Vec::new();
    let order: &mut [usize] = if row.len() <= INLINE_ROW {
        &mut inline[..row.len()]
    } else {
        heap.resize(row.len(), 0);
        &mut heap
    };
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    if !row.windows(2).all(|w| w[0].0 < w[1].0) {
        order.sort_unstable_by_key(|&i| row[i].0);
    }
    let mut total = 0.0;
    let mut budget = 1.0;
    // Base sum in target order; keep only the transitions with slack for
    // the greedy pass.
    let mut slack = 0;
    for k in 0..order.len() {
        let i = order[k];
        let (t, lo, hi) = row[i];
        if lo > 0.0 {
            total += lo * values[t];
        }
        budget -= lo;
        if hi > lo {
            order[slack] = i;
            slack += 1;
        }
    }
    if budget <= 0.0 {
        return total;
    }
    let greedy = &mut order[..slack];
    let cmp = |&a: &usize, &b: &usize| {
        let (va, vb) = (values[row[a].0], values[row[b].0]);
        let ord = va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal);
        let ord = if maximize { ord.reverse() } else { ord };
        ord.then_with(|| row[a].0.cmp(&row[b].0))
    };
    if row.len() <= INLINE_ROW {
        for j in 1..greedy.len() {
            let i = greedy[j];
            let mut k = j;
            while k > 0 && cmp(&i, &greedy[k - 1]).is_lt() {
                greedy[k] = greedy[k - 1];
                k -= 1;
            }
            greedy[k] = i;
        }
    } else {
        greedy.sort_unstable_by(cmp);
    }
    for &i in greedy.iter() {
        let (t, lo, hi) = row[i];
        let take = (hi - lo).min(budget);
        total += take * values[t];
        budget -= take;
        if budget <= 0.0 {
            break;
        }
    }
    total
}

/// The per-state row accessor both model kinds share: a DTMC state has one
/// implicit choice, an MDP state one per action. The outer operator folds
/// over choices (`min` under `Opt::Min`-style resolution, `max` otherwise —
/// a DTMC fold sees exactly one element, so the flag is vacuous there).
trait RobustModel {
    fn num_states(&self) -> usize;
    fn initial_state(&self) -> usize;
    fn labeling(&self) -> &Labeling;
    /// Extremized one-step backup at `state`: inner adversary per choice,
    /// outer fold over choices. `extra` adds a per-choice offset (choice
    /// rewards); `minimize_outer` picks the scheduler side.
    fn backup(
        &self,
        state: usize,
        values: &[f64],
        maximize_inner: bool,
        minimize_outer: bool,
        extra: &impl Fn(usize, usize) -> f64,
    ) -> f64;
    fn reward_structure(&self, name: Option<&str>) -> Result<&RewardStructure, CheckError>;
    /// The transition rows of `state`: one for a DTMC, one per choice of
    /// an MDP.
    fn rows(&self, state: usize) -> impl Iterator<Item = &[IntervalTransition]>;
    /// Appends the support successors of `state`: targets some member can
    /// reach in one step (`hi > 0` in any choice). May repeat targets.
    fn support(&self, state: usize, out: &mut Vec<usize>) {
        for row in self.rows(state) {
            out.extend(row.iter().filter(|&&(_, _, hi)| hi > 0.0).map(|&(t, _, _)| t));
        }
    }
}

impl RobustModel for IntervalDtmc {
    fn num_states(&self) -> usize {
        IntervalDtmc::num_states(self)
    }
    fn initial_state(&self) -> usize {
        IntervalDtmc::initial_state(self)
    }
    fn labeling(&self) -> &Labeling {
        IntervalDtmc::labeling(self)
    }
    fn backup(
        &self,
        state: usize,
        values: &[f64],
        maximize_inner: bool,
        _minimize_outer: bool,
        extra: &impl Fn(usize, usize) -> f64,
    ) -> f64 {
        inner_expectation(self.row(state), values, maximize_inner) + extra(state, 0)
    }
    fn reward_structure(&self, name: Option<&str>) -> Result<&RewardStructure, CheckError> {
        lookup_rewards(name, |n| self.reward_structure(n).ok(), self.default_reward_structure())
    }
    fn rows(&self, state: usize) -> impl Iterator<Item = &[IntervalTransition]> {
        std::iter::once(self.row(state))
    }
}

impl RobustModel for IntervalMdp {
    fn num_states(&self) -> usize {
        IntervalMdp::num_states(self)
    }
    fn initial_state(&self) -> usize {
        IntervalMdp::initial_state(self)
    }
    fn labeling(&self) -> &Labeling {
        IntervalMdp::labeling(self)
    }
    fn backup(
        &self,
        state: usize,
        values: &[f64],
        maximize_inner: bool,
        minimize_outer: bool,
        extra: &impl Fn(usize, usize) -> f64,
    ) -> f64 {
        let fold = |acc: f64, v: f64| if minimize_outer { acc.min(v) } else { acc.max(v) };
        let mut best = if minimize_outer { f64::INFINITY } else { f64::NEG_INFINITY };
        for (c, choice) in self.choices(state).iter().enumerate() {
            let IntervalChoice { transitions, .. } = choice;
            best = fold(
                best,
                inner_expectation(transitions, values, maximize_inner) + extra(state, c),
            );
        }
        best
    }
    fn reward_structure(&self, name: Option<&str>) -> Result<&RewardStructure, CheckError> {
        lookup_rewards(name, |n| self.reward_structure(n).ok(), self.default_reward_structure())
    }
    fn rows(&self, state: usize) -> impl Iterator<Item = &[IntervalTransition]> {
        self.choices(state).iter().map(|c| c.transitions.as_slice())
    }
}

/// Evaluates a propositional formula against the labeling. Probabilistic or
/// reward operators anywhere inside are rejected: robust satisfaction is a
/// for-all-members claim and does not commute with negation.
fn eval_propositional(
    labeling: &Labeling,
    n: usize,
    formula: &StateFormula,
) -> Result<Vec<bool>, CheckError> {
    Ok(match formula {
        StateFormula::True => vec![true; n],
        StateFormula::False => vec![false; n],
        StateFormula::Atom(a) => labeling.mask(a),
        StateFormula::Not(f) => eval_propositional(labeling, n, f)?.iter().map(|b| !b).collect(),
        StateFormula::And(a, b) => {
            zip(eval_propositional(labeling, n, a)?, eval_propositional(labeling, n, b)?, |x, y| {
                x && y
            })
        }
        StateFormula::Or(a, b) => {
            zip(eval_propositional(labeling, n, a)?, eval_propositional(labeling, n, b)?, |x, y| {
                x || y
            })
        }
        StateFormula::Implies(a, b) => {
            zip(eval_propositional(labeling, n, a)?, eval_propositional(labeling, n, b)?, |x, y| {
                !x || y
            })
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

fn zip(a: Vec<bool>, b: Vec<bool>, f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// The dependency structure of one unbounded query: the strongly
/// connected components of the support graph, in dependency order.
///
/// The support graph has an edge `s → t` when some member of the ball can
/// step from a live state `s` to `t` (`hi > 0`, united over an MDP's
/// choices). Frozen states never update, so their out-edges carry no
/// dependency and are left out. The graph over-approximates the graph of
/// every member, so solving components successors-first is sound for the
/// whole ball at once.
struct SupportBlocks {
    cond: Condensation,
    /// Whether each component needs iterating: more than one state, or one
    /// state with a self-loop. Any other block is exact after one backup.
    cyclic: Vec<bool>,
}

impl SupportBlocks {
    fn new<M: RobustModel>(model: &M, frozen: &[bool]) -> Self {
        let n = model.num_states();
        let mut targets = Vec::new();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        for (s, &f) in frozen.iter().enumerate() {
            if !f {
                model.support(s, &mut targets);
            }
            starts.push(targets.len());
        }
        let succ = |s: usize| &targets[starts[s]..starts[s + 1]];
        let cond = condensation_from(n, succ);
        let cyclic = cond.components().map(|c| c.len() > 1 || succ(c[0]).contains(&c[0])).collect();
        SupportBlocks { cond, cyclic }
    }
}

/// How far a robust value iteration runs.
enum Horizon<'a> {
    /// Exactly `k` synchronous steps (`U<=k`, `C<=k`).
    Steps(u64),
    /// To the fixed point, block by block.
    Unbounded(&'a SupportBlocks),
}

/// An unbounded solve polls the budget before a block sweep once this many
/// backups, or a sweep-equivalent if that is fewer, have run since the
/// last poll; that keeps the deadline clock off the per-state path.
const BUDGET_POLL_STRIDE: u64 = 4096;

/// One robust value-iteration solve. `x` holds the seed values, `frozen[s]`
/// states never update (targets, `!φ` states, infinite-reward states) and
/// `step` computes the backup of a live state from the current iterate.
///
/// * [`Horizon::Steps`] runs exactly `k` synchronous (Jacobi) sweeps: step
///   `i` must read only step `i − 1`, which the exact k-step semantics of
///   `U<=k` and `C<=k` needs.
/// * [`Horizon::Unbounded`] runs in-place Gauss–Seidel sweeps one block at
///   a time in dependency order, each block until its largest change is at
///   most [`CheckOptions::tolerance`] (or [`CheckOptions::max_iterations`]
///   sweeps). Fully frozen blocks are skipped.
///
/// Work is charged to the run's budget in sweep-equivalents — backups
/// divided by the state count, rounded up — so evaluation caps keep the
/// meaning they had for whole-model sweeps. On exhaustion the iterate so
/// far is returned: every value is then a bound from below.
fn robust_vi(
    run: &CheckRun<'_>,
    x: Vec<f64>,
    frozen: &[bool],
    horizon: &Horizon<'_>,
    step: impl Fn(usize, &[f64]) -> f64,
) -> Vec<f64> {
    tml_telemetry::counter!("checker.robust.solves", 1);
    match horizon {
        Horizon::Steps(k) => robust_vi_steps(run, x, frozen, *k, step),
        Horizon::Unbounded(blocks) => robust_vi_blocks(run, x, frozen, blocks, step),
    }
}

fn robust_vi_steps(
    run: &CheckRun<'_>,
    mut x: Vec<f64>,
    frozen: &[bool],
    k: u64,
    step: impl Fn(usize, &[f64]) -> f64,
) -> Vec<f64> {
    // Frozen entries are never written, so they stay equal in both buffers.
    let mut next = x.clone();
    let mut sweeps = 0u64;
    while sweeps < k {
        if let Some(cause) = run.exhausted_after(sweeps) {
            run.mark_exhausted(cause);
            break;
        }
        for (s, &f) in frozen.iter().enumerate() {
            if !f {
                next[s] = step(s, &x);
            }
        }
        std::mem::swap(&mut x, &mut next);
        sweeps += 1;
    }
    run.spend(sweeps);
    tml_telemetry::counter!("checker.robust.sweeps", sweeps);
    run.record_backend("robust", true);
    x
}

fn robust_vi_blocks(
    run: &CheckRun<'_>,
    mut x: Vec<f64>,
    frozen: &[bool],
    blocks: &SupportBlocks,
    step: impl Fn(usize, &[f64]) -> f64,
) -> Vec<f64> {
    let n = x.len().max(1) as u64;
    let opts = run.opts;
    let poll_every = n.min(BUDGET_POLL_STRIDE);
    let mut backups = 0u64;
    let mut next_poll = 0u64;
    let mut iterated = 0u64;
    let mut converged = true;
    let mut residual = 0.0_f64;
    'blocks: for (comp, &cyclic) in blocks.cond.components().zip(&blocks.cyclic) {
        if comp.iter().all(|&s| frozen[s]) {
            continue;
        }
        iterated += u64::from(cyclic);
        let mut sweeps = 0usize;
        loop {
            if backups >= next_poll {
                if let Some(cause) = run.exhausted_after(backups / n) {
                    run.mark_exhausted(cause);
                    converged = false;
                    break 'blocks;
                }
                next_poll = backups + poll_every;
            }
            let mut diff = 0.0_f64;
            // Descending order: models number states in flow order, so a
            // cycle's successors mostly come later, and this order carries
            // a fresh value once around a cycle per sweep (ascending order
            // needs about twice the sweeps).
            for &s in comp.iter().rev() {
                if frozen[s] {
                    continue;
                }
                let v = step(s, &x);
                let d = if v.is_infinite() && x[s].is_infinite() { 0.0 } else { (v - x[s]).abs() };
                diff = diff.max(d);
                x[s] = v;
                backups += 1;
            }
            sweeps += 1;
            if !cyclic || diff <= opts.tolerance {
                break;
            }
            if sweeps >= opts.max_iterations {
                converged = false;
                if diff.is_finite() {
                    residual = residual.max(diff);
                }
                break;
            }
        }
    }
    let equivalents = backups.div_ceil(n);
    run.spend(equivalents);
    tml_telemetry::counter!("checker.robust.sweeps", equivalents);
    tml_telemetry::counter!("checker.robust.blocks", iterated);
    run.record_backend("robust", converged);
    if residual > 0.0 {
        run.record_residual(residual);
    }
    x
}

/// One side of the robust `P(φ U ψ)`: states in `one` start at 1, the
/// rest at 0, and `frozen` states (`ψ ∨ ¬φ`, and any state fixed at 1)
/// keep their start value.
fn robust_until<M: RobustModel>(
    model: &M,
    one: &[bool],
    frozen: &[bool],
    horizon: &Horizon<'_>,
    run: &CheckRun<'_>,
    maximize: bool,
    minimize_outer: bool,
) -> Vec<f64> {
    let x: Vec<f64> = one.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
    let zero = |_: usize, _: usize| 0.0;
    robust_vi(run, x, frozen, horizon, |s, vals| {
        model.backup(s, vals, maximize, minimize_outer, &zero).clamp(0.0, 1.0)
    })
}

/// The `(pessimistic, optimistic)` pair of `P(φ U ψ)`. Both sides start
/// from the frozen mask `ψ ∨ ¬φ` and, when unbounded, share one
/// condensation of it; an unbounded side also fixes its [`prob1`] states
/// at exactly 1, which value iteration from below only approaches.
fn until_bracket<M: RobustModel>(
    model: &M,
    phi: &[bool],
    target: &[bool],
    bound: Option<u64>,
    run: &CheckRun<'_>,
) -> (Vec<f64>, Vec<f64>) {
    let frozen: Vec<bool> = target.iter().zip(phi).map(|(&t, &p)| t || !p).collect();
    if let Some(k) = bound {
        let horizon = Horizon::Steps(k);
        return (
            robust_until(model, target, &frozen, &horizon, run, false, true),
            robust_until(model, target, &frozen, &horizon, run, true, false),
        );
    }
    let blocks = SupportBlocks::new(model, &frozen);
    let horizon = Horizon::Unbounded(&blocks);
    let side = |optimistic: bool| {
        let one = prob1(model, phi, target, optimistic);
        let frozen: Vec<bool> = frozen.iter().zip(&one).map(|(&f, &o)| f || o).collect();
        robust_until(model, &one, &frozen, &horizon, run, optimistic, !optimistic)
    };
    (side(false), side(true))
}

/// The states whose robust `P(φ U ψ)` is exactly 1 on one side: for some
/// member and scheduler when `optimistic`, else for every member and
/// scheduler.
///
/// This is the nested fixed point of MDP analysis,
/// `νZ. μY. ψ ∨ (φ ∧ Q row. stays(row, Z) ∧ enters(row, Y))`, with the
/// scheduler's quantifier `Q` over a state's rows (∃ when optimistic, ∀
/// otherwise) and nature's supports read off the intervals. A transition
/// with `lo > 0` is a *must*-edge that every member takes. One with
/// `hi > 0` is a *may*-edge, which some member takes when the lower
/// bounds leave mass to spare ([`usable`]). On the optimistic side some
/// member of the row keeps all of its mass in `Z` and steps into `Y`; on
/// the pessimistic side every member does.
///
/// States that can no longer stay in `Z` leave it at once, and their
/// predecessors are rechecked, so the outer loop ends after a few rounds
/// instead of one round per step of the longest path out of `Z`.
fn prob1<M: RobustModel>(model: &M, phi: &[bool], target: &[bool], optimistic: bool) -> Vec<bool> {
    let n = model.num_states();
    let preds = SupportPreds::new(model, |s| phi[s] && !target[s]);
    let quantify = |s: usize, ok: &dyn Fn(&[IntervalTransition]) -> bool| {
        let mut rows = model.rows(s);
        if optimistic {
            rows.any(ok)
        } else {
            rows.all(ok)
        }
    };
    let stays = |row: &[IntervalTransition], z: &[bool]| {
        if optimistic {
            can_stay_in(row, |t| z[t])
        } else {
            usable(row).all(|t| z[t])
        }
    };
    let enters = |row: &[IntervalTransition], y: &[bool]| {
        if optimistic {
            usable(row).any(|t| y[t])
        } else {
            !can_stay_in(row, |t| !y[t])
        }
    };
    let mut z: Vec<bool> = phi.iter().zip(target).map(|(&p, &t)| p || t).collect();
    let mut left: Vec<usize> = (0..n).filter(|&s| !z[s]).collect();
    loop {
        while let Some(t) = left.pop() {
            for &s in preds.of(t) {
                if z[s] && !quantify(s, &|row| stays(row, &z)) {
                    z[s] = false;
                    left.push(s);
                }
            }
        }
        // A state's rows only change verdict when a successor joins `y`.
        let mut y = target.to_vec();
        let mut stack: Vec<usize> = (0..n).filter(|&s| target[s]).collect();
        while let Some(t) = stack.pop() {
            for &s in preds.of(t) {
                if !y[s] && z[s] && quantify(s, &|row| stays(row, &z) && enters(row, &y)) {
                    y[s] = true;
                    stack.push(s);
                }
            }
        }
        left = (0..n).filter(|&s| z[s] && !y[s]).collect();
        if left.is_empty() {
            return z;
        }
        for &s in &left {
            z[s] = false;
        }
    }
}

/// The targets some member of the row's polytope steps to with positive
/// probability: every must-edge, and every may-edge when the lower bounds
/// sum to less than one.
fn usable(row: &[IntervalTransition]) -> impl Iterator<Item = usize> + '_ {
    let spare = row.iter().map(|&(_, lo, _)| lo).sum::<f64>() < 1.0;
    row.iter().filter(move |&&(_, lo, hi)| lo > 0.0 || (spare && hi > 0.0)).map(|&(t, _, _)| t)
}

/// Whether some member of the row's polytope puts all of its mass on
/// states `inside`: no must-edge leaves, and the upper bounds inside can
/// carry the whole mass (to the tolerance the row was validated with).
fn can_stay_in(row: &[IntervalTransition], inside: impl Fn(usize) -> bool) -> bool {
    let mut carry = 0.0;
    for &(t, lo, hi) in row {
        if inside(t) {
            carry += hi;
        } else if lo > 0.0 {
            return false;
        }
    }
    carry >= 1.0 - tml_models::STOCHASTIC_TOLERANCE
}

/// Predecessors along the support graph's edges, in one flat array: `of(t)`
/// lists every `s` with `source(s)` and an edge `s → t` (`hi > 0`).
struct SupportPreds {
    starts: Vec<usize>,
    sources: Vec<usize>,
}

impl SupportPreds {
    fn new<M: RobustModel>(model: &M, source: impl Fn(usize) -> bool) -> Self {
        let n = model.num_states();
        let mut edges = Vec::new();
        let mut targets = Vec::new();
        for s in (0..n).filter(|&s| source(s)) {
            targets.clear();
            model.support(s, &mut targets);
            edges.extend(targets.iter().map(|&t| (t, s)));
        }
        let mut starts = vec![0usize; n + 1];
        for &(t, _) in &edges {
            starts[t + 1] += 1;
        }
        for t in 0..n {
            starts[t + 1] += starts[t];
        }
        let mut cursor = starts.clone();
        let mut sources = vec![0usize; edges.len()];
        for &(t, s) in &edges {
            sources[cursor[t]] = s;
            cursor[t] += 1;
        }
        SupportPreds { starts, sources }
    }

    fn of(&self, t: usize) -> &[usize] {
        &self.sources[self.starts[t]..self.starts[t + 1]]
    }
}

/// One-step robust `P(X target)`.
fn robust_next<M: RobustModel>(
    model: &M,
    target: &[bool],
    run: &CheckRun<'_>,
    maximize: bool,
    minimize_outer: bool,
) -> Vec<f64> {
    let n = model.num_states();
    let ind: Vec<f64> = target.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
    run.spend(1);
    tml_telemetry::counter!("checker.robust.solves", 1);
    tml_telemetry::counter!("checker.robust.sweeps", 1);
    run.record_backend("robust", true);
    let zero = |_: usize, _: usize| 0.0;
    (0..n).map(|s| model.backup(s, &ind, maximize, minimize_outer, &zero).clamp(0.0, 1.0)).collect()
}

/// The robust bracket of the expected reward accumulated until reaching
/// `target` on an interval DTMC. States whose reach probability on a side
/// falls short of one get `+∞` there. The reach pre-pass and both reward
/// sides share one condensation.
fn reach_reward_bracket(
    model: &IntervalDtmc,
    rewards: &RewardStructure,
    target: &[bool],
    run: &CheckRun<'_>,
) -> RobustBracket {
    let blocks = SupportBlocks::new(model, target);
    let horizon = Horizon::Unbounded(&blocks);
    let side = |maximize: bool| {
        // Maximal reward is finite only when *every* member reaches a.s.
        // (pessimistic reach = 1); minimal reward needs *some* member to
        // reach a.s. (optimistic reach = 1).
        let reach = robust_until(model, target, target, &horizon, run, !maximize, false);
        let finite: Vec<bool> = reach.iter().map(|&p| p >= 1.0 - AS_REACH_EPS).collect();
        let x: Vec<f64> = target
            .iter()
            .zip(&finite)
            .map(|(&t, &f)| if t || f { 0.0 } else { f64::INFINITY })
            .collect();
        let frozen: Vec<bool> = target.iter().zip(&finite).map(|(&t, &f)| t || !f).collect();
        let zero = |_: usize, _: usize| 0.0;
        robust_vi(run, x, &frozen, &horizon, |s, vals| {
            rewards.state_reward(s) + RobustModel::backup(model, s, vals, maximize, false, &zero)
        })
    };
    RobustBracket { pessimistic: side(false), optimistic: side(true) }
}

/// Robust expected reward cumulated over `k` steps.
fn robust_cumulative_rewards<M: RobustModel>(
    model: &M,
    rewards: &RewardStructure,
    k: u64,
    run: &CheckRun<'_>,
    maximize: bool,
    minimize_outer: bool,
) -> Vec<f64> {
    let n = model.num_states();
    let x = vec![0.0; n];
    let frozen = vec![false; n];
    let extra = |s: usize, c: usize| rewards.state_reward(s) + rewards.choice_reward(s, c);
    robust_vi(run, x, &frozen, &Horizon::Steps(k), |s, vals| {
        model.backup(s, vals, maximize, minimize_outer, &extra)
    })
}

/// The `(pessimistic, optimistic)` bracket of a path formula's probability.
/// `outer`: `(minimize_outer_for_pessimistic, minimize_outer_for_optimistic)`
/// — on a DTMC both are vacuous; on an MDP the scheduler joins nature on
/// each side (min with min, max with max), bracketing over schedulers *and*
/// members.
fn path_bracket<M: RobustModel>(
    model: &M,
    path: &PathFormula,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    let n = model.num_states();
    let lab = model.labeling();
    let (pess, opt) = match path {
        PathFormula::Next(f) => {
            let target = eval_propositional(lab, n, f)?;
            (
                robust_next(model, &target, run, false, true),
                robust_next(model, &target, run, true, false),
            )
        }
        PathFormula::Until { lhs, rhs, bound } => {
            let phi = eval_propositional(lab, n, lhs)?;
            let target = eval_propositional(lab, n, rhs)?;
            until_bracket(model, &phi, &target, *bound, run)
        }
        PathFormula::Eventually { sub, bound } => {
            let target = eval_propositional(lab, n, sub)?;
            until_bracket(model, &vec![true; n], &target, *bound, run)
        }
        PathFormula::Globally { sub, bound } => {
            // Robust duality: the adversary maximizing P(F ¬φ) is the one
            // minimizing P(G φ), so the G-bracket is the complemented,
            // side-swapped F-bracket.
            let inv: Vec<bool> = eval_propositional(lab, n, sub)?.iter().map(|b| !b).collect();
            let (f_lo, f_hi) = until_bracket(model, &vec![true; n], &inv, *bound, run);
            (
                f_hi.iter().map(|p| (1.0 - p).clamp(0.0, 1.0)).collect(),
                f_lo.iter().map(|p| (1.0 - p).clamp(0.0, 1.0)).collect(),
            )
        }
    };
    Ok(RobustBracket { pessimistic: pess, optimistic: opt })
}

enum AnyInterval<'a> {
    Dtmc(&'a IntervalDtmc),
    Mdp(&'a IntervalMdp),
}

impl AnyInterval<'_> {
    fn validate(&self) -> Result<(), CheckError> {
        match self {
            AnyInterval::Dtmc(m) => validate_interval_dtmc(m),
            AnyInterval::Mdp(m) => validate_interval_mdp(m),
        }
    }

    fn path_bracket(
        &self,
        path: &PathFormula,
        run: &CheckRun<'_>,
    ) -> Result<RobustBracket, CheckError> {
        match self {
            AnyInterval::Dtmc(m) => path_bracket(*m, path, run),
            AnyInterval::Mdp(m) => path_bracket(*m, path, run),
        }
    }

    fn reward_bracket(
        &self,
        structure: Option<&str>,
        kind: &RewardKind,
        run: &CheckRun<'_>,
    ) -> Result<RobustBracket, CheckError> {
        match self {
            AnyInterval::Dtmc(m) => {
                let rewards = RobustModel::reward_structure(*m, structure)?;
                match kind {
                    RewardKind::Reach(target) => {
                        let n = RobustModel::num_states(*m);
                        let mask = eval_propositional(RobustModel::labeling(*m), n, target)?;
                        Ok(reach_reward_bracket(m, rewards, &mask, run))
                    }
                    RewardKind::Cumulative(k) => Ok(RobustBracket {
                        pessimistic: robust_cumulative_rewards(*m, rewards, *k, run, false, true),
                        optimistic: robust_cumulative_rewards(*m, rewards, *k, run, true, false),
                    }),
                }
            }
            AnyInterval::Mdp(m) => match kind {
                RewardKind::Reach(_) => Err(CheckError::Unsupported {
                    detail: "robust reach rewards on interval MDPs are not supported \
                             (see DESIGN.md §16); use cumulative rewards or an induced \
                             interval DTMC"
                        .into(),
                }),
                RewardKind::Cumulative(k) => {
                    let rewards = RobustModel::reward_structure(*m, structure)?;
                    Ok(RobustBracket {
                        pessimistic: robust_cumulative_rewards(*m, rewards, *k, run, false, true),
                        optimistic: robust_cumulative_rewards(*m, rewards, *k, run, true, false),
                    })
                }
            },
        }
    }

    fn labeling(&self) -> &Labeling {
        match self {
            AnyInterval::Dtmc(m) => RobustModel::labeling(*m),
            AnyInterval::Mdp(m) => RobustModel::labeling(*m),
        }
    }

    fn num_states(&self) -> usize {
        match self {
            AnyInterval::Dtmc(m) => RobustModel::num_states(*m),
            AnyInterval::Mdp(m) => RobustModel::num_states(*m),
        }
    }

    fn initial_state(&self) -> usize {
        match self {
            AnyInterval::Dtmc(m) => RobustModel::initial_state(*m),
            AnyInterval::Mdp(m) => RobustModel::initial_state(*m),
        }
    }
}

fn check_any(
    model: &AnyInterval<'_>,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    model.validate().inspect_err(|_| run.record_backend("robust", false))?;
    let n = model.num_states();
    let (sat, values) = match formula {
        StateFormula::Prob { op, bound, path, .. } => {
            let bracket = model.path_bracket(path, run)?;
            let sat = robust_sat(run.opts, *op, *bound, &bracket);
            (sat, Some(bracket))
        }
        StateFormula::Reward { structure, op, bound, kind, .. } => {
            let bracket = model.reward_bracket(structure.as_deref(), kind, run)?;
            let sat = robust_sat(run.opts, *op, *bound, &bracket);
            (sat, Some(bracket))
        }
        prop => (eval_propositional(model.labeling(), n, prop)?, None),
    };
    Ok(RobustCheckResult::new(sat, values, model.initial_state()))
}

/// Robust satisfaction: lower bounds must hold at the pessimistic value,
/// upper bounds at the optimistic one — i.e. on the worst member.
fn robust_sat(
    opts: &CheckOptions,
    op: tml_logic::CmpOp,
    bound: f64,
    bracket: &RobustBracket,
) -> Vec<bool> {
    let side = if op.is_lower_bound() { &bracket.pessimistic } else { &bracket.optimistic };
    side.iter().map(|&v| opts.test_bound(op, v, bound)).collect()
}

fn query_any(
    model: &AnyInterval<'_>,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    model.validate().inspect_err(|_| run.record_backend("robust", false))?;
    match query {
        Query::Prob { path, .. } => model.path_bracket(path, run),
        Query::Reward { structure, kind, .. } => {
            model.reward_bracket(structure.as_deref(), kind, run)
        }
    }
}

pub(crate) fn check_dtmc_run(
    model: &IntervalDtmc,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    check_any(&AnyInterval::Dtmc(model), formula, run)
}

pub(crate) fn check_mdp_run(
    model: &IntervalMdp,
    formula: &StateFormula,
    run: &CheckRun<'_>,
) -> Result<RobustCheckResult, CheckError> {
    check_any(&AnyInterval::Mdp(model), formula, run)
}

pub(crate) fn query_dtmc_run(
    model: &IntervalDtmc,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    query_any(&AnyInterval::Dtmc(model), query, run)
}

pub(crate) fn query_mdp_run(
    model: &IntervalMdp,
    query: &Query,
    run: &CheckRun<'_>,
) -> Result<RobustBracket, CheckError> {
    query_any(&AnyInterval::Mdp(model), query, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Checker, LinearSolver};
    use tml_logic::parse_formula;
    use tml_models::interval::IntervalDtmcBuilder;
    use tml_models::{Dtmc, DtmcBuilder};
    use tml_numerics::Budget;

    fn gambler() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.3).unwrap();
        b.transition(0, 2, 0.7).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.label(1, "rich").unwrap();
        b.state_reward("steps", 0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn degenerate_bracket_collapses_to_scalar_value() {
        let d = gambler();
        let m = IntervalDtmc::degenerate(&d);
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let r = Checker::new().check_interval_dtmc(&m, &phi).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((lo - 0.3).abs() < 1e-10 && (hi - 0.3).abs() < 1e-10);
        assert!(r.holds());
    }

    #[test]
    fn widening_widens_the_bracket_and_flips_the_verdict() {
        let d = gambler();
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let narrow = IntervalDtmc::from_dtmc(&d, 0.01);
        let wide = IntervalDtmc::from_dtmc(&d, 0.2);
        let rn = Checker::new().check_interval_dtmc(&narrow, &phi).unwrap();
        let rw = Checker::new().check_interval_dtmc(&wide, &phi).unwrap();
        let (nlo, nhi) = rn.bracket_at_initial().unwrap();
        let (wlo, whi) = rw.bracket_at_initial().unwrap();
        assert!(wlo <= nlo && whi >= nhi, "wider set, wider bracket");
        assert!(rn.holds(), "±0.01 keeps the bound");
        // ±0.2 admits a member with P(F rich) = 0.1 < 0.25.
        assert!(!rw.holds(), "±0.2 breaks the bound robustly");
        // Both brackets contain the nominal value 0.3.
        assert!(rn.bracket().unwrap().contains(&[0.3, 1.0, 0.0], 1e-9));
        assert!(rw.bracket().unwrap().contains(&[0.3, 1.0, 0.0], 1e-9));
    }

    #[test]
    fn rewards_bracket_and_go_infinite() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.05);
        // Expected steps until absorption: exactly one step from state 0.
        let phi = parse_formula("R{\"steps\"}<=1.5 [ F \"rich\" ]").unwrap();
        let r = Checker::new().check_interval_dtmc(&m, &phi).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        // "rich" is not reached a.s. (the loser loop absorbs), so the
        // reward is infinite on every side.
        assert!(lo.is_infinite() && hi.is_infinite());
        assert!(!r.holds());

        // Against the full absorption target the reward is exactly 1.
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.label(1, "done").unwrap();
        b.state_reward("steps", 0, 1.0).unwrap();
        let line = b.build().unwrap();
        let m = IntervalDtmc::degenerate(&line);
        let phi = parse_formula("R{\"steps\"}<=1.0 [ F \"done\" ]").unwrap();
        let r = Checker::new().check_interval_dtmc(&m, &phi).unwrap();
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((lo - 1.0).abs() < 1e-9 && (hi - 1.0).abs() < 1e-9);
        assert!(r.holds());
    }

    #[test]
    fn validation_rejects_degenerate_sets() {
        let mut b = IntervalDtmcBuilder::unchecked(2);
        b.transition(0, 1, 0.9, 0.1).unwrap();
        b.transition(1, 1, 1.0, 1.0).unwrap();
        let inverted = b.build().unwrap();
        let phi = parse_formula("P>=0.5 [ F \"x\" ]").unwrap();
        let err = Checker::new().check_interval_dtmc(&inverted, &phi).unwrap_err();
        assert!(matches!(err, CheckError::InvalidInterval { state: 0, .. }), "{err}");

        let mut b = IntervalDtmcBuilder::unchecked(1);
        b.transition(0, 0, f64::NAN, 1.0).unwrap();
        let nan = b.build().unwrap();
        let err = Checker::new().check_interval_dtmc(&nan, &phi).unwrap_err();
        assert!(matches!(err, CheckError::InvalidInterval { .. }), "{err}");
        assert!(err.to_string().contains("state 0"), "{err}");
    }

    #[test]
    fn nested_probabilistic_operators_rejected() {
        let d = gambler();
        let m = IntervalDtmc::degenerate(&d);
        let nested = parse_formula("P>=0.5 [ F P>=0.5 [ F \"rich\" ] ]").unwrap();
        let err = Checker::new().check_interval_dtmc(&m, &nested).unwrap_err();
        assert!(matches!(err, CheckError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn every_solver_checks_the_whole_uncertainty_set() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        for solver in [LinearSolver::Auto, LinearSolver::GaussSeidel] {
            let r = Checker::with_options(CheckOptions { solver, ..Default::default() })
                .check_interval_dtmc(&m, &phi)
                .unwrap();
            let (lo, hi) = r.bracket_at_initial().unwrap();
            assert!(hi - lo > 0.01, "{solver:?}: real bracket, not the nominal point");
            assert!(r.diagnostics().fallbacks.is_empty());
        }
    }

    #[test]
    fn interval_mdp_brackets_over_schedulers_and_members() {
        let mut b = tml_models::interval::IntervalMdpBuilder::new(3);
        b.choice(0, "safe", &[(1, 0.55, 0.65), (2, 0.35, 0.45)]).unwrap();
        b.choice(0, "risky", &[(1, 0.2, 0.9), (2, 0.1, 0.8)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        let m = b.build().unwrap();
        let q = tml_logic::parse_query("P=? [ F \"goal\" ]").unwrap();
        let (bracket, _) = Checker::new().query_interval_mdp(&m, &q).unwrap();
        let (lo, hi) = bracket.at(0);
        // Worst scheduler+member: risky with p(goal)=0.2; best: risky with 0.9.
        assert!((lo - 0.2).abs() < 1e-9, "pessimistic {lo}");
        assert!((hi - 0.9).abs() < 1e-9, "optimistic {hi}");
        // Reach rewards are unsupported on interval MDPs.
        let phi = parse_formula("R<=1.0 [ F \"goal\" ]").unwrap();
        let err = Checker::new().check_interval_mdp(&m, &phi).unwrap_err();
        assert!(matches!(err, CheckError::Unsupported { .. }));
    }

    #[test]
    fn budget_exhaustion_is_reported_not_hung() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let phi = parse_formula("P>=0.25 [ F \"rich\" ]").unwrap();
        let budget = Budget::unlimited().with_max_evaluations(1);
        let opts = CheckOptions::default();
        let run = CheckRun::new(&opts, &budget);
        let r = check_dtmc_run(&m, &phi, &run).unwrap();
        let diag = run.finish();
        assert!(diag.exhausted.is_some());
        // Best-effort values are still in range.
        let (lo, hi) = r.bracket_at_initial().unwrap();
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn budget_stopped_interval_mdp_query_reports_exhaustion() {
        let mut b = tml_models::interval::IntervalMdpBuilder::new(4);
        b.choice(0, "a", &[(0, 0.3, 0.5), (1, 0.2, 0.4), (3, 0.1, 0.3)]).unwrap();
        b.choice(0, "b", &[(1, 0.4, 0.6), (3, 0.4, 0.6)]).unwrap();
        b.choice(1, "a", &[(0, 0.2, 0.4), (2, 0.3, 0.5), (3, 0.2, 0.4)]).unwrap();
        b.choice(2, "a", &[(2, 1.0, 1.0)]).unwrap();
        b.choice(3, "a", &[(3, 1.0, 1.0)]).unwrap();
        b.label(2, "goal").unwrap();
        let m = b.build().unwrap();
        let q = tml_logic::parse_query("Pmin=? [ F \"goal\" ]").unwrap();
        let (_, full) = Checker::new().query_interval_mdp(&m, &q).unwrap();
        assert!(full.exhausted.is_none());
        let starved = Checker::new().with_budget(Budget::unlimited().with_max_evaluations(1));
        let (_, diag) = starved.query_interval_mdp(&m, &q).unwrap();
        assert!(diag.exhausted.is_some(), "{diag:?}");
        assert!(diag.degraded());
    }

    #[test]
    fn bounded_and_next_and_globally() {
        let d = gambler();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let checker = Checker::with_options(CheckOptions::default());
        let q = tml_logic::parse_query("P=? [ X \"rich\" ]").unwrap();
        let b = checker.query_interval_dtmc(&m, &q).unwrap();
        let (lo, hi) = b.at(0);
        assert!((lo - 0.2).abs() < 1e-9 && (hi - 0.4).abs() < 1e-9);

        let q = tml_logic::parse_query("P=? [ F<=1 \"rich\" ]").unwrap();
        let b2 = checker.query_interval_dtmc(&m, &q).unwrap();
        assert_eq!(b2.at(0), (lo, hi), "one-step eventually equals next here");

        let q = tml_logic::parse_query("P=? [ G !\"rich\" ]").unwrap();
        let g = checker.query_interval_dtmc(&m, &q).unwrap();
        let (glo, ghi) = g.at(0);
        // P(G ¬rich) = 1 − P(F rich): bracket [1−0.4, 1−0.2].
        assert!((glo - 0.6).abs() < 1e-9 && (ghi - 0.8).abs() < 1e-9);
    }

    #[test]
    fn inner_assignment_is_order_independent() {
        let values = [0.9, 0.1, 0.5];
        let row_a = vec![(0, 0.1, 0.5), (1, 0.2, 0.6), (2, 0.1, 0.4)];
        let mut row_b = row_a.clone();
        row_b.reverse();
        for maximize in [false, true] {
            let a = inner_expectation(&row_a, &values, maximize);
            let b = inner_expectation(&row_b, &values, maximize);
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise determinism");
        }
        // Hand-checked pessimistic assignment: mass 1−0.4=0.6 distributed
        // to v=0.1 first (cap 0.4), then v=0.5 (cap 0.2 of 0.3):
        // 0.1*0.9(lo) + 0.2*0.1(lo) + 0.1*0.5(lo) + 0.4*0.1 + 0.2*0.5.
        let pess = inner_expectation(&row_a, &values, false);
        assert!((pess - (0.09 + 0.02 + 0.05 + 0.04 + 0.1)).abs() < 1e-12, "{pess}");
    }

    #[test]
    fn long_rows_take_the_heap_path_and_stay_order_independent() {
        // More transitions than INLINE_ROW, with tied values, in three
        // input orders.
        let k = INLINE_ROW + 4;
        let values: Vec<f64> = (0..k).map(|t| ((t * 7) % 5) as f64 / 4.0).collect();
        let row: Vec<IntervalTransition> =
            (0..k).map(|t| (t, 0.2 / k as f64, 3.0 / k as f64)).collect();
        let mut reversed = row.clone();
        reversed.reverse();
        let mut rotated = row.clone();
        rotated.rotate_left(5);
        for maximize in [false, true] {
            let a = inner_expectation(&row, &values, maximize);
            assert!((0.0..=1.0).contains(&a), "{a}");
            for other in [&reversed, &rotated] {
                let b = inner_expectation(other, &values, maximize);
                assert_eq!(a.to_bits(), b.to_bits(), "bitwise determinism");
            }
        }
        let (lo, hi) =
            (inner_expectation(&row, &values, false), inner_expectation(&row, &values, true));
        assert!(lo < hi, "a real bracket: {lo} < {hi}");
    }
}
