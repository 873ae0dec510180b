//! The one repair loop shared by Model Repair (DTMC and MDP) and Data
//! Repair: verify → compile → lift → solve → re-verify.
//!
//! Each repair describes itself as a [`RepairProblem`]: its parameter box
//! and cost, the model (and, when robust, the uncertainty ball) at a point,
//! the parametric chain its property compiles against, its validity rows,
//! its property oracle and any fixed starting points. [`drive`] owns the
//! rest: the initial check, the symbolic-or-oracle choice with its degree
//! gate, margin and bound, the robust and lifting fallbacks, the lifting
//! digest, the solver's start order, the re-verify, the certificate and
//! the status.

use std::borrow::Cow;
use std::sync::Arc;

use tml_checker::{CheckError, CheckOptions, CheckResult, Checker};
use tml_logic::{CmpOp, StateFormula};
use tml_models::{Dtmc, IntervalDtmc, Mdp};
use tml_numerics::{Budget, Diagnostics};
use tml_optimizer::{BlockRow, ConstraintSense, Nlp, PenaltySolver, Solution};
use tml_parametric::{
    BoundSense, CompiledConstraintSet, LiftingOutcome, OptimalityCertificate, ParametricDtmc,
    Polynomial, RationalFunction, RegionProblem, RegionRow, RegionSolver,
};
use tml_telemetry::{counter, span, SpanGuard};

use crate::constraint::{compile_constraint, SymbolicConstraint};
use crate::oracle::CompiledOracle;
use crate::{LinearExpr, RepairError, RepairOptions, RepairStatus, RepairStrategy, RobustSpec};

/// Rational functions of non-trivial degree lose f64 precision when
/// evaluated (state elimination without exact arithmetic leaves uncancelled
/// common factors that cause catastrophic cancellation — PARAM avoids this
/// with exact rationals), so above this complexity the property constraint
/// is the exact oracle instead. The symbolic path is cross-validated to
/// machine precision below it.
const MAX_SYMBOLIC_DEGREE: u32 = 16;

/// A model the driver checks nominally.
pub(crate) trait Checkable: Clone {
    fn check(&self, checker: &Checker, formula: &StateFormula) -> Result<CheckResult, CheckError>;
}

impl Checkable for Dtmc {
    fn check(&self, checker: &Checker, formula: &StateFormula) -> Result<CheckResult, CheckError> {
        checker.check_dtmc(self, formula)
    }
}

impl Checkable for Mdp {
    fn check(&self, checker: &Checker, formula: &StateFormula) -> Result<CheckResult, CheckError> {
        checker.check_mdp(self, formula)
    }
}

/// The property's value at a point, `NaN` where the candidate cannot be
/// built or checked.
type ValueFn = dyn Fn(&[f64]) -> f64 + Send + Sync;

/// The property constraint of a non-symbolic repair.
pub(crate) enum PropertyOracle {
    /// The compiled reach system; the driver records its use counts.
    Compiled(Arc<CompiledOracle>),
    /// Any other oracle.
    Closure(Box<ValueFn>),
}

/// What a property oracle checks at each point.
pub(crate) struct OracleSpec {
    pub formula: StateFormula,
    /// The property's top-level operator.
    pub op: CmpOp,
    pub robust: Option<RobustSpec>,
    pub check: CheckOptions,
    /// The repair budget without its evaluation cap.
    pub budget: Budget,
}

/// One repair as the driver sees it.
pub(crate) trait RepairProblem {
    /// The model the repair returns.
    type Model: Checkable;
    /// Whether [`drive`] opens the `model_repair.*` phase spans (data
    /// repair records only its root span).
    const PHASE_SPANS: bool = true;

    /// Builds what the constraints need, once the base model is known to
    /// violate the property, and returns the parameter box.
    fn prepare(&mut self) -> Result<Vec<(f64, f64)>, RepairError>;

    /// Registers the repair cost as the NLP objective.
    fn objective(&self, nlp: &mut Nlp);

    /// The repair cost as a polynomial, which the region solver bounds.
    fn cost_polynomial(&self) -> Polynomial;

    /// The base model (`point = None`) or the candidate at `point`, with
    /// the uncertainty ball to check instead when `robust` is set.
    fn candidate(
        &self,
        point: Option<&[f64]>,
        robust: Option<RobustSpec>,
    ) -> Result<(Cow<'_, Self::Model>, Option<IntervalDtmc>), RepairError>;

    /// The parametric chain the property may compile against
    /// symbolically; `None` for MDPs.
    fn parametric(&self) -> Option<&ParametricDtmc> {
        None
    }

    /// `(name, base probability, perturbation)` of every perturbed
    /// probability, which must stay inside `[m, 1 − m]`.
    fn validity(&self) -> Vec<(String, f64, LinearExpr)> {
        Vec::new()
    }

    /// The property oracle: compiled or instantiate-and-check
    /// (relearn-and-check for data), or the [`conservative_end`] of the
    /// candidate's ball when robust.
    fn oracle(&self, spec: OracleSpec) -> PropertyOracle;

    /// Points the penalty solver tries before any other.
    fn start_points(&self) -> Vec<Vec<f64>> {
        Vec::new()
    }
}

/// What [`drive`] concluded; each repair builds its public outcome from it.
pub(crate) struct RepairRun<M> {
    pub status: RepairStatus,
    /// The penalty solver's final point; `None` when no solver ran.
    pub point: Option<Vec<f64>>,
    /// The repair cost at `point` (0 without one).
    pub cost: f64,
    pub model: Option<M>,
    pub verified: bool,
    pub evaluations: usize,
    pub certificate: Option<OptimalityCertificate>,
    pub diagnostics: Diagnostics,
}

/// Runs one repair: checks the base model, compiles the property into the
/// NLP (symbolic below [`MAX_SYMBOLIC_DEGREE`], the problem's oracle
/// otherwise), lifts regions when the strategy asks for it, solves, and
/// re-verifies the solver's point.
///
/// # Errors
///
/// Invalid robust specs, unsupported properties and checker, parametric or
/// optimizer errors.
pub(crate) fn drive<P: RepairProblem>(
    problem: &mut P,
    formula: &StateFormula,
    opts: &RepairOptions,
    budget: &Budget,
    warm_starts: &[Vec<f64>],
) -> Result<RepairRun<P::Model>, RepairError> {
    let robust = opts.robust;
    if let Some(rs) = &robust {
        rs.validate()?;
    }
    let checker = Checker::with_options(opts.check).with_budget(budget.clone());
    let mut diag = Diagnostics::new();
    let (base, holds) = {
        let _s = phase::<P>("model_repair.verify_initial");
        verify(problem, &checker, formula, robust, None, &mut diag)?
    };
    if holds {
        return Ok(RepairRun {
            status: RepairStatus::AlreadySatisfied,
            point: None,
            cost: 0.0,
            model: Some(base.into_owned()),
            verified: true,
            evaluations: 0,
            certificate: None,
            diagnostics: diag,
        });
    }
    drop(base);

    let compile_span = phase::<P>("model_repair.compile");
    let bounds = problem.prepare()?;
    let mut nlp = Nlp::new(bounds.len(), bounds.clone())?;
    problem.objective(&mut nlp);
    // Robust repair constrains the *worst-case* value over the uncertainty
    // ball, which the symbolic rational function (a nominal value) cannot
    // express, so the oracle path is mandatory.
    let symbolic = match problem.parametric() {
        _ if robust.is_some() => {
            if opts.strategy == RepairStrategy::Lifting {
                diag.record_fallback("lifting: robust repair uses the oracle, penalty search used");
            }
            None
        }
        Some(pdtmc) => match compile_constraint(pdtmc, formula) {
            Ok(sc) => Some(sc),
            Err(RepairError::UnsupportedProperty { .. }) => None,
            Err(other) => return Err(other),
        },
        None => None,
    };
    let lifting = opts.strategy != RepairStrategy::Penalty;
    let pointwise = |sc: &SymbolicConstraint| sc.function.complexity() <= MAX_SYMBOLIC_DEGREE;
    let validity = problem.validity();
    let system = symbolic.as_ref().filter(|sc| lifting || pointwise(sc)).map(|sc| {
        symbolic_system(sc, margin(opts, sc.op), &validity, bounds.len(), opts.support_margin)
    });
    let mut compiled_oracle = None;
    match (&symbolic, &system) {
        (Some(sc), Some((fns, rows))) if pointwise(sc) => register_symbolic(&mut nlp, fns, rows)?,
        _ => {
            register_validity(&mut nlp, &validity, opts.support_margin);
            let (op, bound) = top_level_bound(formula)?;
            let (sense, margin) = (sense_of(op), margin(opts, op));
            let (check, budget) = (opts.check, budget.without_evaluation_cap());
            let spec = OracleSpec { formula: formula.clone(), op, robust, check, budget };
            match problem.oracle(spec) {
                PropertyOracle::Compiled(oracle) => {
                    compiled_oracle = Some(oracle.clone());
                    nlp.constraint_with_margin("property", sense, bound, margin, move |v| {
                        oracle.value(v)
                    });
                }
                PropertyOracle::Closure(f) => {
                    nlp.constraint_with_margin("property", sense, bound, margin, f);
                }
            }
            if symbolic.is_none() && robust.is_none() && opts.strategy == RepairStrategy::Lifting {
                diag.record_fallback("lifting: property not symbolic, penalty search used");
            }
        }
    }
    // Interval enclosures stay sound at any degree (the uncancelled factors
    // only widen them into Unknown verdicts), so region pruning and warm
    // starts apply even where pointwise NLP evaluation does not.
    let mut lifted = match &system {
        Some((fns, rows)) if lifting => {
            Some(lift(fns, rows, problem.cost_polynomial(), &bounds, opts, budget)?)
        }
        _ => None,
    };
    drop(compile_span);

    // Digest the region verdicts: a fully-violating box is a sound
    // infeasibility proof; an exhausted refinement degrades to the full
    // penalty search; surviving boxes warm-start a restart-free penalty
    // solve.
    let mut lifting_evals = 0usize;
    let mut solver_opts = opts.solver;
    let mut region_starts: Vec<Vec<f64>> = Vec::new();
    if let Some(lift) = &lifted {
        lifting_evals = lift.evaluations;
        diag.evaluations += lift.evaluations as u64;
        diag.telemetry.incr("parametric.lifting.evaluations", lift.evaluations as u64);
        if lift.exhausted.is_some() {
            diag.record_fallback("lifting: budget exhausted mid-refinement, penalty search used");
            lifted = None;
        } else if lift.all_violating() {
            return Ok(RepairRun {
                status: RepairStatus::Infeasible,
                point: None,
                cost: 0.0,
                model: None,
                verified: false,
                evaluations: lifting_evals,
                certificate: None,
                diagnostics: diag,
            });
        } else {
            region_starts = lift.warm_starts(3);
            solver_opts.restarts = 0;
            if !lift.candidates.is_empty() && solver_opts.penalty_rounds > 3 {
                // The warm starts already passed a pointwise feasibility
                // screen, so the slow μ ramp-in rounds are redundant: start
                // the schedule at the μ it would have reached, keeping the
                // final μ identical.
                solver_opts.penalty_init *=
                    solver_opts.penalty_growth.powi(solver_opts.penalty_rounds as i32 - 3);
                solver_opts.penalty_rounds = 3;
            }
        }
    }

    // The problem's own starts, then region survivors, then the caller's.
    let mut solver = PenaltySolver::with_options(solver_opts).with_budget(budget.clone());
    for x in problem.start_points().into_iter().chain(region_starts) {
        solver.start_from(x);
    }
    for x in warm_starts {
        solver.start_from(x.clone());
    }
    let sol = {
        let _s = phase::<P>("model_repair.solve");
        solver.solve(&nlp)?
    };
    absorb_solution(&mut diag, &sol);
    if let Some(oracle) = &compiled_oracle {
        let (compiled, deferred) = oracle.counts();
        counter!("model_repair.oracle.compiled", compiled);
        counter!("model_repair.oracle.deferred", deferred);
        diag.telemetry.incr("model_repair.oracle.compiled", compiled);
        diag.telemetry.incr("model_repair.oracle.deferred", deferred);
    }
    let cost = nlp.objective_value(&sol.x);
    let (status, model, verified, certificate) = if sol.feasible {
        let _recheck = phase::<P>("model_repair.recheck");
        let (model, verified) =
            verify(problem, &checker, formula, robust, Some(&sol.x), &mut diag)?;
        let certificate = lifted.map(|lift| {
            let (lower_bound, epsilon) = (lift.feasible_lower_bound(), opts.lifting.epsilon);
            OptimalityCertificate {
                lower_bound,
                upper_bound: cost,
                epsilon,
                certified: verified && cost - lower_bound <= epsilon,
            }
        });
        (repaired_status(verified, &diag), Some(model.into_owned()), verified, certificate)
    } else {
        (infeasible_status(&sol), None, false, None)
    };
    Ok(RepairRun {
        status,
        point: Some(sol.x),
        cost,
        model,
        verified,
        evaluations: sol.evaluations + lifting_evals,
        certificate,
        diagnostics: diag,
    })
}

/// Checks the base model (`point = None`) or the candidate at `point` —
/// its uncertainty ball when robust — folding the check's diagnostics into
/// `diag`. Returns the model and whether the property holds.
fn verify<'p, P: RepairProblem>(
    problem: &'p P,
    checker: &Checker,
    formula: &StateFormula,
    robust: Option<RobustSpec>,
    point: Option<&[f64]>,
    diag: &mut Diagnostics,
) -> Result<(Cow<'p, P::Model>, bool), RepairError> {
    let (model, ball) = problem.candidate(point, robust)?;
    let holds = match &ball {
        Some(ball) => {
            let r = checker.check_interval_dtmc(ball, formula)?;
            diag.absorb(r.diagnostics());
            r.holds()
        }
        None => {
            let r = model.check(checker, formula)?;
            diag.absorb(r.diagnostics());
            r.holds()
        }
    };
    Ok((model, holds))
}

/// The property's value at the initial state of `model`, `NaN` when there
/// is no model or the check fails: instantiate-and-check.
pub(crate) fn checked_value<M: Checkable>(
    model: Option<M>,
    formula: &StateFormula,
    check: &CheckOptions,
    budget: &Budget,
) -> f64 {
    let checker = Checker::with_options(*check).with_budget(budget.clone());
    model
        .and_then(|m| m.check(&checker, formula).ok())
        .and_then(|r| r.value_at_initial())
        .unwrap_or(f64::NAN)
}

/// The conservative end of the robust bracket of a candidate's uncertainty
/// ball: pessimistic for lower-bound properties, optimistic for upper
/// bounds — the value the robust property constraint must push past the
/// bound. `NaN` (infeasible to the optimizer) when there is no ball or the
/// robust solve fails.
pub(crate) fn conservative_end(ball: Option<IntervalDtmc>, o: &OracleSpec) -> f64 {
    let checker = Checker::with_options(o.check).with_budget(o.budget.clone());
    ball.and_then(|ball| checker.check_interval_dtmc(&ball, &o.formula).ok())
        .and_then(|r| r.bracket_at_initial())
        .map(|(lo, hi)| if o.op.is_lower_bound() { lo } else { hi })
        .unwrap_or(f64::NAN)
}

/// The `model_repair.*` phase span `name`, or a disabled guard for
/// problems that record none.
fn phase<P: RepairProblem>(name: &'static str) -> SpanGuard {
    if P::PHASE_SPANS {
        span!(name)
    } else {
        SpanGuard::disabled()
    }
}

/// The symbolic constraint system: the property's rational function, then
/// each validity row's affine probability twice (`≥ m` and `≤ 1 − m`),
/// paired with the [`BlockRow`] of its sense, bound and margin. The same
/// system feeds the penalty NLP ([`register_symbolic`]) and the region
/// solver ([`lift`]), so both strategies optimize over the same feasible
/// set.
fn symbolic_system(
    sc: &SymbolicConstraint,
    margin: f64,
    validity: &[(String, f64, LinearExpr)],
    np: usize,
    m: f64,
) -> (Vec<RationalFunction>, Vec<BlockRow>) {
    let mut fns = vec![sc.function.clone()];
    let mut rows = vec![BlockRow::new("property", sense_of(sc.op), sc.bound, margin)];
    for (name, base_p, expr) in validity {
        let rf = RationalFunction::from_poly(affine(np, *base_p, expr));
        fns.push(rf.clone());
        rows.push(BlockRow::new(&format!("{name}>=m"), ConstraintSense::Ge, m, 0.0));
        fns.push(rf);
        rows.push(BlockRow::new(&format!("{name}<=1-m"), ConstraintSense::Le, 1.0 - m, 0.0));
    }
    (fns, rows)
}

/// Registers a symbolic constraint system with analytic derivatives, so
/// the penalty solver never needs finite differences on the symbolic path.
/// With validity rows, every rational function is flattened into one tape
/// set ([`CompiledConstraintSet`]) sharing one power table per point,
/// registered as a block with its Jacobian. A lone property row (data
/// repair) is a scalar constraint with its quotient-rule gradient instead:
/// its value pass rounds differently from the block's value-and-gradient
/// pass, and data repair's pinned results rest on it.
fn register_symbolic(
    nlp: &mut Nlp,
    fns: &[RationalFunction],
    rows: &[BlockRow],
) -> Result<(), RepairError> {
    if let ([f], [row]) = (fns, rows) {
        let f = f.compile();
        let f_grad = f.clone();
        nlp.constraint_with_grad(
            row.name(),
            row.sense(),
            row.rhs(),
            row.margin(),
            move |v| f.eval(v).unwrap_or(f64::NAN),
            move |v, grad| {
                if f_grad.eval_grad(v, grad).is_err() {
                    grad.fill(0.0);
                }
            },
        );
        return Ok(());
    }
    let set = CompiledConstraintSet::compile(fns)?;
    let set_jac = set.clone();
    nlp.constraint_block_with_jacobian(
        rows.to_vec(),
        move |v, out| {
            if set.eval_all(v, out).is_err() {
                out.fill(f64::NAN);
            }
        },
        move |v, out, jac| {
            if set_jac.eval_all_grad(v, out, jac).is_err() {
                out.fill(f64::NAN);
                jac.fill(0.0);
            }
        },
    );
    Ok(())
}

/// Registers the validity rows as scalar constraints (the oracle path).
fn register_validity(nlp: &mut Nlp, validity: &[(String, f64, LinearExpr)], m: f64) {
    for (name, base_p, expr) in validity {
        let (base_p, e1, e2) = (*base_p, expr.clone(), expr.clone());
        nlp.constraint(&format!("{name}>=m"), ConstraintSense::Ge, m, move |v| base_p + e1.eval(v));
        nlp.constraint(&format!("{name}<=1-m"), ConstraintSense::Le, 1.0 - m, move |v| {
            base_p + e2.eval(v)
        });
    }
}

/// Runs branch-and-refine region verification over the parameter box:
/// every constraint row becomes a [`RegionRow`] whose threshold *includes
/// the margin* (so "all-sat" means margin-feasible, matching what the
/// penalty solver accepts), and the cost is interval-bounded alongside to
/// order surviving boxes and derive the certificate's lower bound.
fn lift(
    fns: &[RationalFunction],
    rows: &[BlockRow],
    cost: Polynomial,
    bounds: &[(f64, f64)],
    opts: &RepairOptions,
    budget: &Budget,
) -> Result<LiftingOutcome, RepairError> {
    let set = CompiledConstraintSet::compile(fns)?;
    let region_rows: Vec<RegionRow> = rows
        .iter()
        .map(|r| match r.sense() {
            ConstraintSense::Ge => RegionRow::new(BoundSense::Ge, r.rhs() + r.margin()),
            ConstraintSense::Le => RegionRow::new(BoundSense::Le, r.rhs() - r.margin()),
        })
        .collect();
    let objective = RationalFunction::from_poly(cost).compile();
    let problem = RegionProblem::new(set, region_rows)?.with_objective(objective);
    let solver = RegionSolver::with_options(opts.lifting).with_budget(budget.clone());
    Ok(solver.solve(&problem, bounds)?)
}

/// `base + Σᵢ cᵢ·vᵢ` as a polynomial in the `np` repair parameters.
pub(crate) fn affine(np: usize, base: f64, expr: &LinearExpr) -> Polynomial {
    let mut p = Polynomial::constant(np, base);
    for (i, c) in expr.coefficients(np).into_iter().enumerate() {
        if c != 0.0 {
            p = p.add(&Polynomial::var(np, i).scale(c));
        }
    }
    p
}

/// The constraint margin of `op`. The optimizer accepts points violating
/// constraints by up to its feasibility tolerance; that slack (and the
/// checker's bound tolerance) is folded into the margin so an
/// optimizer-feasible point always verifies, and strict operators add
/// `strict_margin`.
fn margin(opts: &RepairOptions, op: CmpOp) -> f64 {
    let slack = opts.solver.feasibility_tolerance + opts.check.bound_tolerance;
    match op {
        CmpOp::Gt | CmpOp::Lt => opts.strict_margin + slack,
        _ => slack,
    }
}

fn sense_of(op: CmpOp) -> ConstraintSense {
    if op.is_lower_bound() {
        ConstraintSense::Ge
    } else {
        ConstraintSense::Le
    }
}

/// The operator and bound of the property's top-level `P`/`R` operator.
fn top_level_bound(formula: &StateFormula) -> Result<(CmpOp, f64), RepairError> {
    match formula {
        StateFormula::Prob { op, bound, .. } | StateFormula::Reward { op, bound, .. } => {
            Ok((*op, *bound))
        }
        other => Err(RepairError::UnsupportedProperty {
            property: other.to_string(),
            reason: "repair needs a top-level P or R operator with a bound".into(),
        }),
    }
}

/// Folds an optimizer solution's spend and stop cause into the diagnostics.
pub(crate) fn absorb_solution(diag: &mut Diagnostics, sol: &Solution) {
    diag.evaluations += sol.evaluations as u64;
    diag.telemetry.incr("solver.penalty.evaluations", sol.evaluations as u64);
    if let Some(cause) = sol.stopped {
        diag.mark_exhausted(cause);
    }
}

/// Status of an optimizer-infeasible attempt: a full search proves
/// infeasibility, a truncated one only reports budget exhaustion.
pub(crate) fn infeasible_status(sol: &Solution) -> RepairStatus {
    if sol.stopped.is_some() {
        RepairStatus::BudgetExhausted
    } else {
        RepairStatus::Infeasible
    }
}

/// Status of a feasible attempt: verified repairs are `Repaired` even if
/// the budget ran out afterwards; an unverified repair under an exhausted
/// budget is only `BudgetExhausted` (the verification itself may have been
/// truncated).
fn repaired_status(verified: bool, diag: &Diagnostics) -> RepairStatus {
    if !verified && diag.exhausted.is_some() {
        RepairStatus::BudgetExhausted
    } else {
        RepairStatus::Repaired
    }
}
