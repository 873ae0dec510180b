//! Model Repair (Definition 1): perturb transition probabilities so the
//! model satisfies `φ`, minimizing the Frobenius cost `‖Z‖²_F`.

use std::sync::Arc;

use tml_checker::Checker;
use tml_logic::StateFormula;
use tml_models::{Dtmc, IntervalDtmc, Mdp};
use tml_numerics::{Budget, Diagnostics};
use tml_optimizer::{BlockRow, ConstraintSense, Nlp, PenaltySolver, Solution};
use tml_parametric::{
    BoundSense, CompiledConstraintSet, LiftingOutcome, OptimalityCertificate, Polynomial,
    RationalFunction, RegionProblem, RegionRow, RegionSolver,
};
use tml_telemetry::{counter, span};

use crate::constraint::compile_constraint;
use crate::oracle::{instantiate_value, CompiledOracle};
use crate::{
    LinearExpr, PerturbationTemplate, RepairError, RepairOptions, RepairStrategy, RobustSpec,
};

/// How a repair attempt concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStatus {
    /// The original model already satisfies the property; nothing changed.
    AlreadySatisfied,
    /// A feasible perturbation was found and the repaired model verified.
    Repaired,
    /// No admissible perturbation satisfies the property (the paper's
    /// "Model Repair gives infeasible solution" outcome).
    Infeasible,
    /// The execution budget (deadline, evaluation cap or cancellation) ran
    /// out before a verified repair was found. The outcome still carries
    /// the best point reached and [`Diagnostics`] describing what was
    /// spent; it is a *best-effort* answer, not a proof of infeasibility.
    BudgetExhausted,
}

/// Outcome of a model repair.
#[derive(Debug, Clone)]
pub struct ModelRepairOutcome<M = Dtmc> {
    /// How the attempt concluded.
    pub status: RepairStatus,
    /// The repair parameter values found (empty for
    /// [`RepairStatus::AlreadySatisfied`]).
    pub parameters: Vec<(String, f64)>,
    /// The Frobenius cost `‖Z‖²_F` of the perturbation.
    pub cost: f64,
    /// The repaired (or original, if already satisfied) model; `None` when
    /// infeasible.
    pub model: Option<M>,
    /// Whether the returned model was independently re-verified against the
    /// property by the concrete checker.
    pub verified: bool,
    /// Whether a Monte Carlo simulation cross-check (when one is attached
    /// to the pipeline; see `TmlPipeline::with_simulation_cross_check`)
    /// could not refute the property on the returned model. `None` when no
    /// cross-check ran or the property is outside the simulable fragment.
    pub verified_by_simulation: Option<bool>,
    /// Objective/constraint evaluations spent by the optimizer.
    pub evaluations: usize,
    /// The best parameter point the penalty solver reached, regardless of
    /// feasibility — a warm start for a retry of the same job (see
    /// [`ModelRepair::start_from`]). `None` when no solver ran.
    pub solver_point: Option<Vec<f64>>,
    /// Soundness certificate produced by the parameter-lifting strategy:
    /// the returned repair's cost against a sound interval lower bound on
    /// the cost over the entire feasible region. `None` on the pure
    /// penalty path (which proves nothing about global optimality) and
    /// when lifting fell back mid-refinement.
    pub certificate: Option<OptimalityCertificate>,
    /// What the repair spent and which degradation paths (solver
    /// fallbacks, accepted residuals, budget exhaustion) were taken.
    pub diagnostics: Diagnostics,
}

/// The Model Repair algorithm.
///
/// Two constraint back-ends are used automatically:
///
/// * **symbolic** — the property is compiled to a closed-form rational
///   function by parametric model checking (Proposition 2) and evaluated
///   in microseconds per optimizer step;
/// * **oracle** — when the property shape is outside the symbolic fragment
///   (bounded operators, nested `P`) or its rational function is too large
///   to evaluate in `f64`, each optimizer step asks an oracle for the
///   property's value at the candidate point. For unbounded `P[φ U ψ]`,
///   `P[F ψ]` and `R[F ψ]` with propositional operands the oracle is a
///   [`CompiledOracle`]: the maybe-state system is built once per repair
///   and each step only refills and solves it, bitwise equal to checking
///   the instantiated candidate. Any other property, a candidate that
///   would change the support, robust repair and MDP repair (where
///   symbolic min/max elimination is not implemented) instantiate the
///   candidate model and run the full checker.
#[derive(Debug, Clone, Default)]
pub struct ModelRepair {
    opts: RepairOptions,
    budget: Budget,
    warm_starts: Vec<Vec<f64>>,
}

impl ModelRepair {
    /// A repairer with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A repairer with explicit options.
    pub fn with_options(opts: RepairOptions) -> Self {
        ModelRepair { opts, budget: Budget::unlimited(), warm_starts: Vec::new() }
    }

    /// Bounds the whole repair — checker runs and optimizer included — by
    /// an execution budget. When it runs out, the repair returns the best
    /// point found so far with [`RepairStatus::BudgetExhausted`] instead of
    /// erroring or hanging.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Adds a warm-start point for the penalty solver, tried before its
    /// deterministic random restarts. Retrying runtimes feed the previous
    /// attempt's [`ModelRepairOutcome::solver_point`] back through this so
    /// a retry resumes the search instead of repeating it.
    #[must_use]
    pub fn start_from(mut self, x: Vec<f64>) -> Self {
        self.warm_starts.push(x);
        self
    }

    /// Repairs a DTMC (Definition 1 / Proposition 2).
    ///
    /// # Errors
    ///
    /// * [`RepairError::InvalidTemplate`] for inconsistent templates.
    /// * [`RepairError::UnsupportedProperty`] if the property's truth value
    ///   has no numeric witness (i.e. it is not a top-level `P`/`R`
    ///   operator).
    /// * Checker/optimizer errors.
    pub fn repair_dtmc(
        &self,
        base: &Dtmc,
        formula: &StateFormula,
        template: &PerturbationTemplate,
    ) -> Result<ModelRepairOutcome<Dtmc>, RepairError> {
        let _span = span!("model_repair", model = "dtmc", params = template.num_params());
        let robust = self.opts.robust;
        if let Some(rs) = &robust {
            rs.validate()?;
        }
        let checker = Checker::with_options(self.opts.check).with_budget(self.budget.clone());
        let mut diag = Diagnostics::new();
        let initial_holds = {
            let _s = span!("model_repair.verify_initial");
            if let Some(rs) = robust {
                let ball = IntervalDtmc::wilson_around(base, rs.confidence, rs.sample_size)?;
                let r = checker.check_interval_dtmc(&ball, formula)?;
                diag.absorb(r.diagnostics());
                r.holds()
            } else {
                let r = checker.check_dtmc(base, formula)?;
                diag.absorb(r.diagnostics());
                r.holds()
            }
        };
        if initial_holds {
            return Ok(ModelRepairOutcome {
                status: RepairStatus::AlreadySatisfied,
                parameters: Vec::new(),
                cost: 0.0,
                model: Some(base.clone()),
                verified: true,
                verified_by_simulation: None,
                evaluations: 0,
                solver_point: None,
                certificate: None,
                diagnostics: diag,
            });
        }

        let compile_span = span!("model_repair.compile");
        let pdtmc = template.apply(base)?;
        let mut nlp = Nlp::new(template.num_params(), template.bounds())?;
        self.frobenius_objective(&mut nlp, template);

        // Property constraint: symbolic when possible, oracle otherwise.
        // Rational functions of non-trivial degree lose f64 precision when
        // evaluated (state elimination without exact arithmetic leaves
        // uncancelled common factors that cause catastrophic cancellation
        // — PARAM avoids this with exact rationals), so beyond a small
        // complexity threshold the exact oracle (compiled once per repair,
        // bitwise equal to instantiate-and-check) is used instead. The
        // symbolic path is cross-validated to machine precision below the
        // threshold.
        const MAX_SYMBOLIC_DEGREE: u32 = 16;
        let mut lifted: Option<LiftingOutcome> = None;
        let mut compiled_oracle: Option<Arc<CompiledOracle>> = None;
        // Robust repair constrains the *worst-case* value over the
        // uncertainty ball, which the symbolic rational function (a nominal
        // value) cannot express — the oracle path is mandatory.
        let compiled = if robust.is_some() {
            if self.opts.strategy == RepairStrategy::Lifting {
                diag.record_fallback("lifting: robust repair uses the oracle, penalty search used");
            }
            None
        } else {
            match compile_constraint(&pdtmc, formula) {
                Ok(sc) => Some(sc),
                Err(RepairError::UnsupportedProperty { .. }) => None,
                Err(other) => return Err(other),
            }
        };
        match &compiled {
            Some(sc) if sc.function.complexity() <= MAX_SYMBOLIC_DEGREE => {
                let (fns, rows) = self.symbolic_system(template, base, sc);
                register_block(&mut nlp, &fns, &rows)?;
                if self.opts.strategy != RepairStrategy::Penalty {
                    lifted = Some(self.lift_regions(template, &fns, &rows)?);
                }
            }
            _ => {
                self.validity_constraints(&mut nlp, template, base);
                let (op, bound) = top_level_bound(formula)?;
                let margin = self.margin(op);
                let pd = pdtmc.clone();
                let phi = formula.clone();
                let check_opts = self.opts.check;
                let inner = self.budget.without_evaluation_cap();
                if let Some(rs) = robust {
                    // Worst-case oracle: the candidate's Wilson ball must
                    // satisfy the bound at its conservative end.
                    nlp.constraint_with_margin("property", sense_of(op), bound, margin, move |v| {
                        match pd.instantiate(v) {
                            Ok(m) => robust_value_dtmc(&m, &phi, op, rs, &check_opts, &inner),
                            Err(_) => f64::NAN,
                        }
                    });
                } else if let Some(oracle) =
                    CompiledOracle::compile(base, &pd, &phi, check_opts, inner.clone())
                {
                    let oracle = Arc::new(oracle);
                    compiled_oracle = Some(oracle.clone());
                    nlp.constraint_with_margin("property", sense_of(op), bound, margin, move |v| {
                        oracle.value(v)
                    });
                } else {
                    nlp.constraint_with_margin("property", sense_of(op), bound, margin, move |v| {
                        instantiate_value(&pd, &phi, v, &check_opts, &inner)
                    });
                }
                if let Some(sc) = &compiled {
                    // Interval enclosures stay sound at any degree (the
                    // uncancelled factors only widen them into Unknown
                    // verdicts), so region pruning and warm starts still
                    // apply even though pointwise NLP evaluation does not.
                    if self.opts.strategy != RepairStrategy::Penalty {
                        let (fns, rows) = self.symbolic_system(template, base, sc);
                        lifted = Some(self.lift_regions(template, &fns, &rows)?);
                    }
                } else if robust.is_none() && self.opts.strategy == RepairStrategy::Lifting {
                    // Lifting was requested but needs the symbolic path.
                    diag.record_fallback("lifting: property not symbolic, penalty search used");
                }
            }
        }
        drop(compile_span);

        // Digest the region verdicts: a fully-violating box is a sound
        // infeasibility proof; an exhausted refinement degrades to the
        // full penalty search; surviving boxes warm-start a restart-free
        // penalty solve.
        let mut lifting_evals = 0usize;
        let mut solver_opts = self.opts.solver;
        let mut region_starts: Vec<Vec<f64>> = Vec::new();
        if let Some(lift) = &lifted {
            lifting_evals = lift.evaluations;
            diag.evaluations += lift.evaluations as u64;
            diag.telemetry.incr("parametric.lifting.evaluations", lift.evaluations as u64);
            if lift.exhausted.is_some() {
                diag.record_fallback(
                    "lifting: budget exhausted mid-refinement, penalty search used",
                );
                lifted = None;
            } else if lift.all_violating() {
                return Ok(ModelRepairOutcome {
                    status: RepairStatus::Infeasible,
                    parameters: Vec::new(),
                    cost: 0.0,
                    model: None,
                    verified: false,
                    verified_by_simulation: None,
                    evaluations: lifting_evals,
                    solver_point: None,
                    certificate: None,
                    diagnostics: diag,
                });
            } else {
                region_starts = lift.warm_starts(3);
                solver_opts.restarts = 0;
                if !lift.candidates.is_empty() && solver_opts.penalty_rounds > 3 {
                    // The warm starts already passed a pointwise
                    // feasibility screen, so the slow μ ramp-in rounds are
                    // redundant: start the schedule at the μ it would have
                    // reached, keeping the final μ identical.
                    solver_opts.penalty_init *=
                        solver_opts.penalty_growth.powi(solver_opts.penalty_rounds as i32 - 3);
                    solver_opts.penalty_rounds = 3;
                }
            }
        }

        let mut solver = PenaltySolver::with_options(solver_opts).with_budget(self.budget.clone());
        for w in region_starts {
            solver.start_from(w);
        }
        for w in &self.warm_starts {
            solver.start_from(w.clone());
        }
        let sol = {
            let _s = span!("model_repair.solve");
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
        if !sol.feasible {
            return Ok(ModelRepairOutcome {
                status: infeasible_status(&sol),
                parameters: name_params(template, &sol.x),
                cost: frobenius_cost(template, &sol.x),
                model: None,
                verified: false,
                verified_by_simulation: None,
                evaluations: sol.evaluations + lifting_evals,
                solver_point: Some(sol.x.clone()),
                certificate: None,
                diagnostics: diag,
            });
        }
        let _recheck = span!("model_repair.recheck");
        let repaired = pdtmc.instantiate(&sol.x)?;
        let verified = if let Some(rs) = robust {
            let ball = IntervalDtmc::wilson_around(&repaired, rs.confidence, rs.sample_size)?;
            let verdict = checker.check_interval_dtmc(&ball, formula)?;
            diag.absorb(verdict.diagnostics());
            verdict.holds()
        } else {
            let verdict = checker.check_dtmc(&repaired, formula)?;
            diag.absorb(verdict.diagnostics());
            verdict.holds()
        };
        let cost = frobenius_cost(template, &sol.x);
        let certificate = lifted.as_ref().map(|lift| {
            let lower_bound = lift.feasible_lower_bound();
            let epsilon = self.opts.lifting.epsilon;
            OptimalityCertificate {
                lower_bound,
                upper_bound: cost,
                epsilon,
                certified: verified && cost - lower_bound <= epsilon,
            }
        });
        Ok(ModelRepairOutcome {
            status: repaired_status(verified, &diag),
            parameters: name_params(template, &sol.x),
            cost,
            model: Some(repaired),
            verified,
            verified_by_simulation: None,
            evaluations: sol.evaluations + lifting_evals,
            solver_point: Some(sol.x.clone()),
            certificate,
            diagnostics: diag,
        })
    }

    /// Repairs an MDP through the instantiate-and-check oracle.
    ///
    /// The property is checked under the PRISM scheduler convention (see
    /// `tml_checker::Checker::check_mdp`), so e.g.
    /// `R{"attempts"}<=40 [F done]` requires even the worst scheduler to
    /// stay under 40 expected attempts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`repair_dtmc`](Self::repair_dtmc).
    pub fn repair_mdp(
        &self,
        base: &Mdp,
        formula: &StateFormula,
        template: &MdpPerturbationTemplate,
    ) -> Result<ModelRepairOutcome<Mdp>, RepairError> {
        let _span = span!("model_repair", model = "mdp", params = template.num_params());
        if self.opts.robust.is_some() {
            // A confidence ball around an MDP candidate would need per-choice
            // sample sizes and robust reach rewards on interval MDPs, neither
            // of which is available — see tml_checker::robust.
            return Err(RepairError::UnsupportedProperty {
                property: formula.to_string(),
                reason: "robust repair is only implemented for DTMC models".into(),
            });
        }
        let checker = Checker::with_options(self.opts.check).with_budget(self.budget.clone());
        let mut diag = Diagnostics::new();
        let initial = {
            let _s = span!("model_repair.verify_initial");
            checker.check_mdp(base, formula)?
        };
        diag.absorb(initial.diagnostics());
        if initial.holds() {
            return Ok(ModelRepairOutcome {
                status: RepairStatus::AlreadySatisfied,
                parameters: Vec::new(),
                cost: 0.0,
                model: Some(base.clone()),
                verified: true,
                verified_by_simulation: None,
                evaluations: 0,
                solver_point: None,
                certificate: None,
                diagnostics: diag,
            });
        }
        template.validate(base)?;
        let compile_span = span!("model_repair.compile");
        let (op, bound) = top_level_bound(formula)?;
        let mut nlp = Nlp::new(template.num_params(), template.bounds())?;
        {
            let entries = template.entries.clone();
            nlp.objective(move |v| entries.values().map(|e| e.eval(v).powi(2)).sum());
        }
        // Validity: perturbed probabilities stay inside (0, 1).
        for (&(s, c, t), expr) in &template.entries {
            let base_p = choice_prob(base, s, c, t);
            let e1 = expr.clone();
            let e2 = expr.clone();
            let m = self.opts.support_margin;
            nlp.constraint(&format!("p({s},{c}->{t})>=m"), ConstraintSense::Ge, m, move |v| {
                base_p + e1.eval(v)
            });
            nlp.constraint(
                &format!("p({s},{c}->{t})<=1-m"),
                ConstraintSense::Le,
                1.0 - m,
                move |v| base_p + e2.eval(v),
            );
        }
        {
            let t = template.clone();
            let b = base.clone();
            let phi = formula.clone();
            let check_opts = self.opts.check;
            let margin = self.margin(op);
            let inner = self.budget.without_evaluation_cap();
            nlp.constraint_with_margin("property", sense_of(op), bound, margin, move |v| {
                match t.instantiate(&b, v) {
                    Ok(m) => Checker::with_options(check_opts)
                        .with_budget(inner.clone())
                        .check_mdp(&m, &phi)
                        .ok()
                        .and_then(|r| r.value_at_initial())
                        .unwrap_or(f64::NAN),
                    Err(_) => f64::NAN,
                }
            });
        }
        drop(compile_span);
        let mut solver =
            PenaltySolver::with_options(self.opts.solver).with_budget(self.budget.clone());
        for w in &self.warm_starts {
            solver.start_from(w.clone());
        }
        let sol = {
            let _s = span!("model_repair.solve");
            solver.solve(&nlp)?
        };
        absorb_solution(&mut diag, &sol);
        if !sol.feasible {
            return Ok(ModelRepairOutcome {
                status: infeasible_status(&sol),
                parameters: template.name_params(&sol.x),
                cost: template.cost(&sol.x),
                model: None,
                verified: false,
                verified_by_simulation: None,
                evaluations: sol.evaluations,
                solver_point: Some(sol.x.clone()),
                certificate: None,
                diagnostics: diag,
            });
        }
        let _recheck = span!("model_repair.recheck");
        let repaired = template.instantiate(base, &sol.x)?;
        let verdict = checker.check_mdp(&repaired, formula)?;
        diag.absorb(verdict.diagnostics());
        let verified = verdict.holds();
        Ok(ModelRepairOutcome {
            status: repaired_status(verified, &diag),
            parameters: template.name_params(&sol.x),
            cost: template.cost(&sol.x),
            model: Some(repaired),
            verified,
            verified_by_simulation: None,
            evaluations: sol.evaluations,
            solver_point: Some(sol.x.clone()),
            certificate: None,
            diagnostics: diag,
        })
    }

    fn frobenius_objective(&self, nlp: &mut Nlp, template: &PerturbationTemplate) {
        let exprs: Vec<LinearExpr> = template.entries().map(|(_, e)| e.clone()).collect();
        // ∇‖Z‖²_F = Σ 2·e(v)·∇e, with ∇e the (constant) coefficient vector.
        let coeffs: Vec<Vec<f64>> =
            exprs.iter().map(|e| e.coefficients(template.num_params())).collect();
        let exprs_g = exprs.clone();
        nlp.objective_with_grad(
            move |v| exprs.iter().map(|e| e.eval(v).powi(2)).sum(),
            move |v, g| {
                for (e, cs) in exprs_g.iter().zip(&coeffs) {
                    let scale = 2.0 * e.eval(v);
                    for (gi, c) in g.iter_mut().zip(cs) {
                        *gi += scale * c;
                    }
                }
            },
        );
    }

    /// Builds the symbolic constraint system: the property's rational
    /// function plus every `[m, 1−m]` validity function, paired with the
    /// [`BlockRow`] describing its sense, bound and margin. The same system
    /// feeds both the penalty NLP ([`register_block`]) and the region
    /// solver ([`Self::lift_regions`]), so the two strategies provably
    /// optimize over the same feasible set.
    fn symbolic_system(
        &self,
        template: &PerturbationTemplate,
        base: &Dtmc,
        sc: &crate::constraint::SymbolicConstraint,
    ) -> (Vec<RationalFunction>, Vec<BlockRow>) {
        let np = template.num_params();
        let m = self.opts.support_margin;
        let mut fns = vec![sc.function.clone()];
        let mut rows =
            vec![BlockRow::new("property", sense_of(sc.op), sc.bound, self.margin(sc.op))];
        for (name, base_p, expr) in template.probability_exprs(base) {
            let rf = affine_probability(np, base_p, &expr);
            fns.push(rf.clone());
            rows.push(BlockRow::new(&format!("{name}>=m"), ConstraintSense::Ge, m, 0.0));
            fns.push(rf);
            rows.push(BlockRow::new(&format!("{name}<=1-m"), ConstraintSense::Le, 1.0 - m, 0.0));
        }
        (fns, rows)
    }

    /// Runs branch-and-refine region verification over the template's
    /// parameter box: every NLP constraint row becomes a [`RegionRow`]
    /// whose threshold *includes the margin* (so "all-sat" means
    /// margin-feasible, matching what the penalty solver accepts), and the
    /// Frobenius cost is interval-bounded alongside to order surviving
    /// boxes and derive the certificate's lower bound.
    fn lift_regions(
        &self,
        template: &PerturbationTemplate,
        fns: &[RationalFunction],
        rows: &[BlockRow],
    ) -> Result<LiftingOutcome, RepairError> {
        let set = CompiledConstraintSet::compile(fns)?;
        let region_rows: Vec<RegionRow> = rows
            .iter()
            .map(|r| match r.sense() {
                ConstraintSense::Ge => RegionRow::new(BoundSense::Ge, r.rhs() + r.margin()),
                ConstraintSense::Le => RegionRow::new(BoundSense::Le, r.rhs() - r.margin()),
            })
            .collect();
        let objective = RationalFunction::from_poly(frobenius_polynomial(template)).compile();
        let problem = RegionProblem::new(set, region_rows)?.with_objective(objective);
        let solver = RegionSolver::with_options(self.opts.lifting).with_budget(self.budget.clone());
        Ok(solver.solve(&problem, &template.bounds())?)
    }

    fn validity_constraints(&self, nlp: &mut Nlp, template: &PerturbationTemplate, base: &Dtmc) {
        let m = self.opts.support_margin;
        for (name, base_p, expr) in template.probability_exprs(base) {
            let e1 = expr.clone();
            nlp.constraint(&format!("{name}>=m"), ConstraintSense::Ge, m, move |v| {
                base_p + e1.eval(v)
            });
            let e2 = expr;
            nlp.constraint(&format!("{name}<=1-m"), ConstraintSense::Le, 1.0 - m, move |v| {
                base_p + e2.eval(v)
            });
        }
    }

    fn margin(&self, op: tml_logic::CmpOp) -> f64 {
        // The optimizer accepts points violating constraints by up to its
        // feasibility tolerance; fold that slack into the margin so an
        // "optimizer-feasible" point always verifies under the checker.
        let slack = self.opts.solver.feasibility_tolerance + self.opts.check.bound_tolerance;
        match op {
            tml_logic::CmpOp::Gt | tml_logic::CmpOp::Lt => self.opts.strict_margin + slack,
            _ => slack,
        }
    }
}

/// A perturbation template for MDPs: affine nudges on the transitions of
/// specific state–choice pairs, validated to cancel per distribution.
#[derive(Debug, Clone, Default)]
pub struct MdpPerturbationTemplate {
    params: Vec<(String, f64, f64)>,
    entries: std::collections::BTreeMap<(usize, usize, usize), LinearExpr>,
}

impl MdpPerturbationTemplate {
    /// An empty template.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a repair parameter with box bounds, returning its index.
    pub fn parameter(&mut self, name: &str, lo: f64, hi: f64) -> usize {
        self.params.push((name.to_owned(), lo, hi));
        self.params.len() - 1
    }

    /// Adds `coeff·v_param` to the probability of `state --choice--> succ`.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::InvalidTemplate`] for unknown parameters.
    pub fn nudge(
        &mut self,
        state: usize,
        choice: usize,
        succ: usize,
        param: usize,
        coeff: f64,
    ) -> Result<&mut Self, RepairError> {
        if param >= self.params.len() {
            return Err(RepairError::InvalidTemplate {
                detail: format!("unknown parameter {param}"),
            });
        }
        let e = self.entries.entry((state, choice, succ)).or_default();
        *e = std::mem::take(e).plus(param, coeff);
        Ok(self)
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Parameter box bounds.
    pub fn bounds(&self) -> Vec<(f64, f64)> {
        self.params.iter().map(|&(_, lo, hi)| (lo, hi)).collect()
    }

    fn name_params(&self, v: &[f64]) -> Vec<(String, f64)> {
        self.params.iter().zip(v).map(|((n, _, _), &x)| (n.clone(), x)).collect()
    }

    fn cost(&self, v: &[f64]) -> f64 {
        self.entries.values().map(|e| e.eval(v).powi(2)).sum()
    }

    /// Checks support preservation and per-distribution cancellation.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::InvalidTemplate`] on violations.
    pub fn validate(&self, base: &Mdp) -> Result<(), RepairError> {
        let np = self.params.len();
        let mut rows: std::collections::BTreeMap<(usize, usize), Vec<f64>> = Default::default();
        for (&(s, c, t), expr) in &self.entries {
            if s >= base.num_states() || t >= base.num_states() || c >= base.num_choices(s) {
                return Err(RepairError::InvalidTemplate {
                    detail: format!("entry ({s},{c},{t}) out of range"),
                });
            }
            if choice_prob(base, s, c, t) == 0.0 {
                return Err(RepairError::InvalidTemplate {
                    detail: format!("entry ({s},{c},{t}) would add a transition to the support"),
                });
            }
            let acc = rows.entry((s, c)).or_insert_with(|| vec![0.0; np]);
            for (a, x) in acc.iter_mut().zip(expr.coefficients(np)) {
                *a += x;
            }
        }
        for ((s, c), coeffs) in rows {
            if coeffs.iter().any(|x| x.abs() > 1e-12) {
                return Err(RepairError::InvalidTemplate {
                    detail: format!("perturbations of state {s} choice {c} do not cancel"),
                });
            }
        }
        Ok(())
    }

    /// Instantiates the perturbed MDP at a parameter point.
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::Model`] if a perturbed probability leaves
    /// `[0, 1]`.
    pub fn instantiate(&self, base: &Mdp, v: &[f64]) -> Result<Mdp, RepairError> {
        let mut b = tml_models::MdpBuilder::new(base.num_states());
        b.initial_state(base.initial_state())?;
        for s in 0..base.num_states() {
            for (c, choice) in base.choices(s).iter().enumerate() {
                let dist: Vec<(usize, f64)> = choice
                    .transitions
                    .iter()
                    .map(|&(t, p)| {
                        let delta = self.entries.get(&(s, c, t)).map(|e| e.eval(v)).unwrap_or(0.0);
                        (t, p + delta)
                    })
                    .collect();
                b.choice(s, base.action_name(choice.action), &dist)?;
            }
            for label in base.labeling().labels_of(s) {
                b.label(s, label)?;
            }
        }
        for rs in base.reward_structures() {
            for s in 0..base.num_states() {
                b.state_reward(rs.name(), s, rs.state_reward(s))?;
                for c in 0..base.num_choices(s) {
                    let cr = rs.choice_reward(s, c);
                    if cr != 0.0 {
                        b.choice_reward(rs.name(), s, c, cr)?;
                    }
                }
            }
        }
        Ok(b.build()?)
    }
}

/// Registers a symbolic constraint system as a single compiled block: all
/// rational functions are flattened to evaluation tapes
/// ([`CompiledConstraintSet`]) that share one power table per point, and
/// the block carries an analytic Jacobian so the penalty solver never
/// needs finite differences on the symbolic path.
fn register_block(
    nlp: &mut Nlp,
    fns: &[RationalFunction],
    rows: &[BlockRow],
) -> Result<(), RepairError> {
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

/// The Frobenius cost `‖Z‖²_F = Σ (Σᵢ cᵢ·vᵢ)²` as a polynomial in the
/// repair parameters, so the region solver can interval-bound the
/// objective it shares with the penalty NLP.
fn frobenius_polynomial(template: &PerturbationTemplate) -> Polynomial {
    let np = template.num_params();
    let mut total = Polynomial::constant(np, 0.0);
    for (_, expr) in template.entries() {
        let mut lin = Polynomial::constant(np, 0.0);
        for (i, c) in expr.coefficients(np).into_iter().enumerate() {
            if c != 0.0 {
                lin = lin.add(&Polynomial::var(np, i).scale(c));
            }
        }
        total = total.add(&lin.mul(&lin));
    }
    total
}

/// The perturbed probability `base_p + Σᵢ cᵢ·vᵢ` as a (polynomial) rational
/// function, so validity constraints compile into the same tape set as the
/// symbolic property function.
fn affine_probability(np: usize, base_p: f64, expr: &LinearExpr) -> RationalFunction {
    let mut p = Polynomial::constant(np, base_p);
    for (i, c) in expr.coefficients(np).into_iter().enumerate() {
        if c != 0.0 {
            p = p.add(&Polynomial::var(np, i).scale(c));
        }
    }
    RationalFunction::from_poly(p)
}

fn choice_prob(mdp: &Mdp, s: usize, c: usize, t: usize) -> f64 {
    mdp.choices(s)
        .get(c)
        .and_then(|ch| ch.transitions.iter().find(|&&(x, _)| x == t))
        .map(|&(_, p)| p)
        .unwrap_or(0.0)
}

fn sense_of(op: tml_logic::CmpOp) -> ConstraintSense {
    if op.is_lower_bound() {
        ConstraintSense::Ge
    } else {
        ConstraintSense::Le
    }
}

fn top_level_bound(formula: &StateFormula) -> Result<(tml_logic::CmpOp, f64), RepairError> {
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

/// The conservative end of the robust bracket for the candidate's Wilson
/// uncertainty ball: pessimistic for lower-bound properties, optimistic for
/// upper bounds — the value the robust repair constraint must push past the
/// bound. `NaN` (treated as infeasible by the optimizer) when the ball is
/// malformed or the robust solve fails.
pub(crate) fn robust_value_dtmc(
    model: &Dtmc,
    formula: &StateFormula,
    op: tml_logic::CmpOp,
    rs: RobustSpec,
    check_opts: &tml_checker::CheckOptions,
    budget: &Budget,
) -> f64 {
    let Ok(ball) = IntervalDtmc::wilson_around(model, rs.confidence, rs.sample_size) else {
        return f64::NAN;
    };
    Checker::with_options(*check_opts)
        .with_budget(budget.clone())
        .check_interval_dtmc(&ball, formula)
        .ok()
        .and_then(|r| r.bracket_at_initial())
        .map(|(lo, hi)| if op.is_lower_bound() { lo } else { hi })
        .unwrap_or(f64::NAN)
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
pub(crate) fn repaired_status(verified: bool, diag: &Diagnostics) -> RepairStatus {
    if !verified && diag.exhausted.is_some() {
        RepairStatus::BudgetExhausted
    } else {
        RepairStatus::Repaired
    }
}

fn name_params(template: &PerturbationTemplate, v: &[f64]) -> Vec<(String, f64)> {
    template.param_names().into_iter().zip(v.iter().copied()).collect()
}

fn frobenius_cost(template: &PerturbationTemplate, v: &[f64]) -> f64 {
    template.entries().map(|(_, e)| e.eval(v).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_logic::parse_formula;
    use tml_models::{DtmcBuilder, MdpBuilder};

    /// success/failure split at state 0 with p(success) = 0.8.
    fn chain() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.8).unwrap();
        b.transition(0, 2, 0.2).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.label(1, "ok").unwrap();
        b.build().unwrap()
    }

    fn shift_template() -> PerturbationTemplate {
        let mut t = PerturbationTemplate::new();
        let v = t.parameter("v", -0.19, 0.19);
        t.nudge(0, 1, v, 1.0).unwrap();
        t.nudge(0, 2, v, -1.0).unwrap();
        t
    }

    #[test]
    fn already_satisfied_short_circuits() {
        let d = chain();
        let phi = parse_formula("P>=0.7 [ F \"ok\" ]").unwrap();
        let out = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template()).unwrap();
        assert_eq!(out.status, RepairStatus::AlreadySatisfied);
        assert_eq!(out.cost, 0.0);
        assert!(out.verified);
    }

    #[test]
    fn symbolic_repair_finds_minimal_shift() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let out = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template()).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        let v = out.parameters[0].1;
        // Minimal shift is +0.1 (within numerical slack).
        assert!((v - 0.1).abs() < 1e-3, "v = {v}");
        // Frobenius cost counts both perturbed entries: 2 v².
        assert!((out.cost - 2.0 * v * v).abs() < 1e-9);
        let m = out.model.unwrap();
        assert!(m.probability(0, 1) >= 0.9 - 1e-6);
    }

    #[test]
    fn infeasible_when_bound_unreachable() {
        let d = chain();
        // 0.99 needs v = 0.19 exactly at the box edge minus margin... make
        // it clearly impossible:
        let phi = parse_formula("P>=0.999 [ F \"ok\" ]").unwrap();
        let out = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template()).unwrap();
        assert_eq!(out.status, RepairStatus::Infeasible);
        assert!(out.model.is_none());
    }

    #[test]
    fn oracle_path_handles_bounded_property() {
        // Bounded eventually is outside the symbolic fragment → oracle.
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F<=1 \"ok\" ]").unwrap();
        let out = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template()).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
    }

    #[test]
    fn mdp_repair_through_oracle() {
        // MDP where the risky action's success probability is repairable.
        let mut b = MdpBuilder::new(3);
        b.choice(0, "risky", &[(1, 0.8), (2, 0.2)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.choice(2, "stay", &[(2, 1.0)]).unwrap();
        b.label(1, "ok").unwrap();
        let m = b.build().unwrap();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let mut t = MdpPerturbationTemplate::new();
        let v = t.parameter("v", -0.15, 0.15);
        t.nudge(0, 0, 1, v, 1.0).unwrap();
        t.nudge(0, 0, 2, v, -1.0).unwrap();
        let out = ModelRepair::new().repair_mdp(&m, &phi, &t).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        let v = out.parameters[0].1;
        assert!((v - 0.1).abs() < 5e-3, "v = {v}");
    }

    #[test]
    fn mdp_template_validation() {
        let mut b = MdpBuilder::new(2);
        b.choice(0, "a", &[(1, 1.0)]).unwrap();
        b.choice(1, "a", &[(1, 1.0)]).unwrap();
        let m = b.build().unwrap();
        let mut t = MdpPerturbationTemplate::new();
        let v = t.parameter("v", -0.1, 0.1);
        t.nudge(0, 0, 1, v, 1.0).unwrap(); // does not cancel
        assert!(t.validate(&m).is_err());

        let mut t2 = MdpPerturbationTemplate::new();
        let v2 = t2.parameter("v", -0.1, 0.1);
        t2.nudge(0, 0, 0, v2, 1.0).unwrap(); // support change: p(0,a,0)=0
        t2.nudge(0, 0, 1, v2, -1.0).unwrap();
        assert!(t2.validate(&m).is_err());
    }

    #[test]
    fn exhausted_budget_reports_status_instead_of_erroring() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let out = ModelRepair::new()
            .with_budget(Budget::unlimited().with_max_evaluations(0))
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(out.status, RepairStatus::BudgetExhausted);
        assert!(out.diagnostics.exhausted.is_some());
        assert!(out.diagnostics.degraded());
        assert!(!out.verified);
    }

    #[test]
    fn unlimited_budget_keeps_exact_semantics() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let out = ModelRepair::new()
            .with_budget(Budget::unlimited())
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.diagnostics.exhausted.is_none());
    }

    fn lifting_opts() -> crate::RepairOptions {
        crate::RepairOptions { strategy: RepairStrategy::Lifting, ..Default::default() }
    }

    #[test]
    fn lifting_strategy_agrees_with_penalty_and_certifies() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let penalty = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template()).unwrap();
        let lifted = ModelRepair::with_options(lifting_opts())
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(lifted.status, RepairStatus::Repaired);
        assert!(lifted.verified);
        // Same repair (minimal shift +0.1) from both strategies.
        assert!((lifted.parameters[0].1 - penalty.parameters[0].1).abs() < 1e-3);
        // Lifting prunes restarts, so it must be cheaper than the full
        // multi-start penalty search.
        assert!(lifted.evaluations < penalty.evaluations);
        let cert = lifted.certificate.expect("lifting emits a certificate");
        assert!(cert.lower_bound <= lifted.cost + 1e-12, "{cert:?}");
        assert!(cert.certified, "{cert:?} vs cost {}", lifted.cost);
        // The penalty path proves nothing about global optimality.
        assert!(penalty.certificate.is_none());
    }

    #[test]
    fn lifting_proves_infeasibility_without_solving() {
        let d = chain();
        let phi = parse_formula("P>=0.999 [ F \"ok\" ]").unwrap();
        let out = ModelRepair::with_options(lifting_opts())
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(out.status, RepairStatus::Infeasible);
        assert!(out.model.is_none());
        // The region proof never ran the penalty solver.
        assert!(out.solver_point.is_none());
        assert!(out.evaluations > 0);
    }

    #[test]
    fn lifting_falls_back_on_oracle_properties() {
        // Bounded eventually is outside the symbolic fragment: Lifting must
        // degrade to penalty and say so; Auto degrades silently.
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F<=1 \"ok\" ]").unwrap();
        let out = ModelRepair::with_options(lifting_opts())
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.certificate.is_none());
        assert!(
            out.diagnostics.fallbacks.iter().any(|f| f.contains("lifting")),
            "{:?}",
            out.diagnostics.fallbacks
        );
        let auto = ModelRepair::with_options(crate::RepairOptions {
            strategy: RepairStrategy::Auto,
            ..Default::default()
        })
        .repair_dtmc(&d, &phi, &shift_template())
        .unwrap();
        assert_eq!(auto.status, RepairStatus::Repaired);
        assert!(!auto.diagnostics.fallbacks.iter().any(|f| f.contains("lifting")));
    }

    #[test]
    fn lifting_exhaustion_degrades_to_penalty() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        // Enough budget for the first lifting round to be cut short but for
        // the diagnostics to record the degradation.
        let out = ModelRepair::with_options(lifting_opts())
            .with_budget(Budget::unlimited().with_max_evaluations(2))
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(out.status, RepairStatus::BudgetExhausted);
        assert!(out.certificate.is_none());
        assert!(
            out.diagnostics.fallbacks.iter().any(|f| f.contains("exhausted")),
            "{:?}",
            out.diagnostics.fallbacks
        );
    }

    #[test]
    fn non_bounded_formula_rejected() {
        let d = chain();
        let phi = parse_formula("\"ok\"").unwrap();
        // Not already satisfied at state 0 and no numeric witness → error
        // surfaces from the template path as UnsupportedProperty.
        let err = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template());
        assert!(matches!(err, Err(RepairError::UnsupportedProperty { .. })));
    }

    fn robust_opts(confidence: f64) -> crate::RepairOptions {
        crate::RepairOptions { robust: Some(RobustSpec::new(confidence)), ..Default::default() }
    }

    #[test]
    fn robust_repair_shifts_further_than_nominal() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let nominal = ModelRepair::new().repair_dtmc(&d, &phi, &shift_template()).unwrap();
        let robust = ModelRepair::with_options(robust_opts(0.95))
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(robust.status, RepairStatus::Repaired);
        assert!(robust.verified, "robust repair must robust-verify");
        // Nominal stops at v ≈ 0.1 (p = 0.9 exactly); robust must push the
        // point estimate high enough that the Wilson lower bound clears 0.9,
        // so it shifts strictly further and pays a strictly higher cost.
        let vn = nominal.parameters[0].1;
        let vr = robust.parameters[0].1;
        assert!(vr > vn + 0.02, "robust v = {vr}, nominal v = {vn}");
        assert!(robust.cost > nominal.cost, "{} vs {}", robust.cost, nominal.cost);
        // The robust repair's point estimate itself clears the bound with
        // room to spare — the calibration margin.
        let m = robust.model.unwrap();
        assert!(m.probability(0, 1) > 0.9 + 0.02);
    }

    #[test]
    fn robust_repair_tightens_with_confidence() {
        // Higher confidence ⇒ wider Wilson ball ⇒ larger shift.
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let lo = ModelRepair::with_options(robust_opts(0.80))
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        let hi = ModelRepair::with_options(robust_opts(0.99))
            .repair_dtmc(&d, &phi, &shift_template())
            .unwrap();
        assert_eq!(lo.status, RepairStatus::Repaired);
        assert_eq!(hi.status, RepairStatus::Repaired);
        assert!(
            hi.parameters[0].1 > lo.parameters[0].1,
            "99% shift {} should exceed 80% shift {}",
            hi.parameters[0].1,
            lo.parameters[0].1
        );
    }

    #[test]
    fn robust_already_satisfied_needs_the_ball_to_pass() {
        // Point estimate 0.8 passes P>=0.7 nominally, but the 95% ball's
        // pessimistic value dips below 0.7 at sample size 25 — robust repair
        // must actually move the chain rather than short-circuit.
        let d = chain();
        let phi = parse_formula("P>=0.7 [ F \"ok\" ]").unwrap();
        let opts = crate::RepairOptions {
            robust: Some(RobustSpec { confidence: 0.95, sample_size: 25.0 }),
            ..Default::default()
        };
        let out = ModelRepair::with_options(opts).repair_dtmc(&d, &phi, &shift_template()).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        assert!(out.cost > 0.0);
    }

    #[test]
    fn robust_rejects_invalid_spec() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        for spec in [
            RobustSpec { confidence: 1.0, sample_size: 100.0 },
            RobustSpec { confidence: 0.0, sample_size: 100.0 },
            RobustSpec { confidence: 0.95, sample_size: 0.0 },
            RobustSpec { confidence: 0.95, sample_size: f64::NAN },
        ] {
            let opts = crate::RepairOptions { robust: Some(spec), ..Default::default() };
            let err = ModelRepair::with_options(opts).repair_dtmc(&d, &phi, &shift_template());
            assert!(matches!(err, Err(RepairError::InvalidInput { .. })), "{spec:?}");
        }
    }

    #[test]
    fn robust_mdp_repair_rejected() {
        let mut b = MdpBuilder::new(2);
        b.choice(0, "a", &[(0, 0.5), (1, 0.5)]).unwrap();
        b.choice(1, "a", &[(1, 1.0)]).unwrap();
        b.label(1, "ok").unwrap();
        let m = b.build().unwrap();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let mut t = MdpPerturbationTemplate::new();
        let v = t.parameter("v", -0.1, 0.1);
        t.nudge(0, 0, 1, v, 1.0).unwrap();
        t.nudge(0, 0, 0, v, -1.0).unwrap();
        let err = ModelRepair::with_options(robust_opts(0.95)).repair_mdp(&m, &phi, &t);
        assert!(matches!(err, Err(RepairError::UnsupportedProperty { .. })));
    }

    #[test]
    fn robust_lifting_degrades_with_recorded_fallback() {
        let d = chain();
        let phi = parse_formula("P>=0.9 [ F \"ok\" ]").unwrap();
        let opts = crate::RepairOptions {
            strategy: RepairStrategy::Lifting,
            robust: Some(RobustSpec::new(0.95)),
            ..Default::default()
        };
        let out = ModelRepair::with_options(opts).repair_dtmc(&d, &phi, &shift_template()).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.certificate.is_none());
        assert!(
            out.diagnostics.fallbacks.iter().any(|f| f.contains("robust")),
            "{:?}",
            out.diagnostics.fallbacks
        );
    }
}
