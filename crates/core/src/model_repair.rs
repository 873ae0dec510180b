//! Model Repair (Definition 1): perturb transition probabilities so the
//! model satisfies `φ`, minimizing the Frobenius cost `‖Z‖²_F`.

use std::borrow::Cow;
use std::sync::Arc;

use tml_logic::StateFormula;
use tml_models::{Dtmc, IntervalDtmc, Mdp};
use tml_numerics::{Budget, Diagnostics};
use tml_optimizer::Nlp;
use tml_parametric::{OptimalityCertificate, ParametricDtmc, Polynomial};
use tml_telemetry::span;

use crate::driver::{
    affine, checked_value, conservative_end, drive, OracleSpec, PropertyOracle, RepairProblem,
    RepairRun,
};
use crate::oracle::CompiledOracle;
use crate::{LinearExpr, PerturbationTemplate, RepairError, RepairOptions, RobustSpec};

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
/// [`repair_dtmc`](Self::repair_dtmc) and [`repair_mdp`](Self::repair_mdp)
/// describe their repair to the crate's one repair driver, which Data
/// Repair shares: check the base model, compile the property into the NLP,
/// lift regions when the strategy asks for it, solve, and re-verify the
/// solver's point. Each optimizer step asks an oracle for the property's
/// value at the candidate point. For `P[φ U ψ]`, `P[F ψ]` (with or without
/// a step bound) and `R[F ψ]` with propositional operands the oracle is a
/// [`CompiledOracle`]: the maybe-state system (or the bounded sweeps'
/// masks) is built once per repair and each step only refills and solves
/// it, bitwise equal to checking the instantiated candidate. Any other
/// property, a candidate that would change the support, robust repair and
/// MDP repair instantiate the candidate model and run the full checker.
///
/// The property's closed-form rational function from parametric model
/// checking (Proposition 2) is computed only for region lifting
/// ([`RepairStrategy::Lifting`](crate::RepairStrategy::Lifting)), whose
/// interval enclosures prune the parameter box, seed the solver and bound
/// the certificate; its `f64` value at a point is never a constraint value.
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
        let mut problem = DtmcRepair { base, template, pdtmc: None };
        let run = drive(&mut problem, formula, &self.opts, &self.budget, &self.warm_starts)?;
        Ok(ModelRepairOutcome::from_run(run, |x| {
            template.param_names().into_iter().zip(x.iter().copied()).collect()
        }))
    }

    /// Repairs an MDP through the instantiate-and-check oracle.
    ///
    /// The property is checked under the PRISM scheduler convention (see
    /// `tml_checker::Checker::check`), so e.g.
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
        let run = drive(
            &mut MdpRepair { base, template },
            formula,
            &self.opts,
            &self.budget,
            &self.warm_starts,
        )?;
        Ok(ModelRepairOutcome::from_run(run, |x| template.name_params(x)))
    }
}

impl<M> ModelRepairOutcome<M> {
    fn from_run(run: RepairRun<M>, name: impl Fn(&[f64]) -> Vec<(String, f64)>) -> Self {
        ModelRepairOutcome {
            status: run.status,
            parameters: run.point.as_deref().map(name).unwrap_or_default(),
            cost: run.cost,
            model: run.model,
            verified: run.verified,
            verified_by_simulation: None,
            evaluations: run.evaluations,
            solver_point: run.point,
            certificate: run.certificate,
            diagnostics: run.diagnostics,
        }
    }
}

/// DTMC model repair: the template applied to the base chain is the
/// parametric chain, which lifting compiles the property against
/// symbolically; the property constraint is the [`CompiledOracle`] or
/// instantiate-and-check.
struct DtmcRepair<'a> {
    base: &'a Dtmc,
    template: &'a PerturbationTemplate,
    /// The template applied to `base`, built by `prepare`.
    pdtmc: Option<ParametricDtmc>,
}

impl DtmcRepair<'_> {
    fn pdtmc(&self) -> &ParametricDtmc {
        self.pdtmc.as_ref().expect("the driver prepares the problem before compiling it")
    }
}

impl RepairProblem for DtmcRepair<'_> {
    type Model = Dtmc;

    fn prepare(&mut self) -> Result<Vec<(f64, f64)>, RepairError> {
        self.pdtmc = Some(self.template.apply(self.base)?);
        Ok(self.template.bounds())
    }

    fn objective(&self, nlp: &mut Nlp) {
        let exprs = self.template.entries().map(|(_, e)| e.clone()).collect();
        frobenius_objective(nlp, exprs);
    }

    fn cost_polynomial(&self) -> Polynomial {
        sum_of_squares(self.template.num_params(), self.template.entries().map(|(_, e)| e))
    }

    fn candidate(
        &self,
        point: Option<&[f64]>,
        robust: Option<RobustSpec>,
    ) -> Result<(Cow<'_, Dtmc>, Option<IntervalDtmc>), RepairError> {
        let model = match point {
            None => Cow::Borrowed(self.base),
            Some(x) => Cow::Owned(self.pdtmc().instantiate(x)?),
        };
        let ball = robust
            .map(|rs| IntervalDtmc::wilson_around(&model, rs.confidence, rs.sample_size))
            .transpose()?;
        Ok((model, ball))
    }

    fn parametric(&self) -> Result<Option<Cow<'_, ParametricDtmc>>, RepairError> {
        Ok(Some(Cow::Borrowed(self.pdtmc())))
    }

    fn validity(&self) -> Vec<(String, f64, LinearExpr)> {
        self.template.probability_exprs(self.base)
    }

    fn oracle(&self, o: OracleSpec) -> PropertyOracle {
        let pd = self.pdtmc().clone();
        if let Some(rs) = o.robust {
            // The candidate's Wilson ball must satisfy the bound at its
            // conservative end.
            return PropertyOracle::Closure(Box::new(move |v| {
                let ball = pd.instantiate(v).ok().and_then(|m| {
                    IntervalDtmc::wilson_around(&m, rs.confidence, rs.sample_size).ok()
                });
                conservative_end(ball, &o)
            }));
        }
        match CompiledOracle::compile(self.base, &pd, &o.formula, o.check, o.budget.clone()) {
            Some(oracle) => PropertyOracle::Compiled(Arc::new(oracle)),
            None => PropertyOracle::Closure(Box::new(move |v| {
                checked_value(pd.instantiate(v).ok(), &o.formula, &o.check, &o.budget)
            })),
        }
    }
}

/// MDP model repair: no parametric chain (min/max elimination is not
/// implemented), so no lifting, and the property is always
/// instantiate-and-check.
struct MdpRepair<'a> {
    base: &'a Mdp,
    template: &'a MdpPerturbationTemplate,
}

impl RepairProblem for MdpRepair<'_> {
    type Model = Mdp;

    fn prepare(&mut self) -> Result<Vec<(f64, f64)>, RepairError> {
        self.template.validate(self.base)?;
        Ok(self.template.bounds())
    }

    fn objective(&self, nlp: &mut Nlp) {
        let exprs = self.template.entries.values().cloned().collect();
        frobenius_objective(nlp, exprs);
    }

    fn cost_polynomial(&self) -> Polynomial {
        sum_of_squares(self.template.num_params(), self.template.entries.values())
    }

    /// `robust` is always `None`: robust MDP repair is rejected before the
    /// driver runs.
    fn candidate(
        &self,
        point: Option<&[f64]>,
        _robust: Option<RobustSpec>,
    ) -> Result<(Cow<'_, Mdp>, Option<IntervalDtmc>), RepairError> {
        Ok(match point {
            None => (Cow::Borrowed(self.base), None),
            Some(x) => (Cow::Owned(self.template.instantiate(self.base, x)?), None),
        })
    }

    fn validity(&self) -> Vec<(String, f64, LinearExpr)> {
        let entries = self.template.entries.iter();
        entries
            .map(|(&(s, c, t), e)| {
                (format!("p({s},{c}->{t})"), choice_prob(self.base, s, c, t), e.clone())
            })
            .collect()
    }

    fn oracle(&self, o: OracleSpec) -> PropertyOracle {
        let (t, b) = (self.template.clone(), self.base.clone());
        PropertyOracle::Closure(Box::new(move |v| {
            checked_value(t.instantiate(&b, v).ok(), &o.formula, &o.check, &o.budget)
        }))
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

/// Registers the Frobenius cost `‖Z‖²_F = Σ e(v)²` of the perturbations
/// `exprs`.
fn frobenius_objective(nlp: &mut Nlp, exprs: Vec<LinearExpr>) {
    nlp.objective(move |v| exprs.iter().map(|e| e.eval(v).powi(2)).sum());
}

/// The cost `Σ (Σᵢ cᵢ·vᵢ)²` as a polynomial in the repair parameters, so
/// the region solver can interval-bound the objective it shares with the
/// penalty NLP.
fn sum_of_squares<'e>(np: usize, exprs: impl Iterator<Item = &'e LinearExpr>) -> Polynomial {
    let mut total = Polynomial::constant(np, 0.0);
    for expr in exprs {
        let lin = affine(np, 0.0, expr);
        total = total.add(&lin.mul(&lin));
    }
    total
}

fn choice_prob(mdp: &Mdp, s: usize, c: usize, t: usize) -> f64 {
    mdp.choices(s)
        .get(c)
        .and_then(|ch| ch.transitions.iter().find(|&&(x, _)| x == t))
        .map(|&(_, p)| p)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepairStrategy;
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
