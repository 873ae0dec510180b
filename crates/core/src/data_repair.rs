//! Data Repair (Definition 3): re-weight the training data so that the
//! model *re-learned* from it satisfies the property.
//!
//! Following the paper's machine-teaching formulation (Eqs. 11–14), each
//! trace class `g` gets a keep-weight `w_g ∈ [w_min, 1]` (the continuous
//! relaxation of the drop vector `p`). Maximum-likelihood transition
//! probabilities then become **rational functions of `w`**:
//!
//! ```text
//! P_w(s → t) = Σ_g w_g·c_g(s,t) / Σ_g w_g·c_g(s,·)
//! ```
//!
//! — e.g. the paper's `0.4 / (0.4 + 0.6·p)` forwarding probability — so the
//! same parametric-checking + NLP pipeline as Model Repair applies. The
//! effort function is the weighted dropped mass `Σ_g m_g·(1 − w_g)²`,
//! matching `E_T = ‖D − D'‖²`.

use std::borrow::Cow;

use tml_logic::StateFormula;
use tml_models::{
    learn, Dtmc, DtmcBuilder, IntervalDtmc, IntervalDtmcBuilder, MlOptions, TraceDataset,
};
use tml_numerics::{Budget, Diagnostics};
use tml_optimizer::Nlp;
use tml_parametric::{OptimalityCertificate, ParametricDtmc, Polynomial, RationalFunction};
use tml_telemetry::span;

use crate::driver::{
    checked_value, conservative_end, drive, OracleSpec, PropertyOracle, RepairProblem,
};
use crate::model_repair::RepairStatus;
use crate::{RepairError, RepairOptions, RobustSpec};

/// Static decoration applied to learned models: labels, rewards and the
/// initial state (these are not derivable from traces alone).
#[derive(Debug, Clone, Default)]
pub struct ModelSpec {
    /// Number of states of the learned model.
    pub num_states: usize,
    /// The initial state.
    pub initial: usize,
    /// `(state, label)` pairs.
    pub labels: Vec<(usize, String)>,
    /// `(structure, state, reward)` triples.
    pub state_rewards: Vec<(String, usize, f64)>,
}

impl ModelSpec {
    /// A spec over `num_states` states with initial state 0.
    pub fn new(num_states: usize) -> Self {
        ModelSpec { num_states, ..Default::default() }
    }

    /// Sets the initial state.
    pub fn initial(mut self, state: usize) -> Self {
        self.initial = state;
        self
    }

    /// Attaches a label.
    pub fn label(mut self, state: usize, label: &str) -> Self {
        self.labels.push((state, label.to_owned()));
        self
    }

    /// Sets a state reward.
    pub fn reward(mut self, structure: &str, state: usize, value: f64) -> Self {
        self.state_rewards.push((structure.to_owned(), state, value));
        self
    }

    /// Learns the decorated ML model from `dataset`, with class `weights`
    /// when given.
    pub(crate) fn learn(
        &self,
        dataset: &TraceDataset,
        weights: Option<&[f64]>,
    ) -> Result<Dtmc, RepairError> {
        let mut b = learn::ml_dtmc(self.num_states, dataset, weights, MlOptions::default())?;
        self.decorate(&mut b)?;
        Ok(b.build()?)
    }

    /// Learns the decorated interval model whose per-row Wilson intervals
    /// at `confidence` bracket the (optionally re-weighted) ML estimates.
    fn learn_interval(
        &self,
        dataset: &TraceDataset,
        weights: Option<&[f64]>,
        confidence: f64,
    ) -> Result<IntervalDtmc, RepairError> {
        let mut b = learn::interval_dtmc_from_traces(
            self.num_states,
            dataset,
            weights,
            confidence,
            MlOptions::default(),
        )?;
        self.decorate_interval(&mut b)?;
        Ok(b.build()?)
    }

    fn decorate(&self, b: &mut DtmcBuilder) -> Result<(), RepairError> {
        b.initial_state(self.initial)?;
        for (s, l) in &self.labels {
            b.label(*s, l)?;
        }
        for (structure, s, r) in &self.state_rewards {
            b.state_reward(structure, *s, *r)?;
        }
        Ok(())
    }

    fn decorate_interval(&self, b: &mut IntervalDtmcBuilder) -> Result<(), RepairError> {
        b.initial_state(self.initial)?;
        for (s, l) in &self.labels {
            b.label(*s, l)?;
        }
        for (structure, s, r) in &self.state_rewards {
            b.state_reward(structure, *s, *r)?;
        }
        Ok(())
    }
}

/// Outcome of a data repair.
#[derive(Debug, Clone)]
pub struct DataRepairOutcome {
    /// How the attempt concluded.
    pub status: RepairStatus,
    /// Keep-weight per trace class (1 = keep everything).
    pub keep_weights: Vec<(String, f64)>,
    /// The teaching-effort objective `Σ_g m_g (1 − w_g)²` at the solution.
    pub effort: f64,
    /// Total trace mass dropped, `Σ_g m_g (1 − w_g)`.
    pub dropped_mass: f64,
    /// The model re-learned from the repaired data; `None` when infeasible.
    pub model: Option<Dtmc>,
    /// Whether the re-learned model was re-verified by the checker.
    pub verified: bool,
    /// Whether a Monte Carlo simulation cross-check (when attached to the
    /// pipeline; see `TmlPipeline::with_simulation_cross_check`) could not
    /// refute the property on the returned model. `None` when no
    /// cross-check ran or the property is outside the simulable fragment.
    pub verified_by_simulation: Option<bool>,
    /// Optimizer evaluations spent.
    pub evaluations: usize,
    /// The best keep-weight point the penalty solver reached, regardless of
    /// feasibility — a warm start for a retry of the same job (see
    /// [`DataRepair::start_from`]). `None` when no solver ran.
    pub solver_point: Option<Vec<f64>>,
    /// Soundness certificate produced by the parameter-lifting strategy:
    /// the returned effort against a sound interval lower bound on the
    /// effort over the entire feasible region. `None` on the pure penalty
    /// path and when lifting fell back mid-refinement.
    pub certificate: Option<OptimalityCertificate>,
    /// What the repair spent and which degradation paths (solver
    /// fallbacks, accepted residuals, budget exhaustion) were taken.
    pub diagnostics: Diagnostics,
}

/// The Data Repair algorithm.
///
/// [`repair`](Self::repair) describes the repair to the crate's one repair
/// driver, which Model Repair shares: the parameters are the class
/// keep-weights, the cost is the teaching effort, the parametric chain is
/// the ML estimate as rational functions of the weights, and the oracle
/// re-learns the chain (or, when robust, its Wilson ball) from the
/// re-weighted traces and checks it. The solver starts from "keep
/// everything".
#[derive(Debug, Clone)]
pub struct DataRepair {
    opts: RepairOptions,
    /// Lower bound on keep-weights, kept strictly positive so the support of
    /// the learned chain never changes (the parametric well-definedness
    /// assumption).
    min_keep: f64,
    /// Per-class keep-weight bounds overriding the global `[min_keep, 1]`
    /// box — e.g. pinning a class to `[1, 1]` marks it as known-reliable
    /// data that must be kept (the paper's "certain pᵢ values must be 1").
    class_bounds: Vec<(String, f64, f64)>,
    budget: Budget,
    warm_starts: Vec<Vec<f64>>,
}

impl Default for DataRepair {
    fn default() -> Self {
        DataRepair {
            opts: RepairOptions::default(),
            min_keep: 1e-3,
            class_bounds: Vec::new(),
            budget: Budget::unlimited(),
            warm_starts: Vec::new(),
        }
    }
}

impl DataRepair {
    /// A repairer with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A repairer with explicit options.
    pub fn with_options(opts: RepairOptions) -> Self {
        DataRepair { opts, ..Default::default() }
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

    /// Sets the minimum keep-weight (default `1e-3`).
    pub fn min_keep(mut self, w: f64) -> Self {
        self.min_keep = w;
        self
    }

    /// Overrides the keep-weight box of one class.
    pub fn class_bound(mut self, class: &str, lo: f64, hi: f64) -> Self {
        self.class_bounds.push((class.to_owned(), lo, hi));
        self
    }

    /// Pins a class's keep-weight to 1 (known-reliable data).
    pub fn keep_class(self, class: &str) -> Self {
        self.class_bound(class, 1.0, 1.0)
    }

    /// Adds a warm-start point for the penalty solver, tried after the
    /// built-in "keep everything" start but before random restarts.
    /// Retrying runtimes feed the previous attempt's
    /// [`DataRepairOutcome::solver_point`] back through this so a retry
    /// resumes the search instead of repeating it.
    #[must_use]
    pub fn start_from(mut self, w: Vec<f64>) -> Self {
        self.warm_starts.push(w);
        self
    }

    /// Runs data repair: find class keep-weights such that the model
    /// re-learned from the re-weighted dataset satisfies `formula`.
    ///
    /// # Errors
    ///
    /// * [`RepairError::InvalidInput`] for an empty dataset.
    /// * Learning, checking, parametric and optimizer errors.
    pub fn repair(
        &self,
        dataset: &TraceDataset,
        spec: &ModelSpec,
        formula: &StateFormula,
    ) -> Result<DataRepairOutcome, RepairError> {
        if dataset.num_traces() == 0 || dataset.num_classes() == 0 {
            return Err(RepairError::InvalidInput { detail: "empty dataset".into() });
        }
        let _span =
            span!("data_repair", traces = dataset.num_traces(), classes = dataset.num_classes());
        let mut problem =
            DataProblem { repair: self, dataset, spec, masses: class_masses(dataset), pdtmc: None };
        let run = drive(&mut problem, formula, &self.opts, &self.budget, &self.warm_starts)?;
        let names = dataset.class_names();
        let (keep_weights, dropped_mass) = match &run.point {
            Some(w) => (
                names.iter().cloned().zip(w.iter().copied()).collect(),
                w.iter().zip(&problem.masses).map(|(&w, &m)| m * (1.0 - w)).sum(),
            ),
            None => (names.iter().map(|n| (n.clone(), 1.0)).collect(), 0.0),
        };
        Ok(DataRepairOutcome {
            status: run.status,
            keep_weights,
            effort: run.cost,
            dropped_mass,
            model: run.model,
            verified: run.verified,
            verified_by_simulation: None,
            evaluations: run.evaluations,
            solver_point: run.point,
            certificate: run.certificate,
            diagnostics: run.diagnostics,
        })
    }
}

/// Data repair as the driver sees it: one keep-weight per trace class.
struct DataProblem<'a> {
    repair: &'a DataRepair,
    dataset: &'a TraceDataset,
    spec: &'a ModelSpec,
    /// Trace mass per class, `m_g`.
    masses: Vec<f64>,
    /// The ML estimate as rational functions of the weights, built by
    /// `prepare`.
    pdtmc: Option<ParametricDtmc>,
}

impl RepairProblem for DataProblem<'_> {
    type Model = Dtmc;
    const PHASE_SPANS: bool = false;

    fn prepare(&mut self) -> Result<Vec<(f64, f64)>, RepairError> {
        self.pdtmc = Some(parametric_model(self.dataset, self.spec)?);
        let mut boxes = vec![(self.repair.min_keep, 1.0); self.dataset.num_classes()];
        for (class, lo, hi) in &self.repair.class_bounds {
            match self.dataset.class_names().iter().position(|c| c == class) {
                Some(i) => boxes[i] = (*lo, *hi),
                None => {
                    return Err(RepairError::InvalidInput {
                        detail: format!("class bound for unknown class {class:?}"),
                    })
                }
            }
        }
        Ok(boxes)
    }

    fn objective(&self, nlp: &mut Nlp) {
        let m = self.masses.clone();
        let m_grad = self.masses.clone();
        // ∂/∂w_g Σ m·(1−w)² = −2·m_g·(1−w_g).
        nlp.objective_with_grad(
            move |w| w.iter().zip(&m).map(|(&wg, &mg)| mg * (1.0 - wg).powi(2)).sum(),
            move |w, grad| {
                for ((gi, &wg), &mg) in grad.iter_mut().zip(w).zip(&m_grad) {
                    *gi = -2.0 * mg * (1.0 - wg);
                }
            },
        );
    }

    /// The teaching effort `Σ_g m_g·(1 − w_g)²` as a polynomial in `w`.
    fn cost_polynomial(&self) -> Polynomial {
        let g = self.masses.len();
        let mut effort = Polynomial::zero(g);
        for (i, &m) in self.masses.iter().enumerate() {
            if m != 0.0 {
                let lin = Polynomial::constant(g, 1.0).add(&Polynomial::var(g, i).scale(-1.0));
                effort = effort.add(&lin.mul(&lin).scale(m));
            }
        }
        effort
    }

    /// The uncertainty ball comes straight from the (re-weighted) trace
    /// counts: per-row Wilson intervals at the requested confidence.
    fn candidate(
        &self,
        point: Option<&[f64]>,
        robust: Option<RobustSpec>,
    ) -> Result<(Cow<'_, Dtmc>, Option<IntervalDtmc>), RepairError> {
        let model = self.spec.learn(self.dataset, point)?;
        let ball = robust
            .map(|rs| self.spec.learn_interval(self.dataset, point, rs.confidence))
            .transpose()?;
        Ok((Cow::Owned(model), ball))
    }

    fn parametric(&self) -> Option<&ParametricDtmc> {
        self.pdtmc.as_ref()
    }

    fn oracle(&self, o: OracleSpec) -> PropertyOracle {
        let (ds, sp) = (self.dataset.clone(), self.spec.clone());
        PropertyOracle::Closure(match o.robust {
            Some(rs) => Box::new(move |w| {
                conservative_end(sp.learn_interval(&ds, Some(w), rs.confidence).ok(), &o)
            }),
            None => Box::new(move |w| {
                checked_value(sp.learn(&ds, Some(w)).ok(), &o.formula, &o.check, &o.budget)
            }),
        })
    }

    fn start_points(&self) -> Vec<Vec<f64>> {
        vec![vec![1.0; self.masses.len()]]
    }
}

/// Builds the parametric chain whose transition probabilities are the ML
/// estimates as rational functions of the keep-weights.
fn parametric_model(
    dataset: &TraceDataset,
    spec: &ModelSpec,
) -> Result<ParametricDtmc, RepairError> {
    let g = dataset.num_classes();
    let n = spec.num_states;
    // Per-class transition counts.
    let mut per_class: Vec<Vec<Vec<f64>>> = Vec::with_capacity(g);
    for class in 0..g {
        let indicator: Vec<f64> = (0..g).map(|i| if i == class { 1.0 } else { 0.0 }).collect();
        per_class.push(dataset.transition_counts(n, Some(&indicator))?);
    }
    let param_names: Vec<String> = dataset.class_names().iter().map(|c| format!("w_{c}")).collect();
    let mut b = ParametricDtmc::builder(n, param_names);
    b.initial_state(spec.initial)?;
    for s in 0..n {
        // den(s) = Σ_g w_g · c_g(s,·)
        let mut den = Polynomial::zero(g);
        for (class, counts) in per_class.iter().enumerate() {
            let tot: f64 = counts[s].iter().sum();
            if tot > 0.0 {
                den = den.add(&Polynomial::var(g, class).scale(tot));
            }
        }
        if den.is_zero() {
            // State never left in any trace: constant self-loop.
            b.transition(s, s, RationalFunction::one_rf(g))?;
            continue;
        }
        for t in 0..n {
            let mut num = Polynomial::zero(g);
            for (class, counts) in per_class.iter().enumerate() {
                let c = counts[s][t];
                if c > 0.0 {
                    num = num.add(&Polynomial::var(g, class).scale(c));
                }
            }
            if num.is_zero() {
                continue;
            }
            b.transition(s, t, RationalFunction::new(num, den.clone())?)?;
        }
    }
    for (s, l) in &spec.labels {
        b.label(*s, l)?;
    }
    for (structure, s, r) in &spec.state_rewards {
        b.state_reward(structure, *s, RationalFunction::constant(g, *r))?;
    }
    Ok(b.build()?)
}

fn class_masses(dataset: &TraceDataset) -> Vec<f64> {
    let mut m = vec![0.0; dataset.num_classes()];
    for tr in dataset.iter() {
        m[tr.class] += tr.weight;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RepairStrategy;
    use tml_logic::parse_formula;
    use tml_models::Path;

    /// Dataset over a 2-state world: "good" traces go 0→1, "noisy" traces
    /// loop 0→0.
    fn dataset(good: f64, noisy: f64) -> TraceDataset {
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let n = ds.add_class("noisy");
        ds.push(g, Path::from_states(vec![0, 1]), good).unwrap();
        ds.push(n, Path::from_states(vec![0, 0]), noisy).unwrap();
        ds
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(2).label(1, "ok")
    }

    #[test]
    fn already_satisfied() {
        // P(0→1) = 0.8 ≥ 0.7 via F within one step (absorbing at 1).
        let ds = dataset(8.0, 2.0);
        let phi = parse_formula("P>=0.7 [ X \"ok\" ]").unwrap();
        // X is outside the symbolic fragment but base model already passes.
        let out = DataRepair::new().repair(&ds, &spec(), &phi).unwrap();
        assert_eq!(out.status, RepairStatus::AlreadySatisfied);
        assert!(out.verified);
    }

    #[test]
    fn drops_noisy_class_to_meet_bound() {
        // Base: P(0→1) = 0.5. Require P(X ok) ≥ 0.8: must down-weight noise.
        // Symbolic path: use F with a "stuck" observation so F ≠ 1:
        // model: 0→1 w.p. w_good/(w_good+w_noisy) but 0→0 self-loop retries
        // forever, so P(F ok) = 1 regardless. Use a 3-state world instead:
        // noisy traces go 0→2 (absorbing bad).
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let n = ds.add_class("noisy");
        ds.push(g, Path::from_states(vec![0, 1]), 5.0).unwrap();
        ds.push(n, Path::from_states(vec![0, 2]), 5.0).unwrap();
        ds.push(g, Path::from_states(vec![1, 1]), 1.0).unwrap();
        ds.push(n, Path::from_states(vec![2, 2]), 1.0).unwrap();
        let sp = ModelSpec::new(3).label(1, "ok");
        let phi = parse_formula("P>=0.8 [ F \"ok\" ]").unwrap();
        let out = DataRepair::new().repair(&ds, &sp, &phi).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        let w_noisy = out.keep_weights.iter().find(|(n, _)| n == "noisy").unwrap().1;
        let w_good = out.keep_weights.iter().find(|(n, _)| n == "good").unwrap().1;
        // P(F ok) = 5 w_g / (5 w_g + 5 w_n) ≥ 0.8 ⇒ w_n ≤ w_g / 4.
        assert!(w_noisy <= w_good / 4.0 + 1e-3, "w_noisy {w_noisy} w_good {w_good}");
        assert!(out.dropped_mass > 0.0);
        assert!(out.effort > 0.0);
        let m = out.model.unwrap();
        assert!(m.probability(0, 1) >= 0.8 - 1e-6);
    }

    #[test]
    fn infeasible_when_min_keep_blocks() {
        // Even dropping noise to the minimum cannot reach an absurd bound
        // because min_keep keeps some noise mass.
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let n = ds.add_class("noisy");
        ds.push(g, Path::from_states(vec![0, 1]), 1.0).unwrap();
        ds.push(n, Path::from_states(vec![0, 2]), 100.0).unwrap();
        ds.push(g, Path::from_states(vec![1, 1]), 1.0).unwrap();
        ds.push(n, Path::from_states(vec![2, 2]), 1.0).unwrap();
        let sp = ModelSpec::new(3).label(1, "ok");
        let phi = parse_formula("P>=0.999 [ F \"ok\" ]").unwrap();
        let out = DataRepair::new().min_keep(0.5).repair(&ds, &sp, &phi).unwrap();
        assert_eq!(out.status, RepairStatus::Infeasible);
        assert!(out.model.is_none());
    }

    #[test]
    fn reward_property_repair() {
        // Retry chain: success counts from two classes; require expected
        // attempts ≤ 2 ⇒ success prob ≥ 0.5.
        let mut ds = TraceDataset::new();
        let succ = ds.add_class("success");
        let fail = ds.add_class("failure");
        ds.push(succ, Path::from_states(vec![0, 1]), 3.0).unwrap();
        ds.push(fail, Path::from_states(vec![0, 0]), 7.0).unwrap();
        ds.push(succ, Path::from_states(vec![1, 1]), 1.0).unwrap();
        let sp = ModelSpec::new(2).label(1, "done").reward("attempts", 0, 1.0);
        let phi = parse_formula("R{\"attempts\"}<=2 [ F \"done\" ]").unwrap();
        let out = DataRepair::new().repair(&ds, &sp, &phi).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        // E[attempts] = (3w_s + 7w_f)/(3w_s) ≤ 2 ⇒ 7 w_f ≤ 3 w_s.
        let ws = out.keep_weights[0].1;
        let wf = out.keep_weights[1].1;
        assert!(7.0 * wf <= 3.0 * ws + 1e-2, "ws {ws} wf {wf}");
    }

    #[test]
    fn lifting_strategy_certifies_data_repair() {
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let n = ds.add_class("noisy");
        ds.push(g, Path::from_states(vec![0, 1]), 5.0).unwrap();
        ds.push(n, Path::from_states(vec![0, 2]), 5.0).unwrap();
        ds.push(g, Path::from_states(vec![1, 1]), 1.0).unwrap();
        ds.push(n, Path::from_states(vec![2, 2]), 1.0).unwrap();
        let sp = ModelSpec::new(3).label(1, "ok");
        let phi = parse_formula("P>=0.8 [ F \"ok\" ]").unwrap();
        let opts = RepairOptions { strategy: RepairStrategy::Lifting, ..RepairOptions::default() };
        let out = DataRepair::with_options(opts).repair(&ds, &sp, &phi).unwrap();
        assert_eq!(out.status, RepairStatus::Repaired);
        assert!(out.verified);
        let cert = out.certificate.expect("lifting emits a certificate");
        assert!(cert.lower_bound <= out.effort + 1e-12, "{cert:?} vs {}", out.effort);
        // Penalty path never certifies.
        let plain = DataRepair::new().repair(&ds, &sp, &phi).unwrap();
        assert!(plain.certificate.is_none());
    }

    #[test]
    fn exhausted_budget_reports_status_instead_of_erroring() {
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let n = ds.add_class("noisy");
        ds.push(g, Path::from_states(vec![0, 1]), 5.0).unwrap();
        ds.push(n, Path::from_states(vec![0, 2]), 5.0).unwrap();
        ds.push(g, Path::from_states(vec![1, 1]), 1.0).unwrap();
        ds.push(n, Path::from_states(vec![2, 2]), 1.0).unwrap();
        let sp = ModelSpec::new(3).label(1, "ok");
        let phi = parse_formula("P>=0.8 [ F \"ok\" ]").unwrap();
        let out = DataRepair::new()
            .with_budget(Budget::unlimited().with_max_evaluations(0))
            .repair(&ds, &sp, &phi)
            .unwrap();
        assert_eq!(out.status, RepairStatus::BudgetExhausted);
        assert!(out.diagnostics.exhausted.is_some());
        // Best-effort keep-weights are still reported, one per class.
        assert_eq!(out.keep_weights.len(), 2);
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = TraceDataset::new();
        let phi = parse_formula("P>=0.5 [ F \"ok\" ]").unwrap();
        assert!(matches!(
            DataRepair::new().repair(&ds, &spec(), &phi),
            Err(RepairError::InvalidInput { .. })
        ));
    }

    /// 3-state world with absorbing good/bad states and generous trace
    /// counts so the Wilson ball is informative but not degenerate.
    fn robust_world(good: f64, noisy: f64) -> (TraceDataset, ModelSpec) {
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let n = ds.add_class("noisy");
        ds.push(g, Path::from_states(vec![0, 1]), good).unwrap();
        ds.push(n, Path::from_states(vec![0, 2]), noisy).unwrap();
        ds.push(g, Path::from_states(vec![1, 1]), good).unwrap();
        ds.push(n, Path::from_states(vec![2, 2]), noisy).unwrap();
        (ds, ModelSpec::new(3).label(1, "ok"))
    }

    #[test]
    fn robust_data_repair_drops_more_than_nominal() {
        // Base: P(0→1) = 0.5 from 60/60 counts. Nominal repair stops as soon
        // as the point estimate hits 0.8; the robust repair must push the
        // Wilson lower bound over 0.8, which costs strictly more noise mass.
        let (ds, sp) = robust_world(60.0, 60.0);
        let phi = parse_formula("P>=0.8 [ F \"ok\" ]").unwrap();
        let nominal = DataRepair::new().repair(&ds, &sp, &phi).unwrap();
        let opts =
            RepairOptions { robust: Some(RobustSpec::new(0.95)), ..RepairOptions::default() };
        let robust = DataRepair::with_options(opts).repair(&ds, &sp, &phi).unwrap();
        assert_eq!(robust.status, RepairStatus::Repaired);
        assert!(robust.verified, "robust data repair must robust-verify");
        let wn_nominal = nominal.keep_weights.iter().find(|(n, _)| n == "noisy").unwrap().1;
        let wn_robust = robust.keep_weights.iter().find(|(n, _)| n == "noisy").unwrap().1;
        assert!(
            wn_robust < wn_nominal - 1e-3,
            "robust keeps {wn_robust}, nominal keeps {wn_nominal}"
        );
        assert!(robust.dropped_mass > nominal.dropped_mass);
        // The returned nominal model overshoots the bound: calibration slack.
        let m = robust.model.unwrap();
        assert!(m.probability(0, 1) > 0.8 + 1e-3);
    }

    #[test]
    fn robust_data_repair_already_satisfied_when_ball_passes() {
        // 95/5 split over large counts: even the pessimistic member clears
        // P >= 0.8, so no weights move.
        let (ds, sp) = robust_world(950.0, 50.0);
        let phi = parse_formula("P>=0.8 [ F \"ok\" ]").unwrap();
        let opts =
            RepairOptions { robust: Some(RobustSpec::new(0.95)), ..RepairOptions::default() };
        let out = DataRepair::with_options(opts).repair(&ds, &sp, &phi).unwrap();
        assert_eq!(out.status, RepairStatus::AlreadySatisfied);
        assert!(out.verified);
        assert_eq!(out.dropped_mass, 0.0);
    }

    #[test]
    fn robust_data_repair_rejects_invalid_confidence() {
        let (ds, sp) = robust_world(60.0, 60.0);
        let phi = parse_formula("P>=0.8 [ F \"ok\" ]").unwrap();
        let opts = RepairOptions {
            robust: Some(RobustSpec { confidence: 2.0, sample_size: 100.0 }),
            ..RepairOptions::default()
        };
        assert!(matches!(
            DataRepair::with_options(opts).repair(&ds, &sp, &phi),
            Err(RepairError::InvalidInput { .. })
        ));
    }
}
