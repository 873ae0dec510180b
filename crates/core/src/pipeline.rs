//! The end-to-end TML pipeline of Section II: *learn → verify → Model
//! Repair → Data Repair → report*.
//!
//! Given a trace dataset `D`, a model spec, and a property `φ`:
//!
//! 1. learn `M = ML(D)` by maximum likelihood;
//! 2. if `M ⊨ φ`, output `M`;
//! 3. otherwise run Model Repair (if a perturbation template was
//!    configured); if it finds `M' ⊨ φ`, output `M'`;
//! 4. otherwise run Data Repair; if re-learning from repaired data gives
//!    `M'' ⊨ φ`, output `M''`;
//! 5. otherwise report that `φ` cannot be satisfied under the configured
//!    feasibility classes.

use std::fmt;
use std::sync::Arc;

use tml_checker::Checker;
use tml_logic::StateFormula;
use tml_models::{Dtmc, TraceDataset};
use tml_numerics::{Budget, Diagnostics};
use tml_telemetry::span;

use crate::{
    DataRepair, DataRepairOutcome, ModelRepair, ModelRepairOutcome, ModelSpec,
    PerturbationTemplate, RepairError, RepairOptions, RepairStatus,
};

/// How the pipeline concluded.
#[derive(Debug, Clone)]
pub enum TmlOutcome {
    /// The learned model already satisfies the property.
    Satisfied {
        /// The learned model.
        model: Dtmc,
        /// What the verification spent.
        diagnostics: Diagnostics,
        /// Result of the independent simulation cross-check, when one was
        /// configured via [`TmlPipeline::with_simulation_cross_check`]:
        /// `Some(true)` if simulation could not refute the property,
        /// `Some(false)` if it refuted it, `None` if no hook was configured
        /// or the property is outside the simulable fragment.
        verified_by_simulation: Option<bool>,
    },
    /// Model Repair succeeded.
    ModelRepaired {
        /// The repair details (model inside).
        outcome: ModelRepairOutcome<Dtmc>,
    },
    /// Model Repair failed but Data Repair succeeded.
    DataRepaired {
        /// The repair details (re-learned model inside).
        outcome: DataRepairOutcome,
        /// Why model repair did not conclude (status of its attempt), if it
        /// was configured.
        model_repair_status: Option<RepairStatus>,
    },
    /// No configured repair can satisfy the property — or, when
    /// `diagnostics.exhausted` is set, the budget ran out before any stage
    /// could produce a verified model.
    Unrepairable {
        /// Status of the model-repair attempt, if configured.
        model_repair_status: Option<RepairStatus>,
        /// Status of the data-repair attempt, if configured.
        data_repair_status: Option<RepairStatus>,
        /// Aggregated spend across every stage that ran.
        diagnostics: Diagnostics,
    },
}

impl TmlOutcome {
    /// The final trusted model, when one exists.
    pub fn model(&self) -> Option<&Dtmc> {
        match self {
            TmlOutcome::Satisfied { model, .. } => Some(model),
            TmlOutcome::ModelRepaired { outcome } => outcome.model.as_ref(),
            TmlOutcome::DataRepaired { outcome, .. } => outcome.model.as_ref(),
            TmlOutcome::Unrepairable { .. } => None,
        }
    }

    /// Whether the pipeline produced a property-satisfying model.
    pub fn is_trusted(&self) -> bool {
        self.model().is_some()
    }

    /// What the concluding stage spent and which degradation paths it took.
    pub fn diagnostics(&self) -> &Diagnostics {
        match self {
            TmlOutcome::Satisfied { diagnostics, .. } => diagnostics,
            TmlOutcome::ModelRepaired { outcome } => &outcome.diagnostics,
            TmlOutcome::DataRepaired { outcome, .. } => &outcome.diagnostics,
            TmlOutcome::Unrepairable { diagnostics, .. } => diagnostics,
        }
    }

    /// Whether any stage degraded (fallbacks, accepted residuals or an
    /// exhausted budget).
    pub fn degraded(&self) -> bool {
        self.diagnostics().degraded()
    }

    /// Result of the independent simulation cross-check on the concluding
    /// model, when a hook was configured (see
    /// [`TmlPipeline::with_simulation_cross_check`]).
    pub fn verified_by_simulation(&self) -> Option<bool> {
        match self {
            TmlOutcome::Satisfied { verified_by_simulation, .. } => *verified_by_simulation,
            TmlOutcome::ModelRepaired { outcome } => outcome.verified_by_simulation,
            TmlOutcome::DataRepaired { outcome, .. } => outcome.verified_by_simulation,
            TmlOutcome::Unrepairable { .. } => None,
        }
    }
}

/// Independent re-verification hook: given a candidate trusted model and
/// the property, report `Some(acceptable)` or `None` when the check does
/// not apply (e.g. the property is outside the hook's fragment).
pub type SimulationCrossCheck = Arc<dyn Fn(&Dtmc, &StateFormula) -> Option<bool> + Send + Sync>;

/// The pipeline's stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Maximum-likelihood learning from the trace dataset.
    Learn,
    /// Initial verification of the learned model.
    Verify,
    /// The Model Repair stage.
    ModelRepair,
    /// The Data Repair stage.
    DataRepair,
}

impl PipelineStage {
    /// Stable lowercase name (journal/report wire form).
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Learn => "learn",
            PipelineStage::Verify => "verify",
            PipelineStage::ModelRepair => "model_repair",
            PipelineStage::DataRepair => "data_repair",
        }
    }

    /// Parses a name produced by [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "learn" => Some(PipelineStage::Learn),
            "verify" => Some(PipelineStage::Verify),
            "model_repair" => Some(PipelineStage::ModelRepair),
            "data_repair" => Some(PipelineStage::DataRepair),
            _ => None,
        }
    }
}

/// Progress report fired by [`TmlPipeline::run`] after each stage
/// completes, carrying whatever restart state the stage produced.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// The stage that just completed.
    pub stage: PipelineStage,
    /// The best solver point the stage's optimizer reached (`None` for
    /// stages that run no optimizer). Feeding it back through
    /// [`TmlPipeline::with_warm_start`] lets a retry resume the search.
    pub solver_point: Option<Vec<f64>>,
}

/// Observer invoked synchronously on the pipeline thread after each stage.
/// A panic inside the hook propagates out of `run` — batch executors rely
/// on this to inject stage-targeted faults.
pub type CheckpointHook = Arc<dyn Fn(&PipelineCheckpoint) + Send + Sync>;

/// Configurable TML pipeline.
///
/// # Example
///
/// ```
/// use tml_core::pipeline::TmlPipeline;
/// use tml_core::ModelSpec;
/// use tml_logic::parse_formula;
/// use tml_models::{TraceDataset, Path};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ds = TraceDataset::new();
/// let ok = ds.add_class("ok");
/// let bad = ds.add_class("bad");
/// ds.push(ok, Path::from_states(vec![0, 1, 1]), 6.0)?;
/// ds.push(bad, Path::from_states(vec![0, 2, 2]), 4.0)?;
/// let spec = ModelSpec::new(3).label(1, "goal");
/// let phi = parse_formula("P>=0.7 [ F \"goal\" ]")?;
///
/// // No model-repair template configured: the pipeline learns, finds the
/// // property violated (P = 0.6), and falls through to data repair.
/// let outcome = TmlPipeline::new(spec, phi).with_data_repair().run(&ds)?;
/// assert!(outcome.is_trusted());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TmlPipeline {
    spec: ModelSpec,
    formula: StateFormula,
    opts: RepairOptions,
    template: Option<PerturbationTemplate>,
    data_repair: bool,
    budget: Budget,
    cross_check: Option<SimulationCrossCheck>,
    checkpoint_hook: Option<CheckpointHook>,
    warm_starts: Vec<(PipelineStage, Vec<f64>)>,
}

impl fmt::Debug for TmlPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmlPipeline")
            .field("spec", &self.spec)
            .field("formula", &self.formula)
            .field("opts", &self.opts)
            .field("template", &self.template)
            .field("data_repair", &self.data_repair)
            .field("budget", &self.budget)
            .field("cross_check", &self.cross_check.as_ref().map(|_| "<fn>"))
            .field("checkpoint_hook", &self.checkpoint_hook.as_ref().map(|_| "<fn>"))
            .field("warm_starts", &self.warm_starts)
            .finish()
    }
}

impl TmlPipeline {
    /// A pipeline for the given model spec and property, with no repairs
    /// configured yet.
    pub fn new(spec: ModelSpec, formula: StateFormula) -> Self {
        TmlPipeline {
            spec,
            formula,
            opts: RepairOptions::default(),
            template: None,
            data_repair: false,
            budget: Budget::unlimited(),
            cross_check: None,
            checkpoint_hook: None,
            warm_starts: Vec::new(),
        }
    }

    /// Sets repair options.
    pub fn with_options(mut self, opts: RepairOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Bounds the whole pipeline — verification and every configured repair
    /// stage — by one execution budget. The deadline and the cancellation
    /// token are shared by all stages; when the budget runs out, the
    /// pipeline concludes with its best-effort outcome instead of erroring
    /// or hanging.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Enables Model Repair with the given perturbation template.
    pub fn with_model_repair(mut self, template: PerturbationTemplate) -> Self {
        self.template = Some(template);
        self
    }

    /// Enables Data Repair as the fallback stage.
    pub fn with_data_repair(mut self) -> Self {
        self.data_repair = true;
        self
    }

    /// Installs an independent re-verification hook that is run on every
    /// concluding model (learned-and-satisfied, model-repaired or
    /// data-repaired). Its answer is recorded as `verified_by_simulation`
    /// on the outcome; it never changes the pipeline's control flow — a
    /// refuting cross-check is a red flag for the *engines*, not for the
    /// repair, and is surfaced to the caller to act on.
    ///
    /// The conformance layer provides a ready-made hook:
    /// `tml_conformance::simulation_cross_check(trajectories, seed)`.
    #[must_use]
    pub fn with_simulation_cross_check(mut self, hook: SimulationCrossCheck) -> Self {
        self.cross_check = Some(hook);
        self
    }

    /// Installs a checkpoint observer, called after each stage completes
    /// with the stage name and any solver restart state it produced. Batch
    /// executors journal these so a retry (or a resumed run) can warm-start
    /// the surviving stages instead of repeating them.
    #[must_use]
    pub fn with_checkpoint_hook(mut self, hook: CheckpointHook) -> Self {
        self.checkpoint_hook = Some(hook);
        self
    }

    /// Seeds a stage's optimizer with a previously checkpointed solver
    /// point (see [`PipelineCheckpoint::solver_point`]). Points for stages
    /// without an optimizer ([`PipelineStage::Learn`],
    /// [`PipelineStage::Verify`]) are ignored.
    #[must_use]
    pub fn with_warm_start(mut self, stage: PipelineStage, x: Vec<f64>) -> Self {
        self.warm_starts.push((stage, x));
        self
    }

    /// Runs the pipeline on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates learning, checking and repair errors; an *infeasible*
    /// repair is not an error (it yields [`TmlOutcome::Unrepairable`]).
    pub fn run(&self, dataset: &TraceDataset) -> Result<TmlOutcome, RepairError> {
        let _span = span!("pipeline.run", states = self.spec.num_states);
        // 1. Learn.
        let learn_span = span!("pipeline.learn");
        let model = self.spec.learn(dataset, None)?;
        drop(learn_span);
        let checkpoint = |stage: PipelineStage, solver_point: Option<Vec<f64>>| {
            if let Some(hook) = &self.checkpoint_hook {
                hook(&PipelineCheckpoint { stage, solver_point });
            }
        };
        checkpoint(PipelineStage::Learn, None);

        // 2. Verify.
        let checker = Checker::with_options(self.opts.check).with_budget(self.budget.clone());
        let mut diag = Diagnostics::new();
        let initial = {
            let _s = span!("pipeline.verify");
            checker.check_dtmc(&model, &self.formula)?
        };
        diag.absorb(initial.diagnostics());
        checkpoint(PipelineStage::Verify, None);
        // Independent re-verification of whichever model concludes the
        // pipeline (simulation-based when wired to the conformance layer).
        let cross_check = |m: &Dtmc| {
            self.cross_check.as_ref().and_then(|hook| {
                let _s = span!("pipeline.cross_check");
                hook(m, &self.formula)
            })
        };
        if initial.holds() {
            let verified_by_simulation = cross_check(&model);
            return Ok(TmlOutcome::Satisfied { model, diagnostics: diag, verified_by_simulation });
        }

        // A repair stage concludes the pipeline when it produced a model;
        // `Infeasible` falls through to the next stage, `BudgetExhausted`
        // falls through too because its model (if any) is unverified.
        let concludes = |status: RepairStatus| {
            !matches!(status, RepairStatus::Infeasible | RepairStatus::BudgetExhausted)
        };

        // 3. Model Repair.
        let mut model_repair_status = None;
        if let Some(template) = &self.template {
            let _s = span!("pipeline.model_repair");
            let mut repair = ModelRepair::with_options(self.opts).with_budget(self.budget.clone());
            for (stage, x) in &self.warm_starts {
                if *stage == PipelineStage::ModelRepair {
                    repair = repair.start_from(x.clone());
                }
            }
            let mut out = repair.repair_dtmc(&model, &self.formula, template)?;
            model_repair_status = Some(out.status);
            checkpoint(PipelineStage::ModelRepair, out.solver_point.clone());
            if concludes(out.status) {
                out.verified_by_simulation = out.model.as_ref().and_then(&cross_check);
                return Ok(TmlOutcome::ModelRepaired { outcome: out });
            }
            diag.absorb(&out.diagnostics);
        }

        // 4. Data Repair.
        let mut data_repair_status = None;
        if self.data_repair {
            let _s = span!("pipeline.data_repair");
            let mut repair = DataRepair::with_options(self.opts).with_budget(self.budget.clone());
            for (stage, x) in &self.warm_starts {
                if *stage == PipelineStage::DataRepair {
                    repair = repair.start_from(x.clone());
                }
            }
            let mut out = repair.repair(dataset, &self.spec, &self.formula)?;
            data_repair_status = Some(out.status);
            checkpoint(PipelineStage::DataRepair, out.solver_point.clone());
            if concludes(out.status) {
                out.verified_by_simulation = out.model.as_ref().and_then(&cross_check);
                return Ok(TmlOutcome::DataRepaired { outcome: out, model_repair_status });
            }
            diag.absorb(&out.diagnostics);
        }

        Ok(TmlOutcome::Unrepairable { model_repair_status, data_repair_status, diagnostics: diag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_logic::parse_formula;
    use tml_models::Path;

    /// good traces: 0→1 (goal); bad traces: 0→2 (sink).
    fn dataset(good: f64, bad: f64) -> TraceDataset {
        let mut ds = TraceDataset::new();
        let g = ds.add_class("good");
        let b = ds.add_class("bad");
        ds.push(g, Path::from_states(vec![0, 1, 1]), good).unwrap();
        ds.push(b, Path::from_states(vec![0, 2, 2]), bad).unwrap();
        ds
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(3).label(1, "goal")
    }

    fn shift_template() -> PerturbationTemplate {
        let mut t = PerturbationTemplate::new();
        let v = t.parameter("v", -0.3, 0.3);
        t.nudge(0, 1, v, 1.0).unwrap();
        t.nudge(0, 2, v, -1.0).unwrap();
        t
    }

    #[test]
    fn satisfied_immediately() {
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi).run(&dataset(8.0, 2.0)).unwrap();
        assert!(matches!(out, TmlOutcome::Satisfied { .. }));
        assert!(out.is_trusted());
    }

    #[test]
    fn model_repair_stage_fires() {
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi)
            .with_model_repair(shift_template())
            .run(&dataset(5.0, 5.0))
            .unwrap();
        match &out {
            TmlOutcome::ModelRepaired { outcome } => {
                assert_eq!(outcome.status, RepairStatus::Repaired);
                assert!(outcome.verified);
            }
            other => panic!("expected model repair, got {other:?}"),
        }
    }

    #[test]
    fn falls_through_to_data_repair() {
        // Template too weak (tiny box) → infeasible → data repair succeeds.
        let mut t = PerturbationTemplate::new();
        let v = t.parameter("v", -0.01, 0.01);
        t.nudge(0, 1, v, 1.0).unwrap();
        t.nudge(0, 2, v, -1.0).unwrap();
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi)
            .with_model_repair(t)
            .with_data_repair()
            .run(&dataset(5.0, 5.0))
            .unwrap();
        match &out {
            TmlOutcome::DataRepaired { outcome, model_repair_status } => {
                assert_eq!(*model_repair_status, Some(RepairStatus::Infeasible));
                assert_eq!(outcome.status, RepairStatus::Repaired);
            }
            other => panic!("expected data repair, got {other:?}"),
        }
    }

    #[test]
    fn unrepairable_when_everything_fails() {
        let mut t = PerturbationTemplate::new();
        let v = t.parameter("v", -0.01, 0.01);
        t.nudge(0, 1, v, 1.0).unwrap();
        t.nudge(0, 2, v, -1.0).unwrap();
        // An impossible bound: even pure "good" data gives P = 1, but we
        // ask for F within ZERO mass on bad... use min_keep default with
        // overwhelming bad data and a harsh bound.
        let phi = parse_formula("P>=0.9999 [ F \"goal\" ]").unwrap();
        let out =
            TmlPipeline::new(spec(), phi).with_model_repair(t).run(&dataset(1.0, 99.0)).unwrap();
        match out {
            TmlOutcome::Unrepairable { model_repair_status, data_repair_status, .. } => {
                assert_eq!(model_repair_status, Some(RepairStatus::Infeasible));
                assert_eq!(data_repair_status, None); // not configured
            }
            other => panic!("expected unrepairable, got {other:?}"),
        }
        assert!(!TmlOutcome::Unrepairable {
            model_repair_status: None,
            data_repair_status: None,
            diagnostics: Diagnostics::new(),
        }
        .is_trusted());
    }

    #[test]
    fn exhausted_budget_concludes_best_effort() {
        // A zero evaluation budget: every stage stops immediately, the
        // pipeline still returns an outcome (no error, no hang) with the
        // exhaustion recorded in the aggregated diagnostics.
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi)
            .with_model_repair(shift_template())
            .with_data_repair()
            .with_budget(Budget::unlimited().with_max_evaluations(0))
            .run(&dataset(5.0, 5.0))
            .unwrap();
        match &out {
            TmlOutcome::Unrepairable { model_repair_status, data_repair_status, .. } => {
                assert_eq!(*model_repair_status, Some(RepairStatus::BudgetExhausted));
                assert_eq!(*data_repair_status, Some(RepairStatus::BudgetExhausted));
            }
            other => panic!("expected best-effort unrepairable, got {other:?}"),
        }
        assert!(out.degraded());
        assert!(out.diagnostics().exhausted.is_some());
    }

    #[test]
    fn simulation_cross_check_is_recorded_on_every_concluding_stage() {
        // A deterministic stand-in hook: "re-verify" by checking the
        // property holds in the model with a fresh checker.
        let hook: SimulationCrossCheck = Arc::new(|model: &Dtmc, phi: &StateFormula| {
            Checker::new().check_dtmc(model, phi).ok().map(|r| r.holds())
        });

        // Satisfied immediately.
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi.clone())
            .with_simulation_cross_check(hook.clone())
            .run(&dataset(8.0, 2.0))
            .unwrap();
        assert!(matches!(out, TmlOutcome::Satisfied { .. }));
        assert_eq!(out.verified_by_simulation(), Some(true));

        // Model repair concludes.
        let out = TmlPipeline::new(spec(), phi.clone())
            .with_model_repair(shift_template())
            .with_simulation_cross_check(hook.clone())
            .run(&dataset(5.0, 5.0))
            .unwrap();
        assert!(matches!(out, TmlOutcome::ModelRepaired { .. }));
        assert_eq!(out.verified_by_simulation(), Some(true));

        // Data repair concludes.
        let out = TmlPipeline::new(spec(), phi.clone())
            .with_data_repair()
            .with_simulation_cross_check(hook)
            .run(&dataset(5.0, 5.0))
            .unwrap();
        assert!(matches!(out, TmlOutcome::DataRepaired { .. }));
        assert_eq!(out.verified_by_simulation(), Some(true));

        // Without a hook, the field stays unset.
        let out = TmlPipeline::new(spec(), phi).run(&dataset(8.0, 2.0)).unwrap();
        assert_eq!(out.verified_by_simulation(), None);
    }

    #[test]
    fn checkpoints_fire_in_stage_order_with_solver_state() {
        use std::sync::Mutex;
        type Seen = Vec<(PipelineStage, Option<Vec<f64>>)>;
        let seen: Arc<Mutex<Seen>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let hook: CheckpointHook = Arc::new(move |cp: &PipelineCheckpoint| {
            sink.lock().unwrap().push((cp.stage, cp.solver_point.clone()));
        });
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi)
            .with_model_repair(shift_template())
            .with_checkpoint_hook(hook)
            .run(&dataset(5.0, 5.0))
            .unwrap();
        assert!(matches!(out, TmlOutcome::ModelRepaired { .. }));
        let seen = seen.lock().unwrap();
        let stages: Vec<PipelineStage> = seen.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            stages,
            vec![PipelineStage::Learn, PipelineStage::Verify, PipelineStage::ModelRepair]
        );
        let point = seen[2].1.as_ref().expect("model repair checkpoints its solver point");
        assert_eq!(point.len(), 1, "one template parameter");
    }

    #[test]
    fn warm_start_reproduces_the_checkpointed_answer() {
        // Run once, harvest the checkpointed solver point, then re-run with
        // it as a warm start: same verified conclusion.
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let first = TmlPipeline::new(spec(), phi.clone())
            .with_model_repair(shift_template())
            .run(&dataset(5.0, 5.0))
            .unwrap();
        let point = match &first {
            TmlOutcome::ModelRepaired { outcome } => outcome.solver_point.clone().unwrap(),
            other => panic!("expected model repair, got {other:?}"),
        };
        let second = TmlPipeline::new(spec(), phi)
            .with_model_repair(shift_template())
            .with_warm_start(PipelineStage::ModelRepair, point)
            .run(&dataset(5.0, 5.0))
            .unwrap();
        match &second {
            TmlOutcome::ModelRepaired { outcome } => assert!(outcome.verified),
            other => panic!("expected model repair, got {other:?}"),
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in [
            PipelineStage::Learn,
            PipelineStage::Verify,
            PipelineStage::ModelRepair,
            PipelineStage::DataRepair,
        ] {
            assert_eq!(PipelineStage::parse(stage.name()), Some(stage));
        }
        assert_eq!(PipelineStage::parse("nope"), None);
    }

    #[test]
    fn generous_budget_does_not_change_the_answer() {
        let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
        let out = TmlPipeline::new(spec(), phi)
            .with_model_repair(shift_template())
            .with_budget(Budget::unlimited().with_max_evaluations(1_000_000))
            .run(&dataset(5.0, 5.0))
            .unwrap();
        match &out {
            TmlOutcome::ModelRepaired { outcome } => {
                assert_eq!(outcome.status, RepairStatus::Repaired);
                assert!(outcome.verified);
            }
            other => panic!("expected model repair, got {other:?}"),
        }
        assert!(out.diagnostics().exhausted.is_none());
    }
}
