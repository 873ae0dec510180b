//! The differential oracle harness: engine pairs, seed sweeps, and
//! automatic shrinking of disagreeing models.
//!
//! Every *engine pair* computes the same quantity two independent ways and
//! compares within a tolerance:
//!
//! | pair | left engine | right engine |
//! |------|-------------|--------------|
//! | `dense-vs-gs` | dense LU solve | Gauss–Seidel iteration |
//! | `tape-vs-interp` | compiled rational-function tapes | interpreted evaluation |
//! | `tape-vs-instantiate` | compiled tapes | instantiate + concrete checker |
//! | `checker-vs-sim` | bounded-until checker | Monte Carlo confidence interval |
//! | `repair-recheck` | model repair verdict | simulation of the repaired model |
//! | `scc-vs-dense` | SCC-decomposed block solve | dense LU solve |
//! | `interval-contains-direct` | interval-iteration bounds | dense LU (must lie inside) |
//! | `lifting-vs-penalty` | parameter-lifting repair (checker re-verified) | penalty repair (cost never better by more than ε) |
//! | `interval-bound-contains-point` | interval bound over a parameter box | exact tape evaluation at points inside (must lie inside) |
//! | `robust-contains-nominal` | robust VI bracket on the Wilson ball | dense LU on the nominal chain (must lie inside) |
//! | `robust-vs-sampled` | robust VI bracket on the Wilson ball | dense LU on sampled members of the ball (must lie inside) |
//! | `compiled-vs-instantiate` | the repair oracle's compiled reach system | instantiate + concrete checker (must be bitwise equal) |
//! | `compiled-data-vs-relearn` | the data repair oracle's trace-count table and compiled reach | relearn + concrete checker (must be bitwise equal) |
//!
//! On disagreement the harness *shrinks* the model while the pair still
//! disagrees — halving the state space (out-of-range transitions are
//! redirected to a fresh absorbing goal) and dropping low-probability
//! edges — so the report points at a minimal reproducer instead of the
//! original haystack. The `--inject` debug flag biases one engine
//! conditioned on model size, which exercises exactly this machinery:
//! the shrinker must converge to the smallest model above the bias
//! threshold.

use tml_checker::dtmc as checker_dtmc;
use tml_checker::{Budget, CheckOptions, Checker, LinearSolver};
use tml_logic::{CmpOp, PathFormula, Query, StateFormula};
use tml_models::{Dtmc, DtmcBuilder, IntervalDtmc, Path, TraceCounts, TraceDataset};
use tml_parametric::CompiledRatFn;
use tml_telemetry::{counter, span};

use crate::gen::{self, ModelFamily, GOAL_LABEL};
use crate::sim::{SimOptions, Simulator};
use crate::stats::{hoeffding_half_width, Verdict};
use tml_core::{
    CompiledOracle, ModelRepair, ModelSpec, PerturbationTemplate, RepairOptions, RepairStatus,
    RepairStrategy,
};

/// A deliberate fault for validating the harness end-to-end: one engine's
/// output is biased, *conditioned on model size*, so a correct shrinker
/// must converge to the smallest model at or above the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Bias fires only when the model has at least this many states.
    pub min_states: usize,
    /// Additive bias applied to the Gauss–Seidel engine's answer.
    pub bias: f64,
}

impl Default for Injection {
    fn default() -> Self {
        Injection { min_states: 9, bias: 1e-3 }
    }
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleOptions {
    /// Trajectories for the simulation pairs.
    pub trajectories: u64,
    /// `α` for simulation confidence intervals (small: a CI miss is a bug).
    pub alpha: f64,
    /// Numeric agreement tolerance between exact engines.
    pub tolerance: f64,
    /// Whether to shrink disagreeing models.
    pub shrink: bool,
    /// Optional injected fault (debug).
    pub inject: Option<Injection>,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            trajectories: 20_000,
            alpha: 1e-9,
            tolerance: 1e-6,
            shrink: true,
            inject: None,
        }
    }
}

/// The engine pairs the oracle exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePair {
    /// Dense LU vs Gauss–Seidel on unbounded reachability.
    DenseVsGaussSeidel,
    /// Compiled tapes vs interpreted rational functions, all states.
    TapeVsInterpreted,
    /// Compiled tapes vs instantiate-then-check at the initial state.
    TapeVsInstantiated,
    /// Bounded-until checker value vs Monte Carlo confidence interval.
    CheckerVsSimulation,
    /// Model repair outcome re-verified by independent simulation.
    RepairRecheck,
    /// SCC-decomposed block solve vs dense LU on unbounded reachability.
    SccVsDense,
    /// Interval-iteration bounds must contain the dense LU value at every
    /// state (a containment check, not a distance check).
    IntervalContainsDirect,
    /// Parameter-lifting repair vs penalty repair on the same job: the
    /// lifting repair must re-verify under the concrete checker and its
    /// cost must never exceed the penalty repair's by more than ε.
    LiftingVsPenalty,
    /// Interval bounds of every compiled constraint over random parameter
    /// sub-boxes must contain the exact tape evaluation at random points
    /// inside them (the soundness invariant region pruning rests on).
    IntervalBoundContainsPoint,
    /// Robust value iteration on the Wilson ball around the model: the
    /// `[pessimistic, optimistic]` bracket must contain the dense LU value
    /// of the nominal chain at every state (the ball keeps the point
    /// estimate as a member by construction).
    RobustContainsNominal,
    /// Robust bracket vs sampled members: concrete chains drawn inside the
    /// uncertainty ball, solved exactly, must land inside the bracket.
    RobustVsSampled,
    /// The repair oracle's compiled reach system vs instantiate-and-check,
    /// on a random cancelling affine template at points inside its box
    /// and on its faces: the values must be bitwise equal (`NaN` where the
    /// candidate cannot be instantiated).
    CompiledVsInstantiate,
    /// The data repair oracle compiled once per dataset (trace-count table
    /// plus compiled reach) vs relearn-and-check, on a dataset sampled
    /// from the model at interior, `min_keep` and zero keep-weights: the
    /// values must be bitwise equal (`NaN` where the chain cannot be
    /// learned), and every candidate whose learned support differs from
    /// the base chain's must have been deferred.
    CompiledDataVsRelearn,
}

impl EnginePair {
    /// All pairs in reporting order.
    pub fn all() -> &'static [EnginePair] {
        &[
            EnginePair::DenseVsGaussSeidel,
            EnginePair::TapeVsInterpreted,
            EnginePair::TapeVsInstantiated,
            EnginePair::CheckerVsSimulation,
            EnginePair::RepairRecheck,
            EnginePair::SccVsDense,
            EnginePair::IntervalContainsDirect,
            EnginePair::LiftingVsPenalty,
            EnginePair::IntervalBoundContainsPoint,
            EnginePair::RobustContainsNominal,
            EnginePair::RobustVsSampled,
            EnginePair::CompiledVsInstantiate,
            EnginePair::CompiledDataVsRelearn,
        ]
    }

    /// Stable kebab-case identifier (used in reports and CLI filters).
    pub fn name(self) -> &'static str {
        match self {
            EnginePair::DenseVsGaussSeidel => "dense-vs-gs",
            EnginePair::TapeVsInterpreted => "tape-vs-interp",
            EnginePair::TapeVsInstantiated => "tape-vs-instantiate",
            EnginePair::CheckerVsSimulation => "checker-vs-sim",
            EnginePair::RepairRecheck => "repair-recheck",
            EnginePair::SccVsDense => "scc-vs-dense",
            EnginePair::IntervalContainsDirect => "interval-contains-direct",
            EnginePair::LiftingVsPenalty => "lifting-vs-penalty",
            EnginePair::IntervalBoundContainsPoint => "interval-bound-contains-point",
            EnginePair::RobustContainsNominal => "robust-contains-nominal",
            EnginePair::RobustVsSampled => "robust-vs-sampled",
            EnginePair::CompiledVsInstantiate => "compiled-vs-instantiate",
            EnginePair::CompiledDataVsRelearn => "compiled-data-vs-relearn",
        }
    }

    /// Parses the output of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<EnginePair> {
        EnginePair::all().iter().copied().find(|p| p.name() == name)
    }
}

/// One agreement check that ran (pass or fail).
#[derive(Debug, Clone)]
pub struct CheckRecord {
    /// Which engine pair.
    pub pair: EnginePair,
    /// Which model family (None for parametric-only pairs).
    pub family: Option<ModelFamily>,
    /// The generating seed.
    pub seed: u64,
    /// Whether the engines agreed.
    pub agreed: bool,
    /// Human-readable context (values compared, sizes, skips).
    pub detail: String,
}

/// The minimal reproducer the shrinker converged to.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// States of the minimal failing model.
    pub num_states: usize,
    /// Edges of the minimal failing model.
    pub num_edges: usize,
    /// The disagreement magnitude on the minimal model.
    pub delta: f64,
}

/// A confirmed engine disagreement.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which engine pair disagreed.
    pub pair: EnginePair,
    /// Which family produced the model (None for parametric pairs).
    pub family: Option<ModelFamily>,
    /// The generating seed (reproduce with `--seeds S..S+1`).
    pub seed: u64,
    /// States of the original disagreeing model.
    pub num_states: usize,
    /// Left engine's value.
    pub lhs: f64,
    /// Right engine's value.
    pub rhs: f64,
    /// `|lhs − rhs|` (or distance to the CI for simulation pairs).
    pub delta: f64,
    /// Human-readable context.
    pub detail: String,
    /// Minimal reproducer, when shrinking was enabled and made progress.
    pub shrunk: Option<Shrunk>,
}

/// Everything the oracle learned from one seed.
#[derive(Debug, Clone, Default)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Every check that ran.
    pub checks: Vec<CheckRecord>,
    /// Every confirmed disagreement.
    pub disagreements: Vec<Disagreement>,
}

/// The numeric outcome of running one engine pair on one model: engine
/// values plus the disagreement magnitude (`None` = agreement).
type PairEval = Option<(f64, f64, f64)>;

/// The differential oracle.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    opts: OracleOptions,
}

impl Oracle {
    /// An oracle with the given options.
    pub fn new(opts: OracleOptions) -> Self {
        Oracle { opts }
    }

    /// The configured options.
    pub fn options(&self) -> &OracleOptions {
        &self.opts
    }

    /// Runs every engine pair for one seed across the selected families.
    pub fn run_seed(&self, seed: u64, families: &[ModelFamily]) -> SeedOutcome {
        let _span = span!("oracle.seed", seed = seed);
        let mut out = SeedOutcome { seed, ..Default::default() };
        for &family in families {
            let model = family.generate(seed);
            self.run_pair_on_model(EnginePair::DenseVsGaussSeidel, family, seed, &model, &mut out);
            self.run_pair_on_model(EnginePair::CheckerVsSimulation, family, seed, &model, &mut out);
            self.run_pair_on_model(EnginePair::RepairRecheck, family, seed, &model, &mut out);
            self.run_pair_on_model(EnginePair::SccVsDense, family, seed, &model, &mut out);
            self.run_pair_on_model(
                EnginePair::IntervalContainsDirect,
                family,
                seed,
                &model,
                &mut out,
            );
            self.run_pair_on_model(EnginePair::LiftingVsPenalty, family, seed, &model, &mut out);
            self.run_pair_on_model(
                EnginePair::RobustContainsNominal,
                family,
                seed,
                &model,
                &mut out,
            );
            self.run_pair_on_model(EnginePair::RobustVsSampled, family, seed, &model, &mut out);
            self.run_pair_on_model(
                EnginePair::CompiledDataVsRelearn,
                family,
                seed,
                &model,
                &mut out,
            );
        }
        self.run_parametric_pairs(seed, &mut out);
        let n = 7 + (seed as usize % 5) * 3;
        let (eval, _) = compiled_vs_instantiate(seed, n);
        self.record_parametric(EnginePair::CompiledVsInstantiate, seed, n, eval, &mut out);
        counter!("oracle.diff.seeds", 1);
        out
    }

    /// Evaluates one model-based pair, recording the check and (after
    /// shrinking) any disagreement.
    fn run_pair_on_model(
        &self,
        pair: EnginePair,
        family: ModelFamily,
        seed: u64,
        model: &Dtmc,
        out: &mut SeedOutcome,
    ) {
        let eval = |d: &Dtmc| -> PairEval {
            match pair {
                EnginePair::DenseVsGaussSeidel => self.eval_dense_vs_gs(d),
                EnginePair::CheckerVsSimulation => self.eval_checker_vs_sim(d, seed),
                EnginePair::RepairRecheck => self.eval_repair_recheck(d, seed),
                EnginePair::SccVsDense => self.eval_scc_vs_dense(d),
                EnginePair::IntervalContainsDirect => self.eval_interval_contains_direct(d),
                EnginePair::LiftingVsPenalty => self.eval_lifting_vs_penalty(d),
                EnginePair::RobustContainsNominal => self.eval_robust_contains_nominal(d),
                EnginePair::RobustVsSampled => self.eval_robust_vs_sampled(d, seed),
                EnginePair::CompiledDataVsRelearn => compiled_data_vs_relearn(d, seed).0,
                _ => None,
            }
        };
        match eval(model) {
            None => out.checks.push(CheckRecord {
                pair,
                family: Some(family),
                seed,
                agreed: true,
                detail: format!("{} states agree", model.num_states()),
            }),
            Some((lhs, rhs, delta)) => {
                counter!("oracle.diff.disagreements", 1);
                let shrunk = if self.opts.shrink {
                    let minimal = shrink_model(model, &|d| eval(d).is_some());
                    eval(&minimal).map(|(_, _, d)| Shrunk {
                        num_states: minimal.num_states(),
                        num_edges: count_edges(&minimal),
                        delta: d,
                    })
                } else {
                    None
                };
                out.checks.push(CheckRecord {
                    pair,
                    family: Some(family),
                    seed,
                    agreed: false,
                    detail: format!("lhs={lhs} rhs={rhs}"),
                });
                out.disagreements.push(Disagreement {
                    pair,
                    family: Some(family),
                    seed,
                    num_states: model.num_states(),
                    lhs,
                    rhs,
                    delta,
                    detail: format!(
                        "{} on family {} seed {seed}: |{lhs} - {rhs}| = {delta}",
                        pair.name(),
                        family.name()
                    ),
                    shrunk,
                });
            }
        }
    }

    /// Dense LU vs Gauss–Seidel on `P(F goal)` from the initial state.
    fn eval_dense_vs_gs(&self, d: &Dtmc) -> PairEval {
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; d.num_states()];
        let lhs = self.direct_value(d, &phi, &target)?;
        let gs = CheckOptions {
            solver: LinearSolver::GaussSeidel,
            tolerance: 1e-12,
            max_iterations: 2_000_000,
            ..CheckOptions::default()
        };
        let mut rhs = checker_dtmc::until_probabilities(d, &phi, &target, &gs)
            .ok()
            .map(|v| v[d.initial_state()])?;
        if let Some(inj) = self.opts.inject {
            if d.num_states() >= inj.min_states {
                rhs += inj.bias;
            }
        }
        disagreement(lhs, rhs, self.opts.tolerance)
    }

    /// SCC-decomposed block solve vs dense LU on `P(F goal)` from the
    /// initial state.
    fn eval_scc_vs_dense(&self, d: &Dtmc) -> PairEval {
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; d.num_states()];
        let lhs = self.direct_value(d, &phi, &target)?;
        let scc = CheckOptions {
            solver: LinearSolver::Scc,
            tolerance: 1e-12,
            max_iterations: 2_000_000,
            ..CheckOptions::default()
        };
        let rhs = checker_dtmc::until_probabilities(d, &phi, &target, &scc)
            .ok()
            .map(|v| v[d.initial_state()])?;
        disagreement(lhs, rhs, self.opts.tolerance)
    }

    /// Interval-iteration bounds vs dense LU: the dense value must lie
    /// inside `[lo, hi]` at *every* state — a soundness (containment)
    /// property, stronger than pointwise closeness.
    fn eval_interval_contains_direct(&self, d: &Dtmc) -> PairEval {
        let n = d.num_states();
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; n];
        let direct = CheckOptions {
            solver: LinearSolver::Direct,
            direct_solver_limit: usize::MAX,
            ..CheckOptions::default()
        };
        let exact = checker_dtmc::until_probabilities(d, &phi, &target, &direct).ok()?;
        let opts = CheckOptions { max_iterations: 2_000_000, ..CheckOptions::default() };
        let (lo, hi, _) =
            checker_dtmc::until_probabilities_bounds(d, &phi, &target, &opts, &Budget::unlimited())
                .ok()?;
        // Direct LU carries its own rounding error, so containment is
        // checked with a hair of slack rather than exactly.
        const SLACK: f64 = 1e-9;
        for s in 0..n {
            if exact[s] < lo[s] - SLACK {
                return Some((exact[s], lo[s], lo[s] - exact[s]));
            }
            if exact[s] > hi[s] + SLACK {
                return Some((exact[s], hi[s], exact[s] - hi[s]));
            }
        }
        None
    }

    /// Bounded-until checker value vs a Monte Carlo confidence interval.
    /// The bounded horizon makes the simulation estimate unbiased (no
    /// truncation), so at `α = 1e-9` an exact value outside the CI is
    /// evidence of a bug, not noise.
    fn eval_checker_vs_sim(&self, d: &Dtmc, seed: u64) -> PairEval {
        let n = d.num_states();
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; n];
        let k = (4 * n) as u64;
        let exact =
            checker_dtmc::bounded_until_probabilities(d, &phi, &target, k)[d.initial_state()];
        let sim = Simulator::new(SimOptions {
            trajectories: self.opts.trajectories,
            alpha: self.opts.alpha,
            seed: seed ^ 0x5151_5151,
            ..SimOptions::default()
        });
        let path = PathFormula::Eventually {
            sub: Box::new(StateFormula::Atom(GOAL_LABEL.to_owned())),
            bound: Some(k),
        };
        let est = sim.path_probability(d, &path).ok()?;
        // The Wilson interval is what users see, but its normal
        // approximation under-covers near p = 0 or 1 (one miss in 20 000
        // trajectories puts the upper limit *below* an exact value of
        // 1 − 1e-6). The oracle must not flag statistical bad luck as an
        // engine bug, so the acceptance region is the union of Wilson and
        // the distribution-free Hoeffding band, whose coverage is a hard
        // finite-sample guarantee at the configured alpha.
        let hw = hoeffding_half_width(est.trajectories, self.opts.alpha);
        let low = est.interval.low.min(est.interval.estimate - hw);
        let high = est.interval.high.max(est.interval.estimate + hw);
        if exact < low - 1e-12 || exact > high + 1e-12 {
            let delta = if exact < low { low - exact } else { exact - high };
            Some((exact, est.interval.estimate, delta))
        } else {
            None
        }
    }

    /// Repairs the model toward a tightened reachability bound and
    /// re-verifies the repaired chain by independent simulation: a repair
    /// the checker calls verified must never be *refuted* by simulation.
    fn eval_repair_recheck(&self, d: &Dtmc, seed: u64) -> PairEval {
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; d.num_states()];
        let current = self.direct_value(d, &phi, &target)?;
        // Ask for a little more than the model delivers so repair is
        // non-trivial but feasible for mass-shifting templates.
        let bound = (current + 0.02).min(0.999);
        if bound <= current {
            return None; // already at the ceiling; nothing to repair
        }
        let template = mass_shift_template(d, &phi, &target)?;
        let formula = StateFormula::Prob {
            opt: None,
            op: CmpOp::Ge,
            bound,
            path: PathFormula::Eventually {
                sub: Box::new(StateFormula::Atom(GOAL_LABEL.to_owned())),
                bound: None,
            },
        };
        let outcome = ModelRepair::new().repair_dtmc(d, &formula, &template).ok()?;
        if outcome.status != RepairStatus::Repaired || !outcome.verified {
            return None; // infeasible/budget cases are not engine disagreements
        }
        let repaired = outcome.model.as_ref()?;
        let sim = Simulator::new(SimOptions {
            trajectories: self.opts.trajectories,
            alpha: self.opts.alpha,
            seed: seed ^ 0xC0C0_C0C0,
            ..SimOptions::default()
        });
        let check = sim.check_formula(repaired, &formula).ok()?;
        if check.verdict() == Verdict::Refuted {
            let iv = check.interval();
            let delta = if iv.high < bound { bound - iv.high } else { iv.low - bound };
            Some((bound, iv.estimate, delta))
        } else {
            None
        }
    }

    /// Runs the same repair job under both search strategies. Soundness
    /// demands (a) a lifting repair re-verifies under an independent dense
    /// solve, and (b) whenever the penalty search finds a verified repair,
    /// lifting must not prune it away — it must repair too, at a cost no
    /// worse than the certificate tolerance ε.
    fn eval_lifting_vs_penalty(&self, d: &Dtmc) -> PairEval {
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; d.num_states()];
        let current = self.direct_value(d, &phi, &target)?;
        let bound = (current + 0.02).min(0.999);
        if bound <= current {
            return None; // already at the ceiling; nothing to repair
        }
        let template = mass_shift_template(d, &phi, &target)?;
        let formula = StateFormula::Prob {
            opt: None,
            op: CmpOp::Ge,
            bound,
            path: PathFormula::Eventually {
                sub: Box::new(StateFormula::Atom(GOAL_LABEL.to_owned())),
                bound: None,
            },
        };
        let penalty = ModelRepair::new().repair_dtmc(d, &formula, &template).ok()?;
        let opts = RepairOptions { strategy: RepairStrategy::Lifting, ..RepairOptions::default() };
        let lifting = ModelRepair::with_options(opts).repair_dtmc(d, &formula, &template).ok()?;
        // (a) independent re-check of the lifting repair.
        if lifting.status == RepairStatus::Repaired && lifting.verified {
            let m = lifting.model.as_ref()?;
            let val = self.direct_value(m, &phi, &m.labeling().mask(GOAL_LABEL))?;
            if val < bound - 1e-6 {
                return Some((val, bound, bound - val));
            }
        }
        // (b) lifting never worse than penalty by more than ε.
        if penalty.status == RepairStatus::Repaired && penalty.verified {
            if lifting.status != RepairStatus::Repaired {
                // The region pruner discarded a feasible repair: unsound.
                return Some((f64::INFINITY, penalty.cost, f64::INFINITY));
            }
            let eps = opts.lifting.epsilon;
            if lifting.cost > penalty.cost + eps {
                return Some((lifting.cost, penalty.cost, lifting.cost - penalty.cost));
            }
        }
        None
    }

    /// Robust VI bracket on the Wilson ball vs dense LU on the nominal
    /// chain: the point estimate is a member of the ball by construction,
    /// so `pessimistic ≤ nominal ≤ optimistic` must hold at every state.
    /// Under `--inject` the pessimistic endpoint is flipped upward by the
    /// bias (an unsound narrowing), which this containment check must
    /// catch.
    fn eval_robust_contains_nominal(&self, d: &Dtmc) -> PairEval {
        let target = d.labeling().mask(GOAL_LABEL);
        let phi = vec![true; d.num_states()];
        let direct = CheckOptions {
            solver: LinearSolver::Direct,
            direct_solver_limit: usize::MAX,
            ..CheckOptions::default()
        };
        let exact = checker_dtmc::until_probabilities(d, &phi, &target, &direct).ok()?;
        let ball = IntervalDtmc::wilson_around(d, 0.95, 200.0).ok()?;
        let bracket = Checker::new().query(&ball, &reach_query()).ok()?.0;
        // Robust VI converges to the checker tolerance; give the
        // containment a matching hair of slack.
        const SLACK: f64 = 1e-7;
        for (s, &point) in exact.iter().enumerate() {
            let (mut lo, hi) = bracket.at(s);
            if let Some(inj) = self.opts.inject {
                if d.num_states() >= inj.min_states {
                    // Deliberately unsound endpoint flip (self-test).
                    lo += inj.bias;
                }
            }
            if point < lo - SLACK {
                return Some((point, lo, lo - point));
            }
            if point > hi + SLACK {
                return Some((point, hi, point - hi));
            }
        }
        None
    }

    /// Robust bracket vs sampled members of the ball: each sampled chain
    /// lies inside the uncertainty set, so its exact dense-LU reachability
    /// value must land inside the robust `[pessimistic, optimistic]`
    /// bracket at the initial state.
    fn eval_robust_vs_sampled(&self, d: &Dtmc, seed: u64) -> PairEval {
        let ball = IntervalDtmc::wilson_around(d, 0.9, 150.0).ok()?;
        let bracket = Checker::new().query(&ball, &reach_query()).ok()?.0;
        let (lo, hi) = bracket.at(d.initial_state());
        const SLACK: f64 = 1e-7;
        for i in 0..4u64 {
            let member = ball.sample_member(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).ok()?;
            let target = member.labeling().mask(GOAL_LABEL);
            let phi = vec![true; member.num_states()];
            let v = self.direct_value(&member, &phi, &target)?;
            if v < lo - SLACK {
                return Some((v, lo, lo - v));
            }
            if v > hi + SLACK {
                return Some((v, hi, v - hi));
            }
        }
        None
    }

    /// Compiled tapes vs interpreted evaluation vs instantiate-and-check on
    /// a generated parametric DTMC.
    fn run_parametric_pairs(&self, seed: u64, out: &mut SeedOutcome) {
        let n = 6 + (seed as usize % 5) * 2;
        let nparams = 1 + (seed as usize % 3);
        let generated = gen::parametric_dtmc(seed, n, nparams);
        let target: Vec<bool> = {
            // The parametric builder has no labeling; goal is the last state.
            let mut m = vec![false; generated.pdtmc.num_states()];
            m[generated.pdtmc.num_states() - 1] = true;
            m
        };
        let Ok(fns) = generated.pdtmc.reachability(&target) else {
            out.checks.push(CheckRecord {
                pair: EnginePair::TapeVsInterpreted,
                family: None,
                seed,
                agreed: true,
                detail: "state elimination failed; skipped".to_owned(),
            });
            return;
        };
        let tapes: Vec<CompiledRatFn> = fns.iter().map(CompiledRatFn::compile).collect();
        let points: Vec<Vec<f64>> = [0.0, 0.5, 1.0].iter().map(|&f| generated.point(f)).collect();

        // Pair: tapes vs interpreted, every state, every point.
        let mut worst: PairEval = None;
        'outer: for point in &points {
            for (rf, tape) in fns.iter().zip(&tapes) {
                let (Ok(interp), Ok(compiled)) = (rf.eval(point), tape.eval(point)) else {
                    continue;
                };
                if let Some(found) = disagreement(compiled, interp, 1e-9) {
                    worst = Some(found);
                    break 'outer;
                }
            }
        }
        self.record_parametric(EnginePair::TapeVsInterpreted, seed, n, worst, out);

        // Pair: tapes vs instantiate + concrete checker, initial state.
        let mut worst: PairEval = None;
        for point in &points {
            let Ok(tape_val) = tapes[generated.pdtmc.initial_state()].eval(point) else {
                continue;
            };
            let Ok(inst) = generated.pdtmc.instantiate(point) else { continue };
            let phi = vec![true; inst.num_states()];
            let Some(checked) = self.direct_value(&inst, &phi, &target) else { continue };
            if let Some(found) = disagreement(tape_val, checked, self.opts.tolerance) {
                worst = Some(found);
                break;
            }
        }
        self.record_parametric(EnginePair::TapeVsInstantiated, seed, n, worst, out);

        // Pair: the interval bound of every compiled tape over a random
        // sub-box must contain the exact tape value at random points inside
        // it — the soundness invariant all region pruning rests on. Under
        // `--inject` the bound is deliberately narrowed by the bias, which
        // the containment check must catch.
        let mut worst: PairEval = None;
        let mut frac = unit_stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1BAD_B002);
        const SLACK: f64 = 1e-9;
        'boxes: for round in 0..3 {
            // Round 0 uses a degenerate (point) box: its bound collapses to
            // the exact value, the sharpest containment test there is.
            let bbox: Vec<(f64, f64)> = generated
                .lo
                .iter()
                .zip(&generated.hi)
                .map(|(&l, &h)| {
                    let (a, b) = if round == 0 {
                        let a = frac();
                        (a, a)
                    } else {
                        let (a, b) = (frac(), frac());
                        (a.min(b), a.max(b))
                    };
                    (l + a * (h - l), l + b * (h - l))
                })
                .collect();
            for _ in 0..3 {
                let point: Vec<f64> = bbox.iter().map(|&(l, h)| l + frac() * (h - l)).collect();
                for tape in &tapes {
                    let Ok(bound) = tape.bound(&bbox) else { continue };
                    let Ok(val) = tape.eval(&point) else { continue };
                    let (mut lo_b, mut hi_b) = (bound.lo, bound.hi);
                    if let Some(inj) = self.opts.inject {
                        if n >= inj.min_states {
                            // Deliberately unsound narrowing (self-test).
                            lo_b += inj.bias;
                            hi_b -= inj.bias;
                        }
                    }
                    if val < lo_b - SLACK {
                        worst = Some((val, lo_b, lo_b - val));
                        break 'boxes;
                    }
                    if val > hi_b + SLACK {
                        worst = Some((val, hi_b, val - hi_b));
                        break 'boxes;
                    }
                }
            }
        }
        self.record_parametric(EnginePair::IntervalBoundContainsPoint, seed, n, worst, out);
    }

    fn record_parametric(
        &self,
        pair: EnginePair,
        seed: u64,
        n: usize,
        eval: PairEval,
        out: &mut SeedOutcome,
    ) {
        match eval {
            None => out.checks.push(CheckRecord {
                pair,
                family: None,
                seed,
                agreed: true,
                detail: format!("{n} states agree"),
            }),
            Some((lhs, rhs, delta)) => {
                counter!("oracle.diff.disagreements", 1);
                out.checks.push(CheckRecord {
                    pair,
                    family: None,
                    seed,
                    agreed: false,
                    detail: format!("lhs={lhs} rhs={rhs}"),
                });
                out.disagreements.push(Disagreement {
                    pair,
                    family: None,
                    seed,
                    num_states: n,
                    lhs,
                    rhs,
                    delta,
                    detail: format!(
                        "{} on parametric seed {seed}: |{lhs} - {rhs}| = {delta}",
                        pair.name()
                    ),
                    shrunk: None, // parametric models shrink by regenerating smaller seeds
                });
            }
        }
    }

    /// The reference engine: dense LU via the checker's `Direct` solver.
    fn direct_value(&self, d: &Dtmc, phi: &[bool], target: &[bool]) -> Option<f64> {
        let direct = CheckOptions {
            solver: LinearSolver::Direct,
            direct_solver_limit: usize::MAX,
            ..CheckOptions::default()
        };
        checker_dtmc::until_probabilities(d, phi, target, &direct)
            .ok()
            .map(|v| v[d.initial_state()])
    }
}

/// The repair oracle compiled once per template vs instantiate-and-check
/// at every candidate point, for the compiled property shapes, under the
/// direct solver and under the SCC-first ladder. Also returns how many
/// values the compiled oracles answered and how many they deferred.
fn compiled_vs_instantiate(seed: u64, n: usize) -> (PairEval, (u64, u64)) {
    const FAILED: PairEval = Some((f64::NAN, f64::NAN, f64::INFINITY));
    let (chain, template) = repair_instance(seed, n);
    let Ok(pdtmc) = template.apply(&chain) else { return (FAILED, (0, 0)) };
    let points = box_points(seed, &template.bounds());
    let scc = CheckOptions { direct_solver_limit: 0, ..CheckOptions::default() };
    let mut counts = (0, 0);
    for phi in [
        "P>=0.5 [ F \"goal\" ]",
        "P>=0.5 [ \"safe\" U \"goal\" ]",
        "R{\"cost\"}<=10 [ F \"goal\" ]",
        "P>=0.5 [ F<=6 \"goal\" ]",
        "P>=0.5 [ \"safe\" U<=4 \"goal\" ]",
    ] {
        let phi = tml_logic::parse_formula(phi).expect("fixed formula");
        for opts in [CheckOptions::default(), scc] {
            let Some(oracle) =
                CompiledOracle::compile(&chain, &pdtmc, &phi, opts, Budget::unlimited())
            else {
                return (FAILED, counts);
            };
            let checker = Checker::with_options(opts);
            for point in &points {
                let compiled = oracle.value(point);
                let checked = pdtmc
                    .instantiate(point)
                    .ok()
                    .and_then(|m| checker.check(&m, &phi).ok())
                    .and_then(|r| r.value_at_initial())
                    .unwrap_or(f64::NAN);
                if compiled.to_bits() != checked.to_bits()
                    && !(compiled.is_nan() && checked.is_nan())
                {
                    let delta = (compiled - checked).abs();
                    let delta = if delta.is_nan() { f64::INFINITY } else { delta };
                    return (Some((compiled, checked, delta)), counts);
                }
            }
            let (c, d) = oracle.counts();
            counts = (counts.0 + c, counts.1 + d);
        }
    }
    (None, counts)
}

/// The data repair oracle compiled once per dataset vs relearn-and-check,
/// for bounded and unbounded `F` and `U`, under the direct solver and the
/// SCC-first ladder. The dataset is sampled from `model`; the points put
/// every class at an interior keep-weight, then each class in turn at the
/// `min_keep` floor and at 0. Also returns how many values the compiled
/// oracles answered and how many they deferred.
fn compiled_data_vs_relearn(model: &Dtmc, seed: u64) -> (PairEval, (u64, u64)) {
    const FAILED: PairEval = Some((f64::NAN, f64::NAN, f64::INFINITY));
    let (dataset, spec) = trace_dataset(model, seed);
    let Ok(base) = spec.learn(&dataset, None) else { return (FAILED, (0, 0)) };
    let Ok(table) = TraceCounts::new(&dataset, spec.num_states) else { return (FAILED, (0, 0)) };
    let table = std::sync::Arc::new(table);
    let support = |m: &Dtmc| -> Vec<(usize, usize)> {
        (0..m.num_states()).flat_map(|s| m.successors(s).map(move |(t, _)| (s, t))).collect()
    };
    let base_support = support(&base);
    let mut frac = unit_stream(seed ^ 0xDA7A_0000_0000_0002);
    let g = dataset.num_classes();
    let mut interior = || -> Vec<f64> { (0..g).map(|_| 1e-3 + frac() * (1.0 - 1e-3)).collect() };
    let mut points: Vec<Vec<f64>> = (0..2).map(|_| interior()).collect();
    for class in 0..g {
        for floor in [1e-3, 0.0] {
            let mut p = interior();
            p[class] = floor;
            points.push(p);
        }
    }
    let scc = CheckOptions { direct_solver_limit: 0, ..CheckOptions::default() };
    let mut counts = (0, 0);
    for phi in [
        "P>=0.5 [ F<=6 \"goal\" ]",
        "P>=0.5 [ \"safe\" U<=4 \"goal\" ]",
        "P>=0.5 [ F \"goal\" ]",
        "P>=0.5 [ \"safe\" U \"goal\" ]",
    ] {
        let phi = tml_logic::parse_formula(phi).expect("fixed formula");
        for opts in [CheckOptions::default(), scc] {
            let Some(oracle) =
                CompiledOracle::compile_data(table.clone(), &spec, &phi, opts, Budget::unlimited())
            else {
                return (FAILED, counts);
            };
            let checker = Checker::with_options(opts);
            for point in &points {
                let deferred = oracle.counts().1;
                let compiled = oracle.value(point);
                let relearned = spec.learn(&dataset, Some(point)).ok();
                let moved = relearned.as_ref().is_none_or(|m| support(m) != base_support);
                if moved && oracle.counts().1 == deferred {
                    // A candidate off the base support answered from it.
                    return (Some((compiled, f64::NAN, f64::INFINITY)), counts);
                }
                let checked = relearned
                    .and_then(|m| checker.check(&m, &phi).ok())
                    .and_then(|r| r.value_at_initial())
                    .unwrap_or(f64::NAN);
                if compiled.to_bits() != checked.to_bits()
                    && !(compiled.is_nan() && checked.is_nan())
                {
                    let delta = (compiled - checked).abs();
                    let delta = if delta.is_nan() { f64::INFINITY } else { delta };
                    return (Some((compiled, checked, delta)), counts);
                }
            }
            let (c, d) = oracle.counts();
            counts = (counts.0 + c, counts.1 + d);
        }
    }
    (None, counts)
}

/// A dataset of 32 paths sampled from `model` (at most 8 steps, stopping
/// at the goal) in three classes, `hit` and `miss` by whether the path
/// reached the goal and every fifth path `noise`; every seventh path has
/// weight 0, the rest a weight in `[0.5, 2)`. The spec labels the model's
/// goal states and, at random, most others `"safe"`.
fn trace_dataset(model: &Dtmc, seed: u64) -> (TraceDataset, ModelSpec) {
    use rand::SeedableRng;
    let n = model.num_states();
    let goal = model.labeling().mask(GOAL_LABEL);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xDA7A_5EED);
    let mut frac = unit_stream(seed ^ 0xDA7A_0000_0000_0001);
    let mut ds = TraceDataset::new();
    let (hit, miss, noise) = (ds.add_class("hit"), ds.add_class("miss"), ds.add_class("noise"));
    for i in 0..32 {
        let states = model.sample_path(&mut rng, 8, |s| goal[s]);
        let class = if i % 5 == 4 {
            noise
        } else if states.iter().any(|&s| goal[s]) {
            hit
        } else {
            miss
        };
        let weight = if i % 7 == 6 { 0.0 } else { 0.5 + 1.5 * frac() };
        ds.push(class, Path::from_states(states), weight).expect("valid trace");
    }
    let mut spec = ModelSpec::new(n).initial(model.initial_state());
    for (s, &g) in goal.iter().enumerate() {
        if g {
            spec = spec.label(s, GOAL_LABEL);
        } else if frac() < 0.8 {
            spec = spec.label(s, "safe");
        }
    }
    (ds, spec)
}

/// A chain and a random cancelling affine template for
/// `compiled-vs-instantiate`: a random chain with a `"safe"` label on most
/// states and a `"cost"` reward; each perturbed row moves mass between two
/// of its successors along one of up to three parameters. A parameter's
/// box half-width is 0.5, 1 or 1.5 times the step at which its first
/// entry reaches zero, so some faces leave the support (deferred points).
fn repair_instance(seed: u64, n: usize) -> (Dtmc, PerturbationTemplate) {
    let base = gen::random_dtmc(seed ^ 0x0C0D_E5E7, n);
    let mut frac = unit_stream(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x5EED_0FF5);
    let mut b = DtmcBuilder::new(n);
    for s in 0..n {
        for (t, p) in base.successors(s) {
            b.transition(s, t, p).expect("copied row");
        }
        if s == n - 1 {
            b.label(s, GOAL_LABEL).expect("state in range");
        } else if frac() < 0.8 {
            b.label(s, "safe").expect("state in range");
        }
        b.state_reward("cost", s, 1.0 + (s % 3) as f64).expect("finite reward");
    }
    let chain = b.build().expect("copied rows stay stochastic");
    let nparams = 1 + (seed as usize % 3);
    let mut template = PerturbationTemplate::new();
    let mut limits = vec![f64::INFINITY; nparams];
    let mut nudges = Vec::new();
    for s in 0..n {
        let row: Vec<(usize, f64)> = chain.successors(s).collect();
        if row.len() < 2 || frac() < 0.3 {
            continue;
        }
        let i = (frac() * nparams as f64) as usize % nparams;
        let c = if frac() < 0.5 { -1.0 } else { 1.0 } * (0.2 + 0.8 * frac());
        let (up, down) = (row[0], row[1]);
        // The step |v| at which either entry reaches zero.
        limits[i] = limits[i].min(up.1 / c.abs()).min(down.1 / c.abs());
        nudges.push((s, up.0, down.0, i, c));
    }
    for (i, limit) in limits.iter().enumerate() {
        let half = if limit.is_finite() {
            limit * [0.5, 1.0, 1.5][(frac() * 3.0) as usize % 3]
        } else {
            0.1
        };
        template.parameter(&format!("v{i}"), -half, half);
    }
    for (s, up, down, i, c) in nudges {
        template.nudge(s, up, i, c).expect("declared parameter");
        template.nudge(s, down, i, -c).expect("declared parameter");
    }
    (chain, template)
}

/// Candidate points for `compiled-vs-instantiate`: three inside the box,
/// then for every parameter a point on each of its two faces, plus both
/// corners.
fn box_points(seed: u64, bounds: &[(f64, f64)]) -> Vec<Vec<f64>> {
    let mut frac = unit_stream(seed ^ 0xB0C5_0000_0000_0001);
    let mut inside = || -> Vec<f64> { bounds.iter().map(|&(l, h)| l + frac() * (h - l)).collect() };
    let mut points: Vec<Vec<f64>> = (0..3).map(|_| inside()).collect();
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        for face in [lo, hi] {
            let mut p = inside();
            p[i] = face;
            points.push(p);
        }
    }
    points.push(bounds.iter().map(|&(l, _)| l).collect());
    points.push(bounds.iter().map(|&(_, h)| h).collect());
    points
}

/// A deterministic stream of fractions in `[0, 1)` from `state` (an LCG's
/// top 53 bits), independent of the model-generation streams.
fn unit_stream(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `P=? [ F "goal" ]` query every robust pair brackets.
fn reach_query() -> Query {
    Query::Prob {
        opt: None,
        path: PathFormula::Eventually {
            sub: Box::new(StateFormula::Atom(GOAL_LABEL.to_owned())),
            bound: None,
        },
    }
}

/// `Some((lhs, rhs, |lhs − rhs|))` when the values differ beyond `tol`
/// (NaN on either side always disagrees).
fn disagreement(lhs: f64, rhs: f64, tol: f64) -> PairEval {
    let delta = (lhs - rhs).abs();
    if delta.is_nan() || delta > tol {
        Some((lhs, rhs, if delta.is_nan() { f64::INFINITY } else { delta }))
    } else {
        None
    }
}

/// Builds a mass-shifting repair template: for up to three states with at
/// least two successors of different reachability value, one bounded
/// parameter moves probability mass from the worst successor toward the
/// best. Returns `None` when the model offers no such freedom.
fn mass_shift_template(d: &Dtmc, phi: &[bool], target: &[bool]) -> Option<PerturbationTemplate> {
    let values = checker_dtmc::until_probabilities(
        d,
        phi,
        target,
        &CheckOptions {
            solver: LinearSolver::Direct,
            direct_solver_limit: usize::MAX,
            ..CheckOptions::default()
        },
    )
    .ok()?;
    let mut template = PerturbationTemplate::new();
    let mut added = 0;
    for s in 0..d.num_states() {
        if added == 3 {
            break;
        }
        let row: Vec<(usize, f64)> = d.successors(s).collect();
        if row.len() < 2 {
            continue;
        }
        let hi =
            row.iter().copied().max_by(|a, b| values[a.0].partial_cmp(&values[b.0]).unwrap())?;
        let lo =
            row.iter().copied().min_by(|a, b| values[a.0].partial_cmp(&values[b.0]).unwrap())?;
        if hi.0 == lo.0 || values[hi.0] - values[lo.0] < 1e-9 {
            continue;
        }
        // Headroom: keep the donor edge positive and the receiver below 1.
        let cap = (lo.1 * 0.9).min(1.0 - hi.1).max(0.0);
        if cap < 1e-6 {
            continue;
        }
        let p = template.parameter(&format!("shift{s}"), 0.0, cap);
        template.nudge(s, hi.0, p, 1.0).ok()?;
        template.nudge(s, lo.0, p, -1.0).ok()?;
        added += 1;
    }
    if added == 0 {
        None
    } else {
        Some(template)
    }
}

/// Number of transitions with positive probability.
fn count_edges(d: &Dtmc) -> usize {
    (0..d.num_states()).map(|s| d.successors(s).count()).sum()
}

/// Greedily shrinks `model` while `fails` stays true: halve the state
/// space, then drop low-probability edges, until neither reduction
/// preserves the failure. Bounded work: at most 64 accepted reductions.
pub fn shrink_model(model: &Dtmc, fails: &dyn Fn(&Dtmc) -> bool) -> Dtmc {
    let _span = span!("oracle.shrink", states = model.num_states());
    let mut cur = model.clone();
    for _ in 0..64 {
        let mut reduced = None;
        if cur.num_states() > 2 {
            if let Some(h) = halve(&cur) {
                if fails(&h) {
                    reduced = Some(h);
                }
            }
        }
        if reduced.is_none() {
            'edges: for s in 0..cur.num_states() {
                if cur.successors(s).count() > 1 {
                    if let Some(e) = drop_smallest_edge(&cur, s) {
                        if fails(&e) {
                            reduced = Some(e);
                            break 'edges;
                        }
                    }
                }
            }
        }
        match reduced {
            Some(m) => cur = m,
            None => break,
        }
    }
    cur
}

/// Keeps the first `⌈n/2⌉` states; transitions leaving the kept prefix are
/// redirected to the last kept state, which becomes an absorbing goal.
/// Always yields a valid chain (rows keep their total mass).
fn halve(d: &Dtmc) -> Option<Dtmc> {
    let n = d.num_states();
    let m = (n / 2).max(2);
    if m >= n {
        return None;
    }
    let sink = m - 1;
    let mut b = DtmcBuilder::new(m);
    b.initial_state(if d.initial_state() < m { d.initial_state() } else { 0 }).ok()?;
    for s in 0..m {
        if s == sink {
            continue; // forced absorbing below
        }
        for (t, p) in d.successors(s) {
            let t = if t < m { t } else { sink };
            b.transition(s, t, p).ok()?;
        }
        for label in d.labeling().labels_of(s) {
            b.label(s, label).ok()?;
        }
    }
    b.transition(sink, sink, 1.0).ok()?;
    b.label(sink, GOAL_LABEL).ok()?;
    b.build().ok()
}

/// Drops the smallest-probability edge of `state` and renormalizes the
/// remaining row (only valid when the state has at least two successors).
fn drop_smallest_edge(d: &Dtmc, state: usize) -> Option<Dtmc> {
    let mut row: Vec<(usize, f64)> = d.successors(state).collect();
    if row.len() < 2 {
        return None;
    }
    let (drop_idx, _) =
        row.iter().enumerate().min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())?;
    row.remove(drop_idx);
    let total: f64 = row.iter().map(|&(_, p)| p).sum();
    if total <= 0.0 {
        return None;
    }
    for entry in &mut row {
        entry.1 /= total;
    }
    d.with_row(state, row).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_agree_on_a_fixed_seed() {
        let oracle = Oracle::new(OracleOptions { trajectories: 4_000, ..Default::default() });
        let out = oracle.run_seed(7, ModelFamily::all());
        assert!(out.disagreements.is_empty(), "unexpected disagreements: {:?}", out.disagreements);
        // Every family ran the nine model pairs, plus the four parametric
        // pairs.
        assert!(out.checks.len() >= ModelFamily::all().len() * 9 + 4);
        for &pair in EnginePair::all() {
            assert!(out.checks.iter().any(|c| c.pair == pair), "{} did not run", pair.name());
        }
    }

    #[test]
    fn compiled_oracle_agrees_bitwise_and_defers_on_faces() {
        let (mut compiled, mut deferred) = (0, 0);
        for seed in 0..16 {
            let (eval, (c, d)) = compiled_vs_instantiate(seed, 7 + (seed as usize % 5) * 3);
            assert_eq!(eval, None, "seed {seed}");
            compiled += c;
            deferred += d;
        }
        // Most points keep the support; faces (and, in the 1.5x boxes, some
        // interior points) leave it and must have taken the instantiate
        // path.
        assert!(compiled > deferred, "{compiled} compiled, {deferred} deferred");
        assert!(deferred > 0, "no face left the support");
    }

    #[test]
    fn compiled_data_oracle_agrees_bitwise_and_defers_dropped_support() {
        let (mut compiled, mut deferred) = (0, 0);
        for seed in 0..8 {
            for &family in ModelFamily::all() {
                let model = family.generate(seed);
                let (eval, (c, d)) = compiled_data_vs_relearn(&model, seed);
                assert_eq!(eval, None, "{} seed {seed}", family.name());
                compiled += c;
                deferred += d;
            }
        }
        // Interior and floor weights keep every observed transition; a
        // class at 0 drops those only it observed, and such a candidate
        // must have been relearned.
        assert!(compiled > deferred, "{compiled} compiled, {deferred} deferred");
        assert!(deferred > 0, "no zero weight left the support");
    }

    #[test]
    fn injected_endpoint_flip_is_caught_by_robust_pair() {
        // The robust self-test contract: flipping the pessimistic endpoint
        // upward plants an unsound bracket, which the containment pair must
        // surface (the nominal chain is a member of its own Wilson ball).
        let inject = Injection { min_states: 5, bias: 1e-3 };
        let oracle = Oracle::new(OracleOptions {
            trajectories: 2_000,
            inject: Some(inject),
            ..Default::default()
        });
        let out = oracle.run_seed(3, &[ModelFamily::Layered]);
        let hit: Vec<_> = out
            .disagreements
            .iter()
            .filter(|d| d.pair == EnginePair::RobustContainsNominal)
            .collect();
        assert_eq!(hit.len(), 1, "the flipped endpoint must surface: {:?}", out.disagreements);
        assert!(hit[0].delta > 0.0);
        let shrunk = hit[0].shrunk.as_ref().expect("shrinker must make progress");
        assert!(shrunk.num_states >= inject.min_states);
        // Without injection the same seed passes clean on both robust pairs.
        let clean = Oracle::new(OracleOptions { trajectories: 2_000, ..Default::default() })
            .run_seed(3, &[ModelFamily::Layered]);
        assert!(clean.disagreements.is_empty(), "{:?}", clean.disagreements);
        for pair in [EnginePair::RobustContainsNominal, EnginePair::RobustVsSampled] {
            assert!(
                clean.checks.iter().any(|c| c.pair == pair && c.agreed),
                "{} must have run",
                pair.name()
            );
        }
    }

    #[test]
    fn injected_narrowed_bound_is_caught_by_containment_pair() {
        // The --inject self-test contract: planting a deliberately unsound
        // (narrowed) interval bound must surface as a containment
        // disagreement, proving the oracle can actually see such bugs.
        let inject = Injection { min_states: 5, bias: 1e-3 };
        let oracle = Oracle::new(OracleOptions {
            trajectories: 2_000,
            inject: Some(inject),
            ..Default::default()
        });
        let out = oracle.run_seed(3, &[]);
        let hit: Vec<_> = out
            .disagreements
            .iter()
            .filter(|d| d.pair == EnginePair::IntervalBoundContainsPoint)
            .collect();
        assert_eq!(hit.len(), 1, "the narrowed bound must surface: {:?}", out.disagreements);
        assert!(hit[0].delta > 0.0);
        // Without injection the same seed passes clean.
        let clean = Oracle::new(OracleOptions { trajectories: 2_000, ..Default::default() })
            .run_seed(3, &[]);
        assert!(clean.disagreements.is_empty(), "{:?}", clean.disagreements);
    }

    #[test]
    fn injected_bias_is_caught_and_shrunk() {
        let inject = Injection { min_states: 5, bias: 1e-3 };
        let oracle = Oracle::new(OracleOptions {
            trajectories: 2_000,
            inject: Some(inject),
            ..Default::default()
        });
        let out = oracle.run_seed(3, &[ModelFamily::Layered]);
        let hit: Vec<_> =
            out.disagreements.iter().filter(|d| d.pair == EnginePair::DenseVsGaussSeidel).collect();
        assert_eq!(hit.len(), 1, "the injected bias must surface exactly once");
        let d = hit[0];
        assert!(d.delta > 5e-4, "delta reflects the bias: {}", d.delta);
        let shrunk = d.shrunk.as_ref().expect("shrinker must make progress");
        assert!(shrunk.num_states < d.num_states);
        assert!(shrunk.num_states >= inject.min_states, "cannot shrink below the bias threshold");
    }

    #[test]
    fn shrinker_respects_predicate() {
        // Predicate: fails while the model has ≥ 6 states. The shrinker
        // must converge to exactly the smallest failing size it can reach.
        let d = ModelFamily::Dense.generate(11);
        let n0 = d.num_states();
        assert!(n0 >= 12);
        let minimal = shrink_model(&d, &|m| m.num_states() >= 6);
        assert!(minimal.num_states() >= 6);
        assert!(minimal.num_states() < n0);
        // Halving floors at ⌈n/2⌉ ≥ 6, so one more halving would go below.
        assert!(minimal.num_states() / 2 < 6);
    }

    #[test]
    fn engine_pair_names_round_trip() {
        for &p in EnginePair::all() {
            assert_eq!(EnginePair::parse(p.name()), Some(p));
        }
        assert_eq!(EnginePair::parse("nope"), None);
    }
}
