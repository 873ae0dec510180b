//! Parameter lifting: sound interval bounds and branch-and-refine region
//! verification over parameter boxes.
//!
//! The repair pipelines search a box `B ⊂ ℝⁿ` of perturbation parameters
//! for the cheapest point satisfying rational constraints produced by
//! parametric model checking. The penalty solver explores `B` point by
//! point; *parameter lifting* (Češka et al., "Model Repair Revamped";
//! Quatmann et al., "Parameter Synthesis for Markov Models") instead
//! bounds each constraint over whole sub-boxes at once:
//!
//! 1. evaluate the compiled constraint tapes in **interval arithmetic**
//!    over a box (see [`CompiledRatFn::bound`]), yielding an enclosure of
//!    every value the constraint takes on the box;
//! 2. classify the box: **all-sat** (every point satisfies every
//!    constraint), **all-violating** (some constraint is violated
//!    everywhere) or **unknown**;
//! 3. branch-and-refine: split unknown boxes along their widest dimension
//!    and repeat, pruning all-violating regions without ever sampling
//!    them.
//!
//! Every enclosure is *outward-widened*, so the verdicts are sound with
//! respect to the exact `f64` tape evaluation: an `all-sat` box contains
//! no violating point and an `all-violating` box contains no satisfying
//! point (both up to the widening, which strictly contains the tape's own
//! rounding error). The surviving near-optimal boxes seed the penalty
//! solver as warm starts, and the objective's interval lower bound over
//! the surviving region yields an [`OptimalityCertificate`].
//!
//! Determinism: the per-round fan-out runs on the vendored rayon layer,
//! whose `map`/`collect` reassemble results in input order. All merging
//! happens serially in that order, so the classified region list is
//! **bitwise identical** across thread counts.

use rayon::prelude::*;
use tml_numerics::{Budget, Exhaustion};
use tml_telemetry::{counter, span};

use crate::{CompiledConstraintSet, CompiledRatFn, ParametricError};

/// Relative outward widening applied after every interval operation
/// (a few ulps — strictly wider than one rounding error of the point
/// evaluation the enclosure must contain).
const OUT: f64 = 4.0 * f64::EPSILON;

/// Absolute outward widening so enclosures of values near zero still have
/// positive slack.
const TINY: f64 = 1e-300;

/// Denominator enclosures closer to zero than this are treated as
/// containing a pole (matches the point evaluator's `|den| < 1e-300`
/// guard).
const POLE_GUARD: f64 = 1e-300;

#[inline]
fn widen_down(x: f64, steps: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    x - x.abs() * (OUT * steps) - TINY
}

#[inline]
fn widen_up(x: f64, steps: f64) -> f64 {
    if !x.is_finite() {
        return x;
    }
    x + x.abs() * (OUT * steps) + TINY
}

/// A closed interval `[lo, hi]`, the value enclosure used by parameter
/// lifting.
///
/// Invariant: `lo <= hi` or the interval is [`Interval::whole`] (the
/// `[-∞, ∞]` enclosure used whenever soundness cannot be guaranteed, e.g.
/// at denominator poles or after a NaN product).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

// Plain methods rather than the std `Add`/`Mul`/`Div` traits: interval
// arithmetic here is deliberately explicit at every call site (each
// operation widens outward), and operator sugar would hide that.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The interval `[lo, hi]`. Returns [`Interval::whole`] on NaN or
    /// inverted endpoints, so a malformed input degrades to a sound (if
    /// useless) enclosure rather than an unsound one.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Self::whole();
        }
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Self::new(x, x)
    }

    /// The `[-∞, ∞]` enclosure.
    pub fn whole() -> Self {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    }

    /// Whether this is the `[-∞, ∞]` enclosure.
    pub fn is_whole(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// Whether `x` lies in the interval (every NaN is "contained" by the
    /// whole interval only).
    pub fn contains(&self, x: f64) -> bool {
        if x.is_nan() {
            return self.is_whole();
        }
        self.lo <= x && x <= self.hi
    }

    /// The width `hi − lo` (infinite for the whole interval).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Outward-widened interval sum.
    pub fn add(self, rhs: Self) -> Self {
        Self::new(widen_down(self.lo + rhs.lo, 1.0), widen_up(self.hi + rhs.hi, 1.0))
    }

    /// Outward-widened interval product. Any NaN endpoint product (e.g.
    /// `0 · ∞`) degrades to the whole interval.
    pub fn mul(self, rhs: Self) -> Self {
        let p = [self.lo * rhs.lo, self.lo * rhs.hi, self.hi * rhs.lo, self.hi * rhs.hi];
        if p.iter().any(|x| x.is_nan()) {
            return Self::whole();
        }
        let lo = p.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = p.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::new(widen_down(lo, 1.0), widen_up(hi, 1.0))
    }

    /// Outward-widened product with a scalar.
    pub fn scale(self, c: f64) -> Self {
        self.mul(Self::point(c))
    }

    /// Outward-widened interval reciprocal; the whole interval when the
    /// operand comes within `1e-300` of zero (matching the point
    /// evaluator's pole semantics).
    pub fn recip(self) -> Self {
        if self.lo <= POLE_GUARD && self.hi >= -POLE_GUARD {
            return Self::whole();
        }
        Self::new(widen_down(1.0 / self.hi, 1.0), widen_up(1.0 / self.lo, 1.0))
    }

    /// Outward-widened interval quotient (`self · rhs⁻¹`).
    pub fn div(self, rhs: Self) -> Self {
        self.mul(rhs.recip())
    }

    /// Sound enclosure of `xᵉ` for `x ∈ [lo, hi]` (sign-aware: tight for
    /// monotone ranges, `[0, max|x|ᵉ]` for even powers straddling zero).
    pub fn pow(self, e: u32) -> Self {
        if e == 0 {
            return Self::point(1.0);
        }
        let steps = e as f64;
        let (lo, hi) = (self.lo, self.hi);
        if lo.is_nan() || hi.is_nan() {
            return Self::whole();
        }
        let (plo, phi) = if lo >= 0.0 {
            (lo.powi(e as i32), hi.powi(e as i32))
        } else if hi <= 0.0 {
            if e % 2 == 1 {
                (lo.powi(e as i32), hi.powi(e as i32))
            } else {
                (hi.powi(e as i32), lo.powi(e as i32))
            }
        } else if e % 2 == 1 {
            (lo.powi(e as i32), hi.powi(e as i32))
        } else {
            (0.0, lo.abs().max(hi.abs()).powi(e as i32))
        };
        Self::new(widen_down(plo, steps), widen_up(phi, steps))
    }
}

/// The sense of one lifted constraint row `f(v) ⋈ rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundSense {
    /// `f(v) ≤ rhs`.
    Le,
    /// `f(v) ≥ rhs`.
    Ge,
}

/// One constraint row of a [`RegionProblem`]: the `i`-th compiled function
/// compared against `rhs` in the given sense. Callers fold any
/// satisfaction margin into `rhs` before lifting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionRow {
    /// Comparison sense.
    pub sense: BoundSense,
    /// Right-hand side (margins already applied).
    pub rhs: f64,
}

impl RegionRow {
    /// A row with the given sense and (margin-adjusted) right-hand side.
    pub fn new(sense: BoundSense, rhs: f64) -> Self {
        RegionRow { sense, rhs }
    }
}

/// Verdict of region verification on one box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionVerdict {
    /// Every point of the box satisfies every constraint.
    AllSat,
    /// Some constraint is violated at every point of the box.
    AllViolating,
    /// The interval bounds decide neither way at this refinement depth.
    Unknown,
}

/// A region-verification problem: compiled constraint tapes, one
/// [`RegionRow`] per tape, and an optional objective whose interval lower
/// bound over surviving boxes feeds the optimality certificate.
#[derive(Debug, Clone)]
pub struct RegionProblem {
    set: CompiledConstraintSet,
    rows: Vec<RegionRow>,
    objective: Option<CompiledRatFn>,
}

impl RegionProblem {
    /// A problem over `set` with one row per constraint function.
    ///
    /// # Errors
    ///
    /// [`ParametricError::PointArityMismatch`] if `rows` and `set`
    /// disagree on the row count.
    pub fn new(set: CompiledConstraintSet, rows: Vec<RegionRow>) -> Result<Self, ParametricError> {
        if rows.len() != set.len() {
            return Err(ParametricError::PointArityMismatch {
                expected: set.len(),
                got: rows.len(),
            });
        }
        Ok(RegionProblem { set, rows, objective: None })
    }

    /// Attaches an objective tape; its interval lower bound over every
    /// non-violating leaf becomes [`LiftingOutcome::feasible_lower_bound`].
    #[must_use]
    pub fn with_objective(mut self, objective: CompiledRatFn) -> Self {
        self.objective = Some(objective);
        self
    }

    /// Number of parameters.
    pub fn num_vars(&self) -> usize {
        self.set.num_vars()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Classifies one box and (for non-violating boxes with an objective)
    /// bounds the objective over it. Violating boxes report the objective
    /// as `[+∞, +∞]` — they cannot contain the constrained optimum.
    ///
    /// # Errors
    ///
    /// [`ParametricError::PointArityMismatch`] on a wrong-sized box.
    pub fn classify(
        &self,
        bbox: &[(f64, f64)],
    ) -> Result<(RegionVerdict, Interval), ParametricError> {
        let mut bounds = vec![Interval::whole(); self.set.len()];
        self.set.bound_all(bbox, &mut bounds)?;
        let mut all_sat = true;
        for (b, row) in bounds.iter().zip(&self.rows) {
            let (sat, violating) = match row.sense {
                BoundSense::Le => (b.hi <= row.rhs, b.lo > row.rhs),
                BoundSense::Ge => (b.lo >= row.rhs, b.hi < row.rhs),
            };
            if violating {
                return Ok((
                    RegionVerdict::AllViolating,
                    Interval::new(f64::INFINITY, f64::INFINITY),
                ));
            }
            all_sat &= sat;
        }
        let verdict = if all_sat { RegionVerdict::AllSat } else { RegionVerdict::Unknown };
        let obj = match &self.objective {
            Some(obj) => obj.bound(bbox)?,
            None => Interval::whole(),
        };
        Ok((verdict, obj))
    }
}

/// Options for the branch-and-refine [`RegionSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiftingOptions {
    /// Cap on the total number of boxes classified; refinement beyond the
    /// cap leaves boxes `Unknown`.
    pub max_boxes: usize,
    /// Cap on the refinement depth of any single box.
    pub max_depth: usize,
    /// Optimality-gap tolerance of the certificate built on top of the
    /// lifted bounds.
    pub epsilon: f64,
    /// Classify the boxes of each refinement round on parallel threads.
    /// Merging is serial and in input order either way, so the result is
    /// bitwise identical for both settings.
    pub parallel: bool,
}

impl Default for LiftingOptions {
    fn default() -> Self {
        LiftingOptions { max_boxes: 512, max_depth: 12, epsilon: 1e-3, parallel: true }
    }
}

/// One classified leaf box of a branch-and-refine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedBox {
    /// The box, as per-parameter `(lo, hi)` bounds.
    pub bounds: Vec<(f64, f64)>,
    /// The verdict on the box.
    pub verdict: RegionVerdict,
    /// Interval lower bound of the objective over the box
    /// (`-∞` without an objective, `+∞` for all-violating boxes).
    pub objective_lo: f64,
    /// Refinement depth at which the box became a leaf (0 = the root box).
    pub depth: usize,
}

impl ClassifiedBox {
    /// The box center — the warm-start point handed to the penalty solver.
    pub fn center(&self) -> Vec<f64> {
        self.bounds.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect()
    }
}

/// Result of a branch-and-refine region verification.
#[derive(Debug, Clone, PartialEq)]
pub struct LiftingOutcome {
    /// Every leaf box in deterministic (best-first discovery) order.
    pub boxes: Vec<ClassifiedBox>,
    /// Number of all-sat leaves.
    pub sat_boxes: usize,
    /// Number of all-violating (pruned) leaves.
    pub violating_boxes: usize,
    /// Number of unknown leaves.
    pub unknown_boxes: usize,
    /// Why refinement stopped early, if the [`Budget`] ran out. Unclassified
    /// boxes are reported as `Unknown` leaves — the partial answer stays
    /// sound.
    pub exhausted: Option<Exhaustion>,
    /// Budget units charged: one per box plus one per constraint row (plus
    /// one for the objective bound), the same unit the penalty solver
    /// charges per merit evaluation, so lifting and penalty spend are
    /// directly comparable.
    pub evaluations: usize,
    /// Pointwise-screened warm-start candidates, cheapest objective first:
    /// corners and centers of the cheapest non-violating leaves that pass
    /// an exact pointwise evaluation of every constraint row, ranked by the
    /// exact objective tape. Heuristically (not soundly) feasible — the
    /// screen uses point values, not interval enclosures. Empty without an
    /// objective or when no scanned point passes the screen.
    pub candidates: Vec<Vec<f64>>,
}

impl LiftingOutcome {
    /// Whether the whole initial box was proven violating: every leaf is
    /// all-violating and refinement ran to completion. A sound
    /// infeasibility proof (for the lifted rows).
    pub fn all_violating(&self) -> bool {
        self.exhausted.is_none()
            && self.sat_boxes == 0
            && self.unknown_boxes == 0
            && self.violating_boxes > 0
    }

    /// Interval lower bound of the objective over every non-violating leaf
    /// — a sound lower bound on the objective over the feasible set
    /// (`+∞` when every leaf is violating, `-∞` without an objective).
    pub fn feasible_lower_bound(&self) -> f64 {
        self.boxes
            .iter()
            .filter(|b| b.verdict != RegionVerdict::AllViolating)
            .map(|b| b.objective_lo)
            .fold(f64::INFINITY, f64::min)
    }

    /// Up to `k` warm-start points. With an objective, the pointwise-ranked
    /// [`LiftingOutcome::candidates`] (screened leaf corners, cheapest
    /// first) win — they sit on the constraint boundary where the
    /// constrained optimum lives. Otherwise: the cheapest all-sat box first
    /// (a guaranteed-feasible start), then the remaining non-violating
    /// boxes by ascending objective lower bound. The order is deterministic
    /// (stable sort over the deterministic leaf list).
    pub fn warm_starts(&self, k: usize) -> Vec<Vec<f64>> {
        if !self.candidates.is_empty() {
            return self.candidates.iter().take(k).cloned().collect();
        }
        let mut sat: Vec<&ClassifiedBox> =
            self.boxes.iter().filter(|b| b.verdict == RegionVerdict::AllSat).collect();
        sat.sort_by(|a, b| a.objective_lo.total_cmp(&b.objective_lo));
        let mut rest: Vec<&ClassifiedBox> =
            self.boxes.iter().filter(|b| b.verdict == RegionVerdict::Unknown).collect();
        rest.extend(sat.iter().skip(1).copied());
        rest.sort_by(|a, b| a.objective_lo.total_cmp(&b.objective_lo));
        let best_sat = sat.first().copied();
        best_sat.into_iter().chain(rest).take(k).map(ClassifiedBox::center).collect()
    }
}

/// A soundness certificate for a repair: the verified repair cost
/// (`upper_bound`) sits within `epsilon` of the interval lower bound on
/// the cost over the entire surviving feasible region (`lower_bound`), so
/// no admissible repair can be more than `epsilon` cheaper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalityCertificate {
    /// Sound lower bound on the optimal cost over the feasible region.
    pub lower_bound: f64,
    /// Cost of the returned (verified) repair.
    pub upper_bound: f64,
    /// The gap tolerance the certificate was checked against.
    pub epsilon: f64,
    /// Whether `upper_bound − lower_bound ≤ epsilon` **and** refinement ran
    /// to completion (no budget exhaustion). When `false` the bounds are
    /// still valid, just not conclusive.
    pub certified: bool,
}

impl OptimalityCertificate {
    /// The optimality gap `upper_bound − lower_bound`.
    pub fn gap(&self) -> f64 {
        self.upper_bound - self.lower_bound
    }
}

/// Branch-and-refine region solver.
///
/// Classifies the initial box, splits `Unknown` boxes along their widest
/// dimension (lowest index wins ties) and repeats breadth-first until
/// every box is decided or the depth/box/budget caps are reached.
#[derive(Debug, Clone, Default)]
pub struct RegionSolver {
    opts: LiftingOptions,
    budget: Budget,
}

impl RegionSolver {
    /// A solver with default options and an unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver with explicit options.
    pub fn with_options(opts: LiftingOptions) -> Self {
        RegionSolver { opts, budget: Budget::unlimited() }
    }

    /// Attaches an effort budget. Each classified box charges
    /// `1 + rows (+ 1 with an objective)` evaluation units. On exhaustion
    /// the solver returns the leaves decided so far, with the rest of the
    /// frontier reported `Unknown` and [`LiftingOutcome::exhausted`] set.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The options in effect.
    pub fn options(&self) -> &LiftingOptions {
        &self.opts
    }

    /// Runs branch-and-refine over `bbox`.
    ///
    /// # Errors
    ///
    /// [`ParametricError::PointArityMismatch`] if `bbox` does not match the
    /// problem arity.
    pub fn solve(
        &self,
        problem: &RegionProblem,
        bbox: &[(f64, f64)],
    ) -> Result<LiftingOutcome, ParametricError> {
        if bbox.len() != problem.num_vars() {
            return Err(ParametricError::PointArityMismatch {
                expected: problem.num_vars(),
                got: bbox.len(),
            });
        }
        let _span = span!(
            "parametric.lifting.solve",
            vars = problem.num_vars(),
            rows = problem.num_rows(),
            parallel = self.opts.parallel
        );
        // Fork like the penalty solver: this solve gets the full evaluation
        // cap while sharing the caller's deadline/cancellation.
        let budget = self.budget.fork();
        let cost_per_box = 1 + problem.num_rows() + usize::from(problem.objective.is_some());

        // Best-first branch and bound. The frontier is kept sorted by the
        // parent's objective lower bound (ties broken by discovery order),
        // so the box budget concentrates on the cheapest — potentially
        // optimal — regions instead of refining uniformly. Certified
        // all-sat boxes yield an incumbent upper bound on the constrained
        // optimum (any point of a sat box is feasible, so the objective's
        // interval hi over it is attainable-or-better); unknown boxes whose
        // objective lower bound exceeds the incumbent are frozen as leaves
        // — they may contain feasible points, just none that beat the
        // incumbent, so refining them cannot improve the repair.
        const BATCH: usize = 16;
        let mut frontier: Vec<FrontierEntry> = vec![(f64::NEG_INFINITY, 0, bbox.to_vec(), 0)];
        let mut seq = 1u64;
        let mut scheduled = 1usize; // boxes ever enqueued, capped by max_boxes
        let mut incumbent = f64::INFINITY;
        let mut leaves: Vec<ClassifiedBox> = Vec::new();
        let mut evaluations = 0usize;
        let mut exhausted: Option<Exhaustion> = None;

        while !frontier.is_empty() {
            frontier.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let take = frontier.len().min(BATCH);
            let batch: Vec<FrontierEntry> = frontier.drain(..take).collect();
            // Charge the whole batch up front on the coordinating thread so
            // budget accounting stays deterministic under parallel
            // classification.
            if let Some(cause) = budget.charge((batch.len() * cost_per_box) as u64) {
                exhausted = Some(cause);
                for (_, _, bounds, depth) in batch.into_iter().chain(frontier.drain(..)) {
                    leaves.push(ClassifiedBox {
                        bounds,
                        verdict: RegionVerdict::Unknown,
                        objective_lo: f64::NEG_INFINITY,
                        depth,
                    });
                }
                break;
            }
            evaluations += batch.len() * cost_per_box;
            counter!("parametric.lifting.boxes", batch.len());
            let _round = span!("parametric.lifting.round", boxes = batch.len());

            let results: Vec<Result<(RegionVerdict, Interval), ParametricError>> =
                if self.opts.parallel && batch.len() > 1 {
                    batch.par_iter().map(|(_, _, b, _)| problem.classify(b)).collect()
                } else {
                    batch.iter().map(|(_, _, b, _)| problem.classify(b)).collect()
                };

            // Merge serially in batch order: deterministic across thread
            // counts because the parallel map above is order-preserving.
            for ((_, _, bounds, depth), res) in batch.into_iter().zip(results) {
                let (verdict, obj) = res?;
                if verdict == RegionVerdict::AllSat {
                    incumbent = incumbent.min(obj.hi);
                }
                if verdict == RegionVerdict::Unknown
                    && depth < self.opts.max_depth
                    && scheduled + 2 <= self.opts.max_boxes
                    && obj.lo <= incumbent
                {
                    if let Some((left, right)) = split_box(&bounds) {
                        frontier.push((obj.lo, seq, left, depth + 1));
                        frontier.push((obj.lo, seq + 1, right, depth + 1));
                        seq += 2;
                        scheduled += 2;
                        continue;
                    }
                }
                leaves.push(ClassifiedBox { bounds, verdict, objective_lo: obj.lo, depth });
            }
        }

        let sat_boxes = leaves.iter().filter(|b| b.verdict == RegionVerdict::AllSat).count();
        let violating_boxes =
            leaves.iter().filter(|b| b.verdict == RegionVerdict::AllViolating).count();
        let unknown_boxes = leaves.len() - sat_boxes - violating_boxes;
        counter!("parametric.lifting.sat_boxes", sat_boxes);
        counter!("parametric.lifting.violating_boxes", violating_boxes);
        counter!("parametric.lifting.unknown_boxes", unknown_boxes);
        let candidates = if exhausted.is_none() {
            self.scan_candidates(problem, &leaves, &budget, &mut evaluations, &mut exhausted)
        } else {
            Vec::new()
        };
        Ok(LiftingOutcome {
            boxes: leaves,
            sat_boxes,
            violating_boxes,
            unknown_boxes,
            exhausted,
            evaluations,
            candidates,
        })
    }

    /// Scans corners and centers of the cheapest non-violating leaves for
    /// warm-start candidates: each point is screened against every
    /// constraint row by the exact pointwise tape and survivors are ranked
    /// by the exact objective. The constrained optimum sits on the
    /// constraint boundary — exactly where interval bounds stay `Unknown` —
    /// so the scan covers `Unknown` leaves alongside certified all-sat
    /// ones. The screen is a heuristic (pointwise tape values carry no
    /// interval guarantee): a false positive only hands the solver a
    /// slightly-infeasible warm start, which the polish and the final
    /// checker verification absorb. Serial and in objective order —
    /// bitwise deterministic regardless of how the boxes were classified.
    fn scan_candidates(
        &self,
        problem: &RegionProblem,
        leaves: &[ClassifiedBox],
        budget: &Budget,
        evaluations: &mut usize,
        exhausted: &mut Option<Exhaustion>,
    ) -> Vec<Vec<f64>> {
        // Corner scans are exponential in the arity; past this many
        // parameters only box centers are scanned.
        const MAX_CORNER_DIM: usize = 6;
        const MAX_CANDIDATES: usize = 8;
        const SCAN_LEAVES: usize = 24;
        let Some(obj) = &problem.objective else { return Vec::new() };
        let mut scan: Vec<&ClassifiedBox> =
            leaves.iter().filter(|b| b.verdict != RegionVerdict::AllViolating).collect();
        scan.sort_by(|a, b| a.objective_lo.total_cmp(&b.objective_lo));
        scan.truncate(SCAN_LEAVES);
        let rows = problem.rows.len();
        // One screened point evaluates the objective plus every row — the
        // same unit the penalty solver charges per merit evaluation.
        let cost_per_point = 1 + rows;
        let mut vals = vec![0.0; rows];
        let mut ranked: Vec<(f64, Vec<f64>)> = Vec::new();
        'leaves: for leaf in scan {
            let d = leaf.bounds.len();
            let corners = if d <= MAX_CORNER_DIM { 1usize << d } else { 0 };
            for i in 0..=corners {
                let point: Vec<f64> = if i == corners {
                    leaf.center()
                } else {
                    leaf.bounds
                        .iter()
                        .enumerate()
                        .map(|(j, &(lo, hi))| if i >> j & 1 == 0 { lo } else { hi })
                        .collect()
                };
                if let Some(cause) = budget.charge(cost_per_point as u64) {
                    *exhausted = Some(cause);
                    break 'leaves;
                }
                *evaluations += cost_per_point;
                if problem.set.eval_all(&point, &mut vals).is_err() {
                    continue;
                }
                // NaN row values fail both senses and reject the point.
                let feasible = vals.iter().zip(&problem.rows).all(|(&v, row)| match row.sense {
                    BoundSense::Le => v <= row.rhs,
                    BoundSense::Ge => v >= row.rhs,
                });
                if !feasible {
                    continue;
                }
                if let Ok(v) = obj.eval(&point) {
                    ranked.push((v, point));
                }
            }
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.dedup_by(|a, b| a.1 == b.1);
        ranked.into_iter().take(MAX_CANDIDATES).map(|(_, p)| p).collect()
    }
}

/// A refinement-frontier entry: parent objective lower bound, discovery
/// sequence number (deterministic tie-break), box bounds, split depth.
type FrontierEntry = (f64, u64, Vec<(f64, f64)>, usize);

/// The two halves of a split box.
type BoxHalves = (Vec<(f64, f64)>, Vec<(f64, f64)>);

/// Splits a box in half along its widest dimension (lowest index wins
/// ties). Returns `None` for degenerate boxes that cannot be split in
/// `f64` (zero width, or a midpoint equal to an endpoint).
fn split_box(bounds: &[(f64, f64)]) -> Option<BoxHalves> {
    let mut dim = 0usize;
    let mut width = f64::NEG_INFINITY;
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        let w = hi - lo;
        if w > width {
            width = w;
            dim = i;
        }
    }
    let (lo, hi) = bounds[dim];
    let mid = 0.5 * (lo + hi);
    // `width.is_nan() || width <= 0.0` (rather than `!(width > 0.0)`):
    // a NaN width (infinite endpoints) is degenerate too.
    if width.is_nan() || width <= 0.0 || mid <= lo || mid >= hi {
        return None;
    }
    let mut left = bounds.to_vec();
    let mut right = bounds.to_vec();
    left[dim].1 = mid;
    right[dim].0 = mid;
    Some((left, right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RationalFunction;

    fn c(x: f64) -> RationalFunction {
        RationalFunction::constant(1, x)
    }

    /// f(v) = 0.8 + v: the 2-state chain's reachability under a mass shift.
    fn affine_fn() -> RationalFunction {
        c(0.8).add(&RationalFunction::var(1, 0))
    }

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 3.0);
        let s = a.add(b);
        assert!(s.lo <= 0.0 && s.hi >= 5.0);
        let p = a.mul(b);
        assert!(p.lo <= -2.0 && p.hi >= 6.0);
        assert!(Interval::new(2.0, 1.0).is_whole(), "inverted endpoints degrade to whole");
        assert!(Interval::point(f64::NAN).is_whole());
        assert!(Interval::new(-1.0, 1.0).recip().is_whole(), "pole in the divisor");
        let r = Interval::new(2.0, 4.0).recip();
        assert!(r.contains(0.25) && r.contains(0.5) && !r.contains(0.6));
    }

    #[test]
    fn interval_pow_sign_cases() {
        let pos = Interval::new(0.5, 2.0).pow(2);
        assert!(pos.contains(0.25) && pos.contains(4.0) && !pos.contains(0.2));
        let neg_even = Interval::new(-2.0, -0.5).pow(2);
        assert!(neg_even.contains(0.25) && neg_even.contains(4.0));
        let neg_odd = Interval::new(-2.0, -0.5).pow(3);
        assert!(neg_odd.contains(-8.0) && neg_odd.contains(-0.125));
        let straddle_even = Interval::new(-1.0, 2.0).pow(2);
        assert!(straddle_even.contains(0.0) && straddle_even.contains(4.0));
        assert!(straddle_even.lo <= 0.0);
        let straddle_odd = Interval::new(-1.0, 2.0).pow(3);
        assert!(straddle_odd.contains(-1.0) && straddle_odd.contains(8.0));
        assert_eq!(Interval::new(-5.0, 5.0).pow(0), Interval::point(1.0));
    }

    #[test]
    fn bound_contains_point_evaluations() {
        // f = (1 + v₀v₁) / (1 + v₀² + 0.5 v₁²) over a box.
        let v0 = RationalFunction::var(2, 0);
        let v1 = RationalFunction::var(2, 1);
        let one = RationalFunction::one_rf(2);
        let num = one.add(&v0.mul(&v1));
        let den = one.add(&v0.mul(&v0)).add(&v1.mul(&v1).mul(&RationalFunction::constant(2, 0.5)));
        let f = num.div(&den).unwrap();
        let tape = f.compile();
        let bbox = [(-0.5, 0.75), (-1.0, 0.25)];
        let bound = tape.bound(&bbox).unwrap();
        for i in 0..=4 {
            for j in 0..=4 {
                let pt = [
                    bbox[0].0 + (bbox[0].1 - bbox[0].0) * i as f64 / 4.0,
                    bbox[1].0 + (bbox[1].1 - bbox[1].0) * j as f64 / 4.0,
                ];
                let v = tape.eval(&pt).unwrap();
                assert!(bound.contains(v), "bound {bound:?} misses f({pt:?}) = {v}");
            }
        }
    }

    #[test]
    fn bound_is_whole_at_denominator_pole() {
        // f = 1 / v over a box containing 0.
        let f = RationalFunction::one_rf(1).div(&RationalFunction::var(1, 0)).unwrap();
        let b = f.compile().bound(&[(-1.0, 1.0)]).unwrap();
        assert!(b.is_whole());
        // Away from the pole the bound is finite.
        let b2 = f.compile().bound(&[(0.5, 2.0)]).unwrap();
        assert!(!b2.is_whole());
        assert!(b2.contains(2.0) && b2.contains(0.5));
    }

    #[test]
    fn bound_monotone_under_box_shrinking() {
        let f = affine_fn().mul(&affine_fn()).sub(&c(0.3));
        let tape = f.compile();
        let outer = tape.bound(&[(-0.2, 0.2)]).unwrap();
        let inner = tape.bound(&[(-0.1, 0.05)]).unwrap();
        assert!(outer.lo <= inner.lo && inner.hi <= outer.hi, "{outer:?} vs {inner:?}");
    }

    fn problem_ge(bound: f64) -> RegionProblem {
        let set = CompiledConstraintSet::compile(&[affine_fn()]).unwrap();
        RegionProblem::new(set, vec![RegionRow::new(BoundSense::Ge, bound)]).unwrap()
    }

    #[test]
    fn region_solver_classifies_affine_constraint() {
        // 0.8 + v ≥ 0.9 over v ∈ [-0.19, 0.19]: sat for v ≥ 0.1.
        let problem = problem_ge(0.9);
        let out = RegionSolver::new().solve(&problem, &[(-0.19, 0.19)]).unwrap();
        assert!(out.sat_boxes > 0, "some all-sat region must be found");
        assert!(out.violating_boxes > 0, "v < 0.1 must be pruned");
        assert!(out.exhausted.is_none());
        assert!(out.evaluations > 0);
        // Every sat leaf lies in v ≥ 0.1; every violating leaf in v < 0.1.
        for b in &out.boxes {
            match b.verdict {
                RegionVerdict::AllSat => assert!(b.bounds[0].0 >= 0.1 - 1e-9),
                RegionVerdict::AllViolating => assert!(b.bounds[0].1 <= 0.1 + 1e-9),
                RegionVerdict::Unknown => {}
            }
        }
        let starts = out.warm_starts(3);
        assert!(!starts.is_empty());
        assert!(0.8 + starts[0][0] >= 0.9 - 1e-6, "best warm start must be in the sat region");
    }

    #[test]
    fn infeasible_region_is_proven_violating() {
        // 0.8 + v ≥ 1.5 is impossible on [-0.19, 0.19].
        let problem = problem_ge(1.5);
        let out = RegionSolver::new().solve(&problem, &[(-0.19, 0.19)]).unwrap();
        assert!(out.all_violating());
        assert_eq!(out.feasible_lower_bound(), f64::INFINITY);
        assert!(out.warm_starts(3).is_empty());
    }

    #[test]
    fn trivially_sat_region_needs_one_box() {
        let problem = problem_ge(0.0);
        let out = RegionSolver::new().solve(&problem, &[(-0.1, 0.1)]).unwrap();
        assert_eq!(out.boxes.len(), 1);
        assert_eq!(out.sat_boxes, 1);
        assert_eq!(out.boxes[0].verdict, RegionVerdict::AllSat);
        assert_eq!(out.boxes[0].depth, 0);
    }

    #[test]
    fn parallel_and_serial_runs_are_bitwise_identical() {
        let problem = problem_ge(0.9).with_objective(
            RationalFunction::var(1, 0).mul(&RationalFunction::var(1, 0)).compile(),
        );
        let serial = RegionSolver::with_options(LiftingOptions {
            parallel: false,
            ..LiftingOptions::default()
        })
        .solve(&problem, &[(-0.19, 0.19)])
        .unwrap();
        let parallel = RegionSolver::with_options(LiftingOptions {
            parallel: true,
            ..LiftingOptions::default()
        })
        .solve(&problem, &[(-0.19, 0.19)])
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn objective_lower_bound_is_sound() {
        // Minimize v² subject to 0.8 + v ≥ 0.9: optimum is 0.1² = 0.01.
        let problem = problem_ge(0.9).with_objective(
            RationalFunction::var(1, 0).mul(&RationalFunction::var(1, 0)).compile(),
        );
        let out = RegionSolver::new().solve(&problem, &[(-0.19, 0.19)]).unwrap();
        let lb = out.feasible_lower_bound();
        assert!(lb <= 0.01 + 1e-9, "lower bound {lb} must not exceed the optimum");
        assert!(lb > 0.0, "refinement should lift the bound above zero");
    }

    #[test]
    fn budget_exhaustion_yields_partial_unknown_outcome() {
        let problem = problem_ge(0.9);
        let solver = RegionSolver::new().with_budget(Budget::unlimited().with_max_evaluations(3));
        let out = solver.solve(&problem, &[(-0.19, 0.19)]).unwrap();
        assert_eq!(out.exhausted, Some(Exhaustion::Evaluations));
        assert!(out.unknown_boxes > 0, "frontier must be reported unknown");
        assert!(!out.all_violating());
    }

    #[test]
    fn box_caps_bound_the_work() {
        let problem = problem_ge(0.9);
        let out = RegionSolver::with_options(LiftingOptions {
            max_boxes: 7,
            ..LiftingOptions::default()
        })
        .solve(&problem, &[(-0.19, 0.19)])
        .unwrap();
        assert!(out.boxes.len() <= 7);
        let deep = RegionSolver::with_options(LiftingOptions {
            max_depth: 2,
            ..LiftingOptions::default()
        })
        .solve(&problem, &[(-0.19, 0.19)])
        .unwrap();
        assert!(deep.boxes.iter().all(|b| b.depth <= 2));
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let problem = problem_ge(0.9);
        assert!(RegionSolver::new().solve(&problem, &[(0.0, 1.0), (0.0, 1.0)]).is_err());
        let set = CompiledConstraintSet::compile(&[affine_fn()]).unwrap();
        assert!(RegionProblem::new(set, vec![]).is_err());
    }

    #[test]
    fn certificate_gap_and_flag() {
        let cert = OptimalityCertificate {
            lower_bound: 0.009,
            upper_bound: 0.01,
            epsilon: 1e-2,
            certified: true,
        };
        assert!((cert.gap() - 0.001).abs() < 1e-12);
    }
}
