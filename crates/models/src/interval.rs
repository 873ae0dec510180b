//! Interval Markov chains and MDPs: transition probabilities as
//! `[lo, hi]` ranges instead of point values.
//!
//! An [`IntervalDtmc`] describes an *uncertainty set* of DTMCs: every
//! stochastic matrix `P` with `lo(s,t) ≤ P(s,t) ≤ hi(s,t)` row-wise is a
//! member. Robust verification (see the checker's `robust` module)
//! computes pessimistic/optimistic value bounds over all members, which is
//! what makes repair sound against the estimation error of a learned
//! model. Interval models are built three ways:
//!
//! * explicitly, via [`IntervalDtmcBuilder`] or the DSL's `LO..HI`
//!   transition syntax (`0 -> 1: 0.1..0.3`);
//! * by widening a concrete chain: [`IntervalDtmc::from_dtmc`] (fixed
//!   half-width) or [`IntervalDtmc::wilson_around`] (per-transition Wilson
//!   confidence intervals at a given level);
//! * statistically from trace counts: `learn::interval_dtmc_from_traces`.
//!
//! Row validity requires a non-empty polytope: `Σ lo ≤ 1 ≤ Σ hi` and
//! `0 ≤ lo ≤ hi ≤ 1` per entry. The validating builders enforce this; the
//! `unchecked` builders skip it so fault-injection tests can hand malformed
//! sets to the checker, which re-validates and reports structured errors.

use std::collections::BTreeMap;

use crate::dtmc::rows_by_source;
use crate::reward::structure_mut;
use crate::{Dtmc, DtmcBuilder, Labeling, ModelError, RewardStructure, STOCHASTIC_TOLERANCE};

/// One uncertain transition: `(target, lo, hi)`.
pub type IntervalTransition = (usize, f64, f64);

/// A discrete-time Markov chain with interval-valued transition
/// probabilities.
///
/// # Example
///
/// ```
/// use tml_models::interval::IntervalDtmcBuilder;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut b = IntervalDtmcBuilder::new(2);
/// b.transition(0, 0, 0.1, 0.3)?;
/// b.transition(0, 1, 0.7, 0.9)?;
/// b.transition(1, 1, 1.0, 1.0)?;
/// b.label(1, "done")?;
/// let m = b.build()?;
/// assert_eq!(m.num_states(), 2);
/// assert_eq!(m.bounds(0, 1), (0.7, 0.9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalDtmc {
    /// `transitions[s]` lists `(target, lo, hi)` sorted by target.
    transitions: Vec<Vec<IntervalTransition>>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
}

impl IntervalDtmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The initial state.
    pub fn initial_state(&self) -> usize {
        self.initial
    }

    /// The state labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The interval row of `state`: `(target, lo, hi)` sorted by target.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn row(&self, state: usize) -> &[IntervalTransition] {
        &self.transitions[state]
    }

    /// Iterates over the uncertain successors of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = IntervalTransition> + '_ {
        self.transitions[state].iter().copied()
    }

    /// The `[lo, hi]` bounds of one transition (`(0, 0)` when absent).
    pub fn bounds(&self, from: usize, to: usize) -> (f64, f64) {
        self.transitions
            .get(from)
            .and_then(|row| row.iter().find(|&&(t, _, _)| t == to))
            .map(|&(_, lo, hi)| (lo, hi))
            .unwrap_or((0.0, 0.0))
    }

    /// Total number of uncertain transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// Looks up a reward structure by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFound`] if no structure has that name.
    pub fn reward_structure(&self, name: &str) -> Result<&RewardStructure, ModelError> {
        self.rewards
            .get(name)
            .ok_or_else(|| ModelError::NotFound { kind: "reward structure", name: name.to_owned() })
    }

    /// The reward structure used when a property does not name one.
    pub fn default_reward_structure(&self) -> Option<&RewardStructure> {
        self.rewards.values().next()
    }

    /// Iterates over all reward structures in name order.
    pub fn reward_structures(&self) -> impl Iterator<Item = &RewardStructure> {
        self.rewards.values()
    }

    /// Widens a concrete chain into the interval model
    /// `[max(p − half_width, 0), min(p + half_width, 1)]` per transition,
    /// keeping labels, rewards and the initial state. The original chain is
    /// always a member of the resulting set.
    pub fn from_dtmc(model: &Dtmc, half_width: f64) -> Self {
        let w = half_width.max(0.0);
        let transitions = (0..model.num_states())
            .map(|s| {
                model.successors(s).map(|(t, p)| (t, (p - w).max(0.0), (p + w).min(1.0))).collect()
            })
            .collect();
        IntervalDtmc {
            transitions,
            initial: model.initial_state(),
            labeling: model.labeling().clone(),
            rewards: model
                .reward_structures()
                .map(|rs| (rs.name().to_owned(), rs.clone()))
                .collect(),
        }
    }

    /// The degenerate interval model `[p, p]` — its uncertainty set is the
    /// singleton `{model}`, so robust values coincide with the scalar
    /// checker's.
    pub fn degenerate(model: &Dtmc) -> Self {
        Self::from_dtmc(model, 0.0)
    }

    /// Widens a concrete chain with per-transition **Wilson score
    /// intervals** at the given `confidence` (e.g. `0.95`), treating each
    /// probability as an estimate from `sample_size` virtual observations
    /// per row. This is the uncertainty ball robust repair searches over
    /// when no trace counts are available (with counts, prefer
    /// `learn::interval_dtmc_from_traces`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`] unless
    /// `confidence ∈ (0, 1)` and `sample_size > 0`.
    pub fn wilson_around(
        model: &Dtmc,
        confidence: f64,
        sample_size: f64,
    ) -> Result<Self, ModelError> {
        if !(confidence > 0.0 && confidence < 1.0 && confidence.is_finite()) {
            return Err(ModelError::InvalidProbability {
                value: confidence,
                context: "confidence level must be in (0, 1)".into(),
            });
        }
        if sample_size <= 0.0 || !sample_size.is_finite() {
            return Err(ModelError::InvalidProbability {
                value: sample_size,
                context: "virtual sample size must be positive".into(),
            });
        }
        let alpha = 1.0 - confidence;
        let transitions = (0..model.num_states())
            .map(|s| {
                model
                    .successors(s)
                    .map(|(t, p)| {
                        let ci = tml_numerics::stats::wilson_interval_weighted(
                            p * sample_size,
                            sample_size,
                            alpha,
                        );
                        // The Wilson interval always contains the point
                        // estimate, so the original chain stays a member.
                        (t, ci.low.min(p), ci.high.max(p))
                    })
                    .collect()
            })
            .collect();
        Ok(IntervalDtmc {
            transitions,
            initial: model.initial_state(),
            labeling: model.labeling().clone(),
            rewards: model
                .reward_structures()
                .map(|rs| (rs.name().to_owned(), rs.clone()))
                .collect(),
        })
    }

    /// Whether the concrete chain is a member of this uncertainty set:
    /// same state space, every probability inside its `[lo, hi]` (a
    /// transition absent here has the implicit bounds `[0, 0]`).
    pub fn contains(&self, model: &Dtmc) -> bool {
        if model.num_states() != self.num_states() {
            return false;
        }
        let tol = STOCHASTIC_TOLERANCE;
        for s in 0..self.num_states() {
            for (t, p) in model.successors(s) {
                let (lo, hi) = self.bounds(s, t);
                if p < lo - tol || p > hi + tol {
                    return false;
                }
            }
            // Entries with lo > 0 must be present in the member.
            for &(t, lo, _) in self.row(s) {
                if lo > tol && model.probability(s, t) < lo - tol {
                    return false;
                }
            }
        }
        true
    }

    /// The nominal chain at the (row-normalized) interval midpoints,
    /// carrying over labels, rewards and the initial state.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when the midpoints cannot be normalized
    /// into a stochastic row (e.g. an all-zero row).
    pub fn nominal_dtmc(&self) -> Result<Dtmc, ModelError> {
        let mut b = DtmcBuilder::new(self.num_states());
        b.initial_state(self.initial)?;
        for s in 0..self.num_states() {
            let mids: Vec<(usize, f64)> =
                self.row(s).iter().map(|&(t, lo, hi)| (t, (lo + hi) / 2.0)).collect();
            let sum: f64 = mids.iter().map(|&(_, m)| m).sum();
            if sum <= 0.0 || !sum.is_finite() {
                return Err(ModelError::MissingDistribution { state: s });
            }
            for (t, m) in mids {
                if m > 0.0 {
                    b.transition(s, t, m / sum)?;
                }
            }
        }
        self.decorate(&mut b)?;
        b.build()
    }

    /// Deterministically samples a member chain of the uncertainty set:
    /// per row, start from the lower bounds and distribute the remaining
    /// mass `1 − Σ lo` across transitions by seeded fractions of their
    /// slack, topping up greedily so the row sums to one. The same seed
    /// always yields the same member.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] when a row polytope is empty (the set has
    /// no members).
    pub fn sample_member(&self, seed: u64) -> Result<Dtmc, ModelError> {
        let mut b = DtmcBuilder::new(self.num_states());
        b.initial_state(self.initial)?;
        for s in 0..self.num_states() {
            let row = self.row(s);
            if row.is_empty() {
                return Err(ModelError::MissingDistribution { state: s });
            }
            let mut probs: Vec<f64> = row.iter().map(|&(_, lo, _)| lo).collect();
            let mut budget = 1.0 - probs.iter().sum::<f64>();
            if budget < -STOCHASTIC_TOLERANCE {
                return Err(ModelError::NotStochastic { state: s, sum: 1.0 - budget });
            }
            // Pass 1: seeded fraction of each slack.
            for (i, &(t, lo, hi)) in row.iter().enumerate() {
                if budget <= 0.0 {
                    break;
                }
                let frac = splitmix_unit(
                    seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                );
                let take = ((hi - lo) * frac).min(budget);
                probs[i] += take;
                budget -= take;
            }
            // Pass 2: greedy top-up to exhaust the remaining mass.
            for (i, &(_, lo, hi)) in row.iter().enumerate() {
                if budget <= 0.0 {
                    break;
                }
                let take = (hi - lo - (probs[i] - lo)).min(budget).max(0.0);
                probs[i] += take;
                budget -= take;
            }
            if budget > STOCHASTIC_TOLERANCE {
                return Err(ModelError::NotStochastic { state: s, sum: 1.0 - budget });
            }
            // Absorb floating-point residue into any entry with headroom.
            if budget != 0.0 {
                for (i, &(_, lo, hi)) in row.iter().enumerate() {
                    let fixed = probs[i] + budget;
                    if fixed >= lo - STOCHASTIC_TOLERANCE && fixed <= hi + STOCHASTIC_TOLERANCE {
                        probs[i] = fixed.clamp(0.0, 1.0);
                        break;
                    }
                }
            }
            for (i, &(t, ..)) in row.iter().enumerate() {
                if probs[i] > 0.0 {
                    b.transition(s, t, probs[i])?;
                }
            }
        }
        self.decorate(&mut b)?;
        b.build()
    }

    fn decorate(&self, b: &mut DtmcBuilder) -> Result<(), ModelError> {
        for s in 0..self.num_states() {
            for label in self.labeling.labels_of(s) {
                b.label(s, label)?;
            }
        }
        for rs in self.rewards.values() {
            for s in 0..self.num_states() {
                let r = rs.state_reward(s);
                if r != 0.0 {
                    b.state_reward(rs.name(), s, r)?;
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`IntervalDtmc`].
#[derive(Debug, Clone)]
pub struct IntervalDtmcBuilder {
    num_states: usize,
    /// `(from, (to, lo, hi))` in insertion order, repeats included;
    /// [`build`](IntervalDtmcBuilder::build) keeps the last per target.
    rows: Vec<(usize, IntervalTransition)>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
    validate: bool,
}

impl IntervalDtmcBuilder {
    /// Creates a validating builder for `num_states` states.
    pub fn new(num_states: usize) -> Self {
        IntervalDtmcBuilder {
            num_states,
            // Every state needs at least one transition.
            rows: Vec::with_capacity(num_states),
            initial: 0,
            labeling: Labeling::new(num_states),
            rewards: BTreeMap::new(),
            validate: true,
        }
    }

    /// A builder that skips probability and row-polytope validation —
    /// state indices are still checked. Used by fault-injection tests to
    /// hand degenerate uncertainty sets (`lo > hi`, NaN endpoints, empty
    /// polytopes) to the checker, which must reject them with a structured
    /// error instead of building garbage silently.
    pub fn unchecked(num_states: usize) -> Self {
        IntervalDtmcBuilder { validate: false, ..Self::new(num_states) }
    }

    /// Sets the initial state (default `0`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfBounds`] if out of range.
    pub fn initial_state(&mut self, state: usize) -> Result<&mut Self, ModelError> {
        self.check_state(state)?;
        self.initial = state;
        Ok(self)
    }

    /// Adds (or overwrites) the uncertain transition `from → to: [lo, hi]`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfBounds`] for bad indices.
    /// * [`ModelError::InvalidProbability`] (validating builders only) for
    ///   non-finite endpoints, endpoints outside `[0, 1]`, or `lo > hi`.
    pub fn transition(
        &mut self,
        from: usize,
        to: usize,
        lo: f64,
        hi: f64,
    ) -> Result<&mut Self, ModelError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if self.validate {
            for v in [lo, hi] {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(ModelError::InvalidProbability {
                        value: v,
                        context: format!("interval transition {from} -> {to}"),
                    });
                }
            }
            if lo > hi {
                return Err(ModelError::InvalidProbability {
                    value: lo,
                    context: format!("inverted interval [{lo}, {hi}] on {from} -> {to}"),
                });
            }
        }
        self.rows.push((from, (to, lo, hi)));
        Ok(self)
    }

    /// Attaches `label` to `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfBounds`] if out of range.
    pub fn label(&mut self, state: usize, label: &str) -> Result<&mut Self, ModelError> {
        self.labeling.add(state, label)?;
        Ok(self)
    }

    /// Sets the per-step reward of `state` in the named structure.
    ///
    /// # Errors
    ///
    /// Propagates [`RewardStructure::set_state_reward`] errors.
    pub fn state_reward(
        &mut self,
        structure: &str,
        state: usize,
        value: f64,
    ) -> Result<&mut Self, ModelError> {
        structure_mut(&mut self.rewards, structure, self.num_states)
            .set_state_reward(state, value)?;
        Ok(self)
    }

    /// Validates and freezes the interval chain.
    ///
    /// # Errors
    ///
    /// Validating builders return [`ModelError::MissingDistribution`] for a
    /// state without transitions and [`ModelError::NotStochastic`] for an
    /// empty row polytope (`Σ lo > 1` or `Σ hi < 1`).
    pub fn build(&self) -> Result<IntervalDtmc, ModelError> {
        let mut transitions = rows_by_source(self.num_states, &self.rows, |&(from, t)| (from, t));
        for (state, row) in transitions.iter_mut().enumerate() {
            // A stable sort keeps repeated targets in insertion order, so
            // the last bounds given for a target win.
            row.sort_by_key(|&(t, ..)| t);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    *kept = *next;
                }
                same
            });
            if self.validate {
                if row.is_empty() {
                    return Err(ModelError::MissingDistribution { state });
                }
                let lo_sum: f64 = row.iter().map(|&(_, lo, _)| lo).sum();
                let hi_sum: f64 = row.iter().map(|&(.., hi)| hi).sum();
                if lo_sum > 1.0 + STOCHASTIC_TOLERANCE {
                    return Err(ModelError::NotStochastic { state, sum: lo_sum });
                }
                if hi_sum < 1.0 - STOCHASTIC_TOLERANCE {
                    return Err(ModelError::NotStochastic { state, sum: hi_sum });
                }
            }
        }
        Ok(IntervalDtmc {
            transitions,
            initial: self.initial,
            labeling: self.labeling.clone(),
            rewards: self.rewards.clone(),
        })
    }

    fn check_state(&self, state: usize) -> Result<(), ModelError> {
        if state >= self.num_states {
            return Err(ModelError::StateOutOfBounds { state, num_states: self.num_states });
        }
        Ok(())
    }
}

/// One uncertain choice of an interval MDP: an action plus `[lo, hi]`
/// transition bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalChoice {
    /// Index into [`IntervalMdp::action_names`].
    pub action: usize,
    /// `(successor, lo, hi)` triples, sorted by successor.
    pub transitions: Vec<IntervalTransition>,
}

/// A Markov decision process with interval-valued transition
/// probabilities: nondeterminism is resolved by the scheduler, the
/// residual probability uncertainty by nature (the adversary).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalMdp {
    states: Vec<Vec<IntervalChoice>>,
    action_names: Vec<String>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
}

impl IntervalMdp {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of choices available in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn num_choices(&self, state: usize) -> usize {
        self.states[state].len()
    }

    /// The choices of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn choices(&self, state: usize) -> &[IntervalChoice] {
        &self.states[state]
    }

    /// The initial state.
    pub fn initial_state(&self) -> usize {
        self.initial
    }

    /// The state labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The global table of action names.
    pub fn action_names(&self) -> &[String] {
        &self.action_names
    }

    /// Resolves an action id to its name.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not a valid id.
    pub fn action_name(&self, action: usize) -> &str {
        &self.action_names[action]
    }

    /// Looks up a reward structure by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFound`] if no structure has that name.
    pub fn reward_structure(&self, name: &str) -> Result<&RewardStructure, ModelError> {
        self.rewards
            .get(name)
            .ok_or_else(|| ModelError::NotFound { kind: "reward structure", name: name.to_owned() })
    }

    /// The reward structure used when a property does not name one.
    pub fn default_reward_structure(&self) -> Option<&RewardStructure> {
        self.rewards.values().next()
    }

    /// Iterates over all reward structures in name order.
    pub fn reward_structures(&self) -> impl Iterator<Item = &RewardStructure> {
        self.rewards.values()
    }

    /// Widens a concrete MDP by `half_width` per transition, keeping
    /// actions, labels, rewards and the initial state.
    pub fn from_mdp(model: &crate::Mdp, half_width: f64) -> Self {
        let w = half_width.max(0.0);
        let states = (0..model.num_states())
            .map(|s| {
                model
                    .choices(s)
                    .iter()
                    .map(|c| IntervalChoice {
                        action: c.action,
                        transitions: c
                            .transitions
                            .iter()
                            .map(|&(t, p)| (t, (p - w).max(0.0), (p + w).min(1.0)))
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        IntervalMdp {
            states,
            action_names: model.action_names().to_vec(),
            initial: model.initial_state(),
            labeling: model.labeling().clone(),
            rewards: model
                .reward_structures()
                .map(|rs| (rs.name().to_owned(), rs.clone()))
                .collect(),
        }
    }

    /// The degenerate interval MDP whose only member is `model`.
    pub fn degenerate(model: &crate::Mdp) -> Self {
        Self::from_mdp(model, 0.0)
    }
}

/// One state's choice list while building: `(action id, target → (lo, hi))`.
type IntervalChoices = Vec<(usize, BTreeMap<usize, (f64, f64)>)>;

/// Incremental builder for [`IntervalMdp`].
#[derive(Debug, Clone)]
pub struct IntervalMdpBuilder {
    num_states: usize,
    states: Vec<IntervalChoices>,
    action_names: Vec<String>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
    validate: bool,
}

impl IntervalMdpBuilder {
    /// Creates a validating builder for `num_states` states.
    pub fn new(num_states: usize) -> Self {
        IntervalMdpBuilder {
            num_states,
            states: vec![Vec::new(); num_states],
            action_names: Vec::new(),
            initial: 0,
            labeling: Labeling::new(num_states),
            rewards: BTreeMap::new(),
            validate: true,
        }
    }

    /// A builder that skips probability and row-polytope validation (see
    /// [`IntervalDtmcBuilder::unchecked`]).
    pub fn unchecked(num_states: usize) -> Self {
        IntervalMdpBuilder { validate: false, ..Self::new(num_states) }
    }

    /// Sets the initial state (default `0`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfBounds`] if out of range.
    pub fn initial_state(&mut self, state: usize) -> Result<&mut Self, ModelError> {
        self.check_state(state)?;
        self.initial = state;
        Ok(self)
    }

    /// Adds a choice named `action` to `state` with uncertain successor
    /// bounds. Returns the choice's index within the state.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfBounds`] for bad indices.
    /// * [`ModelError::InvalidProbability`] (validating builders only) for
    ///   invalid or inverted interval endpoints.
    /// * [`ModelError::NotStochastic`] (validating builders only) for an
    ///   empty choice polytope.
    pub fn choice(
        &mut self,
        state: usize,
        action: &str,
        dist: &[IntervalTransition],
    ) -> Result<usize, ModelError> {
        self.check_state(state)?;
        let mut row = BTreeMap::new();
        for &(t, lo, hi) in dist {
            self.check_state(t)?;
            if self.validate {
                for v in [lo, hi] {
                    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                        return Err(ModelError::InvalidProbability {
                            value: v,
                            context: format!("choice {action:?} in state {state}"),
                        });
                    }
                }
                if lo > hi {
                    return Err(ModelError::InvalidProbability {
                        value: lo,
                        context: format!(
                            "inverted interval [{lo}, {hi}] in choice {action:?} of state {state}"
                        ),
                    });
                }
            }
            row.insert(t, (lo, hi));
        }
        if self.validate {
            if row.is_empty() {
                return Err(ModelError::MissingDistribution { state });
            }
            let lo_sum: f64 = row.values().map(|&(lo, _)| lo).sum();
            let hi_sum: f64 = row.values().map(|&(_, hi)| hi).sum();
            if lo_sum > 1.0 + STOCHASTIC_TOLERANCE {
                return Err(ModelError::NotStochastic { state, sum: lo_sum });
            }
            if hi_sum < 1.0 - STOCHASTIC_TOLERANCE {
                return Err(ModelError::NotStochastic { state, sum: hi_sum });
            }
        }
        let action_id = match self.action_names.iter().position(|a| a == action) {
            Some(i) => i,
            None => {
                self.action_names.push(action.to_owned());
                self.action_names.len() - 1
            }
        };
        self.states[state].push((action_id, row));
        Ok(self.states[state].len() - 1)
    }

    /// Attaches `label` to `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfBounds`] if out of range.
    pub fn label(&mut self, state: usize, label: &str) -> Result<&mut Self, ModelError> {
        self.labeling.add(state, label)?;
        Ok(self)
    }

    /// Sets the per-step reward of `state` in the named structure.
    ///
    /// # Errors
    ///
    /// Propagates [`RewardStructure::set_state_reward`] errors.
    pub fn state_reward(
        &mut self,
        structure: &str,
        state: usize,
        value: f64,
    ) -> Result<&mut Self, ModelError> {
        let n = self.num_states;
        self.rewards
            .entry(structure.to_owned())
            .or_insert_with(|| RewardStructure::new(structure, n))
            .set_state_reward(state, value)?;
        Ok(self)
    }

    /// Sets the extra reward for taking choice index `choice` in `state`.
    ///
    /// # Errors
    ///
    /// Propagates [`RewardStructure::set_choice_reward`] errors.
    pub fn choice_reward(
        &mut self,
        structure: &str,
        state: usize,
        choice: usize,
        value: f64,
    ) -> Result<&mut Self, ModelError> {
        let n = self.num_states;
        self.rewards
            .entry(structure.to_owned())
            .or_insert_with(|| RewardStructure::new(structure, n))
            .set_choice_reward(state, choice, value)?;
        Ok(self)
    }

    /// Validates and freezes the interval MDP.
    ///
    /// # Errors
    ///
    /// Validating builders return [`ModelError::MissingDistribution`] if
    /// any state offers no choice.
    pub fn build(&self) -> Result<IntervalMdp, ModelError> {
        let mut states = Vec::with_capacity(self.num_states);
        for (state, choices) in self.states.iter().enumerate() {
            if self.validate && choices.is_empty() {
                return Err(ModelError::MissingDistribution { state });
            }
            states.push(
                choices
                    .iter()
                    .map(|(action, row)| IntervalChoice {
                        action: *action,
                        transitions: row.iter().map(|(&t, &(lo, hi))| (t, lo, hi)).collect(),
                    })
                    .collect(),
            );
        }
        Ok(IntervalMdp {
            states,
            action_names: self.action_names.clone(),
            initial: self.initial,
            labeling: self.labeling.clone(),
            rewards: self.rewards.clone(),
        })
    }

    fn check_state(&self, state: usize) -> Result<(), ModelError> {
        if state >= self.num_states {
            return Err(ModelError::StateOutOfBounds { state, num_states: self.num_states });
        }
        Ok(())
    }
}

/// SplitMix64 step mapped to the unit interval — deterministic noise for
/// [`IntervalDtmc::sample_member`].
fn splitmix_unit(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Dtmc {
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.8).unwrap();
        b.transition(0, 2, 0.2).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        b.label(1, "ok").unwrap();
        b.state_reward("steps", 0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_validates_endpoints_and_polytopes() {
        let mut b = IntervalDtmcBuilder::new(2);
        assert!(b.transition(0, 1, 0.5, 0.4).is_err(), "inverted");
        assert!(b.transition(0, 1, -0.1, 0.4).is_err(), "negative");
        assert!(b.transition(0, 1, 0.4, 1.2).is_err(), "above one");
        assert!(b.transition(0, 1, f64::NAN, 0.4).is_err(), "nan");
        assert!(b.transition(0, 5, 0.1, 0.2).is_err(), "target oob");
        b.transition(0, 0, 0.6, 0.7).unwrap();
        b.transition(0, 1, 0.5, 0.9).unwrap();
        b.transition(1, 1, 1.0, 1.0).unwrap();
        // Σ lo = 1.1 > 1: empty polytope.
        assert!(matches!(b.build().unwrap_err(), ModelError::NotStochastic { state: 0, .. }));

        let mut b = IntervalDtmcBuilder::new(2);
        b.transition(0, 1, 0.1, 0.3).unwrap();
        b.transition(1, 1, 1.0, 1.0).unwrap();
        // Σ hi = 0.3 < 1: empty polytope.
        assert!(matches!(b.build().unwrap_err(), ModelError::NotStochastic { state: 0, .. }));
    }

    #[test]
    fn unchecked_builder_accepts_degenerate_sets() {
        let mut b = IntervalDtmcBuilder::unchecked(2);
        b.transition(0, 1, 0.9, 0.1).unwrap(); // inverted, accepted
        b.transition(1, 1, f64::NAN, 1.0).unwrap(); // NaN, accepted
        let m = b.build().unwrap();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.bounds(0, 1), (0.9, 0.1));
    }

    #[test]
    fn from_dtmc_widens_and_contains_original() {
        let d = chain();
        let m = IntervalDtmc::from_dtmc(&d, 0.1);
        let (lo, hi) = m.bounds(0, 1);
        assert!((lo - 0.7).abs() < 1e-12 && (hi - 0.9).abs() < 1e-12);
        assert!(m.contains(&d));
        assert!(m.labeling().has(1, "ok"));
        assert_eq!(m.reward_structure("steps").unwrap().state_reward(0), 1.0);
        // A chain outside the ball is rejected.
        let mut b = DtmcBuilder::new(3);
        b.transition(0, 1, 0.5).unwrap();
        b.transition(0, 2, 0.5).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.transition(2, 2, 1.0).unwrap();
        assert!(!m.contains(&b.build().unwrap()));
    }

    #[test]
    fn degenerate_set_is_singleton() {
        let d = chain();
        let m = IntervalDtmc::degenerate(&d);
        assert_eq!(m.bounds(0, 1), (0.8, 0.8));
        assert!(m.contains(&d));
        let nominal = m.nominal_dtmc().unwrap();
        assert!((nominal.probability(0, 1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn wilson_ball_contains_nominal_and_narrows_with_samples() {
        let d = chain();
        let small = IntervalDtmc::wilson_around(&d, 0.95, 100.0).unwrap();
        let large = IntervalDtmc::wilson_around(&d, 0.95, 10_000.0).unwrap();
        assert!(small.contains(&d));
        assert!(large.contains(&d));
        let (slo, shi) = small.bounds(0, 1);
        let (llo, lhi) = large.bounds(0, 1);
        assert!(lhi - llo < shi - slo, "more samples narrow the ball");
        assert!(IntervalDtmc::wilson_around(&d, 1.5, 100.0).is_err());
        assert!(IntervalDtmc::wilson_around(&d, 0.95, 0.0).is_err());
    }

    #[test]
    fn sampled_members_stay_inside_the_ball() {
        let d = chain();
        let m = IntervalDtmc::from_dtmc(&d, 0.15);
        for seed in 0..32 {
            let member = m.sample_member(seed).unwrap();
            assert!(m.contains(&member), "seed {seed}");
        }
        // Distinct seeds produce distinct members for a non-degenerate set.
        let a = m.sample_member(1).unwrap();
        let b = m.sample_member(2).unwrap();
        assert_ne!(a.probability(0, 1), b.probability(0, 1));
        // Degenerate sets sample their unique member.
        let exact = IntervalDtmc::degenerate(&d).sample_member(7).unwrap();
        assert!((exact.probability(0, 1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn interval_mdp_builder_and_widening() {
        let mut b = IntervalMdpBuilder::new(2);
        b.choice(0, "go", &[(0, 0.1, 0.3), (1, 0.7, 0.9)]).unwrap();
        b.choice(0, "stay", &[(0, 1.0, 1.0)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.num_choices(0), 2);
        assert_eq!(m.action_name(m.choices(0)[0].action), "go");
        assert!(m.labeling().has(1, "goal"));

        let mut mb = crate::MdpBuilder::new(2);
        mb.choice(0, "go", &[(1, 1.0)]).unwrap();
        mb.choice(1, "stay", &[(1, 1.0)]).unwrap();
        let concrete = mb.build().unwrap();
        let widened = IntervalMdp::from_mdp(&concrete, 0.1);
        assert_eq!(widened.choices(0)[0].transitions, vec![(1, 0.9, 1.0)]);
        let exact = IntervalMdp::degenerate(&concrete);
        assert_eq!(exact.choices(0)[0].transitions, vec![(1, 1.0, 1.0)]);
    }

    #[test]
    fn interval_mdp_choice_validation() {
        let mut b = IntervalMdpBuilder::new(1);
        assert!(b.choice(0, "a", &[(0, 0.5, 0.4)]).is_err(), "inverted");
        assert!(b.choice(0, "a", &[(0, 0.1, 0.2)]).is_err(), "empty polytope");
        assert!(b.choice(0, "a", &[]).is_err(), "empty row");
        let mut u = IntervalMdpBuilder::unchecked(1);
        u.choice(0, "a", &[(0, 0.5, 0.4)]).unwrap();
        assert!(u.build().is_ok());
    }
}
