use std::collections::BTreeMap;

use rand::{Rng, RngExt};

use crate::reward::structure_mut;
use crate::{Labeling, ModelError, RewardStructure, STOCHASTIC_TOLERANCE};

/// A discrete-time Markov chain with labels and named reward structures.
///
/// States are `0..num_states()`. Each state has a full probability
/// distribution over successor states (validated at
/// [`DtmcBuilder::build`]). The chain also records:
///
/// * an *initial state* (defaults to `0`),
/// * a [`Labeling`] assigning atomic propositions to states,
/// * zero or more named [`RewardStructure`]s.
///
/// Construct instances through [`DtmcBuilder`]; a built `Dtmc` is immutable,
/// which lets the checker cache qualitative results safely.
///
/// # Example
///
/// ```
/// use tml_models::DtmcBuilder;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut b = DtmcBuilder::new(3);
/// b.transition(0, 1, 0.5)?;
/// b.transition(0, 2, 0.5)?;
/// b.transition(1, 1, 1.0)?;
/// b.transition(2, 2, 1.0)?;
/// let chain = b.build()?;
/// assert_eq!(chain.successors(0).count(), 2);
/// assert_eq!(chain.probability(0, 1), 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc {
    transitions: Vec<Vec<(usize, f64)>>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
}

impl Dtmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Number of non-zero transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The initial state.
    pub fn initial_state(&self) -> usize {
        self.initial
    }

    /// Iterates over the `(successor, probability)` pairs of `state`, in
    /// increasing successor order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.transitions[state].iter().copied()
    }

    /// The probability of moving from `from` to `to` (zero if absent).
    pub fn probability(&self, from: usize, to: usize) -> f64 {
        self.transitions
            .get(from)
            .and_then(|row| row.iter().find(|(t, _)| *t == to))
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// The state labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
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

    /// The reward structure used when a property does not name one: the
    /// lexicographically first, if any exists.
    pub fn default_reward_structure(&self) -> Option<&RewardStructure> {
        self.rewards.values().next()
    }

    /// Iterates over all reward structures in name order.
    pub fn reward_structures(&self) -> impl Iterator<Item = &RewardStructure> {
        self.rewards.values()
    }

    /// Samples a path of at most `max_steps` transitions starting at the
    /// initial state, stopping early when `stop` returns true for the
    /// current state.
    ///
    /// The returned vector always contains at least the start state.
    pub fn sample_path<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        max_steps: usize,
        stop: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut path = vec![self.initial];
        let mut current = self.initial;
        for _ in 0..max_steps {
            if stop(current) {
                break;
            }
            current = self.sample_successor(rng, current);
            path.push(current);
        }
        path
    }

    /// Samples one successor of `state` according to its distribution.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn sample_successor<R: Rng + ?Sized>(&self, rng: &mut R, state: usize) -> usize {
        let row = &self.transitions[state];
        let mut u: f64 = rng.random_range(0.0..1.0);
        for &(succ, p) in row {
            if u < p {
                return succ;
            }
            u -= p;
        }
        // Floating-point slack: fall back to the last successor.
        row.last().map(|&(s, _)| s).unwrap_or(state)
    }

    /// Returns a copy of this chain with one transition probability row
    /// replaced. The new row must be a full distribution over its targets.
    ///
    /// This is the low-level mutation used by model repair when
    /// instantiating a perturbation candidate.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfBounds`] for a bad state index.
    /// * [`ModelError::InvalidProbability`] / [`ModelError::NotStochastic`]
    ///   if the new row is not a distribution.
    pub fn with_row(&self, state: usize, row: Vec<(usize, f64)>) -> Result<Dtmc, ModelError> {
        if state >= self.num_states() {
            return Err(ModelError::StateOutOfBounds { state, num_states: self.num_states() });
        }
        let mut sum = 0.0;
        for &(succ, p) in &row {
            if succ >= self.num_states() {
                return Err(ModelError::StateOutOfBounds {
                    state: succ,
                    num_states: self.num_states(),
                });
            }
            if !(0.0..=1.0 + STOCHASTIC_TOLERANCE).contains(&p) || !p.is_finite() {
                return Err(ModelError::InvalidProbability {
                    value: p,
                    context: format!("replacement row for state {state}"),
                });
            }
            sum += p;
        }
        if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
            return Err(ModelError::NotStochastic { state, sum });
        }
        let mut new = self.clone();
        let mut sorted = row;
        sorted.sort_by_key(|&(t, _)| t);
        new.transitions[state] = sorted;
        Ok(new)
    }
}

/// Incremental builder for [`Dtmc`].
///
/// Accumulate transitions, labels and rewards, then call
/// [`build`](DtmcBuilder::build), which validates that every state has a
/// full outgoing distribution.
#[derive(Debug, Clone)]
pub struct DtmcBuilder {
    num_states: usize,
    /// `(from, to, p)` in insertion order, duplicates included;
    /// [`build`](DtmcBuilder::build) groups, sorts and merges them.
    transitions: Vec<(usize, usize, f64)>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
}

impl DtmcBuilder {
    /// Creates a builder for a chain with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        DtmcBuilder {
            num_states,
            // Every state needs at least one transition.
            transitions: Vec::with_capacity(num_states),
            initial: 0,
            labeling: Labeling::new(num_states),
            rewards: BTreeMap::new(),
        }
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

    /// Adds (or accumulates onto) the transition `from → to` with
    /// probability `p`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfBounds`] for bad indices.
    /// * [`ModelError::InvalidProbability`] if `p` is not in `[0, 1]`.
    pub fn transition(&mut self, from: usize, to: usize, p: f64) -> Result<&mut Self, ModelError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(ModelError::InvalidProbability {
                value: p,
                context: format!("transition {from} -> {to}"),
            });
        }
        if p > 0.0 {
            self.transitions.push((from, to, p));
        }
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

    /// Sets the per-step reward of `state` in the named reward structure,
    /// creating the structure if necessary.
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

    /// Validates and freezes the chain.
    ///
    /// # Errors
    ///
    /// * [`ModelError::MissingDistribution`] if a state has no outgoing
    ///   transition.
    /// * [`ModelError::NotStochastic`] if a state's outgoing probabilities
    ///   do not sum to one (within [`STOCHASTIC_TOLERANCE`]).
    pub fn build(&self) -> Result<Dtmc, ModelError> {
        let mut transitions =
            rows_by_source(self.num_states, &self.transitions, |&(from, to, p)| (from, (to, p)));
        for (state, row) in transitions.iter_mut().enumerate() {
            if row.is_empty() {
                return Err(ModelError::MissingDistribution { state });
            }
            // A stable sort keeps repeated targets in insertion order, so
            // each merged probability is summed in the order it was added.
            row.sort_by_key(|&(t, _)| t);
            row.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
            let sum: f64 = row.iter().map(|&(_, p)| p).sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(ModelError::NotStochastic { state, sum });
            }
        }
        Ok(Dtmc {
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

/// Groups builder entries into one row per source state, each row in
/// insertion order and allocated once at its final length.
pub(crate) fn rows_by_source<E, T>(
    num_states: usize,
    entries: &[E],
    split: impl Fn(&E) -> (usize, T),
) -> Vec<Vec<T>> {
    let mut lens = vec![0usize; num_states];
    for e in entries {
        lens[split(e).0] += 1;
    }
    let mut rows: Vec<Vec<T>> = lens.into_iter().map(Vec::with_capacity).collect();
    for e in entries {
        let (from, entry) = split(e);
        rows[from].push(entry);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_state() -> Dtmc {
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 0, 0.25).unwrap();
        b.transition(0, 1, 0.75).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.label(1, "goal").unwrap();
        b.state_reward("cost", 0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let c = two_state();
        assert_eq!(c.num_states(), 2);
        assert_eq!(c.num_transitions(), 3);
        assert_eq!(c.initial_state(), 0);
        assert_eq!(c.probability(0, 1), 0.75);
        assert_eq!(c.probability(1, 0), 0.0);
        assert!(c.labeling().has(1, "goal"));
        assert_eq!(c.reward_structure("cost").unwrap().state_reward(0), 1.0);
        assert!(c.reward_structure("nope").is_err());
        assert_eq!(c.default_reward_structure().unwrap().name(), "cost");
    }

    #[test]
    fn build_rejects_deadlock_and_substochastic() {
        let b = DtmcBuilder::new(2);
        assert!(matches!(b.build().unwrap_err(), ModelError::MissingDistribution { state: 0 }));

        let mut b = DtmcBuilder::new(1);
        b.transition(0, 0, 0.5).unwrap();
        assert!(matches!(b.build().unwrap_err(), ModelError::NotStochastic { state: 0, .. }));
    }

    #[test]
    fn transition_accumulates() {
        let mut b = DtmcBuilder::new(1);
        b.transition(0, 0, 0.5).unwrap();
        b.transition(0, 0, 0.5).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.probability(0, 0), 1.0);
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut b = DtmcBuilder::new(1);
        assert!(b.transition(0, 0, -0.1).is_err());
        assert!(b.transition(0, 0, 1.5).is_err());
        assert!(b.transition(0, 0, f64::NAN).is_err());
        assert!(b.transition(0, 3, 0.5).is_err());
    }

    #[test]
    fn sampling_reaches_absorbing_goal() {
        let c = two_state();
        let mut rng = StdRng::seed_from_u64(7);
        let path = c.sample_path(&mut rng, 1000, |s| c.labeling().has(s, "goal"));
        assert_eq!(*path.last().unwrap(), 1);
        assert!(path.len() >= 2);
    }

    #[test]
    fn sample_successor_distribution_roughly_correct() {
        let c = two_state();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let hits = (0..n).filter(|_| c.sample_successor(&mut rng, 0) == 1).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn with_row_replaces_distribution() {
        let c = two_state();
        let c2 = c.with_row(0, vec![(1, 0.4), (0, 0.6)]).unwrap();
        assert_eq!(c2.probability(0, 1), 0.4);
        assert_eq!(c2.probability(0, 0), 0.6);
        // original untouched
        assert_eq!(c.probability(0, 1), 0.75);
        assert!(c.with_row(0, vec![(0, 0.5)]).is_err());
        assert!(c.with_row(9, vec![(0, 1.0)]).is_err());
        assert!(c.with_row(0, vec![(0, 0.5), (1, 0.6)]).is_err());
    }

    #[test]
    fn initial_state_setting() {
        let mut b = DtmcBuilder::new(2);
        b.transition(0, 1, 1.0).unwrap();
        b.transition(1, 1, 1.0).unwrap();
        b.initial_state(1).unwrap();
        assert!(b.initial_state(5).is_err());
        assert_eq!(b.build().unwrap().initial_state(), 1);
    }
}
