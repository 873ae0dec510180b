use std::collections::BTreeMap;

use rand::{Rng, RngExt};

use crate::{Dtmc, DtmcBuilder, Labeling, ModelError, Path, RewardStructure, STOCHASTIC_TOLERANCE};

/// One nondeterministic choice available in an MDP state: an action name
/// plus a full probability distribution over successor states.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Index into [`Mdp::action_names`].
    pub action: usize,
    /// `(successor, probability)` pairs, sorted by successor.
    pub transitions: Vec<(usize, f64)>,
}

/// A Markov decision process `M = (S, A, R, P, L)` with labels and named
/// reward structures.
///
/// Each state offers one or more [`Choice`]s; a scheduler (policy) resolves
/// the nondeterminism, inducing a [`Dtmc`]. Construct instances via
/// [`MdpBuilder`].
///
/// # Example
///
/// ```
/// use tml_models::MdpBuilder;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut b = MdpBuilder::new(2);
/// b.choice(0, "risky", &[(0, 0.5), (1, 0.5)])?;
/// b.choice(0, "safe", &[(0, 1.0)])?;
/// b.choice(1, "stay", &[(1, 1.0)])?;
/// let mdp = b.build()?;
/// assert_eq!(mdp.num_choices(0), 2);
/// assert_eq!(mdp.action_name(mdp.choices(0)[0].action), "risky");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mdp {
    states: Vec<Vec<Choice>>,
    action_names: Vec<String>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
}

impl Mdp {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Total number of state–choice pairs.
    pub fn total_choices(&self) -> usize {
        self.states.iter().map(Vec::len).sum()
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
    pub fn choices(&self, state: usize) -> &[Choice] {
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

    /// Looks up an action id by name.
    pub fn action_id(&self, name: &str) -> Option<usize> {
        self.action_names.iter().position(|a| a == name)
    }

    /// Returns the index of the choice with the given action id in `state`,
    /// if that action is available there.
    pub fn choice_for_action(&self, state: usize, action: usize) -> Option<usize> {
        self.states.get(state)?.iter().position(|c| c.action == action)
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

    /// Induces the DTMC obtained by resolving every state with the given
    /// per-state choice indices, folding choice rewards into state rewards.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PolicyMismatch`] if `choice_of` has the wrong
    /// length or selects a nonexistent choice.
    pub fn induce(&self, choice_of: &[usize]) -> Result<Dtmc, ModelError> {
        if choice_of.len() != self.num_states() {
            return Err(ModelError::PolicyMismatch {
                detail: format!(
                    "policy covers {} states, model has {}",
                    choice_of.len(),
                    self.num_states()
                ),
            });
        }
        let mut b = DtmcBuilder::new(self.num_states());
        b.initial_state(self.initial)?;
        for (s, &c) in choice_of.iter().enumerate() {
            let choices = &self.states[s];
            let choice = choices.get(c).ok_or_else(|| ModelError::PolicyMismatch {
                detail: format!("state {s} has {} choices, policy picked {c}", choices.len()),
            })?;
            for &(t, p) in &choice.transitions {
                b.transition(s, t, p)?;
            }
        }
        for s in 0..self.num_states() {
            for label in self.labeling.labels_of(s) {
                b.label(s, label)?;
            }
        }
        for rs in self.rewards.values() {
            for (s, &choice) in choice_of.iter().enumerate() {
                b.state_reward(rs.name(), s, rs.step_reward(s, choice))?;
            }
        }
        b.build()
    }

    /// Samples a path of at most `max_steps` transitions starting at the
    /// initial state, resolving nondeterminism with `pick` (which receives
    /// the current state and must return a valid choice index) and stopping
    /// early when `stop` holds.
    pub fn sample_path<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        max_steps: usize,
        mut pick: impl FnMut(&mut R, usize) -> usize,
        stop: impl Fn(usize) -> bool,
    ) -> Path {
        let mut states = vec![self.initial];
        let mut actions = Vec::new();
        let mut current = self.initial;
        for _ in 0..max_steps {
            if stop(current) {
                break;
            }
            let c = pick(rng, current);
            let choice = &self.states[current][c];
            actions.push(choice.action);
            current = sample_from(rng, &choice.transitions);
            states.push(current);
        }
        Path { states, actions }
    }
}

fn sample_from<R: Rng + ?Sized>(rng: &mut R, dist: &[(usize, f64)]) -> usize {
    let mut u: f64 = rng.random_range(0.0..1.0);
    for &(succ, p) in dist {
        if u < p {
            return succ;
        }
        u -= p;
    }
    dist.last().map(|&(s, _)| s).expect("choice has at least one transition")
}

/// Incremental builder for [`Mdp`].
#[derive(Debug, Clone)]
pub struct MdpBuilder {
    num_states: usize,
    states: Vec<Vec<(usize, BTreeMap<usize, f64>)>>,
    action_names: Vec<String>,
    initial: usize,
    labeling: Labeling,
    rewards: BTreeMap<String, RewardStructure>,
}

impl MdpBuilder {
    /// Creates a builder for an MDP with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        MdpBuilder {
            num_states,
            states: vec![Vec::new(); num_states],
            action_names: Vec::new(),
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

    /// Adds a choice named `action` to `state` with the given successor
    /// distribution. Returns the choice's index within the state.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfBounds`] for bad indices.
    /// * [`ModelError::InvalidProbability`] for probabilities outside `[0,1]`.
    /// * [`ModelError::NotStochastic`] if the distribution does not sum to 1.
    pub fn choice(
        &mut self,
        state: usize,
        action: &str,
        dist: &[(usize, f64)],
    ) -> Result<usize, ModelError> {
        self.check_state(state)?;
        let mut row = BTreeMap::new();
        let mut sum = 0.0;
        for &(t, p) in dist {
            self.check_state(t)?;
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ModelError::InvalidProbability {
                    value: p,
                    context: format!("choice {action:?} in state {state}"),
                });
            }
            if p > 0.0 {
                *row.entry(t).or_insert(0.0) += p;
                sum += p;
            }
        }
        if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
            return Err(ModelError::NotStochastic { state, sum });
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

    /// Validates and freezes the MDP.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingDistribution`] if any state offers no
    /// choice.
    pub fn build(&self) -> Result<Mdp, ModelError> {
        let mut states = Vec::with_capacity(self.num_states);
        for (state, choices) in self.states.iter().enumerate() {
            if choices.is_empty() {
                return Err(ModelError::MissingDistribution { state });
            }
            states.push(
                choices
                    .iter()
                    .map(|(action, row)| Choice {
                        action: *action,
                        transitions: row.iter().map(|(&t, &p)| (t, p)).collect(),
                    })
                    .collect(),
            );
        }
        Ok(Mdp {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mdp() -> Mdp {
        let mut b = MdpBuilder::new(3);
        b.choice(0, "a", &[(1, 0.5), (2, 0.5)]).unwrap();
        b.choice(0, "b", &[(2, 1.0)]).unwrap();
        b.choice(1, "a", &[(1, 1.0)]).unwrap();
        b.choice(2, "a", &[(2, 1.0)]).unwrap();
        b.label(2, "goal").unwrap();
        b.state_reward("cost", 0, 1.0).unwrap();
        b.choice_reward("cost", 0, 1, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_and_accessors() {
        let m = sample_mdp();
        assert_eq!(m.num_states(), 3);
        assert_eq!(m.total_choices(), 4);
        assert_eq!(m.num_choices(0), 2);
        assert_eq!(m.action_names(), &["a".to_owned(), "b".to_owned()]);
        assert_eq!(m.action_id("b"), Some(1));
        assert_eq!(m.action_id("zzz"), None);
        assert_eq!(m.choice_for_action(0, 1), Some(1));
        assert_eq!(m.choice_for_action(1, 1), None);
        assert_eq!(m.action_name(0), "a");
    }

    #[test]
    fn build_rejects_choiceless_state() {
        let mut b = MdpBuilder::new(2);
        b.choice(0, "a", &[(0, 1.0)]).unwrap();
        assert!(matches!(b.build().unwrap_err(), ModelError::MissingDistribution { state: 1 }));
    }

    #[test]
    fn choice_validation() {
        let mut b = MdpBuilder::new(1);
        assert!(b.choice(0, "a", &[(0, 0.9)]).is_err());
        assert!(b.choice(0, "a", &[(0, -0.1), (0, 1.1)]).is_err());
        assert!(b.choice(5, "a", &[(0, 1.0)]).is_err());
        assert!(b.choice(0, "a", &[(7, 1.0)]).is_err());
    }

    #[test]
    fn induce_folds_rewards_and_labels() {
        let m = sample_mdp();
        let d = m.induce(&[1, 0, 0]).unwrap();
        assert_eq!(d.probability(0, 2), 1.0);
        assert!(d.labeling().has(2, "goal"));
        // state reward 1.0 + choice reward 0.5 for choice index 1 in state 0
        assert_eq!(d.reward_structure("cost").unwrap().state_reward(0), 1.5);

        let d2 = m.induce(&[0, 0, 0]).unwrap();
        assert_eq!(d2.probability(0, 1), 0.5);
        assert_eq!(d2.reward_structure("cost").unwrap().state_reward(0), 1.0);
    }

    #[test]
    fn induce_rejects_bad_policy() {
        let m = sample_mdp();
        assert!(m.induce(&[0, 0]).is_err());
        assert!(m.induce(&[5, 0, 0]).is_err());
    }

    #[test]
    fn sample_path_respects_picker() {
        let m = sample_mdp();
        let mut rng = StdRng::seed_from_u64(3);
        // Always pick the last available choice: in state 0 that is "b",
        // which moves to the absorbing goal state 2 with certainty.
        let path = m.sample_path(&mut rng, 10, |_, s| m.num_choices(s) - 1, |s| s == 2);
        assert_eq!(path.states[0], 0);
        assert_eq!(*path.states.last().unwrap(), 2);
        assert_eq!(path.actions.len(), path.states.len() - 1);
    }

    #[test]
    fn duplicate_action_names_are_interned() {
        let m = sample_mdp();
        // "a" used in three states but appears once in the table
        assert_eq!(m.action_names().iter().filter(|n| *n == "a").count(), 1);
    }
}
