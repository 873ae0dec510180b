use rand::{Rng, RngExt};

use crate::{Dtmc, Mdp, ModelError};

/// A deterministic memoryless policy: one choice index per state.
///
/// Choice indices refer to positions in [`Mdp::choices`], not action ids —
/// this makes a policy unambiguous even when a state offers the same action
/// name twice.
///
/// # Example
///
/// ```
/// use tml_models::{MdpBuilder, DeterministicPolicy};
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut b = MdpBuilder::new(2);
/// b.choice(0, "go", &[(1, 1.0)])?;
/// b.choice(0, "stay", &[(0, 1.0)])?;
/// b.choice(1, "stay", &[(1, 1.0)])?;
/// let mdp = b.build()?;
/// let pi = DeterministicPolicy::new(vec![0, 0]);
/// let chain = pi.induce(&mdp)?;
/// assert_eq!(chain.probability(0, 1), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicPolicy {
    choices: Vec<usize>,
}

impl DeterministicPolicy {
    /// Wraps a vector of per-state choice indices.
    pub fn new(choices: Vec<usize>) -> Self {
        DeterministicPolicy { choices }
    }

    /// The uniform "first choice everywhere" policy for an MDP.
    pub fn first_choice(mdp: &Mdp) -> Self {
        DeterministicPolicy { choices: vec![0; mdp.num_states()] }
    }

    /// The choice index selected in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn choice(&self, state: usize) -> usize {
        self.choices[state]
    }

    /// Borrow the underlying choice vector.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.choices.len()
    }

    /// The DTMC obtained by running `mdp` under this policy.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PolicyMismatch`] if the policy does not fit the
    /// MDP.
    pub fn induce(&self, mdp: &Mdp) -> Result<Dtmc, ModelError> {
        mdp.induce(&self.choices)
    }

    /// The action ids this policy takes, per state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PolicyMismatch`] if the policy does not fit the
    /// MDP.
    pub fn action_ids(&self, mdp: &Mdp) -> Result<Vec<usize>, ModelError> {
        if self.choices.len() != mdp.num_states() {
            return Err(ModelError::PolicyMismatch {
                detail: format!(
                    "policy covers {} states, model has {}",
                    self.choices.len(),
                    mdp.num_states()
                ),
            });
        }
        self.choices
            .iter()
            .enumerate()
            .map(|(s, &c)| {
                mdp.choices(s).get(c).map(|ch| ch.action).ok_or_else(|| {
                    ModelError::PolicyMismatch {
                        detail: format!(
                            "state {s} has {} choices, policy picked {c}",
                            mdp.num_choices(s)
                        ),
                    }
                })
            })
            .collect()
    }
}

/// A stochastic memoryless policy: a distribution over choice indices per
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticPolicy {
    probs: Vec<Vec<f64>>,
}

impl StochasticPolicy {
    /// Wraps per-state distributions over choice indices.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidProbability`] if any entry is negative
    /// or non-finite, or a row does not sum to one (tolerance 1e-9). Empty
    /// rows are rejected.
    pub fn new(probs: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        for (s, row) in probs.iter().enumerate() {
            if row.is_empty() {
                return Err(ModelError::MissingDistribution { state: s });
            }
            let mut sum = 0.0;
            for &p in row {
                if !p.is_finite() || p < 0.0 {
                    return Err(ModelError::InvalidProbability {
                        value: p,
                        context: format!("policy distribution in state {s}"),
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(ModelError::NotStochastic { state: s, sum });
            }
        }
        Ok(StochasticPolicy { probs })
    }

    /// The uniform policy over the choices of `mdp`.
    pub fn uniform(mdp: &Mdp) -> Self {
        let probs = (0..mdp.num_states())
            .map(|s| {
                let k = mdp.num_choices(s);
                vec![1.0 / k as f64; k]
            })
            .collect();
        StochasticPolicy { probs }
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.probs.len()
    }

    /// The probability of picking choice `c` in `state`.
    pub fn prob(&self, state: usize, c: usize) -> f64 {
        self.probs.get(state).and_then(|r| r.get(c)).copied().unwrap_or(0.0)
    }

    /// Samples a choice index for `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, state: usize) -> usize {
        let row = &self.probs[state];
        let mut u: f64 = rng.random_range(0.0..1.0);
        for (c, &p) in row.iter().enumerate() {
            if u < p {
                return c;
            }
            u -= p;
        }
        row.len() - 1
    }

    /// The DTMC obtained by running `mdp` under this policy (mixing the
    /// choice distributions), folding expected choice rewards into state
    /// rewards.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PolicyMismatch`] if shapes do not line up.
    pub fn induce(&self, mdp: &Mdp) -> Result<Dtmc, ModelError> {
        if self.probs.len() != mdp.num_states() {
            return Err(ModelError::PolicyMismatch {
                detail: format!(
                    "policy covers {} states, model has {}",
                    self.probs.len(),
                    mdp.num_states()
                ),
            });
        }
        let mut b = crate::DtmcBuilder::new(mdp.num_states());
        b.initial_state(mdp.initial_state())?;
        for s in 0..mdp.num_states() {
            let row = &self.probs[s];
            if row.len() != mdp.num_choices(s) {
                return Err(ModelError::PolicyMismatch {
                    detail: format!(
                        "state {s}: policy has {} choice probabilities, model offers {}",
                        row.len(),
                        mdp.num_choices(s)
                    ),
                });
            }
            for (c, &pc) in row.iter().enumerate() {
                if pc == 0.0 {
                    continue;
                }
                for &(t, p) in &mdp.choices(s)[c].transitions {
                    b.transition(s, t, pc * p)?;
                }
            }
            for label in mdp.labeling().labels_of(s) {
                b.label(s, label)?;
            }
        }
        for rs in mdp.reward_structures() {
            for s in 0..mdp.num_states() {
                let expected: f64 = self.probs[s]
                    .iter()
                    .enumerate()
                    .map(|(c, &pc)| pc * rs.step_reward(s, c))
                    .sum();
                b.state_reward(rs.name(), s, expected)?;
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MdpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mdp() -> Mdp {
        let mut b = MdpBuilder::new(2);
        b.choice(0, "go", &[(1, 1.0)]).unwrap();
        b.choice(0, "stay", &[(0, 1.0)]).unwrap();
        b.choice(1, "stay", &[(1, 1.0)]).unwrap();
        b.label(1, "goal").unwrap();
        b.state_reward("cost", 0, 1.0).unwrap();
        b.choice_reward("cost", 0, 1, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_policy_induces() {
        let m = mdp();
        let pi = DeterministicPolicy::new(vec![0, 0]);
        let d = pi.induce(&m).unwrap();
        assert_eq!(d.probability(0, 1), 1.0);
        assert_eq!(pi.action_ids(&m).unwrap(), vec![0, 1]);
        assert_eq!(pi.choice(0), 0);
        assert_eq!(pi.num_states(), 2);
    }

    #[test]
    fn first_choice_policy() {
        let m = mdp();
        let pi = DeterministicPolicy::first_choice(&m);
        assert_eq!(pi.choices(), &[0, 0]);
    }

    #[test]
    fn action_ids_detects_mismatch() {
        let m = mdp();
        assert!(DeterministicPolicy::new(vec![0]).action_ids(&m).is_err());
        assert!(DeterministicPolicy::new(vec![9, 0]).action_ids(&m).is_err());
    }

    #[test]
    fn stochastic_policy_mixes() {
        let m = mdp();
        let pi = StochasticPolicy::new(vec![vec![0.25, 0.75], vec![1.0]]).unwrap();
        let d = pi.induce(&m).unwrap();
        assert!((d.probability(0, 1) - 0.25).abs() < 1e-12);
        assert!((d.probability(0, 0) - 0.75).abs() < 1e-12);
        // expected reward: 1.0 state + 0.75 * 1.0 choice reward
        assert!((d.reward_structure("cost").unwrap().state_reward(0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn stochastic_validation() {
        assert!(StochasticPolicy::new(vec![vec![0.5, 0.4]]).is_err());
        assert!(StochasticPolicy::new(vec![vec![-0.5, 1.5]]).is_err());
        assert!(StochasticPolicy::new(vec![vec![]]).is_err());
    }

    #[test]
    fn uniform_policy_sums_to_one() {
        let m = mdp();
        let pi = StochasticPolicy::uniform(&m);
        assert_eq!(pi.prob(0, 0), 0.5);
        assert_eq!(pi.prob(1, 0), 1.0);
        assert_eq!(pi.prob(5, 0), 0.0);
    }

    #[test]
    fn stochastic_sampling_frequencies() {
        let m = mdp();
        let pi = StochasticPolicy::new(vec![vec![0.3, 0.7], vec![1.0]]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let zeros = (0..n).filter(|_| pi.sample(&mut rng, 0) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "got {frac}");
        let _ = m;
    }

    #[test]
    fn stochastic_induce_shape_mismatch() {
        let m = mdp();
        let pi = StochasticPolicy::new(vec![vec![1.0]]).unwrap();
        assert!(pi.induce(&m).is_err());
        let pi2 = StochasticPolicy::new(vec![vec![1.0], vec![1.0]]).unwrap();
        assert!(pi2.induce(&m).is_err()); // state 0 offers 2 choices
    }
}
