use std::collections::BTreeMap;

use crate::ModelError;

/// A named reward structure: a non-negative reward per state and,
/// optionally, per state–choice pair.
///
/// Mirrors PRISM's `rewards "name" ... endrewards` blocks. The checker's
/// `R{"name"}⋈c [...]` operator refers to these by name. For DTMCs only the
/// state rewards are used; for MDPs the reward gained per step from state
/// `s` under choice `c` is `state_reward(s) + choice_reward(s, c)`.
///
/// # Example
///
/// ```
/// use tml_models::RewardStructure;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut r = RewardStructure::new("attempts", 3);
/// r.set_state_reward(0, 1.0)?;
/// assert_eq!(r.state_reward(0), 1.0);
/// assert_eq!(r.state_reward(2), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RewardStructure {
    name: String,
    state_rewards: Vec<f64>,
    /// `choice_rewards[s][c]`, lazily sized per state.
    choice_rewards: Vec<Vec<f64>>,
}

impl RewardStructure {
    /// Creates an all-zero reward structure over `num_states` states.
    pub fn new(name: &str, num_states: usize) -> Self {
        RewardStructure {
            name: name.to_owned(),
            state_rewards: vec![0.0; num_states],
            choice_rewards: vec![Vec::new(); num_states],
        }
    }

    /// The structure's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states covered.
    pub fn num_states(&self) -> usize {
        self.state_rewards.len()
    }

    /// Sets the reward gained on every step taken *from* `state`.
    ///
    /// # Errors
    ///
    /// * [`ModelError::StateOutOfBounds`] if `state` is out of range.
    /// * [`ModelError::InvalidReward`] if `value` is negative or non-finite.
    pub fn set_state_reward(&mut self, state: usize, value: f64) -> Result<(), ModelError> {
        if state >= self.state_rewards.len() {
            return Err(ModelError::StateOutOfBounds {
                state,
                num_states: self.state_rewards.len(),
            });
        }
        validate_reward(value, "state reward")?;
        self.state_rewards[state] = value;
        Ok(())
    }

    /// Sets the extra reward gained when taking choice index `choice` in
    /// `state` (MDPs only).
    ///
    /// # Errors
    ///
    /// Same conditions as [`set_state_reward`](Self::set_state_reward).
    pub fn set_choice_reward(
        &mut self,
        state: usize,
        choice: usize,
        value: f64,
    ) -> Result<(), ModelError> {
        if state >= self.choice_rewards.len() {
            return Err(ModelError::StateOutOfBounds {
                state,
                num_states: self.choice_rewards.len(),
            });
        }
        validate_reward(value, "choice reward")?;
        let row = &mut self.choice_rewards[state];
        if row.len() <= choice {
            row.resize(choice + 1, 0.0);
        }
        row[choice] = value;
        Ok(())
    }

    /// The reward gained on each step from `state` (zero when out of range).
    pub fn state_reward(&self, state: usize) -> f64 {
        self.state_rewards.get(state).copied().unwrap_or(0.0)
    }

    /// The extra reward for taking `choice` in `state` (zero by default).
    pub fn choice_reward(&self, state: usize, choice: usize) -> f64 {
        self.choice_rewards.get(state).and_then(|r| r.get(choice)).copied().unwrap_or(0.0)
    }

    /// Total step reward from `state` under `choice`.
    pub fn step_reward(&self, state: usize, choice: usize) -> f64 {
        self.state_reward(state) + self.choice_reward(state, choice)
    }

    /// Borrow the dense per-state reward vector.
    pub fn state_rewards(&self) -> &[f64] {
        &self.state_rewards
    }
}

/// The structure named `name` in a builder's map, created over
/// `num_states` states on first use; the key is allocated only then.
pub(crate) fn structure_mut<'m>(
    rewards: &'m mut BTreeMap<String, RewardStructure>,
    name: &str,
    num_states: usize,
) -> &'m mut RewardStructure {
    if !rewards.contains_key(name) {
        rewards.insert(name.to_owned(), RewardStructure::new(name, num_states));
    }
    rewards.get_mut(name).expect("inserted above")
}

fn validate_reward(value: f64, context: &str) -> Result<(), ModelError> {
    if !value.is_finite() || value < 0.0 {
        return Err(ModelError::InvalidReward { value, context: context.to_owned() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_and_choice_rewards() {
        let mut r = RewardStructure::new("cost", 2);
        r.set_state_reward(1, 2.5).unwrap();
        r.set_choice_reward(1, 3, 0.5).unwrap();
        assert_eq!(r.name(), "cost");
        assert_eq!(r.state_reward(1), 2.5);
        assert_eq!(r.choice_reward(1, 3), 0.5);
        assert_eq!(r.choice_reward(1, 0), 0.0);
        assert_eq!(r.step_reward(1, 3), 3.0);
        assert_eq!(r.state_rewards(), &[0.0, 2.5]);
    }

    #[test]
    fn rejects_bad_values() {
        let mut r = RewardStructure::new("x", 1);
        assert!(r.set_state_reward(0, -1.0).is_err());
        assert!(r.set_state_reward(0, f64::INFINITY).is_err());
        assert!(r.set_state_reward(5, 1.0).is_err());
        assert!(r.set_choice_reward(5, 0, 1.0).is_err());
    }

    #[test]
    fn out_of_range_reads_are_zero() {
        let r = RewardStructure::new("x", 1);
        assert_eq!(r.state_reward(10), 0.0);
        assert_eq!(r.choice_reward(10, 10), 0.0);
    }
}
