use crate::ModelError;

/// A finite trajectory `(s₀, a₀), (s₁, a₁), …, sₙ` through an MDP (or, with
/// `actions` empty or action ids from a singleton table, through a DTMC).
///
/// Invariant: `actions.len() + 1 == states.len()` for MDP paths, or
/// `actions.is_empty()` for plain state traces.
///
/// # Example
///
/// ```
/// use tml_models::Path;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let p = Path::with_actions(vec![0, 1, 4], vec![2, 0])?;
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.state(1), Some(1));
/// assert_eq!(p.action(0), Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Visited states, in order.
    pub states: Vec<usize>,
    /// Action id taken at each non-final state (may be empty for DTMC traces).
    pub actions: Vec<usize>,
}

impl Path {
    /// A path consisting of states only (a DTMC trace).
    pub fn from_states(states: Vec<usize>) -> Self {
        Path { states, actions: Vec::new() }
    }

    /// A path with explicit actions.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrace`] unless
    /// `actions.len() + 1 == states.len()`.
    pub fn with_actions(states: Vec<usize>, actions: Vec<usize>) -> Result<Self, ModelError> {
        if states.is_empty() {
            return Err(ModelError::InvalidTrace {
                detail: "path must contain at least one state".into(),
            });
        }
        if actions.len() + 1 != states.len() {
            return Err(ModelError::InvalidTrace {
                detail: format!("{} states but {} actions", states.len(), actions.len()),
            });
        }
        Ok(Path { states, actions })
    }

    /// Number of transitions (not states) in the path.
    pub fn len(&self) -> usize {
        self.states.len().saturating_sub(1)
    }

    /// Whether the path has no transitions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of positions (states) in the path.
    pub fn num_positions(&self) -> usize {
        self.states.len()
    }

    /// The state at position `i`, if in range.
    pub fn state(&self, i: usize) -> Option<usize> {
        self.states.get(i).copied()
    }

    /// The action taken at position `i`, if recorded.
    pub fn action(&self, i: usize) -> Option<usize> {
        self.actions.get(i).copied()
    }

    /// The final state.
    ///
    /// # Panics
    ///
    /// Panics if the path is completely empty (which constructors prevent).
    pub fn last_state(&self) -> usize {
        *self.states.last().expect("path has at least one state")
    }

    /// Iterates over `(state, Some(action))` pairs followed by the terminal
    /// `(state, None)`.
    pub fn steps(&self) -> impl Iterator<Item = (usize, Option<usize>)> + '_ {
        self.states.iter().enumerate().map(|(i, &s)| (s, self.actions.get(i).copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = Path::with_actions(vec![3, 1, 0], vec![0, 1]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.num_positions(), 3);
        assert_eq!(p.last_state(), 0);
        assert_eq!(p.state(0), Some(3));
        assert_eq!(p.state(9), None);
        assert_eq!(p.action(1), Some(1));
        assert_eq!(p.action(2), None);
        let steps: Vec<_> = p.steps().collect();
        assert_eq!(steps, vec![(3, Some(0)), (1, Some(1)), (0, None)]);
    }

    #[test]
    fn from_states_has_no_actions() {
        let p = Path::from_states(vec![0, 1]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.action(0), None);
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(Path::with_actions(vec![], vec![]).is_err());
        assert!(Path::with_actions(vec![0, 1], vec![]).is_err());
        assert!(Path::with_actions(vec![0], vec![1]).is_err());
    }

    #[test]
    fn singleton_path_is_empty() {
        let p = Path::from_states(vec![7]);
        assert!(p.is_empty());
        assert_eq!(p.last_state(), 7);
    }
}
