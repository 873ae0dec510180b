use std::collections::{BTreeMap, BTreeSet};

use crate::ModelError;

/// An assignment of atomic-proposition labels to states.
///
/// Labels are the atoms that PCTL state formulas refer to (e.g.
/// `"delivered"`, `"unsafe"`). A labeling is attached to every [`crate::Dtmc`]
/// and [`crate::Mdp`].
///
/// # Example
///
/// ```
/// use tml_models::Labeling;
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut l = Labeling::new(3);
/// l.add(2, "goal")?;
/// assert!(l.has(2, "goal"));
/// assert!(!l.has(0, "goal"));
/// assert_eq!(l.states_with("goal").collect::<Vec<_>>(), vec![2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Labeling {
    num_states: usize,
    map: BTreeMap<String, BTreeSet<usize>>,
}

impl Labeling {
    /// Creates an empty labeling over `num_states` states.
    pub fn new(num_states: usize) -> Self {
        Labeling { num_states, map: BTreeMap::new() }
    }

    /// Number of states this labeling covers.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Attaches `label` to `state`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::StateOutOfBounds`] if `state` is out of range.
    pub fn add(&mut self, state: usize, label: &str) -> Result<(), ModelError> {
        if state >= self.num_states {
            return Err(ModelError::StateOutOfBounds { state, num_states: self.num_states });
        }
        self.map.entry(label.to_owned()).or_default().insert(state);
        Ok(())
    }

    /// Whether `state` carries `label`.
    ///
    /// States out of range simply do not carry any label.
    pub fn has(&self, state: usize, label: &str) -> bool {
        self.map.get(label).is_some_and(|s| s.contains(&state))
    }

    /// Iterates over the states carrying `label` in increasing order.
    ///
    /// An unknown label yields an empty iterator.
    pub fn states_with<'a>(&'a self, label: &str) -> impl Iterator<Item = usize> + 'a {
        self.map.get(label).into_iter().flat_map(|s| s.iter().copied())
    }

    /// Returns a membership mask (one `bool` per state) for `label`.
    pub fn mask(&self, label: &str) -> Vec<bool> {
        let mut m = vec![false; self.num_states];
        for s in self.states_with(label) {
            m[s] = true;
        }
        m
    }

    /// Whether `label` is attached to at least one state.
    pub fn contains_label(&self, label: &str) -> bool {
        self.map.get(label).is_some_and(|s| !s.is_empty())
    }

    /// Iterates over all known label names in lexicographic order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// All labels carried by `state`, in lexicographic order.
    pub fn labels_of(&self, state: usize) -> Vec<&str> {
        self.map
            .iter()
            .filter(|(_, set)| set.contains(&state))
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut l = Labeling::new(4);
        l.add(0, "a").unwrap();
        l.add(2, "a").unwrap();
        l.add(2, "b").unwrap();
        assert!(l.has(0, "a"));
        assert!(l.has(2, "b"));
        assert!(!l.has(1, "a"));
        assert!(!l.has(0, "zzz"));
        assert_eq!(l.states_with("a").collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(l.mask("a"), vec![true, false, true, false]);
        assert_eq!(l.labels().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(l.labels_of(2), vec!["a", "b"]);
        assert!(l.contains_label("a"));
        assert!(!l.contains_label("c"));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut l = Labeling::new(1);
        let err = l.add(1, "x").unwrap_err();
        assert!(matches!(err, ModelError::StateOutOfBounds { state: 1, num_states: 1 }));
    }

    #[test]
    fn unknown_label_iterates_empty() {
        let l = Labeling::new(2);
        assert_eq!(l.states_with("nope").count(), 0);
        assert_eq!(l.mask("nope"), vec![false, false]);
    }
}
