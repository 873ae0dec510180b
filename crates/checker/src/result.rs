use tml_numerics::Diagnostics;

use crate::RobustBracket;

/// Outcome of checking a PCTL state formula: the set of states satisfying
/// it, plus — when the top-level operator was `P` or `R` — the operator's
/// values: one number per state on a nominal model (`V = Vec<f64>`), a
/// [`RobustBracket`] on an interval model.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult<V = Vec<f64>> {
    sat: Vec<bool>,
    values: Option<V>,
    initial: usize,
    diagnostics: Diagnostics,
}

impl<V> CheckResult<V> {
    pub(crate) fn new(sat: Vec<bool>, values: Option<V>, initial: usize) -> Self {
        CheckResult { sat, values, initial, diagnostics: Diagnostics::new() }
    }

    pub(crate) fn with_diagnostics(mut self, diagnostics: Diagnostics) -> Self {
        self.diagnostics = diagnostics;
        self
    }

    /// Whether the formula holds in `state` (out-of-range states do not
    /// satisfy anything).
    pub fn holds_in(&self, state: usize) -> bool {
        self.sat.get(state).copied().unwrap_or(false)
    }

    /// Whether the formula holds in the model's initial state — the usual
    /// notion of "the model satisfies φ".
    pub fn holds(&self) -> bool {
        self.holds_in(self.initial)
    }

    /// The full satisfaction mask (one entry per state).
    pub fn sat_mask(&self) -> &[bool] {
        &self.sat
    }

    /// The states satisfying the formula, in increasing order.
    pub fn sat_states(&self) -> Vec<usize> {
        self.sat.iter().enumerate().filter(|(_, &b)| b).map(|(s, _)| s).collect()
    }

    /// Number of satisfying states.
    pub fn count(&self) -> usize {
        self.sat.iter().filter(|&&b| b).count()
    }

    /// For a top-level `P`/`R` operator, the per-state values (or
    /// brackets) that the bound was compared against.
    pub fn values(&self) -> Option<&V> {
        self.values.as_ref()
    }

    /// What the check spent and which degradation paths (solver fallbacks,
    /// accepted residuals, budget exhaustion) it took.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// Whether this result is best-effort rather than fully converged —
    /// shorthand for [`Diagnostics::degraded`].
    pub fn degraded(&self) -> bool {
        self.diagnostics.degraded()
    }
}

impl CheckResult {
    /// The numeric value at the initial state, when available.
    pub fn value_at_initial(&self) -> Option<f64> {
        self.values.as_ref().map(|v| v[self.initial])
    }
}

impl CheckResult<RobustBracket> {
    /// The `[pessimistic, optimistic]` values in the initial state, when a
    /// bracket was computed.
    pub fn bracket_at_initial(&self) -> Option<(f64, f64)> {
        self.values.as_ref().map(|b| b.at(self.initial))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let r = CheckResult::new(vec![true, false, true], Some(vec![1.0, 0.2, 0.9]), 2);
        assert!(r.holds_in(0));
        assert!(!r.holds_in(1));
        assert!(!r.holds_in(99));
        assert!(r.holds());
        assert_eq!(r.sat_states(), vec![0, 2]);
        assert_eq!(r.count(), 2);
        assert_eq!(r.values().unwrap()[1], 0.2);
        assert_eq!(r.value_at_initial(), Some(0.9));
    }

    #[test]
    fn no_values_for_boolean_results() {
        let r = CheckResult::new(vec![true], None, 0);
        assert!(r.values().is_none());
        assert_eq!(r.value_at_initial(), None);
    }
}
