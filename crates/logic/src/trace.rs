//! LTL over finite traces, the rule language of Reward Repair.
//!
//! Reward Repair (paper §IV-C) constrains the *trajectory distribution* of
//! an MDP: rules `φ_l(U)` are evaluated on finite trajectories `U` and
//! trajectories violating them are driven to probability zero. Rules can be
//! propositional ("the action taken in S1 is 1") or temporal ("the
//! trajectory never visits an unsafe state"), so the natural rule language
//! is LTL with finite-trace semantics.

/// A view of one finite trajectory that rules are evaluated against.
///
/// Implemented by the workspace's `Path`-based adapters; any sequence that
/// can answer "does the state at position `i` carry label `a`?" and "which
/// action was taken at position `i`?" qualifies.
pub trait TraceContext {
    /// Number of positions (states) in the trace.
    fn len(&self) -> usize;

    /// Whether the trace is empty (has no positions).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the state at position `i` carries the atomic proposition.
    fn holds(&self, position: usize, atom: &str) -> bool;

    /// The action taken at position `i`, if any (the final position has
    /// none).
    fn action(&self, position: usize) -> Option<usize>;
}

/// A finite-trace LTL formula.
///
/// Semantics at position `i` of a trace of length `n` (positions `0..n`):
///
/// * `X φ` holds iff `i+1 < n` and `φ` holds at `i+1` (strong next);
/// * `G φ` holds iff `φ` holds at all `j ≥ i`;
/// * `F φ` holds iff `φ` holds at some `j ≥ i`;
/// * `φ U ψ` holds iff `ψ` holds at some `k ≥ i` and `φ` holds at all
///   `j ∈ [i, k)`.
///
/// # Example
///
/// ```
/// use tml_logic::{TraceFormula, SliceTrace};
///
/// // "never unsafe": G !unsafe
/// let rule = TraceFormula::Always(Box::new(TraceFormula::Not(Box::new(
///     TraceFormula::Atom("unsafe".into()),
/// ))));
/// let safe = SliceTrace::new(vec![vec!["start"], vec![], vec!["goal"]], vec![0, 0]);
/// let unsafe_ = SliceTrace::new(vec![vec!["start"], vec!["unsafe"]], vec![0]);
/// assert!(rule.eval(&safe, 0));
/// assert!(!rule.eval(&unsafe_, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFormula {
    /// Constant truth.
    True,
    /// The state at the current position carries this label.
    Atom(String),
    /// The action taken at the current position equals this id.
    ActionIs(usize),
    /// Negation.
    Not(Box<TraceFormula>),
    /// Conjunction.
    And(Box<TraceFormula>, Box<TraceFormula>),
    /// Disjunction.
    Or(Box<TraceFormula>, Box<TraceFormula>),
    /// Strong next.
    Next(Box<TraceFormula>),
    /// Globally (over the remaining suffix).
    Always(Box<TraceFormula>),
    /// Eventually (within the remaining suffix).
    Eventually(Box<TraceFormula>),
    /// Until.
    Until(Box<TraceFormula>, Box<TraceFormula>),
}

impl TraceFormula {
    /// Evaluates the formula at `position` of `trace`.
    ///
    /// Positions at or beyond the end of the trace satisfy no atom, so e.g.
    /// `F φ` is false there and `G φ` is (vacuously) true.
    pub fn eval<T: TraceContext + ?Sized>(&self, trace: &T, position: usize) -> bool {
        let n = trace.len();
        match self {
            TraceFormula::True => true,
            TraceFormula::Atom(a) => position < n && trace.holds(position, a),
            TraceFormula::ActionIs(a) => trace.action(position) == Some(*a),
            TraceFormula::Not(f) => !f.eval(trace, position),
            TraceFormula::And(a, b) => a.eval(trace, position) && b.eval(trace, position),
            TraceFormula::Or(a, b) => a.eval(trace, position) || b.eval(trace, position),
            TraceFormula::Next(f) => position + 1 < n && f.eval(trace, position + 1),
            TraceFormula::Always(f) => (position..n).all(|i| f.eval(trace, i)),
            TraceFormula::Eventually(f) => (position..n).any(|i| f.eval(trace, i)),
            TraceFormula::Until(lhs, rhs) => (position..n)
                .any(|k| rhs.eval(trace, k) && (position..k).all(|j| lhs.eval(trace, j))),
        }
    }

    /// Convenience: `G !atom` — the trace never visits an `atom` state.
    pub fn never(atom: &str) -> Self {
        TraceFormula::Always(Box::new(TraceFormula::Not(Box::new(TraceFormula::Atom(
            atom.to_owned(),
        )))))
    }

    /// Convenience: `F atom` — the trace eventually visits an `atom` state.
    pub fn eventually(atom: &str) -> Self {
        TraceFormula::Eventually(Box::new(TraceFormula::Atom(atom.to_owned())))
    }

    /// Convenience: `G (atom => action = a)` — whenever the trace is in an
    /// `atom` state, it takes action `a` there.
    pub fn whenever_do(atom: &str, action: usize) -> Self {
        TraceFormula::Always(Box::new(TraceFormula::Or(
            Box::new(TraceFormula::Not(Box::new(TraceFormula::Atom(atom.to_owned())))),
            Box::new(TraceFormula::ActionIs(action)),
        )))
    }
}

/// A simple owned [`TraceContext`] built from per-position label sets and an
/// action sequence. Mostly useful in tests and examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceTrace {
    labels: Vec<Vec<String>>,
    actions: Vec<usize>,
}

impl SliceTrace {
    /// Builds a trace from per-position labels and actions
    /// (`actions.len()` should be `labels.len() - 1`, but this is not
    /// enforced: missing actions simply answer `None`).
    pub fn new<S: Into<String>>(labels: Vec<Vec<S>>, actions: Vec<usize>) -> Self {
        SliceTrace {
            labels: labels
                .into_iter()
                .map(|row| row.into_iter().map(Into::into).collect())
                .collect(),
            actions,
        }
    }
}

impl TraceContext for SliceTrace {
    fn len(&self) -> usize {
        self.labels.len()
    }

    fn holds(&self, position: usize, atom: &str) -> bool {
        self.labels.get(position).is_some_and(|row| row.iter().any(|l| l == atom))
    }

    fn action(&self, position: usize) -> Option<usize> {
        self.actions.get(position).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> SliceTrace {
        // positions: 0:{s0} 1:{s1} 2:{unsafe} 3:{goal}; actions 0,1,2
        SliceTrace::new(vec![vec!["s0"], vec!["s1"], vec!["unsafe"], vec!["goal"]], vec![0, 1, 2])
    }

    #[test]
    fn atoms_and_actions() {
        let tr = t();
        assert!(TraceFormula::Atom("s0".into()).eval(&tr, 0));
        assert!(!TraceFormula::Atom("s0".into()).eval(&tr, 1));
        assert!(TraceFormula::ActionIs(1).eval(&tr, 1));
        assert!(!TraceFormula::ActionIs(1).eval(&tr, 3)); // terminal position
        assert!(!TraceFormula::Atom("s0".into()).eval(&tr, 99));
    }

    #[test]
    fn temporal_operators() {
        let tr = t();
        assert!(TraceFormula::eventually("goal").eval(&tr, 0));
        assert!(
            !TraceFormula::eventually("goal").eval(&SliceTrace::new(vec![vec!["s0"]], vec![]), 0)
        );
        assert!(!TraceFormula::never("unsafe").eval(&tr, 0));
        assert!(TraceFormula::never("unsafe").eval(&tr, 3));
        let next = TraceFormula::Next(Box::new(TraceFormula::Atom("s1".into())));
        assert!(next.eval(&tr, 0));
        assert!(!next.eval(&tr, 3)); // strong next at trace end
    }

    #[test]
    fn until_semantics() {
        let tr = t();
        // !goal U goal: holds (goal at 3, all earlier positions lack it)
        let u = TraceFormula::Until(
            Box::new(TraceFormula::Not(Box::new(TraceFormula::Atom("goal".into())))),
            Box::new(TraceFormula::Atom("goal".into())),
        );
        assert!(u.eval(&tr, 0));
        // s0 U goal: fails, s0 only holds at position 0
        let u2 = TraceFormula::Until(
            Box::new(TraceFormula::Atom("s0".into())),
            Box::new(TraceFormula::Atom("goal".into())),
        );
        assert!(!u2.eval(&tr, 0));
        // s0 U s1: rhs at position 1, lhs at position 0 — holds
        let u3 = TraceFormula::Until(
            Box::new(TraceFormula::Atom("s0".into())),
            Box::new(TraceFormula::Atom("s1".into())),
        );
        assert!(u3.eval(&tr, 0));
    }

    #[test]
    fn whenever_do_rule() {
        let tr = t();
        // whenever in s1, take action 1 — true on this trace
        assert!(TraceFormula::whenever_do("s1", 1).eval(&tr, 0));
        // whenever in s1, take action 0 — false
        assert!(!TraceFormula::whenever_do("s1", 0).eval(&tr, 0));
        // vacuous: no s7 states
        assert!(TraceFormula::whenever_do("s7", 0).eval(&tr, 0));
    }

    #[test]
    fn boolean_connectives() {
        let tr = t();
        let a = TraceFormula::Atom("s0".into());
        let b = TraceFormula::Atom("s1".into());
        assert!(TraceFormula::Or(Box::new(a.clone()), Box::new(b.clone())).eval(&tr, 0));
        assert!(!TraceFormula::And(Box::new(a.clone()), Box::new(b)).eval(&tr, 0));
        assert!(TraceFormula::True.eval(&tr, 0));
        assert!(!TraceFormula::Not(Box::new(TraceFormula::True)).eval(&tr, 0));
    }

    #[test]
    fn empty_trace_edge_cases() {
        let empty = SliceTrace::new(Vec::<Vec<&str>>::new(), vec![]);
        assert!(empty.is_empty());
        assert!(TraceFormula::never("x").eval(&empty, 0)); // vacuously true
        assert!(!TraceFormula::eventually("x").eval(&empty, 0));
    }
}
