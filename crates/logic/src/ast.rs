/// Comparison operator of a probability or reward bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Applies the comparison: `lhs ⋈ rhs`.
    ///
    /// # Example
    ///
    /// ```
    /// use tml_logic::CmpOp;
    /// assert!(CmpOp::Ge.test(0.99, 0.99));
    /// assert!(!CmpOp::Gt.test(0.99, 0.99));
    /// ```
    pub fn test(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// Whether the operator is a lower bound (`>` or `>=`).
    ///
    /// Lower-bounded probability operators on MDPs quantify over the *worst*
    /// scheduler (`Pmin`), upper-bounded ones over the *best* (`Pmax`).
    pub fn is_lower_bound(self) -> bool {
        matches!(self, CmpOp::Gt | CmpOp::Ge)
    }

    /// The textual symbol (`"<"`, `"<="`, `">"`, `">="`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Optimization direction over MDP schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opt {
    /// Minimize over schedulers (`Pmin`, `Rmin`).
    Min,
    /// Maximize over schedulers (`Pmax`, `Rmax`).
    Max,
}

/// A PCTL state formula.
///
/// Atoms refer to state labels from the model's
/// `Labeling`. The probabilistic operator `P⋈b[ψ]` holds in a state iff the
/// probability of the path formula `ψ` satisfies the bound; on MDPs the
/// scheduler quantification is either explicit (`opt`) or derived from the
/// bound direction (lower bounds → all schedulers → `Pmin`).
#[derive(Debug, Clone, PartialEq)]
pub enum StateFormula {
    /// Constant truth.
    True,
    /// Constant falsehood.
    False,
    /// An atomic proposition (state label).
    Atom(String),
    /// Negation.
    Not(Box<StateFormula>),
    /// Conjunction.
    And(Box<StateFormula>, Box<StateFormula>),
    /// Disjunction.
    Or(Box<StateFormula>, Box<StateFormula>),
    /// Implication.
    Implies(Box<StateFormula>, Box<StateFormula>),
    /// `P⋈b [ψ]` — probability bound on a path formula.
    Prob {
        /// Explicit scheduler quantification (`Pmax`/`Pmin`); `None` means
        /// derive from the bound direction (the PRISM convention).
        opt: Option<Opt>,
        /// The comparison operator.
        op: CmpOp,
        /// The probability threshold in `[0, 1]`.
        bound: f64,
        /// The path formula.
        path: PathFormula,
    },
    /// `R{"structure"}⋈c [·]` — bound on an expected reward.
    Reward {
        /// Reward structure name; `None` selects the model's default.
        structure: Option<String>,
        /// Explicit scheduler quantification; `None` derives from the bound
        /// (upper bounds → `Rmax`, i.e. even the worst scheduler stays below).
        opt: Option<Opt>,
        /// The comparison operator.
        op: CmpOp,
        /// The reward threshold (non-negative).
        bound: f64,
        /// Which expected reward is constrained.
        kind: RewardKind,
    },
}

impl StateFormula {
    /// Convenience constructor: `P⋈b [F atom]`.
    pub fn eventually(op: CmpOp, bound: f64, atom: &str) -> Self {
        StateFormula::Prob {
            opt: None,
            op,
            bound,
            path: PathFormula::Eventually {
                sub: Box::new(StateFormula::Atom(atom.to_owned())),
                bound: None,
            },
        }
    }

    /// Convenience constructor: `R{"structure"}⋈c [F atom]`.
    pub fn reach_reward(structure: &str, op: CmpOp, bound: f64, atom: &str) -> Self {
        StateFormula::Reward {
            structure: Some(structure.to_owned()),
            opt: None,
            op,
            bound,
            kind: RewardKind::Reach(Box::new(StateFormula::Atom(atom.to_owned()))),
        }
    }
}

/// A PCTL path formula.
#[derive(Debug, Clone, PartialEq)]
pub enum PathFormula {
    /// `X φ` — `φ` holds in the next state.
    Next(Box<StateFormula>),
    /// `φ U ψ` (optionally step-bounded `φ U<=k ψ`).
    Until {
        /// Left operand (must hold until the right one does).
        lhs: Box<StateFormula>,
        /// Right operand (must eventually hold).
        rhs: Box<StateFormula>,
        /// Optional step bound `k`.
        bound: Option<u64>,
    },
    /// `F φ` — eventually (optionally step-bounded).
    Eventually {
        /// The operand.
        sub: Box<StateFormula>,
        /// Optional step bound `k`.
        bound: Option<u64>,
    },
    /// `G φ` — globally (optionally step-bounded).
    Globally {
        /// The operand.
        sub: Box<StateFormula>,
        /// Optional step bound `k`.
        bound: Option<u64>,
    },
}

/// Which expected reward a reward operator refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum RewardKind {
    /// `[F φ]` — expected reward accumulated until first reaching `φ`.
    Reach(Box<StateFormula>),
    /// `[C<=k]` — expected reward accumulated over the first `k` steps.
    Cumulative(u64),
}

/// A numeric top-level query such as `P=? [ F "goal" ]` or
/// `Rmax=? [ F "delivered" ]`: instead of a truth value, the checker returns
/// the probability/reward itself.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `P=? [ψ]` / `Pmax=?` / `Pmin=?`.
    Prob {
        /// Scheduler quantification (required for MDPs, ignored for DTMCs).
        opt: Option<Opt>,
        /// The path formula.
        path: PathFormula,
    },
    /// `R=? [·]` / `Rmax=?` / `Rmin=?`.
    Reward {
        /// Reward structure name; `None` selects the model's default.
        structure: Option<String>,
        /// Scheduler quantification.
        opt: Option<Opt>,
        /// Which expected reward is queried.
        kind: RewardKind,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Lt.test(1.0, 2.0));
        assert!(!CmpOp::Lt.test(2.0, 2.0));
        assert!(CmpOp::Le.test(2.0, 2.0));
        assert!(CmpOp::Gt.test(3.0, 2.0));
        assert!(CmpOp::Ge.test(2.0, 2.0));
        assert!(CmpOp::Ge.is_lower_bound());
        assert!(CmpOp::Gt.is_lower_bound());
        assert!(!CmpOp::Le.is_lower_bound());
        assert_eq!(CmpOp::Le.symbol(), "<=");
    }

    #[test]
    fn convenience_constructors() {
        let f = StateFormula::eventually(CmpOp::Ge, 0.9, "goal");
        match f {
            StateFormula::Prob {
                op: CmpOp::Ge,
                bound,
                path: PathFormula::Eventually { sub, bound: None },
                ..
            } => {
                assert_eq!(bound, 0.9);
                assert_eq!(*sub, StateFormula::Atom("goal".into()));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        let r = StateFormula::reach_reward("attempts", CmpOp::Le, 19.0, "delivered");
        match r {
            StateFormula::Reward { structure: Some(s), kind: RewardKind::Reach(t), .. } => {
                assert_eq!(s, "attempts");
                assert_eq!(*t, StateFormula::Atom("delivered".into()));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }
}
