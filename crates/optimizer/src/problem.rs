use crate::OptimizerError;

/// Direction of an inequality constraint `f(x) ⋈ rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `f(x) ≤ rhs`.
    Le,
    /// `f(x) ≥ rhs`.
    Ge,
}

/// A boxed scalar merit/constraint function over the decision vector.
type ScalarFn = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// One inequality constraint of an [`Nlp`].
pub struct Constraint {
    name: String,
    f: ScalarFn,
    sense: ConstraintSense,
    rhs: f64,
    margin: f64,
}

impl Constraint {
    /// The constraint's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constraint's sense.
    pub fn sense(&self) -> ConstraintSense {
        self.sense
    }

    /// The right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Evaluates the raw constraint function.
    pub fn value(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }

    /// The constraint violation at `x`: zero when satisfied (with margin),
    /// positive otherwise. Non-finite function values count as infinitely
    /// violated.
    pub fn violation(&self, x: &[f64]) -> f64 {
        let value = (self.f)(x);
        if !value.is_finite() {
            return f64::INFINITY;
        }
        match self.sense {
            ConstraintSense::Le => (value - self.rhs + self.margin).max(0.0),
            ConstraintSense::Ge => (self.rhs + self.margin - value).max(0.0),
        }
    }
}

/// One-pass violation statistics over all constraints of an [`Nlp`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ViolationStats {
    /// The largest violation.
    pub max: f64,
    /// The sum of squared violations (the quadratic penalty term).
    pub sum_sq: f64,
}

impl std::fmt::Debug for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sym = match self.sense {
            ConstraintSense::Le => "<=",
            ConstraintSense::Ge => ">=",
        };
        write!(f, "Constraint({} {} {}, margin {})", self.name, sym, self.rhs, self.margin)
    }
}

/// A box-bounded non-linear program with inequality constraints.
///
/// Objective and constraints are arbitrary closures; the repair crates plug
/// in property oracles that solve the candidate's compiled reach system or
/// run the full model checker per evaluation.
pub struct Nlp {
    n: usize,
    bounds: Vec<(f64, f64)>,
    objective: Option<ScalarFn>,
    constraints: Vec<Constraint>,
}

impl std::fmt::Debug for Nlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nlp")
            .field("n", &self.n)
            .field("bounds", &self.bounds)
            .field("has_objective", &self.objective.is_some())
            .field("constraints", &self.constraints)
            .finish()
    }
}

impl Nlp {
    /// Creates a problem over `n` variables with the given box bounds.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::InvalidBounds`] if any pair has `lo > hi`
    /// or a non-finite endpoint, or [`OptimizerError::DimensionMismatch`] if
    /// `bounds.len() != n`.
    pub fn new(n: usize, bounds: Vec<(f64, f64)>) -> Result<Self, OptimizerError> {
        if bounds.len() != n {
            return Err(OptimizerError::DimensionMismatch { expected: n, got: bounds.len() });
        }
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            if !(lo.is_finite() && hi.is_finite()) || lo > hi {
                return Err(OptimizerError::InvalidBounds { variable: i, lo, hi });
            }
        }
        Ok(Nlp { n, bounds, objective: None, constraints: Vec::new() })
    }

    /// Sets the objective function (to be minimized).
    pub fn objective(&mut self, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> &mut Self {
        self.objective = Some(Box::new(f));
        self
    }

    /// Convenience objective: minimize `‖x‖²` (the canonical perturbation
    /// cost of Model Repair).
    pub fn minimize_norm2(&mut self) -> &mut Self {
        self.objective(|x| x.iter().map(|v| v * v).sum())
    }

    /// Adds an inequality constraint `f(x) ⋈ rhs`.
    pub fn constraint(
        &mut self,
        name: &str,
        sense: ConstraintSense,
        rhs: f64,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.constraint_with_margin(name, sense, rhs, 0.0, f)
    }

    /// Adds an inequality constraint with a satisfaction margin — useful to
    /// approximate *strict* inequalities (`f > rhs` becomes
    /// `f ≥ rhs + margin`).
    pub fn constraint_with_margin(
        &mut self,
        name: &str,
        sense: ConstraintSense,
        rhs: f64,
        margin: f64,
        f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static,
    ) -> &mut Self {
        self.constraints.push(Constraint {
            name: name.to_owned(),
            f: Box::new(f),
            sense,
            rhs,
            margin,
        });
        self
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The box bounds.
    pub fn bounds(&self) -> &[(f64, f64)] {
        &self.bounds
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective; non-finite values are mapped to `+∞` so the
    /// line search rejects them.
    ///
    /// # Panics
    ///
    /// Panics if no objective has been set (the solver validates this
    /// up-front and returns [`OptimizerError::MissingObjective`] instead).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        let f = self.objective.as_ref().expect("objective not set");
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    }

    /// Whether an objective has been set.
    pub fn has_objective(&self) -> bool {
        self.objective.is_some()
    }

    /// The largest constraint violation at `x`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        self.violation_stats(x).max
    }

    /// Computes the largest violation **and** the quadratic penalty term in
    /// one pass over every constraint.
    ///
    /// An infinitely violated constraint (non-finite raw value) makes both
    /// statistics infinite.
    pub fn violation_stats(&self, x: &[f64]) -> ViolationStats {
        let mut stats = ViolationStats::default();
        for c in &self.constraints {
            let v = c.violation(x);
            stats.max = stats.max.max(v);
            stats.sum_sq += v * v;
        }
        if stats.max.is_infinite() {
            stats.sum_sq = f64::INFINITY;
        }
        stats
    }

    /// Clamps `x` into the box, in place.
    pub fn project(&self, x: &mut [f64]) {
        for (v, &(lo, hi)) in x.iter_mut().zip(&self.bounds) {
            *v = v.clamp(lo, hi);
        }
    }

    /// The center of the box (default starting point).
    pub fn center(&self) -> Vec<f64> {
        self.bounds.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Nlp::new(2, vec![(0.0, 1.0)]).is_err());
        assert!(Nlp::new(1, vec![(1.0, 0.0)]).is_err());
        assert!(Nlp::new(1, vec![(0.0, f64::INFINITY)]).is_err());
        assert!(Nlp::new(1, vec![(0.0, 1.0)]).is_ok());
    }

    #[test]
    fn violations() {
        let mut nlp = Nlp::new(1, vec![(-10.0, 10.0)]).unwrap();
        nlp.constraint("le", ConstraintSense::Le, 2.0, |x| x[0]);
        nlp.constraint("ge", ConstraintSense::Ge, -1.0, |x| x[0]);
        assert_eq!(nlp.max_violation(&[0.0]), 0.0);
        assert_eq!(nlp.max_violation(&[3.0]), 1.0);
        assert_eq!(nlp.max_violation(&[-2.0]), 1.0);
        let c = &nlp.constraints()[0];
        assert_eq!(c.name(), "le");
        assert_eq!(c.sense(), ConstraintSense::Le);
        assert_eq!(c.rhs(), 2.0);
        assert_eq!(c.value(&[5.0]), 5.0);
    }

    #[test]
    fn margin_approximates_strict() {
        let mut nlp = Nlp::new(1, vec![(-1.0, 1.0)]).unwrap();
        nlp.constraint_with_margin("gt", ConstraintSense::Ge, 0.0, 0.1, |x| x[0]);
        assert!(nlp.max_violation(&[0.05]) > 0.0);
        assert_eq!(nlp.max_violation(&[0.2]), 0.0);
    }

    #[test]
    fn non_finite_constraint_is_infinitely_violated() {
        let mut nlp = Nlp::new(1, vec![(-1.0, 1.0)]).unwrap();
        nlp.constraint("nan", ConstraintSense::Le, 0.0, |_| f64::NAN);
        assert!(nlp.max_violation(&[0.0]).is_infinite());
    }

    #[test]
    fn projection_and_center() {
        let nlp = Nlp::new(2, vec![(0.0, 1.0), (-2.0, 2.0)]).unwrap();
        let mut x = vec![1.5, -3.0];
        nlp.project(&mut x);
        assert_eq!(x, vec![1.0, -2.0]);
        assert_eq!(nlp.center(), vec![0.5, 0.0]);
    }

    #[test]
    fn objective_maps_nonfinite_to_inf() {
        let mut nlp = Nlp::new(1, vec![(0.0, 1.0)]).unwrap();
        nlp.objective(|x| if x[0] > 0.5 { f64::NAN } else { x[0] });
        assert_eq!(nlp.objective_value(&[0.25]), 0.25);
        assert!(nlp.objective_value(&[0.75]).is_infinite());
        assert!(nlp.has_objective());
    }
}
