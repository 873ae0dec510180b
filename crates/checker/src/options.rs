/// Which quantitative engine solves the linear systems on DTMC
/// "maybe" states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearSolver {
    /// Pick automatically: direct Gaussian elimination for small systems,
    /// the SCC-decomposed solve for large ones, and dense elimination again
    /// when that stalls on a system of at most 2,048 states.
    #[default]
    Auto,
    /// Always use dense Gaussian elimination (exact up to rounding).
    Direct,
    /// Always use sparse Gauss–Seidel iteration.
    GaussSeidel,
    /// SCC-decomposed solve: condense the maybe-state graph, solve one
    /// strongly connected block at a time in dependency order; trivial
    /// components resolve by back-substitution without iterating.
    Scc,
    /// Interval (two-sided) iteration: iterate a lower and an upper bound
    /// around the fixed point and report their midpoint, so the result
    /// carries a sound error bracket instead of a heuristic residual.
    Interval,
}

/// Numeric options for the checker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOptions {
    /// Convergence tolerance for iterative methods (value iteration,
    /// Gauss–Seidel).
    pub tolerance: f64,
    /// Iteration budget for iterative methods.
    pub max_iterations: usize,
    /// Linear solver selection for DTMC unbounded until / rewards.
    pub solver: LinearSolver,
    /// Systems with at most this many maybe-states use the direct solver
    /// under [`LinearSolver::Auto`].
    pub direct_solver_limit: usize,
    /// Absolute tolerance when comparing a computed probability/reward
    /// against a bound: values within this distance of the bound are treated
    /// as equal, so `P>=0.5` holds at a computed `0.4999999999`. Set to zero
    /// for strict comparisons.
    pub bound_tolerance: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            tolerance: 1e-10,
            max_iterations: 1_000_000,
            solver: LinearSolver::Auto,
            direct_solver_limit: 512,
            bound_tolerance: 1e-8,
        }
    }
}

impl CheckOptions {
    /// Whether a system of `n` maybe-states should use the direct solver.
    pub fn use_direct(&self, n: usize) -> bool {
        match self.solver {
            LinearSolver::Direct => true,
            LinearSolver::GaussSeidel | LinearSolver::Scc | LinearSolver::Interval => false,
            LinearSolver::Auto => n <= self.direct_solver_limit,
        }
    }

    /// Compares `value ⋈ bound` treating values within
    /// [`bound_tolerance`](Self::bound_tolerance) of the bound as equal.
    pub fn test_bound(&self, op: tml_logic::CmpOp, value: f64, bound: f64) -> bool {
        use tml_logic::CmpOp;
        if (value - bound).abs() <= self.bound_tolerance {
            return matches!(op, CmpOp::Le | CmpOp::Ge);
        }
        op.test(value, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = CheckOptions::default();
        assert!(o.tolerance > 0.0 && o.tolerance < 1e-6);
        assert!(o.max_iterations > 1000);
        assert_eq!(o.solver, LinearSolver::Auto);
    }

    #[test]
    fn solver_selection() {
        let mut o = CheckOptions::default();
        assert!(o.use_direct(10));
        assert!(!o.use_direct(100_000));
        o.solver = LinearSolver::Direct;
        assert!(o.use_direct(100_000));
        o.solver = LinearSolver::GaussSeidel;
        assert!(!o.use_direct(1));
        o.solver = LinearSolver::Scc;
        assert!(!o.use_direct(1));
        o.solver = LinearSolver::Interval;
        assert!(!o.use_direct(1));
    }
}
