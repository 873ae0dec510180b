//! Iterative fixed-point solvers for equations of the form `x = A·x + b`.
//!
//! Value iteration, bounded-until unrolling and Gauss–Seidel refinement all
//! reduce to repeatedly applying an affine operator until the iterates stop
//! moving. These routines operate on [`CsrMatrix`] so they scale to large
//! sparse transition systems.

use tml_telemetry::{counter, span};

use crate::budget::{Budget, Exhaustion};
use crate::{CsrMatrix, NumericsError};

/// Options controlling the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterOptions {
    /// Convergence threshold on the max-norm difference between iterates.
    pub tolerance: f64,
    /// Maximum number of sweeps before giving up.
    pub max_iterations: usize,
}

impl Default for IterOptions {
    fn default() -> Self {
        IterOptions { tolerance: 1e-10, max_iterations: 100_000 }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSolution {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Max-norm difference of the last two iterates.
    pub delta: f64,
}

/// Best-effort outcome of a budgeted iterative solve.
///
/// Unlike [`IterSolution`]-returning entry points, the budgeted solvers
/// never turn non-convergence into an error: they hand back the last
/// iterate with `converged == false` and, when the [`Budget`] cut the run
/// short, the [`Exhaustion`] cause.
#[derive(Debug, Clone, PartialEq)]
pub struct IterRun {
    /// The final iterate (best effort when not converged).
    pub x: Vec<f64>,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Max-norm difference of the last two iterates.
    pub delta: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Why the budget stopped the run early, if it did.
    pub stopped: Option<Exhaustion>,
}

/// Gauss–Seidel iteration for `x = A·x + b`, starting from `x0`.
///
/// Each sweep updates the components in place, in row order. It converges
/// whenever the spectral radius of `A` is below one — which holds for the
/// sub-stochastic "maybe-state" fragments that arise in unbounded-until and
/// expected-reward computations.
///
/// # Errors
///
/// * [`NumericsError::ShapeMismatch`] on dimension mismatch.
/// * [`NumericsError::NoConvergence`] if the tolerance is not reached within
///   the iteration budget.
///
/// # Example
///
/// ```
/// use tml_numerics::{CsrMatrix, Triplet};
/// use tml_numerics::iterative::{gauss_seidel, IterOptions};
///
/// # fn main() -> Result<(), tml_numerics::NumericsError> {
/// // x = 0.5 x + 1 has solution x = 2.
/// let a = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 0.5)])?;
/// let sol = gauss_seidel(&a, &[1.0], &[0.0], IterOptions::default())?;
/// assert!((sol.x[0] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: IterOptions,
) -> Result<IterSolution, NumericsError> {
    let run = gauss_seidel_budgeted(a, b, x0, opts, &Budget::unlimited())?;
    finish_unbudgeted(run)
}

/// Budget-aware [`gauss_seidel`]: polls `budget` once per sweep and returns
/// the best-effort iterate instead of erroring on non-convergence.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on dimension mismatch — never
/// `NoConvergence`.
pub fn gauss_seidel_budgeted(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: IterOptions,
    budget: &Budget,
) -> Result<IterRun, NumericsError> {
    check_shapes(a, b, x0)?;
    let _span = span!("numerics.gauss_seidel", states = a.rows(), nnz = a.nnz());
    let n = a.rows();
    let mut x = x0.to_vec();
    let mut delta = f64::INFINITY;
    let run = 'solve: {
        for it in 1..=opts.max_iterations {
            if let Some(cause) = budget.check(it as u64 - 1) {
                break 'solve IterRun {
                    x,
                    iterations: it - 1,
                    delta,
                    converged: false,
                    stopped: Some(cause),
                };
            }
            delta = gs_sweep_range(a, b, &mut x, 0, n);
            if delta <= opts.tolerance {
                break 'solve IterRun { x, iterations: it, delta, converged: true, stopped: None };
            }
        }
        IterRun { x, iterations: opts.max_iterations, delta, converged: false, stopped: None }
    };
    counter!("numerics.solve.sweeps", run.iterations);
    Ok(run)
}

/// One in-place Gauss–Seidel sweep over rows `lo..hi` of `x = A·x + b`,
/// returning the max-norm change across the swept range.
///
/// Entries of `x` outside the range are read but never written. The SCC
/// solver exploits this to sweep one component block of an SCC-permuted
/// matrix while earlier (already solved) blocks act as constants folded
/// into the effective right-hand side.
///
/// Rows with a diagonal entry solve `x_r = diag·x_r + acc` exactly as
/// `x_r = acc / (1 - diag)`, so self-loops cost nothing extra; a diagonal
/// within `f64::EPSILON` of one falls back to the raw accumulator.
pub(crate) fn gs_sweep_range(a: &CsrMatrix, b: &[f64], x: &mut [f64], lo: usize, hi: usize) -> f64 {
    let mut delta = 0.0_f64;
    for r in lo..hi {
        let mut acc = b[r];
        let mut diag = 0.0;
        for (c, v) in a.row_entries(r) {
            if c == r {
                diag = v;
            } else {
                acc += v * x[c];
            }
        }
        let denom = 1.0 - diag;
        let new = if denom.abs() < f64::EPSILON { acc } else { acc / denom };
        let d = (new - x[r]).abs();
        if d > delta {
            delta = d;
        }
        x[r] = new;
    }
    delta
}

/// Converts a budgeted run into the legacy strict result: non-convergence
/// (for any reason) becomes [`NumericsError::NoConvergence`] carrying the
/// genuine last residual.
fn finish_unbudgeted(run: IterRun) -> Result<IterSolution, NumericsError> {
    if run.converged {
        Ok(IterSolution { x: run.x, iterations: run.iterations, delta: run.delta })
    } else {
        Err(NumericsError::NoConvergence { iterations: run.iterations, residual: run.delta })
    }
}

fn check_shapes(a: &CsrMatrix, b: &[f64], x0: &[f64]) -> Result<(), NumericsError> {
    if a.rows() != a.cols() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!(
                "iterative solver requires square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if b.len() != a.rows() || x0.len() != a.rows() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!(
                "dimension mismatch: matrix {}x{}, b {}, x0 {}",
                a.rows(),
                a.cols(),
                b.len(),
                x0.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;

    /// `x0 = 2·x1 + 1, x1 = 2·x0 + 1`: spectral radius 2, so Gauss–Seidel
    /// diverges (a self-loop alone would be solved in closed form).
    fn divergent() -> CsrMatrix {
        CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 1, 2.0), Triplet::new(1, 0, 2.0)]).unwrap()
    }

    #[test]
    fn non_convergent_reports_error() {
        let opts = IterOptions { tolerance: 1e-12, max_iterations: 50 };
        let err = gauss_seidel(&divergent(), &[1.0; 2], &[1.0; 2], opts).unwrap_err();
        assert!(matches!(err, NumericsError::NoConvergence { .. }));
    }

    #[test]
    fn budgeted_solvers_return_best_effort() {
        // The system diverges; the budgeted API must not error.
        let opts = IterOptions { tolerance: 1e-12, max_iterations: 50 };
        let run =
            gauss_seidel_budgeted(&divergent(), &[1.0; 2], &[1.0; 2], opts, &Budget::unlimited())
                .unwrap();
        assert!(!run.converged);
        assert!(run.stopped.is_none());
        assert_eq!(run.iterations, 50);
        assert!(run.delta.is_finite() || run.delta.is_infinite()); // real residual, not NaN
        assert!(!run.delta.is_nan());
    }

    #[test]
    fn evaluation_cap_stops_sweeps() {
        // Off-diagonal coupling so Gauss–Seidel converges slowly (rate ~0.998).
        let a =
            CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 1, 0.999), Triplet::new(1, 0, 0.999)])
                .unwrap();
        let opts = IterOptions { tolerance: 1e-14, max_iterations: 1_000_000 };
        let budget = Budget::unlimited().with_max_evaluations(7);
        let run = gauss_seidel_budgeted(&a, &[1.0, 1.0], &[0.0, 0.0], opts, &budget).unwrap();
        assert_eq!(run.stopped, Some(crate::Exhaustion::Evaluations));
        assert!(run.iterations <= 7);
        assert!(!run.converged);
    }

    #[test]
    fn cancelled_solve_stops_immediately() {
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        let a = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 0.5)]).unwrap();
        let run =
            gauss_seidel_budgeted(&a, &[1.0], &[0.0], IterOptions::default(), &budget).unwrap();
        assert_eq!(run.stopped, Some(crate::Exhaustion::Cancelled));
        assert_eq!(run.iterations, 0);
        assert_eq!(run.x, vec![0.0]); // untouched start vector
    }

    #[test]
    fn shape_errors() {
        let a = CsrMatrix::from_triplets(2, 1, &[]).unwrap();
        assert!(gauss_seidel(&a, &[0.0], &[0.0], IterOptions::default()).is_err());
        let sq = CsrMatrix::from_triplets(2, 2, &[]).unwrap();
        assert!(gauss_seidel(&sq, &[0.0], &[0.0, 0.0], IterOptions::default()).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Triplet;
    use proptest::prelude::*;

    proptest! {
        /// For random strictly sub-stochastic matrices Gauss–Seidel converges
        /// to the dense solution of `(I − A) x = b`.
        #[test]
        fn substochastic_systems_converge(
            raw in proptest::collection::vec(0.0_f64..1.0, 9),
            b in proptest::collection::vec(0.0_f64..1.0, 3),
        ) {
            let n = 3;
            let mut triplets = Vec::new();
            for r in 0..n {
                let row: Vec<f64> = (0..n).map(|c| raw[r * n + c]).collect();
                let sum: f64 = row.iter().sum();
                // scale row sum to 0.9 so the spectral radius is < 1
                let scale = if sum > 0.0 { 0.9 / sum } else { 0.0 };
                for (c, v) in row.iter().enumerate() {
                    if *v > 0.0 {
                        triplets.push(Triplet::new(r, c, v * scale));
                    }
                }
            }
            let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
            let opts = IterOptions { tolerance: 1e-12, max_iterations: 200_000 };
            let g = gauss_seidel(&a, &b, &vec![0.0; n], opts).unwrap();
            let mut dense = crate::DenseMatrix::<f64>::identity(n);
            for t in &triplets {
                dense.set(t.row, t.col, *dense.get(t.row, t.col) - t.value);
            }
            let exact = crate::solve::solve_dense(&dense, &b).unwrap();
            for (x, y) in exact.iter().zip(&g.x) {
                prop_assert!((x - y).abs() < 1e-8, "dense {} vs gauss-seidel {}", x, y);
            }
        }
    }
}
