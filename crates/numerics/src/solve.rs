//! Direct linear solvers over an arbitrary [`Field`].
//!
//! The central routine is [`solve_dense`]: Gaussian elimination with
//! partial pivoting. Because it is generic over [`Field`], instantiating it
//! with rational functions performs *symbolic* elimination — which is the
//! matrix formulation of the state-elimination algorithm used by parametric
//! probabilistic model checkers such as PARAM and PRISM's parametric engine.

use crate::{DenseMatrix, Field, NumericsError};

/// Solves `A·x = b` by Gaussian elimination with partial pivoting.
///
/// Pivot rows are chosen by [`Field::pivot_weight`]; for `f64` this is the
/// usual magnitude-based partial pivoting, while for symbolic fields any
/// non-zero pivot is acceptable.
///
/// # Errors
///
/// * [`NumericsError::ShapeMismatch`] if `A` is not square or `b` has the
///   wrong length.
/// * [`NumericsError::SingularMatrix`] if no non-zero pivot can be found in
///   some column.
///
/// # Example
///
/// ```
/// use tml_numerics::{DenseMatrix, solve::solve_dense};
///
/// # fn main() -> Result<(), tml_numerics::NumericsError> {
/// let a = DenseMatrix::from_rows(vec![vec![0.0, 2.0], vec![1.0, 0.0]])?;
/// let x = solve_dense(&a, &[4.0, 3.0])?;
/// assert_eq!(x, vec![3.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve_dense<T: Field>(a: &DenseMatrix<T>, b: &[T]) -> Result<Vec<T>, NumericsError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(NumericsError::ShapeMismatch {
            detail: format!("solve_dense requires a square matrix, got {}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(NumericsError::ShapeMismatch {
            detail: format!("right-hand side has length {}, expected {n}", b.len()),
        });
    }

    // Row-major working copies.
    let mut m: Vec<T> = (0..n).flat_map(|r| a.row(r).iter().cloned()).collect();
    let mut rhs: Vec<T> = b.to_vec();
    let mut x = vec![T::zero(); n];
    solve_dense_in_place(&mut m, &mut rhs, &mut x)?;
    Ok(x)
}

/// [`solve_dense`] without allocating: `a` is the row-major `n × n` matrix
/// and `b` the right-hand side (both overwritten by the elimination), `x`
/// receives the solution, with `n = b.len()`.
///
/// # Errors
///
/// * [`NumericsError::ShapeMismatch`] if `a` is not `n × n` or `x` is not
///   of length `n`.
/// * [`NumericsError::SingularMatrix`] if no non-zero pivot can be found in
///   some column.
pub fn solve_dense_in_place<T: Field>(
    a: &mut [T],
    b: &mut [T],
    x: &mut [T],
) -> Result<(), NumericsError> {
    let n = b.len();
    if a.len() != n * n || x.len() != n {
        return Err(NumericsError::ShapeMismatch {
            detail: format!(
                "solve_dense_in_place: {} matrix entries and {} unknowns for {n} equations",
                a.len(),
                x.len()
            ),
        });
    }

    for col in 0..n {
        // Partial pivoting by weight.
        let mut best = col;
        let mut best_w = a[col * n + col].pivot_weight();
        for r in (col + 1)..n {
            let w = a[r * n + col].pivot_weight();
            if w > best_w {
                best = r;
                best_w = w;
            }
        }
        if best_w == 0.0 || a[best * n + col].is_zero() {
            return Err(NumericsError::SingularMatrix { at: col });
        }
        if best != col {
            for c in 0..n {
                a.swap(col * n + c, best * n + c);
            }
            b.swap(col, best);
        }

        let pivot = a[col * n + col].clone();
        for r in (col + 1)..n {
            if a[r * n + col].is_zero() {
                continue;
            }
            let factor = a[r * n + col].div(&pivot);
            for c in (col + 1)..n {
                if a[col * n + c].is_zero() {
                    continue;
                }
                let delta = factor.mul(&a[col * n + c]);
                a[r * n + c] = a[r * n + c].sub(&delta);
            }
            // Exact zero below the pivot by construction.
            a[r * n + col] = T::zero();
            if !b[col].is_zero() {
                let delta = factor.mul(&b[col]);
                b[r] = b[r].sub(&delta);
            }
        }
    }

    // Back-substitution.
    for col in (0..n).rev() {
        let mut acc = b[col].clone();
        for c in (col + 1)..n {
            if a[col * n + c].is_zero() || x[c].is_zero() {
                continue;
            }
            acc = acc.sub(&a[col * n + c].mul(&x[c]));
        }
        x[col] = acc.div(&a[col * n + col]);
    }
    Ok(())
}

/// Computes the residual `‖A·x − b‖∞` of a candidate `f64` solution.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on dimension mismatch.
pub fn residual_inf(a: &DenseMatrix<f64>, x: &[f64], b: &[f64]) -> Result<f64, NumericsError> {
    let ax = a.mat_vec(x)?;
    if ax.len() != b.len() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!("residual: A·x has length {}, b has length {}", ax.len(), b.len()),
        });
    }
    Ok(ax.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_3x3() {
        let a = DenseMatrix::from_rows(vec![
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ])
        .unwrap();
        let b = vec![8.0, -11.0, -3.0];
        let x = solve_dense(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
        assert!(residual_inf(&a, &x, &b).unwrap() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let err = solve_dense(&a, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, NumericsError::SingularMatrix { .. }));
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(solve_dense(&a, &[1.0]).is_err());
    }

    #[test]
    fn rejects_bad_rhs_length() {
        let a: DenseMatrix<f64> = DenseMatrix::identity(2);
        assert!(solve_dense(&a, &[1.0]).is_err());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve_dense(&a, &[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For random well-conditioned (diagonally dominant) systems the
        /// solver's residual is tiny.
        #[test]
        fn random_dd_systems_have_small_residual(
            seed_entries in proptest::collection::vec(-1.0_f64..1.0, 16),
            b in proptest::collection::vec(-10.0_f64..10.0, 4),
        ) {
            let n = 4;
            let mut rows = Vec::new();
            for r in 0..n {
                let mut row: Vec<f64> = (0..n).map(|c| seed_entries[r * n + c]).collect();
                // Make strictly diagonally dominant => nonsingular.
                let sum: f64 = row.iter().map(|v| v.abs()).sum();
                row[r] = sum + 1.0;
                rows.push(row);
            }
            let a = DenseMatrix::from_rows(rows).unwrap();
            let x = solve_dense(&a, &b).unwrap();
            prop_assert!(residual_inf(&a, &x, &b).unwrap() < 1e-9);
        }

        /// Solving with the identity returns the right-hand side.
        #[test]
        fn identity_solve_is_rhs(b in proptest::collection::vec(-100.0_f64..100.0, 1..8)) {
            let a: DenseMatrix<f64> = DenseMatrix::identity(b.len());
            let x = solve_dense(&a, &b).unwrap();
            prop_assert_eq!(x, b);
        }
    }
}
