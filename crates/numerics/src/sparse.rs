use crate::NumericsError;

/// A `(row, col, value)` entry used to assemble a [`CsrMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Entry value.
    pub value: f64,
}

impl Triplet {
    /// Convenience constructor.
    pub fn new(row: usize, col: usize, value: f64) -> Self {
        Triplet { row, col, value }
    }
}

/// A compressed-sparse-row matrix over `f64`.
///
/// Used for the transition matrices of large Markov chains where dense
/// storage would be wasteful. Duplicate `(row, col)` entries passed to
/// [`CsrMatrix::from_triplets`] are summed, matching the usual sparse
/// assembly convention.
///
/// # Example
///
/// ```
/// use tml_numerics::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), tml_numerics::NumericsError> {
/// let m = CsrMatrix::from_triplets(
///     2,
///     2,
///     &[Triplet::new(0, 0, 0.5), Triplet::new(0, 1, 0.5), Triplet::new(1, 1, 1.0)],
/// )?;
/// assert_eq!(m.mat_vec(&[1.0, 2.0])?, vec![1.5, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from triplets, summing duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::IndexOutOfBounds`] if any triplet addresses
    /// a position outside `rows × cols`.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<Self, NumericsError> {
        for t in triplets {
            if t.row >= rows {
                return Err(NumericsError::IndexOutOfBounds { index: t.row, len: rows });
            }
            if t.col >= cols {
                return Err(NumericsError::IndexOutOfBounds { index: t.col, len: cols });
            }
        }
        // Two-pass counting sort by row: a single O(nnz) scatter into flat
        // arrays instead of one heap-allocated bucket per row, which matters
        // when assembling million-row systems.
        let mut start = vec![0usize; rows + 1];
        for t in triplets {
            start[t.row + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut cursor = start.clone();
        let mut raw: Vec<(usize, f64)> = vec![(0, 0.0); triplets.len()];
        for t in triplets {
            raw[cursor[t.row]] = (t.col, t.value);
            cursor[t.row] += 1;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for r in 0..rows {
            let bucket = &mut raw[start[r]..start[r + 1]];
            // Stable sort keeps duplicates in input order, so their sum is
            // accumulated in the same floating-point order as before.
            bucket.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < bucket.len() {
                let c = bucket[i].0;
                let mut v = 0.0;
                while i < bucket.len() && bucket[i].0 == c {
                    v += bucket[i].1;
                    i += 1;
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row {r} out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// Rows are distributed over threads when the matrix is large enough
    /// to amortize the dispatch (16,384 stored entries). Each output
    /// element is the dot product of one row computed in its natural entry
    /// order, so the parallel product is **bitwise identical** to the
    /// serial one.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `x.len() != cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::ShapeMismatch {
                detail: format!("mat_vec: {} columns vs vector of length {}", self.cols, x.len()),
            });
        }
        let mut out = vec![0.0; self.rows];
        self.mat_vec_into(x, &mut out)?;
        Ok(out)
    }

    /// The column indices of row `r` as a slice (no values).
    ///
    /// Graph algorithms (SCC condensation, reachability) only need the
    /// sparsity structure; a direct slice avoids iterator overhead.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Matrix–vector product `A·x` written into a caller-provided buffer.
    ///
    /// This is the allocation-free kernel behind [`CsrMatrix::mat_vec`]:
    /// each output element folds its row in natural entry order.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `x.len() != cols()` or
    /// `out.len() != rows()`.
    pub fn mat_vec_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
        if x.len() != self.cols || out.len() != self.rows {
            return Err(NumericsError::ShapeMismatch {
                detail: format!(
                    "mat_vec_into: matrix {}x{}, x {}, out {}",
                    self.rows,
                    self.cols,
                    x.len(),
                    out.len()
                ),
            });
        }
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row_entries(r) {
                acc += v * x[c];
            }
            *slot = acc;
        }
        Ok(())
    }

    /// The symmetric permutation `B[i][j] = A[order[i]][order[j]]`.
    ///
    /// `order[new] = old` must be a permutation of `0..rows()`; the matrix
    /// must be square. This is how the solver lays a transition matrix out
    /// in SCC order: states of one component become a contiguous row/column
    /// block, so block solves stream through memory instead of chasing the
    /// original state numbering.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::ShapeMismatch`] if the matrix is not square or
    ///   `order.len() != rows()`.
    /// * [`NumericsError::IndexOutOfBounds`] if `order` is not a
    ///   permutation of `0..rows()`.
    pub fn permute_symmetric(&self, order: &[usize]) -> Result<CsrMatrix, NumericsError> {
        if self.rows != self.cols || order.len() != self.rows {
            return Err(NumericsError::ShapeMismatch {
                detail: format!(
                    "permute_symmetric: matrix {}x{}, order {}",
                    self.rows,
                    self.cols,
                    order.len()
                ),
            });
        }
        let n = self.rows;
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            if old >= n {
                return Err(NumericsError::IndexOutOfBounds { index: old, len: n });
            }
            if inv[old] != usize::MAX {
                return Err(NumericsError::IndexOutOfBounds { index: old, len: n });
            }
            inv[old] = new;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        row_ptr.push(0);
        for &old_r in order.iter() {
            scratch.clear();
            scratch.extend(self.row_entries(old_r).map(|(c, v)| (inv[c], v)));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix { rows: n, cols: n, row_ptr, col_idx, values })
    }

    /// Sum of the entries of row `r` (e.g. to verify row-stochasticity).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_sum(&self, r: usize) -> f64 {
        self.row_entries(r).map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[Triplet::new(0, 0, 1.0), Triplet::new(0, 2, 2.0), Triplet::new(2, 1, 3.0)],
        )
        .unwrap()
    }

    #[test]
    fn basic_assembly() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_entries(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row_entries(1).count(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m =
            CsrMatrix::from_triplets(1, 2, &[Triplet::new(0, 1, 0.25), Triplet::new(0, 1, 0.5)])
                .unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row_entries(0).next(), Some((1, 0.75)));
    }

    #[test]
    fn mat_vec_matches_dense() {
        let m = sample();
        let y = m.mat_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, 0.0, 6.0]);
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        let err = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 5, 1.0)]).unwrap_err();
        assert!(matches!(err, NumericsError::IndexOutOfBounds { index: 5, len: 1 }));
    }

    #[test]
    fn row_sum_works() {
        let m = sample();
        assert_eq!(m.row_sum(0), 3.0);
        assert_eq!(m.row_sum(1), 0.0);
    }

    #[test]
    fn mat_vec_shape_error() {
        assert!(sample().mat_vec(&[1.0]).is_err());
    }

    #[test]
    fn mat_vec_into_matches_mat_vec() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut out = vec![0.0; 3];
        m.mat_vec_into(&x, &mut out).unwrap();
        assert_eq!(out, m.mat_vec(&x).unwrap());
        let mut short = vec![0.0; 2];
        assert!(m.mat_vec_into(&x, &mut short).is_err());
    }

    #[test]
    fn row_cols_exposes_structure() {
        let m = sample();
        assert_eq!(m.row_cols(0), &[0, 2]);
        assert_eq!(m.row_cols(1), &[] as &[usize]);
        assert_eq!(m.row_cols(2), &[1]);
    }

    #[test]
    fn permute_symmetric_relabels_entries() {
        let m = sample();
        // order[new] = old: new 0 is old 2, new 1 is old 0, new 2 is old 1.
        let p = m.permute_symmetric(&[2, 0, 1]).unwrap();
        // old (2,1)=3.0 -> new (0,2); old (0,0)=1.0 -> new (1,1);
        // old (0,2)=2.0 -> new (1,0).
        assert_eq!(p.row_entries(0).collect::<Vec<_>>(), vec![(2, 3.0)]);
        assert_eq!(p.row_entries(1).collect::<Vec<_>>(), vec![(0, 2.0), (1, 1.0)]);
        assert_eq!(p.row_entries(2).count(), 0);
        // mat_vec commutes with the permutation.
        let x = [0.5, -1.0, 2.0];
        let xp: Vec<f64> = [2, 0, 1].iter().map(|&o| x[o]).collect();
        let y = m.mat_vec(&x).unwrap();
        let yp = p.mat_vec(&xp).unwrap();
        for (new, &old) in [2usize, 0, 1].iter().enumerate() {
            assert!((yp[new] - y[old]).abs() < 1e-15);
        }
    }

    #[test]
    fn permute_symmetric_rejects_bad_orders() {
        let m = sample();
        assert!(m.permute_symmetric(&[0, 1]).is_err()); // wrong length
        assert!(m.permute_symmetric(&[0, 1, 1]).is_err()); // repeated index
        assert!(m.permute_symmetric(&[0, 1, 5]).is_err()); // out of range
        let rect = CsrMatrix::from_triplets(2, 1, &[]).unwrap();
        assert!(rect.permute_symmetric(&[0, 1]).is_err()); // not square
    }
}
