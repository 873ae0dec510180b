//! SCC condensation and block-decomposed fixed-point solves.
//!
//! The transition graphs of large Markov models are rarely one big knot:
//! they decompose into strongly connected components whose condensation is
//! a DAG. For the fixed-point systems `x = A·x + b` that reachability and
//! expected-reward checking produce, that structure is a gift — `x_i`
//! depends on `x_j` only when `A[i][j] ≠ 0`, so solving components in
//! dependency order (successors first) turns one gigantic iterative solve
//! into a sequence of small ones:
//!
//! * **trivial components** (a single state) resolve by *back-substitution*
//!   in closed form — they never enter an iterative sweep;
//! * **small non-trivial components** are solved exactly by dense
//!   elimination on the block;
//! * **large components** fall back to Gauss–Seidel restricted to the
//!   block, with everything already solved folded in as constants.
//!
//! Before solving, the matrix is symmetrically permuted so each component
//! occupies a contiguous row/column block ([`CsrMatrix::permute_symmetric`]),
//! which makes the block sweeps stream through memory in order.
//!
//! On layered models (DAGs of small components) this replaces the
//! `O(depth)` sweeps a monolithic Gauss–Seidel needs to propagate values
//! backward through the graph with a single back-substitution pass.

use tml_telemetry::{counter, span};

use crate::budget::{Budget, Exhaustion};
use crate::iterative::{gs_sweep_range, IterOptions, IterRun};
use crate::{CsrMatrix, NumericsError};

/// Components of a directed graph, condensed to a DAG.
///
/// Components are listed in **dependency order**: for every edge `u → v`
/// with `comp_of[u] ≠ comp_of[v]`, `comp_of[v] < comp_of[u]`. Equivalently
/// the order is a reverse topological sort of the condensation — sinks
/// first — which is exactly the order in which the fixed-point systems of
/// this crate must be solved (a state's value depends on its successors').
///
/// The layout is flat: one node array listing the components back to back
/// plus component offsets, so condensing a chain of a million singleton
/// components allocates three arrays, not a million small vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// Component index of each node.
    pub comp_of: Vec<usize>,
    /// Every node, components contiguous in dependency order; nodes within
    /// a component are sorted ascending.
    order: Vec<usize>,
    /// Component `c` is `order[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
}

impl Condensation {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The components in dependency order.
    pub fn components(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        self.offsets.windows(2).map(|w| &self.order[w[0]..w[1]])
    }

    /// Number of trivial (single-node) components.
    pub fn num_trivial(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[1] - w[0] == 1).count()
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        self.offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// The node order that lists components contiguously in dependency
    /// order (`order[new] = old`), suitable for
    /// [`CsrMatrix::permute_symmetric`].
    pub fn permutation(&self) -> &[usize] {
        &self.order
    }
}

/// Condenses the graph whose node `v` has successors `succ(v)`.
///
/// Iterative Tarjan: linear in nodes plus edges, no recursion, so it is
/// safe on million-state chains. Successor slices may contain duplicates
/// and self-loops; both are handled.
pub fn condensation_from<'a, F>(n: usize, succ: F) -> Condensation
where
    F: Fn(usize) -> &'a [usize],
{
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![UNVISITED; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut offsets: Vec<usize> = vec![0];
    let mut next_index = 0usize;
    // (node, position in its successor slice)
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            let succs = succ(v);
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] && index[w] < low[v] {
                    low[v] = index[w];
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    if low[v] < low[parent] {
                        low[parent] = low[v];
                    }
                }
                if low[v] == index[v] {
                    // v roots a component: pop it off the node stack.
                    let c = offsets.len() - 1;
                    let start = order.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = c;
                        order.push(w);
                        if w == v {
                            break;
                        }
                    }
                    order[start..].sort_unstable();
                    offsets.push(order.len());
                }
            }
        }
    }
    Condensation { comp_of, order, offsets }
}

/// Condenses the sparsity structure of a square [`CsrMatrix`].
pub fn condensation_csr(a: &CsrMatrix) -> Condensation {
    condensation_from(a.rows(), |v| a.row_cols(v))
}

/// Structural statistics of an SCC-decomposed solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SccStats {
    /// Number of strongly connected components.
    pub components: usize,
    /// Components resolved by closed-form back-substitution.
    pub trivial: usize,
    /// States in the largest component (the solve degenerates to a
    /// monolithic sweep as this approaches the state count).
    pub largest: usize,
    /// Non-trivial components solved exactly by dense elimination.
    pub dense_blocks: usize,
    /// Non-trivial components solved iteratively (Gauss–Seidel).
    pub iterative_blocks: usize,
}

/// Outcome of [`solve_scc_budgeted`].
#[derive(Debug, Clone, PartialEq)]
pub struct SccRun {
    /// The best-effort solution, in the caller's original state order.
    pub run: IterRun,
    /// How the state space decomposed.
    pub stats: SccStats,
}

/// Non-trivial components up to this many states are solved exactly by
/// dense elimination on the block; larger blocks use Gauss–Seidel.
const DENSE_BLOCK_LIMIT: usize = 64;

/// Poll the budget every this many back-substituted states, so the
/// `Instant::now` cost of a deadline check does not dominate million-state
/// back-substitution passes.
const BUDGET_POLL_STRIDE: usize = 4096;

/// Solves `x = A·x + b` by SCC decomposition.
///
/// The matrix is condensed and symmetrically permuted so that every
/// component is a contiguous block in dependency order, then blocks are
/// solved in sequence: trivial blocks by back-substitution, small blocks
/// by dense elimination on `(I − A_block)`, large blocks by in-place
/// Gauss–Seidel sweeps over the block's row range (states of earlier
/// blocks are already final and act as constants).
///
/// Iteration accounting: back-substitution and dense blocks together are
/// charged as one sweep-equivalent; each Gauss–Seidel block adds its own
/// sweep count. The budget is polled between blocks and once per block
/// sweep; on exhaustion the solved prefix is kept and the remaining states
/// stay at zero, with `run.stopped` carrying the cause.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on dimension mismatch — like
/// the other budgeted solvers, never `NoConvergence`.
pub fn solve_scc_budgeted(
    a: &CsrMatrix,
    b: &[f64],
    opts: IterOptions,
    budget: &Budget,
) -> Result<SccRun, NumericsError> {
    if a.rows() != a.cols() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!("scc solver requires square matrix, got {}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != a.rows() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!("dimension mismatch: matrix {}x{}, b {}", a.rows(), a.cols(), b.len()),
        });
    }
    let n = a.rows();
    let _span = span!("numerics.scc_solve", states = n, nnz = a.nnz());
    let cond = condensation_csr(a);
    let order = cond.permutation();
    let ap = a.permute_symmetric(order)?;
    let bp: Vec<f64> = order.iter().map(|&old| b[old]).collect();

    let mut stats = SccStats {
        components: cond.num_components(),
        trivial: 0,
        largest: cond.largest(),
        dense_blocks: 0,
        iterative_blocks: 0,
    };
    counter!("numerics.scc.components", stats.components as u64);

    let mut x = vec![0.0_f64; n];
    let mut scratch = DenseScratch::new();
    let mut sweeps: u64 = 1; // the back-substitution pass itself
    let mut worst_delta = 0.0_f64;
    let mut converged = true;
    let mut stopped: Option<Exhaustion> = None;
    let mut since_poll = 0usize;

    let mut start = 0usize;
    'blocks: for comp in cond.components() {
        let len = comp.len();
        let end = start + len;
        since_poll += len;
        if since_poll >= BUDGET_POLL_STRIDE || len > 1 {
            since_poll = 0;
            if let Some(cause) = budget.check(sweeps) {
                stopped = Some(cause);
                converged = false;
                break 'blocks;
            }
        }
        if len == 1 {
            stats.trivial += 1;
            // Closed form: x_s = (b_s + Σ_{c≠s} a_sc·x_c) / (1 − a_ss).
            // All off-block columns belong to earlier (solved) blocks.
            // No span here: million-state chains are all trivial blocks,
            // and a span per state would swamp the trace.
            gs_sweep_range(&ap, &bp, &mut x, start, end);
        } else if len <= DENSE_BLOCK_LIMIT {
            let _span = span!("numerics.scc.block", states = len);
            if solve_block_dense(&ap, &bp, &mut x, start, end, &mut scratch) {
                stats.dense_blocks += 1;
            } else {
                // Singular (I − A_block): fall back to sweeps.
                stats.iterative_blocks += 1;
                if !solve_block_gs(
                    &ap,
                    &bp,
                    &mut x,
                    start,
                    end,
                    opts,
                    budget,
                    &mut sweeps,
                    &mut worst_delta,
                    &mut stopped,
                ) {
                    converged = false;
                    if stopped.is_some() {
                        break 'blocks;
                    }
                }
            }
        } else {
            let _span = span!("numerics.scc.block", states = len);
            stats.iterative_blocks += 1;
            if !solve_block_gs(
                &ap,
                &bp,
                &mut x,
                start,
                end,
                opts,
                budget,
                &mut sweeps,
                &mut worst_delta,
                &mut stopped,
            ) {
                converged = false;
                if stopped.is_some() {
                    break 'blocks;
                }
            }
        }
        start = end;
    }
    counter!("numerics.solve.sweeps", sweeps);

    // Undo the permutation: x is indexed by new position, order[new] = old.
    let mut result = vec![0.0_f64; n];
    for (new, &old) in order.iter().enumerate() {
        result[old] = x[new];
    }
    Ok(SccRun {
        run: IterRun {
            x: result,
            iterations: sweeps as usize,
            delta: worst_delta,
            converged,
            stopped,
        },
        stats,
    })
}

/// Reusable scratch for the small dense block solves: one flat
/// `DENSE_BLOCK_LIMIT²` matrix plus a right-hand side, shared across every
/// block of a solve so the hot path performs no per-block allocation.
struct DenseScratch {
    a: Vec<f64>,
    rhs: Vec<f64>,
}

impl DenseScratch {
    fn new() -> Self {
        DenseScratch {
            a: vec![0.0; DENSE_BLOCK_LIMIT * DENSE_BLOCK_LIMIT],
            rhs: vec![0.0; DENSE_BLOCK_LIMIT],
        }
    }
}

/// Solves one block exactly: assembles `(I − A_block) y = rhs` on the
/// reusable scratch with the already-solved outside contributions folded
/// into `rhs`, runs in-place Gaussian elimination with partial pivoting,
/// and writes the solution directly into `x[start..end]`. Returns `false`
/// (leaving `x` untouched) when the block matrix is singular, in which
/// case the caller falls back to iterating the block.
fn solve_block_dense(
    ap: &CsrMatrix,
    bp: &[f64],
    x: &mut [f64],
    start: usize,
    end: usize,
    scratch: &mut DenseScratch,
) -> bool {
    let k = end - start;
    let a = &mut scratch.a[..k * k];
    a.fill(0.0);
    let rhs = &mut scratch.rhs[..k];
    for i in 0..k {
        let r = start + i;
        let mut acc = bp[r];
        a[i * k + i] = 1.0;
        for (c, v) in ap.row_entries(r) {
            if (start..end).contains(&c) {
                a[i * k + (c - start)] -= v;
            } else {
                acc += v * x[c];
            }
        }
        rhs[i] = acc;
    }
    for col in 0..k {
        let mut piv = col;
        let mut best = a[col * k + col].abs();
        for r in col + 1..k {
            let cand = a[r * k + col].abs();
            if cand > best {
                best = cand;
                piv = r;
            }
        }
        if best < 1e-300 {
            return false;
        }
        if piv != col {
            for c in col..k {
                a.swap(col * k + c, piv * k + c);
            }
            rhs.swap(col, piv);
        }
        let d = a[col * k + col];
        for r in col + 1..k {
            let f = a[r * k + col] / d;
            if f == 0.0 {
                continue;
            }
            a[r * k + col] = 0.0;
            for c in col + 1..k {
                a[r * k + c] -= f * a[col * k + c];
            }
            rhs[r] -= f * rhs[col];
        }
    }
    for i in (0..k).rev() {
        let mut acc = rhs[i];
        for c in i + 1..k {
            acc -= a[i * k + c] * x[start + c];
        }
        x[start + i] = acc / a[i * k + i];
    }
    true
}

/// Gauss–Seidel on one block's row range until the block converges, the
/// iteration cap is hit, or the budget stops the run. Returns whether the
/// block converged; accumulates sweep count and worst residual, and
/// records a budget stop in `stopped`.
#[allow(clippy::too_many_arguments)]
fn solve_block_gs(
    ap: &CsrMatrix,
    bp: &[f64],
    x: &mut [f64],
    start: usize,
    end: usize,
    opts: IterOptions,
    budget: &Budget,
    sweeps: &mut u64,
    worst_delta: &mut f64,
    stopped: &mut Option<Exhaustion>,
) -> bool {
    let mut delta = f64::INFINITY;
    for _ in 0..opts.max_iterations {
        if let Some(cause) = budget.check(*sweeps) {
            *stopped = Some(cause);
            if delta.is_finite() && delta > *worst_delta {
                *worst_delta = delta;
            }
            return false;
        }
        delta = gs_sweep_range(ap, bp, x, start, end);
        *sweeps += 1;
        if delta <= opts.tolerance {
            if delta > *worst_delta {
                *worst_delta = delta;
            }
            return true;
        }
    }
    if delta.is_finite() && delta > *worst_delta {
        *worst_delta = delta;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;

    fn csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let trips: Vec<Triplet> = entries.iter().map(|&(r, c, v)| Triplet::new(r, c, v)).collect();
        CsrMatrix::from_triplets(n, n, &trips).unwrap()
    }

    #[test]
    fn condensation_of_a_cycle_and_tail() {
        // 0 → 1 → 2 → 0 (cycle), 3 → 0 (tail).
        let cond = condensation_from(4, |v| {
            const ADJ: [&[usize]; 4] = [&[1], &[2], &[0], &[0]];
            ADJ[v]
        });
        assert_eq!(cond.num_components(), 2);
        let comps: Vec<&[usize]> = cond.components().collect();
        assert_eq!(comps, [&[0, 1, 2][..], &[3]]);
        assert_eq!(cond.comp_of[3], 1);
        assert_eq!(cond.largest(), 3);
        assert_eq!(cond.num_trivial(), 1);
    }

    #[test]
    fn dependency_order_puts_successors_first() {
        // 0 → 1 → 2: pure chain, components are singletons and every edge
        // u → v must satisfy comp_of[v] < comp_of[u].
        let cond = condensation_from(3, |v| {
            const ADJ: [&[usize]; 3] = [&[1], &[2], &[]];
            ADJ[v]
        });
        assert_eq!(cond.num_components(), 3);
        assert!(cond.comp_of[1] < cond.comp_of[0]);
        assert!(cond.comp_of[2] < cond.comp_of[1]);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let a = csr(5, &[(0, 1, 0.5), (1, 0, 0.5), (2, 3, 1.0), (4, 2, 1.0)]);
        let cond = condensation_csr(&a);
        let mut order = cond.permutation().to_vec();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chain_solved_by_back_substitution_alone() {
        // x_i = 0.9·x_{i+1}, x_9 = 0·x + 1  ⇒ x_i = 0.9^(9-i).
        let n = 10;
        let mut entries = Vec::new();
        for i in 0..n - 1 {
            entries.push((i, i + 1, 0.9));
        }
        let a = csr(n, &entries);
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let out = solve_scc_budgeted(&a, &b, IterOptions::default(), &Budget::unlimited()).unwrap();
        assert!(out.run.converged);
        assert_eq!(out.stats.components, n);
        assert_eq!(out.stats.trivial, n);
        assert_eq!(out.stats.iterative_blocks, 0);
        // Exactly one sweep-equivalent: never entered an iterative sweep.
        assert_eq!(out.run.iterations, 1);
        for i in 0..n {
            let want = 0.9_f64.powi((n - 1 - i) as i32);
            assert!((out.run.x[i] - want).abs() < 1e-12, "state {i}");
        }
    }

    #[test]
    fn self_loops_resolve_in_closed_form() {
        // x = 0.5x + 1 ⇒ x = 2, still a trivial component.
        let a = csr(1, &[(0, 0, 0.5)]);
        let out =
            solve_scc_budgeted(&a, &[1.0], IterOptions::default(), &Budget::unlimited()).unwrap();
        assert!(out.run.converged);
        assert_eq!(out.stats.trivial, 1);
        assert!((out.run.x[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nontrivial_blocks_match_gauss_seidel() {
        // Two coupled states feeding a third: one 2-cycle block + trivial.
        let a = csr(3, &[(0, 1, 0.5), (1, 0, 0.25), (0, 2, 0.3), (2, 2, 0.5)]);
        let b = vec![0.1, 0.2, 1.0];
        let scc = solve_scc_budgeted(&a, &b, IterOptions::default(), &Budget::unlimited()).unwrap();
        let gs = crate::iterative::gauss_seidel(&a, &b, &[0.0; 3], IterOptions::default()).unwrap();
        assert!(scc.run.converged);
        assert_eq!(scc.stats.components, 2);
        assert_eq!(scc.stats.dense_blocks, 1);
        for (got, want) in scc.run.x.iter().zip(&gs.x) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn large_block_takes_iterative_path() {
        // A single SCC bigger than DENSE_BLOCK_LIMIT: ring of 100 states
        // with damping, so the whole system is one iterative block.
        let n = 100;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, (i + 1) % n, 0.7));
        }
        let a = csr(n, &entries);
        let b = vec![0.3; n];
        let out = solve_scc_budgeted(&a, &b, IterOptions::default(), &Budget::unlimited()).unwrap();
        assert!(out.run.converged);
        assert_eq!(out.stats.components, 1);
        assert_eq!(out.stats.iterative_blocks, 1);
        // Symmetric fixed point: x = 0.3 / (1 - 0.7) = 1.
        for v in &out.run.x {
            assert!((v - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn budget_stop_is_reported() {
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        let a = csr(2, &[(0, 1, 0.5), (1, 0, 0.5)]);
        let out = solve_scc_budgeted(&a, &[1.0, 1.0], IterOptions::default(), &budget).unwrap();
        assert_eq!(out.run.stopped, Some(Exhaustion::Cancelled));
        assert!(!out.run.converged);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[]).unwrap();
        assert!(solve_scc_budgeted(&a, &[0.0; 2], IterOptions::default(), &Budget::unlimited())
            .is_err());
        let sq = csr(2, &[]);
        assert!(solve_scc_budgeted(&sq, &[0.0; 3], IterOptions::default(), &Budget::unlimited())
            .is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::Triplet;
    use proptest::prelude::*;

    proptest! {
        /// The component order is a valid reverse topological order of the
        /// condensation DAG: every edge points into the same or an earlier
        /// component, and the components partition the nodes.
        #[test]
        fn condensation_is_reverse_topological(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
        ) {
            let n = 20;
            let mut adj = vec![Vec::new(); n];
            for &(u, v) in &edges {
                adj[u].push(v);
            }
            let cond = condensation_from(n, |v| &adj[v][..]);
            let mut seen = vec![false; n];
            for comp in cond.components() {
                for &v in comp {
                    prop_assert!(!seen[v]);
                    seen[v] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
            for &(u, v) in &edges {
                prop_assert!(
                    cond.comp_of[v] <= cond.comp_of[u],
                    "edge {u}->{v} violates dependency order"
                );
            }
        }

        /// SCC-decomposed solves agree with monolithic Gauss–Seidel on
        /// random strictly sub-stochastic systems.
        #[test]
        fn scc_solve_matches_gauss_seidel(
            raw in proptest::collection::vec(0.0_f64..1.0, 36),
            b in proptest::collection::vec(0.0_f64..1.0, 6),
        ) {
            let n = 6;
            let mut triplets = Vec::new();
            for r in 0..n {
                let row: Vec<f64> = (0..n).map(|c| raw[r * n + c]).collect();
                let sum: f64 = row.iter().sum();
                let scale = if sum > 0.0 { 0.9 / sum } else { 0.0 };
                for (c, v) in row.iter().enumerate() {
                    // Sparsify: drop small entries so varied SCC structure
                    // appears instead of one dense block.
                    if *v > 0.3 {
                        triplets.push(Triplet::new(r, c, v * scale));
                    }
                }
            }
            let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
            let opts = IterOptions { tolerance: 1e-12, max_iterations: 200_000 };
            let scc = solve_scc_budgeted(&a, &b, opts, &Budget::unlimited()).unwrap();
            let gs = crate::iterative::gauss_seidel(&a, &b, &vec![0.0; n], opts).unwrap();
            prop_assert!(scc.run.converged);
            for (x, y) in scc.run.x.iter().zip(&gs.x) {
                prop_assert!((x - y).abs() < 1e-8, "scc {x} vs gs {y}");
            }
        }
    }
}
