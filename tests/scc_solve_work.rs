//! The SCC-first solve pays for itself on the shape it exists for: on the
//! layered-SCC family, whose condensation is thousands of small components
//! in a deep dependency order, it does less row work than monolithic
//! Gauss–Seidel on the same maybe-state system. Work is counted, not timed,
//! so the check is deterministic.

use tml_conformance::gen::{self, GOAL_LABEL};
use trusted_ml::models::graph;
use trusted_ml::numerics::iterative::{gauss_seidel_budgeted, IterOptions};
use trusted_ml::numerics::scc::solve_scc_budgeted;
use trusted_ml::numerics::{Budget, CsrMatrix, Triplet};

#[test]
fn scc_solve_does_less_row_work_than_monolithic_gauss_seidel() {
    let model = gen::layered_scc_dtmc(7, 64, 10_000 / 256, 4);
    let n = model.num_states();
    assert_eq!(n, 9_985);
    // Every 97th state (offset 13) is blocked from φ, so Prob1 cannot
    // swallow the state space and the maybe system stays large.
    let target = model.labeling().mask(GOAL_LABEL);
    let phi: Vec<bool> = (0..n).map(|s| target[s] || s % 97 != 13).collect();
    let (zero, one) = graph::prob01(&model, &phi, &target);
    let maybe: Vec<usize> = (0..n).filter(|&s| !zero[s] && !one[s]).collect();
    let mut index = vec![usize::MAX; n];
    for (i, &s) in maybe.iter().enumerate() {
        index[s] = i;
    }
    let m = maybe.len();
    let mut b = vec![0.0; m];
    let mut triplets = Vec::new();
    for (i, &s) in maybe.iter().enumerate() {
        for (t, p) in model.successors(s) {
            if one[t] {
                b[i] += p;
            } else if index[t] != usize::MAX {
                triplets.push(Triplet { row: i, col: index[t], value: p });
            }
        }
    }
    assert!(m > n / 2, "a real maybe system: {m} states");
    let a = CsrMatrix::from_triplets(m, m, &triplets).unwrap();
    let opts = IterOptions { tolerance: 1e-10, max_iterations: 5_000_000 };

    let mono = gauss_seidel_budgeted(&a, &b, &vec![0.0; m], opts, &Budget::unlimited()).unwrap();
    let scc = solve_scc_budgeted(&a, &b, opts, &Budget::unlimited()).unwrap();
    assert!(mono.converged && scc.run.converged);
    for (i, (x, y)) in mono.x.iter().zip(&scc.run.x).enumerate() {
        assert!((x - y).abs() < 1e-6, "state {}: monolithic {x} vs scc {y}", maybe[i]);
    }

    // Monolithic: every sweep backs up every maybe state. SCC, bounded
    // from above: one pass that back-substitutes each trivial block and
    // assembles each dense block (at most `largest` rows), plus, for the
    // iterative blocks, every sweep after that pass over at most `largest`
    // rows.
    let stats = scc.stats;
    let mono_work = mono.iterations * m;
    let scc_work = stats.trivial
        + stats.dense_blocks * stats.largest
        + (scc.run.iterations - 1) * stats.largest;
    assert!(
        scc_work < mono_work,
        "scc {scc_work} row backups ({stats:?}, {} sweeps) vs monolithic {mono_work} \
         ({} sweeps over {m} states)",
        scc.run.iterations,
        mono.iterations
    );
}
