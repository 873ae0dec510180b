//! The SCC-first solve pays for itself on the shapes it exists for: on the
//! layered-SCC family, whose condensation is thousands of small components
//! in a deep dependency order, it does less row work than monolithic
//! Gauss–Seidel on the same maybe-state system; on the grid, one giant
//! component, sweeping the block in flow order takes less than half the
//! sweeps of the monolithic solve in natural order. Work is counted, not
//! timed, so the checks are deterministic.

use tml_conformance::gen::{self, GOAL_LABEL};
use trusted_ml::models::{graph, Dtmc};
use trusted_ml::numerics::iterative::{gauss_seidel_budgeted, IterOptions};
use trusted_ml::numerics::scc::solve_scc_budgeted;
use trusted_ml::numerics::{Budget, CsrMatrix, Triplet};

/// The maybe-state system `x = A·x + b` of `P[φ U goal]` where every 97th
/// state (offset 13) is blocked from φ, so Prob1 cannot swallow the state
/// space and the system stays large. Returns the system and the model
/// state of each row.
fn blocked_until_system(model: &Dtmc) -> (CsrMatrix, Vec<f64>, Vec<usize>) {
    let n = model.num_states();
    let target = model.labeling().mask(GOAL_LABEL);
    let phi: Vec<bool> = (0..n).map(|s| target[s] || s % 97 != 13).collect();
    let (zero, one) = graph::prob01(model, &phi, &target);
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
    (CsrMatrix::from_triplets(m, m, &triplets).unwrap(), b, maybe)
}

const OPTS: IterOptions = IterOptions { tolerance: 1e-10, max_iterations: 5_000_000 };

#[test]
fn scc_solve_does_less_row_work_than_monolithic_gauss_seidel() {
    let model = gen::layered_scc_dtmc(7, 64, 10_000 / 256, 4);
    assert_eq!(model.num_states(), 9_985);
    let (a, b, maybe) = blocked_until_system(&model);
    let (m, opts) = (maybe.len(), OPTS);

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

#[test]
fn scc_solve_sweeps_a_giant_block_in_flow_order() {
    // One 9,896-state component: the SCC solve is a single Gauss–Seidel
    // block, so only the in-block order separates it from the monolithic
    // solve, which sweeps against the flow of the grid.
    let model = gen::grid_dtmc(1, 100);
    let (a, b, maybe) = blocked_until_system(&model);
    let m = maybe.len();
    let mono = gauss_seidel_budgeted(&a, &b, &vec![0.0; m], OPTS, &Budget::unlimited()).unwrap();
    let scc = solve_scc_budgeted(&a, &b, OPTS, &Budget::unlimited()).unwrap();
    assert!(mono.converged && scc.run.converged);
    assert_eq!((scc.stats.components, scc.stats.iterative_blocks), (1, 1), "{:?}", scc.stats);
    for (i, (x, y)) in mono.x.iter().zip(&scc.run.x).enumerate() {
        assert!((x - y).abs() < 1e-8, "state {}: monolithic {x} vs scc {y}", maybe[i]);
    }
    assert!(
        2 * scc.run.iterations <= mono.iterations,
        "scc {} sweeps vs monolithic {} over {m} states",
        scc.run.iterations,
        mono.iterations
    );
}
