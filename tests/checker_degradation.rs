//! The checker's one fallback ladder, driven end to end. Under `Auto` a
//! large system is solved SCC-first. When the SCC solve stalls, a system of
//! at most 2,048 states is solved by dense elimination, and a larger one
//! returns its best iterate with the residual on record. Explicitly
//! requested solvers keep their strict error contract.

use tml_conformance::test_support::near_singular_dtmc;
use trusted_ml::checker::{CheckOptions, Checker, Diagnostics, LinearSolver};
use trusted_ml::logic::parse_query;
use trusted_ml::models::{Dtmc, DtmcBuilder};

/// Options that starve every iterative solve: Auto solver, a zero
/// direct-solver limit (so the first attempt is iterative), an iteration
/// budget far too small and a tolerance it cannot reach.
fn starved() -> CheckOptions {
    CheckOptions {
        solver: LinearSolver::Auto,
        direct_solver_limit: 0,
        max_iterations: 10,
        tolerance: 1e-14,
        ..CheckOptions::default()
    }
}

/// A gambler's ruin on `n` states biased towards winning (each bet won
/// with probability 0.6). Its `n − 2` transient states form one SCC,
/// larger than the SCC solver's 64-state dense blocks, so that block is
/// solved by Gauss–Seidel, which ten sweeps cannot converge.
fn biased_gambler(n: usize) -> Dtmc {
    let mut b = DtmcBuilder::new(n);
    b.transition(0, 0, 1.0).unwrap();
    b.transition(n - 1, n - 1, 1.0).unwrap();
    for s in 1..n - 1 {
        b.transition(s, s + 1, 0.6).unwrap();
        b.transition(s, s - 1, 0.4).unwrap();
    }
    b.label(n - 1, "rich").unwrap();
    b.initial_state(n / 2).unwrap();
    b.build().unwrap()
}

fn backend(diag: &Diagnostics, counter: &str) -> u64 {
    diag.telemetry.counter(&format!("checker.backend.{counter}"))
}

#[test]
fn degradation_chain_falls_back_to_direct_and_matches_it() {
    let d = biased_gambler(600);
    let q = parse_query("P=? [ F \"rich\" ]").unwrap();

    let (degraded, diag) =
        Checker::with_options(starved()).query(&d, &q).expect("degraded solve succeeds");
    let exact = Checker::with_options(CheckOptions {
        solver: LinearSolver::Direct,
        ..CheckOptions::default()
    })
    .query(&d, &q)
    .expect("direct solve succeeds")
    .0;

    assert_eq!(diag.fallbacks.len(), 1, "one fallback: {:?}", diag.fallbacks);
    assert!(diag.fallbacks[0].contains("directly"), "{:?}", diag.fallbacks[0]);
    assert_eq!(backend(&diag, "scc.fail"), 1);
    assert_eq!(backend(&diag, "direct.ok"), 1);
    assert!(diag.degraded(), "a fallback marks the run degraded");
    assert_eq!(diag.exhausted, None, "stalling is not budget exhaustion");
    // The last-resort solve is the explicit direct solve.
    assert_eq!(degraded, exact);
}

/// Above 2,048 states no dense solve is attempted: the stalled SCC iterate
/// is the answer, with its residual recorded.
#[test]
fn a_stalled_solve_above_the_dense_limit_returns_its_best_iterate() {
    let d = biased_gambler(2100);
    let q = parse_query("P=? [ F \"rich\" ]").unwrap();

    let (values, diag) =
        Checker::with_options(starved()).query(&d, &q).expect("best iterate, no error");
    assert_eq!(values.len(), 2100);
    assert!(values.iter().all(|v| (0.0..=1.0).contains(v)), "iterates stay probabilities");
    assert_eq!(diag.fallbacks.len(), 1, "one fallback: {:?}", diag.fallbacks);
    assert!(diag.fallbacks[0].contains("best iterate"), "{:?}", diag.fallbacks[0]);
    assert!(diag.degraded());
    assert!(diag.worst_residual > 0.0, "the residual is recorded");
    assert_eq!(diag.exhausted, None);
    assert_eq!(backend(&diag, "scc.fail"), 1);
    assert_eq!(backend(&diag, "direct.ok") + backend(&diag, "direct.fail"), 0);
}

/// The same starved options conclude without any fallback on the
/// near-singular chain: its states are all trivial components, so the SCC
/// solve back-substitutes exact values and never iterates.
#[test]
fn scc_stage_solves_the_near_singular_chain_without_degrading() {
    let d = near_singular_dtmc(17, 24);
    let q = parse_query("R{\"cost\"}=? [ F \"goal\" ]").unwrap();

    let (values, diag) =
        Checker::with_options(starved()).query(&d, &q).expect("scc stage solves exactly");
    assert!(diag.fallbacks.is_empty(), "no degradation expected: {:?}", diag.fallbacks);
    assert!(!diag.degraded());

    let exact = Checker::with_options(CheckOptions {
        solver: LinearSolver::Direct,
        ..CheckOptions::default()
    })
    .query(&d, &q)
    .expect("direct solve succeeds")
    .0;
    for s in 0..d.num_states() {
        assert!(
            (values[s] - exact[s]).abs() < 1e-9 * (1.0 + exact[s].abs()),
            "state {s}: scc {} vs direct {}",
            values[s],
            exact[s]
        );
    }
}

#[test]
fn explicit_gauss_seidel_keeps_the_strict_error_contract() {
    let d = near_singular_dtmc(17, 24);
    let q = parse_query("R{\"cost\"}=? [ F \"goal\" ]").unwrap();
    let opts = CheckOptions { solver: LinearSolver::GaussSeidel, ..starved() };
    let err = Checker::with_options(opts).query(&d, &q);
    assert!(err.is_err(), "explicitly requested GS must error instead of degrading");
    let opts = CheckOptions { solver: LinearSolver::Scc, ..starved() };
    let err = Checker::with_options(opts)
        .query(&biased_gambler(600), &parse_query("P=? [ F \"rich\" ]").unwrap());
    assert!(err.is_err(), "explicitly requested SCC must error instead of degrading");
}
