//! Fault-injection tests for the budgeted, fault-tolerant repair runtime.
//!
//! Three fault classes are injected and must be survived gracefully:
//!
//! * **NaN poisoning** — objectives/constraints that return NaN on part of
//!   their domain must not poison the solve or leak NaN into results;
//! * **slowness** — artificially slow merit functions under a wall-clock
//!   deadline must yield a best-effort `Solution` within ~2× the deadline,
//!   with the cause recorded in diagnostics (no error, no hang);
//! * **forced non-convergence** — starved iterative-solver options must
//!   drive the SCC → direct fallback ladder, and the ladder's answer must
//!   match a pure direct solve.

use std::time::{Duration, Instant};

use trusted_ml::checker::{dtmc, Budget, CancelToken, CheckOptions, Exhaustion, LinearSolver};
use trusted_ml::logic::parse_formula;
use trusted_ml::models::{Dtmc, DtmcBuilder, Path, TraceDataset};
use trusted_ml::optimizer::{ConstraintSense, Nlp, PenaltySolver};
use trusted_ml::repair::pipeline::{TmlOutcome, TmlPipeline};
use trusted_ml::repair::{ModelRepair, ModelSpec, PerturbationTemplate, RepairStatus};

// ---------------------------------------------------------------- NaN faults

/// An NLP whose objective is NaN on half its box: the solver must ignore
/// the poisoned region and still find the clean minimum.
#[test]
fn nan_poisoned_objective_is_survived() {
    let mut nlp = Nlp::new(1, vec![(-2.0, 2.0)]).unwrap();
    nlp.objective(|x| if x[0] < 0.0 { f64::NAN } else { (x[0] - 1.0).powi(2) });
    let sol = PenaltySolver::new().solve(&nlp).unwrap();
    assert!(sol.x[0].is_finite(), "solution leaked a non-finite point: {:?}", sol.x);
    assert!((sol.x[0] - 1.0).abs() < 1e-3, "x = {:?}", sol.x);
    assert!(sol.feasible);
}

/// NaN in a *constraint* (the shape a crashed checker oracle produces —
/// `unwrap_or(f64::NAN)`) must not make the solver report a bogus feasible
/// point inside the poisoned region.
#[test]
fn nan_poisoned_constraint_is_survived() {
    let mut nlp = Nlp::new(1, vec![(-2.0, 2.0)]).unwrap();
    nlp.objective(|x| x[0] * x[0]);
    // Oracle "crashes" (NaN) left of the origin; requires x >= 1 elsewhere.
    nlp.constraint(
        "oracle",
        ConstraintSense::Ge,
        1.0,
        |x| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                x[0]
            }
        },
    );
    let sol = PenaltySolver::new().solve(&nlp).unwrap();
    assert!(sol.feasible, "expected the clean feasible region to be found");
    assert!((sol.x[0] - 1.0).abs() < 1e-2, "x = {:?}", sol.x);
}

// ------------------------------------------------------------ slowness faults

/// A merit function that takes ~2 ms per evaluation would need seconds for
/// a full penalty solve. Under a 50 ms deadline the solver must hand back a
/// best-effort solution within ~2× the deadline.
#[test]
fn slow_objective_respects_wall_clock_deadline() {
    let mut nlp = Nlp::new(1, vec![(0.0, 2.0)]).unwrap();
    nlp.objective(|x| {
        std::thread::sleep(Duration::from_millis(2));
        (x[0] - 1.0).powi(2)
    });
    let deadline = Duration::from_millis(50);
    let start = Instant::now();
    let sol = PenaltySolver::new()
        .with_budget(Budget::unlimited().with_deadline(deadline))
        .solve(&nlp)
        .unwrap();
    let elapsed = start.elapsed();
    assert_eq!(sol.stopped, Some(Exhaustion::Deadline));
    assert!(elapsed < deadline * 2, "solver overshot the deadline: {elapsed:?} vs {deadline:?}");
    assert!(sol.x[0].is_finite());
    assert!((0.0..=2.0).contains(&sol.x[0]));
    assert!(sol.evaluations > 0, "nothing was evaluated before stopping");
}

/// A repair on a hard instance — a 400-state chain with a bounded-until
/// property, which forces the slow instantiate-and-check oracle and an
/// infeasible bound that makes the unbudgeted search exhaustive — must
/// return a best-effort outcome within ~2× a 50 ms deadline.
#[test]
fn repair_with_deadline_returns_best_effort_in_time() {
    let n = 400;
    let mut b = DtmcBuilder::new(n);
    for s in 0..n - 2 {
        b.transition(s, s + 1, 0.98).unwrap();
        b.transition(s, n - 1, 0.02).unwrap();
    }
    b.transition(n - 2, n - 2, 1.0).unwrap();
    b.transition(n - 1, n - 1, 1.0).unwrap();
    b.label(n - 2, "ok").unwrap();
    let chain = b.build().unwrap();

    // Bounded F forces the oracle back-end; the bound is far out of the
    // template's reach, so an unbudgeted solve would grind through every
    // start before concluding.
    let phi = parse_formula("P>=0.999 [ F<=800 \"ok\" ]").unwrap();
    let mut template = PerturbationTemplate::new();
    let v = template.parameter("v", -0.01, 0.01);
    template.nudge(0, 1, v, 1.0).unwrap();
    template.nudge(0, n - 1, v, -1.0).unwrap();

    let deadline = Duration::from_millis(50);
    let start = Instant::now();
    let out = ModelRepair::new()
        .with_budget(Budget::unlimited().with_deadline(deadline))
        .repair_dtmc(&chain, &phi, &template)
        .unwrap();
    let elapsed = start.elapsed();

    assert!(elapsed < deadline * 2, "repair overshot the deadline: {elapsed:?} vs {deadline:?}");
    assert_eq!(out.status, RepairStatus::BudgetExhausted);
    assert_eq!(out.diagnostics.exhausted, Some(Exhaustion::Deadline));
    assert!(out.diagnostics.degraded());
    // Best-effort parameters are still reported and finite.
    assert!(out.parameters.iter().all(|(_, v)| v.is_finite()));
}

// ----------------------------------------------------------- cancellation

/// Cancelling the shared token stops every stage of the pipeline: the run
/// concludes immediately with a best-effort outcome, never an error.
#[test]
fn cancelled_pipeline_concludes_immediately() {
    let mut ds = TraceDataset::new();
    let good = ds.add_class("good");
    let bad = ds.add_class("bad");
    ds.push(good, Path::from_states(vec![0, 1, 1]), 5.0).unwrap();
    ds.push(bad, Path::from_states(vec![0, 2, 2]), 5.0).unwrap();
    let spec = ModelSpec::new(3).label(1, "goal");
    let phi = parse_formula("P>=0.7 [ F \"goal\" ]").unwrap();
    let mut template = PerturbationTemplate::new();
    let v = template.parameter("v", -0.3, 0.3);
    template.nudge(0, 1, v, 1.0).unwrap();
    template.nudge(0, 2, v, -1.0).unwrap();

    let token = CancelToken::new();
    token.cancel(); // cancelled before the run even starts
    let out = TmlPipeline::new(spec, phi)
        .with_model_repair(template)
        .with_data_repair()
        .with_budget(Budget::unlimited().with_cancel_token(token))
        .run(&ds)
        .unwrap();
    match &out {
        TmlOutcome::Unrepairable { model_repair_status, data_repair_status, .. } => {
            assert_eq!(*model_repair_status, Some(RepairStatus::BudgetExhausted));
            assert_eq!(*data_repair_status, Some(RepairStatus::BudgetExhausted));
        }
        other => panic!("expected a best-effort conclusion, got {other:?}"),
    }
    assert_eq!(out.diagnostics().exhausted, Some(Exhaustion::Cancelled));
}

// ------------------------------------------- forced non-convergence faults

fn starved_options() -> CheckOptions {
    CheckOptions {
        solver: LinearSolver::Auto,
        direct_solver_limit: 0, // never pick direct up front
        max_iterations: 3,      // an iterated SCC block stalls immediately
        tolerance: 1e-12,
        ..Default::default()
    }
}

/// The gambler's-ruin chain: its `n − 2` transient states form one SCC,
/// and slow geometric convergence means three sweeps cannot reach 1e-12.
fn gambler(n: usize) -> Dtmc {
    let mut b = DtmcBuilder::new(n);
    for s in 1..n - 1 {
        b.transition(s, s - 1, 0.5).unwrap();
        b.transition(s, s + 1, 0.5).unwrap();
    }
    b.transition(0, 0, 1.0).unwrap();
    b.transition(n - 1, n - 1, 1.0).unwrap();
    b.initial_state(n / 2).unwrap();
    b.label(n - 1, "goal").unwrap();
    b.build().unwrap()
}

/// Forced non-convergence fires the full ladder — the SCC solve's
/// Gauss–Seidel block (598 states, above the 64-state dense blocks)
/// stalls, the dense direct solver rescues — and the rescued values are
/// those of a pure direct solve.
#[test]
fn forced_nonconvergence_fires_full_fallback_chain() {
    let n = 600;
    let d = gambler(n);
    let phi = vec![true; n];
    let target = d.labeling().mask("goal");
    let exact = dtmc::until_probabilities(
        &d,
        &phi,
        &target,
        &CheckOptions { solver: LinearSolver::Direct, ..Default::default() },
    )
    .unwrap();
    let (values, diag) =
        dtmc::until_probabilities_diag(&d, &phi, &target, &starved_options(), &Budget::unlimited())
            .unwrap();
    assert_eq!(diag.fallbacks.len(), 1, "fallbacks: {:?}", diag.fallbacks);
    assert!(diag.fallbacks[0].contains("direct"), "fallbacks: {:?}", diag.fallbacks);
    assert_eq!(diag.telemetry.counter("checker.backend.scc.fail"), 1);
    assert_eq!(diag.telemetry.counter("checker.backend.direct.ok"), 1);
    assert!(diag.degraded());
    assert_eq!(diag.exhausted, None, "stalling is not budget exhaustion");
    assert_eq!(values, exact);
}

mod fallback_chain_properties {
    use super::*;
    use proptest::prelude::*;

    /// A random sub-stochastic 12-state chain (same generator shape as the
    /// checker's own property tests).
    fn random_chain(seed: &[f64], n: usize) -> Dtmc {
        let mut b = DtmcBuilder::new(n);
        let mut k = 0;
        for s in 0..n {
            let t1 = ((seed[k] * n as f64) as usize).min(n - 1);
            let t2 = ((seed[k + 1] * n as f64) as usize).min(n - 1);
            let p = 0.05 + 0.9 * seed[k + 2];
            k += 3;
            if t1 == t2 {
                b.transition(s, t1, 1.0).unwrap();
            } else {
                b.transition(s, t1, p).unwrap();
                b.transition(s, t2, 1.0 - p).unwrap();
            }
        }
        b.label(n - 1, "goal").unwrap();
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random systems the starved SCC → direct ladder must agree
        /// with a pure direct solve to tight tolerance, whatever part of
        /// the ladder actually fires.
        #[test]
        fn starved_chain_matches_pure_direct(
            seed in proptest::collection::vec(0.0_f64..1.0, 36),
        ) {
            let n = 12;
            let d = random_chain(&seed, n);
            let phi = vec![true; n];
            let target = d.labeling().mask("goal");
            let exact = dtmc::until_probabilities(
                &d,
                &phi,
                &target,
                &CheckOptions { solver: LinearSolver::Direct, ..Default::default() },
            )
            .unwrap();
            let (values, diag) = dtmc::until_probabilities_diag(
                &d,
                &phi,
                &target,
                &starved_options(),
                &Budget::unlimited(),
            )
            .unwrap();
            prop_assert_eq!(diag.exhausted, None);
            for s in 0..n {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&values[s]),
                    "state {} out of range: {}", s, values[s]);
                prop_assert!((values[s] - exact[s]).abs() < 1e-8,
                    "state {}: fallback {} vs direct {}", s, values[s], exact[s]);
            }
        }
    }
}

// ------------------------------------------- parallel diagnostics merging

mod diagnostics_absorb_properties {
    use proptest::prelude::*;
    use trusted_ml::checker::{Diagnostics, Exhaustion};

    /// One per-thread diagnostics record, as a parallel restart would
    /// produce it: some evaluations, maybe a residual, maybe a fallback,
    /// maybe an exhaustion cause, and a telemetry counter.
    fn build(evals: u64, resid: f64, cause: u8, fallback: u8) -> Diagnostics {
        let mut d = Diagnostics::new();
        d.evaluations = evals;
        d.record_residual(resid);
        d.exhausted = match cause {
            1 => Some(Exhaustion::Evaluations),
            2 => Some(Exhaustion::Deadline),
            3 => Some(Exhaustion::Cancelled),
            _ => None,
        };
        if fallback == 1 {
            d.record_fallback(format!("fallback-{evals}"));
        }
        d.telemetry.incr("solver.penalty.evaluations", evals);
        d
    }

    /// The order-independent fingerprint of a merged record: totals, worst
    /// residual, exhaustion cause, the fallback *multiset* and telemetry.
    fn fingerprint(d: &Diagnostics) -> (u64, f64, Option<Exhaustion>, Vec<String>, u64) {
        let mut fallbacks = d.fallbacks.clone();
        fallbacks.sort();
        (
            d.evaluations,
            d.worst_residual,
            d.exhausted,
            fallbacks,
            d.telemetry.counter("solver.penalty.evaluations"),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Absorbing per-thread diagnostics in any order yields the same
        /// evaluation totals, worst residual, fallback multiset and
        /// exhaustion cause as the serial order — the property the
        /// parallel-restart merge relies on.
        #[test]
        fn absorb_is_order_independent(
            parts in proptest::collection::vec((0_u64..1000, 0.0_f64..1e-3, 0_u8..4, 0_u8..2), 1..6),
            keys in proptest::collection::vec(0.0_f64..1.0, 8),
        ) {
            let records: Vec<Diagnostics> =
                parts.iter().map(|&(e, r, c, f)| build(e, r, c, f)).collect();

            // Serial order.
            let mut serial = Diagnostics::new();
            for d in &records {
                serial.absorb(d);
            }

            // A permutation derived from the key vector (argsort).
            let mut order: Vec<usize> = (0..records.len()).collect();
            order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).unwrap());
            let mut permuted = Diagnostics::new();
            for &i in &order {
                permuted.absorb(&records[i]);
            }

            prop_assert_eq!(fingerprint(&serial), fingerprint(&permuted));

            // Associativity under a tree-shaped merge (threads absorbing
            // into intermediate accumulators before the final fold).
            let mut left = Diagnostics::new();
            let mut right = Diagnostics::new();
            for (i, d) in records.iter().enumerate() {
                if i % 2 == 0 { left.absorb(d) } else { right.absorb(d) }
            }
            let mut tree = Diagnostics::new();
            tree.absorb(&left);
            tree.absorb(&right);
            prop_assert_eq!(fingerprint(&serial), fingerprint(&tree));
        }
    }
}

// -------------------------------------------------- budget exhaustion paths

// ------------------------------------------------- degenerate interval sets

mod degenerate_intervals {
    use super::*;
    use trusted_ml::checker::{CheckError, Checker};
    use trusted_ml::models::IntervalDtmcBuilder;

    /// Robust VI on malformed uncertainty sets must return a structured
    /// `InvalidInterval` error — never hang, panic, or emit NaN values.
    fn check_rejects(build: impl FnOnce(&mut IntervalDtmcBuilder)) -> CheckError {
        let mut b = IntervalDtmcBuilder::unchecked(2);
        b.label(1, "goal").unwrap();
        build(&mut b);
        let model = b.build().expect("unchecked builder accepts malformed rows");
        let phi = parse_formula("P>=0.5 [ F \"goal\" ]").unwrap();
        let start = Instant::now();
        let err = Checker::new().check(&model, &phi).unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(5), "validation must not iterate");
        err
    }

    #[test]
    fn nan_endpoints_are_rejected() {
        let err = check_rejects(|b| {
            b.transition(0, 1, f64::NAN, 1.0).unwrap();
            b.transition(1, 1, 1.0, 1.0).unwrap();
        });
        assert!(matches!(err, CheckError::InvalidInterval { state: 0, .. }), "{err}");
    }

    #[test]
    fn inverted_interval_is_rejected() {
        // lo > hi: the row has no admissible probability at all.
        let err = check_rejects(|b| {
            b.transition(0, 1, 0.9, 0.4).unwrap();
            b.transition(1, 1, 1.0, 1.0).unwrap();
        });
        assert!(matches!(err, CheckError::InvalidInterval { state: 0, .. }), "{err}");
    }

    #[test]
    fn empty_row_polytope_is_rejected() {
        // Upper bounds sum below 1: no member distribution exists.
        let err = check_rejects(|b| {
            b.transition(0, 0, 0.1, 0.3).unwrap();
            b.transition(0, 1, 0.1, 0.3).unwrap();
            b.transition(1, 1, 1.0, 1.0).unwrap();
        });
        assert!(matches!(err, CheckError::InvalidInterval { state: 0, .. }), "{err}");
    }

    #[test]
    fn lower_bounds_above_one_are_rejected() {
        // Lower bounds sum above 1: every member would be super-stochastic.
        let err = check_rejects(|b| {
            b.transition(0, 0, 0.7, 0.9).unwrap();
            b.transition(0, 1, 0.7, 0.9).unwrap();
            b.transition(1, 1, 1.0, 1.0).unwrap();
        });
        assert!(matches!(err, CheckError::InvalidInterval { state: 0, .. }), "{err}");
    }
}

/// Every exhaustion cause yields a best-effort answer from the checker
/// facade — never an error, never a hang, always well-formed values.
#[test]
fn checker_budget_exhaustion_paths_are_best_effort() {
    let d = gambler(24);
    let phi = parse_formula("P>=0.4 [ F \"goal\" ]").unwrap();
    // Force the iterative back-end: the default Auto options would hand a
    // 24-state system to the direct solver, which never spends evaluations.
    let iterative = CheckOptions { solver: LinearSolver::GaussSeidel, ..Default::default() };

    // Evaluation cap.
    let capped = trusted_ml::checker::Checker::with_options(iterative)
        .with_budget(Budget::unlimited().with_max_evaluations(1));
    let r = capped.check(&d, &phi).unwrap();
    assert_eq!(r.diagnostics().exhausted, Some(Exhaustion::Evaluations));
    assert!(r.degraded());

    // Expired deadline.
    let expired = trusted_ml::checker::Checker::with_options(iterative)
        .with_budget(Budget::unlimited().with_deadline(Duration::ZERO));
    let r = expired.check(&d, &phi).unwrap();
    assert_eq!(r.diagnostics().exhausted, Some(Exhaustion::Deadline));

    // Cancellation.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = trusted_ml::checker::Checker::with_options(iterative)
        .with_budget(Budget::unlimited().with_cancel_token(token));
    let r = cancelled.check(&d, &phi).unwrap();
    assert_eq!(r.diagnostics().exhausted, Some(Exhaustion::Cancelled));
}
