//! Stress tests for the penalty optimizer against problems with known
//! closed-form solutions — the soundness of every repair rests on it.

use proptest::prelude::*;
use trusted_ml::optimizer::{ConstraintSense, Nlp, PenaltyOptions, PenaltySolver};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// min ‖x − c‖² s.t. aᵀx ≥ b has the closed form
    /// x* = c + a·max(0, (b − aᵀc)/‖a‖²): the Euclidean projection of `c`
    /// onto the half-space. The solver must match it.
    #[test]
    fn halfspace_projection(
        c in proptest::collection::vec(-1.0_f64..1.0, 2),
        a in proptest::collection::vec(0.2_f64..1.0, 2),
        b in -0.5_f64..1.5,
    ) {
        let mut nlp = Nlp::new(2, vec![(-5.0, 5.0), (-5.0, 5.0)]).unwrap();
        let c2 = c.clone();
        nlp.objective(move |x| {
            x.iter().zip(&c2).map(|(xi, ci)| (xi - ci).powi(2)).sum()
        });
        let a2 = a.clone();
        nlp.constraint("plane", ConstraintSense::Ge, b, move |x| {
            x.iter().zip(&a2).map(|(xi, ai)| xi * ai).sum()
        });
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        prop_assert!(sol.feasible);

        let a_dot_c: f64 = a.iter().zip(&c).map(|(x, y)| x * y).sum();
        let a_norm2: f64 = a.iter().map(|x| x * x).sum();
        let lambda = ((b - a_dot_c) / a_norm2).max(0.0);
        let expected: Vec<f64> = c.iter().zip(&a).map(|(ci, ai)| ci + lambda * ai).collect();
        for (got, want) in sol.x.iter().zip(&expected) {
            prop_assert!((got - want).abs() < 5e-3, "{:?} vs {:?}", sol.x, expected);
        }
    }

    /// Box-only quadratic: the solution is the clamp of the unconstrained
    /// optimum into the box.
    #[test]
    fn box_clamping(c in proptest::collection::vec(-3.0_f64..3.0, 3)) {
        let mut nlp = Nlp::new(3, vec![(-1.0, 1.0); 3]).unwrap();
        let c2 = c.clone();
        nlp.objective(move |x| x.iter().zip(&c2).map(|(xi, ci)| (xi - ci).powi(2)).sum());
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        for (got, ci) in sol.x.iter().zip(&c) {
            let want = ci.clamp(-1.0, 1.0);
            prop_assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }

    /// Infeasibility detection: two half-spaces separated by a gap can
    /// never both hold, regardless of the random geometry.
    #[test]
    fn separated_halfspaces_reported_infeasible(gap in 0.2_f64..2.0, a in 0.3_f64..1.0) {
        let mut nlp = Nlp::new(1, vec![(-3.0, 3.0)]).unwrap();
        nlp.minimize_norm2();
        nlp.constraint("lo", ConstraintSense::Le, -gap / 2.0, move |x| a * x[0]);
        nlp.constraint("hi", ConstraintSense::Ge, gap / 2.0, move |x| a * x[0]);
        let sol = PenaltySolver::new().solve(&nlp).unwrap();
        prop_assert!(!sol.feasible);
        prop_assert!(sol.max_violation > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generator-driven repair stress: the full Model Repair NLP (symbolic
    /// constraint compilation + penalty solve) over seeded chains from the
    /// shared generator library. Soundness oracle: whenever the solver
    /// reports a repaired model, an independent checker run must confirm
    /// the property on it.
    #[test]
    fn model_repair_nlp_is_sound_on_generated_chains(seed in 0u64..256, n in 4usize..9) {
        use tml_conformance::test_support::random_dtmc;
        use trusted_ml::checker::Checker;
        use trusted_ml::logic::parse_formula;
        use trusted_ml::repair::{ModelRepair, PerturbationTemplate, RepairStatus};

        let d = random_dtmc(seed, n);
        let checker = Checker::new();
        let current = checker
            .query(&d, &trusted_ml::logic::parse_query("P=? [ F \"goal\" ]").unwrap())
            .unwrap().0[d.initial_state()];

        // Shift mass between state 0's two successors; both carry at least
        // 0.1 of mass, so a ±0.05 shift never leaves the support class.
        let succ: Vec<(usize, f64)> = d.successors(0).collect();
        prop_assert!(succ.len() == 2, "generator gives two successors, got {:?}", succ);
        let mut t = PerturbationTemplate::new();
        let v = t.parameter("v", -0.05, 0.05);
        t.nudge(0, succ[0].0, v, 1.0).unwrap();
        t.nudge(0, succ[1].0, v, -1.0).unwrap();

        // Ask for slightly more than the chain currently delivers, so the
        // NLP genuinely has to move (or prove it cannot).
        let bound = (current + 0.01).min(0.995);
        let phi = parse_formula(&format!("P>={bound} [ F \"goal\" ]")).unwrap();
        let out = ModelRepair::new().repair_dtmc(&d, &phi, &t).unwrap();
        match out.status {
            RepairStatus::Repaired => {
                let m = out.model.as_ref().expect("repaired model present");
                if out.verified {
                    let confirmed = checker.check(m, &phi).unwrap();
                    prop_assert!(confirmed.holds(), "seed {} bound {}", seed, bound);
                }
            }
            RepairStatus::AlreadySatisfied
            | RepairStatus::Infeasible
            | RepairStatus::BudgetExhausted => {}
        }
    }
}

/// Failure injection: objectives and constraints that return NaN/∞ in part
/// of the box must not crash or trap the solver.
#[test]
fn survives_partial_nan_regions() {
    let mut nlp = Nlp::new(1, vec![(-2.0, 2.0)]).unwrap();
    nlp.objective(|x| if x[0] < -1.0 { f64::NAN } else { (x[0] - 0.5).powi(2) });
    nlp.constraint(
        "c",
        ConstraintSense::Ge,
        0.0,
        |x| {
            if x[0] > 1.5 {
                f64::INFINITY
            } else {
                x[0]
            }
        },
    );
    let sol = PenaltySolver::new().solve(&nlp).unwrap();
    assert!(sol.feasible, "violation {}", sol.max_violation);
    assert!((sol.x[0] - 0.5).abs() < 1e-3, "x = {:?}", sol.x);
}

/// Satellite (PR 9): the multi-start search must not silently narrow —
/// every start is accounted for either as run, pruned (budget spent before
/// it began) or exhausted (cut short mid-descent).
#[test]
fn restart_diagnostics_expose_silent_narrowing() {
    use trusted_ml::optimizer::Budget;
    let build = || {
        let mut nlp = Nlp::new(2, vec![(-2.0, 2.0); 2]).unwrap();
        nlp.objective(|x| (x[0] - 0.7).powi(2) + (x[1] - 0.7).powi(2));
        nlp.constraint("plane", ConstraintSense::Ge, 0.5, |x| x[0] + x[1]);
        nlp
    };
    // Unlimited budget: the full multi-start ran, nothing hidden.
    let full = PenaltySolver::new().solve(&build()).unwrap();
    assert_eq!(full.restarts_pruned, 0, "no start may be pruned without a budget");
    assert_eq!(full.restarts_exhausted, 0);
    // Tight budget, serial for determinism: the diagnostics must admit the
    // narrowing instead of silently reporting only the best survivor.
    let tight =
        PenaltySolver::with_options(PenaltyOptions { parallel: false, ..Default::default() })
            .with_budget(Budget::unlimited().with_max_evaluations(10))
            .solve(&build())
            .unwrap();
    assert!(tight.stopped.is_some());
    assert!(
        tight.restarts_pruned + tight.restarts_exhausted > 0,
        "a truncated solve must record which starts it lost"
    );
    // 1 center start + 8 default restarts, each pruned or exhausted.
    assert_eq!(tight.restarts_pruned + tight.restarts_exhausted, 9);
}

/// The evaluation budget scales with restarts, and zero restarts still
/// solve easy problems from the center start.
#[test]
fn restart_budget_control() {
    let build = || {
        let mut nlp = Nlp::new(2, vec![(-1.0, 1.0); 2]).unwrap();
        nlp.objective(|x| (x[0] - 0.3).powi(2) + (x[1] + 0.2).powi(2));
        nlp
    };
    let lean = PenaltySolver::with_options(PenaltyOptions { restarts: 0, ..Default::default() })
        .solve(&build())
        .unwrap();
    let rich = PenaltySolver::with_options(PenaltyOptions { restarts: 12, ..Default::default() })
        .solve(&build())
        .unwrap();
    assert!(lean.feasible && rich.feasible);
    assert!(lean.evaluations < rich.evaluations);
    assert!((lean.x[0] - 0.3).abs() < 1e-3);
}
