//! Cross-validation between independent engines: the parametric symbolic
//! engine against the concrete checker, the MDP checker against induced
//! DTMCs, and PCTL semantics against brute-force path enumeration.

// The shared generator library replaces the ad-hoc helper this file used
// to carry; `random_dtmc` is seed-compatible, so all the seeds below keep
// producing the exact same chains.
use tml_conformance::test_support::random_dtmc;
use trusted_ml::checker::{dtmc as cdtmc, mdp as cmdp, CheckOptions, Checker};
use trusted_ml::logic::{parse_formula, parse_query, Opt};
use trusted_ml::models::MdpBuilder;
use trusted_ml::parametric::ParametricDtmc;

/// Lifting a DTMC into a (trivially constant) parametric chain and running
/// symbolic reachability reproduces the concrete checker on 20 random
/// models.
#[test]
fn parametric_constant_lift_matches_checker() {
    for seed in 0..20 {
        let d = random_dtmc(seed, 7);
        let p = ParametricDtmc::from_dtmc(&d, vec!["v".into()]).build().unwrap();
        let target = d.labeling().mask("goal");
        let symbolic = p.reachability(&target).unwrap();
        let exact =
            cdtmc::until_probabilities(&d, &[true; 7], &target, &CheckOptions::default()).unwrap();
        for s in 0..7 {
            let sym = symbolic[s].eval(&[0.0]).unwrap();
            assert!((sym - exact[s]).abs() < 1e-8, "seed {seed} state {s}: {sym} vs {}", exact[s]);
        }
    }
}

/// Bounded-until brute force: enumerate all paths of length k and sum the
/// probability of those satisfying `F<=k goal`; must equal the checker.
#[test]
fn bounded_until_matches_path_enumeration() {
    let d = random_dtmc(3, 5);
    let target = d.labeling().mask("goal");
    let k = 4;
    let exact = cdtmc::bounded_until_probabilities(&d, &[true; 5], &target, k);

    // Brute force from each state.
    for s0 in 0..5 {
        let mut total = 0.0;
        // stack of (state, prob, depth, hit)
        let mut stack = vec![(s0, 1.0, 0u64, target[s0])];
        while let Some((s, pr, depth, hit)) = stack.pop() {
            if hit {
                total += pr;
                continue;
            }
            if depth == k {
                continue;
            }
            for (t, p) in d.successors(s) {
                stack.push((t, pr * p, depth + 1, target[t]));
            }
        }
        assert!((total - exact[s0]).abs() < 1e-9, "state {s0}: {total} vs {}", exact[s0]);
    }
}

/// For every deterministic memoryless policy of a small MDP, the induced
/// DTMC's reachability lies between Pmin and Pmax, and the extremes are
/// attained.
#[test]
fn mdp_optima_bracket_all_policies() {
    let mut b = MdpBuilder::new(4);
    b.choice(0, "a", &[(1, 0.5), (2, 0.5)]).unwrap();
    b.choice(0, "b", &[(2, 1.0)]).unwrap();
    b.choice(1, "a", &[(3, 0.7), (0, 0.3)]).unwrap();
    b.choice(1, "b", &[(0, 1.0)]).unwrap();
    b.choice(2, "a", &[(2, 1.0)]).unwrap();
    b.choice(3, "a", &[(3, 1.0)]).unwrap();
    b.label(3, "goal").unwrap();
    let m = b.build().unwrap();
    let opts = CheckOptions::default();
    let target = m.labeling().mask("goal");
    let phi = vec![true; 4];
    let pmax = cmdp::until_probabilities(&m, &phi, &target, Opt::Max, &opts).unwrap();
    let pmin = cmdp::until_probabilities(&m, &phi, &target, Opt::Min, &opts).unwrap();

    let mut attained_max = false;
    let mut attained_min = false;
    for c0 in 0..2 {
        for c1 in 0..2 {
            let chain = m.induce(&[c0, c1, 0, 0]).unwrap();
            let v = cdtmc::until_probabilities(&chain, &phi, &target, &opts).unwrap();
            for s in 0..4 {
                assert!(v[s] <= pmax[s] + 1e-9, "policy ({c0},{c1}) state {s}");
                assert!(v[s] >= pmin[s] - 1e-9, "policy ({c0},{c1}) state {s}");
            }
            if (v[0] - pmax[0]).abs() < 1e-9 {
                attained_max = true;
            }
            if (v[0] - pmin[0]).abs() < 1e-9 {
                attained_min = true;
            }
        }
    }
    assert!(attained_max, "some deterministic policy attains Pmax");
    assert!(attained_min, "some deterministic policy attains Pmin");
}

/// Reward queries agree between the two reward kinds where they should:
/// `R[C<=k]` converges to `R[F goal]` as k grows on an almost-surely
/// absorbing chain.
#[test]
fn cumulative_converges_to_reachability_reward() {
    let d = random_dtmc(11, 6);
    let checker = Checker::new();
    let reach = checker.query(&d, &parse_query("R{\"cost\"}=? [ F \"goal\" ]").unwrap()).unwrap().0;
    let cum = checker.query(&d, &parse_query("R{\"cost\"}=? [ C<=4000 ]").unwrap()).unwrap().0;
    for s in 0..6 {
        if reach[s].is_finite() {
            assert!(
                (reach[s] - cum[s]).abs() < 1e-4 * (1.0 + reach[s]),
                "state {s}: {} vs {}",
                reach[s],
                cum[s]
            );
        }
    }
}

/// The P and R operators nest: a formula mixing both levels evaluates
/// without error and respects monotonicity in the bound.
#[test]
fn nested_operators_monotone_in_bound() {
    let d = random_dtmc(5, 6);
    let checker = Checker::new();
    let mut last_count = usize::MAX;
    for bound in ["0.1", "0.5", "0.9"] {
        let f = parse_formula(&format!("P>={bound} [ F \"goal\" ]")).unwrap();
        let res = checker.check(&d, &f).unwrap();
        assert!(res.count() <= last_count, "satisfying set must shrink as the bound rises");
        last_count = res.count();
    }
}

/// Gauss–Seidel and direct solver agree on a mid-sized random model.
#[test]
fn solvers_agree_on_larger_model() {
    let d = random_dtmc(21, 60);
    let target = d.labeling().mask("goal");
    let phi = vec![true; 60];
    let direct = cdtmc::until_probabilities(
        &d,
        &phi,
        &target,
        &CheckOptions { solver: trusted_ml::checker::LinearSolver::Direct, ..Default::default() },
    )
    .unwrap();
    let gs = cdtmc::until_probabilities(
        &d,
        &phi,
        &target,
        &CheckOptions {
            solver: trusted_ml::checker::LinearSolver::GaussSeidel,
            tolerance: 1e-13,
            ..Default::default()
        },
    )
    .unwrap();
    for s in 0..60 {
        assert!((direct[s] - gs[s]).abs() < 1e-7, "state {s}");
    }
}
