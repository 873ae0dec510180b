//! Soundness harness for robust value iteration (interval models):
//! widening an uncertainty set must never *improve* the pessimistic value,
//! degenerate (`lo == hi`) sets must reproduce the scalar checker, and the
//! robust solve must be bitwise-deterministic — across repeated runs,
//! across transition insertion order, and across thread counts. The
//! SCC-first solve must also ignore `hi == 0` edges and stop cleanly on a
//! starved budget. States whose value is exactly 1 on a side are exactly
//! the qualitative Prob1 set of that side, so a nominal value of exactly 1
//! lies inside its ball's bracket.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_conformance::gen;
use trusted_ml::checker::{Budget, CheckOptions, Checker, Exhaustion, RobustBracket};
use trusted_ml::logic::{parse_query, Query};
use trusted_ml::models::dsl::{dtmc_to_dsl, parse_model, ModelFile};
use trusted_ml::models::{
    Dtmc, DtmcBuilder, IntervalDtmc, IntervalDtmcBuilder, IntervalMdpBuilder,
};

/// A random 2-successor chain with an absorbing "goal" at the last state
/// (same generator shape as the fault-injection property tests). Edge
/// probabilities stay in `[0.05, 0.95]`, so the chain mixes fast enough
/// for tight value-iteration tolerances.
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

fn reach_query() -> Query {
    parse_query("P=? [ F \"goal\" ]").unwrap()
}

/// A checker iterating far past the comparison tolerance, so value error
/// (≈ residual / spectral gap) stays below the asserted bounds.
fn tight_checker() -> Checker {
    Checker::with_options(CheckOptions { tolerance: 1e-14, ..CheckOptions::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Enlarging the uncertainty set can only give the adversary more
    /// freedom: the pessimistic value is monotonically non-increasing and
    /// the optimistic value non-decreasing in the interval half-width, at
    /// every state.
    #[test]
    fn widening_never_improves_the_pessimistic_value(
        seed in proptest::collection::vec(0.0_f64..1.0, 30),
        narrow_w in 0.0_f64..0.15,
        extra_w in 0.001_f64..0.15,
    ) {
        let n = 10;
        let d = random_chain(&seed, n);
        let q = reach_query();
        let narrow = IntervalDtmc::from_dtmc(&d, narrow_w);
        let wide = IntervalDtmc::from_dtmc(&d, narrow_w + extra_w);
        let bn = tight_checker().query_interval_dtmc(&narrow, &q).unwrap();
        let bw = tight_checker().query_interval_dtmc(&wide, &q).unwrap();
        for s in 0..n {
            let (lo_n, hi_n) = bn.at(s);
            let (lo_w, hi_w) = bw.at(s);
            prop_assert!(lo_w <= lo_n + 1e-9,
                "state {}: widening raised the pessimistic value {} -> {}", s, lo_n, lo_w);
            prop_assert!(hi_w >= hi_n - 1e-9,
                "state {}: widening lowered the optimistic value {} -> {}", s, hi_n, hi_w);
            prop_assert!(lo_n <= hi_n + 1e-9, "state {}: inverted bracket", s);
        }
    }

    /// With every interval collapsed to its point (`lo == hi`) the robust
    /// adversary has a single member to pick: both bracket ends must
    /// reproduce the scalar checker to 1e-10.
    #[test]
    fn degenerate_intervals_reproduce_the_scalar_checker(
        seed in proptest::collection::vec(0.0_f64..1.0, 30),
    ) {
        let n = 10;
        let d = random_chain(&seed, n);
        let q = reach_query();
        let exact = tight_checker().query_dtmc(&d, &q).unwrap();
        let bracket =
            tight_checker().query_interval_dtmc(&IntervalDtmc::degenerate(&d), &q).unwrap();
        for (s, &point) in exact.iter().enumerate() {
            let (lo, hi) = bracket.at(s);
            prop_assert!((hi - lo).abs() <= 1e-10,
                "state {}: degenerate bracket has width {}", s, hi - lo);
            prop_assert!((lo - point).abs() <= 1e-10,
                "state {}: robust {} vs scalar {}", s, lo, point);
        }
    }

    /// The robust solve is bitwise-deterministic: identical across repeated
    /// runs, across the serial and parallel numerics configurations, and
    /// across the order transitions were inserted in (the inner adversary
    /// accumulates in a canonical target order).
    #[test]
    fn robust_solve_is_bitwise_deterministic(
        seed in proptest::collection::vec(0.0_f64..1.0, 30),
        width in 0.01_f64..0.2,
    ) {
        let n = 10;
        let d = random_chain(&seed, n);
        let q = reach_query();
        let ball = IntervalDtmc::from_dtmc(&d, width);

        // The same set rebuilt with every row's transitions reversed.
        let mut b = IntervalDtmcBuilder::new(n);
        b.initial_state(ball.initial_state()).unwrap();
        for s in 0..n {
            for &(t, lo, hi) in ball.row(s).iter().rev() {
                b.transition(s, t, lo, hi).unwrap();
            }
            for label in ball.labeling().labels_of(s) {
                b.label(s, label).unwrap();
            }
        }
        let reversed = b.build().unwrap();

        // The vendored rayon stand-in reads RAYON_NUM_THREADS per call, so
        // this exercises the serial and the parallel configuration of the
        // numerics layer under the same query.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let parallel = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
        let rerun = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
        let reordered = tight_checker().query_interval_dtmc(&reversed, &q).unwrap();
        std::env::remove_var("RAYON_NUM_THREADS");

        for s in 0..n {
            let (lo, hi) = serial.at(s);
            for (name, other) in
                [("parallel", &parallel), ("rerun", &rerun), ("reordered", &reordered)]
            {
                let (ol, oh) = other.at(s);
                prop_assert_eq!(lo.to_bits(), ol.to_bits(),
                    "state {}: pessimistic differs from {} run", s, name);
                prop_assert_eq!(hi.to_bits(), oh.to_bits(),
                    "state {}: optimistic differs from {} run", s, name);
            }
        }
    }
}

/// `model` with every 7th state (except the goal) labelled "blocked", so
/// `!"blocked" U "goal"` has values strictly between 0 and 1.
fn with_blocked(model: &Dtmc) -> Dtmc {
    let n = model.num_states();
    let blocked: Vec<String> = (3..n - 1).step_by(7).map(|s| s.to_string()).collect();
    let text = format!("{}label \"blocked\" = {}\n", dtmc_to_dsl(model), blocked.join(", "));
    let ModelFile::Dtmc(d) = parse_model(&text).unwrap() else { panic!("expected a dtmc") };
    d
}

fn robust_queries() -> Vec<Query> {
    ["P=? [ !\"blocked\" U \"goal\" ]", "R{\"cost\"}=? [ F \"goal\" ]", "P=? [ F<=12 \"goal\" ]"]
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect()
}

/// Degenerate balls of the layered-SCC family (many small blocks) and of
/// the grid (one giant block) reproduce the scalar checker on every state.
#[test]
fn degenerate_balls_of_block_models_reproduce_the_scalar_checker() {
    for model in [gen::layered_scc_dtmc(3, 6, 12, 3), gen::grid_dtmc(3, 12)] {
        let model = with_blocked(&model);
        let ball = IntervalDtmc::degenerate(&model);
        for q in robust_queries() {
            let exact = tight_checker().query_dtmc(&model, &q).unwrap();
            let bracket = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
            for (s, &point) in exact.iter().enumerate() {
                let (lo, hi) = bracket.at(s);
                assert!(
                    (lo - point).abs() <= 1e-9 && (hi - point).abs() <= 1e-9,
                    "{q}, state {s}: bracket [{lo}, {hi}] vs scalar {point}"
                );
            }
        }
    }
}

/// Two 2-state cycles, `{0, 1}` and `{2, 3}`, with goal 4 and sink 5.
/// Block `{2, 3}` depends on `{0, 1}` through `2 → 0`; the edge `1 → 2`
/// has `hi == 0`, so no member takes it, and it must not merge the blocks.
fn two_blocks(zero_edge: bool) -> IntervalDtmc {
    let mut b = IntervalDtmcBuilder::new(6);
    b.transition(0, 1, 0.4, 0.7).unwrap();
    b.transition(0, 4, 0.1, 0.3).unwrap();
    b.transition(0, 5, 0.1, 0.3).unwrap();
    b.transition(1, 0, 0.5, 0.8).unwrap();
    b.transition(1, 4, 0.1, 0.3).unwrap();
    b.transition(1, 5, 0.05, 0.2).unwrap();
    if zero_edge {
        b.transition(1, 2, 0.0, 0.0).unwrap();
    }
    b.transition(2, 3, 0.3, 0.6).unwrap();
    b.transition(2, 0, 0.2, 0.5).unwrap();
    b.transition(2, 5, 0.1, 0.3).unwrap();
    b.transition(3, 2, 0.5, 0.8).unwrap();
    b.transition(3, 4, 0.1, 0.4).unwrap();
    b.transition(3, 5, 0.05, 0.2).unwrap();
    b.transition(4, 4, 1.0, 1.0).unwrap();
    b.transition(5, 5, 1.0, 1.0).unwrap();
    b.label(4, "goal").unwrap();
    b.build().unwrap()
}

#[test]
fn zero_upper_bound_edges_stay_out_of_the_support_graph() {
    let q = reach_query();
    let ball = two_blocks(true);
    let bracket = tight_checker().query_interval_dtmc(&ball, &q).unwrap();
    // The zero edge changes nothing: the same set without it gives the
    // same blocks and therefore the same bits.
    let without = tight_checker().query_interval_dtmc(&two_blocks(false), &q).unwrap();
    assert_eq!(bits(&bracket), bits(&without));
    assert!(bracket.width() > 0.1, "a real bracket");
    for seed in 0..64 {
        let member = ball.sample_member(seed).unwrap();
        let exact = Checker::new().query_dtmc(&member, &q).unwrap();
        assert!(bracket.contains(&exact, 1e-9), "seed {seed}: {exact:?} outside {bracket:?}");
    }
}

#[test]
fn one_evaluation_budget_stops_a_multi_block_solve_with_bounds_from_below() {
    let model = with_blocked(&gen::layered_scc_dtmc(5, 6, 12, 3));
    let ball = IntervalDtmc::wilson_around(&model, 0.95, 200.0).unwrap();
    let q = parse_query("P=? [ !\"blocked\" U \"goal\" ]").unwrap();
    let full = Checker::new().query_interval_dtmc(&ball, &q).unwrap();
    let starved = Checker::new().with_budget(Budget::unlimited().with_max_evaluations(1));
    let (bracket, diag) = starved.query_interval_dtmc_diag(&ball, &q).unwrap();
    assert_eq!(diag.exhausted, Some(Exhaustion::Evaluations));
    for s in 0..ball.num_states() {
        let (lo, hi) = bracket.at(s);
        let (full_lo, full_hi) = full.at(s);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi), "state {s}");
        // Gauss–Seidel runs from below, so a cut-short iterate never
        // overshoots the converged values.
        assert!(lo <= full_lo + 1e-12 && hi <= full_hi + 1e-12, "state {s}");
    }
}

fn bits(b: &RobustBracket) -> Vec<(u64, u64)> {
    (0..b.pessimistic.len()).map(|s| (b.at(s).0.to_bits(), b.at(s).1.to_bits())).collect()
}

/// The nominal chain is a member of its own Wilson ball, so its value lies
/// inside the ball's bracket in every state. Here the initial state reaches
/// the goal almost surely: the nominal value is exactly 1 (the scalar
/// checker's Prob1), and so must the bracket's ends be, which value
/// iteration from below approaches without reaching.
#[test]
fn nominal_value_lies_in_its_own_wilson_ball_bracket() {
    let model = gen::layered_scc_dtmc(4, 16, 25, 3);
    let ball = IntervalDtmc::wilson_around(&model, 0.95, 500.0).unwrap();
    let q = parse_query("P=? [ F \"goal\" ]").unwrap();
    let nominal = Checker::new().query_dtmc(&model, &q).unwrap();
    let bracket = Checker::new().query_interval_dtmc(&ball, &q).unwrap();
    assert_eq!(nominal[model.initial_state()], 1.0);
    for (s, &v) in nominal.iter().enumerate() {
        let (lo, hi) = bracket.at(s);
        assert!(lo - 1e-9 <= v && v <= hi + 1e-9, "state {s}: nominal {v} outside [{lo}, {hi}]");
    }
}

// ------------------------------------------------- Prob1 by brute force

type Row = Vec<(usize, f64, f64)>;

/// An interval row over one to three distinct targets around a random
/// distribution `p`. Lower bounds are 0, `p` or in between, and upper
/// bounds `p`, 1 or in between, so rows mix must-edges (`lo > 0`) with
/// may-edges, and subsets of the targets that can or cannot carry the
/// whole mass. Now and then an extra edge `[0, hi]` rides along: `[0, 0]`,
/// or a may-edge that no member can take when the other lower bounds
/// already sum to one.
fn random_row(rng: &mut StdRng, n: usize) -> Row {
    let k = rng.random_range(1..4);
    let mut targets: Vec<usize> = Vec::new();
    while targets.len() < k {
        let t = rng.random_range(0..n);
        if !targets.contains(&t) {
            targets.push(t);
        }
    }
    let weights: Vec<f64> = (0..k).map(|_| 0.05 + rng.random_range(0.0..1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut row: Row = targets
        .iter()
        .zip(&weights)
        .map(|(&t, &w)| {
            let p = w / total;
            let lo = match rng.random_range(0..4) {
                0 => 0.0,
                1 => p,
                _ => p * rng.random_range(0.0..1.0),
            };
            let hi = match rng.random_range(0..4) {
                0 => p,
                1 => 1.0,
                _ => p + (1.0 - p) * rng.random_range(0.0..1.0),
            };
            (t, lo, hi)
        })
        .collect();
    if rng.random_range(0..3) == 0 {
        let t = rng.random_range(0..n);
        if !targets.contains(&t) {
            let hi = if rng.random_range(0..2) == 0 { 0.0 } else { rng.random_range(0.0..1.0) };
            row.push((t, 0.0, hi));
        }
    }
    row
}

/// Every exact support of a row: the target sets `S` for which some member
/// of `{p : lo ≤ p ≤ hi, Σ p = 1}` is positive exactly on `S`, to the
/// validation tolerance on `Σ hi`.
fn supports(row: &Row) -> Vec<Vec<usize>> {
    let k = row.len();
    let mut out = Vec::new();
    for mask in 1u32..(1 << k) {
        let inside = |i: usize| mask & (1 << i) != 0;
        let (mut lo_sum, mut hi_sum, mut all_must, mut ok) = (0.0, 0.0, true, true);
        for (i, &(_, lo, hi)) in row.iter().enumerate() {
            if inside(i) {
                ok &= hi > 0.0;
                all_must &= lo > 0.0;
                lo_sum += lo;
                hi_sum += hi;
            } else {
                ok &= lo == 0.0;
            }
        }
        // Positive mass on a `lo == 0` member needs mass to spare.
        if ok && hi_sum >= 1.0 - 1e-9 && (all_must || lo_sum < 1.0) {
            out.push((0..k).filter(|&i| inside(i)).map(|i| row[i].0).collect());
        }
    }
    out
}

/// The states that reach `target` through `phi` almost surely in the
/// chain whose successors of `s` are `succ[s]`.
fn graph_prob1(succ: &[&[usize]], phi: &[bool], target: &[bool]) -> Vec<bool> {
    let n = succ.len();
    let closure = |seed: Vec<bool>, through: &dyn Fn(usize) -> bool| {
        let mut set = seed;
        loop {
            let grown: Vec<bool> =
                (0..n).map(|s| set[s] || (through(s) && succ[s].iter().any(|&t| set[t]))).collect();
            if grown == set {
                return set;
            }
            set = grown;
        }
    };
    let live = |s: usize| phi[s] && !target[s];
    let reach = closure(target.to_vec(), &live);
    let bad = closure(reach.iter().map(|&r| !r).collect(), &live);
    bad.iter().map(|&b| !b).collect()
}

/// Prob1 on each side by enumeration: every memoryless choice of one row
/// and one exact support per state, then plain graph Prob1 on the chain it
/// induces. Memoryless strategies decide qualitative reachability, so the
/// optimistic set is their union and the pessimistic set their
/// intersection.
fn brute_force_prob1(rows: &[Vec<Row>], phi: &[bool], target: &[bool]) -> (Vec<bool>, Vec<bool>) {
    let n = rows.len();
    let options: Vec<Vec<Vec<usize>>> = rows
        .iter()
        .enumerate()
        .map(|(s, choices)| {
            if phi[s] && !target[s] {
                choices.iter().flat_map(supports).collect()
            } else {
                vec![Vec::new()]
            }
        })
        .collect();
    let (mut pess, mut opt) = (vec![true; n], vec![false; n]);
    let mut pick = vec![0usize; n];
    loop {
        let succ: Vec<&[usize]> = (0..n).map(|s| options[s][pick[s]].as_slice()).collect();
        for (s, one) in graph_prob1(&succ, phi, target).into_iter().enumerate() {
            pess[s] &= one;
            opt[s] |= one;
        }
        // Next strategy, as an odometer over the states' options.
        let mut s = 0;
        while s < n && pick[s] + 1 == options[s].len() {
            pick[s] = 0;
            s += 1;
        }
        if s == n {
            return (pess, opt);
        }
        pick[s] += 1;
    }
}

/// The states whose bracket end is exactly 1.
fn ones(side: &[f64]) -> Vec<bool> {
    side.iter().map(|&v| v == 1.0).collect()
}

#[test]
fn bracket_ends_at_exactly_one_are_the_brute_force_prob1_sets() {
    let q = parse_query("P=? [ !\"blocked\" U \"goal\" ]").unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    for case in 0..300 {
        let n = rng.random_range(3..6);
        let choices = if case % 2 == 0 { 1 } else { 2 };
        let rows: Vec<Vec<Row>> = (0..n)
            .map(|_| (0..rng.random_range(1..=choices)).map(|_| random_row(&mut rng, n)).collect())
            .collect();
        let target: Vec<bool> = (0..n).map(|s| s == n - 1 || rng.random_range(0..8) == 0).collect();
        let phi: Vec<bool> = (0..n).map(|s| target[s] || rng.random_range(0..6) != 0).collect();
        let (want_pess, want_opt) = brute_force_prob1(&rows, &phi, &target);

        let mut dtmc = IntervalDtmcBuilder::new(n);
        let mut mdp = IntervalMdpBuilder::new(n);
        for s in 0..n {
            for &(t, lo, hi) in &rows[s][0] {
                dtmc.transition(s, t, lo, hi).unwrap();
            }
            for (c, row) in rows[s].iter().enumerate() {
                mdp.choice(s, &format!("a{c}"), row).unwrap();
            }
            for (label, on) in [("goal", target[s]), ("blocked", !phi[s])] {
                if on {
                    dtmc.label(s, label).unwrap();
                    mdp.label(s, label).unwrap();
                }
            }
        }
        let checker = tight_checker();
        let bracket = if choices == 1 {
            checker.query_interval_dtmc(&dtmc.build().unwrap(), &q).unwrap()
        } else {
            checker.query_interval_mdp(&mdp.build().unwrap(), &q).unwrap().0
        };
        assert_eq!(ones(&bracket.pessimistic), want_pess, "case {case}: {rows:?} {phi:?}");
        assert_eq!(ones(&bracket.optimistic), want_opt, "case {case}: {rows:?} {phi:?}");
    }
}
