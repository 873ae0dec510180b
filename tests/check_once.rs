//! A check solves each `P`/`R` operator once and takes its verdict from the
//! values it reports.
//!
//! - Under any evaluation cap, the satisfaction mask of a check agrees
//!   with its own values, state by state.
//! - The diagnostics of a check count one solve: the same sweeps,
//!   backend attempts and fallbacks as a query of the same operator.
//! - The values of a check are bitwise those of the query, on the
//!   generator families and on every model in `assets/`; on interval
//!   models (the sensor, the Wilson ball of the channel, generated interval
//!   MDPs) the check's bracket is bitwise the query's.

use tml_conformance::gen::{grid_dtmc, layered_scc_dtmc, random_mdp};
use trusted_ml::checker::{
    Budget, CheckOptions, Checkable, Checker, Diagnostics, LinearSolver, RobustBracket,
};
use trusted_ml::logic::{parse_formula, parse_query, CmpOp, StateFormula};
use trusted_ml::models::dsl::{parse_model, ModelFile};
use trusted_ml::models::{Dtmc, DtmcBuilder, IntervalDtmc, IntervalMdp, Mdp, MdpBuilder};

const STATES: usize = 600;
const INITIAL: usize = 300;
const RICH_AT_LEAST: &str = "P>=0.6 [ F \"rich\" ]";

/// A gambler's ruin on 600 states biased towards winning: broke at 0,
/// rich at 599, each bet won with probability 0.6. Too large for the
/// direct solver, so the check iterates and a cap can stop it.
fn gambler_dtmc() -> Dtmc {
    let mut b = DtmcBuilder::new(STATES);
    b.transition(0, 0, 1.0).unwrap();
    b.transition(STATES - 1, STATES - 1, 1.0).unwrap();
    for s in 1..STATES - 1 {
        b.transition(s, s + 1, 0.6).unwrap();
        b.transition(s, s - 1, 0.4).unwrap();
    }
    b.label(STATES - 1, "rich").unwrap();
    b.initial_state(INITIAL).unwrap();
    b.build().unwrap()
}

/// A 150-state gambler choosing between a bold (0.6) and a timid (0.55)
/// bet; smaller than the chain, which keeps 99 capped checks quick.
fn gambler_mdp() -> Mdp {
    const STATES: usize = 150;
    let mut b = MdpBuilder::new(STATES);
    b.choice(0, "stay", &[(0, 1.0)]).unwrap();
    b.choice(STATES - 1, "stay", &[(STATES - 1, 1.0)]).unwrap();
    for s in 1..STATES - 1 {
        b.choice(s, "bold", &[(s + 1, 0.6), (s - 1, 0.4)]).unwrap();
        b.choice(s, "timid", &[(s + 1, 0.55), (s - 1, 0.45)]).unwrap();
    }
    b.label(STATES - 1, "rich").unwrap();
    b.initial_state(STATES / 2).unwrap();
    b.build().unwrap()
}

fn operator_bound(formula: &StateFormula) -> (CmpOp, f64) {
    match formula {
        StateFormula::Prob { op, bound, .. } | StateFormula::Reward { op, bound, .. } => {
            (*op, *bound)
        }
        other => panic!("not an operator: {other}"),
    }
}

/// Checks `formula` under caps of 1% to 99% of the sweeps an unlimited
/// solve takes, and returns the caps whose mask disagrees with the values
/// in some state.
fn caps_with_a_disagreeing_mask(
    unlimited_sweeps: u64,
    check: impl Fn(&Checker) -> (Vec<bool>, Vec<f64>),
    formula: &StateFormula,
) -> Vec<u64> {
    let (op, bound) = operator_bound(formula);
    let opts = CheckOptions::default();
    let mut disagreeing = Vec::new();
    for pct in 1..=99 {
        let cap = (unlimited_sweeps * pct / 100).max(1);
        let checker = Checker::new().with_budget(Budget::unlimited().with_max_evaluations(cap));
        let (mask, values) = check(&checker);
        assert_eq!(mask.len(), values.len());
        if mask.iter().zip(&values).any(|(&m, &v)| m != opts.test_bound(op, v, bound)) {
            disagreeing.push(pct);
        }
    }
    disagreeing
}

#[test]
fn capped_dtmc_check_masks_agree_with_their_values() {
    let d = gambler_dtmc();
    let phi = parse_formula(RICH_AT_LEAST).unwrap();
    let q = parse_query("P=? [ F \"rich\" ]").unwrap();
    let (_, diag) = Checker::new().query(&d, &q).unwrap();
    assert!(diag.evaluations > 100, "the solve must iterate: {} sweeps", diag.evaluations);

    let disagreeing = caps_with_a_disagreeing_mask(
        diag.evaluations,
        |checker| {
            let r = checker.check(&d, &phi).unwrap();
            (r.sat_mask().to_vec(), r.values().unwrap().to_vec())
        },
        &phi,
    );
    assert!(disagreeing.is_empty(), "caps (% of sweeps) with a stale mask: {disagreeing:?}");
}

#[test]
fn capped_mdp_check_masks_agree_with_their_values() {
    let m = gambler_mdp();
    let phi = parse_formula(RICH_AT_LEAST).unwrap();
    let q = parse_query("Pmin=? [ F \"rich\" ]").unwrap();
    let (_, diag) = Checker::new().query(&m, &q).unwrap();
    assert!(diag.evaluations > 100, "the solve must iterate: {} sweeps", diag.evaluations);

    let disagreeing = caps_with_a_disagreeing_mask(
        diag.evaluations,
        |checker| {
            let r = checker.check(&m, &phi).unwrap();
            (r.sat_mask().to_vec(), r.values().unwrap().to_vec())
        },
        &phi,
    );
    assert!(disagreeing.is_empty(), "caps (% of sweeps) with a stale mask: {disagreeing:?}");
}

/// The counters and events a run records about its solves.
fn solve_record(diag: &Diagnostics) -> (u64, Vec<String>, u64, u64) {
    (
        diag.evaluations,
        diag.fallbacks.clone(),
        diag.telemetry.counter("checker.solve.sweeps"),
        diag.telemetry.counter("checker.solve.fallbacks"),
    )
}

#[test]
fn a_check_records_one_solve_of_its_operator() {
    let d = gambler_dtmc();
    let phi = parse_formula(RICH_AT_LEAST).unwrap();
    let q = parse_query("P=? [ F \"rich\" ]").unwrap();
    let checked = Checker::new().check(&d, &phi).unwrap();
    let (_, queried) = Checker::new().query(&d, &q).unwrap();
    assert_eq!(solve_record(checked.diagnostics()), solve_record(&queried));
    assert_eq!(checked.diagnostics().telemetry.counter("checker.backend.scc.ok"), 1);

    // The five-state gambler asset goes to the direct solver: one
    // attempt, no sweeps.
    let small = parse_dtmc("assets/gambler.tml");
    let phi = parse_formula("P>=0.5 [ F \"rich\" ]").unwrap();
    let checked = Checker::new().check(&small, &phi).unwrap();
    assert_eq!(checked.diagnostics().evaluations, 0);
    assert_eq!(checked.diagnostics().telemetry.counter("checker.backend.direct.ok"), 1);

    let m = gambler_mdp();
    let phi = parse_formula(RICH_AT_LEAST).unwrap();
    let q = parse_query("Pmin=? [ F \"rich\" ]").unwrap();
    let checked = Checker::new().check(&m, &phi).unwrap();
    let (_, queried) = Checker::new().query(&m, &q).unwrap();
    assert_eq!(solve_record(checked.diagnostics()), solve_record(&queried));

    // Interval models: the robust solve of a check is the query's.
    let sensor = match parse_asset("assets/sensor.tml") {
        ModelFile::IntervalDtmc(m) => m,
        _ => panic!("assets/sensor.tml is not an idtmc"),
    };
    let phi = parse_formula("P>=0.45 [ F \"delivered\" ]").unwrap();
    let q = parse_query("P=? [ F \"delivered\" ]").unwrap();
    let checked = Checker::new().check(&sensor, &phi).unwrap();
    let (_, queried) = Checker::new().query(&sensor, &q).unwrap();
    assert_eq!(robust_record(checked.diagnostics()), robust_record(&queried));
    assert!(checked.diagnostics().evaluations > 0, "the robust solve iterates");

    let imdp = IntervalMdp::from_mdp(&random_mdp(1, 40, 3), 0.05);
    let phi = parse_formula("P>=0.5 [ F \"goal\" ]").unwrap();
    let q = parse_query("P=? [ F \"goal\" ]").unwrap();
    let checked = Checker::new().check(&imdp, &phi).unwrap();
    let (_, queried) = Checker::new().query(&imdp, &q).unwrap();
    assert_eq!(robust_record(checked.diagnostics()), robust_record(&queried));
}

/// [`solve_record`] plus the robust backend's attempts.
fn robust_record(diag: &Diagnostics) -> ((u64, Vec<String>, u64, u64), u64, u64) {
    let counter = |name: &str| diag.telemetry.counter(name);
    (
        solve_record(diag),
        counter("checker.backend.robust.ok"),
        counter("checker.backend.robust.fail"),
    )
}

#[test]
fn a_starved_check_records_each_fallback_once() {
    // The SCC solve's Gauss–Seidel block stalls on this chain's one large
    // component, and the dense direct solve concludes.
    let starved = CheckOptions {
        solver: LinearSolver::Auto,
        direct_solver_limit: 0,
        max_iterations: 10,
        tolerance: 1e-14,
        ..CheckOptions::default()
    };
    let d = gambler_dtmc();
    let phi = parse_formula(RICH_AT_LEAST).unwrap();
    let q = parse_query("P=? [ F \"rich\" ]").unwrap();
    let checked = Checker::with_options(starved).check(&d, &phi).unwrap();
    let (values, queried) = Checker::with_options(starved).query(&d, &q).unwrap();

    let fallbacks = &checked.diagnostics().fallbacks;
    assert_eq!(fallbacks.len(), 1, "scc→direct: {fallbacks:?}");
    assert_eq!(solve_record(checked.diagnostics()), solve_record(&queried));
    for backend in ["scc.fail", "direct.ok"] {
        let name = format!("checker.backend.{backend}");
        assert_eq!(checked.diagnostics().telemetry.counter(&name), 1, "{name}");
    }
    assert_eq!(bits(checked.values().unwrap()), bits(&values));
    let direct = CheckOptions { solver: LinearSolver::Direct, ..CheckOptions::default() };
    assert_eq!(bits(&values), bits(&Checker::with_options(direct).query(&d, &q).unwrap().0));
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn parse_asset(path: &str) -> ModelFile {
    parse_model(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn parse_dtmc(path: &str) -> Dtmc {
    match parse_asset(path) {
        ModelFile::Dtmc(d) => d,
        _ => panic!("{path} is not a dtmc"),
    }
}

/// Operators over `label` as `(P or R, bound, path)`: the check is
/// `{P}{bound} [ {path} ]`, the query `{P}=? [ {path} ]`, with `min` for
/// lower and `max` for upper bounds on an MDP.
fn operators(label: &str, rewards: bool) -> Vec<(&'static str, &'static str, String)> {
    let mut ops = vec![
        ("P", ">=0.5", format!("F \"{label}\"")),
        ("P", "<0.9", format!("G !\"{label}\"")),
        ("P", ">0.2", format!("X \"{label}\"")),
        ("P", "<=0.7", format!("F<=6 \"{label}\"")),
        ("P", ">=0.3", format!("true U \"{label}\"")),
        ("P", ">=0.5", format!("F P>=0.9 [ X \"{label}\" ]")),
    ];
    if rewards {
        ops.push(("R", "<=20", format!("F \"{label}\"")));
        ops.push(("R", ">=1", "C<=5".to_string()));
    }
    ops
}

fn assert_dtmc_values_match_queries(name: &str, d: &Dtmc) {
    let rewards = d.reward_structures().next().is_some();
    for label in d.labeling().labels().map(str::to_string).collect::<Vec<_>>() {
        for (kind, bound, path) in operators(&label, rewards) {
            let phi = parse_formula(&format!("{kind}{bound} [ {path} ]")).unwrap();
            let q = parse_query(&format!("{kind}=? [ {path} ]")).unwrap();
            let checked = Checker::new().check(d, &phi).unwrap();
            let queried = Checker::new().query(d, &q).unwrap().0;
            assert_eq!(bits(checked.values().unwrap()), bits(&queried), "{name}: {phi}");
        }
    }
}

fn assert_mdp_values_match_queries(name: &str, m: &Mdp) {
    let rewards = m.reward_structures().next().is_some();
    for label in m.labeling().labels().map(str::to_string).collect::<Vec<_>>() {
        for (kind, bound, path) in operators(&label, rewards) {
            let opt = if bound.starts_with('>') { "min" } else { "max" };
            let phi = parse_formula(&format!("{kind}{bound} [ {path} ]")).unwrap();
            let q = parse_query(&format!("{kind}{opt}=? [ {path} ]")).unwrap();
            let checked = Checker::new().check(m, &phi).unwrap();
            let queried = Checker::new().query(m, &q).unwrap().0;
            assert_eq!(bits(checked.values().unwrap()), bits(&queried), "{name}: {phi}");
        }
    }
}

fn bracket_bits(b: &RobustBracket) -> (Vec<u64>, Vec<u64>) {
    (bits(&b.pessimistic), bits(&b.optimistic))
}

/// Robust checks support top-level operators only, and an interval MDP
/// no reach rewards; `reach_rewards` says whether this model takes them.
fn assert_interval_values_match_queries<M: Checkable<Values = RobustBracket>>(
    name: &str,
    model: &M,
    labels: &[String],
    rewards: bool,
    reach_rewards: bool,
) {
    for label in labels {
        for (kind, bound, path) in operators(label, rewards) {
            let nested = path.contains('[');
            if nested || (kind == "R" && path.starts_with('F') && !reach_rewards) {
                continue;
            }
            let phi = parse_formula(&format!("{kind}{bound} [ {path} ]")).unwrap();
            let q = parse_query(&format!("{kind}=? [ {path} ]")).unwrap();
            let checked = Checker::new().check(model, &phi).unwrap();
            let queried = Checker::new().query(model, &q).unwrap().0;
            let checked = bracket_bits(checked.values().unwrap());
            assert_eq!(checked, bracket_bits(&queried), "{name}: {phi}");
        }
    }
}

fn assert_idtmc_values_match_queries(name: &str, m: &IntervalDtmc) {
    let labels: Vec<String> = m.labeling().labels().map(str::to_string).collect();
    let rewards = m.reward_structures().next().is_some();
    assert_interval_values_match_queries(name, m, &labels, rewards, true);
}

fn assert_imdp_values_match_queries(name: &str, m: &IntervalMdp) {
    let labels: Vec<String> = m.labeling().labels().map(str::to_string).collect();
    let rewards = m.reward_structures().next().is_some();
    assert_interval_values_match_queries(name, m, &labels, rewards, false);
}

#[test]
fn check_values_are_bitwise_the_query_values() {
    for seed in 0..3 {
        assert_dtmc_values_match_queries("layered", &layered_scc_dtmc(seed, 6, 8, 4));
        assert_dtmc_values_match_queries("grid", &grid_dtmc(seed, 24));
        assert_mdp_values_match_queries("random mdp", &random_mdp(seed, 40, 3));
    }
    assert_dtmc_values_match_queries("gambler 600", &gambler_dtmc());
    assert_mdp_values_match_queries("gambler 600 mdp", &gambler_mdp());

    let (mut point_models, mut interval_models) = (0, 0);
    let mut assets: Vec<_> =
        std::fs::read_dir("assets").unwrap().map(|e| e.unwrap().path()).collect();
    assets.sort();
    for path in assets.iter().filter(|p| p.extension().is_some_and(|e| e == "tml")) {
        let name = path.display().to_string();
        match parse_model(&std::fs::read_to_string(path).unwrap()).unwrap() {
            ModelFile::Dtmc(d) => {
                assert_dtmc_values_match_queries(&name, &d);
                point_models += 1;
            }
            ModelFile::Mdp(m) => {
                assert_mdp_values_match_queries(&name, &m);
                point_models += 1;
            }
            ModelFile::IntervalDtmc(m) => {
                assert_idtmc_values_match_queries(&name, &m);
                interval_models += 1;
            }
            ModelFile::IntervalMdp(m) => {
                assert_imdp_values_match_queries(&name, &m);
                interval_models += 1;
            }
        }
    }
    assert!(point_models >= 3, "found {point_models} point models in assets/");
    assert!(interval_models >= 1, "found {interval_models} interval models in assets/");

    for asset in ["assets/channel.tml", "assets/gambler.tml"] {
        let ball = IntervalDtmc::wilson_around(&parse_dtmc(asset), 0.95, 100.0).unwrap();
        assert_idtmc_values_match_queries(&format!("{asset} Wilson ball"), &ball);
    }
    for seed in 0..3 {
        let imdp = IntervalMdp::from_mdp(&random_mdp(seed, 40, 3), 0.05);
        assert_imdp_values_match_queries("random interval mdp", &imdp);
    }
}
