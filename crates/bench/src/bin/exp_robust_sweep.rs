//! E9 — robust confidence sweep (uncertainty-set repair, PR 10).
//!
//! The paper's pipeline treats the learned transition matrix as ground
//! truth; this experiment re-runs both case studies against a Wilson
//! uncertainty ball around the point estimate at 90/95/99% confidence:
//!
//! 1. **WSN Model Repair** (`R{"attempts"} <= 40 [F "delivered"]`): the
//!    robust repair must make the property hold for *every* member of the
//!    ball around the repaired chain. Higher confidence → wider ball →
//!    larger correction and cost than the nominal (point-estimate) repair.
//! 2. **Car safety** (`P [ !"unsafe" U "goal" ]`): the E6-repaired policy
//!    is deployed on the noisy (slip 0.1) variant of the Fig. 1 MDP and
//!    its induced chain is verified robustly — the pessimistic end of the
//!    value bracket is the guaranteed safety level at each confidence.
//!
//! Run with `cargo run --release -p tml-bench --bin exp_robust_sweep`.

use tml_bench::{fmt, print_table};
use tml_car as car;
use tml_checker::Checker;
use tml_core::{ModelRepair, RepairOptions, RepairStatus, RewardRepair, RobustSpec};
use tml_logic::{parse_formula, parse_query};
use tml_models::{DeterministicPolicy, IntervalDtmc};
use tml_wsn::{attempts_property, build_dtmc, repair_template, WsnConfig};

const CONFIDENCES: [f64; 3] = [0.90, 0.95, 0.99];

fn main() {
    wsn_sweep();
    car_sweep();
}

fn wsn_sweep() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).expect("wsn chain");
    let template = repair_template(&config).expect("wsn template");
    let phi = attempts_property(40.0);

    println!("WSN Model Repair, nominal vs. robust (X = 40, sample size 100)\n");
    let nominal = ModelRepair::new().repair_dtmc(&chain, &phi, &template).expect("nominal repair");

    let mut rows = vec![vec![
        "nominal (point estimate)".into(),
        format!("{:?}", nominal.status),
        fmt(nominal.cost),
        "1.00".into(),
        nominal.verified.to_string(),
    ]];
    for conf in CONFIDENCES {
        let opts = RepairOptions { robust: Some(RobustSpec::new(conf)), ..Default::default() };
        let robust = ModelRepair::with_options(opts)
            .repair_dtmc(&chain, &phi, &template)
            .expect("robust repair");
        assert_eq!(robust.status, RepairStatus::Repaired, "robust repair at {conf} not feasible");
        assert!(robust.verified, "robust repair at {conf} failed robust re-verification");
        rows.push(vec![
            format!("robust @ {:.0}%", conf * 100.0),
            format!("{:?}", robust.status),
            fmt(robust.cost),
            format!("{:.2}", robust.cost / nominal.cost),
            robust.verified.to_string(),
        ]);
    }
    print_table(&["repair", "status", "cost ||Z||^2_F", "cost / nominal", "verified"], &rows);
    println!();
}

fn car_sweep() {
    // E6's reward repair on the ideal Fig. 1 MDP, as in exp_car_reward_repair.
    let mdp = car::build_mdp().expect("fixed topology");
    let features = car::features().expect("fixed topology");
    let irl = car::learn_reward(&mdp).expect("irl");
    let outcome = RewardRepair::new()
        .q_constraint_repair(
            &mdp,
            &features,
            &irl.theta,
            &[car::q_repair_constraint()],
            car::GAMMA,
            3.0,
        )
        .expect("repair run");
    let policy = car::greedy_policy(&mdp, &outcome.theta).expect("vi");

    // Deploy the repaired policy on the noisy variant: each manoeuvre slips
    // forward with probability 0.1, so the induced chain is genuinely
    // stochastic and the Wilson ball around it is non-degenerate.
    let noisy = car::build_mdp_noisy(0.1).expect("noisy topology");
    let induced = DeterministicPolicy::new(policy).induce(&noisy).expect("induced chain");
    let safety = parse_query("P=? [ !\"unsafe\" U \"goal\" ]").expect("query");
    let checker = Checker::new();
    let nominal_value =
        checker.query(&induced, &safety).expect("nominal query").0[induced.initial_state()];

    println!(
        "Car safety under the repaired policy, slip 0.1 (P [ !\"unsafe\" U \"goal\" ], sample size 200)\n"
    );
    println!("nominal P(safe overtake) = {}\n", fmt(nominal_value));

    let bound = parse_formula("P>=0.8 [ !\"unsafe\" U \"goal\" ]").expect("formula");
    let mut rows = Vec::new();
    for conf in CONFIDENCES {
        let ball = IntervalDtmc::wilson_around(&induced, conf, 200.0).expect("wilson ball");
        let bracket = checker.query(&ball, &safety).expect("robust query").0;
        let (lo, hi) = bracket.at(induced.initial_state());
        assert!(
            lo - 1e-9 <= nominal_value && nominal_value <= hi + 1e-9,
            "nominal value escaped the robust bracket at {conf}"
        );
        let verdict = checker.check(&ball, &bound).expect("robust check");
        rows.push(vec![
            format!("{:.0}%", conf * 100.0),
            fmt(lo),
            fmt(hi),
            format!("{}", verdict.holds()),
        ]);
    }
    print_table(
        &["confidence", "pessimistic P(safe)", "optimistic P(safe)", "P>=0.8 robustly"],
        &rows,
    );
}
