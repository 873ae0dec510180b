//! Ablations over the workspace's design choices:
//!
//! 1. **Property evaluation** — the symbolic rational function (which
//!    feeds region lifting only), instantiate-and-check, and the compiled
//!    oracle that Model Repair constrains (bitwise instantiate-and-check).
//! 2. **Linear solver** — direct Gaussian elimination vs. Gauss–Seidel for
//!    DTMC reachability rewards as the model grows.
//! 3. **MDP solver** — value iteration vs. Howard's policy iteration for
//!    the car case study's planning subproblem.
//!
//! Run with `cargo run --release -p tml-bench --bin exp_ablation`.

use std::time::Instant;

use tml_bench::{fmt, print_table};
use tml_checker::{CheckOptions, Checker, LinearSolver};
use tml_core::CompiledOracle;
use tml_irl::{policy_iteration, value_iteration, ViOptions};
use tml_logic::{parse_formula, parse_query};
use tml_numerics::Budget;
use tml_wsn::{build_dtmc, repair_template, WsnConfig};

fn main() {
    backend_ablation();
    solver_ablation();
    planner_ablation();
}

/// The cost of one property evaluation three ways: the closed form, the
/// full checker on the instantiated chain, and the compiled oracle, which
/// is what every repair's penalty solver pays per constraint evaluation.
fn backend_ablation() {
    println!("— property evaluation ablation (cost per evaluation) —");
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").expect("query");
    let phi = parse_formula("R{\"attempts\"}<=40 [ F \"delivered\" ]").expect("formula");
    let mut rows = Vec::new();
    for n in [2, 3] {
        let config = WsnConfig { n, ..Default::default() };
        let chain = build_dtmc(&config).expect("valid config");
        let template = repair_template(&config).expect("valid template");
        let pdtmc = template.apply(&chain).expect("apply");
        let target = pdtmc.labeling().mask("delivered");
        let symbolic = pdtmc.expected_reward("attempts", &target).expect("symbolic");
        let f = &symbolic[config.source()];
        let point = [0.05, 0.04];

        let reps = 2000;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f.eval(&point).expect("eval"));
        }
        let t_symbolic = t0.elapsed() / reps;

        let checker = Checker::new();
        let t1 = Instant::now();
        for _ in 0..200 {
            let inst = pdtmc.instantiate(&point).expect("instantiate");
            std::hint::black_box(checker.query(&inst, &q).expect("query").0[config.source()]);
        }
        let t_oracle = t1.elapsed() / 200;

        let compiled = CompiledOracle::compile(
            &chain,
            &pdtmc,
            &phi,
            CheckOptions::default(),
            Budget::unlimited(),
        )
        .expect("compiled fragment");
        let t2 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(compiled.value(&point));
        }
        let t_compiled = t2.elapsed() / reps;

        rows.push(vec![
            format!("{n}x{n}"),
            format!("{}", f.complexity()),
            format!("{t_symbolic:.2?}"),
            format!("{t_oracle:.2?}"),
            format!("{t_compiled:.2?}"),
        ]);
    }
    print_table(
        &["grid", "rational degree", "symbolic eval", "instantiate+check", "compiled oracle"],
        &rows,
    );
    println!();
}

/// Direct vs. Gauss–Seidel reward solving as the chain grows.
fn solver_ablation() {
    println!("— linear solver ablation (reachability reward) —");
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").expect("query");
    let mut rows = Vec::new();
    for n in [5, 10, 20, 40] {
        let config = WsnConfig { n, ..Default::default() };
        let chain = build_dtmc(&config).expect("valid config");
        let mut times = Vec::new();
        let mut values = Vec::new();
        for solver in [LinearSolver::Direct, LinearSolver::GaussSeidel] {
            let checker = Checker::with_options(CheckOptions { solver, ..Default::default() });
            let t = Instant::now();
            let v = checker.query(&chain, &q).expect("query").0[config.source()];
            times.push(t.elapsed());
            values.push(v);
        }
        assert!((values[0] - values[1]).abs() < 1e-5 * values[0], "solvers disagree");
        rows.push(vec![
            format!("{n}x{n} ({} states)", chain.num_states()),
            format!("{:.2?}", times[0]),
            format!("{:.2?}", times[1]),
            fmt(values[0]),
        ]);
    }
    print_table(&["model", "direct", "gauss-seidel", "E[attempts]"], &rows);
    println!();
}

/// Value iteration vs. policy iteration on the car planning problem.
fn planner_ablation() {
    println!("— planner ablation (car MDP, learned reward) —");
    let mdp = tml_car::build_mdp().expect("fixed topology");
    let features = tml_car::features().expect("fixed topology");
    let theta = vec![-0.775, -0.530, 2.015];
    let rewards = features.rewards(&theta);
    let opts = ViOptions { gamma: tml_car::GAMMA, ..Default::default() };

    let t0 = Instant::now();
    let vi = value_iteration(&mdp, &rewards, opts).expect("vi");
    let t_vi = t0.elapsed();
    let t1 = Instant::now();
    let pi = policy_iteration(&mdp, &rewards, opts).expect("pi");
    let t_pi = t1.elapsed();
    assert_eq!(vi.policy, pi.policy, "planners disagree");

    print_table(
        &["planner", "iterations", "wall time", "V(S0)"],
        &[
            vec![
                "value iteration".into(),
                format!("{}", vi.iterations),
                format!("{t_vi:.2?}"),
                fmt(vi.values[0]),
            ],
            vec![
                "policy iteration".into(),
                format!("{}", pi.iterations),
                format!("{t_pi:.2?}"),
                fmt(pi.values[0]),
            ],
        ],
    );
}
