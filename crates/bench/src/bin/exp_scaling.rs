//! E8: scaling study — checking / parametric elimination / repair cost as
//! the WSN grid grows (the paper's future-work concern about "more scalable
//! repair algorithms").
//!
//! Run with `cargo run --release -p tml-bench --bin exp_scaling`.

use std::time::Instant;

use tml_bench::{fmt, print_table};
use tml_checker::Checker;
use tml_core::ModelRepair;
use tml_logic::parse_query;
use tml_wsn::{attempts_property, build_dtmc, repair_template, WsnConfig};

fn main() {
    let checker = Checker::new();
    let attempts_query = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").expect("query");

    let mut rows = Vec::new();
    for n in [3, 4, 5, 6] {
        let config = WsnConfig { n, ..Default::default() };
        let chain = build_dtmc(&config).expect("valid config");
        let template = repair_template(&config).expect("valid template");

        let t0 = Instant::now();
        let attempts = checker.query(&chain, &attempts_query).expect("query").0[config.source()];
        let check_time = t0.elapsed();

        let t1 = Instant::now();
        let pdtmc = template.apply(&chain).expect("apply");
        let target = pdtmc.labeling().mask("delivered");
        let symbolic = pdtmc.expected_reward("attempts", &target).expect("symbolic");
        let elim_time = t1.elapsed();
        let complexity = symbolic[config.source()].complexity();

        // Repair against a bound at 85% of the base attempts (always
        // feasible with the small-perturbation template).
        let bound = attempts * 0.85;
        let t2 = Instant::now();
        let outcome = ModelRepair::new()
            .repair_dtmc(&chain, &attempts_property(bound), &template)
            .expect("repair");
        let repair_time = t2.elapsed();

        rows.push(vec![
            format!("{n}x{n}"),
            format!("{}", chain.num_states()),
            fmt(attempts),
            format!("{:.2?}", check_time),
            format!("{:.2?}", elim_time),
            format!("{complexity}"),
            format!("{:?}", outcome.status),
            format!("{:.2?}", repair_time),
        ]);
    }
    print_table(
        &[
            "grid",
            "states",
            "E[attempts]",
            "check time",
            "symbolic elimination",
            "rational fn degree",
            "repair status",
            "repair time",
        ],
        &rows,
    );
}
