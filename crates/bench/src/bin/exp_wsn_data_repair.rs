//! E4 (paper §V-A.2): Data Repair on the WSN routing traces.
//!
//! Synthetic routing traces (plus injected corrupt ignore observations) are
//! grouped into the paper's classes — forwarding success/failure and
//! per-node ignore events at `n_11` and `n_32`. Data Repair finds
//! keep-weights `(p, q, r)` for the droppable classes such that the model
//! *re-learned* from the re-weighted data satisfies
//! `R{"attempts"} <= 19 [ F "delivered" ]`, while the forwarding-success
//! class is pinned as reliable.
//!
//! Run with `cargo run --release -p tml-bench --bin exp_wsn_data_repair`.

use tml_bench::{fmt, print_table};
use tml_checker::Checker;
use tml_core::{DataRepair, RepairStatus};
use tml_logic::parse_query;
use tml_wsn::{attempts_property, classes, generate_traces, model_spec, WsnConfig};

fn main() {
    let config = WsnConfig::default();
    let dataset = generate_traces(&config, 120, 40.0, 42).expect("trace generation");
    let spec = model_spec(&config);
    let checker = Checker::new();
    let attempts_query = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").expect("query");

    println!(
        "WSN data repair (paper §V-A.2): {} traces in {} classes",
        dataset.num_traces(),
        dataset.num_classes()
    );

    // The model learned from ALL data (including corrupt observations).
    let base = spec.learn(&dataset, None).expect("learnable");
    let before = checker.query(&base, &attempts_query).expect("query").0[config.source()];
    println!("expected attempts learned from the raw data: {before:.2}");
    println!("target property: R{{attempts}}<=19 [ F delivered ]\n");

    let outcome = DataRepair::new()
        .keep_class(classes::FORWARD_SUCCESS)
        .repair(&dataset, &spec, &attempts_property(19.0))
        .expect("repair run");

    let mut rows = Vec::new();
    for (name, w) in &outcome.keep_weights {
        rows.push(vec![
            name.clone(),
            fmt(*w),
            fmt(1.0 - *w),
            if name == classes::FORWARD_SUCCESS {
                "pinned (reliable)".into()
            } else {
                "droppable".into()
            },
        ]);
    }
    print_table(&["trace class", "keep weight w", "drop fraction 1-w", "role"], &rows);

    let after = outcome
        .model
        .as_ref()
        .map(|m| checker.query(m, &attempts_query).expect("query").0[config.source()]);
    println!("\nstatus: {:?} (verified: {})", outcome.status, outcome.verified);
    println!("teaching effort Σ m_g (1-w_g)^2 = {}", fmt(outcome.effort));
    println!("dropped trace mass = {}", fmt(outcome.dropped_mass));
    if let Some(a) = after {
        println!("expected attempts after re-learning: {a:.2} (<= 19 required)");
    }
    assert_ne!(outcome.status, RepairStatus::AlreadySatisfied, "experiment expects a repair");
}
