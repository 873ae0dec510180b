//! E1–E3 (paper §V-A.1): Model Repair on the WSN query-routing model.
//!
//! Reproduces the three regimes of `R{"attempts"} <= X [ F "delivered" ]`:
//!
//! * `X = 100` — the learned model satisfies the property outright;
//! * `X = 40`  — repair finds small corrections `(p, q)` to the ignore
//!   probabilities of field/station vs. interior nodes;
//! * `X = 19`  — no admissible small perturbation suffices (infeasible).
//!
//! Run with `cargo run --release -p tml-bench --bin exp_wsn_model_repair`.
//! Pass `--trace-json PATH` to stream a `tml-trace/v1` JSONL trace of the
//! repair spans and counters to PATH (validated in CI by the
//! `telemetry_schema_check` binary).

use std::sync::Arc;

use tml_bench::{fmt, print_table};
use tml_checker::Checker;
use tml_core::{ModelRepair, RepairStatus};
use tml_logic::parse_query;
use tml_telemetry::sink::JsonlSink;
use tml_telemetry::Subscriber;
use tml_wsn::{attempts_property, build_dtmc, build_mdp, repair_template, WsnConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut trace_json = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-json" => trace_json = Some(args.next().expect("--trace-json needs a path")),
            other => {
                eprintln!(
                    "unknown argument {other}; usage: exp_wsn_model_repair [--trace-json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let subscriber = trace_json.map(|path| {
        let file = std::fs::File::create(&path).expect("create trace file");
        let sink = JsonlSink::new(std::io::BufWriter::new(file), "exp_wsn_model_repair")
            .expect("write trace meta line");
        let sub = Arc::new(Subscriber::builder().sink(Arc::new(sink)).build());
        assert!(tml_telemetry::install_global(sub.clone()), "telemetry slot free");
        sub
    });

    let config = WsnConfig::default();
    let chain = build_dtmc(&config).expect("valid config");
    let template = repair_template(&config).expect("valid template");
    let checker = Checker::new();

    let attempts_query = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").expect("query");
    let base_attempts = checker.query(&chain, &attempts_query).expect("query").0[config.source()];
    println!("WSN query routing, {0}x{0} grid (paper §V-A.1)", config.n);
    println!(
        "ignore probabilities: edge rows {:.2}, interior {:.2}",
        config.ignore_edge, config.ignore_interior
    );
    println!("expected attempts of the unrepaired model: {base_attempts:.2}\n");

    let mut rows = Vec::new();
    for x in [100.0, 40.0, 19.0] {
        let property = attempts_property(x);
        let outcome =
            ModelRepair::new().repair_dtmc(&chain, &property, &template).expect("repair run");
        let (p, q) = match outcome.parameters.as_slice() {
            [(_, p), (_, q)] => (*p, *q),
            _ => (f64::NAN, f64::NAN),
        };
        let repaired_attempts = outcome
            .model
            .as_ref()
            .map(|m| checker.query(m, &attempts_query).expect("query").0[config.source()]);
        rows.push(vec![
            format!("R{{attempts}}<={x} [F delivered]"),
            format!("{:?}", outcome.status),
            if outcome.status == RepairStatus::Repaired { fmt(p) } else { "-".into() },
            if outcome.status == RepairStatus::Repaired { fmt(q) } else { "-".into() },
            if outcome.status == RepairStatus::Repaired { fmt(outcome.cost) } else { "-".into() },
            repaired_attempts.map(fmt).unwrap_or_else(|| "-".into()),
            format!("{}", outcome.verified),
        ]);
    }
    print_table(
        &[
            "property (E1/E2/E3)",
            "status",
            "p",
            "q",
            "cost ||Z||_F^2",
            "attempts after",
            "verified",
        ],
        &rows,
    );

    // Worst-scheduler view on the MDP variant for context.
    let mdp = build_mdp(&config).expect("valid config");
    let rmax = parse_query("R{\"attempts\"}max=? [ F \"delivered\" ]").expect("query");
    let rmin = parse_query("R{\"attempts\"}min=? [ F \"delivered\" ]").expect("query");
    let worst = checker.query(&mdp, &rmax).expect("query").0[config.source()];
    let best = checker.query(&mdp, &rmin).expect("query").0[config.source()];
    println!(
        "\nMDP variant (routing choice nondeterministic): Rmin = {best:.2}, Rmax = {worst:.2} attempts"
    );

    if let Some(sub) = subscriber {
        tml_telemetry::uninstall_global();
        let table = tml_telemetry::summary::render_metrics(&sub.metrics_snapshot());
        if !table.is_empty() {
            println!("\ntelemetry metrics:\n{table}");
        }
    }
}
