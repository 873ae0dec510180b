//! Closed-form sensitivity analysis with the parametric engine: derive the
//! WSN routing cost as a *rational function* of the repair parameters
//! (Proposition 2's reduction), then read off values and exact gradients —
//! the artifact that PRISM + AMPL exchange in the paper.
//!
//! Run with `cargo run --release --example parametric_analysis`.

use trusted_ml::checker::Checker;
use trusted_ml::logic::parse_query;
use trusted_ml::wsn::{build_dtmc, repair_template, WsnConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The 2×2 grid keeps the closed form small enough to print and exact
    // in f64 (see EXPERIMENTS.md for the degree threshold discussion).
    let config = WsnConfig { n: 2, ..Default::default() };
    let chain = build_dtmc(&config)?;
    let template = repair_template(&config)?;
    let pdtmc = template.apply(&chain)?;

    let target = pdtmc.labeling().mask("delivered");
    let symbolic = pdtmc.expected_reward("attempts", &target)?;
    let f = &symbolic[config.source()];

    println!("expected routing attempts as a rational function of (p, q):");
    println!("  f(p, q) = {f}");
    println!(
        "  numerator terms: {}, denominator terms: {}, combined degree: {}",
        f.numerator().num_terms(),
        f.denominator().num_terms(),
        f.complexity()
    );

    // On the 2×2 grid every node lies on an edge row, so the interior
    // correction q has no effect — the closed form depends on p alone and
    // df/dq is identically zero, which the table makes visible.
    println!("\nsensitivity analysis along the diagonal p = q:");
    println!("{:>8} {:>12} {:>14} {:>14}", "p=q", "f(p,q)", "df/dp", "df/dq");
    for i in 0..6 {
        let v = 0.02 * i as f64;
        let point = [v, v];
        let value = f.eval(&point)?;
        let grad = f.grad(&point)?;
        println!("{v:>8.2} {value:>12.4} {:>14.4} {:>14.4}", grad[0], grad[1]);
    }

    // Cross-check one point against the concrete checker.
    let point = [0.05, 0.03];
    let inst = pdtmc.instantiate(&point)?;
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]")?;
    let oracle = Checker::new().query(&inst, &q)?.0[config.source()];
    let sym = f.eval(&point)?;
    println!("\ncross-check at (0.05, 0.03): symbolic {sym:.10} vs checker {oracle:.10}");
    assert!((sym - oracle).abs() < 1e-9);
    println!("agreement to 1e-9 — the closed form is exact here.");
    Ok(())
}
