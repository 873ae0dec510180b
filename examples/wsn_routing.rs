//! The paper's wireless-sensor-network case study end to end: model a
//! query-routing grid, check the attempts bound, and repair both the model
//! (§V-A.1) and the data (§V-A.2).
//!
//! Run with `cargo run --release --example wsn_routing`.

use trusted_ml::checker::Checker;
use trusted_ml::logic::parse_query;
use trusted_ml::repair::{DataRepair, ModelRepair, RepairStatus};
use trusted_ml::wsn::{
    attempts_property, build_dtmc, classes, generate_traces, model_spec, repair_template, WsnConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config)?;
    let checker = Checker::new();
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]")?;
    println!(
        "{0}x{0} grid, expected routing attempts field->station: {1:.2}",
        config.n,
        checker.query(&chain, &q)?.0[config.source()]
    );

    // --- Model repair: meet X = 40 by lowering ignore probabilities.
    let template = repair_template(&config)?;
    let out = ModelRepair::new().repair_dtmc(&chain, &attempts_property(40.0), &template)?;
    println!("\nmodel repair for X = 40: {:?}", out.status);
    for (name, v) in &out.parameters {
        println!("  ignore-probability correction {name} = {v:.4}");
    }

    // X = 19 is beyond any small perturbation.
    let out19 = ModelRepair::new().repair_dtmc(&chain, &attempts_property(19.0), &template)?;
    println!("model repair for X = 19: {:?}", out19.status);
    assert_eq!(out19.status, RepairStatus::Infeasible);

    // --- Data repair: noisy traces inflate the learned ignore rates; drop
    // the corrupt classes so the re-learned model meets X = 19.
    let dataset = generate_traces(&config, 120, 40.0, 42)?;
    let out_data = DataRepair::new().keep_class(classes::FORWARD_SUCCESS).repair(
        &dataset,
        &model_spec(&config),
        &attempts_property(19.0),
    )?;
    println!("\ndata repair for X = 19: {:?} (verified {})", out_data.status, out_data.verified);
    for (class, w) in &out_data.keep_weights {
        println!("  keep weight for {class}: {w:.4}");
    }
    let repaired = out_data.model.expect("repaired model");
    println!(
        "re-learned expected attempts: {:.2}",
        checker.query(&repaired, &q)?.0[config.source()]
    );
    Ok(())
}
