//! Quickstart: build a model, check a PCTL property, repair the model when
//! it fails, and re-verify.
//!
//! Run with `cargo run --example quickstart`.

use trusted_ml::checker::Checker;
use trusted_ml::logic::parse_formula;
use trusted_ml::models::DtmcBuilder;
use trusted_ml::repair::{ModelRepair, PerturbationTemplate, RepairStatus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A communication channel: each attempt succeeds with probability 0.8,
    // is retried with probability 0.15, and hard-fails with probability
    // 0.05.
    let mut b = DtmcBuilder::new(3);
    b.transition(0, 1, 0.80)?; // delivered
    b.transition(0, 0, 0.15)?; // retry
    b.transition(0, 2, 0.05)?; // failed
    b.transition(1, 1, 1.0)?;
    b.transition(2, 2, 1.0)?;
    b.label(1, "delivered")?;
    b.label(2, "failed")?;
    let channel = b.build()?;

    // Requirement: messages are eventually delivered with probability 0.97.
    let phi = parse_formula("P>=0.97 [ F \"delivered\" ]")?;
    let checker = Checker::new();
    let result = checker.check(&channel, &phi)?;
    println!("property: {phi}");
    println!(
        "base model: P(F delivered) = {:.4} -> satisfied: {}",
        result.value_at_initial().unwrap_or(f64::NAN),
        result.holds()
    );

    // The model fails (0.8 / 0.85 ≈ 0.941). Allow shifting failure mass to
    // the retry loop (e.g. by adding a retransmission buffer).
    let mut template = PerturbationTemplate::new();
    let v = template.parameter("v", 0.0, 0.045);
    template.nudge(0, 0, v, 1.0)?; // retries go up…
    template.nudge(0, 2, v, -1.0)?; // …hard failures go down

    let outcome = ModelRepair::new().repair_dtmc(&channel, &phi, &template)?;
    println!("\nrepair status: {:?}", outcome.status);
    assert_eq!(outcome.status, RepairStatus::Repaired);
    for (name, value) in &outcome.parameters {
        println!("  parameter {name} = {value:.5}");
    }
    println!("  perturbation cost ||Z||_F^2 = {:.6}", outcome.cost);

    let repaired = outcome.model.expect("repaired model");
    let after = checker.check(&repaired, &phi)?;
    println!(
        "repaired model: P(F delivered) = {:.4} -> satisfied: {}",
        after.value_at_initial().unwrap_or(f64::NAN),
        after.holds()
    );
    assert!(after.holds());
    Ok(())
}
