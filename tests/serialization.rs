//! Serialization round-trips: models survive the textual model format
//! without loss, in structure and in what the checker computes on them.

use trusted_ml::logic::parse_query;
use trusted_ml::models::dsl::{dtmc_to_dsl, mdp_to_dsl, parse_model, ModelFile};
use trusted_ml::models::{DtmcBuilder, MdpBuilder};

fn sample_dtmc() -> trusted_ml::models::Dtmc {
    let mut b = DtmcBuilder::new(3);
    b.transition(0, 1, 0.25).unwrap();
    b.transition(0, 2, 0.75).unwrap();
    b.transition(1, 1, 1.0).unwrap();
    b.transition(2, 0, 1.0).unwrap();
    b.label(1, "goal").unwrap();
    b.label(2, "detour").unwrap();
    b.state_reward("fuel", 0, 1.5).unwrap();
    b.initial_state(2).unwrap();
    b.build().unwrap()
}

fn sample_mdp() -> trusted_ml::models::Mdp {
    let mut b = MdpBuilder::new(2);
    b.choice(0, "go", &[(1, 0.9), (0, 0.1)]).unwrap();
    b.choice(0, "wait", &[(0, 1.0)]).unwrap();
    b.choice(1, "wait", &[(1, 1.0)]).unwrap();
    b.label(1, "done").unwrap();
    b.state_reward("cost", 0, 1.0).unwrap();
    b.choice_reward("cost", 0, 0, 0.25).unwrap();
    b.build().unwrap()
}

#[test]
fn dsl_roundtrip_preserves_semantics() {
    let d = sample_dtmc();
    let text = dtmc_to_dsl(&d);
    let ModelFile::Dtmc(back) = parse_model(&text).unwrap() else { panic!("kind flip") };
    assert_eq!(d, back);

    let m = sample_mdp();
    let text = mdp_to_dsl(&m);
    let ModelFile::Mdp(back) = parse_model(&text).unwrap() else { panic!("kind flip") };
    assert_eq!(m, back);
}

#[test]
fn dsl_roundtrip_checks_identically() {
    // Semantics, not just structure: checking a property on the original
    // and on the round-tripped model gives identical values.
    let d = sample_dtmc();
    let ModelFile::Dtmc(back) = parse_model(&dtmc_to_dsl(&d)).unwrap() else { panic!() };
    let checker = trusted_ml::checker::Checker::new();
    let q = parse_query("P=? [ F \"goal\" ]").unwrap();
    let a = checker.query(&d, &q).unwrap().0;
    let b = checker.query(&back, &q).unwrap().0;
    assert_eq!(a, b);
}
