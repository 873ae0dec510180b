//! End-to-end reproduction of the WSN case study (paper §V-A) as
//! integration tests spanning models → checker → parametric → optimizer →
//! repair.

use trusted_ml::checker::Checker;
use trusted_ml::logic::parse_query;
use trusted_ml::repair::{DataRepair, ModelRepair, RepairStatus};
use trusted_ml::wsn::{
    attempts_property, build_dtmc, build_mdp, classes, generate_traces, model_spec,
    repair_template, WsnConfig,
};

fn expected_attempts(chain: &trusted_ml::models::Dtmc, source: usize) -> f64 {
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").unwrap();
    Checker::new().query(chain, &q).unwrap().0[source]
}

/// E1: the learned model satisfies `R{attempts} <= 100 [F delivered]`
/// without any repair.
#[test]
fn e1_model_satisfies_x100() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let out = ModelRepair::new()
        .repair_dtmc(&chain, &attempts_property(100.0), &repair_template(&config).unwrap())
        .unwrap();
    assert_eq!(out.status, RepairStatus::AlreadySatisfied);
}

/// E2: `X = 40` needs repair; small positive corrections to both ignore
/// probability groups are found and the repaired model verifies.
#[test]
fn e2_model_repair_feasible_x40() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let out = ModelRepair::new()
        .repair_dtmc(&chain, &attempts_property(40.0), &repair_template(&config).unwrap())
        .unwrap();
    assert_eq!(out.status, RepairStatus::Repaired);
    assert!(out.verified);
    let p = out.parameters.iter().find(|(n, _)| n == "p").unwrap().1;
    let q = out.parameters.iter().find(|(n, _)| n == "q").unwrap().1;
    assert!(p > 0.0 && p < 0.1, "p = {p}");
    assert!(q > 0.0 && q < 0.1, "q = {q}");
    let repaired = out.model.unwrap();
    assert!(expected_attempts(&repaired, config.source()) <= 40.0 + 1e-6);
    // The repair must actually lower the ignore rates (raise forwarding).
    assert!(
        repaired.probability(config.source(), config.source())
            < chain.probability(config.source(), config.source())
    );
}

/// E3: `X = 19` is infeasible under the small-perturbation class.
#[test]
fn e3_model_repair_infeasible_x19() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let out = ModelRepair::new()
        .repair_dtmc(&chain, &attempts_property(19.0), &repair_template(&config).unwrap())
        .unwrap();
    assert_eq!(out.status, RepairStatus::Infeasible);
    assert!(out.model.is_none());
}

/// E4: Data Repair drops the corrupt ignore observations so the re-learned
/// model satisfies `X = 19`.
#[test]
fn e4_data_repair_x19() {
    let config = WsnConfig::default();
    let dataset = generate_traces(&config, 120, 40.0, 42).unwrap();
    let spec = model_spec(&config);
    let out = DataRepair::new()
        .keep_class(classes::FORWARD_SUCCESS)
        .repair(&dataset, &spec, &attempts_property(19.0))
        .unwrap();
    assert_eq!(out.status, RepairStatus::Repaired);
    assert!(out.verified);
    // The reliable class is kept in full; the droppable classes lose mass.
    for (class, w) in &out.keep_weights {
        if class == classes::FORWARD_SUCCESS {
            assert!((w - 1.0).abs() < 1e-12);
        } else {
            assert!(*w < 0.9, "class {class} kept at {w}");
        }
    }
    let repaired = out.model.unwrap();
    assert!(expected_attempts(&repaired, config.source()) <= 19.0 + 1e-6);
}

/// The MDP view brackets the DTMC view: Rmin <= R(dtmc) <= Rmax.
#[test]
fn mdp_brackets_dtmc() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let mdp = build_mdp(&config).unwrap();
    let checker = Checker::new();
    let avg = expected_attempts(&chain, config.source());
    let rmax = parse_query("R{\"attempts\"}max=? [ F \"delivered\" ]").unwrap();
    let rmin = parse_query("R{\"attempts\"}min=? [ F \"delivered\" ]").unwrap();
    let worst = checker.query(&mdp, &rmax).unwrap().0[config.source()];
    let best = checker.query(&mdp, &rmin).unwrap().0[config.source()];
    assert!(best <= avg + 1e-6 && avg <= worst + 1e-6, "{best} <= {avg} <= {worst}");
}

/// Monte-Carlo sanity: simulated attempt counts agree with the analytic
/// expected reward within sampling error.
#[test]
fn simulation_agrees_with_checker() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let analytic = expected_attempts(&chain, config.source());
    let mut rng = StdRng::seed_from_u64(1);
    let episodes = 4000;
    let mut total = 0.0;
    for _ in 0..episodes {
        let path = chain.sample_path(&mut rng, 100_000, |s| s == config.delivered());
        total += (path.len() - 1) as f64;
    }
    let empirical = total / episodes as f64;
    let rel = (empirical - analytic).abs() / analytic;
    assert!(rel < 0.05, "empirical {empirical} vs analytic {analytic}");
}

/// The symbolic expected-attempts function from the parametric engine
/// matches instantiate-and-check to machine precision on the 2×2 grid,
/// where the rational function stays at a degree `f64` elimination keeps
/// exact (Proposition 2's reduction, cross-validated).
#[test]
fn symbolic_matches_oracle_on_small_wsn() {
    let config = WsnConfig { n: 2, ..Default::default() };
    let chain = build_dtmc(&config).unwrap();
    let template = repair_template(&config).unwrap();
    let pdtmc = template.apply(&chain).unwrap();
    let target = pdtmc.labeling().mask("delivered");
    let symbolic = pdtmc.expected_reward("attempts", &target).unwrap();
    assert!(symbolic[config.source()].complexity() <= 16, "small grid stays low-degree");
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").unwrap();
    for &(p, qv) in &[(0.0, 0.0), (0.02, 0.01), (0.05, 0.05), (0.09, 0.03)] {
        let inst = pdtmc.instantiate(&[p, qv]).unwrap();
        let oracle = Checker::new().query(&inst, &q).unwrap().0[config.source()];
        let sym = symbolic[config.source()].eval(&[p, qv]).unwrap();
        let rel = (sym - oracle).abs() / oracle;
        assert!(rel < 1e-9, "p={p} q={qv}: symbolic {sym} vs oracle {oracle}");
    }
}

/// On the 3×3 grid the symbolic form's degree exceeds what `f64`
/// elimination keeps exact (which is why repairs take every constraint
/// value from the compiled oracle and use the closed form only for
/// interval enclosures); its value still agrees with the oracle in the
/// interior of the box, degrading only near the uncancelled removable
/// singularity at the origin.
#[test]
fn symbolic_degrades_gracefully_on_full_wsn() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let template = repair_template(&config).unwrap();
    let pdtmc = template.apply(&chain).unwrap();
    let target = pdtmc.labeling().mask("delivered");
    let symbolic = pdtmc.expected_reward("attempts", &target).unwrap();
    assert!(symbolic[config.source()].complexity() > 16, "3x3 grid exceeds degree 16");
    let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").unwrap();
    let inst = pdtmc.instantiate(&[0.09, 0.09]).unwrap();
    let oracle = Checker::new().query(&inst, &q).unwrap().0[config.source()];
    let sym = symbolic[config.source()].eval(&[0.09, 0.09]).unwrap();
    assert!((sym - oracle).abs() / oracle < 1e-2, "interior accuracy: {sym} vs {oracle}");
}

/// Model repair also works on the MDP view through instantiate-and-check:
/// meeting a worst-scheduler bound (Rmax) by correcting ignore rates.
#[test]
fn mdp_model_repair_worst_case_bound() {
    use trusted_ml::repair::{MdpPerturbationTemplate, ModelRepair};
    let config = WsnConfig { n: 2, ..Default::default() };
    let mdp = build_mdp(&config).unwrap();
    let checker = Checker::new();
    let rmax = parse_query("R{\"attempts\"}max=? [ F \"delivered\" ]").unwrap();
    let base_worst = checker.query(&mdp, &rmax).unwrap().0[config.source()];

    // Perturb every forwarding choice: success up by v, retry down by v.
    let mut template = MdpPerturbationTemplate::new();
    let v = template.parameter("v", 0.0, 0.08);
    for s in 0..config.n * config.n {
        for (c, choice) in mdp.choices(s).iter().enumerate() {
            if choice.transitions.len() == 2 {
                let (succ, _) = choice.transitions.iter().find(|&&(t, _)| t != s).copied().unwrap();
                template.nudge(s, c, succ, v, 1.0).unwrap();
                template.nudge(s, c, s, v, -1.0).unwrap();
            }
        }
    }
    // R{attempts} <= bound resolves to Rmax <= bound on MDPs.
    let bound = base_worst * 0.85;
    let property = trusted_ml::logic::parse_formula(&format!(
        "R{{\"attempts\"}}<={bound} [ F \"delivered\" ]"
    ))
    .unwrap();
    let out = ModelRepair::new().repair_mdp(&mdp, &property, &template).unwrap();
    assert_eq!(out.status, trusted_ml::repair::RepairStatus::Repaired);
    assert!(out.verified);
    let repaired = out.model.unwrap();
    let worst = checker.query(&repaired, &rmax).unwrap().0[config.source()];
    assert!(worst <= bound + 1e-6, "worst {worst} vs bound {bound}");
}

/// The full TML pipeline (learn → verify → model repair → data repair) on
/// WSN traces: model repair's template is too weak for the harsh bound, so
/// the pipeline falls through to data repair and still produces a trusted
/// model.
#[test]
fn tml_pipeline_on_wsn_traces() {
    use trusted_ml::repair::pipeline::{TmlOutcome, TmlPipeline};
    use trusted_ml::repair::PerturbationTemplate;
    let config = WsnConfig::default();
    let dataset = generate_traces(&config, 120, 40.0, 42).unwrap();
    let spec = model_spec(&config);

    // A deliberately weak template: only the source node's row, tiny box.
    let learned = spec.learn(&dataset, None).unwrap();
    let mut template = PerturbationTemplate::new();
    let v = template.parameter("v", 0.0, 0.001);
    let src = config.source();
    let (succ, _) = learned.successors(src).find(|&(t, _)| t != src).unwrap();
    template.nudge(src, succ, v, 1.0).unwrap();
    template.nudge(src, src, v, -1.0).unwrap();

    let outcome = TmlPipeline::new(spec, attempts_property(19.0))
        .with_model_repair(template)
        .with_data_repair()
        .run(&dataset)
        .unwrap();
    match &outcome {
        TmlOutcome::DataRepaired { outcome, model_repair_status } => {
            assert_eq!(*model_repair_status, Some(trusted_ml::repair::RepairStatus::Infeasible));
            assert!(outcome.verified);
        }
        other => panic!("expected data repair to fire, got {other:?}"),
    }
    assert!(outcome.is_trusted());
}

/// Every repair outcome of the case study survives an independent
/// simulation cross-check: the Monte Carlo estimate of the repaired
/// quantity cannot refute the bound the checker certified. The E2 repair
/// is boundary-optimal (expected attempts land exactly on X = 40), so the
/// acceptance criterion is "not refuted", never "corroborated".
#[test]
fn repair_outcomes_pass_simulation_cross_check() {
    use tml_conformance::test_support::{SimCheck, SimOptions, Simulator};
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let property = attempts_property(40.0);
    let out = ModelRepair::new()
        .repair_dtmc(&chain, &property, &repair_template(&config).unwrap())
        .unwrap();
    assert!(out.verified);
    let repaired = out.model.unwrap();

    let sim = Simulator::new(SimOptions { trajectories: 20_000, seed: 7, ..SimOptions::default() });
    let check = sim.check_formula(&repaired, &property).unwrap();
    assert!(check.verdict().acceptable(), "simulation refuted the certified repair: {check:?}");
    let SimCheck::Reward { estimate, .. } = &check else {
        panic!("attempts property is a reward check");
    };
    // Delivery is almost sure and far faster than the step cap: every
    // trajectory completes, so the mean is unbiased and must sit at the
    // boundary the repair targeted (within sampling error).
    assert_eq!(estimate.truncated, 0);
    let analytic = expected_attempts(&repaired, config.source());
    let rel = (estimate.mean - analytic).abs() / analytic;
    assert!(rel < 0.05, "simulated {} vs analytic {analytic}", estimate.mean);
    assert!(estimate.mean <= 40.0 * 1.05, "mean {} strays past the bound", estimate.mean);
}

/// The pipeline's simulation cross-check hook, wired to the real
/// conformance simulator, corroborates the data-repaired WSN model
/// end to end.
#[test]
fn tml_pipeline_simulation_cross_check_on_wsn() {
    use trusted_ml::repair::pipeline::{TmlOutcome, TmlPipeline};
    let config = WsnConfig::default();
    let dataset = generate_traces(&config, 120, 40.0, 42).unwrap();
    let spec = model_spec(&config);
    let outcome = TmlPipeline::new(spec, attempts_property(19.0))
        .with_data_repair()
        .with_simulation_cross_check(tml_conformance::simulation_cross_check(8_000, 11))
        .run(&dataset)
        .unwrap();
    match &outcome {
        TmlOutcome::DataRepaired { outcome, .. } => {
            assert!(outcome.verified);
            assert_eq!(outcome.verified_by_simulation, Some(true));
        }
        other => panic!("expected data repair to fire, got {other:?}"),
    }
    assert_eq!(outcome.verified_by_simulation(), Some(true));
}

/// Proposition 1 instrumentation on the real WSN repair: the repaired
/// model's perturbation radius matches the optimizer's parameters and the
/// reachability deviation is bounded.
#[test]
fn proposition_1_on_wsn_repair() {
    use trusted_ml::repair::{perturbation_epsilon, reachability_deviation, ModelRepair};
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let out = ModelRepair::new()
        .repair_dtmc(&chain, &attempts_property(40.0), &repair_template(&config).unwrap())
        .unwrap();
    let repaired = out.model.unwrap();
    let eps = perturbation_epsilon(&chain, &repaired).unwrap();
    // ε = max entry of Z = max correction / fan-out; corrections are p, q.
    let max_param = out.parameters.iter().map(|(_, v)| v.abs()).fold(0.0, f64::max);
    assert!(eps <= max_param + 1e-9, "eps {eps} exceeds max parameter {max_param}");
    assert!(eps > 0.0);
    let dev = reachability_deviation(
        &chain,
        &repaired,
        "delivered",
        &trusted_ml::checker::CheckOptions::default(),
    )
    .unwrap();
    // Delivery stays almost sure in both models.
    assert!(dev < 1e-9, "deviation {dev}");
}
