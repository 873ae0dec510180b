//! Repairs pinned bit for bit: the optimizer's evaluation counts and the
//! bits of the repair cost, for penalty search and for parameter lifting
//! under default options. A change to the property oracle, the checker's
//! solve, the repair driver or the optimizer that moves any candidate value
//! by one ulp moves these fingerprints, so a pure speed-up or refactor must
//! leave them exactly as they are.
//!
//! WSN model repair (paper E2) pins evaluations and cost bits. The other
//! repairs pin their whole result: status, evaluations, the cost (or
//! effort) bits, the bits of every parameter (or keep-weight) and the
//! fallbacks the diagnostics recorded.

use trusted_ml::checker::Checker;
use trusted_ml::logic::{parse_formula, parse_query, StateFormula};
use trusted_ml::models::dsl::{parse_model, ModelFile};
use trusted_ml::models::{Mdp, Path, TraceDataset};
use trusted_ml::repair::{
    DataRepair, DataRepairOutcome, MdpPerturbationTemplate, ModelRepair, ModelRepairOutcome,
    ModelSpec, PerturbationTemplate, RepairOptions, RepairStatus, RepairStrategy, RobustSpec,
};
use trusted_ml::wsn::{
    attempts_property, build_dtmc, build_mdp, classes, generate_traces, model_spec,
    repair_template, WsnConfig,
};

/// `(X, penalty evaluations, penalty cost bits, lifting evaluations,
/// lifting cost bits)`.
const FINGERPRINTS: [(f64, usize, u64, usize, u64); 3] = [
    (34.0, 619_592, 0x3f88_0c42_32bb_c0e4, 303_751, 0x3f88_0c42_32bb_c0e4),
    (37.0, 544_474, 0x3f6d_0313_c55d_7e74, 305_361, 0x3f71_4639_f48f_3354),
    (40.0, 282_274, 0x3f3e_082e_626b_14f1, 41_643, 0x3f38_aeab_05eb_1db5),
];

#[test]
fn wsn_repairs_match_their_fingerprints() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let template = repair_template(&config).unwrap();
    for (x, penalty_evals, penalty_bits, lifting_evals, lifting_bits) in FINGERPRINTS {
        let phi = attempts_property(x);
        let repair = |strategy| {
            let out = ModelRepair::with_options(RepairOptions { strategy, ..Default::default() })
                .repair_dtmc(&chain, &phi, &template)
                .unwrap();
            assert_eq!(out.status, RepairStatus::Repaired, "{strategy:?} at X = {x}");
            assert!(out.verified, "{strategy:?} at X = {x}");
            (out.evaluations, out.cost.to_bits())
        };
        assert_eq!(
            repair(RepairStrategy::Penalty),
            (penalty_evals, penalty_bits),
            "penalty fingerprint at X = {x}"
        );
        assert_eq!(
            repair(RepairStrategy::Lifting),
            (lifting_evals, lifting_bits),
            "lifting fingerprint at X = {x}"
        );
    }
}

/// The pinned result of one repair.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    status: RepairStatus,
    evaluations: usize,
    /// Bits of the cost (model repair) or the effort (data repair).
    cost: u64,
    /// Bits of every parameter value (model repair) or keep-weight (data
    /// repair), in declaration order.
    point: Vec<u64>,
    fallbacks: Vec<String>,
}

impl Fingerprint {
    fn of_model<M>(out: &ModelRepairOutcome<M>) -> Self {
        Fingerprint {
            status: out.status,
            evaluations: out.evaluations,
            cost: out.cost.to_bits(),
            point: out.parameters.iter().map(|(_, v)| v.to_bits()).collect(),
            fallbacks: out.diagnostics.fallbacks.clone(),
        }
    }

    fn of_data(out: &DataRepairOutcome) -> Self {
        Fingerprint {
            status: out.status,
            evaluations: out.evaluations,
            cost: out.effort.to_bits(),
            point: out.keep_weights.iter().map(|(_, w)| w.to_bits()).collect(),
            fallbacks: out.diagnostics.fallbacks.clone(),
        }
    }
}

fn options(strategy: RepairStrategy, robust: Option<RobustSpec>) -> RepairOptions {
    RepairOptions { strategy, robust, ..RepairOptions::default() }
}

const NOT_SYMBOLIC: &str = "lifting: property not symbolic, penalty search used";
const ROBUST_ORACLE: &str = "lifting: robust repair uses the oracle, penalty search used";

/// Paper E4: data repair of the WSN traces against `X = 19`, keeping the
/// reliable forward-success class in full.
fn wsn_data_repair(strategy: RepairStrategy) -> Fingerprint {
    let config = WsnConfig::default();
    let dataset = generate_traces(&config, 120, 40.0, 42).unwrap();
    let out = DataRepair::with_options(options(strategy, None))
        .keep_class(classes::FORWARD_SUCCESS)
        .repair(&dataset, &model_spec(&config), &attempts_property(19.0))
        .unwrap();
    assert!(out.verified, "{strategy:?}");
    Fingerprint::of_data(&out)
}

#[test]
fn wsn_data_repair_matches_its_fingerprints() {
    let weights = vec![
        0x3ff0_0000_0000_0000,
        0x3fd7_1db1_c580_e908,
        0x3fd7_9ec4_513b_2e1b,
        0x3fd8_0ecb_835c_dced,
    ];
    let repaired = |evaluations| Fingerprint {
        status: RepairStatus::Repaired,
        evaluations,
        cost: 0x409d_23d1_1403_3270,
        point: weights.clone(),
        fallbacks: vec![],
    };
    assert_eq!(wsn_data_repair(RepairStrategy::Penalty), repaired(214_424));
    assert_eq!(wsn_data_repair(RepairStrategy::Lifting), repaired(109_259));
}

/// The README's lossy channel, repaired robustly: every member of the 95%
/// Wilson ball at 1,000 samples must satisfy `P>=0.9 [ F "ok" ]`.
fn robust_channel_repair(strategy: RepairStrategy) -> Fingerprint {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/assets/channel.tml"))
        .unwrap();
    let ModelFile::Dtmc(chain) = parse_model(&text).unwrap() else { panic!("a dtmc") };
    let mut template = PerturbationTemplate::new();
    let v = template.parameter("v", -0.15, 0.15);
    template.nudge(0, 1, v, 1.0).unwrap();
    template.nudge(0, 2, v, -1.0).unwrap();
    let robust = RobustSpec { confidence: 0.95, sample_size: 1000.0 };
    let out = ModelRepair::with_options(options(strategy, Some(robust)))
        .repair_dtmc(&chain, &parse_formula("P>=0.9 [ F \"ok\" ]").unwrap(), &template)
        .unwrap();
    assert!(out.verified, "{strategy:?}");
    Fingerprint::of_model(&out)
}

#[test]
fn robust_model_repair_matches_its_fingerprints() {
    let repaired = |fallbacks: &[&str]| Fingerprint {
        status: RepairStatus::Repaired,
        evaluations: 21_204,
        cost: 0x3f9c_cdf4_270b_5efb,
        point: vec![0x3fbe_5c38_bbf6_6666],
        fallbacks: fallbacks.iter().map(|f| f.to_string()).collect(),
    };
    assert_eq!(robust_channel_repair(RepairStrategy::Penalty), repaired(&[]));
    assert_eq!(robust_channel_repair(RepairStrategy::Lifting), repaired(&[ROBUST_ORACLE]));
}

/// Robust data repair: good traces reach the goal, noisy ones a sink, 60
/// of each; the re-learned chain's 95% Wilson ball must satisfy
/// `P>=0.8 [ F "ok" ]`.
fn robust_data_repair(strategy: RepairStrategy) -> Fingerprint {
    let mut ds = TraceDataset::new();
    let good = ds.add_class("good");
    let noisy = ds.add_class("noisy");
    ds.push(good, Path::from_states(vec![0, 1]), 60.0).unwrap();
    ds.push(noisy, Path::from_states(vec![0, 2]), 60.0).unwrap();
    ds.push(good, Path::from_states(vec![1, 1]), 60.0).unwrap();
    ds.push(noisy, Path::from_states(vec![2, 2]), 60.0).unwrap();
    let out = DataRepair::with_options(options(strategy, Some(RobustSpec::new(0.95))))
        .repair(
            &ds,
            &ModelSpec::new(3).label(1, "ok"),
            &parse_formula("P>=0.8 [ F \"ok\" ]").unwrap(),
        )
        .unwrap();
    assert!(out.verified, "{strategy:?}");
    Fingerprint::of_data(&out)
}

#[test]
fn robust_data_repair_matches_its_fingerprints() {
    let repaired = |fallbacks: &[&str]| Fingerprint {
        status: RepairStatus::Repaired,
        evaluations: 19_524,
        cost: 0x4057_6d23_46b7_3994,
        point: vec![0x3ff0_0000_0000_0000, 0x3fbd_c7a1_68c9_2b0e],
        fallbacks: fallbacks.iter().map(|f| f.to_string()).collect(),
    };
    assert_eq!(robust_data_repair(RepairStrategy::Penalty), repaired(&[]));
    assert_eq!(robust_data_repair(RepairStrategy::Lifting), repaired(&[ROBUST_ORACLE]));
}

/// The 2×2 WSN routing MDP: every forwarding choice's success probability
/// may rise by `v ∈ [0, 0.08]` until the worst scheduler's expected
/// attempts fall to 85% of the base model's.
fn wsn_mdp_repair(strategy: RepairStrategy) -> Fingerprint {
    let config = WsnConfig { n: 2, ..Default::default() };
    let mdp: Mdp = build_mdp(&config).unwrap();
    let rmax = parse_query("R{\"attempts\"}max=? [ F \"delivered\" ]").unwrap();
    let base_worst = Checker::new().query_mdp(&mdp, &rmax).unwrap()[config.source()];
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
    let bound = base_worst * 0.85;
    let property: StateFormula =
        parse_formula(&format!("R{{\"attempts\"}}<={bound} [ F \"delivered\" ]")).unwrap();
    let out = ModelRepair::with_options(options(strategy, None))
        .repair_mdp(&mdp, &property, &template)
        .unwrap();
    assert!(out.verified, "{strategy:?}");
    Fingerprint::of_model(&out)
}

#[test]
fn wsn_mdp_repair_matches_its_fingerprints() {
    let repaired = |fallbacks: &[&str]| Fingerprint {
        status: RepairStatus::Repaired,
        evaluations: 27_430,
        cost: 0x3f75_8eae_0955_244b,
        point: vec![0x3f97_7deb_3ad6_52ac],
        fallbacks: fallbacks.iter().map(|f| f.to_string()).collect(),
    };
    assert_eq!(wsn_mdp_repair(RepairStrategy::Penalty), repaired(&[]));
    // MDP repair has no symbolic path, so lifting degrades to penalty
    // search and says so, as DTMC repair does.
    assert_eq!(wsn_mdp_repair(RepairStrategy::Lifting), repaired(&[NOT_SYMBOLIC]));
}
