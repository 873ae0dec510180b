//! End-to-end reproduction of the car case study (paper §V-B) as
//! integration tests spanning models → IRL → repair.

use trusted_ml::car;
use trusted_ml::checker::Checker;
use trusted_ml::irl::{value_iteration, ViOptions};
use trusted_ml::logic::{parse_formula, TraceFormula};
use trusted_ml::models::DeterministicPolicy;
use trusted_ml::repair::{
    enumerate_trajectories, project_distribution, MdpTraceView, RepairStatus, RewardRepair,
    WeightedRule,
};

/// E5: IRL on the expert demonstration learns a reward whose optimal
/// policy takes action 0 (forward) in S1 — colliding with the van.
#[test]
fn e5_learned_policy_is_unsafe() {
    let mdp = car::build_mdp().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let pi = car::greedy_policy(&mdp, &irl.theta).unwrap();
    assert_eq!(mdp.choices(1)[pi[1]].action, car::FORWARD);
    let rollout = car::rollout(&mdp, &pi, 25);
    assert!(rollout.contains(&car::COLLISION), "rollout {rollout:?}");
}

/// E6: Q-constraint Reward Repair makes the optimal policy safe; the
/// repaired policy changes lane at S1 and returns to the right lane before
/// the road ends — exactly the paper's repaired policy shape.
#[test]
fn e6_reward_repair_restores_safety() {
    let mdp = car::build_mdp().unwrap();
    let features = car::features().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let out = RewardRepair::new()
        .q_constraint_repair(
            &mdp,
            &features,
            &irl.theta,
            &[car::q_repair_constraint()],
            car::GAMMA,
            3.0,
        )
        .unwrap();
    assert_eq!(out.status, RepairStatus::Repaired);
    assert!(out.verified);
    let pi = car::greedy_policy(&mdp, &out.theta).unwrap();
    assert_eq!(mdp.choices(1)[pi[1]].action, car::LEFT, "lane change at S1");
    let rollout = car::rollout(&mdp, &pi, 25);
    assert!(!rollout.contains(&car::COLLISION));
    assert!(!rollout.contains(&car::OFFROAD));
    assert!(rollout.contains(&car::GOAL));
    // The paper's repaired policy returns to the right lane via S9 or S8.
    assert!(rollout.contains(&9) || rollout.contains(&8), "rollout {rollout:?}");
}

/// E7: the posterior-regularization projection kills the probability mass
/// of unsafe trajectories monotonically in λ.
#[test]
fn e7_projection_mass_decreases_in_lambda() {
    let mdp = car::build_mdp().unwrap();
    let features = car::features().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let paths = enumerate_trajectories(&mdp, mdp.initial_state(), 6);
    let logw: Vec<f64> = paths
        .iter()
        .map(|u| trusted_ml::repair::trajectory_log_weight(&mdp, &features, &irl.theta, u))
        .collect();
    let z = trusted_ml::numerics::vector::log_sum_exp(&logw);
    let p: Vec<f64> = logw.iter().map(|lw| (lw - z).exp()).collect();

    let rule = TraceFormula::never("unsafe");
    let mass = |dist: &[f64]| -> f64 {
        paths
            .iter()
            .zip(dist)
            .filter(|(u, _)| !rule.eval(&MdpTraceView::new(&mdp, u), 0))
            .map(|(_, &pr)| pr)
            .sum()
    };
    let mut last = mass(&p);
    assert!(last > 0.0);
    for lambda in [0.5, 1.0, 2.0, 5.0, 20.0] {
        let q = project_distribution(&mdp, &paths, &p, &[WeightedRule::soft(rule.clone(), lambda)]);
        let m = mass(&q);
        assert!(m <= last + 1e-12, "λ={lambda}: {m} > {last}");
        last = m;
    }
    assert!(last < 1e-6, "λ=20 leaves mass {last}");
}

/// The projection-based repair (Prop. 4 + feature matching) also reduces
/// the unsafe trajectory mass of the *reward itself*.
#[test]
fn projection_based_repair_reduces_violation() {
    let mdp = car::build_mdp().unwrap();
    let features = car::features().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let out = RewardRepair::new()
        .project_and_fit(&mdp, &features, &irl.theta, &car::safety_rules(), 6)
        .unwrap();
    assert!(out.violation_mass_after < out.violation_mass_before);
    assert!(out.kl_divergence > 0.0);
}

/// The induced chain of the repaired policy satisfies the PCTL safety
/// property `P>=0.99 [ !unsafe U goal ]` — closing the loop through the
/// model checker.
#[test]
fn repaired_policy_chain_satisfies_pctl() {
    let mdp = car::build_mdp().unwrap();
    let features = car::features().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let out = RewardRepair::new()
        .q_constraint_repair(
            &mdp,
            &features,
            &irl.theta,
            &[car::q_repair_constraint()],
            car::GAMMA,
            3.0,
        )
        .unwrap();
    let pi = car::greedy_policy(&mdp, &out.theta).unwrap();
    let chain = DeterministicPolicy::new(pi).induce(&mdp).unwrap();
    let phi = parse_formula("P>=0.99 [ !\"unsafe\" U \"goal\" ]").unwrap();
    let res = Checker::new().check(&chain, &phi).unwrap();
    assert!(res.holds(), "repaired controller violates the PCTL safety spec");

    // While the learned (unrepaired) policy violates it.
    let pi0 = car::greedy_policy(&mdp, &irl.theta).unwrap();
    let chain0 = DeterministicPolicy::new(pi0).induce(&mdp).unwrap();
    let res0 = Checker::new().check(&chain0, &phi).unwrap();
    assert!(!res0.holds());
}

/// Simulation cross-check on the repaired controller: the induced chain is
/// deterministic, so collision probability is exactly zero and the Monte
/// Carlo verdicts are genuinely *corroborated* (the confidence interval
/// sits strictly on the safe side of both bounds), not merely consistent.
#[test]
fn repaired_policy_chain_passes_simulation_cross_check() {
    use tml_conformance::test_support::{SimCheck, SimOptions, Simulator, Verdict};
    let mdp = car::build_mdp().unwrap();
    let features = car::features().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let out = RewardRepair::new()
        .q_constraint_repair(
            &mdp,
            &features,
            &irl.theta,
            &[car::q_repair_constraint()],
            car::GAMMA,
            3.0,
        )
        .unwrap();
    assert_eq!(out.status, RepairStatus::Repaired);
    let pi = car::greedy_policy(&mdp, &out.theta).unwrap();
    let chain = DeterministicPolicy::new(pi).induce(&mdp).unwrap();

    // Sanity: the exact collision probability really is zero, so the
    // Corroborated assertions below are about the simulator, not luck.
    let exact = Checker::new()
        .query(&chain, &trusted_ml::logic::parse_query("P=? [ F \"unsafe\" ]").unwrap())
        .unwrap()
        .0[chain.initial_state()];
    assert!(exact.abs() < 1e-12, "repaired chain reaches unsafe with P = {exact}");

    let sim = Simulator::new(SimOptions { trajectories: 20_000, seed: 3, ..SimOptions::default() });
    // 0 hits out of 20 000 puts the Wilson upper bound near 1.9e-3 at the
    // simulator's 1e-9 confidence, safely inside a 1e-2 safety budget.
    let safety = parse_formula("P<=0.01 [ F \"unsafe\" ]").unwrap();
    let check = sim.check_formula(&chain, &safety).unwrap();
    assert_eq!(check.verdict(), Verdict::Corroborated, "{check:?}");
    let SimCheck::Probability { estimate, .. } = &check else {
        panic!("probability check expected")
    };
    assert_eq!(estimate.hits, 0);
    assert!(estimate.interval.high < 0.01, "CI upper {}", estimate.interval.high);

    let reach = parse_formula("P>=0.99 [ !\"unsafe\" U \"goal\" ]").unwrap();
    let check = sim.check_formula(&chain, &reach).unwrap();
    assert_eq!(check.verdict(), Verdict::Corroborated, "{check:?}");
    assert!(check.interval().low > 0.99, "CI lower {}", check.interval().low);
}

/// Value iteration under the expert-matching reward reproduces the expert's
/// actions along the expert's own trajectory after repair.
#[test]
fn repaired_policy_matches_expert_on_demo_states() {
    let mdp = car::build_mdp().unwrap();
    let features = car::features().unwrap();
    let irl = car::learn_reward(&mdp).unwrap();
    let out = RewardRepair::new()
        .q_constraint_repair(
            &mdp,
            &features,
            &irl.theta,
            &[car::q_repair_constraint()],
            car::GAMMA,
            3.0,
        )
        .unwrap();
    let rewards = features.rewards(&out.theta);
    let vi = value_iteration(&mdp, &rewards, ViOptions { gamma: car::GAMMA, ..Default::default() })
        .unwrap();
    // At S1 the repaired policy agrees with the expert's lane change.
    assert_eq!(mdp.choices(1)[vi.policy[1]].action, car::LEFT);
}
