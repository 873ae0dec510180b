//! Autonomous-car obstacle-avoidance case study (paper §V-B, Fig. 1).
//!
//! A car in the right lane must overtake a van parked at position 2 of its
//! lane: switch to the left lane, pass the van, and return to the right
//! lane by the end of the stretch. The MDP has 11 states:
//!
//! ```text
//!   left lane   S5  S6  S7  S8  S9      (positions 0..4)
//!   right lane  S0  S1  S2  S3  S4      (positions 0..4)
//! ```
//!
//! * `S2` — collision with the van (**unsafe**),
//! * `S4` — manoeuvre completed (**goal**, sink),
//! * `S10` — off-road / failed to return by `S4` (**unsafe**, sink).
//!
//! Actions: `0` move forward, `1` change lane to the left, `2` change lane
//! to the right (same position). Driving forward past `S9` or changing
//! lanes off the road lands in `S10`.
//!
//! States carry the paper's three features: lane indicator, normalized
//! distance to the nearest unsafe state, and the goal indicator. The expert
//! demonstration is the safe overtake
//! `(S0,0),(S1,1),(S6,0),(S7,0),(S8,2),(S3,0)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tml_core::{QConstraint, WeightedRule};
use tml_irl::{maxent_irl, value_iteration, FeatureMap, IrlOptions, IrlResult, ViOptions};
use tml_logic::TraceFormula;
use tml_models::{Mdp, MdpBuilder, Path};

use tml_core::RepairError;

/// Action id: move forward within the lane.
pub const FORWARD: usize = 0;
/// Action id: change to the left lane (same position).
pub const LEFT: usize = 1;
/// Action id: change to the right lane (same position).
pub const RIGHT: usize = 2;

/// Number of states (S0–S10).
pub const NUM_STATES: usize = 11;
/// The collision state.
pub const COLLISION: usize = 2;
/// The goal sink.
pub const GOAL: usize = 4;
/// The off-road sink.
pub const OFFROAD: usize = 10;

/// Discount factor used throughout the case study.
pub const GAMMA: f64 = 0.9;

/// Builds the Fig. 1 MDP with deterministic manoeuvres.
///
/// Every state in `S0–S3, S5–S9` offers all three actions (in id order
/// `forward`, `left`, `right`); the sinks `S4`/`S10` offer only `forward`
/// self-loops.
///
/// # Errors
///
/// Never fails for this fixed topology; the `Result` mirrors the builder
/// API.
pub fn build_mdp() -> Result<Mdp, RepairError> {
    let mut b = MdpBuilder::new(NUM_STATES);
    let forward_to = |s: usize| -> usize {
        match s {
            0..=3 => s + 1, // right lane advances
            5..=8 => s + 1, // left lane advances
            9 => OFFROAD,   // ran out of road in the left lane
            GOAL => GOAL,
            _ => OFFROAD,
        }
    };
    let left_to = |s: usize| -> usize {
        match s {
            0..=3 => s + 5, // right → left, same position
            5..=9 => OFFROAD,
            _ => s,
        }
    };
    let right_to = |s: usize| -> usize {
        match s {
            5..=9 => s - 5, // left → right, same position
            0..=3 => OFFROAD,
            _ => s,
        }
    };
    for s in 0..NUM_STATES {
        if s == GOAL || s == OFFROAD {
            b.choice(s, "forward", &[(s, 1.0)])?;
            continue;
        }
        b.choice(s, "forward", &[(forward_to(s), 1.0)])?;
        b.choice(s, "left", &[(left_to(s), 1.0)])?;
        b.choice(s, "right", &[(right_to(s), 1.0)])?;
    }
    b.label(COLLISION, "unsafe")?;
    b.label(OFFROAD, "unsafe")?;
    b.label(GOAL, "goal")?;
    for s in 0..=4 {
        b.label(s, "rightlane")?;
    }
    for s in 5..=9 {
        b.label(s, "leftlane")?;
    }
    b.label(1, "s1")?;
    Ok(b.build()?)
}

/// Builds a noisy variant of the Fig. 1 MDP: each manoeuvre succeeds with
/// probability `1 − slip` and otherwise the car drifts forward instead
/// (the action-noise model of real vehicle controllers). `slip = 0`
/// coincides with [`build_mdp`].
///
/// # Errors
///
/// Returns [`RepairError::InvalidInput`] unless `slip ∈ [0, 0.5)`.
pub fn build_mdp_noisy(slip: f64) -> Result<Mdp, RepairError> {
    if !(0.0..0.5).contains(&slip) {
        return Err(RepairError::InvalidInput { detail: format!("slip {slip} outside [0, 0.5)") });
    }
    let ideal = build_mdp()?;
    if slip == 0.0 {
        return Ok(ideal);
    }
    let mut b = MdpBuilder::new(NUM_STATES);
    for s in 0..NUM_STATES {
        for choice in ideal.choices(s) {
            let intended = choice.transitions[0].0;
            let action = ideal.action_name(choice.action);
            // The drift outcome is "forward": the first choice's target.
            let drift = ideal.choices(s)[0].transitions[0].0;
            if choice.action == FORWARD || s == GOAL || s == OFFROAD || intended == drift {
                b.choice(s, action, &[(intended, 1.0)])?;
            } else {
                b.choice(s, action, &[(intended, 1.0 - slip), (drift, slip)])?;
            }
        }
        for label in ideal.labeling().labels_of(s) {
            b.label(s, label)?;
        }
    }
    Ok(b.build()?)
}

/// The paper's three features per state:
///
/// * `φ1` — lane indicator (1 in the right lane `S0–S4`),
/// * `φ2` — distance to the nearest unsafe state (`S2`, `S10`),
///   normalized to `[0, 1]`,
/// * `φ3` — goal indicator (1 at `S4`).
///
/// # Errors
///
/// Never fails for this fixed topology.
pub fn features() -> Result<FeatureMap, RepairError> {
    let coord = |s: usize| -> (f64, f64) {
        // (lane, position); the off-road state sits "outside" both lanes.
        match s {
            0..=4 => (0.0, s as f64),
            5..=9 => (1.0, (s - 5) as f64),
            _ => (2.0, 2.0),
        }
    };
    let dist = |a: usize, b: usize| -> f64 {
        let (la, pa) = coord(a);
        let (lb, pb) = coord(b);
        (la - lb).abs() + (pa - pb).abs()
    };
    let mut rows = Vec::with_capacity(NUM_STATES);
    for s in 0..NUM_STATES {
        let lane = if s <= 4 { 1.0 } else { 0.0 };
        let d_unsafe = dist(s, COLLISION).min(dist(s, OFFROAD)) / 4.0;
        let goal = if s == GOAL { 1.0 } else { 0.0 };
        rows.push(vec![lane, d_unsafe, goal]);
    }
    FeatureMap::new(rows).map_err(tml_core::RepairError::Irl)
}

/// The expert demonstration from the paper:
/// `(S0,0),(S1,1),(S6,0),(S7,0),(S8,2),(S3,0)` ending in `S4`.
pub fn expert_path() -> Path {
    Path::with_actions(
        vec![0, 1, 6, 7, 8, 3, 4],
        vec![FORWARD, LEFT, FORWARD, FORWARD, RIGHT, FORWARD],
    )
    .expect("well-formed expert path")
}

/// IRL options tuned for this case study (moderate training, mild
/// regularization — enough to fit the expert but, as in the paper, not
/// enough to implicitly learn the safety constraint).
pub fn irl_options() -> IrlOptions {
    IrlOptions { horizon: 8, learning_rate: 0.2, iterations: 400, l2: 1e-2, tolerance: 1e-7 }
}

/// Learns the reward weights from the expert demonstration by max-entropy
/// IRL.
///
/// # Errors
///
/// Propagates IRL failures (never for this fixed setup).
pub fn learn_reward(mdp: &Mdp) -> Result<IrlResult, RepairError> {
    let fm = features()?;
    maxent_irl(mdp, &fm, &[expert_path()], irl_options()).map_err(RepairError::Irl)
}

/// The greedy deterministic policy (choice indices) under reward weights
/// `theta`.
///
/// # Errors
///
/// Propagates value-iteration failures.
pub fn greedy_policy(mdp: &Mdp, theta: &[f64]) -> Result<Vec<usize>, RepairError> {
    let fm = features()?;
    let vi =
        value_iteration(mdp, &fm.rewards(theta), ViOptions { gamma: GAMMA, ..Default::default() })
            .map_err(RepairError::Irl)?;
    Ok(vi.policy)
}

/// Rolls the policy out from `S0` (deterministic dynamics) and reports the
/// visited states, stopping at the first repeated state or after
/// `max_steps`.
pub fn rollout(mdp: &Mdp, policy: &[usize], max_steps: usize) -> Vec<usize> {
    let mut states = vec![mdp.initial_state()];
    let mut current = mdp.initial_state();
    for _ in 0..max_steps {
        let choice = &mdp.choices(current)[policy[current]];
        let next = choice.transitions[0].0;
        states.push(next);
        if next == current {
            break;
        }
        current = next;
    }
    states
}

/// Whether a policy's rollout from `S0` avoids both unsafe states and
/// reaches the goal.
pub fn policy_is_safe(mdp: &Mdp, policy: &[usize]) -> bool {
    let states = rollout(mdp, policy, 25);
    states.iter().all(|&s| s != COLLISION && s != OFFROAD) && states.contains(&GOAL)
}

/// The paper's Reward Repair constraint: in `S1` the lane change must beat
/// driving forward, `Q(S1, 1) > Q(S1, 0)`.
pub fn q_repair_constraint() -> QConstraint {
    QConstraint { state: 1, better: LEFT, worse: FORWARD, margin: 0.02 }
}

/// Trajectory-level safety rules for the projection-based repair: never
/// enter an unsafe state.
pub fn safety_rules() -> Vec<WeightedRule> {
    vec![WeightedRule::hard(TraceFormula::never("unsafe"))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_core::{RepairStatus, RewardRepair};

    #[test]
    fn topology_matches_figure_1() {
        let m = build_mdp().unwrap();
        assert_eq!(m.num_states(), NUM_STATES);
        // Action ids are stable: forward=0, left=1, right=2.
        assert_eq!(m.action_id("forward"), Some(FORWARD));
        assert_eq!(m.action_id("left"), Some(LEFT));
        assert_eq!(m.action_id("right"), Some(RIGHT));
        // Expert transitions exist: S1 --left--> S6, S8 --right--> S3.
        let c16 = &m.choices(1)[LEFT];
        assert_eq!(c16.transitions, vec![(6, 1.0)]);
        let c83 = &m.choices(8)[RIGHT];
        assert_eq!(c83.transitions, vec![(3, 1.0)]);
        // Forward at S1 collides.
        assert_eq!(m.choices(1)[FORWARD].transitions, vec![(2, 1.0)]);
        // S9 forward goes off-road; sinks self-loop.
        assert_eq!(m.choices(9)[FORWARD].transitions, vec![(OFFROAD, 1.0)]);
        assert_eq!(m.choices(GOAL).len(), 1);
        assert_eq!(m.choices(OFFROAD).len(), 1);
        assert!(m.labeling().has(COLLISION, "unsafe"));
        assert!(m.labeling().has(OFFROAD, "unsafe"));
        assert!(m.labeling().has(GOAL, "goal"));
    }

    #[test]
    fn expert_path_is_consistent_with_dynamics() {
        let m = build_mdp().unwrap();
        let p = expert_path();
        for i in 0..p.len() {
            let (s, a, t) = (p.states[i], p.actions[i], p.states[i + 1]);
            let c = m.choice_for_action(s, a).expect("action available");
            assert_eq!(m.choices(s)[c].transitions, vec![(t, 1.0)], "step {i}");
        }
        // The expert path is safe and ends at the goal.
        assert!(p.states.iter().all(|&s| s != COLLISION && s != OFFROAD));
        assert_eq!(*p.states.last().unwrap(), GOAL);
    }

    #[test]
    fn features_shape_and_semantics() {
        let fm = features().unwrap();
        assert_eq!(fm.num_states(), NUM_STATES);
        assert_eq!(fm.dim(), 3);
        // φ2 is zero exactly at unsafe states.
        assert_eq!(fm.state_features(COLLISION)[1], 0.0);
        assert_eq!(fm.state_features(OFFROAD)[1], 0.0);
        assert!(fm.state_features(5)[1] > 0.0);
        // φ3 only at the goal.
        for s in 0..NUM_STATES {
            assert_eq!(fm.state_features(s)[2], if s == GOAL { 1.0 } else { 0.0 });
        }
    }

    /// E5: max-ent IRL on the expert demo learns a reward whose greedy
    /// policy drives forward at S1 — into the van (paper §V-B).
    #[test]
    fn learned_reward_is_unsafe_at_s1() {
        let m = build_mdp().unwrap();
        let irl = learn_reward(&m).unwrap();
        let pi = greedy_policy(&m, &irl.theta).unwrap();
        assert_eq!(
            m.choices(1)[pi[1]].action,
            FORWARD,
            "expected the unsafe shortcut at S1; theta = {:?}",
            irl.theta
        );
        assert!(!policy_is_safe(&m, &pi));
    }

    /// E6: Q-constraint reward repair flips S1 to the lane change and the
    /// repaired policy completes the overtake safely.
    #[test]
    fn reward_repair_restores_safety() {
        let m = build_mdp().unwrap();
        let fm = features().unwrap();
        let irl = learn_reward(&m).unwrap();
        let out = RewardRepair::new()
            .q_constraint_repair(&m, &fm, &irl.theta, &[q_repair_constraint()], GAMMA, 3.0)
            .unwrap();
        assert_eq!(out.status, RepairStatus::Repaired, "theta0 = {:?}", irl.theta);
        assert!(out.verified);
        let pi = greedy_policy(&m, &out.theta).unwrap();
        assert_eq!(m.choices(1)[pi[1]].action, LEFT, "repaired theta = {:?}", out.theta);
        assert!(policy_is_safe(&m, &pi), "rollout: {:?}", rollout(&m, &pi, 25));
    }

    #[test]
    fn noisy_dynamics_preserve_structure() {
        let clean = build_mdp().unwrap();
        let noisy = build_mdp_noisy(0.1).unwrap();
        assert_eq!(noisy.num_states(), clean.num_states());
        assert_eq!(noisy.total_choices(), clean.total_choices());
        // The lane change at S1 now drifts into the van with probability 0.1.
        let c = &noisy.choices(1)[LEFT];
        assert!(c.transitions.contains(&(6, 0.9)));
        assert!(c.transitions.contains(&(2, 0.1)));
        // slip = 0 coincides with the ideal model.
        assert_eq!(build_mdp_noisy(0.0).unwrap(), clean);
        assert!(build_mdp_noisy(0.7).is_err());
        assert!(build_mdp_noisy(-0.1).is_err());
    }

    #[test]
    fn noisy_model_weakens_safety_guarantee() {
        use tml_checker::Checker;
        use tml_logic::parse_formula;
        // Even the best scheduler can no longer guarantee the overtake:
        // Pmax(!unsafe U goal) < 1 under slip noise.
        let noisy = build_mdp_noisy(0.1).unwrap();
        let phi = parse_formula("Pmax>=1 [ !\"unsafe\" U \"goal\" ]").unwrap();
        let res = Checker::new().check(&noisy, &phi).unwrap();
        assert!(!res.holds());
        let relaxed = parse_formula("Pmax>=0.8 [ !\"unsafe\" U \"goal\" ]").unwrap();
        assert!(Checker::new().check(&noisy, &relaxed).unwrap().holds());
    }

    #[test]
    fn rollout_detects_sinks() {
        let m = build_mdp().unwrap();
        // All-forward policy: S0→S1→S2→S3→S4 (collides at S2 on the way).
        let pi = vec![0; NUM_STATES];
        let states = rollout(&m, &pi, 25);
        assert!(states.contains(&COLLISION));
        assert!(!policy_is_safe(&m, &pi));
    }
}
