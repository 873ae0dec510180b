//! Deterministic job corpora: `(corpus_seed, id) → JobSpec → inputs`.
//!
//! Every job is a full learn→verify→repair problem synthesized from the
//! conformance layer's model generators: sample a ground-truth chain,
//! roll seeded trajectories on it, split them into `hit`/`miss` classes
//! by goal reachability, and ask for a *step-bounded* property
//! `P>=θ [ F<=depth "goal" ]` with `θ` placed relative to two checked
//! anchors — `p`, the bounded goal probability of the model learned from
//! the raw dataset, and `p_best`, the same probability when the `miss`
//! class is down-weighted to the Data Repair floor. Bounds below `p`
//! give already-satisfied jobs, bounds between `p` and `p_best` jobs
//! that Data Repair can fix, and bounds beyond `p_best` unrepairable
//! jobs — so a batch exercises every pipeline outcome. The step bound
//! matters twice over: unbounded `P(F goal)` saturates at 1 on these
//! small learned chains (every class collapses into "satisfied"), and
//! bounded properties route Data Repair through its re-learn-and-check
//! constraint fallback, exercising that path under chaos too.
//!
//! Models are kept small (≤ 12 requested states) so every linear solve
//! stays on the dense direct backend.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_checker::Checker;
use tml_conformance::gen::{ModelFamily, GOAL_LABEL};
use tml_core::ModelSpec;
use tml_logic::{parse_formula, parse_query, StateFormula};
use tml_models::{Path, TraceDataset};

use crate::job::JobSpec;

/// SplitMix-style combiner for deriving per-job seeds.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The spec of batch job `id` under `corpus_seed` — pure function, same
/// answer in the control run, the killed run and its resume.
pub fn job_spec(corpus_seed: u64, id: u64) -> JobSpec {
    let mut rng = StdRng::seed_from_u64(mix(corpus_seed, id));
    // Families with cheap generation and a guaranteed reachable goal.
    let families =
        [ModelFamily::Layered, ModelFamily::Absorbing, ModelFamily::Grid, ModelFamily::Dense];
    let family = families[rng.random_range(0..families.len())];
    let num_states = rng.random_range(6..=12usize);
    let trajectories = rng.random_range(24..=48u32);
    let depth = rng.random_range(6..=10u32);
    // Outcome-class selector (~1/3 satisfied, ~1/2 repair-needed, the
    // rest unrepairable): negative → bound below the learned model's
    // probability, moderate → between it and the best reweighted model,
    // large → beyond even that (see `build_job`).
    let bound_shift = match rng.random_range(0..6u32) {
        0 | 1 => -0.15,
        2..=4 => 0.12,
        _ => 0.9,
    };
    JobSpec {
        id,
        family,
        seed: mix(corpus_seed, id ^ 0x5bf0_3635),
        num_states,
        trajectories,
        depth,
        bound_shift,
    }
}

/// Inputs for one pipeline run, built from a [`JobSpec`].
#[derive(Debug, Clone)]
pub struct JobInput {
    /// The sampled trace dataset (`hit` and `miss` classes).
    pub dataset: TraceDataset,
    /// Model decoration (size, initial state, goal labels).
    pub spec: ModelSpec,
    /// The property the trusted model must satisfy.
    pub formula: StateFormula,
}

/// Synthesizes the job's dataset, model spec and property. Deterministic
/// in the spec; errors only on internal invariant violations (rendered as
/// strings so the executor can journal them as structured failures).
///
/// # Errors
///
/// Returns a description of the failed construction step.
pub fn build_job(spec: &JobSpec) -> Result<JobInput, String> {
    let model = spec.family.generate_sized(spec.seed, spec.num_states);
    let n = model.num_states();
    let goal = model.labeling().mask(GOAL_LABEL);
    if !goal.iter().any(|&g| g) {
        return Err(format!("family {} generated no goal state", spec.family.name()));
    }
    let mut rng = StdRng::seed_from_u64(mix(spec.seed, 0x7261_6a65));
    let mut ds = TraceDataset::new();
    let hit = ds.add_class("hit");
    let miss = ds.add_class("miss");
    for _ in 0..spec.trajectories {
        let states = model.sample_path(&mut rng, spec.depth as usize, |s| goal[s]);
        let reached = states.iter().any(|&s| goal[s]);
        ds.push(if reached { hit } else { miss }, Path::from_states(states), 1.0)
            .map_err(|e| format!("trace rejected: {e}"))?;
    }
    let mut mspec = ModelSpec::new(n).initial(model.initial_state());
    for (s, &is_goal) in goal.iter().enumerate() {
        if is_goal {
            mspec = mspec.label(s, GOAL_LABEL);
        }
    }
    // Anchor the bound on checked probabilities: `p` for the model the
    // pipeline will learn from the raw dataset, `p_best` for the best it
    // can reach by down-weighting the `miss` class to the Data Repair
    // keep-weight floor (1e-3; classes are [hit, miss]).
    let horizon = spec.depth;
    let p = reach_probability(&ds, &mspec, horizon, None)?;
    let p_best = reach_probability(&ds, &mspec, horizon, Some(&[1.0, 1e-3]))?;
    let gap = (p_best - p).max(0.0);
    let theta = if spec.bound_shift < 0.0 || (spec.bound_shift < 0.5 && gap < 1e-4) {
        // Satisfied: strictly below what the learned model achieves. A
        // repair-class job whose reweighting gap vanished degrades here.
        p * 0.85
    } else if spec.bound_shift < 0.5 {
        // Repairable: partway into what reweighting can recover.
        p + 0.35 * gap
    } else {
        // Unrepairable: beyond even the fully reweighted model.
        (p_best + 0.5 * (1.0 - p_best)).min(0.999_999)
    };
    let formula = parse_formula(&format!("P>={theta:.6} [ F<={horizon} \"{GOAL_LABEL}\" ]"))
        .map_err(|e| format!("formula: {e}"))?;
    Ok(JobInput { dataset: ds, spec: mspec, formula })
}

/// `P(F<=horizon goal)` at the initial state of the model learned from
/// `dataset` under the given per-class weights — the same learn step (and
/// decoration) the pipeline performs, so the anchors predict its verdict.
fn reach_probability(
    dataset: &TraceDataset,
    spec: &ModelSpec,
    horizon: u32,
    weights: Option<&[f64]>,
) -> Result<f64, String> {
    let model = spec.learn(dataset, weights).map_err(|e| format!("anchor learn: {e}"))?;
    let query = parse_query(&format!("P=? [ F<={horizon} \"{GOAL_LABEL}\" ]"))
        .map_err(|e| format!("anchor query: {e}"))?;
    let (values, _) =
        Checker::new().query(&model, &query).map_err(|e| format!("anchor check: {e}"))?;
    Ok(values[model.initial_state()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_and_varied() {
        let a = job_spec(7, 3);
        let b = job_spec(7, 3);
        assert_eq!(a, b);
        let shifts: Vec<f64> = (0..64).map(|id| job_spec(7, id).bound_shift).collect();
        assert!(shifts.iter().any(|&s| s < 0.0), "some jobs start satisfied");
        assert!(shifts.iter().any(|&s| (0.0..0.5).contains(&s)), "some jobs need repair");
        assert!(shifts.iter().any(|&s| s > 0.5), "some jobs are unrepairable");
    }

    #[test]
    fn built_jobs_are_deterministic() {
        let spec = job_spec(11, 0);
        let a = build_job(&spec).unwrap();
        let b = build_job(&spec).unwrap();
        assert_eq!(a.dataset.num_traces(), b.dataset.num_traces());
        assert_eq!(a.formula.to_string(), b.formula.to_string());
        assert!(a.dataset.num_traces() as u32 == spec.trajectories);
        assert_eq!(a.dataset.num_classes(), 2);
    }

    #[test]
    fn every_family_in_the_corpus_builds() {
        for id in 0..16 {
            let spec = job_spec(23, id);
            let input = build_job(&spec).expect("corpus jobs always build");
            assert!(input.spec.num_states >= 2);
        }
    }
}
