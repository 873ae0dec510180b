//! Structured random model generators.
//!
//! Every generator is a pure function of its seed (the workspace's
//! deterministic `StdRng`), so a failing seed reported by the oracle
//! harness reproduces the exact same model on any machine. The families
//! are chosen to stress different engine behaviors:
//!
//! * [`layered_dtmc`] — forward-layered DAG plus an absorbing goal: fast
//!   mixing, exercises qualitative precomputation;
//! * [`absorbing_dtmc`] — every state keeps an escape edge to the goal, so
//!   absorption is almost-sure and unbounded reachability is well defined
//!   from every state;
//! * [`grid_dtmc`] — grid-like random walk drifting toward a goal corner
//!   (the WSN topology shape at arbitrary sizes);
//! * [`dense_dtmc`] — high fan-out rows, stressing dense solves and tape
//!   compilation;
//! * [`near_singular_dtmc`] — heavy self-loops (retry probability close to
//!   one) make `I − P` nearly singular: Gauss–Seidel converges very slowly,
//!   which drives the checker's degradation chain;
//! * [`long_chain_dtmc`] — a forward chain with skip edges to the goal:
//!   every SCC is trivial, so the SCC-decomposed solver finishes in one
//!   back-substitution pass while monolithic Gauss–Seidel needs a sweep
//!   per chain position (scales to millions of states);
//! * [`layered_scc_dtmc`] — a layered DAG whose nodes are small ring
//!   SCCs: the condensation has many components in a deep dependency
//!   order, the stress shape for block-decomposed solves at scale;
//! * [`random_mdp`] — controllable nondeterministic branching;
//! * [`parametric_dtmc`] — bounded-degree parametric chains whose rows sum
//!   to one identically, for the symbolic/compiled/instantiate oracle.
//!
//! The goal states of every DTMC family carry the label `"goal"` and every
//! state reaches the goal with positive probability (needed by the
//! fixed-point oracle pairs and the simulator's definitive-failure
//! classification).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tml_models::{Dtmc, DtmcBuilder, Mdp, MdpBuilder};
use tml_parametric::{ParametricDtmc, Polynomial, RationalFunction};

/// The label all generated goal states carry.
pub const GOAL_LABEL: &str = "goal";

/// The structured DTMC families the oracle harness sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// [`layered_dtmc`] instances.
    Layered,
    /// [`absorbing_dtmc`] instances.
    Absorbing,
    /// [`grid_dtmc`] instances.
    Grid,
    /// [`dense_dtmc`] instances.
    Dense,
    /// [`near_singular_dtmc`] instances.
    NearSingular,
    /// [`long_chain_dtmc`] instances.
    LongChain,
    /// [`layered_scc_dtmc`] instances.
    LayeredScc,
}

impl ModelFamily {
    /// All families, in sweep order.
    pub fn all() -> &'static [ModelFamily] {
        &[
            ModelFamily::Layered,
            ModelFamily::Absorbing,
            ModelFamily::Grid,
            ModelFamily::Dense,
            ModelFamily::NearSingular,
            ModelFamily::LongChain,
            ModelFamily::LayeredScc,
        ]
    }

    /// The family's sweep name (also its CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::Layered => "layered",
            ModelFamily::Absorbing => "absorbing",
            ModelFamily::Grid => "grid",
            ModelFamily::Dense => "dense",
            ModelFamily::NearSingular => "near-singular",
            ModelFamily::LongChain => "long-chain",
            ModelFamily::LayeredScc => "layered-scc",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(name: &str) -> Option<ModelFamily> {
        ModelFamily::all().iter().copied().find(|f| f.name() == name)
    }

    /// Generates this family's model for `seed` at the default sweep size
    /// (sizes vary with the seed so a sweep covers a range of scales).
    pub fn generate(self, seed: u64) -> Dtmc {
        // Sizes cycle through a small spread; the +7 keeps even seed 0
        // non-trivial.
        let n = 7 + (seed % 5) as usize * 6;
        self.generate_sized(seed, n)
    }

    /// Generates this family's model for `seed` with roughly `n` states.
    pub fn generate_sized(self, seed: u64, n: usize) -> Dtmc {
        let n = n.max(3);
        match self {
            ModelFamily::Layered => layered_dtmc(seed, n.div_ceil(3).max(2), 3),
            ModelFamily::Absorbing => absorbing_dtmc(seed, n),
            ModelFamily::Grid => grid_dtmc(seed, (n as f64).sqrt().ceil() as usize),
            ModelFamily::Dense => dense_dtmc(seed, n),
            ModelFamily::NearSingular => near_singular_dtmc(seed, n),
            ModelFamily::LongChain => long_chain_dtmc(seed, n),
            ModelFamily::LayeredScc => layered_scc_dtmc(seed, (n / 6).max(1), 2, 3),
        }
    }
}

/// Splits probability mass `1.0` uniformly-randomly over `k` parts, each
/// at least `min_share` of the total.
fn random_simplex(rng: &mut StdRng, k: usize, min_share: f64) -> Vec<f64> {
    let mut raw: Vec<f64> = (0..k).map(|_| rng.random_range(min_share..1.0)).collect();
    let sum: f64 = raw.iter().sum();
    for r in &mut raw {
        *r /= sum;
    }
    raw
}

/// The historical ad-hoc test generator, kept verbatim so existing
/// cross-validation seeds keep producing the same chains: every
/// non-terminal state has exactly two successors, the last state is the
/// absorbing `"goal"`, and states carry a `"cost"` reward of `1 + s/2`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_dtmc(seed: u64, n: usize) -> Dtmc {
    assert!(n >= 2, "random_dtmc needs at least two states");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DtmcBuilder::new(n);
    for s in 0..n - 1 {
        let t1 = rng.random_range(0..n);
        let mut t2 = rng.random_range(0..n);
        if t2 == t1 {
            t2 = (t1 + 1) % n;
        }
        let p = rng.random_range(0.1..0.9);
        b.transition(s, t1, p).unwrap();
        b.transition(s, t2, 1.0 - p).unwrap();
    }
    b.transition(n - 1, n - 1, 1.0).unwrap();
    b.label(n - 1, GOAL_LABEL).unwrap();
    for s in 0..n - 1 {
        b.state_reward("cost", s, 1.0 + (s as f64) * 0.5).unwrap();
    }
    b.build().unwrap()
}

/// A forward-layered chain: `layers` layers of `width` states; every state
/// distributes its mass over the next layer (the final layer collapses to
/// the absorbing goal). Absorption is almost-sure in `layers` steps.
///
/// # Panics
///
/// Panics if `layers < 1` or `width < 1`.
pub fn layered_dtmc(seed: u64, layers: usize, width: usize) -> Dtmc {
    assert!(layers >= 1 && width >= 1, "layered_dtmc needs positive dimensions");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0001);
    let n = layers * width + 1; // + absorbing goal
    let goal = n - 1;
    let mut b = DtmcBuilder::new(n);
    for layer in 0..layers {
        for w in 0..width {
            let s = layer * width + w;
            if layer + 1 == layers {
                b.transition(s, goal, 1.0).unwrap();
            } else {
                let fan = rng.random_range(1..=width);
                let shares = random_simplex(&mut rng, fan, 0.05);
                let start = rng.random_range(0..width);
                for (i, p) in shares.iter().enumerate() {
                    let t = (layer + 1) * width + (start + i) % width;
                    b.transition(s, t, *p).unwrap();
                }
            }
            b.state_reward("cost", s, rng.random_range(0.5..2.0)).unwrap();
        }
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A chain where every state keeps an explicit escape edge to the absorbing
/// goal (probability in `[0.05, 0.4]`), so the goal is reached almost
/// surely from everywhere and expected hitting times are modest.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn absorbing_dtmc(seed: u64, n: usize) -> Dtmc {
    assert!(n >= 2, "absorbing_dtmc needs at least two states");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0002);
    let goal = n - 1;
    let mut b = DtmcBuilder::new(n);
    for s in 0..goal {
        let escape = rng.random_range(0.05..0.4);
        b.transition(s, goal, escape).unwrap();
        let fan = rng.random_range(1..=3usize);
        let shares = random_simplex(&mut rng, fan, 0.1);
        for p in shares {
            let t = rng.random_range(0..goal);
            b.transition(s, t, p * (1.0 - escape)).unwrap();
        }
        b.state_reward("cost", s, rng.random_range(0.5..3.0)).unwrap();
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A `side × side` grid random walk with drift toward the goal corner
/// (state `side²−1`): from each cell, mass splits between "right",
/// "down" and a backward slip, mirroring the WSN routing topology at
/// arbitrary sizes.
///
/// # Panics
///
/// Panics if `side < 2`.
pub fn grid_dtmc(seed: u64, side: usize) -> Dtmc {
    assert!(side >= 2, "grid_dtmc needs side >= 2");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0003);
    let n = side * side;
    let goal = n - 1;
    let idx = |r: usize, c: usize| r * side + c;
    let mut b = DtmcBuilder::new(n);
    for r in 0..side {
        for c in 0..side {
            let s = idx(r, c);
            if s == goal {
                break;
            }
            let right = (c + 1 < side).then(|| idx(r, c + 1));
            let down = (r + 1 < side).then(|| idx(r + 1, c));
            let back = idx(r.saturating_sub(1), c.saturating_sub(1));
            match (right, down) {
                (Some(rt), Some(dn)) => {
                    let pr = rng.random_range(0.3..0.5);
                    let pd = rng.random_range(0.3..0.5);
                    b.transition(s, rt, pr).unwrap();
                    b.transition(s, dn, pd).unwrap();
                    b.transition(s, back, 1.0 - pr - pd).unwrap();
                }
                (Some(t), None) | (None, Some(t)) => {
                    let p = rng.random_range(0.6..0.9);
                    b.transition(s, t, p).unwrap();
                    b.transition(s, back, 1.0 - p).unwrap();
                }
                (None, None) => unreachable!("only the goal corner lacks both moves"),
            }
            b.state_reward("cost", s, 1.0).unwrap();
        }
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A dense chain: every state has `~n/2` successors including a small
/// direct goal edge, stressing wide rows in solvers and compiled tapes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn dense_dtmc(seed: u64, n: usize) -> Dtmc {
    assert!(n >= 3, "dense_dtmc needs at least three states");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0004);
    let goal = n - 1;
    let mut b = DtmcBuilder::new(n);
    for s in 0..goal {
        let fan = (n / 2).max(2);
        let escape = rng.random_range(0.02..0.1);
        b.transition(s, goal, escape).unwrap();
        let shares = random_simplex(&mut rng, fan, 0.02);
        for (i, p) in shares.iter().enumerate() {
            let t = (s + 1 + i) % goal;
            b.transition(s, t, p * (1.0 - escape)).unwrap();
        }
        b.state_reward("cost", s, rng.random_range(0.1..1.0)).unwrap();
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A nearly singular chain: every transient state retries itself with
/// probability `1 − δ` (`δ ∈ [1e-4, 1e-3]`) and leaks the rest forward.
/// `I − P` has eigenvalues within `δ` of zero, so monolithic Gauss–Seidel
/// needs on the order of `1/δ` sweeps. Every state is its own SCC, so the
/// checker's SCC-first solve resolves the chain by back-substitution
/// without iterating.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn near_singular_dtmc(seed: u64, n: usize) -> Dtmc {
    assert!(n >= 2, "near_singular_dtmc needs at least two states");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0005);
    let goal = n - 1;
    let mut b = DtmcBuilder::new(n);
    for s in 0..goal {
        let delta = rng.random_range(1e-4..1e-3);
        b.transition(s, s, 1.0 - delta).unwrap();
        // Forward leak, split between the next state and the goal.
        let to_next = rng.random_range(0.3..0.7);
        b.transition(s, s + 1, delta * to_next).unwrap();
        b.transition(s, goal, delta * (1.0 - to_next)).unwrap();
        b.state_reward("cost", s, 1.0).unwrap();
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A forward chain with skip edges: state `s` advances to `s + 1` with
/// probability `1 − δ` and jumps straight to the absorbing goal with
/// probability `δ` (`δ ∈ [0.01, 0.05]` per state). The transition graph is
/// acyclic apart from the goal self-loop, so *every* SCC is trivial: the
/// SCC-decomposed solver resolves the whole chain in one back-substitution
/// pass, while monolithic Gauss–Seidel in natural state order propagates
/// information one position per sweep. Scales to millions of states.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn long_chain_dtmc(seed: u64, n: usize) -> Dtmc {
    assert!(n >= 2, "long_chain_dtmc needs at least two states");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0008);
    let goal = n - 1;
    let mut b = DtmcBuilder::new(n);
    for s in 0..goal {
        let skip = rng.random_range(0.01..0.05);
        if s + 1 == goal {
            b.transition(s, goal, 1.0).unwrap();
        } else {
            b.transition(s, s + 1, 1.0 - skip).unwrap();
            b.transition(s, goal, skip).unwrap();
        }
        b.state_reward("cost", s, rng.random_range(0.5..1.5)).unwrap();
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A layered DAG whose nodes are small ring SCCs: `layers` layers of
/// `comps` ring components of `comp_size` states each, plus the absorbing
/// goal. Within a component, each state cycles to the next ring position
/// with probability `stay ∈ [0.7, 0.97]` — sticky enough that a global
/// iterative solve pays hundreds of sweeps for the within-ring mixing a
/// block solver resolves exactly — and leaks the rest to a random
/// state of the next layer (the last layer leaks to the goal). The
/// condensation therefore has `layers · comps` non-trivial components in a
/// deep dependency order — the stress shape for block-decomposed solves —
/// and the goal is reached almost surely from every state.
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn layered_scc_dtmc(seed: u64, layers: usize, comps: usize, comp_size: usize) -> Dtmc {
    assert!(
        layers >= 1 && comps >= 1 && comp_size >= 1,
        "layered_scc_dtmc needs positive dimensions"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0009);
    let per_layer = comps * comp_size;
    let n = layers * per_layer + 1;
    let goal = n - 1;
    let mut b = DtmcBuilder::new(n);
    for layer in 0..layers {
        for comp in 0..comps {
            let base = layer * per_layer + comp * comp_size;
            for i in 0..comp_size {
                let s = base + i;
                let ring = base + (i + 1) % comp_size;
                let stay = if comp_size == 1 {
                    // Degenerate ring: a self-loop, resolved in closed form.
                    rng.random_range(0.2..0.6)
                } else {
                    rng.random_range(0.7..0.97)
                };
                let leak = if layer + 1 == layers {
                    goal
                } else {
                    (layer + 1) * per_layer + rng.random_range(0..per_layer)
                };
                if ring == leak {
                    b.transition(s, ring, 1.0).unwrap();
                } else {
                    b.transition(s, ring, stay).unwrap();
                    b.transition(s, leak, 1.0 - stay).unwrap();
                }
                b.state_reward("cost", s, rng.random_range(0.5..2.0)).unwrap();
            }
        }
    }
    b.transition(goal, goal, 1.0).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A random MDP with controllable branching: each of the `n` states offers
/// between 1 and `max_choices` actions, each a distribution over up to
/// three successors; the last state is the absorbing `"goal"`.
///
/// # Panics
///
/// Panics if `n < 2` or `max_choices == 0`.
pub fn random_mdp(seed: u64, n: usize, max_choices: usize) -> Mdp {
    assert!(n >= 2 && max_choices >= 1, "random_mdp needs n >= 2 and max_choices >= 1");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0006);
    let goal = n - 1;
    let mut b = MdpBuilder::new(n);
    for s in 0..goal {
        let choices = rng.random_range(1..=max_choices);
        for c in 0..choices {
            let name = format!("a{c}");
            let fan = rng.random_range(1..=3usize);
            let shares = random_simplex(&mut rng, fan, 0.1);
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(fan);
            for p in &shares {
                // Merge duplicate targets by accumulating into the row. When
                // every share lands on one target the rounded sum can exceed
                // 1 by an ulp, which the builder rejects: clamp merged
                // entries only, so rows without a merge stay bit-identical.
                let t = rng.random_range(0..n);
                match row.iter_mut().find(|(rt, _)| *rt == t) {
                    Some((_, rp)) => *rp = (*rp + *p).min(1.0),
                    None => row.push((t, *p)),
                }
            }
            b.choice(s, &name, &row).unwrap();
        }
        b.state_reward("cost", s, rng.random_range(0.5..2.0)).unwrap();
    }
    b.choice(goal, "a0", &[(goal, 1.0)]).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    b.build().unwrap()
}

/// A generated parametric chain plus the box its parameters live in.
#[derive(Debug, Clone)]
pub struct GeneratedPdtmc {
    /// The parametric chain (rows sum to one identically).
    pub pdtmc: ParametricDtmc,
    /// Per-parameter lower bounds.
    pub lo: Vec<f64>,
    /// Per-parameter upper bounds.
    pub hi: Vec<f64>,
}

impl GeneratedPdtmc {
    /// A deterministic sample point inside the box (`frac ∈ [0, 1]` slides
    /// from `lo` to `hi`).
    pub fn point(&self, frac: f64) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| l + frac.clamp(0.0, 1.0) * (h - l)).collect()
    }
}

/// A bounded-degree parametric DTMC over `nparams` parameters: a fraction
/// of rows get a transition `c + coeff·xᵢ` with the complement on a second
/// edge (so every row sums to one identically and each entry has degree at
/// most one in a single parameter — the bounded-degree regime the compiled
/// tapes are optimized for). Parameters range over `[0.0, 0.2]`; all
/// probabilities stay in `(0, 1)` across the whole box.
///
/// # Panics
///
/// Panics if `n < 3` or `nparams == 0`.
pub fn parametric_dtmc(seed: u64, n: usize, nparams: usize) -> GeneratedPdtmc {
    assert!(n >= 3 && nparams >= 1, "parametric_dtmc needs n >= 3 and nparams >= 1");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_0007);
    let goal = n - 1;
    let params: Vec<String> = (0..nparams).map(|i| format!("x{i}")).collect();
    let mut b = ParametricDtmc::builder(n, params);
    let constant = |c: f64| RationalFunction::constant(nparams, c);
    for s in 0..goal {
        // `t1` is always a transient state, the complement edge always goes
        // to the goal, so reachability is nontrivial everywhere.
        let t1 = rng.random_range(0..goal);
        let base = rng.random_range(0.3..0.6);
        if rng.random_range(0.0..1.0) < 0.7 {
            // Parametric row: p(t1) = base + coeff·xᵢ, p(goal) = 1 − that.
            let i = rng.random_range(0..nparams);
            let coeff = rng.random_range(0.2..0.9);
            let poly =
                Polynomial::constant(nparams, base).add(&Polynomial::var(nparams, i).scale(coeff));
            let p1 = RationalFunction::from_poly(poly);
            let p2 = constant(1.0).sub(&p1);
            b.transition(s, t1, p1).unwrap();
            b.transition(s, goal, p2).unwrap();
        } else {
            b.transition(s, t1, constant(base)).unwrap();
            b.transition(s, goal, constant(1.0 - base)).unwrap();
        }
    }
    b.transition(goal, goal, constant(1.0)).unwrap();
    b.label(goal, GOAL_LABEL).unwrap();
    let pdtmc = b.build().expect("generated parametric rows sum to one identically");
    GeneratedPdtmc { pdtmc, lo: vec![0.0; nparams], hi: vec![0.2; nparams] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_models::graph;

    fn goal_reachable_everywhere(d: &Dtmc) {
        let target = d.labeling().mask(GOAL_LABEL);
        assert!(target.iter().any(|&t| t), "a goal state exists");
        let phi = vec![true; d.num_states()];
        let zero = graph::prob0(d, &phi, &target);
        assert!(zero.iter().all(|&z| !z), "every state reaches the goal with positive probability");
    }

    #[test]
    fn families_are_deterministic_and_goal_reaching() {
        for &family in ModelFamily::all() {
            for seed in 0..10 {
                let a = family.generate(seed);
                let b = family.generate(seed);
                assert_eq!(a, b, "{} seed {seed} must be reproducible", family.name());
                goal_reachable_everywhere(&a);
            }
        }
    }

    #[test]
    fn legacy_random_dtmc_shape() {
        let d = random_dtmc(3, 7);
        assert_eq!(d.num_states(), 7);
        assert!(d.labeling().has(6, GOAL_LABEL));
        assert!(d.reward_structure("cost").is_ok());
        assert_eq!(d, random_dtmc(3, 7));
    }

    #[test]
    fn random_mdp_branches_and_builds() {
        for seed in 0..10 {
            let m = random_mdp(seed, 6, 3);
            assert_eq!(m.num_states(), 6);
            assert!(m.total_choices() >= 6);
            assert!((0..5).all(|s| m.num_choices(s) >= 1));
            assert_eq!(m.num_choices(5), 1);
        }
    }

    #[test]
    fn random_mdp_builds_on_every_seed() {
        // Seeds 2, 66, 92, 100 and 114 of (5, 3) merge every share of a
        // row into one target, whose rounded sum used to exceed 1.
        for (n, max_choices) in [(5, 3), (3, 2), (8, 4)] {
            for seed in 0..2000 {
                let m = random_mdp(seed, n, max_choices);
                for s in 0..n {
                    for c in m.choices(s) {
                        let sum: f64 = c.transitions.iter().map(|&(_, p)| p).sum();
                        assert!((sum - 1.0).abs() < 1e-9, "seed {seed} ({n}, {max_choices})");
                        assert!(c.transitions.iter().all(|&(_, p)| p <= 1.0));
                    }
                }
            }
        }
    }

    #[test]
    fn parametric_family_is_stochastic_over_the_box() {
        for seed in 0..6 {
            let g = parametric_dtmc(seed, 6, 2);
            for frac in [0.0, 0.5, 1.0] {
                let point = g.point(frac);
                let d = g.pdtmc.instantiate(&point).unwrap();
                assert_eq!(d.num_states(), 6);
            }
        }
    }

    #[test]
    fn long_chain_has_only_trivial_sccs() {
        let d = long_chain_dtmc(5, 40);
        assert_eq!(d.num_states(), 40);
        let adj: Vec<Vec<usize>> =
            (0..d.num_states()).map(|s| d.successors(s).map(|(t, _)| t).collect()).collect();
        let comps = graph::sccs(&adj);
        // Every component is a singleton (the goal's self-loop included).
        assert!(comps.iter().all(|c| c.len() == 1));
        goal_reachable_everywhere(&d);
    }

    #[test]
    fn layered_scc_has_ring_components() {
        let d = layered_scc_dtmc(2, 3, 2, 4);
        assert_eq!(d.num_states(), 3 * 2 * 4 + 1);
        let adj: Vec<Vec<usize>> =
            (0..d.num_states()).map(|s| d.successors(s).map(|(t, _)| t).collect()).collect();
        let comps = graph::sccs(&adj);
        // Rings survive as size-4 components unless a leak edge collapsed
        // one (possible only when ring == leak forced a rewire).
        let big = comps.iter().filter(|c| c.len() == 4).count();
        assert!(big >= 4, "most rings stay intact, got {big} of 6");
        goal_reachable_everywhere(&d);
    }

    #[test]
    fn family_parsing_roundtrips() {
        for &f in ModelFamily::all() {
            assert_eq!(ModelFamily::parse(f.name()), Some(f));
        }
        assert_eq!(ModelFamily::parse("nope"), None);
    }
}
