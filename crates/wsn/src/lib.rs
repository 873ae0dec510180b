//! Wireless-sensor-network query-routing case study (paper §V-A).
//!
//! An `n × n` grid of sensor nodes routes queries from the field corner
//! `n_nn` (bottom-right) to the station node `n_11` (top-left), which
//! forwards them to the base-station hub. Each routing *attempt* targets
//! one productive neighbour (up or left); the target ignores the attempt
//! with a node-dependent probability, in which case the holder retries.
//! The cumulative `attempts` reward counts attempts until delivery, and the
//! property of interest is
//!
//! ```text
//! R{"attempts"} <= X [ F "delivered" ]
//! ```
//!
//! The module provides:
//!
//! * [`WsnConfig`] + [`build_dtmc`] / [`build_mdp`] — the routing models
//!   (DTMC with uniform neighbour choice; MDP with the neighbour choice
//!   left nondeterministic);
//! * [`repair_template`] — the paper's Model Repair parameterization: a
//!   correction `p` lowering the ignore probability of field/station
//!   (edge-row) nodes and a correction `q` for interior nodes;
//! * [`generate_traces`] — synthetic routing traces grouped into the
//!   paper's Data Repair classes (forward-success / forward-fail /
//!   per-node ignore events);
//! * [`attempts_property`] and [`model_spec`] helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use tml_core::{ModelSpec, PerturbationTemplate, RepairError};
use tml_logic::{CmpOp, StateFormula};
use tml_models::{Dtmc, DtmcBuilder, Mdp, MdpBuilder, Path, TraceDataset};

/// Configuration of the WSN grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsnConfig {
    /// Grid side length (the paper uses `n = 3`).
    pub n: usize,
    /// Ignore probability of edge-row nodes (field row and station row).
    pub ignore_edge: f64,
    /// Ignore probability of interior nodes.
    pub ignore_interior: f64,
}

impl Default for WsnConfig {
    fn default() -> Self {
        // Chosen so that the 3×3 paper properties reproduce their shape:
        // X = 100 satisfied, X = 40 repairable, X = 19 infeasible.
        WsnConfig { n: 3, ignore_edge: 0.87, ignore_interior: 0.9 }
    }
}

impl WsnConfig {
    /// Number of model states: one per node plus the `delivered` terminal.
    pub fn num_states(&self) -> usize {
        self.n * self.n + 1
    }

    /// The state index of node `(row, col)` (row 0 = station row).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn node(&self, row: usize, col: usize) -> usize {
        assert!(row < self.n && col < self.n, "node ({row},{col}) outside {0}x{0} grid", self.n);
        row * self.n + col
    }

    /// The terminal "delivered" state.
    pub fn delivered(&self) -> usize {
        self.n * self.n
    }

    /// The source node `n_nn` (field corner, bottom-right).
    pub fn source(&self) -> usize {
        self.node(self.n - 1, self.n - 1)
    }

    /// The station node `n_11` (top-left).
    pub fn station(&self) -> usize {
        self.node(0, 0)
    }

    /// Whether a node index lies on the field or station row (the paper's
    /// "field/station nodes" repair group).
    pub fn is_edge_row(&self, state: usize) -> bool {
        let row = state / self.n;
        state < self.n * self.n && (row == 0 || row == self.n - 1)
    }

    /// The ignore probability of a node.
    pub fn ignore_of(&self, state: usize) -> f64 {
        if self.is_edge_row(state) {
            self.ignore_edge
        } else {
            self.ignore_interior
        }
    }

    /// Productive neighbours of a node: up and left (towards the station).
    /// The station node's "neighbour" is the base-station hub, modelled as
    /// the `delivered` state.
    pub fn targets(&self, state: usize) -> Vec<usize> {
        if state >= self.n * self.n {
            return Vec::new();
        }
        let (row, col) = (state / self.n, state % self.n);
        if (row, col) == (0, 0) {
            return vec![self.delivered()];
        }
        let mut ts = Vec::new();
        if row > 0 {
            ts.push(self.node(row - 1, col));
        }
        if col > 0 {
            ts.push(self.node(row, col - 1));
        }
        ts
    }

    /// The success probability of an attempt towards `target` (the hub
    /// never ignores beyond the station's own radio loss, which we fold
    /// into the station's edge-row ignore probability).
    fn success_prob(&self, target: usize) -> f64 {
        if target == self.delivered() {
            1.0 - self.ignore_edge
        } else {
            1.0 - self.ignore_of(target)
        }
    }

    fn validate(&self) -> Result<(), RepairError> {
        if self.n < 2 {
            return Err(RepairError::InvalidInput {
                detail: "grid side must be at least 2".into(),
            });
        }
        for p in [self.ignore_edge, self.ignore_interior] {
            if !(0.0..1.0).contains(&p) {
                return Err(RepairError::InvalidInput {
                    detail: format!("ignore probability {p} outside [0, 1)"),
                });
            }
        }
        Ok(())
    }
}

/// Builds the routing DTMC: at each node the holder picks a productive
/// neighbour uniformly at random, the attempt succeeding with the
/// neighbour's accept probability (ignore → retry via self-loop).
///
/// # Errors
///
/// Returns [`RepairError::InvalidInput`] for a malformed configuration.
pub fn build_dtmc(config: &WsnConfig) -> Result<Dtmc, RepairError> {
    config.validate()?;
    let mut b = DtmcBuilder::new(config.num_states());
    b.initial_state(config.source())?;
    for s in 0..config.n * config.n {
        let targets = config.targets(s);
        let k = targets.len() as f64;
        let mut stay = 0.0;
        for &t in &targets {
            let succ = config.success_prob(t);
            b.transition(s, t, succ / k)?;
            stay += (1.0 - succ) / k;
        }
        if stay > 0.0 {
            b.transition(s, s, stay)?;
        }
        b.state_reward("attempts", s, 1.0)?;
    }
    let d = config.delivered();
    b.transition(d, d, 1.0)?;
    b.label(d, "delivered")?;
    b.label(config.station(), "station")?;
    b.label(config.source(), "source")?;
    Ok(b.build()?)
}

/// Builds the routing MDP: the neighbour to attempt is a nondeterministic
/// action (`Rmax` then asks for the worst routing strategy).
///
/// # Errors
///
/// Returns [`RepairError::InvalidInput`] for a malformed configuration.
pub fn build_mdp(config: &WsnConfig) -> Result<Mdp, RepairError> {
    config.validate()?;
    let mut b = MdpBuilder::new(config.num_states());
    b.initial_state(config.source())?;
    for s in 0..config.n * config.n {
        for &t in &config.targets(s) {
            let succ = config.success_prob(t);
            let action = format!("fwd_{t}");
            if succ >= 1.0 {
                b.choice(s, &action, &[(t, 1.0)])?;
            } else {
                b.choice(s, &action, &[(t, succ), (s, 1.0 - succ)])?;
            }
        }
        b.state_reward("attempts", s, 1.0)?;
    }
    let d = config.delivered();
    b.choice(d, "done", &[(d, 1.0)])?;
    b.label(d, "delivered")?;
    b.label(config.station(), "station")?;
    b.label(config.source(), "source")?;
    Ok(b.build()?)
}

/// The property `R{"attempts"} <= X [ F "delivered" ]`.
pub fn attempts_property(x: f64) -> StateFormula {
    StateFormula::reach_reward("attempts", CmpOp::Le, x, "delivered")
}

/// The probabilistic delivery-deadline property
/// `P >= p [ F<=k "delivered" ]`: the query is routed within `k` attempts
/// with probability at least `p`. Step-bounded, so repairs against it
/// exercise the instantiate-and-check oracle back-end.
pub fn deadline_property(k: u64, p: f64) -> StateFormula {
    StateFormula::Prob {
        opt: None,
        op: CmpOp::Ge,
        bound: p,
        path: tml_logic::PathFormula::Eventually {
            sub: Box::new(StateFormula::Atom("delivered".to_owned())),
            bound: Some(k),
        },
    }
}

/// The paper's Model Repair parameterization: correction `p` lowers the
/// ignore probability of field/station (edge-row) nodes and `q` lowers
/// interior nodes' (both bounded so probabilities stay valid).
///
/// # Errors
///
/// Returns a [`RepairError`] if the template cannot be built (never for
/// valid configurations).
pub fn repair_template(config: &WsnConfig) -> Result<PerturbationTemplate, RepairError> {
    config.validate()?;
    let mut template = PerturbationTemplate::new();
    // The paper only considers *small* perturbations of the ignore
    // probabilities; a correction of up to 0.1 keeps the repair in that
    // regime (and makes very tight bounds like X = 19 infeasible).
    let max_correction = 0.1_f64.min(config.ignore_edge).min(config.ignore_interior);
    let p = template.parameter("p", 0.0, max_correction);
    let q = template.parameter("q", 0.0, max_correction);
    for s in 0..config.n * config.n {
        let targets = config.targets(s);
        let k = targets.len() as f64;
        for &t in &targets {
            let group_edge = t == config.delivered() || config.is_edge_row(t);
            let param = if group_edge { p } else { q };
            // success prob rises by param/k, the retry self-loop falls.
            template.nudge(s, t, param, 1.0 / k)?;
            template.nudge(s, s, param, -1.0 / k)?;
        }
    }
    Ok(template)
}

/// The [`ModelSpec`] matching [`build_dtmc`]'s decoration, for Data Repair
/// and the TML pipeline.
pub fn model_spec(config: &WsnConfig) -> ModelSpec {
    let mut spec = ModelSpec::new(config.num_states())
        .initial(config.source())
        .label(config.delivered(), "delivered")
        .label(config.station(), "station")
        .label(config.source(), "source");
    for s in 0..config.n * config.n {
        spec = spec.reward("attempts", s, 1.0);
    }
    spec
}

/// Names of the trace classes produced by [`generate_traces`].
pub mod classes {
    /// Successful forwarding attempts anywhere in the network.
    pub const FORWARD_SUCCESS: &str = "forward-success";
    /// Failed (ignored) forwarding attempts at nodes other than the two
    /// monitored ones.
    pub const FORWARD_FAIL: &str = "forward-fail";
    /// Ignore events observed at the station node `n_11`.
    pub const IGNORE_STATION: &str = "ignore-n11";
    /// Ignore events observed at the node next to the source (`n_32` in the
    /// 3×3 grid: one step up from the field corner).
    pub const IGNORE_NEAR_SOURCE: &str = "ignore-n32";
}

/// The "node near the message source" the paper monitors (`n_32` for
/// `n = 3`): one row up from the field corner.
pub fn near_source_node(config: &WsnConfig) -> usize {
    config.node(config.n - 2, config.n - 1)
}

/// Simulates `episodes` routing episodes on the ground-truth chain and
/// splits every observed transition into the paper's Data Repair classes
/// (one-step weighted traces).
///
/// `noise_extra_ignores` adds that many *corrupt* ignore observations to
/// each monitored node — the "noisy data" that Data Repair is meant to
/// drop.
///
/// # Errors
///
/// Returns a [`RepairError`] on malformed configurations.
pub fn generate_traces(
    config: &WsnConfig,
    episodes: usize,
    noise_extra_ignores: f64,
    seed: u64,
) -> Result<TraceDataset, RepairError> {
    let chain = build_dtmc(config)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = TraceDataset::new();
    let success = ds.add_class(classes::FORWARD_SUCCESS);
    let fail = ds.add_class(classes::FORWARD_FAIL);
    let ign_station = ds.add_class(classes::IGNORE_STATION);
    let ign_near = ds.add_class(classes::IGNORE_NEAR_SOURCE);
    let station = config.station();
    let near = near_source_node(config);
    let delivered = config.delivered();

    let push = |class: usize, from: usize, to: usize, w: f64, ds: &mut TraceDataset| {
        ds.push(class, Path::from_states(vec![from, to]), w).map_err(RepairError::from)
    };

    for _ in 0..episodes {
        let path = chain.sample_path(&mut rng, 10_000, |s| s == delivered);
        for win in path.windows(2) {
            let (s, t) = (win[0], win[1]);
            let class = if s == t {
                if s == station {
                    ign_station
                } else if s == near {
                    ign_near
                } else {
                    fail
                }
            } else {
                success
            };
            push(class, s, t, 1.0, &mut ds)?;
        }
    }
    if noise_extra_ignores > 0.0 {
        push(ign_station, station, station, noise_extra_ignores, &mut ds)?;
        push(ign_near, near, near, noise_extra_ignores, &mut ds)?;
        push(fail, config.source(), config.source(), noise_extra_ignores, &mut ds)?;
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_checker::Checker;
    use tml_logic::parse_query;

    #[test]
    fn topology_helpers() {
        let c = WsnConfig::default();
        assert_eq!(c.num_states(), 10);
        assert_eq!(c.node(0, 0), 0);
        assert_eq!(c.source(), 8);
        assert_eq!(c.delivered(), 9);
        assert!(c.is_edge_row(0));
        assert!(c.is_edge_row(8));
        assert!(!c.is_edge_row(4));
        assert_eq!(c.targets(8), vec![5, 7]);
        assert_eq!(c.targets(0), vec![9]);
        assert_eq!(c.targets(9), Vec::<usize>::new());
        assert_eq!(near_source_node(&c), 5);
    }

    #[test]
    fn dtmc_is_well_formed_and_delivers() {
        let c = WsnConfig::default();
        let d = build_dtmc(&c).unwrap();
        assert_eq!(d.num_states(), 10);
        assert_eq!(d.initial_state(), 8);
        // Delivery is almost sure.
        let checker = Checker::new();
        let q = parse_query("P=? [ F \"delivered\" ]").unwrap();
        let v = checker.query(&d, &q).unwrap().0;
        assert!((v[8] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expected_attempts_are_plausible() {
        let c = WsnConfig::default();
        let d = build_dtmc(&c).unwrap();
        let q = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").unwrap();
        let v = Checker::new().query(&d, &q).unwrap().0;
        let attempts = v[c.source()];
        // 5 hops each taking ~1/(1-ignore) attempts: between 5 and 100.
        assert!(attempts > 5.0 && attempts < 100.0, "attempts = {attempts}");
    }

    #[test]
    fn mdp_worst_case_exceeds_dtmc_average() {
        let c = WsnConfig::default();
        let d = build_dtmc(&c).unwrap();
        let m = build_mdp(&c).unwrap();
        let qd = parse_query("R{\"attempts\"}=? [ F \"delivered\" ]").unwrap();
        let qmax = parse_query("R{\"attempts\"}max=? [ F \"delivered\" ]").unwrap();
        let qmin = parse_query("R{\"attempts\"}min=? [ F \"delivered\" ]").unwrap();
        let avg = Checker::new().query(&d, &qd).unwrap().0[c.source()];
        let worst = Checker::new().query(&m, &qmax).unwrap().0[c.source()];
        let best = Checker::new().query(&m, &qmin).unwrap().0[c.source()];
        assert!(best <= avg + 1e-9 && avg <= worst + 1e-9, "{best} <= {avg} <= {worst}");
    }

    #[test]
    fn template_preserves_stochasticity() {
        let c = WsnConfig::default();
        let d = build_dtmc(&c).unwrap();
        let t = repair_template(&c).unwrap();
        let p = t.apply(&d).unwrap();
        let inst = p.instantiate(&[0.05, 0.04]).unwrap();
        // Probabilities moved in the right direction.
        assert!(inst.probability(8, 5) > d.probability(8, 5));
        assert!(inst.probability(8, 8) < d.probability(8, 8));
    }

    #[test]
    fn entry_tape_values_are_bitwise_template_entry_values() {
        let c = WsnConfig::default();
        let d = build_dtmc(&c).unwrap();
        let t = repair_template(&c).unwrap();
        let p = t.apply(&d).unwrap();
        let bounds = t.bounds();
        let (lo, hi) = (bounds[0], bounds[1]);
        let mut points = vec![[lo.0, lo.1], [lo.0, hi.1], [hi.0, lo.1], [hi.0, hi.1]];
        for (a, b) in [(0.5, 0.5), (0.13, 0.71), (0.9, 0.02)] {
            points.push([lo.0 + a * (hi.0 - lo.0), lo.1 + b * (hi.1 - lo.1)]);
        }
        for point in points {
            let values: Vec<f64> =
                p.entries_at(&point, |values| values.map(Result::unwrap).collect()).unwrap();
            let entries: Vec<_> = (0..p.num_states()).flat_map(|s| p.successors(s)).collect();
            assert!(entries.len() <= values.len());
            for ((t, rf), got) in entries.into_iter().zip(values) {
                assert_eq!(got.to_bits(), rf.eval(&point).unwrap().to_bits(), "→ {t} at {point:?}");
            }
        }
    }

    #[test]
    fn traces_cover_all_classes() {
        let c = WsnConfig::default();
        let ds = generate_traces(&c, 50, 5.0, 7).unwrap();
        assert_eq!(ds.num_classes(), 4);
        assert!(ds.num_traces() > 100);
        // ML from the traces approximates the ground truth somewhat.
        let learned = model_spec(&c).learn(&ds, None).unwrap();
        let truth = build_dtmc(&c).unwrap();
        let diff = (learned.probability(8, 5) - truth.probability(8, 5)).abs();
        assert!(diff < 0.35, "diff {diff}");
    }

    #[test]
    fn config_validation() {
        assert!(build_dtmc(&WsnConfig { n: 1, ..Default::default() }).is_err());
        assert!(build_dtmc(&WsnConfig { ignore_edge: 1.2, ..Default::default() }).is_err());
        assert!(build_mdp(&WsnConfig { ignore_interior: -0.1, ..Default::default() }).is_err());
    }

    #[test]
    fn property_helper_parses_consistently() {
        let p = attempts_property(40.0);
        let parsed = tml_logic::parse_formula("R{\"attempts\"}<=40 [ F \"delivered\" ]").unwrap();
        assert_eq!(p, parsed);
    }

    #[test]
    fn deadline_property_repair_via_oracle() {
        // Step-bounded properties are outside the symbolic fragment; the
        // oracle back-end still repairs them.
        use tml_core::{ModelRepair, RepairStatus};
        let c = WsnConfig { n: 2, ..Default::default() };
        let d = build_dtmc(&c).unwrap();
        let checker = Checker::new();
        // Pick a deadline where the base model is close but short of 0.5.
        let base =
            checker.check(&d, &deadline_property(20, 0.5)).unwrap().value_at_initial().unwrap();
        assert!(base < 0.5, "base deadline probability {base}");
        let out = ModelRepair::new()
            .repair_dtmc(&d, &deadline_property(20, 0.5), &repair_template(&c).unwrap())
            .unwrap();
        assert_eq!(out.status, RepairStatus::Repaired, "base was {base}");
        assert!(out.verified);
    }

    #[test]
    fn bigger_grids_build() {
        for n in [4, 5] {
            let c = WsnConfig { n, ..Default::default() };
            let d = build_dtmc(&c).unwrap();
            assert_eq!(d.num_states(), n * n + 1);
            let m = build_mdp(&c).unwrap();
            assert_eq!(m.num_states(), n * n + 1);
        }
    }
}
