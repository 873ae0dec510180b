//! Parametric DTMCs and symbolic state elimination.

use std::collections::{BTreeMap, BTreeSet};

use tml_models::{Dtmc, DtmcBuilder, Labeling};

use crate::{ParametricError, RationalFunction};

/// A discrete-time Markov chain whose transition probabilities are
/// [`RationalFunction`]s of a parameter vector.
///
/// The *support* (which transitions are non-zero) must not depend on the
/// parameters — the standard "well-defined region" assumption of parametric
/// model checking, which makes the qualitative `Prob0`/`Prob1` sets
/// parameter-independent. Construct via [`ParametricDtmc::builder`]; the
/// builder checks that every row sums to one identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ParametricDtmc {
    params: Vec<String>,
    transitions: Vec<Vec<(usize, RationalFunction)>>,
    initial: usize,
    labeling: Labeling,
    state_rewards: BTreeMap<String, Vec<RationalFunction>>,
}

impl ParametricDtmc {
    /// Starts building a parametric chain with `num_states` states over the
    /// named parameters.
    pub fn builder(num_states: usize, params: Vec<String>) -> ParametricDtmcBuilder {
        ParametricDtmcBuilder {
            num_states,
            nvars: params.len(),
            params,
            transitions: vec![BTreeMap::new(); num_states],
            initial: 0,
            labeling: Labeling::new(num_states),
            state_rewards: BTreeMap::new(),
        }
    }

    /// Lifts a concrete DTMC into a parametric one (with the given parameter
    /// names and all transitions constant), ready for perturbation.
    pub fn from_dtmc(dtmc: &Dtmc, params: Vec<String>) -> ParametricDtmcBuilder {
        let nvars = params.len();
        let mut b = Self::builder(dtmc.num_states(), params);
        for s in 0..dtmc.num_states() {
            for (t, p) in dtmc.successors(s) {
                b.transitions[s].insert(t, RationalFunction::constant(nvars, p));
            }
            for label in dtmc.labeling().labels_of(s) {
                b.labeling.add(s, label).expect("same state count");
            }
        }
        for rs in dtmc.reward_structures() {
            let row: Vec<RationalFunction> = (0..dtmc.num_states())
                .map(|s| RationalFunction::constant(nvars, rs.state_reward(s)))
                .collect();
            b.state_rewards.insert(rs.name().to_owned(), row);
        }
        b.initial = dtmc.initial_state();
        b
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The parameter names, in variable order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The initial state.
    pub fn initial_state(&self) -> usize {
        self.initial
    }

    /// The state labeling.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The symbolic transitions of `state` as `(successor, probability)`
    /// pairs, in increasing successor order.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = (usize, &RationalFunction)> {
        self.transitions[state].iter().map(|(t, rf)| (*t, rf))
    }

    /// The symbolic transition probability `from → to` (zero if absent).
    pub fn probability(&self, from: usize, to: usize) -> RationalFunction {
        self.transitions
            .get(from)
            .and_then(|row| row.iter().find(|(t, _)| *t == to))
            .map(|(_, rf)| rf.clone())
            .unwrap_or_else(|| RationalFunction::zero_rf(self.params.len()))
    }

    /// Instantiates the chain at a concrete parameter point.
    ///
    /// # Errors
    ///
    /// * Evaluation errors ([`ParametricError::PoleAtPoint`] etc.).
    /// * [`ParametricError::Model`] if the instantiated probabilities are
    ///   not a valid distribution (the point is outside the well-defined
    ///   region).
    pub fn instantiate(&self, point: &[f64]) -> Result<Dtmc, ParametricError> {
        let mut b = DtmcBuilder::new(self.num_states());
        b.initial_state(self.initial)?;
        for (s, row) in self.transitions.iter().enumerate() {
            for (t, rf) in row {
                let p = rf.eval(point)?;
                b.transition(s, *t, p)?;
            }
        }
        for s in 0..self.num_states() {
            for label in self.labeling.labels_of(s) {
                b.label(s, label)?;
            }
        }
        for (name, rewards) in &self.state_rewards {
            for (s, rf) in rewards.iter().enumerate() {
                b.state_reward(name, s, rf.eval(point)?)?;
            }
        }
        Ok(b.build()?)
    }

    /// The symbolic probability `P(F target)` for **every** state, as
    /// rational functions of the parameters.
    ///
    /// States in `Prob0` map to the constant `0`, states in `Prob1` to `1`,
    /// and the rest are solved by Gaussian elimination over the rational
    /// function field.
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::SingularSystem`] if elimination fails
    /// (which cannot happen for a well-formed sub-stochastic system).
    pub fn reachability(&self, target: &[bool]) -> Result<Vec<RationalFunction>, ParametricError> {
        self.until(&vec![true; self.num_states()], target)
    }

    /// The symbolic probability `P(φ U target)` for every state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParametricDtmc::reachability`].
    pub fn until(
        &self,
        phi: &[bool],
        target: &[bool],
    ) -> Result<Vec<RationalFunction>, ParametricError> {
        let n = self.num_states();
        assert_eq!(target.len(), n, "target mask length");
        assert_eq!(phi.len(), n, "phi mask length");
        let _span = tml_telemetry::span!("parametric.eliminate", states = n);
        let nv = self.params.len();
        let (zero, one) = self.qualitative(phi, target);
        let maybe: Vec<usize> = (0..n).filter(|&s| !zero[s] && !one[s]).collect();

        let mut result: Vec<RationalFunction> =
            (0..n)
                .map(|s| {
                    if one[s] {
                        RationalFunction::one_rf(nv)
                    } else {
                        RationalFunction::zero_rf(nv)
                    }
                })
                .collect();
        if maybe.is_empty() {
            return Ok(result);
        }

        let index = index_of(&maybe, n);
        let m = maybe.len();
        let mut rows: Vec<BTreeMap<usize, RationalFunction>> = vec![BTreeMap::new(); m];
        let mut consts = vec![RationalFunction::zero_rf(nv); m];
        for (i, &s) in maybe.iter().enumerate() {
            for (t, rf) in &self.transitions[s] {
                if one[*t] {
                    consts[i] = consts[i].add(rf);
                } else if let Some(j) = index[*t] {
                    rows[i].insert(j, rf.clone());
                }
            }
        }
        let sol = eliminate_min_degree(rows, consts, nv)?;
        for (i, &s) in maybe.iter().enumerate() {
            result[s] = sol[i].clone();
        }
        Ok(result)
    }

    /// The symbolic expected reward accumulated until reaching `target`
    /// (`R[F target]`) for every state, using the named reward structure.
    ///
    /// # Errors
    ///
    /// * [`ParametricError::Model`] for an unknown reward structure.
    /// * [`ParametricError::InfiniteReward`] if the *initial* state does not
    ///   reach the target almost surely (structurally), making its expected
    ///   reward infinite. States other than the initial one may silently
    ///   carry the placeholder value `0` in that case; callers interested in
    ///   all states should consult [`ParametricDtmc::reachability`] first.
    pub fn expected_reward(
        &self,
        structure: &str,
        target: &[bool],
    ) -> Result<Vec<RationalFunction>, ParametricError> {
        let n = self.num_states();
        assert_eq!(target.len(), n, "target mask length");
        let nv = self.params.len();
        let rewards = self.state_rewards.get(structure).ok_or_else(|| {
            ParametricError::Model(tml_models::ModelError::NotFound {
                kind: "reward structure",
                name: structure.to_owned(),
            })
        })?;
        let (_, one) = self.qualitative(&vec![true; n], target);
        if !one[self.initial] {
            return Err(ParametricError::InfiniteReward { state: self.initial });
        }
        let maybe: Vec<usize> = (0..n).filter(|&s| one[s] && !target[s]).collect();
        let mut result = vec![RationalFunction::zero_rf(nv); n];
        if maybe.is_empty() {
            return Ok(result);
        }
        let index = index_of(&maybe, n);
        let m = maybe.len();
        let mut rows: Vec<BTreeMap<usize, RationalFunction>> = vec![BTreeMap::new(); m];
        let mut consts = vec![RationalFunction::zero_rf(nv); m];
        for (i, &s) in maybe.iter().enumerate() {
            consts[i] = rewards[s].clone();
            for (t, rf) in &self.transitions[s] {
                if let Some(j) = index[*t] {
                    rows[i].insert(j, rf.clone());
                }
            }
        }
        let sol = eliminate_min_degree(rows, consts, nv)?;
        for (i, &s) in maybe.iter().enumerate() {
            result[s] = sol[i].clone();
        }
        Ok(result)
    }

    /// Qualitative `Prob0` / `Prob1` masks for `φ U target`, computed on
    /// the (parameter-independent) support graph.
    fn qualitative(&self, phi: &[bool], target: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let n = self.num_states();
        // Backward reachability of target through φ on the support graph.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (s, row) in self.transitions.iter().enumerate() {
            for (t, rf) in row {
                if !rf.is_zero_rf() {
                    preds[*t].push(s);
                }
            }
        }
        let mut can_reach = target.to_vec();
        let mut stack: Vec<usize> = (0..n).filter(|&s| target[s]).collect();
        while let Some(s) = stack.pop() {
            for &p in &preds[s] {
                if !can_reach[p] && phi[p] {
                    can_reach[p] = true;
                    stack.push(p);
                }
            }
        }
        let zero: Vec<bool> = can_reach.iter().map(|&r| !r).collect();
        // Prob1: cannot reach a Prob0 state through (φ ∧ ¬target) states.
        let mut bad_reach = zero.clone();
        let mut stack: Vec<usize> = (0..n).filter(|&s| zero[s]).collect();
        while let Some(s) = stack.pop() {
            for &p in &preds[s] {
                if !bad_reach[p] && phi[p] && !target[p] {
                    bad_reach[p] = true;
                    stack.push(p);
                }
            }
        }
        let one: Vec<bool> = bad_reach.iter().map(|&b| !b).collect();
        (zero, one)
    }
}

/// Incremental builder for [`ParametricDtmc`].
#[derive(Debug, Clone)]
pub struct ParametricDtmcBuilder {
    num_states: usize,
    nvars: usize,
    params: Vec<String>,
    transitions: Vec<BTreeMap<usize, RationalFunction>>,
    initial: usize,
    labeling: Labeling,
    state_rewards: BTreeMap<String, Vec<RationalFunction>>,
}

impl ParametricDtmcBuilder {
    /// Sets (replacing, not accumulating) the symbolic transition `from → to`.
    ///
    /// # Errors
    ///
    /// * [`ParametricError::Model`] for out-of-range states.
    /// * [`ParametricError::ArityMismatch`] if the rational function is over
    ///   the wrong number of parameters.
    pub fn transition(
        &mut self,
        from: usize,
        to: usize,
        p: RationalFunction,
    ) -> Result<&mut Self, ParametricError> {
        self.check_state(from)?;
        self.check_state(to)?;
        if p.num_vars() != self.nvars {
            return Err(ParametricError::ArityMismatch { left: self.nvars, right: p.num_vars() });
        }
        if p.is_zero_rf() {
            self.transitions[from].remove(&to);
        } else {
            self.transitions[from].insert(to, p);
        }
        Ok(self)
    }

    /// Sets the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::Model`] if out of range.
    pub fn initial_state(&mut self, state: usize) -> Result<&mut Self, ParametricError> {
        self.check_state(state)?;
        self.initial = state;
        Ok(self)
    }

    /// Attaches a label to a state.
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::Model`] if out of range.
    pub fn label(&mut self, state: usize, label: &str) -> Result<&mut Self, ParametricError> {
        self.labeling.add(state, label)?;
        Ok(self)
    }

    /// Sets the (symbolic) per-step reward of a state in the named
    /// structure.
    ///
    /// # Errors
    ///
    /// * [`ParametricError::Model`] for out-of-range states.
    /// * [`ParametricError::ArityMismatch`] for wrong-arity functions.
    pub fn state_reward(
        &mut self,
        structure: &str,
        state: usize,
        value: RationalFunction,
    ) -> Result<&mut Self, ParametricError> {
        self.check_state(state)?;
        if value.num_vars() != self.nvars {
            return Err(ParametricError::ArityMismatch {
                left: self.nvars,
                right: value.num_vars(),
            });
        }
        let row = self
            .state_rewards
            .entry(structure.to_owned())
            .or_insert_with(|| vec![RationalFunction::zero_rf(self.nvars); self.num_states]);
        row[state] = value;
        Ok(self)
    }

    /// Validates (rows sum to one identically) and freezes the chain.
    ///
    /// # Errors
    ///
    /// * [`ParametricError::Model`] wrapping `MissingDistribution` for
    ///   states with no outgoing transition.
    /// * [`ParametricError::NotIdenticallyStochastic`] if a row's symbolic
    ///   sum differs from the constant `1`.
    pub fn build(&self) -> Result<ParametricDtmc, ParametricError> {
        for (s, row) in self.transitions.iter().enumerate() {
            if row.is_empty() {
                return Err(ParametricError::Model(tml_models::ModelError::MissingDistribution {
                    state: s,
                }));
            }
            let mut sum = RationalFunction::zero_rf(self.nvars);
            for rf in row.values() {
                sum = sum.add(rf);
            }
            let diff = sum.sub(&RationalFunction::one_rf(self.nvars));
            if !diff.is_zero_rf() {
                return Err(ParametricError::NotIdenticallyStochastic { state: s });
            }
        }
        Ok(ParametricDtmc {
            params: self.params.clone(),
            transitions: self
                .transitions
                .iter()
                .map(|row| row.iter().map(|(&t, rf)| (t, rf.clone())).collect())
                .collect(),
            initial: self.initial,
            labeling: self.labeling.clone(),
            state_rewards: self.state_rewards.clone(),
        })
    }

    fn check_state(&self, state: usize) -> Result<(), ParametricError> {
        if state >= self.num_states {
            return Err(ParametricError::Model(tml_models::ModelError::StateOutOfBounds {
                state,
                num_states: self.num_states,
            }));
        }
        Ok(())
    }
}

/// Solves the fixed-point system `x = A·x + b` over the rational-function
/// field by state elimination with a min-degree pivot order.
///
/// `rows[i]` holds the non-zero coefficients `a_{ij}` of equation `i`
/// (self-loops allowed), `consts[i]` the affine term. Each elimination step
/// picks the active equation minimizing the Markowitz fill score
/// `in-degree × out-degree`, normalizes away its self-loop by dividing
/// through `1 − a_{ss}`, and substitutes it into every remaining equation
/// that references it. On sparse chains this touches only the pivot's
/// neighborhood instead of the dense `O(m³)` symbolic elimination it
/// replaces — and, crucially for rational functions, keeps intermediate
/// numerator/denominator degrees proportional to the fill actually
/// incurred rather than to the whole matrix.
///
/// Back-substitution runs in reverse elimination order: a pivot's
/// residual row only references states eliminated after it.
fn eliminate_min_degree(
    mut rows: Vec<BTreeMap<usize, RationalFunction>>,
    mut consts: Vec<RationalFunction>,
    nvars: usize,
) -> Result<Vec<RationalFunction>, ParametricError> {
    let m = rows.len();
    let mut preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
    for (i, row) in rows.iter().enumerate() {
        for &j in row.keys() {
            if j != i {
                preds[j].insert(i);
            }
        }
    }
    let mut active = vec![true; m];
    let mut order = Vec::with_capacity(m);
    for _ in 0..m {
        // Min-degree pivot: the invariants below keep `rows` and `preds`
        // restricted to active states, so the degrees need no filtering.
        let mut pivot = usize::MAX;
        let mut best = u64::MAX;
        for i in 0..m {
            if !active[i] {
                continue;
            }
            let out = rows[i].keys().filter(|&&j| j != i).count() as u64;
            let score = preds[i].len() as u64 * out;
            if score < best {
                best = score;
                pivot = i;
            }
        }
        let s = pivot;
        // Normalize: fold the self-loop into the row, x_s = (A_s·x + b_s)/(1−a_ss).
        if let Some(self_p) = rows[s].remove(&s) {
            let denom = RationalFunction::one_rf(nvars).sub(&self_p);
            if denom.is_zero_rf() {
                return Err(ParametricError::SingularSystem);
            }
            let row = std::mem::take(&mut rows[s]);
            let mut scaled = BTreeMap::new();
            for (j, rf) in row {
                scaled.insert(j, rf.div(&denom)?);
            }
            rows[s] = scaled;
            consts[s] = consts[s].div(&denom)?;
        }
        // s stops being a predecessor of its successors...
        let succs: Vec<usize> = rows[s].keys().copied().collect();
        for &j in &succs {
            preds[j].remove(&s);
        }
        // ...and is substituted into every equation that references it.
        let incoming = std::mem::take(&mut preds[s]);
        let pivot_row: Vec<(usize, RationalFunction)> =
            rows[s].iter().map(|(&j, rf)| (j, rf.clone())).collect();
        let pivot_const = consts[s].clone();
        for &p in &incoming {
            let w = rows[p].remove(&s).expect("preds invariant: a_ps present");
            for (j, coef) in &pivot_row {
                let j = *j;
                let add = w.mul(coef);
                let entry = rows[p].entry(j).or_insert_with(|| RationalFunction::zero_rf(nvars));
                *entry = entry.add(&add);
                if j != p {
                    preds[j].insert(p);
                }
            }
            let wc = w.mul(&pivot_const);
            consts[p] = consts[p].add(&wc);
        }
        active[s] = false;
        order.push(s);
    }
    // Reverse elimination order: every reference is already resolved.
    let mut x = vec![RationalFunction::zero_rf(nvars); m];
    for &s in order.iter().rev() {
        let mut acc = consts[s].clone();
        for (&j, coef) in &rows[s] {
            acc = acc.add(&coef.mul(&x[j]));
        }
        x[s] = acc;
    }
    Ok(x)
}

fn index_of(maybe: &[usize], n: usize) -> Vec<Option<usize>> {
    let mut idx = vec![None; n];
    for (i, &s) in maybe.iter().enumerate() {
        idx[s] = Some(i);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: f64) -> RationalFunction {
        RationalFunction::constant(1, x)
    }

    fn v() -> RationalFunction {
        RationalFunction::var(1, 0)
    }

    /// try/succeed/fail chain: from 0, succeed (state 1) w.p. 0.5+v, fail
    /// (state 2, absorbing) w.p. 0.3-v, retry w.p. 0.2.
    fn chain() -> ParametricDtmc {
        let mut b = ParametricDtmc::builder(3, vec!["v".into()]);
        b.transition(0, 0, c(0.2)).unwrap();
        b.transition(0, 1, c(0.5).add(&v())).unwrap();
        b.transition(0, 2, c(0.3).sub(&v())).unwrap();
        b.transition(1, 1, c(1.0)).unwrap();
        b.transition(2, 2, c(1.0)).unwrap();
        b.label(1, "ok").unwrap();
        b.state_reward("tries", 0, c(1.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reachability_closed_form() {
        let p = chain();
        let target = p.labeling().mask("ok");
        let reach = p.reachability(&target).unwrap();
        // P(F ok) from 0 = (0.5+v) / 0.8
        for val in [-0.1, 0.0, 0.1, 0.25] {
            let expect = (0.5 + val) / 0.8;
            let got = reach[0].eval(&[val]).unwrap();
            assert!((got - expect).abs() < 1e-10, "v={val}: {got} vs {expect}");
        }
        assert_eq!(reach[1].as_constant(), Some(1.0));
        assert_eq!(reach[2].as_constant(), Some(0.0));
    }

    #[test]
    fn reachability_matches_concrete_checker() {
        let p = chain();
        let target = p.labeling().mask("ok");
        let reach = p.reachability(&target).unwrap();
        for val in [-0.2, 0.0, 0.15] {
            let concrete = p.instantiate(&[val]).unwrap();
            let opts = tml_checker::CheckOptions::default();
            let phi = vec![true; 3];
            let exact =
                tml_checker::dtmc::until_probabilities(&concrete, &phi, &target, &opts).unwrap();
            for s in 0..3 {
                let sym = reach[s].eval(&[val]).unwrap();
                assert!((sym - exact[s]).abs() < 1e-9, "state {s} v={val}: {sym} vs {}", exact[s]);
            }
        }
    }

    #[test]
    fn expected_reward_closed_form() {
        // Make reaching "done" almost sure: from 0, succeed w.p. 0.5+v,
        // retry otherwise. E[tries] = 1 / (0.5+v).
        let mut b = ParametricDtmc::builder(2, vec!["v".into()]);
        b.transition(0, 1, c(0.5).add(&v())).unwrap();
        b.transition(0, 0, c(0.5).sub(&v())).unwrap();
        b.transition(1, 1, c(1.0)).unwrap();
        b.label(1, "done").unwrap();
        b.state_reward("tries", 0, c(1.0)).unwrap();
        let p = b.build().unwrap();
        let target = p.labeling().mask("done");
        let er = p.expected_reward("tries", &target).unwrap();
        for val in [0.0, 0.2, 0.4] {
            let got = er[0].eval(&[val]).unwrap();
            let expect = 1.0 / (0.5 + val);
            assert!((got - expect).abs() < 1e-10, "v={val}: {got} vs {expect}");
        }
        assert_eq!(er[1].as_constant(), Some(0.0));
    }

    #[test]
    fn expected_reward_infinite_detected() {
        let p = chain(); // fail-state reachable → P(F ok) < 1 from 0
        let target = p.labeling().mask("ok");
        assert!(matches!(
            p.expected_reward("tries", &target),
            Err(ParametricError::InfiniteReward { state: 0 })
        ));
    }

    #[test]
    fn builder_validation() {
        let mut b = ParametricDtmc::builder(1, vec!["v".into()]);
        b.transition(0, 0, c(0.9)).unwrap();
        assert!(matches!(b.build(), Err(ParametricError::NotIdenticallyStochastic { state: 0 })));

        let mut b2 = ParametricDtmc::builder(2, vec!["v".into()]);
        b2.transition(0, 0, c(1.0)).unwrap();
        assert!(matches!(b2.build(), Err(ParametricError::Model(_)))); // state 1 deadlocked

        let mut b3 = ParametricDtmc::builder(1, vec!["v".into()]);
        assert!(b3.transition(0, 0, RationalFunction::constant(2, 1.0)).is_err());
        assert!(b3.transition(5, 0, c(1.0)).is_err());
    }

    #[test]
    fn instantiate_checks_region() {
        let p = chain();
        // v = 0.6 makes 0.3 - v negative → invalid probability.
        assert!(p.instantiate(&[0.6]).is_err());
        let ok = p.instantiate(&[0.1]).unwrap();
        assert!((ok.probability(0, 1) - 0.6).abs() < 1e-12);
        assert_eq!(ok.reward_structure("tries").unwrap().state_reward(0), 1.0);
    }

    #[test]
    fn from_dtmc_roundtrip() {
        let mut db = tml_models::DtmcBuilder::new(2);
        db.transition(0, 1, 0.7).unwrap();
        db.transition(0, 0, 0.3).unwrap();
        db.transition(1, 1, 1.0).unwrap();
        db.label(1, "goal").unwrap();
        db.state_reward("r", 0, 2.0).unwrap();
        let d = db.build().unwrap();
        let p = ParametricDtmc::from_dtmc(&d, vec!["v".into()]).build().unwrap();
        let back = p.instantiate(&[0.0]).unwrap();
        assert_eq!(back.probability(0, 1), 0.7);
        assert!(back.labeling().has(1, "goal"));
        assert_eq!(back.reward_structure("r").unwrap().state_reward(0), 2.0);
    }

    #[test]
    fn elimination_handles_long_sparse_chain() {
        // A 12-state birth–death chain: forward w.p. 0.6+v, back w.p.
        // 0.4-v. Min-degree elimination keeps every pivot's fill at the
        // chain bandwidth; the result must still match the concrete
        // checker at several instantiation points.
        let n = 12;
        let mut b = ParametricDtmc::builder(n, vec!["v".into()]);
        for s in 0..n - 1 {
            b.transition(s, s + 1, c(0.6).add(&v())).unwrap();
            let back = if s == 0 { 0 } else { s - 1 };
            b.transition(s, back, c(0.4).sub(&v())).unwrap();
        }
        b.transition(n - 1, n - 1, c(1.0)).unwrap();
        b.label(n - 1, "goal").unwrap();
        let p = b.build().unwrap();
        let target = p.labeling().mask("goal");
        let reach = p.reachability(&target).unwrap();
        // Every non-target state reaches the goal almost surely here.
        for val in [-0.05, 0.0, 0.1] {
            for (s, rf) in reach.iter().enumerate() {
                let got = rf.eval(&[val]).unwrap();
                assert!((got - 1.0).abs() < 1e-9, "state {s} v={val}: {got}");
            }
        }
    }

    #[test]
    fn elimination_matches_dense_on_branching_model() {
        // Diamond with a parametric split and a retry loop — enough fill
        // structure that a bad pivot order would differ from the direct
        // answer if the substitution algebra were wrong.
        let mut b = ParametricDtmc::builder(6, vec!["v".into()]);
        b.transition(0, 1, c(0.4).add(&v())).unwrap();
        b.transition(0, 2, c(0.6).sub(&v())).unwrap();
        b.transition(1, 3, c(0.5)).unwrap();
        b.transition(1, 0, c(0.5)).unwrap();
        b.transition(2, 3, c(0.3)).unwrap();
        b.transition(2, 4, c(0.7)).unwrap();
        b.transition(3, 5, c(0.9)).unwrap();
        b.transition(3, 2, c(0.1)).unwrap();
        b.transition(4, 4, c(1.0)).unwrap();
        b.transition(5, 5, c(1.0)).unwrap();
        b.label(5, "goal").unwrap();
        let p = b.build().unwrap();
        let target = p.labeling().mask("goal");
        let sym = p.reachability(&target).unwrap();
        for val in [-0.1, 0.0, 0.12] {
            let concrete = p.instantiate(&[val]).unwrap();
            let opts = tml_checker::CheckOptions::default();
            let exact =
                tml_checker::dtmc::until_probabilities(&concrete, &[true; 6], &target, &opts)
                    .unwrap();
            for s in 0..6 {
                let got = sym[s].eval(&[val]).unwrap();
                assert!((got - exact[s]).abs() < 1e-9, "state {s} v={val}: {got} vs {}", exact[s]);
            }
        }
    }

    #[test]
    fn probability_accessor() {
        let p = chain();
        assert!(p.probability(0, 1).eval(&[0.1]).unwrap() - 0.6 < 1e-12);
        assert!(p.probability(1, 0).is_zero_rf());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Parametric reachability agrees with the concrete checker at many
        /// random chains and instantiation points (the core cross-validation
        /// of the symbolic engine).
        #[test]
        fn symbolic_matches_concrete(
            seed in proptest::collection::vec(0.05_f64..0.95, 8),
            vval in -0.04_f64..0.04,
        ) {
            // 4-state chain, state 3 absorbing target, state 0 perturbed by v.
            let nv = 1;
            let c = |x: f64| RationalFunction::constant(nv, x);
            let v = RationalFunction::var(nv, 0);
            let mut b = ParametricDtmc::builder(4, vec!["v".into()]);
            // state 0: three-way split with v shifting mass from self-loop
            // to the target direction
            let p01 = 0.3 * seed[0] + 0.1;
            let p02 = 0.3 * seed[1] + 0.1;
            let p00 = 1.0 - p01 - p02;
            b.transition(0, 0, c(p00).sub(&v)).unwrap();
            b.transition(0, 1, c(p01).add(&v)).unwrap();
            b.transition(0, 2, c(p02)).unwrap();
            // state 1: to 3 or back to 0
            let p13 = 0.8 * seed[2] + 0.1;
            b.transition(1, 3, c(p13)).unwrap();
            b.transition(1, 0, c(1.0 - p13)).unwrap();
            // state 2: absorbing failure
            b.transition(2, 2, c(1.0)).unwrap();
            b.transition(3, 3, c(1.0)).unwrap();
            b.label(3, "goal").unwrap();
            let p = b.build().unwrap();
            let target = p.labeling().mask("goal");
            let sym = p.reachability(&target).unwrap();
            let concrete = p.instantiate(&[vval]).unwrap();
            let exact = tml_checker::dtmc::until_probabilities(
                &concrete, &[true; 4], &target, &tml_checker::CheckOptions::default()).unwrap();
            for s in 0..4 {
                let got = sym[s].eval(&[vval]).unwrap();
                prop_assert!((got - exact[s]).abs() < 1e-8,
                    "state {}: symbolic {} vs concrete {}", s, got, exact[s]);
            }
        }
    }
}
