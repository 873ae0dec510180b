//! The property oracle of nominal DTMC and data repair, compiled once per
//! repair (see [`CompiledOracle`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use tml_checker::reach::{CompiledReach, ReachScratch};
use tml_checker::CheckOptions;
use tml_logic::StateFormula;
use tml_models::{Dtmc, TraceCountTape, TraceDataset, STOCHASTIC_TOLERANCE};
use tml_numerics::Budget;
use tml_parametric::ParametricDtmc;

use crate::driver::checked_value;
use crate::ModelSpec;

/// A repair property compiled against the candidate chains' fixed support.
///
/// Every optimizer merit asks for the repair property's value at a
/// candidate point. Building the candidate chain and running the full
/// checker answers it, but the support is the same at every candidate: a
/// model repair template keeps it fixed, and data repair re-learns from the
/// same traces. So prob0/prob1, the maybe
/// states, the sparsity pattern and the operand masks of a step-bounded
/// until are the same too. The oracle builds that structure once
/// ([`CompiledReach`]) and, per candidate, only fills in the transition
/// probabilities and solves. Its entries come from one of two sources:
///
/// * a model repair's template: each entry is the value from the chain's
///   entry tape ([`ParametricDtmc::entries_at`]), the number instantiation
///   builds its chain from;
/// * a data repair's [`TraceCountTape`]: each entry is the count ratio
///   re-learning computes.
///
/// Either way its values are bitwise those of build-and-check.
///
/// A candidate at which the support would change (an entry `≤ 0`, a trace
/// count of 0) or at which the chain could not be built (a pole, a
/// non-finite or negative weight or entry, one above `1`, a row off
/// stochastic) is *deferred*: it is built and checked, so it keeps exactly
/// that value (`NaN` when the chain cannot be built).
#[derive(Debug)]
pub struct CompiledOracle {
    source: Source,
    formula: StateFormula,
    check: CheckOptions,
    budget: Budget,
    reach: CompiledReach,
    /// Per state, the position of its first transition in the transitions
    /// listed state by state; one more entry closes the last state.
    row_starts: Vec<usize>,
    compiled: AtomicU64,
    deferred: AtomicU64,
}

/// Where a [`CompiledOracle`] takes a candidate's transitions from, and how
/// it builds a deferred candidate.
#[derive(Debug)]
enum Source {
    /// Model repair: the template applied to the base chain; a deferred
    /// candidate is instantiated.
    Template(ParametricDtmc),
    /// Data repair: the trace counts; a deferred candidate is re-learned.
    Counts { tape: TraceCountTape, dataset: TraceDataset, spec: ModelSpec },
}

/// The per-thread buffers of [`CompiledOracle::value`].
#[derive(Default)]
struct Scratch {
    /// `(successor, probability)` of every transition, state by state.
    transitions: Vec<(usize, f64)>,
    /// Per-transition counts of a trace-count refill.
    counts: Vec<f64>,
    reach: ReachScratch,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl CompiledOracle {
    /// Compiles `formula` against `pdtmc`, the template applied to `base`.
    /// `None` when the property is outside [`CompiledReach::compile`]'s
    /// fragment or when `pdtmc` does not have `base`'s support, row for
    /// row.
    pub fn compile(
        base: &Dtmc,
        pdtmc: &ParametricDtmc,
        formula: &StateFormula,
        check: CheckOptions,
        budget: Budget,
    ) -> Option<Self> {
        let same_support = base.num_states() == pdtmc.num_states()
            && (0..base.num_states()).all(|s| {
                base.successors(s).map(|(t, _)| t).eq(pdtmc.successors(s).map(|(t, _)| t))
            });
        if !same_support {
            return None;
        }
        Self::new(base, Source::Template(pdtmc.clone()), formula, check, budget)
    }

    /// Compiles `formula` against the chain `spec` learns from `dataset`,
    /// with the class keep-weights as the point. `None` when the property
    /// is outside [`CompiledReach::compile`]'s fragment or the chain cannot
    /// be learned.
    pub fn compile_data(
        dataset: &TraceDataset,
        spec: &ModelSpec,
        formula: &StateFormula,
        check: CheckOptions,
        budget: Budget,
    ) -> Option<Self> {
        let base = spec.learn(dataset, None).ok()?;
        let tape = TraceCountTape::compile(&base, dataset)?;
        let source = Source::Counts { tape, dataset: dataset.clone(), spec: spec.clone() };
        Self::new(&base, source, formula, check, budget)
    }

    fn new(
        base: &Dtmc,
        source: Source,
        formula: &StateFormula,
        check: CheckOptions,
        budget: Budget,
    ) -> Option<Self> {
        // An unknown reward structure fails every check the same way, so
        // build-and-check keeps reporting it (as `NaN`).
        let reach = CompiledReach::compile(base, formula).ok()??;
        let mut row_starts = vec![0];
        for s in 0..base.num_states() {
            row_starts.push(row_starts[s] + base.successors(s).count());
        }
        Some(CompiledOracle {
            source,
            formula: formula.clone(),
            check,
            budget,
            reach,
            row_starts,
            compiled: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        })
    }

    /// The property's value at the initial state of the candidate chain at
    /// `point`: bitwise `check_dtmc(candidate).value_at_initial()`, `NaN`
    /// where the candidate cannot be built or checked.
    pub fn value(&self, point: &[f64]) -> f64 {
        SCRATCH.with(|cell| self.value_with(point, &mut cell.borrow_mut()))
    }

    /// How many [`value`](Self::value) calls were answered by the compiled
    /// property and how many were deferred to build-and-check.
    pub fn counts(&self) -> (u64, u64) {
        (self.compiled.load(Ordering::Relaxed), self.deferred.load(Ordering::Relaxed))
    }

    fn value_with(&self, point: &[f64], scratch: &mut Scratch) -> f64 {
        let refilled = match &self.source {
            Source::Template(pdtmc) => refill(pdtmc, point, &mut scratch.transitions),
            Source::Counts { tape, .. } => {
                tape.refill(point, &mut scratch.counts, &mut scratch.transitions)
            }
        };
        if !refilled {
            self.deferred.fetch_add(1, Ordering::Relaxed);
            let model = match &self.source {
                Source::Template(pdtmc) => pdtmc.instantiate(point).ok(),
                Source::Counts { dataset, spec, .. } => spec.learn(dataset, Some(point)).ok(),
            };
            return checked_value(model, &self.formula, &self.check, &self.budget);
        }
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let transitions = &scratch.transitions;
        let successors =
            |s: usize| transitions[self.row_starts[s]..self.row_starts[s + 1]].iter().copied();
        self.reach
            .value_at_initial(successors, &mut scratch.reach, &self.check, &self.budget)
            .unwrap_or(f64::NAN)
    }
}

/// Evaluates every transition of `pdtmc` at `point` into `out`, from the
/// entry values `instantiate` uses; `false` when the candidate must be
/// deferred.
fn refill(pdtmc: &ParametricDtmc, point: &[f64], out: &mut Vec<(usize, f64)>) -> bool {
    out.clear();
    let refilled = pdtmc.entries_at(point, |mut values| {
        for s in 0..pdtmc.num_states() {
            let start = out.len();
            for ((t, _), p) in pdtmc.successors(s).zip(&mut values) {
                // A pole fails instantiation; `DtmcBuilder::transition`
                // rejects a non-finite or negative value and one above 1,
                // and drops 0.
                match p {
                    Ok(p) if p.is_finite() && p <= 1.0 && p > 0.0 => out.push((t, p)),
                    _ => return false,
                }
            }
            let sum: f64 = out[start..].iter().map(|&(_, p)| p).sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return false;
            }
        }
        true
    });
    refilled.unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_logic::parse_formula;
    use tml_parametric::{Polynomial, RationalFunction};

    /// From state 0, reach `"goal"` with probability `x⁴` and an absorbing
    /// sink with `1 − x⁴`.
    fn quartic_chain() -> ParametricDtmc {
        let quartic = Polynomial::from_terms(1, &[(vec![4], 1.0)]).unwrap();
        let rest = Polynomial::from_terms(1, &[(vec![0], 1.0), (vec![4], -1.0)]).unwrap();
        let mut b = ParametricDtmc::builder(3, vec!["x".into()]);
        b.transition(0, 1, RationalFunction::from_poly(quartic)).unwrap();
        b.transition(0, 2, RationalFunction::from_poly(rest)).unwrap();
        b.transition(1, 1, RationalFunction::constant(1, 1.0)).unwrap();
        b.transition(2, 2, RationalFunction::constant(1, 1.0)).unwrap();
        b.label(1, "goal").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn compiled_value_is_bitwise_instantiate_and_check_past_cubic_exponents() {
        // At this point `powi` (as `Polynomial::eval` calls it, at run
        // time) and repeated multiplication round `x⁴` differently, so the
        // oracle and `instantiate` agree only if they evaluate the entries
        // the same way.
        let x = std::hint::black_box(0.902_f64);
        assert_ne!(x.powi(std::hint::black_box(4)).to_bits(), (x * x * x * x).to_bits());
        let pdtmc = quartic_chain();
        let base = pdtmc.instantiate(&[0.5]).unwrap();
        let formula = parse_formula("P>=0.5 [ F \"goal\" ]").unwrap();
        let check = CheckOptions::default();
        let budget = Budget::unlimited();
        let oracle =
            CompiledOracle::compile(&base, &pdtmc, &formula, check, budget.clone()).unwrap();
        for point in [x, 0.5, 0.904, 0.921] {
            let want = checked_value(pdtmc.instantiate(&[point]).ok(), &formula, &check, &budget);
            assert_eq!(oracle.value(&[point]).to_bits(), want.to_bits(), "x = {point}");
        }
        assert_eq!(oracle.counts(), (4, 0));
    }
}
