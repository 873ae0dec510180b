//! The property oracle of non-symbolic DTMC repair, compiled once per
//! repair (see [`CompiledOracle`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use tml_checker::reach::{ReachScratch, ReachSystem};
use tml_checker::CheckOptions;
use tml_logic::StateFormula;
use tml_models::{Dtmc, STOCHASTIC_TOLERANCE};
use tml_numerics::Budget;
use tml_parametric::ParametricDtmc;

use crate::driver::checked_value;

/// A DTMC repair property compiled against the template's fixed support.
///
/// When a repair property is outside the symbolic fragment (or its rational
/// function is too large to evaluate in `f64`), every optimizer merit asks
/// for the property's value at a candidate point. Instantiating the
/// candidate chain and running the full checker answers it, but the
/// template keeps the support fixed, so prob0/prob1, the maybe states and
/// the sparsity pattern are the same at every candidate. The oracle builds
/// that structure once ([`ReachSystem`]) and, per candidate, only evaluates
/// the template's entries and refills and solves the small system. Its
/// values are bitwise those of instantiate-and-check: every entry has the
/// denominator `1`, so the value of its numerator is the one instantiation
/// computes, and the system is the one the checker would build for the
/// instantiated chain.
///
/// A candidate at which the support would change (an entry `≤ 0`) or at
/// which instantiation would fail (a pole, a non-finite entry, one above
/// `1`, a row off stochastic) is *deferred*: it goes through
/// instantiate-and-check, so it keeps exactly that value (`NaN` when the
/// chain cannot be built).
#[derive(Debug)]
pub struct CompiledOracle {
    pdtmc: ParametricDtmc,
    formula: StateFormula,
    check: CheckOptions,
    budget: Budget,
    system: ReachSystem,
    /// Per state, the position of its first transition in the transitions
    /// listed state by state; one more entry closes the last state.
    row_starts: Vec<usize>,
    compiled: AtomicU64,
    deferred: AtomicU64,
}

/// The per-thread buffers of [`CompiledOracle::value`].
#[derive(Default)]
struct Scratch {
    /// `(successor, probability)` of every transition, state by state.
    transitions: Vec<(usize, f64)>,
    reach: ReachScratch,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl CompiledOracle {
    /// Compiles `formula` against `pdtmc`, the template applied to `base`.
    /// `None` when the property is outside [`ReachSystem::compile`]'s
    /// fragment, when `pdtmc` does not have `base`'s support, row for row,
    /// or when an entry's denominator is not the constant `1`.
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
        let polynomial = (0..pdtmc.num_states()).all(|s| {
            pdtmc.successors(s).all(|(_, rf)| rf.denominator().as_constant() == Some(1.0))
        });
        if !same_support || !polynomial {
            return None;
        }
        // An unknown reward structure fails every check the same way, so
        // instantiate-and-check keeps reporting it (as `NaN`).
        let system = ReachSystem::compile(base, formula).ok()??;
        let mut row_starts = vec![0];
        for s in 0..pdtmc.num_states() {
            row_starts.push(row_starts[s] + pdtmc.successors(s).count());
        }
        Some(CompiledOracle {
            pdtmc: pdtmc.clone(),
            formula: formula.clone(),
            check,
            budget,
            system,
            row_starts,
            compiled: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        })
    }

    /// The property's value at the initial state of the candidate chain at
    /// `point`: bitwise `check_dtmc(instantiate(point)).value_at_initial()`,
    /// `NaN` where the chain cannot be instantiated or checked.
    pub fn value(&self, point: &[f64]) -> f64 {
        SCRATCH.with(|cell| self.value_with(point, &mut cell.borrow_mut()))
    }

    /// How many [`value`](Self::value) calls were answered by the compiled
    /// system and how many were deferred to instantiate-and-check.
    pub fn counts(&self) -> (u64, u64) {
        (self.compiled.load(Ordering::Relaxed), self.deferred.load(Ordering::Relaxed))
    }

    fn value_with(&self, point: &[f64], scratch: &mut Scratch) -> f64 {
        if !self.refill(point, &mut scratch.transitions) {
            self.deferred.fetch_add(1, Ordering::Relaxed);
            let model = self.pdtmc.instantiate(point).ok();
            return checked_value(model, &self.formula, &self.check, &self.budget);
        }
        self.compiled.fetch_add(1, Ordering::Relaxed);
        let transitions = &scratch.transitions;
        let successors =
            |s: usize| transitions[self.row_starts[s]..self.row_starts[s + 1]].iter().copied();
        self.system
            .value_at_initial(successors, &mut scratch.reach, &self.check, &self.budget)
            .unwrap_or(f64::NAN)
    }

    /// Evaluates every transition at `point` into `out`; `false` when the
    /// candidate must be deferred.
    fn refill(&self, point: &[f64], out: &mut Vec<(usize, f64)>) -> bool {
        out.clear();
        for s in 0..self.pdtmc.num_states() {
            let start = out.len();
            for (t, rf) in self.pdtmc.successors(s) {
                // `DtmcBuilder::transition` rejects the first two and drops 0.
                match rf.numerator().eval(point) {
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
    }
}
