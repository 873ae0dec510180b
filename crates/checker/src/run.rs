//! Per-invocation checking context: options + budget + diagnostics.
//!
//! A [`CheckRun`] is created at every public entry point and threaded
//! through the recursive evaluation internals so that all numeric work in
//! one check shares a single [`Budget`] and accumulates into a single
//! [`Diagnostics`] record. The evaluation unit is *solver sweeps* (one
//! Gauss–Seidel/Jacobi sweep or one value-iteration sweep each count 1).

use std::cell::RefCell;
use std::time::Instant;

use tml_numerics::{Budget, Diagnostics, Exhaustion};

use crate::CheckOptions;

/// Context for one checking invocation.
pub(crate) struct CheckRun<'a> {
    pub(crate) opts: &'a CheckOptions,
    budget: &'a Budget,
    diag: RefCell<Diagnostics>,
    start: Instant,
}

impl<'a> CheckRun<'a> {
    pub(crate) fn new(opts: &'a CheckOptions, budget: &'a Budget) -> Self {
        CheckRun { opts, budget, diag: RefCell::new(Diagnostics::new()), start: Instant::now() }
    }

    /// Polls the shared budget against the sweeps spent so far.
    pub(crate) fn exhausted(&self) -> Option<Exhaustion> {
        self.exhausted_after(0)
    }

    /// Polls the shared budget as if `pending` more sweeps had been spent —
    /// for solves that charge their work once, when they finish.
    pub(crate) fn exhausted_after(&self, pending: u64) -> Option<Exhaustion> {
        self.budget.check(self.diag.borrow().evaluations + pending)
    }

    /// Charges `sweeps` sweeps to the run (one call per solve, so the live
    /// telemetry counter stays an aggregate-level event, not per-sweep).
    pub(crate) fn spend(&self, sweeps: u64) {
        tml_telemetry::counter!("checker.solve.sweeps", sweeps);
        self.diag.borrow_mut().evaluations += sweeps;
    }

    /// The budget with its evaluation cap reduced by what this run has
    /// already spent — handed to the numerics-layer budgeted solvers, whose
    /// iteration counts start from zero.
    pub(crate) fn remaining_budget(&self) -> Budget {
        let mut b = self.budget.clone();
        if let Some(cap) = self.budget.max_evaluations() {
            b = b.with_max_evaluations(cap.saturating_sub(self.diag.borrow().evaluations));
        }
        b
    }

    pub(crate) fn record_fallback(&self, event: impl Into<String>) {
        tml_telemetry::counter!("checker.solve.fallbacks", 1);
        self.diag.borrow_mut().record_fallback(event);
    }

    /// Records one backend attempt (`checker.backend.<name>.<ok|fail>`), both
    /// to the live subscriber and into this run's diagnostics snapshot —
    /// callers feeding circuit breakers read the latter off `Diagnostics`.
    pub(crate) fn record_backend(&self, backend: &str, ok: bool) {
        let name = format!("checker.backend.{backend}.{}", if ok { "ok" } else { "fail" });
        tml_telemetry::counter!(name.as_str(), 1);
        self.diag.borrow_mut().telemetry.incr(&name, 1);
    }

    pub(crate) fn record_residual(&self, residual: f64) {
        self.diag.borrow_mut().record_residual(residual);
    }

    pub(crate) fn mark_exhausted(&self, cause: Exhaustion) {
        self.diag.borrow_mut().mark_exhausted(cause);
    }

    /// Finalizes the run, stamping the elapsed wall-clock time and filling
    /// the diagnostics' telemetry snapshot with this run's totals (so the
    /// `*_diag` APIs surface the same numbers a live subscriber would see).
    pub(crate) fn finish(self) -> Diagnostics {
        let mut diag = self.diag.into_inner();
        diag.elapsed = self.start.elapsed();
        diag.telemetry.incr("checker.solve.sweeps", diag.evaluations);
        diag.telemetry.incr("checker.solve.fallbacks", diag.fallbacks.len() as u64);
        diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_counts_against_the_cap() {
        let opts = CheckOptions::default();
        let budget = Budget::unlimited().with_max_evaluations(10);
        let run = CheckRun::new(&opts, &budget);
        assert!(run.exhausted().is_none());
        run.spend(4);
        assert_eq!(run.remaining_budget().max_evaluations(), Some(6));
        run.spend(6);
        assert_eq!(run.exhausted(), Some(Exhaustion::Evaluations));
        assert_eq!(run.remaining_budget().max_evaluations(), Some(0));
        let diag = run.finish();
        assert_eq!(diag.evaluations, 10);
    }

    #[test]
    fn finish_stamps_elapsed_and_events() {
        let opts = CheckOptions::default();
        let budget = Budget::unlimited();
        let run = CheckRun::new(&opts, &budget);
        run.record_fallback("gauss-seidel -> jacobi");
        run.record_residual(1e-4);
        run.mark_exhausted(Exhaustion::Deadline);
        let diag = run.finish();
        assert_eq!(diag.fallbacks, vec!["gauss-seidel -> jacobi".to_string()]);
        assert_eq!(diag.worst_residual, 1e-4);
        assert_eq!(diag.exhausted, Some(Exhaustion::Deadline));
        assert!(diag.degraded());
    }
}
