//! Execution budgets and degradation diagnostics.
//!
//! Every long-running routine in the workspace — iterative linear solvers,
//! value iteration, the penalty optimizer, the repair pipelines — accepts a
//! [`Budget`]: a wall-clock deadline, a cap on evaluations/iterations and a
//! shareable [`CancelToken`]. Routines poll the budget and, instead of
//! aborting, return the **best result found so far** together with a
//! [`Diagnostics`] record describing what was spent and which degradation
//! paths (solver fallbacks, accepted residuals, exhaustion) were taken.
//!
//! The evaluation cap is interpreted in the consumer's local unit: sweeps
//! for iterative solvers and value iteration, merit-function evaluations
//! for the penalty solver. The deadline and the cancellation token are
//! global — the same `Budget` (and its clones) can be handed to every layer
//! of a pipeline and a single `cancel()` stops them all.
//!
//! # Thread-safety contract
//!
//! A [`Budget`] and its clones may be shared freely across threads:
//!
//! * The [`CancelToken`] is an `Arc<AtomicBool>` — `cancel()` on any clone
//!   is observed by every other clone on every thread (relaxed ordering;
//!   cancellation is best-effort and needs no synchronizing side effects).
//! * The **shared evaluation counter** is an `Arc<AtomicU64>` that clones
//!   share, exactly like the token. Parallel workers call
//!   [`Budget::charge`] to add their evaluations and atomically compare the
//!   running total against the cap, so one cap governs the *sum* of work
//!   across all threads rather than each thread individually.
//! * The deadline is an immutable `Instant`; reading it is trivially safe.
//!
//! Two polling styles coexist:
//!
//! * [`Budget::check`]`(local_count)` — for single-threaded consumers that
//!   keep their own counter (iterative solvers, value iteration, the
//!   checker). The shared counter is not involved.
//! * [`Budget::charge`]`(n)` / [`Budget::spent`] — for parallel consumers
//!   (the penalty solver's restarts). Exhaustion is detected against the
//!   shared total.
//!
//! Under a finite cap, *which* parallel worker observes exhaustion first is
//! scheduling-dependent; determinism across serial and parallel execution
//! is guaranteed only for unlimited evaluation budgets (see DESIGN.md §8).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tml_telemetry::summary::DegradationReport;
use tml_telemetry::MetricsSnapshot;

/// A shareable cancellation flag.
///
/// Cloning the token shares the underlying flag: cancelling any clone
/// cancels them all. This is how a server front-end aborts an in-flight
/// repair from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; observed by every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budgeted computation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhaustion {
    /// The wall-clock deadline passed.
    Deadline,
    /// The evaluation/iteration cap was reached.
    Evaluations,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl Exhaustion {
    /// Merge priority when combining diagnostics from parallel workers:
    /// an explicit cancellation outranks a deadline, which outranks an
    /// evaluation cap. Using a total order (rather than "first seen wins")
    /// makes [`Diagnostics::absorb`] commutative, so per-thread diagnostics
    /// merged in any order agree with a serial run.
    fn severity(self) -> u8 {
        match self {
            Exhaustion::Evaluations => 0,
            Exhaustion::Deadline => 1,
            Exhaustion::Cancelled => 2,
        }
    }
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Deadline => f.write_str("deadline exceeded"),
            Exhaustion::Evaluations => f.write_str("evaluation cap reached"),
            Exhaustion::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// An effort bound for a computation: optional wall-clock deadline,
/// optional evaluation cap and optional cancellation token.
///
/// The default budget is unlimited, so budget-aware code behaves exactly
/// like its unbudgeted predecessor unless a caller opts in.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tml_numerics::budget::Budget;
///
/// let budget = Budget::unlimited()
///     .with_deadline(Duration::from_millis(50))
///     .with_max_evaluations(10_000);
/// assert!(budget.check(0).is_none());
/// assert!(budget.check(10_000).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_evaluations: Option<u64>,
    cancel: Option<CancelToken>,
    // Shared across clones (like the cancel token) so parallel workers
    // charging the same budget are governed by one cumulative total.
    spent: Arc<AtomicU64>,
}

impl Budget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall-clock time at `duration` from **now**.
    #[must_use]
    pub fn with_deadline(mut self, duration: Duration) -> Self {
        self.deadline = Some(Instant::now() + duration);
        self
    }

    /// Caps wall-clock time at an absolute instant.
    #[must_use]
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Caps the number of evaluations (consumer-local unit: solver sweeps,
    /// merit evaluations, …).
    #[must_use]
    pub fn with_max_evaluations(mut self, n: u64) -> Self {
        self.max_evaluations = Some(n);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// A copy of this budget with the evaluation cap removed, keeping the
    /// deadline and the cancellation token.
    ///
    /// Evaluation caps are consumer-local (sweeps, merit evaluations, …),
    /// so a budget handed down to a *nested* computation with a different
    /// evaluation unit should carry only the global limits.
    #[must_use]
    pub fn without_evaluation_cap(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            max_evaluations: None,
            cancel: self.cancel.clone(),
            spent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A copy of this budget with the **same limits** but a fresh shared
    /// counter.
    ///
    /// Use this to scope cumulative [`charge`](Self::charge) accounting to
    /// one run: a solver that forks the caller's budget per `solve` gives
    /// every solve the full evaluation cap, while clones *within* the run
    /// still share one counter across worker threads. The deadline and the
    /// cancellation token remain shared with the original.
    #[must_use]
    pub fn fork(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            max_evaluations: self.max_evaluations,
            cancel: self.cancel.clone(),
            spent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Whether this budget imposes no limit at all.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_evaluations.is_none() && self.cancel.is_none()
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The evaluation cap, if any.
    pub fn max_evaluations(&self) -> Option<u64> {
        self.max_evaluations
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Time left until the deadline (`None` when no deadline is set; zero
    /// once it has passed).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Polls the budget: given the evaluations spent so far, reports why
    /// the computation must stop, or `None` to continue.
    ///
    /// Cancellation is reported first, then the deadline, then the
    /// evaluation cap.
    pub fn check(&self, evaluations: u64) -> Option<Exhaustion> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(Exhaustion::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Exhaustion::Deadline);
            }
        }
        if let Some(cap) = self.max_evaluations {
            if evaluations >= cap {
                return Some(Exhaustion::Evaluations);
            }
        }
        None
    }

    /// Atomically adds `n` evaluations to the **shared** counter and polls
    /// the budget against the new cumulative total.
    ///
    /// The counter is shared by every clone of this budget (like the
    /// cancellation token), so parallel workers charging concurrently are
    /// governed by a single cap on their combined work. Cancellation is
    /// reported first, then the deadline, then the evaluation cap —
    /// matching [`check`](Self::check).
    pub fn charge(&self, n: u64) -> Option<Exhaustion> {
        let total = self.spent.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(Exhaustion::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Exhaustion::Deadline);
            }
        }
        if let Some(cap) = self.max_evaluations {
            if total >= cap {
                return Some(Exhaustion::Evaluations);
            }
        }
        None
    }

    /// The cumulative total charged to the shared counter (across all
    /// clones and threads). Does not reflect counts polled via
    /// [`check`](Self::check), which is local-counter based.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }
}

/// What a budgeted computation spent and which degradation paths it took.
///
/// Attached to checker results, optimizer solutions and repair outcomes so
/// callers can distinguish a pristine answer from a best-effort one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    /// Evaluations spent (consumer-local unit: sweeps, merit evaluations…).
    pub evaluations: u64,
    /// Human-readable fallback events, in the order they fired.
    pub fallbacks: Vec<String>,
    /// Worst residual accepted in lieu of full convergence (zero when every
    /// solve converged to tolerance).
    pub worst_residual: f64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Why the computation stopped early, if it did.
    pub exhausted: Option<Exhaustion>,
    /// Aggregated telemetry (named counters and span-duration histograms)
    /// for the producing computation. Empty unless the producer records
    /// metrics; merged commutatively by [`absorb`](Self::absorb).
    pub telemetry: MetricsSnapshot,
}

impl Diagnostics {
    /// Fresh, empty diagnostics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fallback event (e.g. a solver switch).
    pub fn record_fallback(&mut self, event: impl Into<String>) {
        self.fallbacks.push(event.into());
    }

    /// Records a residual accepted without full convergence; keeps the
    /// worst (NaN residuals are recorded as infinite).
    pub fn record_residual(&mut self, residual: f64) {
        let r = if residual.is_nan() { f64::INFINITY } else { residual };
        if r > self.worst_residual {
            self.worst_residual = r;
        }
    }

    /// Marks the computation as stopped early; the first cause sticks.
    pub fn mark_exhausted(&mut self, cause: Exhaustion) {
        self.exhausted.get_or_insert(cause);
    }

    /// Whether the result is degraded — produced via fallbacks, accepted
    /// residuals or an exhausted budget.
    pub fn degraded(&self) -> bool {
        self.exhausted.is_some() || !self.fallbacks.is_empty() || self.worst_residual > 0.0
    }

    /// Folds another diagnostics record into this one: evaluations add,
    /// fallbacks append, residuals take the max, elapsed adds, telemetry
    /// merges, and exhaustion causes combine by severity (Cancelled >
    /// Deadline > Evaluations).
    ///
    /// Every component is commutative and associative up to fallback
    /// *ordering* (the fallback multiset is order-independent), so
    /// absorbing per-thread diagnostics from parallel restarts in any order
    /// yields the same evaluation counts, worst residual, fallback set and
    /// exhaustion cause as a serial run. The previous "first cause sticks"
    /// rule made the merged cause depend on thread completion order.
    pub fn absorb(&mut self, other: &Diagnostics) {
        self.evaluations += other.evaluations;
        self.fallbacks.extend(other.fallbacks.iter().cloned());
        self.record_residual(other.worst_residual);
        self.elapsed += other.elapsed;
        self.telemetry.merge(&other.telemetry);
        if let Some(cause) = other.exhausted {
            match self.exhausted {
                Some(existing) if existing.severity() >= cause.severity() => {}
                _ => self.exhausted = Some(cause),
            }
        }
    }

    /// Renders the degradation block (fallbacks, worst residual, early-stop
    /// cause) through the telemetry summary renderer — the same code path
    /// that formats JSONL-derived summaries, so the two can never disagree.
    /// Returns an empty string when the run was clean.
    pub fn render_degradation(&self) -> String {
        DegradationReport {
            fallbacks: &self.fallbacks,
            worst_residual: if self.worst_residual > 0.0 {
                Some(self.worst_residual)
            } else {
                None
            },
            exhausted: self.exhausted.map(|e| e.to_string()),
        }
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check(u64::MAX).is_none());
        assert!(b.remaining_time().is_none());
    }

    #[test]
    fn evaluation_cap() {
        let b = Budget::unlimited().with_max_evaluations(10);
        assert!(!b.is_unlimited());
        assert_eq!(b.check(9), None);
        assert_eq!(b.check(10), Some(Exhaustion::Evaluations));
    }

    #[test]
    fn deadline_in_the_past_stops_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(0), Some(Exhaustion::Deadline));
        assert_eq!(b.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_is_shared_and_wins() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone()).with_max_evaluations(0);
        // Evaluation cap already hit, but not cancelled yet.
        assert_eq!(b.check(0), Some(Exhaustion::Evaluations));
        token.clone().cancel();
        assert_eq!(b.check(0), Some(Exhaustion::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn diagnostics_merge() {
        let mut a = Diagnostics::new();
        a.evaluations = 5;
        a.record_fallback("scc -> direct");
        a.record_residual(1e-3);
        let mut b = Diagnostics::new();
        b.evaluations = 7;
        b.record_residual(1e-2);
        b.mark_exhausted(Exhaustion::Deadline);
        a.absorb(&b);
        assert_eq!(a.evaluations, 12);
        assert_eq!(a.fallbacks.len(), 1);
        assert_eq!(a.worst_residual, 1e-2);
        assert_eq!(a.exhausted, Some(Exhaustion::Deadline));
        assert!(a.degraded());
        // First cause sticks.
        a.mark_exhausted(Exhaustion::Cancelled);
        assert_eq!(a.exhausted, Some(Exhaustion::Deadline));
    }

    #[test]
    fn absorb_exhaustion_merge_is_commutative() {
        let causes = [
            None,
            Some(Exhaustion::Evaluations),
            Some(Exhaustion::Deadline),
            Some(Exhaustion::Cancelled),
        ];
        for &ca in &causes {
            for &cb in &causes {
                let mut a = Diagnostics::new();
                if let Some(c) = ca {
                    a.mark_exhausted(c);
                }
                let mut b = Diagnostics::new();
                if let Some(c) = cb {
                    b.mark_exhausted(c);
                }
                let mut ab = a.clone();
                ab.absorb(&b);
                let mut ba = b.clone();
                ba.absorb(&a);
                assert_eq!(ab.exhausted, ba.exhausted, "absorb({ca:?}, {cb:?})");
            }
        }
        // Severity: a cancellation is never masked by a deadline.
        let mut d = Diagnostics::new();
        d.mark_exhausted(Exhaustion::Deadline);
        let mut c = Diagnostics::new();
        c.mark_exhausted(Exhaustion::Cancelled);
        d.absorb(&c);
        assert_eq!(d.exhausted, Some(Exhaustion::Cancelled));
    }

    #[test]
    fn absorb_merges_telemetry_snapshots() {
        let mut a = Diagnostics::new();
        a.telemetry.incr("checker.solve.sweeps", 3);
        let mut b = Diagnostics::new();
        b.telemetry.incr("checker.solve.sweeps", 4);
        b.telemetry.incr("checker.solve.fallbacks", 1);
        a.absorb(&b);
        assert_eq!(a.telemetry.counter("checker.solve.sweeps"), 7);
        assert_eq!(a.telemetry.counter("checker.solve.fallbacks"), 1);
    }

    #[test]
    fn degradation_rendering_matches_diagnostics() {
        let mut d = Diagnostics::new();
        assert_eq!(d.render_degradation(), "");
        d.record_fallback("scc solve stalled; solving directly");
        d.record_residual(2e-6);
        d.mark_exhausted(Exhaustion::Deadline);
        let text = d.render_degradation();
        assert!(text.starts_with("degraded:"));
        assert!(text.contains("scc solve stalled; solving directly"));
        assert!(text.contains("deadline exceeded"));
    }

    #[test]
    fn charge_accumulates_across_clones() {
        let b = Budget::unlimited().with_max_evaluations(10);
        let c = b.clone();
        assert!(b.charge(4).is_none());
        assert!(c.charge(4).is_none());
        // 4 + 4 + 2 = 10 hits the cap, even though no single clone did.
        assert_eq!(b.charge(2), Some(Exhaustion::Evaluations));
        assert_eq!(b.spent(), 10);
        assert_eq!(c.spent(), 10);
        // The local-counter API remains independent of the shared total.
        assert!(b.check(9).is_none());
    }

    #[test]
    fn charge_is_sound_under_concurrency() {
        let b = Budget::unlimited().with_max_evaluations(1000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..250 {
                        b.charge(1);
                    }
                });
            }
        });
        assert_eq!(b.spent(), 1000);
        assert_eq!(b.charge(1), Some(Exhaustion::Evaluations));
    }

    #[test]
    fn without_evaluation_cap_gets_a_fresh_counter() {
        let b = Budget::unlimited().with_max_evaluations(5);
        b.charge(5);
        let nested = b.without_evaluation_cap();
        assert_eq!(nested.spent(), 0);
        assert!(nested.charge(1_000_000).is_none());
        // The parent's shared total is untouched by the nested budget.
        assert_eq!(b.spent(), 5);
    }

    #[test]
    fn charge_reports_cancellation_first() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone()).with_max_evaluations(0);
        token.cancel();
        assert_eq!(b.charge(1), Some(Exhaustion::Cancelled));
    }

    #[test]
    fn nan_residual_recorded_as_infinite() {
        let mut d = Diagnostics::new();
        d.record_residual(f64::NAN);
        assert!(d.worst_residual.is_infinite());
        assert!(d.degraded());
    }
}
