//! Per-backend circuit breakers for the checker's linear solvers.
//!
//! The checker records one `checker.backend.<name>.{ok,fail}` counter pair
//! per solve attempt (scc, gauss–seidel, jacobi, direct, interval, robust).
//! The batch executor
//! folds each finished job's counters into a [`SolverBreakers`] set; a
//! backend that fails `threshold` consecutive jobs trips **open** and is
//! skipped — under `LinearSolver::Auto` an open Gauss–Seidel breaker
//! routes jobs straight to the dense direct solver — until it half-opens
//! again, when a single probe decides whether it closes.
//!
//! Two recovery modes govern the open→half-open transition:
//!
//! * **Count-based** (the default): `cooldown` skipped observations
//!   half-open the breaker. No clocks — deterministic under replay, which
//!   is what the batch runtime's byte-identity contract needs.
//! * **Time-based** ([`CircuitBreaker::with_recovery`]): the breaker
//!   half-opens once `recovery` has elapsed since it tripped, measured on
//!   an injected [`Clock`] so tests advance time instead of sleeping.
//!   This is what a long-running service wants — a backend that failed at
//!   09:00 should get its probe at 09:00:05 whether or not any traffic
//!   arrived in between.
//!
//! Breakers adapt in job-*completion* order, which depends on scheduling
//! when `workers > 1`; like PR 2's budget exhaustion they are therefore a
//! *performance* mechanism, documented as scheduling-dependent, and the
//! deterministic-report contract keeps them out of the final report (the
//! standard corpus solves small models directly, so they never trip
//! there).

use std::time::{Duration, Instant};

use tml_checker::{backend_counters, CheckOptions, LinearSolver};
use tml_numerics::Diagnostics;

use crate::clock::SharedClock;

/// Where a breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rerouted until the cooldown expires.
    Open,
    /// Cooldown expired: one probe request is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire name (`/readyz` payloads, journals).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// How an open breaker decides to admit its half-open probe.
#[derive(Clone)]
enum Recovery {
    /// Count `cooldown` skipped observations, then half-open.
    Count { cooldown: u32, cooldown_left: u32 },
    /// Half-open once `recovery` has elapsed since the breaker opened.
    Time { recovery: Duration, clock: SharedClock, opened_at: Option<Instant> },
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Recovery::Count { cooldown, cooldown_left } => f
                .debug_struct("Count")
                .field("cooldown", cooldown)
                .field("cooldown_left", cooldown_left)
                .finish(),
            Recovery::Time { recovery, opened_at, .. } => f
                .debug_struct("Time")
                .field("recovery", recovery)
                .field("opened_at", opened_at)
                .finish(),
        }
    }
}

/// A circuit breaker with pluggable (count- or time-based) recovery.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive_failures: u32,
    recovery: Recovery,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A count-based breaker that opens after `threshold` consecutive
    /// failures and half-opens after `cooldown` skipped observations.
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive_failures: 0,
            recovery: Recovery::Count { cooldown: cooldown.max(1), cooldown_left: 0 },
            state: BreakerState::Closed,
        }
    }

    /// A time-based breaker: opens after `threshold` consecutive failures
    /// and half-opens once `recovery` has elapsed on `clock` since the
    /// trip. The elapsed check runs inside [`allows`](Self::allows), so an
    /// idle service still recovers as soon as the next request arrives.
    pub fn with_recovery(threshold: u32, recovery: Duration, clock: SharedClock) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive_failures: 0,
            recovery: Recovery::Time { recovery, clock, opened_at: None },
            state: BreakerState::Closed,
        }
    }

    /// Current state. Time-based breakers report their state lazily: an
    /// open breaker whose recovery window already elapsed still reads
    /// `Open` until the next [`allows`](Self::allows) call promotes it.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether the next request may use this backend.
    ///
    /// While open, a count-based breaker counts down its cooldown (the
    /// transitioning call still answers `false`; the following one admits
    /// the probe). A time-based breaker half-opens — and admits the probe
    /// immediately — once the recovery window has elapsed.
    pub fn allows(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => match &mut self.recovery {
                Recovery::Count { cooldown_left, .. } => {
                    *cooldown_left = cooldown_left.saturating_sub(1);
                    if *cooldown_left == 0 {
                        self.state = BreakerState::HalfOpen;
                    }
                    false
                }
                Recovery::Time { recovery, clock, opened_at } => {
                    let elapsed = opened_at.map(|t| clock.now().saturating_duration_since(t));
                    if elapsed.is_some_and(|e| e >= *recovery) {
                        self.state = BreakerState::HalfOpen;
                        true
                    } else {
                        false
                    }
                }
            },
        }
    }

    /// Feeds one observation (a job's aggregate verdict for this backend).
    pub fn record(&mut self, ok: bool) {
        if ok {
            self.consecutive_failures = 0;
            self.state = BreakerState::Closed;
            return;
        }
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen || self.consecutive_failures >= self.threshold {
            self.state = BreakerState::Open;
            match &mut self.recovery {
                Recovery::Count { cooldown, cooldown_left } => *cooldown_left = *cooldown,
                Recovery::Time { clock, opened_at, .. } => *opened_at = Some(clock.now()),
            }
        }
    }

    /// A point-in-time snapshot for readiness endpoints and journals.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot { state: self.state, consecutive_failures: self.consecutive_failures }
    }
}

/// Point-in-time view of one breaker, cheap to copy into responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Where the breaker stands.
    pub state: BreakerState,
    /// Consecutive failed observations (resets on success).
    pub consecutive_failures: u32,
}

/// Point-in-time view of all backend breakers, in the fixed order
/// (scc, gauss-seidel, jacobi, direct, interval, robust) — the shape
/// `/readyz` serializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakersSnapshot {
    /// The SCC-decomposed backend (first stage under `Auto`).
    pub scc: BreakerSnapshot,
    /// The Gauss–Seidel backend.
    pub gauss_seidel: BreakerSnapshot,
    /// The Jacobi backend.
    pub jacobi: BreakerSnapshot,
    /// The dense direct backend (the last-resort solver).
    pub direct: BreakerSnapshot,
    /// The interval (two-sided) iteration backend.
    pub interval: BreakerSnapshot,
    /// The robust (min-max) value-iteration backend for interval models.
    pub robust: BreakerSnapshot,
}

impl BreakersSnapshot {
    /// `(wire name, snapshot)` pairs in the fixed backend order.
    pub fn named(&self) -> [(&'static str, BreakerSnapshot); 6] {
        [
            ("scc", self.scc),
            ("gauss_seidel", self.gauss_seidel),
            ("jacobi", self.jacobi),
            ("direct", self.direct),
            ("interval", self.interval),
            ("robust", self.robust),
        ]
    }

    /// Whether any backend breaker is currently open.
    pub fn any_open(&self) -> bool {
        self.named().iter().any(|(_, b)| b.state == BreakerState::Open)
    }
}

/// The six checker backends, each behind its own breaker.
#[derive(Debug, Clone)]
pub struct SolverBreakers {
    scc: CircuitBreaker,
    gauss_seidel: CircuitBreaker,
    jacobi: CircuitBreaker,
    direct: CircuitBreaker,
    interval: CircuitBreaker,
    robust: CircuitBreaker,
}

impl Default for SolverBreakers {
    fn default() -> Self {
        SolverBreakers {
            scc: CircuitBreaker::new(3, 8),
            gauss_seidel: CircuitBreaker::new(3, 8),
            jacobi: CircuitBreaker::new(3, 8),
            direct: CircuitBreaker::new(5, 16),
            interval: CircuitBreaker::new(3, 8),
            robust: CircuitBreaker::new(3, 8),
        }
    }
}

impl SolverBreakers {
    /// A breaker set with time-based recovery on every backend — the
    /// long-running-service configuration ([`CircuitBreaker::with_recovery`]).
    pub fn with_recovery(recovery: Duration, clock: SharedClock) -> Self {
        SolverBreakers {
            scc: CircuitBreaker::with_recovery(3, recovery, clock.clone()),
            gauss_seidel: CircuitBreaker::with_recovery(3, recovery, clock.clone()),
            jacobi: CircuitBreaker::with_recovery(3, recovery, clock.clone()),
            direct: CircuitBreaker::with_recovery(5, recovery, clock.clone()),
            interval: CircuitBreaker::with_recovery(3, recovery, clock.clone()),
            robust: CircuitBreaker::with_recovery(3, recovery, clock),
        }
    }

    /// Folds a finished job's diagnostics into the breakers: a backend
    /// with any failure this job counts as one failed observation, one
    /// with only successes as one healthy observation, untouched backends
    /// are not observed.
    pub fn observe(&mut self, diag: &Diagnostics) {
        for (name, breaker) in [
            ("scc", &mut self.scc),
            ("gauss-seidel", &mut self.gauss_seidel),
            ("jacobi", &mut self.jacobi),
            ("direct", &mut self.direct),
            ("interval", &mut self.interval),
            ("robust", &mut self.robust),
        ] {
            let (ok_name, fail_name) =
                backend_counters(name).expect("every breaker guards a checker backend");
            let (ok, fail) = (diag.telemetry.counter(ok_name), diag.telemetry.counter(fail_name));
            if fail > 0 {
                breaker.record(false);
            } else if ok > 0 {
                breaker.record(true);
            }
        }
    }

    /// Adjusts a job's check options before it runs: with the SCC breaker
    /// open under [`LinearSolver::Auto`], the SCC first stage is skipped
    /// (jobs go straight to monolithic iteration); with the Gauss–Seidel
    /// breaker open, iterative solves are skipped in favor of the dense
    /// direct backend.
    pub fn adjust(&mut self, opts: &mut CheckOptions) {
        if opts.solver == LinearSolver::Auto && opts.scc_enabled && !self.scc.allows() {
            tml_telemetry::counter!("runtime.breaker.scc_disables", 1);
            opts.scc_enabled = false;
        }
        if opts.solver == LinearSolver::Auto && !self.gauss_seidel.allows() {
            tml_telemetry::counter!("runtime.breaker.reroutes", 1);
            opts.solver = LinearSolver::Direct;
        }
        if opts.solver == LinearSolver::Auto && opts.robust_vi_enabled && !self.robust.allows() {
            tml_telemetry::counter!("runtime.breaker.robust_disables", 1);
            opts.robust_vi_enabled = false;
        }
    }

    /// State triple (gauss-seidel, jacobi, direct) for journaling.
    pub fn states(&self) -> (BreakerState, BreakerState, BreakerState) {
        (self.gauss_seidel.state(), self.jacobi.state(), self.direct.state())
    }

    /// Snapshot of all six breakers for readiness endpoints.
    pub fn snapshot(&self) -> BreakersSnapshot {
        BreakersSnapshot {
            scc: self.scc.snapshot(),
            gauss_seidel: self.gauss_seidel.snapshot(),
            jacobi: self.jacobi.snapshot(),
            direct: self.direct.snapshot(),
            interval: self.interval.snapshot(),
            robust: self.robust.snapshot(),
        }
    }

    /// Whether the last-resort direct backend is currently open — the
    /// fail-closed admission signal: with no healthy backend of last
    /// resort, new work should be refused, not queued.
    pub fn direct_open(&self) -> bool {
        self.direct.state() == BreakerState::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::Arc;

    #[test]
    fn opens_after_threshold_and_recovers_through_probe() {
        let mut b = CircuitBreaker::new(3, 2);
        assert!(b.allows());
        b.record(false);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(), "cooldown tick 1");
        assert!(!b.allows(), "cooldown tick 2 half-opens");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows(), "probe admitted");
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new(3, 1);
        for _ in 0..3 {
            b.record(false);
        }
        assert!(!b.allows(), "single cooldown tick");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "one half-open failure re-trips");
    }

    #[test]
    fn time_based_breaker_half_opens_after_recovery_elapses() {
        let clock = ManualClock::new();
        let mut b =
            CircuitBreaker::with_recovery(2, Duration::from_millis(100), Arc::new(clock.clone()));
        b.record(false);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        // No amount of traffic half-opens it before the window elapses.
        for _ in 0..50 {
            assert!(!b.allows(), "recovery window not elapsed");
        }
        clock.advance(Duration::from_millis(99));
        assert!(!b.allows(), "1ms short of the window");
        clock.advance(Duration::from_millis(1));
        assert!(b.allows(), "window elapsed: probe admitted immediately");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-trips and restarts the window from now.
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows());
        clock.advance(Duration::from_millis(100));
        assert!(b.allows(), "second probe after a full new window");
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn time_based_breaker_recovers_while_idle() {
        // The service shape: the breaker trips, no traffic arrives for a
        // while, and the very next request gets the probe.
        let clock = ManualClock::new();
        let mut b =
            CircuitBreaker::with_recovery(1, Duration::from_secs(5), Arc::new(clock.clone()));
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        clock.advance(Duration::from_secs(60));
        assert!(b.allows(), "first request after a long idle period probes");
    }

    #[test]
    fn snapshots_reflect_state_and_failure_counts() {
        let mut set = SolverBreakers::default();
        let mut diag = Diagnostics::new();
        diag.telemetry.incr("checker.backend.gauss-seidel.fail", 1);
        set.observe(&diag);
        set.observe(&diag);
        let snap = set.snapshot();
        assert_eq!(snap.gauss_seidel.state, BreakerState::Closed);
        assert_eq!(snap.gauss_seidel.consecutive_failures, 2);
        assert!(!snap.any_open());
        set.observe(&diag);
        let snap = set.snapshot();
        assert_eq!(snap.gauss_seidel.state, BreakerState::Open);
        assert!(snap.any_open());
        assert!(!set.direct_open(), "only the GS backend tripped");
        let names: Vec<&str> = snap.named().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["scc", "gauss_seidel", "jacobi", "direct", "interval", "robust"]);
        assert_eq!(BreakerState::HalfOpen.name(), "half_open");
    }

    #[test]
    fn gs_breaker_reroutes_auto_to_direct() {
        let mut set = SolverBreakers::default();
        let mut diag = Diagnostics::new();
        diag.telemetry.incr("checker.backend.gauss-seidel.fail", 2);
        for _ in 0..3 {
            set.observe(&diag);
        }
        let mut opts = CheckOptions::default();
        assert_eq!(opts.solver, LinearSolver::Auto);
        set.adjust(&mut opts);
        assert_eq!(opts.solver, LinearSolver::Direct);
        // An explicitly pinned solver is never overridden.
        let mut pinned = CheckOptions { solver: LinearSolver::GaussSeidel, ..Default::default() };
        let mut set2 = SolverBreakers::default();
        for _ in 0..3 {
            set2.observe(&diag);
        }
        set2.adjust(&mut pinned);
        assert_eq!(pinned.solver, LinearSolver::GaussSeidel);
    }

    #[test]
    fn healthy_observations_keep_breakers_closed() {
        let mut set = SolverBreakers::default();
        let mut diag = Diagnostics::new();
        diag.telemetry.incr("checker.backend.direct.ok", 4);
        for _ in 0..20 {
            set.observe(&diag);
        }
        let (gs, jac, direct) = set.states();
        assert_eq!(gs, BreakerState::Closed, "unobserved backend stays closed");
        assert_eq!(jac, BreakerState::Closed);
        assert_eq!(direct, BreakerState::Closed);
        for (_, snap) in set.snapshot().named() {
            assert_eq!(snap.state, BreakerState::Closed);
        }
    }

    #[test]
    fn robust_breaker_disables_robust_vi_under_auto() {
        let mut set = SolverBreakers::default();
        let mut diag = Diagnostics::new();
        diag.telemetry.incr("checker.backend.robust.fail", 1);
        for _ in 0..3 {
            set.observe(&diag);
        }
        let mut opts = CheckOptions::default();
        assert!(opts.robust_vi_enabled);
        set.adjust(&mut opts);
        assert!(!opts.robust_vi_enabled, "open robust breaker clears robust VI");
        assert_eq!(opts.solver, LinearSolver::Auto);
        // A pinned solver keeps robust VI even with the breaker open.
        let mut pinned = CheckOptions { solver: LinearSolver::Direct, ..Default::default() };
        set.adjust(&mut pinned);
        assert!(pinned.robust_vi_enabled);
    }

    #[test]
    fn scc_breaker_disables_scc_stage_under_auto() {
        let mut set = SolverBreakers::default();
        let mut diag = Diagnostics::new();
        diag.telemetry.incr("checker.backend.scc.fail", 1);
        for _ in 0..3 {
            set.observe(&diag);
        }
        let mut opts = CheckOptions::default();
        assert!(opts.scc_enabled);
        set.adjust(&mut opts);
        assert!(!opts.scc_enabled, "open scc breaker clears the scc stage");
        assert_eq!(opts.solver, LinearSolver::Auto, "monolithic chain still allowed");
        // A pinned solver is left alone even with the scc breaker open.
        let mut pinned = CheckOptions { solver: LinearSolver::Scc, ..Default::default() };
        set.adjust(&mut pinned);
        assert!(pinned.scc_enabled);
        assert_eq!(pinned.solver, LinearSolver::Scc);
    }
}
