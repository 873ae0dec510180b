//! Injectable monotonic clocks.
//!
//! Time-based behaviour (token-bucket refill) must be testable without
//! sleeping. Everything in the runtime
//! and serve layers that consults wall-clock time does so through a
//! [`Clock`], so tests swap in a [`ManualClock`] and advance it
//! explicitly while production uses [`SystemClock`].

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic time source.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// The real monotonic clock ([`Instant::now`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// [`advance`](ManualClock::advance) is called.
#[derive(Debug, Clone)]
pub struct ManualClock {
    now: Arc<Mutex<Instant>>,
}

impl ManualClock {
    /// A manual clock anchored at the real current instant.
    pub fn new() -> Self {
        ManualClock { now: Arc::new(Mutex::new(Instant::now())) }
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: Duration) {
        let mut now = self.now.lock().unwrap_or_else(|e| e.into_inner());
        *now += d;
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Instant {
        *self.now.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The clock handle the runtime passes around: cheap to clone, dynamic so
/// tests can substitute a [`ManualClock`].
pub type SharedClock = Arc<dyn Clock>;

/// The default production clock.
pub fn system_clock() -> SharedClock {
    Arc::new(SystemClock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_on_advance() {
        let clock = ManualClock::new();
        let t0 = clock.now();
        assert_eq!(clock.now(), t0);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now() - t0, Duration::from_millis(250));
        // Clones share the same timeline.
        let clone = clock.clone();
        clone.advance(Duration::from_secs(1));
        assert_eq!(clock.now() - t0, Duration::from_millis(1250));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = system_clock();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
