//! Per-client token buckets: the tenant-level scheduler in front of the
//! job queue.
//!
//! Each client (the `X-TML-Client` header, or `"anonymous"`) owns a
//! bucket of `capacity` tokens refilling at `refill_per_sec`; every
//! accepted job costs one token. An empty bucket answers
//! [`Admit::Wait`] with the time until the next token, which the handler
//! maps to `429 Retry-After` — per-tenant backpressure that an abusive
//! client cannot convert into whole-service starvation.
//!
//! Time comes from an injected [`Clock`](tml_runtime::Clock), so tests use a
//! [`ManualClock`](tml_runtime::ManualClock) and never sleep. The client
//! map is capped: once `MAX_CLIENTS` distinct names exist, new names
//! share one overflow bucket (bounded memory under client-name spray).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tml_runtime::SharedClock;

/// Cap on distinct per-client buckets; excess clients share one bucket.
pub const MAX_CLIENTS: usize = 1024;

/// Admission verdict for one job submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// A token was spent; the job may proceed to the queue.
    Granted,
    /// The bucket is empty; retry after the given wait.
    Wait(Duration),
}

struct BucketState {
    tokens: f64,
    last: Instant,
}

/// The per-client bucket set.
pub struct TokenBuckets {
    capacity: f64,
    refill_per_sec: f64,
    clock: SharedClock,
    buckets: Mutex<HashMap<String, BucketState>>,
}

impl TokenBuckets {
    /// Buckets holding `capacity` tokens (min 1), refilling at
    /// `refill_per_sec` (0 = no refill: a hard per-client quota).
    pub fn new(capacity: u32, refill_per_sec: f64, clock: SharedClock) -> Self {
        TokenBuckets {
            capacity: f64::from(capacity.max(1)),
            refill_per_sec: refill_per_sec.max(0.0),
            clock,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Charges one token from `client`'s bucket.
    pub fn admit(&self, client: &str) -> Admit {
        let now = self.clock.now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let key = if buckets.len() >= MAX_CLIENTS && !buckets.contains_key(client) {
            "~overflow"
        } else {
            client
        };
        let state = buckets
            .entry(key.to_string())
            .or_insert_with(|| BucketState { tokens: self.capacity, last: now });
        let elapsed = now.saturating_duration_since(state.last).as_secs_f64();
        state.tokens = (state.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        state.last = now;
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            Admit::Granted
        } else if self.refill_per_sec > 0.0 {
            let deficit = 1.0 - state.tokens;
            Admit::Wait(Duration::from_secs_f64(deficit / self.refill_per_sec))
        } else {
            // No refill: the quota is spent for good; report a long wait.
            Admit::Wait(Duration::from_secs(3600))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tml_runtime::ManualClock;

    fn buckets(capacity: u32, refill: f64) -> (TokenBuckets, ManualClock) {
        let clock = ManualClock::new();
        (TokenBuckets::new(capacity, refill, Arc::new(clock.clone())), clock)
    }

    #[test]
    fn buckets_are_per_client() {
        let (b, _) = buckets(2, 0.0);
        assert_eq!(b.admit("alice"), Admit::Granted);
        assert_eq!(b.admit("alice"), Admit::Granted);
        assert!(matches!(b.admit("alice"), Admit::Wait(_)), "alice's quota spent");
        assert_eq!(b.admit("bob"), Admit::Granted, "bob is unaffected");
    }

    #[test]
    fn refill_restores_tokens_on_the_manual_clock() {
        let (b, clock) = buckets(1, 2.0); // 2 tokens/sec
        assert_eq!(b.admit("c"), Admit::Granted);
        match b.admit("c") {
            Admit::Wait(d) => assert!(d <= Duration::from_millis(500), "deficit of 1 at 2/s"),
            Admit::Granted => panic!("bucket should be empty"),
        }
        clock.advance(Duration::from_millis(600));
        assert_eq!(b.admit("c"), Admit::Granted, "refilled past one token");
        assert!(matches!(b.admit("c"), Admit::Wait(_)), "capacity caps the refill at 1");
    }

    #[test]
    fn client_map_is_bounded() {
        let (b, _) = buckets(2, 0.0);
        for i in 0..MAX_CLIENTS {
            assert_eq!(b.admit(&format!("client-{i}")), Admit::Granted);
        }
        // The map is full: new names share one overflow bucket.
        assert_eq!(b.admit("fresh-1"), Admit::Granted);
        assert_eq!(b.admit("fresh-2"), Admit::Granted);
        assert!(matches!(b.admit("fresh-3"), Admit::Wait(_)), "overflow bucket is shared");
        assert_eq!(b.admit("client-0"), Admit::Granted, "existing clients keep their bucket");
    }
}
