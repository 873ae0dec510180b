//! Disabled-path overhead guarantee: with no subscriber installed, opening
//! and dropping a span performs ZERO heap allocations, and a counter
//! increment likewise. This is the contract that makes it safe to leave
//! instrumentation in hot paths (solver inner loops, per-operator PCTL
//! evaluation) in release builds.
//!
//! This lives in its own integration-test binary because (a) it needs a
//! process-global counting allocator, which the `#![forbid(unsafe_code)]`
//! library itself must not contain, and (b) no other test in this binary
//! may install a subscriber. The allocator counts per thread, so the tests
//! of this binary may run concurrently without charging each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tml_telemetry::{counter, span};

struct CountingAllocator;

thread_local! {
    // Per thread, so that allocations made by tests running concurrently
    // on other threads are not charged to the measured closure. A const
    // initializer and a `Drop`-free `Cell` mean that touching the slot
    // never allocates (and never re-enters the allocator) itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to the system allocator; the counter update
// is a plain thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread is being torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn disabled_spans_and_counters_allocate_nothing() {
    assert!(!tml_telemetry::enabled(), "no subscriber may be installed in this binary");

    // Warm up thread-locals (lazy init may allocate once, legitimately).
    {
        let _g = span!("warmup", i = 1_u64);
        counter!("warmup.count", 1);
    }

    let (allocs, _) = allocations_during(|| {
        for i in 0..1000_u64 {
            let _outer = span!("model_repair.solve", restart = i);
            let _inner = span!("solver.restart", restart = i, dims = 4_u64);
            counter!("solver.penalty.evaluations", i);
        }
    });
    assert_eq!(allocs, 0, "disabled telemetry fast path must not allocate");
}

#[test]
fn disabled_spans_allocate_nothing_under_a_trace_context() {
    assert!(!tml_telemetry::enabled(), "no subscriber may be installed in this binary");

    // Install the trace context BEFORE the counted window: the first
    // TRACE_STACK push may allocate (Vec growth), which is install-time
    // cost, not per-span cost.
    let ctx = tml_telemetry::TraceContext::derive(7, 3).with_parent_span(11);
    let _trace = tml_telemetry::with_trace(ctx);
    {
        let _g = span!("warmup", i = 1_u64);
        counter!("warmup.count", 1);
    }

    let (allocs, _) = allocations_during(|| {
        for i in 0..1000_u64 {
            let _span = span!("runtime.job", job = i);
            counter!("runtime.attempt.failures", 1);
        }
    });
    assert_eq!(allocs, 0, "trace propagation must stay free while disabled");
}

#[test]
fn disabled_span_guard_is_inert() {
    let g = span!("nothing");
    assert_eq!(g.id(), None);
}
