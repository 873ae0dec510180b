//! Structured tracing, metrics and profiling hooks for the repair pipeline.
//!
//! The workspace's long-running routines — model checking, parametric
//! elimination, tape compilation, penalty-solver restarts, IRL gradient
//! passes — are instrumented with three primitives:
//!
//! * **spans** ([`span!`]) — hierarchical timed regions with monotonic
//!   timestamps, thread ids and parent linkage, closed in LIFO order by
//!   RAII guards (early `return`/`?` included);
//! * **counters** ([`counter!`]) — named monotonic totals (constraint
//!   evaluations, solver sweeps, fallback events, …);
//! * **histograms** — per-span wall time recorded automatically into fixed
//!   log-scale buckets (see [`metrics`]).
//!
//! Everything funnels into a [`Subscriber`], which fans events out to
//! pluggable [`sink::Sink`]s (an in-memory ring buffer, a JSONL event
//! writer, …) and aggregates metrics for an end-of-run summary
//! ([`summary`]).
//!
//! # Overhead contract
//!
//! When no subscriber is installed, every instrumentation point reduces to
//! **one relaxed atomic load** and performs **zero heap allocations** (this
//! is asserted by a counting-allocator test). Instrumentation is therefore
//! safe to leave in release binaries and hot paths; only *aggregate* points
//! (one per solve/restart/phase, never per inner iteration) are
//! instrumented.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tml_telemetry::{counter, span, sink::RingSink, Subscriber};
//!
//! let ring = Arc::new(RingSink::with_capacity(64));
//! let sub = Arc::new(Subscriber::builder().sink(ring.clone()).build());
//! let _scope = tml_telemetry::install_scoped(sub.clone());
//! {
//!     let _solve = span!("solver.solve", restarts = 4_u64);
//!     counter!("solver.penalty.evaluations", 123);
//! }
//! let events = ring.drain();
//! assert_eq!(events.len(), 3); // span start, counter, span end
//! let snap = sub.metrics_snapshot();
//! assert_eq!(snap.counter("solver.penalty.evaluations"), 123);
//! assert_eq!(snap.histogram("span.solver.solve").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod naming;
pub mod prometheus;
pub mod sink;
pub mod summary;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub use event::{Event, FieldValue};
pub use metrics::{HistogramSnapshot, MetricsSnapshot};

use metrics::Registry;
use sink::Sink;

// ------------------------------------------------------------- global state

/// Number of currently installed subscribers (global + scoped). The
/// disabled fast path is exactly one relaxed load of this counter.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The globally installed subscriber, if any.
static GLOBAL: RwLock<Option<Arc<Subscriber>>> = RwLock::new(None);

/// Process-wide source of compact thread ids (`std::thread::ThreadId` has
/// no stable integer accessor).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Scoped subscribers for this thread (innermost last).
    static SCOPED: RefCell<Vec<Arc<Subscriber>>> = const { RefCell::new(Vec::new()) };
    /// The stack of open span ids on this thread (parent linkage).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The stack of installed trace contexts on this thread (innermost
    /// last); see [`with_trace`].
    static TRACE_STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
    /// This thread's compact id.
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Whether any subscriber (global or scoped) is installed. This is the
/// no-op fast path: a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// The subscriber instrumentation should dispatch to on this thread: the
/// innermost scoped subscriber if one is active here, the global one
/// otherwise.
fn current() -> Option<Arc<Subscriber>> {
    if !enabled() {
        return None;
    }
    if let Some(sub) = SCOPED.with(|s| s.borrow().last().cloned()) {
        return Some(sub);
    }
    GLOBAL.read().ok().and_then(|g| g.clone())
}

/// This thread's compact telemetry id (small, stable per thread).
pub fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

// ----------------------------------------------------------- trace context

/// Correlates spans and counters that belong to one logical request across
/// threads, processes and crash/resume boundaries.
///
/// A trace context is installed explicitly at unit-of-work boundaries
/// ([`with_trace`]) and read implicitly by every [`span!`] and
/// [`counter!`] fired while it is installed: span-start and counter events
/// carry `trace_id` on the wire, and a root span opened under the context
/// (empty span stack) links to `parent_span` instead of `null` — this is
/// what stitches a worker-thread span tree to the submission-side span
/// that enqueued the job.
///
/// Ids are derived deterministically from `(seed, job)` — never from wall
/// time — so a resumed run re-derives the *same* id and re-links to the
/// original trace (see `Submission::trace` in `tml-runtime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The 64-bit trace id (never 0; serialized as 16 hex digits).
    pub trace_id: u64,
    /// Span id (in the *originating* process's id space) that logically
    /// spawned this unit of work, if known. Only meaningful within one
    /// trace file; it is not persisted across processes.
    pub parent_span: Option<u64>,
}

/// The splitmix64 finalizer: a bijective avalanche mix, the standard way to
/// turn small structured integers (seed, job index) into well-spread ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TraceContext {
    /// A context with the given id and no parent span.
    pub fn new(trace_id: u64) -> TraceContext {
        TraceContext { trace_id: if trace_id == 0 { 1 } else { trace_id }, parent_span: None }
    }

    /// Derives the seed-deterministic trace id for `(seed, job)`. Pure —
    /// no clock, no process state — so the id can be re-derived by a
    /// resumed process, an old journal without trace records, or a test.
    pub fn derive(seed: u64, job: u64) -> TraceContext {
        let mixed = splitmix64(splitmix64(seed) ^ splitmix64(job ^ 0xA076_1D64_78BD_642F));
        TraceContext::new(mixed)
    }

    /// Attaches the span that spawned this unit of work.
    #[must_use]
    pub fn with_parent_span(mut self, span: u64) -> TraceContext {
        self.parent_span = Some(span);
        self
    }

    /// The wire form of the trace id: exactly 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Parses a 16-hex-digit trace id as written by [`TraceContext::hex`].
    pub fn parse_hex(s: &str) -> Option<u64> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok()
    }
}

/// Installs `ctx` as this thread's trace context until the returned guard
/// drops. Nested installs shadow (innermost wins); the guard restores the
/// outer context. Installation is independent of whether a subscriber is
/// enabled — a context on a disabled thread costs nothing at
/// instrumentation points (the [`enabled`] load still short-circuits
/// first).
#[must_use]
pub fn with_trace(ctx: TraceContext) -> TraceGuard {
    TRACE_STACK.with(|t| t.borrow_mut().push(ctx));
    TraceGuard { ctx }
}

/// This thread's innermost installed trace context, if any.
pub fn current_trace() -> Option<TraceContext> {
    TRACE_STACK.with(|t| t.borrow().last().copied())
}

/// RAII guard for [`with_trace`]; restores the previous context on drop.
pub struct TraceGuard {
    ctx: TraceContext,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE_STACK.with(|t| {
            let mut stack = t.borrow_mut();
            // Guards drop LIFO, so the top is ours; fall back to removing
            // the last matching entry if one was moved across scopes.
            if stack.last() == Some(&self.ctx) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|c| *c == self.ctx) {
                stack.remove(pos);
            }
        });
    }
}

/// Installs `sub` as the process-wide subscriber, visible from every
/// thread. Returns `false` (and leaves the existing subscriber in place) if
/// one is already installed.
pub fn install_global(sub: Arc<Subscriber>) -> bool {
    let mut g = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
    if g.is_some() {
        return false;
    }
    *g = Some(sub);
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    true
}

/// The currently installed process-wide subscriber, if any. Lets a
/// long-running component (e.g. the serve layer) aggregate its metrics
/// into the same registry the CLI installed for `--trace-json`, instead of
/// splitting spans and counters across two subscribers.
pub fn global_subscriber() -> Option<Arc<Subscriber>> {
    GLOBAL.read().ok().and_then(|g| g.clone())
}

/// Removes and returns the process-wide subscriber, if any. Sinks are
/// flushed before the subscriber is handed back.
pub fn uninstall_global() -> Option<Arc<Subscriber>> {
    let mut g = GLOBAL.write().unwrap_or_else(|e| e.into_inner());
    let sub = g.take();
    if let Some(sub) = &sub {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
        sub.flush();
    }
    sub
}

/// Installs `sub` for the current thread only, until the returned guard is
/// dropped. Scoped subscribers shadow the global one on this thread;
/// instrumentation on *other* threads (e.g. parallel restarts) still sees
/// the global subscriber, so cross-thread tests should prefer
/// [`install_global`].
#[must_use]
pub fn install_scoped(sub: Arc<Subscriber>) -> ScopedGuard {
    SCOPED.with(|s| s.borrow_mut().push(sub));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    ScopedGuard { _private: () }
}

/// RAII guard for [`install_scoped`]; uninstalls on drop.
pub struct ScopedGuard {
    _private: (),
}

impl Drop for ScopedGuard {
    fn drop(&mut self) {
        if let Some(sub) = SCOPED.with(|s| s.borrow_mut().pop()) {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
            sub.flush();
        }
    }
}

// -------------------------------------------------------------- subscriber

/// Receives every event from the instrumentation layer, fans it out to the
/// configured sinks and aggregates counters and span-duration histograms.
pub struct Subscriber {
    epoch: Instant,
    sinks: Vec<Arc<dyn Sink>>,
    metrics: Registry,
    next_span: AtomicU64,
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber").field("sinks", &self.sinks.len()).finish()
    }
}

impl Default for Subscriber {
    fn default() -> Self {
        Subscriber::builder().build()
    }
}

impl Subscriber {
    /// Starts building a subscriber.
    pub fn builder() -> SubscriberBuilder {
        SubscriberBuilder { sinks: Vec::new() }
    }

    /// Monotonic nanoseconds since this subscriber was created.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn dispatch(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    /// Records a named counter increment (also emitted to sinks, tagged
    /// with this thread's trace context when one is installed).
    pub fn record_counter(&self, name: &str, value: u64) {
        self.metrics.incr_counter(name, value);
        self.dispatch(&Event::Counter {
            name: name.to_owned(),
            value,
            thread: thread_id(),
            at_ns: self.now_ns(),
            trace: current_trace().map(|c| c.trace_id),
        });
    }

    /// Records a labeled counter increment. Labels become part of the
    /// registry key (`name{k="v",...}`, keys sorted); no sink event is
    /// emitted — labeled series surface through `/metrics` and snapshots.
    pub fn record_counter_labeled(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.metrics.incr_counter_labeled(name, labels, value);
    }

    /// Sets a named gauge (last write wins; surfaces through snapshots and
    /// the Prometheus exposition, no sink event).
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.metrics.set_gauge(name, value);
    }

    /// Records `dur_ns` into the named histogram (no sink event; histograms
    /// surface through [`Subscriber::metrics_snapshot`]).
    pub fn record_duration_ns(&self, name: &str, dur_ns: u64) {
        self.metrics.record_ns(name, dur_ns);
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Flushes every sink (e.g. the JSONL writer's buffer).
    pub fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

/// Builder for [`Subscriber`].
pub struct SubscriberBuilder {
    sinks: Vec<Arc<dyn Sink>>,
}

impl SubscriberBuilder {
    /// Adds a sink.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Finalizes the subscriber.
    pub fn build(self) -> Subscriber {
        Subscriber {
            epoch: Instant::now(),
            sinks: self.sinks,
            metrics: Registry::new(),
            next_span: AtomicU64::new(1),
        }
    }
}

// ------------------------------------------------------------------- spans

/// An open span; closing (dropping) it emits the end event and records the
/// wall time into the `span.<name>` histogram.
///
/// Guards close in LIFO order by Rust's drop rules, including on early
/// `return` and `?` — this is what makes the parent linkage sound.
#[must_use = "a span guard measures the region it is alive in"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    sub: Arc<Subscriber>,
    id: u64,
    name: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// The no-op guard used when telemetry is disabled. Allocates nothing.
    #[inline]
    pub fn disabled() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// The span id, when the span is live (useful in tests).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        // Pop this span from the thread's stack. Guards drop LIFO, so the
        // top is ours; a retain keeps the stack sound even if a guard was
        // moved across threads.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&inner.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != inner.id);
            }
        });
        inner.sub.dispatch(&Event::SpanEnd {
            id: inner.id,
            name: inner.name.to_owned(),
            thread: thread_id(),
            at_ns: inner.sub.now_ns(),
            dur_ns,
        });
        inner.sub.record_duration_ns(&format!("span.{}", inner.name), dur_ns);
    }
}

/// Opens a span with explicit fields. Prefer the [`span!`] macro, which
/// skips field construction entirely when telemetry is disabled.
pub fn enter_span(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
    let Some(sub) = current() else { return SpanGuard::disabled() };
    let id = sub.next_span.fetch_add(1, Ordering::Relaxed);
    let trace = current_trace();
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    // A root span on this thread links to the trace context's parent span
    // instead of null: that is the cross-thread edge from the worker's
    // span tree back to the submission-side span that enqueued the job.
    let parent = parent.or_else(|| trace.and_then(|c| c.parent_span));
    sub.dispatch(&Event::SpanStart {
        id,
        parent,
        name: name.to_owned(),
        thread: thread_id(),
        at_ns: sub.now_ns(),
        trace: trace.map(|c| c.trace_id),
        fields: fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    });
    SpanGuard { inner: Some(SpanInner { sub, id, name, start: Instant::now() }) }
}

/// Records a named counter increment through the current subscriber.
/// Prefer the [`counter!`] macro, which is a no-op load when disabled.
pub fn record_counter(name: &str, value: u64) {
    if let Some(sub) = current() {
        sub.record_counter(name, value);
    }
}

/// Records a duration into the named histogram through the current
/// subscriber.
pub fn record_duration(name: &str, dur: std::time::Duration) {
    if let Some(sub) = current() {
        sub.record_duration_ns(name, dur.as_nanos() as u64);
    }
}

/// Opens a timed, named span. Returns a [`SpanGuard`] that must be bound to
/// a local (`let _span = span!(...)`) so it lives for the region.
///
/// ```
/// # use tml_telemetry::span;
/// let _solve = span!("model_repair.solve");
/// let _restart = span!("solver.restart", restart = 3_u64, dims = 2_u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::enter_span($name, ::std::vec::Vec::new())
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::enter_span(
                $name,
                ::std::vec![$((::std::stringify!($k), $crate::FieldValue::from($v))),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Increments a named counter (no-op atomic load when disabled).
///
/// ```
/// # use tml_telemetry::counter;
/// counter!("checker.solve.sweeps", 42);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::record_counter($name, $n as u64);
        }
    };
}

// A process-wide test lock so integration tests that install the global
// subscriber do not race each other (cargo runs tests concurrently).
#[doc(hidden)]
pub static TEST_MUTEX: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use sink::RingSink;

    fn scoped() -> (Arc<RingSink>, Arc<Subscriber>, ScopedGuard) {
        let ring = Arc::new(RingSink::with_capacity(256));
        let sub = Arc::new(Subscriber::builder().sink(ring.clone()).build());
        let guard = install_scoped(sub.clone());
        (ring, sub, guard)
    }

    #[test]
    fn disabled_spans_are_inert() {
        // No subscriber installed on this thread and, under the lock, no
        // global one: spans carry no id and emit nothing.
        let _lock = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let g = span!("nothing");
        assert_eq!(g.id(), None);
        drop(g);
        counter!("nothing.count", 5);
    }

    #[test]
    fn span_parentage_and_events() {
        let (ring, sub, _guard) = scoped();
        {
            let outer = span!("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span!("inner", idx = 7_u64);
                assert_ne!(inner.id().unwrap(), outer_id);
            }
            counter!("c", 2);
        }
        let events = ring.drain();
        assert_eq!(events.len(), 5, "{events:?}");
        match &events[0] {
            Event::SpanStart { name, parent, .. } => {
                assert_eq!(name, "outer");
                assert_eq!(*parent, None);
            }
            other => panic!("expected outer start, got {other:?}"),
        }
        match &events[1] {
            Event::SpanStart { name, parent, fields, .. } => {
                assert_eq!(name, "inner");
                assert!(parent.is_some(), "inner span must link to outer");
                assert_eq!(fields[0].0, "idx");
            }
            other => panic!("expected inner start, got {other:?}"),
        }
        assert!(matches!(&events[2], Event::SpanEnd { name, .. } if name == "inner"));
        assert!(matches!(&events[3], Event::Counter { name, value: 2, .. } if name == "c"));
        assert!(matches!(&events[4], Event::SpanEnd { name, .. } if name == "outer"));
        let snap = sub.metrics_snapshot();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.histogram("span.outer").unwrap().count, 1);
        assert_eq!(snap.histogram("span.inner").unwrap().count, 1);
    }

    #[test]
    fn scoped_subscriber_uninstalls_on_drop() {
        // The lock keeps the global-install tests from catching "after".
        let _lock = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled() || GLOBAL.read().unwrap().is_some());
        {
            let (_ring, _sub, _guard) = scoped();
            assert!(enabled());
        }
        // After the guard drops, this thread no longer dispatches anywhere.
        let g = span!("after");
        assert_eq!(g.id(), None);
    }

    #[test]
    fn global_install_is_exclusive() {
        let _lock = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let a = Arc::new(Subscriber::default());
        let b = Arc::new(Subscriber::default());
        assert!(install_global(a));
        assert!(!install_global(b), "second install must be rejected");
        assert!(uninstall_global().is_some());
        assert!(uninstall_global().is_none());
    }

    #[test]
    fn trace_ids_are_seed_deterministic_and_hex_roundtrip() {
        let a = TraceContext::derive(2024, 3);
        let b = TraceContext::derive(2024, 3);
        assert_eq!(a, b, "same (seed, job) must derive the same id");
        assert_ne!(a.trace_id, TraceContext::derive(2024, 4).trace_id);
        assert_ne!(a.trace_id, TraceContext::derive(2025, 3).trace_id);
        assert_ne!(a.trace_id, 0, "0 is reserved as the non-id");
        let hex = a.hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceContext::parse_hex(&hex), Some(a.trace_id));
        assert_eq!(TraceContext::parse_hex("xyz"), None);
        assert_eq!(TraceContext::parse_hex("00000000000000"), None, "length must be 16");
    }

    #[test]
    fn spans_and_counters_carry_the_installed_trace() {
        let (ring, _sub, _guard) = scoped();
        let ctx = TraceContext::derive(7, 0).with_parent_span(99);
        {
            let _t = with_trace(ctx);
            assert_eq!(current_trace(), Some(ctx));
            {
                let _root = span!("job.root");
                let _child = span!("job.child");
                counter!("job.root.ticks", 1);
            }
        }
        assert_eq!(current_trace(), None, "guard restores the outer (empty) context");
        let events = ring.drain();
        match &events[0] {
            Event::SpanStart { parent, trace, .. } => {
                assert_eq!(*parent, Some(99), "root span links to the context's parent span");
                assert_eq!(*trace, Some(ctx.trace_id));
            }
            other => panic!("expected root start, got {other:?}"),
        }
        match &events[1] {
            Event::SpanStart { parent, trace, .. } => {
                assert_ne!(*parent, Some(99), "nested span keeps its thread-local parent");
                assert_eq!(*trace, Some(ctx.trace_id));
            }
            other => panic!("expected child start, got {other:?}"),
        }
        assert!(matches!(&events[2], Event::Counter { trace: Some(t), .. } if *t == ctx.trace_id));
    }

    #[test]
    fn nested_trace_contexts_shadow_and_restore() {
        let outer = TraceContext::new(10);
        let inner = TraceContext::new(20);
        let _a = with_trace(outer);
        {
            let _b = with_trace(inner);
            assert_eq!(current_trace(), Some(inner));
        }
        assert_eq!(current_trace(), Some(outer));
    }

    #[test]
    fn spans_on_spawned_threads_see_the_global_subscriber() {
        let _lock = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(RingSink::with_capacity(64));
        let sub = Arc::new(Subscriber::builder().sink(ring.clone()).build());
        assert!(install_global(sub));
        std::thread::scope(|s| {
            s.spawn(|| {
                let g = span!("worker");
                assert!(g.id().is_some());
            });
        });
        assert!(uninstall_global().is_some());
        let events = ring.drain();
        assert_eq!(events.len(), 2);
    }
}
