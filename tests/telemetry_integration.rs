//! End-to-end telemetry integration: a WSN model repair with the JSONL
//! sink installed must emit a `tml-trace/v1` stream whose spans balance,
//! whose phase durations sum to the parent repair span (within tolerance —
//! the phases cover everything but loop glue), and whose root span agrees
//! with externally measured wall time.

use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use trusted_ml::checker::Checker;
use trusted_ml::models::IntervalDtmc;
use trusted_ml::repair::ModelRepair;
use trusted_ml::telemetry::json::{self, Value};
use trusted_ml::telemetry::sink::JsonlSink;
use trusted_ml::telemetry::Subscriber;
use trusted_ml::wsn::{attempts_property, build_dtmc, repair_template, WsnConfig};

/// A `Write` target the test can read back after the sink is done with it.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn wsn_repair_trace_phases_sum_to_the_parent_span() {
    let _lock = trusted_ml::telemetry::TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let sink = JsonlSink::new(buf.clone(), "telemetry-integration-test").expect("meta line");
    let sub = Arc::new(Subscriber::builder().sink(Arc::new(sink)).build());
    assert!(trusted_ml::telemetry::install_global(sub.clone()), "telemetry slot free");

    let config = WsnConfig::default();
    let chain = build_dtmc(&config).expect("wsn chain");
    let template = repair_template(&config).expect("wsn template");
    let start = Instant::now();
    let outcome = ModelRepair::new()
        .repair_dtmc(&chain, &attempts_property(40.0), &template)
        .expect("repair run");
    let wall_ns = start.elapsed().as_nanos() as u64;
    // A robust check of the chain's Wilson ball, so the naming walk below
    // also covers the robust solver's counters.
    let ball = IntervalDtmc::wilson_around(&chain, 0.95, 500.0).expect("wilson ball");
    Checker::new().check_interval_dtmc(&ball, &attempts_property(40.0)).expect("robust check");
    trusted_ml::telemetry::uninstall_global();
    assert!(outcome.verified, "the x=40 WSN repair verifies");

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf-8 trace");
    let mut lines = text.lines();
    let meta = json::parse(lines.next().expect("meta line first")).expect("meta parses");
    assert_eq!(meta.get("schema").and_then(Value::as_str), Some("tml-trace/v1"));

    // Replay the event stream: every line valid JSON, every span balanced.
    let mut started: HashMap<u64, (String, Option<u64>)> = HashMap::new();
    let mut durations: HashMap<u64, u64> = HashMap::new();
    let mut counters = 0u64;
    for line in lines {
        let v = json::parse(line).expect("every trace line is valid JSON");
        match v.get("type").and_then(Value::as_str) {
            Some("span_start") => {
                let id = v.get("id").and_then(Value::as_u64).expect("span id");
                let name = v.get("name").and_then(Value::as_str).expect("span name").to_owned();
                let parent = v.get("parent").and_then(Value::as_u64);
                started.insert(id, (name, parent));
            }
            Some("span_end") => {
                let id = v.get("id").and_then(Value::as_u64).expect("span id");
                assert!(started.contains_key(&id), "span_end for unknown span {id}");
                durations.insert(id, v.get("dur_ns").and_then(Value::as_u64).expect("dur_ns"));
            }
            Some("counter") => counters += 1,
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert_eq!(started.len(), durations.len(), "every span start has a matching end");
    assert!(counters > 0, "counter events were recorded");

    // The root repair span and its phase children.
    let (&root_id, _) = started
        .iter()
        .find(|(_, (name, _))| name == "model_repair")
        .expect("root model_repair span");
    let root_dur = durations[&root_id];
    let phases: Vec<(&str, u64)> = started
        .iter()
        .filter(|(_, (_, parent))| *parent == Some(root_id))
        .map(|(id, (name, _))| (name.as_str(), durations[id]))
        .collect();
    for expected in ["model_repair.verify_initial", "model_repair.compile", "model_repair.solve"] {
        assert!(
            phases.iter().any(|(name, _)| *name == expected),
            "missing phase {expected}; saw {phases:?}"
        );
    }
    let phase_sum: u64 = phases.iter().map(|(_, d)| d).sum();
    assert!(
        phase_sum <= root_dur,
        "sequential phases cannot exceed their parent: {phase_sum} > {root_dur}"
    );
    assert!(
        phase_sum >= root_dur - root_dur / 5,
        "phases should cover >=80% of the repair span: {phase_sum} of {root_dur}"
    );
    assert!(root_dur <= wall_ns, "span duration exceeds measured wall time");
    assert!(
        root_dur >= wall_ns / 2,
        "root span misses most of the repair: {root_dur} of {wall_ns}"
    );

    // The metrics registry saw the same activity the trace did.
    let snapshot = sub.metrics_snapshot();
    assert!(snapshot.counter("solver.penalty.evaluations") > 0, "solver evaluations counted");
    for robust in ["checker.robust.solves", "checker.robust.sweeps", "checker.robust.blocks"] {
        assert!(snapshot.counter(robust) > 0, "{robust} counted");
    }
    assert!(
        snapshot.histogram("span.model_repair").is_some(),
        "root span recorded a duration histogram"
    );

    // Every metric the full pipeline emitted conforms to the
    // subsystem.object.action convention (DESIGN.md §14): a nonconforming
    // name added anywhere in the workspace fails here.
    let violations = trusted_ml::telemetry::naming::check_snapshot_names(&snapshot);
    assert!(violations.is_empty(), "metric naming convention violated: {violations:#?}");
}

// ---------------------------------------------------------------------
// Span-tree reconstruction property test.
//
// Random balanced span forests across interleaved threads, serialized as
// a tml-trace/v1 stream with a torn partial line appended (the `kill -9`
// signature), must rebuild losslessly: every span recovered with its
// exact duration, self-time equal to duration minus child time, child
// durations never exceeding their parent, and one trace group per
// thread's trace id.

mod span_tree_reconstruction {
    use proptest::prelude::*;
    use trusted_ml::telemetry::analysis::parse_trace_bytes;

    #[derive(Debug, Clone)]
    struct SpanTree {
        /// Self time beyond what the children cover, ns.
        slack: u64,
        children: Vec<SpanTree>,
    }

    fn tree_strategy() -> impl Strategy<Value = SpanTree> {
        let leaf = (1u64..1_000).prop_map(|slack| SpanTree { slack, children: vec![] });
        leaf.prop_recursive(3, 16, 3, |inner| {
            ((1u64..1_000), proptest::collection::vec(inner, 0..3))
                .prop_map(|(slack, children)| SpanTree { slack, children })
        })
    }

    /// Serializes one tree depth-first; returns the span's duration.
    /// Events are pushed as `(at_ns, line)` so threads can be merged by
    /// time afterwards.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        tree: &SpanTree,
        depth: usize,
        thread: u64,
        trace: u64,
        parent: Option<u64>,
        next_id: &mut u64,
        cursor: &mut u64,
        out: &mut Vec<(u64, String)>,
        emitted: &mut Vec<(u64, u64, u64)>, // (id, dur, children_dur)
    ) -> u64 {
        let id = *next_id;
        *next_id += 1;
        let start = *cursor;
        let name = format!("job.level{depth}");
        let parent_json = parent.map_or("null".to_string(), |p| p.to_string());
        out.push((
            start,
            format!(
                "{{\"type\":\"span_start\",\"id\":{id},\"parent\":{parent_json},\
                 \"name\":\"{name}\",\"thread\":{thread},\"at_ns\":{start},\
                 \"trace\":\"{trace:016x}\",\"fields\":{{}}}}"
            ),
        ));
        let mut children_dur = 0u64;
        for child in &tree.children {
            children_dur +=
                emit(child, depth + 1, thread, trace, Some(id), next_id, cursor, out, emitted);
        }
        let dur = children_dur + tree.slack;
        let end = start + dur;
        *cursor = end;
        out.push((
            end,
            format!(
                "{{\"type\":\"span_end\",\"id\":{id},\"name\":\"{name}\",\
                 \"thread\":{thread},\"at_ns\":{end},\"dur_ns\":{dur}}}"
            ),
        ));
        emitted.push((id, dur, children_dur));
        dur
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn interleaved_torn_traces_rebuild_losslessly(
            forests in proptest::collection::vec(tree_strategy(), 1..4),
            torn in (0u64..2).prop_map(|b| b == 1),
        ) {
            // One root tree per thread, each thread under its own trace id.
            let mut next_id = 1u64;
            let mut events: Vec<(u64, String)> = Vec::new();
            let mut emitted: Vec<(u64, u64, u64)> = Vec::new();
            for (t, tree) in forests.iter().enumerate() {
                let thread = t as u64 + 1;
                let trace = 0x1000 + thread;
                let mut cursor = 0u64;
                emit(tree, 0, thread, trace, None, &mut next_id, &mut cursor,
                     &mut events, &mut emitted);
            }
            // Merge threads by time; the stable sort interleaves threads
            // while preserving each thread's own event order.
            events.sort_by_key(|(at, _)| *at);

            let mut text = String::from(
                "{\"type\":\"meta\",\"schema\":\"tml-trace/v1\",\"tool\":\"proptest\"}\n",
            );
            for (_, line) in &events {
                text.push_str(line);
                text.push('\n');
            }
            if torn {
                // A partial final line with no newline: exactly what a
                // kill -9 mid-write leaves behind.
                text.push_str("{\"type\":\"span_star");
            }

            let analysis = parse_trace_bytes(&[("t.jsonl", text.as_bytes())])
                .expect("torn tail is tolerated, everything else parses");
            prop_assert_eq!(analysis.torn_tails, usize::from(torn));
            prop_assert_eq!(analysis.spans.len(), emitted.len(), "lossless rebuild");

            for (id, dur, children_dur) in &emitted {
                let span = analysis.spans.iter().find(|s| s.id == *id)
                    .expect("every emitted span is recovered");
                prop_assert!(!span.open, "balanced spans close");
                prop_assert_eq!(span.dur_ns, *dur, "exact duration");
                prop_assert!(*children_dur <= *dur, "children fit in the parent");
                prop_assert_eq!(span.self_ns, dur - children_dur,
                    "self time is duration minus child time");
                let recovered_children: u64 = span.children.iter()
                    .map(|&c| analysis.spans[c].dur_ns).sum();
                prop_assert_eq!(recovered_children, *children_dur,
                    "recovered child durations sum to what was emitted");
            }

            // One group per thread trace, holding that thread's spans.
            prop_assert_eq!(analysis.groups.len(), forests.len());
            for (t, _) in forests.iter().enumerate() {
                let trace = 0x1000 + t as u64 + 1;
                let group = analysis.group(trace).expect("group per trace id");
                let expected = analysis.spans.iter()
                    .filter(|s| s.trace == Some(trace)).count();
                prop_assert_eq!(group.spans, expected);
                prop_assert_eq!(group.roots.len(), 1, "one root per thread");
            }
        }
    }
}

#[test]
fn disabled_telemetry_changes_no_repair_outcome() {
    // No subscriber installed: the instrumented repair must behave exactly
    // as before telemetry existed. The lock keeps the traced test's global
    // subscriber from seeing this repair's spans.
    let _lock = trusted_ml::telemetry::TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).expect("wsn chain");
    let template = repair_template(&config).expect("wsn template");
    let outcome = ModelRepair::new()
        .repair_dtmc(&chain, &attempts_property(40.0), &template)
        .expect("repair run");
    assert!(outcome.verified);
    assert_eq!(outcome.parameters.len(), 2);
}
