//! One workload run: set-up, warm-up, an untraced timed loop for the
//! end-to-end metrics, then (when traced) a traced loop for the per-layer
//! metrics.
//!
//! The load is one closed-loop client: each operation starts when the
//! previous one (and its check) has finished. Every operation and group
//! of set-ups is followed by one run of the yardstick, which scales its
//! time to the reference speed (see `yardstick.rs`). The traced loop installs a
//! global subscriber whose ring buffer is drained after every operation,
//! outside the timed region; the drained events are written as
//! `tml-trace/v1` JSONL and read back with `tml_telemetry::analysis`, so
//! the layer numbers come from the same files a user of `tml trace` reads.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tml_telemetry::analysis::parse_trace_bytes;
use tml_telemetry::json;
use tml_telemetry::sink::RingSink;
use tml_telemetry::{span, Event, Subscriber, TraceContext};

use crate::stats::{median, quantile};
use crate::workloads::{reset_peak_rss, vm_hwm_kb, OpFacts, Workload};
use crate::yardstick::{Yardstick, REFERENCE_MS};

/// Set-up is timed more than once. The first set-up builds the workload
/// that runs; more are timed, and dropped, at the input-cycle boundaries of
/// the timed loop, taking up to `SETUP_SHARE` of the loop's time, so they
/// see the speeds the operations see. The set-ups of one boundary, at most
/// `SETUPS_PER_BOUNDARY`, run back to back and are timed as one: a
/// set-up of microseconds timed alone, just after the yardstick has
/// flushed the caches, measures mostly the refill, which follows the
/// host's memory contention more than its speed. `setup_s` is the median
/// of at least `SETUPS` timings, each a set-up's share of its group.
const SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.15;
const SETUPS_PER_BOUNDARY: usize = 100;
/// Checked but untimed operations before the timed loop (at least one
/// input cycle).
const WARMUP: usize = 5;
/// Share of a traced run's seconds given to the untraced timed loop; the
/// traced loop gets the rest. An untraced run gives all its seconds to the
/// untraced loop. Both loops run whole input cycles, so every run times
/// each input of the workload equally often.
const UNTRACED_SHARE: f64 = 0.75;
/// Ring slots: room for the largest operation's events (a wsn-repair
/// operation records up to about 150k) with margin.
const RING_CAPACITY: usize = 1 << 19;

/// Layers of the self-time table: the workspace crates a span belongs to.
pub const LAYERS: [&str; 10] = [
    "models",
    "logic",
    "checker",
    "numerics",
    "core",
    "parametric",
    "optimizer",
    "runtime",
    "cli",
    "other",
];

/// The layer a span's self time is charged to. The bench's own
/// `bench.<layer>.<call>` spans name their layer; program spans are
/// charged by their first name component. `bench.op` is the operation
/// itself, shown as the wall-time column instead.
fn layer_of(span: &str) -> Option<&'static str> {
    if span == "bench.op" {
        return None;
    }
    let head = match span.strip_prefix("bench.") {
        Some(rest) => rest.split('.').next().unwrap_or(""),
        None => span.split('.').next().unwrap_or(""),
    };
    Some(match head {
        "models" => "models",
        "logic" => "logic",
        "checker" => "checker",
        "numerics" => "numerics",
        "core" | "model_repair" | "data_repair" | "reward_repair" | "pipeline" => "core",
        "parametric" => "parametric",
        "solver" => "optimizer",
        "runtime" => "runtime",
        "cli" => "cli",
        _ => "other",
    })
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunOutcome {
    pub attempted: usize,
    pub failed: usize,
    /// `op I: reason`, for the first failures.
    pub failures: Vec<String>,
    /// Operation wall times of the timed and the traced loop, in ms, in
    /// operation order, and the timed loop's reference-scaled times.
    pub samples_ms: Vec<f64>,
    pub ref_samples_ms: Vec<f64>,
    pub traced_samples_ms: Vec<f64>,
    /// Inputs per cycle (consecutive operations use consecutive inputs).
    pub cycle: usize,
    /// Set-ups built and timed for `setup_s`, in all.
    pub setups: usize,
    /// Every end-to-end and per-layer metric, by name.
    pub metrics: BTreeMap<String, f64>,
    /// The trace files of the first traced operation, `(name, bytes)`.
    pub first_trace: Vec<(String, Vec<u8>)>,
}

impl RunOutcome {
    fn fail(&mut self, i: usize, reason: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(format!("op {i}: {reason}"));
        }
    }

    /// Checks operation `i`'s result, recording a failure when it is wrong.
    fn record<W: Workload>(
        &mut self,
        w: &mut W,
        i: usize,
        out: Result<W::Out, String>,
    ) -> Option<OpFacts> {
        self.attempted += 1;
        match out.and_then(|o| w.check(i, o)) {
            Ok(facts) => Some(facts),
            Err(reason) => {
                self.fail(i, reason);
                None
            }
        }
    }
}

/// One timing: wall time and reference-scaled time, in ms.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall_ms: f64,
    ref_ms: f64,
}

fn wall(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.wall_ms).collect()
}

fn scaled(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| t.ref_ms).collect()
}

/// Times closures against the yardstick.
struct Clock {
    yardstick: Yardstick,
    /// The yardstick's time just before the closure now timed.
    last_ms: f64,
    /// Every yardstick time of the run.
    yardstick_ms: Vec<f64>,
}

impl Clock {
    fn new() -> Clock {
        let mut yardstick = Yardstick::new();
        let last_ms = yardstick.time_ms();
        Clock { yardstick, last_ms, yardstick_ms: vec![last_ms] }
    }

    /// Runs `f`, then the yardstick. The reference-scaled time is the wall
    /// time over the mean of the yardstick's times just before and just
    /// after, times `REFERENCE_MS`.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let t = Instant::now();
        let out = f();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = self.yardstick.time_ms();
        let speed = (self.last_ms + after) / 2.0;
        self.last_ms = after;
        self.yardstick_ms.push(after);
        (out, Timing { wall_ms, ref_ms: wall_ms * REFERENCE_MS / speed })
    }
}

/// Runs the workload `setup` builds for about `seconds` seconds of
/// measurement; with `traced`, a quarter of them in the traced loop.
/// `seed` also derives the traced operations' trace ids.
pub fn drive<W: Workload>(
    seed: u64,
    seconds: f64,
    traced: bool,
    setup: impl Fn() -> Result<W, String>,
) -> Result<RunOutcome, String> {
    let mut run = RunOutcome::default();
    let mut clock = Clock::new();

    let mut setups = Vec::new();
    let mut w = timed_setups(&mut clock, &setup, 1, &mut setups)?.remove(0);
    let mut built = 1;
    let cycle = w.cycle();
    // From here the high-water mark is the operations', until the first
    // set-up of the timed loop, when it is read.
    reset_peak_rss()?;
    let mut own_rss_kb = None;

    // Warm-up sees every input at least once, so the outputs later
    // operations must repeat are fixed before timing starts.
    let mut i = 0;
    for _ in 0..WARMUP.max(cycle) {
        let (out, _) = clock.time(|| w.op(i, false));
        run.record(&mut w, i, out);
        i += 1;
    }

    let loop_s = if traced { seconds * UNTRACED_SHARE } else { seconds };
    let mut ops = Vec::new();
    let mut child_rss_kb = 0;
    let mut setups_in_loop_s = 0.0;
    // What one set-up (and, in the loop, its share of the yardstick) took
    // last, in s.
    let mut setup_cost_s = setups[0].wall_ms / 1e3;
    let start = Instant::now();
    while ops.is_empty()
        || !ops.len().is_multiple_of(cycle)
        || start.elapsed().as_secs_f64() < loop_s
    {
        let (out, timing) = clock.time(|| w.op(i, false));
        ops.push(timing);
        if let Some(facts) = run.record(&mut w, i, out) {
            child_rss_kb = child_rss_kb.max(facts.child_peak_rss_kb.unwrap_or(0));
        }
        i += 1;
        if ops.len().is_multiple_of(cycle) {
            let budget_s = SETUP_SHARE * start.elapsed().as_secs_f64() - setups_in_loop_s;
            let n = ((budget_s / setup_cost_s) as usize).min(SETUPS_PER_BOUNDARY);
            if n > 0 {
                own_rss_kb.get_or_insert_with(|| vm_hwm_kb("self").unwrap_or(0));
                let t = Instant::now();
                drop(timed_setups(&mut clock, &setup, n, &mut setups)?);
                let spent_s = t.elapsed().as_secs_f64();
                setup_cost_s = spent_s / n as f64;
                setups_in_loop_s += spent_s;
                built += n;
            }
        }
    }
    // Spawned programs report their own peak; in-process workloads this
    // process's over warm-up and at least one input cycle (an input's
    // operation needs the same memory every time), less the yardstick's.
    let own_rss_kb = own_rss_kb.unwrap_or_else(|| vm_hwm_kb("self").unwrap_or(0));
    let own_rss_kb = own_rss_kb.saturating_sub(clock.yardstick.resident_bytes() as u64 / 1024);
    let rss_kb = if child_rss_kb > 0 { child_rss_kb } else { own_rss_kb };
    while setups.len() < SETUPS {
        drop(timed_setups(&mut clock, &setup, 1, &mut setups)?);
        built += 1;
    }

    let op_ref = scaled(&ops);
    let mean_ref_ms = op_ref.iter().sum::<f64>() / op_ref.len() as f64;
    let m = &mut run.metrics;
    m.insert("setup_s".into(), median(&scaled(&setups)) / 1e3);
    m.insert("op_ref_ms_p50".into(), median(&op_ref));
    m.insert("op_ref_ms_p75".into(), quantile(&op_ref, 0.75));
    m.insert("ref_ops_per_s".into(), 1e3 / mean_ref_ms);
    m.insert("peak_rss_mb".into(), rss_kb as f64 / 1024.0);
    m.insert("host.op_wall_ms_p50".into(), median(&wall(&ops)));
    if traced {
        let traced = traced_loop(&mut w, &mut run, &mut clock, seed, &mut i, cycle, seconds)?;
        let m = &mut run.metrics;
        let traced_ref_p50 = median(&scaled(&traced.timings));
        m.insert("telemetry.traced_op_ms_p50".into(), median(&wall(&traced.timings)));
        m.insert("telemetry.overhead_pct".into(), (traced_ref_p50 / median(&op_ref) - 1.0) * 100.0);
        m.insert("telemetry.dropped_events".into(), traced.dropped as f64);
        for (name, (agg, values)) in traced.per_op {
            let v = match agg {
                Agg::Median => median(&values),
                Agg::Mean => values.iter().sum::<f64>() / values.len() as f64,
            };
            m.insert(name, v);
        }
        run.traced_samples_ms = wall(&traced.timings);
    }
    let m = &mut run.metrics;
    m.insert("host.yardstick_ms".into(), median(&clock.yardstick_ms));
    let attempted = run.attempted.max(1) as f64;
    m.insert("fail_frac".into(), run.failed as f64 / attempted);
    run.cycle = cycle;
    run.setups = built;
    run.samples_ms = wall(&ops);
    run.ref_samples_ms = op_ref;
    Ok(run)
}

/// Builds `n` workloads back to back, timed as one, and adds one set-up's
/// share of that time to `times`.
fn timed_setups<W>(
    clock: &mut Clock,
    setup: &impl Fn() -> Result<W, String>,
    n: usize,
    times: &mut Vec<Timing>,
) -> Result<Vec<W>, String> {
    let (built, t) = clock.time(|| (0..n).map(|_| setup()).collect::<Result<Vec<W>, String>>());
    let n = n as f64;
    times.push(Timing { wall_ms: t.wall_ms / n, ref_ms: t.ref_ms / n });
    built
}

/// How per-operation values become one per-layer number: times by their
/// median, counts by their mean over whole input cycles (which repeats
/// exactly when the program is deterministic).
#[derive(Debug, Clone, Copy)]
enum Agg {
    Median,
    Mean,
}

struct Traced {
    timings: Vec<Timing>,
    dropped: u64,
    per_op: BTreeMap<String, (Agg, Vec<f64>)>,
}

fn traced_loop<W: Workload>(
    w: &mut W,
    run: &mut RunOutcome,
    clock: &mut Clock,
    seed: u64,
    i: &mut usize,
    cycle: usize,
    seconds: f64,
) -> Result<Traced, String> {
    let ring = Arc::new(RingSink::with_capacity(RING_CAPACITY));
    let sub = Arc::new(Subscriber::builder().sink(ring.clone()).build());
    if !tml_telemetry::install_global(sub) {
        return Err("a telemetry subscriber is already installed".into());
    }
    let mut traced = Traced { timings: Vec::new(), dropped: 0, per_op: BTreeMap::new() };
    let start = Instant::now();
    let budget = seconds * (1.0 - UNTRACED_SHARE);
    while traced.timings.is_empty()
        || !traced.timings.len().is_multiple_of(cycle)
        || start.elapsed().as_secs_f64() < budget
    {
        let op = *i;
        *i += 1;
        let before = ring.total();
        let (out, timing) = clock.time(|| {
            let _trace = tml_telemetry::with_trace(TraceContext::derive(seed, op as u64));
            let _op = span!("bench.op", op = op);
            w.op(op, true)
        });
        let wall = timing.wall_ms;
        let events = ring.drain();
        let dropped = ring.total() - before - events.len() as u64;
        let facts = run.record(w, op, out);
        // Discard what the check itself traced.
        ring.drain();
        traced.timings.push(timing);
        traced.dropped += dropped;
        let Some(mut facts) = facts else { continue };
        if dropped > 0 {
            run.fail(op, format!("the trace ring dropped {dropped} events"));
            continue;
        }
        let mut files = vec![("bench".to_owned(), events_to_jsonl(&events))];
        if let Some(child) = facts.child_trace.take() {
            files.push(("tml".to_owned(), child));
        }
        match op_layer_values(&files, &facts, wall) {
            Ok(values) => {
                for (name, agg, v) in values {
                    traced.per_op.entry(name).or_insert((agg, Vec::new())).1.push(v);
                }
            }
            Err(e) => run.fail(op, format!("trace analysis: {e}")),
        }
        if run.first_trace.is_empty() {
            run.first_trace = files;
        }
    }
    tml_telemetry::uninstall_global();
    Ok(traced)
}

fn events_to_jsonl(events: &[Event]) -> Vec<u8> {
    let mut out = Event::meta_line("tml_bench");
    out.push('\n');
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out.into_bytes()
}

/// Span and counter totals of one operation's trace files.
#[derive(Default)]
struct OpTrace {
    incl_ns: BTreeMap<String, u64>,
    self_ns: BTreeMap<String, u64>,
    count: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    layer_self_ns: BTreeMap<&'static str, u64>,
    spans: usize,
}

impl OpTrace {
    fn read(files: &[(String, Vec<u8>)]) -> Result<OpTrace, String> {
        let inputs: Vec<(&str, &[u8])> =
            files.iter().map(|(n, b)| (n.as_str(), b.as_slice())).collect();
        let analysis = parse_trace_bytes(&inputs)?;
        let mut t = OpTrace { spans: analysis.spans.len(), ..OpTrace::default() };
        for s in &analysis.spans {
            if s.open {
                return Err(format!("span {} never closed", s.name));
            }
            *t.incl_ns.entry(s.name.clone()).or_default() += s.dur_ns;
            *t.self_ns.entry(s.name.clone()).or_default() += s.self_ns;
            *t.count.entry(s.name.clone()).or_default() += 1;
            if let Some(layer) = layer_of(&s.name) {
                *t.layer_self_ns.entry(layer).or_default() += s.self_ns;
            }
        }
        // Counters are not part of the span forest; read them directly.
        for (_, bytes) in files {
            for line in String::from_utf8_lossy(bytes).lines() {
                if !line.starts_with("{\"type\":\"counter\"") {
                    continue;
                }
                let v = json::parse(line)?;
                let name = v.get("name").and_then(|n| n.as_str()).unwrap_or_default();
                let value = v.get("value").and_then(|n| n.as_u64()).unwrap_or(0);
                *t.counters.entry(name.to_owned()).or_default() += value;
            }
        }
        Ok(t)
    }

    fn incl_ms(&self, span: &str) -> f64 {
        self.incl_ns.get(span).copied().unwrap_or(0) as f64 / 1e6
    }

    fn self_ms(&self, span: &str) -> f64 {
        self.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6
    }

    fn count(&self, span: &str) -> f64 {
        self.count.get(span).copied().unwrap_or(0) as f64
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// The per-layer values of one traced operation. Every workload reports
/// every name (0 for layers it does not reach), so the output has the same
/// keys on every workload.
fn op_layer_values(
    files: &[(String, Vec<u8>)],
    facts: &OpFacts,
    wall_ms: f64,
) -> Result<Vec<(String, Agg, f64)>, String> {
    use Agg::{Mean, Median};
    let t = OpTrace::read(files)?;
    let fact =
        |name: &str| facts.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).unwrap_or(0.0);
    let parse_ms = t.incl_ms("bench.models.parse_model");
    let mb_per_s = if parse_ms > 0.0 { fact("text_bytes") / 1e6 / (parse_ms / 1e3) } else { 0.0 };
    let jobs = t.count("runtime.job");
    let job_ms = if jobs > 0.0 { t.incl_ms("runtime.job") / jobs } else { 0.0 };
    // Batch runs the program in a child process: its wall time outside
    // every job span is process start, argument parsing, report writing
    // and exit.
    let cli_ms = if jobs > 0.0 { wall_ms - t.incl_ms("runtime.job") } else { 0.0 };

    let mut v: Vec<(String, Agg, f64)> = [
        ("models.dsl.parse_ms", Median, parse_ms),
        ("models.dsl.mb_per_s", Median, mb_per_s),
        (
            "logic.pctl.parse_us",
            Median,
            (t.incl_ms("bench.logic.parse_formula") + t.incl_ms("bench.logic.parse_query")) * 1e3,
        ),
        ("checker.check_ms", Median, t.incl_ms("bench.checker.check_dtmc")),
        ("checker.robust_ms", Median, t.incl_ms("bench.checker.query_interval_dtmc")),
        ("checker.solve.sweeps", Mean, t.counter("checker.solve.sweeps")),
        ("checker.robust.sweeps", Mean, t.counter("checker.robust.sweeps")),
        ("numerics.scc_solve.self_ms", Median, t.self_ms("numerics.scc_solve")),
        ("numerics.scc.block.self_ms", Median, t.self_ms("numerics.scc.block")),
        ("numerics.scc.blocks", Mean, t.count("numerics.scc.block")),
        ("numerics.solve.sweeps", Mean, t.counter("numerics.solve.sweeps")),
        ("core.model_repair.penalty_ms", Median, t.incl_ms("bench.core.repair_penalty")),
        ("core.model_repair.lifting_ms", Median, t.incl_ms("bench.core.repair_lifting")),
        ("core.model_repair.penalty_evals", Mean, fact("penalty_evals")),
        ("core.model_repair.lifting_evals", Mean, fact("lifting_evals")),
        ("core.pipeline.learn.self_ms", Median, t.self_ms("pipeline.learn")),
        ("core.pipeline.verify.self_ms", Median, t.self_ms("pipeline.verify")),
        ("core.data_repair.self_ms", Median, t.self_ms("data_repair")),
        ("parametric.compile_tapes.self_ms", Median, t.self_ms("parametric.compile_tapes")),
        ("parametric.lifting.round.self_ms", Median, t.self_ms("parametric.lifting.round")),
        ("parametric.tape.compiles", Mean, t.counter("parametric.tape.compiles")),
        ("optimizer.solve.self_ms", Median, t.self_ms("solver.solve")),
        ("optimizer.restarts", Mean, t.counter("solver.penalty.restarts")),
        ("runtime.job_ms", Median, job_ms),
        ("runtime.jobs.satisfied", Mean, fact("jobs.satisfied")),
        ("runtime.jobs.data_repaired", Mean, fact("jobs.data_repaired")),
        ("runtime.jobs.unrepairable", Mean, fact("jobs.unrepairable")),
        ("runtime.jobs.failed", Mean, fact("jobs.failed")),
        ("runtime.attempt.failures", Mean, t.counter("runtime.attempt.failures")),
        ("runtime.journal_bytes_per_job", Mean, fact("journal_bytes_per_job")),
        ("cli.overhead_ms", Median, cli_ms),
        ("telemetry.spans_per_op", Mean, t.spans as f64),
    ]
    .into_iter()
    .map(|(n, a, x)| (n.to_owned(), a, x))
    .collect();
    for layer in LAYERS {
        let self_ms = if layer == "cli" {
            cli_ms
        } else {
            t.layer_self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
        };
        v.push((format!("layers.{layer}.self_ms"), Median, self_ms));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_charged_to_their_crate() {
        assert_eq!(layer_of("bench.models.parse_model"), Some("models"));
        assert_eq!(layer_of("numerics.scc.block"), Some("numerics"));
        assert_eq!(layer_of("model_repair.solve"), Some("core"));
        assert_eq!(layer_of("solver.restart"), Some("optimizer"));
        assert_eq!(layer_of("sim.batch"), Some("other"));
        assert_eq!(layer_of("bench.op"), None);
    }

    #[test]
    fn every_per_layer_metric_of_the_definition_is_produced() {
        let files = vec![("bench".to_owned(), events_to_jsonl(&[]))];
        let values = op_layer_values(&files, &OpFacts::default(), 1.0).unwrap();
        let mut produced: Vec<String> = values.into_iter().map(|(n, _, _)| n).collect();
        produced.extend(
            [
                "telemetry.traced_op_ms_p50",
                "telemetry.overhead_pct",
                "telemetry.dropped_events",
                "host.yardstick_ms",
                "host.op_wall_ms_p50",
            ]
            .map(String::from),
        );
        let listed: Vec<String> =
            crate::spec::Spec::builtin().per_layer.into_iter().map(|m| m.name).collect();
        produced.sort();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(produced, sorted);
    }
}
