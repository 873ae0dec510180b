//! `tml` — a small command-line front end for the trusted-ml workspace:
//! check PCTL properties, evaluate numeric queries and simulate models
//! written in the textual model format of `tml_models::dsl`.
//!
//! ```text
//! tml info     MODEL.tml
//! tml check    MODEL.tml 'P>=0.9 [ F "goal" ]'
//! tml query    MODEL.tml 'Rmax=? [ F "done" ]'
//! tml repair   MODEL.tml 'P>=0.95 [ F "goal" ]' --param v:-0.1:0.1 \
//!              --nudge 0:1:v:1 --nudge 0:2:v:-1 --strategy lifting
//! tml simulate MODEL.tml [STEPS] [SEED]
//! tml witness  MODEL.tml goal
//! tml batch    32 --journal batch.jsonl --report report.jsonl
//! tml batch    --resume batch.jsonl --report report.jsonl
//! tml serve    --journal serve.jsonl --addr 127.0.0.1:0 --workers 2
//! tml trace    run.jsonl [resumed.jsonl ...] [--folded]
//! ```
//!
//! Every command accepts `--trace-json PATH` (stream a `tml-trace/v1`
//! JSONL trace of spans and counters) and `--metrics` (print a metrics
//! summary table when the command finishes).
//!
//! Output to a reader that stops early (`tml info big.tml | head -1`) is
//! not an error: once stdout refuses a write, the rest of the output is
//! dropped quietly, and the command finishes and exits with its usual
//! code.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tml_checker::{Budget, CheckError, CheckResult, Checker, Diagnostics, RobustBracket};
use tml_conformance::sim::{SimOptions, Simulator};
use tml_logic::{parse_formula, parse_query};
use tml_models::dsl::{parse_model, ModelFile};
use tml_models::StochasticPolicy;
use tml_telemetry::sink::JsonlSink;
use tml_telemetry::{summary, Subscriber};

/// `print!` for command output, through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` for command output, through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once stdout has refused a write.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes command output to stdout. `print!` panics when the write fails,
/// which it does with `BrokenPipe` as soon as the reader of a pipe exits.
/// Here the first failure instead drops all later output: a closed pipe
/// silently, any other error with one line on stderr.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(UsageError(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  tml info     MODEL            show model statistics
  tml check    MODEL PROPERTY   check a PCTL property (exit code 1 if violated)
  tml query    MODEL QUERY      evaluate a numeric query (P=?, Rmax=?, ...)
  tml repair   MODEL PROPERTY   perturb transition probabilities (within the
                                --param/--nudge template) until PROPERTY holds,
                                minimizing the Frobenius cost (exit code 1 if
                                infeasible or the budget ran out)
  tml simulate MODEL [STEPS] [SEED]
                                sample one trajectory (MDPs use the uniform policy)
  tml witness  MODEL LABEL      most probable path to a LABEL state (DTMCs)
  tml batch    COUNT            run COUNT seeded learn/verify/repair jobs with
                                per-job isolation, retries and a write-ahead
                                journal (schema tml-journal/v1)
  tml batch    --resume JOURNAL continue an interrupted batch from its journal;
                                the final report is byte-identical to an
                                uninterrupted run
  tml serve    --journal PATH   run the repair service: HTTP/1.1 JSON admission
                                (POST /v1/jobs) over the same write-ahead
                                journal; kill -9 + restart on the journal
                                resumes byte-identically
  tml trace    FILE...          analyze tml-trace/v1 JSONL files: span trees
                                grouped by trace id, self vs child time and a
                                critical-path summary; several files (e.g. a
                                crashed run plus its resume) re-link through
                                their shared trace ids
  tml help                      print this help

global options:
  -h, --help         print this help and exit
  --trace-json PATH  stream a structured trace (schema tml-trace/v1, one
                     JSON object per line: spans with timing and parent
                     linkage, counters) to PATH
  --metrics          print a metrics summary table (counters, per-span
                     durations) after the command finishes

options (check/query):
  --deadline-ms MS   wall-clock budget; past it, a best-effort result is
                     returned and marked degraded instead of running on
  --max-evals N      cap on solver sweeps/iterations, same best-effort rule
  --serial           run single-threaded (disables the parallel numerics
                     sweeps; results are identical either way)

options (check):
  --simulate N       cross-check the verdict with N seeded Monte Carlo
                     trajectories (DTMC models; prints the confidence
                     interval and whether it corroborates the checker)

options (check/query/repair; robust semantics):
  --robust           interpret a point dtmc as the Wilson confidence ball
                     around it and require the property for EVERY member:
                     check and query print the [pessimistic, optimistic]
                     bracket, repair searches for the cheapest perturbation
                     whose whole ball satisfies the property (and prints the
                     non-robust cost next to it). Interval models (written
                     with lo..hi probabilities) take the robust path
                     without the flag.
  --confidence C     per-transition Wilson coverage level in (0,1)
                     (default 0.95)
  --samples N        effective observations behind each transition
                     estimate (default 100)

options (repair; dtmc models):
  --param NAME:LO:HI           declare a repair parameter and its admissible
                               range (repeatable; at least one required)
  --nudge FROM:TO:PARAM:COEFF  perturb p(FROM->TO) by COEFF * PARAM
                               (repeatable; at least one required)
  --strategy S                 penalty (default; the paper's multi-start
                               local search), lifting (branch-and-refine
                               region verification with a sound optimality
                               certificate) or auto (lifting when the
                               property compiles symbolically)

options (batch):
  --corpus-seed S    seed deriving every job (default 0)
  --journal PATH     write-ahead journal file (flushed per record; required
                     for --resume and --kill-after)
  --report PATH      write the deterministic final report here (default:
                     printed to stdout)
  --retries N        attempts per job before it is reported failed (default 3)
  --workers N        worker threads (default 2; the report does not depend
                     on this)
  --chaos SPEC       deterministic fault plan, e.g. 'panic=0.2,nan=0.1,seed=7'
  --kill-after N     simulate a crash: exit(137) after N jobs conclude
  --resume JOURNAL   replay a journal and finish the interrupted batch

options (serve; also honours --corpus-seed, --retries, --workers, --chaos,
--kill-after and the required --journal):
  --addr ADDR        bind address (default 127.0.0.1:0; the bound address is
                     printed to stdout on startup)
  --queue-depth N    bounded admission queue: job N+1 is shed with
                     429 Retry-After instead of buffering (default 64)
  --drain-ms MS      graceful-shutdown budget: SIGTERM/SIGINT (or
                     POST /admin/drain) stops admission, gives in-flight jobs
                     this long, journals the rest and exits 0 (default 5000)
  --request-log PATH write a tml-serve/v1 request log (one JSON object per
                     line, contiguous seq)

options (trace):
  --folded           print folded stacks (name;path count) aggregated by
                     span self-time, ready for flamegraph tooling, instead
                     of the per-trace summary";

#[derive(Debug)]
struct UsageError(String);

impl From<String> for UsageError {
    fn from(s: String) -> Self {
        UsageError(s)
    }
}

impl From<CheckError> for UsageError {
    fn from(e: CheckError) -> Self {
        UsageError(e.to_string())
    }
}

/// Flags shared by every command, parsed off the raw argument list.
struct CliOptions {
    budget: Budget,
    trace_json: Option<String>,
    metrics: bool,
    folded: bool,
    help: bool,
    simulate: Option<u64>,
    batch: BatchFlags,
    serve: ServeFlags,
    repair: RepairFlags,
    robust: RobustFlags,
}

/// Flags selecting robust (uncertainty-set) semantics for `check` and
/// `repair` on point DTMC models: the model is wrapped in the Wilson
/// confidence ball before checking, and repairs must hold for every member.
#[derive(Default)]
struct RobustFlags {
    enabled: bool,
    confidence: Option<f64>,
    samples: Option<f64>,
}

impl RobustFlags {
    /// The validated `(confidence, sample_size)` pair, defaulting to
    /// `(0.95, 100)` when the flags were not given.
    fn spec(&self) -> Result<(f64, f64), UsageError> {
        let confidence = self.confidence.unwrap_or(0.95);
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(UsageError(format!("--confidence {confidence} must be in (0, 1)")));
        }
        let samples = self.samples.unwrap_or(100.0);
        if !(samples > 0.0 && samples.is_finite()) {
            return Err(UsageError(format!("--samples {samples} must be positive")));
        }
        Ok((confidence, samples))
    }
}

/// Flags specific to `tml repair`; the raw `--param`/`--nudge` specs are
/// validated by the command (so errors name the offending spec).
#[derive(Default)]
struct RepairFlags {
    params: Vec<String>,
    nudges: Vec<String>,
    strategy: Option<String>,
}

/// Flags specific to `tml serve` (the service also reuses most of the
/// batch flags: seed, retries, workers, chaos, kill-after, journal).
struct ServeFlags {
    addr: String,
    queue_depth: usize,
    drain_ms: u64,
    request_log: Option<String>,
}

impl Default for ServeFlags {
    fn default() -> Self {
        ServeFlags {
            addr: "127.0.0.1:0".into(),
            queue_depth: 64,
            drain_ms: 5000,
            request_log: None,
        }
    }
}

/// Flags specific to `tml batch`.
struct BatchFlags {
    corpus_seed: u64,
    journal: Option<String>,
    report: Option<String>,
    retries: u32,
    workers: u32,
    chaos: Option<String>,
    kill_after: Option<u64>,
    resume: Option<String>,
}

impl Default for BatchFlags {
    fn default() -> Self {
        BatchFlags {
            corpus_seed: 0,
            journal: None,
            report: None,
            retries: 3,
            workers: 2,
            chaos: None,
            kill_after: None,
            resume: None,
        }
    }
}

/// Runs the CLI; the `Ok` value is the process exit code (0 success,
/// 1 property violated).
fn run(raw: &[String]) -> Result<u8, UsageError> {
    let (args, opts) = parse_flags(raw)?;
    if opts.help || args.first().map(String::as_str) == Some("help") {
        outln!("{USAGE}");
        return Ok(0);
    }
    let subscriber = install_telemetry(&opts)?;
    let result = dispatch(&args, &opts);
    if let Some(sub) = subscriber {
        // Flushes the JSONL sink; spans recorded after this are dropped.
        tml_telemetry::uninstall_global();
        if opts.metrics {
            let table = summary::render_metrics(&sub.metrics_snapshot());
            if table.is_empty() {
                outln!("no metrics recorded");
            } else {
                out!("{table}");
            }
        }
    }
    result
}

fn dispatch(args: &[String], opts: &CliOptions) -> Result<u8, UsageError> {
    let cmd = args.first().ok_or_else(|| UsageError("missing command".into()))?;
    match cmd.as_str() {
        "info" => info(arg(args, 1, "MODEL")?).map(|()| 0),
        "check" => check(arg(args, 1, "MODEL")?, arg(args, 2, "PROPERTY")?, opts),
        "query" => query(arg(args, 1, "MODEL")?, arg(args, 2, "QUERY")?, opts).map(|()| 0),
        "repair" => repair(arg(args, 1, "MODEL")?, arg(args, 2, "PROPERTY")?, opts),
        "simulate" => simulate(
            arg(args, 1, "MODEL")?,
            args.get(2).map(String::as_str),
            args.get(3).map(String::as_str),
        )
        .map(|()| 0),
        "witness" => witness(arg(args, 1, "MODEL")?, arg(args, 2, "LABEL")?).map(|()| 0),
        "batch" => batch(args.get(1).map(String::as_str), &opts.batch),
        "serve" => serve(&opts.batch, &opts.serve),
        "trace" => trace_analyze(&args[1..], opts.folded).map(|()| 0),
        other => Err(UsageError(format!("unknown command {other:?}"))),
    }
}

/// Strips the global flags (accepted anywhere on the command line); budget
/// flags fold into a [`Budget`], `--serial` caps the rayon stand-in's
/// thread count at one for the rest of the process.
fn parse_flags(raw: &[String]) -> Result<(Vec<String>, CliOptions), UsageError> {
    let mut args = Vec::with_capacity(raw.len());
    let mut opts = CliOptions {
        budget: Budget::unlimited(),
        trace_json: None,
        metrics: false,
        folded: false,
        help: false,
        simulate: None,
        batch: BatchFlags::default(),
        serve: ServeFlags::default(),
        repair: RepairFlags::default(),
        robust: RobustFlags::default(),
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => opts.help = true,
            "--metrics" => opts.metrics = true,
            "--folded" => opts.folded = true,
            "--serial" => std::env::set_var("RAYON_NUM_THREADS", "1"),
            "--trace-json" => {
                let path =
                    it.next().ok_or_else(|| UsageError("--trace-json needs a path".into()))?;
                opts.trace_json = Some(path.clone());
            }
            "--deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or_else(|| UsageError("--deadline-ms needs a value".into()))?
                    .parse()
                    .map_err(|_| UsageError("--deadline-ms must be an integer".into()))?;
                opts.budget = opts.budget.with_deadline(Duration::from_millis(ms));
            }
            "--max-evals" => {
                let n: u64 = it
                    .next()
                    .ok_or_else(|| UsageError("--max-evals needs a value".into()))?
                    .parse()
                    .map_err(|_| UsageError("--max-evals must be an integer".into()))?;
                opts.budget = opts.budget.with_max_evaluations(n);
            }
            "--corpus-seed" => {
                opts.batch.corpus_seed = parse_num(it.next(), "--corpus-seed")?;
            }
            "--retries" => {
                let n: u32 = parse_num(it.next(), "--retries")?;
                if n == 0 {
                    return Err(UsageError("--retries needs at least one attempt".into()));
                }
                opts.batch.retries = n;
            }
            "--workers" => {
                let n: u32 = parse_num(it.next(), "--workers")?;
                if n == 0 {
                    return Err(UsageError("--workers needs at least one thread".into()));
                }
                opts.batch.workers = n;
            }
            "--kill-after" => {
                let n: u64 = parse_num(it.next(), "--kill-after")?;
                if n == 0 {
                    return Err(UsageError("--kill-after needs at least one job".into()));
                }
                opts.batch.kill_after = Some(n);
            }
            "--journal" => {
                let path = it.next().ok_or_else(|| UsageError("--journal needs a path".into()))?;
                opts.batch.journal = Some(path.clone());
            }
            "--report" => {
                let path = it.next().ok_or_else(|| UsageError("--report needs a path".into()))?;
                opts.batch.report = Some(path.clone());
            }
            "--chaos" => {
                let spec = it.next().ok_or_else(|| UsageError("--chaos needs a spec".into()))?;
                opts.batch.chaos = Some(spec.clone());
            }
            "--resume" => {
                let path = it.next().ok_or_else(|| UsageError("--resume needs a path".into()))?;
                opts.batch.resume = Some(path.clone());
            }
            "--addr" => {
                let addr = it.next().ok_or_else(|| UsageError("--addr needs an address".into()))?;
                opts.serve.addr = addr.clone();
            }
            "--queue-depth" => {
                let n: usize = parse_num(it.next(), "--queue-depth")?;
                if n == 0 {
                    return Err(UsageError("--queue-depth needs at least one slot".into()));
                }
                opts.serve.queue_depth = n;
            }
            "--drain-ms" => {
                opts.serve.drain_ms = parse_num(it.next(), "--drain-ms")?;
            }
            "--request-log" => {
                let path =
                    it.next().ok_or_else(|| UsageError("--request-log needs a path".into()))?;
                opts.serve.request_log = Some(path.clone());
            }
            "--param" => {
                let spec =
                    it.next().ok_or_else(|| UsageError("--param needs NAME:LO:HI".into()))?;
                opts.repair.params.push(spec.clone());
            }
            "--nudge" => {
                let spec = it
                    .next()
                    .ok_or_else(|| UsageError("--nudge needs FROM:TO:PARAM:COEFF".into()))?;
                opts.repair.nudges.push(spec.clone());
            }
            "--strategy" => {
                let name = it.next().ok_or_else(|| UsageError("--strategy needs a name".into()))?;
                opts.repair.strategy = Some(name.clone());
            }
            "--robust" => opts.robust.enabled = true,
            "--confidence" => {
                let v: f64 = it
                    .next()
                    .ok_or_else(|| UsageError("--confidence needs a level in (0, 1)".into()))?
                    .parse()
                    .map_err(|_| UsageError("--confidence must be a number".into()))?;
                opts.robust.confidence = Some(v);
            }
            "--samples" => {
                let v: f64 = it
                    .next()
                    .ok_or_else(|| UsageError("--samples needs a sample size".into()))?
                    .parse()
                    .map_err(|_| UsageError("--samples must be a number".into()))?;
                opts.robust.samples = Some(v);
            }
            "--simulate" => {
                let n: u64 = it
                    .next()
                    .ok_or_else(|| UsageError("--simulate needs a trajectory count".into()))?
                    .parse()
                    .map_err(|_| UsageError("--simulate must be an integer".into()))?;
                if n == 0 {
                    return Err(UsageError("--simulate needs at least one trajectory".into()));
                }
                opts.simulate = Some(n);
            }
            other if other.starts_with("--") => {
                return Err(UsageError(format!("unknown option {other:?}")));
            }
            _ => args.push(a.clone()),
        }
    }
    Ok((args, opts))
}

/// Installs the global telemetry subscriber when `--trace-json` or
/// `--metrics` asks for one. Returns `None` (telemetry stays disabled, one
/// atomic load per would-be span) when neither flag is given.
fn install_telemetry(opts: &CliOptions) -> Result<Option<Arc<Subscriber>>, UsageError> {
    if opts.trace_json.is_none() && !opts.metrics {
        return Ok(None);
    }
    let mut builder = Subscriber::builder();
    if let Some(path) = &opts.trace_json {
        let file = std::fs::File::create(path)
            .map_err(|e| UsageError(format!("cannot create trace file {path:?}: {e}")))?;
        let sink = JsonlSink::new(std::io::BufWriter::new(file), "tml")
            .map_err(|e| UsageError(format!("cannot write trace file {path:?}: {e}")))?;
        builder = builder.sink(Arc::new(sink));
    }
    let sub = Arc::new(builder.build());
    if !tml_telemetry::install_global(sub.clone()) {
        return Err(UsageError("a telemetry subscriber is already installed".into()));
    }
    Ok(Some(sub))
}

fn parse_num<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> Result<T, UsageError> {
    value
        .ok_or_else(|| UsageError(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| UsageError(format!("{flag} must be a non-negative integer")))
}

fn arg<'a>(args: &'a [String], i: usize, name: &str) -> Result<&'a str, UsageError> {
    args.get(i).map(String::as_str).ok_or_else(|| UsageError(format!("missing {name} argument")))
}

fn load(path: &str) -> Result<ModelFile, UsageError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| UsageError(format!("cannot read {path:?}: {e}")))?;
    parse_model(&source).map_err(|e| UsageError(format!("{path}: {e}")))
}

fn info(path: &str) -> Result<(), UsageError> {
    let model = load(path)?;
    outln!("kind:    {}", model.kind());
    outln!("states:  {}", model.num_states());
    match &model {
        ModelFile::Dtmc(m) => {
            outln!("transitions: {}", m.num_transitions());
            outln!("initial: {}", m.initial_state());
            let labels: Vec<&str> = m.labeling().labels().collect();
            outln!("labels:  {}", labels.join(", "));
            let rewards: Vec<&str> = m.reward_structures().map(|r| r.name()).collect();
            outln!("rewards: {}", rewards.join(", "));
        }
        ModelFile::Mdp(m) => {
            outln!("choices: {}", m.total_choices());
            outln!("actions: {}", m.action_names().join(", "));
            outln!("initial: {}", m.initial_state());
            let labels: Vec<&str> = m.labeling().labels().collect();
            outln!("labels:  {}", labels.join(", "));
            let rewards: Vec<&str> = m.reward_structures().map(|r| r.name()).collect();
            outln!("rewards: {}", rewards.join(", "));
        }
        ModelFile::IntervalDtmc(m) => {
            outln!("transitions: {}", m.num_transitions());
            outln!("initial: {}", m.initial_state());
            let labels: Vec<&str> = m.labeling().labels().collect();
            outln!("labels:  {}", labels.join(", "));
            let rewards: Vec<&str> = m.reward_structures().map(|r| r.name()).collect();
            outln!("rewards: {}", rewards.join(", "));
        }
        ModelFile::IntervalMdp(m) => {
            outln!("actions: {}", m.action_names().join(", "));
            outln!("initial: {}", m.initial_state());
            let labels: Vec<&str> = m.labeling().labels().collect();
            outln!("labels:  {}", labels.join(", "));
            let rewards: Vec<&str> = m.reward_structures().map(|r| r.name()).collect();
            outln!("rewards: {}", rewards.join(", "));
        }
    }
    Ok(())
}

fn check(path: &str, property: &str, opts: &CliOptions) -> Result<u8, UsageError> {
    let model = load(path)?;
    let phi = parse_formula(property).map_err(|e| UsageError(e.to_string()))?;
    let checker = Checker::new().with_budget(opts.budget.clone());
    // Interval models (and --robust point chains, wrapped in their Wilson
    // confidence ball) take the robust path: a [pessimistic, optimistic]
    // bracket over every member of the uncertainty set.
    let ball = robust_ball(&model, &opts.robust)?;
    let holds = match (&model, &ball) {
        (_, Some(ball)) => report_robust_check(&phi, &checker.check(ball, &phi)?),
        (ModelFile::IntervalDtmc(m), None) => report_robust_check(&phi, &checker.check(m, &phi)?),
        (ModelFile::IntervalMdp(m), None) => report_robust_check(&phi, &checker.check(m, &phi)?),
        (ModelFile::Dtmc(m), None) => report_check(&phi, &checker.check(m, &phi)?),
        (ModelFile::Mdp(m), None) => report_check(&phi, &checker.check(m, &phi)?),
    };
    if let Some(trajectories) = opts.simulate {
        simulate_cross_check(&model, &phi, trajectories)?;
    }
    // Distinguish "property violated" (exit 1) from usage errors (2).
    Ok(if holds { 0 } else { 1 })
}

/// Prints a nominal check and returns its verdict.
fn report_check(phi: &tml_logic::StateFormula, result: &CheckResult) -> bool {
    outln!("property:   {phi}");
    outln!("holds at initial state: {}", result.holds());
    outln!("satisfying states ({}): {:?}", result.count(), result.sat_states());
    if let Some(v) = result.value_at_initial() {
        outln!("value at initial state: {v}");
    }
    out!("{}", result.diagnostics().render_degradation());
    result.holds()
}

/// Prints a robust check and returns its verdict.
fn report_robust_check(phi: &tml_logic::StateFormula, result: &CheckResult<RobustBracket>) -> bool {
    outln!("property:   {phi}");
    outln!("robustly holds at initial state: {}", result.holds());
    outln!("robustly satisfying states ({})", result.count());
    if let Some((lo, hi)) = result.bracket_at_initial() {
        outln!("value bracket at initial state: [{lo}, {hi}]");
    }
    out!("{}", result.diagnostics().render_degradation());
    result.holds()
}

/// Monte Carlo cross-check for `check --simulate N`: re-estimates the
/// property on the same model with the conformance simulator and prints
/// the confidence interval next to the exact verdict.
fn simulate_cross_check(
    model: &ModelFile,
    phi: &tml_logic::StateFormula,
    trajectories: u64,
) -> Result<(), UsageError> {
    let ModelFile::Dtmc(m) = model else {
        outln!("simulation cross-check: skipped (simulation is defined for point dtmc models)");
        return Ok(());
    };
    let sim = Simulator::new(SimOptions { trajectories, ..SimOptions::default() });
    match sim.check_formula(m, phi) {
        Ok(check) => {
            let iv = check.interval();
            outln!(
                "simulation cross-check ({trajectories} trajectories): estimate {} in [{}, {}]",
                iv.estimate,
                iv.low,
                iv.high
            );
            outln!("simulation verdict: {:?}", check.verdict());
        }
        Err(e) => {
            outln!("simulation cross-check: unavailable ({e})");
        }
    }
    Ok(())
}

/// The Wilson confidence ball `--robust` wraps a point dtmc in (`None`
/// without the flag or for interval models); point MDPs have none.
fn robust_ball(
    model: &ModelFile,
    flags: &RobustFlags,
) -> Result<Option<tml_models::IntervalDtmc>, UsageError> {
    match model {
        ModelFile::Dtmc(m) if flags.enabled => {
            let (confidence, samples) = flags.spec()?;
            let ball = tml_models::IntervalDtmc::wilson_around(m, confidence, samples)
                .map_err(|e| UsageError(e.to_string()))?;
            outln!("robust: Wilson ball at {confidence} confidence, sample size {samples}");
            Ok(Some(ball))
        }
        ModelFile::Mdp(_) if flags.enabled => Err(UsageError(
            "--robust needs per-transition confidence intervals; point MDPs have none \
             (write an interval mdp model with lo..hi probabilities instead)"
                .into(),
        )),
        _ => Ok(None),
    }
}

fn query(path: &str, q: &str, opts: &CliOptions) -> Result<(), UsageError> {
    let model = load(path)?;
    let parsed = parse_query(q).map_err(|e| UsageError(e.to_string()))?;
    let checker = Checker::new().with_budget(opts.budget.clone());
    // Interval models (and --robust point chains, wrapped in their Wilson
    // confidence ball) answer with a robust bracket per state, not a value.
    let ball = robust_ball(&model, &opts.robust)?;
    match (&model, &ball) {
        (_, Some(b)) => report_bracket(&parsed, &checker.query(b, &parsed)?, b.initial_state()),
        (ModelFile::IntervalDtmc(m), None) => {
            report_bracket(&parsed, &checker.query(m, &parsed)?, m.initial_state())
        }
        (ModelFile::IntervalMdp(m), None) => {
            report_bracket(&parsed, &checker.query(m, &parsed)?, m.initial_state())
        }
        (ModelFile::Dtmc(m), None) => {
            report_values(&parsed, &checker.query(m, &parsed)?, m.initial_state())
        }
        (ModelFile::Mdp(m), None) => {
            report_values(&parsed, &checker.query(m, &parsed)?, m.initial_state())
        }
    }
    Ok(())
}

/// Prints a nominal query's value per state.
fn report_values(
    query: &tml_logic::Query,
    (values, diag): &(Vec<f64>, Diagnostics),
    initial: usize,
) {
    outln!("query: {query}");
    for (s, v) in values.iter().enumerate() {
        outln!("  state {s}: {v}");
    }
    outln!("value at initial state {initial}: {}", values[initial]);
    out!("{}", diag.render_degradation());
}

/// Prints a robust query's bracket per state.
fn report_bracket(
    query: &tml_logic::Query,
    (bracket, diag): &(RobustBracket, Diagnostics),
    initial: usize,
) {
    outln!("query: {query}");
    for s in 0..bracket.pessimistic.len() {
        let (lo, hi) = bracket.at(s);
        outln!("  state {s}: [{lo}, {hi}]");
    }
    let (lo, hi) = bracket.at(initial);
    outln!("bracket at initial state {initial}: [{lo}, {hi}]");
    out!("{}", diag.render_degradation());
}

/// `tml repair`: Model Repair over the perturbation template declared with
/// `--param`/`--nudge`. See `tml_core::ModelRepair` for the algorithm and
/// DESIGN.md §15 for the lifting strategy and its certificate.
fn repair(path: &str, property: &str, opts: &CliOptions) -> Result<u8, UsageError> {
    use tml_core::{
        ModelRepair, PerturbationTemplate, RepairOptions, RepairStatus, RepairStrategy,
    };

    let model = load(path)?;
    let ModelFile::Dtmc(m) = &model else {
        return Err(UsageError(
            "repair is defined for point dtmc models (--nudge addresses FROM:TO transitions; \
             use --robust to repair against an uncertainty ball around a point chain)"
                .into(),
        ));
    };
    let phi = parse_formula(property).map_err(|e| UsageError(e.to_string()))?;
    let flags = &opts.repair;
    if flags.params.is_empty() {
        return Err(UsageError("repair needs at least one --param NAME:LO:HI".into()));
    }
    if flags.nudges.is_empty() {
        return Err(UsageError("repair needs at least one --nudge FROM:TO:PARAM:COEFF".into()));
    }
    let strategy = match flags.strategy.as_deref() {
        None | Some("penalty") => RepairStrategy::Penalty,
        Some("lifting") => RepairStrategy::Lifting,
        Some("auto") => RepairStrategy::Auto,
        Some(other) => {
            return Err(UsageError(format!(
                "unknown strategy {other:?} (expected penalty, lifting or auto)"
            )));
        }
    };

    let mut template = PerturbationTemplate::new();
    let mut index = std::collections::HashMap::new();
    for spec in &flags.params {
        let parts: Vec<&str> = spec.split(':').collect();
        let [name, lo, hi] = parts[..] else {
            return Err(UsageError(format!("--param {spec:?}: expected NAME:LO:HI")));
        };
        let lo: f64 =
            lo.parse().map_err(|_| UsageError(format!("--param {spec:?}: LO must be a number")))?;
        let hi: f64 =
            hi.parse().map_err(|_| UsageError(format!("--param {spec:?}: HI must be a number")))?;
        if index.contains_key(name) {
            return Err(UsageError(format!("--param {spec:?}: duplicate parameter {name:?}")));
        }
        index.insert(name.to_owned(), template.parameter(name, lo, hi));
    }
    for spec in &flags.nudges {
        let parts: Vec<&str> = spec.split(':').collect();
        let [from, to, param, coeff] = parts[..] else {
            return Err(UsageError(format!("--nudge {spec:?}: expected FROM:TO:PARAM:COEFF")));
        };
        let from: usize = from
            .parse()
            .map_err(|_| UsageError(format!("--nudge {spec:?}: FROM must be a state index")))?;
        let to: usize = to
            .parse()
            .map_err(|_| UsageError(format!("--nudge {spec:?}: TO must be a state index")))?;
        let coeff: f64 = coeff
            .parse()
            .map_err(|_| UsageError(format!("--nudge {spec:?}: COEFF must be a number")))?;
        let &p = index
            .get(param)
            .ok_or_else(|| UsageError(format!("--nudge {spec:?}: unknown parameter {param:?}")))?;
        template
            .nudge(from, to, p, coeff)
            .map_err(|e| UsageError(format!("--nudge {spec}: {e}")))?;
    }

    let robust = if opts.robust.enabled {
        let (confidence, samples) = opts.robust.spec()?;
        Some(tml_core::RobustSpec { confidence, sample_size: samples })
    } else {
        None
    };
    let ropts = RepairOptions { strategy, robust, ..RepairOptions::default() };
    let outcome = ModelRepair::with_options(ropts)
        .with_budget(opts.budget.clone())
        .repair_dtmc(m, &phi, &template)
        .map_err(|e| UsageError(e.to_string()))?;

    outln!("property: {phi}");
    if let Some(rs) = &robust {
        outln!(
            "robust:   every member of the Wilson ball at {} confidence (sample size {}) \
             must satisfy the property",
            rs.confidence,
            rs.sample_size
        );
    }
    outln!("status:   {:?}", outcome.status);
    for (name, value) in &outcome.parameters {
        outln!("  {name} = {value}");
    }
    outln!("cost (Frobenius): {}", outcome.cost);
    outln!("verified: {}", outcome.verified);
    outln!("solver evaluations: {}", outcome.evaluations);
    if let Some(cert) = &outcome.certificate {
        outln!(
            "certificate: cost in [{}, {}] (epsilon {}, certified: {})",
            cert.lower_bound,
            cert.upper_bound,
            cert.epsilon,
            cert.certified
        );
    }
    for fallback in &outcome.diagnostics.fallbacks {
        outln!("fallback: {fallback}");
    }
    out!("{}", outcome.diagnostics.render_degradation());
    // Calibration price: report the non-robust repair's cost next to the
    // robust one, so the user sees what the confidence margin costs.
    if robust.is_some() {
        let nominal =
            ModelRepair::with_options(RepairOptions { strategy, ..RepairOptions::default() })
                .with_budget(opts.budget.clone())
                .repair_dtmc(m, &phi, &template);
        match nominal {
            Ok(n)
                if matches!(n.status, RepairStatus::Repaired | RepairStatus::AlreadySatisfied) =>
            {
                outln!("non-robust cost (for comparison): {}", n.cost);
            }
            Ok(n) => outln!("non-robust repair: {:?}", n.status),
            Err(e) => outln!("non-robust repair: error ({e})"),
        }
    }
    // Mirror `check`: feasibility failures exit 1, usage errors exit 2.
    Ok(match outcome.status {
        RepairStatus::Repaired | RepairStatus::AlreadySatisfied => 0,
        RepairStatus::Infeasible | RepairStatus::BudgetExhausted => 1,
    })
}

fn simulate(path: &str, steps: Option<&str>, seed: Option<&str>) -> Result<(), UsageError> {
    let model = load(path)?;
    let steps: usize = steps
        .unwrap_or("25")
        .parse()
        .map_err(|_| UsageError("STEPS must be a non-negative integer".into()))?;
    let seed: u64 = seed
        .unwrap_or("0")
        .parse()
        .map_err(|_| UsageError("SEED must be a non-negative integer".into()))?;
    let mut rng = StdRng::seed_from_u64(seed);
    match &model {
        ModelFile::Dtmc(m) => {
            let path = m.sample_path(&mut rng, steps, |_| false);
            outln!("trajectory: {path:?}");
        }
        ModelFile::Mdp(m) => {
            let uniform = StochasticPolicy::uniform(m);
            let path = m.sample_path(&mut rng, steps, |r, s| uniform.sample(r, s), |_| false);
            outln!("states:  {:?}", path.states);
            let actions: Vec<&str> = path.actions.iter().map(|&a| m.action_name(a)).collect();
            outln!("actions: {actions:?}");
        }
        ModelFile::IntervalDtmc(m) => {
            // An interval chain is a *set* of chains; sample its nominal
            // (midpoint, renormalized) member and say so.
            let nominal = m.nominal_dtmc().map_err(|e| UsageError(e.to_string()))?;
            outln!("interval model: simulating the nominal (midpoint) member");
            let path = nominal.sample_path(&mut rng, steps, |_| false);
            outln!("trajectory: {path:?}");
        }
        ModelFile::IntervalMdp(_) => {
            return Err(UsageError(
                "simulate is not defined for interval mdp models (no single member to sample)"
                    .into(),
            ));
        }
    }
    Ok(())
}

fn witness(path: &str, label: &str) -> Result<(), UsageError> {
    let model = load(path)?;
    let ModelFile::Dtmc(m) = &model else {
        return Err(UsageError("witness extraction is defined for dtmc models".into()));
    };
    let target = m.labeling().mask(label);
    if !target.iter().any(|&t| t) {
        return Err(UsageError(format!("no state carries label {label:?}")));
    }
    match tml_checker::dtmc::most_probable_path(m, m.initial_state(), &target) {
        Some((states, prob)) => {
            outln!("most probable path to {label:?}: {states:?}");
            outln!("path probability: {prob}");
            Ok(())
        }
        None => {
            outln!("no {label:?} state is reachable from the initial state");
            Ok(())
        }
    }
}

/// `tml batch`: run (or resume) a crash-consistent batch of seeded
/// learn/verify/repair jobs. See `tml_runtime` for the executor and
/// DESIGN.md §11 for the journal format and the resume contract.
fn batch(count: Option<&str>, flags: &BatchFlags) -> Result<u8, UsageError> {
    use tml_runtime::journal::{parse_journal_bytes, render_report, Journal};
    use tml_runtime::{run_batch, BatchOptions, ChaosSpec};

    if flags.kill_after.is_some() && flags.journal.is_none() {
        return Err(UsageError(
            "--kill-after needs --journal (there is nothing to resume from otherwise)".into(),
        ));
    }

    // Resolve the options either from flags (fresh run) or from the
    // journal's meta record (resume — no flags need repeating).
    let (mut opts, resume_state) = match &flags.resume {
        Some(path) => {
            if count.is_some() {
                return Err(UsageError(
                    "--resume takes the job count from the journal; drop COUNT".into(),
                ));
            }
            // Bytes, not a string: a `kill -9` can tear the final line
            // mid-UTF-8, which must not make the journal unresumable.
            let bytes = std::fs::read(path)
                .map_err(|e| UsageError(format!("cannot read journal {path:?}: {e}")))?;
            let state = parse_journal_bytes(&bytes).map_err(UsageError)?;
            let cfg = &state.config;
            let mut opts = BatchOptions::new(cfg.corpus_seed, cfg.jobs);
            opts.retry.max_attempts = cfg.max_attempts;
            opts.workers = cfg.workers;
            opts.chaos = match &cfg.chaos {
                Some(spec) => Some(ChaosSpec::parse(spec).map_err(UsageError)?),
                None => None,
            };
            (opts, Some(state))
        }
        None => {
            let count: u64 = count
                .ok_or_else(|| UsageError("missing COUNT argument".into()))?
                .parse()
                .map_err(|_| UsageError("COUNT must be a positive integer".into()))?;
            if count == 0 {
                return Err(UsageError("COUNT must be a positive integer".into()));
            }
            let mut opts = BatchOptions::new(flags.corpus_seed, count);
            opts.retry.max_attempts = flags.retries;
            opts.workers = flags.workers;
            opts.chaos = match &flags.chaos {
                Some(spec) => Some(ChaosSpec::parse(spec).map_err(UsageError)?),
                None => None,
            };
            (opts, None)
        }
    };
    opts.kill_after = flags.kill_after;
    opts.hard_kill = flags.kill_after.is_some();
    let config = opts.config();

    let outcomes = if resume_state.as_ref().is_some_and(|s| s.complete) {
        // Nothing to re-run: the journal already holds the whole batch.
        resume_state.as_ref().map(|s| s.outcomes.clone()).unwrap_or_default()
    } else {
        // A fresh run creates its journal; a resume appends to it. With no
        // --journal the WAL lives (uselessly but harmlessly) in memory.
        let result = match (&flags.resume, &flags.journal) {
            (Some(path), _) | (None, Some(path)) => {
                let file = if resume_state.is_some() {
                    std::fs::OpenOptions::new().append(true).open(path)
                } else {
                    std::fs::File::create(path)
                }
                .map_err(|e| UsageError(format!("cannot open journal {path:?}: {e}")))?;
                let journal = match &resume_state {
                    Some(state) => Journal::reopen(file, state.outcomes.len() as u64),
                    None => Journal::create(file, &config),
                }
                .map_err(|e| UsageError(format!("cannot write journal {path:?}: {e}")))?;
                run_batch(&opts, &journal, resume_state.as_ref())
            }
            (None, None) => {
                let journal = Journal::create(Vec::new(), &config)
                    .map_err(|e| UsageError(format!("journal: {e}")))?;
                run_batch(&opts, &journal, None)
            }
        }
        .map_err(|e| UsageError(format!("journal write failed: {e}")))?;
        result.outcomes
    };

    let report = render_report(&config, &outcomes);
    match &flags.report {
        Some(path) => std::fs::write(path, &report)
            .map_err(|e| UsageError(format!("cannot write report {path:?}: {e}")))?,
        None => out!("{report}"),
    }

    let failed = outcomes.iter().filter(|o| o.status == tml_runtime::JobStatus::Failed).count();
    let retries: u64 = outcomes.iter().map(|o| u64::from(o.attempts.saturating_sub(1))).sum();
    eprintln!(
        "batch: {} jobs concluded ({failed} failed, {retries} retries){}",
        outcomes.len(),
        if resume_state.is_some() { " [resumed]" } else { "" },
    );
    Ok(0)
}

/// `tml trace`: offline analysis of one or more `tml-trace/v1` files.
/// Multiple files (a killed run and its resume) re-link through shared
/// trace ids; a torn final line — the `kill -9` signature — is tolerated
/// and counted, any other unparseable line is an error.
fn trace_analyze(files: &[String], folded: bool) -> Result<(), UsageError> {
    if files.is_empty() {
        return Err(UsageError("missing TRACE file argument".into()));
    }
    let mut contents = Vec::with_capacity(files.len());
    for path in files {
        let bytes = std::fs::read(path)
            .map_err(|e| UsageError(format!("cannot read trace {path:?}: {e}")))?;
        contents.push(bytes);
    }
    let inputs: Vec<(&str, &[u8])> =
        files.iter().map(String::as_str).zip(contents.iter().map(Vec::as_slice)).collect();
    let analysis = tml_telemetry::analysis::parse_trace_bytes(&inputs).map_err(UsageError)?;
    if folded {
        out!("{}", analysis.folded());
    } else {
        out!("{}", analysis.render_summary());
    }
    Ok(())
}

/// `tml serve`: run the repair service until a drain (SIGTERM, SIGINT or
/// `POST /admin/drain`) completes. See `tml_serve` for the admission
/// pipeline and DESIGN.md §12 for the failure matrix.
fn serve(batch: &BatchFlags, flags: &ServeFlags) -> Result<u8, UsageError> {
    use tml_runtime::ChaosSpec;
    use tml_serve::server::{RunOutcome, ServeOptions, Server};

    let Some(journal) = &batch.journal else {
        return Err(UsageError(
            "serve needs --journal (every accepted job is journaled before the \
             client sees the acceptance)"
                .into(),
        ));
    };
    let mut opts = ServeOptions::new(journal);
    opts.addr = flags.addr.clone();
    opts.workers = batch.workers;
    opts.queue_depth = flags.queue_depth;
    opts.drain_ms = flags.drain_ms;
    opts.request_log = flags.request_log.clone().map(Into::into);
    opts.corpus_seed = batch.corpus_seed;
    opts.retry.max_attempts = batch.retries;
    opts.chaos = match &batch.chaos {
        Some(spec) => Some(ChaosSpec::parse(spec).map_err(UsageError)?),
        None => None,
    };
    // From the CLI a kill is the real thing: exit(137), like `kill -9`.
    opts.kill_after = batch.kill_after;
    opts.hard_kill = true;

    let server =
        Server::bind(opts).map_err(|e| UsageError(format!("cannot start service: {e}")))?;
    let addr = server.addr().map_err(|e| UsageError(format!("cannot resolve address: {e}")))?;
    // Scripts (and the CI smoke) scrape the port from this line.
    outln!("serve: listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    match server.run().map_err(|e| UsageError(format!("service failed: {e}")))? {
        RunOutcome::Drained => {
            eprintln!("serve: drained; un-started jobs remain journaled for the next start");
            Ok(0)
        }
        // Unreachable with hard_kill (the process exits 137 instead), but
        // keep the soft-crash path honest.
        RunOutcome::Crashed => Ok(137),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("tml-cli-test-{name}-{}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp model");
        path
    }

    const CHAIN: &str = "dtmc\nstates 2\nlabel \"done\" = 1\n0 -> 1: 0.9, 0: 0.1\n1 -> 1: 1.0\n";
    const MDP: &str = "mdp\nstates 2\nlabel \"done\" = 1\n0 [go] -> 1: 1.0\n0 [stay] -> 0: 1.0\n1 [stay] -> 1: 1.0\n";

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn info_check_query_simulate_roundtrip() {
        let chain = write_temp("chain", CHAIN);
        let p = chain.to_str().unwrap();
        assert!(run(&s(&["info", p])).is_ok());
        assert!(run(&s(&["check", p, "P>=0.5 [ F \"done\" ]"])).is_ok());
        assert!(run(&s(&["query", p, "P=? [ F \"done\" ]"])).is_ok());
        assert!(run(&s(&["simulate", p, "5", "1"])).is_ok());
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn mdp_commands_work() {
        let mdp = write_temp("mdp", MDP);
        let p = mdp.to_str().unwrap();
        assert!(run(&s(&["info", p])).is_ok());
        assert!(run(&s(&["check", p, "Pmax>=1 [ F \"done\" ]"])).is_ok());
        assert!(run(&s(&["query", p, "Pmin=? [ F \"done\" ]"])).is_ok());
        assert!(run(&s(&["simulate", p])).is_ok());
        let _ = std::fs::remove_file(mdp);
    }

    #[test]
    fn witness_command() {
        let chain = write_temp("chain-witness", CHAIN);
        let p = chain.to_str().unwrap();
        assert!(run(&s(&["witness", p, "done"])).is_ok());
        assert!(run(&s(&["witness", p, "no_such_label"])).is_err());
        let _ = std::fs::remove_file(chain);
        let mdp = write_temp("mdp-witness", MDP);
        let pm = mdp.to_str().unwrap();
        assert!(run(&s(&["witness", pm, "done"])).is_err());
        let _ = std::fs::remove_file(mdp);
    }

    // Reaches "done" with probability in [0.7, 0.95] (adversary's choice);
    // state 2 is an absorbing failure.
    const INTERVAL_CHAIN: &str = "idtmc\nstates 3\nlabel \"done\" = 1\n0 -> 1: 0.7..0.95, 2: 0.05..0.3\n1 -> 1: 1.0\n2 -> 2: 1.0\n";
    // Bracket over schedulers AND members: [min(0.6, 0.5), max(0.9, 0.5)].
    const INTERVAL_MDP: &str = "imdp\nstates 3\nlabel \"done\" = 1\n0 [go] -> 1: 0.6..0.9, 2: 0.1..0.4\n0 [safe] -> 1: 0.5, 2: 0.5\n1 [stay] -> 1: 1.0\n2 [stay] -> 2: 1.0\n";

    #[test]
    fn interval_models_check_and_query_robustly() {
        let chain = write_temp("ichain", INTERVAL_CHAIN);
        let p = chain.to_str().unwrap();
        assert!(run(&s(&["info", p])).is_ok());
        // Pessimistic member reaches with 0.7: the 0.6 bound robustly holds,
        // the 0.8 bound does not (exit 1).
        assert_eq!(run(&s(&["check", p, "P>=0.6 [ F \"done\" ]"])).unwrap(), 0);
        assert_eq!(run(&s(&["check", p, "P>=0.8 [ F \"done\" ]"])).unwrap(), 1);
        assert!(run(&s(&["query", p, "P=? [ F \"done\" ]"])).is_ok());
        // Simulation falls back to the nominal member.
        assert!(run(&s(&["simulate", p, "5", "1"])).is_ok());
        let _ = std::fs::remove_file(chain);
        let mdp = write_temp("imdp", INTERVAL_MDP);
        let pm = mdp.to_str().unwrap();
        assert!(run(&s(&["info", pm])).is_ok());
        assert_eq!(run(&s(&["check", pm, "Pmax>=0.5 [ F \"done\" ]"])).unwrap(), 0);
        assert!(run(&s(&["query", pm, "Pmax=? [ F \"done\" ]"])).is_ok());
        assert!(run(&s(&["simulate", pm])).is_err());
        let _ = std::fs::remove_file(mdp);
    }

    #[test]
    fn robust_check_wraps_point_chains_in_the_wilson_ball() {
        let chain = write_temp("chain-robust", CHAIN);
        let p = chain.to_str().unwrap();
        // Nominal: P(F done) = 1 (the 0→0 edge retries forever), so even the
        // pessimistic member keeps reaching "done": robustly holds.
        assert_eq!(run(&s(&["check", p, "P>=0.9 [ F \"done\" ]", "--robust"])).unwrap(), 0);
        // One-step reachability is 0.9 on the nose; the 95% ball dips below.
        assert_eq!(run(&s(&["check", p, "P>=0.9 [ X \"done\" ]"])).unwrap(), 0);
        assert_eq!(run(&s(&["check", p, "P>=0.9 [ X \"done\" ]", "--robust"])).unwrap(), 1);
        // Flag validation.
        assert!(run(&s(&["check", p, "P>=0.9 [ X \"done\" ]", "--robust", "--confidence", "2"]))
            .is_err());
        assert!(
            run(&s(&["check", p, "P>=0.9 [ X \"done\" ]", "--robust", "--samples", "-1"])).is_err()
        );
        let _ = std::fs::remove_file(chain);
        // Point MDPs carry no confidence information: usage error.
        let mdp = write_temp("mdp-robust", MDP);
        let pm = mdp.to_str().unwrap();
        assert!(run(&s(&["check", pm, "Pmax>=1 [ F \"done\" ]", "--robust"])).is_err());
        let _ = std::fs::remove_file(mdp);
    }

    #[test]
    fn robust_repair_reports_both_costs() {
        let chain = write_temp("chain-robust-repair", REPAIR_CHAIN);
        let p = chain.to_str().unwrap();
        let mut argv = vec!["repair", p, "P>=0.9 [ F \"ok\" ]"];
        argv.extend_from_slice(&[
            "--param",
            "v:-0.19:0.19",
            "--nudge",
            "0:1:v:1",
            "--nudge",
            "0:2:v:-1",
            "--robust",
            "--confidence",
            "0.95",
        ]);
        assert_eq!(run(&s(&argv)).unwrap(), 0);
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn exit_codes_distinguish_holds_from_violated() {
        let chain = write_temp("chain-exit", CHAIN);
        let p = chain.to_str().unwrap();
        assert_eq!(run(&s(&["check", p, "P>=0.5 [ F \"done\" ]"])).unwrap(), 0);
        // F "done" holds with probability 1, so the <= 0.5 bound is violated.
        assert_eq!(run(&s(&["check", p, "P<=0.5 [ F \"done\" ]"])).unwrap(), 1);
        let _ = std::fs::remove_file(chain);
    }

    // Reaches "ok" with probability 0.8; repairable up to 0.95 by shifting
    // mass from the failure edge.
    const REPAIR_CHAIN: &str =
        "dtmc\nstates 3\nlabel \"ok\" = 1\n0 -> 1: 0.8, 2: 0.2\n1 -> 1: 1.0\n2 -> 2: 1.0\n";

    #[test]
    fn repair_command_all_strategies() {
        let chain = write_temp("chain-repair", REPAIR_CHAIN);
        let p = chain.to_str().unwrap();
        let template = ["--param", "v:-0.15:0.15", "--nudge", "0:1:v:1", "--nudge", "0:2:v:-1"];
        for strategy in ["penalty", "lifting", "auto"] {
            let mut argv = vec!["repair", p, "P>=0.9 [ F \"ok\" ]"];
            argv.extend_from_slice(&template);
            argv.extend_from_slice(&["--strategy", strategy]);
            assert_eq!(run(&s(&argv)).unwrap(), 0, "strategy {strategy}");
        }
        // The default strategy is penalty; no --strategy needed.
        let mut argv = vec!["repair", p, "P>=0.9 [ F \"ok\" ]"];
        argv.extend_from_slice(&template);
        assert_eq!(run(&s(&argv)).unwrap(), 0);
        // A bound past the template's reach is infeasible: exit code 1.
        let mut argv = vec!["repair", p, "P>=0.999 [ F \"ok\" ]"];
        argv.extend_from_slice(&template);
        assert_eq!(run(&s(&argv)).unwrap(), 1);
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn repair_flag_validation() {
        let chain = write_temp("chain-repair-err", REPAIR_CHAIN);
        let p = chain.to_str().unwrap();
        let phi = "P>=0.9 [ F \"ok\" ]";
        // Missing template pieces.
        assert!(run(&s(&["repair", p, phi])).is_err());
        assert!(run(&s(&["repair", p, phi, "--param", "v:-0.1:0.1"])).is_err());
        // Malformed specs.
        let ok_nudge = ["--nudge", "0:1:v:1"];
        let with = |param: &str, rest: &[&str]| {
            let mut argv = vec!["repair", p, phi, "--param", param];
            argv.extend_from_slice(rest);
            run(&s(&argv))
        };
        assert!(with("v:low:high", &ok_nudge).is_err());
        assert!(with("v", &ok_nudge).is_err());
        assert!(with("v:-0.1:0.1", &["--nudge", "0:1:w:1"]).is_err());
        assert!(with("v:-0.1:0.1", &["--nudge", "0:1:v"]).is_err());
        assert!(with("v:-0.1:0.1", &["--param", "v:0:1", "--nudge", "0:1:v:1"]).is_err());
        assert!(with("v:-0.1:0.1", &["--nudge", "0:1:v:1", "--strategy", "magic"]).is_err());
        let _ = std::fs::remove_file(chain);
        // MDPs are rejected (nudges address FROM:TO transitions).
        let mdp = write_temp("mdp-repair", MDP);
        let pm = mdp.to_str().unwrap();
        assert!(
            run(&s(&["repair", pm, phi, "--param", "v:-0.1:0.1", "--nudge", "0:1:v:1"])).is_err()
        );
        let _ = std::fs::remove_file(mdp);
    }

    #[test]
    fn help_flag_and_command() {
        assert_eq!(run(&s(&["--help"])).unwrap(), 0);
        assert_eq!(run(&s(&["-h"])).unwrap(), 0);
        assert_eq!(run(&s(&["help"])).unwrap(), 0);
        // --help anywhere wins over the command, even an incomplete one.
        assert_eq!(run(&s(&["check", "--help"])).unwrap(), 0);
    }

    #[test]
    fn budget_flags_are_accepted_and_stripped() {
        let chain = write_temp("chain-budget", CHAIN);
        let p = chain.to_str().unwrap();
        // Generous budgets change nothing about the verdict.
        assert!(run(&s(&["check", p, "P>=0.5 [ F \"done\" ]", "--deadline-ms", "10000"])).is_ok());
        assert!(run(&s(&["--max-evals", "100000", "query", p, "P=? [ F \"done\" ]"])).is_ok());
        // A zero evaluation budget still returns (best-effort), no hang.
        assert!(run(&s(&["query", p, "P=? [ F \"done\" ]", "--max-evals", "0"])).is_ok());
        // --serial is accepted anywhere and changes no verdict.
        assert!(run(&s(&["--serial", "check", p, "P>=0.5 [ F \"done\" ]"])).is_ok());
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn trace_json_writes_a_valid_trace_and_metrics_summarize() {
        // The global subscriber is process-wide state; serialize with every
        // other test that installs one.
        let _lock = tml_telemetry::TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let chain = write_temp("chain-trace", CHAIN);
        let p = chain.to_str().unwrap();
        let trace =
            std::env::temp_dir().join(format!("tml-cli-trace-{}.jsonl", std::process::id()));
        let t = trace.to_str().unwrap();
        let code = run(&s(&["check", p, "P>=0.5 [ F \"done\" ]", "--trace-json", t, "--metrics"]))
            .unwrap();
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let mut lines = text.lines();
        let meta = lines.next().expect("meta line");
        assert!(meta.contains("tml-trace/v1"), "first line is the schema meta: {meta}");
        assert!(text.contains("checker.check"), "checker span recorded");
        for line in text.lines() {
            tml_telemetry::json::parse(line).expect("every trace line is valid JSON");
        }

        // The recorded trace feeds straight into `tml trace`, both modes.
        assert_eq!(run(&s(&["trace", t])).unwrap(), 0);
        assert_eq!(run(&s(&["trace", t, "--folded"])).unwrap(), 0);

        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn trace_command_fails_closed() {
        assert!(run(&s(&["trace"])).is_err(), "needs at least one file");
        assert!(run(&s(&["trace", "/no/such/trace.jsonl"])).is_err());
        // Mid-file garbage is corruption, not a torn tail.
        let bad = write_temp(
            "bad-trace",
            "{\"type\":\"meta\",\"schema\":\"tml-trace/v1\"}\nnot json\n{\"type\":\"meta\",\"schema\":\"tml-trace/v1\"}\n",
        );
        assert!(run(&s(&["trace", bad.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn metrics_without_trace_runs_standalone() {
        let _lock = tml_telemetry::TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let chain = write_temp("chain-metrics", CHAIN);
        let p = chain.to_str().unwrap();
        assert_eq!(run(&s(&["--metrics", "query", p, "P=? [ F \"done\" ]"])).unwrap(), 0);
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn simulate_flag_cross_checks_dtmcs_and_skips_mdps() {
        let chain = write_temp("chain-simulate", CHAIN);
        let p = chain.to_str().unwrap();
        // F "done" has probability 1; simulation cannot refute it and the
        // exact verdict is unchanged.
        assert_eq!(
            run(&s(&["check", p, "P>=0.5 [ F \"done\" ]", "--simulate", "500"])).unwrap(),
            0
        );
        assert_eq!(
            run(&s(&["check", p, "P<=0.5 [ F \"done\" ]", "--simulate", "500"])).unwrap(),
            1
        );
        let _ = std::fs::remove_file(chain);
        // MDPs print a note instead of simulating; the command still works.
        let mdp = write_temp("mdp-simulate", MDP);
        let pm = mdp.to_str().unwrap();
        assert_eq!(
            run(&s(&["check", pm, "Pmax>=1 [ F \"done\" ]", "--simulate", "100"])).unwrap(),
            0
        );
        let _ = std::fs::remove_file(mdp);
        // Flag validation.
        assert!(run(&s(&["check", "--simulate"])).is_err());
        assert!(run(&s(&["check", "--simulate", "0"])).is_err());
        assert!(run(&s(&["check", "--simulate", "many"])).is_err());
    }

    #[test]
    fn budget_flag_errors() {
        assert!(run(&s(&["check", "--deadline-ms"])).is_err());
        assert!(run(&s(&["check", "--deadline-ms", "soon"])).is_err());
        assert!(run(&s(&["check", "--max-evals", "-3"])).is_err());
        assert!(run(&s(&["check", "--trace-json"])).is_err());
        assert!(run(&s(&["check", "--no-such-flag"])).is_err());
    }

    #[test]
    fn trace_json_rejects_unwritable_path() {
        let _lock = tml_telemetry::TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let chain = write_temp("chain-badtrace", CHAIN);
        let p = chain.to_str().unwrap();
        let bad = "/no/such/dir/trace.jsonl";
        assert!(run(&s(&["check", p, "P>=0.5 [ F \"done\" ]", "--trace-json", bad])).is_err());
        let _ = std::fs::remove_file(chain);
    }

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["check"])).is_err());
        assert!(run(&s(&["check", "/no/such/file", "true"])).is_err());
        let chain = write_temp("chain-err", CHAIN);
        let p = chain.to_str().unwrap();
        assert!(run(&s(&["check", p, "P>=!bad"])).is_err());
        assert!(run(&s(&["simulate", p, "notanumber"])).is_err());
        let _ = std::fs::remove_file(chain);
    }
}
