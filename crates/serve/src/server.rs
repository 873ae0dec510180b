//! The repair service: admission, worker pool, journaled execution,
//! graceful drain.
//!
//! One [`Server`] owns a `tml-journal/v1` write-ahead journal, a bounded
//! [`JobQueue`] and a pool of job workers. The
//! admission path is fail-closed and fully ordered:
//!
//! 1. refuse while draining (`503`);
//! 2. validate the request body — malformed JSON, unknown kinds,
//!    unparseable models/properties and oversized models never reach a
//!    worker (`400`/`422`);
//! 3. charge the client's token bucket (`429 Retry-After` on empty);
//! 4. shed if the queue is full (`429 Retry-After` derived from depth);
//! 5. journal the `submit` record — only after the flush does the client
//!    see `202`, so every accepted job survives a `kill -9`.
//!
//! Workers run corpus jobs through the batch executor's
//! [`run_corpus_job`] (same journaling, same fold-after-failure resume
//! rule), so a served corpus interrupted by `kill -9` and restarted from
//! its journal renders a final report byte-identical to an uninterrupted
//! control run — the same contract `tml batch --resume` holds, asserted
//! end-to-end in the `serve-smoke` CI job.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tml_checker::Checker;
use tml_logic::parse_formula;
use tml_models::dsl::{parse_model, ModelFile};
use tml_runtime::executor::{isolate, run_corpus_job, JobContext};
use tml_runtime::job::fingerprint_dtmc;
use tml_runtime::journal::render_report;
use tml_runtime::{
    parse_journal_bytes, AttemptFailure, BatchConfig, ChaosSpec, FailureKind, JobOutcome,
    JobStatus, Journal, RetryPolicy, SharedClock, Submission, SubmitKind,
};
use tml_telemetry::json::{self, Value};
use tml_telemetry::jsonl::{schema, JsonlWriter, LineBuilder};
use tml_telemetry::prometheus::{render_prometheus, CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE};
use tml_telemetry::{Subscriber, TraceContext};

use crate::bucket::{Admit, TokenBuckets};
use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::queue::{BudgetSpec, JobQueue, QueuedJob};
use crate::signal;

/// Largest model a verify submission may carry, in states. Fail-closed:
/// anything bigger is refused at admission, before a worker is tied up.
pub const MAX_VERIFY_STATES: usize = 4096;

/// Largest corpus index a submission may name (the corpus is unbounded by
/// construction; the cap keeps job derivation away from pathological
/// seeds a client could fish for).
pub const MAX_CORPUS_INDEX: u64 = 1_000_000;

/// Server configuration (the CLI's `tml serve` flags).
#[derive(Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` lets the OS pick a port).
    pub addr: String,
    /// Job worker threads. `0` is permitted — jobs queue and never run,
    /// which is how the overload and drain-recovery tests get
    /// deterministic queue states.
    pub workers: u32,
    /// Bounded queue capacity: submission `N+1` sheds with `429`.
    pub queue_depth: usize,
    /// Graceful-drain deadline, milliseconds: in-flight jobs get this
    /// long to conclude once a drain starts.
    pub drain_ms: u64,
    /// Minimum time to keep answering requests after a drain begins,
    /// milliseconds. A load balancer polling `/readyz` needs a window in
    /// which the server answers `503` before the socket goes away; `0`
    /// (the default) exits as soon as the workers are idle.
    pub drain_linger_ms: u64,
    /// Write-ahead journal path (created, or resumed when non-empty).
    pub journal: PathBuf,
    /// `tml-serve/v1` request-log path, when request logging is on.
    pub request_log: Option<PathBuf>,
    /// Corpus seed for `kind: "corpus"` submissions.
    pub corpus_seed: u64,
    /// Retry policy for corpus jobs.
    pub retry: RetryPolicy,
    /// Fault-injection plan (corpus jobs only; verify jobs are never
    /// chaos-injected — they are the service's reference workload).
    pub chaos: Option<ChaosSpec>,
    /// Simulate a crash after this many journaled outcomes.
    pub kill_after: Option<u64>,
    /// Whether `kill_after` exits the process with status 137 (the CLI's
    /// `kill -9` stand-in) instead of stopping in-process.
    pub hard_kill: bool,
    /// Token-bucket scheduler: `(capacity, refill per second)`. `None`
    /// disables per-client throttling.
    pub bucket: Option<(u32, f64)>,
    /// Clock for the token buckets (tests inject a
    /// [`ManualClock`](tml_runtime::ManualClock)).
    pub clock: SharedClock,
}

impl ServeOptions {
    /// Defaults for a journal at `journal` (loopback bind, 2 workers,
    /// queue depth 64, 5s drain, no chaos, no throttling).
    pub fn new(journal: impl Into<PathBuf>) -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            drain_ms: 5000,
            drain_linger_ms: 0,
            journal: journal.into(),
            request_log: None,
            corpus_seed: 7,
            retry: RetryPolicy::default(),
            chaos: None,
            kill_after: None,
            hard_kill: false,
            bucket: None,
            clock: tml_runtime::system_clock(),
        }
    }

    fn config(&self, jobs: u64) -> BatchConfig {
        BatchConfig {
            corpus_seed: self.corpus_seed,
            jobs,
            max_attempts: self.retry.max_attempts,
            workers: self.workers,
            chaos: self.chaos.as_ref().map(ChaosSpec::canonical),
        }
    }
}

/// How a [`Server::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Graceful drain completed (signal or `POST /admin/drain`).
    Drained,
    /// A simulated crash (`kill_after`, soft mode) stopped the server
    /// with no drain — the journal ends wherever the last flush put it.
    Crashed,
}

/// Where a job stands in the table.
#[derive(Debug, Clone)]
enum JobPhase {
    Queued,
    Running,
    Done(JobOutcome),
}

impl JobPhase {
    fn name(&self) -> &str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done(o) => o.status.name(),
        }
    }
}

struct JobRecord {
    kind: SubmitKind,
    phase: JobPhase,
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    by_index: BTreeMap<u64, u64>,
    records: BTreeMap<u64, JobRecord>,
}

impl JobTable {
    fn count(&self, pred: impl Fn(&JobPhase) -> bool) -> u64 {
        self.records.values().filter(|r| pred(&r.phase)).count() as u64
    }
}

struct ReqLog {
    writer: JsonlWriter<std::fs::File>,
    seq: AtomicU64,
}

/// Drain rendezvous: counts live workers so drain can wait (bounded) for
/// in-flight jobs to conclude.
struct WorkerGate {
    active: Mutex<u32>,
    idle: Condvar,
}

impl WorkerGate {
    fn enter(&self) {
        *self.active.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn exit(&self) {
        let mut n = self.active.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.idle.notify_all();
        }
    }

    /// Whether every worker has exited (non-blocking).
    fn idle_now(&self) -> bool {
        *self.active.lock().unwrap_or_else(|e| e.into_inner()) == 0
    }
}

struct ServeState {
    opts: ServeOptions,
    journal: Journal<std::fs::File>,
    jobs: Mutex<JobTable>,
    queue: JobQueue,
    buckets: Option<TokenBuckets>,
    sub: Arc<Subscriber>,
    reqlog: Option<ReqLog>,
    draining: AtomicBool,
    crashed: AtomicBool,
    completed: AtomicU64,
    gate: WorkerGate,
}

/// The service. [`bind`](Server::bind) prepares everything (listener,
/// journal create-or-resume, recovered queue); [`run`](Server::run)
/// blocks until drain or simulated crash.
pub struct Server {
    state: Arc<ServeState>,
    listener: TcpListener,
}

// ---------------------------------------------------------------------
// JSON response helpers (hand-built on the shared json escaping).

fn obj_start(out: &mut String) {
    out.push('{');
}

fn obj_field_str(out: &mut String, key: &str, value: &str) {
    obj_key(out, key);
    json::write_string(out, value);
}

fn obj_field_u64(out: &mut String, key: &str, value: u64) {
    obj_key(out, key);
    out.push_str(&value.to_string());
}

fn obj_field_bool(out: &mut String, key: &str, value: bool) {
    obj_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

fn obj_key(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    json::write_string(out, key);
    out.push(':');
}

fn obj_end(mut out: String) -> String {
    out.push('}');
    out
}

fn error_body(message: &str) -> String {
    let mut out = String::new();
    obj_start(&mut out);
    obj_field_str(&mut out, "error", message);
    obj_end(out)
}

impl Server {
    /// Binds the listener and opens (or resumes) the journal.
    ///
    /// A non-empty journal is parsed; submissions with outcomes replay
    /// into the job table, pending ones are re-queued with their
    /// journaled next attempt and fold-after-failure warm starts, and the
    /// journal reopens in append mode with a `resume` boundary record.
    ///
    /// # Errors
    ///
    /// I/O errors from the bind or journal, and `InvalidData` when an
    /// existing journal is unreadable (beyond a torn tail).
    pub fn bind(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;

        let existing = match std::fs::read(&opts.journal) {
            Ok(mut bytes) => {
                // A `kill -9` can tear the final line mid-write. Those
                // bytes never became a durable record; drop them before
                // appending, or the next record would merge into the
                // garbage and corrupt the journal for the *next* restart.
                let durable = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                if durable < bytes.len() {
                    let file = OpenOptions::new().write(true).open(&opts.journal)?;
                    file.set_len(durable as u64)?;
                    bytes.truncate(durable);
                }
                if bytes.is_empty() {
                    None
                } else {
                    Some(bytes)
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };

        let mut table = JobTable::default();
        let queue = JobQueue::new(opts.queue_depth);
        let journal = match existing {
            None => {
                let file = OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&opts.journal)?;
                Journal::create(file, &opts.config(0))?
            }
            Some(bytes) => {
                let state = parse_journal_bytes(&bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                for sub in &state.submissions {
                    if let SubmitKind::Corpus { index } = sub.kind {
                        table.by_index.insert(index, sub.job);
                    }
                    let phase = match state.outcome(sub.job) {
                        Some(o) => JobPhase::Done(o.clone()),
                        None => JobPhase::Queued,
                    };
                    table.records.insert(sub.job, JobRecord { kind: sub.kind.clone(), phase });
                    table.next_id = table.next_id.max(sub.job + 1);
                }
                for sub in state.pending_submissions() {
                    let queued = QueuedJob {
                        job: sub.job,
                        trace: sub.trace,
                        kind: sub.kind.clone(),
                        first_attempt: state.next_attempt(sub.job),
                        warm: state.warm_starts(sub.job),
                        budget: None,
                        prior_failure: state.last_failure(sub.job),
                    };
                    queue.push(queued).map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "journal holds more pending jobs than --queue-depth",
                        )
                    })?;
                }
                let file = OpenOptions::new().append(true).open(&opts.journal)?;
                Journal::reopen(file, state.outcomes.len() as u64)?
            }
        };

        let reqlog = match &opts.request_log {
            None => None,
            Some(path) => {
                let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
                let writer = JsonlWriter::durable(file);
                writer.line(&LineBuilder::meta(schema::SERVE).str("tool", "tml-serve").finish())?;
                Some(ReqLog { writer, seq: AtomicU64::new(0) })
            }
        };

        let buckets =
            opts.bucket.map(|(cap, refill)| TokenBuckets::new(cap, refill, opts.clock.clone()));
        // Reuse the process-global subscriber when one is installed (the
        // CLI's --trace-json path), so server metrics and worker spans land
        // in one registry and one trace stream; otherwise run a private one.
        let sub = tml_telemetry::global_subscriber()
            .unwrap_or_else(|| Arc::new(Subscriber::builder().build()));
        let state = Arc::new(ServeState {
            opts,
            journal,
            jobs: Mutex::new(table),
            queue,
            buckets,
            sub,
            reqlog,
            draining: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            gate: WorkerGate { active: Mutex::new(0), idle: Condvar::new() },
        });
        Ok(Server { state, listener })
    }

    /// The bound address (port resolved when `addr` ended in `:0`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until a drain (signal or admin endpoint)
    /// completes or a soft `kill_after` crash fires.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors other than `WouldBlock`.
    pub fn run(&self) -> io::Result<RunOutcome> {
        signal::install_handlers();
        let state = &self.state;
        std::thread::scope(|scope| {
            for _ in 0..state.opts.workers {
                let st = Arc::clone(state);
                st.gate.enter();
                scope.spawn(move || {
                    worker_loop(&st);
                    st.gate.exit();
                });
            }

            let mut drain_started: Option<Instant> = None;
            let outcome = loop {
                if state.crashed.load(Ordering::SeqCst) {
                    // Simulated crash: no drain, no summary; workers were
                    // already cut off by the queue close in the killer.
                    break RunOutcome::Crashed;
                }
                if state.draining.load(Ordering::SeqCst) || signal::drain_requested() {
                    let started = *drain_started.get_or_insert_with(|| {
                        // Drain edge: stop handing out work. In-flight jobs
                        // get up to `drain_ms` to conclude; whatever stays
                        // queued is already journaled as a submission
                        // without an outcome — exactly what a restart
                        // recovers. The server keeps answering requests
                        // (503 for new work) while the drain runs.
                        state.draining.store(true, Ordering::SeqCst);
                        state.queue.close();
                        Instant::now()
                    });
                    let elapsed = started.elapsed();
                    let lingered = elapsed >= Duration::from_millis(state.opts.drain_linger_ms);
                    if lingered && state.gate.idle_now() {
                        state.sub.record_counter("serve.drain.clean", 1);
                        break RunOutcome::Drained;
                    }
                    if lingered && elapsed >= Duration::from_millis(state.opts.drain_ms) {
                        state.sub.record_counter("serve.drain.timeout", 1);
                        break RunOutcome::Drained;
                    }
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let st = Arc::clone(state);
                        scope.spawn(move || handle_connection(&st, stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        state.queue.close();
                        return Err(e);
                    }
                }
            };
            Ok(outcome)
        })
    }
}

// ---------------------------------------------------------------------
// Workers.

fn worker_loop(state: &ServeState) {
    while let Some(qjob) = state.queue.take() {
        if state.crashed.load(Ordering::SeqCst) {
            return;
        }
        set_phase(state, qjob.job, JobPhase::Running);
        let outcome = {
            // Bind the worker to the submission's trace id before any span
            // opens. After a crash the recovered job re-installs the same
            // id (it is journaled in the submit record), so spans from the
            // original and the resumed process group under one trace.
            let _trace = tml_telemetry::with_trace(TraceContext::new(qjob.trace));
            let _span = tml_telemetry::span!("serve.job", job = qjob.job);
            run_job(state, &qjob)
        };
        let journaled = state.journal.outcome(&outcome);
        set_phase(state, qjob.job, JobPhase::Done(outcome));
        state.sub.record_counter("serve.jobs.completed", 1);
        if journaled.is_err() {
            // The journal is gone; completed state is in memory only.
            // Stop admitting and drain — continuing would hand out
            // acceptances that cannot survive a crash.
            state.sub.record_counter("serve.journal.errors", 1);
            state.draining.store(true, Ordering::SeqCst);
            return;
        }
        let done = state.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if state.opts.kill_after == Some(done) {
            if state.opts.hard_kill {
                // Simulated `kill -9`: no unwinding, no drain; the journal
                // ends wherever the last flush put it.
                std::process::exit(137);
            }
            state.crashed.store(true, Ordering::SeqCst);
            state.queue.close();
            return;
        }
    }
}

fn set_phase(state: &ServeState, job: u64, phase: JobPhase) {
    let mut table = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(rec) = table.records.get_mut(&job) {
        rec.phase = phase;
    }
}

fn run_job(state: &ServeState, qjob: &QueuedJob) -> JobOutcome {
    match &qjob.kind {
        SubmitKind::Corpus { index } => {
            let ctx = JobContext {
                corpus_seed: state.opts.corpus_seed,
                retry: state.opts.retry,
                chaos: state.opts.chaos.as_ref(),
                budget: qjob.budget.map(BudgetSpec::to_budget),
                started: Instant::now(),
                deadline: None,
            };
            run_corpus_job(
                &state.journal,
                &ctx,
                qjob.job,
                *index,
                qjob.first_attempt,
                qjob.warm.clone(),
                qjob.prior_failure.clone(),
            )
            .unwrap_or_else(|e| journal_failure_outcome(qjob.job, &e))
        }
        SubmitKind::Verify { model, property } => {
            run_verify(state, qjob.job, model, property, qjob.budget)
        }
    }
}

fn journal_failure_outcome(job: u64, e: &io::Error) -> JobOutcome {
    JobOutcome {
        job,
        attempts: 1,
        status: JobStatus::Failed,
        detail: format!("journal write failed: {e}"),
        fingerprint: None,
        evaluations: 0,
    }
}

/// Runs one verify-only job: parse, check, classify. Single attempt (the
/// check is deterministic; retrying cannot change it), isolated exactly
/// like a batch attempt, never chaos-injected.
fn run_verify(
    state: &ServeState,
    job: u64,
    model: &str,
    property: &str,
    budget: Option<BudgetSpec>,
) -> JobOutcome {
    if let Err(e) = state.journal.attempt(job, 1) {
        return journal_failure_outcome(job, &e);
    }
    let verdict = isolate(|| -> Result<(bool, Option<u64>), String> {
        let parsed = parse_model(model).map_err(|e| e.to_string())?;
        let formula = parse_formula(property).map_err(|e| e.to_string())?;
        let mut checker = Checker::new();
        if let Some(spec) = budget {
            checker = checker.with_budget(spec.to_budget());
        }
        match parsed {
            ModelFile::Dtmc(m) => {
                let result = checker.check_dtmc(&m, &formula).map_err(|e| e.to_string())?;
                Ok((result.holds(), Some(fingerprint_dtmc(&m))))
            }
            ModelFile::Mdp(m) => {
                let result = checker.check_mdp(&m, &formula).map_err(|e| e.to_string())?;
                Ok((result.holds(), None))
            }
            ModelFile::IntervalDtmc(m) => {
                let result =
                    checker.check_interval_dtmc(&m, &formula).map_err(|e| e.to_string())?;
                Ok((result.holds(), None))
            }
            ModelFile::IntervalMdp(m) => {
                let result = checker.check_interval_mdp(&m, &formula).map_err(|e| e.to_string())?;
                Ok((result.holds(), None))
            }
        }
    });
    let failure = |kind: FailureKind, detail: String| {
        let f = AttemptFailure { job, attempt: 1, kind, detail };
        if let Err(e) = state.journal.failure(&f) {
            return journal_failure_outcome(job, &e);
        }
        JobOutcome {
            job,
            attempts: 1,
            status: JobStatus::Failed,
            detail: format!("{}: {}", f.kind.name(), f.detail),
            fingerprint: None,
            evaluations: 0,
        }
    };
    match verdict {
        Err(panic_detail) => failure(FailureKind::Panic, panic_detail),
        Ok(Err(detail)) => failure(FailureKind::Error, detail),
        Ok(Ok((holds, fingerprint))) => JobOutcome {
            job,
            attempts: 1,
            status: if holds { JobStatus::Satisfied } else { JobStatus::Violated },
            detail: if holds {
                "property holds in the initial state".into()
            } else {
                "property violated in the initial state".into()
            },
            fingerprint,
            evaluations: 0,
        },
    }
}

// ---------------------------------------------------------------------
// Connections and routing.

fn handle_connection(state: &ServeState, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let (response, method, path) = match read_request(&mut reader) {
        Ok(req) => {
            let response = route(state, &req);
            (response, req.method, req.path)
        }
        Err(HttpError::Malformed(m)) => {
            (Response::json(400, error_body(&m)), String::from("-"), String::from("-"))
        }
        Err(_) => return, // closed / stream error: nothing to answer
    };
    state.sub.record_counter_labeled(
        "serve.http.requests",
        &[("method", &method), ("status", &response.status.to_string())],
        1,
    );
    log_request(state, &method, &path, &response);
    let _ = write_response(&mut writer, &response);
}

fn log_request(state: &ServeState, method: &str, path: &str, response: &Response) {
    if let Some(log) = &state.reqlog {
        let seq = log.seq.fetch_add(1, Ordering::SeqCst);
        let mut line = LineBuilder::record("request")
            .u64("seq", seq)
            .str("method", method)
            .str("path", path)
            .u64("status", u64::from(response.status));
        if let Some(trace) = &response.trace {
            line = line.str("trace", trace);
        }
        let _ = log.writer.line(&line.finish());
    }
}

fn route(state: &ServeState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => submit(state, req),
        ("GET", "/v1/report") => report(state),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/readyz") => readyz(state),
        ("GET", "/metrics") => metrics(state),
        ("POST", "/admin/drain") => {
            state.draining.store(true, Ordering::SeqCst);
            let mut out = String::new();
            obj_start(&mut out);
            obj_field_str(&mut out, "status", "draining");
            Response::json(200, obj_end(out))
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => poll(state, &p["/v1/jobs/".len()..]),
        (_, "/v1/jobs" | "/v1/report" | "/healthz" | "/readyz" | "/metrics" | "/admin/drain") => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("not found")),
    }
}

// ---------------------------------------------------------------------
// Admission.

/// A validated submission, pre-admission.
enum Validated {
    Corpus { index: u64 },
    Verify { model: String, property: String },
}

fn validate(body: &[u8]) -> Result<(Validated, Option<BudgetSpec>, Option<String>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let obj = value.as_object().ok_or("body is not a JSON object")?;
    for key in obj.keys() {
        match key.as_str() {
            "kind" | "index" | "model" | "property" | "client" | "deadline_ms" | "max_evals" => {}
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    let kind = value.get("kind").and_then(Value::as_str).ok_or("missing `kind`")?;
    let budget = {
        let deadline_ms = match value.get("deadline_ms") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("`deadline_ms` is not an integer")?),
        };
        let max_evals = match value.get("max_evals") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("`max_evals` is not an integer")?),
        };
        let spec = BudgetSpec { deadline_ms, max_evals };
        spec.is_some().then_some(spec)
    };
    let client = value.get("client").and_then(Value::as_str).map(str::to_string);
    let validated = match kind {
        "corpus" => {
            let index = value.get("index").and_then(Value::as_u64).ok_or("missing `index`")?;
            if index >= MAX_CORPUS_INDEX {
                return Err(format!("`index` exceeds {MAX_CORPUS_INDEX}"));
            }
            Validated::Corpus { index }
        }
        "verify" => {
            let model_src = value.get("model").and_then(Value::as_str).ok_or("missing `model`")?;
            let property =
                value.get("property").and_then(Value::as_str).ok_or("missing `property`")?;
            let parsed = parse_model(model_src).map_err(|e| format!("model: {e}"))?;
            if parsed.num_states() > MAX_VERIFY_STATES {
                return Err(format!(
                    "model has {} states; the service caps verify jobs at {MAX_VERIFY_STATES}",
                    parsed.num_states()
                ));
            }
            parse_formula(property).map_err(|e| format!("property: {e}"))?;
            Validated::Verify { model: model_src.to_string(), property: property.to_string() }
        }
        other => return Err(format!("unknown kind `{other}`")),
    };
    Ok((validated, budget, client))
}

fn submit(state: &ServeState, req: &Request) -> Response {
    if state.draining.load(Ordering::SeqCst) || signal::drain_requested() {
        return Response::json(503, error_body("draining"));
    }

    // 1. Fail-closed validation: nothing malformed reaches a worker.
    let (validated, budget, body_client) = match validate(&req.body) {
        Ok(v) => v,
        Err(detail) => {
            state.sub.record_counter("serve.jobs.rejected", 1);
            return Response::json(400, error_body(&detail));
        }
    };

    // 2. Per-client token bucket.
    let client =
        body_client.or_else(|| req.client.clone()).unwrap_or_else(|| "anonymous".to_string());
    if let Some(buckets) = &state.buckets {
        if let Admit::Wait(wait) = buckets.admit(&client) {
            state.sub.record_counter("serve.jobs.throttled", 1);
            return Response::json(429, error_body("client quota exhausted"))
                .with_retry_after(wait.as_secs().max(1));
        }
    }

    // 3-5. Shed check, dedup, journal and enqueue — serialized on the
    // table lock so the depth check cannot race another submitter.
    let mut table = state.jobs.lock().unwrap_or_else(|e| e.into_inner());

    if let Validated::Corpus { index } = &validated {
        if let Some(&job) = table.by_index.get(index) {
            state.sub.record_counter("serve.jobs.deduped", 1);
            let phase = table.records[&job].phase.name().to_string();
            let trace = TraceContext::derive(state.opts.corpus_seed, job);
            let mut out = String::new();
            obj_start(&mut out);
            obj_field_u64(&mut out, "job", job);
            obj_field_str(&mut out, "status", &phase);
            obj_field_bool(&mut out, "deduplicated", true);
            obj_field_str(&mut out, "trace", &trace.hex());
            return Response::json(200, obj_end(out)).with_trace(trace.hex());
        }
    }

    let depth = state.queue.depth();
    if depth >= state.queue.capacity() || state.queue.closed() {
        state.sub.record_counter("serve.jobs.shed", 1);
        let workers = u64::from(state.opts.workers.max(1));
        let retry_after = (depth as u64).div_ceil(workers).max(1);
        return Response::json(429, error_body("queue full")).with_retry_after(retry_after);
    }

    let job = table.next_id;
    let kind = match validated {
        Validated::Corpus { index } => SubmitKind::Corpus { index },
        Validated::Verify { model, property } => SubmitKind::Verify { model, property },
    };
    // Seed-deterministic trace id, journaled with the submission: the
    // id the client reads from X-Trace-Id is the one a post-crash
    // restart recovers, so both processes' spans re-link to one trace.
    let trace = TraceContext::derive(state.opts.corpus_seed, job);

    // Write-ahead: the acceptance is durable before the client sees it.
    let submission = Submission { job, kind: kind.clone(), trace: trace.trace_id };
    if let Err(e) = state.journal.submit(&submission) {
        state.sub.record_counter("serve.journal.errors", 1);
        state.draining.store(true, Ordering::SeqCst);
        return Response::json(500, error_body(&format!("journal write failed: {e}")));
    }

    table.next_id += 1;
    if let SubmitKind::Corpus { index } = kind {
        table.by_index.insert(index, job);
    }
    table.records.insert(job, JobRecord { kind: kind.clone(), phase: JobPhase::Queued });
    let queued = QueuedJob {
        job,
        trace: trace.trace_id,
        kind,
        first_attempt: 1,
        warm: Vec::new(),
        budget,
        prior_failure: None,
    };
    let depth = match state.queue.push(queued) {
        Ok(depth) => depth as u64,
        // Closed in the instant between the check and the push (a drain
        // raced us): the job is journaled, so it is accepted — it will
        // run on the next start.
        Err(shed) => shed.depth as u64,
    };
    drop(table);

    state.sub.record_counter("serve.jobs.accepted", 1);
    let mut out = String::new();
    obj_start(&mut out);
    obj_field_u64(&mut out, "job", job);
    obj_field_str(&mut out, "status", "queued");
    obj_field_u64(&mut out, "queue_depth", depth);
    obj_field_str(&mut out, "trace", &trace.hex());
    Response::json(202, obj_end(out)).with_trace(trace.hex())
}

// ---------------------------------------------------------------------
// Read-side handlers.

fn poll(state: &ServeState, id: &str) -> Response {
    let Ok(job) = id.parse::<u64>() else {
        return Response::json(400, error_body("job id is not an integer"));
    };
    let table = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let Some(record) = table.records.get(&job) else {
        return Response::json(404, error_body("no such job"));
    };
    let mut out = String::new();
    obj_start(&mut out);
    obj_field_u64(&mut out, "job", job);
    obj_field_str(&mut out, "kind", record.kind.name());
    obj_field_str(&mut out, "status", record.phase.name());
    if let JobPhase::Done(o) = &record.phase {
        obj_field_u64(&mut out, "attempts", u64::from(o.attempts));
        obj_field_str(&mut out, "detail", &o.detail);
        match o.fingerprint {
            Some(fp) => obj_field_str(&mut out, "fingerprint", &format!("{fp:016x}")),
            None => {
                obj_key(&mut out, "fingerprint");
                out.push_str("null");
            }
        }
        obj_field_u64(&mut out, "evaluations", o.evaluations);
    }
    Response::json(200, obj_end(out))
}

fn report(state: &ServeState) -> Response {
    let table = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let pending = table.count(|p| !matches!(p, JobPhase::Done(_)));
    if pending > 0 {
        return Response::json(
            409,
            error_body(&format!("{pending} jobs still pending; poll until all conclude")),
        );
    }
    let outcomes: Vec<JobOutcome> = table
        .records
        .values()
        .filter_map(|r| match &r.phase {
            JobPhase::Done(o) => Some(o.clone()),
            _ => None,
        })
        .collect();
    let config = state.opts.config(outcomes.len() as u64);
    Response::text(200, render_report(&config, &outcomes))
}

fn healthz(state: &ServeState) -> Response {
    let mut out = String::new();
    obj_start(&mut out);
    obj_field_str(&mut out, "status", "ok");
    obj_field_bool(&mut out, "draining", state.draining.load(Ordering::SeqCst));
    Response::json(200, obj_end(out))
}

fn readyz(state: &ServeState) -> Response {
    let draining = state.draining.load(Ordering::SeqCst) || signal::drain_requested();
    let depth = state.queue.depth();
    let full = depth >= state.queue.capacity();
    let ready = !draining && !full;
    let mut out = String::new();
    obj_start(&mut out);
    obj_field_bool(&mut out, "ready", ready);
    obj_field_bool(&mut out, "draining", draining);
    obj_field_u64(&mut out, "queue_depth", depth as u64);
    obj_field_u64(&mut out, "queue_capacity", state.queue.capacity() as u64);
    Response::json(if ready { 200 } else { 503 }, obj_end(out))
}

fn metrics(state: &ServeState) -> Response {
    // Scrapes must never take the server down: a panic anywhere in the
    // snapshot/render path answers 500, not a dead connection thread.
    let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        {
            let table = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
            // Point-in-time gauges from the job table, so the
            // accepted == queued + running + done identity is scrapeable.
            state
                .sub
                .set_gauge("serve.jobs.queued", table.count(|p| matches!(p, JobPhase::Queued)));
            state
                .sub
                .set_gauge("serve.jobs.running", table.count(|p| matches!(p, JobPhase::Running)));
            state.sub.set_gauge("serve.jobs.done", table.count(|p| matches!(p, JobPhase::Done(_))));
        }
        render_prometheus(&state.sub.metrics_snapshot())
    }));
    match rendered {
        Ok(body) => Response::with_content_type(200, PROMETHEUS_CONTENT_TYPE, body),
        Err(_) => Response::text(500, "metrics rendering failed\n".into()),
    }
}
