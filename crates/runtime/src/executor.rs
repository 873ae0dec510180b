//! The batch executor: worker pool, isolation boundary, retry loop,
//! journaling and the kill/resume machinery.
//!
//! One call to [`run_batch`] drives `jobs` independent pipeline problems
//! (derived from the corpus seed) to terminal [`JobOutcome`]s. Each
//! attempt runs under `catch_unwind` with a quiet panic hook, so injected
//! or genuine panics become structured [`AttemptFailure`]s; failed
//! attempts retry with seeded backoff and warm-start from the checkpoints
//! their failed predecessors journaled. The write-ahead rule is: the
//! `attempt` record is journaled (and flushed) before the attempt runs,
//! and its `checkpoint`/`failure`/`outcome` records before the next
//! attempt or job proceeds — which is exactly the state [`run_batch`]
//! rebuilds when handed a parsed [`JournalState`] to resume from.

use std::cell::Cell;
use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use tml_core::pipeline::{
    CheckpointHook, PipelineCheckpoint, PipelineStage, TmlOutcome, TmlPipeline,
};
use tml_core::Budget;
use tml_models::Path;

use crate::chaos::{ChaosSpec, Fault};
use crate::corpus::{build_job, job_spec, JobInput};
use crate::job::{fingerprint_dtmc, AttemptFailure, FailureKind, JobOutcome, JobStatus};
use crate::journal::{BatchConfig, Journal, JournalState};
use crate::retry::RetryPolicy;

/// Cooperative cancellation: tests (and signal handlers) arm it; workers
/// stop picking up jobs at the next boundary.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch(Arc<AtomicBool>);

impl KillSwitch {
    /// A disarmed switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the switch; in-flight attempts finish, no new work starts.
    pub fn arm(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the switch has been armed.
    pub fn armed(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Configuration for one [`run_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Corpus seed: every job spec derives from it.
    pub corpus_seed: u64,
    /// Number of jobs.
    pub jobs: u64,
    /// Retry policy (attempt cap + backoff shape).
    pub retry: RetryPolicy,
    /// Worker threads (clamped to at least 1).
    pub workers: u32,
    /// Fault-injection plan, when chaos is on.
    pub chaos: Option<ChaosSpec>,
    /// Wall-clock deadline for the whole batch. Backoffs are clamped to
    /// it and retries abandoned past it. **Deadline batches are not
    /// byte-deterministic** — the cut point depends on scheduling — so
    /// the chaos-smoke byte-identity check never sets one.
    pub deadline: Option<Duration>,
    /// Cooperative kill switch (shared with the caller).
    pub kill: KillSwitch,
    /// Simulate a crash after this many journaled outcomes: arm the kill
    /// switch (soft) or `exit(137)` (hard, CLI `--kill-after`).
    pub kill_after: Option<u64>,
    /// Whether `kill_after` exits the process instead of arming the
    /// switch.
    pub hard_kill: bool,
}

impl BatchOptions {
    /// Options for a `jobs`-job batch under `corpus_seed`, defaults
    /// elsewhere.
    pub fn new(corpus_seed: u64, jobs: u64) -> Self {
        BatchOptions {
            corpus_seed,
            jobs,
            retry: RetryPolicy::default(),
            workers: 1,
            chaos: None,
            deadline: None,
            kill: KillSwitch::new(),
            kill_after: None,
            hard_kill: false,
        }
    }

    /// The journal/report `meta` configuration these options describe.
    pub fn config(&self) -> BatchConfig {
        BatchConfig {
            corpus_seed: self.corpus_seed,
            jobs: self.jobs,
            max_attempts: self.retry.max_attempts,
            workers: self.workers,
            chaos: self.chaos.as_ref().map(ChaosSpec::canonical),
        }
    }
}

/// What a [`run_batch`] call produced.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Terminal outcomes, sorted by job id. A killed run holds only the
    /// jobs that concluded before the switch armed.
    pub outcomes: Vec<JobOutcome>,
    /// Whether the kill switch cut the batch short.
    pub killed: bool,
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that stays silent while a
/// worker holds an isolation boundary — injected panics would otherwise
/// spray backtraces over every chaos run — and defers to the previous
/// hook everywhere else.
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `f` under the batch isolation boundary: the quiet panic hook is
/// armed for the duration, a panic is caught and rendered to its payload
/// string instead of unwinding into the caller. This is the same boundary
/// every batch attempt runs under, exported so other executors (the serve
/// layer's verify jobs) isolate identically.
///
/// # Errors
///
/// Returns the panic payload, rendered, when `f` panicked.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    out.map_err(|payload| panic_detail(payload.as_ref()))
}

struct AttemptSuccess {
    status: JobStatus,
    detail: String,
    fingerprint: Option<u64>,
    evaluations: u64,
}

/// Runs one isolated attempt: inject the fault (if any), run the
/// pipeline under `catch_unwind`, classify the conclusion. Returns the
/// checkpoints the attempt reached alongside its verdict.
fn run_attempt(
    input: &JobInput,
    warm: &[(PipelineStage, Vec<f64>)],
    fault: Option<Fault>,
    budget: Option<&Budget>,
) -> (Vec<PipelineCheckpoint>, Result<AttemptSuccess, (FailureKind, String)>) {
    let reached: Arc<Mutex<Vec<PipelineCheckpoint>>> = Arc::new(Mutex::new(Vec::new()));

    match fault {
        Some(Fault::Slow(d)) => std::thread::sleep(d),
        Some(Fault::PoisonNan) => {
            // Drive the real validation path: a NaN weight must be
            // rejected by the dataset, exactly as a poisoned ingest would.
            let mut ds = input.dataset.clone();
            let err = ds
                .push(0, Path::from_states(vec![0]), f64::NAN)
                .expect_err("NaN weights are always rejected");
            return (Vec::new(), Err((FailureKind::Error, format!("poisoned dataset: {err}"))));
        }
        _ => {}
    }

    let sink = reached.clone();
    let hook: CheckpointHook = Arc::new(move |cp: &PipelineCheckpoint| {
        sink.lock().unwrap_or_else(|e| e.into_inner()).push(cp.clone());
        if let Some(Fault::Panic(stage)) = fault {
            if cp.stage == stage {
                panic!("injected panic at {}", stage.name());
            }
        }
    });

    let mut pipeline = TmlPipeline::new(input.spec.clone(), input.formula.clone())
        .with_data_repair()
        .with_checkpoint_hook(hook);
    if let Some(b) = budget {
        pipeline = pipeline.with_budget(b.clone());
    }
    for (stage, x) in warm {
        pipeline = pipeline.with_warm_start(*stage, x.clone());
    }

    let outcome = isolate(move || pipeline.run(&input.dataset));

    let checkpoints = std::mem::take(&mut *reached.lock().unwrap_or_else(|e| e.into_inner()));
    let verdict = match outcome {
        Err(detail) => Err((FailureKind::Panic, detail)),
        Ok(Err(e)) => Err((FailureKind::Error, e.to_string())),
        Ok(Ok(out)) => {
            let fingerprint = out.model().map(fingerprint_dtmc);
            let (status, detail, evaluations) = match &out {
                TmlOutcome::Satisfied { .. } => {
                    (JobStatus::Satisfied, "learned model satisfies the property".into(), 0)
                }
                TmlOutcome::ModelRepaired { outcome } => (
                    JobStatus::ModelRepaired,
                    "model repair produced a trusted model".into(),
                    outcome.evaluations as u64,
                ),
                TmlOutcome::DataRepaired { outcome, .. } => (
                    JobStatus::DataRepaired,
                    "data repair produced a trusted model".into(),
                    outcome.evaluations as u64,
                ),
                TmlOutcome::Unrepairable { evaluations, .. } => (
                    JobStatus::Unrepairable,
                    "no configured repair satisfies the property".into(),
                    *evaluations as u64,
                ),
            };
            Ok(AttemptSuccess { status, detail, fingerprint, evaluations })
        }
    };
    (checkpoints, verdict)
}

/// Shared mutable batch state (behind one mutex: contention is per job
/// conclusion, not per solve).
struct Shared {
    outcomes: Vec<JobOutcome>,
    io_error: Option<io::Error>,
}

/// Everything one job's attempt loop needs besides the job itself — the
/// executor's library surface. [`run_batch`] builds one per batch; the
/// serve layer builds one per submission (with a per-request [`Budget`]).
pub struct JobContext<'a> {
    /// Corpus seed: derives job specs and seeds chaos/backoff draws.
    pub corpus_seed: u64,
    /// Retry policy (attempt cap + backoff shape).
    pub retry: RetryPolicy,
    /// Fault-injection plan, when chaos is on.
    pub chaos: Option<&'a ChaosSpec>,
    /// Per-job budget (deadline + eval cap) threaded into the pipeline.
    /// `None` runs unlimited — the batch path, whose byte-identity
    /// contract cannot tolerate wall-clock-dependent results.
    pub budget: Option<Budget>,
    /// When the enclosing run started (anchors `deadline`).
    pub started: Instant,
    /// Wall-clock deadline for the enclosing run, when one is set.
    pub deadline: Option<Duration>,
}

impl JobContext<'_> {
    /// Time left before the run deadline (`None` when no deadline).
    fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_sub(self.started.elapsed()))
    }
}

/// Runs one corpus-derived job's attempt loop to a terminal outcome,
/// journaling every transition write-ahead. `job` is the journal id the
/// records carry; `index` derives the job's inputs from the corpus seed
/// (the batch path passes `job == index`; the serve path assigns ids at
/// admission). `first_attempt`/`warm`/`prior_failure` come from a parsed
/// journal on resume (1, empty, and `None` on a fresh run).
///
/// When `first_attempt` is past `max_attempts`, every permitted attempt
/// already failed before the crash and the torn record was the outcome
/// itself: the job runs **nothing** and the `Failed` outcome is
/// reconstructed from `prior_failure`
/// ([`JournalState::last_failure`](crate::journal::JournalState::last_failure)),
/// keeping the resumed report byte-identical to the control instead of
/// burning a forbidden extra attempt.
///
/// An already-expired deadline yields **zero attempts**: the outcome is
/// `Failed` with `attempts: 0` and no `attempt` record is journaled —
/// the fix for the clamped-to-zero-backoff edge case where attempt 1
/// used to run against a budget that was already spent.
///
/// # Errors
///
/// Returns the first journal I/O error. The outcome itself is **not**
/// journaled here — callers write it (or surface the error) so they can
/// order it against their own bookkeeping.
pub fn run_corpus_job<W: Write + Send>(
    journal: &Journal<W>,
    ctx: &JobContext<'_>,
    job: u64,
    index: u64,
    first_attempt: u32,
    mut warm: Vec<(PipelineStage, Vec<f64>)>,
    prior_failure: Option<String>,
) -> io::Result<JobOutcome> {
    let failed = |attempts: u32, detail: String| JobOutcome {
        job,
        attempts,
        status: JobStatus::Failed,
        detail,
        fingerprint: None,
        evaluations: 0,
    };

    if first_attempt > ctx.retry.max_attempts {
        // Attempts exhausted before the crash; only the outcome record was
        // torn off. Reconstruct it — running attempt `first_attempt` here
        // would exceed the budget the control run obeyed.
        return Ok(failed(ctx.retry.max_attempts, prior_failure.unwrap_or_default()));
    }

    // Reconstructed outcomes above run nothing, so they emit no span; every
    // executed job gets exactly one `runtime.job` span that carries the
    // installed trace context (batch derives it per job; serve installs the
    // submission's context before calling in here).
    let _span = tml_telemetry::span!("runtime.job", job = job, index = index);

    let spec = job_spec(ctx.corpus_seed, index);
    let input = match build_job(&spec) {
        Ok(input) => input,
        Err(detail) => return Ok(failed(1, format!("corpus construction: {detail}"))),
    };

    if !ctx.retry.permits_attempt(ctx.remaining()) {
        tml_telemetry::counter!("runtime.attempt.deadline_skips", 1);
        return Ok(failed(0, "run deadline exhausted before first attempt".into()));
    }

    let last_attempt = ctx.retry.max_attempts;
    let mut last_failure = String::new();
    for attempt in first_attempt..=last_attempt {
        journal.attempt(job, attempt)?;

        let fault = ctx.chaos.and_then(|c| c.fault(job, attempt));
        let (checkpoints, verdict) = run_attempt(&input, &warm, fault, ctx.budget.as_ref());
        for cp in &checkpoints {
            journal.checkpoint(job, attempt, cp.stage, cp.solver_point.as_deref())?;
        }

        match verdict {
            Ok(success) => {
                return Ok(JobOutcome {
                    job,
                    attempts: attempt,
                    status: success.status,
                    detail: success.detail,
                    fingerprint: success.fingerprint,
                    evaluations: success.evaluations,
                });
            }
            Err((kind, detail)) => {
                tml_telemetry::counter!("runtime.attempt.failures", 1);
                let failure = AttemptFailure { job, attempt, kind, detail };
                journal.failure(&failure)?;
                // Fold-after-failure: only now do this attempt's
                // checkpoints become warm starts. The resume path applies
                // the same rule when it reads the journal back.
                warm.extend(
                    checkpoints.into_iter().filter_map(|cp| cp.solver_point.map(|x| (cp.stage, x))),
                );
                last_failure = format!("{}: {}", failure.kind.name(), failure.detail);

                if attempt < ctx.retry.max_attempts {
                    let remaining = ctx.remaining();
                    if !ctx.retry.permits_attempt(remaining) {
                        last_failure =
                            format!("run deadline exhausted during retries ({last_failure})");
                        break;
                    }
                    std::thread::sleep(ctx.retry.backoff(ctx.corpus_seed, job, attempt, remaining));
                }
            }
        }
    }

    Ok(failed(last_attempt, last_failure))
}

/// Runs (or resumes) a batch. Jobs with an `outcome` record in `resume`
/// replay verbatim; the rest run from their journaled next attempt with
/// warm starts recovered under the fold-after-failure rule, so the final
/// [`BatchResult`] — and the report rendered from it — is byte-identical
/// to an uninterrupted control run of the same options.
///
/// # Errors
///
/// Returns the first journal I/O error; solver-level problems never fail
/// the batch (that is the point of the isolation boundary).
pub fn run_batch<W: Write + Send>(
    opts: &BatchOptions,
    journal: &Journal<W>,
    resume: Option<&JournalState>,
) -> io::Result<BatchResult> {
    let started = Instant::now();
    let next_job = AtomicU64::new(0);
    let concluded = AtomicU64::new(0);
    let shared = Mutex::new(Shared {
        outcomes: resume.map(|s| s.outcomes.clone()).unwrap_or_default(),
        io_error: None,
    });
    let workers = opts.workers.max(1) as usize;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                worker(opts, journal, resume, &next_job, &concluded, &shared, started);
            });
        }
    });

    let mut inner = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = inner.io_error.take() {
        return Err(e);
    }
    inner.outcomes.sort_by_key(|o| o.job);
    let killed = opts.kill.armed();
    if !killed && inner.outcomes.len() as u64 == opts.jobs {
        journal.summary(&opts.config(), &inner.outcomes)?;
    }
    Ok(BatchResult { outcomes: inner.outcomes, killed })
}

fn worker<W: Write + Send>(
    opts: &BatchOptions,
    journal: &Journal<W>,
    resume: Option<&JournalState>,
    next_job: &AtomicU64,
    concluded: &AtomicU64,
    shared: &Mutex<Shared>,
    started: Instant,
) {
    let ctx = JobContext {
        corpus_seed: opts.corpus_seed,
        retry: opts.retry,
        chaos: opts.chaos.as_ref(),
        budget: None,
        started,
        deadline: opts.deadline,
    };
    loop {
        if opts.kill.armed() {
            return;
        }
        let job = next_job.fetch_add(1, Ordering::SeqCst);
        if job >= opts.jobs {
            return;
        }

        // Replayed job: its outcome is already in `shared.outcomes` (the
        // resume seed) and already journaled — only the conclusion count
        // moves, so `--kill-after` measures total concluded jobs.
        if let Some(prior) = resume.and_then(|s| s.outcome(job)) {
            let _ = prior;
            conclude(opts, concluded);
            continue;
        }

        let first_attempt = resume.map_or(1, |s| s.next_attempt(job));
        let warm = resume.map(|s| s.warm_starts(job)).unwrap_or_default();
        let prior = resume.and_then(|s| s.last_failure(job));
        // Seed-deterministic trace id: a resumed run derives the same id the
        // original run did, so spans from both processes group under one
        // trace when the files are analysed together.
        let _trace =
            tml_telemetry::with_trace(tml_telemetry::TraceContext::derive(opts.corpus_seed, job));
        let io_result = run_corpus_job(journal, &ctx, job, job, first_attempt, warm, prior)
            .and_then(|outcome| journal.outcome(&outcome).map(|()| outcome));
        {
            let mut s = shared.lock().unwrap_or_else(|e| e.into_inner());
            match io_result {
                Ok(outcome) => s.outcomes.push(outcome),
                Err(e) => {
                    if s.io_error.is_none() {
                        s.io_error = Some(e);
                    }
                    opts.kill.arm();
                    return;
                }
            }
        }
        conclude(opts, concluded);
    }
}

/// Counts a concluded job and fires the simulated crash when configured.
fn conclude(opts: &BatchOptions, concluded: &AtomicU64) {
    let total = concluded.fetch_add(1, Ordering::SeqCst) + 1;
    if opts.kill_after == Some(total) {
        if opts.hard_kill {
            // Simulated `kill -9`: no unwinding, no summary, the journal
            // ends wherever the last flush put it.
            std::process::exit(137);
        }
        opts.kill.arm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{parse_journal, render_report};

    fn batch(seed: u64, jobs: u64) -> BatchOptions {
        BatchOptions::new(seed, jobs)
    }

    fn run(opts: &BatchOptions, resume: Option<&JournalState>) -> (BatchResult, String) {
        let journal = Journal::create(Vec::new(), &opts.config()).unwrap();
        let result = run_batch(opts, &journal, resume).unwrap();
        (result, String::from_utf8(journal.into_inner()).unwrap())
    }

    #[test]
    fn corpus_exercises_every_outcome_class() {
        // The checked-probability anchors must actually produce all three
        // terminal classes, not collapse the batch into "satisfied".
        let opts = batch(7, 18);
        let (result, _) = run(&opts, None);
        let has = |s: JobStatus| result.outcomes.iter().any(|o| o.status == s);
        assert!(has(JobStatus::Satisfied), "some jobs start satisfied");
        assert!(has(JobStatus::DataRepaired), "some jobs are repaired");
        assert!(has(JobStatus::Unrepairable), "some jobs are unrepairable");
    }

    #[test]
    fn quiet_batch_concludes_every_job() {
        let opts = batch(3, 6);
        let (result, text) = run(&opts, None);
        assert!(!result.killed);
        assert_eq!(result.outcomes.len(), 6);
        assert!(result.outcomes.iter().all(|o| o.attempts == 1), "no chaos, no retries");
        let state = parse_journal(&text).unwrap();
        assert!(state.complete, "summary written");
        assert_eq!(state.outcomes.len(), 6);
        assert!(state.failures.is_empty());
    }

    #[test]
    fn chaos_panics_are_contained_and_retried() {
        let mut opts = batch(5, 8);
        opts.chaos = Some(ChaosSpec { panic: 0.5, nan: 0.2, slow: 0.0, seed: 11 });
        opts.retry.base = Duration::from_millis(1);
        opts.retry.cap = Duration::from_millis(2);
        let (result, text) = run(&opts, None);
        assert_eq!(result.outcomes.len(), 8, "every job concluded despite the chaos");
        let state = parse_journal(&text).unwrap();
        assert!(!state.failures.is_empty(), "p=0.7 over 8 jobs: faults fired");
        assert!(
            state.failures.iter().any(|f| f.kind == FailureKind::Panic),
            "panics crossed the isolation boundary as structured failures"
        );
        assert!(result.outcomes.iter().any(|o| o.attempts > 1), "some job needed a retry");
    }

    #[test]
    fn parallel_batch_reports_identically_to_serial() {
        let mut serial = batch(9, 10);
        serial.retry.base = Duration::from_millis(1);
        serial.retry.cap = Duration::from_millis(2);
        serial.chaos = Some(ChaosSpec { panic: 0.3, nan: 0.1, slow: 0.1, seed: 2 });
        let mut parallel = serial.clone();
        parallel.workers = 4;
        parallel.kill = KillSwitch::new();
        let (a, _) = run(&serial, None);
        let (b, _) = run(&parallel, None);
        assert_eq!(
            render_report(&serial.config(), &a.outcomes),
            render_report(&serial.config(), &b.outcomes),
            "worker count is not observable in the report"
        );
    }

    #[test]
    fn isolate_contains_panics_as_strings() {
        assert_eq!(isolate(|| 41 + 1).unwrap(), 42);
        let err = isolate(|| panic!("boom at stage {}", 3)).unwrap_err();
        assert!(err.contains("boom at stage 3"), "payload rendered: {err}");
    }

    #[test]
    fn expired_deadline_yields_zero_attempts() {
        let opts = batch(3, 1);
        let ctx = JobContext {
            corpus_seed: opts.corpus_seed,
            retry: opts.retry,
            chaos: None,
            budget: None,
            started: Instant::now(),
            deadline: Some(Duration::ZERO),
        };
        let journal = Journal::create(Vec::new(), &opts.config()).unwrap();
        let out = run_corpus_job(&journal, &ctx, 0, 0, 1, Vec::new(), None).unwrap();
        assert_eq!(out.attempts, 0, "expired deadline permits zero attempts");
        assert_eq!(out.status, JobStatus::Failed);
        let text = String::from_utf8(journal.into_inner()).unwrap();
        assert!(
            !text.contains("\"type\":\"attempt\""),
            "no attempt record for a job that never ran"
        );
    }

    #[test]
    fn unrepairable_jobs_report_the_evaluations_their_repair_spent() {
        // Job 1 of corpus 0 asks for more than any reweighting reaches: its
        // data repair searches the whole keep-weight box and concludes
        // unrepairable, and the outcome (hence journal, report and serve
        // result) carries that search's evaluations.
        let opts = batch(0, 2);
        let ctx = JobContext {
            corpus_seed: opts.corpus_seed,
            retry: opts.retry,
            chaos: None,
            budget: None,
            started: Instant::now(),
            deadline: None,
        };
        let journal = Journal::create(Vec::new(), &opts.config()).unwrap();
        let out = run_corpus_job(&journal, &ctx, 1, 1, 1, Vec::new(), None).unwrap();
        assert_eq!(out.status, JobStatus::Unrepairable);
        assert!(out.evaluations > 0, "an unrepairable job ran a full data repair");
        let report = render_report(&opts.config(), std::slice::from_ref(&out));
        assert!(report.contains(&format!("\"evaluations\":{}", out.evaluations)), "{report}");
    }

    #[test]
    fn zero_eval_budget_degrades_repairs_to_unrepairable() {
        let opts = batch(7, 18);
        let (control, _) = run(&opts, None);
        let repaired = control
            .outcomes
            .iter()
            .find(|o| o.status == JobStatus::DataRepaired || o.status == JobStatus::ModelRepaired)
            .expect("corpus has a repairable job");
        let ctx = JobContext {
            corpus_seed: opts.corpus_seed,
            retry: opts.retry,
            chaos: None,
            budget: Some(Budget::unlimited().with_max_evaluations(0)),
            started: Instant::now(),
            deadline: None,
        };
        let journal = Journal::create(Vec::new(), &opts.config()).unwrap();
        let out = run_corpus_job(&journal, &ctx, repaired.job, repaired.job, 1, Vec::new(), None)
            .unwrap();
        assert_eq!(
            out.status,
            JobStatus::Unrepairable,
            "a cap-0 budget exhausts every repair stage immediately"
        );
    }

    #[test]
    fn soft_kill_stops_early_and_resume_matches_control() {
        let mut control = batch(17, 8);
        control.retry.base = Duration::from_millis(1);
        control.retry.cap = Duration::from_millis(2);
        control.chaos = Some(ChaosSpec { panic: 0.4, nan: 0.2, slow: 0.0, seed: 6 });
        let (control_result, _) = run(&control, None);
        let control_report = render_report(&control.config(), &control_result.outcomes);

        let mut killed = control.clone();
        killed.kill = KillSwitch::new();
        killed.kill_after = Some(3);
        let (killed_result, killed_text) = run(&killed, None);
        assert!(killed_result.killed);
        assert!(killed_result.outcomes.len() < 8, "kill cut the batch short");
        let state = parse_journal(&killed_text).unwrap();
        assert!(!state.complete, "no summary in a killed journal");

        let mut resumed = control.clone();
        resumed.kill = KillSwitch::new();
        let (resumed_result, _) = run(&resumed, Some(&state));
        let resumed_report = render_report(&resumed.config(), &resumed_result.outcomes);
        assert_eq!(resumed_report, control_report, "resume is byte-identical to control");
    }

    #[test]
    fn truncation_at_every_byte_offset_parses_and_resumes_identically() {
        use crate::journal::parse_journal_bytes;
        use std::collections::HashSet;

        // A chaotic 3-job batch journals attempt, checkpoint, failure,
        // outcome and summary records, so the cuts below land inside every
        // record type and at every field boundary.
        let mut opts = batch(5, 3);
        opts.retry.base = Duration::from_millis(1);
        opts.retry.cap = Duration::from_millis(2);
        opts.chaos = Some(ChaosSpec { panic: 0.5, nan: 0.2, slow: 0.0, seed: 11 });
        let (control, text) = run(&opts, None);
        let control_report = render_report(&opts.config(), &control.outcomes);
        let bytes = text.as_bytes();
        let meta_end = text.find('\n').expect("meta line") + 1;

        let mut verified: HashSet<String> = HashSet::new();
        for cut in 0..=bytes.len() {
            let state = match parse_journal_bytes(&bytes[..cut]) {
                Ok(state) => state,
                Err(e) => {
                    assert!(
                        cut < meta_end,
                        "cut at byte {cut}: only a torn meta line may fail to parse, got {e}"
                    );
                    continue;
                }
            };
            // Distinct recovered states land one per complete record: a cut
            // inside a record tears its whole line off, recovering the same
            // state as the previous record boundary. Resume each distinct
            // state once — the Debug form is a faithful fingerprint — which
            // keeps the loop to ~one resume per journal line while still
            // asserting every single byte offset.
            if !verified.insert(format!("{state:?}")) {
                continue;
            }
            let mut resumed = opts.clone();
            resumed.kill = KillSwitch::new();
            let (result, _) = run(&resumed, Some(&state));
            assert_eq!(
                render_report(&resumed.config(), &result.outcomes),
                control_report,
                "resume from a journal cut at byte {cut}/{} diverged from the control report",
                bytes.len()
            );
        }
        assert!(
            verified.len() > 10,
            "expected one distinct recovery state per journal record, got {}",
            verified.len()
        );
    }
}
