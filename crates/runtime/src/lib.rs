//! Crash-consistent batch repair runtime (DESIGN.md §11).
//!
//! The single-pipeline API ([`tml_core::pipeline::TmlPipeline`]) answers
//! one repair question; production workloads ask thousands at once — one
//! per learned model shipped that day. This crate is the executor for that
//! shape of work, built around three robustness mechanisms:
//!
//! * **Per-job panic isolation** — every attempt runs under
//!   `catch_unwind`, so one poisoned job becomes a structured
//!   [`job::AttemptFailure`] instead of aborting the batch.
//! * **Seeded retry with backoff** — failed attempts are retried up to a
//!   per-job cap with full-jitter exponential backoff ([`retry`]), seeded
//!   from `(batch_seed, job, attempt)` so two runs of the same batch take
//!   the same delays, clamped to whatever remains of the batch deadline.
//! * **Crash consistency** — every state transition (attempt started,
//!   checkpoint reached, attempt failed, job concluded) is appended to a
//!   `tml-journal/v1` write-ahead journal ([`journal`]) *before* the next
//!   step runs. After a `kill -9`, resuming from the journal replays
//!   completed jobs and re-runs only in-flight ones, producing a final
//!   report **byte-identical** to an uninterrupted run.
//!
//! A deterministic chaos layer ([`chaos`]) injects panics, poisoned
//! datasets and slow solves from a seeded fault plan keyed on
//! `(job, attempt)` — the same faults strike at the same points in a
//! control run, a killed run and its resume, which is what makes the
//! byte-identity contract testable in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod corpus;
pub mod executor;
pub mod job;
pub mod journal;
pub mod retry;

pub use chaos::{ChaosSpec, Fault};
pub use clock::{system_clock, Clock, ManualClock, SharedClock, SystemClock};
pub use executor::{run_batch, BatchOptions, BatchResult, JobContext, KillSwitch};
pub use job::{AttemptFailure, FailureKind, JobOutcome, JobSpec, JobStatus};
pub use journal::{
    parse_journal, parse_journal_bytes, BatchConfig, Journal, JournalState, Submission, SubmitKind,
};
pub use retry::RetryPolicy;
