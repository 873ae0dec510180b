//! End-to-end `tml batch` tests against the real binary: a hard
//! `--kill-after` crash (exit 137), journal recovery with `--resume`, and
//! the byte-identity contract between a resumed report and an
//! uninterrupted control. Also pins the exit-code contract of usage
//! errors (exit 2) — including `check --simulate 0` and a model whose
//! state count far exceeds its rows.

use std::path::PathBuf;
use std::process::{Command, Output};

const TML: &str = env!("CARGO_BIN_EXE_tml");
const CHAOS: &str = "panic=0.3,nan=0.15,slow=0.05,seed=5";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tml-batch-cli-{name}-{}", std::process::id()))
}

fn tml(args: &[&str]) -> Output {
    Command::new(TML).args(args).output().expect("spawn tml")
}

fn assert_code(out: &Output, code: i32, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: expected exit {code}, got {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn killed_batch_resumes_to_a_byte_identical_report() {
    let control_journal = tmp("control.journal");
    let control_report = tmp("control.report");
    let crashed_journal = tmp("crashed.journal");
    let crashed_report = tmp("crashed.report");

    // Uninterrupted control run.
    let out = tml(&[
        "batch",
        "12",
        "--corpus-seed",
        "41",
        "--chaos",
        CHAOS,
        "--journal",
        control_journal.to_str().unwrap(),
        "--report",
        control_report.to_str().unwrap(),
    ]);
    assert_code(&out, 0, "control batch");

    // Same batch, crashed mid-run: exit(137), no summary, torn-or-clean
    // journal on disk.
    let out = tml(&[
        "batch",
        "12",
        "--corpus-seed",
        "41",
        "--chaos",
        CHAOS,
        "--kill-after",
        "5",
        "--journal",
        crashed_journal.to_str().unwrap(),
        "--report",
        crashed_report.to_str().unwrap(),
    ]);
    assert_code(&out, 137, "killed batch");
    assert!(!crashed_report.exists(), "a killed run writes no report");
    let journal_text = std::fs::read_to_string(&crashed_journal).expect("journal survives");
    assert!(journal_text.lines().next().unwrap().contains("tml-journal/v1"));
    assert!(!journal_text.contains("\"type\":\"summary\""), "killed journal has no summary");

    // Resume from the journal alone — no flags repeated.
    let out = tml(&[
        "batch",
        "--resume",
        crashed_journal.to_str().unwrap(),
        "--report",
        crashed_report.to_str().unwrap(),
    ]);
    assert_code(&out, 0, "resumed batch");

    let control = std::fs::read(&control_report).expect("control report");
    let resumed = std::fs::read(&crashed_report).expect("resumed report");
    assert_eq!(control, resumed, "resumed report is byte-identical to the control");

    // The appended journal now parses as one resumed, in-progress stream.
    let resumed_journal = std::fs::read_to_string(&crashed_journal).unwrap();
    assert!(resumed_journal.contains("\"type\":\"resume\""));

    for p in [&control_journal, &control_report, &crashed_journal, &crashed_report] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn batch_without_journal_prints_report_to_stdout() {
    let out = tml(&["batch", "4", "--corpus-seed", "3", "--workers", "1"]);
    assert_code(&out, 0, "journal-less batch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "meta + 4 outcomes + summary: {stdout}");
    assert!(lines[0].contains("tml-journal/v1"));
    assert!(lines[5].contains("\"type\":\"summary\""));
}

#[test]
fn batch_usage_errors_exit_2() {
    assert_code(&tml(&["batch"]), 2, "missing COUNT");
    assert_code(&tml(&["batch", "0"]), 2, "zero COUNT");
    assert_code(&tml(&["batch", "4", "--chaos", "panic=2"]), 2, "bad chaos spec");
    assert_code(&tml(&["batch", "4", "--kill-after", "2"]), 2, "--kill-after without --journal");
    assert_code(&tml(&["batch", "4", "--resume", "/no/such.jsonl"]), 2, "COUNT with --resume");
}

#[test]
fn check_simulate_zero_exits_2() {
    // `--simulate 0` asks for a cross-check with no trajectories; it must
    // be rejected as a usage error (exit 2), never run as a no-op check.
    let model = tmp("chain.tml");
    std::fs::write(&model, "dtmc\nstates 2\nlabel \"done\" = 1\n0 -> 1: 1.0\n1 -> 1: 1.0\n")
        .unwrap();
    let out = tml(&["check", model.to_str().unwrap(), "P>=0.5 [ F \"done\" ]", "--simulate", "0"]);
    assert_code(&out, 2, "check --simulate 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("at least one trajectory"), "explains the rejection: {stderr}");
    // Sanity: the same invocation with a real count succeeds.
    let out = tml(&["check", model.to_str().unwrap(), "P>=0.5 [ F \"done\" ]", "--simulate", "50"]);
    assert_code(&out, 0, "check --simulate 50");
    let _ = std::fs::remove_file(model);
}

#[test]
fn info_rejects_a_state_count_beyond_the_rows() {
    // The count alone must not size anything: the model is refused with
    // the `states` line, not an allocation failure.
    let model = tmp("huge.tml");
    std::fs::write(&model, "dtmc\nstates 100000000000\n0 -> 0: 1.0\n").unwrap();
    let out = tml(&["info", model.to_str().unwrap()]);
    assert_code(&out, 2, "info on a huge state count");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2: state 1 has no outgoing distribution"), "{stderr}");
    let _ = std::fs::remove_file(model);
}
