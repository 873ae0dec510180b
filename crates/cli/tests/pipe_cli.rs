//! A reader that closes the pipe early (`tml info big.tml | head -1`) is
//! not an error: `tml` drops the rest of its output and exits with its
//! usual code instead of panicking on `BrokenPipe`.

use std::path::PathBuf;
use std::process::Command;

const TML: &str = env!("CARGO_BIN_EXE_tml");

/// A 20,000-state chain of lazy steps ending in an absorbing "goal".
fn big_chain() -> PathBuf {
    let n = 20_000;
    let mut text = format!("dtmc\nstates {n}\nlabel \"goal\" = {}\n", n - 1);
    for s in 0..n - 1 {
        text.push_str(&format!("{s} -> {s}: 0.1, {}: 0.9\n", s + 1));
    }
    text.push_str(&format!("{0} -> {0}: 1.0\n", n - 1));
    let path = std::env::temp_dir().join(format!("tml-pipe-cli-{}.tml", std::process::id()));
    std::fs::write(&path, text).expect("write model");
    path
}

/// Runs `tml` with stdout on a pipe whose read end is already closed, so
/// every write fails with `BrokenPipe`.
fn run_into_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(TML).args(args).stdout(writer).output().expect("spawn tml");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn closed_stdout_is_a_quiet_exit() {
    let model = big_chain();
    let model = model.to_str().expect("utf-8 temp path");
    for args in [
        vec!["info", model],
        vec!["query", model, "P=? [ F \"goal\" ]"],
        vec!["check", model, "P>=0.5 [ F \"goal\" ]"],
    ] {
        let (code, stderr) = run_into_closed_pipe(&args);
        assert_eq!(code, Some(0), "{args:?}: exit code; stderr: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: expected no stderr, got: {stderr}");
    }
    // The exit code stays the command's own: a violated property exits 1.
    let (code, stderr) = run_into_closed_pipe(&["check", model, "P<0.5 [ F \"goal\" ]"]);
    assert_eq!(code, Some(1), "violated check; stderr: {stderr}");
    assert!(stderr.is_empty(), "violated check: expected no stderr, got: {stderr}");
    let _ = std::fs::remove_file(model);
}
