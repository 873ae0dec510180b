//! `--robust` and budget reports on `tml query`: a point dtmc answers with
//! the bracket of its Wilson confidence ball, a point mdp is a usage
//! error, and a budget-stopped interval query says that it stopped.

use std::process::{Command, Output};

const TML: &str = env!("CARGO_BIN_EXE_tml");

fn asset(name: &str) -> String {
    format!("{}/../../assets/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn tml(args: &[&str]) -> Output {
    Command::new(TML).args(args).output().expect("spawn tml")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn robust_query_brackets_a_point_dtmc() {
    let model = asset("gambler.tml");
    let query = "P=? [ F \"rich\" ]";
    let out = tml(&["query", &model, query, "--robust", "--confidence", "0.9"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("robust: Wilson ball at 0.9 confidence, sample size 100"), "{text}");
    let line = text
        .lines()
        .find(|l| l.starts_with("bracket at initial state 2: ["))
        .unwrap_or_else(|| panic!("no bracket at the initial state: {text}"));
    let inner = line.split_once('[').unwrap().1.trim_end_matches(']');
    let (lo, hi) = inner.split_once(", ").unwrap();
    let (lo, hi): (f64, f64) = (lo.parse().unwrap(), hi.parse().unwrap());
    // The nominal value 0.5 lies strictly inside the ball's bracket.
    assert!(lo < 0.5 && 0.5 < hi, "[{lo}, {hi}]");
    // Without the flag the same query is the point value.
    let point = stdout(&tml(&["query", &model, query]));
    assert!(point.contains("value at initial state 2:"), "{point}");
    assert!(!point.contains("bracket"), "{point}");
}

#[test]
fn robust_query_rejects_a_point_mdp() {
    let out = tml(&["query", &asset("routes.tml"), "Pmax=? [ F \"goal\" ]", "--robust"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("point MDPs have none"), "{err}");
}

#[test]
fn budget_stopped_interval_mdp_query_reports_exhaustion() {
    let model = std::env::temp_dir().join(format!("tml-robust-cli-{}.tml", std::process::id()));
    std::fs::write(
        &model,
        "imdp\nstates 4\ninitial 0\nlabel \"goal\" = 2\n\
         0 [a] -> 0: 0.3..0.5, 1: 0.2..0.4, 3: 0.1..0.3\n\
         0 [b] -> 1: 0.4..0.6, 3: 0.4..0.6\n\
         1 [a] -> 0: 0.2..0.4, 2: 0.3..0.5, 3: 0.2..0.4\n\
         2 [a] -> 2: 1.0..1.0\n3 [a] -> 3: 1.0..1.0\n",
    )
    .expect("write model");
    let model = model.to_str().expect("utf-8 temp path");
    let out = tml(&["query", model, "Pmin=? [ F \"goal\" ]", "--max-evals", "1"]);
    let _ = std::fs::remove_file(model);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("degraded: result is best-effort, not exact"), "{text}");
    assert!(text.contains("stopped early: evaluation cap reached"), "{text}");
}
