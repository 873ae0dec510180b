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

/// A 4-state interval MDP written to a temporary file, removed on drop.
struct TempModel(std::path::PathBuf);

impl TempModel {
    fn imdp(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("tml-robust-cli-{tag}-{}.tml", std::process::id()));
        std::fs::write(
            &path,
            "imdp\nstates 4\ninitial 0\nlabel \"goal\" = 2\n\
             0 [a] -> 0: 0.3..0.5, 1: 0.2..0.4, 3: 0.1..0.3\n\
             0 [b] -> 1: 0.4..0.6, 3: 0.4..0.6\n\
             1 [a] -> 0: 0.2..0.4, 2: 0.3..0.5, 3: 0.2..0.4\n\
             2 [a] -> 2: 1.0..1.0\n3 [a] -> 3: 1.0..1.0\n",
        )
        .expect("write model");
        TempModel(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempModel {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn budget_stopped_interval_mdp_query_reports_exhaustion() {
    let model = TempModel::imdp("report");
    let out = tml(&["query", model.path(), "Pmin=? [ F \"goal\" ]", "--max-evals", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("degraded: result is best-effort, not exact"), "{text}");
    assert!(text.contains("stopped early: evaluation cap reached"), "{text}");
}

/// The per-state `[lo, hi]` brackets of a `tml query` on an interval model.
fn state_brackets(text: &str) -> Vec<(f64, f64)> {
    text.lines()
        .filter_map(|l| l.trim_start().strip_prefix("state "))
        .map(|l| {
            let inner = l.split_once('[').unwrap().1.trim_end_matches(']');
            let (lo, hi) = inner.split_once(", ").unwrap();
            (lo.parse().unwrap(), hi.parse().unwrap())
        })
        .collect()
}

#[test]
fn budget_stopped_brackets_stay_sound() {
    let imdp = TempModel::imdp("sound");
    let sensor = asset("sensor.tml");
    for (model, query) in
        [(sensor.as_str(), "P=? [ F \"delivered\" ]"), (imdp.path(), "Pmin=? [ F \"goal\" ]")]
    {
        let exact = state_brackets(&stdout(&tml(&["query", model, query])));
        assert_eq!(exact.len(), 4, "{model}");
        for cap in ["1", "2"] {
            let out = tml(&["query", model, query, "--max-evals", cap]);
            assert_eq!(out.status.code(), Some(0));
            let text = stdout(&out);
            assert!(text.contains("stopped early: evaluation cap reached"), "{text}");
            let capped = state_brackets(&text);
            assert_eq!(capped.len(), exact.len(), "{text}");
            for (s, (&(lo, hi), &(x_lo, x_hi))) in capped.iter().zip(&exact).enumerate() {
                assert!(lo <= hi, "{model} --max-evals {cap}, state {s}: [{lo}, {hi}]");
                assert!(
                    lo <= x_lo && x_hi <= hi,
                    "{model} --max-evals {cap}, state {s}: uncapped [{x_lo}, {x_hi}] \
                     outside [{lo}, {hi}]"
                );
            }
        }
    }
}

#[test]
fn budget_stopped_brackets_keep_states_that_cannot_reach_the_target_at_zero() {
    // State 3 of the sensor ("lost") is absorbing: no member ever reaches
    // "delivered" from it, so a cut solve knows it exactly, on both sides
    // and for both horizons.
    let sensor = asset("sensor.tml");
    for query in ["P=? [ F \"delivered\" ]", "P=? [ F<=3 \"delivered\" ]"] {
        let text = stdout(&tml(&["query", &sensor, query, "--max-evals", "1"]));
        assert!(text.contains("stopped early: evaluation cap reached"), "{text}");
        assert!(text.contains("state 3: [0, 0]"), "{query}: {text}");
    }
    // The imdp's sink 3 cannot reach the goal under any action either.
    let imdp = TempModel::imdp("prob0");
    let text = stdout(&tml(&["query", imdp.path(), "Pmax=? [ F \"goal\" ]", "--max-evals", "1"]));
    assert!(text.contains("state 3: [0, 0]"), "{text}");
}
