//! The exact text of `tml check` and `tml query` on every model in
//! `assets/`: stdout byte for byte, the exit code, and the first stderr
//! line of a usage error (exit 2). Covers point, interval and `--robust`
//! checks, `Pmax`/`Pmin` and a missing `min`/`max` on the MDP, a nested
//! operator on a point and on an interval chain, and the usage error of
//! `--robust` on a point MDP.

use std::process::Command;

const TML: &str = env!("CARGO_BIN_EXE_tml");

struct Case {
    /// Subcommand, asset file name, property or query, extra flags.
    args: &'static [&'static str],
    code: i32,
    stdout: &'static str,
    /// The first line of stderr on exit 2, empty otherwise.
    stderr: &'static str,
}

const CASES: &[Case] = &[
    Case {
        args: &["check", "gambler.tml", r#"P>=0.5 [ F "rich" ]"#],
        code: 0,
        stdout: r#"property:   P>=0.5 [ F "rich" ]
holds at initial state: true
satisfying states (3): [2, 3, 4]
value at initial state: 0.49999999999999994
"#,
        stderr: "",
    },
    Case {
        args: &["check", "gambler.tml", r#"P>=0.9 [ F "rich" ]"#],
        code: 1,
        stdout: r#"property:   P>=0.9 [ F "rich" ]
holds at initial state: false
satisfying states (1): [4]
value at initial state: 0.49999999999999994
"#,
        stderr: "",
    },
    Case {
        args: &["check", "gambler.tml", r#""rich" | "broke""#],
        code: 1,
        stdout: r#"property:   ("rich" | "broke")
holds at initial state: false
satisfying states (2): [0, 4]
"#,
        stderr: "",
    },
    Case {
        args: &["check", "gambler.tml", r#"P>=0.5 [ F P>=0.9 [ X "rich" ] ]"#],
        code: 0,
        stdout: r#"property:   P>=0.5 [ F P>=0.9 [ X "rich" ] ]
holds at initial state: true
satisfying states (3): [2, 3, 4]
value at initial state: 0.49999999999999994
"#,
        stderr: "",
    },
    Case {
        args: &["query", "gambler.tml", r#"P=? [ F "rich" ]"#],
        code: 0,
        stdout: r#"query: P=? [ F "rich" ]
  state 0: 0
  state 1: 0.24999999999999997
  state 2: 0.49999999999999994
  state 3: 0.7499999999999999
  state 4: 1
value at initial state 2: 0.49999999999999994
"#,
        stderr: "",
    },
    Case {
        args: &["query", "gambler.tml", r#"R{"steps"}=? [ F ("rich" | "broke") ]"#],
        code: 0,
        stdout: r#"query: R{"steps"}=? [ F ("rich" | "broke") ]
  state 0: 0
  state 1: 3
  state 2: 4
  state 3: 2.9999999999999996
  state 4: 0
value at initial state 2: 4
"#,
        stderr: "",
    },
    Case {
        args: &["query", "gambler.tml", r#"R{"steps"}=? [ C<=3 ]"#],
        code: 0,
        stdout: r#"query: R{"steps"}=? [ C<=3 ]
  state 0: 0
  state 1: 2
  state 2: 2.5
  state 3: 2
  state 4: 0
value at initial state 2: 2.5
"#,
        stderr: "",
    },
    Case {
        args: &["query", "routes.tml", r#"Pmax=? [ F "goal" ]"#],
        code: 0,
        stdout: r#"query: Pmax=? [ F "goal" ]
  state 0: 1
  state 1: 1
  state 2: 1
  state 3: 0
value at initial state 0: 1
"#,
        stderr: "",
    },
    Case {
        args: &["query", "routes.tml", r#"Pmin=? [ F "goal" ]"#],
        code: 0,
        stdout: r#"query: Pmin=? [ F "goal" ]
  state 0: 0.6
  state 1: 1
  state 2: 1
  state 3: 0
value at initial state 0: 0.6
"#,
        stderr: "",
    },
    Case {
        args: &["check", "routes.tml", r#"P>=0.5 [ F<=2 "goal" ]"#],
        code: 0,
        stdout: r#"property:   P>=0.5 [ F<=2 "goal" ]
holds at initial state: true
satisfying states (3): [0, 1, 2]
value at initial state: 0.6
"#,
        stderr: "",
    },
    Case {
        args: &["check", "routes.tml", r#"P>=0.9 [ F "goal" ]"#],
        code: 1,
        stdout: r#"property:   P>=0.9 [ F "goal" ]
holds at initial state: false
satisfying states (2): [1, 2]
value at initial state: 0.6
"#,
        stderr: "",
    },
    Case {
        args: &["query", "routes.tml", r#"R{"cost"}min=? [ F "goal" ]"#],
        code: 0,
        stdout: r#"query: R{"cost"}min=? [ F "goal" ]
  state 0: 2
  state 1: 1
  state 2: 0
  state 3: inf
value at initial state 0: 2
"#,
        stderr: "",
    },
    Case {
        args: &["query", "routes.tml", r#"P=? [ F "goal" ]"#],
        code: 2,
        stdout: "",
        stderr: r#"error: MDP query "P=? [ F \"goal\" ]" needs an explicit min or max"#,
    },
    Case {
        args: &["check", "routes.tml", r#"Pmax>=0.9 [ F "goal" ]"#, "--robust"],
        code: 2,
        stdout: "",
        stderr: "error: --robust needs per-transition confidence intervals; point MDPs have none (write an interval mdp model with lo..hi probabilities instead)",
    },
    Case {
        args: &["check", "sensor.tml", r#"P>=0.45 [ F "delivered" ]"#],
        code: 0,
        stdout: r#"property:   P>=0.45 [ F "delivered" ]
robustly holds at initial state: true
robustly satisfying states (3)
value bracket at initial state: [0.49438202247035856, 0.7402597402568454]
"#,
        stderr: "",
    },
    Case {
        args: &["check", "sensor.tml", r#"P>=0.6 [ F "delivered" ]"#],
        code: 1,
        stdout: r#"property:   P>=0.6 [ F "delivered" ]
robustly holds at initial state: false
robustly satisfying states (2)
value bracket at initial state: [0.49438202247035856, 0.7402597402568454]
"#,
        stderr: "",
    },
    Case {
        args: &["check", "sensor.tml", r#"!"lost""#],
        code: 0,
        stdout: r#"property:   !("lost")
robustly holds at initial state: true
robustly satisfying states (3)
"#,
        stderr: "",
    },
    Case {
        args: &["check", "sensor.tml", r#"P>=0.5 [ F P>=0.9 [ X "delivered" ] ]"#],
        code: 2,
        stdout: "",
        stderr: "error: unsupported: robust checking supports P/R only at the top level with propositional operands",
    },
    Case {
        args: &["query", "sensor.tml", r#"P=? [ F "delivered" ]"#],
        code: 0,
        stdout: r#"query: P=? [ F "delivered" ]
  state 0: [0.49438202247035856, 0.7402597402568454]
  state 1: [0.8988764044915609, 0.9870129870091271]
  state 2: [1, 1]
  state 3: [0, 0]
bracket at initial state 0: [0.49438202247035856, 0.7402597402568454]
"#,
        stderr: "",
    },
    Case {
        args: &["query", "sensor.tml", r#"R{"steps"}=? [ F ("delivered" | "lost") ]"#],
        code: 2,
        stdout: "",
        stderr: r#"error: model error: unknown reward structure "steps""#,
    },
    Case {
        args: &["check", "channel.tml", r#"P>=0.9 [ F "ok" ]"#],
        code: 1,
        stdout: r#"property:   P>=0.9 [ F "ok" ]
holds at initial state: false
satisfying states (1): [1]
value at initial state: 0.8
"#,
        stderr: "",
    },
    Case {
        args: &["check", "channel.tml", r#"P>=0.7 [ F "ok" ]"#, "--robust"],
        code: 0,
        stdout: r#"robust: Wilson ball at 0.95 confidence, sample size 100
property:   P>=0.7 [ F "ok" ]
robustly holds at initial state: true
robustly satisfying states (2)
value bracket at initial state: [0.7111708343280291, 0.8666330667133142]
"#,
        stderr: "",
    },
    Case {
        args: &["query", "channel.tml", r#"P=? [ F "ok" ]"#],
        code: 0,
        stdout: r#"query: P=? [ F "ok" ]
  state 0: 0.8
  state 1: 1
  state 2: 0
value at initial state 0: 0.8
"#,
        stderr: "",
    },
    Case {
        args: &["query", "channel.tml", r#"P=? [ F "ok" ]"#, "--robust"],
        code: 0,
        stdout: r#"robust: Wilson ball at 0.95 confidence, sample size 100
query: P=? [ F "ok" ]
  state 0: [0.7111708343280291, 0.8666330667133142]
  state 1: [1, 1]
  state 2: [0, 0]
bracket at initial state 0: [0.7111708343280291, 0.8666330667133142]
"#,
        stderr: "",
    },
];

#[test]
fn check_and_query_print_the_pinned_text() {
    for case in CASES {
        let asset = format!("{}/../../assets/{}", env!("CARGO_MANIFEST_DIR"), case.args[1]);
        let mut args: Vec<&str> = case.args.to_vec();
        args[1] = &asset;
        let out = Command::new(TML).args(&args).output().expect("spawn tml");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("tml {}", case.args.join(" "));
        assert_eq!(out.status.code(), Some(case.code), "{what}: exit code\n{stderr}");
        assert_eq!(stdout, case.stdout, "{what}: stdout");
        if case.code == 2 {
            assert_eq!(stderr.lines().next().unwrap_or(""), case.stderr, "{what}: stderr");
        } else {
            assert_eq!(stderr, "", "{what}: stderr");
        }
    }
}
