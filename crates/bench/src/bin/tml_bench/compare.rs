//! `tml_bench compare`: the regression gate.
//!
//! Takes pairs of results files — `A1 B1 A2 B2 …`, A the baseline (the
//! parent commit) and B the change, ideally run alternately — and gives
//! every workload × end-to-end metric one verdict from the medians,
//! quartiles and bounds of `BENCHMARK.json`:
//!
//! * `unresolved` — either side's spread (quartile distance over median)
//!   is wider than the bound, unless every B run beats or loses to every
//!   A run;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — only with 10 or more pairs: B wins at least nine tenths of
//!   the pairs and the medians differ by more than A's quartile distance;
//! * `unchanged` — otherwise.

use std::collections::BTreeMap;

use tml_telemetry::json::{self, Value};

use crate::spec::Spec;
use crate::stats::{median, quartiles};

/// One results file: workload → metric → value.
pub type Results = BTreeMap<String, BTreeMap<String, f64>>;

/// Reads the `workload` records of a `tml-bench/v2` results file.
pub fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Results::new();
    for (n, line) in text.lines().enumerate() {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v.get("type").and_then(Value::as_str) != Some("workload") {
            continue;
        }
        let name = v.get("name").and_then(Value::as_str).ok_or(format!("{path}: unnamed"))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{path}: {name} has no metrics"))?
            .iter()
            .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
            .collect();
        out.insert(name.to_owned(), metrics);
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// How much worse B's median is than A's, as a share of A's median
    /// (negative when better).
    pub worse_by: f64,
    pub bound: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Pairs needed before a gain can be claimed, and the share of them the
/// change must win.
const MIN_PAIRS_FOR_GAIN: usize = 10;
const WIN_SHARE: f64 = 0.9;

/// Compares every workload × end-to-end metric of `spec` over `pairs`.
pub fn compare(spec: &Spec, pairs: &[(Results, Results)]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let side = |pick: fn(&(Results, Results)) -> &Results| -> Result<Vec<f64>, String> {
                pairs
                    .iter()
                    .map(|p| {
                        pick(p)
                            .get(workload)
                            .and_then(|r| r.get(&m.name))
                            .copied()
                            .ok_or(format!("a results file lacks {workload} {}", m.name))
                    })
                    .collect()
            };
            let a = side(|p| &p.0)?;
            let b = side(|p| &p.1)?;
            // Signed so that a positive number is always a worsening.
            let worse = |from: f64, to: f64| if m.higher_is_better { from - to } else { to - from };
            let (a_med, b_med) = (median(&a), median(&b));
            let (a_q1, a_q3) = quartiles(&a);
            let (b_q1, b_q3) = quartiles(&b);
            let bound = m.bound.unwrap_or(0.0);
            let worse_by = worse(a_med, b_med) / a_med.abs();
            let spread = ((a_q3 - a_q1) / a_med.abs()).max((b_q3 - b_q1) / b_med.abs());
            let separated =
                |sign: f64| b.iter().all(|&y| a.iter().all(|&x| sign * worse(x, y) > 0.0));
            let wins = a.iter().zip(&b).filter(|&(&x, &y)| worse(x, y) < 0.0).count();
            let verdict = if spread > bound && !separated(1.0) && !separated(-1.0) {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else if pairs.len() >= MIN_PAIRS_FOR_GAIN
                && wins as f64 >= WIN_SHARE * pairs.len() as f64
                && worse(a_med, b_med) < -(a_q3 - a_q1)
            {
                Verdict::Better
            } else {
                Verdict::Unchanged
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a: (a_med, a_q1, a_q3),
                b: (b_med, b_q1, b_q3),
                worse_by,
                bound,
                wins,
                pairs: pairs.len(),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Renders the verdict table.
pub fn render(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            let q = |(m, lo, hi): (f64, f64, f64)| format!("{m:.4} [{lo:.4}, {hi:.4}]");
            vec![
                r.workload.clone(),
                format!("{} ({})", r.metric, r.unit),
                q(r.a),
                q(r.b),
                format!("{:+.1}%", r.worse_by * 100.0),
                format!("{:.0}%", r.bound * 100.0),
                format!("{}/{}", r.wins, r.pairs),
                r.verdict.name().to_owned(),
            ]
        })
        .collect()
}

pub const HEADER: [&str; 8] = [
    "workload",
    "metric",
    "A median [q1, q3]",
    "B median [q1, q3]",
    "worse by",
    "bound",
    "B wins",
    "verdict",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs of every workload with a ±1% wobble, well inside every
    /// bound.
    fn baseline(spec: &Spec, run: usize) -> Results {
        let wobble = 1.0 + 0.01 * ((run * 7 % 5) as f64 - 2.0) / 2.0;
        spec.workloads
            .iter()
            .enumerate()
            .map(|(w, name)| {
                let metrics = spec
                    .end_to_end
                    .iter()
                    .map(|m| (m.name.clone(), (10.0 + w as f64) * wobble))
                    .collect();
                (name.clone(), metrics)
            })
            .collect()
    }

    fn pairs(spec: &Spec, change: impl Fn(&mut Results)) -> Vec<(Results, Results)> {
        (0..10)
            .map(|run| {
                let a = baseline(spec, run);
                let mut b = baseline(spec, (run + 3) % 10);
                change(&mut b);
                (a, b)
            })
            .collect()
    }

    #[test]
    fn identical_samples_are_all_unchanged() {
        let spec = Spec::builtin();
        let rows = compare(&spec, &pairs(&spec, |_| {})).unwrap();
        assert_eq!(rows.len(), spec.workloads.len() * spec.end_to_end.len());
        for r in &rows {
            assert_eq!(r.verdict, Verdict::Unchanged, "{r:?}");
        }
    }

    #[test]
    fn a_two_fold_slowdown_is_worse_on_exactly_that_workload() {
        let spec = Spec::builtin();
        let slow = spec.workloads[2].clone();
        let is_op_latency = |metric: &str| metric.starts_with("op_ref_ms_");
        let rows = compare(
            &spec,
            &pairs(&spec, |b| {
                for (name, v) in b.get_mut(&slow).unwrap().iter_mut() {
                    if is_op_latency(name) {
                        *v *= 2.0;
                    }
                }
            }),
        )
        .unwrap();
        assert!(rows.iter().any(|r| is_op_latency(&r.metric)));
        for r in &rows {
            let slowed = r.workload == slow && is_op_latency(&r.metric);
            let expected = if slowed { Verdict::Worse } else { Verdict::Unchanged };
            assert_eq!(r.verdict, expected, "{r:?}");
        }
    }

    #[test]
    fn wide_spread_is_unresolved_and_a_clear_gain_is_better() {
        let spec = Spec::builtin();
        let target = spec.workloads[0].clone();
        let noisy = pairs(&spec, |b| {
            let m = b.get_mut(&target).unwrap();
            let p50 = m.get_mut("op_ref_ms_p50").unwrap();
            *p50 *= if *p50 > 10.0 { 1.5 } else { 0.6 };
        });
        let rows = compare(&spec, &noisy).unwrap();
        let row =
            rows.iter().find(|r| r.workload == target && r.metric == "op_ref_ms_p50").unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved, "{row:?}");

        let faster =
            pairs(&spec, |b| *b.get_mut(&target).unwrap().get_mut("op_ref_ms_p50").unwrap() *= 0.5);
        let rows = compare(&spec, &faster).unwrap();
        let row =
            rows.iter().find(|r| r.workload == target && r.metric == "op_ref_ms_p50").unwrap();
        assert_eq!(row.verdict, Verdict::Better, "{row:?}");
    }
}
