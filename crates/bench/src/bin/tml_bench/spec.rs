//! The benchmark definition, `BENCHMARK.json` at the repository root,
//! compiled into the binary so the metric names, units, directions and
//! regression bounds have one source.

use tml_telemetry::json::{self, Value};

/// `BENCHMARK.json`, as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better (`"better": "higher"`).
    pub higher_is_better: bool,
    /// The share of the baseline median by which the metric may worsen
    /// before a comparison calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The definition built into this binary.
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid")
    }

    /// Parses a benchmark definition.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let list = root.get(key).and_then(Value::as_array).ok_or(format!("missing {key}"))?;
            list.iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k).and_then(Value::as_str).ok_or(format!("{key}: missing {k}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_owned(),
                        unit: field("unit")?.to_owned(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or("workload without a name")?;
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("missing run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
