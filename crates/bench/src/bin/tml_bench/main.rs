//! `tml_bench`: the end-to-end benchmark of the trusted-ml program, with a
//! per-layer self-time table and a regression gate. See README.md.
//!
//! ```text
//! tml_bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! tml_bench run --seed N [--seconds S] [--out DIR]
//! tml_bench compare A.jsonl B.jsonl [A2.jsonl B2.jsonl ...]
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as its last line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. `run` measures every workload,
//! each in a child process of its own, and writes a results file that
//! `compare` reads.

mod compare;
mod measure;
mod spec;
mod stats;
mod workloads;
mod yardstick;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use tml_telemetry::json::{self, Value};
use tml_telemetry::jsonl::LineBuilder;

use measure::{drive, RunOutcome, LAYERS};
use spec::{MetricSpec, Spec};
use workloads::{BatchCorpus, CheckDtmc, RobustCheck, WsnRepair};

/// Schema of the results files `run` writes and `compare` reads.
const RESULTS_SCHEMA: &str = "tml-bench/v2";
const DEFAULT_OUT: &str = ".tml_bench";

fn main() -> ExitCode {
    // One thread per parallel stage unless the caller asks for more. On a
    // small virtual machine each CPU slows down on its own for seconds at a
    // time, and an operation split over two of them waits for the slower:
    // wsn-repair's run-to-run spread is 19–41% with two threads and 5–13%
    // with one. Set RAYON_NUM_THREADS to measure the parallel paths.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => run_one(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tml_bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").filter(|k| allowed.contains(k));
        let key = key.ok_or(format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|_| format!("--{key} {v:?} is not a valid number")))
        .transpose()
}

/// The `tml` binary, built next to this one into the same target
/// directory.
fn tml_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let tml = exe.with_file_name("tml");
    if !tml.is_file() {
        return Err(format!(
            "{} is missing; build it first with `cargo build --release -p tml-cli` \
             into the same target directory (bench.sh builds both)",
            tml.display()
        ));
    }
    Ok(tml)
}

// ------------------------------------------------------------ one workload

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let usage =
        "usage: tml_bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n       \
                 tml_bench run --seed N [--seconds S] [--out DIR]\n       \
                 tml_bench compare A.jsonl B.jsonl [A2.jsonl B2.jsonl ...]";
    let f = flags(args, &["workload", "seed", "seconds", "trace", "out"])
        .map_err(|e| format!("{e}\n{usage}"))?;
    let spec = Spec::builtin();
    let name = f.get("workload").ok_or(format!("missing --workload\n{usage}"))?;
    if !spec.workloads.contains(name) {
        return Err(format!("unknown workload {name:?}; one of {}", spec.workloads.join(", ")));
    }
    let seed: u64 = num(&f, "seed")?.ok_or("missing --seed")?;
    let seconds: f64 = num(&f, "seconds")?.unwrap_or(spec.run_seconds as f64);
    let trace = match f.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let out = PathBuf::from(f.get("out").map(String::as_str).unwrap_or(DEFAULT_OUT));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let tml = tml_binary()?;
    let work = out.join(format!("{name}-work"));

    let run = match name.as_str() {
        "wsn-repair" => drive(seed, seconds, trace, || WsnRepair::new(seed)),
        "scc-check" => drive(seed, seconds, trace, || CheckDtmc::layered_scc(seed)),
        "grid-check" => drive(seed, seconds, trace, || CheckDtmc::grid(seed)),
        "robust-check" => drive(seed, seconds, trace, || RobustCheck::new(seed)),
        "batch-corpus" => drive(seed, seconds, trace, || BatchCorpus::new(seed, &tml, &work)),
        other => unreachable!("{other} is listed in BENCHMARK.json but has no implementation"),
    }
    .map_err(|e| format!("{name}: set-up failed: {e}"))?;

    for failure in &run.failures {
        eprintln!("tml_bench: workload {name} {failure}");
    }
    write_file(&out.join(format!("{name}.json")), workload_record(name, seed, seconds, &run))?;
    for (file, bytes) in &run.first_trace {
        write_file(&out.join(format!("{name}.{file}.trace.jsonl")), bytes)?;
    }
    let metrics = if trace { &spec.per_layer } else { &spec.end_to_end };
    println!("{}", result_line(&run, metrics)?);
    Ok(if run.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn write_file(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn json_string(s: &str) -> String {
    let mut out = String::new();
    json::write_string(&mut out, s);
    out
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(run: &RunOutcome, metrics: &[MetricSpec]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        let value =
            run.metrics.get(&m.name).ok_or(format!("metric {} was not measured", m.name))?;
        let mut v = String::new();
        json::write_f64(&mut v, *value);
        body.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_string(&m.name),
            json_string(&m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(",")
    ))
}

/// One `workload` record of a results file: every metric, with the run's
/// sample counts and failures.
fn workload_record(name: &str, seed: u64, seconds: f64, run: &RunOutcome) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(k, v)| {
            let mut s = json_string(k);
            s.push(':');
            json::write_f64(&mut s, *v);
            s
        })
        .collect();
    let failures: Vec<String> = run.failures.iter().map(|f| json_string(f)).collect();
    let samples = |v: &[f64]| {
        let mut out = String::from("[");
        for (k, x) in v.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, *x);
        }
        out.push(']');
        out
    };
    LineBuilder::record("workload")
        .str("name", name)
        .u64("seed", seed)
        .f64("seconds", seconds)
        .u64("attempted", run.attempted as u64)
        .u64("failed", run.failed as u64)
        .u64("timed_ops", run.samples_ms.len() as u64)
        .u64("traced_ops", run.traced_samples_ms.len() as u64)
        .u64("cycle", run.cycle as u64)
        .u64("setups", run.setups as u64)
        .raw("samples_ms", &samples(&run.samples_ms))
        .raw("ref_samples_ms", &samples(&run.ref_samples_ms))
        .raw("traced_samples_ms", &samples(&run.traced_samples_ms))
        .raw("failures", &format!("[{}]", failures.join(",")))
        .raw("metrics", &format!("{{{}}}", metrics.join(",")))
        .finish()
}

// ------------------------------------------------------------ all workloads

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "seconds", "out"])?;
    let spec = Spec::builtin();
    let seed: u64 = num(&f, "seed")?.ok_or("run needs --seed")?;
    let seconds: f64 = num(&f, "seconds")?.unwrap_or(spec.run_seconds as f64);
    let out = PathBuf::from(f.get("out").map(String::as_str).unwrap_or(DEFAULT_OUT));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let tml = tml_binary()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;

    let mut records = vec![env_record(seed, seconds, &tml)];
    let mut results: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut ok = true;
    for name in &spec.workloads {
        eprintln!("tml_bench: {name} (seed {seed}, {seconds} s)");
        // One process per workload keeps peak memory and crashes apart.
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "1", "--out"])
            .arg(&out);
        let path = out.join(format!("{name}.json"));
        let line = match child_record(child, &path) {
            Ok(line) => line,
            Err(e) => {
                eprintln!("tml_bench: workload {name} {e}");
                ok = false;
                continue;
            }
        };
        let record = json::parse(&line).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .map(|m| m.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
            .unwrap_or_default();
        results.insert(name.clone(), metrics);
        records.push(line);
    }
    let results_path = out.join("results.jsonl");
    write_file(&results_path, records.join("\n") + "\n")?;

    print_end_to_end(&spec, &results);
    println!();
    print_layers(&results);
    println!("\nwrote {}", results_path.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs one workload's child process and returns the record it wrote to
/// `record`. The previous run's record is removed first, so a child that
/// fails, or dies before writing, yields an error and never a stale record.
fn child_record(mut child: Command, record: &Path) -> Result<String, String> {
    if let Err(e) = std::fs::remove_file(record) {
        if e.kind() != std::io::ErrorKind::NotFound {
            return Err(format!("cannot remove the previous {}: {e}", record.display()));
        }
    }
    let status =
        child.stdout(Stdio::null()).status().map_err(|e| format!("cannot be started: {e}"))?;
    if !status.success() {
        return Err(format!("failed ({status})"));
    }
    std::fs::read_to_string(record)
        .map(|line| line.trim().to_owned())
        .map_err(|e| format!("wrote no record to {}: {e}", record.display()))
}

/// The environment a results file was measured in.
fn env_record(seed: u64, seconds: f64, tml: &Path) -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rayon = std::env::var("RAYON_NUM_THREADS").ok();
    let mtime = std::fs::metadata(tml)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs());
    LineBuilder::meta(RESULTS_SCHEMA)
        .str("commit", &commit)
        .u64("nproc", nproc as u64)
        .opt_str("rayon_num_threads", rayon.as_deref())
        .u64("seed", seed)
        .f64("seconds", seconds)
        .str("tml", &tml.display().to_string())
        .u64("tml_mtime", mtime)
        .finish()
}

fn print_table(header: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        println!("| {} |", padded.join(" | "));
    };
    line(header);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Four decimals, or four significant digits for values below 0.01 (the
/// microsecond set-ups, in seconds).
fn cell(results: &BTreeMap<String, f64>, key: &str) -> String {
    results.get(key).map_or("-".to_owned(), |&v| {
        if v != 0.0 && v.abs() < 0.01 {
            format!("{v:.3e}")
        } else {
            format!("{v:.4}")
        }
    })
}

/// Measured in every run but not gated (see README.md): the wall-time
/// median and the yardstick follow the host's speed, and `fail_frac` is
/// carried by the `correct` and `failed` fields.
const REPORTED: [(&str, &str); 5] = [
    ("op_ref_ms_p75", "ms"),
    ("ref_ops_per_s", "1/s"),
    ("host.op_wall_ms_p50", "ms"),
    ("host.yardstick_ms", "ms"),
    ("fail_frac", ""),
];

fn print_end_to_end(spec: &Spec, results: &BTreeMap<String, BTreeMap<String, f64>>) {
    let mut header = vec!["workload".to_owned()];
    header.extend(spec.end_to_end.iter().map(|m| format!("{} ({})", m.name, m.unit)));
    header.extend(REPORTED.iter().map(|(name, unit)| {
        if unit.is_empty() {
            (*name).to_owned()
        } else {
            format!("{name} ({unit})")
        }
    }));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, r)| {
            let mut row = vec![name.clone()];
            row.extend(spec.end_to_end.iter().map(|m| cell(r, &m.name)));
            row.extend(REPORTED.iter().map(|(m, _)| cell(r, m)));
            row
        })
        .collect();
    print_table(&header, &rows);
}

/// Self time per layer and operation (medians over the traced
/// operations), next to the traced operation's wall time. Where the layer
/// sum exceeds the wall time, layers ran in parallel.
fn print_layers(results: &BTreeMap<String, BTreeMap<String, f64>>) {
    let mut header = vec!["self ms per op".to_owned()];
    header.extend(results.keys().cloned());
    let mut rows: Vec<Vec<String>> = LAYERS
        .iter()
        .map(|layer| {
            let mut row = vec![(*layer).to_owned()];
            row.extend(results.values().map(|r| cell(r, &format!("layers.{layer}.self_ms"))));
            row
        })
        .collect();
    let mut sum = vec!["sum of layers".to_owned()];
    sum.extend(results.values().map(|r| {
        let total: f64 = LAYERS.iter().filter_map(|l| r.get(&format!("layers.{l}.self_ms"))).sum();
        format!("{total:.4}")
    }));
    rows.push(sum);
    let mut wall = vec!["traced op wall".to_owned()];
    wall.extend(results.values().map(|r| cell(r, "telemetry.traced_op_ms_p50")));
    rows.push(wall);
    print_table(&header, &rows);
}

// ------------------------------------------------------------------ compare

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err("usage: tml_bench compare A.jsonl B.jsonl [A2.jsonl B2.jsonl ...]".into());
    }
    let spec = Spec::builtin();
    let mut pairs = Vec::new();
    for pair in args.chunks(2) {
        pairs.push((compare::read_results(&pair[0])?, compare::read_results(&pair[1])?));
    }
    let rows = compare::compare(&spec, &pairs)?;
    let header: Vec<String> = compare::HEADER.iter().map(|s| (*s).to_owned()).collect();
    print_table(&header, &compare::render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == compare::Verdict::Worse).count();
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benchmark_definition_names_every_workload_and_metric_once() {
        let spec = Spec::builtin();
        assert_eq!(
            spec.workloads,
            ["wsn-repair", "scc-check", "grid-check", "robust-check", "batch-corpus"]
        );
        let mut names: Vec<&str> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names repeat");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let spec = Spec::builtin();
        let mut run = RunOutcome { attempted: 3, ..RunOutcome::default() };
        for m in &spec.end_to_end {
            run.metrics.insert(m.name.clone(), 1.5);
        }
        let line = result_line(&run, &spec.end_to_end).unwrap();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metric = v.get("metrics").unwrap().get("op_ref_ms_p50").unwrap();
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(result_line(&RunOutcome::default(), &spec.per_layer).is_err());
    }

    #[test]
    fn a_failed_or_silent_child_leaves_no_record() {
        let dir = std::env::temp_dir().join(format!("tml-bench-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = dir.join("w.json");
        let shell = |script: &str| {
            let mut c = Command::new("sh");
            c.arg("-c").arg(script).arg("sh").arg(&record);
            c
        };

        std::fs::write(&record, "{\"stale\":true}\n").unwrap();
        assert!(child_record(shell("true"), &record).is_err(), "a stale record was read");
        assert!(!record.exists());

        assert!(child_record(shell("echo '{}' > \"$1\"; exit 1"), &record).is_err());

        let line = child_record(shell("echo '{\"fresh\":true}' > \"$1\""), &record).unwrap();
        assert_eq!(line, "{\"fresh\":true}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
