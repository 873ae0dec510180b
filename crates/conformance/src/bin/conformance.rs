//! `conformance` — fan the differential oracle out over a seed range.
//!
//! ```text
//! conformance --seeds 0..64                       # full sweep, all pairs
//! conformance --seeds 9..10 --families layered    # reproduce one report line
//! conformance --seeds 0..64 --inject              # validate the harness itself
//! ```
//!
//! Exit codes: `0` all engines agree, `1` at least one disagreement,
//! `2` usage error.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use tml_conformance::gen::ModelFamily;
use tml_conformance::oracle::{Disagreement, Injection, Oracle, OracleOptions};
use tml_conformance::report;
use tml_telemetry::sink::JsonlSink;
use tml_telemetry::{summary, Subscriber};

const USAGE: &str = "usage: conformance [options]

differentially tests the trusted-ml engines over seeded random models:
dense vs Gauss-Seidel, SCC and interval solves, robust brackets vs the
nominal chain and sampled members, compiled tapes vs interpreted
rational functions vs instantiate-and-check, the compiled repair oracles
vs instantiate-and-check and relearn-and-check, checker values vs Monte
Carlo confidence intervals, and repaired models re-verified by
simulation.
Disagreeing models are shrunk to a minimal reproducer.

options:
  --seeds A..B        seed range to sweep, half-open (default 0..16)
  --families LIST     comma-separated model families (default: all of
                      layered,absorbing,grid,dense,near-singular)
  --trajectories N    Monte Carlo trajectories per simulation check
                      (default 20000)
  --out PATH          write the JSONL report (tml-conformance/v1) to PATH
                      instead of only printing the summary
  --no-shrink         report disagreements without shrinking
  --inject            deliberately bias one engine (debug): the sweep must
                      catch it and shrink it to a minimal failing model
  --trace-json PATH   stream a tml-trace/v1 telemetry trace to PATH
  --metrics           print a metrics summary table when the sweep finishes
  -h, --help          print this help and exit";

#[derive(Debug)]
struct UsageError(String);

struct Args {
    seeds: std::ops::Range<u64>,
    families: Vec<ModelFamily>,
    oracle: OracleOptions,
    out: Option<String>,
    trace_json: Option<String>,
    metrics: bool,
    help: bool,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(code) => ExitCode::from(code),
        Err(UsageError(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_args(raw: &[String]) -> Result<Args, UsageError> {
    let mut args = Args {
        seeds: 0..16,
        families: ModelFamily::all().to_vec(),
        oracle: OracleOptions::default(),
        out: None,
        trace_json: None,
        metrics: false,
        help: false,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => args.help = true,
            "--metrics" => args.metrics = true,
            "--no-shrink" => args.oracle.shrink = false,
            "--inject" => args.oracle.inject = Some(Injection::default()),
            "--seeds" => {
                let spec = it.next().ok_or_else(|| UsageError("--seeds needs A..B".into()))?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or_else(|| UsageError(format!("--seeds expects A..B, got {spec:?}")))?;
                let lo: u64 = a.parse().map_err(|_| UsageError(format!("bad seed start {a:?}")))?;
                let hi: u64 = b.parse().map_err(|_| UsageError(format!("bad seed end {b:?}")))?;
                if hi <= lo {
                    return Err(UsageError(format!("empty seed range {spec:?}")));
                }
                args.seeds = lo..hi;
            }
            "--families" => {
                let list = it.next().ok_or_else(|| UsageError("--families needs a list".into()))?;
                let mut families = Vec::new();
                for name in list.split(',') {
                    let f = ModelFamily::parse(name.trim())
                        .ok_or_else(|| UsageError(format!("unknown family {name:?}")))?;
                    families.push(f);
                }
                args.families = families;
            }
            "--trajectories" => {
                let n: u64 = it
                    .next()
                    .ok_or_else(|| UsageError("--trajectories needs a value".into()))?
                    .parse()
                    .map_err(|_| UsageError("--trajectories must be an integer".into()))?;
                if n == 0 {
                    return Err(UsageError("--trajectories must be positive".into()));
                }
                args.oracle.trajectories = n;
            }
            "--out" => {
                let path = it.next().ok_or_else(|| UsageError("--out needs a path".into()))?;
                args.out = Some(path.clone());
            }
            "--trace-json" => {
                let path =
                    it.next().ok_or_else(|| UsageError("--trace-json needs a path".into()))?;
                args.trace_json = Some(path.clone());
            }
            other => return Err(UsageError(format!("unknown argument {other:?}"))),
        }
    }
    Ok(args)
}

fn run(raw: &[String]) -> Result<u8, UsageError> {
    let args = parse_args(raw)?;
    if args.help {
        println!("{USAGE}");
        return Ok(0);
    }
    let subscriber = install_telemetry(&args)?;
    let result = sweep(&args);
    if let Some(sub) = subscriber {
        tml_telemetry::uninstall_global();
        if args.metrics {
            let table = summary::render_metrics(&sub.metrics_snapshot());
            if table.is_empty() {
                println!("no metrics recorded");
            } else {
                print!("{table}");
            }
        }
    }
    result
}

fn sweep(args: &Args) -> Result<u8, UsageError> {
    let start = Instant::now();
    let oracle = Oracle::new(args.oracle);
    let family_names: Vec<&str> = args.families.iter().map(|f| f.name()).collect();
    let seeds_label = format!("{}..{}", args.seeds.start, args.seeds.end);

    let mut report_out: Option<Box<dyn Write>> = match &args.out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| UsageError(format!("cannot create report file {path:?}: {e}")))?;
            Some(Box::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    if let Some(out) = report_out.as_mut() {
        report::write_meta(
            out,
            &seeds_label,
            &family_names,
            args.oracle.trajectories,
            args.oracle.inject.is_some(),
        )
        .map_err(|e| UsageError(format!("report write failed: {e}")))?;
    }

    let (mut checks, mut disagreements) = (0u64, 0u64);
    for seed in args.seeds.clone() {
        let outcome = oracle.run_seed(seed, &args.families);
        checks += outcome.checks.len() as u64;
        disagreements += outcome.disagreements.len() as u64;
        for d in &outcome.disagreements {
            let family = d.family.map(|f| f.name()).unwrap_or("parametric");
            eprintln!("DISAGREEMENT [{}] family={family} seed={}", d.pair.name(), d.seed);
            eprintln!("  {}", d.detail);
            let reproduce = reproduce_args(d).join(" ");
            match &d.shrunk {
                Some(s) => eprintln!(
                    "  shrunk to {} states / {} edges (delta {}); reproduce with {reproduce}",
                    s.num_states, s.num_edges, s.delta,
                ),
                None => eprintln!("  reproduce with {reproduce}"),
            }
        }
        if let Some(out) = report_out.as_mut() {
            report::write_seed(out, &outcome)
                .map_err(|e| UsageError(format!("report write failed: {e}")))?;
        }
    }

    let elapsed_ms = start.elapsed().as_millis() as u64;
    if let Some(out) = report_out.as_mut() {
        report::write_summary(out, checks, disagreements, elapsed_ms)
            .map_err(|e| UsageError(format!("report write failed: {e}")))?;
        out.flush().map_err(|e| UsageError(format!("report write failed: {e}")))?;
    }
    println!(
        "conformance: {} seeds x {} families, {checks} checks, {disagreements} disagreements \
         ({elapsed_ms} ms)",
        args.seeds.end - args.seeds.start,
        args.families.len(),
    );
    Ok(if disagreements == 0 { 0 } else { 1 })
}

/// The arguments that rerun exactly the seed of a disagreement. Parametric
/// pairs have no family and run on every seed whatever `--families` says,
/// so their line names the seed alone.
fn reproduce_args(d: &Disagreement) -> Vec<String> {
    let mut args = vec!["--seeds".to_owned(), format!("{}..{}", d.seed, d.seed + 1)];
    if let Some(family) = d.family {
        args.extend(["--families".to_owned(), family.name().to_owned()]);
    }
    args
}

fn install_telemetry(args: &Args) -> Result<Option<Arc<Subscriber>>, UsageError> {
    if args.trace_json.is_none() && !args.metrics {
        return Ok(None);
    }
    let mut builder = Subscriber::builder();
    if let Some(path) = &args.trace_json {
        let file = std::fs::File::create(path)
            .map_err(|e| UsageError(format!("cannot create trace file {path:?}: {e}")))?;
        let sink = JsonlSink::new(std::io::BufWriter::new(file), "tml")
            .map_err(|e| UsageError(format!("cannot write trace file {path:?}: {e}")))?;
        builder = builder.sink(Arc::new(sink));
    }
    let sub = Arc::new(builder.build());
    if !tml_telemetry::install_global(sub.clone()) {
        return Err(UsageError("a telemetry subscriber is already installed".into()));
    }
    Ok(Some(sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_conformance::oracle::EnginePair;

    fn disagreement(pair: EnginePair, family: Option<ModelFamily>, seed: u64) -> Disagreement {
        Disagreement {
            pair,
            family,
            seed,
            num_states: 7,
            lhs: 0.0,
            rhs: 1.0,
            delta: 1.0,
            detail: String::new(),
            shrunk: None,
        }
    }

    #[test]
    fn reproduce_lines_parse_back_to_the_disagreeing_seed() {
        for d in [
            disagreement(EnginePair::DenseVsGaussSeidel, Some(ModelFamily::NearSingular), 9),
            disagreement(EnginePair::CompiledVsInstantiate, None, 41),
        ] {
            let printed = reproduce_args(&d).join(" ");
            let raw: Vec<String> = printed.split_whitespace().map(str::to_owned).collect();
            let args = parse_args(&raw).unwrap_or_else(|e| panic!("{printed:?}: {e:?}"));
            assert_eq!(args.seeds, d.seed..d.seed + 1, "{printed}");
            match d.family {
                Some(family) => assert_eq!(args.families, vec![family], "{printed}"),
                None => assert!(!args.families.is_empty(), "{printed}"),
            }
        }
    }
}
