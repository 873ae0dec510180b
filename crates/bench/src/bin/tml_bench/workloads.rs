//! The five workloads. Each one builds its inputs from the seed at set-up,
//! runs one operation through the program's public functions (or the `tml`
//! binary, for batch), and checks every operation's output against a
//! reference, so a wrong answer counts as a failed operation.
//!
//! scc-check and grid-check generate their model from the seed. wsn-repair,
//! robust-check and batch-corpus use a fixed pool of inputs, and the seed
//! only picks where the rotation through it starts: their inputs differ in
//! cost by up to 1.6×, so a pool drawn from the seed would make runs with
//! different seeds time different work.
//!
//! The `bench.<layer>.<call>` spans opened here wrap the public calls that
//! have no span of their own inside the program (the DSL and PCTL parsers)
//! and the calls whose wall time a layer metric reports.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tml_checker::dtmc::until_probabilities_bounds;
use tml_checker::{Budget, CheckOptions, Checker};
use tml_conformance::gen::{self, GOAL_LABEL};
use tml_core::{ModelRepair, PerturbationTemplate, RepairOptions, RepairStatus, RepairStrategy};
use tml_logic::{parse_formula, parse_query, StateFormula};
use tml_models::dsl::{dtmc_to_dsl, interval_dtmc_to_dsl, parse_model, ModelFile};
use tml_models::{Dtmc, IntervalDtmc};
use tml_telemetry::json;
use tml_telemetry::span;
use tml_wsn::{attempts_property, build_dtmc, repair_template, WsnConfig};

/// Per-operation results that feed the per-layer metrics.
#[derive(Debug, Default)]
pub struct OpFacts {
    /// Named per-operation values (evaluation counts, job outcomes, …).
    pub values: Vec<(&'static str, f64)>,
    /// The `tml-trace/v1` file a spawned program wrote, for traced ops.
    pub child_trace: Option<Vec<u8>>,
    /// Peak resident set of a spawned program, in kB.
    pub child_peak_rss_kb: Option<u64>,
}

/// One workload: one timed operation and its correctness check. Each
/// workload's constructor is its set-up: it builds the inputs from the
/// seed and any reference computed by other means than the operation.
pub trait Workload {
    /// The raw output of one operation, checked outside the timed region
    /// (and dropped there too).
    type Out;

    /// Inputs per cycle; consecutive operations use consecutive inputs.
    fn cycle(&self) -> usize {
        1
    }

    /// Runs operation `i`. `traced` asks a spawned program for its trace.
    fn op(&mut self, i: usize, traced: bool) -> Result<Self::Out, String>;

    /// Checks operation `i`'s output. Where the output must repeat, the
    /// first one seen for an input, in warm-up, is the reference.
    fn check(&mut self, i: usize, out: Self::Out) -> Result<OpFacts, String>;
}

/// The blocked states of the check workloads: every 97th state, offset so
/// the initial state 0 stays free, and never the goal (the last state).
fn blocked(s: usize, n: usize) -> bool {
    s + 1 < n && s % 97 == 13
}

fn blocked_label_line(n: usize) -> String {
    let states: Vec<String> = (0..n).filter(|&s| blocked(s, n)).map(|s| s.to_string()).collect();
    format!("label \"blocked\" = {}\n", states.join(", "))
}

const UNTIL_QUERY: &str = "P=? [ !\"blocked\" U \"goal\" ]";
const UNTIL_PROPERTY: &str = "P>=0.5 [ !\"blocked\" U \"goal\" ]";
const THRESHOLD: f64 = 0.5;
/// Slack for a point value against a sound bracket: the iterative solvers
/// stop at a residual, not at the exact fixed point.
const VALUE_TOL: f64 = 1e-7;

/// The input operation `i` uses from a pool of `len`: the seed picks where
/// the rotation starts.
fn rotation(seed: u64, i: usize, len: usize) -> usize {
    (seed.wrapping_sub(1).wrapping_add(i as u64) % len as u64) as usize
}

// ---------------------------------------------------------------- wsn-repair

/// Inputs per wsn-repair cycle: the bounds X = 34 … 40.
const WSN_BOUNDS: usize = 7;

struct WsnInput {
    chain: Dtmc,
    template: PerturbationTemplate,
    phi: StateFormula,
}

/// Evaluations and cost bits of both strategies on one input.
type RepairFingerprint = (usize, u64, usize, u64);

/// E2 of the paper: repair the WSN 3×3 chain so that the expected number
/// of attempts to deliver stays below X, by penalty search and then by
/// parameter lifting. Operation `i` uses X = 40 − ((seed − 1 + i) mod 7).
pub struct WsnRepair {
    inputs: Vec<WsnInput>,
    reference: Vec<Option<RepairFingerprint>>,
}

pub struct WsnOut {
    penalty: tml_core::ModelRepairOutcome,
    lifting: tml_core::ModelRepairOutcome,
}

impl WsnRepair {
    pub fn new(seed: u64) -> Result<Self, String> {
        let config = WsnConfig::default();
        let inputs = (0..WSN_BOUNDS)
            .map(|j| {
                let x = 40.0 - rotation(seed, j, WSN_BOUNDS) as f64;
                Ok(WsnInput {
                    chain: build_dtmc(&config).map_err(|e| e.to_string())?,
                    template: repair_template(&config).map_err(|e| e.to_string())?,
                    phi: attempts_property(x),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WsnRepair { reference: vec![None; inputs.len()], inputs })
    }
}

impl Workload for WsnRepair {
    type Out = WsnOut;

    fn cycle(&self) -> usize {
        self.inputs.len()
    }

    fn op(&mut self, i: usize, _traced: bool) -> Result<WsnOut, String> {
        let input = &self.inputs[i % self.inputs.len()];
        let repair = |strategy| {
            ModelRepair::with_options(RepairOptions { strategy, ..RepairOptions::default() })
                .repair_dtmc(&input.chain, &input.phi, &input.template)
                .map_err(|e| format!("{strategy:?} repair: {e}"))
        };
        let penalty = {
            let _s = span!("bench.core.repair_penalty");
            repair(RepairStrategy::Penalty)?
        };
        let lifting = {
            let _s = span!("bench.core.repair_lifting");
            repair(RepairStrategy::Lifting)?
        };
        Ok(WsnOut { penalty, lifting })
    }

    fn check(&mut self, i: usize, out: WsnOut) -> Result<OpFacts, String> {
        let j = i % self.inputs.len();
        let phi = &self.inputs[j].phi;
        for (name, o) in [("penalty", &out.penalty), ("lifting", &out.lifting)] {
            if o.status != RepairStatus::Repaired || !o.verified {
                return Err(format!(
                    "{name}: status {:?}, verified {} on {phi}",
                    o.status, o.verified
                ));
            }
            let model = o.model.as_ref().ok_or(format!("{name}: no repaired model"))?;
            let recheck = Checker::new().check_dtmc(model, phi).map_err(|e| e.to_string())?;
            if !recheck.holds() {
                return Err(format!("{name}: the repaired chain violates {phi}"));
            }
        }
        let (p, l) = (&out.penalty, &out.lifting);
        // The penalty repair is a verified feasible point, so lifting's
        // sound lower bound may not exceed its cost, and a certified
        // lifting repair is within epsilon of it. (Uncertified lifting
        // repairs can cost more than penalty ones: at X = 35 … 39 they do.)
        if let Some(cert) = &l.certificate {
            if cert.lower_bound > p.cost + 1e-9 {
                return Err(format!(
                    "lifting lower bound {} exceeds the penalty repair's cost {} on {phi}",
                    cert.lower_bound, p.cost
                ));
            }
            if cert.certified && l.cost > p.cost + cert.epsilon + 1e-9 {
                return Err(format!(
                    "certified lifting cost {} exceeds penalty cost {} + {} on {phi}",
                    l.cost, p.cost, cert.epsilon
                ));
            }
        }
        let seen = (p.evaluations, p.cost.to_bits(), l.evaluations, l.cost.to_bits());
        match self.reference[j] {
            None => self.reference[j] = Some(seen),
            Some(r) if r == seen => {}
            Some(r) => {
                return Err(format!(
                    "not repeatable on {phi}: (evals, cost bits) penalty {:?} lifting {:?}, \
                     the first repair gave {:?} {:?}",
                    (seen.0, seen.1),
                    (seen.2, seen.3),
                    (r.0, r.1),
                    (r.2, r.3)
                ))
            }
        }
        Ok(OpFacts {
            values: vec![
                ("penalty_evals", p.evaluations as f64),
                ("lifting_evals", l.evaluations as f64),
            ],
            ..OpFacts::default()
        })
    }
}

// ------------------------------------------------- scc-check and grid-check

/// The `tml check` path on a large DTMC: parse the model text, parse the
/// property, check it. Checked against a sound interval-iteration bracket
/// computed at set-up.
pub struct CheckDtmc {
    text: String,
    /// Sound `[lo, hi]` bracket of the until probability at the initial
    /// state.
    bracket: (f64, f64),
}

pub struct CheckOut {
    holds: bool,
    value: Option<f64>,
    _model: Dtmc,
}

impl CheckDtmc {
    /// scc-check: `layered_scc_dtmc(seed, 64, 390, 4)`, 99,841 states in
    /// 24,960 ring components.
    pub fn layered_scc(seed: u64) -> Result<Self, String> {
        CheckDtmc::from_model(gen::layered_scc_dtmc(seed, 64, 390, 4))
    }

    /// grid-check: `grid_dtmc(seed, 100)`, 10,000 states in one giant
    /// component.
    pub fn grid(seed: u64) -> Result<Self, String> {
        CheckDtmc::from_model(gen::grid_dtmc(seed, 100))
    }

    fn from_model(model: Dtmc) -> Result<Self, String> {
        let n = model.num_states();
        let mut text = dtmc_to_dsl(&model);
        text.push_str(&blocked_label_line(n));
        let phi: Vec<bool> = (0..n).map(|s| !blocked(s, n)).collect();
        let goal = model.labeling().mask(GOAL_LABEL);
        let opts = CheckOptions { tolerance: 1e-8, ..CheckOptions::default() };
        let (lo, hi, _) =
            until_probabilities_bounds(&model, &phi, &goal, &opts, &Budget::unlimited())
                .map_err(|e| e.to_string())?;
        let init = model.initial_state();
        Ok(CheckDtmc { text, bracket: (lo[init], hi[init]) })
    }
}

impl Workload for CheckDtmc {
    type Out = CheckOut;

    fn op(&mut self, _i: usize, _traced: bool) -> Result<CheckOut, String> {
        let model = {
            let _s = span!("bench.models.parse_model");
            parse_model(&self.text).map_err(|e| e.to_string())?
        };
        let ModelFile::Dtmc(model) = model else { return Err("expected a dtmc".into()) };
        let phi = {
            let _s = span!("bench.logic.parse_formula");
            parse_formula(UNTIL_PROPERTY).map_err(|e| e.to_string())?
        };
        let result = {
            let _s = span!("bench.checker.check_dtmc");
            Checker::new().check_dtmc(&model, &phi).map_err(|e| e.to_string())?
        };
        Ok(CheckOut { holds: result.holds(), value: result.value_at_initial(), _model: model })
    }

    fn check(&mut self, _i: usize, out: CheckOut) -> Result<OpFacts, String> {
        let (lo, hi) = self.bracket;
        let value = out.value.ok_or("no value at the initial state")?;
        if !(lo - VALUE_TOL..=hi + VALUE_TOL).contains(&value) {
            return Err(format!("value {value} outside the sound bracket [{lo}, {hi}]"));
        }
        let decided = (lo >= THRESHOLD).then_some(true).or((hi < THRESHOLD).then_some(false));
        if decided.is_some_and(|d| d != out.holds) || out.holds != (value >= THRESHOLD) {
            return Err(format!(
                "verdict {} disagrees with value {value} / [{lo}, {hi}]",
                out.holds
            ));
        }
        Ok(OpFacts { values: vec![("text_bytes", self.text.len() as f64)], ..OpFacts::default() })
    }
}

// -------------------------------------------------------------- robust-check

/// Models per robust-check cycle.
const ROBUST_MODELS: usize = 4;

/// Robust reachability on an interval model: parse the 95% Wilson ball
/// (500 samples) of a 2,401-state `layered_scc_dtmc(m, 16, 50, 3)` as
/// `idtmc` text and bracket the blocked-until probability over every
/// member. Robust value iteration costs up to 1.3× more on one generator
/// seed than on another, so the models are `m = 1 … 4` for every seed and
/// operation `i` uses `m = (seed − 1 + i) mod 4 + 1`. The nominal chain's
/// value must lie in the bracket, and the bracket must repeat bitwise.
pub struct RobustCheck {
    inputs: Vec<RobustInput>,
    seed: u64,
}

struct RobustInput {
    text: String,
    nominal: f64,
    reference: Option<(u64, u64)>,
}

pub struct RobustOut {
    bracket: (f64, f64),
    _model: IntervalDtmc,
}

impl RobustCheck {
    pub fn new(seed: u64) -> Result<Self, String> {
        let query = parse_query(UNTIL_QUERY).map_err(|e| e.to_string())?;
        let inputs = (1..=ROBUST_MODELS as u64)
            .map(|m| {
                let model = gen::layered_scc_dtmc(m, 16, 50, 3);
                let n = model.num_states();
                let ball =
                    IntervalDtmc::wilson_around(&model, 0.95, 500.0).map_err(|e| e.to_string())?;
                let mut text = interval_dtmc_to_dsl(&ball);
                text.push_str(&blocked_label_line(n));
                // The nominal chain with the same blocked label, solved
                // exactly.
                let mut point = dtmc_to_dsl(&model);
                point.push_str(&blocked_label_line(n));
                let ModelFile::Dtmc(point) = parse_model(&point).map_err(|e| e.to_string())? else {
                    return Err("expected a dtmc".to_owned());
                };
                let nominal =
                    Checker::new().value_dtmc(&point, &query).map_err(|e| e.to_string())?;
                Ok(RobustInput { text, nominal, reference: None })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RobustCheck { inputs, seed })
    }

    fn input(&self, i: usize) -> usize {
        rotation(self.seed, i, ROBUST_MODELS)
    }
}

impl Workload for RobustCheck {
    type Out = RobustOut;

    fn cycle(&self) -> usize {
        ROBUST_MODELS
    }

    fn op(&mut self, i: usize, _traced: bool) -> Result<RobustOut, String> {
        let text = &self.inputs[self.input(i)].text;
        let model = {
            let _s = span!("bench.models.parse_model");
            parse_model(text).map_err(|e| e.to_string())?
        };
        let ModelFile::IntervalDtmc(model) = model else {
            return Err("expected an idtmc".into());
        };
        let query = {
            let _s = span!("bench.logic.parse_query");
            parse_query(UNTIL_QUERY).map_err(|e| e.to_string())?
        };
        let bracket = {
            let _s = span!("bench.checker.query_interval_dtmc");
            Checker::new().query_interval_dtmc(&model, &query).map_err(|e| e.to_string())?
        };
        Ok(RobustOut { bracket: bracket.at(model.initial_state()), _model: model })
    }

    fn check(&mut self, i: usize, out: RobustOut) -> Result<OpFacts, String> {
        let input = self.input(i);
        let input = &mut self.inputs[input];
        let (lo, hi) = out.bracket;
        if !(lo - VALUE_TOL..=hi + VALUE_TOL).contains(&input.nominal) {
            return Err(format!(
                "nominal value {} outside the bracket [{lo}, {hi}]",
                input.nominal
            ));
        }
        let bits = (lo.to_bits(), hi.to_bits());
        match input.reference {
            None => input.reference = Some(bits),
            Some(r) if r == bits => {}
            Some(r) => {
                return Err(format!(
                    "bracket [{lo}, {hi}] differs from the first one, [{}, {}]",
                    f64::from_bits(r.0),
                    f64::from_bits(r.1)
                ))
            }
        }
        Ok(OpFacts { values: vec![("text_bytes", input.text.len() as f64)], ..OpFacts::default() })
    }
}

// -------------------------------------------------------------- batch-corpus

/// Jobs per batch operation.
const BATCH_JOBS: usize = 16;
/// Corpora per batch cycle.
const BATCH_CORPORA: usize = 4;

/// `tml batch 16 --workers 1` with a journal, a report and (when traced) a
/// trace file in the work directory. Operation `i` runs corpus seed
/// `(seed − 1 + i) mod 4`: one 16-job corpus costs between 0.5× and 1.6×
/// another, so every seed runs the same four corpora, in its own order,
/// and runs are compared over whole cycles. Every job must conclude, none
/// may fail, every trusted outcome must carry its model fingerprint, and
/// the report must repeat byte for byte.
pub struct BatchCorpus {
    tml: PathBuf,
    work: PathBuf,
    seed: u64,
    reports: Vec<Option<String>>,
}

pub struct BatchOut {
    corpus_seed: u64,
    status: std::process::ExitStatus,
    stderr: Vec<u8>,
    peak_rss_kb: u64,
    traced: bool,
}

impl BatchCorpus {
    /// `tml` is the binary to run, `work` a directory of this run's own for
    /// the per-operation files.
    pub fn new(seed: u64, tml: &Path, work: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(BatchCorpus {
            tml: tml.to_owned(),
            work: work.to_owned(),
            seed,
            reports: vec![None; BATCH_CORPORA],
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    fn corpus_seed(&self, i: usize) -> u64 {
        rotation(self.seed, i, BATCH_CORPORA) as u64
    }
}

impl Workload for BatchCorpus {
    type Out = BatchOut;

    fn cycle(&self) -> usize {
        BATCH_CORPORA
    }

    fn op(&mut self, i: usize, traced: bool) -> Result<BatchOut, String> {
        let corpus_seed = self.corpus_seed(i);
        let mut cmd = Command::new(&self.tml);
        cmd.arg("batch")
            .arg(BATCH_JOBS.to_string())
            .args(["--workers", "1", "--corpus-seed", &corpus_seed.to_string()])
            .arg("--journal")
            .arg(self.path("journal.jsonl"))
            .arg("--report")
            .arg(self.path("report.jsonl"));
        if traced {
            cmd.arg("--trace-json").arg(self.path("trace.jsonl"));
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.tml.display()))?;
        let (output, peak_rss_kb) = wait_with_peak_rss(child);
        let output = output.map_err(|e| format!("waiting for tml: {e}"))?;
        Ok(BatchOut {
            corpus_seed,
            status: output.status,
            stderr: output.stderr,
            peak_rss_kb,
            traced,
        })
    }

    fn check(&mut self, _i: usize, out: BatchOut) -> Result<OpFacts, String> {
        let cs = out.corpus_seed;
        if !out.status.success() {
            return Err(format!(
                "corpus {cs}: tml batch exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let report = std::fs::read_to_string(self.path("report.jsonl"))
            .map_err(|e| format!("corpus {cs}: cannot read the report: {e}"))?;
        let mut counts = [0usize; 6];
        const STATUSES: [&str; 6] =
            ["satisfied", "model_repaired", "data_repaired", "unrepairable", "violated", "failed"];
        let mut outcomes = 0;
        for line in report.lines() {
            let v = json::parse(line).map_err(|e| format!("corpus {cs}: report: {e}"))?;
            if v.get("type").and_then(|t| t.as_str()) != Some("outcome") {
                continue;
            }
            outcomes += 1;
            let status = v.get("status").and_then(|s| s.as_str()).unwrap_or("");
            let k = STATUSES
                .iter()
                .position(|&s| s == status)
                .ok_or(format!("corpus {cs}: unknown status {status:?}"))?;
            counts[k] += 1;
            let trusted = k < 3;
            if trusted && v.get("fingerprint").and_then(|f| f.as_str()).is_none() {
                return Err(format!("corpus {cs}: trusted outcome without a fingerprint: {line}"));
            }
        }
        if outcomes != BATCH_JOBS || counts[5] != 0 {
            return Err(format!(
                "corpus {cs}: {outcomes} outcomes ({} failed), expected {BATCH_JOBS} and 0",
                counts[5]
            ));
        }
        let first = &mut self.reports[cs as usize];
        match first {
            None => *first = Some(report),
            Some(r) if *r == report => {}
            Some(_) => return Err(format!("corpus {cs}: the report differs from the first run's")),
        }
        let journal_bytes = std::fs::metadata(self.path("journal.jsonl"))
            .map_err(|e| format!("corpus {cs}: journal: {e}"))?
            .len();
        let child_trace = if out.traced {
            Some(
                std::fs::read(self.path("trace.jsonl"))
                    .map_err(|e| format!("corpus {cs}: trace: {e}"))?,
            )
        } else {
            None
        };
        let jobs = BATCH_JOBS as f64;
        Ok(OpFacts {
            values: vec![
                ("jobs.satisfied", counts[0] as f64),
                ("jobs.data_repaired", counts[2] as f64),
                ("jobs.unrepairable", counts[3] as f64),
                ("jobs.failed", counts[5] as f64),
                ("journal_bytes_per_job", journal_bytes as f64 / jobs),
            ],
            child_trace,
            child_peak_rss_kb: Some(out.peak_rss_kb),
        })
    }
}

/// `VmHWM` (peak resident set, kB) of a process, from `/proc`.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets this process's `VmHWM` to its current resident set.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Waits for `child` while a second thread samples its peak resident set.
/// The peak is a high-water mark, so the last sample before exit holds it
/// up to the growth of the final sampling interval.
fn wait_with_peak_rss(child: std::process::Child) -> (std::io::Result<std::process::Output>, u64) {
    let pid = child.id().to_string();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(&pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let output = child.wait_with_output();
        done.store(true, Ordering::SeqCst);
        (output, sampler.join().expect("rss sampler panicked"))
    })
}
