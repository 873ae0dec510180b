//! A small textual model-description language, so models can live in
//! files and be checked from the command line (see the `tml-cli` crate).
//!
//! The format is line-oriented and PRISM-inspired:
//!
//! ```text
//! # a comment
//! dtmc                      # or: mdp
//! states 3
//! initial 0
//! label "goal" = 2
//! reward "steps" 0 = 1.0
//!
//! # DTMC rows: FROM -> TO: PROB, TO: PROB, ...
//! 0 -> 0: 0.25, 1: 0.75
//! 1 -> 2: 1.0
//! 2 -> 2: 1.0
//! ```
//!
//! MDP rows name an action in brackets (a state may have several):
//!
//! ```text
//! mdp
//! states 2
//! 0 [go]   -> 1: 1.0
//! 0 [stay] -> 0: 1.0
//! 1 [stay] -> 1: 1.0
//! ```
//!
//! Choice rewards use `reward "name" STATE [ACTION-INDEX] = VALUE`.
//!
//! Transition probabilities may be **intervals** `LO..HI` instead of point
//! values (`0 -> 0: 0.1..0.3, 1: 0.7..0.9`). A `dtmc`/`mdp` file containing
//! any interval entry is promoted to an interval model; the directives
//! `idtmc`/`imdp` force an interval model even when every entry is a point.

use std::error::Error;
use std::fmt::{self, Write as _};

use crate::interval::{IntervalDtmc, IntervalDtmcBuilder, IntervalMdp, IntervalMdpBuilder};
use crate::{Dtmc, DtmcBuilder, Labeling, Mdp, MdpBuilder, ModelError, RewardStructure};

/// A parsed model file: any kind of model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelFile {
    /// A discrete-time Markov chain.
    Dtmc(Dtmc),
    /// A Markov decision process.
    Mdp(Mdp),
    /// A Markov chain with `[lo, hi]` interval transition probabilities.
    IntervalDtmc(IntervalDtmc),
    /// An MDP with `[lo, hi]` interval transition probabilities.
    IntervalMdp(IntervalMdp),
}

impl ModelFile {
    /// The number of states, regardless of kind.
    pub fn num_states(&self) -> usize {
        match self {
            ModelFile::Dtmc(m) => m.num_states(),
            ModelFile::Mdp(m) => m.num_states(),
            ModelFile::IntervalDtmc(m) => m.num_states(),
            ModelFile::IntervalMdp(m) => m.num_states(),
        }
    }

    /// `"dtmc"`, `"mdp"`, `"idtmc"` or `"imdp"`.
    pub fn kind(&self) -> &'static str {
        match self {
            ModelFile::Dtmc(_) => "dtmc",
            ModelFile::Mdp(_) => "mdp",
            ModelFile::IntervalDtmc(_) => "idtmc",
            ModelFile::IntervalMdp(_) => "imdp",
        }
    }
}

/// Error produced when parsing a model description fails.
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl DslError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        DslError { line, message: message.into() }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model description error at line {}: {}", self.line, self.message)
    }
}

impl Error for DslError {}

/// `(line, from, [(to, lo, hi)])` — one parsed DTMC transition row. Point
/// probabilities are stored as degenerate intervals `lo == hi`.
type DtmcRow = (usize, usize, Vec<(usize, f64, f64)>);
/// `(line, from, action, [(to, lo, hi)])` — one parsed MDP choice row.
type MdpRow = (usize, usize, String, Vec<(usize, f64, f64)>);

/// Parses a model description.
///
/// # Errors
///
/// Returns a [`DslError`] with the offending line on malformed input, or a
/// wrapped [`ModelError`] message if the assembled model is invalid (e.g.
/// rows that do not sum to one).
///
/// # Example
///
/// ```
/// use tml_models::dsl::{parse_model, ModelFile};
///
/// let src = "dtmc\nstates 2\nlabel \"done\" = 1\n0 -> 1: 1.0\n1 -> 1: 1.0\n";
/// let model = parse_model(src).unwrap();
/// assert_eq!(model.kind(), "dtmc");
/// assert_eq!(model.num_states(), 2);
/// ```
pub fn parse_model(source: &str) -> Result<ModelFile, DslError> {
    let mut kind: Option<&str> = None;
    let mut num_states: Option<usize> = None;
    let mut initial = 0usize;
    let mut labels: Vec<(usize, String, usize)> = Vec::new(); // (line, name, state)
    let mut state_rewards: Vec<(usize, String, usize, f64)> = Vec::new();
    let mut choice_rewards: Vec<(usize, String, usize, usize, f64)> = Vec::new();
    let mut dtmc_rows: Vec<DtmcRow> = Vec::new();
    let mut mdp_rows: Vec<MdpRow> = Vec::new();
    let mut saw_interval = false;

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if kind.is_none() {
            match line {
                "dtmc" => kind = Some("dtmc"),
                "mdp" => kind = Some("mdp"),
                "idtmc" => kind = Some("idtmc"),
                "imdp" => kind = Some("imdp"),
                other => {
                    return Err(DslError::new(
                        lineno,
                        format!(
                            "expected 'dtmc', 'mdp', 'idtmc' or 'imdp' as the first directive, \
                             found {other:?}"
                        ),
                    ))
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("states") {
            num_states = Some(parse_usize(rest.trim(), lineno, "state count")?);
        } else if let Some(rest) = line.strip_prefix("initial") {
            initial = parse_usize(rest.trim(), lineno, "initial state")?;
        } else if let Some(rest) = line.strip_prefix("label") {
            let (name, states) = parse_named_assignment(rest, lineno)?;
            for s in states.split(',') {
                labels.push((lineno, name.clone(), parse_usize(s.trim(), lineno, "label state")?));
            }
        } else if line.starts_with("reward") {
            // Parsed in a dedicated second pass (the reward grammar has its
            // own name/state/choice/value shape); validate lazily there.
            continue;
        } else if line.contains("->") {
            let (lhs, rhs) = split_once(line, '-', lineno, "transition row")?;
            let rhs =
                rhs.strip_prefix('>').ok_or_else(|| DslError::new(lineno, "expected '->'"))?;
            let lhs = lhs.trim();
            let (dist, has_interval) = parse_distribution(rhs, lineno)?;
            saw_interval |= has_interval;
            if let Some(open) = lhs.find('[') {
                let close = lhs
                    .find(']')
                    .ok_or_else(|| DslError::new(lineno, "unclosed '[' in action name"))?;
                let from = parse_usize(lhs[..open].trim(), lineno, "source state")?;
                let action = lhs[open + 1..close].trim().to_owned();
                if action.is_empty() {
                    return Err(DslError::new(lineno, "empty action name"));
                }
                mdp_rows.push((lineno, from, action, dist));
            } else {
                let from = parse_usize(lhs, lineno, "source state")?;
                dtmc_rows.push((lineno, from, dist));
            }
        } else {
            return Err(DslError::new(lineno, format!("unrecognized directive {line:?}")));
        }
    }
    // Re-scan for rewards (kept out of the main loop for clarity of the
    // name/assignment split).
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if let Some(rest) = line.strip_prefix("reward") {
            let (name, state, choice, value) = parse_reward(rest, lineno)?;
            match choice {
                Some(c) => choice_rewards.push((lineno, name, state, c, value)),
                None => state_rewards.push((lineno, name, state, value)),
            }
        }
    }

    let kind = kind.ok_or_else(|| DslError::new(0, "empty model description"))?;
    let n = num_states.ok_or_else(|| DslError::new(0, "missing 'states N' directive"))?;

    // A point-kind file that uses `LO..HI` entries is promoted to the
    // matching interval kind.
    let kind = match (kind, saw_interval) {
        ("dtmc", true) => "idtmc",
        ("mdp", true) => "imdp",
        (k, _) => k,
    };

    let wrap = |lineno: usize, e: ModelError| DslError::new(lineno, e.to_string());
    let is_mdp = matches!(kind, "mdp" | "imdp");
    if is_mdp {
        if let Some((lineno, ..)) = dtmc_rows.first() {
            return Err(DslError::new(
                *lineno,
                "mdp rows need an action name in brackets: STATE [action] -> ...",
            ));
        }
    } else {
        if let Some((lineno, _, action, _)) = mdp_rows.first() {
            return Err(DslError::new(
                *lineno,
                format!("action {action:?} in a dtmc (use 'mdp' as the first directive)"),
            ));
        }
        if let Some((lineno, ..)) = choice_rewards.first() {
            return Err(DslError::new(*lineno, "choice rewards are only valid in an mdp"));
        }
    }
    match kind {
        "dtmc" => {
            let mut b = DtmcBuilder::new(n);
            b.initial_state(initial).map_err(|e| wrap(0, e))?;
            for (lineno, from, dist) in dtmc_rows {
                for (to, p, _) in dist {
                    b.transition(from, to, p).map_err(|e| wrap(lineno, e))?;
                }
            }
            for (lineno, name, s) in labels {
                b.label(s, &name).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s, v) in state_rewards {
                b.state_reward(&name, s, v).map_err(|e| wrap(lineno, e))?;
            }
            Ok(ModelFile::Dtmc(b.build().map_err(|e| wrap(0, e))?))
        }
        "idtmc" => {
            let mut b = IntervalDtmcBuilder::new(n);
            b.initial_state(initial).map_err(|e| wrap(0, e))?;
            for (lineno, from, dist) in dtmc_rows {
                for (to, lo, hi) in dist {
                    b.transition(from, to, lo, hi).map_err(|e| wrap(lineno, e))?;
                }
            }
            for (lineno, name, s) in labels {
                b.label(s, &name).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s, v) in state_rewards {
                b.state_reward(&name, s, v).map_err(|e| wrap(lineno, e))?;
            }
            Ok(ModelFile::IntervalDtmc(b.build().map_err(|e| wrap(0, e))?))
        }
        "mdp" => {
            let mut b = MdpBuilder::new(n);
            b.initial_state(initial).map_err(|e| wrap(0, e))?;
            for (lineno, from, action, dist) in mdp_rows {
                let point: Vec<(usize, f64)> = dist.iter().map(|&(t, p, _)| (t, p)).collect();
                b.choice(from, &action, &point).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s) in labels {
                b.label(s, &name).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s, v) in state_rewards {
                b.state_reward(&name, s, v).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s, c, v) in choice_rewards {
                b.choice_reward(&name, s, c, v).map_err(|e| wrap(lineno, e))?;
            }
            Ok(ModelFile::Mdp(b.build().map_err(|e| wrap(0, e))?))
        }
        "imdp" => {
            let mut b = IntervalMdpBuilder::new(n);
            b.initial_state(initial).map_err(|e| wrap(0, e))?;
            for (lineno, from, action, dist) in mdp_rows {
                b.choice(from, &action, &dist).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s) in labels {
                b.label(s, &name).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s, v) in state_rewards {
                b.state_reward(&name, s, v).map_err(|e| wrap(lineno, e))?;
            }
            for (lineno, name, s, c, v) in choice_rewards {
                b.choice_reward(&name, s, c, v).map_err(|e| wrap(lineno, e))?;
            }
            Ok(ModelFile::IntervalMdp(b.build().map_err(|e| wrap(0, e))?))
        }
        _ => unreachable!("kind is validated above"),
    }
}

// The writers append to one `String` through `fmt::Write`, which cannot
// fail on a `String`; the `Ok(())` they return is dropped.

/// Serializes a DTMC back into the textual format (round-trips through
/// [`parse_model`]).
pub fn dtmc_to_dsl(model: &Dtmc) -> String {
    let mut out = String::new();
    let n = model.num_states();
    write_prelude(
        &mut out,
        "dtmc",
        n,
        model.initial_state(),
        model.labeling(),
        model.reward_structures(),
        |_| 0,
    );
    for s in 0..n {
        let _ = write!(out, "{s} -> ");
        write_row(&mut out, model.successors(s), |out, (t, p)| write!(out, "{t}: {p}"));
    }
    out
}

/// Serializes an MDP back into the textual format.
pub fn mdp_to_dsl(model: &Mdp) -> String {
    let mut out = String::new();
    let n = model.num_states();
    write_prelude(
        &mut out,
        "mdp",
        n,
        model.initial_state(),
        model.labeling(),
        model.reward_structures(),
        |s| model.num_choices(s),
    );
    for s in 0..n {
        for choice in model.choices(s) {
            let _ = write!(out, "{s} [{}] -> ", model.action_name(choice.action));
            write_row(&mut out, &choice.transitions, |out, &(t, p)| write!(out, "{t}: {p}"));
        }
    }
    out
}

/// Serializes an interval DTMC into the textual format (round-trips
/// through [`parse_model`] — the explicit `idtmc` directive preserves the
/// kind even when every interval is degenerate).
pub fn interval_dtmc_to_dsl(model: &IntervalDtmc) -> String {
    let mut out = String::new();
    let n = model.num_states();
    write_prelude(
        &mut out,
        "idtmc",
        n,
        model.initial_state(),
        model.labeling(),
        model.reward_structures(),
        |_| 0,
    );
    for s in 0..n {
        let _ = write!(out, "{s} -> ");
        write_row(&mut out, model.row(s), |out, &(t, lo, hi)| write!(out, "{t}: {lo}..{hi}"));
    }
    out
}

/// Serializes an interval MDP into the textual format.
pub fn interval_mdp_to_dsl(model: &IntervalMdp) -> String {
    let mut out = String::new();
    let n = model.num_states();
    write_prelude(
        &mut out,
        "imdp",
        n,
        model.initial_state(),
        model.labeling(),
        model.reward_structures(),
        |s| model.num_choices(s),
    );
    for s in 0..n {
        for choice in model.choices(s) {
            let _ = write!(out, "{s} [{}] -> ", model.action_name(choice.action));
            write_row(&mut out, &choice.transitions, |out, &(t, lo, hi)| {
                write!(out, "{t}: {lo}..{hi}")
            });
        }
    }
    out
}

/// Writes the lines every model kind starts with: the kind directive, the
/// state count, the initial state, the labels, and each reward
/// structure's non-zero state rewards, each state's followed by the
/// non-zero rewards of its `num_choices(s)` choices.
fn write_prelude<'a>(
    out: &mut String,
    kind: &str,
    num_states: usize,
    initial: usize,
    labeling: &Labeling,
    rewards: impl Iterator<Item = &'a RewardStructure>,
    num_choices: impl Fn(usize) -> usize,
) {
    let _ = write!(out, "{kind}\nstates {num_states}\ninitial {initial}\n");
    for label in labeling.labels() {
        let _ = write!(out, "label \"{label}\" = ");
        write_row(out, labeling.states_with(label), |out, s| write!(out, "{s}"));
    }
    for rs in rewards {
        let name = rs.name();
        for s in 0..num_states {
            let r = rs.state_reward(s);
            if r != 0.0 {
                let _ = writeln!(out, "reward \"{name}\" {s} = {r}");
            }
            for c in 0..num_choices(s) {
                let cr = rs.choice_reward(s, c);
                if cr != 0.0 {
                    let _ = writeln!(out, "reward \"{name}\" {s} [{c}] = {cr}");
                }
            }
        }
    }
}

/// Writes `items` separated by `", "`, then a newline.
fn write_row<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T) -> fmt::Result,
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = item(out, x);
    }
    out.push('\n');
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_usize(text: &str, line: usize, what: &str) -> Result<usize, DslError> {
    text.parse().map_err(|_| DslError::new(line, format!("invalid {what}: {text:?}")))
}

fn parse_f64(text: &str, line: usize, what: &str) -> Result<f64, DslError> {
    text.trim().parse().map_err(|_| DslError::new(line, format!("invalid {what}: {text:?}")))
}

/// Parses `"name" = rest` returning `(name, rest)`.
fn parse_named_assignment(rest: &str, line: usize) -> Result<(String, String), DslError> {
    let rest = rest.trim();
    let inner =
        rest.strip_prefix('"').ok_or_else(|| DslError::new(line, "expected a quoted name"))?;
    let close = inner.find('"').ok_or_else(|| DslError::new(line, "unterminated quoted name"))?;
    let name = inner[..close].to_owned();
    let after = inner[close + 1..].trim();
    let value = after
        .strip_prefix('=')
        .ok_or_else(|| DslError::new(line, "expected '=' after the name"))?
        .trim()
        .to_owned();
    Ok((name, value))
}

/// Parses `"name" STATE = V` or `"name" STATE [CHOICE] = V`.
fn parse_reward(rest: &str, line: usize) -> Result<(String, usize, Option<usize>, f64), DslError> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('"')
        .ok_or_else(|| DslError::new(line, "expected a quoted reward structure name"))?;
    let close = inner.find('"').ok_or_else(|| DslError::new(line, "unterminated quoted name"))?;
    let name = inner[..close].to_owned();
    let after = inner[close + 1..].trim();
    let (lhs, value) = split_once(after, '=', line, "reward assignment")?;
    let value = parse_f64(&value, line, "reward value")?;
    let lhs = lhs.trim();
    if let Some(open) = lhs.find('[') {
        let close = lhs.find(']').ok_or_else(|| DslError::new(line, "unclosed '['"))?;
        let state = parse_usize(lhs[..open].trim(), line, "reward state")?;
        let choice = parse_usize(lhs[open + 1..close].trim(), line, "choice index")?;
        Ok((name, state, Some(choice), value))
    } else {
        let state = parse_usize(lhs, line, "reward state")?;
        Ok((name, state, None, value))
    }
}

/// `(target, lo, hi)` triples plus whether any entry used interval syntax.
type ParsedDistribution = (Vec<(usize, f64, f64)>, bool);

/// Parses `TO: PROB` / `TO: LO..HI` entries. Returns the triples (point
/// probabilities as degenerate intervals) and whether any entry used the
/// interval syntax.
fn parse_distribution(text: &str, line: usize) -> Result<ParsedDistribution, DslError> {
    let mut dist = Vec::new();
    let mut has_interval = false;
    for part in text.split(',') {
        let (state, prob) = split_once(part, ':', line, "distribution entry")?;
        let target = parse_usize(state.trim(), line, "target state")?;
        let (lo, hi) = match prob.split_once("..") {
            Some((lo, hi)) => {
                has_interval = true;
                (
                    parse_f64(lo, line, "interval lower bound")?,
                    parse_f64(hi, line, "interval upper bound")?,
                )
            }
            None => {
                let p = parse_f64(&prob, line, "probability")?;
                (p, p)
            }
        };
        dist.push((target, lo, hi));
    }
    if dist.is_empty() {
        return Err(DslError::new(line, "empty distribution"));
    }
    Ok((dist, has_interval))
}

fn split_once(
    text: &str,
    sep: char,
    line: usize,
    what: &str,
) -> Result<(String, String), DslError> {
    match text.split_once(sep) {
        Some((a, b)) => Ok((a.trim().to_owned(), b.trim().to_owned())),
        None => Err(DslError::new(line, format!("malformed {what}: {text:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTMC_SRC: &str = r#"
# gambler's chain
dtmc
states 3
initial 1
label "rich" = 2
label "broke" = 0
reward "steps" 1 = 1.0
0 -> 0: 1.0
1 -> 0: 0.5, 2: 0.5
2 -> 2: 1.0
"#;

    const MDP_SRC: &str = r#"
mdp
states 2
label "goal" = 1
reward "cost" 0 = 1.0
reward "cost" 0 [1] = 0.5
0 [go]   -> 1: 1.0
0 [stay] -> 0: 1.0
1 [stay] -> 1: 1.0
"#;

    #[test]
    fn parses_dtmc() {
        let m = parse_model(DTMC_SRC).unwrap();
        assert_eq!(m.kind(), "dtmc");
        let ModelFile::Dtmc(d) = m else { panic!("expected dtmc") };
        assert_eq!(d.num_states(), 3);
        assert_eq!(d.initial_state(), 1);
        assert_eq!(d.probability(1, 2), 0.5);
        assert!(d.labeling().has(2, "rich"));
        assert_eq!(d.reward_structure("steps").unwrap().state_reward(1), 1.0);
    }

    #[test]
    fn parses_mdp() {
        let m = parse_model(MDP_SRC).unwrap();
        let ModelFile::Mdp(m) = m else { panic!("expected mdp") };
        assert_eq!(m.num_choices(0), 2);
        assert_eq!(m.action_id("go"), Some(0));
        assert_eq!(m.reward_structure("cost").unwrap().choice_reward(0, 1), 0.5);
        assert!(m.labeling().has(1, "goal"));
    }

    #[test]
    fn dtmc_roundtrip() {
        let ModelFile::Dtmc(d) = parse_model(DTMC_SRC).unwrap() else { panic!() };
        let printed = dtmc_to_dsl(&d);
        let ModelFile::Dtmc(d2) = parse_model(&printed).unwrap() else { panic!() };
        assert_eq!(d, d2);
    }

    #[test]
    fn mdp_roundtrip() {
        let ModelFile::Mdp(m) = parse_model(MDP_SRC).unwrap() else { panic!() };
        let printed = mdp_to_dsl(&m);
        let ModelFile::Mdp(m2) = parse_model(&printed).unwrap() else { panic!() };
        assert_eq!(m, m2);
    }

    #[test]
    fn error_reporting_includes_lines() {
        let err = parse_model("dtmc\nstates 1\n0 -> 0: 0.5\n").unwrap_err();
        assert!(err.to_string().contains("sum"), "{err}");

        let err = parse_model("dtmc\nstates 1\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 3);

        let err = parse_model("chain\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse_model("").unwrap_err();
        assert!(err.to_string().contains("empty"));

        let err = parse_model("dtmc\n0 -> 0: 1.0\n").unwrap_err();
        assert!(err.to_string().contains("states"), "{err}");
    }

    #[test]
    fn kind_mismatches_rejected() {
        let err = parse_model("dtmc\nstates 1\n0 [a] -> 0: 1.0\n").unwrap_err();
        assert!(err.to_string().contains("dtmc"), "{err}");
        let err = parse_model("mdp\nstates 1\n0 -> 0: 1.0\n").unwrap_err();
        assert!(err.to_string().contains("action"), "{err}");
        let err =
            parse_model("dtmc\nstates 1\nreward \"r\" 0 [0] = 1.0\n0 -> 0: 1.0\n").unwrap_err();
        assert!(err.to_string().contains("choice rewards"), "{err}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let m =
            parse_model("# header\n\ndtmc # kind\nstates 1 # one\n0 -> 0: 1.0 # loop\n").unwrap();
        assert_eq!(m.num_states(), 1);
    }

    const IDTMC_SRC: &str = r#"
idtmc
states 3
initial 0
label "goal" = 2
reward "steps" 0 = 1.0
0 -> 0: 0.1..0.3, 1: 0.5..0.7, 2: 0.1..0.2
1 -> 2: 1.0
2 -> 2: 1.0
"#;

    #[test]
    fn parses_interval_dtmc() {
        let m = parse_model(IDTMC_SRC).unwrap();
        assert_eq!(m.kind(), "idtmc");
        let ModelFile::IntervalDtmc(m) = m else { panic!("expected idtmc") };
        assert_eq!(m.bounds(0, 1), (0.5, 0.7));
        assert_eq!(m.bounds(1, 2), (1.0, 1.0));
        assert!(m.labeling().has(2, "goal"));
        assert_eq!(m.reward_structure("steps").unwrap().state_reward(0), 1.0);
    }

    #[test]
    fn interval_syntax_promotes_point_kinds() {
        let m = parse_model("dtmc\nstates 2\n0 -> 1: 0.9..1.0\n1 -> 1: 1.0\n").unwrap();
        assert_eq!(m.kind(), "idtmc");
        let m = parse_model("mdp\nstates 1\n0 [a] -> 0: 0.9..1.0\n").unwrap();
        assert_eq!(m.kind(), "imdp");
        let ModelFile::IntervalMdp(m) = m else { panic!("expected imdp") };
        assert_eq!(m.choices(0)[0].transitions, vec![(0, 0.9, 1.0)]);
    }

    #[test]
    fn interval_dtmc_writer_golden() {
        let src = "idtmc\nstates 3\ninitial 1\nlabel \"start\" = 0, 1\nlabel \"goal\" = 2\n\
                   reward \"steps\" 0 = 1.5\nreward \"steps\" 1 = 2\nreward \"late\" 2 = 0.25\n\
                   0 -> 2: 0.1..0.2, 0: 0.1..0.3, 1: 0.5..0.7\n1 -> 2: 1.0\n2 -> 2: 0.9..1.0\n";
        let ModelFile::IntervalDtmc(m) = parse_model(src).unwrap() else {
            panic!("expected idtmc")
        };
        assert_eq!(
            interval_dtmc_to_dsl(&m),
            "idtmc\nstates 3\ninitial 1\n\
             label \"goal\" = 2\nlabel \"start\" = 0, 1\n\
             reward \"late\" 2 = 0.25\nreward \"steps\" 0 = 1.5\nreward \"steps\" 1 = 2\n\
             0 -> 0: 0.1..0.3, 1: 0.5..0.7, 2: 0.1..0.2\n1 -> 2: 1..1\n2 -> 2: 0.9..1\n"
        );
    }

    #[test]
    fn interval_roundtrips() {
        let ModelFile::IntervalDtmc(m) = parse_model(IDTMC_SRC).unwrap() else { panic!() };
        let printed = interval_dtmc_to_dsl(&m);
        let ModelFile::IntervalDtmc(m2) = parse_model(&printed).unwrap() else { panic!() };
        assert_eq!(m, m2);

        let src = "imdp\nstates 2\nlabel \"goal\" = 1\nreward \"cost\" 0 [0] = 0.5\n\
                   0 [go] -> 0: 0.0..0.2, 1: 0.8..1.0\n1 [stay] -> 1: 1.0\n";
        let ModelFile::IntervalMdp(m) = parse_model(src).unwrap() else { panic!() };
        let printed = interval_mdp_to_dsl(&m);
        let ModelFile::IntervalMdp(m2) = parse_model(&printed).unwrap() else { panic!() };
        assert_eq!(m, m2);
    }

    #[test]
    fn interval_errors_reported_with_lines() {
        // Inverted interval: rejected by the validating builder.
        let err = parse_model("idtmc\nstates 1\n0 -> 0: 0.9..0.1\n").unwrap_err();
        assert!(err.to_string().contains("interval"), "{err}");
        assert_eq!(err.line, 3);
        // Empty polytope (Σ hi < 1).
        let err = parse_model("idtmc\nstates 1\n0 -> 0: 0.1..0.4\n").unwrap_err();
        assert!(err.to_string().contains("sum"), "{err}");
        // Malformed endpoints.
        assert!(parse_model("idtmc\nstates 1\n0 -> 0: 0.1..x\n").is_err());
        assert!(parse_model("idtmc\nstates 1\n0 -> 0: ..0.5\n").is_err());
    }

    #[test]
    fn malformed_pieces() {
        assert!(parse_model("dtmc\nstates x\n").is_err());
        assert!(parse_model("dtmc\nstates 1\nlabel goal = 0\n0 -> 0: 1.0\n").is_err());
        assert!(parse_model("dtmc\nstates 1\nlabel \"g = 0\n0 -> 0: 1.0\n").is_err());
        assert!(parse_model("dtmc\nstates 1\n0 -> 0 1.0\n").is_err());
        assert!(parse_model("dtmc\nstates 1\n0 -> : 1.0\n").is_err());
        assert!(parse_model("mdp\nstates 1\n0 [] -> 0: 1.0\n").is_err());
        assert!(parse_model("mdp\nstates 1\n0 [a -> 0: 1.0\n").is_err());
    }
}
