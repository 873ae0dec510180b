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
//!
//! A target repeated within one `dtmc`/`mdp` row adds its probabilities
//! (`0 -> 1: 0.25, 1: 0.75` is `1: 1.0`); within one `idtmc`/`imdp` row it
//! is an error naming the line and the target. Errors found when the model
//! is assembled name the state's first row, or the `states` line if it
//! has none.
//!
//! [`parse_model`] reads the text once, over borrowed slices, with
//! `str::parse` on each trimmed number, so values are bit-exact. No number
//! in the text sizes an allocation: `states N` beyond the row count fails
//! (every state needs a row) before any per-state storage exists, and a
//! choice reward's index may not exceed the length of the text. Each
//! reward structure is dense over the states, so a model may name at most
//! [`MAX_REWARD_STRUCTURES`] of them.

use std::error::Error;
use std::fmt::{self, Write as _};

use crate::interval::{
    IntervalDtmc, IntervalDtmcBuilder, IntervalMdp, IntervalMdpBuilder, IntervalTransition,
};
use crate::{Dtmc, DtmcBuilder, Labeling, Mdp, MdpBuilder, ModelError, RewardStructure};

/// The most distinct reward structures one model text may name.
pub const MAX_REWARD_STRUCTURES: usize = 64;

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

/// One transition row as scanned: `FROM -> ...` or `FROM [ACTION] -> ...`.
struct Row<'a> {
    line: usize,
    from: usize,
    /// The action name of an MDP row, borrowed from the source.
    action: Option<&'a str>,
    /// This row's span of [`Scan::entries`].
    start: usize,
    end: usize,
}

/// Everything one pass over the source collects. Names are borrowed from
/// the source; the builders own one copy of each distinct name.
struct Scan<'a> {
    kind: &'static str,
    /// `(line, N)` of the last `states N` directive.
    states: (usize, usize),
    initial: usize,
    /// `(line, label, state)`.
    labels: Vec<(usize, &'a str, usize)>,
    /// `(line, structure, state, value)`.
    state_rewards: Vec<(usize, &'a str, usize, f64)>,
    /// `(line, structure, state, choice, value)`.
    choice_rewards: Vec<(usize, &'a str, usize, usize, f64)>,
    rows: Vec<Row<'a>>,
    /// The `(to, lo, hi)` entries of every row back to back; a point
    /// probability is the degenerate interval `lo == hi`.
    entries: Vec<IntervalTransition>,
}

impl Scan<'_> {
    fn entries(&self, row: &Row) -> &[IntervalTransition] {
        &self.entries[row.start..row.end]
    }

    /// Attaches a builder error to a line: a state's first row, or the
    /// `states` line for a state without rows and for model-wide errors.
    fn build_error(&self, e: ModelError) -> DslError {
        let line = match e {
            ModelError::MissingDistribution { state } | ModelError::NotStochastic { state, .. } => {
                self.rows.iter().find(|r| r.from == state).map(|r| r.line)
            }
            _ => None,
        };
        DslError::new(line.unwrap_or(self.states.0), e.to_string())
    }
}

/// Parses a model description (see the [module docs](self) for the
/// format, the duplicate-target rules and the memory bound).
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
    let scan = scan(source)?;
    let is_mdp = matches!(scan.kind, "mdp" | "imdp");
    if is_mdp {
        if let Some(row) = scan.rows.iter().find(|r| r.action.is_none()) {
            return Err(DslError::new(
                row.line,
                "mdp rows need an action name in brackets: STATE [action] -> ...",
            ));
        }
    } else {
        if let Some((line, action)) = scan.rows.iter().find_map(|r| Some((r.line, r.action?))) {
            return Err(DslError::new(
                line,
                format!("action {action:?} in a dtmc (use 'mdp' as the first directive)"),
            ));
        }
        if let Some(&(line, ..)) = scan.choice_rewards.first() {
            return Err(DslError::new(line, "choice rewards are only valid in an mdp"));
        }
    }
    let n = scan.states.1;
    if n > scan.rows.len() {
        // Some state in 0..=rows has no row; name the first.
        let mut froms: Vec<usize> = scan.rows.iter().map(|r| r.from).collect();
        froms.sort_unstable();
        froms.dedup();
        let state = froms.iter().enumerate().position(|(i, &s)| i != s).unwrap_or(froms.len());
        return Err(scan.build_error(ModelError::MissingDistribution { state }));
    }
    // A choice index sizes its state's reward vector, so it may not exceed
    // the length of the text it came from.
    if let Some(&(line, .., c, _)) = scan.choice_rewards.iter().find(|r| r.3 >= source.len()) {
        return Err(DslError::new(line, format!("choice index {c} exceeds the model text length")));
    }

    let wrap = |line: usize, e: ModelError| DslError::new(line, e.to_string());
    // The builders share these method names but no trait.
    macro_rules! labels_and_rewards {
        ($b:ident) => {
            for &(line, name, s) in &scan.labels {
                $b.label(s, name).map_err(|e| wrap(line, e))?;
            }
            for &(line, name, s, v) in &scan.state_rewards {
                $b.state_reward(name, s, v).map_err(|e| wrap(line, e))?;
            }
        };
        ($b:ident, choices) => {
            labels_and_rewards!($b);
            for &(line, name, s, c, v) in &scan.choice_rewards {
                $b.choice_reward(name, s, c, v).map_err(|e| wrap(line, e))?;
            }
        };
    }
    match scan.kind {
        "dtmc" => {
            let mut b = DtmcBuilder::new(n);
            b.initial_state(scan.initial).map_err(|e| wrap(0, e))?;
            for row in &scan.rows {
                for &(to, p, _) in scan.entries(row) {
                    b.transition(row.from, to, p).map_err(|e| wrap(row.line, e))?;
                }
            }
            labels_and_rewards!(b);
            Ok(ModelFile::Dtmc(b.build().map_err(|e| scan.build_error(e))?))
        }
        "idtmc" => {
            let mut b = IntervalDtmcBuilder::new(n);
            b.initial_state(scan.initial).map_err(|e| wrap(0, e))?;
            let mut targets = Vec::new();
            for row in &scan.rows {
                check_unique_targets(row, scan.entries(row), &mut targets)?;
                for &(to, lo, hi) in scan.entries(row) {
                    b.transition(row.from, to, lo, hi).map_err(|e| wrap(row.line, e))?;
                }
            }
            labels_and_rewards!(b);
            Ok(ModelFile::IntervalDtmc(b.build().map_err(|e| scan.build_error(e))?))
        }
        "mdp" => {
            let mut b = MdpBuilder::new(n);
            b.initial_state(scan.initial).map_err(|e| wrap(0, e))?;
            let mut point = Vec::new();
            for row in &scan.rows {
                point.clear();
                point.extend(scan.entries(row).iter().map(|&(t, p, _)| (t, p)));
                let action = row.action.unwrap_or_default();
                b.choice(row.from, action, &point).map_err(|e| wrap(row.line, e))?;
            }
            labels_and_rewards!(b, choices);
            Ok(ModelFile::Mdp(b.build().map_err(|e| scan.build_error(e))?))
        }
        _ => {
            let mut b = IntervalMdpBuilder::new(n);
            b.initial_state(scan.initial).map_err(|e| wrap(0, e))?;
            let mut targets = Vec::new();
            for row in &scan.rows {
                let entries = scan.entries(row);
                check_unique_targets(row, entries, &mut targets)?;
                let action = row.action.unwrap_or_default();
                b.choice(row.from, action, entries).map_err(|e| wrap(row.line, e))?;
            }
            labels_and_rewards!(b, choices);
            Ok(ModelFile::IntervalMdp(b.build().map_err(|e| scan.build_error(e))?))
        }
    }
}

/// The single pass over the source: every line is classified and parsed
/// into [`Scan`], with the number parsing of `str::parse` on trimmed
/// slices. Reward lines report their errors only if no other line fails.
fn scan(source: &str) -> Result<Scan<'_>, DslError> {
    let mut kind: Option<&'static str> = None;
    let mut states = None;
    let mut initial = 0usize;
    let mut labels = Vec::new();
    let mut state_rewards = Vec::new();
    let mut choice_rewards = Vec::new();
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut saw_interval = false;
    let mut reward_error = None;
    let mut reward_names: Vec<&str> = Vec::new();

    let mut rest = source;
    let mut lineno = 0;
    while !rest.is_empty() {
        lineno += 1;
        let raw;
        (raw, rest) = next_line(rest);
        let line = trim(raw);
        if line.is_empty() {
            continue;
        }
        if kind.is_none() {
            kind = Some(match line {
                "dtmc" => "dtmc",
                "mdp" => "mdp",
                "idtmc" => "idtmc",
                "imdp" => "imdp",
                other => {
                    return Err(DslError::new(
                        lineno,
                        format!(
                            "expected 'dtmc', 'mdp', 'idtmc' or 'imdp' as the first directive, \
                             found {other:?}"
                        ),
                    ))
                }
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("states") {
            states = Some((lineno, parse_usize(trim(rest), lineno, "state count")?));
        } else if let Some(rest) = line.strip_prefix("initial") {
            initial = parse_usize(trim(rest), lineno, "initial state")?;
        } else if let Some(rest) = line.strip_prefix("label") {
            let (name, states) = parse_named_assignment(rest, lineno)?;
            for s in states.split(',') {
                labels.push((lineno, name, parse_usize(trim(s), lineno, "label state")?));
            }
        } else if let Some(rest) = line.strip_prefix("reward") {
            if reward_error.is_none() {
                match parse_reward(rest, lineno) {
                    Ok((name, ..))
                        if reward_names.len() == MAX_REWARD_STRUCTURES
                            && !reward_names.contains(&name) =>
                    {
                        reward_error = Some(DslError::new(
                            lineno,
                            format!("more than {MAX_REWARD_STRUCTURES} reward structures"),
                        ));
                    }
                    Ok((name, state, choice, v)) => {
                        if !reward_names.contains(&name) {
                            reward_names.push(name);
                        }
                        match choice {
                            Some(c) => choice_rewards.push((lineno, name, state, c, v)),
                            None => state_rewards.push((lineno, name, state, v)),
                        }
                    }
                    Err(e) => reward_error = Some(e),
                }
            }
        } else if find_pair(line, b"->").is_some() {
            let (lhs, rhs) = split_once(line, b'-', lineno, "transition row")?;
            let rhs =
                rhs.strip_prefix('>').ok_or_else(|| DslError::new(lineno, "expected '->'"))?;
            let start = entries.len();
            saw_interval |= parse_distribution(rhs, lineno, &mut entries)?;
            let (from, action) = match split_bracket(lhs, lineno, "unclosed '[' in action name")? {
                Some((from, action)) => (from, Some(action)),
                None => (lhs, None),
            };
            let from = parse_usize(from, lineno, "source state")?;
            if action == Some("") {
                return Err(DslError::new(lineno, "empty action name"));
            }
            rows.push(Row { line: lineno, from, action, start, end: entries.len() });
        } else {
            return Err(DslError::new(lineno, format!("unrecognized directive {line:?}")));
        }
    }
    if let Some(e) = reward_error {
        return Err(e);
    }
    let kind = kind.ok_or_else(|| DslError::new(0, "empty model description"))?;
    let states = states.ok_or_else(|| DslError::new(0, "missing 'states N' directive"))?;
    // A point-kind file that uses `LO..HI` entries is promoted to the
    // matching interval kind.
    let kind = match (kind, saw_interval) {
        ("dtmc", true) => "idtmc",
        ("mdp", true) => "imdp",
        (k, _) => k,
    };
    Ok(Scan { kind, states, initial, labels, state_rewards, choice_rewards, rows, entries })
}

/// Rejects an interval row that names a target twice. `targets` is
/// scratch space reused across rows.
fn check_unique_targets(
    row: &Row,
    entries: &[IntervalTransition],
    targets: &mut Vec<usize>,
) -> Result<(), DslError> {
    targets.clear();
    targets.extend(entries.iter().map(|&(t, ..)| t));
    targets.sort_unstable();
    match targets.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(DslError::new(
            row.line,
            format!("target {} appears more than once in one interval row", w[0]),
        )),
        None => Ok(()),
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

/// `str::trim`: ASCII whitespace (`\t`..=`\r` and space, as
/// `char::is_whitespace` has it) is stripped byte-wise, and only a
/// non-ASCII end goes to the Unicode rules.
#[inline]
fn trim(text: &str) -> &str {
    // Fast paths for the common tokens: nothing to strip, or the one
    // leading space that `", "` and `": "` leave.
    match text.as_bytes() {
        [a, .., z] if a.is_ascii_graphic() && z.is_ascii_graphic() => return text,
        [b' ', a, .., z] if a.is_ascii_graphic() && z.is_ascii_graphic() => return &text[1..],
        _ => {}
    }
    let ws = |b: &u8| *b == b' ' || (b'\t'..=b'\r').contains(b);
    let start = text.bytes().position(|b| !ws(&b)).unwrap_or(text.len());
    let end = text.bytes().rposition(|b| !ws(&b)).map_or(start, |i| i + 1);
    let text = &text[start..end];
    match (text.bytes().next(), text.bytes().last()) {
        (Some(a), Some(z)) if !(a.is_ascii() && z.is_ascii()) => text.trim(),
        _ => text,
    }
}

/// The byte offset of the first `byte` (an ASCII character) in `text`.
fn find_byte(text: &str, byte: u8) -> Option<usize> {
    find_either(text.as_bytes(), byte, byte)
}

/// Splits the first line off `text` as `str::lines` does (a `\r` before
/// the `\n` is dropped), cut at its first `#`, and returns the rest.
fn next_line(text: &str) -> (&str, &str) {
    let bytes = text.as_bytes();
    let Some(i) = find_either(bytes, b'\n', b'#') else {
        return (text, "");
    };
    if bytes[i] == b'#' {
        let end = find_byte(&text[i..], b'\n').map_or(text.len(), |j| i + j + 1);
        return (&text[..i], &text[end..]);
    }
    let line = &text[..i];
    (line.strip_suffix('\r').unwrap_or(line), &text[i + 1..])
}

/// The position of the first `a` or `b` in `bytes`, eight bytes at a
/// time: the lowest byte the zero-byte test flags is always a true match.
fn find_either(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let zero = |v: u64| v.wrapping_sub(LO) & !v & HI;
    let (a8, b8) = (LO * u64::from(a), LO * u64::from(b));
    let mut chunks = bytes.chunks_exact(8);
    for (k, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let hit = zero(w ^ a8) | zero(w ^ b8);
        if hit != 0 {
            return Some(k * 8 + hit.trailing_zeros() as usize / 8);
        }
    }
    let tail = chunks.remainder();
    tail.iter().position(|&c| c == a || c == b).map(|i| bytes.len() - tail.len() + i)
}

/// The byte offset of the first `pair` in `text`.
fn find_pair(text: &str, pair: &[u8; 2]) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(i) = find_either(&bytes[from..], pair[0], pair[0]) {
        let at = from + i;
        if bytes.get(at + 1) == Some(&pair[1]) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn parse_usize(text: &str, line: usize, what: &str) -> Result<usize, DslError> {
    text.parse().map_err(|_| DslError::new(line, format!("invalid {what}: {text:?}")))
}

fn parse_f64(text: &str, line: usize, what: &str) -> Result<f64, DslError> {
    trim(text).parse().map_err(|_| DslError::new(line, format!("invalid {what}: {text:?}")))
}

/// Splits `"name" rest` into the name and the trimmed rest.
fn parse_quoted<'a>(
    text: &'a str,
    line: usize,
    expected: &str,
) -> Result<(&'a str, &'a str), DslError> {
    let inner = trim(text).strip_prefix('"').ok_or_else(|| DslError::new(line, expected))?;
    let close =
        find_byte(inner, b'"').ok_or_else(|| DslError::new(line, "unterminated quoted name"))?;
    Ok((&inner[..close], trim(&inner[close + 1..])))
}

/// Parses `"name" = rest` returning `(name, rest)`.
fn parse_named_assignment(rest: &str, line: usize) -> Result<(&str, &str), DslError> {
    let (name, after) = parse_quoted(rest, line, "expected a quoted name")?;
    let value = after
        .strip_prefix('=')
        .ok_or_else(|| DslError::new(line, "expected '=' after the name"))?;
    Ok((name, trim(value)))
}

/// Parses `"name" STATE = V` or `"name" STATE [CHOICE] = V`.
fn parse_reward(rest: &str, line: usize) -> Result<(&str, usize, Option<usize>, f64), DslError> {
    let (name, after) = parse_quoted(rest, line, "expected a quoted reward structure name")?;
    let (lhs, value) = split_once(after, b'=', line, "reward assignment")?;
    let value = parse_f64(value, line, "reward value")?;
    match split_bracket(lhs, line, "unclosed '['")? {
        Some((state, choice)) => {
            let state = parse_usize(state, line, "reward state")?;
            let choice = parse_usize(choice, line, "choice index")?;
            Ok((name, state, Some(choice), value))
        }
        None => Ok((name, parse_usize(lhs, line, "reward state")?, None, value)),
    }
}

/// Splits `HEAD [INNER] ...` into the trimmed head and inner text, or
/// `None` when there is no `[`.
fn split_bracket<'a>(
    text: &'a str,
    line: usize,
    unclosed: &str,
) -> Result<Option<(&'a str, &'a str)>, DslError> {
    let Some(open) = find_byte(text, b'[') else { return Ok(None) };
    let inner = &text[open + 1..];
    let close = find_byte(inner, b']').ok_or_else(|| DslError::new(line, unclosed))?;
    Ok(Some((trim(&text[..open]), trim(&inner[..close]))))
}

/// Parses `TO: PROB` / `TO: LO..HI` entries onto `entries`, point
/// probabilities as degenerate intervals. Returns whether any entry used
/// the interval syntax.
fn parse_distribution(
    text: &str,
    line: usize,
    entries: &mut Vec<IntervalTransition>,
) -> Result<bool, DslError> {
    let mut has_interval = false;
    let mut rest = text;
    loop {
        let (part, next) = match find_byte(rest, b',') {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => (rest, None),
        };
        let (state, prob) = split_once(part, b':', line, "distribution entry")?;
        let target = parse_usize(state, line, "target state")?;
        let (lo, hi) = match find_pair(prob, b"..").map(|i| (&prob[..i], &prob[i + 2..])) {
            Some((lo, hi)) => {
                has_interval = true;
                (
                    parse_f64(lo, line, "interval lower bound")?,
                    parse_f64(hi, line, "interval upper bound")?,
                )
            }
            None => {
                let p = parse_f64(prob, line, "probability")?;
                (p, p)
            }
        };
        entries.push((target, lo, hi));
        match next {
            Some(next) => rest = next,
            None => return Ok(has_interval),
        }
    }
}

/// Splits at the first `sep`, trimming both sides.
fn split_once<'a>(
    text: &'a str,
    sep: u8,
    line: usize,
    what: &str,
) -> Result<(&'a str, &'a str), DslError> {
    match find_byte(text, sep) {
        Some(i) => Ok((trim(&text[..i]), trim(&text[i + 1..]))),
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
        // Errors found when the model is assembled name the state's first
        // row, or the `states` line when the state has none.
        let err = parse_model("dtmc\nstates 1\n0 -> 0: 0.5\n").unwrap_err();
        assert!(err.to_string().contains("sum"), "{err}");
        assert_eq!(err.line, 3);
        let err =
            parse_model("dtmc\nstates 2\n\n1 -> 1: 1.0\n0 -> 0: 0.0\n0 -> 1: 0.0\n").unwrap_err();
        assert!(err.to_string().contains("state 0 has no outgoing"), "{err}");
        assert_eq!(err.line, 5);
        let err = parse_model("dtmc\nstates 3\n0 -> 0: 1.0\n2 -> 2: 1.0\n").unwrap_err();
        assert!(err.to_string().contains("state 1 has no outgoing"), "{err}");
        assert_eq!(err.line, 2);
        let err = parse_model("mdp\nstates 2\n0 [a] -> 1: 1.0\n1 [a] -> 0: 0.0\n").unwrap_err();
        assert!(err.to_string().contains("sum"), "{err}");
        assert_eq!(err.line, 4);

        let err = parse_model("dtmc\nstates 1\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 3);

        let err = parse_model("chain\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse_model("").unwrap_err();
        assert!(err.to_string().contains("empty"));

        let err = parse_model("dtmc\n0 -> 0: 1.0\n").unwrap_err();
        assert!(err.to_string().contains("states"), "{err}");
        assert_eq!(err.line, 0);
    }

    #[test]
    fn repeated_targets_add_up_in_point_rows_and_fail_in_interval_rows() {
        let ModelFile::Dtmc(d) =
            parse_model("dtmc\nstates 2\n0 -> 1: 0.25, 0: 0.5, 1: 0.25\n1 -> 1: 1\n").unwrap()
        else {
            panic!("expected dtmc")
        };
        assert_eq!(d.successors(0).collect::<Vec<_>>(), vec![(0, 0.5), (1, 0.5)]);
        let ModelFile::Mdp(m) = parse_model("mdp\nstates 1\n0 [a] -> 0: 0.5, 0: 0.5\n").unwrap()
        else {
            panic!("expected mdp")
        };
        assert_eq!(m.choices(0)[0].transitions, vec![(0, 1.0)]);
        for src in [
            "idtmc\nstates 2\n1 -> 1: 1\n0 -> 1: 0.5..0.5, 0: 0.2..0.4, 1: 0.5..0.5\n",
            "dtmc\nstates 2\n1 -> 1: 1\n0 -> 1: 0.5, 0: 0.2..0.4, 1: 0.5\n",
            "imdp\nstates 2\n1 [a] -> 1: 1\n0 [a] -> 1: 0.5..0.5, 0: 0.2..0.4, 1: 0.5..0.5\n",
        ] {
            let err = parse_model(src).unwrap_err();
            assert_eq!(err.line, 4, "{src}: {err}");
            assert!(err.message.contains("target 1 appears more than once"), "{src}: {err}");
        }
        // Across rows of one state, interval bounds keep the last given.
        let ModelFile::IntervalDtmc(m) =
            parse_model("idtmc\nstates 1\n0 -> 0: 0.1..0.2\n0 -> 0: 0.9..1\n").unwrap()
        else {
            panic!("expected idtmc")
        };
        assert_eq!(m.row(0), &[(0, 0.9, 1.0)]);
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
        // Empty polytope (Σ hi < 1), found when the model is assembled.
        let err = parse_model("idtmc\nstates 1\n\n0 -> 0: 0.1..0.4\n").unwrap_err();
        assert!(err.to_string().contains("sum to 0.4"), "{err}");
        assert_eq!(err.line, 4);
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
