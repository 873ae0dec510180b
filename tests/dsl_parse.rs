//! The model text parser on untrusted and generated input: state counts
//! far beyond the rows and too many reward structures fail without sizing
//! anything by them, printed
//! models parse back bit for bit, the `Vec`-row chain builder agrees with
//! a `BTreeMap` reference, and mutated texts never panic.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use tml_conformance::gen;
use trusted_ml::models::dsl::{
    dtmc_to_dsl, interval_dtmc_to_dsl, interval_mdp_to_dsl, mdp_to_dsl, parse_model, ModelFile,
    MAX_REWARD_STRUCTURES,
};
use trusted_ml::models::{
    Dtmc, DtmcBuilder, IntervalDtmc, IntervalDtmcBuilder, IntervalMdp, Mdp, MdpBuilder, ModelError,
    STOCHASTIC_TOLERANCE,
};

const ASSETS: [&str; 4] = [
    include_str!("../assets/channel.tml"),
    include_str!("../assets/gambler.tml"),
    include_str!("../assets/routes.tml"),
    include_str!("../assets/sensor.tml"),
];

/// A splitmix64 stream, so every sweep sees the same inputs.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ------------------------------------------------------ untrusted `states N`

#[test]
fn huge_state_counts_are_errors_not_allocations() {
    // Allocating per-state storage for these counts would abort the test
    // binary; every kind must refuse them from the row count alone.
    let rows = [
        ("dtmc", "0 -> 0: 1.0"),
        ("idtmc", "0 -> 0: 0.9..1.0"),
        ("mdp", "0 [a] -> 0: 1.0"),
        ("imdp", "0 [a] -> 0: 0.9..1.0"),
    ];
    for (kind, row) in rows {
        for n in ["100000000000", "18446744073709551615"] {
            let src = format!("{kind}\nstates {n}\n{row}\n");
            let err = parse_model(&src).expect_err(&src);
            assert_eq!(err.line, 2, "{src}: {err}");
            assert_eq!(err.message, "state 1 has no outgoing distribution", "{src}");
        }
    }
    // The first state without a row is named, at the `states` line.
    let err = parse_model("mdp\n# nine\nstates 9\n1 [a] -> 1: 1.0\n").unwrap_err();
    assert_eq!((err.line, err.message.as_str()), (3, "state 0 has no outgoing distribution"));
    // A choice index sizes its state's reward vector: a huge one is refused.
    for c in ["99999999999", "18446744073709551615"] {
        let src = format!("mdp\nstates 1\nreward \"r\" 0 [{c}] = 1\n0 [a] -> 0: 1\n");
        let err = parse_model(&src).expect_err(&src);
        assert_eq!(err.line, 3, "{err}");
        assert!(err.message.contains(&format!("choice index {c}")), "{err}");
    }
}

/// Each reward structure is dense over the states, so names times states
/// would be quadratic in the text: the distinct names are capped.
#[test]
fn too_many_reward_structures_are_errors_not_allocations() {
    let text = |names: usize, repeats: usize| {
        let mut src = String::from("dtmc\nstates 1\n");
        for _ in 0..repeats {
            for i in 0..names {
                src.push_str(&format!("reward \"r{i}\" 0 = 1\n"));
            }
        }
        src + "0 -> 0: 1\n"
    };
    // At the cap, repeated names are fine.
    let ModelFile::Dtmc(d) = parse_model(&text(MAX_REWARD_STRUCTURES, 2)).unwrap() else {
        panic!("a dtmc");
    };
    assert_eq!(d.reward_structures().count(), MAX_REWARD_STRUCTURES);
    // One more name fails at the line that introduces it.
    let err = parse_model(&text(MAX_REWARD_STRUCTURES + 1, 1)).unwrap_err();
    assert_eq!(err.line, 3 + MAX_REWARD_STRUCTURES, "{err}");
    assert_eq!(err.message, format!("more than {MAX_REWARD_STRUCTURES} reward structures"));
    // Tens of thousands of names over as many states are refused before
    // any structure is built.
    let mut src = String::from("mdp\nstates 20000\n");
    for s in 0..20_000 {
        src.push_str(&format!("reward \"r{s}\" {s} [0] = 1\n{s} [a] -> {s}: 1\n"));
    }
    let err = parse_model(&src).unwrap_err();
    assert!(err.message.contains("reward structures"), "{err}");
}

// ------------------------------------------------------------- grammar edges

#[test]
fn brackets_out_of_order_are_errors_not_panics() {
    assert!(parse_model("mdp\nstates 1\n0 ]a[ -> 0: 1.0\n").is_err());
    assert!(parse_model("mdp\nstates 1\nreward \"r\" 0 ]0[ = 1\n0 [a] -> 0: 1\n").is_err());
}

#[test]
fn lines_and_whitespace_read_as_str_lines_and_trim() {
    // CRLF endings, a final CR, tabs, Unicode spaces and comments right
    // after values read as `str::lines` and `str::trim` would read them.
    let src = "dtmc\r\nstates\t2 # two\r\n\u{a0}0 -> 1: 1\u{2003}\r\n1 -> 1: 1#x\r";
    let ModelFile::Dtmc(d) = parse_model(src).unwrap() else { panic!("expected dtmc") };
    assert_eq!(d.num_states(), 2);
    let err = parse_model("dtmc\r\nstates 1\r\nbogus\r\n").unwrap_err();
    assert_eq!((err.line, err.message.as_str()), (3, "unrecognized directive \"bogus\""));
    // A vertical tab is whitespace to `char::is_whitespace`.
    assert!(parse_model("dtmc\nstates 1\n0 -> 0:\x0B1.0\x0B\n").is_ok());
}

// ----------------------------------------------------------- round trips

/// Asserts `parse_model(text) == model` and that every number repeats
/// bit for bit (`Debug` prints each `f64` exactly, `-0.0` included).
fn assert_round_trip(text: &str, model: &ModelFile) {
    let back = parse_model(text).unwrap_or_else(|e| panic!("printed model fails to parse: {e}"));
    assert_eq!(&back, model);
    assert_eq!(format!("{back:?}"), format!("{model:?}"));
}

/// A chain with an initial state other than 0, two labels and a reward.
fn sample_dtmc() -> Dtmc {
    let mut b = DtmcBuilder::new(3);
    b.transition(0, 1, 0.25).unwrap();
    b.transition(0, 2, 0.75).unwrap();
    b.transition(1, 1, 1.0).unwrap();
    b.transition(2, 0, 1.0).unwrap();
    b.label(1, "goal").unwrap();
    b.label(2, "detour").unwrap();
    b.state_reward("fuel", 0, 1.5).unwrap();
    b.initial_state(2).unwrap();
    b.build().unwrap()
}

/// An MDP with two actions in one state and both state and choice rewards.
fn sample_mdp() -> Mdp {
    let mut b = MdpBuilder::new(2);
    b.choice(0, "go", &[(1, 0.9), (0, 0.1)]).unwrap();
    b.choice(0, "wait", &[(0, 1.0)]).unwrap();
    b.choice(1, "wait", &[(1, 1.0)]).unwrap();
    b.label(1, "done").unwrap();
    b.state_reward("cost", 0, 1.0).unwrap();
    b.choice_reward("cost", 0, 0, 0.25).unwrap();
    b.build().unwrap()
}

#[test]
fn printed_models_parse_back_bit_for_bit() {
    let d = sample_dtmc();
    assert_round_trip(&dtmc_to_dsl(&d), &ModelFile::Dtmc(d));
    let m = sample_mdp();
    assert_round_trip(&mdp_to_dsl(&m), &ModelFile::Mdp(m));
    for seed in 1..4 {
        let d = gen::layered_scc_dtmc(seed, 6, 5, 3);
        assert_round_trip(&dtmc_to_dsl(&d), &ModelFile::Dtmc(d));
        let d = gen::grid_dtmc(seed, 6);
        assert_round_trip(&dtmc_to_dsl(&d), &ModelFile::Dtmc(d));
        let m = gen::random_mdp(seed, 6, 3);
        let im = IntervalMdp::from_mdp(&m, 0.05);
        assert_round_trip(&mdp_to_dsl(&m), &ModelFile::Mdp(m));
        assert_round_trip(&interval_mdp_to_dsl(&im), &ModelFile::IntervalMdp(im));
        let ball = IntervalDtmc::wilson_around(&gen::layered_scc_dtmc(seed, 4, 3, 3), 0.95, 500.0)
            .unwrap();
        assert_round_trip(&interval_dtmc_to_dsl(&ball), &ModelFile::IntervalDtmc(ball));
    }
}

// ------------------------------------------------ reference chain builder

/// The chain builder as it was: one `BTreeMap` per state, duplicates
/// summed on insertion, rows validated in state order.
struct ReferenceBuilder {
    rows: Vec<BTreeMap<usize, f64>>,
}

impl ReferenceBuilder {
    fn transition(&mut self, from: usize, to: usize, p: f64) {
        if p > 0.0 {
            *self.rows[from].entry(to).or_insert(0.0) += p;
        }
    }

    fn build(&self) -> Result<Vec<Vec<(usize, f64)>>, ModelError> {
        let mut out = Vec::new();
        for (state, row) in self.rows.iter().enumerate() {
            if row.is_empty() {
                return Err(ModelError::MissingDistribution { state });
            }
            let sum: f64 = row.values().sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(ModelError::NotStochastic { state, sum });
            }
            out.push(row.iter().map(|(&t, &p)| (t, p)).collect());
        }
        Ok(out)
    }
}

fn bits(row: &[(usize, f64)]) -> Vec<(usize, u64)> {
    row.iter().map(|&(t, p)| (t, p.to_bits())).collect()
}

#[test]
fn vec_row_builder_matches_the_btreemap_reference() {
    let mut stream = Stream(7);
    for case in 0..1000 {
        let n = 1 + stream.below(12);
        // Each state's entries: few distinct targets, so repeats are
        // common, zeros mixed in, scaled to sum to one.
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for from in 0..n {
            let k = 1 + stream.below(6);
            let weights: Vec<f64> =
                (0..k).map(|_| if stream.below(5) == 0 { 0.0 } else { stream.unit() }).collect();
            let total: f64 = weights.iter().sum();
            for w in weights {
                let p = if total > 0.0 { w / total } else { 0.0 };
                entries.push((from, stream.below(n.min(4)), p));
            }
        }
        // Interleave the states' entries; each state's own order stays.
        if case % 2 == 1 {
            entries.sort_by_key(|&(from, ..)| (from * 7919) % n);
        }
        let mut reference = ReferenceBuilder { rows: vec![BTreeMap::new(); n] };
        let mut builder = DtmcBuilder::new(n);
        for &(from, to, p) in &entries {
            reference.transition(from, to, p);
            builder.transition(from, to, p).unwrap();
        }
        match (reference.build(), builder.build()) {
            (Ok(rows), Ok(chain)) => {
                for (s, row) in rows.iter().enumerate() {
                    let got: Vec<(usize, f64)> = chain.successors(s).collect();
                    assert_eq!(&got, row, "case {case} state {s}");
                    assert_eq!(bits(&got), bits(row), "case {case} state {s}");
                }
            }
            (Err(want), Err(got)) => assert_eq!(got, want, "case {case}"),
            (want, got) => panic!("case {case}: reference {want:?}, builder {:?}", got.err()),
        }
    }
}

#[test]
fn interval_builder_keeps_the_last_bounds_like_the_reference() {
    let mut stream = Stream(11);
    for case in 0..100 {
        let n = 1 + stream.below(6);
        let mut reference: Vec<BTreeMap<usize, (f64, f64)>> = vec![BTreeMap::new(); n];
        let mut builder = IntervalDtmcBuilder::unchecked(n);
        for _ in 0..3 * n {
            let (from, to) = (stream.below(n), stream.below(n));
            let lo = stream.unit() / 2.0;
            let hi = lo + stream.unit() / 2.0;
            reference[from].insert(to, (lo, hi));
            builder.transition(from, to, lo, hi).unwrap();
        }
        let chain = builder.build().unwrap();
        for (s, row) in reference.iter().enumerate() {
            let want: Vec<(usize, u64, u64)> =
                row.iter().map(|(&t, &(lo, hi))| (t, lo.to_bits(), hi.to_bits())).collect();
            let got: Vec<(usize, u64, u64)> =
                chain.row(s).iter().map(|&(t, lo, hi)| (t, lo.to_bits(), hi.to_bits())).collect();
            assert_eq!(got, want, "case {case} state {s}");
        }
    }
}

// ---------------------------------------------------------- mutation sweep

/// Parses `text`, failing the test with the input if the parser panics.
fn parses_or_errors(text: &str, what: &str) {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| parse_model(text)));
    assert!(outcome.is_ok(), "parser panicked on {what}: {text:?}");
}

fn sweep_bases() -> Vec<String> {
    let mut bases: Vec<String> = ASSETS.iter().map(|s| s.to_string()).collect();
    let m = gen::random_mdp(2, 6, 3);
    bases.push(dtmc_to_dsl(&gen::random_dtmc(1, 6)));
    bases.push(interval_mdp_to_dsl(&IntervalMdp::from_mdp(&m, 0.05)));
    bases.push(mdp_to_dsl(&m));
    let ball = IntervalDtmc::wilson_around(&gen::layered_scc_dtmc(1, 3, 2, 2), 0.95, 100.0);
    bases.push(interval_dtmc_to_dsl(&ball.unwrap()));
    bases.push(
        "mdp\nstates 2\nreward \"c\" 0 [1] = 0.5\nreward \"c\" 1 = 1\n\
         0 [a] -> 1: 0.5, 1: 0.5\n0 [b] -> 0: 1\n1 [a] -> 1: 1.0\n"
            .to_string(),
    );
    bases
}

#[test]
fn mutated_texts_parse_or_error_but_never_panic() {
    const FLIPS: &[u8] = b"0159.,:->[]\"#\n\r\t =eE+x";
    let mut stream = Stream(3);
    for base in sweep_bases() {
        assert!(parse_model(&base).is_ok(), "base text parses:\n{base}");
        // Truncation at every character boundary.
        for (i, _) in base.char_indices() {
            parses_or_errors(&base[..i], "a truncation");
        }
        // Byte flips at ASCII positions (the text stays UTF-8).
        let bytes = base.as_bytes();
        for _ in 0..4000 {
            let mut flipped = bytes.to_vec();
            for _ in 0..1 + stream.below(3) {
                let at = stream.below(flipped.len());
                if flipped[at].is_ascii() {
                    flipped[at] = FLIPS[stream.below(FLIPS.len())];
                }
            }
            parses_or_errors(&String::from_utf8(flipped).unwrap(), "a byte flip");
        }
        // Each digit run in turn inflated to 20 to 25 digits.
        let mut at = 0;
        while let Some(start) = base[at..].find(|c: char| c.is_ascii_digit()).map(|i| at + i) {
            let end =
                base[start..].find(|c: char| !c.is_ascii_digit()).map_or(base.len(), |i| start + i);
            let digits: String = (0..20 + stream.below(6))
                .map(|_| char::from(b'0' + stream.below(10) as u8))
                .collect();
            let inflated = format!("{}{digits}{}", &base[..start], &base[end..]);
            parses_or_errors(&inflated, "an inflated digit run");
            at = end;
        }
    }
}
