//! The yardstick: a fixed computation of the bench's own, timed next to
//! every operation and set-up, that reports the host's speed at that
//! moment.
//!
//! On a shared virtual machine a CPU runs at a lower speed for seconds to
//! minutes at a time, and the same operation then takes up to 1.7× as
//! long. A run's median wall time follows the mix of speeds it happened to
//! see. The yardstick slows with the operations, so an operation's time
//! over the yardstick's time around it is the operation's cost at a fixed
//! speed. The reference-scaled times the benchmark reports are that ratio
//! in milliseconds of a host on which the yardstick takes `REFERENCE_MS`.
//!
//! It mixes, in about equal parts of its time, four kinds of work the
//! workloads do, which slow by different amounts: sorting floats (robust
//! value iteration, the optimizer), independent random reads over 8 MB
//! (large models), sparse matrix–vector sweeps over 3 MB (the solvers)
//! and parsing numbers out of text (the DSL). The mix was chosen so that
//! each workload's operations slow about as much as the yardstick does; a
//! dependent integer chain, for contrast, keeps its speed while the
//! operations slow. Its inputs are fixed, not drawn from the run's seed,
//! and no code of the program runs in it, so a change to the program
//! cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time on the reference host, in ms. Reference-scaled
/// times are `wall × REFERENCE_MS / yardstick`.
pub const REFERENCE_MS: f64 = 10.0;

const SORT_LEN: usize = 16_384;
const SORT_ROUNDS: usize = 2;
const TABLE_LEN: usize = 1 << 20;
const READS: usize = 1 << 19;
const ROWS: usize = 60_000;
const ROW_ENTRIES: usize = 4;
const SWEEPS: usize = 4;
const TEXT_LINES: usize = 7_000;

pub struct Yardstick {
    floats: Vec<f64>,
    table: Vec<u64>,
    reads: Vec<u32>,
    row_start: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    text: String,
}

/// xorshift64: the yardstick's inputs are the same on every run.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut s = 0x9E37_79B9_7F4A_7C15;
        let floats = (0..SORT_LEN).map(|_| (next(&mut s) >> 11) as f64).collect();
        let table = (0..TABLE_LEN).map(|_| next(&mut s)).collect();
        let reads = (0..READS).map(|_| (next(&mut s) % TABLE_LEN as u64) as u32).collect();
        let mut row_start = Vec::with_capacity(ROWS + 1);
        let mut cols = Vec::with_capacity(ROWS * ROW_ENTRIES);
        row_start.push(0);
        for r in 0..ROWS {
            cols.push(((r + 1) % ROWS) as u32);
            for _ in 1..ROW_ENTRIES {
                cols.push((next(&mut s) % ROWS as u64) as u32);
            }
            row_start.push(cols.len() as u32);
        }
        let vals = vec![0.2; cols.len()];
        let mut text = String::new();
        for r in 0..TEXT_LINES {
            let mut field = || next(&mut s) % 1_000_000;
            let (a, pa, b, pb) = (field() % 100_000, field(), field() % 100_000, field());
            text.push_str(&format!("{r} -> {a}: 0.{pa:06}, {b}: 0.{pb:06}\n"));
        }
        Yardstick { floats, table, reads, row_start, cols, vals, x: vec![0.5; ROWS], text }
    }

    /// Runs the yardstick once and returns its wall time in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..SORT_ROUNDS {
            let mut v = self.floats.clone();
            v.sort_unstable_by(f64::total_cmp);
            black_box(&v);
        }
        let mut sum = 0u64;
        for &k in &self.reads {
            sum = sum.wrapping_add(self.table[k as usize]);
        }
        black_box(sum);
        for _ in 0..SWEEPS {
            for r in 0..ROWS {
                let (lo, hi) = (self.row_start[r] as usize, self.row_start[r + 1] as usize);
                let mut sum = 0.1;
                for k in lo..hi {
                    sum += self.vals[k] * self.x[self.cols[k] as usize];
                }
                self.x[r] = sum;
            }
        }
        black_box(&self.x);
        let mut total = 0.0;
        for token in self.text.split([' ', ',', ':', '\n']) {
            if let Ok(v) = token.parse::<f64>() {
                total += v;
            }
        }
        black_box(total);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Bytes the yardstick keeps resident, which the in-process peak
    /// resident set leaves out.
    pub fn resident_bytes(&self) -> usize {
        (self.floats.len() + self.table.len()) * 8
            + (self.reads.len() + self.row_start.len()) * 4
            + self.cols.len() * 4
            + (self.vals.len() + self.x.len()) * 8
            + self.text.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_is_fixed_and_takes_measurable_time() {
        let (mut a, b) = (Yardstick::new(), Yardstick::new());
        assert_eq!(a.text, b.text);
        assert_eq!(a.cols, b.cols);
        assert!(a.time_ms() > 0.0);
        assert!(a.resident_bytes() > 3_000_000);
    }
}
