//! Compiled evaluation tapes for polynomials and rational functions.
//!
//! The symbolic representations ([`Polynomial`], [`RationalFunction`]) are
//! optimized for *algebra* — state elimination, derivatives, normalization —
//! but their `BTreeMap<Vec<u32>, f64>` term storage makes **evaluation**
//! slow: every call walks the tree, chases per-term heap allocations and
//! recomputes `x.powi(e)` from scratch. Evaluation, however, is exactly
//! what region lifting does: it bounds every constraint row over each box
//! it refines, and its warm-start screen evaluates them at box points.
//!
//! This module flattens the symbolic trees once, ahead of lifting or of
//! the first instantiation, into contiguous coefficient/exponent
//! **tapes**:
//!
//! * [`CompiledPoly`] — a flat `(coeffs, exponents)` pair evaluated with a
//!   per-variable power table (each `x_i^e` computed once per point, by
//!   repeated multiplication, and shared across terms);
//! * [`CompiledRatFn`] — numerator and denominator tapes sharing one power
//!   table;
//! * [`CompiledConstraintSet`] — every constraint row of a region problem
//!   in one object, sharing a single power table per point or box and
//!   filling caller-provided value or interval buffers;
//! * `EntryTape` — the *entry tape* of a
//!   [`ParametricDtmc`](crate::ParametricDtmc): every transition entry and
//!   state reward on one tape with one stride, evaluated against one power
//!   table per point through
//!   [`entries_at`](crate::ParametricDtmc::entries_at). It is the one
//!   evaluator behind both `instantiate` and the repair oracle, and
//!   bitwise [`RationalFunction::eval`] wherever no exponent exceeds 3.
//!
//! Point power tables live in fixed-size stack buffers for all realistic
//! sizes (≤ [`STACK_F64`] table entries), so point evaluation performs **no
//! heap allocation**; larger instances transparently fall back to a heap
//! table.

use std::ops::Range;

use crate::lifting::Interval;
use crate::{ParametricError, Polynomial, RationalFunction};

/// Stack budget (in `f64`s) for the shared power table.
const STACK_F64: usize = 256;

/// A polynomial flattened to a contiguous evaluation tape.
///
/// Terms are stored as a flat coefficient vector plus a CSR-style list of
/// the **nonzero-exponent** `(variable, exponent)` pairs of each monomial
/// (`offsets[t]..offsets[t+1]` addresses term `t`'s pairs). Evaluation
/// against a precomputed power table costs one load and one multiply per
/// *active* pair — no `powi`, no tree walk, no allocation, and no wasted
/// `x^0` multiplies for the variables a monomial does not mention.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPoly {
    nvars: usize,
    coeffs: Vec<f64>,
    /// `offsets[t]..offsets[t+1]` is term `t`'s pair range (len `nterms+1`).
    offsets: Vec<u32>,
    /// Variable index per active pair.
    vars: Vec<u32>,
    /// Exponent per active pair (always ≥ 1).
    exps: Vec<u32>,
    /// Precomputed power-table index `v * stride + e` per active pair, so
    /// the hot loop is one load + one multiply per pair.
    idx: Vec<u32>,
    /// The stride the `idx` tape is bound to (the height of the power
    /// table this tape evaluates against).
    stride: usize,
    max_deg: u32,
}

impl CompiledPoly {
    /// Flattens a symbolic polynomial into a tape.
    pub fn compile(p: &Polynomial) -> Self {
        let mut tape = Self::empty(p.num_vars());
        tape.push(p);
        tape.bind_stride(tape.max_deg as usize + 1);
        tape
    }

    /// A tape with no terms over `nvars` variables, not yet bound to a
    /// stride.
    fn empty(nvars: usize) -> Self {
        CompiledPoly {
            nvars,
            coeffs: Vec::new(),
            offsets: vec![0],
            vars: Vec::new(),
            exps: Vec::new(),
            idx: Vec::new(),
            stride: 0,
            max_deg: 0,
        }
    }

    /// Appends `p`'s non-zero terms, in its term order, after the tape's
    /// last term. The caller rebinds the stride afterwards.
    fn push(&mut self, p: &Polynomial) {
        debug_assert_eq!(p.num_vars(), self.nvars);
        for (exp, c) in p.terms() {
            if c == 0.0 {
                continue;
            }
            self.coeffs.push(c);
            for (v, &e) in exp.iter().enumerate() {
                if e > 0 {
                    self.vars.push(v as u32);
                    self.exps.push(e);
                    self.max_deg = self.max_deg.max(e);
                }
            }
            self.offsets.push(self.vars.len() as u32);
        }
    }

    /// Rebinds the index tape to a (possibly larger, shared) power-table
    /// stride.
    ///
    /// Establishes the invariant the unchecked evaluation loops rely on:
    /// every `idx` entry is `v * stride + e` with `v < nvars` and
    /// `1 <= e <= max_deg < stride`, hence `1 <= idx[k] < nvars * stride`.
    fn bind_stride(&mut self, stride: usize) {
        debug_assert!(stride > self.max_deg as usize);
        self.stride = stride;
        self.idx.clear();
        self.idx.reserve(self.vars.len());
        for (&v, &e) in self.vars.iter().zip(&self.exps) {
            debug_assert!((v as usize) < self.nvars && e >= 1 && (e as usize) < stride);
            self.idx.push((v as usize * stride + e as usize) as u32);
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Number of terms on the tape.
    pub fn num_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// The largest exponent of any single variable (determines the power
    /// table height).
    pub fn max_degree(&self) -> u32 {
        self.max_deg
    }

    /// Evaluates the tape against a power table built with the tape's bound
    /// stride: `powers[v * stride + e]` holds `x_v^e`.
    #[inline]
    fn eval_with_table(&self, powers: &[f64]) -> f64 {
        self.eval_terms(0..self.num_terms(), powers)
    }

    /// Sums the tape's terms `terms` against a power table, in tape order
    /// from `0.0`; each term is its coefficient times its pairs' powers in
    /// variable order.
    #[inline]
    fn eval_terms(&self, terms: Range<usize>, powers: &[f64]) -> f64 {
        let mut acc = 0.0;
        let mut lo = self.offsets[terms.start] as usize;
        for (&hi, &c) in self.offsets[terms.start + 1..=terms.end].iter().zip(&self.coeffs[terms]) {
            let hi = hi as usize;
            let mut term = c;
            for &i in &self.idx[lo..hi] {
                term *= powers[i as usize];
            }
            acc += term;
            lo = hi;
        }
        acc
    }

    /// Evaluates at `point` (self-contained: builds its own power table).
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::PointArityMismatch`] for a wrong-sized
    /// point.
    pub fn eval(&self, point: &[f64]) -> Result<f64, ParametricError> {
        if point.len() != self.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.nvars,
                got: point.len(),
            });
        }
        Ok(with_power_table(self.stride, point, |powers| self.eval_with_table(powers)))
    }

    /// Bounds the tape over an interval power table (same `v * stride + e`
    /// layout as the point table, with [`Interval`] entries). The enclosure
    /// is outward-widened, so it contains every point evaluation of
    /// [`eval_with_table`](Self::eval_with_table) over the box the table
    /// was built from — including that evaluation's own rounding error.
    #[inline]
    fn bound_with_table(&self, powers: &[Interval]) -> Interval {
        let mut acc = Interval::point(0.0);
        let mut lo = 0usize;
        for (&hi, &c) in self.offsets[1..].iter().zip(&self.coeffs) {
            let hi = hi as usize;
            let mut term = Interval::point(c);
            for &i in &self.idx[lo..hi] {
                term = term.mul(powers[i as usize]);
            }
            acc = acc.add(term);
            lo = hi;
        }
        acc
    }

    /// Bounds the polynomial over a parameter box (self-contained: builds
    /// its own interval power table).
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::PointArityMismatch`] for a wrong-sized
    /// box.
    pub fn bound(&self, bbox: &[(f64, f64)]) -> Result<Interval, ParametricError> {
        if bbox.len() != self.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.nvars,
                got: bbox.len(),
            });
        }
        let powers = interval_power_table(self.stride, bbox);
        Ok(self.bound_with_table(&powers))
    }
}

/// Builds an interval power table: `powers[v * stride + e]` encloses
/// `x_v^e` for every `x_v` in the `v`-th box range (sign-aware, see
/// [`Interval::pow`]).
fn interval_power_table(stride: usize, bbox: &[(f64, f64)]) -> Vec<Interval> {
    let mut powers = vec![Interval::point(1.0); bbox.len() * stride];
    for (row, &(lo, hi)) in powers.chunks_exact_mut(stride).zip(bbox) {
        let x = Interval::new(lo, hi);
        for (e, slot) in row.iter_mut().enumerate() {
            *slot = x.pow(e as u32);
        }
    }
    powers
}

/// Small-tier stack budget: most repair problems have a handful of
/// parameters and modest degrees, and zero-initializing the full
/// [`STACK_F64`] buffer on every evaluation would dominate the cost of
/// small tapes.
const STACK_F64_SMALL: usize = 64;

/// Builds a power table for `point` with the given stride — in a
/// tier-sized stack buffer when it fits, on the heap otherwise — and runs
/// `body` against it.
#[inline]
fn with_power_table<R>(stride: usize, point: &[f64], body: impl FnOnce(&[f64]) -> R) -> R {
    let n = point.len() * stride;
    if n <= STACK_F64_SMALL {
        let mut buf = [0.0; STACK_F64_SMALL];
        fill_power_table(&mut buf[..n], stride, point);
        body(&buf[..n])
    } else if n <= STACK_F64 {
        let mut buf = [0.0; STACK_F64];
        fill_power_table(&mut buf[..n], stride, point);
        body(&buf[..n])
    } else {
        let mut buf = vec![0.0; n];
        fill_power_table(&mut buf, stride, point);
        body(&buf)
    }
}

/// Fills `powers[v * stride + e] = point[v]^e` by repeated multiplication.
/// `powers.len()` must equal `point.len() * stride`.
#[inline]
fn fill_power_table(powers: &mut [f64], stride: usize, point: &[f64]) {
    debug_assert_eq!(powers.len(), point.len() * stride);
    for (row, &x) in powers.chunks_exact_mut(stride).zip(point) {
        let mut p = 1.0;
        for slot in row.iter_mut() {
            *slot = p;
            p *= x;
        }
    }
}

/// A rational function compiled to numerator/denominator tapes sharing one
/// power table.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRatFn {
    num: CompiledPoly,
    den: CompiledPoly,
    nvars: usize,
    stride: usize,
}

impl CompiledRatFn {
    /// Compiles a symbolic rational function.
    pub fn compile(f: &RationalFunction) -> Self {
        let num = CompiledPoly::compile(f.numerator());
        let den = CompiledPoly::compile(f.denominator());
        let stride = num.max_degree().max(den.max_degree()) as usize + 1;
        let mut c = CompiledRatFn { nvars: f.num_vars(), num, den, stride };
        c.bind_stride(stride);
        c
    }

    /// Rebinds both member tapes to a (possibly larger, shared) stride.
    fn bind_stride(&mut self, stride: usize) {
        self.stride = stride;
        self.num.bind_stride(stride);
        self.den.bind_stride(stride);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Evaluates at `point`. Returns `NaN` at poles of the denominator (a
    /// `NaN` row satisfies no constraint sense, which matches the repair
    /// semantics of leaving the well-defined parameter region).
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::PointArityMismatch`] for a wrong-sized
    /// point.
    pub fn eval(&self, point: &[f64]) -> Result<f64, ParametricError> {
        if point.len() != self.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.nvars,
                got: point.len(),
            });
        }
        Ok(with_power_table(self.stride, point, |powers| self.eval_with_table(powers)))
    }

    /// Quotient against a caller-provided power table; `NaN` at poles.
    #[inline]
    fn eval_with_table(&self, powers: &[f64]) -> f64 {
        let d = self.den.eval_with_table(powers);
        if d.abs() < 1e-300 {
            return f64::NAN;
        }
        self.num.eval_with_table(powers) / d
    }

    /// Bounds the rational function over a parameter box. A denominator
    /// enclosure touching zero yields [`Interval::whole`] — the sound
    /// counterpart of the point evaluator's `NaN` at poles.
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::PointArityMismatch`] for a wrong-sized
    /// box.
    pub fn bound(&self, bbox: &[(f64, f64)]) -> Result<Interval, ParametricError> {
        if bbox.len() != self.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.nvars,
                got: bbox.len(),
            });
        }
        let powers = interval_power_table(self.stride, bbox);
        Ok(self.bound_with_table(&powers))
    }

    /// Quotient bound against a caller-provided interval power table.
    #[inline]
    fn bound_with_table(&self, powers: &[Interval]) -> Interval {
        self.num.bound_with_table(powers).div(self.den.bound_with_table(powers))
    }
}

/// Every constraint function of an NLP compiled into one object.
///
/// All member functions share a single power table per evaluation point:
/// `x_i^e` is computed once and reused by every numerator and denominator
/// of every constraint — the dominant saving when, as in Model Repair, all
/// constraints are rational functions of the same few repair parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledConstraintSet {
    nvars: usize,
    stride: usize,
    fns: Vec<CompiledRatFn>,
}

impl CompiledConstraintSet {
    /// Compiles a set of rational constraint functions.
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::ArityMismatch`] if the functions disagree
    /// on the number of variables.
    pub fn compile(fns: &[RationalFunction]) -> Result<Self, ParametricError> {
        let _span = tml_telemetry::span!("parametric.compile_tapes", functions = fns.len());
        tml_telemetry::counter!("parametric.tape.compiles", fns.len());
        let nvars = fns.first().map(RationalFunction::num_vars).unwrap_or(0);
        let mut compiled = Vec::with_capacity(fns.len());
        let mut stride = 1;
        for f in fns {
            if f.num_vars() != nvars {
                return Err(ParametricError::ArityMismatch { left: nvars, right: f.num_vars() });
            }
            let c = CompiledRatFn::compile(f);
            stride = stride.max(c.stride);
            compiled.push(c);
        }
        // Every member uses the set-wide stride so one table serves all.
        for c in &mut compiled {
            c.bind_stride(stride);
        }
        Ok(CompiledConstraintSet { nvars, stride, fns: compiled })
    }

    /// Number of constraint functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Evaluates every constraint at `point` in one pass, filling `values`
    /// (length [`len`](Self::len)). Pole rows are filled with `NaN`.
    ///
    /// # Errors
    ///
    /// [`ParametricError::PointArityMismatch`] on wrong-sized `point` or
    /// `values`.
    pub fn eval_all(&self, point: &[f64], values: &mut [f64]) -> Result<(), ParametricError> {
        if values.len() != self.fns.len() {
            return Err(ParametricError::PointArityMismatch {
                expected: self.fns.len(),
                got: values.len(),
            });
        }
        if point.len() != self.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.nvars,
                got: point.len(),
            });
        }
        with_power_table(self.stride, point, |powers| {
            for (f, out) in self.fns.iter().zip(values.iter_mut()) {
                *out = f.eval_with_table(powers);
            }
        });
        Ok(())
    }

    /// Bounds every constraint over a parameter box in one pass, sharing a
    /// single interval power table, filling `bounds` (length
    /// [`len`](Self::len)). Rows whose denominator enclosure touches zero
    /// are filled with [`Interval::whole`].
    ///
    /// # Errors
    ///
    /// [`ParametricError::PointArityMismatch`] on wrong-sized `bbox` or
    /// `bounds`.
    pub fn bound_all(
        &self,
        bbox: &[(f64, f64)],
        bounds: &mut [Interval],
    ) -> Result<(), ParametricError> {
        if bounds.len() != self.fns.len() {
            return Err(ParametricError::PointArityMismatch {
                expected: self.fns.len(),
                got: bounds.len(),
            });
        }
        if bbox.len() != self.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.nvars,
                got: bbox.len(),
            });
        }
        let powers = interval_power_table(self.stride, bbox);
        for (f, out) in self.fns.iter().zip(bounds.iter_mut()) {
            *out = f.bound_with_table(&powers);
        }
        Ok(())
    }
}

/// Many rational functions over the same variables on one tape: the
/// *entry tape* of a [`ParametricDtmc`](crate::ParametricDtmc).
///
/// Every numerator's and every denominator's terms lie end to end on one
/// [`CompiledPoly`] bound to one stride, so a single power table per point
/// serves every entry. Entry `k`'s numerator is polynomial `2k` and its
/// denominator polynomial `2k + 1`. A denominator that is the constant `1`
/// stays off the tape (an empty range; no denominator is the zero
/// polynomial), since dividing by `1.0` is exact.
///
/// An entry's value is bitwise [`RationalFunction::eval`]'s whenever no
/// exponent exceeds 3. Both multiply a term's coefficient by its powers in
/// variable order (the tape skips `x⁰`, `Polynomial::eval` multiplies by
/// an exact `1.0`), add the terms in `BTreeMap` order starting from `0.0`,
/// and divide the numerator by the denominator. For `e ≤ 3` the power
/// table's repeated multiplication and `powi` round alike; from `x⁴` on
/// they may differ by an ulp.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EntryTape {
    terms: CompiledPoly,
    /// Polynomial `j`'s terms are `starts[j]..starts[j + 1]` of `terms`.
    starts: Vec<usize>,
}

impl EntryTape {
    /// Flattens `entries`, in order, over `nvars` variables.
    pub(crate) fn compile<'a>(
        nvars: usize,
        entries: impl IntoIterator<Item = &'a RationalFunction>,
    ) -> Self {
        let mut terms = CompiledPoly::empty(nvars);
        let mut starts = vec![0];
        for f in entries {
            debug_assert!(!f.denominator().is_zero());
            terms.push(f.numerator());
            starts.push(terms.num_terms());
            if f.denominator().as_constant() != Some(1.0) {
                terms.push(f.denominator());
            }
            starts.push(terms.num_terms());
        }
        terms.bind_stride(terms.max_deg as usize + 1);
        EntryTape { terms, starts }
    }

    /// Builds the power table of `point` and runs `body` on the entries'
    /// values there, each evaluated when `body` asks for it.
    ///
    /// # Errors
    ///
    /// Returns [`ParametricError::PointArityMismatch`] for a wrong-sized
    /// point.
    pub(crate) fn at<R>(
        &self,
        point: &[f64],
        body: impl FnOnce(EntryValues<'_>) -> R,
    ) -> Result<R, ParametricError> {
        if point.len() != self.terms.nvars {
            return Err(ParametricError::PointArityMismatch {
                expected: self.terms.nvars,
                got: point.len(),
            });
        }
        Ok(with_power_table(self.terms.stride, point, |powers| {
            body(EntryValues { tape: self, powers, point, next: 0 })
        }))
    }
}

/// The values of a parametric chain's entries at one point, in entry order
/// (see [`ParametricDtmc::entries_at`](crate::ParametricDtmc::entries_at)).
///
/// Each item is the entry's value, or [`ParametricError::PoleAtPoint`]
/// where its denominator's magnitude is below `1e-300`.
#[derive(Debug)]
pub struct EntryValues<'a> {
    tape: &'a EntryTape,
    powers: &'a [f64],
    point: &'a [f64],
    next: usize,
}

impl Iterator for EntryValues<'_> {
    type Item = Result<f64, ParametricError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let starts = self.tape.starts.get(2 * self.next..2 * self.next + 3)?;
        self.next += 1;
        let terms = &self.tape.terms;
        let num = terms.eval_terms(starts[0]..starts[1], self.powers);
        // An empty denominator range is the constant 1.
        if starts[1] == starts[2] {
            return Some(Ok(num));
        }
        let den = terms.eval_terms(starts[1]..starts[2], self.powers);
        if den.abs() < 1e-300 {
            return Some(Err(ParametricError::PoleAtPoint { point: self.point.to_vec() }));
        }
        Some(Ok(num / den))
    }
}

impl Polynomial {
    /// Flattens this polynomial into an evaluation tape (see
    /// [`CompiledPoly`]).
    pub fn compile(&self) -> CompiledPoly {
        CompiledPoly::compile(self)
    }
}

impl RationalFunction {
    /// Flattens this rational function into an evaluation tape (see
    /// [`CompiledRatFn`]).
    pub fn compile(&self) -> CompiledRatFn {
        CompiledRatFn::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_poly() -> Polynomial {
        // p(x, y) = 3 x²y + 2 y³ − 1.5 x + 4
        Polynomial::from_terms(
            2,
            &[(vec![2, 1], 3.0), (vec![0, 3], 2.0), (vec![1, 0], -1.5), (vec![0, 0], 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn compiled_poly_matches_interpreted() {
        let p = sample_poly();
        let c = p.compile();
        assert_eq!(c.num_terms(), 4);
        assert_eq!(c.max_degree(), 3);
        for pt in [[0.0, 0.0], [1.0, 1.0], [-2.5, 0.75], [3.0, -1.0]] {
            let a = p.eval(&pt).unwrap();
            let b = c.eval(&pt).unwrap();
            assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{a} vs {b} at {pt:?}");
        }
        assert!(c.eval(&[1.0]).is_err());
    }

    #[test]
    fn zero_polynomial_compiles_to_empty_tape() {
        let z = Polynomial::zero(3).compile();
        assert_eq!(z.num_terms(), 0);
        assert_eq!(z.eval(&[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn compiled_ratfn_matches_interpreted() {
        // f = (1 + v₀ v₁) / (1 + v₀² + 0.5 v₁²): denominator never vanishes.
        let v0 = RationalFunction::var(2, 0);
        let v1 = RationalFunction::var(2, 1);
        let one = RationalFunction::one_rf(2);
        let num = one.add(&v0.mul(&v1));
        let den = one.add(&v0.mul(&v0)).add(&v1.mul(&v1).mul(&RationalFunction::constant(2, 0.5)));
        let f = num.div(&den).unwrap();
        let c = f.compile();
        assert_eq!(c.num_vars(), 2);
        for pt in [[0.0, 0.0], [0.3, -0.4], [-1.0, 2.0]] {
            let a = f.eval(&pt).unwrap();
            let b = c.eval(&pt).unwrap();
            assert!((a - b).abs() < 1e-12 * (1.0 + a.abs()), "{a} vs {b} at {pt:?}");
        }
    }

    #[test]
    fn pole_yields_nan_not_error() {
        // f = 1 / v
        let f = RationalFunction::one_rf(1).div(&RationalFunction::var(1, 0)).unwrap();
        let c = f.compile();
        assert!(c.eval(&[0.0]).unwrap().is_nan());
    }

    #[test]
    fn constraint_set_one_pass_matches_per_function_eval() {
        let v = RationalFunction::var(2, 0);
        let w = RationalFunction::var(2, 1);
        let one = RationalFunction::one_rf(2);
        let fns = vec![one.add(&v), v.mul(&w).sub(&one), one.div(&one.add(&v.mul(&v))).unwrap()];
        let set = CompiledConstraintSet::compile(&fns).unwrap();
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let pt = [0.4, -0.7];
        let mut vals = [0.0; 3];
        set.eval_all(&pt, &mut vals).unwrap();
        for (f, &got) in fns.iter().zip(&vals) {
            let want = f.eval(&pt).unwrap();
            assert!((want - got).abs() < 1e-12 * (1.0 + want.abs()));
        }
        // Buffer shape errors.
        assert!(set.eval_all(&pt, &mut [0.0; 2]).is_err());
        assert!(set.eval_all(&[0.1], &mut vals).is_err());
    }

    #[test]
    fn constraint_set_rejects_mixed_arity() {
        let fns = vec![RationalFunction::var(1, 0), RationalFunction::var(2, 0)];
        assert!(CompiledConstraintSet::compile(&fns).is_err());
    }

    #[test]
    fn empty_constraint_set() {
        let set = CompiledConstraintSet::compile(&[]).unwrap();
        assert!(set.is_empty());
        set.eval_all(&[], &mut []).unwrap();
    }

    #[test]
    fn heap_fallback_for_large_instances() {
        // 40 variables of degree 9 exceed the stack power-table budget, so
        // point evaluation builds its table on the heap.
        let nv = 40;
        let mut terms = Vec::new();
        for i in 0..nv {
            let mut e = vec![0u32; nv];
            e[i] = 9;
            terms.push((e, (i + 1) as f64));
        }
        let p = Polynomial::from_terms(nv, &terms).unwrap();
        let c = p.compile();
        let pt: Vec<f64> = (0..nv).map(|i| 1.0 + 0.01 * i as f64).collect();
        let a = p.eval(&pt).unwrap();
        let b = c.eval(&pt).unwrap();
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        let f = RationalFunction::from_poly(p);
        let val = f.compile().eval(&pt).unwrap();
        assert!((val - a).abs() < 1e-9 * (1.0 + a.abs()));
        let set = CompiledConstraintSet::compile(&[f.clone(), f]).unwrap();
        let mut vals = [0.0; 2];
        set.eval_all(&pt, &mut vals).unwrap();
        for v in vals {
            assert!((v - a).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random polynomials over 4 variables with exponents up to 4.
    fn arb_poly4() -> impl Strategy<Value = Polynomial> {
        proptest::collection::vec((proptest::collection::vec(0u32..5, 4), -10.0_f64..10.0), 0..8)
            .prop_map(|terms| Polynomial::from_terms(4, &terms).unwrap())
    }

    proptest! {
        /// Tape evaluation matches the interpreted walk to 1e-12 (relative).
        #[test]
        fn compiled_poly_eval_matches(
            p in arb_poly4(),
            pt in proptest::collection::vec(-2.0_f64..2.0, 4),
        ) {
            let a = p.eval(&pt).unwrap();
            let b = p.compile().eval(&pt).unwrap();
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{a} vs {b}");
        }

        /// Tape evaluation matches the interpreted rational function to
        /// 1e-12 (relative) away from poles.
        #[test]
        fn compiled_ratfn_eval_matches(
            num in arb_poly4(),
            den_sq in arb_poly4(),
            pt in proptest::collection::vec(-1.5_f64..1.5, 4),
        ) {
            // den = 1 + den_sq² is bounded away from zero everywhere.
            let den = Polynomial::constant(4, 1.0).add(&den_sq.mul(&den_sq));
            let f = RationalFunction::new(num, den).unwrap();
            let c = f.compile();
            let a = f.eval(&pt).unwrap();
            let b = c.eval(&pt).unwrap();
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }
}
