//! Maximum-likelihood learning of transition probabilities from traces —
//! the `ML(D)` procedure of the TML pipeline.
//!
//! A [`TraceDataset`] groups weighted traces into named *classes*
//! (e.g. "successful forward", "ignore at n11"). Data Repair works by
//! re-weighting whole classes with keep-weights in `[0, 1]`, so the
//! estimators here accept an optional per-class weight vector: the learned
//! transition probability then becomes a *rational function* of those
//! weights, which is exactly the parameterization the paper's Data Repair
//! formulation feeds into parametric model checking.
//!
//! The DTMC learners [`ml_dtmc`] and [`interval_dtmc_from_traces`] count
//! through one [`TraceCounts`] table: the support the traces take and each
//! class's counts on it, built from the dataset alone. Data repair builds
//! the table once and re-learns from it at every candidate.
//! Learning is pure maximum likelihood: no smoothing, and a state no trace
//! leaves gets a self-loop. [`ml_mdp`] counts `(state, action, successor)`
//! triples densely.

use std::ops::Range;

use crate::interval::IntervalDtmcBuilder;
use crate::{DtmcBuilder, MdpBuilder, ModelError, Path};

/// A trace with a multiplicity/confidence weight and a class tag.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedTrace {
    /// The observed trajectory.
    pub path: Path,
    /// Multiplicity (how many times this trace was observed) or confidence.
    pub weight: f64,
    /// Index into [`TraceDataset::class_names`].
    pub class: usize,
}

/// A collection of weighted traces grouped into named classes.
///
/// # Example
///
/// ```
/// use tml_models::{TraceDataset, Path};
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut ds = TraceDataset::new();
/// let ok = ds.add_class("success");
/// ds.push(ok, Path::from_states(vec![0, 1]), 4.0)?;
/// assert_eq!(ds.num_traces(), 1);
/// assert_eq!(ds.total_weight(), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDataset {
    class_names: Vec<String>,
    traces: Vec<WeightedTrace>,
}

impl TraceDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        TraceDataset::default()
    }

    /// Registers a trace class, returning its index. Re-registering an
    /// existing name returns the existing index.
    pub fn add_class(&mut self, name: &str) -> usize {
        if let Some(i) = self.class_names.iter().position(|c| c == name) {
            return i;
        }
        self.class_names.push(name.to_owned());
        self.class_names.len() - 1
    }

    /// Appends a trace to the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrace`] if the class index is unknown or
    /// the weight is negative/non-finite.
    pub fn push(&mut self, class: usize, path: Path, weight: f64) -> Result<(), ModelError> {
        if class >= self.class_names.len() {
            return Err(ModelError::InvalidTrace {
                detail: format!("unknown class index {class}"),
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(ModelError::InvalidTrace {
                detail: format!("invalid trace weight {weight}"),
            });
        }
        self.traces.push(WeightedTrace { path, weight, class });
        Ok(())
    }

    /// The registered class names, in registration order.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Number of traces.
    pub fn num_traces(&self) -> usize {
        self.traces.len()
    }

    /// Sum of all trace weights.
    pub fn total_weight(&self) -> f64 {
        self.traces.iter().map(|t| t.weight).sum()
    }

    /// Iterates over the traces.
    pub fn iter(&self) -> impl Iterator<Item = &WeightedTrace> {
        self.traces.iter()
    }

    /// Weighted `(state, action, successor)` counts for MDP learning.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTrace`] if `class_weights` does not hold one
    /// finite, non-negative weight per class, or a trace of non-zero
    /// weight names a state `≥ num_states`, an action `≥ num_actions` or
    /// lacks an action for some transition.
    #[allow(clippy::type_complexity)]
    pub fn action_counts(
        &self,
        num_states: usize,
        num_actions: usize,
        class_weights: Option<&[f64]>,
    ) -> Result<Vec<Vec<Vec<f64>>>, ModelError> {
        check_weights(class_weights, self.num_classes())?;
        let mut counts = vec![vec![vec![0.0; num_states]; num_actions]; num_states];
        for tr in &self.traces {
            let w = tr.weight * class_weights.map_or(1.0, |cw| cw[tr.class]);
            if w == 0.0 {
                continue;
            }
            if tr.path.actions.len() + 1 != tr.path.states.len() {
                return Err(ModelError::InvalidTrace {
                    detail: "MDP learning requires an action per transition".into(),
                });
            }
            for i in 0..tr.path.len() {
                let (s, a, t) = (tr.path.states[i], tr.path.actions[i], tr.path.states[i + 1]);
                check_step(s, t, num_states)?;
                if a >= num_actions {
                    return Err(ModelError::InvalidTrace {
                        detail: format!("trace mentions action {a} but model has {num_actions}"),
                    });
                }
                counts[s][a][t] += w;
            }
        }
        Ok(counts)
    }
}

/// `Ok` when `class_weights`, if given, holds one finite, non-negative
/// weight for each of `num_classes` classes.
fn check_weights(class_weights: Option<&[f64]>, num_classes: usize) -> Result<(), ModelError> {
    if let Some(cw) = class_weights {
        if cw.len() != num_classes {
            return Err(ModelError::InvalidTrace {
                detail: format!("{} class weights for {num_classes} classes", cw.len()),
            });
        }
        if let Some(&w) = cw.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(ModelError::InvalidTrace { detail: format!("invalid class weight {w}") });
        }
    }
    Ok(())
}

/// `Ok` when the trace step `s → t` stays within `num_states` states.
fn check_step(s: usize, t: usize, num_states: usize) -> Result<(), ModelError> {
    if s >= num_states || t >= num_states {
        return Err(ModelError::InvalidTrace {
            detail: format!("trace mentions state {} but model has {num_states}", s.max(t)),
        });
    }
    Ok(())
}

/// A dataset's traces, counted per class against their support: the one
/// structure the DTMC learners count traces with.
///
/// The support is every transition that some step of a trace of non-zero
/// weight takes, stored as compressed rows: rows by source state, targets
/// ascending, one *slot* per transition. Each class `g` has one count
/// `c_g` per slot: every trace of `g` of non-zero weight adds its weight
/// to the slot of each of its steps, trace by trace in dataset order.
/// Learning at class weights `w` [fills](Self::fill) each slot with
/// `Σ_g w_g·c_g`, classes in ascending order, and divides every positive
/// count by its row's total, the sum of the row's counts in ascending
/// target order. A state with no positive count gets a self-loop.
///
/// Data repair builds the table once per repair and re-learns from it at
/// every candidate, at classes × support multiply-adds. [`refill`](Self::refill)
/// writes the learned transitions without building a chain.
#[derive(Debug)]
pub struct TraceCounts {
    /// Per state, the first slot of its row; one more entry closes the
    /// last row.
    row_starts: Vec<usize>,
    /// The successor of every slot, row by row in ascending order.
    targets: Vec<usize>,
    /// Class by class, the count `c_g` of every slot.
    class_counts: Vec<f64>,
    num_classes: usize,
}

impl TraceCounts {
    /// Counts the steps of `dataset`'s traces for a chain of `num_states`
    /// states. A trace of weight 0 counts at no class weight and is left
    /// out.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTrace`] if a trace of non-zero weight takes a
    /// step from or to a state `≥ num_states`.
    pub fn new(dataset: &TraceDataset, num_states: usize) -> Result<Self, ModelError> {
        let mut steps = Vec::new();
        for (i, tr) in dataset.traces.iter().enumerate().filter(|(_, tr)| tr.weight != 0.0) {
            for win in tr.path.states.windows(2) {
                check_step(win[0], win[1], num_states)?;
                steps.push((win[0], win[1], i));
            }
        }
        // By transition, then trace by trace in dataset order: one run of
        // steps per slot.
        steps.sort_unstable();
        let slots: Vec<_> = steps.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).collect();
        let mut class_counts = vec![0.0; dataset.num_classes() * slots.len()];
        for (slot, run) in slots.iter().enumerate() {
            for &(_, _, i) in *run {
                let tr = &dataset.traces[i];
                class_counts[tr.class * slots.len() + slot] += tr.weight;
            }
        }
        Ok(TraceCounts {
            row_starts: (0..=num_states).map(|s| slots.partition_point(|r| r[0].0 < s)).collect(),
            targets: slots.iter().map(|r| r[0].1).collect(),
            class_counts,
            num_classes: dataset.num_classes(),
        })
    }

    /// Number of states of the learned chain.
    pub fn num_states(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// Number of trace classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The slots of `state`'s row, as a range into the counts
    /// [`fill`](Self::fill) writes, and their successors in ascending
    /// order.
    pub fn row(&self, state: usize) -> (Range<usize>, &[usize]) {
        let slots = self.row_starts[state]..self.row_starts[state + 1];
        (slots.clone(), &self.targets[slots])
    }

    /// The counts `c_g` of class `class`, one per slot.
    pub fn class_counts(&self, class: usize) -> &[f64] {
        let slots = self.targets.len();
        &self.class_counts[class * slots..(class + 1) * slots]
    }

    /// Writes the count of every slot at `class_weights` (`None` weighs
    /// every class 1) into `counts`: `Σ_g w_g·c_g`, classes in ascending
    /// order, a class at weight 0 skipped. Allocates nothing once `counts`
    /// has grown.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidTrace`] unless `class_weights` holds one
    /// finite, non-negative weight per class.
    pub fn fill(
        &self,
        class_weights: Option<&[f64]>,
        counts: &mut Vec<f64>,
    ) -> Result<(), ModelError> {
        check_weights(class_weights, self.num_classes)?;
        counts.clear();
        counts.resize(self.targets.len(), 0.0);
        for class in 0..self.num_classes {
            let w = class_weights.map_or(1.0, |cw| cw[class]);
            // Skipping only saves work: a zero product adds an exact `+0.0`
            // to a non-negative count.
            if w != 0.0 {
                for (count, &c) in counts.iter_mut().zip(self.class_counts(class)) {
                    *count += w * c;
                }
            }
        }
        Ok(())
    }

    /// Row `state` of slot `counts`, ready to normalise: its total, summed
    /// in ascending successor order, and its `(successor, count)` slots in
    /// that order. Every learner and [`refill`](Self::refill) divide
    /// through this one routine: a state whose total is 0 gets a self-loop,
    /// and a zero count is dropped by the learners and refused by `refill`.
    fn learned_row<'a>(
        &'a self,
        counts: &'a [f64],
        state: usize,
    ) -> (f64, impl Iterator<Item = (usize, f64)> + 'a) {
        let (slots, targets) = self.row(state);
        let row = &counts[slots];
        // Counts are non-negative, so a zero count adds an exact `+0.0`.
        (row.iter().sum(), targets.iter().copied().zip(row.iter().copied()))
    }

    /// The maximum-likelihood chain at `class_weights` (see [`ml_dtmc`]).
    ///
    /// # Errors
    ///
    /// As [`fill`](Self::fill).
    pub fn dtmc(&self, class_weights: Option<&[f64]>) -> Result<DtmcBuilder, ModelError> {
        let mut counts = Vec::new();
        self.fill(class_weights, &mut counts)?;
        let mut b = DtmcBuilder::new(self.num_states());
        for s in 0..self.num_states() {
            let (total, row) = self.learned_row(&counts, s);
            if total == 0.0 {
                b.transition(s, s, 1.0)?;
            }
            for (t, c) in row.filter(|&(_, c)| c > 0.0) {
                b.transition(s, t, c / total)?;
            }
        }
        Ok(b)
    }

    /// The Wilson interval chain at `class_weights` and `confidence` (see
    /// [`interval_dtmc_from_traces`]).
    ///
    /// # Errors
    ///
    /// As [`fill`](Self::fill), and [`ModelError::InvalidProbability`] if
    /// `confidence` is not in `(0, 1)`.
    pub fn interval_dtmc(
        &self,
        class_weights: Option<&[f64]>,
        confidence: f64,
    ) -> Result<IntervalDtmcBuilder, ModelError> {
        let alpha = wilson_alpha(confidence)?;
        let mut counts = Vec::new();
        self.fill(class_weights, &mut counts)?;
        let mut b = IntervalDtmcBuilder::new(self.num_states());
        for s in 0..self.num_states() {
            let (total, row) = self.learned_row(&counts, s);
            if total == 0.0 {
                b.transition(s, s, 1.0, 1.0)?;
            }
            for (t, c) in row.filter(|&(_, c)| c > 0.0) {
                let ci = tml_numerics::stats::wilson_interval_weighted(c, total, alpha);
                // Wilson contains the point estimate c/total, so Σ lo ≤ 1 ≤
                // Σ hi holds row-wise and the polytope is never empty.
                b.transition(s, t, ci.low, ci.high)?;
            }
        }
        Ok(b)
    }

    /// Writes the `(successor, probability)` transitions of the chain
    /// learned at `class_weights` into `out`, state by state as
    /// [`Dtmc::successors`](crate::Dtmc::successors) lists them, using
    /// `counts` for the slot counts: bitwise those of [`dtmc`](Self::dtmc).
    /// Allocates nothing once the buffers have grown.
    ///
    /// Returns `false`, leaving `out` unspecified, when the learned chain
    /// would not have the table's support or could not be built: a class
    /// weight is non-finite or negative (or there are not as many as
    /// classes), a slot's count is 0, a probability is not in `(0, 1]`, or
    /// a row does not sum to 1 within
    /// [`STOCHASTIC_TOLERANCE`](crate::STOCHASTIC_TOLERANCE).
    pub fn refill(
        &self,
        class_weights: &[f64],
        counts: &mut Vec<f64>,
        out: &mut Vec<(usize, f64)>,
    ) -> bool {
        // The learners drop a zero slot; here it would move the support.
        if self.fill(Some(class_weights), counts).is_err() || counts.contains(&0.0) {
            return false;
        }
        out.clear();
        for s in 0..self.num_states() {
            let (total, row) = self.learned_row(counts, s);
            if total == 0.0 {
                // Every slot is positive here, so the row has none.
                out.push((s, 1.0));
                continue;
            }
            let first = out.len();
            for (t, c) in row {
                let p = c / total;
                if !(p > 0.0 && p <= 1.0) {
                    return false;
                }
                out.push((t, p));
            }
            let sum: f64 = out[first..].iter().map(|&(_, p)| p).sum();
            if (sum - 1.0).abs() > crate::STOCHASTIC_TOLERANCE {
                return false;
            }
        }
        true
    }
}

/// Maximum-likelihood DTMC estimation from a trace dataset: each observed
/// transition's probability is its weighted count over its row's total,
/// and a state no trace leaves gets a self-loop.
///
/// Returns a [`DtmcBuilder`] (rather than a built chain) so the caller can
/// attach labels and rewards before building.
///
/// # Errors
///
/// [`ModelError::InvalidTrace`] if `class_weights` does not hold one
/// finite, non-negative weight per class, or a trace of non-zero weight
/// names a state `≥ num_states` (whatever its class weight).
///
/// # Example
///
/// ```
/// use tml_models::{learn, TraceDataset, Path};
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut ds = TraceDataset::new();
/// let c = ds.add_class("obs");
/// ds.push(c, Path::from_states(vec![0, 1, 1]), 1.0)?;
/// ds.push(c, Path::from_states(vec![0, 0, 1]), 1.0)?;
/// let chain = learn::ml_dtmc(2, &ds, None)?.build()?;
/// assert!((chain.probability(0, 1) - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn ml_dtmc(
    num_states: usize,
    dataset: &TraceDataset,
    class_weights: Option<&[f64]>,
) -> Result<DtmcBuilder, ModelError> {
    // Checked before the table is built, so a bad weight is reported
    // before a trace out of range.
    check_weights(class_weights, dataset.num_classes())?;
    TraceCounts::new(dataset, num_states)?.dtmc(class_weights)
}

/// `1 − confidence`, when `confidence` is in `(0, 1)`.
fn wilson_alpha(confidence: f64) -> Result<f64, ModelError> {
    if !(confidence > 0.0 && confidence < 1.0 && confidence.is_finite()) {
        return Err(ModelError::InvalidProbability {
            value: confidence,
            context: "confidence level must be in (0, 1)".into(),
        });
    }
    Ok(1.0 - confidence)
}

/// Learns an **interval DTMC** from a trace dataset: the point estimate of
/// each transition is replaced by its per-row Wilson score interval at the
/// given `confidence` (e.g. `0.95`), so the resulting uncertainty set is
/// calibrated to how much data actually backs each row. More observations
/// shrink the intervals toward the maximum-likelihood chain; the
/// maximum-likelihood estimate is always a member of the set.
///
/// Returns an [`IntervalDtmcBuilder`] so the caller can attach labels and
/// rewards before building. Unvisited states get the exact self-loop
/// `[1, 1]`.
///
/// # Errors
///
/// * [`ModelError::InvalidProbability`] if `confidence` is not in `(0, 1)`.
/// * [`ml_dtmc`]'s errors.
///
/// # Example
///
/// ```
/// use tml_models::{learn, TraceDataset, Path};
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut ds = TraceDataset::new();
/// let c = ds.add_class("obs");
/// ds.push(c, Path::from_states(vec![0, 1, 1]), 8.0)?;
/// ds.push(c, Path::from_states(vec![0, 0, 1]), 2.0)?;
/// let m = learn::interval_dtmc_from_traces(2, &ds, None, 0.95)?.build()?;
/// let (lo, hi) = m.bounds(0, 1);
/// // The ML estimate 0.8 sits inside its Wilson interval.
/// assert!(lo < 0.8 && 0.8 < hi);
/// # Ok(())
/// # }
/// ```
pub fn interval_dtmc_from_traces(
    num_states: usize,
    dataset: &TraceDataset,
    class_weights: Option<&[f64]>,
    confidence: f64,
) -> Result<IntervalDtmcBuilder, ModelError> {
    // As in `ml_dtmc`, input errors come before a trace out of range.
    wilson_alpha(confidence)?;
    check_weights(class_weights, dataset.num_classes())?;
    TraceCounts::new(dataset, num_states)?.interval_dtmc(class_weights, confidence)
}

/// Maximum-likelihood MDP estimation from an action-annotated trace dataset.
///
/// `action_names` fixes the action table (traces refer to actions by index
/// into it). States with no observations for any action get a single
/// self-loop choice named after `action_names[0]`.
///
/// # Errors
///
/// Propagates [`TraceDataset::action_counts`] errors.
pub fn ml_mdp(
    num_states: usize,
    action_names: &[String],
    dataset: &TraceDataset,
    class_weights: Option<&[f64]>,
) -> Result<MdpBuilder, ModelError> {
    let counts = dataset.action_counts(num_states, action_names.len(), class_weights)?;
    let mut b = MdpBuilder::new(num_states);
    for (s, per_action) in counts.iter().enumerate() {
        let mut any = false;
        for (a, row) in per_action.iter().enumerate() {
            let total: f64 = row.iter().filter(|&&c| c > 0.0).sum();
            if total == 0.0 {
                continue;
            }
            let dist: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0.0)
                .map(|(t, &c)| (t, c / total))
                .collect();
            b.choice(s, &action_names[a], &dist)?;
            any = true;
        }
        if !any {
            b.choice(s, &action_names[0], &[(s, 1.0)])?;
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> TraceDataset {
        let mut ds = TraceDataset::new();
        let good = ds.add_class("good");
        let bad = ds.add_class("bad");
        ds.push(good, Path::from_states(vec![0, 1]), 2.0).unwrap();
        ds.push(bad, Path::from_states(vec![0, 0]), 1.0).unwrap();
        ds
    }

    #[test]
    fn class_registration_is_idempotent() {
        let mut ds = TraceDataset::new();
        assert_eq!(ds.add_class("x"), 0);
        assert_eq!(ds.add_class("y"), 1);
        assert_eq!(ds.add_class("x"), 0);
        assert_eq!(ds.num_classes(), 2);
    }

    #[test]
    fn push_validation() {
        let mut ds = TraceDataset::new();
        assert!(ds.push(0, Path::from_states(vec![0]), 1.0).is_err());
        let c = ds.add_class("c");
        assert!(ds.push(c, Path::from_states(vec![0]), -1.0).is_err());
        assert!(ds.push(c, Path::from_states(vec![0]), f64::NAN).is_err());
        assert!(ds.push(c, Path::from_states(vec![0]), 1.0).is_ok());
    }

    #[test]
    fn ml_dtmc_unweighted() {
        let ds = dataset();
        let chain = ml_dtmc(2, &ds, None).unwrap().build().unwrap();
        assert!((chain.probability(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((chain.probability(0, 0) - 1.0 / 3.0).abs() < 1e-12);
        // state 1 unvisited → self loop
        assert_eq!(chain.probability(1, 1), 1.0);
    }

    #[test]
    fn ml_dtmc_class_weights_reweight() {
        let ds = dataset();
        // dropping the "bad" class entirely makes 0 -> 1 certain
        let chain = ml_dtmc(2, &ds, Some(&[1.0, 0.0])).unwrap().build().unwrap();
        assert_eq!(chain.probability(0, 1), 1.0);
    }

    #[test]
    fn ml_dtmc_rejects_out_of_range_state() {
        let ds = dataset();
        assert!(ml_dtmc(1, &ds, None).is_err());
    }

    #[test]
    fn ml_dtmc_rejects_out_of_range_state_at_a_zero_class_weight() {
        let mut ds = dataset();
        ds.push(1, Path::from_states(vec![0, 2]), 1.0).unwrap();
        let err = ml_dtmc(2, &ds, Some(&[1.0, 0.0])).unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidTrace { ref detail } if detail.contains("state 2"))
        );
        // A trace of weight 0 counts at no class weight and is not checked.
        let mut ds = dataset();
        ds.push(1, Path::from_states(vec![0, 2]), 0.0).unwrap();
        assert!(ml_dtmc(2, &ds, Some(&[1.0, 0.0])).is_ok());
    }

    #[test]
    fn weight_vector_validation() {
        let ds = dataset();
        assert!(ml_dtmc(2, &ds, Some(&[1.0])).is_err());
        assert!(ml_dtmc(2, &ds, Some(&[1.0, -0.5])).is_err());
        // Weight errors come before range errors.
        let err = ml_dtmc(1, &ds, Some(&[1.0])).unwrap_err();
        assert!(
            matches!(err, ModelError::InvalidTrace { ref detail } if detail.contains("class weights"))
        );
    }

    #[test]
    fn a_large_state_space_learns_from_its_few_traces_only() {
        let n = 100_000;
        let mut ds = TraceDataset::new();
        let c = ds.add_class("obs");
        ds.push(c, Path::from_states(vec![0, 1, 99_999]), 3.0).unwrap();
        ds.push(c, Path::from_states(vec![0, 50_000, 0]), 1.0).unwrap();
        ds.push(c, Path::from_states(vec![7]), 2.0).unwrap();
        let start = std::time::Instant::now();
        let chain = ml_dtmc(n, &ds, None).unwrap().build().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "learning took {elapsed:?}");
        assert_eq!(chain.num_transitions(), n + 1);
        assert_eq!(chain.probability(0, 1), 0.75);
        assert_eq!(chain.probability(0, 50_000), 0.25);
        for s in [1, 50_000] {
            assert_eq!(chain.successors(s).count(), 1);
        }
        for s in [2, 7, 49_999, 99_999] {
            assert_eq!(chain.successors(s).collect::<Vec<_>>(), [(s, 1.0)]);
        }
    }

    #[test]
    fn ml_mdp_learns_per_action() {
        let mut ds = TraceDataset::new();
        let c = ds.add_class("obs");
        ds.push(c, Path::with_actions(vec![0, 1], vec![0]).unwrap(), 3.0).unwrap();
        ds.push(c, Path::with_actions(vec![0, 0], vec![0]).unwrap(), 1.0).unwrap();
        ds.push(c, Path::with_actions(vec![0, 0], vec![1]).unwrap(), 1.0).unwrap();
        let names = vec!["go".to_owned(), "stay".to_owned()];
        let mdp = ml_mdp(2, &names, &ds, None).unwrap().build().unwrap();
        assert_eq!(mdp.num_choices(0), 2);
        let go = mdp.choice_for_action(0, 0).unwrap();
        let dist = &mdp.choices(0)[go].transitions;
        assert!((dist.iter().find(|&&(t, _)| t == 1).unwrap().1 - 0.75).abs() < 1e-12);
        // state 1 unvisited → self loop with first action name
        assert_eq!(mdp.num_choices(1), 1);
    }

    #[test]
    fn ml_mdp_requires_actions() {
        let mut ds = TraceDataset::new();
        let c = ds.add_class("obs");
        ds.push(c, Path::from_states(vec![0, 1]), 1.0).unwrap();
        let names = vec!["a".to_owned()];
        assert!(ml_mdp(2, &names, &ds, None).is_err());
    }

    #[test]
    fn interval_learning_brackets_the_ml_estimate() {
        let ds = dataset();
        let ml = ml_dtmc(2, &ds, None).unwrap().build().unwrap();
        let m = interval_dtmc_from_traces(2, &ds, None, 0.9).unwrap().build().unwrap();
        for s in 0..2 {
            for (t, p) in ml.successors(s) {
                let (lo, hi) = m.bounds(s, t);
                assert!(lo <= p && p <= hi, "ML estimate {p} outside [{lo}, {hi}]");
            }
        }
        assert!(m.contains(&ml));
        // Unvisited state 1 gets the exact self-loop.
        assert_eq!(m.bounds(1, 1), (1.0, 1.0));
        // More data at the same confidence tightens the set.
        let mut big = TraceDataset::new();
        let c = big.add_class("good");
        big.add_class("bad");
        big.push(c, Path::from_states(vec![0, 1]), 200.0).unwrap();
        big.push(c, Path::from_states(vec![0, 0]), 100.0).unwrap();
        let tight = interval_dtmc_from_traces(2, &big, None, 0.9).unwrap().build().unwrap();
        let (lo, hi) = m.bounds(0, 1);
        let (tlo, thi) = tight.bounds(0, 1);
        assert!(thi - tlo < hi - lo);
        // Class weights flow through to the interval construction.
        let sure =
            interval_dtmc_from_traces(2, &ds, Some(&[1.0, 0.0]), 0.9).unwrap().build().unwrap();
        assert!(sure.bounds(0, 1).1 > 0.9);
        // Bad confidence levels are rejected.
        assert!(interval_dtmc_from_traces(2, &ds, None, 1.5).is_err());
        assert!(interval_dtmc_from_traces(2, &ds, None, 0.0).is_err());
    }

    #[test]
    fn totals() {
        let ds = dataset();
        assert_eq!(ds.num_traces(), 2);
        assert_eq!(ds.total_weight(), 3.0);
        assert_eq!(ds.iter().count(), 2);
    }

    fn table_dataset() -> TraceDataset {
        let mut ds = TraceDataset::new();
        let (a, b, c) = (ds.add_class("a"), ds.add_class("b"), ds.add_class("c"));
        ds.push(a, Path::from_states(vec![0, 1, 0, 1, 2]), 1.5).unwrap();
        ds.push(b, Path::from_states(vec![0, 0, 0, 3]), 0.7).unwrap();
        ds.push(c, Path::from_states(vec![1, 2, 2, 1]), 2.0).unwrap();
        ds.push(a, Path::from_states(vec![3, 4]), 0.0).unwrap();
        ds.push(c, Path::from_states(vec![2, 0]), 0.3).unwrap();
        ds
    }

    #[test]
    fn count_tape_refills_the_relearned_chain_bitwise() {
        let ds = table_dataset();
        let table = TraceCounts::new(&ds, 5).unwrap();
        let (mut counts, mut out) = (Vec::new(), Vec::new());
        for w in [
            [1.0, 1.0, 1.0],
            [0.3, 1e-3, 0.9],
            [1e-3, 1e-3, 1e-3],
            [0.1, 0.7, 1.0 / 3.0],
            [7.0, 0.2, 1e-9],
        ] {
            assert!(table.refill(&w, &mut counts, &mut out), "{w:?}");
            let chain = ml_dtmc(5, &ds, Some(&w)).unwrap().build().unwrap();
            let expected: Vec<(usize, u64)> =
                (0..5).flat_map(|s| chain.successors(s)).map(|(t, p)| (t, p.to_bits())).collect();
            let refilled: Vec<(usize, u64)> = out.iter().map(|&(t, p)| (t, p.to_bits())).collect();
            assert_eq!(refilled, expected, "{w:?}");
        }
        // Unvisited states (3, left only by a zero-weight trace, and 4)
        // keep the self-loop.
        assert_eq!(&out[out.len() - 2..], &[(3, 1.0), (4, 1.0)]);
    }

    #[test]
    fn count_tape_refuses_weights_that_change_or_break_the_chain() {
        let ds = table_dataset();
        let table = TraceCounts::new(&ds, 5).unwrap();
        let (mut counts, mut out) = (Vec::new(), Vec::new());
        // Dropping class b removes 0 → 0 and 0 → 3 from the support.
        assert!(!table.refill(&[1.0, 0.0, 1.0], &mut counts, &mut out));
        for bad in [[1.0, -0.5, 1.0], [1.0, f64::NAN, 1.0], [f64::INFINITY, 1.0, 1.0]] {
            assert!(!table.refill(&bad, &mut counts, &mut out), "{bad:?}");
        }
        assert!(!table.refill(&[1.0, 1.0], &mut counts, &mut out), "one weight per class");
        // A trace step outside the chain's states is refused by the table.
        let mut other = ds.clone();
        let a = other.add_class("a");
        other.push(a, Path::from_states(vec![4, 5]), 1.0).unwrap();
        assert!(TraceCounts::new(&other, 5).is_err());
    }

    #[test]
    fn a_fill_sums_the_class_counts_in_class_order() {
        // Classes a, b, a on one transition: trace order would sum
        // (0.2 + 0.1) + 0.3, the table sums (0.2 + 0.3) + 0.1.
        let mut ds = TraceDataset::new();
        let (a, b) = (ds.add_class("a"), ds.add_class("b"));
        for (class, w) in [(a, 0.2), (b, 0.1), (a, 0.3)] {
            ds.push(class, Path::from_states(vec![0, 1]), w).unwrap();
        }
        let table = TraceCounts::new(&ds, 2).unwrap();
        let mut counts = Vec::new();
        table.fill(None, &mut counts).unwrap();
        assert_eq!(counts, [(0.2 + 0.3) + 0.1]);
        assert_ne!(counts[0], (0.2 + 0.1) + 0.3);
        table.fill(Some(&[0.5, 0.7]), &mut counts).unwrap();
        assert_eq!(counts, [0.5 * (0.2 + 0.3) + 0.7 * 0.1]);
    }

    #[test]
    fn a_unit_fill_and_the_class_counts_are_fills_of_the_table() {
        let ds = table_dataset();
        let table = TraceCounts::new(&ds, 5).unwrap();
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let (mut none, mut ones) = (Vec::new(), Vec::new());
        table.fill(None, &mut none).unwrap();
        table.fill(Some(&[1.0; 3]), &mut ones).unwrap();
        assert_eq!(bits(&none), bits(&ones));
        for class in 0..3 {
            let mut indicator = [0.0; 3];
            indicator[class] = 1.0;
            let mut counts = Vec::new();
            table.fill(Some(&indicator), &mut counts).unwrap();
            assert_eq!(bits(table.class_counts(class)), bits(&counts), "class {class}");
        }
    }

    #[test]
    fn a_warm_refill_keeps_its_buffers() {
        let table = TraceCounts::new(&table_dataset(), 5).unwrap();
        let (mut counts, mut out) = (Vec::new(), Vec::new());
        assert!(table.refill(&[1.0, 1.0, 1.0], &mut counts, &mut out));
        let grown = (counts.capacity(), out.capacity());
        assert!(table.refill(&[0.3, 1e-3, 0.9], &mut counts, &mut out));
        assert_eq!((counts.capacity(), out.capacity()), grown);
    }
}

/// The table-backed learners against dense per-class counting.
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;

    /// The dense `c[s][t]` counts: each class's counts, every trace of
    /// non-zero weight added in dataset order, then `Σ_g w_g·c_g[s][t]`
    /// in class order, a zero product skipped.
    fn reference_counts(
        dataset: &TraceDataset,
        num_states: usize,
        class_weights: Option<&[f64]>,
    ) -> Result<Vec<Vec<f64>>, ModelError> {
        check_weights(class_weights, dataset.num_classes())?;
        let dense = vec![vec![0.0; num_states]; num_states];
        let mut per_class = vec![dense.clone(); dataset.num_classes()];
        for tr in dataset.iter().filter(|tr| tr.weight != 0.0) {
            for win in tr.path.states.windows(2) {
                let (s, t) = (win[0], win[1]);
                if s >= num_states || t >= num_states {
                    return Err(ModelError::InvalidTrace {
                        detail: format!(
                            "trace mentions state {} but model has {num_states}",
                            s.max(t)
                        ),
                    });
                }
                per_class[tr.class][s][t] += tr.weight;
            }
        }
        let mut counts = dense;
        for (class, class_counts) in per_class.iter().enumerate() {
            let w = class_weights.map_or(1.0, |cw| cw[class]);
            for (s, t) in (0..num_states).flat_map(|s| (0..num_states).map(move |t| (s, t))) {
                let c = w * class_counts[s][t];
                if c != 0.0 {
                    counts[s][t] += c;
                }
            }
        }
        Ok(counts)
    }

    /// The dense maximum-likelihood learner, without smoothing and with
    /// self-loops on unvisited states.
    fn reference_ml_dtmc(
        num_states: usize,
        dataset: &TraceDataset,
        class_weights: Option<&[f64]>,
    ) -> Result<DtmcBuilder, ModelError> {
        let counts = reference_counts(dataset, num_states, class_weights)?;
        let mut b = DtmcBuilder::new(num_states);
        for (s, row) in counts.iter().enumerate() {
            let smoothed: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0.0)
                .map(|(t, &c)| (t, c + 0.0))
                .collect();
            let total: f64 = smoothed.iter().map(|&(_, c)| c).sum();
            if total == 0.0 {
                b.transition(s, s, 1.0)?;
                continue;
            }
            for (t, c) in smoothed {
                b.transition(s, t, c / total)?;
            }
        }
        Ok(b)
    }

    /// The dense Wilson interval learner, likewise.
    fn reference_interval_dtmc(
        num_states: usize,
        dataset: &TraceDataset,
        class_weights: Option<&[f64]>,
        confidence: f64,
    ) -> Result<IntervalDtmcBuilder, ModelError> {
        let alpha = 1.0 - confidence;
        let counts = reference_counts(dataset, num_states, class_weights)?;
        let mut b = IntervalDtmcBuilder::new(num_states);
        for (s, row) in counts.iter().enumerate() {
            let smoothed: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0.0)
                .map(|(t, &c)| (t, c + 0.0))
                .collect();
            let total: f64 = smoothed.iter().map(|&(_, c)| c).sum();
            if total == 0.0 {
                b.transition(s, s, 1.0, 1.0)?;
                continue;
            }
            for (t, c) in smoothed {
                let ci = tml_numerics::stats::wilson_interval_weighted(c, total, alpha);
                b.transition(s, t, ci.low, ci.high)?;
            }
        }
        Ok(b)
    }

    /// A built chain's transitions with their bits, or its error.
    fn dtmc_bits(b: Result<DtmcBuilder, ModelError>) -> Result<Vec<(usize, usize, u64)>, String> {
        let chain = b.and_then(|b| b.build()).map_err(|e| format!("{e:?}"))?;
        let rows = (0..chain.num_states()).map(|s| (s, chain.successors(s).collect::<Vec<_>>()));
        Ok(rows
            .flat_map(|(s, row)| row.into_iter().map(move |(t, p)| (s, t, p.to_bits())))
            .collect())
    }

    /// A built interval chain's transitions with their bits, or its error.
    fn interval_bits(
        b: Result<IntervalDtmcBuilder, ModelError>,
    ) -> Result<Vec<(usize, usize, u64, u64)>, String> {
        let m = b.and_then(|b| b.build()).map_err(|e| format!("{e:?}"))?;
        let rows = (0..m.num_states()).map(|s| (s, m.successors(s).collect::<Vec<_>>()));
        Ok(rows
            .flat_map(|(s, row)| {
                row.into_iter().map(move |(t, lo, hi)| (s, t, lo.to_bits(), hi.to_bits()))
            })
            .collect())
    }

    /// Trace weights; `1e-300` times a class weight of `1e-20` is
    /// subnormal and times `1e-310` underflows to 0.
    const TRACE_WEIGHTS: [f64; 6] = [0.0, 1.0, 2.5, 0.7, 1e-300, 3.0];
    const CLASS_WEIGHTS: [f64; 5] = [0.0, 1.0, 1e-3, 1e-20, 1e-310];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `ml_dtmc`, `interval_dtmc_from_traces` and `refill` give bitwise
        /// what the dense counts give, over 1–4 classes, zero-weight and
        /// one-state traces, repeated steps and unvisited states; `refill`
        /// refuses exactly the weights at which the support moves or the
        /// chain cannot be built, and every invalid weight vector.
        #[test]
        fn table_learners_match_the_dense_reference_bitwise(
            num_classes in 1_usize..=4,
            num_states in 1_usize..=6,
            traces in proptest::collection::vec(
                (0_usize..4, 0_usize..6, proptest::collection::vec(0_usize..6, 1..7)),
                0..11,
            ),
            picks in proptest::collection::vec(0_usize..5, 4),
        ) {
            let mut ds = TraceDataset::new();
            for c in 0..num_classes {
                ds.add_class(&format!("c{c}"));
            }
            for (class, weight, states) in traces {
                let path = Path::from_states(states.iter().map(|s| s % num_states).collect());
                ds.push(class % num_classes, path, TRACE_WEIGHTS[weight]).unwrap();
            }
            let w: Vec<f64> = picks[..num_classes].iter().map(|&i| CLASS_WEIGHTS[i]).collect();
            let table = TraceCounts::new(&ds, num_states).unwrap();
            for cw in [None, Some(&w[..])] {
                prop_assert_eq!(
                    dtmc_bits(ml_dtmc(num_states, &ds, cw)),
                    dtmc_bits(reference_ml_dtmc(num_states, &ds, cw))
                );
                prop_assert_eq!(
                    interval_bits(interval_dtmc_from_traces(num_states, &ds, cw, 0.9)),
                    interval_bits(reference_interval_dtmc(num_states, &ds, cw, 0.9))
                );
            }
            // `refill` answers exactly when every counted transition keeps
            // a positive count and the learned chain builds with the
            // table's support: those transitions, and a self-loop where no
            // trace of non-zero weight leaves.
            let support = reference_counts(&ds, num_states, None).unwrap();
            let at_w = reference_counts(&ds, num_states, Some(&w)).unwrap();
            let zero_slot = (0..num_states)
                .any(|s| (0..num_states).any(|t| support[s][t] > 0.0 && at_w[s][t] == 0.0));
            let learned = dtmc_bits(reference_ml_dtmc(num_states, &ds, Some(&w))).ok();
            let expected = learned.filter(|_| !zero_slot).filter(|chain| {
                let learned: Vec<(usize, usize)> = chain.iter().map(|&(s, t, _)| (s, t)).collect();
                let counted = (0..num_states).flat_map(|s| {
                    let row: Vec<usize> = (0..num_states).filter(|&t| support[s][t] > 0.0).collect();
                    let row = if row.is_empty() { vec![s] } else { row };
                    row.into_iter().map(move |t| (s, t))
                });
                learned.into_iter().eq(counted)
            });
            let (mut counts, mut out) = (Vec::new(), Vec::new());
            let refilled = table.refill(&w, &mut counts, &mut out);
            prop_assert_eq!(refilled, expected.is_some());
            if let Some(chain) = expected {
                let refilled: Vec<(usize, u64)> = out.iter().map(|&(t, p)| (t, p.to_bits())).collect();
                let chain: Vec<(usize, u64)> = chain.iter().map(|&(_, t, p)| (t, p)).collect();
                prop_assert_eq!(refilled, chain);
            }
            // Invalid weights are refused by every learner.
            let mut wrong_count = w.clone();
            wrong_count.push(1.0);
            for bad in [f64::NAN, -0.5, f64::INFINITY] {
                let mut invalid = w.clone();
                invalid[picks[0] % num_classes] = bad;
                for cw in [&invalid, &wrong_count] {
                    prop_assert!(!table.refill(cw, &mut counts, &mut out));
                    prop_assert!(ml_dtmc(num_states, &ds, Some(cw)).is_err());
                    prop_assert!(interval_dtmc_from_traces(num_states, &ds, Some(cw), 0.9).is_err());
                }
            }
        }
    }
}
