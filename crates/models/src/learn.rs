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

    /// Weighted transition counts `c[s][t]`, scaling each trace by the
    /// keep-weight of its class (`None` means weight 1 for every class).
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidTrace`] if a trace mentions a state `≥
    ///   num_states` or `class_weights` has the wrong length.
    pub fn transition_counts(
        &self,
        num_states: usize,
        class_weights: Option<&[f64]>,
    ) -> Result<Vec<Vec<f64>>, ModelError> {
        self.check_weights(class_weights)?;
        let mut counts = vec![vec![0.0; num_states]; num_states];
        for tr in &self.traces {
            let w = tr.weight * class_weights.map_or(1.0, |cw| cw[tr.class]);
            if w == 0.0 {
                continue;
            }
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
                counts[s][t] += w;
            }
        }
        Ok(counts)
    }

    /// Weighted `(state, action, successor)` counts for MDP learning.
    ///
    /// # Errors
    ///
    /// Same conditions as [`transition_counts`](Self::transition_counts),
    /// plus traces must carry actions for every transition.
    #[allow(clippy::type_complexity)]
    pub fn action_counts(
        &self,
        num_states: usize,
        num_actions: usize,
        class_weights: Option<&[f64]>,
    ) -> Result<Vec<Vec<Vec<f64>>>, ModelError> {
        self.check_weights(class_weights)?;
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
                if s >= num_states || t >= num_states {
                    return Err(ModelError::InvalidTrace {
                        detail: format!(
                            "trace mentions state {} but model has {num_states}",
                            s.max(t)
                        ),
                    });
                }
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

    fn check_weights(&self, class_weights: Option<&[f64]>) -> Result<(), ModelError> {
        if let Some(cw) = class_weights {
            if cw.len() != self.class_names.len() {
                return Err(ModelError::InvalidTrace {
                    detail: format!(
                        "{} class weights for {} classes",
                        cw.len(),
                        self.class_names.len()
                    ),
                });
            }
            if let Some(&w) = cw.iter().find(|w| !w.is_finite() || **w < 0.0) {
                return Err(ModelError::InvalidTrace {
                    detail: format!("invalid class weight {w}"),
                });
            }
        }
        Ok(())
    }
}

/// Options for maximum-likelihood estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlOptions {
    /// Additive (Dirichlet/Laplace) smoothing added to every *observed*
    /// transition's count. Zero means pure maximum likelihood.
    pub smoothing: f64,
    /// What to do with states that have no outgoing observations: give them
    /// a self-loop (`true`) or fail (`false`).
    pub self_loop_unvisited: bool,
}

impl Default for MlOptions {
    fn default() -> Self {
        MlOptions { smoothing: 0.0, self_loop_unvisited: true }
    }
}

/// Maximum-likelihood DTMC estimation from a trace dataset.
///
/// Returns a [`DtmcBuilder`] (rather than a built chain) so the caller can
/// attach labels and rewards before building.
///
/// # Errors
///
/// * Propagates [`TraceDataset::transition_counts`] errors.
/// * [`ModelError::MissingDistribution`] if a state was never left and
///   `opts.self_loop_unvisited` is false.
///
/// # Example
///
/// ```
/// use tml_models::{learn, MlOptions, TraceDataset, Path};
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut ds = TraceDataset::new();
/// let c = ds.add_class("obs");
/// ds.push(c, Path::from_states(vec![0, 1, 1]), 1.0)?;
/// ds.push(c, Path::from_states(vec![0, 0, 1]), 1.0)?;
/// let chain = learn::ml_dtmc(2, &ds, None, MlOptions::default())?.build()?;
/// assert!((chain.probability(0, 1) - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn ml_dtmc(
    num_states: usize,
    dataset: &TraceDataset,
    class_weights: Option<&[f64]>,
    opts: MlOptions,
) -> Result<DtmcBuilder, ModelError> {
    let counts = dataset.transition_counts(num_states, class_weights)?;
    let mut b = DtmcBuilder::new(num_states);
    for (s, row) in counts.iter().enumerate() {
        let smoothed: Vec<(usize, f64)> = row
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(t, &c)| (t, c + opts.smoothing))
            .collect();
        let total: f64 = smoothed.iter().map(|&(_, c)| c).sum();
        if total == 0.0 {
            if opts.self_loop_unvisited {
                b.transition(s, s, 1.0)?;
                continue;
            }
            return Err(ModelError::MissingDistribution { state: s });
        }
        for (t, c) in smoothed {
            b.transition(s, t, c / total)?;
        }
    }
    Ok(b)
}

/// The chain [`ml_dtmc`] learns under default [`MlOptions`], compiled
/// against a fixed support so that re-learning it at new class weights is
/// one pass over the trace steps.
///
/// Data repair re-learns the chain at every candidate keep-weight vector,
/// but as long as every observed transition keeps a positive count, the
/// support of the learned chain is that of the base chain. The tape lists
/// the slot of every trace step in that support, trace by trace in dataset
/// order, with each trace's weight and class. [`refill`](Self::refill)
/// adds the weighted counts slot by slot in that order and normalizes each
/// row in ascending target order, so every probability is bitwise the one
/// [`ml_dtmc`] computes. Rows of states no trace leaves keep their
/// constant self-loop.
#[derive(Debug, Clone)]
pub struct TraceCountTape {
    /// Per state, the first slot of its row; one more entry closes the
    /// last row.
    row_starts: Vec<usize>,
    /// The successor of every slot, row by row in ascending order.
    targets: Vec<usize>,
    /// Whether some trace step leaves the state.
    visited: Vec<bool>,
    /// The slot of every step of every trace of non-zero weight.
    steps: Vec<usize>,
    /// Per such trace: the end of its steps, its weight and its class.
    traces: Vec<(usize, f64, usize)>,
    num_classes: usize,
}

impl TraceCountTape {
    /// Compiles `dataset` against `base`, the chain [`ml_dtmc`] learns from
    /// it with no class weights under default options. `None` when a trace
    /// step is not a transition of `base`, or a state no trace leaves does
    /// not have the self-loop `ml_dtmc` gives it.
    pub fn compile(base: &crate::Dtmc, dataset: &TraceDataset) -> Option<Self> {
        let n = base.num_states();
        let mut row_starts = Vec::with_capacity(n + 1);
        row_starts.push(0);
        let mut targets = Vec::with_capacity(base.num_transitions());
        for s in 0..n {
            targets.extend(base.successors(s).map(|(t, _)| t));
            row_starts.push(targets.len());
        }
        let mut visited = vec![false; n];
        let (mut steps, mut traces) = (Vec::new(), Vec::new());
        for tr in dataset.iter() {
            // A zero-weight trace adds nothing at any finite class weight.
            if tr.weight == 0.0 {
                continue;
            }
            for win in tr.path.states.windows(2) {
                let (s, t) = (win[0], win[1]);
                if s >= n {
                    return None;
                }
                let row = &targets[row_starts[s]..row_starts[s + 1]];
                steps.push(row_starts[s] + row.binary_search(&t).ok()?);
                visited[s] = true;
            }
            traces.push((steps.len(), tr.weight, tr.class));
        }
        let self_loop = |s: usize| base.successors(s).eq([(s, 1.0)]);
        if (0..n).any(|s| !visited[s] && !self_loop(s)) {
            return None;
        }
        Some(TraceCountTape {
            row_starts,
            targets,
            visited,
            steps,
            traces,
            num_classes: dataset.num_classes(),
        })
    }

    /// Writes the `(successor, probability)` transitions of the chain
    /// learned at `class_weights` into `out`, state by state as
    /// [`Dtmc::successors`](crate::Dtmc::successors) lists them, using
    /// `counts` for the per-slot counts. Allocates nothing once the buffers
    /// have grown.
    ///
    /// Returns `false`, leaving `out` unspecified, when the learned chain
    /// would not have the base support or could not be built: a class
    /// weight is non-finite or negative (or there are not as many as
    /// classes), a slot's count is not positive, a probability is not in
    /// `(0, 1]`, or a row does not sum to 1 within
    /// [`STOCHASTIC_TOLERANCE`](crate::STOCHASTIC_TOLERANCE).
    pub fn refill(
        &self,
        class_weights: &[f64],
        counts: &mut Vec<f64>,
        out: &mut Vec<(usize, f64)>,
    ) -> bool {
        if class_weights.len() != self.num_classes
            || class_weights.iter().any(|w| !w.is_finite() || *w < 0.0)
        {
            return false;
        }
        counts.clear();
        counts.resize(self.targets.len(), 0.0);
        let mut start = 0;
        for &(end, weight, class) in &self.traces {
            // As `transition_counts` computes and skips it.
            let w = weight * class_weights[class];
            if w != 0.0 {
                for &slot in &self.steps[start..end] {
                    counts[slot] += w;
                }
            }
            start = end;
        }
        out.clear();
        for (s, &visited) in self.visited.iter().enumerate() {
            if !visited {
                out.push((s, 1.0));
                continue;
            }
            let slots = self.row_starts[s]..self.row_starts[s + 1];
            let row = &counts[slots.clone()];
            // Counts are sums of non-negative products, never `NaN`.
            if row.iter().any(|&c| c <= 0.0) {
                return false;
            }
            let total: f64 = row.iter().sum();
            let first = out.len();
            for (&t, &c) in self.targets[slots].iter().zip(row) {
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

/// Learns an **interval DTMC** from a trace dataset: the point estimate of
/// each transition is replaced by its per-row Wilson score interval at the
/// given `confidence` (e.g. `0.95`), so the resulting uncertainty set is
/// calibrated to how much data actually backs each row. More observations
/// shrink the intervals toward the maximum-likelihood chain; the
/// maximum-likelihood estimate is always a member of the set.
///
/// Returns an [`IntervalDtmcBuilder`] so the caller can attach labels and
/// rewards before building. Smoothing (if any) is applied to the counts
/// before the intervals are formed; unvisited states get the exact
/// self-loop `[1, 1]` when `opts.self_loop_unvisited` holds.
///
/// # Errors
///
/// * Propagates [`TraceDataset::transition_counts`] errors.
/// * [`ModelError::InvalidProbability`] if `confidence` is not in `(0, 1)`.
/// * [`ModelError::MissingDistribution`] if a state was never left and
///   `opts.self_loop_unvisited` is false.
///
/// # Example
///
/// ```
/// use tml_models::{learn, MlOptions, TraceDataset, Path};
///
/// # fn main() -> Result<(), tml_models::ModelError> {
/// let mut ds = TraceDataset::new();
/// let c = ds.add_class("obs");
/// ds.push(c, Path::from_states(vec![0, 1, 1]), 8.0)?;
/// ds.push(c, Path::from_states(vec![0, 0, 1]), 2.0)?;
/// let m = learn::interval_dtmc_from_traces(2, &ds, None, 0.95, MlOptions::default())?
///     .build()?;
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
    opts: MlOptions,
) -> Result<IntervalDtmcBuilder, ModelError> {
    if !(confidence > 0.0 && confidence < 1.0 && confidence.is_finite()) {
        return Err(ModelError::InvalidProbability {
            value: confidence,
            context: "confidence level must be in (0, 1)".into(),
        });
    }
    let alpha = 1.0 - confidence;
    let counts = dataset.transition_counts(num_states, class_weights)?;
    let mut b = IntervalDtmcBuilder::new(num_states);
    for (s, row) in counts.iter().enumerate() {
        let smoothed: Vec<(usize, f64)> = row
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(t, &c)| (t, c + opts.smoothing))
            .collect();
        let total: f64 = smoothed.iter().map(|&(_, c)| c).sum();
        if total == 0.0 {
            if opts.self_loop_unvisited {
                b.transition(s, s, 1.0, 1.0)?;
                continue;
            }
            return Err(ModelError::MissingDistribution { state: s });
        }
        for (t, c) in smoothed {
            let ci = tml_numerics::stats::wilson_interval_weighted(c, total, alpha);
            // Wilson contains the point estimate c/total, so Σ lo ≤ 1 ≤ Σ hi
            // holds row-wise and the polytope is never empty.
            b.transition(s, t, ci.low, ci.high)?;
        }
    }
    Ok(b)
}

/// Maximum-likelihood MDP estimation from an action-annotated trace dataset.
///
/// `action_names` fixes the action table (traces refer to actions by index
/// into it). States with no observations for any action get a single
/// self-loop choice named after `action_names[0]` when
/// `opts.self_loop_unvisited` holds.
///
/// # Errors
///
/// Propagates [`TraceDataset::action_counts`] errors, and
/// [`ModelError::MissingDistribution`] for unvisited states when
/// `opts.self_loop_unvisited` is false.
pub fn ml_mdp(
    num_states: usize,
    action_names: &[String],
    dataset: &TraceDataset,
    class_weights: Option<&[f64]>,
    opts: MlOptions,
) -> Result<MdpBuilder, ModelError> {
    let counts = dataset.action_counts(num_states, action_names.len(), class_weights)?;
    let mut b = MdpBuilder::new(num_states);
    for (s, per_action) in counts.iter().enumerate() {
        let mut any = false;
        for (a, row) in per_action.iter().enumerate() {
            let smoothed: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0.0)
                .map(|(t, &c)| (t, c + opts.smoothing))
                .collect();
            let total: f64 = smoothed.iter().map(|&(_, c)| c).sum();
            if total == 0.0 {
                continue;
            }
            let dist: Vec<(usize, f64)> =
                smoothed.into_iter().map(|(t, c)| (t, c / total)).collect();
            b.choice(s, &action_names[a], &dist)?;
            any = true;
        }
        if !any {
            if opts.self_loop_unvisited {
                b.choice(s, &action_names[0], &[(s, 1.0)])?;
            } else {
                return Err(ModelError::MissingDistribution { state: s });
            }
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
        let chain = ml_dtmc(2, &ds, None, MlOptions::default()).unwrap().build().unwrap();
        assert!((chain.probability(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((chain.probability(0, 0) - 1.0 / 3.0).abs() < 1e-12);
        // state 1 unvisited → self loop
        assert_eq!(chain.probability(1, 1), 1.0);
    }

    #[test]
    fn ml_dtmc_class_weights_reweight() {
        let ds = dataset();
        // dropping the "bad" class entirely makes 0 -> 1 certain
        let chain =
            ml_dtmc(2, &ds, Some(&[1.0, 0.0]), MlOptions::default()).unwrap().build().unwrap();
        assert_eq!(chain.probability(0, 1), 1.0);
    }

    #[test]
    fn ml_dtmc_smoothing() {
        let ds = dataset();
        let chain = ml_dtmc(2, &ds, None, MlOptions { smoothing: 1.0, self_loop_unvisited: true })
            .unwrap()
            .build()
            .unwrap();
        // counts become 3 and 2 over observed support
        assert!((chain.probability(0, 1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ml_dtmc_unvisited_failure_mode() {
        let ds = dataset();
        let err = ml_dtmc(3, &ds, None, MlOptions { smoothing: 0.0, self_loop_unvisited: false })
            .unwrap_err();
        assert!(matches!(err, ModelError::MissingDistribution { .. }));
    }

    #[test]
    fn ml_dtmc_rejects_out_of_range_state() {
        let ds = dataset();
        assert!(ml_dtmc(1, &ds, None, MlOptions::default()).is_err());
    }

    #[test]
    fn weight_vector_validation() {
        let ds = dataset();
        assert!(ds.transition_counts(2, Some(&[1.0])).is_err());
        assert!(ds.transition_counts(2, Some(&[1.0, -0.5])).is_err());
    }

    #[test]
    fn ml_mdp_learns_per_action() {
        let mut ds = TraceDataset::new();
        let c = ds.add_class("obs");
        ds.push(c, Path::with_actions(vec![0, 1], vec![0]).unwrap(), 3.0).unwrap();
        ds.push(c, Path::with_actions(vec![0, 0], vec![0]).unwrap(), 1.0).unwrap();
        ds.push(c, Path::with_actions(vec![0, 0], vec![1]).unwrap(), 1.0).unwrap();
        let names = vec!["go".to_owned(), "stay".to_owned()];
        let mdp = ml_mdp(2, &names, &ds, None, MlOptions::default()).unwrap().build().unwrap();
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
        assert!(ml_mdp(2, &names, &ds, None, MlOptions::default()).is_err());
    }

    #[test]
    fn interval_learning_brackets_the_ml_estimate() {
        let ds = dataset();
        let ml = ml_dtmc(2, &ds, None, MlOptions::default()).unwrap().build().unwrap();
        let m = interval_dtmc_from_traces(2, &ds, None, 0.9, MlOptions::default())
            .unwrap()
            .build()
            .unwrap();
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
        let tight = interval_dtmc_from_traces(2, &big, None, 0.9, MlOptions::default())
            .unwrap()
            .build()
            .unwrap();
        let (lo, hi) = m.bounds(0, 1);
        let (tlo, thi) = tight.bounds(0, 1);
        assert!(thi - tlo < hi - lo);
        // Class weights flow through to the interval construction.
        let sure = interval_dtmc_from_traces(2, &ds, Some(&[1.0, 0.0]), 0.9, MlOptions::default())
            .unwrap()
            .build()
            .unwrap();
        assert!(sure.bounds(0, 1).1 > 0.9);
        // Bad confidence levels are rejected.
        assert!(interval_dtmc_from_traces(2, &ds, None, 1.5, MlOptions::default()).is_err());
        assert!(interval_dtmc_from_traces(2, &ds, None, 0.0, MlOptions::default()).is_err());
    }

    #[test]
    fn totals() {
        let ds = dataset();
        assert_eq!(ds.num_traces(), 2);
        assert_eq!(ds.total_weight(), 3.0);
        assert_eq!(ds.iter().count(), 2);
    }

    /// Three classes over five states: repeated transitions within a
    /// trace, a zero-weight trace out of state 3 and no trace out of 4.
    fn tape_dataset() -> TraceDataset {
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
        let ds = tape_dataset();
        let learn =
            |w: Option<&[f64]>| ml_dtmc(5, &ds, w, MlOptions::default()).unwrap().build().unwrap();
        let tape = TraceCountTape::compile(&learn(None), &ds).expect("compiles");
        let (mut counts, mut out) = (Vec::new(), Vec::new());
        for w in [
            [1.0, 1.0, 1.0],
            [0.3, 1e-3, 0.9],
            [1e-3, 1e-3, 1e-3],
            [0.1, 0.7, 1.0 / 3.0],
            [7.0, 0.2, 1e-9],
        ] {
            assert!(tape.refill(&w, &mut counts, &mut out), "{w:?}");
            let chain = learn(Some(&w));
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
        let ds = tape_dataset();
        let base = ml_dtmc(5, &ds, None, MlOptions::default()).unwrap().build().unwrap();
        let tape = TraceCountTape::compile(&base, &ds).unwrap();
        let (mut counts, mut out) = (Vec::new(), Vec::new());
        // Dropping class b removes 0 → 0 and 0 → 3 from the support.
        assert!(!tape.refill(&[1.0, 0.0, 1.0], &mut counts, &mut out));
        for bad in [[1.0, -0.5, 1.0], [1.0, f64::NAN, 1.0], [f64::INFINITY, 1.0, 1.0]] {
            assert!(!tape.refill(&bad, &mut counts, &mut out), "{bad:?}");
        }
        assert!(!tape.refill(&[1.0, 1.0], &mut counts, &mut out), "one weight per class");
        // A trace step outside the chain's support does not compile.
        let mut other = ds.clone();
        let a = other.add_class("a");
        other.push(a, Path::from_states(vec![4, 0]), 1.0).unwrap();
        assert!(TraceCountTape::compile(&base, &other).is_none());
    }
}
