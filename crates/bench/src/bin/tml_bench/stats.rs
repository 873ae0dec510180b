//! Order statistics shared by the runner and the compare gate.
//!
//! Quantiles use the "exclusive" rule of Python's
//! `statistics.quantiles(values, n=4)` — position `q·(n+1)` over the
//! sorted sample, linearly interpolated and clamped to the ends — so the
//! spreads `compare` reports are the ones an outside check computes from
//! the same values.

/// The `q`-quantile (`0 < q < 1`) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        return v[n - 1];
    }
    v[lo - 1] + frac * (v[lo] - v[lo - 1])
}

/// The median (the 0.5-quantile, which is the usual median).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
        assert!(median(&[]).is_nan());
    }
}
