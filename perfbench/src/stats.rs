//! Order statistics over host-time samples.

/// Median of `v` (sorts it). Zero for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (sorts it).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten samples beyond it, or `None`
/// when there are fewer than twenty samples (only the median is
/// supported then).
pub fn top_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| (100.0 * (1.0 - 10.0 / n as f64)).floor())
}
