//! Order statistics over small samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at fractional index `pos` of a sorted slice, clamped
/// to its ends.
fn at(sorted: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(0.0, (sorted.len() - 1) as f64);
    let below = pos.floor() as usize;
    let above = pos.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

/// The `p`-quantile (`0 <= p <= 1`) by linear interpolation between closest
/// ranks.  `values` must not be empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    at(&v, p * (v.len() - 1) as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`, so the
/// spread printed here is the one the benchmark's acceptance is checked with.
/// Zero for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len() as f64;
    let q1 = at(&v, (n + 1.0) * 0.25 - 1.0);
    let q3 = at(&v, (n + 1.0) * 0.75 - 1.0);
    (q3 - q1) / median(values)
}
