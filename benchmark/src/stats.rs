//! Order statistics used by every report: medians, quartiles and the
//! tail-percentile rule.

/// Percentiles the tail rule considers, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// slack keeps products like `99.9 / 100 * 10_000` (which round to
/// `9990.000000000002`) from ceiling one rank too high.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has too few.
pub fn highest_reportable(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| samples_beyond(p, n) >= MIN_BEYOND)
}

/// The nearest-rank `p`-th percentile of unsorted `values` (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The median, averaging the middle pair of an even count (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones an outside check computes. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (d[0], d[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}
