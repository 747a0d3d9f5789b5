//! Order statistics behind every reported number.
//!
//! Timings are reported as medians, and a tail percentile only when at
//! least [`MIN_BEYOND`] samples lie beyond it, so that one stray sample
//! cannot set it.

/// Samples a reported percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside checker computes.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 })
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples may be reported: at least
/// [`MIN_BEYOND`] samples lie beyond it (p90 needs 100 samples).
pub fn percentile_reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `xs`. `None` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    Some(v[nearest_rank(v.len(), p) - 1])
}
