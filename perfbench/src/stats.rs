//! Sample summaries: medians and fixed nearest-rank tail percentiles.

/// Median of `v` (mean of the middle pair for an even count); `NaN` when
/// `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `v`; `NaN` when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of a fixed ladder that leaves at least ten of
/// `n` samples beyond it — the `_tail` percentile for an operation type
/// that is guaranteed `n` samples per run. Falls back to the median when
/// even that leaves fewer than ten (tiny test scales).
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 6] = [95.0, 90.0, 80.0, 75.0, 60.0, 50.0];
    LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 95.0);
        assert_eq!(tail_percentile(60), 80.0);
        assert_eq!(tail_percentile(20), 50.0);
        for n in [20, 25, 40, 60, 100, 250, 1000, 5000] {
            assert!(beyond(n, tail_percentile(n)) >= 10, "n = {n}");
        }
    }
}
