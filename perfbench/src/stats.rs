//! Order statistics over timing samples.

/// Sort a copy of `v` ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

/// Nearest-rank quantile of ascending `s` (`p` in `[0, 1]`); 0 when empty.
pub fn quantile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median (nearest rank, lower middle); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

/// The tail percentile the benchmark reports: the 99th when at least ten
/// samples lie beyond it, otherwise the highest percentile that still has
/// ten samples beyond it (the maximum when there are ten or fewer samples).
/// Returns `(percentile, value)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n <= 10 {
        return (100.0, s.last().copied().unwrap_or(0.0));
    }
    let p = (0.99f64).min((n - 10) as f64 / n as f64);
    (100.0 * p, quantile_sorted(&s, p))
}

/// Sum of a sample set.
pub fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 30.0));
        assert_eq!(tail(&[3.0, 1.0]).1, 3.0);
    }

    #[test]
    fn median_is_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
