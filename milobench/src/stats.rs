//! Order statistics, the tail-percentile rule, and the QoR geometric
//! mean.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> f64 {
    n as f64 * (1.0 - p / 100.0)
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, or `None` when `n < 20` leaves no percentile that well supported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10.0 - 1e-9)
}

/// A one-line account of a latency sample set: count, median, the
/// percentile the tail rule allows, and how many samples lie beyond it.
pub fn describe_tail(label: &str, values_ms: &[f64]) -> String {
    let n = values_ms.len();
    match tail_percentile(n) {
        Some(p) => format!(
            "{label}: n={n} p50={:.4} ms; tail rule: p{p}={:.4} ms with {:.0} samples beyond",
            median(values_ms),
            percentile(values_ms, p),
            samples_beyond(n, p)
        ),
        None => format!(
            "{label}: n={n} p50={:.4} ms; tail rule: no percentile has 10 samples beyond it",
            median(values_ms)
        ),
    }
}

/// Geometric mean of positive ratios (1 when empty).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(6000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!((samples_beyond(6000, 99.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn describe_tail_prints_the_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let line = describe_tail("job_ms", &v);
        assert!(line.contains("n=1000"), "{line}");
        assert!(
            line.contains("p99=990.0000 ms with 10 samples beyond"),
            "{line}"
        );
        assert!(describe_tail("x", &[1.0]).contains("no percentile"));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.25, 1.0]) - 0.5).abs() < 1e-12);
        assert!((geomean(&[0.8, 0.8, 0.8]) - 0.8).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
