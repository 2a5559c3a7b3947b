//! Order statistics for the reported timings.

/// Samples a tail percentile must leave beyond itself to be trusted.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 0-based nearest-rank index of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-quantile (nearest rank). Panics on an empty slice: every
/// caller reports a metric only for a class of op it ran.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    v[rank(v.len(), p)]
}

/// The median: the mean of the two middle samples when the count is
/// even, so that a bimodal sample does not flip between modes.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples beyond the `p`-quantile (nearest rank) of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(1 + rank(n.max(1), p))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread the acceptance rule uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // The median of 20 samples sits at index 9: ten lie beyond.
        for (n, p) in [(20, 0.50), (40, 0.75), (100, 0.90), (200, 0.95)] {
            assert_eq!(beyond(n, p), MIN_BEYOND, "p{p} of {n}");
            assert_eq!(beyond(n - 1, p), MIN_BEYOND - 1, "p{p} of {}", n - 1);
        }
        assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
        assert_eq!((beyond(0, 0.9), beyond(1, 0.9)), (0, 0));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
