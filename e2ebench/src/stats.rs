//! Order statistics: medians, percentiles, the tail-percentile rule and
//! the quartile spread the acceptance check uses.

/// The median of `values` (mean of the two middle values for an even
/// count). `values` is sorted in place; an empty slice gives 0.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let m = values.len() / 2;
    if values.len() % 2 == 1 {
        values[m]
    } else {
        (values[m - 1] + values[m]) / 2.0
    }
}

/// Nearest rank (1-based) of percentile `p` (0–100) among `n` samples.
/// The epsilon keeps `99.9 % of 10 000` at rank 9 990 despite rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of p50, p90, p95, p99 and p99.9 that still has at least
/// ten samples beyond it; p50 when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Events per second over a window of `window` seconds: the events whose
/// time (seconds since the window opened) falls inside it, over its whole
/// length. Not the rate between the first and the last event: replies
/// that arrive in bursts would then count a burst more than the gaps.
pub fn rate_in_window(times: &[f64], window: f64) -> f64 {
    times.iter().filter(|t| (0.0..window).contains(*t)).count() as f64 / window
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let quartile = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let (q1, q3) = (quartile(1), quartile(3));
    (q3 - q1) / median(&mut v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [100, 250, 1000, 12_345, 100_000] {
            assert!(samples_beyond(n, tail_percentile(n)) >= 10, "{n}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn bursty_replies_are_counted_over_the_whole_window() {
        // Group commit acknowledges eight commits at once every 150 ms;
        // a reply before the window and one after it do not count.
        let mut times = vec![-0.01, 15.0];
        for burst in 0..100 {
            let at = 0.1 + burst as f64 * 0.15;
            times.extend((0..8).map(|i| at + i as f64 * 1e-4));
        }
        // Rated between the first and the last reply of each second,
        // the same replies would read about 62/s.
        assert!((rate_in_window(&times, 15.0) - 800.0 / 15.0).abs() < 1e-9);
        assert_eq!(rate_in_window(&[], 15.0), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
