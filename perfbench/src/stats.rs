//! Order statistics over timing samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples`, interpolated
/// linearly between the two closest ranks (the `(n − 1)·p` rule). `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * (p.clamp(0.0, 100.0) / 100.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean of `samples` (0 when empty, so idle layers read 0).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Groups `values` into `count` consecutive windows of `width` seconds
/// by the time `at` (seconds from the start of the measured phase) of
/// each value; values outside the windows are dropped.
pub fn windows(at: &[f64], values: &[f64], width: f64, count: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); count];
    for (&t, &v) in at.iter().zip(values) {
        let w = (t / width).floor();
        if w >= 0.0 && (w as usize) < count {
            out[w as usize].push(v);
        }
    }
    out
}

/// Events per second between the first and the last of the event times
/// `at` (seconds): `(n − 1) / (last − first)`. `None` for fewer than two
/// events or no time between them.
pub fn rate(at: &[f64]) -> Option<f64> {
    let first = at.iter().copied().reduce(f64::min)?;
    let last = at.iter().copied().reduce(f64::max)?;
    (last > first).then(|| (at.len() - 1) as f64 / (last - first))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_counts_intervals_between_first_and_last_event() {
        assert_eq!(rate(&[]), None);
        assert_eq!(rate(&[1.0]), None);
        assert_eq!(rate(&[2.0, 2.0]), None);
        assert_eq!(rate(&[1.5, 0.5, 1.0]), Some(2.0));
    }

    #[test]
    fn windows_group_by_time_and_drop_the_rest() {
        let at = [0.1, 0.9, 1.0, 1.5, 2.2, -0.1, 3.0];
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(
            windows(&at, &v, 1.0, 3),
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0]]
        );
        assert_eq!(windows(&at, &v, 2.0, 1), vec![vec![1.0, 2.0, 3.0, 4.0]]);
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        let p90 = percentile(&s, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "p90 = {p90}");
    }

    #[test]
    fn odd_sample_median_is_the_middle_value() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn p90_of_eleven_is_the_tenth_smallest() {
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(10.0));
    }
}
