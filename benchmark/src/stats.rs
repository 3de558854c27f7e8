//! Order statistics the benchmark reports: percentiles, quartiles, and the
//! per-cycle stall estimator.

/// Linear-interpolated percentile of `values` (`q` in `0..=1`), the same
/// definition for every `_p50`/`_p90` the benchmark prints.  `None` when
/// there is nothing to rank.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median; 0 for an empty set (a layer that did not run spent no time).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `--self-check` judges spread exactly as the acceptance driver does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measured values"));
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The slowest value of each whole `cycle`-long run of `values`; a trailing
/// partial cycle is ignored, because a window that is not a whole number of
/// cycles measures phase, not speed.
pub fn cycle_maxima(values: &[f64], cycle: usize) -> Vec<f64> {
    assert!(cycle > 0, "a cycle has at least one tick");
    values.chunks_exact(cycle).map(|c| c.iter().copied().fold(f64::MIN, f64::max)).collect()
}

/// The sum of each whole `cycle`-long run of `values`; a trailing partial
/// cycle is ignored, as in [`cycle_maxima`].
pub fn cycle_sums(values: &[f64], cycle: usize) -> Vec<f64> {
    assert!(cycle > 0, "a cycle has at least one tick");
    values.chunks_exact(cycle).map(|c| c.iter().sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // p90 of 0..=10 sits exactly on rank 9.
        let ramp: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 0.9), Some(9.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn cycle_maxima_takes_whole_cycles_only() {
        let v = [1.0, 9.0, 2.0, 3.0, 4.0, 8.0, 100.0];
        assert_eq!(cycle_maxima(&v, 3), vec![9.0, 8.0]);
        assert_eq!(cycle_maxima(&v, 7), vec![100.0]);
        assert!(cycle_maxima(&v, 8).is_empty());
        assert_eq!(cycle_sums(&v, 3), vec![12.0, 15.0]);
        assert!(cycle_sums(&v, 8).is_empty());
    }
}
