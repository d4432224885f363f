//! Exact order statistics over raw per-operation samples.
//!
//! No histogram: every percentile is read straight off the sorted sample
//! vector (nearest-rank), so it moves with the data instead of in bucket
//! steps. A named percentile is refused unless at least
//! [`MIN_BEYOND`] samples lie beyond it — a tail figure resting on fewer
//! points is a single outlier, not a percentile.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples ranked beyond the selected one.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`: the sample at
/// 1-based rank `ceil(q·n)` of the ascending order. Fails when fewer than
/// [`MIN_BEYOND`] samples rank beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile { value: sorted[rank - 1], samples: n, beyond })
}

/// Median of a handful of repetitions (set-up time, training time): the
/// middle value, or the mean of the two middle values. Not a named
/// percentile, so no tail guard applies.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (`0.0` for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so selection cannot rely on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn nearest_rank_selection() {
        let s = ramp(1000);
        let p50 = percentile(&s, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&s, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        let p90 = percentile(&ramp(101), 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (91.0, 10));
    }

    #[test]
    fn tail_guard_needs_ten_samples_beyond() {
        assert!(percentile(&ramp(999), 0.99).is_err(), "999 samples leave 9 beyond p99");
        assert!(percentile(&ramp(1000), 0.99).is_ok());
        assert!(percentile(&ramp(99), 0.9).is_err());
        assert!(percentile(&ramp(100), 0.9).is_ok());
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&ramp(20), 0.5).is_ok());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
