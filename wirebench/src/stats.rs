//! Order statistics the benchmark reports.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the sample cannot support it and the caller
//! gets the sample count back instead of a number.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the value was read from.
    pub samples: usize,
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted`, which must
/// be sorted ascending. Refuses, returning the sample count, when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Result<Percentile, usize> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_BEYOND {
        return Err(n);
    }
    Ok(Percentile { value: sorted[rank - 1], samples: n })
}

/// The median of an unsorted sample (mean of the middle pair for an
/// even count), or 0 for an empty one — a layer that was never called
/// reports 0. A median needs no samples beyond it, so any count works.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), Err(999));
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples support p99");
        assert_eq!(p, Percentile { value: 990.0, samples: 1000 });
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), Err(19));
        let p = percentile(&ramp(20), 0.5).expect("20 samples support p50");
        assert_eq!((p.value, p.samples), (10.0, 20));
    }

    #[test]
    fn an_empty_sample_reports_its_count() {
        assert_eq!(percentile(&[], 0.5), Err(0));
    }

    #[test]
    fn median_of_small_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
