//! Percentiles and summaries over latency samples.

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in milliseconds. A failed request is recorded as
/// `f64::INFINITY`: it misses every latency figure, so it always counts
/// beyond any percentile.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn push_failure(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the finite samples.
    pub fn finite_sum(&self) -> f64 {
        self.values.iter().filter(|v| v.is_finite()).sum()
    }

    /// Mean of the finite samples (0 when there are none).
    pub fn finite_mean(&self) -> f64 {
        let n = self.values.iter().filter(|v| v.is_finite()).count();
        if n == 0 {
            0.0
        } else {
            self.finite_sum() / n as f64
        }
    }

    /// The nearest-rank percentile `p` (0 < p ≤ 100) and how many samples
    /// lie strictly beyond its rank.
    pub fn percentile(&self, p: f64) -> Percentile {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub p: f64,
    pub value: f64,
    /// Samples ranked strictly after the percentile's sample.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond it for it to be reported.
    pub fn is_supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile of an ascending slice: the sample at 1-based
/// rank `ceil(p/100 · n)`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Percentile {
    if sorted.is_empty() {
        return Percentile { p, value: 0.0, beyond: 0 };
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile { p, value: sorted[rank - 1], beyond: n - rank }
}

/// The median of a small set of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_one_hundred_samples_has_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = nearest_rank(&samples, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.is_supported());
    }

    #[test]
    fn p90_of_ninety_nine_samples_is_not_supported() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        let p90 = nearest_rank(&samples, 90.0);
        assert_eq!(p90.beyond, 9);
        assert!(!p90.is_supported());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(nearest_rank(&twenty, 50.0).is_supported());
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(!nearest_rank(&nineteen, 50.0).is_supported());
    }

    #[test]
    fn failures_rank_beyond_every_latency() {
        let mut s = Samples::default();
        for ms in 1..=90 {
            s.push(f64::from(ms));
        }
        for _ in 0..10 {
            s.push_failure();
        }
        let p90 = s.percentile(90.0);
        assert_eq!(p90.value, 90.0);
        let p95 = s.percentile(95.0);
        assert!(p95.value.is_infinite(), "a failed request misses the p95 figure");
        assert_eq!(s.finite_mean(), 45.5);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
