//! Fairness and latency-distribution statistics used across the evaluation.

/// Jain's fairness index of a set of allocations:
/// `(Σ x)² / (n · Σ x²)`, in `(0, 1]`, 1 meaning perfectly equal shares.
/// Returns 1.0 for an empty input (vacuously fair).
pub fn jain_fairness_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// A fixed-width latency histogram: the series type behind the
/// `latency_histogram` experiment. Bin `i` counts samples in
/// `[i·bin_width, (i+1)·bin_width)`; samples past the last bin clamp into
/// it (an explicit overflow bin keeps the x-axis bounded for plotting).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Width of each bin, in the samples' time unit.
    pub bin_width: f64,
    /// Per-bin sample counts; the last bin also holds the overflow.
    pub counts: Vec<u64>,
    /// Total number of samples (the sum of `counts`).
    pub total: u64,
}

impl LatencyHistogram {
    /// Bins `samples` into `num_bins` bins of `bin_width`. Negative samples
    /// land in bin 0; the requested shape is honoured even when empty.
    pub fn from_samples(samples: &[f64], bin_width: f64, num_bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin_width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        let mut counts = vec![0u64; num_bins];
        for &s in samples {
            let bin = ((s / bin_width).floor().max(0.0) as usize).min(num_bins - 1);
            counts[bin] += 1;
        }
        LatencyHistogram { bin_width, counts, total: samples.len() as u64 }
    }

    /// Upper edge of bin `i` (the conventional x coordinate when plotting).
    pub fn bin_upper(&self, i: usize) -> f64 {
        (i + 1) as f64 * self.bin_width
    }

    /// Fraction of all samples in bin `i` (0 when the histogram is empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[i] as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_perfectly_fair() {
        assert!((jain_fairness_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness_index(&[0.3, 0.3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog() {
        // One of n users takes everything: index = 1/n.
        let idx = jain_fairness_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_paper_magnitudes() {
        // The paper reports ~0.99 for both topologies: mild variation around
        // a common value keeps the index very close to 1.
        let values: Vec<f64> = (0..300).map(|i| 0.9 + 0.05 * ((i % 7) as f64 / 7.0)).collect();
        assert!(jain_fairness_index(&values) > 0.99);
    }

    #[test]
    fn jain_edge_cases() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn latency_histogram_bins_and_overflow() {
        let h = LatencyHistogram::from_samples(&[0.0, 0.005, 0.01, 0.025, 99.0], 0.01, 3);
        assert_eq!(h.counts, vec![2, 1, 2], "overflow clamps into the last bin");
        assert_eq!(h.total, 5);
        assert!((h.bin_upper(0) - 0.01).abs() < 1e-12);
        assert!((h.fraction(2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_empty_keeps_shape() {
        let h = LatencyHistogram::from_samples(&[], 0.5, 4);
        assert_eq!(h.counts, vec![0, 0, 0, 0]);
        assert_eq!(h.fraction(0), 0.0);
        // Negative samples (cannot happen for RTTs, but be total) hit bin 0.
        let n = LatencyHistogram::from_samples(&[-1.0], 0.5, 4);
        assert_eq!(n.counts[0], 1);
    }
}
