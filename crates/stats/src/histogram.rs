//! Fixed-bin-width histogram, used for latency distributions.

/// Histogram over non-negative values with uniform bin width.
///
/// Values above `bin_width * bins` fall in no bin but still count towards the
/// total, so tail packets (e.g. latencies during congestion collapse) are still
/// counted; a percentile whose rank lies among them reports the histogram's
/// range.  Percentiles are
/// computed from the bin boundaries, which is accurate to one bin width — plenty for
/// cycle-count latencies binned at 1 cycle.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram of `bins` bins of width `bin_width`.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            bin_width,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Histogram suited to latency measurements in cycles: 1-cycle bins up to `max`.
    pub fn for_latency(max_cycles: usize) -> Self {
        Self::new(1.0, max_cycles.max(1))
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: f64) {
        debug_assert!(value >= 0.0, "histogram values must be non-negative");
        let bin = (value / self.bin_width) as usize;
        if let Some(count) = self.counts.get_mut(bin) {
            *count += 1;
        }
        self.total += 1;
    }

    /// Total number of observations (including those beyond the last bin).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate percentile (`0.0 ..= 1.0`) using the upper edge of the bin that
    /// contains the requested rank.  Returns `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((i + 1) as f64 * self.bin_width);
            }
        }
        // Requested rank lies in the overflow region; report the histogram range.
        Some(self.counts.len() as f64 * self.bin_width)
    }

    /// Merge another histogram with identical geometry into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin widths differ");
        assert_eq!(self.counts.len(), other.counts.len(), "bin counts differ");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(10.0, 5);
        h.record(0.0);
        h.record(9.9);
        h.record(10.0);
        h.record(49.9);
        h.record(50.0); // overflow

        // Ranks 1–2 fall in bin 0, rank 3 in bin 1, rank 4 in bin 4.
        assert_eq!(h.percentile(0.3), Some(10.0));
        assert_eq!(h.percentile(0.5), Some(20.0));
        assert_eq!(h.percentile(0.7), Some(50.0));
        // Rank 5 lies beyond the last bin: the histogram's range.
        assert_eq!(h.percentile(1.0), Some(50.0));
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn percentile_of_uniform_data() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50 {p50}");
        let p99 = h.percentile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 {p99}");
        assert_eq!(h.percentile(0.0).unwrap(), 1.0);
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::new(1.0, 10);
        assert!(h.percentile(0.5).is_none());
    }

    #[test]
    fn percentile_in_overflow() {
        let mut h = Histogram::new(1.0, 10);
        for _ in 0..10 {
            h.record(100.0);
        }
        assert_eq!(h.percentile(0.5), Some(10.0));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(2.0, 4);
        let mut b = Histogram::new(2.0, 4);
        a.record(1.0);
        b.record(1.5);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        // Both in-range observations share bin 0 (upper edge 2.0).
        assert_eq!(a.percentile(0.6), Some(2.0));
        // The third, beyond the last bin, reports the range.
        assert_eq!(a.percentile(1.0), Some(8.0));
    }

    #[test]
    #[should_panic(expected = "bin widths differ")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(1.0, 4);
        let b = Histogram::new(2.0, 4);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bin_width_rejected() {
        Histogram::new(0.0, 4);
    }

    #[test]
    fn latency_constructor() {
        let mut h = Histogram::for_latency(500);
        h.record(499.0);
        // 1-cycle bins up to 500: the last bin's upper edge.
        assert_eq!(h.percentile(1.0), Some(500.0));
    }
}
