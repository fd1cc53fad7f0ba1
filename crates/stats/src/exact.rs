//! Exact, order-independent statistics over integer-valued observations.

/// Count/mean/min/max accumulator for *integer-valued* observations (cycle
/// counts, hop counts) with exact integer internals.
///
/// Unlike a floating-point running mean (Welford's algorithm, whose state
/// depends on the order observations arrive in), this accumulator keeps an
/// exact `u128` sum, so
///
/// * accumulation is **order-independent**: any permutation of the same
///   observations produces bit-identical state, and
/// * [`ExactStats::merge`] is **exact**: merging per-shard accumulators yields
///   bit-identical results to accumulating the union sequentially.
///
/// Both properties are what lets the sharded simulation engine produce
/// byte-identical reports to the sequential engine (see `dragonfly_shard`).
/// The mean is computed from the integer sum in one final floating-point step,
/// which is a pure function of the accumulated state.
#[derive(Debug, Clone)]
pub struct ExactStats {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for ExactStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: u64) {
        self.count += 1;
        self.sum += x as u128;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    #[inline]
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min as f64)
        }
    }

    /// Largest observation (`None` when empty).
    #[inline]
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max as f64)
        }
    }

    /// Merge another accumulator into this one.  Exact: the result is
    /// bit-identical to having pushed both observation sets into one
    /// accumulator, in any order.
    pub fn merge(&mut self, other: &ExactStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = ExactStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn known_values() {
        let mut s = ExactStats::new();
        for x in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_is_bit_identical_to_sequential() {
        let xs: Vec<u64> = (0..10_000).map(|i| (i * i * 2654435761u64) >> 40).collect();
        let mut all = ExactStats::new();
        for &x in &xs {
            all.push(x);
        }
        // Split into three parts, accumulate separately, merge in a different order.
        let mut parts = [ExactStats::new(), ExactStats::new(), ExactStats::new()];
        for (i, &x) in xs.iter().enumerate() {
            parts[i % 3].push(x);
        }
        let mut merged = ExactStats::new();
        merged.merge(&parts[2]);
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged.count(), all.count());
        // Bit-identical, not just approximately equal.
        assert_eq!(merged.mean().to_bits(), all.mean().to_bits());
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn push_order_does_not_matter() {
        let mut fwd = ExactStats::new();
        let mut rev = ExactStats::new();
        let xs: Vec<u64> = (0..1000).map(|i| i * 37 % 101).collect();
        for &x in &xs {
            fwd.push(x);
        }
        for &x in xs.iter().rev() {
            rev.push(x);
        }
        assert_eq!(fwd.mean().to_bits(), rev.mean().to_bits());
        assert_eq!((fwd.min(), fwd.max()), (rev.min(), rev.max()));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = ExactStats::new();
        a.push(3);
        a.push(5);
        let before = a.clone();
        a.merge(&ExactStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = ExactStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn large_values_do_not_overflow() {
        let mut s = ExactStats::new();
        for _ in 0..1_000 {
            s.push(u32::MAX as u64);
        }
        assert_eq!(s.mean(), u32::MAX as f64);
        assert_eq!(s.max(), Some(u32::MAX as f64));
    }
}
