//! Periodic sampling of a scalar quantity over simulated time.

/// A time series sampled every `period` cycles.
///
/// The probe recorder keeps one per observed quantity (injected and delivered
/// phits, buffered phits, link occupancy, …) and the delay ledger one per
/// delay component; per-shard series merge element-wise
/// ([`TimeSeries::merge`], [`TimeSeries::merge_max`]).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    period: u64,
    samples: Vec<f64>,
}

impl TimeSeries {
    /// Create a series sampled every `period` cycles (`period ≥ 1`).
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "sampling period must be at least 1 cycle");
        Self {
            period,
            samples: Vec::new(),
        }
    }

    /// Create a series with its backing storage reserved up front, so the
    /// first `capacity` pushes perform no heap allocation (the probe layer
    /// relies on this to keep the cycle loop allocation-free).
    pub fn with_capacity(period: u64, capacity: usize) -> Self {
        let mut ts = Self::new(period);
        ts.samples.reserve_exact(capacity);
        ts
    }

    /// Sampling period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Samples the backing store can hold before it must grow.
    pub fn capacity(&self) -> usize {
        self.samples.capacity()
    }

    /// The simulated cycle sample `index` was taken at.  Sampling happens at
    /// every multiple of the period, so at a horizon that is not a multiple of
    /// the period the last sample's cycle is simply the largest multiple not
    /// exceeding the horizon — there is no partial final sample.
    pub fn cycle_of(&self, index: usize) -> u64 {
        index as u64 * self.period
    }

    /// Append a sample.
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Element-wise sum of another series into this one.
    ///
    /// This is the per-shard merge of one logical series recorded by several
    /// engine partitions: every sample index corresponds to the same simulated
    /// cycle on both sides, each shard contributes only what it observed
    /// locally, and addition makes the result independent of merge order
    /// (commutative and associative, like [`crate::ExactStats`]).  A shorter
    /// side is treated as zero-padded, so merging series of unequal length is
    /// well defined and still order-independent.
    ///
    /// # Panics
    ///
    /// Panics when the two series disagree about the sampling period.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.period, other.period,
            "cannot merge time series with different sampling periods"
        );
        if other.samples.len() > self.samples.len() {
            self.samples.resize(other.samples.len(), 0.0);
        }
        for (dst, src) in self.samples.iter_mut().zip(other.samples.iter()) {
            *dst += *src;
        }
    }

    /// Element-wise maximum of another series into this one: [`TimeSeries::merge`]
    /// for high-water marks (the longer side's tail is kept as is).
    pub fn merge_max(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.period, other.period,
            "cannot merge time series with different sampling periods"
        );
        let shared = self.samples.len();
        for (dst, src) in self.samples.iter_mut().zip(other.samples.iter()) {
            *dst = dst.max(*src);
        }
        if other.samples.len() > shared {
            self.samples.extend_from_slice(&other.samples[shared..]);
        }
    }

    /// All samples in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut ts = TimeSeries::new(100);
        assert!(ts.is_empty());
        ts.push(1.0);
        ts.push(2.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.samples(), &[1.0, 2.0]);
        assert_eq!(ts.period(), 100);
    }

    #[test]
    fn merge_max_keeps_the_larger_sample_and_the_longer_tail() {
        let (mut short, mut long) = (TimeSeries::new(8), TimeSeries::new(8));
        [3.0, 1.0].iter().for_each(|&x| short.push(x));
        [2.0, 5.0, 4.0, 0.0].iter().for_each(|&x| long.push(x));
        let mut merged = short.clone();
        merged.merge_max(&long);
        assert_eq!(merged.samples(), &[3.0, 5.0, 4.0, 0.0]);
        long.merge_max(&short);
        assert_eq!(long.samples(), merged.samples());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_period_rejected() {
        TimeSeries::new(0);
    }

    #[test]
    fn with_capacity_preallocates_and_pushes_do_not_grow() {
        let mut ts = TimeSeries::with_capacity(64, 40);
        let cap = ts.capacity();
        assert!(cap >= 40);
        for i in 0..40 {
            ts.push(i as f64);
        }
        assert_eq!(ts.capacity(), cap, "pushes within capacity must not grow");
        assert_eq!(ts.len(), 40);
    }

    fn series_of(period: u64, values: &[f64]) -> TimeSeries {
        let mut ts = TimeSeries::new(period);
        for &v in values {
            ts.push(v);
        }
        ts
    }

    #[test]
    fn merge_is_order_independent_and_associative() {
        // Three per-shard fragments of one logical series, deliberately of
        // unequal length (a shard that stopped sampling early pads with zero).
        let a = series_of(64, &[1.0, 2.0, 3.0]);
        let b = series_of(64, &[10.0, 20.0]);
        let c = series_of(64, &[100.0, 200.0, 300.0, 400.0]);

        let merged = |order: &[&TimeSeries]| {
            let mut acc = order[0].clone();
            for s in &order[1..] {
                acc.merge(s);
            }
            acc.samples().to_vec()
        };

        let abc = merged(&[&a, &b, &c]);
        assert_eq!(abc, vec![111.0, 222.0, 303.0, 400.0]);
        assert_eq!(abc, merged(&[&c, &a, &b]), "merge must be commutative");
        assert_eq!(abc, merged(&[&b, &c, &a]), "merge must be commutative");

        // Associativity: (a + b) + c == a + (b + c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.samples(), right.samples());
    }

    #[test]
    #[should_panic(expected = "different sampling periods")]
    fn merge_rejects_mismatched_periods() {
        let mut a = TimeSeries::new(32);
        a.merge(&TimeSeries::new(64));
    }

    #[test]
    fn stride_alignment_at_non_divisor_horizons() {
        // A 1000-cycle run sampled every 64 cycles: cycle 0 plus every later
        // multiple of 64 below 1000 — 16 samples, the last at cycle 960.
        let ts = TimeSeries::new(64);
        assert_eq!(ts.cycle_of(0), 0);
        assert_eq!(ts.cycle_of(15), 960);
        assert_eq!(ts.cycle_of(16), 1024);
        assert_eq!(TimeSeries::new(1).cycle_of(4), 4);
    }
}
