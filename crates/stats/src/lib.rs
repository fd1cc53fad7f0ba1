//! Statistics primitives for network simulation.
//!
//! The simulator produces two kinds of measurements:
//!
//! * *per-packet* observations (latency, hop counts, misroute counts) which are
//!   aggregated with [`ExactStats`] and [`Histogram`],
//! * *per-cycle* throughput counters, aggregated over a measurement window by
//!   [`ThroughputMeter`] and optionally sampled over time by [`TimeSeries`].
//!
//! The end product of a steady-state run is a [`SimReport`]; a batch ("burst
//! consumption") run produces a [`BatchReport`].  Both can be written as CSV rows by
//! the experiment harness and as JSON through [`json`], the workspace's one codec.

#![warn(missing_docs)]

mod exact;
mod histogram;
pub mod json;
mod report;
mod scoped;
mod timeseries;
mod workload_report;

pub use exact::ExactStats;
pub use histogram::Histogram;
pub use json::validate_json;
pub use report::{BatchReport, SimReport};
pub use scoped::ScopedStats;
pub use timeseries::TimeSeries;
pub use workload_report::{JobLifecycleReport, JobReport, PhaseReport, WorkloadReport};

/// Accumulates delivered traffic over a measurement window to compute accepted load.
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    /// Phits delivered to destination nodes inside the window.
    pub phits_delivered: u64,
    /// Packets delivered inside the window.
    pub packets_delivered: u64,
    /// Phits injected by sources inside the window.
    pub phits_injected: u64,
    /// Packets injected inside the window.
    pub packets_injected: u64,
    /// First cycle of the window (inclusive).
    pub window_start: u64,
    /// Last cycle of the window seen so far (exclusive).
    pub window_end: u64,
}

impl ThroughputMeter {
    /// Create a meter whose window starts at `start`.
    pub fn new(start: u64) -> Self {
        Self {
            window_start: start,
            window_end: start,
            ..Self::default()
        }
    }

    /// Record the delivery of a whole packet of `phits` phits at cycle `cycle`.
    pub fn record_delivery(&mut self, phits: u64, cycle: u64) {
        self.phits_delivered += phits;
        self.packets_delivered += 1;
        self.window_end = self.window_end.max(cycle + 1);
    }

    /// Record the injection of a whole packet of `phits` phits at cycle `cycle`.
    pub fn record_injection(&mut self, phits: u64, cycle: u64) {
        self.phits_injected += phits;
        self.packets_injected += 1;
        self.window_end = self.window_end.max(cycle + 1);
    }

    /// Advance the window end (call once per simulated cycle).
    pub fn tick(&mut self, cycle: u64) {
        self.window_end = self.window_end.max(cycle + 1);
    }

    /// Length of the measurement window in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_end.saturating_sub(self.window_start)
    }

    /// Accepted load in phits per node per cycle.
    pub fn accepted_load(&self, nodes: usize) -> f64 {
        let cycles = self.window_cycles();
        if cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.phits_delivered as f64 / (nodes as f64 * cycles as f64)
    }

    /// Offered (injected) load in phits per node per cycle.
    pub fn injected_load(&self, nodes: usize) -> f64 {
        let cycles = self.window_cycles();
        if cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.phits_injected as f64 / (nodes as f64 * cycles as f64)
    }

    /// Merge another meter covering the *same* measurement window into this one
    /// (per-shard meters of one sharded run).  Counters add exactly; the window
    /// end is the maximum seen by either side.
    ///
    /// # Panics
    ///
    /// Panics when the two meters disagree about the window start — merging
    /// meters of different windows is always a bug.
    pub fn merge(&mut self, other: &ThroughputMeter) {
        assert_eq!(
            self.window_start, other.window_start,
            "cannot merge throughput meters with different window starts"
        );
        self.phits_delivered += other.phits_delivered;
        self.packets_delivered += other.packets_delivered;
        self.phits_injected += other.phits_injected;
        self.packets_injected += other.packets_injected;
        self.window_end = self.window_end.max(other.window_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_meter_accepted_load() {
        let mut m = ThroughputMeter::new(100);
        for cycle in 100..200 {
            m.tick(cycle);
            if cycle % 2 == 0 {
                m.record_delivery(8, cycle);
            }
        }
        assert_eq!(m.window_cycles(), 100);
        assert_eq!(m.packets_delivered, 50);
        // 50 packets * 8 phits / (4 nodes * 100 cycles) = 1.0
        assert!((m.accepted_load(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_meter_injected_load() {
        let mut m = ThroughputMeter::new(0);
        for cycle in 0..10 {
            m.record_injection(4, cycle);
        }
        assert!((m.injected_load(2) - 2.0).abs() < 1e-12);
        assert_eq!(m.packets_injected, 10);
    }

    #[test]
    fn empty_meter_is_zero() {
        let m = ThroughputMeter::new(5);
        assert_eq!(m.accepted_load(16), 0.0);
        assert_eq!(m.injected_load(16), 0.0);
        assert_eq!(m.window_cycles(), 0);
    }

    #[test]
    fn zero_nodes_does_not_divide_by_zero() {
        let mut m = ThroughputMeter::new(0);
        m.record_delivery(8, 3);
        assert_eq!(m.accepted_load(0), 0.0);
    }
}
