//! Per-scope (job or job-phase) statistics accumulator.

use crate::{ExactStats, Histogram};

/// Accumulates the statistics of one *scope* — one job, or one (job, phase) pair —
/// during a simulation run.
///
/// The recording rules mirror the aggregate collector: latency/hop/misroute
/// observations come only from *measured* packets (generated inside the measurement
/// window); the phit counters for throughput count every event that happens while
/// the window is open.  Deliveries are attributed to the scope of the packet's
/// *generation*, so a packet generated in phase `k` counts toward phase `k` even if
/// it arrives after the phase boundary.
#[derive(Debug, Clone)]
pub struct ScopedStats {
    /// Latency of measured packets, in cycles.
    pub latency: ExactStats,
    /// Latency histogram (1-cycle bins) of measured packets.
    pub latency_hist: Histogram,
    /// Router-to-router hop count of measured packets.
    pub hops: ExactStats,
    /// Measured packets that took a global misroute.
    pub global_misrouted: u64,
    /// Measured packets that took at least one local misroute.
    pub local_misrouted: u64,
    /// Measured packets delivered.
    pub measured_delivered: u64,
    /// All packets ever generated in this scope.
    pub total_generated: u64,
    /// All packets of this scope ever delivered.
    pub total_delivered: u64,
    /// Phits generated while the measurement window was open.
    pub phits_injected_in_window: u64,
    /// Phits delivered while the measurement window was open.
    pub phits_delivered_in_window: u64,
}

impl ScopedStats {
    /// Create an empty accumulator with a latency histogram of `latency_bins` bins.
    pub fn new(latency_bins: usize) -> Self {
        Self {
            latency: ExactStats::new(),
            latency_hist: Histogram::for_latency(latency_bins),
            hops: ExactStats::new(),
            global_misrouted: 0,
            local_misrouted: 0,
            measured_delivered: 0,
            total_generated: 0,
            total_delivered: 0,
            phits_injected_in_window: 0,
            phits_delivered_in_window: 0,
        }
    }

    /// Record the generation of a packet of `phits` phits.
    pub fn record_generated(&mut self, phits: usize, measuring: bool) {
        self.total_generated += 1;
        if measuring {
            self.phits_injected_in_window += phits as u64;
        }
    }

    /// Record a delivery.  `measured` carries `(latency, hops, global
    /// misrouted, local misrouted)` for measured packets and `None` otherwise.
    pub fn record_delivered(
        &mut self,
        phits: usize,
        measuring: bool,
        measured: Option<(u64, u64, bool, bool)>,
    ) {
        self.total_delivered += 1;
        if measuring {
            self.phits_delivered_in_window += phits as u64;
        }
        if let Some((latency, hops, global_mis, local_mis)) = measured {
            self.measured_delivered += 1;
            self.latency.push(latency);
            self.latency_hist.record(latency as f64);
            self.hops.push(hops);
            if global_mis {
                self.global_misrouted += 1;
            }
            if local_mis {
                self.local_misrouted += 1;
            }
        }
    }

    /// Merge another scope's accumulated state into this one (exact: the result
    /// is identical to having recorded both scopes' events into one accumulator).
    pub fn merge(&mut self, other: &ScopedStats) {
        self.latency.merge(&other.latency);
        self.latency_hist.merge(&other.latency_hist);
        self.hops.merge(&other.hops);
        self.global_misrouted += other.global_misrouted;
        self.local_misrouted += other.local_misrouted;
        self.measured_delivered += other.measured_delivered;
        self.total_generated += other.total_generated;
        self.total_delivered += other.total_delivered;
        self.phits_injected_in_window += other.phits_injected_in_window;
        self.phits_delivered_in_window += other.phits_delivered_in_window;
    }

    /// Fraction of measured packets that took a global misroute.
    pub fn global_misroute_fraction(&self) -> f64 {
        if self.measured_delivered == 0 {
            0.0
        } else {
            self.global_misrouted as f64 / self.measured_delivered as f64
        }
    }

    /// Fraction of measured packets that took at least one local misroute.
    pub fn local_misroute_fraction(&self) -> f64 {
        if self.measured_delivered == 0 {
            0.0
        } else {
            self.local_misrouted as f64 / self.measured_delivered as f64
        }
    }

    /// Load in phits/(node·cycle) from a phit counter over a window.
    pub fn load_over(phits: u64, nodes: usize, cycles: u64) -> f64 {
        if nodes == 0 || cycles == 0 {
            0.0
        } else {
            phits as f64 / (nodes as f64 * cycles as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_measurement_state() {
        let mut s = ScopedStats::new(1_000);
        s.record_generated(8, false);
        s.record_generated(8, true);
        assert_eq!(s.total_generated, 2);
        assert_eq!(s.phits_injected_in_window, 8);

        s.record_delivered(8, false, None);
        s.record_delivered(8, true, Some((120, 3, true, false)));
        s.record_delivered(8, true, Some((180, 5, false, true)));
        assert_eq!(s.total_delivered, 3);
        assert_eq!(s.measured_delivered, 2);
        assert_eq!(s.phits_delivered_in_window, 16);
        assert!((s.latency.mean() - 150.0).abs() < 1e-9);
        assert!((s.hops.mean() - 4.0).abs() < 1e-9);
        assert!((s.global_misroute_fraction() - 0.5).abs() < 1e-9);
        assert!((s.local_misroute_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(s.latency_hist.total(), 2);
    }

    #[test]
    fn empty_scope_has_zero_fractions() {
        let s = ScopedStats::new(10);
        assert_eq!(s.global_misroute_fraction(), 0.0);
        assert_eq!(s.local_misroute_fraction(), 0.0);
    }

    #[test]
    fn load_over_window() {
        assert!((ScopedStats::load_over(800, 4, 100) - 2.0).abs() < 1e-12);
        assert_eq!(ScopedStats::load_over(800, 0, 100), 0.0);
        assert_eq!(ScopedStats::load_over(800, 4, 0), 0.0);
    }
}
