//! End-of-run reports produced by the simulator and consumed by the harness.

/// Result of a steady-state simulation (warm-up + measurement window).
///
/// This is the unit of data behind every latency/throughput point of the paper's
/// Figures 4, 5, 7, 8, 10 and 11.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Human-readable routing mechanism name (e.g. `"OLM"`).
    pub routing: String,
    /// Human-readable traffic pattern name (e.g. `"ADVG+1"`).
    pub traffic: String,
    /// Offered load requested, in phits/(node·cycle).
    pub offered_load: f64,
    /// Injected load actually generated during the window, in phits/(node·cycle).
    pub injected_load: f64,
    /// Accepted (delivered) load during the window, in phits/(node·cycle).
    pub accepted_load: f64,
    /// Mean packet latency in cycles (generation to full delivery), measured packets only.
    pub avg_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: f64,
    /// Maximum observed latency in cycles.
    pub max_latency_cycles: f64,
    /// Mean number of router-to-router hops per delivered packet.
    pub avg_hops: f64,
    /// Fraction of delivered packets that took at least one global misroute.
    pub global_misroute_fraction: f64,
    /// Fraction of delivered packets that took at least one local misroute.
    pub local_misroute_fraction: f64,
    /// Packets delivered inside the measurement window.
    pub packets_delivered: u64,
    /// Packets counted for latency (generated inside the window and delivered).
    pub packets_measured: u64,
    /// Number of warm-up cycles simulated before measurement.
    pub warmup_cycles: u64,
    /// Number of measured cycles.
    pub measure_cycles: u64,
    /// Whether the deadlock watchdog fired during the run.
    pub deadlock_detected: bool,
    /// Peak packets simultaneously in flight (generated but not yet delivered),
    /// sampled once per cycle over the whole run.  Memory-footprint telemetry
    /// toward larger topologies: each in-flight packet occupies one arena slot.
    pub peak_in_flight_packets: u64,
    /// Peak phits simultaneously stored across all router input buffers,
    /// sampled once per cycle over the whole run.
    pub peak_buffered_phits: u64,
    /// Peak occupancy (phits) reached by any single input-VC buffer.
    pub peak_vc_occupancy: u64,
}

impl SimReport {
    /// CSV header matching [`SimReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "routing,traffic,offered_load,injected_load,accepted_load,avg_latency,p99_latency,\
         max_latency,avg_hops,global_misroute_frac,local_misroute_frac,packets_delivered,\
         packets_measured,warmup_cycles,measure_cycles,deadlock,peak_in_flight_packets,\
         peak_buffered_phits,peak_vc_occupancy"
    }

    /// One CSV row (no trailing newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.4},{:.4},{:.4},{:.2},{:.2},{:.2},{:.3},{:.4},{:.4},{},{},{},{},{},{},{},{}",
            self.routing,
            self.traffic,
            self.offered_load,
            self.injected_load,
            self.accepted_load,
            self.avg_latency_cycles,
            self.p99_latency_cycles,
            self.max_latency_cycles,
            self.avg_hops,
            self.global_misroute_fraction,
            self.local_misroute_fraction,
            self.packets_delivered,
            self.packets_measured,
            self.warmup_cycles,
            self.measure_cycles,
            self.deadlock_detected,
            self.peak_in_flight_packets,
            self.peak_buffered_phits,
            self.peak_vc_occupancy
        )
    }
}

/// Result of a burst-consumption (batch) simulation: every node sends a fixed number
/// of packets and the network runs until all of them are delivered.
///
/// This is the unit of data behind Figures 6b and 9b.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Routing mechanism name.
    pub routing: String,
    /// Traffic pattern name.
    pub traffic: String,
    /// Packets generated per node.
    pub packets_per_node: u64,
    /// Total packets generated.
    pub packets_total: u64,
    /// Packets actually delivered (equals `packets_total` unless the run hit the
    /// cycle limit).
    pub packets_delivered: u64,
    /// Cycles needed to consume the whole burst.
    pub consumption_cycles: u64,
    /// Mean packet latency over the batch.
    pub avg_latency_cycles: f64,
    /// Whether the run stopped at the cycle limit before delivering everything.
    pub timed_out: bool,
    /// Whether the deadlock watchdog fired.
    pub deadlock_detected: bool,
}

impl BatchReport {
    /// CSV header matching [`BatchReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "routing,traffic,packets_per_node,packets_total,packets_delivered,\
         consumption_cycles,avg_latency,timed_out,deadlock"
    }

    /// One CSV row (no trailing newline).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{:.2},{},{}",
            self.routing,
            self.traffic,
            self.packets_per_node,
            self.packets_total,
            self.packets_delivered,
            self.consumption_cycles,
            self.avg_latency_cycles,
            self.timed_out,
            self.deadlock_detected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SimReport {
        SimReport {
            routing: "OLM".into(),
            traffic: "UN".into(),
            offered_load: 0.5,
            injected_load: 0.49,
            accepted_load: 0.48,
            avg_latency_cycles: 130.5,
            p99_latency_cycles: 300.0,
            max_latency_cycles: 512.0,
            avg_hops: 2.4,
            global_misroute_fraction: 0.1,
            local_misroute_fraction: 0.05,
            packets_delivered: 10_000,
            packets_measured: 9_500,
            warmup_cycles: 5_000,
            measure_cycles: 10_000,
            deadlock_detected: false,
            peak_in_flight_packets: 420,
            peak_buffered_phits: 900,
            peak_vc_occupancy: 32,
        }
    }

    #[test]
    fn csv_row_has_header_arity() {
        let report = sample_report();
        let header_cols = SimReport::csv_header().split(',').count();
        let row_cols = report.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
    }

    #[test]
    fn csv_row_contains_key_values() {
        let row = sample_report().csv_row();
        assert!(row.starts_with("OLM,UN,"));
        assert!(row.contains("0.4800"));
        assert!(row.ends_with("false,420,900,32"));
    }

    #[test]
    fn batch_csv_row_has_header_arity() {
        let report = BatchReport {
            routing: "RLM".into(),
            traffic: "ADVG+8/ADVL+1".into(),
            packets_per_node: 1000,
            packets_total: 16_512_000,
            packets_delivered: 16_512_000,
            consumption_cycles: 42_000,
            avg_latency_cycles: 900.0,
            timed_out: false,
            deadlock_detected: false,
        };
        assert_eq!(
            BatchReport::csv_header().split(',').count(),
            report.csv_row().split(',').count()
        );
        assert!(report.csv_row().contains("42000"));
    }
}
