//! In-simulation statistics collection.

use crate::packet::{Packet, UNTAGGED};
use dragonfly_stats::{ExactStats, Histogram, ScopedStats, ThroughputMeter};

/// Latency-histogram bins of the per-job/per-phase accumulators (smaller than the
/// aggregate histogram; p99 above this many cycles saturates at the bin range).
const SCOPED_LATENCY_BINS: usize = 32 * 1024;

/// Per-job and per-(job, phase) breakdowns, enabled when jobs are installed.
#[derive(Debug, Clone)]
pub struct ScopedCollector {
    /// One accumulator per job, covering the whole run.
    pub per_job: Vec<ScopedStats>,
    /// One accumulator per (job, phase), attributed by generation phase.
    pub per_phase: Vec<Vec<ScopedStats>>,
}

impl ScopedCollector {
    fn new(phase_counts: &[usize]) -> Self {
        Self {
            per_job: phase_counts
                .iter()
                .map(|_| ScopedStats::new(SCOPED_LATENCY_BINS))
                .collect(),
            per_phase: phase_counts
                .iter()
                .map(|&phases| {
                    (0..phases)
                        .map(|_| ScopedStats::new(SCOPED_LATENCY_BINS))
                        .collect()
                })
                .collect(),
        }
    }

    /// Merge another collector with the same job/phase shape into this one.
    fn merge(&mut self, other: &ScopedCollector) {
        assert_eq!(
            self.per_job.len(),
            other.per_job.len(),
            "scoped collectors must cover the same jobs to merge"
        );
        for (a, b) in self.per_job.iter_mut().zip(other.per_job.iter()) {
            a.merge(b);
        }
        for (a, b) in self.per_phase.iter_mut().zip(other.per_phase.iter()) {
            assert_eq!(a.len(), b.len(), "phase counts must match to merge");
            for (x, y) in a.iter_mut().zip(b.iter()) {
                x.merge(y);
            }
        }
    }
}

/// Collects per-packet and per-window statistics during a run.
///
/// Latency, hop and misroute statistics only consider packets *generated inside the
/// measurement window* (standard steady-state methodology); throughput counts every
/// delivery that happens inside the window.
#[derive(Debug, Clone)]
pub struct StatsCollector {
    /// Latency of measured packets, in cycles.
    pub latency: ExactStats,
    /// Latency histogram (1-cycle bins) of measured packets.
    pub latency_hist: Histogram,
    /// Router-to-router hop count of measured packets.
    pub hops: ExactStats,
    /// Measured packets that took a global misroute.
    pub delivered_global_misrouted: u64,
    /// Measured packets that took at least one local misroute.
    pub delivered_local_misrouted: u64,
    /// Measured packets delivered so far.
    pub measured_delivered: u64,
    /// All packets ever generated.
    pub total_generated: u64,
    /// All packets ever delivered.
    pub total_delivered: u64,
    /// Throughput meter over the measurement window.
    pub meter: ThroughputMeter,
    /// Whether the measurement window is currently open.
    pub measuring: bool,
    /// Per-job/per-phase breakdowns (present when jobs are installed).
    pub scoped: Option<ScopedCollector>,
    /// Peak packets simultaneously in flight (generated − delivered), sampled
    /// once per cycle ([`StatsCollector::note_cycle_peaks`]).
    pub peak_in_flight_packets: u64,
    /// Peak phits stored across router input buffers, sampled once per cycle.
    pub peak_buffered_phits: u64,
    /// Peak occupancy (phits) of any single input-VC buffer.
    pub peak_vc_occupancy: u64,
}

impl StatsCollector {
    /// Create an empty collector.
    pub fn new(max_latency_bins: usize) -> Self {
        Self {
            latency: ExactStats::new(),
            latency_hist: Histogram::for_latency(max_latency_bins),
            hops: ExactStats::new(),
            delivered_global_misrouted: 0,
            delivered_local_misrouted: 0,
            measured_delivered: 0,
            total_generated: 0,
            total_delivered: 0,
            meter: ThroughputMeter::new(0),
            measuring: false,
            scoped: None,
            peak_in_flight_packets: 0,
            peak_buffered_phits: 0,
            peak_vc_occupancy: 0,
        }
    }

    /// Enable per-job/per-phase breakdowns for jobs with the given phase counts.
    pub fn enable_scoped(&mut self, phase_counts: &[usize]) {
        self.scoped = Some(ScopedCollector::new(phase_counts));
    }

    /// Open the measurement window at `cycle`.
    pub fn begin_measurement(&mut self, cycle: u64) {
        self.meter = ThroughputMeter::new(cycle);
        self.measuring = true;
    }

    /// Close the measurement window at `cycle`.
    pub fn end_measurement(&mut self, cycle: u64) {
        self.meter.tick(cycle.saturating_sub(1));
        self.measuring = false;
    }

    /// Advance the throughput window (call once per cycle while measuring).
    pub fn tick(&mut self, cycle: u64) {
        if self.measuring {
            self.meter.tick(cycle);
        }
    }

    /// Record the generation of a packet of `size` phits.
    pub fn record_generated(&mut self, size: usize, cycle: u64) {
        self.total_generated += 1;
        if self.measuring {
            self.meter.record_injection(size as u64, cycle);
        }
    }

    /// Record the generation of a job packet of `size` phits, attributed to
    /// `(job, phase)` (both [`UNTAGGED`] degrades to [`StatsCollector::record_generated`]).
    pub fn record_generated_tagged(&mut self, size: usize, cycle: u64, job: u16, phase: u16) {
        self.record_generated(size, cycle);
        if job == UNTAGGED {
            return;
        }
        let measuring = self.measuring;
        if let Some(scoped) = &mut self.scoped {
            scoped.per_job[job as usize].record_generated(size, measuring);
            scoped.per_phase[job as usize][phase as usize].record_generated(size, measuring);
        }
    }

    /// Record the delivery of `packet` at `cycle`.
    pub fn record_delivery(&mut self, packet: &Packet, cycle: u64) {
        self.total_delivered += 1;
        if self.measuring {
            self.meter.record_delivery(packet.size as u64, cycle);
        }
        if packet.measured {
            self.measured_delivered += 1;
            let latency = cycle - packet.gen_cycle;
            self.latency.push(latency);
            self.latency_hist.record(latency as f64);
            self.hops.push(packet.route.total_hops as u64);
            if packet.route.global_misrouted {
                self.delivered_global_misrouted += 1;
            }
            if packet.route.local_misrouted_ever {
                self.delivered_local_misrouted += 1;
            }
        }
        if packet.job != UNTAGGED {
            let measuring = self.measuring;
            if let Some(scoped) = &mut self.scoped {
                let measured = packet.measured.then(|| {
                    (
                        cycle - packet.gen_cycle,
                        packet.route.total_hops as u64,
                        packet.route.global_misrouted,
                        packet.route.local_misrouted_ever,
                    )
                });
                let size = packet.size as usize;
                scoped.per_job[packet.job as usize].record_delivered(size, measuring, measured);
                scoped.per_phase[packet.job as usize][packet.phase as usize]
                    .record_delivered(size, measuring, measured);
            }
        }
    }

    /// Fraction of measured packets that took a global misroute.
    pub fn global_misroute_fraction(&self) -> f64 {
        if self.measured_delivered == 0 {
            0.0
        } else {
            self.delivered_global_misrouted as f64 / self.measured_delivered as f64
        }
    }

    /// Fraction of measured packets that took a local misroute.
    pub fn local_misroute_fraction(&self) -> f64 {
        if self.measured_delivered == 0 {
            0.0
        } else {
            self.delivered_local_misrouted as f64 / self.measured_delivered as f64
        }
    }

    /// Packets generated but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.total_generated - self.total_delivered
    }

    /// Update the per-cycle memory-footprint peaks (called once per cycle by
    /// the engine with the run-wide in-flight packet count and the total phits
    /// stored in router buffers — in a sharded run, with the *global* sums, so
    /// every shard records the same peaks).
    #[inline]
    pub fn note_cycle_peaks(&mut self, in_flight_packets: u64, buffered_phits: u64) {
        if in_flight_packets > self.peak_in_flight_packets {
            self.peak_in_flight_packets = in_flight_packets;
        }
        if buffered_phits > self.peak_buffered_phits {
            self.peak_buffered_phits = buffered_phits;
        }
    }

    /// Track the peak occupancy of a single input-VC buffer (called after a
    /// phit is stored into a buffer).
    #[inline]
    pub fn note_vc_occupancy(&mut self, occupancy: usize) {
        if occupancy as u64 > self.peak_vc_occupancy {
            self.peak_vc_occupancy = occupancy as u64;
        }
    }

    /// Merge another collector into this one.
    ///
    /// Used by the sharded engine to combine per-shard collectors into the
    /// run-wide collector the reports are built from.  Every merged quantity is
    /// either an exact integer sum ([`ExactStats`], [`Histogram`], the packet
    /// and phit counters), a maximum (the peaks), or asserted equal (the
    /// measurement-window state), so the merged collector is byte-identical to
    /// the one a sequential run over the same events would have produced.
    pub fn merge(&mut self, other: &StatsCollector) {
        self.latency.merge(&other.latency);
        self.latency_hist.merge(&other.latency_hist);
        self.hops.merge(&other.hops);
        self.delivered_global_misrouted += other.delivered_global_misrouted;
        self.delivered_local_misrouted += other.delivered_local_misrouted;
        self.measured_delivered += other.measured_delivered;
        self.total_generated += other.total_generated;
        self.total_delivered += other.total_delivered;
        self.meter.merge(&other.meter);
        assert_eq!(
            self.measuring, other.measuring,
            "collectors must agree on the measurement state to merge"
        );
        match (&mut self.scoped, &other.scoped) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("collectors must agree on scoped breakdowns to merge"),
        }
        self.peak_in_flight_packets = self
            .peak_in_flight_packets
            .max(other.peak_in_flight_packets);
        self.peak_buffered_phits = self.peak_buffered_phits.max(other.peak_buffered_phits);
        self.peak_vc_occupancy = self.peak_vc_occupancy.max(other.peak_vc_occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use dragonfly_topology::NodeId;

    fn delivered_packet(measured: bool, gen: u64, hops: u8, global: bool, local: bool) -> Packet {
        let mut p = Packet::new(PacketId(0), NodeId(0), NodeId(9), 8, gen);
        p.measured = measured;
        p.route.total_hops = hops;
        p.route.global_misrouted = global;
        p.route.local_misrouted_ever = local;
        p
    }

    #[test]
    fn measurement_window_controls_throughput() {
        let mut s = StatsCollector::new(1000);
        // Before the window: counted as totals only.
        s.record_generated(8, 10);
        s.record_delivery(&delivered_packet(false, 0, 3, false, false), 50);
        assert_eq!(s.meter.phits_delivered, 0);
        s.begin_measurement(100);
        s.record_generated(8, 120);
        s.record_delivery(&delivered_packet(false, 10, 3, false, false), 150);
        s.end_measurement(200);
        assert_eq!(s.meter.phits_delivered, 8);
        assert_eq!(s.meter.phits_injected, 8);
        assert_eq!(s.total_generated, 2);
        assert_eq!(s.total_delivered, 2);
        assert_eq!(s.in_flight(), 0);
        // Window length covers [100, 200).
        assert_eq!(s.meter.window_cycles(), 100);
    }

    #[test]
    fn measured_packets_feed_latency_and_misroute_stats() {
        let mut s = StatsCollector::new(1000);
        s.begin_measurement(0);
        s.record_delivery(&delivered_packet(true, 100, 3, true, false), 250);
        s.record_delivery(&delivered_packet(true, 100, 5, false, true), 300);
        s.record_delivery(&delivered_packet(false, 100, 8, true, true), 400);
        assert_eq!(s.measured_delivered, 2);
        assert!((s.latency.mean() - 175.0).abs() < 1e-9);
        assert!((s.hops.mean() - 4.0).abs() < 1e-9);
        assert!((s.global_misroute_fraction() - 0.5).abs() < 1e-9);
        assert!((s.local_misroute_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(s.latency_hist.total(), 2);
    }

    #[test]
    fn tagged_records_feed_scoped_breakdowns() {
        let mut s = StatsCollector::new(1000);
        s.enable_scoped(&[2, 1]); // job 0 has 2 phases, job 1 has 1
        s.begin_measurement(0);
        s.record_generated_tagged(8, 10, 0, 0);
        s.record_generated_tagged(8, 20, 0, 1);
        s.record_generated_tagged(8, 30, 1, 0);
        // Untagged generation leaves the scoped accumulators alone.
        s.record_generated_tagged(8, 40, UNTAGGED, UNTAGGED);
        let mut p = delivered_packet(true, 10, 3, true, false);
        p.job = 0;
        p.phase = 1;
        s.record_delivery(&p, 150);
        let scoped = s.scoped.as_ref().unwrap();
        assert_eq!(scoped.per_job[0].total_generated, 2);
        assert_eq!(scoped.per_job[1].total_generated, 1);
        assert_eq!(scoped.per_phase[0][0].total_generated, 1);
        assert_eq!(scoped.per_phase[0][1].total_generated, 1);
        assert_eq!(scoped.per_job[0].total_delivered, 1);
        assert_eq!(scoped.per_phase[0][1].measured_delivered, 1);
        assert_eq!(scoped.per_phase[0][0].measured_delivered, 0);
        assert!((scoped.per_phase[0][1].latency.mean() - 140.0).abs() < 1e-9);
        assert_eq!(scoped.per_job[0].phits_delivered_in_window, 8);
        // Aggregate totals include everything.
        assert_eq!(s.total_generated, 4);
        assert_eq!(s.total_delivered, 1);
    }

    #[test]
    fn fractions_zero_when_nothing_measured() {
        let s = StatsCollector::new(10);
        assert_eq!(s.global_misroute_fraction(), 0.0);
        assert_eq!(s.local_misroute_fraction(), 0.0);
        assert_eq!(s.in_flight(), 0);
    }
}
