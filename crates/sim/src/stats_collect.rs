//! In-simulation statistics collection.
//!
//! [`StatsCollector`] is the one statistics accumulator of a run: the run-wide
//! record and every per-job and per-(job, phase) scope of a [`ScopedCollector`]
//! are `StatsCollector`s, recorded by the same code under the same rules.
//!
//! * **Window.** [`StatsCollector::begin_measurement`] opens the measurement
//!   window at a cycle and [`StatsCollector::end_measurement`] closes it at a
//!   later one; the window is the half-open span `[window_start, window_end)`
//!   of those two stamps.  Every event recorded while it is open happens at a
//!   cycle inside it.
//! * **Throughput** counts the phits generated and the phits and packets
//!   delivered while the window is open, whenever the packet was generated.
//! * **Latency, hops and misroutes** come only from *measured* packets (those
//!   generated inside the window, [`Packet::measured`]), whenever they are
//!   delivered: the drain after the window lets them finish.
//! * **Totals** count every generation and delivery of the run.
//! * **Scopes.** A job packet's generation and delivery are recorded into the
//!   run-wide collector and then into the scopes of the job and the phase that
//!   *generated* it, so a packet generated in phase `k` counts toward phase
//!   `k` even if it arrives after the phase boundary.  Every scope's window
//!   moves with the run-wide one.  Merging ([`StatsCollector::merge`]) the
//!   per-job scopes therefore gives the run-wide record of the job packets,
//!   and merging a job's phases gives the job (pinned by
//!   `tests/workload_scenarios.rs`).
//! * **Peaks** (packets in flight, buffered phits, one VC's occupancy) are
//!   run-wide: a scope leaves them at zero.

use crate::packet::{Packet, UNTAGGED};
use dragonfly_stats::{ExactStats, Histogram};

/// Latency-histogram bins of the per-job/per-phase scopes (smaller than the
/// run-wide histogram; p99 above this many cycles saturates at the bin range).
const SCOPED_LATENCY_BINS: usize = 32 * 1024;

/// Per-job and per-(job, phase) scopes, enabled when jobs are installed.
#[derive(Debug, Clone)]
pub struct ScopedCollector {
    /// One scope per job, covering the whole run.
    pub per_job: Vec<StatsCollector>,
    /// One scope per (job, phase), attributed by generation phase.
    pub per_phase: Vec<Vec<StatsCollector>>,
}

impl ScopedCollector {
    /// Merge another collector with the same job/phase shape into this one.
    fn merge(&mut self, other: &ScopedCollector) {
        assert_eq!(
            self.per_job.len(),
            other.per_job.len(),
            "scoped collectors must cover the same jobs to merge"
        );
        for (a, b) in self.per_job.iter_mut().zip(&other.per_job) {
            a.merge(b);
        }
        for (a, b) in self.per_phase.iter_mut().zip(&other.per_phase) {
            assert_eq!(a.len(), b.len(), "phase counts must match to merge");
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
        }
    }
}

/// Collects per-packet and per-window statistics during a run, under the
/// rules of the [module documentation](self).
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
    /// First cycle of the measurement window (inclusive).
    pub window_start: u64,
    /// End of the measurement window (exclusive): the cycle
    /// [`StatsCollector::end_measurement`] received.
    pub window_end: u64,
    /// Phits generated while the window was open.
    pub window_phits_injected: u64,
    /// Phits delivered while the window was open.
    pub window_phits_delivered: u64,
    /// Packets delivered while the window was open.
    pub window_packets_delivered: u64,
    /// Whether the measurement window is currently open.
    pub measuring: bool,
    /// Per-job/per-phase scopes (present when jobs are installed).
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
            window_start: 0,
            window_end: 0,
            window_phits_injected: 0,
            window_phits_delivered: 0,
            window_packets_delivered: 0,
            measuring: false,
            scoped: None,
            peak_in_flight_packets: 0,
            peak_buffered_phits: 0,
            peak_vc_occupancy: 0,
        }
    }

    /// Enable per-job/per-phase scopes for jobs with the given phase counts.
    /// Each scope starts empty, with the run-wide window state.
    pub fn enable_scoped(&mut self, phase_counts: &[usize]) {
        let scope = || {
            let mut s = StatsCollector::new(SCOPED_LATENCY_BINS);
            (s.window_start, s.window_end) = (self.window_start, self.window_end);
            s.measuring = self.measuring;
            s
        };
        self.scoped = Some(ScopedCollector {
            per_job: phase_counts.iter().map(|_| scope()).collect(),
            per_phase: phase_counts
                .iter()
                .map(|&phases| (0..phases).map(|_| scope()).collect())
                .collect(),
        });
    }

    /// Open the measurement window at `cycle` (here and in every scope),
    /// clearing the in-window counters.
    pub fn begin_measurement(&mut self, cycle: u64) {
        (self.window_start, self.window_end) = (cycle, cycle);
        self.window_phits_injected = 0;
        self.window_phits_delivered = 0;
        self.window_packets_delivered = 0;
        self.measuring = true;
        self.scopes_mut().for_each(|s| s.begin_measurement(cycle));
    }

    /// Close the measurement window at `cycle` (here and in every scope).
    pub fn end_measurement(&mut self, cycle: u64) {
        self.window_end = cycle;
        self.measuring = false;
        self.scopes_mut().for_each(|s| s.end_measurement(cycle));
    }

    /// Length of the measurement window in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_end.saturating_sub(self.window_start)
    }

    /// Record the generation of a packet of `size` phits.
    pub fn record_generated(&mut self, size: usize) {
        self.total_generated += 1;
        if self.measuring {
            self.window_phits_injected += size as u64;
        }
    }

    /// Record the generation of a job packet of `size` phits, attributed to
    /// `(job, phase)` (both [`UNTAGGED`] degrades to [`StatsCollector::record_generated`]).
    pub fn record_generated_tagged(&mut self, size: usize, job: u16, phase: u16) {
        self.record_generated(size);
        if let Some((job, phase)) = self.scopes_of(job, phase) {
            job.record_generated(size);
            phase.record_generated(size);
        }
    }

    /// Record the delivery of `packet` at `cycle`.
    pub fn record_delivery(&mut self, packet: &Packet, cycle: u64) {
        self.record_delivered(packet, cycle);
        if let Some((job, phase)) = self.scopes_of(packet.job, packet.phase) {
            job.record_delivered(packet, cycle);
            phase.record_delivered(packet, cycle);
        }
    }

    /// Record a delivery into this collector alone.
    fn record_delivered(&mut self, packet: &Packet, cycle: u64) {
        self.total_delivered += 1;
        if self.measuring {
            self.window_phits_delivered += packet.size as u64;
            self.window_packets_delivered += 1;
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
    }

    /// The job and phase scopes of a `(job, phase)` tag (`None` for an
    /// untagged packet or without scopes).
    fn scopes_of(&mut self, job: u16, phase: u16) -> Option<(&mut Self, &mut Self)> {
        if job == UNTAGGED {
            return None;
        }
        let scoped = self.scoped.as_mut()?;
        let job = job as usize;
        Some((
            &mut scoped.per_job[job],
            &mut scoped.per_phase[job][phase as usize],
        ))
    }

    /// Every scope (none without installed jobs).
    fn scopes_mut(&mut self) -> impl Iterator<Item = &mut StatsCollector> {
        self.scoped.iter_mut().flat_map(|scoped| {
            scoped
                .per_job
                .iter_mut()
                .chain(scoped.per_phase.iter_mut().flatten())
        })
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
    /// run-wide collector the reports are built from, and scope by scope.
    /// Every merged quantity is either an exact integer sum ([`ExactStats`],
    /// [`Histogram`], the packet and phit counters), a maximum (the peaks), or
    /// asserted equal (the measurement window), so the merged collector is
    /// byte-identical to the one a sequential run over the same events would
    /// have produced.
    pub fn merge(&mut self, other: &StatsCollector) {
        assert_eq!(
            (self.window_start, self.window_end, self.measuring),
            (other.window_start, other.window_end, other.measuring),
            "collectors must agree on the measurement window to merge"
        );
        self.latency.merge(&other.latency);
        self.latency_hist.merge(&other.latency_hist);
        self.hops.merge(&other.hops);
        self.delivered_global_misrouted += other.delivered_global_misrouted;
        self.delivered_local_misrouted += other.delivered_local_misrouted;
        self.measured_delivered += other.measured_delivered;
        self.total_generated += other.total_generated;
        self.total_delivered += other.total_delivered;
        self.window_phits_injected += other.window_phits_injected;
        self.window_phits_delivered += other.window_phits_delivered;
        self.window_packets_delivered += other.window_packets_delivered;
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
        s.record_generated(8);
        s.record_delivery(&delivered_packet(false, 0, 3, false, false), 50);
        assert_eq!(s.window_phits_delivered, 0);
        s.begin_measurement(100);
        s.record_generated(8);
        s.record_delivery(&delivered_packet(false, 10, 3, false, false), 150);
        s.end_measurement(200);
        // After the window: counted as totals only.
        s.record_generated(8);
        s.record_delivery(&delivered_packet(false, 120, 3, false, false), 250);
        assert_eq!(s.window_phits_delivered, 8);
        assert_eq!(s.window_packets_delivered, 1);
        assert_eq!(s.window_phits_injected, 8);
        assert_eq!(s.total_generated, 3);
        assert_eq!(s.total_delivered, 3);
        assert_eq!(s.in_flight(), 0);
        // Window length covers [100, 200).
        assert_eq!(s.window_cycles(), 100);
        // Reopening the window clears its counters.
        s.begin_measurement(300);
        assert_eq!(s.window_phits_injected, 0);
        assert_eq!(s.window_cycles(), 0);
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
        s.record_generated_tagged(8, 0, 0);
        s.record_generated_tagged(8, 0, 1);
        s.record_generated_tagged(8, 1, 0);
        // Untagged generation leaves the scopes alone.
        s.record_generated_tagged(8, UNTAGGED, UNTAGGED);
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
        assert_eq!(scoped.per_job[0].window_phits_delivered, 8);
        // Aggregate totals include everything.
        assert_eq!(s.total_generated, 4);
        assert_eq!(s.total_delivered, 1);
    }

    #[test]
    fn scopes_keep_their_window_in_step() {
        let mut s = StatsCollector::new(1000);
        s.begin_measurement(40);
        // Jobs installed inside an open window start in it.
        s.enable_scoped(&[1, 2]);
        s.record_generated_tagged(8, 1, 1);
        s.end_measurement(90);
        s.record_generated_tagged(8, 1, 1);
        let scoped = s.scoped.as_ref().unwrap();
        for scope in scoped
            .per_job
            .iter()
            .chain(scoped.per_phase.iter().flatten())
        {
            assert_eq!((scope.window_start, scope.window_end), (40, 90));
            assert!(!scope.measuring);
        }
        assert_eq!(scoped.per_phase[1][1].window_phits_injected, 8);
        assert_eq!(scoped.per_phase[1][1].total_generated, 2);
    }

    #[test]
    #[should_panic(expected = "agree on the measurement window")]
    fn merge_refuses_collectors_of_different_windows() {
        let (mut a, mut b) = (StatsCollector::new(10), StatsCollector::new(10));
        a.begin_measurement(5);
        b.begin_measurement(6);
        a.merge(&b);
    }

    #[test]
    fn fractions_zero_when_nothing_measured() {
        let s = StatsCollector::new(10);
        assert_eq!(s.global_misroute_fraction(), 0.0);
        assert_eq!(s.local_misroute_fraction(), 0.0);
        assert_eq!(s.in_flight(), 0);
    }
}
