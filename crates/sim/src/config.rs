//! Simulator configuration: flow control, buffer geometry, latencies and seeds.

use dragonfly_topology::{DragonflyParams, Port, PortKind};

/// Link-level flow control discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControl {
    /// Virtual Cut-Through: a packet only starts moving to the next buffer when the
    /// whole packet fits there.
    Vct,
    /// Wormhole: packets are divided into flits of `flit_size` phits; a flit advances
    /// when there is space for one flit downstream, so blocked packets can span
    /// several routers.
    Wormhole {
        /// Flit size in phits.
        flit_size: usize,
    },
}

impl FlowControl {
    /// The number of free downstream phits required before a packet (VCT) or its next
    /// flit (WH) may start crossing the switch.
    #[inline]
    pub fn claim_phits(&self, packet_size: usize) -> usize {
        match self {
            FlowControl::Vct => packet_size,
            FlowControl::Wormhole { flit_size } => (*flit_size).min(packet_size),
        }
    }

    /// Phits required at a flit boundary during transmission.
    #[inline]
    pub fn flit_phits(&self, packet_size: usize) -> usize {
        match self {
            FlowControl::Vct => 1,
            FlowControl::Wormhole { flit_size } => (*flit_size).min(packet_size),
        }
    }

    /// True for Virtual Cut-Through.
    #[inline]
    pub fn is_vct(&self) -> bool {
        matches!(self, FlowControl::Vct)
    }
}

/// Most ports a router may have: the engine tracks each router's occupied
/// input ports and owned output ports in one `u64` mask apiece.
pub const MAX_PORTS_PER_ROUTER: usize = u64::BITS as usize;

/// Most VCs a port may have: a link's credit slot is a `u8` mask with one
/// bit per VC (the largest VC count any mechanism needs is 6).
pub const MAX_VCS_PER_PORT: usize = u8::BITS as usize;

/// Longest link latency, in cycles: a link pipeline is a ring of
/// `latency + 1` slots, one per arrival cycle, and counts the up to
/// `MAX_VCS_PER_PORT × (latency + 1)` credits in flight in 16 bits.
pub const MAX_LINK_LATENCY: u64 = u16::MAX as u64 / MAX_VCS_PER_PORT as u64 - 1;

/// Full configuration of a simulation run.
///
/// Defaults follow the paper's methodology section: local links of 10 cycles, global
/// links of 100 cycles, 32-phit local FIFOs, 256-phit global FIFOs, 3 local / 2 global
/// VCs, 8-phit packets under VCT and 80-phit packets (8 flits of 10 phits) under WH.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Topology parameters.
    pub params: DragonflyParams,
    /// Flow-control discipline.
    pub flow_control: FlowControl,
    /// Packet size in phits.
    pub packet_size: usize,
    /// Local link latency in cycles.
    pub local_latency: u64,
    /// Global link latency in cycles.
    pub global_latency: u64,
    /// Injection/ejection link latency in cycles.
    pub terminal_latency: u64,
    /// Capacity of each local-port input VC, in phits.
    pub local_buffer: usize,
    /// Capacity of each global-port input VC, in phits.
    pub global_buffer: usize,
    /// Capacity of each injection-queue VC, in phits.
    pub injection_buffer: usize,
    /// Virtual channels per local port (and per injection port).
    pub local_vcs: usize,
    /// Virtual channels per global port.
    pub global_vcs: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Cycles without any phit movement (while packets are in flight) after which the
    /// deadlock watchdog fires.
    pub deadlock_threshold: u64,
    /// Occupancy fraction above which a global channel is advertised as congested to
    /// the Piggybacking mechanism.
    pub pb_congestion_threshold: f64,
    /// Explicit packet-arena preallocation in slots (`None` applies the
    /// [`SimConfig::arena_prealloc_for`] heuristic).  `Some(0)` forces a cold
    /// arena, which is useful for testing that preallocation never changes
    /// results.
    pub arena_prealloc: Option<usize>,
}

impl SimConfig {
    /// Paper configuration for Virtual Cut-Through (8-phit packets).
    pub fn paper_vct(h: usize) -> Self {
        Self {
            params: DragonflyParams::new(h),
            flow_control: FlowControl::Vct,
            packet_size: 8,
            local_latency: 10,
            global_latency: 100,
            terminal_latency: 1,
            local_buffer: 32,
            global_buffer: 256,
            injection_buffer: 32,
            local_vcs: 3,
            global_vcs: 2,
            seed: 1,
            deadlock_threshold: 50_000,
            pb_congestion_threshold: 0.3,
            arena_prealloc: None,
        }
    }

    /// Paper configuration for Wormhole (80-phit packets, 10-phit flits).
    pub fn paper_wormhole(h: usize) -> Self {
        Self {
            flow_control: FlowControl::Wormhole { flit_size: 10 },
            packet_size: 80,
            ..Self::paper_vct(h)
        }
    }

    /// Override the number of local VCs (e.g. 6 for PAR-6/2).
    pub fn with_local_vcs(mut self, vcs: usize) -> Self {
        assert!(vcs >= 1);
        self.local_vcs = vcs;
        self
    }

    /// Override the number of global VCs (e.g. 3 or 4 for head-of-line studies
    /// beyond the paper's 2).
    pub fn with_global_vcs(mut self, vcs: usize) -> Self {
        assert!(vcs >= 1);
        self.global_vcs = vcs;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the packet-arena preallocation (slots).  `0` forces a cold
    /// arena that grows on demand, exactly like the pre-preallocation engine.
    pub fn with_arena_prealloc(mut self, slots: usize) -> Self {
        self.arena_prealloc = Some(slots);
        self
    }

    /// Packet-arena slots to preallocate for a machine of `nodes` terminal
    /// nodes (a network instance owning part of it takes that part's share,
    /// see `Network::with_owned_routers`).
    ///
    /// The heuristic is 8 packets per node (clamped to at least 1024
    /// slots): the arena holds the packets whose head phit has entered the
    /// network (a source's backlog waits outside it), which the buffers bound,
    /// and 8/node comfortably covers every steady-state load below saturation
    /// in the paper's configurations.  Overflowing the
    /// preallocation is *not* an error — the slab grows and counts the event
    /// in [`crate::PacketArena::grows`].
    #[inline]
    pub fn arena_prealloc_for(&self, nodes: usize) -> usize {
        self.arena_prealloc.unwrap_or_else(|| (nodes * 8).max(1024))
    }

    /// Number of virtual channels of an output port of the given kind (and
    /// of the input port at the far end of its link).
    #[inline]
    pub fn vcs_for(&self, kind: PortKind) -> usize {
        match kind {
            PortKind::Local => self.local_vcs,
            PortKind::Global => self.global_vcs,
            PortKind::Terminal => self.local_vcs,
        }
    }

    /// Number of virtual channels of an input port of the given kind.  An
    /// injection (terminal) port has one: its node feeds a single FIFO.
    #[inline]
    pub fn input_vcs_for(&self, kind: PortKind) -> usize {
        match kind {
            PortKind::Terminal => 1,
            kind => self.vcs_for(kind),
        }
    }

    /// Capacity in phits of one input VC on a port of the given kind.
    #[inline]
    pub fn buffer_for(&self, kind: PortKind) -> usize {
        match kind {
            PortKind::Local => self.local_buffer,
            PortKind::Global => self.global_buffer,
            PortKind::Terminal => self.injection_buffer,
        }
    }

    /// Link latency of a port of the given kind.
    #[inline]
    pub fn latency_for(&self, kind: PortKind) -> u64 {
        match kind {
            PortKind::Local => self.local_latency,
            PortKind::Global => self.global_latency,
            PortKind::Terminal => self.terminal_latency,
        }
    }

    /// Latency of the link reached through `port`.
    #[inline]
    pub fn latency_for_port(&self, port: Port) -> u64 {
        self.latency_for(port.kind())
    }

    /// Sanity-check the configuration, panicking with a descriptive message if it is
    /// inconsistent (e.g. VCT with buffers smaller than a packet) or beyond a
    /// bound of the engine's packed state (each message names the field, the
    /// value and the bound).
    pub fn validate(&self) {
        assert!(self.packet_size >= 1, "packet size must be positive");
        // A packet's size and the phit counters of an input VC's head and
        // tail (`InputVc`) are `u16`.
        assert!(
            self.packet_size <= u16::MAX as usize,
            "packet_size = {} phits exceeds the {} a u16 phit counter holds",
            self.packet_size,
            u16::MAX
        );
        // A link's credit slot holds one bit per VC in a `u8` mask (which
        // also keeps every VC index a `u8`).
        for (field, vcs) in [
            ("local_vcs", self.local_vcs),
            ("global_vcs", self.global_vcs),
        ] {
            assert!(
                vcs <= MAX_VCS_PER_PORT,
                "{field} = {vcs} exceeds the {MAX_VCS_PER_PORT} VCs a u8 credit mask holds"
            );
        }
        // A link takes at least one cycle (the arrivals of a cycle are
        // drained before its launches), and its slot ring and counters
        // address at most `MAX_LINK_LATENCY` cycles.
        for (field, cycles) in [
            ("local_latency", self.local_latency),
            ("global_latency", self.global_latency),
            ("terminal_latency", self.terminal_latency),
        ] {
            assert!(
                (1..=MAX_LINK_LATENCY).contains(&cycles),
                "{field} = {cycles} cycles is outside the 1..={MAX_LINK_LATENCY} a link's \
                 slot ring and 16-bit credit counter address"
            );
        }
        for (field, phits) in [
            ("local_buffer", self.local_buffer),
            ("global_buffer", self.global_buffer),
            ("injection_buffer", self.injection_buffer),
        ] {
            // Output VCs count credits in a `u32` (the ejection side's
            // `max(4 × packet_size, injection_buffer)` is bounded with the
            // injection buffer, the packet size being a `u16`).
            assert!(
                phits <= u32::MAX as usize,
                "{field} = {phits} phits exceeds the {} a u32 credit counter holds",
                u32::MAX
            );
        }
        let ports = self.params.ports_per_router();
        assert!(
            ports <= MAX_PORTS_PER_ROUTER,
            "h = {} gives {ports} ports per router, above the {MAX_PORTS_PER_ROUTER} \
             a per-router port mask holds (h <= {})",
            self.params.h(),
            (MAX_PORTS_PER_ROUTER + 1) / 4
        );
        // Every link direction's slots sit in one pool addressed by `u32`
        // offsets.
        let h = self.params.h();
        let slots = self.params.num_routers() as u64
            * (0..ports)
                .map(|flat| self.latency_for_port(Port::from_flat(flat, h)) + 1)
                .sum::<u64>();
        assert!(
            slots <= u32::MAX as u64,
            "h = {h} with local_latency = {}, global_latency = {} and terminal_latency = {} \
             needs {slots} link slots, above the {} a u32 pool offset addresses",
            self.local_latency,
            self.global_latency,
            self.terminal_latency,
            u32::MAX
        );
        assert!(
            self.local_vcs >= 1 && self.global_vcs >= 1,
            "need at least one VC"
        );
        if self.flow_control.is_vct() {
            assert!(
                self.local_buffer >= self.packet_size,
                "VCT requires local buffers ({} phits) to hold a whole packet ({} phits)",
                self.local_buffer,
                self.packet_size
            );
            assert!(
                self.global_buffer >= self.packet_size,
                "VCT requires global buffers to hold a whole packet"
            );
            assert!(
                self.injection_buffer >= self.packet_size,
                "VCT requires injection buffers to hold a whole packet"
            );
        } else if let FlowControl::Wormhole { flit_size } = self.flow_control {
            assert!(flit_size >= 1, "flit size must be positive");
            assert!(
                self.local_buffer >= flit_size,
                "WH requires local buffers to hold at least one flit"
            );
            assert!(
                self.global_buffer >= flit_size,
                "WH requires global buffers (global_buffer = {} phits) to hold at least one \
                 flit ({flit_size} phits)",
                self.global_buffer
            );
            assert!(
                self.packet_size.is_multiple_of(flit_size),
                "packet size must be a whole number of flits"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vct_defaults() {
        let c = SimConfig::paper_vct(8);
        assert_eq!(c.params.h(), 8);
        assert_eq!(c.packet_size, 8);
        assert_eq!(c.local_latency, 10);
        assert_eq!(c.global_latency, 100);
        assert_eq!(c.local_buffer, 32);
        assert_eq!(c.global_buffer, 256);
        assert_eq!(c.local_vcs, 3);
        assert_eq!(c.global_vcs, 2);
        assert!(c.flow_control.is_vct());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "h = 17 gives 67 ports per router, above the 64")]
    fn port_mask_width_bounds_h() {
        // 4h - 1 ports: h = 16 fills 63 of the 64 mask bits, h = 17 needs 67.
        SimConfig::paper_vct(16).validate();
        SimConfig::paper_vct(17).validate();
    }

    #[test]
    fn paper_wormhole_defaults() {
        let c = SimConfig::paper_wormhole(8);
        assert_eq!(c.packet_size, 80);
        assert_eq!(c.flow_control, FlowControl::Wormhole { flit_size: 10 });
        assert!(!c.flow_control.is_vct());
        c.validate();
    }

    #[test]
    fn claim_phits_by_flow_control() {
        assert_eq!(FlowControl::Vct.claim_phits(8), 8);
        assert_eq!(FlowControl::Wormhole { flit_size: 10 }.claim_phits(80), 10);
        assert_eq!(FlowControl::Wormhole { flit_size: 10 }.claim_phits(4), 4);
        assert_eq!(FlowControl::Vct.flit_phits(8), 1);
        assert_eq!(FlowControl::Wormhole { flit_size: 10 }.flit_phits(80), 10);
    }

    #[test]
    fn builders_override_fields() {
        let c = SimConfig::paper_vct(4).with_local_vcs(6).with_seed(99);
        assert_eq!(c.local_vcs, 6);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn vcs_and_buffers_per_kind() {
        let c = SimConfig::paper_vct(4);
        assert_eq!(c.vcs_for(PortKind::Local), 3);
        assert_eq!(c.vcs_for(PortKind::Global), 2);
        assert_eq!(c.vcs_for(PortKind::Terminal), 3);
        assert_eq!(c.buffer_for(PortKind::Local), 32);
        assert_eq!(c.buffer_for(PortKind::Global), 256);
        assert_eq!(c.latency_for(PortKind::Global), 100);
        assert_eq!(c.latency_for_port(Port::Local(0)), 10);
        assert_eq!(c.latency_for_port(Port::Terminal(0)), 1);
    }

    #[test]
    #[should_panic(expected = "whole packet")]
    fn vct_small_buffer_rejected() {
        let mut c = SimConfig::paper_vct(2);
        c.local_buffer = 4;
        c.validate();
    }

    /// A global buffer smaller than a flit would starve every inter-group
    /// packet while intra-group traffic keeps the deadlock watchdog fed.
    #[test]
    #[should_panic(
        expected = "WH requires global buffers (global_buffer = 8 phits) to hold \
                               at least one flit (10 phits)"
    )]
    fn wormhole_small_global_buffer_rejected() {
        let mut c = SimConfig::paper_wormhole(2);
        c.global_buffer = 8;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "local_vcs = 9 exceeds the 8 VCs a u8 credit mask holds")]
    fn vc_count_bounded_by_the_u8_index() {
        SimConfig::paper_vct(2).with_local_vcs(8).validate();
        SimConfig::paper_vct(2).with_local_vcs(9).validate();
    }

    #[test]
    #[should_panic(expected = "global_vcs = 9 exceeds the 8 VCs a u8 credit mask holds")]
    fn global_vc_count_bounded_by_the_credit_mask() {
        let mut c = SimConfig::paper_vct(2);
        c.global_vcs = 8;
        c.validate();
        c.global_vcs = 9;
        c.validate();
    }

    #[test]
    #[should_panic(
        expected = "global_latency = 8191 cycles is outside the 1..=8190 a link's \
                               slot ring and 16-bit credit counter address"
    )]
    fn link_latency_bounded_by_the_slot_counters() {
        let mut c = SimConfig::paper_vct(2);
        c.global_latency = MAX_LINK_LATENCY;
        c.validate();
        c.global_latency = MAX_LINK_LATENCY + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "local_latency = 0 cycles is outside the 1..=8190")]
    fn link_latency_is_at_least_one_cycle() {
        let mut c = SimConfig::paper_vct(2);
        c.local_latency = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "terminal_latency = 70000 cycles is outside the 1..=8190")]
    fn terminal_latency_bounded_by_the_slot_counters() {
        let mut c = SimConfig::paper_vct(2);
        c.terminal_latency = 70_000;
        c.validate();
    }

    #[test]
    #[should_panic(
        expected = "needs 8471197728 link slots, above the 4294967295 a u32 pool \
                               offset addresses"
    )]
    fn link_slots_bounded_by_the_pool_offsets() {
        let mut c = SimConfig::paper_vct(16);
        c.global_latency = MAX_LINK_LATENCY;
        c.validate();
        c.local_latency = MAX_LINK_LATENCY;
        c.terminal_latency = MAX_LINK_LATENCY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "whole number of flits")]
    fn wormhole_ragged_packet_rejected() {
        let mut c = SimConfig::paper_wormhole(2);
        c.packet_size = 75;
        c.validate();
    }
}
