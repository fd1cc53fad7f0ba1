//! Input-buffered virtual-channel routers.

use crate::buffer::{PacketSlot, VcBuffer};
use crate::config::SimConfig;
use dragonfly_topology::{Port, RouterId};

/// One input virtual channel: its FIFO plus the output (port, VC) currently granted to
/// the packet at its head, if any.
#[derive(Debug)]
pub struct InputVc {
    /// The phit FIFO (a ring view over the router's shared [`Router::slot_pool`]).
    pub buffer: VcBuffer,
    /// Output assignment of the head packet: `(flat output port, output VC)`.
    pub route: Option<(u16, u8)>,
}

/// An input port: one [`InputVc`] per virtual channel.
#[derive(Debug)]
pub struct InputPort {
    /// Virtual channels of this input port.
    pub vcs: Vec<InputVc>,
}

impl InputPort {
    /// True when some VC of this port holds a packet slot (phits present, or a
    /// packet being cut through whose tail has not left yet).
    pub fn has_packets(&self) -> bool {
        self.vcs.iter().any(|vc| vc.buffer.packets() > 0)
    }
}

/// One output virtual channel: the credit count of the downstream buffer and the input
/// VC that currently owns it (a packet in transfer holds the VC from head to tail).
#[derive(Debug, Clone)]
pub struct OutputVc {
    /// Free phits currently available in the downstream input VC buffer.
    pub credits: usize,
    /// Capacity of the downstream buffer in phits.
    pub downstream_capacity: usize,
    /// Input `(flat port, VC)` whose head packet currently owns this output VC.
    pub owner: Option<(u16, u8)>,
}

impl OutputVc {
    /// Occupancy of the downstream buffer as seen through the credit counter.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.downstream_capacity - self.credits
    }

    /// True when the VC is not currently assigned to a packet.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.owner.is_none()
    }
}

/// An output port: its VCs plus a round-robin pointer for fair link scheduling.
#[derive(Debug)]
pub struct OutputPort {
    /// Virtual channels of this output port.
    pub vcs: Vec<OutputVc>,
    /// Round-robin pointer over VCs for the switch/link allocation stage.
    pub rr_next: usize,
}

impl OutputPort {
    /// True when some VC of this port is owned by a packet in transfer.
    pub fn has_owner(&self) -> bool {
        self.vcs.iter().any(|vc| vc.owner.is_some())
    }

    /// Total occupancy of the downstream buffers over all VCs of this port.
    pub fn total_occupancy(&self) -> usize {
        self.vcs.iter().map(|v| v.occupancy()).sum()
    }

    /// Total downstream capacity over all VCs of this port.
    pub fn total_capacity(&self) -> usize {
        self.vcs.iter().map(|v| v.downstream_capacity).sum()
    }
}

/// One router: input units, output units and allocation round-robin state.
#[derive(Debug)]
pub struct Router {
    /// Router identifier.
    pub id: RouterId,
    /// Input ports, indexed by flat port index.
    pub inputs: Vec<InputPort>,
    /// Output ports, indexed by flat port index.
    pub outputs: Vec<OutputPort>,
    /// Packet-slot backing storage shared by every input VC buffer of this
    /// router.  Each [`VcBuffer`] is a ring view over its own contiguous
    /// region of this pool; sizing comes from [`VcBuffer::slot_bound`], so
    /// the pool is one exact allocation per router instead of one `Vec` per
    /// VC.  Buffer methods take it explicitly (`vc.buffer.head(&r.slot_pool)`)
    /// so the borrow checker can see it is disjoint from `inputs`.
    pub slot_pool: Vec<PacketSlot>,
    /// Rotating offset used to vary the order in which input VCs are served.
    pub rr_alloc: usize,
}

impl Router {
    /// Build a router with the buffer geometry dictated by `config`.
    ///
    /// `downstream_capacity` must give, for every flat output port, the per-VC capacity
    /// of the input buffer at the far end of that port's link.
    pub fn new(id: RouterId, config: &SimConfig, downstream_capacity: &[usize]) -> Self {
        let h = config.params.h();
        let ports = config.params.ports_per_router();
        assert_eq!(downstream_capacity.len(), ports);
        let mut inputs = Vec::with_capacity(ports);
        let mut outputs = Vec::with_capacity(ports);
        let mut pool_len = 0usize;
        for (flat, &down) in downstream_capacity.iter().enumerate() {
            let port = Port::from_flat(flat, h);
            let vcs = config.vcs_for(port.kind());
            let in_capacity = config.buffer_for(port.kind());
            inputs.push(InputPort {
                vcs: (0..vcs)
                    .map(|_| {
                        let buffer = VcBuffer::new(in_capacity, config.packet_size, pool_len);
                        pool_len += VcBuffer::slot_bound(in_capacity, config.packet_size);
                        InputVc {
                            buffer,
                            route: None,
                        }
                    })
                    .collect(),
            });
            outputs.push(OutputPort {
                vcs: (0..vcs)
                    .map(|_| OutputVc {
                        credits: down,
                        downstream_capacity: down,
                        owner: None,
                    })
                    .collect(),
                rr_next: 0,
            });
        }
        Self {
            id,
            inputs,
            outputs,
            slot_pool: vec![PacketSlot::default(); pool_len],
            rr_alloc: 0,
        }
    }

    /// A router this network instance does not own (another shard does): it
    /// keeps its place in the router array, so ids stay global, and allocates
    /// nothing — no ports, no buffers, no slot pool.
    pub fn husk(id: RouterId) -> Self {
        Self {
            id,
            inputs: Vec::new(),
            outputs: Vec::new(),
            slot_pool: Vec::new(),
            rr_alloc: 0,
        }
    }

    /// Bytes of heap this router holds: `(slot pool, per-port vectors)`, each
    /// as capacity × element size.
    pub fn allocated_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let ports = self.inputs.capacity() * size_of::<InputPort>()
            + self.outputs.capacity() * size_of::<OutputPort>()
            + self
                .inputs
                .iter()
                .map(|p| p.vcs.capacity() * size_of::<InputVc>())
                .sum::<usize>()
            + self
                .outputs
                .iter()
                .map(|p| p.vcs.capacity() * size_of::<OutputVc>())
                .sum::<usize>();
        (self.slot_pool.capacity() * size_of::<PacketSlot>(), ports)
    }

    /// Total phits stored across all input buffers (diagnostics / conservation tests).
    pub fn stored_phits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|p| p.vcs.iter())
            .map(|vc| vc.buffer.occupancy())
            .sum()
    }

    /// True when every input buffer is empty and every output VC is free.
    pub fn is_idle(&self) -> bool {
        self.inputs.iter().all(|p| {
            p.vcs
                .iter()
                .all(|vc| vc.buffer.is_empty() && vc.route.is_none())
        }) && self
            .outputs
            .iter()
            .all(|p| p.vcs.iter().all(|vc| vc.owner.is_none()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use dragonfly_topology::PortKind;

    fn test_config() -> SimConfig {
        SimConfig::paper_vct(2)
    }

    fn downstream(config: &SimConfig) -> Vec<usize> {
        let h = config.params.h();
        (0..config.params.ports_per_router())
            .map(|flat| match Port::from_flat(flat, h).kind() {
                PortKind::Local => config.local_buffer,
                PortKind::Global => config.global_buffer,
                PortKind::Terminal => 1024,
            })
            .collect()
    }

    #[test]
    fn router_construction_geometry() {
        let config = test_config();
        let r = Router::new(RouterId(3), &config, &downstream(&config));
        assert_eq!(r.inputs.len(), config.params.ports_per_router());
        assert_eq!(r.outputs.len(), config.params.ports_per_router());
        // Local ports have 3 VCs of 32 phits; global ports 2 VCs of 256 phits.
        let local = &r.inputs[Port::Local(0).flat(2)];
        assert_eq!(local.vcs.len(), 3);
        assert_eq!(local.vcs[0].buffer.capacity(), 32);
        let global = &r.inputs[Port::Global(0).flat(2)];
        assert_eq!(global.vcs.len(), 2);
        assert_eq!(global.vcs[0].buffer.capacity(), 256);
        // Output credits start at the downstream capacity.
        let gout = &r.outputs[Port::Global(1).flat(2)];
        assert_eq!(gout.vcs[0].credits, config.global_buffer);
        assert_eq!(gout.vcs[0].occupancy(), 0);
        assert!(gout.vcs[0].is_free());
    }

    #[test]
    fn slot_pool_covers_every_vc_exactly() {
        let config = test_config();
        let r = Router::new(RouterId(1), &config, &downstream(&config));
        let expected: usize = r
            .inputs
            .iter()
            .flat_map(|p| p.vcs.iter())
            .map(|vc| VcBuffer::slot_bound(vc.buffer.capacity(), config.packet_size))
            .sum();
        assert_eq!(r.slot_pool.len(), expected);
    }

    #[test]
    fn vcs_use_disjoint_pool_regions() {
        // Fill two VCs of the same port through the shared pool and check
        // that neither sees the other's packet.
        let config = test_config();
        let mut r = Router::new(RouterId(0), &config, &downstream(&config));
        let flat = Port::Local(0).flat(2);
        let Router {
            inputs, slot_pool, ..
        } = &mut r;
        let vcs = &mut inputs[flat].vcs;
        vcs[0]
            .buffer
            .receive_phit(slot_pool, PacketId(10), config.packet_size as u16, true, 0);
        vcs[1]
            .buffer
            .receive_phit(slot_pool, PacketId(11), config.packet_size as u16, true, 0);
        assert_eq!(vcs[0].buffer.head(slot_pool).unwrap().packet, PacketId(10));
        assert_eq!(vcs[1].buffer.head(slot_pool).unwrap().packet, PacketId(11));
        assert_eq!(r.stored_phits(), 2);
    }

    #[test]
    fn fresh_router_is_idle() {
        let config = test_config();
        let r = Router::new(RouterId(0), &config, &downstream(&config));
        assert!(r.is_idle());
        assert_eq!(r.stored_phits(), 0);
    }

    #[test]
    fn a_husk_allocates_nothing() {
        let r = Router::husk(RouterId(5));
        assert_eq!(r.id, RouterId(5));
        assert_eq!(r.allocated_bytes(), (0, 0));
        assert!(r.is_idle());
        assert_eq!(r.stored_phits(), 0);
        let config = test_config();
        let built = Router::new(RouterId(5), &config, &downstream(&config));
        let (slots, ports) = built.allocated_bytes();
        assert_eq!(
            slots,
            built.slot_pool.len() * std::mem::size_of::<PacketSlot>()
        );
        assert!(ports > 0);
    }

    #[test]
    fn output_port_aggregates() {
        let config = test_config();
        let mut r = Router::new(RouterId(0), &config, &downstream(&config));
        let flat = Port::Local(1).flat(2);
        r.outputs[flat].vcs[0].credits -= 5;
        r.outputs[flat].vcs[1].credits -= 2;
        assert_eq!(r.outputs[flat].total_occupancy(), 7);
        assert_eq!(r.outputs[flat].total_capacity(), 3 * config.local_buffer);
        assert!(!r.is_idle() || r.stored_phits() == 0);
    }
}
