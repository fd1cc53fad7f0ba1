//! Input-buffered virtual-channel routers: the output side of each router.
//!
//! A router's input VCs are not here: every input VC of the network lives in
//! the network-level [`crate::buffer::InputFabric`], addressed by router id
//! through the [`crate::buffer::PortGeometry`] all routers share.

use crate::buffer::{pack_port_vc, unpack_port_vc};
use crate::config::SimConfig;
use dragonfly_topology::{Port, RouterId};

/// One output virtual channel: the credit count of the downstream buffer and the input
/// VC that currently owns it (a packet in transfer holds the VC from head to tail).
///
/// Twelve bytes: two `u32` phit counts (`SimConfig::validate` bounds every
/// buffer by `u32::MAX`) and the owner packed into a `u32`.
#[derive(Debug, Clone)]
pub struct OutputVc {
    /// Free phits currently available in the downstream input VC buffer.
    pub credits: u32,
    /// Capacity of the downstream buffer in phits.
    pub downstream_capacity: u32,
    /// Packed input `(flat port, VC)` owning this output VC (see [`OutputVc::owner`]).
    owner: u32,
}

impl OutputVc {
    /// A free output VC facing a downstream buffer of `capacity` phits, all
    /// of them credited.
    pub fn new(capacity: usize) -> Self {
        Self {
            credits: capacity as u32,
            downstream_capacity: capacity as u32,
            owner: pack_port_vc(None),
        }
    }

    /// Input `(flat port, VC)` whose head packet currently owns this output VC.
    #[inline]
    pub fn owner(&self) -> Option<(u16, u8)> {
        unpack_port_vc(self.owner)
    }

    /// Assign (`Some`) or release (`None`) this output VC.
    #[inline]
    pub fn set_owner(&mut self, owner: Option<(u16, u8)>) {
        self.owner = pack_port_vc(owner);
    }

    /// Occupancy of the downstream buffer as seen through the credit counter.
    #[inline]
    pub fn occupancy(&self) -> usize {
        (self.downstream_capacity - self.credits) as usize
    }

    /// True when the VC is not currently assigned to a packet.
    #[inline]
    pub fn is_free(&self) -> bool {
        self.owner().is_none()
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
        self.vcs.iter().any(|vc| !vc.is_free())
    }

    /// Total occupancy of the downstream buffers over all VCs of this port.
    pub fn total_occupancy(&self) -> usize {
        self.vcs.iter().map(|v| v.occupancy()).sum()
    }

    /// Total downstream capacity over all VCs of this port.
    pub fn total_capacity(&self) -> usize {
        self.vcs
            .iter()
            .map(|v| v.downstream_capacity as usize)
            .sum()
    }
}

/// One router: output units and the allocation round-robin state.
#[derive(Debug)]
pub struct Router {
    /// Router identifier.
    pub id: RouterId,
    /// Output ports, indexed by flat port index.
    pub outputs: Vec<OutputPort>,
    /// Rotating offset used to vary the order in which input VCs are served.
    pub rr_alloc: usize,
}

impl Router {
    /// Build a router with the output geometry dictated by `config`.
    ///
    /// `downstream_capacity` must give, for every flat output port, the per-VC capacity
    /// of the input buffer at the far end of that port's link.
    pub fn new(id: RouterId, config: &SimConfig, downstream_capacity: &[usize]) -> Self {
        let h = config.params.h();
        assert_eq!(downstream_capacity.len(), config.params.ports_per_router());
        let outputs = downstream_capacity
            .iter()
            .enumerate()
            .map(|(flat, &down)| OutputPort {
                vcs: vec![OutputVc::new(down); config.vcs_for(Port::from_flat(flat, h).kind())],
                rr_next: 0,
            })
            .collect();
        Self {
            id,
            outputs,
            rr_alloc: 0,
        }
    }

    /// A router this network instance does not own (another shard does): it
    /// keeps its place in the router array, so ids stay global, and allocates
    /// nothing.
    pub fn husk(id: RouterId) -> Self {
        Self {
            id,
            outputs: Vec::new(),
            rr_alloc: 0,
        }
    }

    /// Bytes of heap this router's output ports hold (capacity × element size).
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.outputs.capacity() * size_of::<OutputPort>()
            + self
                .outputs
                .iter()
                .map(|p| p.vcs.capacity() * size_of::<OutputVc>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{InputFabric, InputVc};
    use crate::packet::PacketArena;
    use dragonfly_topology::NodeId;
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

    fn router(id: u32, config: &SimConfig) -> Router {
        Router::new(RouterId(id), config, &downstream(config))
    }

    #[test]
    fn router_construction_geometry() {
        let config = test_config();
        let r = router(3, &config);
        let inputs = InputFabric::new(&config, 3..4);
        assert_eq!(r.outputs.len(), config.params.ports_per_router());
        // Local ports have 3 VCs of 32 phits; global ports 2 VCs of 256 phits.
        let local = Port::Local(0).flat(2);
        assert_eq!(inputs.port_vcs(3, local).len(), 3);
        assert_eq!(inputs.geometry().capacity(local, 0), 32);
        assert_eq!(inputs.free_space(3, local, 0), 32);
        let global = Port::Global(0).flat(2);
        assert_eq!(inputs.port_vcs(3, global).len(), 2);
        assert_eq!(inputs.geometry().capacity(global, 0), 256);
        // Output credits start at the downstream capacity.
        let gout = &r.outputs[Port::Global(1).flat(2)];
        assert_eq!(gout.vcs[0].credits as usize, config.global_buffer);
        assert_eq!(gout.vcs[0].occupancy(), 0);
        assert!(gout.vcs[0].is_free());
    }

    #[test]
    fn vcs_are_addressed_independently() {
        // Fill two VCs of the same port, and the same VC of the next router,
        // and check that none sees another's packet.
        let config = test_config();
        let mut inputs = InputFabric::new(&config, 4..6);
        let mut arena = PacketArena::new();
        let flat = Port::Local(0).flat(2);
        let size = config.packet_size as u16;
        let [p10, p11, p12] = [0, 1, 2].map(|_| arena.alloc(NodeId(0), NodeId(1), size, 0));
        for (router, vc, packet) in [(4, 0, p10), (4, 1, p11), (5, 0, p12)] {
            let occupancy = inputs.receive_phit(&mut arena, router, flat, vc, packet, Some(size));
            assert_eq!(occupancy, 1);
        }
        assert_eq!(inputs.vc(4, flat, 0).head(), Some(p10));
        assert_eq!(inputs.vc(4, flat, 1).head(), Some(p11));
        assert_eq!(inputs.vc(5, flat, 0).head(), Some(p12));
        assert!(inputs.vc(5, flat, 1).head().is_none());
        assert_eq!(inputs.stored_phits(), 3);
        assert_eq!(
            inputs.unrouted_heads(4, flat).collect::<Vec<_>>(),
            [(0, p10), (1, p11)]
        );
        inputs.set_route(4, flat, 0, Some((2, 1)));
        assert_eq!(inputs.vc(4, flat, 0).route(), Some((2, 1)));
        assert_eq!(inputs.unrouted_heads(4, flat).count(), 1);
        assert!(inputs.port_has_packets(4, flat));
        assert!(!inputs.port_has_packets(4, Port::Local(1).flat(2)));
        // Two routers' blocks of VCs and nothing else.
        assert_eq!(
            inputs.allocated_bytes(),
            2 * inputs.geometry().vcs_per_router() * std::mem::size_of::<InputVc>()
        );
    }

    #[test]
    fn fresh_router_is_idle() {
        let config = test_config();
        let r = router(0, &config);
        let inputs = InputFabric::new(&config, 0..1);
        assert!(r.outputs.iter().all(|p| !p.has_owner()));
        for p in 0..config.params.ports_per_router() {
            assert!(inputs
                .port_vcs(0, p)
                .iter()
                .all(|vc| vc.is_empty() && vc.route().is_none()));
        }
        assert_eq!(inputs.stored_phits(), 0);
    }

    #[test]
    fn a_husk_allocates_nothing() {
        let r = Router::husk(RouterId(5));
        assert_eq!(r.id, RouterId(5));
        assert_eq!(r.allocated_bytes(), 0);
        let config = test_config();
        let none = InputFabric::new(&config, 5..5);
        assert_eq!(none.allocated_bytes(), 0);
        let built = router(5, &config);
        let vcs: usize = built.outputs.iter().map(|p| p.vcs.len()).sum();
        assert_eq!(
            built.allocated_bytes(),
            built.outputs.len() * std::mem::size_of::<OutputPort>()
                + vcs * std::mem::size_of::<OutputVc>()
        );
    }

    #[test]
    fn output_port_aggregates() {
        let config = test_config();
        let mut r = router(0, &config);
        let flat = Port::Local(1).flat(2);
        r.outputs[flat].vcs[0].credits -= 5;
        r.outputs[flat].vcs[1].credits -= 2;
        assert_eq!(r.outputs[flat].total_occupancy(), 7);
        assert_eq!(r.outputs[flat].total_capacity(), 3 * config.local_buffer);
        assert!(!r.outputs[flat].has_owner());
        r.outputs[flat].vcs[2].set_owner(Some((4, 1)));
        assert_eq!(r.outputs[flat].vcs[2].owner(), Some((4, 1)));
        assert!(r.outputs[flat].has_owner());
        r.outputs[flat].vcs[2].set_owner(None);
        assert!(!r.outputs[flat].has_owner());
    }
}
