//! The interface between the simulator engine and routing mechanisms.
//!
//! Routing is evaluated *on the fly*: every cycle, for every input VC whose head
//! packet has no output assignment yet, the engine calls
//! [`RoutingAlgorithm::route`] with a read-only [`RouterView`] of the local credit and
//! occupancy state.  The mechanism returns at most one candidate output; the engine
//! then tries to claim it under the flow-control rules and, on success, applies the
//! returned [`RouteUpdate`] to the packet.  If the claim fails the decision is simply
//! re-evaluated next cycle, which is exactly the paper's in-transit adaptivity.

use crate::config::{FlowControl, SimConfig};
use crate::packet::Packet;
use crate::router::{OutputPort, OutputVc};
use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, GroupId, Port, RouterId};

/// Read-only view of one router offered to the routing mechanism.
#[derive(Clone, Copy)]
pub struct RouterView<'a> {
    /// The router being routed at.
    pub router: RouterId,
    /// Output ports of the router (flat indexing).
    pub outputs: &'a [OutputPort],
    /// Topology parameters.
    pub params: &'a DragonflyParams,
    /// Simulation configuration (packet size, flow control, VC counts).
    pub config: &'a SimConfig,
    /// Piggybacked per-global-channel congestion flags of this router's group, when
    /// the mechanism uses them (indexed by global channel).
    pub global_congested: Option<&'a [bool]>,
}

impl<'a> RouterView<'a> {
    /// The output VC state behind a typed port/VC pair.
    #[inline]
    pub fn output(&self, port: Port, vc: usize) -> &OutputVc {
        &self.outputs[port.flat(self.params.h())].vcs[vc]
    }

    /// Downstream occupancy (phits) of a specific output VC.
    #[inline]
    pub fn occupancy(&self, port: Port, vc: usize) -> usize {
        self.output(port, vc).occupancy()
    }

    /// Total downstream occupancy of an output port over all VCs.
    #[inline]
    pub fn port_occupancy(&self, port: Port) -> usize {
        self.outputs[port.flat(self.params.h())].total_occupancy()
    }

    /// Number of phits that must be free downstream before a claim succeeds.
    #[inline]
    pub fn claim_phits(&self, packet: &Packet) -> usize {
        self.config.flow_control.claim_phits(packet.size_phits())
    }

    /// Whether `packet` could be granted `port`/`vc` this cycle: the output VC is free
    /// and the downstream buffer satisfies the flow-control condition.
    #[inline]
    pub fn can_claim(&self, port: Port, vc: usize, packet: &Packet) -> bool {
        let out = self.output(port, vc);
        out.is_free() && out.credits as usize >= self.claim_phits(packet)
    }

    /// Whether a whole packet currently fits in the downstream buffer of `port`/`vc`
    /// (the opportunistic condition of OLM, independent of the flow-control mode).
    #[inline]
    pub fn fits_whole_packet(&self, port: Port, vc: usize, packet: &Packet) -> bool {
        let out = self.output(port, vc);
        out.is_free() && out.credits as usize >= packet.size_phits()
    }

    /// The group this router belongs to.
    #[inline]
    pub fn group(&self) -> GroupId {
        self.params.group_of_router(self.router)
    }
}

/// Routing-state changes to apply to the packet if (and only if) the requested output
/// is granted this cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteUpdate {
    /// Commit to a Valiant intermediate group.
    pub set_intermediate_group: Option<GroupId>,
    /// Mark the packet as globally misrouted.
    pub mark_global_misroute: bool,
    /// Mark the packet as locally misrouted (in the current group).
    pub mark_local_misroute: bool,
    /// Record that the source-routed decision (Piggybacking / Valiant at injection)
    /// has been taken.
    pub mark_source_decision: bool,
    /// Parity-sign class of the local hop being taken (RLM bookkeeping).
    pub local_link_class: Option<u8>,
}

/// The output requested by the routing mechanism for the head packet of an input VC.
#[derive(Debug, Clone, Copy)]
pub struct RouteChoice {
    /// Requested output port.
    pub port: Port,
    /// Requested output VC (index within the port's VC set).
    pub vc: u8,
    /// State delta applied when the claim succeeds.
    pub update: RouteUpdate,
}

impl RouteChoice {
    /// A plain choice with no routing-state side effects.
    pub fn plain(port: Port, vc: u8) -> Self {
        Self {
            port,
            vc,
            update: RouteUpdate::default(),
        }
    }
}

/// Context shared by all routing invocations of one cycle.
pub struct RouteCtx<'a> {
    /// Current simulation cycle.
    pub cycle: u64,
    /// Topology parameters.
    pub params: &'a DragonflyParams,
    /// Simulation configuration.
    pub config: &'a SimConfig,
}

/// A deadlock-free routing mechanism.
pub trait RoutingAlgorithm: Send {
    /// Short display name (e.g. `"OLM"`).
    fn name(&self) -> &'static str;

    /// Number of local-port virtual channels the mechanism requires.
    fn required_local_vcs(&self) -> usize;

    /// Number of global-port virtual channels the mechanism requires.
    fn required_global_vcs(&self) -> usize;

    /// Whether the mechanism is safe under the given flow control (OLM requires VCT).
    fn supports_flow_control(&self, fc: FlowControl) -> bool {
        let _ = fc;
        true
    }

    /// Pick the output to request for `packet`, which sits at the head of an input VC
    /// of the router described by `view`.  Returning `None` stalls the packet for this
    /// cycle (the decision is re-evaluated next cycle).
    fn route(
        &self,
        ctx: &RouteCtx<'_>,
        packet: &Packet,
        view: &RouterView<'_>,
        rng: &mut Rng,
    ) -> Option<RouteChoice>;
}

/// Minimal routing with an ascending VC ladder: the engine's own test fixture
/// (the mechanisms live in `dragonfly_routing`, which depends on this crate).
///
/// Always follow the minimal path `l – g – l`, using local VC 0 before the global
/// hop, global VC 0, and local VC 1 in the destination group, which is
/// deadlock-free by Günther's argument.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BaselineMinimal;

#[cfg(test)]
impl BaselineMinimal {
    /// Create the baseline minimal routing.
    pub fn new() -> Self {
        Self
    }

    /// The ascending-ladder VC for a minimal hop.
    pub fn ladder_vc(port: Port, global_hops: u8) -> u8 {
        match port {
            Port::Global(_) => global_hops,
            Port::Local(_) => global_hops,
            Port::Terminal(_) => 0,
        }
    }
}

#[cfg(test)]
impl RoutingAlgorithm for BaselineMinimal {
    fn name(&self) -> &'static str {
        "Minimal"
    }

    fn required_local_vcs(&self) -> usize {
        2
    }

    fn required_global_vcs(&self) -> usize {
        1
    }

    fn route(
        &self,
        _ctx: &RouteCtx<'_>,
        packet: &Packet,
        view: &RouterView<'_>,
        _rng: &mut Rng,
    ) -> Option<RouteChoice> {
        let port = view.params.minimal_port(view.router, packet.dst);
        let vc = if port.is_terminal() {
            0
        } else {
            Self::ladder_vc(port, packet.route.global_hops)
        };
        Some(RouteChoice::plain(port, vc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};
    use dragonfly_topology::NodeId;

    #[test]
    fn baseline_minimal_metadata() {
        let m = BaselineMinimal::new();
        assert_eq!(m.name(), "Minimal");
        assert!(m.required_local_vcs() <= 3);
        assert!(m.supports_flow_control(FlowControl::Vct));
        assert!(m.supports_flow_control(FlowControl::Wormhole { flit_size: 10 }));
    }

    #[test]
    fn ladder_vc_follows_global_hops() {
        assert_eq!(BaselineMinimal::ladder_vc(Port::Local(0), 0), 0);
        assert_eq!(BaselineMinimal::ladder_vc(Port::Local(0), 1), 1);
        assert_eq!(BaselineMinimal::ladder_vc(Port::Global(0), 0), 0);
        assert_eq!(BaselineMinimal::ladder_vc(Port::Global(0), 1), 1);
        assert_eq!(BaselineMinimal::ladder_vc(Port::Terminal(0), 2), 0);
    }

    #[test]
    fn route_choice_plain_has_no_side_effects() {
        let c = RouteChoice::plain(Port::Local(3), 1);
        assert_eq!(c.port, Port::Local(3));
        assert_eq!(c.vc, 1);
        assert!(c.update.set_intermediate_group.is_none());
        assert!(!c.update.mark_global_misroute);
        assert!(!c.update.mark_local_misroute);
    }

    #[test]
    fn route_update_default_is_neutral() {
        let u = RouteUpdate::default();
        assert!(!u.mark_source_decision);
        assert!(u.local_link_class.is_none());
    }

    #[test]
    fn packet_id_index() {
        assert_eq!(PacketId(7).index(), 7);
        let p = Packet::new(PacketId(1), NodeId(0), NodeId(3), 8, 0);
        assert_eq!(p.id, PacketId(1));
    }
}
