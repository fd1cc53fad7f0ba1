//! The in-transit adaptive algorithm, written once: [`InTransit<P>`].
//!
//! PAR, PAR-6/2, RLM and OLM make the same decision at every router, every cycle:
//!
//! 1. take the **productive hop** (minimal, or toward the committed Valiant group)
//!    if it can be claimed now;
//! 2. at an ejection port, just wait;
//! 3. otherwise, in an intermediate/destination group, collect the **local detours**
//!    `cur → k → to` that are legal, claimable and pass the misrouting trigger, and
//!    pick one at random;
//! 4. otherwise, in the source group, draw [`GLOBAL_CANDIDATES`] intermediate groups
//!    and commit to the first whose first hop is legal, claimable and passes the
//!    trigger (a **global detour**: *direct* over this router's own global port,
//!    *indirect* over a local hop to the router that owns it);
//! 5. otherwise stall and ask again next cycle.
//!
//! What the paper says differs between the four is the [`MisroutePolicy`]: how many
//! local VCs there are and which one a productive local hop uses, which local
//! detours are legal and on which VC, and whether a non-productive local hop must
//! find room for the whole packet (the crate docs tabulate the four).  The skeleton
//! is statically dispatched over the policy and every hook is `#[inline]`, so each
//! `InTransit<P>` compiles to the straight-line `route()` a hand-written mechanism
//! would have.

use crate::common::{
    global_misroute_eligible, ladder_vc, local_detour_targets, local_misroute_eligible,
    next_productive_port, sample_intermediate_groups, valiant_update, AdaptiveParams,
    MisroutingTrigger, GLOBAL_CANDIDATES,
};
use dragonfly_rng::Rng;
use dragonfly_sim::{
    FlowControl, Packet, RouteChoice, RouteCtx, RouteState, RouteUpdate, RouterView,
    RoutingAlgorithm,
};
use dragonfly_topology::{GroupId, Port};

/// What distinguishes one in-transit adaptive mechanism from another.
///
/// Router positions (`from`, `to`, `k`) are in-group router indices.  Implement every
/// hook `#[inline]`.
pub trait MisroutePolicy: Send {
    /// Display name of the mechanism.
    const NAME: &'static str;
    /// Local virtual channels the deadlock-avoidance scheme needs (all four need two
    /// global ones).
    const LOCAL_VCS: usize;
    /// Whether a non-productive local hop — a local detour, or the local first hop of
    /// an indirect global detour — must find room for the **whole packet**
    /// ([`RouterView::fits_whole_packet`]) instead of what the flow control asks
    /// ([`RouterView::can_claim`], which every other hop uses).  A mechanism that
    /// needs this is only deadlock-free under Virtual Cut-Through.
    const WHOLE_PACKET_DETOURS: bool;

    /// VC of a productive local hop for a packet in this route state.
    fn local_vc(route: &RouteState) -> u8;

    /// Whether a local hop `from → to` may follow the packet's previous local hop in
    /// this group.
    #[inline]
    fn may_follow(&self, packet: &Packet, from: usize, to: usize) -> bool {
        let _ = (packet, from, to);
        true
    }

    /// The link class a granted local hop `from → to` records in the packet.
    #[inline]
    fn link_class(from: usize, to: usize) -> Option<u8> {
        let _ = (from, to);
        None
    }

    /// VC for the first hop of the local detour `cur → k → to`, or `None` when the
    /// detour is illegal (the default: no local misrouting at all).  Must be a pure
    /// function of its arguments.
    #[inline]
    fn local_detour_vc(
        &self,
        view: &RouterView<'_>,
        packet: &Packet,
        cur: usize,
        k: usize,
        to: usize,
    ) -> Option<u8> {
        let _ = (view, packet, cur, k, to);
        None
    }

    /// VC for the local hop `cur → to` that opens an indirect global detour through
    /// intermediate group `ig`, or `None` when the hop is illegal.
    #[inline]
    fn indirect_global_vc(
        &self,
        view: &RouterView<'_>,
        packet: &Packet,
        cur: usize,
        to: usize,
        ig: GroupId,
    ) -> Option<u8> {
        let _ = (view, cur, to, ig);
        Some(Self::local_vc(&packet.route))
    }
}

/// An in-transit adaptive mechanism: the shared decision procedure (module docs)
/// under misroute policy `P`.
#[derive(Debug, Clone, Copy)]
pub struct InTransit<P> {
    trigger: MisroutingTrigger,
    policy: P,
}

impl<P: Default> Default for InTransit<P> {
    fn default() -> Self {
        Self::new(AdaptiveParams::default())
    }
}

impl<P: Default> InTransit<P> {
    /// Create the mechanism with the given adaptive parameters.
    pub fn new(params: AdaptiveParams) -> Self {
        Self {
            trigger: MisroutingTrigger::new(params.threshold),
            policy: P::default(),
        }
    }

    /// Create the mechanism with an explicit misrouting threshold (Figure 10/11).
    pub fn with_threshold(threshold: f64) -> Self {
        Self::new(AdaptiveParams::with_threshold(threshold))
    }
}

impl<P: MisroutePolicy> RoutingAlgorithm for InTransit<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn required_local_vcs(&self) -> usize {
        P::LOCAL_VCS
    }

    fn required_global_vcs(&self) -> usize {
        2
    }

    fn supports_flow_control(&self, fc: FlowControl) -> bool {
        !P::WHOLE_PACKET_DETOURS || fc.is_vct()
    }

    fn route(
        &self,
        _ctx: &RouteCtx<'_>,
        packet: &Packet,
        view: &RouterView<'_>,
        rng: &mut Rng,
    ) -> Option<RouteChoice> {
        let params = view.params;
        let group = view.group();
        let cur = params.router_index_in_group(view.router);
        let policy = &self.policy;

        // 1. The productive hop is always preferred when it can be granted now.
        let minimal_port = next_productive_port(params, view.router, packet);
        let minimal_vc = ladder_vc(minimal_port, &packet.route, P::local_vc);
        let minimal_to = match minimal_port {
            Port::Local(p) => Some(params.local_neighbor_index(cur, p)),
            _ => None,
        };
        let minimal_legal = match minimal_to {
            Some(to) => policy.may_follow(packet, cur, to),
            None => true,
        };
        if minimal_legal && view.can_claim(minimal_port, minimal_vc as usize, packet) {
            return Some(RouteChoice {
                port: minimal_port,
                vc: minimal_vc,
                update: RouteUpdate {
                    local_link_class: minimal_to.and_then(|to| P::link_class(cur, to)),
                    ..RouteUpdate::default()
                },
            });
        }
        // 2. Ejection ports never stay blocked for long; just wait.
        if minimal_port.is_terminal() {
            return None;
        }
        let minimal_occ = view.occupancy(minimal_port, minimal_vc as usize);
        let acceptable = |port: Port, vc: u8, whole_packet: bool| {
            let vc = vc as usize;
            let claimable = if whole_packet {
                view.fits_whole_packet(port, vc, packet)
            } else {
                view.can_claim(port, vc, packet)
            };
            claimable && self.trigger.allows(view.occupancy(port, vc), minimal_occ)
        };

        // 3. Local misrouting in the intermediate / destination group: one uniform
        //    draw over the acceptable detour routers, kept as a bitmask over `k` (a
        //    router's ports already fit a 64-bit mask, and a group has fewer routers
        //    than a router has ports).
        if let Some(to) = minimal_to.filter(|_| local_misroute_eligible(params, group, packet)) {
            let mut acceptable_ks = 0u64;
            for k in local_detour_targets(params, cur, to) {
                if let Some(vc) = policy.local_detour_vc(view, packet, cur, k, to) {
                    let port = Port::Local(params.local_port_to(cur, k));
                    if acceptable(port, vc, P::WHOLE_PACKET_DETOURS) {
                        acceptable_ks |= 1 << k;
                    }
                }
            }
            if acceptable_ks != 0 {
                for _ in 0..rng.gen_index(acceptable_ks.count_ones() as usize) {
                    acceptable_ks &= acceptable_ks - 1;
                }
                let k = acceptable_ks.trailing_zeros() as usize;
                return Some(RouteChoice {
                    port: Port::Local(params.local_port_to(cur, k)),
                    vc: policy
                        .local_detour_vc(view, packet, cur, k, to)
                        .expect("an acceptable detour has a VC"),
                    update: RouteUpdate {
                        mark_local_misroute: true,
                        local_link_class: P::link_class(cur, k),
                        ..RouteUpdate::default()
                    },
                });
            }
        }

        // 4. Global misrouting in the source group (PAR style).  An indirect detour
        //    opens with a local hop of this group, which is non-productive and so
        //    answers to the policy like a local detour does.
        if global_misroute_eligible(params, group, packet) {
            let dst_group = params.group_of_node(packet.dst);
            for ig in sample_intermediate_groups::<GLOBAL_CANDIDATES>(params, group, dst_group, rng)
            {
                let port = params.port_toward_group(view.router, ig);
                let (vc, whole_packet, class) = match port {
                    Port::Local(p) => {
                        let to = params.local_neighbor_index(cur, p);
                        let Some(vc) = policy.indirect_global_vc(view, packet, cur, to, ig) else {
                            continue;
                        };
                        (vc, P::WHOLE_PACKET_DETOURS, P::link_class(cur, to))
                    }
                    _ => (ladder_vc(port, &packet.route, P::local_vc), false, None),
                };
                if acceptable(port, vc, whole_packet) {
                    return Some(RouteChoice {
                        port,
                        vc,
                        update: RouteUpdate {
                            local_link_class: class,
                            ..valiant_update(ig)
                        },
                    });
                }
            }
        }

        // 5. Nothing acceptable this cycle: wait and re-evaluate.
        None
    }
}

/// PAR — the original Progressive Adaptive Routing of Jiang, Kim & Dally (ISCA 2009)
/// with 4 local / 2 global virtual channels (paper Section II).
///
/// PAR can revisit its minimal-vs-Valiant decision after the first minimal local hop
/// in the source group, producing paths of up to six hops (`l l g l g l`) and
/// therefore needing a fourth local VC in the distance ladder.  It supports **no**
/// local misrouting, which is exactly the limitation PAR-6/2, RLM and OLM remove.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParPolicy;

impl MisroutePolicy for ParPolicy {
    const NAME: &'static str = "PAR";
    const LOCAL_VCS: usize = 4;
    const WHOLE_PACKET_DETOURS: bool = false;

    /// `l1 l2 g1 l3 g2 l4`: the two source-group local hops use VCs 0 and 1, the
    /// intermediate-group local hop VC 2 and the destination-group local hop VC 3.
    #[inline]
    fn local_vc(route: &RouteState) -> u8 {
        if route.global_hops == 0 {
            route.local_hops_in_group.min(1)
        } else {
            (route.global_hops + 1).min(3)
        }
    }
}

/// PAR-6/2 — the naïve reference: PAR extended with local misrouting, made
/// deadlock-free by a pure distance ladder that needs **six** local VCs (paper
/// Section III).
///
/// It has the full routing freedom of the paper's proposals (one local misroute per
/// intermediate/destination group) but pays for it with twice the local VC count of
/// RLM/OLM, which is exactly the cost the paper's new mechanisms avoid.
#[derive(Debug, Clone, Copy, Default)]
pub struct Par62Policy;

impl MisroutePolicy for Par62Policy {
    const NAME: &'static str = "PAR-6/2";
    const LOCAL_VCS: usize = 6;
    const WHOLE_PACKET_DETOURS: bool = false;

    /// Every local hop moves to a fresh local VC (`2·global_hops +
    /// local_hops_in_group`), reproducing `l1 l2 g1 l3 l4 g2 l5 l6`.
    #[inline]
    fn local_vc(route: &RouteState) -> u8 {
        (2 * route.global_hops + route.local_hops_in_group).min(5)
    }

    #[inline]
    fn local_detour_vc(
        &self,
        _view: &RouterView<'_>,
        packet: &Packet,
        _cur: usize,
        _k: usize,
        _to: usize,
    ) -> Option<u8> {
        Some(Self::local_vc(&packet.route))
    }
}

/// The PAR (4/2) mechanism.
pub type Par = InTransit<ParPolicy>;
/// The PAR-6/2 mechanism.
pub type Par62 = InTransit<Par62Policy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_routed::ValiantRouting;
    use dragonfly_sim::{SimConfig, Simulation};
    use dragonfly_traffic::{AdversarialGlobal, AdversarialLocal};

    fn route_state(global_hops: u8, local_hops_in_group: u8) -> RouteState {
        RouteState {
            global_hops,
            local_hops_in_group,
            ..RouteState::default()
        }
    }

    #[test]
    fn threshold_reaches_the_trigger() {
        assert!((Par::default().trigger.threshold - 0.45).abs() < 1e-12);
        assert!((Par62::with_threshold(0.3).trigger.threshold - 0.3).abs() < 1e-12);
    }

    #[test]
    fn par_ladder_follows_l_l_g_l_g_l() {
        let vc = |port, route: RouteState| ladder_vc(port, &route, ParPolicy::local_vc);
        assert_eq!(vc(Port::Local(0), route_state(0, 0)), 0);
        assert_eq!(vc(Port::Local(0), route_state(0, 1)), 1);
        assert_eq!(vc(Port::Global(0), route_state(0, 1)), 0);
        assert_eq!(vc(Port::Local(0), route_state(1, 0)), 2);
        assert_eq!(vc(Port::Global(0), route_state(1, 0)), 1);
        assert_eq!(vc(Port::Local(0), route_state(2, 0)), 3);
        assert_eq!(vc(Port::Terminal(0), route_state(2, 0)), 0);
    }

    #[test]
    fn par62_ladder_takes_a_fresh_vc_per_local_hop() {
        let vc = |port, route: RouteState| ladder_vc(port, &route, Par62Policy::local_vc);
        assert_eq!(vc(Port::Local(0), route_state(0, 0)), 0);
        assert_eq!(vc(Port::Local(0), route_state(0, 1)), 1);
        assert_eq!(vc(Port::Local(0), route_state(1, 0)), 2);
        assert_eq!(vc(Port::Local(0), route_state(1, 1)), 3);
        assert_eq!(vc(Port::Global(0), route_state(1, 1)), 1);
        assert_eq!(vc(Port::Local(0), route_state(2, 1)), 5);
    }

    #[test]
    fn par_never_misroutes_locally() {
        // PAR has no local misrouting; under ADVL+1 it can only escape through full
        // Valiant detours.
        let mut sim = Simulation::with_routing(
            SimConfig::paper_vct(2).with_local_vcs(4).with_seed(7),
            Par::default(),
            Box::new(AdversarialLocal::new(1)),
        );
        let report = sim.run_steady_state(0.9, 3_000, 4_000, 2_000);
        assert!(!report.deadlock_detected);
        assert_eq!(
            report.local_misroute_fraction, 0.0,
            "PAR must never misroute locally"
        );
    }

    fn par62_sim(
        h: usize,
        seed: u64,
        traffic: Box<dyn dragonfly_traffic::TrafficPattern>,
    ) -> Simulation<Par62> {
        Simulation::with_routing(
            SimConfig::paper_vct(h).with_local_vcs(6).with_seed(seed),
            Par62::default(),
            traffic,
        )
    }

    #[test]
    fn par62_advl_uses_local_misrouting_to_beat_one_over_h() {
        // ADVL+1 with h=2 caps single-path throughput at 1/h = 0.5; local misrouting
        // (plus the occasional Valiant detour) must push beyond it.
        let mut sim = par62_sim(2, 7, Box::new(AdversarialLocal::new(1)));
        let report = sim.run_steady_state(0.9, 3_000, 4_000, 2_000);
        assert!(!report.deadlock_detected);
        assert!(
            report.local_misroute_fraction > 0.05 || report.global_misroute_fraction > 0.05,
            "expected some misrouting under ADVL"
        );
        assert!(
            report.accepted_load > 0.5,
            "PAR-6/2 should beat the 1/h bound under ADVL+1, got {}",
            report.accepted_load
        );
    }

    #[test]
    fn par62_advg_plus_h_beats_valiant() {
        // ADVG+h saturates one local link per intermediate group under plain Valiant;
        // local misrouting works around it.
        let h = 2;
        let adv = || Box::new(AdversarialGlobal::new(h));
        let mut par = par62_sim(h, 11, adv());
        let par_report = par.run_steady_state(0.6, 3_000, 5_000, 2_000);
        let mut valiant = Simulation::with_routing(
            SimConfig::paper_vct(h).with_seed(11),
            ValiantRouting::new(),
            adv(),
        );
        let valiant_report = valiant.run_steady_state(0.6, 3_000, 5_000, 2_000);
        assert!(!par_report.deadlock_detected);
        assert!(
            par_report.accepted_load > valiant_report.accepted_load,
            "PAR-6/2 {} should beat Valiant {} under ADVG+h",
            par_report.accepted_load,
            valiant_report.accepted_load
        );
    }
}
