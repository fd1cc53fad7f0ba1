//! What every routing mechanism shares: the packet's target, the productive hop,
//! the 3/2 VC ladder, the misrouting trigger and the paper's eligibility rules.
//!
//! The mechanisms differ only in the policy handed to one of the two skeletons
//! ([`crate::in_transit::InTransit`], [`crate::source_routed::SourceRouted`]); everything a
//! policy does *not* get to choose lives here.  Global misrouting (committing to a
//! Valiant intermediate group) is only allowed in the source group, at the injection
//! router or after one minimal local hop (as in PAR); local misrouting is allowed
//! once per intermediate/destination group; a non-minimal output is acceptable when
//! its downstream occupancy is below a fraction of the minimal output's.

use dragonfly_rng::Rng;
use dragonfly_sim::{Packet, RouteState, RouteUpdate};
use dragonfly_topology::{DragonflyParams, GroupId, NodeId, Port, RouterId};

/// The one tunable of the adaptive mechanisms.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveParams {
    /// Misrouting-trigger threshold: a non-minimal output is acceptable when its
    /// occupancy is below `threshold × occupancy(minimal output)`.
    pub threshold: f64,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        Self { threshold: 0.45 }
    }
}

impl AdaptiveParams {
    /// Create parameters with an explicit trigger threshold (e.g. for the Figure 10/11
    /// sweeps).
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        Self { threshold }
    }
}

/// Random intermediate groups an in-transit mechanism examines per global-misroute
/// attempt (the paper's value).
pub const GLOBAL_CANDIDATES: usize = 4;

/// The credit-based misrouting trigger of the paper.
#[derive(Debug, Clone, Copy)]
pub struct MisroutingTrigger {
    /// Threshold as a fraction of the minimal output occupancy.
    pub threshold: f64,
}

impl MisroutingTrigger {
    /// Create a trigger.
    pub fn new(threshold: f64) -> Self {
        Self { threshold }
    }

    /// Whether a candidate output with `candidate_occ` downstream phits may be used
    /// instead of a minimal output with `minimal_occ` downstream phits.
    ///
    /// When the minimal queue is empty (the minimal output is blocked for another
    /// reason, e.g. its VC is held by another packet), candidates with an empty queue
    /// are still acceptable.
    #[inline]
    pub fn allows(&self, candidate_occ: usize, minimal_occ: usize) -> bool {
        if minimal_occ == 0 {
            candidate_occ == 0
        } else {
            (candidate_occ as f64) < self.threshold * (minimal_occ as f64)
        }
    }
}

/// The Valiant intermediate group the packet has committed to and not reached yet.
#[inline]
pub fn pending_intermediate(packet: &Packet) -> Option<GroupId> {
    packet
        .route
        .intermediate_group
        .filter(|_| !packet.route.reached_intermediate)
}

/// The next hop of the minimal route from `router` to `dst`, heading to group `via`
/// first when one is given.  Returns a terminal port at the destination router.
///
/// Taking `via` explicitly is what lets a mechanism ask "where would this packet go
/// *if* it committed to intermediate group `g`" without cloning the packet.
#[inline]
pub fn productive_port(
    params: &DragonflyParams,
    router: RouterId,
    dst: NodeId,
    via: Option<GroupId>,
) -> Port {
    let dest_router = params.router_of_node(dst);
    if dest_router == router {
        return Port::Terminal(params.node_index_in_router(dst));
    }
    let current_group = params.group_of_router(router);
    let target = via.unwrap_or_else(|| params.group_of_router(dest_router));
    if target != current_group {
        params.port_toward_group(router, target)
    } else {
        let from = params.router_index_in_group(router);
        let to = params.router_index_in_group(dest_router);
        Port::Local(params.local_port_to(from, to))
    }
}

/// The packet's productive hop from `router`: [`productive_port`] toward its pending
/// intermediate group, if any.
#[inline]
pub fn next_productive_port(params: &DragonflyParams, router: RouterId, packet: &Packet) -> Port {
    productive_port(params, router, packet.dst, pending_intermediate(packet))
}

/// VC of a productive hop on `port`: ejection uses VC 0, a global hop the VC indexed
/// by the global hops already taken (every mechanism's two global VCs are used this
/// way), a local hop whatever the mechanism's `local` ladder says.
#[inline]
pub fn ladder_vc(port: Port, route: &RouteState, local: impl FnOnce(&RouteState) -> u8) -> u8 {
    match port {
        Port::Global(_) => route.global_hops.min(1),
        Port::Local(_) => local(route),
        Port::Terminal(_) => 0,
    }
}

/// Local ladder of the 3/2-VC mechanisms (Minimal, Valiant, Piggybacking, RLM, OLM):
/// the local VC indexed by the number of global hops already taken.
#[inline]
pub fn local_vc_3_2(route: &RouteState) -> u8 {
    route.global_hops.min(2)
}

/// The full 3/2 ladder: `lVC_k` / `gVC_k` after `k` global hops.
#[inline]
pub fn ladder_vc_3_2(port: Port, packet: &Packet) -> u8 {
    ladder_vc(port, &packet.route, local_vc_3_2)
}

/// The route-state commitment of a global misroute through intermediate group `ig`.
#[inline]
pub fn valiant_update(ig: GroupId) -> RouteUpdate {
    RouteUpdate {
        set_intermediate_group: Some(ig),
        mark_global_misroute: true,
        ..RouteUpdate::default()
    }
}

/// Whether the packet may still commit to a global misroute (Valiant path) here: only
/// in the source group, with at most one minimal local hop already taken (PAR rule),
/// and only once.
pub fn global_misroute_eligible(
    params: &DragonflyParams,
    view_group: GroupId,
    packet: &Packet,
) -> bool {
    if packet.route.global_misrouted || packet.route.global_hops != 0 {
        return false;
    }
    let dest_group = params.group_of_node(packet.dst);
    if dest_group == view_group {
        // Local traffic: a Valiant detour through another group is only taken straight
        // from the injection router.
        packet.route.local_hops_in_group == 0
    } else {
        packet.route.local_hops_in_group <= 1
    }
}

/// Whether a packet whose productive hop is a local one may misroute locally here:
/// it must not have taken a local hop in this group already, and — per the paper —
/// local misrouting is reserved for the intermediate and destination groups (which
/// includes the source group when the traffic is group-local).
pub fn local_misroute_eligible(
    params: &DragonflyParams,
    view_group: GroupId,
    packet: &Packet,
) -> bool {
    if packet.route.local_misrouted_in_group || packet.route.local_hops_in_group != 0 {
        return false;
    }
    let dest_group = params.group_of_node(packet.dst);
    packet.route.global_hops >= 1 || dest_group == view_group
}

/// Draw up to `N` distinct candidate intermediate groups, excluding the source and
/// destination groups, in draw order.
///
/// `route()` is the hottest call of the cycle loop and must not touch the heap (the
/// invariant pinned by `tests/zero_alloc.rs`), so the draws live in an inline array
/// whose capacity *is* the count: no bound is checked on the routing path.
pub fn sample_intermediate_groups<const N: usize>(
    params: &DragonflyParams,
    exclude_a: GroupId,
    exclude_b: GroupId,
    rng: &mut Rng,
) -> impl Iterator<Item = GroupId> {
    let groups = params.groups();
    let mut out = [GroupId(0); N];
    let mut len = 0;
    let mut attempts = 0;
    while len < N && attempts < N * 4 {
        attempts += 1;
        let g = GroupId(rng.gen_index(groups) as u32);
        if g == exclude_a || g == exclude_b || out[..len].contains(&g) {
            continue;
        }
        out[len] = g;
        len += 1;
    }
    out.into_iter().take(len)
}

/// In-group router indices usable as a local detour between `from` and `to` (all
/// routers except the two endpoints).  The policies filter this further (parity-sign
/// for RLM, VC space for OLM) and the skeleton applies the misrouting trigger.
pub fn local_detour_targets(
    params: &DragonflyParams,
    from: usize,
    to: usize,
) -> impl Iterator<Item = usize> {
    let routers = params.routers_per_group();
    (0..routers).filter(move |&k| k != from && k != to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_sim::PacketId;
    use dragonfly_topology::NodeId;

    fn packet(params: &DragonflyParams, src: u32, dst: u32) -> Packet {
        let _ = params;
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    #[test]
    fn trigger_threshold_semantics() {
        let t = MisroutingTrigger::new(0.5);
        assert!(t.allows(10, 30));
        assert!(!t.allows(15, 30));
        assert!(!t.allows(20, 30));
        // Empty minimal queue: only empty candidates qualify.
        assert!(t.allows(0, 0));
        assert!(!t.allows(1, 0));
    }

    #[test]
    fn adaptive_params_defaults_and_threshold() {
        let d = AdaptiveParams::default();
        assert!((d.threshold - 0.45).abs() < 1e-12);
        let s = AdaptiveParams::with_threshold(0.3);
        assert!((s.threshold - 0.3).abs() < 1e-12);
    }

    #[test]
    fn intermediate_is_pending_until_reached() {
        let params = DragonflyParams::new(2);
        let mut p = packet(&params, 0, (params.num_nodes() - 1) as u32);
        assert_eq!(pending_intermediate(&p), None);
        p.route.intermediate_group = Some(GroupId(3));
        assert_eq!(pending_intermediate(&p), Some(GroupId(3)));
        p.route.reached_intermediate = true;
        assert_eq!(pending_intermediate(&p), None);
    }

    #[test]
    fn productive_port_follows_minimal_path() {
        let params = DragonflyParams::new(2);
        let dst = NodeId((params.num_nodes() - 1) as u32);
        let p = packet(&params, 0, dst.0);
        // At the destination router the productive port is the terminal one.
        let dest_router = params.router_of_node(dst);
        let port = next_productive_port(&params, dest_router, &p);
        assert!(port.is_terminal());
        // At the source router it matches topology minimal routing.
        let src_router = params.router_of_node(NodeId(0));
        assert_eq!(
            next_productive_port(&params, src_router, &p),
            params.minimal_port(src_router, dst)
        );
    }

    #[test]
    fn productive_port_targets_intermediate_group_first() {
        let params = DragonflyParams::new(2);
        let dst = NodeId((params.num_nodes() - 1) as u32);
        let mut p = packet(&params, 0, dst.0);
        p.route.intermediate_group = Some(GroupId(4));
        let src_router = params.router_of_node(NodeId(0));
        let port = next_productive_port(&params, src_router, &p);
        assert_eq!(port, params.port_toward_group(src_router, GroupId(4)));
        // Asking "what if it committed to group 4" needs no packet at all.
        assert_eq!(
            productive_port(&params, src_router, dst, Some(GroupId(4))),
            port
        );
        p.route.reached_intermediate = true;
        assert_eq!(
            next_productive_port(&params, src_router, &p),
            productive_port(&params, src_router, dst, None)
        );
    }

    #[test]
    fn ladder_3_2_follows_global_hops() {
        let params = DragonflyParams::new(4);
        let mut p = packet(&params, 0, (params.num_nodes() - 1) as u32);
        assert_eq!(ladder_vc_3_2(Port::Local(0), &p), 0);
        p.route.local_hops_in_group = 1;
        assert_eq!(ladder_vc_3_2(Port::Local(0), &p), 0);
        p.route.global_hops = 1;
        p.route.local_hops_in_group = 0;
        assert_eq!(ladder_vc_3_2(Port::Local(0), &p), 1);
        assert_eq!(ladder_vc_3_2(Port::Global(0), &p), 1);
        p.route.global_hops = 2;
        p.route.local_hops_in_group = 1;
        assert_eq!(ladder_vc_3_2(Port::Local(0), &p), 2);
        assert_eq!(ladder_vc_3_2(Port::Global(0), &p), 1);
        assert_eq!(ladder_vc_3_2(Port::Terminal(0), &p), 0);
    }

    #[test]
    fn global_misroute_eligibility_rules() {
        let params = DragonflyParams::new(2);
        let remote_dst = (params.num_nodes() - 1) as u32;
        let mut p = packet(&params, 0, remote_dst);
        let src_group = params.group_of_node(NodeId(0));
        assert!(global_misroute_eligible(&params, src_group, &p));
        p.route.local_hops_in_group = 1;
        assert!(global_misroute_eligible(&params, src_group, &p));
        p.route.local_hops_in_group = 2;
        assert!(!global_misroute_eligible(&params, src_group, &p));
        p.route.local_hops_in_group = 0;
        p.route.global_misrouted = true;
        assert!(!global_misroute_eligible(&params, src_group, &p));
        // Local traffic: only straight from the injection router.
        let mut q = packet(&params, 0, 2); // node 2 is router 1 of group 0
        assert!(global_misroute_eligible(&params, src_group, &q));
        q.route.local_hops_in_group = 1;
        assert!(!global_misroute_eligible(&params, src_group, &q));
        // Once a global hop has been taken, never again.
        let mut r = packet(&params, 0, remote_dst);
        r.route.global_hops = 1;
        assert!(!global_misroute_eligible(&params, src_group, &r));
    }

    #[test]
    fn local_misroute_eligibility_rules() {
        let params = DragonflyParams::new(2);
        let src_group = params.group_of_node(NodeId(0));
        // Remote traffic in the source group: not eligible (that is global misrouting's
        // job).
        let p = packet(&params, 0, (params.num_nodes() - 1) as u32);
        assert!(!local_misroute_eligible(&params, src_group, &p));
        // After a global hop (intermediate/destination group) it becomes eligible,
        // once per group.
        let mut q = packet(&params, 0, (params.num_nodes() - 1) as u32);
        q.route.global_hops = 1;
        assert!(local_misroute_eligible(&params, src_group, &q));
        q.route.local_misrouted_in_group = true;
        assert!(!local_misroute_eligible(&params, src_group, &q));
        // Group-local traffic is eligible straight away.
        let r = packet(&params, 0, 2);
        assert!(local_misroute_eligible(&params, src_group, &r));
    }

    #[test]
    fn sampled_intermediates_exclude_endpoints() {
        let params = DragonflyParams::new(2);
        let mut rng = Rng::seed_from(3);
        for _ in 0..100 {
            let picks: Vec<GroupId> =
                sample_intermediate_groups::<4>(&params, GroupId(0), GroupId(5), &mut rng)
                    .collect();
            assert!(!picks.is_empty());
            assert!(picks.len() <= 4);
            for g in &picks {
                assert_ne!(*g, GroupId(0));
                assert_ne!(*g, GroupId(5));
            }
            let mut dedup = picks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), picks.len());
        }
    }

    #[test]
    fn detour_targets_exclude_endpoints() {
        let params = DragonflyParams::new(4);
        let targets: Vec<usize> = local_detour_targets(&params, 2, 5).collect();
        assert_eq!(targets.len(), params.routers_per_group() - 2);
        assert!(!targets.contains(&2));
        assert!(!targets.contains(&5));
    }
}
