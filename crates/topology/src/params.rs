//! The balanced maximum-size Dragonfly and all of its index arithmetic.

use crate::ids::{GroupId, NodeId, RouterId};
use crate::ports::{ports_per_router, Port};

/// Parameters of a balanced, maximum-size Dragonfly network.
///
/// The single integer `h` determines the whole system (see the crate docs).  All
/// methods are cheap, branch-light integer arithmetic so routing code can call them on
/// every hop of every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DragonflyParams {
    h: usize,
}

impl DragonflyParams {
    /// Create the parameters for a given `h ≥ 1`.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "dragonfly parameter h must be at least 1");
        Self { h }
    }

    /// The balancing parameter `h`.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Routers per group: `2h`.
    #[inline]
    pub fn routers_per_group(&self) -> usize {
        2 * self.h
    }

    /// Nodes attached to each router: `h`.
    #[inline]
    pub fn nodes_per_router(&self) -> usize {
        self.h
    }

    /// Nodes per group: `2h²`.
    #[inline]
    pub fn nodes_per_group(&self) -> usize {
        2 * self.h * self.h
    }

    /// Number of groups: `2h² + 1`.
    #[inline]
    pub fn groups(&self) -> usize {
        2 * self.h * self.h + 1
    }

    /// Total number of routers: `2h · (2h² + 1)`.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.routers_per_group() * self.groups()
    }

    /// Total number of nodes: `h · 2h · (2h² + 1)`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes_per_router() * self.num_routers()
    }

    /// Local ports per router: `2h − 1`.
    #[inline]
    pub fn local_ports(&self) -> usize {
        2 * self.h - 1
    }

    /// Global ports per router: `h`.
    #[inline]
    pub fn global_ports(&self) -> usize {
        self.h
    }

    /// Total flat ports per router (`4h − 1`).
    #[inline]
    pub fn ports_per_router(&self) -> usize {
        ports_per_router(self.h)
    }

    /// Global channels leaving each group: `2h²` (one per other group).
    #[inline]
    pub fn global_channels_per_group(&self) -> usize {
        2 * self.h * self.h
    }

    // ------------------------------------------------------------------
    // Identifier arithmetic
    // ------------------------------------------------------------------

    /// Group containing a router.
    #[inline]
    pub fn group_of_router(&self, r: RouterId) -> GroupId {
        GroupId((r.index() / self.routers_per_group()) as u32)
    }

    /// Index of a router within its group (`0 ..= 2h−1`).
    #[inline]
    pub fn router_index_in_group(&self, r: RouterId) -> usize {
        r.index() % self.routers_per_group()
    }

    /// Router with a given in-group index inside a group.
    #[inline]
    pub fn router_in_group(&self, g: GroupId, idx: usize) -> RouterId {
        debug_assert!(idx < self.routers_per_group());
        RouterId((g.index() * self.routers_per_group() + idx) as u32)
    }

    /// Router to which a node is attached.
    #[inline]
    pub fn router_of_node(&self, n: NodeId) -> RouterId {
        RouterId((n.index() / self.nodes_per_router()) as u32)
    }

    /// Index of a node within its router (`0 ..= h−1`), i.e. its terminal port.
    #[inline]
    pub fn node_index_in_router(&self, n: NodeId) -> usize {
        n.index() % self.nodes_per_router()
    }

    /// Node attached to terminal port `idx` of a router.
    #[inline]
    pub fn node_of_router(&self, r: RouterId, idx: usize) -> NodeId {
        debug_assert!(idx < self.nodes_per_router());
        NodeId((r.index() * self.nodes_per_router() + idx) as u32)
    }

    /// Group containing a node.
    #[inline]
    pub fn group_of_node(&self, n: NodeId) -> GroupId {
        self.group_of_router(self.router_of_node(n))
    }

    // ------------------------------------------------------------------
    // Local (intra-group) connectivity: complete graph K_{2h}
    // ------------------------------------------------------------------

    /// Local port of router `from_idx` that connects to router `to_idx` (both in-group
    /// indices).  Panics if `from_idx == to_idx` since routers have no self link.
    #[inline]
    pub fn local_port_to(&self, from_idx: usize, to_idx: usize) -> usize {
        assert_ne!(from_idx, to_idx, "a router has no local link to itself");
        debug_assert!(from_idx < self.routers_per_group() && to_idx < self.routers_per_group());
        if to_idx < from_idx {
            to_idx
        } else {
            to_idx - 1
        }
    }

    /// In-group index of the router reached through local port `port` of router
    /// `from_idx`.
    #[inline]
    pub fn local_neighbor_index(&self, from_idx: usize, port: usize) -> usize {
        debug_assert!(port < self.local_ports());
        if port < from_idx {
            port
        } else {
            port + 1
        }
    }

    /// The router reached from `r` through local port `port`.
    #[inline]
    pub fn local_neighbor(&self, r: RouterId, port: usize) -> RouterId {
        let g = self.group_of_router(r);
        let idx = self.router_index_in_group(r);
        self.router_in_group(g, self.local_neighbor_index(idx, port))
    }

    // ------------------------------------------------------------------
    // Global (inter-group) connectivity: complete graph K_{2h²+1}
    //
    // Channel `d ∈ [0, 2h²)` of group `g` connects to group `(g + d + 1) mod G`.  On
    // the remote side the same physical link is channel `2h² − 1 − d`.  Channel `d`
    // belongs to router `⌊d / h⌋` of the group, on its global port `d mod h`.  This is
    // the "consecutive" arrangement and yields the intermediate-group local-link
    // pathology for ADVG+h described in the paper.
    // ------------------------------------------------------------------

    /// Global channel index owned by global port `gport` of the router with in-group
    /// index `ridx`.
    #[inline]
    pub fn global_channel_of(&self, ridx: usize, gport: usize) -> usize {
        debug_assert!(ridx < self.routers_per_group() && gport < self.global_ports());
        ridx * self.h + gport
    }

    /// Owner of a global channel: `(in-group router index, global port)`.
    #[inline]
    pub fn global_channel_owner(&self, channel: usize) -> (usize, usize) {
        debug_assert!(channel < self.global_channels_per_group());
        (channel / self.h, channel % self.h)
    }

    /// The group reached through global channel `channel` of group `g`.
    #[inline]
    pub fn global_channel_target(&self, g: GroupId, channel: usize) -> GroupId {
        debug_assert!(channel < self.global_channels_per_group());
        GroupId(((g.index() + channel + 1) % self.groups()) as u32)
    }

    /// The global channel of `src` that reaches `dst` (the unique inter-group link).
    #[inline]
    pub fn channel_to_group(&self, src: GroupId, dst: GroupId) -> usize {
        assert_ne!(src, dst, "no global channel from a group to itself");
        let groups = self.groups();
        (dst.index() + groups - src.index() - 1) % groups
    }

    /// The router (global id) and global port of group `src` that own the link to
    /// group `dst`.
    #[inline]
    pub fn global_exit(&self, src: GroupId, dst: GroupId) -> (RouterId, usize) {
        let channel = self.channel_to_group(src, dst);
        let (ridx, gport) = self.global_channel_owner(channel);
        (self.router_in_group(src, ridx), gport)
    }

    /// The far end of global port `gport` of router `r`: the remote router and the
    /// remote global port.
    #[inline]
    pub fn global_neighbor(&self, r: RouterId, gport: usize) -> (RouterId, usize) {
        let g = self.group_of_router(r);
        let ridx = self.router_index_in_group(r);
        let channel = self.global_channel_of(ridx, gport);
        let remote_group = self.global_channel_target(g, channel);
        let remote_channel = self.global_channels_per_group() - 1 - channel;
        let (remote_ridx, remote_gport) = self.global_channel_owner(remote_channel);
        (
            self.router_in_group(remote_group, remote_ridx),
            remote_gport,
        )
    }

    /// Generic neighbour lookup: the router (or node) on the other side of `port` of
    /// router `r`, together with the port it arrives on.
    ///
    /// Terminal ports return the attached node encoded as a router-less endpoint: the
    /// caller is expected to treat `Port::Terminal` separately, so this method panics
    /// for terminals.
    #[inline]
    pub fn neighbor(&self, r: RouterId, port: Port) -> (RouterId, Port) {
        match port {
            Port::Local(p) => {
                let n = self.local_neighbor(r, p);
                let back = self
                    .local_port_to(self.router_index_in_group(n), self.router_index_in_group(r));
                (n, Port::Local(back))
            }
            Port::Global(p) => {
                let (n, back) = self.global_neighbor(r, p);
                (n, Port::Global(back))
            }
            Port::Terminal(_) => panic!("terminal ports have no router neighbour"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts_h8() {
        // The paper: h = 8 gives 129 supernodes of 16 routers, 2064 routers, 16512 nodes,
        // routers of 31 ports.
        let p = DragonflyParams::new(8);
        assert_eq!(p.groups(), 129);
        assert_eq!(p.routers_per_group(), 16);
        assert_eq!(p.num_routers(), 2064);
        assert_eq!(p.num_nodes(), 16512);
        assert_eq!(p.ports_per_router(), 31);
    }

    #[test]
    fn small_scale_counts() {
        let p = DragonflyParams::new(2);
        assert_eq!(p.groups(), 9);
        assert_eq!(p.routers_per_group(), 4);
        assert_eq!(p.num_routers(), 36);
        assert_eq!(p.num_nodes(), 72);
        assert_eq!(p.local_ports(), 3);
        assert_eq!(p.global_ports(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_h_rejected() {
        DragonflyParams::new(0);
    }

    #[test]
    fn node_router_group_round_trip() {
        let p = DragonflyParams::new(3);
        for n in 0..p.num_nodes() {
            let node = NodeId(n as u32);
            let r = p.router_of_node(node);
            let idx = p.node_index_in_router(node);
            assert_eq!(p.node_of_router(r, idx), node);
            let g = p.group_of_router(r);
            let ridx = p.router_index_in_group(r);
            assert_eq!(p.router_in_group(g, ridx), r);
            assert_eq!(p.group_of_node(node), g);
        }
    }

    #[test]
    fn local_ports_form_complete_graph() {
        let p = DragonflyParams::new(4);
        let a = p.routers_per_group();
        for i in 0..a {
            let mut reached = vec![false; a];
            for port in 0..p.local_ports() {
                let j = p.local_neighbor_index(i, port);
                assert_ne!(i, j);
                assert!(!reached[j], "duplicate neighbour");
                reached[j] = true;
                // And the inverse map agrees.
                assert_eq!(p.local_port_to(i, j), port);
            }
            assert_eq!(reached.iter().filter(|&&x| x).count(), a - 1);
        }
    }

    #[test]
    fn local_links_are_symmetric() {
        let p = DragonflyParams::new(4);
        let g = GroupId(5);
        for i in 0..p.routers_per_group() {
            for j in 0..p.routers_per_group() {
                if i == j {
                    continue;
                }
                let ri = p.router_in_group(g, i);
                let (nbr, back) = p.neighbor(ri, Port::Local(p.local_port_to(i, j)));
                assert_eq!(p.router_index_in_group(nbr), j);
                // Following the back port returns to ri.
                let (again, _) = p.neighbor(nbr, back);
                assert_eq!(again, ri);
            }
        }
    }

    #[test]
    fn every_group_pair_has_exactly_one_channel() {
        let p = DragonflyParams::new(3);
        let groups = p.groups();
        for src in 0..groups {
            let mut seen = vec![0usize; groups];
            for d in 0..p.global_channels_per_group() {
                let t = p.global_channel_target(GroupId(src as u32), d);
                seen[t.index()] += 1;
            }
            for (dst, count) in seen.iter().enumerate() {
                if dst == src {
                    assert_eq!(*count, 0, "group must not link to itself");
                } else {
                    assert_eq!(
                        *count, 1,
                        "groups {src}->{dst} must have exactly one channel"
                    );
                }
            }
        }
    }

    #[test]
    fn global_links_are_symmetric() {
        let p = DragonflyParams::new(3);
        for r in 0..p.num_routers() {
            let router = RouterId(r as u32);
            for gp in 0..p.global_ports() {
                let (remote, remote_port) = p.global_neighbor(router, gp);
                let (back, back_port) = p.global_neighbor(remote, remote_port);
                assert_eq!(back, router);
                assert_eq!(back_port, gp);
                assert_ne!(p.group_of_router(remote), p.group_of_router(router));
            }
        }
    }

    #[test]
    fn global_exit_agrees_with_channel_math() {
        let p = DragonflyParams::new(4);
        let src = GroupId(3);
        let dst = GroupId(20);
        let (router, gport) = p.global_exit(src, dst);
        assert_eq!(p.group_of_router(router), src);
        let (remote, _) = p.global_neighbor(router, gport);
        assert_eq!(p.group_of_router(remote), dst);
    }

    #[test]
    fn channel_to_group_inverse_of_target() {
        let p = DragonflyParams::new(4);
        for src in 0..p.groups() {
            for d in 0..p.global_channels_per_group() {
                let dst = p.global_channel_target(GroupId(src as u32), d);
                assert_eq!(p.channel_to_group(GroupId(src as u32), dst), d);
            }
        }
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn channel_to_self_rejected() {
        let p = DragonflyParams::new(2);
        p.channel_to_group(GroupId(1), GroupId(1));
    }

    #[test]
    #[should_panic(expected = "no local link to itself")]
    fn local_self_link_rejected() {
        let p = DragonflyParams::new(2);
        p.local_port_to(1, 1);
    }

    #[test]
    fn advg_plus_h_intermediate_hop_is_pathological() {
        // Recreate the analysis from the OFAR paper cited by the reproduction target:
        // under ADVG+h with Valiant routing, in almost every intermediate group the
        // packet must take one specific local hop of the form (e, e+1), concentrating
        // traffic on the "+1 ring" links.  Under ADVG+1 the entry and exit routers
        // coincide for most intermediate groups so no local hop is needed.
        let p = DragonflyParams::new(8);
        let h = p.h();
        let src = GroupId(0);
        let mut needs_hop_advg1 = 0usize;
        let mut needs_hop_advgh = 0usize;
        let mut total = 0usize;
        for (offset, counter) in [(1usize, &mut needs_hop_advg1), (h, &mut needs_hop_advgh)] {
            let dst = GroupId(offset as u32);
            for inter in 0..p.groups() {
                let ig = GroupId(inter as u32);
                if ig == src || ig == dst {
                    continue;
                }
                if offset == 1 {
                    total += 1;
                }
                // Entry router in the intermediate group (far end of src->inter channel).
                let (exit_router, gport) = p.global_exit(src, ig);
                let (entry, _) = p.global_neighbor(exit_router, gport);
                let entry_idx = p.router_index_in_group(entry);
                // Exit router of the intermediate group toward dst.
                let (exit, _) = p.global_exit(ig, dst);
                let exit_idx = p.router_index_in_group(exit);
                if entry_idx != exit_idx {
                    *counter += 1;
                }
            }
        }
        // ADVG+1: only a small fraction of intermediate groups require a local hop.
        assert!(
            needs_hop_advg1 * 4 < total,
            "ADVG+1 should rarely need intermediate local hops ({needs_hop_advg1}/{total})"
        );
        // ADVG+h: almost every intermediate group requires a local hop.
        assert!(
            needs_hop_advgh * 4 > 3 * total,
            "ADVG+h should almost always need an intermediate local hop ({needs_hop_advgh}/{total})"
        );
    }
}
