//! Input virtual-channel FIFOs, measured in phits, and the one flat fabric
//! that holds every input VC of the network.

use crate::config::{SimConfig, MAX_PORTS_PER_ROUTER, MAX_VCS_PER_PORT};
use crate::packet::{PacketArena, PacketId};
use dragonfly_topology::Port;
use std::ops::Range;

/// The packed "nothing" of a `(flat port, VC)` word: no route granted, no
/// owner.  A real pair packs to at most `0x3F07`.
const NO_PORT_VC: u16 = u16::MAX;

/// Pack an optional `(flat port, VC)` pair into one `u16`: a port below
/// [`MAX_PORTS_PER_ROUTER`] and a VC below [`MAX_VCS_PER_PORT`], the bounds
/// `SimConfig::check` enforces.
#[inline]
pub(crate) fn pack_port_vc(pair: Option<(u16, u8)>) -> u16 {
    match pair {
        Some((port, vc)) => {
            debug_assert!(
                (port as usize) < MAX_PORTS_PER_ROUTER && (vc as usize) < MAX_VCS_PER_PORT,
                "port {port} VC {vc} beyond the packed route word"
            );
            port << 8 | vc as u16
        }
        None => NO_PORT_VC,
    }
}

/// Inverse of [`pack_port_vc`].
#[inline]
pub(crate) fn unpack_port_vc(word: u16) -> Option<(u16, u8)> {
    (word != NO_PORT_VC).then_some((word >> 8, word as u8))
}

/// One input virtual channel: a FIFO of packets, counted in phits, plus the
/// output `(flat port, VC)` granted to the packet at its head, if any.
///
/// Phits of a packet arrive in order and never interleave with another
/// packet's inside one VC, and only the head forwards.  So only the *head*
/// packet has sent phits, only the *tail* packet can be partly received, and
/// every packet in between is whole: received in full, nothing sent.  Every
/// packet of a network is the configuration's `packet_size` phits, which the
/// [`PortGeometry`] holds, so the VC keeps only the two ends and their
/// counters — the head's phits sent, the tail's phits received — plus its
/// occupancy and packed route, in 16 bytes (two 4-byte ids, four 2-byte
/// counters: `SimConfig::check` bounds every buffer by `u16::MAX` phits, a
/// port below 64 and a VC below 8); the packets in between are a list
/// threaded through the [`PacketArena`]'s links (see there for why a packet
/// is linked in one VC at most).  A body phit, sent or received, touches
/// only this word; the arena is read or written at packet boundaries only:
/// a head appended behind a tail links the two, and a tail sent unlinks the
/// head and reads its successor's id.
#[derive(Debug, Clone, Copy)]
pub struct InputVc {
    head: PacketId,
    tail: PacketId,
    head_sent: u16,
    tail_received: u16,
    occupancy: u16,
    route: u16,
}

impl Default for InputVc {
    fn default() -> Self {
        Self {
            head: PacketId::NONE,
            tail: PacketId::NONE,
            head_sent: 0,
            tail_received: 0,
            occupancy: 0,
            route: NO_PORT_VC,
        }
    }
}

impl InputVc {
    /// Phits currently stored.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy as usize
    }

    /// True when no phit is stored and no packet is being cut through.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == PacketId::NONE
    }

    /// Output assignment of the head packet: `(flat output port, output VC)`.
    #[inline]
    pub fn route(&self) -> Option<(u16, u8)> {
        unpack_port_vc(self.route)
    }

    /// Grant (`Some`) or release (`None`) the head packet's output.
    #[inline]
    pub fn set_route(&mut self, route: Option<(u16, u8)>) {
        self.route = pack_port_vc(route);
    }

    /// The packet at the head of the FIFO (partly or fully present, or
    /// being cut through).
    #[inline]
    pub fn head(&self) -> Option<PacketId> {
        (self.head != PacketId::NONE).then_some(self.head)
    }

    /// Phits of the head packet forwarded so far.
    #[inline]
    pub fn head_sent(&self) -> u16 {
        self.head_sent
    }

    /// Phits of the head packet present in the buffer, ready to forward,
    /// for packets of `size` phits.
    #[inline]
    pub fn head_present(&self, size: u16) -> u16 {
        // A head with a packet behind it is received in full.
        let received = if self.head == self.tail {
            self.tail_received
        } else {
            size
        };
        received - self.head_sent
    }

    /// Receive one phit of a `size`-phit packet through a buffer of
    /// `capacity` phits.  `opens` is the packet when this is its head phit,
    /// which appends the packet at the tail of the FIFO (linking it behind
    /// the old tail in `arena`), and `None` for the phits after it: those
    /// carry no packet id and continue the open tail.  `is_tail` is the
    /// phit's tail flag.
    ///
    /// Panics if the buffer would overflow (the credit scheme must prevent
    /// this), or if the phits of two packets interleave within the VC: a head
    /// must find the previous tail complete, a body or tail phit must
    /// continue an open tail, and the tail flag must land exactly on the
    /// tail's last phit.
    pub fn receive_phit(
        &mut self,
        arena: &mut PacketArena,
        capacity: usize,
        size: u16,
        opens: Option<PacketId>,
        is_tail: bool,
    ) {
        assert!(
            (self.occupancy as usize) < capacity,
            "VC buffer overflow: credit accounting is broken"
        );
        if let Some(packet) = opens {
            if self.head == PacketId::NONE {
                self.head = packet;
                self.head_sent = 0;
            } else {
                assert!(
                    self.tail_received == size,
                    "phits of different packets interleaved within one VC: a head \
                     arrived with the tail at {} of {size} phits",
                    self.tail_received
                );
                arena.link_behind(self.tail, packet);
            }
            self.tail = packet;
            self.tail_received = 1;
        } else {
            assert!(
                self.head != PacketId::NONE && self.tail_received < size,
                "phits of different packets interleaved within one VC: a body phit \
                 arrived with no open tail"
            );
            self.tail_received += 1;
        }
        assert!(
            is_tail == (self.tail_received == size),
            "phits of different packets interleaved within one VC: phit {} of a \
             {size}-phit tail came with tail flag {is_tail}",
            self.tail_received
        );
        self.occupancy += 1;
    }

    /// Forward one phit of the head packet, of `size` phits.
    ///
    /// Returns the packet id and whether the forwarded phit was the tail
    /// (last) phit; when it is, the packet leaves the FIFO: it is unlinked
    /// in `arena` and the packet behind it, if any, becomes the head.
    /// Panics if no phit is available.
    pub fn send_phit(&mut self, arena: &mut PacketArena, size: u16) -> (PacketId, bool) {
        assert!(self.head != PacketId::NONE, "send from an empty VC buffer");
        assert!(
            self.head_present(size) > 0,
            "no phit of the head packet is present yet"
        );
        self.head_sent += 1;
        self.occupancy -= 1;
        let packet = self.head;
        let is_tail = self.head_sent == size;
        if is_tail {
            self.head_sent = 0;
            match arena.take_successor(packet) {
                Some(next) => self.head = next,
                None => {
                    debug_assert_eq!(packet, self.tail);
                    *self = Self {
                        route: self.route,
                        ..Self::default()
                    };
                }
            }
        }
        (packet, is_tail)
    }
}

/// The input-side shape every router shares, built once from the
/// configuration: for each flat port its first router-local VC, for each
/// router-local VC its phit capacity, and the size of every packet.  A
/// router's VCs are numbered port by port, VCs ascending.
#[derive(Debug, Clone)]
pub struct PortGeometry {
    /// First router-local VC of each flat port, then the VCs per router.
    first_vc: Vec<u32>,
    capacities: Vec<u32>,
    /// Phits of every packet (`SimConfig::packet_size`).
    packet_size: u16,
}

impl PortGeometry {
    /// The geometry `config` dictates: `input_vcs_for(kind)` VCs of
    /// `buffer_for(kind)` phits per port, and packets of `packet_size`
    /// phits.
    ///
    /// # Panics
    ///
    /// Panics when a capacity is 0 or above the `u16` an [`InputVc`]
    /// counts its occupancy in, or the packet size above the `u16` of its
    /// phit counters (`SimConfig::check` refuses both).
    pub fn new(config: &SimConfig) -> Self {
        let h = config.params.h();
        let ports = config.params.ports_per_router();
        let mut first_vc = Vec::with_capacity(ports + 1);
        let mut capacities = Vec::new();
        for flat in 0..ports {
            first_vc.push(capacities.len() as u32);
            let kind = Port::from_flat(flat, h).kind();
            let capacity = config.buffer_for(kind);
            assert!(capacity >= 1, "buffer capacity must be at least one phit");
            assert!(
                capacity <= u16::MAX as usize,
                "{capacity} phits exceed a VC's 16-bit occupancy"
            );
            capacities.extend(std::iter::repeat_n(
                capacity as u32,
                config.input_vcs_for(kind),
            ));
        }
        first_vc.push(capacities.len() as u32);
        Self {
            first_vc,
            capacities,
            packet_size: u16::try_from(config.packet_size)
                .expect("a packet size beyond a VC's 16-bit phit counters"),
        }
    }

    /// Input VCs per router, over all ports.
    #[inline]
    pub fn vcs_per_router(&self) -> usize {
        self.capacities.len()
    }

    /// Router-local indices of the VCs of flat `port`.
    #[inline]
    pub fn port_vcs(&self, port: usize) -> Range<usize> {
        self.first_vc[port] as usize..self.first_vc[port + 1] as usize
    }

    /// Capacity in phits of VC `vc` of flat `port`.
    #[inline]
    pub fn capacity(&self, port: usize, vc: usize) -> usize {
        self.capacities[self.first_vc[port] as usize + vc] as usize
    }
}

/// Every input VC of the routers a network instance owns: one
/// `Vec<InputVc>`, a run of identical per-router blocks laid out by the
/// shared [`PortGeometry`] — what [`crate::fabric::LinkFabric`] is for
/// links.  The packets a VC holds are listed through the [`PacketArena`],
/// which every receive and send takes.
///
/// Router ids stay global; owned router `r`'s block sits at `r - base`.  A
/// router outside the owned range has no block, and addressing one panics.
#[derive(Debug)]
pub struct InputFabric {
    geometry: PortGeometry,
    /// First owned router.
    base: usize,
    vcs: Vec<InputVc>,
}

impl InputFabric {
    /// Empty input VCs for the routers in `owned`, shaped by `config`.
    pub fn new(config: &SimConfig, owned: Range<usize>) -> Self {
        let geometry = PortGeometry::new(config);
        let vcs = vec![InputVc::default(); owned.len() * geometry.vcs_per_router()];
        Self {
            geometry,
            base: owned.start,
            vcs,
        }
    }

    /// The shape every router's input side shares.
    pub fn geometry(&self) -> &PortGeometry {
        &self.geometry
    }

    /// Index into `vcs` of VC `vc` of `port` at `router`.
    #[inline]
    fn locate(&self, router: usize, port: usize, vc: usize) -> usize {
        (router - self.base) * self.geometry.vcs_per_router()
            + self.geometry.first_vc[port] as usize
            + vc
    }

    /// The VCs of `port` at `router`, VC 0 first.
    #[inline]
    pub fn port_vcs(&self, router: usize, port: usize) -> &[InputVc] {
        let start = (router - self.base) * self.geometry.vcs_per_router();
        let range = self.geometry.port_vcs(port);
        &self.vcs[start + range.start..start + range.end]
    }

    /// VC `vc` of `port` at `router`.
    #[inline]
    pub fn vc(&self, router: usize, port: usize, vc: usize) -> &InputVc {
        &self.vcs[self.locate(router, port, vc)]
    }

    /// Free space in phits of VC `vc` of `port` at `router`.
    #[inline]
    pub fn free_space(&self, router: usize, port: usize, vc: usize) -> usize {
        self.geometry.capacity(port, vc) - self.vc(router, port, vc).occupancy()
    }

    /// The VCs of `port` at `router` whose head packet has no output granted
    /// yet, ascending, with that head — what the routing phase routes.
    #[inline]
    pub fn unrouted_heads(
        &self,
        router: usize,
        port: usize,
    ) -> impl Iterator<Item = (usize, PacketId)> + '_ {
        self.port_vcs(router, port)
            .iter()
            .enumerate()
            .filter(|(_, ivc)| ivc.route == NO_PORT_VC)
            .filter_map(|(vc, ivc)| ivc.head().map(|head| (vc, head)))
    }

    /// Receive one phit into VC `vc` of `port` at `router` (see
    /// [`InputVc::receive_phit`]) and return the VC's new occupancy.
    #[inline]
    pub fn receive_phit(
        &mut self,
        arena: &mut PacketArena,
        router: usize,
        port: usize,
        vc: usize,
        opens: Option<PacketId>,
        is_tail: bool,
    ) -> usize {
        let capacity = self.geometry.capacity(port, vc);
        let size = self.geometry.packet_size;
        let i = self.locate(router, port, vc);
        let ivc = &mut self.vcs[i];
        ivc.receive_phit(arena, capacity, size, opens, is_tail);
        ivc.occupancy()
    }

    /// Forward one phit of the head packet of VC `vc` of `port` at `router`
    /// (see [`InputVc::send_phit`]).
    #[inline]
    pub fn send_phit(
        &mut self,
        arena: &mut PacketArena,
        router: usize,
        port: usize,
        vc: usize,
    ) -> (PacketId, bool) {
        let i = self.locate(router, port, vc);
        self.vcs[i].send_phit(arena, self.geometry.packet_size)
    }

    /// Grant (`Some`) or release (`None`) the output of the head packet of
    /// VC `vc` of `port` at `router`.
    #[inline]
    pub fn set_route(&mut self, router: usize, port: usize, vc: usize, route: Option<(u16, u8)>) {
        let i = self.locate(router, port, vc);
        self.vcs[i].set_route(route);
    }

    /// True when some VC of `port` at `router` holds a packet (phits
    /// present, or a packet being cut through whose tail has not left yet).
    #[inline]
    pub fn port_has_packets(&self, router: usize, port: usize) -> bool {
        self.port_vcs(router, port).iter().any(|vc| !vc.is_empty())
    }

    /// Total phits stored across every owned input buffer.
    pub fn stored_phits(&self) -> usize {
        self.vcs.iter().map(InputVc::occupancy).sum()
    }

    /// Heap bytes of the VC array (capacity × element size).
    pub fn allocated_bytes(&self) -> usize {
        self.vcs.capacity() * std::mem::size_of::<InputVc>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_topology::NodeId;

    /// One VC of `capacity` phits carrying packets of `size` phits, and the
    /// arena its packets live in.
    struct Fifo {
        vc: InputVc,
        arena: PacketArena,
        capacity: usize,
        size: u16,
    }

    fn fifo(capacity: usize, size: u16) -> Fifo {
        Fifo {
            vc: InputVc::default(),
            arena: PacketArena::with_capacity(8),
            capacity,
            size,
        }
    }

    impl Fifo {
        fn packet(&mut self) -> PacketId {
            self.arena.alloc(NodeId(0), NodeId(1), self.size, 0)
        }

        /// Receive phit `i` of `packet`: its head carries the id, its last
        /// phit the tail flag.
        fn receive(&mut self, packet: PacketId, i: u16) {
            self.vc.receive_phit(
                &mut self.arena,
                self.capacity,
                self.size,
                (i == 0).then_some(packet),
                i + 1 == self.size,
            );
        }

        fn receive_whole(&mut self, packet: PacketId) {
            for i in 0..self.size {
                self.receive(packet, i);
            }
        }

        fn send(&mut self) -> (PacketId, bool) {
            self.vc.send_phit(&mut self.arena, self.size)
        }

        fn present(&self) -> u16 {
            self.vc.head_present(self.size)
        }

        fn free_space(&self) -> usize {
            self.capacity - self.vc.occupancy()
        }
    }

    #[test]
    fn receive_then_send_whole_packet() {
        let mut b = fifo(16, 4);
        let p = b.packet();
        b.receive_whole(p);
        assert_eq!(b.vc.occupancy(), 4);
        assert_eq!(b.vc.head(), Some(p));
        assert_eq!(b.present(), 4);
        for i in 0..4 {
            let (sent, tail) = b.send();
            assert_eq!(sent, p);
            assert_eq!(tail, i == 3);
        }
        assert!(b.vc.is_empty());
        assert_eq!(b.free_space(), 16);
    }

    #[test]
    fn cut_through_send_while_receiving() {
        let mut b = fifo(8, 4);
        let p = b.packet();
        b.receive(p, 0);
        assert_eq!(b.present(), 1);
        let (_, tail) = b.send();
        assert!(!tail);
        assert_eq!(b.vc.occupancy(), 0);
        assert_eq!(b.present(), 0);
        assert_eq!(
            b.vc.head(),
            Some(p),
            "the packet stays until its tail is sent"
        );
        for i in 1..4 {
            b.receive(p, i);
        }
        let tails = (0..3).filter(|_| b.send().1).count();
        assert_eq!(tails, 1);
        assert!(b.vc.is_empty());
    }

    #[test]
    fn multiple_packets_fifo_order() {
        let mut b = fifo(16, 3);
        let (p1, p2) = (b.packet(), b.packet());
        b.receive_whole(p1);
        b.receive_whole(p2);
        assert_eq!(b.vc.occupancy(), 6);
        assert_eq!(b.arena.successor(p1), Some(p2));
        // Head is packet 1; it must drain before packet 2.
        for _ in 0..3 {
            assert_eq!(b.send().0, p1);
        }
        assert_eq!(b.arena.successor(p1), None, "a popped packet is unlinked");
        assert_eq!(b.vc.head(), Some(p2));
        assert_eq!(b.present(), 3, "a whole packet behind the head");
        assert_eq!(b.send(), (p2, false));
        assert_eq!(b.send(), (p2, false));
        assert_eq!(b.send(), (p2, true));
        assert!(b.vc.is_empty());
    }

    #[test]
    fn buffers_share_one_pool_without_interference() {
        // Two VCs whose packets are listed through one arena.
        let mut arena = PacketArena::new();
        let (mut a, mut b) = (InputVc::default(), InputVc::default());
        let [p1, p2, p3] = [0, 1, 2].map(|_| arena.alloc(NodeId(0), NodeId(1), 1, 0));
        a.receive_phit(&mut arena, 8, 1, Some(p1), true);
        b.receive_phit(&mut arena, 8, 1, Some(p2), true);
        a.receive_phit(&mut arena, 8, 1, Some(p3), true);
        assert_eq!(a.head(), Some(p1));
        assert_eq!(b.head(), Some(p2));
        assert_eq!((a.occupancy(), b.occupancy()), (2, 1));
        assert_eq!(b.send_phit(&mut arena, 1), (p2, true));
        assert_eq!(a.occupancy(), 2, "sibling buffer is untouched");
        assert_eq!(a.send_phit(&mut arena, 1), (p1, true));
        assert_eq!(a.head(), Some(p3));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = fifo(2, 4);
        let p = b.packet();
        b.receive_whole(p);
    }

    #[test]
    #[should_panic(expected = "interleaved")]
    fn interleaved_packets_rejected() {
        // The tail phit of another packet lands on the second phit of `p1`.
        let mut b = fifo(8, 4);
        let (p1, p2) = (b.packet(), b.packet());
        b.receive(p1, 0);
        b.receive(p2, 3);
    }

    #[test]
    #[should_panic(expected = "interleaved")]
    fn a_head_behind_a_partly_received_tail_is_rejected() {
        let mut b = fifo(8, 4);
        let (p1, p2) = (b.packet(), b.packet());
        b.receive(p1, 0);
        b.receive(p2, 0);
    }

    #[test]
    #[should_panic(expected = "no open tail")]
    fn a_body_phit_with_no_open_tail_is_rejected() {
        let mut b = fifo(8, 2);
        let p = b.packet();
        b.receive_whole(p);
        b.receive(p, 1);
    }

    #[test]
    #[should_panic(expected = "no open tail")]
    fn a_body_phit_into_an_empty_vc_is_rejected() {
        let mut b = fifo(8, 2);
        b.vc.receive_phit(&mut b.arena, b.capacity, 2, None, true);
    }

    #[test]
    #[should_panic(expected = "phit 3 of a 3-phit tail came with tail flag false")]
    fn a_tail_without_its_flag_is_rejected() {
        let mut b = fifo(8, 3);
        let p = b.packet();
        b.receive(p, 0);
        b.receive(p, 1);
        // A body phit of some other packet lands where `p`'s tail belongs.
        b.vc.receive_phit(&mut b.arena, b.capacity, 3, None, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a successor")]
    fn a_packet_is_linked_in_one_vc_at_most() {
        let mut arena = PacketArena::new();
        let (mut a, mut b) = (InputVc::default(), InputVc::default());
        let [p1, p2, p3] = [0, 1, 2].map(|_| arena.alloc(NodeId(0), NodeId(1), 1, 0));
        a.receive_phit(&mut arena, 8, 1, Some(p1), true);
        a.receive_phit(&mut arena, 8, 1, Some(p2), true);
        // `p1` still heads `a`, so it cannot be a whole packet in `b`.
        b.receive_phit(&mut arena, 8, 1, Some(p1), true);
        b.receive_phit(&mut arena, 8, 1, Some(p3), true);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn send_from_empty_panics() {
        let mut b = fifo(4, 4);
        b.send();
    }

    #[test]
    #[should_panic(expected = "no phit of the head packet")]
    fn send_without_present_phit_panics() {
        let mut b = fifo(8, 4);
        let p = b.packet();
        b.receive(p, 0);
        let _ = b.send();
        let _ = b.send();
    }

    #[test]
    #[should_panic(expected = "at least one phit")]
    fn zero_capacity_rejected() {
        let mut config = SimConfig::paper_vct(2);
        config.local_buffer = 0;
        PortGeometry::new(&config);
    }

    #[test]
    fn occupancy_tracks_present_phits_only() {
        let mut b = fifo(8, 8);
        let p = b.packet();
        b.receive(p, 0);
        b.receive(p, 1);
        let _ = b.send();
        assert_eq!(b.vc.occupancy(), 1);
        assert_eq!(b.free_space(), 7);
        assert_eq!(b.present(), 1);
        assert_eq!(b.vc.head_sent(), 1);
    }

    #[test]
    fn route_word_round_trips() {
        let mut vc = InputVc::default();
        assert_eq!(vc.route(), None);
        // The largest port of an h = 16 router is 62; the largest VC is 7.
        for pair in [(0, 0), (62, 2), (63, 7)] {
            vc.set_route(Some(pair));
            assert_eq!(vc.route(), Some(pair));
        }
        vc.set_route(None);
        assert_eq!(vc.route(), None);
    }
}
