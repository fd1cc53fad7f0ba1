//! Input virtual-channel FIFOs, measured in phits, and the one flat fabric
//! that holds every input VC of the network.

use crate::config::SimConfig;
use crate::packet::PacketId;
use crate::ring::RingMeta;
use dragonfly_topology::Port;
use std::ops::Range;

/// Bookkeeping for one packet currently (partially) stored in a VC buffer:
/// the packet and three phit counters, 16 bytes.
///
/// A packet has one head, so the per-hop delay stamp (head buffered, head
/// granted) is per packet ([`crate::packet::DelayState::head_stamp`], in the
/// delay table the delay probe arms), not in the slot the switch scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketSlot {
    /// The packet.
    pub packet: PacketId,
    /// Total packet size in phits.
    pub size: u16,
    /// Phits of this packet received into the buffer so far.
    pub phits_received: u16,
    /// Phits of this packet forwarded out of the buffer so far.
    pub phits_sent: u16,
}

impl PacketSlot {
    /// Phits physically present in the buffer.
    #[inline]
    pub fn phits_present(&self) -> u16 {
        self.phits_received - self.phits_sent
    }

    /// True when at least one phit is available to forward.
    #[inline]
    pub fn has_phit(&self) -> bool {
        self.phits_present() > 0
    }

    /// True when every phit of the packet has been forwarded.
    #[inline]
    pub fn fully_sent(&self) -> bool {
        self.phits_sent == self.size
    }

    /// True when every phit of the packet has been received.
    #[inline]
    pub fn fully_received(&self) -> bool {
        self.phits_received == self.size
    }
}

/// The packed "nothing" of a `(flat port, VC)` word: no route granted, no
/// owner.  A real pair packs to at most `0x00FF_FFFF`.
const NO_PORT_VC: u32 = u32::MAX;

/// Pack an optional `(flat port, VC)` pair into one `u32`.
#[inline]
pub(crate) fn pack_port_vc(pair: Option<(u16, u8)>) -> u32 {
    match pair {
        Some((port, vc)) => (port as u32) << 8 | vc as u32,
        None => NO_PORT_VC,
    }
}

/// Inverse of [`pack_port_vc`].
#[inline]
pub(crate) fn unpack_port_vc(word: u32) -> Option<(u16, u8)> {
    (word != NO_PORT_VC).then_some(((word >> 8) as u16, word as u8))
}

/// One input virtual channel: a phit FIFO plus the output `(flat port, VC)`
/// granted to the packet at its head, if any.
///
/// The buffer stores per-packet slots rather than individual phits: phits of a packet
/// arrive in order and cannot interleave with other packets inside a single VC, so a
/// `(received, sent)` pair per packet captures the exact FIFO content while staying
/// O(packets) instead of O(phits).
///
/// Only what varies is stored, in 16 bytes: the slot ring's packed
/// [`RingMeta`] word, the occupancy in phits and the packed route.  What is
/// fixed by the configuration — where the VC's slot region starts and how
/// many phits it holds — is the [`PortGeometry`] every router shares, and
/// the slots themselves live in the [`InputFabric`]'s one pool, so every
/// operation takes its slot region (and a receive its capacity) as
/// arguments.  The region is sized from two invariants of the FIFO: phits
/// arrive in order, so only the *newest* slot can be partially received,
/// and only the *head* slot forwards, so every interior slot is fully
/// received with nothing sent — it holds exactly `size >= min_packet`
/// present phits.  With `k` slots, `(k - 2) * min_packet <= occupancy <=
/// capacity`, so `k <= capacity / min_packet + 2` (and `k <= capacity + 1`
/// always, since every slot behind the head holds at least one phit).  The
/// ring is built at the tighter bound; deep buffers sized in phits (a
/// 256-phit global port) only pay for the handful of whole packets they can
/// actually hold.
#[derive(Debug, Clone, Copy)]
pub struct InputVc {
    slots: RingMeta,
    occupancy: u32,
    route: u32,
}

impl InputVc {
    /// Number of packet slots a buffer of `capacity` phits needs for packets
    /// no smaller than `min_packet` phits (the length of its slot region).
    pub fn slot_bound(capacity: usize, min_packet: usize) -> usize {
        assert!(capacity >= 1, "buffer capacity must be at least one phit");
        assert!(min_packet >= 1, "packets are at least one phit");
        (capacity + 1).min(capacity / min_packet + 2)
    }

    /// An empty VC of `capacity` phits for packets no smaller than
    /// `min_packet` phits (a smaller packet would overflow the slot ring and
    /// panic rather than corrupt state), whose slot region is
    /// [`InputVc::slot_bound`] slots long.
    pub fn new(capacity: usize, min_packet: usize) -> Self {
        Self {
            slots: RingMeta::new(Self::slot_bound(capacity, min_packet)),
            occupancy: 0,
            route: NO_PORT_VC,
        }
    }

    /// Length of this VC's slot region.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.capacity()
    }

    /// Phits currently stored.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy as usize
    }

    /// True when no phit is stored and no packet is being cut through.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupancy == 0 && self.slots.is_empty()
    }

    /// Number of packet slots currently tracked (packets partially or fully present,
    /// or being cut through).
    #[inline]
    pub fn packets(&self) -> usize {
        self.slots.len()
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

    /// The packet at the head of the FIFO, read from this VC's slot region.
    #[inline]
    pub fn head<'a>(&self, region: &'a [PacketSlot]) -> Option<&'a PacketSlot> {
        self.slots.front(region)
    }

    /// Receive one phit of `packet` into this VC's slot `region`, whose
    /// buffer holds `capacity` phits.  `opens` is the packet's size when
    /// this is its first phit, which opens a new slot at the tail of the
    /// FIFO, and `None` for the phits after it.
    ///
    /// Panics if the buffer would overflow (the credit scheme must prevent this) or if
    /// a non-head phit arrives for a packet that is not the most recent slot.
    pub fn receive_phit(
        &mut self,
        region: &mut [PacketSlot],
        capacity: usize,
        packet: PacketId,
        opens: Option<u16>,
    ) {
        assert!(
            (self.occupancy as usize) < capacity,
            "VC buffer overflow: credit accounting is broken"
        );
        if let Some(size) = opens {
            self.slots.push_back(
                region,
                PacketSlot {
                    packet,
                    size,
                    phits_received: 1,
                    phits_sent: 0,
                },
            );
        } else {
            let slot = self
                .slots
                .back_mut(region)
                .expect("body phit arrived with no open packet slot");
            assert_eq!(
                slot.packet, packet,
                "phits of different packets interleaved within one VC"
            );
            assert!(
                slot.phits_received < slot.size,
                "received more phits than packet size"
            );
            slot.phits_received += 1;
        }
        self.occupancy += 1;
    }

    /// Forward one phit of the head packet out of this VC's slot `region`.
    ///
    /// Returns the packet id and whether the forwarded phit was the tail (last) phit;
    /// when it is, the slot is popped.  Panics if no phit is available.
    pub fn send_phit(&mut self, region: &mut [PacketSlot]) -> (PacketId, bool) {
        let slot = self
            .slots
            .front_mut(region)
            .expect("send from an empty VC buffer");
        assert!(slot.has_phit(), "no phit of the head packet is present yet");
        slot.phits_sent += 1;
        self.occupancy -= 1;
        let packet = slot.packet;
        let is_tail = slot.fully_sent();
        if is_tail {
            debug_assert!(slot.fully_received());
            self.slots.pop_slot();
        }
        (packet, is_tail)
    }
}

/// Where one router-local input VC's slot region starts in its router's
/// slot block, and how many phits its buffer holds.
#[derive(Debug, Clone, Copy)]
struct VcShape {
    slot_start: u32,
    capacity: u32,
}

/// The input-side shape every router shares, built once from the
/// configuration: for each flat port its first router-local VC, and for each
/// router-local VC its slot-region start and phit capacity.  A router's VCs
/// are numbered port by port, VCs ascending, and their slot regions packed
/// back to back in the same order.
#[derive(Debug, Clone)]
pub struct PortGeometry {
    /// First router-local VC of each flat port, then the VCs per router.
    first_vc: Vec<u32>,
    shapes: Vec<VcShape>,
    slots_per_router: usize,
}

impl PortGeometry {
    /// The geometry `config` dictates: `input_vcs_for(kind)` VCs of
    /// `buffer_for(kind)` phits per port, slot regions at
    /// [`InputVc::slot_bound`] for `packet_size`-phit packets.
    pub fn new(config: &SimConfig) -> Self {
        let h = config.params.h();
        let ports = config.params.ports_per_router();
        let mut first_vc = Vec::with_capacity(ports + 1);
        let mut shapes = Vec::new();
        let mut slots = 0usize;
        for flat in 0..ports {
            first_vc.push(shapes.len() as u32);
            let kind = Port::from_flat(flat, h).kind();
            let capacity = config.buffer_for(kind);
            for _ in 0..config.input_vcs_for(kind) {
                shapes.push(VcShape {
                    slot_start: slots as u32,
                    capacity: capacity as u32,
                });
                slots += InputVc::slot_bound(capacity, config.packet_size);
            }
        }
        first_vc.push(shapes.len() as u32);
        Self {
            first_vc,
            shapes,
            slots_per_router: slots,
        }
    }

    /// Input VCs per router, over all ports.
    #[inline]
    pub fn vcs_per_router(&self) -> usize {
        self.shapes.len()
    }

    /// Packet slots per router, over all VCs.
    #[inline]
    pub fn slots_per_router(&self) -> usize {
        self.slots_per_router
    }

    /// Router-local indices of the VCs of flat `port`.
    #[inline]
    pub fn port_vcs(&self, port: usize) -> Range<usize> {
        self.first_vc[port] as usize..self.first_vc[port + 1] as usize
    }

    /// Capacity in phits of VC `vc` of flat `port`.
    #[inline]
    pub fn capacity(&self, port: usize, vc: usize) -> usize {
        self.shapes[self.first_vc[port] as usize + vc].capacity as usize
    }
}

/// Every input VC of the routers a network instance owns, struct-of-arrays:
/// one `Vec<InputVc>` and one `Vec<PacketSlot>`, each a run of identical
/// per-router blocks laid out by the shared [`PortGeometry`] — what
/// [`crate::fabric::LinkFabric`] is for links.
///
/// Router ids stay global; owned router `r`'s blocks sit at `r - base`.  A
/// router outside the owned range has no block, and addressing one panics.
#[derive(Debug)]
pub struct InputFabric {
    geometry: PortGeometry,
    /// First owned router.
    base: usize,
    vcs: Vec<InputVc>,
    slots: Vec<PacketSlot>,
}

impl InputFabric {
    /// Empty input VCs for the routers in `owned`, shaped by `config`.
    pub fn new(config: &SimConfig, owned: Range<usize>) -> Self {
        let geometry = PortGeometry::new(config);
        let routers = owned.len();
        let block: Vec<InputVc> = geometry
            .shapes
            .iter()
            .map(|s| InputVc::new(s.capacity as usize, config.packet_size))
            .collect();
        let vcs = block.repeat(routers);
        let slots = vec![PacketSlot::default(); routers * geometry.slots_per_router];
        Self {
            geometry,
            base: owned.start,
            vcs,
            slots,
        }
    }

    /// The shape every router's input side shares.
    pub fn geometry(&self) -> &PortGeometry {
        &self.geometry
    }

    /// Index into `vcs` of VC `vc` of `port` at `router`, and the start of
    /// its slot region in `slots`.
    #[inline]
    fn locate(&self, router: usize, port: usize, vc: usize) -> (usize, usize) {
        let local = self.geometry.first_vc[port] as usize + vc;
        let block = router - self.base;
        (
            block * self.geometry.vcs_per_router() + local,
            block * self.geometry.slots_per_router
                + self.geometry.shapes[local].slot_start as usize,
        )
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
        &self.vcs[self.locate(router, port, vc).0]
    }

    /// Free space in phits of VC `vc` of `port` at `router`.
    #[inline]
    pub fn free_space(&self, router: usize, port: usize, vc: usize) -> usize {
        self.geometry.capacity(port, vc) - self.vc(router, port, vc).occupancy()
    }

    /// The head packet of VC `vc` of `port` at `router`.
    #[inline]
    pub fn head(&self, router: usize, port: usize, vc: usize) -> Option<&PacketSlot> {
        let (i, start) = self.locate(router, port, vc);
        let ivc = &self.vcs[i];
        ivc.head(&self.slots[start..start + ivc.slot_count()])
    }

    /// The VCs of `port` at `router` whose head packet has no output granted
    /// yet, ascending, with that head — what the routing phase routes.
    #[inline]
    pub fn unrouted_heads(
        &self,
        router: usize,
        port: usize,
    ) -> impl Iterator<Item = (usize, &PacketSlot)> {
        let block = router - self.base;
        let first = self.geometry.first_vc[port] as usize;
        let vcs = self.port_vcs(router, port);
        let slots = &self.slots[block * self.geometry.slots_per_router..];
        let shapes = &self.geometry.shapes[first..first + vcs.len()];
        vcs.iter()
            .zip(shapes)
            .enumerate()
            .filter(|(_, (ivc, _))| ivc.route == NO_PORT_VC)
            .filter_map(move |(vc, (ivc, shape))| {
                let start = shape.slot_start as usize;
                ivc.head(&slots[start..start + ivc.slot_count()])
                    .map(|slot| (vc, slot))
            })
    }

    /// Receive one phit into VC `vc` of `port` at `router` (see
    /// [`InputVc::receive_phit`]) and return the VC's new occupancy.
    #[inline]
    pub fn receive_phit(
        &mut self,
        router: usize,
        port: usize,
        vc: usize,
        packet: PacketId,
        opens: Option<u16>,
    ) -> usize {
        let (i, start) = self.locate(router, port, vc);
        let capacity = self.geometry.capacity(port, vc);
        let ivc = &mut self.vcs[i];
        let region = &mut self.slots[start..start + ivc.slot_count()];
        ivc.receive_phit(region, capacity, packet, opens);
        ivc.occupancy()
    }

    /// Forward one phit of the head packet of VC `vc` of `port` at `router`
    /// (see [`InputVc::send_phit`]).
    #[inline]
    pub fn send_phit(&mut self, router: usize, port: usize, vc: usize) -> (PacketId, bool) {
        let (i, start) = self.locate(router, port, vc);
        let ivc = &mut self.vcs[i];
        ivc.send_phit(&mut self.slots[start..start + ivc.slot_count()])
    }

    /// Grant (`Some`) or release (`None`) the output of the head packet of
    /// VC `vc` of `port` at `router`.
    #[inline]
    pub fn set_route(&mut self, router: usize, port: usize, vc: usize, route: Option<(u16, u8)>) {
        let i = self.locate(router, port, vc).0;
        self.vcs[i].set_route(route);
    }

    /// True when some VC of `port` at `router` holds a packet slot (phits
    /// present, or a packet being cut through whose tail has not left yet).
    #[inline]
    pub fn port_has_packets(&self, router: usize, port: usize) -> bool {
        self.port_vcs(router, port)
            .iter()
            .any(|vc| vc.packets() > 0)
    }

    /// Total phits stored across every owned input buffer.
    pub fn stored_phits(&self) -> usize {
        self.vcs.iter().map(InputVc::occupancy).sum()
    }

    /// Heap bytes of the VC array and the slot pool (capacity × element size).
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vcs.capacity() * size_of::<InputVc>() + self.slots.capacity() * size_of::<PacketSlot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PacketId {
        PacketId(i as u64)
    }

    /// One VC of `capacity` phits plus a standalone pool exactly covering
    /// its slot region.
    struct Fifo {
        vc: InputVc,
        pool: Vec<PacketSlot>,
        capacity: usize,
    }

    fn with_pool(capacity: usize, min_packet: usize) -> Fifo {
        let vc = InputVc::new(capacity, min_packet);
        Fifo {
            pool: vec![PacketSlot::default(); vc.slot_count()],
            vc,
            capacity,
        }
    }

    impl Fifo {
        fn receive(&mut self, packet: PacketId, size: u16, is_head: bool) {
            self.vc.receive_phit(
                &mut self.pool,
                self.capacity,
                packet,
                is_head.then_some(size),
            );
        }

        fn send(&mut self) -> (PacketId, bool) {
            self.vc.send_phit(&mut self.pool)
        }

        fn head(&self) -> Option<&PacketSlot> {
            self.vc.head(&self.pool)
        }

        fn head_has_phit(&self) -> bool {
            self.head().is_some_and(PacketSlot::has_phit)
        }

        fn free_space(&self) -> usize {
            self.capacity - self.vc.occupancy()
        }
    }

    #[test]
    fn receive_then_send_whole_packet() {
        let mut b = with_pool(16, 4);
        for i in 0..4u16 {
            b.receive(pid(1), 4, i == 0);
        }
        assert_eq!(b.vc.occupancy(), 4);
        assert_eq!(b.vc.packets(), 1);
        assert!(b.head().unwrap().fully_received());
        for i in 0..4 {
            let (p, tail) = b.send();
            assert_eq!(p, pid(1));
            assert_eq!(tail, i == 3);
        }
        assert!(b.vc.is_empty());
        assert_eq!(b.free_space(), 16);
    }

    #[test]
    fn cut_through_send_while_receiving() {
        let mut b = with_pool(8, 4);
        b.receive(pid(7), 4, true);
        assert!(b.head_has_phit());
        let (_, tail) = b.send();
        assert!(!tail);
        assert_eq!(b.vc.occupancy(), 0);
        assert!(!b.head_has_phit());
        assert_eq!(b.vc.packets(), 1, "slot stays open until the tail is sent");
        b.receive(pid(7), 4, false);
        b.receive(pid(7), 4, false);
        b.receive(pid(7), 4, false);
        let mut tails = 0;
        for _ in 0..3 {
            let (_, t) = b.send();
            if t {
                tails += 1;
            }
        }
        assert_eq!(tails, 1);
        assert!(b.vc.is_empty());
    }

    #[test]
    fn multiple_packets_fifo_order() {
        let mut b = with_pool(16, 2);
        for i in 0..3u16 {
            b.receive(pid(1), 3, i == 0);
        }
        for i in 0..2u16 {
            b.receive(pid(2), 2, i == 0);
        }
        assert_eq!(b.vc.packets(), 2);
        assert_eq!(b.vc.occupancy(), 5);
        // Head is packet 1; it must drain before packet 2.
        for _ in 0..3 {
            let (p, _) = b.send();
            assert_eq!(p, pid(1));
        }
        let (p, tail) = b.send();
        assert_eq!(p, pid(2));
        assert!(!tail);
        let (p, tail) = b.send();
        assert_eq!(p, pid(2));
        assert!(tail);
        assert!(b.vc.is_empty());
    }

    #[test]
    fn buffers_share_one_pool_without_interference() {
        // Two VCs whose slot regions sit back to back in a single pool.
        let mut a = InputVc::new(8, 4);
        let mut b = InputVc::new(8, 4);
        let bound = InputVc::slot_bound(8, 4);
        let mut pool = vec![PacketSlot::default(); bound * 2];
        let (pa, pb) = pool.split_at_mut(bound);
        a.receive_phit(pa, 8, pid(1), Some(4));
        b.receive_phit(pb, 8, pid(2), Some(4));
        a.receive_phit(pa, 8, pid(1), None);
        assert_eq!(a.head(pa).unwrap().packet, pid(1));
        assert_eq!(b.head(pb).unwrap().packet, pid(2));
        assert_eq!(a.occupancy(), 2);
        assert_eq!(b.occupancy(), 1);
        let (p, _) = b.send_phit(pb);
        assert_eq!(p, pid(2));
        assert_eq!(a.occupancy(), 2, "sibling buffer is untouched");
        assert_eq!(a.head(pa).unwrap().phits_received, 2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = with_pool(2, 4);
        b.receive(pid(1), 4, true);
        b.receive(pid(1), 4, false);
        b.receive(pid(1), 4, false);
    }

    #[test]
    #[should_panic(expected = "interleaved")]
    fn interleaved_packets_rejected() {
        let mut b = with_pool(8, 4);
        b.receive(pid(1), 4, true);
        b.receive(pid(2), 4, false);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn send_from_empty_panics() {
        let mut b = with_pool(4, 1);
        b.send();
    }

    #[test]
    #[should_panic(expected = "no phit of the head packet")]
    fn send_without_present_phit_panics() {
        let mut b = with_pool(8, 4);
        b.receive(pid(1), 4, true);
        let _ = b.send();
        let _ = b.send();
    }

    #[test]
    #[should_panic(expected = "at least one phit")]
    fn zero_capacity_rejected() {
        InputVc::new(0, 1);
    }

    #[test]
    fn occupancy_tracks_present_phits_only() {
        let mut b = with_pool(8, 8);
        b.receive(pid(1), 8, true);
        b.receive(pid(1), 8, false);
        let _ = b.send();
        assert_eq!(b.vc.occupancy(), 1);
        assert_eq!(b.free_space(), 7);
        assert_eq!(b.head().unwrap().phits_present(), 1);
        assert_eq!(b.head().unwrap().phits_sent, 1);
    }

    #[test]
    fn route_word_round_trips() {
        let mut vc = InputVc::new(8, 4);
        assert_eq!(vc.route(), None);
        for pair in [(0, 0), (63, 2), (u16::MAX, u8::MAX)] {
            vc.set_route(Some(pair));
            assert_eq!(vc.route(), Some(pair));
        }
        vc.set_route(None);
        assert_eq!(vc.route(), None);
    }
}
