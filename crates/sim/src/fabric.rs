//! Struct-of-arrays link fabric: every pipeline of the network as a ring of
//! slots indexed by cycle.
//!
//! A link launches at most one phit per cycle and returns at most one credit
//! per VC per cycle, so a pipeline of latency `L` needs `L + 1` slots, one per
//! arrival cycle in flight: the thing arriving at cycle `a` sits in slot
//! `a mod (L + 1)`, and the slot implies its arrival cycle.  A phit slot is a
//! 1-byte tag (VC, head, tail, occupied); a credit slot is a 1-byte mask of
//! the VCs credited that cycle.
//!
//! Only a head phit names its packet.  A body or tail phit continues the
//! packet its VC has open at the far end (the input VC's tail, or the
//! ejecting node's register), so its slot carries no id.  A head's
//! [`PacketId`] waits in the link's *head FIFO*: pushed when the head is
//! launched, popped when it drains.  Heads leave a link in launch order (one
//! latency per link), so a FIFO is exact, and it is short: an output VC is
//! held from a packet's head to its tail and every packet is `packet_size`
//! phits, so on each VC every packet but the last whose head lies in the
//! `W = L + 1` launch cycles a ring spans lies whole inside them.  That
//! leaves room for at most `K = ⌊(W − VCs) / packet_size⌋ + VCs` heads
//! (`W` when `W ≤ VCs`; [`head_slots`]): 14 on the paper's 100-cycle global
//! link of 2 VCs with 8-phit packets, where a slot per phit would take 101.
//! A head launched into a full FIFO panics, naming the link.
//!
//! [`LinkFabric`] keeps every slot of the network in three pools and the
//! head ids in a fourth, indexed by link id through offset arrays:
//!
//! ```text
//! to:           [u32;      links]      far end of link i, packed: router << 8
//!                                      | port, or NODE_END | node
//! latency:      [u8;       links]      latency class of link i (3 in a network)
//! counts:       [u64;      links]      phits|credits in flight, and their
//!                                      high-water marks, 16 bits each
//! next_due:     [u32;      links]      earliest arrival on link i, in either
//!                                      direction (NEVER when idle)
//! phit_off:     [u32;  links + 1]      link i's phit slots are
//!                                      phit_tags[phit_off[i]..phit_off[i+1]]
//! credit_off:   [u32;  links + 1]
//! heads:   [[u32; 2];  links + 1]      link i's head FIFO: its ids are
//!                                      head_ids[heads[i][0]..heads[i+1][0]],
//!                                      heads[i][1] = first << 16 | length
//! phit_tags:    [u8;       Σ phit slots]    0 = empty
//! credit_masks: [u8;       Σ credit slots]  bit v = a credit for VC v
//! head_ids:     [PacketId; Σ K]
//! ```
//!
//! Rings are packed back to back (no power-of-two rounding), and links of
//! equal class are built identically, so an index-ordered sweep of the active
//! set (see [`crate::active_set::ActiveSet`]) walks the pools front to back.
//! Those are the slots of a network instance that owns both ends of the link;
//! one partition of a sharded run keeps a ring in full only when it owns the
//! end the ring drains at, a single slot when it only launches into the ring,
//! and nothing otherwise (see [`LinkSpec`]); its head FIFO is sized by the
//! same slot count (one id for one slot).  The single slot holds what was
//! launched this cycle, and the cycle's barrier empties it
//! ([`LinkFabric::take_export_phit`], [`LinkFabric::take_export_credits`]):
//! the partition owning the draining end launches the same phit or credits
//! on its full copy at the same cycle, with the same [`LinkFabric::send_phit`]
//! and [`LinkFabric::send_credit`] the switch uses, so they land in the slot
//! of the arrival cycle the launch implies.  Nothing crossing a boundary
//! carries a timestamp.
//!
//! The "one per cycle" facts are checked, not assumed: writing a phit into an
//! occupied slot, a credit into a VC bit already set, or a head into a full
//! head FIFO panics in release builds (this is what bounds the exact
//! counters, too).  Debug builds also
//! keep each slot's arrival cycle and assert that a slot is drained at
//! exactly that cycle.
//!
//! `next_due` caches the earliest arrival of a link.  A launch lowers it; a
//! drain recomputes it by scanning the ring bytes forward from the drained
//! slot to the next occupied one.  An export never scans: what it takes was
//! launched this cycle, so it arrives no earlier than anything else on the
//! link.  The arrival sweep
//! reads this one dense array ([`LinkFabric::due`]) and passes over a link
//! with nothing maturing without touching its counters or pools — a 100-cycle
//! global link carrying one packet is due in ~16 of ~116 cycles.
//!
//! The addressing of a link's far end ([`LinkEnd`]) is defined here too.

use crate::packet::PacketId;
use dragonfly_topology::NodeId;

/// A phit as it is launched onto a link and taken off it (8 bytes): its VC
/// and head/tail flags, and on a head the packet's id.
///
/// Inside the fabric a phit is a 1-byte slot, whose position implies its
/// arrival cycle, and a head's id waits in the link's head FIFO.  A body or
/// tail phit names no packet: the receiver continues the packet its VC has
/// open.  The packet's size is not carried either: the receiver reads it
/// from the packet at the head phit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhitInFlight {
    /// The packet a head phit opens; [`PacketId::NONE`] on any other phit.
    packet: PacketId,
    /// Virtual channel it will be stored in at the far end.
    pub vc: u8,
    flags: u8,
}

const PHIT_HEAD: u8 = 1;
const PHIT_TAIL: u8 = 2;
/// Tag byte of an occupied phit slot: `OCCUPIED | flags << 3 | vc`, so an
/// empty slot is the only zero tag.
const TAG_OCCUPIED: u8 = 0x80;
const TAG_FLAGS_SHIFT: u32 = 3;
const TAG_VC: u8 = 0b111;
const TAG_HEAD: u8 = PHIT_HEAD << TAG_FLAGS_SHIFT;

impl PhitInFlight {
    /// The head phit of `packet`, bound for `vc` (also its tail when the
    /// packet is one phit long).
    #[inline]
    pub fn head(packet: PacketId, vc: u8, is_tail: bool) -> Self {
        Self {
            packet,
            vc,
            flags: PHIT_HEAD | ((is_tail as u8) * PHIT_TAIL),
        }
    }

    /// A phit after the head, bound for `vc`.
    #[inline]
    pub fn body(vc: u8, is_tail: bool) -> Self {
        Self {
            packet: PacketId::NONE,
            vc,
            flags: (is_tail as u8) * PHIT_TAIL,
        }
    }

    /// The packet a head phit opens; `None` for any other phit.
    #[inline]
    pub fn head_packet(&self) -> Option<PacketId> {
        self.is_head().then_some(self.packet)
    }

    /// First phit of the packet.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.flags & PHIT_HEAD != 0
    }

    /// Last phit of the packet.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.flags & PHIT_TAIL != 0
    }

    #[inline]
    fn tag(&self) -> u8 {
        debug_assert!(self.vc <= TAG_VC, "VC {} beyond the tag's 3 bits", self.vc);
        TAG_OCCUPIED | self.flags << TAG_FLAGS_SHIFT | self.vc
    }

    /// The phit of an occupied slot's `tag`, with the id popped off the head
    /// FIFO when the tag is a head's ([`PacketId::NONE`] otherwise).
    #[inline]
    fn from_slot(tag: u8, packet: PacketId) -> Self {
        Self {
            packet,
            vc: tag & TAG_VC,
            flags: (tag & !TAG_OCCUPIED) >> TAG_FLAGS_SHIFT,
        }
    }
}

/// What one link delivers at one cycle: at most one phit and one credit per
/// VC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arrived {
    /// Bit `v` set: a credit for VC `v` reached the transmitter.
    pub credits: u8,
    /// The phit that reached the far end.
    pub phit: Option<PhitInFlight>,
}

/// The far end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// Another router: `(router index, flat input port)`.
    Router {
        /// Destination router index.
        router: usize,
        /// Flat input port at the destination router.
        port: usize,
    },
    /// A terminal node (ejection).
    Node {
        /// The consuming node.
        node: NodeId,
    },
}

/// A packed link end whose low 31 bits are a node id (ejection); without
/// the flag, `router << 8 | flat port`.
const NODE_END: u32 = 1 << 31;

impl LinkEnd {
    /// Pack into one `u32`.  `SimConfig::validate`'s h ≤ 16 bound keeps a
    /// router id below 2²³ and a flat port below 2⁸, and a node id below 2³¹.
    ///
    /// # Panics
    ///
    /// Panics when a field is out of that range.
    fn pack(self) -> u32 {
        match self {
            LinkEnd::Router { router, port } => {
                assert!(
                    router < 1 << 23 && port < 1 << 8,
                    "link end router {router} port {port} beyond the packed range"
                );
                (router as u32) << 8 | port as u32
            }
            LinkEnd::Node { node } => {
                assert!(
                    node.0 < NODE_END,
                    "link end node {} beyond the packed range",
                    node.0
                );
                NODE_END | node.0
            }
        }
    }

    /// Inverse of [`LinkEnd::pack`].
    #[inline]
    fn unpack(word: u32) -> Self {
        if word & NODE_END != 0 {
            LinkEnd::Node {
                node: NodeId(word & !NODE_END),
            }
        } else {
            LinkEnd::Router {
                router: (word >> 8) as usize,
                port: (word & 0xFF) as usize,
            }
        }
    }
}

/// Construction-time description of one link, streamed into
/// [`LinkFabric::build`].
///
/// The two slot counts are what the network instance being built can ever
/// hold on this link, which depends on which of the link's ends it owns (see
/// `Network::with_owned_routers`): `latency + 1` when it owns the end a
/// pipeline drains at; one when it only launches into the pipeline — the
/// slot of this cycle's launch, emptied at the cycle's barrier and launched
/// again on the owner's full copy; zero when it owns neither end.  The head
/// FIFO follows from the phit slots, the VCs and the packet size (see
/// [`head_slots`]).
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Latency in cycles.
    pub latency: u64,
    /// Where the link ends.
    pub to: LinkEnd,
    /// Slots of the forward phit pipeline: `latency + 1`, 1 or 0.
    pub phit_slots: usize,
    /// Slots of the backward credit pipeline: `latency + 1`, 1 or 0.
    pub credit_slots: usize,
    /// VCs the link carries (at most 8: a tag holds a VC in 3 bits).
    pub vcs: usize,
}

/// Ids a link's head FIFO holds: the most heads the `W = phit_slots` launch
/// cycles a ring spans can carry, `W` when `W ≤ vcs`, else
/// `⌊(W − vcs) / packet_size⌋ + vcs`.
///
/// The link launches at most one phit per cycle, an output VC is held from
/// a packet's head to its tail, and every packet is `packet_size` phits.
/// Say `n_v` heads of VC `v` launch inside the window.  The next packet of
/// a VC starts only after the previous one's tail, so every one of those
/// packets but the last lies whole inside the window: VC `v` launches at
/// least `(n_v − 1) × packet_size + 1` phits there.  Over the `a ≤ vcs`
/// VCs with a head in the window, `Σ (n_v − 1) × packet_size + a ≤ W`, so
/// `Σ n_v ≤ a + ⌊(W − a) / packet_size⌋`, which grows with `a` (one more VC
/// adds a head and costs at most one).  At `a = min(vcs, W)` that is the
/// bound, and it is reached: whole packets back to back, then the heads of
/// every VC in the window's last cycles.
///
/// At the paper's VCT setup (8-phit packets) that is 14 ids on a 100-cycle
/// global link of 2 VCs, 4 on a 10-cycle local link of 3 and 2 on a 1-cycle
/// terminal link; 1 on a one-slot export ring.
pub fn head_slots(phit_slots: usize, vcs: usize, packet_size: usize) -> usize {
    if phit_slots <= vcs {
        phit_slots
    } else {
        (phit_slots - vcs) / packet_size + vcs
    }
}

/// `next_due` of a link with nothing in flight.
const NEVER: u32 = u32::MAX;

/// A latency class: every link of a network has one of three latencies.
#[derive(Debug, Clone, Copy)]
struct Latency {
    cycles: u32,
    /// `⌊(2⁶⁴ − 1) / (cycles + 1)⌋ + 1`: reduces a `u32` cycle modulo the
    /// `cycles + 1` slots of a full pipeline with two multiplies instead of a
    /// divide (Lemire's "fastmod").
    magic: u64,
}

impl Latency {
    fn new(cycles: u32) -> Self {
        let slots = cycles as u64 + 1;
        Self {
            cycles,
            magic: (u64::MAX / slots).wrapping_add(1),
        }
    }

    /// The slot of a ring of `slots` slots that holds what arrives at cycle
    /// `arrive`: `arrive mod (cycles + 1)` in a full pipeline, slot 0 in a
    /// one-slot export ring.
    #[inline]
    fn slot(self, arrive: u32, slots: usize) -> usize {
        if slots == 1 {
            return 0;
        }
        debug_assert_eq!(slots, self.cycles as usize + 1, "a partial pipeline");
        let low = self.magic.wrapping_mul(arrive as u64);
        ((low as u128 * (self.cycles as u128 + 1)) >> 64) as usize
    }
}

/// Exact per-link occupancy, 16 bits a field in one word: phits in flight,
/// credits in flight, and the two high-water marks.
///
/// A ring of `latency + 1` slots holds at most `latency + 1` phits and
/// `VCs × (latency + 1)` credits; `SimConfig::validate` bounds the latency
/// and the VC count so that both fit.
#[derive(Debug, Clone, Copy, Default)]
struct LinkCounts(u64);

const PHITS: u32 = 0;
const CREDITS: u32 = 16;
const PHIT_HW: u32 = 32;
const CREDIT_HW: u32 = 48;
const FIELD: u64 = 0xFFFF;

impl LinkCounts {
    #[inline]
    fn get(self, shift: u32) -> usize {
        ((self.0 >> shift) & FIELD) as usize
    }

    #[inline]
    fn set(&mut self, shift: u32, value: usize) {
        self.0 = (self.0 & !(FIELD << shift)) | ((value as u64) << shift);
    }

    /// Add `n` to the count at `shift`, raising the high-water mark at `hw`.
    #[inline]
    fn add(&mut self, shift: u32, hw: u32, n: usize) {
        let len = self.get(shift) + n;
        self.set(shift, len);
        if len > self.get(hw) {
            self.set(hw, len);
        }
    }

    #[inline]
    fn is_idle(self) -> bool {
        self.0 as u32 == 0
    }
}

/// Index of the first non-zero byte — an occupied slot — of `bytes`, eight
/// bytes at a time.
#[inline]
fn first_occupied(bytes: &[u8]) -> Option<usize> {
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        if word != 0 {
            return Some(at + (word.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b != 0)
        .map(|i| at + i)
}

/// Earliest arrival held in `ring`, whose slots cover the `ring.len()`
/// cycles from `first` on, `first` sitting in slot `start`; [`NEVER`] when
/// every slot is empty.
#[inline]
fn earliest(ring: &[u8], start: usize, first: u32) -> u32 {
    let (wrapped, ahead) = ring.split_at(start);
    if let Some(i) = first_occupied(ahead) {
        return first + i as u32;
    }
    first_occupied(wrapped).map_or(NEVER, |i| first + (ahead.len() + i) as u32)
}

/// The pipelined state of every link in the network, struct-of-arrays.
///
/// Phits inserted at cycle `t` become available at the far end at
/// `t + latency`; credits flow in the opposite direction with the same
/// latency, modelling the round-trip time that sizes the buffers in the
/// paper's methodology.
#[derive(Debug)]
pub struct LinkFabric {
    /// Far end of each link, [`LinkEnd::pack`]ed.
    to: Vec<u32>,
    latency: Vec<u8>,
    classes: Vec<Latency>,
    counts: Vec<LinkCounts>,
    /// Invariant: `next_due[i]` is the earliest arrival of anything on link
    /// `i` ([`LinkFabric::check_next_due`] compares it with the slots).
    next_due: Vec<u32>,
    phit_off: Vec<u32>,
    credit_off: Vec<u32>,
    /// Link `i`'s head FIFO, one entry beside its offset so that a push or
    /// pop reads one line: `[offset, first << 16 | len]`, its ids at
    /// `head_ids[offset + first ..]` wrapping at the next link's offset.
    heads: Vec<[u32; 2]>,
    phit_tags: Vec<u8>,
    credit_masks: Vec<u8>,
    head_ids: Vec<PacketId>,
    /// Debug builds only: the arrival cycle each occupied slot was filled
    /// for, checked when it is drained or exported.
    #[cfg(debug_assertions)]
    phit_stamps: Vec<u32>,
    #[cfg(debug_assertions)]
    credit_stamps: Vec<u32>,
}

impl LinkFabric {
    /// Build the fabric from per-link specs, link 0 first, for packets of
    /// `packet_size` phits, materializing every slot.  The specs are taken
    /// one at a time, so a caller can stream them without collecting.
    ///
    /// # Panics
    ///
    /// Panics when a ring has neither `latency + 1` slots nor at most one,
    /// when a link carries more than 8 VCs, when the slots exceed what a
    /// `u32` offset addresses, or when the links have more than 256 distinct
    /// latencies (a network has three, and `SimConfig::validate` bounds the
    /// rest).
    pub fn build(
        specs: impl IntoIterator<Item = LinkSpec, IntoIter: ExactSizeIterator>,
        packet_size: usize,
    ) -> Self {
        assert!(packet_size >= 1, "packet size must be at least one phit");
        let specs = specs.into_iter();
        let n = specs.len();
        let mut to = Vec::with_capacity(n);
        let mut latency = Vec::with_capacity(n);
        let mut classes: Vec<Latency> = Vec::new();
        let mut phit_off = Vec::with_capacity(n + 1);
        let mut credit_off = Vec::with_capacity(n + 1);
        let mut fifos = Vec::with_capacity(n + 1);
        let (mut phits, mut credits, mut heads) = (0usize, 0usize, 0usize);
        for spec in specs {
            assert!(
                spec.vcs <= TAG_VC as usize + 1,
                "{} VCs on one link: a phit tag holds a VC in 3 bits",
                spec.vcs
            );
            let cycles = u32::try_from(spec.latency).expect("link latency beyond u32");
            let full = cycles as usize + 1;
            for slots in [spec.phit_slots, spec.credit_slots] {
                assert!(
                    slots <= 1 || slots == full,
                    "a latency-{cycles} pipeline has {full} slots (or one to export), not {slots}"
                );
            }
            let class = match classes.iter().position(|c| c.cycles == cycles) {
                Some(class) => class,
                None => {
                    classes.push(Latency::new(cycles));
                    classes.len() - 1
                }
            };
            latency.push(u8::try_from(class).expect("more than 256 link latencies"));
            to.push(spec.to.pack());
            phit_off.push(phits as u32);
            credit_off.push(credits as u32);
            fifos.push([heads as u32, 0]);
            phits += spec.phit_slots;
            credits += spec.credit_slots;
            let fifo = head_slots(spec.phit_slots, spec.vcs, packet_size);
            assert!(
                fifo <= u16::MAX as usize,
                "{fifo} head ids exceed a head FIFO's 16-bit index"
            );
            heads += fifo;
        }
        assert!(
            phits.max(credits) <= u32::MAX as usize,
            "{} pipeline slots exceed the u32 pool offsets",
            phits.max(credits)
        );
        phit_off.push(phits as u32);
        credit_off.push(credits as u32);
        fifos.push([heads as u32, 0]);
        Self {
            to,
            latency,
            classes,
            counts: vec![LinkCounts::default(); n],
            next_due: vec![NEVER; n],
            phit_off,
            credit_off,
            heads: fifos,
            phit_tags: vec![0; phits],
            credit_masks: vec![0; credits],
            head_ids: vec![PacketId::NONE; heads],
            #[cfg(debug_assertions)]
            phit_stamps: vec![0; phits],
            #[cfg(debug_assertions)]
            credit_stamps: vec![0; credits],
        }
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.to.len()
    }

    /// True when the fabric has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.to.is_empty()
    }

    /// Where link `li` ends.
    #[inline]
    pub fn end(&self, li: usize) -> LinkEnd {
        LinkEnd::unpack(self.to[li])
    }

    #[inline]
    fn class(&self, li: usize) -> Latency {
        self.classes[self.latency[li] as usize]
    }

    /// Latency of link `li` in cycles.
    #[inline]
    pub fn latency(&self, li: usize) -> u64 {
        self.class(li).cycles as u64
    }

    /// The arrival cycle of something launched on link `li` at `now`.
    #[inline]
    fn arrival(&self, li: usize, now: u64) -> u32 {
        let arrive = now + self.latency(li);
        debug_assert!(arrive <= u32::MAX as u64, "cycle count exceeds u32 range");
        arrive as u32
    }

    /// Launch a phit on link `li` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics when a phit was already launched on `li` at `now`.
    #[inline]
    pub fn send_phit(&mut self, li: usize, now: u64, phit: PhitInFlight) {
        let arrive = self.arrival(li, now);
        self.put_phit(li, arrive, phit);
    }

    /// Launch a credit for VC `vc` back to the transmitter of link `li` at
    /// cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics when a credit for `vc` was already launched on `li` at `now`.
    #[inline]
    pub fn send_credit(&mut self, li: usize, now: u64, vc: u8) {
        let arrive = self.arrival(li, now);
        self.put_credit(li, arrive, vc);
    }

    #[inline]
    fn put_phit(&mut self, li: usize, arrive: u32, phit: PhitInFlight) {
        let (start, end) = (self.phit_off[li] as usize, self.phit_off[li + 1] as usize);
        let pos = start + self.class(li).slot(arrive, end - start);
        let tag = &mut self.phit_tags[start..end][pos - start];
        assert!(
            *tag == 0,
            "link {li}: a second phit for the slot arriving at cycle {arrive} \
             (a link launches at most one phit per cycle)"
        );
        *tag = phit.tag();
        if phit.is_head() {
            self.push_head(li, phit.packet);
        }
        #[cfg(debug_assertions)]
        {
            self.phit_stamps[pos] = arrive;
        }
        self.counts[li].add(PHITS, PHIT_HW, 1);
        self.next_due[li] = self.next_due[li].min(arrive);
    }

    /// Append a launched head's id to link `li`'s head FIFO.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, when the FIFO is full: more heads in flight
    /// than [`head_slots`] derives from the one-phit-per-cycle law, the
    /// head-to-tail hold of an output VC and the packet size.
    #[inline]
    fn push_head(&mut self, li: usize, packet: PacketId) {
        let ([start, at], capacity) = self.head_fifo(li);
        let (first, len) = ((at >> 16) as usize, (at & 0xFFFF) as usize);
        assert!(
            len < capacity,
            "link {li}: a head launched with {len} heads in flight, all its head FIFO \
             holds (on each VC a packet's phits all launch before the next head)"
        );
        let mut slot = first + len;
        if slot >= capacity {
            slot -= capacity;
        }
        self.head_ids[start as usize + slot] = packet;
        self.heads[li][1] = at + 1;
    }

    /// Link `li`'s head FIFO entry and its capacity in ids.
    #[inline]
    fn head_fifo(&self, li: usize) -> ([u32; 2], usize) {
        let [here, next] = [self.heads[li], self.heads[li + 1]];
        (here, (next[0] - here[0]) as usize)
    }

    /// Take the oldest id off link `li`'s head FIFO: heads leave a link in
    /// the order they were launched.
    #[inline]
    fn pop_head(&mut self, li: usize) -> PacketId {
        let ([start, at], capacity) = self.head_fifo(li);
        let (first, len) = ((at >> 16) as usize, at & 0xFFFF);
        debug_assert!(len > 0, "link {li}: a head arrived with no id in its FIFO");
        let packet = self.head_ids[start as usize + first];
        let next = if first + 1 == capacity { 0 } else { first + 1 };
        self.heads[li][1] = (next as u32) << 16 | (len - 1);
        packet
    }

    /// The phit of an occupied slot's `tag` on link `li`, its id taken off
    /// the head FIFO when it is a head.
    #[inline]
    fn phit_of(&mut self, li: usize, tag: u8) -> PhitInFlight {
        let packet = if tag & TAG_HEAD != 0 {
            self.pop_head(li)
        } else {
            PacketId::NONE
        };
        PhitInFlight::from_slot(tag, packet)
    }

    #[inline]
    fn put_credit(&mut self, li: usize, arrive: u32, vc: u8) {
        debug_assert!(vc < u8::BITS as u8, "VC {vc} beyond the 8-bit credit mask");
        let (start, end) = (
            self.credit_off[li] as usize,
            self.credit_off[li + 1] as usize,
        );
        let pos = start + self.class(li).slot(arrive, end - start);
        let mask = &mut self.credit_masks[start..end][pos - start];
        let bit = 1u8 << vc;
        assert!(
            *mask & bit == 0,
            "link {li}: a second credit for VC {vc} in the slot arriving at cycle {arrive} \
             (a link returns at most one credit per VC per cycle)"
        );
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                *mask == 0 || self.credit_stamps[pos] == arrive,
                "link {li}: credits arriving at different cycles share a slot"
            );
            self.credit_stamps[pos] = arrive;
        }
        *mask |= bit;
        self.counts[li].add(CREDITS, CREDIT_HW, 1);
        self.next_due[li] = self.next_due[li].min(arrive);
    }

    /// True when something on link `li` — a phit or a credit — has arrived by
    /// `now`.  One read of the dense `next_due` array.
    #[inline]
    pub fn due(&self, li: usize, now: u64) -> bool {
        self.next_due[li] as u64 <= now
    }

    /// The earliest arrival on link `li`, `None` when nothing is in flight.
    #[inline]
    pub fn next_due(&self, li: usize) -> Option<u64> {
        (self.next_due[li] != NEVER).then_some(self.next_due[li] as u64)
    }

    /// Take what link `li` delivers at `now` — the credits and the phit in
    /// the slots of cycle `now` — and re-stamp `next_due` from the next
    /// occupied slot of either ring.  Call it at every cycle the link is
    /// [`due`](LinkFabric::due).
    #[inline]
    pub fn drain_arrived(&mut self, li: usize, now: u64) -> Arrived {
        debug_assert_eq!(
            self.next_due[li] as u64, now,
            "link {li}: a slot was not drained at its arrival cycle"
        );
        let class = self.class(li);
        let at = now as u32;
        let mut counts = self.counts[li];
        let mut arrived = Arrived::default();
        let mut next = NEVER;
        if counts.get(CREDITS) > 0 {
            let (start, end) = (
                self.credit_off[li] as usize,
                self.credit_off[li + 1] as usize,
            );
            let ring = &mut self.credit_masks[start..end];
            debug_assert!(ring.len() > 1, "link {li}: an export ring is never drained");
            let pos = class.slot(at, ring.len());
            arrived.credits = std::mem::take(&mut ring[pos]);
            #[cfg(debug_assertions)]
            debug_assert!(
                arrived.credits == 0 || self.credit_stamps[start + pos] == at,
                "link {li}: credits for cycle {} drained at {at}",
                self.credit_stamps[start + pos]
            );
            let left = counts.get(CREDITS) - arrived.credits.count_ones() as usize;
            counts.set(CREDITS, left);
            if left > 0 {
                next = earliest(ring, pos, at);
            }
        }
        if counts.get(PHITS) > 0 {
            let (start, end) = (self.phit_off[li] as usize, self.phit_off[li + 1] as usize);
            debug_assert!(
                end - start > 1,
                "link {li}: an export ring is never drained"
            );
            let pos = class.slot(at, end - start);
            let tag = std::mem::take(&mut self.phit_tags[start + pos]);
            if tag != 0 {
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    self.phit_stamps[start + pos],
                    at,
                    "link {li}: a phit drained off its arrival cycle"
                );
                arrived.phit = Some(self.phit_of(li, tag));
                counts.set(PHITS, counts.get(PHITS) - 1);
            }
            if counts.get(PHITS) > 0 {
                next = next.min(earliest(&self.phit_tags[start..end], pos, at));
            }
        }
        self.counts[li] = counts;
        self.next_due[li] = next;
        arrived
    }

    /// Take the phit launched on link `li` this cycle out of the one-slot
    /// ring of an instance that owns only the link's transmitting end (a
    /// shard boundary, at the cycle's barrier); the owner of the receiving
    /// end launches it on its full copy at the same cycle.
    ///
    /// Emptied at every barrier, the slot holds only this cycle's launch (a
    /// launch into a slot left full panics in [`LinkFabric::send_phit`]).
    /// That launch arrives last on the link, so the credits in flight keep
    /// `next_due` — no ring is scanned.
    ///
    /// # Panics
    ///
    /// Panics when link `li`'s phit ring is not a one-slot export ring.
    #[inline]
    pub fn take_export_phit(&mut self, li: usize) -> Option<PhitInFlight> {
        let pos = self.phit_off[li] as usize;
        assert_eq!(self.capacities(li).0, 1, "link {li}: no export ring");
        let tag = std::mem::take(&mut self.phit_tags[pos]);
        if tag == 0 {
            return None;
        }
        self.counts[li].set(PHITS, 0);
        self.retire_export(li);
        Some(self.phit_of(li, tag))
    }

    /// Take the mask of credits launched on link `li` this cycle out of the
    /// one-slot ring of an instance that owns only the link's receiving end
    /// (bit `v` set: a credit for VC `v`; 0 when none was launched); the
    /// owner of the transmitting end launches them on its full copy at the
    /// same cycle.  The credit twin of [`LinkFabric::take_export_phit`].
    ///
    /// # Panics
    ///
    /// Panics when link `li`'s credit ring is not a one-slot export ring.
    #[inline]
    pub fn take_export_credits(&mut self, li: usize) -> u8 {
        let pos = self.credit_off[li] as usize;
        assert_eq!(self.capacities(li).1, 1, "link {li}: no export ring");
        let mask = std::mem::take(&mut self.credit_masks[pos]);
        if mask != 0 {
            self.counts[li].set(CREDITS, 0);
            self.retire_export(li);
        }
        mask
    }

    /// `next_due` after an export emptied one direction of link `li`: the
    /// other direction's earliest arrival, which it already holds, or
    /// [`NEVER`] when nothing is left.
    #[inline]
    fn retire_export(&mut self, li: usize) {
        if self.counts[li].is_idle() {
            self.next_due[li] = NEVER;
        }
    }

    /// Slots of link `li`'s `(phit, credit)` rings as built.
    #[inline]
    pub fn capacities(&self, li: usize) -> (usize, usize) {
        (
            (self.phit_off[li + 1] - self.phit_off[li]) as usize,
            (self.credit_off[li + 1] - self.credit_off[li]) as usize,
        )
    }

    /// Bytes held by the slot pools and the head FIFOs' ids (capacity ×
    /// entry size).
    pub fn pool_bytes(&self) -> usize {
        self.phit_tags.capacity()
            + self.credit_masks.capacity()
            + self.head_ids.capacity() * std::mem::size_of::<PacketId>()
    }

    /// Ids link `li`'s head FIFO holds as built ([`head_slots`]).
    #[inline]
    pub fn head_capacity(&self, li: usize) -> usize {
        self.head_fifo(li).1
    }

    /// Number of phits currently in flight on link `li` — one counter read,
    /// no slot scan.
    #[inline]
    pub fn phits_in_flight(&self, li: usize) -> usize {
        self.counts[li].get(PHITS)
    }

    /// Number of credits currently in flight on link `li` (counter read).
    #[inline]
    pub fn credits_in_flight(&self, li: usize) -> usize {
        self.counts[li].get(CREDITS)
    }

    /// Most phits link `li`'s pipeline has ever held at once.
    #[inline]
    pub fn phit_high_water(&self, li: usize) -> usize {
        self.counts[li].get(PHIT_HW)
    }

    /// Most credits link `li`'s pipeline has ever held at once.
    #[inline]
    pub fn credit_high_water(&self, li: usize) -> usize {
        self.counts[li].get(CREDIT_HW)
    }

    /// True when nothing is travelling on link `li` in either direction —
    /// one counter read (the watchdog/idle path never scans a ring).
    #[inline]
    pub fn is_idle(&self, li: usize) -> bool {
        self.counts[li].is_idle()
    }

    /// Maximum phit- and credit-pipeline high-water marks over every link
    /// (probe diagnostics).  Scans only the counter array, never the pools.
    pub fn max_high_waters(&self) -> (usize, usize) {
        self.counts.iter().fold((0, 0), |(phits, credits), c| {
            (phits.max(c.get(PHIT_HW)), credits.max(c.get(CREDIT_HW)))
        })
    }

    /// Phits bound for VC `vc` and credits for VC `vc` in flight on link
    /// `li`, counted from the slots of its two rings (a check's full scan,
    /// not a hot-path read).
    pub fn vc_in_flight(&self, li: usize, vc: u8) -> (usize, usize) {
        let tags = &self.phit_tags[self.phit_off[li] as usize..self.phit_off[li + 1] as usize];
        let masks =
            &self.credit_masks[self.credit_off[li] as usize..self.credit_off[li + 1] as usize];
        (
            tags.iter()
                .filter(|&&tag| tag != 0 && tag & TAG_VC == vc)
                .count(),
            masks.iter().filter(|&&mask| mask >> vc & 1 != 0).count(),
        )
    }

    /// Compare every link's head FIFO with the head tags of its phit ring (a
    /// check's full scan): as many ids as heads in flight; `Err` names the
    /// first link that disagrees.
    pub fn check_head_fifos(&self) -> Result<(), String> {
        for li in 0..self.len() {
            let tags = &self.phit_tags[self.phit_off[li] as usize..self.phit_off[li + 1] as usize];
            let heads = tags.iter().filter(|&&tag| tag & TAG_HEAD != 0).count();
            let held = (self.heads[li][1] & 0xFFFF) as usize;
            if held != heads {
                return Err(format!(
                    "link {li}: the head FIFO holds {held} ids but {heads} heads are in flight"
                ));
            }
        }
        Ok(())
    }

    /// Compare every link's cached `next_due` with the earliest occupied slot
    /// of its two rings (the full scan the cache replaces), at the close of
    /// cycle `now`; `Err` names the first link that disagrees.
    pub fn check_next_due(&self, now: u64) -> Result<(), String> {
        // A ring of `slots` slots covers the `slots` arrival cycles ending at
        // `now + latency`; scan it from the first.
        let earliest_in = |li: usize, off: &[u32], bytes: &[u8]| {
            let ring = &bytes[off[li] as usize..off[li + 1] as usize];
            if ring.is_empty() {
                return NEVER;
            }
            let first = (now + self.latency(li) + 1 - ring.len() as u64) as u32;
            earliest(ring, self.class(li).slot(first, ring.len()), first)
        };
        for li in 0..self.len() {
            let scanned = earliest_in(li, &self.phit_off, &self.phit_tags).min(earliest_in(
                li,
                &self.credit_off,
                &self.credit_masks,
            ));
            let cached = self.next_due[li];
            if cached != scanned {
                return Err(format!(
                    "link {li}: next_due is {cached} but the slots say {scanned}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_entries_stay_compact() {
        // ~64k links at h = 8 each hold latency + 1 slots of both kinds: a
        // phit slot is a tag byte, a credit slot one mask byte; a head's id
        // waits in the link's head FIFO, 4 bytes an entry.  The footprint
        // argument in the docs relies on these.
        assert_eq!(std::mem::size_of::<u8>(), 1);
        assert_eq!(std::mem::size_of::<PacketId>(), 4);
        assert_eq!(std::mem::size_of::<LinkCounts>(), 8);
        // What a drain yields and a shard boundary ships.
        assert_eq!(std::mem::size_of::<PhitInFlight>(), 8);
    }

    #[test]
    fn link_ends_pack_into_one_word() {
        // h = 16, the largest machine `SimConfig::validate` admits: 16 416
        // routers of 63 ports, 262 656 nodes.
        for end in [
            LinkEnd::Router { router: 0, port: 0 },
            LinkEnd::Router {
                router: 16_415,
                port: 62,
            },
            LinkEnd::Node { node: NodeId(0) },
            LinkEnd::Node {
                node: NodeId(262_655),
            },
        ] {
            assert_eq!(LinkEnd::unpack(end.pack()), end);
        }
    }

    #[test]
    #[should_panic(expected = "beyond the packed range")]
    fn a_port_beyond_a_byte_does_not_pack() {
        LinkEnd::Router {
            router: 1,
            port: 256,
        }
        .pack();
    }

    #[test]
    fn phit_flags_roundtrip() {
        let p = PhitInFlight::head(PacketId(9), 2, false);
        assert!(p.is_head() && !p.is_tail());
        assert_eq!(p.head_packet(), Some(PacketId(9)));
        let b = PhitInFlight::body(2, false);
        assert!(!b.is_head() && !b.is_tail());
        let t = PhitInFlight::body(2, true);
        assert!(!t.is_head() && t.is_tail());
        assert_eq!(t.head_packet(), None, "only a head names its packet");
        let single = PhitInFlight::head(PacketId(9), 7, true);
        assert!(single.is_head() && single.is_tail());
        // Through a slot's tag byte (and a head's FIFO entry) and back.
        for phit in [p, b, t, single] {
            assert_ne!(phit.tag(), 0, "an occupied tag is never zero");
            assert_eq!(phit.tag() & TAG_HEAD != 0, phit.is_head());
            assert_eq!(PhitInFlight::from_slot(phit.tag(), phit.packet), phit);
        }
    }

    #[test]
    fn fastmod_matches_the_remainder() {
        for cycles in [0u32, 1, 2, 9, 10, 100, 8190] {
            let class = Latency::new(cycles);
            let slots = cycles as usize + 1;
            for arrive in (0..5_000).chain([u32::MAX - 1, u32::MAX]) {
                assert_eq!(class.slot(arrive, slots), arrive as usize % slots);
            }
            assert_eq!(class.slot(12_345, 1), 0, "an export ring has one slot");
        }
    }

    /// The head phit of a one-phit-per-VC packet `packet` on VC 0.
    fn phit(packet: u32) -> PhitInFlight {
        PhitInFlight::head(PacketId(packet), 0, false)
    }

    /// Whole links of one VC carrying one-phit packets: every slot may hold
    /// a head, so a head FIFO has as many ids as its ring has slots.
    fn fabric_of(specs: &[(u64, LinkEnd)]) -> LinkFabric {
        let specs = specs.iter().map(|&(latency, to)| LinkSpec {
            latency,
            to,
            phit_slots: latency as usize + 1,
            credit_slots: latency as usize + 1,
            vcs: 1,
        });
        LinkFabric::build(specs, 1)
    }

    /// What link `li` delivers at `now` (nothing when it is not due).
    fn arrived(f: &mut LinkFabric, li: usize, now: u64) -> Arrived {
        let out = if f.due(li, now) {
            f.drain_arrived(li, now)
        } else {
            Arrived::default()
        };
        f.check_next_due(now).unwrap();
        f.check_head_fifos().unwrap();
        out
    }

    #[test]
    fn phit_arrives_after_latency() {
        let mut f = fabric_of(&[(10, LinkEnd::Node { node: NodeId(0) })]);
        f.send_phit(0, 5, phit(1));
        assert!(!f.due(0, 14));
        assert_eq!(f.next_due(0), Some(15));
        let out = arrived(&mut f, 0, 15).phit.unwrap();
        assert_eq!(out.head_packet(), Some(PacketId(1)));
        assert!(f.is_idle(0));
        assert_eq!(f.next_due(0), None);
        assert!(!f.due(0, u32::MAX as u64 - 1), "an idle link is never due");
    }

    #[test]
    fn per_cycle_drains_preserve_order_and_stop_at_future_slots() {
        let mut f = fabric_of(&[(3, LinkEnd::Router { router: 1, port: 2 })]);
        let mut drained = Vec::new();
        for now in 0..=5 {
            if let Some(p) = arrived(&mut f, 0, now).phit {
                drained.push((now, p.head_packet().unwrap()));
            }
            if now < 3 {
                f.send_phit(0, now, phit(now as u32 + 1));
            }
            if now == 2 {
                assert_eq!(f.phits_in_flight(0), 3);
            }
        }
        assert_eq!(
            drained,
            vec![(3, PacketId(1)), (4, PacketId(2)), (5, PacketId(3))]
        );
        assert!(f.is_idle(0));
    }

    #[test]
    fn credits_travel_with_latency() {
        let mut f = fabric_of(&[(7, LinkEnd::Router { router: 0, port: 0 })]);
        f.send_credit(0, 100, 2);
        f.send_credit(0, 100, 0);
        assert_eq!(f.credits_in_flight(0), 2);
        assert_eq!(arrived(&mut f, 0, 106).credits, 0);
        assert_eq!(arrived(&mut f, 0, 107).credits, 0b101);
        assert_eq!(f.credits_in_flight(0), 0);
        assert_eq!(f.credit_high_water(0), 2);
    }

    #[test]
    fn next_due_is_the_earlier_of_the_two_directions() {
        let mut f = fabric_of(&[(7, LinkEnd::Router { router: 0, port: 0 })]);
        f.send_phit(0, 10, phit(1)); // due at 17
        f.send_credit(0, 4, 0); // due at 11: the credit leads
        f.check_next_due(10).unwrap();
        assert!(!f.due(0, 10) && f.due(0, 11));
        let out = arrived(&mut f, 0, 11);
        assert_eq!((out.credits, out.phit), (1, None));
        assert!(!f.due(0, 16) && f.due(0, 17), "now the phit leads");
        // A launch behind the earliest arrival never moves the stamp.
        f.send_phit(0, 12, phit(2));
        f.check_next_due(12).unwrap();
        assert!(!f.due(0, 16) && f.due(0, 17));
    }

    #[test]
    fn idle_tracks_both_directions() {
        let mut f = fabric_of(&[(2, LinkEnd::Node { node: NodeId(1) })]);
        assert!(f.is_idle(0));
        f.send_credit(0, 0, 0);
        assert!(!f.is_idle(0));
        arrived(&mut f, 0, 2);
        assert!(f.is_idle(0));
    }

    #[test]
    fn rings_pack_back_to_back_without_rounding() {
        // Three links of 2 VCs carrying 8-phit packets, one slot per arrival
        // cycle: offsets are the prefix sums, of the slots and of the head
        // FIFOs (`⌊(slots − 2) / 8⌋ + 2`: 2, 2 and 14).
        let specs = [2u64, 4, 100]
            .into_iter()
            .enumerate()
            .map(|(n, latency)| LinkSpec {
                latency,
                to: LinkEnd::Node {
                    node: NodeId(n as u32),
                },
                phit_slots: latency as usize + 1,
                credit_slots: latency as usize + 1,
                vcs: 2,
            });
        let f = LinkFabric::build(specs, 8);
        assert_eq!(f.phit_off, vec![0, 3, 8, 109]);
        let offsets: Vec<u32> = f.heads.iter().map(|&[offset, _]| offset).collect();
        assert_eq!(offsets, vec![0, 2, 4, 18]);
        assert_eq!(f.phit_tags.len(), 109);
        assert_eq!(f.credit_masks.len(), 109);
        assert_eq!(f.pool_bytes(), 109 + 109 + 18 * 4);
        assert_eq!(f.classes.len(), 3, "one class per distinct latency");
    }

    #[test]
    fn neighbouring_rings_do_not_interfere() {
        let mut f = fabric_of(&[
            (1, LinkEnd::Node { node: NodeId(0) }),
            (1, LinkEnd::Node { node: NodeId(1) }),
        ]);
        // Fill both two-slot rings, wrap one of them, and check the other's
        // contents survive untouched.
        f.send_phit(0, 0, phit(10));
        f.send_phit(1, 0, phit(20));
        assert_eq!(arrived(&mut f, 0, 1).phit, Some(phit(10)));
        assert_eq!(arrived(&mut f, 1, 1).phit, Some(phit(20)));
        f.send_phit(0, 1, phit(11));
        f.send_phit(1, 1, phit(21));
        assert_eq!(arrived(&mut f, 0, 2).phit, Some(phit(11)));
        f.send_phit(0, 2, phit(12)); // wraps within link 0's slice
        assert_eq!(arrived(&mut f, 1, 2).phit, Some(phit(21)));
        assert_eq!(arrived(&mut f, 0, 3).phit, Some(phit(12)));
        assert!(f.is_idle(0) && f.is_idle(1));
    }

    /// Link 0 as its transmitting shard holds it (one phit slot to export, a
    /// full credit ring), link 1 as its receiving shard does (the mirror
    /// image), both of latency 5.
    fn boundary_pair() -> LinkFabric {
        let end = LinkEnd::Router { router: 3, port: 1 };
        let spec = |phit_slots, credit_slots| LinkSpec {
            latency: 5,
            to: end,
            phit_slots,
            credit_slots,
            vcs: 1,
        };
        LinkFabric::build([spec(1, 6), spec(6, 1)], 1)
    }

    #[test]
    fn shard_export_import_roundtrip() {
        let mut f = boundary_pair();
        f.send_phit(0, 0, phit(1));
        f.send_credit(1, 0, 1);
        f.send_credit(1, 0, 0);
        let shipped = f.take_export_phit(0).unwrap();
        let mask = f.take_export_credits(1);
        assert!(f.is_idle(0) && f.is_idle(1));
        assert_eq!(f.next_due(0), None, "an exported link has nothing due");
        assert_eq!((shipped, mask), (phit(1), 0b11));
        assert_eq!((f.take_export_phit(0), f.take_export_credits(1)), (None, 0));
        // The barrier of cycle 0 launches both again on the other copies.
        f.send_phit(1, 0, shipped);
        for vc in 0..2 {
            f.send_credit(0, 0, vc);
        }
        f.check_next_due(0).unwrap();
        assert_eq!(f.phits_in_flight(1), 1);
        assert_eq!(f.credits_in_flight(0), 2);
        assert!(!f.due(1, 4) && f.due(1, 5), "a relaunch arrives on time");
        assert_eq!(arrived(&mut f, 1, 5).phit, Some(phit(1)));
        assert_eq!(arrived(&mut f, 0, 5).credits, 0b11);
    }

    #[test]
    fn an_export_keeps_the_other_directions_stamp() {
        // The transmitting shard's copy: the one-slot export ring holds this
        // cycle's launch (arriving last), the credit ring earlier arrivals,
        // relaunched at the barriers of cycles 7 and 9.
        let mut f = boundary_pair();
        f.send_credit(0, 7, 1);
        f.send_credit(0, 9, 0);
        f.send_phit(0, 10, phit(1));
        assert_eq!(f.take_export_phit(0), Some(phit(1)));
        assert_eq!(f.next_due(0), Some(12));
        f.check_next_due(10).unwrap();
        assert_eq!(arrived(&mut f, 0, 12).credits, 0b10);
        assert_eq!(f.next_due(0), Some(14));
        // Cycle 13: the export, then a credit relaunched due with the phit.
        f.send_phit(0, 13, phit(2));
        assert_eq!(f.take_export_phit(0), Some(phit(2)));
        f.send_credit(0, 13, 1);
        assert_eq!(f.next_due(0), Some(14));
        f.check_next_due(13).unwrap();
        assert_eq!(arrived(&mut f, 0, 14).credits, 0b01);
        assert_eq!(f.next_due(0), Some(18));
        f.check_next_due(14).unwrap();
    }

    #[test]
    #[should_panic(expected = "link 0: a second phit for the slot arriving at cycle 16")]
    fn an_export_ring_left_full_panics_at_the_next_launch() {
        let mut f = boundary_pair();
        f.send_phit(0, 10, phit(1));
        f.send_phit(0, 11, phit(2));
    }

    #[test]
    fn high_water_marks_per_link() {
        let mut f = fabric_of(&[
            (3, LinkEnd::Node { node: NodeId(0) }),
            (3, LinkEnd::Node { node: NodeId(1) }),
        ]);
        f.send_phit(0, 0, phit(1));
        f.send_phit(0, 1, phit(2));
        f.send_credit(1, 0, 0);
        assert_eq!(f.phit_high_water(0), 2);
        assert_eq!(f.phit_high_water(1), 0);
        assert_eq!(f.credit_high_water(1), 1);
        assert_eq!(f.max_high_waters(), (2, 1));
        for now in 1..10 {
            arrived(&mut f, 1, now);
            arrived(&mut f, 0, now);
        }
        assert!(f.is_idle(0) && f.is_idle(1));
        assert_eq!(f.phit_high_water(0), 2, "draining keeps the mark");
    }

    #[test]
    fn one_phit_packets_fill_a_head_fifo_of_latency_plus_one_ids() {
        let mut f = fabric_of(&[(7, LinkEnd::Node { node: NodeId(0) })]);
        assert_eq!(f.head_capacity(0), 8);
        // A head every cycle, none drained yet: all eight slots are heads.
        for now in 0..=7 {
            f.send_phit(0, now, phit(now as u32));
        }
        assert_eq!(f.heads[0][1] & 0xFFFF, 8);
        f.check_head_fifos().unwrap();
        for now in 7..=14 {
            assert_eq!(arrived(&mut f, 0, now).phit, Some(phit(now as u32 - 7)));
        }
        assert!(f.is_idle(0));
    }

    #[test]
    fn the_head_bound_counts_whole_packets() {
        // At most one head a slot while the VCs outnumber the slots; one
        // packet size per head beyond the VCs' first.
        assert_eq!(head_slots(1, 2, 8), 1, "a one-slot export ring");
        assert_eq!(head_slots(8, 1, 1), 8, "one-phit packets: every slot");
        // The paper's VCT links: terminal, local and global.
        assert_eq!(head_slots(2, 3, 8), 2);
        assert_eq!(head_slots(11, 3, 8), 4);
        assert_eq!(head_slots(101, 2, 8), 14);
        // Its wormhole packets: 80 phits.
        assert_eq!(head_slots(101, 2, 80), 3);
    }

    /// A link of `latency` cycles and `vcs` VCs carrying 8-phit packets,
    /// with `phits` launched from cycle 0 on, one a cycle.
    fn launched(latency: u64, vcs: usize, phits: &[PhitInFlight]) -> LinkFabric {
        let spec = LinkSpec {
            latency,
            to: LinkEnd::Router { router: 1, port: 0 },
            phit_slots: latency as usize + 1,
            credit_slots: latency as usize + 1,
            vcs,
        };
        let mut f = LinkFabric::build([spec], 8);
        for (now, &phit) in phits.iter().enumerate() {
            f.send_phit(0, now as u64, phit);
        }
        f
    }

    /// Phit `k` of an 8-phit packet on `vc`, the head naming `packet`.
    fn nth(packet: u32, vc: u8, k: u32) -> PhitInFlight {
        if k == 0 {
            PhitInFlight::head(PacketId(packet), vc, false)
        } else {
            PhitInFlight::body(vc, k == 7)
        }
    }

    /// The 100-cycle global link of 2 VCs at the maximum rate, cycles 0
    /// through `last`: VC 0 on even cycles, VC 1 on odd ones, 8-phit packets
    /// back to back on each, so a VC's heads launch 16 cycles apart and a
    /// head's id is its launch cycle.
    fn global_link_at_the_head_rate(last: u32) -> LinkFabric {
        let phits: Vec<PhitInFlight> = (0..=last)
            .map(|now| nth(now, (now % 2) as u8, now / 2 % 8))
            .collect();
        launched(100, 2, &phits)
    }

    /// Drain link 0 over cycles `from..=to` and check that the head launched
    /// at each cycle `latency` before comes off with its own id.
    fn drains_in_launch_order(f: &mut LinkFabric, from: u64, to: u64, heads: &[u64]) {
        let latency = f.latency(0);
        for now in from..=to {
            let got = arrived(f, 0, now).phit.unwrap();
            let launched = now - latency;
            let want = heads
                .contains(&launched)
                .then_some(PacketId(launched as u32));
            assert_eq!(got.head_packet(), want, "cycle {now}");
        }
        assert!(f.is_idle(0));
    }

    #[test]
    fn heads_at_the_maximum_rate_fill_a_global_links_14_ids() {
        // By cycle 100 the ring holds 101 phits: six whole packets of each
        // VC and the first phits of a seventh, whose heads (cycles 96 and
        // 97) straddle the window's end.
        let mut f = global_link_at_the_head_rate(100);
        assert_eq!(f.head_capacity(0), 14);
        assert_eq!(f.heads[0][1] & 0xFFFF, 14, "7 heads of each VC in flight");
        f.check_head_fifos().unwrap();
        let heads: Vec<u64> = (0..=100).filter(|now| now / 2 % 8 == 0).collect();
        assert_eq!(heads.len(), 14);
        drains_in_launch_order(&mut f, 100, 200, &heads);
    }

    #[test]
    fn heads_at_the_maximum_rate_fill_a_local_links_4_ids() {
        // A 10-cycle local link of 3 VCs: one whole packet on VC 0 (cycles
        // 0–7), then the heads of all three VCs (8, 9, 10), each packet
        // straddling the window's end.
        let mut phits: Vec<PhitInFlight> = (0..8).map(|k| nth(0, 0, k)).collect();
        phits.extend((0..3).map(|vc| nth(8 + vc, vc as u8, 0)));
        let mut f = launched(10, 3, &phits);
        assert_eq!(f.head_capacity(0), 4);
        assert_eq!(f.heads[0][1] & 0xFFFF, 4, "4 heads in flight");
        f.check_head_fifos().unwrap();
        drains_in_launch_order(&mut f, 10, 20, &[0, 8, 9, 10]);
    }

    #[test]
    #[should_panic(expected = "link 0: a head launched with 14 heads in flight")]
    fn a_head_beyond_the_fifo_bound_panics() {
        // 14 heads are in flight by cycle 97; a 15th at cycle 100 (VC 0
        // before the tail of the packet it opened at 96) breaks the law the
        // bound rests on.
        let mut f = global_link_at_the_head_rate(99);
        f.send_phit(0, 100, PhitInFlight::head(PacketId(100), 0, false));
    }

    #[test]
    #[should_panic(expected = "link 0: a second phit for the slot arriving at cycle 13")]
    fn a_second_phit_in_one_cycle_panics() {
        let mut f = fabric_of(&[(3, LinkEnd::Node { node: NodeId(0) })]);
        f.send_phit(0, 10, phit(1));
        f.send_phit(0, 10, phit(2));
    }

    #[test]
    #[should_panic(expected = "link 0: a second credit for VC 2 in the slot arriving at cycle 13")]
    fn a_second_credit_for_one_vc_in_one_cycle_panics() {
        let mut f = fabric_of(&[(3, LinkEnd::Node { node: NodeId(0) })]);
        f.send_credit(0, 10, 2);
        f.send_credit(0, 10, 1);
        f.send_credit(0, 10, 2);
    }

    #[test]
    #[should_panic(expected = "link 1: a second phit for the slot arriving at cycle 7")]
    fn an_import_onto_an_occupied_slot_panics() {
        // The receiving shard's copy can take one launch per cycle, local or
        // relaunched: a second one at cycle 2 finds the slot of cycle 7 full.
        let mut f = boundary_pair();
        f.send_phit(1, 2, phit(1));
        f.send_phit(1, 2, phit(2));
    }
}
