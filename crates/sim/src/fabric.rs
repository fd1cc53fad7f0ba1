//! Struct-of-arrays link fabric: every pipeline of the network as a ring of
//! slots indexed by cycle.
//!
//! A link launches at most one phit per cycle and returns at most one credit
//! per VC per cycle, so a pipeline of latency `L` needs `L + 1` slots, one per
//! arrival cycle in flight: the thing arriving at cycle `a` sits in slot
//! `a mod (L + 1)`, and the slot implies its arrival cycle.  A phit slot is
//! the packet's 8-byte [`PacketId`] plus a 1-byte tag (VC, head, tail,
//! occupied); a credit slot is a 1-byte mask of the VCs credited that cycle.
//! [`LinkFabric`] keeps every slot of the network in three pools, indexed by
//! link id through offset arrays:
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
//!                                      phit_ids/phit_tags[phit_off[i]..phit_off[i+1]]
//! credit_off:   [u32;  links + 1]
//! phit_ids:     [PacketId; Σ phit slots]
//! phit_tags:    [u8;       Σ phit slots]    0 = empty
//! credit_masks: [u8;       Σ credit slots]  bit v = a credit for VC v
//! ```
//!
//! Rings are packed back to back (no power-of-two rounding), and links of
//! equal class are built identically, so an index-ordered sweep of the active
//! set (see [`crate::active_set::ActiveSet`]) walks the pools front to back.
//! Those are the slots of a network instance that owns both ends of the link;
//! one partition of a sharded run keeps a ring in full only when it owns the
//! end the ring drains at, a single slot when it only launches into the ring
//! and exports it at the same cycle's barrier, and nothing otherwise (see
//! [`LinkSpec`]).
//!
//! The "one per cycle" facts are checked, not assumed: writing a phit into an
//! occupied slot, or a credit into a VC bit already set, panics in release
//! builds (this is what bounds the exact counters, too).  Debug builds also
//! keep each slot's arrival cycle and assert that a slot is drained at
//! exactly that cycle.
//!
//! `next_due` caches the earliest arrival of a link.  A launch or import
//! lowers it; a drain or export recomputes it by scanning the ring bytes
//! forward from the drained slot to the next occupied one.  The arrival sweep
//! reads this one dense array ([`LinkFabric::due`]) and passes over a link
//! with nothing maturing without touching its counters or pools — a 100-cycle
//! global link carrying one packet is due in ~16 of ~116 cycles.
//!
//! The records that cross a shard boundary ([`PhitInFlight`],
//! [`CreditInFlight`]) carry their arrival cycle explicitly; they are what
//! [`LinkFabric::take_phits`] and [`LinkFabric::push_arriving_phit`] (and
//! their credit twins) exchange.  The addressing of a link's far end
//! ([`LinkEnd`]) is defined here too.

use crate::packet::PacketId;
use dragonfly_topology::NodeId;

/// A phit travelling on a link, as it crosses a shard boundary (16 bytes).
///
/// Inside the fabric a phit is a slot; this record adds the arrival cycle
/// the slot implies.  Arrival cycles are stored as `u32` (runs beyond
/// `u32::MAX` cycles are unsupported and debug-asserted at launch).  The
/// packet's size is not carried: the receiver reads it from the packet at
/// the head phit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhitInFlight {
    /// The packet it belongs to.
    pub packet: PacketId,
    /// Cycle at which the phit reaches the far end.
    pub arrive: u32,
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

impl PhitInFlight {
    /// A phit of `packet` bound for `vc`, with a zero arrival stamp (the
    /// fabric fills it in when the phit leaves a slot).
    #[inline]
    pub fn new(packet: PacketId, vc: u8, is_head: bool, is_tail: bool) -> Self {
        Self {
            packet,
            arrive: 0,
            vc,
            flags: ((is_head as u8) * PHIT_HEAD) | ((is_tail as u8) * PHIT_TAIL),
        }
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

    #[inline]
    fn from_slot(packet: PacketId, arrive: u32, tag: u8) -> Self {
        Self {
            packet,
            arrive,
            vc: tag & TAG_VC,
            flags: (tag & !TAG_OCCUPIED) >> TAG_FLAGS_SHIFT,
        }
    }
}

/// A credit travelling back to the transmitter of a link, as it crosses a
/// shard boundary (8 bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditInFlight {
    /// Cycle at which the credit reaches the transmitter.
    pub arrive: u32,
    /// Virtual channel the credit belongs to.
    pub vc: u8,
}

/// What one link delivers at one cycle: at most one phit and one credit per
/// VC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Arrived {
    /// Bit `v` set: a credit for VC `v` reached the transmitter.
    pub credits: u8,
    /// The phit that reached the far end, stamped with the cycle.
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

/// Construction-time description of one link.
///
/// The two slot counts are what the network instance being built can ever
/// hold on this link, which depends on which of the link's ends it owns (see
/// `Network::with_owned_routers`): `latency + 1` when it owns the end a
/// pipeline drains at, one when it only launches into the pipeline and
/// exports it at the barrier, zero when it owns neither end.
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
    phit_ids: Vec<PacketId>,
    phit_tags: Vec<u8>,
    credit_masks: Vec<u8>,
    /// Debug builds only: the arrival cycle each occupied slot was filled
    /// for, checked when it is drained or exported.
    #[cfg(debug_assertions)]
    phit_stamps: Vec<u32>,
    #[cfg(debug_assertions)]
    credit_stamps: Vec<u32>,
}

impl LinkFabric {
    /// Build the fabric from per-link specs, materializing every slot.
    ///
    /// # Panics
    ///
    /// Panics when a ring has neither `latency + 1` slots nor at most one,
    /// when the slots exceed what a `u32` offset addresses, or when the links
    /// have more than 256 distinct latencies (a network has three, and
    /// `SimConfig::validate` bounds the rest).
    pub fn build(specs: &[LinkSpec]) -> Self {
        let n = specs.len();
        let mut to = Vec::with_capacity(n);
        let mut latency = Vec::with_capacity(n);
        let mut classes: Vec<Latency> = Vec::new();
        let mut phit_off = Vec::with_capacity(n + 1);
        let mut credit_off = Vec::with_capacity(n + 1);
        let (mut phits, mut credits) = (0usize, 0usize);
        for spec in specs {
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
            phits += spec.phit_slots;
            credits += spec.credit_slots;
        }
        assert!(
            phits.max(credits) <= u32::MAX as usize,
            "{} pipeline slots exceed the u32 pool offsets",
            phits.max(credits)
        );
        phit_off.push(phits as u32);
        credit_off.push(credits as u32);
        Self {
            to,
            latency,
            classes,
            counts: vec![LinkCounts::default(); n],
            next_due: vec![NEVER; n],
            phit_off,
            credit_off,
            phit_ids: vec![PacketId::default(); phits],
            phit_tags: vec![0; phits],
            credit_masks: vec![0; credits],
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
        self.phit_ids[pos] = phit.packet;
        #[cfg(debug_assertions)]
        {
            self.phit_stamps[pos] = arrive;
        }
        self.counts[li].add(PHITS, PHIT_HW, 1);
        self.next_due[li] = self.next_due[li].min(arrive);
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
            let ring = &mut self.phit_tags[start..end];
            debug_assert!(ring.len() > 1, "link {li}: an export ring is never drained");
            let pos = class.slot(at, ring.len());
            let tag = std::mem::take(&mut ring[pos]);
            if tag != 0 {
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    self.phit_stamps[start + pos],
                    at,
                    "link {li}: a phit drained off its arrival cycle"
                );
                arrived.phit = Some(PhitInFlight::from_slot(self.phit_ids[start + pos], at, tag));
                counts.set(PHITS, counts.get(PHITS) - 1);
            }
            if counts.get(PHITS) > 0 {
                next = next.min(earliest(ring, pos, at));
            }
        }
        self.counts[li] = counts;
        self.next_due[li] = next;
        arrived
    }

    /// The window of a ring of `slots` slots on link `li` after the launches
    /// of cycle `now`: it covers the `slots` cycles ending at
    /// `now + latency`.  Returns the window's first cycle and its slot.
    #[inline]
    fn window(&self, li: usize, now: u64, slots: usize) -> (u32, usize) {
        let first = (now + self.latency(li) + 1 - slots as u64) as u32;
        (first, self.class(li).slot(first, slots))
    }

    /// Earliest arrival in link `li`'s ring `bytes[off[li]..off[li + 1]]`
    /// after the launches of cycle `now` ([`NEVER`] when it is empty).
    fn earliest_in(&self, li: usize, now: u64, off: &[u32], bytes: &[u8]) -> u32 {
        let ring = &bytes[off[li] as usize..off[li + 1] as usize];
        if ring.is_empty() {
            return NEVER;
        }
        let (first, start) = self.window(li, now, ring.len());
        earliest(ring, start, first)
    }

    /// Earliest arrival on link `li` after the launches of cycle `now`,
    /// scanning only a ring that holds something.
    fn earliest_on(&self, li: usize, now: u64) -> u32 {
        let counts = self.counts[li];
        let phits = if counts.get(PHITS) > 0 {
            self.earliest_in(li, now, &self.phit_off, &self.phit_tags)
        } else {
            NEVER
        };
        let credits = if counts.get(CREDITS) > 0 {
            self.earliest_in(li, now, &self.credit_off, &self.credit_masks)
        } else {
            NEVER
        };
        phits.min(credits)
    }

    /// After an export at `now` emptied one direction of link `li` whose
    /// earliest entry arrived at `taken`, re-stamp `next_due` — with a scan
    /// only when the exported direction held the link's earliest arrival.
    fn restamp_after_take(&mut self, li: usize, now: u64, taken: u32) {
        if self.next_due[li] >= taken {
            self.next_due[li] = self.earliest_on(li, now);
        }
    }

    /// Move every phit in flight on link `li` into `out`, stamped with its
    /// arrival cycle (boundary-link export at the barrier of cycle `now`: the
    /// phits continue their flight in the receiving shard's copy).
    pub fn take_phits(&mut self, li: usize, now: u64, out: &mut Vec<PhitInFlight>) {
        let (start, end) = (self.phit_off[li] as usize, self.phit_off[li + 1] as usize);
        let mut left = self.counts[li].get(PHITS);
        if left == 0 {
            return;
        }
        let (first, mut pos) = self.window(li, now, end - start);
        let mut taken = NEVER;
        for arrive in first.. {
            let tag = std::mem::take(&mut self.phit_tags[start + pos]);
            if tag != 0 {
                #[cfg(debug_assertions)]
                debug_assert_eq!(self.phit_stamps[start + pos], arrive);
                taken = taken.min(arrive);
                out.push(PhitInFlight::from_slot(
                    self.phit_ids[start + pos],
                    arrive,
                    tag,
                ));
                left -= 1;
                if left == 0 {
                    break;
                }
            }
            pos = if pos + 1 == end - start { 0 } else { pos + 1 };
        }
        self.counts[li].set(PHITS, 0);
        self.restamp_after_take(li, now, taken);
    }

    /// Move every credit in flight on link `li` into `out`, one record per
    /// VC bit, stamped with its arrival cycle (boundary-link export toward
    /// the transmitting shard at the barrier of cycle `now`).
    pub fn take_credits(&mut self, li: usize, now: u64, out: &mut Vec<CreditInFlight>) {
        let (start, end) = (
            self.credit_off[li] as usize,
            self.credit_off[li + 1] as usize,
        );
        let mut left = self.counts[li].get(CREDITS);
        if left == 0 {
            return;
        }
        let (first, mut pos) = self.window(li, now, end - start);
        let mut taken = NEVER;
        for arrive in first.. {
            let mut mask = std::mem::take(&mut self.credit_masks[start + pos]);
            if mask != 0 {
                #[cfg(debug_assertions)]
                debug_assert_eq!(self.credit_stamps[start + pos], arrive);
                taken = taken.min(arrive);
                left -= mask.count_ones() as usize;
                while mask != 0 {
                    let vc = mask.trailing_zeros() as u8;
                    out.push(CreditInFlight { arrive, vc });
                    mask &= mask - 1;
                }
                if left == 0 {
                    break;
                }
            }
            pos = if pos + 1 == end - start { 0 } else { pos + 1 };
        }
        self.counts[li].set(CREDITS, 0);
        self.restamp_after_take(li, now, taken);
    }

    /// Put a phit that already carries its absolute arrival stamp into its
    /// slot (boundary-link import from the transmitting shard).
    ///
    /// # Panics
    ///
    /// Panics when the slot already holds a phit.
    #[inline]
    pub fn push_arriving_phit(&mut self, li: usize, phit: PhitInFlight) {
        self.put_phit(li, phit.arrive, phit);
    }

    /// Put a credit that already carries its absolute arrival stamp into its
    /// slot (boundary-link import from the receiving shard).
    ///
    /// # Panics
    ///
    /// Panics when the slot already holds a credit for the same VC.
    #[inline]
    pub fn push_arriving_credit(&mut self, li: usize, credit: CreditInFlight) {
        self.put_credit(li, credit.arrive, credit.vc);
    }

    /// Slots of link `li`'s `(phit, credit)` rings as built.
    #[inline]
    pub fn capacities(&self, li: usize) -> (usize, usize) {
        (
            (self.phit_off[li + 1] - self.phit_off[li]) as usize,
            (self.credit_off[li + 1] - self.credit_off[li]) as usize,
        )
    }

    /// Bytes held by the slot pools (capacity × entry size).
    pub fn pool_bytes(&self) -> usize {
        self.phit_ids.capacity() * std::mem::size_of::<PacketId>()
            + self.phit_tags.capacity()
            + self.credit_masks.capacity()
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

    /// Compare every link's cached `next_due` with the earliest occupied slot
    /// of its two rings (the full scan the cache replaces), at the close of
    /// cycle `now`; `Err` names the first link that disagrees.
    pub fn check_next_due(&self, now: u64) -> Result<(), String> {
        for li in 0..self.len() {
            let scanned = self
                .earliest_in(li, now, &self.phit_off, &self.phit_tags)
                .min(self.earliest_in(li, now, &self.credit_off, &self.credit_masks));
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
        // phit slot is an id and a tag byte, a credit slot one mask byte.
        // The footprint argument in the docs relies on these.
        assert_eq!(std::mem::size_of::<PacketId>() + 1, 9);
        assert_eq!(std::mem::size_of::<LinkCounts>(), 8);
        // The shard-boundary records.
        assert_eq!(std::mem::size_of::<PhitInFlight>(), 16);
        assert_eq!(std::mem::size_of::<CreditInFlight>(), 8);
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
        let p = PhitInFlight::new(PacketId(9), 2, true, false);
        assert!(p.is_head() && !p.is_tail());
        let t = PhitInFlight::new(PacketId(9), 2, false, true);
        assert!(!t.is_head() && t.is_tail());
        let single = PhitInFlight::new(PacketId(9), 7, true, true);
        assert!(single.is_head() && single.is_tail());
        // Through a slot's tag byte and back.
        for phit in [p, t, single] {
            assert_ne!(phit.tag(), 0, "an occupied tag is never zero");
            let back = PhitInFlight::from_slot(phit.packet, 42, phit.tag());
            assert_eq!(back, PhitInFlight { arrive: 42, ..phit });
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

    fn phit(packet: u32) -> PhitInFlight {
        PhitInFlight::new(PacketId(packet as u64), 0, true, false)
    }

    fn fabric_of(specs: &[(u64, LinkEnd)]) -> LinkFabric {
        let specs: Vec<LinkSpec> = specs
            .iter()
            .map(|&(latency, to)| LinkSpec {
                latency,
                to,
                phit_slots: latency as usize + 1,
                credit_slots: latency as usize + 1,
            })
            .collect();
        LinkFabric::build(&specs)
    }

    /// What link `li` delivers at `now` (nothing when it is not due).
    fn arrived(f: &mut LinkFabric, li: usize, now: u64) -> Arrived {
        let out = if f.due(li, now) {
            f.drain_arrived(li, now)
        } else {
            Arrived::default()
        };
        f.check_next_due(now).unwrap();
        out
    }

    #[test]
    fn phit_arrives_after_latency() {
        let mut f = fabric_of(&[(10, LinkEnd::Node { node: NodeId(0) })]);
        f.send_phit(0, 5, phit(1));
        assert!(!f.due(0, 14));
        assert_eq!(f.next_due(0), Some(15));
        let out = arrived(&mut f, 0, 15).phit.unwrap();
        assert_eq!(out.packet, PacketId(1));
        assert_eq!(out.arrive, 15);
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
                drained.push((now, p.packet));
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
        // Three links, one slot per arrival cycle: offsets are the prefix sums.
        let f = fabric_of(&[
            (2, LinkEnd::Node { node: NodeId(0) }),
            (4, LinkEnd::Node { node: NodeId(1) }),
            (1, LinkEnd::Node { node: NodeId(2) }),
        ]);
        assert_eq!(f.phit_off, vec![0, 3, 8, 10]);
        assert_eq!(f.phit_ids.len(), 10);
        assert_eq!(f.credit_masks.len(), 10);
        assert_eq!(f.pool_bytes(), 10 * 9 + 10);
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
        assert_eq!(arrived(&mut f, 0, 1).phit.unwrap().packet, PacketId(10));
        assert_eq!(arrived(&mut f, 1, 1).phit.unwrap().packet, PacketId(20));
        f.send_phit(0, 1, phit(11));
        f.send_phit(1, 1, phit(21));
        assert_eq!(arrived(&mut f, 0, 2).phit.unwrap().packet, PacketId(11));
        f.send_phit(0, 2, phit(12)); // wraps within link 0's slice
        assert_eq!(arrived(&mut f, 1, 2).phit.unwrap().packet, PacketId(21));
        assert_eq!(arrived(&mut f, 0, 3).phit.unwrap().packet, PacketId(12));
        assert!(f.is_idle(0) && f.is_idle(1));
    }

    #[test]
    fn shard_export_import_roundtrip() {
        // Link 0 as its transmitting shard holds it (one phit slot to
        // export, full credit ring); link 1 as its receiving shard does.
        let end = LinkEnd::Router { router: 3, port: 1 };
        let mut f = LinkFabric::build(&[
            LinkSpec {
                latency: 5,
                to: end,
                phit_slots: 1,
                credit_slots: 6,
            },
            LinkSpec {
                latency: 5,
                to: end,
                phit_slots: 6,
                credit_slots: 1,
            },
        ]);
        f.send_phit(0, 0, phit(1));
        f.send_credit(1, 0, 1);
        f.send_credit(1, 0, 0);
        let (mut phits, mut credits) = (Vec::new(), Vec::new());
        f.take_phits(0, 0, &mut phits);
        f.take_credits(1, 0, &mut credits);
        assert!(f.is_idle(0) && f.is_idle(1));
        assert_eq!(f.next_due(0), None, "an exported link has nothing due");
        assert_eq!(phits.len(), 1);
        assert_eq!(phits[0].arrive, 5);
        assert_eq!(
            credits,
            vec![
                CreditInFlight { arrive: 5, vc: 0 },
                CreditInFlight { arrive: 5, vc: 1 }
            ]
        );
        f.push_arriving_phit(1, phits[0]);
        for credit in credits {
            f.push_arriving_credit(0, credit);
        }
        f.check_next_due(0).unwrap();
        assert_eq!(f.phits_in_flight(1), 1);
        assert_eq!(f.credits_in_flight(0), 2);
        assert!(!f.due(1, 4) && f.due(1, 5), "imports keep their stamps");
        assert_eq!(arrived(&mut f, 1, 5).phit.unwrap().packet, PacketId(1));
        assert_eq!(arrived(&mut f, 0, 5).credits, 0b11);
    }

    #[test]
    fn an_export_keeps_the_other_directions_stamp() {
        // The transmitting shard's copy: the one-slot export ring holds this
        // cycle's launch (arriving last), the credit ring something earlier.
        let mut f = LinkFabric::build(&[LinkSpec {
            latency: 4,
            to: LinkEnd::Router { router: 0, port: 0 },
            phit_slots: 1,
            credit_slots: 5,
        }]);
        f.push_arriving_credit(0, CreditInFlight { arrive: 12, vc: 1 });
        f.send_phit(0, 10, phit(1));
        let mut out = Vec::new();
        f.take_phits(0, 10, &mut out);
        assert_eq!(out[0].arrive, 14);
        assert_eq!(f.next_due(0), Some(12));
        f.check_next_due(10).unwrap();
        // Both directions arriving together: the stamp survives the export.
        assert_eq!(arrived(&mut f, 0, 12).credits, 0b10);
        f.send_credit(0, 10, 0);
        f.send_phit(0, 11, phit(2));
        f.push_arriving_credit(0, CreditInFlight { arrive: 15, vc: 0 });
        out.clear();
        f.take_phits(0, 11, &mut out);
        assert_eq!(f.next_due(0), Some(14));
        f.check_next_due(11).unwrap();
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
    #[should_panic(expected = "a second phit")]
    fn an_import_onto_an_occupied_slot_panics() {
        let mut f = fabric_of(&[(3, LinkEnd::Node { node: NodeId(0) })]);
        f.send_phit(0, 2, phit(1));
        f.push_arriving_phit(
            0,
            PhitInFlight {
                arrive: 5,
                ..phit(2)
            },
        );
    }
}
