//! Struct-of-arrays link fabric: every pipeline of the network in two pools.
//!
//! The per-object layout this replaces kept each link's phit ring, credit
//! ring and their bookkeeping in a `Link` struct inside a `Vec<Link>`; a sweep
//! over the active links chased a pointer per ring and the ring backings were
//! rounded up to powers of two.  [`LinkFabric`] keeps the same state as
//! parallel arrays indexed by link id:
//!
//! ```text
//! latency:      [u32;        links]   latency of link i, in cycles
//! to:           [LinkEnd;    links]   far end of link i
//! phit_meta:    [RingMeta;   links]   head|len|high_water|cap, one u64 word
//! credit_meta:  [RingMeta;   links]
//! next_due:     [u32;        links]   earliest arrival stamp on link i, in
//!                                     either direction (NEVER when idle)
//! phit_off:     [u32;    links + 1]   link i's phit ring is
//!                                     phit_pool[phit_off[i]..phit_off[i+1]]
//! credit_off:   [u32;    links + 1]
//! phit_pool:    [PhitInFlight;   Σ phit caps]     all phit rings, contiguous
//! credit_pool:  [CreditInFlight; Σ credit caps]   all credit rings, contiguous
//! ```
//!
//! Rings are packed back to back at their *exact* provable capacities (no
//! power-of-two rounding): the forward pipeline holds at most `latency + 1`
//! phits (one launch per cycle, drained every active cycle) and the credit
//! pipeline at most `min(vcs × downstream buffer, vcs × (latency + 1))`
//! credits — the tighter of the space the credits stand for and the drain
//! rate.  Since links of equal class are built identically, consecutive links
//! have consecutive ring storage, and an index-ordered sweep of the active
//! set (see [`crate::active_set::ActiveSet`]) walks both pools front to back.
//! Those are the capacities of a network instance that owns both ends of the
//! link; one partition of a sharded run keeps a ring in full only when it
//! owns the end the ring drains at, and the offsets simply skip what it does
//! not hold (see [`LinkSpec`]).
//!
//! Stamps are non-decreasing within a ring, so the earliest event of a link is
//! the smaller of its two ring fronts.  `next_due` caches exactly that value:
//! a launch or import lowers it, a drain or export recomputes it.  The arrival
//! sweep reads this one dense array ([`LinkFabric::due`]) and passes over a
//! link with nothing maturing without touching its metadata words or pools —
//! a 100-cycle global link carrying one packet is due in ~16 of ~116 cycles.
//!
//! The pools' entry types ([`PhitInFlight`], [`CreditInFlight`]) and the addressing
//! of a link's far end ([`LinkEnd`]) are defined here too.

use crate::packet::PacketId;
use crate::ring::RingMeta;
use dragonfly_topology::NodeId;

/// A phit travelling on a link.
///
/// Kept to 16 bytes — every link materializes `latency + 1` of these in the
/// fabric's shared phit pool, and an h = 8 network has ~64 k links.  Arrival
/// cycles are stored as `u32` (runs beyond `u32::MAX` cycles are unsupported
/// and debug-asserted at launch) and the head/tail markers share one flags
/// byte behind accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhitInFlight {
    /// The packet it belongs to.
    pub packet: PacketId,
    /// Cycle at which the phit reaches the far end.
    pub arrive: u32,
    /// Size of the packet in phits (needed to open the downstream slot).
    pub size: u16,
    /// Virtual channel it will be stored in at the far end.
    pub vc: u8,
    flags: u8,
}

const PHIT_HEAD: u8 = 1;
const PHIT_TAIL: u8 = 2;

impl PhitInFlight {
    /// A phit of `packet` bound for `vc`, with a zero arrival stamp (filled
    /// in by [`LinkFabric::send_phit`]).
    #[inline]
    pub fn new(packet: PacketId, vc: u8, is_head: bool, is_tail: bool, size: u16) -> Self {
        Self {
            packet,
            arrive: 0,
            size,
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
}

/// A credit travelling back to the transmitter of a link.
///
/// 8 bytes, for the same footprint reason as [`PhitInFlight`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CreditInFlight {
    /// Cycle at which the credit reaches the transmitter.
    pub arrive: u32,
    /// Virtual channel the credit belongs to.
    pub vc: u8,
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

/// Construction-time description of one link.
///
/// The two capacities are what the network instance being built can ever
/// hold on this link, which depends on which of the link's ends it owns (see
/// `Network::with_owned_routers`): the full bounds above when it owns the end
/// a pipeline drains at, one cycle's worth when it only launches into the
/// pipeline and exports it at the barrier, zero when it owns neither end.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Latency in cycles.
    pub latency: u64,
    /// Where the link ends.
    pub to: LinkEnd,
    /// Capacity of the forward phit pipeline (at most `latency + 1`).
    pub phit_cap: usize,
    /// Capacity of the backward credit pipeline.
    pub credit_cap: usize,
}

/// `next_due` of a link with nothing in flight.
const NEVER: u32 = u32::MAX;

/// Pop every entry of one ring stamped `<= now` into `out`, in FIFO order, and
/// return the stamp left at the front ([`NEVER`] when the ring emptied).
/// Stamps are non-decreasing, so the drain stops at the first future one; the
/// whole batch is one metadata write-back.
#[inline]
fn drain_ring<T: Copy>(
    meta: &mut RingMeta,
    ring: &[T],
    now: u64,
    stamp: impl Fn(&T) -> u32,
    out: &mut Vec<T>,
) -> u32 {
    let mut m = *meta;
    let front = loop {
        match m.front(ring) {
            None => break NEVER,
            Some(entry) if stamp(entry) as u64 > now => break stamp(entry),
            Some(entry) => {
                out.push(*entry);
                m.pop_slot();
            }
        }
    };
    *meta = m;
    front
}

/// The pipelined state of every link in the network, struct-of-arrays.
///
/// Phits inserted at cycle `t` become available at the far end at
/// `t + latency`; credits flow in the opposite direction with the same
/// latency, modelling the round-trip time that sizes the buffers in the
/// paper's methodology.
#[derive(Debug)]
pub struct LinkFabric {
    latency: Vec<u32>,
    to: Vec<LinkEnd>,
    phit_meta: Vec<RingMeta>,
    credit_meta: Vec<RingMeta>,
    /// Invariant: `next_due[i]` is the smaller of link `i`'s two ring-front
    /// stamps ([`LinkFabric::check_next_due`] compares it with the rings).
    next_due: Vec<u32>,
    phit_off: Vec<u32>,
    credit_off: Vec<u32>,
    phit_pool: Vec<PhitInFlight>,
    credit_pool: Vec<CreditInFlight>,
}

impl LinkFabric {
    /// Build the fabric from per-link specs, materializing both pools at the
    /// exact sum of the per-ring capacity bounds.
    pub fn build(specs: &[LinkSpec]) -> Self {
        let n = specs.len();
        let mut latency = Vec::with_capacity(n);
        let mut to = Vec::with_capacity(n);
        let mut phit_meta = Vec::with_capacity(n);
        let mut credit_meta = Vec::with_capacity(n);
        let mut phit_off = Vec::with_capacity(n + 1);
        let mut credit_off = Vec::with_capacity(n + 1);
        let (mut pacc, mut cacc) = (0u32, 0u32);
        for spec in specs {
            debug_assert!(spec.latency <= u32::MAX as u64);
            latency.push(spec.latency as u32);
            to.push(spec.to);
            phit_meta.push(RingMeta::new(spec.phit_cap));
            credit_meta.push(RingMeta::new(spec.credit_cap));
            phit_off.push(pacc);
            credit_off.push(cacc);
            pacc += spec.phit_cap as u32;
            cacc += spec.credit_cap as u32;
        }
        phit_off.push(pacc);
        credit_off.push(cacc);
        Self {
            latency,
            to,
            phit_meta,
            credit_meta,
            next_due: vec![NEVER; n],
            phit_off,
            credit_off,
            phit_pool: vec![PhitInFlight::default(); pacc as usize],
            credit_pool: vec![CreditInFlight::default(); cacc as usize],
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
        self.to[li]
    }

    /// Latency of link `li` in cycles.
    #[inline]
    pub fn latency(&self, li: usize) -> u64 {
        self.latency[li] as u64
    }

    /// Link `li`'s slice of the phit pool.
    #[inline]
    fn phit_ring(&mut self, li: usize) -> &mut [PhitInFlight] {
        &mut self.phit_pool[self.phit_off[li] as usize..self.phit_off[li + 1] as usize]
    }

    /// Link `li`'s slice of the credit pool.
    #[inline]
    fn credit_ring(&mut self, li: usize) -> &mut [CreditInFlight] {
        &mut self.credit_pool[self.credit_off[li] as usize..self.credit_off[li + 1] as usize]
    }

    /// Launch a phit on link `li` at cycle `now`.
    #[inline]
    pub fn send_phit(&mut self, li: usize, now: u64, mut phit: PhitInFlight) {
        let arrive = now + self.latency[li] as u64;
        debug_assert!(arrive <= u32::MAX as u64, "cycle count exceeds u32 range");
        phit.arrive = arrive as u32;
        self.next_due[li] = self.next_due[li].min(phit.arrive);
        let mut meta = self.phit_meta[li];
        let ring = self.phit_ring(li);
        debug_assert!(
            meta.back(ring)
                .map(|p| p.arrive <= phit.arrive)
                .unwrap_or(true),
            "phits must be launched in non-decreasing time order"
        );
        meta.push_back(ring, phit);
        self.phit_meta[li] = meta;
    }

    /// Launch a credit back to the transmitter of link `li` at cycle `now`.
    #[inline]
    pub fn send_credit(&mut self, li: usize, now: u64, vc: u8) {
        let arrive = now + self.latency[li] as u64;
        debug_assert!(arrive <= u32::MAX as u64, "cycle count exceeds u32 range");
        self.next_due[li] = self.next_due[li].min(arrive as u32);
        let mut meta = self.credit_meta[li];
        let ring = self.credit_ring(li);
        meta.push_back(
            ring,
            CreditInFlight {
                arrive: arrive as u32,
                vc,
            },
        );
        self.credit_meta[li] = meta;
    }

    /// True when something on link `li` — a phit or a credit — has arrived by
    /// `now`.  One read of the dense `next_due` array.
    #[inline]
    pub fn due(&self, li: usize, now: u64) -> bool {
        self.next_due[li] as u64 <= now
    }

    /// The smaller of link `li`'s two ring-front stamps, read from the rings.
    fn front_stamp(&self, li: usize) -> u32 {
        let phits = &self.phit_pool[self.phit_off[li] as usize..self.phit_off[li + 1] as usize];
        let credits =
            &self.credit_pool[self.credit_off[li] as usize..self.credit_off[li + 1] as usize];
        let phit = self.phit_meta[li].front(phits).map_or(NEVER, |p| p.arrive);
        let credit = self.credit_meta[li]
            .front(credits)
            .map_or(NEVER, |c| c.arrive);
        phit.min(credit)
    }

    /// Drain every credit and every phit of link `li` that has arrived by
    /// `now` into `credits` / `phits`, each in FIFO order, and re-stamp the
    /// link's `next_due` from what is left at the two ring fronts.
    #[inline]
    pub fn drain_arrived(
        &mut self,
        li: usize,
        now: u64,
        credits: &mut Vec<CreditInFlight>,
        phits: &mut Vec<PhitInFlight>,
    ) {
        let ring =
            &self.credit_pool[self.credit_off[li] as usize..self.credit_off[li + 1] as usize];
        let credit = drain_ring(&mut self.credit_meta[li], ring, now, |c| c.arrive, credits);
        let ring = &self.phit_pool[self.phit_off[li] as usize..self.phit_off[li + 1] as usize];
        let phit = drain_ring(&mut self.phit_meta[li], ring, now, |p| p.arrive, phits);
        self.next_due[li] = credit.min(phit);
    }

    /// Move every phit queued on link `li` into `out` regardless of its
    /// arrival stamp (boundary-link export: the phits continue their flight
    /// in the receiving shard's copy).
    pub fn take_phits(&mut self, li: usize, out: &mut Vec<PhitInFlight>) {
        let mut meta = self.phit_meta[li];
        let ring = self.phit_ring(li);
        while let Some(phit) = meta.pop_front(ring) {
            out.push(phit);
        }
        self.phit_meta[li] = meta;
        self.next_due[li] = self.front_stamp(li);
    }

    /// Move every credit queued on link `li` into `out` regardless of its
    /// arrival stamp (boundary-link export toward the transmitting shard).
    pub fn take_credits(&mut self, li: usize, out: &mut Vec<CreditInFlight>) {
        let mut meta = self.credit_meta[li];
        let ring = self.credit_ring(li);
        while let Some(credit) = meta.pop_front(ring) {
            out.push(credit);
        }
        self.credit_meta[li] = meta;
        self.next_due[li] = self.front_stamp(li);
    }

    /// Enqueue a phit that already carries its absolute arrival stamp
    /// (boundary-link import from the transmitting shard).
    #[inline]
    pub fn push_arriving_phit(&mut self, li: usize, phit: PhitInFlight) {
        let mut meta = self.phit_meta[li];
        let ring = self.phit_ring(li);
        debug_assert!(
            meta.back(ring)
                .map(|p| p.arrive <= phit.arrive)
                .unwrap_or(true),
            "imported phits must keep non-decreasing arrival order"
        );
        meta.push_back(ring, phit);
        self.phit_meta[li] = meta;
        self.next_due[li] = self.next_due[li].min(phit.arrive);
    }

    /// Enqueue a credit that already carries its absolute arrival stamp
    /// (boundary-link import from the receiving shard).
    #[inline]
    pub fn push_arriving_credit(&mut self, li: usize, credit: CreditInFlight) {
        let mut meta = self.credit_meta[li];
        let ring = self.credit_ring(li);
        debug_assert!(
            meta.back(ring)
                .map(|c| c.arrive <= credit.arrive)
                .unwrap_or(true),
            "imported credits must keep non-decreasing arrival order"
        );
        meta.push_back(ring, credit);
        self.credit_meta[li] = meta;
        self.next_due[li] = self.next_due[li].min(credit.arrive);
    }

    /// Capacities of link `li`'s `(phit, credit)` rings as built.
    #[inline]
    pub fn capacities(&self, li: usize) -> (usize, usize) {
        (
            self.phit_meta[li].capacity(),
            self.credit_meta[li].capacity(),
        )
    }

    /// Bytes held by the two pipeline pools (capacity × entry size).
    pub fn pool_bytes(&self) -> usize {
        self.phit_pool.capacity() * std::mem::size_of::<PhitInFlight>()
            + self.credit_pool.capacity() * std::mem::size_of::<CreditInFlight>()
    }

    /// Number of phits currently in flight on link `li` — one packed-word
    /// read, no ring traversal.
    #[inline]
    pub fn phits_in_flight(&self, li: usize) -> usize {
        self.phit_meta[li].len()
    }

    /// Number of credits currently in flight on link `li` (packed-word read).
    #[inline]
    pub fn credits_in_flight(&self, li: usize) -> usize {
        self.credit_meta[li].len()
    }

    /// Highest occupancy link `li`'s phit pipeline has ever reached.
    #[inline]
    pub fn phit_high_water(&self, li: usize) -> usize {
        self.phit_meta[li].high_water()
    }

    /// Highest occupancy link `li`'s credit pipeline has ever reached.
    #[inline]
    pub fn credit_high_water(&self, li: usize) -> usize {
        self.credit_meta[li].high_water()
    }

    /// True when nothing is travelling on link `li` in either direction —
    /// two packed-word reads (the watchdog/idle path never walks a ring).
    #[inline]
    pub fn is_idle(&self, li: usize) -> bool {
        self.phit_meta[li].is_empty() && self.credit_meta[li].is_empty()
    }

    /// Maximum phit- and credit-ring high-water marks over every link (probe
    /// diagnostics).  Scans only the two metadata arrays, never the pools.
    pub fn max_high_waters(&self) -> (usize, usize) {
        let mut phit_hw = 0;
        for meta in &self.phit_meta {
            phit_hw = phit_hw.max(meta.high_water());
        }
        let mut credit_hw = 0;
        for meta in &self.credit_meta {
            credit_hw = credit_hw.max(meta.high_water());
        }
        (phit_hw, credit_hw)
    }

    /// Compare every link's cached `next_due` with its ring fronts (the full
    /// scan the cache replaces); `Err` names the first link that disagrees.
    pub fn check_next_due(&self) -> Result<(), String> {
        for li in 0..self.len() {
            let (cached, fronts) = (self.next_due[li], self.front_stamp(li));
            if cached != fronts {
                return Err(format!(
                    "link {li}: next_due is {cached} but the ring fronts say {fronts}"
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
        // ~64k links at h = 8 each materialize latency+1 of these in the
        // fabric pools; the footprint argument in the docs relies on these.
        assert_eq!(std::mem::size_of::<PhitInFlight>(), 16);
        assert_eq!(std::mem::size_of::<CreditInFlight>(), 8);
    }

    #[test]
    fn phit_flags_roundtrip() {
        let p = PhitInFlight::new(PacketId(9), 2, true, false, 8);
        assert!(p.is_head() && !p.is_tail());
        let t = PhitInFlight::new(PacketId(9), 2, false, true, 8);
        assert!(!t.is_head() && t.is_tail());
        let single = PhitInFlight::new(PacketId(9), 2, true, true, 1);
        assert!(single.is_head() && single.is_tail());
    }

    fn phit(packet: u32) -> PhitInFlight {
        PhitInFlight::new(PacketId(packet as u64), 0, true, false, 8)
    }

    fn fabric_of(specs: &[(u64, LinkEnd)]) -> LinkFabric {
        let specs: Vec<LinkSpec> = specs
            .iter()
            .map(|&(latency, to)| LinkSpec {
                latency,
                to,
                phit_cap: latency as usize + 1,
                credit_cap: latency as usize + 1,
            })
            .collect();
        LinkFabric::build(&specs)
    }

    /// Everything of link `li` that has arrived by `now`.
    fn arrived(
        f: &mut LinkFabric,
        li: usize,
        now: u64,
    ) -> (Vec<CreditInFlight>, Vec<PhitInFlight>) {
        let (mut credits, mut phits) = (Vec::new(), Vec::new());
        f.drain_arrived(li, now, &mut credits, &mut phits);
        f.check_next_due().unwrap();
        (credits, phits)
    }

    fn packets(phits: &[PhitInFlight]) -> Vec<PacketId> {
        phits.iter().map(|p| p.packet).collect()
    }

    #[test]
    fn phit_arrives_after_latency() {
        let mut f = fabric_of(&[(10, LinkEnd::Node { node: NodeId(0) })]);
        f.send_phit(0, 5, phit(1));
        assert!(!f.due(0, 14));
        assert!(arrived(&mut f, 0, 14).1.is_empty());
        assert!(f.due(0, 15));
        let (_, out) = arrived(&mut f, 0, 15);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet, PacketId(1));
        assert_eq!(out[0].arrive, 15);
        assert!(f.is_idle(0));
        assert!(!f.due(0, u32::MAX as u64 - 1), "an idle link is never due");
    }

    #[test]
    fn batched_drain_preserves_order_and_stops_at_future_stamps() {
        let mut f = fabric_of(&[(3, LinkEnd::Router { router: 1, port: 2 })]);
        f.send_phit(0, 0, phit(1));
        f.send_phit(0, 1, phit(2));
        f.send_phit(0, 2, phit(3));
        assert_eq!(f.phits_in_flight(0), 3);
        let (_, out) = arrived(&mut f, 0, 4);
        assert_eq!(packets(&out), vec![PacketId(1), PacketId(2)]);
        assert_eq!(f.phits_in_flight(0), 1);
        assert!(!f.due(0, 4) && f.due(0, 5), "re-stamped from the new front");
        let (_, out) = arrived(&mut f, 0, 5);
        assert_eq!(out[0].packet, PacketId(3));
        assert!(f.is_idle(0));
    }

    #[test]
    fn credits_travel_with_latency() {
        let mut f = fabric_of(&[(7, LinkEnd::Router { router: 0, port: 0 })]);
        f.send_credit(0, 100, 2);
        assert!(arrived(&mut f, 0, 106).0.is_empty());
        let (out, _) = arrived(&mut f, 0, 107);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vc, 2);
        assert_eq!(f.credits_in_flight(0), 0);
    }

    #[test]
    fn next_due_is_the_earlier_of_the_two_directions() {
        let mut f = fabric_of(&[(7, LinkEnd::Router { router: 0, port: 0 })]);
        f.send_phit(0, 10, phit(1)); // due at 17
        f.send_credit(0, 4, 0); // due at 11: the credit leads
        f.check_next_due().unwrap();
        assert!(!f.due(0, 10) && f.due(0, 11));
        let (credits, phits) = arrived(&mut f, 0, 11);
        assert_eq!((credits.len(), phits.len()), (1, 0));
        assert!(!f.due(0, 16) && f.due(0, 17), "now the phit leads");
        // A launch behind the front never moves the stamp.
        f.send_phit(0, 12, phit(2));
        f.check_next_due().unwrap();
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
        // Three links, exact-capacity packing: offsets are the prefix sums.
        let f = fabric_of(&[
            (2, LinkEnd::Node { node: NodeId(0) }),
            (4, LinkEnd::Node { node: NodeId(1) }),
            (1, LinkEnd::Node { node: NodeId(2) }),
        ]);
        assert_eq!(f.phit_off, vec![0, 3, 8, 10]);
        assert_eq!(f.phit_pool.len(), 10);
        assert_eq!(f.credit_pool.len(), 10);
    }

    #[test]
    fn neighbouring_rings_do_not_interfere() {
        let mut f = fabric_of(&[
            (1, LinkEnd::Node { node: NodeId(0) }),
            (1, LinkEnd::Node { node: NodeId(1) }),
        ]);
        // Fill both rings to capacity (2 each), wrap one of them, and check
        // the other's contents survive untouched.
        f.send_phit(0, 0, phit(10));
        f.send_phit(1, 0, phit(20));
        f.send_phit(0, 1, phit(11));
        f.send_phit(1, 1, phit(21));
        let (_, out) = arrived(&mut f, 0, 1);
        assert_eq!(out[0].packet, PacketId(10));
        f.send_phit(0, 2, phit(12)); // wraps within link 0's slice
        let (_, out) = arrived(&mut f, 1, 10);
        assert_eq!(packets(&out), vec![PacketId(20), PacketId(21)]);
        let (_, out) = arrived(&mut f, 0, 10);
        assert_eq!(packets(&out), vec![PacketId(11), PacketId(12)]);
    }

    #[test]
    fn shard_export_import_roundtrip() {
        let mut f = fabric_of(&[(5, LinkEnd::Router { router: 3, port: 1 })]);
        f.send_phit(0, 0, phit(1));
        f.send_credit(0, 0, 1);
        let (mut phits, mut credits) = (Vec::new(), Vec::new());
        f.take_phits(0, &mut phits);
        assert!(f.due(0, 5), "the credit is still queued");
        f.take_credits(0, &mut credits);
        assert!(f.is_idle(0));
        assert!(!f.due(0, 5), "an exported link has nothing due");
        assert_eq!(phits[0].arrive, 5);
        f.push_arriving_phit(0, phits[0]);
        f.push_arriving_credit(0, credits[0]);
        assert_eq!(f.phits_in_flight(0), 1);
        assert_eq!(f.credits_in_flight(0), 1);
        assert!(!f.due(0, 4) && f.due(0, 5), "imports keep their stamps");
        let (_, out) = arrived(&mut f, 0, 5);
        assert_eq!(out[0].packet, PacketId(1));
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
        arrived(&mut f, 0, 100);
        assert_eq!(f.phit_high_water(0), 2, "draining keeps the mark");
    }
}
