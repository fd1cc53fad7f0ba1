//! Packets and the per-packet adaptive routing state.

use dragonfly_topology::{GroupId, NodeId};

/// Generational handle to a packet in the simulation's packet arena, 4 bytes.
///
/// The low [`PacketId::INDEX_BITS`] bits are the slot index, the 7 bits
/// above them the slot's generation at allocation time, truncated.  A handle
/// is only valid while the generations match: freeing a slot bumps its
/// generation, so stale ids (use-after-free, double-free) are caught by a
/// single integer compare instead of an `Option` discriminant per slot, for
/// the next 127 reuses of the slot (the 128th brings the generation back).
///
/// The split is fixed, so the link fabric, the delay table and the shard
/// mailboxes decode an id without the arena.  25 index bits suffice because
/// the buffers bound the packets in flight: `SimConfig::validate` rejects a
/// configuration whose arena bound reaches [`PacketId::INDEX_MASK`] (at the
/// paper's VCT setup the bound is 33.3 M slots at h = 16, the largest `h`
/// it accepts, against 2^25 − 1 ≈ 33.6 M).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketId(pub u32);

impl PacketId {
    /// Bits of the slot index.
    pub const INDEX_BITS: u32 = 25;
    /// The index bits set: the one index the arena never hands out, so the
    /// all-ones id names no packet.
    pub const INDEX_MASK: u32 = (1 << Self::INDEX_BITS) - 1;
    /// Generations a slot cycles through before one repeats.
    pub const GENERATIONS: u32 = 1 << (u32::BITS - Self::INDEX_BITS);
    /// The all-ones id, whose index is [`PacketId::INDEX_MASK`]: it names no
    /// packet, so it marks an empty register or list end.
    pub const NONE: Self = Self(u32::MAX);

    /// Assemble a handle from a slot index and its generation, truncated to
    /// the generation's bits.
    #[inline]
    pub fn new(index: usize, generation: u32) -> Self {
        debug_assert!(
            index <= Self::INDEX_MASK as usize,
            "slot {index} beyond the index bits"
        );
        Self(index as u32 | (generation & (Self::GENERATIONS - 1)) << Self::INDEX_BITS)
    }

    /// The raw arena slot index.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & Self::INDEX_MASK) as usize
    }

    /// The arena generation the handle was issued under (truncated).
    #[inline]
    pub fn generation(self) -> u32 {
        self.0 >> Self::INDEX_BITS
    }
}

/// Job/phase tag of packets generated outside any workload job.
pub const UNTAGGED: u16 = u16::MAX;

/// Adaptive routing state carried by every packet and updated on each granted hop.
///
/// The fields mirror the decisions the paper's mechanisms must remember:
/// whether the packet has committed to a Valiant (global misroute) path, which
/// intermediate group it chose, how many local hops it has taken in the current group,
/// whether it has already misrouted locally in this group, the parity-sign class of
/// its last local hop (for RLM) and the virtual channel it currently occupies.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteState {
    /// Virtual channel the packet currently occupies (index within its port class).
    pub vc: u8,
    /// Chosen intermediate group for Valiant/global misrouting, if any.
    pub intermediate_group: Option<GroupId>,
    /// True once the packet has entered its intermediate group (or finished phase 1).
    pub reached_intermediate: bool,
    /// Number of global hops taken so far (0..=2).
    pub global_hops: u8,
    /// Number of local hops taken in the current group.
    pub local_hops_in_group: u8,
    /// Total router-to-router hops taken.
    pub total_hops: u8,
    /// True if the packet committed to a non-minimal global path.
    pub global_misrouted: bool,
    /// True if the packet has already misrouted locally within the current group.
    pub local_misrouted_in_group: bool,
    /// True if the packet misrouted locally anywhere along its path.
    pub local_misrouted_ever: bool,
    /// True once a source-routed decision (Piggybacking/Valiant) has been taken.
    pub source_decision_taken: bool,
    /// Parity-sign class of the last local hop taken in the current group (RLM).
    pub last_local_class: Option<u8>,
}

impl RouteState {
    /// Reset the per-group fields after crossing a global link.
    pub fn enter_new_group(&mut self) {
        self.local_hops_in_group = 0;
        self.local_misrouted_in_group = false;
        self.last_local_class = None;
    }
}

/// One leg of a packet's lifetime, closed at a boundary event: the component
/// of [`DelayState`] its cycles are booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Generation until the head phit enters the source VC.
    InjectionQueue,
    /// Head buffered until granted an output VC.
    VcWait,
    /// Grant until the first phit crosses the switch.
    CreditWait,
    /// First phit out until the head reaches the next buffer or the node.
    LinkTransit,
    /// A wait or transit taken while on a misrouting detour.
    Detour,
    /// Head until tail at the destination node.
    Serialization,
}

/// Per-packet delay-attribution ledger: integer cycle accumulators closed by
/// the engine at component boundaries and folded by the probe layer on
/// delivery.
///
/// The components partition the packet's lifetime exactly — every cycle
/// between generation and tail delivery lands in exactly one accumulator, so
/// their sum equals the end-to-end latency with no residual (the delay
/// layer's cardinal invariant, pinned by `tests/delay_conservation.rs`).
/// `head_stamp` is the one transient field: the cycle of the packet's latest
/// boundary event (generation, head enters a buffer, head granted, first phit
/// out, head reaches the node), consumed and rewritten by the next one
/// ([`DelayState::close_leg`]).  A packet has one head, so one stamp serves
/// every hop and the VC buffers carry none.
///
/// The states live in the network's per-packet delay table, indexed by arena
/// slot, which exists only while the delay probe is armed: a run that does
/// not read the ledger never writes it.  Nothing here feeds back into
/// routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayState {
    /// Cycles between generation and the head phit entering the source VC.
    pub injection_queue: u64,
    /// Cycles the head waited buffered for an output-VC grant (minimal path).
    pub vc_wait: u64,
    /// Cycles the granted head waited for downstream credits / switch
    /// bandwidth before its first phit went out (minimal path).
    pub credit_wait: u64,
    /// Cycles the head spent crossing links, pipeline latency included
    /// (minimal path).
    pub link_transit: u64,
    /// Cycles of waiting and transit accumulated while the packet was on a
    /// misrouting detour (before reaching its Valiant intermediate group, or
    /// on a local misroute within a group).
    pub detour: u64,
    /// Cycles between the head and the tail phit arriving at the destination.
    pub serialization: u64,
    /// Cycle of the latest boundary event (transient bookkeeping, not a
    /// component).
    pub head_stamp: u64,
}

impl DelayState {
    /// The ledger of a packet generated at `gen_cycle`: every component zero,
    /// the first leg (the source queue) open since generation.
    #[inline]
    pub fn generated_at(gen_cycle: u64) -> Self {
        Self {
            head_stamp: gen_cycle,
            ..Self::default()
        }
    }

    /// Close the leg open since `head_stamp` at `cycle`: book its cycles to
    /// `leg` and open the next one.
    #[inline]
    pub fn close_leg(&mut self, leg: Leg, cycle: u64) {
        let cycles = cycle - self.head_stamp;
        *match leg {
            Leg::InjectionQueue => &mut self.injection_queue,
            Leg::VcWait => &mut self.vc_wait,
            Leg::CreditWait => &mut self.credit_wait,
            Leg::LinkTransit => &mut self.link_transit,
            Leg::Detour => &mut self.detour,
            Leg::Serialization => &mut self.serialization,
        } += cycles;
        self.head_stamp = cycle;
    }

    /// The six components, in the probe's column order.
    #[inline]
    pub fn components(&self) -> [u64; 6] {
        [
            self.injection_queue,
            self.vc_wait,
            self.credit_wait,
            self.link_transit,
            self.detour,
            self.serialization,
        ]
    }
}

/// A packet in flight: what routing and the statistics read, 48 bytes.  The
/// delay ledger is not here (see [`DelayState`]).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Arena identifier.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet size in phits.
    pub size: u16,
    /// Cycle at which the source generated the packet (start of latency measurement).
    pub gen_cycle: u64,
    /// Whether the packet was generated inside the measurement window.
    pub measured: bool,
    /// Workload job that generated the packet ([`UNTAGGED`] outside workloads).
    pub job: u16,
    /// Job phase active when the packet was generated ([`UNTAGGED`] outside workloads).
    pub phase: u16,
    /// Adaptive routing state.
    pub route: RouteState,
}

impl Packet {
    /// Create a fresh packet.
    pub fn new(id: PacketId, src: NodeId, dst: NodeId, size: u16, gen_cycle: u64) -> Self {
        Self {
            id,
            src,
            dst,
            size,
            gen_cycle,
            measured: false,
            job: UNTAGGED,
            phase: UNTAGGED,
            route: RouteState::default(),
        }
    }

    /// Packet size in phits as `usize`.
    #[inline]
    pub fn size_phits(&self) -> usize {
        self.size as usize
    }
}

/// The link that ends a list: the last free slot, or a buffered packet with
/// no successor in its VC.
const NO_LINK: u32 = u32::MAX;

/// Dense generational slab of packets with slot reuse, and the links that
/// thread both the free slots and every input VC's packets through it.
///
/// Slots are a plain `Vec<Packet>`; the authoritative generation of a slot
/// lives *inside the slot*, as the generation bits of its `id` field, so a
/// freed slot keeps its stale `Packet` bytes (every field is `Copy`) and is
/// invalidated purely by bumping `slot.id`'s generation in place.
/// `get`/`get_mut` are a bounds check plus one integer compare against memory
/// the caller is about to read anyway (the slot's own cache line — no side
/// lookup, no `Option` unwrap), and the lifetime bugs the old
/// `Vec<Option<Packet>>` caught (use-after-free, double free) still panic,
/// now via the id mismatch.
///
/// **Links.**  Beside the slots is one `u32` link per slot, which means one
/// of two things.  A free slot links to the next free slot: the free list is
/// a LIFO stack threaded through the links, headed by `free`.  A live slot
/// links to the packet behind it in the one input VC where it is *not* the
/// tail ([`crate::buffer::InputVc`] keeps only its head and tail; the
/// packets between are found through these links).  That VC is unique: a
/// packet gains a successor in VC *Y* only once it is fully received there
/// (phits of two packets never interleave in a VC), so its tail has left
/// every upstream VC, and leaving a VC — the tail phit's send pops the
/// packet — resets its link.  Upstream of *Y* it has no link left; downstream
/// it is at most partly received, so the tail of every VC it occupies there.
/// Appending behind a tail asserts, in debug builds, that the tail's link is
/// unset.  A packet adopted from another shard ([`PacketArena::adopt`]) gets
/// a fresh slot whose link `alloc` resets; the exporting shard's copy is
/// popped from its VC before the tail phit leaves and freed after.
///
/// **Growth.**  A slot's first use is a push; the free list holds only slots
/// that were freed, reused LIFO.  So a fresh arena hands out `0, 1, 2, …`
/// whatever its reservation, and reports never depend on it.  The engine
/// reserves the slab and its links at the bound the buffers put on the
/// packets in flight ([`crate::Network::arena_bound`], never below
/// [`crate::network::MIN_RESERVED_SLOTS`], which makes the reservation a
/// fresh mapping): untouched capacity is address space, not resident
/// memory, and a push inside the reservation never calls the allocator.  A
/// push beyond it still works but is counted in [`PacketArena::grows`], so
/// a bound that does not hold is visible.
#[derive(Debug)]
pub struct PacketArena {
    slots: Vec<Packet>,
    /// One per slot: the next free slot of a free one, the successor in its
    /// VC of a buffered one; [`NO_LINK`] ends either list.
    links: Vec<u32>,
    /// First free slot ([`NO_LINK`] when every slot is live).
    free: u32,
    live: usize,
    /// Slots reserved at construction.
    reserved: usize,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl PacketArena {
    /// Create an empty arena (every first use of a slot grows the slab).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty arena with `slots` reserved: the slab and its links
    /// are allocated but not written, and the first `slots` pushes never
    /// reallocate.
    pub fn with_capacity(slots: usize) -> Self {
        Self {
            slots: Vec::with_capacity(slots),
            links: Vec::with_capacity(slots),
            free: NO_LINK,
            live: 0,
            reserved: slots,
        }
    }

    /// Allocate a new packet and return its id.  Its link is unset.
    pub fn alloc(&mut self, src: NodeId, dst: NodeId, size: u16, gen_cycle: u64) -> PacketId {
        self.live += 1;
        if self.free != NO_LINK {
            let idx = self.free as usize;
            self.free = std::mem::replace(&mut self.links[idx], NO_LINK);
            // The free slot's own id field carries its current generation.
            let id = self.slots[idx].id;
            debug_assert_eq!(id.index(), idx);
            self.slots[idx] = Packet::new(id, src, dst, size, gen_cycle);
            id
        } else {
            let idx = self.slots.len();
            // Index `INDEX_MASK` is never issued, so no id is all ones.
            assert!(idx < PacketId::INDEX_MASK as usize, "packet arena full");
            let id = PacketId::new(idx, 0);
            self.slots.push(Packet::new(id, src, dst, size, gen_cycle));
            self.links.push(NO_LINK);
            id
        }
    }

    /// Immutable access to a live packet.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        let slot = &self.slots[id.index()];
        assert!(slot.id == id, "access to a freed packet {id:?}");
        slot
    }

    /// Mutable access to a live packet.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        let slot = &mut self.slots[id.index()];
        assert!(slot.id == id, "access to a freed packet {id:?}");
        slot
    }

    /// Adopt a packet arriving from another shard's arena: allocate a local
    /// slot, copy every field of `packet` and return the *local* id (the
    /// packet's `id` field is rewritten to match).  The local slot's link is
    /// unset, whatever the exporting shard's copy links to.
    pub fn adopt(&mut self, packet: &Packet) -> PacketId {
        let id = self.alloc(packet.src, packet.dst, packet.size, packet.gen_cycle);
        let slot = self.get_mut(id);
        *slot = packet.clone();
        slot.id = id;
        id
    }

    /// Free a delivered packet's slot for reuse.  Bumping the generation bits
    /// of the slot's own `id` (wrapping) is what invalidates every
    /// outstanding handle.
    pub fn free(&mut self, id: PacketId) {
        let idx = id.index();
        assert!(self.slots[idx].id == id, "double free of packet {id:?}");
        debug_assert_eq!(
            self.links[idx], NO_LINK,
            "packet {id:?} freed while linked into an input VC"
        );
        self.slots[idx].id = PacketId::new(idx, id.generation() + 1);
        self.links[idx] = self.free;
        self.free = idx as u32;
        self.live -= 1;
    }

    /// The packet behind live packet `id` in the input VC where `id` is not
    /// the tail, if any.
    #[inline]
    pub fn successor(&self, id: PacketId) -> Option<PacketId> {
        let link = self.links[self.get(id).id.index()];
        (link != NO_LINK).then(|| self.slots[link as usize].id)
    }

    /// Link `next` behind `tail` in their input VC.
    #[inline]
    pub(crate) fn link_behind(&mut self, tail: PacketId, next: PacketId) {
        let link = &mut self.links[tail.index()];
        debug_assert_eq!(
            *link, NO_LINK,
            "packet {tail:?} already has a successor in another VC"
        );
        *link = next.index() as u32;
    }

    /// Unlink `head`, which is leaving its input VC, from the packet behind
    /// it and return that packet, if any.
    #[inline]
    pub(crate) fn take_successor(&mut self, head: PacketId) -> Option<PacketId> {
        let link = std::mem::replace(&mut self.links[head.index()], NO_LINK);
        (link != NO_LINK).then(|| self.slots[link as usize].id)
    }

    /// Number of live (allocated, not yet freed) packets.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Pushes beyond the construction-time reservation: slots first used
    /// past it (telemetry: an engine-built arena is reserved at the bound
    /// the buffers set, so a non-zero value means the bound failed; see
    /// `RESULTS.md` for why this is deliberately *not* a report column).
    #[inline]
    pub fn grows(&self) -> u64 {
        self.slots.len().saturating_sub(self.reserved) as u64
    }

    /// Bytes reserved for the slab and its links (capacity × element size);
    /// resident only as far as slots have been used.
    pub fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Packet>()
            + self.links.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_state_group_reset() {
        let mut rs = RouteState {
            local_hops_in_group: 2,
            local_misrouted_in_group: true,
            last_local_class: Some(3),
            global_hops: 1,
            total_hops: 3,
            ..RouteState::default()
        };
        rs.enter_new_group();
        assert_eq!(rs.local_hops_in_group, 0);
        assert!(!rs.local_misrouted_in_group);
        assert!(rs.last_local_class.is_none());
        // Global state is preserved.
        assert_eq!(rs.global_hops, 1);
        assert_eq!(rs.total_hops, 3);
    }

    #[test]
    fn closed_legs_telescope_to_the_lifetime() {
        let mut d = DelayState::generated_at(5);
        d.close_leg(Leg::InjectionQueue, 7);
        d.close_leg(Leg::VcWait, 7);
        d.close_leg(Leg::CreditWait, 9);
        d.close_leg(Leg::Detour, 20);
        d.close_leg(Leg::LinkTransit, 30);
        d.close_leg(Leg::Serialization, 37);
        assert_eq!(d.components(), [2, 0, 2, 10, 11, 7]);
        assert_eq!(d.components().iter().sum::<u64>(), 37 - 5);
        assert_eq!(d.head_stamp, 37);
    }

    #[test]
    fn arena_alloc_get_free() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId(0), NodeId(5), 8, 100);
        let b = arena.alloc(NodeId(1), NodeId(6), 8, 101);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).src, NodeId(0));
        assert_eq!(arena.get(b).dst, NodeId(6));
        arena.get_mut(a).route.global_hops = 2;
        assert_eq!(arena.get(a).route.global_hops, 2);
        arena.free(a);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn arena_reuses_slots() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        arena.free(a);
        let b = arena.alloc(NodeId(2), NodeId(3), 8, 1);
        assert_eq!(a.index(), b.index(), "freed slot should be reused");
        assert_ne!(
            a.generation(),
            b.generation(),
            "reuse must issue a fresh generation"
        );
        assert_ne!(a, b);
        assert_eq!(arena.grows(), 1, "one slot pushed, then reused");
        assert_eq!(arena.get(b).src, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "freed packet")]
    fn arena_rejects_stale_id_after_reuse() {
        // The dangerous aliasing case: the slot is live again under a newer
        // generation, and a stale handle to the previous occupant must still
        // be rejected.
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        arena.free(a);
        let b = arena.alloc(NodeId(2), NodeId(3), 8, 1);
        assert_eq!(a.index(), b.index());
        let _ = arena.get(a);
    }

    #[test]
    fn preallocated_arena_matches_cold_id_sequence() {
        let mut cold = PacketArena::new();
        let mut warm = PacketArena::with_capacity(4);
        for i in 0..6 {
            let c = cold.alloc(NodeId(i), NodeId(i + 1), 8, i as u64);
            let w = warm.alloc(NodeId(i), NodeId(i + 1), 8, i as u64);
            assert_eq!(c, w, "id sequence must not depend on the reservation");
        }
        // Four reserved slots, six first uses: two pushes beyond it.
        assert_eq!(warm.grows(), 2);
        assert_eq!(cold.grows(), 6);
        // A freed slot is reused before another one is pushed.
        let seventh = warm.alloc(NodeId(0), NodeId(1), 8, 6);
        assert_eq!(seventh.index(), 6);
        warm.free(seventh);
        assert_eq!(warm.alloc(NodeId(0), NodeId(1), 8, 7).index(), 6);
        assert_eq!(warm.grows(), 3);
    }

    #[test]
    #[should_panic(expected = "freed packet")]
    fn arena_rejects_use_after_free() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        arena.free(a);
        let _ = arena.get(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn arena_rejects_double_free() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        arena.free(a);
        arena.free(a);
    }

    #[test]
    fn packet_id_round_trips_at_the_top_of_both_fields() {
        let id = PacketId::new(PacketId::INDEX_MASK as usize - 1, 127);
        assert_eq!(id.index(), (1 << 25) - 2);
        assert_eq!(id.generation(), 127);
        assert_ne!(id, PacketId(u32::MAX), "the all-ones id is no arena slot's");
        // A generation past the seven bits wraps without touching the index.
        assert_eq!(PacketId::new(5, 128), PacketId::new(5, 0));
    }

    #[test]
    fn a_slot_generation_wraps_after_128_reuses() {
        let mut arena = PacketArena::new();
        let first = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        let mut id = first;
        for _ in 0..PacketId::GENERATIONS - 1 {
            arena.free(id);
            id = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        }
        assert_eq!((id.index(), id.generation()), (0, 127));
        let previous = id;
        arena.free(previous);
        let wrapped = arena.alloc(NodeId(0), NodeId(1), 8, 0);
        assert_eq!(wrapped, first, "the 128th reuse brings generation 0 back");
        let stale = std::panic::catch_unwind(|| arena.get(previous).src);
        assert!(stale.is_err(), "a generation-127 handle must be rejected");
    }

    #[test]
    fn packet_constructor_defaults() {
        let p = Packet::new(PacketId(3), NodeId(1), NodeId(2), 8, 42);
        assert_eq!(p.gen_cycle, 42);
        assert!(!p.measured);
        assert_eq!(p.job, UNTAGGED);
        assert_eq!(p.phase, UNTAGGED);
        assert_eq!(p.route.total_hops, 0);
        assert_eq!(p.size_phits(), 8);
    }
}
