//! Packets and the per-packet adaptive routing state.

use dragonfly_topology::{GroupId, NodeId};

/// Generational handle to a packet in the simulation's packet arena.
///
/// The low 32 bits are the slot index, the high 32 bits the slot's generation
/// at allocation time.  A handle is only valid while the generations match:
/// freeing a slot bumps its generation, so stale ids (use-after-free,
/// double-free) are caught by a single integer compare instead of an
/// `Option` discriminant per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketId(pub u64);

impl PacketId {
    /// Assemble a handle from a slot index and its generation.
    #[inline]
    pub fn new(index: usize, generation: u32) -> Self {
        Self(index as u64 | ((generation as u64) << 32))
    }

    /// The raw arena slot index.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The arena generation the handle was issued under.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
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

/// Per-packet delay-attribution ledger: integer cycle accumulators stamped by
/// the engine at component boundaries and folded by the probe layer on
/// delivery.
///
/// The components partition the packet's lifetime exactly — every cycle
/// between generation and tail delivery lands in exactly one accumulator, so
/// their sum equals the end-to-end latency with no residual (the delay
/// layer's cardinal invariant, pinned by `tests/delay_conservation.rs`).
/// `head_stamp` is the one transient field, and the only per-hop stamp the
/// engine keeps: the cycle of the packet's latest boundary event (head enters
/// a buffer, head granted, first phit out, head reaches the node), consumed
/// and rewritten by the next one.  A packet has one head, so one stamp
/// serves every hop and the VC buffers carry none.  Stamping is unconditional
/// (plain integer writes on state the engine already touches), so the probe
/// passivity invariant is untouched: nothing here feeds back into routing.
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
    /// Cycle of the latest boundary event: written when the head enters a
    /// buffer (injection feed or link arrival), read and rewritten at the
    /// grant and at the first phit out, read at the node (transient
    /// bookkeeping, not a component).
    pub head_stamp: u64,
}

impl DelayState {
    /// Sum of all components — equals the delivered end-to-end latency.
    #[inline]
    pub fn total(&self) -> u64 {
        self.injection_queue
            + self.vc_wait
            + self.credit_wait
            + self.link_transit
            + self.detour
            + self.serialization
    }
}

/// A packet in flight.
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
    /// Delay-attribution accumulators (stamped unconditionally, read only on
    /// delivery when the delay probe is armed).
    pub delay: DelayState,
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
            delay: DelayState::default(),
        }
    }

    /// Packet size in phits as `usize`.
    #[inline]
    pub fn size_phits(&self) -> usize {
        self.size as usize
    }
}

/// Dense generational slab of packets with slot reuse.
///
/// Slots are a plain `Vec<Packet>`; the authoritative generation of a slot
/// lives *inside the slot*, as the generation half of its `id` field, so a
/// freed slot keeps its stale `Packet` bytes (every field is `Copy`) and is
/// invalidated purely by bumping `slot.id`'s generation in place.
/// `get`/`get_mut` are a bounds check plus one integer compare against memory
/// the caller is about to read anyway (the slot's own cache line — no side
/// lookup, no `Option` unwrap), and the lifetime bugs the old
/// `Vec<Option<Packet>>` caught (use-after-free, double free) still panic,
/// now via the id mismatch.
///
/// The slab is preallocated at construction (the engine sizes it from
/// [`crate::SimConfig::arena_prealloc_for`]); growth beyond the preallocation
/// still works but is counted in [`PacketArena::grows`] so capacity planning
/// mistakes are visible.  Freed slots are reused LIFO, and the preallocated
/// free list is ordered so a fresh arena hands out indices `0, 1, 2, …` —
/// exactly the sequence a cold (unpreallocated) arena produces, which keeps
/// reports byte-identical regardless of preallocation.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
    allocated_total: u64,
    grows: u64,
}

impl PacketArena {
    /// Create an empty arena (every allocation will grow the slab).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an arena with `slots` preallocated, reuse-ordered so the id
    /// sequence matches a cold arena exactly.
    pub fn with_capacity(slots: usize) -> Self {
        // Each free slot's `id` records its own index at generation 0.
        let slots = (0..slots)
            .map(|i| Packet::new(PacketId::new(i, 0), NodeId(0), NodeId(0), 0, 0))
            .collect::<Vec<_>>();
        Self {
            // LIFO free list: store indices descending so pops yield 0, 1, 2, …
            free: (0..slots.len() as u32).rev().collect(),
            slots,
            live: 0,
            allocated_total: 0,
            grows: 0,
        }
    }

    /// Allocate a new packet and return its id.
    pub fn alloc(&mut self, src: NodeId, dst: NodeId, size: u16, gen_cycle: u64) -> PacketId {
        self.allocated_total += 1;
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let idx = idx as usize;
            // The free slot's own id field carries its current generation.
            let id = self.slots[idx].id;
            debug_assert_eq!(id.index(), idx);
            self.slots[idx] = Packet::new(id, src, dst, size, gen_cycle);
            id
        } else {
            self.grows += 1;
            let idx = self.slots.len();
            let id = PacketId::new(idx, 0);
            self.slots.push(Packet::new(id, src, dst, size, gen_cycle));
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
    /// packet's `id` field is rewritten to match).
    pub fn adopt(&mut self, packet: &Packet) -> PacketId {
        let id = self.alloc(packet.src, packet.dst, packet.size, packet.gen_cycle);
        let slot = self.get_mut(id);
        *slot = packet.clone();
        slot.id = id;
        id
    }

    /// Free a delivered packet's slot for reuse.  Bumping the generation half
    /// of the slot's own `id` is what invalidates every outstanding handle.
    pub fn free(&mut self, id: PacketId) {
        let idx = id.index();
        assert!(self.slots[idx].id == id, "double free of packet {id:?}");
        self.slots[idx].id = PacketId::new(idx, id.generation().wrapping_add(1));
        self.free.push(idx as u32);
        self.live -= 1;
    }

    /// Number of live (allocated, not yet freed) packets.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total packets ever allocated.
    #[inline]
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }

    /// Times the slab grew beyond its preallocation (telemetry: a non-zero
    /// value after a run means `SimConfig::arena_prealloc_for` under-sized
    /// the arena; see `RESULTS.md` for why this is deliberately *not* a
    /// report column).
    #[inline]
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Bytes held by the slab and its free list (capacity × element size).
    pub fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Packet>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Capacity of the underlying slot vector (diagnostic).
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
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
        assert_eq!(arena.allocated_total(), 2);
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
        assert_eq!(arena.capacity_slots(), 1);
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
        assert_eq!(warm.capacity_slots(), 4);
        for i in 0..6 {
            let c = cold.alloc(NodeId(i), NodeId(i + 1), 8, i as u64);
            let w = warm.alloc(NodeId(i), NodeId(i + 1), 8, i as u64);
            assert_eq!(c, w, "id sequence must not depend on preallocation");
        }
        // Four preallocated slots, six allocations: the slab grew twice.
        assert_eq!(warm.grows(), 2);
        assert_eq!(cold.grows(), 6);
        assert_eq!(warm.capacity_slots(), 6);
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
