//! Time-varying destination adapter for jobs that appear and disappear.
//!
//! The static [`crate::WorkloadPattern`] fixes its node→slot map and per-slot phase
//! schedules at compile time; a dynamic job scheduler cannot use it because jobs are
//! placed (and their node sets chosen) *during* the run.  [`DynamicSlots`] is the
//! mutable sibling: the scheduler installs a pattern over a node set when a job is
//! placed and clears it when the job departs, while the simulation engine keeps
//! asking the same `destination` question every time a source generates a packet.

use crate::{BoxedPattern, TrafficPattern, Uniform, UNASSIGNED_SLOT};
use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, NodeId};

/// A mutable node→slot map with one installable destination pattern per slot
/// (see the module docs).
pub struct DynamicSlots {
    slot_of_node: Vec<u16>,
    patterns: Vec<Option<BoxedPattern>>,
    fallback: Uniform,
}

impl DynamicSlots {
    /// An empty adapter for a machine of `num_nodes` nodes and up to `slots` jobs.
    pub fn new(num_nodes: usize, slots: usize) -> Self {
        assert!(
            slots < UNASSIGNED_SLOT as usize,
            "too many slots for the u16 slot tag"
        );
        Self {
            slot_of_node: vec![UNASSIGNED_SLOT; num_nodes],
            patterns: (0..slots).map(|_| None).collect(),
            fallback: Uniform::new(),
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.patterns.len()
    }

    /// The slot a node currently belongs to, if any.
    pub fn slot_of(&self, node: NodeId) -> Option<u16> {
        match self.slot_of_node.get(node.index()) {
            Some(&s) if s != UNASSIGNED_SLOT => Some(s),
            _ => None,
        }
    }

    /// Install `pattern` for `slot` over `nodes` (a placed job).
    ///
    /// # Panics
    ///
    /// Panics when the slot is already installed or any node is already claimed —
    /// the scheduler's node-disjointness invariant.
    pub fn install(&mut self, slot: u16, nodes: &[NodeId], pattern: BoxedPattern) {
        assert!(
            self.patterns[slot as usize].is_none(),
            "slot {slot} installed twice"
        );
        for &node in nodes {
            let entry = &mut self.slot_of_node[node.index()];
            assert_eq!(
                *entry, UNASSIGNED_SLOT,
                "node {node:?} already belongs to slot {}",
                *entry
            );
            *entry = slot;
        }
        self.patterns[slot as usize] = Some(pattern);
    }

    /// Tear `slot` down (a departed job): its nodes become unassigned and the
    /// pattern is dropped.
    ///
    /// # Panics
    ///
    /// Panics when the slot is not installed or `nodes` does not match the
    /// installed node set.
    pub fn clear(&mut self, slot: u16, nodes: &[NodeId]) {
        assert!(
            self.patterns[slot as usize].is_some(),
            "slot {slot} cleared while not installed"
        );
        for &node in nodes {
            let entry = &mut self.slot_of_node[node.index()];
            assert_eq!(*entry, slot, "node {node:?} does not belong to slot {slot}");
            *entry = UNASSIGNED_SLOT;
        }
        self.patterns[slot as usize] = None;
    }

    /// Destination for a packet generated at `src` during `cycle`: the installed
    /// pattern of the source's slot, or machine-wide uniform for unassigned nodes
    /// (a scheduler never injects from those, but burst preloads may).
    pub fn destination(
        &self,
        cycle: u64,
        src: NodeId,
        params: &DragonflyParams,
        rng: &mut Rng,
    ) -> NodeId {
        match self.slot_of(src) {
            Some(slot) => self.patterns[slot as usize]
                .as_ref()
                .expect("assigned nodes always have an installed pattern")
                .destination_at(cycle, src, params, rng),
            None => self.fallback.destination(src, params, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shift;

    fn params() -> DragonflyParams {
        DragonflyParams::new(2)
    }

    fn shift(offset: usize) -> BoxedPattern {
        Box::new(Shift(offset))
    }

    #[test]
    fn install_routes_and_clear_reverts_to_uniform() {
        let p = params();
        let mut slots = DynamicSlots::new(p.num_nodes(), 4);
        assert_eq!(slots.slots(), 4);
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        slots.install(2, &nodes, shift(1));
        assert_eq!(slots.slot_of(NodeId(0)), Some(2));
        assert_eq!(slots.slot_of(NodeId(4)), None);
        let mut rng = Rng::seed_from(1);
        assert_eq!(slots.destination(0, NodeId(3), &p, &mut rng), NodeId(4));
        slots.clear(2, &nodes);
        assert_eq!(slots.slot_of(NodeId(3)), None);
        // Cleared nodes fall back to machine-wide uniform (never src itself).
        for _ in 0..50 {
            let d = slots.destination(0, NodeId(3), &p, &mut rng);
            assert_ne!(d, NodeId(3));
        }
        // The slot is reusable after the teardown.
        slots.install(2, &nodes, shift(2));
        assert_eq!(slots.destination(9, NodeId(3), &p, &mut rng), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let mut slots = DynamicSlots::new(72, 2);
        slots.install(0, &[NodeId(0)], shift(1));
        slots.install(0, &[NodeId(1)], shift(1));
    }

    #[test]
    #[should_panic(expected = "already belongs to slot")]
    fn overlapping_install_panics() {
        let mut slots = DynamicSlots::new(72, 2);
        slots.install(0, &[NodeId(5)], shift(1));
        slots.install(1, &[NodeId(5)], shift(1));
    }

    #[test]
    #[should_panic(expected = "does not belong to slot")]
    fn mismatched_clear_panics() {
        let mut slots = DynamicSlots::new(72, 2);
        slots.install(0, &[NodeId(0)], shift(1));
        slots.clear(0, &[NodeId(1)]);
    }
}
