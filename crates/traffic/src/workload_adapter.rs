//! Node-indexed, time-aware composite pattern used by the workload subsystem.
//!
//! A [`WorkloadPattern`] partitions the machine's nodes into *slots* (one per job)
//! and gives every slot a *schedule*: a list of `(start_cycle, pattern)` entries
//! sorted by start cycle.  The destination of a packet is chosen by the pattern of
//! the source node's slot that is active at the generation cycle, so a single
//! `Box<dyn TrafficPattern>` can drive a multi-job, phase-switching workload through
//! the unchanged simulation engine.

use crate::{BoxedPattern, TrafficPattern, Uniform};
use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, NodeId};

/// Slot value for nodes that belong to no job (they fall back to uniform traffic if
/// a destination is ever requested for them; the workload runtime never injects from
/// such nodes).
pub const UNASSIGNED_SLOT: u16 = u16::MAX;

/// Per-slot phase schedule: patterns switching at cycle boundaries.
struct Schedule {
    /// Phase start cycles, strictly increasing, first entry 0.
    starts: Vec<u64>,
    /// Pattern of each phase (same length as `starts`).
    patterns: Vec<BoxedPattern>,
}

impl Schedule {
    /// Index of the phase active at `cycle`.
    #[inline]
    fn phase_at(&self, cycle: u64) -> usize {
        // partition_point returns the number of starts ≤ cycle; phases are few
        // (usually 1-3), so this is effectively a couple of comparisons.
        self.starts.partition_point(|&s| s <= cycle) - 1
    }
}

/// Node-indexed, time-aware composite of traffic patterns (see module docs).
pub struct WorkloadPattern {
    label: String,
    slot_of_node: Vec<u16>,
    schedules: Vec<Schedule>,
}

impl WorkloadPattern {
    /// Build the composite.
    ///
    /// `slot_of_node[n]` names the schedule of node `n` (or [`UNASSIGNED_SLOT`]);
    /// `schedules[s]` is the `(start_cycle, pattern)` list of slot `s`, which must be
    /// non-empty, sorted by strictly increasing start cycle and begin at cycle 0.
    pub fn new(
        label: impl Into<String>,
        slot_of_node: Vec<u16>,
        schedules: Vec<Vec<(u64, BoxedPattern)>>,
    ) -> Self {
        for &slot in &slot_of_node {
            assert!(
                slot == UNASSIGNED_SLOT || (slot as usize) < schedules.len(),
                "node assigned to slot {slot} but only {} schedules given",
                schedules.len()
            );
        }
        let schedules = schedules
            .into_iter()
            .map(|entries| {
                assert!(!entries.is_empty(), "every slot needs at least one phase");
                let (starts, patterns): (Vec<u64>, Vec<BoxedPattern>) = entries.into_iter().unzip();
                assert_eq!(starts[0], 0, "the first phase must start at cycle 0");
                assert!(
                    starts.windows(2).all(|w| w[0] < w[1]),
                    "phase start cycles must be strictly increasing"
                );
                Schedule { starts, patterns }
            })
            .collect();
        Self {
            label: label.into(),
            slot_of_node,
            schedules,
        }
    }

    /// Number of slots (jobs).
    pub fn slots(&self) -> usize {
        self.schedules.len()
    }

    /// Slot of a node, if assigned.
    pub fn slot_of(&self, node: NodeId) -> Option<u16> {
        match self.slot_of_node.get(node.index()) {
            Some(&s) if s != UNASSIGNED_SLOT => Some(s),
            _ => None,
        }
    }

    /// Index of the phase of `slot` active at `cycle`.
    pub fn phase_at(&self, slot: u16, cycle: u64) -> usize {
        self.schedules[slot as usize].phase_at(cycle)
    }
}

impl TrafficPattern for WorkloadPattern {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        self.destination_at(0, src, params, rng)
    }

    fn destination_at(
        &self,
        cycle: u64,
        src: NodeId,
        params: &DragonflyParams,
        rng: &mut Rng,
    ) -> NodeId {
        match self.slot_of(src) {
            Some(slot) => {
                let schedule = &self.schedules[slot as usize];
                let phase = schedule.phase_at(cycle);
                schedule.patterns[phase].destination_at(cycle, src, params, rng)
            }
            None => Uniform.destination(src, params, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdversarialGlobal, Shift};

    fn params() -> DragonflyParams {
        DragonflyParams::new(2)
    }

    fn shift(offset: usize) -> BoxedPattern {
        Box::new(Shift(offset))
    }

    #[test]
    fn routes_by_slot_and_phase() {
        let p = params();
        let n = p.num_nodes();
        // Even nodes: slot 0 (shift +1 forever). Odd nodes: slot 1, shift +2 until
        // cycle 100, then shift +3.
        let slot_of_node = (0..n).map(|i| (i % 2) as u16).collect();
        let pattern = WorkloadPattern::new(
            "test",
            slot_of_node,
            vec![vec![(0, shift(1))], vec![(0, shift(2)), (100, shift(3))]],
        );
        let mut rng = Rng::seed_from(1);
        assert_eq!(
            pattern.destination_at(0, NodeId(4), &p, &mut rng),
            NodeId(5)
        );
        assert_eq!(
            pattern.destination_at(0, NodeId(5), &p, &mut rng),
            NodeId(7)
        );
        assert_eq!(
            pattern.destination_at(99, NodeId(5), &p, &mut rng),
            NodeId(7)
        );
        assert_eq!(
            pattern.destination_at(100, NodeId(5), &p, &mut rng),
            NodeId(8)
        );
        assert_eq!(
            pattern.destination_at(10_000, NodeId(5), &p, &mut rng),
            NodeId(8)
        );
        assert_eq!(pattern.phase_at(1, 99), 0);
        assert_eq!(pattern.phase_at(1, 100), 1);
        assert_eq!(pattern.name(), "test");
    }

    #[test]
    fn unassigned_nodes_fall_back_to_uniform() {
        let p = params();
        let mut slot_of_node = vec![UNASSIGNED_SLOT; p.num_nodes()];
        slot_of_node[0] = 0;
        let pattern = WorkloadPattern::new(
            "partial",
            slot_of_node,
            vec![vec![(
                0,
                Box::new(AdversarialGlobal::new(1)) as BoxedPattern,
            )]],
        );
        let mut rng = Rng::seed_from(2);
        assert!(pattern.slot_of(NodeId(0)).is_some());
        assert!(pattern.slot_of(NodeId(1)).is_none());
        for _ in 0..100 {
            let d = pattern.destination_at(0, NodeId(1), &p, &mut rng);
            assert_ne!(d, NodeId(1));
        }
    }

    #[test]
    #[should_panic(expected = "first phase must start at cycle 0")]
    fn rejects_late_first_phase() {
        WorkloadPattern::new("bad", vec![0], vec![vec![(5, shift(1))]]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_phases() {
        WorkloadPattern::new(
            "bad",
            vec![0],
            vec![vec![(0, shift(1)), (50, shift(2)), (50, shift(3))]],
        );
    }

    #[test]
    #[should_panic(expected = "schedules given")]
    fn rejects_out_of_range_slot() {
        WorkloadPattern::new("bad", vec![3], vec![vec![(0, shift(1))]]);
    }
}
