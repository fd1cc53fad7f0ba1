//! The adapters from the two job spec kinds to the one runtime.
//!
//! A static [`WorkloadSpec`] and an arrival [`Trace`] are both a [`JobList`],
//! whose `schedule` turns the spec into the [`Schedule`] the engine drives: a
//! workload's jobs all arrive at cycle 0, carry their phase table and never
//! complete; a trace's jobs arrive over time, run one phase and leave on their
//! [`crate::Completion`].

use crate::runtime::{Job, Schedule};
use crate::spec::{PhaseSpec, WorkloadSpec};
use crate::trace::Trace;
use dragonfly_topology::DragonflyParams;

/// A job list the runtime runs: a static [`WorkloadSpec`] or an arrival
/// [`Trace`].
pub trait JobList {
    /// Compile the jobs against a topology and a packet size in phits, which
    /// turns every phase's offered load into a per-node, per-cycle packet
    /// probability exactly like [`dragonfly_traffic::BernoulliInjection`].
    ///
    /// # Panics
    ///
    /// Panics when the jobs could never all be placed: a job larger than the
    /// machine, or a static workload needing more nodes than it has.  A static
    /// workload also panics on what [`WorkloadSpec::new`] rejects, so a phase
    /// table edited after `new` cannot reach the runtime unchecked.
    fn schedule(&self, params: &DragonflyParams, packet_size: usize) -> Schedule;
}

impl JobList for WorkloadSpec {
    /// Every job arrives at cycle 0 and never completes; the jobs are placed
    /// in specification order by the first [`Schedule::advance_to`].
    fn schedule(&self, params: &DragonflyParams, packet_size: usize) -> Schedule {
        self.assert_valid();
        let total: usize = self.jobs.iter().map(|j| j.size).sum();
        let num_nodes = params.num_nodes();
        assert!(
            total <= num_nodes,
            "workload needs {total} nodes but the machine has {num_nodes}"
        );
        let jobs = self
            .jobs
            .iter()
            .map(|job| Job::new(&job.name, 0, job.size, job.placement, &job.phases, None))
            .collect();
        Schedule::new(self.label(), jobs, params, packet_size)
    }
}

impl JobList for Trace {
    /// Every job runs one phase from its placement to its completion.
    fn schedule(&self, params: &DragonflyParams, packet_size: usize) -> Schedule {
        let jobs = self
            .jobs
            .iter()
            .map(|job| {
                let phase = PhaseSpec::new(0, job.pattern, job.offered_load);
                let completion = Some(job.completion);
                Job::new(
                    &job.name,
                    job.arrival,
                    job.size,
                    job.placement,
                    &[phase],
                    completion,
                )
            })
            .collect();
        Schedule::new(self.label(), jobs, params, packet_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobPattern, JobSpec, PlacementPolicy};

    /// A valid two-phase workload whose phase table the tests then break, the
    /// way a caller can through the public fields.
    fn two_phase() -> WorkloadSpec {
        let job = JobSpec::new(
            "a",
            8,
            PlacementPolicy::Contiguous,
            JobPattern::Uniform,
            0.1,
        )
        .then_at(50, JobPattern::AdversarialGlobal(1), 0.1);
        WorkloadSpec::new(vec![job])
    }

    #[test]
    #[should_panic(expected = "first phase must start at cycle 0")]
    fn rejects_late_first_phase() {
        let mut spec = two_phase();
        spec.jobs[0].phases[0].start_cycle = 5;
        spec.schedule(&DragonflyParams::new(2), 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_phases() {
        let mut spec = two_phase();
        let repeat = PhaseSpec::new(50, JobPattern::Uniform, 0.1);
        spec.jobs[0].phases.push(repeat);
        spec.schedule(&DragonflyParams::new(2), 8);
    }
}
