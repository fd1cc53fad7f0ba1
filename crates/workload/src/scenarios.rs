//! Canonical churn scenarios shared by `repro`'s `churn` row and the pinned
//! integration tests.

use crate::spec::{Completion, JobPattern, JobSpec, PlacementPolicy};
use crate::trace::Trace;
use dragonfly_topology::DragonflyParams;

/// Offered load of the background filler jobs: enough to keep their queues warm,
/// small enough that the victim's tail is dominated by the aggressor.
const FILLER_LOAD: f64 = 0.02;

/// Number of filler jobs the machine is carved into during the churn prologue.
const FILLERS: usize = 12;

/// Whether the machine of `params` is large enough for [`fragmentation_trace`]:
/// the odd fillers free `FILLERS / 2` blocks, and the pair must fit into them.
pub fn fragmentation_fits(params: &DragonflyParams) -> bool {
    (FILLERS / 2) * (params.num_nodes() / FILLERS) >= 2 * fragmentation_pair_size(params)
}

/// Nodes of each of the fragmentation scenario's aggressor and victim jobs.
fn fragmentation_pair_size(params: &DragonflyParams) -> usize {
    2 * params.nodes_per_group()
}

/// The headline fragmentation scenario: does churn-induced fragmentation hurt a
/// newly placed job, and how much of the damage does adaptive routing undo?
///
/// Phase 1 (cycle 0): twelve equal filler jobs pack the machine contiguously and
/// run near-idle uniform traffic.  Phase 2 (`churn_cycle`): in the **fragmented**
/// variant every *odd* filler departs, leaving alternating holes across all groups,
/// and an aggressor/victim pair arrives with seeded-random placement — the classic
/// "re-placement into the holes" outcome, scattering both jobs over every group so
/// the aggressor's job-scoped ADVG+1 hot channels run right through the victim's
/// traffic.  In the **fresh** variant *all* fillers depart and the pair is placed
/// contiguously on the emptied machine: the aggressor's hot channels stay inside
/// its own groups and the victim is isolated.
///
/// Both variants contain the same twelve-plus-two jobs and differ only in filler
/// durations and the pair's placement policy, so their reports compare one-to-one.
/// The pair runs from `churn_cycle` to `run_cycles`; drive the run with a horizon
/// a little past `run_cycles`.
pub fn fragmentation_trace(
    params: &DragonflyParams,
    fragmented: bool,
    aggressor_load: f64,
    victim_load: f64,
    churn_cycle: u64,
    run_cycles: u64,
    seed: u64,
) -> Trace {
    assert!(churn_cycle < run_cycles);
    assert!(
        fragmentation_fits(params),
        "machine too small for the fragmentation scenario"
    );
    let filler_size = params.num_nodes() / FILLERS;
    let pair_size = fragmentation_pair_size(params);
    let mut jobs = Vec::with_capacity(FILLERS + 2);
    for i in 0..FILLERS {
        let departs = if fragmented { i % 2 == 1 } else { true };
        let filler = JobSpec::new(
            format!("filler{i:02}"),
            filler_size,
            PlacementPolicy::Contiguous,
            JobPattern::Uniform,
            FILLER_LOAD,
        );
        let duration = if departs { churn_cycle } else { run_cycles };
        jobs.push(filler.complete_on(Completion::Duration(duration)));
    }
    let pair_placement = if fragmented {
        PlacementPolicy::Random { seed }
    } else {
        PlacementPolicy::Contiguous
    };
    let pair = [
        (
            "aggressor",
            JobPattern::AdversarialGlobal(1),
            aggressor_load,
        ),
        ("victim", JobPattern::Uniform, victim_load),
    ];
    for (name, pattern, load) in pair {
        let job = JobSpec::new(name, pair_size, pair_placement, pattern, load);
        let duration = Completion::Duration(run_cycles - churn_cycle);
        jobs.push(job.arrive_at(churn_cycle).complete_on(duration));
    }
    let label = if fragmented { "frag" } else { "fresh" };
    Trace::new(label, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_share_shape_and_differ_in_churn() {
        let p = DragonflyParams::new(2);
        let frag = fragmentation_trace(&p, true, 0.5, 0.1, 4_000, 12_000, 7);
        let fresh = fragmentation_trace(&p, false, 0.5, 0.1, 4_000, 12_000, 7);
        assert_eq!(frag.name, "frag");
        assert_eq!(fresh.name, "fresh");
        assert_eq!(frag.jobs.len(), FILLERS + 2);
        assert_eq!(fresh.jobs.len(), frag.jobs.len());
        // Fragmented: half the fillers persist to the end; fresh: none do.
        let persists = |t: &Trace| {
            t.jobs
                .iter()
                .filter(|j| j.name.starts_with("filler"))
                .filter(|j| j.completion == Some(Completion::Duration(12_000)))
                .count()
        };
        assert_eq!(persists(&frag), FILLERS / 2);
        assert_eq!(persists(&fresh), 0);
        // The pair arrives at the churn point in both variants.
        for trace in [&frag, &fresh] {
            let victim = trace.jobs.iter().find(|j| j.name == "victim").unwrap();
            assert_eq!(victim.arrival, 4_000);
            assert_eq!(victim.size, 2 * p.nodes_per_group());
        }
        assert_eq!(
            frag.jobs
                .iter()
                .find(|j| j.name == "victim")
                .unwrap()
                .placement,
            PlacementPolicy::Random { seed: 7 }
        );
        // The scenario fits every supported machine size down to h = 2.
        for h in [2, 3, 4] {
            let p = DragonflyParams::new(h);
            let t = fragmentation_trace(&p, true, 0.5, 0.1, 1_000, 5_000, 1);
            let peak: usize = t
                .jobs
                .iter()
                .filter(|j| j.arrival == 0)
                .map(|j| j.size)
                .sum();
            assert!(peak <= p.num_nodes());
        }
    }
}
