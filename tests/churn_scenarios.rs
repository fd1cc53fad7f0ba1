//! Integration tests of the dynamic job scheduler: the pinned fragmentation
//! result, byte-identical determinism across runs and worker counts, and the
//! node-disjointness invariant under arrival/departure churn.

use dragonfly::core::{
    Completion, ExperimentSpec, JobPattern, JobSpec, PlacementPolicy, RoutingKind, SweepRunner,
    Trace, TrafficKind,
};
use dragonfly::routing::Piggybacking;
use dragonfly::sim::Simulation;
use dragonfly::topology::DragonflyParams;
use dragonfly::traffic::Uniform;
use dragonfly::workload::scenarios::fragmentation_trace;
use dragonfly::workload::SyntheticTrace;

fn churn_spec(routing: RoutingKind, trace: Trace, horizon: u64, drain: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.traffic = TrafficKind::Jobs(trace);
    // The h = 2 machine is small enough that the exact penalty ratios below are
    // seed-sensitive; re-pinned when the engine moved to per-router RNG streams.
    spec.seed = 41;
    spec.measure = horizon;
    spec.drain = drain;
    spec
}

/// The headline churn result: placing a fresh aggressor/victim pair into the
/// fragmented holes left by departures degrades the victim's tail latency by an
/// order of magnitude versus a contiguous placement on an emptied machine — and
/// adaptive routing (PB, OLM) claws a large part of the penalty back.
#[test]
fn fragmentation_degrades_victim_p99_and_adaptive_routing_narrows_the_gap() {
    let params = DragonflyParams::new(2);
    let (churn_cycle, run_cycles) = (3_000, 11_000);
    // Scattered over every group, the aggressor's job-scoped ADVG+1 puts about
    // 2 × 0.75 = 1.5 phits/cycle onto each +1 global channel: past saturation,
    // so minimal routing queues unboundedly while misrouting drains the excess.
    let (aggressor_load, victim_load) = (0.75, 0.1);
    let trace = |fragmented| {
        fragmentation_trace(
            &params,
            fragmented,
            aggressor_load,
            victim_load,
            churn_cycle,
            run_cycles,
            42,
        )
    };

    let mut penalties = Vec::new();
    let mut frag_p99s = Vec::new();
    for routing in [
        RoutingKind::Minimal,
        RoutingKind::Piggybacking,
        RoutingKind::Olm,
    ] {
        let fresh = churn_spec(routing, trace(false), run_cycles + 2_000, 4_000).run_workload();
        let frag = churn_spec(routing, trace(true), run_cycles + 2_000, 4_000).run_workload();
        for report in [&fresh, &frag] {
            assert!(
                !report.aggregate.deadlock_detected,
                "{routing:?} deadlocked"
            );
            let victim = report.job("victim").unwrap();
            // The victim is never throttled outright: it keeps its ~0.1 load.
            assert!(
                victim.accepted_load > 0.07,
                "{routing:?}: victim accepted {}",
                victim.accepted_load
            );
            // Both variants place the pair immediately at the churn point.
            let lifecycle = victim.lifecycle.unwrap();
            assert_eq!(lifecycle.placed_cycle, Some(churn_cycle));
            assert_eq!(lifecycle.wait_cycles, Some(0));
            assert_eq!(lifecycle.completion_cycle, Some(run_cycles));
        }
        let fresh_p99 = fresh.job("victim").unwrap().p99_latency_cycles;
        let frag_p99 = frag.job("victim").unwrap().p99_latency_cycles;
        penalties.push(frag_p99 / fresh_p99.max(1.0));
        frag_p99s.push(frag_p99);
    }

    let (minimal, pb, olm) = (penalties[0], penalties[1], penalties[2]);
    // Fragmentation is expensive under minimal routing (observed ~80x).
    assert!(
        minimal > 10.0,
        "fragmentation should cost Minimal an order of magnitude in victim p99, got {minimal:.1}x"
    );
    // Adaptive routing reduces the penalty substantially (observed ~38x / ~22x),
    // both relative to each mechanism's own fresh baseline...
    assert!(
        pb < 0.7 * minimal,
        "PB should narrow the fragmentation gap: {pb:.1}x vs Minimal {minimal:.1}x"
    );
    assert!(
        olm < 0.5 * minimal,
        "OLM should narrow the fragmentation gap: {olm:.1}x vs Minimal {minimal:.1}x"
    );
    // ...and in absolute victim tail latency under fragmentation.
    assert!(
        frag_p99s[1] < 0.9 * frag_p99s[0],
        "PB frag p99 {} vs Minimal {}",
        frag_p99s[1],
        frag_p99s[0]
    );
    assert!(
        frag_p99s[2] < 0.9 * frag_p99s[0],
        "OLM frag p99 {} vs Minimal {}",
        frag_p99s[2],
        frag_p99s[0]
    );
}

/// A mixed trace exercising volume-bound completion and every collective pattern.
fn collective_trace() -> Trace {
    let job = |name: &str, arrival, size, placement, pattern, completion| {
        JobSpec::new(name, size, placement, pattern, 0.15)
            .arrive_at(arrival)
            .complete_on(completion)
    };
    Trace::new(
        "mixed",
        vec![
            job(
                "a2a",
                0,
                24,
                PlacementPolicy::Contiguous,
                JobPattern::AllToAll,
                Completion::Duration(2_500),
            ),
            job(
                "ring",
                400,
                24,
                PlacementPolicy::RoundRobinRouters,
                JobPattern::RingExchange,
                Completion::Volume(600),
            ),
            job(
                "perm",
                800,
                16,
                PlacementPolicy::Random { seed: 9 },
                JobPattern::Permutation { seed: 5 },
                Completion::Duration(1_500),
            ),
            // Arrives while the machine is 64/72 full: must wait for a departure.
            job(
                "late",
                1_000,
                24,
                PlacementPolicy::Contiguous,
                JobPattern::Uniform,
                Completion::Duration(1_000),
            ),
        ],
    )
}

#[test]
fn fixed_trace_and_seed_reproduce_byte_identical_reports_across_runs_and_jobs() {
    let spec = churn_spec(RoutingKind::Olm, collective_trace(), 12_000, 4_000);

    // Same spec, same seed: byte-identical reports on repeated runs.
    let first = spec.run_workload();
    assert_eq!(first, spec.run_workload());

    // The parse → emit → parse round-trip preserves behaviour, not just shape.
    let reparsed = Trace::parse(&spec.traffic.jobs().unwrap().to_text()).unwrap();
    let respec = churn_spec(RoutingKind::Olm, reparsed, 12_000, 4_000);
    assert_eq!(first, respec.run_workload());

    // Worker count is presentation only: --jobs 1/2/4 give identical reports.
    let specs = vec![spec.clone(), spec.clone(), spec.clone()];
    for jobs in [1, 2, 4] {
        let parallel = SweepRunner::new("churn determinism")
            .quiet()
            .jobs(Some(jobs))
            .run_workloads(&specs);
        assert_eq!(
            parallel,
            vec![first.clone(); 3],
            "--jobs {jobs} changed the reports"
        );
    }

    // The waiting job's lifecycle shows the queueing the trace forces.
    let late = first.job("late").unwrap().lifecycle.unwrap();
    assert_eq!(late.arrival_cycle, 1_000);
    let placed = late.placed_cycle.expect("late must eventually run");
    assert!(placed > 1_000, "late must wait, placed at {placed}");
    assert!(late.slowdown.unwrap() > 1.0);
    // Every job completed before the horizon.
    assert!(first
        .jobs
        .iter()
        .all(|j| j.lifecycle.unwrap().completion_cycle.is_some()));
}

#[test]
fn node_disjointness_holds_under_synthetic_churn() {
    // ~40 arrivals with short lives on a 72-node machine: constant churn, with
    // queueing whenever the random sizes collide.
    let trace = SyntheticTrace {
        name: "churny".into(),
        seed: 17,
        jobs: 40,
        mean_interarrival: 150.0,
        mean_duration: 900.0,
        sizes: vec![8, 16, 24, 32],
        patterns: vec![
            JobPattern::Uniform,
            JobPattern::RingExchange,
            JobPattern::AllToAll,
        ],
        placement: PlacementPolicy::Random { seed: 3 },
        offered_load: 0.1,
    }
    .build();
    let spec = churn_spec(RoutingKind::Piggybacking, trace, 60_000, 4_000);
    let uniform = Box::new(Uniform::new());
    let mut sim = Simulation::with_routing(spec.sim_config(), Piggybacking::new(), uniform);
    sim.install_jobs(spec.traffic.jobs().unwrap());

    let params = *sim.network().params();
    let mut placements = 0usize;
    for _ in 0..300 {
        sim.run_cycles(200);
        let sched = sim.network().jobs().unwrap();
        // The invariant: no node ever belongs to two jobs, pool and node→job map
        // agree.
        sched.assert_disjoint();
        assert!(sched.free_nodes() <= params.num_nodes());
        placements = placements.max(sched.running_jobs());
        if sched.all_complete() {
            break;
        }
    }
    let sched = sim.network().jobs().unwrap();
    assert!(sched.all_complete(), "synthetic churn must finish in time");
    assert!(placements >= 2, "churn should overlap jobs");
    // All nodes returned to the pool, and every lifecycle is well-ordered.
    assert_eq!(sched.free_nodes(), params.num_nodes());
    for j in 0..sched.num_jobs() as u16 {
        let lifetime = sched.job(j).lifetime();
        let placed = lifetime.placed.expect("every job ran");
        let completed = lifetime.completed.expect("every job finished");
        assert!(lifetime.arrival <= placed);
        assert!(placed < completed);
    }
}
