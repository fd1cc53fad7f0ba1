//! Integration tests of the workload subsystem: placement properties observed
//! through a full simulation, determinism of the per-job reports, and the two
//! headline scenarios (interference, transient pattern switch).

use dragonfly::core::{
    ExperimentSpec, JobPattern, JobSpec, PlacementPolicy, RoutingKind, Trace, TrafficKind,
    WorkloadReport,
};
use dragonfly::routing::Olm;
use dragonfly::shard::{ShardPlan, ShardedSimulation};
use dragonfly::sim::{protocol, EngineHost, Simulation, StatsCollector};
use dragonfly::stats::ExactStats;
use dragonfly::topology::DragonflyParams;
use dragonfly::traffic::Uniform;
use dragonfly::workload::Schedule;

fn workload_spec(routing: RoutingKind, workload: Trace, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.traffic = TrafficKind::Jobs(workload);
    spec.seed = seed;
    spec.warmup = 1_500;
    spec.measure = 4_000;
    spec.drain = 6_000;
    spec
}

/// A three-job workload exercising every placement policy at once.
fn mixed_placement_workload() -> Trace {
    Trace::new(
        "wl",
        vec![
            JobSpec::new(
                "random",
                16,
                PlacementPolicy::Random { seed: 5 },
                JobPattern::Uniform,
                0.1,
            ),
            JobSpec::new(
                "spread",
                24,
                PlacementPolicy::RoundRobinRouters,
                JobPattern::AdversarialLocal(1),
                0.15,
            ),
            JobSpec::new(
                "block",
                16,
                PlacementPolicy::Contiguous,
                JobPattern::AdversarialGlobal(1),
                0.1,
            ),
        ],
    )
}

#[test]
fn placement_is_disjoint_covers_at_most_the_machine_and_is_deterministic() {
    let params = DragonflyParams::new(2);
    let workload = mixed_placement_workload();
    let placed = || {
        let mut schedule = workload.schedule(&params, 8);
        schedule.advance_to(0);
        schedule
    };
    let schedule = placed();
    let nodes = |schedule: &Schedule| {
        (0..schedule.num_jobs() as u16)
            .map(|j| schedule.job(j).nodes().to_vec())
            .collect::<Vec<_>>()
    };

    // Disjoint: every node belongs to at most one job, and the inverse map agrees.
    let mut owner = vec![None; params.num_nodes()];
    for (j, job_nodes) in nodes(&schedule).iter().enumerate() {
        for node in job_nodes {
            assert!(
                owner[node.index()].is_none(),
                "node {node:?} owned by two jobs"
            );
            owner[node.index()] = Some(j);
            assert_eq!(schedule.source(node.index()), Some((j as u16, 0)));
        }
    }
    for (n, job) in owner.iter().enumerate() {
        if job.is_none() {
            assert_eq!(schedule.source(n), None);
        }
    }
    schedule.assert_disjoint();
    // Coverage never exceeds the machine.
    let assigned = params.num_nodes() - schedule.free_nodes();
    assert_eq!(assigned, owner.iter().flatten().count());
    assert_eq!(assigned, 16 + 24 + 16);
    // Deterministic under a fixed seed: recomputing yields the identical placement.
    assert_eq!(nodes(&schedule), nodes(&placed()));
}

/// What a statistics record must agree on to count as the same record: the
/// window, the latency and hop summaries, the misroute and measured counts,
/// the in-window counters, the histogram total and the packet totals.
fn record_of(s: &StatsCollector) -> impl PartialEq + std::fmt::Debug {
    let summary = |e: &ExactStats| (e.count(), e.mean().to_bits(), e.min(), e.max());
    (
        (s.window_start, s.window_end, s.measuring),
        summary(&s.latency),
        summary(&s.hops),
        (s.delivered_global_misrouted, s.delivered_local_misrouted),
        s.measured_delivered,
        (
            s.window_phits_injected,
            s.window_phits_delivered,
            s.window_packets_delivered,
        ),
        s.latency_hist.total(),
        (s.total_generated, s.total_delivered),
    )
}

/// Scopes merged with [`StatsCollector::merge`].
fn merged(scopes: &[StatsCollector]) -> StatsCollector {
    let mut all = scopes[0].clone();
    for scope in &scopes[1..] {
        all.merge(scope);
    }
    all
}

/// The scope law: every packet of a jobs run belongs to one job and one of
/// its phases, and every scope is recorded by the run-wide collector's own
/// code over the run-wide window, so the per-job scopes merge into the
/// run-wide record and each job's phases merge into the job.  A scope whose
/// window drifts from the run-wide one (one that missed `begin_measurement`,
/// say) fails the merge or the comparison.  Checked on the sequential engine
/// and on 2 shards, with the report's per-job packet counts.
#[test]
fn per_job_packet_counts_sum_to_the_aggregate() {
    let spec = workload_spec(RoutingKind::Olm, mixed_placement_workload(), 11);
    let jobs = spec.traffic.jobs().unwrap();
    let sequential = {
        let uniform = Box::new(Uniform::new());
        let mut sim = Simulation::with_routing(spec.sim_config(), Olm::default(), uniform);
        sim.install_jobs(jobs);
        let report =
            protocol::run_steady_state_workload(&mut sim, spec.warmup, spec.measure, spec.drain);
        (report, sim.stats().into_owned())
    };
    let sharded = {
        let mut sim =
            ShardedSimulation::new(spec.sim_config(), ShardPlan::new(2), Olm::default(), || {
                Box::new(Uniform::new())
            });
        sim.install_jobs(jobs);
        let report =
            protocol::run_steady_state_workload(&mut sim, spec.warmup, spec.measure, spec.drain);
        (report, sim.stats().into_owned())
    };

    for (engine, (report, stats)) in [("sequential", sequential), ("2 shards", sharded)] {
        let generated: u64 = report.jobs.iter().map(|j| j.packets_generated).sum();
        let delivered: u64 = report.jobs.iter().map(|j| j.packets_delivered).sum();
        let measured: u64 = report.jobs.iter().map(|j| j.packets_measured).sum();
        assert_eq!(generated, stats.total_generated, "{engine}");
        assert_eq!(delivered, stats.total_delivered, "{engine}");
        assert_eq!(measured, stats.measured_delivered, "{engine}");
        assert!(generated > 500, "workload generated too little traffic");
        assert!(stats.window_packets_delivered > 0 && stats.measured_delivered > 0);

        let scoped = stats.scoped.as_ref().expect("jobs enable the scopes");
        assert_eq!(
            record_of(&merged(&scoped.per_job)),
            record_of(&stats),
            "{engine}: the jobs merge into the run-wide record"
        );
        for (j, (job, phases)) in scoped.per_job.iter().zip(&scoped.per_phase).enumerate() {
            assert_eq!(
                record_of(&merged(phases)),
                record_of(job),
                "{engine}: the phases of job {j} merge into the job"
            );
        }
        // Phases nest inside jobs the same way in the report.
        for job in &report.jobs {
            let by_phase: u64 = job.phases.iter().map(|p| p.packets_generated).sum();
            assert_eq!(by_phase, job.packets_generated, "job {}", job.name);
        }
    }
}

#[test]
fn workload_reports_are_deterministic() {
    let workload = Trace::interference(72, 1, 0.24, 0.1);
    let spec = workload_spec(RoutingKind::Piggybacking, workload, 7);
    let first: WorkloadReport = spec.run_workload();
    let second = spec.run_workload();
    assert_eq!(first, second, "same seed must give byte-identical reports");
    // The aggregate-only path agrees with the workload aggregate.
    assert_eq!(spec.run(), first.aggregate);
}

/// The headline interference result: a minimal-routing aggressor measurably degrades
/// the victim job, and adaptive routing (PB, OLM) reduces the degradation.
#[test]
fn interference_minimal_hurts_victim_and_adaptive_routing_shields_it() {
    // ADVG+1 at 0.24 phits/(node·cycle) loads each group's +1 channel to ~96 %.
    let workload = Trace::interference(72, 1, 0.24, 0.1);
    // The near-saturated channel needs a few thousand cycles of queue build-up
    // before the interference shows at full strength.
    let windows = |routing| {
        let mut spec = workload_spec(routing, workload.clone(), 3);
        spec.warmup = 3_000;
        spec.measure = 5_000;
        spec.drain = 8_000;
        spec
    };

    let minimal = windows(RoutingKind::Minimal).run_workload();
    let vic_minimal = minimal.job("victim").unwrap().clone();
    assert!(!minimal.aggregate.deadlock_detected);

    for routing in [RoutingKind::Piggybacking, RoutingKind::Olm] {
        let adaptive = windows(routing).run_workload();
        let vic = adaptive.job("victim").unwrap();
        assert!(!adaptive.aggregate.deadlock_detected);
        // Latency: the victim under the minimal-routed aggressor is much slower.
        assert!(
            vic_minimal.avg_latency_cycles > 1.5 * vic.avg_latency_cycles,
            "{routing:?}: victim avg {} under Minimal vs {} adaptive",
            vic_minimal.avg_latency_cycles,
            vic.avg_latency_cycles
        );
        assert!(
            vic_minimal.p99_latency_cycles > 2.0 * vic.p99_latency_cycles,
            "{routing:?}: victim p99 {} under Minimal vs {} adaptive",
            vic_minimal.p99_latency_cycles,
            vic.p99_latency_cycles
        );
        // Throughput: adaptive routing lets the victim keep (almost) its whole load.
        assert!(
            vic.accepted_load > 0.09,
            "{routing:?}: victim accepted {}",
            vic.accepted_load
        );
        assert!(
            vic.accepted_load > vic_minimal.accepted_load,
            "{routing:?}: victim accepted {} vs {} under Minimal",
            vic.accepted_load,
            vic_minimal.accepted_load
        );
        // The aggressor itself also benefits (it was the saturated one).
        let agg = adaptive.job("aggressor").unwrap();
        assert!(agg.accepted_load >= minimal.job("aggressor").unwrap().accepted_load);
    }
}

/// The headline transient result: per-phase stats across a mid-run UN→ADVG+h switch
/// show minimal routing collapsing in phase 1 while adaptive routing keeps going.
#[test]
fn transient_switch_shows_up_in_per_phase_stats() {
    let h = 2;
    let params = DragonflyParams::new(h);
    let warmup = 1_500u64;
    let measure = 5_000u64;
    let switch_cycle = warmup + measure / 2;
    let workload = Trace::transient(params.num_nodes(), 0.25, switch_cycle, h);

    let mut reports = Vec::new();
    for routing in [RoutingKind::Minimal, RoutingKind::Olm] {
        let mut spec = workload_spec(routing, workload.clone(), 13);
        spec.warmup = warmup;
        spec.measure = measure;
        spec.drain = 8_000;
        let report = spec.run_workload();
        assert!(!report.aggregate.deadlock_detected);
        let job = &report.jobs[0];
        assert_eq!(job.phases.len(), 2);
        // Both phases overlap the measurement window by half.
        assert_eq!(job.phases[0].measured_cycles, measure / 2);
        assert_eq!(job.phases[1].measured_cycles, measure / 2);
        assert_eq!(job.phases[0].pattern, "UN");
        assert_eq!(job.phases[1].pattern, format!("ADVG+{h}"));
        // Phase 0 (uniform) is easy for everyone.
        assert!(
            (job.phases[0].accepted_load - 0.25).abs() < 0.06,
            "{routing:?} UN phase accepted {}",
            job.phases[0].accepted_load
        );
        reports.push(report);
    }

    let minimal_advg = &reports[0].jobs[0].phases[1];
    let olm_advg = &reports[1].jobs[0].phases[1];
    // Minimal routing pins near the single-channel bound 1/(2h²+1) = 1/9...
    assert!(
        minimal_advg.accepted_load < 0.16,
        "minimal ADVG phase accepted {}",
        minimal_advg.accepted_load
    );
    // ...while OLM keeps accepting most of the offered load at lower latency.
    assert!(
        olm_advg.accepted_load > minimal_advg.accepted_load * 1.3,
        "OLM {} vs minimal {}",
        olm_advg.accepted_load,
        minimal_advg.accepted_load
    );
    assert!(
        olm_advg.avg_latency_cycles < minimal_advg.avg_latency_cycles,
        "OLM {} vs minimal {}",
        olm_advg.avg_latency_cycles,
        minimal_advg.avg_latency_cycles
    );
}
