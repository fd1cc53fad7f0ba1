//! The sharded engine's cardinal invariant: partitioning one simulation into
//! per-group shards (message-passing global links, per-cycle barrier) produces
//! **byte-identical** reports to the sequential engine — for every routing
//! mechanism × flow control combination, for every run protocol (steady-state,
//! workload, churn trace), and independently of the shard count.

use dragonfly::core::{
    Batch, ExperimentSpec, FlowControlKind, JobPattern, Jobs, PlacementPolicy, Protocol,
    RoutingKind, RunOptions, Steady, Trace, TrafficKind,
};
use dragonfly::workload::SyntheticTrace;

/// The report of `spec` under `protocol` on the sharded engine.
fn run_sharded<P: Protocol>(spec: &ExperimentSpec, protocol: P, shards: usize) -> P::Report {
    let options = RunOptions {
        shards: Some(shards),
        probes: None,
    };
    spec.run_with(protocol, &options).0
}

fn steady_spec(routing: RoutingKind, fc: FlowControlKind) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.flow_control = fc;
    // ADVG+1 exercises the boundary links hard: at h = 2 most minimal paths and
    // every Valiant detour cross groups (and therefore shards).
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.25;
    spec.seed = 23;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    spec
}

/// Every mechanism × flow control combo: sharded ≡ sequential, byte for byte.
#[test]
fn every_mechanism_and_flow_control_is_shard_invariant() {
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        for routing in RoutingKind::ALL {
            if fc == FlowControlKind::Wormhole && !routing.supports_wormhole() {
                continue;
            }
            let spec = steady_spec(routing, fc);
            let sequential = spec.run();
            assert!(
                sequential.packets_measured > 0,
                "{routing:?}/{fc:?}: nothing measured, the pin is vacuous"
            );
            for shards in [1, 2, 4] {
                let sharded = run_sharded(&spec, Steady, shards);
                assert_eq!(
                    sharded, sequential,
                    "{routing:?} under {fc:?} diverged with {shards} shards"
                );
            }
        }
    }
}

/// The memory-telemetry fields are exercised and shard-invariant too (they are
/// part of the report equality above, but pin that they are non-trivial).
#[test]
fn telemetry_peaks_are_populated_and_shard_invariant() {
    let spec = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    let sequential = spec.run();
    assert!(sequential.peak_in_flight_packets > 0);
    assert!(sequential.peak_buffered_phits > 0);
    assert!(sequential.peak_vc_occupancy > 0);
    // A single VC never exceeds the largest configured buffer.
    assert!(sequential.peak_vc_occupancy <= 256);
    let sharded = run_sharded(&spec, Steady, 3);
    assert_eq!(
        sharded.peak_in_flight_packets,
        sequential.peak_in_flight_packets
    );
    assert_eq!(sharded.peak_buffered_phits, sequential.peak_buffered_phits);
    assert_eq!(sharded.peak_vc_occupancy, sequential.peak_vc_occupancy);
}

/// Workload protocol: per-job and per-phase breakdowns survive sharding.
#[test]
fn workload_reports_are_shard_invariant() {
    let workload = Trace::interference(72, 1, 0.4, 0.1);
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Piggybacking;
    spec.traffic = TrafficKind::Jobs(workload);
    spec.seed = 5;
    spec.warmup = 400;
    spec.measure = 800;
    spec.drain = 800;
    let sequential = spec.run_workload();
    assert_eq!(sequential.jobs.len(), 2);
    for shards in [1, 2, 4] {
        assert_eq!(
            run_sharded(&spec, Jobs, shards),
            sequential,
            "workload diverged with {shards} shards"
        );
    }
}

/// Churn protocol: trace-driven arrivals/departures, placement and volume-bound
/// completion (driven by the cross-shard delivery-feedback broadcast) survive
/// sharding, and the shard count is invisible in the report.
#[test]
fn churn_traces_are_shard_count_invariant() {
    let trace = SyntheticTrace {
        name: "shardy".into(),
        seed: 31,
        jobs: 12,
        mean_interarrival: 300.0,
        mean_duration: 1_200.0,
        sizes: vec![8, 16, 24],
        patterns: vec![JobPattern::Uniform, JobPattern::AllToAll],
        placement: PlacementPolicy::Random { seed: 3 },
        offered_load: 0.12,
    }
    .build();
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Jobs(trace);
    spec.seed = 13;
    spec.measure = 12_000; // horizon
    spec.drain = 3_000;

    let sequential = spec.run_workload();
    assert!(
        sequential
            .jobs
            .iter()
            .all(|j| j.lifecycle.as_ref().unwrap().completion_cycle.is_some()),
        "every synthetic job should finish inside the horizon"
    );
    let two = run_sharded(&spec, Jobs, 2);
    let four = run_sharded(&spec, Jobs, 4);
    assert_eq!(two, sequential, "churn diverged with 2 shards");
    assert_eq!(four, sequential, "churn diverged with 4 shards");
    // Shard-count invariance, stated directly.
    assert_eq!(two, four);
}

/// Burst-consumption protocol, whose preload and drain loops run across the
/// shard barrier as well.
#[test]
fn batch_runs_are_shard_invariant() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Rlm;
    spec.traffic = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: 2,
        local_offset: 1,
    };
    spec.seed = 3;
    let sequential = spec.run_batch(3, 100_000);
    assert!(!sequential.timed_out);
    let batch = Batch {
        packets_per_node: 3,
        max_cycles: 100_000,
    };
    for shards in [2, 3] {
        assert_eq!(
            run_sharded(&spec, batch, shards),
            sequential,
            "batch diverged with {shards} shards"
        );
    }
}
