//! Large-topology stress tests, ignored by default (ROADMAP larger-h item).
//!
//! The regular suite pins h = 2 so it stays fast in debug builds; these tests
//! exercise the workload subsystem at h = 4 (1 056 nodes) and h = 6 (5 256 nodes).
//! Run them in release mode:
//!
//! ```text
//! cargo test --release --test stress_large -- --ignored
//! ```

use dragonfly::core::{ExperimentSpec, RoutingKind, Trace, TrafficKind};
use dragonfly::topology::DragonflyParams;
use dragonfly::workload::scenarios::fragmentation_trace;

fn stress_spec(h: usize, workload: Trace) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(h);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Jobs(workload);
    spec.seed = 4242;
    spec.warmup = 2_000;
    spec.measure = 3_000;
    spec.drain = 4_000;
    spec
}

/// Interference workload at h = 4: 1 056 nodes, two jobs interleaved over all 264
/// routers.
#[test]
#[ignore = "large topology (1k nodes); run in release mode"]
fn workload_interference_stress_h4() {
    let params = DragonflyParams::new(4);
    assert_eq!(params.num_nodes(), 1_056);
    let aggressor_load = 0.9 * 2.0 / params.nodes_per_group() as f64;
    let workload = Trace::interference(params.num_nodes(), 1, aggressor_load, 0.1);
    let report = stress_spec(4, workload).run_workload();
    assert!(!report.aggregate.deadlock_detected);
    assert_eq!(report.jobs.len(), 2);
    let victim = report.job("victim").unwrap();
    assert!(
        victim.accepted_load > 0.08,
        "victim accepted {}",
        victim.accepted_load
    );
    let generated: u64 = report.jobs.iter().map(|j| j.packets_generated).sum();
    assert!(generated > 10_000);
}

/// Transient workload at h = 6: 5 256 nodes (the 4k+ point beyond the h = 2 debug
/// pins), switching UN→ADVG+h mid-measurement.
#[test]
#[ignore = "large topology (5k nodes); run in release mode"]
fn workload_transient_stress_h6_over_4k_nodes() {
    let params = DragonflyParams::new(6);
    assert_eq!(params.num_nodes(), 5_256);
    let mut spec = stress_spec(6, Trace::transient(params.num_nodes(), 0.2, 3_500, 6));
    spec.warmup = 2_000;
    spec.measure = 3_000;
    spec.drain = 5_000;
    let report = spec.run_workload();
    assert!(!report.aggregate.deadlock_detected);
    let job = &report.jobs[0];
    assert_eq!(job.phases.len(), 2);
    assert_eq!(job.phases[0].measured_cycles, 1_500);
    assert_eq!(job.phases[1].measured_cycles, 1_500);
    // OLM keeps accepting a healthy fraction of the load in the adversarial phase.
    assert!(
        job.phases[1].accepted_load > 0.1,
        "ADVG phase accepted {}",
        job.phases[1].accepted_load
    );
}

/// Churn fragmentation at paper scale (h = 8, 16 512 nodes): the dynamic
/// scheduler packs, churns and re-places jobs on the full-size machine (toward
/// the h = 8+ ROADMAP item).
#[test]
#[ignore = "paper-scale topology (16k nodes); run in release mode"]
fn churn_fragmentation_stress_h8() {
    let params = DragonflyParams::new(8);
    assert_eq!(params.num_nodes(), 16_512);
    let trace = fragmentation_trace(&params, true, 0.75, 0.1, 1_500, 6_000, 4242);
    let mut spec = ExperimentSpec::new(8);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Jobs(trace);
    spec.seed = 4242;
    spec.measure = 7_500; // horizon past the pair's departure at 6 000
    spec.drain = 4_000;
    let report = spec.run_workload();
    assert!(!report.aggregate.deadlock_detected);
    assert_eq!(report.jobs.len(), 14);
    // Every job of the trace ran to completion within the horizon.
    assert!(report
        .jobs
        .iter()
        .all(|j| j.lifecycle.unwrap().completion_cycle.is_some()));
    let victim = report.job("victim").unwrap();
    assert!(
        victim.accepted_load > 0.07,
        "victim accepted {}",
        victim.accepted_load
    );
    // 256 victim nodes × 4 500 resident cycles at 0.1 phits/(node·cycle) over
    // 8-phit packets ≈ 14 000 packets.
    assert!(victim.packets_generated > 10_000);
}
