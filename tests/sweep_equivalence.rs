//! Parallel vs. sequential sweep equivalence: the same specs routed through
//! `SweepRunner` on a worker pool and through a plain hand-rolled loop must
//! yield byte-identical reports — for the steady-state, workload and burst
//! protocols alike.  This is the contract that lets every figure binary
//! default to the parallel path.

use dragonfly::core::{
    job_sweep, load_sweep, ExperimentSpec, FlowControlKind, JobSweep, LoadSweep, PlacementPolicy,
    RoutingKind, SweepRunner, Trace, TrafficKind,
};

fn quick_base() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.warmup = 400;
    spec.measure = 800;
    spec.drain = 1_000;
    spec.seed = 33;
    spec
}

fn steady_specs() -> Vec<ExperimentSpec> {
    let mut base = quick_base();
    base.traffic = TrafficKind::AdversarialGlobal(1);
    load_sweep(&LoadSweep {
        base,
        mechanisms: vec![
            RoutingKind::Minimal,
            RoutingKind::Piggybacking,
            RoutingKind::Olm,
        ],
        loads: vec![0.1, 0.3],
    })
}

fn workload_specs() -> Vec<ExperimentSpec> {
    let placements = [
        PlacementPolicy::Contiguous,
        PlacementPolicy::RoundRobinRouters,
    ];
    job_sweep(&JobSweep {
        base: quick_base(),
        mechanisms: vec![RoutingKind::Minimal, RoutingKind::Olm],
        traces: placements
            .map(|placement| Trace::interference_placed(72, 1, 0.2, 0.1, placement))
            .to_vec(),
    })
}

#[test]
fn steady_state_parallel_matches_sequential() {
    let specs = steady_specs();
    assert_eq!(specs.len(), 6);
    let parallel = SweepRunner::new("equiv")
        .quiet()
        .jobs(Some(4))
        .run_steady(&specs);
    let plain: Vec<_> = specs.iter().map(ExperimentSpec::run).collect();
    assert_eq!(parallel, plain);
    // Byte-identical down to the CSV rows the figure binaries write.
    for (a, b) in parallel.iter().zip(plain.iter()) {
        assert_eq!(a.csv_row(), b.csv_row());
    }
}

#[test]
fn workload_parallel_matches_sequential() {
    let specs = workload_specs();
    assert_eq!(specs.len(), 4);
    let parallel = SweepRunner::new("equiv")
        .quiet()
        .jobs(Some(4))
        .run_workloads(&specs);
    let plain: Vec<_> = specs.iter().map(ExperimentSpec::run_workload).collect();
    assert_eq!(parallel, plain);
    // The per-job/per-phase breakdowns (not just the aggregates) are identical
    // down to the CSV rows the workload rows of `repro` write.
    for (a, b) in parallel.iter().zip(plain.iter()) {
        assert_eq!(a.phase_csv_rows(), b.phase_csv_rows());
        assert_eq!(a.jobs.len(), 2);
    }
}

#[test]
fn batch_parallel_matches_sequential() {
    let mut base = quick_base();
    base.flow_control = FlowControlKind::Vct;
    base.offered_load = 1.0;
    base.traffic = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: 2,
        local_offset: 1,
    };
    let specs: Vec<ExperimentSpec> = [RoutingKind::Piggybacking, RoutingKind::Rlm]
        .into_iter()
        .map(|routing| {
            let mut spec = base.clone();
            spec.routing = routing;
            spec
        })
        .collect();
    let parallel = SweepRunner::new("equiv")
        .quiet()
        .run_batches(&specs, 3, 200_000);
    let plain: Vec<_> = specs.iter().map(|s| s.run_batch(3, 200_000)).collect();
    assert_eq!(parallel, plain);
    assert!(parallel.iter().all(|r| !r.timed_out));
}

#[test]
fn runner_worker_count_does_not_change_results() {
    let specs = steady_specs();
    let one = SweepRunner::new("equiv")
        .quiet()
        .jobs(Some(1))
        .run_steady(&specs);
    let many = SweepRunner::new("equiv")
        .quiet()
        .jobs(Some(8))
        .run_steady(&specs);
    assert_eq!(one, many);
}
