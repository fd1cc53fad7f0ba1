//! A static workload is a schedule whose jobs arrive at cycle 0 and never
//! leave: the interference workload and the [`Trace`] listing the same jobs —
//! arriving at cycle 0, single-phase, with a duration no run reaches —
//! compile into the same job runtime.  On the same engine, for the same cycles,
//! both must give the same bytes: the full run-wide `StatsCollector` (totals,
//! latency histograms, per-job and per-phase scoped statistics) and the report
//! of either job protocol, except for the traffic label naming the spec.

use dragonfly::core::{Completion, ExperimentSpec, ShardPlan, ShardedSimulation, Trace};
use dragonfly::routing::{MinimalRouting, Olm, Piggybacking};
use dragonfly::sim::{protocol, EngineHost, RoutingAlgorithm, Simulation};
use dragonfly::stats::WorkloadReport;
use dragonfly::traffic::Uniform;

const WARMUP: u64 = 500;
const MEASURE: u64 = 1_000;
const DRAIN: u64 = 1_500;

/// Install `jobs`, run one job protocol, and return its report with the
/// traffic label blanked, plus the run-wide statistics rendered in full.
fn run<H: EngineHost>(mut host: H, jobs: &Trace, steady: bool) -> (WorkloadReport, String) {
    host.install_jobs(jobs);
    let mut report = if steady {
        protocol::run_steady_state_workload(&mut host, WARMUP, MEASURE, DRAIN)
    } else {
        protocol::run_trace(&mut host, WARMUP + MEASURE, DRAIN)
    };
    report.aggregate.traffic.clear();
    (report, format!("{:?}", host.stats()))
}

/// Run the interference workload and its trace through both job protocols
/// on the sequential engine or on `shards` shards, and compare.
fn differential<R: RoutingAlgorithm + Clone>(routing: R, seed: u64, shards: Option<usize>) {
    let workload = Trace::interference(72, 1, 0.24, 0.1);
    let jobs = workload.jobs.iter().map(|job| {
        let never = Completion::Duration(100 * (WARMUP + MEASURE + DRAIN));
        job.clone().complete_on(never)
    });
    let trace = Trace::new("interference", jobs.collect());
    let mut spec = ExperimentSpec::new(2);
    spec.seed = seed;
    for steady in [true, false] {
        let run_on = |jobs: &Trace| {
            let (config, traffic) = (spec.sim_config(), || Box::new(Uniform::new()));
            match shards {
                None => run(
                    Simulation::with_routing(config, routing.clone(), traffic()),
                    jobs,
                    steady,
                ),
                Some(n) => run(
                    ShardedSimulation::new(config, ShardPlan::new(n), routing.clone(), || {
                        traffic()
                    }),
                    jobs,
                    steady,
                ),
            }
        };
        let (workload_report, workload_stats) = run_on(&workload);
        let (trace_report, trace_stats) = run_on(&trace);
        let case = format!("{} steady={steady} shards={shards:?}", routing.name());
        let measured = workload_report.jobs.iter().all(|j| j.packets_measured > 0);
        assert!(measured, "{case}: a job measured nothing");
        assert_eq!(workload_report, trace_report, "{case}: reports diverged");
        assert!(workload_stats == trace_stats, "{case}: statistics diverged");
    }
}

#[test]
fn interference_workload_runs_exactly_like_its_trace() {
    differential(MinimalRouting::new(), 70, None);
    differential(Piggybacking::new(), 71, None);
    differential(Olm::default(), 72, None);
}

#[test]
fn interference_workload_runs_exactly_like_its_trace_on_two_shards() {
    differential(Olm::default(), 72, Some(2));
}
