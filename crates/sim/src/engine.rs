//! The sequential simulation: a [`Network`] hosting the run protocols of
//! [`crate::protocol`].

use crate::config::SimConfig;
use crate::network::Network;
use crate::protocol::{self, EngineHost};
use crate::routing_iface::RoutingAlgorithm;
use crate::stats_collect::StatsCollector;
use dragonfly_probe::{ProbeConfig, ProbeRecorder};
use dragonfly_stats::{BatchReport, SimReport, WorkloadReport};
use dragonfly_traffic::{BurstSpec, TrafficPattern};
use dragonfly_workload::JobList;
use std::borrow::Cow;

/// A complete simulation: a [`Network`] plus the measurement protocol of the paper.
///
/// Like [`Network`], the simulation is generic over the routing mechanism: a plain
/// `Simulation` is the type-erased `Simulation<Box<dyn RoutingAlgorithm>>`, while
/// [`Simulation::with_routing`] monomorphizes the whole engine over a concrete
/// mechanism for statically dispatched (inlinable) routing.
pub struct Simulation<R: RoutingAlgorithm = Box<dyn RoutingAlgorithm>> {
    net: Network<R>,
}

impl Simulation {
    /// Build a simulation from a configuration, a boxed routing mechanism and a
    /// traffic pattern (dynamic dispatch).
    pub fn new(
        config: SimConfig,
        routing: Box<dyn RoutingAlgorithm>,
        traffic: Box<dyn TrafficPattern>,
    ) -> Self {
        Self::with_routing(config, routing, traffic)
    }
}

impl<R: RoutingAlgorithm> Simulation<R> {
    /// Build a simulation with a statically known routing mechanism.
    pub fn with_routing(config: SimConfig, routing: R, traffic: Box<dyn TrafficPattern>) -> Self {
        Self {
            net: Network::with_routing(config, routing, traffic),
        }
    }

    /// Read access to the underlying network.
    pub fn network(&self) -> &Network<R> {
        &self.net
    }

    /// Mutable access to the underlying network (tests and custom experiments).
    pub fn network_mut(&mut self) -> &mut Network<R> {
        &mut self.net
    }

    /// Install the observability probes on the underlying network (see
    /// [`Network::install_probes`]): read-only, preallocated, sampled every
    /// `cfg.stride` cycles.
    pub fn install_probes(&mut self, cfg: ProbeConfig) {
        self.net.install_probes(cfg);
    }

    /// The installed probe recorder, if any.
    pub fn probe(&self) -> Option<&ProbeRecorder> {
        self.net.probe()
    }

    /// Remove and return the installed probe recorder.
    pub fn take_probe(&mut self) -> Option<Box<ProbeRecorder>> {
        self.net.take_probe()
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        self.net.step();
    }

    /// Advance one cycle, invoking `hook` at every phase boundary (see
    /// [`Network::step_with_phase_hook`]).  Behaviourally identical to
    /// [`Simulation::step`]; the zero-allocation tier uses it to attribute
    /// allocator activity to individual phases.
    pub fn step_with_phase_hook(&mut self, hook: &mut dyn FnMut(&'static str)) {
        self.net.step_with_phase_hook(hook);
    }

    /// Advance `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        self.net.run(cycles);
    }

    /// Run the paper's steady-state protocol (see [`protocol::run_steady_state`]).
    pub fn run_steady_state(
        &mut self,
        offered_load: f64,
        warmup: u64,
        measure: u64,
        drain: u64,
    ) -> SimReport {
        protocol::run_steady_state(self, offered_load, warmup, measure, drain)
    }

    /// Install `jobs` — a static workload or a trace — into the network:
    /// compiles them against this simulation's topology and packet size and
    /// installs the runtime ([`Network::install_jobs`]).
    pub fn install_jobs(&mut self, jobs: &dyn JobList) {
        let schedule = jobs.schedule(self.net.params(), self.net.config.packet_size);
        self.net.install_jobs(schedule);
    }

    /// Run the steady-state protocol over the installed jobs and break the
    /// result down per job and per phase (see
    /// [`protocol::run_steady_state_workload`]).
    pub fn run_steady_state_workload(
        &mut self,
        warmup: u64,
        measure: u64,
        drain: u64,
    ) -> WorkloadReport {
        protocol::run_steady_state_workload(self, warmup, measure, drain)
    }

    /// Run the installed jobs to completion or `horizon` and report per-job
    /// statistics and lifecycles (see [`protocol::run_trace`]).
    pub fn run_trace(&mut self, horizon: u64, drain: u64) -> WorkloadReport {
        protocol::run_trace(self, horizon, drain)
    }

    /// Run the paper's burst-consumption protocol (see [`protocol::run_batch`]).
    pub fn run_batch(&mut self, burst: BurstSpec, max_cycles: u64) -> BatchReport {
        protocol::run_batch(self, burst, max_cycles)
    }
}

impl<R: RoutingAlgorithm> EngineHost for Simulation<R> {
    type Routing = R;
    type Engine = Network<R>;

    fn drive<T>(&mut self, f: impl FnOnce(&mut Network<R>) -> T) -> T {
        f(&mut self.net)
    }

    fn replica(&self) -> &Network<R> {
        &self.net
    }

    fn stats(&self) -> Cow<'_, StatsCollector> {
        Cow::Borrowed(&self.net.stats)
    }

    fn install_jobs(&mut self, jobs: &dyn JobList) {
        Simulation::install_jobs(self, jobs);
    }

    fn install_probes(&mut self, cfg: ProbeConfig) {
        Simulation::install_probes(self, cfg);
    }

    fn collect_probe(&mut self) -> Option<Box<ProbeRecorder>> {
        self.take_probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing_iface::BaselineMinimal;
    use dragonfly_traffic::{AdversarialGlobal, Uniform};

    fn vct_sim(h: usize, seed: u64) -> Simulation {
        Simulation::new(
            SimConfig::paper_vct(h).with_seed(seed),
            Box::new(BaselineMinimal::new()),
            Box::new(Uniform::new()),
        )
    }

    #[test]
    fn steady_state_uniform_low_load() {
        let mut sim = vct_sim(2, 11);
        let report = sim.run_steady_state(0.1, 2_000, 3_000, 4_000);
        assert!(!report.deadlock_detected);
        // Low load: accepted load tracks the offered load closely.
        assert!(
            (report.accepted_load - 0.1).abs() < 0.03,
            "accepted {} vs offered 0.1",
            report.accepted_load
        );
        assert!(report.injected_load > 0.05);
        // Latency is bounded below by the physical path and above by sanity.
        assert!(
            report.avg_latency_cycles > 50.0,
            "{}",
            report.avg_latency_cycles
        );
        assert!(
            report.avg_latency_cycles < 400.0,
            "{}",
            report.avg_latency_cycles
        );
        assert!(report.p99_latency_cycles >= report.avg_latency_cycles);
        assert!(report.packets_measured > 100);
        assert_eq!(report.routing, "Minimal");
        assert_eq!(report.traffic, "UN");
    }

    #[test]
    fn steady_state_latency_grows_with_load() {
        let low = vct_sim(2, 3).run_steady_state(0.05, 1_500, 2_500, 3_000);
        let high = vct_sim(2, 3).run_steady_state(0.45, 1_500, 2_500, 3_000);
        assert!(
            high.avg_latency_cycles > low.avg_latency_cycles,
            "latency should grow with load: {} vs {}",
            high.avg_latency_cycles,
            low.avg_latency_cycles
        );
        assert!(high.accepted_load > low.accepted_load);
    }

    #[test]
    fn adversarial_minimal_saturates_at_group_bound() {
        // Under ADVG+1 with minimal routing the single global channel between
        // consecutive groups caps throughput around 1/(2h^2+1).
        let mut sim = Simulation::new(
            SimConfig::paper_vct(2).with_seed(5),
            Box::new(BaselineMinimal::new()),
            Box::new(AdversarialGlobal::new(1)),
        );
        let report = sim.run_steady_state(0.5, 3_000, 4_000, 2_000);
        let bound = 1.0 / (2.0 * 2.0 * 2.0 + 1.0); // 1/9 ≈ 0.111
        assert!(
            report.accepted_load < bound * 1.6,
            "minimal routing under ADVG+1 should saturate near {bound}, got {}",
            report.accepted_load
        );
        assert!(report.accepted_load > bound * 0.4);
        assert!(!report.deadlock_detected);
    }

    #[test]
    fn batch_run_delivers_everything() {
        let mut sim = vct_sim(2, 21);
        let report = sim.run_batch(BurstSpec::new(5, 8), 200_000);
        assert!(!report.timed_out);
        assert!(!report.deadlock_detected);
        assert_eq!(report.packets_total, report.packets_delivered);
        assert_eq!(report.packets_per_node, 5);
        assert!(report.consumption_cycles > 100);
        assert!(report.avg_latency_cycles > 0.0);
    }

    #[test]
    #[should_panic(expected = "packet size")]
    fn batch_rejects_mismatched_packet_size() {
        let mut sim = vct_sim(2, 1);
        let _ = sim.run_batch(BurstSpec::new(5, 16), 1_000);
    }

    #[test]
    fn workload_run_breaks_stats_down_per_job_and_phase() {
        use dragonfly_workload::{JobPattern, JobSpec, PlacementPolicy, WorkloadSpec};
        let spec = WorkloadSpec::new(vec![
            JobSpec::new(
                "left",
                36,
                PlacementPolicy::Contiguous,
                JobPattern::Uniform,
                0.2,
            )
            .then_at(2_500, JobPattern::Uniform, 0.05),
            JobSpec::new(
                "right",
                36,
                PlacementPolicy::Contiguous,
                JobPattern::Uniform,
                0.1,
            ),
        ]);
        let mut sim = vct_sim(2, 33);
        sim.install_jobs(&spec);
        let report = sim.run_steady_state_workload(1_000, 3_000, 4_000);
        assert!(!report.aggregate.deadlock_detected);
        assert_eq!(report.jobs.len(), 2);

        let left = report.job("left").unwrap();
        let right = report.job("right").unwrap();
        assert_eq!(left.nodes, 36);
        assert_eq!(left.phases.len(), 2);
        assert_eq!(right.phases.len(), 1);
        // Phase spans: the switch at 2 500 splits the [1 000, 4 000) window.
        assert_eq!(left.phases[0].measured_cycles, 1_500);
        assert_eq!(left.phases[1].measured_cycles, 1_500);
        assert_eq!(right.phases[0].measured_cycles, 3_000);
        // Loads track each phase's configured rate.
        assert!(
            (left.phases[0].injected_load - 0.2).abs() < 0.05,
            "{}",
            left.phases[0].injected_load
        );
        assert!(
            (left.phases[1].injected_load - 0.05).abs() < 0.03,
            "{}",
            left.phases[1].injected_load
        );
        assert!(
            (right.injected_load - 0.1).abs() < 0.04,
            "{}",
            right.injected_load
        );
        // Per-job packet counts sum to the machine totals.
        let net = sim.network();
        let per_job_generated: u64 = report.jobs.iter().map(|j| j.packets_generated).sum();
        assert_eq!(per_job_generated, net.stats.total_generated);
        let per_job_delivered: u64 = report.jobs.iter().map(|j| j.packets_delivered).sum();
        assert_eq!(per_job_delivered, net.stats.total_delivered);
        let per_phase_measured: u64 = report
            .jobs
            .iter()
            .flat_map(|j| j.phases.iter().map(|p| p.packets_measured))
            .sum();
        assert_eq!(per_phase_measured, net.stats.measured_delivered);
        assert!(left.avg_latency_cycles > 50.0);
        assert!(left.p99_latency_cycles >= left.avg_latency_cycles);
    }

    #[test]
    fn trace_run_reports_lifecycles_and_per_job_loads() {
        use dragonfly_workload::{Completion, JobPattern, PlacementPolicy, Trace, TraceJob};
        let job = |name: &str, arrival, size, pattern, completion| TraceJob {
            name: name.into(),
            arrival,
            size,
            placement: PlacementPolicy::Contiguous,
            pattern,
            offered_load: 0.2,
            completion,
        };
        let trace = Trace::new(
            "t",
            vec![
                // `first` holds 68 of the 72 nodes; `second` must wait for it.
                job(
                    "first",
                    0,
                    68,
                    JobPattern::Uniform,
                    Completion::Duration(2_000),
                ),
                job(
                    "second",
                    500,
                    16,
                    JobPattern::RingExchange,
                    Completion::Volume(400),
                ),
            ],
        );
        let mut sim = vct_sim(2, 77);
        sim.install_jobs(&trace);
        let report = sim.run_trace(40_000, 5_000);
        assert!(!report.aggregate.deadlock_detected);
        assert_eq!(report.aggregate.traffic, "CHURN[t:2jobs]");
        assert_eq!(report.jobs.len(), 2);

        let first = report.job("first").unwrap();
        let lc = first.lifecycle.unwrap();
        assert_eq!(lc.placed_cycle, Some(0));
        assert_eq!(lc.completion_cycle, Some(2_000));
        assert_eq!(lc.wait_cycles, Some(0));
        assert!((lc.slowdown.unwrap() - 1.0).abs() < 1e-9);
        // Injected load over the residency tracks the configured rate.
        assert!(
            (first.injected_load - 0.2).abs() < 0.05,
            "{}",
            first.injected_load
        );
        assert_eq!(first.phases[0].start_cycle, 0);
        assert_eq!(first.phases[0].end_cycle, 2_000);

        let second = report.job("second").unwrap();
        let lc = second.lifecycle.unwrap();
        // Placed only when `first` freed its nodes, despite arriving at 500.
        assert_eq!(lc.placed_cycle, Some(2_000));
        assert_eq!(lc.wait_cycles, Some(1_500));
        let completed = lc.completion_cycle.expect("volume job must finish");
        assert!(completed > 2_000);
        // Volume-bound completion delivered exactly the requested packets (plus
        // whatever was still in flight when the threshold was crossed).
        assert!(
            second.packets_delivered >= 400,
            "{}",
            second.packets_delivered
        );
        // Slowdown folds the wait into the ideal-service ratio: ideal is
        // 400 packets × 8 phits / (16 nodes × 0.2) = 1 000 cycles, wait alone
        // adds 1.5× of that.
        assert!(lc.slowdown.unwrap() > 2.0, "{}", lc.slowdown.unwrap());

        // Per-job totals still sum to the machine totals.
        let generated: u64 = report.jobs.iter().map(|j| j.packets_generated).sum();
        assert_eq!(generated, sim.network().stats.total_generated);
        // The run ended when everything completed and drained, before the horizon.
        assert!(report.aggregate.measure_cycles < 40_000);
        assert!(sim.network().is_drained());
    }

    #[test]
    #[should_panic(expected = "run_trace requires installed jobs")]
    fn run_trace_requires_schedule() {
        let mut sim = vct_sim(2, 1);
        let _ = sim.run_trace(1_000, 100);
    }

    fn one_job_trace() -> dragonfly_workload::Trace {
        use dragonfly_workload::{Completion, JobPattern, PlacementPolicy, Trace, TraceJob};
        Trace::new(
            "t",
            vec![TraceJob {
                name: "a".into(),
                arrival: 0,
                size: 4,
                placement: PlacementPolicy::Contiguous,
                pattern: JobPattern::Uniform,
                offered_load: 0.1,
                completion: Completion::Duration(100),
            }],
        )
    }

    #[test]
    #[should_panic(expected = "requires a fresh simulation")]
    fn run_trace_rejects_a_stepped_simulation() {
        let mut sim = vct_sim(2, 1);
        sim.install_jobs(&one_job_trace());
        sim.run_cycles(1);
        let _ = sim.run_trace(1_000, 100);
    }

    #[test]
    #[should_panic(expected = "do not support dynamic schedules")]
    fn batch_rejects_an_installed_schedule() {
        let mut sim = vct_sim(2, 1);
        sim.install_jobs(&one_job_trace());
        let _ = sim.run_batch(BurstSpec::new(2, 8), 1_000);
    }

    #[test]
    #[should_panic(expected = "run_steady_state_workload requires installed jobs")]
    fn workload_run_requires_a_workload() {
        let mut sim = vct_sim(2, 1);
        let _ = sim.run_steady_state_workload(100, 100, 100);
    }

    #[test]
    fn install_workload_clears_a_previous_schedule() {
        use dragonfly_workload::WorkloadSpec;
        let mut sim = vct_sim(2, 1);
        sim.install_jobs(&one_job_trace());
        assert_eq!(sim.network().traffic_name(), "CHURN[t:1jobs]");
        let workload = WorkloadSpec::transient(72, 0.1, 1_000, 2);
        sim.install_jobs(&workload);
        let jobs = sim.network().jobs().unwrap();
        assert_eq!(jobs.label(), workload.label());
        assert_eq!(jobs.phase_counts(), vec![2]);
        assert_eq!(sim.network().traffic_name(), workload.label());
    }

    #[test]
    fn horizon_truncated_jobs_stay_incomplete_regardless_of_drain() {
        use dragonfly_workload::{Completion, JobPattern, PlacementPolicy, Trace, TraceJob};
        // The job's duration extends past the horizon: the lifecycle freezes at
        // halt(), so no drain budget can make it report a completion.
        let trace = Trace::new(
            "long",
            vec![TraceJob {
                name: "spans".into(),
                arrival: 0,
                size: 8,
                placement: PlacementPolicy::Contiguous,
                pattern: JobPattern::Uniform,
                offered_load: 0.1,
                completion: Completion::Duration(5_000),
            }],
        );
        for drain in [100, 20_000] {
            let mut sim = vct_sim(2, 7);
            sim.install_jobs(&trace);
            let report = sim.run_trace(2_000, drain);
            let lc = report.job("spans").unwrap().lifecycle.unwrap();
            assert_eq!(lc.placed_cycle, Some(0));
            assert_eq!(lc.completion_cycle, None, "drain = {drain}");
            assert_eq!(lc.slowdown, None);
        }
    }

    #[test]
    fn wormhole_uniform_delivers() {
        let mut sim = Simulation::new(
            SimConfig::paper_wormhole(2).with_seed(13),
            Box::new(BaselineMinimal::new()),
            Box::new(Uniform::new()),
        );
        let report = sim.run_steady_state(0.1, 2_000, 3_000, 6_000);
        assert!(!report.deadlock_detected);
        assert!(report.packets_measured > 20);
        assert!(
            (report.accepted_load - 0.1).abs() < 0.04,
            "{}",
            report.accepted_load
        );
        // 80-phit packets over a ~120-cycle path: latency well above the VCT case.
        assert!(report.avg_latency_cycles > 150.0);
    }
}
