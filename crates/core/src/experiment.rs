//! Single-experiment specification and execution.

use dragonfly_probe::{ProbeConfig, ProbeRecorder, RunManifest, MANIFEST_SCHEMA_VERSION};
use dragonfly_routing::{AdaptiveParams, RoutingKind, RoutingVisitor};
use dragonfly_shard::{ShardPlan, ShardedSimulation};
use dragonfly_sim::{protocol, EngineHost, RoutingAlgorithm, SimConfig, Simulation};
use dragonfly_stats::{BatchReport, SimReport, WorkloadReport};
use dragonfly_topology::DragonflyParams;
use dragonfly_traffic::{
    AdversarialGlobal, AdversarialLocal, BurstSpec, MixedGlobalLocal, TrafficPattern, Uniform,
};
use dragonfly_workload::Trace;

/// Which of the paper's two flow-control setups to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowControlKind {
    /// Virtual Cut-Through with 8-phit packets (Cascade-like, Section IV-A).
    Vct,
    /// Wormhole with 80-phit packets of 8×10-phit flits (PERCS-like, Section IV-B).
    Wormhole,
}

impl FlowControlKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FlowControlKind::Vct => "VCT",
            FlowControlKind::Wormhole => "WH",
        }
    }

    /// The packet size (phits) the paper uses for this flow control.
    pub fn packet_size(self) -> usize {
        match self {
            FlowControlKind::Vct => 8,
            FlowControlKind::Wormhole => 80,
        }
    }
}

/// Which traffic pattern to drive the network with.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficKind {
    /// Uniform random traffic.
    Uniform,
    /// Adversarial-global with the given group offset (ADVG+N).
    AdversarialGlobal(usize),
    /// Adversarial-local with the given router offset (ADVL+N).
    AdversarialLocal(usize),
    /// Mix of ADVG+`global_offset` (with probability `global_fraction`) and
    /// ADVL+`local_offset`.
    Mixed {
        /// Fraction of packets following the adversarial-global component.
        global_fraction: f64,
        /// Group offset of the global component.
        global_offset: usize,
        /// Router offset of the local component.
        local_offset: usize,
    },
    /// A job list (see [`Trace`]): a static workload — per-job placements,
    /// patterns, offered loads and phase schedules, every job present from
    /// cycle 0 — or a churn trace of jobs arriving, waiting, departing and
    /// re-placed onto freed nodes.  The jobs carry their own loads, so the
    /// spec's `offered_load` is ignored.  [`Jobs`] runs a static workload to
    /// steady state and a churn trace with `protocol::run_trace`, the
    /// spec's `measure` as the horizon and `drain` as the drain budget
    /// (`warmup` is ignored — churn runs measure from cycle 0).
    Jobs(Trace),
}

impl TrafficKind {
    /// ADVG+h for a given `h` (the severe pattern of Figures 4c/5c/7c/8c).
    pub fn advg_h(h: usize) -> Self {
        TrafficKind::AdversarialGlobal(h)
    }

    /// Instantiate the pattern (the paper's synthetic patterns ignore
    /// `params`).
    ///
    /// # Panics
    ///
    /// Panics for [`TrafficKind::Jobs`]: its jobs own their destinations, so
    /// there is no standalone pattern to build — install them with
    /// `Simulation::install_jobs` (as [`ExperimentSpec::run_workload`] does).
    pub fn build(&self, _params: &DragonflyParams) -> Box<dyn TrafficPattern> {
        match self {
            TrafficKind::Uniform => Box::new(Uniform::new()),
            TrafficKind::AdversarialGlobal(n) => Box::new(AdversarialGlobal::new(*n)),
            TrafficKind::AdversarialLocal(n) => Box::new(AdversarialLocal::new(*n)),
            TrafficKind::Mixed {
                global_fraction,
                global_offset,
                local_offset,
            } => Box::new(MixedGlobalLocal::new(
                *global_fraction,
                *global_offset,
                *local_offset,
            )),
            TrafficKind::Jobs(_) => panic!(
                "{} has no standalone traffic pattern; install its jobs with \
                 Simulation::install_jobs instead",
                self.name()
            ),
        }
    }

    /// Display name matching the paper's labels.
    pub fn name(&self) -> String {
        match self {
            TrafficKind::Uniform => "UN".to_string(),
            TrafficKind::AdversarialGlobal(n) => format!("ADVG+{n}"),
            TrafficKind::AdversarialLocal(n) => format!("ADVL+{n}"),
            TrafficKind::Mixed {
                global_fraction,
                global_offset,
                local_offset,
            } => format!(
                "MIX{}%(ADVG+{global_offset}/ADVL+{local_offset})",
                (global_fraction * 100.0).round() as u32
            ),
            TrafficKind::Jobs(trace) => trace.label(),
        }
    }

    /// The job list, when this is [`TrafficKind::Jobs`].
    pub fn jobs(&self) -> Option<&Trace> {
        match self {
            TrafficKind::Jobs(trace) => Some(trace),
            _ => None,
        }
    }
}

/// Full specification of one simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Dragonfly parameter `h`.
    pub h: usize,
    /// Flow control / packet-size setup.
    pub flow_control: FlowControlKind,
    /// Routing mechanism.
    pub routing: RoutingKind,
    /// Traffic pattern.
    pub traffic: TrafficKind,
    /// Offered load in phits/(node·cycle).
    pub offered_load: f64,
    /// Misrouting-trigger threshold for the adaptive mechanisms.
    pub threshold: f64,
    /// Random seed.
    pub seed: u64,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Extra drain cycles after the window.
    pub drain: u64,
}

impl ExperimentSpec {
    /// A reasonable default specification for the given scale.
    pub fn new(h: usize) -> Self {
        Self {
            h,
            flow_control: FlowControlKind::Vct,
            routing: RoutingKind::Minimal,
            traffic: TrafficKind::Uniform,
            offered_load: 0.1,
            threshold: 0.45,
            seed: 1,
            warmup: 5_000,
            measure: 8_000,
            drain: 8_000,
        }
    }

    /// Short human-readable label for this point (progress lines, file names):
    /// routing, flow control, traffic and offered load.
    pub fn label(&self) -> String {
        format!(
            "{} {} {} @{:.2}",
            self.routing.name(),
            self.flow_control.name(),
            self.traffic.name(),
            self.offered_load
        )
    }

    /// Build the simulator configuration implied by this specification.
    pub fn sim_config(&self) -> SimConfig {
        let base = match self.flow_control {
            FlowControlKind::Vct => SimConfig::paper_vct(self.h),
            FlowControlKind::Wormhole => SimConfig::paper_wormhole(self.h),
        };
        base.with_local_vcs(self.routing.local_vcs())
            .with_seed(self.seed)
    }

    /// The pattern an engine is constructed with.  A job list installs jobs
    /// that own their destinations afterwards
    /// ([`ExperimentSpec::install_jobs`]), so theirs is a throwaway.
    fn construction_traffic(&self, params: &DragonflyParams) -> Box<dyn TrafficPattern> {
        if self.traffic.jobs().is_some() {
            Box::new(Uniform::new())
        } else {
            self.traffic.build(params)
        }
    }

    /// Install the spec's job list, if it has one.
    fn install_jobs<H: EngineHost>(&self, sim: &mut H) {
        if let Some(jobs) = self.traffic.jobs() {
            sim.install_jobs(jobs);
        }
    }

    /// Run the steady-state protocol on the sequential engine and return the
    /// report: [`ExperimentSpec::run_with`] with [`Steady`] and the default
    /// options.  For a job list this is the aggregate half of
    /// [`ExperimentSpec::run_workload`].
    pub fn run(&self) -> SimReport {
        self.run_with(Steady, &RunOptions::default()).0
    }

    /// Run a job list on the sequential engine and return the per-job (and,
    /// for static workloads, per-phase) breakdown alongside the aggregate
    /// report: [`ExperimentSpec::run_with`] with [`Jobs`] and the default
    /// options.
    ///
    /// # Panics
    ///
    /// Panics when the traffic kind is not [`TrafficKind::Jobs`].
    pub fn run_workload(&self) -> WorkloadReport {
        self.run_with(Jobs, &RunOptions::default()).0
    }

    /// Run the burst-consumption protocol on the sequential engine:
    /// [`ExperimentSpec::run_with`] with [`Batch`] and the default options.
    pub fn run_batch(&self, packets_per_node: u64, max_cycles: u64) -> BatchReport {
        let batch = Batch {
            packets_per_node,
            max_cycles,
        };
        self.run_with(batch, &RunOptions::default()).0
    }

    /// Run `protocol` under `options`: the one pipeline behind every run.
    ///
    /// The engine is monomorphized over the concrete routing mechanism, built
    /// sequential or sharded ([`RunOptions::shards`]), given the spec's
    /// job list and the requested probes
    /// ([`RunOptions::probes`]), and handed to the protocol.  Returns the
    /// protocol's report and — when probes were requested — the run-wide
    /// recorder (merged across shards).
    ///
    /// Neither option changes the report: sharded ≡ sequential and probed ≡
    /// unprobed byte for byte (pinned by `tests/shard_equivalence.rs` and
    /// `tests/probe_invariance.rs`), and so are the merged recorder's pinned
    /// outputs (the diagnostics series is the documented exception — see
    /// `dragonfly_probe`).
    pub fn run_with<P: Protocol>(
        &self,
        protocol: P,
        options: &RunOptions,
    ) -> (P::Report, Option<Box<ProbeRecorder>>) {
        protocol.check(self);
        self.routing.dispatch(
            AdaptiveParams::with_threshold(self.threshold),
            Run {
                spec: self,
                protocol,
                options,
            },
        )
    }

    /// Build the [`RunManifest`] describing this spec, with zeroed peak
    /// telemetry and drop counts.  Use [`ExperimentSpec::manifest_with_report`]
    /// when a [`SimReport`] is at hand; `ProbeRecorder::write_all_with_manifest`
    /// fills the drop counts.
    pub fn manifest(&self, title: &str) -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            title: title.to_string(),
            h: self.h as u64,
            routing: self.routing.name().to_string(),
            flow_control: self.flow_control.name().to_string(),
            traffic: self.traffic.name(),
            offered_load: self.offered_load,
            threshold: self.threshold,
            seed: self.seed,
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
            peak_in_flight_packets: 0,
            peak_buffered_phits: 0,
            peak_vc_occupancy: 0,
            samples_dropped: 0,
            heatmap_events_dropped: 0,
        }
    }

    /// [`ExperimentSpec::manifest`] with the peak-telemetry section filled
    /// from a run's report.
    pub fn manifest_with_report(&self, title: &str, report: &SimReport) -> RunManifest {
        RunManifest {
            peak_in_flight_packets: report.peak_in_flight_packets,
            peak_buffered_phits: report.peak_buffered_phits,
            peak_vc_occupancy: report.peak_vc_occupancy,
            ..self.manifest(title)
        }
    }
}

/// Which engine runs a spec and what is attached to it.  Both fields are
/// orthogonal to the protocol and to each other, and neither changes a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// `None` runs the sequential engine; `Some(n)` partitions the simulation
    /// into `n` per-group shards stepping concurrently under a cycle barrier
    /// (see `dragonfly_shard`; `Some(1)` is the partitioned engine with a
    /// single worker).
    pub shards: Option<usize>,
    /// Observability probes to install (in every shard replica); `None` = off.
    pub probes: Option<ProbeConfig>,
}

/// A run protocol, typed by the report it produces.
pub trait Protocol: Copy + Sync {
    /// The protocol's report.
    type Report: Send;

    /// Panic if the protocol cannot run `spec` (called before any engine is
    /// built).  The default accepts every spec.
    fn check(self, _spec: &ExperimentSpec) {}

    /// Run the protocol for `spec` on a fully installed engine.
    fn run_on<H: EngineHost>(self, spec: &ExperimentSpec, sim: &mut H) -> Self::Report;

    /// The machine-wide steady-state half of a report, if it has one (the
    /// source of a run manifest's peak telemetry).
    fn aggregate(report: &Self::Report) -> Option<&SimReport>;
}

/// The steady-state protocol: warm-up, measurement window, drain.  For a job
/// list, the aggregate half of [`Jobs`].
#[derive(Debug, Clone, Copy)]
pub struct Steady;

impl Protocol for Steady {
    type Report = SimReport;

    fn run_on<H: EngineHost>(self, spec: &ExperimentSpec, sim: &mut H) -> SimReport {
        if spec.traffic.jobs().is_some() {
            Jobs.run_on(spec, sim).aggregate
        } else {
            protocol::run_steady_state(
                sim,
                spec.offered_load,
                spec.warmup,
                spec.measure,
                spec.drain,
            )
        }
    }

    fn aggregate(report: &SimReport) -> Option<&SimReport> {
        Some(report)
    }
}

/// The per-job protocol a spec's job list implies: the steady-state workload
/// protocol for a static list ([`Trace::is_static`]), the trace protocol
/// otherwise (jobs arrive, wait, run and depart; reports carry lifecycle
/// columns).
#[derive(Debug, Clone, Copy)]
pub struct Jobs;

impl Protocol for Jobs {
    type Report = WorkloadReport;

    fn check(self, spec: &ExperimentSpec) {
        assert!(
            spec.traffic.jobs().is_some(),
            "a Jobs run requires TrafficKind::Jobs traffic"
        );
    }

    fn run_on<H: EngineHost>(self, spec: &ExperimentSpec, sim: &mut H) -> WorkloadReport {
        if spec.traffic.jobs().is_some_and(|jobs| !jobs.is_static()) {
            protocol::run_trace(sim, spec.measure, spec.drain)
        } else {
            protocol::run_steady_state_workload(sim, spec.warmup, spec.measure, spec.drain)
        }
    }

    fn aggregate(report: &WorkloadReport) -> Option<&SimReport> {
        Some(&report.aggregate)
    }
}

/// The burst-consumption protocol: every node sends `packets_per_node`
/// packets and the run lasts until all are delivered or `max_cycles` pass.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Packets preloaded into every node's source queue.
    pub packets_per_node: u64,
    /// Safety limit on the consumption time.
    pub max_cycles: u64,
}

impl Protocol for Batch {
    type Report = BatchReport;

    fn run_on<H: EngineHost>(self, spec: &ExperimentSpec, sim: &mut H) -> BatchReport {
        let burst = BurstSpec::new(self.packets_per_node, spec.flow_control.packet_size());
        protocol::run_batch(sim, burst, self.max_cycles)
    }

    fn aggregate(_: &BatchReport) -> Option<&SimReport> {
        None
    }
}

/// The one visitor behind [`ExperimentSpec::run_with`]: build the sequential
/// or sharded engine over the concrete mechanism, install jobs and probes, run
/// the protocol, collect the recorder.
struct Run<'a, P> {
    spec: &'a ExperimentSpec,
    protocol: P,
    options: &'a RunOptions,
}

impl<P: Protocol> RoutingVisitor for Run<'_, P> {
    type Output = (P::Report, Option<Box<ProbeRecorder>>);

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Self::Output {
        let spec = self.spec;
        let config = spec.sim_config();
        let params = config.params;
        let traffic = || spec.construction_traffic(&params);
        match self.options.shards {
            None => self.run_on(Simulation::with_routing(config, routing, traffic())),
            Some(shards) => {
                let plan = ShardPlan::new(shards);
                self.run_on(ShardedSimulation::new(config, plan, routing, traffic))
            }
        }
    }
}

impl<P: Protocol> Run<'_, P> {
    fn run_on<H: EngineHost>(self, mut sim: H) -> (P::Report, Option<Box<ProbeRecorder>>) {
        self.spec.install_jobs(&mut sim);
        if let Some(probes) = &self.options.probes {
            sim.install_probes(probes.clone());
        }
        let report = self.protocol.run_on(self.spec, &mut sim);
        (report, sim.collect_probe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_routing::MinimalRouting;

    #[test]
    fn flow_control_kind_metadata() {
        assert_eq!(FlowControlKind::Vct.name(), "VCT");
        assert_eq!(FlowControlKind::Wormhole.name(), "WH");
        assert_eq!(FlowControlKind::Vct.packet_size(), 8);
        assert_eq!(FlowControlKind::Wormhole.packet_size(), 80);
    }

    #[test]
    fn traffic_kind_names() {
        assert_eq!(TrafficKind::Uniform.name(), "UN");
        assert_eq!(TrafficKind::AdversarialGlobal(8).name(), "ADVG+8");
        assert_eq!(TrafficKind::AdversarialLocal(1).name(), "ADVL+1");
        assert_eq!(TrafficKind::advg_h(4), TrafficKind::AdversarialGlobal(4));
        let mix = TrafficKind::Mixed {
            global_fraction: 0.4,
            global_offset: 8,
            local_offset: 1,
        };
        assert!(mix.name().starts_with("MIX40%"));
    }

    #[test]
    fn spec_config_respects_routing_vcs() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Par62;
        assert_eq!(spec.sim_config().local_vcs, 6);
        spec.routing = RoutingKind::Olm;
        assert_eq!(spec.sim_config().local_vcs, 3);
        spec.flow_control = FlowControlKind::Wormhole;
        assert_eq!(spec.sim_config().packet_size, 80);
    }

    #[test]
    fn builder_runs_small_experiment() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = TrafficKind::Uniform;
        spec.offered_load = 0.15;
        spec.warmup = 800;
        spec.measure = 1_500;
        spec.drain = 1_500;
        let report = spec.run();
        assert!(!report.deadlock_detected);
        assert!(report.accepted_load > 0.05);
        assert_eq!(report.routing, "OLM");
    }

    #[test]
    fn workload_traffic_kind_builds_and_runs() {
        let workload = Trace::interference(72, 1, 0.4, 0.1);
        let kind = TrafficKind::Jobs(workload.clone());
        assert!(kind.name().starts_with("WL[aggressor:ADVG+1@0.40"));
        assert_eq!(kind.jobs(), Some(&workload));
        assert!(TrafficKind::Uniform.jobs().is_none());

        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = kind;
        spec.warmup = 500;
        spec.measure = 1_000;
        spec.drain = 1_500;
        let report = spec.run_workload();
        assert_eq!(report.jobs.len(), 2);
        assert!(!report.aggregate.deadlock_detected);
        assert_eq!(report.aggregate.traffic, spec.traffic.name());
        // The aggregate-only entry point agrees with the workload run's aggregate.
        assert_eq!(spec.run(), report.aggregate);
    }

    #[test]
    #[should_panic(expected = "requires TrafficKind::Jobs")]
    fn run_workload_rejects_plain_traffic() {
        let spec = ExperimentSpec::new(2);
        let _ = spec.run_workload();
    }

    #[test]
    fn churn_traffic_kind_builds_and_runs() {
        use dragonfly_workload::{Completion, JobPattern, JobSpec, PlacementPolicy};
        let a = JobSpec::new(
            "a",
            24,
            PlacementPolicy::Contiguous,
            JobPattern::AllToAll,
            0.15,
        );
        let b = JobSpec::new(
            "b",
            24,
            PlacementPolicy::Random { seed: 5 },
            JobPattern::Uniform,
            0.1,
        );
        let trace = Trace::new(
            "mini",
            vec![
                a.complete_on(Completion::Duration(1_500)),
                b.arrive_at(700).complete_on(Completion::Duration(1_000)),
            ],
        );
        let kind = TrafficKind::Jobs(trace.clone());
        assert_eq!(kind.name(), "CHURN[mini:2jobs]");
        assert_eq!(kind.jobs(), Some(&trace));

        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = kind;
        spec.measure = 6_000; // the horizon of a churn run
        spec.drain = 2_000;
        let report = spec.run_workload();
        assert_eq!(report.jobs.len(), 2);
        assert!(!report.aggregate.deadlock_detected);
        assert_eq!(report.aggregate.traffic, spec.traffic.name());
        let b = report.job("b").unwrap().lifecycle.unwrap();
        assert_eq!(b.arrival_cycle, 700);
        assert_eq!(b.placed_cycle, Some(700));
        // run() returns the same aggregate.
        assert_eq!(spec.run(), report.aggregate);
    }

    #[test]
    fn reports_name_the_installed_jobs() {
        // An engine is built with a throwaway pattern and then given its jobs;
        // every report must name the jobs, whichever protocol reads it.
        let line = "job a arrive=100 size=16 place=cont pattern=UN load=0.1 duration=300";
        let trace = Trace::parse(line).unwrap();
        let mut spec = ExperimentSpec::new(2);
        spec.warmup = 200;
        spec.measure = 400;
        spec.drain = 400;
        for traffic in [
            TrafficKind::Jobs(trace),
            TrafficKind::Jobs(Trace::interference(72, 1, 0.2, 0.1)),
        ] {
            spec.traffic = traffic;
            let label = spec.traffic.name();
            let config = spec.sim_config();
            let traffic = spec.construction_traffic(&config.params);
            let mut sim = Simulation::with_routing(config, MinimalRouting::new(), traffic);
            spec.install_jobs(&mut sim);
            assert_eq!(sim.network().traffic_name(), label);
            let report = sim.run_steady_state(0.1, spec.warmup, spec.measure, spec.drain);
            assert_eq!(report.traffic, label);
        }
    }

    #[test]
    fn spec_labels_are_short_and_informative() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = TrafficKind::AdversarialGlobal(1);
        spec.offered_load = 0.25;
        assert_eq!(spec.label(), "OLM VCT ADVG+1 @0.25");
    }

    fn probed(shards: Option<usize>, probes: ProbeConfig) -> RunOptions {
        RunOptions {
            shards,
            probes: Some(probes),
        }
    }

    #[test]
    fn unprobed_runs_return_no_recorder() {
        let mut spec = ExperimentSpec::new(2);
        spec.warmup = 100;
        spec.measure = 200;
        spec.drain = 200;
        assert!(spec.run_with(Steady, &RunOptions::default()).1.is_none());
        let sharded = RunOptions {
            shards: Some(2),
            probes: None,
        };
        assert!(spec.run_with(Steady, &sharded).1.is_none());
    }

    #[test]
    fn probed_runs_match_unprobed_and_sharded_probes_merge_exactly() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Piggybacking;
        spec.traffic = TrafficKind::AdversarialGlobal(1);
        spec.offered_load = 0.25;
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 900;
        spec.seed = 23;

        let plain = spec.run();
        let (probed_report, probe) = spec.run_with(Steady, &probed(None, ProbeConfig::full(32)));
        let probe = probe.unwrap();
        assert_eq!(probed_report, plain, "probes must not perturb the run");
        assert!(probe.samples() > 0);

        let (sharded_report, sharded_probe) =
            spec.run_with(Steady, &probed(Some(3), ProbeConfig::full(32)));
        let sharded_probe = sharded_probe.unwrap();
        assert_eq!(sharded_report, plain);
        assert_eq!(sharded_probe.samples(), probe.samples());
        assert_eq!(sharded_probe.column("injected"), probe.column("injected"));
        assert_eq!(sharded_probe.sorted_flight(), probe.sorted_flight());
    }

    #[test]
    fn workload_probed_run_matches_unprobed() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = TrafficKind::Jobs(Trace::interference(72, 1, 0.4, 0.1));
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 900;
        let plain = spec.run_workload();
        let (report, probe) = spec.run_with(Jobs, &probed(None, ProbeConfig::default()));
        let probe = probe.unwrap();
        assert_eq!(report, plain);
        assert!(probe.samples() > 0);
        let (sharded, sharded_probe) =
            spec.run_with(Jobs, &probed(Some(3), ProbeConfig::default()));
        assert_eq!(sharded, plain);
        assert_eq!(
            sharded_probe.unwrap().column("delivered"),
            probe.column("delivered")
        );
    }

    #[test]
    fn batch_run_through_spec() {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Rlm;
        spec.traffic = TrafficKind::Mixed {
            global_fraction: 0.5,
            global_offset: 2,
            local_offset: 1,
        };
        let report = spec.run_batch(3, 100_000);
        assert!(!report.deadlock_detected);
        assert!(!report.timed_out);
        assert_eq!(report.packets_delivered, report.packets_total);
    }
}
