//! The run protocols, each written once.
//!
//! Two traits separate *what a protocol does* from *what executes it*:
//!
//! * [`Engine`] is the control surface a protocol's cycle loop drives: it
//!   steps, takes a [`Control`] call between cycles (set the injection,
//!   open or close the measurement window, preload a burst, …) and answers
//!   with a [`Status`], the handful of run-wide facts the loop conditions
//!   read.  [`Network`] implements it directly; the sharded engine
//!   implements it by broadcasting each step and control call to its
//!   workers and merging the statuses they publish.
//! * [`EngineHost`] owns an engine: it lends it out for the duration of a
//!   protocol loop ([`EngineHost::drive`]) and afterwards exposes what the
//!   report is assembled from — a reference [`Network`] replica (names, the
//!   job runtime, the watchdog verdict) and the run-wide [`StatsCollector`].
//!
//! [`run_steady_state`], [`run_steady_state_workload`], [`run_trace`] and
//! [`run_batch`] are generic over the host, statically dispatched, and the
//! only copies of their loops and report assembly in the workspace — which is
//! what makes sequential ≡ sharded a property of the engines alone.

use crate::network::Network;
use crate::routing_iface::RoutingAlgorithm;
use crate::stats_collect::StatsCollector;
use dragonfly_probe::{ProbeConfig, ProbeRecorder};
use dragonfly_stats::{
    phits_per_node_cycle, BatchReport, JobLifecycleReport, JobReport, PhaseReport, SimReport,
    WorkloadReport,
};
use dragonfly_traffic::{BernoulliInjection, BurstSpec};
use dragonfly_workload::{Schedule, Trace};
use std::borrow::Cow;

/// A control call a protocol makes between cycles.
#[derive(Debug, Clone, Copy)]
pub enum Control {
    /// Set (or clear) the global Bernoulli injection process.
    Injection(Option<BernoulliInjection>),
    /// Set whether newly generated packets are latency-tagged.
    Tag(bool),
    /// Open the measurement window at the current cycle.
    BeginMeasurement,
    /// Close the measurement window at the current cycle.
    EndMeasurement,
    /// Preload every source queue with this many packets (a burst).
    Burst(u64),
    /// Stop all packet generation: halt the job runtime (freezing its
    /// lifecycle, keeping its destinations) and clear the Bernoulli process.
    Halt,
}

/// The run-wide facts a protocol's loop conditions read, as the last step
/// or control call left them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Cycles simulated so far.
    pub cycle: u64,
    /// Packets generated so far.
    pub generated: u64,
    /// Packets delivered so far.
    pub delivered: u64,
    /// Whether the deadlock watchdog fired.
    pub deadlocked: bool,
    /// Whether no packet exists anywhere (sources, buffers, links).
    pub drained: bool,
    /// Whether every installed job completed (`true` without a job runtime).
    pub jobs_complete: bool,
}

/// What a protocol's cycle loop needs from whatever executes the cycles.
pub trait Engine {
    /// Advance one cycle.
    fn step(&mut self);

    /// Advance `cycles` cycles.
    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Apply one control call at the current cycle.
    fn control(&mut self, control: Control);

    /// The run as it stands.
    fn status(&self) -> Status;
}

impl<R: RoutingAlgorithm> Engine for Network<R> {
    fn step(&mut self) {
        Network::step(self);
    }

    fn control(&mut self, control: Control) {
        match control {
            Control::Injection(injection) => self.set_injection(injection),
            Control::Tag(tag) => self.tag_measured = tag,
            Control::BeginMeasurement => self.stats.begin_measurement(self.cycle),
            Control::EndMeasurement => self.stats.end_measurement(self.cycle),
            Control::Burst(packets_per_node) => self.preload_burst(packets_per_node),
            Control::Halt => self.halt_generation(),
        }
    }

    fn status(&self) -> Status {
        Status {
            cycle: self.cycle,
            generated: self.stats.total_generated,
            delivered: self.stats.total_delivered,
            deadlocked: self.deadlock_detected,
            drained: self.is_drained(),
            jobs_complete: self.jobs().is_none_or(Schedule::all_complete),
        }
    }
}

/// A simulation the protocols can run on: the sequential
/// [`Simulation`](crate::Simulation) and the sharded engine.
pub trait EngineHost {
    /// The routing mechanism the engine is monomorphized over.
    type Routing: RoutingAlgorithm;
    /// The control handle lent to a protocol loop.
    type Engine: Engine;

    /// Run `f` with the engine live.  The sharded engine spawns its workers
    /// around the call and joins them before returning.
    fn drive<T>(&mut self, f: impl FnOnce(&mut Self::Engine) -> T) -> T;
    /// A network replica holding the run's names, configuration, job runtime
    /// and watchdog verdict (identical on every shard).
    fn replica(&self) -> &Network<Self::Routing>;
    /// The run-wide statistics collector (merged across shards).
    fn stats(&self) -> Cow<'_, StatsCollector>;

    /// Compile `jobs` — a static workload or an arrival trace — against the
    /// topology and packet size and install the runtime
    /// ([`Network::install_jobs`]).
    fn install_jobs(&mut self, jobs: &Trace);
    /// Install the observability probes.
    fn install_probes(&mut self, cfg: ProbeConfig);
    /// Remove the run-wide probe recorder (merged across shards), if probes
    /// were installed.  Boxed: a recorder is ~2 kB inline, and sweeps hold one
    /// slot per point whether or not probes are on.
    fn collect_probe(&mut self) -> Option<Box<ProbeRecorder>>;
}

/// Run the paper's steady-state protocol.
///
/// The network is warmed up for `warmup` cycles under the given offered load, then
/// measured for `measure` cycles.  Packets generated inside the measurement window
/// are latency-tagged; after the window closes the simulation keeps running (with
/// injection still on, as in an open-loop measurement) for up to `drain` extra
/// cycles or until every tagged packet has been delivered, so latency statistics
/// are not truncated.
pub fn run_steady_state<H: EngineHost>(
    host: &mut H,
    offered_load: f64,
    warmup: u64,
    measure: u64,
    drain: u64,
) -> SimReport {
    drive_steady_state(host, offered_load, warmup, measure, drain);
    steady_report(host, &host.stats(), offered_load, warmup, measure)
}

/// The cycles of [`run_steady_state`]: warm-up, the measurement window and
/// the drain.
fn drive_steady_state<H: EngineHost>(
    host: &mut H,
    offered_load: f64,
    warmup: u64,
    measure: u64,
    drain: u64,
) {
    let net = host.replica();
    // With jobs installed their phase tables own the injection rates;
    // otherwise the single global Bernoulli process drives every node.
    let injection = net
        .jobs()
        .is_none()
        .then(|| BernoulliInjection::new(offered_load, net.config.packet_size));
    host.drive(|engine| {
        if injection.is_some() {
            engine.control(Control::Injection(injection));
        }

        engine.control(Control::Tag(false));
        engine.run(warmup);

        engine.control(Control::BeginMeasurement);
        engine.control(Control::Tag(true));
        engine.run(measure);
        engine.control(Control::EndMeasurement);
        engine.control(Control::Tag(false));

        // Drain: let tagged packets finish, still under load, without extending the
        // throughput window.
        let measured_goal = engine.status().generated;
        for _ in 0..drain {
            let status = engine.status();
            if status.delivered >= measured_goal || status.deadlocked {
                break;
            }
            engine.step();
        }
    });
}

/// The aggregate report of a steady-state run whose merged statistics are
/// `stats`.
fn steady_report<H: EngineHost>(
    host: &H,
    stats: &StatsCollector,
    offered_load: f64,
    warmup: u64,
    measure: u64,
) -> SimReport {
    let net = host.replica();
    sim_report(
        stats,
        SimRunIdentity {
            routing: net.routing_name().to_string(),
            traffic: net.traffic_name(),
            offered_load,
            nodes: net.params().num_nodes(),
            warmup_cycles: warmup,
            measure_cycles: measure,
            deadlock_detected: net.deadlock_detected,
        },
    )
}

/// Run the steady-state protocol over the installed jobs and break the result
/// down per job and per phase.
///
/// The aggregate half follows [`run_steady_state`] exactly (the reported
/// `offered_load` is the jobs' nominal cycle-0 aggregate).  The
/// per-job/per-phase breakdowns attribute every packet to the job and phase that
/// *generated* it; loads are normalized by the job's node count and by each
/// phase's overlap with the measurement window.
///
/// # Panics
///
/// Panics without installed jobs.
pub fn run_steady_state_workload<H: EngineHost>(
    host: &mut H,
    warmup: u64,
    measure: u64,
    drain: u64,
) -> WorkloadReport {
    let net = host.replica();
    let nominal = net
        .jobs()
        .expect("run_steady_state_workload requires installed jobs")
        .nominal_offered_load(net.params().num_nodes());
    drive_steady_state(host, nominal, warmup, measure, drain);
    // One read of the merged statistics serves the aggregate and every
    // breakdown (a sharded host merges its shards' collectors per read).
    let stats = host.stats();
    let aggregate = steady_report(host, &stats, nominal, warmup, measure);
    let window = (stats.window_start, stats.window_end);
    let runtime = host.replica().jobs().unwrap();
    let scoped = stats
        .scoped
        .as_ref()
        .expect("scoped statistics are enabled when jobs are installed");

    let jobs = (0..runtime.num_jobs())
        .map(|j| {
            let job = runtime.job(j as u16);
            // A phase runs until the next one starts; the last never ends.
            let ends = job.phases()[1..].iter().map(|next| next.start_cycle);
            let phases = job
                .phases()
                .iter()
                .zip(ends.chain([u64::MAX]))
                .enumerate()
                .map(|(ph, (phase, end))| {
                    let span = (phase.start_cycle, end);
                    phase_report(
                        PhaseIdentity {
                            job: job.name().to_string(),
                            phase: ph,
                            pattern: phase.pattern.name(),
                            offered_load: phase.offered_load,
                            start_cycle: span.0,
                            end_cycle: span.1,
                        },
                        &scoped.per_phase[j][ph],
                        job.size(),
                        span_overlap(span, window),
                    )
                })
                .collect();
            job_report(
                job.name().to_string(),
                &scoped.per_job[j],
                job.size(),
                stats.window_cycles(),
                None,
                phases,
            )
        })
        .collect();
    WorkloadReport { aggregate, jobs }
}

/// Run the installed jobs to completion (or `horizon` cycles, whichever comes
/// first) and report per-job statistics and lifecycles.
///
/// Churn runs have no steady state, so the whole run is the measurement
/// window: measurement starts at cycle 0 and ends when every trace job has
/// completed and the network has drained, or at `horizon`.  After the window
/// closes, generation and admission halt and the simulation drains for up to
/// `drain` extra cycles so in-flight latency samples are not truncated.
///
/// In the report, each job carries a single phase spanning its residency
/// (placement to completion) — loads are normalized by that span — plus a
/// [`JobLifecycleReport`] with its wait time, completion cycle and slowdown.
///
/// # Panics
///
/// Panics without installed jobs, or if the simulation has already stepped
/// (the jobs' cycles are absolute, from 0).
pub fn run_trace<H: EngineHost>(host: &mut H, horizon: u64, drain: u64) -> WorkloadReport {
    let net = host.replica();
    assert!(net.jobs().is_some(), "run_trace requires installed jobs");
    assert_eq!(net.cycle, 0, "run_trace requires a fresh simulation");

    let end = host.drive(|engine| {
        engine.control(Control::BeginMeasurement);
        engine.control(Control::Tag(true));
        let mut status = engine.status();
        while status.cycle < horizon && !status.deadlocked {
            engine.step();
            status = engine.status();
            if status.jobs_complete && status.drained {
                break;
            }
        }
        let end = status.cycle;
        engine.control(Control::EndMeasurement);
        engine.control(Control::Tag(false));

        // Halt generation and the lifecycle, then let in-flight packets finish.
        engine.control(Control::Halt);
        for _ in 0..drain {
            let status = engine.status();
            if status.drained || status.deadlocked {
                break;
            }
            engine.step();
        }
        end
    });

    let net = host.replica();
    let stats = host.stats();
    let nodes = net.params().num_nodes();
    let packet_size = net.config.packet_size;
    let runtime = net.jobs().unwrap();
    let aggregate = sim_report(
        &stats,
        SimRunIdentity {
            routing: net.routing_name().to_string(),
            traffic: net.traffic_name(),
            offered_load: runtime.nominal_offered_load(nodes),
            nodes,
            warmup_cycles: 0,
            measure_cycles: end,
            deadlock_detected: net.deadlock_detected,
        },
    );
    let scoped = stats
        .scoped
        .as_ref()
        .expect("scoped statistics are enabled when jobs are installed");

    let jobs = (0..runtime.num_jobs() as u16)
        .map(|j| {
            let job = runtime.job(j);
            let lifetime = job.lifetime();
            // Residency span: placement to completion, clamped to the window.
            let start = lifetime.placed.unwrap_or(end);
            let stop = lifetime.completed.unwrap_or(end);
            let resident = span_overlap((start, stop), (0, end));
            let slowdown = match (lifetime.wait_cycles(), lifetime.service_cycles()) {
                (Some(wait), Some(service)) => {
                    let ideal = job.ideal_service_cycles(packet_size);
                    Some((wait + service) as f64 / ideal.max(1) as f64)
                }
                _ => None,
            };
            let only = job.phases()[0];
            let phase = phase_report(
                PhaseIdentity {
                    job: job.name().to_string(),
                    phase: 0,
                    pattern: only.pattern.name(),
                    offered_load: only.offered_load,
                    start_cycle: start,
                    end_cycle: stop,
                },
                &scoped.per_phase[j as usize][0],
                job.size(),
                resident,
            );
            job_report(
                job.name().to_string(),
                &scoped.per_job[j as usize],
                job.size(),
                resident,
                Some(JobLifecycleReport {
                    arrival_cycle: lifetime.arrival,
                    placed_cycle: lifetime.placed,
                    completion_cycle: lifetime.completed,
                    wait_cycles: lifetime.wait_cycles(),
                    slowdown,
                }),
                vec![phase],
            )
        })
        .collect();
    WorkloadReport { aggregate, jobs }
}

/// Run the paper's burst-consumption protocol: every node sends
/// `burst.packets_per_node()` packets following the traffic pattern, and the
/// simulation runs until all of them are delivered (or `max_cycles` is reached).
///
/// # Panics
///
/// Panics when the burst's packet size differs from the configured one, or
/// with jobs installed that arrive later or depart (a burst is drawn against
/// the jobs resident when it is preloaded).
pub fn run_batch<H: EngineHost>(host: &mut H, burst: BurstSpec, max_cycles: u64) -> BatchReport {
    let net = host.replica();
    assert_eq!(
        burst.packet_size(),
        net.config.packet_size,
        "burst packet size must match the configured packet size"
    );
    assert!(
        net.jobs().is_none_or(Schedule::is_static),
        "burst runs do not support dynamic schedules"
    );

    let (total, consumption, drained) = host.drive(|engine| {
        // Burst mode preloads every packet at once: stop generation but keep
        // any jobs' destinations, so the burst drains against them.
        engine.control(Control::Halt);
        engine.control(Control::BeginMeasurement);
        engine.control(Control::Burst(burst.packets_per_node()));
        let start = engine.status();
        let mut status = start;
        while !status.drained && status.cycle - start.cycle < max_cycles && !status.deadlocked {
            engine.step();
            status = engine.status();
        }
        engine.control(Control::EndMeasurement);
        (start.generated, status.cycle - start.cycle, status.drained)
    });

    let net = host.replica();
    let stats = host.stats();
    BatchReport {
        routing: net.routing_name().to_string(),
        traffic: net.traffic_name(),
        packets_per_node: burst.packets_per_node(),
        packets_total: total,
        packets_delivered: stats.total_delivered,
        consumption_cycles: consumption,
        avg_latency_cycles: stats.latency.mean(),
        timed_out: !drained && !net.deadlock_detected,
        deadlock_detected: net.deadlock_detected,
    }
}

/// Cycles of the half-open span `a` that fall inside the half-open span `b`.
fn span_overlap(a: (u64, u64), b: (u64, u64)) -> u64 {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// Everything in a [`SimReport`] that is not derived from the run's
/// [`StatsCollector`] — names, parameters and the watchdog verdict.
pub struct SimRunIdentity {
    /// Routing mechanism display name.
    pub routing: String,
    /// Traffic pattern display name.
    pub traffic: String,
    /// Offered load requested, in phits/(node·cycle).
    pub offered_load: f64,
    /// Number of terminal nodes (load normalization).
    pub nodes: usize,
    /// Warm-up cycles simulated before measurement.
    pub warmup_cycles: u64,
    /// Measured cycles.
    pub measure_cycles: u64,
    /// Whether the deadlock watchdog fired.
    pub deadlock_detected: bool,
}

/// Build a [`SimReport`] from an accumulated collector (the run-wide one; a
/// sharded run feeds the merged per-shard collectors).
pub fn sim_report(stats: &StatsCollector, id: SimRunIdentity) -> SimReport {
    let cycles = stats.window_cycles();
    SimReport {
        routing: id.routing,
        traffic: id.traffic,
        offered_load: id.offered_load,
        injected_load: phits_per_node_cycle(stats.window_phits_injected, id.nodes, cycles),
        accepted_load: phits_per_node_cycle(stats.window_phits_delivered, id.nodes, cycles),
        avg_latency_cycles: stats.latency.mean(),
        p99_latency_cycles: stats.latency_hist.percentile(0.99).unwrap_or(0.0),
        max_latency_cycles: stats.latency.max().unwrap_or(0.0),
        avg_hops: stats.hops.mean(),
        global_misroute_fraction: stats.global_misroute_fraction(),
        local_misroute_fraction: stats.local_misroute_fraction(),
        packets_delivered: stats.window_packets_delivered,
        packets_measured: stats.measured_delivered,
        warmup_cycles: id.warmup_cycles,
        measure_cycles: id.measure_cycles,
        deadlock_detected: id.deadlock_detected,
        peak_in_flight_packets: stats.peak_in_flight_packets,
        peak_buffered_phits: stats.peak_buffered_phits,
        peak_vc_occupancy: stats.peak_vc_occupancy,
    }
}

/// Identity of one phase row — everything in a [`PhaseReport`] that is not
/// derived from its scope's [`StatsCollector`].
struct PhaseIdentity {
    job: String,
    phase: usize,
    pattern: String,
    offered_load: f64,
    /// First cycle of the phase (absolute).
    start_cycle: u64,
    /// One past the last cycle of the phase (absolute; `u64::MAX` = open).
    end_cycle: u64,
}

/// Build a [`PhaseReport`] from a phase's scope: loads normalized over
/// `nodes × cycles`, plus the latency/hops/misroute/packet fields.
fn phase_report(id: PhaseIdentity, s: &StatsCollector, nodes: usize, cycles: u64) -> PhaseReport {
    PhaseReport {
        job: id.job,
        phase: id.phase,
        pattern: id.pattern,
        offered_load: id.offered_load,
        start_cycle: id.start_cycle,
        end_cycle: id.end_cycle,
        measured_cycles: cycles,
        injected_load: phits_per_node_cycle(s.window_phits_injected, nodes, cycles),
        accepted_load: phits_per_node_cycle(s.window_phits_delivered, nodes, cycles),
        avg_latency_cycles: s.latency.mean(),
        p99_latency_cycles: s.latency_hist.percentile(0.99).unwrap_or(0.0),
        max_latency_cycles: s.latency.max().unwrap_or(0.0),
        avg_hops: s.hops.mean(),
        global_misroute_fraction: s.global_misroute_fraction(),
        local_misroute_fraction: s.local_misroute_fraction(),
        packets_generated: s.total_generated,
        packets_delivered: s.total_delivered,
        packets_measured: s.measured_delivered,
    }
}

/// The job-level sibling of [`phase_report`].
fn job_report(
    name: String,
    s: &StatsCollector,
    nodes: usize,
    cycles: u64,
    lifecycle: Option<JobLifecycleReport>,
    phases: Vec<PhaseReport>,
) -> JobReport {
    JobReport {
        name,
        nodes,
        injected_load: phits_per_node_cycle(s.window_phits_injected, nodes, cycles),
        accepted_load: phits_per_node_cycle(s.window_phits_delivered, nodes, cycles),
        avg_latency_cycles: s.latency.mean(),
        p99_latency_cycles: s.latency_hist.percentile(0.99).unwrap_or(0.0),
        max_latency_cycles: s.latency.max().unwrap_or(0.0),
        avg_hops: s.hops.mean(),
        global_misroute_fraction: s.global_misroute_fraction(),
        local_misroute_fraction: s.local_misroute_fraction(),
        packets_generated: s.total_generated,
        packets_delivered: s.total_delivered,
        packets_measured: s.measured_delivered,
        lifecycle,
        phases,
    }
}
