//! The run protocols re-driven from outside the engine, one hooked cycle at a
//! time, so that every pipeline phase can be timed without touching the
//! simulator.
//!
//! [`steady_hooked`] and [`batch_hooked`] are line-for-line transcriptions of
//! `Simulation::run_steady_state` / `run_batch` over the public
//! `network_mut()` surface, with `Network::step_with_phase_hook` in place of
//! `step`.  The tests below (and check 2 of every benchmark run) pin them to
//! the built-in protocols byte for byte.

use crate::surface::{
    sim_report, BatchReport, BernoulliInjection, BurstSpec, ExperimentSpec, RoutingAlgorithm,
    SimReport, SimRunIdentity, Simulation,
};
use std::time::Instant;

/// The engine's five pipeline phases, in pipeline order.
pub const PHASES: [&str; 5] = ["arrivals", "injection", "routing", "switch", "bookkeeping"];
/// Slot of the time spent between cycles: the protocol loop itself and the
/// engine's per-cycle lifecycle hooks, which run before the first phase hook.
const BETWEEN_CYCLES: usize = 5;

/// One protocol stage (`warmup`, `measure`, `drain`, `preload`) of a traced run.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage name.
    pub name: &'static str,
    /// Start and end, in nanoseconds since the clock's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated cycles stepped inside the stage.
    pub cycles: u64,
    /// Host nanoseconds per phase ([`PHASES`] order, then [`BETWEEN_CYCLES`]).
    pub phase_ns: [u64; 6],
}

/// Laps `Instant`s at every phase boundary and files them under the open stage.
pub struct StageClock {
    epoch: Instant,
    last: Instant,
    slot: usize,
    open: bool,
    /// Closed stages, then the open one.
    pub stages: Vec<Stage>,
}

impl StageClock {
    /// A clock whose span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            last: epoch,
            slot: BETWEEN_CYCLES,
            open: false,
            stages: Vec::new(),
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Close the open stage (if any) and open `name`.
    pub fn begin(&mut self, name: &'static str) {
        let now = Instant::now();
        self.close(now);
        let at = self.since_epoch(now);
        self.stages.push(Stage {
            name,
            start_ns: at,
            end_ns: at,
            cycles: 0,
            phase_ns: [0; 6],
        });
        self.last = now;
        self.slot = BETWEEN_CYCLES;
        self.open = true;
    }

    /// Close the open stage.
    pub fn finish(&mut self) {
        self.close(Instant::now());
    }

    fn close(&mut self, now: Instant) {
        if !self.open {
            return;
        }
        self.open = false;
        let at = self.since_epoch(now);
        let lap = now.duration_since(self.last).as_nanos() as u64;
        let stage = self.stages.last_mut().expect("an open stage exists");
        stage.phase_ns[self.slot] += lap;
        stage.end_ns = at;
    }

    /// The phase hook: the time since the previous boundary belongs to the
    /// phase that boundary announced.
    #[inline]
    fn lap(&mut self, boundary: &'static str) {
        let now = Instant::now();
        let stage = self.stages.last_mut().expect("a stage is open");
        stage.phase_ns[self.slot] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        self.slot = match boundary {
            "arrivals" => 0,
            "injection" => 1,
            "routing" => 2,
            "switch" => 3,
            "bookkeeping" => 4,
            _ => {
                stage.cycles += 1;
                BETWEEN_CYCLES
            }
        };
    }

    /// Host nanoseconds per phase summed over all stages, and the cycles stepped.
    pub fn totals(&self) -> ([u64; 6], u64) {
        let mut ns = [0u64; 6];
        let mut cycles = 0;
        for stage in &self.stages {
            for (total, part) in ns.iter_mut().zip(stage.phase_ns) {
                *total += part;
            }
            cycles += stage.cycles;
        }
        (ns, cycles)
    }
}

fn step_hooked<R: RoutingAlgorithm>(sim: &mut Simulation<R>, clock: &mut StageClock) {
    sim.network_mut()
        .step_with_phase_hook(&mut |boundary| clock.lap(boundary));
}

/// `Simulation::run_steady_state`, hook-driven.
pub fn steady_hooked<R: RoutingAlgorithm>(
    sim: &mut Simulation<R>,
    spec: &ExperimentSpec,
    clock: &mut StageClock,
) -> SimReport {
    let (load, warmup, measure, drain) = (spec.offered_load, spec.warmup, spec.measure, spec.drain);
    let packet_size = sim.network().config.packet_size;
    let nodes = sim.network().params().num_nodes();
    sim.network_mut()
        .set_injection(Some(BernoulliInjection::new(load, packet_size)));

    clock.begin("warmup");
    sim.network_mut().tag_measured = false;
    for _ in 0..warmup {
        step_hooked(sim, clock);
    }

    clock.begin("measure");
    let net = sim.network_mut();
    let start = net.cycle;
    net.stats.begin_measurement(start);
    net.tag_measured = true;
    for _ in 0..measure {
        step_hooked(sim, clock);
    }
    let net = sim.network_mut();
    let end = net.cycle;
    net.stats.end_measurement(end);
    net.tag_measured = false;

    clock.begin("drain");
    let measured_goal = sim.network().stats.total_generated;
    let mut drained = 0;
    while drained < drain
        && sim.network().stats.total_delivered < measured_goal
        && !sim.network().deadlock_detected
    {
        step_hooked(sim, clock);
        drained += 1;
    }
    clock.finish();

    let net = sim.network();
    sim_report(
        &net.stats,
        SimRunIdentity {
            routing: net.routing_name().to_string(),
            traffic: net.traffic_name(),
            offered_load: load,
            nodes,
            warmup_cycles: warmup,
            measure_cycles: measure,
            deadlock_detected: net.deadlock_detected,
        },
    )
}

/// `Simulation::run_batch`, hook-driven.
pub fn batch_hooked<R: RoutingAlgorithm>(
    sim: &mut Simulation<R>,
    burst: BurstSpec,
    max_cycles: u64,
    clock: &mut StageClock,
) -> BatchReport {
    clock.begin("preload");
    let net = sim.network_mut();
    net.set_injection(None);
    let start = net.cycle;
    net.stats.begin_measurement(start);
    net.preload_burst(burst.packets_per_node());
    let total = net.stats.total_generated;

    clock.begin("drain");
    while !sim.network().is_drained()
        && sim.network().cycle - start < max_cycles
        && !sim.network().deadlock_detected
    {
        step_hooked(sim, clock);
    }
    clock.finish();

    let net = sim.network_mut();
    let consumption = net.cycle - start;
    let now = net.cycle;
    net.stats.end_measurement(now);
    BatchReport {
        routing: net.routing_name().to_string(),
        traffic: net.traffic_name(),
        packets_per_node: burst.packets_per_node(),
        packets_total: total,
        packets_delivered: net.stats.total_delivered,
        consumption_cycles: consumption,
        avg_latency_cycles: net.stats.latency.mean(),
        timed_out: !net.is_drained() && !net.deadlock_detected,
        deadlock_detected: net.deadlock_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{
        adaptive_params, build_engine, FlowControlKind, RoutingKind, RoutingVisitor, TrafficKind,
    };

    /// Runs one spec through the built-in and the hook-driven protocol and
    /// returns both report rows, the hooked run's clock and its final cycle.
    struct Both<'a> {
        spec: &'a ExperimentSpec,
        burst: Option<u64>,
    }

    impl RoutingVisitor for Both<'_> {
        type Output = (String, String, StageClock, u64);

        fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Self::Output {
            let spec = self.spec;
            let mut builtin = build_engine(spec, routing.clone());
            let mut hooked = build_engine(spec, routing);
            let mut clock = StageClock::new(Instant::now());
            let rows = match self.burst {
                None => (
                    builtin
                        .run_steady_state(spec.offered_load, spec.warmup, spec.measure, spec.drain)
                        .csv_row(),
                    steady_hooked(&mut hooked, spec, &mut clock).csv_row(),
                ),
                Some(packets) => {
                    let burst = BurstSpec::new(packets, spec.flow_control.packet_size());
                    (
                        builtin.run_batch(burst, 200_000).csv_row(),
                        batch_hooked(&mut hooked, burst, 200_000, &mut clock).csv_row(),
                    )
                }
            };
            assert_eq!(builtin.network().cycle, hooked.network().cycle);
            (rows.0, rows.1, clock, hooked.network().cycle)
        }
    }

    fn spec_for(kind: RoutingKind, fc: FlowControlKind) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = kind;
        spec.flow_control = fc;
        spec.traffic = TrafficKind::AdversarialGlobal(1);
        spec.offered_load = 0.3;
        spec.warmup = 200;
        spec.measure = 400;
        spec.drain = 600;
        spec.seed = 29;
        spec
    }

    #[test]
    fn hooked_protocols_reproduce_the_builtin_ones_byte_for_byte() {
        let mut compared = 0;
        for kind in RoutingKind::ALL {
            for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
                if fc == FlowControlKind::Wormhole && !kind.supports_wormhole() {
                    continue;
                }
                let spec = spec_for(kind, fc);
                for burst in [None, Some(4)] {
                    let (builtin, hooked, clock, cycles) =
                        kind.dispatch(adaptive_params(&spec), Both { spec: &spec, burst });
                    assert_eq!(builtin, hooked, "{} {:?} {burst:?}", kind.name(), fc);
                    assert_eq!(clock.totals().1, cycles);
                    compared += 1;
                }
            }
        }
        // Seven mechanisms under VCT, six under wormhole, two protocols each.
        assert_eq!(compared, 26);
    }

    #[test]
    fn clock_files_every_lap_under_a_phase_and_counts_cycles() {
        let spec = spec_for(RoutingKind::Minimal, FlowControlKind::Vct);
        let both = Both {
            spec: &spec,
            burst: None,
        };
        let (_, _, clock, final_cycle) = spec.routing.dispatch(adaptive_params(&spec), both);
        let names: Vec<_> = clock.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, ["warmup", "measure", "drain"]);
        assert_eq!(clock.stages[0].cycles, 200);
        assert_eq!(clock.stages[1].cycles, 400);
        let (ns, cycles) = clock.totals();
        assert_eq!(cycles, final_cycle);
        // Laps tile each stage exactly: their sum is the stage's wall time.
        for stage in &clock.stages {
            let sum: u64 = stage.phase_ns.iter().sum();
            assert_eq!(sum, stage.end_ns - stage.start_ns, "{}", stage.name);
        }
        assert!(ns[..5].iter().all(|&n| n > 0));
    }
}
