//! Credit conservation, checked every cycle against the engine's own state.
//!
//! For every output VC, at the close of every cycle:
//!
//! `credits` + phits of the VC on the forward link + the downstream input
//! VC's occupancy + credits of the VC on the return link =
//! `downstream_capacity`
//!
//! (ROADMAP item 3, "Conservation").  The law follows from the credit scheme
//! alone — a launch takes a credit, the credit returns only after the phit
//! has left the downstream buffer — so it is independent of the bookkeeping
//! it checks: the credit counters, the link rings and the input VCs are each
//! updated at a different phase, and `Network::check_credit_conservation`
//! reads them all from their slots.  A dropped or duplicated credit, a phit
//! lost or counted twice in a buffer, breaks it at the cycle it happens.
//!
//! The matrix: all seven mechanisms × VCT and wormhole (where the mechanism
//! supports it) × uniform and ADVG+1 traffic, loaded past saturation and
//! then drained to empty, on the sequential engine and on two shards (each
//! shard checks the links it owns at both ends; boundary links are exported
//! at the barrier).  Release builds only: CI runs
//! `cargo test --release --test credit_conservation`.

use dragonfly::core::{
    AdaptiveParams, ExperimentSpec, FlowControlKind, RoutingKind, ShardPlan, ShardedSimulation,
    TrafficKind,
};
use dragonfly::routing::RoutingVisitor;
use dragonfly::sim::{Engine, EngineHost, Network, RoutingAlgorithm, Simulation};
use dragonfly::traffic::BernoulliInjection;

/// Cycles of injection at the offered load before generation stops.
const LOADED_CYCLES: u64 = 400;
const OFFERED_LOAD: f64 = 0.8;
/// Bound on the drain after generation stops.
const DRAIN_LIMIT: u64 = 20_000;

/// An engine whose network replicas are checked between cycles.
trait Checked: EngineHost {
    fn check(&self) -> Result<(), String>;
}

impl<R: RoutingAlgorithm> Checked for Simulation<R> {
    fn check(&self) -> Result<(), String> {
        self.network().check_credit_conservation()
    }
}

impl<R: RoutingAlgorithm + Clone> Checked for ShardedSimulation<R> {
    fn check(&self) -> Result<(), String> {
        (0..self.shards()).try_for_each(|shard| {
            let net: &Network<R> = self.network(shard);
            net.check_credit_conservation()
                .map_err(|broken| format!("shard {shard}: {broken}"))
        })
    }
}

/// Load `host`, stop generation, drain it, checking after every cycle.
/// Returns the packets delivered.
fn run_checked<H: Checked>(host: &mut H, case: &str) -> u64 {
    let check = |host: &H, at: u64| {
        if let Err(broken) = host.check() {
            panic!("{case}, after cycle {at}: {broken}");
        }
    };
    let packet_size = host.replica().config.packet_size;
    host.drive(|engine| {
        engine.set_injection(Some(BernoulliInjection::new(OFFERED_LOAD, packet_size)))
    });
    for cycle in 0..LOADED_CYCLES + DRAIN_LIMIT {
        if cycle == LOADED_CYCLES {
            host.drive(|engine| engine.halt_generation());
        }
        let (drained, delivered) = host.drive(|engine| {
            engine.step();
            assert!(!engine.deadlocked(), "{case}: watchdog fired");
            (engine.drained(), engine.delivered())
        });
        check(host, cycle);
        if drained && cycle >= LOADED_CYCLES {
            return delivered;
        }
    }
    panic!("{case}: not drained {DRAIN_LIMIT} cycles after generation stopped");
}

struct Case<'a> {
    spec: &'a ExperimentSpec,
    shards: Option<usize>,
    name: &'a str,
}

impl RoutingVisitor for Case<'_> {
    type Output = u64;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> u64 {
        let config = self.spec.sim_config();
        let params = config.params;
        match self.shards {
            None => {
                let traffic = self.spec.traffic.build(&params);
                run_checked(
                    &mut Simulation::with_routing(config, routing, traffic),
                    self.name,
                )
            }
            Some(shards) => run_checked(
                &mut ShardedSimulation::new(config, ShardPlan::new(shards), routing, || {
                    self.spec.traffic.build(&params)
                }),
                self.name,
            ),
        }
    }
}

fn matrix(shards: Option<usize>) {
    let mut seed = 0xC4ED_u64;
    let mut delivered = 0;
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        let mechanisms = RoutingKind::ALL
            .into_iter()
            .filter(|r| fc == FlowControlKind::Vct || r.supports_wormhole());
        for routing in mechanisms {
            for traffic in [TrafficKind::Uniform, TrafficKind::AdversarialGlobal(1)] {
                seed += 1;
                let mut spec = ExperimentSpec::new(2);
                spec.routing = routing;
                spec.flow_control = fc;
                spec.traffic = traffic.clone();
                spec.seed = seed;
                let name = format!(
                    "{} {} {} shards={shards:?} seed={seed}",
                    routing.name(),
                    fc.name(),
                    traffic.name()
                );
                let case = Case {
                    spec: &spec,
                    shards,
                    name: &name,
                };
                let moved = routing.dispatch(AdaptiveParams::with_threshold(spec.threshold), case);
                assert!(moved > 0, "{name}: nothing delivered");
                delivered += moved;
            }
        }
    }
    assert!(
        delivered > 10_000,
        "the matrix moved only {delivered} packets"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn credits_are_conserved_every_cycle_sequential() {
    matrix(None);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn credits_are_conserved_every_cycle_on_two_shards() {
    matrix(Some(2));
}
