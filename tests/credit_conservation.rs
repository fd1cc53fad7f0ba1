//! Three laws, checked every cycle against the engine's own state: credit
//! conservation, the arena bound and packet conservation.
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
//! The arena bound: the live packets never exceed what the buffers can hold
//! (`Network::check_arena_bound`), and the arena, reserved at that bound,
//! never pushes a slot beyond it (`Network::arena_grows` stays 0).  Packet
//! conservation: every packet generated is delivered, live in an arena, or
//! queued at its source without a slot (the terms are on `Checked::check`).
//! A slot never freed, or freed twice, breaks it at once.
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
use dragonfly::sim::{Control, Engine, EngineHost, Network, RoutingAlgorithm, Simulation};
use dragonfly::traffic::BernoulliInjection;

/// Cycles of injection at the offered load before generation stops.
const LOADED_CYCLES: u64 = 400;
const OFFERED_LOAD: f64 = 0.8;
/// Bound on the drain after generation stops.
const DRAIN_LIMIT: u64 = 20_000;

/// An engine whose network replicas are checked between cycles.
trait Checked: EngineHost {
    /// Check the three laws on every network replica and return the largest
    /// ratio of live packets to `Network::arena_bound` among them.
    ///
    /// Packet conservation, summed over the replicas (one sequential
    /// network, or every shard):
    ///
    /// Σ `stats.total_generated` = Σ `stats.total_delivered`
    /// + Σ `packets.live()` − Σ `exporting_packets()` + Σ `queued_packets()`.
    ///
    /// A replica generates for and delivers to the nodes it owns, so each
    /// packet is generated once and delivered once.  `queued_packets` counts
    /// the packets waiting at a source with no slot yet; a source's part-fed
    /// front packet holds a slot and is counted in `live`.  A packet whose
    /// head has crossed a boundary link is live in the receiving shard's
    /// arena from the head's import on, and still in the sending shard's
    /// until its tail leaves (both happen at the barrier of the cycle the
    /// phit is sent, so between cycles the sending copy is an input-VC head
    /// with phits sent towards a router the shard does not own):
    /// `exporting_packets` subtracts that second copy.  It is 0 on the
    /// sequential engine.
    fn check(&self) -> Result<f64, String>;
}

/// The per-replica laws: credits, the arena bound, no push beyond the
/// arena's reservation.  Returns live / bound.
fn check_replica<R: RoutingAlgorithm>(net: &Network<R>) -> Result<f64, String> {
    net.check_credit_conservation()?;
    net.check_arena_bound()?;
    if net.arena_grows() != 0 {
        return Err(format!(
            "the arena pushed {} slots beyond its reservation",
            net.arena_grows()
        ));
    }
    Ok(net.packets.live() as f64 / net.arena_bound() as f64)
}

/// Packet conservation over `nets`, the replicas of one run.
fn check_packets<'a, R: RoutingAlgorithm + 'a>(
    nets: impl Iterator<Item = &'a Network<R>>,
) -> Result<(), String> {
    let (mut generated, mut delivered, mut held, mut queued) = (0, 0, 0, 0);
    for net in nets {
        generated += net.stats.total_generated;
        delivered += net.stats.total_delivered;
        held += (net.packets.live() - net.exporting_packets()) as u64;
        queued += net.queued_packets() as u64;
    }
    if generated != delivered + held + queued {
        return Err(format!(
            "{generated} generated, but {delivered} delivered + {held} in the network + \
             {queued} queued = {}",
            delivered + held + queued
        ));
    }
    Ok(())
}

impl<R: RoutingAlgorithm> Checked for Simulation<R> {
    fn check(&self) -> Result<f64, String> {
        let ratio = check_replica(self.network())?;
        check_packets(std::iter::once(self.network()))?;
        Ok(ratio)
    }
}

impl<R: RoutingAlgorithm + Clone> Checked for ShardedSimulation<R> {
    fn check(&self) -> Result<f64, String> {
        let mut ratio = 0f64;
        for shard in 0..self.shards() {
            let net: &Network<R> = self.network(shard);
            ratio =
                ratio.max(check_replica(net).map_err(|broken| format!("shard {shard}: {broken}"))?);
        }
        check_packets((0..self.shards()).map(|shard| self.network(shard)))?;
        Ok(ratio)
    }
}

/// Load `host`, stop generation, drain it, checking after every cycle.
/// Returns the packets delivered and the largest live / bound ratio seen.
fn run_checked<H: Checked>(host: &mut H, case: &str) -> (u64, f64) {
    let mut ratio = 0f64;
    let mut check = |host: &H, at: u64| match host.check() {
        Ok(seen) => ratio = ratio.max(seen),
        Err(broken) => panic!("{case}, after cycle {at}: {broken}"),
    };
    let packet_size = host.replica().config.packet_size;
    host.drive(|engine| {
        engine.control(Control::Injection(Some(BernoulliInjection::new(
            OFFERED_LOAD,
            packet_size,
        ))))
    });
    for cycle in 0..LOADED_CYCLES + DRAIN_LIMIT {
        if cycle == LOADED_CYCLES {
            host.drive(|engine| engine.control(Control::Halt));
        }
        let (drained, delivered) = host.drive(|engine| {
            engine.step();
            let status = engine.status();
            assert!(!status.deadlocked, "{case}: watchdog fired");
            (status.drained, status.delivered)
        });
        check(host, cycle);
        if drained && cycle >= LOADED_CYCLES {
            return (delivered, ratio);
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
    type Output = (u64, f64);

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> (u64, f64) {
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
    let mut ratio = 0f64;
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
                let (moved, seen) =
                    routing.dispatch(AdaptiveParams::with_threshold(spec.threshold), case);
                assert!(moved > 0, "{name}: nothing delivered");
                delivered += moved;
                ratio = ratio.max(seen);
            }
        }
    }
    assert!(
        delivered > 10_000,
        "the matrix moved only {delivered} packets"
    );
    println!("largest live / arena bound: {ratio:.3}");
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
