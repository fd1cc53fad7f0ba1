//! The delay ledger's cardinal invariant: the six components of every
//! delivered packet's decomposition sum *exactly* to its end-to-end latency —
//! integer conservation with no residual bucket — across every routing
//! mechanism × flow control combination, under seeded random configurations,
//! and for a hand-built scenario whose component values are computed by hand
//! from the pipeline timing.

use dragonfly::core::{
    AdaptiveParams, ExperimentSpec, FlowControlKind, ProbeConfig, ProbeRecorder, RoutingKind,
    RunOptions, ShardPlan, ShardedSimulation, Steady, TrafficKind,
};
use dragonfly::probe::DelaySample;
use dragonfly::rng::Rng;
use dragonfly::routing::{MinimalRouting, Olm};
use dragonfly::sim::{protocol, EngineHost, Network, SimConfig, Simulation};
use dragonfly::topology::NodeId;
use dragonfly::traffic::Uniform;

fn delay_probes() -> ProbeConfig {
    ProbeConfig {
        delay: true,
        ..ProbeConfig::full(64)
    }
}

/// The recorder of a steady-state run of `spec` with the delay ledger on.
fn run_probed(spec: &ExperimentSpec, shards: Option<usize>) -> ProbeRecorder {
    let options = RunOptions {
        shards,
        probes: Some(delay_probes()),
    };
    let (_, probe) = spec.run_with(Steady, &options);
    *probe.expect("probes were requested")
}

/// Assert the ledger of a finished run upholds conservation and is
/// non-vacuous.
fn assert_conserves(probe: &ProbeRecorder, label: &str) -> u64 {
    let ledger = probe.delay_ledger().expect("delay ledger installed");
    assert!(ledger.folded() > 0, "{label}: no packets folded — vacuous");
    assert_eq!(
        ledger.violations(),
        0,
        "{label}: {} of {} packets violated component conservation",
        ledger.violations(),
        ledger.folded()
    );
    // The class split partitions the folded population.
    assert_eq!(
        ledger.minimal().packets + ledger.misrouted().packets,
        ledger.folded(),
        "{label}: class split does not partition the folded packets"
    );
    ledger.folded()
}

#[test]
fn components_conserve_across_mechanisms_and_flow_controls() {
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        for routing in RoutingKind::ALL {
            if fc == FlowControlKind::Wormhole && !routing.supports_wormhole() {
                continue;
            }
            let mut spec = ExperimentSpec::new(2);
            spec.routing = routing;
            spec.flow_control = fc;
            // ADVG+1 exercises misrouting on the adaptive mechanisms, so the
            // misrouted class and the detour component are both non-trivial.
            spec.traffic = TrafficKind::AdversarialGlobal(1);
            spec.offered_load = 0.25;
            spec.seed = 23;
            spec.warmup = 300;
            spec.measure = 600;
            spec.drain = 900;
            let label = format!("{routing:?}/{fc:?}");
            let probe = run_probed(&spec, None);
            assert_conserves(&probe, &label);
            let ledger = probe.delay_ledger().unwrap();
            if routing == RoutingKind::Minimal {
                // Minimal routing never leaves the minimal path: no packet
                // lands in the misrouted class and no cycle lands in detour.
                assert_eq!(
                    ledger.misrouted().packets,
                    0,
                    "{label}: minimal routing produced misrouted packets"
                );
                assert_eq!(
                    ledger.minimal().cycles[4],
                    0,
                    "{label}: minimal routing accrued detour cycles"
                );
            }
        }
    }
}

#[test]
fn components_conserve_under_seeded_random_configs() {
    // A seeded property sweep: random mechanism × flow control × load ×
    // traffic, deterministic across runs (the RNG is the repo's own).
    let mut rng = Rng::seed_from(0xD31A_7CAB);
    for case in 0..8u64 {
        let routing = RoutingKind::ALL[(rng.next_u64() % RoutingKind::ALL.len() as u64) as usize];
        let fc = if routing.supports_wormhole() && rng.next_u64().is_multiple_of(2) {
            FlowControlKind::Wormhole
        } else {
            FlowControlKind::Vct
        };
        let load = 0.1 + 0.15 * (rng.next_u64() % 5) as f64;
        let traffic = if rng.next_u64().is_multiple_of(2) {
            TrafficKind::Uniform
        } else {
            TrafficKind::AdversarialGlobal(1)
        };
        let mut spec = ExperimentSpec::new(2);
        spec.routing = routing;
        spec.flow_control = fc;
        spec.traffic = traffic.clone();
        spec.offered_load = load;
        spec.seed = rng.next_u64();
        spec.warmup = 200;
        spec.measure = 400;
        spec.drain = 600;
        let label = format!("case {case}: {routing:?}/{fc:?}/{traffic:?}@{load}");
        let probe = run_probed(&spec, None);
        assert_conserves(&probe, &label);
    }
}

#[test]
fn sharded_merge_preserves_conservation_and_totals() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.flow_control = FlowControlKind::Vct;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.25;
    spec.seed = 23;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    let sequential = run_probed(&spec, None);
    let folded = assert_conserves(&sequential, "sequential");
    for shards in [2usize, 4] {
        let merged = run_probed(&spec, Some(shards));
        let label = format!("{shards} shards");
        assert_eq!(assert_conserves(&merged, &label), folded);
        assert_eq!(
            merged.delay_ledger().unwrap().rows(),
            sequential.delay_ledger().unwrap().rows(),
            "{label}: merged delay rows diverged from the sequential run"
        );
    }
}

/// The delay table is indexed by arena slot and grows in step with the
/// arena.  With a 64-slot preallocation both grow mid-run, on the sequential
/// engine and on every shard; every component must still sum exactly to the
/// latency, and the rows merged from 2 and 4 shards — whose arenas grow at
/// different points, and whose boundary packets carry their ledgers across —
/// must equal the sequential ones.
#[test]
fn components_conserve_while_the_arena_grows() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.seed = 23;
    let config = spec.sim_config().with_arena_prealloc(64);
    let params = config.params;
    let routing = Olm::new(AdaptiveParams::with_threshold(spec.threshold));
    let traffic = || spec.traffic.build(&params);

    let mut sequential = Simulation::with_routing(config.clone(), routing, traffic());
    sequential.install_probes(delay_probes());
    protocol::run_steady_state(&mut sequential, 0.25, 300, 600, 900);
    assert!(
        sequential.network().arena_grows() > 0,
        "the arena never grew"
    );
    let sequential = *sequential.collect_probe().unwrap();
    let folded = assert_conserves(&sequential, "sequential, growing arena");

    for shards in [2usize, 4] {
        let mut sim =
            ShardedSimulation::new(config.clone(), ShardPlan::new(shards), routing, traffic);
        sim.install_probes(delay_probes());
        protocol::run_steady_state(&mut sim, 0.25, 300, 600, 900);
        let label = format!("{shards} shards, growing arenas");
        for s in 0..shards {
            assert!(
                sim.network(s).arena_grows() > 0,
                "{label}: shard {s} never grew"
            );
        }
        let merged = *sim.collect_probe().unwrap();
        assert_eq!(assert_conserves(&merged, &label), folded);
        assert_eq!(
            merged.delay_ledger().unwrap().rows(),
            sequential.delay_ledger().unwrap().rows(),
            "{label}: merged delay rows diverged from the sequential run"
        );
    }
}

/// One packet through an otherwise idle h=2 VCT network, with every component
/// computed by hand from the paper timing (local links 10 cycles, global 100,
/// ejection 1) and the five-phase pipeline order:
///
/// * the head enters the injection buffer in phase B of cycle 0, is granted in
///   phase C and crosses the switch in phase D of the same cycle — so the
///   injection-queue, VC-wait and credit-wait components are all 0,
/// * each downstream hop arrives in phase A and is granted/forwarded the same
///   cycle, so the waits stay 0 and every link's latency lands in
///   `link_transit` (minimal 3-hop path: 10 + 100 + 10, plus the 1-cycle
///   ejection link),
/// * the remaining 7 phits of the 8-phit packet follow the head on
///   consecutive cycles, so `serialization` is exactly 7,
/// * detour is identically 0 under minimal routing.
#[test]
fn hand_built_packet_decomposition_is_pinned() {
    let config = SimConfig::paper_vct(2).with_seed(7);
    let mut net = Network::with_routing(config, MinimalRouting::new(), Box::new(Uniform::new()));
    net.install_probes(delay_probes());
    let src = NodeId(0);
    let dst = NodeId((net.params().num_nodes() - 1) as u32);
    net.stats.begin_measurement(0);
    net.enqueue(src, dst, true);
    net.stats.record_generated(8, 0);
    net.run(1_000);
    assert!(net.is_drained(), "packet should be delivered");

    let probe = net.take_probe().unwrap();
    let ledger = probe.delay_ledger().expect("delay ledger installed");
    assert_eq!(ledger.folded(), 1);
    assert_eq!(ledger.violations(), 0);
    assert_eq!(ledger.misrouted().packets, 0);
    let minimal = ledger.minimal();
    assert_eq!(minimal.packets, 1);
    // [injection_queue, vc_wait, credit_wait, link_transit, detour,
    //  serialization] — see the doc comment for the arithmetic.
    assert_eq!(
        minimal.cycles,
        [0, 0, 0, 121, 0, 7],
        "hand-computed decomposition diverged"
    );
    // And conservation against the independently-recorded latency stat.
    let latency = net.stats.latency.mean();
    let total: u64 = minimal.cycles.iter().sum();
    assert_eq!(total as f64, latency, "components must sum to the latency");
}

/// Two packets from the two nodes of router 0, sent to the same destination
/// at cycle 0 through the otherwise idle network of
/// `hand_built_packet_decomposition_is_pinned`, so both request the same
/// output VC (local port, VC 0) in the same routing phase:
///
/// * both heads enter their injection buffers in phase B of cycle 0 (zero
///   injection queue).  Node 0's terminal port comes first in the rotated
///   port order, so its packet wins the grant of cycle 0 and crosses the
///   switch at once: waits 0, exactly as the single packet did;
/// * under VCT the winner owns the output VC from head to tail: its eighth
///   phit leaves in cycle 7, so node 1's packet is granted in cycle 8 and
///   books `vc_wait` = 8 − 0 = 8.  Its first phit crosses the switch in the
///   same cycle (the VC has 24 of its 32 credits left), so `credit_wait`
///   stays 0 — a grant stamp left behind would book 8 here instead;
/// * from then on it trails the winner by 8 cycles, one more than the
///   winner's 7-cycle serialization, so no later hop makes it wait: 121
///   cycles of link transit and 7 of serialization for each packet.
///
/// Summed over the two packets: `[0, 8, 0, 242, 0, 14]`, latencies 128 and
/// 136.
#[test]
fn contending_packets_decomposition_is_pinned() {
    let config = SimConfig::paper_vct(2).with_seed(7);
    let mut net = Network::with_routing(config, MinimalRouting::new(), Box::new(Uniform::new()));
    net.install_probes(delay_probes());
    let dst = NodeId((net.params().num_nodes() - 1) as u32);
    net.stats.begin_measurement(0);
    for src in [NodeId(0), NodeId(1)] {
        assert_eq!(net.params().router_of_node(src).index(), 0);
        net.enqueue(src, dst, true);
        net.stats.record_generated(8, 0);
    }
    net.run(1_000);
    assert!(net.is_drained(), "both packets should be delivered");

    let probe = net.take_probe().unwrap();
    let ledger = probe.delay_ledger().expect("delay ledger installed");
    assert_eq!(ledger.folded(), 2);
    assert_eq!(ledger.violations(), 0);
    assert_eq!(ledger.misrouted().packets, 0);
    let minimal = ledger.minimal();
    assert_eq!(minimal.packets, 2);
    // [injection_queue, vc_wait, credit_wait, link_transit, detour,
    //  serialization], summed over both packets — see the doc comment.
    assert_eq!(
        minimal.cycles,
        [0, 8, 0, 242, 0, 14],
        "hand-computed decomposition diverged"
    );
    assert_eq!(net.stats.measured_delivered, 2);
    let total: u64 = minimal.cycles.iter().sum();
    assert_eq!(total, 128 + 136);
    assert_eq!(
        total as f64,
        2.0 * net.stats.latency.mean(),
        "components must sum to the recorded latencies"
    );
}

#[test]
fn delay_sample_total_matches_component_sum() {
    let sample = DelaySample {
        components: [1, 2, 3, 4, 5, 6],
        misrouted: false,
        job: 0,
        phase: 0,
    };
    assert_eq!(sample.total(), 21);
}
