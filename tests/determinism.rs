//! Reproducibility tests: identical seeds give bit-identical results, different seeds
//! give statistically consistent but distinct runs, and parallel execution does not
//! change anything (each simulation owns its RNG).

use dragonfly::core::{ExperimentSpec, RoutingKind, SweepRunner, TrafficKind};

fn spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.3;
    spec.warmup = 1_000;
    spec.measure = 1_500;
    spec.drain = 1_500;
    spec.seed = seed;
    spec
}

#[test]
fn same_seed_is_bit_identical() {
    let a = spec(7).run();
    let b = spec(7).run();
    assert_eq!(a.packets_delivered, b.packets_delivered);
    assert_eq!(a.packets_measured, b.packets_measured);
    assert_eq!(a.accepted_load.to_bits(), b.accepted_load.to_bits());
    assert_eq!(
        a.avg_latency_cycles.to_bits(),
        b.avg_latency_cycles.to_bits()
    );
    assert_eq!(a.avg_hops.to_bits(), b.avg_hops.to_bits());
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let a = spec(1).run();
    let b = spec(2).run();
    // Different random streams: the exact packet counts differ...
    assert_ne!(
        (a.packets_delivered, a.avg_latency_cycles.to_bits()),
        (b.packets_delivered, b.avg_latency_cycles.to_bits())
    );
    // ...but the physics agrees: throughput within 15% of each other.
    let ratio = a.accepted_load / b.accepted_load;
    assert!((0.85..1.18).contains(&ratio), "throughput ratio {ratio}");
}

#[test]
fn parallel_execution_matches_sequential() {
    let specs = vec![spec(11), spec(12), spec(13)];
    let sequential: Vec<_> = specs.iter().map(|s| s.run()).collect();
    let parallel = SweepRunner::new("determinism")
        .quiet()
        .jobs(Some(3))
        .run_steady(&specs);
    for (s, p) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(s.packets_delivered, p.packets_delivered);
        assert_eq!(s.accepted_load.to_bits(), p.accepted_load.to_bits());
        assert_eq!(
            s.avg_latency_cycles.to_bits(),
            p.avg_latency_cycles.to_bits()
        );
    }
}

/// The deadlock watchdog's verdict is pinned.  A packet crossing a global
/// link is silent for the link's full latency — its phits sit in the pipeline
/// and nothing "moves" — but a phit or credit on a link *is* progress, so a
/// threshold far below that latency stays quiet and the packet is delivered.
/// A true stall (a packet whose router has no downstream credit on the output
/// it needs) still fires, at exactly `last_activity + threshold + 1`, on the sequential
/// engine and on two shards alike.  The in-flight counts behind the idle
/// checks are packed-metadata reads, asserted here through the public
/// accessors.
#[test]
fn watchdog_verdict_is_pinned() {
    use dragonfly::core::{ShardPlan, ShardedSimulation};
    use dragonfly::routing::MinimalRouting;
    use dragonfly::sim::{
        Engine, EngineHost, LinkEnd, Network, RoutingAlgorithm, SimConfig, Simulation,
    };
    use dragonfly::topology::{NodeId, Port, PortKind};
    use dragonfly::traffic::Uniform;

    const THRESHOLD: u64 = 40;
    let config = |threshold: u64| {
        let mut config = SimConfig::paper_vct(2).with_seed(5);
        config.deadlock_threshold = threshold;
        config
    };
    // One packet from node 0 to the last node: its route crosses a global
    // link (latency ≫ the tiny threshold).
    fn enqueue_one<R: RoutingAlgorithm>(net: &mut Network<R>) {
        let dst = NodeId((net.params().num_nodes() - 1) as u32);
        net.enqueue(NodeId(0), dst, false);
    }
    // Step until the watchdog fires; the cycle it fired in, if it did.
    fn firing_cycle<H: EngineHost>(host: &mut H) -> Option<u64> {
        host.drive(|engine| {
            let mut status = engine.status();
            while status.cycle < 2_000 && !status.deadlocked {
                engine.step();
                status = engine.status();
            }
            status.deadlocked.then(|| status.cycle - 1)
        })
    }

    // The silence of a long link is not a stall, whatever the threshold.
    for threshold in [50_000, THRESHOLD] {
        let mut sim = Simulation::with_routing(
            config(threshold),
            MinimalRouting::new(),
            Box::new(Uniform::new()),
        );
        enqueue_one(sim.network_mut());
        assert_eq!(firing_cycle(&mut sim), None, "threshold {threshold} fired");
        assert!(sim.network().is_drained(), "threshold {threshold}");
        assert_eq!(sim.network().stats.total_delivered, 1);
    }

    // A true stall: the packet's first hop is a local link (group 0 reaches the
    // last group through another of its routers) and no local or terminal
    // output VC of its router has a credit, so it is never granted.  Its eight
    // phits enter the injection buffer in cycles 0..=7 — the last activity —
    // and then nothing is due anywhere.  (Global outputs keep their credits:
    // the piggybacking board is an event-driven copy of them, which a hand
    // edit would desynchronise.)
    fn starve_router_0<R: RoutingAlgorithm>(net: &mut Network<R>) {
        let h = net.params().h();
        for (flat, output) in net.routers[0].outputs.iter_mut().enumerate() {
            if Port::from_flat(flat, h).kind() != PortKind::Global {
                for vc in &mut output.vcs {
                    vc.credits = 0;
                }
            }
        }
    }
    let pinned = Some(7 + THRESHOLD + 1);
    let mut sequential = Simulation::with_routing(
        config(THRESHOLD),
        MinimalRouting::new(),
        Box::new(Uniform::new()),
    );
    starve_router_0(sequential.network_mut());
    enqueue_one(sequential.network_mut());
    assert_eq!(firing_cycle(&mut sequential), pinned);
    let mut sharded = ShardedSimulation::new(
        config(THRESHOLD),
        ShardPlan::new(2),
        MinimalRouting::new(),
        || Box::new(Uniform::new()),
    );
    starve_router_0(sharded.network_mut(0));
    enqueue_one(sharded.network_mut(0));
    assert_eq!(firing_cycle(&mut sharded), pinned);

    // The in-flight accounting behind the idle checks is O(1) metadata: a
    // fresh network reports empty pipelines on every link without touching
    // the pools, and the terminal link of a loaded router reports its phits.
    let mut sim = Simulation::with_routing(
        config(50_000),
        MinimalRouting::new(),
        Box::new(Uniform::new()),
    );
    let net = sim.network_mut();
    for li in 0..net.num_links() {
        assert_eq!(net.link_phits_in_flight(li), 0);
        assert_eq!(net.link_credits_in_flight(li), 0);
    }
    enqueue_one(net);
    for _ in 0..40 {
        sim.step();
    }
    let net = sim.network();
    let in_flight: usize = (0..net.num_links())
        .map(|li| net.link_phits_in_flight(li))
        .sum();
    assert!(in_flight > 0, "after 40 cycles some phit must be on a link");
    for li in 0..net.num_links() {
        if net.link_phits_in_flight(li) > 0 {
            assert!(
                matches!(net.link_end(li), LinkEnd::Router { .. }),
                "the packet's phits are crossing router-to-router links"
            );
        }
    }
}

/// The arena's reservation is a pure capacity hint: the engine's arena
/// (reserved at the bound the buffers set), a cold one (grows from empty)
/// and a tiny one that is outgrown mid-run must all produce byte-identical
/// reports.  A slot's first use is a push and only freed slots are reused,
/// so ids come out in the same order whatever was reserved.
#[test]
fn arena_reservation_never_changes_results() {
    use dragonfly::routing::Olm;
    use dragonfly::sim::{PacketArena, SimConfig, Simulation};
    use dragonfly::traffic::Uniform;

    let run = |arena: Option<PacketArena>| {
        let config = SimConfig::paper_vct(2).with_seed(31);
        let mut sim = Simulation::with_routing(config, Olm::default(), Box::new(Uniform::new()));
        if let Some(arena) = arena {
            sim.network_mut().packets = arena;
        }
        let report = sim.run_steady_state(0.3, 800, 1_200, 1_200);
        (report, sim.network().arena_grows())
    };

    let (reserved, reserved_grows) = run(None);
    let (cold, cold_grows) = run(Some(PacketArena::new()));
    let (tiny, tiny_grows) = run(Some(PacketArena::with_capacity(16)));

    assert!(
        cold_grows > 16,
        "cold arena must grow for this test to bite"
    );
    assert!(
        tiny_grows > 0 && tiny_grows < cold_grows,
        "tiny reservation must be outgrown mid-run (grew {tiny_grows})"
    );
    assert_eq!(
        reserved_grows, 0,
        "the arena is reserved at the bound the buffers set"
    );
    assert_eq!(cold, tiny, "cold and outgrown arenas diverged");
    assert_eq!(cold, reserved, "cold and reserved arenas diverged");
}

/// `step()` and `step_with_phase_hook` are one body with two hooks: twin
/// engines, one driven through each, stay in lockstep under steady load and
/// while draining a preloaded burst, for every mechanism and both flow
/// controls — and the hook sees the six boundaries exactly once per cycle, in
/// pipeline order.
#[test]
fn hooked_step_is_the_plain_step() {
    use dragonfly::core::{AdaptiveParams, FlowControlKind};

    for kind in RoutingKind::ALL {
        for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
            if fc == FlowControlKind::Wormhole && !kind.supports_wormhole() {
                continue;
            }
            for burst in [false, true] {
                let mut spec = spec(23);
                spec.routing = kind;
                spec.flow_control = fc;
                kind.dispatch(AdaptiveParams::default(), Lockstep { spec, burst });
            }
        }
    }
}

/// One case of [`hooked_step_is_the_plain_step`], on the spec's mechanism.
struct Lockstep {
    spec: ExperimentSpec,
    burst: bool,
}

impl dragonfly::routing::RoutingVisitor for Lockstep {
    type Output = ();

    fn visit<R: dragonfly::sim::RoutingAlgorithm + Clone + 'static>(self, routing: R) {
        use dragonfly::sim::{sim_report, Control, Engine, SimRunIdentity, Simulation};
        use dragonfly::traffic::BernoulliInjection;

        const CYCLES: u64 = 1_200;
        const BOUNDARIES: [&str; 6] = [
            "arrivals",
            "injection",
            "routing",
            "switch",
            "bookkeeping",
            "done",
        ];
        const LOAD: f64 = 0.3;

        let (spec, burst) = (&self.spec, self.burst);
        let fc = spec.flow_control;
        let case = format!("{} / {} / burst {burst}", spec.routing.name(), fc.name());
        let build = || {
            let config = spec.sim_config();
            let traffic = spec.traffic.build(&config.params);
            let mut sim = Simulation::with_routing(config, routing.clone(), traffic);
            let net = sim.network_mut();
            net.control(Control::BeginMeasurement);
            net.control(Control::Tag(true));
            if burst {
                net.preload_burst(4);
            } else {
                net.set_injection(Some(BernoulliInjection::new(LOAD, fc.packet_size())));
            }
            sim
        };
        let (mut plain, mut hooked) = (build(), build());
        let mut seen: Vec<&'static str> = Vec::with_capacity(BOUNDARIES.len());
        for _ in 0..CYCLES {
            plain.network_mut().step();
            seen.clear();
            hooked
                .network_mut()
                .step_with_phase_hook(&mut |boundary| seen.push(boundary));
            assert_eq!(seen, BOUNDARIES, "{case}");
        }
        let finish = |sim: &mut Simulation<R>| {
            let net = sim.network_mut();
            net.control(Control::EndMeasurement);
            let report = sim_report(
                &net.stats,
                SimRunIdentity {
                    routing: net.routing_name().to_string(),
                    traffic: net.traffic_name(),
                    offered_load: LOAD,
                    nodes: net.params().num_nodes(),
                    warmup_cycles: 0,
                    measure_cycles: CYCLES,
                    deadlock_detected: net.deadlock_detected,
                },
            );
            (
                net.cycle,
                net.stats.total_generated,
                net.stats.total_delivered,
                report,
            )
        };
        let (plain, hooked) = (finish(&mut plain), finish(&mut hooked));
        assert_eq!(plain.0, CYCLES, "{case}");
        assert!(plain.2 > 0, "{case}: nothing was delivered");
        assert_eq!(plain, hooked, "{case}");
    }
}
