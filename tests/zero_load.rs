//! A lone packet's latency is a closed form: the zero-load oracle.
//!
//! Every ordered pair of distinct nodes of the h = 2 machine (72 nodes) sends
//! one packet through an otherwise idle network, under VCT with Minimal, PB,
//! PAR, PAR-6/2, RLM and OLM routing, and the packet's latency and hop count
//! must equal what the pipeline's timing gives by hand, exactly.
//!
//! # The closed form
//!
//! From the per-cycle pipeline (ARCHITECTURE.md, "The per-cycle pipeline"):
//! every cycle runs arrivals, injection (generation, then feeding), routing,
//! switch and bookkeeping, in that order.
//!
//! * A packet queued at its source before cycle `g` (its generation cycle)
//!   has its head phit fed into the injection buffer by cycle `g`'s feeding
//!   pass.  The same cycle's routing phase routes the buffered head and
//!   claims its credits, and its switch phase launches the head onto the
//!   first link: injection costs no cycle of its own.
//! * A phit launched at cycle `t` onto a link of latency `L` lands at cycle
//!   `t + L`, in that cycle's arrivals phase; the routing and switch phases
//!   that follow forward it in the same cycle.  So a router adds no cycle
//!   either: each hop costs exactly its link's latency, local `Ll` = 10,
//!   global `Lg` = 100, and the ejection link to the node `Lt` = 1.  The
//!   head reaches the destination node at `g + n_l·Ll + n_g·Lg + Lt`, for a
//!   path of `n_l` local and `n_g` global links.
//! * Feeding moves one phit per cycle and a link carries one phit per cycle,
//!   so in an idle network phit `k` trails the head by `k` cycles, and the
//!   tail of a `p`-phit packet arrives `p − 1` cycles after the head.  The
//!   node consumes phits on arrival and the tail records the delivery.
//!
//! Latency is delivery minus generation:
//!
//! `latency = n_l·Ll + n_g·Lg + Lt + (p − 1)`, and `total_hops = n_l + n_g`.
//!
//! With p = 8 that is 8 cycles for a pair on one router, 18 within a group,
//! and 108, 118 or 128 between groups.  The minimal path, taken by every
//! mechanism here at zero load (an adaptive one misroutes only on
//! congestion, and an idle network has none), has `n_g` = 1 between groups
//! (0 otherwise) and a local hop at each end that is not already the router
//! holding, or landing, the one global link between the two groups.  No
//! term depends on the VC count, so PAR and PAR-6/2 run with the local VCs
//! they require and the same form.
//!
//! The two-shard engine is held to the same form on a seeded sample of pairs
//! whose packet crosses the shard boundary (the last test).
//!
//! Release builds only (5 112 networks per mechanism): CI runs
//! `cargo test --release --test zero_load`.

use std::collections::BTreeMap;

use dragonfly::rng::Rng;
use dragonfly::routing::{MinimalRouting, Olm, Par, Par62, Piggybacking, Rlm};
use dragonfly::shard::{ShardPlan, ShardedSimulation};
use dragonfly::sim::{Engine, EngineHost, Network, RoutingAlgorithm, SimConfig, StatsCollector};
use dragonfly::topology::NodeId;
use dragonfly::traffic::Uniform;

/// The closed form above: `(latency, total_hops)` of a lone packet.
fn closed_form(config: &SimConfig, src: NodeId, dst: NodeId) -> (u64, u64) {
    let params = config.params;
    let (from, to) = (params.router_of_node(src), params.router_of_node(dst));
    let (src_group, dst_group) = (params.group_of_router(from), params.group_of_router(to));
    let (locals, globals) = if from == to {
        (0, 0)
    } else if src_group == dst_group {
        (1, 0)
    } else {
        let (exit, gport) = params.global_exit(src_group, dst_group);
        let (landing, _) = params.global_neighbor(exit, gport);
        (u64::from(from != exit) + u64::from(landing != to), 1)
    };
    let latency = locals * config.local_latency
        + globals * config.global_latency
        + config.terminal_latency
        + config.packet_size as u64
        - 1;
    (latency, locals + globals)
}

/// Send one measured packet from `src` to `dst` through a fresh network and
/// return its `(latency, total_hops)`.
fn lone_packet<R: RoutingAlgorithm>(
    config: &SimConfig,
    routing: R,
    src: NodeId,
    dst: NodeId,
) -> (u64, u64) {
    let mut net = Network::with_routing(config.clone(), routing, Box::new(Uniform::new()));
    net.enqueue(src, dst, true);
    drain(&mut net, src, dst);
    measured(&net.stats, src, dst)
}

/// Step `engine` until its lone packet from `src` to `dst` is delivered.
fn drain(engine: &mut impl Engine, src: NodeId, dst: NodeId) {
    while !engine.status().drained {
        assert!(
            engine.status().cycle < 1_000,
            "{src:?} -> {dst:?}: not delivered"
        );
        engine.step();
    }
}

/// The `(latency, total_hops)` of the one measured packet `stats` recorded.
fn measured(stats: &StatsCollector, src: NodeId, dst: NodeId) -> (u64, u64) {
    assert_eq!(stats.measured_delivered, 1, "{src:?} -> {dst:?}");
    (
        stats.latency.max().unwrap() as u64,
        stats.hops.max().unwrap() as u64,
    )
}

/// Every ordered pair of distinct nodes, one packet each, against the
/// closed form, on the paper's h = 2 VCT machine with the local VCs the
/// mechanism requires.  Returns how many pairs fell into each latency.
fn all_pairs<R: RoutingAlgorithm + Clone>(routing: R) -> BTreeMap<u64, usize> {
    let baseline = SimConfig::paper_vct(2);
    let local_vcs = routing.required_local_vcs().max(baseline.local_vcs);
    let config = baseline.with_local_vcs(local_vcs);
    let nodes = config.params.num_nodes() as u32;
    let mut classes = BTreeMap::new();
    for src in (0..nodes).map(NodeId) {
        for dst in (0..nodes).map(NodeId).filter(|&dst| dst != src) {
            let expected = closed_form(&config, src, dst);
            let seen = lone_packet(&config, routing.clone(), src, dst);
            assert_eq!(
                seen,
                expected,
                "{} {src:?} -> {dst:?}: (latency, hops)",
                routing.name()
            );
            *classes.entry(expected.0).or_insert(0) += 1;
        }
    }
    classes
}

/// The latency classes of the h = 2 machine (4 routers of 2 nodes per group,
/// 9 groups): from each node, 1 node on its router, 6 in its group, and per
/// other group 8 nodes at 0, 1 or 2 local hops.
fn assert_classes(classes: &BTreeMap<u64, usize>) {
    assert_eq!(
        classes.keys().copied().collect::<Vec<_>>(),
        [8, 18, 108, 118, 128]
    );
    assert_eq!(classes[&8], 72);
    assert_eq!(classes[&18], 72 * 6);
    assert_eq!(classes.values().sum::<usize>(), 72 * 71);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn minimal_matches_the_closed_form_on_every_pair() {
    assert_classes(&all_pairs(MinimalRouting::new()));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn olm_matches_the_closed_form_on_every_pair() {
    assert_classes(&all_pairs(Olm::default()));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn pb_matches_the_closed_form_on_every_pair() {
    assert_classes(&all_pairs(Piggybacking::new()));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn par_matches_the_closed_form_on_every_pair() {
    assert_classes(&all_pairs(Par::default()));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn par62_matches_the_closed_form_on_every_pair() {
    assert_classes(&all_pairs(Par62::default()));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn rlm_matches_the_closed_form_on_every_pair() {
    assert_classes(&all_pairs(Rlm::default()));
}

/// Ordered pairs sampled for the two-shard case.
const BOUNDARY_PAIRS: usize = 160;

/// The two-shard engine (`ShardPlan::new(2)`: groups 0–3 on shard 0, 4–8 on
/// shard 1) against the closed form, on a seeded sample of ordered pairs
/// whose source and destination lie in different shards, under VCT Minimal.
/// Each such packet crosses the boundary on its global link: the sending
/// shard launches every phit on its one-slot copy, and the receiving shard
/// launches it again on its full copy at the same cycle's barrier (and the
/// credits the other way), so the form holds unchanged.  A relaunch one
/// cycle late would add a cycle to every latency here.
#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn two_shards_match_the_closed_form_across_the_boundary() {
    let config = SimConfig::paper_vct(2);
    let build = || {
        ShardedSimulation::new(
            config.clone(),
            ShardPlan::new(2),
            MinimalRouting::new(),
            || Box::new(Uniform::new()),
        )
    };
    let nodes = {
        let sim = build();
        [sim.network(0).owned_nodes(), sim.network(1).owned_nodes()]
    };
    let mut rng = Rng::seed_from(0x5_4A2D);
    let mut classes = BTreeMap::new();
    for _ in 0..BOUNDARY_PAIRS {
        let from = rng.gen_index(2);
        let pick = |rng: &mut Rng, shard: usize| {
            NodeId((nodes[shard].start + rng.gen_index(nodes[shard].len())) as u32)
        };
        let (src, dst) = (pick(&mut rng, from), pick(&mut rng, 1 - from));
        let mut sim = build();
        sim.network_mut(from).enqueue(src, dst, true);
        sim.drive(|engine| drain(engine, src, dst));
        let expected = closed_form(&config, src, dst);
        assert_eq!(
            measured(&sim.stats(), src, dst),
            expected,
            "two shards, {src:?} -> {dst:?}: (latency, hops)"
        );
        *classes.entry(expected.0).or_insert(0) += 1;
    }
    // Every pair is between groups, and the sample reaches all three
    // inter-group classes.
    assert_eq!(classes.keys().copied().collect::<Vec<_>>(), [108, 118, 128]);
}
