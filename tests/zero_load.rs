//! A lone packet's latency is a closed form: the zero-load oracle.
//!
//! Every ordered pair of distinct nodes of the h = 2 machine (72 nodes) sends
//! one packet through an otherwise idle network, under VCT with Minimal, PB,
//! PAR, PAR-6/2, RLM and OLM routing and under wormhole with every one of
//! them that runs there (OLM does not), and the packet's latency and hop
//! count must equal what the pipeline's timing gives by hand, exactly.
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
//! whose packet crosses the shard boundary.
//!
//! # Wormhole: the credit round trip
//!
//! Under wormhole (WH) an 80-phit packet is longer than the 32-phit local
//! buffer it crosses, so whether its phits still go out one per cycle
//! depends on the credits coming back in time.  From ARCHITECTURE.md: a
//! router sends a phit of a packet over a link of latency `L` into a buffer
//! of `C` phits only while it holds a credit, and at a flit boundary (every
//! `F`-th phit, F = 10) only while it holds `F`; the receiving router frees
//! the phit's slot when it forwards the phit, and the credit it returns then
//! arrives `L` cycles later, in the arrivals phase, so the switch phase of
//! that cycle may spend it.  A node consumes a phit on arrival.
//!
//! Let `s_j` be the cycle a hop's sender sends phit `j` of the packet
//! (j = 0 … p − 1), and `r_i` the cycle the credit of phit `i` is back
//! there: `r_i = s'_i + L`, where `s'_i` is when the next router forwards
//! phit `i` (`s_i + 2L` if it forwards on arrival, and at the node).  With
//! `j` phits sent, the sender holds `C − j + #{i : r_i ≤ t}` credits at
//! cycle `t`, and phit `j` needs `need_j` of them: `F` when `j` is a
//! multiple of `F`, else 1.  Phit `j` arrives at cycle `a_j`, so
//!
//! `s_j = max(a_j, s_{j−1} + 1, r_{j − C + need_j − 1})`,
//!
//! the last term only when `j ≥ C − need_j + 1`.  At the source, phit `j`
//! enters the injection buffer of `I` phits at `a_j = max(g + j,
//! s_{j−I} + 1)` (fed one phit per cycle, once phit `j − I` has made room).
//! The tail reaches the node at `s_{p−1} + Lt` of the last hop.
//!
//! When phits never wait, `s_j = s_0 + j` at every hop and
//! `r_i = s_i + 2L`, so the credit term binds nowhere iff
//! `C − min(j, 2L − 1) ≥ need_j` for every `j`, that is iff
//!
//! `C ≥ B(L) = max(F + min(p − F, 2L − 1), 1 + min(p − 1, 2L − 1))`,
//!
//! and then the VCT form above holds unchanged.  With p = 80: B = 29 for a
//! 10-cycle local link, 80 for a 100-cycle global one and 11 for the
//! ejection link.  The paper's buffers (32 local, 256 global, 320 towards a
//! node) are all at least that, so its WH latencies are the VCT form with
//! p = 80 (classes 80, 90, 180, 190 and 200): no stall.  The tests run that
//! machine under Minimal, PB, PAR, PAR-6/2 and RLM (each with the local VCs
//! it requires; at zero load each takes the minimal path, as under VCT),
//! and under Minimal one machine with every buffer at exactly `B` (a credit
//! one cycle late, or a slot fewer, stalls it) and one with buffers below
//! `B`, where the recurrence's stalls must appear cycle for cycle.
//!
//! Release builds only (5 112 networks per mechanism): CI runs
//! `cargo test --release --test zero_load`.

use std::collections::BTreeMap;

use dragonfly::rng::Rng;
use dragonfly::routing::{MinimalRouting, Olm, Par, Par62, Piggybacking, Rlm, RoutingKind};
use dragonfly::shard::{ShardPlan, ShardedSimulation};
use dragonfly::sim::{
    Engine, EngineHost, FlowControl, Network, RoutingAlgorithm, SimConfig, StatsCollector,
};
use dragonfly::topology::NodeId;
use dragonfly::traffic::Uniform;

/// The links of the minimal path as `(latency, downstream buffer)`, in
/// order: a local link to the source group's exit router (unless the source
/// router is it), the global link, a local link from the landing router
/// (unless it is the destination's), and the ejection link, whose node side
/// takes `max(4p, injection_buffer)` phits.
fn minimal_hops(config: &SimConfig, src: NodeId, dst: NodeId) -> Vec<(u64, usize)> {
    let params = config.params;
    let (from, to) = (params.router_of_node(src), params.router_of_node(dst));
    let local = (config.local_latency, config.local_buffer);
    let mut hops = Vec::new();
    let (src_group, dst_group) = (params.group_of_router(from), params.group_of_router(to));
    if src_group != dst_group {
        let (exit, gport) = params.global_exit(src_group, dst_group);
        let (landing, _) = params.global_neighbor(exit, gport);
        if from != exit {
            hops.push(local);
        }
        hops.push((config.global_latency, config.global_buffer));
        if landing != to {
            hops.push(local);
        }
    } else if from != to {
        hops.push(local);
    }
    let ejection = (4 * config.packet_size).max(config.injection_buffer);
    hops.push((config.terminal_latency, ejection));
    hops
}

/// The closed form above: `(latency, total_hops)` of a lone packet.
fn closed_form(config: &SimConfig, src: NodeId, dst: NodeId) -> (u64, u64) {
    let hops = minimal_hops(config, src, dst);
    let links: u64 = hops.iter().map(|&(latency, _)| latency).sum();
    (links + config.packet_size as u64 - 1, hops.len() as u64 - 1)
}

/// The wormhole recurrence of the module docs: `(latency, total_hops)` of a
/// lone packet, stalls on the credit round trip included.
fn wormhole_form(config: &SimConfig, src: NodeId, dst: NodeId) -> (u64, u64) {
    let FlowControl::Wormhole { flit_size } = config.flow_control else {
        panic!("a wormhole configuration");
    };
    let hops = minimal_hops(config, src, dst);
    let (p, n) = (config.packet_size, hops.len());
    // `send[k][j]`: the cycle hop `k`'s sender sends phit `j`, generation at
    // cycle 0.  Phit `j` at every hop depends only on phit `j` upstream and
    // on earlier phits downstream, so phits go in order, hops inside.
    let mut send = vec![vec![0u64; p]; n];
    for j in 0..p {
        for k in 0..n {
            let arrive = if k == 0 {
                let fed = j as u64;
                match j.checked_sub(config.injection_buffer) {
                    Some(made_room) => fed.max(send[0][made_room] + 1),
                    None => fed,
                }
            } else {
                send[k - 1][j] + hops[k - 1].0
            };
            let mut at = arrive;
            if j > 0 {
                at = at.max(send[k][j - 1] + 1);
            }
            let (latency, buffer) = hops[k];
            let need = if j % flit_size == 0 { flit_size } else { 1 };
            if let Some(i) = (j + need).checked_sub(buffer + 1) {
                // The credit of phit `i` is back `latency` cycles after the
                // next router forwarded it (the node takes it on arrival).
                let forwarded = if k + 1 < n {
                    send[k + 1][i]
                } else {
                    send[k][i] + latency
                };
                at = at.max(forwarded + latency);
            }
            send[k][j] = at;
        }
    }
    let latency = send[n - 1][p - 1] + hops[n - 1].0;
    (latency, n as u64 - 1)
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
    pairs_against(&config, routing, closed_form)
}

/// Every ordered pair of distinct nodes of `config`'s machine, one packet
/// each, against `form`.  Returns how many pairs fell into each latency.
fn pairs_against<R: RoutingAlgorithm + Clone>(
    config: &SimConfig,
    routing: R,
    form: fn(&SimConfig, NodeId, NodeId) -> (u64, u64),
) -> BTreeMap<u64, usize> {
    let nodes = config.params.num_nodes() as u32;
    let mut classes = BTreeMap::new();
    for src in (0..nodes).map(NodeId) {
        for dst in (0..nodes).map(NodeId).filter(|&dst| dst != src) {
            let expected = form(config, src, dst);
            let seen = lone_packet(config, routing.clone(), src, dst);
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

/// The paper's h = 2 wormhole machine (80-phit packets of 10-phit flits):
/// every buffer is at least its `B(L)`, so the recurrence gives the VCT form
/// with p = 80 on every pair, stall-free.
#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_minimal_matches_the_closed_form_on_every_pair() {
    let config = SimConfig::paper_wormhole(2);
    let classes = pairs_against(&config, MinimalRouting::new(), closed_form);
    assert_eq!(
        classes.keys().copied().collect::<Vec<_>>(),
        [80, 90, 180, 190, 200]
    );
}

/// Every ordered pair on the paper's h = 2 wormhole machine with the local
/// VCs `routing` requires, against the wormhole recurrence (stall-free at
/// these buffers, so the VCT form with p = 80).  From each node: 1 node
/// on its router, 6 in its group, and of the 8 other groups 2 reached by
/// its own router's global links and 6 through a local hop, each landing
/// on a router with 2 of the group's 8 nodes.
fn assert_wormhole_pairs<R: RoutingAlgorithm + Clone>(routing: R) {
    let baseline = SimConfig::paper_wormhole(2);
    assert!(routing.supports_flow_control(baseline.flow_control));
    let local_vcs = routing.required_local_vcs().max(baseline.local_vcs);
    let config = baseline.with_local_vcs(local_vcs);
    let classes = pairs_against(&config, routing, wormhole_form);
    let sizes: Vec<(u64, usize)> = classes.into_iter().collect();
    assert_eq!(
        sizes,
        [
            (80, 72),
            (90, 72 * 6),
            (180, 72 * 2 * 2),
            (190, 72 * (2 * 6 + 6 * 2)),
            (200, 72 * 6 * 6)
        ]
    );
}

/// The adaptive mechanisms under wormhole are exactly the ones tested
/// below: every mechanism but Valiant (which misroutes by design) that
/// declares wormhole support.
#[test]
fn the_wormhole_slice_covers_every_adaptive_mechanism_that_runs_there() {
    let mut covered: Vec<&str> = RoutingKind::ALL
        .into_iter()
        .filter(|&kind| kind != RoutingKind::Valiant && kind.supports_wormhole())
        .map(RoutingKind::name)
        .collect();
    covered.sort_unstable();
    assert_eq!(covered, ["Minimal", "PAR", "PAR-6/2", "PB", "RLM"]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_pb_matches_the_closed_form_on_every_pair() {
    assert_wormhole_pairs(Piggybacking::new());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_par_matches_the_closed_form_on_every_pair() {
    assert_wormhole_pairs(Par::default());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_par62_matches_the_closed_form_on_every_pair() {
    assert_wormhole_pairs(Par62::default());
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_rlm_matches_the_closed_form_on_every_pair() {
    assert_wormhole_pairs(Rlm::default());
}

/// Wormhole with every buffer at exactly its stall threshold `B(L)`: 29
/// phits local, 80 global (the ejection side keeps 320, and the injection
/// buffer 32).  Still stall-free, so a credit returned one cycle late, or a
/// buffer one slot short, would add cycles here.
#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_buffers_at_the_round_trip_threshold_do_not_stall() {
    let mut config = SimConfig::paper_wormhole(2);
    config.local_buffer = 29;
    config.global_buffer = 80;
    let classes = pairs_against(&config, MinimalRouting::new(), wormhole_form);
    assert_eq!(
        classes.keys().copied().collect::<Vec<_>>(),
        [80, 90, 180, 190, 200]
    );
}

/// Wormhole with buffers below `B(L)`: 20 phits local (the round trip of a
/// 10-cycle link is 20) and 40 global, half a packet.  Phits wait for
/// credits at every local and global hop, and the latency of every pair
/// must still be the recurrence's, stall for stall.
#[test]
#[cfg_attr(debug_assertions, ignore = "release tier; run with --release")]
fn wormhole_buffers_below_the_round_trip_stall_as_the_recurrence_says() {
    let mut config = SimConfig::paper_wormhole(2);
    config.local_buffer = 20;
    config.global_buffer = 40;
    let classes = pairs_against(&config, MinimalRouting::new(), wormhole_form);
    // A pair on one router crosses no small buffer and stays at 80; every
    // other class waits on credits.
    assert_eq!(classes.keys().next(), Some(&80));
    assert!(classes.keys().skip(1).all(|&latency| latency > 90));
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
