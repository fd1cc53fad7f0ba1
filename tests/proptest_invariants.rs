//! Workspace-level randomized tests over cross-crate invariants.
//!
//! Originally `proptest` properties; the build environment has no registry access,
//! so each property is checked over seeded random cases drawn from the workspace's
//! own deterministic RNG, covering the same input domains.

use dragonfly::rng::Rng;
use dragonfly::routing::{
    AdaptiveParams, LinkClass, MinimalRouting, ParitySignTable, RoutingKind, RoutingVisitor,
};
use dragonfly::sim::{Network, SimConfig};
use dragonfly::sim::{Packet, PacketId, RouteCtx, RouterView, RoutingAlgorithm};
use dragonfly::topology::{DragonflyParams, NodeId, Port};
use dragonfly::traffic::{AdversarialGlobal, AdversarialLocal, TrafficPattern, Uniform};

/// Every traffic pattern produces valid, non-self destinations for any source.
#[test]
fn traffic_destinations_are_always_valid() {
    let mut meta = Rng::seed_from(48);
    for _ in 0..48 {
        let h = 2 + (meta.next_u64() % 4) as usize;
        let params = DragonflyParams::new(h);
        let src = NodeId((meta.next_u64() % params.num_nodes() as u64) as u32);
        let mut rng = Rng::seed_from(meta.next_u64() % 1_000);
        let patterns: Vec<Box<dyn TrafficPattern>> = vec![
            Box::new(Uniform::new()),
            Box::new(AdversarialGlobal::new(1)),
            Box::new(AdversarialGlobal::new(h)),
            Box::new(AdversarialLocal::new(1)),
        ];
        for p in &patterns {
            let dst = p.destination(src, &params, &mut rng);
            assert!(dst.index() < params.num_nodes());
            assert_ne!(dst, src);
        }
    }
}

/// The parity-sign table never removes all detours: every router pair of every
/// group size keeps at least h-1 two-hop alternatives.
#[test]
fn parity_sign_detour_guarantee() {
    let mut meta = Rng::seed_from(1337);
    for _ in 0..48 {
        let h = 2 + (meta.next_u64() % 7) as usize;
        let params = DragonflyParams::new(h);
        let routers = params.routers_per_group();
        let from = (meta.next_u64() % routers as u64) as usize;
        let to = (meta.next_u64() % routers as u64) as usize;
        if from == to {
            continue;
        }
        let table = ParitySignTable::new();
        let detours = table.allowed_intermediates(from, to, routers);
        assert!(detours.len() >= h - 1, "{from}->{to}: {detours:?}");
        // Every allowed detour really avoids the forbidden combinations.
        for k in detours {
            assert!(table.allowed(LinkClass::of_hop(from, k), LinkClass::of_hop(k, to)));
        }
    }
}

/// The port a mechanism, called as its concrete type, picks for one packet.
struct Decision<'a>(
    &'a RouteCtx<'a>,
    &'a Packet,
    &'a RouterView<'a>,
    &'a mut Rng,
);

impl RoutingVisitor for Decision<'_> {
    type Output = Port;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Port {
        let choice = routing.route(self.0, self.1, self.2, self.3);
        choice
            .expect("idle network must always produce a decision")
            .port
    }
}

/// For a freshly-built (idle) network, every mechanism's first routing decision for
/// any packet is the minimal port: with empty queues there is never a reason to
/// misroute.
#[test]
fn idle_network_first_decision_is_minimal() {
    let mut meta = Rng::seed_from(500);
    let params = DragonflyParams::new(2);
    let config = SimConfig::paper_vct(2).with_local_vcs(6);
    let network = Network::with_routing(
        config.clone(),
        MinimalRouting::new(),
        Box::new(Uniform::new()),
    );
    // An idle network's piggybacking board: nothing congested (PB reads it;
    // the other mechanisms ignore it).
    let board = vec![false; params.global_channels_per_group()];
    for _ in 0..48 {
        let src = NodeId((meta.next_u64() % params.num_nodes() as u64) as u32);
        let dst = NodeId((meta.next_u64() % params.num_nodes() as u64) as u32);
        if src == dst {
            continue;
        }
        let src_router = params.router_of_node(src);
        let minimal = params.minimal_port(src_router, dst);
        let packet = Packet::new(PacketId(0), src, dst, 8, 0);
        let view = RouterView {
            router: src_router,
            outputs: &network.routers[src_router.index()].outputs,
            params: &params,
            config: &config,
            global_congested: Some(&board),
        };
        let ctx = RouteCtx {
            cycle: 0,
            params: &params,
            config: &config,
        };
        let mut rng = Rng::seed_from(meta.next_u64());
        for kind in RoutingKind::ALL {
            if kind == RoutingKind::Valiant {
                // Valiant is oblivious: it always detours through a random group.
                continue;
            }
            let decision = Decision(&ctx, &packet, &view, &mut rng);
            assert_eq!(
                kind.dispatch(AdaptiveParams::default(), decision),
                minimal,
                "{} did not choose the minimal port on an idle network",
                kind.name()
            );
        }
    }
}

/// Slice-backed ring views (`RingMeta` over a caller-provided pool region)
/// behave exactly like a `VecDeque` bounded at the same capacity, across
/// random push/pop churn that repeatedly wraps the ring.
#[test]
fn ring_meta_view_matches_vecdeque_model() {
    use dragonfly::sim::RingMeta;
    use std::collections::VecDeque;

    let mut meta_rng = Rng::seed_from(0xF00D);
    for case in 0..48 {
        let cap = 1 + meta_rng.gen_index(17);
        let mut ring = RingMeta::new(cap);
        let mut pool = vec![0u64; cap];
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut rng = Rng::seed_from(0x9000 + case);
        let mut next_value = 0u64;
        for _ in 0..400 {
            if ring.len() < cap && rng.bernoulli(0.55) {
                ring.push_back(&mut pool, next_value);
                model.push_back(next_value);
                next_value += 1;
            } else if !model.is_empty() {
                assert_eq!(ring.pop_front(&pool), model.pop_front());
            }
            assert_eq!(ring.len(), model.len());
            assert_eq!(ring.is_empty(), model.is_empty());
            assert_eq!(ring.front(&pool), model.front());
        }
    }
}

/// Input VCs as packet lists threaded through the arena behave exactly like
/// one `VecDeque<(packet, size, received, sent)>` per VC.  Three VCs form a
/// path — a source feeds VC 0, each VC forwards into the next, and VC 2
/// ejects — so a packet is cut through several VCs at once, as in the
/// engine: the head of one VC while the tail of the next, and head = tail
/// within one.  Sizes are 1..=80 phits and capacities 1..=96, so packets
/// span VCs both ways.  After every move the head id, its present phits,
/// the occupancy and every interior link agree with the model, each tail
/// sent pops the model's front, and a popped packet's link is reset.
#[test]
fn input_vc_lists_match_a_vecdeque_model() {
    use dragonfly::sim::{InputVc, PacketArena};
    use std::collections::VecDeque;

    /// `(packet, size, received, sent)`, front = head.
    type Model = VecDeque<(PacketId, u16, u16, u16)>;
    const VCS: usize = 3;

    let mut meta_rng = Rng::seed_from(0x11575);
    let (mut tails, mut cut_through) = (0, 0);
    for case in 0..64 {
        let capacity: [usize; VCS] = std::array::from_fn(|_| 1 + meta_rng.gen_index(96));
        let mut rng = Rng::seed_from(0x1157 + case);
        let mut arena = PacketArena::with_capacity(4);
        let mut vcs = [InputVc::default(); VCS];
        let mut model: [Model; VCS] = Default::default();
        // The packet the source is feeding: (id, size, phits fed).
        let mut source: Option<(PacketId, u16, u16)> = None;
        for _ in 0..3_000 {
            let hop = rng.gen_index(VCS + 1);
            if hop == 0 {
                // The source feeds one phit into VC 0.
                if vcs[0].occupancy() == capacity[0] {
                    continue;
                }
                let (id, size, fed) = *source.get_or_insert_with(|| {
                    let size = 1 + rng.gen_index(80) as u16;
                    (arena.alloc(NodeId(0), NodeId(1), size, 0), size, 0)
                });
                vcs[0].receive_phit(&mut arena, capacity[0], id, (fed == 0).then_some(size));
                receive_into(&mut model[0], id, size, fed == 0);
                source = (fed + 1 < size).then_some((id, size, fed + 1));
            } else {
                // VC `hop - 1` forwards one phit into VC `hop`, or ejects.
                let from = hop - 1;
                if vcs[from].head_present() == 0
                    || (hop < VCS && vcs[hop].occupancy() == capacity[hop])
                {
                    continue;
                }
                let &(id, size, received, sent) = model[from].front().unwrap();
                cut_through += (received < size) as u32;
                let (packet, is_tail) = vcs[from].send_phit(&mut arena);
                assert_eq!((packet, is_tail), (id, sent + 1 == size));
                model[from][0].3 += 1;
                if is_tail {
                    model[from].pop_front();
                    tails += 1;
                    assert_eq!(arena.successor(id), None, "a popped packet is unlinked");
                }
                if hop < VCS {
                    vcs[hop].receive_phit(
                        &mut arena,
                        capacity[hop],
                        id,
                        (sent == 0).then_some(size),
                    );
                    receive_into(&mut model[hop], id, size, sent == 0);
                } else if is_tail {
                    arena.free(id);
                }
            }
            for (vc, model) in vcs.iter().zip(&model) {
                let present: u16 = model.iter().map(|&(_, _, r, s)| r - s).sum();
                assert_eq!(vc.occupancy(), present as usize);
                assert_eq!(vc.is_empty(), model.is_empty());
                assert_eq!(vc.head(), model.front().map(|m| m.0));
                assert_eq!(vc.head_present(), model.front().map_or(0, |m| m.2 - m.3));
                for pair in model.iter().collect::<Vec<_>>().windows(2) {
                    assert_eq!(arena.successor(pair[0].0), Some(pair[1].0));
                }
            }
        }
    }
    assert!(tails > 2_000, "only {tails} packets left a VC");
    assert!(
        cut_through > 10_000,
        "only {cut_through} phits were cut through"
    );

    fn receive_into(model: &mut Model, id: PacketId, size: u16, opens: bool) {
        if opens {
            model.push_back((id, size, 1, 0));
        } else {
            let tail = model.back_mut().unwrap();
            assert_eq!(tail.0, id);
            tail.2 += 1;
        }
    }
}

/// One pipeline of the naive link model: what is in flight, oldest first,
/// with its arrival cycle, and the most it ever held.
struct Pipe<T> {
    queue: std::collections::VecDeque<(u64, T)>,
    high_water: usize,
}

impl<T: Copy> Pipe<T> {
    fn new() -> Self {
        Self {
            queue: std::collections::VecDeque::new(),
            high_water: 0,
        }
    }

    fn push(&mut self, arrive: u64, item: T) {
        assert!(self.queue.back().is_none_or(|&(a, _)| a <= arrive));
        self.queue.push_back((arrive, item));
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Everything arriving by `now`, oldest first.
    fn pop_due(&mut self, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(&(arrive, item)) = self.queue.front() {
            if arrive > now {
                break;
            }
            assert_eq!(arrive, now, "the model is drained every cycle");
            out.push(item);
            self.queue.pop_front();
        }
        out
    }

    fn front(&self) -> Option<u64> {
        self.queue.front().map(|&(arrive, _)| arrive)
    }
}

/// The slot-per-cycle link fabric against a naive model with one
/// `VecDeque<(arrive, item)>` per pipeline, over random sequences of
/// launches, drains, exports and imports.  Links mix latencies; some are
/// whole, some are boundary pairs — the transmitting shard's copy (a
/// one-slot phit ring it exports every cycle, a full credit ring it imports
/// into) next to the receiving shard's (the mirror image) — exercised the
/// way the sharded engine does it.  After every step the drained phits and
/// credit masks, `due` and `next_due`, the in-flight counts and the
/// high-water marks must agree.
#[test]
fn link_fabric_slots_match_a_vecdeque_model() {
    use dragonfly::sim::{CreditInFlight, LinkEnd, LinkFabric, LinkSpec, PacketId, PhitInFlight};

    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Whole,
        Export,
        Import,
    }
    struct Model {
        phits: Pipe<PhitInFlight>,
        credits: Pipe<u8>,
    }
    fn stamped(mut phit: PhitInFlight, arrive: u64) -> PhitInFlight {
        phit.arrive = arrive as u32;
        phit
    }
    fn compare(f: &LinkFabric, m: &[Model], li: usize, now: u64, at: &str) {
        let model = &m[li];
        let next = model
            .phits
            .front()
            .into_iter()
            .chain(model.credits.front())
            .min();
        let case = format!("link {li}, cycle {now}, {at}");
        assert_eq!(f.next_due(li), next, "{case}: next_due");
        assert_eq!(f.due(li, now), next.is_some_and(|a| a <= now), "{case}");
        assert_eq!(f.phits_in_flight(li), model.phits.queue.len(), "{case}");
        assert_eq!(f.credits_in_flight(li), model.credits.queue.len(), "{case}");
        assert_eq!(f.phit_high_water(li), model.phits.high_water, "{case}");
        assert_eq!(f.credit_high_water(li), model.credits.high_water, "{case}");
        assert_eq!(f.is_idle(li), next.is_none(), "{case}");
    }

    let mut meta = Rng::seed_from(0x5107);
    for case in 0..24 {
        let mut rng = Rng::seed_from(meta.next_u64());
        // (latency, VCs, kind) per link; boundary pairs sit side by side.
        let mut links = Vec::new();
        for _ in 0..1 + rng.gen_index(3) {
            let latency = *rng.choose(&[1u64, 2, 3, 7, 10, 100]);
            let vcs = 1 + rng.gen_index(8);
            if rng.bernoulli(0.5) {
                links.push((latency, vcs, Kind::Whole));
            } else {
                links.push((latency, vcs, Kind::Export));
                links.push((latency, vcs, Kind::Import));
            }
        }
        let specs: Vec<LinkSpec> = links
            .iter()
            .map(|&(latency, _, kind)| {
                let full = latency as usize + 1;
                let (phit_slots, credit_slots) = match kind {
                    Kind::Whole => (full, full),
                    Kind::Export => (1, full),
                    Kind::Import => (full, 1),
                };
                LinkSpec {
                    latency,
                    to: LinkEnd::Router { router: 0, port: 0 },
                    phit_slots,
                    credit_slots,
                }
            })
            .collect();
        let mut f = LinkFabric::build(&specs);
        let mut m: Vec<Model> = links
            .iter()
            .map(|_| Model {
                phits: Pipe::new(),
                credits: Pipe::new(),
            })
            .collect();
        let (load, credit_load) = (0.1 + rng.next_f64() * 0.9, rng.next_f64());
        let mut next_packet = 0u64;
        let mut buffer_phits = Vec::new();
        let mut buffer_credits = Vec::new();
        for now in 0..400u64 {
            // Arrivals: every due link yields this cycle's slots.
            for li in 0..links.len() {
                if !f.due(li, now) {
                    continue;
                }
                let got = f.drain_arrived(li, now);
                let phits = m[li].phits.pop_due(now);
                let credits = m[li].credits.pop_due(now);
                let mask = credits.iter().fold(0u8, |mask, &vc| mask | 1 << vc);
                assert_eq!(credits.len(), mask.count_ones() as usize);
                assert!(phits.len() <= 1, "case {case}: one phit per link per cycle");
                let want = phits.first().map(|&p| stamped(p, now));
                assert_eq!(got.phit, want, "case {case}, link {li}, cycle {now}: phit");
                assert_eq!(
                    got.credits, mask,
                    "case {case}, link {li}, cycle {now}: credits"
                );
                compare(&f, &m, li, now, "after a drain");
            }
            // Launches: phits on links whose transmitter is here, credits on
            // links whose receiver is.
            for (li, &(latency, vcs, kind)) in links.iter().enumerate() {
                if kind != Kind::Import && rng.bernoulli(load) {
                    let vc = rng.gen_index(vcs) as u8;
                    let phit = PhitInFlight::new(
                        PacketId(next_packet),
                        vc,
                        rng.bernoulli(0.5),
                        rng.bernoulli(0.5),
                    );
                    next_packet += 1;
                    f.send_phit(li, now, phit);
                    m[li].phits.push(now + latency, phit);
                    compare(&f, &m, li, now, "after a phit launch");
                }
                if kind != Kind::Export {
                    for vc in 0..vcs as u8 {
                        if rng.bernoulli(credit_load) {
                            f.send_credit(li, now, vc);
                            m[li].credits.push(now + latency, vc);
                            compare(&f, &m, li, now, "after a credit launch");
                        }
                    }
                }
            }
            // The barrier: each boundary pair exports what was launched on
            // its one-slot rings and imports it into the other copy.
            let exports = links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.2 == Kind::Export);
            for (tx, _) in exports {
                let rx = tx + 1;
                buffer_phits.clear();
                f.take_phits(tx, now, &mut buffer_phits);
                let want: Vec<PhitInFlight> = m[tx]
                    .phits
                    .queue
                    .drain(..)
                    .map(|(arrive, p)| stamped(p, arrive))
                    .collect();
                assert_eq!(
                    buffer_phits, want,
                    "case {case}, link {tx}, cycle {now}: export"
                );
                compare(&f, &m, tx, now, "after a phit export");
                for &phit in &buffer_phits {
                    f.push_arriving_phit(rx, phit);
                    m[rx].phits.push(phit.arrive as u64, phit);
                    compare(&f, &m, rx, now, "after a phit import");
                }
                buffer_credits.clear();
                f.take_credits(rx, now, &mut buffer_credits);
                let mut want: Vec<CreditInFlight> = m[rx]
                    .credits
                    .queue
                    .drain(..)
                    .map(|(arrive, vc)| CreditInFlight {
                        arrive: arrive as u32,
                        vc,
                    })
                    .collect();
                want.sort_by_key(|c| (c.arrive, c.vc));
                assert_eq!(
                    buffer_credits, want,
                    "case {case}, link {rx}, cycle {now}: export"
                );
                compare(&f, &m, rx, now, "after a credit export");
                for &credit in &buffer_credits {
                    f.push_arriving_credit(tx, credit);
                    m[tx].credits.push(credit.arrive as u64, credit.vc);
                    compare(&f, &m, tx, now, "after a credit import");
                }
            }
            for li in 0..links.len() {
                compare(&f, &m, li, now, "at the close of the cycle");
            }
            f.check_next_due(now)
                .unwrap_or_else(|e| panic!("case {case}, cycle {now}: {e}"));
        }
    }
}

/// Filling a ring to capacity and wrapping it many times never corrupts FIFO
/// order: the head index wraps by compare-and-subtract, not a power-of-two
/// mask, so every capacity — not just powers of two — must survive.
#[test]
fn ring_meta_wraparound_at_capacity() {
    use dragonfly::sim::RingMeta;

    for cap in [1usize, 2, 3, 5, 7, 8, 13, 100, 101] {
        let mut ring = RingMeta::new(cap);
        let mut pool = vec![0u64; cap];
        // Fill to capacity, then cycle one-in-one-out for several laps.
        for v in 0..cap as u64 {
            ring.push_back(&mut pool, v);
        }
        assert_eq!(ring.len(), cap);
        for v in cap as u64..cap as u64 * 7 {
            assert_eq!(ring.pop_front(&pool), Some(v - cap as u64));
            ring.push_back(&mut pool, v);
            assert_eq!(ring.len(), cap);
        }
    }
}

/// The packed metadata word reads back all three fields at random states,
/// capacities up to the 16-bit lane's limit included.
#[test]
fn ring_meta_packed_word_roundtrip_random() {
    use dragonfly::sim::RingMeta;

    let mut meta_rng = Rng::seed_from(0xBEEF);
    for _ in 0..48 {
        let cap = 1 + meta_rng.gen_index(u16::MAX as usize);
        let mut ring = RingMeta::new(cap);
        let mut pool = vec![0u8; cap];
        let pushes = meta_rng.gen_index(cap.min(50) + 1);
        let pops = meta_rng.gen_index(pushes + 1);
        for _ in 0..pushes {
            ring.push_back(&mut pool, 0);
        }
        for _ in 0..pops {
            ring.pop_front(&pool);
        }
        assert_eq!(ring.capacity(), cap);
        assert_eq!(ring.len(), pushes - pops);
        assert_eq!(ring.head(), pops % cap);
    }
}

/// A random string over the characters the codec must escape or pass through:
/// controls, quote, backslash, ASCII, Latin-1, a line separator and astral
/// characters.
fn random_json_string(rng: &mut Rng) -> String {
    const PALETTE: [char; 16] = [
        '\u{0}',
        '\u{1}',
        '\u{8}',
        '\t',
        '\n',
        '\r',
        '\u{1f}',
        '"',
        '\\',
        '/',
        'a',
        ' ',
        '\u{e9}',
        '\u{2028}',
        '\u{1f600}',
        '\u{10ffff}',
    ];
    (0..rng.gen_index(9))
        .map(|_| *rng.choose(&PALETTE))
        .collect()
}

/// A random canonical `Value` — the form `Value::parse` produces: `Int` only
/// below zero, `Float` only finite — nested at most `depth` containers deep.
fn random_json_value(rng: &mut Rng, depth: usize) -> dragonfly::stats::json::Value {
    use dragonfly::stats::json::Value;
    let word = rng.next_u64();
    match rng.gen_range(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.bernoulli(0.5)),
        2 => Value::UInt(*rng.choose(&[0, 1, 1 << 53, u64::MAX, word])),
        3 => Value::Int(*rng.choose(&[-1, i64::MIN, -((word >> 1) as i64) - 1])),
        4 => {
            let bits = f64::from_bits(word);
            Value::Float(*rng.choose(&[
                0.0,
                -0.0,
                -3.0,
                1e300,
                0.1 + 0.2,
                f64::MIN_POSITIVE / 8.0,
                f64::MAX,
                (word >> 11) as f64,
                if bits.is_finite() { bits } else { 0.5 },
            ]))
        }
        5 => Value::Str(random_json_string(rng)),
        6 => Value::Array(
            (0..rng.gen_index(4))
                .map(|_| random_json_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_index(4))
                .map(|_| (random_json_string(rng), random_json_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The JSON reader reads back everything either writer emits: `parse(dump(v))`
/// and `parse(dump_pretty(v))` equal `v` for random canonical trees.
#[test]
fn json_values_round_trip_through_both_writers() {
    use dragonfly::stats::json::Value;
    let mut rng = Rng::seed_from(0x1504A);
    let mut containers = 0usize;
    for _ in 0..2_000 {
        let value = random_json_value(&mut rng, 6);
        containers += usize::from(matches!(value, Value::Array(_) | Value::Object(_)));
        assert_eq!(Value::parse(&value.dump()).as_ref(), Ok(&value));
        assert_eq!(
            Value::parse(&value.dump_pretty()).as_ref(),
            Ok(&value),
            "{}",
            value.dump()
        );
    }
    assert!(containers > 200, "the generator must reach nested trees");
}

/// ROADMAP fuzz property for the two JSON readers: 10⁵ byte-mutated manifests
/// and report lines go through `Value::parse` and `RunManifest::from_json`,
/// which answer `Ok` or `Err` — no panic, and the test returning shows no hang.
#[test]
fn mutated_json_documents_never_panic_the_readers() {
    use dragonfly::probe::{ProbeConfig, RunManifest, MANIFEST_SCHEMA_VERSION};
    use dragonfly::stats::json::Value;

    let manifest = RunManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        title: "run \"A\"\t[\u{1f600}]".to_string(),
        h: 2,
        routing: "olm".to_string(),
        flow_control: "vct".to_string(),
        traffic: "WL[aggressor:ADVG+1@0.24,victim:UN@0.10]".to_string(),
        offered_load: 0.25,
        threshold: 0.45,
        seed: u64::MAX,
        warmup: 300,
        measure: 600,
        drain: 900,
        peak_in_flight_packets: 512,
        peak_buffered_phits: 4096,
        peak_vc_occupancy: 32,
        samples_dropped: 3,
        heatmap_events_dropped: 0,
    };
    let seeds = [
        manifest.to_json(
            &ProbeConfig::full_active(64),
            &["a,b.csv".to_string(), "x]y.jsonl".to_string()],
        ),
        // A `SimReport` as the report writers used to emit it.
        "{\"routing\":\"OLM\",\"traffic\":\"ADVG+1\",\"offered_load\":1.0,\
         \"injected_load\":0.49,\"accepted_load\":0.48,\"avg_latency_cycles\":130.5,\
         \"p99_latency_cycles\":300.0,\"max_latency_cycles\":512.0,\"avg_hops\":2.4,\
         \"global_misroute_fraction\":0.1,\"local_misroute_fraction\":0.05,\
         \"packets_delivered\":10000,\"packets_measured\":9500,\"warmup_cycles\":5000,\
         \"measure_cycles\":10000,\"deadlock_detected\":false,\
         \"peak_in_flight_packets\":420,\"peak_buffered_phits\":900,\
         \"peak_vc_occupancy\":32}"
            .to_string(),
        "{\"detector\":\"throughput_collapse\",\"cycle\":1216,\"sample\":19,\
         \"window_start\":960,\"observed\":-3,\"bound\":1.5e3,\"router\":null}"
            .to_string(),
    ];
    for seed in &seeds {
        assert!(Value::parse(seed).is_ok(), "{seed}");
    }
    assert!(RunManifest::from_json(&seeds[0]).is_ok());

    // Bytes that steer the grammar, so mutants reach past the first error.
    const STRUCTURAL: &[u8] = b"{}[]\",:\\/-+.0123456789eEu tfn\n\x01\xf0\x9f";
    let mut rng = Rng::seed_from(0xF022);
    let (mut parsed, mut read) = (0usize, 0usize);
    for _ in 0..100_000 {
        let mut bytes = rng.choose(&seeds).clone().into_bytes();
        for _ in 0..1 + rng.gen_index(4) {
            let at = rng.gen_index(bytes.len());
            match rng.gen_range(6) {
                0 => bytes[at] = rng.next_u64() as u8,
                1 => bytes[at] = *rng.choose(STRUCTURAL),
                2 => bytes.insert(at, *rng.choose(STRUCTURAL)),
                3 if bytes.len() > 1 => drop(bytes.remove(at)),
                4 => bytes.truncate(at.max(1)),
                _ => bytes[at] = bytes[rng.gen_index(bytes.len())],
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        parsed += usize::from(Value::parse(&text).is_ok());
        read += usize::from(RunManifest::from_json(&text).is_ok());
    }
    // Both outcomes occur: the mutants are neither all rejected at byte 0 nor
    // all harmless.
    assert!(parsed > 1_000 && parsed < 99_000, "{parsed}");
    assert!(read > 100 && read < parsed, "{read}");
}

/// The text readers of the job layer — `Trace::parse` and `JobPattern::parse`
/// — return `Ok` or `Err` on any input and never panic: 10⁵ seeded mutants of
/// a canonical trace file and of every pattern name, with bytes and whole
/// values swapped for ones that steer the grammar (negative, non-finite,
/// zero and overflowing numbers among them, and valid ones).  A parsed trace always has a
/// text form that parses again.
#[test]
fn mutated_trace_files_never_panic_the_parsers() {
    use dragonfly::workload::{JobPattern, Trace};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let trace = "# churn\ntrace mixed\n\
                 job a2a arrive=0 size=24 place=cont pattern=A2A load=0.15 duration=2500\n\
                 job ring arrive=400 size=24 place=rr pattern=RING load=0.15 volume=600\n\
                 job perm arrive=800 size=16 place=rand#9 pattern=PERM#5 load=0.1 duration=1500\n\
                 job mix arrive=900 size=8 place=RAND#2 pattern=MIX40%(ADVG+2/ADVL+1) \
                 load=0.2 duration=700\n\
                 job adv arrive=1000 size=4 place=cont pattern=advg+1 load=1e-3 volume=9\n";
    let patterns = [
        "UN",
        "ADVG+3",
        "ADVL+1",
        "A2A",
        "RING",
        "PERM#42",
        "MIX40%(ADVG+2/ADVL+1)",
    ];
    const STRUCTURAL: &[u8] = b"=#%()/+-.,0123456789eE \n\tjobtraceUNADVGLMIXRP";
    const VALUES: &[&str] = &[
        "-1",
        "nan",
        "inf",
        "-inf",
        "0",
        "",
        "1e309",
        "18446744073709551616",
        "MIX250%(ADVG+1/ADVL+1)",
        "MIXnan%(ADVG+1/ADVL+1)",
        "rand#",
        "PERM#-1",
        // Valid values, so a mutant often survives to the next check.
        "7",
        "0.5",
        "rr",
        "UN",
        "rand#3",
        "MIX50%(ADVG+1/ADVL+2)",
    ];
    let mut rng = Rng::seed_from(0x7AC3);
    let (mut traces, mut pattern_oks) = (0usize, 0usize);
    for i in 0..100_000 {
        let seed = if i % 2 == 0 {
            trace
        } else {
            *rng.choose(&patterns)
        };
        let mut text = seed.to_string();
        for _ in 0..1 + rng.gen_index(3) {
            // Swap one `key=value` value (or a whole pattern) for a steering one.
            if rng.gen_range(3) == 0 {
                let cut = match text.match_indices('=').nth(rng.gen_index(8)) {
                    Some((at, _)) => at + 1,
                    None => 0,
                };
                let end = text[cut..]
                    .find(char::is_whitespace)
                    .map_or(text.len(), |n| cut + n);
                let value: &str = VALUES[rng.gen_index(VALUES.len())];
                text.replace_range(cut..end, value);
                continue;
            }
            let mut bytes = std::mem::take(&mut text).into_bytes();
            let at = rng.gen_index(bytes.len().max(1));
            match rng.gen_range(5) {
                0 if at < bytes.len() => bytes[at] = *rng.choose(STRUCTURAL),
                1 => bytes.insert(at.min(bytes.len()), *rng.choose(STRUCTURAL)),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                3 => bytes.truncate(at),
                _ if !bytes.is_empty() => bytes[at] = rng.next_u64() as u8,
                _ => {}
            }
            text = String::from_utf8_lossy(&bytes).into_owned();
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let parsed = Trace::parse(&text);
            if let Ok(trace) = &parsed {
                assert!(Trace::parse(&trace.to_text()).is_ok(), "{text:?}");
            }
            (parsed.is_ok(), JobPattern::parse(&text).is_ok())
        }));
        let (trace_ok, pattern_ok) =
            outcome.unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
        traces += usize::from(trace_ok);
        pattern_oks += usize::from(pattern_ok);
    }
    // Both outcomes occur for both readers: the mutants are neither all
    // rejected nor all harmless.
    assert!(traces > 1_000 && traces < 99_000, "{traces}");
    assert!(pattern_oks > 1_000 && pattern_oks < 99_000, "{pattern_oks}");
}
