//! Decision-level pin of the seven routing mechanisms.
//!
//! The end-to-end goldens (`tests/golden/layout/`) say *that* a report moved;
//! this tier says whether **routing** moved it.  For each mechanism × supported
//! flow control at h ∈ {2, 3} a network is driven by the mechanism itself —
//! ADVG+1 at load 0.5 (the minimal global links saturate) and ADVL+1 at load
//! 0.9 (the minimal local links saturate, so local detours fire) — and frozen.
//! Then, for every router and a seeded set of packet route states (source
//! group after 0 or 1 local hops, already committed to a Valiant group,
//! intermediate group, destination group, already misrouted locally,
//! group-local traffic, at the destination router), `route()` is called with a
//! freshly seeded `Rng` and `(port, vc, every RouteUpdate field,
//! rng.next_u64())` is folded into an FNV-1a digest.  The trailing draw pins
//! the RNG state a decision leaves behind, not just the decision.  A third,
//! `scrambled` scenario replaces the driven state by seeded noise on every
//! credit counter, VC owner and congestion flag, reaching the branches the
//! two driven states visit rarely.
//!
//! The fixture also records how often each outcome occurred — productive hop,
//! local detour, direct and indirect global detour, stall — and the test
//! asserts that every outcome a mechanism can produce is present (and every
//! one it cannot is absent), so the pin is not vacuous.
//!
//! Regenerating the fixture (only for an *intentional* routing change):
//!
//! ```text
//! BLESS_ROUTING=1 cargo test --release --test routing_decisions
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use dragonfly::core::{AdaptiveParams, ExperimentSpec, FlowControlKind, RoutingKind, TrafficKind};
use dragonfly::rng::{derive_seed, Rng};
use dragonfly::routing::{LinkClass, RoutingVisitor};
use dragonfly::sim::{
    Network, OutputPort, Packet, PacketId, RouteChoice, RouteCtx, RouterView, RoutingAlgorithm,
    Simulation,
};
use dragonfly::topology::{DragonflyParams, GroupId, NodeId, Port, RouterId};
use dragonfly::traffic::BernoulliInjection;

/// Cycles the network runs before it is frozen.
const FREEZE_CYCLES: u64 = 1_500;
/// Packets drawn per (router, route-state template).
const DRAWS: u64 = 3;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/routing/decisions.txt")
}

/// What a `route()` call decided, as the paper's taxonomy names it (discriminants
/// index [`OUTCOMES`] and the count arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Productive,
    LocalDetour,
    GlobalDirect,
    GlobalIndirect,
    Stall,
}

const OUTCOMES: [(Outcome, &str); 5] = [
    (Outcome::Productive, "productive"),
    (Outcome::LocalDetour, "local_detour"),
    (Outcome::GlobalDirect, "global_direct"),
    (Outcome::GlobalIndirect, "global_indirect"),
    (Outcome::Stall, "stall"),
];

fn classify(choice: &Option<RouteChoice>) -> Outcome {
    match choice {
        None => Outcome::Stall,
        Some(c) if c.update.mark_local_misroute => Outcome::LocalDetour,
        Some(c) if c.update.mark_global_misroute && c.port.is_global() => Outcome::GlobalDirect,
        Some(c) if c.update.mark_global_misroute => Outcome::GlobalIndirect,
        Some(_) => Outcome::Productive,
    }
}

/// FNV-1a over 64-bit words, plus the outcome counts of the calls folded in.
#[derive(Debug, Clone, Copy)]
struct Tally {
    digest: u64,
    counts: [u64; OUTCOMES.len()],
}

impl Tally {
    fn new() -> Self {
        Self {
            digest: 0xcbf2_9ce4_8422_2325,
            counts: [0; OUTCOMES.len()],
        }
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.digest ^= byte as u64;
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fold(&mut self, choice: &Option<RouteChoice>, rng_after: u64) {
        match choice {
            None => self.word(0),
            Some(c) => {
                self.word(1);
                self.word(match c.port {
                    Port::Local(_) => 0,
                    Port::Global(_) => 1,
                    Port::Terminal(_) => 2,
                });
                self.word(c.port.class_index() as u64);
                self.word(c.vc as u64);
                let up = &c.update;
                self.word(up.set_intermediate_group.map_or(u64::MAX, |g| g.0 as u64));
                self.word(up.mark_global_misroute as u64);
                self.word(up.mark_local_misroute as u64);
                self.word(up.mark_source_decision as u64);
                self.word(up.local_link_class.map_or(u64::MAX, |c| c as u64));
            }
        }
        self.word(rng_after);
        self.counts[classify(choice) as usize] += 1;
    }

    fn calls(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Seeded builder of the packet route states probed at one router.
struct PacketDraw<'a> {
    params: &'a DragonflyParams,
    router: RouterId,
    group: GroupId,
    idx: usize,
    rng: Rng,
}

impl PacketDraw<'_> {
    fn coin(&mut self) -> bool {
        self.rng.gen_index(2) == 1
    }

    /// A group other than this router's and the listed ones.
    fn other_group(&mut self, exclude: &[GroupId]) -> GroupId {
        loop {
            let g = GroupId(self.rng.gen_index(self.params.groups()) as u32);
            if g != self.group && !exclude.contains(&g) {
                return g;
            }
        }
    }

    /// In-group index of another router of this group.
    fn other_idx(&mut self) -> usize {
        loop {
            let k = self.rng.gen_index(self.params.routers_per_group());
            if k != self.idx {
                return k;
            }
        }
    }

    fn node_on(&mut self, router: RouterId) -> NodeId {
        let n = self.rng.gen_index(self.params.nodes_per_router());
        self.params.node_of_router(router, n)
    }

    fn node_in(&mut self, group: GroupId) -> NodeId {
        let k = self.rng.gen_index(self.params.routers_per_group());
        self.node_on(self.params.router_in_group(group, k))
    }

    fn packet(&self, src: NodeId, dst: NodeId, size: usize) -> Packet {
        Packet::new(PacketId(0), src, dst, size as u16, 0)
    }

    /// Record one local hop `from → here` already taken in this group.
    fn after_local_hop(&self, p: &mut Packet, from: usize) {
        p.route.local_hops_in_group = 1;
        p.route.total_hops += 1;
        p.route.last_local_class = Some(LinkClass::of_hop(from, self.idx).code());
    }

    fn mark_locally_misrouted(&self, p: &mut Packet) {
        p.route.local_misrouted_in_group = true;
        p.route.local_misrouted_ever = true;
    }

    /// Packet that arrived here over one or two global hops.
    fn arrived(&mut self, src_group: GroupId, dst: NodeId, size: usize) -> Packet {
        let src = self.node_in(src_group);
        let mut p = self.packet(src, dst, size);
        p.route.global_hops = 1;
        p.route.total_hops = 1 + self.rng.gen_index(2) as u8;
        p
    }

    /// The packet for route-state template `template` (0..TEMPLATES).
    fn draw(&mut self, template: usize, size: usize) -> Packet {
        let here = self.router;
        match template {
            // Source group, fresh at the injection router.
            0 => {
                let src = self.node_on(here);
                let dst_group = self.other_group(&[]);
                let dst = self.node_in(dst_group);
                self.packet(src, dst, size)
            }
            // Source group, after one minimal local hop.
            1 => {
                let from = self.other_idx();
                let src = self.node_on(self.params.router_in_group(self.group, from));
                let dst_group = self.other_group(&[]);
                let dst = self.node_in(dst_group);
                let mut p = self.packet(src, dst, size);
                self.after_local_hop(&mut p, from);
                p
            }
            // Source group, already committed to a Valiant group (0 or 1 local hops).
            2 => {
                let dst_group = self.other_group(&[]);
                let ig = self.other_group(&[dst_group]);
                let dst = self.node_in(dst_group);
                let mut p = if self.coin() {
                    let from = self.other_idx();
                    let src = self.node_on(self.params.router_in_group(self.group, from));
                    let mut p = self.packet(src, dst, size);
                    self.after_local_hop(&mut p, from);
                    p
                } else {
                    let src = self.node_on(here);
                    self.packet(src, dst, size)
                };
                p.route.intermediate_group = Some(ig);
                p.route.global_misrouted = true;
                p.route.source_decision_taken = true;
                p
            }
            // Intermediate group, just arrived / after a local misroute.
            3 | 4 => {
                let src_group = self.other_group(&[]);
                let dst_group = self.other_group(&[src_group]);
                let dst = self.node_in(dst_group);
                let mut p = self.arrived(src_group, dst, size);
                p.route.intermediate_group = Some(self.group);
                p.route.reached_intermediate = true;
                p.route.global_misrouted = true;
                p.route.source_decision_taken = true;
                if template == 4 {
                    let from = self.other_idx();
                    self.after_local_hop(&mut p, from);
                    self.mark_locally_misrouted(&mut p);
                }
                p
            }
            // Destination group (minimal or Valiant arrival), just arrived / after
            // a local misroute.
            5 | 6 => {
                let src_group = self.other_group(&[]);
                let to = self.other_idx();
                let dst = self.node_on(self.params.router_in_group(self.group, to));
                let mut p = self.arrived(src_group, dst, size);
                if self.coin() {
                    p.route.intermediate_group = Some(self.other_group(&[src_group]));
                    p.route.reached_intermediate = true;
                    p.route.global_misrouted = true;
                    p.route.source_decision_taken = true;
                    p.route.global_hops = 2;
                    p.route.total_hops += 1;
                }
                if template == 6 {
                    let from = self.other_idx();
                    self.after_local_hop(&mut p, from);
                    self.mark_locally_misrouted(&mut p);
                }
                p
            }
            // Group-local traffic, fresh at the injection router; half of it to
            // the next router, the link ADVL+1 saturates.
            7 => {
                let src = self.node_on(here);
                let to = if self.coin() {
                    (self.idx + 1) % self.params.routers_per_group()
                } else {
                    self.other_idx()
                };
                let dst = self.node_on(self.params.router_in_group(self.group, to));
                self.packet(src, dst, size)
            }
            // At the destination router: only the ejection port is left.
            8 => {
                let src_group = self.other_group(&[]);
                let dst = self.node_on(here);
                self.arrived(src_group, dst, size)
            }
            _ => unreachable!("template out of range"),
        }
    }
}

const TEMPLATES: usize = 9;

/// The piggybacked congestion flags of every group, as the engine's board
/// computes them from the global outputs.
fn congestion_flags<R: RoutingAlgorithm>(net: &Network<R>) -> Vec<Vec<bool>> {
    let params = net.params();
    let h = params.h();
    (0..params.groups())
        .map(|g| {
            (0..params.global_channels_per_group())
                .map(|d| {
                    let (ridx, gport) = params.global_channel_owner(d);
                    let router = g * params.routers_per_group() + ridx;
                    let out = &net.routers[router].outputs[Port::Global(gport).flat(h)];
                    out.total_occupancy() as f64
                        > net.config.pb_congestion_threshold * out.total_capacity() as f64
                })
                .collect()
        })
        .collect()
}

/// Overwrite every output VC's credit count and owner, and every congestion
/// flag, with seeded noise: states the driven scenarios reach rarely or never
/// (a nearly full local port under PB, an owned-but-empty VC, ...).
fn scramble(outputs: &mut [OutputPort], flags: &mut [bool], rng: &mut Rng) {
    for vc in outputs.iter_mut().flat_map(|o| o.vcs.iter_mut()) {
        vc.set_owner((rng.gen_index(4) == 0).then_some((0, 0)));
        vc.credits = match rng.gen_index(4) {
            0 => vc.downstream_capacity,
            _ => rng.gen_index(vc.downstream_capacity as usize + 1) as u32,
        };
    }
    for flag in flags {
        *flag = rng.gen_index(3) == 0;
    }
}

/// Builds a network around the concrete mechanism, drives it with the spec's
/// traffic (or scrambles its idle state), freezes it, and probes it.
struct Probe<'a> {
    spec: &'a ExperimentSpec,
    scrambled: bool,
}

impl RoutingVisitor for Probe<'_> {
    type Output = Tally;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Tally {
        let spec = self.spec;
        let config = spec.sim_config();
        let traffic = spec.traffic.build(&config.params);
        let size = spec.flow_control.packet_size();
        let mut sim = Simulation::with_routing(config, routing.clone(), traffic);
        if !self.scrambled {
            sim.network_mut()
                .set_injection(Some(BernoulliInjection::new(spec.offered_load, size)));
            sim.run_cycles(FREEZE_CYCLES);
        }
        let mut flags = congestion_flags(sim.network());
        if self.scrambled {
            let mut noise = Rng::seed_from(derive_seed(spec.seed, u64::MAX));
            let net = sim.network_mut();
            let per_group = net.params().routers_per_group();
            for (r, router) in net.routers.iter_mut().enumerate() {
                scramble(&mut router.outputs, &mut flags[r / per_group], &mut noise);
            }
        }

        let net = sim.network();
        let params = net.params();
        let ctx = RouteCtx {
            cycle: net.cycle,
            params,
            config: &net.config,
        };
        let mut tally = Tally::new();
        for router in &net.routers {
            let group = params.group_of_router(router.id);
            let view = RouterView {
                router: router.id,
                outputs: &router.outputs,
                params,
                config: &net.config,
                global_congested: Some(&flags[group.index()]),
            };
            let mut draw = PacketDraw {
                params,
                router: router.id,
                group,
                idx: params.router_index_in_group(router.id),
                rng: Rng::seed_from(derive_seed(spec.seed, router.id.index() as u64)),
            };
            for template in 0..TEMPLATES {
                for k in 0..DRAWS {
                    let packet = draw.draw(template, size);
                    let stream = (router.id.index() * TEMPLATES + template) as u64 * DRAWS + k;
                    let mut rng = Rng::seed_from(derive_seed(!spec.seed, stream));
                    let choice = routing.route(&ctx, &packet, &view, &mut rng);
                    tally.fold(&choice, rng.next_u64());
                }
            }
        }
        tally
    }
}

/// Outcomes a mechanism must show at least once over all of its cases; every
/// other outcome must never occur.
fn reachable(kind: RoutingKind) -> &'static [Outcome] {
    use Outcome::*;
    match kind {
        RoutingKind::Minimal => &[Productive],
        RoutingKind::Valiant | RoutingKind::Piggybacking => {
            &[Productive, GlobalDirect, GlobalIndirect]
        }
        RoutingKind::Par => &[Productive, GlobalDirect, GlobalIndirect, Stall],
        RoutingKind::Par62 | RoutingKind::Rlm | RoutingKind::Olm => {
            &[Productive, LocalDetour, GlobalDirect, GlobalIndirect, Stall]
        }
    }
}

#[test]
fn route_decisions_match_golden() {
    // (traffic driving the network, offered load); `None` = scrambled.
    let scenarios = [
        Some((TrafficKind::AdversarialGlobal(1), 0.5)),
        Some((TrafficKind::AdversarialLocal(1), 0.9)),
        None,
    ];
    let mut actual = String::new();
    for kind in RoutingKind::ALL {
        let mut totals = [0u64; OUTCOMES.len()];
        for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
            if fc == FlowControlKind::Wormhole && !kind.supports_wormhole() {
                continue;
            }
            for h in [2, 3] {
                for scenario in &scenarios {
                    let mut spec = ExperimentSpec::new(h);
                    spec.routing = kind;
                    spec.flow_control = fc;
                    spec.seed = 1_813;
                    let label = match scenario {
                        Some((traffic, load)) => {
                            spec.traffic = traffic.clone();
                            spec.offered_load = *load;
                            format!("{}@{load}", traffic.name())
                        }
                        None => "scrambled".to_string(),
                    };
                    let tally = kind.dispatch(
                        AdaptiveParams::with_threshold(spec.threshold),
                        Probe {
                            spec: &spec,
                            scrambled: scenario.is_none(),
                        },
                    );
                    write!(
                        actual,
                        "{} {} h={h} {label} calls={}",
                        kind.name(),
                        fc.name(),
                        tally.calls()
                    )
                    .unwrap();
                    for (slot, (_, label)) in OUTCOMES.iter().enumerate() {
                        write!(actual, " {label}={}", tally.counts[slot]).unwrap();
                        totals[slot] += tally.counts[slot];
                    }
                    writeln!(actual, " digest={:016x}", tally.digest).unwrap();
                }
            }
        }
        for (slot, (outcome, label)) in OUTCOMES.iter().enumerate() {
            if reachable(kind).contains(outcome) {
                assert!(
                    totals[slot] > 0,
                    "{}: outcome `{label}` never occurred — the pin is vacuous for it",
                    kind.name()
                );
            } else {
                assert_eq!(
                    totals[slot],
                    0,
                    "{}: outcome `{label}` must be impossible",
                    kind.name()
                );
            }
        }
    }

    let path = fixture_path();
    if std::env::var_os("BLESS_ROUTING").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixture dir");
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); run \
             `BLESS_ROUTING=1 cargo test --release --test routing_decisions` \
             at a known-good revision to capture it"
        )
    });
    for (line, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "routing decisions diverged from {path:?} at line {}",
            line + 1
        );
    }
    assert_eq!(golden, actual, "routing decision fixture {path:?} diverged");
}
