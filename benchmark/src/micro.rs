//! Per-layer rows that no workload isolates: the cost of each primitive under
//! the pipeline phases, and the price of the optional layers (probes, the
//! shard barrier) as interleaved off/on pairs.  All min-of-N: interference on
//! a shared box only ever adds time.

use crate::surface::{
    adaptive_params, build_engine, build_sharded, ActiveSet, AdversarialGlobal, AdversarialLocal,
    BernoulliInjection, DragonflyParams, ExactStats, ExperimentSpec, FlowControlKind, Histogram,
    Network, NodeId, Packet, PacketArena, PacketId, Port, ProbeConfig, RingMeta, Rng, RouteCtx,
    RouterId, RouterView, RoutingAlgorithm, RoutingKind, RoutingVisitor, SampleSnapshot,
    TrafficKind, TrafficPattern, Uniform,
};
use std::hint::black_box;
use std::time::Instant;

/// One measured row: name, value, unit.
pub type Row = (String, f64, &'static str);

const BATCHES: usize = 7;

/// Nanoseconds per operation: the fastest of [`BATCHES`] batches, each timing
/// `ops` operations performed by one call of `batch`.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy state
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn row(name: impl Into<String>, ns: f64) -> Row {
    (name.into(), ns, "ns")
}

/// Lower-case metric suffix of a mechanism (`PAR-6/2` → `par62`).
pub fn mechanism_slug(kind: RoutingKind) -> String {
    kind.name()
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect::<String>()
        .to_ascii_lowercase()
}

fn sim_primitives(rows: &mut Vec<Row>) {
    // Packed ring over a caller-owned pool region, as every link and VC uses it.
    const CAP: usize = 32;
    let mut pool = vec![0u64; CAP];
    let mut ring = RingMeta::new(CAP);
    let rounds = 4_000u64;
    let ns = ns_per_op(rounds * CAP as u64, || {
        for round in 0..rounds {
            for i in 0..CAP as u64 {
                ring.push_back(&mut pool, round ^ i);
            }
            for _ in 0..CAP {
                black_box(ring.pop_front(&pool));
            }
        }
        black_box(&pool);
    });
    rows.push(row("sim.ring_push_pop_ns", ns));

    // One sweep of a link-sized active set (h = 8 has 63 984 links).
    const LINKS: usize = 64 * 1024;
    for pct in [1usize, 50, 100] {
        let mut set = ActiveSet::new(LINKS);
        let mut rng = Rng::seed_from(pct as u64);
        while set.len() < LINKS * pct / 100 {
            set.insert(rng.gen_index(LINKS));
        }
        let sweeps = 40u64;
        let ns = ns_per_op(sweeps, || {
            for _ in 0..sweeps {
                let (mut cursor, mut seen) = (0, 0usize);
                while let Some(i) = set.next_at_or_after(cursor) {
                    cursor = i + 1;
                    seen += 1;
                }
                black_box(seen);
            }
        });
        rows.push(row(format!("sim.active_set_sweep_ns.{pct}pct"), ns));
    }

    let mut arena = PacketArena::with_capacity(1_024);
    let pairs = 100_000u64;
    let ns = ns_per_op(pairs, || {
        for i in 0..pairs {
            let id = arena.alloc(NodeId(0), NodeId(1), 8, i);
            arena.free(black_box(id));
        }
        black_box(&arena);
    });
    rows.push(row("sim.arena_alloc_free_ns", ns));
}

/// Times `route()` of one mechanism over every router of a frozen network.
struct RouteBench<'a, F: RoutingAlgorithm> {
    net: &'a Network<F>,
    flags: &'a [Vec<bool>],
    samples: &'a [(usize, Packet)],
}

impl<F: RoutingAlgorithm> RoutingVisitor for RouteBench<'_, F> {
    type Output = f64;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> f64 {
        let net = self.net;
        let params = net.params();
        let ctx = RouteCtx {
            cycle: net.cycle,
            params,
            config: &net.config,
        };
        let mut rng = Rng::seed_from(7);
        let repeats = 16u64;
        ns_per_op(repeats * self.samples.len() as u64, || {
            for _ in 0..repeats {
                for (r, packet) in self.samples {
                    let router = &net.routers[*r];
                    let group = params.group_of_router(router.id).index();
                    let view = RouterView {
                        router: router.id,
                        outputs: &router.outputs,
                        params,
                        config: &net.config,
                        global_congested: Some(&self.flags[group]),
                    };
                    black_box(routing.route(&ctx, packet, &view, &mut rng));
                }
            }
        })
    }
}

/// Builds the frozen network the route() rows read: an h = 4 VCT network with
/// six local VCs (so every mechanism's ladder fits), either untouched (`idle`)
/// or after 1 500 cycles of ADVG+1 at load 0.5 under minimal routing, which
/// leaves the minimal global outputs full (`congested`).
struct FrozenRouteRows<'a> {
    congested: bool,
    rows: &'a mut Vec<Row>,
}

impl RoutingVisitor for FrozenRouteRows<'_> {
    type Output = ();

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) {
        let mut spec = ExperimentSpec::new(4);
        spec.traffic = TrafficKind::AdversarialGlobal(1);
        spec.routing = RoutingKind::Par62; // widest VC ladder: 6 local VCs
        let mut sim = build_engine(&spec, routing);
        if self.congested {
            let packet_size = spec.flow_control.packet_size();
            sim.network_mut()
                .set_injection(Some(BernoulliInjection::new(0.5, packet_size)));
            for _ in 0..1_500 {
                sim.network_mut().step_with_phase_hook(&mut |_| {});
            }
        }
        let net = sim.network();
        let params = *net.params();

        // The piggybacked congestion flags, as the engine's board computes them.
        let h = params.h();
        let flags: Vec<Vec<bool>> = (0..params.groups())
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
            .collect();

        // One fresh packet per router, bound for the next group (ADVG+1).
        let pattern = AdversarialGlobal::new(1);
        let mut rng = Rng::seed_from(11);
        let samples: Vec<(usize, Packet)> = (0..params.num_routers())
            .map(|r| {
                let src = NodeId((r * params.nodes_per_router()) as u32);
                let dst = pattern.destination(src, &params, &mut rng);
                (r, Packet::new(PacketId(0), src, dst, 8, net.cycle))
            })
            .collect();

        let state = if self.congested { "congested" } else { "idle" };
        for kind in RoutingKind::ALL {
            let ns = kind.dispatch(
                adaptive_params(&spec),
                RouteBench {
                    net,
                    flags: &flags,
                    samples: &samples,
                },
            );
            self.rows.push(row(
                format!("routing.route_ns.{}.{state}", mechanism_slug(kind)),
                ns,
            ));
        }
    }
}

fn routing_rows(rows: &mut Vec<Row>) {
    let spec = ExperimentSpec::new(4);
    for congested in [false, true] {
        RoutingKind::Minimal.dispatch(adaptive_params(&spec), FrozenRouteRows { congested, rows });
    }
}

fn leaf_primitives(rows: &mut Vec<Row>) {
    let params = DragonflyParams::new(8);
    let nodes = params.num_nodes();
    let mut rng = Rng::seed_from(3);
    let pairs: Vec<(RouterId, NodeId)> = (0..4_096)
        .map(|_| {
            let src = NodeId(rng.gen_index(nodes) as u32);
            let dst = NodeId(((src.index() + 1 + rng.gen_index(nodes - 1)) % nodes) as u32);
            (params.router_of_node(src), dst)
        })
        .collect();
    let repeats = 8u64;
    let ns = ns_per_op(repeats * pairs.len() as u64, || {
        for _ in 0..repeats {
            for &(router, dst) in &pairs {
                black_box(params.minimal_port(router, dst));
            }
        }
    });
    rows.push(row("topology.min_route_ns", ns));

    let patterns: [(&str, Box<dyn TrafficPattern>); 3] = [
        ("un", Box::new(Uniform::new())),
        ("advg", Box::new(AdversarialGlobal::new(1))),
        ("advl", Box::new(AdversarialLocal::new(1))),
    ];
    for (name, pattern) in patterns {
        let draws = 50_000u64;
        let ns = ns_per_op(draws, || {
            for i in 0..draws {
                let src = NodeId((i % nodes as u64) as u32);
                black_box(pattern.destination(src, &params, &mut rng));
            }
        });
        rows.push(row(format!("traffic.dest_draw_ns.{name}"), ns));
    }

    let draws = 200_000u64;
    let ns = ns_per_op(draws, || {
        for _ in 0..draws {
            black_box(rng.next_u64());
        }
    });
    rows.push(row("rng.next_ns", ns));

    let mut exact = ExactStats::new();
    let mut hist = Histogram::for_latency(32 * 1024);
    let records = 100_000u64;
    let ns = ns_per_op(records, || {
        for i in 0..records {
            exact.push(black_box(100 + (i & 1023)));
        }
        black_box(&exact);
    });
    rows.push(row("stats.record_ns.exact", ns));
    let ns = ns_per_op(records, || {
        for i in 0..records {
            hist.record(black_box((100 + (i & 1023)) as f64));
        }
        black_box(&hist);
    });
    rows.push(row("stats.record_ns.histogram", ns));
}

/// The short h = 4 OLM / UN / 0.2 run the option pairs are measured on.
fn pair_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(4);
    spec.routing = RoutingKind::Olm;
    spec.flow_control = FlowControlKind::Vct;
    spec.traffic = TrafficKind::Uniform;
    spec.offered_load = 0.2;
    (spec.warmup, spec.measure, spec.drain) = (300, 600, 600);
    spec
}

/// Runs [`pair_spec`] once, optionally probed or on the 1-shard engine, and
/// returns the run protocol's wall time in seconds.
struct PairRun {
    probes: Option<ProbeConfig>,
    one_shard: bool,
}

impl RoutingVisitor for PairRun {
    type Output = f64;

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> f64 {
        let spec = pair_spec();
        let (load, w, m, d) = (spec.offered_load, spec.warmup, spec.measure, spec.drain);
        if self.one_shard {
            let mut sim = build_sharded(&spec, routing, 1);
            let start = Instant::now();
            black_box(sim.run_steady_state(load, w, m, d));
            return start.elapsed().as_secs_f64();
        }
        let mut sim = build_engine(&spec, routing);
        if let Some(cfg) = self.probes {
            sim.install_probes(cfg);
        }
        let start = Instant::now();
        black_box(sim.run_steady_state(load, w, m, d));
        start.elapsed().as_secs_f64()
    }
}

fn pair_run(probes: Option<ProbeConfig>, one_shard: bool) -> f64 {
    let spec = pair_spec();
    spec.routing
        .dispatch(adaptive_params(&spec), PairRun { probes, one_shard })
}

/// `probe.sample_ns`: one time-series sample of an h = 4 recorder.
fn probe_sample_row(rows: &mut Vec<Row>) {
    struct TakeRecorder;
    impl RoutingVisitor for TakeRecorder {
        type Output = f64;
        fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> f64 {
            let samples = 256u64;
            let mut best = f64::INFINITY;
            // A recorder stores at most `max_samples`; a fresh one per batch
            // keeps every timed sample on the storing path.
            for _ in 0..BATCHES {
                let mut sim = build_engine(&pair_spec(), routing.clone());
                sim.install_probes(ProbeConfig::default());
                let mut recorder = sim.take_probe().expect("probes were just installed");
                let link_phits = vec![1u64; recorder.dims().links()];
                let start = Instant::now();
                for cycle in 0..samples {
                    recorder.sample(cycle, &link_phits, SampleSnapshot::default());
                }
                best = best.min(start.elapsed().as_nanos() as f64 / samples as f64);
                black_box(recorder.samples());
            }
            best
        }
    }
    let spec = pair_spec();
    let ns = spec.routing.dispatch(adaptive_params(&spec), TakeRecorder);
    rows.push(row("probe.sample_ns", ns));
}

/// Off/on pairs of the optional layers, interleaved, min-of-5 per arm.
/// Reported with the spread of the per-round ratios: on a shared 2-core box a
/// few percent of overhead is below what the pairs resolve.
fn option_pairs(rows: &mut Vec<Row>) {
    const ROUNDS: usize = 5;
    let delay = ProbeConfig {
        delay: true,
        ..ProbeConfig::full_active(256)
    };
    let arms: [(&str, Option<ProbeConfig>, bool); 4] = [
        (
            "probe.overhead_pct.series",
            Some(ProbeConfig::default()),
            false,
        ),
        (
            "probe.overhead_pct.full_active",
            Some(ProbeConfig::full_active(256)),
            false,
        ),
        ("probe.overhead_pct.full_active_delay", Some(delay), false),
        ("shard.tax_pct", None, true),
    ];
    let mut off = Vec::new();
    let mut on: [Vec<f64>; 4] = Default::default();
    for _ in 0..ROUNDS {
        off.push(pair_run(None, false));
        for (times, (_, probes, one_shard)) in on.iter_mut().zip(&arms) {
            times.push(pair_run(probes.clone(), *one_shard));
        }
    }
    let min = |v: &[f64]| crate::stats::min(v).expect("every arm ran ROUNDS times");
    rows.push(("pairs.base_run_s".into(), min(&off), "s"));
    for (times, (name, ..)) in on.iter().zip(&arms) {
        rows.push((
            name.to_string(),
            (min(times) / min(&off) - 1.0) * 100.0,
            "%",
        ));
        let ratios: Vec<f64> = times.iter().zip(&off).map(|(a, b)| a / b).collect();
        let spread = crate::stats::Summary::of(&ratios).map_or(0.0, |s| s.spread());
        rows.push((format!("{name}.spread"), spread * 100.0, "%"));
    }
}

/// The primitive rows: a second or so in total, independent of any workload.
pub fn primitive_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    sim_primitives(&mut rows);
    routing_rows(&mut rows);
    leaf_primitives(&mut rows);
    probe_sample_row(&mut rows);
    rows
}

/// Every row of this module, including the option pairs (several seconds).
pub fn all_rows() -> Vec<Row> {
    let mut rows = primitive_rows();
    option_pairs(&mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_slugs_are_metric_name_safe() {
        let slugs: Vec<String> = RoutingKind::ALL.into_iter().map(mechanism_slug).collect();
        assert_eq!(
            slugs,
            ["par62", "olm", "rlm", "minimal", "valiant", "pb", "par"]
        );
    }

    #[test]
    fn primitive_rows_are_named_once_and_positive() {
        let rows = primitive_rows();
        let mut names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(names.len(), 5 + 14 + 7 + 1);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27, "duplicate row names");
        for (name, value, unit) in &rows {
            assert!(*value > 0.0 && value.is_finite(), "{name} = {value}");
            assert_eq!(*unit, "ns");
        }
    }
}
