//! What a shard allocates: an exact partition of the sequential network.
//!
//! Each shard of a `ShardedSimulation` is a `Network` built for its own router
//! range (`Network::with_owned_routers`).  Ids stay global, so the id-indexed
//! arrays keep their full length on every shard, but the pools behind them —
//! the input fabric (every input VC), the routers' output
//! ports, link pipelines, the packet arena, the delay table when the delay
//! probe is armed, source-queue reservations — are sized by ownership.  This
//! file pins that in
//! bytes of requested capacity (`Network::allocated_bytes`), which is exact and
//! repeatable where a resident-set sample is neither:
//!
//! * summed over the shards, every pool equals the sequential network's;
//! * except the fabric pools, which exceed it by exactly the one-slot export
//!   ring each boundary link keeps on its launching side — one phit slot on
//!   the transmitting shard, one credit-mask slot on the receiving shard —
//!   counted here from the topology;
//! * and the full-range network allocates what the constructor's sizing rules
//!   say, written out below independently of the constructor.
//!
//! The end-to-end counterpart (`peak_rss_mb` of `un_h8_shard2` against
//! `un_h8`) is the perf ledger's `shard.rss_ratio`.

use std::mem::size_of;

use dragonfly::core::{ProbeConfig, ShardPlan, ShardedSimulation};
use dragonfly::routing::MinimalRouting;
use dragonfly::sim::{
    DelayState, InputVc, LinkEnd, Network, OutputPort, OutputVc, Packet, PacketId, PhitInFlight,
    PoolBytes, SimConfig,
};
use dragonfly::topology::{Port, PortKind};
use dragonfly::traffic::Uniform;

/// Bytes of a phit slot (a packet id and a tag byte) and of a credit slot (a
/// VC mask byte), pinned by `fabric::tests::pipeline_entries_stay_compact`.
const PHIT: usize = 9;
const CREDIT: usize = 1;
/// A source queue reserves four 24-byte entries per node.
const SOURCE_QUEUE: usize = 4 * 24;

/// The delay probe alone: what arms the per-packet delay table.
fn delay_probe() -> ProbeConfig {
    ProbeConfig {
        delay: true,
        ..ProbeConfig::default()
    }
}

/// A packet carries only what routing and the statistics read; the delay
/// ledger lives in the delay table, which the delay probe arms.
#[test]
fn a_packet_is_56_bytes() {
    assert_eq!(size_of::<Packet>(), 56);
    assert_eq!(size_of::<DelayState>(), 56);
}

fn sharded(config: &SimConfig, shards: usize) -> ShardedSimulation<MinimalRouting> {
    ShardedSimulation::new(
        config.clone(),
        ShardPlan::new(shards),
        MinimalRouting::new(),
        || Box::new(Uniform::new()),
    )
}

fn sequential(config: &SimConfig) -> Network<MinimalRouting> {
    Network::with_routing(
        config.clone(),
        MinimalRouting::new(),
        Box::new(Uniform::new()),
    )
}

/// The sizing rules of the whole machine, from the configuration alone.
fn whole_machine(config: &SimConfig) -> PoolBytes {
    let params = config.params;
    let h = params.h();
    let mut per_router = PoolBytes::default();
    for flat in 0..params.ports_per_router() {
        let kind = Port::from_flat(flat, h).kind();
        let vcs = config.vcs_for(kind);
        // A node feeds its injection port through one FIFO.
        let input_vcs = if kind == PortKind::Terminal { 1 } else { vcs };
        // The packets a VC holds are listed through the arena's links.
        per_router.input_fabric += input_vcs * size_of::<InputVc>();
        per_router.port_vectors += size_of::<OutputPort>() + vcs * size_of::<OutputVc>();
        // The link behind this output port: one phit slot and one credit
        // slot per arrival cycle in flight, `latency + 1` of each.
        let slots = config.latency_for(kind) as usize + 1;
        per_router.fabric_pools += slots * (PHIT + CREDIT);
    }
    let (routers, nodes) = (params.num_routers(), params.num_nodes());
    PoolBytes {
        input_fabric: routers * per_router.input_fabric,
        port_vectors: routers * per_router.port_vectors,
        fabric_pools: routers * per_router.fabric_pools,
        arena: config.arena_prealloc_for(nodes) * (size_of::<Packet>() + size_of::<u32>()),
        delay_table: 0,
        source_queues: nodes * SOURCE_QUEUE,
    }
}

/// Field-wise sum of the pools of a sharded run.
fn sum_over_shards(sim: &ShardedSimulation<MinimalRouting>) -> PoolBytes {
    let mut sum = PoolBytes::default();
    for s in 0..sim.shards() {
        let bytes = sim.network(s).allocated_bytes();
        sum.input_fabric += bytes.input_fabric;
        sum.port_vectors += bytes.port_vectors;
        sum.fabric_pools += bytes.fabric_pools;
        sum.arena += bytes.arena;
        sum.delay_table += bytes.delay_table;
        sum.source_queues += bytes.source_queues;
    }
    sum
}

#[test]
fn shards_partition_the_sequential_pools_exactly() {
    for h in [3, 4] {
        let config = SimConfig::paper_vct(h).with_seed(3);
        let params = config.params;
        let ports = params.ports_per_router();
        let rpg = params.routers_per_group();
        let whole = sequential(&config);
        let expected = whole.allocated_bytes();
        assert_eq!(expected, whole_machine(&config), "h={h}: full-range sizing");

        for shards in 1..=4 {
            let case = format!("h={h}, {shards} shards");
            let sim = sharded(&config, shards);
            let sum = sum_over_shards(&sim);

            // The export rings of the boundary links, from the topology: a
            // link is a boundary link when its two routers' groups fall into
            // different ranges of the plan.
            let ranges = ShardPlan::new(shards).group_ranges(&params);
            let shard_of = |router: usize| {
                ranges
                    .iter()
                    .position(|g| g.contains(&(router / rpg)))
                    .unwrap()
            };
            let mut export_rings = 0;
            let mut boundary = 0;
            for li in 0..whole.num_links() {
                if let LinkEnd::Router { router, .. } = whole.link_end(li) {
                    if shard_of(li / ports) != shard_of(router) {
                        let kind = Port::from_flat(li % ports, h).kind();
                        assert_eq!(kind, PortKind::Global, "{case}: link {li}");
                        export_rings += PHIT + CREDIT;
                        boundary += 1;
                    }
                }
            }
            assert_eq!(boundary == 0, shards == 1, "{case}");

            assert_eq!(
                sum.input_fabric, expected.input_fabric,
                "{case}: input fabric"
            );
            assert_eq!(
                sum.port_vectors, expected.port_vectors,
                "{case}: port vectors"
            );
            assert_eq!(sum.arena, expected.arena, "{case}: arena");
            assert_eq!(sum.delay_table, 0, "{case}: delay table without the probe");
            assert_eq!(
                sum.source_queues, expected.source_queues,
                "{case}: source queues"
            );
            assert_eq!(
                sum.fabric_pools,
                expected.fabric_pools + export_rings,
                "{case}: fabric pools ({boundary} boundary links)"
            );
        }
    }
}

/// The delay table exists only while the delay probe is armed: one
/// `DelayState` per arena slot, partitioned across shards like the arena.
#[test]
fn the_delay_probe_arms_one_ledger_per_arena_slot() {
    for h in [3, 4] {
        let config = SimConfig::paper_vct(h).with_seed(3);
        let slots = config.arena_prealloc_for(config.params.num_nodes());
        let mut whole = sequential(&config);
        assert_eq!(whole.allocated_bytes().delay_table, 0, "h={h}: probe off");
        whole.install_probes(ProbeConfig::default());
        assert_eq!(
            whole.allocated_bytes().delay_table,
            0,
            "h={h}: probe on, delay ledger off"
        );
        whole.install_probes(delay_probe());
        let expected = slots * size_of::<DelayState>();
        assert_eq!(whole.allocated_bytes().delay_table, expected, "h={h}");
        for shards in 1..=4 {
            let mut sim = sharded(&config, shards);
            sim.install_probes(delay_probe());
            assert_eq!(
                sum_over_shards(&sim).delay_table,
                expected,
                "h={h}, {shards} shards"
            );
        }
    }
}

/// The paper-scale machine (h = 8: 2 064 routers, 16 512 nodes) allocates
/// exactly what the sizing rules say — the layout the hot-path size pins in
/// `dragonfly_sim` price per entry, summed at the scale the `un_h8` perf
/// workload runs.
#[test]
#[ignore = "paper scale (16k nodes); run in release mode"]
fn paper_scale_pools_match_the_size_formula() {
    let config = SimConfig::paper_vct(8);
    let bytes = sequential(&config).allocated_bytes();
    assert_eq!(bytes, whole_machine(&config));
    // 69 input VCs per router (one VC per injection port) of 32 bytes.
    assert_eq!(bytes.input_fabric, 2_064 * 69 * size_of::<InputVc>());
    assert_eq!(bytes.input_fabric, 4_557_312);
    // 132 096 arena slots of a 56-byte packet and a 4-byte link (the free
    // list, and the input VCs' packet lists).
    assert_eq!(bytes.arena, 132_096 * 60);
    assert_eq!(bytes.arena, 7_925_760);
    assert_eq!(bytes.delay_table, 0);
    // 989 phit slots (9 bytes) and 989 credit slots (1 byte) per router.
    assert_eq!(bytes.fabric_pools, 2_064 * 989 * (9 + 1));
    assert_eq!(bytes.fabric_pools, 20_412_960);
}

/// A phit handed to a network that owns neither end of the link must not
/// vanish into a zero-capacity ring or sit in a pipeline nothing drains: the
/// import names the link and panics.
#[test]
fn importing_onto_a_link_with_no_owned_end_panics_with_the_link_id() {
    let config = SimConfig::paper_vct(2).with_seed(3);
    let ports = config.params.ports_per_router();
    let mut sim = sharded(&config, 3);
    let owns = |sim: &ShardedSimulation<MinimalRouting>, s: usize, router: usize| {
        sim.network(s).owned_routers().contains(&router)
    };
    // A link from shard 0 into shard 1: shard 2 owns neither end.
    let li = (0..sim.network(0).num_links())
        .find(|&li| match sim.network(0).link_end(li) {
            LinkEnd::Router { router, .. } => owns(&sim, 0, li / ports) && owns(&sim, 1, router),
            LinkEnd::Node { .. } => false,
        })
        .expect("shards 0 and 1 share a link");
    let phit = PhitInFlight::new(PacketId(0), 0, true, true);

    let bystander = sim.network_mut(2);
    assert!(bystander.check_due_sets().is_ok());
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        bystander.import_link_phit(li, phit)
    }))
    .expect_err("the import must panic");
    let message = panic
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(message.contains(&format!("link {li}:")), "{message}");

    // The transmitting shard cannot import its own launch back either (its
    // export ring has a slot for one phit, so this would otherwise succeed).
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.network_mut(0).import_link_phit(li, phit)
    }))
    .expect_err("the import must panic");
    let message = panic.downcast_ref::<String>().unwrap();
    assert!(message.contains(&format!("link {li}:")), "{message}");

    // The owner of the receiving router takes it.
    sim.network_mut(1).import_link_phit(li, phit);
    assert_eq!(sim.network(1).link_phits_in_flight(li), 1);
}
