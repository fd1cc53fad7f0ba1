//! What a shard allocates: an exact partition of the sequential network.
//!
//! Each shard of a `ShardedSimulation` is a `Network` built for its own router
//! range (`Network::with_owned_routers`).  Ids stay global, so the id-indexed
//! arrays keep their full length on every shard, but the pools behind them —
//! the input fabric (every input VC), the routers' output
//! ports, link pipelines, the packet arena, the delay table when the delay
//! probe is armed, the source queues and their record pool — are sized by
//! ownership.  This
//! file pins that in
//! bytes of requested capacity (`Network::allocated_bytes`), which is exact and
//! repeatable where a resident-set sample is neither:
//!
//! * summed over the shards, every pool equals the sequential network's;
//! * except the fabric pools, which exceed it by exactly the one-slot export
//!   ring each boundary link keeps on its launching side — one phit slot and
//!   a one-id head FIFO on the transmitting shard, one credit-mask slot on
//!   the receiving shard — counted here from the topology;
//! * and the arena (and the delay table), reserved at each instance's arena
//!   bound, which the shards partition exactly, but never below the
//!   reservation floor;
//! * and the full-range network allocates what the constructor's sizing rules
//!   say, written out below independently of the constructor.
//!
//! The end-to-end counterpart (`peak_rss_mb` of `un_h8_shard2` against
//! `un_h8`) is the perf ledger's `shard.rss_ratio`.

use std::mem::size_of;

use dragonfly::core::{ProbeConfig, ShardPlan, ShardedSimulation};
use dragonfly::routing::MinimalRouting;
use dragonfly::sim::{
    DelayState, EngineHost, InputVc, LinkEnd, Network, OutputPort, OutputVc, Packet, PacketId,
    PhitInFlight, PoolBytes, SimConfig,
};
use dragonfly::topology::{Port, PortKind};
use dragonfly::traffic::Uniform;

/// Bytes of a phit slot (a tag byte), of a credit slot (a VC mask byte) and
/// of a head FIFO entry or ejection register (a packet id), pinned by
/// `fabric::tests::pipeline_entries_stay_compact`.
const PHIT: usize = 1;
const CREDIT: usize = 1;
const ID: usize = 4;
/// An owned node's source queue is a `(head, tail, phits fed)` triple of
/// 12 bytes, and the record pool reserves four 24-byte records per owned
/// node (a generated packet and its link).
const SOURCE_QUEUE: usize = 12 + 4 * 24;
/// The fewest slots an arena reserves: ⌊32 MiB / 48 B⌋ + 1, so the slab is
/// at least 32 MiB, the size from which glibc always maps fresh memory.
const MIN_RESERVED: usize = 699_051;
/// Bytes of one arena slot: a 48-byte packet and its 4-byte link.
const SLOT: usize = 48 + 4;

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
fn a_packet_is_48_bytes() {
    assert_eq!(size_of::<Packet>(), 48);
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

/// The arena slots the whole machine reserves: per router, `⌊c / p⌋ + 2`
/// for each input VC of `c` phits and each ejection VC (`p`-phit packets).
/// An ejection VC faces its node with `max(4p, injection_buffer)` phits.
///
/// At the paper's VCT configuration (p = 8; 32-phit local and injection
/// buffers, 256-phit global ones; 3 local and 2 global VCs) a router has
/// h injection VCs of 6 slots, 3(2h − 1) local VCs of 6, 2h global VCs of
/// 34 and 3h ejection VCs of 32 / 8 + 2 = 6: 6h + 36h − 18 + 68h + 18h =
/// 128h − 18 slots, which is 366 at h = 3, 494 at h = 4 and 1 006 at h = 8.
fn arena_slots(config: &SimConfig) -> usize {
    let params = config.params;
    let h = params.h();
    let packets = |phits: usize| phits / config.packet_size + 2;
    let ejection = (4 * config.packet_size).max(config.injection_buffer);
    let per_router: usize = (0..params.ports_per_router())
        .map(|flat| match Port::from_flat(flat, h).kind() {
            PortKind::Terminal => {
                packets(config.injection_buffer) + config.local_vcs * packets(ejection)
            }
            PortKind::Local => config.local_vcs * packets(config.local_buffer),
            PortKind::Global => config.global_vcs * packets(config.global_buffer),
        })
        .sum();
    params.num_routers() * per_router
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
        // slot per arrival cycle in flight, `latency + 1` of each, and a head
        // FIFO of one id per head those slots can hold — one a slot while the
        // VCs outnumber the slots, else one head per VC plus one per whole
        // packet that fits in the slots left (every packet of a VC but the
        // last whose head is in flight is wholly in flight).
        let slots = config.latency_for(kind) as usize + 1;
        let heads = if slots <= vcs {
            slots
        } else {
            (slots - vcs) / config.packet_size + vcs
        };
        per_router.fabric_pools += slots * (PHIT + CREDIT) + heads * ID;
    }
    let (routers, nodes) = (params.num_routers(), params.num_nodes());
    PoolBytes {
        input_fabric: routers * per_router.input_fabric,
        port_vectors: routers * per_router.port_vectors,
        fabric_pools: routers * per_router.fabric_pools,
        // The packet each ejection VC has open.
        ejection: nodes * config.vcs_for(PortKind::Terminal) * ID,
        arena: arena_slots(config).max(MIN_RESERVED) * SLOT,
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
        sum.ejection += bytes.ejection;
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
                        export_rings += PHIT + ID + CREDIT;
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
            assert_eq!(sum.ejection, expected.ejection, "{case}: ejection");
            let bounds: Vec<usize> = (0..shards).map(|s| sim.network(s).arena_bound()).collect();
            assert_eq!(
                bounds.iter().sum::<usize>(),
                arena_slots(&config),
                "{case}: arena bounds"
            );
            assert_eq!(
                sum.arena,
                bounds.iter().map(|&b| b.max(MIN_RESERVED) * SLOT).sum(),
                "{case}: arena"
            );
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
/// `DelayState` reserved per reserved arena slot, on every shard.
#[test]
fn the_delay_probe_arms_one_ledger_per_arena_slot() {
    let ledger = |bound: usize| bound.max(MIN_RESERVED) * size_of::<DelayState>();
    for h in [3, 4] {
        let config = SimConfig::paper_vct(h).with_seed(3);
        let mut whole = sequential(&config);
        assert_eq!(whole.allocated_bytes().delay_table, 0, "h={h}: probe off");
        whole.install_probes(ProbeConfig::default());
        assert_eq!(
            whole.allocated_bytes().delay_table,
            0,
            "h={h}: probe on, delay ledger off"
        );
        whole.install_probes(delay_probe());
        assert_eq!(
            whole.allocated_bytes().delay_table,
            ledger(arena_slots(&config)),
            "h={h}"
        );
        for shards in 1..=4 {
            let mut sim = sharded(&config, shards);
            sim.install_probes(delay_probe());
            for s in 0..shards {
                assert_eq!(
                    sim.network(s).allocated_bytes().delay_table,
                    ledger(sim.network(s).arena_bound()),
                    "h={h}, {shards} shards, shard {s}"
                );
            }
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
    // 69 input VCs per router (one VC per injection port) of 16 bytes.
    assert_eq!(bytes.input_fabric, 2_064 * 69 * size_of::<InputVc>());
    assert_eq!(bytes.input_fabric, 2_064 * 69 * 16);
    assert_eq!(bytes.input_fabric, 2_278_656);
    // 1 006 arena slots per router (128h − 18, see `arena_slots`) of a
    // 48-byte packet and a 4-byte link (the free list, and the input VCs'
    // packet lists): reserved, resident only as far as slots are used.
    assert_eq!(bytes.arena, 2_064 * 1_006 * SLOT);
    assert_eq!(bytes.arena, 107_971_968);
    assert_eq!(bytes.delay_table, 0);
    // 989 phit slots (a 1-byte tag) and 989 credit slots (1 byte) per
    // router, and head FIFOs of 4-byte ids: 8 terminal links of 2 slots
    // and 3 VCs hold 2 each; 15 local links of 11 slots and 3 VCs hold
    // (11 − 3) / 8 + 3 = 4; 8 global links of 101 slots and 2 VCs hold
    // (101 − 2) / 8 + 2 = 14.  8 × 2 + 15 × 4 + 8 × 14 = 188 ids.
    assert_eq!(bytes.fabric_pools, 2_064 * (989 * 2 + 188 * 4));
    assert_eq!(bytes.fabric_pools, 5_634_720);
    // An ejection register per node and ejection VC.
    assert_eq!(bytes.ejection, 16_512 * 3 * 4);
    // Per node a 12-byte queue triple and 4 reserved 24-byte records.
    assert_eq!(bytes.source_queues, 16_512 * (12 + 4 * 24));
    assert_eq!(bytes.source_queues, 1_783_296);
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
    let phit = PhitInFlight::head(PacketId(0), 0, true);

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
