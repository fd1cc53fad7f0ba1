//! The network: routers, the link fabric, sources and the per-cycle phases.

use crate::active_set::ActiveSet;
use crate::buffer::{InputFabric, PortGeometry};
use crate::config::SimConfig;
use crate::fabric::{LinkEnd, LinkFabric, LinkSpec, PhitInFlight};
use crate::packet::{DelayState, Leg, Packet, PacketArena, PacketId, RouteState, UNTAGGED};
use crate::router::Router;
use crate::routing_iface::{RouteChoice, RouteCtx, RouterView, RoutingAlgorithm};
use crate::stats_collect::StatsCollector;
use dragonfly_probe::{
    DelaySample, FlightEvent, ProbeConfig, ProbeDims, ProbeRecorder, SampleSnapshot, CLASS_GLOBAL,
    CLASS_LOCAL, CLASS_TERMINAL, FLIGHT_DELIVER, FLIGHT_HOP, FLIGHT_INJECT, NONE_U16,
};
use dragonfly_rng::{derive_seed, Rng};
use dragonfly_topology::{DragonflyParams, NodeId, Port, PortKind, RouterId};
use dragonfly_traffic::{BernoulliInjection, TrafficPattern};
use dragonfly_workload::Schedule;
use std::ops::Range;

/// A generated packet that has not started injecting: everything generation
/// decided about it, and the link to the packet queued behind it at its
/// node, in 24 bytes.  A [`Packet`] is twice that, so the arena slot is
/// taken only when the head phit enters the injection buffer — the backlog
/// of a saturated source costs a record per packet, and the arena holds
/// what is in the network, which the buffers bound.
#[derive(Debug, Clone, Copy)]
struct Generated {
    dst: NodeId,
    gen_cycle: u64,
    job: u16,
    phase: u16,
    measured: bool,
    /// The record behind this one in its node's queue, or in the free list
    /// ([`NIL`] at either's end); set when [`SourceQueues::push`] files it.
    next: u32,
}

/// The end of a list of [`SourceQueues`] records.
const NIL: u32 = u32::MAX;

/// One owned node's queue: its first and last record, and the phits of its
/// part-fed packet already pushed into the injection buffer (0 when none
/// is part-fed).
#[derive(Debug, Clone, Copy)]
struct SourceQueue {
    head: u32,
    tail: u32,
    head_phits_sent: u16,
}

/// Every owned node's unbounded source queue, feeding its router's
/// injection port: records of one slab threaded into a list per node, with
/// a LIFO free list through the same links (the [`PacketArena`]'s pattern).
///
/// A packet leaves its queue when its head phit enters the injection
/// buffer, where it takes its arena slot; the node then feeds the rest of
/// it, counted in `head_phits_sent`, before the next record.  Only owned
/// nodes have a queue, at `node - base`.
#[derive(Debug)]
struct SourceQueues {
    /// First owned node.
    base: usize,
    queues: Vec<SourceQueue>,
    slab: Vec<Generated>,
    /// First record of the free list.
    free: u32,
    /// Records in some node's queue.
    queued: usize,
}

impl SourceQueues {
    /// Records reserved up front per owned node.  Below saturation a queue
    /// holds a packet or two, and a node of a nearly idle machine may
    /// generate its first packet arbitrarily late — a first-push allocation
    /// would never be "warmed up".
    const RESERVED: usize = 4;

    /// Empty queues for the nodes in `owned`.
    fn new(owned: Range<usize>) -> Self {
        let empty = SourceQueue {
            head: NIL,
            tail: NIL,
            head_phits_sent: 0,
        };
        Self {
            base: owned.start,
            queues: vec![empty; owned.len()],
            slab: Vec::with_capacity(owned.len() * Self::RESERVED),
            free: NIL,
            queued: 0,
        }
    }

    /// Make room for `additional` more records without reallocating.
    fn reserve(&mut self, additional: usize) {
        self.slab.reserve_exact(additional);
    }

    /// Append `packet` to `node`'s queue.
    fn push(&mut self, node: usize, mut packet: Generated) {
        packet.next = NIL;
        let at = if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "queued packets beyond u32");
            self.slab.push(packet);
            (self.slab.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.slab[at as usize].next;
            self.slab[at as usize] = packet;
            at
        };
        let queue = &mut self.queues[node - self.base];
        match queue.tail {
            NIL => queue.head = at,
            tail => self.slab[tail as usize].next = at,
        }
        queue.tail = at;
        self.queued += 1;
    }

    /// Account one phit of `node`'s front packet, `size` phits long, fed
    /// into the injection buffer: the packet itself when this is its head,
    /// which takes it off the queue, and whether this is its tail.
    ///
    /// # Panics
    ///
    /// Panics when `node` has nothing to feed.
    #[inline]
    fn feed_phit(&mut self, node: usize, size: u16) -> (Option<Generated>, bool) {
        let queue = &mut self.queues[node - self.base];
        let mut opened = None;
        if queue.head_phits_sent == 0 {
            let at = queue.head;
            assert_ne!(
                at, NIL,
                "node {node}: a phit fed from an empty source queue"
            );
            let packet = self.slab[at as usize];
            queue.head = packet.next;
            if packet.next == NIL {
                queue.tail = NIL;
            }
            self.slab[at as usize].next = self.free;
            self.free = at;
            self.queued -= 1;
            opened = Some(packet);
        }
        queue.head_phits_sent += 1;
        let is_tail = queue.head_phits_sent == size;
        if is_tail {
            queue.head_phits_sent = 0;
        }
        (opened, is_tail)
    }

    /// True when `node` has no packet queued or part-fed.
    #[inline]
    fn is_empty(&self, node: usize) -> bool {
        let queue = &self.queues[node - self.base];
        queue.head == NIL && queue.head_phits_sent == 0
    }

    /// Heap bytes of the per-node ends and the slab (capacity × size).
    fn allocated_bytes(&self) -> usize {
        self.queues.capacity() * std::mem::size_of::<SourceQueue>()
            + self.slab.capacity() * std::mem::size_of::<Generated>()
    }

    /// Check that the queues and the free list partition the slab, and that
    /// `queued` counts the queues' records; `Err` says which count is off.
    fn check(&self) -> Result<(), String> {
        let walk = |mut at: u32| {
            let mut len = 0;
            while at != NIL && len <= self.slab.len() {
                len += 1;
                at = self.slab[at as usize].next;
            }
            len
        };
        let queued: usize = self.queues.iter().map(|q| walk(q.head)).sum();
        let free = walk(self.free);
        if queued != self.queued || queued + free != self.slab.len() {
            return Err(format!(
                "source queues: {queued} records queued (counted {}) and {free} free of {}",
                self.queued,
                self.slab.len()
            ));
        }
        Ok(())
    }
}

/// Per-group board of piggybacked global-channel congestion flags.
#[derive(Debug)]
pub struct GlobalStatusBoard {
    flags: Vec<bool>,
    channels_per_group: usize,
}

impl GlobalStatusBoard {
    fn new(groups: usize, channels_per_group: usize) -> Self {
        Self {
            flags: vec![false; groups * channels_per_group],
            channels_per_group,
        }
    }

    /// The congestion flags of one group, indexed by global channel.
    pub fn group(&self, group: usize) -> &[bool] {
        let start = group * self.channels_per_group;
        &self.flags[start..start + self.channels_per_group]
    }

    /// Number of congestion flags currently set (probe time series).
    pub fn congested_count(&self) -> u64 {
        self.flags.iter().filter(|&&f| f).count() as u64
    }

    fn set(&mut self, group: usize, channel: usize, value: bool) {
        self.flags[group * self.channels_per_group + channel] = value;
    }
}

/// What a [`Network`] allocated for its pools, in bytes of capacity
/// ([`Network::allocated_bytes`]).
///
/// Over the shards of a sharded run `input_fabric`, `port_vectors`,
/// `ejection` and `source_queues` sum to exactly the sequential network's
/// values; so does `fabric_pools`, up to the one-cycle export ring (and its
/// one-id head FIFO) each boundary link keeps on the side that launches into
/// it (`tests/shard_memory.rs`).  `arena`
/// and `delay_table` are reserved at [`Network::arena_bound`], which the
/// shards partition, but never below [`MIN_RESERVED_SLOTS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolBytes {
    /// The input fabric: every owned input VC.
    pub input_fabric: usize,
    /// The routers' output ports and their VCs.
    pub port_vectors: usize,
    /// The link fabric's phit and credit pools and its head FIFOs' ids.
    pub fabric_pools: usize,
    /// The ejection registers: the packet each VC of an owned ejection link
    /// has open, one id per owned node and VC.
    pub ejection: usize,
    /// Packet arena slots and their links (free list and VC lists), as
    /// reserved.
    pub arena: usize,
    /// The per-packet delay table, reserved like the arena while the delay
    /// probe is armed, nothing otherwise.
    pub delay_table: usize,
    /// The owned nodes' source queues: a `(head, tail, phits fed)` triple
    /// per node and the record pool, as reserved.
    pub source_queues: usize,
}

/// The simulated network and all of its per-cycle state.
///
/// The engine is monomorphized over its concrete routing mechanism `R`, so the
/// per-cycle `route()` call in the routing phase of [`Network::step`] is
/// statically dispatched (and inlinable).
pub struct Network<R: RoutingAlgorithm> {
    /// Configuration of this run.
    pub config: SimConfig,
    params: DragonflyParams,
    /// All routers (their output side), indexed by router id.
    pub routers: Vec<Router>,
    /// Every input VC of the owned routers, addressed by router id through
    /// the port geometry all routers share; the packets each holds are
    /// listed through the arena's links.
    inputs: InputFabric,
    /// Struct-of-arrays link state: every link's phit/credit pipeline lives in
    /// two shared pools, addressed by link index (see [`LinkFabric`]).
    fabric: LinkFabric,
    /// For every (router, input port): index of the link feeding it
    /// ([`NO_LINK`] for terminal/injection ports).
    incoming_link: Vec<u32>,
    /// Phits transmitted on each link since construction (indexed like `links`).
    link_phits: Vec<u64>,
    /// The packet each VC of each owned ejection link has open, at
    /// `(node - first owned node) × VCs + VC`: set by its head, read and
    /// cleared by its tail ([`PacketId::NONE`] between packets).  The body
    /// and tail phits a node consumes name no packet (see [`LinkFabric`]).
    ejecting: Vec<PacketId>,
    /// The owned nodes' source queues, filled through `push_generated` only
    /// (which keeps `pending_sources` in step).
    sources: SourceQueues,
    /// Packet arena, reserved at `arena_bound` (at least
    /// [`MIN_RESERVED_SLOTS`]).
    pub packets: PacketArena,
    /// The most packets this instance's buffers can hold at once
    /// ([`Network::arena_bound`]).
    arena_bound: usize,
    /// The per-packet delay table, indexed by arena slot: present only while
    /// the delay probe is armed ([`Network::install_probes`]), and grown in
    /// step with the arena.  Every delay-attribution stamp goes through
    /// [`Network::close_leg`], a no-op without it.
    delay: Option<Vec<DelayState>>,
    /// Current cycle.
    pub cycle: u64,
    /// One RNG stream per router, derived deterministically from the master
    /// seed.  Injection draws of a node use its router's stream and routing
    /// draws use the deciding router's stream, so the simulation outcome never
    /// depends on the order routers are visited in — which is what lets the
    /// sharded engine (`dragonfly_shard`) reproduce sequential runs exactly.
    rngs: Vec<Rng>,
    routing: R,
    /// Destinations of the global Bernoulli process (and of bursts) while no
    /// jobs are installed.
    traffic: Box<dyn TrafficPattern>,
    injection: Option<BernoulliInjection>,
    /// The job runtime: a static workload or a trace, compiled into one
    /// [`Schedule`] that owns injection rates, tags and destinations.
    jobs: Option<Schedule>,
    /// Statistics collector.
    pub stats: StatsCollector,
    /// The piggybacking board, kept up to date only while something reads it
    /// ([`Network::keeps_board`]): a mechanism that declares
    /// [`RoutingAlgorithm::READS_GLOBAL_BOARD`], or an installed probe (its
    /// `pb_congested` series).
    pb_board: GlobalStatusBoard,
    /// Global channels whose downstream occupancy changed since the last board
    /// update, as flat `group * channels_per_group + channel` indices.
    pb_dirty_list: Vec<u32>,
    /// Membership flags for `pb_dirty_list`.
    pb_dirty: Vec<bool>,
    last_activity: u64,
    /// Set when the deadlock watchdog fires.
    pub deadlock_detected: bool,
    /// Whether newly generated packets are tagged as measured.
    pub tag_measured: bool,
    // --- Due-work scheduling state ---------------------------------------------
    // At low load almost every link, router, port and node has nothing to do in
    // a given cycle; each phase visits only the members of these structures
    // instead of scanning the network (the fourth, the per-link `next_due`
    // stamp, lives in the fabric).  The sets are two-level bitmaps iterated in
    // ascending index order, so the arrival sweep walks the fabric's pipeline
    // pools front to back and the switch sweep walks the router array front to
    // back — traversal order matches memory order.  `check_due_sets` compares
    // all of them with the full scans they replace.
    /// Links with phits or credits currently in flight.
    active_links: ActiveSet,
    /// Routers with at least one phit buffered in an input VC.
    active_routers: ActiveSet,
    /// Per router: bit `p` is set iff some VC of input port `p` holds a
    /// packet.  Set where a phit is received (arrivals, injection feed),
    /// cleared at the tail send that empties the port's last VC.
    in_occupied: Vec<u64>,
    /// Per router: bit `p` is set iff some VC of output port `p` has an owner.
    /// Set at the grant, cleared at the tail send that frees the port's last
    /// owned VC.
    out_owned: Vec<u64>,
    /// Nodes with a non-empty source queue.
    pending_sources: ActiveSet,
    /// Phits currently stored in each router's input buffers.
    buffered_phits: Vec<u32>,
    /// Phits currently stored across *all* input buffers (memory telemetry).
    buffered_total: u64,
    /// Reused scratch buffer for the per-router routing decisions (avoids a per-cycle
    /// allocation in `phase_routing`).
    route_scratch: Vec<(usize, usize, PacketId, RouteChoice)>,
    // --- Sharding support -------------------------------------------------------
    /// Routers this network instance owns: it buffers, routes and switches at
    /// them and generates for their nodes.  Every router in a sequential run; a
    /// shard's contiguous range when this network is one partition of a sharded
    /// run (see `dragonfly_shard`).  Fixed at construction, where it sizes
    /// every pool ([`Network::with_owned_routers`]).
    owned_routers: Range<usize>,
    /// When present, every job id fed to `Schedule::note_delivered` is also
    /// appended here, so a sharded run can broadcast delivery feedback to the
    /// other shards' job runtime replicas at the cycle barrier.
    delivery_log: Option<Vec<u16>>,
    /// Observability probes (see `dragonfly_probe`), installed through
    /// [`Network::install_probes`].  Strictly read-only with respect to the
    /// simulation: no RNG stream is consumed and no report field changes.
    probe: Option<Box<ProbeRecorder>>,
}

impl<R: RoutingAlgorithm> Network<R> {
    /// Build an idle network with a statically known routing mechanism.
    pub fn with_routing(config: SimConfig, routing: R, traffic: Box<dyn TrafficPattern>) -> Self {
        let every_router = 0..config.params.num_routers();
        Self::with_owned_routers(config, routing, traffic, every_router)
    }

    /// Build the part of the network that owns the routers in `owned` (and
    /// their nodes and links): the whole machine for the full range, one
    /// partition of a sharded run (`dragonfly_shard`) otherwise.
    ///
    /// Ownership decides what is *allocated*, never how it is addressed: router,
    /// node and link ids stay global and every id-indexed array keeps its full
    /// length, so no phase translates an index.  What shrinks is the storage
    /// behind the ids —
    ///
    /// * an un-owned router is a [`Router::husk`] with no output ports, and
    ///   the [`InputFabric`] holds input VCs for the owned range only (the
    ///   one structure that offsets a router id, internally);
    /// * a pipeline is drained where it matures (phits at the receiving end,
    ///   credits at the transmitting end), and the instance owning that end
    ///   holds all `latency + 1` of its slots.  An instance owning only the
    ///   *launching* end hands what it launched to the owner of the other end
    ///   at the same cycle's barrier ([`Network::take_link_phit`] /
    ///   [`Network::take_link_credits`]), so it holds one cycle's slot: one
    ///   phit, or one mask of credits.  A link with neither end owned holds
    ///   nothing;
    /// * source queues exist for owned nodes only, their pool reserving
    ///   records for those, and the arena (and the delay table, once armed)
    ///   reserves what the owned routers' buffers can hold
    ///   ([`Network::arena_bound`], at least [`MIN_RESERVED_SLOTS`]).
    ///
    /// [`Network::check_due_sets`] checks that nothing un-owned is ever
    /// scheduled; [`Network::allocated_bytes`] reports what was allocated.
    ///
    /// # Panics
    ///
    /// Panics when `owned` reaches beyond the last router.
    pub fn with_owned_routers(
        config: SimConfig,
        routing: R,
        traffic: Box<dyn TrafficPattern>,
        owned: Range<usize>,
    ) -> Self {
        config.validate();
        assert!(
            config.local_vcs >= routing.required_local_vcs(),
            "{} requires {} local VCs but the configuration provides {}",
            routing.name(),
            routing.required_local_vcs(),
            config.local_vcs
        );
        assert!(
            config.global_vcs >= routing.required_global_vcs(),
            "{} requires {} global VCs but the configuration provides {}",
            routing.name(),
            routing.required_global_vcs(),
            config.global_vcs
        );
        assert!(
            routing.supports_flow_control(config.flow_control),
            "{} does not support the selected flow control",
            routing.name()
        );
        let params = config.params;
        let ports = params.ports_per_router();
        let num_routers = params.num_routers();
        let num_nodes = params.num_nodes();
        assert!(
            owned.start <= owned.end && owned.end <= num_routers,
            "owned router range {owned:?} reaches beyond the {num_routers} routers"
        );
        let h = params.h();
        let downstream = downstream_capacities(&config);

        let routers: Vec<Router> = (0..num_routers)
            .map(|r| {
                let rid = RouterId(r as u32);
                if owned.contains(&r) {
                    Router::new(rid, &config, &downstream)
                } else {
                    Router::husk(rid)
                }
            })
            .collect();

        // One pass over the links, `li = router × ports + flat port`: each
        // spec streams into the fabric as the reverse map — which link feeds
        // each (router, input port)? — is filled, so no list of specs is
        // ever held.
        let mut incoming_link = vec![NO_LINK; num_routers * ports];
        let specs = (0..num_routers * ports).map(|li| {
            let (r, flat) = (li / ports, li % ports);
            let rid = RouterId(r as u32);
            let tx_owned = owned.contains(&r);
            let port = Port::from_flat(flat, h);
            let latency = config.latency_for_port(port);
            let (to, rx_owned) = match port {
                Port::Local(_) | Port::Global(_) => {
                    let (nbr, back) = params.neighbor(rid, port);
                    incoming_link[nbr.index() * ports + back.flat(h)] =
                        u32::try_from(li).expect("`validate` bounds h, so a link id fits a u32");
                    let end = LinkEnd::Router {
                        router: nbr.index(),
                        port: back.flat(h),
                    };
                    (end, owned.contains(&nbr.index()))
                }
                Port::Terminal(t) => {
                    let node = params.node_of_router(rid, t);
                    (LinkEnd::Node { node }, tx_owned)
                }
            };
            // Slots (see `LinkFabric`): a link launches at most one phit,
            // and returns at most one credit per VC, per cycle, so each
            // pipeline is one slot per arrival cycle in flight —
            // `latency + 1` — in the instance that owns the end it drains
            // at.  An instance owning only the launching end exports what
            // it launched at the same cycle's barrier: one slot.
            let full = latency as usize + 1;
            let (phit_slots, credit_slots) = match (tx_owned, rx_owned) {
                (true, true) => (full, full),
                (true, false) => (1, full),
                (false, true) => (full, 1),
                (false, false) => (0, 0),
            };
            LinkSpec {
                latency,
                to,
                phit_slots,
                credit_slots,
                vcs: config.vcs_for(port.kind()),
            }
        });
        let fabric = LinkFabric::build(specs, config.packet_size);

        let per_router = params.nodes_per_router();
        let owned_nodes = owned.start * per_router..owned.end * per_router;
        let sources = SourceQueues::new(owned_nodes.clone());
        let ejecting = vec![PacketId::NONE; owned_nodes.len() * config.vcs_for(PortKind::Terminal)];
        let stats = StatsCollector::new(64 * 1024);
        let pb_board = GlobalStatusBoard::new(params.groups(), params.global_channels_per_group());

        let link_phits = vec![0u64; fabric.len()];
        let num_links = fabric.len();
        let num_global_channels = params.groups() * params.global_channels_per_group();
        let rngs = (0..num_routers)
            .map(|r| Rng::seed_from(derive_seed(config.seed, r as u64)))
            .collect();
        // Worst case per router: one pending decision per input VC.
        let route_scratch_cap = ports * config.local_vcs.max(config.global_vcs);
        let inputs = InputFabric::new(&config, owned.clone());
        let arena_bound = owned.len() * packets_per_router(&config);
        Self {
            rngs,
            config,
            params,
            routers,
            inputs,
            fabric,
            incoming_link,
            link_phits,
            ejecting,
            sources,
            packets: PacketArena::with_capacity(arena_bound.max(MIN_RESERVED_SLOTS)),
            arena_bound,
            delay: None,
            cycle: 0,
            routing,
            traffic,
            injection: None,
            jobs: None,
            stats,
            pb_board,
            // The active sets and scratch buffers are preallocated at their
            // hard upper bounds so membership pushes never reallocate, even
            // the first time the whole network lights up.
            pb_dirty_list: Vec::with_capacity(num_global_channels),
            pb_dirty: vec![false; num_global_channels],
            last_activity: 0,
            deadlock_detected: false,
            tag_measured: false,
            active_links: ActiveSet::new(num_links),
            active_routers: ActiveSet::new(num_routers),
            in_occupied: vec![0; num_routers],
            out_owned: vec![0; num_routers],
            pending_sources: ActiveSet::new(num_nodes),
            buffered_phits: vec![0; num_routers],
            buffered_total: 0,
            route_scratch: Vec::with_capacity(route_scratch_cap),
            owned_routers: owned,
            delivery_log: None,
            probe: None,
        }
    }

    /// Topology parameters of the network.
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// Name of the routing mechanism driving this network.
    pub fn routing_name(&self) -> &'static str {
        self.routing.name()
    }

    /// Name of the traffic that runs: the installed jobs' label, or the
    /// traffic pattern's name.
    pub fn traffic_name(&self) -> String {
        match &self.jobs {
            Some(jobs) => jobs.label().to_string(),
            None => self.traffic.name(),
        }
    }

    /// Set (or clear) the Bernoulli injection process.
    pub fn set_injection(&mut self, injection: Option<BernoulliInjection>) {
        self.injection = injection;
    }

    /// Install a job runtime: from now on `jobs` owns injection — per-node
    /// rates, job/phase tags and destinations — and its lifecycle hook runs at
    /// the top of every cycle.  The runtime is brought to the current cycle
    /// right away, so the jobs arriving by now are placed before anything is
    /// generated (a burst preloaded before the first step included).
    ///
    /// Per-job and per-phase statistics are enabled, and the global Bernoulli
    /// process and any earlier runtime are cleared.
    pub fn install_jobs(&mut self, mut jobs: Schedule) {
        self.stats.enable_scoped(&jobs.phase_counts());
        self.injection = None;
        jobs.advance_to(self.cycle);
        self.jobs = Some(jobs);
    }

    /// The installed job runtime, if any.
    pub fn jobs(&self) -> Option<&Schedule> {
        self.jobs.as_ref()
    }

    /// Stop all generation: halt the job runtime (its destinations stay, so a
    /// preloaded burst drains against them) and clear the Bernoulli process.
    pub fn halt_generation(&mut self) {
        if let Some(jobs) = &mut self.jobs {
            jobs.halt();
        }
        self.injection = None;
    }

    /// Pre-load every owned node's source queue with `packets_per_node` packets
    /// (burst mode).
    pub fn preload_burst(&mut self, packets_per_node: u64) {
        self.sources
            .reserve(self.owned_nodes().len() * packets_per_node as usize);
        let mut rngs = std::mem::take(&mut self.rngs);
        for n in self.owned_nodes() {
            let src = NodeId(n as u32);
            let rng = &mut rngs[self.params.router_of_node(src).index()];
            for _ in 0..packets_per_node {
                let dst = self.destination(self.cycle, src, rng);
                self.enqueue(src, dst, true);
            }
        }
        self.rngs = rngs;
    }

    /// Generate an untagged packet from `src` to `dst` this cycle and queue
    /// it at `src`'s source: from the next injection phase on it is fed into
    /// the router's injection buffer, one phit per cycle, behind whatever is
    /// already queued.  The generation is recorded in the statistics here, so
    /// the packet's delivery balances it.  The way in for hand-built packets;
    /// burst preloading goes through it too.
    pub fn enqueue(&mut self, src: NodeId, dst: NodeId, measured: bool) {
        self.push_generated(
            src,
            Generated {
                dst,
                gen_cycle: self.cycle,
                job: UNTAGGED,
                phase: UNTAGGED,
                measured,
                next: NIL,
            },
        );
        self.stats.record_generated(self.config.packet_size);
    }

    /// The one way into a source queue.
    fn push_generated(&mut self, src: NodeId, packet: Generated) {
        debug_assert!(
            self.owned_nodes().contains(&src.index()),
            "node {} is not owned by this network instance",
            src.index()
        );
        self.sources.push(src.index(), packet);
        self.pending_sources.insert(src.index());
    }

    /// True when no packet exists anywhere in the network.
    pub fn is_drained(&self) -> bool {
        self.packets.live() == 0 && self.pending_sources.is_empty()
    }

    /// Total phits currently stored in router buffers (conservation checks).
    pub fn stored_phits(&self) -> usize {
        self.inputs.stored_phits()
    }

    /// Phits transmitted so far on the link behind `(router, flat output port)`.
    pub fn link_phits(&self, router: usize, flat_port: usize) -> u64 {
        self.link_phits[router * self.params.ports_per_router() + flat_port]
    }

    /// Utilization (phits per cycle, `0.0 ..= 1.0`) of every link of the given kind,
    /// computed over the whole run so far.
    pub fn link_utilization_by_kind(&self, kind: PortKind) -> Vec<f64> {
        let ports = self.params.ports_per_router();
        let h = self.params.h();
        let cycles = self.cycle.max(1) as f64;
        self.link_phits
            .iter()
            .enumerate()
            .filter(|(i, _)| Port::from_flat(i % ports, h).kind() == kind)
            .map(|(_, &phits)| phits as f64 / cycles)
            .collect()
    }

    /// Maximum and mean utilization of the links of the given kind — the quantity
    /// that exposes the ADVG+h intermediate-group pathology (a few local links near
    /// 100% while the mean stays low).
    pub fn link_utilization_summary(&self, kind: PortKind) -> (f64, f64) {
        let utils = self.link_utilization_by_kind(kind);
        if utils.is_empty() {
            return (0.0, 0.0);
        }
        let max = utils.iter().cloned().fold(0.0f64, f64::max);
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        (max, mean)
    }

    /// Advance the simulation by one cycle.
    pub fn step(&mut self) {
        self.advance_hooks();
        let activity = self.step_phases();
        self.close_local_cycle(activity);
    }

    /// Advance one cycle, invoking `hook` at every phase boundary with the
    /// name of the phase about to run (`"arrivals"`, `"injection"`,
    /// `"routing"`, `"switch"`, `"bookkeeping"`) and finally with `"done"`.
    ///
    /// Behaviourally identical to [`Network::step`]: both run the one phase
    /// body, this one with a hook that does something.  The zero-allocation
    /// tier uses it to attribute allocator activity to an individual phase
    /// instead of a whole cycle, and the perf ledger (`benchmark/`) to time the
    /// phases from outside — it is the only phase-level instrumentation seam.
    pub fn step_with_phase_hook(&mut self, hook: &mut dyn FnMut(&'static str)) {
        self.advance_hooks();
        let activity = self.phases(&mut *hook);
        self.close_local_cycle(activity);
        hook("done");
    }

    /// [`Network::close_cycle`] with this instance's own view of the run.
    #[inline]
    fn close_local_cycle(&mut self, activity: bool) {
        let (live, in_flight) = (!self.is_drained(), self.stats.in_flight());
        self.close_cycle(activity, live, in_flight, self.buffered_total);
    }

    /// Run the job runtime's lifecycle hook for the current cycle, before any
    /// packet is generated: arrivals are admitted, finished jobs retire,
    /// waiting jobs are placed and running jobs switch phase, so a job placed
    /// (or switching) at cycle N injects under its new state from cycle N on.
    ///
    /// Part of the decomposed [`Network::step`] used by the sharded engine; a
    /// sequential step is `advance_hooks` → `step_phases` → `close_cycle`.
    pub fn advance_hooks(&mut self) {
        if let Some(jobs) = &mut self.jobs {
            jobs.advance_to(self.cycle);
        }
    }

    /// Run the five phases (arrivals → injection → routing → switch → local
    /// bookkeeping) of the current cycle and return whether the cycle made
    /// progress: a phit moved, or a phit or credit is still travelling on a
    /// link (a 100-cycle global link is silent for 100 cycles without being
    /// stalled).
    ///
    /// Everything here is local to the routers, links and nodes this network
    /// instance owns; the deadlock watchdog — which needs run-wide knowledge in
    /// a sharded run — is applied separately by [`Network::close_cycle`].
    pub fn step_phases(&mut self) -> bool {
        self.phases(|_| {})
    }

    /// The five phases of the current cycle, written once: `hook` is called
    /// with each phase's name just before it runs.  With the no-op closure of
    /// [`Network::step_phases`] the calls vanish at compile time.
    #[inline]
    fn phases(&mut self, mut hook: impl FnMut(&'static str)) -> bool {
        let cycle = self.cycle;
        let mut activity = false;
        hook("arrivals");
        activity |= self.phase_arrivals(cycle);
        hook("injection");
        activity |= self.phase_injection(cycle);
        hook("routing");
        self.phase_routing(cycle);
        hook("switch");
        activity |= self.phase_switch(cycle);
        hook("bookkeeping");
        self.update_pb_board();
        self.probe_sample(cycle);
        activity || !self.active_links.is_empty()
    }

    /// Close the current cycle with run-wide knowledge (the last piece of the
    /// decomposed [`Network::step`]): advance the deadlock watchdog with
    /// whether the cycle made progress *anywhere* (what
    /// [`Network::step_phases`] returns) and whether *any* packet is live
    /// anywhere, record the run's packets in flight and buffered phits in
    /// the memory-footprint peaks, and count the cycle.
    ///
    /// A sequential run passes its own values; a sharded run passes the OR
    /// and the sums over all shards — every in-flight phit or credit sits in
    /// exactly one shard's link copy, so they are the sequential values and
    /// every shard reaches the same verdict and peaks at the same cycle.
    pub fn close_cycle(&mut self, activity: bool, live: bool, in_flight: u64, buffered: u64) {
        let cycle = self.cycle;
        if activity {
            self.last_activity = cycle;
        } else if live && cycle - self.last_activity > self.config.deadlock_threshold {
            self.deadlock_detected = true;
        }
        self.stats.note_cycle_peaks(in_flight, buffered);
        self.cycle += 1;
        #[cfg(debug_assertions)]
        self.assert_due_sets_match_full_scan();
    }

    /// Run `cycles` simulation cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    // ------------------------------------------------------------------
    // Phase A: link and credit arrivals.
    // ------------------------------------------------------------------
    //
    // Only links with phits or credits in flight are swept, in ascending
    // link-index order (the active-set bitmap), and of those only the links
    // whose earliest arrival has matured are opened: the fabric's dense
    // `next_due` array answers that without touching a slot, so a long link
    // costs one `u32` read per cycle while its phits are still travelling.
    // A due link yields this cycle's slot of each pipeline — at most one
    // phit and one mask of credited VCs — and the copies are processed
    // against the routers; a link leaves the active set as soon as both of
    // its pipelines are empty.  Links touch disjoint state (their own slots,
    // one output port's credits, one input port's buffers), so passing over
    // the ones with nothing due changes no outcome.
    fn phase_arrivals(&mut self, cycle: u64) -> bool {
        let ports = self.params.ports_per_router();
        let h = self.params.h();
        let mut activity = false;
        let mut cursor = 0;
        while let Some(li) = self.active_links.next_at_or_after(cursor) {
            cursor = li + 1;
            if !self.fabric.due(li, cycle) {
                continue;
            }
            let arrived = self.fabric.drain_arrived(li, cycle);
            // Credits back to the transmitter (owner of this link).
            if arrived.credits != 0 {
                let router = li / ports;
                let port = li % ports;
                let mut credits = arrived.credits;
                while credits != 0 {
                    let vc = credits.trailing_zeros() as usize;
                    credits &= credits - 1;
                    let out = &mut self.routers[router].outputs[port].vcs[vc];
                    out.credits += 1;
                    debug_assert!(
                        out.credits <= out.downstream_capacity,
                        "credits above downstream capacity: credit accounting is broken"
                    );
                }
                // A credit on a global output changes its advertised occupancy.
                if self.keeps_board() {
                    if let Port::Global(gport) = Port::from_flat(port, h) {
                        self.mark_pb_dirty(router, gport);
                    }
                }
            }
            // A phit forward to the receiver.
            if let Some(phit) = arrived.phit {
                activity = true;
                match self.fabric.end(li) {
                    LinkEnd::Router { router, port } => {
                        // The head appends its packet; the phits after it
                        // continue the VC's open tail.
                        let opens = phit.head_packet().inspect(|&id| {
                            // Delay attribution: arrival ends this hop's link
                            // transit (first phit out → head in) and starts
                            // the wait for a grant.
                            self.close_leg(id, Leg::LinkTransit, cycle);
                        });
                        let occupancy = self.inputs.receive_phit(
                            &mut self.packets,
                            router,
                            port,
                            phit.vc as usize,
                            opens,
                            phit.is_tail(),
                        );
                        self.stats.note_vc_occupancy(occupancy);
                        self.buffered_phits[router] += 1;
                        self.buffered_total += 1;
                        self.active_routers.insert(router);
                        self.in_occupied[router] |= 1 << port;
                    }
                    LinkEnd::Node { node } => {
                        // Ejection: the node consumes the phit immediately and
                        // returns the credit so the ejection VC never backs up
                        // artificially.
                        self.fabric.send_credit(li, cycle, phit.vc);
                        let open = self.ejection_register(node, phit.vc);
                        if let Some(id) = phit.head_packet() {
                            // Delay attribution: the head reaching the node
                            // ends the final link transit and starts the
                            // serialization tail (head before tail, so a
                            // one-phit packet serializes in zero cycles).
                            self.close_leg(id, Leg::LinkTransit, cycle);
                            debug_assert_eq!(
                                self.ejecting[open],
                                PacketId::NONE,
                                "link {li}: a head ejected on VC {} before the last tail",
                                phit.vc
                            );
                            self.ejecting[open] = id;
                        }
                        if phit.is_tail() {
                            let packet =
                                std::mem::replace(&mut self.ejecting[open], PacketId::NONE);
                            assert_ne!(
                                packet,
                                PacketId::NONE,
                                "link {li}: a tail ejected on VC {} with no packet open",
                                phit.vc
                            );
                            self.close_leg(packet, Leg::Serialization, cycle);
                            // Delivery feedback for volume-bound jobs.  Only
                            // the job tag is needed here, and the stats
                            // collector reads the packet in place — no clone.
                            let job = self.packets.get(packet).job;
                            if job != UNTAGGED {
                                if let Some(jobs) = self.jobs.as_mut() {
                                    jobs.note_delivered(job);
                                    if let Some(log) = self.delivery_log.as_mut() {
                                        log.push(job);
                                    }
                                }
                            }
                            // Probe: delivery happens at the ejection link of
                            // the (owned) destination router, so in a sharded
                            // run exactly one shard records it.
                            if self.probe.is_some() {
                                let pkt = self.packets.get(packet);
                                let (src, dst, gen) = (pkt.src.0, pkt.dst.0, pkt.gen_cycle);
                                let router = li / ports;
                                let probe = self.probe.as_deref_mut().unwrap();
                                probe.record_delivered(router);
                                if probe.flight_sampled(src, gen) {
                                    probe.record_flight(FlightEvent {
                                        cycle,
                                        gen_cycle: gen,
                                        src,
                                        dst,
                                        router: router as u32,
                                        port: NONE_U16,
                                        vc: NONE_U16,
                                        kind: FLIGHT_DELIVER,
                                        class: u8::MAX,
                                        nonminimal: 2,
                                    });
                                }
                            }
                            // Delay ledger: fold the completed decomposition
                            // at the destination's ejection link (exactly one
                            // shard owns it), before the packet is freed.
                            if let Some(table) = &self.delay {
                                let pkt = self.packets.get(packet);
                                let sample = DelaySample {
                                    components: table[packet.index()].components(),
                                    misrouted: pkt.route.global_misrouted
                                        || pkt.route.local_misrouted_ever,
                                    job: pkt.job,
                                    phase: pkt.phase,
                                };
                                let latency = cycle - pkt.gen_cycle;
                                debug_assert_eq!(
                                    sample.total(),
                                    latency,
                                    "delay components must sum to the \
                                     end-to-end latency"
                                );
                                self.probe
                                    .as_deref_mut()
                                    .unwrap()
                                    .record_delay(&sample, latency);
                            }
                            self.stats.record_delivery(self.packets.get(packet), cycle);
                            self.packets.free(packet);
                        }
                    }
                }
            }
            if self.fabric.is_idle(li) {
                // Safe mid-sweep: removal at the cursor never skips members.
                self.active_links.remove(li);
            }
        }
        activity
    }

    // ------------------------------------------------------------------
    // Phase B: packet generation and injection into the terminal input buffers.
    // ------------------------------------------------------------------
    //
    // Two passes.  *Generation* runs one Bernoulli trial per owned node — the
    // only per-node work an idle machine has — with the choice between the job
    // runtime's per-job rates and the global process made once per cycle.
    // *Feeding* moves one phit per node with a queued packet and visits only
    // those nodes.  The passes touch disjoint state (generation: the router
    // RNG streams, the arena, the queue tails; feeding: the queue heads and
    // the injection buffers), so running them back to back instead of
    // interleaved per node changes no outcome.
    fn phase_injection(&mut self, cycle: u64) -> bool {
        if self.jobs.is_some() {
            self.generate(cycle, |net, node, rng| {
                let jobs = net.jobs.as_ref()?;
                let (job, phase) = jobs.source(node)?;
                jobs.generate(job, rng).then_some((job, phase))
            });
        } else if let Some(injection) = self.injection {
            let probability = injection.packet_probability();
            self.generate(cycle, |_, _, rng| {
                rng.bernoulli(probability).then_some((UNTAGGED, UNTAGGED))
            });
        }
        self.feed_sources(cycle)
    }

    /// Generation pass: `trial(self, node, rng)` decides whether `node`
    /// generates a packet this cycle and with which `(job, phase)` tag.
    ///
    /// All draws of a node — the trial, then on success the destination — use
    /// its router's stream, nodes of a router in ascending order, so the
    /// outcome is independent of how the node space is partitioned across
    /// shards.  The loop is router-major over the owned routers: no per-node
    /// division, one stream lookup per router.
    fn generate(
        &mut self,
        cycle: u64,
        trial: impl Fn(&Self, usize, &mut Rng) -> Option<(u16, u16)>,
    ) {
        let per_router = self.params.nodes_per_router();
        // The streams step aside for the pass so a trial can read the network
        // while drawing (the `route_scratch` idiom: no allocation, no copy).
        let mut rngs = std::mem::take(&mut self.rngs);
        for router in self.owned_routers.clone() {
            let rng = &mut rngs[router];
            for node in router * per_router..(router + 1) * per_router {
                if let Some((job, phase)) = trial(self, node, rng) {
                    self.spawn(cycle, router, NodeId(node as u32), job, phase, rng);
                }
            }
        }
        self.rngs = rngs;
    }

    /// Create the packet a successful trial at `src` stands for: draw its
    /// destination, tag it, queue it at the source.
    fn spawn(
        &mut self,
        cycle: u64,
        router: usize,
        src: NodeId,
        job: u16,
        phase: u16,
        rng: &mut Rng,
    ) {
        let dst = self.destination(cycle, src, rng);
        self.push_generated(
            src,
            Generated {
                dst,
                gen_cycle: cycle,
                job,
                phase,
                measured: self.tag_measured,
                next: NIL,
            },
        );
        self.stats
            .record_generated_tagged(self.config.packet_size, job, phase);
        // Probe: generation happens at owned nodes only, so in a sharded run
        // exactly one shard records it.  The flight key `(src, gen_cycle)` is
        // a pure function of the packet.
        if let Some(probe) = self.probe.as_deref_mut() {
            probe.record_injected(router);
            if probe.flight_sampled(src.0, cycle) {
                probe.record_flight(FlightEvent {
                    cycle,
                    gen_cycle: cycle,
                    src: src.0,
                    dst: dst.0,
                    router: router as u32,
                    port: NONE_U16,
                    vc: NONE_U16,
                    kind: FLIGHT_INJECT,
                    class: u8::MAX,
                    nonminimal: 2,
                });
            }
        }
    }

    /// Destination of a packet generated at `src` during `cycle`: the
    /// installed jobs decide, or else the traffic pattern.
    #[inline]
    fn destination(&self, cycle: u64, src: NodeId, rng: &mut Rng) -> NodeId {
        let dst = match &self.jobs {
            Some(jobs) => jobs.destination(cycle, src, rng),
            None => self.traffic.destination(src, &self.params, rng),
        };
        debug_assert_ne!(dst, src);
        dst
    }

    /// Feed pass: every node with a queued packet moves at most one phit of
    /// its head packet into the injection buffer.
    fn feed_sources(&mut self, cycle: u64) -> bool {
        let per_router = self.params.nodes_per_router();
        let h = self.params.h();
        let size = self.config.packet_size as u16;
        let mut activity = false;
        let mut cursor = 0;
        while let Some(n) = self.pending_sources.next_at_or_after(cursor) {
            cursor = n + 1;
            let router = n / per_router;
            let port = Port::Terminal(n % per_router).flat(h);
            if self.inputs.free_space(router, port, 0) == 0 {
                continue;
            }
            // The head phit allocates the packet and carries its id; the
            // phits after it continue the injection VC's open tail.
            let (opened, is_tail) = self.sources.feed_phit(n, size);
            let mut opens = None;
            if let Some(generated) = opened {
                let head =
                    self.packets
                        .alloc(NodeId(n as u32), generated.dst, size, generated.gen_cycle);
                opens = Some(head);
                let packet = self.packets.get_mut(head);
                packet.measured = generated.measured;
                packet.job = generated.job;
                packet.phase = generated.phase;
                // Delay attribution: time spent queued at the source NIC
                // before the head phit enters the injection buffer, where the
                // wait for a grant starts.
                self.open_ledger(head, DelayState::generated_at(generated.gen_cycle));
                self.close_leg(head, Leg::InjectionQueue, cycle);
            }
            let occupancy =
                self.inputs
                    .receive_phit(&mut self.packets, router, port, 0, opens, is_tail);
            self.stats.note_vc_occupancy(occupancy);
            activity = true;
            if is_tail && self.sources.is_empty(n) {
                // Safe mid-sweep: removal at the cursor never skips members.
                self.pending_sources.remove(n);
            }
            self.buffered_phits[router] += 1;
            self.buffered_total += 1;
            self.active_routers.insert(router);
            self.in_occupied[router] |= 1 << port;
        }
        activity
    }

    // ------------------------------------------------------------------
    // Phase C: routing and output-VC allocation.
    // ------------------------------------------------------------------
    // Only routers with buffered phits can have a head packet to route; the walk
    // sweeps the active-set bitmap in ascending router order (safe because every
    // router draws from its own RNG stream, so decisions are order-independent)
    // and the decision buffer is a reused scratch allocation owned by the network.
    // Within a router only the occupied input ports are visited, in the rotated
    // order a scan of all ports starting at `rr_alloc` would reach them — the
    // skipped ports hold no head packet, so the sequence of `route()` calls,
    // hence of the router's RNG draws, is the full scan's.
    fn phase_routing(&mut self, cycle: u64) {
        let ports = self.params.ports_per_router();
        let h = self.params.h();
        let mut decisions = std::mem::take(&mut self.route_scratch);
        let mut cursor = 0;
        while let Some(r) = self.active_routers.next_at_or_after(cursor) {
            cursor = r + 1;
            decisions.clear();
            {
                let router = &self.routers[r];
                let group = self.params.group_of_router(router.id).index();
                let view = RouterView {
                    router: router.id,
                    outputs: &router.outputs,
                    params: &self.params,
                    config: &self.config,
                    global_congested: self.keeps_board().then(|| self.pb_board.group(group)),
                };
                let ctx = RouteCtx {
                    cycle,
                    params: &self.params,
                    config: &self.config,
                };
                // Rotate the service order of input ports for long-term fairness:
                // occupied ports from `rr_alloc` up, then the ones below it.
                let occupied = self.in_occupied[r];
                let below = occupied & ((1 << router.rr_alloc) - 1);
                for ip in set_bits(occupied ^ below).chain(set_bits(below)) {
                    for (ivc, head) in self.inputs.unrouted_heads(r, ip) {
                        let packet = self.packets.get(head);
                        if let Some(choice) =
                            self.routing.route(&ctx, packet, &view, &mut self.rngs[r])
                        {
                            decisions.push((ip, ivc, head, choice));
                        }
                    }
                }
            }
            if decisions.is_empty() {
                continue;
            }
            let router = &mut self.routers[r];
            router.rr_alloc = (router.rr_alloc + 1) % ports;
            let router_id = router.id;
            for &(ip, ivc, pid, choice) in decisions.iter() {
                let flat = choice.port.flat(h);
                let needed = self
                    .config
                    .flow_control
                    .claim_phits(self.packets.get(pid).size_phits());
                let out = &mut self.routers[r].outputs[flat].vcs[choice.vc as usize];
                if !out.is_free() || (out.credits as usize) < needed {
                    continue;
                }
                out.set_owner(Some((ip as u16, ivc as u8)));
                self.out_owned[r] |= 1 << flat;
                self.inputs
                    .set_route(r, ip, ivc, Some((flat as u16, choice.vc)));
                // Delay attribution: the head waited in this input VC from
                // its arrival until this grant, which starts the wait for
                // credits.  Classified on the *pre-grant* route: a packet
                // still travelling its detour books the wait against the
                // detour component instead of `vc_wait`.
                self.close_leg(pid, Leg::VcWait, cycle);
                apply_grant(self.packets.get_mut(pid), &choice, &self.params, router_id);
                // Probe: grants only happen at routers holding buffered phits,
                // which in a sharded run are exactly the owned routers.
                if self.probe.is_some() {
                    let pkt = self.packets.get(pid);
                    let (src, dst, gen) = (pkt.src.0, pkt.dst.0, pkt.gen_cycle);
                    let up = &choice.update;
                    let probe = self.probe.as_deref_mut().unwrap();
                    probe.record_grant(r, up.mark_global_misroute, up.mark_local_misroute);
                    if probe.flight_sampled(src, gen) {
                        let (class, nonminimal) = match choice.port {
                            Port::Local(_) => (CLASS_LOCAL, up.mark_local_misroute as u8),
                            Port::Global(_) => (CLASS_GLOBAL, up.mark_global_misroute as u8),
                            Port::Terminal(_) => (CLASS_TERMINAL, 2),
                        };
                        probe.record_flight(FlightEvent {
                            cycle,
                            gen_cycle: gen,
                            src,
                            dst,
                            router: r as u32,
                            port: flat as u16,
                            vc: choice.vc as u16,
                            kind: FLIGHT_HOP,
                            class,
                            nonminimal,
                        });
                    }
                }
            }
        }
        decisions.clear();
        self.route_scratch = decisions;
    }

    // ------------------------------------------------------------------
    // Phase D: switch traversal and link transmission (one phit per output port).
    // ------------------------------------------------------------------
    // The switch only needs routers holding buffered phits, visited in ascending
    // router order via the active-set bitmap (the launched phits and credits land
    // on links `r * ports + op`, so the fabric's send-side writes sweep forward
    // too); routers whose buffers drain during the sweep leave the active set
    // (and re-enter it from the arrival or injection phases when a new phit
    // shows up).  Within a router only output ports with an owned VC are
    // visited, ascending: an unowned port has nothing to send.
    fn phase_switch(&mut self, cycle: u64) -> bool {
        let ports = self.params.ports_per_router();
        let h = self.params.h();
        let flow_control = self.config.flow_control;
        let size = self.config.packet_size;
        let mut activity = false;
        let mut cursor = 0;
        while let Some(r) = self.active_routers.next_at_or_after(cursor) {
            cursor = r + 1;
            // Grants happen in the routing phase only, so the mask read here
            // covers every port that can send this cycle.
            for op in set_bits(self.out_owned[r]) {
                let vcs = self.routers[r].outputs[op].vcs.len();
                let start = self.routers[r].outputs[op].rr_next;
                let mut chosen: Option<usize> = None;
                // Round robin from `rr_next`, wrapping without a divide.
                for vc in (start..vcs).chain(0..start) {
                    let Some((ip, ivc)) = self.routers[r].outputs[op].vcs[vc].owner() else {
                        continue;
                    };
                    let out = &self.routers[r].outputs[op].vcs[vc];
                    if out.credits == 0 {
                        // Probe: a granted packet held the output VC but could
                        // not advance for lack of downstream credits.
                        if let Some(probe) = self.probe.as_deref_mut() {
                            probe.record_credit_stall(cycle, r * ports + op, vc);
                        }
                        continue;
                    }
                    let input = self.inputs.vc(r, ip as usize, ivc as usize);
                    if input.head_present(size as u16) == 0 {
                        continue;
                    }
                    // At a flit boundary, wormhole needs space for the whole flit.
                    let sent = input.head_sent() as usize;
                    let fl = flow_control.flit_phits(size);
                    if fl > 1 && sent.is_multiple_of(fl) {
                        let remaining = size - sent;
                        if (out.credits as usize) < fl.min(remaining) {
                            continue;
                        }
                    }
                    chosen = Some(vc);
                    break;
                }
                let Some(vc) = chosen else { continue };
                activity = true;
                self.buffered_phits[r] -= 1;
                self.buffered_total -= 1;
                let (ip, ivc) = self.routers[r].outputs[op].vcs[vc].owner().unwrap();
                let (ip, ivc) = (ip as usize, ivc as usize);
                let sent_before = self.inputs.vc(r, ip, ivc).head_sent();
                let (pid, is_tail) = self.inputs.send_phit(&mut self.packets, r, ip, ivc);
                let output = &mut self.routers[r].outputs[op];
                output.rr_next = if vc + 1 == vcs { 0 } else { vc + 1 };
                output.vcs[vc].credits -= 1;
                if is_tail {
                    // The packet has left: release the output VC and the
                    // input VC's route, and retire either port from its mask
                    // when that was the port's last packet.
                    output.vcs[vc].set_owner(None);
                    self.inputs.set_route(r, ip, ivc, None);
                    if !output.has_owner() {
                        self.out_owned[r] &= !(1 << op);
                    }
                    if !self.inputs.port_has_packets(r, ip) {
                        self.in_occupied[r] &= !(1 << ip);
                    }
                }
                // Delay attribution: the first phit crossing the switch ends
                // the wait for downstream credits that began at the grant, and
                // opens the link-transit leg.
                if sent_before == 0 {
                    self.close_leg(pid, Leg::CreditWait, cycle);
                }
                // A phit leaving a global output changes its advertised occupancy.
                if self.keeps_board() {
                    if let Port::Global(gport) = Port::from_flat(op, h) {
                        self.mark_pb_dirty(r, gport);
                    }
                }
                self.link_phits[r * ports + op] += 1;
                if let Some(probe) = self.probe.as_deref_mut() {
                    probe.record_link_phit(cycle, r * ports + op, vc);
                }
                let phit = if sent_before == 0 {
                    PhitInFlight::head(pid, vc as u8, is_tail)
                } else {
                    PhitInFlight::body(vc as u8, is_tail)
                };
                self.fabric.send_phit(r * ports + op, cycle, phit);
                self.active_links.insert(r * ports + op);
                // Return a credit to the upstream transmitter of the input buffer that
                // just freed one phit (injection ports have no upstream link).
                let upstream = self.incoming_link[r * ports + ip];
                if upstream != NO_LINK {
                    let upstream = upstream as usize;
                    self.fabric.send_credit(upstream, cycle, ivc as u8);
                    self.active_links.insert(upstream);
                }
            }
            if self.buffered_phits[r] == 0 {
                // Safe mid-sweep: removal at the cursor never skips members.
                self.active_routers.remove(r);
            }
        }
        activity
    }

    /// Index into `ejecting` of VC `vc` of the ejection link into `node`.
    #[inline]
    fn ejection_register(&self, node: NodeId, vc: u8) -> usize {
        let first = self.owned_routers.start * self.params.nodes_per_router();
        (node.index() - first) * self.config.vcs_for(PortKind::Terminal) + vc as usize
    }

    /// Delay attribution: close `id`'s open leg at `cycle`, booked to `leg`
    /// — or to the detour component while the packet travels one (all but
    /// the serialization tail).  A no-op unless the delay probe is armed.
    #[inline]
    fn close_leg(&mut self, id: PacketId, leg: Leg, cycle: u64) {
        if let Some(table) = self.delay.as_mut() {
            let detour = leg != Leg::Serialization && on_detour(&self.packets.get(id).route);
            table[id.index()].close_leg(if detour { Leg::Detour } else { leg }, cycle);
        }
    }

    /// Start the delay ledger of the packet just allocated at `id`, growing
    /// the table in step with the arena: a slot's first use pushes its entry
    /// (and, after an install that found used slots, the entries of the ones
    /// before it).  A no-op unless the delay probe is armed.
    #[inline]
    fn open_ledger(&mut self, id: PacketId, state: DelayState) {
        if let Some(table) = self.delay.as_mut() {
            if table.len() <= id.index() {
                table.resize(id.index() + 1, DelayState::default());
            }
            table[id.index()] = state;
        }
    }

    /// Whether the piggybacking board is kept up to date: something reads
    /// it, either the mechanism ([`RoutingAlgorithm::READS_GLOBAL_BOARD`])
    /// or an installed probe.  Otherwise no phase marks or re-evaluates a
    /// channel, and [`RouterView::global_congested`] is `None`.
    #[inline]
    fn keeps_board(&self) -> bool {
        R::READS_GLOBAL_BOARD || self.probe.is_some()
    }

    /// Mark the global channel behind `(router, global port)` for re-evaluation.
    #[inline]
    fn mark_pb_dirty(&mut self, router: usize, gport: usize) {
        let rpg = self.params.routers_per_group();
        let channels = self.params.global_channels_per_group();
        let channel = self.params.global_channel_of(router % rpg, gport);
        let flat = (router / rpg) * channels + channel;
        if !self.pb_dirty[flat] {
            self.pb_dirty[flat] = true;
            self.pb_dirty_list.push(flat as u32);
        }
    }

    // Event-driven piggybacking board: a channel's advertised congestion flag can only
    // change when the downstream occupancy of its global output changes, i.e. when a
    // phit is transmitted (phase D) or a credit returns (phase A).  Both places mark
    // the channel dirty and only dirty channels are re-evaluated here, mirroring the
    // active-set scheduling of links and routers.  While the board is not kept
    // nothing is marked, so the list is empty.
    fn update_pb_board(&mut self) {
        let channels = self.params.global_channels_per_group();
        while let Some(flat) = self.pb_dirty_list.pop() {
            let flat = flat as usize;
            self.pb_dirty[flat] = false;
            let (g, d) = (flat / channels, flat % channels);
            let congested = self.scan_pb_channel(g, d);
            self.pb_board.set(g, d, congested);
        }
        #[cfg(debug_assertions)]
        if let Err(diverged) = self.check_pb_board() {
            panic!("{diverged}");
        }
    }

    /// The congestion flag of channel `d` of group `g` from a scan of the
    /// global output behind it: its downstream occupancy is above the
    /// threshold share of its capacity.  Clear for a channel whose router
    /// another shard owns — no output to scan, and nothing here ever marks it.
    fn scan_pb_channel(&self, g: usize, d: usize) -> bool {
        let (ridx, gport) = self.params.global_channel_owner(d);
        let router = g * self.params.routers_per_group() + ridx;
        if !self.owned_routers.contains(&router) {
            return false;
        }
        let out = &self.routers[router].outputs[Port::Global(gport).flat(self.params.h())];
        out.total_occupancy() as f64
            > self.config.pb_congestion_threshold * out.total_capacity() as f64
    }

    // ------------------------------------------------------------------
    // Sharding support (see `dragonfly_shard`).
    // ------------------------------------------------------------------
    //
    // A sharded run partitions the groups across several `Network`s, each
    // built by `with_owned_routers` for its own range of routers.  Each steps
    // `advance_hooks` / `step_phases` / `close_cycle` under an external
    // per-cycle barrier; at the barrier, what a shard launched on a global
    // link whose other end another shard owns is taken off its one-slot ring
    // and launched again, at the same cycle, on the owner's full copy
    // through the methods below.

    /// The routers this network instance owns (every router unless it was
    /// built as one partition of a sharded run).
    pub fn owned_routers(&self) -> Range<usize> {
        self.owned_routers.clone()
    }

    /// The node range this network instance generates packets for: the nodes
    /// of its owned routers.
    pub fn owned_nodes(&self) -> Range<usize> {
        let per_router = self.params.nodes_per_router();
        self.owned_routers.start * per_router..self.owned_routers.end * per_router
    }

    /// Whether this instance owns the router link `li` starts at (where its
    /// credits mature).
    fn owns_transmitter(&self, li: usize) -> bool {
        self.owned_routers
            .contains(&(li / self.params.ports_per_router()))
    }

    /// Whether this instance owns the router link `li` ends at (where its
    /// phits mature); an ejection link ends at a node of its own router.
    fn owns_receiver(&self, li: usize) -> bool {
        match self.fabric.end(li) {
            LinkEnd::Router { router, .. } => self.owned_routers.contains(&router),
            LinkEnd::Node { .. } => self.owns_transmitter(li),
        }
    }

    /// Number of links (every router's output ports, flat-indexed as
    /// `router * ports_per_router + port`).
    pub fn num_links(&self) -> usize {
        self.fabric.len()
    }

    /// Where the link `li` ends (the receiving router/port or ejection node).
    pub fn link_end(&self, li: usize) -> LinkEnd {
        self.fabric.end(li)
    }

    /// Phits currently in flight on link `li`'s forward pipeline.  A single
    /// counter read — the watchdog and idle checks never scan the slots.
    pub fn link_phits_in_flight(&self, li: usize) -> usize {
        self.fabric.phits_in_flight(li)
    }

    /// Credits currently in flight on link `li`'s return pipeline (one
    /// counter read, like [`Network::link_phits_in_flight`]).
    pub fn link_credits_in_flight(&self, li: usize) -> usize {
        self.fabric.credits_in_flight(li)
    }

    /// Take the phit launched this cycle on link `li`, a transmit-side
    /// boundary link, off its one-slot ring (at the current cycle's barrier:
    /// the shard owning the receiving router launches it again).
    pub fn take_link_phit(&mut self, li: usize) -> Option<PhitInFlight> {
        let phit = self.fabric.take_export_phit(li)?;
        self.retire_link_if_idle(li);
        Some(phit)
    }

    /// Take the mask of credits launched this cycle on link `li`, a
    /// receive-side boundary link, off its one-slot ring (at the current
    /// cycle's barrier: the shard owning the transmitting router launches
    /// them again); 0 when none was launched.
    pub fn take_link_credits(&mut self, li: usize) -> u8 {
        let mask = self.fabric.take_export_credits(li);
        if mask != 0 {
            self.retire_link_if_idle(li);
        }
        mask
    }

    /// An exported link has nothing left to mature: the arrival sweep would
    /// never open it again, so it leaves the active set here.
    fn retire_link_if_idle(&mut self, li: usize) {
        if self.fabric.is_idle(li) {
            self.active_links.remove(li);
        }
    }

    /// Launch on this shard's copy of link `li`, at the current cycle, a
    /// phit the transmitting shard launched on its own copy this cycle
    /// ([`Network::take_link_phit`]): it lands in the slot, and arrives at
    /// the cycle, of the sequential engine's launch.  A head must name the
    /// local copy of its packet ([`Network::adopt_packet`]); the phits after
    /// it name none.
    ///
    /// # Panics
    ///
    /// Panics, naming the link, unless this instance owns the router the link
    /// ends at — the only instance that can ever deliver the phit.  A
    /// mis-wired boundary fails here instead of dropping traffic.
    pub fn import_link_phit(&mut self, li: usize, phit: PhitInFlight) {
        assert!(
            self.owns_receiver(li),
            "link {li}: phit imported by a network that does not own the link's receiving \
             router (it owns routers {:?})",
            self.owned_routers
        );
        self.fabric.send_phit(li, self.cycle, phit);
        self.active_links.insert(li);
    }

    /// Launch on this shard's copy of link `li`, at the current cycle, the
    /// credits (bit `v`: VC `v`) the receiving shard launched on its own
    /// copy this cycle ([`Network::take_link_credits`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the link, unless this instance owns the router the link
    /// starts at (the credits' destination).
    pub fn import_link_credits(&mut self, li: usize, mut mask: u8) {
        assert!(
            self.owns_transmitter(li),
            "link {li}: credit imported by a network that does not own the link's \
             transmitting router (it owns routers {:?})",
            self.owned_routers
        );
        while mask != 0 {
            self.fabric
                .send_credit(li, self.cycle, mask.trailing_zeros() as u8);
            mask &= mask - 1;
        }
        self.active_links.insert(li);
    }

    /// Clone the full state of a live packet, and its delay ledger while the
    /// delay probe is armed (shipped alongside the head phit when a packet
    /// crosses a shard boundary).
    pub fn export_packet(&self, id: PacketId) -> (Packet, Option<DelayState>) {
        let delay = self.delay.as_ref().map(|table| table[id.index()]);
        (self.packets.get(id).clone(), delay)
    }

    /// Free a packet whose tail phit has left this shard (the receiving shard
    /// owns the authoritative copy from its head-phit import on).
    pub fn release_exported_packet(&mut self, id: PacketId) {
        self.packets.free(id);
    }

    /// Adopt a packet arriving from another shard, with its delay ledger
    /// when the delay probe is armed ([`Network::export_packet`]), into the
    /// local arena and return its local id.
    pub fn adopt_packet(&mut self, packet: &Packet, delay: Option<DelayState>) -> PacketId {
        debug_assert_eq!(
            delay.is_some(),
            self.delay.is_some(),
            "a packet's delay ledger crosses a boundary exactly when both shards keep one"
        );
        let id = self.packets.adopt(packet);
        if let Some(state) = delay {
            self.open_ledger(id, state);
        }
        id
    }

    /// Start logging delivery feedback so a sharded run can broadcast it (see
    /// [`Network::job_deliveries`]).  The log is reserved at its
    /// per-cycle bound — an ejection link delivers at most one tail per cycle,
    /// so one entry per owned node — and never grows.
    pub fn enable_delivery_log(&mut self) {
        self.delivery_log = Some(Vec::with_capacity(self.owned_nodes().len()));
    }

    /// The job ids delivered on this shard since the log was last cleared
    /// (delivery feedback a sharded run broadcasts to the other shards'
    /// job runtime replicas); empty without a log.
    pub fn job_deliveries(&self) -> &[u16] {
        self.delivery_log.as_deref().unwrap_or(&[])
    }

    /// Forget the logged deliveries once they have been broadcast.  The log
    /// keeps its storage.
    pub fn clear_job_deliveries(&mut self) {
        if let Some(log) = self.delivery_log.as_mut() {
            log.clear();
        }
    }

    /// Apply delivery feedback observed on *another* shard to this shard's
    /// job runtime replica, keeping every replica's volume counters in
    /// lockstep.
    pub fn apply_remote_deliveries(&mut self, deliveries: &[u16]) {
        if let Some(jobs) = self.jobs.as_mut() {
            for &job in deliveries {
                jobs.note_delivered(job);
            }
        }
    }

    /// Phits currently stored across all input buffers of this network
    /// instance (the per-shard summand of the memory-footprint telemetry).
    pub fn buffered_phits_total(&self) -> u64 {
        self.buffered_total
    }

    /// Slots the packet arena pushed beyond its construction-time
    /// reservation: 0 while [`Network::arena_bound`] holds (engine-local
    /// diagnostic; deliberately *not* part of `SimReport`, because each shard
    /// of a sharded run keeps its own arena and the value would break the
    /// byte-identity of sequential and sharded reports).
    pub fn arena_grows(&self) -> u64 {
        self.packets.grows()
    }

    /// The most packets the buffers of the routers this instance owns can
    /// hold at once: what the arena and the delay table are reserved at
    /// (never below [`MIN_RESERVED_SLOTS`]).  A sum over the owned routers,
    /// so the bounds of a sharded run's shards add up to the sequential one
    /// exactly (the derivation is on `packets_per_router`).
    pub fn arena_bound(&self) -> usize {
        self.arena_bound
    }

    /// Generated packets waiting at this instance's sources that hold no
    /// arena slot yet (a count, not a scan).  A packet leaves its queue for
    /// its arena slot with its first phit, so a part-fed one is live in the
    /// arena and not counted here.
    pub fn queued_packets(&self) -> usize {
        self.sources.queued
    }

    /// Packets this instance still holds whose head has crossed a boundary
    /// link into another shard's arena: each is live in two arenas until
    /// its tail leaves this one (0 on a sequential run).  Between cycles
    /// they are exactly the input-VC heads with phits sent on a link whose
    /// receiving router another instance owns.
    pub fn exporting_packets(&self) -> usize {
        let ports = self.params.ports_per_router();
        self.owned_routers
            .clone()
            .flat_map(|r| (0..ports).map(move |p| (r, p)))
            .map(|(r, p)| {
                self.inputs
                    .port_vcs(r, p)
                    .iter()
                    .filter(|vc| {
                        vc.head_sent() > 0
                            && vc.route().is_some_and(|(out, _)| {
                                !self.owns_receiver(r * ports + out as usize)
                            })
                    })
                    .count()
            })
            .sum()
    }

    /// Heap bytes this network instance allocated for its pools, as capacity ×
    /// element size (engine-local diagnostic, like [`Network::arena_grows`]).
    /// The partition of a sharded run is exact in these terms: see
    /// [`PoolBytes`].
    pub fn allocated_bytes(&self) -> PoolBytes {
        PoolBytes {
            input_fabric: self.inputs.allocated_bytes(),
            port_vectors: self.routers.iter().map(Router::allocated_bytes).sum(),
            fabric_pools: self.fabric.pool_bytes(),
            ejection: self.ejecting.capacity() * std::mem::size_of::<PacketId>(),
            arena: self.packets.allocated_bytes(),
            delay_table: self.delay.as_ref().map_or(0, |table| {
                table.capacity() * std::mem::size_of::<DelayState>()
            }),
            source_queues: self.sources.allocated_bytes(),
        }
    }

    // ------------------------------------------------------------------
    // Observability probes (see `dragonfly_probe`).
    // ------------------------------------------------------------------

    /// Install the observability probes: a recorder sized for this network,
    /// sampled every `cfg.stride` cycles at the tail of [`Network::step_phases`]
    /// (so the sequential and sharded engines sample at the identical point).
    ///
    /// Probes are read-only: they consume no RNG draws and change no report
    /// field, and all their storage is reserved here, so the zero-alloc
    /// guarantee of the cycle loop holds with probes enabled.
    ///
    /// Two engine layers exist only for the probe.  The piggybacking board is
    /// kept from here on (the `pb_congested` series reads it), rebuilt now
    /// from a full scan.  With `cfg.delay` the per-packet delay table is
    /// reserved like the arena, at [`Network::arena_bound`] (at least
    /// [`MIN_RESERVED_SLOTS`]), and grows in step with it.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.delay` is set while packets are in the network: their
    /// ledgers would have missed legs, so no stamp could sum to a latency.
    pub fn install_probes(&mut self, cfg: ProbeConfig) {
        assert!(
            !cfg.delay || self.packets.live() == 0,
            "the delay ledger must be armed before the first packet enters the network"
        );
        self.delay = cfg
            .delay
            .then(|| Vec::with_capacity(self.arena_bound.max(MIN_RESERVED_SLOTS)));
        let ports = self.params.ports_per_router();
        let h = self.params.h();
        let link_class = (0..self.fabric.len())
            .map(|li| match Port::from_flat(li % ports, h).kind() {
                PortKind::Local => CLASS_LOCAL,
                PortKind::Global => CLASS_GLOBAL,
                PortKind::Terminal => CLASS_TERMINAL,
            })
            .collect();
        let vcs = (0..ports)
            .map(|p| self.config.vcs_for(Port::from_flat(p, h).kind()))
            .max()
            .unwrap_or(1);
        let dims = ProbeDims {
            routers: self.routers.len(),
            ports,
            vcs,
            link_class,
        };
        self.probe = Some(Box::new(ProbeRecorder::new(cfg, dims)));
        let channels = self.params.global_channels_per_group();
        for g in 0..self.params.groups() {
            for d in 0..channels {
                let congested = self.scan_pb_channel(g, d);
                self.pb_board.set(g, d, congested);
            }
        }
    }

    /// The installed probe recorder, if any.
    pub fn probe(&self) -> Option<&ProbeRecorder> {
        self.probe.as_deref()
    }

    /// Remove and return the installed probe recorder (emission happens on
    /// the extracted recorder, outside the cycle loop).  The delay table goes
    /// with it.
    pub fn take_probe(&mut self) -> Option<Box<ProbeRecorder>> {
        self.delay = None;
        self.probe.take()
    }

    /// Probe bookkeeping at the tail of [`Network::step_phases`]: on stride
    /// cycles, scan the receive-side VC occupancies into the heatmap and push
    /// one time-series sample.  A no-op without an installed probe.
    fn probe_sample(&mut self, cycle: u64) {
        let (stride, heatmap) = match self.probe.as_deref() {
            Some(p) => (p.stride(), p.heatmap_enabled()),
            None => return,
        };
        if !cycle.is_multiple_of(stride) {
            return;
        }
        let ports = self.params.ports_per_router();
        if heatmap {
            // Occupancy is attributed to the link *feeding* each input VC.
            // Routers another shard owns never buffer phits here, so every
            // cell is accumulated by exactly one shard.
            let probe = self.probe.as_deref_mut().unwrap();
            for r in self.owned_routers.clone() {
                if self.buffered_phits[r] == 0 {
                    continue;
                }
                for p in 0..ports {
                    let li = self.incoming_link[r * ports + p];
                    if li == NO_LINK {
                        continue;
                    }
                    for (vc, ivc) in self.inputs.port_vcs(r, p).iter().enumerate() {
                        probe.add_occupancy(cycle, li as usize, vc, ivc.occupancy() as u32);
                    }
                }
            }
        }
        // The high-water scan reads only the fabric's per-link counter words
        // (one cache line per 8 links), never the slot pools themselves.
        let (phit_hw, credit_hw) = self.fabric.max_high_waters();
        let snap = SampleSnapshot {
            buffered_phits: self.buffered_total,
            pb_congested: self.pb_board.congested_count(),
            arena_grows: self.packets.grows(),
            phit_ring_high_water: phit_hw as u64,
            credit_ring_high_water: credit_hw as u64,
            active_links: self.active_links.len() as u64,
            active_routers: self.active_routers.len() as u64,
        };
        let probe = self.probe.as_deref_mut().unwrap();
        probe.sample(cycle, &self.link_phits, snap);
    }

    /// Compare the due-work structures with the full scans they replace: both
    /// port masks against every VC of every router, `pending_sources` against
    /// every source queue, `active_links` and the fabric's `next_due` stamps
    /// against every link's slots.  And check ownership, the other thing the
    /// phases assume instead of testing: a router, node or link this instance
    /// does not own is in none of those sets and has no storage behind it.
    /// `Err` describes the first disagreement.
    ///
    /// Holds between cycles (of a sharded run: after the barrier's export and
    /// import), when every slot before `cycle` has been drained.  Debug
    /// builds assert it at the close of every cycle; `tests/due_work.rs` steps
    /// it in release builds too.
    pub fn check_due_sets(&self) -> Result<(), String> {
        let ports = self.params.ports_per_router();
        for (r, router) in self.routers.iter().enumerate() {
            if !self.owned_routers.contains(&r) {
                if router.allocated_bytes() != 0 {
                    return Err(format!("router {r} is not owned but has output ports"));
                }
                if self.active_routers.contains(r)
                    || self.in_occupied[r] != 0
                    || self.out_owned[r] != 0
                    || self.buffered_phits[r] != 0
                {
                    return Err(format!("router {r} is not owned but is scheduled"));
                }
                // No input VCs to scan: the input fabric covers the owned
                // range only.
                continue;
            }
            let scan = |has: &dyn Fn(usize) -> bool| {
                (0..ports)
                    .filter(|&p| has(p))
                    .fold(0u64, |mask, p| mask | 1 << p)
            };
            let occupied = scan(&|p| self.inputs.port_has_packets(r, p));
            if self.in_occupied[r] != occupied {
                return Err(format!(
                    "router {r}: in_occupied is {:#b} but the input VCs say {occupied:#b}",
                    self.in_occupied[r]
                ));
            }
            let owned = scan(&|p| router.outputs[p].has_owner());
            if self.out_owned[r] != owned {
                return Err(format!(
                    "router {r}: out_owned is {:#b} but the output VCs say {owned:#b}",
                    self.out_owned[r]
                ));
            }
        }
        let owned_nodes = self.owned_nodes();
        for n in 0..self.params.num_nodes() {
            let pending = self.pending_sources.contains(n);
            if !owned_nodes.contains(&n) {
                if pending {
                    return Err(format!("node {n} is not owned but is scheduled"));
                }
            } else if pending == self.sources.is_empty(n) {
                return Err(format!(
                    "node {n}: pending_sources membership is {pending} with its source \
                     queue {}",
                    if pending { "empty" } else { "holding a packet" }
                ));
            }
        }
        self.sources.check()?;
        for li in 0..self.fabric.len() {
            if !self.owns_transmitter(li)
                && !self.owns_receiver(li)
                && (self.active_links.contains(li) || self.fabric.capacities(li) != (0, 0))
            {
                return Err(format!(
                    "link {li} has no owned end but is scheduled or has slots {:?}",
                    self.fabric.capacities(li)
                ));
            }
            if self.active_links.contains(li) == self.fabric.is_idle(li) {
                return Err(format!(
                    "link {li}: active_links membership is {} with {} phits and {} credits \
                     in flight",
                    self.active_links.contains(li),
                    self.fabric.phits_in_flight(li),
                    self.fabric.credits_in_flight(li)
                ));
            }
        }
        // Everything before `self.cycle` has been drained.
        self.fabric.check_next_due(self.cycle.saturating_sub(1))?;
        self.fabric.check_head_fifos()
    }

    /// Debug-build check of the due-work structures against the full scans
    /// they replaced.
    #[cfg(debug_assertions)]
    fn assert_due_sets_match_full_scan(&self) {
        if let Err(diverged) = self.check_due_sets() {
            panic!(
                "due-work sets diverged at the close of cycle {}: {diverged}",
                self.cycle - 1
            );
        }
    }

    /// Compare the piggybacking board with the full scan it replaces: every
    /// flag against the occupancy of the global output behind it
    /// (`scan_pb_channel`, the scan [`Network::install_probes`] rebuilds the
    /// board with).  `Err` names the first channel that disagrees.  A board
    /// that is not kept ([`RoutingAlgorithm::READS_GLOBAL_BOARD`] unset and
    /// no probe installed) is read by nothing and checks `Ok`.
    ///
    /// Holds between cycles, like [`Network::check_due_sets`]: debug builds
    /// assert it after every board update; `tests/due_work.rs` steps it in
    /// release builds too.
    pub fn check_pb_board(&self) -> Result<(), String> {
        if !self.keeps_board() {
            return Ok(());
        }
        for g in 0..self.params.groups() {
            for d in 0..self.params.global_channels_per_group() {
                let (kept, scanned) = (self.pb_board.group(g)[d], self.scan_pb_channel(g, d));
                if kept != scanned {
                    return Err(format!(
                        "PB board diverged from the full scan at group {g} channel {d} \
                         (cycle {}): the board says {kept}, the outputs {scanned}",
                        self.cycle
                    ));
                }
            }
        }
        Ok(())
    }

    /// Check credit conservation on every output VC whose link this instance
    /// owns at both ends (every link of a sequential run; a shard's
    /// boundary links are exported at the barrier and skipped):
    ///
    /// `credits` + the VC's phits on the forward link + the downstream input
    /// VC's occupancy + the VC's credits on the return link
    /// = `downstream_capacity`.
    ///
    /// Every phit the transmitter launches takes a credit, and the credit
    /// comes back only once the phit has left the downstream buffer, so each
    /// phit of capacity is in exactly one of the four places.  An ejection
    /// link's node consumes a phit on arrival and returns its credit at
    /// once, so the occupancy term is 0 there.  `Err` names the first VC
    /// that breaks the law.
    ///
    /// Holds between cycles, like [`Network::check_due_sets`];
    /// `tests/credit_conservation.rs` steps it in release builds.
    pub fn check_credit_conservation(&self) -> Result<(), String> {
        let ports = self.params.ports_per_router();
        for r in self.owned_routers.clone() {
            for (op, output) in self.routers[r].outputs.iter().enumerate() {
                let li = r * ports + op;
                if !self.owns_receiver(li) {
                    continue;
                }
                let end = self.fabric.end(li);
                for (vc, out) in output.vcs.iter().enumerate() {
                    let (phits, returning) = self.fabric.vc_in_flight(li, vc as u8);
                    let buffered = match end {
                        LinkEnd::Router { router, port } => {
                            self.inputs.vc(router, port, vc).occupancy()
                        }
                        LinkEnd::Node { .. } => 0,
                    };
                    let total = out.credits as usize + phits + buffered + returning;
                    if total != out.downstream_capacity as usize {
                        return Err(format!(
                            "router {r} port {op} VC {vc} (cycle {}): {} credits + {phits} \
                             phits on the link + {buffered} buffered + {returning} credits \
                             returning = {total}, not the capacity {}",
                            self.cycle, out.credits, out.downstream_capacity
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Check that the arena holds no more packets than the buffers bound:
    /// `live` ≤ [`Network::arena_bound`].  `Err` gives both counts.
    ///
    /// Holds between cycles, like [`Network::check_credit_conservation`];
    /// `tests/credit_conservation.rs` steps it in release builds.
    pub fn check_arena_bound(&self) -> Result<(), String> {
        let live = self.packets.live();
        if live > self.arena_bound {
            return Err(format!(
                "cycle {}: {live} live packets above the arena bound {}",
                self.cycle, self.arena_bound
            ));
        }
        Ok(())
    }
}

/// Downstream capacity in phits of each flat output port, identical for
/// every router: the input buffer at the far end of the link, and
/// `max(4 × packet_size, injection_buffer)` for an ejection port.
fn downstream_capacities(config: &SimConfig) -> Vec<usize> {
    let h = config.params.h();
    let ejection = (config.packet_size * 4).max(config.injection_buffer);
    (0..config.params.ports_per_router())
        .map(|flat| match Port::from_flat(flat, h).kind() {
            PortKind::Local => config.local_buffer,
            PortKind::Global => config.global_buffer,
            PortKind::Terminal => ejection,
        })
        .collect()
}

/// The most packets one router's buffers can hold at once, and so the
/// arena slots each owned router reserves: `⌊c / packet_size⌋ + 2` summed
/// over its input VCs ([`PortGeometry`]) and its ejection VCs (the terminal
/// output ports' VCs, of [`downstream_capacities`]).  `SimConfig::validate`
/// bounds the whole machine's sum by the [`PacketId`] index space.
///
/// A packet holds its slot from the cycle its head phit enters the
/// injection VC until its tail phit reaches the destination node.  Give
/// every VC a *domain*: an input VC's domain is its buffer plus the phits
/// on the link feeding it (an injection VC is fed by its node directly), an
/// ejection VC's is the phits on the ejection link (the node consumes each
/// on arrival).  A phit enters a domain only on a credit of the VC and
/// returns the credit when it leaves, so a domain of a `c`-phit VC holds at
/// most `c` phits.  Phits of two packets never interleave in a VC or on a
/// VC of a link, so the packets with a phit in a domain form a FIFO run in
/// which every packet but the first and the last is whole: at most
/// `⌊c / packet_size⌋ + 2` of them.  Between cycles every live packet has a
/// phit in some domain: its tail is not delivered yet (that frees the
/// slot), and while its node is still feeding it, it is the last packet of
/// its injection VC, which the node feeds whenever there is room, so its
/// latest phit is still in the network.  The sum over the domains bounds
/// the live packets.
///
/// Each domain belongs to one router (an input VC to the router it buffers
/// at, an ejection VC to the router it leaves), so the bound is a sum over
/// routers and a shard's share is the sum over the routers it owns: a
/// packet crossing a boundary link is live in the receiving shard's arena
/// from its head's import on, with a phit in that shard's domain, and in
/// the sending shard's until its tail leaves, with a phit still buffered
/// there.
///
/// At the paper's VCT configuration (8-phit packets; 32-phit local,
/// injection and ejection buffers, 256-phit global ones; 3 local and 2
/// global VCs) the input side is `6h + 18(2h − 1) + 68h = 110h − 18` and
/// the ejection side `18h`: `128h − 18` per router, 1 006 at h = 8.
pub(crate) fn packets_per_router(config: &SimConfig) -> usize {
    let packets = |capacity: usize| capacity / config.packet_size + 2;
    let h = config.params.h();
    let inputs = PortGeometry::new(config);
    let downstream = downstream_capacities(config);
    (0..downstream.len())
        .map(|flat| {
            let input: usize = (0..inputs.port_vcs(flat).len())
                .map(|vc| packets(inputs.capacity(flat, vc)))
                .sum();
            let kind = Port::from_flat(flat, h).kind();
            let ejection = if kind == PortKind::Terminal {
                config.vcs_for(kind) * packets(downstream[flat])
            } else {
                0
            };
            input + ejection
        })
        .sum()
}

/// The fewest slots the arena and the delay table reserve: 32 MiB of
/// `Packet`-sized entries, the largest mmap threshold of glibc's `malloc`.  A
/// reservation that large is always a fresh mapping, resident only where
/// written.  A smaller one is carved from the recycled heap, where its
/// unwritten pages are pages a later network's allocations write: a sweep
/// running one h = 2 network after another on two threads peaked at
/// 8.2 MB of RSS with its arenas reserved at the bare bound (8 568 slots)
/// and at 7.5 MB with this floor.  From h = 7 on the bound is larger.
pub const MIN_RESERVED_SLOTS: usize = (32 << 20) / std::mem::size_of::<Packet>() + 1;

/// `incoming_link` of a port no link feeds (a terminal/injection port).
const NO_LINK: u32 = u32::MAX;

/// Indices of the set bits of a port mask, ascending.
#[inline]
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Apply a granted routing decision to the packet state.
fn apply_grant(
    packet: &mut crate::packet::Packet,
    choice: &RouteChoice,
    params: &DragonflyParams,
    current_router: RouterId,
) {
    let up = &choice.update;
    if let Some(g) = up.set_intermediate_group {
        packet.route.intermediate_group = Some(g);
    }
    if up.mark_global_misroute {
        packet.route.global_misrouted = true;
    }
    if up.mark_source_decision {
        packet.route.source_decision_taken = true;
    }
    match choice.port {
        Port::Local(_) => {
            packet.route.local_hops_in_group += 1;
            packet.route.total_hops = packet.route.total_hops.saturating_add(1);
            if up.mark_local_misroute {
                packet.route.local_misrouted_in_group = true;
                packet.route.local_misrouted_ever = true;
            }
            packet.route.last_local_class = up.local_link_class;
            packet.route.vc = choice.vc;
        }
        Port::Global(p) => {
            packet.route.global_hops += 1;
            packet.route.total_hops = packet.route.total_hops.saturating_add(1);
            packet.route.enter_new_group();
            packet.route.vc = choice.vc;
            let (remote, _) = params.global_neighbor(current_router, p);
            if Some(params.group_of_router(remote)) == packet.route.intermediate_group {
                packet.route.reached_intermediate = true;
            }
        }
        Port::Terminal(_) => {}
    }
}

/// True while a packet is travelling away from its minimal path: globally
/// misrouted but not yet at the intermediate group, or locally misrouted
/// inside the current group.  Waits and transits incurred in this state are
/// booked to the `detour` delay component; everything after the detour
/// rejoins the minimal components, so Minimal routing has an identically
/// zero detour column.
#[inline]
fn on_detour(route: &RouteState) -> bool {
    (route.global_misrouted && !route.reached_intermediate) || route.local_misrouted_in_group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing_iface::BaselineMinimal;
    use dragonfly_traffic::Uniform;

    fn tiny_network() -> Network<BaselineMinimal> {
        let config = SimConfig::paper_vct(2).with_seed(7);
        Network::with_routing(config, BaselineMinimal::new(), Box::new(Uniform::new()))
    }

    #[test]
    fn construction_counts() {
        let net = tiny_network();
        assert_eq!(net.routers.len(), 36);
        assert_eq!(net.sources.queues.len(), 72);
        assert_eq!(net.num_links(), 36 * 7);
        assert_eq!(net.routing_name(), "Minimal");
        assert_eq!(net.traffic_name(), "UN");
        assert!(net.is_drained());
    }

    /// The per-entry sizes the eagerly reserved state is priced in.  Each
    /// comment gives what the entry costs on the h = 8 paper machine
    /// (2 064 routers of 8 nodes: 69 input and 85 output VCs, 989 phit and
    /// 989 credit pipeline slots per router; 1 006 arena slots per router,
    /// 128h − 18 by `packets_per_router`: 6 for each of the 8 injection VCs,
    /// the 45 local and the 24 ejection VCs, 34 for each of the 16 global
    /// VCs).
    #[test]
    fn hot_path_layout_is_pinned() {
        use crate::buffer::InputVc;
        use crate::router::OutputVc;
        use std::mem::size_of;
        // 142 416 input VCs, each two packet ids and four 16-bit words (the
        // head's phits sent, the tail's received, the occupancy and the
        // packed route): 2.3 MB.
        assert_eq!(size_of::<InputVc>(), 16);
        // 175 440 output VCs: 2.1 MB.
        assert!(size_of::<OutputVc>() <= 12);
        // 2 041 296 phit pipeline slots, a tag byte each: 2.0 MB.  Only a
        // head's id rides the link, in a head FIFO of 2, 4 or 14 ids per
        // terminal, local or global link (`fabric::head_slots`), 188 per
        // router: 388 032 ids, 1.6 MB; and the ejection registers, an id
        // per node and ejection VC: 49 536 ids, 0.2 MB.
        assert_eq!(size_of::<PacketId>(), 4);
        // 16 512 source queues, a `(head, tail, phits fed)` triple each:
        // 0.2 MB; and a pool of 4 queued-packet records per node, reserved
        // (1.6 MB), resident only as far as records are used.
        assert_eq!(size_of::<SourceQueue>(), 12);
        assert_eq!(size_of::<Generated>(), 24);
        // 2 041 296 credit pipeline slots, a VC mask byte each: 2.0 MB.
        assert_eq!(crate::config::MAX_VCS_PER_PORT, u8::BITS as usize);
        // A phit as a drain yields it and a shard boundary ships it.
        assert_eq!(size_of::<PhitInFlight>(), 8);
        // 2 064 × 1 006 = 2 076 384 arena slots of a packet and a 4-byte
        // link: 108.0 MB reserved (the delay table, only while the delay
        // probe is armed, 116.3 MB more), resident ≈ the live high-water
        // times the entry size.
        assert_eq!(size_of::<Packet>(), 48);
        assert_eq!(size_of::<DelayState>(), 56);
    }

    #[test]
    fn incoming_link_map_is_consistent() {
        let net = tiny_network();
        let ports = net.params.ports_per_router();
        for r in 0..net.routers.len() {
            for p in 0..ports {
                let port = Port::from_flat(p, net.params.h());
                let li = net.incoming_link[r * ports + p];
                match port.kind() {
                    PortKind::Terminal => assert_eq!(li, NO_LINK),
                    _ => {
                        assert_ne!(li, NO_LINK, "network port without an incoming link");
                        match net.link_end(li as usize) {
                            LinkEnd::Router { router, port } => {
                                assert_eq!(router, r);
                                assert_eq!(port, p);
                            }
                            _ => panic!("incoming link of a network port ends at a node"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn idle_network_steps_without_activity() {
        let mut net = tiny_network();
        net.run(100);
        assert_eq!(net.cycle, 100);
        assert!(net.is_drained());
        assert!(!net.deadlock_detected);
        assert_eq!(net.stats.total_generated, 0);
    }

    #[test]
    fn single_packet_is_delivered_minimally() {
        let mut net = tiny_network();
        // Send one packet from node 0 to a node in another group.
        let src = NodeId(0);
        let dst = NodeId((net.params.num_nodes() - 1) as u32);
        net.stats.begin_measurement(0);
        net.enqueue(src, dst, true);
        net.run(1_000);
        assert!(net.is_drained(), "packet should be delivered");
        assert_eq!(net.stats.total_delivered, 1);
        assert_eq!(net.stats.measured_delivered, 1);
        // Latency at least the physical path: two local links + one global link plus
        // serialization of 8 phits.
        let latency = net.stats.latency.mean();
        assert!(latency >= 100.0, "latency {latency} too small");
        assert!(
            latency <= 400.0,
            "latency {latency} too large for an idle network"
        );
        let hops = net.stats.hops.mean();
        assert!((1.0..=3.0).contains(&hops), "hops {hops}");
    }

    #[test]
    fn same_router_packet_needs_no_network_hop() {
        let mut net = tiny_network();
        // Nodes 0 and 1 share router 0 when h = 2.
        net.stats.begin_measurement(0);
        net.enqueue(NodeId(0), NodeId(1), true);
        net.run(200);
        assert!(net.is_drained());
        assert_eq!(net.stats.hops.mean(), 0.0);
        assert!(net.stats.latency.mean() < 50.0);
    }

    /// `enqueue` records the generation itself: a hand-built packet's
    /// delivery balances it, with nothing else to call.
    #[test]
    fn an_enqueued_packet_leaves_nothing_in_flight() {
        let mut net = tiny_network();
        net.enqueue(NodeId(0), NodeId(71), false);
        assert_eq!(net.stats.total_generated, 1);
        net.run(1_000);
        assert!(net.is_drained());
        assert_eq!(net.stats.total_delivered, 1);
        assert_eq!(net.stats.in_flight(), 0);
    }

    #[test]
    fn burst_preload_counts() {
        let mut net = tiny_network();
        net.preload_burst(3);
        assert_eq!(
            net.stats.total_generated as usize,
            3 * net.params.num_nodes()
        );
        assert!(!net.is_drained());
    }

    #[test]
    fn uniform_load_conserves_packets() {
        let mut net = tiny_network();
        net.set_injection(Some(BernoulliInjection::new(0.1, 8)));
        net.run(2_000);
        net.set_injection(None);
        net.run(3_000);
        assert!(
            net.is_drained(),
            "all generated packets must eventually be delivered: {} in flight",
            net.stats.in_flight()
        );
        assert_eq!(net.stats.total_generated, net.stats.total_delivered);
        assert!(net.stats.total_delivered > 100);
        assert!(!net.deadlock_detected);
        assert_eq!(net.stored_phits(), 0);
    }

    #[test]
    fn link_phit_accounting_matches_deliveries() {
        let mut net = tiny_network();
        net.set_injection(Some(BernoulliInjection::new(0.1, 8)));
        net.run(1_500);
        net.set_injection(None);
        net.run(3_000);
        assert!(net.is_drained());
        // Every delivered packet crossed exactly one ejection (terminal) link with all
        // of its phits, so the terminal link totals must equal delivered phits.
        let mut terminal_phits = 0u64;
        for r in 0..net.routers.len() {
            for p in 0..net.params.ports_per_router() {
                if Port::from_flat(p, net.params.h()).is_terminal() {
                    terminal_phits += net.link_phits(r, p);
                }
            }
        }
        assert_eq!(terminal_phits, net.stats.total_delivered * 8);
        // Utilization numbers are well-formed.
        let (max_local, mean_local) = net.link_utilization_summary(PortKind::Local);
        assert!(max_local >= mean_local);
        assert!(max_local <= 1.0 + 1e-9);
        let (max_term, _) = net.link_utilization_summary(PortKind::Terminal);
        assert!(max_term > 0.0);
    }

    #[test]
    fn probes_record_without_perturbing_the_run() {
        let mut plain = tiny_network();
        plain.set_injection(Some(BernoulliInjection::new(0.1, 8)));
        plain.run(1_000);

        let mut probed = tiny_network();
        probed.install_probes(ProbeConfig::full(64));
        probed.set_injection(Some(BernoulliInjection::new(0.1, 8)));
        probed.run(1_000);

        // Read-only: the probed run's statistics are identical.
        assert_eq!(plain.stats.total_generated, probed.stats.total_generated);
        assert_eq!(plain.stats.total_delivered, probed.stats.total_delivered);
        assert_eq!(plain.stats.latency.mean(), probed.stats.latency.mean());

        let probe = probed.take_probe().unwrap();
        // Cycles 0, 64, …, 960 at stride 64 over 1 000 cycles: 16 samples.
        assert_eq!(probe.samples(), 16);
        let last = |name| *probe.column(name).unwrap().last().unwrap();
        assert_eq!(last("cycle"), 960);
        // The last sample (cycle 960) is a prefix of the full run's counters.
        let inj = last("injected");
        assert!(inj > 0 && inj <= probed.stats.total_generated, "{inj}");
        assert!(last("delivered") <= inj);
        assert!(last("link_terminal_phits") > 0);
        assert!(!probe.flight_events().is_empty());
        assert!(probe.heat_windows() > 0);
    }

    #[test]
    fn credits_return_to_full_after_drain() {
        let mut net = tiny_network();
        net.set_injection(Some(BernoulliInjection::new(0.2, 8)));
        net.run(1_000);
        net.set_injection(None);
        net.run(4_000);
        assert!(net.is_drained());
        for router in &net.routers {
            for (flat, out) in router.outputs.iter().enumerate() {
                let port = Port::from_flat(flat, net.params.h());
                if port.is_terminal() {
                    continue;
                }
                for vc in &out.vcs {
                    assert_eq!(
                        vc.credits, vc.downstream_capacity,
                        "credits must return to capacity once the network drains"
                    );
                    assert!(vc.is_free());
                }
            }
        }
    }
}
