//! Sharded single-simulation engine: per-group partitions stepping under a
//! per-cycle barrier, with message-passing global links.
//!
//! Every prior scaling layer parallelized *across* experiment points; this
//! crate parallelizes *inside* one simulation.  The dragonfly topology is
//! naturally partitionable: local links and ejection links never leave a
//! group, so partitioning whole groups across shards means the **only** state
//! crossing a shard boundary is (a) phits and credits on inter-group global
//! links and (b) the job runtime's delivery feedback.  Both are exchanged
//! once per cycle at a barrier.  Nothing exchanged carries a cycle: a phit or
//! credit crosses at the barrier of the cycle it was launched in, and the
//! receiving shard launches it again on its own copy of the link at that
//! cycle, so it arrives exactly when the sequential engine's launch would.
//!
//! # How a sharded cycle works
//!
//! Each shard owns a contiguous range of groups, holds the [`Network`] built
//! for exactly those routers (see *What a shard allocates* below) and runs on
//! its own scoped thread:
//!
//! 1. **Compute** — run the sequential engine's five phases
//!    ([`Network::advance_hooks`] + [`Network::step_phases`]) over the owned
//!    routers, links and nodes.
//! 2. **Export** — take the phit launched this cycle off each transmit-side
//!    boundary link's one-slot ring (and the credit mask off each receive-side
//!    one's) into per-pair mailboxes, shipping the full [`Packet`] state
//!    alongside each head phit (and its [`DelayState`] while the delay probe
//!    is armed); publish the shard's part of the cycle's close: activity,
//!    liveness, packets in flight and buffered phits.
//! 3. **Barrier** — every shard's exports and tallies are now visible.
//! 4. **Import** — launch the incoming phits and credits again on the local
//!    copies of the boundary links, at the current cycle, with the fabric's
//!    own launch; adopt head packets into the local arena (the relaunched
//!    head carries the local id; the phits after it name no packet, as on
//!    any link), and apply remote
//!    delivery feedback to the local
//!    [`Schedule`](dragonfly_workload::Schedule) replica.  Then close the
//!    cycle with the *global* view summed from the tallies
//!    ([`Network::close_cycle`]: deadlock watchdog, memory-telemetry peaks),
//!    so every shard reaches the sequential engine's verdicts at the same
//!    cycle.
//!
//! Between commands each worker publishes its network's [`Status`], and the
//! [`Driver`] a protocol loop holds merges them: the sharded [`Engine`] is the
//! sequential one's `step`, `control` and `status`, broadcast.
//!
//! # Why the result is byte-identical to the sequential engine
//!
//! * **RNG** — the engine draws randomness from per-router streams derived
//!   from the master seed, so no draw depends on how routers are partitioned
//!   or visited (see `Network`'s `rngs`).
//! * **Phase order-independence** — within a cycle, each phase's per-router /
//!   per-link work touches disjoint state, so the partition cannot reorder
//!   anything observable.
//! * **Boundary timing** — a phit sent at cycle `t` on a link of latency `L`
//!   is launched again by the receiving shard at the cycle-`t` barrier, still
//!   cycle `t` there, so it lands in the slot of cycle `t + L` with the same
//!   counters and high-water marks as the sequential launch; since `L ≥ 1`,
//!   the slot is filled before the receiver's cycle-`t + L` arrival phase
//!   drains it.  Credits go the other way alike.
//! * **Piggybacking board** — a router only ever *reads* the congestion flags
//!   of its own group, and the flags of a group are computed solely from the
//!   global-output occupancies of that group's routers.  Groups are never
//!   split, so the sharded board needs no exchange at all: each shard's dirty
//!   list updates exactly the entries its own routers would have updated
//!   sequentially.  A shard keeps the board exactly when the sequential
//!   engine would (the same mechanism, probes installed on every shard).
//! * **Statistics** — per-shard collectors use exact integer accumulators
//!   ([`dragonfly_stats::ExactStats`], histograms, counters), so merging them
//!   is associative and reproduces the sequential collector bit-for-bit.
//!
//! `tests/shard_equivalence.rs` pins sharded ≡ sequential byte-identity for
//! every routing mechanism × flow control combination and across shard counts.
//!
//! # What a shard allocates
//!
//! Ids are global on every shard and every id-indexed array has its full
//! length; the storage behind the ids is sized by ownership
//! ([`Network::with_owned_routers`]):
//!
//! | | state |
//! |---|---|
//! | partitioned (the shards' sum is the sequential network's) | the input fabric (input VCs), output ports, link rings, the packet arena, the per-packet delay table (only with the delay probe armed), source-queue reservations |
//! | duplicated | a boundary link's ring on the side that only launches into it: one phit on the transmitting shard, one credit mask on the receiving one — emptied at the same cycle's barrier.  The ring the other shard launches it again on is held in full by that shard alone |
//! | full length on every shard | per-link and per-router metadata arrays, RNG streams, the `StatsCollector` and the probe recorder (the known remaining per-shard full-size state) |
//!
//! The shard layer's own state is sized at construction too — the export
//! registers (the packet each VC of a transmit-side boundary link has open,
//! freed at its tail), the mailbox batches (one phit and one credit mask per
//! boundary link, one delivery per owned node) — so the sharded cycle loop
//! allocates nothing, like the sequential one (`tests/zero_alloc.rs` pins
//! both).
//! `tests/shard_memory.rs` pins the partition in bytes.

#![warn(missing_docs)]

use dragonfly_probe::{ProbeConfig, ProbeRecorder};
use dragonfly_sim::{
    protocol, Control, DelayState, Engine, EngineHost, Network, Packet, PacketId, PhitInFlight,
    RoutingAlgorithm, SimConfig, StatsCollector, Status,
};
use dragonfly_stats::SimReport;
use dragonfly_topology::{DragonflyParams, Port, PortKind, RouterId};
use dragonfly_traffic::TrafficPattern;
use dragonfly_workload::Trace;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// How to partition one simulation across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards (each steps on its own thread).
    pub shards: usize,
}

impl ShardPlan {
    /// Plan a run with `shards` partitions (`1` = the partitioned engine with
    /// a single worker, still byte-identical to the sequential engine).
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded run needs at least one shard");
        Self { shards }
    }

    /// Split the topology's groups into `shards` contiguous, balanced ranges.
    ///
    /// # Panics
    ///
    /// Panics when there are more shards than groups (a shard must own at
    /// least one whole group — groups are the unit that keeps local links and
    /// the piggybacking board shard-internal).
    pub fn group_ranges(&self, params: &DragonflyParams) -> Vec<Range<usize>> {
        let groups = params.groups();
        assert!(
            self.shards <= groups,
            "cannot split {groups} groups into {} shards (one whole group per shard minimum)",
            self.shards
        );
        (0..self.shards)
            .map(|s| (s * groups / self.shards)..((s + 1) * groups / self.shards))
            .collect()
    }
}

/// What a head phit carries across a boundary: the packet, and its delay
/// ledger while the delay probe is armed ([`Network::export_packet`]).
type Payload = (Packet, Option<DelayState>);

/// One boundary message batch between an ordered pair of shards, exchanged at
/// the per-cycle barrier.  Every vector is reserved at what one cycle can put
/// in it ([`Shard::batch_to`]), so filling it never allocates.  Nothing in it
/// carries a cycle: everything was launched at the cycle of the barrier, and
/// the receiver launches it again at that cycle.
struct BoundaryBatch {
    /// Phits crossing a boundary link: `(the link's slot in the receiver's
    /// `rx_links`, phit, payload when the phit is the head)`.
    phits: Vec<(u32, PhitInFlight, Option<Payload>)>,
    /// Credits returning to the transmitting shard of a boundary link:
    /// `(flat link index, mask of the VCs credited)`.
    credits: Vec<(u32, u8)>,
    /// Job ids of packets delivered on the sending shard this cycle (volume
    /// feedback for every job runtime replica).
    deliveries: Vec<u16>,
}

/// What a shard contributes to the run-wide close of a cycle
/// ([`Network::close_cycle`]), published before the barrier: every shard
/// closes the cycle with the OR and the sums over all shards.
#[derive(Default)]
struct Tally {
    /// Any phit moved on this shard this cycle.
    activity: AtomicBool,
    /// Any packet live on this shard (or exported this cycle, which covers the
    /// barrier-transit window).
    live: AtomicBool,
    /// Packets generated minus packets delivered on this shard, wrapping (a
    /// shard delivers packets others generated): the sum is the run's.
    in_flight: AtomicU64,
    /// Phits stored in this shard's router buffers right now.
    buffered: AtomicU64,
}

/// Control messages broadcast from the orchestrator to every worker.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// Advance one cycle (compute → export → barrier → import → close).
    Step,
    /// Apply a protocol's control call to every shard.
    Control(Control),
    /// Leave the worker loop.
    Exit,
}

/// Shared synchronization state of one sharded run.
struct Conductor {
    /// Outer barrier (workers + orchestrator): frames each command.
    outer: Barrier,
    /// Inner barrier (workers only): separates export from import in a step.
    inner: Barrier,
    /// The current command (valid between the outer barrier pair around it).
    cmd: Mutex<Cmd>,
    /// Mailboxes: `mail[from][to]` carries `from`'s boundary traffic to `to`.
    mail: Vec<Vec<Mutex<BoundaryBatch>>>,
    /// Per-shard contributions to the close of the current cycle.
    tallies: Vec<Tally>,
    /// Per-shard status as the last command left it (read by the orchestrator).
    statuses: Vec<Mutex<Status>>,
}

impl Conductor {
    fn new<R: RoutingAlgorithm>(shards: &[Shard<R>]) -> Self {
        Self {
            outer: Barrier::new(shards.len() + 1),
            inner: Barrier::new(shards.len()),
            cmd: Mutex::new(Cmd::Step),
            mail: shards
                .iter()
                .map(|from| {
                    (0..shards.len())
                        .map(|to| Mutex::new(from.batch_to(to)))
                        .collect()
                })
                .collect(),
            tallies: shards.iter().map(|_| Tally::default()).collect(),
            statuses: shards.iter().map(|s| Mutex::new(s.net.status())).collect(),
        }
    }
}

/// Orchestrator-side handle over a running worker set: the sharded
/// [`Engine`], broadcasting every step and control call to the workers and
/// merging the statuses they publish.
pub struct Driver {
    c: Arc<Conductor>,
}

impl Driver {
    /// Broadcast one command and wait for every worker to finish it.
    fn dispatch(&self, cmd: Cmd) {
        *self.c.cmd.lock().unwrap() = cmd;
        self.c.outer.wait();
        self.c.outer.wait();
    }
}

impl Engine for Driver {
    fn step(&mut self) {
        self.dispatch(Cmd::Step);
    }

    fn control(&mut self, control: Control) {
        self.dispatch(Cmd::Control(control));
    }

    /// Counters summed over the shards; the cycle, the watchdog verdict and
    /// the job runtime replicas are in lockstep, so shard 0 speaks for all.
    fn status(&self) -> Status {
        let mut statuses = self.c.statuses.iter().map(|s| *s.lock().unwrap());
        let first = statuses.next().expect("a sharded run has a shard");
        statuses.fold(first, |run, shard| Status {
            generated: run.generated + shard.generated,
            delivered: run.delivered + shard.delivered,
            drained: run.drained && shard.drained,
            ..run
        })
    }
}

/// A boundary link a shard transmits on.
struct TxLink {
    /// Flat link index.
    link: usize,
    /// The shard owning the receiving router.
    peer: usize,
    /// The link's position in the peer's `rx_links` (how its phits are
    /// addressed on the wire).
    peer_slot: u32,
}

/// One partition of the simulation: the network of its own router range
/// ([`Network::with_owned_routers`]) plus its boundary wiring.
struct Shard<R: RoutingAlgorithm> {
    id: usize,
    net: Network<R>,
    /// Boundary links this shard transmits on.
    tx_links: Vec<TxLink>,
    /// Boundary links this shard receives on: `(flat link index, transmitter)`.
    rx_links: Vec<(usize, usize)>,
    /// VCs of a boundary (global) link.
    vcs: usize,
    /// The packet each VC of each transmit-side boundary link has open,
    /// `tx_links` index × `vcs` + VC: set when its head is exported, freed
    /// when its tail is (phits of different packets never interleave within
    /// one VC of a link, and a tail names no packet).
    exporting: Vec<PacketId>,
    /// Wall-clock nanoseconds this shard spent waiting at the inner
    /// (export → import) barrier — the load-imbalance component of a sharded
    /// run's wall time.
    barrier_wait_nanos: u64,
}

impl<R: RoutingAlgorithm> Shard<R> {
    /// An empty mailbox batch for this shard's traffic to shard `to`, reserved
    /// at the most one cycle can produce: a phit per link transmitted towards
    /// `to`, a credit mask per link received from it, a delivery per owned
    /// node.
    fn batch_to(&self, to: usize) -> BoundaryBatch {
        let links_out = self.tx_links.iter().filter(|tx| tx.peer == to).count();
        let links_back = self.rx_links.iter().filter(|&&(_, tx)| tx == to).count();
        BoundaryBatch {
            phits: Vec::with_capacity(links_out),
            credits: Vec::with_capacity(links_back),
            deliveries: Vec::with_capacity(self.net.owned_nodes().len()),
        }
    }

    /// One full simulation cycle of this shard (see the module docs).
    fn step(&mut self, c: &Conductor) {
        let shards = c.tallies.len();
        let net = &mut self.net;
        net.advance_hooks();
        let activity = net.step_phases();

        // Export: this cycle's boundary phits (with packet payloads on heads)
        // and credits.
        let mut exported = false;
        for (t, tx) in self.tx_links.iter().enumerate() {
            let Some(phit) = net.take_link_phit(tx.link) else {
                continue;
            };
            exported = true;
            let open = &mut self.exporting[t * self.vcs + phit.vc as usize];
            let payload = phit.head_packet().map(|id| {
                *open = id;
                net.export_packet(id)
            });
            if phit.is_tail() {
                // The receiver owns the authoritative copy from its head
                // import on; nothing on this shard references it any more.
                net.release_exported_packet(std::mem::replace(open, PacketId::NONE));
            }
            c.mail[self.id][tx.peer]
                .lock()
                .unwrap()
                .phits
                .push((tx.peer_slot, phit, payload));
        }
        for &(li, src) in &self.rx_links {
            let credits = net.take_link_credits(li);
            if credits != 0 {
                c.mail[self.id][src]
                    .lock()
                    .unwrap()
                    .credits
                    .push((li as u32, credits));
            }
        }
        let deliveries = net.job_deliveries();
        if !deliveries.is_empty() {
            for dst in 0..shards {
                if dst != self.id {
                    c.mail[self.id][dst]
                        .lock()
                        .unwrap()
                        .deliveries
                        .extend_from_slice(deliveries);
                }
            }
            net.clear_job_deliveries();
        }

        // Publish this shard's part of the cycle's close.  A packet whose
        // only copy is sitting in a mailbox right now is covered by
        // `exported` on the sending side.
        let tally = &c.tallies[self.id];
        tally.activity.store(activity, Ordering::Relaxed);
        tally
            .live
            .store(!net.is_drained() || exported, Ordering::Relaxed);
        let (generated, delivered) = (net.stats.total_generated, net.stats.total_delivered);
        tally
            .in_flight
            .store(generated.wrapping_sub(delivered), Ordering::Relaxed);
        tally
            .buffered
            .store(net.buffered_phits_total(), Ordering::Relaxed);

        // Everyone has exported and published.
        let wait_start = std::time::Instant::now();
        c.inner.wait();
        self.barrier_wait_nanos += wait_start.elapsed().as_nanos() as u64;

        // Import, in deterministic transmitter order: launch everything again
        // on this shard's copies of the links, at this cycle.
        for src in 0..shards {
            if src == self.id {
                continue;
            }
            let mut batch = c.mail[src][self.id].lock().unwrap();
            for (slot, phit, payload) in batch.phits.drain(..) {
                // A head is relaunched under the id of its local copy.
                let phit = match payload {
                    Some((packet, delay)) => PhitInFlight::head(
                        net.adopt_packet(&packet, delay),
                        phit.vc,
                        phit.is_tail(),
                    ),
                    None => phit,
                };
                net.import_link_phit(self.rx_links[slot as usize].0, phit);
            }
            for (li, credits) in batch.credits.drain(..) {
                net.import_link_credits(li as usize, credits);
            }
            if !batch.deliveries.is_empty() {
                net.apply_remote_deliveries(&batch.deliveries);
                batch.deliveries.clear();
            }
        }

        // Close the cycle with the run-wide view (identical on every shard).
        let (mut activity, mut live, mut in_flight, mut buffered) = (false, false, 0u64, 0u64);
        for tally in &c.tallies {
            activity |= tally.activity.load(Ordering::Relaxed);
            live |= tally.live.load(Ordering::Relaxed);
            in_flight = in_flight.wrapping_add(tally.in_flight.load(Ordering::Relaxed));
            buffered += tally.buffered.load(Ordering::Relaxed);
        }
        net.close_cycle(activity, live, in_flight, buffered);
    }

    /// The worker loop: execute broadcast commands until [`Cmd::Exit`],
    /// publishing this shard's status after each one.
    fn worker(&mut self, c: &Conductor) {
        loop {
            c.outer.wait();
            let cmd = *c.cmd.lock().unwrap();
            match cmd {
                Cmd::Step => self.step(c),
                Cmd::Control(control) => self.net.control(control),
                Cmd::Exit => {
                    c.outer.wait();
                    return;
                }
            }
            *c.statuses[self.id].lock().unwrap() = self.net.status();
            c.outer.wait();
        }
    }
}

/// A [`Simulation`](dragonfly_sim::Simulation) partitioned into per-group
/// shards that step concurrently, producing byte-identical reports.
///
/// The run protocols *are* the sequential engine's: each function of
/// [`dragonfly_sim::protocol`] takes either engine as its [`EngineHost`],
/// drives this one through the [`Driver`], and for the same configuration and
/// seed returns the very same bytes (`run_steady_state` is also a method).
/// The routing mechanism must be `Clone` so that every shard can hold its own
/// (stateless) instance.
pub struct ShardedSimulation<R: RoutingAlgorithm + Clone> {
    shards: Vec<Shard<R>>,
    packet_size: usize,
}

impl<R: RoutingAlgorithm + Clone> ShardedSimulation<R> {
    /// Build a sharded simulation: `plan.shards` networks, each built for
    /// the routers of its own contiguous range of groups
    /// ([`Network::with_owned_routers`]) and wired to the others through
    /// their boundary global links.  `traffic` is called once per shard and
    /// must produce identical pattern instances (it always does for the
    /// deterministic pattern constructors used throughout the workspace).
    pub fn new(
        config: SimConfig,
        plan: ShardPlan,
        routing: R,
        traffic: impl Fn() -> Box<dyn TrafficPattern>,
    ) -> Self {
        let params = config.params;
        let packet_size = config.packet_size;
        let rpg = params.routers_per_group();
        let ports = params.ports_per_router();
        let h = params.h();
        let vcs = config.vcs_for(PortKind::Global);
        let router_ranges: Vec<Range<usize>> = plan
            .group_ranges(&params)
            .iter()
            .map(|g| g.start * rpg..g.end * rpg)
            .collect();
        let mut shard_of_router = vec![0usize; params.num_routers()];
        for (s, rr) in router_ranges.iter().enumerate() {
            shard_of_router[rr.clone()].fill(s);
        }

        // Boundary wiring, read off the global ports of a shard's own routers
        // (groups are never split, so no other port leaves a shard): a port
        // whose neighbour lives in another shard transmits on its own link
        // and receives on the neighbour's link back.  Yields `(own link, link
        // back, peer)` in ascending (router, port) order.
        let boundary_ports = |s: usize| {
            let shard_of_router = &shard_of_router;
            router_ranges[s].clone().flat_map(move |r| {
                (0..h).filter_map(move |g| {
                    let port = Port::Global(g);
                    let (nbr, back) = params.neighbor(RouterId(r as u32), port);
                    let peer = shard_of_router[nbr.index()];
                    let own = r * ports + port.flat(h);
                    (peer != s).then(|| (own, nbr.index() * ports + back.flat(h), peer))
                })
            })
        };
        // A receive link's slot is its position in its shard's list; the
        // transmitting side addresses phits by it.
        let mut rx_slot = vec![u32::MAX; params.num_routers() * ports];
        for s in 0..router_ranges.len() {
            for (slot, (_, back, _)) in boundary_ports(s).enumerate() {
                rx_slot[back] = slot as u32;
            }
        }

        let shards = router_ranges
            .iter()
            .enumerate()
            .map(|(id, rr)| {
                let net = Network::with_owned_routers(
                    config.clone(),
                    routing.clone(),
                    traffic(),
                    rr.clone(),
                );
                let (tx_links, rx_links): (Vec<_>, Vec<_>) = boundary_ports(id)
                    .map(|(own, back, peer)| {
                        let tx = TxLink {
                            link: own,
                            peer,
                            peer_slot: rx_slot[own],
                        };
                        (tx, (back, peer))
                    })
                    .unzip();
                Shard {
                    id,
                    net,
                    exporting: vec![PacketId::NONE; tx_links.len() * vcs],
                    tx_links,
                    rx_links,
                    vcs,
                    barrier_wait_nanos: 0,
                }
            })
            .collect();
        Self {
            shards,
            packet_size,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's network replica (tests, diagnostics).
    pub fn network(&self, shard: usize) -> &Network<R> {
        &self.shards[shard].net
    }

    /// Mutable access to one shard's network replica (hand-built test states).
    pub fn network_mut(&mut self, shard: usize) -> &mut Network<R> {
        &mut self.shards[shard].net
    }

    /// Read access to one shard's probe recorder (tests, diagnostics).
    pub fn probe(&self, shard: usize) -> Option<&ProbeRecorder> {
        self.shards[shard].net.probe()
    }

    /// Nanoseconds `shard` spent waiting at the inner export → import barrier.
    pub fn barrier_wait_nanos(&self, shard: usize) -> u64 {
        self.shards[shard].barrier_wait_nanos
    }

    /// Run the paper's steady-state protocol across all shards; byte-identical
    /// to [`Simulation::run_steady_state`](dragonfly_sim::Simulation::run_steady_state).
    pub fn run_steady_state(
        &mut self,
        offered_load: f64,
        warmup: u64,
        measure: u64,
        drain: u64,
    ) -> SimReport {
        protocol::run_steady_state(self, offered_load, warmup, measure, drain)
    }
}

impl<R: RoutingAlgorithm + Clone> EngineHost for ShardedSimulation<R> {
    type Routing = R;
    type Engine = Driver;

    /// Spawn one scoped worker thread per shard, hand the protocol loop `f` a
    /// [`Driver`], and tear the workers down when it returns.
    fn drive<T>(&mut self, f: impl FnOnce(&mut Driver) -> T) -> T {
        let conductor = Arc::new(Conductor::new(&self.shards));
        let mut driver = Driver {
            c: Arc::clone(&conductor),
        };
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                let c = &*conductor;
                scope.spawn(move || shard.worker(c));
            }
            let out = f(&mut driver);
            driver.dispatch(Cmd::Exit);
            out
        })
    }

    fn replica(&self) -> &Network<R> {
        &self.shards[0].net
    }

    /// The per-shard collectors merged into the run-wide collector the
    /// reports are built from (exact — see the module docs).
    fn stats(&self) -> Cow<'_, StatsCollector> {
        let mut merged = self.shards[0].net.stats.clone();
        for shard in &self.shards[1..] {
            merged.merge(&shard.net.stats);
        }
        Cow::Owned(merged)
    }

    /// Install `jobs` into every shard replica (each compiles the same
    /// placement and patterns deterministically) and enable the
    /// delivery-feedback broadcast that keeps the replicas' volume counters
    /// in lockstep.
    fn install_jobs(&mut self, jobs: &Trace) {
        for shard in &mut self.shards {
            let schedule = jobs.schedule(shard.net.params(), self.packet_size);
            shard.net.install_jobs(schedule);
            shard.net.enable_delivery_log();
        }
    }

    /// Install observability probes into every shard replica.
    ///
    /// Each replica's probe hooks only ever fire for state the shard owns
    /// (packets are generated at owned nodes, delivered at owned destination
    /// routers, and only owned routers hold buffered phits), so every counter
    /// is accumulated by exactly one shard and
    /// [`EngineHost::collect_probe`] reproduces the sequential recorder by
    /// plain element-wise merging.
    fn install_probes(&mut self, cfg: ProbeConfig) {
        for shard in &mut self.shards {
            shard.net.install_probes(cfg.clone());
        }
    }

    /// The per-shard probe recorders merged into the run-wide recorder,
    /// exactly like the statistics collectors.
    fn collect_probe(&mut self) -> Option<Box<ProbeRecorder>> {
        let mut merged = self.shards[0].net.probe()?.clone();
        for shard in &self.shards[1..] {
            merged.merge(
                shard
                    .net
                    .probe()
                    .expect("probes are installed on every shard"),
            );
        }
        Some(Box::new(merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_routing::MinimalRouting;
    use dragonfly_sim::{LinkEnd, Simulation};
    use dragonfly_traffic::{BurstSpec, Uniform};

    fn config(seed: u64) -> SimConfig {
        SimConfig::paper_vct(2).with_seed(seed)
    }

    #[test]
    fn plan_splits_groups_contiguously_and_covers_everything() {
        let params = DragonflyParams::new(2); // 9 groups
        for shards in [1, 2, 3, 4, 9] {
            let ranges = ShardPlan::new(shards).group_ranges(&params);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, 9);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(!pair[0].is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one whole group per shard")]
    fn plan_rejects_more_shards_than_groups() {
        let params = DragonflyParams::new(2);
        let _ = ShardPlan::new(10).group_ranges(&params);
    }

    #[test]
    fn boundary_wiring_is_symmetric_and_global_only() {
        let sim =
            ShardedSimulation::new(config(1), ShardPlan::new(3), MinimalRouting::new(), || {
                Box::new(Uniform::new())
            });
        let params = DragonflyParams::new(2);
        let ports = params.ports_per_router();
        let owns_router = |s: usize, router: usize| {
            sim.shards[s]
                .net
                .owned_nodes()
                .contains(&(router * params.nodes_per_router()))
        };
        // How often each link shows up on either side, over all shards.
        let mut as_tx = vec![0; sim.network(0).num_links()];
        let mut as_rx = as_tx.clone();
        for s in 0..sim.shards() {
            let shard = &sim.shards[s];
            assert_eq!(shard.tx_links.len(), shard.rx_links.len());
            for tx in &shard.tx_links {
                as_tx[tx.link] += 1;
                assert_ne!(tx.peer, s);
                assert_eq!(
                    Port::from_flat(tx.link % ports, params.h()).kind(),
                    PortKind::Global
                );
                // The transmitting router must be owned by this shard, the
                // receiving one by the peer...
                assert!(owns_router(s, tx.link / ports));
                let LinkEnd::Router { router, .. } = shard.net.link_end(tx.link) else {
                    panic!("boundary link {} ends at a node", tx.link);
                };
                assert!(owns_router(tx.peer, router));
                // ...and the slot the phits are addressed by must be this
                // link's entry in the peer's receive list.
                assert_eq!(
                    sim.shards[tx.peer].rx_links[tx.peer_slot as usize],
                    (tx.link, s)
                );
            }
            for &(li, _) in &shard.rx_links {
                as_rx[li] += 1;
            }
        }
        // Every link between routers of different shards appears exactly once
        // as a transmit link and once as a receive link; no other link does.
        let mut boundary = 0;
        for li in 0..as_tx.len() {
            let crosses = match sim.network(0).link_end(li) {
                LinkEnd::Router { router, .. } => {
                    (0..sim.shards()).any(|s| owns_router(s, li / ports) != owns_router(s, router))
                }
                LinkEnd::Node { .. } => false,
            };
            assert_eq!((as_tx[li], as_rx[li]), (crosses as usize, crosses as usize));
            boundary += crosses as usize;
        }
        assert!(
            boundary > 0,
            "3 shards of a 9-group machine must share links"
        );
    }

    #[test]
    fn single_shard_steady_state_matches_sequential() {
        let mut sequential =
            Simulation::with_routing(config(7), MinimalRouting::new(), Box::new(Uniform::new()));
        let expected = sequential.run_steady_state(0.15, 400, 800, 1_200);

        let mut sharded =
            ShardedSimulation::new(config(7), ShardPlan::new(1), MinimalRouting::new(), || {
                Box::new(Uniform::new())
            });
        let got = sharded.run_steady_state(0.15, 400, 800, 1_200);
        assert_eq!(got, expected);
    }

    #[test]
    fn merged_probe_matches_sequential_recorder() {
        let mut sequential =
            Simulation::with_routing(config(11), MinimalRouting::new(), Box::new(Uniform::new()));
        sequential.install_probes(ProbeConfig::full(32));
        let expected_report = sequential.run_steady_state(0.2, 300, 600, 900);
        let expected = sequential.take_probe().unwrap();

        for shards in [2, 3] {
            let mut sharded = ShardedSimulation::new(
                config(11),
                ShardPlan::new(shards),
                MinimalRouting::new(),
                || Box::new(Uniform::new()),
            );
            sharded.install_probes(ProbeConfig::full(32));
            let report = sharded.run_steady_state(0.2, 300, 600, 900);
            assert_eq!(report, expected_report, "{shards} shards diverged");

            let merged = sharded.collect_probe().unwrap();
            assert_eq!(merged.samples(), expected.samples());
            // Every network column is accumulated by exactly one shard, so
            // the element-wise merge reproduces the sequential samples.
            for name in [
                "cycle",
                "injected",
                "delivered",
                "buffered_phits",
                "pb_congested",
                "link_global_phits",
            ] {
                assert_eq!(
                    merged.column(name),
                    expected.column(name),
                    "{shards} shards: {name} diverged"
                );
            }
            // The deterministic packet sample is a pure hash of
            // (source, generation cycle), so both engines pick the same
            // packets; sorting recovers a canonical order.
            assert_eq!(merged.sorted_flight(), expected.sorted_flight());
            assert_eq!(merged.heat_windows(), expected.heat_windows());
        }
    }

    #[test]
    fn back_to_back_protocols_resume_at_the_same_cycle() {
        // A second protocol on the same engine continues from the cycle the
        // first one stopped at, on both engines alike.
        let mut sequential =
            Simulation::with_routing(config(5), MinimalRouting::new(), Box::new(Uniform::new()));
        let mut sharded =
            ShardedSimulation::new(config(5), ShardPlan::new(2), MinimalRouting::new(), || {
                Box::new(Uniform::new())
            });
        for load in [0.1, 0.3] {
            let expected = sequential.run_steady_state(load, 200, 400, 600);
            assert_eq!(sharded.run_steady_state(load, 200, 400, 600), expected);
            for shard in 0..sharded.shards() {
                assert_eq!(sharded.network(shard).cycle, sequential.network().cycle);
            }
        }
        let burst = BurstSpec::new(2, 8);
        assert_eq!(
            protocol::run_batch(&mut sharded, burst, 100_000),
            sequential.run_batch(burst, 100_000)
        );
        assert_eq!(sharded.network(0).cycle, sequential.network().cycle);
    }

    #[test]
    fn multi_shard_steady_state_matches_sequential() {
        let mut sequential =
            Simulation::with_routing(config(9), MinimalRouting::new(), Box::new(Uniform::new()));
        let expected = sequential.run_steady_state(0.2, 500, 1_000, 1_500);

        for shards in [2, 3] {
            let mut sharded = ShardedSimulation::new(
                config(9),
                ShardPlan::new(shards),
                MinimalRouting::new(),
                || Box::new(Uniform::new()),
            );
            let got = sharded.run_steady_state(0.2, 500, 1_000, 1_500);
            assert_eq!(got, expected, "{shards} shards diverged");
            // The barrier clock is always on and never shows in the report.
            let waited: u64 = (0..shards).map(|s| sharded.barrier_wait_nanos(s)).sum();
            assert!(waited > 0, "{shards} shards never waited at the barrier");
        }
    }
}
