//! The probe recorder: preallocated storage plus the hot-path record methods.

use crate::config::ProbeConfig;
use crate::delay::{DelayLedger, DelaySample};
use crate::detect::{detect, DetectorSample, TripRecord};
use crate::flight::{flight_hash, FlightEvent};
use std::ops::Range;

/// Link class: a local (intra-group) channel.
pub const CLASS_LOCAL: u8 = 0;
/// Link class: a global (inter-group) channel.
pub const CLASS_GLOBAL: u8 = 1;
/// Link class: a terminal (injection/ejection) channel.
pub const CLASS_TERMINAL: u8 = 2;

/// Human-readable name of a `CLASS_*` value.
pub(crate) fn class_name(class: u8) -> &'static str {
    match class {
        CLASS_LOCAL => "local",
        CLASS_GLOBAL => "global",
        CLASS_TERMINAL => "terminal",
        _ => "n/a",
    }
}

/// Static geometry of the probed network, fixed at installation.
///
/// Links are identified by their transmit side: `li = router * ports + port`.
/// The engine building the dims also classifies every link (`link_class`), so
/// the recorder itself needs no topology knowledge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeDims {
    /// Routers in the network.
    pub routers: usize,
    /// Ports per router (all classes).
    pub ports: usize,
    /// Maximum VCs on any port.
    pub vcs: usize,
    /// `CLASS_*` of each link, indexed by `li` (length `routers * ports`).
    pub link_class: Vec<u8>,
}

impl ProbeDims {
    /// Number of links (`routers * ports`).
    #[inline]
    pub fn links(&self) -> usize {
        self.routers * self.ports
    }
}

/// Values the engine snapshots at each sample point — quantities the recorder
/// cannot derive from its own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleSnapshot {
    /// Phits currently buffered in input VCs (this engine partition).
    pub buffered_phits: u64,
    /// Piggybacking global-channel congested flags currently set.
    pub pb_congested: u64,
    /// Packet-arena slots pushed beyond its reservation so far (diagnostic).
    pub arena_grows: u64,
    /// Highest occupancy any link phit ring has reached (diagnostic).
    pub phit_ring_high_water: u64,
    /// Highest occupancy any link credit ring has reached (diagnostic).
    pub credit_ring_high_water: u64,
    /// Links in this engine partition's active set at the sample point
    /// (diagnostic; sums across shards, where boundary links count once per
    /// shard that keeps them lit).
    pub active_links: u64,
    /// Routers in this engine partition's active set at the sample point
    /// (diagnostic).
    pub active_routers: u64,
}

/// How two engine partitions' values of one sample-table column combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merge {
    /// The same on every partition (the sample's cycle): asserted equal.
    Equal,
    /// Each partition counts only what it owns: added.
    Sum,
    /// A high-water mark: the larger value.
    Max,
}

/// The sample table's columns in row order, each with its merge rule.  A row
/// holds the first [`DELAY`]`.start` of them, plus the delay columns when the
/// delay ledger is armed.  Every value is an exact integer.
pub(crate) const COLUMNS: [(&str, Merge); 22] = [
    ("cycle", Merge::Equal),
    // The network series (`series.csv`): cumulative counts, then the gauges
    // read at the sample point.
    ("injected", Merge::Sum),
    ("delivered", Merge::Sum),
    // Route grants whose threshold comparison chose a non-minimal global
    // (local) hop.
    ("global_misroute_decisions", Merge::Sum),
    ("local_misroute_decisions", Merge::Sum),
    ("buffered_phits", Merge::Sum),
    ("pb_congested", Merge::Sum),
    ("link_local_phits", Merge::Sum),
    ("link_global_phits", Merge::Sum),
    ("link_terminal_phits", Merge::Sum),
    // Engine diagnostics (`diag.csv`): memory counters whose values
    // legitimately differ between the sequential and sharded engines (each
    // shard has its own arena and drains its boundary rings every cycle), so
    // they sit outside the byte-identity guarantee.
    ("arena_grows", Merge::Sum),
    ("phit_ring_high_water", Merge::Max),
    ("credit_ring_high_water", Merge::Max),
    ("active_links", Merge::Sum),
    ("active_routers", Merge::Sum),
    // The delay ledger's totals (`series.csv`, delay probe only): packets
    // folded, then each component's cycles, so the delay split of any cycle
    // range is the difference of two rows.
    ("delay_folded", Merge::Sum),
    ("delay_injection_queue", Merge::Sum),
    ("delay_vc_wait", Merge::Sum),
    ("delay_credit_wait", Merge::Sum),
    ("delay_link_transit", Merge::Sum),
    ("delay_detour", Merge::Sum),
    ("delay_serialization", Merge::Sum),
];

/// The network series' columns of [`COLUMNS`].
pub(crate) const NETWORK: Range<usize> = 1..10;
/// The engine diagnostics' columns of [`COLUMNS`].
pub(crate) const DIAG: Range<usize> = 10..15;
/// The delay ledger's columns of [`COLUMNS`].
pub(crate) const DELAY: Range<usize> = 15..22;

/// Counters per router in a router-table row: injected, delivered, misrouted.
const ROUTER_COUNTERS: usize = 3;

/// The probe state of one engine partition: all storage preallocated at
/// construction, all record methods allocation-free.
#[derive(Debug, Clone)]
pub struct ProbeRecorder {
    pub(crate) cfg: ProbeConfig,
    pub(crate) dims: ProbeDims,

    // Cumulative hot counters.
    pub(crate) injected_total: u64,
    pub(crate) delivered_total: u64,
    pub(crate) global_mis_total: u64,
    pub(crate) local_mis_total: u64,
    pub(crate) router_injected: Vec<u64>,
    pub(crate) router_delivered: Vec<u64>,
    pub(crate) router_misrouted: Vec<u64>,

    // The sample table: one row of `width()` `COLUMNS` per accepted sample,
    // reserved for `max_samples` rows.
    pub(crate) rows: Vec<u64>,
    // The router table (`top_k > 0` only): per accepted sample, one row of
    // `ROUTER_COUNTERS × routers` cumulative counts — every router's
    // injected, then delivered, then misrouted — reserved for `max_samples`
    // rows.
    pub(crate) router_rows: Vec<u64>,
    pub(crate) samples_dropped: u64,

    // Flight recorder: the events of every cycle before `flight_cutoff`, the
    // first cycle at which the ring overflowed (`u64::MAX` until it does).
    pub(crate) flight: Vec<FlightEvent>,
    pub(crate) flight_dropped: u64,
    pub(crate) flight_cutoff: u64,

    // Heatmaps, window-major: `(w * links + li) * vcs + vc`.
    pub(crate) heat_phits: Vec<u32>,
    pub(crate) heat_stalls: Vec<u32>,
    pub(crate) heat_occupancy: Vec<u32>,
    pub(crate) heat_windows: usize,
    pub(crate) heat_dropped: u64,

    // Delay-attribution ledger (`None` when `cfg.delay` is off).
    pub(crate) ledger: Option<DelayLedger>,
}

impl ProbeRecorder {
    /// Build a recorder for a network of the given dimensions, reserving all
    /// storage up front.
    pub fn new(cfg: ProbeConfig, dims: ProbeDims) -> Self {
        cfg.validate();
        assert_eq!(
            dims.link_class.len(),
            dims.links(),
            "link_class must cover every link"
        );
        let heat_cells = if cfg.heatmap_enabled() {
            cfg.max_windows * dims.links() * dims.vcs
        } else {
            0
        };
        let mut router_rows = Vec::new();
        if cfg.top_k > 0 {
            router_rows.reserve_exact(cfg.max_samples * ROUTER_COUNTERS * dims.routers);
        }
        let mut flight = Vec::new();
        flight.reserve_exact(if cfg.flight_enabled() {
            cfg.flight_capacity
        } else {
            0
        });
        let mut recorder = Self {
            rows: Vec::new(),
            router_rows,
            router_injected: vec![0; dims.routers],
            router_delivered: vec![0; dims.routers],
            router_misrouted: vec![0; dims.routers],
            injected_total: 0,
            delivered_total: 0,
            global_mis_total: 0,
            local_mis_total: 0,
            samples_dropped: 0,
            flight,
            flight_dropped: 0,
            flight_cutoff: u64::MAX,
            heat_phits: vec![0; heat_cells],
            heat_stalls: vec![0; heat_cells],
            heat_occupancy: vec![0; heat_cells],
            heat_windows: 0,
            heat_dropped: 0,
            ledger: cfg.delay_enabled().then(DelayLedger::new),
            cfg,
            dims,
        };
        let cells = recorder.cfg.max_samples * recorder.width();
        recorder.rows.reserve_exact(cells);
        recorder
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> &ProbeConfig {
        &self.cfg
    }

    /// The network dimensions the recorder was built for.
    pub fn dims(&self) -> &ProbeDims {
        &self.dims
    }

    /// Sampling stride in cycles.
    #[inline]
    pub fn stride(&self) -> u64 {
        self.cfg.stride
    }

    /// True when the heatmap instrument is active (lets the engine skip its
    /// occupancy scan entirely).
    #[inline]
    pub fn heatmap_enabled(&self) -> bool {
        self.cfg.heatmap_enabled()
    }

    /// True when the delay ledger folds deliveries (lets the engine skip the
    /// sample assembly entirely).
    #[inline]
    pub fn delay_enabled(&self) -> bool {
        self.ledger.is_some()
    }

    /// Fold one delivered packet's delay decomposition into the ledger
    /// (no-op when the delay probe is off).  `latency` is the delivered
    /// end-to-end latency the components must sum to.
    #[inline]
    pub fn record_delay(&mut self, sample: &DelaySample, latency: u64) {
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.fold(sample, latency);
        }
    }

    /// The delay ledger, when armed.
    pub fn delay_ledger(&self) -> Option<&DelayLedger> {
        self.ledger.as_ref()
    }

    /// Deterministic flight-sampling decision for a packet key.
    #[inline]
    pub fn flight_sampled(&self, src: u32, gen_cycle: u64) -> bool {
        self.cfg.flight_every > 0
            && flight_hash(src, gen_cycle).is_multiple_of(self.cfg.flight_every)
    }

    /// Record a packet generation at `router`.
    #[inline]
    pub fn record_injected(&mut self, router: usize) {
        self.injected_total += 1;
        self.router_injected[router] += 1;
    }

    /// Record a packet delivery at `router`.
    #[inline]
    pub fn record_delivered(&mut self, router: usize) {
        self.delivered_total += 1;
        self.router_delivered[router] += 1;
    }

    /// Record a route grant at `router` and whether it was a misroute
    /// decision (the adaptive mechanism's threshold comparison crossing in
    /// favour of a non-minimal hop).
    #[inline]
    pub fn record_grant(&mut self, router: usize, global_misroute: bool, local_misroute: bool) {
        if global_misroute {
            self.global_mis_total += 1;
            self.router_misrouted[router] += 1;
        }
        if local_misroute {
            self.local_mis_total += 1;
            self.router_misrouted[router] += 1;
        }
    }

    /// Append a flight event for a packet that passed [`Self::flight_sampled`].
    ///
    /// The ring keeps whole cycles: the event that would overflow it drops
    /// itself, every event already kept from its cycle, and every later
    /// event (all counted in `flight_dropped`).  Events arrive in cycle order,
    /// so the kept set is the events of every cycle before the first one at
    /// which the run's recorded total exceeds `flight_capacity` — a function
    /// of the event multiset, not of which engine recorded it.
    #[inline]
    pub fn record_flight(&mut self, event: FlightEvent) {
        if event.cycle >= self.flight_cutoff {
            self.flight_dropped += 1;
        } else if self.flight.len() < self.cfg.flight_capacity {
            self.flight.push(event);
        } else {
            self.flight_cutoff = event.cycle;
            let kept = self.flight.len();
            self.flight.retain(|e| e.cycle < event.cycle);
            self.flight_dropped += (kept - self.flight.len()) as u64 + 1;
        }
    }

    /// Heatmap cell index for `(cycle, li, vc)`, or `None` when the window is
    /// beyond the configured cap (counted as dropped).
    #[inline]
    fn heat_cell(&mut self, cycle: u64, li: usize, vc: usize) -> Option<usize> {
        let w = (cycle / self.cfg.heatmap_window) as usize;
        if w >= self.cfg.max_windows {
            self.heat_dropped += 1;
            return None;
        }
        if w >= self.heat_windows {
            self.heat_windows = w + 1;
        }
        Some((w * self.dims.links() + li) * self.dims.vcs + vc)
    }

    /// Record one phit sent on link `li`, VC `vc`.
    #[inline]
    pub fn record_link_phit(&mut self, cycle: u64, li: usize, vc: usize) {
        if !self.cfg.heatmap_enabled() {
            return;
        }
        if let Some(cell) = self.heat_cell(cycle, li, vc) {
            self.heat_phits[cell] += 1;
        }
    }

    /// Record one cycle in which `(li, vc)` held a granted packet but could
    /// not advance for lack of downstream credits.
    #[inline]
    pub fn record_credit_stall(&mut self, cycle: u64, li: usize, vc: usize) {
        if !self.cfg.heatmap_enabled() {
            return;
        }
        if let Some(cell) = self.heat_cell(cycle, li, vc) {
            self.heat_stalls[cell] += 1;
        }
    }

    /// Accumulate a sampled occupancy (phits buffered at the receive side of
    /// link `li`, VC `vc`) into the current window.
    #[inline]
    pub fn add_occupancy(&mut self, cycle: u64, li: usize, vc: usize, phits: u32) {
        if !self.cfg.heatmap_enabled() || phits == 0 {
            return;
        }
        if let Some(cell) = self.heat_cell(cycle, li, vc) {
            self.heat_occupancy[cell] += phits;
        }
    }

    /// Take a sample at `cycle` (the engine calls this every `stride`
    /// cycles, after its per-cycle bookkeeping): one row of the sample table
    /// and, with `top_k > 0`, one of the router table.  `link_phits` is the
    /// engine's cumulative per-link phit counter, classified via
    /// [`ProbeDims::link_class`].
    pub fn sample(&mut self, cycle: u64, link_phits: &[u64], snap: SampleSnapshot) {
        if self.samples() >= self.cfg.max_samples {
            self.samples_dropped += 1;
            return;
        }
        let mut by_class = [0u64; 3];
        for (li, &phits) in link_phits.iter().enumerate() {
            by_class[self.dims.link_class[li] as usize] += phits;
        }
        // In `COLUMNS` order.
        self.rows.extend_from_slice(&[
            cycle,
            self.injected_total,
            self.delivered_total,
            self.global_mis_total,
            self.local_mis_total,
            snap.buffered_phits,
            snap.pb_congested,
            by_class[CLASS_LOCAL as usize],
            by_class[CLASS_GLOBAL as usize],
            by_class[CLASS_TERMINAL as usize],
            snap.arena_grows,
            snap.phit_ring_high_water,
            snap.credit_ring_high_water,
            snap.active_links,
            snap.active_routers,
        ]);
        if let Some(ledger) = &self.ledger {
            self.rows.push(ledger.folded());
            self.rows.extend_from_slice(&ledger.cycles());
        }
        if self.cfg.top_k > 0 {
            self.router_rows.extend_from_slice(&self.router_injected);
            self.router_rows.extend_from_slice(&self.router_delivered);
            self.router_rows.extend_from_slice(&self.router_misrouted);
        }
    }

    /// Columns per sample-table row: every [`COLUMNS`] entry with the delay
    /// ledger armed, the ones before [`DELAY`] without.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        if self.ledger.is_some() {
            COLUMNS.len()
        } else {
            DELAY.start
        }
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> usize {
        self.rows.len() / self.width()
    }

    /// The sample table's rows, oldest first.
    pub(crate) fn table(&self) -> std::slice::ChunksExact<'_, u64> {
        self.rows.chunks_exact(self.width())
    }

    /// One column of the sample table by name (`cycle`, a `series.csv` or a
    /// `diag.csv` column), one value per sample; `None` for a name the
    /// table does not hold (the delay columns without the delay ledger).
    pub fn column(&self, name: &str) -> Option<Vec<u64>> {
        let k = COLUMNS[..self.width()]
            .iter()
            .position(|&(column, _)| column == name)?;
        Some(self.table().map(|row| row[k]).collect())
    }

    /// Router `r`'s cumulative counts at sample `i`: injected, delivered,
    /// misrouted.
    pub(crate) fn router_counts(&self, i: usize, r: usize) -> [u64; ROUTER_COUNTERS] {
        let row = &self.router_rows[i * ROUTER_COUNTERS * self.dims.routers..];
        std::array::from_fn(|k| row[k * self.dims.routers + r])
    }

    /// Recorded flight events, in recording order (use
    /// [`Self::sorted_flight`] for the canonical order).
    pub fn flight_events(&self) -> &[FlightEvent] {
        &self.flight
    }

    /// Flight events dropped after the ring filled.
    pub fn flight_dropped(&self) -> u64 {
        self.flight_dropped
    }

    /// Flight events in the canonical total order (identical for sequential
    /// and sharded runs of the same spec).
    pub fn sorted_flight(&self) -> Vec<FlightEvent> {
        let mut events = self.flight.clone();
        events.sort_by_key(FlightEvent::sort_key);
        events
    }

    /// Heatmap windows recorded (capped at the configured maximum).
    pub fn heat_windows(&self) -> usize {
        self.heat_windows
    }

    /// Top-`k` routers by total recorded activity (injected + delivered +
    /// misrouted), ties broken towards the lower router id.  Deterministic,
    /// and shard-invariant once recorders are merged.
    pub fn top_routers(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.dims.routers).collect();
        order.sort_by_key(|&r| {
            (
                u64::MAX
                    - (self.router_injected[r]
                        + self.router_delivered[r]
                        + self.router_misrouted[r]),
                r,
            )
        });
        order.truncate(k);
        order
    }

    /// The detector verdicts over the sample table (see [`crate::detect()`])
    /// and the number dropped past `max_trips`.  Empty when the detectors are
    /// off; the fairness-skew detector is armed only when the router table
    /// is recorded (`top_k > 0`).
    pub fn trips(&self) -> (Vec<TripRecord>, u64) {
        // The first six `COLUMNS`: cycle, the cumulative counts, the gauge.
        let rows: Vec<DetectorSample> = self
            .table()
            .map(|row| DetectorSample {
                cycle: row[0],
                injected: row[1],
                delivered: row[2],
                global_misroutes: row[3],
                local_misroutes: row[4],
                buffered_phits: row[5],
            })
            .collect();
        let routers = if self.cfg.top_k > 0 {
            self.dims.routers
        } else {
            0
        };
        // The router table's delivered counts, sample-major.
        let delivered: Vec<u64> = (0..rows.len())
            .flat_map(|i| {
                (0..routers).map(move |r| {
                    let [_, delivered, _] = self.router_counts(i, r);
                    delivered
                })
            })
            .collect();
        detect(&self.cfg.detect, &rows, &delivered, routers)
    }

    /// Merge another partition's recorder into this one: element-wise sums,
    /// except that each sample's cycle must be equal on both sides and the
    /// two ring high-water columns take the maximum.  Commutative and
    /// associative, so the result is independent of shard count and merge
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when the two recorders were built with different configurations
    /// or for different network dimensions, or sampled different cycles.
    pub fn merge(&mut self, other: &ProbeRecorder) {
        assert_eq!(
            self.cfg, other.cfg,
            "cannot merge differently-configured probes"
        );
        assert_eq!(
            self.dims, other.dims,
            "cannot merge probes of different networks"
        );
        self.injected_total += other.injected_total;
        self.delivered_total += other.delivered_total;
        self.global_mis_total += other.global_mis_total;
        self.local_mis_total += other.local_mis_total;
        for (dst, src) in self.router_injected.iter_mut().zip(&other.router_injected) {
            *dst += src;
        }
        for (dst, src) in self
            .router_delivered
            .iter_mut()
            .zip(&other.router_delivered)
        {
            *dst += src;
        }
        for (dst, src) in self
            .router_misrouted
            .iter_mut()
            .zip(&other.router_misrouted)
        {
            *dst += src;
        }
        // Every partition samples the same cycles.
        assert_eq!(
            self.rows.len(),
            other.rows.len(),
            "cannot merge probes sampled at different cycles"
        );
        let width = self.width();
        for (i, (dst, &src)) in self.rows.iter_mut().zip(&other.rows).enumerate() {
            match COLUMNS[i % width].1 {
                Merge::Equal => {
                    assert_eq!(*dst, src, "cannot merge probes sampled at different cycles")
                }
                Merge::Sum => *dst += src,
                Merge::Max => *dst = (*dst).max(src),
            }
        }
        // Equal sample counts, so equally long router tables.
        for (dst, src) in self.router_rows.iter_mut().zip(&other.router_rows) {
            *dst += src;
        }
        // The drop count is the same number seen once per shard: the
        // maximum, not the sum.
        self.samples_dropped = self.samples_dropped.max(other.samples_dropped);
        // The flight ring's bound applied to the sorted union: the events of
        // every cycle before both sides' cutoffs and before the cycle of the
        // `flight_capacity + 1`-th event — exactly what one recorder seeing
        // every event in cycle order keeps.
        let recorded = (self.flight.len() + other.flight.len()) as u64
            + self.flight_dropped
            + other.flight_dropped;
        self.flight.extend_from_slice(&other.flight);
        self.flight.sort_by_key(FlightEvent::sort_key);
        self.flight_cutoff = self.flight_cutoff.min(other.flight_cutoff);
        if let Some(overflow) = self.flight.get(self.cfg.flight_capacity) {
            self.flight_cutoff = self.flight_cutoff.min(overflow.cycle);
        }
        let cutoff = self.flight_cutoff;
        self.flight.retain(|e| e.cycle < cutoff);
        self.flight_dropped = recorded - self.flight.len() as u64;
        for (dst, src) in self.heat_phits.iter_mut().zip(&other.heat_phits) {
            *dst += src;
        }
        for (dst, src) in self.heat_stalls.iter_mut().zip(&other.heat_stalls) {
            *dst += src;
        }
        for (dst, src) in self.heat_occupancy.iter_mut().zip(&other.heat_occupancy) {
            *dst += src;
        }
        self.heat_windows = self.heat_windows.max(other.heat_windows);
        self.heat_dropped += other.heat_dropped;
        if let (Some(dst), Some(src)) = (self.ledger.as_mut(), other.ledger.as_ref()) {
            dst.merge(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FLIGHT_HOP;

    fn dims() -> ProbeDims {
        // 2 routers × 3 ports: port 0 local, port 1 global, port 2 terminal.
        ProbeDims {
            routers: 2,
            ports: 3,
            vcs: 2,
            link_class: vec![
                CLASS_LOCAL,
                CLASS_GLOBAL,
                CLASS_TERMINAL,
                CLASS_LOCAL,
                CLASS_GLOBAL,
                CLASS_TERMINAL,
            ],
        }
    }

    fn cfg() -> ProbeConfig {
        ProbeConfig {
            stride: 4,
            max_samples: 8,
            top_k: 1,
            flight_every: 1,
            flight_capacity: 4,
            heatmap_window: 8,
            max_windows: 2,
            ..ProbeConfig::default()
        }
    }

    fn hop(cycle: u64, src: u32) -> FlightEvent {
        FlightEvent {
            cycle,
            gen_cycle: 0,
            src,
            dst: 1,
            router: 0,
            port: 1,
            vc: 0,
            kind: FLIGHT_HOP,
            class: CLASS_GLOBAL,
            nonminimal: 0,
        }
    }

    #[test]
    fn counters_series_and_class_sums() {
        let mut p = ProbeRecorder::new(cfg(), dims());
        p.record_injected(0);
        p.record_injected(0);
        p.record_delivered(1);
        p.record_grant(0, true, false);
        p.record_grant(1, false, true);
        let link_phits = [5u64, 7, 1, 0, 2, 3];
        p.sample(0, &link_phits, SampleSnapshot::default());
        assert_eq!(p.samples(), 1);
        let column = |name| p.column(name).unwrap();
        assert_eq!(column("injected"), [2]);
        assert_eq!(column("delivered"), [1]);
        assert_eq!(column("global_misroute_decisions"), [1]);
        assert_eq!(column("local_misroute_decisions"), [1]);
        assert_eq!(column("link_local_phits"), [5]);
        assert_eq!(column("link_global_phits"), [9]);
        assert_eq!(column("link_terminal_phits"), [4]);
        assert_eq!(p.column("delay_folded"), None, "the delay probe is off");
        // Router 0 injected twice and misrouted once; router 1 delivered once
        // and misrouted once.
        assert_eq!(p.router_counts(0, 0), [2, 0, 1]);
        assert_eq!(p.router_counts(0, 1), [0, 1, 1]);
        // Router 0 saw 2 injections + 1 misroute; router 1 saw 1 delivery + 1.
        assert_eq!(p.top_routers(2), vec![0, 1]);
    }

    #[test]
    fn samples_carry_their_own_cycle() {
        let mut p = ProbeRecorder::new(cfg(), dims());
        for cycle in [512, 516, 520] {
            p.sample(cycle, &[0; 6], SampleSnapshot::default());
        }
        assert_eq!(p.column("cycle").unwrap(), [512, 516, 520]);
    }

    #[test]
    fn sample_rows_are_preallocated() {
        let mut p = ProbeRecorder::new(
            ProbeConfig {
                delay: true,
                ..cfg()
            },
            dims(),
        );
        let (rows, routers) = (p.rows.capacity(), p.router_rows.capacity());
        for i in 0..8u64 {
            p.sample(i * 4, &[0; 6], SampleSnapshot::default());
        }
        assert_eq!(p.samples(), 8);
        assert_eq!(p.rows.capacity(), rows, "rows must not grow");
        assert_eq!(p.router_rows.capacity(), routers);
    }

    #[test]
    fn delay_columns_track_folds() {
        let mut p = ProbeRecorder::new(
            ProbeConfig {
                delay: true,
                ..cfg()
            },
            dims(),
        );
        p.sample(0, &[0; 6], SampleSnapshot::default());
        let folded = DelaySample {
            components: [1, 0, 0, 2, 0, 0],
            misrouted: false,
            job: crate::DELAY_UNTAGGED,
            phase: crate::DELAY_UNTAGGED,
        };
        p.record_delay(&folded, 3);
        p.sample(4, &[0; 6], SampleSnapshot::default());
        assert_eq!(p.column("delay_folded").unwrap(), [0, 1]);
        for (i, name) in crate::DELAY_COMPONENT_NAMES.iter().enumerate() {
            let column = p.column(&format!("delay_{name}")).unwrap();
            assert_eq!(column, [0, folded.components[i]], "{name}");
        }
    }

    #[test]
    fn sample_cap_drops_instead_of_growing() {
        let mut p = ProbeRecorder::new(cfg(), dims());
        for i in 0..12u64 {
            p.sample(i * 4, &[0; 6], SampleSnapshot::default());
        }
        assert_eq!(p.samples(), 8);
        assert_eq!(p.samples_dropped, 4);
    }

    #[test]
    fn merged_partitions_count_dropped_samples_once() {
        let past_cap = || {
            let mut p = ProbeRecorder::new(cfg(), dims());
            for i in 0..12u64 {
                p.sample(i * 4, &[0; 6], SampleSnapshot::default());
            }
            p
        };
        let mut merged = past_cap();
        merged.merge(&past_cap());
        assert_eq!(merged.samples(), 8);
        assert_eq!(
            merged.samples_dropped, 4,
            "one recorder's count, not the sum"
        );
    }

    /// Six events over cycles 0, 1, 1, 2, 2, 2 (sources descending, so
    /// recording order is not canonical order).
    const EVENTS: [(u64, u32); 6] = [(0, 5), (1, 4), (1, 3), (2, 2), (2, 1), (2, 0)];

    fn recorder_of(events: &[(u64, u32)]) -> ProbeRecorder {
        let mut p = ProbeRecorder::new(cfg(), dims());
        for &(cycle, src) in events {
            p.record_flight(hop(cycle, src));
        }
        p
    }

    #[test]
    fn flight_ring_caps_and_sorts_canonically() {
        // Capacity 4: the fifth event (cycle 2) overflows, so cycle 2 is
        // dropped whole — the cycle-2 event already kept included.
        let p = recorder_of(&EVENTS);
        assert_eq!(p.flight_events().len(), 3);
        assert_eq!(p.flight_dropped(), 3);
        let sorted = p.sorted_flight();
        assert!(sorted.iter().all(|e| e.cycle < 2));
        for w in sorted.windows(2) {
            assert!(w[0].sort_key() <= w[1].sort_key());
        }
    }

    #[test]
    fn flight_merge_bounds_the_union_like_one_recorder() {
        let whole = recorder_of(&EVENTS);
        // One side fits without overflowing; one side overflows on its own.
        for split in [&[0, 3, 4, 5][..], &[0, 1, 2, 3, 4]] {
            let side = |inside: bool| -> Vec<(u64, u32)> {
                (0..EVENTS.len())
                    .filter(|i| split.contains(i) == inside)
                    .map(|i| EVENTS[i])
                    .collect()
            };
            let (a, b) = (side(true), side(false));
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut merged = recorder_of(x);
                merged.merge(&recorder_of(y));
                assert_eq!(merged.sorted_flight(), whole.sorted_flight(), "{split:?}");
                assert_eq!(merged.flight_dropped(), whole.flight_dropped(), "{split:?}");
            }
        }
    }

    #[test]
    fn heatmap_windows_cap_and_index() {
        let mut p = ProbeRecorder::new(cfg(), dims());
        p.record_link_phit(0, 1, 0); // window 0
        p.record_link_phit(9, 1, 0); // window 1
        p.record_credit_stall(9, 1, 1);
        p.add_occupancy(9, 1, 1, 3);
        p.record_link_phit(99, 1, 0); // beyond max_windows → dropped
        assert_eq!(p.heat_windows(), 2);
        assert_eq!(p.heat_dropped, 1);
        // (window 0, link 1, vc 0) — window 0's block starts at index 0.
        assert_eq!(p.heat_phits[2], 1);
        assert_eq!(p.heat_phits[(6 + 1) * 2], 1);
        assert_eq!(p.heat_stalls[(6 + 1) * 2 + 1], 1);
        assert_eq!(p.heat_occupancy[(6 + 1) * 2 + 1], 3);
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |spread: &[(usize, u64)]| {
            let mut p = ProbeRecorder::new(cfg(), dims());
            for &(r, c) in spread {
                p.record_injected(r);
                p.record_flight(hop(c, r as u32));
                p.record_link_phit(c, r, 0);
            }
            p.sample(0, &[1, 0, 0, 0, 0, 0], SampleSnapshot::default());
            p
        };
        let a = build(&[(0, 3), (1, 1)]);
        let b = build(&[(1, 2)]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.injected_total, 3);
        assert_eq!(ab.injected_total, ba.injected_total);
        assert_eq!(ab.column("injected"), ba.column("injected"));
        assert_eq!(ab.sorted_flight(), ba.sorted_flight());
        assert_eq!(ab.heat_phits, ba.heat_phits);
        assert_eq!(ab.router_injected, ba.router_injected);
    }

    #[test]
    fn flight_sampling_is_a_pure_function_of_the_key() {
        let p = ProbeRecorder::new(
            ProbeConfig {
                flight_every: 8,
                ..cfg()
            },
            dims(),
        );
        for src in 0..64u32 {
            for gen in 0..16u64 {
                assert_eq!(p.flight_sampled(src, gen), p.flight_sampled(src, gen));
            }
        }
        let hits = (0..1000u32).filter(|&s| p.flight_sampled(s, 5)).count();
        assert!(hits > 60 && hits < 250, "{hits} of 1000 sampled at 1/8");
    }

    #[test]
    fn diag_high_water_merges_by_max() {
        let mut a = ProbeRecorder::new(cfg(), dims());
        let mut b = ProbeRecorder::new(cfg(), dims());
        a.sample(
            0,
            &[0; 6],
            SampleSnapshot {
                phit_ring_high_water: 5,
                arena_grows: 1,
                ..SampleSnapshot::default()
            },
        );
        b.sample(
            0,
            &[0; 6],
            SampleSnapshot {
                phit_ring_high_water: 9,
                arena_grows: 2,
                ..SampleSnapshot::default()
            },
        );
        a.merge(&b);
        assert_eq!(a.column("phit_ring_high_water").unwrap(), [9]);
        assert_eq!(a.column("arena_grows").unwrap(), [3]);
        assert_eq!(a.column("cycle").unwrap(), [0]);
    }

    #[test]
    #[should_panic(expected = "sampled at different cycles")]
    fn merge_rejects_different_sample_cycles() {
        let mut a = ProbeRecorder::new(cfg(), dims());
        let mut b = ProbeRecorder::new(cfg(), dims());
        a.sample(0, &[0; 6], SampleSnapshot::default());
        b.sample(4, &[0; 6], SampleSnapshot::default());
        a.merge(&b);
    }
}
