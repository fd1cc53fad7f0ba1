//! The probe recorder: preallocated storage plus the hot-path record methods.

use crate::config::ProbeConfig;
use crate::delay::{DelayLedger, DelaySample};
use crate::detect::{detect, DetectorSample, TripRecord};
use crate::flight::{flight_hash, FlightEvent};
use dragonfly_stats::TimeSeries;

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
    /// Packet-arena growths beyond the preallocation so far (diagnostic).
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

/// The network-wide deterministic time series, one [`TimeSeries`] per counter.
///
/// All values are exact cumulative counts stored as `f64` (lossless below
/// 2^53), so per-shard series merge by element-wise addition.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// Packets generated.
    pub injected: TimeSeries,
    /// Packets delivered.
    pub delivered: TimeSeries,
    /// Route grants that took a non-minimal global hop (the OLM/RLM/PB
    /// threshold comparison crossed in favour of misrouting).
    pub global_misroute_decisions: TimeSeries,
    /// Route grants that took a non-minimal local hop.
    pub local_misroute_decisions: TimeSeries,
    /// Phits buffered in input VCs at the sample point.
    pub buffered_phits: TimeSeries,
    /// Piggybacking congested flags set at the sample point.
    pub pb_congested: TimeSeries,
    /// Phits sent on local links.
    pub link_local_phits: TimeSeries,
    /// Phits sent on global links.
    pub link_global_phits: TimeSeries,
    /// Phits sent on terminal links.
    pub link_terminal_phits: TimeSeries,
}

impl SeriesSet {
    fn new(stride: u64, capacity: usize) -> Self {
        let mk = || TimeSeries::with_capacity(stride, capacity);
        Self {
            injected: mk(),
            delivered: mk(),
            global_misroute_decisions: mk(),
            local_misroute_decisions: mk(),
            buffered_phits: mk(),
            pb_congested: mk(),
            link_local_phits: mk(),
            link_global_phits: mk(),
            link_terminal_phits: mk(),
        }
    }

    /// `(column name, series)` pairs in emission order.
    pub fn columns(&self) -> [(&'static str, &TimeSeries); 9] {
        [
            ("injected", &self.injected),
            ("delivered", &self.delivered),
            ("global_misroute_decisions", &self.global_misroute_decisions),
            ("local_misroute_decisions", &self.local_misroute_decisions),
            ("buffered_phits", &self.buffered_phits),
            ("pb_congested", &self.pb_congested),
            ("link_local_phits", &self.link_local_phits),
            ("link_global_phits", &self.link_global_phits),
            ("link_terminal_phits", &self.link_terminal_phits),
        ]
    }

    fn merge(&mut self, other: &SeriesSet) {
        self.injected.merge(&other.injected);
        self.delivered.merge(&other.delivered);
        self.global_misroute_decisions
            .merge(&other.global_misroute_decisions);
        self.local_misroute_decisions
            .merge(&other.local_misroute_decisions);
        self.buffered_phits.merge(&other.buffered_phits);
        self.pb_congested.merge(&other.pb_congested);
        self.link_local_phits.merge(&other.link_local_phits);
        self.link_global_phits.merge(&other.link_global_phits);
        self.link_terminal_phits.merge(&other.link_terminal_phits);
    }
}

/// Engine-dependent diagnostic series: memory counters whose values
/// legitimately differ between the sequential and sharded engines (each shard
/// has its own arena and drains its boundary rings every cycle).  Emitted to a
/// separate file excluded from the byte-identity guarantee.
#[derive(Debug, Clone)]
pub struct DiagSeries {
    /// Packet-arena growths beyond the preallocation (summed across shards).
    pub arena_grows: TimeSeries,
    /// Maximum link phit-ring occupancy (maxed across shards).
    pub phit_ring_high_water: TimeSeries,
    /// Maximum link credit-ring occupancy (maxed across shards).
    pub credit_ring_high_water: TimeSeries,
    /// Active-set link population (summed across shards).
    pub active_links: TimeSeries,
    /// Active-set router population (summed across shards).
    pub active_routers: TimeSeries,
}

impl DiagSeries {
    fn new(stride: u64, capacity: usize) -> Self {
        let mk = || TimeSeries::with_capacity(stride, capacity);
        Self {
            arena_grows: mk(),
            phit_ring_high_water: mk(),
            credit_ring_high_water: mk(),
            active_links: mk(),
            active_routers: mk(),
        }
    }

    /// `(column name, series)` pairs in emission order.
    pub fn columns(&self) -> [(&'static str, &TimeSeries); 5] {
        [
            ("arena_grows", &self.arena_grows),
            ("phit_ring_high_water", &self.phit_ring_high_water),
            ("credit_ring_high_water", &self.credit_ring_high_water),
            ("active_links", &self.active_links),
            ("active_routers", &self.active_routers),
        ]
    }

    fn merge(&mut self, other: &DiagSeries) {
        // Growth and population counts add; high-water marks take the maximum.
        self.arena_grows.merge(&other.arena_grows);
        self.phit_ring_high_water
            .merge_max(&other.phit_ring_high_water);
        self.credit_ring_high_water
            .merge_max(&other.credit_ring_high_water);
        self.active_links.merge(&other.active_links);
        self.active_routers.merge(&other.active_routers);
    }
}

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

    // Sampled series.
    pub(crate) series: SeriesSet,
    pub(crate) diag: DiagSeries,
    pub(crate) router_injected_series: Vec<TimeSeries>,
    pub(crate) router_delivered_series: Vec<TimeSeries>,
    pub(crate) router_misrouted_series: Vec<TimeSeries>,
    pub(crate) samples: usize,
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
        let routers = dims.routers;
        let heat_cells = if cfg.heatmap_enabled() {
            cfg.max_windows * dims.links() * dims.vcs
        } else {
            0
        };
        let per_router_series = |enabled: bool| {
            if enabled {
                (0..routers)
                    .map(|_| TimeSeries::with_capacity(cfg.stride, cfg.max_samples))
                    .collect()
            } else {
                Vec::new()
            }
        };
        let mut flight = Vec::new();
        flight.reserve_exact(if cfg.flight_enabled() {
            cfg.flight_capacity
        } else {
            0
        });
        Self {
            series: SeriesSet::new(cfg.stride, cfg.max_samples),
            diag: DiagSeries::new(cfg.stride, cfg.max_samples),
            router_injected_series: per_router_series(cfg.top_k > 0),
            router_delivered_series: per_router_series(cfg.top_k > 0),
            router_misrouted_series: per_router_series(cfg.top_k > 0),
            router_injected: vec![0; routers],
            router_delivered: vec![0; routers],
            router_misrouted: vec![0; routers],
            injected_total: 0,
            delivered_total: 0,
            global_mis_total: 0,
            local_mis_total: 0,
            samples: 0,
            samples_dropped: 0,
            flight,
            flight_dropped: 0,
            flight_cutoff: u64::MAX,
            heat_phits: vec![0; heat_cells],
            heat_stalls: vec![0; heat_cells],
            heat_occupancy: vec![0; heat_cells],
            heat_windows: 0,
            heat_dropped: 0,
            ledger: cfg
                .delay_enabled()
                .then(|| DelayLedger::new(cfg.stride, cfg.max_samples)),
            cfg,
            dims,
        }
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

    /// Take a time-series sample at `cycle` (the engine calls this every
    /// `stride` cycles, after its per-cycle bookkeeping).  `link_phits` is the
    /// engine's cumulative per-link phit counter, classified via
    /// [`ProbeDims::link_class`].
    pub fn sample(&mut self, _cycle: u64, link_phits: &[u64], snap: SampleSnapshot) {
        if self.samples >= self.cfg.max_samples {
            self.samples_dropped += 1;
            return;
        }
        self.samples += 1;
        let mut by_class = [0u64; 3];
        for (li, &phits) in link_phits.iter().enumerate() {
            by_class[self.dims.link_class[li] as usize] += phits;
        }
        self.series.injected.push(self.injected_total as f64);
        self.series.delivered.push(self.delivered_total as f64);
        self.series
            .global_misroute_decisions
            .push(self.global_mis_total as f64);
        self.series
            .local_misroute_decisions
            .push(self.local_mis_total as f64);
        self.series.buffered_phits.push(snap.buffered_phits as f64);
        self.series.pb_congested.push(snap.pb_congested as f64);
        self.series
            .link_local_phits
            .push(by_class[CLASS_LOCAL as usize] as f64);
        self.series
            .link_global_phits
            .push(by_class[CLASS_GLOBAL as usize] as f64);
        self.series
            .link_terminal_phits
            .push(by_class[CLASS_TERMINAL as usize] as f64);
        self.diag.arena_grows.push(snap.arena_grows as f64);
        self.diag
            .phit_ring_high_water
            .push(snap.phit_ring_high_water as f64);
        self.diag
            .credit_ring_high_water
            .push(snap.credit_ring_high_water as f64);
        self.diag.active_links.push(snap.active_links as f64);
        self.diag.active_routers.push(snap.active_routers as f64);
        if self.cfg.top_k > 0 {
            for r in 0..self.dims.routers {
                self.router_injected_series[r].push(self.router_injected[r] as f64);
                self.router_delivered_series[r].push(self.router_delivered[r] as f64);
                self.router_misrouted_series[r].push(self.router_misrouted[r] as f64);
            }
        }
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.sample();
        }
    }

    /// Number of time-series samples recorded.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The network-wide deterministic series.
    pub fn series(&self) -> &SeriesSet {
        &self.series
    }

    /// The engine-dependent diagnostic series.
    pub fn diag(&self) -> &DiagSeries {
        &self.diag
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

    /// The detector verdicts over the recorded series (see
    /// [`crate::detect()`]) and the number dropped past `max_trips`.  Empty
    /// when the detectors are off; the fairness-skew detector is armed only
    /// when per-router series are recorded (`top_k > 0`).
    pub fn trips(&self) -> (Vec<TripRecord>, u64) {
        let s = &self.series;
        let at = |series: &TimeSeries, i: usize| series.samples()[i] as u64;
        let rows: Vec<DetectorSample> = (0..self.samples)
            .map(|i| DetectorSample {
                cycle: s.injected.cycle_of(i),
                injected: at(&s.injected, i),
                delivered: at(&s.delivered, i),
                global_misroutes: at(&s.global_misroute_decisions, i),
                local_misroutes: at(&s.local_misroute_decisions, i),
                buffered_phits: at(&s.buffered_phits, i),
            })
            .collect();
        detect(&self.cfg.detect, &rows, &self.router_delivered_series)
    }

    /// Merge another partition's recorder into this one (element-wise sums,
    /// plus maxima for the diagnostic high-water marks).  Commutative and
    /// associative, so the result is independent of shard count and merge
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when the two recorders were built with different configurations
    /// or for different network dimensions.
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
        self.series.merge(&other.series);
        self.diag.merge(&other.diag);
        for (dst, src) in self
            .router_injected_series
            .iter_mut()
            .zip(&other.router_injected_series)
        {
            dst.merge(src);
        }
        for (dst, src) in self
            .router_delivered_series
            .iter_mut()
            .zip(&other.router_delivered_series)
        {
            dst.merge(src);
        }
        for (dst, src) in self
            .router_misrouted_series
            .iter_mut()
            .zip(&other.router_misrouted_series)
        {
            dst.merge(src);
        }
        // Every partition samples the same cycles, so both counts are the
        // same number seen once per shard: maxima, not sums.
        self.samples = self.samples.max(other.samples);
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
        assert_eq!(p.series().injected.samples(), &[2.0]);
        assert_eq!(p.series().delivered.samples(), &[1.0]);
        assert_eq!(p.series().global_misroute_decisions.samples(), &[1.0]);
        assert_eq!(p.series().local_misroute_decisions.samples(), &[1.0]);
        assert_eq!(p.series().link_local_phits.samples(), &[5.0]);
        assert_eq!(p.series().link_global_phits.samples(), &[9.0]);
        assert_eq!(p.series().link_terminal_phits.samples(), &[4.0]);
        // Router 0 saw 2 injections + 1 misroute; router 1 saw 1 delivery + 1.
        assert_eq!(p.top_routers(2), vec![0, 1]);
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
        assert_eq!(
            ab.series().injected.samples(),
            ba.series().injected.samples()
        );
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
        assert_eq!(a.diag().phit_ring_high_water.samples(), &[9.0]);
        assert_eq!(a.diag().arena_grows.samples(), &[3.0]);
    }
}
