//! The delay-attribution ledger: exact (not sampled) per-packet latency
//! decomposition, folded on delivery.
//!
//! The engine stamps component boundaries on every packet as it moves through
//! the five-phase pipeline (see the "Delay attribution" section of
//! `docs/ARCHITECTURE.md` for the stamp points); when a tail phit is ejected
//! with the delay probe armed, the completed decomposition arrives here as a
//! [`DelaySample`] and is folded into per-component [`Histogram`]s scoped
//! network-wide, per class (minimal vs misrouted) and per workload job/phase.
//!
//! The cardinal invariant: the six components partition the packet's lifetime,
//! so their integer sum equals the delivered end-to-end latency exactly — no
//! residual bucket.  Violations are counted (never silently absorbed) and
//! pinned to zero by `tests/delay_conservation.rs`.
//!
//! Like every other probe instrument the ledger is preallocated at
//! construction, allocation-free on the fold path, and merges associatively
//! across shards (histograms, totals and cumulative series are all sums), so
//! sequential and sharded runs emit byte-identical `*_delay.*` files.

use dragonfly_stats::{Histogram, TimeSeries};

/// Number of delay components.
pub const DELAY_COMPONENTS: usize = 6;

/// Component names, in canonical (emission) order.
pub const DELAY_COMPONENT_NAMES: [&str; DELAY_COMPONENTS] = [
    "injection_queue",
    "vc_wait",
    "credit_wait",
    "link_transit",
    "detour",
    "serialization",
];

/// Job/phase tag of packets generated outside any workload job (mirrors the
/// engine's `UNTAGGED`; such packets fold into the class scopes only).
pub const DELAY_UNTAGGED: u16 = u16::MAX;

/// Largest component value the histograms resolve exactly (1-cycle bins);
/// larger values clamp into the overflow bin but still count exactly in the
/// `cycles` totals.
const DELAY_HIST_CYCLES: usize = 4096;

/// Bounded number of distinct (job, phase) scope slots: the table keeps the
/// smallest keys, and the packets of every other key are dropped and counted.
const MAX_DELAY_SCOPES: usize = 32;

/// One delivered packet's completed decomposition, in
/// [`DELAY_COMPONENT_NAMES`] order.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelaySample {
    /// Per-component cycle counts.
    pub components: [u64; DELAY_COMPONENTS],
    /// True when the packet took any non-minimal hop (global or local).
    pub misrouted: bool,
    /// Workload job tag ([`DELAY_UNTAGGED`] outside workloads).
    pub job: u16,
    /// Job phase tag ([`DELAY_UNTAGGED`] outside workloads).
    pub phase: u16,
}

impl DelaySample {
    /// Integer sum of the components — must equal the end-to-end latency.
    #[inline]
    pub fn total(&self) -> u64 {
        self.components.iter().sum()
    }
}

/// Per-component histograms plus exact totals for one packet class.
#[derive(Debug, Clone)]
pub struct ClassLedger {
    /// Packets folded into this class.
    pub packets: u64,
    /// Exact per-component cycle totals.
    pub cycles: [u64; DELAY_COMPONENTS],
    /// Per-component latency histograms (1-cycle bins).
    pub hist: [Histogram; DELAY_COMPONENTS],
}

impl ClassLedger {
    fn new() -> Self {
        Self {
            packets: 0,
            cycles: [0; DELAY_COMPONENTS],
            hist: std::array::from_fn(|_| Histogram::new(1.0, DELAY_HIST_CYCLES)),
        }
    }

    #[inline]
    fn fold(&mut self, components: &[u64; DELAY_COMPONENTS]) {
        self.packets += 1;
        for (i, &c) in components.iter().enumerate() {
            self.cycles[i] += c;
            self.hist[i].record(c as f64);
        }
    }

    fn merge(&mut self, other: &ClassLedger) {
        self.packets += other.packets;
        for i in 0..DELAY_COMPONENTS {
            self.cycles[i] += other.cycles[i];
            self.hist[i].merge(&other.hist[i]);
        }
    }
}

/// Exact per-(job, phase) component totals (no histograms: the scope count is
/// bounded, and the totals stay exact integers through any merge).
#[derive(Debug, Clone, Copy)]
struct ScopeSlot {
    job: u16,
    phase: u16,
    packets: u64,
    cycles: [u64; DELAY_COMPONENTS],
}

/// One emitted row of the `*_delay.csv` / JSONL file set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayRow {
    /// Scope label: `net`, `minimal`, `misrouted`, or `job=J/phase=P`.
    pub scope: String,
    /// Component name (one of [`DELAY_COMPONENT_NAMES`]).
    pub component: &'static str,
    /// Packets folded into the scope.
    pub packets: u64,
    /// Exact total cycles of this component across those packets.
    pub cycles: u64,
    /// Percentiles in cycles (upper bin edges; `None` for job scopes, which
    /// keep exact totals only).
    pub p50: Option<u64>,
    /// 95th percentile.
    pub p95: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
}

impl DelayRow {
    /// The row as a CSV line under [`DelayLedger::CSV_HEADER`].
    pub fn csv(&self) -> String {
        let cell = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        format!(
            "{},{},{},{},{},{},{}",
            self.scope,
            self.component,
            self.packets,
            self.cycles,
            cell(self.p50),
            cell(self.p95),
            cell(self.p99)
        )
    }

    /// The row as a JSON object (percentiles are `null` for job scopes).
    pub fn json(&self) -> String {
        let cell = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_else(|| "null".into());
        format!(
            "{{\"scope\":\"{}\",\"component\":\"{}\",\"packets\":{},\"cycles\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{}}}",
            self.scope,
            self.component,
            self.packets,
            self.cycles,
            cell(self.p50),
            cell(self.p95),
            cell(self.p99)
        )
    }
}

/// The per-partition delay ledger: class histograms, bounded job/phase
/// totals, and cumulative per-component time series for the trigger bundles.
#[derive(Debug, Clone)]
pub struct DelayLedger {
    minimal: ClassLedger,
    misrouted: ClassLedger,
    scopes: Vec<ScopeSlot>,
    scope_dropped: u64,
    folded: u64,
    violations: u64,
    series: [TimeSeries; DELAY_COMPONENTS],
    series_folded: TimeSeries,
}

impl DelayLedger {
    /// Header of the `*_delay.csv` emission.
    pub const CSV_HEADER: &'static str = "scope,component,packets,cycles,p50,p95,p99";

    /// Build a ledger sampling its cumulative series every `stride` cycles
    /// with at most `max_samples` points, all storage preallocated.
    pub fn new(stride: u64, max_samples: usize) -> Self {
        Self {
            minimal: ClassLedger::new(),
            misrouted: ClassLedger::new(),
            scopes: Vec::with_capacity(MAX_DELAY_SCOPES),
            scope_dropped: 0,
            folded: 0,
            violations: 0,
            series: std::array::from_fn(|_| TimeSeries::with_capacity(stride, max_samples)),
            series_folded: TimeSeries::with_capacity(stride, max_samples),
        }
    }

    /// Fold one delivered packet.  `latency` is the delivered end-to-end
    /// latency (`delivery cycle − generation cycle`); a component sum that
    /// differs from it is a conservation violation, counted here and pinned
    /// to zero by the test suite.
    #[inline]
    pub fn fold(&mut self, sample: &DelaySample, latency: u64) {
        self.folded += 1;
        if sample.total() != latency {
            self.violations += 1;
        }
        let class = if sample.misrouted {
            &mut self.misrouted
        } else {
            &mut self.minimal
        };
        class.fold(&sample.components);
        if sample.job != DELAY_UNTAGGED {
            self.fold_scope(ScopeSlot {
                job: sample.job,
                phase: sample.phase,
                packets: 1,
                cycles: sample.components,
            });
        }
    }

    /// Add `add` to its key's slot.  A full table keeps its
    /// `MAX_DELAY_SCOPES` smallest keys: a smaller new key evicts the
    /// largest, and the packets of the key left out move to `scope_dropped`.
    /// The kept keys are therefore the smallest ones ever seen, each with all
    /// of its packets — whatever the fold or merge order.
    #[inline]
    fn fold_scope(&mut self, add: ScopeSlot) {
        let key = |s: &ScopeSlot| (s.job, s.phase);
        if let Some(slot) = self.scopes.iter_mut().find(|s| key(s) == key(&add)) {
            slot.packets += add.packets;
            for (dst, src) in slot.cycles.iter_mut().zip(&add.cycles) {
                *dst += src;
            }
        } else if self.scopes.len() < MAX_DELAY_SCOPES {
            self.scopes.push(add);
        } else {
            let largest = (0..self.scopes.len())
                .max_by_key(|&i| key(&self.scopes[i]))
                .expect("a full table is not empty");
            let out = if key(&add) < key(&self.scopes[largest]) {
                std::mem::replace(&mut self.scopes[largest], add)
            } else {
                add
            };
            self.scope_dropped += out.packets;
        }
    }

    /// Take a cumulative time-series sample (the recorder calls this from its
    /// own accepted `sample` branch, so the delay series share the stride,
    /// capacity and drop policy of every other series).
    pub fn sample(&mut self) {
        let total: [u64; DELAY_COMPONENTS] =
            std::array::from_fn(|i| self.minimal.cycles[i] + self.misrouted.cycles[i]);
        for (series, cycles) in self.series.iter_mut().zip(total) {
            series.push(cycles as f64);
        }
        self.series_folded.push(self.folded as f64);
    }

    /// Packets folded so far.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Conservation violations observed (must stay zero).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// (job, phase) keys dropped after the bounded scope table filled.
    pub fn scope_dropped(&self) -> u64 {
        self.scope_dropped
    }

    /// The minimal-class ledger.
    pub fn minimal(&self) -> &ClassLedger {
        &self.minimal
    }

    /// The misrouted-class ledger.
    pub fn misrouted(&self) -> &ClassLedger {
        &self.misrouted
    }

    /// Cumulative per-component cycle series, in canonical component order
    /// (one sample per recorder stride; used by the trigger bundles).
    pub fn series(&self) -> &[TimeSeries; DELAY_COMPONENTS] {
        &self.series
    }

    /// Cumulative folded-packet count series.
    pub fn series_folded(&self) -> &TimeSeries {
        &self.series_folded
    }

    /// Merge another partition's ledger (element-wise sums everywhere —
    /// commutative and associative, so the merged emission is independent of
    /// shard count and merge order).
    pub fn merge(&mut self, other: &DelayLedger) {
        self.minimal.merge(&other.minimal);
        self.misrouted.merge(&other.misrouted);
        for &slot in &other.scopes {
            self.fold_scope(slot);
        }
        self.scope_dropped += other.scope_dropped;
        self.folded += other.folded;
        self.violations += other.violations;
        for (dst, src) in self.series.iter_mut().zip(&other.series) {
            dst.merge(src);
        }
        self.series_folded.merge(&other.series_folded);
    }

    /// The emitted rows in canonical order: `net`, `minimal`, `misrouted`
    /// (component percentiles from the histograms), then the job/phase scopes
    /// sorted by key (exact totals, empty percentile cells).  Zero-packet
    /// scopes are skipped.
    pub fn rows(&self) -> Vec<DelayRow> {
        let mut rows = Vec::new();
        let mut net = self.minimal.clone();
        net.merge(&self.misrouted);
        for (scope, class) in [
            ("net", &net),
            ("minimal", &self.minimal),
            ("misrouted", &self.misrouted),
        ] {
            if class.packets == 0 {
                continue;
            }
            for (i, &name) in DELAY_COMPONENT_NAMES.iter().enumerate() {
                // Percentiles land on exact 1-cycle upper bin edges, so the
                // u64 cast is lossless and deterministic.
                let pct = |q: f64| class.hist[i].percentile(q).map(|v| v as u64);
                rows.push(DelayRow {
                    scope: scope.to_string(),
                    component: name,
                    packets: class.packets,
                    cycles: class.cycles[i],
                    p50: pct(0.50),
                    p95: pct(0.95),
                    p99: pct(0.99),
                });
            }
        }
        let mut scopes: Vec<&ScopeSlot> = self.scopes.iter().collect();
        scopes.sort_by_key(|s| (s.job, s.phase));
        for slot in scopes {
            for (i, &name) in DELAY_COMPONENT_NAMES.iter().enumerate() {
                rows.push(DelayRow {
                    scope: format!("job={}/phase={}", slot.job, slot.phase),
                    component: name,
                    packets: slot.packets,
                    cycles: slot.cycles[i],
                    p50: None,
                    p95: None,
                    p99: None,
                });
            }
        }
        rows
    }

    /// The trailing JSONL metadata object.
    pub fn meta_json(&self) -> String {
        format!(
            "{{\"delay_folded\":{},\"conservation_violations\":{},\"scope_dropped\":{}}}",
            self.folded, self.violations, self.scope_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(components: [u64; DELAY_COMPONENTS], misrouted: bool) -> DelaySample {
        DelaySample {
            components,
            misrouted,
            job: DELAY_UNTAGGED,
            phase: DELAY_UNTAGGED,
        }
    }

    #[test]
    fn fold_routes_by_class_and_counts_conservation() {
        let mut ledger = DelayLedger::new(4, 8);
        let s = sample([1, 2, 3, 4, 0, 5], false);
        ledger.fold(&s, 15);
        let m = sample([0, 1, 0, 9, 7, 3], true);
        ledger.fold(&m, 20);
        assert_eq!(ledger.folded(), 2);
        assert_eq!(ledger.violations(), 0);
        assert_eq!(ledger.minimal().packets, 1);
        assert_eq!(ledger.misrouted().packets, 1);
        assert_eq!(ledger.minimal().cycles, [1, 2, 3, 4, 0, 5]);
        // A wrong latency is counted, never absorbed.
        ledger.fold(&s, 14);
        assert_eq!(ledger.violations(), 1);
    }

    #[test]
    fn rows_emit_net_then_classes_with_exact_percentiles() {
        let mut ledger = DelayLedger::new(4, 8);
        ledger.fold(&sample([10, 0, 0, 100, 0, 7], false), 117);
        ledger.fold(&sample([20, 0, 0, 100, 30, 7], true), 157);
        let rows = ledger.rows();
        // 3 scopes × 6 components.
        assert_eq!(rows.len(), 18);
        assert_eq!(rows[0].scope, "net");
        assert_eq!(rows[0].component, "injection_queue");
        assert_eq!(rows[0].packets, 2);
        assert_eq!(rows[0].cycles, 30);
        // 1-cycle bins: the p99 of {10, 20} is the upper edge of 20's bin.
        assert_eq!(rows[0].p99, Some(21));
        let detour_min = rows
            .iter()
            .find(|r| r.scope == "minimal" && r.component == "detour")
            .unwrap();
        assert_eq!(detour_min.cycles, 0, "minimal packets take no detour");
    }

    #[test]
    fn job_scopes_are_bounded_sorted_and_percentile_free() {
        let mut ledger = DelayLedger::new(4, 8);
        for job in (0..40u16).rev() {
            let mut s = sample([job as u64, 0, 0, 0, 0, 0], false);
            s.job = job;
            s.phase = 0;
            ledger.fold(&s, job as u64);
        }
        // The MAX_DELAY_SCOPES smallest keys kept (jobs 0..=31): each of the
        // eight smaller keys arriving late evicted the largest one.
        assert_eq!(ledger.scope_dropped(), 8);
        let rows = ledger.rows();
        let job_rows: Vec<&DelayRow> = rows
            .iter()
            .filter(|r| r.scope.starts_with("job="))
            .collect();
        assert_eq!(job_rows.len(), 32 * DELAY_COMPONENTS);
        // Sorted by key, regardless of fold order.
        assert_eq!(job_rows[0].scope, "job=0/phase=0");
        assert_eq!(job_rows.last().unwrap().scope, "job=31/phase=0");
        assert!(job_rows[0].p50.is_none());
        assert!(job_rows[0].csv().ends_with(",,,"));
        assert!(job_rows[0].json().contains("\"p50\":null"));
    }

    #[test]
    fn merge_is_associative_and_order_independent() {
        let build = |packets: &[(u64, bool, u16)]| {
            let mut ledger = DelayLedger::new(4, 8);
            for &(c, mis, job) in packets {
                let mut s = sample([c, 0, 0, c, 0, 0], mis);
                s.job = job;
                s.phase = 1;
                ledger.fold(&s, 2 * c);
            }
            ledger.sample();
            ledger
        };
        let a = build(&[(3, false, 0), (5, true, 1)]);
        let b = build(&[(7, false, 0)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.rows(), ba.rows());
        assert_eq!(ab.meta_json(), ba.meta_json());
        assert_eq!(ab.series()[0].samples(), ba.series()[0].samples());
        assert_eq!(ab.folded(), 3);
    }

    #[test]
    fn cumulative_series_track_folds() {
        let mut ledger = DelayLedger::new(4, 8);
        ledger.sample();
        ledger.fold(&sample([1, 0, 0, 2, 0, 0], false), 3);
        ledger.sample();
        assert_eq!(ledger.series_folded().samples(), &[0.0, 1.0]);
        assert_eq!(ledger.series()[0].samples(), &[0.0, 1.0]);
        assert_eq!(ledger.series()[3].samples(), &[0.0, 2.0]);
    }
}
