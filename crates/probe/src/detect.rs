//! Anomaly detectors: one pure function of the recorded sample stream,
//! evaluated once after the run.
//!
//! [`detect`] reads the tables the recorder already keeps (one row per
//! recorded sample, never per cycle) and returns the verdicts.  Nothing in
//! the cycle loop steps a detector, so a sharded run needs no special
//! handling: its merged tables are byte-identical to the sequential run's
//! (the pinned shard-invariance of the passive layer), and the same function
//! of the same tables gives the same [`TripRecord`]s.
//!
//! All evidence is kept as exact integers (numerator/denominator pairs, never
//! ratios), so trigger files format identically everywhere.  The trip list is
//! bounded by [`DetectorConfig::max_trips`]; the overflow is counted.

/// Detector id: accepted/injected throughput ratio collapsed below
/// `collapse_pct` over an evaluation window.
pub const DETECT_COLLAPSE: u8 = 0;
/// Detector id: phits stayed buffered with zero deliveries for
/// `stall_samples` consecutive samples (credit stall / livelock suspicion).
pub const DETECT_STALL: u8 = 1;
/// Detector id: misroute decisions exceeded `misroute_pct` of injections over
/// an evaluation window.
pub const DETECT_STORM: u8 = 2;
/// Detector id: one router's delivery share exceeded `skew_pct` of the
/// per-router mean over an evaluation window (fairness skew; router-level
/// skew proxies job-level skew under the contiguous placement policy).
pub const DETECT_SKEW: u8 = 3;

/// `router` value of a [`TripRecord`] that implicates no single router.
pub const NO_ROUTER: u32 = u32::MAX;

/// Machine-readable name of a `DETECT_*` id (used in the trigger and trace
/// files).
pub fn detector_name(detector: u8) -> &'static str {
    match detector {
        DETECT_COLLAPSE => "throughput_collapse",
        DETECT_STALL => "credit_stall",
        DETECT_STORM => "misroute_storm",
        DETECT_SKEW => "fairness_skew",
        _ => "unknown",
    }
}

/// Configuration of the detectors.  `window == 0` disables every detector
/// (the default); [`DetectorConfig::armed`] gives the tuned-on defaults the
/// `--probe-detect` flag installs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Samples per evaluation window of the windowed detectors (collapse,
    /// storm, skew).  `0` disables every detector.
    pub window: u32,
    /// Throughput-collapse threshold: trip when
    /// `delivered × 100 < collapse_pct × injected` over a window.
    pub collapse_pct: u32,
    /// Minimum packets injected in a window for the windowed ratio detectors
    /// to evaluate at all (suppresses verdicts on idle or draining windows).
    pub min_window_injected: u64,
    /// Consecutive samples with buffered phits and zero deliveries before the
    /// credit-stall detector trips (`≥ 1` when armed).
    pub stall_samples: u32,
    /// Misroute-storm threshold: trip when
    /// `misroutes × 100 > misroute_pct × injected` over a window.
    pub misroute_pct: u32,
    /// Fairness-skew threshold: trip when the busiest router's window
    /// deliveries exceed `skew_pct`% of the per-router mean
    /// (`max × routers × 100 > skew_pct × total`).
    pub skew_pct: u32,
    /// Maximum trip records kept; later trips are dropped and counted.
    pub max_trips: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl DetectorConfig {
    /// Every detector disabled (threshold fields keep the armed values so a
    /// struct update can flip just `window`).
    pub fn off() -> Self {
        Self {
            window: 0,
            ..Self::armed()
        }
    }

    /// The tuned-on defaults: 8-sample windows, collapse below 50%, stall
    /// after 8 flat samples, storm above 60% misroutes, skew above 4× the
    /// per-router mean.
    pub fn armed() -> Self {
        Self {
            window: 8,
            collapse_pct: 50,
            min_window_injected: 64,
            stall_samples: 8,
            misroute_pct: 60,
            skew_pct: 400,
            max_trips: 64,
        }
    }

    /// True when the detectors are evaluated.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.window > 0
    }
}

/// One detector verdict: the cycle it fired, the sample index and window it
/// evaluated, and the exact integer evidence (`observed` vs `bound`, whose
/// meaning is detector-specific — see the trigger-file schema in RESULTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripRecord {
    /// `DETECT_*` id of the detector that fired.
    pub detector: u8,
    /// Cycle of the sample at which the verdict fired.
    pub cycle: u64,
    /// Index of that sample in the recorded series.
    pub sample: u32,
    /// Cycle of the first sample of the evaluated window (for the stall
    /// detector: the first flat sample of the run).
    pub window_start_cycle: u64,
    /// Detector-specific evidence numerator (e.g. packets delivered in the
    /// window for collapse, buffered phits for stall).
    pub observed: u64,
    /// Detector-specific evidence denominator/bound (e.g. packets injected in
    /// the window for collapse, the configured run length for stall).
    pub bound: u64,
    /// Implicated router ([`NO_ROUTER`] for network-wide verdicts; set by the
    /// fairness-skew detector).
    pub router: u32,
}

/// The network-wide counters of one recorded sample, as the detectors read
/// them.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetectorSample {
    /// Cycle of the sample.
    pub cycle: u64,
    /// Cumulative packets injected.
    pub injected: u64,
    /// Cumulative packets delivered.
    pub delivered: u64,
    /// Cumulative global misroute decisions.
    pub global_misroutes: u64,
    /// Cumulative local misroute decisions.
    pub local_misroutes: u64,
    /// Phits buffered at the sample point (instantaneous gauge).
    pub buffered_phits: u64,
}

/// Evaluate every armed detector over a recorded sample stream.
///
/// `rows` holds the network-wide counters of each sample;
/// `router_delivered[i * routers + r]` is router `r`'s cumulative deliveries
/// at sample `i`, read only at window boundaries (`routers == 0` disarms the
/// fairness-skew detector).  Returns the kept trips in firing order — by
/// sample, then stall < collapse < storm < skew — and the number dropped past
/// [`DetectorConfig::max_trips`].
///
/// * The credit stall trips once per maximal run of samples with phits
///   buffered and deliveries flat, at the run's `stall_samples`-th sample.
/// * Collapse, storm and skew evaluate each complete non-overlapping window
///   of `window` samples at its last sample, from the cumulative counters at
///   its boundaries, and fire when their condition holds in this window and
///   did not hold in the previous one (a persistent anomaly trips once).
///
/// # Panics
///
/// Panics unless `router_delivered` holds `rows.len() * routers` counts.
pub fn detect(
    cfg: &DetectorConfig,
    rows: &[DetectorSample],
    router_delivered: &[u64],
    routers: usize,
) -> (Vec<TripRecord>, u64) {
    assert_eq!(
        router_delivered.len(),
        rows.len() * routers,
        "one delivered count per router and sample"
    );
    let mut trips = Vec::new();
    if !cfg.enabled() {
        return (trips, 0);
    }
    let w = cfg.window as usize;
    let at = |i: usize, r: usize| router_delivered[i * routers + r];
    let (mut run, mut run_start) = (0u32, 0u64);
    // Whether each windowed detector's condition held in the previous window.
    let mut held = [false; 4];
    for (i, row) in rows.iter().enumerate() {
        let prev = if i == 0 {
            DetectorSample::default()
        } else {
            rows[i - 1]
        };
        if row.buffered_phits > 0 && row.delivered == prev.delivered {
            if run == 0 {
                run_start = row.cycle;
            }
            run += 1;
            if run == cfg.stall_samples {
                trips.push(TripRecord {
                    detector: DETECT_STALL,
                    cycle: row.cycle,
                    sample: i as u32,
                    window_start_cycle: run_start,
                    observed: row.buffered_phits,
                    bound: u64::from(cfg.stall_samples),
                    router: NO_ROUTER,
                });
            }
        } else {
            run = 0;
        }

        if (i + 1) % w != 0 {
            continue;
        }
        let first = i + 1 - w;
        let base = if first == 0 {
            DetectorSample::default()
        } else {
            rows[first - 1]
        };
        let d_inj = row.injected - base.injected;
        let d_del = row.delivered - base.delivered;
        let d_mis = row.global_misroutes + row.local_misroutes
            - (base.global_misroutes + base.local_misroutes);
        let busy = d_inj >= cfg.min_window_injected;

        let (mut total, mut max_delta, mut max_router) = (0u64, 0u64, NO_ROUTER);
        for r in 0..routers {
            let delta = at(i, r) - if first == 0 { 0 } else { at(first - 1, r) };
            total += delta;
            if delta > max_delta {
                max_delta = delta;
                max_router = r as u32;
            }
        }
        let skewed = total >= cfg.min_window_injected
            && max_delta * routers as u64 * 100 > u64::from(cfg.skew_pct) * total;

        for (detector, holds, observed, bound, router) in [
            (
                DETECT_COLLAPSE,
                busy && d_del * 100 < u64::from(cfg.collapse_pct) * d_inj,
                d_del,
                d_inj,
                NO_ROUTER,
            ),
            (
                DETECT_STORM,
                busy && d_mis * 100 > u64::from(cfg.misroute_pct) * d_inj,
                d_mis,
                d_inj,
                NO_ROUTER,
            ),
            (
                DETECT_SKEW,
                skewed,
                max_delta * routers as u64,
                total,
                max_router,
            ),
        ] {
            if holds && !held[detector as usize] {
                trips.push(TripRecord {
                    detector,
                    cycle: row.cycle,
                    sample: i as u32,
                    window_start_cycle: rows[first].cycle,
                    observed,
                    bound,
                    router,
                });
            }
            held[detector as usize] = holds;
        }
    }
    let dropped = trips.len().saturating_sub(cfg.max_trips) as u64;
    trips.truncate(cfg.max_trips);
    (trips, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            window: 2,
            collapse_pct: 50,
            min_window_injected: 10,
            stall_samples: 3,
            misroute_pct: 60,
            skew_pct: 300,
            max_trips: 4,
        }
    }

    /// `(cycle, injected, delivered, misroutes, buffered)` rows.
    fn rows(rows: &[(u64, u64, u64, u64, u64)]) -> Vec<DetectorSample> {
        rows.iter()
            .map(
                |&(cycle, injected, delivered, misroutes, buffered)| DetectorSample {
                    cycle,
                    injected,
                    delivered,
                    global_misroutes: misroutes,
                    local_misroutes: 0,
                    buffered_phits: buffered,
                },
            )
            .collect()
    }

    fn run(cfg: &DetectorConfig, stream: &[(u64, u64, u64, u64, u64)]) -> (Vec<TripRecord>, u64) {
        detect(cfg, &rows(stream), &[], 0)
    }

    #[test]
    fn collapse_trips_once_then_rearms_after_a_clean_window() {
        let (trips, _) = run(
            &cfg(),
            &[
                // Window 1: 20 injected, 4 delivered — 20% < 50% → trip.
                (0, 10, 2, 0, 0),
                (4, 20, 4, 0, 0),
                // Window 2: still collapsed, but the latch holds.
                (8, 30, 6, 0, 0),
                (12, 40, 8, 0, 0),
                // Window 3: healthy → re-arms.
                (16, 50, 18, 0, 0),
                (20, 60, 28, 0, 0),
                // Window 4: collapsed again → second trip.
                (24, 70, 29, 0, 0),
                (28, 80, 30, 0, 0),
            ],
        );
        assert_eq!(trips.len(), 2);
        assert_eq!(trips[0].detector, DETECT_COLLAPSE);
        assert_eq!(
            (trips[0].cycle, trips[0].observed, trips[0].bound),
            (4, 4, 20)
        );
        assert_eq!(trips[0].window_start_cycle, 0);
        assert_eq!(trips[1].cycle, 28);
    }

    #[test]
    fn idle_windows_never_trip_ratio_detectors() {
        // 4 injected per window, below min_window_injected = 10, all lost.
        let (trips, _) = run(&cfg(), &[(0, 2, 0, 2, 0), (4, 4, 0, 4, 0)]);
        assert!(trips.is_empty());
    }

    #[test]
    fn stall_needs_buffered_phits_and_flat_deliveries() {
        let (trips, _) = run(
            &cfg(),
            &[
                (0, 50, 5, 0, 9),  // delivery count moves here → run starts after
                (4, 60, 5, 0, 9),  // flat #1
                (8, 70, 5, 0, 9),  // flat #2
                (12, 80, 5, 0, 9), // flat #3 → trip
                (16, 90, 6, 0, 0), // progress resumes → run ends
                (20, 99, 6, 0, 0), // flat but nothing buffered → no stall
            ],
        );
        let stalls: Vec<_> = trips
            .iter()
            .filter(|t| t.detector == DETECT_STALL)
            .collect();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cycle, 12);
        assert_eq!(stalls[0].window_start_cycle, 4);
        assert_eq!(stalls[0].observed, 9);
    }

    #[test]
    fn storm_and_skew_evidence_is_exact() {
        // Window: 20 injected, 13 misroutes (65% > 60%); router 2 delivers 10
        // of 12 (skew 10*4*100 = 4000 > 300*12 = 3600).
        let router_delivered = [1, 0, 5, 0, 1, 0, 10, 1];
        let (trips, _) = detect(
            &cfg(),
            &rows(&[(0, 10, 6, 6, 0), (4, 20, 12, 13, 0)]),
            &router_delivered,
            4,
        );
        assert_eq!(trips.len(), 2);
        assert_eq!(trips[0].detector, DETECT_STORM);
        assert_eq!((trips[0].observed, trips[0].bound), (13, 20));
        assert_eq!(trips[1].detector, DETECT_SKEW);
        assert_eq!((trips[1].observed, trips[1].bound), (40, 12));
        assert_eq!(trips[1].router, 2);
    }

    #[test]
    fn trip_list_is_bounded() {
        // Alternate collapsed and clean windows so the latch re-arms.
        let (mut inj, mut del) = (0u64, 0u64);
        let mut stream = Vec::new();
        for w in 0..6u64 {
            let healthy = w % 2 == 1;
            for half in 0..2u64 {
                inj += 50;
                del += if healthy { 48 } else { 5 };
                stream.push((w * 8 + half * 4, inj, del, 0, 0));
            }
        }
        let bounded = DetectorConfig {
            max_trips: 1,
            ..cfg()
        };
        let (trips, dropped) = run(&bounded, &stream);
        assert_eq!(trips.len(), 1);
        assert_eq!(dropped, 2, "three collapsed windows, one kept");
    }

    #[test]
    fn disabled_bank_records_nothing() {
        let (trips, dropped) = run(&DetectorConfig::off(), &[(0, 100, 0, 100, 50); 32]);
        assert!(trips.is_empty());
        assert_eq!(dropped, 0);
    }
}
