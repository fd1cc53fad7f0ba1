//! Model-checks the anomaly detectors against a naive reference.
//!
//! The production [`detect`] is one pass over the recorded series: it reads
//! the per-router series only at window boundaries, carries the latches and
//! the stall run across samples, and emits trips in firing order.  The
//! reference model here is written independently for obviousness — each
//! detector's trips are collected separately from whole slices of the stream
//! (window deltas from the cumulative counters at its boundaries, the latch
//! as "fires iff the condition holds now and did not hold in the previous
//! window", stall trips from maximal flat runs), then sorted into firing
//! order and truncated.  Agreement over seeded random streams pins the
//! production bookkeeping (window clock, latches, ordering, the bound)
//! against that formulation.
//!
//! Originally a `proptest` suite; the build environment has no registry
//! access, so the properties run over seeded random cases drawn from the
//! workspace's own deterministic RNG (the `proptest_invariants.rs` idiom).

use dragonfly::probe::{
    detect, DetectorConfig, DetectorSample, TripRecord, DETECT_COLLAPSE, DETECT_SKEW, DETECT_STALL,
    DETECT_STORM, NO_ROUTER,
};
use dragonfly::rng::Rng;
use dragonfly::stats::TimeSeries;

/// One generated sample row of cumulative counters.
#[derive(Debug, Clone)]
struct Row {
    cycle: u64,
    injected: u64,
    delivered: u64,
    gmis: u64,
    lmis: u64,
    buffered: u64,
    router_delivered: Vec<u64>,
}

/// Generate a random monotone stream. `routers > 0` adds per-router
/// deliveries (arming the skew detector) whose sum is the delivered counter.
fn random_stream(rng: &mut Rng, len: usize, routers: usize) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::with_capacity(len);
    let mut cycle = 0u64;
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut gmis = 0u64;
    let mut lmis = 0u64;
    let mut per_router = vec![0u64; routers];
    for _ in 0..len {
        cycle += 1 + rng.next_u64() % 64;
        injected += rng.next_u64() % 24;
        // A fair chance of zero-progress samples so stall runs actually occur.
        let stalled = rng.next_u64().is_multiple_of(3);
        if !stalled {
            if routers > 0 {
                for r in per_router.iter_mut() {
                    // Skewed on purpose: router 0 gets a bigger share sometimes.
                    *r += rng.next_u64() % 8;
                }
                if rng.next_u64().is_multiple_of(2) {
                    per_router[0] += rng.next_u64() % 32;
                }
                delivered = per_router.iter().sum();
            } else {
                delivered += rng.next_u64() % 20;
            }
        }
        gmis += rng.next_u64() % 10;
        lmis += rng.next_u64() % 6;
        let buffered = rng.next_u64() % 50;
        rows.push(Row {
            cycle,
            injected,
            delivered,
            gmis,
            lmis,
            buffered,
            router_delivered: per_router.clone(),
        });
    }
    rows
}

/// Evaluate a stream with the production [`detect`], the per-router
/// deliveries laid out as the recorder keeps them (one series per router).
fn run_bank(cfg: &DetectorConfig, rows: &[Row], routers: usize) -> (Vec<TripRecord>, u64) {
    let samples: Vec<DetectorSample> = rows
        .iter()
        .map(|row| DetectorSample {
            cycle: row.cycle,
            injected: row.injected,
            delivered: row.delivered,
            global_misroutes: row.gmis,
            local_misroutes: row.lmis,
            buffered_phits: row.buffered,
        })
        .collect();
    let router_delivered: Vec<TimeSeries> = (0..routers)
        .map(|r| {
            let mut series = TimeSeries::new(1);
            for row in rows {
                series.push(row.router_delivered[r] as f64);
            }
            series
        })
        .collect();
    detect(cfg, &samples, &router_delivered)
}

/// The naive reference: recompute every trip from whole slices of the stream.
fn model(cfg: &DetectorConfig, rows: &[Row], routers: usize) -> (Vec<TripRecord>, u64) {
    let w = cfg.window as usize;
    // (sample index, same-sample firing order, record)
    let mut trips: Vec<(usize, u8, TripRecord)> = Vec::new();

    // Credit stall: one trip per maximal flat run reaching the threshold, at
    // the run's stall_samples-th sample.
    let mut run_start = 0usize;
    let mut run = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let prev_delivered = if i == 0 { 0 } else { rows[i - 1].delivered };
        if row.buffered > 0 && row.delivered == prev_delivered {
            if run == 0 {
                run_start = i;
            }
            run += 1;
            if run == cfg.stall_samples as usize {
                trips.push((
                    i,
                    0,
                    TripRecord {
                        detector: DETECT_STALL,
                        cycle: row.cycle,
                        sample: i as u32,
                        window_start_cycle: rows[run_start].cycle,
                        observed: row.buffered,
                        bound: u64::from(cfg.stall_samples),
                        router: NO_ROUTER,
                    },
                ));
            }
        } else {
            run = 0;
        }
    }

    // Windowed detectors: evaluate each complete non-overlapping window from
    // the cumulative counters at its boundaries; a trip fires iff the
    // condition holds in this window and did not hold in the previous one.
    let windows = rows.len() / w;
    let mut prev_collapse = false;
    let mut prev_storm = false;
    let mut prev_skew = false;
    for k in 0..windows {
        let first = k * w;
        let last = first + w - 1;
        let end = &rows[last];
        let base = if k == 0 { None } else { Some(&rows[first - 1]) };
        let d_inj = end.injected - base.map_or(0, |b| b.injected);
        let d_del = end.delivered - base.map_or(0, |b| b.delivered);
        let d_mis = end.gmis + end.lmis - base.map_or(0, |b| b.gmis + b.lmis);
        let busy = d_inj >= cfg.min_window_injected;

        let collapse = busy && d_del * 100 < u64::from(cfg.collapse_pct) * d_inj;
        if collapse && !prev_collapse {
            trips.push((
                last,
                1,
                TripRecord {
                    detector: DETECT_COLLAPSE,
                    cycle: end.cycle,
                    sample: last as u32,
                    window_start_cycle: rows[first].cycle,
                    observed: d_del,
                    bound: d_inj,
                    router: NO_ROUTER,
                },
            ));
        }
        prev_collapse = collapse;

        let storm = busy && d_mis * 100 > u64::from(cfg.misroute_pct) * d_inj;
        if storm && !prev_storm {
            trips.push((
                last,
                2,
                TripRecord {
                    detector: DETECT_STORM,
                    cycle: end.cycle,
                    sample: last as u32,
                    window_start_cycle: rows[first].cycle,
                    observed: d_mis,
                    bound: d_inj,
                    router: NO_ROUTER,
                },
            ));
        }
        prev_storm = storm;

        if routers > 0 {
            let n = routers as u64;
            let mut total = 0u64;
            let mut max_delta = 0u64;
            let mut max_router = NO_ROUTER;
            for r in 0..routers {
                let delta = end.router_delivered[r] - base.map_or(0, |b| b.router_delivered[r]);
                total += delta;
                if delta > max_delta {
                    max_delta = delta;
                    max_router = r as u32;
                }
            }
            let skew = total >= cfg.min_window_injected
                && max_delta * n * 100 > u64::from(cfg.skew_pct) * total;
            if skew && !prev_skew {
                trips.push((
                    last,
                    3,
                    TripRecord {
                        detector: DETECT_SKEW,
                        cycle: end.cycle,
                        sample: last as u32,
                        window_start_cycle: rows[first].cycle,
                        observed: max_delta * n,
                        bound: total,
                        router: max_router,
                    },
                ));
            }
            prev_skew = skew;
        }
    }

    trips.sort_by_key(|&(sample, order, _)| (sample, order));
    let all: Vec<TripRecord> = trips.into_iter().map(|(_, _, t)| t).collect();
    let dropped = all.len().saturating_sub(cfg.max_trips) as u64;
    let stored = all.into_iter().take(cfg.max_trips).collect();
    (stored, dropped)
}

fn random_cfg(rng: &mut Rng) -> DetectorConfig {
    DetectorConfig {
        window: 1 + (rng.next_u64() % 6) as u32,
        collapse_pct: (rng.next_u64() % 121) as u32,
        min_window_injected: rng.next_u64() % 40,
        stall_samples: 1 + (rng.next_u64() % 5) as u32,
        misroute_pct: (rng.next_u64() % 121) as u32,
        skew_pct: 100 + (rng.next_u64() % 500) as u32,
        // Small sometimes, so the bounded-list truncation is modeled too.
        max_trips: if rng.next_u64().is_multiple_of(4) {
            2
        } else {
            64
        },
    }
}

#[test]
fn detector_bank_matches_the_naive_windowed_model() {
    let mut meta = Rng::seed_from(2013);
    let mut total_trips = 0usize;
    for case in 0..48 {
        let cfg = random_cfg(&mut meta);
        let routers = if meta.next_u64().is_multiple_of(2) {
            0
        } else {
            2 + (meta.next_u64() % 7) as usize
        };
        let len = 30 + (meta.next_u64() % 90) as usize;
        let mut rng = Rng::seed_from(1000 + case);
        let rows = random_stream(&mut rng, len, routers);
        let (bank_trips, bank_dropped) = run_bank(&cfg, &rows, routers);
        let (model_trips, model_dropped) = model(&cfg, &rows, routers);
        assert_eq!(
            bank_trips, model_trips,
            "case {case}: trip lists diverged (cfg {cfg:?}, routers {routers}, len {len})"
        );
        assert_eq!(
            bank_dropped, model_dropped,
            "case {case}: dropped-trip counts diverged"
        );
        total_trips += bank_trips.len();
    }
    // The random streams must actually exercise the detectors, or the
    // agreement above is vacuous.
    assert!(
        total_trips > 40,
        "only {total_trips} trips across all cases — the generator is too tame"
    );
}

#[test]
fn disabled_detectors_never_trip() {
    let mut rng = Rng::seed_from(7);
    let rows = random_stream(&mut rng, 64, 4);
    let (trips, dropped) = run_bank(&DetectorConfig::off(), &rows, 4);
    assert!(trips.is_empty());
    assert_eq!(dropped, 0);
}
