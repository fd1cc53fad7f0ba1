//! Triggered black-box capture: when a detector trips, the already-recorded
//! probe data is sliced into a bounded diagnostic bundle around the trip.
//!
//! Emission is entirely post-run — the hot path records nothing extra — so
//! the bundle is a pure function of the trip list and the passive
//! instruments, all of which are shard-invariant; the bundle files are
//! therefore byte-identical between sequential and sharded runs by
//! construction.  Every emitted number is an exact integer.
//!
//! The bundle around the *first* trip contains:
//!
//! * a time-series slice covering the evaluated window plus one window of
//!   leading context,
//! * the flight-recorder events inside that cycle range, filtered to the
//!   implicated routers (the skew-flagged router, or the top-K busiest
//!   routers for network-wide verdicts),
//! * the heatmap windows overlapping the range (when heatmaps are on),
//! * the delay ledger's per-component cycle deltas over the range (when the
//!   delay ledger is on), recovered exactly from its cumulative series.

use std::io::{self, Write};

use crate::delay::DELAY_COMPONENT_NAMES;
use crate::detect::{detector_name, TripRecord, NO_ROUTER};
use crate::recorder::ProbeRecorder;
use dragonfly_stats::TimeSeries;

/// JSON fragment for a trip's implicated-router field.
fn opt_router(router: u32) -> String {
    if router == NO_ROUTER {
        "null".to_string()
    } else {
        router.to_string()
    }
}

impl ProbeRecorder {
    /// The bundle's cycle range around `trip`: the evaluated window plus one
    /// extra window of leading context, closed at the trip cycle.
    pub fn bundle_range(&self, trip: &TripRecord) -> (u64, u64) {
        let context = u64::from(self.cfg.detect.window) * self.cfg.stride;
        (trip.window_start_cycle.saturating_sub(context), trip.cycle)
    }

    /// Routers the bundle's flight slice is filtered to: the skew-implicated
    /// router when the trip names one, otherwise the top-K busiest routers.
    /// Deterministic and shard-invariant (both sources are).
    pub fn implicated_routers(&self, trip: &TripRecord) -> Vec<usize> {
        if trip.router != NO_ROUTER {
            vec![trip.router as usize]
        } else {
            self.top_routers(self.cfg.top_k.max(1))
        }
    }

    /// The flight slice of the bundle: canonical-order events inside the
    /// bundle range at the implicated routers, with a trailing
    /// `{"bundle_lo":..,"bundle_hi":..,"events":N}` metadata object.
    pub fn write_bundle_flight_jsonl(
        &self,
        out: &mut impl Write,
        trip: &TripRecord,
    ) -> io::Result<()> {
        let (lo, hi) = self.bundle_range(trip);
        let implicated = self.implicated_routers(trip);
        let mut events = 0u64;
        for e in self.sorted_flight() {
            if e.cycle < lo || e.cycle > hi || !implicated.contains(&(e.router as usize)) {
                continue;
            }
            events += 1;
            writeln!(
                out,
                "{{\"cycle\":{},\"src\":{},\"gen_cycle\":{},\"dst\":{},\"router\":{}}}",
                e.cycle, e.src, e.gen_cycle, e.dst, e.router,
            )?;
        }
        writeln!(
            out,
            "{{\"bundle_lo\":{lo},\"bundle_hi\":{hi},\"events\":{events}}}"
        )?;
        Ok(())
    }

    /// The delay slice of the bundle: per-component folded-packet and cycle
    /// deltas over the bundle range, recovered from the ledger's cumulative
    /// series (exact integers, so the slice is shard-invariant like the rest
    /// of the bundle).
    pub fn write_bundle_delay_csv(
        &self,
        out: &mut impl Write,
        trip: &TripRecord,
    ) -> io::Result<()> {
        let ledger = self.ledger.as_ref().expect("delay ledger enabled");
        let (lo, hi) = self.bundle_range(trip);
        // Delta of a cumulative series over [lo, hi]: value at the last
        // sample inside the range minus the value at the last sample before
        // it (both zero when no such sample exists).
        let delta = |series: &TimeSeries| -> u64 {
            let samples = series.samples();
            let (mut before, mut inside) = (0.0, 0.0);
            for (i, &v) in samples.iter().enumerate() {
                let cycle = series.cycle_of(i);
                if cycle < lo {
                    before = v;
                }
                if cycle <= hi {
                    inside = v;
                }
            }
            (inside - before) as u64
        };
        writeln!(out, "component,packets,cycles")?;
        let packets = delta(ledger.series_folded());
        for (i, name) in DELAY_COMPONENT_NAMES.iter().enumerate() {
            writeln!(out, "{name},{packets},{}", delta(&ledger.series()[i]))?;
        }
        Ok(())
    }
}

/// Every trip as one JSON object per line, with a trailing
/// `{"trips":N,"trips_dropped":N}` metadata object (`dropped` trips fell past
/// `max_trips`).
pub fn write_trigger_jsonl(
    out: &mut impl Write,
    trips: &[TripRecord],
    dropped: u64,
) -> io::Result<()> {
    for t in trips {
        writeln!(
            out,
            "{{\"detector\":\"{}\",\"cycle\":{},\"sample\":{},\"window_start\":{},\
             \"observed\":{},\"bound\":{},\"router\":{}}}",
            detector_name(t.detector),
            t.cycle,
            t.sample,
            t.window_start_cycle,
            t.observed,
            t.bound,
            opt_router(t.router),
        )?;
    }
    writeln!(
        out,
        "{{\"trips\":{},\"trips_dropped\":{dropped}}}",
        trips.len()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{DetectorConfig, DETECT_COLLAPSE};
    use crate::emit::write_columns_csv;
    use crate::recorder::{ProbeDims, SampleSnapshot, CLASS_GLOBAL, CLASS_LOCAL, CLASS_TERMINAL};
    use crate::{FlightEvent, ProbeConfig, FLIGHT_HOP};

    fn tripped_recorder() -> ProbeRecorder {
        let dims = ProbeDims {
            routers: 2,
            ports: 3,
            vcs: 1,
            link_class: vec![
                CLASS_LOCAL,
                CLASS_GLOBAL,
                CLASS_TERMINAL,
                CLASS_LOCAL,
                CLASS_GLOBAL,
                CLASS_TERMINAL,
            ],
        };
        let cfg = ProbeConfig {
            stride: 4,
            max_samples: 16,
            top_k: 1,
            flight_every: 1,
            flight_capacity: 8,
            heatmap_window: 8,
            max_windows: 8,
            detect: DetectorConfig {
                window: 2,
                min_window_injected: 4,
                ..DetectorConfig::armed()
            },
            trace: false,
            delay: true,
        };
        let mut p = ProbeRecorder::new(cfg, dims);
        p.record_delay(
            &crate::DelaySample {
                components: [1, 0, 0, 2, 0, 1],
                misrouted: false,
                job: crate::DELAY_UNTAGGED,
                phase: crate::DELAY_UNTAGGED,
            },
            4,
        );
        p.record_flight(FlightEvent {
            cycle: 2,
            gen_cycle: 1,
            src: 0,
            dst: 3,
            router: 0,
            port: 1,
            vc: 0,
            kind: FLIGHT_HOP,
            class: CLASS_GLOBAL,
            nonminimal: 0,
        });
        p.record_link_phit(2, 1, 0);
        p.record_link_phit(70, 1, 0); // outside the bundle of an early trip
        for i in 0..4u64 {
            for _ in 0..3 {
                p.record_injected(0);
            }
            p.sample(i * 4, &[0; 6], SampleSnapshot::default());
        }
        p
    }

    #[test]
    fn trigger_and_bundle_slices() {
        let p = tripped_recorder();
        let (trips, dropped) = p.trips();
        assert!(!trips.is_empty());
        let first = trips[0];
        assert_eq!(first.detector, DETECT_COLLAPSE);
        assert_eq!(first.cycle, 4);

        let mut buf = Vec::new();
        write_trigger_jsonl(&mut buf, &trips, dropped).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with("{\"detector\":\"throughput_collapse\",\"cycle\":4,"),
            "{text}"
        );
        assert!(text.contains("\"router\":null"), "{text}");
        assert!(text.trim_end().ends_with("\"trips_dropped\":0}"), "{text}");

        // Series slice: trip at cycle 4, window start 0, one window of
        // context → cycles 0 and 4 only.
        let mut buf = Vec::new();
        write_columns_csv(&mut buf, &p.series().columns(), p.bundle_range(&first)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("\n0,") && text.contains("\n4,"), "{text}");

        // Flight slice: the cycle-2 hop at router 0 is implicated (router 0
        // is the only active router, hence top-1).
        let mut buf = Vec::new();
        p.write_bundle_flight_jsonl(&mut buf, &first).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"cycle\":2,"), "{text}");
        assert!(
            text.trim_end()
                .ends_with("{\"bundle_lo\":0,\"bundle_hi\":4,\"events\":1}"),
            "{text}"
        );

        // Heatmap slice: window 0 overlaps [0, 4]; window 8 (cycle 70) does
        // not appear.
        let mut buf = Vec::new();
        p.write_heatmap_csv(&mut buf, p.bundle_range(&first))
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("\n0,0,1,global,0,1,0,0"), "{text}");

        // Delay slice: the single packet folded before the first sample lands
        // inside the bundle range, so its component split shows up as the
        // window's delta.
        let mut buf = Vec::new();
        p.write_bundle_delay_csv(&mut buf, &first).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("component,packets,cycles\n"), "{text}");
        assert!(text.contains("injection_queue,1,1"), "{text}");
        assert!(text.contains("link_transit,1,2"), "{text}");
        assert!(text.contains("serialization,1,1"), "{text}");
        assert!(text.contains("detour,1,0"), "{text}");
    }
}
