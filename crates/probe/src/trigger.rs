//! The trip log: when a detector trips, `*_trigger.jsonl` records the
//! verdict and the window of already-written data that explains it.
//!
//! Emission is entirely post-run — the hot path records nothing extra — so
//! every line is a pure function of the trip list and the passive
//! instruments, all of which are shard-invariant; the file is therefore
//! byte-identical between sequential and sharded runs by construction.
//! Every emitted number is an exact integer.
//!
//! Each trip line names its window as `bundle_lo`..=`bundle_hi` (the
//! evaluated window plus one window of leading context, closed at the trip
//! cycle) and `routers` (the skew-flagged router, or the top-K busiest
//! routers for network-wide verdicts).  The window's data is a selection
//! from the files already written, not a second copy:
//!
//! * `series.csv` — the rows whose cycle lies in the range; with the delay
//!   ledger on, the window's delay split is the last such row's `delay_*`
//!   columns minus those of the row before the range (zero when there is
//!   none),
//! * `flight.jsonl` — the events inside the range at the listed routers,
//! * `heatmap.csv` — the windows that overlap the range.

use std::io::{self, Write};

use crate::detect::{detector_name, TripRecord, NO_ROUTER};
use crate::recorder::ProbeRecorder;

/// JSON fragment for a trip's implicated-router field.
fn opt_router(router: u32) -> String {
    if router == NO_ROUTER {
        "null".to_string()
    } else {
        router.to_string()
    }
}

impl ProbeRecorder {
    /// The cycle range around `trip`: the evaluated window plus one extra
    /// window of leading context, closed at the trip cycle.
    fn bundle_range(&self, trip: &TripRecord) -> (u64, u64) {
        let context = u64::from(self.cfg.detect.window) * self.cfg.stride;
        (trip.window_start_cycle.saturating_sub(context), trip.cycle)
    }

    /// Routers a trip implicates: the skew-flagged router when the trip
    /// names one, otherwise the top-K busiest routers.  Deterministic and
    /// shard-invariant (both sources are).
    fn implicated_routers(&self, trip: &TripRecord) -> Vec<usize> {
        if trip.router != NO_ROUTER {
            vec![trip.router as usize]
        } else {
            self.top_routers(self.cfg.top_k.max(1))
        }
    }

    /// Every trip as one JSON object per line — the verdict, then the
    /// `bundle_lo`/`bundle_hi`/`routers` selection of its window — with a
    /// trailing `{"trips":N,"trips_dropped":N}` metadata object (`dropped`
    /// trips fell past `max_trips`).
    pub fn write_trigger_jsonl(
        &self,
        out: &mut impl Write,
        trips: &[TripRecord],
        dropped: u64,
    ) -> io::Result<()> {
        for t in trips {
            let (lo, hi) = self.bundle_range(t);
            let routers: Vec<String> = self
                .implicated_routers(t)
                .iter()
                .map(ToString::to_string)
                .collect();
            writeln!(
                out,
                "{{\"detector\":\"{}\",\"cycle\":{},\"sample\":{},\"window_start\":{},\
                 \"observed\":{},\"bound\":{},\"router\":{},\"bundle_lo\":{lo},\
                 \"bundle_hi\":{hi},\"routers\":[{}]}}",
                detector_name(t.detector),
                t.cycle,
                t.sample,
                t.window_start_cycle,
                t.observed,
                t.bound,
                opt_router(t.router),
                routers.join(","),
            )?;
        }
        writeln!(
            out,
            "{{\"trips\":{},\"trips_dropped\":{dropped}}}",
            trips.len()
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{DetectorConfig, DETECT_COLLAPSE};
    use crate::recorder::{ProbeDims, SampleSnapshot, CLASS_GLOBAL, CLASS_LOCAL, CLASS_TERMINAL};
    use crate::ProbeConfig;

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

        // Trip at cycle 4, window start 0, one window of context → cycles
        // 0..=4; router 0 is the only active router, hence the top-1.
        let mut buf = Vec::new();
        p.write_trigger_jsonl(&mut buf, &trips, dropped).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = text.lines().next().unwrap();
        assert!(
            line.starts_with("{\"detector\":\"throughput_collapse\",\"cycle\":4,"),
            "{line}"
        );
        assert!(
            line.ends_with("\"router\":null,\"bundle_lo\":0,\"bundle_hi\":4,\"routers\":[0]}"),
            "{line}"
        );
        assert!(text.trim_end().ends_with("\"trips_dropped\":0}"), "{text}");

        // The series.csv rows in 0..=4 are cycles 0 and 4.
        let mut buf = Vec::new();
        p.write_series_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let rows: Vec<Vec<u64>> = lines
            .map(|l| l.split(',').map(|v| v.parse().unwrap()).collect())
            .filter(|row: &Vec<u64>| (0..=4).contains(&row[0]))
            .collect();
        assert_eq!(rows.iter().map(|r| r[0]).collect::<Vec<_>>(), [0, 4]);

        // The window's delay split: the last row in range minus the row
        // before it (none here, so zero) — the one packet folded before the
        // first sample.
        let split = |name: &str| {
            let col = header.iter().position(|h| *h == name).unwrap();
            rows.last().unwrap()[col]
        };
        assert_eq!(split("delay_folded"), 1);
        assert_eq!(split("delay_injection_queue"), 1);
        assert_eq!(split("delay_link_transit"), 2);
        assert_eq!(split("delay_serialization"), 1);
        assert_eq!(split("delay_detour"), 0);
    }
}
