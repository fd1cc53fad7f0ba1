//! File emission of recorded probe data (CSV and hand-formatted JSONL).
//!
//! Every emitted number is an exact integer count, so the byte output of a
//! merged sharded recorder is identical to the sequential recorder's — no
//! float formatting is involved anywhere on the determinism-pinned paths.
//! `series.csv` and `diag.csv` are two column ranges of the one sample
//! table, each row led by the cycle it was taken at; the diagnostics file is
//! the deliberate exception to byte identity, its values being
//! engine-dependent (see [`crate::recorder::COLUMNS`]).

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::flight::{FLIGHT_DELIVER, FLIGHT_HOP, FLIGHT_INJECT, NONE_U16};
use crate::manifest::RunManifest;
use crate::recorder::{class_name, ProbeRecorder, COLUMNS, DELAY, DIAG, NETWORK};

fn kind_name(kind: u8) -> &'static str {
    match kind {
        FLIGHT_INJECT => "inject",
        FLIGHT_HOP => "hop",
        FLIGHT_DELIVER => "deliver",
        _ => "unknown",
    }
}

/// JSON fragment for an optional numeric field encoded as a `u16` sentinel.
fn opt_u16(v: u16) -> String {
    if v == NONE_U16 {
        "null".to_string()
    } else {
        v.to_string()
    }
}

impl ProbeRecorder {
    /// Write every enabled instrument's output into `dir`, with file names
    /// `<prefix>_<instrument>.<ext>`, one file per datum.  Returns the paths
    /// written.  The detectors are evaluated here, once, and their verdicts
    /// feed the trigger file.
    pub fn write_all(&self, dir: &Path, prefix: &str) -> io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut emit = |name: &str, body: &dyn Fn(&mut BufWriter<File>) -> io::Result<()>| {
            let path = dir.join(format!("{prefix}_{name}"));
            let mut out = BufWriter::new(File::create(&path)?);
            body(&mut out)?;
            out.flush()?;
            written.push(path);
            Ok::<(), io::Error>(())
        };
        emit("series.csv", &|out| self.write_series_csv(out))?;
        if self.cfg.top_k > 0 {
            emit("routers.csv", &|out| self.write_router_series_csv(out))?;
        }
        if self.cfg.flight_enabled() {
            emit("flight.jsonl", &|out| self.write_flight_jsonl(out))?;
        }
        if self.cfg.heatmap_enabled() {
            emit("heatmap.csv", &|out| self.write_heatmap_csv(out))?;
        }
        if self.cfg.delay_enabled() {
            emit("delay.jsonl", &|out| self.write_delay_jsonl(out))?;
        }
        if self.cfg.detect_enabled() {
            let (trips, dropped) = self.trips();
            emit("trigger.jsonl", &|out| {
                self.write_trigger_jsonl(out, &trips, dropped)
            })?;
        }
        emit("diag.csv", &|out| self.write_table_csv(out, &[DIAG]))?;
        Ok(written)
    }

    /// [`Self::write_all`] plus a `<prefix>_manifest.json` self-description
    /// listing the written files, with the manifest's drop counters taken
    /// from this recorder.  Returns every path written, the manifest last.
    pub fn write_all_with_manifest(
        &self,
        dir: &Path,
        prefix: &str,
        manifest: &RunManifest,
    ) -> io::Result<Vec<PathBuf>> {
        let mut written = self.write_all(dir, prefix)?;
        let names: Vec<String> = written
            .iter()
            .map(|p| {
                p.file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        let manifest = RunManifest {
            samples_dropped: self.samples_dropped,
            heatmap_events_dropped: self.heat_dropped,
            ..manifest.clone()
        };
        let path = dir.join(format!("{prefix}_manifest.json"));
        let mut out = BufWriter::new(File::create(&path)?);
        out.write_all(manifest.to_json(&self.cfg, &names).as_bytes())?;
        out.flush()?;
        written.push(path);
        Ok(written)
    }

    /// `series.csv`: the network series, then the delay ledger's totals
    /// when it is armed.
    pub(crate) fn write_series_csv(&self, out: &mut impl Write) -> io::Result<()> {
        self.write_table_csv(out, &[NETWORK, DELAY.start..self.width()])
    }

    /// The sample table as CSV: a `cycle` column, then the `ranges` of
    /// [`COLUMNS`], one line per sample.
    fn write_table_csv(&self, out: &mut impl Write, ranges: &[Range<usize>]) -> io::Result<()> {
        let columns = || ranges.iter().cloned().flatten();
        write!(out, "cycle")?;
        for k in columns() {
            write!(out, ",{}", COLUMNS[k].0)?;
        }
        writeln!(out)?;
        for row in self.table() {
            write!(out, "{}", row[0])?;
            for k in columns() {
                write!(out, ",{}", row[k])?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// The router table of the top-K routers by total activity.
    pub fn write_router_series_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "router,cycle,injected,delivered,misrouted")?;
        for r in self.top_routers(self.cfg.top_k) {
            for (i, row) in self.table().enumerate() {
                let [injected, delivered, misrouted] = self.router_counts(i, r);
                writeln!(out, "{r},{},{injected},{delivered},{misrouted}", row[0])?;
            }
        }
        Ok(())
    }

    /// The flight recorder's events in canonical order, one JSON object per
    /// line, with a trailing `{"flight_dropped":N}` metadata object.
    pub fn write_flight_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for e in self.sorted_flight() {
            let class = if e.class == u8::MAX {
                "null".to_string()
            } else {
                format!("\"{}\"", class_name(e.class))
            };
            let nonminimal = match e.nonminimal {
                0 => "false",
                1 => "true",
                _ => "null",
            };
            writeln!(
                out,
                "{{\"cycle\":{},\"kind\":\"{}\",\"src\":{},\"gen_cycle\":{},\"dst\":{},\
                 \"router\":{},\"port\":{},\"class\":{},\"vc\":{},\"nonminimal\":{}}}",
                e.cycle,
                kind_name(e.kind),
                e.src,
                e.gen_cycle,
                e.dst,
                e.router,
                opt_u16(e.port),
                class,
                opt_u16(e.vc),
                nonminimal,
            )?;
        }
        writeln!(out, "{{\"flight_dropped\":{}}}", self.flight_dropped)?;
        Ok(())
    }

    /// The per-(link, VC) heatmap in long CSV form, all-zero cells skipped.
    pub fn write_heatmap_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "window_start,router,port,class,vc,phits,credit_stalls,occupancy_phits"
        )?;
        let links = self.dims.links();
        let hw = self.cfg.heatmap_window;
        for w in 0..self.heat_windows {
            let w_start = w as u64 * hw;
            for li in 0..links {
                for vc in 0..self.dims.vcs {
                    let cell = (w * links + li) * self.dims.vcs + vc;
                    let (p, s, o) = (
                        self.heat_phits[cell],
                        self.heat_stalls[cell],
                        self.heat_occupancy[cell],
                    );
                    if p == 0 && s == 0 && o == 0 {
                        continue;
                    }
                    writeln!(
                        out,
                        "{w_start},{},{},{},{vc},{p},{s},{o}",
                        li / self.dims.ports,
                        li % self.dims.ports,
                        class_name(self.dims.link_class[li]),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// The delay-attribution ledger as JSONL: one object per
    /// (scope, component) row, then a
    /// trailing metadata object with the folded / violation / dropped counts.
    pub fn write_delay_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let ledger = self.ledger.as_ref().expect("delay ledger enabled");
        for row in ledger.rows() {
            writeln!(out, "{}", row.json())?;
        }
        writeln!(out, "{}", ledger.meta_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ProbeDims, SampleSnapshot, CLASS_GLOBAL, CLASS_LOCAL, CLASS_TERMINAL};
    use crate::{DelaySample, FlightEvent, ProbeConfig, DELAY_UNTAGGED, FLIGHT_HOP};

    fn recorder() -> ProbeRecorder {
        let dims = ProbeDims {
            routers: 1,
            ports: 3,
            vcs: 1,
            link_class: vec![CLASS_LOCAL, CLASS_GLOBAL, CLASS_TERMINAL],
        };
        let cfg = ProbeConfig {
            stride: 4,
            max_samples: 4,
            top_k: 1,
            flight_every: 1,
            flight_capacity: 8,
            heatmap_window: 8,
            max_windows: 2,
            delay: true,
            ..ProbeConfig::default()
        };
        let mut p = ProbeRecorder::new(cfg, dims);
        p.record_injected(0);
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
            nonminimal: 1,
        });
        p.record_link_phit(2, 1, 0);
        p.record_delay(
            &DelaySample {
                components: [1, 0, 0, 2, 0, 1],
                misrouted: false,
                job: DELAY_UNTAGGED,
                phase: DELAY_UNTAGGED,
            },
            4,
        );
        p.sample(0, &[1, 2, 3], SampleSnapshot::default());
        p
    }

    #[test]
    fn csv_and_jsonl_shapes() {
        let p = recorder();
        let mut series = Vec::new();
        p.write_series_csv(&mut series).unwrap();
        let text = String::from_utf8(series).unwrap();
        assert!(text.starts_with("cycle,injected,delivered"), "{text}");
        assert!(text.contains("\n0,1,0,"), "{text}");

        let mut flight = Vec::new();
        p.write_flight_jsonl(&mut flight).unwrap();
        let text = String::from_utf8(flight).unwrap();
        assert!(
            text.contains("\"kind\":\"hop\"") && text.contains("\"nonminimal\":true"),
            "{text}"
        );
        assert!(
            text.trim_end().ends_with("{\"flight_dropped\":0}"),
            "{text}"
        );

        let mut heat = Vec::new();
        p.write_heatmap_csv(&mut heat).unwrap();
        let text = String::from_utf8(heat).unwrap();
        // One nonzero cell: window 0, router 0, port 1 (global), vc 0, 1 phit.
        assert_eq!(
            text,
            "window_start,router,port,class,vc,phits,credit_stalls,occupancy_phits\n\
             0,0,1,global,0,1,0,0\n"
        );

        let mut delay = Vec::new();
        p.write_delay_jsonl(&mut delay).unwrap();
        let text = String::from_utf8(delay).unwrap();
        // One minimal packet [1,0,0,2,0,1]: net and minimal rows agree,
        // the misrouted scope is empty and skipped.
        assert!(
            text.starts_with(
                "{\"scope\":\"net\",\"component\":\"injection_queue\",\"packets\":1,\
                 \"cycles\":1,\"p50\":2,\"p95\":2,\"p99\":2}\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "{\"scope\":\"minimal\",\"component\":\"link_transit\",\"packets\":1,\
                 \"cycles\":2,\"p50\":3,\"p95\":3,\"p99\":3}"
            ),
            "{text}"
        );
        assert!(!text.contains("misrouted"), "{text}");
        assert!(
            text.trim_end().ends_with(
                "{\"delay_folded\":1,\"conservation_violations\":0,\"scope_dropped\":0}"
            ),
            "{text}"
        );

        let mut routers = Vec::new();
        p.write_router_series_csv(&mut routers).unwrap();
        let text = String::from_utf8(routers).unwrap();
        assert_eq!(
            text,
            "router,cycle,injected,delivered,misrouted\n0,0,1,0,0\n"
        );

        let mut diag = Vec::new();
        p.write_table_csv(&mut diag, &[DIAG]).unwrap();
        assert!(String::from_utf8(diag)
            .unwrap()
            .starts_with("cycle,arena_grows,"));
    }

    #[test]
    fn write_all_emits_every_enabled_file() {
        let p = recorder();
        let dir = std::env::temp_dir().join("dragonfly_probe_emit_test");
        let written = p.write_all(&dir, "t").unwrap();
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "t_series.csv",
                "t_routers.csv",
                "t_flight.jsonl",
                "t_heatmap.csv",
                "t_delay.jsonl",
                "t_diag.csv"
            ]
        );
        // The delay ledger's cumulative columns follow the network series:
        // one packet folded before the cycle-0 sample, split [1,0,0,2,0,1].
        assert_eq!(
            std::fs::read_to_string(&written[0]).unwrap(),
            "cycle,injected,delivered,global_misroute_decisions,\
             local_misroute_decisions,buffered_phits,pb_congested,link_local_phits,\
             link_global_phits,link_terminal_phits,delay_folded,delay_injection_queue,\
             delay_vc_wait,delay_credit_wait,delay_link_transit,delay_detour,\
             delay_serialization\n\
             0,1,0,0,0,0,0,1,2,3,1,1,0,0,2,0,1\n"
        );
        for path in &written {
            assert!(path.exists());
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn write_all_with_manifest_emits_active_layer_files() {
        use crate::detect::DetectorConfig;
        use crate::manifest::RunManifest;

        let dims = ProbeDims {
            routers: 1,
            ports: 1,
            vcs: 1,
            link_class: vec![CLASS_TERMINAL],
        };
        let cfg = ProbeConfig {
            stride: 4,
            max_samples: 16,
            detect: DetectorConfig {
                window: 2,
                min_window_injected: 4,
                ..DetectorConfig::armed()
            },
            delay: true,
            ..ProbeConfig::full(8)
        };
        let mut p = ProbeRecorder::new(cfg.clone(), dims);
        for i in 0..4u64 {
            for _ in 0..3 {
                p.record_injected(0);
            }
            p.sample(i * 4, &[0], SampleSnapshot::default());
        }
        assert!(!p.trips().0.is_empty(), "collapse must trip");
        // One phit past the last of the 64 heatmap windows is dropped.
        p.record_link_phit(8 * 64, 0, 0);

        let manifest = RunManifest {
            schema_version: crate::manifest::MANIFEST_SCHEMA_VERSION,
            title: "t".to_string(),
            h: 2,
            routing: "olm".to_string(),
            flow_control: "vct".to_string(),
            traffic: "un".to_string(),
            offered_load: 0.2,
            threshold: 0.45,
            seed: 1,
            warmup: 0,
            measure: 16,
            drain: 0,
            peak_in_flight_packets: 0,
            peak_buffered_phits: 0,
            peak_vc_occupancy: 0,
            samples_dropped: 0,
            heatmap_events_dropped: 0,
        };
        let dir = std::env::temp_dir().join("dragonfly_probe_emit_active_test");
        let written = p.write_all_with_manifest(&dir, "t", &manifest).unwrap();
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "t_series.csv",
                "t_routers.csv",
                "t_flight.jsonl",
                "t_heatmap.csv",
                "t_delay.jsonl",
                "t_trigger.jsonl",
                "t_diag.csv",
                "t_manifest.json",
            ]
        );
        let text = std::fs::read_to_string(written.last().unwrap()).unwrap();
        let (m2, p2, files) = RunManifest::from_json(&text).expect("manifest parses");
        assert_eq!(
            m2,
            RunManifest {
                heatmap_events_dropped: 1,
                ..manifest
            },
            "the drop counters are the recorder's"
        );
        assert_eq!(p2, cfg);
        assert_eq!(files.len(), names.len() - 1, "manifest lists the set");
        for path in &written {
            std::fs::remove_file(path).unwrap();
        }
    }
}
