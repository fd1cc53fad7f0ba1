//! Self-describing run manifests: one JSON document per probe file set, so
//! downstream tooling learns what a run was (topology, mechanism, flow
//! control, seed, probe configuration, peak telemetry, drop counts, emitted
//! files) without parsing CSV headers.
//!
//! The manifest deliberately records nothing engine-dependent — in
//! particular, *not* the shard count — so the manifest of a sharded run is
//! byte-identical to the sequential run's, like every other
//! determinism-pinned probe file.  Both directions go through the workspace's
//! JSON codec: [`RunManifest::to_json`] pretty-prints a [`Value`] tree and
//! [`RunManifest::from_json`] walks the parsed tree by path, so it reads any
//! well-formed document with the schema's fields, not only its own emission.

use dragonfly_stats::json::{ToJson, Value};

use crate::config::ProbeConfig;
use crate::detect::DetectorConfig;

/// Current manifest schema version.  History:
///
/// * **1** — initial schema (no `delay` key in the probe section),
/// * **2** — adds the boolean `"delay"` probe key (the per-packet delay
///   ledger).  [`RunManifest::from_json`] still reads version-1 documents;
///   a missing `delay` key parses as `false`,
/// * **3** — drops the `"trace"` probe key and adds the `"dropped"` section: the samples and heatmap events the
///   bounded buffers dropped.  Version-1 and -2 documents still read; their
///   `trace` key is ignored and their drop counts read as 0.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// Experiment identity, peak telemetry and drop counts of one probe file set.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest schema version (bump on field changes; see
    /// [`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The file-set prefix / sweep-point label.
    pub title: String,
    /// Dragonfly size parameter `h` (network has `2h(h²+1)` routers... the
    /// canonical `a = 2h, p = h` balanced configuration).
    pub h: u64,
    /// Routing mechanism name (e.g. `olm`).
    pub routing: String,
    /// Flow-control discipline name (`vct` / `wormhole`).
    pub flow_control: String,
    /// Traffic pattern name (e.g. `advg+1`).
    pub traffic: String,
    /// Offered load in phits/node/cycle.
    pub offered_load: f64,
    /// Adaptive misrouting threshold.
    pub threshold: f64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Drain cycles.
    pub drain: u64,
    /// Peak packets in flight during the run (0 when the protocol reports no
    /// peak telemetry, e.g. batch runs).
    pub peak_in_flight_packets: u64,
    /// Peak phits buffered in input VCs.
    pub peak_buffered_phits: u64,
    /// Peak occupancy of any single VC, in phits.
    pub peak_vc_occupancy: u64,
    /// Sample points dropped past `max_samples` (the sample table stops there).
    /// [`crate::ProbeRecorder::write_all_with_manifest`] fills it from the
    /// recorder.
    pub samples_dropped: u64,
    /// Heatmap events (phits, credit stalls, occupancy samples) dropped past
    /// `max_windows`; filled from the recorder like `samples_dropped`.
    pub heatmap_events_dropped: u64,
}

/// The member of `doc` at the dotted `path` (`probe.detect.window`).
fn member<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

/// The member at `path` read through `read`; the error names the path and
/// says whether the member is missing or is not `what`.
fn field<'a, T>(
    doc: &'a Value,
    path: &str,
    what: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    let value = member(doc, path).ok_or_else(|| format!("{path}: missing"))?;
    read(value).ok_or_else(|| format!("{path}: expected {what}"))
}

/// The unsigned integer at `path`, which must fit `T`.
fn uint<T: TryFrom<u64>>(doc: &Value, path: &str) -> Result<T, String> {
    let n = field(doc, path, "an unsigned integer", Value::as_u64)?;
    T::try_from(n).map_err(|_| format!("{path}: {n} exceeds {}", std::any::type_name::<T>()))
}

fn float(doc: &Value, path: &str) -> Result<f64, String> {
    field(doc, path, "a number", Value::as_f64)
}

fn string(doc: &Value, path: &str) -> Result<String, String> {
    field(doc, path, "a string", Value::as_str).map(str::to_string)
}

fn boolean(doc: &Value, path: &str) -> Result<bool, String> {
    field(doc, path, "a boolean", Value::as_bool)
}

impl RunManifest {
    /// Render the manifest, the probe configuration it was recorded under,
    /// and the emitted file list as a pretty-printed JSON document.
    pub fn to_json(&self, probe: &ProbeConfig, files: &[String]) -> String {
        let detect = &probe.detect;
        let doc = Value::object([
            ("schema_version", self.schema_version.to_json()),
            ("title", self.title.to_json()),
            (
                "experiment",
                Value::object([
                    ("h", self.h.to_json()),
                    ("routing", self.routing.to_json()),
                    ("flow_control", self.flow_control.to_json()),
                    ("traffic", self.traffic.to_json()),
                    ("offered_load", self.offered_load.to_json()),
                    ("threshold", self.threshold.to_json()),
                    ("seed", self.seed.to_json()),
                    ("warmup", self.warmup.to_json()),
                    ("measure", self.measure.to_json()),
                    ("drain", self.drain.to_json()),
                ]),
            ),
            (
                "peaks",
                Value::object([
                    ("in_flight_packets", self.peak_in_flight_packets.to_json()),
                    ("buffered_phits", self.peak_buffered_phits.to_json()),
                    ("vc_occupancy", self.peak_vc_occupancy.to_json()),
                ]),
            ),
            (
                "dropped",
                Value::object([
                    ("samples", self.samples_dropped.to_json()),
                    ("heatmap_events", self.heatmap_events_dropped.to_json()),
                ]),
            ),
            (
                "probe",
                Value::object([
                    ("stride", probe.stride.to_json()),
                    ("max_samples", probe.max_samples.to_json()),
                    ("top_k", probe.top_k.to_json()),
                    ("flight_every", probe.flight_every.to_json()),
                    ("flight_capacity", probe.flight_capacity.to_json()),
                    ("heatmap_window", probe.heatmap_window.to_json()),
                    ("max_windows", probe.max_windows.to_json()),
                    ("delay", probe.delay.to_json()),
                    (
                        "detect",
                        Value::object([
                            ("window", detect.window.to_json()),
                            ("collapse_pct", detect.collapse_pct.to_json()),
                            ("min_window_injected", detect.min_window_injected.to_json()),
                            ("stall_samples", detect.stall_samples.to_json()),
                            ("misroute_pct", detect.misroute_pct.to_json()),
                            ("skew_pct", detect.skew_pct.to_json()),
                            ("max_trips", detect.max_trips.to_json()),
                        ]),
                    ),
                ]),
            ),
            ("files", files.to_json()),
        ]);
        doc.dump_pretty() + "\n"
    }

    /// Parse a manifest document back into the manifest, the probe
    /// configuration and the file list.  The error names the path of the
    /// first field that is missing, of the wrong type or out of range
    /// (`probe.detect.window: 4294967297 exceeds u32`); a `schema_version`
    /// newer than [`MANIFEST_SCHEMA_VERSION`] is refused rather than guessed at.
    /// Older versions read as described there.
    pub fn from_json(text: &str) -> Result<(RunManifest, ProbeConfig, Vec<String>), String> {
        let doc = &Value::parse(text)?;
        let schema_version: u32 = uint(doc, "schema_version")?;
        if schema_version > MANIFEST_SCHEMA_VERSION {
            return Err(format!(
                "schema_version: {schema_version} is newer than the supported \
                 {MANIFEST_SCHEMA_VERSION}"
            ));
        }
        // Version tolerance: schema-1/2 manifests predate the drop counters.
        let dropped = |path| match schema_version {
            ..=2 => Ok(0),
            _ => uint(doc, path),
        };
        let manifest = RunManifest {
            schema_version,
            title: string(doc, "title")?,
            h: uint(doc, "experiment.h")?,
            routing: string(doc, "experiment.routing")?,
            flow_control: string(doc, "experiment.flow_control")?,
            traffic: string(doc, "experiment.traffic")?,
            offered_load: float(doc, "experiment.offered_load")?,
            threshold: float(doc, "experiment.threshold")?,
            seed: uint(doc, "experiment.seed")?,
            warmup: uint(doc, "experiment.warmup")?,
            measure: uint(doc, "experiment.measure")?,
            drain: uint(doc, "experiment.drain")?,
            peak_in_flight_packets: uint(doc, "peaks.in_flight_packets")?,
            peak_buffered_phits: uint(doc, "peaks.buffered_phits")?,
            peak_vc_occupancy: uint(doc, "peaks.vc_occupancy")?,
            samples_dropped: dropped("dropped.samples")?,
            heatmap_events_dropped: dropped("dropped.heatmap_events")?,
        };
        let probe = ProbeConfig {
            stride: uint(doc, "probe.stride")?,
            max_samples: uint(doc, "probe.max_samples")?,
            top_k: uint(doc, "probe.top_k")?,
            flight_every: uint(doc, "probe.flight_every")?,
            flight_capacity: uint(doc, "probe.flight_capacity")?,
            heatmap_window: uint(doc, "probe.heatmap_window")?,
            max_windows: uint(doc, "probe.max_windows")?,
            // Version tolerance: schema-1 manifests predate the delay ledger,
            // so a missing key means the ledger was off.
            delay: match member(doc, "probe.delay") {
                Some(_) => boolean(doc, "probe.delay")?,
                None => false,
            },
            detect: DetectorConfig {
                window: uint(doc, "probe.detect.window")?,
                collapse_pct: uint(doc, "probe.detect.collapse_pct")?,
                min_window_injected: uint(doc, "probe.detect.min_window_injected")?,
                stall_samples: uint(doc, "probe.detect.stall_samples")?,
                misroute_pct: uint(doc, "probe.detect.misroute_pct")?,
                skew_pct: uint(doc, "probe.detect.skew_pct")?,
                max_trips: uint(doc, "probe.detect.max_trips")?,
            },
        };
        let files = field(doc, "files", "an array", Value::as_array)?
            .iter()
            .map(|f| f.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or("files: expected an array of strings")?;
        Ok((manifest, probe, files))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            title: "fig4_5_un_olm_0-25".to_string(),
            h: 2,
            routing: "olm".to_string(),
            flow_control: "vct".to_string(),
            traffic: "advg+1".to_string(),
            offered_load: 0.25,
            threshold: 0.45,
            seed: 23,
            warmup: 300,
            measure: 600,
            drain: 900,
            peak_in_flight_packets: 512,
            peak_buffered_phits: 4096,
            peak_vc_occupancy: 32,
            samples_dropped: 7,
            heatmap_events_dropped: 1_234,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let probe = ProbeConfig::full_active(64);
        let files = vec!["t_series.csv".to_string(), "t_trigger.jsonl".to_string()];
        let text = manifest().to_json(&probe, &files);
        let (m2, p2, f2) = RunManifest::from_json(&text).expect("parse own emission");
        assert_eq!(m2, manifest());
        assert_eq!(p2, probe);
        assert_eq!(f2, files);
    }

    #[test]
    fn schema_v1_documents_still_parse() {
        // A version-2 manifest has a "trace" key and no "dropped" section; a
        // version-1 manifest has no "delay" key either.  The reader ignores
        // the trace key, reads the drop counts as 0 and the ledger as off.
        let mut probe = ProbeConfig::full_active(64);
        probe.delay = true;
        let files = ["t_delay.jsonl".to_string()];
        let v3 = manifest().to_json(&probe, &files);
        let dropped = "  \"dropped\": {\n    \"samples\": 7,\n    \
                       \"heatmap_events\": 1234\n  },\n";
        assert!(v3.contains(dropped), "{v3}");
        let v2 = v3
            .replace(dropped, "")
            .replace("\"schema_version\": 3", "\"schema_version\": 2")
            .replace("\"delay\": true", "\"trace\": true,\n    \"delay\": true");
        let v1 = v2
            .replace("\"schema_version\": 2", "\"schema_version\": 1")
            .replace(",\n    \"delay\": true", "");
        let older = RunManifest {
            samples_dropped: 0,
            heatmap_events_dropped: 0,
            ..manifest()
        };
        for (version, text, delay) in [(2, &v2, true), (1, &v1, false)] {
            let (m, p, f) = RunManifest::from_json(text).expect("parse an older document");
            assert_eq!(
                m,
                RunManifest {
                    schema_version: version,
                    ..older.clone()
                }
            );
            assert_eq!(
                p,
                ProbeConfig {
                    delay,
                    ..probe.clone()
                },
                "v{version}"
            );
            assert_eq!(f, files);
        }

        // The current schema round-trips the flag and the counts.
        let (m3, p3, _) = RunManifest::from_json(&v3).expect("parse schema-3 document");
        assert_eq!(m3, manifest());
        assert!(p3.delay);
    }

    #[test]
    fn free_text_is_escaped_and_round_trips() {
        // Titles are free text (a raw tab, newline or control byte inside a
        // string is not JSON), workload/churn traffic labels legally contain
        // commas and brackets, and so may file names: the list's own delimiters.
        let mut m = manifest();
        m.title = "a\tb\nc \u{1} \"q\" back\\slash \u{1f600}".to_string();
        m.traffic = "WL[aggressor:ADVG+1@0.24,victim:UN@0.10]".to_string();
        let files = vec!["a,b.csv".to_string(), "x]y.csv".to_string()];
        let text = m.to_json(&ProbeConfig::full_active(64), &files);
        assert!(!text.contains(['\t', '\u{1}']), "{text}");
        let (m2, _, f2) = RunManifest::from_json(&text).expect("parse own emission");
        assert_eq!(m2, m);
        assert_eq!(f2, files);
    }

    #[test]
    fn reader_names_the_field_it_refuses() {
        let good = manifest().to_json(&ProbeConfig::full_active(64), &["t.csv".to_string()]);
        let refused = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            RunManifest::from_json(&good.replacen(from, to, 1)).expect_err(to)
        };
        assert_eq!(
            refused("\"window\": 8", "\"window\": 4294967297"),
            "probe.detect.window: 4294967297 exceeds u32"
        );
        assert_eq!(
            refused("\"schema_version\": 3", "\"schema_version\": 4"),
            "schema_version: 4 is newer than the supported 3"
        );
        assert_eq!(
            refused("\"seed\": 23", "\"seed\": -23"),
            "experiment.seed: expected an unsigned integer"
        );
        assert_eq!(
            refused("\"delay\": false", "\"delay\": 0"),
            "probe.delay: expected a boolean"
        );
        assert_eq!(
            refused("\"vc_occupancy\"", "\"vc\""),
            "peaks.vc_occupancy: missing"
        );
        assert_eq!(
            refused("\"heatmap_events\"", "\"heat\""),
            "dropped.heatmap_events: missing"
        );
        assert_eq!(
            refused("[\"t.csv\"]", "[\"t.csv\", 1]"),
            "files: expected an array of strings"
        );
        assert!(refused("\n}\n", "\n}\n{}").starts_with("trailing content at byte"));
    }

    #[test]
    fn detectors_off_and_empty_files_round_trip() {
        let probe = ProbeConfig::default();
        let text = manifest().to_json(&probe, &[]);
        let (_, p2, f2) = RunManifest::from_json(&text).unwrap();
        assert_eq!(p2, probe);
        assert!(f2.is_empty());
    }
}
