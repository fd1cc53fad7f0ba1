//! Run manifests written by earlier releases keep reading.

use dragonfly::probe::{ProbeConfig, RunManifest, MANIFEST_SCHEMA_VERSION};

/// `tests/golden/manifest/v2_parent.json` was emitted by the hand-formatted
/// schema-2 writer (`fig4_5 --quick --pattern un --loads 1.0 --probe-delay
/// --probe-detect`).  It still reads — its `trace` key ignored, its drop
/// counts 0 — and re-emits as a schema-3 document that round-trips.
#[test]
fn parent_emitted_v2_manifest_reads_and_re_emits() {
    let text = include_str!("golden/manifest/v2_parent.json");
    let (manifest, probe, files) = RunManifest::from_json(text).expect("parse parent emission");
    assert_eq!(
        manifest,
        RunManifest {
            schema_version: 2,
            title: "fig4_5_un_olm_1-00".to_string(),
            h: 2,
            routing: "OLM".to_string(),
            flow_control: "VCT".to_string(),
            traffic: "UN".to_string(),
            offered_load: 1.0,
            threshold: 0.45,
            seed: 1,
            warmup: 1000,
            measure: 2000,
            drain: 2000,
            peak_in_flight_packets: 23827,
            peak_buffered_phits: 12932,
            peak_vc_occupancy: 231,
            samples_dropped: 0,
            heatmap_events_dropped: 0,
        }
    );
    let mut expected = ProbeConfig::full_active(64);
    expected.heatmap_window = 0;
    expected.delay = true;
    assert_eq!(probe, expected);
    assert_eq!(files.len(), 11);
    assert_eq!(files[0], "fig4_5_un_olm_1-00_series.csv");

    let v3 = RunManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        ..manifest
    };
    let text = v3.to_json(&probe, &files);
    assert!(text.starts_with("{\n  \"schema_version\": 3,"), "{text}");
    assert!(!text.contains("\"trace\""), "{text}");
    assert_eq!(
        RunManifest::from_json(&text).expect("parse the schema-3 re-emission"),
        (v3, probe, files)
    );
}
