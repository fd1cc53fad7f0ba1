//! CI validation of the active-layer emitters: a forced anomaly run must
//! produce a Perfetto trace and trigger lines that the codec's reader accepts
//! and a run manifest that round-trips through its own reader.

use dragonfly_core::{
    write_trigger_jsonl, ExperimentSpec, ProbeConfig, RoutingKind, RunManifest, RunOptions, Steady,
    TraceBuilder, TrafficKind,
};
use dragonfly_stats::validate_json;

/// Minimal routing under saturating ADVG+1 with a 100 % collapse threshold:
/// any delivered deficit at all trips the collapse detector.
fn forced_trip_run() -> (ExperimentSpec, ProbeConfig) {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Minimal;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.8;
    spec.seed = 23;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    let mut probes = ProbeConfig::full_active(64);
    probes.detect.window = 4;
    probes.detect.collapse_pct = 100;
    probes.detect.min_window_injected = 16;
    (spec, probes)
}

#[test]
fn trace_and_manifest_survive_a_real_json_parser() {
    let (spec, probes) = forced_trip_run();
    let options = RunOptions {
        probes: Some(probes),
        ..RunOptions::default()
    };
    let (report, probe) = spec.run_with(Steady, &options);
    let probe = probe.expect("probes were requested");
    let (trips, dropped) = probe.trips();
    assert!(
        !trips.is_empty(),
        "the forced-anomaly run must trip, or the validation below is vacuous"
    );

    // The Perfetto trace is syntactically valid JSON.
    let trace = TraceBuilder::from_trips(&trips).render();
    validate_json(&trace).expect("trace.json must parse as JSON");
    assert!(trace.contains("\"throughput_collapse\""));

    // The manifest round-trips through its reader.
    let manifest = spec.manifest_with_report("forced_trip", &report);
    let files = vec!["forced_trip_trigger.jsonl".to_string()];
    let text = manifest.to_json(probe.config(), &files);
    let (m2, p2, f2) = RunManifest::from_json(&text).expect("manifest must round-trip");
    assert_eq!(m2, manifest);
    assert_eq!(&p2, probe.config());
    assert_eq!(f2, files);

    // Every line of the trigger log is itself a JSON object.
    let mut jsonl = Vec::new();
    write_trigger_jsonl(&mut jsonl, &trips, dropped).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert!(jsonl.lines().count() >= 2, "trips plus the trailer line");
    for line in jsonl.lines() {
        validate_json(line).expect("every trigger line must parse as JSON");
    }
}
