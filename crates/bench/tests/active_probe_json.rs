//! CI validation of the active-layer emitters: a forced anomaly run must
//! produce trigger lines that the codec's reader accepts and a run manifest
//! that round-trips through its own reader — both for one
//! recorder in memory and for every JSON file the harness writes for the
//! detector smoke run (`repro interference` with the detectors forced to trip),
//! sequentially and on two shards.

use dragonfly_bench::{file_slug, HarnessArgs};
use dragonfly_core::{
    job_sweep, ExperimentSpec, FlowControlKind, JobSweep, Jobs, ProbeConfig, RoutingKind,
    RunManifest, RunOptions, Steady, Trace, TrafficKind,
};
use dragonfly_stats::validate_json;
use dragonfly_topology::DragonflyParams;
use RoutingKind::{Minimal, Olm, Par62, Piggybacking, Rlm};

/// Minimal routing under saturating ADVG+1 with a 100 % collapse threshold:
/// any delivered deficit at all trips the collapse detector.
fn forced_trip_run() -> (ExperimentSpec, ProbeConfig) {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = Minimal;
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
    probe
        .write_trigger_jsonl(&mut jsonl, &trips, dropped)
        .unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert!(jsonl.lines().count() >= 2, "trips plus the trailer line");
    assert!(jsonl.contains("\"throughput_collapse\""));
    for line in jsonl.lines() {
        validate_json(line).expect("every trigger line must parse as JSON");
    }
}

/// Check one emitted JSON artifact: a `.jsonl` file is one JSON document per
/// line, a `*_manifest.json` file round-trips through [`RunManifest::from_json`]
/// and re-emits to the same bytes.
fn check_json_file(name: &str, text: &str) -> Result<(), String> {
    if name.ends_with(".jsonl") {
        for (i, line) in text.lines().enumerate() {
            validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        }
    } else {
        let (manifest, probe, files) = RunManifest::from_json(text)?;
        if manifest.to_json(&probe, &files) != text {
            return Err("manifest re-emission differs from the original".to_string());
        }
    }
    Ok(())
}

/// CI's detector smoke run — the `interference` study at `--quick` with the
/// collapse threshold forced to 100 %, the delay ledger and the heatmap on — through [`HarnessArgs::run_points`], sequentially and
/// on two shards: every `.json`/`.jsonl` file it writes passes
/// [`check_json_file`].
#[test]
fn every_json_file_of_the_detector_smoke_run_parses() {
    let flags = "--quick --probe-detect-window 4 --probe-detect-collapse 100 \
                 --probe-delay --probe-heatmap 64";
    for shards in ["1", "2"] {
        let dir = std::env::temp_dir().join(format!("df_json_{}_{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = ["--shards", shards, "--out", dir.to_str().unwrap()];
        let args = HarnessArgs::parse_from(flags.split_whitespace().chain(out)).unwrap();
        assert_eq!(args.h, 2);

        // The `interference` row: an ADVG+1 aggressor at 96 % of its +1 global
        // channel's saturation next to a uniform victim.
        let params = DragonflyParams::new(args.h);
        let load = 0.96 * 2.0 / params.nodes_per_group() as f64;
        let specs = job_sweep(&JobSweep {
            base: args.base_spec(FlowControlKind::Vct),
            mechanisms: vec![Minimal, Piggybacking, Par62, Rlm, Olm],
            traces: vec![Trace::interference(params.num_nodes(), 1, load, 0.1)],
        });
        let prefix =
            |spec: &ExperimentSpec| format!("interference_{}", file_slug(spec.routing.name()));
        args.run_points("interference", &specs, Jobs, prefix);

        let mut checked = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            if name.ends_with(".json") || name.ends_with(".jsonl") {
                let text = std::fs::read_to_string(&path).unwrap();
                if let Err(e) = check_json_file(&name, &text) {
                    panic!("{shards} shard(s): {name}: {e}");
                }
                checked.push(name);
            }
        }
        // The forced trip must have written the files the checks are about.
        for file in ["trigger.jsonl", "manifest.json", "delay.jsonl"] {
            let name = format!("interference_minimal_{file}");
            assert!(checked.contains(&name), "{shards} shard(s): no {name}");
        }
        for gone in ["trace.json", "trigger_flight.jsonl", "series.jsonl"] {
            let name = format!("interference_minimal_{gone}");
            assert!(!checked.contains(&name), "{shards} shard(s): {name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
