//! The probe subsystem's cardinal invariants:
//!
//! 1. **Read-only** — installing probes never perturbs a run.  Every field of
//!    every report is byte-identical with probes on and off, for every routing
//!    mechanism × flow control combination and for the workload/churn
//!    protocols (probes share no state with routing, consume no RNG, and only
//!    read what the cycle loop already computed).
//! 2. **Shard-invariant output** — the probe files a sharded run emits are
//!    byte-identical to the sequential run's, independent of the shard count.
//!    Every counter is attributed to exactly one owner router/link, the
//!    flight sample is a pure hash of `(source, generation cycle)`, and
//!    emission sorts flight events into a canonical order.  The one documented
//!    exception is the diagnostics series (`*_diag.csv`): arena growth and
//!    ring high-water marks are genuinely engine-dependent.
//!
//! Shards and probes are orthogonal [`RunOptions`], so both invariants are
//! also pinned as one table: every protocol × engine × probe combination goes
//! through `ExperimentSpec::run_with` and must agree.

use dragonfly::core::{
    Batch, Completion, ExperimentSpec, FlowControlKind, JobPattern, JobSpec, Jobs, PlacementPolicy,
    ProbeConfig, ProbeRecorder, Protocol, RoutingKind, RunOptions, Steady, Trace, TrafficKind,
};
use dragonfly::probe::{DetectorConfig, RunManifest};
use dragonfly::routing::MinimalRouting;
use dragonfly::shard::{ShardPlan, ShardedSimulation};
use dragonfly::sim::{Control, Engine, EngineHost, SimConfig, Simulation};
use dragonfly::traffic::{BernoulliInjection, Uniform};
use std::fmt::Debug;
use std::path::{Path, PathBuf};

fn steady_spec(routing: RoutingKind, fc: FlowControlKind) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.flow_control = fc;
    // ADVG+1 exercises misrouting, the PB board and (in sharded runs) the
    // boundary links; the probe hooks on all of them must stay passive.
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.25;
    spec.seed = 23;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    spec
}

/// Probe configuration with every instrument on, including the delay ledger
/// (off in `ProbeConfig::full` so the bench pair isolates its fold cost).
fn full_probes() -> ProbeConfig {
    ProbeConfig {
        delay: true,
        ..ProbeConfig::full(64)
    }
}

/// Every instrument on **plus** the armed anomaly detectors — the active
/// layer on top of the passive recorder.
fn active_probes() -> ProbeConfig {
    ProbeConfig {
        delay: true,
        ..ProbeConfig::full_active(64)
    }
}

/// Run `spec` under `protocol` with `probes` installed, on the sequential
/// engine (`shards = None`) or the sharded one.
fn run_probed<P: Protocol>(
    spec: &ExperimentSpec,
    protocol: P,
    probes: ProbeConfig,
    shards: Option<usize>,
) -> (P::Report, ProbeRecorder) {
    let options = RunOptions {
        shards,
        probes: Some(probes),
    };
    let (report, probe) = spec.run_with(protocol, &options);
    (report, *probe.expect("probes were requested"))
}

fn workload_spec() -> ExperimentSpec {
    let mut spec = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    spec.traffic = TrafficKind::Jobs(Trace::interference(72, 1, 0.4, 0.1));
    spec
}

fn churn_spec() -> ExperimentSpec {
    let mut spec = steady_spec(RoutingKind::Piggybacking, FlowControlKind::Vct);
    spec.traffic = TrafficKind::Jobs(Trace::new(
        "probe-pin",
        vec![
            JobSpec::new(
                "a",
                24,
                PlacementPolicy::Contiguous,
                JobPattern::AllToAll,
                0.15,
            )
            .complete_on(Completion::Duration(1_200)),
            JobSpec::new(
                "b",
                24,
                PlacementPolicy::Random { seed: 5 },
                JobPattern::Uniform,
                0.1,
            )
            .arrive_at(500)
            .complete_on(Completion::Duration(800)),
        ],
    ));
    spec.measure = 4_000;
    spec.drain = 2_000;
    spec
}

#[test]
fn probes_never_perturb_any_mechanism_or_flow_control() {
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        for routing in RoutingKind::ALL {
            if fc == FlowControlKind::Wormhole && !routing.supports_wormhole() {
                continue;
            }
            let spec = steady_spec(routing, fc);
            let plain = spec.run();
            assert!(
                plain.packets_measured > 0,
                "{routing:?}/{fc:?}: nothing measured, the pin is vacuous"
            );
            let (probed, probe) = run_probed(&spec, Steady, full_probes(), None);
            assert_eq!(
                probed, plain,
                "{routing:?}/{fc:?}: probes perturbed the report"
            );
            assert!(
                probe.samples() > 0,
                "{routing:?}/{fc:?}: probes recorded nothing"
            );
        }
    }
}

#[test]
fn probes_never_perturb_workload_and_churn_runs() {
    let workload = workload_spec();
    let plain = workload.run_workload();
    let (probed, probe) = run_probed(&workload, Jobs, full_probes(), None);
    assert_eq!(probed, plain, "probes perturbed the workload report");
    assert!(probe.samples() > 0);

    let churn = churn_spec();
    let plain = churn.run_workload();
    let (probed, probe) = run_probed(&churn, Jobs, full_probes(), None);
    assert_eq!(probed, plain, "probes perturbed the churn report");
    assert!(probe.samples() > 0);
}

/// Fresh scratch directory under the target-local temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dragonfly_probe_invariance_{name}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Read every emitted probe file keyed by file name, split into the pinned set
/// and the diagnostics exception.
fn read_outputs(dir: &Path) -> (Vec<(String, Vec<u8>)>, Vec<String>) {
    let mut pinned = Vec::new();
    let mut diag = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with("_diag.csv") {
            diag.push(name);
        } else {
            pinned.push((name, std::fs::read(&path).unwrap()));
        }
    }
    (pinned, diag)
}

#[test]
fn probe_files_are_byte_identical_across_shard_counts() {
    let spec = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    let plain = spec.run();

    let (report, probe) = run_probed(&spec, Steady, full_probes(), None);
    assert_eq!(report, plain);
    let seq_dir = scratch("seq");
    probe.write_all(&seq_dir, "probe").unwrap();
    let (sequential, seq_diag) = read_outputs(&seq_dir);
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_series.csv"),
        "series output missing"
    );
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_flight.jsonl"),
        "flight output missing"
    );
    assert!(
        sequential.iter().any(|(n, _)| n == "probe_heatmap.csv"),
        "heatmap output missing"
    );
    assert!(
        file_text(&sequential, "probe_delay.jsonl").lines().count() > 1,
        "delay rows missing — the delay half of the pin is vacuous"
    );
    assert!(
        file_text(&sequential, "probe_series.csv").contains(",delay_folded,"),
        "the delay ledger's series columns are missing"
    );
    assert_eq!(seq_diag, vec!["probe_diag.csv".to_string()]);

    for shards in [2, 4] {
        let (report, probe) = run_probed(&spec, Steady, full_probes(), Some(shards));
        assert_eq!(report, plain, "{shards} shards: report diverged");
        let dir = scratch(&format!("shards{shards}"));
        probe.write_all(&dir, "probe").unwrap();
        let (sharded, diag) = read_outputs(&dir);
        assert_eq!(diag, seq_diag, "{shards} shards: diag file set diverged");
        assert_eq!(
            sharded.len(),
            sequential.len(),
            "{shards} shards: pinned file set diverged"
        );
        for ((name, bytes), (seq_name, seq_bytes)) in sharded.iter().zip(&sequential) {
            assert_eq!(name, seq_name);
            assert_eq!(
                bytes, seq_bytes,
                "{shards} shards: {name} is not byte-identical to the sequential run"
            );
        }
    }
}

#[test]
fn detectors_never_perturb_the_report() {
    // Armed detectors ride the same read-only hooks as the passive
    // instruments: every report field must stay byte-identical.
    for routing in [RoutingKind::Minimal, RoutingKind::Olm, RoutingKind::Rlm] {
        let spec = steady_spec(routing, FlowControlKind::Vct);
        let plain = spec.run();
        let (probed, probe) = run_probed(&spec, Steady, active_probes(), None);
        assert_eq!(
            probed, plain,
            "{routing:?}: armed detectors perturbed the report"
        );
        assert!(probe.samples() > 0);
    }
}

/// A scenario engineered to trip the detectors: ADVG+1 at a saturating load
/// collapses minimal routing's delivered/injected ratio, and the collapse
/// threshold is set so high that any deficit at all trips it.
fn anomalous_spec() -> (ExperimentSpec, ProbeConfig) {
    let mut spec = steady_spec(RoutingKind::Minimal, FlowControlKind::Vct);
    spec.offered_load = 0.8;
    let mut probes = active_probes();
    probes.detect.window = 4;
    probes.detect.collapse_pct = 100;
    probes.detect.min_window_injected = 16;
    (spec, probes)
}

#[test]
fn trigger_bundle_and_manifest_are_byte_identical_across_shard_counts() {
    let (spec, probes) = anomalous_spec();
    let (report, probe) = run_probed(&spec, Steady, probes.clone(), None);
    assert!(
        !probe.trips().0.is_empty(),
        "the forced-anomaly scenario must trip at least one detector, or this \
         pin is vacuous"
    );
    let manifest = spec.manifest_with_report("anomaly", &report);
    let seq_dir = scratch("anomaly_seq");
    probe
        .write_all_with_manifest(&seq_dir, "anomaly", &manifest)
        .unwrap();
    let (sequential, _) = read_outputs(&seq_dir);
    let names: Vec<&str> = sequential.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "anomaly_delay.jsonl",
            "anomaly_flight.jsonl",
            "anomaly_heatmap.csv",
            "anomaly_manifest.json",
            "anomaly_routers.csv",
            "anomaly_series.csv",
            "anomaly_trigger.jsonl",
        ],
        "one file per datum: no trigger_* copies, no trace"
    );
    assert!(
        file_text(&sequential, "anomaly_trigger.jsonl").contains("\"bundle_lo\":"),
        "trip lines must name their window"
    );

    // One shard included: a single-shard plan never merges, so its trips come
    // from the same after-the-run evaluation with no merge in between.
    for shards in [1, 2, 4] {
        let (sharded_report, probe) = run_probed(&spec, Steady, probes.clone(), Some(shards));
        assert_eq!(sharded_report, report, "{shards} shards: report diverged");
        let dir = scratch(&format!("anomaly_shards{shards}"));
        probe
            .write_all_with_manifest(&dir, "anomaly", &manifest)
            .unwrap();
        let (sharded, _) = read_outputs(&dir);
        assert_eq!(sharded.len(), sequential.len());
        for ((name, bytes), (seq_name, seq_bytes)) in sharded.iter().zip(&sequential) {
            assert_eq!(name, seq_name);
            assert_eq!(
                bytes, seq_bytes,
                "{shards} shards: {name} is not byte-identical to the sequential run"
            );
        }
    }
}

/// One row of the table below: `spec` under `protocol` on every engine
/// (sequential, 1, 2 and 3 shards) with probes off and fully on.  All eight
/// reports must equal the sequential unprobed one, and all four recorders'
/// pinned outputs must equal the sequential recorder's.
fn assert_engines_and_probes_agree<P: Protocol>(name: &str, spec: &ExperimentSpec, protocol: P)
where
    P::Report: PartialEq + Debug,
{
    let (reference, no_probe) = spec.run_with(protocol, &RunOptions::default());
    assert!(no_probe.is_none(), "{name}: a recorder without probes");
    let mut reference_files: Option<Vec<(String, Vec<u8>)>> = None;
    for shards in [None, Some(1), Some(2), Some(3)] {
        for probes in [None, Some(ProbeConfig::full_active(64))] {
            let options = RunOptions { shards, probes };
            let label = format!(
                "{name}, shards {shards:?}, probed {}",
                options.probes.is_some()
            );
            let (report, probe) = spec.run_with(protocol, &options);
            assert_eq!(report, reference, "{label}: report diverged");
            assert_eq!(probe.is_some(), options.probes.is_some(), "{label}");
            let Some(probe) = probe else { continue };
            assert!(probe.samples() > 0, "{label}: probes recorded nothing");
            let dir = scratch(&format!("table_{name}_{}", shards.unwrap_or(0)));
            probe.write_all(&dir, "probe").unwrap();
            let (files, _) = read_outputs(&dir);
            match &reference_files {
                None => {
                    assert!(
                        files.iter().any(|(n, _)| n == "probe_series.csv"),
                        "{label}"
                    );
                    reference_files = Some(files);
                }
                Some(expected) => {
                    let names = |set: &[(String, Vec<u8>)]| -> Vec<String> {
                        set.iter().map(|(n, _)| n.clone()).collect()
                    };
                    assert_eq!(names(&files), names(expected), "{label}: file set diverged");
                    for ((file, bytes), (_, expected)) in files.iter().zip(expected) {
                        assert!(bytes == expected, "{label}: {file} is not byte-identical");
                    }
                }
            }
        }
    }
}

/// {steady, workload, churn, batch} × {sequential, 1, 2, 3 shards} ×
/// {probes off, `ProbeConfig::full_active`}: one pipeline, one answer.
#[test]
fn every_protocol_engine_and_probe_combination_agrees() {
    let steady = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    assert_engines_and_probes_agree("steady", &steady, Steady);
    assert_engines_and_probes_agree("workload", &workload_spec(), Jobs);
    assert_engines_and_probes_agree("churn", &churn_spec(), Jobs);

    let mut burst = steady_spec(RoutingKind::Rlm, FlowControlKind::Wormhole);
    burst.traffic = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: 2,
        local_offset: 1,
    };
    let batch = Batch {
        packets_per_node: 3,
        max_cycles: 100_000,
    };
    assert!(!burst.run_batch(3, 100_000).timed_out);
    assert_engines_and_probes_agree("batch", &burst, batch);
    // Batch on a workload spec drops the runtime but drains against its pattern.
    assert_engines_and_probes_agree("batch_workload", &workload_spec(), batch);
}

/// Write the file set of `spec` under `protocol` with `probes`, sequentially
/// and on each of `shards`, and require every pinned file to match the
/// sequential run's byte for byte.  Returns the sequential pinned files.
fn assert_files_shard_invariant<P: Protocol>(
    name: &str,
    spec: &ExperimentSpec,
    protocol: P,
    probes: &ProbeConfig,
    shards: &[usize],
) -> Vec<(String, Vec<u8>)>
where
    P::Report: PartialEq + Debug,
{
    let files = |shards: Option<usize>| {
        let (report, probe) = run_probed(spec, protocol, probes.clone(), shards);
        let dir = scratch(&format!("{name}_{}", shards.unwrap_or(0)));
        probe.write_all(&dir, name).unwrap();
        (report, read_outputs(&dir).0)
    };
    let (report, sequential) = files(None);
    for &n in shards {
        let (sharded_report, sharded) = files(Some(n));
        assert_eq!(
            sharded_report, report,
            "{name}, {n} shards: report diverged"
        );
        assert_eq!(sharded.len(), sequential.len(), "{name}, {n} shards");
        for ((file, bytes), (seq_file, seq_bytes)) in sharded.iter().zip(&sequential) {
            assert_eq!(file, seq_file);
            assert!(
                bytes == seq_bytes,
                "{name}, {n} shards: {file} is not byte-identical to the sequential run"
            );
        }
    }
    sequential
}

/// The text of the pinned file whose name ends in `suffix`.
fn file_text<'a>(files: &'a [(String, Vec<u8>)], suffix: &str) -> &'a str {
    let (_, bytes) = files
        .iter()
        .find(|(name, _)| name.ends_with(suffix))
        .unwrap_or_else(|| panic!("no {suffix} file"));
    std::str::from_utf8(bytes).unwrap()
}

#[test]
fn a_full_flight_ring_keeps_the_same_events_on_every_shard_count() {
    // Every packet sampled into a 64-event ring: the ring overflows within
    // the first few cycles, on every shard as well as sequentially.
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Uniform;
    spec.offered_load = 0.3;
    spec.warmup = 200;
    spec.measure = 400;
    spec.drain = 400;
    let probes = ProbeConfig {
        flight_every: 1,
        flight_capacity: 64,
        ..ProbeConfig::default()
    };
    let files = assert_files_shard_invariant("flight_ring", &spec, Steady, &probes, &[1, 2, 4]);
    let flight = file_text(&files, "_flight.jsonl");
    assert!(
        !flight.trim_end().ends_with("{\"flight_dropped\":0}"),
        "the ring must overflow, or this pin is vacuous"
    );
}

#[test]
fn a_full_delay_scope_table_keeps_the_same_scopes_on_every_shard_count() {
    // 40 two-node jobs, 10 cycles apart and 600 cycles long: more (job,
    // phase) keys than the ledger's 32 scope slots, and more nodes than the
    // 72 of h = 2, so jobs 36-39 wait and land on the nodes job 0-3 free —
    // the first shard's — long after jobs 28-35 started elsewhere.
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.warmup = 0;
    spec.measure = 2_000;
    spec.drain = 1_000;
    spec.traffic = TrafficKind::Jobs(Trace::new(
        "scope-overflow",
        (0..40u64)
            .map(|j| {
                JobSpec::new(
                    format!("j{j}"),
                    2,
                    PlacementPolicy::Contiguous,
                    JobPattern::Uniform,
                    0.3,
                )
                .arrive_at(10 * j)
                .complete_on(Completion::Duration(600))
            })
            .collect(),
    ));
    let probes = ProbeConfig {
        delay: true,
        ..ProbeConfig::default()
    };
    let files = assert_files_shard_invariant("scopes", &spec, Jobs, &probes, &[1, 2, 3]);
    let delay = file_text(&files, "_delay.jsonl");
    assert!(
        !delay.trim_end().ends_with("\"scope_dropped\":0}"),
        "the scope table must overflow, or this pin is vacuous"
    );
    assert!(file_text(&files, "_delay.jsonl").contains("\"scope\":\"job=0/phase=0\""));
}

#[test]
fn dropped_samples_and_heatmap_events_agree_on_every_shard_count() {
    // 1 800 cycles at a stride of 16 offer 113 sample points to a 32-sample
    // cap, and 64-cycle heatmap windows past the fourth drop every later
    // phit, stall and occupancy sample.
    let spec = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    let probes = ProbeConfig {
        stride: 16,
        max_samples: 32,
        heatmap_window: 64,
        max_windows: 4,
        ..ProbeConfig::default()
    };
    let dropped = |shards: Option<usize>| {
        let (report, probe) = run_probed(&spec, Steady, probes.clone(), shards);
        let manifest = spec.manifest_with_report("dropped", &report);
        let dir = scratch(&format!("dropped_{}", shards.unwrap_or(0)));
        probe
            .write_all_with_manifest(&dir, "dropped", &manifest)
            .unwrap();
        let (m, _, _) = RunManifest::from_json(file_text(&read_outputs(&dir).0, "_manifest.json"))
            .expect("the manifest reads back");
        (m.samples_dropped, m.heatmap_events_dropped)
    };
    let sequential = dropped(None);
    assert!(
        sequential.0 > 0 && sequential.1 > 0,
        "both caps must overflow, or this pin is vacuous: {sequential:?}"
    );
    for shards in [2, 4] {
        assert_eq!(dropped(Some(shards)), sequential, "{shards} shards");
    }
}

/// Run 500 cycles, install `probes`, run 200 more and write the file set.
fn probe_late<H: EngineHost>(mut host: H, probes: ProbeConfig, dir: &Path) {
    host.drive(|engine| {
        engine.control(Control::Injection(Some(BernoulliInjection::new(0.3, 8))));
        engine.run(500);
    });
    host.install_probes(probes);
    host.drive(|engine| engine.run(200));
    let probe = host.collect_probe().expect("probes were installed");
    probe.write_all(dir, "late").unwrap();
}

#[test]
fn a_probe_installed_mid_run_labels_rows_with_their_own_cycles() {
    // Samples fall on the absolute multiples of the stride: installed at
    // cycle 500 and stepped through cycle 699, a 64-cycle stride samples
    // cycles 512, 576 and 640 — and every file, and every trip, says so.
    let probes = ProbeConfig {
        detect: DetectorConfig {
            window: 1,
            collapse_pct: 100,
            min_window_injected: 1,
            ..DetectorConfig::armed()
        },
        ..ProbeConfig::default()
    };
    let config = SimConfig::paper_vct(2).with_seed(5);
    let files = |shards: Option<usize>| {
        let dir = scratch(&format!("late_{}", shards.unwrap_or(0)));
        match shards {
            None => probe_late(
                Simulation::with_routing(
                    config.clone(),
                    MinimalRouting::new(),
                    Box::new(Uniform::new()),
                ),
                probes.clone(),
                &dir,
            ),
            Some(n) => probe_late(
                ShardedSimulation::new(
                    config.clone(),
                    ShardPlan::new(n),
                    MinimalRouting::new(),
                    || Box::new(Uniform::new()),
                ),
                probes.clone(),
                &dir,
            ),
        }
        (read_outputs(&dir).0, dir)
    };
    let (sequential, dir) = files(None);
    let diag = std::fs::read_to_string(dir.join("late_diag.csv")).unwrap();
    // The cycles in column `at` of every data row of the file ending `suffix`.
    let cycles = |suffix: &str, at: usize| -> Vec<u64> {
        let text = match suffix {
            "_diag.csv" => &diag,
            _ => file_text(&sequential, suffix),
        };
        text.lines()
            .skip(1)
            .map(|row| row.split(',').nth(at).unwrap().parse().unwrap())
            .collect()
    };
    assert_eq!(cycles("_series.csv", 0), [512, 576, 640]);
    assert_eq!(cycles("_diag.csv", 0), [512, 576, 640]);
    assert_eq!(cycles("_routers.csv", 1), [512, 576, 640].repeat(4));
    let trips: Vec<&str> = file_text(&sequential, "_trigger.jsonl").lines().collect();
    assert!(trips.len() > 1, "no trip, so this pin is vacuous");
    for trip in &trips[..trips.len() - 1] {
        assert!(
            [512, 576, 640]
                .iter()
                .any(|c| trip.contains(&format!("\"cycle\":{c},"))),
            "{trip}"
        );
    }
    assert_eq!(files(Some(2)).0, sequential, "2 shards");
}
