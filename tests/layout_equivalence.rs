//! Differential layout-equivalence tier: the engine's observable output is
//! pinned **byte-for-byte** against golden fixtures captured before the
//! struct-of-arrays link-fabric refactor. Any layout change that alters a
//! report — a reordered stat, a perturbed RNG stream, a different peak — fails
//! here with a diff, not somewhere downstream.
//!
//! Coverage: every `RoutingKind` × `FlowControlKind` steady-state run, plus the
//! workload, churn-trace, and batch protocols. Each scenario's fixture holds
//! the full `Debug` rendering of the report *and* its CSV row(s), so both the
//! in-memory struct and the emitted text surface are pinned.  Two regimes those
//! fixtures (loads 0.12–0.4) do not reach — a nearly idle machine and a burst's
//! long tail — have fixtures of their own, captured on the engine as it stood
//! before the cycle became work-proportional (`steady_minimal_idle`,
//! `batch_tail_rlm_wormhole`).
//!
//! Regenerating fixtures (only when an *intentional* behaviour change lands):
//!
//! ```text
//! BLESS_LAYOUT=1 cargo test --release --test layout_equivalence
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use dragonfly::core::{
    ExperimentSpec, FlowControlKind, JobPattern, PlacementPolicy, RoutingKind, RunOptions, Steady,
    Trace, TrafficKind,
};
use dragonfly::stats::{BatchReport, JobReport, PhaseReport, SimReport};
use dragonfly::workload::SyntheticTrace;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("layout")
}

fn blessing() -> bool {
    std::env::var_os("BLESS_LAYOUT").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Compare `actual` against the named fixture, or rewrite it in bless mode.
fn check(name: &str, actual: &str) {
    let path = fixture_dir().join(format!("{name}.txt"));
    if blessing() {
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path:?} ({e}); run \
             `BLESS_LAYOUT=1 cargo test --release --test layout_equivalence` \
             at a known-good revision to capture it"
        )
    });
    assert_eq!(
        golden, actual,
        "scenario `{name}` diverged from its golden fixture {path:?} — the \
         layout refactor changed observable output"
    );
}

/// Render a steady-state report: Debug form plus the CSV surface.
fn render_sim(report: &SimReport) -> String {
    let mut out = String::new();
    writeln!(out, "{report:#?}").unwrap();
    writeln!(out, "csv_header: {}", SimReport::csv_header()).unwrap();
    writeln!(out, "csv_row: {}", report.csv_row()).unwrap();
    out
}

fn render_workload(report: &dragonfly::stats::WorkloadReport) -> String {
    let mut out = String::new();
    writeln!(out, "{report:#?}").unwrap();
    writeln!(out, "aggregate_csv_header: {}", SimReport::csv_header()).unwrap();
    writeln!(out, "aggregate_csv_row: {}", report.aggregate.csv_row()).unwrap();
    writeln!(out, "job_csv_header: {}", JobReport::csv_header()).unwrap();
    for row in report.job_csv_rows() {
        writeln!(out, "job_csv_row: {row}").unwrap();
    }
    writeln!(out, "phase_csv_header: {}", PhaseReport::csv_header()).unwrap();
    for row in report.phase_csv_rows() {
        writeln!(out, "phase_csv_row: {row}").unwrap();
    }
    out
}

fn render_batch(report: &BatchReport) -> String {
    let mut out = String::new();
    writeln!(out, "{report:#?}").unwrap();
    writeln!(out, "csv_header: {}", BatchReport::csv_header()).unwrap();
    writeln!(out, "csv_row: {}", report.csv_row()).unwrap();
    out
}

fn steady_spec(routing: RoutingKind, fc: FlowControlKind) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = routing;
    spec.flow_control = fc;
    // ADVG+1 pressures the global links and every adaptive decision point.
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.25;
    spec.seed = 71;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    spec
}

/// Every mechanism × flow control: the steady-state report is byte-stable.
#[test]
fn steady_state_matrix_matches_golden() {
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        for routing in RoutingKind::ALL {
            if fc == FlowControlKind::Wormhole && !routing.supports_wormhole() {
                continue;
            }
            let report = steady_spec(routing, fc).run();
            assert!(
                report.packets_measured > 0,
                "{routing:?}/{fc:?}: nothing measured, the fixture is vacuous"
            );
            let name = format!(
                "steady_{}_{}",
                format!("{routing:?}").to_ascii_lowercase(),
                format!("{fc:?}").to_ascii_lowercase()
            );
            check(&name, &render_sim(&report));
        }
    }
}

/// Uniform traffic under the default spec, as a second traffic-pattern pin.
#[test]
fn steady_state_uniform_matches_golden() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.offered_load = 0.4;
    spec.seed = 9;
    spec.warmup = 300;
    spec.measure = 600;
    spec.drain = 900;
    let report = spec.run();
    assert!(report.packets_measured > 0);
    check("steady_uniform_olm", &render_sim(&report));
}

/// Workload protocol: per-job and per-phase breakdowns are byte-stable.
#[test]
fn workload_matches_golden() {
    let workload = Trace::interference(72, 1, 0.4, 0.1);
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Piggybacking;
    spec.traffic = TrafficKind::Jobs(workload);
    spec.seed = 5;
    spec.warmup = 400;
    spec.measure = 800;
    spec.drain = 800;
    let report = spec.run_workload();
    assert_eq!(report.jobs.len(), 2);
    check("workload_interference_pb", &render_workload(&report));
}

/// Churn protocol: trace-driven arrivals/departures and lifecycle columns.
#[test]
fn churn_matches_golden() {
    let trace = SyntheticTrace {
        name: "layout-churn".into(),
        seed: 31,
        jobs: 12,
        mean_interarrival: 300.0,
        mean_duration: 1_200.0,
        sizes: vec![8, 16, 24],
        patterns: vec![JobPattern::Uniform, JobPattern::AllToAll],
        placement: PlacementPolicy::Random { seed: 3 },
        offered_load: 0.12,
    }
    .build();
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Jobs(trace);
    spec.seed = 13;
    spec.measure = 12_000;
    spec.drain = 3_000;
    let report = spec.run_workload();
    assert!(
        report
            .jobs
            .iter()
            .all(|j| j.lifecycle.as_ref().unwrap().completion_cycle.is_some()),
        "every synthetic job should finish inside the horizon"
    );
    check("churn_olm", &render_workload(&report));
}

/// Batch (burst-consumption) protocol.
#[test]
fn batch_matches_golden() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Rlm;
    spec.traffic = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: 2,
        local_offset: 1,
    };
    spec.seed = 3;
    let report = spec.run_batch(3, 100_000);
    assert!(!report.timed_out);
    check("batch_mixed_rlm", &render_batch(&report));
}

/// The near-idle regime (the perf ledger's `idle_h6` at h = 2): almost every
/// router, link and source queue has nothing due in a given cycle, so the
/// work-proportional sweeps skip nearly everything — and must not skip a
/// single event that is due.
#[test]
fn steady_idle_matches_golden() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Minimal;
    spec.offered_load = 0.005;
    spec.seed = 17;
    spec.warmup = 3_000;
    spec.measure = 10_000;
    spec.drain = 10_000;
    let report = spec.run();
    assert!(report.packets_measured > 0);
    check("steady_minimal_idle", &render_sim(&report));
}

/// A wormhole burst drained to empty (the ledger's `burst_wh_h4` at h = 2):
/// full source queues thinning to a long tail in which the due-work sets
/// shrink to nothing.
#[test]
fn batch_tail_matches_golden() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Rlm;
    spec.flow_control = FlowControlKind::Wormhole;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.seed = 29;
    let report = spec.run_batch(6, 400_000);
    assert!(!report.timed_out);
    check("batch_tail_rlm_wormhole", &render_batch(&report));
}

/// The sharded engine stays byte-identical to the (fixture-pinned) sequential
/// one, so the fixtures transitively pin the sharded engine too.
#[test]
fn sharded_matches_sequential_and_golden() {
    let spec = steady_spec(RoutingKind::Olm, FlowControlKind::Vct);
    let sequential = spec.run();
    let options = RunOptions {
        shards: Some(2),
        probes: None,
    };
    let (sharded, _) = spec.run_with(Steady, &options);
    assert_eq!(sharded, sequential);
    check("steady_olm_vct", &render_sim(&sharded));
}
