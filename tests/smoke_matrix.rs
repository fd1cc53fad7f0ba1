//! Cross-cutting smoke matrix: every routing mechanism × flow control combination
//! must run under load without panicking or deadlocking, and the monomorphized
//! (static-dispatch) engine must produce byte-identical reports to the type-erased
//! (`Box<dyn RoutingAlgorithm>`) engine for the same seed.

use dragonfly::core::{
    Batch, ExperimentSpec, FlowControlKind, Jobs, Protocol, RoutingKind, Steady, TrafficKind,
};
use dragonfly::traffic::BernoulliInjection;

const FLOW_CONTROLS: [FlowControlKind; 2] = [FlowControlKind::Vct, FlowControlKind::Wormhole];

/// OLM requires VCT; every other (mechanism, flow control) pair is supported.
fn supported(kind: RoutingKind, fc: FlowControlKind) -> bool {
    kind.supports_wormhole() || fc != FlowControlKind::Wormhole
}

#[test]
fn every_mechanism_times_flow_control_runs_under_load() {
    for kind in RoutingKind::ALL {
        for fc in FLOW_CONTROLS {
            if !supported(kind, fc) {
                continue;
            }
            let mut spec = ExperimentSpec::new(2);
            spec.routing = kind;
            spec.flow_control = fc;
            spec.traffic = TrafficKind::Uniform;
            spec.seed = 42;
            let mut sim = spec.build_simulation();
            sim.network_mut()
                .set_injection(Some(BernoulliInjection::new(0.1, fc.packet_size())));
            sim.run_cycles(2_000);
            let net = sim.network();
            assert!(
                !net.deadlock_detected,
                "{} under {} deadlocked",
                kind.name(),
                fc.name()
            );
            assert!(
                net.stats.total_generated > 0,
                "{} under {} generated no traffic",
                kind.name(),
                fc.name()
            );
            assert!(
                net.stats.total_delivered > 0,
                "{} under {} delivered nothing in 2k cycles",
                kind.name(),
                fc.name()
            );
        }
    }
}

#[test]
fn static_and_dyn_dispatch_produce_identical_reports() {
    for kind in RoutingKind::ALL {
        for fc in FLOW_CONTROLS {
            if !supported(kind, fc) {
                continue;
            }
            let mut spec = ExperimentSpec::new(2);
            spec.routing = kind;
            spec.flow_control = fc;
            spec.traffic = TrafficKind::AdversarialGlobal(1);
            spec.offered_load = 0.15;
            spec.seed = 7;
            spec.warmup = 400;
            spec.measure = 800;
            spec.drain = 800;
            let static_report = spec.run();
            let dyn_report = Steady.run_on(&spec, &mut spec.build_simulation());
            assert_eq!(
                static_report,
                dyn_report,
                "static and dyn engines diverged for {} under {}",
                kind.name(),
                fc.name()
            );
        }
    }
}

/// Wormhole under adversarial-local and mixed traffic: every wormhole-capable
/// mechanism keeps delivering (ROADMAP wormhole-scenario item; the original matrix
/// only drove WH with UN/ADVG).
#[test]
fn wormhole_survives_advl_and_mixed_traffic() {
    let patterns = [
        TrafficKind::AdversarialLocal(1),
        TrafficKind::Mixed {
            global_fraction: 0.5,
            global_offset: 2,
            local_offset: 1,
        },
    ];
    for kind in RoutingKind::ALL {
        if !kind.supports_wormhole() {
            continue;
        }
        for traffic in &patterns {
            let mut spec = ExperimentSpec::new(2);
            spec.routing = kind;
            spec.flow_control = FlowControlKind::Wormhole;
            spec.traffic = traffic.clone();
            spec.offered_load = 0.2;
            spec.seed = 17;
            spec.warmup = 600;
            spec.measure = 1_200;
            spec.drain = 2_400;
            let report = spec.run();
            assert!(
                !report.deadlock_detected,
                "{} deadlocked under WH {}",
                kind.name(),
                traffic.name()
            );
            assert!(
                report.packets_measured > 10,
                "{} under WH {} measured only {}",
                kind.name(),
                traffic.name(),
                report.packets_measured
            );
        }
    }
}

/// Head-of-line coverage beyond the paper's 2 global VCs: every wormhole-capable
/// mechanism accepts configurations with 3 and 4 global VCs (extra VCs only relax
/// the deadlock-avoidance ladder) and keeps delivering under adversarial traffic,
/// where blocked packets spanning routers make HOL blocking visible.
#[test]
fn wormhole_accepts_three_and_four_global_vcs() {
    use dragonfly::sim::Simulation;
    use dragonfly::traffic::AdversarialGlobal;
    let mut baseline = Vec::new();
    for global_vcs in [2, 3, 4] {
        for kind in RoutingKind::ALL {
            if !kind.supports_wormhole() {
                continue;
            }
            let config = dragonfly::sim::SimConfig::paper_wormhole(2)
                .with_local_vcs(kind.local_vcs())
                .with_global_vcs(global_vcs)
                .with_seed(29);
            let mut sim =
                Simulation::new(config, kind.build(), Box::new(AdversarialGlobal::new(1)));
            let report = sim.run_steady_state(0.2, 600, 1_200, 2_400);
            assert!(
                !report.deadlock_detected,
                "{} deadlocked under WH with {global_vcs} global VCs",
                kind.name()
            );
            assert!(
                report.packets_measured > 10,
                "{} with {global_vcs} global VCs measured only {}",
                kind.name(),
                report.packets_measured
            );
            if global_vcs == 2 {
                baseline.push((kind, report));
            } else if kind == RoutingKind::Piggybacking {
                // The VC ladder itself never claims a global VC above the hop
                // count (≤ 1), so the extra VCs sit empty — but they are not
                // inert for every mechanism: PB advertises congestion from a
                // global output's occupancy *fraction of total capacity*, and
                // a third/fourth VC grows that capacity, shifting the
                // misrouting trigger.  Pin that the knob reaches PB's
                // decisions.
                let (_, base) = baseline
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .expect("baseline runs first");
                assert_ne!(
                    (report.packets_delivered, report.avg_latency_cycles),
                    (base.packets_delivered, base.avg_latency_cycles),
                    "PB's congestion threshold should see the extra global VC capacity"
                );
            }
        }
    }
}

/// Mechanisms whose deadlock-avoidance ladder needs 2 global VCs reject a
/// 1-VC configuration with a clear error naming the requirement.
#[test]
#[should_panic(expected = "requires 2 global VCs but the configuration provides 1")]
fn too_few_global_vcs_is_a_clear_construction_error() {
    use dragonfly::sim::Simulation;
    use dragonfly::traffic::Uniform;
    let config = dragonfly::sim::SimConfig::paper_wormhole(2)
        .with_local_vcs(RoutingKind::Valiant.local_vcs())
        .with_global_vcs(1);
    let _ = Simulation::new(
        config,
        RoutingKind::Valiant.build(),
        Box::new(Uniform::new()),
    );
}

/// A workload (multi-job, phase-switching) run must be byte-identical between the
/// monomorphized and the type-erased engines, like every other traffic kind.
#[test]
fn workload_static_and_dyn_dispatch_agree() {
    use dragonfly::core::Trace;
    for kind in [RoutingKind::Minimal, RoutingKind::Olm] {
        let mut spec = ExperimentSpec::new(2);
        spec.routing = kind;
        spec.traffic = TrafficKind::Jobs(Trace::interference(72, 1, 0.2, 0.05));
        spec.seed = 23;
        spec.warmup = 400;
        spec.measure = 800;
        spec.drain = 1_200;
        assert_eq!(
            spec.run_workload(),
            Jobs.run_on(&spec, &mut spec.build_simulation()),
            "workload engines diverged for {}",
            kind.name()
        );
    }
}

#[test]
fn static_and_dyn_dispatch_produce_identical_batch_reports() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: 2,
        local_offset: 1,
    };
    spec.seed = 3;
    let static_report = spec.run_batch(2, 100_000);
    let batch = Batch {
        packets_per_node: 2,
        max_cycles: 100_000,
    };
    let dyn_report = batch.run_on(&spec, &mut spec.build_simulation());
    assert_eq!(static_report, dyn_report);
    assert!(!static_report.deadlock_detected);
    assert!(!static_report.timed_out);
}
