//! Integration tests asserting the *qualitative* results of the paper at reduced
//! scale: who wins under which traffic pattern, and by roughly what kind of margin.
//!
//! Absolute numbers differ from the paper (h = 2/3 instead of 8, shorter windows),
//! but the orderings these tests pin down are the paper's main claims and must hold
//! at any scale.

use dragonfly::core::{ExperimentSpec, RoutingKind, TrafficKind};

fn spec(h: usize, routing: RoutingKind, traffic: TrafficKind, load: f64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(h);
    spec.routing = routing;
    spec.traffic = traffic;
    spec.offered_load = load;
    spec.warmup = 2_500;
    spec.measure = 3_500;
    spec.drain = 2_000;
    spec.seed = 99;
    spec
}

/// Minimal routing under ADVG+1 is capped near 1/(2h²+1); the adaptive mechanisms and
/// Valiant blow past it (paper Figure 5b).
#[test]
fn advg_minimal_saturates_while_adaptive_mechanisms_do_not() {
    let h = 2;
    let bound = 1.0 / (2.0 * (h * h) as f64 + 1.0);
    let minimal = spec(
        h,
        RoutingKind::Minimal,
        TrafficKind::AdversarialGlobal(1),
        0.5,
    )
    .run();
    assert!(
        minimal.accepted_load < bound * 1.8,
        "minimal accepted {} should be near the {bound:.3} bound",
        minimal.accepted_load
    );
    for kind in [
        RoutingKind::Valiant,
        RoutingKind::Olm,
        RoutingKind::Rlm,
        RoutingKind::Par62,
    ] {
        let report = spec(h, kind, TrafficKind::AdversarialGlobal(1), 0.5).run();
        assert!(
            report.accepted_load > minimal.accepted_load * 2.0,
            "{kind:?} accepted {} should clearly beat minimal's {}",
            report.accepted_load,
            minimal.accepted_load
        );
    }
}

/// Under ADVG+h, Valiant routing saturates one local link in every intermediate
/// group, so the mechanisms with local misrouting beat it (paper Figure 5c).
#[test]
fn advgh_local_misrouting_beats_valiant() {
    let h = 2;
    let advgh = TrafficKind::AdversarialGlobal(h);
    let valiant = spec(h, RoutingKind::Valiant, advgh.clone(), 0.9).run();
    for kind in [RoutingKind::Rlm, RoutingKind::Par62] {
        let report = spec(h, kind, advgh.clone(), 0.9).run();
        assert!(
            report.accepted_load > valiant.accepted_load,
            "{kind:?} accepted {} should beat Valiant's {}",
            report.accepted_load,
            valiant.accepted_load
        );
    }
}

/// Under uniform traffic the adaptive mechanisms stay competitive with minimal
/// routing (paper Figure 5a: they even exceed it at saturation) and do not collapse
/// from excessive misrouting.
#[test]
fn uniform_adaptive_mechanisms_track_minimal() {
    let h = 2;
    let minimal = spec(h, RoutingKind::Minimal, TrafficKind::Uniform, 0.4).run();
    for kind in [
        RoutingKind::Olm,
        RoutingKind::Rlm,
        RoutingKind::Par62,
        RoutingKind::Piggybacking,
    ] {
        let report = spec(h, kind, TrafficKind::Uniform, 0.4).run();
        assert!(
            report.accepted_load > minimal.accepted_load * 0.85,
            "{kind:?} accepted {} vs minimal {}",
            report.accepted_load,
            minimal.accepted_load
        );
    }
}

/// Under ADVL+1 the throughput of mechanisms without local misrouting is limited
/// (1/h for pure minimal; PB escapes only via Valiant detours), while PAR-6/2, RLM
/// and OLM exploit local misrouting (paper Figure 6a at 0% global traffic).
#[test]
fn advl_local_misrouting_mechanisms_beat_the_one_over_h_bound() {
    let h = 2;
    let one_over_h = 1.0 / h as f64;
    let minimal = spec(
        h,
        RoutingKind::Minimal,
        TrafficKind::AdversarialLocal(1),
        0.9,
    )
    .run();
    assert!(
        minimal.accepted_load < one_over_h * 1.25,
        "minimal under ADVL+1 should be capped near 1/h, got {}",
        minimal.accepted_load
    );
    for kind in [RoutingKind::Par62, RoutingKind::Rlm, RoutingKind::Olm] {
        let report = spec(h, kind, TrafficKind::AdversarialLocal(1), 0.9).run();
        assert!(
            report.accepted_load > one_over_h,
            "{kind:?} should beat the 1/h bound, got {}",
            report.accepted_load
        );
    }
}

/// The paper's headline comparison: on the ADVG+h / ADVL+1 mix, the mechanisms with
/// local misrouting beat Piggybacking (Figure 6a).
#[test]
fn mixed_traffic_local_misrouting_beats_piggybacking() {
    let h = 2;
    let mix = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: h,
        local_offset: 1,
    };
    let pb = spec(h, RoutingKind::Piggybacking, mix.clone(), 0.9).run();
    for kind in [RoutingKind::Olm, RoutingKind::Par62, RoutingKind::Rlm] {
        let report = spec(h, kind, mix.clone(), 0.9).run();
        assert!(
            report.accepted_load > pb.accepted_load,
            "{kind:?} accepted {} should beat PB's {}",
            report.accepted_load,
            pb.accepted_load
        );
    }
}

/// RLM and OLM achieve their gains with the baseline 3/2 VCs while PAR-6/2 needs 6
/// local VCs — the central cost claim of the paper, checked against the mechanism
/// metadata and the simulator's configuration validation.
#[test]
fn vc_budget_claims_hold() {
    assert_eq!(RoutingKind::Rlm.local_vcs(), 3);
    assert_eq!(RoutingKind::Olm.local_vcs(), 3);
    assert_eq!(RoutingKind::Par62.local_vcs(), 6);
    // Building PAR-6/2 with only 3 local VCs must be rejected by the simulator.
    let result = std::panic::catch_unwind(|| {
        let config = dragonfly::sim::SimConfig::paper_vct(2); // 3 local VCs
        dragonfly::sim::Simulation::with_routing(
            config,
            dragonfly::routing::Par62::default(),
            Box::new(dragonfly::traffic::Uniform::new()),
        )
    });
    assert!(result.is_err(), "PAR-6/2 must require 6 local VCs");
}

/// Burst consumption: OLM and RLM drain a mixed burst in (much) less time than PB
/// (paper Figures 6b, ~36-42% of PB's time at full scale).
#[test]
fn burst_consumption_is_faster_with_local_misrouting() {
    let h = 2;
    let mix = TrafficKind::Mixed {
        global_fraction: 0.5,
        global_offset: h,
        local_offset: 1,
    };
    let pb = spec(h, RoutingKind::Piggybacking, mix.clone(), 1.0).run_batch(10, 2_000_000);
    assert!(!pb.timed_out);
    for kind in [RoutingKind::Olm, RoutingKind::Rlm] {
        let report = spec(h, kind, mix.clone(), 1.0).run_batch(10, 2_000_000);
        assert!(!report.timed_out, "{kind:?} timed out");
        assert!(
            (report.consumption_cycles as f64) < pb.consumption_cycles as f64 * 0.95,
            "{kind:?} took {} cycles vs PB's {}",
            report.consumption_cycles,
            pb.consumption_cycles
        );
    }
}

/// Higher misrouting thresholds help adversarial traffic and hurt uniform traffic
/// (the trade-off of Figures 10/11).
#[test]
fn threshold_tradeoff_direction_holds() {
    let h = 2;
    let mut low_adv = spec(h, RoutingKind::Rlm, TrafficKind::AdversarialGlobal(1), 0.6);
    low_adv.threshold = 0.20;
    let mut high_adv = low_adv.clone();
    high_adv.threshold = 0.60;
    let low = low_adv.run();
    let high = high_adv.run();
    assert!(
        high.accepted_load >= low.accepted_load * 0.95,
        "a higher threshold should not hurt ADVG throughput much: {} vs {}",
        high.accepted_load,
        low.accepted_load
    );
    // Misrouting activity must increase with the threshold.
    assert!(
        high.global_misroute_fraction + high.local_misroute_fraction
            >= low.global_misroute_fraction + low.local_misroute_fraction,
        "higher threshold should misroute at least as much"
    );
}
