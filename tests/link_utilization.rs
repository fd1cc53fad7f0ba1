//! Integration test: the link-utilization instrumentation exposes the ADVG+h
//! intermediate-group pathology that motivates local misrouting.
//!
//! Under ADVG+h with Valiant routing (global misrouting only), most Valiant paths
//! need one specific local hop inside their intermediate group, so a handful of local
//! links run near saturation while the average local link stays mostly idle.  With
//! OLM, local misrouting spreads that load over the other local links of the group.

use dragonfly::routing::{Olm, ValiantRouting};
use dragonfly::sim::{RoutingAlgorithm, SimConfig, Simulation};
use dragonfly::topology::{DragonflyParams, PortKind};
use dragonfly::traffic::AdversarialGlobal;

fn run_and_summarize<R: RoutingAlgorithm>(routing: R, h: usize) -> (f64, f64, f64) {
    let config = SimConfig::paper_vct(h).with_seed(3);
    let traffic = Box::new(AdversarialGlobal::new(h));
    let mut sim = Simulation::with_routing(config, routing, traffic);
    sim.network_mut()
        .set_injection(Some(dragonfly::traffic::BernoulliInjection::new(0.8, 8)));
    sim.run_cycles(6_000);
    let (max_local, mean_local) = sim.network().link_utilization_summary(PortKind::Local);
    let (_, mean_global) = sim.network().link_utilization_summary(PortKind::Global);
    (max_local, mean_local, mean_global)
}

#[test]
fn advg_h_concentrates_local_load_under_valiant_but_not_under_olm() {
    let h = 3;
    let (valiant_max, valiant_mean, valiant_global) = run_and_summarize(ValiantRouting::new(), h);
    let (olm_max, olm_mean, _) = run_and_summarize(Olm::default(), h);

    // Valiant: the hottest local link runs near saturation and carries far more than
    // the average local link (the paper's intermediate-group pathology).
    assert!(
        valiant_max > 0.8,
        "some local link should be near saturation under Valiant/ADVG+h, got {valiant_max:.3}"
    );
    assert!(
        valiant_max > valiant_mean * 2.0,
        "Valiant under ADVG+h should concentrate local load: max {valiant_max:.3} vs mean {valiant_mean:.3}"
    );
    // Global links are busy in both cases (this is global-heavy traffic).
    assert!(
        valiant_global > 0.05,
        "global links should carry load, got {valiant_global:.3}"
    );
    // OLM spreads the local load: its concentration ratio does not exceed Valiant's.
    let valiant_ratio = valiant_max / valiant_mean.max(1e-9);
    let olm_ratio = olm_max / olm_mean.max(1e-9);
    assert!(
        olm_ratio < valiant_ratio * 1.1,
        "OLM should balance local links at least as well as Valiant: {olm_ratio:.2} vs {valiant_ratio:.2}"
    );
}

#[test]
fn analytical_bounds_match_topology_analysis() {
    // Cross-check the static analysis module against the paper's formulas at several
    // scales.
    for h in [2usize, 4, 8] {
        let params = DragonflyParams::new(h);
        let bounds = params.throughput_bounds();
        assert!((bounds.advg_minimal - 1.0 / (2.0 * (h * h) as f64 + 1.0)).abs() < 1e-12);
        assert!((bounds.advl_minimal - 1.0 / h as f64).abs() < 1e-12);
        // The ADVG+h pathology exists (few no-hop intermediate groups), the ADVG+1 one
        // does not.
        assert!(params.valiant_no_local_hop_fraction(h) < params.valiant_no_local_hop_fraction(1));
    }
}
