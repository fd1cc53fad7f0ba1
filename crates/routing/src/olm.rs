//! Opportunistic Local Misrouting (OLM) — second contribution of the paper.
//!
//! OLM also keeps the baseline 3/2 virtual channels but, unlike RLM, it does not
//! restrict which local detours are legal.  Cyclic dependencies may therefore appear;
//! deadlock is avoided because every packet always keeps a deadlock-free *escape
//! path*: from wherever it sits it can still reach its destination using virtual
//! channels in strictly ascending order.  To preserve that property a local detour is
//! only taken *opportunistically*, when
//!
//! 1. the target buffer can hold the **whole packet** (hence the VCT requirement), and
//! 2. the local VC used for the detour is strictly below every VC of the escape path
//!    from the detour target, so the escape ladder remains intact.
//!
//! Productive hops (minimal, or toward the committed Valiant group) use the ascending
//! ladder `lVC_k / gVC_k` indexed by the number of global hops taken, exactly as in
//! the paper's Figure 3.

use crate::common::{ladder_vc_3_2, local_vc_3_2, pending_intermediate, productive_port};
use crate::in_transit::{InTransit, MisroutePolicy};
use dragonfly_sim::{Packet, RouteState, RouterView};
use dragonfly_topology::{GroupId, Port};

/// OLM's misroute policy: any detour whose VC keeps the escape ladder ascending, taken
/// only when the whole packet fits (paper Section III, Figure 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct OlmPolicy;

impl OlmPolicy {
    /// Ladder position of a (port-class, VC) pair in the combined ascending order
    /// `lVC0 < gVC0 < lVC1 < gVC1 < lVC2`.
    fn ladder_position(port: Port, vc: u8) -> u8 {
        match port {
            Port::Local(_) => 2 * vc,
            Port::Global(_) => 2 * vc + 1,
            Port::Terminal(_) => u8::MAX,
        }
    }

    /// The highest local VC usable for a non-productive hop landing at in-group router
    /// `at`, or `None` if no VC keeps the escape ladder strictly ascending.  The escape
    /// path from `at` starts with the packet's productive hop there — toward group
    /// `via` when given, the destination otherwise — in ascending-ladder VCs.
    #[inline]
    fn best_detour_vc(
        view: &RouterView<'_>,
        packet: &Packet,
        at: usize,
        via: Option<GroupId>,
    ) -> Option<u8> {
        let at = view.params.router_in_group(view.group(), at);
        let port = productive_port(view.params, at, packet.dst, via);
        let escape = Self::ladder_position(port, ladder_vc_3_2(port, packet));
        let max_local = (view.config.local_vcs - 1) as u8;
        // lVC_j has ladder position 2j; it must stay strictly below the escape hop.
        (0..=max_local).rev().find(|&j| 2 * j < escape)
    }
}

impl MisroutePolicy for OlmPolicy {
    const NAME: &'static str = "OLM";
    const LOCAL_VCS: usize = 3;
    /// OLM relies on whole-packet buffering for its opportunistic detours, so it is
    /// only safe under Virtual Cut-Through.
    const WHOLE_PACKET_DETOURS: bool = true;

    /// Productive hops are the escape path: `lVC_k` after `k` global hops (Figure 3).
    #[inline]
    fn local_vc(route: &RouteState) -> u8 {
        local_vc_3_2(route)
    }

    /// Any detour router is acceptable as long as a VC below its escape path exists.
    #[inline]
    fn local_detour_vc(
        &self,
        view: &RouterView<'_>,
        packet: &Packet,
        _cur: usize,
        k: usize,
        _to: usize,
    ) -> Option<u8> {
        Self::best_detour_vc(view, packet, k, pending_intermediate(packet))
    }

    /// The escape from the detour target is the global hop of the Valiant path being
    /// committed to.
    #[inline]
    fn indirect_global_vc(
        &self,
        view: &RouterView<'_>,
        packet: &Packet,
        _cur: usize,
        to: usize,
        ig: GroupId,
    ) -> Option<u8> {
        Self::best_detour_vc(view, packet, to, Some(ig))
    }
}

/// The OLM mechanism.
pub type Olm = InTransit<OlmPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_routed::{Piggybacking, ValiantRouting};
    use dragonfly_sim::{SimConfig, Simulation};
    use dragonfly_traffic::{AdversarialGlobal, AdversarialLocal, MixedGlobalLocal};

    fn olm_sim(
        config: SimConfig,
        traffic: Box<dyn dragonfly_traffic::TrafficPattern>,
    ) -> Simulation<Olm> {
        Simulation::with_routing(config, Olm::default(), traffic)
    }

    #[test]
    fn ladder_positions_follow_paper_order() {
        // lVC0 < gVC0 < lVC1 < gVC1 < lVC2
        assert_eq!(OlmPolicy::ladder_position(Port::Local(0), 0), 0);
        assert_eq!(OlmPolicy::ladder_position(Port::Global(0), 0), 1);
        assert_eq!(OlmPolicy::ladder_position(Port::Local(0), 1), 2);
        assert_eq!(OlmPolicy::ladder_position(Port::Global(0), 1), 3);
        assert_eq!(OlmPolicy::ladder_position(Port::Local(0), 2), 4);
    }

    #[test]
    fn advl_traffic_beats_one_over_h() {
        let mut sim = olm_sim(
            SimConfig::paper_vct(2).with_seed(23),
            Box::new(AdversarialLocal::new(1)),
        );
        let report = sim.run_steady_state(0.9, 3_000, 4_000, 2_000);
        assert!(!report.deadlock_detected);
        assert!(
            report.accepted_load > 0.5,
            "OLM should beat the 1/h bound under ADVL+1, got {}",
            report.accepted_load
        );
        assert!(report.local_misroute_fraction + report.global_misroute_fraction > 0.05);
    }

    #[test]
    fn advg_plus_h_competitive_with_valiant() {
        let h = 2;
        let adv = || Box::new(AdversarialGlobal::new(h));
        let mut olm = olm_sim(SimConfig::paper_vct(h).with_seed(29), adv());
        let olm_report = olm.run_steady_state(0.6, 3_000, 5_000, 2_000);
        let mut valiant = Simulation::with_routing(
            SimConfig::paper_vct(h).with_seed(29),
            ValiantRouting::new(),
            adv(),
        );
        let valiant_report = valiant.run_steady_state(0.6, 3_000, 5_000, 2_000);
        assert!(!olm_report.deadlock_detected);
        assert!(
            olm_report.accepted_load >= valiant_report.accepted_load * 0.95,
            "OLM {} should not lose to Valiant {} under ADVG+h",
            olm_report.accepted_load,
            valiant_report.accepted_load
        );
    }

    #[test]
    fn mixed_traffic_beats_piggybacking() {
        // Figure 6a of the paper: under the ADVG+h / ADVL+1 mix the mechanisms with
        // local misrouting clearly beat PB.
        let config = SimConfig::paper_vct(2).with_seed(31);
        let mix = || Box::new(MixedGlobalLocal::new(0.5, 2, 1));
        let olm = Simulation::with_routing(config.clone(), Olm::default(), mix())
            .run_steady_state(0.9, 3_000, 4_000, 2_000);
        let pb = Simulation::with_routing(config, Piggybacking::new(), mix())
            .run_steady_state(0.9, 3_000, 4_000, 2_000);
        assert!(
            olm.accepted_load > pb.accepted_load,
            "OLM {} should beat PB {} on the mixed pattern",
            olm.accepted_load,
            pb.accepted_load
        );
        assert!(!olm.deadlock_detected);
    }

    #[test]
    fn heavy_adversarial_load_never_deadlocks() {
        // Cyclic dependencies can form under OLM; the escape path must prevent any
        // actual deadlock even at saturation.
        let mut sim = olm_sim(
            SimConfig::paper_vct(2).with_seed(41),
            Box::new(AdversarialGlobal::new(2)),
        );
        let report = sim.run_steady_state(1.0, 4_000, 6_000, 2_000);
        assert!(
            !report.deadlock_detected,
            "OLM must not deadlock at saturation"
        );
        assert!(report.accepted_load > 0.1);
    }
}
