//! Restricted Local Misrouting (RLM) — first contribution of the paper.
//!
//! RLM keeps the baseline 3 local / 2 global virtual channels.  Both local hops taken
//! inside one group share the *same* local VC, so the ascending-VC argument alone no
//! longer rules out cycles among the local channels of a group; instead RLM forbids
//! the 2-hop combinations of the parity-sign table (Table I), which makes intra-group
//! cyclic dependencies impossible by construction.  Because no cycle can ever form,
//! RLM is safe under both Virtual Cut-Through and Wormhole flow control.
//!
//! As a [`MisroutePolicy`] that is the whole difference from PAR-6/2: the 3/2 ladder
//! instead of 6/2, and a legality check on every local hop that follows another.

use crate::common::local_vc_3_2;
use crate::in_transit::{InTransit, MisroutePolicy};
use crate::parity_sign::{LinkClass, ParitySignTable};
use dragonfly_sim::{Packet, RouteState, RouterView};
use dragonfly_topology::GroupId;

/// RLM's misroute policy: any local hop pair must be allowed by the parity-sign
/// table (paper Section III, Table I).
#[derive(Debug, Clone, Default)]
pub struct RlmPolicy {
    table: ParitySignTable,
}

impl MisroutePolicy for RlmPolicy {
    const NAME: &'static str = "RLM";
    const LOCAL_VCS: usize = 3;
    const WHOLE_PACKET_DETOURS: bool = false;

    #[inline]
    fn local_vc(route: &RouteState) -> u8 {
        local_vc_3_2(route)
    }

    /// Both local hops of a group share one VC, so the second must be a combination
    /// the table allows after the first.
    #[inline]
    fn may_follow(&self, packet: &Packet, from: usize, to: usize) -> bool {
        match packet.route.last_local_class {
            None => true,
            Some(code) => self
                .table
                .allowed(LinkClass::from_code(code), LinkClass::of_hop(from, to)),
        }
    }

    #[inline]
    fn link_class(from: usize, to: usize) -> Option<u8> {
        Some(LinkClass::of_hop(from, to).code())
    }

    /// The whole 2-hop detour `cur → k → to` must be an allowed combination, and it
    /// must also compose with any previous local hop of this group (which cannot
    /// exist here, but the check is kept for robustness).
    #[inline]
    fn local_detour_vc(
        &self,
        _view: &RouterView<'_>,
        packet: &Packet,
        cur: usize,
        k: usize,
        to: usize,
    ) -> Option<u8> {
        (self.table.path_allowed(cur, k, to) && self.may_follow(packet, cur, k))
            .then(|| local_vc_3_2(&packet.route))
    }

    /// The local hop of an indirect global detour is itself a local hop of this group
    /// and must respect the restriction too.
    #[inline]
    fn indirect_global_vc(
        &self,
        _view: &RouterView<'_>,
        packet: &Packet,
        cur: usize,
        to: usize,
        _ig: GroupId,
    ) -> Option<u8> {
        self.may_follow(packet, cur, to)
            .then(|| local_vc_3_2(&packet.route))
    }
}

/// The RLM mechanism.
pub type Rlm = InTransit<RlmPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_routed::{Piggybacking, ValiantRouting};
    use dragonfly_sim::{SimConfig, Simulation};
    use dragonfly_traffic::{AdversarialGlobal, AdversarialLocal, Uniform};

    fn rlm_sim(
        config: SimConfig,
        traffic: Box<dyn dragonfly_traffic::TrafficPattern>,
    ) -> Simulation<Rlm> {
        Simulation::with_routing(config, Rlm::default(), traffic)
    }

    #[test]
    fn pair_check_uses_previous_class() {
        let r = RlmPolicy::default();
        assert_eq!(r.table.rows().len(), 16);
        let mut p = dragonfly_sim::Packet::new(
            dragonfly_sim::PacketId(0),
            dragonfly_topology::NodeId(0),
            dragonfly_topology::NodeId(100),
            8,
            0,
        );
        assert!(r.may_follow(&p, 5, 1));
        // Previous hop even- (e.g. 7 -> 5); next hop 5 -> 0 is odd-, which Table I
        // forbids after even-.
        p.route.last_local_class = Some(LinkClass::of_hop(7, 5).code());
        assert!(!r.may_follow(&p, 5, 0));
        // 5 -> 2 is odd-, still forbidden; 5 -> 7 is even+, also forbidden after even-;
        // 5 -> 3 is even-, allowed (same class).
        assert!(!r.may_follow(&p, 5, 2));
        assert!(!r.may_follow(&p, 5, 7));
        assert!(r.may_follow(&p, 5, 3));
    }

    #[test]
    fn advl_traffic_exploits_local_misrouting() {
        let mut sim = rlm_sim(
            SimConfig::paper_vct(2).with_seed(23),
            Box::new(AdversarialLocal::new(1)),
        );
        let report = sim.run_steady_state(0.9, 3_000, 4_000, 2_000);
        assert!(!report.deadlock_detected);
        assert!(
            report.accepted_load > 0.5,
            "RLM should beat the 1/h bound under ADVL+1, got {}",
            report.accepted_load
        );
    }

    #[test]
    fn advg_plus_h_beats_valiant_thanks_to_local_misrouting() {
        let h = 2;
        let adv = || Box::new(AdversarialGlobal::new(h));
        let mut rlm = rlm_sim(SimConfig::paper_vct(h).with_seed(29), adv());
        let rlm_report = rlm.run_steady_state(0.6, 3_000, 5_000, 2_000);
        let mut valiant = Simulation::with_routing(
            SimConfig::paper_vct(h).with_seed(29),
            ValiantRouting::new(),
            adv(),
        );
        let valiant_report = valiant.run_steady_state(0.6, 3_000, 5_000, 2_000);
        assert!(!rlm_report.deadlock_detected);
        assert!(
            rlm_report.accepted_load >= valiant_report.accepted_load * 0.95,
            "RLM {} should not lose to Valiant {} under ADVG+h",
            rlm_report.accepted_load,
            valiant_report.accepted_load
        );
    }

    #[test]
    fn wormhole_advg_runs_deadlock_free() {
        // The key property of RLM versus OLM: it remains deadlock-free under Wormhole.
        let mut sim = rlm_sim(
            SimConfig::paper_wormhole(2).with_seed(31),
            Box::new(AdversarialGlobal::new(1)),
        );
        let report = sim.run_steady_state(0.3, 3_000, 4_000, 6_000);
        assert!(
            !report.deadlock_detected,
            "RLM must never deadlock under WH"
        );
        assert!(report.packets_measured > 20);
    }

    #[test]
    fn pb_comparison_under_uniform_is_close() {
        let config = SimConfig::paper_vct(2).with_seed(37);
        let uniform = || Box::new(Uniform::new());
        let rlm = Simulation::with_routing(config.clone(), Rlm::default(), uniform())
            .run_steady_state(0.4, 2_000, 3_000, 3_000);
        let pb = Simulation::with_routing(config, Piggybacking::new(), uniform())
            .run_steady_state(0.4, 2_000, 3_000, 3_000);
        // Under uniform traffic at moderate load both should accept close to the
        // offered load; RLM must not collapse.
        assert!(rlm.accepted_load > pb.accepted_load * 0.85);
    }
}
