//! The decide-once-at-injection algorithm, written once: [`SourceRouted<D>`] — plus
//! Minimal routing, which never decides anything.
//!
//! Valiant and Piggybacking choose between the minimal and a Valiant path exactly
//! once, at the injection router, and never revisit the choice in transit; neither
//! misroutes locally, and both run on the 3/2 ladder.  The skeleton draws one
//! candidate intermediate group (before the policy looks at anything, so every
//! decision costs the same RNG draws), asks the [`SourceDecision`] what to commit to,
//! and otherwise follows whatever was committed.
//! [`Always`] (Valiant) takes the Valiant path through the candidate every time;
//! [`CongestionBoard`] (PB) when the minimal global channel is flagged congested and
//! the candidate's is not.

use crate::common::{
    ladder_vc_3_2, next_productive_port, productive_port, sample_intermediate_groups,
    valiant_update,
};
use dragonfly_rng::Rng;
use dragonfly_sim::{Packet, RouteChoice, RouteCtx, RouteUpdate, RouterView, RoutingAlgorithm};
use dragonfly_topology::{GroupId, Port};

/// Minimal routing: always follow the shortest path `l – g – l` with the ascending
/// 3/2 VC ladder (it only ever uses 2/1 of it).  The baseline for uniform traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimalRouting;

impl MinimalRouting {
    /// Create the mechanism.
    pub fn new() -> Self {
        Self
    }
}

impl RoutingAlgorithm for MinimalRouting {
    fn name(&self) -> &'static str {
        "Minimal"
    }

    fn required_local_vcs(&self) -> usize {
        2
    }

    fn required_global_vcs(&self) -> usize {
        1
    }

    fn route(
        &self,
        _ctx: &RouteCtx<'_>,
        packet: &Packet,
        view: &RouterView<'_>,
        _rng: &mut Rng,
    ) -> Option<RouteChoice> {
        let port = next_productive_port(view.params, view.router, packet);
        Some(RouteChoice::plain(port, ladder_vc_3_2(port, packet)))
    }
}

/// What distinguishes one source-routed mechanism from another: the decision taken at
/// the injection router.
pub trait SourceDecision: Send {
    /// Display name of the mechanism.
    const NAME: &'static str;

    /// The route-state commitment to make for `packet`, fresh at its injection router
    /// with productive hop `minimal_port`, given the drawn `candidate` intermediate
    /// group: an update that sets an intermediate group takes the Valiant path through
    /// it, any other update commits to the minimal path, `None` routes minimally this
    /// cycle without deciding.
    fn commit(
        &self,
        view: &RouterView<'_>,
        packet: &Packet,
        minimal_port: Port,
        candidate: Option<GroupId>,
    ) -> Option<RouteUpdate>;
}

/// A source-routed mechanism: the shared procedure (module docs) under decision `D`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceRouted<D> {
    decision: D,
}

impl<D: Default> SourceRouted<D> {
    /// Create the mechanism.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<D: SourceDecision> RoutingAlgorithm for SourceRouted<D> {
    fn name(&self) -> &'static str {
        D::NAME
    }

    fn required_local_vcs(&self) -> usize {
        3
    }

    fn required_global_vcs(&self) -> usize {
        2
    }

    fn route(
        &self,
        _ctx: &RouteCtx<'_>,
        packet: &Packet,
        view: &RouterView<'_>,
        rng: &mut Rng,
    ) -> Option<RouteChoice> {
        let params = view.params;
        let minimal_port = next_productive_port(params, view.router, packet);
        // Delivered locally: nothing to decide.
        if minimal_port.is_terminal() {
            return Some(RouteChoice::plain(minimal_port, 0));
        }
        // The source-routed decision is taken exactly once, at the injection router;
        // it is applied on grant, so an ungranted packet decides afresh next cycle.
        if !packet.route.source_decision_taken && packet.route.total_hops == 0 {
            let dst_group = params.group_of_node(packet.dst);
            let candidate =
                sample_intermediate_groups::<1>(params, view.group(), dst_group, rng).next();
            if let Some(update) = self.decision.commit(view, packet, minimal_port, candidate) {
                let port = match update.set_intermediate_group {
                    Some(ig) => productive_port(params, view.router, packet.dst, Some(ig)),
                    None => minimal_port,
                };
                return Some(RouteChoice {
                    port,
                    vc: ladder_vc_3_2(port, packet),
                    update,
                });
            }
        }
        // In transit: follow whatever was decided at the source.
        Some(RouteChoice::plain(
            minimal_port,
            ladder_vc_3_2(minimal_port, packet),
        ))
    }
}

/// The Valiant commitment of a source-routed mechanism through `ig`.
#[inline]
fn source_valiant(ig: GroupId) -> RouteUpdate {
    RouteUpdate {
        mark_source_decision: true,
        ..valiant_update(ig)
    }
}

/// Valiant's decision: every packet goes through the drawn group.  (When the draw
/// comes back empty the packet stays undecided and routes minimally this cycle.)
#[derive(Debug, Clone, Copy, Default)]
pub struct Always;

impl SourceDecision for Always {
    const NAME: &'static str = "Valiant";

    #[inline]
    fn commit(
        &self,
        _view: &RouterView<'_>,
        _packet: &Packet,
        _minimal_port: Port,
        candidate: Option<GroupId>,
    ) -> Option<RouteUpdate> {
        candidate.map(source_valiant)
    }
}

/// Piggybacking's decision (Jiang, Kim & Dally, ISCA 2009 — the paper's adaptive
/// baseline): every router of a group broadcasts one congestion bit per global
/// channel to the other routers of its group (the simulator keeps this board up to
/// date in [`dragonfly_sim::Network`]); the source router compares the flag of the
/// minimal global channel with the flag of the channel toward the candidate group.
#[derive(Debug, Clone, Copy, Default)]
pub struct CongestionBoard;

/// Occupancy fraction of the minimal *local* output above which Piggybacking diverts
/// group-local traffic, which has no global channel to read a flag from, onto a
/// Valiant path (the paper notes its PB implementation may misroute local traffic
/// globally).
const LOCAL_DIVERT_THRESHOLD: f64 = 0.3;

impl SourceDecision for CongestionBoard {
    const NAME: &'static str = "PB";

    #[inline]
    fn commit(
        &self,
        view: &RouterView<'_>,
        packet: &Packet,
        minimal_port: Port,
        candidate: Option<GroupId>,
    ) -> Option<RouteUpdate> {
        let params = view.params;
        let src_group = view.group();
        let dst_group = params.group_of_node(packet.dst);
        let flags = view.global_congested.unwrap_or(&[]);
        let congested = |toward: GroupId| {
            let channel = params.channel_to_group(src_group, toward);
            flags.get(channel).copied().unwrap_or(false)
        };
        let minimal_congested = if dst_group != src_group {
            congested(dst_group)
        } else {
            let occupancy = view.port_occupancy(minimal_port) as f64;
            let capacity = view.outputs[minimal_port.flat(params.h())].total_capacity() as f64;
            occupancy > LOCAL_DIVERT_THRESHOLD * capacity
        };
        Some(
            match candidate.filter(|&ig| minimal_congested && !congested(ig)) {
                Some(ig) => source_valiant(ig),
                None => RouteUpdate {
                    mark_source_decision: true,
                    ..RouteUpdate::default()
                },
            },
        )
    }
}

/// Valiant randomized routing: every packet is first sent minimally to a uniformly
/// random intermediate group (chosen at injection) and then minimally to its
/// destination.  The baseline for adversarial-global traffic.
pub type ValiantRouting = SourceRouted<Always>;
/// Piggybacking (PB): source-adaptive choice between the minimal and a Valiant path.
pub type Piggybacking = SourceRouted<CongestionBoard>;

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_sim::{SimConfig, Simulation};
    use dragonfly_traffic::{AdversarialGlobal, Uniform};

    fn un_sim<R: RoutingAlgorithm>(routing: R, seed: u64) -> Simulation<R> {
        Simulation::with_routing(
            SimConfig::paper_vct(2).with_seed(seed),
            routing,
            Box::new(Uniform::new()),
        )
    }

    #[test]
    fn minimal_never_misroutes_and_stays_within_three_hops() {
        let report = un_sim(MinimalRouting::new(), 42).run_steady_state(0.15, 2_000, 3_000, 4_000);
        assert!(report.avg_hops <= 3.0);
        assert_eq!(report.global_misroute_fraction, 0.0);
        assert_eq!(report.local_misroute_fraction, 0.0);
    }

    #[test]
    fn valiant_uniform_traffic_uses_longer_paths() {
        let report = un_sim(ValiantRouting::new(), 42).run_steady_state(0.1, 2_000, 3_000, 4_000);
        // Essentially every packet is globally misrouted under Valiant.
        assert!(
            report.global_misroute_fraction > 0.9,
            "{}",
            report.global_misroute_fraction
        );
        assert!(report.avg_hops > 2.0, "{}", report.avg_hops);
    }

    #[test]
    fn pb_uniform_traffic_mostly_minimal() {
        let report = un_sim(Piggybacking::new(), 4).run_steady_state(0.15, 2_000, 3_000, 4_000);
        // Uniform traffic at moderate load keeps global queues below the congestion
        // threshold, so PB rarely misroutes and behaves like minimal routing.
        assert!(
            report.global_misroute_fraction < 0.35,
            "PB misrouted {} of packets under UN",
            report.global_misroute_fraction
        );
        assert_eq!(report.local_misroute_fraction, 0.0);
    }

    #[test]
    fn pb_advg_tracks_valiant() {
        let config = SimConfig::paper_vct(2).with_seed(9);
        let adv = || Box::new(AdversarialGlobal::new(1));
        let pb = Simulation::with_routing(config.clone(), Piggybacking::new(), adv())
            .run_steady_state(0.4, 3_000, 4_000, 2_000);
        let valiant = Simulation::with_routing(config, ValiantRouting::new(), adv())
            .run_steady_state(0.4, 3_000, 4_000, 2_000);
        // PB adapts: it should deliver at least ~70% of pure Valiant under ADVG.
        assert!(
            pb.accepted_load > valiant.accepted_load * 0.7,
            "PB {} vs Valiant {}",
            pb.accepted_load,
            valiant.accepted_load
        );
        assert!(!pb.deadlock_detected);
    }
}
