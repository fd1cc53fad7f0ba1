//! Deadlock-free routing mechanisms for Dragonfly networks.
//!
//! The paper evaluates seven mechanisms but only two routing *algorithms*; the crate
//! is written the same way.  Each algorithm is one generic skeleton, statically
//! dispatched over a small policy that states only what the paper says differs:
//! [`InTransit<P>`] re-decides at every router (productive hop → local detours →
//! global detours → stall), [`SourceRouted<D>`] decides once at injection.
//!
//! | Mechanism | Skeleton · policy | VCs (l/g) | Productive local VC | Local detour `cur → k → to` | Non-productive local hop claims | Flow control | Paper |
//! |-----------|-------------------|-----------|---------------------|------------------------------|---------------------------------|--------------|-------|
//! | [`MinimalRouting`] | own `route()` | 2/1 (fits 3/2) | global hops | never | — | VCT, WH | §II |
//! | [`ValiantRouting`] | [`SourceRouted`] · [`source_routed::Always`] | 3/2 | global hops | never | — | VCT, WH | §II |
//! | [`Piggybacking`] | [`SourceRouted`] · [`source_routed::CongestionBoard`] | 3/2 | global hops | never | — | VCT, WH | §II |
//! | [`Par`] | [`InTransit`] · [`in_transit::ParPolicy`] | 4/2 | `l1 l2 g1 l3 g2 l4` | never | flow control | VCT, WH | §II |
//! | [`Par62`] | [`InTransit`] · [`in_transit::Par62Policy`] | 6/2 | 2·global hops + local hops | any `k`, the ladder's next VC | flow control | VCT, WH | §III |
//! | [`Rlm`] | [`InTransit`] · [`rlm::RlmPolicy`] | 3/2 | global hops | `k` allowed by the parity-sign table, same VC | flow control | VCT, WH | §III |
//! | [`Olm`] | [`InTransit`] · [`olm::OlmPolicy`] | 3/2 | global hops | any `k`, highest VC below the escape path from `k` | whole packet | VCT only | §III |
//!
//! The two contributions of the paper are [`Rlm`] (Restricted Local Misrouting, built
//! on the parity-sign table of [`parity_sign`]) and [`Olm`] (Opportunistic Local
//! Misrouting, built on ascending escape paths): they keep PAR-6/2's routing freedom
//! and change *only* the rule that keeps local misrouting deadlock-free, which is
//! exactly what their [`MisroutePolicy`] impls say.  What no policy gets to choose
//! (trigger, eligibility, productive hop, global VCs) is in [`common`].

pub mod common;
pub mod in_transit;
pub mod olm;
pub mod parity_sign;
pub mod rlm;
pub mod source_routed;

pub use common::{AdaptiveParams, MisroutingTrigger};
pub use in_transit::{InTransit, MisroutePolicy, Par, Par62};
pub use olm::Olm;
pub use parity_sign::{LinkClass, ParitySignTable};
pub use rlm::Rlm;
pub use source_routed::{
    MinimalRouting, Piggybacking, SourceDecision, SourceRouted, ValiantRouting,
};

use dragonfly_sim::{FlowControl, RoutingAlgorithm};

/// A generic visitor over the concrete mechanism type behind a [`RoutingKind`].
///
/// [`RoutingKind::dispatch`] turns a runtime mechanism selection into a call of
/// [`RoutingVisitor::visit`] with the *concrete* mechanism type, so callers can build
/// monomorphized engines (`Network<Olm>`, `Simulation<Rlm>`, ...) from a runtime
/// `RoutingKind`: every engine is built over a concrete mechanism.
pub trait RoutingVisitor {
    /// Result produced by the visit.
    type Output;

    /// Called with the instantiated concrete mechanism.  Mechanisms are
    /// `Clone` so that visitors can replicate them — the sharded engine builds
    /// one instance per shard from a single dispatch.
    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Self::Output;
}

/// Enumeration of every routing mechanism in the crate, used by the experiment
/// harness and the figure-regeneration binaries to select mechanisms by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Minimal routing.
    Minimal,
    /// Valiant randomized routing.
    Valiant,
    /// Piggybacking (indirect adaptive, source-routed).
    Piggybacking,
    /// PAR with 4 local VCs (global misrouting only, no local misrouting).
    Par,
    /// PAR-6/2 (naïve reference with 6 local VCs).
    Par62,
    /// Restricted Local Misrouting.
    Rlm,
    /// Opportunistic Local Misrouting.
    Olm,
}

impl RoutingKind {
    /// All mechanisms, in the order used by the paper's figures.
    pub const ALL: [RoutingKind; 7] = [
        RoutingKind::Par62,
        RoutingKind::Olm,
        RoutingKind::Rlm,
        RoutingKind::Minimal,
        RoutingKind::Valiant,
        RoutingKind::Piggybacking,
        RoutingKind::Par,
    ];

    /// Short display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        self.facts().name
    }

    /// Parse a (case-insensitive) mechanism name.
    pub fn parse(name: &str) -> Option<RoutingKind> {
        match name.to_ascii_lowercase().as_str() {
            "minimal" | "min" => Some(RoutingKind::Minimal),
            "valiant" | "val" => Some(RoutingKind::Valiant),
            "pb" | "piggyback" | "piggybacking" => Some(RoutingKind::Piggybacking),
            "par" | "par-4/2" | "par42" => Some(RoutingKind::Par),
            "par-6/2" | "par62" => Some(RoutingKind::Par62),
            "rlm" => Some(RoutingKind::Rlm),
            "olm" => Some(RoutingKind::Olm),
            _ => None,
        }
    }

    /// Number of local VCs to build the network with: what the mechanism requires, but
    /// never fewer than the paper's baseline router has.
    pub fn local_vcs(self) -> usize {
        self.facts().local_vcs.max(BASELINE_LOCAL_VCS)
    }

    /// Whether the mechanism is safe under Wormhole flow control.
    pub fn supports_wormhole(self) -> bool {
        self.facts().wormhole
    }

    /// Instantiate the mechanism as its *concrete* type and hand it to `visitor`.
    ///
    /// This is the crate's one table from kind to mechanism.  The visitor's generic
    /// `visit` is called with the concrete mechanism, letting the simulation engine
    /// statically dispatch the per-cycle routing call.
    pub fn dispatch<V: RoutingVisitor>(self, params: AdaptiveParams, visitor: V) -> V::Output {
        match self {
            RoutingKind::Minimal => visitor.visit(MinimalRouting::new()),
            RoutingKind::Valiant => visitor.visit(ValiantRouting::new()),
            RoutingKind::Piggybacking => visitor.visit(Piggybacking::new()),
            RoutingKind::Par => visitor.visit(Par::new(params)),
            RoutingKind::Par62 => visitor.visit(Par62::new(params)),
            RoutingKind::Rlm => visitor.visit(Rlm::new(params)),
            RoutingKind::Olm => visitor.visit(Olm::new(params)),
        }
    }

    /// Read the facts off the mechanism behind this kind, so that the kind's metadata
    /// *is* the mechanism's (its policy constants) rather than a copy of it.
    fn facts(self) -> Facts {
        struct Read;
        impl RoutingVisitor for Read {
            type Output = Facts;
            fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Facts {
                Facts {
                    name: routing.name(),
                    local_vcs: routing.required_local_vcs(),
                    wormhole: routing
                        .supports_flow_control(FlowControl::Wormhole { flit_size: 10 }),
                }
            }
        }
        self.dispatch(AdaptiveParams::default(), Read)
    }
}

/// What [`RoutingKind`] reads off its mechanism.
struct Facts {
    name: &'static str,
    local_vcs: usize,
    wormhole: bool,
}

/// Local VCs of the paper's baseline router (3 local / 2 global).
const BASELINE_LOCAL_VCS: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_sim::{SimConfig, Simulation};
    use dragonfly_traffic::{AdversarialGlobal, TrafficPattern, Uniform};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::OnceLock;

    /// What the paper says about each mechanism, stated independently of the code
    /// that implements it.
    struct Expected {
        kind: RoutingKind,
        name: &'static str,
        /// Required local / global VCs.
        vcs: (usize, usize),
        wormhole: bool,
        /// Reads the piggybacking board (PB's source decision only).
        reads_board: bool,
        /// Below-saturation uniform load and seed for the delivery check.
        uniform: (f64, u64),
    }

    const fn expect(
        kind: RoutingKind,
        name: &'static str,
        vcs: (usize, usize),
        wormhole: bool,
        uniform: (f64, u64),
    ) -> Expected {
        Expected {
            kind,
            name,
            vcs,
            wormhole,
            reads_board: matches!(kind, RoutingKind::Piggybacking),
            uniform,
        }
    }

    /// One row per mechanism, in [`RoutingKind::ALL`] order.
    const EXPECTED: [Expected; 7] = [
        expect(RoutingKind::Par62, "PAR-6/2", (6, 2), true, (0.3, 3)),
        expect(RoutingKind::Olm, "OLM", (3, 2), false, (0.3, 3)),
        expect(RoutingKind::Rlm, "RLM", (3, 2), true, (0.3, 3)),
        expect(RoutingKind::Minimal, "Minimal", (2, 1), true, (0.15, 42)),
        expect(RoutingKind::Valiant, "Valiant", (3, 2), true, (0.1, 42)),
        expect(RoutingKind::Piggybacking, "PB", (3, 2), true, (0.15, 4)),
        expect(RoutingKind::Par, "PAR", (4, 2), true, (0.3, 3)),
    ];

    /// The report fields the checks below read.
    struct Outcome {
        deadlock_detected: bool,
        accepted_load: f64,
        avg_hops: f64,
        packets_measured: u64,
        global_misroute_fraction: f64,
    }

    /// Build the monomorphized engine of `kind` and run the steady-state protocol
    /// `(load, warmup, measure, drain)` on it, returning the constructor's panic
    /// message if it refuses.
    fn try_run(
        kind: RoutingKind,
        config: SimConfig,
        traffic: Box<dyn TrafficPattern>,
        window: (f64, u64, u64, u64),
    ) -> Result<Outcome, String> {
        struct Run(SimConfig, Box<dyn TrafficPattern>, (f64, u64, u64, u64));
        impl RoutingVisitor for Run {
            type Output = Result<Outcome, String>;
            fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> Self::Output {
                let Run(config, traffic, (load, warmup, measure, drain)) = self;
                let build = || Simulation::with_routing(config, routing, traffic);
                let mut sim = catch_unwind(AssertUnwindSafe(build)).map_err(|payload| {
                    let message = payload.downcast_ref::<String>().cloned();
                    message.unwrap_or_else(|| "non-string panic".to_string())
                })?;
                let report = sim.run_steady_state(load, warmup, measure, drain);
                Ok(Outcome {
                    deadlock_detected: report.deadlock_detected,
                    accepted_load: report.accepted_load,
                    avg_hops: report.avg_hops,
                    packets_measured: report.packets_measured,
                    global_misroute_fraction: report.global_misroute_fraction,
                })
            }
        }
        kind.dispatch(AdaptiveParams::default(), Run(config, traffic, window))
    }

    fn metadata_matches_the_paper(e: &Expected) {
        /// `(name, VCs, VCT, wormhole, reads the board)` off the mechanism.
        struct Read;
        impl RoutingVisitor for Read {
            type Output = (&'static str, (usize, usize), bool, bool, bool);
            fn visit<R: RoutingAlgorithm + Clone + 'static>(self, m: R) -> Self::Output {
                let vcs = (m.required_local_vcs(), m.required_global_vcs());
                let wormhole = FlowControl::Wormhole { flit_size: 10 };
                let vct = m.supports_flow_control(FlowControl::Vct);
                let wh = m.supports_flow_control(wormhole);
                (m.name(), vcs, vct, wh, R::READS_GLOBAL_BOARD)
            }
        }
        let (name, vcs, vct, wh, reads_board) = e.kind.dispatch(AdaptiveParams::default(), Read);
        assert_eq!(e.kind.name(), e.name);
        assert_eq!(name, e.name);
        assert_eq!(vcs, e.vcs);
        assert_eq!(e.kind.local_vcs(), e.vcs.0.max(3));
        assert!(vct);
        assert_eq!(wh, e.wormhole);
        assert_eq!(e.kind.supports_wormhole(), e.wormhole);
        assert_eq!(reads_board, e.reads_board);
    }

    fn too_few_local_vcs_are_rejected(e: &Expected) {
        let config = SimConfig::paper_vct(2).with_local_vcs(e.vcs.0 - 1);
        let refusal = try_run(e.kind, config, Box::new(Uniform::new()), (0.0, 0, 0, 0))
            .err()
            .unwrap_or_default();
        let wanted = format!("requires {} local VCs", e.vcs.0);
        assert!(refusal.contains(&wanted), "`{refusal}`");
    }

    fn uniform_vct_delivers_without_deadlock(e: &Expected) {
        let (load, seed) = e.uniform;
        let config = SimConfig::paper_vct(2)
            .with_local_vcs(e.kind.local_vcs())
            .with_seed(seed);
        let window = (load, 2_000, 3_000, 4_000);
        let report = try_run(e.kind, config, Box::new(Uniform::new()), window).unwrap();
        assert!(!report.deadlock_detected);
        assert!(
            (report.accepted_load - load).abs() < (0.2 * load).max(0.04),
            "accepted {} of {load}",
            report.accepted_load
        );
        assert!(report.avg_hops <= 8.0);
    }

    fn wormhole_is_supported_or_refused(e: &Expected) {
        let config = SimConfig::paper_wormhole(2)
            .with_local_vcs(e.kind.local_vcs())
            .with_seed(13);
        let window = (0.1, 2_000, 3_000, 6_000);
        match try_run(e.kind, config, Box::new(Uniform::new()), window) {
            Ok(report) => {
                assert!(e.wormhole, "must refuse Wormhole");
                assert!(!report.deadlock_detected);
                assert!(report.packets_measured > 20);
            }
            Err(refusal) => {
                assert!(!e.wormhole, "`{refusal}`");
                assert!(refusal.contains("does not support"), "`{refusal}`");
            }
        }
    }

    /// Accepted load and globally misrouted fraction under ADVG+1 at load 0.4.
    fn advg_run(kind: RoutingKind) -> (f64, f64) {
        let config = SimConfig::paper_vct(2)
            .with_local_vcs(kind.local_vcs())
            .with_seed(7);
        let traffic = Box::new(AdversarialGlobal::new(1));
        let report = try_run(kind, config, traffic, (0.4, 3_000, 4_000, 2_000)).unwrap();
        assert!(!report.deadlock_detected, "{}", kind.name());
        (report.accepted_load, report.global_misroute_fraction)
    }

    /// The defining property of global misrouting: under adversarial-global traffic
    /// it sustains much more throughput than the single minimal link.
    fn advg_beats_minimal(e: &Expected) {
        static MINIMAL: OnceLock<(f64, f64)> = OnceLock::new();
        let minimal = *MINIMAL.get_or_init(|| advg_run(RoutingKind::Minimal));
        assert_eq!(minimal.1, 0.0, "Minimal never misroutes");
        if e.kind == RoutingKind::Minimal {
            return;
        }
        let (accepted, misrouted) = advg_run(e.kind);
        assert!(
            accepted > minimal.0 * 1.5 && accepted > 0.2,
            "{accepted} vs minimal {}",
            minimal.0
        );
        assert!(misrouted > 0.4, "misrouted only {misrouted}");
    }

    /// Instantiate the shared checks once per row of [`EXPECTED`], so a failure
    /// names its mechanism.
    macro_rules! per_mechanism {
        ($($mechanism:ident => $row:expr),* $(,)?) => {$(
            mod $mechanism {
                use super::EXPECTED;

                #[test]
                fn metadata_matches_the_paper() {
                    super::metadata_matches_the_paper(&EXPECTED[$row]);
                }

                #[test]
                fn too_few_local_vcs_are_rejected() {
                    super::too_few_local_vcs_are_rejected(&EXPECTED[$row]);
                }

                #[test]
                fn uniform_vct_delivers_without_deadlock() {
                    super::uniform_vct_delivers_without_deadlock(&EXPECTED[$row]);
                }

                #[test]
                fn wormhole_is_supported_or_refused() {
                    super::wormhole_is_supported_or_refused(&EXPECTED[$row]);
                }

                #[test]
                fn advg_beats_minimal() {
                    super::advg_beats_minimal(&EXPECTED[$row]);
                }
            }
        )*};
    }

    per_mechanism!(par62 => 0, olm => 1, rlm => 2, minimal => 3, valiant => 4, pb => 5, par => 6);

    #[test]
    fn expectations_cover_all_in_figure_order() {
        let kinds: Vec<RoutingKind> = EXPECTED.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, RoutingKind::ALL);
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in RoutingKind::ALL {
            assert_eq!(RoutingKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(RoutingKind::parse("olm"), Some(RoutingKind::Olm));
        assert_eq!(RoutingKind::parse("nonsense"), None);
    }
}
