//! The benchmark's whole view of the simulator.
//!
//! Every name the benchmark takes from the `dragonfly` facade is imported
//! here and nowhere else, so this file *is* the list of public API the ledger
//! depends on (README.md, "API surface").  A refactor of the simulator keeps
//! the ledger alive by keeping this one file compiling.
//!
//! None of ROADMAP item 2's deletion candidates appear: no `*_dyn` run, no
//! `run_*_probed*` / `run_*_sharded` spec variant, no `FixedRing`, no
//! `RunningStats`, no `link.rs` type.

// Experiment description and the sweep layer (`core`).
pub use dragonfly::core::sweep::default_loads;
pub use dragonfly::core::{
    load_sweep, AdaptiveParams, ExperimentSpec, FlowControlKind, LoadSweep, ProbeConfig,
    RoutingKind, ShardPlan, ShardedSimulation, SweepRunner, TrafficKind,
};
// Static dispatch from a runtime `RoutingKind` to the concrete mechanism.
pub use dragonfly::routing::RoutingVisitor;
// The engine: protocols, the per-phase step hook, report construction.
pub use dragonfly::sim::{
    sim_report, Network, RouteCtx, RouterView, RoutingAlgorithm, SimRunIdentity, Simulation,
};
// Primitives timed by the layer microbenches.
pub use dragonfly::probe::SampleSnapshot;
pub use dragonfly::rng::Rng;
pub use dragonfly::sim::{ActiveSet, Packet, PacketArena, PacketId, RingMeta};
pub use dragonfly::stats::{BatchReport, ExactStats, Histogram, SimReport};
pub use dragonfly::topology::{DragonflyParams, NodeId, Port, RouterId};
pub use dragonfly::traffic::{
    AdversarialGlobal, AdversarialLocal, BernoulliInjection, BurstSpec, TrafficPattern, Uniform,
};

/// The adaptive parameters a spec implies (only the threshold is configurable).
pub fn adaptive_params(spec: &ExperimentSpec) -> AdaptiveParams {
    AdaptiveParams::with_threshold(spec.threshold)
}

/// Build the monomorphized sequential engine for `spec` — what
/// `ExperimentSpec::run` builds internally for plain (non-workload) traffic.
pub fn build_engine<R: RoutingAlgorithm>(spec: &ExperimentSpec, routing: R) -> Simulation<R> {
    let config = spec.sim_config();
    let traffic = spec.traffic.build(&config.params);
    Simulation::with_routing(config, routing, traffic)
}

/// Build the sharded twin engine for `spec` with `shards` shards.
pub fn build_sharded<R: RoutingAlgorithm + Clone>(
    spec: &ExperimentSpec,
    routing: R,
    shards: usize,
) -> ShardedSimulation<R> {
    let config = spec.sim_config();
    let params = config.params;
    ShardedSimulation::new(config, ShardPlan::new(shards), routing, || {
        spec.traffic.build(&params)
    })
}

/// Phits transmitted on every link of `net` so far (Σ `link_phits`).
pub fn phit_hops<R: RoutingAlgorithm>(net: &Network<R>) -> u64 {
    let params = net.params();
    let ports = params.ports_per_router();
    (0..params.num_routers())
        .map(|r| (0..ports).map(|p| net.link_phits(r, p)).sum::<u64>())
        .sum()
}
