//! # dragonfly
//!
//! Umbrella crate for the reproduction of *"Efficient Routing Mechanisms for Dragonfly
//! Networks"* (García, Vallejo, Beivide, Odriozola, Valero — ICPP 2013).
//!
//! The workspace implements, from scratch:
//!
//! * the balanced maximum-size Dragonfly topology ([`topology`]),
//! * a cycle-accurate phit-level network simulator with Virtual Cut-Through and
//!   Wormhole flow control ([`sim`]),
//! * the seven routing mechanisms evaluated in the paper — Minimal, Valiant,
//!   Piggybacking, PAR, PAR-6/2, Restricted Local Misrouting (RLM) and Opportunistic
//!   Local Misrouting (OLM) ([`routing`]),
//! * the synthetic traffic patterns of the evaluation ([`traffic`]),
//! * and a high-level experiment harness that regenerates every figure and table of
//!   the paper ([`core`]).
//!
//! Most users should start from [`core::ExperimentSpec`] or from the examples in
//! `examples/`.
//!
//! ```
//! use dragonfly::core::{ExperimentSpec, RoutingKind, TrafficKind};
//!
//! let mut spec = ExperimentSpec::new(2); // h = 2: a tiny 72-node Dragonfly
//! spec.routing = RoutingKind::Olm;
//! spec.traffic = TrafficKind::Uniform;
//! spec.offered_load = 0.2;
//! spec.warmup = 2_000;
//! spec.measure = 3_000;
//! spec.drain = 3_000;
//! let report = spec.run();
//! assert!(report.accepted_load > 0.1);
//! assert!(report.avg_latency_cycles > 0.0);
//! ```

pub use dragonfly_core as core;
pub use dragonfly_probe as probe;
pub use dragonfly_rng as rng;
pub use dragonfly_routing as routing;
pub use dragonfly_shard as shard;
pub use dragonfly_sim as sim;
pub use dragonfly_stats as stats;
pub use dragonfly_topology as topology;
pub use dragonfly_traffic as traffic;
pub use dragonfly_workload as workload;

/// README.md's Rust snippets, compiled (not run) as doctests so the README
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Workspace version, mirrored from Cargo metadata.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
