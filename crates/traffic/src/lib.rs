//! Synthetic traffic patterns used by the paper's evaluation.
//!
//! A [`TrafficPattern`] maps a source node to a destination node every time the source
//! generates a packet.  The patterns implemented here are exactly those of the paper:
//!
//! * **UN** — uniform random: every other node is equally likely,
//! * **ADVG+N** — adversarial-global: all nodes of group *i* send to random nodes of
//!   group *i + N*, saturating the single global link between the two groups,
//! * **ADVL+N** — adversarial-local: all nodes of router *i* send to nodes of router
//!   *i + N* of the same group, saturating a single local link,
//! * **ADVG+g/ADVL+l mixes** — a per-packet Bernoulli choice between an
//!   adversarial-global and an adversarial-local component (Figures 6 and 9).
//!
//! The crate also provides the generation processes: the Bernoulli injection process
//! used for the steady-state experiments and the fixed-size burst used for the burst
//! consumption experiments.

mod injection;
mod patterns;

pub use injection::{BernoulliInjection, BurstSpec};
pub use patterns::{AdversarialGlobal, AdversarialLocal, MixedGlobalLocal, Uniform};

use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, NodeId};

/// A synthetic traffic pattern: a (possibly randomized) map from source to destination.
pub trait TrafficPattern: Send {
    /// Short name used in reports and CSV output (e.g. `"ADVG+1"`).
    fn name(&self) -> String;

    /// Pick the destination for a packet generated at `src`.
    ///
    /// Implementations must never return `src` itself (a node does not send packets to
    /// itself through the network).
    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId;
}

/// Boxed pattern alias used throughout the workspace.
pub type BoxedPattern = Box<dyn TrafficPattern>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_pattern_is_usable() {
        let p = DragonflyParams::new(2);
        let pattern: BoxedPattern = Box::new(Uniform::new());
        let mut rng = Rng::seed_from(1);
        let d = pattern.destination(NodeId(0), &p, &mut rng);
        assert_ne!(d, NodeId(0));
        assert!(d.index() < p.num_nodes());
    }
}
