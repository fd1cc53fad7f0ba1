//! Packet generation processes: Bernoulli injection and fixed-size bursts.

use dragonfly_rng::Rng;

/// Bernoulli injection process, the paper's steady-state source model.
///
/// The offered load is expressed in phits/(node·cycle); with packets of `packet_size`
/// phits a node generates a packet in a given cycle with probability
/// `load / packet_size`, so the expected injected phit rate equals the offered load.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliInjection {
    offered_load: f64,
    packet_size: usize,
}

impl BernoulliInjection {
    /// Create a process with the given offered load (phits/(node·cycle)) and packet
    /// size (phits).
    pub fn new(offered_load: f64, packet_size: usize) -> Self {
        assert!(offered_load >= 0.0, "offered load must be non-negative");
        assert!(packet_size >= 1, "packet size must be at least one phit");
        Self {
            offered_load,
            packet_size,
        }
    }

    /// Offered load in phits/(node·cycle).
    pub fn offered_load(&self) -> f64 {
        self.offered_load
    }

    /// Packet size in phits.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Per-cycle packet generation probability for one node.
    pub fn packet_probability(&self) -> f64 {
        (self.offered_load / self.packet_size as f64).min(1.0)
    }

    /// Decide whether a node generates a packet this cycle.
    #[inline]
    pub fn generate(&self, rng: &mut Rng) -> bool {
        rng.bernoulli(self.packet_probability())
    }
}

/// Specification of a burst-consumption experiment: every node generates a fixed
/// number of packets at cycle zero and the network runs until all are delivered.
#[derive(Debug, Clone, Copy)]
pub struct BurstSpec {
    packets_per_node: u64,
    packet_size: usize,
}

impl BurstSpec {
    /// Every node sends `packets_per_node` packets of `packet_size` phits.
    pub fn new(packets_per_node: u64, packet_size: usize) -> Self {
        assert!(
            packets_per_node >= 1,
            "burst needs at least one packet per node"
        );
        assert!(packet_size >= 1, "packet size must be at least one phit");
        Self {
            packets_per_node,
            packet_size,
        }
    }

    /// Packets each node generates.
    pub fn packets_per_node(&self) -> u64 {
        self.packets_per_node
    }

    /// Packet size in phits.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_probability_scaling() {
        let inj = BernoulliInjection::new(0.4, 8);
        assert!((inj.packet_probability() - 0.05).abs() < 1e-12);
        assert_eq!(inj.packet_size(), 8);
        assert!((inj.offered_load() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_probability_clamped_to_one() {
        let inj = BernoulliInjection::new(20.0, 8);
        assert_eq!(inj.packet_probability(), 1.0);
    }

    #[test]
    fn bernoulli_generation_rate_matches_load() {
        let inj = BernoulliInjection::new(0.8, 8);
        let mut rng = Rng::seed_from(23);
        let cycles = 200_000;
        let packets = (0..cycles).filter(|_| inj.generate(&mut rng)).count();
        let phit_rate = packets as f64 * 8.0 / cycles as f64;
        assert!((phit_rate - 0.8).abs() < 0.02, "phit rate {phit_rate}");
    }

    #[test]
    fn zero_load_never_generates() {
        let inj = BernoulliInjection::new(0.0, 8);
        let mut rng = Rng::seed_from(1);
        assert!((0..1000).all(|_| !inj.generate(&mut rng)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_load_rejected() {
        BernoulliInjection::new(-0.1, 8);
    }

    #[test]
    fn burst_phits_per_node() {
        let b = BurstSpec::new(1000, 8);
        assert_eq!(b.packets_per_node() * b.packet_size() as u64, 8000);
        assert_eq!(b.packets_per_node(), 1000);
        assert_eq!(b.packet_size(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn empty_burst_rejected() {
        BurstSpec::new(0, 8);
    }
}
