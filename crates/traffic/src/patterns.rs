//! The traffic patterns of the paper: UN, ADVG+N, ADVL+N, mixes and permutations.

use crate::TrafficPattern;
use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, GroupId, NodeId};

/// Uniform random traffic: each packet goes to a uniformly random node other than the
/// source.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Uniform {
    /// Create the pattern.
    pub fn new() -> Self {
        Self
    }
}

impl TrafficPattern for Uniform {
    fn name(&self) -> String {
        "UN".to_string()
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        let n = params.num_nodes();
        debug_assert!(n >= 2);
        // Draw from [0, n-1) and skip over the source to keep the draw unbiased.
        let raw = rng.gen_index(n - 1);
        let dest = if raw >= src.index() { raw + 1 } else { raw };
        NodeId(dest as u32)
    }
}

/// Adversarial-global traffic ADVG+N: every node of group `i` sends to a uniformly
/// random node of group `i + N (mod G)`.
///
/// All of a group's traffic then competes for the single global channel between the
/// two groups, which caps minimal-routing throughput at `1/(2h²+1)` phits/(node·cycle).
#[derive(Debug, Clone, Copy)]
pub struct AdversarialGlobal {
    offset: usize,
}

impl AdversarialGlobal {
    /// Create ADVG+`offset`.  The offset must not be a multiple of the group count.
    pub fn new(offset: usize) -> Self {
        assert!(offset >= 1, "ADVG offset must be at least 1");
        Self { offset }
    }

    /// The group offset `N`.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl TrafficPattern for AdversarialGlobal {
    fn name(&self) -> String {
        format!("ADVG+{}", self.offset)
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        let groups = params.groups();
        let src_group = params.group_of_node(src);
        let dst_group = GroupId(((src_group.index() + self.offset) % groups) as u32);
        if dst_group == src_group {
            // Degenerate offset (multiple of the group count): fall back to uniform so
            // the pattern still never targets the source itself.
            return Uniform.destination(src, params, rng);
        }
        let nodes_per_group = params.nodes_per_group();
        let first_router = params.router_in_group(dst_group, 0);
        let first_node = params.node_of_router(first_router, 0);
        NodeId((first_node.index() + rng.gen_index(nodes_per_group)) as u32)
    }
}

/// Adversarial-local traffic ADVL+N: every node of router `i` sends to a random node of
/// router `i + N (mod 2h)` in the same group.
///
/// All of a router's injected traffic then competes for a single local link, which caps
/// minimal-routing throughput at `1/h` phits/(node·cycle).
#[derive(Debug, Clone, Copy)]
pub struct AdversarialLocal {
    offset: usize,
}

impl AdversarialLocal {
    /// Create ADVL+`offset`.  The offset must not be a multiple of `2h`.
    pub fn new(offset: usize) -> Self {
        assert!(offset >= 1, "ADVL offset must be at least 1");
        Self { offset }
    }

    /// The router offset `N`.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl TrafficPattern for AdversarialLocal {
    fn name(&self) -> String {
        format!("ADVL+{}", self.offset)
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        let src_router = params.router_of_node(src);
        let group = params.group_of_router(src_router);
        let routers = params.routers_per_group();
        let src_idx = params.router_index_in_group(src_router);
        let dst_idx = (src_idx + self.offset) % routers;
        if dst_idx == src_idx {
            return Uniform.destination(src, params, rng);
        }
        let dst_router = params.router_in_group(group, dst_idx);
        let term = rng.gen_index(params.nodes_per_router());
        params.node_of_router(dst_router, term)
    }
}

/// Per-packet mix of an adversarial-global and an adversarial-local component.
///
/// With probability `global_fraction` the packet follows ADVG+`global_offset`,
/// otherwise ADVL+`local_offset`.  Figure 6/9 of the paper sweep `global_fraction`
/// from 0 % to 100 % with ADVG+h and ADVL+1.
#[derive(Debug, Clone, Copy)]
pub struct MixedGlobalLocal {
    global_fraction: f64,
    global: AdversarialGlobal,
    local: AdversarialLocal,
}

impl MixedGlobalLocal {
    /// Create the mix.  `global_fraction` is clamped to `[0, 1]`.
    pub fn new(global_fraction: f64, global_offset: usize, local_offset: usize) -> Self {
        Self {
            global_fraction: global_fraction.clamp(0.0, 1.0),
            global: AdversarialGlobal::new(global_offset),
            local: AdversarialLocal::new(local_offset),
        }
    }

    /// Fraction of packets following the global component.
    pub fn global_fraction(&self) -> f64 {
        self.global_fraction
    }
}

impl TrafficPattern for MixedGlobalLocal {
    fn name(&self) -> String {
        format!(
            "MIX{}%(ADVG+{}/ADVL+{})",
            (self.global_fraction * 100.0).round() as u32,
            self.global.offset(),
            self.local.offset()
        )
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        if rng.bernoulli(self.global_fraction) {
            self.global.destination(src, params, rng)
        } else {
            self.local.destination(src, params, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DragonflyParams {
        DragonflyParams::new(4)
    }

    #[test]
    fn uniform_never_targets_source_and_covers_space() {
        let p = params();
        let mut rng = Rng::seed_from(7);
        let src = NodeId(10);
        let mut seen = vec![false; p.num_nodes()];
        for _ in 0..20_000 {
            let d = Uniform.destination(src, &p, &mut rng);
            assert_ne!(d, src);
            seen[d.index()] = true;
        }
        let covered = seen.iter().filter(|&&x| x).count();
        assert!(covered > p.num_nodes() * 9 / 10, "covered {covered}");
        assert!(!seen[src.index()]);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let p = DragonflyParams::new(2);
        let mut rng = Rng::seed_from(3);
        let src = NodeId(0);
        let n = p.num_nodes();
        let samples = 50_000;
        let mut counts = vec![0usize; n];
        for _ in 0..samples {
            counts[Uniform.destination(src, &p, &mut rng).index()] += 1;
        }
        let expected = samples as f64 / (n - 1) as f64;
        for (i, &c) in counts.iter().enumerate() {
            if i == 0 {
                assert_eq!(c, 0);
            } else {
                assert!(
                    (c as f64 - expected).abs() < expected * 0.2,
                    "node {i}: {c} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn advg_targets_offset_group() {
        let p = params();
        let mut rng = Rng::seed_from(1);
        let pattern = AdversarialGlobal::new(3);
        for src_raw in [0usize, 5, 100, p.num_nodes() - 1] {
            let src = NodeId(src_raw as u32);
            let src_group = p.group_of_node(src);
            for _ in 0..50 {
                let d = pattern.destination(src, &p, &mut rng);
                let dst_group = p.group_of_node(d);
                assert_eq!(
                    dst_group.index(),
                    (src_group.index() + 3) % p.groups(),
                    "src group {src_group}, dst group {dst_group}"
                );
                assert_ne!(d, src);
            }
        }
        assert_eq!(pattern.name(), "ADVG+3");
    }

    #[test]
    fn advg_covers_all_nodes_of_target_group() {
        let p = params();
        let mut rng = Rng::seed_from(2);
        let pattern = AdversarialGlobal::new(1);
        let src = NodeId(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(pattern.destination(src, &p, &mut rng).index());
        }
        assert_eq!(seen.len(), p.nodes_per_group());
    }

    #[test]
    fn advg_degenerate_offset_falls_back_to_uniform() {
        let p = DragonflyParams::new(2); // 9 groups
        let pattern = AdversarialGlobal::new(9);
        let mut rng = Rng::seed_from(5);
        let src = NodeId(0);
        for _ in 0..100 {
            let d = pattern.destination(src, &p, &mut rng);
            assert_ne!(d, src);
        }
    }

    #[test]
    fn advl_targets_offset_router_in_same_group() {
        let p = params();
        let mut rng = Rng::seed_from(11);
        let pattern = AdversarialLocal::new(1);
        for src_raw in [0usize, 7, 63, p.num_nodes() - 1] {
            let src = NodeId(src_raw as u32);
            let src_router = p.router_of_node(src);
            let src_group = p.group_of_router(src_router);
            for _ in 0..20 {
                let d = pattern.destination(src, &p, &mut rng);
                let dst_router = p.router_of_node(d);
                assert_eq!(p.group_of_router(dst_router), src_group);
                let expect_idx = (p.router_index_in_group(src_router) + 1) % p.routers_per_group();
                assert_eq!(p.router_index_in_group(dst_router), expect_idx);
            }
        }
        assert_eq!(pattern.name(), "ADVL+1");
    }

    #[test]
    fn mixed_fraction_controls_split() {
        let p = params();
        let mut rng = Rng::seed_from(13);
        let pattern = MixedGlobalLocal::new(0.7, p.h(), 1);
        let src = NodeId(0);
        let src_group = p.group_of_node(src);
        let n = 20_000;
        let mut global = 0usize;
        for _ in 0..n {
            let d = pattern.destination(src, &p, &mut rng);
            if p.group_of_node(d) != src_group {
                global += 1;
            }
        }
        let frac = global as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "global fraction {frac}");
    }

    #[test]
    fn mixed_extremes_are_pure() {
        let p = params();
        let mut rng = Rng::seed_from(17);
        let all_local = MixedGlobalLocal::new(0.0, p.h(), 1);
        let all_global = MixedGlobalLocal::new(1.0, p.h(), 1);
        let src = NodeId(42);
        let src_group = p.group_of_node(src);
        for _ in 0..200 {
            assert_eq!(
                p.group_of_node(all_local.destination(src, &p, &mut rng)),
                src_group
            );
            assert_ne!(
                p.group_of_node(all_global.destination(src, &p, &mut rng)),
                src_group
            );
        }
    }

    #[test]
    fn mixed_name_mentions_components() {
        let m = MixedGlobalLocal::new(0.25, 8, 1);
        assert_eq!(m.name(), "MIX25%(ADVG+8/ADVL+1)");
        assert!((m.global_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn advg_zero_offset_rejected() {
        AdversarialGlobal::new(0);
    }
}
