//! Job-scoped traffic patterns: the paper's patterns restricted to a job's nodes.

use crate::spec::JobPattern;
use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, NodeId};
use dragonfly_traffic::{BoxedPattern, TrafficPattern};
use std::cell::Cell;

/// Build the boxed pattern for one job phase over the job's (sorted) node set.
pub(crate) fn build_job_pattern(
    pattern: JobPattern,
    members: &[NodeId],
    params: &DragonflyParams,
) -> BoxedPattern {
    let members = members.to_vec();
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    match pattern {
        JobPattern::Uniform => Box::new(JobUniform { members }),
        JobPattern::AdversarialGlobal(offset) => {
            let by_group = bucket(&members, params.groups(), |n| {
                params.group_of_node(*n).index()
            });
            Box::new(JobAdversarialGlobal {
                offset,
                members,
                by_group,
            })
        }
        JobPattern::AdversarialLocal(offset) => {
            let by_router = bucket(&members, params.num_routers(), |n| {
                params.router_of_node(*n).index()
            });
            Box::new(JobAdversarialLocal {
                offset,
                members,
                by_router,
            })
        }
        JobPattern::Mixed {
            global_fraction,
            global_offset,
            local_offset,
        } => Box::new(JobMixed {
            global_fraction: global_fraction.clamp(0.0, 1.0),
            global: build_job_pattern(
                JobPattern::AdversarialGlobal(global_offset),
                &members,
                params,
            ),
            local: build_job_pattern(JobPattern::AdversarialLocal(local_offset), &members, params),
        }),
        JobPattern::AllToAll => {
            let cursors = members.iter().map(|_| Cell::new(1)).collect();
            Box::new(JobAllToAll { members, cursors })
        }
        JobPattern::RingExchange => Box::new(JobRingExchange { members }),
        JobPattern::Permutation { seed } => {
            let target = derangement(members.len(), seed);
            Box::new(JobPermutation { members, target })
        }
    }
}

/// A seeded fixed-point-free permutation of `0..n` (n ≥ 2): Fisher–Yates shuffle,
/// then any fixed point is swapped with its successor (deterministic repair that
/// keeps the map a permutation).
fn derangement(n: usize, seed: u64) -> Vec<u32> {
    debug_assert!(n >= 2);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::seed_from(seed);
    rng.shuffle(&mut perm);
    for i in 0..n {
        if perm[i] == i as u32 {
            let j = (i + 1) % n;
            perm.swap(i, j);
        }
    }
    debug_assert!(perm.iter().enumerate().all(|(i, &p)| p != i as u32));
    perm
}

/// Group the members into `buckets` lists by a key function.
fn bucket(members: &[NodeId], buckets: usize, key: impl Fn(&NodeId) -> usize) -> Vec<Vec<NodeId>> {
    let mut out = vec![Vec::new(); buckets];
    for &node in members {
        out[key(&node)].push(node);
    }
    out
}

/// Uniform draw over `members` excluding `src` (unbiased via the skip trick).
fn uniform_in_job(members: &[NodeId], src: NodeId, rng: &mut Rng) -> NodeId {
    debug_assert!(members.len() >= 2);
    let rank = members
        .binary_search(&src)
        .expect("source node must belong to the job");
    let raw = rng.gen_index(members.len() - 1);
    members[if raw >= rank { raw + 1 } else { raw }]
}

/// Uniform over the job's nodes.
struct JobUniform {
    members: Vec<NodeId>,
}

impl TrafficPattern for JobUniform {
    fn name(&self) -> String {
        "UN".to_string()
    }

    fn destination(&self, src: NodeId, _params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        uniform_in_job(&self.members, src, rng)
    }
}

/// ADVG+N restricted to the job: target the job's nodes in group `src_group + N`.
struct JobAdversarialGlobal {
    offset: usize,
    members: Vec<NodeId>,
    by_group: Vec<Vec<NodeId>>,
}

impl TrafficPattern for JobAdversarialGlobal {
    fn name(&self) -> String {
        format!("ADVG+{}", self.offset)
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        let groups = params.groups();
        let src_group = params.group_of_node(src).index();
        let dst_group = (src_group + self.offset) % groups;
        let candidates = &self.by_group[dst_group];
        if dst_group == src_group || candidates.is_empty() {
            // Degenerate offset or no job presence in the target group.
            return uniform_in_job(&self.members, src, rng);
        }
        candidates[rng.gen_index(candidates.len())]
    }
}

/// ADVL+N restricted to the job: target the job's nodes on router `src_idx + N` of
/// the same group.
struct JobAdversarialLocal {
    offset: usize,
    members: Vec<NodeId>,
    by_router: Vec<Vec<NodeId>>,
}

impl TrafficPattern for JobAdversarialLocal {
    fn name(&self) -> String {
        format!("ADVL+{}", self.offset)
    }

    fn destination(&self, src: NodeId, params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        let src_router = params.router_of_node(src);
        let routers = params.routers_per_group();
        let src_idx = params.router_index_in_group(src_router);
        let dst_idx = (src_idx + self.offset) % routers;
        let group = params.group_of_router(src_router);
        let dst_router = params.router_in_group(group, dst_idx).index();
        let candidates = &self.by_router[dst_router];
        if dst_idx == src_idx || candidates.is_empty() {
            return uniform_in_job(&self.members, src, rng);
        }
        candidates[rng.gen_index(candidates.len())]
    }
}

/// Per-packet Bernoulli mix of the job-scoped ADVG and ADVL components.
struct JobMixed {
    global_fraction: f64,
    global: BoxedPattern,
    local: BoxedPattern,
}

impl TrafficPattern for JobMixed {
    fn name(&self) -> String {
        format!(
            "MIX{}%({}/{})",
            (self.global_fraction * 100.0).round() as u32,
            self.global.name(),
            self.local.name()
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

/// Rank of `src` within the job's sorted node list.
fn rank_in_job(members: &[NodeId], src: NodeId) -> usize {
    members
        .binary_search(&src)
        .expect("source node must belong to the job")
}

/// Staged all-to-all: each source walks round-robin through every peer offset, so a
/// window of `n - 1` consecutive packets from one source hits each peer once.  The
/// per-source cursors make the schedule deterministic without consuming RNG draws.
struct JobAllToAll {
    members: Vec<NodeId>,
    /// Next peer offset (1 ..= n-1) of each source rank.
    cursors: Vec<Cell<u32>>,
}

impl TrafficPattern for JobAllToAll {
    fn name(&self) -> String {
        "A2A".to_string()
    }

    fn destination(&self, src: NodeId, _params: &DragonflyParams, _rng: &mut Rng) -> NodeId {
        let n = self.members.len();
        let rank = rank_in_job(&self.members, src);
        let k = self.cursors[rank].get() as usize;
        // Advance through 1 ..= n-1 cyclically.
        self.cursors[rank].set((k % (n - 1) + 1) as u32);
        self.members[(rank + k) % n]
    }
}

/// Ring / nearest-neighbour exchange: previous or next rank, a fair coin per packet.
struct JobRingExchange {
    members: Vec<NodeId>,
}

impl TrafficPattern for JobRingExchange {
    fn name(&self) -> String {
        "RING".to_string()
    }

    fn destination(&self, src: NodeId, _params: &DragonflyParams, rng: &mut Rng) -> NodeId {
        let n = self.members.len();
        let rank = rank_in_job(&self.members, src);
        let dst = if rng.bernoulli(0.5) {
            (rank + 1) % n
        } else {
            (rank + n - 1) % n
        };
        self.members[dst]
    }
}

/// Seeded fixed-point-free permutation: rank `r` always sends to `target[r]`.
struct JobPermutation {
    members: Vec<NodeId>,
    target: Vec<u32>,
}

impl TrafficPattern for JobPermutation {
    fn name(&self) -> String {
        "PERM".to_string()
    }

    fn destination(&self, src: NodeId, _params: &DragonflyParams, _rng: &mut Rng) -> NodeId {
        let rank = rank_in_job(&self.members, src);
        self.members[self.target[rank] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DragonflyParams {
        DragonflyParams::new(2)
    }

    /// Every other node: a job covering half the machine, one node per router.
    fn spread_members(p: &DragonflyParams) -> Vec<NodeId> {
        (0..p.num_nodes())
            .step_by(2)
            .map(|n| NodeId(n as u32))
            .collect()
    }

    #[test]
    fn job_uniform_stays_in_job_and_skips_source() {
        let p = params();
        let members = spread_members(&p);
        let pattern = build_job_pattern(JobPattern::Uniform, &members, &p);
        let mut rng = Rng::seed_from(3);
        let src = members[5];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let d = pattern.destination(src, &p, &mut rng);
            assert_ne!(d, src);
            assert!(members.binary_search(&d).is_ok(), "{d:?} not in job");
            seen.insert(d);
        }
        assert_eq!(seen.len(), members.len() - 1, "all peers should be hit");
    }

    #[test]
    fn job_advg_targets_offset_group_members() {
        let p = params();
        let members = spread_members(&p);
        let pattern = build_job_pattern(JobPattern::AdversarialGlobal(1), &members, &p);
        let mut rng = Rng::seed_from(5);
        for &src in &members[..8] {
            let want = (p.group_of_node(src).index() + 1) % p.groups();
            for _ in 0..20 {
                let d = pattern.destination(src, &p, &mut rng);
                assert_eq!(p.group_of_node(d).index(), want);
                assert!(members.binary_search(&d).is_ok());
            }
        }
    }

    #[test]
    fn job_advg_falls_back_when_target_group_is_empty() {
        let p = params();
        // Job confined to group 0 (8 nodes): ADVG+1 has no members in group 1.
        let members: Vec<NodeId> = (0..8).map(NodeId).collect();
        let pattern = build_job_pattern(JobPattern::AdversarialGlobal(1), &members, &p);
        let mut rng = Rng::seed_from(7);
        for _ in 0..100 {
            let d = pattern.destination(NodeId(0), &p, &mut rng);
            assert_ne!(d, NodeId(0));
            assert!(members.binary_search(&d).is_ok());
        }
    }

    #[test]
    fn job_advl_targets_offset_router_in_group() {
        let p = params();
        let members = spread_members(&p);
        let pattern = build_job_pattern(JobPattern::AdversarialLocal(1), &members, &p);
        let mut rng = Rng::seed_from(9);
        let src = members[0]; // node 0, router 0, group 0
        for _ in 0..50 {
            let d = pattern.destination(src, &p, &mut rng);
            let dst_router = p.router_of_node(d);
            assert_eq!(p.group_of_router(dst_router), p.group_of_node(src));
            assert_eq!(p.router_index_in_group(dst_router), 1);
        }
    }

    #[test]
    fn job_mixed_uses_both_components() {
        let p = params();
        let members = spread_members(&p);
        let pattern = build_job_pattern(
            JobPattern::Mixed {
                global_fraction: 0.5,
                global_offset: 1,
                local_offset: 1,
            },
            &members,
            &p,
        );
        let mut rng = Rng::seed_from(11);
        let src = members[0];
        let src_group = p.group_of_node(src);
        let (mut global, mut local) = (0, 0);
        for _ in 0..2_000 {
            let d = pattern.destination(src, &p, &mut rng);
            if p.group_of_node(d) == src_group {
                local += 1;
            } else {
                global += 1;
            }
        }
        assert!(
            global > 700 && local > 700,
            "global {global}, local {local}"
        );
        assert!(pattern.name().starts_with("MIX50%"));
    }

    #[test]
    fn all_to_all_sweeps_every_peer_each_round() {
        let p = params();
        let members = spread_members(&p);
        let n = members.len();
        let pattern = build_job_pattern(JobPattern::AllToAll, &members, &p);
        let mut rng = Rng::seed_from(1);
        let src = members[7];
        for round in 0..3 {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n - 1 {
                let d = pattern.destination(src, &p, &mut rng);
                assert_ne!(d, src);
                assert!(members.binary_search(&d).is_ok());
                assert!(seen.insert(d), "round {round}: peer {d:?} hit twice");
            }
            assert_eq!(seen.len(), n - 1, "round {round} must cover every peer");
        }
        // Cursors are per source: another source starts its own sweep at offset 1.
        let other = members[0];
        let d = pattern.destination(other, &p, &mut rng);
        assert_eq!(d, members[1]);
    }

    #[test]
    fn ring_exchange_targets_rank_neighbours() {
        let p = params();
        let members = spread_members(&p);
        let pattern = build_job_pattern(JobPattern::RingExchange, &members, &p);
        let mut rng = Rng::seed_from(2);
        let rank = 5;
        let (mut prev, mut next) = (0, 0);
        for _ in 0..1_000 {
            let d = pattern.destination(members[rank], &p, &mut rng);
            if d == members[rank + 1] {
                next += 1;
            } else if d == members[rank - 1] {
                prev += 1;
            } else {
                panic!("ring destination {d:?} is not a rank neighbour");
            }
        }
        assert!(prev > 350 && next > 350, "prev {prev}, next {next}");
        // Ranks wrap at the ends of the job.
        let d = pattern.destination(members[0], &p, &mut rng);
        assert!(d == members[1] || d == *members.last().unwrap());
    }

    #[test]
    fn permutation_is_fixed_per_seed_and_fixed_point_free() {
        let p = params();
        let members = spread_members(&p);
        let pattern = build_job_pattern(JobPattern::Permutation { seed: 11 }, &members, &p);
        let mut rng = Rng::seed_from(3);
        let mut targets = std::collections::HashMap::new();
        for &src in &members {
            let d = pattern.destination(src, &p, &mut rng);
            assert_ne!(d, src, "permutation must have no fixed points");
            // Every packet from the same source goes to the same peer.
            assert_eq!(pattern.destination(src, &p, &mut rng), d);
            // ... and no two sources share a target (it is a permutation).
            assert!(targets.insert(src, d).is_none());
        }
        let unique: std::collections::HashSet<_> = targets.values().collect();
        assert_eq!(unique.len(), members.len());
        // A different seed yields a different permutation.
        let other = build_job_pattern(JobPattern::Permutation { seed: 12 }, &members, &p);
        let diff = members
            .iter()
            .filter(|&&s| other.destination(s, &p, &mut rng) != targets[&s])
            .count();
        assert!(diff > 0, "seed must matter");
    }

    #[test]
    fn derangement_repairs_fixed_points_for_tiny_jobs() {
        for seed in 0..50 {
            for n in 2..6 {
                let d = derangement(n, seed);
                let mut sorted = d.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
                assert!(d.iter().enumerate().all(|(i, &p)| p != i as u32), "{d:?}");
            }
        }
    }
}
