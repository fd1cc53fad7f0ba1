//! Deterministic node placement over an explicit free-node pool.
//!
//! [`FreePool`] is the allocation substrate of the job runtime
//! ([`crate::Schedule`]): every [`PlacementPolicy`] draws from whatever nodes
//! are currently free — a virgin machine, or an arbitrarily fragmented set left
//! behind by earlier arrivals and departures — and departing jobs return their
//! nodes with [`FreePool::release`].

use crate::spec::PlacementPolicy;
use dragonfly_rng::{derive_seed, Rng};
use dragonfly_topology::{DragonflyParams, NodeId};

/// The machine's free-node pool: the mutable substrate every placement policy
/// allocates from.
///
/// Allocation never assumes anything about the shape of the free set; a policy that
/// cannot find enough free nodes returns `None` and leaves the pool untouched, so a
/// scheduler can keep the job waiting and retry after the next departure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreePool {
    free: Vec<bool>,
    free_count: usize,
}

impl FreePool {
    /// A pool with every node of the machine free.
    pub fn all_free(num_nodes: usize) -> Self {
        Self {
            free: vec![true; num_nodes],
            free_count: num_nodes,
        }
    }

    /// Number of currently free nodes.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Number of nodes of the machine (free or taken).
    pub fn num_nodes(&self) -> usize {
        self.free.len()
    }

    /// Whether a node is currently free.
    pub fn is_free(&self, node: NodeId) -> bool {
        self.free[node.index()]
    }

    /// Allocate `size` nodes with `policy`, or `None` (pool unchanged) when the
    /// free set cannot satisfy the request.
    ///
    /// `stream` decorrelates the seeded [`PlacementPolicy::Random`] draws of
    /// different jobs sharing one policy seed (the runtime passes the job's
    /// index in its job list).  The returned nodes are sorted
    /// ascending and marked taken.
    pub fn allocate(
        &mut self,
        policy: PlacementPolicy,
        size: usize,
        params: &DragonflyParams,
        stream: u64,
    ) -> Option<Vec<NodeId>> {
        if size > self.free_count {
            return None;
        }
        let mut nodes = match policy {
            PlacementPolicy::Contiguous => take_contiguous(&self.free, size),
            PlacementPolicy::RoundRobinRouters => take_round_robin(&self.free, size, params),
            PlacementPolicy::Random { seed } => {
                take_random(&self.free, size, derive_seed(seed, stream))
            }
        }?;
        debug_assert_eq!(nodes.len(), size);
        nodes.sort_unstable();
        for &node in &nodes {
            debug_assert!(self.free[node.index()]);
            self.free[node.index()] = false;
        }
        self.free_count -= size;
        Some(nodes)
    }

    /// Return a departed job's nodes to the pool.
    ///
    /// # Panics
    ///
    /// Panics when any node is already free (double release).
    pub fn release(&mut self, nodes: &[NodeId]) {
        for &node in nodes {
            assert!(
                !self.free[node.index()],
                "released node {node:?} was already free"
            );
            self.free[node.index()] = true;
        }
        self.free_count += nodes.len();
    }
}

/// Lowest-indexed free nodes first.
fn take_contiguous(free: &[bool], size: usize) -> Option<Vec<NodeId>> {
    let nodes: Vec<NodeId> = free
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f)
        .take(size)
        .map(|(n, _)| NodeId(n as u32))
        .collect();
    (nodes.len() == size).then_some(nodes)
}

/// One free node per router per sweep, cycling over all routers.
fn take_round_robin(free: &[bool], size: usize, params: &DragonflyParams) -> Option<Vec<NodeId>> {
    let routers = params.num_routers();
    let per_router = params.nodes_per_router();
    let mut nodes = Vec::with_capacity(size);
    // `cursor[r]` is the next terminal index of router `r` to consider, so each sweep
    // takes at most one node per router.
    let mut cursor = vec![0usize; routers];
    while nodes.len() < size {
        let mut progressed = false;
        for (r, cur) in cursor.iter_mut().enumerate() {
            if nodes.len() == size {
                break;
            }
            // The cursor only moves forward, so every node is considered once.
            while *cur < per_router {
                let node = r * per_router + *cur;
                *cur += 1;
                if free[node] {
                    nodes.push(NodeId(node as u32));
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            return None;
        }
    }
    Some(nodes)
}

/// A seeded random subset of the free nodes.
fn take_random(free: &[bool], size: usize, seed: u64) -> Option<Vec<NodeId>> {
    let mut candidates: Vec<u32> = free
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f)
        .map(|(n, _)| n as u32)
        .collect();
    if candidates.len() < size {
        return None;
    }
    let mut rng = Rng::seed_from(seed);
    rng.shuffle(&mut candidates);
    candidates.truncate(size);
    Some(candidates.into_iter().map(NodeId).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobPattern, JobSpec};
    use crate::{Schedule, Trace};

    fn params() -> DragonflyParams {
        DragonflyParams::new(2)
    }

    fn job(name: &str, size: usize, placement: PlacementPolicy) -> JobSpec {
        JobSpec::new(name, size, placement, JobPattern::Uniform, 0.1)
    }

    /// A static workload placed the way the runtime places it: every job at
    /// cycle 0, in specification order.
    fn placed(jobs: Vec<JobSpec>) -> Schedule {
        let mut schedule = Trace::new("wl", jobs).schedule(&params(), 8);
        schedule.advance_to(0);
        schedule
    }

    /// The node set of every job of `schedule`.
    fn nodes_of(schedule: &Schedule) -> Vec<Vec<NodeId>> {
        (0..schedule.num_jobs() as u16)
            .map(|j| schedule.job(j).nodes().to_vec())
            .collect()
    }

    #[test]
    fn contiguous_takes_lowest_nodes() {
        let schedule = placed(vec![
            job("a", 8, PlacementPolicy::Contiguous),
            job("b", 8, PlacementPolicy::Contiguous),
        ]);
        let jobs = nodes_of(&schedule);
        assert_eq!(jobs[0], (0..8).map(NodeId).collect::<Vec<_>>());
        assert_eq!(jobs[1], (8..16).map(NodeId).collect::<Vec<_>>());
        assert_eq!(schedule.free_nodes(), params().num_nodes() - 16);
    }

    #[test]
    fn round_robin_spreads_over_routers() {
        // 36 routers × 2 nodes.
        let jobs = nodes_of(&placed(vec![
            job("a", 36, PlacementPolicy::RoundRobinRouters),
            job("b", 36, PlacementPolicy::RoundRobinRouters),
        ]));
        // First sweep: node 0 of every router.
        for (i, node) in jobs[0].iter().enumerate() {
            assert_eq!(node.index(), i * 2, "job a node {i}");
        }
        // Second job gets node 1 of every router.
        for (i, node) in jobs[1].iter().enumerate() {
            assert_eq!(node.index(), i * 2 + 1, "job b node {i}");
        }
    }

    #[test]
    fn round_robin_wraps_to_second_terminal() {
        let p = params();
        let jobs = nodes_of(&placed(vec![job(
            "a",
            40,
            PlacementPolicy::RoundRobinRouters,
        )]));
        // 36 routers: the first 36 nodes are one per router, then it wraps.
        let per_router_counts: Vec<usize> = (0..p.num_routers())
            .map(|r| {
                jobs[0]
                    .iter()
                    .filter(|n| n.index() / p.nodes_per_router() == r)
                    .count()
            })
            .collect();
        assert_eq!(per_router_counts.iter().filter(|&&c| c == 2).count(), 4);
        assert_eq!(per_router_counts.iter().filter(|&&c| c == 1).count(), 32);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let random = |seed| {
            nodes_of(&placed(vec![job(
                "a",
                20,
                PlacementPolicy::Random { seed },
            )]))
        };
        let one = random(7);
        assert_eq!(one, random(7));
        assert_ne!(one, random(8));
    }

    #[test]
    fn jobs_are_disjoint_and_inverse_map_agrees() {
        let p = params();
        let schedule = placed(vec![
            job("a", 10, PlacementPolicy::Random { seed: 1 }),
            job("b", 20, PlacementPolicy::RoundRobinRouters),
            job("c", 30, PlacementPolicy::Contiguous),
        ]);
        let mut seen = vec![false; p.num_nodes()];
        for (j, nodes) in nodes_of(&schedule).iter().enumerate() {
            assert_eq!(nodes.len(), schedule.job(j as u16).size());
            for node in nodes {
                assert!(!seen[node.index()], "node {node:?} assigned twice");
                seen[node.index()] = true;
                assert_eq!(schedule.source(node.index()), Some((j as u16, 0)));
            }
        }
        for (n, &taken) in seen.iter().enumerate() {
            if !taken {
                assert_eq!(schedule.source(n), None);
            }
        }
        schedule.assert_disjoint();
    }

    #[test]
    #[should_panic(expected = "machine has")]
    fn oversubscription_rejected() {
        let spec = Trace::new(
            "wl",
            vec![
                job("a", 40, PlacementPolicy::Contiguous),
                job("b", 40, PlacementPolicy::Contiguous),
            ],
        );
        let _ = spec.schedule(&params(), 8);
    }

    #[test]
    fn pool_allocates_from_fragmented_free_sets() {
        let p = params();
        let mut pool = FreePool::all_free(p.num_nodes());
        // Take the whole machine as three blocks, free the middle one.
        let a = pool
            .allocate(PlacementPolicy::Contiguous, 24, &p, 0)
            .unwrap();
        let b = pool
            .allocate(PlacementPolicy::Contiguous, 24, &p, 1)
            .unwrap();
        let c = pool
            .allocate(PlacementPolicy::Contiguous, 24, &p, 2)
            .unwrap();
        assert_eq!(pool.free_count(), 0);
        assert!(pool
            .allocate(PlacementPolicy::Contiguous, 1, &p, 3)
            .is_none());
        pool.release(&b);
        assert_eq!(pool.free_count(), 24);
        // A contiguous allocation on the fragmented pool lands exactly in the hole.
        let d = pool
            .allocate(PlacementPolicy::Contiguous, 24, &p, 4)
            .unwrap();
        assert_eq!(d, b);
        pool.release(&a);
        pool.release(&c);
        pool.release(&d);
        assert_eq!(pool.free_count(), p.num_nodes());
    }

    #[test]
    fn pool_failed_allocation_leaves_pool_untouched() {
        let p = params();
        let mut pool = FreePool::all_free(p.num_nodes());
        let taken = pool
            .allocate(PlacementPolicy::Random { seed: 3 }, 70, &p, 0)
            .unwrap();
        let before = pool.clone();
        for policy in [
            PlacementPolicy::Contiguous,
            PlacementPolicy::RoundRobinRouters,
            PlacementPolicy::Random { seed: 9 },
        ] {
            assert!(pool.allocate(policy, 3, &p, 1).is_none());
            assert_eq!(pool, before, "{policy:?} mutated the pool on failure");
        }
        // The remaining two nodes are still allocatable.
        let rest = pool
            .allocate(PlacementPolicy::RoundRobinRouters, 2, &p, 2)
            .unwrap();
        assert_eq!(taken.len() + rest.len(), p.num_nodes());
    }

    #[test]
    #[should_panic(expected = "already free")]
    fn double_release_panics() {
        let p = params();
        let mut pool = FreePool::all_free(p.num_nodes());
        let a = pool
            .allocate(PlacementPolicy::Contiguous, 4, &p, 0)
            .unwrap();
        pool.release(&a);
        pool.release(&a);
    }
}
