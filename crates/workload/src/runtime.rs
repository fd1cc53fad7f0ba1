//! The job runtime: the one [`Schedule`] behind every multi-job run.
//!
//! A [`crate::Trace`] compiles into a [`Schedule`] ([`crate::Trace::schedule`]):
//! a static workload is the schedule whose jobs all arrive at cycle 0, carry
//! a phase table and never complete; the jobs of an arrival trace arrive over
//! time and leave on their [`Completion`].  The engine calls [`Schedule::advance_to`] at the top
//! of every cycle (admission, FIFO placement onto the [`FreePool`],
//! retirement, phase switches) and asks [`Schedule::source`],
//! [`Schedule::generate`] and [`Schedule::destination`] for every node's
//! packets.

use crate::job_patterns::build_job_pattern;
use crate::placement::FreePool;
use crate::spec::{Completion, JobSpec, PhaseSpec, PlacementPolicy};
use dragonfly_rng::Rng;
use dragonfly_topology::{DragonflyParams, NodeId};
use dragonfly_traffic::{BoxedPattern, TrafficPattern, Uniform};
use std::collections::VecDeque;

/// The node→job map entry of a node no job holds.
const IDLE: u16 = u16::MAX;

/// Arrival/placement/completion record of one job (cycles are absolute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLifetime {
    /// Cycle the job arrived (entered the wait queue).
    pub arrival: u64,
    /// Cycle the job was placed, if it ever was.
    pub placed: Option<u64>,
    /// Cycle the job completed, if it did.
    pub completed: Option<u64>,
}

impl JobLifetime {
    /// Cycles spent waiting for nodes (`None` until placed).
    pub fn wait_cycles(&self) -> Option<u64> {
        self.placed.map(|p| p - self.arrival)
    }

    /// Cycles between placement and completion (`None` until completed).
    pub fn service_cycles(&self) -> Option<u64> {
        match (self.placed, self.completed) {
            (Some(p), Some(c)) => Some(c - p),
            _ => None,
        }
    }
}

/// One job of a [`Schedule`]: its phase table, its nodes while it runs, and
/// its lifecycle.
pub struct Job {
    name: String,
    size: usize,
    placement: PlacementPolicy,
    /// `None` for a job that never completes (a static workload's).
    completion: Option<Completion>,
    /// Phase table: start cycles strictly increasing, the first at 0.
    phases: Vec<PhaseSpec>,
    /// Per-phase packet-generation probability per node per cycle.
    probs: Vec<f64>,
    /// Per-phase destination patterns over `nodes` (empty unless running).
    patterns: Vec<BoxedPattern>,
    /// Phase active at the cycle last passed to `advance_to`.
    current: usize,
    lifetime: JobLifetime,
    /// Nodes the job occupies while running, ascending (empty before
    /// placement and after retirement).
    nodes: Vec<NodeId>,
    /// Packets of this job delivered so far (drives [`Completion::Volume`]).
    delivered_packets: u64,
}

impl Job {
    pub(crate) fn new(spec: &JobSpec) -> Self {
        Self {
            name: spec.name.clone(),
            size: spec.size,
            placement: spec.placement,
            completion: spec.completion,
            phases: spec.phases.clone(),
            probs: Vec::new(),
            patterns: Vec::new(),
            current: 0,
            lifetime: JobLifetime {
                arrival: spec.arrival,
                placed: None,
                completed: None,
            },
            nodes: Vec::new(),
            delivered_packets: 0,
        }
    }

    /// Job display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes the job occupies while it runs.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The nodes the job occupies right now, ascending (empty unless running).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Arrival, placement and completion cycles.
    pub fn lifetime(&self) -> JobLifetime {
        self.lifetime
    }

    /// The phase table: start cycles strictly increasing, the first at 0.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// The job's ideal (uncontended) service time in cycles: the configured
    /// duration, or — for volume-bound jobs — the injection-limited time to push
    /// the volume at the offered load; `u64::MAX` for a job that never
    /// completes.  The denominator of the slowdown metric.
    pub fn ideal_service_cycles(&self, packet_size: usize) -> u64 {
        match self.completion {
            Some(Completion::Duration(cycles)) => cycles,
            Some(Completion::Volume(packets)) => {
                let phits = packets as f64 * packet_size as f64;
                let rate = self.phases[0].offered_load * self.size as f64;
                if rate > 0.0 {
                    (phits / rate).ceil() as u64
                } else {
                    u64::MAX
                }
            }
            None => u64::MAX,
        }
    }

    /// Whether the job is finished at the top of `cycle`.
    fn is_complete(&self, cycle: u64) -> bool {
        let Some(placed) = self.lifetime.placed else {
            return false;
        };
        match self.completion {
            Some(Completion::Duration(cycles)) => placed + cycles <= cycle,
            Some(Completion::Volume(packets)) => self.delivered_packets >= packets,
            None => false,
        }
    }
}

/// The compiled job runtime (see the module docs).
pub struct Schedule {
    label: String,
    params: DragonflyParams,
    /// All jobs in arrival order (stable for ties, so the list order breaks
    /// placement ties deterministically).
    jobs: Vec<Job>,
    /// For every node: the index of the running job holding it, or [`IDLE`].
    job_of_node: Vec<u16>,
    /// Jobs arrived but not yet placed, FIFO (indices into `jobs`).
    waiting: VecDeque<usize>,
    /// Next not-yet-arrived index into `jobs`.
    next_arrival: usize,
    /// Currently running jobs, in placement order (indices into `jobs`).
    running: Vec<usize>,
    pool: FreePool,
    /// Jobs retired so far (so the per-cycle `all_complete` check is O(1)).
    completed_count: usize,
    /// Set once generation and the lifecycle stop (drain phase).
    halted: bool,
}

impl Schedule {
    /// The one compile step behind [`crate::Trace::schedule`].
    pub(crate) fn new(
        label: String,
        mut jobs: Vec<Job>,
        params: &DragonflyParams,
        packet_size: usize,
    ) -> Self {
        assert!(packet_size >= 1, "packet size must be at least one phit");
        debug_assert!(jobs
            .windows(2)
            .all(|w| w[0].lifetime.arrival <= w[1].lifetime.arrival));
        let num_nodes = params.num_nodes();
        for job in &mut jobs {
            assert!(
                job.size <= num_nodes,
                "job `{}` needs {} nodes but the machine has {num_nodes}",
                job.name,
                job.size
            );
            job.probs = job
                .phases
                .iter()
                .map(|p| (p.offered_load / packet_size as f64).min(1.0))
                .collect();
        }
        Self {
            label,
            params: *params,
            job_of_node: vec![IDLE; num_nodes],
            waiting: VecDeque::with_capacity(jobs.len()),
            next_arrival: 0,
            running: Vec::with_capacity(jobs.len()),
            pool: FreePool::all_free(num_nodes),
            jobs,
            completed_count: 0,
            halted: false,
        }
    }

    /// Display label (`WL[…]` for a workload, `CHURN[…]` for a trace), used as
    /// the traffic name of a run.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// A job by index.
    pub fn job(&self, job: u16) -> &Job {
        &self.jobs[job as usize]
    }

    /// Phase counts of every job, in job order (used to size the per-job and
    /// per-phase statistics scopes).
    pub fn phase_counts(&self) -> Vec<usize> {
        self.jobs.iter().map(|j| j.phases.len()).collect()
    }

    /// Aggregate nominal demand in phits/(node·cycle) over a machine of
    /// `num_nodes` nodes, as if every job were resident at once in its first
    /// phase (for a static workload: the cycle-0 offered load).
    pub fn nominal_offered_load(&self, num_nodes: usize) -> f64 {
        if num_nodes == 0 {
            return 0.0;
        }
        let demand = self
            .jobs
            .iter()
            .map(|j| j.phases[0].offered_load * j.size as f64);
        demand.sum::<f64>() / num_nodes as f64
    }

    /// Whether every job arrives at cycle 0 and never completes — a static
    /// workload's schedule.
    pub fn is_static(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| j.lifetime.arrival == 0 && j.completion.is_none())
    }

    /// Number of currently free nodes.
    pub fn free_nodes(&self) -> usize {
        self.pool.free_count()
    }

    /// Number of currently running jobs.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// Whether every job has completed (never, for a static workload).
    pub fn all_complete(&self) -> bool {
        self.completed_count == self.jobs.len()
    }

    /// Stop generating packets and freeze the lifecycle (drain phase): no
    /// further arrivals, placements, retirements or phase switches, so a job
    /// still running reports `completed = None` however long the drain lasts.
    /// Destinations keep working.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// The lifecycle hook, called at the top of every cycle with
    /// non-decreasing cycles: enqueue arrivals, retire finished jobs (returning
    /// their nodes), place waiting jobs FIFO onto the free set, then move
    /// running jobs across phase boundaries.  Returns `true` when any job was
    /// placed, retired or switched phase.  A no-op once [`Schedule::halt`] has
    /// run.
    pub fn advance_to(&mut self, cycle: u64) -> bool {
        if self.halted {
            return false;
        }
        let mut changed = false;
        let mut arrived = false;
        while self
            .jobs
            .get(self.next_arrival)
            .is_some_and(|job| job.lifetime.arrival <= cycle)
        {
            self.waiting.push_back(self.next_arrival);
            self.next_arrival += 1;
            arrived = true;
        }
        // Retire finished jobs first, so their nodes are re-placeable this cycle.
        let mut idx = 0;
        while idx < self.running.len() {
            let j = self.running[idx];
            if self.jobs[j].is_complete(cycle) {
                self.running.remove(idx);
                self.retire(j, cycle);
                changed = true;
            } else {
                idx += 1;
            }
        }
        // Placement is deterministic in the free set, so a blocked queue head can
        // only unblock after a retirement (arrivals just extend the queue): skip
        // the pool scan on the many cycles where neither happened.
        if arrived || changed {
            // Head-of-line blocking: no backfill, so a large job cannot be
            // starved by later small ones.
            while let Some(&j) = self.waiting.front() {
                let job = &self.jobs[j];
                let Some(nodes) =
                    self.pool
                        .allocate(job.placement, job.size, &self.params, j as u64)
                else {
                    break;
                };
                self.waiting.pop_front();
                self.place(j, nodes, cycle);
                self.running.push(j);
                changed = true;
            }
        }
        for &j in &self.running {
            let job = &mut self.jobs[j];
            while job
                .phases
                .get(job.current + 1)
                .is_some_and(|next| next.start_cycle <= cycle)
            {
                job.current += 1;
                changed = true;
            }
        }
        changed
    }

    /// Hand `nodes` to job `j` at `cycle`: claim them in the node→job map and
    /// build the job's phase patterns over them.
    ///
    /// # Panics
    ///
    /// Panics when the job already holds nodes or a node is held by another
    /// job — the node-disjointness invariant.
    fn place(&mut self, j: usize, nodes: Vec<NodeId>, cycle: u64) {
        let job = &mut self.jobs[j];
        assert!(job.nodes.is_empty(), "job `{}` placed twice", job.name);
        for &node in &nodes {
            let entry = &mut self.job_of_node[node.index()];
            assert_eq!(
                *entry, IDLE,
                "node {node:?} already belongs to job {}",
                *entry
            );
            *entry = j as u16;
        }
        job.patterns = job
            .phases
            .iter()
            .map(|phase| build_job_pattern(phase.pattern, &nodes, &self.params))
            .collect();
        job.lifetime.placed = Some(cycle);
        job.nodes = nodes;
    }

    /// Retire running job `j` at `cycle`: its nodes become idle and return to
    /// the pool, and its patterns are dropped.
    ///
    /// # Panics
    ///
    /// Panics when the job is not running or the node→job map disagrees with
    /// its node set.
    fn retire(&mut self, j: usize, cycle: u64) {
        let job = &mut self.jobs[j];
        assert!(
            !job.nodes.is_empty(),
            "job `{}` retired while not running",
            job.name
        );
        for &node in &job.nodes {
            let entry = &mut self.job_of_node[node.index()];
            assert_eq!(*entry, j as u16, "node {node:?} does not belong to job {j}");
            *entry = IDLE;
        }
        self.pool.release(&job.nodes);
        job.nodes.clear();
        job.patterns.clear();
        job.lifetime.completed = Some(cycle);
        self.completed_count += 1;
    }

    /// The running job of a node and the job's current phase, or `None` for a
    /// node no job holds (idle and waiting jobs never inject).
    #[inline]
    pub fn source(&self, node: usize) -> Option<(u16, u16)> {
        match self.job_of_node[node] {
            IDLE => None,
            job => Some((job, self.jobs[job as usize].current as u16)),
        }
    }

    /// Bernoulli trial: does a node of `job` generate a packet this cycle?
    /// Never once the schedule is halted.
    #[inline]
    pub fn generate(&self, job: u16, rng: &mut Rng) -> bool {
        let job = &self.jobs[job as usize];
        !self.halted && rng.bernoulli(job.probs[job.current])
    }

    /// Destination of a packet generated at `src` during `cycle`: the pattern
    /// of the source job's phase active at `cycle` — looked up by the cycle,
    /// not the cached current phase, so a packet generated before the cycle's
    /// [`Schedule::advance_to`] (a preloaded burst) draws from the right
    /// phase.  A node no job holds falls back to machine-wide uniform traffic
    /// (the runtime never injects from one, but a burst preload may).
    #[inline]
    pub fn destination(&self, cycle: u64, src: NodeId, rng: &mut Rng) -> NodeId {
        match self.job_of_node[src.index()] {
            IDLE => Uniform.destination(src, &self.params, rng),
            job => {
                let job = &self.jobs[job as usize];
                let phase = job.phases.partition_point(|p| p.start_cycle <= cycle) - 1;
                job.patterns[phase].destination(src, &self.params, rng)
            }
        }
    }

    /// Delivery feedback: a packet of `job` reached its destination (drives
    /// volume-bound completion).
    #[inline]
    pub fn note_delivered(&mut self, job: u16) {
        self.jobs[job as usize].delivered_packets += 1;
    }

    /// Check the node-disjointness invariant: every node belongs to at most one
    /// running job, running jobs own exactly their size in nodes, and the
    /// node→job map and the free pool agree.  Cheap enough for tests to call
    /// mid-run.
    pub fn assert_disjoint(&self) {
        let num_nodes = self.params.num_nodes();
        let mut owner = vec![None; num_nodes];
        for &j in &self.running {
            let job = &self.jobs[j];
            assert_eq!(job.nodes.len(), job.size, "job `{}`", job.name);
            for &node in &job.nodes {
                assert_eq!(
                    self.job_of_node[node.index()],
                    j as u16,
                    "node→job map out of sync at {node:?}"
                );
                assert!(
                    !self.pool.is_free(node),
                    "running job `{}` owns free node {node:?}",
                    job.name
                );
                assert!(
                    owner[node.index()].replace(j).is_none(),
                    "node {node:?} owned by two jobs"
                );
            }
        }
        let owned = owner.iter().filter(|o| o.is_some()).count();
        let mapped = self.job_of_node.iter().filter(|&&j| j != IDLE).count();
        assert_eq!(owned, mapped, "the node→job map holds stale entries");
        assert_eq!(owned + self.pool.free_count(), num_nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobPattern;
    use crate::trace::Trace;

    const CONT: PlacementPolicy = PlacementPolicy::Contiguous;

    fn params() -> DragonflyParams {
        DragonflyParams::new(2)
    }

    fn two_phase_runtime() -> Schedule {
        let a = JobSpec::new("a", 8, CONT, JobPattern::Uniform, 0.4);
        let b = JobSpec::new("b", 8, CONT, JobPattern::Uniform, 0.1);
        let a = a.then_at(1_000, JobPattern::AdversarialGlobal(1), 0.2);
        Trace::new("wl", vec![a, b]).schedule(&params(), 8)
    }

    fn job(name: &str, arrival: u64, size: usize, completion: Completion) -> JobSpec {
        JobSpec::new(name, size, CONT, JobPattern::Uniform, 0.2)
            .arrive_at(arrival)
            .complete_on(completion)
    }

    #[test]
    fn phase_metadata_round_trip() {
        let rt = two_phase_runtime();
        assert_eq!(rt.num_jobs(), 2);
        assert_eq!(rt.phase_counts(), vec![2, 1]);
        assert!(rt.is_static());
        let a = rt.job(0);
        assert_eq!(a.name(), "a");
        assert_eq!(a.size(), 8);
        let starts: Vec<u64> = a.phases().iter().map(|p| p.start_cycle).collect();
        assert_eq!(starts, vec![0, 1_000]);
        assert_eq!(a.phases()[1].pattern.name(), "ADVG+1");
        assert!((a.phases()[0].offered_load - 0.4).abs() < 1e-12);
        assert_eq!(a.ideal_service_cycles(8), u64::MAX);
    }

    #[test]
    fn advance_to_switches_phases_at_boundaries() {
        let mut rt = two_phase_runtime();
        // Nothing is placed before the first advance_to.
        assert_eq!(rt.source(0), None);
        assert!(rt.advance_to(0));
        assert_eq!(rt.source(0), Some((0, 0)));
        assert!(!rt.advance_to(999));
        assert_eq!(rt.source(0), Some((0, 0)));
        assert!(rt.advance_to(1_000));
        assert_eq!(rt.source(0), Some((0, 1)));
        assert!(!rt.advance_to(5_000));
        // Job b has one phase and never switches.
        assert_eq!(rt.source(8), Some((1, 0)));
        // Unassigned nodes are idle, and static jobs never complete.
        assert_eq!(rt.source(70), None);
        assert!(!rt.all_complete());
        assert_eq!(rt.job(0).lifetime().completed, None);
    }

    #[test]
    fn generation_rate_follows_current_phase() {
        let mut rt = two_phase_runtime();
        rt.advance_to(0);
        let mut rng = Rng::seed_from(3);
        let n = 100_000;
        let before = (0..n).filter(|_| rt.generate(0, &mut rng)).count();
        rt.advance_to(1_000);
        let after = (0..n).filter(|_| rt.generate(0, &mut rng)).count();
        // 0.4/8 = 5% vs 0.2/8 = 2.5%.
        assert!((before as f64 / n as f64 - 0.05).abs() < 0.005, "{before}");
        assert!((after as f64 / n as f64 - 0.025).abs() < 0.004, "{after}");
    }

    #[test]
    fn nominal_load_weighs_job_sizes() {
        let rt = two_phase_runtime();
        // (8·0.4 + 8·0.1) / 72
        let want = (8.0 * 0.4 + 8.0 * 0.1) / 72.0;
        assert!((rt.nominal_offered_load(72) - want).abs() < 1e-12);
        assert_eq!(rt.nominal_offered_load(0), 0.0);
    }

    #[test]
    fn routes_by_job_and_generation_phase() {
        // Nodes 0..8 fill routers 0..4 of group 0, two nodes per router.
        let local = JobSpec::new("local", 8, CONT, JobPattern::AdversarialLocal(1), 0.1);
        let local = local.then_at(100, JobPattern::AdversarialLocal(2), 0.1);
        let mut rt = Trace::new("wl", vec![local]).schedule(&params(), 8);
        rt.advance_to(0);
        let mut rng = Rng::seed_from(1);
        let mut draw = |rt: &Schedule, cycle| rt.destination(cycle, NodeId(0), &mut rng).index();
        for _ in 0..20 {
            // Router 0 → router 1 in phase 0, router 2 in phase 1 ...
            assert!((2..4).contains(&draw(&rt, 99)));
            // ... chosen by the generation cycle, before advance_to reaches it.
            assert!((4..6).contains(&draw(&rt, 100)));
            assert!((4..6).contains(&draw(&rt, 10_000)));
        }
        assert_eq!(rt.source(0), Some((0, 0)));
        rt.advance_to(100);
        assert_eq!(rt.source(0), Some((0, 1)));
        assert!((2..4).contains(&draw(&rt, 99)));
    }

    #[test]
    fn unassigned_nodes_fall_back_to_uniform() {
        let mut rt = two_phase_runtime();
        rt.advance_to(0);
        let mut rng = Rng::seed_from(2);
        let mut outside_jobs = false;
        for _ in 0..100 {
            let d = rt.destination(0, NodeId(70), &mut rng);
            assert_ne!(d, NodeId(70));
            outside_jobs |= d.index() >= 16;
        }
        assert!(outside_jobs, "an idle node's traffic must span the machine");
    }

    #[test]
    fn install_routes_and_clear_reverts_to_uniform() {
        // `a` holds nodes 0 and 1 until cycle 100; `b` arrives at 100 and is
        // placed on the very same nodes the same cycle.
        let trace = Trace::new(
            "t",
            vec![
                job("a", 0, 2, Completion::Duration(100)),
                job("b", 100, 2, Completion::Duration(100)),
            ],
        );
        let mut rt = trace.schedule(&params(), 8);
        rt.advance_to(0);
        let mut rng = Rng::seed_from(1);
        // A two-node job's uniform pattern has one peer.
        assert_eq!(rt.destination(0, NodeId(0), &mut rng), NodeId(1));
        rt.advance_to(99);
        assert_eq!(rt.job(0).lifetime().completed, None);
        rt.advance_to(100);
        assert_eq!(rt.job(0).lifetime().completed, Some(100));
        assert_eq!(rt.job(1).nodes(), &[NodeId(0), NodeId(1)]);
        assert_eq!(rt.source(0), Some((1, 0)));
        assert_eq!(rt.destination(100, NodeId(1), &mut rng), NodeId(0));
        rt.advance_to(200);
        assert!(rt.all_complete());
        assert_eq!(rt.source(0), None);
        // Cleared nodes fall back to machine-wide uniform (never src itself).
        let spread = (0..50)
            .map(|_| rt.destination(200, NodeId(0), &mut rng))
            .inspect(|&d| assert_ne!(d, NodeId(0)))
            .any(|d| d != NodeId(1));
        assert!(spread);
        rt.assert_disjoint();
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_install_panics() {
        let mut rt = two_phase_runtime();
        rt.place(0, vec![NodeId(0), NodeId(1)], 0);
        rt.place(0, vec![NodeId(2), NodeId(3)], 0);
    }

    #[test]
    #[should_panic(expected = "already belongs to job")]
    fn overlapping_install_panics() {
        let mut rt = two_phase_runtime();
        rt.place(0, vec![NodeId(4), NodeId(5)], 0);
        rt.place(1, vec![NodeId(5), NodeId(6)], 0);
    }

    #[test]
    #[should_panic(expected = "retired while not running")]
    fn mismatched_clear_panics() {
        let mut rt = two_phase_runtime();
        rt.retire(1, 0);
    }

    #[test]
    fn jobs_wait_when_the_machine_is_full_and_replace_freed_nodes() {
        let p = params(); // 72 nodes
        let trace = Trace::new(
            "t",
            vec![
                job("big", 0, 60, Completion::Duration(1_000)),
                job("late", 100, 30, Completion::Duration(500)),
            ],
        );
        let mut rt = trace.schedule(&p, 8);
        assert_eq!(rt.label(), "CHURN[t:2jobs]");
        assert!(!rt.is_static());

        rt.advance_to(0);
        assert_eq!(rt.running_jobs(), 1);
        assert_eq!(rt.free_nodes(), 12);
        assert_eq!(rt.source(0), Some((0, 0)));
        assert_eq!(rt.source(65), None);
        rt.assert_disjoint();

        // `late` arrives but 30 > 12 free: it waits.
        rt.advance_to(100);
        assert_eq!(rt.running_jobs(), 1);
        assert_eq!(rt.job(1).lifetime().placed, None);

        // At 1 000 `big` retires; `late` is placed the same cycle.
        rt.advance_to(1_000);
        assert_eq!(rt.running_jobs(), 1);
        assert_eq!(rt.job(0).lifetime().completed, Some(1_000));
        assert_eq!(rt.job(1).lifetime().placed, Some(1_000));
        assert_eq!(rt.job(1).lifetime().wait_cycles(), Some(900));
        assert_eq!(rt.free_nodes(), 42);
        assert_eq!(rt.source(0), Some((1, 0)));
        rt.assert_disjoint();
        assert!(!rt.all_complete());

        rt.advance_to(1_500);
        assert!(rt.all_complete());
        assert_eq!(rt.free_nodes(), 72);
        assert_eq!(rt.job(1).lifetime().service_cycles(), Some(500));
    }

    #[test]
    fn volume_jobs_complete_on_delivery_feedback() {
        let trace = Trace::new("t", vec![job("v", 0, 8, Completion::Volume(10))]);
        let mut rt = trace.schedule(&params(), 8);
        rt.advance_to(0);
        for _ in 0..9 {
            rt.note_delivered(0);
        }
        rt.advance_to(50);
        assert!(!rt.all_complete());
        rt.note_delivered(0);
        rt.advance_to(51);
        assert!(rt.all_complete());
        assert_eq!(rt.job(0).lifetime().completed, Some(51));
        // Ideal service of 10 packets × 8 phits at 0.2 × 8 nodes = 50 cycles.
        assert_eq!(rt.job(0).ideal_service_cycles(8), 50);
    }

    #[test]
    fn fifo_head_of_line_blocks_later_jobs() {
        let trace = Trace::new(
            "t",
            vec![
                job("a", 0, 40, Completion::Duration(2_000)),
                job("blocked", 10, 40, Completion::Duration(100)),
                job("small", 20, 8, Completion::Duration(100)),
            ],
        );
        let mut rt = trace.schedule(&params(), 8);
        rt.advance_to(0);
        rt.advance_to(20);
        // `small` would fit (32 free) but FIFO order keeps it behind `blocked`.
        assert_eq!(rt.running_jobs(), 1);
        assert_eq!(rt.job(1).lifetime().placed, None);
        assert_eq!(rt.job(2).lifetime().placed, None);
        rt.advance_to(2_000);
        // `a` retires; `blocked` then `small` are placed together.
        assert_eq!(rt.running_jobs(), 2);
        assert_eq!(rt.job(1).lifetime().placed, Some(2_000));
        assert_eq!(rt.job(2).lifetime().placed, Some(2_000));
        rt.assert_disjoint();
    }

    #[test]
    fn halt_stops_generation_and_admission() {
        let trace = Trace::new(
            "t",
            vec![
                job("a", 0, 8, Completion::Duration(100)),
                job("b", 500, 8, Completion::Duration(100)),
            ],
        );
        let mut rt = trace.schedule(&params(), 8);
        rt.advance_to(0);
        let mut rng = Rng::seed_from(1);
        assert!((0..1_000).any(|_| rt.generate(0, &mut rng)));
        rt.halt();
        assert!((0..1_000).all(|_| !rt.generate(0, &mut rng)));
        // The lifecycle is frozen: `a` is not retired even past its duration (so
        // its report is independent of the drain budget), and `b`, arriving after
        // the halt, is never placed.
        assert!(!rt.advance_to(500));
        assert_eq!(rt.running_jobs(), 1);
        assert_eq!(rt.job(0).lifetime().completed, None);
        assert_eq!(rt.job(1).lifetime().placed, None);
    }

    #[test]
    #[should_panic(expected = "machine has")]
    fn oversized_job_rejected_at_compile() {
        let trace = Trace::new("t", vec![job("huge", 0, 100, Completion::Duration(10))]);
        let _ = trace.schedule(&params(), 8);
    }
}
