//! Pins the hot-path memory invariant: after warm-up, the steady-state cycle
//! loop performs **zero heap allocations** for every routing mechanism × flow
//! control combination.
//!
//! The guarantee rests on three pieces (see ARCHITECTURE.md, "Memory layout of
//! the hot path"): the generational packet slab reuses freed slots, VC buffers
//! and link pipelines run on fixed-capacity rings whose backing store is
//! reserved at construction, and all per-cycle bookkeeping (`active_links`,
//! `route_scratch`, candidate lists in `route()`, ...) lives in preallocated
//! or stack-inline storage.
//!
//! The offered loads (0.1 and 0.005 uniform) are deliberately below every
//! mechanism's saturation point: above saturation the *source queues* grow
//! without bound by design, which is a property of the load, not of the cycle
//! loop.  The near-idle load is the regime the due-work structures exist for
//! (port masks, `pending_sources`, the fabric's `next_due` stamps): members
//! come and go every few cycles there, and none of it may allocate.
//!
//! Probes are installed with every instrument enabled (stride-64 time series,
//! flight recorder, heatmaps) **and every anomaly detector armed**: all probe
//! storage is reserved at installation, overflow drops-and-counts, and the
//! detectors run only when the file set is written, so the observability
//! layer must not cost a single allocation on the hot path either.
//!
//! The counting allocator is process-global, so this file deliberately holds a
//! SINGLE test function: a second test running in parallel would pollute the
//! counter and make the assertion meaningless.  Runs are fully deterministic
//! (fixed seeds), so a pass here is reproducible, not probabilistic.
//!
//! Beyond the whole-cycle zero, the test attributes allocator activity to the
//! individual phases through `step_with_phase_hook` and asserts the zero
//! separately for arrivals, injection, routing, switch and bookkeeping — a
//! regression that allocates in exactly one phase fails with that phase's
//! name, not just "some cycle allocated".
//!
//! The sharded engine's cycle is the same five phases plus export, barrier
//! and import, and owes the same zero: the counter is process-global, so it
//! sees the worker threads.  Three 2-shard cases — Bernoulli injection, a job
//! trace whose delivery feedback is broadcast every cycle, and a static
//! workload whose job switches phase inside the measured window (run
//! sequentially too) — warm up and measure inside one `drive` call (spawning
//! the workers allocates; stepping them must not).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dragonfly::core::{
    Completion, ExperimentSpec, FlowControlKind, JobPattern, JobSpec, PlacementPolicy, RoutingKind,
    ShardPlan, ShardedSimulation, Trace, TraceJob, TrafficKind, WorkloadSpec,
};
use dragonfly::probe::ProbeConfig;
use dragonfly::routing::Olm;
use dragonfly::sim::{Engine, EngineHost, Simulation};
use dragonfly::traffic::{BernoulliInjection, Uniform};
use dragonfly::workload::JobList;

/// Forwards to the system allocator, counting every call that can return a
/// fresh heap block (alloc, alloc_zeroed, realloc).  Deallocations are not
/// counted: the invariant is "no allocations", which also forbids free+alloc
/// churn pairs.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const WARMUP_CYCLES: u64 = 2_000;
/// A loaded machine and a nearly idle one.
const LOADS: [f64; 2] = [0.1, 0.005];
const MEASURED_CYCLES: u64 = 500;

#[test]
fn steady_state_cycle_loop_is_allocation_free() {
    for kind in RoutingKind::ALL {
        for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
            // OLM requires VCT.
            if !kind.supports_wormhole() && fc == FlowControlKind::Wormhole {
                continue;
            }
            for load in LOADS {
                let mut spec = ExperimentSpec::new(2);
                spec.routing = kind;
                spec.flow_control = fc;
                spec.traffic = TrafficKind::Uniform;
                spec.seed = 42;
                let mut sim = spec.build_simulation();
                // Every probe instrument on and the detectors armed: the active
                // observability layer must be allocation-free too (storage
                // reserved here, before warm-up).
                sim.install_probes(ProbeConfig {
                    delay: true,
                    ..ProbeConfig::full_active(64)
                });
                sim.network_mut()
                    .set_injection(Some(BernoulliInjection::new(load, fc.packet_size())));

                // Warm-up: source-queue high-water marks and any arena growth
                // beyond the preallocation happen here.
                sim.run_cycles(WARMUP_CYCLES);

                let before = ALLOCS.load(Ordering::Relaxed);
                sim.run_cycles(MEASURED_CYCLES);
                let delta = ALLOCS.load(Ordering::Relaxed) - before;

                let case = format!("{} under {} at load {load}", kind.name(), fc.name());
                assert!(
                    sim.network().stats.total_delivered > 0,
                    "{case} delivered nothing — the run would pin an idle loop"
                );
                assert!(
                    sim.probe().is_some_and(|p| p.samples() > 0),
                    "{case}: probes recorded nothing — the probe half of the pin is vacuous"
                );
                assert_eq!(
                    delta, 0,
                    "{case}: {delta} heap allocations in {MEASURED_CYCLES} steady-state cycles \
                     (probes enabled)"
                );
            }
        }
    }

    per_phase_attribution();
    job_and_sharded_cycle_loops();
}

/// Phase names in pipeline order, as reported by `step_with_phase_hook`.
const PHASES: [&str; 5] = ["arrivals", "injection", "routing", "switch", "bookkeeping"];

/// Attribute steady-state allocator activity to individual phases and assert
/// the zero for each one separately (probes installed, so the arrival and
/// switch paths include their probe recording).
fn per_phase_attribution() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.flow_control = FlowControlKind::Vct;
    spec.traffic = TrafficKind::Uniform;
    spec.seed = 42;
    let mut sim = spec.build_simulation();
    sim.install_probes(ProbeConfig {
        delay: true,
        ..ProbeConfig::full_active(64)
    });
    sim.network_mut()
        .set_injection(Some(BernoulliInjection::new(
            0.1,
            FlowControlKind::Vct.packet_size(),
        )));
    sim.run_cycles(WARMUP_CYCLES);

    let mut per_phase = [0u64; 5];
    let mut current: Option<usize> = None;
    let mut last = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_CYCLES {
        let mut hook = |name: &'static str| {
            let now = ALLOCS.load(Ordering::Relaxed);
            if let Some(idx) = current {
                per_phase[idx] += now - last;
            }
            last = now;
            current = PHASES.iter().position(|&p| p == name);
        };
        sim.network_mut().step_with_phase_hook(&mut hook);
    }
    assert!(
        sim.network().stats.total_delivered > 0,
        "per-phase pin ran an idle loop"
    );
    for (phase, &allocs) in PHASES.iter().zip(&per_phase) {
        assert_eq!(
            allocs, 0,
            "phase `{phase}` performed {allocs} heap allocations in {MEASURED_CYCLES} \
             steady-state cycles (probes enabled)"
        );
    }
}

/// The job runtime and the 2-shard cycle loop — compute, export, barrier,
/// import — allocate nothing either.  On 2 shards: Bernoulli injection, a job
/// trace whose delivery feedback is broadcast every cycle, and a static
/// workload; the workload also on the sequential engine.  Both the trace's
/// and the workload's jobs cover most of the machine, round-robin over the
/// routers so they straddle the shard boundary, and run past the measured
/// window; the workload's first job switches phase in its middle.
fn job_and_sharded_cycle_loops() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.seed = 42;
    let config = spec.sim_config();
    let nodes = config.params.num_nodes();
    let placement = PlacementPolicy::RoundRobinRouters;
    let job = |name: &str, size| TraceJob {
        name: name.into(),
        arrival: 0,
        size,
        placement,
        pattern: JobPattern::Uniform,
        offered_load: 0.2,
        completion: Completion::Duration(10 * (WARMUP_CYCLES + MEASURED_CYCLES)),
    };
    let trace = Trace::new("steady", vec![job("a", nodes / 2), job("b", nodes / 3)]);
    let switch = WARMUP_CYCLES + MEASURED_CYCLES / 2;
    let workload = WorkloadSpec::new(vec![
        JobSpec::new("app", nodes / 2, placement, JobPattern::Uniform, 0.1).then_at(
            switch,
            JobPattern::RingExchange,
            0.1,
        ),
        JobSpec::new("bg", nodes / 3, placement, JobPattern::AllToAll, 0.05),
    ]);
    let cases: [(&str, Option<&dyn JobList>); 3] = [
        ("Bernoulli injection", None),
        ("a job trace", Some(&trace)),
        ("a static workload switching phase", Some(&workload)),
    ];
    for (case, jobs) in cases {
        let plan = ShardPlan::new(2);
        let mut sim = ShardedSimulation::new(config.clone(), plan, Olm::default(), || {
            Box::new(Uniform::new())
        });
        assert_loop_allocation_free(&mut sim, jobs, &format!("2 shards under {case}"));
        for s in 0..sim.shards() {
            let delivered = sim.network(s).stats.total_delivered;
            assert!(
                delivered > 0,
                "2 shards under {case}: shard {s} delivered nothing"
            );
        }
    }
    let uniform = Box::new(Uniform::new());
    let mut sim = Simulation::with_routing(config, Olm::default(), uniform);
    assert_loop_allocation_free(
        &mut sim,
        Some(&workload),
        "a static workload switching phase",
    );
    let now = sim.network().jobs().unwrap().source(0);
    assert_eq!(
        now,
        Some((0, 1)),
        "the measured window must contain the switch"
    );
}

/// Install `jobs` (or Bernoulli injection without them) and every probe on
/// `sim`, warm up, and assert that the measured cycles allocate nothing and
/// deliver something.
fn assert_loop_allocation_free<H: EngineHost>(sim: &mut H, jobs: Option<&dyn JobList>, case: &str) {
    sim.install_probes(ProbeConfig {
        delay: true,
        ..ProbeConfig::full_active(64)
    });
    if let Some(jobs) = jobs {
        sim.install_jobs(jobs);
    }
    let packet_size = sim.replica().config.packet_size;
    let (delta, delivered) = sim.drive(|engine| {
        if jobs.is_none() {
            engine.set_injection(Some(BernoulliInjection::new(0.1, packet_size)));
        }
        for _ in 0..WARMUP_CYCLES {
            engine.step();
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        let delivered = engine.delivered();
        for _ in 0..MEASURED_CYCLES {
            engine.step();
        }
        (
            ALLOCS.load(Ordering::Relaxed) - before,
            engine.delivered() - delivered,
        )
    });
    assert!(
        delivered > 0,
        "{case} delivered nothing in the measured window"
    );
    assert_eq!(
        delta, 0,
        "{case}: {delta} heap allocations in {MEASURED_CYCLES} steady-state cycles \
         (probes enabled)"
    );
}
