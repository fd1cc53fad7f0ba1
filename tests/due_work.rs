//! The due-work structures against the full scans they replace.
//!
//! Every phase of the cycle visits only what has work due: links whose
//! `next_due` stamp has matured, input ports in `in_occupied`, output ports in
//! `out_owned`, nodes in `pending_sources` (ARCHITECTURE.md, "The per-cycle
//! pipeline").  A stale bit is a packet that is never routed, a phit that is
//! never delivered, or a queue that is never fed — so after **every** cycle
//! `Network::check_due_sets` rebuilds each structure from a scan of every VC,
//! source queue and link ring and compares.  The same call checks ownership:
//! on a shard, nothing outside its router range is ever a member of a
//! structure or has storage behind it (husk routers, zero-capacity rings).
//!
//! Debug builds assert the same comparison at the close of every cycle of
//! every test; this file steps it explicitly so the pin also holds in
//! `--release` (CI runs `cargo test --release --test due_work`), over a matrix
//! chosen to reach the regimes the structures exist for: a nearly idle
//! machine, a loaded one, a saturated one whose source queues only grow, and a
//! preloaded burst drained until every structure is empty again — for all
//! seven mechanisms, both flow controls, benign and adversarial traffic,
//! h ∈ {2, 3}, on the sequential engine and on two shards (where boundary
//! links are emptied by export and refilled by import between cycles).  Every
//! cell of the matrix runs under its own seed.
//!
//! Jobs get the same treatment: a static workload whose aggressor switches
//! phase mid-run, and a churn trace whose departures leave holes that a new
//! pair is re-placed into, for every mechanism.
//!
//! The piggybacking board is event-driven too — only channels whose global
//! output changed occupancy are re-evaluated — so `Network::check_pb_board`
//! compares it with a full scan of the outputs after every cycle of the same
//! matrix (PB keeps the board; for the other mechanisms it is not kept and
//! the check is trivially `Ok`), and after every cycle of an OLM run whose
//! probe, which reads the board, is installed mid-run.

use dragonfly::core::{
    AdaptiveParams, ExperimentSpec, FlowControlKind, JobPattern, ProbeConfig, RoutingKind,
    ShardPlan, ShardedSimulation, Trace, TrafficKind,
};
use dragonfly::routing::{Olm, RoutingVisitor};
use dragonfly::sim::{Control, Engine, EngineHost, Network, RoutingAlgorithm, Simulation};
use dragonfly::traffic::{BernoulliInjection, TrafficPattern, Uniform};
use dragonfly::workload::scenarios::fragmentation_trace;

/// What drives the engine.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Bernoulli injection at this offered load for [`STEADY_CYCLES`].
    Steady(f64),
    /// This many packets preloaded per node, stepped until drained.
    Burst(u64),
    /// The spec's jobs, stepped for [`JOB_CYCLES`].
    Jobs,
}

const STEADY_CYCLES: u64 = 300;
const BURST_LIMIT: u64 = 30_000;
/// Long enough for the jobs regime's phase switch, departures and
/// re-placement ([`jobs_matrix`]).
const JOB_CYCLES: u64 = 900;

/// An engine whose every network replica can be checked between cycles:
/// the due-work sets and the piggybacking board.
trait Checked: EngineHost {
    fn check(&self) -> Result<(), String>;
}

fn check_network<R: RoutingAlgorithm>(net: &Network<R>) -> Result<(), String> {
    net.check_due_sets()?;
    net.check_pb_board()
}

impl<R: RoutingAlgorithm> Checked for Simulation<R> {
    fn check(&self) -> Result<(), String> {
        check_network(self.network())
    }
}

impl<R: RoutingAlgorithm + Clone> Checked for ShardedSimulation<R> {
    fn check(&self) -> Result<(), String> {
        (0..self.shards()).try_for_each(|shard| {
            check_network(self.network(shard))
                .map_err(|diverged| format!("shard {shard}: {diverged}"))
        })
    }
}

/// Install `spec`'s jobs, if any, and drive `host` through `regime`, checking
/// after the set-up and after every cycle.  Returns `(generated, delivered)`.
fn run_checked<H: Checked>(
    host: &mut H,
    regime: Regime,
    spec: &ExperimentSpec,
    case: &str,
) -> (u64, u64) {
    let check = |host: &H, at: &str| {
        if let Err(diverged) = host.check() {
            panic!("{case}, {at}: {diverged}");
        }
    };
    if let Some(jobs) = spec.traffic.jobs() {
        host.install_jobs(jobs);
    }
    let packet_size = spec.sim_config().packet_size;
    host.drive(|engine| match regime {
        Regime::Steady(load) => engine.control(Control::Injection(Some(BernoulliInjection::new(
            load,
            packet_size,
        )))),
        Regime::Burst(packets) => engine.control(Control::Burst(packets)),
        Regime::Jobs => {}
    });
    check(host, "after set-up");
    let limit = match regime {
        Regime::Steady(_) => STEADY_CYCLES,
        Regime::Burst(_) => BURST_LIMIT,
        Regime::Jobs => JOB_CYCLES,
    };
    // Read inside the stepping call: a sharded engine's facts are published by
    // its workers as they step.
    let mut counts = (0, 0);
    let mut drained = false;
    for cycle in 0..limit {
        (counts, drained) = host.drive(|engine| {
            engine.step();
            let status = engine.status();
            assert!(!status.deadlocked, "{case}: watchdog fired");
            ((status.generated, status.delivered), status.drained)
        });
        check(host, &format!("after cycle {cycle}"));
        if drained && matches!(regime, Regime::Burst(_)) {
            break;
        }
    }
    if let Regime::Burst(_) = regime {
        assert!(drained, "{case}: burst not drained in {BURST_LIMIT} cycles");
        assert_eq!(counts.0, counts.1, "{case}: drained with packets missing");
    }
    if let Some(jobs) = host.replica().jobs() {
        // The run reached what the regime is for: a phase switch (the static
        // aggressor's first node is in phase 1), or departures and placements
        // after cycle 0.
        let lifetimes: Vec<_> = (0..jobs.num_jobs() as u16)
            .map(|j| jobs.job(j).lifetime())
            .collect();
        let reached = if jobs.is_static() {
            jobs.source(jobs.job(0).nodes()[0].index()) == Some((0, 1))
        } else {
            lifetimes
                .iter()
                .any(|l| l.placed > Some(0) && l.completed.is_some())
        };
        assert!(
            reached,
            "{case}: no phase switch or re-placement: {lifetimes:?}"
        );
    }
    counts
}

/// Builds the engine under test around the concrete mechanism and runs it.
struct Case<'a> {
    spec: &'a ExperimentSpec,
    regime: Regime,
    shards: Option<usize>,
    name: &'a str,
}

impl RoutingVisitor for Case<'_> {
    type Output = (u64, u64);

    fn visit<R: RoutingAlgorithm + Clone + 'static>(self, routing: R) -> (u64, u64) {
        let config = self.spec.sim_config();
        let params = config.params;
        let traffic = || -> Box<dyn TrafficPattern> {
            match self.spec.traffic.jobs() {
                Some(_) => Box::new(Uniform::new()),
                None => self.spec.traffic.build(&params),
            }
        };
        match self.shards {
            None => {
                let mut sim = Simulation::with_routing(config, routing, traffic());
                run_checked(&mut sim, self.regime, self.spec, self.name)
            }
            Some(shards) => {
                let mut sim =
                    ShardedSimulation::new(config, ShardPlan::new(shards), routing, traffic);
                run_checked(&mut sim, self.regime, self.spec, self.name)
            }
        }
    }
}

/// The matrix on one engine kind: every mechanism × flow control × traffic ×
/// regime, each cell with its own seed, h alternating between 2 and 3 from
/// cell to cell so that every mechanism, traffic and regime meets both sizes.
fn matrix(shards: Option<usize>) {
    let traffics = [TrafficKind::Uniform, TrafficKind::AdversarialGlobal(1)];
    let mut seed = 0xD0E_u64;
    let mut moved = 0u64;
    for fc in [FlowControlKind::Vct, FlowControlKind::Wormhole] {
        // One 80-phit wormhole packet per node is already a long tail.
        let burst = match fc {
            FlowControlKind::Vct => 3,
            FlowControlKind::Wormhole => 1,
        };
        let regimes = [
            Regime::Steady(0.005),
            Regime::Steady(0.2),
            Regime::Steady(1.0),
            Regime::Burst(burst),
        ];
        let mechanisms = RoutingKind::ALL
            .into_iter()
            .filter(|r| fc == FlowControlKind::Vct || r.supports_wormhole());
        for (m, routing) in mechanisms.enumerate() {
            for (t, traffic) in traffics.iter().enumerate() {
                for (r, &regime) in regimes.iter().enumerate() {
                    seed += 1;
                    let mut spec = ExperimentSpec::new(2 + (m + t + r) % 2);
                    spec.routing = routing;
                    spec.flow_control = fc;
                    spec.traffic = traffic.clone();
                    spec.seed = seed;
                    let name = format!(
                        "h={} {} {} {} {regime:?} shards={shards:?} seed={seed}",
                        spec.h,
                        routing.name(),
                        fc.name(),
                        traffic.name()
                    );
                    let (generated, delivered) = routing.dispatch(
                        AdaptiveParams::with_threshold(spec.threshold),
                        Case {
                            spec: &spec,
                            regime,
                            shards,
                            name: &name,
                        },
                    );
                    assert!(delivered <= generated, "{name}");
                    // Every burst is delivered in full (asserted by the run);
                    // a loaded window must at least have injected.
                    if matches!(regime, Regime::Steady(load) if load > 0.1) {
                        assert!(generated > 0, "{name}: nothing generated");
                    }
                    moved += delivered;
                }
            }
        }
    }
    assert!(moved > 10_000, "the matrix moved only {moved} packets");
}

/// The jobs regime for every mechanism (VCT), h alternating between 2 and 3:
/// the interference workload with its aggressor switching from ADVG+1 to
/// all-to-all at cycle 450, and a fragmenting churn trace — half the fillers
/// depart at cycle 300, an aggressor/victim pair is placed into their holes,
/// and everything departs at cycle 700.
fn jobs_matrix(shards: Option<usize>) {
    let mut seed = 0x10B5_u64;
    let mut moved = 0u64;
    for (m, routing) in RoutingKind::ALL.into_iter().enumerate() {
        for churn in [false, true] {
            seed += 1;
            let mut spec = ExperimentSpec::new(2 + (m + churn as usize) % 2);
            let params = spec.sim_config().params;
            spec.routing = routing;
            spec.seed = seed;
            let mut jobs = Trace::interference(params.num_nodes(), 1, 0.3, 0.1).jobs;
            jobs[0] = jobs[0].clone().then_at(450, JobPattern::AllToAll, 0.2);
            spec.traffic = if churn {
                TrafficKind::Jobs(fragmentation_trace(&params, true, 0.3, 0.1, 300, 700, seed))
            } else {
                TrafficKind::Jobs(Trace::new("wl", jobs))
            };
            let name = format!("h={} {routing:?} churn={churn} shards={shards:?}", spec.h);
            let (generated, delivered) = routing.dispatch(
                AdaptiveParams::with_threshold(spec.threshold),
                Case {
                    spec: &spec,
                    regime: Regime::Jobs,
                    shards,
                    name: &name,
                },
            );
            assert!(generated > 0 && delivered <= generated, "{name}");
            moved += delivered;
        }
    }
    assert!(moved > 10_000, "the jobs matrix moved only {moved} packets");
}

#[test]
fn due_sets_match_a_full_scan_every_cycle_sequential() {
    matrix(None);
    jobs_matrix(None);
}

/// Checking between the cycles of a sharded engine means joining and
/// respawning its workers every cycle, which a debug build makes slower
/// still — and a debug build already asserts the very same comparison inside
/// every shard's `close_cycle`, in this and every other test.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds assert this inside every cycle; run with --release"
)]
fn due_sets_match_a_full_scan_every_cycle_on_two_shards() {
    matrix(Some(2));
    jobs_matrix(Some(2));
}

/// OLM does not read the piggybacking board, so nothing keeps it until a
/// probe — whose `pb_congested` series reads it — is installed after 500
/// cycles of ADVG+1 traffic.  The install rebuilds the board from a full
/// scan, and from then on every cycle must leave it equal to the scan:
/// sequentially and on two shards.
fn olm_board_from_a_mid_run_probe(shards: Option<usize>) {
    let mut spec = ExperimentSpec::new(3);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.seed = 0xB0A2D;
    let config = spec.sim_config();
    let traffic = || spec.traffic.build(&config.params);
    let routing = Olm::new(AdaptiveParams::with_threshold(spec.threshold));
    let case = format!("OLM, probe installed at cycle 500, shards={shards:?}");
    let peak = match shards {
        None => drive_probed_late(
            &mut Simulation::with_routing(config.clone(), routing, traffic()),
            &case,
        ),
        Some(shards) => drive_probed_late(
            &mut ShardedSimulation::new(config.clone(), ShardPlan::new(shards), routing, traffic),
            &case,
        ),
    };
    assert!(peak > 0, "{case}: no global channel ever congested");
}

/// Run 500 cycles at saturation, install the probes, run 400 more checking
/// after every cycle; returns the peak of the probe's `pb_congested` column.
fn drive_probed_late<H: Checked>(host: &mut H, case: &str) -> u64 {
    let packet_size = host.replica().config.packet_size;
    host.drive(|engine| {
        engine.control(Control::Injection(Some(BernoulliInjection::new(
            0.6,
            packet_size,
        ))));
        for _ in 0..500 {
            engine.step();
        }
    });
    host.install_probes(ProbeConfig::full(8));
    if let Err(diverged) = host.check() {
        panic!("{case}, after the install: {diverged}");
    }
    for cycle in 500..900 {
        host.drive(|engine| engine.step());
        if let Err(diverged) = host.check() {
            panic!("{case}, after cycle {cycle}: {diverged}");
        }
    }
    let probe = host.collect_probe().expect("probes were installed");
    let pb_congested = probe.column("pb_congested").unwrap();
    pb_congested.into_iter().max().unwrap_or(0)
}

#[test]
fn pb_board_matches_a_full_scan_after_a_mid_run_probe_sequential() {
    olm_board_from_a_mid_run_probe(None);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds assert this inside every cycle; run with --release"
)]
fn pb_board_matches_a_full_scan_after_a_mid_run_probe_on_two_shards() {
    olm_board_from_a_mid_run_probe(Some(2));
}
