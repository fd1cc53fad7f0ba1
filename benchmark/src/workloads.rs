//! The six named workloads.  Each stresses a different layer; README.md
//! records why each exists and which metric rows it is expected to move.

use crate::surface::{
    default_loads, load_sweep, ExperimentSpec, FlowControlKind, LoadSweep, RoutingKind, TrafficKind,
};

/// Seed used when none is given; the reference digests are recorded at it.
pub const DEFAULT_SEED: u64 = 1;

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One sequential engine, steady-state protocol.
    Steady,
    /// The same protocol through the sharded twin engine.
    Sharded { shards: usize },
    /// One sequential engine, burst-consumption protocol.
    Batch {
        packets_per_node: u64,
        max_cycles: u64,
    },
    /// A figure-style grid of short simulations through `SweepRunner`; only
    /// every `stride`-th grid point runs (1 = the whole grid).
    Sweep { jobs: usize, stride: usize },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// The run's spec; for a sweep, the base spec of every grid point.
    pub spec: ExperimentSpec,
    /// Offered load exceeds what the network accepts, so source queues grow
    /// and the drain stage is expected to use its whole budget.
    pub saturated: bool,
    /// Workload whose report this one must reproduce byte for byte.
    pub twin: Option<&'static str>,
}

pub const NAMES: [&str; 6] = [
    "un_h8",
    "un_h8_shard2",
    "adv_sat_h4",
    "idle_h6",
    "burst_wh_h4",
    "sweep_h2",
];

fn spec(
    h: usize,
    routing: RoutingKind,
    flow_control: FlowControlKind,
    traffic: TrafficKind,
    load: f64,
    cycles: (u64, u64, u64),
) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(h);
    spec.routing = routing;
    spec.flow_control = flow_control;
    spec.traffic = traffic;
    spec.offered_load = load;
    (spec.warmup, spec.measure, spec.drain) = cycles;
    spec
}

/// The workload called `name`, seeded with `seed`.  `quick` shrinks every
/// workload to h = 2 (and thins the sweep grid) so the whole plumbing runs in
/// seconds; quick numbers are labelled as such and never compared.
pub fn workload(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    use FlowControlKind::{Vct, Wormhole};
    let size = |h: usize| if quick { 2 } else { h };
    let h4 = size(4);
    let un_h8 = spec(
        size(8),
        RoutingKind::Olm,
        Vct,
        TrafficKind::Uniform,
        0.2,
        (150, 300, 300),
    );
    let mut w = match name {
        "un_h8" => Workload {
            name: "un_h8",
            why: "paper-scale h=8 OLM/UN point: memory-bound link walking, the only large-RSS run",
            kind: Kind::Steady,
            spec: un_h8,
            saturated: false,
            twin: None,
        },
        "un_h8_shard2" => Workload {
            name: "un_h8_shard2",
            why: "un_h8 through the 2-shard engine: isolates the shard layer's time and memory",
            kind: Kind::Sharded { shards: 2 },
            spec: un_h8,
            saturated: false,
            twin: Some("un_h8"),
        },
        "adv_sat_h4" => Workload {
            name: "adv_sat_h4",
            why: "saturated ADVG+h at h=4: every router busy, route() and VC allocation dominate",
            kind: Kind::Steady,
            spec: spec(
                h4,
                RoutingKind::Olm,
                Vct,
                TrafficKind::advg_h(h4),
                0.4,
                (1_000, 2_000, 2_000),
            ),
            saturated: true,
            twin: None,
        },
        "idle_h6" => Workload {
            name: "idle_h6",
            why: "near-idle h=6 Minimal/UN at load 0.005: per-cycle fixed cost, routing near zero",
            kind: Kind::Steady,
            spec: spec(
                size(6),
                RoutingKind::Minimal,
                Vct,
                TrafficKind::Uniform,
                0.005,
                (12_000, 40_000, 40_000),
            ),
            saturated: false,
            twin: None,
        },
        "burst_wh_h4" => Workload {
            name: "burst_wh_h4",
            why: "wormhole RLM burst drained to empty: per-flit claims, injection off, long tail",
            kind: Kind::Batch {
                packets_per_node: 32,
                max_cycles: 2_000_000,
            },
            spec: spec(
                h4,
                RoutingKind::Rlm,
                Wormhole,
                TrafficKind::AdversarialGlobal(1),
                0.0,
                (0, 0, 0),
            ),
            saturated: false,
            twin: None,
        },
        "sweep_h2" => Workload {
            name: "sweep_h2",
            why:
                "fig4_5-style h=2 grid via SweepRunner: per-point set-up and the parallel executor",
            kind: Kind::Sweep {
                jobs: 2,
                stride: if quick { 3 } else { 1 },
            },
            spec: spec(
                2,
                RoutingKind::Minimal,
                Vct,
                TrafficKind::Uniform,
                0.0,
                (500, 1_000, 1_000),
            ),
            saturated: false,
            twin: None,
        },
        _ => return None,
    };
    w.spec.seed = seed;
    Some(w)
}

/// The grid of a sweep workload: every mechanism × UN / ADVG+1 / ADVG+h × the
/// figure binaries' default loads (the `fig4_5` grid with all seven mechanisms).
pub fn sweep_specs(base: &ExperimentSpec, stride: usize) -> Vec<ExperimentSpec> {
    let patterns = [
        TrafficKind::Uniform,
        TrafficKind::AdversarialGlobal(1),
        TrafficKind::advg_h(base.h),
    ];
    let mut specs = Vec::new();
    for traffic in patterns {
        let mut base = base.clone();
        base.traffic = traffic;
        specs.extend(load_sweep(&LoadSweep {
            base,
            mechanisms: RoutingKind::ALL.to_vec(),
            loads: default_loads(),
        }));
    }
    specs.into_iter().step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_carries_the_seed() {
        for name in NAMES {
            for quick in [false, true] {
                let w = workload(name, 77, quick).unwrap();
                assert_eq!(w.name, name);
                assert_eq!(w.spec.seed, 77);
                assert!(w.why.len() <= 200 && !w.why.contains('\n'));
                if quick {
                    assert_eq!(w.spec.h, 2);
                }
            }
        }
        assert!(workload("nope", 1, false).is_none());
    }

    #[test]
    fn the_sharded_workload_is_the_twin_of_un_h8() {
        let seq = workload("un_h8", 5, false).unwrap();
        let shard = workload("un_h8_shard2", 5, false).unwrap();
        assert_eq!(shard.twin, Some("un_h8"));
        assert_eq!(format!("{:?}", seq.spec), format!("{:?}", shard.spec));
    }

    #[test]
    fn sweep_grid_covers_every_mechanism_and_pattern() {
        let w = workload("sweep_h2", 1, false).unwrap();
        let specs = sweep_specs(&w.spec, 1);
        // 7 mechanisms × 3 patterns × 11 loads, all VCT.
        assert_eq!(specs.len(), 231);
        for kind in RoutingKind::ALL {
            assert_eq!(specs.iter().filter(|s| s.routing == kind).count(), 33);
        }
        assert!(specs.iter().all(|s| s.seed == 1 && s.measure == 1_000));
        assert_eq!(sweep_specs(&w.spec, 3).len(), 77);
    }
}
