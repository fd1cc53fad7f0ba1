//! Parameter sweeps: the experiment lists behind every figure of the paper.

use crate::experiment::{ExperimentSpec, FlowControlKind, TrafficKind};
use dragonfly_routing::RoutingKind;
use dragonfly_topology::DragonflyParams;
use dragonfly_workload::{PlacementPolicy, Trace, WorkloadSpec};

/// A sweep over offered load for a fixed set of mechanisms (Figures 4, 5, 7, 8).
#[derive(Debug, Clone)]
pub struct LoadSweep {
    /// Base specification (h, flow control, traffic, cycles, seed).
    pub base: ExperimentSpec,
    /// Mechanisms to compare.
    pub mechanisms: Vec<RoutingKind>,
    /// Offered-load points.
    pub loads: Vec<f64>,
}

/// A sweep over the misrouting threshold for one mechanism (Figures 10 and 11).
#[derive(Debug, Clone)]
pub struct ThresholdSweep {
    /// Base specification.
    pub base: ExperimentSpec,
    /// Thresholds to evaluate (fractions, e.g. 0.30 … 0.60).
    pub thresholds: Vec<f64>,
    /// Offered-load points.
    pub loads: Vec<f64>,
}

/// A sweep over the ADVG/ADVL traffic mix (Figures 6 and 9).
#[derive(Debug, Clone)]
pub struct MixSweep {
    /// Base specification.
    pub base: ExperimentSpec,
    /// Mechanisms to compare.
    pub mechanisms: Vec<RoutingKind>,
    /// Global-traffic percentages (0 ..= 100).
    pub global_percentages: Vec<u32>,
    /// Group offset of the ADVG component (the paper uses `h`).
    pub global_offset: usize,
    /// Router offset of the ADVL component (the paper uses 1).
    pub local_offset: usize,
}

/// Build the load-sweep specification list; one spec per (mechanism, load) pair, in
/// row-major order (mechanism outer, load inner).
pub fn load_sweep(sweep: &LoadSweep) -> Vec<ExperimentSpec> {
    let mut specs = Vec::with_capacity(sweep.mechanisms.len() * sweep.loads.len());
    for &mechanism in &sweep.mechanisms {
        for &load in &sweep.loads {
            let mut spec = sweep.base.clone();
            spec.routing = mechanism;
            spec.offered_load = load;
            if spec.flow_control == FlowControlKind::Wormhole && !mechanism.supports_wormhole() {
                continue;
            }
            specs.push(spec);
        }
    }
    specs
}

/// Build the threshold-sweep specification list (mechanism fixed in `base.routing`).
pub fn threshold_sweep(sweep: &ThresholdSweep) -> Vec<ExperimentSpec> {
    let mut specs = Vec::with_capacity(sweep.thresholds.len() * sweep.loads.len());
    for &threshold in &sweep.thresholds {
        for &load in &sweep.loads {
            let mut spec = sweep.base.clone();
            spec.threshold = threshold;
            spec.offered_load = load;
            specs.push(spec);
        }
    }
    specs
}

/// Build the mix-sweep specification list; offered load is taken from the base spec
/// (the paper uses 1 phit/(node·cycle)).
pub fn mix_sweep(sweep: &MixSweep) -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for &mechanism in &sweep.mechanisms {
        if sweep.base.flow_control == FlowControlKind::Wormhole && !mechanism.supports_wormhole() {
            continue;
        }
        for &pct in &sweep.global_percentages {
            let mut spec = sweep.base.clone();
            spec.routing = mechanism;
            spec.traffic = TrafficKind::Mixed {
                global_fraction: pct as f64 / 100.0,
                global_offset: sweep.global_offset,
                local_offset: sweep.local_offset,
            };
            specs.push(spec);
        }
    }
    specs
}

/// A caminos-style workload-interference grid: mechanism × placement policy ×
/// aggressor load, each point an aggressor/victim workload (see
/// [`WorkloadSpec::interference_placed`]).
#[derive(Debug, Clone)]
pub struct InterferenceSweep {
    /// Base specification (h, flow control, cycles, seed).
    pub base: ExperimentSpec,
    /// Mechanisms to compare.
    pub mechanisms: Vec<RoutingKind>,
    /// Placement policies applied to both jobs.
    pub placements: Vec<PlacementPolicy>,
    /// Aggressor offered loads in phits/(node·cycle).
    pub aggressor_loads: Vec<f64>,
    /// Group offset of the aggressor's ADVG pattern.
    pub aggressor_offset: usize,
    /// Victim offered load in phits/(node·cycle).
    pub victim_load: f64,
}

/// Build the interference-grid specification list, row-major (mechanism outer,
/// placement middle, aggressor load inner).  Every spec carries
/// [`TrafficKind::Workload`] traffic, so the points run through
/// [`crate::SweepRunner::run_workloads`].
pub fn interference_sweep(sweep: &InterferenceSweep) -> Vec<ExperimentSpec> {
    let num_nodes = DragonflyParams::new(sweep.base.h).num_nodes();
    let mut specs = Vec::with_capacity(
        sweep.mechanisms.len() * sweep.placements.len() * sweep.aggressor_loads.len(),
    );
    for &mechanism in &sweep.mechanisms {
        for &placement in &sweep.placements {
            for &load in &sweep.aggressor_loads {
                let mut spec = sweep.base.clone();
                spec.routing = mechanism;
                spec.traffic = TrafficKind::Workload(WorkloadSpec::interference_placed(
                    num_nodes,
                    sweep.aggressor_offset,
                    load,
                    sweep.victim_load,
                    placement,
                ));
                specs.push(spec);
            }
        }
    }
    specs
}

/// A churn grid: mechanism × job-arrival trace, each point a full churn
/// run through `Simulation::run_trace`.  The traces are typically scenario
/// variants (e.g. [`dragonfly_workload::scenarios::fragmentation_trace`] at several
/// aggressor loads, fragmented and fresh), so a row compares how each routing
/// mechanism copes with the same churn history.
#[derive(Debug, Clone)]
pub struct ChurnSweep {
    /// Base specification (h, flow control, seed; `measure` is the run horizon and
    /// `drain` the post-horizon drain budget).
    pub base: ExperimentSpec,
    /// Mechanisms to compare.
    pub mechanisms: Vec<RoutingKind>,
    /// Job-arrival traces (scenario variants), labelled by [`Trace::name`].
    pub traces: Vec<Trace>,
}

/// Build the churn-grid specification list, row-major (mechanism outer, trace
/// inner).  Every spec carries [`TrafficKind::Churn`] traffic, so the points run
/// through [`crate::SweepRunner::run_workloads`].
pub fn churn_sweep(sweep: &ChurnSweep) -> Vec<ExperimentSpec> {
    let mut specs = Vec::with_capacity(sweep.mechanisms.len() * sweep.traces.len());
    for &mechanism in &sweep.mechanisms {
        for trace in &sweep.traces {
            let mut spec = sweep.base.clone();
            spec.routing = mechanism;
            spec.traffic = TrafficKind::Churn(trace.clone());
            specs.push(spec);
        }
    }
    specs
}

/// The offered-load points of the figure rows when none are given.
pub fn default_loads() -> Vec<f64> {
    vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
}

/// The threshold points of Figures 10 and 11.
pub fn paper_thresholds() -> Vec<f64> {
    vec![0.30, 0.40, 0.45, 0.50, 0.60]
}

/// The global-traffic percentages of Figures 6 and 9.
pub fn paper_mix_percentages() -> Vec<u32> {
    vec![0, 20, 40, 60, 80, 100]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentSpec {
        ExperimentSpec::new(2)
    }

    #[test]
    fn load_sweep_cartesian_product() {
        let sweep = LoadSweep {
            base: base(),
            mechanisms: vec![RoutingKind::Olm, RoutingKind::Rlm, RoutingKind::Minimal],
            loads: vec![0.1, 0.2],
        };
        let specs = load_sweep(&sweep);
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].routing, RoutingKind::Olm);
        assert_eq!(specs[0].offered_load, 0.1);
        assert_eq!(specs[1].offered_load, 0.2);
        assert_eq!(specs[2].routing, RoutingKind::Rlm);
    }

    #[test]
    fn load_sweep_drops_olm_under_wormhole() {
        let mut b = base();
        b.flow_control = FlowControlKind::Wormhole;
        let sweep = LoadSweep {
            base: b,
            mechanisms: vec![RoutingKind::Olm, RoutingKind::Rlm],
            loads: vec![0.1],
        };
        let specs = load_sweep(&sweep);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].routing, RoutingKind::Rlm);
    }

    #[test]
    fn threshold_sweep_sets_threshold() {
        let sweep = ThresholdSweep {
            base: base(),
            thresholds: vec![0.3, 0.45],
            loads: vec![0.1, 0.5],
        };
        let specs = threshold_sweep(&sweep);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].threshold, 0.3);
        assert_eq!(specs[3].threshold, 0.45);
        assert_eq!(specs[3].offered_load, 0.5);
    }

    #[test]
    fn mix_sweep_builds_mixed_traffic() {
        let sweep = MixSweep {
            base: base(),
            mechanisms: vec![RoutingKind::Olm, RoutingKind::Piggybacking],
            global_percentages: vec![0, 50, 100],
            global_offset: 2,
            local_offset: 1,
        };
        let specs = mix_sweep(&sweep);
        assert_eq!(specs.len(), 6);
        match specs[1].traffic {
            TrafficKind::Mixed {
                global_fraction,
                global_offset,
                local_offset,
            } => {
                assert!((global_fraction - 0.5).abs() < 1e-12);
                assert_eq!(global_offset, 2);
                assert_eq!(local_offset, 1);
            }
            _ => panic!("expected mixed traffic"),
        }
    }

    #[test]
    fn interference_sweep_builds_workload_grid() {
        let sweep = InterferenceSweep {
            base: base(),
            mechanisms: vec![RoutingKind::Minimal, RoutingKind::Olm],
            placements: vec![
                PlacementPolicy::Contiguous,
                PlacementPolicy::RoundRobinRouters,
            ],
            aggressor_loads: vec![0.1, 0.3, 0.5],
            aggressor_offset: 1,
            victim_load: 0.1,
        };
        let specs = interference_sweep(&sweep);
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].routing, RoutingKind::Minimal);
        assert_eq!(specs[11].routing, RoutingKind::Olm);
        let workload = specs[3].traffic.workload().expect("workload traffic");
        assert_eq!(
            workload.jobs[0].placement,
            PlacementPolicy::RoundRobinRouters
        );
        assert!((workload.jobs[0].phases[0].offered_load - 0.1).abs() < 1e-12);
        let last = specs[11].traffic.workload().expect("workload traffic");
        assert!((last.jobs[0].phases[0].offered_load - 0.5).abs() < 1e-12);
    }

    #[test]
    fn churn_sweep_builds_trace_grid() {
        use dragonfly_workload::scenarios::fragmentation_trace;
        let p = DragonflyParams::new(2);
        let traces = vec![
            fragmentation_trace(&p, false, 0.5, 0.1, 1_000, 4_000, 1),
            fragmentation_trace(&p, true, 0.5, 0.1, 1_000, 4_000, 1),
        ];
        let sweep = ChurnSweep {
            base: base(),
            mechanisms: vec![RoutingKind::Minimal, RoutingKind::Olm],
            traces,
        };
        let specs = churn_sweep(&sweep);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].routing, RoutingKind::Minimal);
        assert_eq!(specs[0].traffic.churn().unwrap().name, "fresh");
        assert_eq!(specs[1].traffic.churn().unwrap().name, "frag");
        assert_eq!(specs[3].routing, RoutingKind::Olm);
        assert!(specs.iter().all(|s| s.traffic.jobs().is_some()));
    }

    #[test]
    fn default_points_are_sensible() {
        assert!(default_loads().iter().all(|&l| l > 0.0 && l <= 1.0));
        assert_eq!(paper_thresholds().len(), 5);
        assert_eq!(*paper_mix_percentages().last().unwrap(), 100);
    }
}
