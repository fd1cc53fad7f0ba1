//! Parameter sweeps: the experiment lists behind every figure of the paper.

use crate::experiment::{ExperimentSpec, FlowControlKind, TrafficKind};
use dragonfly_routing::RoutingKind;
use dragonfly_workload::Trace;

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

/// A job grid: mechanism × job list, each point one [`TrafficKind::Jobs`]
/// run.  The lists are typically scenario variants — interference workloads
/// at several placements and aggressor loads ([`Trace::interference_placed`]),
/// or [`dragonfly_workload::scenarios::fragmentation_trace`] fragmented and
/// fresh — so a row compares how each routing mechanism copes with the same
/// jobs.
#[derive(Debug, Clone)]
pub struct JobSweep {
    /// Base specification (h, flow control, cycles, seed; a churn trace's
    /// horizon is `measure` and its post-horizon drain budget `drain`).
    pub base: ExperimentSpec,
    /// Mechanisms to compare.
    pub mechanisms: Vec<RoutingKind>,
    /// The job lists (scenario variants).
    pub traces: Vec<Trace>,
}

/// Build the job-grid specification list, row-major (mechanism outer, job
/// list inner).  Every spec carries [`TrafficKind::Jobs`] traffic, so the
/// points run through [`crate::SweepRunner::run_workloads`].
pub fn job_sweep(sweep: &JobSweep) -> Vec<ExperimentSpec> {
    let mut specs = Vec::with_capacity(sweep.mechanisms.len() * sweep.traces.len());
    for &mechanism in &sweep.mechanisms {
        for trace in &sweep.traces {
            let mut spec = sweep.base.clone();
            spec.routing = mechanism;
            spec.traffic = TrafficKind::Jobs(trace.clone());
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
        use dragonfly_workload::PlacementPolicy;
        let placements = [
            PlacementPolicy::Contiguous,
            PlacementPolicy::RoundRobinRouters,
        ];
        let traces = placements.iter().flat_map(|&placement| {
            [0.1, 0.3, 0.5].map(|load| Trace::interference_placed(72, 1, load, 0.1, placement))
        });
        let sweep = JobSweep {
            base: base(),
            mechanisms: vec![RoutingKind::Minimal, RoutingKind::Olm],
            traces: traces.collect(),
        };
        let specs = job_sweep(&sweep);
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].routing, RoutingKind::Minimal);
        assert_eq!(specs[11].routing, RoutingKind::Olm);
        let workload = specs[3].traffic.jobs().expect("job traffic");
        assert_eq!(
            workload.jobs[0].placement,
            PlacementPolicy::RoundRobinRouters
        );
        assert!((workload.jobs[0].phases[0].offered_load - 0.1).abs() < 1e-12);
        let last = specs[11].traffic.jobs().expect("job traffic");
        assert!((last.jobs[0].phases[0].offered_load - 0.5).abs() < 1e-12);
    }

    #[test]
    fn churn_sweep_builds_trace_grid() {
        use dragonfly_topology::DragonflyParams;
        use dragonfly_workload::scenarios::fragmentation_trace;
        let p = DragonflyParams::new(2);
        let traces = vec![
            fragmentation_trace(&p, false, 0.5, 0.1, 1_000, 4_000, 1),
            fragmentation_trace(&p, true, 0.5, 0.1, 1_000, 4_000, 1),
        ];
        let sweep = JobSweep {
            base: base(),
            mechanisms: vec![RoutingKind::Minimal, RoutingKind::Olm],
            traces,
        };
        let specs = job_sweep(&sweep);
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].routing, RoutingKind::Minimal);
        assert_eq!(specs[0].traffic.jobs().unwrap().name, "fresh");
        assert_eq!(specs[1].traffic.jobs().unwrap().name, "frag");
        assert_eq!(specs[3].routing, RoutingKind::Olm);
    }

    #[test]
    fn default_points_are_sensible() {
        assert!(default_loads().iter().all(|&l| l > 0.0 && l <= 1.0));
        assert_eq!(paper_thresholds().len(), 5);
        assert_eq!(*paper_mix_percentages().last().unwrap(), 100);
    }
}
