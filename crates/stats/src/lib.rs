//! Statistics primitives for network simulation.
//!
//! Per-packet observations (latency, hop counts) are aggregated exactly by
//! [`ExactStats`] and [`Histogram`], whose merges make per-shard accumulators
//! combine into exactly the sequential result.  (Samples over time are the
//! probe layer's: `dragonfly_probe` keeps them as one integer table.)
//!
//! The simulator's collector (`dragonfly_sim::StatsCollector`) is built from
//! these and counts the phits of a measurement window; [`phits_per_node_cycle`]
//! turns such a count into a load.  The end product of a steady-state run is a
//! [`SimReport`] (per job and phase, a [`WorkloadReport`]); a batch ("burst
//! consumption") run produces a [`BatchReport`].  Reports are written as CSV
//! rows by the experiment harness, and JSON goes through [`json`], the
//! workspace's one codec.

#![warn(missing_docs)]

mod exact;
mod histogram;
pub mod json;
mod report;
mod workload_report;

pub use exact::ExactStats;
pub use histogram::Histogram;
pub use json::validate_json;
pub use report::{BatchReport, SimReport};
pub use workload_report::{JobLifecycleReport, JobReport, PhaseReport, WorkloadReport};

/// Load in phits/(node·cycle): `phits` spread over `nodes` nodes and `cycles`
/// cycles (0 when either is 0).  Every load of every report is this formula.
pub fn phits_per_node_cycle(phits: u64, nodes: usize, cycles: u64) -> f64 {
    if nodes == 0 || cycles == 0 {
        0.0
    } else {
        phits as f64 / (nodes as f64 * cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_phits_per_node_and_cycle() {
        // 50 packets × 8 phits over 4 nodes × 100 cycles.
        assert_eq!(phits_per_node_cycle(400, 4, 100), 1.0);
        assert_eq!(phits_per_node_cycle(800, 4, 100), 2.0);
    }

    #[test]
    fn zero_nodes_does_not_divide_by_zero() {
        assert_eq!(phits_per_node_cycle(8, 0, 100), 0.0);
        assert_eq!(phits_per_node_cycle(8, 16, 0), 0.0);
        assert_eq!(phits_per_node_cycle(0, 0, 0), 0.0);
    }
}
