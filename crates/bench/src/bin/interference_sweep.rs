//! Workload-interference sweep: placement policy × aggressor load, the first
//! grid-shaped workload consumer of the sweep runner (in the style of caminos-rs
//! experiment launchers).
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin interference_sweep -- --h 2
//! ```
//!
//! Each grid point is an aggressor/victim workload: the aggressor job drives
//! ADVG+1 at a fraction of the +1 global channel's saturation load (taken from
//! `--loads`, default 0.05 … 1.0), the victim job drives job-uniform traffic at a
//! fixed low load, and both jobs use the point's placement policy.  Contiguous
//! placement packs each job into its own groups; round-robin interleaves them over
//! every router; random scatters them.  The victim columns quantify how much
//! protection each (mechanism, placement) combination buys as aggressor pressure
//! rises.  One CSV row per (mechanism, placement, aggressor load, job, phase).

use dragonfly_bench::{file_slug, write_workload_phase_csv, HarnessArgs};
use dragonfly_core::{
    interference_sweep, FlowControlKind, InterferenceSweep, Jobs, PlacementPolicy, RoutingKind,
    WorkloadReport,
};
use dragonfly_topology::DragonflyParams;

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("interference_sweep");
    let params = DragonflyParams::new(args.h);
    // The +1 global channel saturates at 2/nodes_per_group phits/(node·cycle)
    // under ADVG+1 from half of the machine; --loads scales relative to that.
    let saturation = 2.0 / params.nodes_per_group() as f64;
    let sweep = InterferenceSweep {
        base: args.base_spec(FlowControlKind::Vct),
        mechanisms: vec![
            RoutingKind::Minimal,
            RoutingKind::Piggybacking,
            RoutingKind::Olm,
        ],
        placements: vec![
            PlacementPolicy::Contiguous,
            PlacementPolicy::RoundRobinRouters,
            PlacementPolicy::Random { seed: args.seed },
        ],
        aggressor_loads: args.loads.iter().map(|f| f * saturation).collect(),
        aggressor_offset: 1,
        victim_load: 0.1,
    };
    let specs = interference_sweep(&sweep);
    eprintln!(
        "interference sweep: {} mechanisms x {} placements x {} loads = {} workload points \
         (h = {}, {} nodes)",
        sweep.mechanisms.len(),
        sweep.placements.len(),
        sweep.aggressor_loads.len(),
        specs.len(),
        args.h,
        params.num_nodes()
    );
    let reports = args.run_points("interference sweep", &specs, Jobs, |spec| {
        let workload = spec.traffic.workload().expect("workload traffic");
        format!(
            "intsweep_{}_{}_{}",
            file_slug(spec.routing.name()),
            file_slug(workload.jobs[0].placement.name()),
            file_slug(&format!("{:.4}", workload.jobs[0].phases[0].offered_load)),
        )
    });

    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>12} {:>12}",
        "routing", "place", "aggr_load", "victim_avg", "victim_p99", "victim_load"
    );
    let mut entries: Vec<(String, &WorkloadReport)> = Vec::with_capacity(reports.len());
    for (spec, report) in specs.iter().zip(reports.iter()) {
        assert!(
            !report.aggregate.deadlock_detected,
            "{} deadlocked",
            report.aggregate.routing
        );
        // Recover the grid coordinates from the spec's own workload, so the CSV
        // cannot drift from the sweep construction order.
        let workload = spec.traffic.workload().expect("workload traffic");
        let placement = workload.jobs[0].placement.name();
        let aggressor_load = workload.jobs[0].phases[0].offered_load;
        let victim = report.job("victim").expect("victim job");
        println!(
            "{:<12} {:>6} {:>10.4} {:>12.1} {:>12.1} {:>12.4}",
            report.aggregate.routing,
            placement,
            aggressor_load,
            victim.avg_latency_cycles,
            victim.p99_latency_cycles,
            victim.accepted_load
        );
        entries.push((
            format!(
                "{},{},{:.4}",
                report.aggregate.routing, placement, aggressor_load
            ),
            report,
        ));
    }

    let path = args.csv_path("interference_sweep.csv");
    write_workload_phase_csv(&path, "routing,placement,aggressor_load", &entries)
        .expect("cannot write CSV");
    println!("wrote {}", path.display());
}
