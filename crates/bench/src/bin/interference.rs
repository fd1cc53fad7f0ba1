//! Workload interference study at configurable scale: an ADVG+1 aggressor job and a
//! uniform victim job interleaved over every router, compared across routing
//! mechanisms with per-job latency/throughput breakdowns.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin interference -- --h 4
//! ```
//!
//! The aggressor drives each group's +1 global channel at ~96 % of its saturation
//! point, so minimal routing starves the victim while the adaptive mechanisms
//! divert around the hot channels.  The per-mechanism points are independent and run
//! in parallel through the sweep runner (`--jobs N`, `--sequential`).  One CSV row
//! per (mechanism, job, phase).
//!
//! With `--probe` each mechanism's point additionally writes its probe output
//! set (`interference_<mechanism>_{series,flight,heatmap,...}`) — the link/VC
//! heatmap localizes exactly which global channels the aggressor saturates.

use dragonfly_bench::{file_slug, write_workload_phase_csv, HarnessArgs};
use dragonfly_core::{
    ExperimentSpec, FlowControlKind, Jobs, RoutingKind, TrafficKind, WorkloadSpec,
};
use dragonfly_topology::DragonflyParams;

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("interference");
    let params = DragonflyParams::new(args.h);
    // Saturation of the +1 channel: nodes_per_group/2 aggressor nodes share one
    // global link, so load ≈ 0.96 · 2/nodes_per_group saturates it.
    let aggressor_load = 0.96 * 2.0 / params.nodes_per_group() as f64;
    let victim_load = 0.1;
    let workload = WorkloadSpec::interference(params.num_nodes(), 1, aggressor_load, victim_load);
    eprintln!(
        "interference study: {} on {} nodes (h = {})",
        workload.label(),
        params.num_nodes(),
        args.h
    );

    let mechanisms = [
        RoutingKind::Minimal,
        RoutingKind::Piggybacking,
        RoutingKind::Par62,
        RoutingKind::Rlm,
        RoutingKind::Olm,
    ];
    let specs: Vec<ExperimentSpec> = mechanisms
        .iter()
        .map(|&routing| {
            let mut spec = args.base_spec(FlowControlKind::Vct);
            spec.routing = routing;
            spec.traffic = TrafficKind::Workload(workload.clone());
            spec
        })
        .collect();
    let reports = args.run_points("interference", &specs, Jobs, |spec| {
        format!("interference_{}", file_slug(spec.routing.name()))
    });

    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "routing", "job", "avg_lat", "p99_lat", "acc_load", "inj_load"
    );
    for report in &reports {
        assert!(
            !report.aggregate.deadlock_detected,
            "{} deadlocked",
            report.aggregate.routing
        );
        for job in &report.jobs {
            println!(
                "{:<12} {:>12} {:>14.1} {:>14.1} {:>12.4} {:>12.4}",
                report.aggregate.routing,
                job.name,
                job.avg_latency_cycles,
                job.p99_latency_cycles,
                job.accepted_load,
                job.injected_load
            );
        }
    }

    let path = args.csv_path("interference.csv");
    let entries: Vec<(String, &dragonfly_core::WorkloadReport)> = reports
        .iter()
        .map(|r| (r.aggregate.routing.clone(), r))
        .collect();
    write_workload_phase_csv(&path, "routing", &entries).expect("cannot write CSV");
    println!("wrote {}", path.display());
}
