//! Transient pattern-switch study at configurable scale: one machine-wide job flips
//! from uniform traffic to ADVG+h halfway through the measurement window, and the
//! per-phase breakdown exposes each mechanism's adaptation.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin transient -- --h 4
//! ```
//!
//! The per-mechanism points are independent and run in parallel through the sweep
//! runner (`--jobs N`, `--sequential`).  One CSV row per (mechanism, phase);
//! phase 0 is UN, phase 1 is ADVG+h.

use dragonfly_bench::{file_slug, write_workload_phase_csv, HarnessArgs};
use dragonfly_core::{
    ExperimentSpec, FlowControlKind, Jobs, RoutingKind, TrafficKind, WorkloadSpec,
};
use dragonfly_topology::DragonflyParams;

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("transient");
    let params = DragonflyParams::new(args.h);
    let load = 0.25;
    let switch_cycle = args.warmup + args.measure / 2;
    let workload = WorkloadSpec::transient(params.num_nodes(), load, switch_cycle, args.h);
    eprintln!(
        "transient study: {} on {} nodes (switch at cycle {switch_cycle})",
        workload.label(),
        params.num_nodes()
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
    let reports = args.run_points("transient", &specs, Jobs, |spec| {
        format!("transient_{}", file_slug(spec.routing.name()))
    });

    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "routing", "phase", "pattern", "inj_load", "acc_load", "avg_lat", "p99"
    );
    for report in &reports {
        assert!(
            !report.aggregate.deadlock_detected,
            "{} deadlocked",
            report.aggregate.routing
        );
        for phase in &report.jobs[0].phases {
            println!(
                "{:<12} {:>6} {:>10} {:>12.4} {:>12.4} {:>12.1} {:>10.1}",
                report.aggregate.routing,
                phase.phase,
                phase.pattern,
                phase.injected_load,
                phase.accepted_load,
                phase.avg_latency_cycles,
                phase.p99_latency_cycles
            );
        }
    }

    let path = args.csv_path("transient.csv");
    let entries: Vec<(String, &dragonfly_core::WorkloadReport)> = reports
        .iter()
        .map(|r| (r.aggregate.routing.clone(), r))
        .collect();
    write_workload_phase_csv(&path, "routing", &entries).expect("cannot write CSV");
    println!("wrote {}", path.display());
}
