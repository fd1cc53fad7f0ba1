//! Churn sweep: mechanism × fragmentation variant × aggressor load, each point a
//! full dynamic-schedule run (jobs arriving, waiting, departing, re-placed).
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin churn_sweep -- --h 2
//! ```
//!
//! Every point runs the `fragmentation_trace` scenario: fillers pack the machine,
//! churn at one quarter of the run frees nodes, and an aggressor/victim pair is
//! placed into the free set — contiguously on an emptied machine (`fresh`) or
//! seeded-randomly into churn-made holes (`frag`).  `--loads` gives the aggressor
//! loads in phits/(node·cycle) (the scattered job-scoped ADVG+1 pattern puts
//! roughly `2 × load` phits/cycle on each +1 global channel, so loads around 0.5
//! straddle saturation).  One CSV row per (mechanism, trace, aggressor load, job)
//! with the lifecycle columns; `--json FILE` additionally emits one structured
//! JSON object per point.

use dragonfly_bench::{file_slug, write_workload_job_csv, HarnessArgs};
use dragonfly_core::{churn_sweep, ChurnSweep, FlowControlKind, Jobs, RoutingKind, WorkloadReport};
use dragonfly_stats::json::{ToJson, Value};
use dragonfly_topology::DragonflyParams;
use dragonfly_workload::scenarios::fragmentation_trace;

fn main() {
    let mut args = HarnessArgs::from_env();
    if !args.loads_explicit {
        // Churn points are whole-trace runs; default to a compact load set that
        // straddles the scattered aggressor's saturation point.
        args.loads = if args.quick {
            vec![0.75]
        } else {
            vec![0.3, 0.5, 0.75, 0.9]
        };
    }
    let params = DragonflyParams::new(args.h);
    let run_cycles = args.measure;
    let churn_cycle = run_cycles / 4;
    let victim_load = 0.1;

    let mut base = args.base_spec(FlowControlKind::Vct);
    base.measure = run_cycles + (run_cycles / 4).max(1_000); // horizon past departure
    base.drain = args.drain;

    let mut traces = Vec::with_capacity(2 * args.loads.len());
    for &load in &args.loads {
        for fragmented in [false, true] {
            let mut trace = fragmentation_trace(
                &params,
                fragmented,
                load,
                victim_load,
                churn_cycle,
                run_cycles,
                args.seed,
            );
            trace.name = format!("{}@{load:.2}", trace.name);
            traces.push(trace);
        }
    }
    let sweep = ChurnSweep {
        base,
        mechanisms: vec![
            RoutingKind::Minimal,
            RoutingKind::Piggybacking,
            RoutingKind::Olm,
        ],
        traces,
    };
    let specs = churn_sweep(&sweep);
    eprintln!(
        "churn sweep: {} mechanisms x {} traces = {} schedule runs (h = {}, {} nodes, \
         churn at {churn_cycle}, horizon {})",
        sweep.mechanisms.len(),
        sweep.traces.len(),
        specs.len(),
        args.h,
        params.num_nodes(),
        sweep.base.measure,
    );
    let reports = args.run_points("churn sweep", &specs, Jobs, |spec| {
        let trace = spec.traffic.churn().expect("churn traffic");
        format!(
            "churn_{}_{}",
            file_slug(spec.routing.name()),
            file_slug(&trace.name)
        )
    });

    println!(
        "{:<12} {:<12} {:>11} {:>11} {:>12} {:>10} {:>9}",
        "routing", "trace", "victim avg", "victim p99", "victim load", "aggr load", "slowdown"
    );
    let mut entries: Vec<(String, &WorkloadReport)> = Vec::with_capacity(reports.len());
    for (spec, report) in specs.iter().zip(reports.iter()) {
        assert!(
            !report.aggregate.deadlock_detected,
            "{} deadlocked",
            report.aggregate.routing
        );
        let trace = spec.traffic.churn().expect("churn traffic");
        let victim = report.job("victim").expect("victim job");
        let aggressor = report.job("aggressor").expect("aggressor job");
        println!(
            "{:<12} {:<12} {:>11.1} {:>11.1} {:>12.4} {:>10.4} {:>9.3}",
            report.aggregate.routing,
            trace.name,
            victim.avg_latency_cycles,
            victim.p99_latency_cycles,
            victim.accepted_load,
            aggressor.accepted_load,
            victim
                .lifecycle
                .and_then(|l| l.slowdown)
                .unwrap_or(f64::NAN),
        );
        entries.push((
            format!("{},{}", report.aggregate.routing, trace.name),
            report,
        ));
    }

    let path = args.csv_path("churn_sweep.csv");
    write_workload_job_csv(&path, "routing,trace", &entries).expect("cannot write CSV");
    println!("wrote {}", path.display());

    if let Some(json_path) = &args.json_out {
        write_json(json_path, &entries);
    }
}

/// Emit one structured JSON object per sweep point (jsonl), via the report types'
/// `ToJson` impls.
fn write_json(path: &std::path::Path, entries: &[(String, &WorkloadReport)]) {
    let mut out = String::new();
    for (prefix, report) in entries {
        let (routing, trace) = prefix.split_once(',').expect("prefix is routing,trace");
        let line = Value::object([
            ("routing", Value::Str(routing.to_string())),
            ("trace", Value::Str(trace.to_string())),
            ("report", report.to_json()),
        ]);
        out.push_str(&line.dump());
        out.push('\n');
    }
    std::fs::write(path, out).expect("cannot write JSON");
    println!("wrote {}", path.display());
}
