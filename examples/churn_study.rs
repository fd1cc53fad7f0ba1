//! Churn fragmentation study: does re-placement into churn-made holes hurt a job,
//! and how much of the damage does adaptive routing undo?
//!
//! ```text
//! cargo run --release --example churn_study
//! ```
//!
//! Two job-arrival traces share the same shape (see
//! `dragonfly_workload::scenarios::fragmentation_trace`): fillers pack the machine,
//! churn at a fixed cycle frees nodes, and an aggressor/victim pair arrives into
//! the free set.  In the *fresh* trace every filler departs and the pair is placed
//! contiguously; in the *frag* trace only every other filler departs and the pair
//! is scattered into the holes — so the aggressor's hot channels run through the
//! victim's groups.  The victim's tail latency and the per-job lifecycle columns
//! quantify the fragmentation penalty per routing mechanism.

use dragonfly::core::{churn_sweep, ChurnSweep, ExperimentSpec, RoutingKind, SweepRunner};
use dragonfly::topology::DragonflyParams;
use dragonfly::workload::scenarios::fragmentation_trace;

fn main() {
    let h = 2;
    let params = DragonflyParams::new(h);
    let churn_cycle = 3_000;
    let run_cycles = 11_000;
    let aggressor_load = 0.75;
    let victim_load = 0.1;

    let mut base = ExperimentSpec::new(h);
    base.measure = run_cycles + 2_000; // horizon: a little past the last departure
    base.drain = 4_000;
    base.seed = 42;

    let sweep = ChurnSweep {
        base,
        mechanisms: vec![
            RoutingKind::Minimal,
            RoutingKind::Piggybacking,
            RoutingKind::Olm,
        ],
        traces: vec![
            fragmentation_trace(
                &params,
                false,
                aggressor_load,
                victim_load,
                churn_cycle,
                run_cycles,
                42,
            ),
            fragmentation_trace(
                &params,
                true,
                aggressor_load,
                victim_load,
                churn_cycle,
                run_cycles,
                42,
            ),
        ],
    };
    let specs = churn_sweep(&sweep);
    let reports = SweepRunner::new("churn study").run_workloads(&specs);

    println!(
        "\n{:<12} {:<6} {:>11} {:>11} {:>12} {:>10} {:>9} {:>9}",
        "routing",
        "trace",
        "victim avg",
        "victim p99",
        "victim load",
        "aggr load",
        "wait",
        "slowdown"
    );
    for (spec, report) in specs.iter().zip(&reports) {
        assert!(
            !report.aggregate.deadlock_detected,
            "{} deadlocked",
            report.aggregate.routing
        );
        let trace = spec.traffic.churn().expect("churn spec");
        let victim = report.job("victim").expect("victim job");
        let aggressor = report.job("aggressor").expect("aggressor job");
        let lifecycle = victim.lifecycle.expect("churn jobs carry lifecycles");
        println!(
            "{:<12} {:<6} {:>11.1} {:>11.1} {:>12.4} {:>10.4} {:>9} {:>9.3}",
            report.aggregate.routing,
            trace.name,
            victim.avg_latency_cycles,
            victim.p99_latency_cycles,
            victim.accepted_load,
            aggressor.accepted_load,
            lifecycle.wait_cycles.unwrap_or(0),
            lifecycle.slowdown.unwrap_or(f64::NAN),
        );
    }

    // Summarize the fragmentation penalty (frag p99 / fresh p99) per mechanism.
    println!("\nfragmentation penalty (victim p99, frag / fresh):");
    for (i, mechanism) in sweep.mechanisms.iter().enumerate() {
        let fresh = &reports[2 * i];
        let frag = &reports[2 * i + 1];
        let ratio = frag.job("victim").unwrap().p99_latency_cycles
            / fresh.job("victim").unwrap().p99_latency_cycles.max(1.0);
        println!("  {:<12} {ratio:>6.2}x", format!("{mechanism:?}"));
    }
}
