//! Quickstart: simulate a small Dragonfly under uniform traffic with OLM routing.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a balanced Dragonfly with `h = 4` (33 groups, 264 routers, 1 056 nodes),
//! drives it with uniform random traffic at 30 % load under Virtual Cut-Through, and
//! prints the steady-state latency/throughput report.

use dragonfly::core::{ExperimentSpec, RoutingKind, TrafficKind};

fn main() {
    let h = 4;
    println!("Building a balanced Dragonfly with h = {h} and running OLM under uniform traffic...");

    let mut spec = ExperimentSpec::new(h);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Uniform;
    spec.offered_load = 0.3;
    spec.seed = 42;
    spec.warmup = 3_000;
    spec.measure = 5_000;
    spec.drain = 5_000;
    let report = spec.run();

    println!("\n--- steady-state report ---");
    println!("routing mechanism     : {}", report.routing);
    println!("traffic pattern       : {}", report.traffic);
    println!(
        "offered load          : {:.3} phits/(node*cycle)",
        report.offered_load
    );
    println!(
        "accepted load         : {:.3} phits/(node*cycle)",
        report.accepted_load
    );
    println!(
        "average latency       : {:.1} cycles",
        report.avg_latency_cycles
    );
    println!(
        "99th percentile       : {:.1} cycles",
        report.p99_latency_cycles
    );
    println!("average hops          : {:.2}", report.avg_hops);
    println!(
        "misrouted packets     : {:.1}% global, {:.1}% local",
        report.global_misroute_fraction * 100.0,
        report.local_misroute_fraction * 100.0
    );
    println!("packets measured      : {}", report.packets_measured);
    println!("deadlock detected     : {}", report.deadlock_detected);

    assert!(!report.deadlock_detected, "OLM must be deadlock-free");
}
