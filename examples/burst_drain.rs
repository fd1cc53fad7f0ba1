//! Burst-consumption experiment (the protocol behind Figures 6b and 9b).
//!
//! ```text
//! cargo run --release --example burst_drain
//! ```
//!
//! Every node sends a fixed batch of packets following the mixed ADVG+h / ADVL+1
//! pattern and the network runs until the last packet is delivered.  Mechanisms with
//! local misrouting drain the burst far faster than Piggybacking, which is the
//! paper's headline burst result (OLM needs ~36 % of PB's time at full scale).

use dragonfly::core::{ExperimentSpec, RoutingKind, SweepRunner, TrafficKind};

fn main() {
    let h = 3;
    let packets_per_node = 50;
    let mechanisms = [
        RoutingKind::Piggybacking,
        RoutingKind::Par62,
        RoutingKind::Rlm,
        RoutingKind::Olm,
    ];
    let specs: Vec<ExperimentSpec> = mechanisms
        .iter()
        .map(|&routing| {
            let mut spec = ExperimentSpec::new(h);
            spec.routing = routing;
            spec.traffic = TrafficKind::Mixed {
                global_fraction: 0.5,
                global_offset: h,
                local_offset: 1,
            };
            spec.seed = 5;
            spec
        })
        .collect();

    println!(
        "Draining a burst of {packets_per_node} packets/node (h = {h}, 50% ADVG+{h} / 50% ADVL+1)...",
    );
    let reports =
        SweepRunner::new("burst drain")
            .quiet()
            .run_batches(&specs, packets_per_node, 10_000_000);

    println!(
        "\n{:<10} {:>18} {:>14} {:>12}",
        "routing", "consumption cycles", "avg latency", "relative"
    );
    let pb_cycles = reports[0].consumption_cycles as f64;
    for r in &reports {
        println!(
            "{:<10} {:>18} {:>14.1} {:>11.1}%",
            r.routing,
            r.consumption_cycles,
            r.avg_latency_cycles,
            r.consumption_cycles as f64 / pb_cycles * 100.0
        );
        assert!(!r.deadlock_detected);
        assert!(!r.timed_out);
    }
    println!(
        "\n(100% = Piggybacking; the paper reports ~36% for OLM and ~42.5% for RLM at h = 8.)"
    );
}
