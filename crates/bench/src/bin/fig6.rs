//! Regenerates Figure 6 of the paper (Virtual Cut-Through):
//!
//! * **6a** — maximum accepted load at an offered load of 1 phit/(node·cycle) as the
//!   percentage of ADVG+h traffic in an ADVG+h / ADVL+1 mix varies from 0 to 100 %,
//! * **6b** — burst consumption time: every node sends a fixed number of packets with
//!   the same traffic mix and the harness reports the cycles needed to drain the
//!   network.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin fig6
//! ```

use dragonfly_bench::{file_slug, HarnessArgs};
use dragonfly_core::{
    mix_sweep, sweep::paper_mix_percentages, Batch, CsvWriter, ExperimentSpec, FlowControlKind,
    MixSweep, RoutingKind, Steady,
};

/// The mix point's ADVG percentage (every fig6 spec carries mixed traffic).
fn global_pct(spec: &ExperimentSpec) -> u32 {
    match spec.traffic {
        dragonfly_core::TrafficKind::Mixed {
            global_fraction, ..
        } => (global_fraction * 100.0).round() as u32,
        _ => unreachable!("mix sweep produces mixed traffic only"),
    }
}

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("fig6");
    let mechanisms = vec![
        RoutingKind::Par62,
        RoutingKind::Olm,
        RoutingKind::Rlm,
        RoutingKind::Piggybacking,
    ];
    let mut base = args.base_spec(FlowControlKind::Vct);
    base.offered_load = 1.0;
    let sweep = MixSweep {
        base,
        mechanisms,
        global_percentages: if args.quick {
            vec![0, 50, 100]
        } else {
            paper_mix_percentages()
        },
        global_offset: args.h,
        local_offset: 1,
    };
    let specs = mix_sweep(&sweep);

    // Figure 6a: steady-state throughput of the mix.
    eprintln!(
        "figure 6a: {} simulations (h = {}, VCT)",
        specs.len(),
        args.h
    );
    let reports = args.run_points("figure 6a", &specs, Steady, |spec| {
        format!(
            "fig6a_{}_mix{}",
            file_slug(spec.routing.name()),
            global_pct(spec)
        )
    });
    println!("\n== Figure 6a: throughput vs. % of global traffic (VCT) ==");
    println!("{:<10} {:>10} {:>12}", "routing", "global%", "accepted");
    let path = args.csv_path("fig6a_mix_throughput.csv");
    let mut csv = CsvWriter::create(&path, "routing,global_pct,accepted_load,avg_latency")
        .expect("cannot create CSV");
    for (spec, report) in specs.iter().zip(reports.iter()) {
        let pct = global_pct(spec);
        println!(
            "{:<10} {:>10} {:>12.4}",
            report.routing, pct, report.accepted_load
        );
        csv.fields([
            report.routing.clone(),
            pct.to_string(),
            format!("{:.4}", report.accepted_load),
            format!("{:.2}", report.avg_latency_cycles),
        ])
        .expect("cannot write CSV row");
    }
    csv.flush().expect("cannot flush CSV");
    println!("wrote {}", path.display());

    // Figure 6b: burst consumption time.  The paper sends 1000 packets per node at
    // h = 8; scale the burst with the network size so smaller models stay comparable.
    let packets_per_node: u64 = if args.quick {
        20
    } else {
        1000 / (8 / args.h.min(8)) as u64
    };
    let max_cycles = 4_000_000;
    eprintln!(
        "figure 6b: burst of {packets_per_node} packets/node, {} simulations",
        specs.len()
    );
    let batch = Batch {
        packets_per_node,
        max_cycles,
    };
    let batch_reports = args.run_points("figure 6b", &specs, batch, |spec| {
        format!(
            "fig6b_{}_mix{}",
            file_slug(spec.routing.name()),
            global_pct(spec)
        )
    });
    println!("\n== Figure 6b: burst consumption time (VCT) ==");
    println!("{:<10} {:>10} {:>16}", "routing", "global%", "cycles");
    let path = args.csv_path("fig6b_burst_consumption.csv");
    let mut csv = CsvWriter::create(&path, "routing,global_pct,consumption_cycles,timed_out")
        .expect("cannot create CSV");
    for (spec, report) in specs.iter().zip(batch_reports.iter()) {
        let pct = global_pct(spec);
        println!(
            "{:<10} {:>10} {:>16}",
            report.routing, pct, report.consumption_cycles
        );
        csv.fields([
            report.routing.clone(),
            pct.to_string(),
            report.consumption_cycles.to_string(),
            report.timed_out.to_string(),
        ])
        .expect("cannot write CSV row");
    }
    csv.flush().expect("cannot flush CSV");
    println!("wrote {}", path.display());
}
