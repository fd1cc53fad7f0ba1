//! Regenerates Figure 9 of the paper (Wormhole): throughput (9a) and burst
//! consumption time (9b) of the ADVG+h / ADVL+1 traffic mix.  The paper uses 89
//! packets of 80 phits per node so that the payload matches the VCT experiment of
//! Figure 6b; the burst size here is scaled the same way.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin fig9
//! ```

use dragonfly_bench::{file_slug, HarnessArgs};
use dragonfly_core::{
    mix_sweep, sweep::paper_mix_percentages, Batch, CsvWriter, ExperimentSpec, FlowControlKind,
    MixSweep, RoutingKind, Steady,
};

/// The mix point's ADVG percentage (every fig9 spec carries mixed traffic).
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
    args.reject_json("fig9");
    // OLM is omitted: it requires VCT (the sweep would drop it anyway).
    let mechanisms = vec![
        RoutingKind::Par62,
        RoutingKind::Rlm,
        RoutingKind::Piggybacking,
    ];
    let mut base = args.base_spec(FlowControlKind::Wormhole);
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

    // Figure 9a.
    eprintln!(
        "figure 9a: {} simulations (h = {}, Wormhole)",
        specs.len(),
        args.h
    );
    let reports = args.run_points("figure 9a", &specs, Steady, |spec| {
        format!(
            "fig9a_{}_mix{}",
            file_slug(spec.routing.name()),
            global_pct(spec)
        )
    });
    println!("\n== Figure 9a: throughput vs. % of global traffic (Wormhole) ==");
    println!("{:<10} {:>10} {:>12}", "routing", "global%", "accepted");
    let path = args.csv_path("fig9a_mix_throughput_wh.csv");
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

    // Figure 9b: equivalent payload to the VCT burst (1000 × 8 phits → ~100 × 80
    // phits at paper scale), scaled down with h.
    let vct_packets: u64 = if args.quick {
        20
    } else {
        1000 / (8 / args.h.min(8)) as u64
    };
    let packets_per_node = ((vct_packets * 8) as f64 / 80.0).round().max(1.0) as u64;
    let max_cycles = 4_000_000;
    eprintln!(
        "figure 9b: burst of {packets_per_node} packets/node (80 phits each), {} simulations",
        specs.len()
    );
    let batch = Batch {
        packets_per_node,
        max_cycles,
    };
    let batch_reports = args.run_points("figure 9b", &specs, batch, |spec| {
        format!(
            "fig9b_{}_mix{}",
            file_slug(spec.routing.name()),
            global_pct(spec)
        )
    });
    println!("\n== Figure 9b: burst consumption time (Wormhole) ==");
    println!("{:<10} {:>10} {:>16}", "routing", "global%", "cycles");
    let path = args.csv_path("fig9b_burst_consumption_wh.csv");
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
