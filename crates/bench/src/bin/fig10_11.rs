//! Regenerates Figures 10 and 11 of the paper: the misrouting-threshold selection
//! study for RLM under Virtual Cut-Through.  Figure 10 sweeps the threshold under
//! uniform traffic, Figure 11 under ADVG+1; the paper picks 45 % as the trade-off.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin fig10_11
//! ```

use dragonfly_bench::{file_slug, HarnessArgs};
use dragonfly_core::{
    sweep::paper_thresholds, threshold_sweep, CsvWriter, FlowControlKind, RoutingKind, Steady,
    ThresholdSweep, TrafficKind,
};

fn run_figure(args: &HarnessArgs, traffic: TrafficKind, figure: &str, csv_name: &str) {
    let mut base = args.base_spec(FlowControlKind::Vct);
    base.routing = RoutingKind::Rlm;
    base.traffic = traffic;
    let sweep = ThresholdSweep {
        base,
        thresholds: if args.quick {
            vec![0.30, 0.45, 0.60]
        } else {
            paper_thresholds()
        },
        loads: args.loads.clone(),
    };
    let specs = threshold_sweep(&sweep);
    eprintln!(
        "figure {figure}: {} simulations (RLM, VCT, h = {})",
        specs.len(),
        args.h
    );
    let reports = args.run_points(format!("figure {figure}"), &specs, Steady, |spec| {
        format!(
            "fig{figure}_th{}_{}",
            file_slug(&format!("{:.2}", spec.threshold)),
            file_slug(&format!("{:.2}", spec.offered_load)),
        )
    });

    println!(
        "\n== Figure {figure}: RLM threshold sweep ({}) ==",
        specs[0].traffic.name()
    );
    println!(
        "{:<10} {:>8} {:>10} {:>12}",
        "threshold", "offered", "accepted", "avg_lat"
    );
    let path = args.csv_path(csv_name);
    let mut csv = CsvWriter::create(
        &path,
        "threshold,offered_load,accepted_load,avg_latency,p99_latency",
    )
    .expect("cannot create CSV");
    for (spec, report) in specs.iter().zip(reports.iter()) {
        println!(
            "{:<10.2} {:>8.3} {:>10.4} {:>12.1}",
            spec.threshold, report.offered_load, report.accepted_load, report.avg_latency_cycles
        );
        csv.fields([
            format!("{:.2}", spec.threshold),
            format!("{:.3}", report.offered_load),
            format!("{:.4}", report.accepted_load),
            format!("{:.2}", report.avg_latency_cycles),
            format!("{:.2}", report.p99_latency_cycles),
        ])
        .expect("cannot write CSV row");
    }
    csv.flush().expect("cannot flush CSV");
    println!("wrote {}", path.display());
}

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("fig10_11");
    run_figure(
        &args,
        TrafficKind::Uniform,
        "10",
        "fig10_rlm_threshold_un.csv",
    );
    run_figure(
        &args,
        TrafficKind::AdversarialGlobal(1),
        "11",
        "fig11_rlm_threshold_advg1.csv",
    );
}
