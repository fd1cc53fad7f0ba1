//! Regenerates Figures 4 and 5 of the paper: average latency (Fig. 4) and accepted
//! load (Fig. 5) versus offered load under Virtual Cut-Through flow control, for
//! uniform (UN), ADVG+1 and ADVG+h traffic.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin fig4_5 -- --pattern all
//! ```
//!
//! One CSV per traffic pattern is written to the output directory
//! (`fig4_5_<pattern>.csv`), with one row per (mechanism, offered load) point.
//! With `--probe` each point additionally writes its probe output set
//! (`fig4_5_<pattern>_<mechanism>_<load>_{series,flight,heatmap,...}`) next to
//! the CSVs; the reports are byte-identical to the unprobed run.

use dragonfly_bench::{file_slug, print_series, HarnessArgs};
use dragonfly_core::{
    load_sweep, CsvWriter, FlowControlKind, LoadSweep, RoutingKind, SimReport, Steady, TrafficKind,
};

fn mechanisms_for(pattern: &str) -> Vec<RoutingKind> {
    // The paper plots Minimal only for UN and Valiant only for the adversarial
    // patterns; PB and the three in-transit adaptive mechanisms appear everywhere.
    let baseline = if pattern == "un" {
        RoutingKind::Minimal
    } else {
        RoutingKind::Valiant
    };
    vec![
        RoutingKind::Par62,
        RoutingKind::Olm,
        RoutingKind::Rlm,
        baseline,
        RoutingKind::Piggybacking,
    ]
}

fn traffic_for(pattern: &str, h: usize) -> TrafficKind {
    match pattern {
        "un" => TrafficKind::Uniform,
        "advg1" => TrafficKind::AdversarialGlobal(1),
        "advgh" => TrafficKind::AdversarialGlobal(h),
        other => panic!("unknown pattern `{other}` (expected un, advg1, advgh)"),
    }
}

fn run_pattern(args: &HarnessArgs, pattern: &str) -> Vec<SimReport> {
    let mut base = args.base_spec(FlowControlKind::Vct);
    base.traffic = traffic_for(pattern, args.h);
    let sweep = LoadSweep {
        base,
        mechanisms: mechanisms_for(pattern),
        loads: args.loads.clone(),
    };
    let specs = load_sweep(&sweep);
    eprintln!(
        "figure 4/5 [{}]: {} simulations (h = {}, VCT)",
        pattern,
        specs.len(),
        args.h
    );
    let label = format!("figure 4/5 [{pattern}]");
    args.run_points(label, &specs, Steady, |spec| {
        format!(
            "fig4_5_{pattern}_{}_{}",
            file_slug(spec.routing.name()),
            file_slug(&format!("{:.2}", spec.offered_load)),
        )
    })
}

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("fig4_5");
    let patterns: Vec<&str> = match args.pattern.as_str() {
        "all" => vec!["un", "advg1", "advgh"],
        p => vec![p],
    };
    for pattern in patterns {
        let reports = run_pattern(&args, pattern);
        print_series(&format!("Figure 4/5 ({pattern}, VCT)"), &reports);
        let path = args.csv_path(&format!("fig4_5_{pattern}.csv"));
        let mut csv = CsvWriter::create(&path, SimReport::csv_header())
            .expect("cannot create the CSV output");
        for r in &reports {
            csv.row(&r.csv_row()).expect("cannot write a CSV row");
        }
        csv.flush().expect("cannot flush the CSV output");
        println!("wrote {}", path.display());
    }
}
