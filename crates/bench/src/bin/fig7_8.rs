//! Regenerates Figures 7 and 8 of the paper: average latency (Fig. 7) and accepted
//! load (Fig. 8) versus offered load under Wormhole flow control (80-phit packets, 8
//! flits of 10 phits), for UN, ADVG+1 and ADVG+h traffic.  OLM is excluded because it
//! requires Virtual Cut-Through.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin fig7_8 -- --pattern all
//! ```

use dragonfly_bench::{file_slug, print_series, HarnessArgs};
use dragonfly_core::{
    load_sweep, CsvWriter, FlowControlKind, LoadSweep, RoutingKind, SimReport, Steady, TrafficKind,
};

fn mechanisms_for(pattern: &str) -> Vec<RoutingKind> {
    let baseline = if pattern == "un" {
        RoutingKind::Minimal
    } else {
        RoutingKind::Valiant
    };
    vec![
        RoutingKind::Par62,
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
    let mut base = args.base_spec(FlowControlKind::Wormhole);
    base.traffic = traffic_for(pattern, args.h);
    let sweep = LoadSweep {
        base,
        mechanisms: mechanisms_for(pattern),
        loads: args.loads.clone(),
    };
    let specs = load_sweep(&sweep);
    eprintln!(
        "figure 7/8 [{}]: {} simulations (h = {}, Wormhole)",
        pattern,
        specs.len(),
        args.h
    );
    let label = format!("figure 7/8 [{pattern}]");
    args.run_points(label, &specs, Steady, |spec| {
        format!(
            "fig7_8_{pattern}_{}_{}",
            file_slug(spec.routing.name()),
            file_slug(&format!("{:.2}", spec.offered_load)),
        )
    })
}

fn main() {
    let args = HarnessArgs::from_env();
    args.reject_json("fig7_8");
    let patterns: Vec<&str> = match args.pattern.as_str() {
        "all" => vec!["un", "advg1", "advgh"],
        p => vec![p],
    };
    for pattern in patterns {
        let reports = run_pattern(&args, pattern);
        print_series(&format!("Figure 7/8 ({pattern}, Wormhole)"), &reports);
        let path = args.csv_path(&format!("fig7_8_{pattern}.csv"));
        let mut csv = CsvWriter::create(&path, SimReport::csv_header())
            .expect("cannot create the CSV output");
        for r in &reports {
            csv.row(&r.csv_row()).expect("cannot write a CSV row");
        }
        csv.flush().expect("cannot flush the CSV output");
        println!("wrote {}", path.display());
    }
}
