//! Probe study: watch a run from the inside with the observability layer.
//!
//! ```text
//! cargo run --release --example probe_study
//! ```
//!
//! Runs OLM under ADVG+1 on the h = 2 machine twice — once plain, once with
//! every probe instrument installed — and
//!
//! 1. verifies live that the probes never perturbed the report (the layer's
//!    cardinal invariant),
//! 2. narrates what the instruments saw: the injection/delivery ramp, the
//!    buffered-phit peak, the busiest routers, and one sampled packet's full
//!    flight through the network,
//! 3. writes the probe file set to `results/probe_study/` and re-parses the
//!    emitted CSV/JSONL — locating the hottest (link, VC) heatmap cell and
//!    checking the engine diagnostics columns (arena growth, ring high-water
//!    marks, active-set populations) — doubling as an end-to-end check that
//!    the files are well-formed.
//!
//! CI runs this example as the probe smoke test.

use dragonfly::core::{ExperimentSpec, ProbeConfig, RoutingKind, RunOptions, Steady, TrafficKind};
use dragonfly::probe::{FLIGHT_DELIVER, FLIGHT_HOP, FLIGHT_INJECT};

fn main() {
    let mut spec = ExperimentSpec::new(2);
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = 0.3;
    spec.seed = 7;
    spec.warmup = 500;
    spec.measure = 2_000;
    spec.drain = 1_500;

    println!("Running OLM under ADVG+1 (h = 2, load 0.3) with every probe instrument on...");
    let probes = ProbeConfig::full(128);
    let stride = probes.stride;
    let options = RunOptions {
        probes: Some(probes),
        ..RunOptions::default()
    };
    let (report, probe) = spec.run_with(Steady, &options);
    let probe = probe.expect("probes were requested");

    // The cardinal invariant, checked live: probes only read.
    assert_eq!(
        spec.run(),
        report,
        "probes perturbed the run — this is a probe bug"
    );
    println!(
        "probe-off re-run is byte-identical: accepted load {:.3}, avg latency {:.1} cycles\n",
        report.accepted_load, report.avg_latency_cycles
    );

    // --- time series -----------------------------------------------------
    let column = |name| probe.column(name).expect("a sample-table column");
    let (cycle, inj, del) = (column("cycle"), column("injected"), column("delivered"));
    let (buffered, pb) = (column("buffered_phits"), column("pb_congested"));
    let n = probe.samples();
    println!("--- time series ({n} samples, every {stride} cycles) ---");
    for i in [0, n / 4, n / 2, 3 * n / 4, n - 1] {
        println!(
            "cycle {:>5}: injected {:>6}  delivered {:>6}  buffered {:>5} phits  \
             PB-congested {:>2} channels",
            cycle[i], inj[i], del[i], buffered[i], pb[i],
        );
    }
    let (peak_i, peak) = buffered
        .iter()
        .enumerate()
        .max_by_key(|&(_, phits)| phits)
        .expect("run produced no samples");
    println!("peak buffering: {peak} phits at cycle {}", cycle[peak_i]);

    let top = probe.top_routers(4);
    println!("busiest routers by activity: {top:?}");

    // --- flight recorder -------------------------------------------------
    let flight = probe.sorted_flight();
    println!(
        "\n--- flight recorder ({} events, {} dropped) ---",
        flight.len(),
        probe.flight_dropped()
    );
    // Longest recorded journey: the sampled packet with the most events.
    let longest = flight
        .iter()
        .map(|e| (e.src, e.gen_cycle))
        .max_by_key(|key| {
            flight
                .iter()
                .filter(|e| (e.src, e.gen_cycle) == *key)
                .count()
        })
        .expect("flight recorder sampled nothing");
    println!("packet (src {}, generated cycle {}):", longest.0, longest.1);
    for e in flight.iter().filter(|e| (e.src, e.gen_cycle) == longest) {
        let stage = match e.kind {
            FLIGHT_INJECT => format!("injected at router {}", e.router),
            FLIGHT_HOP => format!(
                "forwarded by router {} via port {} vc {}{}",
                e.router,
                e.port,
                e.vc,
                if e.nonminimal == 1 { " (misroute)" } else { "" }
            ),
            FLIGHT_DELIVER => format!("delivered at router {} (dst node {})", e.router, e.dst),
            other => format!("unknown stage {other}"),
        };
        println!("  cycle {:>5}: {stage}", e.cycle);
    }

    // --- emission + parse-back -------------------------------------------
    let out = std::path::Path::new("results/probe_study");
    std::fs::create_dir_all(out).expect("cannot create results/probe_study");
    let files = probe
        .write_all(out, "probe_study")
        .expect("probe emission failed");
    println!("\n--- emitted files ---");
    for f in &files {
        println!("wrote {}", f.display());
    }

    // Parse back the series CSV: header + one row per sample.
    let series_csv = std::fs::read_to_string(out.join("probe_study_series.csv")).unwrap();
    let rows: Vec<&str> = series_csv.lines().collect();
    assert!(rows[0].starts_with("cycle,injected,delivered,"));
    assert_eq!(rows.len(), n + 1, "series CSV row count != sample count");

    // Parse back the flight JSONL: JSON object per line, dropped-count trailer.
    let flight_jsonl = std::fs::read_to_string(out.join("probe_study_flight.jsonl")).unwrap();
    let lines: Vec<&str> = flight_jsonl.lines().collect();
    assert_eq!(lines.len(), flight.len() + 1);
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(lines.last().unwrap().starts_with("{\"flight_dropped\":"));

    // Parse back the engine diagnostics CSV: the full post-fabric column set
    // (arena growth, ring high-water marks, and the PR-8 active-set
    // populations), with a live network necessarily driving both active sets.
    let diag_csv = std::fs::read_to_string(out.join("probe_study_diag.csv")).unwrap();
    let mut diag_rows = diag_csv.lines();
    assert_eq!(
        diag_rows.next().expect("diag CSV is empty"),
        "cycle,arena_grows,phit_ring_high_water,credit_ring_high_water,active_links,active_routers",
        "diag CSV header drifted from the documented schema"
    );
    let (mut peak_links, mut peak_routers) = (0u64, 0u64);
    for row in diag_rows {
        let f: Vec<&str> = row.split(',').collect();
        assert_eq!(f.len(), 6, "malformed diag row: {row}");
        peak_links = peak_links.max(f[4].parse().expect("malformed active_links"));
        peak_routers = peak_routers.max(f[5].parse().expect("malformed active_routers"));
    }
    assert!(
        peak_links > 0 && peak_routers > 0,
        "a loaded run must populate the link and router active sets"
    );
    println!("active-set peaks: {peak_links} links, {peak_routers} routers");

    // Parse back the heatmap CSV and locate the hottest (link, VC) cell.
    let heatmap_csv = std::fs::read_to_string(out.join("probe_study_heatmap.csv")).unwrap();
    let hottest = heatmap_csv
        .lines()
        .skip(1)
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            let phits: u64 = f[5].parse().expect("malformed heatmap row");
            (
                phits,
                f[0].to_string(),
                f[1].to_string(),
                f[2].to_string(),
                f[3].to_string(),
                f[4].to_string(),
            )
        })
        .max()
        .expect("heatmap recorded nothing");
    println!(
        "hottest heatmap cell: router {} port {} ({}) vc {} carried {} phits in the window \
         starting at cycle {}",
        hottest.2, hottest.3, hottest.4, hottest.5, hottest.0, hottest.1
    );

    assert!(!report.deadlock_detected);
    println!("\nprobe study complete — outputs under {}", out.display());
}
