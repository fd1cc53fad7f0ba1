//! Delay attribution: where Minimal's latency actually goes vs where OLM's
//! goes under ADVG+1 — the headline study of the per-packet delay ledger.
//!
//! ```text
//! cargo run --release --example delay_attribution            # paper scale, h = 8
//! cargo run --release --example delay_attribution -- 2       # quick, h = 2
//! ```
//!
//! Runs both mechanisms on the same adversarial configuration with
//! `--probe-delay` semantics (every delivered packet's exact six-component
//! decomposition folded into the ledger), verifies integer conservation live,
//! prints the network-wide component tables, and records the study as
//! `results/delay_attribution_h<h>.md`.

use std::fmt::Write as _;

use dragonfly::core::{ExperimentSpec, ProbeConfig, RoutingKind, RunOptions, Steady, TrafficKind};
use dragonfly::probe::{DelayLedger, DelayRow, DELAY_COMPONENT_NAMES};
use dragonfly::topology::DragonflyParams;

const LOAD: f64 = 0.2;
const SEED: u64 = 23;

struct Study {
    kind: RoutingKind,
    accepted: f64,
    avg_latency: f64,
    net: Vec<DelayRow>,
    minimal_packets: u64,
    misrouted_packets: u64,
    detour_cycles: u64,
    total_cycles: u64,
    folded: u64,
}

fn run(kind: RoutingKind, h: usize, warmup: u64, measure: u64) -> Study {
    let mut spec = ExperimentSpec::new(h);
    spec.routing = kind;
    spec.traffic = TrafficKind::AdversarialGlobal(1);
    spec.offered_load = LOAD;
    spec.seed = SEED;
    spec.warmup = warmup;
    spec.measure = measure;
    spec.drain = 8 * measure;
    let probes = ProbeConfig {
        delay: true,
        ..ProbeConfig::full(64)
    };
    let options = RunOptions {
        probes: Some(probes),
        ..RunOptions::default()
    };
    let (report, probe) = spec.run_with(Steady, &options);
    let probe = probe.expect("probes were requested");
    let ledger: &DelayLedger = probe.delay_ledger().expect("delay ledger installed");
    assert!(ledger.folded() > 0, "{kind:?}: nothing delivered");
    assert_eq!(
        ledger.violations(),
        0,
        "{kind:?}: component conservation violated"
    );
    let net: Vec<DelayRow> = ledger
        .rows()
        .into_iter()
        .filter(|r| r.scope == "net")
        .collect();
    assert_eq!(net.len(), DELAY_COMPONENT_NAMES.len());
    Study {
        kind,
        accepted: report.accepted_load,
        avg_latency: report.avg_latency_cycles,
        minimal_packets: ledger.minimal().packets,
        misrouted_packets: ledger.misrouted().packets,
        detour_cycles: ledger.minimal().cycles[4] + ledger.misrouted().cycles[4],
        total_cycles: net.iter().map(|r| r.cycles).sum(),
        folded: ledger.folded(),
        net,
    }
}

fn table(md: &mut String, s: &Study) {
    let _ = writeln!(
        md,
        "\n## {:?}\n\naccepted load {:.3}, mean latency {:.1} cycles; {} packets folded, \
         {} minimal / {} misrouted, conservation violations 0.\n",
        s.kind, s.accepted, s.avg_latency, s.folded, s.minimal_packets, s.misrouted_packets
    );
    let _ = writeln!(
        md,
        "| component | cycles | share | mean/pkt | p50 | p95 | p99 |\n\
         |---|---:|---:|---:|---:|---:|---:|"
    );
    for r in &s.net {
        let pct = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        let _ = writeln!(
            md,
            "| {} | {} | {:.1} % | {:.2} | {} | {} | {} |",
            r.component,
            r.cycles,
            100.0 * r.cycles as f64 / s.total_cycles as f64,
            r.cycles as f64 / s.folded as f64,
            pct(r.p50),
            pct(r.p95),
            pct(r.p99),
        );
    }
}

/// Name of the component carrying the most cycles in the study.
fn dominant(s: &Study) -> (&'static str, f64) {
    let r = s.net.iter().max_by_key(|r| r.cycles).unwrap();
    (r.component, 100.0 * r.cycles as f64 / s.total_cycles as f64)
}

fn main() {
    let h: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    // Short windows at paper scale (one h = 8 cycle is ~4 orders of magnitude
    // more work than one h = 2 cycle), longer ones on the small machines.
    let (warmup, measure) = if h >= 8 { (300, 600) } else { (1_000, 3_000) };
    let nodes = DragonflyParams::new(h).num_nodes();

    println!("Delay attribution under ADVG+1 (h = {h}, {nodes} nodes, load {LOAD})...");
    let minimal = run(RoutingKind::Minimal, h, warmup, measure);
    println!(
        "  Minimal: mean latency {:.1} cycles, dominant component {} ({:.1} %)",
        minimal.avg_latency,
        dominant(&minimal).0,
        dominant(&minimal).1
    );
    let olm = run(RoutingKind::Olm, h, warmup, measure);
    println!(
        "  OLM:     mean latency {:.1} cycles, dominant component {} ({:.1} %)",
        olm.avg_latency,
        dominant(&olm).0,
        dominant(&olm).1
    );

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Delay attribution at h = {h}: Minimal vs OLM under ADVG+1\n\n\
         Recorded from\n\n\
         ```text\n\
         cargo run --release --example delay_attribution{}\n\
         ```\n\n\
         ADVG+1 traffic (every node in group *i* sends to group *i*+1) at \
         offered load {LOAD} on the h = {h} machine ({nodes} nodes), seed \
         {SEED}, warmup {warmup} / measure {measure} cycles.  Every delivered \
         packet's latency is decomposed *exactly* (integer conservation, no \
         residual — `violations = 0` asserted live for both runs) into the six \
         ledger components; shares are of total network-wide delay cycles, \
         percentiles are exact 1-cycle upper bin edges.",
        if h == 8 {
            String::new()
        } else {
            format!(" -- {h}")
        }
    );
    table(&mut md, &minimal);
    table(&mut md, &olm);

    // Queueing = the three wait components (injection_queue, vc_wait,
    // credit_wait); the rest is wire time, detour, and serialization.
    let queueing = |s: &Study| {
        let q: u64 = s.net[..3].iter().map(|r| r.cycles).sum();
        100.0 * q as f64 / s.total_cycles as f64
    };
    let (min_dom, min_share) = dominant(&minimal);
    let (olm_dom, olm_share) = dominant(&olm);
    let _ = writeln!(
        md,
        "\n## Reading\n\n\
         The two mechanisms spend their latency in different places, and the \
         ledger names them.  Minimal routing forces every packet of group *i* \
         onto the single *i* → *i*+1 global link, so {:.1} % of its delay \
         cycles are queueing (**{min_dom}** alone is {min_share:.1} %) — \
         packets back up at the sources and in VC buffers behind the \
         bottleneck link — while its detour component is identically 0 \
         ({} cycles) by construction.  OLM instead misroutes {} of {} \
         delivered packets ({:.1} %) through an intermediate group: queueing \
         collapses to {:.1} % and its dominant component is plain \
         **{olm_dom}** ({olm_share:.1} %), i.e. wire time.  It pays {} detour \
         cycles ({:.1} % of its total) for the longer non-minimal paths, and \
         in exchange the mean end-to-end latency drops from {:.1} to {:.1} \
         cycles ({:.1}×).  This is the paper's adversarial argument made \
         quantitative per component: under ADVG the minimal path *is* the \
         congestion, and the cycles OLM spends detouring buy back far more \
         cycles of queueing.",
        queueing(&minimal),
        minimal.detour_cycles,
        olm.misrouted_packets,
        olm.folded,
        100.0 * olm.misrouted_packets as f64 / olm.folded as f64,
        queueing(&olm),
        olm.detour_cycles,
        100.0 * olm.detour_cycles as f64 / olm.total_cycles as f64,
        minimal.avg_latency,
        olm.avg_latency,
        minimal.avg_latency / olm.avg_latency,
    );

    std::fs::create_dir_all("results").expect("cannot create results/");
    let path = format!("results/delay_attribution_h{h}.md");
    std::fs::write(&path, &md).expect("cannot write the study");
    println!("recorded {path}");
}
