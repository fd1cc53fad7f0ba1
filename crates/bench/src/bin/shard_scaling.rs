//! Strong-scaling study of the sharded single-simulation engine.
//!
//! One steady-state point is run on the sequential engine and then on the
//! sharded engine (`dragonfly_shard`) with shards ∈ {1, 2, 4, 8}, at
//! h ∈ {4, 6, 8} by default.  For every combination the binary
//!
//! * verifies the sharded report is **byte-identical** to the sequential one
//!   (the engine's cardinal invariant — a mismatch aborts the run), and
//! * records the wall-clock time and the speedup over the sequential engine.
//!
//! Output: `results/shard_scaling.csv` (`h,shards,wall_ms,speedup,identical`;
//! the `shards = 0` row is the sequential-engine baseline).  The perf ledger's
//! `un_h8` / `un_h8_shard2` workloads (`benchmark/`) are the tracked record of
//! the shard layer's cost; this binary is the wider one-off study.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin shard_scaling
//! cargo run --release -p dragonfly_bench --bin shard_scaling -- --quick
//! ```
//!
//! Without `--warmup`/`--measure` the windows are a deliberately modest
//! 300/600/600 cycles: the study measures engine scaling, not steady-state
//! convergence.  `--quick` shrinks to h ∈ {2, 4} for CI smoke runs.  The
//! scales are the study's own: `--h` is refused (exit 2, nothing run or
//! written) rather than silently ignored.
//! Points are timed one at a time (`--jobs` does not apply here: the shards
//! themselves are the parallelism being measured).

use dragonfly_bench::HarnessArgs;
use dragonfly_core::{
    CsvWriter, ExperimentSpec, FlowControlKind, RoutingKind, RunOptions, Steady, TrafficKind,
};
use std::time::Instant;

/// Shard counts swept at every scale (clamped to cores and groups below).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn point_spec(args: &HarnessArgs, h: usize) -> ExperimentSpec {
    let mut spec = args.base_spec(FlowControlKind::Vct);
    spec.h = h;
    spec.routing = RoutingKind::Olm;
    spec.traffic = TrafficKind::Uniform;
    spec.offered_load = 0.2;
    spec
}

fn main() {
    let args = HarnessArgs::from_env_over(HarnessArgs {
        warmup: 300,
        measure: 600,
        drain: 600,
        ..HarnessArgs::default()
    });
    if std::env::args().skip(1).any(|arg| arg == "--h") {
        eprintln!(
            "shard_scaling sweeps its own scales (h = 2 and 4 with --quick, 4, 6 and 8 \
             otherwise) and takes no --h"
        );
        std::process::exit(2);
    }
    let scales: Vec<usize> = if args.quick {
        vec![2, 4]
    } else {
        vec![4, 6, 8]
    };
    // Every point's configuration is checked before any runs, so a refused
    // one exits 2 with its message and writes nothing.
    for &h in &scales {
        if let Err(msg) = point_spec(&args, h).sim_config().check() {
            eprintln!("h = {h}: {msg}");
            std::process::exit(2);
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let path = args.csv_path("shard_scaling.csv");
    let mut csv =
        CsvWriter::create(&path, "h,shards,wall_ms,speedup,identical").expect("cannot create CSV");

    println!("== Sharded-engine strong scaling (OLM, UN, load 0.2) ==");
    println!(
        "{:>3} {:>7} {:>10} {:>9} {:>10}",
        "h", "shards", "wall_ms", "speedup", "identical"
    );
    for &h in &scales {
        let spec = point_spec(&args, h);
        let groups = 2 * h * h + 1;

        // Sequential-engine baseline (the `shards = 0` CSV row).
        let t0 = Instant::now();
        let baseline = spec.run();
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            !baseline.deadlock_detected,
            "baseline deadlocked at h = {h}"
        );
        println!(
            "{h:>3} {:>7} {seq_ms:>10.1} {:>9} {:>10}",
            "seq", "1.00", "-"
        );
        csv.row(&format!("{h},0,{seq_ms:.3},1.0,true"))
            .expect("CSV write failed");

        // With --probe*, one extra sequential run outside the timed region
        // carries the probes, so the scaling numbers stay untouched while the
        // probe output (and its report-identity guarantee) is still exercised.
        if args.probe.is_some() {
            let options = RunOptions {
                shards: None,
                probes: args.probe.clone(),
            };
            let (report, probe) = spec.run_with(Steady, &options);
            let probe = probe.expect("probes were requested");
            assert!(
                report == baseline,
                "probed report diverged from the unprobed baseline at h = {h} — probes \
                 must be passive"
            );
            let prefix = format!("shard_scaling_h{h}");
            args.write_probe(
                &probe,
                &prefix,
                &spec.manifest_with_report(&prefix, &report),
            );
        }

        for &shards in &SHARD_COUNTS {
            if shards > groups || shards > cores {
                continue;
            }
            let options = RunOptions {
                shards: Some(shards),
                probes: None,
            };
            let t0 = Instant::now();
            let (report, _) = spec.run_with(Steady, &options);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let identical = report == baseline;
            let speedup = seq_ms / ms;
            println!("{h:>3} {shards:>7} {ms:>10.1} {speedup:>9.2} {identical:>10}");
            csv.row(&format!("{h},{shards},{ms:.3},{speedup:.4},{identical}"))
                .expect("CSV write failed");
            assert!(
                identical,
                "sharded report diverged from the sequential engine at h = {h}, \
                 {shards} shards — this is an engine bug"
            );
        }
    }
    csv.flush().expect("CSV flush failed");
    println!("\nwrote {path:?} ({} rows)", csv.rows_written());
}
