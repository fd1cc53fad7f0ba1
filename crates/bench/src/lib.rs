//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the paper.  They
//! all accept the same command-line switches, parsed by [`HarnessArgs`]:
//!
//! ```text
//! --h <N>          Dragonfly parameter h (default 4; the paper uses 8)
//! --full           paper scale: h = 8 and the paper's cycle counts
//! --quick          reduced scale for smoke runs (h = 2, short windows, fewer points)
//! --warmup <N>     warm-up cycles
//! --measure <N>    measurement cycles
//! --seed <N>       base random seed
//! --jobs <N>       worker threads for the sweep (default: all cores; --threads is
//!                  an alias)
//! --shards <N>     shard every simulation point across N threads (byte-identical
//!                  reports; sweep workers are capped so workers × shards ≤ cores)
//! --sequential     run the sweep points in order on one thread (same results)
//! --out <DIR>      directory for CSV output (default: results/)
//! --loads a,b,c    explicit offered-load points
//! --pattern <P>    traffic pattern selector where applicable (un, advg1, advgh, all)
//! --json <FILE>    structured JSON output, one object per point (churn_sweep
//!                  only)
//! --probe          install observability probes and write their output files
//!                  next to the CSVs (all simulation binaries; table1 is
//!                  closed-form and has nothing to probe)
//! --probe-stride N   time-series sampling stride in cycles (default 64; implies
//!                    --probe)
//! --probe-flight N   sample ~1/N packets into the flight recorder (0 = off;
//!                    implies --probe)
//! --probe-heatmap N  per-(link, VC) heatmap window in cycles (0 = off; implies
//!                    --probe)
//! --probe-top N      routers in the per-router time-series cut (implies --probe)
//! --probe-detect     arm the anomaly detectors (implies --probe); trips
//!                    land in <prefix>_trigger.jsonl plus a black-box bundle
//!                    around the first trip
//! --probe-detect-window N    detector evaluation window in samples (implies
//!                            --probe-detect)
//! --probe-detect-collapse P  throughput-collapse threshold: trip when delivered
//!                            < P% of injected over a window (implies
//!                            --probe-detect)
//! --probe-detect-stall N     credit-stall run length in samples, ≥ 1
//!                            (implies --probe-detect)
//! --probe-trace    export detector trips as Chrome trace_event / Perfetto JSON
//!                  (<prefix>_trace.json; implies --probe)
//! --probe-delay    fold every delivered packet's delay decomposition into the
//!                  per-component ledger and emit <prefix>_delay.csv/.jsonl
//!                  (implies --probe)
//! ```
//!
//! Flag order never matters (presets apply first, explicit values second).
//! Every sweep executes through [`HarnessArgs::run_points`]: the points run on
//! a [`dragonfly_core::SweepRunner`] worker pool with deterministic result
//! ordering and a progress/ETA line on stderr, under the engine options
//! `--shards`/`--probe*` imply, and any probe file sets are written out;
//! `--sequential` falls back to a plain in-order loop that produces
//! byte-identical CSVs.

use dragonfly_core::{
    DetectorConfig, ExperimentSpec, FlowControlKind, ProbeConfig, Protocol, RunManifest,
    RunOptions, SimReport, SweepRunner, WorkloadReport,
};
use std::path::{Path, PathBuf};

/// Parsed command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dragonfly parameter `h`.
    pub h: usize,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Drain cycles.
    pub drain: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (`None` = all cores).
    pub threads: Option<usize>,
    /// Shards per simulation point (1 = the sequential engine).
    pub shards: usize,
    /// Run sweep points sequentially on the calling thread.
    pub sequential: bool,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Offered-load points (figures 4/5/7/8/10/11).
    pub loads: Vec<f64>,
    /// Whether `--loads` was passed explicitly (`churn_sweep` substitutes its
    /// own default set otherwise).
    pub loads_explicit: bool,
    /// Traffic-pattern selector (figures 4/5/7/8): `un`, `advg1`, `advgh` or `all`.
    pub pattern: String,
    /// Quick mode (CI smoke runs).
    pub quick: bool,
    /// Structured JSON output file (`churn_sweep`; other binaries refuse it).
    pub json_out: Option<PathBuf>,
    /// Observability probe configuration (`--probe*` flags); `None` = off.
    pub probe: Option<ProbeConfig>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            h: 4,
            warmup: 6_000,
            measure: 8_000,
            drain: 8_000,
            seed: 1,
            threads: None,
            shards: 1,
            sequential: false,
            out_dir: PathBuf::from("results"),
            loads: dragonfly_core::sweep::default_loads(),
            loads_explicit: false,
            pattern: "all".to_string(),
            quick: false,
            json_out: None,
            probe: None,
        }
    }
}

impl HarnessArgs {
    /// Parse from an explicit argument list (excluding the program name) over
    /// the global defaults.
    pub fn parse_from<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::parse_over(Self::default(), args)
    }

    /// Parse `args` over `base`, the values a binary wants when a flag is not
    /// passed (`shard_scaling` runs shorter windows than the figures).
    ///
    /// Flag order never matters: the `--quick`/`--full` presets and the
    /// `--measure` ⇒ drain default apply first, explicit `--h`, `--warmup`,
    /// `--measure`, `--drain` and `--loads` values second.  `--help`/`-h`
    /// yields the bare usage text as the error.
    pub fn parse_over<I, S>(base: Self, args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = base;
        // Explicit values, held back until every preset has been applied.
        let (mut h, mut warmup, mut measure, mut drain, mut loads) = (None, None, None, None, None);
        let args: Vec<String> = args.into_iter().map(|a| a.as_ref().to_string()).collect();
        let mut i = 0;
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--h" => h = Some(number("--h", value(&mut i)?)?),
                "--warmup" => warmup = Some(number("--warmup", value(&mut i)?)?),
                "--measure" => measure = Some(number("--measure", value(&mut i)?)?),
                "--drain" => drain = Some(number("--drain", value(&mut i)?)?),
                "--seed" => {
                    out.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--jobs" | "--threads" => {
                    out.threads = Some(value(&mut i)?.parse().map_err(|e| format!("--jobs: {e}"))?)
                }
                "--shards" => {
                    out.shards = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?;
                    if out.shards == 0 {
                        return Err("--shards must be at least 1".to_string());
                    }
                }
                "--sequential" => out.sequential = true,
                "--probe" => {
                    out.probe.get_or_insert_with(ProbeConfig::default);
                }
                "--probe-stride" => {
                    let stride = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-stride: {e}"))?;
                    if stride == 0 {
                        return Err("--probe-stride must be at least 1 cycle".to_string());
                    }
                    out.probe.get_or_insert_with(ProbeConfig::default).stride = stride;
                }
                "--probe-flight" => {
                    out.probe
                        .get_or_insert_with(ProbeConfig::default)
                        .flight_every = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-flight: {e}"))?;
                }
                "--probe-heatmap" => {
                    out.probe
                        .get_or_insert_with(ProbeConfig::default)
                        .heatmap_window = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-heatmap: {e}"))?;
                }
                "--probe-top" => {
                    out.probe.get_or_insert_with(ProbeConfig::default).top_k = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-top: {e}"))?;
                }
                "--probe-detect" => {
                    armed_detect(&mut out.probe);
                }
                "--probe-detect-window" => {
                    let window = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-detect-window: {e}"))?;
                    if window == 0 {
                        return Err("--probe-detect-window must be at least 1 sample".to_string());
                    }
                    armed_detect(&mut out.probe).window = window;
                }
                "--probe-detect-collapse" => {
                    armed_detect(&mut out.probe).collapse_pct = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-detect-collapse: {e}"))?;
                }
                "--probe-detect-stall" => {
                    let stall = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--probe-detect-stall: {e}"))?;
                    if stall == 0 {
                        return Err("--probe-detect-stall must be at least 1 sample".to_string());
                    }
                    armed_detect(&mut out.probe).stall_samples = stall;
                }
                "--probe-trace" => {
                    out.probe.get_or_insert_with(ProbeConfig::default).trace = true;
                }
                "--probe-delay" => {
                    out.probe.get_or_insert_with(ProbeConfig::default).delay = true;
                }
                "--out" => out.out_dir = PathBuf::from(value(&mut i)?),
                "--json" => out.json_out = Some(PathBuf::from(value(&mut i)?)),
                "--pattern" => out.pattern = value(&mut i)?,
                "--loads" => {
                    loads = Some(
                        value(&mut i)?
                            .split(',')
                            .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--loads: {e}")))
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                "--full" => {
                    out.h = 8;
                    out.warmup = 20_000;
                    out.measure = 30_000;
                    out.drain = 30_000;
                }
                "--quick" => {
                    out.quick = true;
                    out.h = 2;
                    out.warmup = 1_000;
                    out.measure = 2_000;
                    out.drain = 2_000;
                    out.loads = vec![0.1, 0.3, 0.5, 0.8];
                }
                "--help" | "-h" => return Err(usage()),
                other => return Err(format!("unknown argument `{other}`\n{}", usage())),
            }
            i += 1;
        }
        out.h = h.unwrap_or(out.h);
        out.warmup = warmup.unwrap_or(out.warmup);
        if let Some(measure) = measure {
            out.measure = measure;
            out.drain = measure;
        }
        out.drain = drain.unwrap_or(out.drain);
        out.loads_explicit = loads.is_some();
        out.loads = loads.unwrap_or(out.loads);
        // A shard owns at least one whole group, and there are 2h² + 1 of them.
        let groups = out
            .h
            .saturating_mul(out.h)
            .saturating_mul(2)
            .saturating_add(1);
        if out.shards > groups {
            return Err(format!(
                "--shards {} exceeds the {groups} groups of an h = {} dragonfly (a shard \
                 owns at least one whole group)",
                out.shards, out.h
            ));
        }
        Ok(out)
    }

    /// Parse from the process arguments over the global defaults (see
    /// [`HarnessArgs::from_env_over`]).
    pub fn from_env() -> Self {
        Self::from_env_over(Self::default())
    }

    /// Parse from the process arguments over `base`: `--help` prints the usage
    /// on stdout and exits 0, a bad argument prints a message on stderr and
    /// exits 2.
    pub fn from_env_over(base: Self) -> Self {
        match Self::parse_over(base, std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) if msg == usage() => {
                println!("{msg}");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The base experiment specification implied by these arguments.
    pub fn base_spec(&self, flow_control: FlowControlKind) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(self.h);
        spec.flow_control = flow_control;
        spec.warmup = self.warmup;
        spec.measure = self.measure;
        spec.drain = self.drain;
        spec.seed = self.seed;
        spec
    }

    /// Ensure the output directory exists and return the path of a CSV file inside it.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("cannot create the output directory");
        self.out_dir.join(name)
    }

    /// The engine options implied by these arguments: `--shards N` (N > 1)
    /// shards every point across N threads, `--probe*` installs the probes.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            shards: (self.shards > 1).then_some(self.shards),
            probes: self.probe.clone(),
        }
    }

    /// Run `specs` under `protocol` through a [`SweepRunner`] — `--jobs` workers
    /// (all cores by default) or the `--sequential` in-order loop, progress/ETA
    /// on stderr — with [`HarnessArgs::run_options`], and return the reports in
    /// spec order.  With `--probe*`, each point's probe file set is written into
    /// the output directory under the prefix `probe_prefix` gives its spec.
    pub fn run_points<P: Protocol>(
        &self,
        label: impl Into<String>,
        specs: &[ExperimentSpec],
        protocol: P,
        probe_prefix: impl Fn(&ExperimentSpec) -> String,
    ) -> Vec<P::Report> {
        SweepRunner::new(label)
            .jobs(self.threads)
            .sequential(self.sequential)
            .run_with(specs, protocol, &self.run_options())
            .into_iter()
            .zip(specs)
            .map(|((report, probe), spec)| {
                if let Some(probe) = probe {
                    let prefix = probe_prefix(spec);
                    // Batch reports carry no peak telemetry; their manifest peaks stay 0.
                    let manifest = match P::aggregate(&report) {
                        Some(aggregate) => spec.manifest_with_report(&prefix, aggregate),
                        None => spec.manifest(&prefix),
                    };
                    self.write_probe(&probe, &prefix, &manifest);
                }
                report
            })
            .collect()
    }

    /// Exit with usage status when `--json` was passed: binaries with no
    /// structured output call this right after parsing, so the flag fails fast
    /// instead of being silently ignored.
    pub fn reject_json(&self, binary: &str) {
        if self.json_out.is_some() {
            eprintln!("--json is not supported by {binary} (only churn_sweep emits JSON)");
            std::process::exit(2);
        }
    }

    /// Write a probe recorder's full output set into the output directory with
    /// the given file-name prefix — including the self-describing
    /// `<prefix>_manifest.json` — printing what was written.
    pub fn write_probe(
        &self,
        probe: &dragonfly_core::ProbeRecorder,
        prefix: &str,
        manifest: &RunManifest,
    ) {
        std::fs::create_dir_all(&self.out_dir).expect("cannot create the output directory");
        let files = probe
            .write_all_with_manifest(&self.out_dir, prefix, manifest)
            .expect("cannot write probe output");
        for file in files {
            println!("wrote {}", file.display());
        }
    }
}

/// Parse the value of a numeric flag, naming the flag in the error.
fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `--probe-detect*` helper: ensure probes exist and the detectors are armed
/// (idempotently, so later `--probe-detect-*` knobs refine rather than reset).
fn armed_detect(probe: &mut Option<ProbeConfig>) -> &mut DetectorConfig {
    let cfg = probe.get_or_insert_with(ProbeConfig::default);
    if !cfg.detect.enabled() {
        cfg.detect = DetectorConfig::armed();
    }
    &mut cfg.detect
}

/// Lowercased file-name-safe slug of a display label: alphanumerics survive,
/// any other run of characters collapses to a single `-` (so `PAR-6/2` becomes
/// `par-6-2` and `0.30` becomes `0-30`).  Used to build per-point probe file
/// prefixes from mechanism names and loads.
pub fn file_slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

fn usage() -> String {
    "usage: <figure-binary> [--h N] [--full] [--quick] [--warmup N] [--measure N] \
     [--drain N] [--seed N] [--jobs N] [--shards N] [--sequential] [--out DIR] \
     [--loads a,b,c] [--pattern P] [--json FILE (churn_sweep)] \
     [--probe] [--probe-stride N] [--probe-flight N] [--probe-heatmap N] \
     [--probe-top N] [--probe-detect] [--probe-detect-window N] \
     [--probe-detect-collapse PCT] [--probe-detect-stall N] [--probe-trace] \
     [--probe-delay]"
        .to_string()
}

/// Pretty-print a set of steady-state reports as the latency/throughput series of a
/// figure, grouped by mechanism.
pub fn print_series(title: &str, reports: &[SimReport]) {
    println!("\n== {title} ==");
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12} {:>10} {:>9} {:>9}",
        "routing", "offered", "accepted", "avg_lat", "p99_lat", "hops", "gmis%", "lmis%"
    );
    for r in reports {
        println!(
            "{:<10} {:>8.3} {:>10.4} {:>12.1} {:>12.1} {:>10.2} {:>8.1}% {:>8.1}%",
            r.routing,
            r.offered_load,
            r.accepted_load,
            r.avg_latency_cycles,
            r.p99_latency_cycles,
            r.avg_hops,
            r.global_misroute_fraction * 100.0,
            r.local_misroute_fraction * 100.0
        );
    }
}

/// Write the per-phase CSV shared by the workload binaries: one row per
/// (entry, job, phase), each prefixed with the entry's own columns (at least the
/// routing name; sweep grids add placement/load columns).
///
/// `prefix_header` names the prefix columns (e.g. `"routing"` or
/// `"routing,placement,aggressor_load"`); each entry pairs the matching prefix
/// values with its report.  Returns the number of data rows written.
pub fn write_workload_phase_csv(
    path: &Path,
    prefix_header: &str,
    entries: &[(String, &WorkloadReport)],
) -> std::io::Result<usize> {
    write_prefixed_csv(
        path,
        prefix_header,
        dragonfly_core::PhaseReport::csv_header(),
        entries,
        WorkloadReport::phase_csv_rows,
    )
}

/// Write the per-job CSV of the churn binaries: one row per (entry, job), each
/// prefixed with the entry's own columns and carrying the lifecycle columns
/// (arrival/placed/completion/wait/slowdown).  The job-level sibling of
/// [`write_workload_phase_csv`]; returns the number of data rows written.
pub fn write_workload_job_csv(
    path: &Path,
    prefix_header: &str,
    entries: &[(String, &WorkloadReport)],
) -> std::io::Result<usize> {
    write_prefixed_csv(
        path,
        prefix_header,
        dragonfly_core::JobReport::csv_header(),
        entries,
        WorkloadReport::job_csv_rows,
    )
}

/// Shared body of the workload CSV writers: each entry's rows, prefixed with the
/// entry's own columns.
fn write_prefixed_csv(
    path: &Path,
    prefix_header: &str,
    row_header: &str,
    entries: &[(String, &WorkloadReport)],
    rows: impl Fn(&WorkloadReport) -> Vec<String>,
) -> std::io::Result<usize> {
    use dragonfly_core::CsvWriter;
    let mut csv = CsvWriter::create(path, &format!("{prefix_header},{row_header}"))?;
    for (prefix, report) in entries {
        for row in rows(report) {
            csv.row(&format!("{prefix},{row}"))?;
        }
    }
    csv.flush()?;
    Ok(csv.rows_written())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let args = HarnessArgs::default();
        assert_eq!(args.h, 4);
        assert!(!args.loads.is_empty());
        assert_eq!(args.pattern, "all");
    }

    #[test]
    fn parse_overrides() {
        let args = HarnessArgs::parse_from([
            "--h",
            "3",
            "--warmup",
            "100",
            "--measure",
            "200",
            "--seed",
            "9",
            "--threads",
            "2",
            "--out",
            "/tmp/x",
            "--loads",
            "0.1,0.2",
            "--pattern",
            "advg1",
        ])
        .unwrap();
        assert_eq!(args.h, 3);
        assert_eq!(args.warmup, 100);
        assert_eq!(args.measure, 200);
        assert_eq!(args.drain, 200);
        assert_eq!(args.seed, 9);
        assert_eq!(args.threads, Some(2));
        assert_eq!(args.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(args.loads, vec![0.1, 0.2]);
        assert_eq!(args.pattern, "advg1");
    }

    #[test]
    fn parse_full_and_quick_presets() {
        let full = HarnessArgs::parse_from(["--full"]).unwrap();
        assert_eq!(full.h, 8);
        assert_eq!(full.warmup, 20_000);
        let quick = HarnessArgs::parse_from(["--quick"]).unwrap();
        assert_eq!(quick.h, 2);
        assert!(quick.quick);
        assert!(quick.loads.len() <= 5);
        assert!(!quick.loads_explicit);
        // An explicit --loads survives the --quick preset, in either order.
        for argv in [
            ["--quick", "--loads", "0.3,0.9"],
            ["--loads", "0.3,0.9", "--quick"],
        ] {
            let args = HarnessArgs::parse_from(argv).unwrap();
            assert_eq!(args.loads, vec![0.3, 0.9]);
            assert!(args.loads_explicit);
        }
        // So does every other explicit value, under either preset.
        for preset in ["--quick", "--full"] {
            for argv in [
                [preset, "--h", "4", "--warmup", "11", "--measure", "22"],
                ["--h", "4", "--warmup", "11", "--measure", "22", preset],
            ] {
                let args = HarnessArgs::parse_from(argv).unwrap();
                assert_eq!(
                    (args.h, args.warmup, args.measure, args.drain),
                    (4, 11, 22, 22),
                    "{argv:?}"
                );
            }
            for argv in [[preset, "--drain", "33"], ["--drain", "33", preset]] {
                let args = HarnessArgs::parse_from(argv).unwrap();
                assert_eq!(args.drain, 33, "{argv:?}");
                assert_eq!(
                    args.measure,
                    if preset == "--quick" { 2_000 } else { 30_000 }
                );
            }
        }
        // --measure defaults the drain budget, an explicit --drain wins, in
        // either order.
        for argv in [
            ["--drain", "500", "--measure", "1000"],
            ["--measure", "1000", "--drain", "500"],
        ] {
            let args = HarnessArgs::parse_from(argv).unwrap();
            assert_eq!((args.measure, args.drain), (1_000, 500), "{argv:?}");
        }
    }

    #[test]
    fn parse_over_keeps_explicit_values_equal_to_the_global_default() {
        // shard_scaling's base: shorter windows than the figures.
        let parse = |argv: &[&str]| {
            let base = HarnessArgs {
                warmup: 300,
                measure: 600,
                drain: 600,
                ..HarnessArgs::default()
            };
            let args = HarnessArgs::parse_over(base, argv).unwrap();
            (args.warmup, args.measure, args.drain)
        };
        assert_eq!(parse(&[]), (300, 600, 600));
        // 6000 / 8000 are the *global* defaults: passing them is not "not passed".
        assert_eq!(
            parse(&["--warmup", "6000", "--measure", "8000"]),
            (6_000, 8_000, 8_000)
        );
        assert_eq!(
            parse(&["--measure", "8000", "--warmup", "6000"]),
            (6_000, 8_000, 8_000)
        );
        assert_eq!(parse(&["--warmup", "6000"]), (6_000, 600, 600));
        // Presets still replace the base, explicit values still beat presets.
        assert_eq!(parse(&["--quick"]), (1_000, 2_000, 2_000));
        assert_eq!(
            parse(&["--quick", "--warmup", "6000"]),
            (6_000, 2_000, 2_000)
        );
        assert_eq!(
            parse(&["--warmup", "6000", "--quick"]),
            (6_000, 2_000, 2_000)
        );
        // parse_from is parse_over the global defaults.
        let args = HarnessArgs::parse_from::<[&str; 0], _>([]).unwrap();
        assert_eq!(
            (args.warmup, args.measure, args.drain),
            (6_000, 8_000, 8_000)
        );
    }

    #[test]
    fn help_is_the_bare_usage_text() {
        for flag in ["--help", "-h"] {
            let err = HarnessArgs::parse_from(["--quick", flag]).unwrap_err();
            assert_eq!(err, usage());
        }
        // A real error carries its own message, so `from_env` can tell them apart.
        assert_ne!(HarnessArgs::parse_from(["--nope"]).unwrap_err(), usage());
    }

    #[test]
    fn parse_jobs_and_sequential() {
        let args = HarnessArgs::parse_from(["--jobs", "3", "--sequential"]).unwrap();
        assert_eq!(args.threads, Some(3));
        assert!(args.sequential);
        // --threads stays as an alias for scripts written against the old flag.
        let args = HarnessArgs::parse_from(["--threads", "5"]).unwrap();
        assert_eq!(args.threads, Some(5));
        assert!(!args.sequential);
    }

    #[test]
    fn workload_phase_csv_prefixes_rows() {
        use dragonfly_core::{RoutingKind, TrafficKind, WorkloadSpec};
        let mut spec = ExperimentSpec::new(2);
        spec.routing = RoutingKind::Olm;
        spec.traffic = TrafficKind::Workload(WorkloadSpec::interference(72, 1, 0.3, 0.1));
        spec.warmup = 300;
        spec.measure = 600;
        spec.drain = 600;
        let report = spec.run_workload();
        let dir = std::env::temp_dir().join("dragonfly_bench_phase_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phases.csv");
        let rows = write_workload_phase_csv(
            &path,
            "routing",
            &[(report.aggregate.routing.clone(), &report)],
        )
        .unwrap();
        assert_eq!(rows, 2, "one row per (job, phase)");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("routing,job,phase,"));
        assert!(content.lines().skip(1).all(|l| l.starts_with("OLM,")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_options_follow_the_flags() {
        assert_eq!(
            HarnessArgs::default().run_options(),
            dragonfly_core::RunOptions::default()
        );
        // One shard is the sequential engine, as the flag has always meant.
        let args = HarnessArgs::parse_from(["--shards", "1"]).unwrap();
        assert_eq!(args.run_options().shards, None);
        let args = HarnessArgs::parse_from(["--shards", "3", "--probe-stride", "16"]).unwrap();
        let options = args.run_options();
        assert_eq!(options.shards, Some(3));
        assert_eq!(options.probes.unwrap().stride, 16);
    }

    #[test]
    fn run_points_returns_reports_and_writes_probe_sets() {
        use dragonfly_core::{Batch, RoutingKind, Steady};
        let dir = std::env::temp_dir().join("dragonfly_bench_run_points_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap();
        let plain = HarnessArgs::parse_from(["--quick", "--sequential", "--out", out]).unwrap();
        let probed =
            HarnessArgs::parse_from(["--quick", "--sequential", "--out", out, "--probe"]).unwrap();
        let specs: Vec<ExperimentSpec> = [RoutingKind::Minimal, RoutingKind::Olm]
            .into_iter()
            .map(|routing| {
                let mut spec = plain.base_spec(FlowControlKind::Vct);
                spec.routing = routing;
                (spec.warmup, spec.measure, spec.drain) = (200, 400, 400);
                spec
            })
            .collect();
        let prefix = |spec: &ExperimentSpec| format!("pt_{}", file_slug(spec.routing.name()));

        // Without --probe nothing is written and the prefix is never asked for.
        let reports = plain.run_points("t", &specs, Steady, |_| unreachable!());
        assert!(!dir.exists());
        // With it, the reports are unchanged and every point gets its file set.
        assert_eq!(probed.run_points("t", &specs, Steady, prefix), reports);
        for name in ["pt_minimal", "pt_olm"] {
            assert!(dir.join(format!("{name}_series.csv")).exists());
            let manifest =
                std::fs::read_to_string(dir.join(format!("{name}_manifest.json"))).unwrap();
            assert!(manifest.contains("\"in_flight_packets\""));
        }
        // Batch reports have no aggregate: their manifests keep zero peaks.
        let batch = Batch {
            packets_per_node: 2,
            max_cycles: 100_000,
        };
        let bursts = probed.run_points("t", &specs[..1], batch, |_| "burst".to_string());
        assert!(!bursts[0].timed_out);
        let manifest = std::fs::read_to_string(dir.join("burst_manifest.json")).unwrap();
        assert!(manifest.contains("\"in_flight_packets\": 0"), "{manifest}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_probe_flags() {
        // No probe flag: probes stay off.
        assert!(HarnessArgs::parse_from(["--h", "2"])
            .unwrap()
            .probe
            .is_none());
        // --probe alone enables the defaults.
        let args = HarnessArgs::parse_from(["--probe"]).unwrap();
        assert_eq!(args.probe, Some(ProbeConfig::default()));
        // Any --probe-* knob implies --probe and composes with the others.
        let args = HarnessArgs::parse_from([
            "--probe-stride",
            "128",
            "--probe-heatmap",
            "256",
            "--probe-flight",
            "0",
            "--probe-top",
            "8",
        ])
        .unwrap();
        let cfg = args.probe.unwrap();
        assert_eq!(cfg.stride, 128);
        assert_eq!(cfg.heatmap_window, 256);
        assert_eq!(cfg.flight_every, 0);
        assert_eq!(cfg.top_k, 8);
        assert!(cfg.heatmap_enabled());
        assert!(!cfg.flight_enabled());
        // A zero stride is rejected at parse time.
        assert!(HarnessArgs::parse_from(["--probe-stride", "0"]).is_err());
    }

    #[test]
    fn parse_detect_and_trace_flags() {
        // --probe alone leaves the detectors off and the trace export off.
        let plain = HarnessArgs::parse_from(["--probe"]).unwrap().probe.unwrap();
        assert!(!plain.detect.enabled());
        assert!(!plain.trace);
        // --probe-detect implies --probe and arms the default detector set.
        let armed = HarnessArgs::parse_from(["--probe-detect"])
            .unwrap()
            .probe
            .unwrap();
        assert_eq!(armed.detect, dragonfly_core::DetectorConfig::armed());
        assert!(!armed.trace);
        // The detect knobs refine the armed defaults instead of resetting them,
        // in any order, and --probe-trace composes.
        let tuned = HarnessArgs::parse_from([
            "--probe-detect-collapse",
            "95",
            "--probe-detect-window",
            "4",
            "--probe-detect-stall",
            "3",
            "--probe-trace",
        ])
        .unwrap()
        .probe
        .unwrap();
        assert_eq!(tuned.detect.collapse_pct, 95);
        assert_eq!(tuned.detect.window, 4);
        assert_eq!(tuned.detect.stall_samples, 3);
        assert_eq!(
            tuned.detect.misroute_pct,
            dragonfly_core::DetectorConfig::armed().misroute_pct
        );
        assert!(tuned.trace);
        assert!(tuned.detect_enabled());
        // A zero window or stall run length is rejected at parse time.
        assert!(HarnessArgs::parse_from(["--probe-detect-window", "0"]).is_err());
        assert!(HarnessArgs::parse_from(["--probe-detect-stall", "0"]).is_err());
    }

    #[test]
    fn parse_delay_flag() {
        // --probe alone leaves the delay ledger off.
        let plain = HarnessArgs::parse_from(["--probe"]).unwrap().probe.unwrap();
        assert!(!plain.delay_enabled());
        // --probe-delay implies --probe and composes with other knobs.
        let delayed = HarnessArgs::parse_from(["--probe-delay", "--probe-stride", "32"])
            .unwrap()
            .probe
            .unwrap();
        assert!(delayed.delay_enabled());
        assert_eq!(delayed.stride, 32);
    }

    #[test]
    fn file_slug_flattens_display_labels() {
        assert_eq!(file_slug("PAR-6/2"), "par-6-2");
        assert_eq!(file_slug("OLM"), "olm");
        assert_eq!(file_slug("0.30"), "0-30");
        assert_eq!(file_slug("  Minimal  "), "minimal");
    }

    #[test]
    fn parse_rejects_unknown_and_missing() {
        assert!(HarnessArgs::parse_from(["--nope"]).is_err());
        assert!(HarnessArgs::parse_from(["--h"]).is_err());
        assert!(HarnessArgs::parse_from(["--h", "abc"]).is_err());
        // h = 2 has 2h² + 1 = 9 groups: nine shards fit, ten do not, whichever
        // flag (or preset) sets h and wherever it stands.
        assert_eq!(
            HarnessArgs::parse_from(["--h", "2", "--shards", "9"])
                .unwrap()
                .shards,
            9
        );
        for argv in [
            &["--h", "2", "--shards", "10"][..],
            &["--shards", "10", "--h", "2"],
            &["--shards", "10", "--quick"],
        ] {
            let err = HarnessArgs::parse_from(argv).unwrap_err();
            assert!(err.contains("--shards 10 exceeds the 9 groups"), "{err}");
        }
    }

    #[test]
    fn base_spec_reflects_args() {
        let args =
            HarnessArgs::parse_from(["--h", "2", "--warmup", "10", "--measure", "20"]).unwrap();
        let spec = args.base_spec(FlowControlKind::Wormhole);
        assert_eq!(spec.h, 2);
        assert_eq!(spec.warmup, 10);
        assert_eq!(spec.measure, 20);
        assert_eq!(spec.flow_control, FlowControlKind::Wormhole);
    }
}
